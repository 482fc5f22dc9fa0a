//! Test oracle: Algorithm 1 transcribed over plain `Vec`s.
//!
//! The production loop is the slot-major fleet in
//! [`crate::scenario::scheduler`]; this is the same arithmetic written the
//! way the paper states it — one network, two nested `for` loops, no device,
//! buffers, launches or statistics — so the unit tests can pin the fleet
//! (and its K=1 front end [`crate::solver::AdmmSolver`]) bitwise against
//! something that shares none of its control flow. It keeps the separate
//! passes the fleet fuses — the `u` scatter ([`u_element`]), the `v`
//! scatter, the `z` and `y` updates and the residual folds each run over
//! every constraint on their own — and reuses the host-side segment
//! initialization, the per-element kernel bodies and the
//! extraction, which are the definition of the arithmetic rather than of
//! the loop.

use crate::branch_problem::BranchProblem;
use crate::kernels::{
    self, BranchData, BranchState, ConsensusState, GenState, ALM_RHO_MAX, ALM_TOL, BETA_INIT,
    MAX_ALM_ITER, Z_DECREASE_FACTOR,
};
use crate::params::AdmmParams;
use crate::scenario::scheduler::init_segment;
use crate::scenario::ScenarioProblem;
use crate::solver::{AdmmStatus, WarmState};
use gridsim_acopf::OpfSolution;
use gridsim_grid::Network;
use gridsim_tron::TronSolver;

/// Everything a solve reports except derived quality metrics and timing.
#[derive(Debug)]
pub(crate) struct OracleResult {
    pub(crate) solution: OpfSolution,
    pub(crate) warm_state: WarmState,
    pub(crate) status: AdmmStatus,
    pub(crate) inner_iterations: usize,
    pub(crate) outer_iterations: usize,
    pub(crate) z_inf: f64,
    pub(crate) primal_residual: f64,
    /// Inner iterations that met the primal tolerance but not the dual one:
    /// where the dual residual alone kept the inner loop going.
    pub(crate) dual_bound_iterations: usize,
}

/// Branch update: one TRON block solve, in place on `state.x`, then the
/// inner augmented-Lagrangian rounds, each evaluating the flows at its
/// iterate on its own — the per-element body the lock-step
/// `kernels::branch_group`, which reads the flows each solve hands back,
/// must match bit for bit.
fn branch_element(
    d: &BranchData,
    cons: &[ConsensusState],
    rho: &[f64],
    tron: &TronSolver,
    state: &mut BranchState,
) {
    let mut problem: BranchProblem = kernels::branch_subproblem(
        std::slice::from_ref(d),
        cons,
        rho,
        std::slice::from_ref(state),
    );
    let mut prev_viol = f64::INFINITY;
    let rounds = if problem.has_limit() { MAX_ALM_ITER } else { 1 };
    for _ in 0..rounds {
        tron.solve_in_place(&problem, &mut state.x);
        state.flows = problem.flow_values(&state.x);
        if !problem.has_limit() {
            break;
        }
        let res = problem.slack_residuals(&state.flows, &state.x);
        let viol = res[0].abs().max(res[1].abs());
        if viol < ALM_TOL {
            break;
        }
        problem.alm_lambda[0] += problem.alm_rho * res[0];
        problem.alm_lambda[1] += problem.alm_rho * res[1];
        if viol > 0.25 * prev_viol {
            problem.alm_rho = (problem.alm_rho * 10.0).min(ALM_RHO_MAX);
        }
        prev_viol = viol;
    }
    state.alm_lambda = problem.alm_lambda;
    state.alm_rho = problem.alm_rho;
}

/// x-side value of constraint `k` given the generator and branch states,
/// in the layout's order: `[pg, qg]` per generator, then
/// `[p_ij, q_ij, p_ji, q_ji, w_i, θ_i, w_j, θ_j]` per branch.
fn u_element(k: usize, ngen: usize, gens: &[GenState], branches: &[BranchState]) -> f64 {
    if k < 2 * ngen {
        let g = &gens[k / 2];
        if k.is_multiple_of(2) {
            g.pg
        } else {
            g.qg
        }
    } else {
        let l = (k - 2 * ngen) / 8;
        let offset = (k - 2 * ngen) % 8;
        let b = &branches[l];
        match offset {
            0..=3 => b.flows[offset],
            4 => b.x[0] * b.x[0],
            5 => b.x[2],
            6 => b.x[1] * b.x[1],
            _ => b.x[3],
        }
    }
}

/// Index-ordered `max` fold with the device's empty → `0.0` convention.
fn max_fold(scores: impl Iterator<Item = f64>) -> f64 {
    let m = scores.fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        0.0
    } else {
        m
    }
}

/// Solve `net` from a cold start (`warm == None`) or a warm state, with
/// optional ramp-limited generator bounds.
pub(crate) fn solve(
    net: &Network,
    params: &AdmmParams,
    warm: Option<&WarmState>,
    pg_bounds: Option<&(Vec<f64>, Vec<f64>)>,
) -> OracleResult {
    let problem = ScenarioProblem::build(
        std::slice::from_ref(net),
        params,
        pg_bounds.map(std::slice::from_ref),
    );
    let data = &problem.data[0];
    let (m, ngen, rho) = (problem.m, problem.ngen, problem.rho.as_slice());
    let seg = init_segment(net, data, &problem, warm);
    let (mut gens, mut branches, mut buses) = (seg.gens, seg.branches, seg.buses);
    let (mut cons, mut lam, mut u) = (seg.cons, seg.lam, vec![0.0; m]);
    let tron = TronSolver::new(params.tron.clone());

    let mut beta = warm.map_or(BETA_INIT, |w| w.beta);
    let (mut inner_iterations, mut outer_iterations, mut dual_bound_iterations) = (0, 0, 0);
    let (mut z_inf_prev, mut z_inf, mut primal_residual) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut status = AdmmStatus::MaxOuterIterations;

    for _ in 0..params.max_outer {
        outer_iterations += 1;
        for _ in 0..params.max_inner {
            inner_iterations += 1;
            // x block: generators and branches (line 3 of Algorithm 1).
            for (d, g) in data.gens.iter().zip(&mut gens) {
                kernels::generator_element(d, &cons, rho, g);
            }
            for (d, b) in data.branches.iter().zip(&mut branches) {
                branch_element(d, &cons, rho, &tron, b);
            }
            for (k, uk) in u.iter_mut().enumerate() {
                *uk = u_element(k, ngen, &gens, &branches);
            }
            // x̄ block: buses (line 4).
            for (d, b) in data.buses.iter().zip(&mut buses) {
                kernels::bus_element(d, &u, &cons, rho, b);
            }
            for (c, &(bus, slot)) in cons.iter_mut().zip(problem.vplan.iter()) {
                c.v = kernels::v_element(&buses[bus], slot);
            }
            // z and multiplier updates (lines 5–6).
            let z_prev: Vec<f64> = cons.iter().map(|c| c.z).collect();
            for (k, c) in cons.iter_mut().enumerate() {
                c.z = kernels::z_element(u[k], c.v, c.y, lam[k], rho[k], beta);
            }
            for (k, c) in cons.iter_mut().enumerate() {
                kernels::y_element(u[k], c.v, c.z, rho[k], &mut c.y);
            }
            primal_residual = max_fold((0..m).map(|k| (u[k] - cons[k].v + cons[k].z).abs()));
            let dual_residual = max_fold((0..m).map(|k| (rho[k] * (cons[k].z - z_prev[k])).abs()));
            if primal_residual <= params.eps_inner && dual_residual <= params.eps_inner {
                break;
            }
            if primal_residual <= params.eps_inner {
                dual_bound_iterations += 1;
            }
        }
        // Outer-level update (line 8) and termination (line 9).
        z_inf = max_fold(cons.iter().map(|c| c.z.abs()));
        if z_inf <= params.eps_outer {
            status = AdmmStatus::Converged;
            break;
        }
        for (lk, c) in lam.iter_mut().zip(&cons) {
            kernels::lambda_element(c.z, beta, lk);
        }
        if z_inf > Z_DECREASE_FACTOR * z_inf_prev {
            beta *= params.beta_factor;
        }
        z_inf_prev = z_inf;
    }

    let y: Vec<f64> = cons.iter().map(|c| c.y).collect();
    let z: Vec<f64> = cons.iter().map(|c| c.z).collect();
    let (solution, warm_state) =
        kernels::extract_segment(&gens, &branches, &buses, &y, &lam, &z, beta);
    OracleResult {
        solution,
        warm_state,
        status,
        inner_iterations,
        outer_iterations,
        z_inf,
        primal_residual,
        dual_bound_iterations,
    }
}
