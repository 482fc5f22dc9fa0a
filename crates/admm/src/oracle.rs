//! Test oracle: Algorithm 1 transcribed over plain `Vec`s.
//!
//! The production loop is the slot-major fleet in
//! [`crate::scenario::scheduler`]; this is the same arithmetic written the
//! way the paper states it — one network, two nested `for` loops, no device,
//! buffers, launches or statistics — so the unit tests can pin the fleet
//! (and its K=1 front end [`crate::solver::AdmmSolver`]) bitwise against
//! something that shares none of its control flow. It reuses the host-side
//! segment initialization, the per-element kernel bodies (`base = 0`) and
//! the extraction, which are the definition of the arithmetic rather than of
//! the loop.

use crate::kernels::{self, AlmSettings};
use crate::params::AdmmParams;
use crate::scenario::scheduler::init_segment;
use crate::scenario::ScenarioProblem;
use crate::solver::{AdmmStatus, WarmState};
use gridsim_acopf::solution::OpfSolution;
use gridsim_grid::network::Network;
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
    let (mut u, mut v, mut z, mut y, mut lam) = (seg.u, seg.v, seg.z, seg.y, seg.lam);
    let tron = TronSolver::new(params.tron.clone());
    let alm = AlmSettings::from_params(params);

    let mut beta = warm.map_or(params.beta_init, |w| w.beta);
    let (mut inner_iterations, mut outer_iterations) = (0, 0);
    let (mut z_inf_prev, mut z_inf, mut primal_residual) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut status = AdmmStatus::MaxOuterIterations;

    for _ in 0..params.max_outer {
        outer_iterations += 1;
        for _ in 0..params.max_inner {
            inner_iterations += 1;
            // x block: generators and branches (line 3 of Algorithm 1).
            for (d, g) in data.gens.iter().zip(&mut gens) {
                kernels::generator_element(d, 0, &v, &z, &y, rho, g);
            }
            for (d, b) in data.branches.iter().zip(&mut branches) {
                kernels::branch_element(d, 0, &v, &z, &y, rho, &tron, &alm, b);
            }
            for (k, uk) in u.iter_mut().enumerate() {
                *uk = kernels::u_element(k, ngen, &gens, &branches);
            }
            // x̄ block: buses (line 4).
            for (d, b) in data.buses.iter().zip(&mut buses) {
                kernels::bus_element(d, 0, &u, &z, &y, rho, b);
            }
            for (vk, &(bus, slot)) in v.iter_mut().zip(problem.vplan.iter()) {
                *vk = kernels::v_element(&buses[bus], slot);
            }
            // z and multiplier updates (lines 5–6).
            let z_prev = z.clone();
            for (k, zk) in z.iter_mut().enumerate() {
                *zk = kernels::z_element(k, &u, &v, &y, &lam, rho, beta);
            }
            for (k, yk) in y.iter_mut().enumerate() {
                kernels::y_element(k, &u, &v, &z, rho, yk);
            }
            primal_residual = max_fold((0..m).map(|k| (u[k] - v[k] + z[k]).abs()));
            let dual_residual = max_fold((0..m).map(|k| (rho[k] * (z[k] - z_prev[k])).abs()));
            if primal_residual <= params.eps_inner && dual_residual <= params.eps_inner {
                break;
            }
        }
        // Outer-level update (line 8) and termination (line 9).
        z_inf = max_fold(z.iter().map(|zk| zk.abs()));
        if z_inf <= params.eps_outer {
            status = AdmmStatus::Converged;
            break;
        }
        for (lk, &zk) in lam.iter_mut().zip(&z) {
            kernels::lambda_element(zk, beta, params.lambda_bound, lk);
        }
        if z_inf > params.z_decrease_factor * z_inf_prev {
            beta *= params.beta_factor;
        }
        z_inf_prev = z_inf;
    }

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
    }
}
