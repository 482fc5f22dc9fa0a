//! Shared per-element kernel bodies and problem data of the ADMM updates.
//!
//! The scenario fleet ([`crate::scenario::ScenarioScheduler`]) launches
//! these functions over slot-major buffers spanning `L × n` elements. Every
//! constraint index stored in [`ProblemData`] is *scenario-local*; the
//! element functions take the owning slot's `base` offset (`slot · m`) at
//! call time. Keeping the data scenario-local is what lets scenarios that
//! share loads/outages share one `Arc`'d copy of it regardless of which slot
//! they run in, and keeping the arithmetic in one place is what lets the
//! `#[cfg(test)]` oracle (one network, `base = 0`, plain `Vec`s) pin the
//! fleet bitwise.

use crate::branch_problem::{BranchProblem, ConsensusTerm};
use crate::layout::{BusSlot, ConstraintKind, Layout};
use crate::params::AdmmParams;
use crate::solver::WarmState;
use gridsim_acopf::flows::{branch_flows, BranchFlow, FlowPoint};
use gridsim_acopf::solution::OpfSolution;
use gridsim_grid::network::Network;
use gridsim_sparse::dense::solve2;
use gridsim_tron::TronSolver;

// ---------------------------------------------------------------------------
// read-only per-component data
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GenData {
    pub(crate) pmin: f64,
    pub(crate) pmax: f64,
    pub(crate) qmin: f64,
    pub(crate) qmax: f64,
    pub(crate) c2: f64,
    pub(crate) c1: f64,
    pub(crate) k_p: usize,
    pub(crate) k_q: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BranchData {
    /// The four flow functions `[p_ij, q_ij, p_ji, q_ji]` of the branch
    /// admittance, derived here so a block solve only copies them.
    pub(crate) flows: [BranchFlow; 4],
    pub(crate) limit_sq: f64,
    pub(crate) k_base: usize,
    pub(crate) vmin_i: f64,
    pub(crate) vmax_i: f64,
    pub(crate) vmin_j: f64,
    pub(crate) vmax_j: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BusData {
    pub(crate) pd: f64,
    pub(crate) qd: f64,
    pub(crate) gs: f64,
    pub(crate) bs: f64,
    /// `(constraint index, balance coefficient, copy slot)` of each
    /// real-power copy; +1 for generator copies, −1 for flow copies.
    pub(crate) p_terms: Vec<(usize, f64, usize)>,
    /// Same for reactive-power copies.
    pub(crate) q_terms: Vec<(usize, f64, usize)>,
    pub(crate) w_constraints: Vec<usize>,
    pub(crate) theta_constraints: Vec<usize>,
}

pub(crate) struct ProblemData {
    pub(crate) gens: Vec<GenData>,
    pub(crate) branches: Vec<BranchData>,
    pub(crate) buses: Vec<BusData>,
}

impl ProblemData {
    /// Build the read-only problem data. Every stored constraint index is
    /// scenario-local; kernel element functions shift by the owning slot's
    /// base offset at call time.
    pub(crate) fn build(
        net: &Network,
        layout: &Layout,
        params: &AdmmParams,
        pg_bounds: Option<&(Vec<f64>, Vec<f64>)>,
    ) -> ProblemData {
        // Internal objective scaling (see `AdmmParams::obj_scale`): keep the
        // largest marginal cost comparable to rho_pq so the generator
        // consensus converges at the same rate as the rest of the algorithm.
        let obj_scale = params.obj_scale.unwrap_or_else(|| {
            let grad_max = (0..net.ngen)
                .map(|g| 2.0 * net.cost_c2[g] * net.pmax[g] + net.cost_c1[g].abs())
                .fold(1.0f64, f64::max);
            (10.0 * params.rho_pq / grad_max).min(1.0)
        });
        let gens = (0..net.ngen)
            .map(|g| {
                let (pmin, pmax) = match pg_bounds {
                    Some((lo, hi)) => (lo[g], hi[g]),
                    None => (net.pmin[g], net.pmax[g]),
                };
                GenData {
                    pmin,
                    pmax,
                    qmin: net.qmin[g],
                    qmax: net.qmax[g],
                    c2: obj_scale * net.cost_c2[g],
                    c1: obj_scale * net.cost_c1[g],
                    k_p: layout.gen_p(g),
                    k_q: layout.gen_q(g),
                }
            })
            .collect();
        let branches = (0..net.nbranch)
            .map(|l| {
                let f = net.br_from[l];
                let t = net.br_to[l];
                BranchData {
                    flows: BranchFlow::all_from_admittance(&net.br_y[l]),
                    limit_sq: net.rate_limit_sq(l, params.line_limit_margin),
                    k_base: layout.branch_base(l),
                    vmin_i: net.vmin[f],
                    vmax_i: net.vmax[f],
                    vmin_j: net.vmin[t],
                    vmax_j: net.vmax[t],
                }
            })
            .collect();
        let buses = (0..net.nbus)
            .map(|b| {
                let plan = &layout.bus_plans[b];
                let sign = |k: usize| -> f64 {
                    match layout.constraints[k].kind {
                        ConstraintKind::GenP | ConstraintKind::GenQ => 1.0,
                        _ => -1.0,
                    }
                };
                let slot = |k: usize| -> usize {
                    match layout.constraints[k].slot {
                        BusSlot::Copy(s) => s,
                        _ => unreachable!("power copies always occupy a copy slot"),
                    }
                };
                BusData {
                    pd: net.pd[b],
                    qd: net.qd[b],
                    gs: net.gs[b],
                    bs: net.bs[b],
                    p_terms: plan
                        .p_copies
                        .iter()
                        .map(|&k| (k, sign(k), slot(k)))
                        .collect(),
                    q_terms: plan
                        .q_copies
                        .iter()
                        .map(|&k| (k, sign(k), slot(k)))
                        .collect(),
                    w_constraints: plan.w_constraints.clone(),
                    theta_constraints: plan.theta_constraints.clone(),
                }
            })
            .collect();
        ProblemData {
            gens,
            branches,
            buses,
        }
    }
}

/// Per-constraint `(owning bus, slot)` scatter plan for the v buffer, in
/// scenario-local bus indices. One plan serves every scenario of a batch:
/// slot `s` reads bus `s · nbus + bus`.
pub(crate) fn v_plan(layout: &Layout) -> Vec<(usize, BusSlot)> {
    layout.constraints.iter().map(|c| (c.bus, c.slot)).collect()
}

// ---------------------------------------------------------------------------
// mutable per-component state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
pub(crate) struct GenState {
    pub(crate) pg: f64,
    pub(crate) qg: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct BranchState {
    pub(crate) x: [f64; 6],
    pub(crate) flows: [f64; 4],
    pub(crate) alm_lambda: [f64; 2],
    pub(crate) alm_rho: f64,
}

impl Default for BranchState {
    fn default() -> Self {
        BranchState {
            x: [1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            flows: [0.0; 4],
            alm_lambda: [0.0; 2],
            alm_rho: 0.0,
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct BusState {
    pub(crate) w: f64,
    pub(crate) theta: f64,
    pub(crate) copies: Vec<f64>,
}

/// Cold-start generator state: midpoints of the box (Section IV-B).
pub(crate) fn cold_gen_state(d: &GenData) -> GenState {
    GenState {
        pg: 0.5 * (d.pmin + d.pmax),
        qg: 0.5 * (d.qmin + d.qmax),
    }
}

/// Cold-start branch state: midpoint voltages, zero angles, flows from the
/// initial voltages, slacks clamped into their bounds.
pub(crate) fn cold_branch_state(bd: &BranchData) -> BranchState {
    let vi = 0.5 * (bd.vmin_i + bd.vmax_i);
    let vj = 0.5 * (bd.vmin_j + bd.vmax_j);
    let point = FlowPoint::new(vi, vj, 0.0, 0.0);
    let flows = bd.flows.map(|f| f.value_at(&point));
    let mut x = [vi, vj, 0.0, 0.0, 0.0, 0.0];
    if bd.limit_sq.is_finite() {
        x[4] = (-(flows[0] * flows[0] + flows[1] * flows[1])).clamp(-bd.limit_sq, 0.0);
        x[5] = (-(flows[2] * flows[2] + flows[3] * flows[3])).clamp(-bd.limit_sq, 0.0);
    }
    BranchState {
        x,
        flows,
        alm_lambda: [0.0; 2],
        alm_rho: 0.0,
    }
}

/// Cold-start bus state: midpoint squared voltage, zero angle and copies.
pub(crate) fn cold_bus_state(vmin: f64, vmax: f64, num_copies: usize) -> BusState {
    let vm = 0.5 * (vmin + vmax);
    BusState {
        w: vm * vm,
        theta: 0.0,
        copies: vec![0.0; num_copies],
    }
}

/// Warm-start component states reconstructed from a [`WarmState`] snapshot.
pub(crate) fn warm_states(
    net: &Network,
    warm: &WarmState,
) -> (Vec<GenState>, Vec<BranchState>, Vec<BusState>) {
    let gens: Vec<GenState> = warm
        .gen_pg
        .iter()
        .zip(&warm.gen_qg)
        .map(|(&pg, &qg)| GenState { pg, qg })
        .collect();
    let branches: Vec<BranchState> = (0..net.nbranch)
        .map(|l| BranchState {
            x: warm.branch_x[l],
            flows: {
                let x = warm.branch_x[l];
                branch_flows(&net.br_y[l], x[0], x[1], x[2], x[3])
            },
            alm_lambda: warm.branch_alm_lambda[l],
            alm_rho: warm.branch_alm_rho[l],
        })
        .collect();
    let buses: Vec<BusState> = (0..net.nbus)
        .map(|b| BusState {
            w: warm.bus_w[b],
            theta: warm.bus_theta[b],
            copies: warm.bus_copies[b].clone(),
        })
        .collect();
    (gens, branches, buses)
}

// ---------------------------------------------------------------------------
// per-element kernel bodies
// ---------------------------------------------------------------------------

/// The branch subproblem's inner augmented-Lagrangian settings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AlmSettings {
    pub(crate) max_alm_iter: usize,
    pub(crate) alm_tol: f64,
    pub(crate) alm_rho_init: f64,
    pub(crate) alm_rho_max: f64,
}

impl AlmSettings {
    pub(crate) fn from_params(p: &AdmmParams) -> AlmSettings {
        AlmSettings {
            max_alm_iter: p.max_alm_iter,
            alm_tol: p.alm_tol,
            alm_rho_init: p.alm_rho_init,
            alm_rho_max: p.alm_rho_max,
        }
    }
}

/// Generator update: closed form (6) for the box-constrained quadratic.
/// `base` is the owning slot's offset into the constraint-major buffers
/// (`slot · m`).
#[inline]
pub(crate) fn generator_element(
    d: &GenData,
    base: usize,
    v: &[f64],
    z: &[f64],
    y: &[f64],
    rho: &[f64],
    state: &mut GenState,
) {
    let (kp, kq) = (base + d.k_p, base + d.k_q);
    let tp = v[kp] - z[kp];
    let pg = (rho[kp] * tp - y[kp] - d.c1) / (2.0 * d.c2 + rho[kp]);
    state.pg = pg.clamp(d.pmin, d.pmax);
    let tq = v[kq] - z[kq];
    let qg = tq - y[kq] / rho[kq];
    state.qg = qg.clamp(d.qmin, d.qmax);
}

/// The subproblem (4) of one branch at the current consensus data: targets
/// `v − z`, multipliers and penalties of its eight constraints, and the ALM
/// state carried in `state`. `base` as in [`generator_element`].
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn branch_subproblem(
    d: &BranchData,
    base: usize,
    v: &[f64],
    z: &[f64],
    y: &[f64],
    rho: &[f64],
    alm: &AlmSettings,
    state: &BranchState,
) -> BranchProblem {
    let mut problem = BranchProblem::new(d.flows, d.vmin_i, d.vmax_i, d.vmin_j, d.vmax_j);
    problem.limit_sq = d.limit_sq;
    let term = |k: usize| ConsensusTerm {
        target: v[k] - z[k],
        y: y[k],
        rho: rho[k],
    };
    for j in 0..4 {
        problem.flow_terms[j] = term(base + d.k_base + j);
        problem.volt_terms[j] = term(base + d.k_base + 4 + j);
    }
    problem.alm_lambda = state.alm_lambda;
    problem.alm_rho = if state.alm_rho > 0.0 {
        state.alm_rho
    } else {
        alm.alm_rho_init
    };
    problem
}

/// Branch update: one TRON block solve, in place on `state.x`, wrapped in
/// the inner augmented-Lagrangian loop on the line-limit slack equalities.
/// Allocates nothing. `base` as in [`generator_element`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn branch_element(
    d: &BranchData,
    base: usize,
    v: &[f64],
    z: &[f64],
    y: &[f64],
    rho: &[f64],
    tron: &TronSolver,
    alm: &AlmSettings,
    state: &mut BranchState,
) {
    let mut problem = branch_subproblem(d, base, v, z, y, rho, alm, state);
    // Inner augmented-Lagrangian loop on the line-limit slack equalities; a
    // single TRON solve when there is no limit.
    let mut prev_viol = f64::INFINITY;
    let rounds = if problem.has_limit() {
        alm.max_alm_iter
    } else {
        1
    };
    for _ in 0..rounds {
        tron.solve_in_place(&problem, &mut state.x);
        // One flow evaluation per round feeds both the slack residuals and
        // the consensus scatter (`state.flows` always matches `state.x`).
        state.flows = problem.flow_values(&state.x);
        if !problem.has_limit() {
            break;
        }
        let res = problem.slack_residuals(&state.flows, &state.x);
        let viol = res[0].abs().max(res[1].abs());
        if viol < alm.alm_tol {
            break;
        }
        problem.alm_lambda[0] += problem.alm_rho * res[0];
        problem.alm_lambda[1] += problem.alm_rho * res[1];
        if viol > 0.25 * prev_viol {
            problem.alm_rho = (problem.alm_rho * 10.0).min(alm.alm_rho_max);
        }
        prev_viol = viol;
    }
    state.alm_lambda = problem.alm_lambda;
    state.alm_rho = problem.alm_rho;
}

/// x-side value of constraint `k_local` (scenario-local index) given the
/// scenario's generator and branch state slices.
#[inline]
pub(crate) fn u_element(
    k_local: usize,
    ngen: usize,
    gens: &[GenState],
    branches: &[BranchState],
) -> f64 {
    if k_local < 2 * ngen {
        let g = &gens[k_local / 2];
        if k_local.is_multiple_of(2) {
            g.pg
        } else {
            g.qg
        }
    } else {
        let l = (k_local - 2 * ngen) / 8;
        let offset = (k_local - 2 * ngen) % 8;
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

/// Bus update: the equality-constrained diagonal QP (7) over `w`, `θ` and
/// the power copies. `base` as in [`generator_element`].
pub(crate) fn bus_element(
    d: &BusData,
    base: usize,
    u: &[f64],
    z: &[f64],
    y: &[f64],
    rho: &[f64],
    state: &mut BusState,
) {
    // Linear/quadratic coefficients of each variable in the separable
    // objective:  0.5 * q * x² − c * x.
    let coef = |k: usize| -> (f64, f64) {
        let k = base + k;
        (rho[k], rho[k] * (u[k] + z[k]) + y[k])
    };

    // θ update: unconstrained, separable.
    let mut num = 0.0;
    let mut den = 0.0;
    for &k in &d.theta_constraints {
        let (q, c) = coef(k);
        num += c;
        den += q;
    }
    if den > 0.0 {
        state.theta = num / den;
    }

    // Equality-constrained diagonal QP (7) over w and the copies.
    let mut qw = 0.0;
    let mut cw = 0.0;
    for &k in &d.w_constraints {
        let (q, c) = coef(k);
        qw += q;
        cw += c;
    }
    // A has two rows (P and Q balance). Coefficients on w:
    let aw = [-d.gs, d.bs];
    // Accumulate A Q^{-1} A^T and A Q^{-1} c.
    let mut aqat = [[0.0f64; 2]; 2];
    let mut aqc = [0.0f64; 2];
    if qw > 0.0 {
        aqat[0][0] += aw[0] * aw[0] / qw;
        aqat[0][1] += aw[0] * aw[1] / qw;
        aqat[1][0] += aw[1] * aw[0] / qw;
        aqat[1][1] += aw[1] * aw[1] / qw;
        aqc[0] += aw[0] * cw / qw;
        aqc[1] += aw[1] * cw / qw;
    }
    for &(k, sign, _) in &d.p_terms {
        let (q, c) = coef(k);
        aqat[0][0] += sign * sign / q;
        aqc[0] += sign * c / q;
    }
    for &(k, sign, _) in &d.q_terms {
        let (q, c) = coef(k);
        aqat[1][1] += sign * sign / q;
        aqc[1] += sign * c / q;
    }
    let rhs = [aqc[0] - d.pd, aqc[1] - d.qd];
    let mu = solve2(aqat, rhs).unwrap_or([0.0, 0.0]);
    // Recover the primal variables: x = Q^{-1}(c − A^T μ).
    if qw > 0.0 {
        state.w = (cw - aw[0] * mu[0] - aw[1] * mu[1]) / qw;
    }
    for &(k, sign, slot) in &d.p_terms {
        let (q, c) = coef(k);
        state.copies[slot] = (c - sign * mu[0]) / q;
    }
    for &(k, sign, slot) in &d.q_terms {
        let (q, c) = coef(k);
        state.copies[slot] = (c - sign * mu[1]) / q;
    }
}

/// x̄-side value of a constraint given its scatter-plan entry.
#[inline]
pub(crate) fn v_element(bus: &BusState, slot: BusSlot) -> f64 {
    match slot {
        BusSlot::Copy(s) => bus.copies[s],
        BusSlot::W => bus.w,
        BusSlot::Theta => bus.theta,
    }
}

/// z update: closed form (8).
#[inline]
pub(crate) fn z_element(
    k: usize,
    u: &[f64],
    v: &[f64],
    y: &[f64],
    lam: &[f64],
    rho: &[f64],
    beta: f64,
) -> f64 {
    -(lam[k] + y[k] + rho[k] * (u[k] - v[k])) / (beta + rho[k])
}

/// Inner multiplier update.
#[inline]
pub(crate) fn y_element(k: usize, u: &[f64], v: &[f64], z: &[f64], rho: &[f64], yk: &mut f64) {
    *yk += rho[k] * (u[k] - v[k] + z[k]);
}

/// Outer multiplier update with projection onto `[-bound, bound]`.
#[inline]
pub(crate) fn lambda_element(zk: f64, beta: f64, bound: f64, lk: &mut f64) {
    *lk = (*lk + beta * zk).clamp(-bound, bound);
}

/// Seed a bus's copies from the freshly scattered `u` so a cold start begins
/// from consensus agreement.
pub(crate) fn seed_bus_copies(d: &BusData, u: &[f64], state: &mut BusState) {
    for &(k, _, slot) in &d.p_terms {
        state.copies[slot] = u[k];
    }
    for &(k, _, slot) in &d.q_terms {
        state.copies[slot] = u[k];
    }
}

/// Extract the operating point and warm-start snapshot from one scenario's
/// state slices.
pub(crate) fn extract_segment(
    gens: &[GenState],
    branches: &[BranchState],
    buses: &[BusState],
    y: &[f64],
    lam: &[f64],
    z: &[f64],
    beta: f64,
) -> (OpfSolution, WarmState) {
    let solution = OpfSolution {
        vm: buses.iter().map(|b| b.w.max(0.0).sqrt()).collect(),
        va: buses.iter().map(|b| b.theta).collect(),
        pg: gens.iter().map(|g| g.pg).collect(),
        qg: gens.iter().map(|g| g.qg).collect(),
    };
    let warm = WarmState {
        gen_pg: gens.iter().map(|g| g.pg).collect(),
        gen_qg: gens.iter().map(|g| g.qg).collect(),
        branch_x: branches.iter().map(|b| b.x).collect(),
        branch_alm_lambda: branches.iter().map(|b| b.alm_lambda).collect(),
        branch_alm_rho: branches.iter().map(|b| b.alm_rho).collect(),
        bus_w: buses.iter().map(|b| b.w).collect(),
        bus_theta: buses.iter().map(|b| b.theta).collect(),
        bus_copies: buses.iter().map(|b| b.copies.clone()).collect(),
        y: y.to_vec(),
        lam: lam.to_vec(),
        z: z.to_vec(),
        beta,
    };
    (solution, warm)
}
