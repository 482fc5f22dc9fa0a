//! Shared per-element kernel bodies and problem data of the ADMM updates.
//!
//! The scenario fleet ([`crate::scenario::ScenarioScheduler`]) launches
//! these functions over slot-major buffers spanning `L × n` elements: the
//! generator and branch updates each write their own entries of `u` as they
//! compute them ([`gen_u`], [`branch_u`]), and one consensus pass
//! ([`consensus_element`]) reads `v` from the buses and updates `z` and `y`
//! in place while it scores the residuals. The branch update
//! ([`branch_group`]) gathers each full lock-step group's problem straight
//! from the data, solves a segment's odd branch alone, and takes each
//! branch's flows from its solve's last derivative evaluation. Every
//! constraint index stored in [`ProblemData`] is *scenario-local*, and the
//! element functions index slot-local slices: each launch hands its kernel
//! the element's slot, the kernel passes the slot's segments of the
//! constraint buffers, and the per-constraint penalties ρ are the one
//! length-`m` vector of the problem, shared by every slot. Keeping the data
//! scenario-local is what lets scenarios that share loads/outages share one
//! `Arc`'d copy of it regardless of which slot they run in, and keeping the
//! arithmetic in one place is what lets the `#[cfg(test)]` oracle (one
//! network, plain `Vec`s) pin the fleet bitwise.

use crate::branch_problem::{limit_residuals, BranchProblem, ConsensusTerm};
use crate::layout::{BusSlot, ConstraintKind, Layout};
use crate::params::AdmmParams;
use crate::solver::WarmState;
use gridsim_acopf::{branch_flows, BranchFlow, FlowPoint, OpfSolution};
use gridsim_grid::Network;
use gridsim_sparse::{solve2, Lanes, Real, LANES};
use gridsim_tron::TronSolver;
use std::cell::Cell;

/// Initial outer-level penalty β on `z = 0` of a cold start; a warm start
/// resumes its donor's β.
pub(crate) const BETA_INIT: f64 = 1e3;
/// Required decrease factor of `‖z‖∞` between outer iterations; short of
/// it, β is multiplied by [`AdmmParams::beta_factor`].
pub(crate) const Z_DECREASE_FACTOR: f64 = 0.25;
/// Bound of the projection of the outer multiplier λ.
const LAMBDA_BOUND: f64 = 1e12;
/// Line-limit tightening margin of the branch subproblems: Section IV-A
/// solves against 99 % of each line's capacity.
pub(crate) const LINE_LIMIT_MARGIN: f64 = 0.99;
/// Augmented-Lagrangian rounds on the line-limit slack equalities inside
/// one branch update.
pub(crate) const MAX_ALM_ITER: usize = 4;
/// Slack-equality violation that ends the branch ALM loop early.
pub(crate) const ALM_TOL: f64 = 1e-6;
/// Initial penalty of the branch ALM terms.
pub(crate) const ALM_RHO_INIT: f64 = 10.0;
/// Cap of the branch ALM penalty, which grows tenfold whenever a round cuts
/// the violation by less than 4×.
pub(crate) const ALM_RHO_MAX: f64 = 1e7;

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
    /// scenario-local.
    pub(crate) fn build(
        net: &Network,
        layout: &Layout,
        params: &AdmmParams,
        pg_bounds: Option<&(Vec<f64>, Vec<f64>)>,
    ) -> ProblemData {
        // Internal objective scaling: scaling the whole objective by a
        // positive constant does not move the minimizer, but it sets how
        // strongly the cost competes with the consensus penalties (the paper
        // scales the 70k case's objective by 2 for the same reason). Keep the
        // largest marginal cost comparable to rho_pq so the generator
        // consensus converges at the same rate as the rest of the algorithm.
        let grad_max = (0..net.ngen)
            .map(|g| 2.0 * net.cost_c2[g] * net.pmax[g] + net.cost_c1[g].abs())
            .fold(1.0f64, f64::max);
        let obj_scale = (10.0 * params.rho_pq / grad_max).min(1.0);
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
                    limit_sq: net.rate_limit_sq(l, LINE_LIMIT_MARGIN),
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

/// The bus side of one consensus constraint and its two updates, which one
/// consensus pass writes together: `v` (the bus value), `z` (the artificial
/// variable) and `y` (the inner multiplier).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ConsensusState {
    pub(crate) v: f64,
    pub(crate) z: f64,
    pub(crate) y: f64,
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

/// Generator update: closed form (6) for the box-constrained quadratic.
/// `cons` is the generator's slot's segment of the consensus state and
/// `rho` the per-constraint penalties, both indexed by constraint.
#[inline]
pub(crate) fn generator_element(
    d: &GenData,
    cons: &[ConsensusState],
    rho: &[f64],
    state: &mut GenState,
) {
    let (kp, kq) = (d.k_p, d.k_q);
    let (cp, cq) = (&cons[kp], &cons[kq]);
    let tp = cp.v - cp.z;
    let pg = (rho[kp] * tp - cp.y - d.c1) / (2.0 * d.c2 + rho[kp]);
    state.pg = pg.clamp(d.pmin, d.pmax);
    let tq = cq.v - cq.z;
    let qg = tq - cq.y / rho[kq];
    state.qg = qg.clamp(d.qmin, d.qmax);
}

/// x-side values of a generator's two constraints, `[pg, qg]`: its window
/// of `u`.
#[inline]
pub(crate) fn gen_u(g: &GenState) -> [f64; 2] {
    [g.pg, g.qg]
}

/// The subproblem (4) of branches `d` with states `states` at the current
/// consensus data, one branch per lane of `T` (one branch for `f64`,
/// [`LANES`] for a lock-step group): targets `v − z`, multipliers and
/// penalties of their eight constraints, and the ALM state carried in each
/// state. Always inlined, so that the branch kernel gathers a group's lanes
/// straight from the data, with no problem built per branch. `cons` and
/// `rho` as in [`generator_element`].
#[inline(always)]
pub(crate) fn branch_subproblem<T: Real>(
    d: &[BranchData],
    cons: &[ConsensusState],
    rho: &[f64],
    states: &[BranchState],
) -> BranchProblem<T> {
    debug_assert_eq!(d.len(), states.len());
    let term = |j: usize| {
        ConsensusTerm::from_lanes(|k| {
            let i = d[k].k_base + j;
            ConsensusTerm {
                target: cons[i].v - cons[i].z,
                y: cons[i].y,
                rho: rho[i],
            }
        })
    };
    let flow = |j: usize| BranchFlow::from_lanes(|k| d[k].flows[j]);
    let multiplier = |j: usize| T::from_lanes(|k| states[k].alm_lambda[j]);
    BranchProblem {
        flows: [flow(0), flow(1), flow(2), flow(3)],
        flow_terms: [term(0), term(1), term(2), term(3)],
        volt_terms: [term(4), term(5), term(6), term(7)],
        v_bounds: [
            T::from_lanes(|k| d[k].vmin_i),
            T::from_lanes(|k| d[k].vmax_i),
            T::from_lanes(|k| d[k].vmin_j),
            T::from_lanes(|k| d[k].vmax_j),
        ],
        alm_lambda: [multiplier(0), multiplier(1)],
        alm_rho: T::from_lanes(|k| alm_penalty(states[k].alm_rho)),
        limit_sq: T::from_lanes(|k| d[k].limit_sq),
        last_flows: Cell::new([T::splat(0.0); 4]),
    }
}

/// The ALM penalty a branch solves with: its carried penalty once it has
/// one, [`ALM_RHO_INIT`] before.
#[inline(always)]
fn alm_penalty(carried: f64) -> f64 {
    if carried > 0.0 {
        carried
    } else {
        ALM_RHO_INIT
    }
}

/// Branch update of a lock-step group: the branches `d` (1 to [`LANES`]
/// consecutive ones of one segment) with their states and their window of
/// `u` (eight values per branch). A full group's first TRON solves run in
/// lock-step on one problem gathered from the data
/// ([`TronSolver::solve_lanes`], in place on each `state.x`); a shorter
/// group — with two lanes, the odd branch at a segment's end — solves each
/// branch alone with [`TronSolver::solve_in_place`]. Either way the solve
/// hands back the flows at its final iterate
/// ([`BranchProblem::last_flows`]); each branch then finishes its own inner
/// augmented-Lagrangian loop ([`alm_rounds`]) and writes its [`branch_u`]
/// into its window. Bitwise the per-branch update of the `cfg(test)`
/// oracle (one `solve_in_place`, a flow evaluation, then the same rounds)
/// on each branch, and its `u` scatter. Allocates nothing. `cons` and `rho`
/// as in [`generator_element`].
pub(crate) fn branch_group(
    d: &[BranchData],
    cons: &[ConsensusState],
    rho: &[f64],
    tron: &TronSolver,
    states: &mut [BranchState],
    u: &mut [f64],
) {
    debug_assert!(d.len() == states.len() && states.len() <= LANES && u.len() == 8 * d.len());
    if states.len() == LANES {
        let problem: BranchProblem<Lanes> = branch_subproblem(d, cons, rho, states);
        let mut x = [Lanes::splat(0.0); 6];
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = Lanes::from_fn(|k| states[k].x[i]);
        }
        let lane =
            |k: usize| -> BranchProblem { branch_subproblem(&d[k..=k], cons, rho, &states[k..=k]) };
        tron.solve_lanes(&problem, lane, &mut x);
        let flows = problem.last_flows();
        for (k, state) in states.iter_mut().enumerate() {
            state.x = std::array::from_fn(|i| x[i].0[k]);
            state.flows = std::array::from_fn(|j| flows[j].0[k]);
        }
    } else {
        for (k, state) in states.iter_mut().enumerate() {
            let problem: BranchProblem =
                branch_subproblem(&d[k..=k], cons, rho, std::slice::from_ref(state));
            tron.solve_in_place(&problem, &mut state.x);
            state.flows = problem.last_flows();
        }
    }
    let branches = d.iter().zip(states).zip(u.chunks_exact_mut(8));
    for ((d, state), u) in branches {
        alm_rounds(d, cons, rho, tron, state);
        u.copy_from_slice(&branch_u(state));
    }
}

/// The inner augmented-Lagrangian loop on the line-limit slack equalities,
/// after its first TRON solve has left its iterate in `state.x` and the
/// flows there in `state.flows`: a single round when there is no limit,
/// else a multiplier and penalty update and another solve while the
/// violation stays above [`ALM_TOL`], for at most [`MAX_ALM_ITER`] solves.
/// Leaves the flows, multipliers and penalty in `state`. Most updates end
/// at the first round's test — every one on the `cold` and `track`
/// benchmark workloads; on `sweep`'s contingencies 9 % of them go on to
/// [`later_alm_rounds`], which builds the branch's problem again.
#[inline(always)]
fn alm_rounds(
    d: &BranchData,
    cons: &[ConsensusState],
    rho: &[f64],
    tron: &TronSolver,
    state: &mut BranchState,
) {
    state.alm_rho = alm_penalty(state.alm_rho);
    if !d.limit_sq.is_finite() {
        return;
    }
    let res = limit_residuals(&state.flows, &state.x);
    if res[0].abs().max(res[1].abs()) < ALM_TOL {
        return;
    }
    later_alm_rounds(d, cons, rho, tron, state);
}

/// [`alm_rounds`] from its first round's update on, for a limited branch
/// whose first solve left a violation of at least [`ALM_TOL`]. Each solve
/// hands back the flows at its iterate, like the first. Out of line, so
/// that the first round's test, inlined into the branch kernel for every
/// branch, stays small: the call and the rebuilt problem come once per
/// update that gets here, beside the 2.5 TRON solves such an update runs
/// on `sweep`.
#[inline(never)]
fn later_alm_rounds(
    d: &BranchData,
    cons: &[ConsensusState],
    rho: &[f64],
    tron: &TronSolver,
    state: &mut BranchState,
) {
    let mut problem: BranchProblem = branch_subproblem(
        std::slice::from_ref(d),
        cons,
        rho,
        std::slice::from_ref(state),
    );
    let mut prev_viol = f64::INFINITY;
    for round in 0..MAX_ALM_ITER {
        if round > 0 {
            tron.solve_in_place(&problem, &mut state.x);
            state.flows = problem.last_flows();
        }
        let res = limit_residuals(&state.flows, &state.x);
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

/// x-side values of a branch's eight constraints in the layout's order
/// `[p_ij, q_ij, p_ji, q_ji, w_i, θ_i, w_j, θ_j]`: its window of `u`.
#[inline]
pub(crate) fn branch_u(b: &BranchState) -> [f64; 8] {
    let (f, x) = (&b.flows, &b.x);
    [f[0], f[1], f[2], f[3], x[0] * x[0], x[2], x[1] * x[1], x[3]]
}

/// Bus update: the equality-constrained diagonal QP (7) over `w`, `θ` and
/// the power copies. `u` and `cons` are the bus's slot's segments and `rho`
/// the per-constraint penalties, as in [`generator_element`].
pub(crate) fn bus_element(
    d: &BusData,
    u: &[f64],
    cons: &[ConsensusState],
    rho: &[f64],
    state: &mut BusState,
) {
    // Linear/quadratic coefficients of each variable in the separable
    // objective:  0.5 * q * x² − c * x.
    let coef = |k: usize| -> (f64, f64) { (rho[k], rho[k] * (u[k] + cons[k].z) + cons[k].y) };

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

/// z update: closed form (8), from the constraint's `u`, `v`, `y`, `λ`
/// and `ρ`.
#[inline]
pub(crate) fn z_element(u: f64, v: f64, y: f64, lam: f64, rho: f64, beta: f64) -> f64 {
    -(lam + y + rho * (u - v)) / (beta + rho)
}

/// Inner multiplier update, from the constraint's `u`, `v`, new `z` and `ρ`.
#[inline]
pub(crate) fn y_element(u: f64, v: f64, z: f64, rho: f64, y: &mut f64) {
    *y += rho * (u - v + z);
}

/// One constraint's consensus pass: store `v`, the bus value just computed,
/// update `z` ([`z_element`]) and then `y` ([`y_element`]) in place, and
/// return the constraint's scores `[|u − v + z|, |ρ (z − z_old)|, |z|]` —
/// its primal residual, its dual residual and its share of `‖z‖∞` — all
/// at the new `z`.
#[inline]
pub(crate) fn consensus_element(
    u: f64,
    v: f64,
    lam: f64,
    rho: f64,
    beta: f64,
    c: &mut ConsensusState,
) -> [f64; 3] {
    let z_old = c.z;
    c.v = v;
    c.z = z_element(u, v, c.y, lam, rho, beta);
    y_element(u, v, c.z, rho, &mut c.y);
    [(u - v + c.z).abs(), (rho * (c.z - z_old)).abs(), c.z.abs()]
}

/// Outer multiplier update with projection onto `[-bound, bound]`.
#[inline]
pub(crate) fn lambda_element(zk: f64, beta: f64, lk: &mut f64) {
    *lk = (*lk + beta * zk).clamp(-LAMBDA_BOUND, LAMBDA_BOUND);
}

/// Seed a bus's copies from the component values `u` so a cold start begins
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
