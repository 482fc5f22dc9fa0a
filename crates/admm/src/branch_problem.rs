//! The branch subproblem (4): a 6-variable bound-constrained nonconvex
//! problem solved by the batch TRON solver.
//!
//! Variables, in order: `[v_i, v_j, θ_i, θ_j, s_ij, s_ji]`. The objective is
//! the sum of
//!
//! * ADMM consensus terms `y (u − t) + ρ/2 (u − t)²` for the four flow
//!   consensus constraints (where `u` is the flow computed from the branch
//!   voltages and `t = v_bus − z` is fixed during the branch solve),
//! * the analogous terms for the four voltage/angle consensus constraints,
//! * inner augmented-Lagrangian terms
//!   `λ̃ (p² + q² + s) + ρ̃/2 (p² + q² + s)²` for the two line-limit slack
//!   equalities (only when the branch has a finite rating).
//!
//! Slack bounds are `s ∈ [−(margin·rate)², 0]`, so that `p² + q² ≤ (margin·
//! rate)²` at a feasible point.
//!
//! Every term depends on the point only through the four flows and their
//! derivatives, and those only through one `sin_cos(θ_i − θ_j)`: `objective`
//! and `derivatives` each build one [`FlowPoint`] and evaluate everything
//! from it, in fixed-size arrays. `derivatives` also keeps the flows it
//! computed ([`BranchProblem::last_flows`]): a TRON solve's last call of it
//! is at the iterate the solve returns, so the branch kernel reads the flows
//! of its consensus values there instead of evaluating them again.

use crate::kernels;
use crate::params::AdmmParams;
use crate::scenario::scheduler::init_segment;
use crate::scenario::ScenarioProblem;
use crate::solver::WarmState;
use gridsim_acopf::{BranchFlow, FlowPoint};
use gridsim_grid::Network;
use gridsim_sparse::{Lanes, Mask, Real, SmallMatrix, LANES};
use gridsim_tron::BoundProblem;
use std::cell::Cell;

/// Per-constraint ADMM data seen by the branch problem: the combined target
/// `t = v − z` of the consensus term, the multiplier `y`, and the penalty ρ.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConsensusTerm<T = f64> {
    /// Target value `v − z` (fixed during the branch solve).
    pub target: T,
    /// ADMM multiplier `y`.
    pub y: T,
    /// ADMM penalty ρ.
    pub rho: T,
}

impl<T: Real> ConsensusTerm<T> {
    /// Value of the term at x-side value `u`.
    #[inline(always)]
    fn value(&self, u: T) -> T {
        let r = u - self.target;
        self.y * r + T::splat(0.5) * self.rho * r * r
    }

    /// Derivative of the term with respect to `u`.
    #[inline(always)]
    fn deriv(&self, u: T) -> T {
        self.y + self.rho * (u - self.target)
    }
}

/// The branch subproblem of one branch in one ADMM iteration: `f64` data
/// for one branch, [`Lanes`] for a lock-step group of branches, one per
/// lane.
#[derive(Debug, Clone)]
pub struct BranchProblem<T: Copy = f64> {
    /// The four flow functions in the order `[p_ij, q_ij, p_ji, q_ji]`.
    pub flows: [BranchFlow<T>; 4],
    /// Consensus terms of the four flow constraints (same order).
    pub flow_terms: [ConsensusTerm<T>; 4],
    /// Consensus terms of `[w_i, θ_i, w_j, θ_j]`.
    pub volt_terms: [ConsensusTerm<T>; 4],
    /// Voltage magnitude bounds `[v_i^min, v_i^max, v_j^min, v_j^max]`.
    pub v_bounds: [T; 4],
    /// Inner augmented-Lagrangian multipliers for the from/to line limits.
    pub alm_lambda: [T; 2],
    /// Inner augmented-Lagrangian penalty.
    pub alm_rho: T,
    /// Squared (tightened) line limit; `f64::INFINITY` when unlimited.
    pub limit_sq: T,
    /// The flows at the point of the last `derivatives` call (zero before
    /// the first).
    pub(crate) last_flows: Cell<[T; 4]>,
}

impl BranchProblem {
    /// Build a problem skeleton from a branch's four flow functions (see
    /// [`BranchFlow::all_from_admittance`]). Consensus and ALM data must be
    /// filled in by the caller before each solve.
    pub fn new(flows: [BranchFlow; 4], vmin_i: f64, vmax_i: f64, vmin_j: f64, vmax_j: f64) -> Self {
        BranchProblem {
            flows,
            flow_terms: [ConsensusTerm::default(); 4],
            volt_terms: [ConsensusTerm::default(); 4],
            v_bounds: [vmin_i, vmax_i, vmin_j, vmax_j],
            alm_lambda: [0.0; 2],
            alm_rho: 0.0,
            limit_sq: f64::INFINITY,
            last_flows: Cell::new([0.0; 4]),
        }
    }

    /// The block solves of one `branch_tron` launch, without the launch:
    /// the subproblem of every branch of `net` as the first inner iteration
    /// of a solve warm-started from `warm` builds it, each with its starting
    /// point. Lets a bench or a diagnostic time real blocks with no ADMM
    /// loop around them.
    pub fn blocks_from_warm_state(
        net: &Network,
        params: &AdmmParams,
        warm: &WarmState,
    ) -> Vec<(BranchProblem, [f64; 6])> {
        warm_blocks(net, params, warm, 1)
    }
}

impl BranchProblem<Lanes> {
    /// The lock-step groups of the same launch: group `g` is branches
    /// `LANES·g, …` gathered the way the branch kernel gathers a full
    /// group, with its starting point. A last branch left over, which the
    /// kernel solves alone, is in no group.
    pub fn groups_from_warm_state(
        net: &Network,
        params: &AdmmParams,
        warm: &WarmState,
    ) -> Vec<(BranchProblem<Lanes>, [Lanes; 6])> {
        warm_blocks(net, params, warm, LANES)
    }
}

/// The problems of consecutive runs of `width` branches (the lanes of `T`)
/// built by [`kernels::branch_subproblem`] from the segment a warm start
/// from `warm` admits, with their starting points.
fn warm_blocks<T: Real>(
    net: &Network,
    params: &AdmmParams,
    warm: &WarmState,
    width: usize,
) -> Vec<(BranchProblem<T>, [T; 6])> {
    let problem = ScenarioProblem::build(std::slice::from_ref(net), params, None);
    let data = &problem.data[0];
    let seg = init_segment(net, data, &problem, Some(warm));
    let runs = data
        .branches
        .chunks_exact(width)
        .zip(seg.branches.chunks_exact(width));
    runs.map(|(d, states)| {
        let block = kernels::branch_subproblem(d, &seg.cons, &problem.rho, states);
        let x0 = std::array::from_fn(|i| T::from_lanes(|k| states[k].x[i]));
        (block, x0)
    })
    .collect()
}

impl<T: Real> ConsensusTerm<T> {
    /// The terms `lane(0), …` as the lanes of one term (`lane(0)` itself
    /// for `f64`).
    #[inline(always)]
    pub(crate) fn from_lanes(lane: impl Fn(usize) -> ConsensusTerm) -> Self {
        ConsensusTerm {
            target: T::from_lanes(|k| lane(k).target),
            y: T::from_lanes(|k| lane(k).y),
            rho: T::from_lanes(|k| lane(k).rho),
        }
    }
}

impl<T: Real> BranchProblem<T> {
    /// True (per lane) when this branch has a finite line limit (and
    /// therefore slack variables and ALM terms).
    #[inline(always)]
    pub fn has_limit(&self) -> T::Mask {
        // `|l| < ∞` is `l.is_finite()`: false for ±∞ and NaN.
        self.limit_sq.abs().less(T::splat(f64::INFINITY))
    }

    /// The four flow values at the given voltages.
    #[inline(always)]
    pub(crate) fn flow_values(&self, x: &[T]) -> [T; 4] {
        let point = FlowPoint::new(x[0], x[1], x[2], x[3]);
        each_flow(&self.flows, |f| f.value_at(&point))
    }

    /// The flows at the point of the last `derivatives` call: after a TRON
    /// solve, bitwise `self.flow_values(x)` at the iterate `x` it returned,
    /// in every lane.
    #[inline(always)]
    pub(crate) fn last_flows(&self) -> [T; 4] {
        self.last_flows.get()
    }

    /// Line-limit slack residuals `p² + q² + s` for the from and to sides,
    /// given the flows `f = self.flow_values(x)`; zero without a limit.
    #[inline(always)]
    pub(crate) fn slack_residuals(&self, f: &[T; 4], x: &[T]) -> [T; 2] {
        let (limit, zero) = (self.has_limit(), T::splat(0.0));
        let res = limit_residuals(f, x);
        [
            T::select(limit, res[0], zero),
            T::select(limit, res[1], zero),
        ]
    }

    /// `lower` of [`BoundProblem`].
    #[inline(always)]
    fn lower_bound(&self, i: usize) -> T {
        match i {
            0 => self.v_bounds[0],
            1 => self.v_bounds[2],
            2 | 3 => T::splat(-2.0 * std::f64::consts::PI),
            _ => T::select(self.has_limit(), -self.limit_sq, T::splat(0.0)),
        }
    }

    /// `upper` of [`BoundProblem`].
    #[inline(always)]
    fn upper_bound(&self, i: usize) -> T {
        match i {
            0 => self.v_bounds[1],
            1 => self.v_bounds[3],
            2 | 3 => T::splat(2.0 * std::f64::consts::PI),
            _ => T::splat(0.0),
        }
    }

    /// `objective` of [`BoundProblem`]. The ALM terms of a limited branch
    /// count in the lanes that have a limit, and are not added as a zero
    /// elsewhere, which could turn a `-0.0` or carry a NaN.
    #[inline(always)]
    fn evaluate_objective(&self, x: &[T]) -> T {
        let (vi, vj, ti, tj) = (x[0], x[1], x[2], x[3]);
        let flows = self.flow_values(x);
        let mut obj = T::splat(0.0);
        for (term, &flow) in self.flow_terms.iter().zip(&flows) {
            obj += term.value(flow);
        }
        obj += self.volt_terms[0].value(vi * vi);
        obj += self.volt_terms[1].value(ti);
        obj += self.volt_terms[2].value(vj * vj);
        obj += self.volt_terms[3].value(tj);
        let limit = self.has_limit();
        if limit.any() {
            let res = self.slack_residuals(&flows, x);
            let mut alm = obj;
            for (&lambda, &r) in self.alm_lambda.iter().zip(&res) {
                alm += lambda * r + T::splat(0.5) * self.alm_rho * r * r;
            }
            obj = T::select(limit, alm, obj);
        }
        obj
    }

    /// `derivatives` of [`BoundProblem`]. The Hessian is exactly symmetric:
    /// each entry is computed once, for `r ≤ c`, and mirrored at the end.
    /// The accumulation order into every entry of `g` and of that triangle —
    /// consensus terms flow by flow, then voltage terms, then ALM terms side
    /// by side — is part of the result: the solver stack is pinned bitwise,
    /// and `(w·g_r)·g_c` differs from `(w·g_c)·g_r` in the last bit.
    #[inline(always)]
    fn evaluate_derivatives(&self, x: &[T], g: &mut [T], h: &mut SmallMatrix<T>) {
        let (zero, two) = (T::splat(0.0), T::splat(2.0));
        g.fill(zero);
        // The upper triangle is summed from zero below, and every entry
        // under the diagonal is its mirror image, written at the end.
        for r in 0..6 {
            for c in r..6 {
                h[(r, c)] = zero;
            }
        }
        let (vi, vj, ti, tj) = (x[0], x[1], x[2], x[3]);
        // Flow values, gradients and Hessians with respect to
        // (v_i, v_j, θ_i, θ_j), all from one sin_cos.
        let point = FlowPoint::new(vi, vj, ti, tj);
        let flows = each_flow(&self.flows, |f| f.value_at(&point));
        self.last_flows.set(flows);
        let grads = each_flow(&self.flows, |f| f.gradient_at(&point).to_array());
        let hesses = each_flow(&self.flows, |f| f.hessian_at(&point).to_dense());
        // Consensus terms on the flows: gradient (y + rho (u - t)) * grad,
        // Hessian rho * grad grad^T + (y + rho (u - t)) * hess.
        for k in 0..4 {
            let w1 = self.flow_terms[k].rho;
            let w2 = self.flow_terms[k].deriv(flows[k]);
            for d in 0..4 {
                g[d] += w2 * grads[k][d];
            }
            for r in 0..4 {
                for c in r..4 {
                    h[(r, c)] += w1 * grads[k][r] * grads[k][c] + w2 * hesses[k][r][c];
                }
            }
        }
        // Voltage/angle consensus terms. Second derivative in v_i:
        // d²/dvi² [y(vi²−t) + rho/2 (vi²−t)²] = 2(y + rho(vi²−t)) + rho (2 vi)².
        let four = T::splat(4.0);
        let dw_i = self.volt_terms[0].deriv(vi * vi);
        let dw_j = self.volt_terms[2].deriv(vj * vj);
        g[0] += dw_i * two * vi;
        g[2] += self.volt_terms[1].deriv(ti);
        g[1] += dw_j * two * vj;
        g[3] += self.volt_terms[3].deriv(tj);
        h[(0, 0)] += two * dw_i + self.volt_terms[0].rho * four * vi * vi;
        h[(1, 1)] += two * dw_j + self.volt_terms[2].rho * four * vj * vj;
        h[(2, 2)] += self.volt_terms[1].rho;
        h[(3, 3)] += self.volt_terms[3].rho;
        // ALM terms on the line limits, in the lanes with a limit: added
        // plainly when every lane has one, else only where a lane has one,
        // never as a zero elsewhere, which could turn a `-0.0` or carry a NaN.
        let limit = self.has_limit();
        let masked = |sum: &mut T, term: T| *sum = T::select(limit, *sum + term, *sum);
        if limit.all() {
            self.alm_derivatives(x, &flows, &grads, &hesses, g, h, |sum, term| *sum += term);
        } else if limit.any() {
            self.alm_derivatives(x, &flows, &grads, &hesses, g, h, masked);
        }
        for r in 1..6 {
            for c in 0..r {
                h[(r, c)] = h[(c, r)];
            }
        }
    }

    /// The ALM terms' part of `derivatives`, each term accumulated into its
    /// entry of `g` or of the upper triangle of `h` by `add`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn alm_derivatives(
        &self,
        x: &[T],
        flows: &[T; 4],
        grads: &[[T; 4]; 4],
        hesses: &[[[T; 4]; 4]; 4],
        g: &mut [T],
        h: &mut SmallMatrix<T>,
        add: impl Fn(&mut T, T),
    ) {
        let two = T::splat(2.0);
        let res = self.slack_residuals(flows, x);
        for (side, &residual) in res.iter().enumerate() {
            let w = self.alm_lambda[side] + self.alm_rho * residual;
            let (pk, qk) = (2 * side, 2 * side + 1);
            // Gradient of the residual r = p² + q² + s over the four
            // voltage variables and this side's slack; the other side's
            // slack is a structural zero.
            let slack = 4 + side;
            let mut gr = [T::splat(0.0); 6];
            for d in 0..4 {
                gr[d] = two * flows[pk] * grads[pk][d] + two * flows[qk] * grads[qk][d];
                add(&mut g[d], w * gr[d]);
            }
            gr[slack] = T::splat(1.0);
            add(&mut g[slack], w);
            // rho * gr gr^T
            for r in 0..4 {
                for c in r..4 {
                    add(&mut h[(r, c)], self.alm_rho * gr[r] * gr[c]);
                }
                add(&mut h[(r, slack)], self.alm_rho * gr[r] * gr[slack]);
            }
            add(&mut h[(slack, slack)], self.alm_rho * gr[slack] * gr[slack]);
            // w * hess(r): 2 grad p grad p^T + 2 p hess p + same for q.
            for r in 0..4 {
                for c in r..4 {
                    add(
                        &mut h[(r, c)],
                        w * (two * grads[pk][r] * grads[pk][c]
                            + two * flows[pk] * hesses[pk][r][c]
                            + two * grads[qk][r] * grads[qk][c]
                            + two * flows[qk] * hesses[qk][r][c]),
                    );
                }
            }
        }
    }
}

impl BoundProblem for BranchProblem {
    #[inline]
    fn dim(&self) -> usize {
        6
    }

    #[inline]
    fn lower(&self, i: usize) -> f64 {
        self.lower_bound(i)
    }

    #[inline]
    fn upper(&self, i: usize) -> f64 {
        self.upper_bound(i)
    }

    fn objective(&self, x: &[f64]) -> f64 {
        self.evaluate_objective(x)
    }

    fn derivatives(&self, x: &[f64], g: &mut [f64], h: &mut SmallMatrix) {
        self.evaluate_derivatives(x, g, h)
    }
}

/// The lock-step group's evaluation: the same code as the `f64` one, on
/// [`LANES`](gridsim_sparse::LANES) branches at once, inlined into the
/// lock-step solve.
impl BoundProblem<Lanes> for BranchProblem<Lanes> {
    #[inline(always)]
    fn dim(&self) -> usize {
        6
    }

    #[inline(always)]
    fn lower(&self, i: usize) -> Lanes {
        self.lower_bound(i)
    }

    #[inline(always)]
    fn upper(&self, i: usize) -> Lanes {
        self.upper_bound(i)
    }

    #[inline(always)]
    fn objective(&self, x: &[Lanes]) -> Lanes {
        self.evaluate_objective(x)
    }

    #[inline(always)]
    fn derivatives(&self, x: &[Lanes], g: &mut [Lanes], h: &mut SmallMatrix<Lanes>) {
        self.evaluate_derivatives(x, g, h)
    }
}

/// The line-limit slack residuals `p² + q² + s` of the from and to sides
/// at flows `f` and point `x`, whether or not the branch has a limit.
#[inline(always)]
pub(crate) fn limit_residuals<T: Real>(f: &[T; 4], x: &[T]) -> [T; 2] {
    [
        f[0] * f[0] + f[1] * f[1] + x[4],
        f[2] * f[2] + f[3] * f[3] + x[5],
    ]
}

/// `op` on each of the four flows, spelled out. `[T; 4]::map` calls the
/// closure through a generic wrapper that the compiler may leave out of
/// line: a release build whose codegen units put that wrapper apart from
/// `derivatives` ran the `track` benchmark ≈ 30 % slower on a 2-core x86-64
/// host.
#[inline(always)]
fn each_flow<T, V>(flows: &[BranchFlow<V>; 4], op: impl Fn(&BranchFlow<V>) -> T) -> [T; 4] {
    [op(&flows[0]), op(&flows[1]), op(&flows[2]), op(&flows[3])]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_grid::Branch;
    use gridsim_tron::{TronOptions, TronSolver};
    use proptest::prelude::*;
    use proptest::TestCaseError;

    /// A lock-step group whose lane `k` is `blocks[k]`, from blocks made on
    /// their own.
    fn pack(blocks: &[BranchProblem; LANES]) -> BranchProblem<Lanes> {
        let flow = |j: usize| BranchFlow::from_lanes(|k| blocks[k].flows[j]);
        let flow_term = |j: usize| ConsensusTerm::from_lanes(|k| blocks[k].flow_terms[j]);
        let volt_term = |j: usize| ConsensusTerm::from_lanes(|k| blocks[k].volt_terms[j]);
        let bound = |j: usize| Lanes::from_fn(|k| blocks[k].v_bounds[j]);
        let multiplier = |j: usize| Lanes::from_fn(|k| blocks[k].alm_lambda[j]);
        BranchProblem {
            flows: [flow(0), flow(1), flow(2), flow(3)],
            flow_terms: [flow_term(0), flow_term(1), flow_term(2), flow_term(3)],
            volt_terms: [volt_term(0), volt_term(1), volt_term(2), volt_term(3)],
            v_bounds: [bound(0), bound(1), bound(2), bound(3)],
            alm_lambda: [multiplier(0), multiplier(1)],
            alm_rho: Lanes::from_fn(|k| blocks[k].alm_rho),
            limit_sq: Lanes::from_fn(|k| blocks[k].limit_sq),
            last_flows: Cell::new([Lanes::splat(0.0); 4]),
        }
    }

    /// The evaluation as it was before `objective` and `derivatives` shared
    /// one [`FlowPoint`]: three independent passes, each re-deriving the
    /// flows, flow gradients and slack residuals it needs through the
    /// four-argument `BranchFlow` methods (one `sin_cos` per call). Kept as
    /// the oracle the fused evaluation must match bit for bit: `objective`
    /// and `gradient` verbatim, `hessian` with each entry summed once for
    /// `r ≤ c` (the other side's slack, a structural zero of the residual
    /// gradient, left out of the ALM rank-one term) and mirrored, the
    /// per-entry expressions `derivatives` evaluates.
    mod three_pass {
        use super::*;

        fn flow_values(p: &BranchProblem, x: &[f64]) -> [f64; 4] {
            let (vi, vj, ti, tj) = (x[0], x[1], x[2], x[3]);
            [
                p.flows[0].value(vi, vj, ti, tj),
                p.flows[1].value(vi, vj, ti, tj),
                p.flows[2].value(vi, vj, ti, tj),
                p.flows[3].value(vi, vj, ti, tj),
            ]
        }

        fn slack_residuals(p: &BranchProblem, x: &[f64]) -> [f64; 2] {
            if !p.has_limit() {
                return [0.0; 2];
            }
            let f = flow_values(p, x);
            [
                f[0] * f[0] + f[1] * f[1] + x[4],
                f[2] * f[2] + f[3] * f[3] + x[5],
            ]
        }

        fn flow_gradients(p: &BranchProblem, x: &[f64]) -> Vec<[f64; 4]> {
            let (vi, vj, ti, tj) = (x[0], x[1], x[2], x[3]);
            p.flows
                .iter()
                .map(|f| {
                    let fg = f.gradient(vi, vj, ti, tj);
                    [fg.dvi, fg.dvj, fg.dti, fg.dtj]
                })
                .collect()
        }

        pub(super) fn objective(p: &BranchProblem, x: &[f64]) -> f64 {
            let (vi, vj, ti, tj) = (x[0], x[1], x[2], x[3]);
            let flows = flow_values(p, x);
            let mut obj = 0.0;
            for (term, &flow) in p.flow_terms.iter().zip(&flows) {
                obj += term.value(flow);
            }
            obj += p.volt_terms[0].value(vi * vi);
            obj += p.volt_terms[1].value(ti);
            obj += p.volt_terms[2].value(vj * vj);
            obj += p.volt_terms[3].value(tj);
            if p.has_limit() {
                let res = slack_residuals(p, x);
                for (&lambda, &r) in p.alm_lambda.iter().zip(&res) {
                    obj += lambda * r + 0.5 * p.alm_rho * r * r;
                }
            }
            obj
        }

        pub(super) fn gradient(p: &BranchProblem, x: &[f64], g: &mut [f64]) {
            g.fill(0.0);
            let (vi, vj, ti, tj) = (x[0], x[1], x[2], x[3]);
            let flows = flow_values(p, x);
            let grads = flow_gradients(p, x);
            for k in 0..4 {
                let w = p.flow_terms[k].deriv(flows[k]);
                for d in 0..4 {
                    g[d] += w * grads[k][d];
                }
            }
            g[0] += p.volt_terms[0].deriv(vi * vi) * 2.0 * vi;
            g[2] += p.volt_terms[1].deriv(ti);
            g[1] += p.volt_terms[2].deriv(vj * vj) * 2.0 * vj;
            g[3] += p.volt_terms[3].deriv(tj);
            if p.has_limit() {
                let res = slack_residuals(p, x);
                for side in 0..2 {
                    let w = p.alm_lambda[side] + p.alm_rho * res[side];
                    let (pk, qk) = (2 * side, 2 * side + 1);
                    for d in 0..4 {
                        g[d] +=
                            w * (2.0 * flows[pk] * grads[pk][d] + 2.0 * flows[qk] * grads[qk][d]);
                    }
                    g[4 + side] += w;
                }
            }
        }

        pub(super) fn hessian(p: &BranchProblem, x: &[f64], h: &mut SmallMatrix) {
            *h = SmallMatrix::zeros(6);
            let (vi, vj, ti, tj) = (x[0], x[1], x[2], x[3]);
            let flows = flow_values(p, x);
            let grads = flow_gradients(p, x);
            let hesses: Vec<[[f64; 4]; 4]> = p
                .flows
                .iter()
                .map(|f| f.hessian(vi, vj, ti, tj).to_dense())
                .collect();
            for k in 0..4 {
                let w1 = p.flow_terms[k].rho;
                let w2 = p.flow_terms[k].deriv(flows[k]);
                for r in 0..4 {
                    for c in r..4 {
                        h[(r, c)] += w1 * grads[k][r] * grads[k][c] + w2 * hesses[k][r][c];
                    }
                }
            }
            h[(0, 0)] += 2.0 * p.volt_terms[0].deriv(vi * vi) + p.volt_terms[0].rho * 4.0 * vi * vi;
            h[(1, 1)] += 2.0 * p.volt_terms[2].deriv(vj * vj) + p.volt_terms[2].rho * 4.0 * vj * vj;
            h[(2, 2)] += p.volt_terms[1].rho;
            h[(3, 3)] += p.volt_terms[3].rho;
            if p.has_limit() {
                let res = slack_residuals(p, x);
                for (side, &residual) in res.iter().enumerate() {
                    let w = p.alm_lambda[side] + p.alm_rho * residual;
                    let (pk, qk) = (2 * side, 2 * side + 1);
                    let slack = 4 + side;
                    let mut gr = [0.0f64; 6];
                    for d in 0..4 {
                        gr[d] = 2.0 * flows[pk] * grads[pk][d] + 2.0 * flows[qk] * grads[qk][d];
                    }
                    gr[slack] = 1.0;
                    for r in (0..4).chain([slack]) {
                        for c in (r..4).chain([slack]) {
                            h[(r, c)] += p.alm_rho * gr[r] * gr[c];
                        }
                    }
                    for r in 0..4 {
                        for c in r..4 {
                            h[(r, c)] += w
                                * (2.0 * grads[pk][r] * grads[pk][c]
                                    + 2.0 * flows[pk] * hesses[pk][r][c]
                                    + 2.0 * grads[qk][r] * grads[qk][c]
                                    + 2.0 * flows[qk] * hesses[qk][r][c]);
                        }
                    }
                }
            }
            for r in 0..6 {
                for c in r + 1..6 {
                    h[(c, r)] = h[(r, c)];
                }
            }
        }
    }

    /// A block and a point from the generators of the proptests below:
    /// random admittances (taps and phase shifts on odd `edge`s),
    /// consensus and ALM data, with and without a line limit, at a point
    /// whose angle difference lies within a few ulps of `+π` (`edge / 2 ==
    /// 1`) or `−π` (2), or with both voltages and both slacks on a bound
    /// (3).
    #[allow(clippy::too_many_arguments)]
    fn sample_block(
        line: &[f64],
        volts: &[f64],
        angles: &[f64],
        slacks: &[f64],
        terms: &[f64],
        rhos: &[f64],
        alm: &[f64],
        edge: usize,
        with_limit: bool,
    ) -> (BranchProblem, [f64; 6]) {
        let mut branch = Branch::line(
            1,
            2,
            0.1 * line[0],
            0.01 + 0.4 * line[1],
            0.2 * line[2],
            130.0,
        );
        if edge % 2 == 1 {
            branch.tap = 0.9 + 0.2 * line[3];
            branch.shift = 30.0 * line[4] - 15.0;
        }
        let mut p = BranchProblem::new(
            BranchFlow::all_from_admittance(&branch.admittance()),
            0.9,
            1.1,
            0.9,
            1.1,
        );
        for k in 0..4 {
            p.flow_terms[k] = ConsensusTerm {
                target: terms[k],
                y: terms[4 + k],
                rho: rhos[k],
            };
            p.volt_terms[k] = ConsensusTerm {
                target: terms[8 + k],
                y: terms[12 + k],
                rho: rhos[4 + k],
            };
        }
        if with_limit {
            p.limit_sq = (0.99f64 * 1.3).powi(2);
            p.alm_lambda = [alm[0], alm[1]];
            p.alm_rho = rhos[8];
        }
        let mut x = [
            volts[0], volts[1], angles[0], angles[1], slacks[0], slacks[1],
        ];
        match edge / 2 {
            1 => (x[2], x[3]) = (std::f64::consts::PI + angles[0] * 1e-15, 0.0),
            2 => (x[2], x[3]) = (angles[0], std::f64::consts::PI + angles[0]),
            3 => {
                x[0] = p.lower(0);
                x[1] = p.upper(1);
                x[4] = p.lower(4);
                x[5] = p.upper(5);
            }
            _ => {}
        }
        (p, x)
    }

    /// `v`'s bits, with every NaN read as one NaN: a NaN's payload may
    /// depend on the order the compiler gives a commutative operation's
    /// operands, the value does not.
    fn canonical(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fused `objective` / `derivatives` equal the three-pass oracle
        /// bit for bit, over random admittances, operating points (angle
        /// differences up to and beyond ±π, voltages on their bounds),
        /// consensus and ALM data, with and without a line limit. So does
        /// the lock-step evaluation, in either lane, beside a block with the
        /// other limit choice and a NaN target.
        #[test]
        fn fused_evaluation_is_bitwise_the_three_pass_oracle(
            line in prop::collection::vec(0.0f64..1.0, 5),
            volts in prop::collection::vec(0.9f64..1.1, 2),
            angles in prop::collection::vec(-0.6f64..0.6, 2),
            slacks in prop::collection::vec(-1.5f64..0.0, 2),
            terms in prop::collection::vec(-1.0f64..1.0, 16),
            rhos in prop::collection::vec(0.1f64..2000.0, 9),
            alm in prop::collection::vec(-2.0f64..2.0, 2),
            edge in 0usize..8,
            with_limit in 0usize..2,
            slot in 0..LANES,
        ) {
            let (p, x) =
                sample_block(&line, &volts, &angles, &slacks, &terms, &rhos, &alm, edge, with_limit == 1);

            prop_assert_eq!(p.objective(&x).to_bits(), three_pass::objective(&p, &x).to_bits());
            let (mut g, mut g_ref) = ([0.0; 6], [0.0; 6]);
            let (mut h, mut h_ref) = (SmallMatrix::zeros(6), SmallMatrix::zeros(6));
            p.derivatives(&x, &mut g, &mut h);
            three_pass::gradient(&p, &x, &mut g_ref);
            three_pass::hessian(&p, &x, &mut h_ref);
            for d in 0..6 {
                prop_assert_eq!(g[d].to_bits(), g_ref[d].to_bits(), "g[{}]", d);
                for c in 0..6 {
                    prop_assert_eq!(h[(d, c)].to_bits(), h_ref[(d, c)].to_bits(), "h[({}, {})]", d, c);
                }
            }

            // The partner lanes: the same data with the other limit choice,
            // a NaN consensus target, and a mirrored point.
            let (mut other, _) =
                sample_block(&line, &volts, &angles, &slacks, &terms, &rhos, &alm, edge, with_limit == 0);
            other.flow_terms[1].target = f64::NAN;
            let other_x = [x[1], x[0], x[3], x[2], x[5], x[4]];
            let blocks: [BranchProblem; LANES] =
                std::array::from_fn(|k| if k == slot { p.clone() } else { other.clone() });
            let points: Vec<[f64; 6]> = (0..LANES).map(|k| if k == slot { x } else { other_x }).collect();
            let lanes = pack(&blocks);
            let lane_x: Vec<Lanes> = (0..6).map(|i| Lanes::from_fn(|k| points[k][i])).collect();
            let (mut lane_g, mut lane_h) = ([Lanes::splat(0.0); 6], SmallMatrix::zeros(6));
            let lane_f = lanes.objective(&lane_x);
            lanes.derivatives(&lane_x, &mut lane_g, &mut lane_h);
            for k in 0..LANES {
                let (block, point) = (&blocks[k], &points[k]);
                prop_assert_eq!(canonical(lane_f.0[k]), canonical(three_pass::objective(block, point)), "lane {}", k);
                three_pass::gradient(block, point, &mut g_ref);
                three_pass::hessian(block, point, &mut h_ref);
                for d in 0..6 {
                    prop_assert_eq!(canonical(lane_g[d].0[k]), canonical(g_ref[d]), "lane {} g[{}]", k, d);
                    for c in 0..6 {
                        prop_assert_eq!(
                            canonical(lane_h[(d, c)].0[k]),
                            canonical(h_ref[(d, c)]),
                            "lane {} h[({}, {})]", k, d, c
                        );
                    }
                }
            }
        }
    }

    /// Each lane's summary and iterate, against the scalar solve of its
    /// block: the bits of `x`, the objective and `pg_norm` (every NaN read
    /// as one), the iteration, direct-step and rejection counts, and the
    /// status; and on both paths, the flows the solve hands back
    /// ([`BranchProblem::last_flows`]) against `flow_values` at the iterate
    /// it returned. Returns how many lanes took a step other than the
    /// direct one.
    fn assert_lanes_match_scalar(
        tron: &TronSolver,
        blocks: &[BranchProblem; LANES],
        starts: &[[f64; 6]; LANES],
    ) -> Result<usize, TestCaseError> {
        let mut x: Vec<Lanes> = (0..6).map(|i| Lanes::from_fn(|k| starts[k][i])).collect();
        let lanes = pack(blocks);
        let summaries = tron.solve_lanes(&lanes, |k| blocks[k].clone(), &mut x);
        let lane_flows = lanes.last_flows();
        let mut refused = 0;
        for (k, (block, start)) in blocks.iter().zip(starts).enumerate() {
            let mut want_x = *start;
            let want = tron.solve_in_place(block, &mut want_x);
            let got = summaries[k];
            for i in 0..6 {
                prop_assert_eq!(
                    canonical(x[i].0[k]),
                    canonical(want_x[i]),
                    "lane {} x[{}]",
                    k,
                    i
                );
            }
            let flows = block.flow_values(&want_x);
            for j in 0..4 {
                prop_assert_eq!(
                    canonical(block.last_flows()[j]),
                    canonical(flows[j]),
                    "scalar flow {} of lane {}",
                    j,
                    k
                );
                prop_assert_eq!(
                    canonical(lane_flows[j].0[k]),
                    canonical(flows[j]),
                    "lane {} flow {}",
                    k,
                    j
                );
            }
            prop_assert_eq!(
                canonical(got.objective),
                canonical(want.objective),
                "lane {}",
                k
            );
            prop_assert_eq!(
                canonical(got.pg_norm),
                canonical(want.pg_norm),
                "lane {}",
                k
            );
            prop_assert_eq!(
                (got.iterations, got.direct, got.rejected, got.status),
                (want.iterations, want.direct, want.rejected, want.status),
                "lane {}",
                k
            );
            refused += usize::from(want.direct < want.iterations);
        }
        Ok(refused)
    }

    /// A lock-step group of blocks and starts from the generators of the
    /// proptests below: the blocks of the evaluation proptest, some of
    /// them pushed off the direct step (a Hessian made indefinite by large
    /// flow multipliers, or a start on a voltage bound that the gradient
    /// points away from) and some of them given a NaN target.
    #[allow(clippy::too_many_arguments)]
    fn sample_group(
        line: &[f64],
        volts: &[f64],
        angles: &[f64],
        slacks: &[f64],
        terms: &[f64],
        rhos: &[f64],
        alm: &[f64],
        edge: &[usize],
        with_limit: &[usize],
        push: &[usize],
    ) -> ([BranchProblem; LANES], [[f64; 6]; LANES]) {
        let mut starts = [[0.0; 6]; LANES];
        let blocks = std::array::from_fn(|k| {
            let at = |v: &[f64], size: usize| v[k * size..(k + 1) * size].to_vec();
            let (mut p, mut x) = sample_block(
                &at(line, 5),
                &at(volts, 2),
                &at(angles, 2),
                &at(slacks, 2),
                &at(terms, 16),
                &at(rhos, 9),
                &at(alm, 2),
                edge[k],
                with_limit[k] == 1,
            );
            match push[k] {
                // Flow multipliers of 1e4 against penalties of 0.001 to 20:
                // the flows' curvature, weighted by them, swamps the
                // penalties' and the free block is indefinite.
                5 => {
                    for (j, term) in p.flow_terms.iter_mut().enumerate() {
                        term.y = 1e4 * terms[k * 16 + 4 + j].signum();
                        term.rho *= 0.01;
                    }
                }
                // v_i on its lower bound 0.9 with a target of 1.1², and
                // the target's penalty dominating: the gradient points
                // into the box, so v_i is neither free nor held.
                6 => {
                    x[0] = p.lower(0);
                    p.volt_terms[0] = ConsensusTerm {
                        target: 1.21,
                        y: 0.0,
                        rho: 1e3,
                    };
                }
                7 => p.flow_terms[k % 4].target = f64::NAN,
                _ => {}
            }
            starts[k] = x;
            p
        });
        (blocks, starts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each lane of a lock-step solve is bitwise the scalar solve of its
        /// block, on the groups of `sample_group`; a lane with a NaN target
        /// must not move the bits of the lanes beside it.
        #[test]
        fn lock_step_lanes_are_bitwise_the_scalar_solves(
            line in prop::collection::vec(0.0f64..1.0, 5 * LANES),
            volts in prop::collection::vec(0.9f64..1.1, 2 * LANES),
            angles in prop::collection::vec(-0.6f64..0.6, 2 * LANES),
            slacks in prop::collection::vec(-1.5f64..0.0, 2 * LANES),
            terms in prop::collection::vec(-1.0f64..1.0, 16 * LANES),
            rhos in prop::collection::vec(0.1f64..2000.0, 9 * LANES),
            alm in prop::collection::vec(-2.0f64..2.0, 2 * LANES),
            edge in prop::collection::vec(0usize..8, LANES),
            with_limit in prop::collection::vec(0usize..2, LANES),
            push in prop::collection::vec(0usize..8, LANES),
        ) {
            let (blocks, starts) = sample_group(
                &line, &volts, &angles, &slacks, &terms, &rhos, &alm, &edge, &with_limit, &push,
            );
            let tron = TronSolver::new(AdmmParams::default().tron);
            assert_lanes_match_scalar(&tron, &blocks, &starts)?;
        }

        /// The flows a solve hands back are `flow_values` at the iterate it
        /// returns, bitwise, in each lane of a lock-step solve and on the
        /// scalar path — also when the iteration cap ends a solve right
        /// after a rejected step, whose trial point's flows differ.
        #[test]
        fn solves_hand_back_the_flows_at_their_iterate(
            line in prop::collection::vec(0.0f64..1.0, 5 * LANES),
            volts in prop::collection::vec(0.9f64..1.1, 2 * LANES),
            angles in prop::collection::vec(-0.6f64..0.6, 2 * LANES),
            slacks in prop::collection::vec(-1.5f64..0.0, 2 * LANES),
            terms in prop::collection::vec(-1.0f64..1.0, 16 * LANES),
            rhos in prop::collection::vec(0.1f64..2000.0, 9 * LANES),
            alm in prop::collection::vec(-2.0f64..2.0, 2 * LANES),
            edge in prop::collection::vec(0usize..8, LANES),
            with_limit in prop::collection::vec(0usize..2, LANES),
            push in prop::collection::vec(0usize..8, LANES),
            max_iter in 0usize..6,
        ) {
            let (blocks, starts) = sample_group(
                &line, &volts, &angles, &slacks, &terms, &rhos, &alm, &edge, &with_limit, &push,
            );
            let tron = TronSolver::new(TronOptions { max_iter, ..AdmmParams::default().tron });
            assert_lanes_match_scalar(&tron, &blocks, &starts)?;
        }
    }

    /// The proptest's pushes do push: every kind of block the lock-step
    /// solve must hand to the scalar path for an iteration gets there.
    #[test]
    fn the_pushed_blocks_leave_the_direct_step() {
        let tron = TronSolver::new(AdmmParams::default().tron);
        let mut indefinite = sample_problem(true);
        for term in &mut indefinite.flow_terms {
            (term.y, term.rho) = (1e4, 0.1);
        }
        let mut inward = sample_problem(true);
        inward.volt_terms[0] = ConsensusTerm {
            target: 1.21,
            y: 0.0,
            rho: 1e3,
        };
        let mut start = [0.0; 6];
        start.copy_from_slice(&sample_x());
        let mut inward_start = start;
        inward_start[0] = inward.lower(0);
        for (block, x) in [(&indefinite, start), (&inward, inward_start)] {
            let summary = tron.solve_in_place(block, &mut x.clone());
            assert!(summary.direct < summary.iterations, "{summary:?}");
        }
        let blocks = [indefinite, inward, sample_problem(false)];
        let starts = [start, inward_start, start];
        for pair in [[0, 2], [2, 1], [1, 0]] {
            let group = std::array::from_fn(|k| blocks[pair[k % 2]].clone());
            let points = std::array::from_fn(|k| starts[pair[k % 2]]);
            let refused = assert_lanes_match_scalar(&tron, &group, &points)
                .expect("lanes match their scalar solves");
            assert!(refused >= 1, "pair {pair:?}");
        }
    }

    fn sample_problem(with_limit: bool) -> BranchProblem {
        let y = Branch::line(1, 2, 0.02, 0.12, 0.05, 130.0).admittance();
        let mut p = BranchProblem::new(BranchFlow::all_from_admittance(&y), 0.9, 1.1, 0.9, 1.1);
        for k in 0..4 {
            p.flow_terms[k] = ConsensusTerm {
                target: 0.1 * (k as f64) - 0.15,
                y: 0.2 - 0.05 * k as f64,
                rho: 10.0,
            };
        }
        p.volt_terms = [
            ConsensusTerm {
                target: 1.02,
                y: 0.5,
                rho: 1000.0,
            },
            ConsensusTerm {
                target: 0.05,
                y: -0.3,
                rho: 1000.0,
            },
            ConsensusTerm {
                target: 0.98,
                y: 0.1,
                rho: 1000.0,
            },
            ConsensusTerm {
                target: -0.02,
                y: 0.2,
                rho: 1000.0,
            },
        ];
        if with_limit {
            p.limit_sq = (0.99f64 * 1.3).powi(2);
            p.alm_lambda = [0.4, -0.2];
            p.alm_rho = 25.0;
        }
        p
    }

    fn sample_x() -> Vec<f64> {
        vec![1.03, 0.97, 0.08, -0.03, -0.4, -0.6]
    }

    #[test]
    fn gradient_matches_finite_difference() {
        for with_limit in [false, true] {
            let p = sample_problem(with_limit);
            let x = sample_x();
            let mut g = vec![0.0; 6];
            p.derivatives(&x, &mut g, &mut SmallMatrix::zeros(6));
            let h = 1e-6;
            for i in 0..6 {
                let mut xp = x.clone();
                let mut xm = x.clone();
                xp[i] += h;
                xm[i] -= h;
                let fd = (p.objective(&xp) - p.objective(&xm)) / (2.0 * h);
                assert!(
                    (g[i] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                    "limit={with_limit} var {i}: {} vs {fd}",
                    g[i]
                );
            }
        }
    }

    #[test]
    fn hessian_matches_finite_difference() {
        for with_limit in [false, true] {
            let p = sample_problem(with_limit);
            let x = sample_x();
            let mut hess = SmallMatrix::zeros(6);
            p.derivatives(&x, &mut [0.0; 6], &mut hess);
            let h = 1e-5;
            let mut gp = vec![0.0; 6];
            let mut gm = vec![0.0; 6];
            let mut unused = SmallMatrix::zeros(6);
            for c in 0..6 {
                let mut xp = x.clone();
                let mut xm = x.clone();
                xp[c] += h;
                xm[c] -= h;
                p.derivatives(&xp, &mut gp, &mut unused);
                p.derivatives(&xm, &mut gm, &mut unused);
                for r in 0..6 {
                    let fd = (gp[r] - gm[r]) / (2.0 * h);
                    assert!(
                        (hess[(r, c)] - fd).abs() < 2e-3 * (1.0 + fd.abs()),
                        "limit={with_limit} H({r},{c}) = {} vs {fd}",
                        hess[(r, c)]
                    );
                }
            }
        }
    }

    #[test]
    fn hessian_is_symmetric() {
        for with_limit in [false, true] {
            let p = sample_problem(with_limit);
            let mut h = SmallMatrix::zeros(6);
            p.derivatives(&sample_x(), &mut [0.0; 6], &mut h);
            for r in 0..6 {
                for c in 0..6 {
                    assert_eq!(
                        h[(r, c)].to_bits(),
                        h[(c, r)].to_bits(),
                        "limit={with_limit} H({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_state_blocks_carry_the_consensus_data_of_the_next_launch() {
        let mut case = gridsim_grid::case9();
        case.branches[0].rate_a = 0.0;
        let net = case.compile().unwrap();
        let params = AdmmParams {
            max_outer: 1,
            max_inner: 3,
            ..AdmmParams::test_profile()
        };
        let warm = crate::oracle::solve(&net, &params, None, None).warm_state;
        let blocks = BranchProblem::blocks_from_warm_state(&net, &params, &warm);
        assert_eq!(blocks.len(), net.nbranch);
        for (l, (block, x0)) in blocks.iter().enumerate() {
            assert_eq!(*x0, warm.branch_x[l]);
            assert_eq!(block.has_limit(), l != 0);
            assert_eq!(block.alm_lambda, warm.branch_alm_lambda[l]);
            // Three iterations in, every constraint has its penalty and the
            // multipliers have moved off their zero start.
            let terms = || block.flow_terms.iter().chain(&block.volt_terms);
            assert!(terms().all(|t| t.rho > 0.0), "branch {l}");
            assert!(terms().any(|t| t.y != 0.0), "branch {l}");
        }
        // The kernel's lock-step gather is the per-branch one, lane by lane.
        let groups = BranchProblem::groups_from_warm_state(&net, &params, &warm);
        assert_eq!(groups.len(), net.nbranch / LANES);
        for (g, (group, x0)) in groups.iter().enumerate() {
            let blocks = &blocks[LANES * g..LANES * (g + 1)];
            let packed = pack(&std::array::from_fn(|k| blocks[k].0.clone()));
            assert_eq!(format!("{group:?}"), format!("{packed:?}"), "group {g}");
            let lanes: [[f64; 6]; LANES] = std::array::from_fn(|k| x0.map(|xi| xi.0[k]));
            assert_eq!(lanes, std::array::from_fn(|k| blocks[k].1), "group {g}");
        }
    }

    #[test]
    fn bounds_reflect_limit_presence() {
        let with = sample_problem(true);
        let without = sample_problem(false);
        assert!(with.has_limit());
        assert!(!without.has_limit());
        // With a limit the slack range is [-(0.99*rate)^2, 0].
        assert!(with.lower(4) < 0.0);
        assert_eq!(with.upper(4), 0.0);
        // Without a limit the slacks are pinned to zero.
        assert_eq!(without.lower(4), 0.0);
        assert_eq!(without.upper(4), 0.0);
        // Voltage bounds pass through.
        assert_eq!(with.lower(0), 0.9);
        assert_eq!(with.upper(1), 1.1);
    }

    #[test]
    fn tron_solves_branch_problem_to_first_order() {
        use gridsim_tron::{TronOptions, TronSolver};
        let p = sample_problem(true);
        let solver = TronSolver::new(TronOptions {
            gtol: 1e-8,
            max_iter: 200,
            ..Default::default()
        });
        let res = solver.solve(&p, &[1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(
            res.pg_norm < 1e-6,
            "projected gradient norm {}",
            res.pg_norm
        );
        // The result respects every bound.
        for i in 0..6 {
            assert!(res.x[i] >= p.lower(i) - 1e-10);
            assert!(res.x[i] <= p.upper(i) + 1e-10);
        }
    }

    #[test]
    fn consensus_pull_moves_solution_toward_targets() {
        // With huge voltage penalties and no flow/limit terms the optimal
        // vi², θ must match their targets.
        let y = Branch::line(1, 2, 0.01, 0.1, 0.0, 0.0).admittance();
        let mut p = BranchProblem::new(BranchFlow::all_from_admittance(&y), 0.9, 1.1, 0.9, 1.1);
        p.volt_terms = [
            ConsensusTerm {
                target: 1.0404, // 1.02^2
                y: 0.0,
                rho: 1e6,
            },
            ConsensusTerm {
                target: 0.03,
                y: 0.0,
                rho: 1e6,
            },
            ConsensusTerm {
                target: 0.9604, // 0.98^2
                y: 0.0,
                rho: 1e6,
            },
            ConsensusTerm {
                target: -0.01,
                y: 0.0,
                rho: 1e6,
            },
        ];
        use gridsim_tron::{TronOptions, TronSolver};
        let solver = TronSolver::new(TronOptions {
            gtol: 1e-10,
            max_iter: 300,
            ..Default::default()
        });
        let res = solver.solve(&p, &[1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((res.x[0] - 1.02).abs() < 1e-3, "vi = {}", res.x[0]);
        assert!((res.x[1] - 0.98).abs() < 1e-3, "vj = {}", res.x[1]);
        assert!((res.x[2] - 0.03).abs() < 1e-3, "ti = {}", res.x[2]);
        assert!((res.x[3] + 0.01).abs() < 1e-3, "tj = {}", res.x[3]);
    }
}
