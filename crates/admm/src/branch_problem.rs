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
//! from it, in fixed-size arrays.

use crate::kernels::{self, AlmSettings};
use crate::params::AdmmParams;
use crate::scenario::scheduler::init_segment;
use crate::scenario::ScenarioProblem;
use crate::solver::WarmState;
use gridsim_acopf::flows::{BranchFlow, FlowPoint};
use gridsim_grid::network::Network;
use gridsim_sparse::dense::SmallMatrix;
use gridsim_tron::BoundProblem;

/// Per-constraint ADMM data seen by the branch problem: the combined target
/// `t = v − z` of the consensus term, the multiplier `y`, and the penalty ρ.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConsensusTerm {
    /// Target value `v − z` (fixed during the branch solve).
    pub target: f64,
    /// ADMM multiplier `y`.
    pub y: f64,
    /// ADMM penalty ρ.
    pub rho: f64,
}

impl ConsensusTerm {
    /// Value of the term at x-side value `u`.
    #[inline]
    fn value(&self, u: f64) -> f64 {
        let r = u - self.target;
        self.y * r + 0.5 * self.rho * r * r
    }

    /// Derivative of the term with respect to `u`.
    #[inline]
    fn deriv(&self, u: f64) -> f64 {
        self.y + self.rho * (u - self.target)
    }
}

/// The branch subproblem of one branch in one ADMM iteration.
#[derive(Debug, Clone)]
pub struct BranchProblem {
    /// The four flow functions in the order `[p_ij, q_ij, p_ji, q_ji]`.
    pub flows: [BranchFlow; 4],
    /// Consensus terms of the four flow constraints (same order).
    pub flow_terms: [ConsensusTerm; 4],
    /// Consensus terms of `[w_i, θ_i, w_j, θ_j]`.
    pub volt_terms: [ConsensusTerm; 4],
    /// Voltage magnitude bounds `[v_i^min, v_i^max, v_j^min, v_j^max]`.
    pub v_bounds: [f64; 4],
    /// Inner augmented-Lagrangian multipliers for the from/to line limits.
    pub alm_lambda: [f64; 2],
    /// Inner augmented-Lagrangian penalty.
    pub alm_rho: f64,
    /// Squared (tightened) line limit; `f64::INFINITY` when unlimited.
    pub limit_sq: f64,
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
        let problem = ScenarioProblem::build(std::slice::from_ref(net), params, None);
        let data = &problem.data[0];
        let seg = init_segment(net, data, &problem, Some(warm));
        let alm = AlmSettings::from_params(params);
        (data.branches.iter().zip(&seg.branches))
            .map(|(d, state)| {
                let block = kernels::branch_subproblem(
                    d,
                    0,
                    &seg.v,
                    &seg.z,
                    &seg.y,
                    &problem.rho,
                    &alm,
                    state,
                );
                (block, state.x)
            })
            .collect()
    }

    /// True when this branch has a finite line limit (and therefore slack
    /// variables and ALM terms).
    #[inline]
    pub fn has_limit(&self) -> bool {
        self.limit_sq.is_finite()
    }

    /// The four flow values at the given voltages.
    #[inline]
    pub fn flow_values(&self, x: &[f64]) -> [f64; 4] {
        let point = FlowPoint::new(x[0], x[1], x[2], x[3]);
        self.flows.map(|f| f.value_at(&point))
    }

    /// Line-limit slack residuals `p² + q² + s` for the from and to sides,
    /// given the flows `f = self.flow_values(x)`.
    #[inline]
    pub fn slack_residuals(&self, f: &[f64; 4], x: &[f64]) -> [f64; 2] {
        if !self.has_limit() {
            return [0.0; 2];
        }
        [
            f[0] * f[0] + f[1] * f[1] + x[4],
            f[2] * f[2] + f[3] * f[3] + x[5],
        ]
    }
}

impl BoundProblem for BranchProblem {
    #[inline]
    fn dim(&self) -> usize {
        6
    }

    #[inline]
    fn lower(&self, i: usize) -> f64 {
        match i {
            0 => self.v_bounds[0],
            1 => self.v_bounds[2],
            2 | 3 => -2.0 * std::f64::consts::PI,
            _ => {
                if self.has_limit() {
                    -self.limit_sq
                } else {
                    0.0
                }
            }
        }
    }

    #[inline]
    fn upper(&self, i: usize) -> f64 {
        match i {
            0 => self.v_bounds[1],
            1 => self.v_bounds[3],
            2 | 3 => 2.0 * std::f64::consts::PI,
            _ => 0.0,
        }
    }

    fn objective(&self, x: &[f64]) -> f64 {
        let (vi, vj, ti, tj) = (x[0], x[1], x[2], x[3]);
        let flows = self.flow_values(x);
        let mut obj = 0.0;
        for (term, &flow) in self.flow_terms.iter().zip(&flows) {
            obj += term.value(flow);
        }
        obj += self.volt_terms[0].value(vi * vi);
        obj += self.volt_terms[1].value(ti);
        obj += self.volt_terms[2].value(vj * vj);
        obj += self.volt_terms[3].value(tj);
        if self.has_limit() {
            let res = self.slack_residuals(&flows, x);
            for (&lambda, &r) in self.alm_lambda.iter().zip(&res) {
                obj += lambda * r + 0.5 * self.alm_rho * r * r;
            }
        }
        obj
    }

    /// The accumulation order into every entry of `g` and `h` — consensus
    /// terms flow by flow, then voltage terms, then ALM terms side by side,
    /// full 4×4 / 6×6 sweeps with no mirrored triangle — is part of the
    /// result: the solver stack is pinned bitwise, and `(w·g_r)·g_c` differs
    /// from `(w·g_c)·g_r` in the last bit.
    fn derivatives(&self, x: &[f64], g: &mut [f64], h: &mut SmallMatrix) {
        g.fill(0.0);
        h.set_zero();
        let (vi, vj, ti, tj) = (x[0], x[1], x[2], x[3]);
        // Flow values, gradients and Hessians with respect to
        // (v_i, v_j, θ_i, θ_j), all from one sin_cos.
        let point = FlowPoint::new(vi, vj, ti, tj);
        let flows = self.flows.map(|f| f.value_at(&point));
        let grads = self.flows.map(|f| f.gradient_at(&point).to_array());
        let hesses = self.flows.map(|f| f.hessian_at(&point).to_dense());
        // Consensus terms on the flows: gradient (y + rho (u - t)) * grad,
        // Hessian rho * grad grad^T + (y + rho (u - t)) * hess.
        for k in 0..4 {
            let w1 = self.flow_terms[k].rho;
            let w2 = self.flow_terms[k].deriv(flows[k]);
            for d in 0..4 {
                g[d] += w2 * grads[k][d];
            }
            for r in 0..4 {
                for c in 0..4 {
                    h[(r, c)] += w1 * grads[k][r] * grads[k][c] + w2 * hesses[k][r][c];
                }
            }
        }
        // Voltage/angle consensus terms. Second derivative in v_i:
        // d²/dvi² [y(vi²−t) + rho/2 (vi²−t)²] = 2(y + rho(vi²−t)) + rho (2 vi)².
        let dw_i = self.volt_terms[0].deriv(vi * vi);
        let dw_j = self.volt_terms[2].deriv(vj * vj);
        g[0] += dw_i * 2.0 * vi;
        g[2] += self.volt_terms[1].deriv(ti);
        g[1] += dw_j * 2.0 * vj;
        g[3] += self.volt_terms[3].deriv(tj);
        h[(0, 0)] += 2.0 * dw_i + self.volt_terms[0].rho * 4.0 * vi * vi;
        h[(1, 1)] += 2.0 * dw_j + self.volt_terms[2].rho * 4.0 * vj * vj;
        h[(2, 2)] += self.volt_terms[1].rho;
        h[(3, 3)] += self.volt_terms[3].rho;
        // ALM terms on the line limits.
        if self.has_limit() {
            let res = self.slack_residuals(&flows, x);
            for side in 0..2 {
                let w = self.alm_lambda[side] + self.alm_rho * res[side];
                let (pk, qk) = (2 * side, 2 * side + 1);
                // Gradient of the residual r = p² + q² + s over all 6 vars.
                let mut gr = [0.0f64; 6];
                for d in 0..4 {
                    gr[d] = 2.0 * flows[pk] * grads[pk][d] + 2.0 * flows[qk] * grads[qk][d];
                    g[d] += w * gr[d];
                }
                gr[4 + side] = 1.0;
                g[4 + side] += w;
                // rho * gr gr^T
                for r in 0..6 {
                    for c in 0..6 {
                        h[(r, c)] += self.alm_rho * gr[r] * gr[c];
                    }
                }
                // w * hess(r): 2 grad p grad p^T + 2 p hess p + same for q.
                for r in 0..4 {
                    for c in 0..4 {
                        h[(r, c)] += w
                            * (2.0 * grads[pk][r] * grads[pk][c]
                                + 2.0 * flows[pk] * hesses[pk][r][c]
                                + 2.0 * grads[qk][r] * grads[qk][c]
                                + 2.0 * flows[qk] * hesses[qk][r][c]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_grid::branch::Branch;
    use proptest::prelude::*;

    /// The evaluation as it was before `objective` and `derivatives` shared
    /// one [`FlowPoint`]: three independent passes, each re-deriving the
    /// flows, flow gradients and slack residuals it needs through the
    /// four-argument `BranchFlow` methods (one `sin_cos` per call). Kept
    /// verbatim as the oracle the fused evaluation must match bit for bit.
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
            h.set_zero();
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
                    for c in 0..4 {
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
                for side in 0..2 {
                    let w = p.alm_lambda[side] + p.alm_rho * res[side];
                    let (pk, qk) = (2 * side, 2 * side + 1);
                    let mut gr = [0.0f64; 6];
                    for d in 0..4 {
                        gr[d] = 2.0 * flows[pk] * grads[pk][d] + 2.0 * flows[qk] * grads[qk][d];
                    }
                    gr[4 + side] = 1.0;
                    for r in 0..6 {
                        for c in 0..6 {
                            h[(r, c)] += p.alm_rho * gr[r] * gr[c];
                        }
                    }
                    for r in 0..4 {
                        for c in 0..4 {
                            h[(r, c)] += w
                                * (2.0 * grads[pk][r] * grads[pk][c]
                                    + 2.0 * flows[pk] * hesses[pk][r][c]
                                    + 2.0 * grads[qk][r] * grads[qk][c]
                                    + 2.0 * flows[qk] * hesses[qk][r][c]);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fused `objective` / `derivatives` equal the three-pass oracle
        /// bit for bit, over random admittances, operating points (angle
        /// differences up to and beyond ±π, voltages on their bounds),
        /// consensus and ALM data, with and without a line limit.
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
        ) {
            let mut branch =
                Branch::line(1, 2, 0.1 * line[0], 0.01 + 0.4 * line[1], 0.2 * line[2], 130.0);
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
                p.flow_terms[k] = ConsensusTerm { target: terms[k], y: terms[4 + k], rho: rhos[k] };
                p.volt_terms[k] =
                    ConsensusTerm { target: terms[8 + k], y: terms[12 + k], rho: rhos[4 + k] };
            }
            if with_limit == 1 {
                p.limit_sq = (0.99f64 * 1.3).powi(2);
                p.alm_lambda = [alm[0], alm[1]];
                p.alm_rho = rhos[8];
            }
            let mut x = [volts[0], volts[1], angles[0], angles[1], slacks[0], slacks[1]];
            match edge / 2 {
                // Angle difference within a few ulps of +π and of −π.
                1 => (x[2], x[3]) = (std::f64::consts::PI + angles[0] * 1e-15, 0.0),
                2 => (x[2], x[3]) = (angles[0], std::f64::consts::PI + angles[0]),
                // Both voltages and both slacks on a bound.
                3 => {
                    x[0] = p.lower(0);
                    x[1] = p.upper(1);
                    x[4] = p.lower(4);
                    x[5] = p.upper(5);
                }
                _ => {}
            }

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
        let p = sample_problem(true);
        let mut h = SmallMatrix::zeros(6);
        p.derivatives(&sample_x(), &mut [0.0; 6], &mut h);
        for r in 0..6 {
            for c in 0..6 {
                assert!((h[(r, c)] - h[(c, r)]).abs() < 1e-12);
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
