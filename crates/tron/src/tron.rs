//! The TRON trust-region Newton driver for bound-constrained problems.
//!
//! One iteration follows Lin & Moré (1999):
//!
//! 1. evaluate the gradient and Hessian, check the projected-gradient
//!    optimality measure;
//! 2. try the *direct step*: when every variable on a bound has a zero
//!    projected-gradient component, the block of the Hessian on the
//!    variables strictly inside their bounds is positive definite (an LDLᵀ
//!    factor with positive pivots exists) and its Newton step from the
//!    iterate lies strictly inside the box and the trust region, take that
//!    step, with model value `½ gᵀd` (see `direct_step` for why it keeps
//!    the convergence theory). The factor runs in place over the whole
//!    Hessian, the variables on a bound entering as identity rows, so it
//!    has the problem's fixed shape. On the branch blocks ≥ 99.8 % of
//!    iterations end here;
//! 3. otherwise, compute the Cauchy point along the projected-gradient path,
//!    searching down from the model's own step length `gᵀg / gᵀHg` capped at
//!    the trust-region boundary, and refine within the subspace of free
//!    variables at the Cauchy point: the LDLᵀ Newton step of their block
//!    when it is positive definite and the step lies strictly inside the
//!    remaining trust region, Steihaug–Toint conjugate gradients (with
//!    negative-curvature handling) for every other block. A projected line
//!    search then pulls the trial point back onto the bounds;
//! 4. accept or reject the step based on the ratio of actual to predicted
//!    reduction (`pred` is the model value the search computed for the step
//!    taken), and update the trust-region radius — except when both
//!    reductions are below the resolution of the objective (`FTOL`), where
//!    the ratio is rounding noise and the step is accepted on the model's
//!    word.

use crate::cauchy::{cauchy_point, model_value};
use crate::cg::steihaug_cg;
use crate::problem::{BoundProblem, MAX_DIM};
use gridsim_sparse::dense::{norm2, SmallMatrix};

/// Options for the TRON solver.
#[derive(Debug, Clone)]
pub struct TronOptions {
    /// Maximum number of outer (trust-region) iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the projected gradient infinity norm.
    pub gtol: f64,
    /// Initial trust-region radius (`None` uses the initial gradient norm).
    pub initial_delta: Option<f64>,
}

impl Default for TronOptions {
    fn default() -> Self {
        TronOptions {
            max_iter: 200,
            gtol: 1e-8,
            initial_delta: None,
        }
    }
}

/// Resolution of the objective, relative to `max(1, |f|)`. When the actual
/// and the predicted reduction of a step are both at most
/// `FTOL * max(1, |f|)`, their ratio carries no information and the step is
/// accepted as a good one.
///
/// The constant has two sides. It must sit above the rounding band of the
/// objectives solved here: the branch objective is a cancellation-dominated
/// sum (`|f|` ~1e-4 from terms of size 1–1e3) whose sampled `|ared|` noise
/// reaches ≈ 1e-14 on `case9` and ≈ 1e-12 on the Pegase stand-ins; at `1e-12`
/// some solves cycle to `max_iter`, and ADMM results are bit-identical for
/// any value from `1e-11` to `1e-4`. And it is a hard bound on harm: `|ared|`
/// is part of the test, so a step accepted under it raises `f` by at most
/// `FTOL * max(1, |f|)`.
const FTOL: f64 = 1e-10;

/// Steihaug–Toint CG iterations per subspace solve. A problem has at most
/// [`MAX_DIM`] variables, so CG in exact arithmetic ends within that many;
/// the cap only bounds a solve that rounding keeps going.
const MAX_CG_ITER: usize = 50;

/// Step acceptance threshold on the reduction ratio `ared / pred`
/// (Lin & Moré's η₀ = 1e-4).
const ETA: f64 = 1e-4;

/// Termination status of a TRON solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TronStatus {
    /// Projected gradient norm below tolerance.
    Converged,
    /// Iteration limit reached.
    MaxIter,
    /// Trust region collapsed: step after step was rejected on a reduction
    /// the objective can resolve, so the model is wrong here, not merely
    /// indistinguishable from rounding.
    SmallStep,
}

/// What [`TronSolver::solve_in_place`] reports about a solve; the solution
/// itself is left in the caller's `x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TronSummary {
    /// Objective value at the final iterate.
    pub objective: f64,
    /// Final projected-gradient infinity norm.
    pub pg_norm: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// How many of those iterations rejected their step.
    pub rejected: usize,
    /// How many of those iterations took the direct step (the Newton step
    /// of the free block from the iterate itself) instead of the Cauchy
    /// point and the subspace refinement.
    pub direct: usize,
    /// Termination status.
    pub status: TronStatus,
}

/// Result of [`TronSolver::solve`]: the final iterate plus its summary.
#[derive(Debug, Clone)]
pub struct TronResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Objective value at the final iterate.
    pub objective: f64,
    /// Final projected-gradient infinity norm.
    pub pg_norm: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Termination status.
    pub status: TronStatus,
}

/// The TRON solver: options only. An iteration takes the direct step (the
/// free block's Newton step from the iterate) when it is admissible and
/// TRON's Cauchy point, subspace step and projected line search otherwise;
/// [`TronSummary::direct`] counts the former. A solve keeps its whole
/// working set — gradient, Hessian, free-block factor, Cauchy and CG
/// vectors, every trial step — in fixed-size arrays on the stack (problems
/// have at most [`MAX_DIM`] variables), the way an ExaTron thread block
/// works out of registers and shared memory, so the tens of thousands of
/// block solves per ADMM iteration never touch the heap.
#[derive(Debug, Clone)]
pub struct TronSolver {
    opts: TronOptions,
}

impl Default for TronSolver {
    fn default() -> Self {
        TronSolver::new(TronOptions::default())
    }
}

impl TronSolver {
    /// Create a solver with the given options.
    pub fn new(opts: TronOptions) -> Self {
        TronSolver { opts }
    }

    /// Solver options.
    pub fn options(&self) -> &TronOptions {
        &self.opts
    }

    /// Minimize `problem` starting from `x0` (projected onto the bounds).
    /// Allocating convenience over [`Self::solve_in_place`] for callers that
    /// want the iterate returned by value.
    pub fn solve<P: BoundProblem>(&self, problem: &P, x0: &[f64]) -> TronResult {
        let mut x = x0.to_vec();
        let summary = self.solve_in_place(problem, &mut x);
        TronResult {
            x,
            objective: summary.objective,
            pg_norm: summary.pg_norm,
            iterations: summary.iterations,
            status: summary.status,
        }
    }

    /// Minimize `problem` starting from `x` (projected onto the bounds),
    /// leaving the final iterate in `x`. Performs no heap allocation.
    ///
    /// Panics when `problem.dim()` exceeds [`MAX_DIM`] or differs from
    /// `x.len()`.
    #[inline]
    pub fn solve_in_place<P: BoundProblem>(&self, problem: &P, x: &mut [f64]) -> TronSummary {
        let n = problem.dim();
        assert!(
            n <= MAX_DIM,
            "TRON solves problems of at most {MAX_DIM} variables, got dim() = {n}"
        );
        assert_eq!(x.len(), n);
        problem.project(x);

        let mut g = [0.0; MAX_DIM];
        let g = &mut g[..n];
        let mut h = SmallMatrix::zeros(n);
        let mut f = problem.objective(x);
        problem.derivatives(x, g, &mut h);

        let gnorm0 = g.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut delta = self.opts.initial_delta.unwrap_or_else(|| gnorm0.max(1.0));
        let mut pg_norm = problem.projected_gradient_norm(x, g);
        let (mut rejected, mut direct) = (0, 0);
        let summary = |f: f64, pg_norm: f64, iterations, rejected, direct, status| TronSummary {
            objective: f,
            pg_norm,
            iterations,
            rejected,
            direct,
            status,
        };

        for iter in 0..self.opts.max_iter {
            if pg_norm <= self.opts.gtol {
                return summary(f, pg_norm, iter, rejected, direct, TronStatus::Converged);
            }
            if delta < 1e-14 {
                return summary(f, pg_norm, iter, rejected, direct, TronStatus::SmallStep);
            }

            // --- direct step, else Cauchy point and subspace refinement ---
            let (step, q_step) = match direct_step(problem, x, g, &h, delta) {
                Some(taken) => {
                    direct += 1;
                    taken
                }
                None => cauchy_then_subspace(problem, x, g, &h, delta),
            };

            // --- acceptance test ---
            let step = &step[..n];
            let pred = -q_step;
            let mut x_trial = [0.0; MAX_DIM];
            let x_trial = &mut x_trial[..n];
            for i in 0..n {
                x_trial[i] = x[i] + step[i];
            }
            problem.project(x_trial);
            let f_trial = problem.objective(x_trial);
            let ared = f - f_trial;
            let step_norm = step.iter().map(|s| s * s).sum::<f64>().sqrt();
            let noise = FTOL * f.abs().max(1.0);
            let rho = if ared.abs() <= noise && pred <= noise {
                // Below the objective's resolution: take the model's word.
                1.0
            } else if pred > 0.0 {
                ared / pred
            } else {
                ared.signum()
            };

            if rho > ETA {
                x.copy_from_slice(x_trial);
                f = f_trial;
                problem.derivatives(x, g, &mut h);
                pg_norm = problem.projected_gradient_norm(x, g);
            } else {
                rejected += 1;
            }

            // Trust-region radius update. A failed step shrinks the region
            // relative to itself (Lin & Moré), so that a rejected interior
            // step is not recomputed unchanged.
            if rho < 0.25 {
                delta = 0.25 * step_norm.min(delta);
            } else if rho > 0.75 && step_norm > 0.9 * delta {
                delta = (2.0 * delta).min(1e6);
            }
        }

        let status = if pg_norm <= self.opts.gtol {
            TronStatus::Converged
        } else {
            TronStatus::MaxIter
        };
        summary(f, pg_norm, self.opts.max_iter, rejected, direct, status)
    }
}

/// The direct step at `x` and its model value, when it is taken; `None`
/// sends the iteration down [`cauchy_then_subspace`].
///
/// The free set `F` is the variables strictly inside their bounds (by the
/// subspace step's 1e-12 margin); every other variable is *held* and must
/// have a zero projected-gradient component, `P[x_i − g_i] = x_i` — true
/// of a fixed variable (`l == u`) and of a bound the gradient presses
/// against, false for a NaN. The step is [`newton_step`]'s
/// `d_F = −H_FF⁻¹ g_F` (positive pivots, `‖d‖ < Δ`), taken when `x_i + d_i`
/// lies strictly inside `(l_i, u_i)` for every `i ∈ F`. Its model value is
/// `½ g_Fᵀd_F`, exact for a Newton step, so no mat-vec is needed.
///
/// Why this keeps Lin–Moré's convergence theory: a held variable stays on
/// its bound all along the projected path `P[x − t g]`, so the Cauchy point
/// lies on the face `{s : s_held = 0, ‖s‖ ≤ Δ}`. With `H_FF` positive
/// definite, `d` minimises the model over `{s_held = 0}`, and it lies inside
/// the box and the trust region, so it minimises the model over that face
/// too: `q(d) ≤ q(s_cauchy)`, at least the Cauchy decrease the theory asks
/// of a step. In exact arithmetic the Cauchy point, the subspace step from
/// it and an untruncated line search reach the same `d`.
#[inline]
fn direct_step<P: BoundProblem>(
    problem: &P,
    x: &[f64],
    g: &[f64],
    h: &SmallMatrix,
    delta: f64,
) -> Option<([f64; MAX_DIM], f64)> {
    let n = problem.dim();
    let (mut rhs, mut free) = ([0.0; MAX_DIM], [false; MAX_DIM]);
    for i in 0..n {
        let (l, u) = (problem.lower(i), problem.upper(i));
        free[i] = x[i] > l + 1e-12 && x[i] < u - 1e-12;
        if !free[i] && (x[i] - g[i]).clamp(l, u) != x[i] {
            return None;
        }
        rhs[i] = -g[i];
    }
    let d = newton_step(h, &rhs[..n], &free[..n], delta)?;
    let mut gd = 0.0;
    for i in (0..n).filter(|&i| free[i]) {
        let xi = x[i] + d[i];
        if !(xi > problem.lower(i) && xi < problem.upper(i)) {
            return None;
        }
        gd += g[i] * d[i];
    }
    Some((d, 0.5 * gd))
}

/// TRON's globalised step for the iterations [`direct_step`] refuses: the
/// Cauchy point, the subspace step over the variables free there, and a
/// projected line search that keeps the step in the box without raising
/// the model above the Cauchy point's value. Returns the step and its
/// model value.
#[inline]
fn cauchy_then_subspace<P: BoundProblem>(
    problem: &P,
    x: &[f64],
    g: &[f64],
    h: &SmallMatrix,
    delta: f64,
) -> ([f64; MAX_DIM], f64) {
    let n = problem.dim();
    let mut scratch = [0.0; MAX_DIM];
    let scratch = &mut scratch[..n];
    let cp = cauchy_point(problem, x, g, h, delta);
    let (mut step, mut q_step) = (cp.step, cp.model_value);

    // model gradient at the Cauchy point: g + H s
    h.mul_vec(&step[..n], scratch);
    let (mut rhs, mut free) = ([0.0; MAX_DIM], [false; MAX_DIM]);
    let (rhs, free) = (&mut rhs[..n], &mut free[..n]);
    for i in 0..n {
        let xi = x[i] + step[i];
        free[i] = xi > problem.lower(i) + 1e-12 && xi < problem.upper(i) - 1e-12;
        rhs[i] = -(g[i] + scratch[i]);
    }
    let remaining = (delta * delta - step[..n].iter().map(|s| s * s).sum::<f64>())
        .max(0.0)
        .sqrt();
    if remaining > 1e-14 && free.iter().any(|&fr| fr) {
        let refinement = subspace_step(h, rhs, free, remaining);
        // Projected line search on the refinement direction: scale the
        // subspace step back until x + step stays feasible and the model
        // does not increase relative to the Cauchy point.
        let mut alpha = 1.0f64;
        for _ in 0..20 {
            let mut trial = step;
            for (ti, si) in trial[..n].iter_mut().zip(&refinement[..n]) {
                *ti += alpha * si;
            }
            // Project the trial step onto the box.
            for (i, ti) in trial[..n].iter_mut().enumerate() {
                let xi = (x[i] + *ti).clamp(problem.lower(i), problem.upper(i));
                *ti = xi - x[i];
            }
            let q = model_value(g, h, &trial[..n], scratch);
            if q <= cp.model_value + 1e-16 {
                (step, q_step) = (trial, q);
                break;
            }
            alpha *= 0.5;
        }
    }
    (step, q_step)
}

/// The step on the free variables from the model gradient `-rhs` at the
/// Cauchy point, inside a trust region of radius `delta`: the Newton step
/// of the free block — the direct step's factor, over the variables free
/// at the Cauchy point — when [`newton_step`] finds one inside the region,
/// [`steihaug_cg`] otherwise — which keeps indefinite blocks and steps that
/// reach the boundary on the path Steihaug's method handles. Zero on fixed
/// variables.
#[inline]
fn subspace_step(h: &SmallMatrix, rhs: &[f64], free: &[bool], delta: f64) -> [f64; MAX_DIM] {
    newton_step(h, rhs, free, delta)
        .unwrap_or_else(|| steihaug_cg(h, rhs, free, delta, 1e-8, MAX_CG_ITER).step)
}

/// `d = H_FF⁻¹ rhs_F` on the free variables `F`, zero elsewhere, when the
/// free block's LDLᵀ factor exists and `‖d‖ < delta` — the strict test
/// [`steihaug_cg`]'s boundary exit uses; `None` otherwise. A branch block
/// has at most six free variables, so factoring the block outright costs
/// less than the several latency-bound CG iterations that would converge
/// to the same step. The factor is [`SmallMatrix::ldlt_solve_masked`],
/// which keeps the held variables in place as identity rows, so where
/// `problem.dim()` is a constant it runs at that fixed shape; always
/// inlined, so that the constant reaches it. Reads the lower triangle of
/// the free block of `h`.
#[inline(always)]
fn newton_step(h: &SmallMatrix, rhs: &[f64], free: &[bool], delta: f64) -> Option<[f64; MAX_DIM]> {
    let d = h.ldlt_solve_masked(free, rhs)?;
    // False for a NaN norm too.
    (norm2(&d[..free.len()]) < delta).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cauchy::tests::{dense_box_qp, derivatives_at};
    use crate::problem::QuadraticBox;
    use proptest::prelude::*;

    fn solve_quadratic(qp: &QuadraticBox, x0: &[f64]) -> TronResult {
        TronSolver::new(TronOptions {
            gtol: 1e-10,
            ..Default::default()
        })
        .solve(qp, x0)
    }

    #[test]
    fn unconstrained_quadratic_reaches_exact_minimum() {
        let qp = QuadraticBox::diagonal(
            &[2.0, 4.0, 8.0],
            &[2.0, -4.0, 8.0],
            &[-100.0; 3],
            &[100.0; 3],
        );
        let res = solve_quadratic(&qp, &[0.0; 3]);
        assert_eq!(res.status, TronStatus::Converged);
        let expect = qp.diagonal_solution();
        for (a, b) in res.x.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn bound_constrained_quadratic_hits_active_set() {
        // Minimizer of 0.5*2x^2 - 10x is x = 5, clipped to 1.
        let qp = QuadraticBox::diagonal(&[2.0, 2.0], &[10.0, -10.0], &[-1.0; 2], &[1.0; 2]);
        let res = solve_quadratic(&qp, &[0.0, 0.0]);
        assert_eq!(res.status, TronStatus::Converged);
        assert!((res.x[0] - 1.0).abs() < 1e-8);
        assert!((res.x[1] + 1.0).abs() < 1e-8);
    }

    #[test]
    fn coupled_quadratic_matches_cholesky_solution() {
        // Non-diagonal SPD Q; interior solution, compare with direct solve.
        let mut q = SmallMatrix::zeros(3);
        let data = [[5.0, 1.0, 0.5], [1.0, 4.0, 1.0], [0.5, 1.0, 3.0]];
        for i in 0..3 {
            for j in 0..3 {
                q[(i, j)] = data[i][j];
            }
        }
        let c = [1.0, 2.0, 3.0];
        let qp = QuadraticBox {
            q,
            c: c.to_vec(),
            l: vec![-10.0; 3],
            u: vec![10.0; 3],
        };
        let res = solve_quadratic(&qp, &[0.0; 3]);
        // Q x = c by Gaussian elimination with partial pivoting, which
        // shares no code with the LDLᵀ factor TRON steps with.
        let (mut a, mut exact) = (data, c);
        for k in 0..3 {
            let p = (k..3)
                .max_by(|&i, &j| a[i][k].abs().total_cmp(&a[j][k].abs()))
                .unwrap();
            a.swap(k, p);
            exact.swap(k, p);
            let pivot_row = a[k];
            for i in k + 1..3 {
                let m = a[i][k] / a[k][k];
                for (aij, akj) in a[i][k..].iter_mut().zip(&pivot_row[k..]) {
                    *aij -= m * akj;
                }
                exact[i] -= m * exact[k];
            }
        }
        for k in (0..3).rev() {
            exact[k] = (exact[k] - (k + 1..3).map(|j| a[k][j] * exact[j]).sum::<f64>()) / a[k][k];
        }
        for (a, b) in res.x.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    /// 2D Rosenbrock restricted to a box, a standard nonconvex test problem.
    struct RosenbrockBox;

    impl BoundProblem for RosenbrockBox {
        fn dim(&self) -> usize {
            2
        }
        fn lower(&self, _i: usize) -> f64 {
            -2.0
        }
        fn upper(&self, _i: usize) -> f64 {
            2.0
        }
        fn objective(&self, x: &[f64]) -> f64 {
            let (a, b) = (x[0], x[1]);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        }
        fn derivatives(&self, x: &[f64], g: &mut [f64], h: &mut SmallMatrix) {
            let (a, b) = (x[0], x[1]);
            g[0] = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
            g[1] = 200.0 * (b - a * a);
            h[(0, 0)] = 2.0 - 400.0 * (b - a * a) + 800.0 * a * a;
            h[(0, 1)] = -400.0 * a;
            h[(1, 0)] = -400.0 * a;
            h[(1, 1)] = 200.0;
        }
    }

    #[test]
    fn rosenbrock_converges_to_global_minimum() {
        let solver = TronSolver::new(TronOptions {
            max_iter: 500,
            gtol: 1e-8,
            ..Default::default()
        });
        let res = solver.solve(&RosenbrockBox, &[-1.2, 1.0]);
        assert_eq!(res.status, TronStatus::Converged);
        assert!((res.x[0] - 1.0).abs() < 1e-5, "x0 = {}", res.x[0]);
        assert!((res.x[1] - 1.0).abs() < 1e-5, "x1 = {}", res.x[1]);
        assert!(res.objective < 1e-10);
    }

    #[test]
    fn rosenbrock_with_binding_bound() {
        /// Rosenbrock but the box excludes the global minimum (upper bound
        /// 0.5 on both variables), so the solution sits on the boundary.
        struct Tight;
        impl BoundProblem for Tight {
            fn dim(&self) -> usize {
                2
            }
            fn lower(&self, _i: usize) -> f64 {
                -2.0
            }
            fn upper(&self, _i: usize) -> f64 {
                0.5
            }
            fn objective(&self, x: &[f64]) -> f64 {
                RosenbrockBox.objective(x)
            }
            fn derivatives(&self, x: &[f64], g: &mut [f64], h: &mut SmallMatrix) {
                RosenbrockBox.derivatives(x, g, h)
            }
        }
        let solver = TronSolver::new(TronOptions {
            max_iter: 500,
            gtol: 1e-8,
            ..Default::default()
        });
        let res = solver.solve(&Tight, &[0.0, 0.0]);
        // First-order optimality for the bound-constrained problem.
        assert!(res.pg_norm < 1e-6, "pg_norm {}", res.pg_norm);
        assert!(res.x.iter().all(|&v| v <= 0.5 + 1e-12));
        // The known constrained optimum has x0 = 0.5 active.
        assert!((res.x[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn starting_point_outside_bounds_is_projected() {
        let qp = QuadraticBox::diagonal(&[1.0], &[0.0], &[-1.0], &[1.0]);
        let res = solve_quadratic(&qp, &[25.0]);
        assert!(res.x[0].abs() < 1e-8);
        assert_eq!(res.status, TronStatus::Converged);
    }

    #[test]
    fn already_optimal_point_terminates_immediately() {
        let qp = QuadraticBox::diagonal(&[2.0], &[2.0], &[-5.0], &[5.0]);
        let res = solve_quadratic(&qp, &[1.0]);
        assert_eq!(res.iterations, 0);
        assert_eq!(res.status, TronStatus::Converged);
    }

    #[test]
    fn indefinite_problem_still_satisfies_first_order_conditions() {
        // Saddle-shaped quadratic restricted to a box: minimum is at a corner.
        let mut qp = QuadraticBox::diagonal(&[1.0, 1.0], &[0.0, 0.0], &[-1.0; 2], &[1.0; 2]);
        qp.q[(1, 1)] = -2.0;
        let solver = TronSolver::new(TronOptions {
            max_iter: 200,
            gtol: 1e-8,
            ..Default::default()
        });
        let res = solver.solve(&qp, &[0.3, 0.1]);
        assert!(res.pg_norm < 1e-6, "pg_norm {}", res.pg_norm);
        // The x[1] variable must be at a bound (negative curvature pushes it
        // outward).
        assert!((res.x[1].abs() - 1.0).abs() < 1e-6);
    }

    /// One variable on `[-1e6, 1e6]` with caller-supplied `f` and
    /// `(f', f'')`, recording every point the objective is evaluated at.
    struct Scalar<F, D> {
        f: F,
        d: D,
        evals: std::cell::RefCell<Vec<f64>>,
    }

    impl<F: Fn(f64) -> f64, D: Fn(f64) -> (f64, f64)> Scalar<F, D> {
        fn new(f: F, d: D) -> Self {
            let evals = Default::default();
            Scalar { f, d, evals }
        }
    }

    impl<F: Fn(f64) -> f64, D: Fn(f64) -> (f64, f64)> BoundProblem for Scalar<F, D> {
        fn dim(&self) -> usize {
            1
        }
        fn lower(&self, _i: usize) -> f64 {
            -1e6
        }
        fn upper(&self, _i: usize) -> f64 {
            1e6
        }
        fn objective(&self, x: &[f64]) -> f64 {
            self.evals.borrow_mut().push(x[0]);
            (self.f)(x[0])
        }
        fn derivatives(&self, x: &[f64], g: &mut [f64], h: &mut SmallMatrix) {
            (g[0], h[(0, 0)]) = (self.d)(x[0]);
        }
    }

    #[test]
    fn cancellation_dominated_objective_converges_on_the_models_word() {
        // `q` is 5e-17 at the start and the ulp of 1e3 is 1e-13: the
        // objective is 0.0 everywhere near the minimiser, so every step has
        // `ared == 0` against a positive `pred`.
        let p = Scalar::new(
            |x| (1e3 + 50.0 * (x - 1.0) * (x - 1.0)) - 1e3,
            |x| (100.0 * (x - 1.0), 100.0),
        );
        let mut x = [1.0 + 1e-9];
        let solver = TronSolver::default();
        assert!(100.0 * (x[0] - 1.0) > solver.options().gtol);
        let res = solver.solve_in_place(&p, &mut x);
        assert_eq!(res.status, TronStatus::Converged, "{res:?}");
        assert!(res.iterations <= 3 && res.rejected == 0, "{res:?}");
        assert!((x[0] - 1.0).abs() < 1e-12, "x = {}", x[0]);
    }

    #[test]
    fn a_step_that_raises_the_objective_by_more_than_ftol_is_rejected() {
        // The derivatives lie: they promise a reduction of 5e-13 from a step
        // of 1e-6, the objective rises by `slope * 1e-6` instead.
        let one_step = |slope: f64| {
            let p = Scalar::new(|x| slope * x.abs(), |_| (-1e-6, 1.0));
            let solver = TronSolver::new(TronOptions {
                max_iter: 1,
                ..Default::default()
            });
            let mut x = [0.0];
            (solver.solve_in_place(&p, &mut x).rejected, x[0])
        };
        // A rise of 1e-9 is above FTOL * max(1, |f|) = 1e-10.
        assert_eq!(one_step(1e-3), (1, 0.0));
        // A rise of 1e-11 is below it, and is all the harm the rule can do.
        let (rejected, x) = one_step(1e-5);
        assert_eq!(rejected, 0);
        assert!((x - 1e-6).abs() < 1e-12, "x = {x}");
    }

    #[test]
    fn a_nan_gradient_never_reads_as_converged() {
        struct NanGradient;
        impl BoundProblem for NanGradient {
            fn dim(&self) -> usize {
                2
            }
            fn lower(&self, _i: usize) -> f64 {
                -1.0
            }
            fn upper(&self, _i: usize) -> f64 {
                1.0
            }
            fn objective(&self, _x: &[f64]) -> f64 {
                f64::NAN
            }
            fn derivatives(&self, _x: &[f64], g: &mut [f64], h: &mut SmallMatrix) {
                g.copy_from_slice(&[f64::NAN, 0.0]);
                h[(0, 0)] = 1.0;
                h[(1, 1)] = 1.0;
            }
        }
        let solver = TronSolver::new(TronOptions {
            max_iter: 5,
            ..Default::default()
        });
        let res = solver.solve_in_place(&NanGradient, &mut [0.0, 0.0]);
        assert_ne!(res.status, TronStatus::Converged, "{res:?}");
        assert!(res.pg_norm.is_nan(), "{res:?}");

        // A finite gradient with a NaN off-diagonal Hessian entry: no free
        // block factors and no model step decreases, so the solve stays put.
        struct NanHessian;
        impl BoundProblem for NanHessian {
            fn dim(&self) -> usize {
                2
            }
            fn lower(&self, _i: usize) -> f64 {
                -1.0
            }
            fn upper(&self, _i: usize) -> f64 {
                1.0
            }
            fn objective(&self, x: &[f64]) -> f64 {
                x[0] + x[1]
            }
            fn derivatives(&self, _x: &[f64], g: &mut [f64], h: &mut SmallMatrix) {
                g.copy_from_slice(&[1.0, 1.0]);
                h[(0, 0)] = 1.0;
                h[(1, 1)] = 1.0;
                h[(0, 1)] = f64::NAN;
                h[(1, 0)] = f64::NAN;
            }
        }
        let start = [0.25, -0.5];
        let mut x = start;
        let res = solver.solve_in_place(&NanHessian, &mut x);
        assert_eq!(res.status, TronStatus::MaxIter, "{res:?}");
        assert_eq!(x, start);
    }

    /// Whether the block of `h` on the `free` variables is positive
    /// definite, by a textbook Cholesky factorization that shares no code
    /// with the LDLᵀ under test.
    fn free_block_is_positive_definite(h: &SmallMatrix, free: &[bool]) -> bool {
        let index: Vec<usize> = (0..free.len()).filter(|&i| free[i]).collect();
        let mut l = vec![vec![0.0; index.len()]; index.len()];
        for a in 0..index.len() {
            for b in 0..=a {
                let dot: f64 = (0..b).map(|k| l[a][k] * l[b][k]).sum();
                let v = h[(index[a], index[b])] - dot;
                if a == b {
                    if v.is_nan() || v <= 0.0 {
                        return false;
                    }
                    l[a][a] = v.sqrt();
                } else {
                    l[a][b] = v / l[b][b];
                }
            }
        }
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On the dense 6-variable box QPs of the Cauchy contract test, with
        /// random free masks and radii (a third of them exactly the norm of
        /// the free block's Newton step, where the strict test must send the
        /// step to CG): when the free block is positive definite and its
        /// Newton step lies strictly inside the region, the subspace step
        /// solves `H_FF d = rhs_F` and agrees with a tightly converged CG;
        /// otherwise it is bitwise the CG step TRON took before the factor.
        #[test]
        fn subspace_step_is_the_free_newton_step_or_steihaug_cg(
            shape in 0..12usize,
            scale in prop::collection::vec(0.1f64..1.0, 6),
            s in prop::collection::vec(-1.0f64..1.0, 36),
            c in prop::collection::vec(-3.0f64..3.0, 6),
            unit_x in prop::collection::vec(-1.0f64..1.0, 6),
            mask in 1..64usize,
            on_newton_norm in 0..3usize,
            log_delta in -3.0f64..3.0,
        ) {
            let (qp, x) = dense_box_qp(shape, &scale, &s, c, &unit_x);
            let (g, h) = derivatives_at(&qp, &x);
            let rhs: Vec<f64> = g.iter().map(|v| -v).collect();
            let free: Vec<bool> = (0..6).map(|i| mask >> i & 1 == 1).collect();
            let newton_norm =
                newton_step(&h, &rhs, &free, f64::INFINITY).map(|d| norm2(&d[..6]));
            let delta = match newton_norm {
                Some(norm) if on_newton_norm == 0 => norm,
                _ => 10f64.powf(log_delta),
            };
            let step = subspace_step(&h, &rhs, &free, delta);
            let inside = newton_norm.is_some_and(|norm| norm < delta);
            if free_block_is_positive_definite(&h, &free) && inside {
                let mut hd = [0.0; 6];
                h.mul_vec(&step[..6], &mut hd);
                let (mut residual, mut rhs_norm, mut h_norm) = (0.0f64, 0.0f64, 0.0f64);
                for i in (0..6).filter(|&i| free[i]) {
                    residual = residual.max((hd[i] - rhs[i]).abs());
                    rhs_norm = rhs_norm.max(rhs[i].abs());
                    let row = (0..6).filter(|&j| free[j]).map(|j| h[(i, j)].abs());
                    h_norm = h_norm.max(row.sum());
                }
                let step_norm = norm2(&step[..6]);
                prop_assert!(
                    residual <= 1e-10 * (rhs_norm + h_norm * step_norm),
                    "‖H_FF d − rhs‖∞ = {residual:e}"
                );
                // An unbounded region: Jacobi-preconditioned iterates grow in
                // the preconditioner's norm, not the Euclidean one, so a radius
                // the Newton step fits in may still stop CG early.
                let cg = steihaug_cg(&h, &rhs, &free, f64::INFINITY, 1e-12, MAX_CG_ITER);
                let gap: Vec<f64> = (0..6).map(|i| step[i] - cg.step[i]).collect();
                prop_assert!(norm2(&gap) <= 1e-8 * step_norm, "‖d − d_cg‖ = {:e}", norm2(&gap));
                for i in (0..6).filter(|&i| !free[i]) {
                    prop_assert_eq!(step[i], 0.0);
                }
            } else {
                let cg = steihaug_cg(&h, &rhs, &free, delta, 1e-8, MAX_CG_ITER);
                prop_assert_eq!(step.map(f64::to_bits), cg.step.map(f64::to_bits));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// On the dense 6-variable box QPs (half of them convex), with
        /// points moved onto their bounds (a held variable's gradient made to
        /// press against its bound three times in four), half of them aimed
        /// so that the free block's Newton point lies inside the box, and
        /// log-uniform radii: a direct step lies strictly inside the box on
        /// the free variables and inside the region, is zero on the held ones
        /// (whose projected-gradient components are zero), solves
        /// `H_FF d = −g_F`, reports its exact model value and decreases the
        /// model at least as much as the Cauchy point. A refused step has a
        /// reason an independent check finds.
        #[test]
        fn the_direct_step_keeps_its_contract(
            box_and_decade in 0..4usize,
            shift in 0..4usize,
            scale in prop::collection::vec(0.1f64..1.0, 6),
            s in prop::collection::vec(-1.0f64..1.0, 36),
            c in prop::collection::vec(-3.0f64..3.0, 6),
            unit_x in prop::collection::vec(-1.0f64..1.0, 6),
            place in prop::collection::vec(0..6usize, 6),
            outward in prop::collection::vec(0..4usize, 6),
            aim in 0..2usize,
            unit_t in prop::collection::vec(-0.9f64..0.9, 6),
            log_delta in -3.0f64..3.0,
        ) {
            let shape = 3 * box_and_decade + [0, 0, 1, 2][shift];
            let (mut qp, mut x) = dense_box_qp(shape, &scale, &s, c, &unit_x);
            for i in 0..6 {
                match place[i] {
                    4 => x[i] = qp.l[i],
                    5 => x[i] = qp.u[i],
                    _ => {}
                }
            }
            let free: Vec<bool> = (0..6)
                .map(|i| x[i] > qp.l[i] + 1e-12 && x[i] < qp.u[i] - 1e-12)
                .collect();
            let mut qx = [0.0; 6];
            qp.q.mul_vec(&x, &mut qx);
            if aim == 1 {
                // c_F = (Qx)_F + (Q dt)_F puts the Newton point at x + dt.
                let dt: Vec<f64> = (0..6)
                    .map(|j| if free[j] { unit_t[j] * qp.u[j] - x[j] } else { 0.0 })
                    .collect();
                let mut q_dt = [0.0; 6];
                qp.q.mul_vec(&dt, &mut q_dt);
                for i in (0..6).filter(|&i| free[i]) {
                    qp.c[i] = qx[i] + q_dt[i];
                }
            }
            for i in (0..6).filter(|&i| place[i] >= 4 && outward[i] != 0) {
                // g_i = (Qx)_i − c_i: positive at a lower bound, negative at an
                // upper one.
                let side = if place[i] == 4 { 1.0 } else { -1.0 };
                qp.c[i] = qx[i] - side * qp.c[i].abs();
            }
            let (g, h) = derivatives_at(&qp, &x);
            let delta = 10f64.powf(log_delta);
            let held_ok = (0..6).all(|i| free[i] || (x[i] - g[i]).clamp(qp.l[i], qp.u[i]) == x[i]);
            let cg = steihaug_cg(
                &h,
                &g.iter().map(|v| -v).collect::<Vec<f64>>(),
                &free,
                f64::INFINITY,
                1e-12,
                MAX_CG_ITER,
            );
            match direct_step(&qp, &x, &g, &h, delta) {
                Some((d, q)) => {
                    prop_assert!(held_ok);
                    for i in 0..6 {
                        if free[i] {
                            let xi = x[i] + d[i];
                            prop_assert!(qp.l[i] < xi && xi < qp.u[i], "x + d leaves the box at {i}");
                        } else {
                            prop_assert_eq!(d[i], 0.0);
                        }
                    }
                    let d_norm = norm2(&d[..6]);
                    prop_assert!(d_norm < delta, "‖d‖ = {d_norm} ≥ Δ = {delta}");
                    let mut hd = [0.0; 6];
                    h.mul_vec(&d[..6], &mut hd);
                    let (mut residual, mut g_norm, mut h_norm) = (0.0f64, 0.0f64, 0.0f64);
                    for i in (0..6).filter(|&i| free[i]) {
                        residual = residual.max((hd[i] + g[i]).abs());
                        g_norm = g_norm.max(g[i].abs());
                        let row = (0..6).filter(|&j| free[j]).map(|j| h[(i, j)].abs());
                        h_norm = h_norm.max(row.sum());
                    }
                    prop_assert!(
                        residual <= 1e-10 * (g_norm + h_norm * d_norm),
                        "‖H_FF d + g_F‖∞ = {residual:e}"
                    );
                    let rounding = 1e-12 * (g_norm + h_norm * d_norm) * d_norm;
                    let exact = model_value(&g, &h, &d[..6], &mut [0.0; 6]);
                    prop_assert!((q - exact).abs() <= rounding, "q = {q}, model {exact}");
                    let cp = cauchy_point(&qp, &x, &g, &h, delta);
                    prop_assert!(
                        exact <= cp.model_value + rounding,
                        "q(d) = {exact} > q(cauchy) = {}",
                        cp.model_value
                    );
                }
                None => {
                    // A refusal: a held variable the gradient moves, no
                    // positive-definite free block, a Newton step on or
                    // outside the region, or one that leaves the box (the
                    // last two judged with a tightly converged CG step).
                    let d = &cg.step[..6];
                    let near = 1e-6 * (1.0 + norm2(d));
                    let reason = !held_ok
                        || !free_block_is_positive_definite(&h, &free)
                        || norm2(d) >= delta - near
                        || (0..6).any(|i| {
                            free[i] && !(qp.l[i] + near < x[i] + d[i] && x[i] + d[i] < qp.u[i] - near)
                        });
                    prop_assert!(reason, "refused with no reason: d = {d:?}");
                }
            }
        }
    }

    #[test]
    fn the_direct_step_refuses_an_inward_gradient_at_a_bound() {
        let qp = QuadraticBox::diagonal(&[1.0, 1.0], &[0.0, 0.5], &[-1.0; 2], &[1.0; 2]);
        // At x₀ = −1 the gradient −1 points into the box: the variable is
        // not held, and not free either.
        let x = [-1.0, 0.0];
        let (g, h) = derivatives_at(&qp, &x);
        assert_eq!(direct_step(&qp, &x, &g, &h, 10.0), None);
        // Pressed against the bound instead (g₀ = 1), it is held at zero.
        let qp = QuadraticBox::diagonal(&[1.0, 1.0], &[-2.0, 0.5], &[-1.0; 2], &[1.0; 2]);
        let (g, h) = derivatives_at(&qp, &x);
        let (d, q) = direct_step(&qp, &x, &g, &h, 10.0).expect("held and free");
        assert_eq!(&d[..2], &[0.0, 0.5]);
        assert_eq!(q, -0.125);
    }

    #[test]
    fn the_direct_step_refuses_an_indefinite_free_block() {
        let mut qp = QuadraticBox::diagonal(&[1.0, 1.0], &[0.1, 0.1], &[-1.0; 2], &[1.0; 2]);
        qp.q[(1, 1)] = -2.0;
        let x = [0.0, 0.0];
        let (g, h) = derivatives_at(&qp, &x);
        assert_eq!(direct_step(&qp, &x, &g, &h, 10.0), None);
    }

    #[test]
    fn the_direct_step_refuses_a_step_that_leaves_the_box_or_the_region() {
        // The Newton step from 0 is x = 0.5: inside [−1, 1], outside [−1, 0.5)
        // and outside a region of radius 0.5.
        let qp = QuadraticBox::diagonal(&[2.0], &[1.0], &[-1.0], &[1.0]);
        let (g, h) = derivatives_at(&qp, &[0.0]);
        assert_eq!(
            direct_step(&qp, &[0.0], &g, &h, 1.0).map(|(d, _)| d[0]),
            Some(0.5)
        );
        assert_eq!(direct_step(&qp, &[0.0], &g, &h, 0.5), None);
        let tight = QuadraticBox::diagonal(&[2.0], &[1.0], &[-1.0], &[0.5]);
        assert_eq!(direct_step(&tight, &[0.0], &g, &h, 1.0), None);
    }

    #[test]
    fn the_direct_step_refuses_a_nan_gradient_or_hessian() {
        let qp = QuadraticBox::diagonal(&[1.0, 1.0], &[0.0, 0.0], &[-1.0; 2], &[1.0; 2]);
        let h = derivatives_at(&qp, &[0.0, 0.0]).1;
        // On a free variable, and on one at its bound.
        assert_eq!(
            direct_step(&qp, &[0.0, 0.0], &[f64::NAN, 0.1], &h, 10.0),
            None
        );
        assert_eq!(
            direct_step(&qp, &[-1.0, 0.0], &[f64::NAN, 0.1], &h, 10.0),
            None
        );
        let mut nan_h = h.clone();
        nan_h[(1, 0)] = f64::NAN;
        nan_h[(0, 1)] = f64::NAN;
        assert_eq!(
            direct_step(&qp, &[0.0, 0.0], &[0.1, 0.1], &nan_h, 10.0),
            None
        );
        assert!(direct_step(&qp, &[0.0, 0.0], &[0.1, 0.1], &h, 10.0).is_some());
    }

    #[test]
    fn an_interior_convex_solve_takes_the_direct_step_every_iteration() {
        let qp = QuadraticBox::diagonal(
            &[2.0, 4.0, 8.0],
            &[2.0, -4.0, 8.0],
            &[-100.0; 3],
            &[100.0; 3],
        );
        let res = TronSolver::default().solve_in_place(&qp, &mut [0.0; 3]);
        assert_eq!(res.status, TronStatus::Converged, "{res:?}");
        assert!(
            res.iterations > 0 && res.direct == res.iterations,
            "{res:?}"
        );
    }

    #[test]
    fn rejected_interior_step_shrinks_the_region_below_itself() {
        // Newton on sqrt(1 + x²) from x = 2 overshoots to x = -8: a step of
        // 10, far inside Δ = 1000, that raises f.
        let p = Scalar::new(
            |x| (1.0 + x * x).sqrt(),
            |x| (x / (1.0 + x * x).sqrt(), (1.0 + x * x).powf(-1.5)),
        );
        let solver = TronSolver::new(TronOptions {
            initial_delta: Some(1000.0),
            ..Default::default()
        });
        let mut x = [2.0];
        let res = solver.solve_in_place(&p, &mut x);
        assert_eq!(res.status, TronStatus::Converged, "{res:?}");
        assert!(res.rejected >= 1, "{res:?}");
        let evals = p.evals.borrow();
        let (first, second) = ((evals[1] - 2.0).abs(), (evals[2] - 2.0).abs());
        assert!((first - 10.0).abs() < 1e-9, "first trial {}", evals[1]);
        assert!(
            second <= 0.25 * first,
            "trials {} then {}",
            evals[1],
            evals[2]
        );
    }
}
