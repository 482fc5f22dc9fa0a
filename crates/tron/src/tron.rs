//! The TRON trust-region Newton driver for bound-constrained problems.
//!
//! One iteration follows Lin & Moré (1999):
//!
//! 1. evaluate the gradient and Hessian, check the projected-gradient
//!    optimality measure;
//! 2. compute the Cauchy point along the projected-gradient path, searching
//!    down from the model's own step length `gᵀg / gᵀHg` capped at the
//!    trust-region boundary (on the branch blocks the first trial is
//!    accepted);
//! 3. refine within the subspace of free variables using Steihaug–Toint
//!    conjugate gradients (with negative-curvature handling), projecting the
//!    trial point back onto the bounds;
//! 4. accept or reject the step based on the ratio of actual to predicted
//!    reduction (`pred` is the model value the search computed for the step
//!    taken), and update the trust-region radius — except when both
//!    reductions are below the resolution of the objective (`FTOL`), where
//!    the ratio is rounding noise and the step is accepted on the model's
//!    word.

use crate::cauchy::{cauchy_point, model_value};
use crate::cg::steihaug_cg;
use crate::problem::{BoundProblem, MAX_DIM};
use gridsim_sparse::dense::SmallMatrix;

/// Options for the TRON solver.
#[derive(Debug, Clone)]
pub struct TronOptions {
    /// Maximum number of outer (trust-region) iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the projected gradient infinity norm.
    pub gtol: f64,
    /// Initial trust-region radius (`None` uses the initial gradient norm).
    pub initial_delta: Option<f64>,
    /// Maximum number of CG iterations per subspace solve.
    pub max_cg_iter: usize,
    /// Step acceptance threshold on the reduction ratio.
    pub eta: f64,
}

impl Default for TronOptions {
    fn default() -> Self {
        TronOptions {
            max_iter: 200,
            gtol: 1e-8,
            initial_delta: None,
            max_cg_iter: 50,
            eta: 1e-4,
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

/// The TRON solver: options only. A solve keeps its whole working set —
/// gradient, Hessian, Cauchy and CG vectors, every trial step — in
/// fixed-size arrays on the stack (problems have at most [`MAX_DIM`]
/// variables), the way an ExaTron thread block works out of registers and
/// shared memory, so the tens of thousands of block solves per ADMM
/// iteration never touch the heap.
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

        let (mut g, mut scratch) = ([0.0; MAX_DIM], [0.0; MAX_DIM]);
        let (g, scratch) = (&mut g[..n], &mut scratch[..n]);
        let mut h = SmallMatrix::zeros(n);
        let mut f = problem.objective(x);
        problem.derivatives(x, g, &mut h);

        let gnorm0 = g.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut delta = self.opts.initial_delta.unwrap_or_else(|| gnorm0.max(1.0));
        let mut pg_norm = problem.projected_gradient_norm(x, g);
        let mut rejected = 0;
        let summary =
            |f: f64, pg_norm: f64, iterations: usize, rejected: usize, status| TronSummary {
                objective: f,
                pg_norm,
                iterations,
                rejected,
                status,
            };

        for iter in 0..self.opts.max_iter {
            if pg_norm <= self.opts.gtol {
                return summary(f, pg_norm, iter, rejected, TronStatus::Converged);
            }
            if delta < 1e-14 {
                return summary(f, pg_norm, iter, rejected, TronStatus::SmallStep);
            }

            // --- Cauchy point ---
            let cp = cauchy_point(problem, x, g, &h, delta);
            let (mut step, mut q_step) = (cp.step, cp.model_value);

            // --- subspace refinement over free variables at x + step ---
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
                let cg = steihaug_cg(&h, rhs, free, remaining, 1e-8, self.opts.max_cg_iter);
                // Projected line search on the refinement direction: scale the
                // CG step back until x + step stays feasible and the model
                // does not increase relative to the Cauchy point.
                let mut alpha = 1.0f64;
                for _ in 0..20 {
                    let mut trial = step;
                    for (ti, si) in trial[..n].iter_mut().zip(&cg.step[..n]) {
                        *ti += alpha * si;
                    }
                    // Project the trial step onto the box.
                    for (i, ti) in trial[..n].iter_mut().enumerate() {
                        let xi = (x[i] + *ti).clamp(problem.lower(i), problem.upper(i));
                        *ti = xi - x[i];
                    }
                    let q = model_value(g, &h, &trial[..n], scratch);
                    if q <= cp.model_value + 1e-16 {
                        (step, q_step) = (trial, q);
                        break;
                    }
                    alpha *= 0.5;
                }
            }

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

            if rho > self.opts.eta {
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
        summary(f, pg_norm, self.opts.max_iter, rejected, status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::QuadraticBox;
    use gridsim_sparse::dense::SmallMatrix;

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
        let c = vec![1.0, 2.0, 3.0];
        let qp = QuadraticBox {
            q: q.clone(),
            c: c.clone(),
            l: vec![-10.0; 3],
            u: vec![10.0; 3],
        };
        let res = solve_quadratic(&qp, &[0.0; 3]);
        let mut chol = q.clone();
        assert!(chol.cholesky_in_place());
        let exact = chol.cholesky_solve(&c);
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
