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
//! 3. otherwise, compute the Cauchy point along the projected-gradient path
//!    (from the model's own step length `gᵀg / gᵀHg`, capped at the
//!    boundary) and refine it by subspace steps on the free variables —
//!    LDLᵀ Newton steps, or Moré & Sorensen's trust-region steps of the
//!    faces of the box — each followed by a projected search;
//! 4. accept or reject the step based on the ratio of actual to predicted
//!    reduction (`pred` is the model value the search computed for the step
//!    taken), and update the trust-region radius — except when both
//!    reductions are below the resolution of the objective (`FTOL`), where
//!    the ratio is rounding noise and the step is accepted on the model's
//!    word.

use crate::cauchy::{cauchy_point, model_value};
use crate::problem::BoundProblem;
use gridsim_sparse::{dot, norm2, LaneMask, Lanes, Mask, Real, SmallMatrix, LANES, MAX_DIM};

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

/// Resolution of the objective, relative to `max(1, |f|)`: when the actual
/// and the predicted reduction of a step are both within it, their ratio
/// carries no information and the step is accepted. It must sit above the
/// rounding of the objectives solved here (the branch objective, `|f|` ~1e-4
/// from terms of 1–1e3, has sampled `|ared|` noise up to ≈ 1e-14 on `case9`
/// and ≈ 1e-12 on the Pegase stand-ins; at `1e-12` some solves cycle to
/// `max_iter`, and ADMM results are bit-identical from `1e-11` to `1e-4`).
/// It also bounds the harm: a step accepted under it raises `f` by at most
/// `FTOL * max(1, |f|)`.
const FTOL: f64 = 1e-10;

/// Shifts `λ` the trust-region step tries before it gives up with a zero
/// step. A finite block needs a handful; the cap ends the search on a block
/// no shift factors (a NaN or an infinite entry).
const MAX_SHIFTS: usize = 50;

/// Relative accuracy `σ` of the trust-region step: a step whose norm is
/// within `σΔ` of the radius lies on the boundary, and a hard-case step is
/// taken once its near-null component costs at most `σ` of the model's
/// curvature along the step (Moré & Sorensen's termination test).
const SHIFT_TOL: f64 = 1e-10;

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
    /// How many of those iterations took the direct step instead of the
    /// Cauchy point and the subspace steps.
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

/// The TRON solver: options only. A solve keeps its whole working set —
/// gradient, Hessian, free-block factor, every trial step — in fixed-size
/// arrays on the stack (problems have at most [`MAX_DIM`] variables), the
/// way an ExaTron thread block works out of registers and shared memory,
/// so the block solves of an ADMM iteration never touch the heap.
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
    /// The solve's last call of `problem.derivatives` is at the point it
    /// returns (every accepted step is evaluated there, a rejected one
    /// only through `objective`), so a problem may keep what that call
    /// computes on the way: the branch subproblem keeps its flows.
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
        let [mut h, mut work] = matrices(n);
        let mut f = problem.objective(x);
        problem.derivatives(x, g, &mut h);

        let mut delta = self.opts.initial_delta.unwrap_or_else(|| norm2(g).max(1.0));
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
            let (step, q_step) = match direct_step(problem, x, g, &h, delta, &mut work) {
                (step, q_step, true) => {
                    direct += 1;
                    (step, q_step)
                }
                _ => cauchy_then_subspace(problem, x, g, &h, delta, &mut work),
            };

            // --- acceptance test and radius update ---
            let trial = judge(problem, x, f, &step[..n], q_step, delta);
            if trial.rho > ETA {
                x.copy_from_slice(&trial.x[..n]);
                f = trial.f;
                problem.derivatives(x, g, &mut h);
                pg_norm = problem.projected_gradient_norm(x, g);
            } else {
                rejected += 1;
            }
            delta = trial.delta;
        }

        let status = if pg_norm <= self.opts.gtol {
            TronStatus::Converged
        } else {
            TronStatus::MaxIter
        };
        summary(f, pg_norm, self.opts.max_iter, rejected, direct, status)
    }

    /// Minimize [`LANES`] problems in lock-step, leaving each lane's final
    /// iterate in its lane of `x`: `problem` holds them one per lane, and
    /// `lane(k)` builds lane `k`'s problem on its own. Performs no heap
    /// allocation.
    ///
    /// Each lane runs [`Self::solve_in_place`]'s iteration on its own
    /// data, and its summary and iterate are bitwise what that solve of
    /// `lane(k)` returns: the evaluations, the direct step, the acceptance
    /// test and the radius update are the same generic code on
    /// [`Lanes`], and a lane whose direct step is refused takes that
    /// iteration's step from the scalar Cauchy and subspace path, on its own
    /// state and its own problem (the only place `lane` is called), before
    /// the lanes judge their steps together. A lane that converges or
    /// collapses stops counting and stays where it is; the solve ends once
    /// no lane is left. Every lane is a live problem: a group of fewer
    /// problems solves them with [`Self::solve_in_place`].
    ///
    /// Like [`Self::solve_in_place`], the solve's last call of
    /// `problem.derivatives` is at the point it returns, in every lane.
    ///
    /// Panics when `problem.dim()` exceeds [`MAX_DIM`] or differs from
    /// `x.len()`.
    pub fn solve_lanes<P, Q>(
        &self,
        problem: &P,
        lane: impl Fn(usize) -> Q,
        x: &mut [Lanes],
    ) -> [TronSummary; LANES]
    where
        P: BoundProblem<Lanes>,
        Q: BoundProblem,
    {
        let n = problem.dim();
        assert!(
            n <= MAX_DIM,
            "TRON solves problems of at most {MAX_DIM} variables, got dim() = {n}"
        );
        assert_eq!(x.len(), n);
        problem.project(x);

        let mut g = [Lanes::splat(0.0); MAX_DIM];
        let g = &mut g[..n];
        let [mut h, mut work] = matrices(n);
        let mut f = problem.objective(x);
        problem.derivatives(x, g, &mut h);

        let mut delta = match self.opts.initial_delta {
            Some(delta) => Lanes::splat(delta),
            None => norm2(g).max(Lanes::splat(1.0)),
        };
        let mut pg_norm = problem.projected_gradient_norm(x, g);
        let gtol = Lanes::splat(self.opts.gtol);
        let (mut rejected, mut direct) = ([0; LANES], [0; LANES]);
        // A lane's iteration count and status once it stops; its `x`, `f`
        // and `pg_norm` stay as they are from then on.
        let mut ended = [None; LANES];
        let mut done = LaneMask::splat(false);

        for iter in 0..self.opts.max_iter {
            let converged = pg_norm.less_eq(gtol);
            let collapsed = delta.less(Lanes::splat(1e-14));
            for k in (0..LANES).filter(|&k| !done.lane(k)) {
                if converged.lane(k) {
                    ended[k] = Some((iter, TronStatus::Converged));
                } else if collapsed.lane(k) {
                    ended[k] = Some((iter, TronStatus::SmallStep));
                }
            }
            done |= converged | collapsed;
            if done.all() {
                break;
            }

            // --- direct step, else this lane's Cauchy point and subspace
            // refinement ---
            let (mut step, mut q_step, taken) = direct_step(problem, x, g, &h, delta, &mut work);
            for k in (0..LANES).filter(|&k| !done.lane(k)) {
                if taken.lane(k) {
                    direct[k] += 1;
                    continue;
                }
                let (sk, qk) = refused_lane_step(&lane, k, x, g, &h, delta.0[k]);
                for i in 0..n {
                    step[i].0[k] = sk[i];
                }
                q_step.0[k] = qk;
            }

            // --- acceptance test and radius update ---
            let trial = judge(problem, x, f, &step[..n], q_step, delta);
            let accept = !done & trial.rho.greater(Lanes::splat(ETA));
            for k in (0..LANES).filter(|&k| !done.lane(k) && !accept.lane(k)) {
                rejected[k] += 1;
            }
            if accept.any() {
                // A lane that keeps its point gets back the derivatives it
                // has: the evaluation is a function of the point alone.
                for (xi, trial_xi) in x.iter_mut().zip(trial.x) {
                    *xi = Lanes::select(accept, trial_xi, *xi);
                }
                f = Lanes::select(accept, trial.f, f);
                problem.derivatives(x, g, &mut h);
                pg_norm = problem.projected_gradient_norm(x, g);
            }
            delta = trial.delta;
        }

        let mut summaries = [TronSummary {
            objective: 0.0,
            pg_norm: 0.0,
            iterations: 0,
            rejected: 0,
            direct: 0,
            status: TronStatus::MaxIter,
        }; LANES];
        for (k, summary) in summaries.iter_mut().enumerate() {
            let (iterations, status) = ended[k].unwrap_or_else(|| {
                let converged = pg_norm.0[k] <= self.opts.gtol;
                let status = if converged {
                    TronStatus::Converged
                } else {
                    TronStatus::MaxIter
                };
                (self.opts.max_iter, status)
            });
            *summary = TronSummary {
                objective: f.0[k],
                pg_norm: pg_norm.0[k],
                iterations,
                rejected: rejected[k],
                direct: direct[k],
                status,
            };
        }
        summaries
    }
}

/// A solve's Hessian and the scratch each of its factors works in
/// ([`SmallMatrix::ldlt_solve_masked_with`]), zeroed once per solve and out
/// of line, so that the solves themselves zero no matrix
/// (`scripts/hot_path_inlined.sh` fails when `solve_lanes` or the branch
/// kernel calls `memset`).
#[inline(never)]
fn matrices<T: Real>(n: usize) -> [SmallMatrix<T>; 2] {
    [SmallMatrix::zeros(n), SmallMatrix::zeros(n)]
}

/// The step of lane `k` of a lock-step solve whose direct step that lane
/// refused: [`cauchy_then_subspace`] on the lane's own problem `lane(k)`,
/// point, gradient and Hessian. Cold and out of line, like [`face_steps`]:
/// on the benchmark workloads 0.13 % (`sweep`), 0.025 % (`cold`) and
/// 0.004 % (`track`) of the lanes' iterations come here.
#[cold]
#[inline(never)]
fn refused_lane_step<P: BoundProblem>(
    lane: &impl Fn(usize) -> P,
    k: usize,
    x: &[Lanes],
    g: &[Lanes],
    h: &SmallMatrix<Lanes>,
    delta: f64,
) -> ([f64; MAX_DIM], f64) {
    let problem = lane(k);
    let n = problem.dim();
    let (mut xk, mut gk) = ([0.0; MAX_DIM], [0.0; MAX_DIM]);
    for i in 0..n {
        (xk[i], gk[i]) = (x[i].0[k], g[i].0[k]);
    }
    let [_, mut work] = matrices(n);
    cauchy_then_subspace(&problem, &xk[..n], &gk[..n], &h.lane(k), delta, &mut work)
}

/// An iteration's trial point `P[x + s]` and its objective, the reduction
/// ratio `ρ = ared / pred` that decides whether it is taken, and the radius
/// the iteration leaves.
struct Trial<T> {
    x: [T; MAX_DIM],
    f: T,
    rho: T,
    delta: T,
}

/// Judge the step `step` (model value `q_step`) from `x` (objective `f`)
/// in a region of radius `delta`. When both the actual and the predicted
/// reduction are below the resolution of the objective ([`FTOL`]), their
/// ratio is rounding noise and `ρ` is 1: the model's word is taken. The
/// radius shrinks after a poor step relative to the step itself (Lin &
/// Moré), so that a rejected interior step is not recomputed unchanged, and
/// doubles after a good step that reached the boundary.
#[inline(always)]
fn judge<T: Real, P: BoundProblem<T>>(
    problem: &P,
    x: &[T],
    f: T,
    step: &[T],
    q_step: T,
    delta: T,
) -> Trial<T> {
    let n = problem.dim();
    let (zero, one) = (T::splat(0.0), T::splat(1.0));
    let pred = -q_step;
    let mut x_trial = [zero; MAX_DIM];
    for i in 0..n {
        x_trial[i] = x[i] + step[i];
    }
    problem.project(&mut x_trial[..n]);
    let f_trial = problem.objective(&x_trial[..n]);
    let ared = f - f_trial;
    let step_norm = norm2(step);
    let noise = T::splat(FTOL) * f.abs().max(one);
    let ratio = T::select(pred.greater(zero), ared / pred, ared.signum());
    let rho = T::select(ared.abs().less_eq(noise) & pred.less_eq(noise), one, ratio);
    let quarter = T::splat(0.25);
    let grown = T::select(
        rho.greater(T::splat(0.75)) & step_norm.greater(T::splat(0.9) * delta),
        (T::splat(2.0) * delta).min(T::splat(1e6)),
        delta,
    );
    let delta = T::select(rho.less(quarter), quarter * step_norm.min(delta), grown);
    Trial {
        x: x_trial,
        f: f_trial,
        rho,
        delta,
    }
}

/// The direct step at `x`, its model value, and whether it is taken (per
/// lane); a refused step is garbage, and sends the iteration down
/// [`cauchy_then_subspace`].
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
fn direct_step<T: Real, P: BoundProblem<T>>(
    problem: &P,
    x: &[T],
    g: &[T],
    h: &SmallMatrix<T>,
    delta: T,
    work: &mut SmallMatrix<T>,
) -> ([T; MAX_DIM], T, T::Mask) {
    let n = problem.dim();
    let (zero, margin) = (T::splat(0.0), T::splat(1e-12));
    let (mut rhs, mut free) = ([zero; MAX_DIM], [T::Mask::splat(false); MAX_DIM]);
    let mut taken = T::Mask::splat(true);
    for i in 0..n {
        let (l, u) = (problem.lower(i), problem.upper(i));
        free[i] = x[i].greater(l + margin) & x[i].less(u - margin);
        taken &= free[i] | (x[i] - g[i]).clamp(l, u).equal(x[i]);
        rhs[i] = -g[i];
    }
    if !taken.any() {
        return (rhs, zero, taken);
    }
    let (d, solved) = newton_step(h, &rhs[..n], &free[..n], delta, work);
    taken &= solved;
    if !taken.any() {
        return (d, zero, taken);
    }
    let mut gd = zero;
    for i in 0..n {
        let xi = x[i] + d[i];
        taken &= !free[i] | (xi.greater(problem.lower(i)) & xi.less(problem.upper(i)));
        gd = T::select(free[i], gd + g[i] * d[i], gd);
    }
    (d, T::splat(0.5) * gd, taken)
}

/// TRON's globalised step for the iterations [`direct_step`] refuses, with
/// its model value: the Cauchy point `s_c`, then the free block's Newton
/// step from it when [`newton_step`] finds it strictly inside the radius
/// `√(Δ² − ‖s_c‖²)` left, and a projected search along it; [`face_steps`]
/// when that step is refused. (Lin & Moré go on after a search the box
/// stops; after the Newton step that would change the `sweep` benchmark's
/// ADMM results.) A Cauchy step that fills the region, or leaves no
/// variable free, stands.
#[inline]
fn cauchy_then_subspace<P: BoundProblem>(
    problem: &P,
    x: &[f64],
    g: &[f64],
    h: &SmallMatrix,
    delta: f64,
    work: &mut SmallMatrix,
) -> ([f64; MAX_DIM], f64) {
    let n = problem.dim();
    let mut scratch = [0.0; MAX_DIM];
    let cp = cauchy_point(problem, x, g, h, delta);
    let (mut step, mut q_step) = (cp.step, cp.model_value);

    // model gradient at the Cauchy point: g + H s
    h.mul_vec(&step[..n], &mut scratch[..n]);
    let (mut rhs, mut free) = ([0.0; MAX_DIM], [false; MAX_DIM]);
    let (rhs, free) = (&mut rhs[..n], &mut free[..n]);
    for i in 0..n {
        let xi = x[i] + step[i];
        free[i] = xi > problem.lower(i) + 1e-12 && xi < problem.upper(i) - 1e-12;
        rhs[i] = -(g[i] + scratch[i]);
    }
    let cauchy_norm2 = dot(&step[..n], &step[..n]);
    let remaining = (delta * delta - cauchy_norm2).max(0.0).sqrt();
    if remaining > 1e-14 && free.iter().any(|&fr| fr) {
        if let (w, true) = newton_step(h, rhs, free, remaining, work) {
            projected_search(problem, x, g, h, &w, &mut step, &mut q_step);
        } else {
            face_steps(problem, x, g, h, delta, &mut step, &mut q_step);
        }
    }
    (step, q_step)
}

/// Lin & Moré's minor iterations after a refused Newton step: the
/// trust-region step of [`Face::at`] the current step and a projected
/// search toward it, while each search stops another variable on its bound
/// (at most `dim` times). Cold and out of line: no benchmark workload
/// reaches it, and inlined it would only grow the branch solve's code.
#[cold]
#[inline(never)]
fn face_steps<P: BoundProblem>(
    problem: &P,
    x: &[f64],
    g: &[f64],
    h: &SmallMatrix,
    delta: f64,
    step: &mut [f64; MAX_DIM],
    q_step: &mut f64,
) {
    let n = problem.dim();
    for _ in 0..n {
        let face = Face::at(problem, x, g, h, &step[..n], delta);
        let free = &face.free[..n];
        if !(face.radius > 1e-14 && free.contains(&true)) {
            return;
        }
        let v = subspace_step(h, &face.rhs[..n], free, face.radius);
        let w = std::array::from_fn(|i| if face.free[i] { v[i] - step[i] } else { 0.0 });
        if !projected_search(problem, x, g, h, &w, step, q_step) {
            return;
        }
    }
}

/// The projected search along `w`: the first of `α = 1, ½, …` (20 of them)
/// whose step `P[x + step + αw] − x` has a model value no higher than
/// `q_step` replaces `step` and `q_step`. Returns whether the box stopped a
/// moving variable of the step taken (false when none is taken).
#[inline]
fn projected_search<P: BoundProblem>(
    problem: &P,
    x: &[f64],
    g: &[f64],
    h: &SmallMatrix,
    w: &[f64; MAX_DIM],
    step: &mut [f64; MAX_DIM],
    q_step: &mut f64,
) -> bool {
    let n = problem.dim();
    let mut scratch = [0.0; MAX_DIM];
    let mut alpha = 1.0f64;
    for _ in 0..20 {
        let (mut trial, mut stopped) = (*step, false);
        for i in 0..n {
            let ti = trial[i] + alpha * w[i];
            let xi = (x[i] + ti).clamp(problem.lower(i), problem.upper(i));
            stopped |= w[i] != 0.0 && xi != x[i] + ti;
            trial[i] = xi - x[i];
        }
        let q = model_value(g, h, &trial[..n], &mut scratch[..n]);
        if q <= *q_step + 1e-16 {
            (*step, *q_step) = (trial, q);
            return stopped;
        }
        alpha *= 0.5;
    }
    false
}

/// The trust-region subproblem on the face of the box `x + step` lies on:
/// variables strictly inside their bounds (by 1e-12) are free, the others
/// held at their step entries `s_H`. A step `s_H + v` has model value
/// `q(s_H) − rhsᵀv + ½ vᵀH_FF v` and norm `√(‖s_H‖² + ‖v‖²)`, so
/// [`subspace_step`]`(h, rhs, free, radius)` is the face's step `v`.
#[derive(Debug, Clone, Copy)]
pub struct Face {
    /// The free variables (the first `dim` entries).
    pub free: [bool; MAX_DIM],
    /// `−(g + H s_H)`.
    pub rhs: [f64; MAX_DIM],
    /// `√(Δ² − ‖s_H‖²)`.
    pub radius: f64,
}

impl Face {
    /// The face of `x + step` for gradient `g`, Hessian `h` and radius `delta`.
    pub fn at<P: BoundProblem>(
        problem: &P,
        x: &[f64],
        g: &[f64],
        h: &SmallMatrix,
        step: &[f64],
        delta: f64,
    ) -> Face {
        let n = problem.dim();
        let (mut free, mut held, mut rhs) = ([false; MAX_DIM], [0.0; MAX_DIM], [0.0; MAX_DIM]);
        for i in 0..n {
            let xi = x[i] + step[i];
            free[i] = xi > problem.lower(i) + 1e-12 && xi < problem.upper(i) - 1e-12;
            held[i] = if free[i] { 0.0 } else { step[i] };
        }
        h.mul_vec(&held[..n], &mut rhs[..n]);
        rhs.iter_mut().zip(g).for_each(|(r, gi)| *r = -(gi + *r));
        let held_norm2 = dot(&held[..n], &held[..n]);
        let radius = (delta * delta - held_norm2).max(0.0).sqrt();
        Face { free, rhs, radius }
    }
}

/// The trust-region step on the free variables `F` for the model gradient
/// `−rhs` in a region of finite radius `delta` (Moré & Sorensen 1983): `d`
/// minimises `−rhs_Fᵀd + ½ dᵀH_FF d` over `‖d‖ ≤ Δ`, so `(H_FF + λI) d_F =
/// rhs_F` for a `λ ≥ 0` with `H_FF + λI ⪰ 0` and `λ (‖d‖ − Δ) = 0`; zero on
/// held variables. `λ = 0` is `newton_step`'s step, bit for bit, when it
/// is taken; every other block goes to `shifted_step`.
#[inline]
pub fn subspace_step(h: &SmallMatrix, rhs: &[f64], free: &[bool], delta: f64) -> [f64; MAX_DIM] {
    match newton_step(h, rhs, free, delta, &mut SmallMatrix::zeros(free.len())) {
        (d, true) => d,
        _ => shifted_step(h, rhs, free, delta),
    }
}

/// Moré–Sorensen's iteration for the blocks [`newton_step`] refuses:
/// safeguarded Newton steps on `1/Δ − 1/‖d(λ)‖`, every solve an
/// [`SmallMatrix::ldlt_solve_masked_with`] of a copy of `h` with `λ` added
/// to the free diagonal (held variables stay identity rows), all factoring
/// in one scratch.
///
/// `λ` stays between bounds on the solution's shift: below, `0`, `−min H_ii`,
/// `‖rhs_F‖/Δ` less the top of `H_FF`'s Gershgorin discs, shifts refused or
/// with too long a step, and the Rayleigh bound `λ − zᵀ(H_FF + λI)z`;
/// above, `‖rhs_F‖/Δ` less the bottom of the discs (doubled when a refused
/// shift reaches it) and shifts with too short a step. A Newton step out of
/// bounds becomes `lo + 1e-3(hi − lo)`, or their geometric mean after a
/// refused shift.
///
/// The hard case (`rhs_F` ⟂ the eigenvectors of `H_FF`'s lowest eigenvalue
/// `λ₁`, shift `−λ₁`): three inverse-iteration solves give a near-null unit
/// direction `z`, and the step is `d + τz` on the boundary (`τ` the smaller
/// root) once `τ² zᵀ(H_FF + λI)z ≤ σ (rhs_Fᵀd + (λ + ‖H_FF‖)Δ²)`, `σ` =
/// [`SHIFT_TOL`]. The Gershgorin `‖H_FF‖` is the rounding floor of the
/// computed curvature, which a `−λ₁` far below `‖H_FF‖` would never pass.
///
/// A NaN or infinite block or `rhs_F` fails every exit: after [`MAX_SHIFTS`]
/// the step is zero, and the NaN model values make the projected search take
/// nothing. Cold and out of line, like [`face_steps`].
#[cold]
#[inline(never)]
fn shifted_step(h: &SmallMatrix, rhs: &[f64], free: &[bool], delta: f64) -> [f64; MAX_DIM] {
    let n = free.len();
    let mut b = [0.0; MAX_DIM];
    let (mut bottom, mut top, mut diagonal) = (f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY);
    for i in (0..n).filter(|&i| free[i]) {
        let radius: f64 = (0..n)
            .filter(|&j| free[j] && j != i)
            .map(|j| h[(i, j)].abs())
            .sum();
        bottom = bottom.min(h[(i, i)] - radius);
        top = top.max(h[(i, i)] + radius);
        diagonal = diagonal.min(h[(i, i)]);
        b[i] = rhs[i];
    }
    let b = &b[..n];
    let ratio = norm2(b) / delta;
    let mut lo = 0f64.max(-diagonal).max(ratio - top);
    let mut hi = 0f64.max(ratio - bottom);
    let mut lambda = lo;
    let mut work = SmallMatrix::zeros(n);
    for _ in 0..MAX_SHIFTS {
        let mut shifted = h.clone();
        for i in (0..n).filter(|&i| free[i]) {
            shifted[(i, i)] += lambda;
        }
        // A refusal depends on the matrix alone, so once `b` is solved every
        // other right-hand side is too.
        let mut solve = |v: &[f64]| {
            let (x, solved) = shifted.ldlt_solve_masked_with(free, v, &mut work);
            solved.then_some(x)
        };
        let Some(mut d) = solve(b) else {
            lo = lambda;
            if hi <= lo {
                hi = 2.0 * lo;
            }
            lambda = (lo * hi).sqrt().max(1e-3 * hi);
            continue;
        };
        let d_norm = norm2(&d[..n]);
        if (d_norm - delta).abs() <= SHIFT_TOL * delta {
            return d;
        }
        if d_norm > delta {
            lo = lambda;
        } else {
            hi = lambda;
            let mut z = [0.0; MAX_DIM];
            for i in (0..n).filter(|&i| free[i]) {
                z[i] = (i + 1) as f64;
            }
            for _ in 0..3 {
                let norm = norm2(&z[..n]);
                z = solve(&z.map(|v| v / norm)[..n]).unwrap_or([f64::NAN; MAX_DIM]);
            }
            let norm = norm2(&z[..n]);
            z = z.map(|v| v / norm);
            let mut hz = [0.0; MAX_DIM];
            shifted.mul_vec(&z[..n], &mut hz[..n]);
            let curvature: f64 = (0..n).filter(|&i| free[i]).map(|i| z[i] * hz[i]).sum();
            lo = lo.max(lambda - curvature);
            if dot(&d[..n], &z[..n]) < 0.0 {
                z = z.map(|v| -v);
            }
            let tau = boundary_step(&d[..n], &z[..n], delta);
            let scale = dot(b, &d[..n]) + (lambda + top.max(-bottom)) * delta * delta;
            if tau * tau * curvature <= SHIFT_TOL * scale {
                for (di, zi) in d.iter_mut().zip(z) {
                    *di += tau * zi;
                }
                return d;
            }
        }
        let q = solve(&d[..n]).unwrap_or([f64::NAN; MAX_DIM]);
        let newton = lambda + d_norm * d_norm / dot(&d[..n], &q[..n]) * (d_norm - delta) / delta;
        lambda = if lo < newton && newton < hi {
            newton
        } else {
            lo + 1e-3 * (hi - lo)
        };
    }
    [0.0; MAX_DIM]
}

/// The root `τ ≥ 0` of `‖d + τp‖ = Δ` for `‖d‖ ≤ Δ` and `dᵀp ≥ 0`, the
/// root of smaller magnitude, written so that it does not cancel.
#[inline]
fn boundary_step(d: &[f64], p: &[f64], delta: f64) -> f64 {
    let (dp, pp) = (dot(d, p), dot(p, p));
    let room = (delta * delta - dot(d, d)).max(0.0);
    room / (dp + (dp * dp + pp * room).sqrt())
}

/// `d = H_FF⁻¹ rhs_F` on the free variables `F`, zero elsewhere, and
/// whether it is taken: when the free block's LDLᵀ factor exists and
/// `‖d‖ < delta` (strictly, so that a step on the boundary is
/// [`shifted_step`]'s). The
/// factor is [`SmallMatrix::ldlt_solve_masked`], which keeps the held
/// variables in place as identity rows, so where `problem.dim()` is a
/// constant it runs at that fixed shape; always inlined, so that the
/// constant reaches it. Reads the lower triangle of the free block of `h`,
/// and factors in the solve's scratch `work`.
#[inline(always)]
fn newton_step<T: Real>(
    h: &SmallMatrix<T>,
    rhs: &[T],
    free: &[T::Mask],
    delta: T,
    work: &mut SmallMatrix<T>,
) -> ([T; MAX_DIM], T::Mask) {
    let (d, solved) = h.ldlt_solve_masked_with(free, rhs, work);
    // False for a NaN norm too.
    (d, solved & norm2(&d[..free.len()]).less(delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cauchy::tests::{dense_box_qp, derivatives_at};
    use crate::problem::QuadraticBox;
    use proptest::prelude::*;

    /// [`direct_step`] on one problem, `None` when it is refused.
    fn direct<P: BoundProblem>(
        problem: &P,
        x: &[f64],
        g: &[f64],
        h: &SmallMatrix,
        delta: f64,
    ) -> Option<([f64; MAX_DIM], f64)> {
        let (d, q, taken) = direct_step(problem, x, g, h, delta, &mut h.clone());
        taken.then_some((d, q))
    }

    /// [`newton_step`] on one block, `None` when it is refused.
    fn newton(h: &SmallMatrix, rhs: &[f64], free: &[bool], delta: f64) -> Option<[f64; MAX_DIM]> {
        let (d, taken) = newton_step(h, rhs, free, delta, &mut h.clone());
        taken.then_some(d)
    }

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
        assert!(100.0 * (x[0] - 1.0) > TronOptions::default().gtol);
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

    /// The free block of `h`, gathered and diagonalised by cyclic Jacobi
    /// rotations: a dense symmetric eigen-solve that shares no code with the
    /// LDLᵀ factor under test. `vectors[k]` is the unit eigenvector of
    /// `values[k]` scattered to all of `h`'s coordinates (zero on held
    /// ones); `values` ascend.
    struct FreeEigen {
        values: Vec<f64>,
        vectors: Vec<Vec<f64>>,
    }

    impl FreeEigen {
        fn of(h: &SmallMatrix, free: &[bool]) -> Self {
            let index: Vec<usize> = (0..free.len()).filter(|&i| free[i]).collect();
            let m = index.len();
            let mut a: Vec<Vec<f64>> = index
                .iter()
                .map(|&i| index.iter().map(|&j| h[(i, j)]).collect())
                .collect();
            let mut v: Vec<Vec<f64>> = (0..m)
                .map(|i| (0..m).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
                .collect();
            for _sweep in 0..100 {
                let off: f64 = (0..m)
                    .flat_map(|p| (0..m).filter(move |&q| q != p).map(move |q| (p, q)))
                    .map(|(p, q)| a[p][q] * a[p][q])
                    .sum();
                let diag: f64 = (0..m).map(|p| a[p][p] * a[p][p]).sum();
                if off <= 1e-32 * diag {
                    break;
                }
                for p in 0..m {
                    for q in p + 1..m {
                        if a[p][q] == 0.0 {
                            continue;
                        }
                        // The rotation that zeroes a[p][q] (the smaller angle).
                        let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                        let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                        let c = 1.0 / (t * t + 1.0).sqrt();
                        let s = t * c;
                        for row in a.iter_mut().chain(v.iter_mut()) {
                            let (kp, kq) = (row[p], row[q]);
                            row[p] = c * kp - s * kq;
                            row[q] = s * kp + c * kq;
                        }
                        let (rp, rq) = (a[p].clone(), a[q].clone());
                        for k in 0..m {
                            a[p][k] = c * rp[k] - s * rq[k];
                            a[q][k] = s * rp[k] + c * rq[k];
                        }
                    }
                }
            }
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by(|&i, &j| a[i][i].total_cmp(&a[j][j]));
            let values = order.iter().map(|&k| a[k][k]).collect();
            let vectors = order
                .iter()
                .map(|&k| {
                    let mut full = vec![0.0; free.len()];
                    for (r, &i) in index.iter().enumerate() {
                        full[i] = v[r][k];
                    }
                    full
                })
                .collect();
            FreeEigen { values, vectors }
        }

        /// `Σ vₖ (vₖᵀb) / (λₖ + shift)` over the eigenpairs from `first`
        /// on: `(H_FF + shift·I)⁻¹ b_F` for `first = 0`, and the
        /// pseudo-inverse step of the hard case for `first = 1`.
        fn solve(&self, b: &[f64], shift: f64, first: usize) -> Vec<f64> {
            let mut d = vec![0.0; b.len()];
            for (value, vector) in self.values.iter().zip(&self.vectors).skip(first) {
                let weight = dot(vector, b) / (value + shift);
                for (di, vi) in d.iter_mut().zip(vector) {
                    *di += weight * vi;
                }
            }
            d
        }
    }

    #[test]
    fn the_eigen_oracle_diagonalises_the_free_block() {
        let mut h = SmallMatrix::zeros(4);
        let data = [
            [4.0, 1.0, 0.0, -2.0],
            [1.0, -3.0, 0.5, 0.0],
            [0.0, 0.5, 2.0, 1.0],
            [-2.0, 0.0, 1.0, 0.0],
        ];
        for i in 0..4 {
            for j in 0..4 {
                h[(i, j)] = data[i][j];
            }
        }
        let free = [true, true, false, true];
        let eigen = FreeEigen::of(&h, &free);
        assert!(eigen.values.windows(2).all(|w| w[0] <= w[1]));
        for (value, v) in eigen.values.iter().zip(&eigen.vectors) {
            assert_eq!(v[2], 0.0);
            assert!((norm2(v) - 1.0).abs() < 1e-14);
            let mut hv = [0.0; 4];
            h.mul_vec(v, &mut hv);
            for i in [0, 1, 3] {
                assert!(
                    (hv[i] - value * v[i]).abs() < 1e-13,
                    "{hv:?} vs {value} {v:?}"
                );
            }
        }
    }

    /// Why `d` fails to solve `min −rhs_Fᵀd + ½ dᵀH_FF d, ‖d‖ ≤ Δ,
    /// d_held = 0` (finite data), if it does. When the block's Newton step
    /// lies strictly inside the region, `d` must be it, bit for bit.
    /// Otherwise `d` must lie on the boundary and meet Moré & Sorensen's
    /// optimality conditions for the shift `λ = (rhs_Fᵀd − dᵀH_FF d)/‖d‖²`
    /// it implies, judged against the eigen oracle.
    fn subproblem_violation(
        h: &SmallMatrix,
        rhs: &[f64],
        free: &[bool],
        delta: f64,
        d: [f64; MAX_DIM],
    ) -> Option<String> {
        let n = free.len();
        let d = &d[..n];
        if (0..n).any(|i| !free[i] && d[i] != 0.0) {
            return Some(format!("a held variable moves: {d:?}"));
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        if let Some(newton) = newton(h, rhs, free, delta) {
            return (bits(&newton[..n]) != bits(d))
                .then(|| format!("d = {d:?} is not the Newton step {newton:?}, strictly inside"));
        }
        let eigen = FreeEigen::of(h, free);
        let scale = eigen.values.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        let d_norm = norm2(d);
        if !(d_norm <= delta * (1.0 + 1e-9) && d_norm >= delta * (1.0 - 1e-9)) {
            return Some(format!("‖d‖ = {d_norm} off the boundary Δ = {delta}"));
        }
        let (mut rhs_d, mut curvature, mut rhs_norm) = (0.0, 0.0, 0.0f64);
        let mut hd = [0.0; MAX_DIM];
        for i in (0..n).filter(|&i| free[i]) {
            hd[i] = (0..n).filter(|&j| free[j]).map(|j| h[(i, j)] * d[j]).sum();
            rhs_d += rhs[i] * d[i];
            curvature += d[i] * hd[i];
            rhs_norm = rhs_norm.max(rhs[i].abs());
        }
        let lambda = (rhs_d - curvature) / (d_norm * d_norm);
        // The rounding of λ's own formula.
        let slack = 1e-9 * (scale + rhs_norm / d_norm);
        if lambda.is_nan() || lambda < -slack {
            return Some(format!("λ = {lambda}"));
        }
        if lambda < -eigen.values[0] - slack {
            return Some(format!("λ = {lambda} < −λ_min = {}", -eigen.values[0]));
        }
        let residual = (0..n)
            .filter(|&i| free[i])
            .map(|i| (hd[i] + lambda * d[i] - rhs[i]).abs())
            .fold(0.0f64, f64::max);
        if residual > 1e-6 * (rhs_norm + (scale + lambda) * d_norm) {
            return Some(format!(
                "‖(H_FF + λI)d − rhs_F‖∞ = {residual:e}, λ = {lambda}"
            ));
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// On the dense 6-variable box QPs of the Cauchy contract test, with
        /// random free masks and log-uniform radii, the subspace step solves
        /// the trust-region subproblem on the free block. A seventh of the
        /// cases are the hard case (`rhs_F` orthogonal to the lowest
        /// eigenvector, the radius past the pseudo-inverse step), a seventh
        /// the same with the block's spectrum spread wide (its lowest
        /// eigenvalue `−1e-10` of the largest, the others from `1e-1` to 1 of
        /// it, so the near-null direction's curvature is down at the
        /// factor's rounding), a seventh set the radius to the Newton step's
        /// norm (where the strict `‖d‖ < Δ` sends the step to the shifted
        /// iteration at `λ = 0`), and a seventh put a NaN or `±∞` into the
        /// free block or `rhs_F`, where the step is zero.
        #[test]
        fn the_subspace_step_solves_the_trust_region_subproblem(
            shape in 0..12usize,
            scale in prop::collection::vec(0.1f64..1.0, 6),
            s in prop::collection::vec(-1.0f64..1.0, 36),
            c in prop::collection::vec(-3.0f64..3.0, 6),
            unit_x in prop::collection::vec(-1.0f64..1.0, 6),
            mask in 1..64usize,
            kind in 0..7usize,
            log_delta in -3.0f64..3.0,
            poison in 0..3usize,
            spot in prop::collection::vec(0..6usize, 3),
        ) {
            let (qp, x) = dense_box_qp(shape, &scale, &s, c, &unit_x);
            let (g, mut h) = derivatives_at(&qp, &x);
            let mut rhs: Vec<f64> = g.iter().map(|v| -v).collect();
            let free: Vec<bool> = (0..6).map(|i| mask >> i & 1 == 1).collect();
            let mut delta = 10f64.powf(log_delta);
            if kind == 6 {
                // H_FF = Σ μₖ vₖvₖᵀ on the oracle's eigenvectors, μ₀ = −1e-7,
                // the others 1e2–1e3 (from `scale`); held entries unchanged.
                let eigen = FreeEigen::of(&h, &free);
                for i in (0..6).filter(|&i| free[i]) {
                    for j in (0..6).filter(|&j| free[j]) {
                        h[(i, j)] = eigen.vectors.iter().enumerate().map(|(k, v)| {
                            let mu = if k == 0 { -1e-7 } else { 1e3 * scale[k] };
                            mu * v[i] * v[j]
                        }).sum();
                    }
                }
            }
            match kind {
                3 | 6 => {
                    let eigen = FreeEigen::of(&h, &free);
                    let along = dot(&eigen.vectors[0], &rhs);
                    for (r, v) in rhs.iter_mut().zip(&eigen.vectors[0]) {
                        *r -= along * v;
                    }
                    let pseudo = eigen.solve(&rhs, -eigen.values[0], 1);
                    delta = (norm2(&pseudo) + 1e-3) * (1.0 + delta);
                }
                4 => {
                    if let Some(d) = newton(&h, &rhs, &free, f64::INFINITY) {
                        delta = norm2(&d[..6]);
                    }
                }
                5 => {
                    let index: Vec<usize> = (0..6).filter(|&i| free[i]).collect();
                    let (i, j) = (index[spot[0] % index.len()], index[spot[1] % index.len()]);
                    let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][poison];
                    if spot[2] == 0 {
                        rhs[i] = value;
                    } else {
                        h[(i, j)] = value;
                        h[(j, i)] = value;
                    }
                }
                _ => {}
            }
            let d = subspace_step(&h, &rhs, &free, delta);
            let finite = (0..6).filter(|&i| free[i]).all(|i| {
                rhs[i].is_finite() && (0..6).filter(|&j| free[j]).all(|j| h[(i, j)].is_finite())
            });
            if finite {
                let violation = subproblem_violation(&h, &rhs, &free, delta, d);
                prop_assert!(violation.is_none(), "{violation:?}: Δ = {delta}, {d:?}");
            } else {
                prop_assert_eq!(d, [0.0; MAX_DIM]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// On the dense 6-variable box QPs, with log-uniform radii, the
        /// globalised step lies in the box, reports its own model value and
        /// decreases the model at least as much as the Cauchy point. When
        /// the free block's Newton step from the Cauchy point is refused, so
        /// that the face steps take over, it also lies inside the region.
        #[test]
        fn the_globalised_step_keeps_its_contract(
            shape in 0..12usize,
            scale in prop::collection::vec(0.1f64..1.0, 6),
            s in prop::collection::vec(-1.0f64..1.0, 36),
            c in prop::collection::vec(-3.0f64..3.0, 6),
            unit_x in prop::collection::vec(-1.0f64..1.0, 6),
            log_delta in -3.0f64..3.0,
        ) {
            let (qp, x) = dense_box_qp(shape, &scale, &s, c, &unit_x);
            let (g, h) = derivatives_at(&qp, &x);
            let delta = 10f64.powf(log_delta);
            let (step, q) = cauchy_then_subspace(&qp, &x, &g, &h, delta, &mut SmallMatrix::zeros(6));
            let step = &step[..6];
            for i in 0..6 {
                let (xi, slack) = (x[i] + step[i], 1e-12 * qp.u[i]);
                prop_assert!(qp.l[i] - slack <= xi && xi <= qp.u[i] + slack, "x + s leaves the box at {i}");
            }
            let exact = model_value(&g, &h, step, &mut [0.0; 6]);
            prop_assert_eq!(q.to_bits(), exact.to_bits());
            let cp = cauchy_point(&qp, &x, &g, &h, delta);
            prop_assert!(q <= cp.model_value + 1e-16, "q = {q}, q(cauchy) = {}", cp.model_value);
            let (free, cauchy) = (&Face::at(&qp, &x, &g, &h, &cp.step, delta).free[..6], &cp.step[..6]);
            let mut rhs = [0.0; 6];
            h.mul_vec(cauchy, &mut rhs);
            for (r, gi) in rhs.iter_mut().zip(&g) {
                *r = -(gi + *r);
            }
            let remaining = (delta * delta - dot(cauchy, cauchy)).max(0.0).sqrt();
            if newton(&h, &rhs, free, remaining).is_none() {
                let norm = norm2(step);
                prop_assert!(norm <= delta * (1.0 + 1e-9), "‖s‖ = {norm} > Δ = {delta}");
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
            let eigen = FreeEigen::of(&h, &free);
            let positive_definite = eigen.values.first().is_none_or(|&low| low > 0.0);
            let minus_g: Vec<f64> = g.iter().map(|v| -v).collect();
            let newton = eigen.solve(&minus_g, 0.0, 0);
            match direct(&qp, &x, &g, &h, delta) {
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
                    // last two judged with the eigen oracle's Newton step).
                    let d = &newton[..];
                    let near = 1e-6 * (1.0 + norm2(d));
                    let reason = !held_ok
                        || !positive_definite
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
        assert_eq!(direct(&qp, &x, &g, &h, 10.0), None);
        // Pressed against the bound instead (g₀ = 1), it is held at zero.
        let qp = QuadraticBox::diagonal(&[1.0, 1.0], &[-2.0, 0.5], &[-1.0; 2], &[1.0; 2]);
        let (g, h) = derivatives_at(&qp, &x);
        let (d, q) = direct(&qp, &x, &g, &h, 10.0).expect("held and free");
        assert_eq!(&d[..2], &[0.0, 0.5]);
        assert_eq!(q, -0.125);
    }

    #[test]
    fn the_direct_step_refuses_an_indefinite_free_block() {
        let mut qp = QuadraticBox::diagonal(&[1.0, 1.0], &[0.1, 0.1], &[-1.0; 2], &[1.0; 2]);
        qp.q[(1, 1)] = -2.0;
        let x = [0.0, 0.0];
        let (g, h) = derivatives_at(&qp, &x);
        assert_eq!(direct(&qp, &x, &g, &h, 10.0), None);
    }

    #[test]
    fn the_direct_step_refuses_a_step_that_leaves_the_box_or_the_region() {
        // The Newton step from 0 is x = 0.5: inside [−1, 1], outside [−1, 0.5)
        // and outside a region of radius 0.5.
        let qp = QuadraticBox::diagonal(&[2.0], &[1.0], &[-1.0], &[1.0]);
        let (g, h) = derivatives_at(&qp, &[0.0]);
        assert_eq!(
            direct(&qp, &[0.0], &g, &h, 1.0).map(|(d, _)| d[0]),
            Some(0.5)
        );
        assert_eq!(direct(&qp, &[0.0], &g, &h, 0.5), None);
        let tight = QuadraticBox::diagonal(&[2.0], &[1.0], &[-1.0], &[0.5]);
        assert_eq!(direct(&tight, &[0.0], &g, &h, 1.0), None);
    }

    #[test]
    fn the_direct_step_refuses_a_nan_gradient_or_hessian() {
        let qp = QuadraticBox::diagonal(&[1.0, 1.0], &[0.0, 0.0], &[-1.0; 2], &[1.0; 2]);
        let h = derivatives_at(&qp, &[0.0, 0.0]).1;
        // On a free variable, and on one at its bound.
        assert_eq!(direct(&qp, &[0.0, 0.0], &[f64::NAN, 0.1], &h, 10.0), None);
        assert_eq!(direct(&qp, &[-1.0, 0.0], &[f64::NAN, 0.1], &h, 10.0), None);
        let mut nan_h = h.clone();
        nan_h[(1, 0)] = f64::NAN;
        nan_h[(0, 1)] = f64::NAN;
        assert_eq!(direct(&qp, &[0.0, 0.0], &[0.1, 0.1], &nan_h, 10.0), None);
        assert!(direct(&qp, &[0.0, 0.0], &[0.1, 0.1], &h, 10.0).is_some());
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
