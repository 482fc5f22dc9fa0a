//! The primal–dual interior-point iteration.
//!
//! Inequalities are slacked (`c_I(x) + s = 0`, `s ≥ 0`), bounds are handled
//! with logarithmic barriers, and each Newton step solves the condensed-space
//! KKT system of [`crate::kkt_condensed`] (slack and inequality-dual blocks
//! eliminated in closed form) by a numeric refactorization of its frozen
//! sparse LDLᵀ pattern. Inertia is corrected by increasing primal
//! regularization (and, on singular pivots, barrier-scaled dual
//! regularization), and steps respect the fraction-to-boundary rule.
//!
//! Globalization follows Wächter & Biegler's filter line search (the IPOPT
//! scheme): a trial step must either make an f-type Armijo decrease of the
//! barrier objective φ, or land outside the (θ, φ) filter of dominated
//! infeasibility/objective pairs. A rejected full step first gets
//! second-order correction steps (extra triangular solves on the same
//! factorization against the corrected constraint residual); if the line
//! search still finds no acceptable step length, a watchdog takes a bounded
//! run of full steps on trust. The watchdog is the last fallback: when its
//! trust runs out with no acceptable step, the solve ends at the current
//! iterate as [`IpmStatus::Stalled`]. The barrier parameter
//! decreases monotonically once the barrier subproblem is solved to a
//! multiple of μ (Fiacco–McCormick), as in Ipopt's monotone mode, and the
//! filter resets on every μ decrease.

use crate::kkt::KktDims;
use crate::kkt_condensed::{KktCache, KktStrategy};
use crate::nlp::Nlp;
use crate::report::{IpmStatus, IterationRecord, SolveReport};
use gridsim_batch::Device;
use std::time::Instant;

// Wächter–Biegler filter line-search constants (their Table 1 defaults).
const GAMMA_THETA: f64 = 1e-5;
const GAMMA_PHI: f64 = 1e-5;
const GAMMA_ALPHA: f64 = 0.05;
const S_THETA: f64 = 1.1;
const S_PHI: f64 = 2.3;
const DELTA_SWITCH: f64 = 1.0;
const ETA_PHI: f64 = 1e-4;
const KAPPA_SOC: f64 = 0.99;
/// Gradient-based objective scaling cap: `s_f = min(1, 100 / ‖∇f(x0)‖∞)`.
const GRAD_SCALE_MAX: f64 = 100.0;
const KAPPA_SIGMA: f64 = 1e10;
/// Hard cap on step halvings per line search (α_min can be 0 when θ = 0).
const MAX_HALVINGS: usize = 60;
/// Positivity floor for warm-started bound multipliers.
const Z_WARM_MIN: f64 = 1e-10;
/// Initial barrier parameter of a start without bound multipliers (Ipopt's
/// `mu_init`).
const MU_INIT: f64 = 0.1;
/// Fraction-to-boundary floor, `τ = max(TAU_MIN, 1 − μ)` (Ipopt's
/// `tau_min`).
const TAU_MIN: f64 = 0.99;
/// Relative push of the initial point, and floor of the initial slacks,
/// away from their bounds, for a cold start and for a start without bound
/// multipliers ([`IpmWarmStart::primal`], with or without `lambda`) —
/// Ipopt's `bound_push`. Such a start carries no active set: its bound
/// multipliers are initialized as `z = μ / slack`, which needs the margin.
const BOUND_PUSH: f64 = 1e-2;
/// Relative push off the bounds of a start seeded with bound multipliers —
/// a converged donor's point, whose active coordinates sit within solver
/// tolerance of their bounds. [`BOUND_PUSH`] would move them a
/// 1e-2 fraction away and reopen the barrier problem the donor closed; this
/// only makes them strictly interior. On the Pegase1354/200 stand-in
/// 1e-12 gives the same iterates; from 1e-8 up, coordinates bind and the
/// objective gap to a cold solve grows (6.6e-10 relative at 1e-7, 1.4e-11
/// here).
const WARM_BOUND_PUSH: f64 = 1e-9;
/// Each bound of a fixed variable moves outward by this times `max(1, |l|)`
/// (Ipopt's `bound_relax_factor`).
const FIXED_VARIABLE_RELAX: f64 = 1e-8;
/// Inertia-correction refactorizations per Newton step before the step is
/// taken with the inertia it has.
const MAX_REFACTORIZATIONS: usize = 40;
/// Second-order correction steps after a rejected full step (Ipopt's
/// `max_soc`).
const MAX_SOC: usize = 4;
/// Non-monotone full steps the watchdog takes on trust after the one that
/// starts its run, while the filter line search keeps failing; when they
/// are spent the solve ends as [`IpmStatus::Stalled`] (Ipopt's
/// `watchdog_trial_iter_max`).
const WATCHDOG_BUDGET: usize = 3;
/// Dual regularization of the constraint block of the KKT system before
/// any singular pivot raises it to `1e-8 μ^¼` (Ipopt's `δ_c` base).
const DELTA_C: f64 = 1e-8;

/// Options for the interior-point solver.
#[derive(Debug, Clone)]
pub struct IpmOptions {
    /// Convergence tolerance on the unscaled KKT error.
    pub tol: f64,
    /// Maximum number of iterations.
    pub max_iter: usize,
    /// The KKT path of each Newton step. [`KktStrategy::Condensed`] is the
    /// only one; the field remains only because the `perf` benchmark names
    /// it, and goes when that harness next changes.
    pub kkt_strategy: KktStrategy,
}

impl Default for IpmOptions {
    fn default() -> Self {
        IpmOptions {
            tol: 1e-6,
            max_iter: 300,
            kkt_strategy: KktStrategy::default(),
        }
    }
}

/// The start of a seeded solve ([`IpmSolver::solve_warm`]), and the payload
/// a [`gridsim_store::SolutionStore`] keeps per solved scenario. A part of
/// another length than the problem's is ignored; an `x` of the wrong length
/// voids the whole start, and the solve starts cold.
///
/// Carrying the bound multipliers is what makes a re-solve pay: they hold
/// the donor's active set and terminal barrier level. A start without them
/// is pushed `1e-2` back into the interior like a cold one and re-initializes
/// `z = μ / slack`, which forgets that active set. A start with them is a
/// converged donor's: its point is pushed only `1e-9` (relative) inside the
/// bounds, its multipliers are carried (clamped positive), and μ starts at
/// their average complementarity instead of the cold `0.1`. A
/// `Pegase1354/200` re-solve at 2 % load noise takes 2 Newton steps where a
/// cold solve takes 22.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IpmWarmStart {
    /// Primal variables, [`Nlp::num_vars`] of them.
    pub x: Vec<f64>,
    /// Stacked multipliers: `lambda_eq` followed by `lambda_ineq`.
    pub lambda: Vec<f64>,
    /// Lower-bound multipliers over `v = [x; s]` (`num_vars + num_ineq`).
    pub zl: Vec<f64>,
    /// Upper-bound multipliers over `v = [x; s]`, like `zl`.
    pub zu: Vec<f64>,
}

impl IpmWarmStart {
    /// A start at the primal point `x`, without multipliers.
    pub fn primal(x: Vec<f64>) -> IpmWarmStart {
        IpmWarmStart {
            x,
            lambda: Vec::new(),
            zl: Vec::new(),
            zu: Vec::new(),
        }
    }

    /// The start a report's solution gives a related solve — what
    /// [`IpmFleetSolver::run`](crate::IpmFleetSolver::run) chains through a
    /// lane and commits to a live store, exposed so a caller owning the
    /// write side (a snapshot-bound durable job layer) can commit identical
    /// payloads itself.
    pub fn from_report(report: &SolveReport) -> IpmWarmStart {
        IpmWarmStart {
            x: report.x.clone(),
            lambda: report
                .lambda_eq
                .iter()
                .chain(report.lambda_ineq.iter())
                .copied()
                .collect(),
            zl: report.zl.clone(),
            zu: report.zu.clone(),
        }
    }

    /// The bound multipliers, when both have the length `nv` of `v = [x; s]`.
    fn bound_multipliers(&self, nv: usize) -> Option<(&[f64], &[f64])> {
        (self.zl.len() == nv && self.zu.len() == nv).then_some((&self.zl, &self.zu))
    }
}

/// The (θ, φ) filter of the line search: the envelope of
/// infeasibility/barrier-objective pairs no trial point may dominate.
/// Entries are stored with the Wächter–Biegler margins already applied, so
/// acceptability is a plain componentwise comparison.
#[derive(Debug, Clone)]
struct Filter {
    /// `(θ̄, φ̄)` pairs; a trial is rejected when `θ ≥ θ̄ && φ ≥ φ̄` for any
    /// entry.
    entries: Vec<(f64, f64)>,
    /// Absolute infeasibility cap, kept as the permanent `(θ_max, −∞)` entry.
    theta_max: f64,
}

impl Filter {
    fn new(theta_max: f64) -> Filter {
        Filter {
            entries: vec![(theta_max, f64::NEG_INFINITY)],
            theta_max,
        }
    }

    /// True when `(θ, φ)` is acceptable to every filter entry.
    fn acceptable(&self, theta: f64, phi: f64) -> bool {
        self.entries.iter().all(|&(t, p)| theta < t || phi < p)
    }

    /// Augment with the current iterate (margins applied here), pruning
    /// entries the new one dominates.
    fn add(&mut self, theta: f64, phi: f64) {
        let t = (1.0 - GAMMA_THETA) * theta;
        let p = phi - GAMMA_PHI * theta;
        self.entries.retain(|&(te, pe)| te < t || pe < p);
        self.entries.push((t, p));
    }

    /// Drop all history (on barrier-parameter decreases: φ changes meaning).
    fn reset(&mut self) {
        self.entries.clear();
        self.entries.push((self.theta_max, f64::NEG_INFINITY));
    }
}

/// A trial point's line-search measures.
struct TrialPoint {
    /// ℓ1 constraint violation `‖c_E‖₁ + ‖c_I + s‖₁`.
    theta: f64,
    /// Barrier objective `s_f·f − μ Σ ln(slack)`.
    phi: f64,
    /// Stacked constraint values `[c_E; c_I + s]` (reused by the SOC
    /// residual recursion).
    c: Vec<f64>,
}

/// Evaluate a trial point for the filter line search. Returns `None` when
/// the trial violates a bound (non-positive slack) or produces a non-finite
/// measure — such trials are rejected outright rather than clamped into the
/// barrier (the pre-filter solver clamped slacks at `1e-300`, which let
/// boundary-violating steps masquerade as enormous merit improvements).
#[allow(clippy::too_many_arguments)]
fn eval_trial<N: Nlp>(
    nlp: &N,
    v_t: &[f64],
    lower: &[f64],
    upper: &[f64],
    nx: usize,
    m_eq: usize,
    m_ineq: usize,
    mu: f64,
    s_f: f64,
) -> Option<TrialPoint> {
    let nv = v_t.len();
    let mut barrier = 0.0;
    for i in 0..nv {
        if lower[i].is_finite() {
            let d = v_t[i] - lower[i];
            if d <= 0.0 {
                return None;
            }
            barrier -= mu * d.ln();
        }
        if upper[i].is_finite() {
            let d = upper[i] - v_t[i];
            if d <= 0.0 {
                return None;
            }
            barrier -= mu * d.ln();
        }
    }
    let x_t = &v_t[..nx];
    let phi = s_f * nlp.objective(x_t) + barrier;
    if !phi.is_finite() {
        return None;
    }
    let mut ce_t = vec![0.0; m_eq];
    let mut ci_t = vec![0.0; m_ineq];
    nlp.eq_constraints(x_t, &mut ce_t);
    nlp.ineq_constraints(x_t, &mut ci_t);
    let mut c = Vec::with_capacity(m_eq + m_ineq);
    let mut theta = 0.0;
    for &cj in &ce_t {
        c.push(cj);
        theta += cj.abs();
    }
    for k in 0..m_ineq {
        let r = ci_t[k] + v_t[nx + k];
        c.push(r);
        theta += r.abs();
    }
    if !theta.is_finite() {
        return None;
    }
    Some(TrialPoint { theta, phi, c })
}

/// Largest primal step keeping `v + α dv` a fraction τ inside its bounds.
fn max_primal_step(v: &[f64], dv: &[f64], lower: &[f64], upper: &[f64], tau: f64) -> f64 {
    let mut alpha: f64 = 1.0;
    for i in 0..v.len() {
        if dv[i] < 0.0 && lower[i].is_finite() {
            alpha = alpha.min(tau * (v[i] - lower[i]) / (-dv[i]));
        }
        if dv[i] > 0.0 && upper[i].is_finite() {
            alpha = alpha.min(tau * (upper[i] - v[i]) / dv[i]);
        }
    }
    alpha
}

/// Largest dual step keeping the bound multipliers a fraction τ positive.
fn max_dual_step(zl: &[f64], zu: &[f64], dzl: &[f64], dzu: &[f64], tau: f64) -> f64 {
    let mut alpha: f64 = 1.0;
    for i in 0..zl.len() {
        if dzl[i] < 0.0 && zl[i] > 0.0 {
            alpha = alpha.min(tau * zl[i] / (-dzl[i]));
        }
        if dzu[i] < 0.0 && zu[i] > 0.0 {
            alpha = alpha.min(tau * zu[i] / (-dzu[i]));
        }
    }
    alpha
}

/// Bound-multiplier Newton steps recovered from a primal direction.
fn bound_dual_steps(
    v: &[f64],
    dv: &[f64],
    zl: &[f64],
    zu: &[f64],
    lower: &[f64],
    upper: &[f64],
    mu: f64,
) -> (Vec<f64>, Vec<f64>) {
    let nv = v.len();
    let mut dzl = vec![0.0; nv];
    let mut dzu = vec![0.0; nv];
    for i in 0..nv {
        if lower[i].is_finite() {
            let d = v[i] - lower[i];
            dzl[i] = -((d * zl[i] - mu) / d) - zl[i] / d * dv[i];
        }
        if upper[i].is_finite() {
            let d = upper[i] - v[i];
            dzu[i] = -((d * zu[i] - mu) / d) + zu[i] / d * dv[i];
        }
    }
    (dzl, dzu)
}

/// The step the line search (or the watchdog) decided to take.
struct AcceptedStep {
    v_new: Vec<f64>,
    /// Direction actually taken — the Newton step or an SOC correction.
    dv: Vec<f64>,
    dlambda: Vec<f64>,
    alpha: f64,
    /// h-type steps augment the filter with the departed iterate.
    augment: bool,
}

/// The interior-point solver.
#[derive(Debug, Clone, Default)]
pub struct IpmSolver {
    /// Options used by [`IpmSolver::solve`].
    pub options: IpmOptions,
    /// Batch device whose statistics stream the solver bills its numeric
    /// refactorizations to (one `ldl_refactor_level` launch each). The
    /// refactorization itself runs on the host: the device's backend
    /// changes neither a result nor its cost.
    pub device: Device,
}

impl IpmSolver {
    /// Create a solver with the given options.
    pub fn new(options: IpmOptions) -> Self {
        IpmSolver {
            options,
            device: Device::default(),
        }
    }

    /// Replace the device the refactorizations bill to — a fleet lane
    /// passes its shard's device so the work shows up on that device's
    /// stream.
    pub fn with_device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Solve the NLP cold, from [`Nlp::initial_point`], with a fresh KKT
    /// cache.
    pub fn solve<N: Nlp>(&self, nlp: &N) -> SolveReport {
        let mut cache = KktCache::new();
        self.solve_with_cache(nlp, &mut cache)
    }

    /// Solve the NLP cold, reusing (and updating) a caller-owned
    /// [`KktCache`].
    ///
    /// Consecutive solves of structurally identical NLPs — the
    /// rolling-horizon tracking workload, where each period re-solves the
    /// same network at drifted loads — share one symbolic analysis across
    /// the whole trajectory.
    pub fn solve_with_cache<N: Nlp>(&self, nlp: &N, cache: &mut KktCache) -> SolveReport {
        self.attempt(nlp, cache, BOUND_PUSH, None)
    }

    /// Solve the NLP from `start` (read by [`IpmWarmStart`]'s length
    /// rules), reusing (and updating) a caller-owned [`KktCache`].
    ///
    /// A start with bound multipliers is a converged donor's and keeps its
    /// point. Far from the donor that can fail where the full push succeeds
    /// (after a 10 % uniform load step on `case9`, a watchdog step three
    /// iterations in rounds onto a bound 1e-9 away), so a donor-seeded solve
    /// that does not end optimal is re-run from the same start with the cold
    /// `1e-2` push; the report bills both attempts.
    ///
    /// ```
    /// use gridsim_ipm::{AcopfNlp, IpmSolver, IpmWarmStart, KktCache};
    ///
    /// let (solver, mut cache) = (IpmSolver::default(), KktCache::new());
    /// let base = gridsim_grid::case9().compile().unwrap();
    /// let cold = solver.solve_with_cache(&AcopfNlp::new(&base), &mut cache);
    /// let start = IpmWarmStart::from_report(&cold);
    /// let bumped = gridsim_grid::case9().scale_load(1.01).compile().unwrap();
    /// let warm = solver.solve_warm(&AcopfNlp::new(&bumped), &mut cache, &start);
    /// assert!(warm.is_optimal() && warm.iterations < cold.iterations);
    /// ```
    pub fn solve_warm<N: Nlp>(
        &self,
        nlp: &N,
        cache: &mut KktCache,
        start: &IpmWarmStart,
    ) -> SolveReport {
        if start.x.len() != nlp.num_vars() {
            return self.solve_with_cache(nlp, cache);
        }
        let nv = nlp.num_vars() + nlp.num_ineq();
        if start.bound_multipliers(nv).is_none() {
            return self.attempt(nlp, cache, BOUND_PUSH, Some(start));
        }
        let warm = self.attempt(nlp, cache, WARM_BOUND_PUSH, Some(start));
        if warm.is_optimal() {
            return warm;
        }
        let mut report = self.attempt(nlp, cache, BOUND_PUSH, Some(start));
        report.iterations += warm.iterations;
        report.factorizations += warm.factorizations;
        report.symbolic_analyses += warm.symbolic_analyses;
        report.filter_rejections += warm.filter_rejections;
        report.soc_steps += warm.soc_steps;
        report.watchdog_steps += warm.watchdog_steps;
        report.solve_time += warm.solve_time;
        let offset = warm.log.len();
        for record in &mut report.log {
            record.iter += offset;
        }
        report.log.splice(0..0, warm.log);
        report
    }

    /// One solve from `start` (cold without one), pushed `push` (relative)
    /// inside the bounds. The caller has checked the length of `start.x`.
    fn attempt<N: Nlp>(
        &self,
        nlp: &N,
        cache: &mut KktCache,
        push: f64,
        start: Option<&IpmWarmStart>,
    ) -> SolveReport {
        let start_time = Instant::now();
        let opts = &self.options;
        let symbolic_before = cache.symbolic_analyses();

        let nx = nlp.num_vars();
        let m_eq = nlp.num_eq();
        let m_ineq = nlp.num_ineq();
        let dims = KktDims {
            nx,
            ns: m_ineq,
            m_eq,
            m_ineq,
        };
        let nv = dims.nv();
        let mc = dims.mc();

        // Bounds of the slacked variable vector v = [x; s].
        let (lx, ux) = nlp.bounds();
        let mut lower = lx.clone();
        let mut upper = ux.clone();
        lower.extend(std::iter::repeat_n(0.0, m_ineq));
        upper.extend(std::iter::repeat_n(f64::INFINITY, m_ineq));
        // A fixed variable (`l == u`, e.g. the `[0, 0]` dispatch box of an
        // outaged generator) leaves the barrier no interior to start from.
        // Relax it the way Ipopt's default `fixed_variable_treatment =
        // relax_bounds` does; variables with a proper interval are untouched.
        for (l, u) in lower.iter_mut().zip(&mut upper) {
            if *u - *l <= 0.0 {
                let relax = FIXED_VARIABLE_RELAX * l.abs().max(1.0);
                *l -= relax;
                *u += relax;
            }
        }

        // --- initial point ---
        let x_start = start.map_or_else(|| nlp.initial_point(), |s| s.x.clone());
        assert_eq!(x_start.len(), nx, "Nlp::initial_point has wrong dimension");
        let mut v = vec![0.0; nv];
        v[..nx].copy_from_slice(&x_start);
        // Slacks from the inequality values.
        let mut ci = vec![0.0; m_ineq];
        nlp.ineq_constraints(&x_start, &mut ci);
        for k in 0..m_ineq {
            v[nx + k] = (-ci[k]).max(push);
        }
        push_into_interior(&mut v, &lower, &upper, push);

        // --- gradient-based objective scaling (Ipopt §3.8) ---
        // Internally the solver minimizes s_f·f; multipliers scale with s_f
        // and are unscaled again in the report.
        let mut grad_f = vec![0.0; nx];
        nlp.objective_grad(&v[..nx], &mut grad_f);
        let g0 = inf_norm(&grad_f);
        let s_f = if g0 > GRAD_SCALE_MAX {
            GRAD_SCALE_MAX / g0
        } else {
            1.0
        };

        let mut lambda = vec![0.0; mc];
        if let Some(l0) = start.map(|s| &s.lambda).filter(|l0| l0.len() == mc) {
            for (l, &l0) in lambda.iter_mut().zip(l0) {
                *l = s_f * l0;
            }
        }
        let mut mu = MU_INIT;
        let mut zl = vec![0.0; nv];
        let mut zu = vec![0.0; nv];
        if let Some((wl, wu)) = start.and_then(|s| s.bound_multipliers(nv)) {
            // Carry the donor's bound multipliers (internally scaled like λ,
            // clamped positive) and resume the barrier trajectory at their
            // average complementarity: a near-optimal start keeps its
            // active-set information and skips the cold μ descent.
            let mut comp_sum = 0.0;
            let mut comp_n = 0usize;
            for i in 0..nv {
                if lower[i].is_finite() {
                    zl[i] = (s_f * wl[i]).max(Z_WARM_MIN);
                    comp_sum += (v[i] - lower[i]) * zl[i];
                    comp_n += 1;
                }
                if upper[i].is_finite() {
                    zu[i] = (s_f * wu[i]).max(Z_WARM_MIN);
                    comp_sum += (upper[i] - v[i]) * zu[i];
                    comp_n += 1;
                }
            }
            if comp_n > 0 {
                mu = (comp_sum / comp_n as f64).clamp(opts.tol / 10.0, MU_INIT);
            }
        } else {
            for i in 0..nv {
                if lower[i].is_finite() {
                    zl[i] = mu / (v[i] - lower[i]);
                }
                if upper[i].is_finite() {
                    zu[i] = mu / (upper[i] - v[i]);
                }
            }
        }

        // --- filter bounds from the initial violation ---
        let mut ce = vec![0.0; m_eq];
        nlp.eq_constraints(&v[..nx], &mut ce);
        nlp.ineq_constraints(&v[..nx], &mut ci);
        let theta0 = ce.iter().map(|c| c.abs()).sum::<f64>()
            + (0..m_ineq).map(|k| (ci[k] + v[nx + k]).abs()).sum::<f64>();
        let theta_min = 1e-4 * theta0.max(1.0);
        let theta_max = 1e4 * theta0.max(1.0);
        let mut filter = Filter::new(theta_max);

        // The model declares its derivative coordinates once; every
        // evaluation below writes values into these triplets, and the cache
        // adopts the frozen pattern that records their slots here, once per
        // solve. A cache refuses a coordinate outside its block and a
        // Hessian declared as one triangle (it would lose whichever entries
        // the ordering moves across the diagonal), so such a solve ends here,
        // before iteration 0.
        let mut hess = nlp.hessian_structure();
        let mut jac_eq = nlp.eq_jacobian_structure();
        let mut jac_ineq = nlp.ineq_jacobian_structure();
        let hessian_ok = cache.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq);

        // Workspace.
        let mut log = Vec::new();
        let mut factorizations = 0usize;
        let mut delta_w_last = 0.0f64;
        // A solve that runs out of steps evaluates its final iterate once
        // more, so that its report and last log record describe `x` as every
        // other ending's do.
        let (mut status, evaluations) = if hessian_ok {
            (IpmStatus::MaxIterations, opts.max_iter + 1)
        } else {
            (IpmStatus::NumericalError, 0)
        };
        let mut iterations = 0usize;
        let mut kkt_error = f64::INFINITY;
        let mut primal_inf = f64::INFINITY;
        // Trusted steps left in the watchdog's current run, if one is on.
        let mut watchdog: Option<usize> = None;
        let mut filter_rejections = 0usize;
        let mut soc_steps = 0usize;
        let mut watchdog_steps = 0usize;

        // `iterations` counts the steps taken, bumped wherever an iteration
        // moves the iterate.
        'outer: for iter in 0..evaluations {
            let x = &v[..nx];

            // --- evaluations ---
            let f = nlp.objective(x);
            nlp.objective_grad(x, &mut grad_f);
            for g in grad_f.iter_mut() {
                *g *= s_f;
            }
            nlp.eq_constraints(x, &mut ce);
            nlp.ineq_constraints(x, &mut ci);
            nlp.eq_jacobian_values(x, &mut jac_eq.vals);
            nlp.ineq_jacobian_values(x, &mut jac_ineq.vals);

            // --- residuals ---
            // Dual residual over v = [x; s].
            let mut r_d = vec![0.0; nv];
            r_d[..nx].copy_from_slice(&grad_f);
            // + J_E^T lam_eq + J_I^T lam_ineq on the x block.
            for k in 0..jac_eq.nnz() {
                r_d[jac_eq.cols[k]] += jac_eq.vals[k] * lambda[jac_eq.rows[k]];
            }
            for k in 0..jac_ineq.nnz() {
                r_d[jac_ineq.cols[k]] += jac_ineq.vals[k] * lambda[m_eq + jac_ineq.rows[k]];
            }
            // Slack block: lam_ineq - zl_s (+ zu_s = 0).
            for k in 0..m_ineq {
                r_d[nx + k] += lambda[m_eq + k];
            }
            for i in 0..nv {
                r_d[i] += zu[i] - zl[i];
            }
            // Constraint residual.
            let mut r_c = vec![0.0; mc];
            r_c[..m_eq].copy_from_slice(&ce);
            for k in 0..m_ineq {
                r_c[m_eq + k] = ci[k] + v[nx + k];
            }
            // Complementarity.
            let comp_error_mu = |mu: f64| -> f64 {
                let mut e: f64 = 0.0;
                for i in 0..nv {
                    if lower[i].is_finite() {
                        e = max_nan(e, ((v[i] - lower[i]) * zl[i] - mu).abs());
                    }
                    if upper[i].is_finite() {
                        e = max_nan(e, ((upper[i] - v[i]) * zu[i] - mu).abs());
                    }
                }
                e
            };

            let dual_inf = inf_norm(&r_d);
            primal_inf = inf_norm(&r_c);
            kkt_error = max_nan(max_nan(dual_inf, primal_inf), comp_error_mu(0.0));

            log.push(IterationRecord {
                iter,
                objective: f,
                primal_infeasibility: primal_inf,
                dual_infeasibility: dual_inf,
                mu,
                alpha_primal: 0.0,
                delta_w: delta_w_last,
            });
            if iter == opts.max_iter {
                // The final iterate's evaluation: no step left to take.
                break 'outer;
            }

            // A NaN or infinite residual (a NaN load, a callback that
            // overflowed) has no Newton step worth taking.
            if !kkt_error.is_finite() {
                status = IpmStatus::NumericalError;
                break 'outer;
            }
            if kkt_error <= opts.tol {
                status = IpmStatus::Optimal;
                break 'outer;
            }

            // --- barrier update (monotone) ---
            let kappa_eps = 10.0;
            let mu_before = mu;
            while dual_inf.max(primal_inf).max(comp_error_mu(mu)) <= kappa_eps * mu
                && mu > opts.tol / 10.0
            {
                mu = (opts.tol / 10.0).max((0.2 * mu).min(mu.powf(1.5)));
            }
            if mu < mu_before {
                // φ changes meaning with μ: stale pairs must not block the
                // new barrier subproblem.
                filter.reset();
            }

            // --- line-search measures at the current iterate ---
            let theta_k: f64 = r_c.iter().map(|c| c.abs()).sum();
            let mut phi_k = s_f * f;
            for i in 0..nv {
                if lower[i].is_finite() {
                    phi_k -= mu * (v[i] - lower[i]).ln();
                }
                if upper[i].is_finite() {
                    phi_k -= mu * (upper[i] - v[i]).ln();
                }
            }

            // --- Newton system ---
            nlp.hessian_values(x, s_f, &lambda[..m_eq], &lambda[m_eq..], &mut hess.vals);
            let mut sigma = vec![0.0; nv];
            for i in 0..nv {
                if lower[i].is_finite() {
                    sigma[i] += zl[i] / (v[i] - lower[i]);
                }
                if upper[i].is_finite() {
                    sigma[i] += zu[i] / (upper[i] - v[i]);
                }
            }
            // rhs = [-r_d - (V-L)^{-1} comp_l + (U-V)^{-1} comp_u; -r_c]
            let mut rhs = vec![0.0; dims.dim()];
            for i in 0..nv {
                let mut r = -r_d[i];
                if lower[i].is_finite() {
                    let d = v[i] - lower[i];
                    r -= (d * zl[i] - mu) / d;
                }
                if upper[i].is_finite() {
                    let d = upper[i] - v[i];
                    r += (d * zu[i] - mu) / d;
                }
                rhs[i] = r;
            }
            for j in 0..mc {
                rhs[nv + j] = -r_c[j];
            }

            // Factorize with inertia correction: wrong inertia escalates the
            // primal regularization δ_w; singular pivots additionally raise
            // the dual regularization with the barrier (δ_c ~ μ^¼, Ipopt's
            // κ_c rule) so near-rank-deficient constraint blocks stop
            // amplifying the multiplier step.
            let mut delta_w = 0.0f64;
            let mut delta_c = DELTA_C;
            let mut attempt = 0usize;
            let factorized = loop {
                factorizations += 1;
                match cache.factorize_condensed(
                    self.device.stats(),
                    &hess.vals,
                    &sigma,
                    &jac_eq.vals,
                    &jac_ineq.vals,
                    delta_w,
                    delta_c,
                    1e-13,
                    1e-9,
                ) {
                    Ok(cond) => {
                        let inertia_ok = cond.inertia == (nx, m_eq, 0) && cond.num_regularized == 0;
                        if inertia_ok || attempt >= MAX_REFACTORIZATIONS {
                            break Some(cond);
                        }
                        if cond.inertia.2 > 0 || cond.num_regularized > 0 {
                            delta_c = delta_c.max(1e-8 * mu.powf(0.25));
                        }
                    }
                    Err(_) => {
                        if attempt >= MAX_REFACTORIZATIONS {
                            break None;
                        }
                        delta_c = delta_c.max(1e-8 * mu.powf(0.25));
                    }
                }
                attempt += 1;
                delta_w = if delta_w == 0.0 {
                    if delta_w_last == 0.0 {
                        1e-4
                    } else {
                        (delta_w_last / 3.0).max(1e-10)
                    }
                } else {
                    delta_w * 10.0
                };
                if delta_w > 1e12 {
                    break None;
                }
            };
            let factorized = match factorized {
                Some(fac) => fac,
                None => {
                    status = IpmStatus::NumericalError;
                    break 'outer;
                }
            };
            delta_w_last = delta_w;
            let step = factorized.solve(&jac_ineq, &rhs);

            let dv = &step[..nv];
            let dlambda = &step[nv..];

            // --- fraction to boundary ---
            let tau = TAU_MIN.max(1.0 - mu);
            let alpha_pri_max = max_primal_step(&v, dv, &lower, &upper, tau);

            // Directional derivative of φ along dv.
            let mut m_slope = 0.0;
            for i in 0..nx {
                m_slope += grad_f[i] * dv[i];
            }
            for i in 0..nv {
                if lower[i].is_finite() {
                    m_slope -= mu * dv[i] / (v[i] - lower[i]);
                }
                if upper[i].is_finite() {
                    m_slope += mu * dv[i] / (upper[i] - v[i]);
                }
            }

            // Minimum step length the filter search will try before handing
            // over to the watchdog (Wächter–Biegler eq. 23).
            let alpha_min = GAMMA_ALPHA
                * if m_slope < 0.0 && theta_k <= theta_min {
                    GAMMA_THETA
                        .min(GAMMA_PHI * theta_k / (-m_slope))
                        .min(DELTA_SWITCH * theta_k.powf(S_THETA) / (-m_slope).powf(S_PHI))
                } else if m_slope < 0.0 {
                    GAMMA_THETA.min(GAMMA_PHI * theta_k / (-m_slope))
                } else {
                    GAMMA_THETA
                };

            // --- filter line search with second-order corrections ---
            let check_acceptance = |alpha: f64, tp: &TrialPoint| -> Option<bool> {
                // `Some(augment_filter)` when acceptable, `None` otherwise.
                let ftype = theta_k <= theta_min
                    && m_slope < 0.0
                    && alpha * (-m_slope).powf(S_PHI) > DELTA_SWITCH * theta_k.powf(S_THETA);
                let armijo = tp.phi <= phi_k + ETA_PHI * alpha * m_slope;
                if !filter.acceptable(tp.theta, tp.phi) {
                    return None;
                }
                let ok = if ftype {
                    armijo
                } else {
                    tp.theta <= (1.0 - GAMMA_THETA) * theta_k
                        || tp.phi <= phi_k - GAMMA_PHI * theta_k
                };
                if ok {
                    Some(!(ftype && armijo))
                } else {
                    None
                }
            };

            let mut accepted: Option<AcceptedStep> = None;
            let mut alpha = alpha_pri_max;
            let mut first_trial = true;
            for _halvings in 0..=MAX_HALVINGS {
                let mut v_t = v.clone();
                for i in 0..nv {
                    v_t[i] = v[i] + alpha * dv[i];
                }
                let trial = eval_trial(nlp, &v_t, &lower, &upper, nx, m_eq, m_ineq, mu, s_f);
                if let Some(tp) = &trial {
                    if let Some(augment) = check_acceptance(alpha, tp) {
                        accepted = Some(AcceptedStep {
                            v_new: v_t,
                            dv: dv.to_vec(),
                            dlambda: dlambda.to_vec(),
                            alpha,
                            augment,
                        });
                        break;
                    }
                }
                filter_rejections += 1;

                // Second-order corrections: only off the maximal trial, and
                // only when its infeasibility did not improve (an α-halving
                // would fix a φ overshoot but not a constraint overshoot).
                if first_trial && trial.as_ref().is_some_and(|tp| tp.theta >= theta_k) {
                    let tp = trial.as_ref().expect("checked is_some above");
                    let mut c_soc = vec![0.0; mc];
                    for j in 0..mc {
                        c_soc[j] = alpha * r_c[j] + tp.c[j];
                    }
                    let mut theta_soc_prev = tp.theta;
                    for _ in 0..MAX_SOC {
                        soc_steps += 1;
                        let mut rhs_soc = rhs.clone();
                        for j in 0..mc {
                            rhs_soc[nv + j] = -c_soc[j];
                        }
                        let step_soc = factorized.solve(&jac_ineq, &rhs_soc);
                        let alpha_soc = max_primal_step(&v, &step_soc[..nv], &lower, &upper, tau);
                        let mut v_soc = v.clone();
                        for i in 0..nv {
                            v_soc[i] = v[i] + alpha_soc * step_soc[i];
                        }
                        let Some(tps) =
                            eval_trial(nlp, &v_soc, &lower, &upper, nx, m_eq, m_ineq, mu, s_f)
                        else {
                            break;
                        };
                        if let Some(augment) = check_acceptance(alpha_soc, &tps) {
                            accepted = Some(AcceptedStep {
                                v_new: v_soc,
                                dlambda: step_soc[nv..].to_vec(),
                                dv: step_soc[..nv].to_vec(),
                                alpha: alpha_soc,
                                augment,
                            });
                            break;
                        }
                        filter_rejections += 1;
                        if tps.theta > KAPPA_SOC * theta_soc_prev {
                            break;
                        }
                        theta_soc_prev = tps.theta;
                        for (cs, &tc) in c_soc.iter_mut().zip(&tps.c) {
                            *cs = alpha_soc * *cs + tc;
                        }
                    }
                    if accepted.is_some() {
                        break;
                    }
                }
                first_trial = false;
                alpha *= 0.5;
                if alpha < alpha_min {
                    break;
                }
            }

            let taken = match accepted {
                Some(acc) => {
                    // An acceptable step vindicates any pending watchdog
                    // trust run.
                    watchdog = None;
                    acc
                }
                None => {
                    // --- watchdog: a bounded run of full steps on trust ---
                    let trusted = match &mut watchdog {
                        None => {
                            watchdog = Some(WATCHDOG_BUDGET);
                            true
                        }
                        Some(left) if *left > 0 => {
                            *left -= 1;
                            true
                        }
                        Some(_) => false,
                    };
                    if !trusted {
                        // The trust ran out with no acceptable step: the
                        // solve ends here, at the current iterate.
                        status = IpmStatus::Stalled;
                        break 'outer;
                    }
                    watchdog_steps += 1;
                    let mut v_new = v.clone();
                    for i in 0..nv {
                        v_new[i] = v[i] + alpha_pri_max * dv[i];
                    }
                    AcceptedStep {
                        v_new,
                        dv: dv.to_vec(),
                        dlambda: dlambda.to_vec(),
                        alpha: alpha_pri_max,
                        augment: false,
                    }
                }
            };

            if taken.augment {
                filter.add(theta_k, phi_k);
            }

            // --- updates ---
            let (dzl, dzu) = bound_dual_steps(&v, &taken.dv, &zl, &zu, &lower, &upper, mu);
            let alpha_dual = max_dual_step(&zl, &zu, &dzl, &dzu, tau);
            v.copy_from_slice(&taken.v_new);
            for (lam, &dl) in lambda.iter_mut().zip(taken.dlambda.iter().take(mc)) {
                *lam += taken.alpha * dl;
            }
            for i in 0..nv {
                zl[i] += alpha_dual * dzl[i];
                zu[i] += alpha_dual * dzu[i];
            }
            // Keep bound multipliers within a large multiple of the primal
            // estimates (Ipopt's kappa_Sigma safeguard). Accepted iterates
            // are strictly interior — the fraction-to-boundary rule and the
            // trial rejection both guarantee positive slacks here.
            for i in 0..nv {
                if lower[i].is_finite() {
                    let p = mu / (v[i] - lower[i]);
                    zl[i] = zl[i].clamp(p / KAPPA_SIGMA, p * KAPPA_SIGMA);
                }
                if upper[i].is_finite() {
                    let p = mu / (upper[i] - v[i]);
                    zu[i] = zu[i].clamp(p / KAPPA_SIGMA, p * KAPPA_SIGMA);
                }
            }
            if let Some(last) = log.last_mut() {
                last.alpha_primal = taken.alpha;
                last.delta_w = delta_w;
            }
            iterations = iter + 1;
        }

        let x_final = v[..nx].to_vec();
        let objective = nlp.objective(&x_final);
        let symbolic_analyses = cache.symbolic_analyses() - symbolic_before;
        SolveReport {
            x: x_final,
            objective,
            lambda_eq: lambda[..m_eq].iter().map(|l| l / s_f).collect(),
            lambda_ineq: lambda[m_eq..].iter().map(|l| l / s_f).collect(),
            zl: zl.iter().map(|z| z / s_f).collect(),
            zu: zu.iter().map(|z| z / s_f).collect(),
            status,
            iterations,
            kkt_error,
            primal_infeasibility: primal_inf,
            solve_time: start_time.elapsed(),
            factorizations,
            symbolic_analyses,
            filter_rejections,
            soc_steps,
            watchdog_steps,
            log,
        }
    }
}

/// Push a point strictly inside its bounds (Ipopt's `bound_push`).
fn push_into_interior(v: &mut [f64], lower: &[f64], upper: &[f64], push: f64) {
    for i in 0..v.len() {
        let (l, u) = (lower[i], upper[i]);
        match (l.is_finite(), u.is_finite()) {
            (true, true) => {
                let width = u - l;
                let margin = (push * width.max(1.0)).min(0.49 * width);
                v[i] = v[i].clamp(l + margin, u - margin);
            }
            (true, false) => {
                let margin = push * l.abs().max(1.0);
                if v[i] < l + margin {
                    v[i] = l + margin;
                }
            }
            (false, true) => {
                let margin = push * u.abs().max(1.0);
                if v[i] > u - margin {
                    v[i] = u - margin;
                }
            }
            (false, false) => {}
        }
    }
}

/// `a.max(b)`, except that a NaN on either side is the result: `f64::max`
/// drops NaN, which let a NaN residual read as a zero KKT error.
fn max_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

fn inf_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).fold(0.0, max_nan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nlp::pattern;
    use crate::nlp::test_problems::{EqualityQp, Hs071};
    use gridsim_sparse::Coo;

    #[test]
    fn equality_qp_reaches_known_solution() {
        let report = IpmSolver::default().solve(&EqualityQp);
        assert!(report.is_optimal(), "status {:?}", report.status);
        assert!((report.x[0] - 0.5).abs() < 1e-6, "x0 = {}", report.x[0]);
        assert!((report.x[1] - 0.5).abs() < 1e-6);
        assert!((report.objective - 0.5).abs() < 1e-6);
        // The equality multiplier is -1 at the optimum (gradient 2*0.5 = 1).
        assert!((report.lambda_eq[0] + 1.0).abs() < 1e-4);
    }

    /// HS071's published optimum, 17.0140173, pinned to the relative
    /// tolerance at which the condensed and full-KKT solves agreed.
    #[test]
    fn hs071_reaches_known_solution() {
        let report = IpmSolver::new(IpmOptions {
            tol: 1e-7,
            ..Default::default()
        })
        .solve(&Hs071);
        assert!(report.is_optimal(), "status {:?}", report.status);
        assert!(
            (report.objective - 17.0140173).abs() < 1e-5 * 17.0140173,
            "objective {}",
            report.objective
        );
        let expected = [1.0, 4.7429994, 3.8211503, 1.3794082];
        for (a, b) in report.x.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert!(report.primal_infeasibility < 1e-7);
        // One symbolic analysis for the whole solve, numeric
        // refactorizations every iteration.
        assert_eq!(report.symbolic_analyses, 1);
        assert!(report.factorizations >= report.iterations);
        assert!(report.factorizations > report.symbolic_analyses);
    }

    /// A bound-constrained problem whose solution sits on a bound:
    /// `min (x-2)² s.t. 0 <= x <= 1` -> x = 1.
    struct BoundOnly;
    impl Nlp for BoundOnly {
        fn num_vars(&self) -> usize {
            1
        }
        fn num_eq(&self) -> usize {
            0
        }
        fn num_ineq(&self) -> usize {
            0
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0], vec![1.0])
        }
        fn initial_point(&self) -> Vec<f64> {
            vec![0.2]
        }
        fn objective(&self, x: &[f64]) -> f64 {
            (x[0] - 2.0).powi(2)
        }
        fn objective_grad(&self, x: &[f64], g: &mut [f64]) {
            g[0] = 2.0 * (x[0] - 2.0);
        }
        fn eq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
        fn ineq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
        fn eq_jacobian_structure(&self) -> Coo {
            Coo::new(0, 1)
        }
        fn eq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
        fn ineq_jacobian_structure(&self) -> Coo {
            Coo::new(0, 1)
        }
        fn ineq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
        fn hessian_structure(&self) -> Coo {
            pattern(1, 1, &[(0, 0)])
        }
        fn hessian_values(&self, _x: &[f64], s: f64, _le: &[f64], _li: &[f64], vals: &mut [f64]) {
            vals[0] = 2.0 * s;
        }
    }

    #[test]
    fn active_bound_solution() {
        let report = IpmSolver::default().solve(&BoundOnly);
        assert!(report.is_optimal());
        assert!((report.x[0] - 1.0).abs() < 1e-5, "x = {}", report.x[0]);
        assert!((report.objective - 1.0).abs() < 1e-4);
        // The barrier keeps every iterate strictly interior even though the
        // solution is on the bound.
        assert!(report.x[0] < 1.0);
    }

    /// A boundary-violating trial is rejected outright by the line search's
    /// trial evaluation — not clamped into `ln(1e-300)` and compared on
    /// merit, which is how the pre-filter solver accepted bound-crashing
    /// steps. Covers at-bound, past-bound, and past-upper trials, plus the
    /// slack block of an inequality problem.
    #[test]
    fn boundary_violating_trial_is_rejected() {
        let (lower, upper) = (vec![0.0], vec![1.0]);
        // Strictly interior: evaluates.
        assert!(eval_trial(&BoundOnly, &[0.5], &lower, &upper, 1, 0, 0, 0.1, 1.0).is_some());
        // At either bound or beyond: rejected (the barrier is infinite).
        for v in [0.0, -0.3, 1.0, 1.7] {
            assert!(
                eval_trial(&BoundOnly, &[v], &lower, &upper, 1, 0, 0, 0.1, 1.0).is_none(),
                "trial at v = {v} must be rejected"
            );
        }
        // Slack block: v = [x0, x1, s]; s <= 0 violates the slack bound.
        let (lower, upper) = (
            vec![f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0],
            vec![f64::INFINITY; 3],
        );
        assert!(eval_trial(
            &InequalityQp,
            &[0.2, 0.2, 0.6],
            &lower,
            &upper,
            2,
            0,
            1,
            0.1,
            1.0
        )
        .is_some());
        assert!(
            eval_trial(
                &InequalityQp,
                &[0.2, 0.2, 0.0],
                &lower,
                &upper,
                2,
                0,
                1,
                0.1,
                1.0
            )
            .is_none(),
            "zero slack must be rejected"
        );
        assert!(
            eval_trial(
                &InequalityQp,
                &[0.2, 0.2, -0.4],
                &lower,
                &upper,
                2,
                0,
                1,
                0.1,
                1.0
            )
            .is_none(),
            "negative slack must be rejected"
        );
    }

    #[test]
    fn filter_margins_dominate_and_prune() {
        let mut filter = Filter::new(1e4);
        // The θ_max cap rejects wildly infeasible pairs no matter how good φ.
        assert!(!filter.acceptable(2e4, -1e9));
        filter.add(1.0, 10.0);
        // Dominated pair (no margin of improvement in either measure).
        assert!(!filter.acceptable(1.0, 10.0));
        // Enough θ improvement or enough φ improvement is acceptable.
        assert!(filter.acceptable(0.5, 11.0));
        assert!(filter.acceptable(1.0, 9.0));
        // A dominating new entry prunes the old one.
        filter.add(0.5, 5.0);
        assert_eq!(filter.entries.len(), 2, "entries {:?}", filter.entries);
        filter.reset();
        assert_eq!(filter.entries.len(), 1);
        assert!(filter.acceptable(1.0, 10.0));
    }

    /// Inequality-constrained QP: `min x² + y² s.t. x + y >= 1`
    /// (as `1 - x - y <= 0`), solution (0.5, 0.5).
    struct InequalityQp;
    impl Nlp for InequalityQp {
        fn num_vars(&self) -> usize {
            2
        }
        fn num_eq(&self) -> usize {
            0
        }
        fn num_ineq(&self) -> usize {
            1
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![f64::NEG_INFINITY; 2], vec![f64::INFINITY; 2])
        }
        fn initial_point(&self) -> Vec<f64> {
            vec![-1.0, 2.5]
        }
        fn objective(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + x[1] * x[1]
        }
        fn objective_grad(&self, x: &[f64], g: &mut [f64]) {
            g[0] = 2.0 * x[0];
            g[1] = 2.0 * x[1];
        }
        fn eq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
        fn ineq_constraints(&self, x: &[f64], c: &mut [f64]) {
            c[0] = 1.0 - x[0] - x[1];
        }
        fn eq_jacobian_structure(&self) -> Coo {
            Coo::new(0, 2)
        }
        fn eq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
        fn ineq_jacobian_structure(&self) -> Coo {
            pattern(1, 2, &[(0, 0), (0, 1)])
        }
        fn ineq_jacobian_values(&self, _x: &[f64], vals: &mut [f64]) {
            vals.fill(-1.0);
        }
        fn hessian_structure(&self) -> Coo {
            pattern(2, 2, &[(0, 0), (1, 1)])
        }
        fn hessian_values(&self, _x: &[f64], s: f64, _le: &[f64], _li: &[f64], vals: &mut [f64]) {
            vals.fill(2.0 * s);
        }
    }

    #[test]
    fn inequality_qp_active_at_solution() {
        let report = IpmSolver::default().solve(&InequalityQp);
        assert!(report.is_optimal(), "status {:?}", report.status);
        assert!((report.x[0] - 0.5).abs() < 1e-5);
        assert!((report.x[1] - 0.5).abs() < 1e-5);
        // Multiplier of the active inequality is positive.
        assert!(report.lambda_ineq[0] > 0.1);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let solver = IpmSolver::new(IpmOptions {
            tol: 1e-7,
            ..Default::default()
        });
        let warm_solve =
            |start: &IpmWarmStart| solver.solve_warm(&Hs071, &mut KktCache::new(), start);
        let cold = solver.solve(&Hs071);
        assert!(cold.is_optimal());
        let donor = IpmWarmStart::from_report(&cold);
        let without_z = IpmWarmStart {
            zl: Vec::new(),
            zu: Vec::new(),
            ..donor.clone()
        };
        let warm = warm_solve(&without_z);
        assert!(warm.is_optimal());
        // A start without bound multipliers is pushed back into the
        // interior like a cold start and its `z = μ/slack` initialization
        // forgets the active set: it barely helps. Both counts are pinned;
        // seeding the donor's `z` as well keeps its point.
        assert_eq!((cold.iterations, warm.iterations), (8, 6));
        let seeded = warm_solve(&donor);
        assert!(seeded.is_optimal());
        assert!(seeded.iterations <= 2, "{} iterations", seeded.iterations);

        // The length rules: a part of the wrong length is ignored, so each of
        // these starts solves as the primal-only one, bit for bit.
        let primal = warm_solve(&IpmWarmStart::primal(cold.x.clone()));
        let bits = |r: &SolveReport| {
            let mut bits = vec![r.objective.to_bits(), r.iterations as u64];
            for v in [&r.x, &r.lambda_eq, &r.lambda_ineq, &r.zl, &r.zu] {
                bits.extend(v.iter().map(|x| x.to_bits()));
            }
            bits
        };
        let short = |v: &[f64]| v[1..].to_vec();
        for start in [
            IpmWarmStart {
                x: cold.x.clone(),
                lambda: vec![],
                zl: vec![],
                zu: vec![],
            },
            IpmWarmStart {
                lambda: short(&donor.lambda),
                ..IpmWarmStart::primal(cold.x.clone())
            },
            IpmWarmStart {
                zl: donor.zl.clone(),
                zu: short(&donor.zu),
                ..IpmWarmStart::primal(cold.x.clone())
            },
            IpmWarmStart {
                lambda: short(&donor.lambda),
                zl: short(&donor.zl),
                zu: short(&donor.zu),
                x: cold.x.clone(),
            },
        ] {
            assert_eq!(bits(&warm_solve(&start)), bits(&primal));
        }
    }

    #[test]
    fn iteration_log_is_populated() {
        let report = IpmSolver::default().solve(&EqualityQp);
        assert!(!report.log.is_empty());
        assert_eq!(report.log[0].iter, 0);
        assert!(report.factorizations >= report.iterations);
        // The declared structure's analysis serves every factorization of
        // the solve.
        assert_eq!(report.symbolic_analyses, 1);
    }

    #[test]
    fn easy_problems_need_no_globalization_fallbacks() {
        // On well-scaled convex problems every full step is acceptable: the
        // watchdog must stay cold, and its counter says so.
        for report in [
            IpmSolver::default().solve(&EqualityQp),
            IpmSolver::default().solve(&InequalityQp),
            IpmSolver::default().solve(&BoundOnly),
        ] {
            assert!(report.is_optimal());
            assert_eq!(report.watchdog_steps, 0);
        }
    }

    #[test]
    fn shared_cache_reuses_symbolic_across_warm_resolves() {
        let mut cache = KktCache::new();
        let solver = IpmSolver::new(IpmOptions {
            tol: 1e-7,
            ..Default::default()
        });
        let cold = solver.solve_with_cache(&Hs071, &mut cache);
        assert!(cold.is_optimal());
        let after_cold = cache.symbolic_analyses();
        let start = IpmWarmStart {
            zl: Vec::new(),
            zu: Vec::new(),
            ..IpmWarmStart::from_report(&cold)
        };
        let warm = solver.solve_warm(&Hs071, &mut cache, &start);
        assert!(warm.is_optimal());
        // The warm re-solve rode the frozen pattern: no new analysis.
        assert_eq!(cache.symbolic_analyses(), after_cold);
        assert_eq!(warm.symbolic_analyses, 0);
        assert!(warm.factorizations > 0);
    }

    /// A badly scaled objective (gradient ~1e4 at the start) exercises the
    /// gradient-based scaling: without it the multiplier steps integrate to
    /// the gradient's magnitude and the merit/filter has no chance; with
    /// `s_f = 100/‖∇f‖∞` the internal problem is tame while the report
    /// carries unscaled values.
    #[test]
    fn badly_scaled_objective_converges_with_correct_report() {
        struct ScaledQp;
        impl Nlp for ScaledQp {
            fn num_vars(&self) -> usize {
                2
            }
            fn num_eq(&self) -> usize {
                1
            }
            fn num_ineq(&self) -> usize {
                0
            }
            fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
                (vec![f64::NEG_INFINITY; 2], vec![f64::INFINITY; 2])
            }
            fn initial_point(&self) -> Vec<f64> {
                vec![2.0, -1.0]
            }
            fn objective(&self, x: &[f64]) -> f64 {
                1e4 * (x[0] * x[0] + x[1] * x[1])
            }
            fn objective_grad(&self, x: &[f64], g: &mut [f64]) {
                g[0] = 2e4 * x[0];
                g[1] = 2e4 * x[1];
            }
            fn eq_constraints(&self, x: &[f64], c: &mut [f64]) {
                c[0] = x[0] + x[1] - 1.0;
            }
            fn ineq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
            fn eq_jacobian_structure(&self) -> Coo {
                pattern(1, 2, &[(0, 0), (0, 1)])
            }
            fn eq_jacobian_values(&self, _x: &[f64], vals: &mut [f64]) {
                vals.fill(1.0);
            }
            fn ineq_jacobian_structure(&self) -> Coo {
                Coo::new(0, 2)
            }
            fn ineq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
            fn hessian_structure(&self) -> Coo {
                pattern(2, 2, &[(0, 0), (1, 1)])
            }
            fn hessian_values(
                &self,
                _x: &[f64],
                s: f64,
                _le: &[f64],
                _li: &[f64],
                vals: &mut [f64],
            ) {
                vals.fill(2e4 * s);
            }
        }
        let report = IpmSolver::default().solve(&ScaledQp);
        assert!(report.is_optimal(), "status {:?}", report.status);
        assert!((report.x[0] - 0.5).abs() < 1e-4, "x0 = {}", report.x[0]);
        assert!((report.x[1] - 0.5).abs() < 1e-4);
        // Objective reported unscaled, multiplier unscaled: at the optimum
        // ∇f + λ ∇c = 0 → λ = −2e4·0.5 = −1e4.
        assert!((report.objective - 5e3).abs() < 1.0);
        assert!(
            (report.lambda_eq[0] + 1e4).abs() < 1.0,
            "lambda = {}",
            report.lambda_eq[0]
        );
    }

    #[test]
    fn unconstrained_problem_is_a_newton_solve() {
        /// `min (x-3)² + (y+1)²` with no constraints or bounds.
        struct Unconstrained;
        impl Nlp for Unconstrained {
            fn num_vars(&self) -> usize {
                2
            }
            fn num_eq(&self) -> usize {
                0
            }
            fn num_ineq(&self) -> usize {
                0
            }
            fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
                (vec![f64::NEG_INFINITY; 2], vec![f64::INFINITY; 2])
            }
            fn initial_point(&self) -> Vec<f64> {
                vec![0.0, 0.0]
            }
            fn objective(&self, x: &[f64]) -> f64 {
                (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2)
            }
            fn objective_grad(&self, x: &[f64], g: &mut [f64]) {
                g[0] = 2.0 * (x[0] - 3.0);
                g[1] = 2.0 * (x[1] + 1.0);
            }
            fn eq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
            fn ineq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
            fn eq_jacobian_structure(&self) -> Coo {
                Coo::new(0, 2)
            }
            fn eq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
            fn ineq_jacobian_structure(&self) -> Coo {
                Coo::new(0, 2)
            }
            fn ineq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
            fn hessian_structure(&self) -> Coo {
                pattern(2, 2, &[(0, 0), (1, 1)])
            }
            fn hessian_values(
                &self,
                _x: &[f64],
                s: f64,
                _le: &[f64],
                _li: &[f64],
                vals: &mut [f64],
            ) {
                vals.fill(2.0 * s);
            }
        }
        let report = IpmSolver::default().solve(&Unconstrained);
        assert!(report.is_optimal());
        assert!((report.x[0] - 3.0).abs() < 1e-6);
        assert!((report.x[1] + 1.0).abs() < 1e-6);
        assert!(report.iterations <= 3);
    }

    /// A gradient `[2x₀, NaN]` used to read as `Optimal` at iteration 0
    /// with `kkt_error` 0: the residual's ∞-norm folded with `f64::max`,
    /// which drops NaN. A NaN residual now ends the solve as a numerical
    /// error.
    #[test]
    fn nan_gradient_is_a_numerical_error_not_optimal() {
        struct NanGradient;
        impl Nlp for NanGradient {
            fn num_vars(&self) -> usize {
                2
            }
            fn num_eq(&self) -> usize {
                0
            }
            fn num_ineq(&self) -> usize {
                0
            }
            fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
                (vec![f64::NEG_INFINITY; 2], vec![f64::INFINITY; 2])
            }
            fn initial_point(&self) -> Vec<f64> {
                vec![0.0, 0.0]
            }
            fn objective(&self, x: &[f64]) -> f64 {
                x[0] * x[0]
            }
            fn objective_grad(&self, x: &[f64], g: &mut [f64]) {
                g[0] = 2.0 * x[0];
                g[1] = f64::NAN;
            }
            fn eq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
            fn ineq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
            fn eq_jacobian_structure(&self) -> Coo {
                Coo::new(0, 2)
            }
            fn eq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
            fn ineq_jacobian_structure(&self) -> Coo {
                Coo::new(0, 2)
            }
            fn ineq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
            fn hessian_structure(&self) -> Coo {
                pattern(2, 2, &[(0, 0), (1, 1)])
            }
            fn hessian_values(
                &self,
                _x: &[f64],
                s: f64,
                _le: &[f64],
                _li: &[f64],
                vals: &mut [f64],
            ) {
                vals.fill(2.0 * s);
            }
        }
        let report = IpmSolver::default().solve(&NanGradient);
        assert_eq!(report.status, IpmStatus::NumericalError);
        assert!(report.kkt_error.is_nan(), "kkt_error {}", report.kkt_error);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.factorizations, 0);
    }

    /// A NaN Hessian entry behind finite residuals reaches the
    /// factorization, whose NaN pivot is a `Breakdown` (it used to come back
    /// as a factor with a "regularized" NaN pivot). Every δ_w the inertia
    /// loop tries (0, then 1e-4 through 1e12: 18 factorizations) breaks down
    /// the same way; past 1e12 it gives up and the solve ends as a numerical
    /// error, never with a NaN step.
    #[test]
    fn nan_hessian_is_a_numerical_error() {
        struct NanHessian;
        impl Nlp for NanHessian {
            fn num_vars(&self) -> usize {
                2
            }
            fn num_eq(&self) -> usize {
                0
            }
            fn num_ineq(&self) -> usize {
                0
            }
            fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
                (vec![f64::NEG_INFINITY; 2], vec![f64::INFINITY; 2])
            }
            fn initial_point(&self) -> Vec<f64> {
                vec![0.0, 0.0]
            }
            fn objective(&self, x: &[f64]) -> f64 {
                (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2)
            }
            fn objective_grad(&self, x: &[f64], g: &mut [f64]) {
                g[0] = 2.0 * (x[0] - 3.0);
                g[1] = 2.0 * (x[1] + 1.0);
            }
            fn eq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
            fn ineq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
            fn eq_jacobian_structure(&self) -> Coo {
                Coo::new(0, 2)
            }
            fn eq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
            fn ineq_jacobian_structure(&self) -> Coo {
                Coo::new(0, 2)
            }
            fn ineq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
            fn hessian_structure(&self) -> Coo {
                pattern(2, 2, &[(0, 0), (1, 1)])
            }
            fn hessian_values(
                &self,
                _x: &[f64],
                s: f64,
                _le: &[f64],
                _li: &[f64],
                vals: &mut [f64],
            ) {
                vals[0] = 2.0 * s;
                vals[1] = f64::NAN;
            }
        }
        let report = IpmSolver::default().solve(&NanHessian);
        assert_eq!(report.status, IpmStatus::NumericalError);
        assert!(
            report.kkt_error.is_finite(),
            "kkt_error {}",
            report.kkt_error
        );
        assert_eq!(report.iterations, 0);
        assert_eq!(report.factorizations, 18);
    }
}
