//! End-to-end interior-point solves of the embedded ACOPF cases.
//!
//! These tests establish the baseline solver used throughout the experiment
//! harness: the solutions must be feasible (power balance, bounds, line
//! limits) and economically sensible.

use gridsim_acopf::violations::SolutionQuality;
use gridsim_grid::{ContingencySpec, ScenarioSet};
use gridsim_ipm::{AcopfNlp, IpmOptions, IpmSolver, IpmStatus, IpmWarmStart, KktCache, Nlp};
use gridsim_sparse::Coo;

fn solve_case(case: gridsim_grid::Case) -> (gridsim_grid::Network, gridsim_ipm::SolveReport) {
    let net = case.compile().unwrap();
    let report = {
        let nlp = AcopfNlp::new(&net);
        IpmSolver::new(IpmOptions {
            tol: 1e-6,
            max_iter: 300,
            ..Default::default()
        })
        .solve(&nlp)
    };
    (net, report)
}

#[test]
fn two_bus_acopf_is_feasible_and_covers_load_plus_losses() {
    let (net, report) = solve_case(gridsim_grid::two_bus());
    assert!(report.is_optimal(), "status {:?}", report.status);
    let nlp = AcopfNlp::new(&net);
    let sol = nlp.to_solution(&report.x);
    let quality = SolutionQuality::evaluate(&net, &sol);
    assert!(
        quality.max_violation() < 1e-5,
        "violation {}",
        quality.max_violation()
    );
    // Generation covers the 0.8 p.u. load plus (small, positive) losses.
    assert!(sol.pg[0] > 0.8);
    assert!(sol.pg[0] < 0.85);
    // Voltages stay inside their limits.
    for b in 0..net.nbus {
        assert!(sol.vm[b] >= net.vmin[b] - 1e-8);
        assert!(sol.vm[b] <= net.vmax[b] + 1e-8);
    }
}

#[test]
fn case9_acopf_reaches_a_feasible_economic_dispatch() {
    let (net, report) = solve_case(gridsim_grid::case9());
    assert!(report.is_optimal(), "status {:?}", report.status);
    let nlp = AcopfNlp::new(&net);
    let sol = nlp.to_solution(&report.x);
    let quality = SolutionQuality::evaluate(&net, &sol);
    assert!(
        quality.max_violation() < 1e-5,
        "violation {}",
        quality.max_violation()
    );
    // Total generation covers the 3.15 p.u. load plus losses.
    let total_pg: f64 = sol.pg.iter().sum();
    assert!(total_pg > 3.15 && total_pg < 3.4, "total pg {total_pg}");
    // The WSCC 9-bus economic dispatch is in the low-5000s $/hr range; a
    // crude proportional dispatch costs noticeably more.
    assert!(
        report.objective > 4500.0 && report.objective < 6000.0,
        "objective {}",
        report.objective
    );
    // The reported objective equals the solution's objective.
    assert!((report.objective - sol.objective(&net)).abs() < 1e-6);
}

#[test]
fn case14_acopf_is_feasible() {
    let (net, report) = solve_case(gridsim_grid::case14());
    assert!(report.is_optimal(), "status {:?}", report.status);
    let nlp = AcopfNlp::new(&net);
    let sol = nlp.to_solution(&report.x);
    let quality = SolutionQuality::evaluate(&net, &sol);
    assert!(
        quality.max_violation() < 1e-5,
        "violation {}",
        quality.max_violation()
    );
    let total_pg: f64 = sol.pg.iter().sum();
    let total_load: f64 = net.total_pd();
    assert!(total_pg >= total_load, "generation must cover load");
    assert!(total_pg < total_load * 1.1, "losses should be modest");
}

#[test]
fn case9_warm_start_converges_quickly_after_small_load_change() {
    let base = gridsim_grid::case9();
    let (net, cold_report) = solve_case(base.clone());
    assert!(cold_report.is_optimal());

    // Re-solve a 2 % higher load from the previous solution.
    let bumped = base.scale_load(1.02);
    let net2 = bumped.compile().unwrap();
    let nlp2 = AcopfNlp::new(&net2);
    let warm = IpmSolver::default().solve_warm(
        &nlp2,
        &mut KktCache::new(),
        &IpmWarmStart::primal(cold_report.x.clone()),
    );
    assert!(warm.is_optimal());
    let sol = nlp2.to_solution(&warm.x);
    let quality = SolutionQuality::evaluate(&net2, &sol);
    assert!(quality.max_violation() < 1e-5);
    // The warm solve should not be dramatically slower than the cold solve
    // (the paper observes Ipopt gains little from warm starts, so we only
    // require it does not blow up).
    assert!(warm.iterations <= cold_report.iterations * 2 + 10);
    drop(net);
}

/// A donor-seeded start keeps the donor's point, which 20 % more load
/// leaves too far from `case9`'s new optimum: that attempt fails after a few
/// steps. The solve then re-runs from the same seed with the full bound push
/// and ends optimal at the cold optimum. The report bills both attempts: its
/// log runs on through both, and each attempt logs one record more than the
/// steps it took.
#[test]
fn far_donor_seed_falls_back_to_the_full_push() {
    let base = gridsim_grid::case9();
    let (_, donor) = solve_case(base.clone());
    let net = base.scale_load(1.2).compile().unwrap();
    let nlp = AcopfNlp::new(&net);
    let report = IpmSolver::default().solve_warm(
        &nlp,
        &mut KktCache::new(),
        &IpmWarmStart::from_report(&donor),
    );
    assert!(report.is_optimal(), "status {:?}", report.status);
    assert_eq!(report.log.len(), report.iterations + 2, "two attempts");
    let iters: Vec<usize> = report.log.iter().map(|r| r.iter).collect();
    assert_eq!(iters, (0..report.log.len()).collect::<Vec<_>>());
    let cold = IpmSolver::default().solve(&nlp);
    let gap = (report.objective - cold.objective).abs() / cold.objective;
    assert!(gap < 1e-8, "gap {gap:e}");
}

#[test]
fn generator_outage_with_collapsed_bounds_solves_to_optimality() {
    // An outaged unit's dispatch box is collapsed to [0, 0]: a fixed
    // variable, whose bounds have no interior for the barrier to start in.
    let set = ScenarioSet::generator_outages(gridsim_grid::case9(), 1);
    let outaged = set.scenarios[0].gen_outage.expect("a generator outage");
    let (net, report) = solve_case(set.cases().remove(0));
    assert_eq!(net.pmin[outaged], net.pmax[outaged]);
    assert!(report.is_optimal(), "status {:?}", report.status);
    let sol = AcopfNlp::new(&net).to_solution(&report.x);
    assert!(sol.pg[outaged].abs() <= 1e-6, "pg {}", sol.pg[outaged]);
    let quality = SolutionQuality::evaluate(&net, &sol);
    assert!(
        quality.max_violation() < 1e-5,
        "violation {}",
        quality.max_violation()
    );
}

#[test]
fn tighter_line_limits_increase_cost() {
    // Artificially tighten every line rating of case9; the optimal cost
    // cannot decrease when the feasible set shrinks.
    let base = gridsim_grid::case9();
    let (_, base_report) = solve_case(base.clone());
    assert!(base_report.is_optimal());

    let mut tight = base;
    for b in &mut tight.branches {
        b.rate_a *= 0.6;
    }
    let (_, tight_report) = solve_case(tight);
    assert!(
        tight_report.is_optimal(),
        "status {:?}",
        tight_report.status
    );
    assert!(
        tight_report.objective >= base_report.objective - 1e-3,
        "tightened problem must not be cheaper: {} vs {}",
        tight_report.objective,
        base_report.objective
    );
}

/// An `AcopfNlp` whose Hessian keeps only `row <= col`: what the `Nlp`
/// documentation used to allow.
struct UpperTriangleHessian<'a>(AcopfNlp<'a>);

impl UpperTriangleHessian<'_> {
    /// Which of the full structure's triplets the upper triangle keeps.
    fn kept(&self) -> Vec<bool> {
        let full = self.0.hessian_structure();
        (0..full.nnz())
            .map(|t| full.rows[t] <= full.cols[t])
            .collect()
    }
}

impl Nlp for UpperTriangleHessian<'_> {
    fn num_vars(&self) -> usize {
        self.0.num_vars()
    }
    fn num_eq(&self) -> usize {
        self.0.num_eq()
    }
    fn num_ineq(&self) -> usize {
        self.0.num_ineq()
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        self.0.bounds()
    }
    fn initial_point(&self) -> Vec<f64> {
        self.0.initial_point()
    }
    fn objective(&self, x: &[f64]) -> f64 {
        self.0.objective(x)
    }
    fn objective_grad(&self, x: &[f64], grad: &mut [f64]) {
        self.0.objective_grad(x, grad)
    }
    fn eq_constraints(&self, x: &[f64], c: &mut [f64]) {
        self.0.eq_constraints(x, c)
    }
    fn ineq_constraints(&self, x: &[f64], c: &mut [f64]) {
        self.0.ineq_constraints(x, c)
    }
    fn eq_jacobian_structure(&self) -> Coo {
        self.0.eq_jacobian_structure()
    }
    fn eq_jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        self.0.eq_jacobian_values(x, vals)
    }
    fn ineq_jacobian_structure(&self) -> Coo {
        self.0.ineq_jacobian_structure()
    }
    fn ineq_jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        self.0.ineq_jacobian_values(x, vals)
    }
    fn hessian_structure(&self) -> Coo {
        let full = self.0.hessian_structure();
        let mut upper = Coo::new(full.nrows, full.ncols);
        for (t, _) in self.kept().iter().enumerate().filter(|(_, &keep)| keep) {
            upper.push(full.rows[t], full.cols[t], 0.0);
        }
        upper
    }
    fn hessian_values(&self, x: &[f64], obj: f64, l_eq: &[f64], l_ineq: &[f64], vals: &mut [f64]) {
        let full = self.0.lagrangian_hessian(x, obj, l_eq, l_ineq);
        let upper = full.vals.iter().zip(self.kept()).filter(|(_, keep)| *keep);
        for (out, (&v, _)) in vals.iter_mut().zip(upper) {
            *out = v;
        }
    }
}

/// A one-triangle Hessian used to solve the wrong Newton systems without a
/// word — whichever half-entries the ordering moved below the diagonal were
/// dropped — and still report `Optimal` after 84 iterations instead of 12.
/// It is a typed failure before iteration 0 now. The honest solve reaches
/// `case9`'s pinned objective (see `tests/ipm_condensed.rs`).
#[test]
fn one_triangle_hessian_is_rejected_before_the_first_iteration() {
    let net = gridsim_grid::case9().compile().unwrap();
    let solver = IpmSolver::default();
    let honest = solver.solve(&AcopfNlp::new(&net));
    assert!(honest.is_optimal() && honest.iterations > 0);
    assert!(
        (honest.objective - 5_297.406_739_9).abs() < 1e-5 * 5_297.406_739_9,
        "objective {}",
        honest.objective
    );
    let report = solver.solve(&UpperTriangleHessian(AcopfNlp::new(&net)));
    assert_eq!(report.status, IpmStatus::NumericalError);
    assert_eq!(report.iterations, 0);
    assert_eq!(report.factorizations, 0);
    assert!(report.log.is_empty());
}

/// The cache checks a Hessian when it records a structure, not on every
/// solve. A one-triangle Hessian declared to a cache that already holds the
/// honest structure of the same dimensions is therefore still refused
/// before iteration 0, and the cache keeps serving the honest model without
/// a new analysis.
#[test]
fn one_triangle_hessian_is_rejected_by_a_warm_cache() {
    let net = gridsim_grid::case9().compile().unwrap();
    let solver = IpmSolver::default();
    let mut cache = KktCache::new();
    assert!(solver
        .solve_with_cache(&AcopfNlp::new(&net), &mut cache)
        .is_optimal());
    let report = solver.solve_with_cache(&UpperTriangleHessian(AcopfNlp::new(&net)), &mut cache);
    assert_eq!(report.status, IpmStatus::NumericalError);
    assert_eq!(report.iterations, 0);
    assert_eq!(report.factorizations, 0);
    assert!(report.log.is_empty());
    let honest = solver.solve_with_cache(&AcopfNlp::new(&net), &mut cache);
    assert!(honest.is_optimal());
    assert_eq!(honest.symbolic_analyses, 0);
    assert_eq!(cache.symbolic_analyses(), 1);
}

/// Which declared block [`OutOfRange`] corrupts.
#[derive(Debug, Clone, Copy)]
enum Corrupted {
    EqRow,
    EqColumn,
    IneqRow,
    HessianColumn,
}

/// An `AcopfNlp` that declares one coordinate outside its block: a `J_E`
/// row at `num_eq()`, a `J_E` column or a Hessian column past the whole
/// condensed system (`num_vars() + num_eq()`), or a `J_I` row at
/// `num_ineq()`. The Hessian keeps both triangles: every `(r, c)` of one
/// off-diagonal pair moves to `(r, past)`, every `(c, r)` to `(past, r)`.
/// The structures are edited through the `Coo` fields, since `Coo::push`
/// refuses such a coordinate in debug builds.
struct OutOfRange<'a>(AcopfNlp<'a>, Corrupted);

impl Nlp for OutOfRange<'_> {
    fn num_vars(&self) -> usize {
        self.0.num_vars()
    }
    fn num_eq(&self) -> usize {
        self.0.num_eq()
    }
    fn num_ineq(&self) -> usize {
        self.0.num_ineq()
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        self.0.bounds()
    }
    fn initial_point(&self) -> Vec<f64> {
        self.0.initial_point()
    }
    fn objective(&self, x: &[f64]) -> f64 {
        self.0.objective(x)
    }
    fn objective_grad(&self, x: &[f64], grad: &mut [f64]) {
        self.0.objective_grad(x, grad)
    }
    fn eq_constraints(&self, x: &[f64], c: &mut [f64]) {
        self.0.eq_constraints(x, c)
    }
    fn ineq_constraints(&self, x: &[f64], c: &mut [f64]) {
        self.0.ineq_constraints(x, c)
    }
    fn eq_jacobian_structure(&self) -> Coo {
        let mut jac = self.0.eq_jacobian_structure();
        match self.1 {
            Corrupted::EqRow => jac.rows[0] = self.num_eq(),
            Corrupted::EqColumn => jac.cols[0] = self.num_vars() + self.num_eq(),
            _ => {}
        }
        jac
    }
    fn eq_jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        self.0.eq_jacobian_values(x, vals)
    }
    fn ineq_jacobian_structure(&self) -> Coo {
        let mut jac = self.0.ineq_jacobian_structure();
        if let Corrupted::IneqRow = self.1 {
            jac.rows[0] = self.num_ineq();
        }
        jac
    }
    fn ineq_jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        self.0.ineq_jacobian_values(x, vals)
    }
    fn hessian_structure(&self) -> Coo {
        let mut hess = self.0.hessian_structure();
        if let Corrupted::HessianColumn = self.1 {
            let past = self.num_vars() + self.num_eq();
            let t = (0..hess.nnz())
                .find(|&t| hess.rows[t] != hess.cols[t])
                .unwrap();
            let (r, c) = (hess.rows[t], hess.cols[t]);
            for u in 0..hess.nnz() {
                if (hess.rows[u], hess.cols[u]) == (r, c) {
                    hess.cols[u] = past;
                } else if (hess.rows[u], hess.cols[u]) == (c, r) {
                    hess.rows[u] = past;
                }
            }
        }
        hess
    }
    fn hessian_values(&self, x: &[f64], obj: f64, l_eq: &[f64], l_ineq: &[f64], vals: &mut [f64]) {
        self.0.hessian_values(x, obj, l_eq, l_ineq, vals)
    }
}

/// A declared coordinate outside its block used to panic the solve — in
/// the CSC conversion of the condensed pattern, or while grouping the
/// inequality Jacobian by row — taking a fleet lane or a daemon chunk down
/// with it. It is refused like a one-triangle Hessian now: a numerical
/// error before iteration 0, with no analysis and no factorization.
#[test]
fn out_of_range_coordinates_are_rejected_before_the_first_iteration() {
    let net = gridsim_grid::case9().compile().unwrap();
    let solver = IpmSolver::default();
    for corrupted in [
        Corrupted::EqRow,
        Corrupted::EqColumn,
        Corrupted::IneqRow,
        Corrupted::HessianColumn,
    ] {
        let report = solver.solve(&OutOfRange(AcopfNlp::new(&net), corrupted));
        assert_eq!(report.status, IpmStatus::NumericalError, "{corrupted:?}");
        assert_eq!(report.iterations, 0, "{corrupted:?}");
        assert_eq!(report.factorizations, 0, "{corrupted:?}");
        assert_eq!(report.symbolic_analyses, 0, "{corrupted:?}");
        assert!(report.log.is_empty(), "{corrupted:?}");
    }
}

/// A solve that runs out of budget reports the steps it took: one per
/// logged iteration, and `max_iter` in all. It used to report one fewer
/// (`max_iter: 3` on case9 read 2 iterations over 3 factorizations).
#[test]
fn iteration_budget_exhaustion_counts_every_step() {
    let net = gridsim_grid::case9().compile().unwrap();
    for max_iter in [1, 3] {
        let report = IpmSolver::new(IpmOptions {
            max_iter,
            ..Default::default()
        })
        .solve(&AcopfNlp::new(&net));
        assert_eq!(report.status, IpmStatus::MaxIterations);
        assert_eq!(report.iterations, max_iter);
        assert_eq!(report.log.len(), max_iter);
        assert_eq!(report.factorizations, max_iter);
    }
}

/// A NaN load set after `compile()` used to panic inside the solve (a
/// `clamp` with NaN bounds, after a watchdog step carried the NaN into the
/// iterate), which takes down every fleet lane and daemon chunk with it.
/// The NaN residual now ends the solve as a numerical error before any
/// factorization.
#[test]
fn nan_load_is_a_numerical_error_not_a_panic() {
    let mut net = gridsim_grid::case9().compile().unwrap();
    net.pd[4] = f64::NAN;
    let report = IpmSolver::default().solve(&AcopfNlp::new(&net));
    assert_eq!(report.status, IpmStatus::NumericalError);
    assert!(
        !report.kkt_error.is_finite(),
        "kkt_error {}",
        report.kkt_error
    );
    assert_eq!(report.iterations, 0);
    assert_eq!(report.factorizations, 0);
}

/// case9 at 1.45× load with branch 5 out (the `sweep` workload's
/// `case9_l1_p0_br5`) defeats the filter line search, and the watchdog's
/// trusted steps do not rescue it. The solve stops where it stalls, and the
/// report describes that one point: its objective is the last log record's,
/// and its primal infeasibility bounds the equality residual at `x`. The
/// feasibility-restoration phase this replaced moved `x` after the last
/// evaluation (objective 11 551.25 against the log's 11 554.28).
#[test]
fn a_stalled_solve_reports_the_point_it_stopped_at() {
    let set = ContingencySpec::load_grid(2, 0.95, 1.45)
        .outages(6, 2, 2)
        .expand(&gridsim_grid::case9());
    let index = set
        .scenarios
        .iter()
        .position(|s| s.name == "case9_l1_p0_br5")
        .unwrap();
    let net = set.networks().unwrap().swap_remove(index);
    let nlp = AcopfNlp::new(&net);
    let report = IpmSolver::default().solve(&nlp);
    assert_eq!(report.status, IpmStatus::Stalled);
    assert_eq!(report.iterations, 33);
    assert_eq!(report.log.len(), 34);
    let last = report.log.last().unwrap();
    assert_eq!(report.objective.to_bits(), last.objective.to_bits());
    assert_eq!(report.primal_infeasibility, last.primal_infeasibility);
    let mut ce = vec![0.0; nlp.num_eq()];
    nlp.eq_constraints(&report.x, &mut ce);
    let ce_inf = ce.iter().fold(0.0f64, |m, c| m.max(c.abs()));
    assert!(
        ce_inf <= report.primal_infeasibility,
        "‖c_E(x)‖∞ {ce_inf} above the reported {}",
        report.primal_infeasibility
    );
}
