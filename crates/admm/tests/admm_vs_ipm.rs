//! Crate-level integration tests: the ADMM solver against the interior-point
//! baseline (dev-dependency) on the embedded cases, exercising the exact
//! metric definitions used by Table II.

use gridsim_acopf::violations::{relative_gap, SolutionQuality};
use gridsim_admm::{AdmmParams, AdmmSolver};
use gridsim_ipm::{AcopfNlp, IpmOptions, IpmSolver};

#[test]
fn table2_metrics_on_case9() {
    let net = gridsim_grid::case9().compile().unwrap();

    let admm = AdmmSolver::new(AdmmParams::default()).solve(&net);
    let nlp = AcopfNlp::new(&net);
    let ipm = IpmSolver::new(IpmOptions::default()).solve(&nlp);
    assert!(ipm.is_optimal());

    // The metrics of Table II: ||c(x)||_inf and |f - f*|/f*.
    let violation = admm.quality.max_violation();
    let gap = relative_gap(admm.objective, ipm.objective);
    assert!(violation < 1e-2, "violation {violation:.3e}");
    assert!(gap < 5e-3, "gap {:.4}%", 100.0 * gap);

    // The quality struct must agree with a fresh evaluation of the solution.
    let re_eval = SolutionQuality::evaluate(&net, &admm.solution);
    assert!((re_eval.max_violation() - violation).abs() < 1e-12);

    // Iteration count lands in the order of magnitude the paper reports for
    // small cases (hundreds to a few thousand inner iterations).
    assert!(admm.inner_iterations >= 100 && admm.inner_iterations <= 20_000);
}

#[test]
fn penalty_scaling_changes_convergence_but_not_the_answer() {
    // Ablation B in miniature: the penalty magnitude changes how the
    // iterations are spent (the direction is case-dependent — Section V of
    // the paper calls penalty selection an open tuning problem), but both
    // settings must land on the same economic dispatch to within the
    // consensus tolerance.
    let net = gridsim_grid::case9().compile().unwrap();
    let nlp = AcopfNlp::new(&net);
    let f_star = IpmSolver::new(IpmOptions::default()).solve(&nlp).objective;

    let small = AdmmSolver::new(AdmmParams::default().scaled_penalties(0.5)).solve(&net);
    let large = AdmmSolver::new(AdmmParams::default().scaled_penalties(10.0)).solve(&net);

    assert_ne!(
        small.inner_iterations, large.inner_iterations,
        "different penalties should change the iteration count"
    );
    // Both remain reasonable solutions close to the baseline optimum.
    assert!(
        relative_gap(small.objective, f_star) < 0.05,
        "small-penalty gap"
    );
    assert!(
        relative_gap(large.objective, f_star) < 0.05,
        "large-penalty gap"
    );
    assert!(small.quality.max_violation() < 5e-2);
    assert!(large.quality.max_violation() < 5e-2);
}
