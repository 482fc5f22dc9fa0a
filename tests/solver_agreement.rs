//! Workspace integration tests: the decomposed GPU-style ADMM solver and the
//! centralized interior-point baseline must agree on the embedded and
//! synthetic cases — the cross-check behind every number in Table II.
//!
//! Wall-clock policy (ROADMAP open item): the agreement cases run under
//! [`AdmmParams::test_profile`] — looser tolerances, tighter iteration caps,
//! same algorithm — so a debug `cargo test -q` stays fast. The expensive
//! full-tolerance (default-parameter) sweep runs in release builds always
//! and in debug builds only when the `GRIDADMM_FULL_TESTS` env var is set.

use gridadmm::prelude::*;
use gridsim_acopf::violations::relative_gap;

/// True when the full-tolerance (default-parameter) cases should run.
fn run_full_profile() -> bool {
    !cfg!(debug_assertions) || std::env::var("GRIDADMM_FULL_TESTS").is_ok()
}

fn compare_on(case: gridsim_grid::Case, params: AdmmParams, gap_tol: f64, viol_tol: f64) {
    let net = case.compile().expect("case compiles");

    let admm = AdmmSolver::new(params).solve(&net);
    assert!(
        admm.quality.max_violation() < viol_tol,
        "{}: ADMM violation {:.3e}",
        net.name,
        admm.quality.max_violation()
    );

    let nlp = AcopfNlp::new(&net);
    let ipm = IpmSolver::new(IpmOptions::default()).solve(&nlp);
    // The baseline must at least have produced a near-feasible point to
    // compare against (on a few of the synthetic cases it stops with a
    // slightly stale dual residual while already primal-feasible).
    assert!(
        ipm.is_optimal() || ipm.primal_infeasibility < 1e-2,
        "{}: baseline status {:?}, primal infeasibility {:.3e}",
        net.name,
        ipm.status,
        ipm.primal_infeasibility
    );

    let gap = relative_gap(admm.objective, ipm.objective);
    assert!(
        gap < gap_tol,
        "{}: objective gap {:.4}% (ADMM {:.2} vs IPM {:.2})",
        net.name,
        100.0 * gap,
        admm.objective,
        ipm.objective
    );
}

#[test]
fn agreement_on_two_bus() {
    compare_on(
        gridsim_grid::two_bus(),
        AdmmParams::test_profile(),
        0.01,
        1e-2,
    );
}

#[test]
fn agreement_on_case5() {
    // The PJM 5-bus case has purely linear costs and deliberately tight line
    // ratings; with the default (untuned) penalties the ADMM consensus
    // converges slowly, so only ballpark agreement is asserted here. The
    // penalty_sweep ablation covers the tuning story. Unlike the other
    // embedded cases, case5 needs the full inner-loop depth to make outer
    // progress, so only the tolerances come from the fast profile.
    let params = AdmmParams {
        max_inner: 1000,
        ..AdmmParams::test_profile()
    };
    compare_on(gridsim_grid::case5(), params, 0.05, 0.5);
}

#[test]
fn agreement_on_case9() {
    compare_on(
        gridsim_grid::case9(),
        AdmmParams::test_profile(),
        0.01,
        1e-2,
    );
}

#[test]
fn agreement_on_case14() {
    compare_on(
        gridsim_grid::case14(),
        AdmmParams::test_profile(),
        0.01,
        1e-2,
    );
}

/// The full-tolerance sweep with default (paper-profile) parameters over the
/// embedded agreement cases — the exact assertions the suite ran per-case
/// before the fast profile existed.
#[test]
fn full_profile_agreement_on_embedded_cases() {
    if !run_full_profile() {
        eprintln!("skipping full-tolerance agreement sweep (set GRIDADMM_FULL_TESTS=1)");
        return;
    }
    compare_on(gridsim_grid::two_bus(), AdmmParams::default(), 0.01, 1e-2);
    compare_on(gridsim_grid::case5(), AdmmParams::default(), 0.05, 0.5);
    compare_on(gridsim_grid::case9(), AdmmParams::default(), 0.005, 1e-2);
    compare_on(gridsim_grid::case14(), AdmmParams::default(), 0.01, 1e-2);
}

#[test]
fn agreement_on_synthetic_case30() {
    // Synthetic cases use the default penalties un-tuned, so the consensus
    // residual at the iteration cap is larger than for case9/case14 (the
    // paper likewise tunes Table I penalties per case). Assert the ADMM
    // side's quality, that the centralized baseline converges, and that the
    // two objectives land in the same ballpark.
    let net = gridsim_grid::case30_like().compile().unwrap();
    let admm = AdmmSolver::new(AdmmParams::test_profile()).solve(&net);
    assert!(
        admm.quality.max_violation() < 0.2,
        "ADMM violation {:.3e}",
        admm.quality.max_violation()
    );
    let nlp = AcopfNlp::new(&net);
    let ipm = IpmSolver::new(IpmOptions::default()).solve(&nlp);
    assert!(ipm.is_optimal(), "baseline status {:?}", ipm.status);
    assert!(
        relative_gap(admm.objective, ipm.objective) < 0.05,
        "objectives diverge: {} vs {}",
        admm.objective,
        ipm.objective
    );
}

#[test]
fn scaled_pegase_standin_runs_both_solvers() {
    // A 100-bus proportional stand-in of the 1354pegase case: exercises the
    // synthetic generator end-to-end with both solvers. With the default
    // (untuned) penalties the ADMM consensus is still loose within a bounded
    // iteration budget (the paper tunes Table I penalties per case for
    // exactly this reason), so its assertions are
    // structural: the run completes and dispatch respects the generator
    // boxes. The globalized baseline converges outright. (The
    // converged-quality pin for this case lives in
    // tests/scenario_batch.rs::pegase1354_scaled100_violation_does_not_regress.)
    let case = TableICase::Pegase1354.scaled(100);
    let net = case.compile().expect("case compiles");
    let params = AdmmParams {
        max_outer: 2,
        max_inner: 150,
        ..AdmmParams::default()
    };
    let admm = AdmmSolver::new(params).solve(&net);
    assert!(admm.objective.is_finite());
    for g in 0..net.ngen {
        assert!(admm.solution.pg[g] >= net.pmin[g] - 1e-9);
        assert!(admm.solution.pg[g] <= net.pmax[g] + 1e-9);
    }
    let nlp = AcopfNlp::new(&net);
    // The filter-globalized baseline converges on this case in ~20
    // iterations, so a bounded budget suffices for a full optimality check
    // (historically this case hit the 300-iteration cap and only a weak
    // infeasibility-reduction assertion was possible).
    let ipm = IpmSolver::new(IpmOptions {
        max_iter: 60,
        ..IpmOptions::default()
    })
    .solve(&nlp);
    assert!(ipm.objective.is_finite());
    assert!(ipm.is_optimal(), "baseline status {:?}", ipm.status);
    assert!(
        ipm.primal_infeasibility < 1e-5,
        "baseline infeasibility {:.3e}",
        ipm.primal_infeasibility
    );
}

#[test]
fn admm_scales_to_a_larger_synthetic_case_than_the_test_baseline() {
    // ADMM alone on a 200-bus synthetic case under a bounded iteration
    // budget: the point of the decomposition is that per-iteration work
    // scales with component count, so a fixed budget finishes quickly even
    // where running the centralized baseline (or converging the untuned
    // penalties) would not. Assertions are structural: the batch kernels
    // cover every component, dispatch respects the generator boxes, and the
    // iteration budget is exhausted without numerical failure.
    let case = TableICase::Pegase2869.scaled(200);
    let net = case.compile().expect("case compiles");
    let params = AdmmParams {
        max_outer: 1,
        max_inner: 150,
        ..AdmmParams::default()
    };
    let solver = AdmmSolver::new(params);
    let result = solver.solve(&net);
    assert!(result.objective.is_finite());
    assert!(result.inner_iterations >= 150);
    for g in 0..net.ngen {
        assert!(result.solution.pg[g] >= net.pmin[g] - 1e-9);
        assert!(result.solution.pg[g] <= net.pmax[g] + 1e-9);
    }
    // One branch-TRON block per branch per inner iteration was launched.
    let stats = solver.device.stats().snapshot();
    assert_eq!(
        stats.kernels["branch_tron"].blocks,
        (net.nbranch * result.inner_iterations) as u64
    );
}

#[test]
fn admm_solution_respects_all_bounds() {
    let net = gridsim_grid::case14().compile().unwrap();
    let result = AdmmSolver::new(AdmmParams::test_profile()).solve(&net);
    let sol = &result.solution;
    for b in 0..net.nbus {
        assert!(sol.vm[b] >= net.vmin[b] - 1e-6);
        assert!(sol.vm[b] <= net.vmax[b] + 1e-6);
    }
    for g in 0..net.ngen {
        assert!(sol.pg[g] >= net.pmin[g] - 1e-9);
        assert!(sol.pg[g] <= net.pmax[g] + 1e-9);
        assert!(sol.qg[g] >= net.qmin[g] - 1e-9);
        assert!(sol.qg[g] <= net.qmax[g] + 1e-9);
    }
}

#[test]
fn line_limits_respected_within_margin() {
    // The solver tightens limits to 99 % of capacity internally, so the
    // extracted flows must respect the true ratings up to the consensus
    // error.
    let net = gridsim_grid::case9().compile().unwrap();
    let result = AdmmSolver::new(AdmmParams::test_profile()).solve(&net);
    let flows = result.solution.branch_flows(&net);
    for l in 0..net.nbranch {
        if !net.rate_a[l].is_finite() {
            continue;
        }
        let s_from = (flows.pij[l].powi(2) + flows.qij[l].powi(2)).sqrt();
        let s_to = (flows.pji[l].powi(2) + flows.qji[l].powi(2)).sqrt();
        assert!(
            s_from <= net.rate_a[l] * 1.005,
            "branch {l} from-side loading {s_from} exceeds {}",
            net.rate_a[l]
        );
        assert!(s_to <= net.rate_a[l] * 1.005);
    }
}
