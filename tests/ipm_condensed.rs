//! Integration tests for the condensed-space KKT path of the
//! interior-point baseline: objectives pinned on real ACOPF cases,
//! symbolic-reuse accounting (one analysis per NLP, one per tracking
//! horizon, one per cache over perturbed scenarios), the
//! scalar-replay vs dense-tail refactorization micro-benchmark
//! `perf` trusts for `sparse.refactor_ms` / `sparse.refactor_scalar_ms`,
//! and the release-gated reference-case rows.
//!
//! The pins are the objectives the full augmented-KKT solve reached on the
//! same cases; the condensed solve matched them to 11 significant figures.
//! They are held at the 1e-5 relative tolerance the two paths were once
//! compared at. (`kkt_condensed`'s unit tests keep the full system as the
//! reference for the condensed Newton step itself.)

use gridadmm::prelude::*;
use gridsim_acopf::start::ramp_limited_bounds;
use gridsim_acopf::violations::relative_gap;
use gridsim_grid::{LoadProfile, ScenarioSet, TableICase};
use gridsim_ipm::{Nlp, SolveReport};

const CASE9_OBJECTIVE: f64 = 5_297.406_739_9;
const CASE14_OBJECTIVE: f64 = 8_053.138_967_8;
const CASE30_LIKE_OBJECTIVE: f64 = 50_018.474_318;

fn assert_pinned(name: &str, report: &SolveReport, pin: f64) {
    assert!(report.is_optimal(), "{name}: status {:?}", report.status);
    let gap = relative_gap(report.objective, pin);
    assert!(
        gap < 1e-5,
        "{name}: objective {} vs pinned {pin} (gap {gap:e})",
        report.objective
    );
}

/// The condensed solve of `case9` reaches the pinned optimum and pays one
/// symbolic analysis while refactorizing every Newton step. The
/// refactorization micro-benchmark behind `perf`'s `sparse.refactor_*`
/// probes must run on that production matrix and agree bit for bit.
#[test]
fn condensed_agrees_with_full_on_case9() {
    let net = gridsim_grid::case9().compile().unwrap();
    let nlp = AcopfNlp::new(&net);
    let mut cache = KktCache::new();
    let condensed = IpmSolver::default().solve_with_cache(&nlp, &mut cache);
    assert_pinned("case9", &condensed, CASE9_OBJECTIVE);
    assert_eq!(condensed.symbolic_analyses, 1);
    assert!(condensed.factorizations > condensed.symbolic_analyses);
    let micro = cache
        .refactor_microbench(2)
        .expect("condensed solve factorized at least once");
    assert!(
        micro.bitwise_identical,
        "dense-tail refactorization diverged"
    );
    assert!(micro.dim < nlp.num_vars() + 2 * nlp.num_ineq() + nlp.num_eq());
    assert!((1..=micro.dim).contains(&micro.supernodes));
    // The cache describes the system it froze, and the micro-benchmark ran
    // on that system.
    let stats = cache.symbolic_stats().expect("a condensed solve analyzed");
    assert_eq!(stats.dim, nlp.num_vars() + nlp.num_eq());
    assert_eq!((stats.dim, stats.supernodes), (micro.dim, micro.supernodes));
    assert!((1..=stats.dim).contains(&stats.dense_tail));
    assert!(
        stats.lnz >= (stats.nnz - stats.dim) / 2,
        "L holds at least A's lower triangle"
    );
    assert!((1..=stats.dim).contains(&stats.levels));
    assert!(KktCache::new().symbolic_stats().is_none());
}

#[test]
fn condensed_agrees_with_full_on_case14() {
    let net = gridsim_grid::case14().compile().unwrap();
    let condensed = IpmSolver::default().solve(&AcopfNlp::new(&net));
    assert_pinned("case14", &condensed, CASE14_OBJECTIVE);
    assert_eq!(condensed.symbolic_analyses, 1);
}

/// The frozen pattern comes from the model's declared structure, so no
/// coordinate can appear mid-solve: every cold solve pays exactly one
/// symbolic analysis, and one cache carried over three load-perturbed
/// scenarios pays one in total. `case14` used to pay two per cold solve —
/// a unit-multiplier probe at the flat start read ∂²/∂vm₃∂va₄ as an exact
/// zero and pruned it, and the pattern grew when an iterate made it
/// nonzero.
#[test]
fn every_cold_solve_pays_one_symbolic_analysis() {
    for (name, case) in [
        ("case9", gridsim_grid::case9()),
        ("case14", gridsim_grid::case14()),
        ("case30_like", gridsim_grid::case30_like()),
        ("pegase1354/100", TableICase::Pegase1354.scaled(100)),
        ("pegase1354/200", TableICase::Pegase1354.scaled(200)),
    ] {
        let net = case.clone().compile().unwrap();
        let cold = IpmSolver::default().solve(&AcopfNlp::new(&net));
        assert!(cold.is_optimal(), "{name}: status {:?}", cold.status);
        assert_eq!(cold.symbolic_analyses, 1, "{name}: cold solve");

        let mut cache = KktCache::new();
        let scenarios = ScenarioSet::perturbed_loads(case, 3, 0.02, 7);
        for net in scenarios.networks().unwrap() {
            let report = IpmSolver::default().solve_with_cache(&AcopfNlp::new(&net), &mut cache);
            assert!(report.is_optimal(), "{name}: status {:?}", report.status);
        }
        assert_eq!(cache.symbolic_analyses(), 1, "{name}: three scenarios");
    }
}

/// A rolling-horizon IPM reference trajectory reuses one symbolic analysis
/// across all periods: every period's condensed system has the same frozen
/// pattern, and the shared cache recognizes it.
#[test]
fn tracking_horizon_reuses_one_symbolic_analysis() {
    let base = gridsim_grid::case9();
    let profile = LoadProfile {
        multipliers: vec![1.0, 1.01, 1.02, 1.015],
        period_minutes: 1.0,
    };
    let ipm = IpmSolver::default();
    let mut cache = KktCache::new();
    let mut prev: Option<(Vec<f64>, Vec<f64>)> = None;
    let mut total_factorizations = 0usize;
    for &mult in &profile.multipliers {
        let case_t = base.scale_load(mult);
        let net_t = case_t.compile().unwrap();
        let nlp = match &prev {
            Some((_, prev_pg)) => {
                let (lo, hi) = ramp_limited_bounds(&net_t, prev_pg, 0.02);
                AcopfNlp::new(&net_t).with_pg_bounds(lo, hi)
            }
            None => AcopfNlp::new(&net_t),
        };
        let report = match &prev {
            Some((x, _)) => ipm.solve_warm(&nlp, &mut cache, &IpmWarmStart::primal(x.clone())),
            None => ipm.solve_with_cache(&nlp, &mut cache),
        };
        assert!(report.is_optimal(), "period status {:?}", report.status);
        total_factorizations += report.factorizations;
        let sol = nlp.to_solution(&report.x);
        prev = Some((report.x.clone(), sol.pg.clone()));
    }
    assert!(
        cache.symbolic_analyses() == 1,
        "horizon of {} periods paid {} symbolic analyses",
        profile.len(),
        cache.symbolic_analyses()
    );
    assert!(
        total_factorizations > profile.len() * 3,
        "factorizations {} should dwarf the analysis count",
        total_factorizations
    );
    assert!(cache.numeric_refactorizations() >= total_factorizations);
}

/// Release guard for the convergence bugfix on the scaled synthetic registry:
/// every Table I stand-in at scale 100 must converge to optimality, well
/// inside the iteration cap. These cases historically hit the 300-iteration
/// cap under both the full and the condensed KKT; the cure was the
/// filter line-search globalization plus electrical consistency in the
/// synthetic generator (impedance coupled to thermal rating, no tight ratings
/// on spanning-tree bridges). A regression back to cap-limited non-convergence
/// fails this loudly rather than silently re-poisoning the tracking story.
#[test]
fn scaled_registry_cases_converge_under_condensed() {
    if cfg!(debug_assertions) && std::env::var("GRIDADMM_FULL_TESTS").is_err() {
        eprintln!("skipping full-tolerance regression case (set GRIDADMM_FULL_TESTS=1)");
        return;
    }
    for tc in gridsim_grid::TableICase::all() {
        let net = tc.scaled(100).compile().unwrap();
        let nlp = AcopfNlp::new(&net);
        let opts = IpmOptions::default();
        let report = IpmSolver::new(opts.clone()).solve(&nlp);
        assert!(
            report.is_optimal(),
            "{} scaled100: status {:?}, pinf {:.3e}",
            tc.name(),
            report.status,
            report.primal_infeasibility
        );
        assert!(
            report.iterations < opts.max_iter,
            "{} scaled100: hit the iteration cap",
            tc.name()
        );
        // The fixed cases are easy enough that convergence is fast, not
        // merely under the cap — guard against slow decay too.
        assert!(
            report.iterations <= 60,
            "{} scaled100: {} iterations (expected ~20)",
            tc.name(),
            report.iterations
        );
    }
}

/// Release guard for the reference-case rows (`perf`'s `ipm_fleet` probes
/// record the same counters as `ipm.*` / `sparse.*` metrics): every case
/// reaches its pinned objective on one symbolic analysis, and the
/// dense-tail refactorization of its final system is bit-identical to the
/// scalar replay. Expensive in debug, so gated like the other
/// full-tolerance sweeps.
#[test]
fn kkt_comparison_rows_hold_on_reference_cases() {
    if cfg!(debug_assertions) && std::env::var("GRIDADMM_FULL_TESTS").is_err() {
        eprintln!("skipping full-tolerance regression case (set GRIDADMM_FULL_TESTS=1)");
        return;
    }
    for (name, case, pin) in [
        ("case9", gridsim_grid::case9(), CASE9_OBJECTIVE),
        ("case14", gridsim_grid::case14(), CASE14_OBJECTIVE),
        (
            "case30_like",
            gridsim_grid::case30_like(),
            CASE30_LIKE_OBJECTIVE,
        ),
    ] {
        let net = case.compile().unwrap();
        let nlp = AcopfNlp::new(&net);
        let mut cache = KktCache::new();
        let condensed = IpmSolver::default().solve_with_cache(&nlp, &mut cache);
        let micro = cache
            .refactor_microbench(20)
            .expect("condensed solve factorized at least once");
        let full_dim = nlp.num_vars() + 2 * nlp.num_ineq() + nlp.num_eq();
        eprintln!(
            "{name}: condensed {}x{} (full {full_dim}x{full_dim}) {:.3}s / {} fact, {} symbolic; \
             {} supernodes, dense tail {}, refactorization {:.2}x vs scalar",
            micro.dim,
            micro.dim,
            condensed.solve_time.as_secs_f64(),
            condensed.factorizations,
            condensed.symbolic_analyses,
            micro.supernodes,
            cache.symbolic_stats().unwrap().dense_tail,
            micro.speedup(),
        );
        // The speedup is only meaningful at bit-identical factors; the
        // micro-benchmark verifies that on the production matrix.
        assert!(
            micro.bitwise_identical,
            "{name}: dense-tail refactorization diverged from the scalar replay"
        );
        assert_pinned(name, &condensed, pin);
        assert!(micro.dim < full_dim, "{name}: no condensation");
        assert_eq!(condensed.symbolic_analyses, 1, "{name}");
        assert!(condensed.factorizations > condensed.symbolic_analyses);
    }
}

/// The dense-tail refactorization is bit-identical to the scalar replay on
/// the condensed systems of the Pegase1354 stand-ins at every scale the
/// benchmark and the scaling notes quote — 439 to 3 509 dimensions, the
/// dense tail growing with them. Release-gated: the /800 solve is seconds
/// in debug.
#[test]
fn dense_tail_refactorization_is_bitwise_on_pegase_stand_ins() {
    if cfg!(debug_assertions) && std::env::var("GRIDADMM_FULL_TESTS").is_err() {
        eprintln!("skipping full-tolerance regression case (set GRIDADMM_FULL_TESTS=1)");
        return;
    }
    for scale in [100, 200, 400, 800] {
        let net = TableICase::Pegase1354.scaled(scale).compile().unwrap();
        let mut cache = KktCache::new();
        let report = IpmSolver::default().solve_with_cache(&AcopfNlp::new(&net), &mut cache);
        assert!(report.is_optimal(), "/{scale}: {:?}", report.status);
        let micro = cache.refactor_microbench(3).unwrap();
        let stats = cache.symbolic_stats().unwrap();
        eprintln!(
            "pegase1354/{scale}: dim {}, dense tail {}, refactorization {:.2}x vs scalar",
            stats.dim,
            stats.dense_tail,
            micro.speedup()
        );
        assert!(micro.bitwise_identical, "/{scale}");
        assert!(stats.dense_tail > 4, "/{scale}: {stats:?}");
    }
}
