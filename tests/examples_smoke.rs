//! Smoke tests exercising the core path of each file in `examples/`, so the
//! examples cannot silently rot: if an API they use changes shape or a case
//! they load stops compiling, these fail at `cargo test` time rather than
//! only at `cargo build --examples` (structure) or never (behavior).
//!
//! Each test mirrors one example, scaled down so the whole file runs in
//! seconds under the debug profile.

use gridadmm::prelude::*;
use gridsim_acopf::violations::relative_gap;
use gridsim_admm::{track_horizon, TrackingConfig};
use gridsim_engine::FleetRequest;
use gridsim_grid::matpower;

/// The everything-admitted fleet on one device.
fn one_device(params: AdmmParams, device: Device) -> ScenarioScheduler {
    ScenarioScheduler::with_pool(params, DevicePool::single(device))
}

/// `examples/quickstart.rs`: ADMM solve vs IPM baseline on the 9-bus case.
#[test]
fn quickstart_core_path() {
    let net = gridsim_grid::case9().compile().expect("case9 compiles");
    let admm = AdmmSolver::new(AdmmParams::test_profile());
    let result = admm.solve(&net);
    assert!(
        result.quality.max_violation() < 1e-2,
        "ADMM solution grossly infeasible: {}",
        result.quality.max_violation()
    );

    let nlp = AcopfNlp::new(&net);
    let ipm = IpmSolver::new(IpmOptions::default()).solve(&nlp);
    assert!(ipm.objective.is_finite());
    let gap = relative_gap(result.objective, ipm.objective);
    assert!(gap < 0.05, "ADMM vs IPM objective gap too large: {gap}");

    // The quickstart also inspects device statistics; they must be live.
    assert!(admm.device.stats().snapshot().total_launches() > 0);
}

/// `examples/matpower_io.rs`: write an embedded case to disk as MATPOWER
/// text, read it back, compile, and solve.
#[test]
fn matpower_io_core_path() {
    let original = gridsim_grid::case14();
    let text = matpower::write_case(&original);
    let path = std::env::temp_dir().join("gridadmm_smoke_case14.m");
    std::fs::write(&path, &text).expect("write temp case");
    let reread = matpower::read_case(&path).expect("round-trip parse");
    std::fs::remove_file(&path).ok();

    let net = original.compile().unwrap();
    let net2 = reread.compile().unwrap();
    assert_eq!(net.nbus, net2.nbus);
    assert_eq!(net.nbranch, net2.nbranch);
    assert_eq!(net.ngen, net2.ngen);
    assert!((net.total_pd() - net2.total_pd()).abs() < 1e-9);
}

/// `examples/warm_start_tracking.rs`: short tracking horizon with warm
/// starts and ramp limits for ADMM, plus the condensed-KKT interior-point
/// reference sharing one horizon-wide `KktCache`.
#[test]
fn warm_start_tracking_core_path() {
    let case = gridsim_grid::case9();
    let profile = LoadProfile::paper_window(7, 3, 0.03);
    let config = TrackingConfig {
        params: AdmmParams::test_profile(),
        ..TrackingConfig::default()
    };
    let (periods, last) = track_horizon(&case, &profile, &config);
    assert_eq!(periods.len(), profile.len());
    // Cumulative time is monotone and period metadata is coherent.
    for (t, p) in periods.iter().enumerate() {
        assert_eq!(p.period, t);
        assert!(p.max_violation < 1e-2, "period {t}: {}", p.max_violation);
        if t > 0 {
            assert!(p.cumulative_time >= periods[t - 1].cumulative_time);
        }
    }
    assert_eq!(last.solution.pg.len(), case.compile().unwrap().ngen);

    // The interior-point side of the example: every period re-solves the
    // same structure through one cache, so the whole horizon costs exactly
    // one symbolic analysis while factorizations keep accruing per period.
    let ipm = IpmSolver::default();
    let mut cache = KktCache::new();
    let mut prev: Option<(Vec<f64>, Vec<f64>)> = None;
    let mut factorizations = 0usize;
    for &mult in &profile.multipliers {
        let net_t = case.scale_load(mult).compile().unwrap();
        let nlp = match &prev {
            Some((_, prev_pg)) => {
                let (lo, hi) = gridsim_acopf::start::ramp_limited_bounds(
                    &net_t,
                    prev_pg,
                    config.ramp_fraction,
                );
                AcopfNlp::new(&net_t).with_pg_bounds(lo, hi)
            }
            None => AcopfNlp::new(&net_t),
        };
        let report = match &prev {
            Some((x, _)) => ipm.solve_warm(&nlp, &mut cache, &IpmWarmStart::primal(x.clone())),
            None => ipm.solve_with_cache(&nlp, &mut cache),
        };
        assert!(report.is_optimal(), "reference period failed to converge");
        factorizations += report.factorizations;
        let pg = nlp.to_solution(&report.x).pg;
        prev = Some((report.x, pg));
    }
    assert_eq!(
        cache.symbolic_analyses(),
        1,
        "horizon must share one analysis"
    );
    assert!(
        factorizations > profile.len(),
        "factorizations accrue per period"
    );
    assert_eq!(cache.numeric_refactorizations(), factorizations);

    // The solution-store side of the example: one store threaded across the
    // horizon. Period 0 misses (empty store), every later period hits its
    // nearest predecessor, and the seeded solves never cost more iterations
    // than the cold ones.
    let mut store: SolutionStore<IpmWarmStart> = SolutionStore::new();
    let mut stats = StoreRunStats::default();
    let mut stored_iterations = 0usize;
    let mut cold_iterations = 0usize;
    let fleet = IpmFleetSolver::new(IpmOptions::default());
    for &mult in &profile.multipliers {
        let net_t = case.scale_load(mult).compile().unwrap();
        cold_iterations += IpmSolver::default()
            .solve(&AcopfNlp::new(&net_t))
            .iterations;
        let report = fleet.run(
            FleetRequest::over(std::slice::from_ref(&net_t))
                .case(&case.name)
                .store(&mut store),
        );
        assert!(report.all_optimal(), "store-threaded period failed");
        stats.merge(&report.store);
        stored_iterations += report.total_iterations();
    }
    assert_eq!(stats.misses, 1, "only the cold first period misses");
    assert_eq!(stats.hits, profile.len() - 1);
    assert_eq!(store.len(), profile.len());
    assert!(
        stored_iterations <= cold_iterations,
        "store-threaded horizon cost more iterations ({stored_iterations}) than cold \
         ({cold_iterations})"
    );
}

/// `examples/synthetic_scaling.rs`: a scaled Table-I-style synthetic case
/// compiles and the solver runs on it. Iterations are capped: the example
/// demonstrates scaling structure, and full convergence at example sizes is
/// too slow for the debug-profile test suite (the tracking and agreement
/// suites cover convergence on the embedded cases).
#[test]
fn synthetic_scaling_core_path() {
    let case = TableICase::Pegase1354.scaled(30);
    let net = case.compile().expect("synthetic case compiles");
    assert_eq!(net.nbus, 30);
    assert!(net.nbranch >= net.nbus, "Table-I cases are meshed");
    let params = AdmmParams {
        max_outer: 3,
        max_inner: 150,
        ..AdmmParams::default()
    };
    let result = AdmmSolver::new(params).solve(&net);
    assert!(result.objective.is_finite());
    assert!(result.inner_iterations > 0);
}

/// `examples/scenario_batch.rs`: a mixed scenario set solved through the
/// batched driver, bitwise identical to per-scenario solves.
#[test]
fn scenario_batch_core_path() {
    let base = gridsim_grid::case9();
    let mut set = ScenarioSet::load_ramp(base.clone(), 2, 0.98, 1.02);
    set.extend(ScenarioSet::branch_outages(base, 1));
    let nets = set.networks().expect("scenario cases compile");
    assert_eq!(nets.len(), 3);
    let batcher = one_device(AdmmParams::test_profile(), Device::default());
    let batch = batcher.run(FleetRequest::over(&nets));
    assert!(batch.all_converged(), "worst {}", batch.worst_violation());
    let single = AdmmSolver::new(AdmmParams::test_profile()).solve(&nets[0]);
    assert_eq!(batch.results[0].solution.pg, single.solution.pg);
    // Chaining reuses warm states across the set: same two scenarios, cold
    // batch vs warm chain.
    let chained = batcher.solve_chained(&nets[..2], &single.warm_state, 0.05);
    let cold2 = batcher.run(FleetRequest::over(&nets[..2]));
    assert_eq!(chained.results.len(), 2);
    assert!(chained.total_inner_iterations() < cold2.total_inner_iterations());
}
