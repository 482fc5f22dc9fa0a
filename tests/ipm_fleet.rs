//! Integration suite for the interior-point scenario fleet on the
//! execution engine: one symbolic analysis per structure shared by every
//! lane and run, warm-start chaining, the sequential-loop identity, and the
//! env-driven device count the CI matrix sweeps (`GRIDSIM_DEVICES=1|2|4`).
//!
//! The fleet's anchor invariants, both proptest-guarded below:
//!
//! * at **one device and one lane** the fleet is *bitwise identical* to a
//!   hand-written sequential `solve_with_cache` loop threading one
//!   `KktCache` and the previous solve's primal/dual point and bound
//!   multipliers — the engine adds exactly nothing to the arithmetic,
//! * across **any device/lane configuration** the per-scenario reports
//!   stay *report-identical to solver tolerance*: every scenario optimal,
//!   same objective to tolerance, while symbolic analyses equal the number
//!   of distinct structures (one for a load ramp), billed to the same
//!   scenarios in every configuration.

use gridadmm::prelude::*;
use gridsim_engine::{plan, FleetRequest};
use gridsim_ipm::{IpmStatus, SolveReport};
use proptest::prelude::*;

/// The fleet built from the environment honors the device count and the
/// resolved launch backend the CI matrix sets, and its report invariants
/// hold under that pool.
#[test]
fn env_engine_fleet_honors_gridsim_devices() {
    let expected = std::env::var("GRIDSIM_DEVICES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    let solver = IpmFleetSolver::new(IpmOptions::default());
    assert_eq!(
        solver.engine.pool().len(),
        expected,
        "engine must honor GRIDSIM_DEVICES"
    );
    assert_eq!(
        solver.engine.pool().backend(),
        ExecutionMode::Auto.resolve(),
        "engine must honor GRIDSIM_BACKEND"
    );
    let nets = ScenarioSet::load_ramp(gridsim_grid::cases::case9(), 4, 0.98, 1.02)
        .networks()
        .unwrap();
    let fleet = solver.run(FleetRequest::over(&nets));
    assert_eq!(fleet.results.len(), 4);
    assert!(fleet.all_optimal());
    assert_eq!(fleet.lanes, solver.engine.total_lanes(4));
    assert_eq!(fleet.symbolic_analyses(), 1);
}

/// A 1-scenario fleet reproduces a plain `IpmSolver::solve` bitwise — the
/// engine's K=1 anchor for the interior-point family.
#[test]
fn k1_fleet_equals_single_solve() {
    let net = gridsim_grid::cases::case14().compile().unwrap();
    let single = IpmSolver::default().solve(&AcopfNlp::new(&net));
    for devices in [1, 3] {
        let engine = Engine::with_pool(DevicePool::parallel(devices));
        let fleet = IpmFleetSolver::with_engine(IpmOptions::default(), engine)
            .run(FleetRequest::over(std::slice::from_ref(&net)));
        assert_eq!(fleet.results.len(), 1);
        let r = &fleet.results[0].report;
        assert_eq!(r.iterations, single.iterations);
        assert_eq!(r.factorizations, single.factorizations);
        assert_eq!(r.symbolic_analyses, single.symbolic_analyses);
        assert_eq!(r.objective.to_bits(), single.objective.to_bits());
        for (a, b) in r.x.iter().zip(&single.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// The bits of everything a solve reports except its analysis count.
fn report_bits(r: &SolveReport) -> (IpmStatus, usize, usize, Vec<u64>) {
    let bits = [r.objective]
        .iter()
        .chain(&r.x)
        .chain(&r.lambda_eq)
        .chain(&r.lambda_ineq)
        .chain(&r.zl)
        .chain(&r.zu)
        .map(|v| v.to_bits())
        .collect();
    (r.status, r.iterations, r.factorizations, bits)
}

/// One symbolic analysis per structure, whatever the configuration: every
/// lane on every device shares the solver's frozen system, the analysis is
/// billed to the same scenario in every configuration, and a second run on
/// the same solver pays none while reproducing the first run bitwise.
#[test]
fn symbolic_analyses_are_one_per_structure_across_configs() {
    let nets = ScenarioSet::load_ramp(gridsim_grid::cases::case9(), 5, 0.98, 1.02)
        .networks()
        .unwrap();
    let mut billing: Option<Vec<usize>> = None;
    for devices in [1, 2, 3] {
        for lanes in [Some(1), Some(2), None] {
            let config = format!("devices={devices} lanes={lanes:?}");
            let mut engine = Engine::with_pool(DevicePool::parallel(devices));
            if let Some(l) = lanes {
                engine = engine.with_lanes(l);
            }
            let solver = IpmFleetSolver::with_engine(IpmOptions::default(), engine);
            let fleet = solver.run(FleetRequest::over(&nets));
            assert!(fleet.all_optimal(), "{config}");
            assert_eq!(fleet.lanes, plan::total_lanes(nets.len(), devices, lanes));
            assert_eq!(fleet.symbolic_analyses(), 1, "{config}");
            assert_eq!(fleet.frozen.len(), 1, "{config}");
            let billed: Vec<usize> = fleet
                .results
                .iter()
                .map(|r| r.report.symbolic_analyses)
                .collect();
            assert_eq!(
                billing.get_or_insert_with(|| billed.clone()),
                &billed,
                "{config}"
            );

            let again = solver.run(FleetRequest::over(&nets));
            assert_eq!(again.symbolic_analyses(), 0, "{config}: the rerun");
            assert_eq!(again.frozen, fleet.frozen, "{config}");
            for (a, b) in again.results.iter().zip(&fleet.results) {
                assert_eq!(report_bits(&a.report), report_bits(&b.report), "{config}");
            }
        }
    }
    assert_eq!(billing.unwrap(), [1, 0, 0, 0, 0]);
}

proptest! {
    // Few cases: each one runs several full interior-point solves.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// At 1 device / 1 lane the fleet is bitwise identical to the
    /// sequential `solve_with_cache` loop it replaces: one shared cache,
    /// each solve warm-started from the previous primal/dual point.
    #[test]
    fn fleet_at_one_lane_is_bitwise_identical_to_sequential_cache_loop(
        seed in 0u64..1000,
        k in 1usize..4,
        sigma in 0.005f64..0.03,
    ) {
        let set = ScenarioSet::perturbed_loads(gridsim_grid::cases::case9(), k, sigma, seed);
        let nets = set.networks().unwrap();
        let engine = Engine::with_pool(DevicePool::parallel(1)).with_lanes(1);
        let fleet = IpmFleetSolver::with_engine(IpmOptions::default(), engine).run(FleetRequest::over(&nets));
        prop_assert_eq!(fleet.results.len(), k);
        prop_assert_eq!(fleet.lanes, 1);

        let mut cache = KktCache::new();
        let mut warm_x: Option<Vec<f64>> = None;
        let mut warm_lambda: Option<Vec<f64>> = None;
        let mut warm_z: Option<(Vec<f64>, Vec<f64>)> = None;
        for (i, net) in nets.iter().enumerate() {
            let nlp = AcopfNlp::new(net);
            let options = IpmOptions {
                initial_point: warm_x.take(),
                initial_multipliers: warm_lambda.take(),
                initial_bound_multipliers: warm_z.take(),
                ..Default::default()
            };
            let reference = IpmSolver::new(options).solve_with_cache(&nlp, &mut cache);

            let r = &fleet.results[i].report;
            prop_assert_eq!(r.status, reference.status, "scenario {}", i);
            prop_assert_eq!(r.iterations, reference.iterations);
            prop_assert_eq!(r.factorizations, reference.factorizations);
            prop_assert_eq!(r.symbolic_analyses, reference.symbolic_analyses);
            prop_assert_eq!(r.objective.to_bits(), reference.objective.to_bits());
            prop_assert_eq!(r.x.len(), reference.x.len());
            for (a, b) in r.x.iter().zip(&reference.x) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in r.lambda_eq.iter().zip(&reference.lambda_eq) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }

            warm_x = Some(reference.x.clone());
            warm_lambda = Some(
                reference
                    .lambda_eq
                    .iter()
                    .chain(reference.lambda_ineq.iter())
                    .copied()
                    .collect(),
            );
            warm_z = Some((reference.zl.clone(), reference.zu.clone()));
        }
        // One lane, one chain, one analysis.
        prop_assert_eq!(cache.symbolic_analyses(), 1);
        prop_assert_eq!(fleet.symbolic_analyses(), 1);
    }

    /// Across device counts and lane caps the fleet stays report-identical
    /// to solver tolerance: which lane a scenario streams through decides
    /// its warm start (so iterates differ bitwise), but every scenario
    /// converges to the same optimum, and the one analysis is billed to the
    /// first scenario.
    #[test]
    fn fleet_reports_are_invariant_across_device_and_lane_choices(
        seed in 0u64..1000,
        k in 2usize..5,
        devices in 1usize..4,
        lanes in 1usize..3,
    ) {
        let set = ScenarioSet::perturbed_loads(gridsim_grid::cases::case9(), k, 0.02, seed);
        let nets = set.networks().unwrap();
        let reference = IpmFleetSolver::with_engine(
            IpmOptions::default(),
            Engine::with_pool(DevicePool::parallel(1)).with_lanes(1),
        )
        .run(FleetRequest::over(&nets));
        prop_assert!(reference.all_optimal());

        let engine = Engine::with_pool(DevicePool::parallel(devices)).with_lanes(lanes);
        let fleet = IpmFleetSolver::with_engine(IpmOptions::default(), engine).run(FleetRequest::over(&nets));
        prop_assert!(fleet.all_optimal(), "devices={} lanes={}", devices, lanes);
        prop_assert_eq!(fleet.lanes, plan::total_lanes(k, devices, Some(lanes)));
        prop_assert_eq!(fleet.symbolic_analyses(), 1);
        for (a, b) in fleet.results.iter().zip(&reference.results) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.report.symbolic_analyses, b.report.symbolic_analyses);
            prop_assert_eq!(a.report.status, b.report.status);
            let gap = (a.report.objective - b.report.objective).abs()
                / b.report.objective.abs().max(1.0);
            prop_assert!(gap < 1e-6, "{}: objective gap {}", a.name, gap);
            prop_assert!(a.quality.max_violation() < 1e-5);
        }
    }
}

/// A start seeded with a converged donor's bound multipliers keeps the
/// donor's point instead of being pushed back into the interior. At 2 % load
/// noise every admission that rides the lane chain or a store hit converges
/// in at most three Newton steps (the 1e-2 push cost five or six), to the
/// optimum a separate cold solve of the same scenario finds.
#[test]
fn donor_seeded_admissions_converge_in_three_steps() {
    for (name, case) in [
        ("case9", gridsim_grid::cases::case9()),
        ("case14", gridsim_grid::cases::case14()),
    ] {
        let generation = |seed| {
            ScenarioSet::perturbed_loads(case.clone(), 4, 0.02, seed)
                .networks()
                .unwrap()
        };
        let (gen_a, gen_b) = (generation(7), generation(1007));
        let solver = IpmFleetSolver::with_engine(
            IpmOptions::default(),
            Engine::with_pool(DevicePool::parallel(1)).with_lanes(1),
        );
        let mut store = SolutionStore::new();
        let a = solver.run(FleetRequest::over(&gen_a).case(name).store(&mut store));
        let b = solver.run(FleetRequest::over(&gen_b).case(name).store(&mut store));
        assert!(b.store.hits > 0, "{name}: no store hits");
        // Only generation A's first admission starts cold.
        let seeded = gen_a.iter().zip(&a.results).skip(1);
        for (net, r) in seeded.chain(gen_b.iter().zip(&b.results)) {
            let report = &r.report;
            assert!(report.is_optimal(), "{}: {:?}", r.name, report.status);
            assert!(
                report.iterations <= 3,
                "{}: {} iterations",
                r.name,
                report.iterations
            );
            let cold = IpmSolver::default().solve(&AcopfNlp::new(net));
            let gap = gridsim_acopf::violations::relative_gap(report.objective, cold.objective);
            assert!(gap <= 1e-8, "{}: warm vs cold gap {gap:e}", r.name);
        }
    }
}

/// Release-gated robustness of the donor-seeded start on the `ipm_fleet`
/// stand-in, Pegase1354/200: at 30 % load noise every seeded solve still
/// ends optimal within eight Newton steps, at a cold solve's optimum. And a
/// ramp-limited period whose new dispatch box excludes the donor's dispatch
/// (the donor's point is clamped onto the box's edge) ends optimal too.
#[cfg(not(debug_assertions))]
#[test]
fn donor_seeded_pegase_solves_survive_load_noise_and_ramp_limits() {
    use gridsim_acopf::start::ramp_limited_bounds;
    use gridsim_acopf::violations::relative_gap;
    let case = TableICase::Pegase1354.scaled(200);
    let generation = |seed| {
        ScenarioSet::perturbed_loads(case.clone(), 4, 0.3, seed)
            .networks()
            .unwrap()
    };
    let (gen_a, gen_b) = (generation(7), generation(1007));
    let solver = IpmFleetSolver::with_engine(
        IpmOptions::default(),
        Engine::with_pool(DevicePool::parallel(1)).with_lanes(1),
    );
    let mut store = SolutionStore::new();
    let a = solver.run(FleetRequest::over(&gen_a).case("pegase").store(&mut store));
    let b = solver.run(FleetRequest::over(&gen_b).case("pegase").store(&mut store));
    // At this noise the store's distance cap turns lookups into misses, so
    // each generation's first admission may start cold; the rest ride the
    // lane chain.
    let seeded = gen_a.iter().zip(&a.results).skip(1);
    for (net, r) in seeded.chain(gen_b.iter().zip(&b.results).skip(1)) {
        let report = &r.report;
        assert!(report.is_optimal(), "{}: {:?}", r.name, report.status);
        assert!(
            report.iterations <= 8,
            "{}: {} iterations",
            r.name,
            report.iterations
        );
        let cold = IpmSolver::default().solve(&AcopfNlp::new(net));
        assert!(cold.is_optimal(), "{}: cold {:?}", r.name, cold.status);
        let gap = relative_gap(report.objective, cold.objective);
        assert!(gap <= 1e-9, "{}: warm vs cold gap {gap:e}", r.name);
    }

    // The next period: 3 % more load, and every third unit with room in its
    // ramp window must ramp up by at least half of it. (Forcing all 22 such
    // units up leaves no feasible dispatch.)
    let base = case.compile().unwrap();
    let donor = IpmSolver::default().solve(&AcopfNlp::new(&base));
    assert!(donor.is_optimal());
    let donor_pg = AcopfNlp::new(&base).to_solution(&donor.x).pg;
    let net = case.scale_load(1.03).compile().unwrap();
    let (mut lo, hi) = ramp_limited_bounds(&net, &donor_pg, 0.05);
    let mut excluded = 0;
    for (g, &pg) in donor_pg.iter().enumerate().step_by(3) {
        if hi[g] - pg > 1e-3 {
            lo[g] = pg + 0.5 * (hi[g] - pg);
            excluded += 1;
        }
    }
    assert_eq!(excluded, 8);
    let nlp = AcopfNlp::new(&net).with_pg_bounds(lo, hi);
    let warm = IpmSolver::new(IpmOptions {
        initial_point: Some(donor.x.clone()),
        initial_multipliers: Some(
            donor
                .lambda_eq
                .iter()
                .chain(&donor.lambda_ineq)
                .copied()
                .collect(),
        ),
        initial_bound_multipliers: Some((donor.zl.clone(), donor.zu.clone())),
        ..Default::default()
    })
    .solve(&nlp);
    assert!(warm.is_optimal(), "ramp-limited: {:?}", warm.status);
    let cold = IpmSolver::default().solve(&nlp);
    assert!(cold.is_optimal(), "ramp-limited cold: {:?}", cold.status);
    let gap = relative_gap(warm.objective, cold.objective);
    assert!(gap <= 1e-8, "ramp-limited warm vs cold gap {gap:e}");
    eprintln!(
        "ramp-limited period: {excluded} units forced up, warm {} vs cold {} iterations",
        warm.iterations, cold.iterations
    );
}

/// Release-gated acceptance check on a registry-scale case: an
/// interior-point fleet over K scenarios of a ~300-bus Table-I stand-in on
/// two lanes pays one symbolic analysis, not one per lane or scenario.
/// (Interior-point solves at this size are too slow for the debug suite.)
#[cfg(not(debug_assertions))]
#[test]
fn registry_small_fleet_pays_one_analysis() {
    use gridsim_bench::{BenchCase, Scale};
    let bc = BenchCase::all(Scale::Small)
        .into_iter()
        .find(|bc| bc.source == TableICase::Pegase2869)
        .expect("registry holds the 2869-bus stand-in");
    let set = ScenarioSet::load_ramp(bc.case.clone(), 3, 0.99, 1.01);
    let nets = set.networks().unwrap();
    let engine = Engine::with_pool(DevicePool::parallel(2)).with_lanes(1);
    let fleet =
        IpmFleetSolver::with_engine(IpmOptions::default(), engine).run(FleetRequest::over(&nets));
    assert_eq!(fleet.results.len(), 3);
    assert_eq!(fleet.lanes, 2);
    assert_eq!(
        fleet.symbolic_analyses(),
        1,
        "fleet must pay per structure, not per lane or scenario"
    );
    assert!(fleet.factorizations() > fleet.symbolic_analyses());
    eprintln!(
        "registry fleet: {} scenarios, {} lanes, {} symbolic analyses, {} factorizations, {:.2}s",
        fleet.results.len(),
        fleet.lanes,
        fleet.symbolic_analyses(),
        fleet.factorizations(),
        fleet.solve_time.as_secs_f64()
    );
}
