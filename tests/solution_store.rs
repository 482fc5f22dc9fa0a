//! Integration and property suite for the warm-start solution store: the
//! fingerprint identity and nearest-neighbor determinism contracts, the
//! empty-store ≡ no-store bitwise anchor, configuration-independence of
//! store-seeded fleet runs, warm-equals-cold solution agreement, and (in
//! release builds) the measured iteration-drop guard on a ≥100-scenario
//! perturbation sweep.

use gridadmm::prelude::*;
use gridsim_admm::AdmmStatus;
use gridsim_engine::FleetRequest;
use gridsim_grid::cases;
use gridsim_store::{rms_distance, InsertOutcome};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Identical scenarios fingerprint identically — same loads bitwise,
    /// same structure signature — and a load change moves only the load
    /// half of the key.
    #[test]
    fn identical_scenarios_fingerprint_identically(
        seed in 0u64..10_000,
        k in 1usize..6,
        sigma in 0.001f64..0.1,
    ) {
        let a = ScenarioSet::perturbed_loads(cases::case14(), k, sigma, seed)
            .networks()
            .unwrap();
        let b = ScenarioSet::perturbed_loads(cases::case14(), k, sigma, seed)
            .networks()
            .unwrap();
        for (na, nb) in a.iter().zip(&b) {
            let fa = ScenarioFingerprint::of_network(na);
            let fb = ScenarioFingerprint::of_network(nb);
            prop_assert_eq!(fa.structure, fb.structure);
            prop_assert_eq!(fa.loads.len(), fb.loads.len());
            for (x, y) in fa.loads.iter().zip(&fb.loads) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            prop_assert_eq!(fa.distance(&fb).to_bits(), 0f64.to_bits());
        }
        // Same case, different loads: same structure class, nonzero distance.
        let other = ScenarioSet::perturbed_loads(cases::case14(), 1, sigma, seed + 1)
            .networks()
            .unwrap();
        let fa = ScenarioFingerprint::of_network(&a[0]);
        let fo = ScenarioFingerprint::of_network(&other[0]);
        prop_assert_eq!(fa.structure, fo.structure);
        prop_assert!(fa.distance(&fo) > 0.0);
    }

    /// `nearest` — on the live store and on a view — is the `(distance,
    /// insertion index)` minimum over every stored entry within `0.1 ×` the
    /// query's RMS norm, computed here by brute force over an independent
    /// model of the store: same entry, same index, same distance bits.
    /// Exact duplicate loads exercise replace-in-place, mirrored entries
    /// around a grid point exact distance ties, and the queries land near
    /// stored entries (inside the radius), on either side of its boundary,
    /// at random (mostly outside) and far from everything (a miss).
    #[test]
    fn indexed_nearest_equals_linear_scan(
        entries in prop::collection::vec(
            prop::collection::vec(-5.0f64..5.0, 4),
            0..40,
        ),
        queries in prop::collection::vec(
            prop::collection::vec(-5.0f64..5.0, 4),
            1..8,
        ),
        near_at in prop::collection::vec(0usize..40, 1..8),
        near_shift in -0.02f64..0.02,
        dup_every in 1usize..5,
        tie_center in prop::collection::vec(4i32..=10, 4),
        tie_axes in prop::collection::vec(0usize..4, 0..4),
    ) {
        // Every dup_every-th entry repeats its predecessor's loads.
        let mut inserts: Vec<Vec<f64>> = entries
            .iter()
            .enumerate()
            .map(|(i, loads)| {
                if i % dup_every == 0 && i > 0 {
                    entries[i - 1].clone()
                } else {
                    loads.clone()
                }
            })
            .collect();
        // Entries at center ± 0.25 along each tie axis: multiples of 0.25,
        // so their distances to the center are exactly equal.
        let center: Vec<f64> = tie_center.iter().map(|&c| f64::from(c) / 2.0).collect();
        for &k in &tie_axes {
            for step in [0.25, -0.25] {
                let mut loads = center.clone();
                loads[k] += step;
                inserts.push(loads);
            }
        }
        // All-zero loads: distance 0 against a radius of 0, a hit, since
        // only a distance beyond the radius misses.
        inserts.push(vec![0.0; 4]);

        let fp = |loads: &[f64]| ScenarioFingerprint { loads: loads.to_vec(), structure: 42 };
        let same_bits =
            |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        let mut store: SolutionStore<usize> = SolutionStore::new();
        let mut model: Vec<(Vec<f64>, usize)> = Vec::new();
        for (payload, loads) in inserts.iter().enumerate() {
            let outcome = store.insert("prop", &fp(loads), payload);
            match model.iter().position(|(l, _)| same_bits(l, loads)) {
                Some(i) => {
                    model[i].1 = payload;
                    prop_assert_eq!(outcome, InsertOutcome::Replaced(i));
                }
                None => {
                    model.push((loads.clone(), payload));
                    prop_assert_eq!(outcome, InsertOutcome::Inserted(model.len() - 1));
                }
            }
        }

        // Next to a stored entry e, and at e·(1 + s): that point lies
        // s‖e‖ from e, inside the radius 0.1(1 + s)‖e‖ exactly when
        // s ≤ 1/9, so s = 0.11 and s = 0.1125 straddle the boundary.
        let mut probes = queries.clone();
        if !inserts.is_empty() {
            for &j in &near_at {
                let e = &inserts[j % inserts.len()];
                probes.push(e.iter().map(|x| x + near_shift).collect());
                probes.push(e.iter().map(|x| x * 1.11).collect());
                probes.push(e.iter().map(|x| x * 1.1125).collect());
            }
        }
        probes.push(center.clone());
        probes.push(vec![0.0; 4]);
        probes.push(vec![100.0; 4]);
        let brute_force = |q: &[f64]| {
            let radius = 0.1 * fp(q).rms_norm();
            model
                .iter()
                .enumerate()
                .map(|(i, (loads, payload))| (rms_distance(loads, q), i, *payload))
                .filter(|&(d, _, _)| d <= radius)
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(d, i, payload)| (d.to_bits(), i, payload))
        };
        prop_assert!(
            tie_axes.is_empty() || brute_force(&center).is_some(),
            "the tie center must hit"
        );
        prop_assert!(brute_force(&[100.0; 4]).is_none(), "a far query must miss");
        let view = store.view();
        for q in &probes {
            let expected = brute_force(q);
            for hit in [store.nearest("prop", &fp(q)), view.nearest("prop", &fp(q))] {
                let got = hit.map(|h| (h.distance.to_bits(), h.index, h.entry.payload));
                prop_assert_eq!(got, expected);
            }
        }
    }
}

/// With an empty store, a live-store run is bitwise identical to a plain run
/// for both fleets (every lookup misses, nothing is seeded), and the run
/// fills the store with exactly the converged scenarios.
#[test]
fn empty_store_runs_match_plain_runs_bitwise() {
    let nets = ScenarioSet::perturbed_loads(cases::case9(), 4, 0.02, 3)
        .networks()
        .unwrap();

    // ADMM scenario scheduler.
    let scheduler = ScenarioScheduler::new(AdmmParams::test_profile());
    let plain = scheduler.run(FleetRequest::over(&nets));
    let mut store: SolutionStore<WarmState> = SolutionStore::new();
    let stored = scheduler.run(FleetRequest::over(&nets).case("case9").store(&mut store));
    assert_eq!(stored.store.hits, 0);
    assert_eq!(stored.store.misses, 4);
    for (a, b) in stored.results.iter().zip(&plain.results) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.inner_iterations, b.inner_iterations);
        assert_eq!(a.solution.pg, b.solution.pg);
        assert_eq!(a.solution.qg, b.solution.qg);
        assert_eq!(a.solution.vm, b.solution.vm);
        assert_eq!(a.solution.va, b.solution.va);
    }
    let converged = plain
        .results
        .iter()
        .filter(|r| r.status == AdmmStatus::Converged)
        .count();
    assert_eq!(stored.store.inserts, converged);
    assert_eq!(store.len(), converged);

    // Interior-point fleet.
    let solver = IpmFleetSolver::new(IpmOptions::default());
    let plain = solver.run(FleetRequest::over(&nets));
    let mut store: SolutionStore<IpmWarmStart> = SolutionStore::new();
    let stored = solver.run(FleetRequest::over(&nets).case("case9").store(&mut store));
    assert_eq!(stored.store.hits, 0);
    assert_eq!(stored.store.misses, 4);
    for (a, b) in stored.results.iter().zip(&plain.results) {
        assert_eq!(a.report.status, b.report.status);
        assert_eq!(a.report.iterations, b.report.iterations);
        assert_eq!(a.report.objective.to_bits(), b.report.objective.to_bits());
        for (x, y) in a.report.x.iter().zip(&b.report.x) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    assert_eq!(stored.store.inserts, 4);
    assert_eq!(store.len(), 4);
}

/// A checksum-valid store file may hold an interior-point payload whose `x`
/// does not fit the case (here: truncated by one entry). The solver ignores
/// such a start as a whole, so the fleet run finishes and the scenario
/// solves exactly as it does without a store.
#[test]
fn ipm_payload_with_the_wrong_length_solves_cold() {
    let net = cases::case9().compile().unwrap();
    let nets = std::slice::from_ref(&net);
    let solver = IpmFleetSolver::with_engine(
        IpmOptions::default(),
        Engine::with_pool(DevicePool::single(Device::sequential())),
    );
    let plain = solver.run(FleetRequest::over(nets));
    assert!(plain.all_optimal());

    let mut start = IpmWarmStart::from_report(&plain.results[0].report);
    start.x.pop();
    let mut store: SolutionStore<IpmWarmStart> = SolutionStore::new();
    store.insert("case9", &ScenarioFingerprint::of_network(&net), start);
    let path = std::env::temp_dir().join("gridadmm-truncated-ipm-payload.bin");
    store.save(&path).unwrap();
    let loaded: SolutionStore<IpmWarmStart> = SolutionStore::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let view = loaded.view();
    let seeded = solver.run(FleetRequest::over(nets).case("case9").snapshot(&view));
    assert_eq!(seeded.store.hits, 1);
    let (a, b) = (&seeded.results[0].report, &plain.results[0].report);
    assert!(a.is_optimal(), "status {:?}", a.status);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    for (v, w) in [(&a.x, &b.x), (&a.lambda_eq, &b.lambda_eq), (&a.zl, &b.zl)] {
        assert_eq!(v.len(), w.len());
        assert!(v.iter().zip(w).all(|(p, q)| p.to_bits() == q.to_bits()));
    }
}

/// Store-seeded ADMM scheduler runs are bitwise identical across device
/// counts and lane caps given identical starting store contents, and the
/// post-run store contents (entry count, per-query nearest neighbor, and
/// payload) are identical too — the freeze-at-start determinism rule
/// holding end to end on the solver path.
#[test]
fn store_seeded_scheduler_is_bitwise_across_configurations() {
    let prime_nets = ScenarioSet::perturbed_loads(cases::case9(), 3, 0.02, 21)
        .networks()
        .unwrap();
    let eval_nets = ScenarioSet::perturbed_loads(cases::case9(), 4, 0.02, 22)
        .networks()
        .unwrap();
    let params = AdmmParams::test_profile();

    // Prime once on the reference configuration.
    let mut primed: SolutionStore<WarmState> = SolutionStore::new();
    ScenarioScheduler::new(params.clone()).run(
        FleetRequest::over(&prime_nets)
            .case("case9")
            .store(&mut primed),
    );
    assert!(!primed.is_empty(), "priming stored nothing");

    let mut reference: Option<(ScenarioBatchResult, SolutionStore<WarmState>)> = None;
    for (devices, lanes) in [(1, None), (1, Some(1)), (2, Some(1)), (3, Some(2))] {
        // Each configuration starts from its own copy of the primed
        // contents, rebuilt by replaying the same inserts.
        let mut store: SolutionStore<WarmState> = SolutionStore::new();
        ScenarioScheduler::new(params.clone()).run(
            FleetRequest::over(&prime_nets)
                .case("case9")
                .store(&mut store),
        );
        let mut scheduler =
            ScenarioScheduler::with_pool(params.clone(), DevicePool::parallel(devices));
        if let Some(l) = lanes {
            scheduler = scheduler.with_lanes(l);
        }
        let result = scheduler.run(
            FleetRequest::over(&eval_nets)
                .case("case9")
                .store(&mut store),
        );
        assert!(
            result.store.hits > 0,
            "devices={devices} lanes={lanes:?}: expected store hits at sigma 2%"
        );
        match &reference {
            None => reference = Some((result, store)),
            Some((ref_result, ref_store)) => {
                assert_eq!(result.store, ref_result.store, "devices={devices}");
                for (a, b) in result.results.iter().zip(&ref_result.results) {
                    assert_eq!(a.status, b.status, "{}", a.name);
                    assert_eq!(a.inner_iterations, b.inner_iterations, "{}", a.name);
                    assert_eq!(a.solution.pg, b.solution.pg, "{}", a.name);
                    assert_eq!(a.solution.vm, b.solution.vm, "{}", a.name);
                    assert_eq!(a.warm_state, b.warm_state, "{}", a.name);
                }
                assert_eq!(store.len(), ref_store.len());
                // The stores resolve every query identically: same entry
                // index, same distance bits, same payload.
                for net in eval_nets.iter().chain(&prime_nets) {
                    let fp = ScenarioFingerprint::of_network(net);
                    let a = store.nearest("case9", &fp);
                    let b = ref_store.nearest("case9", &fp);
                    match (a, b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            assert_eq!(x.index, y.index);
                            assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                            assert_eq!(x.entry.payload, y.entry.payload);
                        }
                        _ => panic!("stores disagree on hit/miss for {}", net.name),
                    }
                }
            }
        }
    }
}

/// Interior-point solves seeded from the store converge to the same
/// solution as cold solves of the same scenarios, within solver tolerance.
#[test]
fn warm_started_ipm_matches_cold_solutions() {
    let prime_nets = ScenarioSet::perturbed_loads(cases::case14(), 6, 0.02, 31)
        .networks()
        .unwrap();
    let eval_nets = ScenarioSet::perturbed_loads(cases::case14(), 4, 0.02, 32)
        .networks()
        .unwrap();
    let solver = IpmFleetSolver::with_engine(
        IpmOptions::default(),
        Engine::with_pool(DevicePool::parallel(2)).with_lanes(1),
    );
    let cold = solver.run(FleetRequest::over(&eval_nets));
    assert!(cold.all_optimal());

    let mut store: SolutionStore<IpmWarmStart> = SolutionStore::new();
    let primed = solver.run(
        FleetRequest::over(&prime_nets)
            .case("case14")
            .store(&mut store),
    );
    assert!(primed.all_optimal());
    assert_eq!(primed.store.inserts, 6);

    let warm = solver.run(
        FleetRequest::over(&eval_nets)
            .case("case14")
            .store(&mut store),
    );
    assert!(warm.all_optimal(), "a store-seeded solve failed");
    assert!(warm.store.hits > 0, "no hits at sigma 2% with 6 neighbors");
    for (w, c) in warm.results.iter().zip(&cold.results) {
        let gap =
            (w.report.objective - c.report.objective).abs() / c.report.objective.abs().max(1.0);
        assert!(gap < 1e-6, "{}: warm vs cold objective gap {gap}", w.name);
        assert!(w.quality.max_violation() < 1e-5, "{}", w.name);
    }
}

/// Release-gated acceptance guard (ISSUE: warm-store economics): on a
/// ≥100-scenario seeded perturbation sweep (60 priming + 60 evaluation
/// scenarios around case14), warm-starting out of the store must shed
/// interior-point iterations — at most three per scenario — with every
/// solve still optimal and warm solutions matching the store-less sweep of
/// the same scenarios to solver tolerance. (Full sweeps are too
/// slow for the debug suite; release runs always execute this.)
#[cfg(not(debug_assertions))]
#[test]
fn warm_store_sweep_sheds_ipm_iterations() {
    let sweep = |seed| {
        ScenarioSet::perturbed_loads(cases::case14(), 60, 0.02, seed)
            .networks()
            .unwrap()
    };
    let (prime_nets, eval_nets) = (sweep(7), sweep(8));
    assert_eq!(prime_nets.len() + eval_nets.len(), 120, ">= 100");
    let solver = IpmFleetSolver::with_engine(
        IpmOptions::default(),
        Engine::with_pool(DevicePool::parallel(2)).with_lanes(1),
    );
    let cold = solver.run(FleetRequest::over(&eval_nets));
    let mut store: SolutionStore<IpmWarmStart> = SolutionStore::new();
    let primed = solver.run(
        FleetRequest::over(&prime_nets)
            .case("case14")
            .store(&mut store),
    );
    let warm = solver.run(
        FleetRequest::over(&eval_nets)
            .case("case14")
            .store(&mut store),
    );
    assert!(
        cold.all_optimal() && primed.all_optimal() && warm.all_optimal(),
        "a sweep solve failed"
    );
    assert_eq!(primed.store.inserts, 60, "a priming solve failed");
    assert_eq!(warm.store.hits + warm.store.misses, 60);
    assert!(
        warm.store.hit_rate() > 0.5,
        "hit rate {} too low at sigma 2% with 60 stored neighbors",
        warm.store.hit_rate()
    );
    let (cold_iters, warm_iters) = (cold.total_iterations(), warm.total_iterations());
    // A donor-seeded solve keeps the donor's point: about two Newton steps
    // per scenario (120 in all). Pushing it 1e-2 back into the interior
    // cost five (300).
    assert!(
        warm_iters <= 3 * 60,
        "store-seeded sweep did not shed iterations: warm {warm_iters} vs cold {cold_iters}"
    );
    for (w, c) in warm.results.iter().zip(&cold.results) {
        let gap = gridsim_acopf::violations::relative_gap(w.report.objective, c.report.objective);
        assert!(gap < 1e-5, "{}: warm diverged from cold: gap {gap}", w.name);
    }
    eprintln!(
        "warm store sweep: {} hits / {} lookups, {cold_iters} -> {warm_iters} interior-point \
         iterations ({:.1}% drop), {:.3}s -> {:.3}s",
        warm.store.hits,
        warm.store.hits + warm.store.misses,
        100.0 * (1.0 - warm_iters as f64 / cold_iters as f64),
        cold.solve_time.as_secs_f64(),
        warm.solve_time.as_secs_f64(),
    );
}
