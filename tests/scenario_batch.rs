//! Determinism and regression harness for the batched multi-scenario ADMM
//! subsystem: backend-bitwise agreement, masked-convergence work accounting,
//! outage physics, warm-start chaining, and (in release builds) the
//! batch-vs-sequential wall-clock regression guard.

use gridadmm::prelude::*;
use gridsim_batch::Device;
use gridsim_engine::FleetRequest;

/// The everything-admitted fleet on one device.
fn one_device(params: AdmmParams, device: Device) -> ScenarioScheduler {
    ScenarioScheduler::with_pool(params, DevicePool::single(device))
}

/// A mixed scenario set exercising all three scenario families.
fn mixed_set(base: &Case, k: usize) -> ScenarioSet {
    let mut set = ScenarioSet::load_ramp(base.clone(), k.div_ceil(2), 0.97, 1.03);
    set.extend(ScenarioSet::perturbed_loads(
        base.clone(),
        k / 4 + 1,
        0.02,
        11,
    ));
    set.extend(ScenarioSet::branch_outages(base.clone(), k / 4 + 1));
    set.scenarios.truncate(k);
    set
}

#[test]
fn batch_is_bitwise_identical_across_backends() {
    let set = mixed_set(&gridsim_grid::case9(), 5);
    let nets = set.networks().unwrap();
    // Bounded budget: bitwise identity holds at every iterate, converged or
    // not, so a short run keeps the debug suite fast.
    let params = AdmmParams {
        max_outer: 2,
        max_inner: 40,
        ..AdmmParams::test_profile()
    };
    let seq = one_device(params.clone(), Device::sequential()).run(FleetRequest::over(&nets));
    for dev in [Device::parallel(), Device::vectorized()] {
        let got = one_device(params.clone(), dev).run(FleetRequest::over(&nets));
        assert_eq!(got.ticks, seq.ticks);
        for (a, b) in got.results.iter().zip(&seq.results) {
            assert_eq!(a.status, b.status);
            assert_eq!(a.inner_iterations, b.inner_iterations);
            assert_eq!(a.outer_iterations, b.outer_iterations);
            assert_eq!(a.solution.pg, b.solution.pg);
            assert_eq!(a.solution.qg, b.solution.qg);
            assert_eq!(a.solution.vm, b.solution.vm);
            assert_eq!(a.solution.va, b.solution.va);
            assert_eq!(a.z_inf.to_bits(), b.z_inf.to_bits());
            assert_eq!(a.primal_residual.to_bits(), b.primal_residual.to_bits());
        }
    }
}

#[test]
fn outaged_branch_carries_no_flow() {
    let base = gridsim_grid::case9();
    let set = ScenarioSet::branch_outages(base.clone(), 2);
    let nets = set.networks().unwrap();
    let batch =
        one_device(AdmmParams::test_profile(), Device::default()).run(FleetRequest::over(&nets));
    for ((r, scen), net) in batch.results.iter().zip(&set.scenarios).zip(&nets) {
        assert!(
            r.quality.max_violation() < 5e-2,
            "{}: violation {}",
            r.name,
            r.quality.max_violation()
        );
        let l = scen.branch_outages[0];
        let flows = r.solution.branch_flows(net);
        // The open line's admittance is ~1e-7, so its flows are numerically
        // zero while the rest of the network reroutes around it.
        assert!(
            flows.pij[l].abs() < 1e-4 && flows.pji[l].abs() < 1e-4,
            "{}: outaged branch {l} still carries ({}, {})",
            r.name,
            flows.pij[l],
            flows.pji[l]
        );
    }
}

#[test]
fn batch_statuses_and_masking_are_reported_per_scenario() {
    let base = gridsim_grid::case9();
    let nets = mixed_set(&base, 3).networks().unwrap();
    let batcher = one_device(AdmmParams::test_profile(), Device::default());
    let before = batcher.engine.pool().device(0).stats().snapshot();
    let batch = batcher.run(FleetRequest::over(&nets));
    let delta = batcher
        .engine
        .pool()
        .device(0)
        .stats()
        .snapshot()
        .since(&before);
    // Ticks equal the slowest scenario; per-scenario counts differ, and the
    // masked launches only bill active scenarios for kernel work.
    assert_eq!(
        batch.ticks,
        batch
            .results
            .iter()
            .map(|r| r.inner_iterations)
            .max()
            .unwrap()
    );
    let nbranch = nets[0].nbranch as u64;
    let billed: u64 = batch
        .results
        .iter()
        .map(|r| r.inner_iterations as u64 * nbranch)
        .sum();
    assert_eq!(delta.kernels["branch_tron"].blocks, billed);
    assert_eq!(delta.kernels["z_update"].launches, batch.ticks as u64);
    for r in &batch.results {
        assert!(r.objective.is_finite());
        assert!(r.inner_iterations > 0);
    }
}

#[test]
fn chained_warm_start_beats_cold_batch_on_a_load_ramp() {
    let base = gridsim_grid::case9();
    let nominal = base.compile().unwrap();
    let params = AdmmParams::test_profile();
    let cold_nominal = AdmmSolver::new(params.clone()).solve(&nominal);
    let set = ScenarioSet::load_ramp(base, 3, 1.002, 1.008);
    let nets = set.networks().unwrap();
    let batcher = one_device(params, Device::default());
    let chained = batcher.solve_chained(&nets, &cold_nominal.warm_state, 0.05);
    let cold = batcher.run(FleetRequest::over(&nets));
    assert!(
        chained.total_inner_iterations() < cold.total_inner_iterations(),
        "chained {} vs cold {}",
        chained.total_inner_iterations(),
        cold.total_inner_iterations()
    );
    for r in &chained.results {
        assert!(r.quality.max_violation() < 2e-2, "{}", r.name);
    }
}

/// Pins the known solution quality of the 100-bus 1354pegase stand-in under
/// the per-case defaults (`AdmmParams::for_case`). The pin history tracks
/// the case's health: under plain defaults the violation was ~1.06, per-case
/// rho/beta tuning improved it to ~0.87, and the bound was ratcheted
/// 1.10 → 0.95 → 0.90 → 0.88 → 0.875 across PRs 3–6. The residual ~0.87 was
/// never a tuning problem: the synthetic generator drew branch impedances
/// independently of thermal ratings and allowed tight ratings on bridge
/// branches, which made the case electrically infeasible (no voltage profile
/// inside [vmin, vmax] could deliver the load). With impedance coupled to
/// rating and tight ratings kept off the spanning tree, ADMM converges to
/// 3.9357e-4 — the bound is ratcheted three orders of magnitude to 4e-4.
/// Future penalty-tuning work must not regress above it — and when it
/// improves the value, ratchet again.
/// Full-tolerance default parameters make this expensive, so debug runs skip
/// it unless `GRIDADMM_FULL_TESTS` is set; release runs always execute it.
#[test]
fn pegase1354_scaled100_violation_does_not_regress() {
    if cfg!(debug_assertions) && std::env::var("GRIDADMM_FULL_TESTS").is_err() {
        eprintln!("skipping full-tolerance regression case (set GRIDADMM_FULL_TESTS=1)");
        return;
    }
    let net = TableICase::Pegase1354.scaled(100).compile().unwrap();
    let params = AdmmParams::for_case(TableICase::Pegase1354, 100);
    let result = AdmmSolver::with_device(params.clone(), Device::sequential()).solve(&net);
    let violation = result.quality.max_violation();
    eprintln!("pegase1354_scaled100 max violation: {violation}");
    assert!(
        violation < 4e-4,
        "max violation regressed to {violation} (recorded baseline 3.9357e-4 under per-case \
         defaults after the synthetic-generator electrical-consistency fix; the pre-fix \
         baseline on the then-infeasible case was 0.86956)"
    );
    assert!(result.objective.is_finite());
    // The bound holds *identically* under every backend: not merely below
    // the same threshold, but the same violation bits — the quality pin and
    // the backend-conformance contract are one statement here.
    for dev in [Device::parallel(), Device::vectorized()] {
        let label = dev.backend();
        let r = AdmmSolver::with_device(params.clone(), dev).solve(&net);
        assert_eq!(
            r.quality.max_violation().to_bits(),
            violation.to_bits(),
            "{label} backend changed the violation: {} vs {violation}",
            r.quality.max_violation()
        );
    }
}

/// Release-gated companion to the violation pin above: the same 100-bus
/// 1354pegase solve re-measured through the scenario scheduler's solution
/// store. Three statements: (1) with an empty store the run is bitwise
/// identical to the store-less scheduler run, so threading the store cannot
/// perturb the pinned trajectory; (2) the converged solve is committed, and
/// re-solving the identical scenario is a distance-zero hit; (3) the
/// warm-started admission satisfies the same 4e-4 bound as the cold pin.
/// Measured: cold 3.9357e-4; warm 3.9374e-4 after exactly **one** inner
/// iteration — the restart resumes the stored β schedule (WarmState
/// carries β; restarting β from `BETA_INIT` at the fixed point walked
/// this marginal case out to 1.32e-3 over a full budget), so
/// one z-update at the fixed point re-certifies convergence. The pin is
/// not ratcheted: warm admission preserves, not tightens, cold quality.
#[cfg(not(debug_assertions))]
#[test]
fn pegase1354_scaled100_store_admission_holds_the_pin() {
    let case = TableICase::Pegase1354.scaled(100);
    let net = case.compile().unwrap();
    let params = AdmmParams::for_case(TableICase::Pegase1354, 100);
    let scheduler = ScenarioScheduler::new(params);
    let plain = scheduler.run(FleetRequest::over(std::slice::from_ref(&net)));

    let mut store: SolutionStore<WarmState> = SolutionStore::new();
    let cold = scheduler.run(
        FleetRequest::over(std::slice::from_ref(&net))
            .case(&case.name)
            .store(&mut store),
    );
    assert_eq!(cold.store.hits, 0);
    assert_eq!(cold.store.misses, 1);
    let (a, b) = (&cold.results[0], &plain.results[0]);
    assert_eq!(a.status, b.status);
    assert_eq!(a.inner_iterations, b.inner_iterations);
    assert_eq!(a.solution.pg, b.solution.pg);
    assert_eq!(a.solution.qg, b.solution.qg);
    assert_eq!(a.solution.vm, b.solution.vm);
    assert_eq!(a.solution.va, b.solution.va);
    let cold_violation = a.quality.max_violation();
    assert!(
        cold_violation < 4e-4,
        "cold pin regressed: {cold_violation}"
    );
    assert_eq!(store.len(), 1, "the converged solve must be committed");

    let warm = scheduler.run(
        FleetRequest::over(std::slice::from_ref(&net))
            .case(&case.name)
            .store(&mut store),
    );
    assert_eq!(
        warm.store.hits, 1,
        "identical scenario must hit at distance 0"
    );
    let warm_violation = warm.results[0].quality.max_violation();
    eprintln!(
        "pegase1354_scaled100 store admission: cold violation {cold_violation}, \
         warm violation {warm_violation}, warm inner iterations {}",
        warm.results[0].inner_iterations
    );
    assert!(
        warm_violation < 4e-4,
        "warm-started admission regressed past the pin: {warm_violation}"
    );
    // Resuming the stored β schedule makes the distance-zero restart
    // re-certify convergence almost immediately (measured: 1 inner
    // iteration) instead of re-running the penalty schedule.
    assert!(
        warm.results[0].inner_iterations <= 10,
        "distance-zero warm restart took {} inner iterations",
        warm.results[0].inner_iterations
    );
}

/// The acceptance benchmark: a K=8 batch of a mid-size case vs 8 sequential
/// solves on the parallel backend. The structural wins (bitwise identity,
/// ≥4× launch amortization) are asserted exactly; wall-clock gets a 10 %
/// tolerance band so scheduler noise on a loaded single-core machine cannot
/// flake the suite — on this container the batch measures ~3 % faster, and
/// the gap widens with cores since one batched launch fans `K×` more
/// elements across the thread pool. `perf`'s `sweep` workload records the
/// launch and block counts (`batch.launches`, `batch.blocks`) run over run.
/// Timing assertions are meaningless in unoptimized builds, so this only
/// runs in release (`cargo test --release`).
#[cfg(not(debug_assertions))]
#[test]
fn k8_batch_beats_sequential_solves_wall_clock() {
    let case = TableICase::Pegase1354.scaled(300);
    let nets = mixed_set(&case, 8).networks().unwrap();
    // Bounded budget: measures time per fixed work, converged or not.
    let params = AdmmParams {
        max_outer: 2,
        max_inner: 120,
        ..AdmmParams::default()
    };
    // Both sides run the same auto-resolved backend with identical
    // parameters, so the comparison isolates batching alone; each driver owns
    // a fresh device, so its statistics snapshot is that side's launch count.
    let batcher = one_device(params.clone(), Device::default());
    let batch = batcher.run(FleetRequest::over(&nets));
    let batch_launches = batcher
        .engine
        .pool()
        .device(0)
        .stats()
        .snapshot()
        .total_launches();

    let solver = AdmmSolver::new(params);
    let mut sequential_time = std::time::Duration::ZERO;
    for (net, batched) in nets.iter().zip(&batch.results) {
        let single = solver.solve(net);
        sequential_time += single.solve_time;
        assert!(
            single.solution == batched.solution,
            "batch diverged from single solves"
        );
    }
    let sequential_launches = solver.device.stats().snapshot().total_launches();

    let (batch_s, sequential_s) = (
        batch.solve_time.as_secs_f64(),
        sequential_time.as_secs_f64(),
    );
    assert!(
        batch_s < 1.10 * sequential_s,
        "K=8 batch ({batch_s:.3}s) regressed past sequential ({sequential_s:.3}s)"
    );
    assert!(batch_launches * 4 < sequential_launches);
}
