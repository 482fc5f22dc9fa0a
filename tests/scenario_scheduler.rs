//! Integration suite for the multi-device execution engine: sharding,
//! streaming admission, per-device accounting, and the two env axes the CI
//! matrix sweeps — device count (`GRIDSIM_DEVICES=1|2|4`) and launch
//! backend (`GRIDSIM_BACKEND=sequential|parallel|vectorized`).
//!
//! Every test here runs under whatever device count and backend the
//! environment selects *plus* explicit pool sizes and pinned backends, so
//! the sharded paths are exercised even when the env vars are unset.

use gridadmm::prelude::*;
use gridsim_batch::Device;
use gridsim_engine::{shard_plan, FleetRequest};

fn mixed_set(base: &Case, k: usize) -> ScenarioSet {
    let mut set = ScenarioSet::load_ramp(base.clone(), k.div_ceil(2), 0.97, 1.03);
    set.extend(ScenarioSet::perturbed_loads(
        base.clone(),
        k / 4 + 1,
        0.02,
        7,
    ));
    set.extend(ScenarioSet::branch_outages(base.clone(), k / 4 + 1));
    set.scenarios.truncate(k);
    set
}

/// The everything-admitted fleet on one device.
fn one_device(params: AdmmParams, device: Device) -> ScenarioScheduler {
    ScenarioScheduler::with_pool(params, DevicePool::single(device))
}

fn short_params() -> AdmmParams {
    AdmmParams {
        max_outer: 2,
        max_inner: 40,
        ..AdmmParams::test_profile()
    }
}

fn assert_bitwise(a: &ScenarioBatchResult, b: &ScenarioBatchResult) {
    assert_eq!(a.results.len(), b.results.len());
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.status, y.status, "{}", x.name);
        assert_eq!(x.inner_iterations, y.inner_iterations, "{}", x.name);
        assert_eq!(x.outer_iterations, y.outer_iterations, "{}", x.name);
        assert_eq!(x.solution.pg, y.solution.pg, "{}", x.name);
        assert_eq!(x.solution.qg, y.solution.qg, "{}", x.name);
        assert_eq!(x.solution.vm, y.solution.vm, "{}", x.name);
        assert_eq!(x.solution.va, y.solution.va, "{}", x.name);
        assert_eq!(x.z_inf.to_bits(), y.z_inf.to_bits(), "{}", x.name);
    }
}

/// The scheduler built from the environment uses the device count the CI
/// matrix sets, and its results match the single-device batch bitwise.
#[test]
fn env_pool_matches_single_device_batch_bitwise() {
    let expected = std::env::var("GRIDSIM_DEVICES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    let params = short_params();
    let scheduler = ScenarioScheduler::new(params.clone());
    assert_eq!(
        scheduler.engine.pool().len(),
        expected,
        "pool must honor GRIDSIM_DEVICES"
    );
    let nets = mixed_set(&gridsim_grid::case9(), 5).networks().unwrap();
    let sched = scheduler.run(FleetRequest::over(&nets));
    let batch = one_device(params, Device::default()).run(FleetRequest::over(&nets));
    assert_bitwise(&sched, &batch);
}

/// The scheduler built from the environment resolves the backend the CI
/// matrix sets through `GRIDSIM_BACKEND` (exactly as a bare `Auto` device
/// would), and its results stay bitwise identical to a pinned sequential
/// single-device batch — the backend axis changes speed, never bits.
#[test]
fn env_pool_backend_matches_resolution_bitwise() {
    use gridsim_batch::ExecutionMode;
    let params = short_params();
    let scheduler = ScenarioScheduler::new(params.clone());
    assert_eq!(
        scheduler.engine.pool().backend(),
        ExecutionMode::Auto.resolve(),
        "pool must honor GRIDSIM_BACKEND"
    );
    assert_ne!(scheduler.engine.pool().backend(), ExecutionMode::Auto);
    let nets = mixed_set(&gridsim_grid::case9(), 4).networks().unwrap();
    let sched = scheduler.run(FleetRequest::over(&nets));
    let batch = one_device(params, Device::sequential()).run(FleetRequest::over(&nets));
    assert_bitwise(&sched, &batch);
}

/// Sharding across every pool size up to K, with and without a lane cap,
/// is bitwise identical to the all-at-once single-device batch.
#[test]
fn all_shard_and_lane_configs_are_bitwise_identical() {
    let params = short_params();
    let nets = mixed_set(&gridsim_grid::case9(), 5).networks().unwrap();
    let reference = one_device(params.clone(), Device::default()).run(FleetRequest::over(&nets));
    for devices in 1..=4 {
        for lanes in [Some(1), Some(2), None] {
            let mut scheduler =
                ScenarioScheduler::with_pool(params.clone(), DevicePool::parallel(devices));
            if let Some(l) = lanes {
                scheduler = scheduler.with_lanes(l);
            }
            let sched = scheduler.run(FleetRequest::over(&nets));
            assert_bitwise(&sched, &reference);
        }
    }
}

/// Streaming admission keeps total kernel work identical to the plain
/// batch — each scenario runs exactly its own iterations, whichever slot
/// it streams through — while using fewer concurrent lanes.
#[test]
fn streaming_admission_bills_the_same_kernel_work() {
    let params = short_params();
    let nets = mixed_set(&gridsim_grid::case9(), 5).networks().unwrap();
    let nbranch = nets[0].nbranch as u64;

    let scheduler =
        ScenarioScheduler::with_pool(params.clone(), DevicePool::parallel(1)).with_lanes(2);
    let before = scheduler.engine.pool().combined_snapshot();
    let sched = scheduler.run(FleetRequest::over(&nets));
    let delta = scheduler.engine.pool().combined_snapshot().since(&before);

    let expected: u64 = sched
        .results
        .iter()
        .map(|r| r.inner_iterations as u64 * nbranch)
        .sum();
    assert_eq!(delta.kernels["branch_tron"].blocks, expected);
    // With 2 lanes for 5 scenarios the device must run more ticks than the
    // widest batch (it streams 3 refills through the same slots)...
    let batch = one_device(params, Device::default()).run(FleetRequest::over(&nets));
    assert!(sched.ticks > batch.ticks, "streaming must reuse slots");
    // ...but never idles below full occupancy while work is pending: the
    // billed block count per tick stays near 2 lanes' worth.
    assert_bitwise(&sched, &batch);
}

/// Every admission, initial occupant or refill, uploads only its own
/// scenario's segments: transfers scale with admissions, never with the
/// tick count or the lane cap.
#[test]
fn streamed_refills_transfer_per_admission_not_per_tick() {
    let params = short_params();
    let nets = mixed_set(&gridsim_grid::case9(), 4).networks().unwrap();
    let k = nets.len() as u64;
    // h2d bytes per configuration.
    let mut uploads: Vec<u64> = Vec::new();
    for lanes in [Some(1), Some(2), None] {
        let scheduler = ScenarioScheduler::with_pool(params.clone(), DevicePool::parallel(1));
        let scheduler = match lanes {
            Some(l) => scheduler.with_lanes(l),
            None => scheduler,
        };
        let before = scheduler.engine.pool().combined_snapshot();
        let sched = scheduler.run(FleetRequest::over(&nets));
        let delta = scheduler.engine.pool().combined_snapshot().since(&before);
        assert!(sched.ticks > 40, "want a run with many ticks");
        // 5 ranged uploads per admission, and nothing per opened lane.
        assert_eq!(delta.host_to_device_transfers, 5 * k, "lanes={lanes:?}");
        // 6 ranged reads per finished scenario.
        assert_eq!(delta.device_to_host_transfers, 6 * k, "lanes={lanes:?}");
        uploads.push(delta.host_to_device_bytes);
    }
    // The admissions upload the same bytes in every lane configuration.
    assert!(uploads[0] > 0);
    assert!(
        uploads.iter().all(|&bytes| bytes == uploads[0]),
        "h2d bytes per configuration: {uploads:?}"
    );
}

/// A store hit seeds the admitted slot in the same uploads a cold
/// admission makes — 5 ranged uploads per admission — never a second
/// upload on top of them.
#[test]
fn store_hits_upload_each_admission_once() {
    let params = short_params();
    let nets = mixed_set(&gridsim_grid::case9(), 4).networks().unwrap();
    let scheduler = ScenarioScheduler::with_pool(params, DevicePool::parallel(1)).with_lanes(1);
    let before = scheduler.engine.pool().combined_snapshot();
    let plain = scheduler.run(FleetRequest::over(&nets));
    let cold = scheduler.engine.pool().combined_snapshot().since(&before);

    // Each scenario's own warm state: every admission hits.
    let mut store: SolutionStore<WarmState> = SolutionStore::new();
    for (net, r) in nets.iter().zip(&plain.results) {
        store.insert(
            "case9",
            &ScenarioFingerprint::of_network(net),
            r.warm_state.clone(),
        );
    }
    let view = store.view();
    let before = scheduler.engine.pool().combined_snapshot();
    let seeded = scheduler.run(FleetRequest::over(&nets).case("case9").snapshot(&view));
    let delta = scheduler.engine.pool().combined_snapshot().since(&before);
    assert_eq!(seeded.store.hits, nets.len());
    assert_eq!(delta.host_to_device_transfers, 5 * nets.len() as u64);
    assert_eq!(delta.host_to_device_bytes, cold.host_to_device_bytes);
}

/// Multi-device shards bill their kernel work to their own device streams,
/// and the per-device block counts sum to the single-device total.
#[test]
fn sharded_work_is_billed_per_device() {
    let params = short_params();
    let nets = mixed_set(&gridsim_grid::case9(), 4).networks().unwrap();
    let nbranch = nets[0].nbranch as u64;
    let scheduler = ScenarioScheduler::with_pool(params, DevicePool::parallel(2));
    let sched = scheduler.run(FleetRequest::over(&nets));
    let snaps = scheduler.engine.pool().snapshots();
    assert_eq!(snaps.len(), 2);
    for (d, snap) in snaps.iter().enumerate() {
        assert!(
            snap.kernels["branch_tron"].blocks > 0,
            "device {d} ran no branch work"
        );
    }
    // Each device bills exactly the scenarios the engine's shard plan
    // assigns it (round-robin), asserted against the plan itself instead of
    // re-implementing the round-robin arithmetic here.
    let shards = shard_plan(nets.len(), snaps.len());
    for (d, snap) in snaps.iter().enumerate() {
        let expected: u64 = shards[d]
            .iter()
            .map(|&i| sched.results[i].inner_iterations as u64 * nbranch)
            .sum();
        assert_eq!(
            snap.kernels["branch_tron"].blocks, expected,
            "device {d} billed the wrong shard"
        );
    }
    let combined = scheduler.engine.pool().combined_snapshot();
    let total: u64 = sched
        .results
        .iter()
        .map(|r| r.inner_iterations as u64 * nbranch)
        .sum();
    assert_eq!(combined.kernels["branch_tron"].blocks, total);
}

/// K=1 through the scheduler — any pool size — reproduces the single
/// solver bitwise, the engine's anchor invariant.
#[test]
fn k1_through_scheduler_equals_single_solver() {
    let net = gridsim_grid::case9().compile().unwrap();
    let params = short_params();
    let single = AdmmSolver::new(params.clone()).solve(&net);
    for devices in [1, 3] {
        let scheduler = ScenarioScheduler::with_pool(params.clone(), DevicePool::parallel(devices));
        let sched = scheduler.run(FleetRequest::over(std::slice::from_ref(&net)));
        assert_eq!(sched.results.len(), 1);
        let r = &sched.results[0];
        assert_eq!(r.inner_iterations, single.inner_iterations);
        assert_eq!(r.solution.pg, single.solution.pg);
        assert_eq!(r.solution.qg, single.solution.qg);
        assert_eq!(r.solution.vm, single.solution.vm);
        assert_eq!(r.solution.va, single.solution.va);
        assert_eq!(r.warm_state, single.warm_state);
    }
}

/// Warm-started scheduling with per-scenario ramp bounds matches the
/// batch front end under sharding and streaming.
#[test]
fn warm_started_scheduling_matches_batch() {
    let base = gridsim_grid::case9();
    let nominal = base.compile().unwrap();
    let params = short_params();
    let cold = AdmmSolver::new(params.clone()).solve(&nominal);
    let nets = mixed_set(&base, 4).networks().unwrap();
    let bounds: Vec<(Vec<f64>, Vec<f64>)> = nets
        .iter()
        .map(|n| gridsim_acopf::start::ramp_limited_bounds(n, cold.warm_state.previous_pg(), 0.1))
        .collect();
    let batch = one_device(params.clone(), Device::default()).solve_warm(
        &nets,
        &cold.warm_state,
        Some(&bounds),
    );
    let scheduler = ScenarioScheduler::with_pool(params, DevicePool::parallel(2)).with_lanes(1);
    let sched = scheduler.solve_warm(&nets, &cold.warm_state, Some(&bounds));
    assert_bitwise(&sched, &batch);
}

/// Every pinned backend takes the same scheduler paths and produces the
/// same bits under sharding (CI's matrix also sweeps the env-resolved
/// backend over this suite, so the combinations stay covered). Identical
/// numerics mean identical work: every backend bills the same kernels the
/// same launches and blocks — only time may differ.
#[test]
fn all_backends_agree_through_the_scheduler() {
    let params = short_params();
    let nets = mixed_set(&gridsim_grid::case9(), 4).networks().unwrap();
    let run = |pool: DevicePool| {
        let scheduler = ScenarioScheduler::with_pool(params.clone(), pool).with_lanes(1);
        let result = scheduler.run(FleetRequest::over(&nets));
        (result, scheduler.engine.pool().combined_snapshot().kernels)
    };
    let (seq, seq_kernels) = run(DevicePool::sequential(2));
    assert!(!seq_kernels.is_empty());
    for pool in [DevicePool::parallel(2), DevicePool::vectorized(2)] {
        let backend = pool.backend();
        let (got, kernels) = run(pool);
        assert_bitwise(&got, &seq);
        assert_eq!(kernels.len(), seq_kernels.len(), "{backend}");
        for (name, k) in &kernels {
            let s = seq_kernels
                .get(name)
                .unwrap_or_else(|| panic!("{backend}: unknown kernel {name}"));
            assert!(k.launches > 0, "{backend}: {name}");
            assert_eq!(k.launches, s.launches, "{backend}: {name} launches");
            assert_eq!(k.blocks, s.blocks, "{backend}: {name} blocks");
        }
    }
    // And the single-device sequential batch agrees too.
    let batch = one_device(params, Device::sequential()).run(FleetRequest::over(&nets));
    assert_bitwise(&seq, &batch);
}

/// Scenario sets whose members share loads or topology share one `Arc`'d
/// problem-data copy inside the engine.
#[test]
fn problem_data_is_deduplicated_across_scenarios() {
    let base = gridsim_grid::case9();
    let params = AdmmParams::default();
    let ramp_nets = ScenarioSet::load_ramp(base.clone(), 6, 0.95, 1.05)
        .networks()
        .unwrap();
    let p = ScenarioProblem::build(&ramp_nets, &params, None);
    assert_eq!(p.num_scenarios(), 6);
    let (gens, branches, _buses) = p.distinct_data_vecs();
    assert_eq!((gens, branches), (1, 1), "ramps share gens and branches");

    let outage_nets = ScenarioSet::branch_outages(base, 4).networks().unwrap();
    let p = ScenarioProblem::build(&outage_nets, &params, None);
    let (gens, _branches, buses) = p.distinct_data_vecs();
    assert_eq!((gens, buses), (1, 1), "outages share gens and buses");
}
