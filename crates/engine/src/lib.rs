//! # gridsim-engine
//!
//! The solver-agnostic scenario execution engine: *where and when* a fleet
//! of scenario solves runs, with no opinion about *what* a solve is.
//!
//! The engine grew inside the ADMM scenario scheduler (device sharding,
//! lane caps, streaming admission) and is hoisted here so every solver
//! family rides the same machinery: a solver plugs in by implementing
//! [`LaneSolver`] — open a per-device shard of empty lanes, admit a
//! scenario into a lane, advance the active lanes, extract a finished lane,
//! name the payload a finished scenario leaves in a store — and the
//! [`Engine`] supplies
//!
//! * **sharding** — scenarios are dealt round-robin across the logical
//!   devices of a [`DevicePool`] ([`shard_plan`]); shards execute
//!   concurrently, one host thread per device, each billing its kernel work
//!   to its own device's statistics stream,
//! * **streaming admission** — each device runs a fixed number of *lanes*
//!   (slots). Every scenario enters a lane through the same admission: the
//!   initial occupants fill the empty lanes in slot order, and when a
//!   lane's scenario finishes, its result is extracted and the shard's next
//!   pending scenario is admitted into the freed lane (`admission_plan`),
//!   so a busy device never idles lanes on
//!   finished work,
//! * **the warm-start store protocol** — a [`FleetRequest`]'s store
//!   binding is resolved here: every admission carries the nearest stored
//!   neighbor of its scenario, looked up against a view frozen before the
//!   run, and after a [`StoreAccess::Live`] run the finished scenarios'
//!   payloads are committed in input order (see [`LaneSolver`]),
//! * **aggregation** — outputs come back in input order regardless of the
//!   device/lane configuration, with the run's tick count (longest device),
//!   per-device statistics deltas and store traffic alongside.
//!
//! The engine imposes no synchronization between lanes beyond the shard's
//! step call, so a `LaneSolver` whose lanes are arithmetically independent
//! (the ADMM scenario fleet, the interior-point fleet) produces results
//! that are **independent of the device count, lane cap, and admission
//! order** — bitwise for steppers whose per-lane work is
//! configuration-independent, to solver tolerance for warm-start-chained
//! solvers where the lane a scenario lands in decides its starting point.

#![warn(unreachable_pub)]

mod jobs;
mod plan;
mod request;

pub use jobs::{lane_allocation, JobSlot};
pub use plan::{shard_plan, total_lanes};
pub use request::{FleetRequest, StoreAccess};

use gridsim_batch::{Device, DevicePool, StatsSnapshot};
use gridsim_grid::ScenarioFingerprint;
use gridsim_store::{StoreHit, StoreRunStats, StoreView};
use plan::admission_plan;
use std::time::{Duration, Instant};

/// One solver family's view of fleet execution.
///
/// The engine drives implementations through a fixed protocol, per shard:
///
/// 1. [`open_shard`](LaneSolver::open_shard) once, with the shard's lane
///    count, then [`admit`](LaneSolver::admit) of each initial occupant
///    into its empty slot, in slot order,
/// 2. [`step`](LaneSolver::step) repeatedly — one engine *tick* — until
///    every lane is drained. A step advances every active lane and reports
///    which lanes finished their current scenario: a batched stepper (the
///    ADMM fleet) advances all lanes one iteration per call, a
///    solve-to-completion solver (the interior-point fleet) finishes every
///    active lane's scenario in a single call,
/// 3. [`extract`](LaneSolver::extract) for each finished lane, then either
///    [`admit`](LaneSolver::admit) of the next pending scenario into the
///    freed slot or deactivation when the shard's queue is empty,
/// 4. after a [`StoreAccess::Live`] run, [`commit`](LaneSolver::commit)
///    of every output, in input order.
///
/// The store protocol is the engine's; a solver only says how a lane is
/// seeded from a payload and which payload a finished output leaves. With a
/// store bound, each scenario is fingerprinted once and every
/// [`Admission`] (initial or streamed, each exactly once) carries the
/// nearest entry ([`Hit`]) of a view frozen before the run, so the run's
/// own results are invisible to its lookups. `admit` reports whether it
/// seeded the lane from the hit; a lookup that seeded nothing counts as a
/// miss. Commits land in the live store in input order, so its contents do
/// not depend on the device count, the lane cap or thread timing; a
/// [`StoreAccess::Snapshot`] run commits nothing.
///
/// Warm-start carry between admissions is the implementation's business: a
/// lane is the natural home for state that should flow from one admitted
/// scenario to the next (previous primal/dual point, a cached symbolic
/// analysis), because a lane's admissions form a sequential chain even
/// when the fleet as a whole runs wide.
pub trait LaneSolver: Sync {
    /// Per-device state: the shard's lanes plus whatever device buffers and
    /// caches the solver keeps per slot.
    type Shard;
    /// Per-scenario result.
    type Output: Send;
    /// What a solution store keeps per solved scenario for this family.
    type Payload: Send + Sync;

    /// Open one device's shard with `lanes` empty slots; each is filled by
    /// [`admit`](LaneSolver::admit) before the first step.
    fn open_shard(&self, device: &Device, lanes: usize) -> Self::Shard;

    /// Advance every active lane; return per-slot "finished this scenario"
    /// flags (entries for inactive slots are ignored).
    fn step(&self, shard: &mut Self::Shard, active: &[bool]) -> Vec<bool>;

    /// Extract slot `slot`'s finished result for scenario `scenario`.
    fn extract(&self, shard: &mut Self::Shard, slot: usize, scenario: usize) -> Self::Output;

    /// Admit into the empty or freed slot `slot`; return whether the lane
    /// was seeded from the admission's hit.
    fn admit(
        &self,
        shard: &mut Self::Shard,
        slot: usize,
        admission: &Admission<'_, Self::Payload>,
    ) -> bool;

    /// The payload a finished output leaves in a live store, or `None`
    /// when it leaves nothing (e.g. the solve did not converge).
    fn commit(&self, output: &Self::Output) -> Option<Self::Payload>;
}

/// One scenario entering a lane.
#[derive(Debug)]
pub struct Admission<'r, P> {
    /// Input index of the admitted scenario.
    pub scenario: usize,
    /// The nearest stored neighbor of the scenario; `None` without a store
    /// or when the store holds no eligible neighbor.
    pub hit: Option<Hit<'r, P>>,
}

/// A store entry offered to an admission.
#[derive(Debug)]
pub struct Hit<'r, P> {
    found: StoreHit<P>,
    fps: &'r [ScenarioFingerprint],
    scenario: usize,
}

impl<P> Hit<'_, P> {
    /// The stored payload to seed from.
    pub fn payload(&self) -> &P {
        &self.found.entry.payload
    }

    /// True when the hit is strictly closer (in RMS load distance) to the
    /// admitted scenario than the run's scenario `other` is. A scenario of
    /// another structure, or none at all, is never closer.
    pub fn closer_than(&self, other: Option<usize>) -> bool {
        let fp = &self.fps[self.scenario];
        let other = other.map(|o| &self.fps[o]);
        let other = other.filter(|ofp| ofp.structure == fp.structure);
        self.found.distance < other.map_or(f64::INFINITY, |ofp| ofp.distance(fp))
    }
}

/// The lookup side of a bound store: the frozen view, the group key, and
/// every scenario's fingerprint.
struct Lookup<'r, P> {
    case_id: &'r str,
    view: &'r StoreView<P>,
    fps: Vec<ScenarioFingerprint>,
}

impl<P> Lookup<'_, P> {
    fn hit(&self, scenario: usize) -> Option<Hit<'_, P>> {
        let found = self.view.nearest(self.case_id, &self.fps[scenario])?;
        Some(Hit {
            found,
            fps: &self.fps,
            scenario,
        })
    }
}

/// Result of one engine run.
#[derive(Debug, Clone)]
pub struct EngineRun<T> {
    /// Per-scenario outputs, in input order.
    pub outputs: Vec<T>,
    /// Engine ticks executed: each tick is one [`LaneSolver::step`] per
    /// still-active shard, and shards run concurrently, so this is the
    /// *longest* device's step count (the wall-clock analogue), not the sum.
    pub ticks: usize,
    /// Wall-clock time of the run.
    pub solve_time: Duration,
    /// Per-device statistics deltas for this run, in device order (devices
    /// beyond the clamped shard count report empty deltas).
    pub device_stats: Vec<StatsSnapshot>,
    /// Store traffic: seeded admissions, admissions that consulted the
    /// store without seeding from it, and commits. All zero without a
    /// store.
    pub store: StoreRunStats,
}

/// The solver-agnostic scenario execution engine: a [`DevicePool`] plus a
/// lane policy, driving any [`LaneSolver`].
#[derive(Debug, Clone)]
pub struct Engine {
    pool: DevicePool,
    lanes_per_device: Option<usize>,
}

impl Engine {
    /// An engine on the environment-selected pool: `GRIDSIM_DEVICES`
    /// logical devices (default 1), each on the launch backend
    /// `GRIDSIM_BACKEND` selects (default: `ExecutionMode::Auto`
    /// resolution).
    pub fn from_env() -> Engine {
        Engine::with_pool(DevicePool::from_env())
    }

    /// An engine on a specific device pool.
    pub fn with_pool(pool: DevicePool) -> Engine {
        Engine {
            pool,
            lanes_per_device: None,
        }
    }

    /// Cap the number of concurrent scenario lanes per device. With fewer
    /// lanes than scenarios per shard, the engine streams: finished lanes
    /// are refilled from the pending queue. Without a cap (the default)
    /// each device admits its whole shard at once.
    pub fn with_lanes(mut self, lanes_per_device: usize) -> Engine {
        assert!(lanes_per_device >= 1, "need at least one lane");
        self.lanes_per_device = Some(lanes_per_device);
        self
    }

    /// The device pool scenarios are sharded across.
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// Total lanes this engine opens for a run over `num_scenarios`
    /// scenarios ([`plan::total_lanes`] over this engine's configuration).
    pub fn total_lanes(&self, num_scenarios: usize) -> usize {
        total_lanes(num_scenarios, self.pool.len(), self.lanes_per_device)
    }

    /// Run the request's scenarios through `solver`: shard round-robin
    /// across the pool, stream admissions within each shard, and keep the
    /// store protocol of [`LaneSolver`]. Outputs come back in input order.
    ///
    /// # Panics
    /// When the request holds no scenario, or binds a store without a case
    /// id.
    pub fn run<S: LaneSolver>(
        &self,
        solver: &S,
        request: FleetRequest<'_, S::Payload>,
    ) -> EngineRun<S::Output> {
        let start_time = Instant::now();
        let before = self.pool.snapshots();
        let case_id = request.store_case_id();
        // Freeze-at-start: a live store is looked up through a view taken
        // before the first admission.
        let frozen;
        let (view, live) = match request.store {
            StoreAccess::None => (None, None),
            StoreAccess::Snapshot(view) => (Some(view), None),
            StoreAccess::Live(store) => {
                frozen = store.view();
                (Some(&frozen), Some(store))
            }
        };
        let lookup = view.map(|view| Lookup {
            case_id: case_id.expect("store_case_id checked"),
            view,
            fps: request
                .nets
                .iter()
                .map(ScenarioFingerprint::of_network)
                .collect(),
        });
        let lookup = lookup.as_ref();
        let num_scenarios = request.nets.len();
        let shards = shard_plan(num_scenarios, self.pool.len());
        let lanes = self.lanes_per_device;
        let shard_runs = if shards.len() == 1 {
            vec![run_shard(
                solver,
                self.pool.device(0),
                &shards[0],
                lanes,
                lookup,
            )]
        } else {
            // One host thread per device shard; each shard's kernel work is
            // billed to its own device stream.
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter()
                    .enumerate()
                    .map(|(d, shard)| {
                        let device = self.pool.device(d);
                        scope.spawn(move || run_shard(solver, device, shard, lanes, lookup))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("device shard thread panicked"))
                    .collect()
            })
        };
        let mut slots: Vec<Option<S::Output>> = (0..num_scenarios).map(|_| None).collect();
        let mut ticks = 0usize;
        let mut store = StoreRunStats::default();
        for (results, t, traffic) in shard_runs {
            // Shards run concurrently: the run's tick count is the longest
            // device's, the wall-clock analogue.
            ticks = ticks.max(t);
            store.merge(&traffic);
            for (idx, r) in results {
                slots[idx] = Some(r);
            }
        }
        let outputs: Vec<S::Output> = slots
            .into_iter()
            .map(|r| r.expect("every scenario produces an output"))
            .collect();
        let solve_time = start_time.elapsed();
        if let (Some(target), Some(lookup)) = (live, lookup) {
            // Commit in input order: deterministic store contents whichever
            // device solved what when.
            for (fp, output) in lookup.fps.iter().zip(&outputs) {
                if let Some(payload) = solver.commit(output) {
                    target.insert(lookup.case_id, fp, payload);
                    store.inserts += 1;
                }
            }
        }
        EngineRun {
            outputs,
            ticks,
            solve_time,
            device_stats: self.pool.snapshots_since(&before),
            store,
        }
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::with_pool(DevicePool::default())
    }
}

/// Run one device's shard with streaming admission; returns the finished
/// scenarios tagged with their input indices, the shard's tick count and
/// its store traffic.
fn run_shard<S: LaneSolver>(
    solver: &S,
    device: &Device,
    shard: &[usize],
    lane_cap: Option<usize>,
    lookup: Option<&Lookup<'_, S::Payload>>,
) -> (Vec<(usize, S::Output)>, usize, StoreRunStats) {
    let mut store = StoreRunStats::default();
    // Every scenario, initial occupant or refill, enters its lane here.
    let mut admit = |state: &mut S::Shard, slot: usize, scenario: usize| {
        let a = Admission {
            scenario,
            hit: lookup.and_then(|l| l.hit(scenario)),
        };
        let seeded = solver.admit(state, slot, &a);
        match lookup {
            Some(_) if a.hit.is_some() && seeded => store.hits += 1,
            Some(_) => store.misses += 1,
            None => {}
        }
    };
    let plan = admission_plan(shard, lane_cap);
    let ll = plan.lanes;
    let mut state = solver.open_shard(device, ll);
    for (slot, &scenario) in plan.initial.iter().enumerate() {
        admit(&mut state, slot, scenario);
    }
    let mut occupant = plan.initial;
    let mut queue = plan.refills.into_iter();
    let mut active = vec![true; ll];
    let mut out: Vec<(usize, S::Output)> = Vec::with_capacity(shard.len());
    let mut ticks = 0usize;

    while active.iter().any(|&a| a) {
        ticks += 1;
        let finished = solver.step(&mut state, &active);
        debug_assert_eq!(finished.len(), ll, "one finished flag per lane");
        // Extract finished lanes and stream the next pending scenarios in.
        for s in 0..ll {
            if !active[s] || !finished[s] {
                continue;
            }
            out.push((occupant[s], solver.extract(&mut state, s, occupant[s])));
            match queue.next() {
                Some(next) => {
                    admit(&mut state, s, next);
                    occupant[s] = next;
                }
                None => active[s] = false,
            }
        }
    }
    (out, ticks, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_grid::Network;
    use gridsim_store::SolutionStore;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A toy stepper: scenario `i` needs `work[i]` steps, and a store
    /// payload is a `u32`. Logs every admission (slot, scenario, seeded
    /// payload) so the streaming and store protocols are testable without
    /// any real solver.
    struct Countdown {
        work: Vec<usize>,
        /// Hits carrying this payload are declined.
        decline: Option<u32>,
        opened_shards: AtomicUsize,
        admissions: Mutex<Vec<(usize, usize, Option<u32>)>>,
    }

    struct CountdownShard {
        remaining: Vec<usize>,
        current: Vec<usize>,
    }

    impl Countdown {
        fn new(work: Vec<usize>) -> Countdown {
            Countdown {
                work,
                decline: None,
                opened_shards: AtomicUsize::new(0),
                admissions: Mutex::new(Vec::new()),
            }
        }

        /// Log one admission; return whether it seeded from its hit.
        fn seed(&self, slot: usize, admission: &Admission<'_, u32>) -> bool {
            let seed = admission
                .hit
                .as_ref()
                .map(|h| *h.payload())
                .filter(|&p| Some(p) != self.decline);
            let entry = (slot, admission.scenario, seed);
            self.admissions.lock().unwrap().push(entry);
            seed.is_some()
        }
    }

    impl LaneSolver for Countdown {
        type Shard = CountdownShard;
        type Output = (usize, usize);
        type Payload = u32;

        fn open_shard(&self, _device: &Device, lanes: usize) -> CountdownShard {
            self.opened_shards.fetch_add(1, Ordering::Relaxed);
            CountdownShard {
                remaining: vec![0; lanes],
                current: vec![usize::MAX; lanes],
            }
        }

        fn step(&self, shard: &mut CountdownShard, active: &[bool]) -> Vec<bool> {
            shard
                .remaining
                .iter_mut()
                .zip(active)
                .map(|(r, &a)| {
                    if a {
                        *r -= 1;
                        *r == 0
                    } else {
                        false
                    }
                })
                .collect()
        }

        fn extract(
            &self,
            shard: &mut CountdownShard,
            slot: usize,
            scenario: usize,
        ) -> Self::Output {
            assert_eq!(shard.current[slot], scenario, "engine mixed up occupants");
            (scenario, self.work[scenario])
        }

        fn admit(
            &self,
            shard: &mut CountdownShard,
            slot: usize,
            admission: &Admission<'_, u32>,
        ) -> bool {
            shard.remaining[slot] = self.work[admission.scenario];
            shard.current[slot] = admission.scenario;
            self.seed(slot, admission)
        }

        /// Odd-work scenarios leave nothing behind; the rest commit
        /// `100 + scenario`.
        fn commit(&self, &(scenario, work): &(usize, usize)) -> Option<u32> {
            (work % 2 == 0).then_some(100 + scenario as u32)
        }
    }

    /// `n` case9 scenarios at loads 1.000, 1.001, … — all inside each
    /// other's store radius.
    fn nets(n: usize) -> Vec<Network> {
        (0..n)
            .map(|i| {
                gridsim_grid::case9()
                    .scale_load(1.0 + 0.001 * i as f64)
                    .compile()
                    .unwrap()
            })
            .collect()
    }

    fn engine(devices: usize, lanes: Option<usize>) -> Engine {
        let engine = Engine::with_pool(DevicePool::parallel(devices));
        match lanes {
            Some(l) => engine.with_lanes(l),
            None => engine,
        }
    }

    #[test]
    fn outputs_come_back_in_input_order_for_any_configuration() {
        let work = vec![3, 1, 4, 1, 5, 2];
        let nets = nets(work.len());
        for devices in 1..=4 {
            for lanes in [Some(1), Some(2), None] {
                let solver = Countdown::new(work.clone());
                let run = engine(devices, lanes).run(&solver, FleetRequest::over(&nets));
                let expected: Vec<(usize, usize)> = work.iter().copied().enumerate().collect();
                assert_eq!(run.outputs, expected, "devices={devices} lanes={lanes:?}");
                assert_eq!(run.store, StoreRunStats::default(), "no store, no traffic");
            }
        }
    }

    #[test]
    fn single_device_ticks_equal_max_work_without_cap() {
        let solver = Countdown::new(vec![3, 1, 4]);
        let run = engine(1, None).run(&solver, FleetRequest::over(&nets(3)));
        assert_eq!(run.ticks, 4);
    }

    #[test]
    fn streaming_one_lane_serializes_the_shard() {
        let work = vec![3, 1, 4];
        let solver = Countdown::new(work.clone());
        let run = engine(1, Some(1)).run(&solver, FleetRequest::over(&nets(3)));
        // One lane: ticks are the sum of all work, and outputs stay ordered.
        assert_eq!(run.ticks, work.iter().sum::<usize>());
        assert_eq!(run.outputs.len(), 3);
    }

    #[test]
    fn shards_open_once_per_clamped_device() {
        let solver = Countdown::new(vec![1, 1]);
        let run = engine(5, None).run(&solver, FleetRequest::over(&nets(2)));
        assert_eq!(solver.opened_shards.load(Ordering::Relaxed), 2);
        assert_eq!(run.outputs.len(), 2);
        assert_eq!(run.device_stats.len(), 5, "one delta per pool device");
    }

    #[test]
    fn admission_hook_fires_once_per_admission_in_plan_order() {
        // One device, two lanes over five scenarios: slots open with {0, 1}
        // and stream {2, 3, 4} in as lanes drain.
        let work = vec![2, 1, 1, 1, 1];
        let solver = Countdown::new(work.clone());
        let run = engine(1, Some(2)).run(&solver, FleetRequest::over(&nets(work.len())));
        assert_eq!(run.outputs.len(), work.len());
        let plan = plan::admission_plan(&plan::shard_plan(work.len(), 1)[0], Some(2));
        let calls = solver.admissions.lock().unwrap();
        // The initial occupants in slot order, then the refills in refill
        // order: each scenario exactly once.
        let order: Vec<usize> = calls.iter().map(|&(_, scenario, _)| scenario).collect();
        assert_eq!(order, [plan.initial.clone(), plan.refills].concat());
        let initial_slots: Vec<usize> = calls[..plan.lanes].iter().map(|c| c.0).collect();
        assert_eq!(initial_slots, [0, 1]);
    }

    /// A live run on an empty store looks every admission up against the
    /// view frozen before it, so its own commits never seed it — even on one
    /// lane, where each scenario finishes before the next, nearby one is
    /// admitted. The commits land after the run in input order, skipping
    /// outputs that leave no payload.
    #[test]
    fn live_runs_freeze_lookups_and_commit_in_input_order() {
        // Descending work: on several lanes the later scenarios finish
        // first.
        let work = vec![6, 5, 4, 3, 2, 1];
        let nets = nets(work.len());
        let solver = Countdown::new(work.clone());
        let mut store = SolutionStore::new();
        let run = engine(2, Some(2)).run(
            &solver,
            FleetRequest::over(&nets).case("case9").store(&mut store),
        );
        let committed = [0, 2, 4];
        assert_eq!(
            run.store,
            StoreRunStats {
                hits: 0,
                misses: work.len(),
                inserts: committed.len(),
            }
        );
        assert!(solver
            .admissions
            .lock()
            .unwrap()
            .iter()
            .all(|a| a.2.is_none()));
        for (index, &scenario) in committed.iter().enumerate() {
            let fp = ScenarioFingerprint::of_network(&nets[scenario]);
            let hit = store.nearest("case9", &fp).expect("committed");
            assert_eq!(hit.index, index, "input-order insertion");
            assert_eq!(hit.distance, 0.0);
            assert_eq!(hit.entry.payload, 100 + scenario as u32);
        }
        assert_eq!(store.len(), committed.len());
    }

    /// The hook decides: a declined hit is a miss, an accepted one a hit,
    /// and a snapshot binding commits nothing.
    #[test]
    fn declined_hits_are_misses_and_snapshots_commit_nothing() {
        let nets = nets(4);
        let mut store = SolutionStore::new();
        for (i, net) in nets.iter().enumerate() {
            store.insert("case9", &ScenarioFingerprint::of_network(net), i as u32);
        }
        let view = store.view();
        let mut solver = Countdown::new(vec![1, 2, 3, 4]);
        solver.decline = Some(2);
        let run = engine(1, Some(1)).run(
            &solver,
            FleetRequest::over(&nets).case("case9").snapshot(&view),
        );
        assert_eq!(
            run.store,
            StoreRunStats {
                hits: 3,
                misses: 1,
                inserts: 0,
            }
        );
        // Every scenario found itself (distance 0) and seeded from it,
        // except the declined one.
        let seeds: Vec<Option<u32>> = solver
            .admissions
            .lock()
            .unwrap()
            .iter()
            .map(|a| a.2)
            .collect();
        assert_eq!(seeds, [Some(0), Some(1), None, Some(3)]);
        assert_eq!(store.len(), 4);
    }

    /// Stats, seeds and the post-run store are the same in every device and
    /// lane configuration.
    #[test]
    fn store_protocol_is_identical_across_configurations() {
        let work = vec![3, 1, 4, 1, 5, 2, 6];
        let nets = nets(work.len());
        let mut reference = None;
        for (devices, lanes) in [(1, None), (1, Some(1)), (2, Some(1)), (3, Some(2))] {
            // Half the scenarios stored before the run.
            let mut store = SolutionStore::new();
            for (i, net) in nets.iter().enumerate().step_by(2) {
                store.insert("case9", &ScenarioFingerprint::of_network(net), 7 * i as u32);
            }
            let mut solver = Countdown::new(work.clone());
            solver.decline = Some(14);
            let run = engine(devices, lanes).run(
                &solver,
                FleetRequest::over(&nets).case("case9").store(&mut store),
            );
            let mut seeds = solver.admissions.into_inner().unwrap();
            seeds.sort_by_key(|&(_, scenario, _)| scenario);
            let seeds: Vec<Option<u32>> = seeds.into_iter().map(|a| a.2).collect();
            // Stored scenarios find themselves, and the one stored with the
            // declined payload seeds nothing.
            let own = [seeds[0], seeds[2], seeds[4], seeds[6]];
            assert_eq!(own, [Some(0), None, Some(28), Some(42)]);
            let contents: Vec<(usize, u32)> = nets
                .iter()
                .filter_map(|n| store.nearest("case9", &ScenarioFingerprint::of_network(n)))
                .map(|h| (h.index, h.entry.payload))
                .collect();
            let observed = (run.store, seeds, contents, store.len());
            match &reference {
                None => reference = Some(observed),
                Some(r) => assert_eq!(&observed, r, "devices={devices} lanes={lanes:?}"),
            }
        }
    }

    #[test]
    fn total_lanes_reflects_configuration() {
        let engine = Engine::with_pool(DevicePool::parallel(2)).with_lanes(2);
        assert_eq!(engine.total_lanes(5), 4);
        assert_eq!(Engine::with_pool(DevicePool::parallel(2)).total_lanes(5), 5);
    }

    #[test]
    fn env_pool_default_is_single_device() {
        if std::env::var(gridsim_batch::DEVICE_COUNT_ENV).is_err() {
            assert_eq!(Engine::from_env().pool().len(), 1);
        }
    }
}
