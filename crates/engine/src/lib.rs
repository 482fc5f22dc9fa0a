//! # gridsim-engine
//!
//! The solver-agnostic scenario execution engine: *where and when* a fleet
//! of scenario solves runs, with no opinion about *what* a solve is.
//!
//! The engine grew inside the ADMM scenario scheduler (device sharding,
//! lane caps, streaming admission) and is hoisted here so every solver
//! family rides the same machinery: a solver plugs in by implementing
//! [`LaneSolver`] — open a per-device shard, advance its active lanes,
//! extract a finished lane, admit the next pending scenario — and the
//! [`Engine`] supplies
//!
//! * **sharding** — scenarios are dealt round-robin across the logical
//!   devices of a [`DevicePool`] ([`plan::shard_plan`]); shards execute
//!   concurrently, one host thread per device, each billing its kernel work
//!   to its own device's statistics stream,
//! * **streaming admission** — each device runs a fixed number of *lanes*
//!   (slots). When a lane's scenario finishes, its result is extracted and
//!   the shard's next pending scenario is admitted into the freed lane
//!   ([`plan::admission_plan`]), so a busy device never idles lanes on
//!   finished work,
//! * **aggregation** — outputs come back in input order regardless of the
//!   device/lane configuration, with the run's tick count (longest device)
//!   and per-device statistics deltas alongside.
//!
//! The engine imposes no synchronization between lanes beyond the shard's
//! step call, so a `LaneSolver` whose lanes are arithmetically independent
//! (the ADMM scenario fleet, the interior-point fleet) produces results
//! that are **independent of the device count, lane cap, and admission
//! order** — bitwise for steppers whose per-lane work is
//! configuration-independent, to solver tolerance for warm-start-chained
//! solvers where the lane a scenario lands in decides its starting point.

pub mod jobs;
pub mod plan;
pub mod request;

pub use request::{FleetRequest, StoreAccess};

use gridsim_batch::{Device, DevicePool, StatsSnapshot};
use plan::{admission_plan, shard_plan, total_lanes};
use std::time::{Duration, Instant};

/// One solver family's view of fleet execution.
///
/// The engine drives implementations through a fixed protocol, per shard:
///
/// 1. [`open_shard`](LaneSolver::open_shard) once, with the scenarios that
///    occupy the initial lanes (slot `s` opens holding `initial[s]`),
/// 2. [`step`](LaneSolver::step) repeatedly — one engine *tick* — until
///    every lane is drained. A step advances every active lane and reports
///    which lanes finished their current scenario: a batched stepper (the
///    ADMM fleet) advances all lanes one iteration per call, a
///    solve-to-completion solver (the interior-point fleet) finishes every
///    active lane's scenario in a single call,
/// 3. [`extract`](LaneSolver::extract) for each finished lane, then either
///    [`admit`](LaneSolver::admit) of the next pending scenario into the
///    freed slot or deactivation when the shard's queue is empty.
///
/// Warm-start carry is the implementation's business: a lane is the natural
/// home for state that should flow from one admitted scenario to the next
/// (previous primal/dual point, a cached symbolic analysis), because a
/// lane's admissions form a sequential chain even when the fleet as a whole
/// runs wide.
pub trait LaneSolver: Sync {
    /// Per-device state: the shard's lanes plus whatever device buffers and
    /// caches the solver keeps per slot.
    type Shard;
    /// Per-scenario result.
    type Output: Send;

    /// Open one device's shard with `initial[s]` occupying slot `s`. The
    /// lane count of this shard is `initial.len()`.
    fn open_shard(&self, device: &Device, initial: &[usize]) -> Self::Shard;

    /// Advance every active lane; return per-slot "finished this scenario"
    /// flags (entries for inactive slots are ignored).
    fn step(&self, shard: &mut Self::Shard, active: &[bool]) -> Vec<bool>;

    /// Extract slot `slot`'s finished result for scenario `scenario`.
    fn extract(&self, shard: &mut Self::Shard, slot: usize, scenario: usize) -> Self::Output;

    /// Admit `scenario` into the freed slot `slot`.
    fn admit(&self, shard: &mut Self::Shard, slot: usize, scenario: usize);

    /// Called once for every admission — each initial occupant right after
    /// [`open_shard`](LaneSolver::open_shard) (in slot order) and each
    /// streamed refill right after its [`admit`](LaneSolver::admit) — so a
    /// solver has one uniform point to re-seed a freshly admitted lane
    /// (e.g. from a warm-start solution store) regardless of whether the
    /// scenario arrived with the opening batch or through streaming.
    /// Default: no-op.
    fn on_admit(&self, shard: &mut Self::Shard, slot: usize, scenario: usize) {
        let _ = (shard, slot, scenario);
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

    /// Run `num_scenarios` scenarios through `solver`: shard round-robin
    /// across the pool, stream admissions within each shard, return outputs
    /// in input order.
    pub fn run<S: LaneSolver>(&self, solver: &S, num_scenarios: usize) -> EngineRun<S::Output> {
        let start_time = Instant::now();
        let before = self.pool.snapshots();
        let shards = shard_plan(num_scenarios, self.pool.len());
        let mut slots: Vec<Option<S::Output>> = (0..num_scenarios).map(|_| None).collect();
        let mut ticks = 0usize;
        if shards.len() == 1 {
            let (results, t) = run_shard(
                solver,
                self.pool.device(0),
                &shards[0],
                self.lanes_per_device,
            );
            ticks = t;
            for (idx, r) in results {
                slots[idx] = Some(r);
            }
        } else {
            // One host thread per device shard; each shard's kernel work is
            // billed to its own device stream.
            let shard_outputs = std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter()
                    .enumerate()
                    .map(|(d, shard)| {
                        let device = self.pool.device(d);
                        let lanes = self.lanes_per_device;
                        scope.spawn(move || run_shard(solver, device, shard, lanes))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("device shard thread panicked"))
                    .collect::<Vec<_>>()
            });
            for (results, t) in shard_outputs {
                // Shards run concurrently: the run's tick count is the
                // longest device's, the wall-clock analogue.
                ticks = ticks.max(t);
                for (idx, r) in results {
                    slots[idx] = Some(r);
                }
            }
        }
        EngineRun {
            outputs: slots
                .into_iter()
                .map(|r| r.expect("every scenario produces an output"))
                .collect(),
            ticks,
            solve_time: start_time.elapsed(),
            device_stats: self.pool.snapshots_since(&before),
        }
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::with_pool(DevicePool::default())
    }
}

/// Run one device's shard with streaming admission; returns the finished
/// scenarios tagged with their input indices, plus the shard's tick count.
fn run_shard<S: LaneSolver>(
    solver: &S,
    device: &Device,
    shard: &[usize],
    lane_cap: Option<usize>,
) -> (Vec<(usize, S::Output)>, usize) {
    let plan = admission_plan(shard, lane_cap);
    let ll = plan.lanes;
    let mut state = solver.open_shard(device, &plan.initial);
    for (s, &scenario) in plan.initial.iter().enumerate() {
        solver.on_admit(&mut state, s, scenario);
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
                    solver.admit(&mut state, s, next);
                    solver.on_admit(&mut state, s, next);
                    occupant[s] = next;
                }
                None => active[s] = false,
            }
        }
    }
    (out, ticks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A toy stepper: scenario `i` needs `work[i]` steps. Tracks admission
    /// sequences so the streaming protocol itself is testable without any
    /// real solver.
    struct Countdown {
        work: Vec<usize>,
        opened_shards: AtomicUsize,
        hook_calls: std::sync::Mutex<Vec<(usize, usize)>>,
    }

    struct CountdownShard {
        remaining: Vec<usize>,
        current: Vec<usize>,
        admissions: Vec<usize>,
    }

    impl Countdown {
        fn new(work: Vec<usize>) -> Countdown {
            Countdown {
                work,
                opened_shards: AtomicUsize::new(0),
                hook_calls: std::sync::Mutex::new(Vec::new()),
            }
        }
    }

    impl LaneSolver for Countdown {
        type Shard = CountdownShard;
        type Output = (usize, usize);

        fn open_shard(&self, _device: &Device, initial: &[usize]) -> CountdownShard {
            self.opened_shards.fetch_add(1, Ordering::Relaxed);
            CountdownShard {
                remaining: initial.iter().map(|&i| self.work[i]).collect(),
                current: initial.to_vec(),
                admissions: initial.to_vec(),
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

        fn admit(&self, shard: &mut CountdownShard, slot: usize, scenario: usize) {
            shard.remaining[slot] = self.work[scenario];
            shard.current[slot] = scenario;
            shard.admissions.push(scenario);
        }

        fn on_admit(&self, shard: &mut CountdownShard, slot: usize, scenario: usize) {
            assert_eq!(shard.current[slot], scenario, "hook fires on the occupant");
            self.hook_calls.lock().unwrap().push((slot, scenario));
        }
    }

    #[test]
    fn outputs_come_back_in_input_order_for_any_configuration() {
        let work = vec![3, 1, 4, 1, 5, 2];
        for devices in 1..=4 {
            for lanes in [Some(1), Some(2), None] {
                let solver = Countdown::new(work.clone());
                let mut engine = Engine::with_pool(DevicePool::parallel(devices));
                if let Some(l) = lanes {
                    engine = engine.with_lanes(l);
                }
                let run = engine.run(&solver, work.len());
                let expected: Vec<(usize, usize)> = work.iter().copied().enumerate().collect();
                assert_eq!(run.outputs, expected, "devices={devices} lanes={lanes:?}");
            }
        }
    }

    #[test]
    fn single_device_ticks_equal_max_work_without_cap() {
        let solver = Countdown::new(vec![3, 1, 4]);
        let run = Engine::with_pool(DevicePool::parallel(1)).run(&solver, 3);
        assert_eq!(run.ticks, 4);
    }

    #[test]
    fn streaming_one_lane_serializes_the_shard() {
        let work = vec![3, 1, 4];
        let solver = Countdown::new(work.clone());
        let run = Engine::with_pool(DevicePool::parallel(1))
            .with_lanes(1)
            .run(&solver, 3);
        // One lane: ticks are the sum of all work, and outputs stay ordered.
        assert_eq!(run.ticks, work.iter().sum::<usize>());
        assert_eq!(run.outputs.len(), 3);
    }

    #[test]
    fn shards_open_once_per_clamped_device() {
        let solver = Countdown::new(vec![1, 1]);
        let run = Engine::with_pool(DevicePool::parallel(5)).run(&solver, 2);
        assert_eq!(solver.opened_shards.load(Ordering::Relaxed), 2);
        assert_eq!(run.outputs.len(), 2);
        assert_eq!(run.device_stats.len(), 5, "one delta per pool device");
    }

    #[test]
    fn on_admit_fires_once_per_admission_initial_and_streamed() {
        // One device, two lanes over five scenarios: slots open with {0, 1}
        // and stream {2, 3, 4} in as lanes drain.
        let work = vec![2, 1, 1, 1, 1];
        let solver = Countdown::new(work.clone());
        let run = Engine::with_pool(DevicePool::parallel(1))
            .with_lanes(2)
            .run(&solver, work.len());
        assert_eq!(run.outputs.len(), work.len());
        let calls = solver.hook_calls.lock().unwrap();
        // Exactly one hook call per admitted scenario, starting with the
        // initial occupants in slot order.
        assert_eq!(calls.len(), work.len());
        assert_eq!(calls[0], (0, 0));
        assert_eq!(calls[1], (1, 1));
        let mut seen: Vec<usize> = calls.iter().map(|&(_, sc)| sc).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
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
