//! The scenario-job daemon: a multi-tenant queue over the fleet solvers.
//!
//! [`ServeDaemon`] owns a state directory (`jobs/*.json` manifests plus the
//! two per-family solution-store snapshots) and a fixed budget of worker
//! *slots*. Scheduling hoists the engine's streaming-admission idea one
//! level up: as any slot frees, [`gridsim_engine::lane_allocation`]
//! hands it to the highest-priority job with pending chunks (FIFO on ties,
//! per-job `max_lanes` caps as backpressure), so the fleet never idles
//! while any tenant has work, and no tenant can monopolize it.
//!
//! ## Durability and determinism
//!
//! The daemon itself keeps *no* authoritative state in memory: every chunk
//! completion is folded into the job's [`JobManifest`] and flushed
//! atomically before the slot is reused. A `kill -9` at any instant
//! therefore loses at most the chunks in flight, and a restarted daemon
//! ([`ServeDaemon::open`] on the same directory) re-runs exactly those.
//! Combined with the runner's frozen-snapshot store reads and
//! deferred-to-completion store commits, the resumed job's results are
//! bitwise identical to an uninterrupted run — the property the
//! `daemon` (in-process) and `kill_resume` (real SIGKILL) suites pin.

use crate::manifest::{JobCounts, JobManifest};
use crate::runner::{self, ChunkOutcome, FrozenStores};
use crate::spec::JobSpec;
use gridsim_admm::WarmState;
use gridsim_engine::{lane_allocation, JobSlot};
use gridsim_grid::Network;
use gridsim_ipm::IpmWarmStart;
use gridsim_store::{SolutionStore, StoreRunStats};
use std::collections::BTreeSet;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A runnable chunk: `(chunk_id, scenario indices)`.
type RunnableChunk = (usize, Vec<usize>);

/// What runs one chunk: [`runner::run_chunk`], except in tests that make a
/// chunk panic.
type ChunkRunner = fn(&JobSpec, &[Network], &[usize], &FrozenStores) -> ChunkOutcome;

/// One job's in-memory scheduling state; the manifest is the durable part.
struct Job {
    manifest: JobManifest,
    path: PathBuf,
    /// Compiled scenario networks (pure function of the spec).
    nets: Arc<Vec<Network>>,
    /// Store snapshot frozen when the job entered the daemon.
    stores: Arc<FrozenStores>,
    /// Chunk ids (positions in the fixed partition) currently in flight.
    running: BTreeSet<usize>,
    /// Backoff gate: no new chunks before this instant.
    eligible_at: Option<Instant>,
    /// Accumulated store-lookup traffic plus completion-time inserts.
    stats: StoreRunStats,
}

impl Job {
    /// Pending chunks as (chunk id, pending indices), excluding in-flight.
    fn runnable_chunks(&self) -> Vec<RunnableChunk> {
        self.manifest
            .chunks()
            .into_iter()
            .enumerate()
            .filter(|(id, _)| !self.running.contains(id))
            .map(|(id, chunk)| {
                (
                    id,
                    chunk
                        .into_iter()
                        .filter(|&i| {
                            self.manifest.records[i].state
                                == crate::manifest::ScenarioState::Pending
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .filter(|(_, c)| !c.is_empty())
            .collect()
    }
}

struct DaemonState {
    jobs: Vec<Job>,
    admm_store: SolutionStore<WarmState>,
    ipm_store: SolutionStore<IpmWarmStart>,
    next_submitted: u64,
}

/// Progress snapshot of one job — what [`JobHandle::status`] returns.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job name.
    pub name: String,
    /// Scenario counts by state (queued = `pending` minus `running`).
    pub counts: JobCounts,
    /// Scenarios currently in flight in running chunks.
    pub running: usize,
    /// True when every scenario is done or failed.
    pub complete: bool,
    /// True once the job's results are committed to the solution store.
    pub store_committed: bool,
    /// Store traffic: lookup hits/misses across the job's chunk runs,
    /// inserts from the completion-time commit.
    pub store: StoreRunStats,
}

/// A cheap cloneable handle onto one job in a daemon.
#[derive(Clone)]
pub struct JobHandle {
    state: Arc<Mutex<DaemonState>>,
    index: usize,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("index", &self.index)
            .finish()
    }
}

impl JobHandle {
    /// Current progress. Safe to call from any thread while the daemon
    /// runs; the snapshot is consistent (taken under the daemon lock).
    pub fn status(&self) -> JobStatus {
        let state = self.state.lock().unwrap();
        let job = &state.jobs[self.index];
        let mut counts = job.manifest.counts();
        let running: usize = job
            .manifest
            .chunks()
            .iter()
            .enumerate()
            .filter(|(id, _)| job.running.contains(id))
            .map(|(_, chunk)| {
                chunk
                    .iter()
                    .filter(|&&i| {
                        job.manifest.records[i].state == crate::manifest::ScenarioState::Pending
                    })
                    .count()
            })
            .sum();
        counts.pending -= running;
        JobStatus {
            name: job.manifest.spec.name.clone(),
            counts,
            running,
            complete: job.manifest.is_complete(),
            store_committed: job.manifest.store_committed,
            store: job.stats,
        }
    }
}

/// The daemon. See the module docs of `daemon.rs`.
pub struct ServeDaemon {
    dir: PathBuf,
    slots: usize,
    state: Arc<Mutex<DaemonState>>,
    run_chunk: ChunkRunner,
}

impl ServeDaemon {
    /// Open (or create) a state directory with `slots` worker slots:
    /// load both solution stores, re-queue every incomplete manifest under
    /// `jobs/`, and commit any job that completed but was killed before
    /// its store commit landed. A manifest whose spec [`submit`](Self::submit)
    /// would refuse is refused here too, as `InvalidData` naming its file.
    pub fn open(dir: impl Into<PathBuf>, slots: usize) -> io::Result<ServeDaemon> {
        assert!(slots >= 1, "the daemon needs at least one worker slot");
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("jobs"))?;
        // The store files are binary snapshots (`gridsim_store::persist`);
        // they keep their `.json` names because the benchmark's `sweep`
        // workload reads `store-admm.json` by name.
        let mut admm_store = SolutionStore::load_or_default(&dir.join("store-admm.json"))?;
        let mut ipm_store = SolutionStore::load_or_default(&dir.join("store-ipm.json"))?;

        let mut jobs = Vec::new();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir.join("jobs"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let manifest = JobManifest::load(&path)?;
            manifest.spec.validate().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            let nets = manifest
                .spec
                .networks()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
            jobs.push(Job {
                manifest,
                path,
                nets: Arc::new(nets),
                stores: Arc::new(FrozenStores::freeze(&admm_store, &ipm_store)),
                running: BTreeSet::new(),
                eligible_at: None,
                stats: StoreRunStats::default(),
            });
        }
        // Queue order is the persisted submission order, not file order.
        jobs.sort_by_key(|j| j.manifest.submitted);
        let next_submitted = jobs
            .iter()
            .map(|j| j.manifest.submitted + 1)
            .max()
            .unwrap_or(0);

        // Land store commits owed by jobs that finished right before a
        // kill; in submission order, so the replay is deterministic.
        for job in &mut jobs {
            if job.manifest.is_complete() && !job.manifest.store_committed {
                let inserts =
                    runner::commit_job(&job.manifest, &job.nets, &mut admm_store, &mut ipm_store)?;
                job.stats.inserts += inserts;
                job.manifest.store_committed = true;
                job.manifest.save(&job.path)?;
            }
        }
        let daemon = ServeDaemon {
            dir,
            slots,
            state: Arc::new(Mutex::new(DaemonState {
                jobs,
                admm_store,
                ipm_store,
                next_submitted,
            })),
            run_chunk: runner::run_chunk,
        };
        daemon.flush_stores()?;
        Ok(daemon)
    }

    /// Submit a job: validate the spec, persist a fresh manifest, freeze
    /// the store snapshot, enqueue. Fails on an invalid spec, a recipe that
    /// expands to no scenarios (`InvalidInput`), or a name collision with
    /// any job (finished or not) in this directory.
    pub fn submit(&self, spec: JobSpec) -> io::Result<JobHandle> {
        spec.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let nets = spec
            .networks()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        if nets.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("the recipe expands to no scenarios on {}", spec.case.id()),
            ));
        }
        let mut state = self.state.lock().unwrap();
        if state.jobs.iter().any(|j| j.manifest.spec.name == spec.name) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("a job named `{}` already exists", spec.name),
            ));
        }
        let path = self.dir.join("jobs").join(format!("{}.json", spec.name));
        let manifest = JobManifest::new(spec, state.next_submitted);
        state.next_submitted += 1;
        manifest.save(&path)?;
        let stores = Arc::new(FrozenStores::freeze(&state.admm_store, &state.ipm_store));
        state.jobs.push(Job {
            manifest,
            path,
            nets: Arc::new(nets),
            stores,
            running: BTreeSet::new(),
            eligible_at: None,
            stats: StoreRunStats::default(),
        });
        Ok(JobHandle {
            state: Arc::clone(&self.state),
            index: state.jobs.len() - 1,
        })
    }

    /// Status of every job, in submission order.
    pub fn status_all(&self) -> Vec<JobStatus> {
        let n = self.state.lock().unwrap().jobs.len();
        (0..n)
            .map(|index| {
                JobHandle {
                    state: Arc::clone(&self.state),
                    index,
                }
                .status()
            })
            .collect()
    }

    fn flush_stores(&self) -> io::Result<()> {
        let state = self.state.lock().unwrap();
        state.admm_store.save(&self.dir.join("store-admm.json"))?;
        state.ipm_store.save(&self.dir.join("store-ipm.json"))
    }

    /// Drain the queue: run chunks across worker slots until every job is
    /// complete (done or failed) and committed, then return. Progress is
    /// observable from other threads through [`JobHandle::status`].
    pub fn run_until_idle(&self) -> io::Result<()> {
        self.run(None).map(|_| ())
    }

    /// Run at most `max_chunks` chunk completions, then stop launching and
    /// drain what is in flight. Returns the number of chunks completed.
    /// This is the controlled-interruption hook the kill/resume tests use
    /// to park the daemon at an arbitrary durable state; a real `kill -9`
    /// lands on the same manifests minus the in-flight chunks.
    pub fn run_chunks(&self, max_chunks: usize) -> io::Result<usize> {
        self.run(Some(max_chunks))
    }

    fn run(&self, limit: Option<usize>) -> io::Result<usize> {
        let (tx, rx) = mpsc::channel::<(usize, usize, ChunkOutcome)>();
        let mut in_flight = 0usize;
        let mut completed = 0usize;
        let mut io_result = Ok(());

        std::thread::scope(|scope| loop {
            // A `max_chunks` budget caps launches, not just completions, so
            // `run_chunks(n)` runs exactly `n` chunks when n are pending.
            let budget = limit.map(|m| m.saturating_sub(completed + in_flight));
            let exhausted = budget == Some(0);
            // Phase 1: hand free slots to jobs (priority, FIFO, caps).
            let launches = if exhausted {
                Vec::new()
            } else {
                let mut state = self.state.lock().unwrap();
                let now = Instant::now();
                // Per job: (job index, runnable (chunk_id, scenario idxs)).
                let mut eligible: Vec<(usize, Vec<RunnableChunk>)> = Vec::new();
                for (ji, job) in state.jobs.iter().enumerate() {
                    if job.eligible_at.is_some_and(|t| t > now) {
                        continue;
                    }
                    let chunks = job.runnable_chunks();
                    if !chunks.is_empty() {
                        eligible.push((ji, chunks));
                    }
                }
                let slots: Vec<JobSlot> = eligible
                    .iter()
                    .map(|(ji, chunks)| {
                        let job = &state.jobs[*ji];
                        JobSlot {
                            priority: job.manifest.spec.priority,
                            submitted: job.manifest.submitted,
                            pending: chunks.len(),
                            running: job.running.len(),
                            cap: match job.manifest.spec.max_lanes {
                                0 => None,
                                n => Some(n),
                            },
                        }
                    })
                    .collect();
                let free = (self.slots - in_flight).min(budget.unwrap_or(usize::MAX));
                // `lane_allocation` returns winning job indices, one per
                // granted slot; fold into per-job counts.
                let mut grants = vec![0usize; eligible.len()];
                for j in lane_allocation(free, &slots) {
                    grants[j] += 1;
                }
                let mut launches = Vec::new();
                for (slot_idx, &n) in grants.iter().enumerate() {
                    let (ji, chunks) = &eligible[slot_idx];
                    for (chunk_id, indices) in chunks.iter().take(n) {
                        let job = &mut state.jobs[*ji];
                        job.running.insert(*chunk_id);
                        launches.push((
                            *ji,
                            *chunk_id,
                            indices.clone(),
                            job.manifest.spec.clone(),
                            Arc::clone(&job.nets),
                            Arc::clone(&job.stores),
                        ));
                    }
                }
                launches
            };

            for (ji, chunk_id, indices, spec, nets, stores) in launches {
                let tx = tx.clone();
                let run_chunk = self.run_chunk;
                in_flight += 1;
                scope.spawn(move || {
                    // A panicking chunk reports as one failed attempt of each
                    // of its scenarios, under the job's retry policy; had it
                    // not reported, this loop would wait for it forever.
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                        run_chunk(&spec, &nets, &indices, &stores)
                    }))
                    .unwrap_or_else(|_| ChunkOutcome::failed(&indices));
                    // The receiver outlives every worker inside this scope.
                    let _ = tx.send((ji, chunk_id, outcome));
                });
            }

            // Phase 2: wait for a completion (or the next backoff expiry).
            if in_flight == 0 {
                if limit.is_some_and(|m| completed >= m) {
                    break io_result.map(|_| completed);
                }
                let state = self.state.lock().unwrap();
                let now = Instant::now();
                let next_deadline = state
                    .jobs
                    .iter()
                    .filter(|j| !j.manifest.is_complete())
                    .filter_map(|j| j.eligible_at)
                    .filter(|&t| t > now)
                    .min();
                let all_done = state.jobs.iter().all(|j| j.manifest.is_complete());
                drop(state);
                match (all_done, next_deadline) {
                    (true, _) => break io_result.map(|_| completed),
                    (false, Some(t)) => {
                        std::thread::sleep(t.saturating_duration_since(Instant::now()));
                        continue;
                    }
                    (false, None) => {
                        // Nothing running, nothing schedulable, not done:
                        // impossible, since every chunk reports. Surface it.
                        break io_result.and(Err(io::Error::other(
                            "daemon stalled with pending work and no running chunks",
                        )));
                    }
                }
            }
            let (ji, chunk_id, outcome) = rx.recv().expect("a worker holds the sender");
            in_flight -= 1;
            completed += 1;
            if let Err(e) = self.finish_chunk(ji, chunk_id, outcome) {
                io_result = Err(e);
            }
            // Drain any further completions before rescheduling.
            while let Ok((ji, chunk_id, outcome)) = rx.try_recv() {
                in_flight -= 1;
                completed += 1;
                if let Err(e) = self.finish_chunk(ji, chunk_id, outcome) {
                    io_result = Err(e);
                }
            }
        })
    }

    /// Fold one chunk outcome into its manifest and flush; on job
    /// completion, commit results to the stores and flush those too.
    fn finish_chunk(&self, ji: usize, chunk_id: usize, outcome: ChunkOutcome) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        let state = &mut *state;
        let job = &mut state.jobs[ji];
        job.running.remove(&chunk_id);
        job.stats.hits += outcome.stats.hits;
        job.stats.misses += outcome.stats.misses;
        let mut any_failure = false;
        for s in outcome.scenarios {
            if s.converged {
                job.manifest.record_done(s.index, s.result);
            } else {
                job.manifest.record_failure(s.index);
                any_failure = true;
            }
        }
        if any_failure {
            // Exponential backoff keyed on the worst retry count among the
            // job's still-pending scenarios.
            let attempts = job
                .manifest
                .records
                .iter()
                .filter(|r| r.state == crate::manifest::ScenarioState::Pending)
                .map(|r| r.attempts)
                .max()
                .unwrap_or(0);
            if attempts > 0 {
                let backoff = job.manifest.spec.retry_backoff_ms << (attempts - 1).min(16);
                job.eligible_at = Some(Instant::now() + Duration::from_millis(backoff));
            }
        }
        job.manifest.save(&job.path)?;
        if job.manifest.is_complete() && !job.manifest.store_committed {
            let inserts = runner::commit_job(
                &job.manifest,
                &job.nets,
                &mut state.admm_store,
                &mut state.ipm_store,
            )?;
            job.stats.inserts += inserts;
            job.manifest.store_committed = true;
            job.manifest.save(&job.path)?;
            state.admm_store.save(&self.dir.join("store-admm.json"))?;
            state.ipm_store.save(&self.dir.join("store-ipm.json"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CaseName, ScenarioSpec, SolverFamily};
    use std::sync::atomic::{AtomicBool, Ordering};

    static PANICKED: AtomicBool = AtomicBool::new(false);

    /// Panics on its first call, and runs the chunk after that.
    fn panics_once(
        spec: &JobSpec,
        nets: &[Network],
        indices: &[usize],
        stores: &FrozenStores,
    ) -> ChunkOutcome {
        if !PANICKED.swap(true, Ordering::SeqCst) {
            panic!("chunk worker panics on its first call");
        }
        runner::run_chunk(spec, nets, indices, stores)
    }

    /// A chunk worker that panics used to hang the daemon: the loop kept
    /// its own sender and waited for a report that never came. The panic
    /// is now one failed attempt of each scenario in the chunk, and the
    /// retry completes the job.
    #[test]
    fn a_panicking_chunk_is_a_failed_attempt_and_the_retry_completes_the_job() {
        let dir = std::env::temp_dir().join("gridsim-serve-unit-panicking-chunk");
        let _ = std::fs::remove_dir_all(&dir);
        let mut daemon = ServeDaemon::open(&dir, 1).unwrap();
        daemon.run_chunk = panics_once;
        let spec = JobSpec::new(
            "panics-once",
            CaseName::Case5,
            ScenarioSpec::load_ramp(2, 0.98, 1.02),
            SolverFamily::Ipm,
        );
        let job = daemon.submit(spec).unwrap();
        // The daemon drains on its own thread, so a hang fails this test at
        // the timeout instead of hanging it.
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || tx.send(daemon.run_until_idle()));
        let drained = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("run_until_idle did not return within 30 s");
        drained.unwrap();
        drain.join().unwrap().unwrap();
        assert!(PANICKED.load(Ordering::SeqCst));
        let status = job.status();
        assert!(status.complete && status.store_committed);
        assert_eq!((status.counts.done, status.counts.failed), (2, 0));
        let manifest = JobManifest::load(&dir.join("jobs").join("panics-once.json")).unwrap();
        // One failed attempt, then the solve.
        assert!(manifest.records.iter().all(|r| r.attempts == 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
