//! `sweep` — a daemon job round-trip.
//!
//! A screened ADMM contingency job on `case9` submitted to a fresh
//! `ServeDaemon` and drained one chunk at a time. It is the only path
//! through grid expansion → serve → screen → batched masked ADMM fleet →
//! store commit → manifest flush, with the loose screening tier and the
//! full-tolerance tier both live (the top load level graduates scenarios).
//!
//! The daemon builds its devices internally, so its kernels cannot be read
//! from outside. The warm-up therefore replays the job in-process — the
//! same chunks through `ContingencyFunnel` on driver-owned devices — and
//! requires the daemon's manifest to hold bit for bit the same results;
//! traced rounds repeat that replay for the screen/admm/batch numbers.

use super::{device_layer, Fingerprint};
use crate::harness::{Check, OpKind, Round, Workload, PREP_REPEATS};
use crate::trace::Recorder;
use gridsim_acopf::violations::relative_gap;
use gridsim_admm::{AdmmParams, ScenarioBatchResult, ScenarioResult};
use gridsim_batch::{Device, DevicePool, StatsSnapshot};
use gridsim_grid::{Network, ScenarioFingerprint};
use gridsim_ipm::{AcopfNlp, IpmOptions, IpmSolver};
use gridsim_screen::{Band, ContingencyFunnel, FullResults, FullTier, FunnelConfig};
use gridsim_serve::{
    run_chunk, CaseName, FrozenStores, JobManifest, JobSpec, ScenarioSpec, ServeDaemon,
    SolverFamily,
};
use gridsim_store::SolutionStore;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

const JOB: &str = "sweep";
const BENIGN: f64 = 2e-2;
const VIOLATING: f64 = 1e-1;

pub struct Sweep {
    spec: JobSpec,
    /// Scenarios the spec must expand to (asserted at construction).
    scenarios: usize,
    scratch: PathBuf,
    rounds_run: usize,
    /// The in-process replay of the job (set by the warm-up), and whether
    /// the daemon's manifest held exactly its results.
    expected: Option<Replay>,
    verified: bool,
    /// Fastest Σ of a round's chunk ops, for `serve.overhead_s`.
    best_chunk_wall: f64,
    /// Networks and finished manifest of the most recent traced round, for
    /// the probes.
    last: Option<(Vec<Network>, JobManifest)>,
    quality: (f64, f64),
}

/// The job run in-process: one funnel per chunk on driver-owned devices.
struct Replay {
    /// Final per-scenario results, serialised as the manifest stores them.
    results: Vec<Value>,
    graduated: usize,
    benign: usize,
    screen_s: f64,
    full_s: f64,
    /// Per-scenario inner iterations, both tiers.
    inner_iterations: usize,
    outer_iterations: usize,
    ticks: usize,
    /// Σ over fleet runs of ticks × scenarios admitted.
    lane_ticks: usize,
    devices: StatsSnapshot,
}

impl Sweep {
    pub fn new(seed: u64, smoke: bool, scratch: &Path) -> Sweep {
        // (case, recipe, chunk size, scenarios the recipe must expand to)
        let (case, scenarios, chunk, expected) = if smoke {
            // Two buses, one branch: no outage is eligible, so the recipe is
            // the base case plus one perturbed draw, one chunk each.
            let recipe = ScenarioSpec::contingency(1, 1.0, 1.0, 1, 0.005, seed, 0, 0, 0);
            (CaseName::TwoBus, recipe, 1, 2)
        } else {
            let recipe = ScenarioSpec::contingency(2, 0.95, 1.45, 1, 0.005, seed, 6, 2, 2);
            (CaseName::Case9, recipe, 6, 36)
        };
        let spec = JobSpec::new(JOB, case, scenarios, SolverFamily::Admm)
            .chunk_size(chunk)
            .screened(BENIGN, VIOLATING);
        assert_eq!(
            spec.scenario_count(),
            expected,
            "the contingency recipe expands to a fixed scenario count"
        );
        Sweep {
            spec,
            scenarios: expected,
            scratch: scratch.to_path_buf(),
            rounds_run: 0,
            expected: None,
            verified: false,
            best_chunk_wall: f64::INFINITY,
            last: None,
            quality: (f64::NAN, f64::NAN),
        }
    }

    fn chunks(&self) -> usize {
        self.scenarios.div_ceil(self.spec.chunk_size)
    }

    /// Run the job's chunks through the funnel the way the daemon's runner
    /// does, on devices the driver can read.
    fn replay(&self, nets: &[Network]) -> Replay {
        let mut out = Replay {
            results: Vec::with_capacity(nets.len()),
            graduated: 0,
            benign: 0,
            screen_s: 0.0,
            full_s: 0.0,
            inner_iterations: 0,
            outer_iterations: 0,
            ticks: 0,
            lane_ticks: 0,
            devices: StatsSnapshot::default(),
        };
        let tally = |batch: &ScenarioBatchResult, out: &mut Replay| {
            out.inner_iterations += batch.total_inner_iterations();
            out.outer_iterations += batch
                .results
                .iter()
                .map(|r| r.outer_iterations)
                .sum::<usize>();
            out.ticks += batch.ticks;
            out.lane_ticks += batch.ticks * batch.results.len();
        };
        for chunk in nets.chunks(self.spec.chunk_size) {
            let pool = DevicePool::single(Device::vectorized());
            let config = FunnelConfig {
                full: AdmmParams::test_profile(),
                tier: FullTier::Admm,
                benign_threshold: self.spec.benign_threshold,
                violating_threshold: self.spec.violating_threshold,
                ..Default::default()
            };
            let report =
                ContingencyFunnel::with_pool(config, pool.clone()).run(self.spec.case.id(), chunk);
            out.graduated += report.graduated.len();
            out.benign += report.band_count(Band::Benign);
            out.screen_s += report.screen_time().as_secs_f64();
            out.full_s += report.full_time().as_secs_f64();
            tally(&report.screening, &mut out);
            if let FullResults::Admm(full) = &report.full {
                tally(full, &mut out);
            }
            for i in 0..chunk.len() {
                let result: &ScenarioResult = match (report.full_index_of(i), &report.full) {
                    (Some(g), FullResults::Admm(full)) => &full.results[g],
                    _ => &report.screening.results[i],
                };
                out.results.push(result.to_value());
            }
            out.devices.merge(&pool.combined_snapshot());
        }
        out
    }

    /// Worst violation over the job's final solutions, and worst objective
    /// gap to the interior-point solver over the scenarios it solves to
    /// optimality. Generator-outage scenarios collapse a unit's bounds to
    /// zero width, which the interior-point start cannot be pushed inside
    /// of (it panics), so they have no reference.
    fn judge(nets: &[Network], results: &[Value]) -> (f64, f64) {
        let (mut violation, mut gap) = (0.0f64, 0.0f64);
        // Overloaded outage scenarios are infeasible; give up on them early.
        let reference_options = IpmOptions {
            max_iter: 100,
            ..Default::default()
        };
        for (net, value) in nets.iter().zip(results) {
            let r = ScenarioResult::from_value(value).expect("manifest holds scenario results");
            violation = violation.max(r.quality.max_violation());
            let fixed_unit =
                (0..net.ngen).any(|g| net.pmax[g] <= net.pmin[g] || net.qmax[g] <= net.qmin[g]);
            if fixed_unit {
                continue;
            }
            let ipm = IpmSolver::new(reference_options.clone())
                .with_device(Device::vectorized())
                .solve(&AcopfNlp::new(net));
            if ipm.is_optimal() {
                gap = gap.max(relative_gap(r.objective, ipm.objective));
            }
        }
        (violation, gap)
    }
}

impl Workload for Sweep {
    fn round(&mut self, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        // A fresh state directory per prep repetition; the last one is the
        // round's.
        let dirs: Vec<PathBuf> = (0..PREP_REPEATS)
            .map(|rep| {
                self.scratch
                    .join(format!("sweep-{}-{rep}", self.rounds_run))
            })
            .collect();
        self.rounds_run += 1;
        let dir = &dirs[PREP_REPEATS - 1];
        let manifest_path = dir.join("jobs").join(format!("{JOB}.json"));
        let n = self.scenarios;

        let daemon = round.prep(rec, |rec, rep| {
            rec.span("serve.open", |_| ServeDaemon::open(&dirs[rep], 1))
                .expect("scratch directory is writable")
        });

        let handle = round.op(rec, "submit", OpKind::Other, |rec| {
            let handle = rec.span("serve.submit", |_| daemon.submit(self.spec.clone()));
            (Check::plain(handle.is_ok()), handle)
        });
        let handle = handle.expect("a fresh daemon accepts the job");

        let mut chunk_wall = 0.0;
        for chunk in 0..self.chunks() {
            let solves = (n - chunk * self.spec.chunk_size).min(self.spec.chunk_size);
            round.op(rec, "chunk", OpKind::Principal, |rec| {
                let ran = rec.span("serve.run_chunk", |_| daemon.run_chunks(1));
                let check = Check {
                    ok: matches!(ran, Ok(1)),
                    solves,
                    fingerprint: 0,
                };
                (check, ())
            });
            chunk_wall += round.last_seconds();
            // Outside the op's clock: the flushed manifest holds every
            // result so far with exact float text, so its bytes are the
            // chunk's result bits.
            let bytes = std::fs::read(&manifest_path).unwrap_or_default();
            round.ops.last_mut().expect("just pushed").check.fingerprint =
                Fingerprint::new().bytes(&bytes).finish();
        }

        if self.expected.is_none() {
            // Warm-up, outside any op's clock: check the daemon's outputs
            // against the in-process replay and judge their quality
            // against the IPM. Later rounds inherit the verdict through
            // the manifest fingerprints.
            let nets = self.spec.networks().expect("registry scenarios compile");
            let replay = self.replay(&nets);
            let done: Vec<Value> = JobManifest::load(&manifest_path)
                .map(|m| m.results.into_iter().flatten().collect())
                .unwrap_or_default();
            self.verified = done == replay.results;
            if !self.verified {
                eprintln!(
                    "sweep: the daemon's manifest differs from the in-process funnel's results"
                );
            }
            self.quality = Self::judge(&nets, &done);
            self.expected = Some(replay);
        }

        let verified = self.verified;
        let status = round.op(rec, "status", OpKind::Other, |rec| {
            let s = rec.span("serve.status", |_| handle.status());
            let ok = verified
                && s.complete
                && s.store_committed
                && s.counts.done == n
                && s.counts.failed == 0
                && s.store.inserts == n;
            let fingerprint = Fingerprint::new()
                .usize(s.counts.done)
                .usize(s.store.hits)
                .usize(s.store.misses)
                .usize(s.store.inserts)
                .finish();
            let check = Check {
                ok,
                solves: 0,
                fingerprint,
            };
            (check, s)
        });

        self.best_chunk_wall = self.best_chunk_wall.min(chunk_wall);
        if rec.enabled() {
            // The daemon's own expansion, compilation and fingerprinting,
            // called directly so the grid layer shows on this workload too.
            let nets = rec.span("grid.expand", |rec| {
                let set = self.spec.scenarios.build(self.spec.case.base());
                rec.span("grid.compile", |_| set.networks())
                    .expect("registry scenarios compile")
            });
            rec.span("grid.fingerprint", |_| {
                for net in &nets {
                    std::hint::black_box(ScenarioFingerprint::of_network(net));
                }
            });
            let manifest =
                JobManifest::load(&manifest_path).expect("the daemon flushed a manifest");
            let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len()) as f64;
            let retries: usize = manifest
                .records
                .iter()
                .map(|r| r.attempts.saturating_sub(1))
                .sum();
            round.layer.extend([
                ("grid.scenarios", n as f64),
                (
                    "store.lookups",
                    (status.store.hits + status.store.misses) as f64,
                ),
                ("store.hits", status.store.hits as f64),
                ("store.inserts", status.store.inserts as f64),
                ("store.file_bytes", size(&dir.join("store-admm.json"))),
                ("serve.manifest_bytes", size(&manifest_path)),
                ("serve.retries", retries as f64),
                ("serve.failed", status.counts.failed as f64),
            ]);
            self.last = Some((nets, manifest));
        }

        drop(daemon);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        round
    }

    fn quality(&self) -> (f64, f64) {
        self.quality
    }

    /// What the daemon hides, as two passes (times take the better one,
    /// counts must agree): the job replayed in-process on driver-owned
    /// devices (screen, admm, engine and batch numbers), the runner's chunk
    /// function called directly (a chunk's cost without scheduling,
    /// manifest and store), and the manifest's save and load on their own.
    fn probes(&mut self) -> Vec<Vec<(&'static str, f64)>> {
        let (nets, manifest) = self.last.as_ref().expect("probes follow a traced round");
        let expected = self.expected.as_ref().expect("set by the warm-up");
        let n = self.scenarios;
        let frozen = FrozenStores::freeze(&SolutionStore::new(), &SolutionStore::new());
        let indices: Vec<usize> = (0..n).collect();
        let copy = self.scratch.join("manifest-copy.json");
        let pass = || {
            let replay = self.replay(nets);
            let fleet_wall = replay.screen_s + replay.full_s;
            let mut out = Vec::new();
            device_layer(&replay.devices, fleet_wall, &mut out);

            let t = Instant::now();
            for chunk in indices.chunks(self.spec.chunk_size) {
                std::hint::black_box(run_chunk(&self.spec, nets, chunk, &frozen));
            }
            let direct_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let saved = manifest.save(&copy);
            let save_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let loaded = JobManifest::load(&copy);
            let load_s = t.elapsed().as_secs_f64();

            let occupancy = replay.inner_iterations as f64 / replay.lane_ticks as f64;
            out.extend([
                // Exact-merged, so a replay that differs from the warm-up's
                // (or a manifest that does not survive its round trip)
                // surfaces as a count that did not repeat.
                (
                    "_replay_matches",
                    f64::from(replay.results == expected.results),
                ),
                (
                    "_manifest_round_trips",
                    f64::from(saved.is_ok() && loaded.is_ok()),
                ),
                ("admm.inner_iters", replay.inner_iterations as f64),
                ("admm.outer_iters", replay.outer_iterations as f64),
                ("admm.fleet_ticks", replay.ticks as f64),
                ("admm.mask_efficiency", occupancy),
                ("engine.ticks", replay.ticks as f64),
                ("engine.lanes", self.spec.chunk_size.min(n) as f64),
                ("engine.occupancy", occupancy),
                ("screen.screen_s", replay.screen_s),
                ("screen.full_s", replay.full_s),
                ("screen.graduated", replay.graduated as f64),
                ("screen.graduation_rate", replay.graduated as f64 / n as f64),
                ("screen.benign", replay.benign as f64),
                ("serve.chunk_compute_ms", direct_s * 1e3),
                (
                    "serve.overhead_s",
                    (self.best_chunk_wall - direct_s).max(0.0),
                ),
                ("serve.manifest_save_ms", save_s * 1e3),
                ("serve.manifest_load_ms", load_s * 1e3),
            ]);
            out
        };
        let passes = vec![
            vec![("_replay_matches", 1.0), ("_manifest_round_trips", 1.0)],
            pass(),
            pass(),
        ];
        let _ = std::fs::remove_file(&copy);
        passes
    }
}
