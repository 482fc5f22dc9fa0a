//! Family adapters: one durability chunk = one fleet run.
//!
//! A chunk executes on a fresh single-device engine with every scenario
//! admitted at once, store lookups against the job's frozen snapshot
//! ([`gridsim_engine::StoreAccess::Snapshot`]), and no mid-job store writes. That makes a
//! chunk a pure function of `(spec, chunk indices, frozen snapshot)` — the
//! property the manifest's re-run-the-killed-chunk resume rule relies on.
//! Store commits are instead replayed from the manifest at job completion
//! by [`commit_job`], which is idempotent across restarts.

use crate::manifest::{JobManifest, ScenarioState};
use crate::spec::{JobSpec, SolverFamily};
use gridsim_admm::{AdmmParams, AdmmStatus, ScenarioResult, ScenarioScheduler, WarmState};
use gridsim_batch::{Device, DevicePool};
use gridsim_engine::{Engine, FleetRequest};
use gridsim_grid::{Network, ScenarioFingerprint};
use gridsim_ipm::{IpmFleetSolver, IpmOptions, IpmWarmStart};
use gridsim_screen::{Band, ContingencyFunnel, FullResults, FullTier, FunnelConfig};
use gridsim_store::{SolutionStore, StoreRunStats, StoreView};
use serde::{Deserialize, Serialize, Value};
use std::io;

/// Env var: per-scenario artificial delay in milliseconds, applied before
/// each chunk run. Exists so kill/resume tests (and demos) can widen the
/// window in which a chunk is in flight; unset or 0 in normal operation.
pub const THROTTLE_ENV: &str = "GRIDSIM_SERVE_THROTTLE_MS";

/// Outcome of one scenario inside a chunk run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario index within the job.
    pub index: usize,
    /// True when the solve converged (the scenario is durably done).
    pub converged: bool,
    /// The family result struct, serialized; recorded in the manifest only
    /// for converged scenarios.
    pub result: Value,
}

/// Result of one chunk run.
#[derive(Debug, Clone)]
pub struct ChunkOutcome {
    /// Per-scenario outcomes, in chunk order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Store-lookup traffic of the run (hits/misses; inserts stay 0 —
    /// commits are deferred to `commit_job`).
    pub stats: StoreRunStats,
}

impl ChunkOutcome {
    /// Every scenario at `indices` failed, with no result and no store
    /// traffic: what a chunk whose run panicked reports.
    pub(crate) fn failed(indices: &[usize]) -> ChunkOutcome {
        ChunkOutcome {
            scenarios: indices
                .iter()
                .map(|&index| ScenarioOutcome {
                    index,
                    converged: false,
                    result: Value::Null,
                })
                .collect(),
            stats: StoreRunStats::default(),
        }
    }
}

/// The job's store snapshot, frozen when the job first activates. Both
/// family views are carried so the runner stays family-agnostic.
#[derive(Debug, Clone)]
pub struct FrozenStores {
    /// ADMM warm-state snapshot.
    pub admm: StoreView<WarmState>,
    /// Interior-point warm-start snapshot.
    pub ipm: StoreView<IpmWarmStart>,
}

impl FrozenStores {
    /// Snapshot both live stores.
    pub fn freeze(
        admm: &SolutionStore<WarmState>,
        ipm: &SolutionStore<IpmWarmStart>,
    ) -> FrozenStores {
        FrozenStores {
            admm: admm.view(),
            ipm: ipm.view(),
        }
    }
}

fn throttle(scenarios: usize) {
    if let Ok(ms) = std::env::var(THROTTLE_ENV) {
        if let Ok(ms) = ms.parse::<u64>() {
            if ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(ms * scenarios as u64));
            }
        }
    }
}

/// Run one chunk: the scenarios at `indices` (ascending, within `nets`) on
/// a fresh single-device engine. See the module docs of `runner.rs` for the
/// determinism contract.
pub fn run_chunk(
    spec: &JobSpec,
    nets: &[Network],
    indices: &[usize],
    stores: &FrozenStores,
) -> ChunkOutcome {
    throttle(indices.len());
    let chunk_nets: Vec<Network> = indices.iter().map(|&i| nets[i].clone()).collect();
    let case_id = spec.case.id();
    match spec.solver {
        SolverFamily::Admm if spec.screen => {
            // The funnel ignores the job's frozen snapshot: its full tier
            // is seeded from this chunk's own screening solutions (an
            // internal snapshot), so the chunk remains a pure function of
            // (spec, indices) and the resume rule is unaffected.
            let funnel = ContingencyFunnel::with_pool(
                FunnelConfig {
                    full: AdmmParams::test_profile(),
                    tier: FullTier::Admm,
                    benign_threshold: spec.benign_threshold,
                    violating_threshold: spec.violating_threshold,
                    ..Default::default()
                },
                DevicePool::single(Device::default()),
            );
            let report = funnel.run(case_id, &chunk_nets);
            let FullResults::Admm(full) = &report.full else {
                // Nothing graduated: every scenario keeps its screening
                // result and is durably done.
                let scenarios = indices
                    .iter()
                    .zip(&report.screening.results)
                    .map(|(&index, r)| ScenarioOutcome {
                        index,
                        converged: true,
                        result: r.to_value(),
                    })
                    .collect();
                return ChunkOutcome {
                    scenarios,
                    stats: report.screening.store,
                };
            };
            let scenarios = indices
                .iter()
                .enumerate()
                .map(|(chunk_i, &index)| match report.full_index_of(chunk_i) {
                    Some(g) => {
                        let r = &full.results[g];
                        ScenarioOutcome {
                            index,
                            converged: r.status == AdmmStatus::Converged,
                            result: r.to_value(),
                        }
                    }
                    None => {
                        // Benign: the screening result is the final word.
                        let r = &report.screening.results[chunk_i];
                        debug_assert_eq!(report.screened[chunk_i].band, Band::Benign);
                        ScenarioOutcome {
                            index,
                            converged: true,
                            result: r.to_value(),
                        }
                    }
                })
                .collect();
            ChunkOutcome {
                scenarios,
                stats: full.store,
            }
        }
        SolverFamily::Admm => {
            let scheduler = ScenarioScheduler::with_pool(
                AdmmParams::test_profile(),
                DevicePool::single(Device::default()),
            );
            let batch = scheduler.run(
                FleetRequest::over(&chunk_nets)
                    .case(case_id)
                    .snapshot(&stores.admm),
            );
            let scenarios = indices
                .iter()
                .zip(&batch.results)
                .map(|(&index, r)| ScenarioOutcome {
                    index,
                    converged: r.status == AdmmStatus::Converged,
                    result: r.to_value(),
                })
                .collect();
            ChunkOutcome {
                scenarios,
                stats: batch.store,
            }
        }
        SolverFamily::Ipm => {
            let solver = IpmFleetSolver::with_engine(
                IpmOptions::default(),
                Engine::with_pool(DevicePool::single(Device::default())),
            );
            let report = solver.run(
                FleetRequest::over(&chunk_nets)
                    .case(case_id)
                    .snapshot(&stores.ipm),
            );
            let scenarios = indices
                .iter()
                .zip(&report.results)
                .map(|(&index, r)| ScenarioOutcome {
                    index,
                    converged: r.report.is_optimal(),
                    result: r.to_value(),
                })
                .collect();
            ChunkOutcome {
                scenarios,
                stats: report.store,
            }
        }
    }
}

/// Replay a completed job's converged results into the live stores, in
/// scenario-index order. Payloads are rebuilt from the manifest's recorded
/// result values, so the commit is a pure function of the manifest —
/// running it after a restart inserts bitwise the same entries (inserting
/// an existing entry replaces it in place, keeping every tie-break).
/// Returns the number of entries committed.
///
/// # Errors
/// `InvalidData` when a done scenario has no recorded result or its result
/// does not decode as the job's solver family's.
pub(crate) fn commit_job(
    manifest: &JobManifest,
    nets: &[Network],
    admm_store: &mut SolutionStore<WarmState>,
    ipm_store: &mut SolutionStore<IpmWarmStart>,
) -> io::Result<usize> {
    let case_id = manifest.spec.case.id();
    let invalid = |i: usize, what: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("job {:?} scenario {i}: {what}", manifest.spec.name),
        )
    };
    let mut committed = 0;
    for (i, record) in manifest.records.iter().enumerate() {
        if record.state != ScenarioState::Done {
            continue;
        }
        let value = manifest.results[i]
            .as_ref()
            .ok_or_else(|| invalid(i, "done without a recorded result".into()))?;
        let fp = ScenarioFingerprint::of_network(&nets[i]);
        match manifest.spec.solver {
            SolverFamily::Admm => {
                let r = ScenarioResult::from_value(value).map_err(|e| invalid(i, e.to_string()))?;
                admm_store.insert(case_id, &fp, r.warm_state);
            }
            SolverFamily::Ipm => {
                let r = gridsim_ipm::FleetScenarioResult::from_value(value)
                    .map_err(|e| invalid(i, e.to_string()))?;
                ipm_store.insert(case_id, &fp, IpmWarmStart::from_report(&r.report));
            }
        }
        committed += 1;
    }
    Ok(committed)
}
