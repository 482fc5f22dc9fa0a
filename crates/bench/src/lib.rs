//! # gridsim-bench
//!
//! The paper's artefacts, runnable: Table I, Table II, Figures 1–3, the
//! transfer claim and the penalty remark of §V. The library part holds the
//! shared machinery (case registry, the two experiment runners, table
//! formatting, JSON export); each artefact is a binary in `src/bin/` and
//! each micro-benchmark a Criterion bench in `benches/`.
//!
//! | Paper artifact | Binary | Notes |
//! |---|---|---|
//! | Table I   | `table1`   | case dimensions + penalty parameters |
//! | Table II  | `table2`   | cold-start ADMM vs interior-point baseline |
//! | Figure 1  | `warmstart`| cumulative time over 30 one-minute periods |
//! | Figure 2  | `warmstart`| max constraint violation per period |
//! | Figure 3  | `warmstart`| relative objective gap per period |
//! | Ablation A| `cargo bench --bench kernels` | per-kernel cost split |
//! | Ablation B| `penalty_sweep` | ρ sensitivity |
//! | Ablation C| `transfer_audit` | host↔device transfer counts |
//! | Screening | `contingency_sweep` | K = 1000 two-tier funnel vs flat sweep (beyond the paper; no `perf` workload runs this K) |
//!
//! Everything else the system measures is measured by the `perf/` harness
//! (`BENCHMARK.json`), not by a binary here:
//!
//! | measurement | `perf` workload → metrics | correctness side pinned by |
//! |---|---|---|
//! | fleet throughput | `ipm_fleet` → `ipm.symbolic_analyses`, `engine.lanes`, `ipm.iterations`, `ipm.ms_per_iteration`; `sweep` → `admm.fleet_ticks`, `engine.occupancy` | `tests/ipm_fleet.rs::symbolic_analyses_are_one_per_structure_across_configs`, `ipm::fleet::tests::fleet_solves_a_load_ramp_and_pays_one_analysis` |
//! | scenario throughput | `sweep` → `batch.launches`, `batch.blocks`, `admm.fleet_ticks`, `admm.mask_efficiency`, `engine.occupancy` | `tests/scenario_batch.rs` (bitwise + ≥4× launch amortisation guard), `tests/scenario_scheduler.rs::sharded_work_is_billed_per_device` |
//! | daemon throughput | `sweep` → `serve.submit_ms`, `serve.chunk_compute_ms`, `serve.overhead_s`, `serve.manifest_save_ms`/`load_ms`; second generation → `ipm_fleet`'s `store.hit_rate`, `ipm.warm_iteration_ratio` | `crates/serve/tests/{daemon,kill_resume}.rs` |
//! | warm solution store | `ipm_fleet` → `store.hits`, `store.hit_rate`, `store.nearest_us`, `ipm.warm_iteration_ratio` | `tests/solution_store.rs` (debug determinism + release 120-scenario guard) |
//! | condensed KKT | `ipm_fleet` probes → `sparse.refactor_ms`, `sparse.refactor_scalar_ms`, `sparse.supernodes`, `sparse.condensed_dim`, `ipm.factorizations`, `ipm.symbolic_analyses` | `tests/ipm_condensed.rs`, `tests/property_tests.rs` (fresh ≡ scalar ≡ dense tail) |
//! | launch backends | any traced run → `batch.vectorized_vs_sequential`, `batch.parallel_vs_sequential`, `batch.kernel.*_s` | `gridsim_batch::conformance`, `tests/backend_conformance.rs`, CI's launch-backend matrix |
//!
//! The paper's full case sizes (up to 70,000 buses) are expensive for the
//! *baseline* on a CPU-only substrate, so every binary accepts
//! `--scale small|medium|paper` (default `small`) selecting proportionally
//! scaled synthetic cases with the same structure.

pub mod experiments;
pub mod registry;
pub mod table;

pub use experiments::{run_cold_start, run_tracking_comparison, ColdStartRow, TrackingRow};
pub use registry::{arg_parsed, arg_parsed_from, arg_value, BenchCase, Scale};
pub use table::TextTable;
