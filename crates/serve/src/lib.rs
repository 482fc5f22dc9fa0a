//! # gridsim-serve
//!
//! Multi-tenant, durable, resumable scenario-job service over the fleet
//! solvers — the daemon rung of the reuse ladder this workspace builds
//! from the paper's tracking result: `KktCache` reuses factorizations
//! within a lane, [`gridsim_store::SolutionStore`] reuses solutions across
//! fleets, and this crate keeps both (plus the job queue itself) alive
//! across *process lifetimes*.
//!
//! ## Shape
//!
//! * [`JobSpec`]: a named scenario set (registry case + recipe)
//!   plus solver family, priority, chunk size, lane cap, and retry policy.
//! * [`JobManifest`]: the crash-consistent per-job ledger,
//!   atomically rewritten after every chunk.
//! * [`run_chunk`] — one chunk = one deterministic fleet run through the
//!   engine's unified [`FleetRequest`](gridsim_engine::FleetRequest) API,
//!   store lookups frozen at job entry, commits deferred to completion.
//! * [`ServeDaemon`]: worker slots, cross-job lane
//!   allocation (priority, FIFO ties, per-job caps), retry backoff, and
//!   [`JobHandle::status`] progress reporting.
//!
//! The `gridsim-served` binary wraps the daemon for the command line; see
//! the README's "running the daemon" section.
//!
//! ## The durability contract
//!
//! `kill -9` the daemon at any instant, reopen the directory, and the
//! drained results are bitwise identical to an uninterrupted run: finished
//! chunks are trusted from the manifest (never re-solved), in-flight
//! chunks re-run whole, and the fixed chunk partition plus frozen store
//! snapshot make each chunk a pure function of durable state.

#![warn(unreachable_pub)]

mod daemon;
mod manifest;
mod runner;
mod spec;

pub use daemon::{JobHandle, JobStatus, ServeDaemon};
pub use manifest::{JobCounts, JobManifest, ScenarioRecord, ScenarioState};
pub use runner::{run_chunk, ChunkOutcome, FrozenStores, ScenarioOutcome, THROTTLE_ENV};
pub use spec::{CaseName, JobSpec, ScenarioKind, ScenarioSpec, SolverFamily};
