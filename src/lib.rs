//! # gridadmm
//!
//! Umbrella crate of the GridADMM workspace — a Rust reproduction of
//! *"Accelerated Computation and Tracking of AC Optimal Power Flow Solutions
//! Using GPUs"* (Kim & Kim, ICPP 2022).
//!
//! The individual subsystems are re-exported here so applications can depend
//! on a single crate:
//!
//! * [`grid`] — power-grid data model, MATPOWER parsing, synthetic cases,
//!   load profiles,
//! * [`sparse`] — sparse LDLᵀ linear algebra used by the baseline,
//! * [`batch`] — the simulated GPU batch-execution device,
//! * [`engine`] — the solver-agnostic scenario execution engine (device
//!   sharding, lane caps, streaming admission),
//! * [`store`] — the warm-start solution store (similarity-keyed
//!   nearest-neighbor solve reuse across fleets),
//! * [`tron`] — the batch bound-constrained trust-region solver (ExaTron
//!   substitute),
//! * [`acopf`] — the shared ACOPF model (flows, violations, starts),
//! * [`ipm`] — the centralized interior-point baseline (Ipopt substitute),
//!   plus its scenario fleet driver on the engine,
//! * [`admm`] — the paper's component-based two-level ADMM solver,
//! * [`screen`] — the hierarchical N−k contingency-screening funnel
//!   (cheap-pass ADMM ranking, warm-seeded full-tier graduation).
//!
//! See `examples/quickstart.rs` for a complete end-to-end walkthrough.

pub use gridsim_acopf as acopf;
pub use gridsim_admm as admm;
pub use gridsim_batch as batch;
pub use gridsim_engine as engine;
pub use gridsim_grid as grid;
pub use gridsim_ipm as ipm;
pub use gridsim_screen as screen;
pub use gridsim_sparse as sparse;
pub use gridsim_store as store;
pub use gridsim_tron as tron;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use gridsim_acopf::violations::SolutionQuality;
    pub use gridsim_acopf::OpfSolution;
    pub use gridsim_admm::{
        AdmmParams, AdmmResult, AdmmSolver, ScenarioBatchResult, ScenarioProblem, ScenarioResult,
        ScenarioScheduler, TrackingConfig, WarmState,
    };
    pub use gridsim_batch::{Device, DevicePool, ExecutionMode};
    pub use gridsim_engine::{Engine, LaneSolver};
    pub use gridsim_grid::{
        Case, ContingencySpec, LoadProfile, Network, Scenario, ScenarioFingerprint, ScenarioSet,
        SyntheticSpec, TableICase,
    };
    pub use gridsim_ipm::{
        AcopfNlp, FleetReport, IpmFleetSolver, IpmOptions, IpmSolver, IpmWarmStart, KktCache,
        SymbolicStats,
    };
    pub use gridsim_screen::{
        Band, ContingencyFunnel, FullResults, FullTier, FunnelConfig, FunnelReport,
    };
    pub use gridsim_store::{SolutionStore, StoreRunStats, StoreView};
}
