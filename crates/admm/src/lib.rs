//! # gridsim-admm
//!
//! The paper's contribution: a component-based, two-level ADMM solver for
//! ACOPF that runs every algorithmic step as a batch kernel on a (simulated)
//! GPU device.
//!
//! The ACOPF problem is decomposed by grid component — generators, branches,
//! and buses — with consensus (coupling) constraints tying the duplicated
//! variables together (Section II-B of the paper). An artificial variable `z`
//! is added to every coupling constraint and driven to zero by an outer
//! augmented-Lagrangian loop (the two-level scheme of Sun & Sun), which gives
//! the inner ADMM convergence guarantees. Per inner iteration:
//!
//! * **generator subproblems** have the closed form (6) — one thread each,
//! * **bus subproblems** are equality-constrained diagonal QPs with the
//!   closed form (7) — one thread each,
//! * **branch subproblems** are 6-variable bound-constrained nonconvex
//!   problems (4), solved in batch by [`gridsim_tron`] (the ExaTron
//!   substitute) — one thread block each, with line limits handled by an
//!   inner augmented-Lagrangian loop,
//! * **z / multiplier updates** are elementwise closed forms (8).
//!
//! No host–device transfers occur during the solve; the transfer counters of
//! [`gridsim_batch`] verify this.
//!
//! The two-level loop is implemented once, in the [`scenario`] module, as a
//! multi-device fleet: [`scenario::ScenarioProblem`] holds the
//! `Arc`-deduplicated read-only problem data of a scenario set, and
//! [`scenario::ScenarioScheduler`] shards the scenarios across a
//! [`gridsim_batch::DevicePool`] with streaming admission (converged
//! scenarios hand their buffer slot to the next pending one). The other
//! entry points are thin front ends over it: [`AdmmSolver`] is one network
//! on one device (the paper's per-case solver), and [`track_horizon`]
//! chains [`AdmmSolver`] warm starts across periods.

pub mod branch_problem;
pub(crate) mod kernels;
pub mod layout;
pub mod params;
pub mod scenario;
pub mod solver;
pub mod tracking;

pub use branch_problem::BranchProblem;
pub use layout::{ConstraintKind, Layout};
pub use params::AdmmParams;
pub use scenario::{ScenarioBatchResult, ScenarioProblem, ScenarioResult, ScenarioScheduler};
pub use solver::{AdmmResult, AdmmSolver, AdmmStatus, WarmState};
pub use tracking::{track_horizon, PeriodResult, TrackingConfig};

#[cfg(test)]
mod oracle;
