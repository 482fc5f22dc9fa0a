//! # gridsim-acopf
//!
//! The ACOPF model layer shared by the ADMM solver (the paper's contribution)
//! and the centralized interior-point baseline:
//!
//! * [`BranchFlow`] — branch power-flow functions in polar voltage variables with
//!   analytic gradients and Hessians (the nonlinear heart of formulation (1)),
//! * [`OpfSolution`] — a full operating point (voltages + dispatch), flow
//!   recomputation from bus voltages, and objective evaluation,
//! * [`violations`] — the solution-quality metrics reported in Table II and
//!   Figures 2–3: maximum constraint violation `‖c(x)‖∞` and relative
//!   objective gap,
//! * [`start`] — the cold (flat) start used in Section IV-B and warm-start
//!   bookkeeping with generator ramp limits used in Section IV-C.

#![warn(unreachable_pub)]

mod flows;
mod solution;
// `perf/` names this module path (the ramp-limited bounds).
pub mod start;
// `perf/` names this module path (the relative gap, `SolutionQuality`).
pub mod violations;

pub use flows::{branch_flows, BranchFlow, FlowGrad, FlowHess, FlowKind, FlowPoint};
pub use solution::{BranchFlows, OpfSolution};
