//! # gridsim-acopf
//!
//! The ACOPF model layer shared by the ADMM solver (the paper's contribution)
//! and the centralized interior-point baseline:
//!
//! * [`flows`] — branch power-flow functions in polar voltage variables with
//!   analytic gradients and Hessians (the nonlinear heart of formulation (1)),
//! * [`solution`] — a full operating point (voltages + dispatch), flow
//!   recomputation from bus voltages, and objective evaluation,
//! * [`violations`] — the solution-quality metrics reported in Table II and
//!   Figures 2–3: maximum constraint violation `‖c(x)‖∞` and relative
//!   objective gap,
//! * [`start`] — the cold (flat) start used in Section IV-B and warm-start
//!   bookkeeping with generator ramp limits used in Section IV-C.

pub mod flows;
pub mod solution;
pub mod start;
pub mod violations;

pub use flows::{BranchFlow, FlowGrad, FlowHess, FlowKind};
pub use solution::OpfSolution;
pub use start::{cold_start, ramp_limited_bounds};
pub use violations::{relative_gap, SolutionQuality};
