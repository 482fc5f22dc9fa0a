//! # gridsim-tron
//!
//! A re-implementation of **TRON** — the trust-region Newton method for
//! bound-constrained optimization of Lin & Moré (SIAM J. Optim. 1999) — plus
//! a batch driver, standing in for the paper's GPU batch solver **ExaTron**.
//!
//! In the paper's ADMM decomposition every component subproblem except the
//! branches has a closed-form solution; each branch subproblem is a 6-variable
//! bound-constrained nonconvex problem (formulation (4)) solved by one GPU
//! thread block running TRON. This crate provides:
//!
//! * [`problem::BoundProblem`] — the dense, small problem interface
//!   (objective, fused gradient + Hessian, bounds; at most
//!   [`problem::MAX_DIM`] variables),
//! * [`cauchy`] — projected-gradient Cauchy point computation,
//! * [`cg`] — Steihaug–Toint preconditioned conjugate gradients on the free
//!   subspace with negative-curvature handling,
//! * [`tron`] — the trust-region driver,
//! * [`batch`] — a batch front-end that solves one problem per simulated
//!   thread block on a [`gridsim_batch::Device`].
//!
//! Like the thread block it stands in for, one solve
//! ([`TronSolver::solve_in_place`]) is stack-resident: every iterate,
//! gradient, Hessian, Cauchy trial and CG vector is a fixed-size array, and
//! nothing between entry and return touches the heap.

pub mod batch;
pub mod cauchy;
pub mod cg;
pub mod problem;
pub mod tron;

pub use batch::{solve_batch, solve_batch_from_host, BatchOutcome, BlockState};
pub use problem::{BoundProblem, QuadraticBox, MAX_DIM};
pub use tron::{TronOptions, TronResult, TronSolver, TronStatus, TronSummary};
