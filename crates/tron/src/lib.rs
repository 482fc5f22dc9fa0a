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
//! * [`cauchy`] — projected-gradient Cauchy point computation, for the
//!   iterations that refuse the direct step,
//! * [`tron`] — the trust-region solver. Each iteration first tries the
//!   *direct step*: one dense LDLᵀ solve
//!   ([`gridsim_sparse::dense::SmallMatrix::ldlt_solve_masked`]) of the
//!   block of variables strictly inside their bounds, factored in place
//!   with the others held as identity rows, from the iterate itself,
//!   taken when every variable on a bound has a zero projected-gradient
//!   component, the block is positive definite and the step stays strictly
//!   inside the box and the trust region. Otherwise the iteration runs the
//!   Cauchy point, the same LDLᵀ solve at the Cauchy point and a projected
//!   line search; when that solve is refused (an indefinite block, or a
//!   step that reaches the trust-region boundary), trust-region steps on
//!   the faces of the box ([`tron::Face`], [`tron::subspace_step`]:
//!   Moré–Sorensen's iteration on the shifted block `H_FF + λI`, factored
//!   the same way), each with its own projected search,
//! * [`batch`] — a batch front-end that solves one problem per simulated
//!   thread block on a [`gridsim_batch::Device`].
//!
//! Like the thread block it stands in for, one solve
//! ([`TronSolver::solve_in_place`]) is stack-resident: every iterate,
//! gradient, Hessian, Cauchy trial and free-block factor is a fixed-size
//! array, and nothing between entry and return touches the heap.

pub mod batch;
pub mod cauchy;
pub mod problem;
pub mod tron;

pub use batch::{solve_batch, solve_batch_from_host, BatchOutcome, BlockState};
pub use problem::{BoundProblem, QuadraticBox, MAX_DIM};
pub use tron::{TronOptions, TronResult, TronSolver, TronStatus, TronSummary};
