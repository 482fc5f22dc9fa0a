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
//! * [`BoundProblem`] — the dense, small problem interface
//!   (objective, fused gradient + Hessian, bounds; at most
//!   [`gridsim_sparse::MAX_DIM`] variables),
//! * [`cauchy_point`] — projected-gradient Cauchy point computation, for the
//!   iterations that refuse the direct step,
//! * [`TronSolver`] — the trust-region solver. Each iteration first tries the
//!   *direct step*: one dense LDLᵀ solve
//!   ([`gridsim_sparse::SmallMatrix::ldlt_solve_masked`]) of the
//!   block of variables strictly inside their bounds, factored in place
//!   with the others held as identity rows, from the iterate itself,
//!   taken when every variable on a bound has a zero projected-gradient
//!   component, the block is positive definite and the step stays strictly
//!   inside the box and the trust region. Otherwise the iteration runs the
//!   Cauchy point, the same LDLᵀ solve at the Cauchy point and a projected
//!   line search; when that solve is refused (an indefinite block, or a
//!   step that reaches the trust-region boundary), trust-region steps on
//!   the faces of the box ([`Face`], [`subspace_step`]:
//!   Moré–Sorensen's iteration on the shifted block `H_FF + λI`, factored
//!   the same way), each with its own projected search,
//! * [`TronSolver::solve_lanes`] — the same iteration on a lock-step group
//!   of problems, one per lane of [`gridsim_sparse::Lanes`] (two `f64`s, a
//!   128-bit vector register): [`BoundProblem`] is generic over its value
//!   type, so a problem written once evaluates one instance in `f64` or a
//!   group lane by lane, and the direct step, the acceptance test and the
//!   radius update are the same generic code as the scalar solve's. A lane
//!   whose direct step is refused takes that iteration's step from the
//!   scalar Cauchy and subspace path (on that lane's problem, built only
//!   then) and rejoins the group; each lane's result is bitwise
//!   [`TronSolver::solve_in_place`]'s on its problem. Every lane is live: a
//!   group too short to fill them solves with the scalar solve, which stays
//!   the general solver, the fallback and the oracle. Both solves end
//!   with their last derivative evaluation at the point they return, so a
//!   problem may keep what that evaluation computed,
//! * [`solve_batch_from_host`] — a batch front-end that solves one problem per simulated
//!   thread block on a [`gridsim_batch::Device`].
//!
//! Like the thread block it stands in for, one solve
//! ([`TronSolver::solve_in_place`]) is stack-resident: every iterate,
//! gradient, Hessian, Cauchy trial and free-block factor is a fixed-size
//! array, and nothing between entry and return touches the heap.

#![warn(unreachable_pub)]

mod batch;
mod cauchy;
mod problem;
mod tron;

pub use batch::{solve_batch_from_host, BatchOutcome, BlockState};
pub use cauchy::{cauchy_point, CauchyPoint};
pub use problem::{BoundProblem, QuadraticBox};
pub use tron::{subspace_step, Face, TronOptions, TronResult, TronSolver, TronStatus, TronSummary};
