//! # gridsim-ipm
//!
//! A primal–dual interior-point method for smooth nonlinear programs, serving
//! as the centralized baseline the paper compares against (Ipopt + MA57 via
//! PowerModels.jl).
//!
//! The method follows the standard barrier scheme: inequality constraints are
//! slacked into equalities, variable bounds are handled with logarithmic
//! barrier terms, and each barrier subproblem is solved with Newton steps on
//! the primal–dual KKT system. The augmented (quasi-definite) KKT matrix is
//! factorized with the sparse LDLᵀ of [`gridsim_sparse`] using a
//! reverse Cuthill–McKee ordering (the condensed system of
//! [`kkt_condensed`] uses approximate minimum degree instead: its analysis
//! is frozen and replayed, so fill is what it pays for every step),
//! inertia is corrected by primal/dual
//! regularization, steps are safeguarded by the fraction-to-boundary rule and
//! an ℓ1-merit backtracking line search, and the barrier parameter decreases
//! monotonically (Fiacco–McCormick).
//!
//! The cost anatomy — one sparse symmetric indefinite factorization per
//! Newton iteration, growing super-linearly with network size — is exactly
//! the baseline behaviour the paper's Table II and Figure 1 contrast against.
//! The [`kkt_condensed`] module is the counterpoint: a condensed-space step
//! (slack and inequality-dual blocks eliminated in closed form) whose frozen
//! sparsity pattern is analyzed once per NLP and numerically refactorized
//! every iteration, selected through [`kkt_condensed::KktStrategy`].
//!
//! Modules:
//!
//! * [`nlp`] — the problem interface ([`nlp::Nlp`]),
//! * [`acopf_nlp`] — the full polar ACOPF formulation (1) as an NLP,
//! * [`kkt`] — assembly of the augmented KKT system,
//! * [`kkt_condensed`] — the condensed-space step with symbolic reuse,
//! * [`solver`] — the interior-point iteration,
//! * [`fleet`] — the scenario fleet driver on the execution engine (one
//!   warm-start chain and one [`KktCache`] per lane),
//! * [`report`] — iteration log and result types.

pub mod acopf_nlp;
pub mod fleet;
pub mod kkt;
pub mod kkt_condensed;
pub mod nlp;
pub mod report;
pub mod solver;

pub use acopf_nlp::AcopfNlp;
pub use fleet::{FleetReport, FleetScenarioResult, IpmFleetSolver, IpmWarmStart};
pub use kkt_condensed::{KktCache, KktStrategy, RefactorMicrobench, SymbolicStats};
pub use nlp::Nlp;
pub use report::{IpmStatus, IterationRecord, SolveReport};
pub use solver::{IpmOptions, IpmSolver};
