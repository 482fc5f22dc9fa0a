//! # gridsim-ipm
//!
//! A primal–dual interior-point method for smooth nonlinear programs, serving
//! as the centralized baseline the paper compares against (Ipopt + MA57 via
//! PowerModels.jl).
//!
//! The method follows the standard barrier scheme: inequality constraints are
//! slacked into equalities, variable bounds are handled with logarithmic
//! barrier terms, and each barrier subproblem is solved with Newton steps on
//! the primal–dual KKT system in condensed space (Shin et al.,
//! arXiv:2307.16830): the slack and inequality-dual blocks are eliminated in
//! closed form, and the remaining quasi-definite system is factorized with
//! the sparse LDLᵀ of [`gridsim_sparse`] under an approximate-minimum-degree
//! ordering. Its sparsity pattern follows from the model's declared
//! derivative structure, is analyzed once per NLP and numerically
//! refactorized every iteration, so fill is what every step pays for; the
//! model's values reach it through slots recorded once per solve.
//! Inertia is corrected by primal/dual regularization, steps are safeguarded
//! by the fraction-to-boundary rule and a filter line search, and the
//! barrier parameter decreases monotonically (Fiacco–McCormick).
//!
//! The cost anatomy — one sparse symmetric indefinite factorization per
//! Newton iteration, growing super-linearly with network size — is the
//! baseline behaviour the paper's Table II and Figure 1 contrast against.
//!
//! Modules:
//!
//! * [`nlp`] — the problem interface ([`nlp::Nlp`]: derivative coordinates
//!   declared once per solve, values written in place every iteration),
//! * [`acopf_nlp`] — the full polar ACOPF formulation (1) as an NLP,
//! * [`kkt`] — the slacked problem's dimensions and the full augmented KKT
//!   system, the reference the condensed step is tested against,
//! * [`kkt_condensed`] — the condensed-space step with symbolic reuse,
//! * [`solver`] — the interior-point iteration,
//! * [`fleet`] — the scenario fleet driver on the execution engine (one
//!   warm-start chain and one [`KktCache`] per lane, one frozen condensed
//!   system per structure shared by all of them),
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
