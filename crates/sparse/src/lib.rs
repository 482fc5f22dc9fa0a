//! # gridsim-sparse
//!
//! Sparse linear-algebra substrate for the centralized interior-point
//! baseline of the GridADMM reproduction.
//!
//! The paper's core argument is that centralized nonlinear optimization of
//! ACOPF spends more than 80 % of its time factorizing large sparse symmetric
//! indefinite KKT systems — work that parallelizes poorly. To reproduce that
//! baseline faithfully we implement the same cost anatomy here:
//!
//! * triplet ([`Coo`]) and compressed-sparse-column ([`Csc`]) matrix
//!   formats, and bare patterns ([`CscPattern`]) compressed from
//!   coordinate lists by counting sort, with the slot of every coordinate,
//! * symmetric orderings ([`Ordering`]: approximate minimum degree with an
//!   elimination-tree postorder to reduce fill, reverse Cuthill–McKee to
//!   reduce bandwidth),
//! * a sparse LDLᵀ factor with dynamic regularization and inertia reporting
//!   for quasi-definite KKT systems ([`LdlFactor`]),
//! * a symbolic-reuse layer ([`LdlSymbolic`]): analyze a pattern once, then run
//!   numeric-only refactorizations on the host — up-looking over the sparse
//!   rows, right-looking over the dense trailing block — pinned bitwise to
//!   an up-looking replay of every row (the Świrydowicz-et-al. fixed-pattern
//!   speedup the interior-point baseline exploits). A fresh factorization is
//!   the same analysis followed by the same refactorization,
//! * and small dense kernels ([`SmallMatrix`], [`dot`], [`norm2`]) shared
//!   with the batch TRON solver, generic over [`Real`] so that the branch
//!   kernel runs them on one `f64` or on [`Lanes`] — [`LANES`] subproblems
//!   in lock-step, each lane bitwise its own scalar solve.
//!
//! The crate is a leaf: it depends on nothing, not even the batch device
//! the ADMM kernels launch on — the interior-point baseline is host code.

#![warn(unreachable_pub)]

mod coo;
mod csc;
mod dense;
mod lanes;
mod ldl;
mod ordering;
mod refactor;

pub use coo::Coo;
pub use csc::{Csc, CscPattern};
pub use dense::{dot, norm2, solve2, SmallMatrix, MAX_DIM};
pub use lanes::{LaneMask, Lanes, Mask, Real, LANES};
pub use ldl::{LdlFactor, LdlOptions};
pub use ordering::Ordering;
pub use refactor::LdlSymbolic;

/// Error type for sparse linear algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// A matrix dimension or index was inconsistent.
    Shape(String),
    /// The factorization broke down: a pivot that was not finite, or that
    /// regularization left zero. `pivot` is the raw value.
    Breakdown { column: usize, pivot: f64 },
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::Shape(msg) => write!(f, "shape error: {msg}"),
            SparseError::Breakdown { column, pivot } => {
                write!(f, "LDL^T breakdown at column {column}: pivot {pivot}")
            }
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod oracle;
