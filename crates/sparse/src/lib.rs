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
//! * triplet ([`coo::Coo`]) and compressed-sparse-column ([`csc::Csc`])
//!   matrix formats,
//! * symmetric orderings ([`ordering`]: approximate minimum degree with an
//!   elimination-tree postorder to reduce fill, reverse Cuthill–McKee to
//!   reduce bandwidth),
//! * symbolic analysis (elimination tree and column counts, [`symbolic`]),
//! * an up-looking sparse LDLᵀ factorization with dynamic regularization and
//!   inertia reporting for quasi-definite KKT systems ([`ldl`]),
//! * a symbolic-reuse layer ([`refactor`]): analyze a pattern once, then run
//!   numeric-only refactorizations on the host — up-looking over the sparse
//!   rows, right-looking over the dense trailing block — that are bitwise
//!   identical to fresh factorizations (the Świrydowicz-et-al. fixed-pattern
//!   speedup the interior-point baseline exploits),
//! * and small dense kernels ([`dense`]) shared with the batch TRON solver.
//!
//! The crate is a leaf: it depends on nothing, not even the batch device
//! the ADMM kernels launch on — the interior-point baseline is host code.

pub mod coo;
pub mod csc;
pub mod dense;
pub mod ldl;
pub mod ordering;
pub mod refactor;
pub mod symbolic;

pub use coo::Coo;
pub use csc::Csc;
pub use ldl::{LdlFactor, LdlOptions};
pub use ordering::Ordering;
pub use refactor::LdlSymbolic;
pub use symbolic::Symbolic;

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
