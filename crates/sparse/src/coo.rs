//! Triplet (coordinate) sparse matrix builder.

use crate::csc::Csc;

/// A coordinate-format sparse matrix builder. Duplicate entries are summed
/// when converting to CSC, which makes assembly of Jacobians and Hessians by
//  accumulation straightforward.
#[derive(Debug, Clone, Default)]
pub struct Coo {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row indices.
    pub rows: Vec<usize>,
    /// Column indices.
    pub cols: Vec<usize>,
    /// Values.
    pub vals: Vec<f64>,
}

impl Coo {
    /// Create an empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Create with reserved capacity for `nnz` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Add an entry. Duplicates are allowed and summed on conversion.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        debug_assert!(row < self.nrows, "row {row} out of bounds {}", self.nrows);
        debug_assert!(col < self.ncols, "col {col} out of bounds {}", self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Number of stored (possibly duplicate) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Convert to compressed sparse column format, summing duplicates and
    /// sorting row indices within each column.
    pub fn to_csc(&self) -> Csc {
        Csc::from_triplets(self.nrows, self.ncols, &self.rows, &self.cols, &self.vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut a = Coo::new(3, 3);
        a.push(0, 0, 1.0);
        a.push(0, 0, 2.5);
        a.push(2, 1, -1.0);
        let c = a.to_csc();
        assert_eq!(c.nnz(), 2);
        assert!((c.get(0, 0) - 3.5).abs() < 1e-15);
        assert!((c.get(2, 1) + 1.0).abs() < 1e-15);
        assert_eq!(c.get(1, 1), 0.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_bounds_panics_in_debug() {
        let mut a = Coo::new(2, 2);
        a.push(2, 0, 1.0);
    }
}
