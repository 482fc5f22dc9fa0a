//! The test oracle for the LDLᵀ of [`crate::refactor`]: an independent
//! fresh factorization, sharing no structure code with
//! [`LdlSymbolic`](crate::LdlSymbolic).
//!
//! It permutes the matrix with [`symmetric_permute`], keeps the upper
//! triangle, runs its own symbolic analysis ([`Symbolic`]: Davis's
//! elimination tree and column counts) and factors up-looking, one sparse
//! triangular solve per row, each row's reach visited in ascending column
//! order. The production refactorization is pinned to it bit for bit, so a
//! slip in the frozen analysis, the replay or the dense-tail kernel shows up
//! as a mismatch against code that does none of those things.

use crate::csc::Csc;
use crate::ldl::{settle_pivot, LdlFactor, LdlOptions};
use crate::ordering::Ordering;
use crate::SparseError;
use std::sync::Arc;

/// Symmetric permutation `B = P A Pᵀ` of a square matrix, where `perm[k]`
/// gives the original index placed at position `k`.
pub(crate) fn symmetric_permute(a: &Csc, perm: &[usize]) -> Csc {
    assert_eq!(a.nrows, a.ncols);
    assert_eq!(perm.len(), a.ncols);
    let mut inv = vec![0usize; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let mut rows = Vec::with_capacity(a.nnz());
    let mut cols = Vec::with_capacity(a.nnz());
    let mut vals = Vec::with_capacity(a.nnz());
    for j in 0..a.ncols {
        for p in a.colptr[j]..a.colptr[j + 1] {
            rows.push(inv[a.rowind[p]]);
            cols.push(inv[j]);
            vals.push(a.values[p]);
        }
    }
    Csc::from_triplets(a.nrows, a.ncols, &rows, &cols, &vals)
}

/// Symbolic analysis of a symmetric matrix by its upper triangle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Symbolic {
    /// Elimination-tree parent of each column (`usize::MAX` for roots).
    pub parent: Vec<usize>,
    /// Number of strictly-below-diagonal nonzeros in each column of `L`.
    pub lnz: Vec<usize>,
    /// Column pointers of `L` (exclusive prefix sum of `lnz`).
    pub lcolptr: Vec<usize>,
}

impl Symbolic {
    /// Analyze the upper-triangular pattern of `a` (entries with row > col
    /// are ignored, so a full symmetric matrix may also be passed).
    pub(crate) fn analyze(a: &Csc) -> Symbolic {
        assert_eq!(a.nrows, a.ncols, "symbolic analysis requires square input");
        let n = a.ncols;
        let none = usize::MAX;
        let mut parent = vec![none; n];
        let mut flag = vec![none; n];
        let mut lnz = vec![0usize; n];
        for j in 0..n {
            flag[j] = j;
            for p in a.colptr[j]..a.colptr[j + 1] {
                let mut i = a.rowind[p];
                if i >= j {
                    continue;
                }
                // Walk from i up the elimination tree until reaching a node
                // already flagged for column j.
                while flag[i] != j {
                    if parent[i] == none {
                        parent[i] = j;
                    }
                    lnz[i] += 1;
                    flag[i] = j;
                    i = parent[i];
                }
            }
        }
        let mut lcolptr = vec![0usize; n + 1];
        for j in 0..n {
            lcolptr[j + 1] = lcolptr[j] + lnz[j];
        }
        Symbolic {
            parent,
            lnz,
            lcolptr,
        }
    }

    /// Total number of strictly-lower-triangular nonzeros of `L`.
    pub(crate) fn total_lnz(&self) -> usize {
        *self.lcolptr.last().unwrap_or(&0)
    }
}

/// Fresh up-looking LDLᵀ of a square matrix given by (at least) its upper
/// triangle under `ordering`: what
/// [`LdlFactor::factorize_with`] returns, computed without the frozen
/// analysis. Panics on inconsistent shapes.
pub(crate) fn factorize(
    a: &Csc,
    ordering: Ordering,
    opts: &LdlOptions,
) -> Result<LdlFactor, SparseError> {
    let n = a.ncols;
    assert_eq!((a.nrows, ordering.len()), (n, n));
    let permuted = symmetric_permute(a, &ordering.perm).upper_triangle();
    // Pivot signs in permuted order.
    let signs: Vec<i8> = match opts.expected_signs.is_empty() {
        true => Vec::new(),
        false => ordering
            .perm
            .iter()
            .map(|&old| opts.expected_signs[old])
            .collect(),
    };

    let sym = Symbolic::analyze(&permuted);
    let lcolptr = sym.lcolptr.clone();
    let total = sym.total_lnz();
    let mut lrowind = vec![0usize; total];
    let mut lvalues = vec![0.0f64; total];
    let mut d = vec![0.0f64; n];
    let mut num_regularized = 0usize;

    let none = usize::MAX;
    let mut y = vec![0.0f64; n];
    let mut pattern = vec![0usize; n];
    let mut flag = vec![none; n];
    let mut lnz_used = vec![0usize; n];
    for j in 0..n {
        // Scatter column j of the permuted upper triangle into y and find
        // the pattern of row j of L by walking the elimination tree.
        let mut top = n;
        flag[j] = j;
        y[j] = 0.0;
        for p in permuted.colptr[j]..permuted.colptr[j + 1] {
            let mut i = permuted.rowind[p];
            if i > j {
                continue;
            }
            y[i] += permuted.values[p];
            let mut len = 0usize;
            while flag[i] != j {
                pattern[len] = i;
                len += 1;
                flag[i] = j;
                i = sym.parent[i];
            }
            while len > 0 {
                top -= 1;
                len -= 1;
                pattern[top] = pattern[len];
            }
        }
        // Row j of L and the pivot, the reach in ascending column order
        // (elimination-tree parents carry larger indices, so it is a
        // topological order).
        pattern[top..n].sort_unstable();
        let mut dj = y[j];
        y[j] = 0.0;
        for &i in &pattern[top..n] {
            let yi = y[i];
            y[i] = 0.0;
            let p_start = lcolptr[i];
            let p_end = p_start + lnz_used[i];
            for p in p_start..p_end {
                y[lrowind[p]] -= lvalues[p] * yi;
            }
            let lji = yi / d[i];
            dj -= lji * yi;
            lrowind[p_end] = j;
            lvalues[p_end] = lji;
            lnz_used[i] += 1;
        }
        let expected = signs.get(j).copied().unwrap_or(0);
        let dj_reg = settle_pivot(j, dj, expected, opts)?;
        num_regularized += usize::from(dj_reg != dj);
        d[j] = dj_reg;
    }

    Ok(LdlFactor::from_parts(
        n,
        Arc::new(lcolptr),
        Arc::new(lrowind),
        lvalues,
        d,
        Arc::new(ordering),
        num_regularized,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    /// Tridiagonal SPD matrix.
    fn tridiag(n: usize) -> Csc {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csc()
    }

    #[test]
    fn symmetric_permutation_preserves_values() {
        let a = Csc::from_triplets(
            3,
            3,
            &[0, 1, 0, 1, 2, 1, 2],
            &[0, 0, 1, 1, 1, 2, 2],
            &[4.0, 1.0, 1.0, 3.0, 2.0, 2.0, 5.0],
        );
        let perm = vec![2, 0, 1];
        let b = symmetric_permute(&a, &perm);
        // b[i][j] == a[perm[i]][perm[j]]
        let da = a.to_dense();
        let db = b.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert!((db[i][j] - da[perm[i]][perm[j]]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn tridiagonal_has_chain_etree_and_no_fill() {
        let a = tridiag(6);
        let s = Symbolic::analyze(&a.upper_triangle());
        // Parent of column j is j+1, roots at the end.
        for j in 0..5 {
            assert_eq!(s.parent[j], j + 1);
        }
        assert_eq!(s.parent[5], usize::MAX);
        // Exactly one below-diagonal nonzero per column except the last.
        assert_eq!(s.lnz, vec![1, 1, 1, 1, 1, 0]);
        assert_eq!(s.total_lnz(), 5);
    }

    #[test]
    fn arrow_matrix_fill_pattern() {
        // Arrow pointing down-right: dense last row/column; no fill when the
        // dense row is ordered last.
        let n = 5;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 10.0);
            if i + 1 < n {
                coo.push(i, n - 1, 1.0);
                coo.push(n - 1, i, 1.0);
            }
        }
        let s = Symbolic::analyze(&coo.to_csc().upper_triangle());
        assert_eq!(s.total_lnz(), n - 1);
        for j in 0..n - 1 {
            assert_eq!(s.parent[j], n - 1);
        }
    }

    #[test]
    fn diagonal_matrix_has_empty_tree() {
        let mut coo = Coo::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0);
        }
        let s = Symbolic::analyze(&coo.to_csc());
        assert!(s.parent.iter().all(|&p| p == usize::MAX));
        assert_eq!(s.total_lnz(), 0);
    }

    #[test]
    fn full_matrix_input_equivalent_to_upper() {
        let a = tridiag(8);
        let s_full = Symbolic::analyze(&a);
        let s_upper = Symbolic::analyze(&a.upper_triangle());
        assert_eq!(s_full, s_upper);
    }
}
