//! Compressed sparse column matrices.

/// A compressed-sparse-column matrix. Row indices within a column are sorted
/// and unique.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Column pointers, length `ncols + 1`.
    pub colptr: Vec<usize>,
    /// Row indices, length `nnz`.
    pub rowind: Vec<usize>,
    /// Values, length `nnz`.
    pub values: Vec<f64>,
}

impl Csc {
    /// Build from triplets, summing duplicates and sorting rows per column.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: &[usize],
        cols: &[usize],
        vals: &[f64],
    ) -> Self {
        assert_eq!(rows.len(), cols.len());
        assert_eq!(rows.len(), vals.len());
        // Count entries per column.
        let mut count = vec![0usize; ncols + 1];
        for &c in cols {
            assert!(c < ncols, "column index {c} out of bounds {ncols}");
            count[c + 1] += 1;
        }
        for j in 0..ncols {
            count[j + 1] += count[j];
        }
        let colptr_raw = count.clone();
        let mut rowind = vec![0usize; rows.len()];
        let mut values = vec![0.0; rows.len()];
        let mut next = colptr_raw.clone();
        for k in 0..rows.len() {
            assert!(
                rows[k] < nrows,
                "row index {} out of bounds {nrows}",
                rows[k]
            );
            let c = cols[k];
            let slot = next[c];
            rowind[slot] = rows[k];
            values[slot] = vals[k];
            next[c] += 1;
        }
        // Sort each column by row and sum duplicates in place.
        let mut out_colptr = vec![0usize; ncols + 1];
        let mut out_rowind = Vec::with_capacity(rows.len());
        let mut out_values = Vec::with_capacity(rows.len());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..ncols {
            scratch.clear();
            for k in colptr_raw[j]..colptr_raw[j + 1] {
                scratch.push((rowind[k], values[k]));
            }
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                let mut v = scratch[i].1;
                let mut k = i + 1;
                while k < scratch.len() && scratch[k].0 == r {
                    v += scratch[k].1;
                    k += 1;
                }
                out_rowind.push(r);
                out_values.push(v);
                i = k;
            }
            out_colptr[j + 1] = out_rowind.len();
        }
        Csc {
            nrows,
            ncols,
            colptr: out_colptr,
            rowind: out_rowind,
            values: out_values,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The matrix's sparsity pattern (a copy of its structure, no values).
    pub(crate) fn pattern(&self) -> CscPattern {
        CscPattern {
            nrows: self.nrows,
            ncols: self.ncols,
            colptr: self.colptr.clone(),
            rowind: self.rowind.clone(),
        }
    }

    /// Get an entry (O(log nnz_col) binary search). Zero when not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let lo = self.colptr[col];
        let hi = self.colptr[col + 1];
        match self.rowind[lo..hi].binary_search(&row) {
            Ok(p) => self.values[lo + p],
            Err(_) => 0.0,
        }
    }

    /// `y = A x`.
    pub(crate) fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for p in self.colptr[j]..self.colptr[j + 1] {
                y[self.rowind[p]] += self.values[p] * xj;
            }
        }
        y
    }

    /// Extract the upper-triangular part (including the diagonal) of a square
    /// matrix.
    pub fn upper_triangle(&self) -> Csc {
        assert_eq!(self.nrows, self.ncols, "upper_triangle requires square");
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for j in 0..self.ncols {
            for p in self.colptr[j]..self.colptr[j + 1] {
                if self.rowind[p] <= j {
                    rows.push(self.rowind[p]);
                    cols.push(j);
                    vals.push(self.values[p]);
                }
            }
        }
        Csc::from_triplets(self.nrows, self.ncols, &rows, &cols, &vals)
    }

    /// Convert to a dense row-major matrix (testing helper; avoid on large
    /// systems).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for (j, col) in self.colptr.windows(2).enumerate() {
            for p in col[0]..col[1] {
                d[self.rowind[p]][j] = self.values[p];
            }
        }
        d
    }

    /// Infinity norm of `A x - b` (testing / residual helper).
    pub fn residual_inf_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        self.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }
}

/// A sparsity pattern in CSC layout, [`Csc`] without the values: row
/// indices ascending and unique within each column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscPattern {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Column pointers, length `ncols + 1`.
    pub colptr: Vec<usize>,
    /// Row indices, length `nnz`.
    pub rowind: Vec<usize>,
}

impl CscPattern {
    /// The pattern of a coordinate list, with the slot (position in
    /// `rowind`) every coordinate lands in; duplicates share one.
    /// `coordinates` hands each `(row, column)` of the list, in order, to
    /// the sink it is given, and is called twice; nothing is sorted by
    /// comparison or searched:
    ///
    /// 1. count the coordinates of every row;
    /// 2. deal each coordinate's column into its row's bucket, noting where
    ///    it went;
    /// 3. merge each row's duplicates with a per-column mark, numbering the
    ///    distinct entries in row order;
    /// 4. deal the entries out to their columns, rows visited in ascending
    ///    order — rows ascending within every column — and record each
    ///    entry's slot;
    /// 5. hand every coordinate the slot of the entry its bucket place
    ///    merged into.
    ///
    /// O(len + nrows + ncols). Panics on a coordinate outside
    /// `nrows × ncols`.
    pub fn from_coordinates(
        nrows: usize,
        ncols: usize,
        coordinates: impl Fn(&mut dyn FnMut(usize, usize)),
    ) -> (CscPattern, Vec<usize>) {
        let mut row_start = vec![0usize; nrows + 1];
        coordinates(&mut |r, _| row_start[r + 1] += 1);
        for r in 0..nrows {
            row_start[r + 1] += row_start[r];
        }
        let mut bucket = vec![0usize; row_start[nrows]];
        let mut next = row_start[..nrows].to_vec();
        // `slots[t]` is where coordinate t went, until step 5.
        let mut slots = Vec::with_capacity(bucket.len());
        coordinates(&mut |r, c| {
            bucket[next[r]] = c;
            slots.push(next[r]);
            next[r] += 1;
        });
        // `bucket[b]` becomes its coordinate's entry; `entries[e]` is entry
        // e's column, then its slot.
        let mut entries = Vec::with_capacity(bucket.len());
        let mut row_entries = vec![0usize; nrows + 1];
        let mut colptr = vec![0usize; ncols + 1];
        let mut marked = vec![usize::MAX; ncols];
        let mut entry_of = vec![0usize; ncols];
        for r in 0..nrows {
            for place in &mut bucket[row_start[r]..row_start[r + 1]] {
                let c = *place;
                if marked[c] != r {
                    marked[c] = r;
                    entry_of[c] = entries.len();
                    entries.push(c);
                    colptr[c + 1] += 1;
                }
                *place = entry_of[c];
            }
            row_entries[r + 1] = entries.len();
        }
        for c in 0..ncols {
            colptr[c + 1] += colptr[c];
        }
        let mut rowind = vec![0usize; entries.len()];
        let mut col_next = colptr[..ncols].to_vec();
        for r in 0..nrows {
            for entry in &mut entries[row_entries[r]..row_entries[r + 1]] {
                let c = *entry;
                rowind[col_next[c]] = r;
                *entry = col_next[c];
                col_next[c] += 1;
            }
        }
        for slot in &mut slots {
            *slot = entries[bucket[*slot]];
        }
        let pattern = CscPattern {
            nrows,
            ncols,
            colptr,
            rowind,
        };
        (pattern, slots)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }

    /// The row indices of column `j`, ascending.
    pub(crate) fn column(&self, j: usize) -> &[usize] {
        &self.rowind[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Whether the pattern is symmetric and `pair(k, t)` holds for every
    /// entry's slot `k` and the slot `t` of its transpose. One pass, stopping
    /// at the first failure: columns are visited in ascending order, so the
    /// transposes each column must hold are met in ascending row order and
    /// are matched against it front to back.
    pub fn is_symmetric_where(&self, mut pair: impl FnMut(usize, usize) -> bool) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let mut next = self.colptr[..self.ncols].to_vec();
        for j in 0..self.ncols {
            for (k, &i) in (self.colptr[j]..).zip(self.column(j)) {
                let t = next[i];
                if t == self.colptr[i + 1] || self.rowind[t] != j || !pair(k, t) {
                    return false;
                }
                next[i] += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixture constructors the sparse tests share.
    impl Csc {
        /// An empty (all-zero) matrix.
        pub(crate) fn zeros(nrows: usize, ncols: usize) -> Self {
            Csc {
                nrows,
                ncols,
                colptr: vec![0; ncols + 1],
                rowind: Vec::new(),
                values: Vec::new(),
            }
        }

        /// The identity matrix of size `n`.
        pub(crate) fn identity(n: usize) -> Self {
            Csc {
                nrows: n,
                ncols: n,
                colptr: (0..=n).collect(),
                rowind: (0..n).collect(),
                values: vec![1.0; n],
            }
        }
    }

    fn example() -> Csc {
        // [ 4 1 0 ]
        // [ 1 3 2 ]
        // [ 0 2 5 ]
        Csc::from_triplets(
            3,
            3,
            &[0, 1, 0, 1, 2, 1, 2],
            &[0, 0, 1, 1, 1, 2, 2],
            &[4.0, 1.0, 1.0, 3.0, 2.0, 2.0, 5.0],
        )
    }

    #[test]
    fn triplet_construction_sorted_and_summed() {
        let a = example();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(2, 1), 2.0);
        assert_eq!(a.get(2, 0), 0.0);
        // rows sorted within each column
        for j in 0..a.ncols {
            for p in a.colptr[j]..a.colptr[j + 1].saturating_sub(1) {
                assert!(a.rowind[p] < a.rowind[p + 1]);
            }
        }
    }

    #[test]
    fn matvec_matches_dense() {
        let a = example();
        let x = vec![1.0, -2.0, 0.5];
        let y = a.mul_vec(&x);
        let d = a.to_dense();
        for i in 0..3 {
            let expect: f64 = (0..3).map(|j| d[i][j] * x[j]).sum();
            assert!((y[i] - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn upper_triangle_drops_strict_lower() {
        let a = example();
        let u = a.upper_triangle();
        assert_eq!(u.get(1, 0), 0.0);
        assert_eq!(u.get(0, 1), 1.0);
        assert_eq!(u.get(2, 2), 5.0);
        assert_eq!(u.nnz(), 5);
    }

    #[test]
    fn coordinate_pattern_matches_the_triplet_matrix_and_records_slots() {
        let (rows, cols) = ([2, 0, 1, 2, 0, 3, 2], [1, 1, 0, 1, 1, 2, 0]);
        let (pattern, slots) = CscPattern::from_coordinates(4, 3, |f| {
            rows.into_iter().zip(cols).for_each(|(r, c)| f(r, c))
        });
        let matrix = Csc::from_triplets(4, 3, &rows, &cols, &[1.0; 7]);
        assert_eq!(pattern, matrix.pattern());
        assert_eq!(pattern.column(1), &[0, 2]);
        for t in 0..rows.len() {
            let k = slots[t];
            assert_eq!(pattern.rowind[k], rows[t]);
            assert!((pattern.colptr[cols[t]]..pattern.colptr[cols[t] + 1]).contains(&k));
        }
        assert!(!pattern.is_symmetric_where(|_, _| true));
        let square = CscPattern::from_coordinates(3, 3, |f| {
            [(0, 1), (1, 0), (2, 2), (2, 1), (1, 2)]
                .into_iter()
                .for_each(|(r, c)| f(r, c))
        });
        let square = square.0;
        let mut transposes = Vec::new();
        assert!(square.is_symmetric_where(|k, t| {
            transposes.push(t);
            k != 4 || t == 4
        }));
        assert_eq!(transposes, [1, 0, 3, 2, 4]);
        assert!(!square.is_symmetric_where(|k, _| k != 3));
        let one_sided = CscPattern::from_coordinates(3, 3, |f| {
            [(0, 1), (1, 0), (2, 1)]
                .into_iter()
                .for_each(|(r, c)| f(r, c))
        });
        let one_sided = one_sided.0;
        assert!(!one_sided.is_symmetric_where(|_, _| true));
        let (empty, none) = CscPattern::from_coordinates(0, 0, |_| {});
        assert!(empty.is_symmetric_where(|_, _| false));
        assert_eq!((empty.nnz(), none.len()), (0, 0));
        assert_eq!(empty.colptr, [0]);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = Csc::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.mul_vec(&x), x);
    }
}
