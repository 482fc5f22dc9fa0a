//! Symbolic-reuse LDLᵀ: analyze once, numerically refactorize many times.
//!
//! Interior-point methods factorize a KKT matrix whose *pattern* never
//! changes — only the values do (barrier terms, Hessian entries,
//! regularization). Świrydowicz et al. (arXiv:2306.14337) show that the
//! speedup of linear solvers in this setting comes from freezing the
//! symbolic analysis (elimination tree, fill pattern, pivot order) and
//! running *numeric-only refactorizations* against it, with dense kernels
//! wherever the fixed pattern is dense. This module implements that split
//! for the LDLᵀ of [`crate::ldl`], on the host — where the paper keeps its
//! interior-point baseline:
//!
//! * [`LdlSymbolic::analyze`] runs once per problem: it fixes the ordering
//!   ([`LdlSymbolic::analyze_amd`] for the fill-reducing one, the analysis
//!   to freeze when it is replayed many times; [`LdlSymbolic::analyze_rcm`]
//!   for the bandwidth one), the permuted upper-triangular pattern, the
//!   elimination tree and its height, the full row pattern of `L`, every
//!   row's reach in ascending column order with the slot of `L` each step
//!   writes (`rp_slot` — a constant of the pattern, so no replay searches a
//!   column for it), and the **dense tail**: the first column `tail` of the
//!   maximal trailing run of columns whose `L` column holds every row below
//!   it, and for each column before it the slot where its tail rows start.
//!   Each is built once, by counting sorts and elimination-tree walks, in
//!   the order the refactorizations read it: nothing is sorted by
//!   comparison or searched ([`LdlSymbolic::analyze_pattern`] takes a bare
//!   pattern, as the condensed-KKT cache builds it);
//! * [`LdlSymbolic::refactor_dense_tail`] — the production refactorization,
//!   the one the IPM's condensed-KKT cache runs every Newton step and
//!   [`LdlSymbolic::refactor_matrix`] goes through — makes three passes:
//!   1. rows `< tail`: the up-looking row replay, one sparse triangular
//!      solve against the rows before it per row;
//!   2. rows `≥ tail`, columns `< tail`: the same arithmetic restricted to
//!      the sparse columns. Each tail row's solve over the rows `< tail`
//!      still runs row by row; the sparse columns' updates to the tail
//!      columns then land, one column at a time, in a dense row-major
//!      `nt × nt` block (`nt = n − tail`);
//!   3. the block, factored right-looking in panels of four columns;
//!      the trailing update keeps each entry in a register across a panel.
//!
//!   It makes four allocations per call whatever the dimension (the
//!   factor's two value vectors, the `y` accumulator and the block), none
//!   per row. A fresh [`LdlFactor::factorize_with`] is
//!   [`LdlSymbolic::analyze`] followed by this refactorization: the crate
//!   has one numeric factorization;
//! * [`LdlSymbolic::refactor`] is the up-looking replay over every row: the
//!   reference the production path is pinned to bit for bit, and the second
//!   subject of `perf`'s `sparse.refactor_scalar_ms` probe (through
//!   `KktCache::refactor_microbench` in `gridsim-ipm`). The unit tests also
//!   pin both to a fresh up-looking factorization with its own symbolic
//!   analysis, kept as a test-only oracle.
//!
//! **Why the order is canonical.** Every entry of `L` and `D` is a running
//! difference: its matrix value minus one product per earlier column of its
//! row's reach, and floating-point subtraction is not associative, so the
//! bits depend on the order of those products. The analysis visits each
//! reach in ascending column order — a valid topological order, since
//! elimination-tree parents carry larger indices — so every entry receives
//! its products in ascending column order. That is exactly the order a
//! right-looking update applies them in (column `k`'s update reaches the
//! whole trailing block before column `k + 1`'s), as pass 2 does for the
//! sparse columns and pass 3 for the tail columns, one after the other. The
//! operands agree too — each product is `L[r,k] · w[j,k]` with `w` the
//! unscaled entry, each pivot is settled at its own column — so the replay
//! and the production path are **bitwise identical** (a tested invariant),
//! and a non-finite or unregularizable pivot is the same
//! [`SparseError::Breakdown`] on each.
//!
//! **Why the tail pays.** A fill-reducing ordering pushes the dense part of
//! the factor to the end: on the 877-dim condensed KKT system of the
//! `ipm_fleet` benchmark the last 90 columns of `L` are full and the last
//! 110 rows carry 91 % of the multiply–subtracts. The up-looking replay
//! walks that block as a chain of dependent sparse triangular solves, each
//! step waiting on a store the previous one made to `y`. Passes 2 and 3
//! apply a column's updates to many independent block entries instead, and
//! the right-looking kernel streams contiguous columns.
//!
//! Rows on one elimination-tree level own disjoint subtrees, so a level
//! could be fanned out over workers. The replay stays one host loop because
//! that fan-out measured slower on every launch backend at both sizes on
//! record (877- and 5 937-dim condensed systems: a level holds 4–60 rows of
//! ~14 entries, less work than a worker-pool wake-up); the analysis keeps
//! the schedule's length, [`LdlSymbolic::num_levels`], as a figure only.

use crate::csc::{Csc, CscPattern};
use crate::ldl::{settle_pivot, LdlFactor, LdlOptions};
use crate::ordering::Ordering;
use crate::SparseError;
use std::ops::Range;
use std::sync::Arc;

/// Columns per panel of the dense tail's right-looking factorization: the
/// trailing update streams this many `L` columns at once and keeps each
/// block entry in a register across them.
const PANEL: usize = 4;

/// Width cap of the supernodes [`LdlSymbolic::num_supernodes`] counts: part
/// of that figure's definition, kept so it stays comparable across runs.
const SUPERNODE_MAX_WIDTH: usize = 32;

/// Frozen symbolic analysis of a symmetric matrix, reusable across any
/// number of numeric refactorizations with the same sparsity pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct LdlSymbolic {
    n: usize,
    /// Pattern of the analyzed matrix (CSC, both triangles as supplied).
    a_colptr: Vec<usize>,
    a_rowind: Vec<usize>,
    /// Ordering fixed at analysis time.
    ordering: Arc<Ordering>,
    /// Permuted upper-triangular pattern (row ≤ col), CSC layout.
    au_colptr: Vec<usize>,
    au_rowind: Vec<usize>,
    /// For each permuted-upper entry, the index of the corresponding value in
    /// the *original* matrix's value array.
    aval_map: Vec<usize>,
    /// Column pointers of `L` (length `n + 1`).
    lcolptr: Arc<Vec<usize>>,
    /// Frozen row indices of `L`, ascending within each column.
    lrowind: Arc<Vec<usize>>,
    /// Reach of each row in ascending column order
    /// (`rp_idx[rp_ptr[j]..rp_ptr[j+1]]`): the columns whose `L` entries row
    /// `j` holds, in the order every factorization path visits them.
    rp_ptr: Vec<usize>,
    rp_idx: Vec<usize>,
    /// `rp_slot[k]` is the slot of `L` replay step `k` writes: the entry of
    /// row `j` in column `rp_idx[k]`, which sits right after that column's
    /// rows `< j`. A constant of the pattern, so no replay searches for it.
    rp_slot: Vec<usize>,
    /// Height of the elimination tree: the longest chain of rows that must
    /// be replayed one after another.
    num_levels: usize,
    /// First column of the dense tail: every column `c ≥ tail` of `L` holds
    /// all rows `c + 1..n`, and column `tail − 1` (if any) does not.
    tail: usize,
    /// For each column `i < tail`, the first slot of its `L` column holding a
    /// row `≥ tail`.
    tail_slot: Vec<usize>,
    num_supernodes: usize,
}

/// The numeric half of a factor while a refactorization fills it.
struct Numeric {
    lvalues: Vec<f64>,
    d: Vec<f64>,
    num_regularized: usize,
}

impl LdlSymbolic {
    /// Analyze the pattern of `a` under the supplied fill-reducing ordering.
    /// Values of `a` are ignored; only the structure is frozen.
    pub fn analyze(a: &Csc, ordering: Ordering) -> Result<LdlSymbolic, SparseError> {
        Self::analyze_pattern(a.pattern(), ordering)
    }

    /// [`Self::analyze`] of a bare pattern, which the analysis keeps (it is
    /// [`Self::pattern`]). Every piece of structure is built once, in the
    /// order the refactorizations read it, by counting sorts and
    /// elimination-tree walks — nothing is sorted by comparison or searched:
    ///
    /// * the permuted upper triangle `(inv[r], inv[c])` of every stored
    ///   `(r, c)` with `inv[r] ≤ inv[c]`, by a counting sort on the row and
    ///   then on the column, each entry's source slot recorded as it is
    ///   placed (`aval_map`) — the same entries, in the same order, as a
    ///   value-carrying permute-then-triangle;
    /// * one up-looking walk per row that yields the elimination tree, the
    ///   column counts of `L` and every row's reach (in walk order);
    /// * `L`'s row indices, by appending each row to the columns it reaches,
    ///   rows ascending; and the reaches in ascending column order with the
    ///   slot of `L` each step writes, by reading `L` back column by column.
    pub fn analyze_pattern(a: CscPattern, ordering: Ordering) -> Result<LdlSymbolic, SparseError> {
        if a.nrows != a.ncols {
            return Err(SparseError::Shape(format!(
                "matrix is {}x{}, expected square",
                a.nrows, a.ncols
            )));
        }
        let n = a.ncols;
        if ordering.len() != n {
            return Err(SparseError::Shape(format!(
                "ordering has length {}, expected {n}",
                ordering.len()
            )));
        }
        // The permuted upper triangle by two counting passes over the stored
        // entries: each (inv[r], inv[c]) on or above the diagonal goes to
        // its row's bucket with its source slot, then the rows, visited in
        // ascending order, deal their entries out to their columns. Whether
        // an entry is kept is as good as random, so neither pass branches
        // on it: a dropped entry is written to a spare slot past the end.
        let inv = &ordering.inv;
        let mut row_next = vec![0usize; n + 1];
        let mut au_colptr = vec![0usize; n + 1];
        for c in 0..n {
            let j = inv[c];
            for &r in a.column(c) {
                let i = inv[r];
                row_next[i + 1] += usize::from(i <= j);
                au_colptr[j + 1] += usize::from(i <= j);
            }
        }
        for k in 0..n {
            row_next[k + 1] += row_next[k];
            au_colptr[k + 1] += au_colptr[k];
        }
        let upper_nnz = au_colptr[n];
        let mut by_row = vec![(0usize, 0usize); upper_nnz + 1];
        for c in 0..n {
            let j = inv[c];
            for s in a.colptr[c]..a.colptr[c + 1] {
                let i = inv[a.rowind[s]];
                let kept = i <= j;
                by_row[if kept { row_next[i] } else { upper_nnz }] = (j, s);
                row_next[i] += usize::from(kept);
            }
        }
        // `row_next[i]` now ends row i, and row i − 1 ends where it starts.
        let mut au_rowind = vec![0usize; upper_nnz];
        let mut aval_map = vec![0usize; upper_nnz];
        let mut next = au_colptr[..n].to_vec();
        let mut start = 0;
        for i in 0..n {
            for &(j, s) in &by_row[start..row_next[i]] {
                au_rowind[next[j]] = i;
                aval_map[next[j]] = s;
                next[j] += 1;
            }
            start = row_next[i];
        }

        // The elimination tree and every row's reach: from each entry above
        // the diagonal of row j, climb the tree until a node already reached
        // for j; each node climbed is an entry of row j of L.
        let none = usize::MAX;
        let mut parent = vec![none; n];
        let mut flag = vec![none; n];
        let mut counts = vec![0usize; n];
        let mut rp_ptr = vec![0usize; n + 1];
        let mut reach = Vec::with_capacity(2 * a.nnz());
        for j in 0..n {
            flag[j] = j;
            for &row in &au_rowind[au_colptr[j]..au_colptr[j + 1]] {
                let mut i = row;
                if i >= j {
                    continue;
                }
                while flag[i] != j {
                    if parent[i] == none {
                        parent[i] = j;
                    }
                    counts[i] += 1;
                    flag[i] = j;
                    reach.push(i);
                    i = parent[i];
                }
            }
            rp_ptr[j + 1] = reach.len();
        }
        let mut lcolptr = vec![0usize; n + 1];
        for i in 0..n {
            lcolptr[i + 1] = lcolptr[i] + counts[i];
        }

        // The dense tail, from the column counts alone.
        let mut tail = n;
        while tail > 0 && lcolptr[tail] - lcolptr[tail - 1] == n - tail {
            tail -= 1;
        }

        // Frozen row indices of L: appending row j to every reached column
        // gives the up-looking slot layout (ascending rows within each
        // column). Where the rows < tail end is each sparse column's tail
        // slot.
        let total = reach.len();
        let mut lrowind = vec![0usize; total];
        next.copy_from_slice(&lcolptr[..n]);
        let mut tail_slot = Vec::new();
        for j in 0..n {
            if j == tail {
                tail_slot = next[..tail].to_vec();
            }
            for &i in &reach[rp_ptr[j]..rp_ptr[j + 1]] {
                lrowind[next[i]] = j;
                next[i] += 1;
            }
        }

        // Every row's reach in ascending column order, with the slot each
        // step writes: L read back column by column.
        let mut rp_idx = vec![0usize; total];
        let mut rp_slot = vec![0usize; total];
        next.copy_from_slice(&rp_ptr[..n]);
        for i in 0..n {
            for (slot, &j) in (lcolptr[i]..).zip(&lrowind[lcolptr[i]..lcolptr[i + 1]]) {
                rp_idx[next[j]] = i;
                rp_slot[next[j]] = slot;
                next[j] += 1;
            }
        }

        // Elimination-tree levels: children carry strictly smaller indices,
        // so one ascending pass settles every height.
        let mut level = vec![0usize; n];
        for i in 0..n {
            let p = parent[i];
            if p != none {
                level[p] = level[p].max(level[i] + 1);
            }
        }
        let num_levels = level.iter().copied().max().map_or(0, |d| d + 1);

        // Supernode count: column c joins the run of column c − 1 when the
        // latter's pattern is exactly {c} ∪ pattern(c), up to the width cap.
        let nested = |prev: usize, c: usize| {
            let (p, q) = (lcolptr[prev]..lcolptr[prev + 1], lcolptr[c]..lcolptr[c + 1]);
            p.len() == q.len() + 1
                && lrowind[p.start] == c
                && lrowind[p.start + 1..p.end] == lrowind[q]
        };
        let mut num_supernodes = 0usize;
        let mut width = 0usize;
        for c in 0..n {
            if width > 0 && width < SUPERNODE_MAX_WIDTH && nested(c - 1, c) {
                width += 1;
            } else {
                num_supernodes += 1;
                width = 1;
            }
        }

        Ok(LdlSymbolic {
            n,
            a_colptr: a.colptr,
            a_rowind: a.rowind,
            ordering: Arc::new(ordering),
            au_colptr,
            au_rowind,
            aval_map,
            lcolptr: Arc::new(lcolptr),
            lrowind: Arc::new(lrowind),
            rp_ptr,
            rp_idx,
            rp_slot,
            num_levels,
            tail,
            tail_slot,
            num_supernodes,
        })
    }

    /// Analyze with a reverse Cuthill–McKee ordering computed from `a`.
    pub fn analyze_rcm(a: &Csc) -> Result<LdlSymbolic, SparseError> {
        let ordering = Ordering::rcm(a);
        Self::analyze(a, ordering)
    }

    /// Analyze with the fill-reducing ordering [`Ordering::amd`] computed
    /// from `a` — the analysis to freeze when it will be replayed many
    /// times.
    pub fn analyze_amd(a: &Csc) -> Result<LdlSymbolic, SparseError> {
        let ordering = Ordering::amd(a);
        Self::analyze(a, ordering)
    }

    /// Dimension of the analyzed matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of entries the analyzed pattern stores (the length `values`
    /// slices passed to [`Self::refactor_dense_tail`] must have).
    pub fn nnz(&self) -> usize {
        self.a_rowind.len()
    }

    /// Number of strictly-lower-triangular nonzeros of the frozen `L`.
    pub fn lnz(&self) -> usize {
        self.lrowind.len()
    }

    /// Height of the elimination tree: rows on one level own disjoint
    /// subtrees, so this is the length of the replay's critical path.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// First column of the dense tail, which
    /// [`Self::refactor_dense_tail`] factors right-looking: columns
    /// `tail_start()..dim()` of `L` hold every row below their diagonal. At
    /// most `dim() − 1` for a nonempty matrix, since the last column
    /// qualifies trivially; 0 when all of `L` is dense.
    pub fn tail_start(&self) -> usize {
        self.tail
    }

    /// Number of supernodes (maximal runs of consecutive columns whose
    /// patterns below the run are identical, at most 32 columns wide) the
    /// frozen `L` partitions into: a figure of the pattern that no
    /// refactorization uses. Equal to [`Self::dim`] when no adjacent columns
    /// share a pattern.
    pub fn num_supernodes(&self) -> usize {
        self.num_supernodes
    }

    /// The analyzed CSC pattern as `(colptr, rowind)` — the entry order the
    /// `values` slices of [`Self::refactor`] must follow. Callers that need
    /// slot lookups into the frozen pattern can use this instead of keeping
    /// their own copy.
    pub fn pattern(&self) -> (&[usize], &[usize]) {
        (&self.a_colptr, &self.a_rowind)
    }

    /// The ordering frozen at analysis time.
    pub fn ordering(&self) -> &Ordering {
        self.ordering.as_ref()
    }

    /// Validate the value slice and the expected-sign vector against the
    /// analyzed dimension, and allocate the numeric factor.
    fn start(&self, values: &[f64], opts: &LdlOptions) -> Result<Numeric, SparseError> {
        self.check_values_len(values)?;
        if !opts.expected_signs.is_empty() && opts.expected_signs.len() != self.n {
            return Err(SparseError::Shape(format!(
                "expected_signs has length {}, expected {}",
                opts.expected_signs.len(),
                self.n
            )));
        }
        Ok(Numeric {
            lvalues: vec![0.0; self.lrowind.len()],
            d: vec![0.0; self.n],
            num_regularized: 0,
        })
    }

    fn finish(&self, factor: Numeric) -> LdlFactor {
        LdlFactor::from_parts(
            self.n,
            Arc::clone(&self.lcolptr),
            Arc::clone(&self.lrowind),
            factor.lvalues,
            factor.d,
            Arc::clone(&self.ordering),
            factor.num_regularized,
        )
    }

    /// Settle the raw pivot `dj` of column `j` by [`LdlOptions`]' rule
    /// (`expected_signs` is in original order, so it is read through the
    /// permutation) and store it. Returns the settled pivot.
    fn settle(
        &self,
        j: usize,
        dj: f64,
        opts: &LdlOptions,
        factor: &mut Numeric,
    ) -> Result<f64, SparseError> {
        let expected = match opts.expected_signs.is_empty() {
            true => 0,
            false => opts.expected_signs[self.ordering.perm[j]],
        };
        let dj_reg = settle_pivot(j, dj, expected, opts)?;
        factor.num_regularized += usize::from(dj_reg != dj);
        factor.d[j] = dj_reg;
        Ok(dj_reg)
    }

    /// Replay rows `rows` up-looking, each settled before the next reads it.
    fn replay_rows(
        &self,
        rows: Range<usize>,
        values: &[f64],
        opts: &LdlOptions,
        factor: &mut Numeric,
        y: &mut [f64],
    ) -> Result<(), SparseError> {
        for j in rows {
            let dj = self.replay_row(j, values, &mut factor.lvalues, &factor.d, y);
            self.settle(j, dj, opts, factor)?;
        }
        Ok(())
    }

    /// Replay the numeric factorization of row `j` against the frozen
    /// pattern: writes the row's `L` values to their slots and returns the
    /// raw (pre-regularization) pivot. Reads `lvalues`/`d` only at positions
    /// owned by strictly earlier rows. `y` must come in all-zero and is left
    /// all-zero. The arithmetic sequence is that of an up-looking
    /// factorization's inner loop.
    fn replay_row(
        &self,
        j: usize,
        values: &[f64],
        lvalues: &mut [f64],
        d: &[f64],
        y: &mut [f64],
    ) -> f64 {
        for p in self.au_colptr[j]..self.au_colptr[j + 1] {
            y[self.au_rowind[p]] += values[self.aval_map[p]];
        }
        let mut dj = y[j];
        y[j] = 0.0;
        for k in self.rp_ptr[j]..self.rp_ptr[j + 1] {
            let i = self.rp_idx[k];
            let yi = y[i];
            y[i] = 0.0;
            // Entries of column i below row j: an up-looking factorization
            // has appended exactly the rows < j at this point, a prefix of the
            // frozen (ascending) row list that ends at this step's slot.
            let slot = self.rp_slot[k];
            for p in self.lcolptr[i]..slot {
                y[self.lrowind[p]] -= lvalues[p] * yi;
            }
            let lji = yi / d[i];
            dj -= lji * yi;
            lvalues[slot] = lji;
        }
        dj
    }

    /// Pass 2, first half, for tail row `j`: [`Self::replay_row`]'s
    /// arithmetic on the rows `< tail` over the row's reach restricted to
    /// the columns `< tail` (which come first in it). The row's matrix
    /// entries in the tail columns, diagonal included, go to `row` (its
    /// block row, columns `tail..=j`); each unscaled `w = y[i]` is parked in
    /// the slot of `L[j, i]` for [`Self::update_tail_block`].
    fn replay_tail_row(
        &self,
        j: usize,
        values: &[f64],
        lvalues: &mut [f64],
        y: &mut [f64],
        row: &mut [f64],
    ) {
        let tail = self.tail;
        for p in self.au_colptr[j]..self.au_colptr[j + 1] {
            let (r, v) = (self.au_rowind[p], values[self.aval_map[p]]);
            match r.checked_sub(tail) {
                Some(t) => row[t] += v,
                None => y[r] += v,
            }
        }
        // The reach ends with the tail columns tail..j; skip them.
        for k in self.rp_ptr[j]..self.rp_ptr[j + 1] - (j - tail) {
            let i = self.rp_idx[k];
            let yi = y[i];
            y[i] = 0.0;
            for p in self.lcolptr[i]..self.tail_slot[i] {
                y[self.lrowind[p]] -= lvalues[p] * yi;
            }
            lvalues[self.rp_slot[k]] = yi;
        }
    }

    /// Pass 2, second half: the sparse columns' updates to the tail block,
    /// one column at a time in ascending order — so every block entry still
    /// receives its products in ascending column order — each scaling its
    /// parked `w` values into `L` as it goes. A column's tail rows are
    /// updated independently of one another, so this half carries no chain
    /// of dependent stores.
    fn update_tail_block(&self, block: &mut [f64], lvalues: &mut [f64], d: &[f64]) {
        let tail = self.tail;
        let nt = self.n - tail;
        for (i, &mid) in self.tail_slot.iter().enumerate() {
            let rows = &self.lrowind[mid..self.lcolptr[i + 1]];
            for (a, &j) in rows.iter().enumerate() {
                let t = j - tail;
                let row = &mut block[t * nt..t * nt + t + 1];
                let w = lvalues[mid + a];
                for (&r, &l) in rows[..a].iter().zip(&lvalues[mid..mid + a]) {
                    row[r - tail] -= l * w;
                }
                let l = w / d[i];
                row[t] -= l * w;
                lvalues[mid + a] = l;
            }
        }
    }

    /// Pass 3: factor the dense tail block right-looking. `block` is
    /// row-major `nt × nt`; row `t` holds, in its columns `0..=t`, what
    /// passes 1–2 left of tail row `tail + t` (its unscaled entries and, on
    /// the diagonal, its partial pivot). Column `tail + k` of `L` is full,
    /// so its entry of row `tail + r` sits at `lcolptr[tail + k] + r − k − 1`
    /// and the column is contiguous.
    fn factor_tail_block(
        &self,
        block: &mut [f64],
        opts: &LdlOptions,
        factor: &mut Numeric,
    ) -> Result<(), SparseError> {
        let tail = self.tail;
        let nt = self.n - tail;
        let lcol = |k: usize| self.lcolptr[tail + k];
        for k0 in (0..nt).step_by(PANEL) {
            let k1 = (k0 + PANEL).min(nt);
            // The panel, one column at a time: settle its pivot, scale its L
            // column, then update the panel's later columns.
            for k in k0..k1 {
                let dk = self.settle(tail + k, block[k * nt + k], opts, factor)?;
                let lk = &mut factor.lvalues[lcol(k)..lcol(k + 1)];
                for (l, t) in lk.iter_mut().zip(k + 1..nt) {
                    *l = block[t * nt + k] / dk;
                }
                for t in k + 1..nt {
                    let row = &mut block[t * nt..t * nt + t + 1];
                    let w = row[k];
                    for r in k + 1..k1.min(t + 1) {
                        row[r] -= lk[r - k - 1] * w;
                    }
                }
            }
            // The trailing update of rows and columns ≥ k1 by the whole
            // panel. Only the last panel can be narrower than PANEL, and it
            // leaves nothing trailing.
            for t in k1..nt {
                let row = &mut block[t * nt..t * nt + t + 1];
                let w: [f64; PANEL] = std::array::from_fn(|q| row[k0 + q]);
                let len = t + 1 - k1;
                let l: [&[f64]; PANEL] = std::array::from_fn(|q| {
                    let start = lcol(k0 + q) + k1 - (k0 + q) - 1;
                    &factor.lvalues[start..start + len]
                });
                let entries = row[k1..].iter_mut().zip(l[0]).zip(l[1]).zip(l[2]).zip(l[3]);
                for ((((v, l0), l1), l2), l3) in entries {
                    let mut x = *v;
                    x -= l0 * w[0];
                    x -= l1 * w[1];
                    x -= l2 * w[2];
                    x -= l3 * w[3];
                    *v = x;
                }
            }
        }
        Ok(())
    }

    /// Numeric-only refactorization from a value slice aligned with the
    /// analyzed pattern (entry `k` of `values` is the value of the analyzed
    /// matrix's `k`-th stored entry), every row replayed up-looking: the
    /// reference [`Self::refactor_dense_tail`] is pinned to bit for bit, and
    /// the baseline `perf` times it against (`sparse.refactor_scalar_ms`).
    pub fn refactor(&self, values: &[f64], opts: &LdlOptions) -> Result<LdlFactor, SparseError> {
        let mut factor = self.start(values, opts)?;
        let mut y = vec![0.0f64; self.n];
        self.replay_rows(0..self.n, values, opts, &mut factor, &mut y)?;
        Ok(self.finish(factor))
    }

    /// The production refactorization: the same frozen pattern and `values`
    /// layout as [`Self::refactor`], in the three passes of the module
    /// documentation — rows before the dense tail up-looking, the tail rows'
    /// sparse columns into a dense block, the block right-looking.
    /// Bitwise identical to [`Self::refactor`], and fails with the same
    /// [`SparseError::Breakdown`]; [`LdlFactor::factorize_with`] runs it
    /// after a fresh analysis. Allocates the factor's two value vectors,
    /// the `y` accumulator and the `nt × nt` block — a constant four
    /// allocations, none per row.
    pub fn refactor_dense_tail(
        &self,
        values: &[f64],
        opts: &LdlOptions,
    ) -> Result<LdlFactor, SparseError> {
        let mut factor = self.start(values, opts)?;
        let (tail, nt) = (self.tail, self.n - self.tail);
        let mut y = vec![0.0f64; self.n];
        self.replay_rows(0..tail, values, opts, &mut factor, &mut y)?;
        let mut block = vec![0.0f64; nt * nt];
        for t in 0..nt {
            let row = &mut block[t * nt..t * nt + t + 1];
            self.replay_tail_row(tail + t, values, &mut factor.lvalues, &mut y, row);
        }
        self.update_tail_block(&mut block, &mut factor.lvalues, &factor.d);
        self.factor_tail_block(&mut block, opts, &mut factor)?;
        Ok(self.finish(factor))
    }

    /// [`Self::refactor_dense_tail`] from a whole matrix, validating that
    /// its pattern matches the analyzed one exactly.
    pub fn refactor_matrix(&self, a: &Csc, opts: &LdlOptions) -> Result<LdlFactor, SparseError> {
        self.check_same_pattern(a)?;
        self.refactor_dense_tail(&a.values, opts)
    }

    fn check_values_len(&self, values: &[f64]) -> Result<(), SparseError> {
        if values.len() != self.a_rowind.len() {
            return Err(SparseError::Shape(format!(
                "value slice has length {}, analyzed pattern stores {}",
                values.len(),
                self.a_rowind.len()
            )));
        }
        Ok(())
    }

    /// True when `a` has exactly the analyzed sparsity pattern.
    pub(crate) fn same_pattern(&self, a: &Csc) -> bool {
        a.nrows == self.n
            && a.ncols == self.n
            && a.colptr == self.a_colptr
            && a.rowind == self.a_rowind
    }

    fn check_same_pattern(&self, a: &Csc) -> Result<(), SparseError> {
        if !self.same_pattern(a) {
            return Err(SparseError::Shape(
                "matrix pattern differs from the analyzed pattern; re-analyze".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::oracle::{self, symmetric_permute, Symbolic};
    use crate::ordering::tests::{random_pattern, symmetrized};
    use proptest::prelude::*;

    /// The parent's analysis, kept as the oracle [`LdlSymbolic::analyze`]
    /// is pinned to: the oracle factorization's value-carrying permute and
    /// triangle and symbolic analysis, a binary search per `aval_map` entry,
    /// and every row's reach sorted.
    fn parent_analyze(a: &Csc, ordering: Ordering) -> Result<LdlSymbolic, SparseError> {
        if a.nrows != a.ncols {
            return Err(SparseError::Shape(format!(
                "matrix is {}x{}, expected square",
                a.nrows, a.ncols
            )));
        }
        let n = a.ncols;
        if ordering.len() != n {
            return Err(SparseError::Shape(format!(
                "ordering has length {}, expected {n}",
                ordering.len()
            )));
        }
        // The same permute + upper-triangle construction the oracle
        // factorization performs, so entry order (and therefore replayed
        // arithmetic order) matches it exactly.
        let permuted = symmetric_permute(a, &ordering.perm).upper_triangle();

        // Map every permuted-upper entry back to its source value in `a`.
        let mut aval_map = Vec::with_capacity(permuted.nnz());
        for j in 0..n {
            for p in permuted.colptr[j]..permuted.colptr[j + 1] {
                let orig_row = ordering.perm[permuted.rowind[p]];
                let orig_col = ordering.perm[j];
                let lo = a.colptr[orig_col];
                let hi = a.colptr[orig_col + 1];
                match a.rowind[lo..hi].binary_search(&orig_row) {
                    Ok(off) => aval_map.push(lo + off),
                    Err(_) => {
                        return Err(SparseError::Shape(format!(
                            "pattern is not symmetric: entry ({orig_row}, {orig_col}) \
                             has no transpose partner"
                        )))
                    }
                }
            }
        }

        let sym = Symbolic::analyze(&permuted);

        // Reach of every row: the up-looking pattern computation once, each
        // row's reach then put in ascending column order.
        let none = usize::MAX;
        let mut flag = vec![none; n];
        let mut pattern = vec![0usize; n];
        let mut rp_ptr = vec![0usize; n + 1];
        let mut rp_idx = Vec::with_capacity(sym.total_lnz());
        for j in 0..n {
            let mut top = n;
            flag[j] = j;
            for p in permuted.colptr[j]..permuted.colptr[j + 1] {
                let mut i = permuted.rowind[p];
                if i >= j {
                    continue;
                }
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
            pattern[top..n].sort_unstable();
            rp_idx.extend_from_slice(&pattern[top..n]);
            rp_ptr[j + 1] = rp_idx.len();
        }

        // Frozen row indices of L: appending row j to every reached column
        // reproduces the oracle factorization's slot layout (ascending rows
        // within each column).
        let total = sym.total_lnz();
        // `Symbolic::analyze` always returns `lcolptr` of length n + 1 with
        // the total as its last entry.
        let lcolptr = sym.lcolptr.clone();
        let mut lrowind = vec![0usize; total];
        let mut lnz_used = vec![0usize; n];
        let mut rp_slot = Vec::with_capacity(total);
        for j in 0..n {
            for &i in &rp_idx[rp_ptr[j]..rp_ptr[j + 1]] {
                let slot = lcolptr[i] + lnz_used[i];
                lrowind[slot] = j;
                rp_slot.push(slot);
                lnz_used[i] += 1;
            }
        }

        // Elimination-tree levels: children carry strictly smaller indices,
        // so one ascending pass settles every height.
        let mut level = vec![0usize; n];
        for i in 0..n {
            let p = sym.parent[i];
            if p != none {
                level[p] = level[p].max(level[i] + 1);
            }
        }
        let num_levels = level.iter().copied().max().map_or(0, |d| d + 1);

        // The dense tail, and where each sparse column's tail rows start.
        let mut tail = n;
        while tail > 0 && lcolptr[tail] - lcolptr[tail - 1] == n - tail {
            tail -= 1;
        }
        let tail_slot = (0..tail)
            .map(|i| {
                let rows = &lrowind[lcolptr[i]..lcolptr[i + 1]];
                lcolptr[i] + rows.partition_point(|&r| r < tail)
            })
            .collect();

        // Supernode count: column c joins the run of column c − 1 when the
        // latter's pattern is exactly {c} ∪ pattern(c), up to the width cap.
        let nested = |prev: usize, c: usize| {
            let (p, q) = (lcolptr[prev]..lcolptr[prev + 1], lcolptr[c]..lcolptr[c + 1]);
            p.len() == q.len() + 1
                && lrowind[p.start] == c
                && lrowind[p.start + 1..p.end] == lrowind[q]
        };
        let mut num_supernodes = 0usize;
        let mut width = 0usize;
        for c in 0..n {
            if width > 0 && width < SUPERNODE_MAX_WIDTH && nested(c - 1, c) {
                width += 1;
            } else {
                num_supernodes += 1;
                width = 1;
            }
        }

        Ok(LdlSymbolic {
            n,
            a_colptr: a.colptr.clone(),
            a_rowind: a.rowind.clone(),
            ordering: Arc::new(ordering),
            au_colptr: permuted.colptr,
            au_rowind: permuted.rowind,
            aval_map,
            lcolptr: Arc::new(lcolptr),
            lrowind: Arc::new(lrowind),
            rp_ptr,
            rp_idx,
            rp_slot,
            num_levels,
            tail,
            tail_slot,
            num_supernodes,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The one-pass analysis freezes exactly the parent's structure —
        /// permuted pattern, `aval_map`, tree, `L` pattern, reaches and
        /// their slots, tail — under AMD, RCM, the identity and a reversal,
        /// on symmetric patterns and on one-triangle ones.
        #[test]
        fn analysis_matches_the_parent_on_random_patterns(
            seed in 0u64..u64::MAX,
            n in 0usize..60,
        ) {
            let one_triangle = random_pattern(seed, n);
            for a in [symmetrized(&one_triangle), one_triangle] {
                for ordering in [
                    Ordering::amd(&a),
                    Ordering::rcm(&a),
                    Ordering::identity(n),
                    Ordering::from_perm((0..n).rev().collect()),
                ] {
                    let want = parent_analyze(&a, ordering.clone()).unwrap();
                    prop_assert!(LdlSymbolic::analyze(&a, ordering).unwrap() == want, "{want:?}");
                }
            }
        }
    }

    fn factor_bits(f: &LdlFactor) -> (Vec<u64>, Vec<u64>, usize) {
        (
            f.l_values().iter().map(|v| v.to_bits()).collect(),
            f.d_values().iter().map(|v| v.to_bits()).collect(),
            f.num_regularized,
        )
    }

    /// A small quasi-definite KKT-shaped matrix [H Jᵀ; J −δI].
    fn kkt_example(h_scale: f64) -> Csc {
        let mut coo = Coo::new(5, 5);
        for i in 0..3 {
            coo.push(i, i, h_scale * (2.0 + i as f64));
        }
        coo.push(0, 1, 0.4);
        coo.push(1, 0, 0.4);
        for (r, c, v) in [(3, 0, 1.0), (3, 1, 1.0), (4, 1, -2.0), (4, 2, 0.7)] {
            coo.push(r, c, v);
            coo.push(c, r, v);
        }
        coo.push(3, 3, -1e-8);
        coo.push(4, 4, -1e-8);
        coo.to_csc()
    }

    fn kkt_opts() -> LdlOptions {
        LdlOptions {
            expected_signs: vec![1, 1, 1, -1, -1],
            ..Default::default()
        }
    }

    /// A dense, diagonally dominant `n × n` matrix. The off-diagonal values
    /// are irregular and of both signs, so that reordering an entry's
    /// updates shows in its bits.
    fn dense(n: usize) -> Csc {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = if i == j {
                    n as f64 + 1.0
                } else {
                    ((i * j + i + j) % 7) as f64 / 3.0 - 1.1
                };
                coo.push(i, j, v);
            }
        }
        coo.to_csc()
    }

    /// 5-point stencil on a `rows × cols` grid.
    fn grid_laplacian(rows: usize, cols: usize) -> Csc {
        let mut coo = Coo::new(rows * cols, rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                coo.push(i, i, 4.5);
                if c + 1 < cols {
                    coo.push(i, i + 1, -1.0);
                    coo.push(i + 1, i, -1.0);
                }
                if r + 1 < rows {
                    coo.push(i, i + cols, -1.0);
                    coo.push(i + cols, i, -1.0);
                }
            }
        }
        coo.to_csc()
    }

    #[test]
    fn refactor_matches_fresh_factorization_bitwise() {
        let a = kkt_example(1.0);
        let opts = kkt_opts();
        let ordering = Ordering::rcm(&a);
        let sym = LdlSymbolic::analyze(&a, ordering.clone()).unwrap();
        let fresh = oracle::factorize(&a, ordering, &opts).unwrap();
        let re = sym.refactor_matrix(&a, &opts).unwrap();
        assert_eq!(factor_bits(&fresh), factor_bits(&re));
        // New values, same pattern: still bitwise identical to a fresh run.
        let b = kkt_example(3.5);
        let fresh_b = oracle::factorize(&b, sym.ordering().clone(), &opts).unwrap();
        let re_b = sym.refactor_matrix(&b, &opts).unwrap();
        assert_eq!(factor_bits(&fresh_b), factor_bits(&re_b));
        let rhs = vec![1.0, -2.0, 0.5, 0.1, -0.3];
        assert_eq!(
            fresh_b
                .solve(&rhs)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            re_b.solve(&rhs)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn regularized_pivots_are_replayed_identically() {
        // Wrong-signed (2,2) pivot given the expected signs: the oracle
        // regularizes it, and the replay must do exactly the same.
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 2, 4.0); // expected negative below
        coo.push(0, 2, 1.0);
        coo.push(2, 0, 1.0);
        let a = coo.to_csc();
        let opts = LdlOptions {
            expected_signs: vec![1, 1, -1],
            ..Default::default()
        };
        let sym = LdlSymbolic::analyze_rcm(&a).unwrap();
        let fresh = oracle::factorize(&a, sym.ordering().clone(), &opts).unwrap();
        let re = sym.refactor_matrix(&a, &opts).unwrap();
        let scalar = sym.refactor(&a.values, &opts).unwrap();
        assert!(fresh.num_regularized > 0);
        assert_eq!(factor_bits(&fresh), factor_bits(&re));
        assert_eq!(factor_bits(&fresh), factor_bits(&scalar));
    }

    #[test]
    fn dense_tail_refactor_matches_scalar_bitwise() {
        for scale in [1.0, 3.5, -0.2] {
            let a = kkt_example(scale);
            let opts = kkt_opts();
            let sym = LdlSymbolic::analyze_rcm(&a).unwrap();
            let scalar = sym.refactor(&a.values, &opts).unwrap();
            let tail = sym.refactor_matrix(&a, &opts).unwrap();
            assert_eq!(factor_bits(&scalar), factor_bits(&tail));
        }
    }

    #[test]
    fn dense_pattern_is_one_tail_and_one_supernode() {
        // A dense matrix under the identity ordering: every column of L is
        // full, so the whole factorization is the right-looking kernel (three
        // full panels and a remainder of one column). Must still be bitwise
        // identical to both the scalar replay and the oracle factorization.
        let n = 13;
        let a = dense(n);
        let identity = Ordering::from_perm((0..n).collect());
        let sym = LdlSymbolic::analyze(&a, identity.clone()).unwrap();
        assert_eq!(sym.tail_start(), 0);
        assert_eq!(sym.num_supernodes(), 1, "dense L should be one supernode");
        assert_eq!(sym.num_levels(), n, "a dense etree is one chain");
        let opts = LdlOptions::default();
        let fresh = oracle::factorize(&a, identity, &opts).unwrap();
        let scalar = sym.refactor(&a.values, &opts).unwrap();
        let tail = sym.refactor_dense_tail(&a.values, &opts).unwrap();
        assert_eq!(factor_bits(&fresh), factor_bits(&scalar));
        assert_eq!(factor_bits(&fresh), factor_bits(&tail));
    }

    /// The invariants the three passes rest on: every reach is strictly
    /// ascending, a tail row's reach ends with every tail column before it,
    /// the tail is maximal, and `tail_slot` splits each sparse column at its
    /// first tail row.
    #[test]
    fn reach_is_ascending_and_the_tail_is_maximal() {
        let laplacian = grid_laplacian(6, 7);
        for sym in [
            LdlSymbolic::analyze_rcm(&kkt_example(1.0)).unwrap(),
            LdlSymbolic::analyze_amd(&laplacian).unwrap(),
            LdlSymbolic::analyze_rcm(&laplacian).unwrap(),
            LdlSymbolic::analyze(&dense(6), Ordering::identity(6)).unwrap(),
        ] {
            let (n, tail) = (sym.dim(), sym.tail_start());
            assert!(tail < n);
            for j in 0..n {
                let reach = &sym.rp_idx[sym.rp_ptr[j]..sym.rp_ptr[j + 1]];
                assert!(reach.windows(2).all(|w| w[0] < w[1]), "row {j}: {reach:?}");
                if j >= tail {
                    assert!(reach.ends_with(&(tail..j).collect::<Vec<_>>()), "row {j}");
                }
            }
            let full = |c: usize| sym.lcolptr[c + 1] - sym.lcolptr[c] == n - 1 - c;
            assert!((tail..n).all(full));
            assert!(tail == 0 || !full(tail - 1));
            for i in 0..tail {
                let col = sym.lcolptr[i]..sym.lcolptr[i + 1];
                let mid = sym.tail_slot[i];
                assert!(col.contains(&mid) || mid == col.end);
                assert!(sym.lrowind[col.start..mid].iter().all(|&r| r < tail));
                assert!(sym.lrowind[mid..col.end].iter().all(|&r| r >= tail));
            }
        }
        // An AMD-ordered grid leaves a separator for the kernel.
        let sym = LdlSymbolic::analyze_amd(&laplacian).unwrap();
        assert!(
            sym.dim() - sym.tail_start() > PANEL,
            "tail {}",
            sym.tail_start()
        );
    }

    /// A non-finite pivot is a breakdown at its column on the oracle
    /// factorization, the scalar replay and the production path alike, whether the column
    /// falls before the dense tail or inside it. It used to come back `Ok`
    /// with a NaN in `D`.
    #[test]
    fn non_finite_pivot_breaks_down_at_the_same_column_on_every_path() {
        let a = Csc::from_triplets(
            3,
            3,
            &[0, 1, 0, 1, 2],
            &[0, 0, 1, 1, 2],
            &[4.0, 1.0, 1.0, f64::NAN, 3.0],
        );
        let opts = LdlOptions {
            expected_signs: vec![1, 1, 1],
            ..Default::default()
        };
        let mut in_tail = [false; 2];
        for perm in [vec![0, 1, 2], vec![0, 2, 1], vec![1, 0, 2]] {
            let ordering = Ordering::from_perm(perm);
            let column = ordering.inv[1];
            let sym = LdlSymbolic::analyze(&a, ordering.clone()).unwrap();
            in_tail[usize::from(column >= sym.tail_start())] = true;
            for result in [
                oracle::factorize(&a, ordering.clone(), &opts),
                sym.refactor(&a.values, &opts),
                sym.refactor_dense_tail(&a.values, &opts),
            ] {
                match result {
                    Err(SparseError::Breakdown { column: c, pivot }) => {
                        assert_eq!(c, column);
                        assert!(pivot.is_nan());
                    }
                    other => panic!("expected a breakdown at {column}, got {other:?}"),
                }
            }
        }
        assert_eq!(in_tail, [true, true], "both sides of the tail covered");
    }

    #[test]
    fn pattern_mismatch_is_rejected() {
        let a = kkt_example(1.0);
        let sym = LdlSymbolic::analyze_rcm(&a).unwrap();
        let mut coo = Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0);
        }
        let diag = coo.to_csc();
        assert!(matches!(
            sym.refactor_matrix(&diag, &LdlOptions::default()),
            Err(SparseError::Shape(_))
        ));
        assert!(matches!(
            sym.refactor(&[0.0; 3], &LdlOptions::default()),
            Err(SparseError::Shape(_))
        ));
    }

    #[test]
    fn unpaired_entry_is_dropped_exactly_like_the_fresh_path() {
        // An (0,1) entry with no (1,0) partner flips into the lower triangle
        // under the reversing permutation and is dropped — by the oracle
        // factorization and by the frozen analysis alike, so the replay must
        // still agree bitwise.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(0, 1, 0.5); // no (1, 0) partner
        let a = coo.to_csc();
        let rev = Ordering::from_perm(vec![1, 0]);
        let sym = LdlSymbolic::analyze(&a, rev.clone()).unwrap();
        let fresh = oracle::factorize(&a, rev, &LdlOptions::default()).unwrap();
        let re = sym.refactor_matrix(&a, &LdlOptions::default()).unwrap();
        assert_eq!(factor_bits(&fresh), factor_bits(&re));
    }
}
