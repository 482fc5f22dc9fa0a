//! Symbolic-reuse LDLᵀ: analyze once, numerically refactorize many times.
//!
//! Interior-point methods factorize a KKT matrix whose *pattern* never
//! changes — only the values do (barrier terms, Hessian entries,
//! regularization). Świrydowicz et al. (arXiv:2306.14337) show that the
//! speedup of linear solvers in this setting comes from freezing the
//! symbolic analysis (elimination tree, fill pattern, pivot order) and
//! running *numeric-only refactorizations* against it. This module
//! implements that split for the up-looking LDLᵀ of [`crate::ldl`], on the
//! host — where the paper keeps its interior-point baseline:
//!
//! * [`LdlSymbolic::analyze`] runs once per problem: it fixes the ordering
//!   ([`LdlSymbolic::analyze_amd`] for the fill-reducing one, the analysis
//!   to freeze when it is replayed many times; [`LdlSymbolic::analyze_rcm`]
//!   for the bandwidth one), the permuted upper-triangular pattern, the
//!   elimination tree and its height, the full row pattern of `L`, and the
//!   replay order of every row's sparse dot products together with the slot
//!   of `L` each replay step writes (`rp_slot` — a constant of the pattern,
//!   so no replay searches a column for it);
//! * the analysis additionally groups columns of the frozen `L` into
//!   **supernodes** (maximal runs of consecutive columns whose patterns
//!   below the diagonal block are identical — the structure dense BLAS3
//!   factorization kernels exploit, cf. Świrydowicz et al. §III) and
//!   rewrites every row's replay list into *segments*, each with its count
//!   of shared rows ahead of the target row (`seg_t`). Detection only looks
//!   at *consecutive* columns: it is the elimination-tree postorder of
//!   [`Ordering::amd`] that makes the columns of a tree chain consecutive;
//! * [`LdlSymbolic::refactor_supernodal`] — the production replay, the one
//!   the IPM's condensed-KKT cache runs every Newton step and
//!   [`LdlSymbolic::refactor_matrix`] goes through — walks rows in ascending
//!   order over the frozen pattern: no graph walks, four allocations per
//!   call whatever the dimension (the factor's two value vectors, the `y`
//!   accumulator and one staging row), none per row. A segment covering a
//!   `w`-column supernode is replayed as a small dense triangular solve on
//!   the diagonal block followed by a rank-`w` update of the shared
//!   subdiagonal pattern: one pattern lookup and one `y` load/store per
//!   target row instead of `w`, with the per-row accumulation kept in the
//!   exact column order of a fresh [`LdlFactor::factorize_with`] of the same
//!   matrix, so the result is **bitwise identical** to it (a tested
//!   invariant);
//! * [`LdlSymbolic::refactor`] is the same replay one column at a time: the
//!   oracle the supernodal grouping is pinned to bit for bit, and the second
//!   subject of `perf`'s `sparse.refactor_scalar_ms` probe (through
//!   `KktCache::refactor_microbench` in `gridsim-ipm`).
//!
//! Rows on one elimination-tree level own disjoint subtrees, so a level
//! could be fanned out over workers. The replay stays one host loop because
//! that fan-out measured slower on every launch backend at both sizes on
//! record (877- and 5 937-dim condensed systems: a level holds 4–60 rows of
//! ~14 entries, less work than a worker-pool wake-up); the analysis keeps
//! the schedule's length, [`LdlSymbolic::num_levels`], as a figure only.

use crate::csc::Csc;
use crate::ldl::{LdlFactor, LdlOptions};
use crate::ordering::Ordering;
use crate::symbolic::Symbolic;
use crate::SparseError;
use std::sync::Arc;

/// Upper bound on supernode width. Wider runs of identical-pattern columns
/// are split into consecutive supernodes of this width, which keeps the
/// per-row replay's column-value buffer on the stack (no per-row allocation,
/// mirroring the scalar path) while still capturing essentially all of the
/// grouping win — rank-32 updates already amortize the pattern lookups.
const SUPERNODE_MAX_WIDTH: usize = 32;

/// Frozen symbolic analysis of a symmetric matrix, reusable across any
/// number of numeric refactorizations with the same sparsity pattern.
#[derive(Debug, Clone)]
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
    /// Elimination tree parents over the permuted pattern.
    parent: Vec<usize>,
    /// Column pointers of `L` (length `n + 1`).
    lcolptr: Arc<Vec<usize>>,
    /// Frozen row indices of `L`, ascending within each column.
    lrowind: Arc<Vec<usize>>,
    /// Replay order of each row's reach set (`rp_idx[rp_ptr[j]..rp_ptr[j+1]]`
    /// is the exact column order the up-looking factorization visits when
    /// computing row `j`).
    rp_ptr: Vec<usize>,
    rp_idx: Vec<usize>,
    /// `rp_slot[k]` is the slot of `L` replay step `k` writes: the entry of
    /// row `j` in column `rp_idx[k]`, which sits right after that column's
    /// rows `< j`. A constant of the pattern, so no replay searches for it.
    rp_slot: Vec<usize>,
    /// Height of the elimination tree: the longest chain of rows that must
    /// be replayed one after another.
    num_levels: usize,
    /// Supernode partition of the frozen `L`: `sn_end_of_col[c]` is the
    /// exclusive end column of the supernode containing column `c` (maximal
    /// run of consecutive columns whose patterns below the shared diagonal
    /// block are identical, width-capped at [`SUPERNODE_MAX_WIDTH`]).
    sn_end_of_col: Vec<usize>,
    num_supernodes: usize,
    max_supernode_width: usize,
    /// Segmented replay lists: `seg_ptr[j]..seg_ptr[j+1]` indexes the
    /// segments of row `j`'s reach set, each a run of `seg_len[s]`
    /// consecutive columns starting at `seg_col[s]` that live in one
    /// supernode and appear consecutively in the scalar replay order
    /// (`rp_idx`). Concatenating the segments reproduces `rp_idx` exactly.
    seg_ptr: Vec<usize>,
    seg_col: Vec<usize>,
    seg_len: Vec<usize>,
    /// `seg_t[s]`: how many of the supernode's shared below-block rows
    /// precede the segment's target row (the rank-`w` update's row count).
    seg_t: Vec<usize>,
}

/// The numeric half of a factor while a replay fills it.
struct Numeric {
    lvalues: Vec<f64>,
    d: Vec<f64>,
    num_regularized: usize,
}

impl LdlSymbolic {
    /// Analyze the pattern of `a` under the supplied fill-reducing ordering.
    /// Values of `a` are ignored; only the structure is frozen.
    pub fn analyze(a: &Csc, ordering: Ordering) -> Result<LdlSymbolic, SparseError> {
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
        // The same permute + upper-triangle construction the fresh
        // factorization performs, so entry order (and therefore replayed
        // arithmetic order) matches it exactly.
        let permuted = a.symmetric_permute(&ordering.perm).upper_triangle();

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

        // Replay orders: replicate the up-looking pattern computation once,
        // recording the reach-set order of every row.
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
            rp_idx.extend_from_slice(&pattern[top..n]);
            rp_ptr[j + 1] = rp_idx.len();
        }

        // Frozen row indices of L: appending row j to every reached column in
        // replay order reproduces the fresh factorization's slot layout
        // (ascending rows within each column).
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

        // Supernode partition: columns c and c+1 merge when column c's
        // pattern is exactly {c+1} ∪ pattern(c+1) — first subdiagonal entry
        // is the next column and the remaining rows coincide. Within such a
        // run every column shares one below-block row set, so a numeric
        // replay can update those rows once per run instead of once per
        // column.
        let mut sn_end_of_col = vec![0usize; n];
        let mut num_supernodes = 0usize;
        let mut max_supernode_width = 0usize;
        let mut c = 0usize;
        while c < n {
            let mut end = c + 1;
            while end < n && end - c < SUPERNODE_MAX_WIDTH {
                let prev = end - 1;
                let mergeable = lcolptr[prev + 1] - lcolptr[prev]
                    == lcolptr[end + 1] - lcolptr[end] + 1
                    && lrowind[lcolptr[prev]] == end
                    && lrowind[lcolptr[prev] + 1..lcolptr[prev + 1]]
                        == lrowind[lcolptr[end]..lcolptr[end + 1]];
                if !mergeable {
                    break;
                }
                end += 1;
            }
            for e in &mut sn_end_of_col[c..end] {
                *e = end;
            }
            num_supernodes += 1;
            max_supernode_width = max_supernode_width.max(end - c);
            c = end;
        }

        // Segmented replay lists: greedily group runs of consecutive columns
        // of one supernode that the scalar replay visits back to back. The
        // grouping is opportunistic — a supernode entered mid-chain by the
        // elimination-tree walk simply yields narrower segments (width 1 in
        // the worst case, which degenerates to the scalar replay).
        let mut seg_ptr = vec![0usize; n + 1];
        let mut seg_col = Vec::new();
        let mut seg_len = Vec::new();
        let mut seg_t = Vec::new();
        for j in 0..n {
            let reach = &rp_idx[rp_ptr[j]..rp_ptr[j + 1]];
            let mut k = 0usize;
            while k < reach.len() {
                let start = reach[k];
                let s_end = sn_end_of_col[start];
                let mut w = 1usize;
                while k + w < reach.len() && reach[k + w] == start + w && start + w < s_end {
                    w += 1;
                }
                seg_col.push(start);
                seg_len.push(w);
                // Column `start` holds, before row j: the rows of its own
                // supernode below it (those < j), then the shared rows < j.
                let lead = s_end.min(j) - start - 1;
                seg_t.push(rp_slot[rp_ptr[j] + k] - lcolptr[start] - lead);
                k += w;
            }
            seg_ptr[j + 1] = seg_col.len();
        }

        Ok(LdlSymbolic {
            n,
            a_colptr: a.colptr.clone(),
            a_rowind: a.rowind.clone(),
            ordering: Arc::new(ordering),
            au_colptr: permuted.colptr,
            au_rowind: permuted.rowind,
            aval_map,
            parent: sym.parent,
            lcolptr: Arc::new(lcolptr),
            lrowind: Arc::new(lrowind),
            rp_ptr,
            rp_idx,
            rp_slot,
            num_levels,
            sn_end_of_col,
            num_supernodes,
            max_supernode_width,
            seg_ptr,
            seg_col,
            seg_len,
            seg_t,
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
    /// slices passed to [`Self::refactor_supernodal`] must have).
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

    /// Number of supernodes the frozen `L` pattern partitions into. Equal to
    /// [`Self::dim`] when no adjacent columns share a pattern; smaller values
    /// mean the supernodal replay gets to batch its updates.
    pub fn num_supernodes(&self) -> usize {
        self.num_supernodes
    }

    /// Width of the widest supernode (1 for a pattern with no groupable
    /// columns; capped at `SUPERNODE_MAX_WIDTH` = 32).
    pub fn max_supernode_width(&self) -> usize {
        self.max_supernode_width
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

    /// Elimination-tree parent pointers (`usize::MAX` for roots), in the
    /// permuted index space.
    pub fn etree_parent(&self) -> &[usize] {
        &self.parent
    }

    /// Validate the value slice and the expected-sign vector against the
    /// analyzed dimension (the checks every refactorization entry shares).
    fn check_inputs(&self, values: &[f64], opts: &LdlOptions) -> Result<(), SparseError> {
        self.check_values_len(values)?;
        if !opts.expected_signs.is_empty() && opts.expected_signs.len() != self.n {
            return Err(SparseError::Shape(format!(
                "expected_signs has length {}, expected {}",
                opts.expected_signs.len(),
                self.n
            )));
        }
        Ok(())
    }

    /// Commit row `j` of a replay: its staged `L` values go to their
    /// precomputed slots and its raw pivot `dj` is regularized exactly as the
    /// fresh factorization does (`expected_signs` is in original order, so it
    /// is read through the permutation). Fails on a pivot that stays zero.
    fn commit_row(
        &self,
        j: usize,
        dj: f64,
        staged: &[f64],
        opts: &LdlOptions,
        factor: &mut Numeric,
    ) -> Result<(), SparseError> {
        let steps = self.rp_ptr[j]..self.rp_ptr[j + 1];
        for (&slot, &v) in self.rp_slot[steps].iter().zip(staged) {
            factor.lvalues[slot] = v;
        }
        let expected = match opts.expected_signs.is_empty() {
            true => 0,
            false => opts.expected_signs[self.ordering.perm[j]],
        };
        let dj_reg = crate::ldl::regularize_pivot(dj, expected, opts);
        if dj_reg == 0.0 {
            return Err(SparseError::Breakdown {
                column: j,
                pivot: dj,
            });
        }
        factor.num_regularized += usize::from(dj_reg != dj);
        factor.d[j] = dj_reg;
        Ok(())
    }

    /// Replay the numeric factorization of row `j` against the frozen
    /// pattern. Reads `lvalues`/`d` only at positions owned by strictly
    /// earlier rows; writes this row's `L` values into `out` in replay order
    /// (`out[k]` is the entry of column `rp_idx[rp_ptr[j] + k]`) and returns
    /// the raw (pre-regularization) pivot. `y` must come in all-zero and is
    /// left all-zero. The arithmetic sequence is identical to
    /// [`LdlFactor::factorize_with`]'s inner loop.
    fn replay_row(
        &self,
        j: usize,
        values: &[f64],
        lvalues: &[f64],
        d: &[f64],
        y: &mut [f64],
        out: &mut [f64],
    ) -> f64 {
        for p in self.au_colptr[j]..self.au_colptr[j + 1] {
            y[self.au_rowind[p]] += values[self.aval_map[p]];
        }
        let mut dj = y[j];
        y[j] = 0.0;
        let steps = self.rp_ptr[j]..self.rp_ptr[j + 1];
        for (k, lji_out) in steps.zip(out) {
            let i = self.rp_idx[k];
            let yi = y[i];
            y[i] = 0.0;
            // Entries of column i below row j: the fresh factorization has
            // appended exactly the rows < j at this point, a prefix of the
            // frozen (ascending) row list that ends at this step's slot.
            for p in self.lcolptr[i]..self.rp_slot[k] {
                y[self.lrowind[p]] -= lvalues[p] * yi;
            }
            let lji = yi / d[i];
            dj -= lji * yi;
            *lji_out = lji;
        }
        dj
    }

    /// Supernodal replay of row `j`: same arithmetic as [`Self::replay_row`],
    /// but the reach set is walked segment-by-segment and each segment's
    /// updates to the supernode's shared below-block rows run as one dense
    /// rank-`w` update. Bitwise identical to the scalar replay because every
    /// memory location still receives its updates in ascending column order
    /// (phase 1 preserves the scalar order for intra-supernode rows and the
    /// pivot; phase 2 preserves it per shared row, fusing only the
    /// intermediate load/stores of `y[r]`, which IEEE-754 addition does not
    /// observe), and the shared rows (≥ supernode end) are disjoint from the
    /// intra-supernode rows phase 1 reads.
    fn replay_row_supernodal(
        &self,
        j: usize,
        values: &[f64],
        lvalues: &[f64],
        d: &[f64],
        y: &mut [f64],
        out: &mut [f64],
    ) -> f64 {
        for p in self.au_colptr[j]..self.au_colptr[j + 1] {
            y[self.au_rowind[p]] += values[self.aval_map[p]];
        }
        let mut dj = y[j];
        y[j] = 0.0;
        let lcolptr: &[usize] = &self.lcolptr;
        let lrowind: &[usize] = &self.lrowind;
        let mut yc = [0.0f64; SUPERNODE_MAX_WIDTH];
        let mut out = out.iter_mut();
        for s in self.seg_ptr[j]..self.seg_ptr[j + 1] {
            let c = self.seg_col[s];
            let w = self.seg_len[s];
            let s_end = self.sn_end_of_col[c];
            // Shared below-block rows of this supernode that precede row j:
            // the row set is identical for every column of the supernode, so
            // one count serves all `w` columns.
            let t = self.seg_t[s];
            // Phase 1: per-column intra-supernode updates, pivot contribution
            // and the L value — in scalar column order, so a later segment
            // column's `y` sees the earlier columns' updates exactly as the
            // scalar replay computes them.
            for ((q, yq), lji_out) in yc[..w].iter_mut().enumerate().zip(&mut out) {
                let i = c + q;
                let yi = y[i];
                y[i] = 0.0;
                *yq = yi;
                let p_start = lcolptr[i];
                let lead = s_end.min(j) - i - 1;
                for p in p_start..p_start + lead {
                    y[lrowind[p]] -= lvalues[p] * yi;
                }
                let lji = yi / d[i];
                dj -= lji * yi;
                *lji_out = lji;
            }
            // Phase 2: dense rank-`w` update of the shared rows. One pattern
            // lookup and one `y[r]` load/store per target row for the whole
            // segment; the inner subtraction order is column-ascending,
            // matching the scalar replay bit for bit.
            if t > 0 {
                let com0 = lcolptr[c] + (s_end - 1 - c);
                for idx in 0..t {
                    let r = lrowind[com0 + idx];
                    let mut v = y[r];
                    for (q, &yq) in yc[..w].iter().enumerate() {
                        let i = c + q;
                        v -= lvalues[lcolptr[i] + (s_end - 1 - i) + idx] * yq;
                    }
                    y[r] = v;
                }
            }
        }
        dj
    }

    /// The host refactorization both public entries share: rows in
    /// ascending order, each replayed into `staged` and committed before the
    /// next row reads it.
    fn refactor_host(
        &self,
        values: &[f64],
        opts: &LdlOptions,
        supernodal: bool,
    ) -> Result<LdlFactor, SparseError> {
        self.check_inputs(values, opts)?;
        let mut factor = Numeric {
            lvalues: vec![0.0; self.lrowind.len()],
            d: vec![0.0; self.n],
            num_regularized: 0,
        };
        let mut y = vec![0.0f64; self.n];
        // Row j reaches at most the j columns before it.
        let mut staged = vec![0.0f64; self.n];
        for j in 0..self.n {
            let out = &mut staged[..self.rp_ptr[j + 1] - self.rp_ptr[j]];
            let (lvalues, d) = (&factor.lvalues, &factor.d);
            let dj = if supernodal {
                self.replay_row_supernodal(j, values, lvalues, d, &mut y, out)
            } else {
                self.replay_row(j, values, lvalues, d, &mut y, out)
            };
            self.commit_row(j, dj, out, opts, &mut factor)?;
        }
        Ok(LdlFactor::from_parts(
            self.n,
            Arc::clone(&self.lcolptr),
            Arc::clone(&self.lrowind),
            factor.lvalues,
            factor.d,
            Arc::clone(&self.ordering),
            factor.num_regularized,
        ))
    }

    /// Numeric-only refactorization from a value slice aligned with the
    /// analyzed pattern (entry `k` of `values` is the value of the analyzed
    /// matrix's `k`-th stored entry), one column at a time. Bitwise identical
    /// to a fresh [`LdlFactor::factorize_with`] with the same ordering and
    /// options: the oracle [`Self::refactor_supernodal`] is pinned to, and
    /// the baseline `perf` times it against (`sparse.refactor_scalar_ms`).
    pub fn refactor(&self, values: &[f64], opts: &LdlOptions) -> Result<LdlFactor, SparseError> {
        self.refactor_host(values, opts, false)
    }

    /// The production refactorization: the same frozen pattern and `values`
    /// layout as [`Self::refactor`], replayed segment-wise with dense
    /// rank-`w` updates per supernode (`replay_row_supernodal`). Bitwise
    /// identical to [`Self::refactor`] and to a fresh
    /// [`LdlFactor::factorize_with`]; faster where supernodes are wide
    /// (1.1–1.2× on a 5 937-dim condensed KKT system, level at 877-dim).
    /// Allocates the factor's two value vectors, the `y` accumulator and one
    /// staging row — a constant four allocations, none per row.
    pub fn refactor_supernodal(
        &self,
        values: &[f64],
        opts: &LdlOptions,
    ) -> Result<LdlFactor, SparseError> {
        self.refactor_host(values, opts, true)
    }

    /// [`Self::refactor_supernodal`] from a whole matrix, validating that its
    /// pattern matches the analyzed one exactly.
    pub fn refactor_matrix(&self, a: &Csc, opts: &LdlOptions) -> Result<LdlFactor, SparseError> {
        self.check_same_pattern(a)?;
        self.refactor_supernodal(&a.values, opts)
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
    pub fn same_pattern(&self, a: &Csc) -> bool {
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

    #[test]
    fn refactor_matches_fresh_factorization_bitwise() {
        let a = kkt_example(1.0);
        let opts = kkt_opts();
        let ordering = Ordering::rcm(&a);
        let sym = LdlSymbolic::analyze(&a, ordering.clone()).unwrap();
        let fresh = LdlFactor::factorize_with(&a, ordering, &opts).unwrap();
        let re = sym.refactor_matrix(&a, &opts).unwrap();
        assert_eq!(factor_bits(&fresh), factor_bits(&re));
        // New values, same pattern: still bitwise identical to a fresh run.
        let b = kkt_example(3.5);
        let fresh_b = LdlFactor::factorize_with(&b, sym.ordering().clone(), &opts).unwrap();
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
        // Wrong-signed (2,2) pivot given the expected signs: the fresh path
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
        let fresh = LdlFactor::factorize_with(&a, sym.ordering().clone(), &opts).unwrap();
        let re = sym.refactor_matrix(&a, &opts).unwrap();
        let scalar = sym.refactor(&a.values, &opts).unwrap();
        assert!(fresh.num_regularized > 0);
        assert_eq!(factor_bits(&fresh), factor_bits(&re));
        assert_eq!(factor_bits(&fresh), factor_bits(&scalar));
    }

    #[test]
    fn supernodal_refactor_matches_scalar_bitwise() {
        for scale in [1.0, 3.5, -0.2] {
            let a = kkt_example(scale);
            let opts = kkt_opts();
            let sym = LdlSymbolic::analyze_rcm(&a).unwrap();
            let scalar = sym.refactor(&a.values, &opts).unwrap();
            let sn = sym.refactor_matrix(&a, &opts).unwrap();
            assert_eq!(factor_bits(&scalar), factor_bits(&sn));
        }
    }

    #[test]
    fn dense_pattern_collapses_into_one_supernode() {
        // A dense SPD matrix under the identity ordering: every column's
        // below-diagonal pattern nests into the next, so the whole matrix is
        // one supernode (up to the width cap) and the segmented replay runs
        // dense rank-w updates. Must still be bitwise identical to both the
        // scalar replay and a fresh factorization.
        let n = 12;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = if i == j {
                    n as f64 + 1.0
                } else {
                    1.0 / (1.0 + (i as f64 - j as f64).abs())
                };
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csc();
        let identity = Ordering::from_perm((0..n).collect());
        let sym = LdlSymbolic::analyze(&a, identity.clone()).unwrap();
        assert_eq!(sym.num_supernodes(), 1, "dense L should be one supernode");
        assert_eq!(sym.max_supernode_width(), n);
        assert_eq!(sym.num_levels(), n, "a dense etree is one chain");
        let opts = LdlOptions::default();
        let fresh = LdlFactor::factorize_with(&a, identity, &opts).unwrap();
        let scalar = sym.refactor(&a.values, &opts).unwrap();
        let sn = sym.refactor_supernodal(&a.values, &opts).unwrap();
        assert_eq!(factor_bits(&fresh), factor_bits(&scalar));
        assert_eq!(factor_bits(&fresh), factor_bits(&sn));
    }

    #[test]
    fn segment_lists_concatenate_to_the_scalar_replay_order() {
        let a = kkt_example(1.0);
        let sym = LdlSymbolic::analyze_rcm(&a).unwrap();
        for j in 0..sym.dim() {
            let mut flat = Vec::new();
            for s in sym.seg_ptr[j]..sym.seg_ptr[j + 1] {
                let c = sym.seg_col[s];
                let w = sym.seg_len[s];
                assert!(c + w <= sym.sn_end_of_col[c], "segment crosses supernode");
                flat.extend(c..c + w);
            }
            assert_eq!(flat, sym.rp_idx[sym.rp_ptr[j]..sym.rp_ptr[j + 1]]);
        }
        // The partition covers every column exactly once, widths within cap.
        let mut c = 0;
        let mut count = 0;
        while c < sym.dim() {
            let end = sym.sn_end_of_col[c];
            assert!(end > c && end - c <= SUPERNODE_MAX_WIDTH);
            for col in c..end {
                assert_eq!(sym.sn_end_of_col[col], end);
            }
            count += 1;
            c = end;
        }
        assert_eq!(count, sym.num_supernodes());
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
        // under the reversing permutation and is dropped — by the fresh
        // factorization and by the frozen analysis alike, so the replay must
        // still agree bitwise.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(0, 1, 0.5); // no (1, 0) partner
        let a = coo.to_csc();
        let rev = Ordering::from_perm(vec![1, 0]);
        let sym = LdlSymbolic::analyze(&a, rev.clone()).unwrap();
        let fresh = LdlFactor::factorize_with(&a, rev, &LdlOptions::default()).unwrap();
        let re = sym.refactor_matrix(&a, &LdlOptions::default()).unwrap();
        assert_eq!(factor_bits(&fresh), factor_bits(&re));
    }
}
