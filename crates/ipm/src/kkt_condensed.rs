//! Condensed-space KKT solves with frozen-pattern numeric refactorization.
//!
//! The augmented KKT system of [`crate::kkt`] carries four blocks of
//! unknowns: primal variables `Δx`, inequality slacks `Δs`, equality duals
//! `Δλ_E`, and inequality duals `Δλ_I`. The slack and inequality-dual blocks
//! couple through *diagonal* matrices only, so they can be eliminated in
//! closed form (Shin et al., arXiv:2307.16830 — the condensed-space
//! interior-point step that makes each Newton solve GPU-friendly). With
//! `D_s = Σ_s + δ_w` and `δ_c′` the regularized dual shift, the remaining
//! quasi-definite system over the variable block and the equality duals is
//!
//! ```text
//! [ H + Σ_x + δ_w I + J_Iᵀ C J_I    J_Eᵀ   ] [Δx  ]   [ b_x − J_Iᵀ w ]
//! [ J_E                             −δ_c′ I ] [Δλ_E] = [ b_E          ]
//!
//!   C = D_s / (1 + δ_c′ D_s)          (diagonal)
//!   w = (b_s − D_s b_I) / (1 + δ_c′ D_s)
//! ```
//!
//! of dimension `nx + m_eq` instead of `nx + 2 m_ineq + m_eq` — exactly the
//! `nx×nx` variable-block system when no equality constraints are present.
//! The eliminated blocks are recovered exactly:
//!
//! ```text
//! Δs   = (b_I + δ_c′ b_s − J_I Δx) / (1 + δ_c′ D_s)
//! Δλ_I = b_s − D_s Δs
//! ```
//!
//! Because the elimination is exact, the condensed step equals the step of
//! the full augmented system ([`crate::kkt::assemble_kkt`]) up to
//! floating-point roundoff. The tests hold it to that on small systems and
//! at real ACOPF iterates; the full system is the condensed step's
//! reference, not a solver path.
//!
//! The second half of the module is the *symbolic reuse* the condensed shape
//! unlocks. An [`Nlp`](crate::Nlp) declares the coordinates of its Jacobians
//! and Hessian once, independent of the iterate, so the condensed matrix has
//! one sparsity pattern for the whole solve: only values change with the
//! barrier, the multipliers and the inertia regularization δ_w.
//! [`KktCache::ensure_structure`] takes the declared structure once per
//! solve and freezes the pattern it implies (the diagonal, the Hessian, both
//! `J_E` blocks, every variable pair sharing an inequality row) in one pass:
//! the triplets go through one counting-sort compression
//! ([`gridsim_sparse::CscPattern::from_coordinates`]), which records the
//! slot every declared triplet lands in as it places it — slots are
//! recorded while the pattern is built, never located by search — and the
//! compressed pattern, already symmetric, sorted and duplicate-free, is the
//! graph the approximate minimum degree ordering reads
//! ([`gridsim_sparse::Ordering::amd_symmetric`]: the system is
//! quasi-definite, so any symmetric permutation factorizes without pivoting
//! and the ordering is free to minimise fill) before
//! [`gridsim_sparse::LdlSymbolic::analyze_pattern`] freezes the symbolic
//! factorization by counting sorts of its own. Every Newton step then writes
//! the model's values through those recorded slots into a reused buffer —
//! no search, no per-row grouping, no allocation that grows with the model —
//! and runs a numeric-only
//! [`gridsim_sparse::LdlSymbolic::refactor_dense_tail`] on the host, as the
//! paper's interior-point baseline does: the AMD-ordered condensed system
//! ends in a dense block (the last 90 of 877 columns on the `ipm_fleet`
//! stand-in) that carries most of the arithmetic, and that block is factored
//! right-looking while the sparse rows keep the up-looking replay. Each refactorization is billed to the solver's
//! [`gridsim_batch::DeviceStats`] stream as one launch of the kernel
//! `ldl_refactor_level` (blocks = rows, elapsed = the refactorization
//! alone), so a traced run still splits an IPM iteration into its
//! factorization and the model evaluation, assembly and triangular solves
//! around it. [`KktCache::symbolic_stats`] reports what was frozen.
//!
//! The frozen system is a pure function of one declared structure, built
//! once and never mutated: a [`KktCache`] holds it by `Arc` next to its own
//! numeric workspace (the value buffers), and resolves a structure its
//! frozen system does not describe through a registry of frozen systems
//! keyed by the declared coordinates. Warm-started re-solves of the same
//! network (rolling-horizon tracking) therefore cost one symbolic analysis
//! per trajectory, a cache that alternates structures analyses each of
//! them once, and the caches of an [`crate::IpmFleetSolver`]'s lanes share
//! the solver's registry, so a whole fleet pays one analysis per distinct
//! structure — and a solve's bits never depend on what its cache solved
//! before.

use crate::kkt::KktDims;
use gridsim_batch::DeviceStats;
use gridsim_sparse::{Coo, CscPattern, LdlFactor, LdlOptions, LdlSymbolic, Ordering, SparseError};
use std::sync::{Arc, Mutex, PoisonError};

/// The linear-algebra path of each Newton step. It has one value: the enum
/// and [`crate::IpmOptions::kkt_strategy`] remain only because the `perf`
/// benchmark names them, and go when that harness next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KktStrategy {
    /// Eliminate the slack and inequality-dual blocks to the condensed
    /// quasi-definite system and solve it with frozen-pattern numeric
    /// refactorization.
    #[default]
    Condensed,
}

/// A factorized condensed system whose triangular solve has not run yet, so
/// the inertia-correction loop can reject it (and escalate `δ_w`) without
/// paying the solve and the eliminated-block recovery.
#[derive(Debug, Clone)]
pub struct CondensedFactor {
    factor: LdlFactor,
    dims: KktDims,
    /// Diagonal elimination factors frozen at factorization time.
    ds: Vec<f64>,
    e: Vec<f64>,
    delta_cc: f64,
    /// Inertia `(positive, negative, zero)` of the condensed matrix.
    pub inertia: (usize, usize, usize),
    /// Pivots the regularized LDLᵀ had to bump.
    pub num_regularized: usize,
}

impl CondensedFactor {
    /// Solve for the full-layout Newton step `[Δx; Δs; Δλ_E; Δλ_I]`. `rhs`
    /// is the full augmented right-hand side `[b_x; b_s; b_E; b_I]` and
    /// `jac_ineq` is the declared inequality-Jacobian structure holding the
    /// values the factorization was assembled from.
    pub fn solve(&self, jac_ineq: &Coo, rhs: &[f64]) -> Vec<f64> {
        let dims = &self.dims;
        assert_eq!(rhs.len(), dims.dim(), "rhs must cover the full system");
        let nx = dims.nx;
        let m_eq = dims.m_eq;
        let m_ineq = dims.m_ineq;
        let nv = dims.nv();
        let ncond = nx + m_eq;

        // Condensed right-hand side.
        let b_x = &rhs[..nx];
        let b_s = &rhs[nx..nv];
        let b_e = &rhs[nv..nv + m_eq];
        let b_i = &rhs[nv + m_eq..];
        let mut rc = vec![0.0; ncond];
        rc[..nx].copy_from_slice(b_x);
        let w: Vec<f64> = (0..m_ineq)
            .map(|r| (b_s[r] - self.ds[r] * b_i[r]) / self.e[r])
            .collect();
        for t in 0..jac_ineq.nnz() {
            rc[jac_ineq.cols[t]] -= jac_ineq.vals[t] * w[jac_ineq.rows[t]];
        }
        rc[nx..].copy_from_slice(b_e);

        let xc = self.factor.solve(&rc);

        // Recover the eliminated blocks exactly.
        let dx = &xc[..nx];
        let dlambda_e = &xc[nx..];
        let mut jx = vec![0.0; m_ineq];
        for t in 0..jac_ineq.nnz() {
            jx[jac_ineq.rows[t]] += jac_ineq.vals[t] * dx[jac_ineq.cols[t]];
        }
        let mut step = vec![0.0; dims.dim()];
        step[..nx].copy_from_slice(dx);
        for r in 0..m_ineq {
            let dsr = (b_i[r] + self.delta_cc * b_s[r] - jx[r]) / self.e[r];
            step[nx + r] = dsr;
            step[nv + m_eq + r] = b_s[r] - self.ds[r] * dsr;
        }
        step[nv..nv + m_eq].copy_from_slice(dlambda_e);
        step
    }
}

/// The frozen condensed system of one declared derivative structure:
/// pattern, slot maps, and the reusable symbolic factorization. Built by
/// [`FrozenSystem::analyze`] from the structure alone and immutable after,
/// so every cache that declares the structure shares one by `Arc`.
#[derive(Debug)]
pub(crate) struct FrozenSystem {
    dims: KktDims,
    ncond: usize,
    /// Slot of every diagonal entry `(i, i)`.
    diag_slots: Vec<usize>,
    /// Symbolic analysis of the frozen pattern; [`LdlSymbolic::pattern`] is
    /// the single copy of the full-symmetric CSC structure the slots index.
    ldl: LdlSymbolic,
    /// Factorization options carrying the expected pivot signs (`+1` on the
    /// variable block, `−1` on the equality-dual block); a cache copies them
    /// when it adopts the system and overwrites the thresholds per call.
    opts: LdlOptions,
    /// Where the structure's declared triplets land in the pattern.
    slots: SlotMap,
}

/// The inequality Jacobian's triplets grouped by row, duplicates of a
/// coordinate merged into one *entry* and entries sorted by column within
/// their row: the layout `J_Iᵀ C J_I` is formed in. Duplicates must be
/// combined *before* the quadratic products — the full augmented system
/// sums them linearly during CSC conversion, and `(v₁+v₂)²` is not
/// `v₁² + v₁v₂ + v₂²`.
#[derive(Debug, Clone, PartialEq)]
struct IneqRows {
    /// Per triplet, its entry.
    entry: Vec<usize>,
    /// Entries of row `r`: `row_ptr[r]..row_ptr[r + 1]`.
    row_ptr: Vec<usize>,
    /// Column of every entry.
    cols: Vec<usize>,
}

impl IneqRows {
    /// One counting-sort compression of the triplets with the inequality
    /// row as the major index: the entries of each row come out ascending
    /// and merged, and each triplet's slot is its entry.
    fn group(jac_ineq: &Coo, dims: &KktDims) -> IneqRows {
        let transposed = |f: &mut dyn FnMut(usize, usize)| {
            (jac_ineq.cols.iter().zip(&jac_ineq.rows)).for_each(|(&c, &r)| f(c, r))
        };
        let (by_row, entry) = CscPattern::from_coordinates(dims.nx, dims.m_ineq, transposed);
        IneqRows {
            entry,
            row_ptr: by_row.colptr,
            cols: by_row.rowind,
        }
    }

    /// The columns of row `r`'s entries, ascending.
    fn row(&self, r: usize) -> &[usize] {
        &self.cols[self.row_ptr[r]..self.row_ptr[r + 1]]
    }
}

/// Where each declared triplet of one NLP's derivatives lands in the frozen
/// pattern, so that assembling the condensed matrix is one pass over the
/// values in declaration order. One vector holds the slots of the three
/// blocks one after another, as the analysis recorded them.
#[derive(Debug, Clone, PartialEq)]
struct SlotMap {
    slots: Vec<usize>,
    /// Where the `J_E` slots start in `slots`.
    jac_eq: usize,
    /// Where the `J_I` pair slots start in `slots`.
    ineq_pairs: usize,
    ineq: IneqRows,
}

impl SlotMap {
    /// One slot per Hessian triplet.
    fn hess(&self) -> &[usize] {
        &self.slots[..self.jac_eq]
    }

    /// Two slots per equality-Jacobian triplet `(r, c)`: `(nx + r, c)`, then
    /// `(c, nx + r)`.
    fn jac_eq(&self) -> &[usize] {
        &self.slots[self.jac_eq..self.ineq_pairs]
    }

    /// The slots `J_Iᵀ C J_I` adds into, in assembly order: per row, per
    /// entry `p`, the diagonal `(p, p)`, then `(p, q)` and `(q, p)` for every
    /// later entry `q` of the row.
    fn ineq_pairs(&self) -> &[usize] {
        &self.slots[self.ineq_pairs..]
    }

    /// Whether this map was recorded for exactly the declared coordinates:
    /// every Hessian and `J_E` slot holds its triplet's row and column, and
    /// every `J_I` triplet's entry its row and column. O(nnz), allocation
    /// free, and checking the recorded entries suffices: they were grouped
    /// strictly ascending with every entry used, so freezing the same
    /// coordinates again would record this very map.
    fn describes(
        &self,
        ldl: &LdlSymbolic,
        dims: &KktDims,
        hess: &Coo,
        jac_eq: &Coo,
        jac_ineq: &Coo,
    ) -> bool {
        let (colptr, rowind) = ldl.pattern();
        let holds = |k: usize, row: usize, col: usize| {
            col + 1 < colptr.len()
                && (colptr[col]..colptr[col + 1]).contains(&k)
                && rowind[k] == row
        };
        let (ineq, hess_slots, jac_eq_slots) = (&self.ineq, self.hess(), self.jac_eq());
        hess_slots.len() == hess.nnz()
            && jac_eq_slots.len() == 2 * jac_eq.nnz()
            && ineq.entry.len() == jac_ineq.nnz()
            && (0..hess.nnz()).all(|t| holds(hess_slots[t], hess.rows[t], hess.cols[t]))
            && (0..jac_eq.nnz()).all(|t| {
                let (r, c) = (dims.nx + jac_eq.rows[t], jac_eq.cols[t]);
                holds(jac_eq_slots[2 * t], r, c) && holds(jac_eq_slots[2 * t + 1], c, r)
            })
            && (0..jac_ineq.nnz()).all(|t| {
                let (e, r) = (ineq.entry[t], jac_ineq.rows[t]);
                r < dims.m_ineq
                    && (ineq.row_ptr[r]..ineq.row_ptr[r + 1]).contains(&e)
                    && ineq.cols[e] == jac_ineq.cols[t]
            })
    }
}

impl FrozenSystem {
    /// Freeze the pattern a declared structure implies (the diagonal, the
    /// Hessian, both `J_E` blocks, every variable pair sharing an inequality
    /// row), analyze it and keep where each declared triplet lands. One
    /// pass: the triplets are listed block by block and compressed by
    /// counting sort, which records each slot as it places the triplet, and
    /// the compressed pattern — symmetric, sorted and duplicate-free — is the
    /// graph the ordering reads. Nothing is sorted
    /// by comparison or searched. `None` when a declared coordinate lies
    /// outside its block, or when the Hessian breaks the [`Nlp`](crate::Nlp)
    /// contract by carrying an off-diagonal coordinate without its
    /// transpose.
    fn analyze(dims: &KktDims, hess: &Coo, jac_eq: &Coo, jac_ineq: &Coo) -> Option<FrozenSystem> {
        let nx = dims.nx;
        let in_block = |coo: &Coo, nrows: usize| {
            coo.rows.len() == coo.nnz()
                && coo.cols.len() == coo.nnz()
                && coo.rows.iter().all(|&r| r < nrows)
                && coo.cols.iter().all(|&c| c < nx)
        };
        if !(in_block(hess, nx) && in_block(jac_eq, dims.m_eq) && in_block(jac_ineq, dims.m_ineq)) {
            return None;
        }
        let ncond = nx + dims.m_eq;
        let ineq = IneqRows::group(jac_ineq, dims);
        // The triplets block by block: the Hessian, both `J_E` blocks,
        // `J_Iᵀ C J_I` (which couples every pair of variables sharing an
        // inequality row) in assembly order, then every diagonal entry
        // (barrier + regularization on the variable block, −δ_c′ on the
        // equality-dual block).
        let triplets = |f: &mut dyn FnMut(usize, usize)| {
            hess.rows
                .iter()
                .zip(&hess.cols)
                .for_each(|(&r, &c)| f(r, c));
            for (&r, &c) in jac_eq.rows.iter().zip(&jac_eq.cols) {
                f(nx + r, c);
                f(c, nx + r);
            }
            for r in 0..dims.m_ineq {
                let entries = ineq.row(r);
                for (p, &cp) in entries.iter().enumerate() {
                    f(cp, cp);
                    for &cq in &entries[p + 1..] {
                        f(cp, cq);
                        f(cq, cp);
                    }
                }
            }
            for i in 0..ncond {
                f(i, i);
            }
        };
        let (pattern, mut slots) = CscPattern::from_coordinates(ncond, ncond, triplets);
        if !hessian_has_both_triangles(&pattern, &slots[..hess.nnz()]) {
            return None;
        }
        let ordering = Ordering::amd_symmetric(&pattern);
        let ldl = LdlSymbolic::analyze_pattern(pattern, ordering).expect("the pattern is square");
        let diag_slots = slots.split_off(slots.len() - ncond);
        let slots = SlotMap {
            slots,
            jac_eq: hess.nnz(),
            ineq_pairs: hess.nnz() + 2 * jac_eq.nnz(),
            ineq,
        };
        Some(FrozenSystem::new(dims, diag_slots, ldl, slots))
    }

    /// A frozen system from its parts, with the pivot signs of `dims`.
    fn new(dims: &KktDims, diag_slots: Vec<usize>, ldl: LdlSymbolic, slots: SlotMap) -> Self {
        let mut expected_signs = vec![1i8; dims.nx];
        expected_signs.extend(std::iter::repeat_n(-1i8, dims.m_eq));
        FrozenSystem {
            dims: *dims,
            ncond: dims.nx + dims.m_eq,
            diag_slots,
            ldl,
            opts: LdlOptions {
                expected_signs,
                ..Default::default()
            },
            slots,
        }
    }

    /// Whether this system was frozen for exactly the declared structure.
    fn describes(&self, dims: &KktDims, hess: &Coo, jac_eq: &Coo, jac_ineq: &Coo) -> bool {
        self.dims == *dims
            && self
                .slots
                .describes(&self.ldl, dims, hess, jac_eq, jac_ineq)
    }

    /// The system's symbolic figures.
    pub(crate) fn stats(&self) -> SymbolicStats {
        SymbolicStats {
            dim: self.ncond,
            nnz: self.ldl.nnz(),
            lnz: self.ldl.lnz(),
            levels: self.ldl.num_levels(),
            supernodes: self.ldl.num_supernodes(),
            dense_tail: self.ncond - self.ldl.tail_start(),
        }
    }
}

/// The frozen systems every cache sharing the registry has resolved, one
/// per distinct declared structure, keyed by [`structure_hash`] and
/// confirmed coordinate by coordinate. It only ever appends immutable
/// `Arc`s, so a lane that panicked while holding the lock left nothing
/// half-written and the lock's poison is ignored.
#[derive(Debug, Default)]
pub(crate) struct FrozenRegistry {
    systems: Mutex<Vec<(u64, Arc<FrozenSystem>)>>,
}

impl FrozenRegistry {
    /// The frozen system of the declared structure, analyzed under the lock
    /// on first request so that each structure is analyzed exactly once,
    /// with whether this call analyzed it. `None` when `analyze` refuses
    /// the structure.
    fn resolve(
        &self,
        dims: &KktDims,
        hess: &Coo,
        jac_eq: &Coo,
        jac_ineq: &Coo,
        analyze: impl FnOnce(&KktDims, &Coo, &Coo, &Coo) -> Option<FrozenSystem>,
    ) -> Option<(Arc<FrozenSystem>, bool)> {
        let key = structure_hash(dims, hess, jac_eq, jac_ineq);
        let mut systems = self.systems.lock().unwrap_or_else(PoisonError::into_inner);
        let known = systems
            .iter()
            .find(|(k, s)| *k == key && s.describes(dims, hess, jac_eq, jac_ineq));
        if let Some((_, system)) = known {
            return Some((Arc::clone(system), false));
        }
        let system = Arc::new(analyze(dims, hess, jac_eq, jac_ineq)?);
        systems.push((key, Arc::clone(&system)));
        Some((system, true))
    }
}

/// Whether the Hessian carries both triangles — the pattern half of the
/// [`Nlp`](crate::Nlp) Hessian contract — given the frozen pattern and the
/// slots its triplets landed in: the pattern is symmetric (every other block
/// is by construction) and the Hessian's slots hold the transpose of each.
fn hessian_has_both_triangles(pattern: &CscPattern, hess_slots: &[usize]) -> bool {
    let mut in_hessian = vec![false; pattern.nnz()];
    for &k in hess_slots {
        in_hessian[k] = true;
    }
    pattern.is_symmetric_where(|k, transposed| in_hessian[k] == in_hessian[transposed])
}

/// FNV-1a over whole words of the dimensions and the declared coordinates
/// (each block prefixed by its triplet count).
fn structure_hash(dims: &KktDims, hess: &Coo, jac_eq: &Coo, jac_ineq: &Coo) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let coordinates = [hess, jac_eq, jac_ineq].into_iter().flat_map(|coo| {
        std::iter::once(coo.nnz())
            .chain(coo.rows.iter().copied())
            .chain(coo.cols.iter().copied())
    });
    [dims.nx, dims.m_eq, dims.m_ineq]
        .into_iter()
        .chain(coordinates)
        .fold(FNV_OFFSET, |h, w| (h ^ w as u64).wrapping_mul(FNV_PRIME))
}

/// Reusable condensed-KKT state: the shared frozen system of the structure
/// last declared, and the numeric workspace every Newton step assembles and
/// factorizes in. It survives across Newton iterations of one solve and
/// across warm-started re-solves (rolling-horizon tracking), so the
/// symbolic analysis is paid once per structure.
#[derive(Debug, Clone, Default)]
pub struct KktCache {
    /// The frozen system of the last structure [`Self::ensure_structure`]
    /// accepted; `None` before the first one and after a refusal.
    frozen: Option<Arc<FrozenSystem>>,
    /// Where a structure the frozen system does not describe is resolved:
    /// the cache's own registry, or the one its fleet solver shares.
    registry: Arc<FrozenRegistry>,
    symbolic_analyses: usize,
    numeric_refactorizations: usize,
    /// The frozen system's options with the thresholds of the latest
    /// factorization.
    opts: LdlOptions,
    /// The buffer the next Newton step assembles its values into.
    values: Vec<f64>,
    /// The inequality Jacobian's merged entry values of the step being
    /// assembled.
    ineq_values: Vec<f64>,
    /// The value slice of the most recent successful numeric
    /// refactorization (its options are `opts`), retained so
    /// [`Self::refactor_microbench`] can time the scalar replay against the
    /// production refactorization on a genuine production matrix. It trades
    /// places with `values` after every successful refactorization, so
    /// retention costs neither a copy nor an allocation.
    last_numeric: Option<Vec<f64>>,
}

/// The frozen condensed system's symbolic figures: what the numeric
/// refactorization of every Newton step costs is a function of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicStats {
    /// Dimension of the condensed system (`nx + m_eq`).
    pub dim: usize,
    /// Stored entries of the condensed pattern (both triangles).
    pub nnz: usize,
    /// Strictly-lower-triangular nonzeros of the frozen `L`.
    pub lnz: usize,
    /// Elimination-tree height: the longest chain of rows a
    /// refactorization must replay one after another.
    pub levels: usize,
    /// Supernodes the frozen `L` partitions into (a figure only).
    pub supernodes: usize,
    /// Columns in the dense tail of `L` (every row below the diagonal
    /// present), which each refactorization factors right-looking.
    pub dense_tail: usize,
}

/// Scalar-replay vs production refactorization timing on the last condensed
/// system a [`KktCache`] factorized — the measured delta `perf`'s
/// `sparse.refactor_ms` / `sparse.refactor_scalar_ms` probes record.
#[derive(Debug, Clone)]
pub struct RefactorMicrobench {
    /// Dimension of the condensed system.
    pub dim: usize,
    /// Supernodes the frozen `L` partitions into (equals `dim` when no
    /// columns group); a figure of the pattern, kept for `perf`.
    pub supernodes: usize,
    /// Total wall-clock of the timed scalar (up-looking) replays.
    pub scalar_time_s: f64,
    /// Total wall-clock of the timed production refactorizations,
    /// [`LdlSymbolic::refactor_dense_tail`] (same repeat count). The name
    /// predates that path; `perf` reads it as `sparse.refactor_ms`.
    pub supernodal_time_s: f64,
    /// Whether the two produced bit-identical factors (they must).
    pub bitwise_identical: bool,
}

impl RefactorMicrobench {
    /// Scalar time over production time (> 1 means the production
    /// refactorization is faster).
    pub fn speedup(&self) -> f64 {
        self.scalar_time_s / self.supernodal_time_s
    }
}

impl KktCache {
    /// An empty cache with a registry of its own (no analysis performed
    /// yet).
    pub fn new() -> KktCache {
        KktCache::default()
    }

    /// An empty cache that resolves structures through `registry`, shared
    /// with every other cache built on it.
    pub(crate) fn sharing(registry: Arc<FrozenRegistry>) -> KktCache {
        KktCache {
            registry,
            ..KktCache::default()
        }
    }

    /// Symbolic analyses performed through this cache so far: one per
    /// distinct structure it was the first to declare to its registry, so a
    /// cache reused across tracking periods pays one for the whole
    /// trajectory.
    pub fn symbolic_analyses(&self) -> usize {
        self.symbolic_analyses
    }

    /// Numeric-only refactorizations performed through this cache.
    pub fn numeric_refactorizations(&self) -> usize {
        self.numeric_refactorizations
    }

    /// Symbolic figures of the frozen condensed system of the structure
    /// last declared; `None` before the first one.
    pub fn symbolic_stats(&self) -> Option<SymbolicStats> {
        self.frozen.as_ref().map(|s| s.stats())
    }

    /// The frozen system of the last accepted structure.
    pub(crate) fn frozen(&self) -> Option<&Arc<FrozenSystem>> {
        self.frozen.as_ref()
    }

    /// Take an NLP's declared derivative structure — the triplet coordinates
    /// of its Hessian and both Jacobians, from
    /// [`Nlp::hessian_structure`](crate::Nlp::hessian_structure) and the
    /// Jacobian counterparts; values are ignored — and adopt the frozen
    /// system that records where each triplet lands in the pattern. Call
    /// once per solve, before the first [`Self::factorize_condensed`]. The
    /// held system is kept when it already describes the structure (the next
    /// solve of a lane); otherwise the registry supplies the one frozen for
    /// these coordinates, analyzing it — one symbolic analysis — only if no
    /// cache sharing the registry has declared them before. The analysis
    /// records each triplet's slot while it builds the pattern, by counting
    /// sort; nothing is searched.
    ///
    /// Returns `false`, leaving the cache without a system, when a declared
    /// coordinate lies outside its block (a Hessian or Jacobian column at or
    /// past `nx`, a `J_E` row at or past `m_eq`, a `J_I` row at or past
    /// `m_ineq`), or when the Hessian breaks the [`Nlp`](crate::Nlp) contract
    /// by carrying an off-diagonal coordinate without its transpose. Every
    /// registered structure has passed both checks, so a re-declared one
    /// skips them.
    #[must_use]
    pub fn ensure_structure(
        &mut self,
        dims: &KktDims,
        hess: &Coo,
        jac_eq: &Coo,
        jac_ineq: &Coo,
    ) -> bool {
        self.ensure_structure_with(dims, hess, jac_eq, jac_ineq, FrozenSystem::analyze)
    }

    /// [`Self::ensure_structure`] with the analysis as a parameter, so the
    /// tests can freeze the same structure through the search-based
    /// pipeline the one-pass analysis replaced, under RCM — what every cache
    /// did before the fill-reducing ordering — as well as AMD: the oracles
    /// of the analysis and of the solver's independence of the ordering.
    fn ensure_structure_with(
        &mut self,
        dims: &KktDims,
        hess: &Coo,
        jac_eq: &Coo,
        jac_ineq: &Coo,
        analyze: impl FnOnce(&KktDims, &Coo, &Coo, &Coo) -> Option<FrozenSystem>,
    ) -> bool {
        assert_eq!(dims.ns, dims.m_ineq, "one slack per inequality");
        if let Some(s) = &self.frozen {
            if s.describes(dims, hess, jac_eq, jac_ineq) {
                return true;
            }
        }
        let Some((system, analyzed)) = self.registry.resolve(dims, hess, jac_eq, jac_ineq, analyze)
        else {
            self.frozen = None;
            return false;
        };
        self.symbolic_analyses += usize::from(analyzed);
        self.opts = system.opts.clone();
        self.frozen = Some(system);
        // The retained values belong to the system just replaced.
        self.last_numeric = None;
        true
    }

    /// Factorize the condensed system for the given iteration data: the
    /// Hessian and Jacobian values aligned with the structure last passed to
    /// [`Self::ensure_structure`], and the barrier diagonal `sigma` over
    /// `[x; s]`. The triangular solve is deferred to
    /// [`CondensedFactor::solve`] so an inertia rejection costs only the
    /// (numeric-only) refactorization, which `stats` is billed for as one
    /// `ldl_refactor_level` launch over `nx + m_eq` blocks, whether or not
    /// it breaks down.
    #[allow(clippy::too_many_arguments)]
    pub fn factorize_condensed(
        &mut self,
        stats: &DeviceStats,
        hess: &[f64],
        sigma: &[f64],
        jac_eq: &[f64],
        jac_ineq: &[f64],
        delta_w: f64,
        delta_c: f64,
        pivot_tol: f64,
        pivot_reg: f64,
    ) -> Result<CondensedFactor, SparseError> {
        let s = self
            .frozen
            .as_deref()
            .expect("ensure_structure declares the derivative structure first");
        let dims = s.dims;
        assert_eq!(sigma.len(), dims.nv(), "sigma must cover x and s blocks");
        let delta_cc = delta_c.max(1e-12);
        let nx = dims.nx;

        // Per-inequality diagonal elimination factors.
        let ds: Vec<f64> = (0..dims.m_ineq).map(|r| sigma[nx + r] + delta_w).collect();
        let e: Vec<f64> = ds.iter().map(|d| 1.0 + delta_cc * d).collect();

        s.assemble(
            &mut self.values,
            &mut self.ineq_values,
            hess,
            sigma,
            jac_eq,
            jac_ineq,
            &ds,
            &e,
            delta_w,
            delta_cc,
        );

        // Numeric-only refactorization over the frozen pattern.
        self.opts.pivot_tol = pivot_tol;
        self.opts.pivot_reg = pivot_reg;
        let start = std::time::Instant::now();
        let factor = s.ldl.refactor_dense_tail(&self.values, &self.opts);
        stats.record_launch("ldl_refactor_level", s.ncond as u64, start.elapsed());
        let factor = factor?;
        self.numeric_refactorizations += 1;
        let factorized = std::mem::take(&mut self.values);
        self.values = self.last_numeric.replace(factorized).unwrap_or_default();
        let inertia = factor.inertia();
        let num_regularized = factor.num_regularized;
        Ok(CondensedFactor {
            factor,
            dims,
            ds,
            e,
            delta_cc,
            inertia,
            num_regularized,
        })
    }

    /// Time the scalar replay vs the production refactorization on the most
    /// recently factorized condensed system, `repeats` refactorizations
    /// each, and verify the two produce bit-identical factors. Returns
    /// `None` before the first factorization.
    pub fn refactor_microbench(&self, repeats: usize) -> Option<RefactorMicrobench> {
        let s = self.frozen.as_ref()?;
        let vals = self.last_numeric.as_ref()?;
        let opts = &self.opts;
        let scalar = s.ldl.refactor(vals, opts).ok()?;
        let production = s.ldl.refactor_dense_tail(vals, opts).ok()?;
        let bitwise_identical = factor_bits(&scalar) == factor_bits(&production);
        let start = std::time::Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(s.ldl.refactor(vals, opts).ok()?);
        }
        let scalar_time_s = start.elapsed().as_secs_f64();
        let start = std::time::Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(s.ldl.refactor_dense_tail(vals, opts).ok()?);
        }
        let supernodal_time_s = start.elapsed().as_secs_f64();
        Some(RefactorMicrobench {
            dim: s.ncond,
            supernodes: s.ldl.num_supernodes(),
            scalar_time_s,
            supernodal_time_s,
            bitwise_identical,
        })
    }
}

impl FrozenSystem {
    /// Write the condensed matrix's values into `out` (sized to the
    /// pattern) through the recorded slots, adding the contributions in the
    /// order the triplets were declared: the Hessian, the barrier diagonal,
    /// both `J_E` blocks, the dual regularization, then `J_Iᵀ C J_I` one
    /// inequality row at a time, each pair written symmetrically with the
    /// same product so the matrix is exactly symmetric.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        out: &mut Vec<f64>,
        ineq_values: &mut Vec<f64>,
        hess: &[f64],
        sigma: &[f64],
        jac_eq: &[f64],
        jac_ineq: &[f64],
        ds: &[f64],
        e: &[f64],
        delta_w: f64,
        delta_cc: f64,
    ) {
        let slots = &self.slots;
        let ineq = &slots.ineq;
        let (hess_slots, jac_eq_slots, ineq_pairs) =
            (slots.hess(), slots.jac_eq(), slots.ineq_pairs());
        assert_eq!(
            hess.len(),
            hess_slots.len(),
            "one value per Hessian triplet"
        );
        assert_eq!(
            2 * jac_eq.len(),
            jac_eq_slots.len(),
            "one value per J_E triplet"
        );
        assert_eq!(
            jac_ineq.len(),
            ineq.entry.len(),
            "one value per J_I triplet"
        );
        let nx = self.dims.nx;
        out.clear();
        out.resize(self.ldl.nnz(), 0.0);
        for (&k, &v) in hess_slots.iter().zip(hess) {
            out[k] += v;
        }
        for (&k, &sig) in self.diag_slots.iter().zip(&sigma[..nx]) {
            out[k] += sig + delta_w;
        }
        for (pair, &v) in jac_eq_slots.chunks_exact(2).zip(jac_eq) {
            out[pair[0]] += v;
            out[pair[1]] += v;
        }
        for &k in &self.diag_slots[nx..] {
            out[k] += -delta_cc;
        }
        // Duplicates sum in declaration order.
        ineq_values.clear();
        ineq_values.resize(ineq.cols.len(), 0.0);
        for (&entry, &v) in ineq.entry.iter().zip(jac_ineq) {
            ineq_values[entry] += v;
        }
        let mut k = 0;
        for r in 0..self.dims.m_ineq {
            let c_r = ds[r] / e[r];
            let row = &ineq_values[ineq.row_ptr[r]..ineq.row_ptr[r + 1]];
            for (p, &vp) in row.iter().enumerate() {
                out[ineq_pairs[k]] += (vp * c_r) * vp;
                k += 1;
                for &vq in &row[p + 1..] {
                    let v = (vp * c_r) * vq;
                    out[ineq_pairs[k]] += v;
                    out[ineq_pairs[k + 1]] += v;
                    k += 2;
                }
            }
        }
    }
}

/// The bit patterns of a factor's `L` and `D` values, for exact comparison.
fn factor_bits(f: &LdlFactor) -> Vec<u64> {
    f.l_values()
        .iter()
        .chain(f.d_values())
        .map(|v| v.to_bits())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kkt::assemble_kkt;
    use gridsim_batch::Device;
    use gridsim_sparse::Csc;

    /// The parent's pipeline, kept as the oracle of the one-pass
    /// [`FrozenSystem::analyze`]: the triplets through `Csc::from_triplets`,
    /// the diagonal binary-searched, `analyze` run on the value-carrying
    /// matrix, and every declared triplet located by binary search.
    impl FrozenSystem {
        fn analyze_by_search(
            dims: &KktDims,
            hess: &Coo,
            jac_eq: &Coo,
            jac_ineq: &Coo,
            analyze: fn(&Csc) -> Result<LdlSymbolic, SparseError>,
        ) -> Option<FrozenSystem> {
            if !both_triangles_by_search(hess) {
                return None;
            }
            let ncond = dims.nx + dims.m_eq;
            let mut rows = Vec::new();
            let mut cols = Vec::new();
            // Every diagonal entry exists (barrier + regularization on the
            // variable block, −δ_c′ on the equality-dual block).
            for i in 0..ncond {
                rows.push(i);
                cols.push(i);
            }
            for t in 0..hess.nnz() {
                rows.push(hess.rows[t]);
                cols.push(hess.cols[t]);
            }
            for t in 0..jac_eq.nnz() {
                let (r, c) = (dims.nx + jac_eq.rows[t], jac_eq.cols[t]);
                rows.push(r);
                cols.push(c);
                rows.push(c);
                cols.push(r);
            }
            // J_Iᵀ C J_I couples every pair of variables that share an
            // inequality row.
            let ineq = IneqRows::group_by_sort(jac_ineq, dims.m_ineq);
            for r in 0..dims.m_ineq {
                for &cp in ineq.row(r) {
                    for &cq in ineq.row(r) {
                        rows.push(cp);
                        cols.push(cq);
                    }
                }
            }
            let vals = vec![0.0; rows.len()];
            let pattern = Csc::from_triplets(ncond, ncond, &rows, &cols, &vals);
            let diag_slots: Vec<usize> = (0..ncond)
                .map(|i| slot(&pattern.colptr, &pattern.rowind, i, i).expect("diagonal in pattern"))
                .collect();
            let ldl = analyze(&pattern).expect("condensed pattern analyzes");
            let slots = SlotMap::locate(&ldl, dims, hess, jac_eq, jac_ineq)
                .expect("the pattern covers the structure it was built from");
            Some(FrozenSystem::new(dims, diag_slots, ldl, slots))
        }
    }

    /// The Hessian check the transposed slots replaced: the off-diagonal
    /// coordinates sorted, each transpose binary-searched.
    fn both_triangles_by_search(hess: &Coo) -> bool {
        let mut off_diagonal: Vec<(usize, usize)> = (0..hess.nnz())
            .map(|t| (hess.rows[t], hess.cols[t]))
            .filter(|(r, c)| r != c)
            .collect();
        off_diagonal.sort_unstable();
        off_diagonal.dedup();
        off_diagonal
            .iter()
            .all(|&(r, c)| off_diagonal.binary_search(&(c, r)).is_ok())
    }

    impl IneqRows {
        /// The grouping the counting sort replaced: the triplets sorted by
        /// `(row, column)`.
        fn group_by_sort(jac_ineq: &Coo, m_ineq: usize) -> IneqRows {
            let nnz = jac_ineq.nnz();
            let mut order: Vec<usize> = (0..nnz).collect();
            order.sort_by_key(|&t| (jac_ineq.rows[t], jac_ineq.cols[t]));
            let mut grouped = IneqRows {
                entry: vec![0; nnz],
                row_ptr: vec![0; m_ineq + 1],
                cols: Vec::with_capacity(nnz),
            };
            let mut last = None;
            for t in order {
                let coordinate = (jac_ineq.rows[t], jac_ineq.cols[t]);
                if last != Some(coordinate) {
                    grouped.cols.push(coordinate.1);
                    grouped.row_ptr[coordinate.0 + 1] += 1;
                    last = Some(coordinate);
                }
                grouped.entry[t] = grouped.cols.len() - 1;
            }
            for r in 0..m_ineq {
                grouped.row_ptr[r + 1] += grouped.row_ptr[r];
            }
            grouped
        }
    }

    impl SlotMap {
        /// Locate every declared triplet in the pattern by binary search;
        /// `None` when one falls outside it.
        fn locate(
            ldl: &LdlSymbolic,
            dims: &KktDims,
            hess: &Coo,
            jac_eq: &Coo,
            jac_ineq: &Coo,
        ) -> Option<SlotMap> {
            let (colptr, rowind) = ldl.pattern();
            let at = |row: usize, col: usize| slot(colptr, rowind, row, col);
            let hess_slots = (0..hess.nnz())
                .map(|t| at(hess.rows[t], hess.cols[t]))
                .collect::<Option<Vec<usize>>>()?;
            let mut jac_eq_slots = Vec::with_capacity(2 * jac_eq.nnz());
            for t in 0..jac_eq.nnz() {
                let (r, c) = (dims.nx + jac_eq.rows[t], jac_eq.cols[t]);
                jac_eq_slots.push(at(r, c)?);
                jac_eq_slots.push(at(c, r)?);
            }
            let ineq = IneqRows::group_by_sort(jac_ineq, dims.m_ineq);
            let mut ineq_pairs = Vec::new();
            for r in 0..dims.m_ineq {
                let cols = ineq.row(r);
                for (p, &cp) in cols.iter().enumerate() {
                    ineq_pairs.push(at(cp, cp)?);
                    for &cq in &cols[p + 1..] {
                        ineq_pairs.push(at(cp, cq)?);
                        ineq_pairs.push(at(cq, cp)?);
                    }
                }
            }
            Some(SlotMap {
                jac_eq: hess_slots.len(),
                ineq_pairs: hess_slots.len() + jac_eq_slots.len(),
                slots: [hess_slots, jac_eq_slots, ineq_pairs].concat(),
                ineq,
            })
        }
    }

    /// Position of entry `(row, col)` in a CSC pattern, if present.
    fn slot(colptr: &[usize], rowind: &[usize], row: usize, col: usize) -> Option<usize> {
        if col + 1 >= colptr.len() {
            return None;
        }
        let lo = colptr[col];
        let hi = colptr[col + 1];
        rowind[lo..hi].binary_search(&row).ok().map(|off| lo + off)
    }

    /// A small slacked problem: nx = 3, one equality, two inequalities.
    fn small_dims() -> KktDims {
        KktDims {
            nx: 3,
            ns: 2,
            m_eq: 1,
            m_ineq: 2,
        }
    }

    fn small_problem() -> (Coo, Vec<f64>, Coo, Coo) {
        let mut hess = Coo::new(3, 3);
        hess.push(0, 0, 4.0);
        hess.push(1, 1, 3.0);
        hess.push(2, 2, 5.0);
        hess.push(0, 1, 0.5);
        hess.push(1, 0, 0.5);
        let sigma = vec![0.3, 0.2, 0.1, 0.7, 0.9];
        let mut jac_eq = Coo::new(1, 3);
        jac_eq.push(0, 0, 1.0);
        jac_eq.push(0, 2, -1.0);
        let mut jac_ineq = Coo::new(2, 3);
        jac_ineq.push(0, 0, 2.0);
        jac_ineq.push(0, 1, -1.0);
        jac_ineq.push(1, 1, 1.5);
        jac_ineq.push(1, 2, 0.4);
        (hess, sigma, jac_eq, jac_ineq)
    }

    /// Declare the structure, factorize with the solver's pivot thresholds
    /// and solve for the full-layout Newton step.
    #[allow(clippy::too_many_arguments)]
    fn newton_step(
        cache: &mut KktCache,
        dims: &KktDims,
        hess: &Coo,
        sigma: &[f64],
        jac_eq: &Coo,
        jac_ineq: &Coo,
        delta_w: f64,
        delta_c: f64,
        rhs: &[f64],
    ) -> (CondensedFactor, Vec<f64>) {
        assert!(cache.ensure_structure(dims, hess, jac_eq, jac_ineq));
        let factor = cache
            .factorize_condensed(
                &DeviceStats::default(),
                &hess.vals,
                sigma,
                &jac_eq.vals,
                &jac_ineq.vals,
                delta_w,
                delta_c,
                1e-13,
                1e-9,
            )
            .unwrap();
        let step = factor.solve(jac_ineq, rhs);
        (factor, step)
    }

    impl KktCache {
        /// The assembly the slots replaced, kept as their oracle: every
        /// triplet binary-searched into the frozen pattern, the inequality
        /// Jacobian regrouped by row on every call. `None` when a coordinate
        /// falls outside the pattern.
        #[allow(clippy::too_many_arguments)]
        fn scatter(
            &self,
            hess: &Coo,
            sigma: &[f64],
            jac_eq: &Coo,
            jac_ineq: &Coo,
            delta_w: f64,
            delta_c: f64,
        ) -> Option<Vec<f64>> {
            let s = self.frozen.as_deref()?;
            let nx = s.dims.nx;
            let delta_cc = delta_c.max(1e-12);
            let (colptr, rowind) = s.ldl.pattern();
            let mut vals = vec![0.0; s.ldl.nnz()];
            for t in 0..hess.nnz() {
                let k = slot(colptr, rowind, hess.rows[t], hess.cols[t])?;
                vals[k] += hess.vals[t];
            }
            for (i, &sig) in sigma.iter().enumerate().take(nx) {
                vals[s.diag_slots[i]] += sig + delta_w;
            }
            for t in 0..jac_eq.nnz() {
                let (r, c) = (nx + jac_eq.rows[t], jac_eq.cols[t]);
                vals[slot(colptr, rowind, r, c)?] += jac_eq.vals[t];
                vals[slot(colptr, rowind, c, r)?] += jac_eq.vals[t];
            }
            for i in 0..s.dims.m_eq {
                vals[s.diag_slots[nx + i]] += -delta_cc;
            }
            for (r, entries) in group_by_row(jac_ineq, s.dims.m_ineq).iter().enumerate() {
                let d = sigma[nx + r] + delta_w;
                let c_r = d / (1.0 + delta_cc * d);
                for (p, &(cp, vp)) in entries.iter().enumerate() {
                    for &(cq, vq) in &entries[p..] {
                        let v = (vp * c_r) * vq;
                        vals[slot(colptr, rowind, cp, cq)?] += v;
                        if cp != cq {
                            vals[slot(colptr, rowind, cq, cp)?] += v;
                        }
                    }
                }
            }
            Some(vals)
        }
    }

    /// Group a COO matrix's entries by row, summing duplicate columns
    /// within a row and sorting by column.
    fn group_by_row(a: &Coo, nrows: usize) -> Vec<Vec<(usize, f64)>> {
        let mut by_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nrows];
        for t in 0..a.nnz() {
            by_row[a.rows[t]].push((a.cols[t], a.vals[t]));
        }
        for entries in &mut by_row {
            entries.sort_by_key(|&(c, _)| c);
            entries.dedup_by(|next, kept| {
                if next.0 == kept.0 {
                    kept.1 += next.1;
                    true
                } else {
                    false
                }
            });
        }
        by_row
    }

    /// The triplets of `coo` whose value is not zero: what the model
    /// callbacks handed the assembly while they still pruned.
    fn pruned(coo: &Coo) -> Coo {
        let mut out = Coo::new(coo.nrows, coo.ncols);
        for t in (0..coo.nnz()).filter(|&t| coo.vals[t] != 0.0) {
            out.push(coo.rows[t], coo.cols[t], coo.vals[t]);
        }
        out
    }

    /// The bits of the values the last successful factorization assembled.
    fn gathered_bits(cache: &KktCache) -> Vec<u64> {
        let vals = cache.last_numeric.as_ref().expect("a factorization ran");
        vals.iter().map(|v| v.to_bits()).collect()
    }

    fn bits(vals: &[f64]) -> Vec<u64> {
        vals.iter().map(|v| v.to_bits()).collect()
    }

    /// One real ACOPF Newton system: the model's matrices at an iterate of
    /// a solve cut short after `max_iter` iterations.
    struct AcopfIterate {
        dims: KktDims,
        hess: Coo,
        sigma: Vec<f64>,
        jac_eq: Coo,
        jac_ineq: Coo,
    }

    /// The Hessian at the cut-short solve's multipliers, and the barrier
    /// diagonal from its bound multipliers, with each slack re-derived as
    /// `max(−c_I(x), 10⁻²)`.
    fn acopf_iterate(net: &gridsim_grid::network::Network, max_iter: usize) -> AcopfIterate {
        use crate::nlp::Nlp;
        let nlp = crate::AcopfNlp::new(net);
        let dims = KktDims {
            nx: nlp.num_vars(),
            ns: nlp.num_ineq(),
            m_eq: nlp.num_eq(),
            m_ineq: nlp.num_ineq(),
        };
        let report = crate::IpmSolver::new(crate::IpmOptions {
            max_iter,
            ..Default::default()
        })
        .solve(&nlp);
        let x = &report.x;
        let mut ci = vec![0.0; dims.m_ineq];
        nlp.ineq_constraints(x, &mut ci);
        let v: Vec<f64> = x
            .iter()
            .copied()
            .chain(ci.iter().map(|c| (-c).max(1e-2)))
            .collect();
        let (mut lower, mut upper) = nlp.bounds();
        lower.extend(std::iter::repeat_n(0.0, dims.m_ineq));
        upper.extend(std::iter::repeat_n(f64::INFINITY, dims.m_ineq));
        let sigma: Vec<f64> = (0..dims.nv())
            .map(|i| {
                let mut s = 0.0;
                if lower[i].is_finite() {
                    s += report.zl[i] / (v[i] - lower[i]);
                }
                if upper[i].is_finite() {
                    s += report.zu[i] / (upper[i] - v[i]);
                }
                s
            })
            .collect();
        assert!(sigma.iter().all(|s| s.is_finite() && *s >= 0.0));
        AcopfIterate {
            dims,
            hess: nlp.lagrangian_hessian(x, 1.0, &report.lambda_eq, &report.lambda_ineq),
            sigma,
            jac_eq: nlp.eq_jacobian(x),
            jac_ineq: nlp.ineq_jacobian(x),
        }
    }

    #[test]
    fn condensed_step_matches_full_kkt_solve() {
        let dims = small_dims();
        let (hess, sigma, jac_eq, jac_ineq) = small_problem();
        let (delta_w, delta_c) = (1e-6, 1e-8);
        let rhs: Vec<f64> = (0..dims.dim()).map(|i| (i as f64 * 0.7).sin()).collect();

        let kkt = assemble_kkt(&dims, &hess, &sigma, &jac_eq, &jac_ineq, delta_w, delta_c);
        let opts = LdlOptions {
            expected_signs: dims.expected_signs(),
            pivot_tol: 1e-13,
            pivot_reg: 1e-9,
        };
        let full = LdlFactor::factorize_rcm(&kkt, &opts).unwrap().solve(&rhs);

        let mut cache = KktCache::new();
        let (cond, step) = newton_step(
            &mut cache, &dims, &hess, &sigma, &jac_eq, &jac_ineq, delta_w, delta_c, &rhs,
        );
        let scale = full.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (a, b) in full.iter().zip(&step) {
            assert!(
                (a - b).abs() < 1e-9 * scale,
                "full {a} vs condensed {b} (scale {scale})"
            );
        }
        // Expected inertia of the condensed system: (nx, m_eq, 0).
        assert_eq!(cond.inertia, (3, 1, 0));
        assert_eq!(cond.num_regularized, 0);
        assert_eq!(cache.symbolic_analyses(), 1);
        assert_eq!(cache.numeric_refactorizations(), 1);
    }

    #[test]
    fn repeated_solves_reuse_one_symbolic_analysis() {
        let dims = small_dims();
        let (hess, sigma, jac_eq, jac_ineq) = small_problem();
        let mut cache = KktCache::new();
        let rhs = vec![1.0; dims.dim()];
        for k in 0..5 {
            let delta_w = 1e-8 * (k as f64 + 1.0);
            newton_step(
                &mut cache, &dims, &hess, &sigma, &jac_eq, &jac_ineq, delta_w, 1e-8, &rhs,
            );
        }
        assert_eq!(cache.symbolic_analyses(), 1);
        assert_eq!(cache.numeric_refactorizations(), 5);
    }

    /// A lane's next solve declares the structure the cache already holds:
    /// the frozen system passes the in-place check and is kept — its slots
    /// the very map locating the structure again would build. The same
    /// triplets declared in another order are another structure: analyzed on
    /// first declaration, found in the registry ever after.
    #[test]
    fn a_redeclared_structure_keeps_its_frozen_system() {
        use crate::nlp::Nlp;
        let net = gridsim_grid::cases::case14().compile().unwrap();
        let nlp = crate::AcopfNlp::new(&net);
        let dims = KktDims {
            nx: nlp.num_vars(),
            ns: nlp.num_ineq(),
            m_eq: nlp.num_eq(),
            m_ineq: nlp.num_ineq(),
        };
        let hess = nlp.hessian_structure();
        let jac_eq = nlp.eq_jacobian_structure();
        let jac_ineq = nlp.ineq_jacobian_structure();
        let mut cache = KktCache::new();
        assert!(cache.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq));
        let first = Arc::clone(cache.frozen().unwrap());
        let located = SlotMap::locate(&first.ldl, &dims, &hess, &jac_eq, &jac_ineq);
        assert_eq!(located.as_ref(), Some(&first.slots));
        assert!(cache.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq));
        assert!(Arc::ptr_eq(cache.frozen().unwrap(), &first));

        let reversed = |coo: &Coo| {
            let mut out = Coo::new(coo.nrows, coo.ncols);
            for t in (0..coo.nnz()).rev() {
                out.push(coo.rows[t], coo.cols[t], coo.vals[t]);
            }
            out
        };
        let (rh, re, ri) = (reversed(&hess), reversed(&jac_eq), reversed(&jac_ineq));
        for (h, e, i) in [
            (&rh, &jac_eq, &jac_ineq),
            (&hess, &re, &jac_ineq),
            (&hess, &jac_eq, &ri),
        ] {
            assert!(!first.describes(&dims, h, e, i));
        }
        assert!(cache.ensure_structure(&dims, &rh, &re, &ri));
        let second = Arc::clone(cache.frozen().unwrap());
        assert!(second.describes(&dims, &rh, &re, &ri));
        assert_eq!(cache.symbolic_analyses(), 2);
        for (h, e, i, system) in [
            (&hess, &jac_eq, &jac_ineq, &first),
            (&rh, &re, &ri, &second),
        ] {
            assert!(cache.ensure_structure(&dims, h, e, i));
            assert!(Arc::ptr_eq(cache.frozen().unwrap(), system));
        }
        assert_eq!(cache.symbolic_analyses(), 2);

        // The upper triangle of the same Hessian breaks the `Nlp` contract:
        // refused, leaving the cache without a system, and the structure
        // declared next is found in the registry.
        let mut upper = Coo::new(hess.nrows, hess.ncols);
        for t in (0..hess.nnz()).filter(|&t| hess.rows[t] <= hess.cols[t]) {
            upper.push(hess.rows[t], hess.cols[t], 0.0);
        }
        assert!(!cache.ensure_structure(&dims, &upper, &re, &ri));
        assert!(cache.frozen().is_none());
        assert!(cache.ensure_structure(&dims, &rh, &re, &ri));
        assert!(Arc::ptr_eq(cache.frozen().unwrap(), &second));
        assert_eq!(cache.symbolic_analyses(), 2);
    }

    /// A cache's answer does not depend on what it solved before: structure
    /// A, then B (A's Hessian plus a (0,2)/(2,0) coupling no inequality row
    /// shares), then A again, all from the same values. Each structure is
    /// analyzed once, and both A solves factorize and step to the same bits
    /// — which a union of both patterns, reordering A, would not.
    #[test]
    fn a_structure_solves_to_the_same_bits_whatever_came_before() {
        let dims = small_dims();
        let (hess, sigma, jac_eq, jac_ineq) = small_problem();
        let mut coupled = hess.clone();
        coupled.push(0, 2, 0.25);
        coupled.push(2, 0, 0.25);
        let rhs: Vec<f64> = (0..dims.dim()).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut cache = KktCache::new();
        let mut solve = |hess: &Coo| {
            let (factor, step) = newton_step(
                &mut cache, &dims, hess, &sigma, &jac_eq, &jac_ineq, 1e-6, 1e-8, &rhs,
            );
            (factor_bits(&factor.factor), bits(&step))
        };
        let first = solve(&hess);
        solve(&coupled);
        assert_eq!(solve(&hess), first);
        assert_eq!(cache.symbolic_analyses(), 2);
    }

    /// Caches sharing a registry share its frozen systems: the second to
    /// declare a structure adopts the first one's system without an
    /// analysis, and a one-triangle Hessian of the same dimensions is still
    /// refused while the registry holds a valid structure.
    #[test]
    fn caches_sharing_a_registry_analyze_each_structure_once() {
        let dims = small_dims();
        let (hess, _, jac_eq, jac_ineq) = small_problem();
        let registry = Arc::new(FrozenRegistry::default());
        let mut a = KktCache::sharing(Arc::clone(&registry));
        let mut b = KktCache::sharing(Arc::clone(&registry));
        assert!(a.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq));
        assert!(b.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq));
        assert!(Arc::ptr_eq(a.frozen().unwrap(), b.frozen().unwrap()));
        assert_eq!((a.symbolic_analyses(), b.symbolic_analyses()), (1, 0));

        let mut upper = Coo::new(hess.nrows, hess.ncols);
        for t in (0..hess.nnz()).filter(|&t| hess.rows[t] <= hess.cols[t]) {
            upper.push(hess.rows[t], hess.cols[t], hess.vals[t]);
        }
        let mut c = KktCache::sharing(registry);
        assert!(!c.ensure_structure(&dims, &upper, &jac_eq, &jac_ineq));
        assert!(c.frozen().is_none());
        assert_eq!(c.symbolic_analyses(), 0);
    }

    /// A lane that panics while holding the registry's lock poisons it; the
    /// registry only appends immutable systems, so later lanes ignore the
    /// poison and still resolve the same frozen system.
    #[test]
    fn a_panicking_lane_cannot_poison_the_registry() {
        let dims = small_dims();
        let (hess, _, jac_eq, jac_ineq) = small_problem();
        let registry = Arc::new(FrozenRegistry::default());
        let mut cache = KktCache::sharing(Arc::clone(&registry));
        assert!(cache.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq));
        let poisoner = Arc::clone(&registry);
        let panicked = std::thread::spawn(move || {
            let _held = poisoner.systems.lock().unwrap();
            panic!("a lane panics while holding the registry");
        })
        .join();
        assert!(panicked.is_err());
        assert!(registry.systems.is_poisoned());
        let mut later = KktCache::sharing(registry);
        assert!(later.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq));
        assert!(Arc::ptr_eq(
            later.frozen().unwrap(),
            cache.frozen().unwrap()
        ));
        assert_eq!(later.symbolic_analyses(), 0);
    }

    #[test]
    fn duplicate_jacobian_triplets_match_the_full_path() {
        // The same (row, col) appearing twice in the inequality Jacobian is
        // legal COO — the full path sums the duplicates during CSC
        // conversion, so the condensed product must square the *sum*, not
        // sum the squares.
        let dims = KktDims {
            nx: 2,
            ns: 1,
            m_eq: 0,
            m_ineq: 1,
        };
        let mut hess = Coo::new(2, 2);
        hess.push(0, 0, 3.0);
        hess.push(1, 1, 2.0);
        let sigma = vec![0.4, 0.6, 0.5];
        let jac_eq = Coo::new(0, 2);
        let mut jac_ineq = Coo::new(1, 2);
        jac_ineq.push(0, 0, 2.0);
        jac_ineq.push(0, 0, 1.0); // duplicate of (0, 0): effective value 3.0
        jac_ineq.push(0, 1, -1.0);
        let rhs: Vec<f64> = (0..dims.dim()).map(|i| 1.0 + 0.5 * i as f64).collect();

        let kkt = assemble_kkt(&dims, &hess, &sigma, &jac_eq, &jac_ineq, 0.0, 1e-8);
        let opts = LdlOptions {
            expected_signs: dims.expected_signs(),
            pivot_tol: 1e-13,
            pivot_reg: 1e-9,
        };
        let full = LdlFactor::factorize_rcm(&kkt, &opts).unwrap().solve(&rhs);
        let mut cache = KktCache::new();
        let (_, step) = newton_step(
            &mut cache, &dims, &hess, &sigma, &jac_eq, &jac_ineq, 0.0, 1e-8, &rhs,
        );
        for (a, b) in full.iter().zip(&step) {
            assert!((a - b).abs() < 1e-9, "full {a} vs condensed {b}");
        }
        // The gather merges the duplicates the way the per-row regrouping
        // did, in declaration order.
        let scattered = cache
            .scatter(&hess, &sigma, &jac_eq, &jac_ineq, 0.0, 1e-8)
            .unwrap();
        assert_eq!(gathered_bits(&cache), bits(&scattered));
    }

    /// The full augmented system stays the reference for the condensed step
    /// at ACOPF scale. At real iterates of the `case9` and `case14` solves
    /// (the pushed-in initial point and a mid-solve point), the condensed
    /// Newton step equals `assemble_kkt` + `LdlFactor::factorize_rcm` to
    /// within what the two factorizations' own residuals on the full system
    /// allow. Both steps solve `K v = b` only up to their residuals
    /// `r = K v − b`, so they differ by `K⁻¹(r_full − r_cond)`; each block
    /// (`[Δx; Δs]`, then `[Δλ_E; Δλ_I]`) must agree relative to its scale
    /// within `(‖r_full‖ + ‖r_cond‖) / ‖b‖`, and the condensed step must
    /// solve the full system within 100× the full factorization's residual.
    /// Measured: residuals 5e-7–5e-6 (full) and 2e-6–2e-5 (condensed),
    /// relative block errors ≤ 9e-9 (primal) and ≤ 1.6e-6 (multipliers, the
    /// ill-conditioned part at `δ_c = 1e-8`).
    #[test]
    fn condensed_step_matches_full_kkt_at_acopf_iterates() {
        let inf_norm = |v: &[f64]| v.iter().map(|x| x.abs()).fold(0.0, f64::max);
        for (name, case) in [
            ("case9", gridsim_grid::cases::case9()),
            ("case14", gridsim_grid::cases::case14()),
        ] {
            let net = case.compile().unwrap();
            for max_iter in [0, 8] {
                let AcopfIterate {
                    dims,
                    hess,
                    sigma,
                    jac_eq,
                    jac_ineq,
                } = acopf_iterate(&net, max_iter);
                let rhs: Vec<f64> = (0..dims.dim()).map(|i| (i as f64 * 0.7).sin()).collect();

                let (cond, step) = newton_step(
                    &mut KktCache::new(),
                    &dims,
                    &hess,
                    &sigma,
                    &jac_eq,
                    &jac_ineq,
                    0.0,
                    1e-8,
                    &rhs,
                );
                assert_eq!(cond.inertia, (dims.nx, dims.m_eq, 0), "{name}");
                assert_eq!(cond.num_regularized, 0, "{name}");
                let kkt = assemble_kkt(&dims, &hess, &sigma, &jac_eq, &jac_ineq, 0.0, 1e-8);
                let opts = LdlOptions {
                    expected_signs: dims.expected_signs(),
                    pivot_tol: 1e-13,
                    pivot_reg: 1e-9,
                };
                let reference = LdlFactor::factorize_rcm(&kkt, &opts).unwrap();
                assert_eq!(reference.num_regularized, 0, "{name}");
                let full = reference.solve(&rhs);
                let label = format!("{name} after {max_iter} iterations");
                let residual_full = kkt.residual_inf_norm(&full, &rhs);
                let residual_cond = kkt.residual_inf_norm(&step, &rhs);
                assert!(
                    residual_cond <= 100.0 * residual_full,
                    "{label}: residual {residual_cond:e} vs the full factorization's \
                     {residual_full:e}"
                );
                let tol = (residual_full + residual_cond) / inf_norm(&rhs);
                let nv = dims.nv();
                for (block, range) in [("primal", 0..nv), ("dual", nv..dims.dim())] {
                    let scale = inf_norm(&full[range.clone()]);
                    let error = range.map(|i| (full[i] - step[i]).abs()).fold(0.0, f64::max);
                    assert!(
                        error <= tol * scale,
                        "{label}: {block} error {error:e} at scale {scale:e}, tolerance {tol:e}"
                    );
                }
            }
        }
    }

    /// The slot gather writes the bits the binary-search scatter it replaced
    /// wrote, at real `case9`, `case14` and `Pegase1354/200` iterates and at
    /// two regularizations. It also writes the bits the scatter wrote from
    /// the zero-pruned triplets the model callbacks used to return: a
    /// written zero adds nothing to a sum that never holds `−0.0`.
    #[test]
    fn gather_matches_the_binary_search_scatter_at_acopf_iterates() {
        use gridsim_grid::synthetic::TableICase;
        for (name, case) in [
            ("case9", gridsim_grid::cases::case9()),
            ("case14", gridsim_grid::cases::case14()),
            ("pegase1354/200", TableICase::Pegase1354.scaled(200)),
        ] {
            let net = case.compile().unwrap();
            for max_iter in [0, 8] {
                let it = acopf_iterate(&net, max_iter);
                let mut cache = KktCache::new();
                assert!(cache.ensure_structure(&it.dims, &it.hess, &it.jac_eq, &it.jac_ineq));
                for (delta_w, delta_c) in [(0.0, 1e-8), (1e-4, 1e-6)] {
                    cache
                        .factorize_condensed(
                            &DeviceStats::default(),
                            &it.hess.vals,
                            &it.sigma,
                            &it.jac_eq.vals,
                            &it.jac_ineq.vals,
                            delta_w,
                            delta_c,
                            1e-13,
                            1e-9,
                        )
                        .unwrap();
                    let gathered = gathered_bits(&cache);
                    let scatter = |hess: &Coo, jac_eq: &Coo, jac_ineq: &Coo| {
                        let vals = cache
                            .scatter(hess, &it.sigma, jac_eq, jac_ineq, delta_w, delta_c)
                            .expect("the declared structure is frozen");
                        bits(&vals)
                    };
                    let label = format!("{name} after {max_iter} iterations, δ_w {delta_w}");
                    assert_eq!(
                        gathered,
                        scatter(&it.hess, &it.jac_eq, &it.jac_ineq),
                        "{label}"
                    );
                    assert_eq!(
                        gathered,
                        scatter(
                            &pruned(&it.hess),
                            &pruned(&it.jac_eq),
                            &pruned(&it.jac_ineq)
                        ),
                        "{label}: pruned triplets"
                    );
                }
                assert_eq!(cache.symbolic_analyses(), 1, "{name}");
            }
        }
    }

    /// A zero pivot with regularization off breaks the factorization down
    /// mid-replay. The failure must leave no trace: counters and the retained
    /// values stay as they were, and the next good system factorizes to the
    /// bits a fresh cache produces. The broken replay is billed like any
    /// other.
    #[test]
    fn breakdown_leaves_no_trace_in_the_cache() {
        let dims = small_dims();
        let (hess, sigma, jac_eq, jac_ineq) = small_problem();
        let stats = DeviceStats::default();
        let good = |cache: &mut KktCache| {
            assert!(cache.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq));
            cache
                .factorize_condensed(
                    &stats,
                    &hess.vals,
                    &sigma,
                    &jac_eq.vals,
                    &jac_ineq.vals,
                    1e-6,
                    1e-8,
                    1e-13,
                    1e-9,
                )
                .unwrap()
        };
        let mut cache = KktCache::new();
        let before = good(&mut cache);
        let retained = cache.last_numeric.clone();

        // Same coordinates, all values zero: every variable-block pivot is
        // exactly zero and `pivot_reg = 0` may not bump it.
        let zeros = |coo: &Coo| vec![0.0; coo.nnz()];
        let broke = cache.factorize_condensed(
            &stats,
            &zeros(&hess),
            &vec![0.0; sigma.len()],
            &zeros(&jac_eq),
            &zeros(&jac_ineq),
            0.0,
            1e-8,
            1e-13,
            0.0,
        );
        assert!(
            matches!(broke, Err(SparseError::Breakdown { .. })),
            "{broke:?}"
        );
        assert_eq!(cache.symbolic_analyses(), 1);
        assert_eq!(cache.numeric_refactorizations(), 1);
        assert_eq!(cache.last_numeric, retained);

        let after = good(&mut cache);
        let fresh = good(&mut KktCache::new());
        assert_eq!(factor_bits(&after.factor), factor_bits(&before.factor));
        assert_eq!(factor_bits(&after.factor), factor_bits(&fresh.factor));
        assert_eq!(cache.numeric_refactorizations(), 2);
        assert_eq!(stats.snapshot().total_launches(), 4);
    }

    /// A cache holding `net`'s declared condensed ACOPF structure, frozen
    /// by the search-based pipeline under `analyze`.
    fn frozen(
        net: &gridsim_grid::network::Network,
        analyze: fn(&Csc) -> Result<LdlSymbolic, SparseError>,
    ) -> KktCache {
        use crate::nlp::Nlp;
        let nlp = crate::AcopfNlp::new(net);
        let dims = KktDims {
            nx: nlp.num_vars(),
            ns: nlp.num_ineq(),
            m_eq: nlp.num_eq(),
            m_ineq: nlp.num_ineq(),
        };
        let mut cache = KktCache::new();
        assert!(cache.ensure_structure_with(
            &dims,
            &nlp.hessian_structure(),
            &nlp.eq_jacobian_structure(),
            &nlp.ineq_jacobian_structure(),
            |dims, hess, jac_eq, jac_ineq| {
                FrozenSystem::analyze_by_search(dims, hess, jac_eq, jac_ineq, analyze)
            },
        ));
        cache
    }

    /// The one-pass analysis freezes exactly what the search-based pipeline
    /// froze: the same AMD permutation, permuted upper pattern and
    /// `aval_map`, `L` pattern, reaches with their slots and dense tail (the
    /// whole `LdlSymbolic`), the same diagonal slots and every `SlotMap`
    /// vector — on the reference cases, on a small structure with duplicate
    /// Hessian and inequality-Jacobian triplets, and (release only) on the
    /// Pegase1354 stand-ins.
    #[test]
    fn one_pass_analysis_freezes_what_the_search_based_pipeline_froze() {
        use crate::nlp::Nlp;
        use gridsim_grid::synthetic::TableICase;
        let mut cases = vec![
            ("case9", gridsim_grid::cases::case9()),
            ("case14", gridsim_grid::cases::case14()),
            ("case30_like", gridsim_grid::cases::case30_like()),
        ];
        if !cfg!(debug_assertions) || std::env::var("GRIDADMM_FULL_TESTS").is_ok() {
            cases.push(("pegase1354/100", TableICase::Pegase1354.scaled(100)));
            cases.push(("pegase1354/200", TableICase::Pegase1354.scaled(200)));
        }
        let mut structures: Vec<(&str, KktDims, Coo, Coo, Coo)> = cases
            .into_iter()
            .map(|(name, case)| {
                let net = case.compile().unwrap();
                let nlp = crate::AcopfNlp::new(&net);
                let dims = KktDims {
                    nx: nlp.num_vars(),
                    ns: nlp.num_ineq(),
                    m_eq: nlp.num_eq(),
                    m_ineq: nlp.num_ineq(),
                };
                let (hess, jac_eq, jac_ineq) = (
                    nlp.hessian_structure(),
                    nlp.eq_jacobian_structure(),
                    nlp.ineq_jacobian_structure(),
                );
                (name, dims, hess, jac_eq, jac_ineq)
            })
            .collect();
        let (mut hess, _, jac_eq, mut jac_ineq) = small_problem();
        hess.push(1, 0, 0.5);
        hess.push(2, 2, 1.0);
        jac_ineq.push(1, 1, 0.5);
        jac_ineq.push(0, 0, 1.0);
        structures.push(("small, duplicates", small_dims(), hess, jac_eq, jac_ineq));
        for (name, dims, hess, jac_eq, jac_ineq) in &structures {
            let fresh = FrozenSystem::analyze(dims, hess, jac_eq, jac_ineq).unwrap();
            let oracle = FrozenSystem::analyze_by_search(
                dims,
                hess,
                jac_eq,
                jac_ineq,
                LdlSymbolic::analyze_amd,
            )
            .unwrap();
            assert_eq!(fresh.ldl.ordering(), oracle.ldl.ordering(), "{name}");
            assert!(fresh.ldl == oracle.ldl, "{name}: the symbolic analysis");
            assert_eq!(fresh.diag_slots, oracle.diag_slots, "{name}");
            assert_eq!(fresh.slots, oracle.slots, "{name}");
            assert_eq!((fresh.dims, fresh.ncond), (oracle.dims, oracle.ncond));
            assert_eq!(fresh.opts.expected_signs, oracle.opts.expected_signs);
        }
    }

    /// The Hessian check reads the frozen pattern, yet only the Hessian's
    /// own slots count: a Hessian missing `(1, 0)` is refused although the
    /// first inequality row puts `(1, 0)` into the pattern anyway. Over every
    /// set of off-diagonal coordinates of the small problem (each declared
    /// once, or twice), the analysis accepts exactly the Hessians the sorted
    /// pair search accepts.
    #[test]
    fn hessian_check_agrees_with_the_pair_search() {
        let dims = small_dims();
        let (_, _, jac_eq, jac_ineq) = small_problem();
        let pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)];
        for subset in 0..1usize << pairs.len() {
            for copies in 1..=2 {
                let mut hess = Coo::new(3, 3);
                for i in 0..3 {
                    hess.push(i, i, 1.0);
                }
                for (bit, &(r, c)) in pairs.iter().enumerate() {
                    for _ in 0..copies * (subset >> bit & 1) {
                        hess.push(r, c, 1.0);
                    }
                }
                let accepted = FrozenSystem::analyze(&dims, &hess, &jac_eq, &jac_ineq).is_some();
                assert_eq!(accepted, both_triangles_by_search(&hess), "{subset:06b}");
            }
        }
        let mut covered = Coo::new(3, 3);
        covered.push(0, 1, 1.0);
        assert!(FrozenSystem::analyze(&dims, &covered, &jac_eq, &jac_ineq).is_none());
    }

    #[test]
    fn amd_never_fills_more_than_rcm_on_condensed_acopf_patterns() {
        use gridsim_grid::synthetic::TableICase;
        for (name, case) in [
            ("case9", gridsim_grid::cases::case9()),
            ("case14", gridsim_grid::cases::case14()),
            ("pegase1354/200", TableICase::Pegase1354.scaled(200)),
            ("pegase1354/100", TableICase::Pegase1354.scaled(100)),
        ] {
            let net = case.compile().unwrap();
            let amd = frozen(&net, LdlSymbolic::analyze_amd);
            let rcm = frozen(&net, LdlSymbolic::analyze_rcm);
            let (amd, rcm) = (amd.symbolic_stats().unwrap(), rcm.symbolic_stats().unwrap());
            assert_eq!((amd.dim, amd.nnz), (rcm.dim, rcm.nnz), "{name}");
            assert!(amd.lnz <= rcm.lnz, "{name}: amd {amd:?} vs rcm {rcm:?}");
            assert!(
                amd.levels <= rcm.levels,
                "{name}: amd {amd:?} vs rcm {rcm:?}"
            );
        }
    }

    /// The bitwise contract on the real thing: the condensed system of each
    /// reference case's solve at its optimum, under the production (AMD)
    /// analysis — fresh factorization ≡ scalar replay ≡ dense-tail
    /// refactorization ≡ the factor `factorize_condensed` itself returned.
    /// The Pegase1354 stand-ins (439 to 3 509 dimensions) run in release
    /// only.
    #[test]
    fn condensed_factor_is_bitwise_fresh_scalar_and_dense_tail() {
        use crate::nlp::Nlp;
        use gridsim_grid::synthetic::TableICase;
        let mut cases = vec![
            ("case9", gridsim_grid::cases::case9()),
            ("case14", gridsim_grid::cases::case14()),
            ("case30_like", gridsim_grid::cases::case30_like()),
        ];
        if !cfg!(debug_assertions) || std::env::var("GRIDADMM_FULL_TESTS").is_ok() {
            for (name, scale) in [
                ("pegase1354/100", 100),
                ("pegase1354/200", 200),
                ("pegase1354/400", 400),
                ("pegase1354/800", 800),
            ] {
                cases.push((name, TableICase::Pegase1354.scaled(scale)));
            }
        }
        for (name, case) in cases {
            let net = case.compile().unwrap();
            let nlp = crate::AcopfNlp::new(&net);
            let mut cache = KktCache::new();
            let report = crate::IpmSolver::default().solve_with_cache(&nlp, &mut cache);
            assert!(report.is_optimal(), "{name}: {:?}", report.status);
            let analyses = cache.symbolic_analyses();

            // One more Newton system at the optimum, through the production
            // entry: the model's matrices at `x*` under the reported
            // multipliers, the bound multipliers as the barrier diagonal.
            let dims = KktDims {
                nx: nlp.num_vars(),
                ns: nlp.num_ineq(),
                m_eq: nlp.num_eq(),
                m_ineq: nlp.num_ineq(),
            };
            let sigma: Vec<f64> = report
                .zl
                .iter()
                .zip(&report.zu)
                .map(|(l, u)| l + u)
                .collect();
            let produced = cache
                .factorize_condensed(
                    &DeviceStats::default(),
                    &nlp.lagrangian_hessian(&report.x, 1.0, &report.lambda_eq, &report.lambda_ineq)
                        .vals,
                    &sigma,
                    &nlp.eq_jacobian(&report.x).vals,
                    &nlp.ineq_jacobian(&report.x).vals,
                    0.0,
                    1e-8,
                    1e-13,
                    1e-9,
                )
                .unwrap();
            assert_eq!(
                cache.symbolic_analyses(),
                analyses,
                "{name}: the solve's structure"
            );
            assert_eq!(produced.inertia, (dims.nx, dims.m_eq, 0), "{name}");

            let s = cache.frozen.as_deref().unwrap();
            let opts = &cache.opts;
            let (colptr, rowind) = s.ldl.pattern();
            let matrix = Csc {
                nrows: s.ncond,
                ncols: s.ncond,
                colptr: colptr.to_vec(),
                rowind: rowind.to_vec(),
                values: cache.last_numeric.clone().unwrap(),
            };
            let fresh = LdlFactor::factorize_with(&matrix, s.ldl.ordering().clone(), opts).unwrap();
            let want = factor_bits(&fresh);
            assert_eq!(factor_bits(&produced.factor), want, "{name}");
            let scalar = s.ldl.refactor(&matrix.values, opts).unwrap();
            assert_eq!(factor_bits(&scalar), want, "{name}");
            let dense_tail = s.ldl.refactor_dense_tail(&matrix.values, opts).unwrap();
            assert_eq!(factor_bits(&dense_tail), want, "{name}");
        }
    }

    /// What a traced run reads: every numeric refactorization of a
    /// condensed solve is one `ldl_refactor_level` launch over the condensed
    /// dimension on the solver's stats stream, and nothing else is billed.
    #[test]
    fn condensed_solve_bills_one_launch_per_factorization() {
        let net = gridsim_grid::cases::case9().compile().unwrap();
        let solver = crate::IpmSolver::default().with_device(Device::sequential());
        let mut cache = KktCache::new();
        let report = solver.solve_with_cache(&crate::AcopfNlp::new(&net), &mut cache);
        assert!(report.is_optimal(), "{:?}", report.status);
        let snapshot = solver.device.stats().snapshot();
        let billed = &snapshot.kernels["ldl_refactor_level"];
        let dim = cache.symbolic_stats().unwrap().dim as u64;
        assert_eq!(billed.launches, report.factorizations as u64);
        assert_eq!(billed.blocks, billed.launches * dim);
        assert!(billed.elapsed > std::time::Duration::ZERO);
        assert_eq!(snapshot.total_launches(), billed.launches);
        assert_eq!(snapshot.total_transfers(), 0);
    }

    /// The solver does not care which ordering sits under its Newton
    /// systems: on the `ipm_fleet` stand-ins the AMD-analysed solve and the
    /// RCM-analysed one take the same iterations to the same optimum, while
    /// the factor they replay every step shrinks to 0.40 (877-dim) and 0.54
    /// (439-dim) of RCM's.
    #[test]
    fn ordering_changes_the_factor_not_the_solve() {
        if cfg!(debug_assertions) && std::env::var("GRIDADMM_FULL_TESTS").is_err() {
            eprintln!("skipping full-tolerance regression case (set GRIDADMM_FULL_TESTS=1)");
            return;
        }
        use gridsim_acopf::violations::SolutionQuality;
        use gridsim_grid::synthetic::TableICase;
        for (scale, lnz_ratio) in [(200, 0.5), (100, 0.6)] {
            let net = TableICase::Pegase1354.scaled(scale).compile().unwrap();
            let nlp = crate::AcopfNlp::new(&net);
            let solver = crate::IpmSolver::default();
            // The RCM cache arrives with its structure frozen; the solve
            // finds its declared structure covered and never re-analyzes.
            let (mut amd_cache, mut rcm_cache) =
                (KktCache::new(), frozen(&net, LdlSymbolic::analyze_rcm));
            let amd = solver.solve_with_cache(&nlp, &mut amd_cache);
            let rcm = solver.solve_with_cache(&nlp, &mut rcm_cache);
            assert!(amd.is_optimal() && rcm.is_optimal(), "scale {scale}");
            assert_eq!(rcm_cache.symbolic_analyses(), 1, "scale {scale}");
            assert_eq!(amd.iterations, rcm.iterations, "scale {scale}");
            assert!(
                (amd.objective - rcm.objective).abs() <= 1e-9 * rcm.objective.abs(),
                "scale {scale}: {} vs {}",
                amd.objective,
                rcm.objective
            );
            let violation =
                |x: &[f64]| SolutionQuality::evaluate(&net, &nlp.to_solution(x)).max_violation();
            assert!(
                (violation(&amd.x) - violation(&rcm.x)).abs() <= 1e-9,
                "scale {scale}"
            );
            let (amd, rcm) = (
                amd_cache.symbolic_stats().unwrap(),
                rcm_cache.symbolic_stats().unwrap(),
            );
            assert!(
                amd.lnz as f64 <= lnz_ratio * rcm.lnz as f64,
                "scale {scale}: {amd:?} vs {rcm:?}"
            );
        }
    }

    #[test]
    fn no_equality_constraints_condenses_to_the_variable_block() {
        let dims = KktDims {
            nx: 2,
            ns: 1,
            m_eq: 0,
            m_ineq: 1,
        };
        let mut hess = Coo::new(2, 2);
        hess.push(0, 0, 2.0);
        hess.push(1, 1, 2.0);
        let sigma = vec![0.5, 0.4, 0.8];
        let jac_eq = Coo::new(0, 2);
        let mut jac_ineq = Coo::new(1, 2);
        jac_ineq.push(0, 0, -1.0);
        jac_ineq.push(0, 1, -1.0);
        let rhs: Vec<f64> = (0..dims.dim()).map(|i| 0.3 + i as f64).collect();

        let kkt = assemble_kkt(&dims, &hess, &sigma, &jac_eq, &jac_ineq, 0.0, 1e-8);
        let opts = LdlOptions {
            expected_signs: dims.expected_signs(),
            pivot_tol: 1e-13,
            pivot_reg: 1e-9,
        };
        let full = LdlFactor::factorize_rcm(&kkt, &opts).unwrap().solve(&rhs);
        let mut cache = KktCache::new();
        let (cond, step) = newton_step(
            &mut cache, &dims, &hess, &sigma, &jac_eq, &jac_ineq, 0.0, 1e-8, &rhs,
        );
        // nx×nx positive definite system.
        assert_eq!(cond.inertia, (2, 0, 0));
        for (a, b) in full.iter().zip(&step) {
            assert!((a - b).abs() < 1e-9, "full {a} vs condensed {b}");
        }
    }
}
