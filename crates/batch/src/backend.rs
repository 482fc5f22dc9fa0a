//! Execution backends: the [`LaunchBackend`] dispatch trait, its three
//! implementors, and the [`ExecutionMode`] selector.
//!
//! The paper's thesis is that ACOPF kernels expressed as data-parallel
//! element operations port across execution substrates. This module is
//! where that portability lives: a kernel body is written once (a closure
//! over an element's slot and its index in the slot — the thread's row and
//! column of the paper's scenarios × components grid), and the backend
//! chooses the iteration scheme —
//! a work-stealing thread pool, a plain sequential loop, or a chunked
//! loop shaped for compiler auto-vectorization.
//!
//! # The dispatch trait
//!
//! [`LaunchBackend`] carries the three operations every launch reduces to:
//! a masked map over equally sized segments (one thread per element), a
//! masked launch over groups of a segment's consecutive elements, each
//! handed its elements' windows of a second buffer (one thread block per
//! group: the generator updates and the lock-step TRON branch solves, which
//! write their consensus values where they compute them), and a masked map
//! whose closure returns scores the backend folds into per-segment maxima
//! (the consensus pass, which updates its elements and scores the residuals
//! in one sweep). A whole-buffer launch is one all-active segment, so a
//! backend writes each iteration scheme once.
//! [`Device`](crate::Device) holds an [`AnyBackend`] — a closed enum over
//! the implementors — so the kernel layer in `kernel.rs` contains **no**
//! backend matching at all:
//! every launch goes through trait dispatch. The trait's
//! methods are generic over the element type and kernel closure, which is
//! why dispatch is an enum rather than a `dyn` object (generic methods
//! are not object-safe).
//!
//! # The determinism contract
//!
//! Every backend MUST produce bitwise-identical buffers and per-segment
//! maxima to [`SequentialBackend`] for the same launch sequence:
//!
//! * segmented launches touch disjoint elements and disjoint windows, so
//!   any schedule that applies the closure exactly once per active element
//!   (or group) conforms;
//! * scoring launches may *evaluate* per-element scores in any order but
//!   MUST *combine* them in index order, because floating-point `max` is
//!   scheduling-sensitive through NaN and signed-zero handling;
//! * inactive segments of a masked launch must not be touched at all, in
//!   either buffer (convergence masking relies on converged scenarios'
//!   state freezing).
//!
//! The contract is executable: [`crate::conformance`] checks each clause
//! against [`SequentialBackend`] on chunk-boundary-hostile sizes, and
//! only backends that pass may be selected by [`ExecutionMode::Auto`].
//!
//! # Writing a new backend
//!
//! A new backend is a plug-in, not a rewrite:
//!
//! 1. define a unit struct and implement [`LaunchBackend`]'s three
//!    operations for it (the scoring launch must fold in index order — see
//!    the contract above);
//! 2. add an [`AnyBackend`] variant delegating to it, a constructor on
//!    [`Device`](crate::Device), and an [`ExecutionMode`] variant;
//! 3. run it through `assert_backend_conformance` in `conformance.rs`'s
//!    tests; only then may [`ExecutionMode::resolve_with`] return it.
//!
//! Everything outside this module and `device.rs` is untouched: the
//! kernel layer, the pools, and every solver dispatch through the trait.

use rayon::prelude::*;

/// Environment variable overriding [`ExecutionMode::Auto`] resolution
/// (`sequential`, `parallel`, or `vectorized`; invalid values fall through
/// to the core-count rule). Sits alongside `GRIDSIM_DEVICES` (pool width)
/// and `GRIDSIM_POOL_THREADS` (worker count of the parallel backend).
pub const BACKEND_ENV: &str = "GRIDSIM_BACKEND";

/// How a [`Device`](crate::Device) executes kernel launches.
///
/// `Auto` resolves to a concrete backend at device construction with a
/// deterministic precedence, pinned by a unit test below:
///
/// 1. a valid [`BACKEND_ENV`] value (case-insensitive; `auto` and invalid
///    values fall through),
/// 2. the worker count of the parallel runtime: ≥ 2 workers selects
///    `Parallel`,
/// 3. otherwise `Vectorized` — on a single core the thread pool cannot
///    help, but the chunked kernels still can.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Resolve at device construction: env override → core count → fallback.
    #[default]
    Auto,
    /// One element at a time on the calling thread. The reference backend
    /// every other implementor must match bitwise.
    Sequential,
    /// Thread blocks on the Rayon work-stealing pool (GPU block-scheduler
    /// stand-in). Bitwise identical to `Sequential` because blocks never
    /// share mutable state and scores fold in index order.
    Parallel,
    /// Chunked, branch-free element loops shaped for compiler
    /// auto-vectorization over the structure-of-arrays buffers.
    Vectorized,
}

impl ExecutionMode {
    /// Parse an environment-variable value. Case-insensitive; accepts the
    /// short forms `seq`, `par`, `vec` and `simd`. Returns `None` for
    /// anything unrecognized so invalid overrides fall through to the
    /// core-count rule instead of panicking inside solver construction.
    pub fn parse(value: &str) -> Option<ExecutionMode> {
        match value.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(ExecutionMode::Auto),
            "sequential" | "seq" => Some(ExecutionMode::Sequential),
            "parallel" | "par" => Some(ExecutionMode::Parallel),
            "vectorized" | "vec" | "simd" => Some(ExecutionMode::Vectorized),
            _ => None,
        }
    }

    /// Resolve `Auto` against the real environment: a valid non-`auto`
    /// [`BACKEND_ENV`] wins; otherwise ≥ 2 workers in the parallel runtime
    /// select `Parallel`, and fewer `Vectorized`. Concrete modes return
    /// themselves; the result is never `Auto`.
    pub fn resolve(self) -> ExecutionMode {
        self.resolve_with(
            std::env::var(BACKEND_ENV).ok().as_deref(),
            rayon::current_num_threads(),
        )
    }

    /// Pure resolution rule, factored out so tests can pin the full table
    /// without touching process environment. Precedence for `Auto`: a
    /// valid non-`auto` env override wins; otherwise ≥ 2 workers selects
    /// `Parallel`; otherwise `Vectorized`.
    pub(crate) fn resolve_with(self, env: Option<&str>, workers: usize) -> ExecutionMode {
        match self {
            ExecutionMode::Auto => match env.and_then(ExecutionMode::parse) {
                Some(mode) if mode != ExecutionMode::Auto => mode,
                _ if workers >= 2 => ExecutionMode::Parallel,
                _ => ExecutionMode::Vectorized,
            },
            concrete => concrete,
        }
    }

    /// Lower-case label (`auto` / `sequential` / `parallel` / `vectorized`),
    /// the same vocabulary [`BACKEND_ENV`] accepts.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::Auto => "auto",
            ExecutionMode::Sequential => "sequential",
            ExecutionMode::Parallel => "parallel",
            ExecutionMode::Vectorized => "vectorized",
        }
    }
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where each element of a group launch finds its window of a second,
/// segment-major buffer: that buffer holds one segment of `seg_len` values
/// per segment of the launch, and element `j` of a launch segment owns the
/// `width` values from `offset + j·width` of its segment on. A group's
/// window is its elements' windows, which are consecutive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    /// Values per segment of the second buffer.
    pub seg_len: usize,
    /// Where in its segment the first element's window starts.
    pub offset: usize,
    /// Values per element; at least 1.
    pub width: usize,
}

/// The kernel-execution dispatch trait: one launch surface, many iteration
/// schemes. See the module docs for the determinism contract every
/// implementor must satisfy and the guide for adding one.
///
/// Methods operate on raw slices; the [`Device`](crate::Device) wrappers
/// own buffer bookkeeping (length assertions, live-element accounting,
/// billing) so backends stay pure iteration schemes.
pub(crate) trait LaunchBackend {
    /// The concrete mode this backend implements (never
    /// [`ExecutionMode::Auto`]); names the backend in stats and benches.
    fn mode(&self) -> ExecutionMode;

    /// Apply `f` exactly once to every element of the segments whose mask
    /// entry is `true`; elements of inactive segments must not be touched.
    /// `buf` holds `active.len()` segments of `seg_len` elements; `f`
    /// receives the element's segment (its slot) and its index within the
    /// segment. One thread per element: a scheduling backend keeps short
    /// launches on the calling thread.
    fn launch_segments<T, F>(&self, buf: &mut [T], seg_len: usize, active: &[bool], f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut T) + Sync;

    /// Apply `f` exactly once to every *group* of the active segments'
    /// elements, with the group's window of `out`, and to nothing of an
    /// inactive segment in either buffer: the groups are each segment's
    /// consecutive chunks of `group` elements (the last one shorter), so a
    /// group holds 1 to `group` consecutive elements of one segment, and its
    /// window is where `windows` puts them. `f` receives the group's segment
    /// and the index of its first element within the segment. One thread
    /// block per group: a scheduling backend fans out even a handful of them.
    #[allow(clippy::too_many_arguments)]
    fn launch_groups<T, U, F>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        group: usize,
        out: &mut [U],
        windows: Windows,
        f: F,
    ) where
        T: Send,
        U: Send,
        F: Fn(usize, usize, &mut [T], &mut [U]) + Sync;

    /// Apply `f` exactly once to every element of the active segments, as
    /// [`Self::launch_segments`] does, and fold each of the `N` scores it
    /// returns into one maximum per segment: `f64::max` from `−∞` in index
    /// order (so a NaN score is passed over), with the empty-max convention
    /// `−∞ → 0.0`. An inactive segment is not touched and reports `NaN`.
    /// Scores may be *evaluated* in any order.
    fn launch_segments_max<T, F, const N: usize>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<[f64; N]>
    where
        T: Send,
        F: Fn(usize, usize, &mut T) -> [f64; N] + Sync;
}

/// Fold one element's `scores` into the running maxima `acc`.
#[inline]
fn fold_max<const N: usize>(acc: &mut [f64; N], scores: [f64; N]) {
    for (a, s) in acc.iter_mut().zip(scores) {
        *a = a.max(s);
    }
}

/// The empty-max convention: a fold that met no number reads `0.0`.
fn settle<const N: usize>(acc: [f64; N]) -> [f64; N] {
    acc.map(|m| if m == f64::NEG_INFINITY { 0.0 } else { m })
}

/// Run `f` over segment `s`, folding its scores in index order — the fold
/// the sequential and parallel backends share (the vectorized backend
/// reproduces it chunk-wise, bit for bit).
fn segment_max<T, F, const N: usize>(segment: &mut [T], s: usize, f: &F) -> [f64; N]
where
    F: Fn(usize, usize, &mut T) -> [f64; N],
{
    let mut acc = [f64::NEG_INFINITY; N];
    for (j, x) in segment.iter_mut().enumerate() {
        fold_max(&mut acc, f(s, j, x));
    }
    settle(acc)
}

/// The active segments' groups in index order, each with its segment, the
/// index of its first element in the segment and its window of `out`, cut
/// with `chunks_exact_mut` so that a window is exactly its elements'.
fn groups<'a, T, U>(
    buf: &'a mut [T],
    seg_len: usize,
    active: &'a [bool],
    group: usize,
    out: &'a mut [U],
    windows: Windows,
) -> impl Iterator<Item = (usize, usize, &'a mut [T], &'a mut [U])> {
    let Windows {
        seg_len: out_len,
        offset,
        width,
    } = windows;
    buf.chunks_exact_mut(seg_len)
        .zip(out.chunks_exact_mut(out_len))
        .zip(active)
        .enumerate()
        .filter(|(_, (_, &live))| live)
        .flat_map(move |(s, ((segment, out_segment), _))| {
            let window = &mut out_segment[offset..offset + seg_len * width];
            segment
                .chunks_mut(group)
                .zip(window.chunks_mut(group * width))
                .enumerate()
                .map(move |(c, (elements, window))| (s, c * group, elements, window))
        })
}

/// One element at a time on the calling thread: the reference
/// implementation of the determinism contract, and the backend of choice
/// for debugging and deterministic micro-benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SequentialBackend;

impl LaunchBackend for SequentialBackend {
    fn mode(&self) -> ExecutionMode {
        ExecutionMode::Sequential
    }

    fn launch_segments<T, F>(&self, buf: &mut [T], seg_len: usize, active: &[bool], f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut T) + Sync,
    {
        for (s, chunk) in buf.chunks_mut(seg_len).enumerate() {
            if !active[s] {
                continue;
            }
            for (j, x) in chunk.iter_mut().enumerate() {
                f(s, j, x);
            }
        }
    }

    fn launch_groups<T, U, F>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        group: usize,
        out: &mut [U],
        windows: Windows,
        f: F,
    ) where
        T: Send,
        U: Send,
        F: Fn(usize, usize, &mut [T], &mut [U]) + Sync,
    {
        for (s, first, elements, window) in groups(buf, seg_len, active, group, out, windows) {
            f(s, first, elements, window);
        }
    }

    fn launch_segments_max<T, F, const N: usize>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<[f64; N]>
    where
        T: Send,
        F: Fn(usize, usize, &mut T) -> [f64; N] + Sync,
    {
        buf.chunks_mut(seg_len)
            .zip(active)
            .enumerate()
            .map(|(s, (segment, &live))| {
                if live {
                    segment_max(segment, s, &f)
                } else {
                    [f64::NAN; N]
                }
            })
            .collect()
    }
}

/// Thread blocks on the Rayon work-stealing pool — the GPU block-scheduler
/// stand-in. Launches write disjoint elements into index-ordered storage
/// and scoring launches fold each segment in index order, so results are
/// bitwise identical to [`SequentialBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ParallelBackend;

/// Elements per pool chunk of the parallel backend's element launches.
pub(crate) const PARALLEL_CHUNK: usize = 64;

/// Chunks per pool task at the least: 16 chunks of [`PARALLEL_CHUNK`] are
/// the 1 024 elements below which the pool runs a launch inline.
pub(crate) const PARALLEL_MIN_CHUNKS: usize = 16;

/// Apply `f` to the elements of one pool chunk of a segmented launch whose
/// first element is element `start` of the buffer: one division seeds the
/// chunk's slot and index, and the chunk is walked in runs, one per segment
/// it overlaps, so that an inactive segment's run is skipped whole and the
/// element loop carries no mask check.
pub(crate) fn segment_runs<T, F>(
    chunk: &mut [T],
    start: usize,
    seg_len: usize,
    active: &[bool],
    f: &F,
) where
    F: Fn(usize, usize, &mut T),
{
    let (mut s, mut j) = (start / seg_len, start % seg_len);
    let mut rest = chunk;
    while !rest.is_empty() {
        let (run, tail) = rest.split_at_mut(rest.len().min(seg_len - j));
        if active[s] {
            for (k, x) in run.iter_mut().enumerate() {
                f(s, j + k, x);
            }
        }
        (rest, s, j) = (tail, s + 1, 0);
    }
}

impl LaunchBackend for ParallelBackend {
    fn mode(&self) -> ExecutionMode {
        ExecutionMode::Parallel
    }

    fn launch_segments<T, F>(&self, buf: &mut [T], seg_len: usize, active: &[bool], f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut T) + Sync,
    {
        buf.par_chunks_mut(PARALLEL_CHUNK)
            .with_min_len(PARALLEL_MIN_CHUNKS)
            .enumerate()
            .for_each(|(c, chunk)| segment_runs(chunk, c * PARALLEL_CHUNK, seg_len, active, &f));
    }

    fn launch_groups<T, U, F>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        group: usize,
        out: &mut [U],
        windows: Windows,
        f: F,
    ) where
        T: Send,
        U: Send,
        F: Fn(usize, usize, &mut [T], &mut [U]) + Sync,
    {
        // The groups with their windows, listed once on the calling thread
        // so that the pool hands each task disjoint borrows.
        let mut blocks: Vec<_> = groups(buf, seg_len, active, group, out, windows).collect();
        blocks
            .par_iter_mut()
            .with_min_len(1)
            .enumerate()
            .for_each(|(_, (s, first, elements, window))| f(*s, *first, elements, window));
    }

    fn launch_segments_max<T, F, const N: usize>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<[f64; N]>
    where
        T: Send,
        F: Fn(usize, usize, &mut T) -> [f64; N] + Sync,
    {
        // Segments are independent, so fanning the per-segment folds
        // across the pool preserves each segment's index-ordered fold.
        let mut maxima = vec![[f64::NAN; N]; active.len()];
        let mut segments: Vec<_> = buf.chunks_mut(seg_len).zip(&mut maxima).collect();
        segments
            .par_iter_mut()
            .with_min_len(1)
            .enumerate()
            .for_each(|(s, (segment, max))| {
                if active[s] {
                    **max = segment_max(segment, s, &f);
                }
            });
        maxima
    }
}

/// Fixed trip count of the vectorized backend's inner loops. Chunks of a
/// known compile-time length let LLVM unroll and auto-vectorize the
/// kernel body when it inlines to straight-line arithmetic (the ADMM
/// element updates are written as clamp/select arithmetic for exactly
/// this reason); 64 f64 lanes spans 8–32 SIMD registers depending on
/// vector width, wide enough to amortize the loop-carried bookkeeping.
pub(crate) const VECTOR_CHUNK: usize = 64;

/// Chunked, branch-free element loops shaped for compiler
/// auto-vectorization over the structure-of-arrays buffers.
///
/// The scheme differs from [`SequentialBackend`] in loop *shape* only:
///
/// * maps run `chunks_exact_mut(VECTOR_CHUNK)` inner loops with a fixed
///   trip count (plus a scalar remainder), applying the closure in index
///   order — trivially bitwise identical;
/// * scoring launches score one chunk at a time into a stack buffer (the
///   vectorizable part) and then fold that buffer *in index order* into
///   the accumulator, so the sequence of `max` operations is exactly the
///   sequential backend's — bitwise identical by construction;
/// * segmented launches hoist the convergence mask out of the element
///   loop entirely: inactive segments are skipped at segment granularity
///   and the per-element loop body carries **no** mask branch (the
///   parallel backend does the same per pool chunk). Masking inside
///   element bodies stays arithmetic (clamps and selects), never control
///   flow.
///
/// Group launches (the generator updates and the TRON branch solves) run
/// the sequential backend's loop: their bodies are per-component solves
/// that vectorize across the lanes of a group, not across groups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct VectorizedBackend;

/// Apply `f` over segment `s`, `buf`, in fixed-size chunks.
fn map_chunked<T, F>(buf: &mut [T], s: usize, f: &F)
where
    F: Fn(usize, usize, &mut T),
{
    let mut offset = 0;
    let mut chunks = buf.chunks_exact_mut(VECTOR_CHUNK);
    for chunk in &mut chunks {
        for (j, x) in chunk.iter_mut().enumerate() {
            f(s, offset + j, x);
        }
        offset += VECTOR_CHUNK;
    }
    for (j, x) in chunks.into_remainder().iter_mut().enumerate() {
        f(s, offset + j, x);
    }
}

/// Chunk-scored, index-order-folded scoring core over segment `s`, `buf`:
/// scores land in a stack buffer (vectorizable), the fold consumes them in
/// index order (bitwise identical to the sequential fold).
fn max_chunked<T, F, const N: usize>(buf: &mut [T], s: usize, f: &F) -> [f64; N]
where
    F: Fn(usize, usize, &mut T) -> [f64; N],
{
    let mut acc = [f64::NEG_INFINITY; N];
    let mut offset = 0;
    let mut scores = [[0.0f64; N]; VECTOR_CHUNK];
    let mut chunks = buf.chunks_exact_mut(VECTOR_CHUNK);
    for chunk in &mut chunks {
        for (j, x) in chunk.iter_mut().enumerate() {
            scores[j] = f(s, offset + j, x);
        }
        for &s in &scores {
            fold_max(&mut acc, s);
        }
        offset += VECTOR_CHUNK;
    }
    for (j, x) in chunks.into_remainder().iter_mut().enumerate() {
        fold_max(&mut acc, f(s, offset + j, x));
    }
    settle(acc)
}

impl LaunchBackend for VectorizedBackend {
    fn mode(&self) -> ExecutionMode {
        ExecutionMode::Vectorized
    }

    fn launch_segments<T, F>(&self, buf: &mut [T], seg_len: usize, active: &[bool], f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut T) + Sync,
    {
        // The convergence mask is hoisted to segment granularity: the
        // element loop below is branch-free, and inactive segments cost
        // nothing at all.
        for (s, chunk) in buf.chunks_mut(seg_len).enumerate() {
            if !active[s] {
                continue;
            }
            map_chunked(chunk, s, &f);
        }
    }

    fn launch_groups<T, U, F>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        group: usize,
        out: &mut [U],
        windows: Windows,
        f: F,
    ) where
        T: Send,
        U: Send,
        F: Fn(usize, usize, &mut [T], &mut [U]) + Sync,
    {
        SequentialBackend.launch_groups(buf, seg_len, active, group, out, windows, f)
    }

    fn launch_segments_max<T, F, const N: usize>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<[f64; N]>
    where
        T: Send,
        F: Fn(usize, usize, &mut T) -> [f64; N] + Sync,
    {
        buf.chunks_mut(seg_len)
            .zip(active)
            .enumerate()
            .map(|(s, (segment, &live))| {
                if live {
                    max_chunked(segment, s, &f)
                } else {
                    [f64::NAN; N]
                }
            })
            .collect()
    }
}

/// Closed dispatch over the built-in backends. [`Device`](crate::Device)
/// stores one of these, resolved from the configured [`ExecutionMode`] at
/// construction; the kernel layer calls trait methods on it and never
/// matches on modes itself. (An enum rather than `dyn Trait` because the
/// trait's generic methods are not object-safe; adding a backend means
/// adding a variant here — see the module docs.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnyBackend {
    /// Dispatch to [`SequentialBackend`].
    Sequential(SequentialBackend),
    /// Dispatch to [`ParallelBackend`].
    Parallel(ParallelBackend),
    /// Dispatch to [`VectorizedBackend`].
    Vectorized(VectorizedBackend),
}

impl AnyBackend {
    /// Resolve a (possibly `Auto`) mode into a concrete dispatcher.
    pub(crate) fn from_mode(mode: ExecutionMode) -> AnyBackend {
        match mode.resolve() {
            ExecutionMode::Sequential => AnyBackend::Sequential(SequentialBackend),
            ExecutionMode::Parallel => AnyBackend::Parallel(ParallelBackend),
            ExecutionMode::Vectorized => AnyBackend::Vectorized(VectorizedBackend),
            ExecutionMode::Auto => unreachable!("resolve() never returns Auto"),
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $b:ident => $call:expr) => {
        match $self {
            AnyBackend::Sequential($b) => $call,
            AnyBackend::Parallel($b) => $call,
            AnyBackend::Vectorized($b) => $call,
        }
    };
}

impl LaunchBackend for AnyBackend {
    fn mode(&self) -> ExecutionMode {
        dispatch!(self, b => b.mode())
    }

    fn launch_segments<T, F>(&self, buf: &mut [T], seg_len: usize, active: &[bool], f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut T) + Sync,
    {
        dispatch!(self, b => b.launch_segments(buf, seg_len, active, f))
    }

    fn launch_groups<T, U, F>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        group: usize,
        out: &mut [U],
        windows: Windows,
        f: F,
    ) where
        T: Send,
        U: Send,
        F: Fn(usize, usize, &mut [T], &mut [U]) + Sync,
    {
        dispatch!(self, b => b.launch_groups(buf, seg_len, active, group, out, windows, f))
    }

    fn launch_segments_max<T, F, const N: usize>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<[f64; N]>
    where
        T: Send,
        F: Fn(usize, usize, &mut T) -> [f64; N] + Sync,
    {
        dispatch!(self, b => b.launch_segments_max(buf, seg_len, active, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ExecutionMode::*;

    /// The full `Auto` resolution table: env override → worker count →
    /// fallback, plus the identity on concrete modes. This is the
    /// documented precedence, pinned.
    #[test]
    fn auto_resolution_table() {
        let table: &[(Option<&str>, usize, ExecutionMode)] = &[
            // No override: the worker count decides.
            (None, 1, Vectorized),
            (None, 2, Parallel),
            (None, 16, Parallel),
            // Valid overrides win regardless of workers.
            (Some("sequential"), 8, Sequential),
            (Some("seq"), 1, Sequential),
            (Some("parallel"), 1, Parallel),
            (Some("par"), 1, Parallel),
            (Some("vectorized"), 8, Vectorized),
            (Some("vec"), 8, Vectorized),
            (Some("simd"), 8, Vectorized),
            (Some("  Parallel \n"), 1, Parallel),
            (Some("VECTORIZED"), 8, Vectorized),
            // `auto` and invalid values fall through to the worker rule.
            (Some("auto"), 1, Vectorized),
            (Some("auto"), 4, Parallel),
            (Some("gpu"), 1, Vectorized),
            (Some(""), 4, Parallel),
            (Some("3"), 1, Vectorized),
        ];
        for &(env, workers, want) in table {
            assert_eq!(
                Auto.resolve_with(env, workers),
                want,
                "Auto with env={env:?} workers={workers}"
            );
        }
        // Concrete modes ignore both inputs entirely.
        for mode in [Sequential, Parallel, Vectorized] {
            for env in [None, Some("parallel"), Some("garbage")] {
                for workers in [1, 8] {
                    assert_eq!(mode.resolve_with(env, workers), mode);
                }
            }
        }
    }

    #[test]
    fn resolve_never_returns_auto() {
        for mode in [Auto, Sequential, Parallel, Vectorized] {
            assert_ne!(mode.resolve(), Auto);
        }
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for mode in [Auto, Sequential, Parallel, Vectorized] {
            assert_eq!(ExecutionMode::parse(mode.label()), Some(mode));
            assert_eq!(mode.to_string(), mode.label());
        }
        assert_eq!(ExecutionMode::parse("cuda"), None);
    }

    #[test]
    fn any_backend_reports_its_mode() {
        assert_eq!(AnyBackend::from_mode(Sequential).mode(), Sequential);
        assert_eq!(AnyBackend::from_mode(Parallel).mode(), Parallel);
        assert_eq!(AnyBackend::from_mode(Vectorized).mode(), Vectorized);
        assert_ne!(AnyBackend::from_mode(Auto).mode(), Auto);
    }
}
