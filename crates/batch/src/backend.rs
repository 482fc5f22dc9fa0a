//! Execution backends: the [`LaunchBackend`] dispatch trait, its three
//! implementors, and the [`ExecutionMode`] selector.
//!
//! The paper's thesis is that ACOPF kernels expressed as data-parallel
//! element operations port across execution substrates. This module is
//! where that portability lives: a kernel body is written once (a closure
//! over an element index), and the backend chooses the iteration scheme —
//! a work-stealing thread pool, a plain sequential loop, or a chunked
//! loop shaped for compiler auto-vectorization.
//!
//! # The dispatch trait
//!
//! [`LaunchBackend`] carries the three launch/reduce geometries the solvers
//! use (whole-buffer map, segmented map, segmented max-reduction) plus
//! stats billing. [`Device`](crate::Device)
//! holds an [`AnyBackend`] — a closed enum over the implementors — so the
//! kernel layer in `kernel.rs` contains **no** backend matching at all:
//! every launch and reduction goes through trait dispatch. The trait's
//! methods are generic over the element type and kernel closure, which is
//! why dispatch is an enum rather than a `dyn` object (generic methods
//! are not object-safe).
//!
//! # The determinism contract
//!
//! Every backend MUST produce bitwise-identical buffers and reduction
//! values to [`SequentialBackend`] for the same launch sequence:
//!
//! * map and segmented launches touch disjoint elements, so any schedule
//!   that applies the closure exactly once per (active) element conforms;
//! * reductions may *evaluate* per-element scores in any order but MUST
//!   *combine* them in index order, because floating-point `max` is
//!   scheduling-sensitive through NaN and signed-zero handling;
//! * inactive segments of a masked launch must not be touched at all
//!   (convergence masking relies on converged scenarios' state freezing).
//!
//! The contract is executable: [`crate::conformance`] checks each clause
//! against [`SequentialBackend`] on chunk-boundary-hostile sizes, and
//! only backends that pass may be selected by [`ExecutionMode::Auto`].
//!
//! # Writing a new backend
//!
//! A new backend is a plug-in, not a rewrite:
//!
//! 1. define a unit struct and implement [`LaunchBackend`] for it (the
//!    reduction must fold in index order — see the contract above);
//! 2. add an [`AnyBackend`] variant delegating to it, a constructor on
//!    [`Device`](crate::Device), and an [`ExecutionMode`] variant;
//! 3. run it through [`crate::conformance::assert_backend_conformance`]
//!    in a test; only then may [`ExecutionMode::resolve_with`] return it.
//!
//! Everything outside this module and `device.rs` is untouched: the
//! kernel layer, the pools, and every solver dispatch through the trait.

use crate::stats::DeviceStats;
use rayon::prelude::*;
use std::time::Instant;

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
    /// share mutable state and reductions combine in index order.
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

    /// Resolve `Auto` against the real environment: [`BACKEND_ENV`] and
    /// the parallel runtime's worker count. Concrete modes return
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
    pub fn resolve_with(self, env: Option<&str>, workers: usize) -> ExecutionMode {
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

/// The kernel-execution dispatch trait: one launch/reduce surface, many
/// iteration schemes. See the module docs for the determinism contract
/// every implementor must satisfy and the guide for adding one.
///
/// Methods operate on raw slices; the [`Device`](crate::Device) wrappers
/// own buffer bookkeeping (length assertions, live-element accounting,
/// empty-reduction conventions) so backends stay pure iteration schemes.
pub trait LaunchBackend {
    /// The concrete mode this backend implements (never
    /// [`ExecutionMode::Auto`]); names the backend in stats and benches.
    fn mode(&self) -> ExecutionMode;

    /// Apply `f` exactly once to every element. `min_len` is the parallel
    /// scheduling granularity (`usize::MAX` keeps the default cheap-kernel
    /// threshold, `1` fans out block-per-subproblem work); backends
    /// without a scheduler ignore it.
    fn launch<T, F>(&self, buf: &mut [T], min_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync;

    /// Apply `f` to every element of the segments whose mask entry is
    /// `true`; elements of inactive segments must not be touched. `buf`
    /// holds `active.len()` segments of `seg_len` elements; `f` receives
    /// the *global* element index.
    fn launch_segments<T, F>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        min_len: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut T) + Sync;

    /// Per-segment max-reduction: one value per segment, `f64::NAN` for
    /// inactive segments (whose elements are not even visited), and the
    /// empty-max convention `NEG_INFINITY → 0.0` applied per segment.
    /// Each segment folds with `f64::max` in index order; scores may be
    /// *evaluated* in any order.
    fn reduce_max_segments<T, F>(
        &self,
        buf: &[T],
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<f64>
    where
        T: Sync,
        F: Fn(usize, &T) -> f64 + Sync;

    /// Bill a completed launch to the device's statistics stream. Part of
    /// the trait so a future backend with its own timing source (device
    /// events rather than host clocks) can override how elapsed time is
    /// measured; the default uses the host monotonic clock.
    fn bill(&self, stats: &DeviceStats, name: &str, elements: u64, start: Instant) {
        stats.record_launch(name, elements, start.elapsed());
    }
}

/// Fold one segment with the max-reduction conventions shared by the
/// sequential and parallel backends (the vectorized backend reproduces
/// the same fold chunk-wise, bit for bit).
fn fold_segment_max<T, F>(data: &[T], seg_len: usize, active: &[bool], s: usize, f: &F) -> f64
where
    F: Fn(usize, &T) -> f64,
{
    if !active[s] {
        return f64::NAN;
    }
    let base = s * seg_len;
    let m = data[base..base + seg_len]
        .iter()
        .enumerate()
        .map(|(j, x)| f(base + j, x))
        .fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        0.0
    } else {
        m
    }
}

/// One element at a time on the calling thread: the reference
/// implementation of the determinism contract, and the backend of choice
/// for debugging and deterministic micro-benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequentialBackend;

impl LaunchBackend for SequentialBackend {
    fn mode(&self) -> ExecutionMode {
        ExecutionMode::Sequential
    }

    fn launch<T, F>(&self, buf: &mut [T], _min_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        for (i, x) in buf.iter_mut().enumerate() {
            f(i, x);
        }
    }

    fn launch_segments<T, F>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        _min_len: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        for (s, chunk) in buf.chunks_mut(seg_len).enumerate() {
            if !active[s] {
                continue;
            }
            for (j, x) in chunk.iter_mut().enumerate() {
                f(s * seg_len + j, x);
            }
        }
    }

    fn reduce_max_segments<T, F>(
        &self,
        buf: &[T],
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<f64>
    where
        T: Sync,
        F: Fn(usize, &T) -> f64 + Sync,
    {
        (0..active.len())
            .map(|s| fold_segment_max(buf, seg_len, active, s, &f))
            .collect()
    }
}

/// Thread blocks on the Rayon work-stealing pool — the GPU block-scheduler
/// stand-in. Launches write disjoint elements into index-ordered storage
/// and reductions evaluate scores in parallel but combine them in index
/// order, so results are bitwise identical to [`SequentialBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelBackend;

impl LaunchBackend for ParallelBackend {
    fn mode(&self) -> ExecutionMode {
        ExecutionMode::Parallel
    }

    fn launch<T, F>(&self, buf: &mut [T], min_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let it = buf.par_iter_mut();
        let it = if min_len == usize::MAX {
            it
        } else {
            it.with_min_len(min_len)
        };
        it.enumerate().for_each(|(i, x)| f(i, x));
    }

    fn launch_segments<T, F>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        min_len: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let live_segments = active.iter().filter(|&&a| a).count();
        let it = buf.par_iter_mut();
        let it = if min_len == usize::MAX {
            it
        } else {
            it.with_min_len(min_len)
        };
        if live_segments == active.len() {
            // Fast path for the common all-active case: no per-element
            // mask check. (Skipping whole inactive chunks in parallel
            // would need chunked parallel iteration the rayon shim does
            // not provide; the masked path below pays one cheap check per
            // element instead.)
            it.enumerate().for_each(|(i, x)| f(i, x));
        } else {
            it.enumerate().for_each(|(i, x)| {
                if active[i / seg_len] {
                    f(i, x)
                }
            });
        }
    }

    fn reduce_max_segments<T, F>(
        &self,
        buf: &[T],
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<f64>
    where
        T: Sync,
        F: Fn(usize, &T) -> f64 + Sync,
    {
        // Segments are independent, so fanning the per-segment folds
        // across the pool preserves each segment's index-ordered fold.
        active
            .par_iter()
            .enumerate()
            .map(|(s, _)| fold_segment_max(buf, seg_len, active, s, &f))
            .collect::<Vec<f64>>()
    }
}

/// Fixed trip count of the vectorized backend's inner loops. Chunks of a
/// known compile-time length let LLVM unroll and auto-vectorize the
/// kernel body when it inlines to straight-line arithmetic (the ADMM
/// element updates are written as clamp/select arithmetic for exactly
/// this reason); 64 f64 lanes spans 8–32 SIMD registers depending on
/// vector width, wide enough to amortize the loop-carried bookkeeping.
pub const VECTOR_CHUNK: usize = 64;

/// Chunked, branch-free element loops shaped for compiler
/// auto-vectorization over the structure-of-arrays buffers.
///
/// The scheme differs from [`SequentialBackend`] in loop *shape* only:
///
/// * maps run `chunks_exact_mut(VECTOR_CHUNK)` inner loops with a fixed
///   trip count (plus a scalar remainder), applying the closure in index
///   order — trivially bitwise identical;
/// * reductions score one chunk at a time into a stack buffer (the
///   vectorizable part) and then fold that buffer *in index order* into
///   the accumulator, so the sequence of `max` operations is exactly the
///   sequential backend's — bitwise identical by construction;
/// * segmented launches hoist the convergence mask out of the element
///   loop entirely: inactive segments are skipped at segment granularity
///   and the per-element loop body carries **no** mask branch (compare
///   the parallel backend, which pays a per-element `active[i / seg_len]`
///   check on masked launches). Masking inside element bodies stays
///   arithmetic (clamps and selects), never control flow.
///
/// Blocked launches (`min_len == 1`, the TRON branch solves) take the
/// same chunked path; their per-element bodies are iterative solvers that
/// do not auto-vectorize, but the schedule is element-ordered so they
/// remain bitwise identical — the conformance suite holds this backend to
/// the full bitwise contract on every geometry, with no report-identical
/// carve-out needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VectorizedBackend;

/// Apply `f` over `buf` in fixed-size chunks; `base` is the global index
/// of `buf[0]`.
fn map_chunked<T, F>(buf: &mut [T], base: usize, f: &F)
where
    F: Fn(usize, &mut T),
{
    let mut offset = base;
    let mut chunks = buf.chunks_exact_mut(VECTOR_CHUNK);
    for chunk in &mut chunks {
        for (j, x) in chunk.iter_mut().enumerate() {
            f(offset + j, x);
        }
        offset += VECTOR_CHUNK;
    }
    for (j, x) in chunks.into_remainder().iter_mut().enumerate() {
        f(offset + j, x);
    }
}

/// Chunk-scored, index-order-folded max-reduction core: scores land in a
/// stack buffer (vectorizable), the fold consumes them in index order
/// (bitwise identical to the sequential fold). `base` is the global index
/// of `buf[0]`.
fn max_chunked<T, F>(buf: &[T], base: usize, f: &F) -> f64
where
    F: Fn(usize, &T) -> f64,
{
    let mut acc = f64::NEG_INFINITY;
    let mut offset = base;
    let mut scores = [0.0f64; VECTOR_CHUNK];
    let mut chunks = buf.chunks_exact(VECTOR_CHUNK);
    for chunk in &mut chunks {
        for (j, x) in chunk.iter().enumerate() {
            scores[j] = f(offset + j, x);
        }
        for &s in &scores {
            acc = acc.max(s);
        }
        offset += VECTOR_CHUNK;
    }
    for (j, x) in chunks.remainder().iter().enumerate() {
        acc = acc.max(f(offset + j, x));
    }
    acc
}

impl LaunchBackend for VectorizedBackend {
    fn mode(&self) -> ExecutionMode {
        ExecutionMode::Vectorized
    }

    fn launch<T, F>(&self, buf: &mut [T], _min_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        map_chunked(buf, 0, &f);
    }

    fn launch_segments<T, F>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        _min_len: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        // The convergence mask is hoisted to segment granularity: the
        // element loop below is branch-free, and inactive segments cost
        // nothing at all.
        for (s, chunk) in buf.chunks_mut(seg_len).enumerate() {
            if !active[s] {
                continue;
            }
            map_chunked(chunk, s * seg_len, &f);
        }
    }

    fn reduce_max_segments<T, F>(
        &self,
        buf: &[T],
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<f64>
    where
        T: Sync,
        F: Fn(usize, &T) -> f64 + Sync,
    {
        (0..active.len())
            .map(|s| {
                if !active[s] {
                    return f64::NAN;
                }
                let base = s * seg_len;
                let m = max_chunked(&buf[base..base + seg_len], base, &f);
                if m == f64::NEG_INFINITY {
                    0.0
                } else {
                    m
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
pub enum AnyBackend {
    /// Dispatch to [`SequentialBackend`].
    Sequential(SequentialBackend),
    /// Dispatch to [`ParallelBackend`].
    Parallel(ParallelBackend),
    /// Dispatch to [`VectorizedBackend`].
    Vectorized(VectorizedBackend),
}

impl AnyBackend {
    /// Resolve a (possibly `Auto`) mode into a concrete dispatcher.
    pub fn from_mode(mode: ExecutionMode) -> AnyBackend {
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

    fn launch<T, F>(&self, buf: &mut [T], min_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        dispatch!(self, b => b.launch(buf, min_len, f))
    }

    fn launch_segments<T, F>(
        &self,
        buf: &mut [T],
        seg_len: usize,
        active: &[bool],
        min_len: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        dispatch!(self, b => b.launch_segments(buf, seg_len, active, min_len, f))
    }

    fn reduce_max_segments<T, F>(
        &self,
        buf: &[T],
        seg_len: usize,
        active: &[bool],
        f: F,
    ) -> Vec<f64>
    where
        T: Sync,
        F: Fn(usize, &T) -> f64 + Sync,
    {
        dispatch!(self, b => b.reduce_max_segments(buf, seg_len, active, f))
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
