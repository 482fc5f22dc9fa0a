//! Offline stand-in for the `rayon` crate.
//!
//! Implements the data-parallel iterator subset used by the workspace
//! (`par_iter`, `par_iter_mut`, `par_chunks_mut`, `enumerate`, `zip`,
//! `map`, `for_each`, `reduce`, `sum`, `with_min_len`) on top of a persistent work-stealing
//! thread pool (see `pool`) instead of real rayon's.
//!
//! Two guarantees that real rayon does **not** make:
//!
//! 1. **Deterministic reductions.** `map(..).sum()` and `map(..).reduce(..)`
//!    materialize mapped values in index order (the map runs in parallel)
//!    and combine them sequentially, so parallel results are bit-identical
//!    to sequential ones regardless of thread count or scheduling.
//! 2. **Deterministic coverage.** A parallel iteration applies its closure
//!    to each index exactly once over disjoint chunk ranges; only the
//!    thread assignment varies between runs.
//!
//! The ADMM solver's Parallel-vs-Sequential agreement tests rely on (1).
//!
//! Scheduling: inputs shorter than the default `min_len` (1024) run inline —
//! pool dispatch costs more than tiny kernels — and `with_min_len(n)`
//! overrides that floor, exactly like real rayon's
//! `IndexedParallelIterator::with_min_len`. Heavy per-element workloads
//! (e.g. one trust-region solve per element) use `with_min_len(1)` to fan
//! out even tiny batches.

mod pool;

/// Inputs below this length run on the calling thread unless a smaller
/// `with_min_len` is requested: pool dispatch overhead dominates for tiny
/// kernels, and results are identical either way.
const PARALLEL_THRESHOLD: usize = 1024;

/// Number of threads the global pool schedules across (mirrors
/// `rayon::current_num_threads`). Respects `GRIDSIM_POOL_THREADS`.
pub fn current_num_threads() -> usize {
    pool::global().workers()
}

/// Shareable raw pointer for handing disjoint `&mut` ranges to pool chunks.
/// (Accessed through [`SendPtr::get`] so closures capture the whole wrapper,
/// not the raw-pointer field — 2021-edition closures capture per field.)
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// `rayon::prelude` equivalent: brings the `par_iter*` extension trait and
/// adapter types into scope.
pub mod prelude {
    pub use crate::{
        EnumeratedParChunksMut, EnumeratedParIter, EnumeratedParIterMut, EnumeratedParZipMut,
        MappedParIter, ParChunksMut, ParIter, ParIterMut, ParZipMut, ParallelSlice,
    };
}

/// Extension trait adding `par_iter` / `par_iter_mut` / `par_chunks_mut` to
/// slices.
pub trait ParallelSlice<T> {
    /// Shared parallel iterator over the elements.
    fn par_iter(&self) -> ParIter<'_, T>;
    /// Exclusive parallel iterator over the elements.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Exclusive parallel iterator over consecutive chunks of `chunk_size`
    /// elements (the last one shorter when `chunk_size` does not divide the
    /// length). Panics when `chunk_size` is 0.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter {
            data: self,
            min_len: PARALLEL_THRESHOLD,
        }
    }
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut {
            data: self,
            min_len: PARALLEL_THRESHOLD,
        }
    }
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParChunksMut {
            data: self,
            chunk_size,
            min_len: PARALLEL_THRESHOLD,
        }
    }
}

/// Shared parallel iterator over a slice.
pub struct ParIter<'a, T> {
    data: &'a [T],
    min_len: usize,
}

impl<'a, T> ParIter<'a, T> {
    /// Lower bound on the indices each parallel chunk receives (like real
    /// rayon's `with_min_len`). Values below the default threshold opt tiny
    /// inputs into parallel execution — worthwhile only when each element is
    /// expensive.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Pair each element with its index.
    pub fn enumerate(self) -> EnumeratedParIter<'a, T> {
        EnumeratedParIter {
            data: self.data,
            min_len: self.min_len,
        }
    }
}

/// Index-annotated shared parallel iterator.
pub struct EnumeratedParIter<'a, T> {
    data: &'a [T],
    min_len: usize,
}

impl<'a, T: Sync> EnumeratedParIter<'a, T> {
    /// See [`ParIter::with_min_len`].
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Map each `(index, &element)` pair through `f`.
    pub fn map<R, F>(self, f: F) -> MappedParIter<'a, T, F, R>
    where
        F: Fn((usize, &T)) -> R + Sync,
        R: Send,
    {
        MappedParIter {
            data: self.data,
            min_len: self.min_len,
            f,
            _marker: std::marker::PhantomData,
        }
    }

    /// Apply `f` to every `(index, &element)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &T)) + Sync,
    {
        let data = self.data;
        pool::global().run(data.len(), self.min_len, &|start, end| {
            for (i, x) in data[start..end].iter().enumerate() {
                f((start + i, x));
            }
        });
    }
}

/// Result of mapping an enumerated shared iterator.
pub struct MappedParIter<'a, T, F, R> {
    data: &'a [T],
    min_len: usize,
    f: F,
    _marker: std::marker::PhantomData<R>,
}

impl<'a, T: Sync, F, R> MappedParIter<'a, T, F, R>
where
    F: Fn((usize, &T)) -> R + Sync,
    R: Send,
{
    /// Evaluate the map in parallel, preserving index order: chunk `i`
    /// writes results straight into slots `[start, end)` of the output, so
    /// the materialized vector is identical to a sequential map regardless
    /// of which thread ran which chunk.
    fn materialize(self) -> Vec<R> {
        let len = self.data.len();
        let mut out: Vec<R> = Vec::with_capacity(len);
        {
            let data = self.data;
            let f = &self.f;
            let out_ptr = SendPtr(out.as_mut_ptr());
            pool::global().run(len, self.min_len, &|start, end| {
                let base = out_ptr.get();
                for (i, x) in data[start..end].iter().enumerate() {
                    // SAFETY: chunks own disjoint [start, end) ranges within
                    // the vector's allocated capacity; `set_len` below runs
                    // only after every chunk finished.
                    unsafe { base.add(start + i).write(f((start + i, x))) };
                }
            });
        }
        // SAFETY: the pool call returned, so all `len` slots are initialized.
        // (If a chunk panicked, the pool rethrows before this line; `out`
        // then drops with len 0 and elements other chunks already wrote are
        // leaked, not double-dropped — the safe choice on the panic path.)
        unsafe { out.set_len(len) };
        out
    }

    /// Collect the mapped values in index order (like real rayon's
    /// `collect` on an indexed parallel iterator).
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<R>,
    {
        self.materialize().into_iter().collect()
    }

    /// Sum the mapped values. The sum itself is sequential and in index
    /// order, so the result is deterministic and backend-independent.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R>,
    {
        self.materialize().into_iter().sum()
    }

    /// Fold the mapped values with `op`, starting from `identity()`. The
    /// fold is sequential and in index order (deterministic), unlike real
    /// rayon's tree reduction.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R,
        OP: Fn(R, R) -> R,
    {
        self.materialize().into_iter().fold(identity(), op)
    }
}

/// Exclusive parallel iterator over a slice.
pub struct ParIterMut<'a, T> {
    data: &'a mut [T],
    min_len: usize,
}

impl<'a, T> ParIterMut<'a, T> {
    /// See [`ParIter::with_min_len`].
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Pair each element with its index.
    pub fn enumerate(self) -> EnumeratedParIterMut<'a, T> {
        EnumeratedParIterMut {
            data: self.data,
            min_len: self.min_len,
        }
    }

    /// Walk two equal-length slices in lockstep.
    pub fn zip<'b, B>(self, other: ParIterMut<'b, B>) -> ParZipMut<'a, 'b, T, B> {
        assert_eq!(
            self.data.len(),
            other.data.len(),
            "zip requires equal lengths"
        );
        ParZipMut {
            a: self.data,
            b: other.data,
            min_len: self.min_len,
        }
    }
}

/// Index-annotated exclusive parallel iterator.
pub struct EnumeratedParIterMut<'a, T> {
    data: &'a mut [T],
    min_len: usize,
}

impl<'a, T: Send> EnumeratedParIterMut<'a, T> {
    /// See [`ParIter::with_min_len`].
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Apply `f` to every `(index, &mut element)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut T)) + Sync,
    {
        let len = self.data.len();
        let ptr = SendPtr(self.data.as_mut_ptr());
        pool::global().run(len, self.min_len, &|start, end| {
            let base = ptr.get();
            for i in start..end {
                // SAFETY: concurrent chunks cover disjoint index ranges, so
                // each element's `&mut` is exclusive.
                f((i, unsafe { &mut *base.add(i) }));
            }
        });
    }
}

/// Lockstep exclusive parallel iterator over two slices.
pub struct ParZipMut<'a, 'b, A, B> {
    a: &'a mut [A],
    b: &'b mut [B],
    min_len: usize,
}

impl<'a, 'b, A, B> ParZipMut<'a, 'b, A, B> {
    /// Pair each element pair with its index.
    pub fn enumerate(self) -> EnumeratedParZipMut<'a, 'b, A, B> {
        EnumeratedParZipMut {
            a: self.a,
            b: self.b,
            min_len: self.min_len,
        }
    }
}

/// Index-annotated lockstep exclusive parallel iterator.
pub struct EnumeratedParZipMut<'a, 'b, A, B> {
    a: &'a mut [A],
    b: &'b mut [B],
    min_len: usize,
}

impl<'a, 'b, A: Send, B: Send> EnumeratedParZipMut<'a, 'b, A, B> {
    /// See [`ParIter::with_min_len`].
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Apply `f` to every `(index, (&mut a, &mut b))` triple.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, (&mut A, &mut B))) + Sync,
    {
        let len = self.a.len();
        let pa = SendPtr(self.a.as_mut_ptr());
        let pb = SendPtr(self.b.as_mut_ptr());
        pool::global().run(len, self.min_len, &|start, end| {
            let (base_a, base_b) = (pa.get(), pb.get());
            for i in start..end {
                // SAFETY: disjoint chunk ranges; lengths were asserted equal
                // when the zip was built.
                let ax = unsafe { &mut *base_a.add(i) };
                let bx = unsafe { &mut *base_b.add(i) };
                f((i, (ax, bx)));
            }
        });
    }
}

/// Exclusive parallel iterator over consecutive chunks of a slice.
pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk_size: usize,
    min_len: usize,
}

impl<'a, T> ParChunksMut<'a, T> {
    /// Lower bound on the *chunks* each parallel task receives (see
    /// [`ParIter::with_min_len`]).
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Pair each chunk with its index.
    pub fn enumerate(self) -> EnumeratedParChunksMut<'a, T> {
        EnumeratedParChunksMut {
            data: self.data,
            chunk_size: self.chunk_size,
            min_len: self.min_len,
        }
    }
}

/// Index-annotated exclusive parallel iterator over chunks.
pub struct EnumeratedParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk_size: usize,
    min_len: usize,
}

impl<'a, T: Send> EnumeratedParChunksMut<'a, T> {
    /// Apply `f` to every `(chunk index, &mut chunk)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let (len, size) = (self.data.len(), self.chunk_size);
        let ptr = SendPtr(self.data.as_mut_ptr());
        pool::global().run(len.div_ceil(size), self.min_len, &|start, end| {
            let base = ptr.get();
            for c in start..end {
                let lo = c * size;
                let hi = (lo + size).min(len);
                // SAFETY: concurrent tasks cover disjoint chunk-index ranges,
                // chunk `c` is the element range `[c·size, min((c+1)·size,
                // len))` of the borrowed slice, and distinct chunks' ranges
                // are disjoint, so each chunk's `&mut` is exclusive.
                f((c, unsafe {
                    std::slice::from_raw_parts_mut(base.add(lo), hi - lo)
                }));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_mut_covers_every_element_once_in_order() {
        for (n, size) in [(0usize, 3usize), (1, 2), (7, 2), (9, 3), (5000, 7)] {
            let mut v = vec![0usize; n];
            v.par_chunks_mut(size)
                .with_min_len(1)
                .enumerate()
                .for_each(|(c, chunk)| {
                    assert!(!chunk.is_empty() && chunk.len() <= size);
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x += c * size + j + 1;
                    }
                });
            assert!(
                v.iter().enumerate().all(|(i, &x)| x == i + 1),
                "n={n} size={size}"
            );
        }
    }

    #[test]
    fn par_for_each_mut_covers_all_indices() {
        for n in [0usize, 1, 7, 5000] {
            let mut v = vec![0usize; n];
            v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i + 1);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
        }
    }

    #[test]
    fn par_zip_covers_all_indices() {
        let n = 4096;
        let mut a = vec![0usize; n];
        let mut b = vec![0usize; n];
        a.par_iter_mut()
            .zip(b.par_iter_mut())
            .enumerate()
            .for_each(|(i, (x, y))| {
                *x = i;
                *y = 2 * i;
            });
        assert!(a.iter().enumerate().all(|(i, &x)| x == i));
        assert!(b.iter().enumerate().all(|(i, &y)| y == 2 * i));
    }

    #[test]
    fn parallel_sum_is_bit_identical_to_sequential() {
        let v: Vec<f64> = (0..10_000).map(|i| (i as f64).sin() * 1e-3).collect();
        let seq: f64 = v.iter().sum();
        let par: f64 = v.par_iter().enumerate().map(|(_, x)| *x).sum();
        assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    fn parallel_reduce_matches_fold() {
        let v: Vec<f64> = (0..5000).map(|i| ((i * 31) % 97) as f64 - 48.0).collect();
        let par = v
            .par_iter()
            .enumerate()
            .map(|(_, x)| x.abs())
            .reduce(|| f64::NEG_INFINITY, f64::max);
        let seq = v.iter().map(|x| x.abs()).fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(par, seq);
    }

    #[test]
    fn with_min_len_parallelizes_tiny_inputs() {
        // 9 elements is far below the default threshold; with_min_len(1)
        // must still visit every index exactly once and preserve order in
        // collect.
        let v: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let doubled: Vec<f64> = v
            .par_iter()
            .with_min_len(1)
            .enumerate()
            .map(|(i, x)| x * 2.0 + i as f64)
            .collect();
        let expect: Vec<f64> = v
            .iter()
            .enumerate()
            .map(|(i, x)| x * 2.0 + i as f64)
            .collect();
        assert_eq!(doubled, expect);

        let mut w = [0usize; 9];
        w.par_iter_mut()
            .with_min_len(1)
            .enumerate()
            .for_each(|(i, x)| *x = i * i);
        assert!(w.iter().enumerate().all(|(i, &x)| x == i * i));
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }
}
