//! A steady-state `refactor_dense_tail` makes a constant number of
//! allocations — the factor's two value vectors, the `y` accumulator and the
//! dense tail block — whatever the dimension: nothing is allocated per row,
//! per panel or per elimination-tree level.
//!
//! A `#[global_allocator]` is per binary, so this test lives alone in its
//! own; the counter is per thread, so whatever the test harness allocates on
//! its other threads meanwhile is not charged to it.

use gridsim_sparse::{Coo, LdlOptions, LdlSymbolic};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisation and no destructor: touching it from inside the
    // allocator can neither allocate nor run during thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `f` and return its result with the number of allocations this thread
/// made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// 5-point stencil on a `rows × cols` grid, diagonally dominant: a deep
/// elimination tree, real fill, and a dense separator at the end.
fn grid_laplacian(rows: usize, cols: usize) -> gridsim_sparse::Csc {
    let n = rows * cols;
    let mut coo = Coo::new(n, n);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            coo.push(i, i, 4.5);
            for j in [
                (c + 1 < cols).then_some(i + 1),
                (r + 1 < rows).then_some(i + cols),
            ]
            .into_iter()
            .flatten()
            {
                coo.push(i, j, -1.0);
                coo.push(j, i, -1.0);
            }
        }
    }
    coo.to_csc()
}

#[test]
fn steady_state_refactor_allocates_the_same_at_any_dimension() {
    // The counter is live: a boxed value is seen.
    let (_, n) = counted(|| std::hint::black_box(Box::new(1u64)));
    assert!(n >= 1, "counting allocator is not installed");

    let per_call = |rows: usize, cols: usize| {
        let a = grid_laplacian(rows, cols);
        let sym = LdlSymbolic::analyze_amd(&a).unwrap();
        let lower_nnz = (a.nnz() - a.ncols) / 2;
        assert!(sym.num_levels() > 4 && sym.lnz() > lower_nnz, "real fill");
        assert!(sym.dim() - sym.tail_start() > 4, "a dense tail to factor");
        let opts = LdlOptions {
            expected_signs: vec![1; a.ncols],
            ..Default::default()
        };
        let (first, n_first) = counted(|| sym.refactor_dense_tail(&a.values, &opts).unwrap());
        for round in 0..3 {
            let (again, n) = counted(|| sym.refactor_dense_tail(&a.values, &opts).unwrap());
            assert_eq!(n, n_first, "round {round}: nothing is built lazily");
            assert_eq!(again.l_values(), first.l_values());
            assert_eq!(again.d_values(), first.d_values());
        }
        n_first
    };
    let (small, large) = (per_call(5, 10), per_call(20, 25));
    assert_eq!(small, 4, "L values, D values, y, the tail block");
    assert_eq!(large, small, "dim 500 allocates what dim 50 does");
}
