//! A steady-state `refactor_on` allocates the returned factor's two value
//! vectors and nothing else: row tasks, staged values and `y` scratch come
//! from the workspace the first call built.
//!
//! A `#[global_allocator]` is per binary, so this test lives alone in its
//! own; the counter is per thread, so whatever the test harness allocates on
//! its other threads meanwhile is not charged to it — and the sequential
//! device runs every block on the calling thread.

use gridsim_batch::Device;
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

/// 5-point stencil on a `side × side` grid, diagonally dominant: many
/// levels, many rows per level, real fill.
fn grid_laplacian(side: usize) -> gridsim_sparse::Csc {
    let n = side * side;
    let mut coo = Coo::new(n, n);
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            coo.push(i, i, 4.5);
            for j in [
                (c + 1 < side).then_some(i + 1),
                (r + 1 < side).then_some(i + side),
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
fn steady_state_refactor_on_allocates_only_the_factor() {
    // The counter is live: a boxed value is seen.
    let (_, n) = counted(|| std::hint::black_box(Box::new(1u64)));
    assert!(n >= 1, "counting allocator is not installed");

    let a = grid_laplacian(12);
    let sym = LdlSymbolic::analyze_amd(&a).unwrap();
    assert!(sym.num_levels() > 4 && sym.lnz() > a.nnz());
    let opts = LdlOptions {
        expected_signs: vec![1; a.ncols],
        ..Default::default()
    };
    let device = Device::sequential();

    let (first, built) = counted(|| sym.refactor_on(&device, &a.values, &opts).unwrap());
    assert!(built > 2, "the first call builds the workspace");
    for round in 0..3 {
        let (again, n) = counted(|| sym.refactor_on(&device, &a.values, &opts).unwrap());
        assert_eq!(n, 2, "round {round}: the factor's L and D vectors only");
        assert_eq!(again.l_values(), first.l_values());
        assert_eq!(again.d_values(), first.d_values());
    }
}
