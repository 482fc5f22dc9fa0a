//! One in-place TRON solve of a branch subproblem performs zero heap
//! allocations.
//!
//! A `#[global_allocator]` is per binary, so this test lives alone in its
//! own; the counter is per thread, so whatever the test harness allocates on
//! its other threads while the solve runs is not charged to it.

use gridsim_acopf::flows::BranchFlow;
use gridsim_admm::branch_problem::{BranchProblem, ConsensusTerm};
use gridsim_grid::branch::Branch;
use gridsim_tron::{TronOptions, TronSolver, TronStatus};
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

/// A branch a few ADMM iterations in: every consensus term active, and —
/// with a limit — both ALM terms.
fn branch_problem(with_limit: bool) -> BranchProblem {
    let y = Branch::line(1, 2, 0.02, 0.12, 0.05, 130.0).admittance();
    let mut p = BranchProblem::new(BranchFlow::all_from_admittance(&y), 0.9, 1.1, 0.9, 1.1);
    for k in 0..4 {
        p.flow_terms[k] = ConsensusTerm {
            target: 0.1 * k as f64 - 0.15,
            y: 0.2 - 0.05 * k as f64,
            rho: 10.0,
        };
        p.volt_terms[k] = ConsensusTerm {
            target: [1.02, 0.05, 0.98, -0.02][k],
            y: [0.5, -0.3, 0.1, 0.2][k],
            rho: 1000.0,
        };
    }
    if with_limit {
        p.limit_sq = (0.99f64 * 1.3).powi(2);
        p.alm_lambda = [0.4, -0.2];
        p.alm_rho = 25.0;
    }
    p
}

#[test]
fn in_place_branch_solve_never_allocates() {
    // The counter is live: a boxed value is seen.
    let (_, n) = counted(|| std::hint::black_box(Box::new(1u64)));
    assert!(n >= 1, "counting allocator is not installed");

    let solver = TronSolver::new(TronOptions::default());
    for with_limit in [false, true] {
        let problem = branch_problem(with_limit);

        let mut x = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let (cold, n) = counted(|| solver.solve_in_place(&problem, &mut x));
        assert_eq!(n, 0, "cold solve allocated (limit: {with_limit})");
        assert!(cold.iterations > 1, "cold solve did no work: {cold:?}");
        assert!(cold.pg_norm < 1e-6, "cold solve did not converge: {cold:?}");

        let (warm, n) = counted(|| solver.solve_in_place(&problem, &mut x));
        assert_eq!(
            n, 0,
            "converged-start solve allocated (limit: {with_limit})"
        );
        assert_ne!(warm.status, TronStatus::MaxIter, "{warm:?}");
        assert!(warm.objective <= cold.objective, "{cold:?} then {warm:?}");
    }
}
