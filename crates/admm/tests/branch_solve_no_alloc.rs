//! One in-place TRON solve of a branch subproblem performs zero heap
//! allocations, and so does a grouped `branch_tron`-shaped launch: the
//! device's group launch over masked segments, each group's blocks packed
//! into lanes and solved in lock-step, each writing its window of a second
//! buffer.
//!
//! A `#[global_allocator]` is per binary, so this test lives alone in its
//! own; the counter is per thread, so whatever the test harness allocates on
//! its other threads while the solve runs is not charged to it.

use gridsim_acopf::BranchFlow;
use gridsim_admm::{BranchProblem, ConsensusTerm};
use gridsim_batch::{Device, DeviceBuffer, Windows};
use gridsim_grid::Branch;
use gridsim_sparse::{Lanes, LANES};
use gridsim_tron::{TronOptions, TronSolver, TronStatus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

#[test]
fn grouped_lock_step_launch_never_allocates() {
    // Three segments of nine blocks, the middle one inactive: groups of
    // LANES blocks, a short group at each segment's end.
    let (seg_len, active) = (9, [true, false, true]);
    let problems: Vec<BranchProblem> = (0..seg_len * active.len())
        .map(|i| {
            let mut p = branch_problem(i % 3 != 0);
            p.flow_terms[i % 4].target += 0.01 * i as f64;
            p
        })
        .collect();
    let solver = TronSolver::new(TronOptions::default());
    // Each block writes its solution's first two entries into its window.
    let windows = Windows {
        seg_len: 3 + 2 * seg_len,
        offset: 3,
        width: 2,
    };
    let kernel = |first: usize, group: &mut [[f64; 6]], window: &mut [f64]| {
        let blocks = &problems[first..first + group.len()];
        let mut x = [Lanes::from_fn(|_| 0.0); 6];
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = Lanes::from_fn(|k| group[k.min(group.len() - 1)][i]);
        }
        solver.solve_lanes(&BranchProblem::pack(blocks), blocks, &mut x);
        for (k, (state, w)) in group.iter_mut().zip(window.chunks_exact_mut(2)).enumerate() {
            for (i, xi) in x.iter().enumerate() {
                state[i] = xi.0[k];
            }
            w.copy_from_slice(&state[..2]);
        }
    };
    for device in [Device::sequential(), Device::vectorized()] {
        let starts = vec![[1.0, 1.0, 0.0, 0.0, 0.0, 0.0]; problems.len()];
        let mut states = DeviceBuffer::from_host(Arc::clone(device.stats()), &starts);
        let mut out = DeviceBuffer::zeroed(Arc::clone(device.stats()), 3 * windows.seg_len);
        // The first launch of a kernel name allocates its stats entry.
        device.launch_blocks_segments(
            "branch_tron",
            &mut states,
            seg_len,
            &active,
            LANES,
            &mut out,
            windows,
            kernel,
        );
        let (_, n) = counted(|| {
            device.launch_blocks_segments(
                "branch_tron",
                &mut states,
                seg_len,
                &active,
                LANES,
                &mut out,
                windows,
                kernel,
            )
        });
        assert_eq!(n, 0, "grouped launch allocated on {}", device.backend());
        let solved = states.as_slice();
        for (i, x) in solved.iter().enumerate() {
            let moved = *x != starts[i];
            assert_eq!(moved, active[i / seg_len], "block {i}: {x:?}");
            let (s, j) = (i / seg_len, i % seg_len);
            let at = s * windows.seg_len + 3 + 2 * j;
            let want = if active[s] { &x[..2] } else { &[0.0, 0.0][..] };
            assert_eq!(&out.as_slice()[at..at + 2], want, "block {i}'s window");
        }
    }
}
