//! One in-place TRON solve of a branch subproblem performs zero heap
//! allocations, and so does a grouped `branch_tron`-shaped launch: the
//! device's group launch over masked segments, each full group of real
//! branch blocks gathered into lanes the way the branch kernel gathers them
//! and solved in lock-step, a segment's odd block solved alone, each writing
//! its window of a second buffer.
//!
//! A `#[global_allocator]` is per binary, so this test lives alone in its
//! own; the counter is per thread, so whatever the test harness allocates on
//! its other threads while the solve runs is not charged to it.

use gridsim_acopf::BranchFlow;
use gridsim_admm::{AdmmParams, AdmmSolver, BranchProblem, ConsensusTerm};
use gridsim_batch::{Device, DeviceBuffer, Windows};
use gridsim_grid::Branch;
use gridsim_sparse::{Lanes, LANES};
use gridsim_tron::{TronOptions, TronSolver, TronStatus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

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
    // case9's nine branch blocks five inner iterations into a solve, in
    // three segments, the middle one inactive: groups of LANES blocks as
    // the branch kernel gathers them, the odd block at each segment's end
    // alone.
    let net = gridsim_grid::case9().compile().unwrap();
    let params = AdmmParams {
        max_outer: 1,
        max_inner: 5,
        ..AdmmParams::test_profile()
    };
    let warm = AdmmSolver::with_device(params.clone(), Device::sequential())
        .solve(&net)
        .warm_state;
    let blocks = BranchProblem::blocks_from_warm_state(&net, &params, &warm);
    let starts: Vec<[f64; 6]> = blocks.iter().map(|b| b.1).collect();
    // A `BranchProblem` is not `Sync` (it keeps the flows of its last
    // evaluation in a `Cell`), so the kernel reaches the problems through a
    // lock.
    let problems = Mutex::new((
        blocks,
        BranchProblem::groups_from_warm_state(&net, &params, &warm),
    ));
    let (seg_len, active) = (net.nbranch, [true, false, true]);
    let solver = TronSolver::new(params.tron.clone());
    // Each block writes its solution's first two entries into its window.
    let windows = Windows {
        seg_len: 3 + 2 * seg_len,
        offset: 3,
        width: 2,
    };
    let kernel = |_: usize, j: usize, group: &mut [[f64; 6]], window: &mut [f64]| {
        let (blocks, groups) = &*problems.lock().unwrap();
        if group.len() == LANES {
            let mut x: [Lanes; 6] = std::array::from_fn(|i| Lanes::from_fn(|k| group[k][i]));
            solver.solve_lanes(&groups[j / LANES].0, |k| blocks[j + k].0.clone(), &mut x);
            for (k, state) in group.iter_mut().enumerate() {
                *state = std::array::from_fn(|i| x[i].0[k]);
            }
        } else {
            for (k, state) in group.iter_mut().enumerate() {
                solver.solve_in_place(&blocks[j + k].0, state);
            }
        }
        for (state, w) in group.iter().zip(window.chunks_exact_mut(2)) {
            w.copy_from_slice(&state[..2]);
        }
    };
    for device in [Device::sequential(), Device::vectorized()] {
        let starts = starts.repeat(active.len());
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
