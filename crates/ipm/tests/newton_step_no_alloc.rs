//! A steady-state interior-point Newton step allocates nothing per model
//! element. `AcopfNlp`'s callbacks write into buffers the solver owns, so
//! they allocate nothing. `KktCache::factorize_condensed` gathers the values
//! through slots recorded once per solve into a reused buffer, so it
//! allocates the same constant on the 43-dimensional condensed `case9`
//! system as on the 877-dimensional `Pegase1354/200` one: the two
//! elimination factors `D_s` and `1 + δ_c′ D_s`, and the refactorization's
//! four (`L` values, `D` values, `y`, the dense tail block). Regrouping the
//! inequality Jacobian on every step used to cost one vector per inequality
//! row — 588 on the latter alone. Re-declaring the structure a cache
//! already holds, as a lane's next solve does, allocates nothing either: the
//! Hessian's two-triangle check ran when the structure was recorded.
//!
//! A `#[global_allocator]` is per binary, so this test lives alone in its
//! own; the counter is per thread, so whatever the test harness allocates on
//! its other threads meanwhile is not charged to it.

use gridsim_batch::DeviceStats;
use gridsim_grid::{Case, TableICase};
use gridsim_ipm::kkt::KktDims;
use gridsim_ipm::{AcopfNlp, IpmSolver, KktCache, Nlp};
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

/// Allocations of one steady-state Newton step on `case`, at its optimum:
/// the model callbacks must make none; returns what `factorize_condensed`
/// makes, after checking every repetition makes the same.
fn per_step(name: &str, case: Case) -> u64 {
    let net = case.compile().unwrap();
    let nlp = AcopfNlp::new(&net);
    let report = IpmSolver::default().solve(&nlp);
    assert!(report.is_optimal(), "{name}: {:?}", report.status);
    let (x, lambda_eq, lambda_ineq) = (&report.x, &report.lambda_eq, &report.lambda_ineq);
    let dims = KktDims {
        nx: nlp.num_vars(),
        ns: nlp.num_ineq(),
        m_eq: nlp.num_eq(),
        m_ineq: nlp.num_ineq(),
    };
    let (mut hess, mut jac_eq, mut jac_ineq) = (
        nlp.hessian_structure(),
        nlp.eq_jacobian_structure(),
        nlp.ineq_jacobian_structure(),
    );
    let mut cache = KktCache::new();
    assert!(cache.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq));
    let (held, n) = counted(|| cache.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq));
    assert!(held, "{name}");
    assert_eq!(
        n, 0,
        "{name}: a re-declared structure is located or checked again"
    );

    let mut grad = vec![0.0; dims.nx];
    let (mut ce, mut ci) = (vec![0.0; dims.m_eq], vec![0.0; dims.m_ineq]);
    for round in 0..3 {
        let ((), n) = counted(|| {
            nlp.objective_grad(x, &mut grad);
            nlp.eq_constraints(x, &mut ce);
            nlp.ineq_constraints(x, &mut ci);
            nlp.eq_jacobian_values(x, &mut jac_eq.vals);
            nlp.ineq_jacobian_values(x, &mut jac_ineq.vals);
            nlp.hessian_values(x, 1.0, lambda_eq, lambda_ineq, &mut hess.vals);
        });
        assert_eq!(n, 0, "{name}, round {round}: the model callbacks allocate");
    }

    let sigma: Vec<f64> = report
        .zl
        .iter()
        .zip(&report.zu)
        .map(|(l, u)| l + u)
        .collect();
    let stats = DeviceStats::default();
    let mut factorize = || {
        let factor = cache
            .factorize_condensed(
                &stats,
                &hess.vals,
                &sigma,
                &jac_eq.vals,
                &jac_ineq.vals,
                0.0,
                1e-8,
                1e-13,
                1e-9,
            )
            .unwrap();
        assert_eq!(factor.inertia, (dims.nx, dims.m_eq, 0), "{name}");
    };
    // The assembly buffer and the retained one each reach their size once.
    factorize();
    factorize();
    let ((), first) = counted(&mut factorize);
    for round in 0..3 {
        let ((), n) = counted(&mut factorize);
        assert_eq!(n, first, "{name}, round {round}: nothing is built lazily");
    }
    first
}

#[test]
fn steady_state_newton_step_allocates_the_same_at_any_size() {
    // The counter is live: a boxed value is seen.
    let (_, n) = counted(|| std::hint::black_box(Box::new(1u64)));
    assert!(n >= 1, "counting allocator is not installed");

    let small = per_step("case9", gridsim_grid::case9());
    let large = per_step("pegase1354/200", TableICase::Pegase1354.scaled(200));
    assert_eq!(
        small, 6,
        "D_s, 1 + δ_c′ D_s, and the refactorization's four"
    );
    assert_eq!(large, small, "877 dimensions allocate what 43 do");
}
