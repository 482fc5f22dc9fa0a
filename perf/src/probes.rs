//! One-off probes of single layers, run once per traced run after the
//! rounds. Each calls a layer's public functions directly, with none of
//! the layers above it in the way, and reports a best-of-N. Sizes are fixed
//! (they do not depend on the seed) so the numbers compare across runs.

use gridsim_admm::{AdmmParams, AdmmSolver};
use gridsim_batch::{Device, DeviceBuffer, BACKEND_ENV, DEVICE_COUNT_ENV};
use gridsim_grid::{Network, ScenarioFingerprint, TableICase};
use gridsim_ipm::kkt::{assemble_kkt, KktDims};
use gridsim_ipm::{AcopfNlp, IpmOptions, IpmSolver, IpmWarmStart, KktCache, Nlp};
use gridsim_sparse::{LdlOptions, LdlSymbolic};
use gridsim_store::SolutionStore;
use gridsim_tron::{solve_batch_from_host, QuadraticBox, TronSolver};
use std::time::Instant;

/// Hidden flag: run the wide-launch solve on the parallel backend in a
/// child process that does not inherit the single-thread pins.
pub const WIDE_PARALLEL_FLAG: &str = "--wide-parallel-child";

/// Smallest wall-clock of `repeats` calls of `f`, in seconds.
fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// `batch.launch_overhead_us`: a no-op `launch_map` over one element. One
/// `cold` solve makes tens of thousands of launches, so this scales with
/// launch count.
pub fn launch_overhead(smoke: bool) -> Vec<(&'static str, f64)> {
    let device = Device::vectorized();
    let mut buf = DeviceBuffer::from_host(device.stats().clone(), &[0.0f64]);
    let repeats = if smoke { 100 } else { 10_000 };
    let best = best_of(repeats, || device.launch_map("noop", &mut buf, |_, _| {}));
    vec![("batch.launch_overhead_us", best * 1e6)]
}

/// The batch `benches/tron_batch.rs` builds: separable 6-variable box QPs.
fn tron_problems(n: usize) -> (Vec<QuadraticBox>, Vec<Vec<f64>>) {
    let problems = (0..n)
        .map(|k| {
            let shift = (k % 17) as f64 * 0.1 - 0.8;
            QuadraticBox::diagonal(
                &[2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
                &[shift, 1.0, -2.0, 0.5, -0.25, 3.0],
                &[-1.0; 6],
                &[1.0; 6],
            )
        })
        .collect();
    (problems, vec![vec![0.0; 6]; n])
}

/// `tron.batch_us_per_problem`, `tron.iters_per_problem`: the tron layer
/// with no admm around it.
pub fn tron_batch(smoke: bool) -> Vec<(&'static str, f64)> {
    let n = if smoke { 50 } else { 5000 };
    let (problems, starts) = tron_problems(n);
    let device = Device::vectorized();
    let solver = TronSolver::default();
    let mut iterations = 0;
    let best = best_of(3, || {
        let (_, outcome) = solve_batch_from_host(&device, &solver, &problems, &starts);
        iterations = outcome.total_iterations;
    });
    vec![
        ("tron.batch_us_per_problem", best * 1e6 / n as f64),
        ("tron.iters_per_problem", iterations as f64 / n as f64),
    ]
}

/// The wide-launch case: full `Pegase1354` (1991 branch blocks per launch),
/// 20 inner iterations.
fn wide_case(smoke: bool) -> (Network, AdmmParams) {
    let nbus = if smoke { 60 } else { 1354 };
    let net = TableICase::Pegase1354
        .scaled(nbus)
        .compile()
        .expect("registry stand-in compiles");
    let params = AdmmParams {
        max_outer: 1,
        max_inner: if smoke { 2 } else { 20 },
        ..AdmmParams::for_case(TableICase::Pegase1354, nbus)
    };
    (net, params)
}

/// One budget-capped solve: `(wall seconds, branch_tron seconds, blocks)`.
fn wide_solve(net: &Network, params: &AdmmParams, device: Device) -> (f64, f64, u64) {
    let solver = AdmmSolver::with_device(params.clone(), device);
    let t = Instant::now();
    std::hint::black_box(solver.solve(net));
    let wall = t.elapsed().as_secs_f64();
    let snap = solver.device.stats().snapshot();
    let tron = snap.kernels.get("branch_tron").cloned().unwrap_or_default();
    (wall, tron.elapsed.as_secs_f64(), tron.blocks)
}

/// Body of the [`WIDE_PARALLEL_FLAG`] child: print the parallel backend's
/// wall-clock for the wide solve.
pub fn wide_parallel_child() {
    let (net, params) = wide_case(false);
    let best = (0..2)
        .map(|_| wide_solve(&net, &params, Device::parallel()).0)
        .fold(f64::INFINITY, f64::min);
    println!("{best}");
}

/// `tron.us_per_block_wide` and the ungated backend scaling ratios
/// (sequential wall over the backend's wall; above 1 the backend wins).
/// The parallel backend needs worker threads, which this process pinned
/// away, so it runs in a child; the ratio is 0 if the child cannot run.
pub fn wide_launch(smoke: bool) -> Vec<(&'static str, f64)> {
    let (net, params) = wide_case(smoke);
    let best = |device: fn() -> Device| {
        (0..2)
            .map(|_| wide_solve(&net, &params, device()))
            .fold((f64::INFINITY, f64::INFINITY, 0), |a, b| {
                (a.0.min(b.0), a.1.min(b.1), b.2)
            })
    };
    let sequential = best(Device::sequential);
    let vectorized = best(Device::vectorized);
    let parallel_wall = if smoke {
        best(Device::parallel).0
    } else {
        std::env::current_exe()
            .and_then(|exe| {
                std::process::Command::new(exe)
                    .arg(WIDE_PARALLEL_FLAG)
                    .env_remove(BACKEND_ENV)
                    .env_remove(DEVICE_COUNT_ENV)
                    .env_remove(crate::POOL_THREADS_ENV)
                    .output()
            })
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| text.trim().parse::<f64>().ok())
            .unwrap_or(f64::INFINITY)
    };
    vec![
        (
            "tron.us_per_block_wide",
            vectorized.1 * 1e6 / vectorized.2.max(1) as f64,
        ),
        (
            "batch.vectorized_vs_sequential",
            sequential.0 / vectorized.0,
        ),
        ("batch.parallel_vs_sequential", sequential.0 / parallel_wall),
    ]
}

/// `sparse.*`: the symbolic/numeric/solve split on this network's KKT
/// systems — the augmented matrix at the initial point for analysis, fill
/// and triangular solves, and the real condensed system (after one solve)
/// for the supernodal and scalar numeric refactorisations.
pub fn sparse_kkt(net: &Network, options: &IpmOptions, smoke: bool) -> Vec<(&'static str, f64)> {
    let nlp = AcopfNlp::new(net);
    let dims = KktDims {
        nx: nlp.num_vars(),
        ns: nlp.num_ineq(),
        m_eq: nlp.num_eq(),
        m_ineq: nlp.num_ineq(),
    };
    let x = nlp.initial_point();
    let hess = nlp.lagrangian_hessian(&x, 1.0, &vec![1.0; dims.m_eq], &vec![1.0; dims.m_ineq]);
    let kkt = assemble_kkt(
        &dims,
        &hess,
        &vec![1.0; dims.nv()],
        &nlp.eq_jacobian(&x),
        &nlp.ineq_jacobian(&x),
        0.0,
        1e-8,
    );
    let repeats = if smoke { 1 } else { 5 };
    let analyze_s = best_of(repeats, || LdlSymbolic::analyze_rcm(&kkt));
    let symbolic = LdlSymbolic::analyze_rcm(&kkt).expect("the KKT matrix is square");
    let ldl_options = LdlOptions {
        expected_signs: dims.expected_signs(),
        ..Default::default()
    };
    let factor = symbolic
        .refactor_matrix(&kkt, &ldl_options)
        .expect("the regularised KKT matrix factorises");
    let rhs = vec![1.0; dims.dim()];
    let solve_s = best_of(4 * repeats, || factor.solve(&rhs));
    let lower_nnz = (kkt.nnz() - dims.dim()) / 2;

    let mut cache = KktCache::new();
    IpmSolver::new(options.clone())
        .with_device(Device::vectorized())
        .solve_with_cache(&nlp, &mut cache);
    let replays = 4 * repeats;
    let micro = cache
        .refactor_microbench(replays)
        .expect("the solve factorised a condensed system");

    vec![
        ("sparse.analyze_ms", analyze_s * 1e3),
        ("sparse.solve_ms", solve_s * 1e3),
        ("sparse.nnz", kkt.nnz() as f64),
        ("sparse.lnz", symbolic.lnz() as f64),
        (
            "sparse.fill_ratio",
            symbolic.lnz() as f64 / lower_nnz as f64,
        ),
        ("sparse.levels", symbolic.num_levels() as f64),
        (
            "sparse.refactor_ms",
            micro.supernodal_time_s * 1e3 / replays as f64,
        ),
        (
            "sparse.refactor_scalar_ms",
            micro.scalar_time_s * 1e3 / replays as f64,
        ),
        ("sparse.supernodes", micro.supernodes as f64),
        ("sparse.condensed_dim", micro.dim as f64),
    ]
}

/// `store.nearest_us`, `store.insert_us`: lookups and inserts on a store
/// far larger than any round fills, primed with the generation-A payloads
/// under load vectors scattered ±5 % around the generation-A fingerprints.
pub fn store_lookup(
    case_id: &str,
    nets: &[Network],
    filled: &SolutionStore<IpmWarmStart>,
    smoke: bool,
) -> Vec<(&'static str, f64)> {
    let seeds: Vec<(ScenarioFingerprint, IpmWarmStart)> = nets
        .iter()
        .filter_map(|net| {
            let fp = ScenarioFingerprint::of_network(net);
            let hit = filled.nearest(case_id, &fp)?;
            Some((fp, hit.entry.payload.clone()))
        })
        .collect();
    if seeds.is_empty() {
        return Vec::new();
    }
    // A fixed linear congruential stream: the probe must not depend on the
    // workload seed.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut scattered = |i: usize| {
        let mut fp = seeds[i % seeds.len()].0.clone();
        for load in &mut fp.loads {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            *load *= 1.0 + 0.05 * (2.0 * unit - 1.0);
        }
        fp
    };
    let (entries, queries) = if smoke { (50, 10) } else { (2000, 200) };
    let keys: Vec<ScenarioFingerprint> = (0..entries).map(&mut scattered).collect();
    let mut store: SolutionStore<IpmWarmStart> = SolutionStore::new();
    let t = Instant::now();
    for (i, fp) in keys.iter().enumerate() {
        store.insert(case_id, fp, seeds[i % seeds.len()].1.clone());
    }
    let insert_s = t.elapsed().as_secs_f64();

    let view = store.view();
    let probes: Vec<ScenarioFingerprint> = (0..queries).map(&mut scattered).collect();
    let nearest_s = best_of(5, || {
        probes
            .iter()
            .filter(|fp| view.nearest(case_id, fp).is_some())
            .count()
    });
    vec![
        ("store.insert_us", insert_s * 1e6 / entries as f64),
        ("store.nearest_us", nearest_s * 1e6 / queries as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tron_probe_batch_matches_the_criterion_bench() {
        let (problems, starts) = tron_problems(40);
        assert_eq!((problems.len(), starts.len()), (40, 40));
        assert!(starts.iter().all(|s| s == &vec![0.0; 6]));
        // The shift cycles with period 17, like benches/tron_batch.rs.
        let device = Device::sequential();
        let (xs, outcome) =
            solve_batch_from_host(&device, &TronSolver::default(), &problems, &starts);
        assert_eq!(outcome.converged, 40);
        assert_eq!(xs[0], xs[17]);
        assert_ne!(xs[0], xs[1]);
    }
}
