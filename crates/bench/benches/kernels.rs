//! Ablation A: per-kernel cost split of one ADMM iteration.
//!
//! Section III-A argues that the closed-form component updates are trivially
//! parallel and that the only non-closed-form work is the batch of branch
//! TRON solves. This benchmark times a full cold-start solve on each launch
//! backend (the parallel one's thread-block scheduling stands in for the
//! GPU speed-up) — the per-kernel breakdown is printed by the
//! `transfer_audit` binary and recorded, per backend, by a traced `perf`
//! run (`batch.kernel.*_s`, `batch.vectorized_vs_sequential`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridsim_admm::{AdmmParams, AdmmSolver};
use gridsim_batch::Device;
use gridsim_grid::cases;

fn bench_device_backends(c: &mut Criterion) {
    let case = cases::case30_like();
    let net = case.compile().expect("case compiles");
    // Bound the work per benchmark iteration.
    let params = AdmmParams {
        max_outer: 2,
        max_inner: 50,
        ..AdmmParams::default()
    };

    let mut group = c.benchmark_group("admm_device_backend");
    group.sample_size(10);
    for (name, device) in [
        ("parallel", Device::parallel()),
        ("sequential", Device::sequential()),
        ("vectorized", Device::vectorized()),
    ] {
        group.bench_with_input(BenchmarkId::new(name, net.nbranch), &net, |b, net| {
            let solver = AdmmSolver::with_device(params.clone(), device.clone());
            b.iter(|| std::hint::black_box(solver.solve(net)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_device_backends);
criterion_main!(benches);
