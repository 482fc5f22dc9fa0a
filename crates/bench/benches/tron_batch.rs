//! Batch TRON scaling: solve time of a batch of small bound-constrained
//! problems as the batch size grows (the ExaTron scaling argument — the
//! per-problem size is constant, only the number of thread blocks grows),
//! and the cost of one real branch block with no ADMM loop around it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridsim_admm::{AdmmParams, AdmmSolver, BranchProblem};
use gridsim_batch::Device;
use gridsim_tron::{solve_batch_from_host, QuadraticBox, TronSolver};

fn make_batch(n: usize) -> (Vec<QuadraticBox>, Vec<Vec<f64>>) {
    let mut problems = Vec::with_capacity(n);
    let mut starts = Vec::with_capacity(n);
    for k in 0..n {
        let shift = (k % 17) as f64 * 0.1 - 0.8;
        problems.push(QuadraticBox::diagonal(
            &[2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            &[shift, 1.0, -2.0, 0.5, -0.25, 3.0],
            &[-1.0; 6],
            &[1.0; 6],
        ));
        starts.push(vec![0.0; 6]);
    }
    (problems, starts)
}

fn bench_tron_batch(c: &mut Criterion) {
    let solver = TronSolver::default();
    let mut group = c.benchmark_group("tron_batch");
    group.sample_size(10);
    for &batch_size in &[100usize, 1000, 5000] {
        let (problems, starts) = make_batch(batch_size);
        group.bench_with_input(
            BenchmarkId::new("parallel", batch_size),
            &batch_size,
            |b, _| {
                let device = Device::parallel();
                b.iter(|| {
                    std::hint::black_box(solve_batch_from_host(
                        &device, &solver, &problems, &starts,
                    ))
                });
            },
        );
    }
    group.finish();
}

/// In-place TRON solves of a real branch subproblem of `case9` (branch 0
/// with its rating removed, so both shapes occur), with the consensus
/// targets, multipliers and ALM state the network holds `inner` ADMM
/// iterations into a cold solve. One sample is [`BLOCK_REPS`] solves from
/// the same start — a single ~1–2 µs solve is too short to time — so the
/// printed time ÷ 1000 is the per-block cost to set against the `perf`
/// driver's `tron.us_per_block`.
///
/// Blocks 0 and 1 are not the whole story: 300 iterations into a solve of
/// the unmodified `case9`, one or two of the nine blocks sit within rounding
/// of their minimiser, so `all_blocks/inner300` times every block of that
/// state once per sample — the shape of a `branch_tron` launch; its time ÷ 9
/// is the per-block cost.
fn bench_branch_block(c: &mut Criterion) {
    const BLOCK_REPS: usize = 1000;
    let case9 = gridsim_grid::case9();
    let mut both_shapes = case9.clone();
    both_shapes.branches[0].rate_a = 0.0;
    let solver = TronSolver::new(AdmmParams::default().tron);
    let mut group = c.benchmark_group("branch_block");
    let blocks_at = |case: &gridsim_grid::Case, inner: usize| {
        let net = case.compile().expect("case9 compiles");
        let params = AdmmParams {
            max_outer: 1,
            max_inner: inner,
            ..AdmmParams::default()
        };
        let warm = AdmmSolver::with_device(params.clone(), Device::sequential())
            .solve(&net)
            .warm_state;
        BranchProblem::blocks_from_warm_state(&net, &params, &warm)
    };
    for inner in [3usize, 30] {
        let blocks = blocks_at(&both_shapes, inner);
        for (shape, l) in [("unlimited", 0), ("limited", 1)] {
            let (problem, x0) = &blocks[l];
            assert_eq!(problem.has_limit(), shape == "limited");
            group.bench_function(format!("{shape}/inner{inner}/x{BLOCK_REPS}"), |b| {
                b.iter(|| {
                    for _ in 0..BLOCK_REPS {
                        let mut x = std::hint::black_box(*x0);
                        let summary = solver.solve_in_place(problem, &mut x);
                        std::hint::black_box((x, summary));
                    }
                });
            });
        }
    }
    let blocks = blocks_at(&case9, 300);
    group.bench_function("all_blocks/inner300", |b| {
        b.iter(|| {
            for (problem, x0) in &blocks {
                let mut x = std::hint::black_box(*x0);
                let summary = solver.solve_in_place(problem, &mut x);
                std::hint::black_box((x, summary));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_tron_batch, bench_branch_block);
criterion_main!(benches);
