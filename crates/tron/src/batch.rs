//! Batch front-end: one TRON solve per simulated GPU thread block.
//!
//! ExaTron's distinguishing feature is that it solves tens of thousands of
//! independent small problems in one kernel launch, one thread block per
//! problem, entirely in device memory. This module reproduces that execution
//! structure on the [`gridsim_batch::Device`]: the batch of per-problem
//! states lives in a [`DeviceBuffer`] and a single `launch_blocks` call runs
//! TRON on every element, in place on the element's `x` — the kernel body
//! allocates nothing, and the only per-problem heap data is the `Vec` that
//! carries each iterate across the host boundary.

use crate::problem::BoundProblem;
use crate::tron::{TronSolver, TronStatus, TronSummary};
use gridsim_batch::{Device, DeviceBuffer};

/// Aggregate outcome of a batch solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutcome {
    /// Number of problems solved to first-order optimality.
    pub converged: usize,
    /// Number of problems that hit the iteration limit.
    pub max_iter: usize,
    /// Number of problems that stalled with a collapsed trust region.
    pub small_step: usize,
    /// Total TRON iterations across the batch.
    pub total_iterations: usize,
    /// Total rejected trust-region steps across the batch.
    pub total_rejected: usize,
    /// Total iterations across the batch that took the direct step
    /// ([`TronSummary::direct`]).
    pub total_direct: usize,
    /// Maximum projected-gradient norm across the batch; NaN when any
    /// problem's is.
    pub worst_pg_norm: f64,
}

impl BatchOutcome {
    fn from_summaries(summaries: impl Iterator<Item = TronSummary>) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for r in summaries {
            match r.status {
                TronStatus::Converged => out.converged += 1,
                TronStatus::MaxIter => out.max_iter += 1,
                TronStatus::SmallStep => out.small_step += 1,
            }
            out.total_iterations += r.iterations;
            out.total_rejected += r.rejected;
            out.total_direct += r.direct;
            // `f64::max` would drop a NaN and report the finite maximum.
            if r.pg_norm > out.worst_pg_norm || r.pg_norm.is_nan() {
                out.worst_pg_norm = r.pg_norm;
            }
        }
        out
    }
}

/// Per-problem state stored in device memory: the warm-start point in, the
/// solution out.
#[derive(Debug, Clone, Default)]
pub struct BlockState {
    /// On input the starting point, on output the solution.
    pub x: Vec<f64>,
    /// Filled with the solve summary.
    pub result: Option<TronSummary>,
}

/// Solve a batch of problems, one per simulated thread block.
///
/// `problems` provides read-only problem data (captured by the kernel
/// closure); `states` holds the per-problem starting points and receives the
/// results. The kernel performs no host–device transfers.
pub(crate) fn solve_batch<P>(
    device: &Device,
    solver: &TronSolver,
    problems: &[P],
    states: &mut DeviceBuffer<BlockState>,
) -> BatchOutcome
where
    P: BoundProblem + Sync,
{
    assert_eq!(
        problems.len(),
        states.len(),
        "one state per problem required"
    );
    device.launch_blocks("tron_batch", states, |block_id, state| {
        state.result = Some(solver.solve_in_place(&problems[block_id], &mut state.x));
    });
    BatchOutcome::from_summaries(
        states
            .as_slice()
            .iter()
            .map(|s| s.result.expect("kernel fills every result")),
    )
}

/// Convenience helper: build device states from host starting points, solve,
/// and return the solutions on the host (two transfers total, as a real batch
/// solver would do once per ADMM solve, not per iteration).
pub fn solve_batch_from_host<P>(
    device: &Device,
    solver: &TronSolver,
    problems: &[P],
    starts: &[Vec<f64>],
) -> (Vec<Vec<f64>>, BatchOutcome)
where
    P: BoundProblem + Sync,
{
    assert_eq!(problems.len(), starts.len());
    let host_states: Vec<BlockState> = starts
        .iter()
        .map(|x| BlockState {
            x: x.clone(),
            result: None,
        })
        .collect();
    let mut states = DeviceBuffer::from_host(device.stats().clone(), &host_states);
    let outcome = solve_batch(device, solver, problems, &mut states);
    let xs = states.to_host().into_iter().map(|s| s.x).collect();
    (xs, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::QuadraticBox;
    use crate::tron::TronOptions;

    fn make_batch(n: usize) -> (Vec<QuadraticBox>, Vec<Vec<f64>>) {
        let mut problems = Vec::new();
        let mut starts = Vec::new();
        for k in 0..n {
            let shift = k as f64 * 0.01 - 1.0;
            problems.push(QuadraticBox::diagonal(
                &[2.0, 3.0, 4.0],
                &[2.0 * shift, 1.0, -2.0],
                &[-1.0; 3],
                &[1.0; 3],
            ));
            starts.push(vec![0.0; 3]);
        }
        (problems, starts)
    }

    #[test]
    fn batch_solves_every_problem_to_optimality() {
        let device = Device::parallel();
        let solver = TronSolver::new(TronOptions {
            gtol: 1e-9,
            ..Default::default()
        });
        let (problems, starts) = make_batch(500);
        let (xs, outcome) = solve_batch_from_host(&device, &solver, &problems, &starts);
        assert_eq!(outcome.converged, 500);
        assert_eq!(outcome.max_iter, 0);
        for (qp, x) in problems.iter().zip(&xs) {
            let expect = qp.diagonal_solution();
            for (a, b) in x.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn all_backends_agree_on_blocked_solves() {
        let solver = TronSolver::default();
        let (problems, starts) = make_batch(64);
        let (xs_seq, _) = solve_batch_from_host(&Device::sequential(), &solver, &problems, &starts);
        for dev in [Device::parallel(), Device::vectorized()] {
            let (xs, _) = solve_batch_from_host(&dev, &solver, &problems, &starts);
            assert_eq!(xs, xs_seq, "{} diverged", dev.backend());
        }
    }

    #[test]
    fn batch_records_one_kernel_launch_and_two_transfers() {
        let device = Device::parallel();
        let solver = TronSolver::default();
        let (problems, starts) = make_batch(100);
        let before = device.stats().snapshot();
        let _ = solve_batch_from_host(&device, &solver, &problems, &starts);
        let delta = device.stats().snapshot().since(&before);
        assert_eq!(delta.kernels["tron_batch"].launches, 1);
        assert_eq!(delta.kernels["tron_batch"].blocks, 100);
        assert_eq!(delta.host_to_device_transfers, 1);
        assert_eq!(delta.device_to_host_transfers, 1);
    }

    #[test]
    fn warm_started_batch_converges_in_fewer_iterations() {
        let device = Device::sequential();
        let solver = TronSolver::default();
        let (problems, cold_starts) = make_batch(50);
        let (solutions, cold_outcome) =
            solve_batch_from_host(&device, &solver, &problems, &cold_starts);
        let (_, warm_outcome) = solve_batch_from_host(&device, &solver, &problems, &solutions);
        assert!(
            warm_outcome.total_iterations <= cold_outcome.total_iterations,
            "warm {} vs cold {}",
            warm_outcome.total_iterations,
            cold_outcome.total_iterations
        );
        assert_eq!(warm_outcome.converged, 50);
    }

    #[test]
    fn a_nan_gradient_anywhere_in_the_batch_makes_the_worst_norm_nan() {
        let device = Device::sequential();
        let solver = TronSolver::new(TronOptions {
            max_iter: 5,
            ..Default::default()
        });
        let (mut problems, starts) = make_batch(5);
        problems[2].c[0] = f64::NAN;
        let (_, outcome) = solve_batch_from_host(&device, &solver, &problems, &starts);
        assert_eq!(outcome.converged, 4, "{outcome:?}");
        assert!(outcome.worst_pg_norm.is_nan(), "{outcome:?}");
    }

    #[test]
    fn the_batch_counts_its_direct_steps() {
        let device = Device::sequential();
        let (problems, starts) = make_batch(20);
        let (_, outcome) =
            solve_batch_from_host(&device, &TronSolver::default(), &problems, &starts);
        let mut summed = 0;
        for (qp, x0) in problems.iter().zip(&starts) {
            summed += TronSolver::default()
                .solve_in_place(qp, &mut x0.clone())
                .direct;
        }
        assert_eq!(outcome.total_direct, summed);
        assert!(
            0 < summed && summed <= outcome.total_iterations,
            "{outcome:?}"
        );
    }

    #[test]
    #[should_panic(expected = "one state per problem")]
    fn mismatched_batch_sizes_panic() {
        let device = Device::sequential();
        let solver = TronSolver::default();
        let (problems, _) = make_batch(3);
        let mut states = DeviceBuffer::from_host(
            device.stats().clone(),
            &vec![
                BlockState {
                    x: vec![0.0; 3],
                    result: None
                };
                2
            ],
        );
        let _ = solve_batch(&device, &solver, &problems, &mut states);
    }
}
