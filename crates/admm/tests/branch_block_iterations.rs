//! A warm branch block costs a couple of TRON iterations and none of them
//! is a rejected step.
//!
//! The blocks are the ones a `branch_tron` launch would solve next, rebuilt
//! from the warm state a `case9` solve holds 30, 300 and 1 000 inner
//! iterations in. That far in, every block starts within ~1e-9 of its
//! minimiser, where the actual reduction of a step is below the rounding of
//! the cancellation-dominated branch objective; a solver that trusts the
//! `ared / pred` ratio there rejects the same Newton step a dozen times and
//! ends `SmallStep`. And the ADMM penalties in a block's Hessian (1e2–1e5)
//! put the model's minimiser along `-g` four to five decades inside the
//! initial trust region; a Cauchy search that starts on the boundary halves
//! its way down to it 20-odd times.

use gridsim_admm::{AdmmParams, AdmmSolver, BranchProblem};
use gridsim_batch::Device;
use gridsim_sparse::dense::SmallMatrix;
use gridsim_tron::cauchy::cauchy_point;
use gridsim_tron::{BoundProblem, TronSolver, TronStatus};

const INNER: [usize; 3] = [30, 300, 1000];

/// The nine `case9` branch blocks, with their starts, that the launch after
/// `inner` inner iterations of a one-outer-iteration solve would solve.
fn warm_blocks(inner: usize) -> Vec<(BranchProblem, [f64; 6])> {
    let net = gridsim_grid::case9().compile().expect("case9 compiles");
    let params = AdmmParams {
        max_outer: 1,
        max_inner: inner,
        ..AdmmParams::default()
    };
    let warm = AdmmSolver::with_device(params.clone(), Device::sequential())
        .solve(&net)
        .warm_state;
    let blocks = BranchProblem::blocks_from_warm_state(&net, &params, &warm);
    assert_eq!(blocks.len(), 9);
    blocks
}

#[test]
fn warm_case9_blocks_solve_in_a_few_iterations_with_no_rejection() {
    let solver = TronSolver::new(AdmmParams::default().tron);
    for inner in INNER {
        let blocks = warm_blocks(inner);
        let mut total = 0;
        for (l, (problem, x0)) in blocks.iter().enumerate() {
            let mut x = *x0;
            let summary = solver.solve_in_place(problem, &mut x);
            assert_ne!(
                summary.status,
                TronStatus::SmallStep,
                "inner {inner} block {l}: {summary:?}"
            );
            assert_eq!(summary.rejected, 0, "inner {inner} block {l}: {summary:?}");
            assert!(
                summary.iterations <= 4,
                "inner {inner} block {l}: {summary:?}"
            );
            total += summary.iterations;
        }
        assert!(
            total as f64 <= 2.5 * blocks.len() as f64,
            "inner {inner}: {total} TRON iterations over {} blocks",
            blocks.len()
        );
    }
}

#[test]
fn warm_case9_blocks_accept_their_first_cauchy_trial() {
    for inner in INNER {
        for (l, (problem, x0)) in warm_blocks(inner).iter().enumerate() {
            // TRON's first iteration: the projected start, Δ = max(‖g‖, 1).
            let mut x = *x0;
            problem.project(&mut x);
            let (mut g, mut h) = ([0.0; 6], SmallMatrix::zeros(6));
            problem.derivatives(&x, &mut g, &mut h);
            let delta = g.iter().map(|v| v * v).sum::<f64>().sqrt().max(1.0);
            let cp = cauchy_point(problem, &x, &g, &h, delta);
            assert_eq!(cp.trials, 1, "inner {inner} block {l}: {cp:?}");
        }
    }
}
