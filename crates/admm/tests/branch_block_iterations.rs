//! A warm branch block costs a couple of TRON iterations and none of them
//! is a rejected step.
//!
//! The blocks are the ones a `branch_tron` launch would solve next, rebuilt
//! from the warm state a `case9` solve holds 30, 300 and 1 000 inner
//! iterations in. That far in, every block starts within ~1e-9 of its
//! minimiser, where the actual reduction of a step is below the rounding of
//! the cancellation-dominated branch objective; a solver that trusts the
//! `ared / pred` ratio there rejects the same Newton step a dozen times and
//! ends `SmallStep`.

use gridsim_admm::{AdmmParams, AdmmSolver, BranchProblem};
use gridsim_batch::Device;
use gridsim_tron::{TronSolver, TronStatus};

#[test]
fn warm_case9_blocks_solve_in_a_few_iterations_with_no_rejection() {
    let net = gridsim_grid::case9().compile().expect("case9 compiles");
    let solver = TronSolver::new(AdmmParams::default().tron);
    for inner in [30usize, 300, 1000] {
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
