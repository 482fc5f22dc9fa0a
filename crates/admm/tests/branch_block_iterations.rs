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
//! its way down to it 20-odd times. Nor does a warm block need TRON's
//! globalisation: every iteration takes the direct step, the free block's
//! Newton step from the iterate itself.
//!
//! The lock-step branch kernel rests on that: on the `track` benchmark's
//! network every warm block takes exactly two direct iterations, so the
//! lanes of a group advance together from the first iteration to the last.

use gridsim_admm::{AdmmParams, AdmmSolver, BranchProblem};
use gridsim_batch::Device;
use gridsim_grid::TableICase;
use gridsim_sparse::{SmallMatrix, LANES};
use gridsim_tron::{cauchy_point, BoundProblem, TronSolver, TronStatus};

const INNER: [usize; 3] = [30, 300, 1000];

/// The nine `case9` branch blocks, with their starts, that the launch after
/// `inner` inner iterations of a one-outer-iteration solve would solve;
/// without branch 0's line limit (and so without its slacks and ALM terms)
/// when `limit0` is false.
fn warm_blocks_with(inner: usize, limit0: bool) -> Vec<(BranchProblem, [f64; 6])> {
    let mut case = gridsim_grid::case9();
    if !limit0 {
        case.branches[0].rate_a = 0.0;
    }
    let net = case.compile().expect("case9 compiles");
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

fn warm_blocks(inner: usize) -> Vec<(BranchProblem, [f64; 6])> {
    warm_blocks_with(inner, true)
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

#[test]
fn warm_case9_blocks_take_the_direct_step_every_iteration() {
    let solver = TronSolver::new(AdmmParams::default().tron);
    for inner in INNER {
        for limit0 in [true, false] {
            let blocks = warm_blocks_with(inner, limit0);
            assert_eq!(blocks[0].0.has_limit(), limit0);
            let mut iterations = 0;
            for (l, (problem, x0)) in blocks.iter().enumerate() {
                let mut x = *x0;
                let summary = solver.solve_in_place(problem, &mut x);
                assert_eq!(
                    summary.direct, summary.iterations,
                    "inner {inner} limit0 {limit0} block {l}: {summary:?}"
                );
                iterations += summary.iterations;
            }
            assert!(iterations > 0, "inner {inner} limit0 {limit0}");
        }
    }
}

/// The `track` benchmark's network, the 12-bus `Pegase1354` stand-in with
/// its `AdmmParams::for_case` parameters: after 100, 300 and 1 000 inner
/// iterations (one outer iteration) every branch block of the next launch
/// takes exactly two TRON iterations, both direct steps, none rejected —
/// alone and in the lock-step groups of the branch kernel. (After 30 inner
/// iterations some still take three.)
#[test]
fn warm_track_blocks_take_exactly_two_direct_iterations() {
    let net = TableICase::Pegase1354
        .scaled(12)
        .compile()
        .expect("registry stand-in compiles");
    for inner in [100, 300, 1000] {
        let params = AdmmParams {
            max_outer: 1,
            max_inner: inner,
            ..AdmmParams::for_case(TableICase::Pegase1354, 12)
        };
        let warm = AdmmSolver::with_device(params.clone(), Device::sequential())
            .solve(&net)
            .warm_state;
        let blocks = BranchProblem::blocks_from_warm_state(&net, &params, &warm);
        assert_eq!(blocks.len(), net.nbranch);
        let solver = TronSolver::new(params.tron.clone());
        for (l, (problem, x0)) in blocks.iter().enumerate() {
            let summary = solver.solve_in_place(problem, &mut x0.clone());
            let counts = (summary.iterations, summary.direct, summary.rejected);
            assert_eq!(counts, (2, 2, 0), "inner {inner} block {l}: {summary:?}");
        }
        let groups = BranchProblem::groups_from_warm_state(&net, &params, &warm);
        for (g, (problem, x0)) in groups.iter().enumerate() {
            let lane = |k: usize| blocks[LANES * g + k].0.clone();
            let summaries = solver.solve_lanes(problem, lane, &mut x0.clone());
            for summary in &summaries {
                let counts = (summary.iterations, summary.direct, summary.rejected);
                assert_eq!(counts, (2, 2, 0), "inner {inner} group {g}: {summary:?}");
            }
        }
    }
}
