//! Property-based tests of the batch TRON solver: first-order optimality on
//! randomized nonconvex bound-constrained problems and batch/sequential
//! equivalence.

use gridsim_batch::Device;
use gridsim_sparse::SmallMatrix;
use gridsim_tron::{
    solve_batch_from_host, BoundProblem, QuadraticBox, TronOptions, TronSolver, TronStatus,
};
use proptest::prelude::*;

/// A randomly generated (possibly indefinite) quadratic with box constraints.
fn random_quadratic(diag: Vec<f64>, off: Vec<f64>, c: Vec<f64>) -> QuadraticBox {
    let n = diag.len();
    let mut q = SmallMatrix::zeros(n);
    for i in 0..n {
        q[(i, i)] = diag[i];
    }
    // Symmetric off-diagonal entries on the first super/sub diagonal.
    for i in 0..n - 1 {
        q[(i, i + 1)] = off[i];
        q[(i + 1, i)] = off[i];
    }
    QuadraticBox {
        q,
        c,
        l: vec![-1.0; n],
        u: vec![1.0; n],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TRON reaches a first-order stationary point of any (even indefinite)
    /// small quadratic over a box.
    #[test]
    fn tron_first_order_optimality_on_random_quadratics(
        diag in prop::collection::vec(-3.0f64..6.0, 4),
        off in prop::collection::vec(-1.0f64..1.0, 3),
        c in prop::collection::vec(-2.0f64..2.0, 4),
        start in prop::collection::vec(-0.9f64..0.9, 4),
    ) {
        let qp = random_quadratic(diag, off, c);
        let solver = TronSolver::new(TronOptions {
            gtol: 1e-8,
            max_iter: 300,
            ..Default::default()
        });
        let res = solver.solve(&qp, &start);
        // Either converged to first-order stationarity or stalled with a
        // collapsed trust region (acceptable on strongly indefinite cases).
        prop_assert!(
            res.pg_norm < 1e-4 || res.status == TronStatus::SmallStep,
            "pg_norm {} status {:?}", res.pg_norm, res.status
        );
        for i in 0..4 {
            prop_assert!(res.x[i] >= qp.lower(i) - 1e-9);
            prop_assert!(res.x[i] <= qp.upper(i) + 1e-9);
        }
        // The solution is no worse than the (projected) starting point.
        let mut proj_start = start.clone();
        qp.project(&mut proj_start);
        prop_assert!(res.objective <= qp.objective(&proj_start) + 1e-9);
    }

    /// The batch driver returns exactly the same solutions as solving each
    /// problem individually.
    #[test]
    fn batch_equals_individual_solves(seed_offsets in prop::collection::vec(-1.0f64..1.0, 1..40)) {
        let problems: Vec<QuadraticBox> = seed_offsets
            .iter()
            .map(|&s| {
                QuadraticBox::diagonal(
                    &[2.0, 3.0, 4.0],
                    &[s, 2.0 * s, -s],
                    &[-1.0; 3],
                    &[1.0; 3],
                )
            })
            .collect();
        let starts = vec![vec![0.0; 3]; problems.len()];
        let solver = TronSolver::default();
        let device = Device::parallel();
        let (batch_solutions, outcome) =
            solve_batch_from_host(&device, &solver, &problems, &starts);
        prop_assert_eq!(outcome.converged, problems.len());
        for (qp, batch_x) in problems.iter().zip(&batch_solutions) {
            let individual = solver.solve(qp, &[0.0; 3]);
            for (a, b) in batch_x.iter().zip(&individual.x) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
