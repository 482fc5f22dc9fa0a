//! TRON's trust-region step on real branch blocks where the free block's
//! Newton step is refused.
//!
//! The blocks are those of a `branch_tron` launch one inner iteration into
//! a cold solve of `Pegase1354.scaled(200)`, where the penalties of
//! 1e2–1e5 and a far-from-consensus start put some Newton steps outside the
//! trust region. At TRON's first iterate of each block, and for radii from
//! 1e-4 to 1, the test takes the face of the box at the Cauchy point
//! (`Face::at`, the subproblem TRON's face steps solve) and checks every
//! step `subspace_step` gives there with a positive shift — recovered from
//! the step as `λ = (rhs_Fᵀd − dᵀH_FF d)/‖d‖²` — against the optimality
//! conditions of the trust-region subproblem, with a positive-definiteness
//! check that shares no code with the LDLᵀ under test. Every such block's
//! own solve ends `Converged`.

use gridsim_admm::{AdmmParams, AdmmSolver, BranchProblem};
use gridsim_batch::Device;
use gridsim_grid::TableICase;
use gridsim_sparse::dense::{norm2, SmallMatrix};
use gridsim_tron::cauchy::cauchy_point;
use gridsim_tron::tron::{subspace_step, Face};
use gridsim_tron::{BoundProblem, TronOptions, TronSolver, TronStatus};

/// Whether the block of `h` on the `free` variables is positive definite,
/// by a textbook Cholesky factorization.
fn positive_definite(h: &SmallMatrix, free: &[bool]) -> bool {
    let index: Vec<usize> = (0..free.len()).filter(|&i| free[i]).collect();
    let mut l = vec![vec![0.0; index.len()]; index.len()];
    for a in 0..index.len() {
        for b in 0..=a {
            let dot: f64 = (0..b).map(|k| l[a][k] * l[b][k]).sum();
            let v = h[(index[a], index[b])] - dot;
            if a == b {
                if v.is_nan() || v <= 0.0 {
                    return false;
                }
                l[a][a] = v.sqrt();
            } else {
                l[a][b] = v / l[b][b];
            }
        }
    }
    true
}

#[test]
fn shifted_steps_on_early_cold_pegase_blocks_solve_their_subproblems() {
    let nbus = 200;
    let net = TableICase::Pegase1354
        .scaled(nbus)
        .compile()
        .expect("registry stand-in compiles");
    let params = AdmmParams {
        max_outer: 1,
        max_inner: 1,
        ..AdmmParams::for_case(TableICase::Pegase1354, nbus)
    };
    let warm = AdmmSolver::with_device(params.clone(), Device::sequential())
        .solve(&net)
        .warm_state;
    let first = TronSolver::new(TronOptions {
        max_iter: 1,
        ..params.tron.clone()
    });
    let (mut steps, mut blocks) = (0, 0);
    for (l, (problem, x0)) in BranchProblem::blocks_from_warm_state(&net, &params, &warm)
        .iter()
        .enumerate()
    {
        let mut x = *x0;
        first.solve_in_place(problem, &mut x);
        let (mut g, mut h) = ([0.0; 6], SmallMatrix::zeros(6));
        problem.derivatives(&x, &mut g, &mut h);
        let mut shifted = 0;
        for k in 0..=16 {
            let delta = 10f64.powf(-4.0 + 0.25 * k as f64);
            let cp = cauchy_point(problem, &x, &g, &h, delta);
            let face = Face::at(problem, &x, &g, &h, &cp.step, delta);
            let (free, rhs, radius) = (&face.free[..6], &face.rhs[..6], face.radius);
            if radius <= 1e-14 || !free.contains(&true) {
                continue;
            }
            let d = subspace_step(&h, rhs, free, radius);
            let d = &d[..6];
            let d_norm = norm2(d);
            // Shifted steps lie on the boundary; a Newton step inside it
            // is the direct step's, which its own tests cover.
            if d_norm < radius * (1.0 - 1e-9) {
                continue;
            }
            let (mut hd, mut scale) = ([0.0; 6], 0.0f64);
            for i in (0..6).filter(|&i| free[i]) {
                let row = (0..6).filter(|&j| free[j]);
                hd[i] = row.clone().map(|j| h[(i, j)] * d[j]).sum();
                scale =
                    scale.max(rhs[i].abs() + row.map(|j| h[(i, j)].abs()).sum::<f64>() * d_norm);
            }
            let lambda =
                (0..6).map(|i| rhs[i] * d[i] - d[i] * hd[i]).sum::<f64>() / (d_norm * d_norm);
            if lambda <= 1e-9 * scale / d_norm {
                continue;
            }
            shifted += 1;
            let at = format!("block {l}, Δ = {delta:e}, λ = {lambda:e}");
            assert!(
                d_norm <= radius * (1.0 + 1e-9),
                "{at}: ‖d‖ = {d_norm}, radius {radius}"
            );
            let mut residual = 0.0f64;
            for i in 0..6 {
                if free[i] {
                    residual = residual.max((hd[i] + lambda * d[i] - rhs[i]).abs());
                } else {
                    assert_eq!(d[i], 0.0, "{at}: held variable {i} moves");
                }
            }
            assert!(
                residual <= 1e-6 * (scale + lambda * d_norm),
                "{at}: ‖(H_FF + λI)d − rhs_F‖∞ = {residual:e}"
            );
            let mut shifted_h = h.clone();
            for i in (0..6).filter(|&i| free[i]) {
                shifted_h[(i, i)] += lambda * (1.0 + 1e-9);
            }
            assert!(
                positive_definite(&shifted_h, free),
                "{at}: H_FF + λI is not ⪰ 0"
            );
        }
        if shifted > 0 {
            steps += shifted;
            blocks += 1;
            let summary =
                TronSolver::new(params.tron.clone()).solve_in_place(problem, &mut x0.clone());
            assert_eq!(
                summary.status,
                TronStatus::Converged,
                "block {l}: {summary:?}"
            );
        }
    }
    // 2 709 steps on 267 of the 294 blocks when this test was written.
    assert!(steps > 0 && blocks > 0, "no shifted step among the blocks");
}
