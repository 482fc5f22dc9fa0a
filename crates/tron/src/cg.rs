//! Steihaug–Toint preconditioned conjugate gradients on the free subspace.
//!
//! Solves the trust-region model problem restricted to the variables that are
//! strictly inside their bounds at the current iterate:
//!
//! ```text
//! min_d   r'd + 0.5 d'H d      s.t.  ||d|| <= delta,   d_i = 0 for bound (fixed) i
//! ```
//!
//! Nonconvexity is handled as in Steihaug (1983): when a conjugate direction
//! of negative curvature is detected, the step follows it to the trust-region
//! boundary.
//!
//! TRON reaches this solver only for the free blocks its direct step leaves
//! to it (`tron.rs`): a block whose LDLᵀ factor meets a non-positive pivot —
//! indefinite, singular or NaN — or whose Newton step does not lie strictly
//! inside the trust region. Those are the cases that need Steihaug's
//! truncation and negative-curvature exit. Lin & Moré precondition with an
//! incomplete Cholesky factor of the free block; on a dense block of at most
//! [`MAX_DIM`] variables that factor would be the complete one, which is the
//! direct step. The preconditioner here is Jacobi, `1 / |H_ii|` on each free
//! variable (1 where the diagonal is below 1e-12): one division per
//! variable, no factorization that could fail on an indefinite block, and it
//! evens out the ADMM penalties of 1e2–1e5 that scale the rows of a branch
//! Hessian differently.

use crate::problem::MAX_DIM;
use gridsim_sparse::dense::{axpy, dot, norm2 as norm, SmallMatrix};

/// Outcome of the truncated CG solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgStatus {
    /// Residual tolerance reached.
    Converged,
    /// Hit the trust-region boundary.
    Boundary,
    /// Followed a negative-curvature direction to the boundary.
    NegativeCurvature,
    /// Iteration limit reached.
    MaxIter,
}

/// Result of the truncated CG solve.
#[derive(Debug, Clone, Copy)]
pub struct CgResult {
    /// The computed step in the first `rhs.len()` entries (zero on fixed
    /// variables and beyond).
    pub step: [f64; MAX_DIM],
    /// Termination status.
    pub status: CgStatus,
    /// Iterations used.
    pub iterations: usize,
}

/// Solve the trust-region subproblem on the free variables. All CG vectors
/// live on the stack.
///
/// * `rhs` — the negative gradient of the model at the current point
///   (i.e. we solve `H d ≈ rhs` subject to the trust region),
/// * `free` — mask of free variables,
/// * `delta` — trust-region radius,
/// * `tol` — relative residual tolerance.
#[inline]
pub fn steihaug_cg(
    h: &SmallMatrix,
    rhs: &[f64],
    free: &[bool],
    delta: f64,
    tol: f64,
    max_iter: usize,
) -> CgResult {
    let n = rhs.len();
    let free = &free[..n];
    let mut step = [0.0; MAX_DIM];
    // Residual r = rhs - H d = rhs initially (restricted to free variables).
    let mut r = [0.0; MAX_DIM];
    let r = &mut r[..n];
    for i in 0..n {
        r[i] = if free[i] { rhs[i] } else { 0.0 };
    }
    let r0_norm = norm(r);
    if r0_norm == 0.0 {
        return CgResult {
            step,
            status: CgStatus::Converged,
            iterations: 0,
        };
    }
    // Jacobi preconditioner from |diag(H)| restricted to free variables.
    let mut precond = [0.0; MAX_DIM];
    let precond = &mut precond[..n];
    for i in 0..n {
        let hii = h[(i, i)].abs();
        precond[i] = if free[i] && hii > 1e-12 {
            1.0 / hii
        } else if free[i] {
            1.0
        } else {
            0.0
        };
    }

    let (mut z, mut p, mut hp) = ([0.0; MAX_DIM], [0.0; MAX_DIM], [0.0; MAX_DIM]);
    let (z, p, hp) = (&mut z[..n], &mut p[..n], &mut hp[..n]);
    for i in 0..n {
        z[i] = r[i] * precond[i];
    }
    p.copy_from_slice(z);
    let mut rz = dot(r, z);

    for k in 0..max_iter {
        // hp = H p restricted to free variables.
        h.mul_vec(p, hp);
        for i in 0..n {
            if !free[i] {
                hp[i] = 0.0;
            }
        }
        let php = dot(p, hp);
        if php <= 0.0 {
            // Negative curvature: go to the trust-region boundary along p.
            let tau = boundary_step(&step[..n], p, delta);
            axpy(tau, p, &mut step[..n]);
            return CgResult {
                step,
                status: CgStatus::NegativeCurvature,
                iterations: k + 1,
            };
        }
        let alpha = rz / php;
        // Would the step leave the trust region?
        let mut d_next = step;
        axpy(alpha, p, &mut d_next[..n]);
        if norm(&d_next[..n]) >= delta {
            let tau = boundary_step(&step[..n], p, delta);
            axpy(tau, p, &mut step[..n]);
            return CgResult {
                step,
                status: CgStatus::Boundary,
                iterations: k + 1,
            };
        }
        step = d_next;
        axpy(-alpha, hp, r);
        if norm(r) <= tol * r0_norm {
            return CgResult {
                step,
                status: CgStatus::Converged,
                iterations: k + 1,
            };
        }
        for i in 0..n {
            z[i] = r[i] * precond[i];
        }
        let rz_new = dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    CgResult {
        step,
        status: CgStatus::MaxIter,
        iterations: max_iter,
    }
}

/// Positive root `tau` of `||d + tau p|| = delta`.
#[inline]
fn boundary_step(d: &[f64], p: &[f64], delta: f64) -> f64 {
    let dd = dot(d, d);
    let dp = dot(d, p);
    let pp = dot(p, p);
    if pp <= 0.0 {
        return 0.0;
    }
    let disc = (dp * dp + pp * (delta * delta - dd)).max(0.0);
    (-dp + disc.sqrt()) / pp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> SmallMatrix {
        let mut h = SmallMatrix::zeros(3);
        let a = [[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]];
        for i in 0..3 {
            for j in 0..3 {
                h[(i, j)] = a[i][j];
            }
        }
        h
    }

    #[test]
    fn solves_spd_system_inside_trust_region() {
        let h = spd3();
        let rhs = vec![1.0, 2.0, 3.0];
        let free = vec![true; 3];
        let res = steihaug_cg(&h, &rhs, &free, 100.0, 1e-12, 50);
        assert_eq!(res.status, CgStatus::Converged);
        // H d = rhs
        let mut hd = vec![0.0; 3];
        h.mul_vec(&res.step[..3], &mut hd);
        for i in 0..3 {
            assert!((hd[i] - rhs[i]).abs() < 1e-8, "{} vs {}", hd[i], rhs[i]);
        }
    }

    #[test]
    fn respects_trust_region_boundary() {
        let h = spd3();
        let rhs = vec![10.0, 10.0, 10.0];
        let free = vec![true; 3];
        let delta = 0.5;
        let res = steihaug_cg(&h, &rhs, &free, delta, 1e-12, 50);
        let n = norm(&res.step[..3]);
        assert!(n <= delta + 1e-10, "step norm {n} exceeds {delta}");
        assert!(matches!(
            res.status,
            CgStatus::Boundary | CgStatus::NegativeCurvature
        ));
    }

    #[test]
    fn fixed_variables_stay_zero() {
        let h = spd3();
        let rhs = vec![1.0, 2.0, 3.0];
        let free = vec![true, false, true];
        let res = steihaug_cg(&h, &rhs, &free, 100.0, 1e-12, 50);
        assert_eq!(res.step[1], 0.0);
    }

    #[test]
    fn negative_curvature_goes_to_boundary() {
        let mut h = SmallMatrix::zeros(2);
        h[(0, 0)] = -1.0;
        h[(1, 1)] = -2.0;
        let rhs = vec![1.0, 0.0];
        let free = vec![true; 2];
        let delta = 2.0;
        let res = steihaug_cg(&h, &rhs, &free, delta, 1e-10, 50);
        assert_eq!(res.status, CgStatus::NegativeCurvature);
        let step = &res.step[..2];
        assert!((norm(step) - delta).abs() < 1e-10);
        // The step should still decrease the model r'd + 0.5 d'Hd... with
        // negative curvature the decrease is guaranteed along the gradient
        // direction followed to the boundary.
        let mut hd = vec![0.0; 2];
        h.mul_vec(step, &mut hd);
        let q = -dot(&rhs, step) + 0.5 * dot(step, &hd);
        assert!(q < 0.0, "model value {q}");
    }

    #[test]
    fn zero_rhs_returns_zero_step() {
        let h = spd3();
        let res = steihaug_cg(&h, &[0.0; 3], &[true; 3], 1.0, 1e-10, 10);
        assert_eq!(res.status, CgStatus::Converged);
        assert!(res.step.iter().all(|&s| s == 0.0));
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn boundary_step_formula() {
        let d = vec![0.0, 0.0];
        let p = vec![3.0, 4.0];
        let tau = boundary_step(&d, &p, 10.0);
        assert!((tau - 2.0).abs() < 1e-12);
    }
}
