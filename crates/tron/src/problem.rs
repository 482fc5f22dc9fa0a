//! Problem interface for small dense bound-constrained problems.

use gridsim_sparse::dense::SmallMatrix;
pub use gridsim_sparse::dense::MAX_DIM;

/// A small, dense, twice-differentiable problem with simple bounds:
/// `min f(x)  s.t.  l <= x <= u`, with at most [`MAX_DIM`] variables.
///
/// One instance is solved per simulated GPU thread block, and
/// [`TronSolver::solve_in_place`](crate::TronSolver::solve_in_place) keeps
/// its whole working set on the stack, so the evaluation callbacks must not
/// allocate either: they read `x` and write into the caller's `g` and `h`.
/// Mark `dim` `#[inline]` and return a constant from it where the dimension
/// is fixed — the solver's loops then unroll for that dimension.
pub trait BoundProblem {
    /// Number of variables (at most [`MAX_DIM`]).
    fn dim(&self) -> usize;

    /// Lower bound of variable `i`.
    fn lower(&self, i: usize) -> f64;

    /// Upper bound of variable `i`.
    fn upper(&self, i: usize) -> f64;

    /// Objective value at `x`.
    fn objective(&self, x: &[f64]) -> f64;

    /// Gradient and dense Hessian at `x`, written into `g` and `h` (both of
    /// dimension [`Self::dim`]). TRON only ever needs the two together at
    /// the same point, so one call lets an implementation share every
    /// intermediate between them.
    fn derivatives(&self, x: &[f64], g: &mut [f64], h: &mut SmallMatrix);

    /// Project a point onto the bound box in place.
    fn project(&self, x: &mut [f64]) {
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = xi.clamp(self.lower(i), self.upper(i));
        }
    }

    /// Infinity norm of the projected gradient
    /// `|| P[x - g] - x ||_inf`, the first-order optimality measure for bound
    /// constraints. A NaN entry makes the norm NaN (`f64::max` would drop it
    /// and let a NaN gradient read as converged).
    fn projected_gradient_norm(&self, x: &[f64], g: &[f64]) -> f64 {
        let mut norm: f64 = 0.0;
        for i in 0..self.dim() {
            let step = ((x[i] - g[i]).clamp(self.lower(i), self.upper(i)) - x[i]).abs();
            if step > norm || step.is_nan() {
                norm = step;
            }
        }
        norm
    }
}

/// A box-constrained convex quadratic `0.5 x'Qx - c'x`, used for testing and
/// as the reference problem for the closed-form component updates.
#[derive(Debug, Clone)]
pub struct QuadraticBox {
    /// Symmetric positive (semi)definite matrix `Q`.
    pub q: SmallMatrix,
    /// Linear coefficient `c`.
    pub c: Vec<f64>,
    /// Lower bounds.
    pub l: Vec<f64>,
    /// Upper bounds.
    pub u: Vec<f64>,
}

impl QuadraticBox {
    /// A separable quadratic with diagonal `q`, linear term `c`, and bounds.
    pub fn diagonal(q: &[f64], c: &[f64], l: &[f64], u: &[f64]) -> Self {
        let n = q.len();
        let mut m = SmallMatrix::zeros(n);
        for i in 0..n {
            m[(i, i)] = q[i];
        }
        QuadraticBox {
            q: m,
            c: c.to_vec(),
            l: l.to_vec(),
            u: u.to_vec(),
        }
    }

    /// The exact minimizer for a *diagonal* quadratic:
    /// `clamp(c_i / q_i, l_i, u_i)` — formula (6) of the paper.
    pub fn diagonal_solution(&self) -> Vec<f64> {
        (0..self.c.len())
            .map(|i| (self.c[i] / self.q[(i, i)]).clamp(self.l[i], self.u[i]))
            .collect()
    }
}

impl BoundProblem for QuadraticBox {
    fn dim(&self) -> usize {
        self.c.len()
    }

    fn lower(&self, i: usize) -> f64 {
        self.l[i]
    }

    fn upper(&self, i: usize) -> f64 {
        self.u[i]
    }

    fn objective(&self, x: &[f64]) -> f64 {
        let mut qx = [0.0; MAX_DIM];
        let qx = &mut qx[..self.dim()];
        self.q.mul_vec(x, qx);
        0.5 * x.iter().zip(&*qx).map(|(a, b)| a * b).sum::<f64>()
            - self.c.iter().zip(x).map(|(a, b)| a * b).sum::<f64>()
    }

    fn derivatives(&self, x: &[f64], g: &mut [f64], h: &mut SmallMatrix) {
        self.q.mul_vec(x, g);
        for (gi, ci) in g.iter_mut().zip(&self.c) {
            *gi -= ci;
        }
        h.clone_from(&self.q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_gradient_matches_finite_difference() {
        let qp =
            QuadraticBox::diagonal(&[2.0, 4.0, 1.0], &[1.0, -2.0, 0.5], &[-10.0; 3], &[10.0; 3]);
        let x = vec![0.3, -0.7, 1.2];
        let mut g = vec![0.0; 3];
        qp.derivatives(&x, &mut g, &mut SmallMatrix::zeros(3));
        let h = 1e-6;
        for i in 0..3 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[i] += h;
            xm[i] -= h;
            let fd = (qp.objective(&xp) - qp.objective(&xm)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-5, "component {i}: {} vs {fd}", g[i]);
        }
    }

    #[test]
    fn projection_clamps_into_box() {
        let qp = QuadraticBox::diagonal(&[1.0, 1.0], &[0.0, 0.0], &[-1.0, 0.0], &[1.0, 2.0]);
        let mut x = vec![5.0, -3.0];
        qp.project(&mut x);
        assert_eq!(x, vec![1.0, 0.0]);
    }

    #[test]
    fn projected_gradient_zero_at_interior_stationary_point() {
        let qp = QuadraticBox::diagonal(&[2.0, 2.0], &[2.0, -2.0], &[-10.0; 2], &[10.0; 2]);
        // Unconstrained minimizer x = Q^{-1} c = (1, -1), interior.
        let x = vec![1.0, -1.0];
        let mut g = vec![0.0; 2];
        qp.derivatives(&x, &mut g, &mut SmallMatrix::zeros(2));
        assert!(qp.projected_gradient_norm(&x, &g) < 1e-12);
    }

    #[test]
    fn projected_gradient_zero_at_active_bound_optimum() {
        // Minimizer pushes against upper bound: Q = I, c = (5), u = 1.
        let qp = QuadraticBox::diagonal(&[1.0], &[5.0], &[-1.0], &[1.0]);
        let x = vec![1.0];
        let mut g = vec![0.0; 1];
        qp.derivatives(&x, &mut g, &mut SmallMatrix::zeros(1));
        // g = x - c = -4, pointing outward; projection keeps x at the bound.
        assert!(qp.projected_gradient_norm(&x, &g) < 1e-12);
    }

    #[test]
    fn diagonal_solution_is_clamped_ratio() {
        let qp = QuadraticBox::diagonal(
            &[2.0, 2.0, 2.0],
            &[10.0, -10.0, 1.0],
            &[-1.0, -1.0, -1.0],
            &[1.0, 1.0, 1.0],
        );
        assert_eq!(qp.diagonal_solution(), vec![1.0, -1.0, 0.5]);
    }
}
