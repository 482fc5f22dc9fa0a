//! The nonlinear-program interface consumed by the interior-point solver.

use gridsim_sparse::Coo;

/// A smooth nonlinear program
///
/// ```text
/// min  f(x)
/// s.t. c_E(x)  = 0
///      c_I(x) <= 0
///      l <= x <= u
/// ```
///
/// Jacobians and the Hessian of the Lagrangian are returned as triplet
/// matrices; duplicate entries are summed. The Hessian must be returned
/// with **both triangles**: every off-diagonal coordinate `(i, j)` comes
/// with its transpose `(j, i)`. The KKT assemblies place the triplets as
/// given and the factorization's ordering then decides which triangle it
/// reads, so a one-triangle Hessian would silently lose the entries the
/// permutation moved across the diagonal. The solver checks this once per
/// solve, on a unit-multiplier probe of the pattern, and ends with [`IpmStatus::NumericalError`](crate::IpmStatus::NumericalError)
/// before iteration 0 when it does not hold.
pub trait Nlp {
    /// Number of decision variables.
    fn num_vars(&self) -> usize;

    /// Number of equality constraints.
    fn num_eq(&self) -> usize;

    /// Number of inequality constraints (`c_I(x) <= 0`).
    fn num_ineq(&self) -> usize;

    /// Variable bounds `(l, u)`; use `f64::NEG_INFINITY` / `f64::INFINITY`
    /// for unbounded.
    fn bounds(&self) -> (Vec<f64>, Vec<f64>);

    /// A starting point (will be pushed strictly inside the bounds by the
    /// solver).
    fn initial_point(&self) -> Vec<f64>;

    /// Objective value.
    fn objective(&self, x: &[f64]) -> f64;

    /// Objective gradient written into `grad`.
    fn objective_grad(&self, x: &[f64], grad: &mut [f64]);

    /// Equality constraint values written into `c` (length [`Self::num_eq`]).
    fn eq_constraints(&self, x: &[f64], c: &mut [f64]);

    /// Inequality constraint values written into `c`
    /// (length [`Self::num_ineq`]).
    fn ineq_constraints(&self, x: &[f64], c: &mut [f64]);

    /// Jacobian of the equality constraints (rows = constraints,
    /// cols = variables).
    fn eq_jacobian(&self, x: &[f64]) -> Coo;

    /// Jacobian of the inequality constraints.
    fn ineq_jacobian(&self, x: &[f64]) -> Coo;

    /// Hessian of the Lagrangian
    /// `obj_factor * ∇²f + Σ λ_E ∇²c_E + Σ λ_I ∇²c_I`
    /// as a symmetric triplet matrix with both triangles present.
    fn lagrangian_hessian(
        &self,
        x: &[f64],
        obj_factor: f64,
        lambda_eq: &[f64],
        lambda_ineq: &[f64],
    ) -> Coo;
}

/// True when every off-diagonal coordinate of `hess` has its transpose
/// among the triplets — the pattern half of the [`Nlp`] Hessian contract.
pub(crate) fn hessian_has_both_triangles(hess: &Coo) -> bool {
    let mut off_diagonal: Vec<(usize, usize)> = (0..hess.nnz())
        .map(|t| (hess.rows[t], hess.cols[t]))
        .filter(|(r, c)| r != c)
        .collect();
    off_diagonal.sort_unstable();
    off_diagonal.dedup();
    off_diagonal
        .iter()
        .all(|&(r, c)| off_diagonal.binary_search(&(c, r)).is_ok())
}

#[cfg(test)]
pub(crate) mod test_problems {
    use super::*;

    /// `min x² + y²  s.t.  x + y = 1`, solution (0.5, 0.5), objective 0.5.
    pub struct EqualityQp;

    impl Nlp for EqualityQp {
        fn num_vars(&self) -> usize {
            2
        }
        fn num_eq(&self) -> usize {
            1
        }
        fn num_ineq(&self) -> usize {
            0
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![f64::NEG_INFINITY; 2], vec![f64::INFINITY; 2])
        }
        fn initial_point(&self) -> Vec<f64> {
            vec![3.0, -1.0]
        }
        fn objective(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + x[1] * x[1]
        }
        fn objective_grad(&self, x: &[f64], grad: &mut [f64]) {
            grad[0] = 2.0 * x[0];
            grad[1] = 2.0 * x[1];
        }
        fn eq_constraints(&self, x: &[f64], c: &mut [f64]) {
            c[0] = x[0] + x[1] - 1.0;
        }
        fn ineq_constraints(&self, _x: &[f64], _c: &mut [f64]) {}
        fn eq_jacobian(&self, _x: &[f64]) -> Coo {
            let mut j = Coo::new(1, 2);
            j.push(0, 0, 1.0);
            j.push(0, 1, 1.0);
            j
        }
        fn ineq_jacobian(&self, _x: &[f64]) -> Coo {
            Coo::new(0, 2)
        }
        fn lagrangian_hessian(&self, _x: &[f64], obj_factor: f64, _le: &[f64], _li: &[f64]) -> Coo {
            let mut h = Coo::new(2, 2);
            h.push(0, 0, 2.0 * obj_factor);
            h.push(1, 1, 2.0 * obj_factor);
            h
        }
    }

    /// Hock–Schittkowski problem 71:
    /// `min x1 x4 (x1 + x2 + x3) + x3`
    /// `s.t. x1 x2 x3 x4 >= 25`, `x1²+x2²+x3²+x4² = 40`, `1 <= x <= 5`.
    /// Known solution (1.0, 4.743, 3.8211, 1.3794), objective 17.0140173.
    pub struct Hs071;

    impl Nlp for Hs071 {
        fn num_vars(&self) -> usize {
            4
        }
        fn num_eq(&self) -> usize {
            1
        }
        fn num_ineq(&self) -> usize {
            1
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![1.0; 4], vec![5.0; 4])
        }
        fn initial_point(&self) -> Vec<f64> {
            vec![1.0, 5.0, 5.0, 1.0]
        }
        fn objective(&self, x: &[f64]) -> f64 {
            x[0] * x[3] * (x[0] + x[1] + x[2]) + x[2]
        }
        fn objective_grad(&self, x: &[f64], g: &mut [f64]) {
            g[0] = x[3] * (2.0 * x[0] + x[1] + x[2]);
            g[1] = x[0] * x[3];
            g[2] = x[0] * x[3] + 1.0;
            g[3] = x[0] * (x[0] + x[1] + x[2]);
        }
        fn eq_constraints(&self, x: &[f64], c: &mut [f64]) {
            c[0] = x.iter().map(|v| v * v).sum::<f64>() - 40.0;
        }
        fn ineq_constraints(&self, x: &[f64], c: &mut [f64]) {
            // x1 x2 x3 x4 >= 25  <=>  25 - prod <= 0
            c[0] = 25.0 - x[0] * x[1] * x[2] * x[3];
        }
        fn eq_jacobian(&self, x: &[f64]) -> Coo {
            let mut j = Coo::new(1, 4);
            for (i, &xi) in x.iter().enumerate() {
                j.push(0, i, 2.0 * xi);
            }
            j
        }
        fn ineq_jacobian(&self, x: &[f64]) -> Coo {
            let mut j = Coo::new(1, 4);
            j.push(0, 0, -x[1] * x[2] * x[3]);
            j.push(0, 1, -x[0] * x[2] * x[3]);
            j.push(0, 2, -x[0] * x[1] * x[3]);
            j.push(0, 3, -x[0] * x[1] * x[2]);
            j
        }
        fn lagrangian_hessian(&self, x: &[f64], s: f64, le: &[f64], li: &[f64]) -> Coo {
            let mut h = Coo::new(4, 4);
            let le0 = le[0];
            let li0 = li[0];
            // Objective Hessian.
            h.push(0, 0, s * 2.0 * x[3]);
            h.push(0, 1, s * x[3]);
            h.push(1, 0, s * x[3]);
            h.push(0, 2, s * x[3]);
            h.push(2, 0, s * x[3]);
            h.push(0, 3, s * (2.0 * x[0] + x[1] + x[2]));
            h.push(3, 0, s * (2.0 * x[0] + x[1] + x[2]));
            h.push(1, 3, s * x[0]);
            h.push(3, 1, s * x[0]);
            h.push(2, 3, s * x[0]);
            h.push(3, 2, s * x[0]);
            // Equality constraint Hessian: 2 I.
            for i in 0..4 {
                h.push(i, i, le0 * 2.0);
            }
            // Inequality constraint Hessian: -(products).
            let pairs = [
                (0, 1, x[2] * x[3]),
                (0, 2, x[1] * x[3]),
                (0, 3, x[1] * x[2]),
                (1, 2, x[0] * x[3]),
                (1, 3, x[0] * x[2]),
                (2, 3, x[0] * x[1]),
            ];
            for (i, j, v) in pairs {
                h.push(i, j, -li0 * v);
                h.push(j, i, -li0 * v);
            }
            h
        }
    }
}
