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
/// The two constraint Jacobians and the Hessian of the Lagrangian are split
/// the way Ipopt's TNLP splits `eval_jac_g` / `eval_h`: a *structure*
/// method declares the triplet coordinates once, and a *values* method
/// writes the derivative at a point into a caller-owned slice aligned with
/// those coordinates. The contract:
///
/// * **Coordinates are value-independent.** A structure may depend on the
///   problem data (which buses carry a shunt, which branches are rated), never
///   on `x` or on the multipliers: the solver declares it once per solve,
///   freezes its condensed KKT pattern from it and, every Newton step, only
///   gathers values into that pattern.
/// * **Zeros are written, not pruned.** A values method writes every
///   declared triplet, including those that happen to be zero at the point.
///   A coordinate that is zero at one iterate and nonzero at the next is
///   therefore never a surprise to the frozen pattern.
/// * **Duplicates are summed**, as in any triplet matrix.
/// * **The Hessian carries both triangles**: every off-diagonal coordinate
///   `(i, j)` comes with its transpose `(j, i)`. The KKT assemblies place the
///   triplets as given and the factorization's ordering then decides which
///   triangle it reads, so a one-triangle Hessian would silently lose the
///   entries the permutation moved across the diagonal.
///   [`KktCache::ensure_structure`](crate::KktCache::ensure_structure)
///   checks this on every declared structure it records (once per
///   structure, not per solve), and a solve whose Hessian fails it ends
///   with [`IpmStatus::NumericalError`](crate::IpmStatus::NumericalError)
///   before iteration 0.
///
/// [`Self::eq_jacobian`], [`Self::ineq_jacobian`] and
/// [`Self::lagrangian_hessian`] are provided: the structure with its values
/// at one point, for callers that want a matrix rather than a buffer.
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

    /// Coordinates of the equality-constraint Jacobian (rows = constraints,
    /// cols = variables), as a triplet matrix whose values are all zero.
    fn eq_jacobian_structure(&self) -> Coo;

    /// The equality-constraint Jacobian at `x`, one value per triplet of
    /// [`Self::eq_jacobian_structure`], in its order.
    fn eq_jacobian_values(&self, x: &[f64], vals: &mut [f64]);

    /// Coordinates of the inequality-constraint Jacobian, values all zero.
    fn ineq_jacobian_structure(&self) -> Coo;

    /// The inequality-constraint Jacobian at `x`, one value per triplet of
    /// [`Self::ineq_jacobian_structure`], in its order.
    fn ineq_jacobian_values(&self, x: &[f64], vals: &mut [f64]);

    /// Coordinates of the Hessian of the Lagrangian (both triangles), values
    /// all zero.
    fn hessian_structure(&self) -> Coo;

    /// The Hessian of the Lagrangian
    /// `obj_factor * ∇²f + Σ λ_E ∇²c_E + Σ λ_I ∇²c_I` at `x`, one value per
    /// triplet of [`Self::hessian_structure`], in its order.
    fn hessian_values(
        &self,
        x: &[f64],
        obj_factor: f64,
        lambda_eq: &[f64],
        lambda_ineq: &[f64],
        vals: &mut [f64],
    );

    /// The equality-constraint Jacobian at `x` as a triplet matrix.
    fn eq_jacobian(&self, x: &[f64]) -> Coo {
        let mut jac = self.eq_jacobian_structure();
        self.eq_jacobian_values(x, &mut jac.vals);
        jac
    }

    /// The inequality-constraint Jacobian at `x` as a triplet matrix.
    fn ineq_jacobian(&self, x: &[f64]) -> Coo {
        let mut jac = self.ineq_jacobian_structure();
        self.ineq_jacobian_values(x, &mut jac.vals);
        jac
    }

    /// The Hessian of the Lagrangian at `x` as a symmetric triplet matrix
    /// with both triangles present.
    fn lagrangian_hessian(
        &self,
        x: &[f64],
        obj_factor: f64,
        lambda_eq: &[f64],
        lambda_ineq: &[f64],
    ) -> Coo {
        let mut hess = self.hessian_structure();
        self.hessian_values(x, obj_factor, lambda_eq, lambda_ineq, &mut hess.vals);
        hess
    }
}

/// True when every off-diagonal coordinate of `hess` has its transpose
/// among the triplets — the pattern half of the [`Nlp`] Hessian contract,
/// checked on the declared structure.
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

/// A triplet matrix with the given coordinates and zero values — how the
/// small hand-written test problems declare their structures.
#[cfg(test)]
pub(crate) fn pattern(nrows: usize, ncols: usize, coords: &[(usize, usize)]) -> Coo {
    let mut coo = Coo::with_capacity(nrows, ncols, coords.len());
    for &(r, c) in coords {
        coo.push(r, c, 0.0);
    }
    coo
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
        fn eq_jacobian_structure(&self) -> Coo {
            pattern(1, 2, &[(0, 0), (0, 1)])
        }
        fn eq_jacobian_values(&self, _x: &[f64], vals: &mut [f64]) {
            vals.copy_from_slice(&[1.0, 1.0]);
        }
        fn ineq_jacobian_structure(&self) -> Coo {
            Coo::new(0, 2)
        }
        fn ineq_jacobian_values(&self, _x: &[f64], _vals: &mut [f64]) {}
        fn hessian_structure(&self) -> Coo {
            pattern(2, 2, &[(0, 0), (1, 1)])
        }
        fn hessian_values(&self, _x: &[f64], s: f64, _le: &[f64], _li: &[f64], vals: &mut [f64]) {
            vals.copy_from_slice(&[2.0 * s, 2.0 * s]);
        }
    }

    /// Hock–Schittkowski problem 71:
    /// `min x1 x4 (x1 + x2 + x3) + x3`
    /// `s.t. x1 x2 x3 x4 >= 25`, `x1²+x2²+x3²+x4² = 40`, `1 <= x <= 5`.
    /// Known solution (1.0, 4.743, 3.8211, 1.3794), objective 17.0140173.
    pub struct Hs071;

    impl Hs071 {
        /// The off-diagonal coordinates of the inequality's Hessian.
        const PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    }

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
        fn eq_jacobian_structure(&self) -> Coo {
            pattern(1, 4, &[(0, 0), (0, 1), (0, 2), (0, 3)])
        }
        fn eq_jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
            for (v, &xi) in vals.iter_mut().zip(x) {
                *v = 2.0 * xi;
            }
        }
        fn ineq_jacobian_structure(&self) -> Coo {
            pattern(1, 4, &[(0, 0), (0, 1), (0, 2), (0, 3)])
        }
        fn ineq_jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
            vals.copy_from_slice(&[
                -x[1] * x[2] * x[3],
                -x[0] * x[2] * x[3],
                -x[0] * x[1] * x[3],
                -x[0] * x[1] * x[2],
            ]);
        }
        fn hessian_structure(&self) -> Coo {
            // The objective's entries, the equality's diagonal, then the
            // inequality's off-diagonal pairs: the order the values follow.
            let mut coords = vec![
                (0, 0),
                (0, 1),
                (1, 0),
                (0, 2),
                (2, 0),
                (0, 3),
                (3, 0),
                (1, 3),
                (3, 1),
                (2, 3),
                (3, 2),
            ];
            coords.extend((0..4).map(|i| (i, i)));
            for (i, j) in Self::PAIRS {
                coords.extend([(i, j), (j, i)]);
            }
            pattern(4, 4, &coords)
        }
        fn hessian_values(&self, x: &[f64], s: f64, le: &[f64], li: &[f64], vals: &mut [f64]) {
            let (le0, li0) = (le[0], li[0]);
            vals[..11].copy_from_slice(&[
                s * 2.0 * x[3],
                s * x[3],
                s * x[3],
                s * x[3],
                s * x[3],
                s * (2.0 * x[0] + x[1] + x[2]),
                s * (2.0 * x[0] + x[1] + x[2]),
                s * x[0],
                s * x[0],
                s * x[0],
                s * x[0],
            ]);
            // Equality constraint Hessian: 2 I.
            vals[11..15].fill(le0 * 2.0);
            // Inequality constraint Hessian: -(products of the other two),
            // in the order of `PAIRS`.
            let products = [
                x[2] * x[3],
                x[1] * x[3],
                x[1] * x[2],
                x[0] * x[3],
                x[0] * x[2],
                x[0] * x[1],
            ];
            for (pair, v) in vals[15..].chunks_exact_mut(2).zip(products) {
                pair.fill(-li0 * v);
            }
        }
    }
}
