//! The sparse LDLᵀ factor of a symmetric quasi-definite system, its
//! options and its pivot rule.
//!
//! [`LdlFactor`] holds `P A Pᵀ = L D Lᵀ` and solves with it; the ordering is
//! stored with the factor and applied transparently. Factors are computed
//! by [`crate::refactor`]: a fresh [`LdlFactor::factorize_with`] is the
//! frozen analysis followed by the production refactorization. This module
//! keeps the two rules every factorization shares:
//!
//! * **dynamic regularization** — when a pivot falls below a threshold (or has
//!   the wrong sign, if the caller declares expected pivot signs for a
//!   quasi-definite KKT system), it is bumped to a signed minimum instead of
//!   aborting, mirroring what Ipopt's inertia-correction loop relies on;
//! * **inertia reporting** — the number of positive and negative pivots, used
//!   by the interior-point method to decide whether additional primal/dual
//!   regularization is required.

use crate::csc::Csc;
use crate::ordering::Ordering;
use crate::refactor::LdlSymbolic;
use crate::SparseError;
use std::sync::Arc;

/// Options controlling the factorization.
#[derive(Debug, Clone)]
pub struct LdlOptions {
    /// Pivots with absolute value below this are regularized.
    pub pivot_tol: f64,
    /// Magnitude assigned to regularized pivots.
    pub pivot_reg: f64,
    /// Expected sign of each pivot (+1 / -1) for quasi-definite systems.
    /// When provided, a pivot with the wrong sign is replaced by
    /// `sign * pivot_reg` and counted in
    /// [`LdlFactor::num_regularized`]. When empty, only near-zero pivots are
    /// regularized (keeping their sign, defaulting to +).
    pub expected_signs: Vec<i8>,
}

impl Default for LdlOptions {
    fn default() -> Self {
        LdlOptions {
            pivot_tol: 1e-12,
            pivot_reg: 1e-8,
            expected_signs: Vec::new(),
        }
    }
}

/// A computed LDLᵀ factorization `P A Pᵀ = L D Lᵀ`.
///
/// The structural parts (column pointers, row indices, ordering) are held
/// behind [`Arc`] so that factors produced by the symbolic-reuse
/// refactorization of [`LdlSymbolic`](crate::LdlSymbolic) share one frozen copy instead of
/// cloning `O(lnz)` index data on every numeric refactorization.
#[derive(Debug, Clone)]
pub struct LdlFactor {
    n: usize,
    /// Column pointers of L (strictly lower triangular, unit diagonal
    /// implied).
    lcolptr: Arc<Vec<usize>>,
    lrowind: Arc<Vec<usize>>,
    lvalues: Vec<f64>,
    /// Diagonal of D.
    d: Vec<f64>,
    /// Ordering applied (identity when none requested).
    ordering: Arc<Ordering>,
    /// Number of pivots that required regularization.
    pub num_regularized: usize,
}

impl LdlFactor {
    /// Assemble a factor from precomputed parts (used by the symbolic-reuse
    /// refactorization in [`crate::refactor`] and by the test oracle).
    pub(crate) fn from_parts(
        n: usize,
        lcolptr: Arc<Vec<usize>>,
        lrowind: Arc<Vec<usize>>,
        lvalues: Vec<f64>,
        d: Vec<f64>,
        ordering: Arc<Ordering>,
        num_regularized: usize,
    ) -> LdlFactor {
        LdlFactor {
            n,
            lcolptr,
            lrowind,
            lvalues,
            d,
            ordering,
            num_regularized,
        }
    }

    /// Values of the strictly-lower-triangular factor `L`, in frozen column
    /// order (testing / comparison accessor).
    pub fn l_values(&self) -> &[f64] {
        &self.lvalues
    }

    /// Diagonal of `D` in permuted order (testing / comparison accessor).
    pub fn d_values(&self) -> &[f64] {
        &self.d
    }

    /// Factorize a symmetric matrix given by (at least) its upper triangle,
    /// using the supplied fill-reducing ordering: the frozen analysis
    /// [`LdlSymbolic::analyze`] followed by the production refactorization
    /// [`LdlSymbolic::refactor_dense_tail`], so a fresh factor has the bits
    /// of every later refactorization of the same pattern.
    pub fn factorize_with(
        a: &Csc,
        ordering: Ordering,
        opts: &LdlOptions,
    ) -> Result<LdlFactor, SparseError> {
        LdlSymbolic::analyze(a, ordering)?.refactor_dense_tail(&a.values, opts)
    }

    /// Factorize using a reverse Cuthill–McKee ordering computed from the
    /// matrix pattern.
    pub fn factorize_rcm(a: &Csc, opts: &LdlOptions) -> Result<LdlFactor, SparseError> {
        let ordering = Ordering::rcm(a);
        Self::factorize_with(a, ordering, opts)
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        // Permute the right-hand side.
        let mut x = self.ordering.apply(b);
        // Forward solve L y = b.
        for j in 0..self.n {
            let xj = x[j];
            for p in self.lcolptr[j]..self.lcolptr[j + 1] {
                x[self.lrowind[p]] -= self.lvalues[p] * xj;
            }
        }
        // Diagonal solve D z = y.
        for (xj, dj) in x.iter_mut().zip(&self.d) {
            *xj /= dj;
        }
        // Backward solve L^T x = z.
        for j in (0..self.n).rev() {
            let mut xj = x[j];
            for p in self.lcolptr[j]..self.lcolptr[j + 1] {
                xj -= self.lvalues[p] * x[self.lrowind[p]];
            }
            x[j] = xj;
        }
        // Undo the permutation.
        self.ordering.apply_inverse(&x)
    }

    /// Inertia of the factorized matrix: `(positive, negative, zero)` pivot
    /// counts.
    pub fn inertia(&self) -> (usize, usize, usize) {
        let mut pos = 0;
        let mut neg = 0;
        let mut zero = 0;
        for &dj in &self.d {
            if dj > 0.0 {
                pos += 1;
            } else if dj < 0.0 {
                neg += 1;
            } else {
                zero += 1;
            }
        }
        (pos, neg, zero)
    }
}

/// The pivot column `column` keeps for its raw pivot `dj`: regularized as
/// [`LdlOptions`] describes, or [`SparseError::Breakdown`] when `dj` is not
/// finite (a NaN would otherwise pass every threshold test and be counted as
/// a regularization) or when regularization leaves it zero. Every
/// factorization path settles its pivots here, so they fail at the same
/// column.
pub(crate) fn settle_pivot(
    column: usize,
    dj: f64,
    expected_sign: i8,
    opts: &LdlOptions,
) -> Result<f64, SparseError> {
    let dj_reg = regularize_pivot(dj, expected_sign, opts);
    if !dj.is_finite() || dj_reg == 0.0 {
        return Err(SparseError::Breakdown { column, pivot: dj });
    }
    Ok(dj_reg)
}

fn regularize_pivot(dj: f64, expected_sign: i8, opts: &LdlOptions) -> f64 {
    match expected_sign {
        1 => {
            if dj < opts.pivot_tol {
                opts.pivot_reg
            } else {
                dj
            }
        }
        -1 => {
            if dj > -opts.pivot_tol {
                -opts.pivot_reg
            } else {
                dj
            }
        }
        _ => {
            if dj.abs() < opts.pivot_tol {
                if dj >= 0.0 {
                    opts.pivot_reg
                } else {
                    -opts.pivot_reg
                }
            } else {
                dj
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    /// Factorize with the identity ordering.
    fn factorize(a: &Csc, opts: &LdlOptions) -> Result<LdlFactor, SparseError> {
        LdlFactor::factorize_with(a, Ordering::identity(a.ncols), opts)
    }

    fn spd_example() -> Csc {
        // [ 4 1 0 ]
        // [ 1 3 2 ]
        // [ 0 2 5 ]  (symmetric positive definite)
        Csc::from_triplets(
            3,
            3,
            &[0, 1, 0, 1, 2, 1, 2],
            &[0, 0, 1, 1, 1, 2, 2],
            &[4.0, 1.0, 1.0, 3.0, 2.0, 2.0, 5.0],
        )
    }

    fn tridiag(n: usize) -> Csc {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csc()
    }

    #[test]
    fn solves_spd_system() {
        let a = spd_example();
        let f = factorize(&a, &LdlOptions::default()).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = f.solve(&b);
        assert!(a.residual_inf_norm(&x, &b) < 1e-12);
        assert_eq!(f.inertia(), (3, 0, 0));
        assert_eq!(f.num_regularized, 0);
    }

    #[test]
    fn solves_with_rcm_ordering() {
        let a = tridiag(40);
        let f = LdlFactor::factorize_rcm(&a, &LdlOptions::default()).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let x = f.solve(&b);
        assert!(a.residual_inf_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn indefinite_kkt_system_inertia() {
        // KKT matrix [ H  J^T ; J  0 ] with H = I (2x2), J = [1 1].
        // Regularized with -delta in the (3,3) block by expected signs.
        let a = Csc::from_triplets(
            3,
            3,
            &[0, 1, 0, 2, 1, 2],
            &[0, 1, 2, 0, 2, 1],
            &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        );
        let opts = LdlOptions {
            expected_signs: vec![1, 1, -1],
            ..Default::default()
        };
        let f = factorize(&a, &opts).unwrap();
        let (pos, neg, zero) = f.inertia();
        assert_eq!((pos, neg, zero), (2, 1, 0));
        // Solve and verify.
        let b = vec![1.0, -1.0, 0.5];
        let x = f.solve(&b);
        assert!(a.residual_inf_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn singular_pivot_is_regularized_not_fatal() {
        // Second diagonal entry is exactly the Schur complement, producing a
        // zero pivot: [[1, 1], [1, 1]].
        let a = Csc::from_triplets(2, 2, &[0, 0, 1, 1], &[0, 1, 0, 1], &[1.0, 1.0, 1.0, 1.0]);
        let f = factorize(&a, &LdlOptions::default()).unwrap();
        assert_eq!(f.num_regularized, 1);
    }

    /// A non-finite pivot is a breakdown at its column. A NaN fails every
    /// threshold comparison, so it used to come back `Ok` with `d[1] = NaN`,
    /// one "regularized" pivot and inertia `(2, 0, 1)`.
    #[test]
    fn non_finite_pivot_is_a_breakdown() {
        let opts = LdlOptions {
            expected_signs: vec![1, 1, 1],
            ..Default::default()
        };
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            let a = Csc::from_triplets(
                3,
                3,
                &[0, 1, 0, 1, 2],
                &[0, 0, 1, 1, 2],
                &[4.0, 1.0, 1.0, bad, 3.0],
            );
            match factorize(&a, &opts) {
                Err(SparseError::Breakdown { column, pivot }) => {
                    assert_eq!(column, 1, "{bad}");
                    assert!(!pivot.is_finite(), "{bad}");
                }
                other => panic!("{bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_sign_pivot_counted_with_expected_signs() {
        // Diagonal [1, -2] but we expect both positive.
        let a = Csc::from_triplets(2, 2, &[0, 1], &[0, 1], &[1.0, -2.0]);
        let opts = LdlOptions {
            expected_signs: vec![1, 1],
            ..Default::default()
        };
        let f = factorize(&a, &opts).unwrap();
        assert_eq!(f.num_regularized, 1);
        assert_eq!(f.inertia().0, 2);
    }

    #[test]
    fn larger_random_spd_solve() {
        // Diagonally dominant random symmetric matrix.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 80;
        let mut coo = Coo::new(n, n);
        let mut diag = vec![1.0; n];
        for i in 0..n {
            for _ in 0..4 {
                let j = rng.gen_range(0..n);
                if j == i {
                    continue;
                }
                let v: f64 = rng.gen_range(-1.0..1.0);
                coo.push(i, j, v);
                coo.push(j, i, v);
                diag[i] += v.abs() + 0.1;
                diag[j] += v.abs() + 0.1;
            }
        }
        for (i, &d) in diag.iter().enumerate() {
            coo.push(i, i, d);
        }
        let a = coo.to_csc();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        for f in [
            factorize(&a, &LdlOptions::default()).unwrap(),
            LdlFactor::factorize_rcm(&a, &LdlOptions::default()).unwrap(),
        ] {
            let x = f.solve(&b);
            assert!(a.residual_inf_norm(&x, &b) < 1e-9);
            assert_eq!(f.inertia(), (n, 0, 0));
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = Csc::zeros(2, 3);
        assert!(matches!(
            factorize(&a, &LdlOptions::default()),
            Err(SparseError::Shape(_))
        ));
    }

    #[test]
    fn mismatched_signs_length_rejected() {
        let a = spd_example();
        let opts = LdlOptions {
            expected_signs: vec![1, 1],
            ..Default::default()
        };
        assert!(matches!(factorize(&a, &opts), Err(SparseError::Shape(_))));
    }
}
