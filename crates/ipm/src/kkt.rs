//! Assembly of the augmented primal–dual KKT system.
//!
//! The interior-point Newton step solves the symmetric quasi-definite system
//!
//! ```text
//! [ W + Σ + δ_w I      Jᵀ        ] [Δv]   [ rhs_1 ]
//! [ J                  −δ_c I    ] [Δλ] = [ rhs_2 ]
//! ```
//!
//! where `v = [x; s]` stacks the decision variables and the inequality
//! slacks, `W` is the Hessian of the Lagrangian (zero on the slack block),
//! `Σ` is the diagonal barrier term, and `J = [J_E 0; J_I I]` is the
//! Jacobian of the slacked constraints. The solver never factorizes this
//! matrix: [`crate::kkt_condensed`] eliminates its slack and
//! inequality-dual blocks first. It is the reference the condensed Newton
//! step is tested against.

use gridsim_sparse::{Coo, Csc};

/// Dimensions of the slacked problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KktDims {
    /// Number of original decision variables.
    pub nx: usize,
    /// Number of inequality slacks.
    pub ns: usize,
    /// Number of equality constraints.
    pub m_eq: usize,
    /// Number of inequality constraints.
    pub m_ineq: usize,
}

impl KktDims {
    /// Total primal dimension `nx + ns`.
    pub fn nv(&self) -> usize {
        self.nx + self.ns
    }

    /// Total constraint dimension `m_eq + m_ineq`.
    pub fn mc(&self) -> usize {
        self.m_eq + self.m_ineq
    }

    /// Dimension of the augmented KKT matrix.
    pub fn dim(&self) -> usize {
        self.nv() + self.mc()
    }

    /// Expected pivot signs of the quasi-definite KKT matrix: `+1` on the
    /// primal block, `−1` on the constraint block. Used by the LDLᵀ
    /// regularization.
    pub fn expected_signs(&self) -> Vec<i8> {
        let mut signs = vec![1i8; self.nv()];
        signs.extend(std::iter::repeat_n(-1i8, self.mc()));
        signs
    }
}

/// Assemble the augmented KKT matrix.
///
/// * `hess` — Hessian of the Lagrangian over the `x` block (full symmetric
///   triplets),
/// * `sigma` — diagonal barrier term for every primal variable (length
///   `nv`),
/// * `jac_eq`, `jac_ineq` — constraint Jacobians over the `x` block,
/// * `delta_w`, `delta_c` — primal and dual regularization.
pub fn assemble_kkt(
    dims: &KktDims,
    hess: &Coo,
    sigma: &[f64],
    jac_eq: &Coo,
    jac_ineq: &Coo,
    delta_w: f64,
    delta_c: f64,
) -> Csc {
    let nv = dims.nv();
    let n = dims.dim();
    assert_eq!(sigma.len(), nv, "sigma must cover x and s blocks");
    assert_eq!(hess.nrows, dims.nx);
    assert_eq!(hess.ncols, dims.nx);
    assert_eq!(jac_eq.nrows, dims.m_eq);
    assert_eq!(jac_eq.ncols, dims.nx);
    assert_eq!(jac_ineq.nrows, dims.m_ineq);
    assert_eq!(jac_ineq.ncols, dims.nx);

    let nnz_estimate =
        hess.nnz() + nv + n + 2 * (jac_eq.nnz() + jac_ineq.nnz() + dims.ns) + dims.mc();
    let mut kkt = Coo::with_capacity(n, n, nnz_estimate);

    // Hessian of the Lagrangian on the x block.
    for k in 0..hess.nnz() {
        kkt.push(hess.rows[k], hess.cols[k], hess.vals[k]);
    }
    // Barrier diagonal and primal regularization.
    for (i, si) in sigma.iter().enumerate().take(nv) {
        kkt.push(i, i, si + delta_w);
    }
    // Equality Jacobian block.
    for k in 0..jac_eq.nnz() {
        let r = nv + jac_eq.rows[k];
        let c = jac_eq.cols[k];
        kkt.push(r, c, jac_eq.vals[k]);
        kkt.push(c, r, jac_eq.vals[k]);
    }
    // Inequality Jacobian block and the identity coupling to slacks.
    for k in 0..jac_ineq.nnz() {
        let r = nv + dims.m_eq + jac_ineq.rows[k];
        let c = jac_ineq.cols[k];
        kkt.push(r, c, jac_ineq.vals[k]);
        kkt.push(c, r, jac_ineq.vals[k]);
    }
    for k in 0..dims.ns {
        let r = nv + dims.m_eq + k;
        let c = dims.nx + k;
        kkt.push(r, c, 1.0);
        kkt.push(c, r, 1.0);
    }
    // Dual regularization.
    for i in 0..dims.mc() {
        kkt.push(nv + i, nv + i, -delta_c.max(1e-12));
    }
    kkt.to_csc()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dims() -> KktDims {
        KktDims {
            nx: 2,
            ns: 1,
            m_eq: 1,
            m_ineq: 1,
        }
    }

    #[test]
    fn dims_arithmetic() {
        let d = small_dims();
        assert_eq!(d.nv(), 3);
        assert_eq!(d.mc(), 2);
        assert_eq!(d.dim(), 5);
        assert_eq!(d.expected_signs(), vec![1, 1, 1, -1, -1]);
    }

    #[test]
    fn assembled_matrix_is_symmetric_with_expected_blocks() {
        let d = small_dims();
        let mut hess = Coo::new(2, 2);
        hess.push(0, 0, 2.0);
        hess.push(1, 1, 4.0);
        hess.push(0, 1, 0.5);
        hess.push(1, 0, 0.5);
        let sigma = vec![0.1, 0.2, 0.3];
        let mut jac_eq = Coo::new(1, 2);
        jac_eq.push(0, 0, 1.0);
        jac_eq.push(0, 1, 1.0);
        let mut jac_ineq = Coo::new(1, 2);
        jac_ineq.push(0, 0, -3.0);
        let kkt = assemble_kkt(&d, &hess, &sigma, &jac_eq, &jac_ineq, 1e-8, 1e-8);
        assert_eq!(kkt.nrows, 5);
        let dense = kkt.to_dense();
        // Symmetry.
        for (i, row) in dense.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert!((v - dense[j][i]).abs() < 1e-15);
            }
        }
        // Hessian + sigma + delta_w on the (0,0) entry.
        assert!((dense[0][0] - (2.0 + 0.1 + 1e-8)).abs() < 1e-12);
        // Slack diagonal has only sigma + delta_w.
        assert!((dense[2][2] - (0.3 + 1e-8)).abs() < 1e-12);
        // Equality Jacobian row.
        assert!((dense[3][0] - 1.0).abs() < 1e-15);
        assert!((dense[3][1] - 1.0).abs() < 1e-15);
        // Inequality row couples to x0 and the slack.
        assert!((dense[4][0] + 3.0).abs() < 1e-15);
        assert!((dense[4][2] - 1.0).abs() < 1e-15);
        // Dual regularization.
        assert!(dense[3][3] < 0.0);
        assert!(dense[4][4] < 0.0);
    }

    #[test]
    fn kkt_with_no_inequalities() {
        let d = KktDims {
            nx: 2,
            ns: 0,
            m_eq: 1,
            m_ineq: 0,
        };
        let mut hess = Coo::new(2, 2);
        hess.push(0, 0, 1.0);
        hess.push(1, 1, 1.0);
        let jac_eq = {
            let mut j = Coo::new(1, 2);
            j.push(0, 0, 1.0);
            j.push(0, 1, 2.0);
            j
        };
        let kkt = assemble_kkt(&d, &hess, &[0.0, 0.0], &jac_eq, &Coo::new(0, 2), 0.0, 1e-8);
        assert_eq!(kkt.nrows, 3);
        let dense = kkt.to_dense();
        assert!((dense[2][1] - 2.0).abs() < 1e-15);
    }
}
