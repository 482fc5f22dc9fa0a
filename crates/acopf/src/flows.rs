//! Branch power-flow functions in polar voltage coordinates, with analytic
//! first and second derivatives.
//!
//! Every branch flow in formulation (1) of the paper has the common form
//!
//! ```text
//! F(v_i, v_j, θ_i, θ_j) = α_f v_i² + α_t v_j² + v_i v_j (A cos θ + B sin θ),
//! θ = θ_i - θ_j
//! ```
//!
//! with constants `(α_f, α_t, A, B)` determined by the branch admittance and
//! which of the four flows (`p_ij`, `q_ij`, `p_ji`, `q_ji`) is being
//! evaluated. Exploiting this shared structure keeps the derivative code in
//! one place; both the interior-point baseline (constraint Jacobian/Hessian)
//! and the ADMM branch subproblem (objective gradient/Hessian of
//! formulation (4)) are built on these routines.
//!
//! The only transcendental work is `sin_cos(θ)`, and it depends on the
//! evaluation point alone — not on which flow, nor on whether a value, a
//! gradient or a Hessian is wanted. [`FlowPoint`] computes it once;
//! [`BranchFlow::value_at`], [`BranchFlow::gradient_at`] and
//! [`BranchFlow::hessian_at`] hold the formulas, and the four-argument
//! [`BranchFlow::value`], [`BranchFlow::gradient`] and
//! [`BranchFlow::hessian`] are those same formulas at a freshly built point.
//! The formulas are generic over [`Real`]: the branch kernel evaluates
//! a lock-step group of branches at once, one per lane of a
//! [`Lanes`](gridsim_sparse::Lanes), each lane bitwise its own `f64` evaluation.

use gridsim_grid::BranchAdmittance;
use gridsim_sparse::Real;
use serde::{Deserialize, Serialize};

/// Which of the four branch flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowKind {
    /// Real power entering the branch at the from side.
    Pij,
    /// Reactive power entering the branch at the from side.
    Qij,
    /// Real power entering the branch at the to side.
    Pji,
    /// Reactive power entering the branch at the to side.
    Qji,
}

impl FlowKind {
    /// All four flows.
    pub fn all() -> [FlowKind; 4] {
        [FlowKind::Pij, FlowKind::Qij, FlowKind::Pji, FlowKind::Qji]
    }
}

/// The coefficients `(α_f, α_t, A, B)` of one branch flow: `f64` for one
/// branch, [`Lanes`](gridsim_sparse::Lanes) for a lock-step group of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchFlow<T = f64> {
    /// Coefficient on `v_i²`.
    pub alpha_from: T,
    /// Coefficient on `v_j²`.
    pub alpha_to: T,
    /// Coefficient on `v_i v_j cos θ`.
    pub a: T,
    /// Coefficient on `v_i v_j sin θ`.
    pub b: T,
}

/// One evaluation point of a branch's flows: the end voltage magnitudes and
/// the sine and cosine of the angle difference `θ = θ_i − θ_j`, computed
/// once and shared by every value, gradient and Hessian taken at the point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowPoint<T = f64> {
    /// From-side voltage magnitude.
    pub vi: T,
    /// To-side voltage magnitude.
    pub vj: T,
    /// `sin θ`.
    pub sin: T,
    /// `cos θ`.
    pub cos: T,
}

impl<T: Real> FlowPoint<T> {
    /// The point at voltage magnitudes `vi, vj` and angles `ti, tj`.
    #[inline]
    pub fn new(vi: T, vj: T, ti: T, tj: T) -> FlowPoint<T> {
        let theta = ti - tj;
        let (sin, cos) = theta.sin_cos();
        FlowPoint { vi, vj, sin, cos }
    }
}

/// Gradient of a branch flow with respect to `(v_i, v_j, θ_i, θ_j)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowGrad<T = f64> {
    pub dvi: T,
    pub dvj: T,
    pub dti: T,
    pub dtj: T,
}

impl<T: Copy> FlowGrad<T> {
    /// View the gradient as an array in the variable order
    /// `(v_i, v_j, θ_i, θ_j)`.
    #[inline]
    pub fn to_array(&self) -> [T; 4] {
        [self.dvi, self.dvj, self.dti, self.dtj]
    }
}

/// Symmetric Hessian of a branch flow with respect to
/// `(v_i, v_j, θ_i, θ_j)`, stored as the upper triangle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowHess<T = f64> {
    pub vivi: T,
    pub vivj: T,
    pub viti: T,
    pub vitj: T,
    pub vjvj: T,
    pub vjti: T,
    pub vjtj: T,
    pub titi: T,
    pub titj: T,
    pub tjtj: T,
}

impl<T: Copy> FlowHess<T> {
    /// View the Hessian as a dense 4×4 row-major array in the variable order
    /// `(v_i, v_j, θ_i, θ_j)`.
    #[inline]
    pub fn to_dense(&self) -> [[T; 4]; 4] {
        [
            [self.vivi, self.vivj, self.viti, self.vitj],
            [self.vivj, self.vjvj, self.vjti, self.vjtj],
            [self.viti, self.vjti, self.titi, self.titj],
            [self.vitj, self.vjtj, self.titj, self.tjtj],
        ]
    }
}

impl BranchFlow {
    /// The flow coefficients of `kind` for a branch with admittance `y`.
    pub fn from_admittance(y: &BranchAdmittance, kind: FlowKind) -> BranchFlow {
        match kind {
            FlowKind::Pij => BranchFlow {
                alpha_from: y.gii,
                alpha_to: 0.0,
                a: y.gij,
                b: y.bij,
            },
            FlowKind::Qij => BranchFlow {
                alpha_from: -y.bii,
                alpha_to: 0.0,
                a: -y.bij,
                b: y.gij,
            },
            FlowKind::Pji => BranchFlow {
                alpha_from: 0.0,
                alpha_to: y.gjj,
                a: y.gji,
                b: -y.bji,
            },
            FlowKind::Qji => BranchFlow {
                alpha_from: 0.0,
                alpha_to: -y.bjj,
                a: -y.bji,
                b: -y.gji,
            },
        }
    }

    /// All four flows of a branch in the order of [`FlowKind::all`].
    pub fn all_from_admittance(y: &BranchAdmittance) -> [BranchFlow; 4] {
        [
            BranchFlow::from_admittance(y, FlowKind::Pij),
            BranchFlow::from_admittance(y, FlowKind::Qij),
            BranchFlow::from_admittance(y, FlowKind::Pji),
            BranchFlow::from_admittance(y, FlowKind::Qji),
        ]
    }

    /// Flow value at voltage magnitudes `vi, vj` and angles `ti, tj`.
    #[inline]
    pub fn value(&self, vi: f64, vj: f64, ti: f64, tj: f64) -> f64 {
        self.value_at(&FlowPoint::new(vi, vj, ti, tj))
    }

    /// Gradient with respect to `(v_i, v_j, θ_i, θ_j)`.
    #[inline]
    pub fn gradient(&self, vi: f64, vj: f64, ti: f64, tj: f64) -> FlowGrad {
        self.gradient_at(&FlowPoint::new(vi, vj, ti, tj))
    }

    /// Hessian with respect to `(v_i, v_j, θ_i, θ_j)`.
    #[inline]
    pub fn hessian(&self, vi: f64, vj: f64, ti: f64, tj: f64) -> FlowHess {
        self.hessian_at(&FlowPoint::new(vi, vj, ti, tj))
    }
}

impl<T: Real> BranchFlow<T> {
    /// Flow value at `p`.
    #[inline]
    pub fn value_at(&self, p: &FlowPoint<T>) -> T {
        let (vi, vj, s, c) = (p.vi, p.vj, p.sin, p.cos);
        self.alpha_from * vi * vi + self.alpha_to * vj * vj + vi * vj * (self.a * c + self.b * s)
    }

    /// Gradient with respect to `(v_i, v_j, θ_i, θ_j)` at `p`.
    #[inline]
    pub fn gradient_at(&self, p: &FlowPoint<T>) -> FlowGrad<T> {
        let (vi, vj, s, c) = (p.vi, p.vj, p.sin, p.cos);
        let two = T::splat(2.0);
        let phi = self.a * c + self.b * s;
        let dphi = -self.a * s + self.b * c;
        FlowGrad {
            dvi: two * self.alpha_from * vi + vj * phi,
            dvj: two * self.alpha_to * vj + vi * phi,
            dti: vi * vj * dphi,
            dtj: -vi * vj * dphi,
        }
    }

    /// Hessian with respect to `(v_i, v_j, θ_i, θ_j)` at `p`.
    #[inline]
    pub fn hessian_at(&self, p: &FlowPoint<T>) -> FlowHess<T> {
        let (vi, vj, s, c) = (p.vi, p.vj, p.sin, p.cos);
        let two = T::splat(2.0);
        let phi = self.a * c + self.b * s;
        let dphi = -self.a * s + self.b * c;
        FlowHess {
            vivi: two * self.alpha_from,
            vivj: phi,
            viti: vj * dphi,
            vitj: -vj * dphi,
            vjvj: two * self.alpha_to,
            vjti: vi * dphi,
            vjtj: -vi * dphi,
            titi: -vi * vj * phi,
            titj: vi * vj * phi,
            tjtj: -vi * vj * phi,
        }
    }
}

impl<T: Real> BranchFlow<T> {
    /// The flows `lane(0), …` as the lanes of one flow (`lane(0)` itself
    /// for `f64`).
    #[inline(always)]
    pub fn from_lanes(lane: impl Fn(usize) -> BranchFlow) -> BranchFlow<T> {
        BranchFlow {
            alpha_from: T::from_lanes(|k| lane(k).alpha_from),
            alpha_to: T::from_lanes(|k| lane(k).alpha_to),
            a: T::from_lanes(|k| lane(k).a),
            b: T::from_lanes(|k| lane(k).b),
        }
    }
}

/// Compute all four flow values of a branch at once.
pub fn branch_flows(y: &BranchAdmittance, vi: f64, vj: f64, ti: f64, tj: f64) -> [f64; 4] {
    let p = FlowPoint::new(vi, vj, ti, tj);
    BranchFlow::all_from_admittance(y).map(|f| f.value_at(&p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_grid::Branch;

    fn admittance() -> BranchAdmittance {
        Branch::line(1, 2, 0.02, 0.12, 0.05, 100.0).admittance()
    }

    fn sample_points() -> Vec<(f64, f64, f64, f64)> {
        vec![
            (1.0, 1.0, 0.0, 0.0),
            (1.05, 0.97, 0.1, -0.05),
            (0.92, 1.08, -0.3, 0.2),
            (1.1, 1.1, 0.5, 0.45),
        ]
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let y = admittance();
        let h = 1e-6;
        for kind in FlowKind::all() {
            let f = BranchFlow::from_admittance(&y, kind);
            for &(vi, vj, ti, tj) in &sample_points() {
                let g = f.gradient(vi, vj, ti, tj);
                let fd_vi = (f.value(vi + h, vj, ti, tj) - f.value(vi - h, vj, ti, tj)) / (2.0 * h);
                let fd_vj = (f.value(vi, vj + h, ti, tj) - f.value(vi, vj - h, ti, tj)) / (2.0 * h);
                let fd_ti = (f.value(vi, vj, ti + h, tj) - f.value(vi, vj, ti - h, tj)) / (2.0 * h);
                let fd_tj = (f.value(vi, vj, ti, tj + h) - f.value(vi, vj, ti, tj - h)) / (2.0 * h);
                assert!((g.dvi - fd_vi).abs() < 1e-6, "{kind:?} dvi");
                assert!((g.dvj - fd_vj).abs() < 1e-6, "{kind:?} dvj");
                assert!((g.dti - fd_ti).abs() < 1e-6, "{kind:?} dti");
                assert!((g.dtj - fd_tj).abs() < 1e-6, "{kind:?} dtj");
            }
        }
    }

    #[test]
    fn hessian_matches_finite_difference_of_gradient() {
        let y = admittance();
        let h = 1e-6;
        for kind in FlowKind::all() {
            let f = BranchFlow::from_admittance(&y, kind);
            for &(vi, vj, ti, tj) in &sample_points() {
                let hess = f.hessian(vi, vj, ti, tj).to_dense();
                // Finite differences of the gradient in each of the four
                // variables.
                let grad_at = |vi: f64, vj: f64, ti: f64, tj: f64| {
                    let g = f.gradient(vi, vj, ti, tj);
                    [g.dvi, g.dvj, g.dti, g.dtj]
                };
                let base_args = [vi, vj, ti, tj];
                for k in 0..4 {
                    let mut plus = base_args;
                    let mut minus = base_args;
                    plus[k] += h;
                    minus[k] -= h;
                    let gp = grad_at(plus[0], plus[1], plus[2], plus[3]);
                    let gm = grad_at(minus[0], minus[1], minus[2], minus[3]);
                    for r in 0..4 {
                        let fd = (gp[r] - gm[r]) / (2.0 * h);
                        assert!(
                            (hess[r][k] - fd).abs() < 1e-5,
                            "{kind:?} H[{r}][{k}] = {} vs fd {fd}",
                            hess[r][k]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hessian_is_symmetric() {
        let y = admittance();
        for kind in FlowKind::all() {
            let f = BranchFlow::from_admittance(&y, kind);
            let h = f.hessian(1.03, 0.98, 0.2, -0.1).to_dense();
            for (r, row) in h.iter().enumerate() {
                for (c, v) in row.iter().enumerate() {
                    assert_eq!(*v, h[c][r]);
                }
            }
        }
    }

    #[test]
    fn flows_match_w_space_formulation() {
        // Values computed through the paper's w-variables must equal the
        // polar evaluation.
        let y = admittance();
        let (vi, vj, ti, tj): (f64, f64, f64, f64) = (1.04, 0.97, 0.15, -0.08);
        let theta = ti - tj;
        let wi = vi * vi;
        let wj = vj * vj;
        let wr = vi * vj * theta.cos();
        let wim = vi * vj * theta.sin();
        let expected = [
            y.gii * wi + y.gij * wr + y.bij * wim,
            -y.bii * wi - y.bij * wr + y.gij * wim,
            y.gjj * wj + y.gji * wr - y.bji * wim,
            -y.bjj * wj - y.bji * wr - y.gji * wim,
        ];
        let got = branch_flows(&y, vi, vj, ti, tj);
        for (e, g) in expected.iter().zip(&got) {
            assert!((e - g).abs() < 1e-12, "{e} vs {g}");
        }
    }

    #[test]
    fn lossless_line_conserves_real_power_at_zero_charging() {
        // r = 0, b = 0: p_ij + p_ji = 0 for any voltages.
        let y = Branch::line(1, 2, 0.0, 0.2, 0.0, 0.0).admittance();
        for &(vi, vj, ti, tj) in &sample_points() {
            let f = branch_flows(&y, vi, vj, ti, tj);
            assert!((f[0] + f[2]).abs() < 1e-12, "loss {}", f[0] + f[2]);
        }
    }

    #[test]
    fn lossy_line_has_positive_losses() {
        let y = admittance();
        for &(vi, vj, ti, tj) in &sample_points() {
            let f = branch_flows(&y, vi, vj, ti, tj);
            assert!(f[0] + f[2] >= -1e-12, "negative loss {}", f[0] + f[2]);
        }
    }

    #[test]
    fn angle_symmetry_of_flows() {
        // Swapping the roles of the two buses (and negating the angle
        // difference) on a symmetric (no-tap) line swaps from/to flows.
        let y = Branch::line(1, 2, 0.03, 0.2, 0.04, 0.0).admittance();
        let (vi, vj, ti, tj) = (1.02, 0.99, 0.12, -0.07);
        let fwd = branch_flows(&y, vi, vj, ti, tj);
        let rev = branch_flows(&y, vj, vi, tj, ti);
        assert!((fwd[0] - rev[2]).abs() < 1e-12);
        assert!((fwd[1] - rev[3]).abs() < 1e-12);
        assert!((fwd[2] - rev[0]).abs() < 1e-12);
        assert!((fwd[3] - rev[1]).abs() < 1e-12);
    }
}
