//! Branch (transmission line / transformer) records and admittance math.

use serde::{Deserialize, Serialize};

/// A branch between a *from* bus and a *to* bus. Impedances are in per unit on
/// the system MVA base, ratings in MVA, angles in degrees (MATPOWER
/// conventions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Branch {
    /// External id of the from bus.
    pub from: usize,
    /// External id of the to bus.
    pub to: usize,
    /// Series resistance (p.u.).
    pub r: f64,
    /// Series reactance (p.u.).
    pub x: f64,
    /// Total line charging susceptance (p.u.).
    pub b: f64,
    /// Long-term MVA rating. `0.0` means unlimited.
    pub rate_a: f64,
    /// Off-nominal tap ratio (`0.0` means nominal, i.e. 1.0).
    pub tap: f64,
    /// Phase shift angle (degrees).
    pub shift: f64,
    /// In-service flag.
    pub status: bool,
    /// Minimum angle difference (degrees).
    pub angmin: f64,
    /// Maximum angle difference (degrees).
    pub angmax: f64,
}

/// Branch admittance coefficients in the notation of the paper's
/// formulation (1):
///
/// ```text
/// p_ij =  g_ii w_i + g_ij w^R + b_ij w^I
/// q_ij = -b_ii w_i - b_ij w^R + g_ij w^I
/// p_ji =  g_jj w_j + g_ji w^R - b_ji w^I
/// q_ji = -b_jj w_j - b_ji w^R - g_ji w^I
/// ```
///
/// where `w_i = v_i^2`, `w^R = v_i v_j cos(θ_i - θ_j)` and
/// `w^I = v_i v_j sin(θ_i - θ_j)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BranchAdmittance {
    pub gii: f64,
    pub bii: f64,
    pub gij: f64,
    pub bij: f64,
    pub gji: f64,
    pub bji: f64,
    pub gjj: f64,
    pub bjj: f64,
}

impl Branch {
    /// A plain transmission line (no tap, no shift) with the given impedance.
    pub fn line(from: usize, to: usize, r: f64, x: f64, b: f64, rate_a: f64) -> Self {
        Branch {
            from,
            to,
            r,
            x,
            b,
            rate_a,
            tap: 0.0,
            shift: 0.0,
            status: true,
            angmin: -360.0,
            angmax: 360.0,
        }
    }

    /// Effective tap ratio (1.0 when the MATPOWER field is zero).
    pub(crate) fn tap_ratio(&self) -> f64 {
        if self.tap == 0.0 {
            1.0
        } else {
            self.tap
        }
    }

    /// Series admittance `y = 1 / (r + jx)` returned as `(g, b)`.
    pub(crate) fn series_admittance(&self) -> (f64, f64) {
        let d = self.r * self.r + self.x * self.x;
        assert!(
            d > 0.0,
            "branch {}-{} has zero impedance",
            self.from,
            self.to
        );
        (self.r / d, -self.x / d)
    }

    /// Compute the admittance coefficients used by formulation (1).
    ///
    /// Follows the MATPOWER branch model: with series admittance `y_s`,
    /// charging `b_c`, complex tap `a = τ e^{jθ_shift}`,
    ///
    /// ```text
    /// Y_ff = (y_s + j b_c / 2) / |a|^2     ->  g_ii + j b_ii
    /// Y_ft = -y_s / conj(a)                ->  g_ij + j b_ij
    /// Y_tf = -y_s / a                      ->  g_ji + j b_ji
    /// Y_tt =  y_s + j b_c / 2              ->  g_jj + j b_jj
    /// ```
    pub fn admittance(&self) -> BranchAdmittance {
        let (gs, bs) = self.series_admittance();
        let bc2 = self.b / 2.0;
        let tau = self.tap_ratio();
        let theta = self.shift.to_radians();
        let (sin_t, cos_t) = theta.sin_cos();
        let tau2 = tau * tau;

        // Y_ff = (ys + j*bc/2) / tau^2
        let gii = gs / tau2;
        let bii = (bs + bc2) / tau2;

        // a = tau * e^{j theta};  conj(a) = tau * e^{-j theta}
        // Y_ft = -ys / conj(a) = -(gs + j bs) * e^{j theta} / tau
        let gij = -(gs * cos_t - bs * sin_t) / tau;
        let bij = -(gs * sin_t + bs * cos_t) / tau;

        // Y_tf = -ys / a = -(gs + j bs) * e^{-j theta} / tau
        let gji = -(gs * cos_t + bs * sin_t) / tau;
        let bji = -(bs * cos_t - gs * sin_t) / tau;

        // Y_tt = ys + j*bc/2
        let gjj = gs;
        let bjj = bs + bc2;

        BranchAdmittance {
            gii,
            bii,
            gij,
            bij,
            gji,
            bji,
            gjj,
            bjj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_line() -> Branch {
        Branch::line(1, 2, 0.01, 0.1, 0.02, 250.0)
    }

    #[test]
    fn series_admittance_inverse_of_impedance() {
        let br = simple_line();
        let (g, b) = br.series_admittance();
        // (r + jx)(g + jb) should be 1 + 0j
        let re = br.r * g - br.x * b;
        let im = br.r * b + br.x * g;
        assert!((re - 1.0).abs() < 1e-12);
        assert!(im.abs() < 1e-12);
    }

    #[test]
    fn admittance_no_tap_symmetry() {
        let br = simple_line();
        let y = br.admittance();
        // Without tap/shift the off-diagonal blocks coincide and the diagonal
        // blocks are equal.
        assert!((y.gij - y.gji).abs() < 1e-12);
        assert!((y.bij - y.bji).abs() < 1e-12);
        assert!((y.gii - y.gjj).abs() < 1e-12);
        assert!((y.bii - y.bjj).abs() < 1e-12);
    }

    #[test]
    fn admittance_with_tap_scales_from_side() {
        let mut br = simple_line();
        br.tap = 1.05;
        let y = br.admittance();
        let y0 = simple_line().admittance();
        assert!((y.gii - y0.gii / (1.05 * 1.05)).abs() < 1e-12);
        assert!((y.gjj - y0.gjj).abs() < 1e-12);
        assert!((y.gij - y0.gij / 1.05).abs() < 1e-12);
    }

    #[test]
    fn phase_shift_breaks_off_diagonal_symmetry() {
        let mut br = simple_line();
        br.shift = 10.0;
        let y = br.admittance();
        assert!((y.gij - y.gji).abs() > 1e-6 || (y.bij - y.bji).abs() > 1e-6);
    }

    #[test]
    fn zero_power_flow_at_flat_voltage_no_shunt() {
        // With equal voltage magnitudes, zero angle difference, and no line
        // charging, a lossless line carries no flow.
        let br = Branch::line(1, 2, 0.0, 0.1, 0.0, 0.0);
        let y = br.admittance();
        let (wi, wj, wr, wimag) = (1.0, 1.0, 1.0, 0.0);
        let pij = y.gii * wi + y.gij * wr + y.bij * wimag;
        let qij = -y.bii * wi - y.bij * wr + y.gij * wimag;
        let pji = y.gjj * wj + y.gji * wr - y.bji * wimag;
        assert!(pij.abs() < 1e-12);
        assert!(qij.abs() < 1e-12);
        assert!(pji.abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero impedance")]
    fn zero_impedance_panics() {
        let br = Branch::line(1, 2, 0.0, 0.0, 0.0, 0.0);
        let _ = br.series_admittance();
    }

    #[test]
    fn tap_ratio_default_is_one() {
        assert_eq!(simple_line().tap_ratio(), 1.0);
    }
}
