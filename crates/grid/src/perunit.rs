//! Per-unit conversion helpers.
//!
//! All optimization layers work in per unit on the system MVA base; raw case
//! records keep MATPOWER's physical units (MW, MVAr, $/MWh). These helpers
//! centralize the conversions so that objective values remain in $/hr while
//! powers, admittances, and line ratings are per unit.

/// Convert a power in MW (or MVAr) to per unit on `base_mva`.
#[inline]
pub(crate) fn to_pu(power_mw: f64, base_mva: f64) -> f64 {
    power_mw / base_mva
}

/// Convert MATPOWER polynomial cost coefficients (on MW) to coefficients on
/// per-unit power so that `c2' * p_pu^2 + c1' * p_pu + c0` equals the original
/// cost in $/hr.
#[inline]
pub(crate) fn cost_to_pu(c2: f64, c1: f64, c0: f64, base_mva: f64) -> (f64, f64, f64) {
    (c2 * base_mva * base_mva, c1 * base_mva, c0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_conversion_preserves_value() {
        let base = 100.0;
        let (c2, c1, c0) = (0.11, 5.0, 150.0);
        let p_mw = 85.0;
        let p_pu = to_pu(p_mw, base);
        let (d2, d1, d0) = cost_to_pu(c2, c1, c0, base);
        let orig = c2 * p_mw * p_mw + c1 * p_mw + c0;
        let conv = d2 * p_pu * p_pu + d1 * p_pu + d0;
        assert!((orig - conv).abs() < 1e-9);
    }

    #[test]
    fn zero_power_is_zero_pu() {
        assert_eq!(to_pu(0.0, 100.0), 0.0);
    }
}
