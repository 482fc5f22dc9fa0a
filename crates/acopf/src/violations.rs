//! Solution-quality metrics: maximum constraint violation and objective gap.
//!
//! These are the quantities the paper reports in Table II (`‖c(x)‖∞` and
//! `|f − f*| / f*`) and tracks over time in Figures 2 and 3.

use crate::solution::OpfSolution;
use gridsim_grid::Network;
use serde::{Deserialize, Serialize};

/// A breakdown of the worst violation of each constraint family, all in per
/// unit (voltage limits in p.u., powers in p.u. on the system base).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SolutionQuality {
    /// Maximum absolute real power balance mismatch.
    pub max_p_mismatch: f64,
    /// Maximum absolute reactive power balance mismatch.
    pub max_q_mismatch: f64,
    /// Maximum apparent-power line-limit violation (in squared p.u. flow,
    /// measured as `max(0, sqrt(p²+q²) − rate)`).
    pub max_line_violation: f64,
    /// Maximum violation of voltage magnitude bounds.
    pub max_voltage_violation: f64,
    /// Maximum violation of generator real/reactive power bounds.
    pub max_gen_bound_violation: f64,
    /// Objective value ($/hr).
    pub objective: f64,
}

impl SolutionQuality {
    /// Evaluate every constraint family of formulation (1) at `sol`.
    pub fn evaluate(net: &Network, sol: &OpfSolution) -> SolutionQuality {
        let flows = sol.branch_flows(net);
        let (dp, dq) = sol.power_mismatch_with_flows(net, &flows);
        let max_p_mismatch = dp.iter().map(|v| v.abs()).fold(0.0, max_or_nan);
        let max_q_mismatch = dq.iter().map(|v| v.abs()).fold(0.0, max_or_nan);
        // The worst of `worst` and the amount by which each of `excesses`
        // is positive.
        let worst_excess = |worst, excesses: &[f64]| {
            excesses
                .iter()
                .fold(worst, |w, &e| max_or_nan(w, max_or_nan(e, 0.0)))
        };

        let mut max_line_violation: f64 = 0.0;
        for l in 0..net.nbranch {
            if !net.rate_a[l].is_finite() {
                continue;
            }
            let sij = (flows.pij[l] * flows.pij[l] + flows.qij[l] * flows.qij[l]).sqrt();
            let sji = (flows.pji[l] * flows.pji[l] + flows.qji[l] * flows.qji[l]).sqrt();
            max_line_violation = worst_excess(
                max_line_violation,
                &[sij - net.rate_a[l], sji - net.rate_a[l]],
            );
        }

        let mut max_voltage_violation: f64 = 0.0;
        for b in 0..net.nbus {
            max_voltage_violation = worst_excess(
                max_voltage_violation,
                &[net.vmin[b] - sol.vm[b], sol.vm[b] - net.vmax[b]],
            );
        }

        let mut max_gen_bound_violation: f64 = 0.0;
        for g in 0..net.ngen {
            max_gen_bound_violation = worst_excess(
                max_gen_bound_violation,
                &[
                    net.pmin[g] - sol.pg[g],
                    sol.pg[g] - net.pmax[g],
                    net.qmin[g] - sol.qg[g],
                    sol.qg[g] - net.qmax[g],
                ],
            );
        }

        SolutionQuality {
            max_p_mismatch,
            max_q_mismatch,
            max_line_violation,
            max_voltage_violation,
            max_gen_bound_violation,
            objective: sol.objective(net),
        }
    }

    /// The paper's `‖c(x)‖∞`: the worst violation across all constraint
    /// families; NaN when any family's is.
    pub fn max_violation(&self) -> f64 {
        [
            self.max_q_mismatch,
            self.max_line_violation,
            self.max_voltage_violation,
            self.max_gen_bound_violation,
        ]
        .into_iter()
        .fold(self.max_p_mismatch, max_or_nan)
    }
}

/// `a.max(b)`, except that a NaN operand makes the result NaN. `f64::max`
/// drops a NaN, so a reduction built on it reads a NaN operating point as
/// perfectly feasible; every violation reduction uses this instead. Finite
/// operands give `a.max(b)`'s exact bits.
#[inline]
pub fn max_or_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Relative objective gap `|f − f*| / f*` (the paper's Table II metric),
/// reported as a fraction (multiply by 100 for percent).
pub fn relative_gap(f: f64, f_star: f64) -> f64 {
    if f_star.abs() < 1e-300 {
        f.abs()
    } else {
        (f - f_star).abs() / f_star.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_point_violation_is_the_largest_load() {
        let net = gridsim_grid::case9().compile().unwrap();
        let sol = OpfSolution::flat(&net);
        let q = SolutionQuality::evaluate(&net, &sol);
        // At a flat point with zero generation, the worst real mismatch is
        // the largest bus load: 125 MW = 1.25 p.u.
        assert!((q.max_p_mismatch - 1.25).abs() < 1e-9);
        assert!(q.max_voltage_violation < 1e-12);
        assert!(q.max_gen_bound_violation > 0.0, "pg=0 violates pmin=10MW");
        assert!(q.max_violation() >= q.max_p_mismatch);
    }

    #[test]
    fn bound_violations_detected() {
        let net = gridsim_grid::case9().compile().unwrap();
        let mut sol = OpfSolution::flat(&net);
        sol.vm[3] = 1.3; // above vmax = 1.1
        sol.pg[0] = 50.0; // far above pmax = 2.5 p.u.
        let q = SolutionQuality::evaluate(&net, &sol);
        assert!((q.max_voltage_violation - 0.2).abs() < 1e-9);
        assert!(q.max_gen_bound_violation > 40.0);
    }

    #[test]
    fn line_violation_detected_for_extreme_angle() {
        let net = gridsim_grid::two_bus().compile().unwrap();
        let mut sol = OpfSolution::flat(&net);
        sol.va[0] = 0.6; // large angle difference drives a large flow
        sol.pg[0] = 1.0;
        let q = SolutionQuality::evaluate(&net, &sol);
        assert!(q.max_line_violation > 0.0);
    }

    #[test]
    fn a_nan_operating_point_is_not_feasible() {
        let net = gridsim_grid::case9().compile().unwrap();
        let mut sol = OpfSolution::flat(&net);
        for v in [&mut sol.vm, &mut sol.va, &mut sol.pg, &mut sol.qg] {
            v.fill(f64::NAN);
        }
        let q = SolutionQuality::evaluate(&net, &sol);
        assert!(q.max_p_mismatch.is_nan(), "{q:?}");
        assert!(q.max_line_violation.is_nan(), "{q:?}");
        assert!(q.max_voltage_violation.is_nan(), "{q:?}");
        assert!(q.max_gen_bound_violation.is_nan(), "{q:?}");
        assert!(q.max_violation().is_nan(), "{q:?}");

        // One NaN bus voltage among finite values is enough.
        let mut sol = OpfSolution::flat(&net);
        sol.vm[4] = f64::NAN;
        let q = SolutionQuality::evaluate(&net, &sol);
        assert!(q.max_voltage_violation.is_nan(), "{q:?}");
        assert!(q.max_violation().is_nan(), "{q:?}");
    }

    #[test]
    fn max_or_nan_is_f64_max_on_numbers_and_nan_otherwise() {
        for (a, b) in [
            (1.0, 2.0),
            (2.0, 1.0),
            (0.0, -0.0),
            (-0.0, 0.0),
            (-3.0, -1.0),
        ] {
            assert_eq!(max_or_nan(a, b).to_bits(), a.max(b).to_bits());
        }
        assert!(max_or_nan(f64::NAN, 1.0).is_nan());
        assert!(max_or_nan(1.0, f64::NAN).is_nan());
    }

    #[test]
    fn relative_gap_basic_properties() {
        assert!((relative_gap(101.0, 100.0) - 0.01).abs() < 1e-12);
        assert!((relative_gap(99.0, 100.0) - 0.01).abs() < 1e-12);
        assert_eq!(relative_gap(100.0, 100.0), 0.0);
    }

    #[test]
    fn quality_objective_matches_solution_objective() {
        let net = gridsim_grid::case14().compile().unwrap();
        let mut sol = OpfSolution::flat(&net);
        for g in 0..net.ngen {
            sol.pg[g] = 0.5;
        }
        let q = SolutionQuality::evaluate(&net, &sol);
        assert!((q.objective - sol.objective(&net)).abs() < 1e-9);
    }
}
