//! Generator and generation-cost records (MATPOWER conventions).

use serde::{Deserialize, Serialize};

/// Polynomial generation cost `c2 * p^2 + c1 * p + c0` with `p` in MW and the
/// cost in $/hr. Piecewise-linear MATPOWER costs are converted to a quadratic
/// least-squares fit by the parser, which is the same simplification the
/// paper's component decomposition assumes (generator subproblems need a
/// strongly convex quadratic objective for the closed-form update (6)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenCost {
    /// Quadratic coefficient ($/MW^2 h).
    pub c2: f64,
    /// Linear coefficient ($/MWh).
    pub c1: f64,
    /// Constant coefficient ($/hr).
    pub c0: f64,
}

impl GenCost {
    /// Derivative of the cost with respect to MW output.
    pub fn deriv(&self, p_mw: f64) -> f64 {
        2.0 * self.c2 * p_mw + self.c1
    }
}

impl Default for GenCost {
    fn default() -> Self {
        GenCost {
            c2: 0.01,
            c1: 10.0,
            c0: 0.0,
        }
    }
}

/// A single generator record. Powers in MW/MVAr.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Generator {
    /// External id of the bus this generator is attached to.
    pub bus: usize,
    /// Initial real power output (MW).
    pub pg: f64,
    /// Initial reactive power output (MVAr).
    pub qg: f64,
    /// Maximum reactive power output (MVAr).
    pub qmax: f64,
    /// Minimum reactive power output (MVAr).
    pub qmin: f64,
    /// Voltage magnitude setpoint (p.u.).
    pub vg: f64,
    /// Machine MVA base.
    pub mbase: f64,
    /// In-service flag.
    pub status: bool,
    /// Maximum real power output (MW).
    pub pmax: f64,
    /// Minimum real power output (MW).
    pub pmin: f64,
    /// Generation cost curve.
    pub cost: GenCost,
}

impl Generator {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cost polynomial `c2·p² + c1·p + c0` at `p_mw`.
    fn eval(c: &GenCost, p_mw: f64) -> f64 {
        (c.c2 * p_mw + c.c1) * p_mw + c.c0
    }

    #[test]
    fn cost_deriv_is_gradient_of_eval() {
        let c = GenCost {
            c2: 0.085,
            c1: 1.2,
            c0: 600.0,
        };
        let p = 120.0;
        let h = 1e-6;
        let fd = (eval(&c, p + h) - eval(&c, p - h)) / (2.0 * h);
        assert!((c.deriv(p) - fd).abs() < 1e-5);
    }
}
