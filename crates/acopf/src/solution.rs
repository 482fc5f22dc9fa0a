//! A full ACOPF operating point and derived quantities.

use crate::flows::branch_flows;
use gridsim_grid::{BranchEnd, Network};
use serde::{Deserialize, Serialize};

/// An operating point of the network: voltage magnitudes and angles per bus,
/// real and reactive dispatch per generator. All values are per unit (angles
/// in radians).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpfSolution {
    /// Voltage magnitude per bus (p.u.).
    pub vm: Vec<f64>,
    /// Voltage angle per bus (radians).
    pub va: Vec<f64>,
    /// Real power output per generator (p.u.).
    pub pg: Vec<f64>,
    /// Reactive power output per generator (p.u.).
    pub qg: Vec<f64>,
}

/// Per-branch flows computed from bus voltages.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BranchFlows {
    /// Real power into the branch at the from bus.
    pub pij: Vec<f64>,
    /// Reactive power into the branch at the from bus.
    pub qij: Vec<f64>,
    /// Real power into the branch at the to bus.
    pub pji: Vec<f64>,
    /// Reactive power into the branch at the to bus.
    pub qji: Vec<f64>,
}

impl OpfSolution {
    /// A flat solution: unit voltage magnitudes, zero angles, zero dispatch.
    pub fn flat(net: &Network) -> OpfSolution {
        OpfSolution {
            vm: vec![1.0; net.nbus],
            va: vec![0.0; net.nbus],
            pg: vec![0.0; net.ngen],
            qg: vec![0.0; net.ngen],
        }
    }

    /// Generation cost ($/hr) of this dispatch.
    pub fn objective(&self, net: &Network) -> f64 {
        net.generation_cost(&self.pg)
    }

    /// Recompute every branch flow from the bus voltages — the paper's
    /// Section IV-A procedure: the reported solution uses dispatch from the
    /// generator subproblems and voltages from the bus subproblems, with
    /// flows re-derived from the voltages for consistency.
    pub fn branch_flows(&self, net: &Network) -> BranchFlows {
        let mut flows = BranchFlows {
            pij: vec![0.0; net.nbranch],
            qij: vec![0.0; net.nbranch],
            pji: vec![0.0; net.nbranch],
            qji: vec![0.0; net.nbranch],
        };
        for l in 0..net.nbranch {
            let i = net.br_from[l];
            let j = net.br_to[l];
            let f = branch_flows(&net.br_y[l], self.vm[i], self.vm[j], self.va[i], self.va[j]);
            flows.pij[l] = f[0];
            flows.qij[l] = f[1];
            flows.pji[l] = f[2];
            flows.qji[l] = f[3];
        }
        flows
    }

    /// Real and reactive power-balance mismatch at every bus
    /// (generation − load − shunt − line injections); zero at a feasible
    /// point. Returns `(p_mismatch, q_mismatch)`.
    pub fn power_mismatch(&self, net: &Network) -> (Vec<f64>, Vec<f64>) {
        let flows = self.branch_flows(net);
        self.power_mismatch_with_flows(net, &flows)
    }

    /// Same as [`Self::power_mismatch`] but reusing precomputed flows.
    pub(crate) fn power_mismatch_with_flows(
        &self,
        net: &Network,
        flows: &BranchFlows,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut dp = vec![0.0; net.nbus];
        let mut dq = vec![0.0; net.nbus];
        for b in 0..net.nbus {
            let vm2 = self.vm[b] * self.vm[b];
            dp[b] = -net.pd[b] - net.gs[b] * vm2;
            dq[b] = -net.qd[b] + net.bs[b] * vm2;
        }
        for (g, &b) in net.gen_bus.iter().enumerate() {
            dp[b] += self.pg[g];
            dq[b] += self.qg[g];
        }
        for b in 0..net.nbus {
            for &(l, end) in &net.branches_at_bus[b] {
                match end {
                    BranchEnd::From => {
                        dp[b] -= flows.pij[l];
                        dq[b] -= flows.qij[l];
                    }
                    BranchEnd::To => {
                        dp[b] -= flows.pji[l];
                        dq[b] -= flows.qji[l];
                    }
                }
            }
        }
        (dp, dq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_solution_dimensions() {
        let net = gridsim_grid::case9().compile().unwrap();
        let s = OpfSolution::flat(&net);
        assert_eq!(s.vm.len(), 9);
        assert_eq!(s.pg.len(), 3);
        assert_eq!(s.objective(&net), 150.0 + 600.0 + 335.0); // constants only
    }

    #[test]
    fn flat_voltages_give_zero_flow_on_unshunted_lines() {
        // At flat voltage (all 1.0 p.u., zero angles) only the charging
        // susceptance produces (reactive) flow.
        let net = gridsim_grid::case9().compile().unwrap();
        let s = OpfSolution::flat(&net);
        let flows = s.branch_flows(&net);
        for l in 0..net.nbranch {
            assert!(flows.pij[l].abs() < 1e-9, "real flow should vanish");
        }
    }

    #[test]
    fn mismatch_at_flat_point_equals_negative_load_plus_charging() {
        let net = gridsim_grid::case9().compile().unwrap();
        let s = OpfSolution::flat(&net);
        let (dp, _dq) = s.power_mismatch(&net);
        for (dpb, pdb) in dp.iter().zip(&net.pd) {
            assert!(
                (dpb + pdb).abs() < 1e-9,
                "real mismatch at flat point is just -pd"
            );
        }
    }

    #[test]
    fn mismatch_respects_generation_injection() {
        let net = gridsim_grid::two_bus().compile().unwrap();
        let mut s = OpfSolution::flat(&net);
        s.pg[0] = 0.8;
        let (dp, _) = s.power_mismatch(&net);
        // Bus 0 hosts the generator; with zero flows the mismatch is +0.8.
        assert!((dp[0] - 0.8).abs() < 1e-9);
        // Bus 1 has the 0.8 p.u. load.
        assert!((dp[1] + 0.8).abs() < 1e-9);
    }
}
