//! The compiled, per-unit network representation used by the solvers.
//!
//! A [`Case`] is the raw MATPOWER-style record set; a [`Network`] is the
//! validated, internally-indexed, per-unit view that the ADMM solver and the
//! interior-point baseline consume. Compilation performs:
//!
//! * external-to-internal bus index mapping,
//! * removal of out-of-service components,
//! * per-unit conversion of loads, shunts, limits and cost curves,
//! * branch admittance computation,
//! * adjacency construction (generators at a bus, branches touching a bus),
//! * connectivity validation from the reference bus.

use crate::branch::{Branch, BranchAdmittance};
use crate::bus::{Bus, BusType};
use crate::error::GridError;
use crate::generator::Generator;
use crate::perunit;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Raw case data in MATPOWER conventions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Case {
    /// Case name (for reporting).
    pub name: String,
    /// System MVA base.
    pub base_mva: f64,
    /// Bus records.
    pub buses: Vec<Bus>,
    /// Generator records.
    pub generators: Vec<Generator>,
    /// Branch records.
    pub branches: Vec<Branch>,
}

impl Case {
    /// Compile the case into a per-unit [`Network`].
    pub fn compile(&self) -> Result<Network, GridError> {
        Network::from_case(self)
    }

    /// Scale every bus load by `factor` (used by the load-tracking horizon).
    pub fn scale_load(&self, factor: f64) -> Case {
        let mut c = self.clone();
        for b in &mut c.buses {
            b.pd *= factor;
            b.qd *= factor;
        }
        c
    }
}

/// One end of a branch as seen from a bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BranchEnd {
    /// The bus is the branch's from-side.
    From,
    /// The bus is the branch's to-side.
    To,
}

/// Compiled per-unit network. All powers, admittances and ratings are per
/// unit on [`Network::base_mva`]; cost coefficients are on per-unit power so
/// objective values stay in $/hr. Indices are dense and 0-based.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    /// Case name.
    pub name: String,
    /// System MVA base.
    pub base_mva: f64,

    // ---- buses ----
    /// Number of buses.
    pub nbus: usize,
    /// External id of each internal bus index.
    pub bus_id: Vec<usize>,
    /// Real load (p.u.).
    pub pd: Vec<f64>,
    /// Reactive load (p.u.).
    pub qd: Vec<f64>,
    /// Shunt conductance (p.u.).
    pub gs: Vec<f64>,
    /// Shunt susceptance (p.u.).
    pub bs: Vec<f64>,
    /// Minimum voltage magnitude (p.u.).
    pub vmin: Vec<f64>,
    /// Maximum voltage magnitude (p.u.).
    pub vmax: Vec<f64>,
    /// Index of the reference bus.
    pub ref_bus: usize,

    // ---- generators ----
    /// Number of in-service generators.
    pub ngen: usize,
    /// Internal bus index of each generator.
    pub gen_bus: Vec<usize>,
    /// Minimum real power (p.u.).
    pub pmin: Vec<f64>,
    /// Maximum real power (p.u.).
    pub pmax: Vec<f64>,
    /// Minimum reactive power (p.u.).
    pub qmin: Vec<f64>,
    /// Maximum reactive power (p.u.).
    pub qmax: Vec<f64>,
    /// Quadratic cost coefficient on per-unit power ($/hr / p.u.^2).
    pub cost_c2: Vec<f64>,
    /// Linear cost coefficient on per-unit power ($/hr / p.u.).
    pub cost_c1: Vec<f64>,
    /// Constant cost coefficient ($/hr).
    pub cost_c0: Vec<f64>,

    // ---- branches ----
    /// Number of in-service branches.
    pub nbranch: usize,
    /// Internal from-bus index of each branch.
    pub br_from: Vec<usize>,
    /// Internal to-bus index of each branch.
    pub br_to: Vec<usize>,
    /// Admittance coefficients of each branch.
    pub br_y: Vec<BranchAdmittance>,
    /// Apparent-power rating (p.u.); `f64::INFINITY` when unlimited.
    pub rate_a: Vec<f64>,
    /// Minimum angle difference (radians).
    pub angmin: Vec<f64>,
    /// Maximum angle difference (radians).
    pub angmax: Vec<f64>,

    // ---- adjacency ----
    /// Generators attached to each bus.
    pub gens_at_bus: Vec<Vec<usize>>,
    /// Branches incident to each bus, together with which end touches it.
    pub branches_at_bus: Vec<Vec<(usize, BranchEnd)>>,
}

impl Network {
    /// Compile a raw [`Case`].
    pub(crate) fn from_case(case: &Case) -> Result<Network, GridError> {
        if case.base_mva <= 0.0 {
            return Err(GridError::Invalid(format!(
                "base MVA must be positive, got {}",
                case.base_mva
            )));
        }
        if case.buses.is_empty() {
            return Err(GridError::Invalid("case has no buses".into()));
        }
        if case.generators.is_empty() {
            return Err(GridError::Invalid("case has no generators".into()));
        }
        let base = case.base_mva;

        // Bus indexing (skip isolated buses).
        let mut bus_index: HashMap<usize, usize> = HashMap::new();
        let mut bus_id = Vec::new();
        let mut pd = Vec::new();
        let mut qd = Vec::new();
        let mut gs = Vec::new();
        let mut bs = Vec::new();
        let mut vmin = Vec::new();
        let mut vmax = Vec::new();
        let mut ref_bus = None;
        for b in case.buses.iter().filter(|b| b.in_service()) {
            if bus_index.insert(b.id, bus_id.len()).is_some() {
                return Err(GridError::Invalid(format!("duplicate bus id {}", b.id)));
            }
            if b.vmin <= 0.0 || b.vmax < b.vmin {
                return Err(GridError::Invalid(format!(
                    "bus {} has invalid voltage limits [{}, {}]",
                    b.id, b.vmin, b.vmax
                )));
            }
            if ![b.pd, b.qd, b.gs, b.bs].iter().all(|v| v.is_finite()) {
                return Err(GridError::Invalid(format!(
                    "bus {} has a non-finite load or shunt (pd {}, qd {}, gs {}, bs {})",
                    b.id, b.pd, b.qd, b.gs, b.bs
                )));
            }
            if b.bus_type == BusType::Ref && ref_bus.is_none() {
                ref_bus = Some(bus_id.len());
            }
            bus_id.push(b.id);
            pd.push(perunit::to_pu(b.pd, base));
            qd.push(perunit::to_pu(b.qd, base));
            gs.push(perunit::to_pu(b.gs, base));
            bs.push(perunit::to_pu(b.bs, base));
            vmin.push(b.vmin);
            vmax.push(b.vmax);
        }
        let nbus = bus_id.len();
        // Default the reference bus to the first generator bus if none marked.
        let ref_bus = match ref_bus {
            Some(r) => r,
            None => {
                let g = case
                    .generators
                    .iter()
                    .find(|g| g.status)
                    .ok_or_else(|| GridError::Invalid("no in-service generator".into()))?;
                *bus_index.get(&g.bus).ok_or(GridError::UnknownBus(g.bus))?
            }
        };

        // Generators.
        let mut gen_bus = Vec::new();
        let mut pmin = Vec::new();
        let mut pmax = Vec::new();
        let mut qmin = Vec::new();
        let mut qmax = Vec::new();
        let mut cost_c2 = Vec::new();
        let mut cost_c1 = Vec::new();
        let mut cost_c0 = Vec::new();
        for g in case.generators.iter().filter(|g| g.status) {
            let bi = *bus_index.get(&g.bus).ok_or(GridError::UnknownBus(g.bus))?;
            if g.pmax < g.pmin || g.qmax < g.qmin {
                return Err(GridError::Invalid(format!(
                    "generator at bus {} has inverted limits",
                    g.bus
                )));
            }
            gen_bus.push(bi);
            pmin.push(perunit::to_pu(g.pmin, base));
            pmax.push(perunit::to_pu(g.pmax, base));
            qmin.push(perunit::to_pu(g.qmin, base));
            qmax.push(perunit::to_pu(g.qmax, base));
            let (c2, c1, c0) = perunit::cost_to_pu(g.cost.c2, g.cost.c1, g.cost.c0, base);
            cost_c2.push(c2);
            cost_c1.push(c1);
            cost_c0.push(c0);
        }
        let ngen = gen_bus.len();
        if ngen == 0 {
            return Err(GridError::Invalid("no in-service generators".into()));
        }

        // Branches.
        let mut br_from = Vec::new();
        let mut br_to = Vec::new();
        let mut br_y = Vec::new();
        let mut rate_a = Vec::new();
        let mut angmin = Vec::new();
        let mut angmax = Vec::new();
        for br in case.branches.iter().filter(|b| b.status) {
            let fi = *bus_index
                .get(&br.from)
                .ok_or(GridError::UnknownBus(br.from))?;
            let ti = *bus_index.get(&br.to).ok_or(GridError::UnknownBus(br.to))?;
            if fi == ti {
                return Err(GridError::Invalid(format!(
                    "branch connects bus {} to itself",
                    br.from
                )));
            }
            if ![br.r, br.x, br.b, br.rate_a].iter().all(|v| v.is_finite()) {
                return Err(GridError::Invalid(format!(
                    "branch {}-{} has a non-finite r, x, b or rate_a ({}, {}, {}, {})",
                    br.from, br.to, br.r, br.x, br.b, br.rate_a
                )));
            }
            if br.r == 0.0 && br.x == 0.0 {
                return Err(GridError::Invalid(format!(
                    "branch {}-{} has zero impedance (r = x = 0)",
                    br.from, br.to
                )));
            }
            br_from.push(fi);
            br_to.push(ti);
            br_y.push(br.admittance());
            rate_a.push(if br.rate_a > 0.0 {
                perunit::to_pu(br.rate_a, base)
            } else {
                f64::INFINITY
            });
            angmin.push(br.angmin.to_radians());
            angmax.push(br.angmax.to_radians());
        }
        let nbranch = br_from.len();
        if nbranch == 0 {
            return Err(GridError::Invalid("no in-service branches".into()));
        }

        // Adjacency.
        let mut gens_at_bus = vec![Vec::new(); nbus];
        for (gi, &b) in gen_bus.iter().enumerate() {
            gens_at_bus[b].push(gi);
        }
        let mut branches_at_bus = vec![Vec::new(); nbus];
        for l in 0..nbranch {
            branches_at_bus[br_from[l]].push((l, BranchEnd::From));
            branches_at_bus[br_to[l]].push((l, BranchEnd::To));
        }

        let network = Network {
            name: case.name.clone(),
            base_mva: base,
            nbus,
            bus_id,
            pd,
            qd,
            gs,
            bs,
            vmin,
            vmax,
            ref_bus,
            ngen,
            gen_bus,
            pmin,
            pmax,
            qmin,
            qmax,
            cost_c2,
            cost_c1,
            cost_c0,
            nbranch,
            br_from,
            br_to,
            br_y,
            rate_a,
            angmin,
            angmax,
            gens_at_bus,
            branches_at_bus,
        };
        network.check_connectivity()?;
        Ok(network)
    }

    /// Verify every bus is reachable from the reference bus via in-service
    /// branches.
    fn check_connectivity(&self) -> Result<(), GridError> {
        let mut seen = vec![false; self.nbus];
        let mut stack = vec![self.ref_bus];
        seen[self.ref_bus] = true;
        let mut count = 1usize;
        while let Some(b) = stack.pop() {
            for &(l, _) in &self.branches_at_bus[b] {
                for nb in [self.br_from[l], self.br_to[l]] {
                    if !seen[nb] {
                        seen[nb] = true;
                        count += 1;
                        stack.push(nb);
                    }
                }
            }
        }
        if count != self.nbus {
            Err(GridError::Disconnected {
                unreachable_buses: self.nbus - count,
            })
        } else {
            Ok(())
        }
    }

    /// Evaluate the total generation cost ($/hr) at per-unit outputs `pg`.
    pub fn generation_cost(&self, pg: &[f64]) -> f64 {
        assert_eq!(pg.len(), self.ngen);
        (0..self.ngen)
            .map(|g| (self.cost_c2[g] * pg[g] + self.cost_c1[g]) * pg[g] + self.cost_c0[g])
            .sum()
    }

    /// Squared line-limit (p.u.^2) for a branch, tightened by `margin`
    /// (e.g. 0.99 as in Section IV-A of the paper). Infinite ratings stay
    /// infinite.
    pub fn rate_limit_sq(&self, l: usize, margin: f64) -> f64 {
        let r = self.rate_a[l];
        if r.is_finite() {
            (margin * r) * (margin * r)
        } else {
            f64::INFINITY
        }
    }

    /// Total real load (p.u.).
    pub fn total_pd(&self) -> f64 {
        self.pd.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-side totals of a case, the references the case, parser and
    /// generator tests compare against.
    impl Case {
        /// Total real load (MW) of in-service buses.
        pub(crate) fn total_load_mw(&self) -> f64 {
            self.buses
                .iter()
                .filter(|b| b.in_service())
                .map(|b| b.pd)
                .sum()
        }

        /// Total in-service generation capacity (MW).
        pub(crate) fn total_capacity_mw(&self) -> f64 {
            self.generators
                .iter()
                .filter(|g| g.status)
                .map(|g| g.pmax)
                .sum()
        }
    }
    use crate::cases;

    #[test]
    fn compile_case9() {
        let net = cases::case9().compile().unwrap();
        assert_eq!(net.nbus, 9);
        assert_eq!(net.ngen, 3);
        assert_eq!(net.nbranch, 9);
        // Loads converted to p.u.
        let total = net.total_pd();
        assert!((total - 3.15).abs() < 1e-9, "total load {total}");
    }

    #[test]
    fn reference_bus_detected() {
        let net = cases::case9().compile().unwrap();
        assert_eq!(net.bus_id[net.ref_bus], 1);
    }

    #[test]
    fn adjacency_is_consistent() {
        let net = cases::case9().compile().unwrap();
        let mut branch_slots = 0;
        for (b, list) in net.branches_at_bus.iter().enumerate() {
            for &(l, end) in list {
                match end {
                    BranchEnd::From => assert_eq!(net.br_from[l], b),
                    BranchEnd::To => assert_eq!(net.br_to[l], b),
                }
                branch_slots += 1;
            }
        }
        assert_eq!(branch_slots, 2 * net.nbranch);
        for (b, list) in net.gens_at_bus.iter().enumerate() {
            for &g in list {
                assert_eq!(net.gen_bus[g], b);
            }
        }
    }

    #[test]
    fn disconnected_network_rejected() {
        let mut case = cases::case9();
        // Remove all branches touching bus 9 -> disconnects it.
        case.branches.retain(|b| b.from != 9 && b.to != 9);
        let err = case.compile().unwrap_err();
        assert!(matches!(err, GridError::Disconnected { .. }));
    }

    #[test]
    fn unknown_generator_bus_rejected() {
        let mut case = cases::case9();
        case.generators[0].bus = 999;
        assert!(matches!(
            case.compile().unwrap_err(),
            GridError::UnknownBus(999)
        ));
    }

    #[test]
    fn duplicate_bus_id_rejected() {
        let mut case = cases::case9();
        let dup = case.buses[0].clone();
        case.buses.push(dup);
        assert!(matches!(case.compile().unwrap_err(), GridError::Invalid(_)));
    }

    #[test]
    fn generation_cost_matches_manual_sum() {
        let net = cases::case9().compile().unwrap();
        let pg = vec![0.9, 1.3, 0.8];
        let mut expected = 0.0;
        for (g, &p) in pg.iter().enumerate() {
            expected += net.cost_c2[g] * p * p + net.cost_c1[g] * p + net.cost_c0[g];
        }
        assert!((net.generation_cost(&pg) - expected).abs() < 1e-9);
    }

    #[test]
    fn rate_limit_tightening() {
        let net = cases::case9().compile().unwrap();
        let l = 0;
        let full = net.rate_limit_sq(l, 1.0);
        let tight = net.rate_limit_sq(l, 0.99);
        assert!(tight < full);
        assert!((tight / full - 0.9801).abs() < 1e-12);
    }

    #[test]
    fn scale_load_scales_both_components() {
        let case = cases::case9();
        let scaled = case.scale_load(1.05);
        assert!((scaled.total_load_mw() - case.total_load_mw() * 1.05).abs() < 1e-9);
    }

    #[test]
    fn out_of_service_components_dropped() {
        let mut case = cases::case9();
        case.branches[1].status = false; // branch 4-5
                                         // Removing branch 4-5 keeps the ring connected.
        let net = case.compile().unwrap();
        assert_eq!(net.nbranch, 8);
    }

    #[test]
    fn zero_rating_becomes_infinite() {
        let mut case = cases::case9();
        case.branches[0].rate_a = 0.0;
        let net = case.compile().unwrap();
        assert!(net.rate_a[0].is_infinite());
        assert!(net.rate_limit_sq(0, 0.99).is_infinite());
    }

    /// case9 through its MATPOWER text, edited by `edit` on the way.
    fn case9_through_text(edit: impl FnOnce(&mut Case)) -> Result<Case, GridError> {
        let mut case = crate::case9();
        edit(&mut case);
        crate::matpower::parse_case(&crate::matpower::write_case(&case), "case9")
    }

    #[test]
    fn compile_refuses_a_non_finite_load_naming_its_bus() {
        let case = case9_through_text(|c| {
            let bus = c.buses.iter_mut().find(|b| b.id == 5).unwrap();
            bus.pd = f64::NAN;
        })
        .expect("the text parses");
        assert!(case.buses.iter().any(|b| b.pd.is_nan()));
        match case.compile() {
            Err(GridError::Invalid(msg)) => assert!(msg.starts_with("bus 5 "), "{msg}"),
            other => panic!("a NaN load compiled: {other:?}"),
        }
    }

    #[test]
    fn compile_refuses_a_zero_impedance_branch_naming_it() {
        let case = case9_through_text(|c| {
            let br = c
                .branches
                .iter_mut()
                .find(|b| (b.from, b.to) == (5, 6))
                .unwrap();
            (br.r, br.x) = (0.0, 0.0);
        })
        .expect("the text parses");
        match case.compile() {
            Err(GridError::Invalid(msg)) => {
                assert_eq!(msg, "branch 5-6 has zero impedance (r = x = 0)")
            }
            other => panic!("a zero-impedance branch compiled: {other:?}"),
        }
    }

    #[test]
    fn compile_refuses_non_finite_branch_data() {
        for field in 0..4 {
            let mut case = crate::case9();
            let br = &mut case.branches[2];
            *[&mut br.r, &mut br.x, &mut br.b, &mut br.rate_a][field] = f64::INFINITY;
            let (from, to) = (br.from, br.to);
            match case.compile() {
                Err(GridError::Invalid(msg)) => {
                    assert!(msg.starts_with(&format!("branch {from}-{to} ")), "{msg}")
                }
                other => panic!("field {field} = inf compiled: {other:?}"),
            }
        }
    }
}
