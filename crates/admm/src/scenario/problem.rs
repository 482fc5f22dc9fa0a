//! Shared, `Arc`-deduplicated read-only problem data for scenario execution.
//!
//! Every scenario of a batch perturbs the same base network, so most of the
//! read-only data the kernels consume is identical across scenarios: the
//! consensus [`Layout`], the `v`-scatter plan, and the per-constraint `ρ`
//! vector depend only on the topology and are built **once** per scenario
//! set, and every slot's kernels read that one copy; the per-component data vectors (generators, branches, buses) are
//! built per scenario but *interned* — a scenario whose generator data
//! equals an earlier scenario's shares that scenario's `Arc` instead of
//! carrying a copy. Load-ramp scenarios share one generator and one branch
//! vector; N−1 outage scenarios additionally share one bus vector. The
//! kernels can consume shared data from any slot because every stored index
//! is scenario-local (the element functions index the slot's segments of the
//! constraint buffers, see `crate::kernels`).

use crate::kernels::{self, BranchData, BusData, GenData, ProblemData};
use crate::layout::{BusSlot, Layout};
use crate::params::AdmmParams;
use gridsim_grid::Network;
use std::sync::Arc;

/// Read-only per-scenario kernel data; cheap to clone (three `Arc`s).
#[derive(Debug, Clone)]
pub(crate) struct ScenarioData {
    pub(crate) gens: Arc<Vec<GenData>>,
    pub(crate) branches: Arc<Vec<BranchData>>,
    pub(crate) buses: Arc<Vec<BusData>>,
}

/// The shared problem of a scenario set: one layout/scatter-plan/ρ-vector
/// for the whole set plus interned per-scenario component data.
#[derive(Debug)]
pub struct ScenarioProblem {
    pub(crate) layout: Arc<Layout>,
    /// Scenario-local `v`-scatter plan (one copy serves every slot).
    pub(crate) vplan: Arc<Vec<(usize, BusSlot)>>,
    /// Per-constraint penalties of one scenario segment, read by every
    /// slot's kernels.
    pub(crate) rho: Arc<Vec<f64>>,
    pub(crate) data: Vec<ScenarioData>,
    pub(crate) nbus: usize,
    pub(crate) ngen: usize,
    pub(crate) nbranch: usize,
    /// Constraints per scenario segment.
    pub(crate) m: usize,
    distinct: (usize, usize, usize),
}

/// Intern `v` into `pool`: return the existing `Arc` when an equal vector
/// was already built, otherwise store and return a new one.
///
/// The scan is linear in the number of *distinct* vectors, and each
/// comparison early-exits on the first differing element (for all-distinct
/// sets, e.g. random per-bus perturbations, the first bus's load already
/// differs), so build cost stays far below one solve tick even at thousands
/// of scenarios. Revisit with hashing if scenario counts grow past that.
fn intern<T: PartialEq>(pool: &mut Vec<Arc<Vec<T>>>, v: Vec<T>) -> Arc<Vec<T>> {
    if let Some(existing) = pool.iter().find(|a| ***a == v) {
        return Arc::clone(existing);
    }
    let a = Arc::new(v);
    pool.push(Arc::clone(&a));
    a
}

impl ScenarioProblem {
    /// Build the shared problem for `nets` (one scenario per network).
    /// Panics unless every network shares the first one's dimensions and
    /// topology; `pg_bounds[s]`, when given, applies to scenario `s`.
    pub fn build(
        nets: &[Network],
        params: &AdmmParams,
        pg_bounds: Option<&[(Vec<f64>, Vec<f64>)]>,
    ) -> ScenarioProblem {
        let (nbus, ngen, nbranch) = check_compatible(nets);
        if let Some(b) = pg_bounds {
            assert_eq!(b.len(), nets.len(), "one pg bound pair per scenario");
        }
        let layout = Arc::new(Layout::build(&nets[0], params));
        let m = layout.num_constraints();
        let vplan = Arc::new(kernels::v_plan(&layout));
        let rho = Arc::new(layout.rho_vector());
        let mut gen_pool: Vec<Arc<Vec<GenData>>> = Vec::new();
        let mut branch_pool: Vec<Arc<Vec<BranchData>>> = Vec::new();
        let mut bus_pool: Vec<Arc<Vec<BusData>>> = Vec::new();
        let data = nets
            .iter()
            .enumerate()
            .map(|(s, net)| {
                let bounds = pg_bounds.map(|b| &b[s]);
                let d = ProblemData::build(net, &layout, params, bounds);
                ScenarioData {
                    gens: intern(&mut gen_pool, d.gens),
                    branches: intern(&mut branch_pool, d.branches),
                    buses: intern(&mut bus_pool, d.buses),
                }
            })
            .collect();
        ScenarioProblem {
            layout,
            vplan,
            rho,
            data,
            nbus,
            ngen,
            nbranch,
            m,
            distinct: (gen_pool.len(), branch_pool.len(), bus_pool.len()),
        }
    }

    /// Number of scenarios.
    pub fn num_scenarios(&self) -> usize {
        self.data.len()
    }

    /// Number of *distinct* (generator, branch, bus) data vectors actually
    /// stored after deduplication — at most one per scenario each, exactly
    /// one each when all scenarios share the respective data.
    pub fn distinct_data_vecs(&self) -> (usize, usize, usize) {
        self.distinct
    }
}

/// Validate that every scenario network shares the first one's dimensions
/// and topology; returns `(nbus, ngen, nbranch)`.
pub(crate) fn check_compatible(nets: &[Network]) -> (usize, usize, usize) {
    assert!(!nets.is_empty(), "need at least one scenario");
    let first = &nets[0];
    for (s, net) in nets.iter().enumerate().skip(1) {
        assert!(
            net.nbus == first.nbus && net.ngen == first.ngen && net.nbranch == first.nbranch,
            "scenario {s} dimensions ({}, {}, {}) differ from scenario 0 ({}, {}, {})",
            net.nbus,
            net.ngen,
            net.nbranch,
            first.nbus,
            first.ngen,
            first.nbranch
        );
        assert!(
            net.gen_bus == first.gen_bus
                && net.br_from == first.br_from
                && net.br_to == first.br_to,
            "scenario {s} topology differs from scenario 0; scenarios must share \
             the base network's buses, generators and branch endpoints"
        );
    }
    (first.nbus, first.ngen, first.nbranch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_grid::ScenarioSet;

    #[test]
    fn load_ramp_shares_generator_and_branch_data() {
        let set = ScenarioSet::load_ramp(gridsim_grid::case9(), 4, 0.95, 1.05);
        let nets = set.networks().unwrap();
        let p = ScenarioProblem::build(&nets, &AdmmParams::default(), None);
        // Loads differ per scenario; generator and branch data do not.
        assert_eq!(p.distinct_data_vecs(), (1, 1, 4));
        assert!(Arc::ptr_eq(&p.data[0].gens, &p.data[3].gens));
        assert!(Arc::ptr_eq(&p.data[0].branches, &p.data[3].branches));
        assert!(!Arc::ptr_eq(&p.data[0].buses, &p.data[1].buses));
    }

    #[test]
    fn outages_share_bus_and_generator_data() {
        let set = ScenarioSet::branch_outages(gridsim_grid::case9(), 3);
        let nets = set.networks().unwrap();
        assert_eq!(nets.len(), 3);
        let p = ScenarioProblem::build(&nets, &AdmmParams::default(), None);
        // Outages keep nominal loads (shared buses) but open distinct lines.
        let (gens, branches, buses) = p.distinct_data_vecs();
        assert_eq!(gens, 1);
        assert_eq!(buses, 1);
        assert_eq!(branches, 3);
        assert!(Arc::ptr_eq(&p.data[0].buses, &p.data[2].buses));
    }

    #[test]
    fn per_scenario_pg_bounds_split_generator_data() {
        let net = gridsim_grid::case9().compile().unwrap();
        let nets = vec![net.clone(), net];
        let lo: Vec<f64> = nets[0].pmin.clone();
        let hi: Vec<f64> = nets[0].pmax.iter().map(|&p| p * 0.9).collect();
        let bounds = vec![(nets[0].pmin.clone(), nets[0].pmax.clone()), (lo, hi)];
        let p = ScenarioProblem::build(&nets, &AdmmParams::default(), Some(&bounds));
        assert_eq!(
            p.distinct_data_vecs().0,
            2,
            "tightened bounds must not dedup"
        );
    }

    #[test]
    #[should_panic(expected = "topology differs")]
    fn mismatched_topology_panics() {
        let a = gridsim_grid::case9().compile().unwrap();
        let mut case_b = gridsim_grid::case9();
        case_b.branches.swap(0, 3);
        let b = case_b.compile().unwrap();
        let _ = ScenarioProblem::build(&[a, b], &AdmmParams::default(), None);
    }
}
