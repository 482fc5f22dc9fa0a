//! Scenario-set generation for batched multi-scenario solves.
//!
//! A *scenario* is a perturbation of one base case that leaves the network's
//! dimensions and topology untouched — the property the batched ADMM driver
//! needs so that all `K` scenarios share one constraint layout and can run
//! through scenario-major buffers in single kernel launches. The scenario
//! families cover the common studies:
//!
//! * **load ramps** — one uniform load multiplier per scenario,
//! * **per-bus perturbations** — independent random multipliers per bus
//!   (deterministic in the seed),
//! * **branch outages** — N−1 single-branch and N−2 branch-pair
//!   contingencies. An outage keeps the branch record in place (so branch
//!   indexing and the consensus layout are unchanged) and opens the line
//!   electrically: series impedance driven to [`OUTAGE_REACTANCE`], charging
//!   removed, rating lifted, so the branch carries ~zero flow and never
//!   binds,
//! * **generator outages** — a unit taken out of service by collapsing its
//!   active/reactive bounds to zero. The record (and therefore the variable
//!   layout) stays in place; the unit simply cannot dispatch.
//!
//! Every outage family is screened so the derived cases stay *solvable by
//! construction*: branch outages never island the network (bridges are
//! skipped for N−1; pairs are additionally connectivity-checked for N−2),
//! and generator outages keep enough remaining capacity to serve the load
//! (see [`GEN_OUTAGE_CAPACITY_MARGIN`]).

use crate::error::GridError;
use crate::network::{Case, Network};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Series reactance of an opened branch: large enough that the admittance
/// (≈ 1/x) is numerically negligible against real line admittances (~1–100),
/// small enough to stay far from f64 overflow in the admittance math.
pub const OUTAGE_REACTANCE: f64 = 1e7;

/// Minimum ratio of remaining generation capacity (Σ pmax over in-service
/// units excluding the outaged one) to total real load for a generator
/// outage to be considered: an outage below this margin is an energy-
/// deficient system, not a meaningful screening scenario.
pub(crate) const GEN_OUTAGE_CAPACITY_MARGIN: f64 = 1.1;

/// One scenario: per-bus load multipliers plus optional branch/generator
/// outages.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used as the derived case's name).
    pub name: String,
    /// Per-bus multiplier applied to both `pd` and `qd`; length must equal
    /// the base case's bus count.
    pub bus_load_scale: Vec<f64>,
    /// Indices (into the base case's branch list) of branches taken out of
    /// service: empty for no outage, one entry for N−1, two for N−2.
    pub branch_outages: Vec<usize>,
    /// Index (into the base case's generator list) of a unit taken out of
    /// service, if any.
    pub gen_outage: Option<usize>,
}

impl Scenario {
    /// A scenario scaling every bus load by the same factor.
    pub(crate) fn uniform(name: impl Into<String>, nbus: usize, factor: f64) -> Scenario {
        Scenario {
            name: name.into(),
            bus_load_scale: vec![factor; nbus],
            branch_outages: Vec::new(),
            gen_outage: None,
        }
    }

    /// A nominal-load scenario with branch `l` out of service.
    pub(crate) fn branch_outage(name: impl Into<String>, nbus: usize, l: usize) -> Scenario {
        Scenario {
            name: name.into(),
            bus_load_scale: vec![1.0; nbus],
            branch_outages: vec![l],
            gen_outage: None,
        }
    }

    /// A nominal-load N−2 scenario with branches `a` and `b` out of service.
    pub(crate) fn branch_pair_outage(
        name: impl Into<String>,
        nbus: usize,
        a: usize,
        b: usize,
    ) -> Scenario {
        Scenario {
            name: name.into(),
            bus_load_scale: vec![1.0; nbus],
            branch_outages: vec![a, b],
            gen_outage: None,
        }
    }

    /// A nominal-load scenario with generator `g` out of service.
    pub(crate) fn generator_outage(name: impl Into<String>, nbus: usize, g: usize) -> Scenario {
        Scenario {
            name: name.into(),
            bus_load_scale: vec![1.0; nbus],
            branch_outages: Vec::new(),
            gen_outage: Some(g),
        }
    }

    /// Apply the scenario to a base case, producing a derived case with
    /// identical dimensions and topology.
    pub(crate) fn apply(&self, base: &Case) -> Case {
        assert_eq!(
            self.bus_load_scale.len(),
            base.buses.len(),
            "scenario '{}' has {} bus multipliers for a {}-bus case",
            self.name,
            self.bus_load_scale.len(),
            base.buses.len()
        );
        let mut case = base.clone();
        case.name = self.name.clone();
        for (bus, &f) in case.buses.iter_mut().zip(&self.bus_load_scale) {
            bus.pd *= f;
            bus.qd *= f;
        }
        for &l in &self.branch_outages {
            assert!(
                l < case.branches.len(),
                "scenario '{}' outages branch {} of {}",
                self.name,
                l,
                case.branches.len()
            );
            let br = &mut case.branches[l];
            br.r = 0.0;
            br.x = OUTAGE_REACTANCE;
            br.b = 0.0;
            br.rate_a = 0.0; // unlimited: the open line must never bind
            br.tap = 0.0;
            br.shift = 0.0;
        }
        if let Some(g) = self.gen_outage {
            assert!(
                g < case.generators.len(),
                "scenario '{}' outages generator {} of {}",
                self.name,
                g,
                case.generators.len()
            );
            // Keep the record (and with it the variable layout) in place;
            // collapsing the bounds to zero pins the unit's dispatch at 0.
            let gen = &mut case.generators[g];
            gen.pg = 0.0;
            gen.qg = 0.0;
            gen.pmin = 0.0;
            gen.pmax = 0.0;
            gen.qmin = 0.0;
            gen.qmax = 0.0;
        }
        case
    }
}

/// A base case plus the scenarios derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSet {
    /// The base case every scenario perturbs.
    pub base: Case,
    /// The scenarios, in solve order.
    pub scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// `k` scenarios ramping the uniform load multiplier linearly from `lo`
    /// to `hi` (inclusive); `k = 1` uses `lo`.
    pub fn load_ramp(base: Case, k: usize, lo: f64, hi: f64) -> ScenarioSet {
        assert!(k > 0, "need at least one scenario");
        let nbus = base.buses.len();
        let scenarios = (0..k)
            .map(|i| {
                let t = if k == 1 {
                    0.0
                } else {
                    i as f64 / (k - 1) as f64
                };
                let f = lo + t * (hi - lo);
                Scenario::uniform(format!("{}_ramp{:.4}", base.name, f), nbus, f)
            })
            .collect();
        ScenarioSet { base, scenarios }
    }

    /// `k` scenarios with independent per-bus load multipliers drawn
    /// uniformly from `[1 − sigma, 1 + sigma]`. Deterministic in `seed`;
    /// `sigma = 0` gives `k` nominal-load scenarios without a draw.
    pub fn perturbed_loads(base: Case, k: usize, sigma: f64, seed: u64) -> ScenarioSet {
        assert!(k > 0, "need at least one scenario");
        assert!((0.0..1.0).contains(&sigma), "sigma must be in [0, 1)");
        let nbus = base.buses.len();
        let mut rng = SmallRng::seed_from_u64(seed);
        let scenarios = (0..k)
            .map(|i| Scenario {
                name: format!("{}_perturbed{}", base.name, i),
                bus_load_scale: (0..nbus)
                    .map(|_| match sigma > 0.0 {
                        true => 1.0 + rng.gen_range(-sigma..sigma),
                        false => 1.0,
                    })
                    .collect(),
                branch_outages: Vec::new(),
                gen_outage: None,
            })
            .collect();
        ScenarioSet { base, scenarios }
    }

    /// Up to `k` single-branch-outage (N−1) scenarios at nominal load,
    /// spread evenly over the eligible branches (see
    /// [`eligible_branch_outages`]); the set may hold fewer than `k`
    /// scenarios (empty if the topology is a tree).
    pub fn branch_outages(base: Case, k: usize) -> ScenarioSet {
        assert!(k > 0, "need at least one scenario");
        let nbus = base.buses.len();
        let scenarios = spread(&eligible_branch_outages(&base), k)
            .into_iter()
            .map(|l| Scenario::branch_outage(format!("{}_outage{}", base.name, l), nbus, l))
            .collect();
        ScenarioSet { base, scenarios }
    }

    /// Up to `k` branch-pair-outage (N−2) scenarios at nominal load, spread
    /// evenly over the eligible pairs (see `eligible_branch_pairs`); the
    /// set may hold fewer than `k` scenarios.
    pub(crate) fn branch_pair_outages(base: Case, k: usize) -> ScenarioSet {
        assert!(k > 0, "need at least one scenario");
        let nbus = base.buses.len();
        let scenarios = spread(&eligible_branch_pairs(&base), k)
            .into_iter()
            .map(|(a, b)| {
                Scenario::branch_pair_outage(format!("{}_outage{}x{}", base.name, a, b), nbus, a, b)
            })
            .collect();
        ScenarioSet { base, scenarios }
    }

    /// Up to `k` single-generator-outage scenarios at nominal load, spread
    /// evenly over the eligible units (see `eligible_generator_outages`);
    /// the set may hold fewer than `k` scenarios.
    pub fn generator_outages(base: Case, k: usize) -> ScenarioSet {
        assert!(k > 0, "need at least one scenario");
        let nbus = base.buses.len();
        let scenarios = spread(&eligible_generator_outages(&base), k)
            .into_iter()
            .map(|g| Scenario::generator_outage(format!("{}_genout{}", base.name, g), nbus, g))
            .collect();
        ScenarioSet { base, scenarios }
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when the set holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Append another set's scenarios (same base case expected; the bases
    /// are not checked beyond the bus count asserted at `apply` time).
    pub fn extend(&mut self, other: ScenarioSet) {
        self.scenarios.extend(other.scenarios);
    }

    /// The derived cases, in scenario order.
    pub fn cases(&self) -> Vec<Case> {
        self.scenarios.iter().map(|s| s.apply(&self.base)).collect()
    }

    /// Compile every derived case into a [`Network`].
    pub fn networks(&self) -> Result<Vec<Network>, GridError> {
        self.cases().iter().map(|c| c.compile()).collect()
    }
}

/// Evenly-spread selection of up to `k` items from `eligible`, in eligible
/// order — the deterministic subsampling rule shared by the outage
/// constructors.
fn spread<T: Copy>(eligible: &[T], k: usize) -> Vec<T> {
    let k = k.min(eligible.len());
    (0..k).map(|i| eligible[i * eligible.len() / k]).collect()
}

/// Branch indices whose single outage keeps the network connected: every
/// non-bridge branch, in index order. Outaging a bridge islands part of the
/// system (typically a generator or load pocket), which is not a meaningful
/// N−1 screen.
pub fn eligible_branch_outages(case: &Case) -> Vec<usize> {
    let bridge = bridges(case);
    (0..case.branches.len()).filter(|&l| !bridge[l]).collect()
}

/// Branch pairs `(a, b)` with `a < b` whose joint outage keeps the network
/// connected, in lexicographic order. Both branches must individually be
/// non-bridges (otherwise the single outage already islands), and the pair
/// is connectivity-checked on the graph minus both edges — two non-bridges
/// can still island jointly (e.g. the two parallel paths of a ring).
pub(crate) fn eligible_branch_pairs(case: &Case) -> Vec<(usize, usize)> {
    let bridge = bridges(case);
    let singles: Vec<usize> = (0..case.branches.len()).filter(|&l| !bridge[l]).collect();
    let mut pairs = Vec::new();
    for (i, &a) in singles.iter().enumerate() {
        for &b in &singles[i + 1..] {
            if connected_without(case, &[a, b]) {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// Generator indices whose outage leaves enough capacity to serve the load:
/// in-service units whose removal keeps
/// `Σ pmax ≥ `[`GEN_OUTAGE_CAPACITY_MARGIN`]` × Σ pd` over the remaining
/// in-service units, in index order. A unit that is the only in-service
/// generator is never eligible.
pub(crate) fn eligible_generator_outages(case: &Case) -> Vec<usize> {
    let total_load: f64 = case.buses.iter().map(|b| b.pd.max(0.0)).sum();
    let in_service: Vec<usize> = (0..case.generators.len())
        .filter(|&g| case.generators[g].status)
        .collect();
    let total_pmax: f64 = in_service.iter().map(|&g| case.generators[g].pmax).sum();
    in_service
        .iter()
        .copied()
        .filter(|&g| {
            in_service.len() > 1
                && total_pmax - case.generators[g].pmax >= GEN_OUTAGE_CAPACITY_MARGIN * total_load
        })
        .collect()
}

/// True when the case's topology stays connected after removing the
/// branches in `skip` (union-find over the remaining in-service branches).
fn connected_without(case: &Case, skip: &[usize]) -> bool {
    let n = case.buses.len();
    let idx: std::collections::HashMap<usize, usize> = case
        .buses
        .iter()
        .enumerate()
        .map(|(i, b)| (b.id, i))
        .collect();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    let mut components = n;
    for (l, br) in case.branches.iter().enumerate() {
        if skip.contains(&l) || !br.status {
            continue;
        }
        let a = find(&mut parent, idx[&br.from]);
        let b = find(&mut parent, idx[&br.to]);
        if a != b {
            parent[a] = b;
            components -= 1;
        }
    }
    components == 1
}

/// Per-branch bridge flags of a case's topology, via an iterative low-link
/// DFS over the multigraph. Parallel circuits between the same bus pair are
/// never bridges (the DFS skips only the exact edge it entered through).
fn bridges(case: &Case) -> Vec<bool> {
    let n = case.buses.len();
    let idx: std::collections::HashMap<usize, usize> = case
        .buses
        .iter()
        .enumerate()
        .map(|(i, b)| (b.id, i))
        .collect();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (l, br) in case.branches.iter().enumerate() {
        let a = idx[&br.from];
        let b = idx[&br.to];
        adj[a].push((b, l));
        adj[b].push((a, l));
    }
    let mut tin = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut is_bridge = vec![false; case.branches.len()];
    let mut timer = 0usize;
    for root in 0..n {
        if tin[root] != usize::MAX {
            continue;
        }
        tin[root] = timer;
        low[root] = timer;
        timer += 1;
        // Frames of (node, edge entered through, next adjacency index).
        let mut stack: Vec<(usize, usize, usize)> = vec![(root, usize::MAX, 0)];
        while let Some(frame) = stack.last_mut() {
            let (v, entry_edge) = (frame.0, frame.1);
            if frame.2 < adj[v].len() {
                let (to, e) = adj[v][frame.2];
                frame.2 += 1;
                if e == entry_edge {
                    continue;
                }
                if tin[to] == usize::MAX {
                    tin[to] = timer;
                    low[to] = timer;
                    timer += 1;
                    stack.push((to, e, 0));
                } else {
                    low[v] = low[v].min(tin[to]);
                }
            } else {
                stack.pop();
                if let Some(parent) = stack.last() {
                    let p = parent.0;
                    low[p] = low[p].min(low[v]);
                    if low[v] > tin[p] {
                        is_bridge[entry_edge] = true;
                    }
                }
            }
        }
    }
    is_bridge
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;

    #[test]
    fn load_ramp_spans_the_requested_range() {
        let set = ScenarioSet::load_ramp(cases::case9(), 5, 0.9, 1.1);
        assert_eq!(set.len(), 5);
        assert_eq!(set.scenarios[0].bus_load_scale[0], 0.9);
        assert_eq!(set.scenarios[4].bus_load_scale[0], 1.1);
        assert!((set.scenarios[2].bus_load_scale[0] - 1.0).abs() < 1e-12);
        // Uniform within a scenario.
        for s in &set.scenarios {
            assert!(s.bus_load_scale.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn scenarios_preserve_dimensions_and_topology() {
        let base = cases::case14();
        let mut set = ScenarioSet::perturbed_loads(base.clone(), 3, 0.05, 42);
        set.extend(ScenarioSet::branch_outages(base.clone(), 3));
        set.extend(ScenarioSet::branch_pair_outages(base.clone(), 3));
        set.extend(ScenarioSet::generator_outages(base.clone(), 2));
        let base_net = base.compile().unwrap();
        for net in set.networks().unwrap() {
            assert_eq!(net.nbus, base_net.nbus);
            assert_eq!(net.ngen, base_net.ngen);
            assert_eq!(net.nbranch, base_net.nbranch);
            assert_eq!(net.br_from, base_net.br_from);
            assert_eq!(net.br_to, base_net.br_to);
        }
    }

    #[test]
    fn perturbed_loads_are_deterministic_in_seed() {
        let a = ScenarioSet::perturbed_loads(cases::case9(), 4, 0.03, 7);
        let b = ScenarioSet::perturbed_loads(cases::case9(), 4, 0.03, 7);
        assert_eq!(a, b);
        let c = ScenarioSet::perturbed_loads(cases::case9(), 4, 0.03, 8);
        assert_ne!(a, c);
        for s in &a.scenarios {
            for &f in &s.bus_load_scale {
                assert!((0.97..=1.03).contains(&f));
            }
        }
    }

    /// `sigma = 0` is in the documented range: nominal loads, no draw. It
    /// used to panic in the sampler on the empty range `-0.0..0.0`.
    #[test]
    fn unperturbed_loads_are_nominal() {
        let set = ScenarioSet::perturbed_loads(cases::case9(), 3, 0.0, 7);
        assert_eq!(set.len(), 3);
        for s in &set.scenarios {
            assert!(s.bus_load_scale.iter().all(|&f| f == 1.0));
        }
        assert!(set.networks().is_ok());
    }

    #[test]
    fn outage_opens_the_branch_electrically() {
        let base = cases::case9();
        let set = ScenarioSet::branch_outages(base.clone(), 9);
        // case9 has 9 branches; the three generator leads are bridges and
        // are skipped, leaving the six ring branches.
        assert_eq!(set.len(), 6);
        let case = set.scenarios[0].apply(&base);
        let l = set.scenarios[0].branch_outages[0];
        let y = case.branches[l].admittance();
        assert!(y.gii.abs() < 1e-6 && y.bii.abs() < 1e-6);
        assert!(y.gij.abs() < 1e-6 && y.bij.abs() < 1e-6);
        // Loads untouched, other branches untouched.
        assert_eq!(case.buses[0].pd, base.buses[0].pd);
        assert_eq!(case.branches[l + 1], base.branches[l + 1]);
    }

    #[test]
    fn outages_never_select_bridges() {
        let base = cases::case9();
        let bridge = bridges(&base);
        // Every generator lead (the only branch at its generator bus) is a
        // bridge; ring branches are not.
        assert_eq!(bridge.iter().filter(|&&b| b).count(), 3);
        for s in &ScenarioSet::branch_outages(base, 9).scenarios {
            assert!(!bridge[s.branch_outages[0]]);
        }
    }

    #[test]
    fn branch_pairs_keep_the_network_connected() {
        let base = cases::case9();
        // The six ring branches: removing any two of them splits the ring,
        // EXCEPT there is no such exception on a single cycle — every pair
        // of ring-edge removals islands it, so no pair is eligible.
        assert!(eligible_branch_pairs(&base).is_empty());
        // case14 is meshed: eligible pairs exist and all stay connected.
        let meshed = cases::case14();
        let pairs = eligible_branch_pairs(&meshed);
        assert!(!pairs.is_empty(), "case14 should admit N−2 pairs");
        for &(a, b) in &pairs {
            assert!(a < b);
            assert!(connected_without(&meshed, &[a, b]), "pair ({a}, {b})");
        }
        let set = ScenarioSet::branch_pair_outages(meshed.clone(), 5);
        assert!(set.len() <= 5 && !set.is_empty());
        // The pair outage opens both branches electrically.
        let case = set.scenarios[0].apply(&meshed);
        for &l in &set.scenarios[0].branch_outages {
            assert_eq!(case.branches[l].x, OUTAGE_REACTANCE);
        }
    }

    #[test]
    fn generator_outages_keep_capacity_margin() {
        let base = cases::case9();
        let eligible = eligible_generator_outages(&base);
        // case9: three units of 250/300/270 MW against 315 MW of load —
        // losing any one unit leaves ≥ 520 MW, all three are eligible.
        assert_eq!(eligible, vec![0, 1, 2]);
        let total_load: f64 = base.buses.iter().map(|b| b.pd.max(0.0)).sum();
        for &g in &eligible {
            let remaining: f64 = base
                .generators
                .iter()
                .enumerate()
                .filter(|&(i, gen)| i != g && gen.status)
                .map(|(_, gen)| gen.pmax)
                .sum();
            assert!(remaining >= GEN_OUTAGE_CAPACITY_MARGIN * total_load);
        }
        // The outage zeroes the unit's bounds without dropping the record.
        let set = ScenarioSet::generator_outages(base.clone(), 3);
        assert_eq!(set.len(), 3);
        let case = set.scenarios[1].apply(&base);
        assert_eq!(case.generators.len(), base.generators.len());
        let g = set.scenarios[1].gen_outage.unwrap();
        assert_eq!(case.generators[g].pmax, 0.0);
        assert_eq!(case.generators[g].qmin, 0.0);
        assert!(case.generators[g].status, "record stays in service");
    }

    #[test]
    fn single_generator_case_yields_no_outage_scenarios() {
        // two_bus has one generator: taking it out is never eligible.
        let set = ScenarioSet::generator_outages(cases::two_bus(), 5);
        assert!(set.is_empty());
    }

    #[test]
    fn tree_topology_yields_no_outage_scenarios() {
        // two_bus is a single line (a bridge): no eligible N−1 scenarios.
        let set = ScenarioSet::branch_outages(cases::two_bus(), 10);
        assert!(set.is_empty());
        assert!(ScenarioSet::branch_pair_outages(cases::two_bus(), 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "bus multipliers")]
    fn wrong_multiplier_length_panics() {
        let s = Scenario::uniform("bad", 3, 1.0);
        let _ = s.apply(&cases::case9());
    }
}
