//! Deterministic synthetic grid generation.
//!
//! The paper evaluates on MATPOWER cases (pegase 1354/2869/9241/13659 and
//! ACTIVSg 25k/70k) that are not redistributable here. This module generates
//! cases with the *exact* component counts of Table I and realistic parameter
//! distributions, so the decomposition sizes, batch sizes, and scaling
//! behaviour of the experiments match the paper. Real MATPOWER files can be
//! substituted through [`crate::matpower::parse_case`] whenever available.
//!
//! Topology model: a randomized preferential-attachment spanning tree (which
//! produces the hub-dominated degree distribution typical of transmission
//! grids) plus locality-biased extra branches until the target branch count is
//! reached. Loads, generation capacity and cost curves are drawn from ranges
//! consistent with the pegase/ACTIVSg cases and scaled so that total capacity
//! exceeds total load by a configurable reserve margin.

use crate::branch::Branch;
use crate::bus::{Bus, BusType};
use crate::generator::{GenCost, Generator};
use crate::network::Case;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Specification for a synthetic case.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Case name.
    pub name: String,
    /// Number of buses.
    pub nbus: usize,
    /// Number of generators.
    pub ngen: usize,
    /// Number of branches. Must be at least `nbus - 1`.
    pub nbranch: usize,
    /// RNG seed: identical specs always produce identical cases.
    pub seed: u64,
    /// Fraction of buses carrying load.
    pub load_fraction: f64,
    /// Ratio of total generation capacity to total load.
    pub reserve_margin: f64,
    /// Average real load per load bus (MW).
    pub avg_load_mw: f64,
    /// Fraction of branches whose thermal rating is sized close to the
    /// expected loading (these may become binding constraints).
    pub tight_rating_fraction: f64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            name: "synthetic".into(),
            nbus: 100,
            ngen: 20,
            nbranch: 150,
            seed: 0,
            load_fraction: 0.7,
            reserve_margin: 1.6,
            avg_load_mw: 60.0,
            tight_rating_fraction: 0.05,
        }
    }
}

/// The six evaluation cases of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableICase {
    /// 1354-bus pegase-like case.
    Pegase1354,
    /// 2869-bus pegase-like case.
    Pegase2869,
    /// 9241-bus pegase-like case.
    Pegase9241,
    /// 13659-bus pegase-like case.
    Pegase13659,
    /// ACTIVSg 25k-like case.
    Activsg25k,
    /// ACTIVSg 70k-like case.
    Activsg70k,
}

impl TableICase {
    /// All six cases in the order of Table I.
    pub fn all() -> [TableICase; 6] {
        [
            TableICase::Pegase1354,
            TableICase::Pegase2869,
            TableICase::Pegase9241,
            TableICase::Pegase13659,
            TableICase::Activsg25k,
            TableICase::Activsg70k,
        ]
    }

    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            TableICase::Pegase1354 => "1354pegase",
            TableICase::Pegase2869 => "2869pegase",
            TableICase::Pegase9241 => "9241pegase",
            TableICase::Pegase13659 => "13659pegase",
            TableICase::Activsg25k => "ACTIVSg25k",
            TableICase::Activsg70k => "ACTIVSg70k",
        }
    }

    /// Component counts `(generators, branches, buses)` from Table I.
    pub fn dimensions(&self) -> (usize, usize, usize) {
        match self {
            TableICase::Pegase1354 => (260, 1991, 1354),
            TableICase::Pegase2869 => (510, 4582, 2869),
            TableICase::Pegase9241 => (1445, 16049, 9241),
            TableICase::Pegase13659 => (4092, 20467, 13659),
            TableICase::Activsg25k => (4834, 32230, 25000),
            TableICase::Activsg70k => (10390, 88207, 70000),
        }
    }

    /// ADMM penalty parameters `(rho_pq, rho_va)` from Table I.
    pub fn penalties(&self) -> (f64, f64) {
        match self {
            TableICase::Pegase1354 => (1e1, 1e3),
            TableICase::Pegase2869 => (1e1, 1e3),
            TableICase::Pegase9241 => (5e1, 5e3),
            TableICase::Pegase13659 => (5e1, 5e3),
            TableICase::Activsg25k => (3e3, 3e4),
            TableICase::Activsg70k => (3e4, 3e5),
        }
    }

    /// A [`SyntheticSpec`] replicating this case's dimensions.
    pub(crate) fn spec(&self) -> SyntheticSpec {
        let (ngen, nbranch, nbus) = self.dimensions();
        SyntheticSpec {
            name: self.name().to_string(),
            nbus,
            ngen,
            nbranch,
            seed: 0x5eed ^ nbus as u64,
            ..Default::default()
        }
    }

    /// Generate the synthetic stand-in case.
    pub fn generate(&self) -> Case {
        self.spec().generate()
    }

    /// A proportionally scaled-down version with roughly `nbus` buses,
    /// preserving the generator/branch-to-bus ratios. Used by the default
    /// (laptop-scale) experiment harness.
    pub fn scaled(&self, nbus: usize) -> Case {
        let (g, l, b) = self.dimensions();
        let f = nbus as f64 / b as f64;
        let nbus = nbus.max(10);
        let ngen = ((g as f64 * f).round() as usize).max(3);
        let nbranch = ((l as f64 * f).round() as usize).max(nbus + nbus / 5);
        SyntheticSpec {
            name: format!("{}_scaled{}", self.name(), nbus),
            nbus,
            ngen,
            nbranch,
            seed: 0x5eed ^ nbus as u64,
            ..Default::default()
        }
        .generate()
    }
}

impl SyntheticSpec {
    /// Generate the case. Deterministic in the spec (including the seed).
    pub fn generate(&self) -> Case {
        assert!(self.nbus >= 2, "need at least two buses");
        assert!(self.ngen >= 1, "need at least one generator");
        assert!(
            self.nbranch >= self.nbus - 1,
            "need at least nbus-1 branches for connectivity"
        );
        assert!(
            self.ngen <= self.nbus,
            "at most one generator bus per bus is placed first"
        );
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // --- loads ---
        let mut buses = Vec::with_capacity(self.nbus);
        let mut total_load = 0.0;
        for i in 0..self.nbus {
            let id = i + 1;
            let has_load = rng.gen::<f64>() < self.load_fraction;
            let (pd, qd) = if has_load {
                // Log-uniform-ish spread of load sizes around the average.
                let scale = (rng.gen::<f64>() * 1.6 + 0.2) * self.avg_load_mw;
                let pf: f64 = rng.gen_range(0.90..0.99); // power factor
                let qd = scale * (1.0 / (pf * pf) - 1.0).sqrt();
                (scale, qd)
            } else {
                (0.0, 0.0)
            };
            total_load += pd;
            buses.push(Bus {
                id,
                bus_type: BusType::Pq,
                pd,
                qd,
                gs: 0.0,
                bs: 0.0,
                area: 1,
                vm: 1.0,
                va: 0.0,
                base_kv: 345.0,
                zone: 1,
                vmax: 1.1,
                vmin: 0.9,
            });
        }
        if total_load <= 0.0 {
            buses[0].pd = self.avg_load_mw;
            buses[0].qd = 0.3 * self.avg_load_mw;
            total_load = self.avg_load_mw;
        }

        // --- generators ---
        // Pick generator buses spread over the index range (which is also the
        // locality coordinate for the topology), then size capacities so the
        // total meets the reserve margin.
        let mut gen_buses: Vec<usize> = Vec::with_capacity(self.ngen);
        let stride = self.nbus as f64 / self.ngen as f64;
        for g in 0..self.ngen {
            let base = (g as f64 * stride) as usize;
            let jitter = rng.gen_range(0..stride.max(1.0) as usize + 1);
            gen_buses.push(((base + jitter) % self.nbus) + 1);
        }
        let target_capacity = total_load * self.reserve_margin;
        let mut raw_caps: Vec<f64> = (0..self.ngen).map(|_| rng.gen_range(0.3..1.7)).collect();
        let raw_sum: f64 = raw_caps.iter().sum();
        for c in &mut raw_caps {
            *c *= target_capacity / raw_sum;
        }
        let mut generators = Vec::with_capacity(self.ngen);
        for (g, &b) in gen_buses.iter().enumerate() {
            let pmax = raw_caps[g].max(5.0);
            let pmin = 0.0;
            let qlim = 0.75 * pmax;
            let c2 = rng.gen_range(0.005..0.08);
            let c1 = rng.gen_range(5.0..40.0);
            generators.push(Generator {
                bus: b,
                pg: 0.5 * pmax,
                qg: 0.0,
                qmax: qlim,
                qmin: -qlim,
                vg: 1.0,
                mbase: 100.0,
                status: true,
                pmax,
                pmin,
                cost: GenCost { c2, c1, c0: 0.0 },
            });
            buses[b - 1].bus_type = BusType::Pv;
        }
        buses[gen_buses[0] - 1].bus_type = BusType::Ref;

        // --- topology ---
        // Spanning tree with preferential attachment over a locality window,
        // then extra branches with locality bias. Typical flow on a branch is
        // total_load / nbranch on average; ratings are sized from that.
        let mut branches = Vec::with_capacity(self.nbranch);
        let mut degree = vec![0usize; self.nbus];
        let mut edge_set = std::collections::HashSet::new();
        for i in 1..self.nbus {
            // Connect bus i+1 to an earlier bus within a locality window,
            // preferring high-degree buses (hubs).
            let window = 40.min(i);
            let mut best = i - 1;
            let mut best_score = -1.0f64;
            for _ in 0..4 {
                let cand = i - 1 - rng.gen_range(0..window);
                let score = (degree[cand] as f64 + 1.0) * rng.gen::<f64>();
                if score > best_score {
                    best_score = score;
                    best = cand;
                }
            }
            edge_set.insert((best.min(i), best.max(i)));
            degree[best] += 1;
            degree[i] += 1;
            branches.push(self.random_branch(&mut rng, best + 1, i + 1, total_load, true));
        }
        let mut attempts = 0usize;
        while branches.len() < self.nbranch && attempts < 50 * self.nbranch {
            attempts += 1;
            let a = rng.gen_range(0..self.nbus);
            // Locality bias: most extra circuits connect nearby buses.
            let span = if rng.gen::<f64>() < 0.85 {
                rng.gen_range(1..=30.min(self.nbus - 1))
            } else {
                rng.gen_range(1..self.nbus)
            };
            let b = (a + span) % self.nbus;
            let key = (a.min(b), a.max(b));
            if a == b || edge_set.contains(&key) {
                continue;
            }
            edge_set.insert(key);
            degree[a] += 1;
            degree[b] += 1;
            branches.push(self.random_branch(&mut rng, a + 1, b + 1, total_load, false));
        }
        // If the locality sampler could not place enough unique edges (tiny
        // dense cases), add parallel circuits which MATPOWER permits.
        while branches.len() < self.nbranch {
            let a = rng.gen_range(0..self.nbus);
            let b = (a + 1 + rng.gen_range(0..self.nbus - 1)) % self.nbus;
            if a == b {
                continue;
            }
            branches.push(self.random_branch(&mut rng, a + 1, b + 1, total_load, false));
        }

        Case {
            name: self.name.clone(),
            base_mva: 100.0,
            buses,
            generators,
            branches,
        }
    }

    fn random_branch(
        &self,
        rng: &mut SmallRng,
        from: usize,
        to: usize,
        total_load: f64,
        is_tree: bool,
    ) -> Branch {
        // Expected loading if flow spread uniformly; most ratings are generous
        // multiples of it, a few are tight. Spanning-tree branches never get
        // tight ratings: a tree edge can be a bridge whose flow is forced by
        // the downstream load, so a rating near the *average* flow would make
        // the case structurally infeasible rather than merely binding.
        let expected = (total_load / self.nbranch as f64).max(10.0);
        let rate = if !is_tree && rng.gen::<f64>() < self.tight_rating_fraction {
            expected * rng.gen_range(1.5..3.0)
        } else {
            expected * rng.gen_range(6.0..20.0)
        };
        let rate = rate.max(20.0);
        // Per-unit impedance scales inversely with thermal capacity (a line
        // built to carry more power is electrically stiffer), so the voltage
        // drop at rated flow stays bounded regardless of loading.
        let x = rng.gen_range(2.0..5.0) / rate;
        let r = x * rng.gen_range(0.08..0.35);
        let b = rng.gen_range(0.0..0.06);
        Branch::line(from, to, r, x, b, rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_case_has_requested_dimensions() {
        let spec = SyntheticSpec {
            nbus: 120,
            ngen: 25,
            nbranch: 190,
            seed: 7,
            ..Default::default()
        };
        let case = spec.generate();
        assert_eq!(case.buses.len(), 120);
        assert_eq!(case.generators.len(), 25);
        assert_eq!(case.branches.len(), 190);
    }

    #[test]
    fn generated_case_compiles_and_is_connected() {
        let case = SyntheticSpec {
            nbus: 200,
            ngen: 40,
            nbranch: 320,
            seed: 3,
            ..Default::default()
        }
        .generate();
        let net = case.compile().expect("synthetic case must be connected");
        assert_eq!(net.nbus, 200);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = SyntheticSpec {
            nbus: 60,
            ngen: 10,
            nbranch: 90,
            seed: 42,
            ..Default::default()
        };
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn different_seed_different_case() {
        let a = SyntheticSpec {
            seed: 1,
            ..Default::default()
        }
        .generate();
        let b = SyntheticSpec {
            seed: 2,
            ..Default::default()
        }
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn capacity_respects_reserve_margin() {
        let spec = SyntheticSpec {
            nbus: 150,
            ngen: 30,
            nbranch: 230,
            seed: 11,
            reserve_margin: 1.8,
            ..Default::default()
        };
        let case = spec.generate();
        let ratio = case.total_capacity_mw() / case.total_load_mw();
        assert!(ratio > 1.5, "reserve ratio {ratio}");
    }

    #[test]
    fn table1_dimensions_match_paper() {
        assert_eq!(TableICase::Pegase1354.dimensions(), (260, 1991, 1354));
        assert_eq!(TableICase::Activsg70k.dimensions(), (10390, 88207, 70000));
        assert_eq!(TableICase::Pegase9241.penalties(), (5e1, 5e3));
        assert_eq!(TableICase::Activsg70k.penalties(), (3e4, 3e5));
    }

    #[test]
    fn table1_small_case_generates_and_compiles() {
        let case = TableICase::Pegase1354.generate();
        assert_eq!(case.buses.len(), 1354);
        assert_eq!(case.generators.len(), 260);
        assert_eq!(case.branches.len(), 1991);
        assert!(case.compile().is_ok());
    }

    #[test]
    fn scaled_case_preserves_ratios_roughly() {
        let case = TableICase::Activsg25k.scaled(500);
        assert_eq!(case.buses.len(), 500);
        // branch/bus ratio of ACTIVSg25k is ~1.29
        let ratio = case.branches.len() as f64 / case.buses.len() as f64;
        assert!(ratio > 1.1 && ratio < 1.6, "ratio {ratio}");
        assert!(case.compile().is_ok());
    }

    #[test]
    fn all_table1_names_unique() {
        let names: std::collections::HashSet<_> =
            TableICase::all().iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 6);
    }
}
