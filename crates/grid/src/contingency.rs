//! Spec-driven contingency expansion: thousand-scenario N−k sweeps.
//!
//! A [`ContingencySpec`] is a compact template — a load-level grid, a count
//! of seeded per-bus perturbation draws, and per-family outage caps — that
//! [expands](ContingencySpec::expand) into a [`ScenarioSet`] holding the
//! full cross product
//!
//! ```text
//! load levels × (uniform + perturbation draws) × (base + outage columns)
//! ```
//!
//! so a handful of spec fields yields thousands of scenarios. Expansion is
//! deterministic (same spec + base case → the same set, independent of the
//! machine) and injective in the scenario names: every scenario is named
//! `{base}_l{level}_p{draw}_{tag}` with tags `base`, `br{l}`, `br{a}x{b}`,
//! `gen{g}`, so names double as stable identifiers in manifests and stores.
//!
//! The outage columns reuse the eligibility screens of [`crate::scenario`]
//! (bridge skip for N−1, connectivity check for N−2 pairs, capacity margin
//! for generator outages), so every expanded scenario stays connected and
//! feasible by construction.

use crate::network::Case;
use crate::scenario::{Scenario, ScenarioSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Odd 64-bit mixing constants decorrelating the per-(level, draw) RNG
/// streams (splitmix64 / Weyl-sequence increments).
const LEVEL_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
const DRAW_STRIDE: u64 = 0xD1B5_4A32_D192_ED03;

/// Template for an N−k contingency sweep; see the module docs of `contingency.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencySpec {
    /// Uniform load multipliers forming the level grid; each must be
    /// positive and finite, and levels must be pairwise distinct.
    pub load_levels: Vec<f64>,
    /// Number of seeded per-bus perturbation draws layered on each level
    /// (0 = uniform levels only).
    pub perturbations: usize,
    /// Half-width of the per-bus multiplier noise, in `[0, 1)`; must be
    /// positive when `perturbations > 0`.
    pub sigma: f64,
    /// Seed for the perturbation draws.
    pub seed: u64,
    /// Cap on single-branch (N−1) outage columns; the expansion uses
    /// `min(cap, eligible)` branches, spread evenly over the eligible list.
    pub n1_branches: usize,
    /// Cap on branch-pair (N−2) outage columns.
    pub n2_pairs: usize,
    /// Cap on single-generator outage columns.
    pub gen_outages: usize,
}

impl ContingencySpec {
    /// A spec with `levels` uniform load levels spanning `[lo, hi]`, no
    /// perturbations, the base column, and no outages — the smallest
    /// useful starting point for the builder methods.
    pub fn load_grid(levels: usize, lo: f64, hi: f64) -> ContingencySpec {
        assert!(levels > 0, "need at least one load level");
        let load_levels = (0..levels)
            .map(|i| {
                let t = if levels == 1 {
                    0.0
                } else {
                    i as f64 / (levels - 1) as f64
                };
                lo + t * (hi - lo)
            })
            .collect();
        ContingencySpec {
            load_levels,
            perturbations: 0,
            sigma: 0.0,
            seed: 0,
            n1_branches: 0,
            n2_pairs: 0,
            gen_outages: 0,
        }
    }

    /// Layer `draws` seeded per-bus perturbation draws (noise half-width
    /// `sigma`) on every load level.
    pub fn perturbed(mut self, draws: usize, sigma: f64, seed: u64) -> ContingencySpec {
        self.perturbations = draws;
        self.sigma = sigma;
        self.seed = seed;
        self
    }

    /// Set the outage-column caps (N−1 branches, N−2 pairs, generator
    /// outages).
    pub fn outages(mut self, n1: usize, n2: usize, gens: usize) -> ContingencySpec {
        self.n1_branches = n1;
        self.n2_pairs = n2;
        self.gen_outages = gens;
        self
    }

    /// Check the spec's invariants; expansion panics on an invalid spec,
    /// so validate first at API boundaries.
    pub fn validate(&self) -> Result<(), String> {
        if self.load_levels.is_empty() {
            return Err("spec needs at least one load level".into());
        }
        for &f in &self.load_levels {
            if !f.is_finite() || f <= 0.0 {
                return Err(format!("load level {f} is not positive and finite"));
            }
        }
        for (i, &a) in self.load_levels.iter().enumerate() {
            if self.load_levels[i + 1..].contains(&a) {
                return Err(format!("duplicate load level {a}"));
            }
        }
        if !(0.0..1.0).contains(&self.sigma) {
            return Err(format!("sigma {} outside [0, 1)", self.sigma));
        }
        if self.perturbations > 0 && self.sigma == 0.0 {
            return Err("perturbation draws need sigma > 0".into());
        }
        Ok(())
    }

    /// The columns the expansion will emit for `base` — the no-outage
    /// column first, then the outage columns — as `(tag, scenario
    /// template)` pairs at nominal load. The spec's caps are applied
    /// against the case's eligible lists with the same even-spread rule the
    /// `ScenarioSet` constructors use.
    fn columns(&self, base: &Case) -> Vec<(String, Vec<usize>, Option<usize>)> {
        let mut cols: Vec<(String, Vec<usize>, Option<usize>)> =
            vec![("base".into(), Vec::new(), None)];
        if self.n1_branches > 0 {
            for s in ScenarioSet::branch_outages(base.clone(), self.n1_branches).scenarios {
                let l = s.branch_outages[0];
                cols.push((format!("br{l}"), vec![l], None));
            }
        }
        if self.n2_pairs > 0 {
            for s in ScenarioSet::branch_pair_outages(base.clone(), self.n2_pairs).scenarios {
                let (a, b) = (s.branch_outages[0], s.branch_outages[1]);
                cols.push((format!("br{a}x{b}"), vec![a, b], None));
            }
        }
        if self.gen_outages > 0 {
            for s in ScenarioSet::generator_outages(base.clone(), self.gen_outages).scenarios {
                let g = s.gen_outage.unwrap();
                cols.push((format!("gen{g}"), Vec::new(), Some(g)));
            }
        }
        cols
    }

    /// Number of scenarios [`expand`](Self::expand) will produce for
    /// `base` (levels × draws × columns, with column counts capped by the
    /// case's eligible outages).
    pub fn count(&self, base: &Case) -> usize {
        self.load_levels.len() * (1 + self.perturbations) * self.columns(base).len()
    }

    /// Expand the spec against `base` into a full [`ScenarioSet`].
    /// Deterministic in the spec (independent of machine, thread count, or
    /// call order); panics if [`validate`](Self::validate) fails.
    pub fn expand(&self, base: &Case) -> ScenarioSet {
        if let Err(e) = self.validate() {
            panic!("invalid ContingencySpec: {e}");
        }
        let nbus = base.buses.len();
        let columns = self.columns(base);
        let mut scenarios = Vec::with_capacity(self.count(base));
        for (i, &level) in self.load_levels.iter().enumerate() {
            for j in 0..=self.perturbations {
                // One multiplier vector per (level, draw), shared across
                // every outage column so columns differ only in topology.
                let scale: Vec<f64> = if j == 0 {
                    vec![level; nbus]
                } else {
                    let mut rng = SmallRng::seed_from_u64(
                        self.seed
                            .wrapping_add((i as u64).wrapping_mul(LEVEL_STRIDE))
                            .wrapping_add((j as u64).wrapping_mul(DRAW_STRIDE)),
                    );
                    (0..nbus)
                        .map(|_| level * (1.0 + rng.gen_range(-self.sigma..self.sigma)))
                        .collect()
                };
                for (tag, branch_outages, gen_outage) in &columns {
                    scenarios.push(Scenario {
                        name: format!("{}_l{}_p{}_{}", base.name, i, j, tag),
                        bus_load_scale: scale.clone(),
                        branch_outages: branch_outages.clone(),
                        gen_outage: *gen_outage,
                    });
                }
            }
        }
        ScenarioSet {
            base: base.clone(),
            scenarios,
        }
    }

    /// Human-readable manifest of what the spec expands to on `base`.
    pub fn manifest(&self, base: &Case) -> ContingencyManifest {
        let columns = self.columns(base);
        ContingencyManifest {
            levels: self.load_levels.len(),
            draws_per_level: 1 + self.perturbations,
            n1_columns: columns.iter().filter(|c| c.1.len() == 1).count(),
            n2_columns: columns.iter().filter(|c| c.1.len() == 2).count(),
            gen_columns: columns.iter().filter(|c| c.2.is_some()).count(),
            total: self.count(base),
            tags: columns.into_iter().map(|c| c.0).collect(),
        }
    }
}

/// Expansion summary of a [`ContingencySpec`] against one base case.
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyManifest {
    /// Number of load levels.
    pub levels: usize,
    /// Draws per level (1 uniform + perturbations).
    pub draws_per_level: usize,
    /// Number of N−1 outage columns.
    pub n1_columns: usize,
    /// Number of N−2 pair columns.
    pub n2_columns: usize,
    /// Number of generator-outage columns.
    pub gen_columns: usize,
    /// Total scenarios in the expansion.
    pub total: usize,
    /// Column tags, in expansion order.
    pub tags: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;

    fn spec() -> ContingencySpec {
        ContingencySpec::load_grid(3, 0.95, 1.05)
            .perturbed(2, 0.02, 42)
            .outages(4, 3, 2)
    }

    #[test]
    fn expansion_matches_count_and_manifest() {
        let base = cases::case14();
        let s = spec();
        let set = s.expand(&base);
        assert_eq!(set.len(), s.count(&base));
        let m = s.manifest(&base);
        assert_eq!(m.total, set.len());
        assert_eq!(m.levels, 3);
        assert_eq!(m.draws_per_level, 3);
        assert_eq!(m.n1_columns, 4);
        assert_eq!(m.n2_columns, 3);
        assert_eq!(
            m.total,
            m.levels * m.draws_per_level * (1 + m.n1_columns + m.n2_columns + m.gen_columns)
        );
    }

    #[test]
    fn expansion_is_deterministic_and_injective() {
        let base = cases::case14();
        let a = spec().expand(&base);
        let b = spec().expand(&base);
        assert_eq!(a, b);
        let mut names: Vec<&str> = a.scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), a.len(), "scenario names must be unique");
    }

    #[test]
    fn draws_share_multipliers_across_columns() {
        let base = cases::case14();
        let set = spec().expand(&base);
        // All scenarios with the same _l{i}_p{j}_ prefix share one
        // multiplier vector.
        let prefix = "case14_l1_p2_";
        let group: Vec<&Scenario> = set
            .scenarios
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .collect();
        assert!(group.len() > 1);
        for s in &group[1..] {
            assert_eq!(s.bus_load_scale, group[0].bus_load_scale);
        }
        // And the p1/p2 draws differ from each other and from the uniform p0.
        let pick = |p: &str| {
            set.scenarios
                .iter()
                .find(|s| s.name.starts_with(p))
                .unwrap()
        };
        assert_ne!(
            pick("case14_l1_p0_").bus_load_scale,
            pick("case14_l1_p1_").bus_load_scale
        );
        assert_ne!(
            pick("case14_l1_p1_").bus_load_scale,
            pick("case14_l1_p2_").bus_load_scale
        );
    }

    #[test]
    fn all_expanded_networks_compile_and_stay_connected() {
        let base = cases::case14();
        let set = spec().expand(&base);
        let nets = set.networks().unwrap();
        assert_eq!(nets.len(), set.len());
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut s = spec();
        s.load_levels.clear();
        assert!(s.validate().is_err());

        let mut s = spec();
        s.load_levels = vec![1.0, 1.0];
        assert!(s.validate().is_err());

        let mut s = spec();
        s.load_levels = vec![-0.5];
        assert!(s.validate().is_err());

        let mut s = spec();
        s.sigma = 1.5;
        assert!(s.validate().is_err());

        let mut s = spec();
        s.sigma = 0.0;
        assert!(s.validate().is_err(), "draws without noise");

        assert!(spec().validate().is_ok());
    }

    #[test]
    fn caps_respect_eligibility() {
        // case9's ring has 6 eligible N−1 branches and no N−2 pairs.
        let base = cases::case9();
        let s = ContingencySpec::load_grid(1, 1.0, 1.0).outages(100, 100, 100);
        let m = s.manifest(&base);
        assert_eq!(m.n1_columns, 6);
        assert_eq!(m.n2_columns, 0);
        assert_eq!(m.gen_columns, 3);
    }

    #[test]
    #[should_panic(expected = "invalid ContingencySpec")]
    fn expand_panics_on_invalid_spec() {
        let mut s = spec();
        s.sigma = -1.0;
        let _ = s.expand(&cases::case9());
    }
}
