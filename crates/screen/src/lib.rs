//! # gridsim-screen
//!
//! Hierarchical contingency screening: a two-tier funnel that makes
//! thousand-scenario N−k sweeps cost attrition-proportional wall-clock
//! instead of flat solve-everything wall-clock.
//!
//! A flat sweep spends the same full-tolerance effort on every scenario,
//! although in a realistic contingency set almost all scenarios are benign.
//! The funnel instead runs every scenario through a *cheap pass* — the
//! few-iteration, loose-tolerance [`AdmmParams::screening_profile`] batched
//! through the ordinary fleet machinery — and ranks each scenario by its
//! *constraint margin* (worst line / voltage / generator-bound violation of
//! the screening operating point, see [`constraint_margin`]) into three
//! bands:
//!
//! * [`Band::Benign`] — margin at or below the benign threshold: certified
//!   cheap, never solved again,
//! * [`Band::Violating`] — margin at or above the violating threshold:
//!   clearly stressed,
//! * [`Band::Uncertain`] — in between: the screen cannot certify either way.
//!
//! `Violating ∪ Uncertain` *graduate* to the full-tolerance tier (batched
//! ADMM or the condensed-KKT interior-point fleet), seeded with their own
//! screening solutions through a [`SolutionStore`] snapshot so the second
//! tier starts warm from the point the screen already paid for.
//!
//! ## Determinism
//!
//! The screening tier is the batched ADMM engine, which is bitwise
//! deterministic across device counts, lane caps, and backends — so the
//! margins, the bands, and therefore the graduation set are identical for
//! every engine configuration. The full ADMM tier inherits the same
//! property. The IPM tier warm-chains within lanes (so lane assignment
//! normally matters), but here every graduated scenario is seeded from its
//! *own* screening solution at store distance 0, which beats any intra-lane
//! chain under the store's strict-improvement rule — making the starting
//! points, and the solves, independent of the engine configuration as well.
//!
//! The margin deliberately *excludes* the power-balance mismatches: at
//! screening tolerances those measure how incomplete the solve is, not how
//! stressed the system is, and would drown the constraint signal.

#![warn(unreachable_pub)]

use gridsim_acopf::violations::{max_or_nan, SolutionQuality};
use gridsim_admm::{AdmmParams, ScenarioBatchResult, ScenarioScheduler, WarmState};
use gridsim_batch::DevicePool;
use gridsim_engine::{Engine, FleetRequest};
use gridsim_grid::{Network, ScenarioFingerprint};
use gridsim_ipm::{AcopfNlp, FleetReport, IpmFleetSolver, IpmOptions, IpmWarmStart};
use gridsim_store::SolutionStore;
use std::time::Duration;

/// Screening band of one contingency scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Band {
    /// Margin at or below the benign threshold: certified by the screen,
    /// not solved further.
    Benign,
    /// Margin between the thresholds: the screen cannot certify, graduates.
    Uncertain,
    /// Margin at or above the violating threshold: stressed, graduates.
    Violating,
}

/// Which solver family runs the full-tolerance tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FullTier {
    /// Full-tolerance batched ADMM.
    Admm,
    /// Condensed-KKT interior-point fleet.
    Ipm,
}

/// Configuration of a [`ContingencyFunnel`]. The screening pass runs
/// [`AdmmParams::screening_profile`], and the interior-point tier the
/// default [`IpmOptions`].
#[derive(Debug, Clone)]
pub struct FunnelConfig {
    /// Parameters of the full ADMM tier (used when `tier` is
    /// [`FullTier::Admm`]).
    pub full: AdmmParams,
    /// Solver family of the full tier.
    pub tier: FullTier,
    /// Margin at or below which a scenario is [`Band::Benign`].
    pub benign_threshold: f64,
    /// Margin at or above which a scenario is [`Band::Violating`].
    pub violating_threshold: f64,
}

impl Default for FunnelConfig {
    fn default() -> Self {
        FunnelConfig {
            full: AdmmParams::default(),
            tier: FullTier::Admm,
            benign_threshold: DEFAULT_BENIGN_THRESHOLD,
            violating_threshold: DEFAULT_VIOLATING_THRESHOLD,
        }
    }
}

/// Default benign threshold: the screening profile's operating points land
/// well under this margin on unstressed registry scenarios, and a genuine
/// limit violation cannot hide under it (see the release-gated
/// no-false-negative guard in `tests/contingency_funnel.rs`).
pub const DEFAULT_BENIGN_THRESHOLD: f64 = 2e-2;

/// Default violating threshold: above this screening margin a scenario is
/// stressed beyond what screening inaccuracy can explain.
pub const DEFAULT_VIOLATING_THRESHOLD: f64 = 1e-1;

impl FunnelConfig {
    /// Validate the threshold invariants (finite, non-negative, ordered).
    pub fn validate(&self) -> Result<(), String> {
        if !self.benign_threshold.is_finite() || self.benign_threshold < 0.0 {
            return Err(format!(
                "benign threshold {} must be finite and non-negative",
                self.benign_threshold
            ));
        }
        if !self.violating_threshold.is_finite() {
            return Err(format!(
                "violating threshold {} must be finite",
                self.violating_threshold
            ));
        }
        if self.benign_threshold >= self.violating_threshold {
            return Err(format!(
                "benign threshold {} must be below violating threshold {}",
                self.benign_threshold, self.violating_threshold
            ));
        }
        Ok(())
    }

    /// Band of a screening margin under this config's thresholds.
    pub(crate) fn band_of(&self, margin: f64) -> Band {
        if margin <= self.benign_threshold {
            Band::Benign
        } else if margin >= self.violating_threshold {
            Band::Violating
        } else {
            Band::Uncertain
        }
    }
}

/// The constraint-stress margin of an operating point: the worst line,
/// voltage, or generator-bound violation. Power-balance mismatches are
/// deliberately excluded — at screening tolerances they measure solver
/// incompleteness, not system stress. NaN when any of the three is, so a
/// NaN screening point lands in [`Band::Uncertain`] and graduates.
pub fn constraint_margin(q: &SolutionQuality) -> f64 {
    max_or_nan(
        max_or_nan(q.max_line_violation, q.max_voltage_violation),
        q.max_gen_bound_violation,
    )
}

/// One scenario's screening verdict.
#[derive(Debug, Clone)]
pub struct ScreenedScenario {
    /// Scenario name (from its network).
    pub name: String,
    /// Screening constraint margin (see [`constraint_margin`]).
    pub margin: f64,
    /// Band under the funnel's thresholds.
    pub band: Band,
}

/// Results of the full-tolerance tier.
#[derive(Debug, Clone)]
pub enum FullResults {
    /// Nothing graduated; every scenario was certified by the screen.
    None,
    /// Full-tier batched ADMM results over the graduated scenarios, in
    /// graduation order.
    Admm(ScenarioBatchResult),
    /// Interior-point fleet results over the graduated scenarios, in
    /// graduation order.
    Ipm(FleetReport),
}

/// Outcome of one funnel run.
#[derive(Debug, Clone)]
pub struct FunnelReport {
    /// Per-scenario screening verdicts, in input order.
    pub screened: Vec<ScreenedScenario>,
    /// Input indices of the graduated (`Violating ∪ Uncertain`) scenarios,
    /// ascending.
    pub graduated: Vec<usize>,
    /// The screening tier's batch result, in input order.
    pub screening: ScenarioBatchResult,
    /// The full tier's results over the graduated scenarios.
    pub full: FullResults,
}

impl FunnelReport {
    /// Number of scenarios in a band.
    pub fn band_count(&self, band: Band) -> usize {
        self.screened.iter().filter(|s| s.band == band).count()
    }

    /// Fraction of scenarios that graduated to the full tier.
    pub fn graduation_rate(&self) -> f64 {
        if self.screened.is_empty() {
            0.0
        } else {
            self.graduated.len() as f64 / self.screened.len() as f64
        }
    }

    /// Wall-clock of the screening tier.
    pub fn screen_time(&self) -> Duration {
        self.screening.solve_time
    }

    /// Wall-clock of the full tier (zero when nothing graduated).
    pub fn full_time(&self) -> Duration {
        match &self.full {
            FullResults::None => Duration::ZERO,
            FullResults::Admm(b) => b.solve_time,
            FullResults::Ipm(r) => r.solve_time,
        }
    }

    /// Position of input scenario `idx` within the graduated set, if it
    /// graduated.
    pub fn full_index_of(&self, idx: usize) -> Option<usize> {
        self.graduated.binary_search(&idx).ok()
    }
}

/// The two-tier screening funnel; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct ContingencyFunnel {
    /// Funnel configuration (profiles, tier, thresholds).
    pub config: FunnelConfig,
    /// Device pool both tiers run on.
    pool: DevicePool,
}

impl ContingencyFunnel {
    /// A funnel on the environment-configured device pool
    /// (`GRIDSIM_DEVICES` etc.).
    pub fn new(config: FunnelConfig) -> ContingencyFunnel {
        Self::with_pool(config, DevicePool::from_env())
    }

    /// A funnel on an explicit device pool (used by `gridsim-serve`, whose
    /// durability chunks run on fresh single-device pools).
    pub fn with_pool(config: FunnelConfig, pool: DevicePool) -> ContingencyFunnel {
        if let Err(e) = config.validate() {
            panic!("invalid FunnelConfig: {e}");
        }
        ContingencyFunnel { config, pool }
    }

    /// Run the funnel over `nets`: screen everything, band by margin,
    /// graduate `Violating ∪ Uncertain` to the full tier seeded from their
    /// screening solutions. `case_id` keys the internal warm-start store
    /// (any stable identifier of the base case).
    pub fn run(&self, case_id: &str, nets: &[Network]) -> FunnelReport {
        let screening =
            ScenarioScheduler::with_pool(AdmmParams::screening_profile(), self.pool.clone())
                .run(FleetRequest::over(nets));

        let screened: Vec<ScreenedScenario> = screening
            .results
            .iter()
            .map(|r| {
                let margin = constraint_margin(&r.quality);
                ScreenedScenario {
                    name: r.name.clone(),
                    margin,
                    band: self.config.band_of(margin),
                }
            })
            .collect();
        let graduated: Vec<usize> = screened
            .iter()
            .enumerate()
            .filter(|(_, s)| s.band != Band::Benign)
            .map(|(i, _)| i)
            .collect();

        if graduated.is_empty() {
            return FunnelReport {
                screened,
                graduated,
                screening,
                full: FullResults::None,
            };
        }

        let grad_nets: Vec<Network> = graduated.iter().map(|&i| nets[i].clone()).collect();
        let full = match self.config.tier {
            FullTier::Admm => {
                // Seed every graduated scenario with its own screening warm
                // state: a distance-0 self-hit in the snapshot, so the full
                // tier's starting points are independent of lane layout.
                let mut store: SolutionStore<WarmState> = SolutionStore::new();
                for &i in &graduated {
                    let fp = ScenarioFingerprint::of_network(&nets[i]);
                    store.insert(case_id, &fp, screening.results[i].warm_state.clone());
                }
                let view = store.view();
                let batch =
                    ScenarioScheduler::with_pool(self.config.full.clone(), self.pool.clone())
                        .run(FleetRequest::over(&grad_nets).case(case_id).snapshot(&view));
                FullResults::Admm(batch)
            }
            FullTier::Ipm => {
                // Primal-only seeds: the screen's operating point carries
                // over, and the solver initializes the multipliers itself.
                let mut store: SolutionStore<IpmWarmStart> = SolutionStore::new();
                for &i in &graduated {
                    let fp = ScenarioFingerprint::of_network(&nets[i]);
                    let x = AcopfNlp::new(&nets[i]).from_solution(&screening.results[i].solution);
                    store.insert(case_id, &fp, IpmWarmStart::primal(x));
                }
                let view = store.view();
                let solver = IpmFleetSolver::with_engine(
                    IpmOptions::default(),
                    Engine::with_pool(self.pool.clone()),
                );
                let report =
                    solver.run(FleetRequest::over(&grad_nets).case(case_id).snapshot(&view));
                FullResults::Ipm(report)
            }
        };

        FunnelReport {
            screened,
            graduated,
            screening,
            full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_admm::AdmmStatus;
    use gridsim_grid::ContingencySpec;

    fn test_config(tier: FullTier) -> FunnelConfig {
        FunnelConfig {
            full: AdmmParams::test_profile(),
            tier,
            ..Default::default()
        }
    }

    fn small_sweep() -> (String, Vec<Network>) {
        let base = gridsim_grid::case9();
        let spec = ContingencySpec::load_grid(2, 0.95, 1.1)
            .perturbed(1, 0.03, 11)
            .outages(3, 0, 2);
        let set = spec.expand(&base);
        ("case9".to_string(), set.networks().unwrap())
    }

    #[test]
    fn banding_respects_thresholds() {
        let cfg = FunnelConfig::default();
        assert_eq!(cfg.band_of(0.0), Band::Benign);
        assert_eq!(cfg.band_of(cfg.benign_threshold), Band::Benign);
        assert_eq!(cfg.band_of(cfg.violating_threshold), Band::Violating);
        assert_eq!(
            cfg.band_of(0.5 * (cfg.benign_threshold + cfg.violating_threshold)),
            Band::Uncertain
        );
    }

    #[test]
    fn config_validation_orders_thresholds() {
        let mut cfg = FunnelConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.benign_threshold = cfg.violating_threshold;
        assert!(cfg.validate().is_err());
        cfg.benign_threshold = f64::NAN;
        assert!(cfg.validate().is_err());
        cfg.benign_threshold = -1.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn margin_excludes_power_mismatch() {
        let q = SolutionQuality {
            max_p_mismatch: 10.0,
            max_q_mismatch: 10.0,
            max_line_violation: 0.01,
            max_voltage_violation: 0.002,
            max_gen_bound_violation: 0.0,
            objective: 0.0,
        };
        assert_eq!(constraint_margin(&q), 0.01);
    }

    #[test]
    fn a_nan_screening_point_is_uncertain_and_graduates() {
        let net = gridsim_grid::case9().compile().unwrap();
        let mut sol = gridsim_acopf::OpfSolution::flat(&net);
        for v in [&mut sol.vm, &mut sol.va, &mut sol.pg, &mut sol.qg] {
            v.fill(f64::NAN);
        }
        let q = SolutionQuality::evaluate(&net, &sol);
        assert!(q.max_violation().is_nan(), "{q:?}");
        let margin = constraint_margin(&q);
        assert!(margin.is_nan(), "{q:?}");
        assert_eq!(FunnelConfig::default().band_of(margin), Band::Uncertain);
    }

    #[test]
    fn funnel_screens_bands_and_graduates() {
        let (case_id, nets) = small_sweep();
        let report = ContingencyFunnel::new(test_config(FullTier::Admm)).run(&case_id, &nets);
        assert_eq!(report.screened.len(), nets.len());
        assert_eq!(
            report.band_count(Band::Benign)
                + report.band_count(Band::Uncertain)
                + report.band_count(Band::Violating),
            nets.len()
        );
        assert_eq!(
            report.graduated.len(),
            nets.len() - report.band_count(Band::Benign)
        );
        match &report.full {
            FullResults::None => assert!(report.graduated.is_empty()),
            FullResults::Admm(b) => {
                assert_eq!(b.results.len(), report.graduated.len());
                // Every graduated scenario was seeded from its own
                // screening solution: all admissions hit the snapshot.
                assert_eq!(b.store.hits, report.graduated.len());
                for r in &b.results {
                    assert_eq!(r.status, AdmmStatus::Converged);
                }
            }
            FullResults::Ipm(_) => unreachable!(),
        }
    }

    /// The interior-point tier seeds each graduate with its screening point
    /// alone. A primal-only seed carries no active set, so it keeps the full
    /// bound push of a cold start: the iteration counts are pinned.
    #[test]
    fn ipm_tier_solves_graduated_scenarios() {
        // Line ratings at 70 % and a low benign threshold: two of the ten
        // screens graduate, and both are feasible.
        let mut base = gridsim_grid::case14();
        for br in &mut base.branches {
            br.rate_a *= 0.7;
        }
        let spec = ContingencySpec::load_grid(2, 0.9, 1.1).outages(3, 1, 0);
        let nets = spec.expand(&base).networks().unwrap();
        let config = FunnelConfig {
            benign_threshold: 1e-4,
            ..test_config(FullTier::Ipm)
        };
        let report = ContingencyFunnel::new(config).run("case14", &nets);
        let FullResults::Ipm(r) = &report.full else {
            panic!("the stressed sweep graduates to the IPM tier");
        };
        assert_eq!(r.results.len(), report.graduated.len());
        assert_eq!(r.store.hits, report.graduated.len());
        for res in &r.results {
            assert!(
                res.report.is_optimal(),
                "{}: {:?}",
                res.name,
                res.report.status
            );
        }
        let iterations: Vec<usize> = r.results.iter().map(|res| res.report.iterations).collect();
        assert_eq!(iterations, [10, 10]);
        // One analysis per distinct declared structure among the graduates,
        // billed to the first graduate of each.
        use gridsim_ipm::Nlp;
        let mut structures = Vec::new();
        let mut first_of_structure = Vec::new();
        for &i in &report.graduated {
            let nlp = AcopfNlp::new(&nets[i]);
            let coordinates: Vec<Vec<usize>> = [
                nlp.hessian_structure(),
                nlp.eq_jacobian_structure(),
                nlp.ineq_jacobian_structure(),
            ]
            .into_iter()
            .flat_map(|coo| [coo.rows, coo.cols])
            .collect();
            let first = !structures.contains(&coordinates);
            if first {
                structures.push(coordinates);
            }
            first_of_structure.push(first);
        }
        let billed: Vec<bool> = r
            .results
            .iter()
            .map(|res| res.report.symbolic_analyses == 1)
            .collect();
        assert_eq!(billed, first_of_structure);
        assert_eq!(r.symbolic_analyses(), structures.len());
        assert_eq!(r.frozen.len(), structures.len());
    }

    #[test]
    fn funnel_is_deterministic_across_runs() {
        let (case_id, nets) = small_sweep();
        let funnel = ContingencyFunnel::new(test_config(FullTier::Admm));
        let a = funnel.run(&case_id, &nets);
        let b = funnel.run(&case_id, &nets);
        assert_eq!(a.graduated, b.graduated);
        for (x, y) in a.screened.iter().zip(&b.screened) {
            assert_eq!(x.margin.to_bits(), y.margin.to_bits());
            assert_eq!(x.band, y.band);
        }
        if let (FullResults::Admm(ba), FullResults::Admm(bb)) = (&a.full, &b.full) {
            for (x, y) in ba.results.iter().zip(&bb.results) {
                assert_eq!(x.objective.to_bits(), y.objective.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid FunnelConfig")]
    fn bad_thresholds_panic_at_construction() {
        let cfg = FunnelConfig {
            violating_threshold: 0.0,
            ..Default::default()
        };
        let _ = ContingencyFunnel::new(cfg);
    }
}
