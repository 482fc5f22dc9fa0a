//! Job specifications: what a tenant submits to the daemon.
//!
//! A [`JobSpec`] is a fully self-describing unit of work — a named registry
//! case, a scenario-set recipe, a solver family, and scheduling/durability
//! knobs — chosen so the spec (not any in-memory state) is the job's source
//! of truth. The manifest persists the spec verbatim, and rebuilding the
//! scenario networks from it is deterministic, which is what lets a
//! restarted daemon resume a half-finished job and still produce bitwise
//! the results an uninterrupted run would have.

use gridsim_grid::{
    eligible_branch_outages, Case, ContingencySpec, GridError, Network, ScenarioSet,
};

/// A registry case the daemon can serve. Unit-variant so the spec encodes
/// the case by name, never by value — the registry is the source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CaseName {
    /// Two-bus didactic case.
    TwoBus,
    /// PJM 5-bus case.
    Case5,
    /// WSCC 9-bus case.
    Case9,
    /// IEEE 14-bus case.
    Case14,
    /// 30-bus synthetic in the IEEE 30 style.
    Case30Like,
}

impl CaseName {
    /// Build the base [`Case`] from the registry.
    pub fn base(&self) -> Case {
        match self {
            CaseName::TwoBus => gridsim_grid::two_bus(),
            CaseName::Case5 => gridsim_grid::case5(),
            CaseName::Case9 => gridsim_grid::case9(),
            CaseName::Case14 => gridsim_grid::case14(),
            CaseName::Case30Like => gridsim_grid::case30_like(),
        }
    }

    /// Stable identifier — the store/case-id key for this case.
    pub fn id(&self) -> &'static str {
        match self {
            CaseName::TwoBus => "two_bus",
            CaseName::Case5 => "case5",
            CaseName::Case9 => "case9",
            CaseName::Case14 => "case14",
            CaseName::Case30Like => "case30_like",
        }
    }
}

/// Scenario-set recipe kind; parameters live flat in [`ScenarioSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ScenarioKind {
    /// Monotone load ramp from `lo` to `hi` (uniform scale factors).
    LoadRamp,
    /// Per-bus multiplicative load noise with `sigma` and `seed`.
    PerturbedLoads,
    /// Single-branch (N−1) outages of the first `count` removable branches.
    BranchOutages,
    /// Spec-driven N−k contingency expansion: a load-level grid (`levels`
    /// levels over `[lo, hi]`) × seeded perturbation draws (`draws`,
    /// `sigma`, `seed`) × outage columns (`count` N−1 branches, `n2_pairs`
    /// branch pairs, `gen_outages` generator outages, plus the base
    /// column). See [`gridsim_grid::ContingencySpec`].
    Contingency,
}

/// How to generate the job's scenario set from the base case. Parameters
/// not used by the chosen kind are ignored (the struct is flat because the
/// manifest format only encodes unit-variant enums).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSpec {
    /// Which recipe to run.
    pub kind: ScenarioKind,
    /// Number of scenarios (`LoadRamp`, `PerturbedLoads`, `BranchOutages`);
    /// for `Contingency` it caps the N−1 outage columns instead.
    pub count: usize,
    /// Ramp lower scale factor (`LoadRamp`, `Contingency`).
    pub lo: f64,
    /// Ramp upper scale factor (`LoadRamp`, `Contingency`).
    pub hi: f64,
    /// Relative load noise (`PerturbedLoads`, `Contingency`).
    pub sigma: f64,
    /// RNG seed (`PerturbedLoads`, `Contingency`).
    pub seed: u64,
    /// Load levels in the contingency grid (`Contingency`).
    pub levels: usize,
    /// Perturbation draws per load level (`Contingency`).
    pub draws: usize,
    /// Cap on N−2 branch-pair outage columns (`Contingency`).
    pub n2_pairs: usize,
    /// Cap on generator-outage columns (`Contingency`).
    pub gen_outages: usize,
}

impl ScenarioSpec {
    /// A `count`-step load ramp over `[lo, hi]`.
    pub fn load_ramp(count: usize, lo: f64, hi: f64) -> ScenarioSpec {
        ScenarioSpec {
            kind: ScenarioKind::LoadRamp,
            count,
            lo,
            hi,
            sigma: 0.0,
            seed: 0,
            levels: 0,
            draws: 0,
            n2_pairs: 0,
            gen_outages: 0,
        }
    }

    /// `count` load-perturbed scenarios with relative noise `sigma`.
    pub fn perturbed(count: usize, sigma: f64, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            kind: ScenarioKind::PerturbedLoads,
            count,
            lo: 1.0,
            hi: 1.0,
            sigma,
            seed,
            levels: 0,
            draws: 0,
            n2_pairs: 0,
            gen_outages: 0,
        }
    }

    /// The first `count` single-branch outages.
    pub fn outages(count: usize) -> ScenarioSpec {
        ScenarioSpec {
            kind: ScenarioKind::BranchOutages,
            count,
            lo: 1.0,
            hi: 1.0,
            sigma: 0.0,
            seed: 0,
            levels: 0,
            draws: 0,
            n2_pairs: 0,
            gen_outages: 0,
        }
    }

    /// A full N−k contingency expansion: `levels` load levels over
    /// `[lo, hi]`, `draws` seeded perturbation draws per level, and outage
    /// columns capped at `n1` single branches, `n2_pairs` branch pairs,
    /// and `gen_outages` generator outages (plus the no-outage column).
    #[allow(clippy::too_many_arguments)]
    pub fn contingency(
        levels: usize,
        lo: f64,
        hi: f64,
        draws: usize,
        sigma: f64,
        seed: u64,
        n1: usize,
        n2_pairs: usize,
        gen_outages: usize,
    ) -> ScenarioSpec {
        ScenarioSpec {
            kind: ScenarioKind::Contingency,
            count: n1,
            lo,
            hi,
            sigma,
            seed,
            levels,
            draws,
            n2_pairs,
            gen_outages,
        }
    }

    /// The equivalent [`ContingencySpec`] of a `Contingency` recipe.
    pub(crate) fn contingency_spec(&self) -> ContingencySpec {
        let mut spec = ContingencySpec::load_grid(self.levels.max(1), self.lo, self.hi).outages(
            self.count,
            self.n2_pairs,
            self.gen_outages,
        );
        if self.draws > 0 {
            spec = spec.perturbed(self.draws, self.sigma, self.seed);
        }
        spec
    }

    /// Number of scenarios [`build`](Self::build) returns for `base`,
    /// without instantiating the set: `count` for a load recipe, at most the
    /// number of eligible branches for `BranchOutages`.
    pub(crate) fn total(&self, base: &Case) -> usize {
        match self.kind {
            ScenarioKind::LoadRamp | ScenarioKind::PerturbedLoads => self.count,
            ScenarioKind::BranchOutages => self.count.min(eligible_branch_outages(base).len()),
            ScenarioKind::Contingency => self.contingency_spec().count(base),
        }
    }

    /// Instantiate the scenario set for `base`.
    pub fn build(&self, base: Case) -> ScenarioSet {
        match self.kind {
            ScenarioKind::LoadRamp => ScenarioSet::load_ramp(base, self.count, self.lo, self.hi),
            ScenarioKind::PerturbedLoads => {
                ScenarioSet::perturbed_loads(base, self.count, self.sigma, self.seed)
            }
            ScenarioKind::BranchOutages => ScenarioSet::branch_outages(base, self.count),
            ScenarioKind::Contingency => self.contingency_spec().expand(&base),
        }
    }
}

/// Which fleet solver executes the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SolverFamily {
    /// Batched two-level ADMM ([`gridsim_admm::ScenarioScheduler`]).
    Admm,
    /// Interior-point fleet ([`gridsim_ipm::IpmFleetSolver`]).
    Ipm,
}

/// One queued unit of work: scenario set + solver family + scheduling and
/// durability knobs. See the module docs of `spec.rs` for the determinism role.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobSpec {
    /// Tenant-chosen job name; doubles as the manifest file stem, so it
    /// must be unique within one daemon state directory.
    pub name: String,
    /// Registry case to solve.
    pub case: CaseName,
    /// Uniform load scale applied to the base case before the recipe.
    pub load_scale: f64,
    /// Scenario-set recipe.
    pub scenarios: ScenarioSpec,
    /// Fleet solver family.
    pub solver: SolverFamily,
    /// Scheduling priority: higher runs first (ties: submission order).
    pub priority: i64,
    /// Scenarios per durability chunk — one chunk is one fleet run and one
    /// manifest flush, so it is both the resume granule and the unit the
    /// scheduler allocates lanes to.
    pub chunk_size: usize,
    /// Per-job cap on concurrently running chunks (0 = uncapped): the
    /// backpressure knob that stops one tenant from monopolizing the fleet.
    pub max_lanes: usize,
    /// Re-solve attempts for a scenario that fails to converge, beyond the
    /// first (0 = fail immediately).
    pub max_retries: usize,
    /// Base retry backoff in milliseconds; doubles per failed attempt.
    pub retry_backoff_ms: u64,
    /// Run each chunk through the contingency screening funnel
    /// ([`gridsim_screen::ContingencyFunnel`]) instead of a flat
    /// full-tolerance solve: scenarios the cheap pass certifies benign keep
    /// their screening result, the rest graduate to the full solve seeded
    /// from their screening solutions. ADMM jobs only.
    pub screen: bool,
    /// Screening margin at or below which a scenario is benign
    /// (`screen` jobs).
    pub benign_threshold: f64,
    /// Screening margin at or above which a scenario is violating
    /// (`screen` jobs).
    pub violating_threshold: f64,
}

impl JobSpec {
    /// A spec with neutral defaults: priority 0, chunk size 4, uncapped
    /// lanes, one retry with 10 ms backoff, unit load scale.
    pub fn new(
        name: impl Into<String>,
        case: CaseName,
        scenarios: ScenarioSpec,
        solver: SolverFamily,
    ) -> JobSpec {
        JobSpec {
            name: name.into(),
            case,
            load_scale: 1.0,
            scenarios,
            solver,
            priority: 0,
            chunk_size: 4,
            max_lanes: 0,
            max_retries: 1,
            retry_backoff_ms: 10,
            screen: false,
            benign_threshold: gridsim_screen::DEFAULT_BENIGN_THRESHOLD,
            violating_threshold: gridsim_screen::DEFAULT_VIOLATING_THRESHOLD,
        }
    }

    /// Enable the screening funnel with explicit band thresholds (builder
    /// style; ADMM jobs only — [`ServeDaemon::submit`](crate::ServeDaemon::submit)
    /// refuses it otherwise).
    pub fn screened(mut self, benign_threshold: f64, violating_threshold: f64) -> JobSpec {
        self.screen = true;
        self.benign_threshold = benign_threshold;
        self.violating_threshold = violating_threshold;
        self
    }

    /// Set the scheduling priority (builder style).
    pub fn priority(mut self, priority: i64) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Set the durability chunk size (builder style).
    pub fn chunk_size(mut self, chunk_size: usize) -> JobSpec {
        assert!(chunk_size >= 1, "chunk_size must be at least 1");
        self.chunk_size = chunk_size;
        self
    }

    /// Set the per-job concurrent-chunk cap (builder style; 0 = uncapped).
    pub fn max_lanes(mut self, max_lanes: usize) -> JobSpec {
        self.max_lanes = max_lanes;
        self
    }

    /// Set the retry policy (builder style).
    pub fn retries(mut self, max_retries: usize, backoff_ms: u64) -> JobSpec {
        self.max_retries = max_retries;
        self.retry_backoff_ms = backoff_ms;
        self
    }

    /// Set the base-case load scale (builder style).
    pub fn load_scale(mut self, factor: f64) -> JobSpec {
        self.load_scale = factor;
        self
    }

    fn scaled_base(&self) -> Case {
        if self.load_scale == 1.0 {
            self.case.base()
        } else {
            self.case.base().scale_load(self.load_scale)
        }
    }

    /// Number of scenarios the job expands to — the manifest's record
    /// arity. Pure function of the spec, like [`networks`](Self::networks).
    pub fn scenario_count(&self) -> usize {
        self.scenarios.total(&self.scaled_base())
    }

    /// Compile the job's scenario networks, in scenario order. Pure
    /// function of the spec — the resume determinism anchor.
    pub fn networks(&self) -> Result<Vec<Network>, GridError> {
        self.scenarios.build(self.scaled_base()).networks()
    }

    /// Sanity-check the knobs; called on submit so a bad spec is rejected
    /// before it is enqueued.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("job name must be non-empty".to_string());
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "job name `{}` must be alphanumeric with `-`/`_` (it names the manifest file)",
                self.name
            ));
        }
        let ScenarioSpec { lo, hi, sigma, .. } = self.scenarios;
        let positive = |f: f64| f.is_finite() && f > 0.0;
        match self.scenarios.kind {
            ScenarioKind::Contingency => {
                if self.scenarios.levels == 0 {
                    return Err("contingency recipe needs at least one load level".to_string());
                }
                self.scenarios
                    .contingency_spec()
                    .validate()
                    .map_err(|e| format!("contingency recipe: {e}"))?;
            }
            _ if self.scenarios.count == 0 => {
                return Err("scenario count must be at least 1".to_string());
            }
            ScenarioKind::LoadRamp if !(positive(lo) && positive(hi)) => {
                return Err(format!(
                    "load ramp [{lo}, {hi}] must be positive and finite"
                ));
            }
            ScenarioKind::PerturbedLoads if !(0.0..1.0).contains(&sigma) => {
                return Err(format!("sigma {sigma} outside [0, 1)"));
            }
            _ => {}
        }
        if self.chunk_size == 0 {
            return Err("chunk_size must be at least 1".to_string());
        }
        if !(self.load_scale.is_finite() && self.load_scale > 0.0) {
            return Err("load_scale must be positive and finite".to_string());
        }
        if self.screen {
            if self.solver != SolverFamily::Admm {
                return Err(
                    "the screening funnel requires the Admm solver family (the manifest \
                     records one result type per job)"
                        .to_string(),
                );
            }
            let cfg = gridsim_screen::FunnelConfig {
                benign_threshold: self.benign_threshold,
                violating_threshold: self.violating_threshold,
                ..Default::default()
            };
            cfg.validate()
                .map_err(|e| format!("funnel thresholds: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec::new(
            "night-ramp",
            CaseName::Case9,
            ScenarioSpec::load_ramp(6, 0.9, 1.1),
            SolverFamily::Admm,
        )
        .priority(3)
        .chunk_size(2)
        .max_lanes(1)
        .retries(2, 50);
        let text = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn networks_are_deterministic_and_sized_by_count() {
        let spec = JobSpec::new(
            "p",
            CaseName::Case9,
            ScenarioSpec::perturbed(5, 0.02, 7),
            SolverFamily::Ipm,
        );
        let a = spec.networks().unwrap();
        let b = spec.networks().unwrap();
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            let fx = gridsim_grid::ScenarioFingerprint::of_network(x);
            let fy = gridsim_grid::ScenarioFingerprint::of_network(y);
            assert_eq!(fx.structure, fy.structure);
            assert_eq!(
                fx.loads.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fy.loads.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    /// The manifest's record count is the number of networks the job
    /// builds, for every case and recipe kind, with counts below, at and
    /// above the number of eligible outages. An outage count above it used
    /// to give the manifest more records than there were networks, and a
    /// chunk worker then indexed past the networks.
    #[test]
    fn scenario_count_is_the_number_of_networks() {
        for case in [
            CaseName::TwoBus,
            CaseName::Case5,
            CaseName::Case9,
            CaseName::Case14,
            CaseName::Case30Like,
        ] {
            let eligible = eligible_branch_outages(&case.base()).len();
            let below = eligible.saturating_sub(1).max(1);
            for count in [1, below, eligible.max(1), eligible + 1, 2 * eligible + 3] {
                for scenarios in [
                    ScenarioSpec::load_ramp(count, 0.9, 1.1),
                    ScenarioSpec::perturbed(count, 0.02, 7),
                    ScenarioSpec::outages(count),
                    ScenarioSpec::contingency(2, 0.95, 1.05, 1, 0.02, 7, count, count, count),
                ] {
                    let kind = scenarios.kind;
                    let job = JobSpec::new("n", case, scenarios, SolverFamily::Admm);
                    assert_eq!(
                        job.scenario_count(),
                        job.networks().unwrap().len(),
                        "{case:?} {kind:?} count {count}, {eligible} eligible"
                    );
                }
            }
        }
    }

    #[test]
    fn contingency_spec_round_trips_and_expands() {
        let spec = JobSpec::new(
            "sweep",
            CaseName::Case14,
            ScenarioSpec::contingency(3, 0.95, 1.05, 2, 0.02, 42, 4, 3, 2),
            SolverFamily::Admm,
        )
        .screened(0.02, 0.1);
        assert!(spec.validate().is_ok());
        let text = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
        // levels × (1 + draws) × (base + n1 + n2 + gens) scenario networks.
        let nets = spec.networks().unwrap();
        let expected = spec.scenarios.contingency_spec().count(&spec.case.base());
        assert_eq!(nets.len(), expected);
        assert!(nets.len() >= 3 * 3 * 5);
    }

    #[test]
    fn screen_requires_admm_and_ordered_thresholds() {
        let base = JobSpec::new(
            "s",
            CaseName::Case9,
            ScenarioSpec::contingency(2, 0.95, 1.05, 1, 0.02, 7, 3, 0, 1),
            SolverFamily::Admm,
        );
        assert!(base.clone().screened(0.02, 0.1).validate().is_ok());
        let mut ipm = base.clone().screened(0.02, 0.1);
        ipm.solver = SolverFamily::Ipm;
        assert!(ipm.validate().is_err());
        assert!(base.clone().screened(0.1, 0.1).validate().is_err());
        assert!(base.screened(f64::NAN, 0.1).validate().is_err());
    }

    #[test]
    fn contingency_validation_catches_bad_recipes() {
        let mut spec = JobSpec::new(
            "c",
            CaseName::Case9,
            ScenarioSpec::contingency(2, 0.95, 1.05, 1, 0.02, 7, 3, 0, 1),
            SolverFamily::Admm,
        );
        spec.scenarios.levels = 0;
        assert!(spec.validate().is_err());
        spec.scenarios.levels = 2;
        spec.scenarios.sigma = 0.0; // draws without noise
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let good = JobSpec::new(
            "ok-job_1",
            CaseName::Case5,
            ScenarioSpec::outages(2),
            SolverFamily::Admm,
        );
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.name = "has space".to_string();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.scenarios.count = 0;
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.chunk_size = 0;
        assert!(bad.validate().is_err());
    }

    /// A recipe's load parameters are checked on submit: building the set
    /// from any of these used to panic (σ outside `[0, 1)`) or yield NaN or
    /// non-positive loads (a bad ramp end) instead.
    #[test]
    fn validate_rejects_bad_recipe_parameters() {
        let job = |scenarios| JobSpec::new("j", CaseName::Case9, scenarios, SolverFamily::Admm);
        for sigma in [0.0, 0.02, 0.99] {
            assert!(
                job(ScenarioSpec::perturbed(2, sigma, 1)).validate().is_ok(),
                "{sigma}"
            );
        }
        for sigma in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            let spec = job(ScenarioSpec::perturbed(2, sigma, 1));
            assert!(spec.validate().unwrap_err().contains("sigma"), "{sigma}");
        }
        assert!(job(ScenarioSpec::load_ramp(2, 0.9, 1.1)).validate().is_ok());
        for (lo, hi) in [
            (f64::NAN, -1.0),
            (f64::NAN, 1.0),
            (0.9, f64::INFINITY),
            (0.0, 1.0),
            (0.9, -1.0),
        ] {
            let spec = job(ScenarioSpec::load_ramp(2, lo, hi));
            assert!(
                spec.validate().unwrap_err().contains("load ramp"),
                "[{lo}, {hi}]"
            );
        }
        // Parameters a recipe does not read are not checked.
        let mut outages = job(ScenarioSpec::outages(2));
        (outages.scenarios.lo, outages.scenarios.sigma) = (f64::NAN, 1.5);
        assert!(outages.validate().is_ok());
    }
}
