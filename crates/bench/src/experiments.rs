//! The two experiment runners behind the paper-artefact binaries:
//! `run_cold_start` (`table2`, `penalty_sweep`) and
//! `run_tracking_comparison` (`warmstart`).

use gridsim_acopf::start::ramp_limited_bounds;
use gridsim_acopf::violations::{relative_gap, SolutionQuality};
use gridsim_admm::{AdmmParams, AdmmSolver};
use gridsim_grid::load_profile::LoadProfile;
use gridsim_grid::network::Case;
use gridsim_ipm::{AcopfNlp, IpmOptions, IpmSolver, KktCache};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One row of the cold-start comparison (the paper's Table II).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColdStartRow {
    /// Case name.
    pub name: String,
    /// Cumulative inner ADMM iterations.
    pub admm_iterations: usize,
    /// ADMM wall-clock time in seconds.
    pub admm_time_s: f64,
    /// Interior-point baseline wall-clock time in seconds.
    pub ipm_time_s: f64,
    /// `‖c(x)‖∞` of the ADMM solution.
    pub max_violation: f64,
    /// Relative objective gap `|f − f*| / f*` against the baseline.
    pub relative_gap: f64,
    /// ADMM objective ($/hr).
    pub admm_objective: f64,
    /// Baseline objective ($/hr).
    pub ipm_objective: f64,
    /// Whether the baseline reported optimality.
    pub ipm_optimal: bool,
}

/// Run the cold-start experiment (one Table II row) on a case.
pub fn run_cold_start(name: &str, case: &Case, params: &AdmmParams) -> ColdStartRow {
    let net = case.compile().expect("case must compile");

    let admm = AdmmSolver::new(params.clone()).solve(&net);

    let nlp = AcopfNlp::new(&net);
    let ipm = IpmSolver::new(IpmOptions {
        tol: 1e-6,
        max_iter: 300,
        ..Default::default()
    })
    .solve(&nlp);

    ColdStartRow {
        name: name.to_string(),
        admm_iterations: admm.inner_iterations,
        admm_time_s: admm.solve_time.as_secs_f64(),
        ipm_time_s: ipm.solve_time.as_secs_f64(),
        max_violation: admm.quality.max_violation(),
        relative_gap: relative_gap(admm.objective, ipm.objective),
        admm_objective: admm.objective,
        ipm_objective: ipm.objective,
        ipm_optimal: ipm.is_optimal(),
    }
}

/// One period of the warm-start tracking comparison (Figures 1–3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrackingRow {
    /// Period index (0 = cold start).
    pub period: usize,
    /// Load multiplier of the period.
    pub load_multiplier: f64,
    /// ADMM solve time of the period (seconds).
    pub admm_time_s: f64,
    /// Cumulative ADMM time (Figure 1, left panel).
    pub admm_cumulative_s: f64,
    /// Baseline solve time of the period (seconds).
    pub ipm_time_s: f64,
    /// Cumulative baseline time (Figure 1, right panel).
    pub ipm_cumulative_s: f64,
    /// Maximum constraint violation of the ADMM solution (Figure 2).
    pub admm_violation: f64,
    /// Relative objective gap of the ADMM solution vs the baseline of the
    /// same period (Figure 3).
    pub relative_gap: f64,
    /// Cumulative symbolic analyses the baseline has performed up to and
    /// including this period. The condensed KKT shares one frozen
    /// pattern across the whole horizon, so this stays flat after period 0
    /// even though every period keeps paying `ipm_factorizations` numeric
    /// refactorizations.
    pub ipm_symbolic_analyses: usize,
    /// KKT factorizations (numeric refactorizations) of this period's
    /// baseline solve alone (per period, not cumulative).
    pub ipm_factorizations: usize,
}

/// Run the 30-period tracking experiment on a case with both solvers,
/// warm-starting each from its own previous period (Section IV-C). The
/// interior-point baseline runs its condensed-space KKT with a
/// horizon-wide [`KktCache`]: the pattern of every period's condensed system
/// is identical, so the whole reference trajectory costs one symbolic
/// analysis and every Newton step is a numeric-only refactorization.
pub fn run_tracking_comparison(
    case: &Case,
    profile: &LoadProfile,
    params: &AdmmParams,
    ramp_fraction: f64,
) -> Vec<TrackingRow> {
    let admm_solver = AdmmSolver::new(params.clone());
    let mut rows = Vec::with_capacity(profile.len());
    let mut admm_prev = None;
    let mut ipm_prev: Option<(Vec<f64>, Vec<f64>)> = None;
    let mut admm_cum = Duration::ZERO;
    let mut ipm_cum = Duration::ZERO;
    let mut kkt_cache = KktCache::new();

    for (t, &mult) in profile.multipliers.iter().enumerate() {
        let case_t = case.scale_load(mult);
        let net_t = case_t.compile().expect("scaled case compiles");

        // --- ADMM (warm started from the previous ADMM state) ---
        let admm_result = match &admm_prev {
            None => admm_solver.solve(&net_t),
            Some(prev_result) => {
                let prev: &gridsim_admm::AdmmResult = prev_result;
                let (lo, hi) =
                    ramp_limited_bounds(&net_t, prev.warm_state.previous_pg(), ramp_fraction);
                admm_solver.solve_warm(&net_t, &prev.warm_state, Some((lo, hi)))
            }
        };
        admm_cum += admm_result.solve_time;

        // --- baseline (warm started from its own previous solution) ---
        let nlp = match &ipm_prev {
            Some((_, prev_pg)) => {
                let (lo, hi) = ramp_limited_bounds(&net_t, prev_pg, ramp_fraction);
                AcopfNlp::new(&net_t).with_pg_bounds(lo, hi)
            }
            None => AcopfNlp::new(&net_t),
        };
        let ipm_result = IpmSolver::new(IpmOptions {
            tol: 1e-6,
            max_iter: 300,
            initial_point: ipm_prev.as_ref().map(|(x, _)| x.clone()),
            ..Default::default()
        })
        .solve_with_cache(&nlp, &mut kkt_cache);
        ipm_cum += ipm_result.solve_time;

        let ipm_sol = nlp.to_solution(&ipm_result.x);
        let admm_quality = SolutionQuality::evaluate(&net_t, &admm_result.solution);

        rows.push(TrackingRow {
            period: t,
            load_multiplier: mult,
            admm_time_s: admm_result.solve_time.as_secs_f64(),
            admm_cumulative_s: admm_cum.as_secs_f64(),
            ipm_time_s: ipm_result.solve_time.as_secs_f64(),
            ipm_cumulative_s: ipm_cum.as_secs_f64(),
            admm_violation: admm_quality.max_violation(),
            relative_gap: relative_gap(admm_result.objective, ipm_result.objective),
            ipm_symbolic_analyses: kkt_cache.symbolic_analyses(),
            ipm_factorizations: ipm_result.factorizations,
        });

        ipm_prev = Some((ipm_result.x.clone(), ipm_sol.pg.clone()));
        admm_prev = Some(admm_result);
    }
    rows
}

/// Serialize experiment results to pretty JSON (written next to the text
/// tables so plots can be regenerated without re-running the experiment).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("results serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_grid::cases;

    #[test]
    fn cold_start_row_on_case9_reproduces_paper_quality() {
        let row = run_cold_start("case9", &cases::case9(), &AdmmParams::default());
        assert!(row.ipm_optimal);
        assert!(row.max_violation < 1e-2, "violation {}", row.max_violation);
        assert!(row.relative_gap < 0.01, "gap {}", row.relative_gap);
        assert!(row.admm_iterations > 100);
    }

    #[test]
    fn tracking_comparison_three_periods_case9() {
        let profile = LoadProfile {
            multipliers: vec![1.0, 1.005, 1.01],
            period_minutes: 1.0,
        };
        let rows = run_tracking_comparison(&cases::case9(), &profile, &AdmmParams::default(), 0.02);
        assert_eq!(rows.len(), 3);
        // Warm-started periods are faster than the cold start for ADMM.
        assert!(rows[1].admm_time_s <= rows[0].admm_time_s);
        assert!(rows[2].admm_time_s <= rows[0].admm_time_s);
        // Quality holds over the horizon.
        for r in &rows {
            assert!(
                r.admm_violation < 1e-2,
                "period {} violation {}",
                r.period,
                r.admm_violation
            );
            assert!(
                r.relative_gap < 0.02,
                "period {} gap {}",
                r.period,
                r.relative_gap
            );
        }
        // Cumulative times are nondecreasing.
        assert!(rows[2].admm_cumulative_s >= rows[1].admm_cumulative_s);
        assert!(rows[2].ipm_cumulative_s >= rows[1].ipm_cumulative_s);
    }

    #[test]
    fn json_serialization_roundtrip() {
        let row = ColdStartRow {
            name: "x".into(),
            admm_iterations: 10,
            admm_time_s: 1.0,
            ipm_time_s: 2.0,
            max_violation: 1e-3,
            relative_gap: 1e-4,
            admm_objective: 100.0,
            ipm_objective: 100.01,
            ipm_optimal: true,
        };
        let json = to_json(&row);
        let back: ColdStartRow = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, "x");
        assert_eq!(back.admm_iterations, 10);
    }
}
