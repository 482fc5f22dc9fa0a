//! Rolling-horizon tracking of ACOPF solutions under load changes
//! (Section IV-C of the paper).
//!
//! The first period is solved from a cold start; every subsequent period is
//! warm-started from the previous period's full ADMM state with generator
//! ramp limits of a configurable fraction of the upper real-power bound per
//! period (the paper uses 2 %).

use crate::params::AdmmParams;
use crate::solver::{AdmmResult, AdmmSolver};
use gridsim_acopf::start::ramp_limited_bounds;
use gridsim_grid::{Case, LoadProfile};
use std::time::Duration;

/// Configuration of the tracking experiment.
#[derive(Debug, Clone)]
pub struct TrackingConfig {
    /// ADMM parameters used for every period.
    pub params: AdmmParams,
    /// Generator ramp limit per period as a fraction of `pmax` (paper: 0.02).
    pub ramp_fraction: f64,
}

impl Default for TrackingConfig {
    fn default() -> Self {
        TrackingConfig {
            params: AdmmParams::default(),
            ramp_fraction: 0.02,
        }
    }
}

/// Outcome of one time period.
#[derive(Debug, Clone)]
pub struct PeriodResult {
    /// Period index (0 = cold start).
    pub period: usize,
    /// Load multiplier applied in this period.
    pub load_multiplier: f64,
    /// Solve wall-clock time of this period.
    pub solve_time: Duration,
    /// Cumulative wall-clock time up to and including this period
    /// (the quantity plotted in Figure 1).
    pub cumulative_time: Duration,
    /// Maximum constraint violation (Figure 2).
    pub max_violation: f64,
    /// Objective value ($/hr).
    pub objective: f64,
    /// Cumulative inner ADMM iterations in this period.
    pub inner_iterations: usize,
}

/// Run the tracking experiment: solve `profile.len()` consecutive periods of
/// `base_case` with per-period loads scaled by the profile. Returns one
/// [`PeriodResult`] per period together with the full [`AdmmResult`] of the
/// final period.
pub fn track_horizon(
    base_case: &Case,
    profile: &LoadProfile,
    config: &TrackingConfig,
) -> (Vec<PeriodResult>, AdmmResult) {
    assert!(!profile.is_empty(), "profile must have at least one period");
    let solver = AdmmSolver::new(config.params.clone());
    let mut periods = Vec::with_capacity(profile.len());
    let mut cumulative = Duration::ZERO;
    let mut previous: Option<AdmmResult> = None;

    for (t, &mult) in profile.multipliers.iter().enumerate() {
        let case_t = base_case.scale_load(mult);
        let net_t = case_t.compile().expect("scaled case must compile");
        let result = match &previous {
            None => solver.solve(&net_t),
            Some(prev) => {
                let (lo, hi) = ramp_limited_bounds(
                    &net_t,
                    prev.warm_state.previous_pg(),
                    config.ramp_fraction,
                );
                solver.solve_warm(&net_t, &prev.warm_state, Some((lo, hi)))
            }
        };
        cumulative += result.solve_time;
        periods.push(PeriodResult {
            period: t,
            load_multiplier: mult,
            solve_time: result.solve_time,
            cumulative_time: cumulative,
            max_violation: result.quality.max_violation(),
            objective: result.objective,
            inner_iterations: result.inner_iterations,
        });
        previous = Some(result);
    }
    let last = previous.expect("at least one period solved");
    (periods, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracking_case9_three_periods_stays_feasible() {
        let base = gridsim_grid::case9();
        let profile = LoadProfile {
            multipliers: vec![1.0, 1.01, 1.02],
            period_minutes: 1.0,
        };
        let (periods, last) = track_horizon(&base, &profile, &TrackingConfig::default());
        assert_eq!(periods.len(), 3);
        for p in &periods {
            assert!(
                p.max_violation < 2e-2,
                "period {} violation {}",
                p.period,
                p.max_violation
            );
        }
        // Cumulative time is nondecreasing.
        for w in periods.windows(2) {
            assert!(w[1].cumulative_time >= w[0].cumulative_time);
        }
        // Warm-started periods take fewer inner iterations than the cold one.
        assert!(periods[1].inner_iterations <= periods[0].inner_iterations);
        assert!(periods[2].inner_iterations <= periods[0].inner_iterations);
        // Objective rises with load.
        assert!(last.objective >= periods[0].objective * 0.99);
    }

    #[test]
    fn ramp_limits_bound_dispatch_changes_between_periods() {
        let base = gridsim_grid::case9();
        let profile = LoadProfile {
            multipliers: vec![1.0, 1.03],
            period_minutes: 1.0,
        };
        let config = TrackingConfig {
            ramp_fraction: 0.02,
            ..Default::default()
        };
        let solver_params_net = base.compile().unwrap();
        let (_periods, last) = track_horizon(&base, &profile, &config);
        // We cannot observe period-0 dispatch from here directly, but the
        // final dispatch must stay within the static bounds at least.
        for g in 0..solver_params_net.ngen {
            assert!(last.solution.pg[g] <= solver_params_net.pmax[g] + 1e-9);
            assert!(last.solution.pg[g] >= solver_params_net.pmin[g] - 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn empty_profile_panics() {
        let base = gridsim_grid::two_bus();
        let profile = LoadProfile {
            multipliers: vec![],
            period_minutes: 1.0,
        };
        let _ = track_horizon(&base, &profile, &TrackingConfig::default());
    }
}
