//! Workspace integration test of the warm-start tracking experiment
//! (Figures 1–3): a short horizon on the 14-bus case with both solvers.

use gridadmm::prelude::*;
use gridsim_admm::track_horizon;

#[test]
fn short_horizon_tracking_on_case14() {
    let case = gridsim_grid::case14();
    let profile = LoadProfile::paper_window(0, 5, 0.02);
    let config = TrackingConfig {
        params: AdmmParams::test_profile(),
        ..TrackingConfig::default()
    };
    let (periods, last) = track_horizon(&case, &profile, &config);

    assert_eq!(periods.len(), 5);
    // Figure-2-style check: violations stay at the cold-start level over the
    // horizon (no deterioration).
    let cold_violation = periods[0].max_violation;
    for p in &periods {
        assert!(
            p.max_violation <= (cold_violation * 10.0).max(1e-2),
            "period {} violation {:.3e} deteriorated (cold {:.3e})",
            p.period,
            p.max_violation,
            cold_violation
        );
    }
    // Figure-1-style check: every warm-started period is no slower than the
    // cold start, and the average warm period is strictly faster.
    let warm_avg: f64 = periods[1..]
        .iter()
        .map(|p| p.solve_time.as_secs_f64())
        .sum::<f64>()
        / (periods.len() - 1) as f64;
    assert!(
        warm_avg < periods[0].solve_time.as_secs_f64(),
        "warm average {:.4}s should beat the cold start {:.4}s",
        warm_avg,
        periods[0].solve_time.as_secs_f64()
    );
    // The final solution remains a sensible dispatch.
    let net = case.compile().unwrap();
    let total_pg: f64 = last.solution.pg.iter().sum();
    assert!(total_pg >= net.total_pd() * 0.98 * profile.multipliers[4]);
}

#[test]
fn ramp_limits_hold_between_consecutive_periods() {
    // Track with an aggressive load swing and a tight ramp; consecutive
    // dispatches must never move a generator faster than the ramp allows.
    let case = gridsim_grid::case9();
    let net = case.compile().unwrap();
    let profile = LoadProfile {
        multipliers: vec![1.0, 1.02, 1.04],
        period_minutes: 1.0,
    };
    let ramp_fraction = 0.02;

    let solver = AdmmSolver::new(AdmmParams::test_profile());
    let mut prev: Option<gridsim_admm::AdmmResult> = None;
    let mut prev_pg: Option<Vec<f64>> = None;
    for &mult in &profile.multipliers {
        let net_t = case.scale_load(mult).compile().unwrap();
        let result = match &prev {
            None => solver.solve(&net_t),
            Some(p) => {
                let (lo, hi) = gridsim_acopf::start::ramp_limited_bounds(
                    &net_t,
                    p.warm_state.previous_pg(),
                    ramp_fraction,
                );
                solver.solve_warm(&net_t, &p.warm_state, Some((lo, hi)))
            }
        };
        if let Some(pg0) = &prev_pg {
            for (g, &pg_prev) in pg0.iter().enumerate() {
                let delta = (result.solution.pg[g] - pg_prev).abs();
                assert!(
                    delta <= ramp_fraction * net.pmax[g] + 1e-6,
                    "generator {g} ramped {delta:.4} > {:.4}",
                    ramp_fraction * net.pmax[g]
                );
            }
        }
        prev_pg = Some(result.solution.pg.clone());
        prev = Some(result);
    }
}
