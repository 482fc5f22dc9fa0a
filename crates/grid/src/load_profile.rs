//! Time-varying load profiles for the warm-start tracking experiment.
//!
//! The paper drives its 30-period (one minute each) tracking experiment with
//! an hourly real-time system-demand trace from ISO New England interpolated
//! to minutes; over the 30-minute horizon the load drifts by up to 5 % from
//! its starting value. That feed is not available offline, so this module
//! synthesizes an hourly demand curve with the familiar double-peak daily
//! shape, interpolates it to one-minute resolution, and extracts windows with
//! the paper's drift characteristics. Real hourly data can be supplied via
//! [`LoadProfile::from_hourly`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A per-period load multiplier sequence. Multipliers are relative to the base
/// case's nominal load (period 0 of a window is typically 1.0).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// Multiplier applied to every bus load in each period.
    pub multipliers: Vec<f64>,
    /// Length of one period in minutes (informational).
    pub period_minutes: f64,
}

impl LoadProfile {
    /// Build a profile directly from hourly demand samples (e.g. a real
    /// ISO-NE trace), linearly interpolated to `period_minutes` resolution and
    /// normalized so the first sample maps to 1.0.
    pub(crate) fn from_hourly(hourly_demand: &[f64], period_minutes: f64) -> Self {
        assert!(hourly_demand.len() >= 2, "need at least two hourly samples");
        assert!(period_minutes > 0.0);
        let base = hourly_demand[0];
        assert!(base > 0.0, "demand must be positive");
        let steps_per_hour = (60.0 / period_minutes).round() as usize;
        let mut multipliers = Vec::new();
        for h in 0..hourly_demand.len() - 1 {
            let a = hourly_demand[h] / base;
            let b = hourly_demand[h + 1] / base;
            for s in 0..steps_per_hour {
                let t = s as f64 / steps_per_hour as f64;
                multipliers.push(a + t * (b - a));
            }
        }
        multipliers.push(hourly_demand[hourly_demand.len() - 1] / base);
        LoadProfile {
            multipliers,
            period_minutes,
        }
    }

    /// Synthesize a 24-hour demand curve with morning/evening peaks plus small
    /// random perturbations, interpolated to one-minute periods.
    /// Deterministic in `seed`.
    pub(crate) fn synthetic_day(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut hourly = Vec::with_capacity(25);
        for h in 0..=24 {
            let t = h as f64;
            // Double-peak daily shape normalized around 1.0.
            let morning = 0.18 * (-(t - 9.0) * (t - 9.0) / 8.0).exp();
            let evening = 0.25 * (-(t - 19.0) * (t - 19.0) / 10.0).exp();
            let overnight = -0.15 * (-(t - 3.5) * (t - 3.5) / 12.0).exp();
            let noise = rng.gen_range(-0.01..0.01);
            hourly.push(1.0 + morning + evening + overnight + noise);
        }
        LoadProfile::from_hourly(&hourly, 1.0)
    }

    /// Extract a tracking window of `periods` one-minute periods starting at
    /// `start`, re-normalized so the window's first period is 1.0 (the cold
    /// start solves the nominal case). The synthetic day is constructed so a
    /// 30-period window drifts by at most ~5 %, as in the paper.
    pub(crate) fn window(&self, start: usize, periods: usize) -> LoadProfile {
        assert!(
            start + periods <= self.multipliers.len(),
            "window [{start}, {}) exceeds profile length {}",
            start + periods,
            self.multipliers.len()
        );
        let base = self.multipliers[start];
        LoadProfile {
            multipliers: self.multipliers[start..start + periods]
                .iter()
                .map(|m| m / base)
                .collect(),
            period_minutes: self.period_minutes,
        }
    }

    /// The paper's experiment window: 30 one-minute periods over which the
    /// load changes by up to 5 % from its starting value. The window is chosen
    /// on the steep morning ramp of the synthetic day and rescaled to hit the
    /// requested maximum drift exactly.
    pub fn paper_window(seed: u64, periods: usize, max_drift: f64) -> LoadProfile {
        let day = LoadProfile::synthetic_day(seed);
        // Steepest stretch of the morning ramp: around hour 7 (minute 420).
        let start = 420.min(day.multipliers.len().saturating_sub(periods + 1));
        let mut w = day.window(start, periods);
        let drift = w
            .multipliers
            .iter()
            .map(|m| (m - 1.0).abs())
            .fold(0.0f64, f64::max);
        if drift > 1e-12 {
            let scale = max_drift / drift;
            for m in &mut w.multipliers {
                *m = 1.0 + (*m - 1.0) * scale;
            }
        }
        w
    }

    /// Number of periods.
    pub fn len(&self) -> usize {
        self.multipliers.len()
    }

    /// True when the profile has no periods.
    pub fn is_empty(&self) -> bool {
        self.multipliers.is_empty()
    }

    /// Maximum absolute drift from the starting value.
    pub fn max_drift(&self) -> f64 {
        let base = self.multipliers.first().copied().unwrap_or(1.0);
        self.multipliers
            .iter()
            .map(|m| (m - base).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hourly_interpolation_length() {
        let p = LoadProfile::from_hourly(&[100.0, 110.0, 105.0], 1.0);
        // Two hours of minutes plus the final sample.
        assert_eq!(p.len(), 121);
        assert!((p.multipliers[0] - 1.0).abs() < 1e-12);
        assert!((p.multipliers[60] - 1.1).abs() < 1e-12);
        assert!((p.multipliers[120] - 1.05).abs() < 1e-12);
    }

    #[test]
    fn interpolation_is_monotone_between_samples() {
        let p = LoadProfile::from_hourly(&[100.0, 120.0], 1.0);
        for w in p.multipliers.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn synthetic_day_is_deterministic() {
        assert_eq!(
            LoadProfile::synthetic_day(7).multipliers,
            LoadProfile::synthetic_day(7).multipliers
        );
    }

    #[test]
    fn synthetic_day_covers_24_hours_of_minutes() {
        let p = LoadProfile::synthetic_day(0);
        assert_eq!(p.len(), 24 * 60 + 1);
    }

    #[test]
    fn window_renormalizes_to_one() {
        let day = LoadProfile::synthetic_day(3);
        let w = day.window(500, 30);
        assert_eq!(w.len(), 30);
        assert!((w.multipliers[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_window_has_requested_drift() {
        let w = LoadProfile::paper_window(0, 30, 0.05);
        assert_eq!(w.len(), 30);
        assert!(
            (w.max_drift() - 0.05).abs() < 1e-9,
            "drift {}",
            w.max_drift()
        );
        // Per-minute steps stay small, consistent with interpolation of an
        // hourly signal.
        let max_step = w
            .multipliers
            .windows(2)
            .map(|p| (p[1] - p[0]).abs())
            .fold(0.0, f64::max);
        assert!(max_step < 0.01, "step {max_step}");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn window_out_of_range_panics() {
        let day = LoadProfile::synthetic_day(0);
        let _ = day.window(day.len(), 10);
    }
}
