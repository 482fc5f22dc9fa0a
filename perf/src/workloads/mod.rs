//! The four workloads and what they share: result fingerprints, output
//! limits, and the translation of a device's public counters into
//! per-layer values.
//!
//! Each workload stresses a different set of layers, so that a change to
//! one layer has a workload that exercises it and one that bypasses it (on
//! which the prediction is "no movement"):
//!
//! | workload    | grid | acopf | batch | tron | admm | engine | ipm | sparse | store | screen | serve |
//! |-------------|------|-------|-------|------|------|--------|-----|--------|-------|--------|-------|
//! | `cold`      | x    | x     | x     | x    | x    |        |     |        |       |        |       |
//! | `track`     | x    | x     | x     | x    | x    |        |     |        |       |        |       |
//! | `ipm_fleet` | x    |       | x     |      |      | x      | x   | x      | x     |        |       |
//! | `sweep`     | x    |       | x     | x    | x    | x      |     |        | x     | x      | x     |

pub mod cold;
pub mod ipm_fleet;
pub mod sweep;
pub mod track;

use crate::harness::Workload;
use gridsim_batch::StatsSnapshot;
use std::path::Path;

/// Build a workload by name. `smoke` selects the toy sizes; `scratch` is a
/// fresh directory the workload may write under.
pub fn build(name: &str, seed: u64, smoke: bool, scratch: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cold" => Box::new(cold::Cold::new(seed, smoke)),
        "track" => Box::new(track::Track::new(seed, smoke)),
        "ipm_fleet" => Box::new(ipm_fleet::IpmFleet::new(seed, smoke, scratch)),
        "sweep" => Box::new(sweep::Sweep::new(seed, smoke, scratch)),
        _ => return None,
    })
}

/// FNV-1a over the result bits a round produced. Equal fingerprints across
/// rounds are the benchmark's determinism guard.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Fingerprint {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Fingerprint {
        self.bytes(&v.to_le_bytes())
    }

    pub fn usize(self, v: usize) -> Fingerprint {
        self.u64(v as u64)
    }

    /// The exact bit pattern, so `0.1 + 0.2` and `0.3` differ.
    pub fn f64(self, v: f64) -> Fingerprint {
        self.u64(v.to_bits())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Output limits a solve must meet to count as a success.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// The solver must report convergence.
    pub converged: bool,
    /// Largest admissible `SolutionQuality::max_violation()`.
    pub violation: f64,
    /// Largest admissible relative objective gap to the reference.
    pub gap: f64,
}

impl Limits {
    /// Budget-capped smoke solves stop early by design: only demand finite
    /// numbers.
    pub const SMOKE: Limits = Limits {
        converged: false,
        violation: f64::MAX,
        gap: f64::MAX,
    };

    pub fn admits(&self, converged: bool, violation: f64, gap: f64) -> bool {
        (converged || !self.converged) && violation <= self.violation && gap <= self.gap
    }
}

/// Per-kernel groups reported as `batch.kernel.<group>_s`.
pub const KERNEL_GROUPS: [(&str, &[&str]); 6] = [
    ("batch.kernel.generator_update_s", &["generator_update"]),
    ("batch.kernel.branch_tron_s", &["branch_tron"]),
    (
        "batch.kernel.bus_update_s",
        &["bus_update", "bus_copy_seed"],
    ),
    (
        "batch.kernel.consensus_s",
        &[
            "u_scatter",
            "v_scatter",
            "z_update",
            "y_update",
            "lambda_update",
        ],
    ),
    (
        "batch.kernel.residuals_s",
        &["primal_residual", "dual_residual", "z_norm"],
    ),
    ("batch.kernel.ldl_refactor_level_s", &["ldl_refactor_level"]),
];

/// Seconds a device spent in the named kernels.
pub fn kernel_seconds(snap: &StatsSnapshot, kernels: &[&str]) -> f64 {
    kernels
        .iter()
        .filter_map(|k| snap.kernels.get(*k))
        .fold(0.0, |sum, k| sum + k.elapsed.as_secs_f64())
}

/// Translate one round's device counters into `batch.*` values. `wall_s` is
/// the wall-clock of the calls that launched the kernels; what is not
/// kernel time is the host-side gap around them.
pub fn device_layer(snap: &StatsSnapshot, wall_s: f64, out: &mut Vec<(&'static str, f64)>) {
    let busy = snap.kernel_elapsed().as_secs_f64();
    out.push(("batch.launches", snap.total_launches() as f64));
    out.push(("batch.blocks", snap.total_blocks() as f64));
    out.push(("batch.h2d_bytes", snap.host_to_device_bytes as f64));
    out.push(("batch.d2h_bytes", snap.device_to_host_bytes as f64));
    out.push(("batch.kernel_busy_s", busy));
    out.push(("batch.host_gap_s", (wall_s - busy).max(0.0)));
    out.push(("_kernel_wall_s", wall_s));
    for (metric, kernels) in KERNEL_GROUPS {
        out.push((metric, kernel_seconds(snap, kernels)));
    }
    let tron_blocks = snap.kernels.get("branch_tron").map_or(0, |k| k.blocks);
    out.push(("_tron_blocks", tron_blocks as f64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_batch::DeviceStats;
    use std::time::Duration;

    #[test]
    fn fingerprint_sees_single_bit_flips() {
        let a = Fingerprint::new().f64(0.3).usize(7).finish();
        let b = Fingerprint::new().f64(0.1 + 0.2).usize(7).finish();
        let c = Fingerprint::new().f64(0.3).usize(8).finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Fingerprint::new().f64(0.3).usize(7).finish());
    }

    #[test]
    fn limits_gate_each_criterion() {
        let l = Limits {
            converged: true,
            violation: 1e-2,
            gap: 1e-3,
        };
        assert!(l.admits(true, 1e-3, 1e-4));
        assert!(!l.admits(false, 1e-3, 1e-4));
        assert!(!l.admits(true, 2e-2, 1e-4));
        assert!(!l.admits(true, 1e-3, f64::NAN));
        assert!(Limits::SMOKE.admits(false, 1.0, 1.0));
        assert!(!Limits::SMOKE.admits(true, f64::NAN, 0.0));
    }

    #[test]
    fn device_layer_groups_kernels_and_computes_the_gap() {
        let stats = DeviceStats::default();
        stats.record_h2d(64);
        stats.record_launch("branch_tron", 40, Duration::from_millis(900));
        stats.record_launch("u_scatter", 10, Duration::from_millis(30));
        stats.record_launch("z_update", 10, Duration::from_millis(20));
        let mut out = Vec::new();
        device_layer(&stats.snapshot(), 1.0, &mut out);
        let get = |k: &str| out.iter().find(|(n, _)| *n == k).unwrap().1;
        assert_eq!(get("batch.launches"), 3.0);
        assert_eq!(get("batch.blocks"), 60.0);
        assert_eq!(get("batch.h2d_bytes"), 64.0);
        assert_eq!(get("_tron_blocks"), 40.0);
        assert!((get("batch.kernel.consensus_s") - 0.05).abs() < 1e-12);
        assert!((get("batch.host_gap_s") - 0.05).abs() < 1e-12);
        assert_eq!(get("batch.kernel.ldl_refactor_level_s"), 0.0);
    }
}
