//! A pool of logical devices.
//!
//! The paper maps independent subproblem batches onto one physical GPU; the
//! natural next rung on the throughput ladder is several devices, each with
//! its own kernel-stat stream (the CUDA analogue: one device + stream per
//! shard, `cudaSetDevice` before each launch). [`DevicePool`] models exactly
//! that: `N` logical [`Device`]s sharing an execution mode but **not** sharing
//! statistics, so per-device utilization stays observable and a scheduler
//! can bill each shard's kernel work to the device that ran it.
//!
//! Logical devices are an execution-engine concept, not a speed claim: on
//! this simulated substrate every device's kernels run on the same
//! host thread pool. What the pool buys is the *architecture* — sharding,
//! per-device accounting, and a device-count axis (`GRIDSIM_DEVICES`) that
//! CI sweeps so multi-device paths cannot silently rot.

use crate::backend::ExecutionMode;
use crate::device::Device;
use crate::stats::StatsSnapshot;

/// Environment variable selecting the logical device count for
/// [`DevicePool::from_env`] (used by the CI device-count matrix).
pub const DEVICE_COUNT_ENV: &str = "GRIDSIM_DEVICES";

/// A fixed-size pool of logical devices with independent statistics.
#[derive(Debug, Clone)]
pub struct DevicePool {
    devices: Vec<Device>,
}

impl DevicePool {
    /// Create a pool of `n` logical devices in `mode`. Each device gets its
    /// own statistics collector.
    pub(crate) fn new(n: usize, mode: ExecutionMode) -> Self {
        assert!(n >= 1, "a device pool needs at least one device");
        DevicePool {
            devices: (0..n).map(|_| Device::new(mode)).collect(),
        }
    }

    /// A pool of `n` devices with the default (auto-resolved) mode; see
    /// [`ExecutionMode::resolve`] for the `GRIDSIM_BACKEND` → worker-count
    /// precedence.
    pub fn auto(n: usize) -> Self {
        Self::new(n, ExecutionMode::Auto)
    }

    /// A pool of `n` devices pinned to the parallel (thread-pool) backend.
    pub fn parallel(n: usize) -> Self {
        Self::new(n, ExecutionMode::Parallel)
    }

    /// A pool of `n` devices pinned to the sequential (deterministic,
    /// single-threaded) backend.
    pub fn sequential(n: usize) -> Self {
        Self::new(n, ExecutionMode::Sequential)
    }

    /// A pool of `n` devices pinned to the vectorized (chunked,
    /// branch-free) backend.
    pub fn vectorized(n: usize) -> Self {
        Self::new(n, ExecutionMode::Vectorized)
    }

    /// Wrap one existing device as a single-device pool (shares its
    /// statistics stream — the K-scenarios-on-1-device special case).
    pub fn single(device: Device) -> Self {
        DevicePool {
            devices: vec![device],
        }
    }

    /// A pool built from the environment: `GRIDSIM_DEVICES` sizes it
    /// (default 1) and the devices auto-resolve their backend, so
    /// `GRIDSIM_BACKEND` selects the execution scheme — the two axes the
    /// CI matrix sweeps.
    pub fn from_env() -> Self {
        Self::auto(Self::env_device_count())
    }

    /// The device count `GRIDSIM_DEVICES` requests (default 1; zero and
    /// unparseable values fall back to 1).
    pub(crate) fn env_device_count() -> usize {
        std::env::var(DEVICE_COUNT_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    }

    /// Number of logical devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false (the constructor rejects empty pools); present for
    /// `len`/`is_empty` API symmetry.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The `i`-th logical device.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// The pool's resolved execution mode (shared by every device).
    pub fn backend(&self) -> ExecutionMode {
        self.devices[0].backend()
    }

    /// Per-device statistics snapshots, in device order.
    pub fn snapshots(&self) -> Vec<StatsSnapshot> {
        self.devices.iter().map(|d| d.stats().snapshot()).collect()
    }

    /// Per-device statistics deltas since a `before` baseline (as returned
    /// by [`DevicePool::snapshots`]), in device order — the counters one
    /// engine run billed to each device.
    pub fn snapshots_since(&self, before: &[StatsSnapshot]) -> Vec<StatsSnapshot> {
        assert_eq!(before.len(), self.devices.len(), "one baseline per device");
        self.devices
            .iter()
            .zip(before)
            .map(|(d, b)| d.stats().snapshot().since(b))
            .collect()
    }

    /// One snapshot aggregating every device's counters (kernel timings
    /// summed per kernel name across devices).
    pub fn combined_snapshot(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for d in &self.devices {
            total.merge(&d.stats().snapshot());
        }
        total
    }
}

impl Default for DevicePool {
    fn default() -> Self {
        Self::parallel(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_have_independent_stats_streams() {
        let pool = DevicePool::parallel(3);
        pool.device(0).stats().record_h2d(100);
        pool.device(2).stats().record_h2d(50);
        let snaps = pool.snapshots();
        assert_eq!(snaps[0].host_to_device_transfers, 1);
        assert_eq!(snaps[1].host_to_device_transfers, 0);
        assert_eq!(snaps[2].host_to_device_transfers, 1);
        let combined = pool.combined_snapshot();
        assert_eq!(combined.host_to_device_transfers, 2);
        assert_eq!(combined.host_to_device_bytes, 150);
    }

    #[test]
    fn combined_snapshot_merges_kernel_streams() {
        let pool = DevicePool::sequential(2);
        pool.device(0)
            .stats()
            .record_launch("k", 10, std::time::Duration::from_micros(5));
        pool.device(1)
            .stats()
            .record_launch("k", 30, std::time::Duration::from_micros(7));
        pool.device(1)
            .stats()
            .record_launch("j", 1, std::time::Duration::ZERO);
        let combined = pool.combined_snapshot();
        assert_eq!(combined.kernels["k"].launches, 2);
        assert_eq!(combined.kernels["k"].blocks, 40);
        assert_eq!(
            combined.kernels["k"].elapsed,
            std::time::Duration::from_micros(12)
        );
        assert_eq!(combined.total_launches(), 3);
    }

    #[test]
    fn single_wraps_the_given_device_and_its_stats() {
        let dev = Device::parallel();
        dev.stats().record_d2h(8);
        let pool = DevicePool::single(dev.clone());
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.snapshots()[0].device_to_host_transfers, 1);
        // Same collector, not a copy.
        pool.device(0).stats().record_d2h(8);
        assert_eq!(dev.stats().snapshot().device_to_host_transfers, 2);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_is_rejected() {
        let _ = DevicePool::parallel(0);
    }

    #[test]
    fn pool_constructors_pin_their_modes() {
        assert_eq!(DevicePool::parallel(2).backend(), ExecutionMode::Parallel);
        assert_eq!(
            DevicePool::sequential(1).backend(),
            ExecutionMode::Sequential
        );
        assert_eq!(
            DevicePool::vectorized(1).backend(),
            ExecutionMode::Vectorized
        );
    }

    /// `from_env` pools resolve their backend exactly as a bare `Auto`
    /// device would — this is how `GRIDSIM_BACKEND` reaches every solver
    /// built on `from_env` without call-site changes.
    #[test]
    fn env_pool_backend_follows_auto_resolution() {
        assert_eq!(
            DevicePool::from_env().backend(),
            ExecutionMode::Auto.resolve()
        );
    }

    #[test]
    fn env_device_count_defaults_to_one() {
        // The test environment does not set GRIDSIM_DEVICES; the CI matrix
        // does, and the scheduler suite asserts the parsed value there.
        if std::env::var(DEVICE_COUNT_ENV).is_err() {
            assert_eq!(DevicePool::env_device_count(), 1);
        }
    }
}
