//! Device statistics: kernel launches, block counts, transfer accounting.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Aggregated statistics for a single named kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Number of launches.
    pub launches: u64,
    /// Total number of thread blocks executed across all launches.
    pub blocks: u64,
    /// Total wall-clock time spent inside the kernel body.
    pub elapsed: Duration,
}

/// Statistics collected by a [`crate::Device`]. Cheap to share across
/// threads; kernel bodies only touch atomics.
#[derive(Debug, Default)]
pub struct DeviceStats {
    host_to_device_transfers: AtomicU64,
    device_to_host_transfers: AtomicU64,
    host_to_device_bytes: AtomicU64,
    device_to_host_bytes: AtomicU64,
    kernels: Mutex<HashMap<String, KernelStats>>,
}

/// An immutable snapshot of [`DeviceStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Number of host-to-device copies.
    pub host_to_device_transfers: u64,
    /// Number of device-to-host copies.
    pub device_to_host_transfers: u64,
    /// Bytes copied host-to-device.
    pub host_to_device_bytes: u64,
    /// Bytes copied device-to-host.
    pub device_to_host_bytes: u64,
    /// Per-kernel statistics keyed by kernel name.
    pub kernels: HashMap<String, KernelStats>,
}

impl DeviceStats {
    /// Record a host-to-device transfer of `bytes`.
    pub fn record_h2d(&self, bytes: usize) {
        self.host_to_device_transfers
            .fetch_add(1, Ordering::Relaxed);
        self.host_to_device_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record a device-to-host transfer of `bytes`.
    pub(crate) fn record_d2h(&self, bytes: usize) {
        self.device_to_host_transfers
            .fetch_add(1, Ordering::Relaxed);
        self.device_to_host_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record a kernel launch over `blocks` thread blocks taking `elapsed`.
    pub fn record_launch(&self, name: &str, blocks: u64, elapsed: Duration) {
        let mut map = self.kernels.lock();
        // Look up by `&str` first: the key `String` is allocated only the
        // first time a kernel name is seen, not once per launch.
        let entry = match map.get_mut(name) {
            Some(entry) => entry,
            None => map.entry(name.to_string()).or_default(),
        };
        entry.launches += 1;
        entry.blocks += blocks;
        entry.elapsed += elapsed;
    }

    /// Take an immutable snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            host_to_device_transfers: self.host_to_device_transfers.load(Ordering::Relaxed),
            device_to_host_transfers: self.device_to_host_transfers.load(Ordering::Relaxed),
            host_to_device_bytes: self.host_to_device_bytes.load(Ordering::Relaxed),
            device_to_host_bytes: self.device_to_host_bytes.load(Ordering::Relaxed),
            kernels: self.kernels.lock().clone(),
        }
    }
}

impl StatsSnapshot {
    /// Total number of kernel launches across all kernels.
    pub fn total_launches(&self) -> u64 {
        self.kernels.values().map(|k| k.launches).sum()
    }

    /// Total number of thread blocks across all kernels.
    pub fn total_blocks(&self) -> u64 {
        self.kernels.values().map(|k| k.blocks).sum()
    }

    /// Total wall-clock time spent inside kernel bodies, summed across all
    /// kernels (a device's "busy time").
    pub fn kernel_elapsed(&self) -> Duration {
        self.kernels.values().map(|k| k.elapsed).sum()
    }

    /// Fold another snapshot's counters into this one (per-kernel timings
    /// are summed by kernel name). Used to aggregate the per-device streams
    /// of a [`crate::DevicePool`] into one pool-wide view.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.host_to_device_transfers += other.host_to_device_transfers;
        self.device_to_host_transfers += other.device_to_host_transfers;
        self.host_to_device_bytes += other.host_to_device_bytes;
        self.device_to_host_bytes += other.device_to_host_bytes;
        for (name, k) in &other.kernels {
            let entry = self.kernels.entry(name.clone()).or_default();
            entry.launches += k.launches;
            entry.blocks += k.blocks;
            entry.elapsed += k.elapsed;
        }
    }

    /// Total transfers in either direction.
    pub fn total_transfers(&self) -> u64 {
        self.host_to_device_transfers + self.device_to_host_transfers
    }

    /// Difference of two snapshots (`self` taken after `earlier`): counts of
    /// activity that happened strictly between the two snapshots.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut kernels = HashMap::new();
        for (name, now) in &self.kernels {
            let before = earlier.kernels.get(name).cloned().unwrap_or_default();
            kernels.insert(
                name.clone(),
                KernelStats {
                    launches: now.launches - before.launches,
                    blocks: now.blocks - before.blocks,
                    elapsed: now.elapsed.saturating_sub(before.elapsed),
                },
            );
        }
        StatsSnapshot {
            host_to_device_transfers: self.host_to_device_transfers
                - earlier.host_to_device_transfers,
            device_to_host_transfers: self.device_to_host_transfers
                - earlier.device_to_host_transfers,
            host_to_device_bytes: self.host_to_device_bytes - earlier.host_to_device_bytes,
            device_to_host_bytes: self.device_to_host_bytes - earlier.device_to_host_bytes,
            kernels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_are_counted() {
        let s = DeviceStats::default();
        s.record_h2d(1024);
        s.record_h2d(512);
        s.record_d2h(2048);
        let snap = s.snapshot();
        assert_eq!(snap.host_to_device_transfers, 2);
        assert_eq!(snap.host_to_device_bytes, 1536);
        assert_eq!(snap.device_to_host_transfers, 1);
        assert_eq!(snap.device_to_host_bytes, 2048);
        assert_eq!(snap.total_transfers(), 3);
    }

    #[test]
    fn kernel_launches_accumulate() {
        let s = DeviceStats::default();
        s.record_launch("generator_update", 100, Duration::from_micros(5));
        s.record_launch("generator_update", 100, Duration::from_micros(7));
        s.record_launch("branch_tron", 2000, Duration::from_millis(1));
        let snap = s.snapshot();
        assert_eq!(snap.kernels["generator_update"].launches, 2);
        assert_eq!(snap.kernels["generator_update"].blocks, 200);
        assert_eq!(snap.kernels["branch_tron"].launches, 1);
        assert_eq!(snap.total_launches(), 3);
    }

    #[test]
    fn since_computes_deltas() {
        let s = DeviceStats::default();
        s.record_h2d(100);
        s.record_launch("k", 5, Duration::from_micros(10));
        let first = s.snapshot();
        s.record_launch("k", 5, Duration::from_micros(10));
        s.record_launch("j", 1, Duration::ZERO);
        s.record_d2h(50);
        let second = s.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.host_to_device_transfers, 0);
        assert_eq!(delta.device_to_host_transfers, 1);
        assert_eq!(delta.kernels["k"].launches, 1);
        assert_eq!(delta.kernels["j"].launches, 1);
    }
}
