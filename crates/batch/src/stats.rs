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
    /// One entry per kernel name *address*, in first-launch order: a device
    /// launches a handful of kernels, each under a literal, so a launch
    /// finds its entry by comparing a few pointers — no hashing, no text
    /// compare, no allocation once the name has been seen. Entries whose
    /// names have the same text are summed in [`Self::snapshot`].
    kernels: Mutex<Vec<(&'static str, KernelStats)>>,
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

    /// Record a launch of kernel `name` over `blocks` thread blocks taking
    /// `elapsed`. Kernels are told apart by the text of their names.
    pub fn record_launch(&self, name: &'static str, blocks: u64, elapsed: Duration) {
        let mut kernels = self.kernels.lock();
        let slot = match kernels
            .iter()
            .position(|(seen, _)| std::ptr::eq(*seen, name))
        {
            Some(slot) => slot,
            None => {
                kernels.push((name, KernelStats::default()));
                kernels.len() - 1
            }
        };
        let entry = &mut kernels[slot].1;
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
            kernels: self
                .kernels
                .lock()
                .iter()
                .fold(HashMap::new(), |mut map, (name, k)| {
                    add(map.entry(name.to_string()).or_default(), k);
                    map
                }),
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
            add(self.kernels.entry(name.clone()).or_default(), k);
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

/// Add `k`'s counts and time into `sum`.
fn add(sum: &mut KernelStats, k: &KernelStats) {
    sum.launches += k.launches;
    sum.blocks += k.blocks;
    sum.elapsed += k.elapsed;
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
        assert_eq!(delta.kernels["k"].blocks, 5);
        assert_eq!(delta.kernels["k"].elapsed, Duration::from_micros(10));
        assert_eq!(delta.kernels["j"].elapsed, Duration::ZERO);
        assert_eq!(delta.kernels.len(), 2);
    }

    #[test]
    fn names_with_the_same_text_share_one_entry() {
        let s = DeviceStats::default();
        let literal: &'static str = "branch_tron";
        let leaked: &'static str = Box::leak(String::from("branch_tron").into_boxed_str());
        assert!(!std::ptr::eq(literal, leaked), "want two addresses");
        s.record_launch(literal, 4, Duration::from_micros(3));
        s.record_launch(leaked, 5, Duration::from_micros(4));
        s.record_launch(leaked, 6, Duration::from_micros(5));
        s.record_launch(literal, 7, Duration::from_micros(6));
        s.record_launch("bus_update", 1, Duration::ZERO);
        let snap = s.snapshot();
        assert_eq!(snap.kernels.len(), 2);
        let tron = &snap.kernels["branch_tron"];
        assert_eq!((tron.launches, tron.blocks), (4, 22));
        assert_eq!(tron.elapsed, Duration::from_micros(18));
        assert_eq!(snap.total_launches(), 5);
    }

    #[test]
    fn merge_sums_counters_and_kernels_by_name() {
        let (a, b) = (DeviceStats::default(), DeviceStats::default());
        a.record_h2d(8);
        a.record_launch("k", 3, Duration::from_micros(2));
        b.record_d2h(16);
        b.record_launch("k", 4, Duration::from_micros(5));
        b.record_launch("j", 1, Duration::from_micros(1));
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.host_to_device_bytes, 8);
        assert_eq!(total.device_to_host_bytes, 16);
        assert_eq!(total.total_transfers(), 2);
        assert_eq!(
            total.kernels["k"],
            KernelStats {
                launches: 2,
                blocks: 7,
                elapsed: Duration::from_micros(7)
            }
        );
        assert_eq!(total.kernels["j"].launches, 1);
        assert_eq!(total.kernel_elapsed(), Duration::from_micros(8));
        assert_eq!(total.total_blocks(), 8);
    }

    #[test]
    fn launches_recorded_from_several_threads_all_count() {
        let s = DeviceStats::default();
        let names = ["generator_update", "branch_tron", "bus_update", "z_update"];
        std::thread::scope(|scope| {
            for (t, name) in names.into_iter().enumerate() {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        s.record_launch(name, t as u64 + 1, Duration::from_nanos(1));
                        s.record_launch("shared", i % 3, Duration::ZERO);
                    }
                });
            }
        });
        let snap = s.snapshot();
        for (t, name) in names.into_iter().enumerate() {
            let k = &snap.kernels[name];
            assert_eq!(
                (k.launches, k.blocks),
                (1000, 1000 * (t as u64 + 1)),
                "{name}"
            );
            assert_eq!(k.elapsed, Duration::from_nanos(1000));
        }
        let shared = &snap.kernels["shared"];
        assert_eq!((shared.launches, shared.blocks), (4000, 4 * 999));
        assert_eq!(snap.total_launches(), 8000);
    }
}
