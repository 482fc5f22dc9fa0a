//! The batch device: backend resolution and construction.
//!
//! A [`Device`] pairs a statistics stream with a concrete
//! [`LaunchBackend`] implementor, resolved from the
//! configured [`ExecutionMode`] at construction time. `ExecutionMode::Auto`
//! (the default) resolves with a deterministic precedence — `GRIDSIM_BACKEND`
//! env override, then worker count, then the vectorized fallback — so
//! `Device::default()`, [`DevicePool::from_env`](crate::DevicePool::from_env),
//! and everything built on them honor the environment without any call-site
//! changes. See [`crate::backend`] for the trait, the implementors, and the
//! resolution rule.

use crate::backend::{AnyBackend, ExecutionMode, LaunchBackend};
use crate::stats::DeviceStats;
use std::sync::Arc;

/// A simulated batch device. Cheap to clone; all clones share the same
/// statistics collector and resolved backend.
#[derive(Debug, Clone)]
pub struct Device {
    pub(crate) exec: AnyBackend,
    pub(crate) stats: Arc<DeviceStats>,
}

impl Device {
    /// Create a device in the given mode, resolving `Auto` to a concrete
    /// backend now (so every launch on this device — and every clone — uses
    /// the same backend even if the environment changes later).
    pub(crate) fn new(mode: ExecutionMode) -> Self {
        Device {
            exec: AnyBackend::from_mode(mode),
            stats: Arc::new(DeviceStats::default()),
        }
    }

    /// A device in the auto-resolved mode.
    pub fn auto() -> Self {
        Self::new(ExecutionMode::Auto)
    }

    /// A device pinned to the parallel (thread-pool) backend.
    pub fn parallel() -> Self {
        Self::new(ExecutionMode::Parallel)
    }

    /// A device pinned to the sequential (deterministic, single-threaded)
    /// backend.
    pub fn sequential() -> Self {
        Self::new(ExecutionMode::Sequential)
    }

    /// A device pinned to the vectorized (chunked, branch-free) backend.
    pub fn vectorized() -> Self {
        Self::new(ExecutionMode::Vectorized)
    }

    /// The device's statistics collector.
    pub fn stats(&self) -> &Arc<DeviceStats> {
        &self.stats
    }

    /// The *resolved* execution mode — never [`ExecutionMode::Auto`]. For
    /// explicitly-pinned devices this equals the configured mode, so
    /// existing `device.backend() == ExecutionMode::Parallel` comparisons
    /// keep their meaning.
    pub fn backend(&self) -> ExecutionMode {
        self.exec.mode()
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_device_resolves_auto() {
        let d = Device::default();
        // The resolved backend is concrete and matches the documented rule
        // for whatever environment this test runs under.
        assert_eq!(d.backend(), ExecutionMode::Auto.resolve());
        assert_ne!(d.backend(), ExecutionMode::Auto);
    }

    #[test]
    fn pinned_constructors_resolve_to_themselves() {
        assert_eq!(Device::parallel().backend(), ExecutionMode::Parallel);
        assert_eq!(Device::sequential().backend(), ExecutionMode::Sequential);
        assert_eq!(Device::vectorized().backend(), ExecutionMode::Vectorized);
    }

    #[test]
    fn clones_share_stats_and_backend() {
        let d = Device::parallel();
        let d2 = d.clone();
        d.stats().record_h2d(8);
        assert_eq!(d2.stats().snapshot().host_to_device_transfers, 1);
        assert_eq!(d2.backend(), d.backend());
    }
}
