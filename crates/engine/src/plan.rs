//! The engine's scheduling decisions as pure functions.
//!
//! Everything the [`Engine`](crate::Engine) decides *before* any solver
//! state exists — which device owns which scenario, which scenarios occupy
//! the initial lanes, and which wait in the refill queue — lives here as
//! plain data-in/data-out functions. The engine executes exactly these
//! plans, and the test suites assert observable behavior (per-device kernel
//! billing, transfer counts per admission) against the same functions
//! instead of re-implementing the round-robin arithmetic by hand.

/// Round-robin shard plan: scenario `i` runs on device `i mod ndev`, where
/// `ndev = num_devices.min(num_scenarios)` (a device never gets an empty
/// shard). Shard `d` lists its scenarios in admission order.
pub fn shard_plan(num_scenarios: usize, num_devices: usize) -> Vec<Vec<usize>> {
    assert!(num_scenarios >= 1, "need at least one scenario");
    assert!(num_devices >= 1, "need at least one device");
    let ndev = num_devices.min(num_scenarios);
    (0..ndev)
        .map(|d| (d..num_scenarios).step_by(ndev).collect())
        .collect()
}

/// Admission plan of one shard under an optional lane cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AdmissionPlan {
    /// Concurrent slots the shard runs (`min(lane_cap, shard length)`,
    /// the whole shard without a cap).
    pub lanes: usize,
    /// Scenarios occupying the initial lanes, in slot order (slot `s` opens
    /// with `initial[s]`).
    pub initial: Vec<usize>,
    /// Scenarios streamed in later, in admission order. Which *slot* a
    /// refill lands in depends on which scenario finishes first, but the
    /// refill *sequence* is fixed: the `i`-th slot to free up receives
    /// `refills[i]`.
    pub refills: Vec<usize>,
}

/// Plan one shard's admissions: the first `lanes` scenarios fill the slots,
/// the rest queue as refills.
pub(crate) fn admission_plan(shard: &[usize], lane_cap: Option<usize>) -> AdmissionPlan {
    assert!(!shard.is_empty(), "a shard needs at least one scenario");
    if let Some(cap) = lane_cap {
        assert!(cap >= 1, "need at least one lane");
    }
    let lanes = lane_cap.unwrap_or(shard.len()).min(shard.len());
    AdmissionPlan {
        lanes,
        initial: shard[..lanes].to_vec(),
        refills: shard[lanes..].to_vec(),
    }
}

/// Total number of lanes the engine opens for a run: the sum of per-shard
/// lane counts. This is the quantity per-lane resources (e.g. one
/// warm-start chain and one numeric workspace per lane in an
/// interior-point fleet) scale with — the lane count, not the scenario
/// count.
pub fn total_lanes(num_scenarios: usize, num_devices: usize, lane_cap: Option<usize>) -> usize {
    shard_plan(num_scenarios, num_devices)
        .iter()
        .map(|shard| admission_plan(shard, lane_cap).lanes)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_every_scenario_once() {
        let shards = shard_plan(7, 3);
        assert_eq!(shards, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
        let mut all: Vec<usize> = shards.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn more_devices_than_scenarios_clamps_to_scenario_count() {
        let shards = shard_plan(2, 5);
        assert_eq!(shards, vec![vec![0], vec![1]]);
    }

    #[test]
    fn admission_plan_without_cap_admits_everything() {
        let plan = admission_plan(&[4, 1, 9], None);
        assert_eq!(plan.lanes, 3);
        assert_eq!(plan.initial, vec![4, 1, 9]);
        assert!(plan.refills.is_empty());
    }

    #[test]
    fn admission_plan_with_cap_queues_the_tail() {
        let plan = admission_plan(&[0, 2, 4, 6], Some(2));
        assert_eq!(plan.lanes, 2);
        assert_eq!(plan.initial, vec![0, 2]);
        assert_eq!(plan.refills, vec![4, 6]);
    }

    #[test]
    fn lane_cap_above_shard_length_clamps() {
        let plan = admission_plan(&[3], Some(8));
        assert_eq!(plan.lanes, 1);
        assert_eq!(plan.refills, Vec::<usize>::new());
    }

    #[test]
    fn total_lanes_sums_per_shard_caps() {
        // 5 scenarios over 2 devices: shards of 3 and 2.
        assert_eq!(total_lanes(5, 2, None), 5);
        assert_eq!(total_lanes(5, 2, Some(2)), 4);
        assert_eq!(total_lanes(5, 2, Some(1)), 2);
        // Clamped device count: 2 scenarios over 4 devices is 2 shards.
        assert_eq!(total_lanes(2, 4, Some(1)), 2);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_cap_is_rejected() {
        let _ = admission_plan(&[0], Some(0));
    }
}
