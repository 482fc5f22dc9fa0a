//! Batched multi-scenario ADMM: the execution engine that solves *K*
//! load/contingency scenarios of one network through batched kernel
//! launches, sharded across a pool of logical devices.
//!
//! The paper's solver already expresses every algorithmic step as a batch
//! kernel over one network's components; this module widens each of those
//! launches to span many scenarios in **slot-major** device buffers (slot
//! `s` owns elements `[s·n, (s+1)·n)`), in the style of the SIMD abstraction
//! of Shin et al. (arXiv:2307.16830), and splits *what* a scenario solve is
//! from *where and when* it runs:
//!
//! * [`problem::ScenarioProblem`] — shared, `Arc`-deduplicated read-only
//!   problem data, built once per scenario set (**what**),
//! * [`scheduler::ScenarioScheduler`] — the ADMM
//!   [`LaneSolver`](gridsim_engine::LaneSolver) on the solver-agnostic
//!   [`gridsim_engine::Engine`], which shards scenarios across a
//!   [`gridsim_batch::DevicePool`] and streams pending scenarios into slots
//!   as earlier ones converge (**where and when**). It is the fleet's only
//!   front end; [`AdmmSolver`](crate::solver::AdmmSolver) is its
//!   one-network, one-device case.
//!
//! This is the crate's only implementation of Algorithm 1's two-level loop.
//! Three properties make it a fleet solver rather than `K` loops:
//!
//! * **one launch per algorithmic step per device** — the segmented
//!   generator/bus/z/multiplier map launches and the segmented TRON block
//!   launch cover every active slot at once, so per-launch overhead is
//!   amortized and the parallel backend sees `L×` more elements to fan out
//!   across the worker pool,
//! * **per-scenario convergence masks and streaming admission** — each
//!   scenario carries its own inner/outer counters, penalty `β`, and
//!   termination status; converged scenarios stop consuming kernel work and
//!   (under a lane cap) hand their slot to the next pending scenario, so a
//!   busy device never shrinks below full occupancy,
//! * **bitwise-identical arithmetic** — every scenario's iterates depend
//!   only on its own buffer segment, so results are bit-for-bit independent
//!   of the device count, lane count, and admission order, and a K=1 run
//!   reproduces the plain-`Vec` transcription of Algorithm 1 (the crate's
//!   `#[cfg(test)]` oracle) exactly on every launch backend.
//!
//! Warm starts: [`ScenarioScheduler::solve_warm`] seeds every scenario from
//! one shared [`WarmState`] (e.g. the solved nominal case) with optional
//! per-scenario ramp-limited generator bounds;
//! [`ScenarioScheduler::solve_chained`] instead threads the warm state from
//! scenario `k−1` into scenario `k` (ramp-limited), trading batch width for
//! warm-start depth — the right mode for ordered scenario sweeps such as
//! monotone load ramps.

pub mod problem;
pub mod scheduler;

pub use problem::ScenarioProblem;
pub use scheduler::ScenarioScheduler;

use crate::solver::{AdmmStatus, WarmState};
use gridsim_acopf::solution::OpfSolution;
use gridsim_acopf::violations::SolutionQuality;
use gridsim_store::StoreRunStats;
use std::time::Duration;

/// Result of one scenario inside a batched solve. Field-for-field the
/// scenario-local counterpart of [`crate::solver::AdmmResult`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScenarioResult {
    /// Name of the scenario's network.
    pub name: String,
    /// The extracted operating point.
    pub solution: OpfSolution,
    /// Objective value ($/hr).
    pub objective: f64,
    /// Solution-quality metrics.
    pub quality: SolutionQuality,
    /// Termination status.
    pub status: AdmmStatus,
    /// Cumulative inner ADMM iterations of this scenario.
    pub inner_iterations: usize,
    /// Outer (augmented-Lagrangian) iterations of this scenario.
    pub outer_iterations: usize,
    /// Final `‖z‖∞` of this scenario.
    pub z_inf: f64,
    /// Final primal residual of this scenario.
    pub primal_residual: f64,
    /// State snapshot for warm-starting a follow-up solve.
    pub warm_state: WarmState,
}

/// Result of a batched multi-scenario solve.
#[derive(Debug, Clone)]
pub struct ScenarioBatchResult {
    /// Per-scenario results, in input order.
    pub results: Vec<ScenarioResult>,
    /// Wall-clock time of the whole batch.
    pub solve_time: Duration,
    /// Number of batched inner-iteration ticks executed. Each tick launches
    /// one batched round of kernels covering every still-active slot, so
    /// for a single-device all-admitted batch `ticks` equals the *maximum*
    /// per-scenario inner iteration count, not the sum; with streaming
    /// admission it also covers the refilled scenarios' rounds, and for a
    /// sharded multi-device run it is the longest device's count (shards
    /// run concurrently). [`ScenarioScheduler::solve_chained`] runs its
    /// scenarios as consecutive K=1 fleets instead, so there `ticks` is the
    /// sum over the chain (every tick still launches one kernel round).
    pub ticks: usize,
    /// Solution-store traffic for this run: admissions seeded from a stored
    /// neighbor (hits), admissions that consulted the store and found no
    /// eligible neighbor (misses), and converged scenarios committed back
    /// (inserts). All zero for the store-less solve paths.
    pub store: StoreRunStats,
}

impl ScenarioBatchResult {
    /// Sum of per-scenario inner iterations (the work a sequential driver
    /// would have spread over as many kernel rounds).
    pub fn total_inner_iterations(&self) -> usize {
        self.results.iter().map(|r| r.inner_iterations).sum()
    }

    /// Worst max-violation across scenarios.
    pub fn worst_violation(&self) -> f64 {
        self.results
            .iter()
            .map(|r| r.quality.max_violation())
            .fold(0.0, f64::max)
    }

    /// True when every scenario converged.
    pub fn all_converged(&self) -> bool {
        self.results
            .iter()
            .all(|r| r.status == AdmmStatus::Converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AdmmParams;
    use crate::solver::AdmmSolver;
    use gridsim_acopf::start::ramp_limited_bounds;
    use gridsim_batch::{Device, DevicePool};
    use gridsim_engine::FleetRequest;
    use gridsim_grid::cases;
    use gridsim_grid::network::Network;

    /// All scenarios on one auto-resolved device, whatever `GRIDSIM_DEVICES`
    /// says: the tests read that device's stats and assert `ticks`.
    fn single_device(params: AdmmParams) -> ScenarioScheduler {
        ScenarioScheduler::with_pool(params, DevicePool::single(Device::default()))
    }

    fn nets_for(case: &gridsim_grid::Case, mults: &[f64]) -> Vec<Network> {
        mults
            .iter()
            .map(|&f| case.scale_load(f).compile().unwrap())
            .collect()
    }

    #[test]
    fn k1_batch_reproduces_oracle_bitwise() {
        let net = cases::case9().compile().unwrap();
        // Bitwise identity holds at every iterate, so a bounded budget keeps
        // this unit test cheap.
        let params = AdmmParams {
            max_outer: 3,
            max_inner: 60,
            ..AdmmParams::default()
        };
        let want = crate::oracle::solve(&net, &params, None, None);
        let batch = single_device(params).run(FleetRequest::over(std::slice::from_ref(&net)));
        assert_eq!(batch.results.len(), 1);
        let r = &batch.results[0];
        assert_eq!(r.inner_iterations, want.inner_iterations);
        assert_eq!(r.outer_iterations, want.outer_iterations);
        assert_eq!(r.status, want.status);
        assert_eq!(r.solution, want.solution);
        assert_eq!(r.z_inf.to_bits(), want.z_inf.to_bits());
        assert_eq!(r.warm_state, want.warm_state);
        assert_eq!(batch.ticks, want.inner_iterations);
    }

    #[test]
    fn batch_matches_per_scenario_sequential_solves() {
        let base = cases::case9();
        let nets = nets_for(&base, &[0.98, 1.0, 1.03]);
        let params = AdmmParams::test_profile();
        let batch = single_device(params.clone()).run(FleetRequest::over(&nets));
        let solver = AdmmSolver::new(params);
        for (r, net) in batch.results.iter().zip(&nets) {
            let single = solver.solve(net);
            assert_eq!(r.inner_iterations, single.inner_iterations);
            assert_eq!(r.solution.pg, single.solution.pg);
            assert_eq!(r.solution.vm, single.solution.vm);
        }
        // Ticks equal the slowest scenario, not the sum.
        let max_inner = batch
            .results
            .iter()
            .map(|r| r.inner_iterations)
            .max()
            .unwrap();
        assert_eq!(batch.ticks, max_inner);
        assert!(batch.total_inner_iterations() > batch.ticks);
    }

    #[test]
    fn converged_scenarios_stop_consuming_kernel_work() {
        let base = cases::case9();
        // A spread of loads so convergence times differ across scenarios.
        let nets = nets_for(&base, &[1.0, 1.05, 0.95]);
        let batcher = single_device(AdmmParams::test_profile());
        let before = batcher.pool.device(0).stats().snapshot();
        let result = batcher.run(FleetRequest::over(&nets));
        let delta = batcher.pool.device(0).stats().snapshot().since(&before);
        // Masked launches record only the active elements: the branch-TRON
        // block count equals the sum of per-scenario inner iterations times
        // branches, strictly less than ticks × K × nbranch.
        let nbranch = nets[0].nbranch as u64;
        let expected: u64 = result
            .results
            .iter()
            .map(|r| r.inner_iterations as u64 * nbranch)
            .sum();
        assert_eq!(delta.kernels["branch_tron"].blocks, expected);
        assert!(
            expected < result.ticks as u64 * nets.len() as u64 * nbranch,
            "masking saved no work"
        );
        // One launch per tick, regardless of K.
        assert_eq!(delta.kernels["z_update"].launches, result.ticks as u64);
    }

    #[test]
    fn transfers_scale_with_scenarios_not_iterations() {
        let nets = nets_for(&cases::case9(), &[1.0, 1.02]);
        let params = AdmmParams {
            max_outer: 2,
            max_inner: 30,
            ..AdmmParams::default()
        };
        let batcher = single_device(params);
        let before = batcher.pool.device(0).stats().snapshot();
        let result = batcher.run(FleetRequest::over(&nets));
        let delta = batcher.pool.device(0).stats().snapshot().since(&before);
        // Uploads happen once at setup (9 slot-major buffers) and reads once
        // per finished scenario (6 result-bearing buffers) — never per
        // iteration, even over dozens of ticks.
        assert!(result.ticks > 10, "want a solve with many ticks");
        assert_eq!(delta.host_to_device_transfers, 9, "h2d grew with ticks");
        assert_eq!(
            delta.device_to_host_transfers,
            6 * nets.len() as u64,
            "d2h grew with ticks"
        );
    }

    #[test]
    fn shared_warm_start_cuts_iterations() {
        let base = cases::case9();
        let nominal = base.compile().unwrap();
        let cold = AdmmSolver::new(AdmmParams::test_profile()).solve(&nominal);
        let nets = nets_for(&base, &[1.005, 1.01, 1.015]);
        let batcher = single_device(AdmmParams::test_profile());
        let warm = batcher.solve_warm(&nets, &cold.warm_state, None);
        let coldb = batcher.run(FleetRequest::over(&nets));
        for (w, c) in warm.results.iter().zip(&coldb.results) {
            assert!(w.quality.max_violation() < 2e-2);
            assert!(
                w.inner_iterations <= c.inner_iterations,
                "warm {} vs cold {}",
                w.inner_iterations,
                c.inner_iterations
            );
        }
        assert!(warm.ticks < coldb.ticks);
    }

    #[test]
    fn chained_solve_respects_ramp_limits() {
        let base = cases::case9();
        let nominal = base.compile().unwrap();
        let cold = AdmmSolver::new(AdmmParams::test_profile()).solve(&nominal);
        let nets = nets_for(&base, &[1.005, 1.01]);
        let ramp = 0.02;
        let chained =
            single_device(AdmmParams::test_profile()).solve_chained(&nets, &cold.warm_state, ramp);
        assert_eq!(chained.results.len(), 2);
        let mut prev_pg = cold.warm_state.previous_pg().to_vec();
        for (r, net) in chained.results.iter().zip(&nets) {
            let (lo, hi) = ramp_limited_bounds(net, &prev_pg, ramp);
            for g in 0..net.ngen {
                assert!(r.solution.pg[g] >= lo[g] - 1e-9);
                assert!(r.solution.pg[g] <= hi[g] + 1e-9);
            }
            prev_pg = r.solution.pg.clone();
        }
    }

    #[test]
    #[should_panic(expected = "topology differs")]
    fn mismatched_topology_panics() {
        let a = cases::case9().compile().unwrap();
        let mut case_b = cases::case9();
        case_b.branches.swap(0, 3);
        let b = case_b.compile().unwrap();
        let _ = single_device(AdmmParams::default()).run(FleetRequest::over(&[a, b]));
    }
}
