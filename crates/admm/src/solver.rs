//! The single-network front end of the ADMM solver and the result types
//! every ADMM path shares.
//!
//! The two-level loop of the paper's Algorithm 1 lives in exactly one place:
//! the engine-backed scenario fleet ([`crate::scenario::ScenarioScheduler`]),
//! which runs every inner iteration as four batch kernels over slot-major
//! device buffers, the last of which folds the residual norms on the device,
//! so no host–device transfer happens inside the solve. [`AdmmSolver`] is
//! that fleet at K=1 on one device: it builds nothing of its own and
//! converts the single [`ScenarioResult`](crate::scenario::ScenarioResult)
//! field for field into an [`AdmmResult`].

use crate::params::AdmmParams;
use crate::scenario::ScenarioScheduler;
use gridsim_acopf::violations::SolutionQuality;
use gridsim_acopf::OpfSolution;
use gridsim_batch::{Device, DevicePool};
use gridsim_engine::FleetRequest;
use gridsim_grid::Network;
use std::time::Duration;

/// Termination status of an ADMM solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AdmmStatus {
    /// The outer loop drove `‖z‖∞` below the tolerance.
    Converged,
    /// The maximum number of outer iterations was reached.
    MaxOuterIterations,
}

/// Host-side snapshot of the full ADMM state, used for warm starting the next
/// period of the tracking experiment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WarmState {
    pub(crate) gen_pg: Vec<f64>,
    pub(crate) gen_qg: Vec<f64>,
    pub(crate) branch_x: Vec<[f64; 6]>,
    pub(crate) branch_alm_lambda: Vec<[f64; 2]>,
    pub(crate) branch_alm_rho: Vec<f64>,
    pub(crate) bus_w: Vec<f64>,
    pub(crate) bus_theta: Vec<f64>,
    pub(crate) bus_copies: Vec<Vec<f64>>,
    pub(crate) y: Vec<f64>,
    pub(crate) lam: Vec<f64>,
    pub(crate) z: Vec<f64>,
    /// Outer penalty at extraction time. A warm restart resumes the β
    /// schedule here instead of re-running it from the cold start's β — restarting
    /// the schedule from scratch at a converged point re-perturbs the
    /// multipliers and can walk a marginal case away from its fixed point
    /// (the ADMM analog of restarting the interior-point μ cascade).
    pub(crate) beta: f64,
}

/// Result of an ADMM solve.
#[derive(Debug, Clone)]
pub struct AdmmResult {
    /// The extracted operating point (dispatch from generator subproblems,
    /// voltages from bus subproblems).
    pub solution: OpfSolution,
    /// Objective value ($/hr) of the extracted solution.
    pub objective: f64,
    /// Solution-quality metrics of the extracted solution.
    pub quality: SolutionQuality,
    /// Termination status.
    pub status: AdmmStatus,
    /// Cumulative number of inner ADMM iterations (the paper's Table II
    /// "Iterations" column).
    pub inner_iterations: usize,
    /// Number of outer (augmented-Lagrangian) iterations.
    pub outer_iterations: usize,
    /// Final `‖z‖∞`.
    pub z_inf: f64,
    /// Final primal residual `‖u − v + z‖∞`.
    pub primal_residual: f64,
    /// Wall-clock solve time.
    pub solve_time: Duration,
    /// State snapshot for warm-starting the next solve.
    pub warm_state: WarmState,
}

/// The component-based two-level ADMM solver.
#[derive(Debug, Clone)]
pub struct AdmmSolver {
    /// Algorithm parameters.
    pub params: AdmmParams,
    /// Batch device executing the kernels.
    pub device: Device,
}

impl AdmmSolver {
    /// Create a solver with the given parameters on an auto-resolved
    /// device (`GRIDSIM_BACKEND` override → worker count; every backend is
    /// bitwise identical, so the choice affects speed only).
    pub fn new(params: AdmmParams) -> Self {
        AdmmSolver {
            params,
            device: Device::default(),
        }
    }

    /// Create a solver on a specific device (e.g. sequential for
    /// deterministic tests).
    pub fn with_device(params: AdmmParams, device: Device) -> Self {
        AdmmSolver { params, device }
    }

    /// Solve from a cold start (Section IV-B).
    ///
    /// Panics unless `params.max_inner >= 1 && params.max_outer >= 1`: the
    /// loop runs one inner iteration before it checks the caps, so a
    /// zero-iteration budget cannot be honored.
    pub fn solve(&self, net: &Network) -> AdmmResult {
        self.solve_one(net, None, None)
    }

    /// Solve warm-started from a previous period's state, optionally with
    /// ramp-limited generator bounds (Section IV-C). Same budget contract as
    /// [`AdmmSolver::solve`].
    pub fn solve_warm(
        &self,
        net: &Network,
        warm: &WarmState,
        pg_bounds: Option<(Vec<f64>, Vec<f64>)>,
    ) -> AdmmResult {
        self.solve_one(net, Some(warm), pg_bounds)
    }

    /// One K=1 fleet run on a single-device pool over `self.device` (which
    /// shares the device's statistics stream).
    fn solve_one(
        &self,
        net: &Network,
        warm: Option<&WarmState>,
        pg_bounds: Option<(Vec<f64>, Vec<f64>)>,
    ) -> AdmmResult {
        let scheduler = ScenarioScheduler::with_pool(
            self.params.clone(),
            DevicePool::single(self.device.clone()),
        );
        let pg_bounds = pg_bounds.map(|b| [b]);
        let run = scheduler.execute(
            FleetRequest::over(std::slice::from_ref(net)),
            warm,
            pg_bounds.as_ref().map(|b| &b[..]),
        );
        let solve_time = run.solve_time;
        let r = run
            .results
            .into_iter()
            .next()
            .expect("a one-scenario run yields one result");
        AdmmResult {
            solution: r.solution,
            objective: r.objective,
            quality: r.quality,
            status: r.status,
            inner_iterations: r.inner_iterations,
            outer_iterations: r.outer_iterations,
            z_inf: r.z_inf,
            primal_residual: r.primal_residual,
            solve_time,
            warm_state: r.warm_state,
        }
    }
}

impl WarmState {
    /// Previous-period real-power dispatch (used to build ramp limits).
    pub fn previous_pg(&self) -> &[f64] {
        &self.gen_pg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, OracleResult};

    fn solve_case(case: gridsim_grid::Case, params: AdmmParams) -> (Network, AdmmResult) {
        let net = case.compile().unwrap();
        let solver = AdmmSolver::new(params);
        let result = solver.solve(&net);
        (net, result)
    }

    #[test]
    fn two_bus_admm_matches_physics() {
        let (net, result) = solve_case(gridsim_grid::two_bus(), AdmmParams::default());
        assert!(
            result.quality.max_violation() < 2e-2,
            "violation {:?}",
            result.quality
        );
        // Generation covers the 0.8 p.u. load plus small losses.
        assert!(result.solution.pg[0] > 0.78 && result.solution.pg[0] < 0.9);
        let _ = net;
    }

    #[test]
    fn case9_admm_converges_to_feasible_point() {
        let (_net, result) = solve_case(gridsim_grid::case9(), AdmmParams::default());
        assert!(
            result.quality.max_violation() < 2e-2,
            "violation {:?}",
            result.quality
        );
        let total_pg: f64 = result.solution.pg.iter().sum();
        assert!(total_pg > 3.1 && total_pg < 3.5, "total pg {total_pg}");
        assert!(result.inner_iterations > 10);
    }

    #[test]
    fn all_backends_agree_on_a_full_solve() {
        let net = gridsim_grid::two_bus().compile().unwrap();
        let params = AdmmParams {
            max_outer: 3,
            max_inner: 50,
            ..AdmmParams::default()
        };
        let seq = AdmmSolver::with_device(params.clone(), Device::sequential()).solve(&net);
        for dev in [Device::parallel(), Device::vectorized()] {
            let label = dev.backend();
            let got = AdmmSolver::with_device(params.clone(), dev).solve(&net);
            assert_eq!(got.inner_iterations, seq.inner_iterations, "{label}");
            for (a, b) in got.solution.pg.iter().zip(&seq.solution.pg) {
                assert_eq!(a.to_bits(), b.to_bits(), "{label} pg diverged");
            }
            for (a, b) in got.solution.vm.iter().zip(&seq.solution.vm) {
                assert_eq!(a.to_bits(), b.to_bits(), "{label} vm diverged");
            }
        }
    }

    /// An inner iteration is four launches: the generator and branch
    /// updates (each writing its entries of `u`), the bus update and the
    /// consensus pass (`z_update`, which writes `v`, `z` and `y` and scores
    /// both residuals and `‖z‖∞`). None of the separate scatter, multiplier
    /// and residual kernels it replaced is launched.
    #[test]
    fn warm_case9_solve_makes_four_launches_per_tick() {
        let net = gridsim_grid::case9().compile().unwrap();
        let params = AdmmParams::test_profile();
        let solver = AdmmSolver::new(params);
        let warm = solver.solve(&net).warm_state;
        let before = solver.device.stats().snapshot();
        let result = solver.solve_warm(&net, &warm, None);
        let delta = solver.device.stats().snapshot().since(&before);
        let ticks = result.inner_iterations as u64;
        assert!(ticks > 1, "want a solve of several ticks");
        let m = 2 * net.ngen + 8 * net.nbranch;
        for (name, elements) in [
            ("generator_update", net.ngen),
            ("branch_tron", net.nbranch),
            ("bus_update", net.nbus),
            ("z_update", m),
        ] {
            let kernel = &delta.kernels[name];
            assert_eq!(kernel.launches, ticks, "{name} launches");
            assert_eq!(kernel.blocks, ticks * elements as u64, "{name} blocks");
        }
        for gone in [
            "u_scatter",
            "v_scatter",
            "y_update",
            "primal_residual",
            "dual_residual",
            "z_norm",
        ] {
            assert!(!delta.kernels.contains_key(gone), "{gone} was launched");
        }
        // The rest are the outer-multiplier updates of the outer iterations
        // that did not converge.
        let lambda = delta.kernels.get("lambda_update").map_or(0, |k| k.launches);
        assert!(lambda < result.outer_iterations as u64);
        assert_eq!(delta.total_launches(), 4 * ticks + lambda);
    }

    #[test]
    fn no_transfers_during_iterations() {
        let net = gridsim_grid::two_bus().compile().unwrap();
        // Transfers happen only at setup (the admission's 5 ranged uploads)
        // and extraction (one read per result-bearing
        // buffer or field), never per iteration: doubling the iteration
        // budget runs more kernel rounds and moves exactly the same number
        // of buffers.
        let run = |max_inner: usize| {
            let params = AdmmParams {
                max_outer: 2,
                max_inner,
                ..AdmmParams::default()
            };
            let solver = AdmmSolver::new(params);
            let before = solver.device.stats().snapshot();
            let _ = solver.solve(&net);
            let delta = solver.device.stats().snapshot().since(&before);
            assert_eq!(delta.host_to_device_transfers, 5, "h2d at {max_inner}");
            assert_eq!(delta.device_to_host_transfers, 6, "d2h at {max_inner}");
            delta.kernels["z_update"].launches
        };
        let short = run(20);
        let long = run(40);
        assert!(short >= 20);
        assert!(long > short, "budget doubling ran no extra iterations");
    }

    #[test]
    #[should_panic(expected = "AdmmParams needs max_inner >= 1 and max_outer >= 1")]
    fn zero_iteration_budget_panics() {
        let net = gridsim_grid::two_bus().compile().unwrap();
        let params = AdmmParams {
            max_outer: 0,
            ..AdmmParams::default()
        };
        let _ = AdmmSolver::new(params).solve(&net);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Solve through [`AdmmSolver`] on every launch backend and require the
    /// result to equal the plain-`Vec` oracle bit for bit. Returns the
    /// oracle's result so callers can assert which exit the case took.
    fn assert_matches_oracle(
        net: &Network,
        params: &AdmmParams,
        warm: Option<&WarmState>,
        pg_bounds: Option<(Vec<f64>, Vec<f64>)>,
    ) -> OracleResult {
        let want = oracle::solve(net, params, warm, pg_bounds.as_ref());
        for device in [
            Device::sequential(),
            Device::parallel(),
            Device::vectorized(),
        ] {
            let label = format!("{} on {}", net.name, device.backend());
            let solver = AdmmSolver::with_device(params.clone(), device);
            let got = match warm {
                None => solver.solve(net),
                Some(w) => solver.solve_warm(net, w, pg_bounds.clone()),
            };
            assert_eq!(bits(&got.solution.pg), bits(&want.solution.pg), "{label}");
            assert_eq!(bits(&got.solution.qg), bits(&want.solution.qg), "{label}");
            assert_eq!(bits(&got.solution.vm), bits(&want.solution.vm), "{label}");
            assert_eq!(bits(&got.solution.va), bits(&want.solution.va), "{label}");
            assert_eq!(got.warm_state, want.warm_state, "{label}");
            assert_eq!(got.status, want.status, "{label}");
            assert_eq!(got.inner_iterations, want.inner_iterations, "{label}");
            assert_eq!(got.outer_iterations, want.outer_iterations, "{label}");
            assert_eq!(got.z_inf.to_bits(), want.z_inf.to_bits(), "{label}");
            assert_eq!(
                got.primal_residual.to_bits(),
                want.primal_residual.to_bits(),
                "{label}"
            );
        }
        want
    }

    /// Bitwise identity holds at every iterate, so a bounded budget keeps
    /// the oracle comparisons cheap in the debug profile.
    fn short_budget() -> AdmmParams {
        AdmmParams {
            max_outer: 3,
            max_inner: 60,
            ..AdmmParams::default()
        }
    }

    #[test]
    fn cold_start_matches_oracle_on_embedded_cases() {
        let two_bus = gridsim_grid::two_bus().compile().unwrap();
        let converged = assert_matches_oracle(&two_bus, &AdmmParams::test_profile(), None, None);
        assert_eq!(converged.status, AdmmStatus::Converged);
        for case in [gridsim_grid::case5(), gridsim_grid::case9()] {
            let net = case.compile().unwrap();
            assert_matches_oracle(&net, &short_budget(), None, None);
        }
    }

    #[test]
    fn inner_cap_hit_matches_oracle() {
        let net = gridsim_grid::case9().compile().unwrap();
        let params = AdmmParams {
            max_outer: 4,
            max_inner: 5,
            ..AdmmParams::default()
        };
        let want = assert_matches_oracle(&net, &params, None, None);
        // Every outer iteration ran into the inner cap.
        assert_eq!(want.inner_iterations, 4 * 5);
        assert_eq!(want.outer_iterations, 4);
    }

    #[test]
    fn max_outer_exit_matches_oracle() {
        let net = gridsim_grid::two_bus().compile().unwrap();
        let params = AdmmParams {
            max_outer: 2,
            ..AdmmParams::test_profile()
        };
        let want = assert_matches_oracle(&net, &params, None, None);
        // The inner loops converged on their own; the outer cap ended it.
        assert_eq!(want.status, AdmmStatus::MaxOuterIterations);
        assert_eq!(want.outer_iterations, 2);
        assert!(want.inner_iterations < 2 * params.max_inner);
    }

    #[test]
    fn warm_restart_matches_oracle_with_and_without_ramp_bounds() {
        let base = gridsim_grid::case9();
        let nominal = base.compile().unwrap();
        let params = short_budget();
        let cold = oracle::solve(&nominal, &params, None, None);
        let bumped = base.scale_load(1.02).compile().unwrap();
        let free = assert_matches_oracle(&bumped, &params, Some(&cold.warm_state), None);
        let bounds = gridsim_acopf::start::ramp_limited_bounds(
            &bumped,
            cold.warm_state.previous_pg(),
            0.001,
        );
        let ramped = assert_matches_oracle(
            &bumped,
            &params,
            Some(&cold.warm_state),
            Some(bounds.clone()),
        );
        // The ramp limit binds: the two warm solves are different problems.
        assert_ne!(free.solution.pg, ramped.solution.pg);
        for (g, pg) in ramped.solution.pg.iter().enumerate() {
            assert!(*pg >= bounds.0[g] && *pg <= bounds.1[g]);
        }
    }

    /// Re-solving case9 from its own converged state: the first ticks meet
    /// the primal tolerance while `z` still moves, so the dual residual —
    /// `ρ (z − z_old)`, against the `z` of the tick before — alone decides
    /// when the inner loop ends.
    #[test]
    fn warm_resolve_decided_by_the_dual_residual_matches_oracle() {
        let net = gridsim_grid::case9().compile().unwrap();
        let params = AdmmParams::test_profile();
        let cold = oracle::solve(&net, &params, None, None);
        let again = assert_matches_oracle(&net, &params, Some(&cold.warm_state), None);
        assert!(
            again.dual_bound_iterations > 0,
            "the dual residual never decided"
        );
    }

    #[test]
    fn warm_start_converges_faster_after_small_load_change() {
        let base = gridsim_grid::case9();
        let net = base.compile().unwrap();
        let solver = AdmmSolver::new(AdmmParams::default());
        let cold = solver.solve(&net);
        assert!(cold.quality.max_violation() < 2e-2);

        let bumped = base.scale_load(1.02).compile().unwrap();
        let warm = solver.solve_warm(&bumped, &cold.warm_state, None);
        assert!(warm.quality.max_violation() < 2e-2);
        assert!(
            warm.inner_iterations < cold.inner_iterations,
            "warm {} vs cold {}",
            warm.inner_iterations,
            cold.inner_iterations
        );

        let cold2 = solver.solve(&bumped);
        assert!(
            warm.inner_iterations <= cold2.inner_iterations,
            "warm {} vs cold-on-new-load {}",
            warm.inner_iterations,
            cold2.inner_iterations
        );
    }

    #[test]
    fn ramp_limits_are_respected_in_warm_solve() {
        let base = gridsim_grid::case9();
        let net = base.compile().unwrap();
        let solver = AdmmSolver::new(AdmmParams::default());
        let cold = solver.solve(&net);
        let prev_pg = cold.warm_state.previous_pg().to_vec();
        let ramp = 0.02;
        let (lo, hi) = gridsim_acopf::start::ramp_limited_bounds(&net, &prev_pg, ramp);
        let bumped = base.scale_load(1.01).compile().unwrap();
        let warm = solver.solve_warm(&bumped, &cold.warm_state, Some((lo.clone(), hi.clone())));
        for g in 0..net.ngen {
            assert!(warm.solution.pg[g] >= lo[g] - 1e-9);
            assert!(warm.solution.pg[g] <= hi[g] + 1e-9);
        }
    }
}
