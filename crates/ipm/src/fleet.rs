//! The interior-point scenario fleet on the solver-agnostic execution
//! engine.
//!
//! The ADMM side solves a fleet of scenarios through batched kernels; this
//! module gives the centralized baseline the same fleet treatment by
//! implementing [`gridsim_engine::LaneSolver`] for a set of ACOPF networks:
//! every admitted scenario becomes an [`AcopfNlp`] solved to completion
//! with [`IpmSolver::solve_with_cache`], and the engine streams pending
//! scenarios through the configured lanes.
//!
//! What is shared and what is per lane:
//!
//! * **one frozen condensed system per structure, shared** — the symbolic
//!   analysis of the condensed KKT is a pure function of a scenario's
//!   declared derivative structure, so the solver keeps a registry of
//!   frozen systems that every lane, device, run and clone of it resolves
//!   through: each distinct structure is analyzed exactly once. Every
//!   scenario of a set shares the base network's topology, so a load ramp
//!   or perturbation costs **one symbolic analysis** in its first run and
//!   none after; a scenario whose constraint structure differs (e.g. an
//!   outage lifting a line limit) adds one for its structure. Each
//!   analysis is billed to the lowest-index scenario of the run that
//!   declared the structure, so per-scenario counts do not depend on the
//!   device count, the lane cap or thread timing,
//! * **one numeric workspace and one warm-start carry per lane** — a
//!   lane's [`KktCache`] holds the value buffers its Newton steps assemble
//!   into, and each admission after the lane's first starts from the
//!   [`IpmWarmStart`] of the lane's previous solve (or of a closer store
//!   hit) through [`IpmSolver::solve_warm`], so a lane behaves like a
//!   tracking chain even though the fleet as a whole runs wide.
//!
//! Because warm starts chain *within* a lane, per-scenario iterates depend
//! on the device/lane configuration (unlike the ADMM fleet, whose lanes
//! are arithmetically isolated): at one device and one lane the fleet is
//! bitwise identical to a sequential [`IpmSolver::solve_with_cache`] loop
//! over the scenarios, and across configurations the converged reports
//! agree to solver tolerance. Both are asserted in `tests/ipm_fleet.rs`.

use crate::acopf_nlp::AcopfNlp;
use crate::kkt_condensed::{FrozenRegistry, FrozenSystem, KktCache, SymbolicStats};
use crate::report::SolveReport;
use crate::solver::{IpmOptions, IpmSolver, IpmWarmStart};
use gridsim_acopf::violations::{max_or_nan, SolutionQuality};
use gridsim_acopf::OpfSolution;
use gridsim_batch::Device;
use gridsim_engine::{Admission, Engine, FleetRequest, LaneSolver};
use gridsim_grid::Network;
use gridsim_store::StoreRunStats;
use std::sync::Arc;
use std::time::Duration;

/// One scenario's result inside a fleet solve.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FleetScenarioResult {
    /// Name of the scenario's network.
    pub name: String,
    /// The extracted operating point.
    pub solution: OpfSolution,
    /// Solution-quality metrics.
    pub quality: SolutionQuality,
    /// The full interior-point report (iterations, factorizations,
    /// symbolic analyses billed to this solve, status, log).
    pub report: SolveReport,
}

/// Aggregated result of an interior-point fleet solve.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-scenario results, in input order.
    pub results: Vec<FleetScenarioResult>,
    /// Wall-clock time of the whole fleet.
    pub solve_time: Duration,
    /// Engine ticks: admission rounds of the longest device (each tick
    /// solves every active lane's current scenario to completion).
    pub ticks: usize,
    /// Total lanes the engine opened across devices — the number of
    /// independent warm-start chains and numeric workspaces.
    pub lanes: usize,
    /// Solution-store traffic for this run, as the engine counts it
    /// ([`gridsim_engine::EngineRun::store`]). All zero for a store-less
    /// request.
    pub store: StoreRunStats,
    /// The symbolic figures of every distinct frozen condensed system the
    /// run's scenarios declared, in the input order of the first scenario
    /// to declare each.
    pub frozen: Vec<SymbolicStats>,
}

impl FleetReport {
    /// Symbolic analyses this run performed: one per distinct structure no
    /// earlier run of the solver had declared, so a run of structurally
    /// identical scenarios pays one, and a re-run pays none.
    pub fn symbolic_analyses(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.report.symbolic_analyses)
            .sum()
    }

    /// Total KKT factorizations across the fleet.
    pub fn factorizations(&self) -> usize {
        self.results.iter().map(|r| r.report.factorizations).sum()
    }

    /// Total interior-point iterations across the fleet.
    pub fn total_iterations(&self) -> usize {
        self.results.iter().map(|r| r.report.iterations).sum()
    }

    /// Total filter line-search rejections across the fleet — trial steps
    /// the globalization refused (and re-tried shorter or via second-order
    /// correction). A benign-case fleet reports 0; nonzero totals flag which
    /// scenario sets actually exercise the filter.
    pub fn filter_rejections(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.report.filter_rejections)
            .sum()
    }

    /// Total feasibility-restoration phases entered across the fleet.
    pub fn restorations(&self) -> usize {
        self.results.iter().map(|r| r.report.restorations).sum()
    }

    /// True when every scenario reached optimality.
    pub fn all_optimal(&self) -> bool {
        self.results.iter().all(|r| r.report.is_optimal())
    }

    /// Worst max-violation across scenarios; NaN when any scenario's is.
    pub fn worst_violation(&self) -> f64 {
        self.results
            .iter()
            .map(|r| r.quality.max_violation())
            .fold(0.0, max_or_nan)
    }
}

/// The interior-point fleet driver: solve many scenarios of one network
/// family through the execution engine, one warm-start chain and one
/// numeric workspace per lane, one frozen condensed system per structure.
#[derive(Debug, Clone)]
pub struct IpmFleetSolver {
    /// Options applied to every scenario solve. A lane's first admission
    /// without a store hit solves cold; every other starts from the lane's
    /// carried [`IpmWarmStart`].
    pub options: IpmOptions,
    /// The execution engine (device pool + lane policy).
    pub engine: Engine,
    /// The frozen systems of every structure a run of this solver (or of a
    /// clone) has declared.
    registry: Arc<FrozenRegistry>,
}

impl IpmFleetSolver {
    /// A fleet solver on the environment-selected engine (`GRIDSIM_DEVICES`
    /// logical devices, no lane cap).
    pub fn new(options: IpmOptions) -> Self {
        IpmFleetSolver::with_engine(options, Engine::from_env())
    }

    /// A fleet solver on a specific engine.
    pub fn with_engine(options: IpmOptions, engine: Engine) -> Self {
        IpmFleetSolver {
            options,
            engine,
            registry: Arc::default(),
        }
    }

    /// Solve one [`FleetRequest`]; results come back in input order.
    /// Networks should share one topology (a
    /// [`gridsim_grid::ScenarioSet`] guarantees it) —
    /// structurally divergent scenarios still solve correctly but cost one
    /// more symbolic analysis per structure.
    ///
    /// A bound store follows the engine's protocol (see [`LaneSolver`]),
    /// with one rule of this fleet's own: an admission seeds its lane from
    /// the store's hit only when the hit is strictly closer (in RMS load
    /// distance) than the lane's own chained point, and a declined hit
    /// counts as a miss. A live store receives every optimal solve's
    /// [`IpmWarmStart`] after the run. Re-running with identical store
    /// contents and engine configuration reproduces results bitwise.
    ///
    /// An IPM lane runs on the host and only bills its factorizations to its
    /// device's statistics stream, so the engine's launch backend changes
    /// neither a result nor its cost.
    pub fn run(&self, request: FleetRequest<'_, IpmWarmStart>) -> FleetReport {
        let nets = request.nets;
        let fleet = IpmFleet {
            options: &self.options,
            nets,
            registry: &self.registry,
        };
        let run = self.engine.run(&fleet, request);
        let (results, frozen) = bill_analyses(run.outputs);
        FleetReport {
            results,
            solve_time: run.solve_time,
            ticks: run.ticks,
            lanes: self.engine.total_lanes(nets.len()),
            store: run.store,
            frozen,
        }
    }
}

/// Bill every analysis the run performed to the lowest-index scenario that
/// declared its structure (which lane got there first is thread timing), and
/// list the run's distinct frozen systems in first-appearance input order.
fn bill_analyses(
    outputs: Vec<(FleetScenarioResult, Option<Arc<FrozenSystem>>)>,
) -> (Vec<FleetScenarioResult>, Vec<SymbolicStats>) {
    let mut results: Vec<FleetScenarioResult> = Vec::with_capacity(outputs.len());
    // Each distinct system with the first scenario that declared it.
    let mut systems: Vec<(Arc<FrozenSystem>, usize)> = Vec::new();
    for (i, (mut result, system)) in outputs.into_iter().enumerate() {
        if let Some(system) = system {
            match systems.iter().find(|(s, _)| Arc::ptr_eq(s, &system)) {
                Some(&(_, first)) => {
                    let analyses = std::mem::take(&mut result.report.symbolic_analyses);
                    results[first].report.symbolic_analyses += analyses;
                }
                None => systems.push((system, i)),
            }
        }
        results.push(result);
    }
    let frozen = systems.iter().map(|(s, _)| s.stats()).collect();
    (results, frozen)
}

/// The borrowed per-run view the engine drives.
struct IpmFleet<'a> {
    options: &'a IpmOptions,
    nets: &'a [Network],
    registry: &'a Arc<FrozenRegistry>,
}

/// One lane: its numeric workspace, its warm-start carry, and the scenario
/// currently admitted or just finished.
struct IpmLane {
    cache: KktCache,
    /// The start of the lane's next solve; `None` solves cold.
    carry: Option<IpmWarmStart>,
    /// The scenario whose converged point `carry` holds — the lane's chain
    /// anchor, which a store hit must beat (in RMS load distance to the
    /// incoming scenario) to replace the carry.
    chain_scenario: Option<usize>,
    admitted: Option<usize>,
    /// The finished solve's report and the frozen system it declared.
    finished: Option<(SolveReport, Option<Arc<FrozenSystem>>)>,
}

/// One device's shard of lanes.
struct IpmShard {
    /// The fleet's options, billing to the shard's device.
    solver: IpmSolver,
    lanes: Vec<IpmLane>,
}

impl LaneSolver for IpmFleet<'_> {
    type Shard = IpmShard;
    type Output = (FleetScenarioResult, Option<Arc<FrozenSystem>>);
    type Payload = IpmWarmStart;

    fn open_shard(&self, device: &Device, lanes: usize) -> IpmShard {
        IpmShard {
            solver: IpmSolver::new(self.options.clone()).with_device(device.clone()),
            lanes: (0..lanes)
                .map(|_| IpmLane {
                    cache: KktCache::sharing(Arc::clone(self.registry)),
                    carry: None,
                    chain_scenario: None,
                    admitted: None,
                    finished: None,
                })
                .collect(),
        }
    }

    fn step(&self, shard: &mut IpmShard, active: &[bool]) -> Vec<bool> {
        let mut finished = vec![false; shard.lanes.len()];
        for (s, lane) in shard.lanes.iter_mut().enumerate() {
            if !active[s] {
                continue;
            }
            let idx = lane
                .admitted
                .take()
                .expect("active lane holds an admitted scenario");
            let nlp = AcopfNlp::new(&self.nets[idx]);
            let report = match &lane.carry {
                Some(start) => shard.solver.solve_warm(&nlp, &mut lane.cache, start),
                None => shard.solver.solve_with_cache(&nlp, &mut lane.cache),
            };
            lane.carry = Some(IpmWarmStart::from_report(&report));
            lane.chain_scenario = Some(idx);
            lane.finished = Some((report, lane.cache.frozen().cloned()));
            finished[s] = true;
        }
        finished
    }

    fn extract(&self, shard: &mut IpmShard, slot: usize, scenario: usize) -> Self::Output {
        let (report, system) = shard.lanes[slot]
            .finished
            .take()
            .expect("extract follows a finishing step");
        let net = &self.nets[scenario];
        let solution = AcopfNlp::new(net).to_solution(&report.x);
        let quality = SolutionQuality::evaluate(net, &solution);
        let result = FleetScenarioResult {
            name: net.name.clone(),
            solution,
            quality,
            report,
        };
        (result, system)
    }

    fn admit(
        &self,
        shard: &mut IpmShard,
        slot: usize,
        admission: &Admission<'_, IpmWarmStart>,
    ) -> bool {
        let lane = &mut shard.lanes[slot];
        lane.admitted = Some(admission.scenario);
        // Strictly closer than the chain: seed the lane from the store.
        // Ties keep the chain (it is already resident in the lane).
        match &admission.hit {
            Some(hit) if hit.closer_than(lane.chain_scenario) => {
                lane.carry = Some(hit.payload().clone());
                true
            }
            _ => false,
        }
    }

    fn commit(&self, (result, _): &Self::Output) -> Option<IpmWarmStart> {
        let report = &result.report;
        report
            .is_optimal()
            .then(|| IpmWarmStart::from_report(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_batch::DevicePool;
    use gridsim_grid::ScenarioSet;
    use gridsim_store::SolutionStore;

    #[test]
    fn fleet_solves_a_load_ramp_and_pays_one_analysis() {
        let nets = ScenarioSet::load_ramp(gridsim_grid::case9(), 4, 0.98, 1.02)
            .networks()
            .unwrap();
        let engine = Engine::with_pool(DevicePool::parallel(2)).with_lanes(1);
        let fleet = IpmFleetSolver::with_engine(IpmOptions::default(), engine)
            .run(FleetRequest::over(&nets));
        assert_eq!(fleet.results.len(), 4);
        assert!(fleet.all_optimal(), "a scenario failed to converge");
        assert_eq!(fleet.lanes, 2);
        // 2 lanes on 2 devices for 4 scenarios of one structure: one
        // symbolic analysis, billed to the first scenario, and one frozen
        // system.
        assert_eq!(fleet.symbolic_analyses(), 1);
        assert_eq!(fleet.results[0].report.symbolic_analyses, 1);
        assert_eq!(fleet.frozen.len(), 1);
        assert!(fleet.frozen[0].lnz > 0 && fleet.frozen[0].levels > 1);
        assert!(fleet.factorizations() > fleet.symbolic_analyses());
        // Input-order results: the ramp's objectives rise with load.
        let objs: Vec<f64> = fleet.results.iter().map(|r| r.report.objective).collect();
        assert!(objs.windows(2).all(|w| w[0] < w[1]), "objectives {objs:?}");
        // Streaming admission: 2 rounds through 2 lanes.
        assert_eq!(fleet.ticks, 2);
        // A benign load ramp never trips the globalization safeguards; the
        // aggregated counters exist to flag scenario sets that do.
        assert_eq!(fleet.restorations(), 0);
        assert_eq!(
            fleet.filter_rejections(),
            fleet
                .results
                .iter()
                .map(|r| r.report.filter_rejections)
                .sum::<usize>()
        );
    }

    #[test]
    fn warm_start_carry_speeds_up_the_second_admission() {
        let nets = ScenarioSet::load_ramp(gridsim_grid::case9(), 2, 1.0, 1.005)
            .networks()
            .unwrap();
        let engine = Engine::with_pool(DevicePool::parallel(1)).with_lanes(1);
        let fleet = IpmFleetSolver::with_engine(IpmOptions::default(), engine)
            .run(FleetRequest::over(&nets));
        assert!(fleet.all_optimal());
        // The second scenario rides the first one's primal/dual point and
        // the lane's frozen pattern: no new analysis, no more iterations
        // than the cold start.
        assert_eq!(fleet.results[1].report.symbolic_analyses, 0);
        assert!(
            fleet.results[1].report.iterations <= fleet.results[0].report.iterations,
            "warm {} vs cold {}",
            fleet.results[1].report.iterations,
            fleet.results[0].report.iterations
        );
    }

    #[test]
    fn default_options_fleet_pays_one_analysis_across_lanes() {
        let nets = ScenarioSet::load_ramp(gridsim_grid::case9(), 2, 0.99, 1.01)
            .networks()
            .unwrap();
        let fleet = IpmFleetSolver::with_engine(
            IpmOptions::default(),
            Engine::with_pool(DevicePool::parallel(1)),
        )
        .run(FleetRequest::over(&nets));
        assert!(fleet.all_optimal());
        // No lane cap: both scenarios open a lane, and the second lane
        // adopts the system the first one froze.
        assert_eq!(fleet.lanes, 2);
        assert_eq!(fleet.symbolic_analyses(), 1);
        assert_eq!(fleet.frozen.len(), 1);
        assert!(fleet.factorizations() > fleet.symbolic_analyses());
    }

    /// Lifting a line limit drops two inequality rows: another structure.
    /// Alternating it with the base, a lane never re-analyzes, each
    /// structure is billed once to its first scenario in every
    /// configuration, and the report lists both systems in that order.
    #[test]
    fn alternating_structures_are_analyzed_once_each() {
        let mut lifted = gridsim_grid::case9();
        lifted.branches[0].rate_a = 0.0;
        let (base, lifted) = (
            gridsim_grid::case9().compile().unwrap(),
            lifted.compile().unwrap(),
        );
        let nets = [base.clone(), lifted.clone(), base, lifted];
        for (devices, lanes) in [(1, Some(1)), (2, Some(1)), (1, None), (2, None)] {
            let mut engine = Engine::with_pool(DevicePool::parallel(devices));
            if let Some(l) = lanes {
                engine = engine.with_lanes(l);
            }
            let fleet = IpmFleetSolver::with_engine(IpmOptions::default(), engine)
                .run(FleetRequest::over(&nets));
            let config = format!("devices={devices} lanes={lanes:?}");
            assert!(fleet.all_optimal(), "{config}");
            let billed: Vec<usize> = fleet
                .results
                .iter()
                .map(|r| r.report.symbolic_analyses)
                .collect();
            assert_eq!(billed, [1, 1, 0, 0], "{config}");
            assert_eq!(fleet.frozen.len(), 2, "{config}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one scenario")]
    fn empty_fleet_is_rejected() {
        let _ = IpmFleetSolver::new(IpmOptions::default()).run(FleetRequest::over(&[]));
    }

    #[test]
    fn empty_store_run_matches_plain_solve_bitwise_and_fills_the_store() {
        let nets = ScenarioSet::load_ramp(gridsim_grid::case9(), 3, 0.99, 1.01)
            .networks()
            .unwrap();
        let engine = Engine::with_pool(DevicePool::parallel(1)).with_lanes(1);
        let solver = IpmFleetSolver::with_engine(IpmOptions::default(), engine);
        let plain = solver.run(FleetRequest::over(&nets));
        let mut store = SolutionStore::new();
        let stored = solver.run(FleetRequest::over(&nets).case("case9").store(&mut store));
        // An empty store changes nothing about the solves…
        assert_eq!(stored.store.hits, 0);
        assert_eq!(stored.store.misses, nets.len());
        for (a, b) in plain.results.iter().zip(&stored.results) {
            assert_eq!(a.report.iterations, b.report.iterations);
            assert_eq!(a.report.x, b.report.x, "{}", a.name);
        }
        // …but every converged solve is committed back, in input order.
        assert_eq!(stored.store.inserts, nets.len());
        assert_eq!(store.len(), nets.len());
        assert_eq!(store.group_count(), 1, "one structure class for a ramp");
    }

    #[test]
    fn warm_store_rerun_hits_and_converges_to_the_same_solution() {
        let nets = ScenarioSet::load_ramp(gridsim_grid::case9(), 3, 0.99, 1.01)
            .networks()
            .unwrap();
        let engine = Engine::with_pool(DevicePool::parallel(1)).with_lanes(1);
        let solver = IpmFleetSolver::with_engine(IpmOptions::default(), engine);
        let mut store = SolutionStore::new();
        let cold = solver.run(FleetRequest::over(&nets).case("case9").store(&mut store));
        let warm = solver.run(FleetRequest::over(&nets).case("case9").store(&mut store));
        assert!(warm.all_optimal());
        // Every scenario now has a distance-0 neighbor: all hits, and the
        // exact-duplicate re-inserts replace rather than grow the store.
        assert_eq!(warm.store.hits, nets.len());
        assert_eq!(store.len(), nets.len());
        // Warm solves start at the answer: no more iterations than cold,
        // and the same solution to solver tolerance.
        assert!(warm.total_iterations() <= cold.total_iterations());
        for (c, w) in cold.results.iter().zip(&warm.results) {
            assert!(
                (c.report.objective - w.report.objective).abs()
                    <= 1e-6 * (1.0 + c.report.objective.abs()),
                "{}: cold {} vs warm {}",
                c.name,
                c.report.objective,
                w.report.objective
            );
        }
    }

    #[test]
    fn store_hit_beats_a_farther_lane_chain() {
        // One lane solving a near pair after a far scenario: the chain
        // anchor is far, the stored neighbor is exact.
        let base = gridsim_grid::case9();
        let far = base.scale_load(1.06).compile().unwrap();
        let near = base.scale_load(1.001).compile().unwrap();
        let engine = Engine::with_pool(DevicePool::parallel(1)).with_lanes(1);
        let solver = IpmFleetSolver::with_engine(IpmOptions::default(), engine);
        let mut store = SolutionStore::new();
        // Prime the store with the near scenario's solution.
        let prime = solver.run(
            FleetRequest::over(std::slice::from_ref(&near))
                .case("case9")
                .store(&mut store),
        );
        assert!(prime.all_optimal());
        // Far then near on one lane: without the store the near solve would
        // chain from the far point; with it, the admission takes the
        // distance-0 stored neighbor instead.
        let run = solver.run(
            FleetRequest::over(&[far, near])
                .case("case9")
                .store(&mut store),
        );
        assert!(run.all_optimal());
        assert_eq!(run.store.hits + run.store.misses, 2);
        assert!(run.store.hits >= 1, "the near admission must hit");
    }
}
