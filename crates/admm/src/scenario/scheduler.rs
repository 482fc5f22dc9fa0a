//! The ADMM scenario fleet on the solver-agnostic execution engine.
//!
//! [`ScenarioScheduler`] maps a scenario set onto a [`DevicePool`] through
//! [`gridsim_engine::Engine`]: the engine owns the round-robin sharding,
//! the lane caps, and the streaming admission protocol
//! ([`gridsim_engine::plan`] spells the decisions out as pure functions);
//! this module contributes the *solver* side as the private `AdmmFleet`'s
//! [`LaneSolver`] implementation —
//!
//! * **shard state** — slot-major device buffers covering the shard's
//!   lanes, allocated on the device with no transfer; the read-only problem
//!   data, the layout's ρ vector among it, is shared by every lane,
//! * **step** — one batched inner iteration over every active lane (the
//!   four kernel launches of Algorithm 1's lines 3–6 spanning `L × n`
//!   elements: the generator and branch updates, each writing its own
//!   entries of `u`, the bus update, and one consensus pass that writes `v`,
//!   `z` and `y` and returns both residuals and `‖z‖∞` per lane) plus the
//!   per-lane inner/outer control that decides which lanes finished; each
//!   launch hands its kernel the element's lane (its slot) and its index in
//!   the slot, so a kernel reads its slot's data, control state and
//!   segments directly,
//! * **admit / extract** — ranged uploads into an empty or freed slot's
//!   buffer segments (every scenario, initial occupant or refill, enters
//!   this way), seeded from the admission's store hit when there is one,
//!   ranged reads out of a finished slot's,
//! * **commit** — a converged scenario's [`WarmState`] is what a live store
//!   keeps; the engine owns the rest of the store protocol.
//!
//! Because every scenario's iterates depend only on its own buffer segment
//! and control state, the per-scenario results are **bitwise identical**
//! for *any* device count, lane count, and admission order — in particular
//! equal to the K-scenarios-on-one-device, all-admitted-at-once run of the
//! same scenarios. The property suite asserts exactly that.

use super::problem::{ScenarioData, ScenarioProblem};
use super::{ScenarioBatchResult, ScenarioResult};
use crate::kernels::{
    self, BranchState, BusState, ConsensusState, GenState, BETA_INIT, Z_DECREASE_FACTOR,
};
use crate::params::AdmmParams;
use crate::solver::{AdmmStatus, WarmState};
use gridsim_acopf::start::ramp_limited_bounds;
use gridsim_acopf::violations::SolutionQuality;
use gridsim_batch::{Device, DeviceBuffer, DevicePool, Windows};
use gridsim_engine::{Admission, Engine, FleetRequest, Hit, LaneSolver};
use gridsim_grid::Network;
use gridsim_sparse::LANES;
use gridsim_store::StoreRunStats;
use gridsim_tron::TronSolver;
use std::time::Instant;

/// Per-slot control state of the outer/inner loop (one live scenario).
#[derive(Debug, Clone)]
struct ScenCtl {
    beta: f64,
    outer_done: usize,
    inner_in_outer: usize,
    total_inner: usize,
    z_inf_prev: f64,
    z_inf: f64,
    primres: f64,
    status: AdmmStatus,
}

impl ScenCtl {
    fn fresh() -> ScenCtl {
        ScenCtl {
            beta: BETA_INIT,
            outer_done: 0,
            inner_in_outer: 0,
            total_inner: 0,
            z_inf_prev: f64::INFINITY,
            z_inf: f64::INFINITY,
            primres: f64::INFINITY,
            status: AdmmStatus::MaxOuterIterations,
        }
    }
}

/// Slot-major device state of one shard. `u` is written only by the
/// generator and branch launches, each component into its own entries, and
/// `cons` only by the consensus pass.
struct SlotState {
    gens: DeviceBuffer<GenState>,
    branches: DeviceBuffer<BranchState>,
    buses: DeviceBuffer<BusState>,
    u: DeviceBuffer<f64>,
    cons: DeviceBuffer<ConsensusState>,
    lam: DeviceBuffer<f64>,
}

/// Host-side initial state of one scenario segment.
pub(crate) struct SegmentHost {
    pub(crate) gens: Vec<GenState>,
    pub(crate) branches: Vec<BranchState>,
    pub(crate) buses: Vec<BusState>,
    pub(crate) cons: Vec<ConsensusState>,
    pub(crate) lam: Vec<f64>,
}

/// The multi-device scenario execution front end for the ADMM fleet.
#[derive(Debug, Clone)]
pub struct ScenarioScheduler {
    /// Algorithm parameters (shared by every scenario).
    pub params: AdmmParams,
    /// The execution engine (device pool + lane policy).
    pub engine: Engine,
}

impl ScenarioScheduler {
    /// A scheduler on the environment-selected engine (`GRIDSIM_DEVICES`
    /// logical devices, default 1, no lane cap).
    pub fn new(params: AdmmParams) -> Self {
        Self::with_pool(params, DevicePool::from_env())
    }

    /// A scheduler on a specific device pool.
    pub fn with_pool(params: AdmmParams, pool: DevicePool) -> Self {
        ScenarioScheduler {
            params,
            engine: Engine::with_pool(pool),
        }
    }

    /// Cap the number of concurrent scenario slots per device
    /// ([`Engine::with_lanes`]).
    pub fn with_lanes(mut self, lanes_per_device: usize) -> Self {
        self.engine = self.engine.with_lanes(lanes_per_device);
        self
    }

    /// Solve one [`FleetRequest`]. Networks must share the first one's
    /// dimensions and topology (panics otherwise); results are in input
    /// order and bitwise independent of the device/lane configuration.
    ///
    /// A bound store follows the engine's protocol (see
    /// [`LaneSolver`]): an admission whose lookup hits starts from the
    /// stored [`WarmState`] instead of the cold start, and a live store
    /// receives every converged scenario's warm state after the run. Both
    /// the results and the post-run store contents are bitwise independent
    /// of the device count, lane cap and launch backend, and with an empty
    /// store the run is bitwise identical to a store-less request.
    pub fn run(&self, request: FleetRequest<'_, WarmState>) -> ScenarioBatchResult {
        self.execute(request, None, None)
    }

    /// Solve all scenarios warm-started from one shared [`WarmState`],
    /// optionally with per-scenario ramp-limited generator bounds
    /// (`pg_bounds[s]` applies to scenario `s`).
    pub fn solve_warm(
        &self,
        nets: &[Network],
        warm: &WarmState,
        pg_bounds: Option<&[(Vec<f64>, Vec<f64>)]>,
    ) -> ScenarioBatchResult {
        self.execute(FleetRequest::over(nets), Some(warm), pg_bounds)
    }

    /// Solve the scenarios in order, seeding scenario `k` from scenario
    /// `k−1`'s warm state with ramp-limited generator bounds (`base` seeds
    /// scenario 0). This trades the batch width of [`Self::run`] for
    /// warm-start depth — each solve is a K=1 fleet — and fits ordered
    /// sweeps such as monotone load ramps, where adjacent scenarios are
    /// nearly identical.
    pub fn solve_chained(
        &self,
        nets: &[Network],
        base: &WarmState,
        ramp_fraction: f64,
    ) -> ScenarioBatchResult {
        let start = Instant::now();
        let mut results = Vec::with_capacity(nets.len());
        let mut ticks = 0usize;
        let mut prev = base.clone();
        for net in nets {
            let bounds = ramp_limited_bounds(net, prev.previous_pg(), ramp_fraction);
            let one = self.solve_warm(std::slice::from_ref(net), &prev, Some(&[bounds][..]));
            ticks += one.ticks;
            let r = one.results.into_iter().next().expect("one scenario");
            prev = r.warm_state.clone();
            results.push(r);
        }
        ScenarioBatchResult {
            results,
            solve_time: start.elapsed(),
            ticks,
            store: StoreRunStats::default(),
        }
    }

    /// Drive the engine over the request on this scheduler's engine.
    /// Every ADMM solve in the crate — the fleet and the K=1
    /// [`crate::solver::AdmmSolver`] — comes through here.
    pub(crate) fn execute(
        &self,
        request: FleetRequest<'_, WarmState>,
        warm: Option<&WarmState>,
        pg_bounds: Option<&[(Vec<f64>, Vec<f64>)]>,
    ) -> ScenarioBatchResult {
        let start_time = Instant::now();
        // The step loop performs one inner iteration per round before it
        // checks the caps, so zero-iteration budgets cannot be honored.
        assert!(
            self.params.max_inner >= 1 && self.params.max_outer >= 1,
            "AdmmParams needs max_inner >= 1 and max_outer >= 1"
        );
        let nets = request.nets;
        let problem = ScenarioProblem::build(nets, &self.params, pg_bounds);
        let fleet = AdmmFleet {
            params: &self.params,
            problem: &problem,
            nets,
            warm,
            tron: TronSolver::new(self.params.tron.clone()),
        };
        let run = self.engine.run(&fleet, request);
        ScenarioBatchResult {
            results: run.outputs,
            solve_time: start_time.elapsed(),
            ticks: run.ticks,
            store: run.store,
        }
    }
}

/// The ADMM scenario fleet: one borrowed problem/parameter view driving
/// every shard the engine opens.
struct AdmmFleet<'a> {
    params: &'a AdmmParams,
    problem: &'a ScenarioProblem,
    nets: &'a [Network],
    warm: Option<&'a WarmState>,
    tron: TronSolver,
}

/// One device's shard: slot-major buffers plus per-lane control state.
struct AdmmShard {
    device: Device,
    st: SlotState,
    ctl: Vec<ScenCtl>,
    slot_data: Vec<ScenarioData>,
    /// The lanes whose outer multipliers λ the tick updates.
    lambda_mask: Vec<bool>,
}

impl LaneSolver for AdmmFleet<'_> {
    type Shard = AdmmShard;
    type Output = ScenarioResult;
    type Payload = WarmState;

    fn open_shard(&self, device: &Device, ll: usize) -> AdmmShard {
        let problem = self.problem;
        let (ngen, nbranch, nbus, m) = (problem.ngen, problem.nbranch, problem.nbus, problem.m);
        let stats = device.stats();
        let st = SlotState {
            gens: DeviceBuffer::zeroed(stats.clone(), ll * ngen),
            branches: DeviceBuffer::zeroed(stats.clone(), ll * nbranch),
            buses: DeviceBuffer::zeroed(stats.clone(), ll * nbus),
            u: DeviceBuffer::zeroed(stats.clone(), ll * m),
            cons: DeviceBuffer::zeroed(stats.clone(), ll * m),
            lam: DeviceBuffer::zeroed(stats.clone(), ll * m),
        };
        AdmmShard {
            device: device.clone(),
            st,
            // Placeholders until each slot's first admission.
            ctl: vec![ScenCtl::fresh(); ll],
            slot_data: vec![problem.data[0].clone(); ll],
            lambda_mask: vec![false; ll],
        }
    }

    fn step(&self, shard: &mut AdmmShard, active: &[bool]) -> Vec<bool> {
        let params = self.params;
        let m = self.problem.m;
        // Per slot: the primal and dual residuals and ‖z‖∞ after the tick.
        let scores = tick(
            &shard.device,
            &mut shard.st,
            self.problem,
            &shard.slot_data,
            &self.tron,
            active,
            &shard.ctl,
        );
        let AdmmShard {
            device,
            st,
            ctl,
            lambda_mask,
            ..
        } = shard;

        // Per-slot control: inner bookkeeping, and at an outer boundary the
        // outer-level update and termination.
        let mut finished = vec![false; ctl.len()];
        for (s, c) in ctl.iter_mut().enumerate() {
            lambda_mask[s] = false;
            if !active[s] {
                continue;
            }
            c.total_inner += 1;
            c.inner_in_outer += 1;
            let [prim, dual, z_inf] = scores[s];
            c.primres = prim;
            let inner_converged = prim <= params.eps_inner && dual <= params.eps_inner;
            if !inner_converged && c.inner_in_outer < params.max_inner {
                continue;
            }
            c.z_inf = z_inf;
            c.inner_in_outer = 0;
            c.outer_done += 1;
            if c.z_inf <= params.eps_outer {
                c.status = AdmmStatus::Converged;
                finished[s] = true;
            } else {
                lambda_mask[s] = true;
            }
        }
        if lambda_mask.iter().any(|&b| b) {
            let cons = st.cons.as_slice();
            let slots = ctl.as_slice();
            device.launch_map_segments("lambda_update", &mut st.lam, m, lambda_mask, {
                move |s, k, lk| kernels::lambda_element(cons[s * m + k].z, slots[s].beta, lk)
            });
            for (s, c) in ctl.iter_mut().enumerate() {
                if !lambda_mask[s] {
                    continue;
                }
                if c.z_inf > Z_DECREASE_FACTOR * c.z_inf_prev {
                    c.beta *= params.beta_factor;
                }
                c.z_inf_prev = c.z_inf;
                if c.outer_done >= params.max_outer {
                    finished[s] = true;
                }
            }
        }
        finished
    }

    fn extract(&self, shard: &mut AdmmShard, slot: usize, scenario: usize) -> ScenarioResult {
        extract_slot(
            &shard.st,
            slot,
            &self.nets[scenario],
            &shard.ctl[slot],
            self.problem,
        )
    }

    /// Seed the scenario from its store hit, else the run's shared warm
    /// state, else cold, and upload its segment with one ranged upload per
    /// live buffer. (`u` is written whole by the slot's first generator and
    /// branch launches before anything reads it.) The seed changes the
    /// starting point, not the iteration budget: only β resumes the seed's
    /// schedule, along with its multipliers.
    fn admit(
        &self,
        shard: &mut AdmmShard,
        slot: usize,
        admission: &Admission<'_, WarmState>,
    ) -> bool {
        let problem = self.problem;
        let (ngen, nbranch, nbus, m) = (problem.ngen, problem.nbranch, problem.nbus, problem.m);
        let idx = admission.scenario;
        let seed = admission.hit.as_ref().map(Hit::payload).or(self.warm);
        let seg = init_segment(&self.nets[idx], &problem.data[idx], problem, seed);
        let st = &mut shard.st;
        st.gens.upload_range(slot * ngen, &seg.gens);
        st.branches.upload_range(slot * nbranch, &seg.branches);
        st.buses.upload_range(slot * nbus, &seg.buses);
        st.cons.upload_range(slot * m, &seg.cons);
        st.lam.upload_range(slot * m, &seg.lam);
        shard.slot_data[slot] = problem.data[idx].clone();
        shard.ctl[slot] = ScenCtl {
            beta: seed.map_or(BETA_INIT, |w| w.beta),
            ..ScenCtl::fresh()
        };
        admission.hit.is_some()
    }

    fn commit(&self, result: &ScenarioResult) -> Option<WarmState> {
        (result.status == AdmmStatus::Converged).then(|| result.warm_state.clone())
    }
}

/// Host-side initial state of one scenario: cold start (midpoints of
/// bounds, zero angles, flows from the initial voltages — Section IV-B) or
/// the given warm state, with `v` scattered from the bus states.
pub(crate) fn init_segment(
    net: &Network,
    data: &ScenarioData,
    problem: &ScenarioProblem,
    warm: Option<&WarmState>,
) -> SegmentHost {
    let m = problem.m;
    let (gens, branches, mut buses, y, lam, z) = match warm {
        Some(w) => {
            let (gens, branches, buses) = kernels::warm_states(net, w);
            (
                gens,
                branches,
                buses,
                w.y.clone(),
                w.lam.clone(),
                w.z.clone(),
            )
        }
        None => {
            let gens: Vec<GenState> = data.gens.iter().map(kernels::cold_gen_state).collect();
            let branches: Vec<BranchState> = data
                .branches
                .iter()
                .map(kernels::cold_branch_state)
                .collect();
            let buses: Vec<BusState> = (0..problem.nbus)
                .map(|b| {
                    kernels::cold_bus_state(
                        net.vmin[b],
                        net.vmax[b],
                        problem.layout.bus_plans[b].num_copies,
                    )
                })
                .collect();
            (
                gens,
                branches,
                buses,
                vec![0.0; m],
                vec![0.0; m],
                vec![0.0; m],
            )
        }
    };
    if warm.is_none() {
        // Seed the bus copies from the consistent component values so a
        // cold start begins from consensus agreement.
        let u: Vec<f64> = (gens.iter().flat_map(kernels::gen_u))
            .chain(branches.iter().flat_map(kernels::branch_u))
            .collect();
        for (b, bus) in buses.iter_mut().enumerate() {
            kernels::seed_bus_copies(&data.buses[b], &u, bus);
        }
    }
    let cons = (0..m)
        .map(|k| {
            let (bus, slot) = problem.vplan[k];
            ConsensusState {
                v: kernels::v_element(&buses[bus], slot),
                z: z[k],
                y: y[k],
            }
        })
        .collect();
    SegmentHost {
        gens,
        branches,
        buses,
        cons,
        lam,
    }
}

/// Extract slot `s`'s finished scenario: one ranged device-to-host read per
/// result-bearing buffer, and per result-bearing field of `cons`.
fn extract_slot(
    st: &SlotState,
    s: usize,
    net: &Network,
    ctl: &ScenCtl,
    problem: &ScenarioProblem,
) -> ScenarioResult {
    let (ngen, nbranch, nbus, m) = (problem.ngen, problem.nbranch, problem.nbus, problem.m);
    let gens = st.gens.to_host_range(s * ngen, ngen);
    let branches = st.branches.to_host_range(s * nbranch, nbranch);
    let buses = st.buses.to_host_range(s * nbus, nbus);
    let y = st.cons.to_host_range_with(s * m, m, |c| c.y);
    let lam = st.lam.to_host_range(s * m, m);
    let z = st.cons.to_host_range_with(s * m, m, |c| c.z);
    let (solution, warm_state) =
        kernels::extract_segment(&gens, &branches, &buses, &y, &lam, &z, ctl.beta);
    let quality = SolutionQuality::evaluate(net, &solution);
    ScenarioResult {
        name: net.name.clone(),
        objective: solution.objective(net),
        quality,
        solution,
        status: ctl.status,
        inner_iterations: ctl.total_inner,
        outer_iterations: ctl.outer_done,
        z_inf: ctl.z_inf,
        primal_residual: ctl.primres,
        warm_state,
    }
}

/// One batched inner iteration over every active slot: the four kernel
/// launches of Algorithm 1's lines 3–6, each spanning `L × n` elements.
/// The generator and branch launches write each component's entries of `u`
/// as they compute them, and one consensus pass after the bus update
/// writes `v`, `z` and `y`. Each kernel reads its slot's data and segments
/// by the slot its launch hands it, the penalties ρ from the problem and β
/// from its slot's control state. Returns, per slot, the primal residual
/// `‖u − v + z‖∞`, the dual residual `‖ρ (z − z_old)‖∞` and `‖z‖∞` (NaN
/// for an inactive slot).
fn tick(
    device: &Device,
    st: &mut SlotState,
    problem: &ScenarioProblem,
    slot_data: &[ScenarioData],
    tron: &TronSolver,
    active: &[bool],
    ctl: &[ScenCtl],
) -> Vec<[f64; 3]> {
    let (ngen, nbranch, nbus, m) = (problem.ngen, problem.nbranch, problem.nbus, problem.m);
    let rho = problem.rho.as_slice();
    // x block: generators and branches, each writing its window of `u`.
    {
        let cons = st.cons.as_slice();
        let windows = Windows {
            seg_len: m,
            offset: 0,
            width: 2,
        };
        device.launch_blocks_segments(
            "generator_update",
            &mut st.gens,
            ngen,
            active,
            1,
            &mut st.u,
            windows,
            move |s, g, state, u| {
                let cons = &cons[s * m..(s + 1) * m];
                kernels::generator_element(&slot_data[s].gens[g], cons, rho, &mut state[0]);
                u.copy_from_slice(&kernels::gen_u(&state[0]));
            },
        );
        let windows = Windows {
            seg_len: m,
            offset: 2 * ngen,
            width: 8,
        };
        // Groups of up to LANES branches of one segment, solved in lock-step.
        device.launch_blocks_segments(
            "branch_tron",
            &mut st.branches,
            nbranch,
            active,
            LANES,
            &mut st.u,
            windows,
            move |s, first, states, u| {
                let d = &slot_data[s].branches[first..first + states.len()];
                let cons = &cons[s * m..(s + 1) * m];
                kernels::branch_group(d, cons, rho, tron, states, u)
            },
        );
    }
    // x̄ block: buses.
    {
        let u = st.u.as_slice();
        let cons = st.cons.as_slice();
        device.launch_map_segments("bus_update", &mut st.buses, nbus, active, {
            move |s, b, state| {
                let slot = s * m..(s + 1) * m;
                let (u, cons) = (&u[slot.clone()], &cons[slot]);
                kernels::bus_element(&slot_data[s].buses[b], u, cons, rho, state)
            }
        });
    }
    // The consensus pass: v from the buses, then the z and multiplier
    // updates, scoring both residuals and ‖z‖∞ on the way.
    let buses = st.buses.as_slice();
    let vplan = problem.vplan.as_slice();
    let u = st.u.as_slice();
    let lam = st.lam.as_slice();
    device.launch_map_segments_max("z_update", &mut st.cons, m, active, move |s, k, c| {
        let (bus, slot) = vplan[k];
        let v = kernels::v_element(&buses[s * nbus + bus], slot);
        let i = s * m + k;
        kernels::consensus_element(u[i], v, lam[i], rho[k], ctl[s].beta, c)
    })
}
