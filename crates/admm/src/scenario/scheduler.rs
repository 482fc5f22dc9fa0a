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
//!   lanes, built with one bulk upload per buffer,
//! * **step** — one batched inner iteration over every active lane (the
//!   eight kernel launches of Algorithm 1's lines 3–6 spanning `L × n`
//!   elements) plus the per-lane inner/outer control that decides which
//!   lanes finished,
//! * **admit / extract** — ranged uploads into a freed slot's buffer
//!   segments, ranged reads out of a finished slot's.
//!
//! Because every scenario's iterates depend only on its own buffer segment
//! and control state, the per-scenario results are **bitwise identical**
//! for *any* device count, lane count, and admission order — in particular
//! equal to the K-scenarios-on-one-device, all-admitted-at-once run of the
//! same scenarios. The property suite asserts exactly that.

use super::problem::{ScenarioData, ScenarioProblem};
use super::{ScenarioBatchResult, ScenarioResult};
use crate::kernels::{self, AlmSettings, BranchState, BusState, GenState};
use crate::params::AdmmParams;
use crate::solver::{AdmmStatus, WarmState};
use gridsim_acopf::start::ramp_limited_bounds;
use gridsim_acopf::violations::SolutionQuality;
use gridsim_batch::{Device, DeviceBuffer, DeviceConfig, DevicePool};
use gridsim_engine::{Engine, FleetRequest, LaneSolver, StoreAccess};
use gridsim_grid::fingerprint::ScenarioFingerprint;
use gridsim_grid::network::Network;
use gridsim_store::{StoreRunStats, StoreView};
use gridsim_tron::TronSolver;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    fn fresh(params: &AdmmParams) -> ScenCtl {
        ScenCtl {
            beta: params.beta_init,
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

/// Slot-major device state of one shard.
struct SlotState {
    gens: DeviceBuffer<GenState>,
    branches: DeviceBuffer<BranchState>,
    buses: DeviceBuffer<BusState>,
    u: DeviceBuffer<f64>,
    v: DeviceBuffer<f64>,
    z: DeviceBuffer<f64>,
    z_prev: DeviceBuffer<f64>,
    y: DeviceBuffer<f64>,
    lam: DeviceBuffer<f64>,
    rho: DeviceBuffer<f64>,
}

/// Host-side initial state of one scenario segment.
pub(crate) struct SegmentHost {
    pub(crate) gens: Vec<GenState>,
    pub(crate) branches: Vec<BranchState>,
    pub(crate) buses: Vec<BusState>,
    pub(crate) u: Vec<f64>,
    pub(crate) v: Vec<f64>,
    pub(crate) z: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) lam: Vec<f64>,
}

/// Precomputed element-index → owning-slot lookup tables, one per buffer
/// geometry. The tick closures run over global slot-major indices; a `u32`
/// load here replaces a per-element integer division (which adds up across
/// the ~10⁹ cheap kernel elements of a large solve), and the looked-up
/// value is the same integer the division would produce, so results are
/// unchanged bitwise.
struct SegMaps {
    gen: Vec<u32>,
    branch: Vec<u32>,
    bus: Vec<u32>,
    cons: Vec<u32>,
}

impl SegMaps {
    fn build(ll: usize, problem: &ScenarioProblem) -> SegMaps {
        let seg_of = |n: usize| (0..ll * n).map(|i| (i / n) as u32).collect();
        SegMaps {
            gen: seg_of(problem.ngen),
            branch: seg_of(problem.nbranch),
            bus: seg_of(problem.nbus),
            cons: seg_of(problem.m),
        }
    }
}

/// The multi-device scenario execution front end for the ADMM fleet.
#[derive(Debug, Clone)]
pub struct ScenarioScheduler {
    /// Algorithm parameters (shared by every scenario).
    pub params: AdmmParams,
    /// The device pool scenarios are sharded across.
    pub pool: DevicePool,
    lanes_per_device: Option<usize>,
}

impl ScenarioScheduler {
    /// A scheduler on the environment-selected pool (`GRIDSIM_DEVICES`
    /// logical parallel devices, default 1).
    pub fn new(params: AdmmParams) -> Self {
        Self::with_pool(params, DevicePool::from_env())
    }

    /// A scheduler on a specific device pool.
    pub fn with_pool(params: AdmmParams, pool: DevicePool) -> Self {
        ScenarioScheduler {
            params,
            pool,
            lanes_per_device: None,
        }
    }

    /// Cap the number of concurrent scenario slots per device. With fewer
    /// lanes than scenarios per shard, the scheduler streams: finished
    /// slots are refilled from the pending queue. Without a cap (the
    /// default) each device admits its whole shard at once.
    pub fn with_lanes(mut self, lanes_per_device: usize) -> Self {
        assert!(lanes_per_device >= 1, "need at least one lane");
        self.lanes_per_device = Some(lanes_per_device);
        self
    }

    /// The configured lane cap, if any.
    pub fn lanes_per_device(&self) -> Option<usize> {
        self.lanes_per_device
    }

    /// Solve one [`FleetRequest`]. Networks must share the first one's
    /// dimensions and topology (panics otherwise); results are in input
    /// order and bitwise independent of the device/lane configuration.
    ///
    /// With a [`StoreAccess::Live`] binding, every admission (initial and
    /// streamed) consults the store and, on a hit, re-seeds its slot from
    /// the nearest stored [`WarmState`] instead of the cold start; every
    /// converged scenario is committed back under the request's case id
    /// after the run. Determinism: lookups go against a [`StoreView`]
    /// snapshot frozen before the run (this run's own results are invisible
    /// to its own lookups) and inserts commit in input order afterwards, so
    /// — like every other path through this scheduler — both the results
    /// and the post-run store contents are bitwise independent of the
    /// device count, lane cap, and launch backend. With an empty store
    /// every lookup misses and the run is bitwise identical to a store-less
    /// request. A [`StoreAccess::Snapshot`] binding does the lookup side
    /// only: nothing is committed, the caller owns the write side.
    ///
    /// A [`FleetRequest::mode`] override rebuilds this scheduler's devices
    /// on the requested backend (same device count and lane cap) for this
    /// run.
    pub fn run(&self, request: FleetRequest<'_, WarmState>) -> ScenarioBatchResult {
        let nets = request.nets;
        let pool = match request.mode {
            Some(mode) => DevicePool::new(self.pool.len(), DeviceConfig::with_mode(mode)),
            None => self.pool.clone(),
        };
        let case_id = request.store_case_id();
        match request.store {
            StoreAccess::None => self.execute(&pool, nets, None, None, None),
            StoreAccess::Snapshot(view) => {
                let fps: Vec<ScenarioFingerprint> =
                    nets.iter().map(ScenarioFingerprint::of_network).collect();
                self.execute(
                    &pool,
                    nets,
                    None,
                    None,
                    Some((case_id.expect("store_case_id checked"), view, &fps)),
                )
            }
            StoreAccess::Live(store) => {
                let case_id = case_id.expect("store_case_id checked");
                let fps: Vec<ScenarioFingerprint> =
                    nets.iter().map(ScenarioFingerprint::of_network).collect();
                let view = store.view();
                let mut result =
                    self.execute(&pool, nets, None, None, Some((case_id, &view, &fps)));
                // Commit converged scenarios back in input order:
                // deterministic store contents regardless of
                // device/lane/thread scheduling.
                for (fp, r) in fps.iter().zip(&result.results) {
                    if r.status == AdmmStatus::Converged {
                        store.insert(case_id, fp, r.warm_state.clone());
                        result.store.inserts += 1;
                    }
                }
                result
            }
        }
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
        self.execute(&self.pool, nets, Some(warm), pg_bounds, None)
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

    /// Drive the engine over `nets` on `pool`, with lookups against the
    /// frozen view when present. Commits nothing. Every ADMM solve in the
    /// crate — the fleet and the K=1 [`crate::solver::AdmmSolver`] — comes
    /// through here.
    pub(crate) fn execute(
        &self,
        pool: &DevicePool,
        nets: &[Network],
        warm: Option<&WarmState>,
        pg_bounds: Option<&[(Vec<f64>, Vec<f64>)]>,
        lookup: Option<(&str, &StoreView<WarmState>, &[ScenarioFingerprint])>,
    ) -> ScenarioBatchResult {
        let start_time = Instant::now();
        // The step loop performs one inner iteration per round before it
        // checks the caps, so zero-iteration budgets cannot be honored.
        assert!(
            self.params.max_inner >= 1 && self.params.max_outer >= 1,
            "AdmmParams needs max_inner >= 1 and max_outer >= 1"
        );
        let problem = ScenarioProblem::build(nets, &self.params, pg_bounds);
        let fleet = AdmmFleet {
            params: &self.params,
            problem: &problem,
            nets,
            warm,
            tron: TronSolver::new(self.params.tron.clone()),
            alm: AlmSettings::from_params(&self.params),
            store: lookup.map(|(case_id, view, fps)| AdmmStoreBinding {
                case_id,
                view,
                fps,
                hits: AtomicUsize::new(0),
                misses: AtomicUsize::new(0),
            }),
        };
        let mut engine = Engine::with_pool(pool.clone());
        if let Some(l) = self.lanes_per_device {
            engine = engine.with_lanes(l);
        }
        let run = engine.run(&fleet, nets.len());
        let mut stats = StoreRunStats::default();
        if let Some(binding) = &fleet.store {
            stats.hits = binding.hits.load(Ordering::Relaxed);
            stats.misses = binding.misses.load(Ordering::Relaxed);
        }
        ScenarioBatchResult {
            results: run.outputs,
            solve_time: start_time.elapsed(),
            ticks: run.ticks,
            store: stats,
        }
    }
}

/// The store side of one fleet run: the frozen lookup snapshot, the
/// scenarios' fingerprints, and the run's traffic counters (atomics: shards
/// on different devices admit concurrently, and sums are order-independent
/// so the totals stay deterministic).
struct AdmmStoreBinding<'a> {
    case_id: &'a str,
    view: &'a StoreView<WarmState>,
    fps: &'a [ScenarioFingerprint],
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// The ADMM scenario fleet: one borrowed problem/parameter view driving
/// every shard the engine opens.
struct AdmmFleet<'a> {
    params: &'a AdmmParams,
    problem: &'a ScenarioProblem,
    nets: &'a [Network],
    warm: Option<&'a WarmState>,
    tron: TronSolver,
    alm: AlmSettings,
    store: Option<AdmmStoreBinding<'a>>,
}

/// One device's shard: slot-major buffers plus per-lane control state.
struct AdmmShard {
    device: Device,
    st: SlotState,
    ctl: Vec<ScenCtl>,
    slot_data: Vec<ScenarioData>,
    segs: SegMaps,
    ll: usize,
}

impl AdmmFleet<'_> {
    /// Fresh per-slot control state. When the whole run is seeded from a
    /// shared warm state, new slots resume its β schedule.
    fn fresh_ctl(&self) -> ScenCtl {
        let mut ctl = ScenCtl::fresh(self.params);
        if let Some(w) = self.warm {
            ctl.beta = w.beta;
        }
        ctl
    }
}

impl LaneSolver for AdmmFleet<'_> {
    type Shard = AdmmShard;
    type Output = ScenarioResult;

    fn open_shard(&self, device: &Device, initial: &[usize]) -> AdmmShard {
        let problem = self.problem;
        let (ngen, nbranch, nbus, m) = (problem.ngen, problem.nbranch, problem.nbus, problem.m);
        let ll = initial.len();
        let stats = device.stats().clone();

        // Fill the initial lanes host-side, then create the slot-major
        // buffers with one bulk upload each.
        let mut gen_host: Vec<GenState> = Vec::with_capacity(ll * ngen);
        let mut branch_host: Vec<BranchState> = Vec::with_capacity(ll * nbranch);
        let mut bus_host: Vec<BusState> = Vec::with_capacity(ll * nbus);
        let mut u_host = Vec::with_capacity(ll * m);
        let mut v_host = Vec::with_capacity(ll * m);
        let mut z_host = Vec::with_capacity(ll * m);
        let mut y_host = Vec::with_capacity(ll * m);
        let mut lam_host = Vec::with_capacity(ll * m);
        let mut rho_host = Vec::with_capacity(ll * m);
        for &idx in initial {
            let seg = init_segment(&self.nets[idx], &problem.data[idx], problem, self.warm);
            gen_host.extend(seg.gens);
            branch_host.extend(seg.branches);
            bus_host.extend(seg.buses);
            u_host.extend(seg.u);
            v_host.extend(seg.v);
            z_host.extend(seg.z);
            y_host.extend(seg.y);
            lam_host.extend(seg.lam);
            rho_host.extend_from_slice(&problem.rho);
        }
        let st = SlotState {
            gens: DeviceBuffer::from_host(stats.clone(), &gen_host),
            branches: DeviceBuffer::from_host(stats.clone(), &branch_host),
            buses: DeviceBuffer::from_host(stats.clone(), &bus_host),
            u: DeviceBuffer::from_host(stats.clone(), &u_host),
            v: DeviceBuffer::from_host(stats.clone(), &v_host),
            z: DeviceBuffer::from_host(stats.clone(), &z_host),
            z_prev: DeviceBuffer::zeroed(stats.clone(), ll * m),
            y: DeviceBuffer::from_host(stats.clone(), &y_host),
            lam: DeviceBuffer::from_host(stats.clone(), &lam_host),
            rho: DeviceBuffer::from_host(stats, &rho_host),
        };
        AdmmShard {
            device: device.clone(),
            st,
            ctl: (0..ll).map(|_| self.fresh_ctl()).collect(),
            slot_data: initial.iter().map(|&i| problem.data[i].clone()).collect(),
            segs: SegMaps::build(ll, problem),
            ll,
        }
    }

    fn step(&self, shard: &mut AdmmShard, active: &[bool]) -> Vec<bool> {
        let params = self.params;
        let m = self.problem.m;
        let ll = shard.ll;
        tick(
            &shard.device,
            &mut shard.st,
            self.problem,
            &shard.slot_data,
            &shard.segs,
            &self.tron,
            &self.alm,
            active,
            &shard.ctl,
        );
        let (device, st, ctl, segs) = (&shard.device, &shard.st, &mut shard.ctl, &shard.segs);

        // Residuals, per slot.
        let prim = device.reduce_max_segments("primal_residual", &st.z, m, active, {
            let u = st.u.as_slice();
            let v = st.v.as_slice();
            move |k, zk| (u[k] - v[k] + zk).abs()
        });
        let dual = device.reduce_max_segments("dual_residual", &st.z, m, active, {
            let zp = st.z_prev.as_slice();
            let rho = st.rho.as_slice();
            move |k, zk| (rho[k] * (zk - zp[k])).abs()
        });

        // Per-slot control: inner bookkeeping, outer boundaries.
        let mut boundary = vec![false; ll];
        for s in 0..ll {
            if !active[s] {
                continue;
            }
            let c = &mut ctl[s];
            c.total_inner += 1;
            c.inner_in_outer += 1;
            c.primres = prim[s];
            let inner_converged = prim[s] <= params.eps_inner && dual[s] <= params.eps_inner;
            if inner_converged || c.inner_in_outer >= params.max_inner {
                boundary[s] = true;
            }
        }
        let mut finished = vec![false; ll];
        if !boundary.iter().any(|&b| b) {
            return finished;
        }

        // Outer-level update and termination for slots at a boundary.
        let z_inf = device.reduce_max_segments("z_norm", &st.z, m, &boundary, |_, zk| zk.abs());
        let mut lambda_mask = vec![false; ll];
        for s in 0..ll {
            if !boundary[s] {
                continue;
            }
            let c = &mut ctl[s];
            c.z_inf = z_inf[s];
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
            let betas: Vec<f64> = ctl.iter().map(|c| c.beta).collect();
            let bound = params.lambda_bound;
            let z = shard.st.z.as_slice();
            let cons = segs.cons.as_slice();
            device.launch_map_segments("lambda_update", &mut shard.st.lam, m, &lambda_mask, {
                move |k, lk| kernels::lambda_element(z[k], betas[cons[k] as usize], bound, lk)
            });
            for s in 0..ll {
                if !lambda_mask[s] {
                    continue;
                }
                let c = &mut ctl[s];
                if c.z_inf > params.z_decrease_factor * c.z_inf_prev {
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

    fn admit(&self, shard: &mut AdmmShard, slot: usize, scenario: usize) {
        let seg = init_segment(
            &self.nets[scenario],
            &self.problem.data[scenario],
            self.problem,
            self.warm,
        );
        admit_into_slot(&mut shard.st, slot, &seg, self.problem);
        shard.slot_data[slot] = self.problem.data[scenario].clone();
        shard.ctl[slot] = self.fresh_ctl();
    }

    fn on_admit(&self, shard: &mut AdmmShard, slot: usize, scenario: usize) {
        let Some(binding) = &self.store else {
            return;
        };
        match binding
            .view
            .nearest(binding.case_id, &binding.fps[scenario])
        {
            Some(hit) => {
                // Rebuild the slot's segment from the stored warm state and
                // replace the cold/shared-warm seed with a ranged re-upload.
                // Control state stays fresh (the hit changes the starting
                // point, not the iteration budget) except for β, which
                // resumes the stored schedule along with the multipliers.
                let seg = init_segment(
                    &self.nets[scenario],
                    &self.problem.data[scenario],
                    self.problem,
                    Some(&hit.entry.payload),
                );
                admit_into_slot(&mut shard.st, slot, &seg, self.problem);
                shard.ctl[slot].beta = hit.entry.payload.beta;
                binding.hits.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                binding.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Host-side initial state of one scenario: cold start (midpoints of
/// bounds, zero angles, flows from the initial voltages — Section IV-B) or
/// the given warm state, with `u`/`v` scattered from the component states.
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
    let mut u = vec![0.0f64; m];
    for (k, uk) in u.iter_mut().enumerate() {
        *uk = kernels::u_element(k, problem.ngen, &gens, &branches);
    }
    if warm.is_none() {
        // Seed the bus copies from the consistent component values so a
        // cold start begins from consensus agreement.
        for (b, bus) in buses.iter_mut().enumerate() {
            kernels::seed_bus_copies(&data.buses[b], &u, bus);
        }
    }
    let mut v = vec![0.0f64; m];
    for (k, vk) in v.iter_mut().enumerate() {
        let (bus, slot) = problem.vplan[k];
        *vk = kernels::v_element(&buses[bus], slot);
    }
    SegmentHost {
        gens,
        branches,
        buses,
        u,
        v,
        z,
        y,
        lam,
    }
}

/// Admit a scenario into slot `s` of an existing shard state: one ranged
/// host-to-device upload per live buffer. (`rho` is layout-derived and
/// identical for every scenario; `z_prev` is overwritten from `z` on the
/// slot's first tick before any read.)
fn admit_into_slot(st: &mut SlotState, s: usize, seg: &SegmentHost, problem: &ScenarioProblem) {
    let (ngen, nbranch, nbus, m) = (problem.ngen, problem.nbranch, problem.nbus, problem.m);
    st.gens.upload_range(s * ngen, &seg.gens);
    st.branches.upload_range(s * nbranch, &seg.branches);
    st.buses.upload_range(s * nbus, &seg.buses);
    st.u.upload_range(s * m, &seg.u);
    st.v.upload_range(s * m, &seg.v);
    st.z.upload_range(s * m, &seg.z);
    st.y.upload_range(s * m, &seg.y);
    st.lam.upload_range(s * m, &seg.lam);
}

/// Extract slot `s`'s finished scenario: one ranged device-to-host read per
/// result-bearing buffer.
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
    let y = st.y.to_host_range(s * m, m);
    let lam = st.lam.to_host_range(s * m, m);
    let z = st.z.to_host_range(s * m, m);
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

/// One batched inner iteration over every active slot: the eight kernel
/// launches of Algorithm 1's lines 3–6, each spanning `L × n` elements.
#[allow(clippy::too_many_arguments)]
fn tick(
    device: &Device,
    st: &mut SlotState,
    problem: &ScenarioProblem,
    slot_data: &[ScenarioData],
    segs: &SegMaps,
    tron: &TronSolver,
    alm: &AlmSettings,
    active: &[bool],
    ctl: &[ScenCtl],
) {
    let (ngen, nbranch, nbus, m) = (problem.ngen, problem.nbranch, problem.nbus, problem.m);
    // x block: generators and branches.
    {
        let v = st.v.as_slice();
        let z = st.z.as_slice();
        let y = st.y.as_slice();
        let rho = st.rho.as_slice();
        let gen_seg = segs.gen.as_slice();
        device.launch_map_segments("generator_update", &mut st.gens, ngen, active, {
            move |g, state| {
                let s = gen_seg[g] as usize;
                kernels::generator_element(
                    &slot_data[s].gens[g - s * ngen],
                    s * m,
                    v,
                    z,
                    y,
                    rho,
                    state,
                )
            }
        });
        let branch_seg = segs.branch.as_slice();
        device.launch_blocks_segments("branch_tron", &mut st.branches, nbranch, active, {
            move |l, state| {
                let s = branch_seg[l] as usize;
                kernels::branch_element(
                    &slot_data[s].branches[l - s * nbranch],
                    s * m,
                    v,
                    z,
                    y,
                    rho,
                    tron,
                    alm,
                    state,
                )
            }
        });
    }
    {
        let gens = st.gens.as_slice();
        let branches = st.branches.as_slice();
        let cons = segs.cons.as_slice();
        device.launch_map_segments("u_scatter", &mut st.u, m, active, move |k, uk| {
            let s = cons[k] as usize;
            *uk = kernels::u_element(
                k - s * m,
                ngen,
                &gens[s * ngen..(s + 1) * ngen],
                &branches[s * nbranch..(s + 1) * nbranch],
            );
        });
    }
    // x̄ block: buses.
    {
        let u = st.u.as_slice();
        let z = st.z.as_slice();
        let y = st.y.as_slice();
        let rho = st.rho.as_slice();
        let bus_seg = segs.bus.as_slice();
        device.launch_map_segments("bus_update", &mut st.buses, nbus, active, {
            move |b, state| {
                let s = bus_seg[b] as usize;
                kernels::bus_element(
                    &slot_data[s].buses[b - s * nbus],
                    s * m,
                    u,
                    z,
                    y,
                    rho,
                    state,
                )
            }
        });
    }
    {
        let buses = st.buses.as_slice();
        let vplan = problem.vplan.as_slice();
        let cons = segs.cons.as_slice();
        device.launch_map_segments("v_scatter", &mut st.v, m, active, move |k, vk| {
            let s = cons[k] as usize;
            let (bus, slot) = vplan[k - s * m];
            *vk = kernels::v_element(&buses[s * nbus + bus], slot);
        });
    }
    // z and multiplier updates.
    {
        // Device-side copy of the active segments (not a billed launch).
        let z = st.z.as_slice();
        let zp = st.z_prev.as_mut_slice();
        for (s, &a) in active.iter().enumerate() {
            if a {
                zp[s * m..(s + 1) * m].copy_from_slice(&z[s * m..(s + 1) * m]);
            }
        }
    }
    {
        let betas: Vec<f64> = ctl.iter().map(|c| c.beta).collect();
        let u = st.u.as_slice();
        let v = st.v.as_slice();
        let y = st.y.as_slice();
        let lam = st.lam.as_slice();
        let rho = st.rho.as_slice();
        let cons = segs.cons.as_slice();
        device.launch_map_segments("z_update", &mut st.z, m, active, move |k, zk| {
            *zk = kernels::z_element(k, u, v, y, lam, rho, betas[cons[k] as usize]);
        });
    }
    {
        let u = st.u.as_slice();
        let v = st.v.as_slice();
        let z = st.z.as_slice();
        let rho = st.rho.as_slice();
        device.launch_map_segments("y_update", &mut st.y, m, active, move |k, yk| {
            kernels::y_element(k, u, v, z, rho, yk);
        });
    }
}
