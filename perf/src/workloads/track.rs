//! `track` — per-period tracking time under load drift (the paper's Fig. 1).
//!
//! Fifteen warm-started periods of the 12-bus `Pegase1354` stand-in under
//! `LoadProfile::paper_window(seed, 16, 0.05)` with 2 % ramp limits. It uses
//! the admm layer differently from `cold`: many short warm solves whose
//! host-side per-solve work (layout and problem-data builds, state
//! initialisation, transfers, extraction) recurs every period, so a change
//! that helps long solves at the cost of per-solve set-up shows here. The
//! period-0 cold start is untimed set-up (`admm.cold_start_s`); references
//! are interior-point solves under the same ramp-limited bounds.

use super::{device_layer, Fingerprint, Limits};
use crate::harness::{Check, OpKind, Round, Workload};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use gridsim_acopf::start::ramp_limited_bounds;
use gridsim_acopf::violations::{relative_gap, SolutionQuality};
use gridsim_admm::{AdmmParams, AdmmResult, AdmmSolver, AdmmStatus};
use gridsim_batch::Device;
use gridsim_grid::matpower::{parse_case, write_case};
use gridsim_grid::{LoadProfile, TableICase};
use gridsim_ipm::{AcopfNlp, IpmOptions, IpmSolver};
use std::time::Instant;

/// Generator ramp limit per period, as a share of `pmax` (the paper's 2 %).
const RAMP_FRACTION: f64 = 0.02;

pub struct Track {
    /// The generated inputs: a MATPOWER case file and the load multipliers.
    text: String,
    multipliers: Vec<f64>,
    params: AdmmParams,
    limits: Limits,
    /// Period-0 cold-start result every round warm-starts from, and how
    /// long it took (set by the warm-up).
    start: Option<(AdmmResult, f64)>,
    /// Interior-point objective per warm period (set by the warm-up).
    references: Vec<f64>,
    quality: (f64, f64),
}

impl Track {
    pub fn new(seed: u64, smoke: bool) -> Track {
        let (case, periods, params, limits) = if smoke {
            let params = AdmmParams {
                max_outer: 2,
                max_inner: 25,
                ..AdmmParams::test_profile()
            };
            (gridsim_grid::case9(), 4, params, Limits::SMOKE)
        } else {
            let limits = Limits {
                converged: true,
                violation: 1e-2,
                gap: 1e-2,
            };
            let params = AdmmParams::for_case(TableICase::Pegase1354, 12);
            (TableICase::Pegase1354.scaled(12), 16, params, limits)
        };
        Track {
            text: write_case(&case),
            multipliers: LoadProfile::paper_window(seed, periods, 0.05).multipliers,
            params,
            limits,
            start: None,
            references: Vec::new(),
            quality: (f64::NAN, f64::NAN),
        }
    }
}

impl Workload for Track {
    fn round(&mut self, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        let (base, solver) = round.prep(rec, |rec, _| {
            let base = rec
                .span("grid.parse", |_| parse_case(&self.text, "track"))
                .expect("generated MATPOWER text parses");
            rec.span("grid.compile", |_| base.compile())
                .expect("generated case compiles");
            let solver = AdmmSolver::with_device(self.params.clone(), Device::vectorized());
            (base, solver)
        });

        let warmup = self.start.is_none();
        let (start, _) = self.start.get_or_insert_with(|| {
            let net0 = base
                .scale_load(self.multipliers[0])
                .compile()
                .expect("scaled case compiles");
            let t = Instant::now();
            let cold =
                AdmmSolver::with_device(self.params.clone(), Device::vectorized()).solve(&net0);
            (cold, t.elapsed().as_secs_f64())
        });

        let limits = self.limits;
        let mut previous: Option<AdmmResult> = None;
        let mut iterations = Vec::new();
        let mut outer_iterations = 0;
        let mut solve_wall = 0.0;
        let (mut worst_violation, mut worst_gap) = (0.0f64, 0.0f64);
        for (t, &multiplier) in self.multipliers.iter().enumerate().skip(1) {
            let prev = previous.as_ref().unwrap_or(start);
            let reference = self.references.get(t - 1).copied();
            let (result, net, bounds, wall) = round.op(rec, "period", OpKind::Principal, |rec| {
                let net = rec
                    .span("grid.compile", |_| base.scale_load(multiplier).compile())
                    .expect("scaled case compiles");
                let bounds = rec.span("acopf.ramp_bounds", |_| {
                    ramp_limited_bounds(&net, prev.warm_state.previous_pg(), RAMP_FRACTION)
                });
                let t0 = Instant::now();
                let r = rec.span("admm.solve", |_| {
                    solver.solve_warm(&net, &prev.warm_state, Some(bounds.clone()))
                });
                let wall = t0.elapsed().as_secs_f64();
                let q = rec.span("acopf.evaluate", |_| {
                    SolutionQuality::evaluate(&net, &r.solution)
                });
                // The warm-up has no reference yet; it is checked below.
                let gap = reference.map_or(0.0, |f| relative_gap(r.objective, f));
                let ok = q == r.quality
                    && limits.admits(r.status == AdmmStatus::Converged, q.max_violation(), gap);
                let fingerprint = Fingerprint::new()
                    .f64(r.objective)
                    .usize(r.inner_iterations)
                    .usize(r.outer_iterations)
                    .finish();
                let check = Check {
                    ok,
                    solves: 1,
                    fingerprint,
                };
                (check, (r, net, bounds, wall))
            });
            if warmup {
                let nlp = AcopfNlp::new(&net).with_pg_bounds(bounds.0, bounds.1);
                let ipm = IpmSolver::new(IpmOptions::default())
                    .with_device(Device::vectorized())
                    .solve(&nlp);
                self.references.push(ipm.objective);
            }
            worst_violation = worst_violation.max(result.quality.max_violation());
            worst_gap = worst_gap.max(relative_gap(result.objective, self.references[t - 1]));
            iterations.push(result.inner_iterations as f64);
            outer_iterations += result.outer_iterations;
            solve_wall += wall;
            previous = Some(result);
        }
        self.quality = (worst_violation, worst_gap);

        if rec.enabled() {
            let snap = solver.device.stats().snapshot();
            let busy = snap.kernel_elapsed().as_secs_f64();
            device_layer(&snap, solve_wall, &mut round.layer);
            round.layer.extend([
                ("grid.scenarios", iterations.len() as f64),
                ("admm.inner_iters", iterations.iter().sum()),
                ("admm.outer_iters", outer_iterations as f64),
                ("admm.iters_per_period_p50", median(&iterations)),
                ("admm.iters_per_period_max", percentile(&iterations, 100.0)),
                (
                    "admm.solve_overhead_ms",
                    (solve_wall - busy).max(0.0) * 1e3 / iterations.len() as f64,
                ),
            ]);
        }
        round
    }

    fn quality(&self) -> (f64, f64) {
        self.quality
    }

    fn probes(&mut self) -> Vec<Vec<(&'static str, f64)>> {
        let cold_start_s = self.start.as_ref().map_or(0.0, |s| s.1);
        vec![vec![("admm.cold_start_s", cold_start_s)]]
    }
}
