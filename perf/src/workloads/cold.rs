//! `cold` — time-to-solution from a cold start (the paper's Table II).
//!
//! One `AdmmSolver::solve` at `AdmmParams::default()` on the WSCC 9-bus case
//! with loads perturbed ±0.5 % by the seed. One long solve is almost
//! entirely `branch_tron` launches, and the workload never touches
//! ipm/sparse/store/screen/serve, so a change there predicts no movement
//! here. The reference objective comes from the interior-point solver.

use super::{device_layer, Fingerprint, Limits};
use crate::harness::{Check, OpKind, Round, Workload};
use crate::probes;
use crate::trace::Recorder;
use gridsim_acopf::violations::{relative_gap, SolutionQuality};
use gridsim_admm::{AdmmParams, AdmmSolver, AdmmStatus};
use gridsim_batch::Device;
use gridsim_grid::matpower::{parse_case, write_case};
use gridsim_grid::ScenarioSet;
use gridsim_ipm::{AcopfNlp, IpmOptions, IpmSolver};
use std::time::Instant;

pub struct Cold {
    /// The generated input: a MATPOWER case file.
    text: String,
    params: AdmmParams,
    limits: Limits,
    smoke: bool,
    /// Interior-point objective of the same network (set by the warm-up).
    reference: Option<f64>,
    quality: (f64, f64),
}

impl Cold {
    pub fn new(seed: u64, smoke: bool) -> Cold {
        let (base, params, limits) = if smoke {
            let params = AdmmParams {
                max_outer: 2,
                max_inner: 25,
                ..AdmmParams::test_profile()
            };
            (gridsim_grid::case5(), params, Limits::SMOKE)
        } else {
            let limits = Limits {
                converged: true,
                violation: 5e-3,
                gap: 1e-2,
            };
            (gridsim_grid::case9(), AdmmParams::default(), limits)
        };
        let case = ScenarioSet::perturbed_loads(base, 1, 0.005, seed)
            .cases()
            .remove(0);
        Cold {
            text: write_case(&case),
            params,
            limits,
            smoke,
            reference: None,
            quality: (f64::NAN, f64::NAN),
        }
    }
}

impl Workload for Cold {
    fn round(&mut self, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        let (net, solver) = round.prep(rec, |rec, _| {
            let case = rec
                .span("grid.parse", |_| parse_case(&self.text, "cold"))
                .expect("generated MATPOWER text parses");
            let net = rec
                .span("grid.compile", |_| case.compile())
                .expect("generated case compiles");
            let solver = AdmmSolver::with_device(self.params.clone(), Device::vectorized());
            (net, solver)
        });

        let reference = *self.reference.get_or_insert_with(|| {
            IpmSolver::new(IpmOptions::default())
                .with_device(Device::vectorized())
                .solve(&AcopfNlp::new(&net))
                .objective
        });

        let limits = self.limits;
        let (result, wall) = round.op(rec, "solve", OpKind::Principal, |rec| {
            let start = Instant::now();
            let r = rec.span("admm.solve", |_| solver.solve(&net));
            let wall = start.elapsed().as_secs_f64();
            // Output check: the reported quality is what an independent
            // evaluation of the returned operating point gives.
            let q = rec.span("acopf.evaluate", |_| {
                SolutionQuality::evaluate(&net, &r.solution)
            });
            let gap = relative_gap(r.objective, reference);
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
            (check, (r, wall))
        });
        self.quality = (
            result.quality.max_violation(),
            relative_gap(result.objective, reference),
        );

        if rec.enabled() {
            device_layer(&solver.device.stats().snapshot(), wall, &mut round.layer);
            round.layer.extend([
                ("grid.scenarios", 1.0),
                ("admm.inner_iters", result.inner_iterations as f64),
                ("admm.outer_iters", result.outer_iterations as f64),
            ]);
        }
        round
    }

    fn quality(&self) -> (f64, f64) {
        self.quality
    }

    /// The batch and tron layers with no ADMM control loop around them, and
    /// the wide-launch scaling probes (`cold` is the workload whose
    /// `round_s` these layers decide).
    fn probes(&mut self) -> Vec<Vec<(&'static str, f64)>> {
        let mut out = probes::launch_overhead(self.smoke);
        out.extend(probes::tron_batch(self.smoke));
        out.extend(probes::wide_launch(self.smoke));
        vec![out]
    }
}
