//! `ipm_fleet` — the interior-point fleet through a saved and reloaded store.
//!
//! Two generations of K load-perturbed scenarios of a `Pegase1354` stand-in
//! on a condensed-KKT `IpmFleetSolver` (one device, one lane). Generation A
//! runs against an empty store (the write side: K misses, K inserts), the
//! store is saved and loaded back, and generation B runs on the loaded
//! store (the read side: hits shorten its solves). It is the only workload
//! where ipm/sparse/store do the work and admm/tron do none: a TRON change
//! predicts no movement here, and an ordering, supernode, refactorisation
//! or store-format change moves only this. The reference is a store-less
//! cold fleet run of generation B.

use super::{device_layer, Fingerprint, Limits};
use crate::harness::{Check, OpKind, Round, Workload};
use crate::probes;
use crate::trace::Recorder;
use gridsim_acopf::violations::relative_gap;
use gridsim_batch::{Device, DevicePool};
use gridsim_engine::{Engine, FleetRequest};
use gridsim_grid::matpower::{parse_case, write_case};
use gridsim_grid::{Network, ScenarioSet, TableICase};
use gridsim_ipm::{FleetReport, IpmFleetSolver, IpmOptions, IpmWarmStart, KktStrategy};
use gridsim_store::SolutionStore;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Store group key of the workload's case.
const CASE_ID: &str = "ipm_fleet";
/// Relative load noise of both generations.
const SIGMA: f64 = 0.02;

pub struct IpmFleet {
    /// The generated input: a MATPOWER case file. The two generations are
    /// expanded from it with seeds `seed` and `seed + 1000`.
    text: String,
    seed: u64,
    k: usize,
    limits: Limits,
    smoke: bool,
    store_path: PathBuf,
    /// Store-less cold run of generation B (set by the warm-up).
    reference: Option<FleetReport>,
    /// Generation-A networks and the store they filled, kept from the most
    /// recent round for the one-off probes.
    last: Option<(Vec<Network>, SolutionStore<IpmWarmStart>)>,
    quality: (f64, f64),
}

impl IpmFleet {
    pub fn new(seed: u64, smoke: bool, scratch: &Path) -> IpmFleet {
        let (case, k, limits) = if smoke {
            (gridsim_grid::case9(), 2, Limits::SMOKE)
        } else {
            let limits = Limits {
                converged: true,
                violation: 1e-5,
                gap: 1e-5,
            };
            (TableICase::Pegase1354.scaled(200), 4, limits)
        };
        IpmFleet {
            text: write_case(&case),
            seed,
            k,
            limits,
            smoke,
            store_path: scratch.join("ipm_fleet-store.json"),
            reference: None,
            last: None,
            quality: (f64::NAN, f64::NAN),
        }
    }

    fn options() -> IpmOptions {
        IpmOptions {
            kkt_strategy: KktStrategy::Condensed,
            ..Default::default()
        }
    }
}

fn fleet_fingerprint(report: &FleetReport) -> u64 {
    let mut fp = Fingerprint::new()
        .usize(report.store.hits)
        .usize(report.store.misses)
        .usize(report.store.inserts);
    for r in &report.results {
        fp = fp.f64(r.report.objective).usize(r.report.iterations);
    }
    fp.finish()
}

impl Workload for IpmFleet {
    fn round(&mut self, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        let k = self.k;
        let (gen_a, gen_b, solver, pool) = round.prep(rec, |rec, _| {
            let case = rec
                .span("grid.parse", |_| parse_case(&self.text, CASE_ID))
                .expect("generated MATPOWER text parses");
            let (set_a, set_b) = rec.span("grid.expand", |_| {
                (
                    ScenarioSet::perturbed_loads(case.clone(), k, SIGMA, self.seed),
                    ScenarioSet::perturbed_loads(case.clone(), k, SIGMA, self.seed + 1000),
                )
            });
            let (gen_a, gen_b) = rec.span("grid.compile", |_| (set_a.networks(), set_b.networks()));
            let pool = DevicePool::single(Device::vectorized());
            let engine = Engine::with_pool(pool.clone()).with_lanes(1);
            let solver = IpmFleetSolver::with_engine(Self::options(), engine);
            let nets = (
                gen_a.expect("perturbed scenarios compile"),
                gen_b.expect("perturbed scenarios compile"),
            );
            (nets.0, nets.1, solver, pool)
        });

        let reference = self
            .reference
            .get_or_insert_with(|| solver.run(FleetRequest::over(&gen_b)));

        let limits = self.limits;
        let mut store: SolutionStore<IpmWarmStart> = SolutionStore::new();
        let mut ipm_wall = 0.0;
        let (report_a, wall) = round.op(rec, "run_a", OpKind::Principal, |rec| {
            let t = Instant::now();
            let report = rec.span("ipm.fleet", |_| {
                solver.run(FleetRequest::over(&gen_a).case(CASE_ID).store(&mut store))
            });
            let wall = t.elapsed().as_secs_f64();
            let ok = limits.admits(report.all_optimal(), report.worst_violation(), 0.0)
                && report.store.inserts == k
                && report.store.hits == 0;
            let check = Check {
                ok,
                solves: k,
                fingerprint: fleet_fingerprint(&report),
            };
            (check, (report, wall))
        });
        ipm_wall += wall;

        round.op(rec, "save", OpKind::Other, |rec| {
            let saved = rec.span("store.save", |_| store.save(&self.store_path));
            (Check::plain(saved.is_ok()), ())
        });
        let mut loaded = round.op(rec, "load", OpKind::Other, |rec| {
            let loaded: std::io::Result<SolutionStore<IpmWarmStart>> =
                rec.span("store.load", |_| SolutionStore::load(&self.store_path));
            let ok = loaded.as_ref().is_ok_and(|s| s.len() == store.len());
            (Check::plain(ok), loaded.unwrap_or_default())
        });

        let (report_b, wall, gap) = round.op(rec, "run_b", OpKind::Principal, |rec| {
            let t = Instant::now();
            let report = rec.span("ipm.fleet", |_| {
                solver.run(FleetRequest::over(&gen_b).case(CASE_ID).store(&mut loaded))
            });
            let wall = t.elapsed().as_secs_f64();
            let gap = report
                .results
                .iter()
                .zip(&reference.results)
                .map(|(r, cold)| relative_gap(r.report.objective, cold.report.objective))
                .fold(0.0, f64::max);
            let ok = limits.admits(report.all_optimal(), report.worst_violation(), gap)
                && (report.store.hits >= 1 || self.smoke);
            let check = Check {
                ok,
                solves: k,
                fingerprint: fleet_fingerprint(&report),
            };
            (check, (report, wall, gap))
        });
        ipm_wall += wall;
        self.quality = (
            report_a.worst_violation().max(report_b.worst_violation()),
            gap,
        );

        if rec.enabled() {
            device_layer(&pool.combined_snapshot(), ipm_wall, &mut round.layer);
            let sum = |f: &dyn Fn(&FleetReport) -> usize| (f(&report_a) + f(&report_b)) as f64;
            let lookups = sum(&|r| r.store.hits + r.store.misses);
            let file_bytes = std::fs::metadata(&self.store_path).map_or(0, |m| m.len());
            round.layer.extend([
                ("grid.scenarios", (2 * k) as f64),
                ("engine.ticks", sum(&|r| r.ticks)),
                ("engine.lanes", report_a.lanes as f64),
                (
                    "engine.occupancy",
                    (2 * k) as f64 / (sum(&|r| r.ticks) * report_a.lanes as f64),
                ),
                ("ipm.iterations", sum(&|r| r.total_iterations())),
                ("ipm.factorizations", sum(&|r| r.factorizations())),
                ("ipm.symbolic_analyses", sum(&|r| r.symbolic_analyses())),
                ("ipm.filter_rejections", sum(&|r| r.filter_rejections())),
                ("ipm.restorations", sum(&|r| r.restorations())),
                (
                    "ipm.warm_iteration_ratio",
                    report_b.total_iterations() as f64 / reference.total_iterations() as f64,
                ),
                ("store.lookups", lookups),
                ("store.hits", sum(&|r| r.store.hits)),
                ("store.inserts", sum(&|r| r.store.inserts)),
                ("store.file_bytes", file_bytes as f64),
            ]);
        }
        self.last = Some((gen_a, store));
        round
    }

    fn quality(&self) -> (f64, f64) {
        self.quality
    }

    /// The sparse layer on this network's KKT systems and the store's
    /// lookup and insert paths at a working-set size the rounds never reach.
    fn probes(&mut self) -> Vec<Vec<(&'static str, f64)>> {
        let (gen_a, store) = self.last.as_ref().expect("probes run after the rounds");
        let mut out = probes::sparse_kkt(&gen_a[0], &Self::options(), self.smoke);
        out.extend(probes::store_lookup(CASE_ID, gen_a, store, self.smoke));
        vec![out]
    }
}
