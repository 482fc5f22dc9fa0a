//! Hierarchical N−k contingency screening: the two-tier funnel against a
//! flat solve-everything sweep.
//!
//! Expands a spec-driven contingency set (load-level grid × seeded
//! perturbation draws × outage columns) sized to at least `--k` scenarios,
//! then solves it twice:
//!
//! * **flat** — every scenario at full tolerance, the baseline a sweep
//!   without screening would pay;
//! * **funnel** — every scenario through the cheap screening pass, with
//!   only `Violating ∪ Uncertain` graduating to the full tier seeded from
//!   their own screening solutions.
//!
//! The report shows the per-band attrition, the screening-vs-full cost
//! split, the wall-clock speedup, and a no-false-negative audit: every
//! scenario whose *full-tolerance* constraint margin exceeds the benign
//! threshold must have graduated (the release guard in
//! `tests/contingency_funnel.rs` re-checks this invariant).
//!
//! ```text
//! cargo run -p gridsim-bench --release --bin contingency_sweep \
//!     [--case case9|case14|case30_synthetic|case5] [--k 1000] \
//!     [--tier admm|ipm] [--levels 5] [--lo 0.95] [--hi 1.45] \
//!     [--sigma S] [--seed N] [--benign B] [--violating V] [--devices N]
//! ```

use gridsim_admm::{AdmmParams, AdmmStatus, ScenarioScheduler};
use gridsim_batch::DevicePool;
use gridsim_bench::{arg_parsed, arg_value, TextTable};
use gridsim_engine::{Engine, FleetRequest};
use gridsim_grid::{Case, ContingencySpec, Network};
use gridsim_ipm::{IpmFleetSolver, IpmOptions};
use gridsim_screen::{
    constraint_margin, Band, ContingencyFunnel, FullResults, FullTier, FunnelConfig,
};
use std::time::{Duration, Instant};

fn registry_case(name: &str) -> Option<(String, Case)> {
    let case = match name {
        "two_bus" => gridsim_grid::two_bus(),
        "case5" => gridsim_grid::case5(),
        "case9" => gridsim_grid::case9(),
        "case14" => gridsim_grid::case14(),
        "case30_synthetic" | "case30_like" => gridsim_grid::case30_like(),
        _ => return None,
    };
    Some((name.to_string(), case))
}

/// Full-tolerance margins and convergence flags of the flat baseline.
struct FlatRun {
    margins: Vec<f64>,
    converged: Vec<bool>,
    time: Duration,
}

fn run_flat(tier: FullTier, case_id: &str, nets: &[Network], pool: &DevicePool) -> FlatRun {
    match tier {
        FullTier::Admm => {
            let t0 = Instant::now();
            let batch = ScenarioScheduler::with_pool(AdmmParams::test_profile(), pool.clone())
                .run(FleetRequest::over(nets).case(case_id));
            let time = t0.elapsed();
            FlatRun {
                margins: batch
                    .results
                    .iter()
                    .map(|r| constraint_margin(&r.quality))
                    .collect(),
                converged: batch
                    .results
                    .iter()
                    .map(|r| r.status == AdmmStatus::Converged)
                    .collect(),
                time,
            }
        }
        FullTier::Ipm => {
            let solver =
                IpmFleetSolver::with_engine(IpmOptions::default(), Engine::with_pool(pool.clone()));
            let t0 = Instant::now();
            let report = solver.run(FleetRequest::over(nets).case(case_id));
            let time = t0.elapsed();
            FlatRun {
                margins: report
                    .results
                    .iter()
                    .map(|r| constraint_margin(&r.quality))
                    .collect(),
                converged: report
                    .results
                    .iter()
                    .map(|r| r.report.is_optimal())
                    .collect(),
                time,
            }
        }
    }
}

fn main() {
    let case_name = arg_value("--case").unwrap_or_else(|| "case9".to_string());
    let Some((case_id, base)) = registry_case(&case_name) else {
        eprintln!("unknown --case '{case_name}' (two_bus, case5, case9, case14, case30_synthetic)");
        std::process::exit(2);
    };
    let k_target: usize = arg_parsed("--k").unwrap_or(1000);
    let tier = match arg_value("--tier").as_deref() {
        None | Some("admm") => FullTier::Admm,
        Some("ipm") => FullTier::Ipm,
        Some(v) => {
            eprintln!("--tier takes 'admm' or 'ipm'; got '{v}'");
            std::process::exit(2);
        }
    };
    let levels: usize = arg_parsed("--levels").unwrap_or(5);
    let lo: f64 = arg_parsed("--lo").unwrap_or(0.95);
    let hi: f64 = arg_parsed("--hi").unwrap_or(1.45);
    let sigma: f64 = arg_parsed("--sigma").unwrap_or(0.02);
    let seed: u64 = arg_parsed("--seed").unwrap_or(7);
    let benign: f64 = arg_parsed("--benign").unwrap_or(gridsim_screen::DEFAULT_BENIGN_THRESHOLD);
    let violating: f64 =
        arg_parsed("--violating").unwrap_or(gridsim_screen::DEFAULT_VIOLATING_THRESHOLD);
    let pool = match arg_parsed("--devices") {
        Some(n) => DevicePool::auto(n),
        None => DevicePool::from_env(),
    };

    // Size the perturbation draws so the expansion meets the K target:
    // total = levels × (1 + draws) × columns, with every outage family
    // capped only by the case's eligible lists.
    let recipe = ContingencySpec::load_grid(levels, lo, hi).outages(
        base.branches.len(),
        base.branches.len() * base.branches.len(),
        base.generators.len(),
    );
    let columns = recipe.count(&base) / levels;
    let draws = (k_target.div_ceil(levels * columns)).saturating_sub(1);
    let spec = if draws > 0 {
        recipe.perturbed(draws, sigma, seed)
    } else {
        recipe
    };
    let manifest = spec.manifest(&base);
    let nets = spec
        .expand(&base)
        .networks()
        .expect("registry contingency networks compile");
    let k = nets.len();
    eprintln!(
        "{case_id}: {k} scenarios = {} levels x {} draws x {columns} columns \
         (base, {} N-1, {} N-2, {} gen)",
        manifest.levels,
        manifest.draws_per_level,
        manifest.n1_columns,
        manifest.n2_columns,
        manifest.gen_columns,
    );

    eprintln!("flat full-tolerance baseline ...");
    let flat = run_flat(tier, &case_id, &nets, &pool);

    eprintln!("screening funnel ...");
    let config = FunnelConfig {
        full: AdmmParams::test_profile(),
        tier,
        benign_threshold: benign,
        violating_threshold: violating,
        ..Default::default()
    };
    let funnel = ContingencyFunnel::with_pool(config, pool);
    let t0 = Instant::now();
    let report = funnel.run(&case_id, &nets);
    let funnel_time = t0.elapsed();

    // No-false-negative audit against the flat run's full-tolerance
    // margins: anything the flat solve finds stressed must have graduated.
    let missed: Vec<usize> = (0..k)
        .filter(|&i| flat.margins[i] > benign && report.full_index_of(i).is_none())
        .collect();
    let full_converged = (0..k)
        .filter(|&i| match report.full_index_of(i) {
            Some(g) => match &report.full {
                FullResults::Admm(b) => b.results[g].status == AdmmStatus::Converged,
                FullResults::Ipm(r) => r.results[g].report.is_optimal(),
                FullResults::None => false,
            },
            None => true, // benign: certified by the screen
        })
        .count();

    let screen_s = report.screen_time().as_secs_f64();
    let full_s = report.full_time().as_secs_f64();
    let funnel_s = funnel_time.as_secs_f64();
    let flat_s = flat.time.as_secs_f64();

    let mut table = TextTable::new(vec!["quantity", "value"]);
    let tier_name = match tier {
        FullTier::Admm => "admm",
        FullTier::Ipm => "ipm",
    };
    for (q, v) in [
        ("scenarios (K)", k.to_string()),
        ("benign", report.band_count(Band::Benign).to_string()),
        ("uncertain", report.band_count(Band::Uncertain).to_string()),
        ("violating", report.band_count(Band::Violating).to_string()),
        (
            "graduated",
            format!(
                "{} ({:.1}%)",
                report.graduated.len(),
                report.graduation_rate() * 100.0
            ),
        ),
        ("screen time (s)", format!("{screen_s:.3}")),
        ("full tier time (s)", format!("{full_s:.3} ({tier_name})")),
        ("funnel total (s)", format!("{funnel_s:.3}")),
        ("flat baseline (s)", format!("{flat_s:.3}")),
        ("speedup", format!("{:.2}x", flat_s / funnel_s)),
        (
            "screen cost share",
            format!("{:.1}%", 100.0 * screen_s / funnel_s),
        ),
        (
            "flat converged",
            format!("{}/{k}", flat.converged.iter().filter(|&&c| c).count()),
        ),
        ("funnel final converged", format!("{full_converged}/{k}")),
        ("false negatives", missed.len().to_string()),
    ] {
        table.add_row(vec![q.to_string(), v]);
    }
    println!(
        "CONTINGENCY SCREENING FUNNEL ({case_id}, tier: {tier_name}, \
         thresholds: {benign:.0e}/{violating:.0e})"
    );
    println!("{table}");
    if missed.is_empty() {
        println!(
            "superset guard: every scenario the flat full-tolerance sweep \
             finds stressed (margin > {benign:.0e}) graduated to the full tier."
        );
    } else {
        println!(
            "superset guard FAILED: {} stressed scenarios were certified \
             benign by the screen: {:?}",
            missed.len(),
            &missed[..missed.len().min(10)]
        );
    }
    println!(
        "\nJSON:\n{{\"case\":\"{case_id}\",\"tier\":\"{tier_name}\",\"k\":{k},\
         \"benign\":{},\"uncertain\":{},\"violating\":{},\"graduated\":{},\
         \"screen_s\":{screen_s:.4},\"full_s\":{full_s:.4},\
         \"funnel_s\":{funnel_s:.4},\"flat_s\":{flat_s:.4},\
         \"speedup\":{:.3},\"false_negatives\":{}}}",
        report.band_count(Band::Benign),
        report.band_count(Band::Uncertain),
        report.band_count(Band::Violating),
        report.graduated.len(),
        flat_s / funnel_s,
        missed.len(),
    );
    if !missed.is_empty() {
        std::process::exit(1);
    }
}
