//! Warm-start tracking example (the scenario of Section IV-C): follow the
//! optimal dispatch of a grid over a 10-minute horizon while the load drifts,
//! warm-starting every period from the previous one with generator ramp
//! limits.
//!
//! Both solver families track the horizon: the paper's ADMM (whose warm
//! starts are the headline result) and the condensed-KKT interior-point
//! reference with a **horizon-wide `KktCache`** — every period re-solves
//! the same network structure, so the whole reference trajectory costs one
//! symbolic analysis (of the model's declared derivative structure) and
//! each Newton step is a numeric-only refactorization. A fresh analysis per
//! factorization would cost 109 for this horizon.
//!
//! ```text
//! cargo run --release --example warm_start_tracking
//! ```

use gridadmm::prelude::*;
use gridsim_acopf::start::ramp_limited_bounds;
use gridsim_admm::{track_horizon, TrackingConfig};
use gridsim_engine::FleetRequest;
use gridsim_grid::cases;

fn main() {
    // The IEEE-14-style embedded case and a 10-period load window drifting
    // by up to 3 %.
    let case = cases::case14();
    let profile = LoadProfile::paper_window(7, 10, 0.03);
    println!(
        "tracking {} over {} one-minute periods (max drift {:.1}%)",
        case.name,
        profile.len(),
        100.0 * profile.max_drift()
    );

    let config = TrackingConfig::default();
    let (periods, last) = track_horizon(&case, &profile, &config);

    println!("\nADMM (warm-started from the previous period, 2% ramp limits):");
    println!("period  load     time(ms)  cum(ms)  iterations  ||c||_inf     $/hr");
    for p in &periods {
        println!(
            "{:>6}  {:.4}  {:>8.1}  {:>7.1}  {:>10}  {:>9.2e}  {:>9.2}",
            p.period,
            p.load_multiplier,
            p.solve_time.as_secs_f64() * 1e3,
            p.cumulative_time.as_secs_f64() * 1e3,
            p.inner_iterations,
            p.max_violation,
            p.objective
        );
    }

    let cold = &periods[0];
    let warm_avg_ms = periods[1..]
        .iter()
        .map(|p| p.solve_time.as_secs_f64() * 1e3)
        .sum::<f64>()
        / (periods.len() - 1) as f64;
    println!(
        "cold start: {:.1} ms; warm-started periods: {:.1} ms on average ({:.1}x faster)",
        cold.solve_time.as_secs_f64() * 1e3,
        warm_avg_ms,
        cold.solve_time.as_secs_f64() * 1e3 / warm_avg_ms.max(1e-9)
    );

    // --- the interior-point reference on the same horizon ---
    // One cache for all periods: the condensed pattern is identical across
    // the horizon, so the symbolic analysis is paid exactly once.
    let mut cache = KktCache::new();
    let mut prev: Option<(Vec<f64>, Vec<f64>)> = None; // (x, pg)
    println!("\nIPM reference (condensed KKT, horizon-wide cache):");
    println!("period  time(ms)  iterations  factorizations  cum. symbolic");
    for (t, &mult) in profile.multipliers.iter().enumerate() {
        let net_t = case.scale_load(mult).compile().expect("case compiles");
        let nlp = match &prev {
            Some((_, prev_pg)) => {
                let (lo, hi) = ramp_limited_bounds(&net_t, prev_pg, config.ramp_fraction);
                AcopfNlp::new(&net_t).with_pg_bounds(lo, hi)
            }
            None => AcopfNlp::new(&net_t),
        };
        let report = IpmSolver::new(IpmOptions {
            initial_point: prev.as_ref().map(|(x, _)| x.clone()),
            ..Default::default()
        })
        .solve_with_cache(&nlp, &mut cache);
        println!(
            "{:>6}  {:>8.1}  {:>10}  {:>14}  {:>13}",
            t,
            report.solve_time.as_secs_f64() * 1e3,
            report.iterations,
            report.factorizations,
            cache.symbolic_analyses()
        );
        let pg = nlp.to_solution(&report.x).pg;
        prev = Some((report.x, pg));
    }
    println!(
        "symbolic analyses over {} periods: {} (one per factorization would \
         be {}); numeric refactorizations: {}",
        profile.len(),
        cache.symbolic_analyses(),
        cache.numeric_refactorizations(),
        cache.numeric_refactorizations()
    );

    // --- the same horizon through the warm-start solution store ---
    // One `SolutionStore` threaded across the periods: every period's
    // fleet looks up the nearest previously solved load vector (an earlier
    // period, since the load only drifts) and seeds from it — primal point,
    // constraint multipliers, and bound multipliers, so the solve resumes
    // the barrier trajectory instead of descending from scratch. Each
    // converged period is committed back for the periods after it.
    let mut store: SolutionStore<IpmWarmStart> = SolutionStore::new();
    let mut stats = StoreRunStats::default();
    let mut stored_iterations = 0usize;
    let mut cold_iterations = 0usize;
    let fleet = IpmFleetSolver::new(IpmOptions::default());
    println!("\nIPM through the solution store (threaded across the horizon):");
    println!("period  store     iterations  cold iters");
    for (t, &mult) in profile.multipliers.iter().enumerate() {
        let net_t = case.scale_load(mult).compile().expect("case compiles");
        let cold = IpmSolver::default().solve(&AcopfNlp::new(&net_t));
        cold_iterations += cold.iterations;
        let report = fleet.run(
            FleetRequest::over(std::slice::from_ref(&net_t))
                .case(&case.name)
                .store(&mut store),
        );
        stats.merge(&report.store);
        let iters = report.total_iterations();
        stored_iterations += iters;
        println!(
            "{:>6}  {:>8}  {:>10}  {:>10}",
            t,
            if report.store.hits > 0 { "hit" } else { "miss" },
            iters,
            cold.iterations
        );
    }
    println!(
        "store over {} periods: {:.0}% hit rate, {} entries; cumulative \
         iterations {} vs {} cold ({:.1}% saved)",
        profile.len(),
        stats.hit_rate() * 100.0,
        store.len(),
        stored_iterations,
        cold_iterations,
        100.0 * (1.0 - stored_iterations as f64 / cold_iterations.max(1) as f64)
    );

    println!(
        "\nfinal ADMM dispatch: {:?} (p.u.)",
        last.solution
            .pg
            .iter()
            .map(|p| (p * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
}
