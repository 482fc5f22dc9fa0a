//! Regenerates the paper's **Figures 1–3**: warm-start tracking of ACOPF
//! solutions over a 30-period (one minute each) horizon with load drifting by
//! up to 5 %.
//!
//! * Figure 1 — cumulative computation time per period, our solver vs the
//!   centralized baseline (both warm-started),
//! * Figure 2 — maximum constraint violation per period,
//! * Figure 3 — relative objective gap (%) per period.
//!
//! ```text
//! cargo run -p gridsim-bench --release --bin warmstart \
//!     [--scale small|medium|paper] [--periods N] [--cases K]
//! ```
//!
//! `--cases K` limits the run to the first `K` Table I cases (default 2 at
//! small scale, all six otherwise is expensive because the baseline is solved
//! 30 times per case).

use gridsim_bench::{
    arg_parsed, run_tracking_comparison, to_json, BenchCase, Scale, TextTable, TrackingRow,
};
use gridsim_grid::LoadProfile;

fn main() {
    let scale = Scale::from_args();
    let embedded = std::env::args().any(|a| a == "--embedded");
    let periods: usize = arg_parsed("--periods").unwrap_or(30);
    let case_limit: usize = arg_parsed("--cases").unwrap_or(match scale {
        Scale::Small => 2,
        _ => 6,
    });
    // 30 one-minute periods with up to 5 % load drift, as in Section IV-C.
    let profile = LoadProfile::paper_window(0, periods, 0.05);
    println!(
        "Warm-start tracking: {periods} periods, max drift {:.1}% (scale {scale:?})",
        100.0 * profile.max_drift()
    );

    let cases = if embedded {
        BenchCase::embedded()
    } else {
        BenchCase::all(scale)
    };
    let mut all_results: Vec<(String, Vec<TrackingRow>)> = Vec::new();
    for bc in cases.iter().take(case_limit) {
        eprintln!("tracking {} ...", bc.name);
        let rows = run_tracking_comparison(&bc.case, &profile, &bc.params, 0.02);

        println!("\n=== {} ===", bc.name);
        let mut table = TextTable::new(vec![
            "Period",
            "Load",
            "ADMM t (s)",
            "ADMM cum (s)",
            "Base t (s)",
            "Base cum (s)",
            "||c||_inf",
            "gap (%)",
        ]);
        for r in &rows {
            table.add_row(vec![
                r.period.to_string(),
                format!("{:.4}", r.load_multiplier),
                format!("{:.3}", r.admm_time_s),
                format!("{:.3}", r.admm_cumulative_s),
                format!("{:.3}", r.ipm_time_s),
                format!("{:.3}", r.ipm_cumulative_s),
                format!("{:.2e}", r.admm_violation),
                format!("{:.3}", 100.0 * r.relative_gap),
            ]);
        }
        println!("{table}");

        // Figure 1 series: cumulative times.
        let admm_total = rows.last().map(|r| r.admm_cumulative_s).unwrap_or(0.0);
        let ipm_total = rows.last().map(|r| r.ipm_cumulative_s).unwrap_or(0.0);
        let warm_avg: f64 = if rows.len() > 1 {
            rows[1..].iter().map(|r| r.admm_time_s).sum::<f64>() / (rows.len() - 1) as f64
        } else {
            0.0
        };
        println!(
            "summary {}: ADMM cold {:.3}s, warm avg {:.3}s/period, horizon {:.2}s; baseline horizon {:.2}s",
            bc.name,
            rows[0].admm_time_s,
            warm_avg,
            admm_total,
            ipm_total
        );
        all_results.push((bc.name.clone(), rows));
    }

    println!("\nJSON results (Figures 1-3 series):");
    println!("{}", to_json(&all_results));
}
