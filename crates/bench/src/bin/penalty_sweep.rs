//! Ablation B — penalty sensitivity (Section V of the paper notes that the
//! ADMM penalty parameters "could significantly affect its computation time
//! until convergence"). Sweeps a common scaling factor over ρ_pq / ρ_va on
//! one mid-size case and reports iterations-to-convergence and solution
//! quality.
//!
//! ```text
//! cargo run -p gridsim-bench --release --bin penalty_sweep [--scale small|medium|paper]
//! ```

use gridsim_bench::{run_cold_start, BenchCase, Scale, TextTable};

fn main() {
    let scale = Scale::from_args();
    // The second Table I case (2869pegase stand-in) is the sweep target.
    let bc = BenchCase::all(scale)
        .into_iter()
        .nth(1)
        .expect("case exists");
    println!(
        "Penalty sweep on {} ({} buses)",
        bc.name,
        bc.case.buses.len()
    );

    let factors = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0];
    let mut table = TextTable::new(vec![
        "rho factor",
        "rho_pq",
        "rho_va",
        "ADMM Iterations",
        "ADMM Time (s)",
        "||c(x)||_inf",
        "gap (%)",
    ]);
    for &factor in &factors {
        let params = bc.params.scaled_penalties(factor);
        eprintln!("factor {factor} ...");
        let row = run_cold_start(&format!("{} x{}", bc.name, factor), &bc.case, &params);
        table.add_row(vec![
            format!("{factor}"),
            format!("{:.1}", params.rho_pq),
            format!("{:.1}", params.rho_va),
            row.admm_iterations.to_string(),
            format!("{:.2}", row.admm_time_s),
            format!("{:.2e}", row.max_violation),
            format!("{:.2}", 100.0 * row.relative_gap),
        ]);
        println!("{table}");
    }
}
