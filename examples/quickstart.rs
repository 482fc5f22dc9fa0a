//! Quickstart: solve an ACOPF case with the GPU-style ADMM solver and compare
//! the result against the centralized interior-point baseline.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use gridsim_acopf::violations::relative_gap;
use gridsim_admm::{AdmmParams, AdmmSolver};
use gridsim_ipm::{AcopfNlp, IpmOptions, IpmSolver};

fn main() {
    // 1. Load a case (embedded 9-bus system; MATPOWER files and synthetic
    //    Table-I-scale cases work the same way).
    let case = gridsim_grid::case9();
    let net = case.compile().expect("case compiles");
    println!(
        "case {}: {} buses, {} branches, {} generators",
        net.name, net.nbus, net.nbranch, net.ngen
    );

    // 2. Solve with the component-based two-level ADMM (the paper's method).
    let admm = AdmmSolver::new(AdmmParams::default());
    let result = admm.solve(&net);
    println!(
        "ADMM:  status {:?}, {} inner iterations ({} outer), {:.2} ms",
        result.status,
        result.inner_iterations,
        result.outer_iterations,
        result.solve_time.as_secs_f64() * 1e3
    );
    println!(
        "       objective {:.2} $/hr, max violation {:.3e}, ||z||_inf {:.3e}",
        result.objective,
        result.quality.max_violation(),
        result.z_inf
    );

    // 3. Solve the same case with the interior-point baseline (Ipopt
    //    stand-in) and report the relative objective gap.
    let nlp = AcopfNlp::new(&net);
    let ipm = IpmSolver::new(IpmOptions::default()).solve(&nlp);
    println!(
        "IPM:   status {:?}, {} iterations, {} factorizations, {:.2} ms, objective {:.2} $/hr",
        ipm.status,
        ipm.iterations,
        ipm.factorizations,
        ipm.solve_time.as_secs_f64() * 1e3,
        ipm.objective
    );
    println!(
        "relative objective gap |f - f*| / f* = {:.3} %",
        100.0 * relative_gap(result.objective, ipm.objective)
    );

    // 4. Inspect the kernel-launch statistics of the simulated GPU device.
    let stats = admm.device.stats().snapshot();
    println!("device kernel launches: {}", stats.total_launches());
    println!(
        "host->device transfers: {}, device->host transfers: {}",
        stats.host_to_device_transfers, stats.device_to_host_transfers
    );
}
