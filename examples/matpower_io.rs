//! MATPOWER interoperability example: write one of the embedded cases to a
//! MATPOWER `.m` file, read it back, and solve it — the same path a user
//! takes to run the solver on the real pegase / ACTIVSg case files the paper
//! evaluates on.
//!
//! ```text
//! cargo run --release --example matpower_io [path/to/case.m]
//! ```

use gridsim_admm::{AdmmParams, AdmmSolver};
use gridsim_grid::matpower;
use std::path::PathBuf;

fn main() {
    let arg_path = std::env::args().nth(1).map(PathBuf::from);
    let case = match &arg_path {
        Some(path) => {
            println!("reading MATPOWER case from {}", path.display());
            matpower::read_case(path).expect("failed to parse MATPOWER file")
        }
        None => {
            // No file given: round-trip the embedded 14-bus case through the
            // MATPOWER format to demonstrate the writer and parser.
            let original = gridsim_grid::case14();
            let text = matpower::write_case(&original);
            let tmp = std::env::temp_dir().join("gridadmm_case14.m");
            std::fs::write(&tmp, &text).expect("write temp case");
            println!(
                "no case file given; wrote embedded case14 to {}",
                tmp.display()
            );
            matpower::read_case(&tmp).expect("round-trip parse")
        }
    };

    let net = case.compile().expect("case must compile");
    println!(
        "case {}: {} buses, {} branches, {} generators, total load {:.1} MW",
        net.name,
        net.nbus,
        net.nbranch,
        net.ngen,
        net.total_pd() * net.base_mva
    );

    let solver = AdmmSolver::new(AdmmParams::default());
    let result = solver.solve(&net);
    println!(
        "ADMM finished: {:?} after {} inner iterations in {:.1} ms",
        result.status,
        result.inner_iterations,
        result.solve_time.as_secs_f64() * 1e3
    );
    println!(
        "objective {:.2} $/hr, max constraint violation {:.2e}",
        result.objective,
        result.quality.max_violation()
    );
    println!(
        "dispatch (MW): {:?}",
        result
            .solution
            .pg
            .iter()
            .map(|p| (p * net.base_mva).round())
            .collect::<Vec<_>>()
    );
}
