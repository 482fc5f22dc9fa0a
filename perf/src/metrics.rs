//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`perf --describe`) and a
//! unit test keeps the checked-in file equal to them.

/// Seconds one run measures for when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the stack sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// True when the value is a pure function of code and seed (no clock),
    /// so two runs of one build must agree bit for bit.
    pub deterministic: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    deterministic: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        deterministic,
    }
}

/// The same nine names on every workload; README.md has the definitions.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("round_s", "s", Better::Lower, 0.25, false),
    e2e("solves_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("op_max_ms", "ms", Better::Lower, 0.25, false),
    e2e("feas_digits", "digits", Better::Higher, 0.10, true),
    e2e("gap_digits", "digits", Better::Higher, 0.10, true),
    e2e("success_share", "share", Better::Higher, 0.01, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15, false),
];

/// How a per-layer value is combined across the traced rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// A time: the fast-half mean over rounds.
    FastHalf,
    /// A count (or a ratio of counts): must repeat bit for bit.
    Exact,
}

/// A per-layer metric. Names are `<layer>.<what>_<unit>`.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub merge: Merge,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        merge: Merge::FastHalf,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        merge: Merge::Exact,
    }
}

use Better::{Higher, Lower};

/// The 85 per-layer metrics of the traced run. README.md maps each layer to
/// the end-to-end metric it should move.
pub const PER_LAYER: [Layer; 85] = [
    // grid
    time("grid.parse_ms", "ms"),
    time("grid.compile_ms", "ms"),
    time("grid.expand_ms", "ms"),
    time("grid.fingerprint_us", "us"),
    count("grid.scenarios", "count", Higher),
    // acopf
    time("acopf.ramp_bounds_us", "us"),
    time("acopf.evaluate_us", "us"),
    // batch
    count("batch.launches", "count", Lower),
    count("batch.blocks", "count", Lower),
    count("batch.h2d_bytes", "bytes", Lower),
    count("batch.d2h_bytes", "bytes", Lower),
    time("batch.kernel_busy_s", "s"),
    time("batch.host_gap_s", "s"),
    time("batch.launch_overhead_us", "us"),
    time("batch.kernel.generator_update_s", "s"),
    time("batch.kernel.branch_tron_s", "s"),
    time("batch.kernel.bus_update_s", "s"),
    time("batch.kernel.consensus_s", "s"),
    time("batch.kernel.residuals_s", "s"),
    time("batch.kernel.ldl_refactor_level_s", "s"),
    Layer {
        name: "batch.vectorized_vs_sequential",
        unit: "ratio",
        better: Higher,
        merge: Merge::FastHalf,
    },
    Layer {
        name: "batch.parallel_vs_sequential",
        unit: "ratio",
        better: Higher,
        merge: Merge::FastHalf,
    },
    // tron
    time("tron.us_per_block", "us"),
    time("tron.us_per_block_wide", "us"),
    time("tron.share", "share"),
    time("tron.batch_us_per_problem", "us"),
    count("tron.iters_per_problem", "count", Lower),
    // admm
    count("admm.inner_iters", "count", Lower),
    count("admm.outer_iters", "count", Lower),
    count("admm.iters_per_period_p50", "count", Lower),
    count("admm.iters_per_period_max", "count", Lower),
    time("admm.us_per_inner_iter", "us"),
    time("admm.cold_start_s", "s"),
    time("admm.solve_overhead_ms", "ms"),
    count("admm.fleet_ticks", "count", Lower),
    count("admm.mask_efficiency", "share", Higher),
    // engine
    count("engine.ticks", "count", Lower),
    count("engine.lanes", "count", Higher),
    count("engine.occupancy", "share", Higher),
    // ipm
    count("ipm.iterations", "count", Lower),
    count("ipm.factorizations", "count", Lower),
    count("ipm.symbolic_analyses", "count", Lower),
    count("ipm.filter_rejections", "count", Lower),
    count("ipm.restorations", "count", Lower),
    time("ipm.ms_per_iteration", "ms"),
    count("ipm.warm_iteration_ratio", "ratio", Lower),
    // sparse
    time("sparse.analyze_ms", "ms"),
    time("sparse.solve_ms", "ms"),
    count("sparse.nnz", "count", Lower),
    count("sparse.lnz", "count", Lower),
    count("sparse.fill_ratio", "ratio", Lower),
    count("sparse.levels", "count", Lower),
    time("sparse.refactor_ms", "ms"),
    time("sparse.refactor_scalar_ms", "ms"),
    count("sparse.supernodes", "count", Lower),
    count("sparse.condensed_dim", "count", Lower),
    // store
    count("store.lookups", "count", Higher),
    count("store.hits", "count", Higher),
    count("store.inserts", "count", Higher),
    count("store.hit_rate", "share", Higher),
    time("store.nearest_us", "us"),
    time("store.insert_us", "us"),
    time("store.save_ms", "ms"),
    time("store.load_ms", "ms"),
    count("store.file_bytes", "bytes", Lower),
    // screen
    time("screen.screen_s", "s"),
    time("screen.full_s", "s"),
    count("screen.graduated", "count", Lower),
    count("screen.graduation_rate", "share", Lower),
    count("screen.benign", "count", Higher),
    // serve
    time("serve.submit_ms", "ms"),
    time("serve.chunk_compute_ms", "ms"),
    time("serve.overhead_s", "s"),
    time("serve.manifest_save_ms", "ms"),
    time("serve.manifest_load_ms", "ms"),
    count("serve.manifest_bytes", "bytes", Lower),
    count("serve.retries", "count", Lower),
    count("serve.failed", "count", Lower),
    // bench: these describe the run, they gate nothing
    time("bench.calibration", "ratio"),
    time("bench.raw_round_s", "s"),
    time("bench.noise_ratio", "ratio"),
    time("bench.trace_overhead", "ratio"),
    time("bench.warmup_s", "s"),
    count("bench.host_cores", "count", Higher),
    count("bench.rounds", "count", Higher),
];

/// Spans whose per-round total becomes a per-layer time:
/// `(span name, metric, seconds-to-unit scale)`.
pub const SPAN_METRICS: [(&str, &str, f64); 9] = [
    ("grid.parse", "grid.parse_ms", 1e3),
    ("grid.compile", "grid.compile_ms", 1e3),
    ("grid.expand", "grid.expand_ms", 1e3),
    ("grid.fingerprint", "grid.fingerprint_us", 1e6),
    ("acopf.ramp_bounds", "acopf.ramp_bounds_us", 1e6),
    ("acopf.evaluate", "acopf.evaluate_us", 1e6),
    ("store.save", "store.save_ms", 1e3),
    ("store.load", "store.load_ms", 1e3),
    ("serve.submit", "serve.submit_ms", 1e3),
];

/// Look a per-layer metric up by name.
pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "cold",
        "Table II: one cold-start ADMM solve, ~95 % branch_tron; bypasses ipm/sparse/store/screen/serve",
    ),
    (
        "track",
        "Fig. 1: 15 warm-started periods under load drift; host-side per-solve work recurs every period",
    ),
    (
        "ipm_fleet",
        "condensed-KKT IPM fleet, two generations through a saved and reloaded store; no ADMM or TRON work",
    ),
    (
        "sweep",
        "daemon job: contingency expansion, serve, screen, masked ADMM fleet, store commit, manifest flush",
    ),
];

/// Render `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.label()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn span_metrics_name_real_layers() {
        for (_, metric, _) in SPAN_METRICS {
            assert!(layer(metric).is_some(), "{metric}");
        }
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `perf --describe`"
        );
    }
}
