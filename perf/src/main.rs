//! `perf` — the repository's benchmark driver.
//!
//! Four workloads (`cold`, `track`, `ipm_fleet`, `sweep`), nine end-to-end
//! metrics each, and a traced run that attributes the time to layers. The
//! driver measures every layer from outside: it times calls into the
//! crates' public functions and reads their public counters. README.md in
//! this directory is the glossary and the operating manual.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! perf --all             [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! perf --smoke           all four workloads at toy sizes, in-process
//! perf --repeat-check [N] run the untraced set twice, interleaved, and compare
//! perf --describe        print BENCHMARK.json from the metric tables
//! ```
//!
//! Load model: closed loop, one client, one process per workload, one
//! compute thread.

mod calibrate;
mod harness;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use gridsim_batch::{ExecutionMode, BACKEND_ENV, DEVICE_COUNT_ENV};
use harness::{RunConfig, RunOutput};
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Worker-thread count of the rayon shim's process-wide pool.
pub const POOL_THREADS_ENV: &str = "GRIDSIM_POOL_THREADS";

/// Seed of the input generators when `--seed` is not given.
const DEFAULT_SEED: u64 = 7;

/// Pin the execution environment before any `Device` exists. The daemon
/// builds `Device::default()` internally, so the environment is the only
/// way to pin it; everywhere the API takes a device or a pool the driver
/// also passes vectorized single-device ones explicitly. A conflicting
/// value exported by the caller is an error, not something to override
/// silently.
fn pin_environment() -> Result<(), String> {
    let pins = [
        (BACKEND_ENV, ExecutionMode::Vectorized.label()),
        (POOL_THREADS_ENV, "1"),
        (DEVICE_COUNT_ENV, "1"),
    ];
    for (key, pinned) in pins {
        if let Ok(found) = std::env::var(key) {
            let same = if key == BACKEND_ENV {
                ExecutionMode::parse(&found) == Some(ExecutionMode::Vectorized)
            } else {
                found.trim() == pinned
            };
            if !same {
                return Err(format!(
                    "{key}={found} conflicts with the benchmark's pin {key}={pinned}; unset it"
                ));
            }
        }
        std::env::set_var(key, pinned);
    }
    Ok(())
}

/// Where the driver may write: `<cargo target dir>/perf/`, found from the
/// executable's own location so it stays inside the checkout that built it
/// and out of the repository's tracked files.
fn output_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let profile_dir = exe
        .ancestors()
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))?;
    Ok(profile_dir.join("perf"))
}

/// A scratch directory (daemon state, store files) removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = output_dir()?.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, `unknown` if it cannot run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance stamped into the output and the trace file, as JSON.
fn provenance(args: &Args, rounds: usize) -> String {
    format!(
        "{{\"host_cores\":{},\"backend\":\"{}\",\"pool_threads\":1,\"devices\":1,\"seed\":{},\
         \"rounds\":{rounds},\"smoke\":{},\"rustc\":\"{}\",\"git\":\"{}\"}}",
        harness::host_cores(),
        ExecutionMode::Vectorized.label(),
        args.seed,
        args.smoke,
        first_line_of("rustc", &["-V"]).replace('"', "'"),
        first_line_of("git", &["rev-parse", "HEAD"]).replace('"', "'"),
    )
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat_check: Option<usize>,
    describe: bool,
    wide_parallel_child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat_check: None,
        describe: false,
        wide_parallel_child: false,
    };
    let mut i = 0;
    // An optional value: consumed only when it parses.
    let optional = |i: &mut usize| -> Option<u64> {
        let v = argv.get(*i + 1)?.parse().ok()?;
        *i += 1;
        Some(v)
    };
    let required = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(required(&mut i, "--workload")?),
            "--all" => args.all = true,
            "--seed" => {
                let v = required(&mut i, "--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = required(&mut i, "--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => args.trace = optional(&mut i).is_none_or(|v| v != 0),
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = Some(optional(&mut i).unwrap_or(5) as usize),
            "--describe" => args.describe = true,
            probes::WIDE_PARALLEL_FLAG => args.wide_parallel_child = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(args)
}

/// Run one workload in this process.
fn run_workload(name: &str, args: &Args, scratch: &Path) -> RunOutput {
    let mut workload =
        workloads::build(name, args.seed, args.smoke, scratch).expect("workload names are checked");
    let cfg = RunConfig {
        seconds: args.seconds,
        trace: args.trace,
        fixed_rounds: args.smoke.then_some(2),
        calibrate: !args.smoke,
    };
    harness::run(workload.as_mut(), cfg, peak_rss_mb)
}

/// Print one run: the named metrics with units, provenance, and last the
/// result object the benchmark contract asks for. Returns whether the run
/// was correct.
fn report(name: &str, args: &Args, out: &RunOutput) -> bool {
    let unit_of = |metric: &str| {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == metric)
            .map_or("", |(_, unit)| unit)
    };
    println!(
        "workload {name}: {} timed rounds, warm-up {:.3} s, noise ratio {:.3}, calibration {:.4}",
        out.rounds, out.warmup_s, out.noise_ratio, out.calibration
    );
    for (metric, value) in out.end_to_end.iter().chain(&out.per_layer) {
        println!("  {metric:<36} {value:>16.6} {}", unit_of(metric));
    }
    for error in &out.errors {
        println!("  error: {error}");
    }
    let provenance = provenance(args, out.rounds);
    println!("provenance {provenance}");

    if args.trace {
        match write_trace(name, &provenance, out) {
            Ok(path) => println!("trace {}", path.display()),
            Err(e) => println!("trace not written: {e}"),
        }
    }

    let reported = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let finite = reported.iter().all(|(_, v)| v.is_finite());
    let correct = out.failed == 0 && out.errors.is_empty() && finite;
    let metrics: Vec<String> = reported
        .iter()
        .map(|(metric, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{metric}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(metric)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    correct
}

fn write_trace(name: &str, provenance: &str, out: &RunOutput) -> Result<PathBuf, String> {
    let dir = output_dir()?;
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{name}.trace.json"));
    std::fs::write(&path, out.recorder.to_json(name, provenance)).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Re-execute this binary for one workload, so the child's `peak_rss_mb`
/// belongs to that workload alone. Returns its exit status and output.
fn run_child(name: &str, args: &Args) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    Ok((out.status.success(), text))
}

/// The metric values in a child's final result line.
fn parse_result(stdout: &str) -> Option<Vec<(String, f64)>> {
    let value: Value = serde_json::from_str(stdout.lines().last()?).ok()?;
    let Value::Map(metrics) = value.get("metrics")? else {
        return None;
    };
    metrics
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
        .collect()
}

/// `--all`: every workload, one process each.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    for (name, _) in WORKLOADS {
        let (ok, text) = run_child(name, args)?;
        print!("{text}");
        all_ok &= ok;
    }
    Ok(all_ok)
}

/// `--repeat-check N`: run the untraced set twice (A and B, same binary,
/// interleaved ABAB…) and compare the medians. Passes when every timing
/// differs by at most half its bound and every deterministic metric is
/// identical.
fn repeat_check(args: &Args, n: usize) -> Result<bool, String> {
    let args = Args {
        trace: false,
        ..args.clone()
    };
    let mut pass = true;
    // workload -> side -> metric -> samples
    let per_side = vec![Vec::<f64>::new(); END_TO_END.len()];
    let mut samples = vec![[per_side.clone(), per_side]; WORKLOADS.len()];
    for rep in 0..n.max(1) {
        for (w, (name, _)) in WORKLOADS.iter().enumerate() {
            for (side, label) in ["A", "B"].iter().enumerate() {
                eprintln!("repeat-check {}/{n}: {name} {label}", rep + 1);
                let (ok, text) = run_child(name, &args)?;
                let values = parse_result(&text)
                    .filter(|_| ok)
                    .ok_or_else(|| format!("{name} ({label}) failed:\n{text}"))?;
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let v = values
                        .iter()
                        .find(|(k, _)| k == metric.name)
                        .ok_or_else(|| format!("{name}: {} missing", metric.name))?;
                    samples[w][side][m].push(v.1);
                }
            }
        }
    }
    println!(
        "{:<10} {:<14} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "diff", "bound/2"
    );
    for (w, (name, _)) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let a = stats::median(&samples[w][0][m]);
            let b = stats::median(&samples[w][1][m]);
            let diff = (b - a).abs() / a.abs();
            let ok = if metric.deterministic {
                let all: Vec<u64> = samples[w]
                    .iter()
                    .flat_map(|side| side[m].iter().map(|v| v.to_bits()))
                    .collect();
                all.iter().all(|&bits| bits == all[0])
            } else {
                diff <= metric.bound / 2.0
            };
            pass &= ok;
            println!(
                "{name:<10} {:<14} {a:>14.6} {b:>14.6} {:>7.2}% {:>7.2}%  {}",
                metric.name,
                diff * 100.0,
                metric.bound * 50.0,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(pass)
}

/// `--smoke`: the four workloads at toy sizes, in this process.
fn run_smoke(args: &Args) -> Result<Vec<(&'static str, RunOutput)>, String> {
    pin_environment()?;
    let scratch = Scratch::create()?;
    Ok(WORKLOADS
        .iter()
        .map(|(name, _)| (*name, run_workload(name, args, &scratch.0)))
        .collect())
}

fn run(args: &Args) -> Result<bool, String> {
    if args.describe {
        print!("{}", metrics::benchmark_json());
        return Ok(true);
    }
    if args.wide_parallel_child {
        probes::wide_parallel_child();
        return Ok(true);
    }
    if let Some(n) = args.repeat_check {
        return repeat_check(args, n);
    }
    if let Some(name) = &args.workload {
        pin_environment()?;
        let scratch = Scratch::create()?;
        let out = run_workload(name, args, &scratch.0);
        return Ok(report(name, args, &out));
    }
    if args.all {
        return run_all(args);
    }
    if args.smoke {
        let mut all_ok = true;
        for (name, out) in run_smoke(args)? {
            all_ok &= report(name, args, &out);
        }
        return Ok(all_ok);
    }
    Err(
        "nothing to do: pass --workload <name>, --all, --smoke, --repeat-check or --describe"
            .into(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_contract_invocation_parses() {
        let a = parse_args(&argv(&[
            "--workload",
            "track",
            "--seed",
            "11",
            "--seconds",
            "16",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("track"));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 16.0, false));
        let a = parse_args(&argv(&["--workload", "cold", "--trace", "1"])).unwrap();
        assert!(a.trace);
        // A bare --trace means on; --repeat-check defaults to 5.
        let a = parse_args(&argv(&["--all", "--trace", "--smoke"])).unwrap();
        assert!(a.all && a.trace && a.smoke);
        assert_eq!(
            parse_args(&argv(&["--repeat-check"])).unwrap().repeat_check,
            Some(5)
        );
        assert_eq!(
            parse_args(&argv(&["--repeat-check", "3"]))
                .unwrap()
                .repeat_check,
            Some(3)
        );
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
    }

    #[test]
    fn result_lines_parse_back() {
        let text = "noise\n{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
                    {\"round_s\": {\"value\": 1.5, \"unit\": \"s\"}}}";
        assert_eq!(
            parse_result(text).unwrap(),
            vec![("round_s".to_string(), 1.5)]
        );
        assert!(parse_result("not json").is_none());
    }

    /// The whole driver at toy sizes: every workload reports every
    /// end-to-end metric exactly once with a finite value, every per-layer
    /// metric is named, and no op fails. Also the only test that touches
    /// the process environment.
    #[test]
    fn smoke_run_reports_every_metric_once() {
        std::env::set_var(BACKEND_ENV, "parallel");
        assert!(pin_environment().unwrap_err().contains("conflicts"));
        std::env::set_var(BACKEND_ENV, "VEC");
        pin_environment().expect("an alias of the pinned backend is no conflict");

        let args = parse_args(&argv(&["--smoke", "--trace"])).unwrap();
        let runs = run_smoke(&args).unwrap();
        assert_eq!(runs.len(), WORKLOADS.len());
        for (name, out) in &runs {
            for metric in END_TO_END {
                let found: Vec<_> = out
                    .end_to_end
                    .iter()
                    .filter(|(n, _)| *n == metric.name)
                    .collect();
                assert_eq!(found.len(), 1, "{name}: {}", metric.name);
                assert!(
                    found[0].1.is_finite(),
                    "{name}: {} = {}",
                    metric.name,
                    found[0].1
                );
            }
            assert_eq!(out.per_layer.len(), PER_LAYER.len(), "{name}");
            assert!(out.per_layer.iter().all(|(_, v)| v.is_finite()), "{name}");
            assert_eq!(out.failed, 0, "{name}");
            assert!(out.errors.is_empty(), "{name}: {:?}", out.errors);
            assert!(!out.recorder.spans().is_empty(), "{name}");
        }
    }
}
