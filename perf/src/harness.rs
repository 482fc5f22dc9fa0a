//! The timing rule shared by every workload.
//!
//! A run is one untimed warm-up round (which also computes the references
//! and the result fingerprints) followed by R timed rounds. Each round is
//! the identical sequence of ops on freshly built objects, so no per-object
//! cache survives a round. An op's time is the fast-half mean over rounds
//! of that op index, in calibrated seconds (see [`crate::calibrate`]);
//! every round's results must equal the warm-up round's bit for bit, or the
//! op counts as failed.

use crate::calibrate;
use crate::metrics::{layer, Merge, END_TO_END, PER_LAYER, SPAN_METRICS};
use crate::stats::{digits, fast_half_mean, fast_half_per_op, median, noise_ratio, percentile};
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed rounds never drop below this, however slow the host is.
pub const MIN_ROUNDS: usize = 5;
/// Timed rounds stop here even if the time budget is not spent.
pub const MAX_ROUNDS: usize = 64;
/// Repetitions of the prep op within one round.
pub const PREP_REPEATS: usize = 5;
/// Fewest rounds of each kind (untraced, traced) in a traced run.
pub const TRACE_ROUNDS: usize = 2;

/// What an op contributes to the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Input text to ready-to-run objects: feeds `setup_s`.
    Prep,
    /// The workload's unit of service: feeds `op_p50_ms` and `op_max_ms`.
    Principal,
    /// Everything else on the round's critical path.
    Other,
}

/// Verdict of one op, produced inside the timed closure.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// Converged and passed the workload's output checks.
    pub ok: bool,
    /// Optimisation problems solved by the op.
    pub solves: usize,
    /// Hash of the result bits (objectives, iteration and hit counts).
    pub fingerprint: u64,
}

impl Check {
    /// An op that produces no solver output (prep, save, load).
    pub fn plain(ok: bool) -> Check {
        Check {
            ok,
            solves: 0,
            fingerprint: 0,
        }
    }
}

/// One executed op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub name: &'static str,
    pub kind: OpKind,
    pub seconds: f64,
    pub check: Check,
}

/// One executed round: its ops plus, when tracing, the layer counters and
/// times the workload could observe (`_`-prefixed names are intermediate
/// values the derived metrics are computed from).
#[derive(Debug, Default)]
pub struct Round {
    pub ops: Vec<OpRecord>,
    pub layer: Vec<(&'static str, f64)>,
}

impl Round {
    /// Time `f` as the round's next op. `f` returns the op's verdict and
    /// whatever later ops need.
    pub fn op<T>(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        kind: OpKind,
        f: impl FnOnce(&mut Recorder) -> (Check, T),
    ) -> T {
        rec.set_op(self.ops.len());
        let start = Instant::now();
        let (check, out) = rec.span(name, f);
        let seconds = start.elapsed().as_secs_f64();
        rec.after_op(seconds);
        self.ops.push(OpRecord {
            name,
            kind,
            seconds,
            check,
        });
        out
    }

    /// Time the round's prep op: `f(rec, repetition)` turns the input into
    /// ready-to-run objects. Set-up takes 0.05–1 ms, where one sample per
    /// round is mostly jitter, so it runs [`PREP_REPEATS`] times on fresh
    /// state and the fastest repetition is the op's time. Only the last
    /// repetition records spans and hands its objects to the round.
    pub fn prep<T>(
        &mut self,
        rec: &mut Recorder,
        mut f: impl FnMut(&mut Recorder, usize) -> T,
    ) -> T {
        let tracing = rec.enabled();
        rec.set_enabled(false);
        let mut seconds = f64::INFINITY;
        for repetition in 0..PREP_REPEATS - 1 {
            let start = Instant::now();
            let built = f(rec, repetition);
            seconds = seconds.min(start.elapsed().as_secs_f64());
            drop(built);
        }
        rec.set_enabled(tracing);
        rec.set_op(self.ops.len());
        let start = Instant::now();
        let built = rec.span("prep", |rec| f(rec, PREP_REPEATS - 1));
        seconds = seconds.min(start.elapsed().as_secs_f64());
        rec.after_op(seconds);
        self.ops.push(OpRecord {
            name: "prep",
            kind: OpKind::Prep,
            seconds,
            check: Check::plain(true),
        });
        built
    }

    /// Wall-clock of the most recent op.
    pub fn last_seconds(&self) -> f64 {
        self.ops.last().map_or(0.0, |o| o.seconds)
    }

    fn wall(&self) -> f64 {
        self.ops.iter().map(|o| o.seconds).sum()
    }
}

/// A benchmark workload; see `workloads/`.
pub trait Workload {
    /// Run one round on fresh objects. The first call is the warm-up: it
    /// also computes the references the checks compare against.
    fn round(&mut self, rec: &mut Recorder) -> Round;
    /// `(worst max_violation, worst relative objective gap)` over the final
    /// solutions of the most recent round.
    fn quality(&self) -> (f64, f64);
    /// Traced runs only, after the rounds: probes of the layers this
    /// workload exercises, as one or more passes of layer values that are
    /// merged like the traced rounds' (times take the fast-half mean of
    /// the passes, counts must repeat).
    fn probes(&mut self) -> Vec<Vec<(&'static str, f64)>>;
}

/// The end-to-end view of a set of rounds.
#[derive(Debug, Clone)]
pub struct EndToEndValues {
    pub setup_s: f64,
    pub round_s: f64,
    pub solves_per_s: f64,
    pub op_p50_ms: f64,
    pub op_max_ms: f64,
}

/// Fast-half mean over rounds per op index, folded into the end-to-end
/// timings (in measured seconds; the caller calibrates).
pub fn end_to_end(rounds: &[Round]) -> EndToEndValues {
    let seconds: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| r.ops.iter().map(|o| o.seconds).collect())
        .collect();
    let best = fast_half_per_op(&seconds);
    let ops = &rounds[0].ops;
    let sum_of = |pred: &dyn Fn(OpKind) -> bool| -> f64 {
        ops.iter()
            .zip(&best)
            .filter(|(o, _)| pred(o.kind))
            .map(|(_, &b)| b)
            .sum()
    };
    let setup_s = sum_of(&|k| k == OpKind::Prep);
    let round_s = sum_of(&|k| k != OpKind::Prep);
    let principal_ms: Vec<f64> = ops
        .iter()
        .zip(&best)
        .filter(|(o, _)| o.kind == OpKind::Principal)
        .map(|(_, &b)| b * 1e3)
        .collect();
    let solves: usize = ops.iter().map(|o| o.check.solves).sum();
    EndToEndValues {
        setup_s,
        round_s,
        solves_per_s: solves as f64 / round_s,
        op_p50_ms: median(&principal_ms),
        op_max_ms: percentile(&principal_ms, 100.0),
    }
}

/// Ops of `round` that failed: not ok, or whose result bits differ from the
/// warm-up round's op at the same index. A round with a different op
/// sequence fails entirely.
pub fn failed_ops(warmup: &Round, round: &Round) -> usize {
    if warmup.ops.len() != round.ops.len() {
        return round.ops.len().max(1);
    }
    warmup
        .ops
        .iter()
        .zip(&round.ops)
        .filter(|(w, o)| {
            !o.check.ok || w.name != o.name || w.check.fingerprint != o.check.fingerprint
        })
        .count()
}

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Measurement budget for the timed rounds.
    pub seconds: f64,
    /// Record spans and per-layer metrics: untraced and traced rounds
    /// alternate for half the budget, at least [`TRACE_ROUNDS`] of each.
    pub trace: bool,
    /// Fixed number of timed rounds (the smoke run uses 2); `None` runs
    /// until the time budget is spent, within `[MIN_ROUNDS, MAX_ROUNDS]`.
    pub fixed_rounds: Option<usize>,
    /// Sample the calibration kernel after every op of the timed rounds
    /// and report wall-clock metrics in calibrated seconds (off for the
    /// smoke run, whose debug-build kernel would dominate it).
    pub calibrate: bool,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// End-to-end metrics in [`END_TO_END`] order (untraced rounds only).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics in [`PER_LAYER`] order; empty for untraced runs.
    pub per_layer: Vec<(&'static str, f64)>,
    pub attempted: usize,
    pub failed: usize,
    /// Timed untraced rounds.
    pub rounds: usize,
    pub noise_ratio: f64,
    pub warmup_s: f64,
    /// Calibrated seconds per measured second (see [`calibrate`]).
    pub calibration: f64,
    /// Problems found outside any single op (count mismatches across
    /// traced rounds).
    pub errors: Vec<String>,
    /// The recorder, for the trace file.
    pub recorder: Recorder,
}

/// Drive `workload` through a warm-up and the timed rounds.
pub fn run(
    workload: &mut dyn Workload,
    cfg: RunConfig,
    peak_rss_mb: impl Fn() -> f64,
) -> RunOutput {
    let mut rec = Recorder::new(false);
    let mut next_round = 0usize;
    let mut run_round = |rec: &mut Recorder, traced: bool| -> Round {
        rec.set_enabled(traced);
        rec.set_round(next_round);
        next_round += 1;
        workload.round(rec)
    };

    let warm_start = Instant::now();
    let warmup = run_round(&mut rec, false);
    let warmup_s = warm_start.elapsed().as_secs_f64();
    // From here on: the warm-up is not timed, so it is not calibrated.
    if cfg.calibrate {
        rec.calibrate();
    }

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    if cfg.trace {
        // Interleaved pairs, so a burst of host noise hits both kinds; the
        // other half of the budget is left for the probes.
        let start = Instant::now();
        let pairs = cfg.fixed_rounds.unwrap_or(MAX_ROUNDS);
        while traced.len() < TRACE_ROUNDS.min(pairs)
            || (traced.len() < pairs && start.elapsed().as_secs_f64() < cfg.seconds / 2.0)
        {
            untraced.push(run_round(&mut rec, false));
            traced.push(run_round(&mut rec, true));
        }
    } else {
        let start = Instant::now();
        loop {
            let done = untraced.len();
            let more = match cfg.fixed_rounds {
                Some(n) => done < n,
                None => {
                    done < MIN_ROUNDS
                        || (done < MAX_ROUNDS && start.elapsed().as_secs_f64() < cfg.seconds)
                }
            };
            if !more {
                break;
            }
            untraced.push(run_round(&mut rec, false));
        }
    }
    rec.set_enabled(false);

    let mut attempted = 0;
    let mut failed = 0;
    for round in untraced.iter().chain(&traced) {
        attempted += round.ops.len();
        failed += failed_ops(&warmup, round);
    }
    // A warm-up that itself failed its checks fails every later round too
    // (same bits), so it needs no separate accounting.

    let e2e = end_to_end(&untraced);
    let (worst_violation, worst_gap) = workload.quality();
    let walls: Vec<f64> = untraced.iter().map(Round::wall).collect();
    let noise = noise_ratio(&walls);
    let calibration = calibrate::factor(rec.slices());
    let values = [
        e2e.setup_s * calibration,
        e2e.round_s * calibration,
        e2e.solves_per_s / calibration,
        e2e.op_p50_ms * calibration,
        e2e.op_max_ms * calibration,
        digits(worst_violation),
        digits(worst_gap),
        (attempted - failed) as f64 / attempted as f64,
        peak_rss_mb(),
    ];
    let end_to_end_out = END_TO_END.iter().map(|m| m.name).zip(values).collect();

    let mut errors = Vec::new();
    let mut per_layer = Vec::new();
    if cfg.trace {
        let mut passes: Vec<Vec<_>> = traced
            .iter_mut()
            .map(|r| std::mem::take(&mut r.layer))
            .collect();
        passes.extend(workload.probes());
        let mut merged = merge_layers(&passes, &rec, &mut errors);
        derive_ratios(&mut merged);
        let traced_e2e = end_to_end(&traced);
        // Times in calibrated seconds, like the end-to-end metrics.
        for (name, value) in merged.iter_mut() {
            if layer(name).is_some_and(|l| matches!(l.unit, "s" | "ms" | "us")) {
                *value *= calibration;
            }
        }
        merged.insert("bench.calibration", calibration);
        merged.insert("bench.raw_round_s", e2e.round_s);
        merged.insert("bench.noise_ratio", noise);
        merged.insert(
            "bench.trace_overhead",
            (traced_e2e.round_s - e2e.round_s) / e2e.round_s,
        );
        merged.insert("bench.warmup_s", warmup_s);
        merged.insert("bench.host_cores", host_cores() as f64);
        merged.insert("bench.rounds", traced.len() as f64);
        per_layer = PER_LAYER
            .iter()
            .map(|m| (m.name, merged.get(m.name).copied().unwrap_or(0.0)))
            .collect();
    }

    RunOutput {
        end_to_end: end_to_end_out,
        per_layer,
        attempted,
        failed,
        rounds: untraced.len(),
        noise_ratio: noise,
        warmup_s,
        calibration,
        errors,
        recorder: rec,
    }
}

/// `available_parallelism`, 1 when unknown.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Combine passes of layer values (the traced rounds', then the probes'):
/// times take the fast-half mean, counts must repeat exactly. Span totals join
/// under their metric names.
fn merge_layers(
    passes: &[Vec<(&'static str, f64)>],
    rec: &Recorder,
    errors: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &(name, value) in passes.iter().flatten() {
        samples.entry(name).or_default().push(value);
    }
    for (span, metric, scale) in SPAN_METRICS {
        let by_round = rec.seconds_by_round(span);
        if !by_round.is_empty() {
            samples.insert(metric, by_round.values().map(|s| s * scale).collect());
        }
    }
    let mut merged = BTreeMap::new();
    for (name, values) in samples {
        // Intermediate `_` values follow their suffix: `_s` is a time.
        let exact = match layer(name) {
            Some(l) => l.merge == Merge::Exact,
            None => !name.ends_with("_s"),
        };
        if exact && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            errors.push(format!("{name} did not repeat across rounds: {values:?}"));
        }
        let value = if exact {
            values[0]
        } else {
            fast_half_mean(&values)
        };
        merged.insert(name, value);
    }
    merged
}

/// Ratios of merged values; the same formulas on every workload, zero
/// where the workload does not exercise the layer.
fn derive_ratios(m: &mut BTreeMap<&'static str, f64>) {
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let tron_s = get(m, "batch.kernel.branch_tron_s");
    let kernel_wall = get(m, "_kernel_wall_s");
    m.insert(
        "tron.us_per_block",
        ratio(tron_s * 1e6, get(m, "_tron_blocks")),
    );
    m.insert("tron.share", ratio(tron_s, kernel_wall));
    m.insert(
        "admm.us_per_inner_iter",
        ratio(kernel_wall * 1e6, get(m, "admm.inner_iters")),
    );
    m.insert(
        "ipm.ms_per_iteration",
        ratio(kernel_wall * 1e3, get(m, "ipm.iterations")),
    );
    m.insert(
        "store.hit_rate",
        ratio(get(m, "store.hits"), get(m, "store.lookups")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(name: &'static str, kind: OpKind, seconds: f64, fingerprint: u64) -> OpRecord {
        OpRecord {
            name,
            kind,
            seconds,
            check: Check {
                ok: true,
                solves: usize::from(kind == OpKind::Principal),
                fingerprint,
            },
        }
    }

    fn round(times: [f64; 4]) -> Round {
        Round {
            ops: vec![
                op("prep", OpKind::Prep, times[0], 0),
                op("a", OpKind::Principal, times[1], 11),
                op("save", OpKind::Other, times[2], 0),
                op("b", OpKind::Principal, times[3], 22),
            ],
            layer: Vec::new(),
        }
    }

    #[test]
    fn end_to_end_sums_the_per_op_fast_halves() {
        // Three rounds: each op counts the mean of its two fastest samples.
        let rounds = [
            round([0.02, 1.0, 0.1, 3.0]),
            round([0.01, 1.5, 0.2, 2.0]),
            round([0.03, 1.2, 0.1, 2.5]),
        ];
        let e = end_to_end(&rounds);
        assert!((e.setup_s - 0.015).abs() < 1e-12);
        assert!((e.round_s - 3.45).abs() < 1e-12);
        assert!((e.solves_per_s - 2.0 / 3.45).abs() < 1e-12);
        assert!((e.op_p50_ms - 1100.0).abs() < 1e-9);
        assert!((e.op_max_ms - 2250.0).abs() < 1e-9);
    }

    #[test]
    fn doctored_round_fails_the_determinism_guard() {
        let warmup = round([0.0; 4]);
        assert_eq!(failed_ops(&warmup, &round([1.0; 4])), 0);

        let mut flipped = round([1.0; 4]);
        flipped.ops[3].check.fingerprint ^= 1; // one objective bit
        assert_eq!(failed_ops(&warmup, &flipped), 1);

        let mut unconverged = round([1.0; 4]);
        unconverged.ops[1].check.ok = false;
        assert_eq!(failed_ops(&warmup, &unconverged), 1);

        let mut short = round([1.0; 4]);
        short.ops.pop();
        assert_eq!(failed_ops(&warmup, &short), 3);
    }

    #[test]
    fn counts_must_repeat_and_times_take_the_fast_half() {
        let a = vec![
            ("batch.launches", 10.0),
            ("batch.kernel_busy_s", 2.0),
            ("_kernel_wall_s", 4.0),
        ];
        let b = vec![
            ("batch.launches", 11.0),
            ("batch.kernel_busy_s", 1.5),
            ("_kernel_wall_s", 3.0),
        ];
        let mut errors = Vec::new();
        let merged = merge_layers(&[a, b], &Recorder::new(false), &mut errors);
        assert_eq!(merged["batch.kernel_busy_s"], 1.5);
        assert_eq!(merged["_kernel_wall_s"], 3.0);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("batch.launches did not repeat"));
    }

    #[test]
    fn ratios_are_zero_where_a_layer_is_idle() {
        let mut m = BTreeMap::new();
        m.insert("batch.kernel.branch_tron_s", 0.9);
        m.insert("_kernel_wall_s", 1.0);
        m.insert("_tron_blocks", 9.0);
        derive_ratios(&mut m);
        assert_eq!(m["tron.share"], 0.9);
        assert!((m["tron.us_per_block"] - 1e5).abs() < 1e-6);
        assert_eq!(m["ipm.ms_per_iteration"], 0.0);
        assert_eq!(m["store.hit_rate"], 0.0);
    }
}
