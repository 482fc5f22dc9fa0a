//! The driver's own span recorder.
//!
//! Spans are recorded from *outside* the layers: the workloads wrap each
//! call into a crate's public function. A span is a name, a start and end
//! (nanoseconds since the recorder's epoch), the span that caused it, and
//! the round / op index it ran under. Spans stay in memory and are written
//! out once, after measurement ends. A disabled recorder runs the closure
//! and records nothing, which is how the end-to-end rounds run.
//!
//! The recorder is the one object the harness hands a workload's round, so
//! it also carries the calibration sampler: when calibrating, every op is
//! followed by slices of the reference kernel (see [`crate::calibrate`]).

use crate::calibrate;
use crate::stats::self_times;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `grid.compile` or `op.period`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round the span ran in (0 is the warm-up).
    pub round: usize,
    /// Op index within the round.
    pub op: usize,
}

/// In-memory span recorder; see the [module docs](self).
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: usize,
    op: usize,
    calibrating: bool,
    slices: Vec<f64>,
}

impl Recorder {
    /// A recorder; disabled ones only run the closures they are handed.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
            op: 0,
            calibrating: false,
            slices: Vec::new(),
        }
    }

    /// Start sampling the calibration kernel after every op.
    pub fn calibrate(&mut self) {
        self.calibrating = true;
    }

    /// Called after an op that took `op_seconds`: when calibrating, run
    /// and keep the kernel slices that cover it.
    pub fn after_op(&mut self, op_seconds: f64) {
        if self.calibrating {
            let n = calibrate::slices_after(op_seconds);
            self.slices.extend((0..n).map(|_| calibrate::slice()));
        }
    }

    /// Every kernel slice sampled so far, in seconds.
    pub fn slices(&self) -> &[f64] {
        &self.slices
    }

    /// True when spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between rounds (traced runs interleave
    /// untraced rounds to measure the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(
            self.stack.is_empty(),
            "toggle the recorder between spans only"
        );
        self.enabled = enabled;
    }

    /// Tag subsequent spans with this round (0 is the warm-up).
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
        self.op = 0;
    }

    /// Tag subsequent spans with this op index within the round.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`. Spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            round: self.round,
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans called `name`, per round, for the
    /// rounds that recorded at least one such span.
    pub fn seconds_by_round(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut by_round = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_round.entry(s.round).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        by_round
    }

    /// Render the trace file: the raw spans plus, per span name, the call
    /// count, total time and self time (time not covered by child spans).
    pub fn to_json(&self, workload: &str, provenance: &str) -> String {
        let intervals: Vec<_> = self
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.parent))
            .collect();
        let own = self_times(&intervals);
        // name -> (calls, total ns, self ns)
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
        }
        let mut out =
            format!("{{\"workload\":\"{workload}\",\"provenance\":{provenance},\"summary\":[");
        for (i, (name, (calls, total, own))) in by_name.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"calls\":{calls},\"total_ns\":{total},\"self_ns\":{own}}}"
            ));
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"round\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round, s.op
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("a", |rec| rec.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_tags() {
        let mut rec = Recorder::new(true);
        rec.set_round(2);
        rec.set_op(5);
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
            rec.span("inner", |_| ());
        });
        rec.span("next", |_| ());
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(s.iter().all(|s| s.round == 2 && s.op == 5));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(rec.seconds_by_round("inner").len(), 1);
        assert!(rec.seconds_by_round("missing").is_empty());
    }

    #[test]
    fn trace_file_lists_summary_and_spans() {
        let mut rec = Recorder::new(true);
        rec.span("outer", |rec| rec.span("inner", |_| ()));
        let json = rec.to_json("cold", "{}");
        assert!(json.starts_with("{\"workload\":\"cold\""));
        assert!(json.contains("\"name\":\"inner\",\"calls\":1"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
    }
}
