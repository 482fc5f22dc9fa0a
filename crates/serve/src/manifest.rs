//! The durable job manifest: the daemon's crash-consistent ledger.
//!
//! One manifest file per job holds the spec, a per-scenario status record,
//! and the completed results. The daemon rewrites it atomically
//! (temp-file-plus-rename) after every chunk, so at any kill point the file
//! on disk is a complete, internally consistent snapshot: a restarted
//! daemon re-runs exactly the chunks whose results never hit the disk and
//! trusts everything that did. Because a chunk is one deterministic fleet
//! run over a deterministic index range, the re-run reproduces bitwise the
//! results the killed run would have produced (see
//! [`crate::daemon`] for the store-freezing half of that argument).

use crate::spec::JobSpec;
use serde::{DeError, Deserialize, Serialize, Value};
use std::io;
use std::path::Path;

/// Manifest format version; bump on any change to the on-disk shape.
pub(crate) const MANIFEST_VERSION: u64 = 1;

/// Lifecycle of one scenario inside a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ScenarioState {
    /// Not yet solved (or failed with retries remaining).
    Pending,
    /// Solved and its result persisted.
    Done,
    /// Failed with retries exhausted; terminal.
    Failed,
}

/// Status record of one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioRecord {
    /// Current lifecycle state.
    pub state: ScenarioState,
    /// Solve attempts consumed so far.
    pub attempts: usize,
}

/// Counts of scenarios per state — the progress surface of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct JobCounts {
    /// Scenarios not yet solved.
    pub pending: usize,
    /// Scenarios solved and persisted.
    pub done: usize,
    /// Scenarios permanently failed.
    pub failed: usize,
}

/// The durable per-job ledger. See the module docs of `manifest.rs`.
#[derive(Debug, Clone)]
pub struct JobManifest {
    /// The submitted spec, verbatim.
    pub spec: JobSpec,
    /// Per-scenario status, index-aligned with [`JobSpec::networks`].
    pub records: Vec<ScenarioRecord>,
    /// Per-scenario results (the solver family's result struct as a
    /// serialized value tree); `None` until the scenario is `Done`.
    pub results: Vec<Option<Value>>,
    /// True once the job's converged results have been committed to the
    /// solution store and the store flushed — commits are deferred to job
    /// completion and must happen exactly once across restarts.
    pub store_committed: bool,
    /// Daemon-assigned submission sequence number: the FIFO tie-break key
    /// for equal-priority jobs, persisted so the queue order survives a
    /// restart.
    pub submitted: u64,
}

impl JobManifest {
    /// A fresh manifest for the `submitted`-th job: every scenario
    /// pending, no results.
    pub fn new(spec: JobSpec, submitted: u64) -> JobManifest {
        let n = spec.scenario_count();
        JobManifest {
            spec,
            submitted,
            records: vec![
                ScenarioRecord {
                    state: ScenarioState::Pending,
                    attempts: 0,
                };
                n
            ],
            results: vec![None; n],
            store_committed: false,
        }
    }

    /// Progress counts.
    pub fn counts(&self) -> JobCounts {
        let mut c = JobCounts::default();
        for r in &self.records {
            match r.state {
                ScenarioState::Pending => c.pending += 1,
                ScenarioState::Done => c.done += 1,
                ScenarioState::Failed => c.failed += 1,
            }
        }
        c
    }

    /// True when no scenario is pending (every one is `Done` or `Failed`).
    pub fn is_complete(&self) -> bool {
        self.counts().pending == 0
    }

    /// Record a solved scenario.
    pub fn record_done(&mut self, index: usize, result: Value) {
        let r = &mut self.records[index];
        r.state = ScenarioState::Done;
        r.attempts += 1;
        self.results[index] = Some(result);
    }

    /// Record a failed attempt; the scenario turns `Failed` once its
    /// attempts exceed the spec's `max_retries` budget (first attempt +
    /// `max_retries` re-solves).
    pub(crate) fn record_failure(&mut self, index: usize) {
        let max_attempts = 1 + self.spec.max_retries;
        let r = &mut self.records[index];
        r.attempts += 1;
        if r.attempts >= max_attempts {
            r.state = ScenarioState::Failed;
        }
    }

    /// The fixed chunk partition: consecutive index ranges of
    /// `spec.chunk_size`. Chunks are identified by their position in this
    /// partition, so the partition — and therefore which scenarios share a
    /// fleet run — is independent of completion state, which is what makes
    /// a resumed job reproduce an uninterrupted one bitwise.
    pub(crate) fn chunks(&self) -> Vec<Vec<usize>> {
        (0..self.records.len())
            .collect::<Vec<_>>()
            .chunks(self.spec.chunk_size.max(1))
            .map(|c| c.to_vec())
            .collect()
    }

    /// Write the manifest to `path` atomically (temp file + rename).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let text = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }

    /// Read a manifest written by [`save`](JobManifest::save).
    pub fn load(path: &Path) -> io::Result<JobManifest> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

// Hand-written (not derived) because `results` nests `Option<Value>` and
// the version gate must reject future formats with a clear error.
impl Serialize for JobManifest {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("version".to_string(), Value::Num(MANIFEST_VERSION as f64)),
            ("spec".to_string(), self.spec.to_value()),
            ("records".to_string(), self.records.to_value()),
            ("results".to_string(), self.results.to_value()),
            (
                "store_committed".to_string(),
                Value::Bool(self.store_committed),
            ),
            ("submitted".to_string(), Value::Num(self.submitted as f64)),
        ])
    }
}

impl Deserialize for JobManifest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let version: u64 = serde::field(v, "version")?;
        if version != MANIFEST_VERSION {
            return Err(DeError::custom(format!(
                "job manifest format version {version} (this build reads {MANIFEST_VERSION})"
            )));
        }
        let m = JobManifest {
            spec: serde::field(v, "spec")?,
            records: serde::field(v, "records")?,
            results: serde::field(v, "results")?,
            store_committed: serde::field(v, "store_committed")?,
            submitted: serde::field(v, "submitted")?,
        };
        if m.records.len() != m.spec.scenario_count() || m.results.len() != m.records.len() {
            return Err(DeError::custom("manifest record/result arity mismatch"));
        }
        if let Some(i) = (m.records.iter().zip(&m.results))
            .position(|(r, res)| r.state == ScenarioState::Done && res.is_none())
        {
            return Err(DeError::custom(format!(
                "manifest scenario {i} is done but has no recorded result"
            )));
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CaseName, ScenarioSpec, SolverFamily};

    fn spec() -> JobSpec {
        JobSpec::new(
            "m",
            CaseName::Case9,
            ScenarioSpec::load_ramp(5, 0.9, 1.1),
            SolverFamily::Admm,
        )
        .chunk_size(2)
        .retries(1, 5)
    }

    #[test]
    fn lifecycle_counts_and_chunks() {
        let mut m = JobManifest::new(spec(), 0);
        assert_eq!(m.counts().pending, 5);
        assert_eq!(m.chunks(), vec![vec![0, 1], vec![2, 3], vec![4]]);
        m.record_done(0, Value::Num(1.0));
        m.record_failure(1); // attempt 1 of 2 → still pending
        assert_eq!(m.records[1].state, ScenarioState::Pending);
        m.record_failure(1); // attempts exhausted → failed
        assert_eq!(m.records[1].state, ScenarioState::Failed);
        let c = m.counts();
        assert_eq!((c.pending, c.done, c.failed), (3, 1, 1));
        assert!(!m.is_complete());
    }

    #[test]
    fn save_load_round_trips() {
        let mut m = JobManifest::new(spec(), 0);
        m.record_done(
            2,
            Value::Seq(vec![Value::Num(-0.0), Value::Str("x".into())]),
        );
        m.record_failure(4);
        let dir = std::env::temp_dir().join("gridsim-serve-manifest-rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        m.save(&path).unwrap();
        let back = JobManifest::load(&path).unwrap();
        assert_eq!(back.spec, m.spec);
        assert_eq!(back.records, m.records);
        assert_eq!(back.results, m.results);
        assert_eq!(back.store_committed, m.store_committed);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let m = JobManifest::new(spec(), 0);
        let text = serde_json::to_string(&m).unwrap();
        let bumped = text.replacen("\"version\":1", "\"version\":99", 1);
        let err = serde_json::from_str::<JobManifest>(&bumped).unwrap_err();
        assert!(err.to_string().contains("format version"), "{err}");
    }
}
