//! The acceptance contract of the daemon binary: `kill -9` a running
//! `gridsim-served` mid-batch, restart it on the same state directory, and
//! the drained results are bitwise identical to an uninterrupted run, with
//! no finished scenario re-solved.

use gridsim_serve::{JobManifest, ScenarioState, THROTTLE_ENV};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_gridsim-served");

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridsim-served-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit(dir: &Path) {
    let status = Command::new(BIN)
        .args(["--dir", dir.to_str().unwrap()])
        .args(["submit", "killjob", "case9", "perturbed", "6", "ipm"])
        .args(["--chunk-size", "1", "--sigma", "0.01", "--seed", "3"])
        .status()
        .expect("spawn gridsim-served submit");
    assert!(status.success(), "submit failed");
}

fn run_to_completion(dir: &Path) {
    let status = Command::new(BIN)
        .args(["--dir", dir.to_str().unwrap()])
        .args(["run", "--slots", "1"])
        .env_remove(THROTTLE_ENV)
        .status()
        .expect("spawn gridsim-served run");
    assert!(status.success(), "run failed");
}

/// Drop wall-clock fields so result trees compare bitwise across runs.
fn strip_times(v: &Value) -> Value {
    match v {
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .filter(|(k, _)| k != "solve_time")
                .map(|(k, val)| (k.clone(), strip_times(val)))
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.iter().map(strip_times).collect()),
        other => other.clone(),
    }
}

#[test]
fn sigkill_mid_batch_resumes_without_resolving_finished_scenarios() {
    // Reference: uninterrupted run of the identical job.
    let ref_dir = fresh_dir("ref");
    submit(&ref_dir);
    run_to_completion(&ref_dir);
    let reference = JobManifest::load(&ref_dir.join("jobs/killjob.json")).unwrap();
    assert!(reference.is_complete());
    assert_eq!(reference.counts().done, 6, "reference run failed scenarios");

    // Victim: throttled so every chunk takes ≥ 400 ms, killed -9 once the
    // manifest shows partial progress.
    let kill_dir = fresh_dir("kill");
    submit(&kill_dir);
    let mut child = Command::new(BIN)
        .args(["--dir", kill_dir.to_str().unwrap()])
        .args(["run", "--slots", "1"])
        .env(THROTTLE_ENV, "400")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn throttled gridsim-served run");

    let manifest_path = kill_dir.join("jobs/killjob.json");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mid = loop {
        assert!(Instant::now() < deadline, "daemon made no progress to kill");
        std::thread::sleep(Duration::from_millis(25));
        if let Ok(m) = JobManifest::load(&manifest_path) {
            let done = m.counts().done;
            if done >= 1 && !m.is_complete() {
                break m;
            }
            assert!(!m.is_complete(), "daemon finished before the kill landed");
        }
    };
    child.kill().expect("SIGKILL the daemon"); // SIGKILL on unix
    child.wait().unwrap();

    // The on-disk ledger is a consistent partial state.
    let finished_early: Vec<usize> = (0..6)
        .filter(|&i| mid.records[i].state == ScenarioState::Done)
        .collect();
    assert!(!finished_early.is_empty());

    // Restart on the same directory and drain.
    run_to_completion(&kill_dir);
    let resumed = JobManifest::load(&manifest_path).unwrap();
    assert!(resumed.is_complete() && resumed.store_committed);

    // No finished scenario was re-solved: attempts unchanged and the
    // recorded values are the very bytes that were on disk at kill time.
    for &i in &finished_early {
        assert_eq!(resumed.records[i].attempts, mid.records[i].attempts);
        assert_eq!(
            resumed.results[i], mid.results[i],
            "scenario {i} was re-solved after the kill"
        );
    }

    // Bitwise identity with the uninterrupted run (modulo wall-clock).
    assert_eq!(resumed.records, reference.records);
    for i in 0..6 {
        assert_eq!(
            resumed.results[i].as_ref().map(strip_times),
            reference.results[i].as_ref().map(strip_times),
            "scenario {i} differs from the uninterrupted run"
        );
    }
    // The committed store snapshots are binary and agree byte for byte too
    // (solver state only — no wall-clock fields are persisted in warm-start
    // payloads).
    let killed_store = std::fs::read(kill_dir.join("store-ipm.json")).unwrap();
    let reference_store = std::fs::read(ref_dir.join("store-ipm.json")).unwrap();
    assert!(killed_store.starts_with(&gridsim_store::persist::MAGIC));
    assert!(reference_store.starts_with(&gridsim_store::persist::MAGIC));
    assert!(
        killed_store == reference_store,
        "killed-and-resumed and uninterrupted store files differ"
    );
}
