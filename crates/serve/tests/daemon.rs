//! Daemon behavior: scheduling order, backpressure, retries, store
//! snapshot freezing, and the crash/resume bitwise contract (in-process
//! via the controlled-interruption hook; the separate `kill_resume` suite
//! drives the real binary with SIGKILL).

use gridsim_serve::{
    run_chunk, CaseName, FrozenStores, JobManifest, JobSpec, ScenarioSpec, ScenarioState,
    ServeDaemon, SolverFamily,
};
use gridsim_store::SolutionStore;
use serde::{Deserialize, Value};
use std::path::PathBuf;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridsim-serve-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

fn results_without_times(m: &JobManifest) -> Vec<Option<Value>> {
    m.results
        .iter()
        .map(|r| r.as_ref().map(strip_times))
        .collect()
}

#[test]
fn drains_jobs_and_reports_status() {
    let dir = fresh_dir("drain");
    let daemon = ServeDaemon::open(&dir, 2).unwrap();
    let ipm = daemon
        .submit(
            JobSpec::new(
                "ipm-job",
                CaseName::Case9,
                ScenarioSpec::perturbed(3, 0.01, 11),
                SolverFamily::Ipm,
            )
            .chunk_size(2),
        )
        .unwrap();
    let admm = daemon
        .submit(
            JobSpec::new(
                "admm-job",
                CaseName::Case9,
                ScenarioSpec::load_ramp(2, 0.98, 1.02),
                SolverFamily::Admm,
            )
            .chunk_size(1),
        )
        .unwrap();
    assert_eq!(ipm.status().counts.pending, 3);
    daemon.run_until_idle().unwrap();

    for handle in [&ipm, &admm] {
        let s = handle.status();
        assert!(s.complete, "{} incomplete: {:?}", s.name, s.counts);
        assert_eq!(s.counts.failed, 0, "{}", s.name);
        assert_eq!(s.counts.pending, 0);
        assert!(s.store_committed);
        assert_eq!(s.store.inserts, s.counts.done);
    }
    // The ledger on disk agrees and every scenario took exactly one attempt.
    let m = JobManifest::load(&dir.join("jobs/ipm-job.json")).unwrap();
    assert!(m.records.iter().all(|r| r.attempts == 1));
    assert!(m.records.iter().all(|r| r.state == ScenarioState::Done));
    // Both family stores were flushed.
    assert!(dir.join("store-ipm.json").exists());
    assert!(dir.join("store-admm.json").exists());
    // Duplicate names are rejected.
    let err = daemon
        .submit(JobSpec::new(
            "ipm-job",
            CaseName::Case9,
            ScenarioSpec::outages(1),
            SolverFamily::Ipm,
        ))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
}

/// An IPM chunk shares one symbolic analysis like every other fleet
/// caller: its scenarios run on a lane each, and every lane's Newton steps
/// replay the one frozen system of the chunk's single structure, billed to
/// its first scenario.
#[test]
fn ipm_chunk_reuses_its_symbolic_analysis() {
    let spec = JobSpec::new(
        "ipm-chunk",
        CaseName::Case9,
        ScenarioSpec::load_ramp(3, 0.98, 1.02),
        SolverFamily::Ipm,
    );
    let nets = spec.networks().unwrap();
    let stores = FrozenStores::freeze(&SolutionStore::new(), &SolutionStore::new());
    let outcome = run_chunk(&spec, &nets, &[0, 1, 2], &stores);
    assert_eq!(outcome.scenarios.len(), 3);
    let mut billed = Vec::new();
    for s in &outcome.scenarios {
        assert!(s.converged, "scenario {}", s.index);
        let r = gridsim_ipm::FleetScenarioResult::from_value(&s.result).unwrap();
        assert!(
            r.report.symbolic_analyses < r.report.factorizations,
            "scenario {}: {} analyses for {} factorizations",
            s.index,
            r.report.symbolic_analyses,
            r.report.factorizations
        );
        billed.push(r.report.symbolic_analyses);
    }
    assert_eq!(billed, [1, 0, 0], "one analysis for the chunk");
}

#[test]
fn interrupted_run_resumes_bitwise_identical_without_resolving() {
    let spec = || {
        JobSpec::new(
            "ramp",
            CaseName::Case9,
            ScenarioSpec::load_ramp(5, 0.95, 1.05),
            SolverFamily::Admm,
        )
        .chunk_size(2)
    };

    // Reference: one uninterrupted drain.
    let ref_dir = fresh_dir("resume-ref");
    let daemon = ServeDaemon::open(&ref_dir, 1).unwrap();
    daemon.submit(spec()).unwrap();
    daemon.run_until_idle().unwrap();
    let reference = JobManifest::load(&ref_dir.join("jobs/ramp.json")).unwrap();

    // Interrupted: run exactly one chunk, drop the daemon (as a kill
    // would), reopen the directory, drain.
    let dir = fresh_dir("resume-cut");
    let daemon = ServeDaemon::open(&dir, 1).unwrap();
    daemon.submit(spec()).unwrap();
    let done_chunks = daemon.run_chunks(1).unwrap();
    assert_eq!(done_chunks, 1);
    drop(daemon);
    let mid = JobManifest::load(&dir.join("jobs/ramp.json")).unwrap();
    let finished_early: Vec<usize> = (0..5)
        .filter(|&i| mid.records[i].state == ScenarioState::Done)
        .collect();
    assert!(!finished_early.is_empty(), "one chunk should have finished");
    assert!(!mid.is_complete());

    let daemon = ServeDaemon::open(&dir, 1).unwrap();
    daemon.run_until_idle().unwrap();
    let resumed = JobManifest::load(&dir.join("jobs/ramp.json")).unwrap();

    // Scenarios finished before the cut were not re-solved: attempts
    // unchanged and the recorded result values are the very ones on disk
    // at the cut point.
    for &i in &finished_early {
        assert_eq!(resumed.records[i].attempts, mid.records[i].attempts);
        assert_eq!(resumed.results[i], mid.results[i], "scenario {i} re-solved");
    }
    // And the full drained ledger matches the uninterrupted run bitwise.
    assert_eq!(
        results_without_times(&resumed),
        results_without_times(&reference)
    );
    assert_eq!(resumed.records, reference.records);
    // Deterministic store serialization: the flushed store files match too.
    assert_eq!(
        std::fs::read_to_string(dir.join("store-admm.json")).unwrap(),
        std::fs::read_to_string(ref_dir.join("store-admm.json")).unwrap()
    );
}

#[test]
fn screened_contingency_job_drains_and_is_deterministic() {
    let spec = || {
        JobSpec::new(
            "sweep",
            CaseName::Case9,
            ScenarioSpec::contingency(2, 0.97, 1.0, 2, 0.01, 7, 2, 0, 1),
            SolverFamily::Admm,
        )
        .screened(2e-2, 1e-1)
        .chunk_size(5)
    };

    let dir = fresh_dir("screen");
    let daemon = ServeDaemon::open(&dir, 2).unwrap();
    let handle = daemon.submit(spec()).unwrap();
    daemon.run_until_idle().unwrap();
    let s = handle.status();
    assert!(s.complete, "incomplete: {:?}", s.counts);
    assert_eq!(s.counts.failed, 0);
    assert!(s.store_committed);
    let m = JobManifest::load(&dir.join("jobs/sweep.json")).unwrap();
    // 2 levels x (uniform + 2 perturbed draws) x (base + 2 branch
    // outages + 1 gen outage).
    assert_eq!(m.records.len(), 24);
    assert!(m.records.iter().all(|r| r.state == ScenarioState::Done));
    // Every Done scenario carries a ScenarioResult the commit replayed.
    assert_eq!(s.store.inserts, 24);

    // Chunks mix benign (screening-only) and graduated scenarios, yet the
    // whole ledger is a pure function of the spec: a second daemon in a
    // fresh directory produces the same results bitwise.
    let dir2 = fresh_dir("screen-again");
    let daemon2 = ServeDaemon::open(&dir2, 1).unwrap();
    daemon2.submit(spec()).unwrap();
    daemon2.run_until_idle().unwrap();
    let m2 = JobManifest::load(&dir2.join("jobs/sweep.json")).unwrap();
    assert_eq!(results_without_times(&m2), results_without_times(&m));
}

#[test]
fn priority_wins_the_first_free_slot() {
    let dir = fresh_dir("priority");
    let daemon = ServeDaemon::open(&dir, 1).unwrap();
    let low = daemon
        .submit(
            JobSpec::new(
                "low",
                CaseName::TwoBus,
                ScenarioSpec::load_ramp(2, 0.98, 1.0),
                SolverFamily::Ipm,
            )
            .chunk_size(1)
            .priority(0),
        )
        .unwrap();
    let high = daemon
        .submit(
            JobSpec::new(
                "high",
                CaseName::TwoBus,
                ScenarioSpec::load_ramp(2, 0.98, 1.0),
                SolverFamily::Ipm,
            )
            .chunk_size(1)
            .priority(5),
        )
        .unwrap();
    // One slot, one chunk: the later-submitted but higher-priority job runs.
    daemon.run_chunks(1).unwrap();
    assert_eq!(high.status().counts.done, 1);
    assert_eq!(low.status().counts.done, 0);
    daemon.run_until_idle().unwrap();
    assert!(high.status().complete && low.status().complete);
}

#[test]
fn lane_cap_diverts_slots_to_lower_priority_tenants() {
    let dir = fresh_dir("backpressure");
    let daemon = ServeDaemon::open(&dir, 2).unwrap();
    let capped = daemon
        .submit(
            JobSpec::new(
                "capped",
                CaseName::TwoBus,
                ScenarioSpec::load_ramp(3, 0.98, 1.0),
                SolverFamily::Ipm,
            )
            .chunk_size(1)
            .priority(10)
            .max_lanes(1),
        )
        .unwrap();
    let other = daemon
        .submit(
            JobSpec::new(
                "other",
                CaseName::TwoBus,
                ScenarioSpec::load_ramp(3, 0.98, 1.0),
                SolverFamily::Ipm,
            )
            .chunk_size(1)
            .priority(0),
        )
        .unwrap();
    // Two slots, but the high-priority job may only hold one: the first
    // scheduling round must give the second slot to the other tenant.
    daemon.run_chunks(2).unwrap();
    let (c, o) = (capped.status(), other.status());
    assert_eq!(c.counts.done, 1, "cap violated: {c:?}");
    assert_eq!(o.counts.done, 1, "slot wasted: {o:?}");
    daemon.run_until_idle().unwrap();
    assert!(capped.status().complete && other.status().complete);
}

#[test]
fn retries_back_off_and_exhaust_to_failed() {
    let dir = fresh_dir("retries");
    let daemon = ServeDaemon::open(&dir, 1).unwrap();
    // A hopeless job: two_bus at 40x load never converges.
    let handle = daemon
        .submit(
            JobSpec::new(
                "doomed",
                CaseName::TwoBus,
                ScenarioSpec::load_ramp(1, 1.0, 1.0),
                SolverFamily::Admm,
            )
            .load_scale(40.0)
            .retries(1, 20),
        )
        .unwrap();
    let t0 = std::time::Instant::now();
    daemon.run_until_idle().unwrap();
    assert!(
        t0.elapsed() >= std::time::Duration::from_millis(20),
        "retry backoff was not honored"
    );
    let s = handle.status();
    assert!(s.complete);
    assert_eq!(s.counts.failed, 1);
    assert_eq!(s.store.inserts, 0, "failed scenarios must not be committed");
    let m = JobManifest::load(&dir.join("jobs/doomed.json")).unwrap();
    assert_eq!(m.records[0].attempts, 2); // first try + one retry
    assert_eq!(m.records[0].state, ScenarioState::Failed);
    assert!(m.results[0].is_none());
}

#[test]
fn store_snapshots_freeze_at_submit_and_reuse_across_restarts() {
    let dir = fresh_dir("store-reuse");
    let daemon = ServeDaemon::open(&dir, 1).unwrap();
    let first = daemon
        .submit(
            JobSpec::new(
                "first",
                CaseName::Case9,
                ScenarioSpec::load_ramp(2, 0.99, 1.0),
                SolverFamily::Ipm,
            )
            .chunk_size(1),
        )
        .unwrap();
    // Submitted before `first` completes: its snapshot is empty, so even
    // though it runs after `first` commits, it must see zero hits.
    let second = daemon
        .submit(
            JobSpec::new(
                "second",
                CaseName::Case9,
                ScenarioSpec::load_ramp(2, 0.99, 1.0),
                SolverFamily::Ipm,
            )
            .chunk_size(1)
            .priority(-1),
        )
        .unwrap();
    daemon.run_until_idle().unwrap();
    assert_eq!(first.status().store.hits, 0);
    assert_eq!(
        second.status().store.hits,
        0,
        "snapshot not frozen at submit"
    );
    assert_eq!(first.status().store.inserts, 2);
    drop(daemon);

    // A fresh daemon loads the flushed store; a new identical job now
    // warm-starts from it.
    let daemon = ServeDaemon::open(&dir, 1).unwrap();
    let third = daemon
        .submit(
            JobSpec::new(
                "third",
                CaseName::Case9,
                ScenarioSpec::load_ramp(2, 0.99, 1.0),
                SolverFamily::Ipm,
            )
            .chunk_size(1),
        )
        .unwrap();
    daemon.run_until_idle().unwrap();
    let s = third.status();
    assert!(s.complete && s.counts.failed == 0);
    assert_eq!(s.store.hits, 2, "reloaded store gave no warm starts: {s:?}");
}
