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
    // Deterministic store serialization: the flushed store files are binary
    // snapshots and match byte for byte.
    let resumed_store = std::fs::read(dir.join("store-admm.json")).unwrap();
    let reference_store = std::fs::read(ref_dir.join("store-admm.json")).unwrap();
    assert!(resumed_store.starts_with(&gridsim_store::MAGIC));
    assert!(reference_store.starts_with(&gridsim_store::MAGIC));
    assert!(
        resumed_store == reference_store,
        "resumed and uninterrupted store files differ"
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

/// A completed job whose store commit is still owed, written straight to
/// the daemon's `jobs/` directory with `result` recorded for every
/// scenario in place of what a solve would have recorded.
fn owed_commit_dir(tag: &str, solver: SolverFamily, result: &Value) -> PathBuf {
    let dir = fresh_dir(tag);
    std::fs::create_dir_all(dir.join("jobs")).unwrap();
    let spec = JobSpec::new(
        "corrupt",
        CaseName::Case9,
        ScenarioSpec::load_ramp(2, 0.99, 1.0),
        solver,
    );
    let mut m = JobManifest::new(spec, 0);
    for i in 0..2 {
        m.record_done(i, result.clone());
    }
    assert!(m.is_complete() && !m.store_committed);
    m.save(&dir.join("jobs/corrupt.json")).unwrap();
    dir
}

#[test]
fn corrupt_completed_manifest_is_invalid_data_not_a_panic() {
    let cases = [
        // Done records whose result is `null`: refused when the manifest
        // loads.
        (
            "corrupt-null",
            SolverFamily::Admm,
            Value::Null,
            "has no recorded result",
        ),
        // Results that are not the family's serialized result type:
        // refused when the owed commit decodes them.
        (
            "corrupt-admm",
            SolverFamily::Admm,
            Value::Num(1.0),
            "job \"corrupt\" scenario 0",
        ),
        (
            "corrupt-ipm",
            SolverFamily::Ipm,
            Value::Str("x".into()),
            "job \"corrupt\" scenario 0",
        ),
    ];
    for (tag, solver, bad, message) in cases {
        let dir = owed_commit_dir(tag, solver, &bad);
        let err = ServeDaemon::open(&dir, 1)
            .err()
            .unwrap_or_else(|| panic!("{tag}: the daemon opened on a corrupt manifest"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
        assert!(err.to_string().contains(message), "{tag}: {err}");
    }
}

/// A spec whose recipe would panic while building its scenarios is refused
/// by `submit` as `InvalidInput`, and nothing is enqueued.
#[test]
fn bad_recipe_parameters_are_invalid_input_not_a_panic() {
    let dir = fresh_dir("bad-recipe");
    let daemon = ServeDaemon::open(&dir, 1).unwrap();
    for (name, scenarios) in [
        ("sigma", ScenarioSpec::perturbed(2, 1.5, 1)),
        ("ramp", ScenarioSpec::load_ramp(2, f64::NAN, -1.0)),
    ] {
        let err = daemon
            .submit(JobSpec::new(
                name,
                CaseName::Case9,
                scenarios,
                SolverFamily::Admm,
            ))
            .err()
            .unwrap_or_else(|| panic!("{name}: the spec was accepted"));
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{name}: {err}"
        );
    }
    assert!(!dir.join("jobs/sigma.json").exists());
    let ok = ScenarioSpec::perturbed(2, 0.0, 1);
    daemon
        .submit(JobSpec::new(
            "unperturbed",
            CaseName::Case9,
            ok,
            SolverFamily::Admm,
        ))
        .unwrap();
}

/// A recipe that expands to no scenarios is refused by `submit` as
/// `InvalidInput`: no outage of the two-bus case's one branch keeps it
/// connected, so `outages(1)` builds an empty set.
#[test]
fn empty_recipe_is_invalid_input() {
    let dir = fresh_dir("empty-recipe");
    let daemon = ServeDaemon::open(&dir, 1).unwrap();
    let err = daemon
        .submit(JobSpec::new(
            "empty",
            CaseName::TwoBus,
            ScenarioSpec::outages(1),
            SolverFamily::Admm,
        ))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(!dir.join("jobs/empty.json").exists());
}

/// `open` reads a manifest's spec back from disk, where nothing checked it:
/// inverted screen thresholds used to panic the funnel inside a chunk
/// worker, and σ = 1.5 panicked `open` itself while it built the scenarios.
/// A spec `submit` would refuse is now refused when its manifest loads, as
/// `InvalidData` naming the file. No chunk runs here.
#[test]
fn a_manifest_with_an_invalid_spec_is_refused_on_open() {
    let specs = [
        JobSpec::new(
            "inverted-thresholds",
            CaseName::Case9,
            ScenarioSpec::outages(2),
            SolverFamily::Admm,
        )
        .screened(0.5, 0.1),
        JobSpec::new(
            "wide-sigma",
            CaseName::Case9,
            ScenarioSpec::perturbed(2, 1.5, 1),
            SolverFamily::Admm,
        ),
    ];
    for spec in specs {
        let name = spec.name.clone();
        let dir = fresh_dir(&format!("invalid-{name}"));
        std::fs::create_dir_all(dir.join("jobs")).unwrap();
        let file = format!("{name}.json");
        JobManifest::new(spec, 0)
            .save(&dir.join("jobs").join(&file))
            .unwrap();
        let err = ServeDaemon::open(&dir, 1)
            .err()
            .unwrap_or_else(|| panic!("{name}: the daemon opened on an invalid spec"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        assert!(err.to_string().contains(&file), "{name}: {err}");
    }
}
