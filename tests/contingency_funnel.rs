//! Contingency-screening funnel invariants.
//!
//! Debug-tier properties: spec expansion is deterministic and injective,
//! outage columns never island the network, and the graduation set (the
//! funnel's branching decision) is bitwise identical across device counts
//! and execution backends — both explicitly constructed pools and the
//! environment axes the CI matrix sweeps (`GRIDSIM_DEVICES`,
//! `GRIDSIM_BACKEND`).
//!
//! Release-gated guard: on a ~150-scenario case9 sweep spanning benign and
//! stressed load levels, the screen produces no false negatives — every
//! scenario the flat full-tolerance sweep finds stressed graduated to the
//! full tier (the banded funnel solves a superset of the truly violating
//! set at full tolerance).

use gridadmm::prelude::*;
use gridsim_batch::DevicePool;
use gridsim_grid::{Case, ScenarioFingerprint, OUTAGE_REACTANCE};
use proptest::prelude::*;

fn spec_for(
    levels: usize,
    draws: usize,
    seed: u64,
    n1: usize,
    n2: usize,
    gens: usize,
) -> ContingencySpec {
    let mut spec = ContingencySpec::load_grid(levels, 0.95, 1.2).outages(n1, n2, gens);
    if draws > 0 {
        spec = spec.perturbed(draws, 0.03, seed);
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Expanding the same spec twice yields bitwise-identical scenarios,
    /// and the expansion is injective: every scenario name is distinct.
    #[test]
    fn expansion_is_deterministic_and_injective(
        levels in 1usize..4,
        draws in 0usize..3,
        seed in 0u64..1_000_000,
        n1 in 0usize..9,
        n2 in 0usize..4,
        gens in 0usize..4,
    ) {
        for base in [gridsim_grid::case9(), gridsim_grid::case14()] {
            let spec = spec_for(levels, draws, seed, n1, n2, gens);
            let a = spec.expand(&base);
            let b = spec.expand(&base);
            prop_assert_eq!(a.len(), spec.count(&base));
            let names: Vec<&str> = a.scenarios.iter().map(|s| s.name.as_str()).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), names.len(), "duplicate scenario names");
            for (x, y) in a.networks().unwrap().iter().zip(&b.networks().unwrap()) {
                let fx = ScenarioFingerprint::of_network(x);
                let fy = ScenarioFingerprint::of_network(y);
                prop_assert_eq!(fx.structure, fy.structure);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&fx.loads), bits(&fy.loads));
            }
        }
    }

    /// No outage column islands the network: with every outaged branch
    /// treated as open, all buses stay in one connected component.
    #[test]
    fn outage_columns_never_island(
        levels in 1usize..3,
        n1 in 1usize..9,
        n2 in 0usize..5,
        gens in 0usize..4,
    ) {
        for base in [gridsim_grid::case9(), gridsim_grid::case14(), gridsim_grid::case30_like()] {
            let spec = spec_for(levels, 0, 0, n1, n2, gens);
            for case in spec.expand(&base).cases() {
                prop_assert!(is_connected(&case), "islanded scenario in expansion");
            }
        }
    }
}

/// Connectivity over in-service branches, treating branches driven to
/// [`OUTAGE_REACTANCE`] as electrically open.
fn is_connected(case: &Case) -> bool {
    let n = case.buses.len();
    let index_of = |bus: usize| case.buses.iter().position(|b| b.id == bus).unwrap();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for br in &case.branches {
        if !br.status || br.x >= OUTAGE_REACTANCE {
            continue;
        }
        let (a, b) = (
            find(&mut parent, index_of(br.from)),
            find(&mut parent, index_of(br.to)),
        );
        parent[a] = b;
    }
    let root = find(&mut parent, 0);
    (1..n).all(|i| find(&mut parent, i) == root)
}

fn small_sweep() -> (String, Vec<gridsim_grid::Network>) {
    let base = gridsim_grid::case9();
    let spec = ContingencySpec::load_grid(2, 1.0, 1.3).outages(2, 0, 1);
    ("case9".to_string(), spec.expand(&base).networks().unwrap())
}

fn funnel_config() -> FunnelConfig {
    FunnelConfig {
        full: gridsim_admm::AdmmParams::test_profile(),
        ..Default::default()
    }
}

fn verdicts(report: &FunnelReport) -> (Vec<usize>, Vec<u64>) {
    (
        report.graduated.clone(),
        report.screened.iter().map(|s| s.margin.to_bits()).collect(),
    )
}

/// The graduation set and the screening margins are bitwise identical for
/// every engine configuration: device counts and all three execution
/// backends.
#[test]
fn graduation_is_identical_across_pools() {
    let (case_id, nets) = small_sweep();
    let reference = verdicts(
        &ContingencyFunnel::with_pool(funnel_config(), DevicePool::sequential(1))
            .run(&case_id, &nets),
    );
    for pool in [
        DevicePool::auto(3),
        DevicePool::sequential(2),
        DevicePool::parallel(2),
        DevicePool::vectorized(2),
    ] {
        let got =
            verdicts(&ContingencyFunnel::with_pool(funnel_config(), pool).run(&case_id, &nets));
        assert_eq!(got, reference);
    }
}

/// The environment axes the CI matrix sweeps (`GRIDSIM_DEVICES`,
/// `GRIDSIM_BACKEND`) reproduce the single-device sequential verdicts: this
/// test passing under every matrix leg *is* the cross-config determinism
/// claim.
#[test]
fn graduation_under_env_matches_reference() {
    let (case_id, nets) = small_sweep();
    let reference = verdicts(
        &ContingencyFunnel::with_pool(funnel_config(), DevicePool::sequential(1))
            .run(&case_id, &nets),
    );
    let under_env = verdicts(&ContingencyFunnel::new(funnel_config()).run(&case_id, &nets));
    assert_eq!(under_env, reference);
}

/// Release-gated no-false-negative guard: the screen never certifies as
/// benign a scenario the flat full-tolerance sweep finds stressed.
#[cfg(not(debug_assertions))]
#[test]
fn screen_has_no_false_negatives_on_a_stressed_sweep() {
    use gridsim_admm::{AdmmParams, ScenarioScheduler};
    use gridsim_engine::FleetRequest;
    use gridsim_screen::constraint_margin;

    // 3 levels x 5 draws x 10 columns = 150 scenarios spanning a benign
    // floor (1.0) and a stressed ceiling (1.5) with every outage column
    // case9 admits.
    let base = gridsim_grid::case9();
    let spec = ContingencySpec::load_grid(3, 1.0, 1.5)
        .perturbed(4, 0.02, 7)
        .outages(6, 0, 3);
    let nets = spec.expand(&base).networks().unwrap();
    assert_eq!(nets.len(), 150);

    let pool = DevicePool::from_env();
    let flat = ScenarioScheduler::with_pool(AdmmParams::test_profile(), pool.clone())
        .run(FleetRequest::over(&nets).case("case9"));
    let config = funnel_config();
    let benign = config.benign_threshold;
    let report = ContingencyFunnel::with_pool(config, pool).run("case9", &nets);

    // The sweep must actually exercise both sides of the funnel.
    assert!(report.band_count(Band::Benign) > 0, "no benign scenarios");
    assert!(!report.graduated.is_empty(), "nothing graduated");

    let missed: Vec<usize> = (0..nets.len())
        .filter(|&i| {
            constraint_margin(&flat.results[i].quality) > benign
                && report.full_index_of(i).is_none()
        })
        .collect();
    assert!(
        missed.is_empty(),
        "screen certified {} stressed scenarios as benign: {missed:?}",
        missed.len()
    );
}
