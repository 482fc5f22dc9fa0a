//! Property-based tests (proptest) on the core invariants of the substrates:
//! flow-derivative correctness for arbitrary branch parameters, sparse LDLᵀ
//! solve accuracy on random quasi-definite systems, TRON optimality on random
//! box QPs, MATPOWER round-trips of random synthetic cases, and load-profile
//! invariants.

use gridadmm::prelude::*;
use gridsim_acopf::flows::{BranchFlow, FlowKind};
use gridsim_engine::FleetRequest;
use gridsim_grid::branch::Branch;
use gridsim_grid::matpower;
use gridsim_grid::synthetic::SyntheticSpec;
use gridsim_sparse::dense::SmallMatrix;
use gridsim_sparse::{Coo, LdlFactor, LdlOptions, LdlSymbolic, Ordering};
use gridsim_tron::{BoundProblem, QuadraticBox, TronOptions, TronSolver};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Branch-flow gradients match finite differences for any realistic
    /// branch impedance, tap setting, and operating point.
    #[test]
    fn flow_gradients_match_finite_differences(
        r in 0.0f64..0.1,
        x in 0.01f64..0.4,
        b in 0.0f64..0.2,
        tap in 0.9f64..1.1,
        shift in -15.0f64..15.0,
        vi in 0.9f64..1.1,
        vj in 0.9f64..1.1,
        ti in -0.4f64..0.4,
        tj in -0.4f64..0.4,
    ) {
        let mut branch = Branch::line(1, 2, r, x, b, 100.0);
        branch.tap = tap;
        branch.shift = shift;
        let y = branch.admittance();
        let h = 1e-6;
        for kind in FlowKind::all() {
            let f = BranchFlow::from_admittance(&y, kind);
            let g = f.gradient(vi, vj, ti, tj);
            let fd_vi = (f.value(vi + h, vj, ti, tj) - f.value(vi - h, vj, ti, tj)) / (2.0 * h);
            let fd_ti = (f.value(vi, vj, ti + h, tj) - f.value(vi, vj, ti - h, tj)) / (2.0 * h);
            prop_assert!((g.dvi - fd_vi).abs() < 1e-4 * (1.0 + fd_vi.abs()));
            prop_assert!((g.dti - fd_ti).abs() < 1e-4 * (1.0 + fd_ti.abs()));
        }
    }

    /// Power is conserved on any branch: losses `p_ij + p_ji` are nonnegative
    /// whenever the series resistance is nonnegative.
    #[test]
    fn branch_losses_are_nonnegative(
        r in 0.0f64..0.1,
        x in 0.01f64..0.4,
        vi in 0.9f64..1.1,
        vj in 0.9f64..1.1,
        dt in -0.5f64..0.5,
    ) {
        let y = Branch::line(1, 2, r, x, 0.0, 0.0).admittance();
        let flows = gridsim_acopf::flows::branch_flows(&y, vi, vj, dt, 0.0);
        prop_assert!(flows[0] + flows[2] >= -1e-10, "losses {}", flows[0] + flows[2]);
    }

    /// The sparse LDLᵀ factorization solves random diagonally-dominant
    /// symmetric systems to high accuracy, with or without RCM ordering.
    #[test]
    fn ldl_solves_random_spd_systems(seed in 0u64..500) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 30;
        let mut coo = Coo::new(n, n);
        let mut diag = vec![1.0; n];
        for i in 0..n {
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j == i { continue; }
                let v: f64 = rng.gen_range(-1.0..1.0);
                coo.push(i, j, v);
                coo.push(j, i, v);
                diag[i] += v.abs() + 0.05;
                diag[j] += v.abs() + 0.05;
            }
        }
        for (i, &d) in diag.iter().enumerate() {
            coo.push(i, i, d);
        }
        let a = coo.to_csc();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + seed as usize) % 13) as f64 - 6.0).collect();
        let f = LdlFactor::factorize_rcm(&a, &LdlOptions::default()).unwrap();
        let x = f.solve(&b);
        prop_assert!(a.residual_inf_norm(&x, &b) < 1e-8);
        prop_assert_eq!(f.inertia(), (n, 0, 0));
    }

    /// Numeric-only refactorization over a frozen symbolic analysis is
    /// bitwise identical to a fresh factorization, on random quasi-definite
    /// KKT matrices [H Jᵀ; J −δI] closed by a dense block of width 1–40
    /// coupled to H — every panel remainder of the right-looking kernel —
    /// whose indefinite `H` diagonal forces regularized pivots before the
    /// dense tail and whose negative last diagonal (every other case) forces
    /// one inside it. Under the identity ordering (the block is in the tail),
    /// RCM and AMD, the scalar replay, the production refactorization and
    /// `refactor_matrix` agree with the fresh factorization bit for bit, or
    /// all break down at the same column: when cascading regularizations
    /// overflow, when a NaN is planted on the diagonal, and on all-zero
    /// values with regularization off — after which the analysis still
    /// refactorizes to the same bits. Regularized pivots are bumped to 1e-8
    /// on every third seed and to 0.1 elsewhere, so that fewer cascades
    /// overflow: of the identity-ordered rounds without a planted NaN, about
    /// two thirds factorize (over half of those with a pivot regularized
    /// before the tail, about two thirds with one inside it) and the rest
    /// break down.
    #[test]
    fn ldl_refactorization_is_bitwise_identical_to_fresh(seed in 0u64..300) {
        use gridsim_sparse::SparseError;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        type Outcome = Result<(Vec<u64>, Vec<u64>, usize), usize>;
        let outcome = |r: &Result<LdlFactor, SparseError>| -> Outcome {
            match r {
                Ok(f) => Ok((
                    f.l_values().iter().map(|v| v.to_bits()).collect(),
                    f.d_values().iter().map(|v| v.to_bits()).collect(),
                    f.num_regularized,
                )),
                Err(SparseError::Breakdown { column, .. }) => Err(*column),
                Err(e) => panic!("{e}"),
            }
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let nx = 2 + (seed as usize) % 7;
        let m = (seed as usize) % 4;
        let w = 1 + (seed as usize * 7) % 40;
        let n = nx + m + w;
        let dense = nx + m..n;
        let negative_last = seed % 2 == 0;
        // H diagonals may be negative so the expected-sign regularization
        // genuinely fires; the dense block is diagonally dominant but for a
        // negative last diagonal on even seeds.
        let build = |rng: &mut SmallRng, scale: f64| -> gridsim_sparse::Csc {
            let mut coo = Coo::new(n, n);
            let couple = |coo: &mut Coo, i: usize, j: usize, v: f64| {
                coo.push(i, j, v);
                coo.push(j, i, v);
            };
            for i in 0..nx {
                coo.push(i, i, scale * rng.gen_range(-1.0..4.0));
            }
            for i in 0..nx {
                for j in (i + 1)..nx {
                    if rng.gen_range(0.0..1.0) < 0.4 {
                        couple(&mut coo, i, j, scale * rng.gen_range(-1.5..1.5));
                    }
                }
            }
            for r in 0..m {
                for c in 0..nx {
                    if rng.gen_range(0.0..1.0) < 0.6 {
                        couple(&mut coo, nx + r, c, scale * rng.gen_range(-2.0..2.0));
                    }
                }
                coo.push(nx + r, nx + r, -1e-8);
            }
            for i in dense.clone() {
                for c in 0..nx {
                    if rng.gen_range(0.0..1.0) < 0.5 {
                        couple(&mut coo, i, c, scale * rng.gen_range(-1.0..1.0));
                    }
                }
                for j in i + 1..n {
                    couple(&mut coo, i, j, scale * rng.gen_range(-1.0..1.0));
                }
                let sign = if negative_last && i == n - 1 { -1.0 } else { 1.0 };
                coo.push(i, i, sign * scale * (2.0 * w as f64 + 4.0));
            }
            coo.to_csc()
        };
        // Two value sets over one pattern: freeze the analysis on the first,
        // refactorize the second (the IPM iteration shape). Re-seeding the
        // generator keeps the sparsity decisions, hence the pattern,
        // identical.
        let a = build(&mut SmallRng::seed_from_u64(seed), 1.0);
        let a2 = build(&mut SmallRng::seed_from_u64(seed), rng.gen_range(0.3..3.0));
        // A NaN on one diagonal: a breakdown no later than its column.
        let planted = rng.gen_range(0..n);
        let mut poisoned = a2.clone();
        let diagonal = (poisoned.colptr[planted]..poisoned.colptr[planted + 1])
            .find(|&p| poisoned.rowind[p] == planted)
            .unwrap();
        poisoned.values[diagonal] = f64::NAN;
        let mut signs = vec![1i8; nx];
        signs.extend(std::iter::repeat_n(-1i8, m));
        signs.extend(std::iter::repeat_n(1i8, w));
        let pivot_reg = if seed % 3 == 0 { 1e-8 } else { 0.1 };
        let opts = LdlOptions { expected_signs: signs, pivot_reg, ..Default::default() };
        // AMD sees the pattern of A + Aᵀ, not the triangle it was given.
        let amd = Ordering::amd(&a);
        prop_assert_eq!(&Ordering::amd(&a.upper_triangle()), &amd);
        for ordering in [Ordering::identity(n), Ordering::rcm(&a), amd] {
            let sym = LdlSymbolic::analyze(&a, ordering.clone()).unwrap();
            if ordering == Ordering::identity(n) {
                prop_assert!(sym.tail_start() <= nx + m, "tail {}", sym.tail_start());
            }
            // The last round comes after every path saw a breakdown.
            for values in [&a, &a2, &poisoned, &a] {
                let fresh = LdlFactor::factorize_with(values, ordering.clone(), &opts);
                let matrix = sym.refactor_matrix(values, &opts);
                let want = outcome(&fresh);
                prop_assert_eq!(&outcome(&sym.refactor(&values.values, &opts)), &want);
                prop_assert_eq!(&outcome(&sym.refactor_dense_tail(&values.values, &opts)), &want);
                prop_assert_eq!(&outcome(&matrix), &want);
                if std::ptr::eq(values, &poisoned) {
                    let column = want.err();
                    prop_assert!(
                        column.is_some_and(|c| c <= ordering.inv[planted]),
                        "NaN at {} gave {:?}", ordering.inv[planted], column
                    );
                }
                // Solves agree bitwise too (same factor, same triangular sweeps).
                if let (Ok(f), Ok(r)) = (&fresh, &matrix) {
                    let b: Vec<f64> =
                        (0..n).map(|i| ((i * 11 + seed as usize) % 17) as f64 - 8.0).collect();
                    for (x, y) in f.solve(&b).iter().zip(&r.solve(&b)) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
            let zeros = vec![0.0; a.nnz()];
            let no_reg = LdlOptions { pivot_reg: 0.0, ..opts.clone() };
            prop_assert_eq!(outcome(&sym.refactor(&zeros, &no_reg)), Err(0));
            prop_assert_eq!(outcome(&sym.refactor_dense_tail(&zeros, &no_reg)), Err(0));
        }
    }

    /// TRON finds the exact clamped solution of any separable box QP.
    #[test]
    fn tron_solves_random_diagonal_box_qps(
        q in prop::collection::vec(0.5f64..10.0, 4),
        c in prop::collection::vec(-5.0f64..5.0, 4),
    ) {
        let qp = QuadraticBox::diagonal(&q, &c, &[-1.0; 4], &[1.0; 4]);
        let solver = TronSolver::new(TronOptions { gtol: 1e-10, ..Default::default() });
        let res = solver.solve(&qp, &[0.0; 4]);
        let expect = qp.diagonal_solution();
        for (a, b) in res.x.iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
        // First-order optimality holds.
        let mut g = vec![0.0; 4];
        qp.derivatives(&res.x, &mut g, &mut SmallMatrix::zeros(4));
        prop_assert!(qp.projected_gradient_norm(&res.x, &g) < 1e-6);
    }

    /// Synthetic cases of any admissible size compile into connected
    /// networks and survive a MATPOWER write/parse round-trip.
    #[test]
    fn synthetic_cases_roundtrip_through_matpower(
        nbus in 10usize..60,
        extra_branches in 0usize..30,
        ngen in 2usize..8,
        seed in 0u64..1000,
    ) {
        let spec = SyntheticSpec {
            name: "prop".into(),
            nbus,
            ngen: ngen.min(nbus),
            nbranch: nbus - 1 + extra_branches,
            seed,
            ..Default::default()
        };
        let case = spec.generate();
        let net = case.compile();
        prop_assert!(net.is_ok(), "synthetic case must compile: {:?}", net.err());
        let net = net.unwrap();

        let text = matpower::write_case(&case);
        let parsed = matpower::parse_case(&text, "prop").unwrap();
        let net2 = parsed.compile().unwrap();
        prop_assert_eq!(net.nbus, net2.nbus);
        prop_assert_eq!(net.nbranch, net2.nbranch);
        prop_assert_eq!(net.ngen, net2.ngen);
        prop_assert!((net.total_pd() - net2.total_pd()).abs() < 1e-9);
    }

    /// Load-profile windows always renormalize to 1.0 at the first period and
    /// reproduce the requested maximum drift.
    #[test]
    fn load_profile_window_invariants(
        seed in 0u64..200,
        periods in 5usize..60,
        drift in 0.01f64..0.10,
    ) {
        let w = LoadProfile::paper_window(seed, periods, drift);
        prop_assert_eq!(w.len(), periods);
        prop_assert!((w.multipliers[0] - 1.0).abs() < 1e-12);
        prop_assert!((w.max_drift() - drift).abs() < 1e-6);
        prop_assert!(w.multipliers.iter().all(|m| *m > 0.5 && *m < 1.5));
    }

    /// Generator cost evaluation in the compiled network equals the raw
    /// MATPOWER polynomial for arbitrary dispatch.
    #[test]
    fn per_unit_cost_conversion_is_exact(
        c2 in 0.0f64..0.2,
        c1 in 0.0f64..50.0,
        c0 in 0.0f64..500.0,
        pg_mw in 0.0f64..300.0,
    ) {
        let mut case = gridsim_grid::cases::two_bus();
        case.generators[0].cost = gridsim_grid::GenCost { c2, c1, c0 };
        case.generators[0].pmax = 400.0;
        let net = case.compile().unwrap();
        let pg_pu = pg_mw / net.base_mva;
        let direct = c2 * pg_mw * pg_mw + c1 * pg_mw + c0;
        let via_net = net.generation_cost(&[pg_pu]);
        prop_assert!((direct - via_net).abs() < 1e-6 * (1.0 + direct));
    }
}

/// The everything-admitted fleet on one device.
fn one_device(params: AdmmParams, device: Device) -> ScenarioScheduler {
    ScenarioScheduler::with_pool(params, DevicePool::single(device))
}

proptest! {
    // Few cases: each one runs full ADMM solves. The iteration caps keep a
    // case cheap; bitwise identity holds converged or not.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The scenario batcher is bitwise identical across every launch
    /// backend (`Parallel`, `Sequential`, `Vectorized`) for arbitrary
    /// perturbed-load scenario sets.
    #[test]
    fn scenario_batch_is_bitwise_identical_across_backends(
        seed in 0u64..1000,
        k in 1usize..5,
        sigma in 0.005f64..0.05,
    ) {
        use gridsim_batch::Device;
        let set = ScenarioSet::perturbed_loads(gridsim_grid::cases::case9(), k, sigma, seed);
        let nets = set.networks().unwrap();
        let params = AdmmParams { max_outer: 2, max_inner: 25, ..AdmmParams::default() };
        let seq = one_device(params.clone(), Device::sequential()).run(FleetRequest::over(&nets));
        for dev in [Device::parallel(), Device::vectorized()] {
            let got = one_device(params.clone(), dev).run(FleetRequest::over(&nets));
            prop_assert_eq!(got.ticks, seq.ticks);
            for (a, b) in got.results.iter().zip(&seq.results) {
                prop_assert_eq!(a.inner_iterations, b.inner_iterations);
                prop_assert_eq!(&a.solution.pg, &b.solution.pg);
                prop_assert_eq!(&a.solution.qg, &b.solution.qg);
                prop_assert_eq!(&a.solution.vm, &b.solution.vm);
                prop_assert_eq!(&a.solution.va, &b.solution.va);
                prop_assert_eq!(a.z_inf.to_bits(), b.z_inf.to_bits());
            }
        }
    }

    /// Sharded + streamed execution through the `ScenarioScheduler` is
    /// bitwise identical to the single-device all-admitted run for arbitrary
    /// device counts, lane caps, and admission orders, on every backend.
    /// (Admission order is varied by rotating the input list: the scheduler
    /// admits in input order, so a rotation is a different admission order;
    /// results are compared scenario-by-scenario through the rotation.)
    #[test]
    fn scheduler_is_bitwise_identical_for_any_sharding(
        seed in 0u64..1000,
        k in 1usize..5,
        devices in 1usize..4,
        lanes in 1usize..3,
        rotate in 0usize..4,
        backend_sel in 0usize..3,
    ) {
        use gridsim_batch::DevicePool;
        let set = ScenarioSet::perturbed_loads(gridsim_grid::cases::case9(), k, 0.03, seed);
        let nets = set.networks().unwrap();
        let params = AdmmParams { max_outer: 2, max_inner: 25, ..AdmmParams::default() };
        let reference = one_device(params.clone(), Device::default()).run(FleetRequest::over(&nets));

        let mut rotated = nets.clone();
        rotated.rotate_left(rotate % k);
        let pool = match backend_sel {
            0 => DevicePool::parallel(devices),
            1 => DevicePool::sequential(devices),
            _ => DevicePool::vectorized(devices),
        };
        let scheduler = ScenarioScheduler::with_pool(params, pool).with_lanes(lanes);
        let sched = scheduler.run(FleetRequest::over(&rotated));
        prop_assert_eq!(sched.results.len(), k);
        for (i, r) in sched.results.iter().enumerate() {
            let b = &reference.results[(i + rotate % k) % k];
            prop_assert_eq!(&r.name, &b.name);
            prop_assert_eq!(r.status, b.status);
            prop_assert_eq!(r.inner_iterations, b.inner_iterations);
            prop_assert_eq!(r.outer_iterations, b.outer_iterations);
            prop_assert_eq!(&r.solution.pg, &b.solution.pg);
            prop_assert_eq!(&r.solution.qg, &b.solution.qg);
            prop_assert_eq!(&r.solution.vm, &b.solution.vm);
            prop_assert_eq!(&r.solution.va, &b.solution.va);
            prop_assert_eq!(r.z_inf.to_bits(), b.z_inf.to_bits());
        }
    }
}

#[test]
fn admm_deterministic_across_runs() {
    // Not a proptest (one expensive solve), but a determinism invariant: two
    // identical runs produce bit-identical dispatch.
    let net = gridsim_grid::cases::case9().compile().unwrap();
    let a = AdmmSolver::new(AdmmParams::default()).solve(&net);
    let b = AdmmSolver::new(AdmmParams::default()).solve(&net);
    assert_eq!(a.inner_iterations, b.inner_iterations);
    assert_eq!(a.solution.pg, b.solution.pg);
    assert_eq!(a.solution.vm, b.solution.vm);
}
