//! Golden results of the TRON driver on a seeded batch of dense 6-variable
//! box QPs.
//!
//! The expected rows are those of the commit that tries a direct step
//! before the Cauchy point: when every variable on a bound has a zero
//! projected-gradient component, the free block is positive definite and
//! its Newton step from the iterate lies strictly inside the box and the
//! trust region, the iteration takes that step (model value `½ gᵀd`) and
//! skips the Cauchy search, the re-solve from the Cauchy point and the
//! projected line search — a declared change to TRON's arithmetic. Against
//! the rows of the commit before it, which took the subspace step from an
//! LDLᵀ factor of the free block at the Cauchy point, all 24 statuses,
//! iteration counts and on-bound entries are unchanged, and interior
//! entries of 3 rows moved by at most 6.3e-14 relative (CHANGES.md has the
//! per-row diff). They must never be regenerated from the code under test by a
//! change that does not declare, in the same way, that it changes TRON's
//! arithmetic: they pin every other rewrite to the same bits. The problems
//! need only `+ − × ÷ √`, so the constants do not depend on the host's
//! libm.

use gridsim_sparse::dense::SmallMatrix;
use gridsim_tron::{QuadraticBox, TronOptions, TronSolver};

/// SplitMix64; `unit` is exact (53 random bits over 2⁵³).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

const N: usize = 6;
const PROBLEMS: usize = 24;

/// Problem `k` of the batch: a dense symmetric `Q = D S D` with `S` random
/// and its diagonal shift cycling through strongly convex, indefinite and
/// concave-leaning, `D` a diagonal scaling spread over two decades, a box
/// that is tight on every fourth problem, a start that may lie outside the
/// box, a small initial trust region on odd problems (so the radius has to
/// grow and CG stops on the boundary), and an iteration cap of 2 on every
/// fifth problem.
fn problem(k: usize, rng: &mut Rng) -> (QuadraticBox, Vec<f64>, TronOptions) {
    let shift = [6.0, 0.0, -1.5][k % 3];
    let scale: Vec<f64> = (0..N)
        .map(|_| rng.range(0.1, 1.0) * [1.0, 10.0][k % 2])
        .collect();
    let mut q = SmallMatrix::zeros(N);
    for i in 0..N {
        q[(i, i)] = (shift + rng.range(-2.0, 2.0)) * scale[i] * scale[i];
        for j in 0..i {
            let v = rng.range(-1.0, 1.0) * scale[i] * scale[j];
            q[(i, j)] = v;
            q[(j, i)] = v;
        }
    }
    let c = (0..N).map(|_| rng.range(-3.0, 3.0)).collect();
    let half_width = if k % 4 == 3 { 0.2 } else { 5.0 };
    let start = (0..N).map(|_| rng.range(-1.5, 1.5) * half_width).collect();
    let opts = TronOptions {
        max_iter: if k % 5 == 4 { 2 } else { 200 },
        initial_delta: if k % 2 == 1 { Some(0.05) } else { None },
        ..Default::default()
    };
    let qp = QuadraticBox {
        q,
        c,
        l: vec![-half_width; N],
        u: vec![half_width; N],
    };
    (qp, start, opts)
}

/// `iterations status x[0..6] as hex bits`, one row per problem.
const EXPECTED: [&str; PROBLEMS] = [
    "1 Converged 4006bc2d1a703b2a bfd6c7d925dcfab8 3fe267081e55bd28 bfe26d785da238dc bfd4ee333a16a067 bfd93dd67bd5bcb0",
    "9 Converged c014000000000000 4014000000000000 c014000000000000 4014000000000000 c014000000000000 c014000000000000",
    "3 Converged c014000000000000 c014000000000000 c014000000000000 4014000000000000 4014000000000000 4014000000000000",
    "4 Converged 3f66ff85e5fa6190 bf669259bbb13318 bfb166eed26637cb bf9a89c3978b8584 3f76d0fdfd6c0920 bf637e7f0b9ca068",
    "2 MaxIter 4014000000000000 4014000000000000 c014000000000000 c014000000000000 c014000000000000 c014000000000000",
    "9 Converged c014000000000000 c014000000000000 c014000000000000 c014000000000000 c014000000000000 c014000000000000",
    "1 Converged bfaec61b2dd35280 3fdf91467cd63260 bfda3e9c0f2e7400 bfcbed8c30911eb0 3fe3253499428ca8 bfee72ff805a36be",
    "5 Converged bfc999999999999a 3fc999999999999a bf984d65eb734f78 3fc999999999999a 3fc999999999999a 3fc999999999999a",
    "3 Converged 4014000000000000 c014000000000000 c014000000000000 c014000000000000 4014000000000000 c014000000000000",
    "2 MaxIter 3ff65e6f2d0f8205 c003d033f8be8249 3ff3a9e019ea45bd c013c69e97497d27 40124e211b5c84f9 c013a7554b4ec298",
    "3 Converged 4014000000000000 4012848b7f82895c 4014000000000000 c014000000000000 4014000000000000 c014000000000000",
    "5 Converged bfc999999999999a 3fc999999999999a 3fc999999999999a 3fc999999999999a bfc999999999999a bfc999999999999a",
    "1 Converged 3fec27b694fea844 c00b13b9c414f89c 3fe68d8f8d6fad48 3feb2dfdfb59f390 bff1b629b853e58e 3ff414c7e2cc69f8",
    "8 Converged 4014000000000000 4014000000000000 c014000000000000 c014000000000000 c014000000000000 4014000000000000",
    "2 Converged c014000000000000 c014000000000000 c014000000000000 4014000000000000 c014000000000000 c014000000000000",
    "4 Converged 3f9a6740d6c960fc 3f6c02e6551c7fc8 3f878a611f430a1b bf5ae5ea3ceb5040 3f8243daa26a674a bf750f7cee6c1198",
    "2 Converged c014000000000000 4014000000000000 4014000000000000 4014000000000000 c014000000000000 4014000000000000",
    "12 Converged 4014000000000000 c014000000000000 4014000000000000 bff9eb3675015590 4014000000000000 c014000000000000",
    "1 Converged 3fd74a046b9ca070 bfcb5d5c31be8460 3fc0fbfc509c66a0 3fe56ccafce30a10 bfd130fbd2716e60 3fe4f2e45ffc6358",
    "2 MaxIter bfc738475536f41a 3fc999999999999a 3fc3c1726d254780 bfb21104a5ab40ae bfb7486720369c7f bf8650ab78eb23f0",
    "2 Converged 4014000000000000 4014000000000000 4014000000000000 4014000000000000 c014000000000000 4014000000000000",
    "8 Converged bf73b633f4122200 3f7b95c292ab5400 bf70ee2d8c49ad00 bfaddd8013960300 3fa64b78fcad8060 3f75bf87bda49d80",
    "2 Converged c014000000000000 4014000000000000 c014000000000000 4014000000000000 c014000000000000 4014000000000000",
    "6 Converged 3fc999999999999a 3fc999999999999a bfc999999999999a bfc999999999999a 3fc999999999999a 3fc999999999999a",
];

#[test]
fn seeded_dense_box_qps_match_parent_commit_bits() {
    let mut rng = Rng(0x6a09_e667_f3bc_c908);
    let mut rows = Vec::new();
    let mut on_bound = 0;
    for k in 0..PROBLEMS {
        let (qp, start, opts) = problem(k, &mut rng);
        let solver = TronSolver::new(opts);
        let res = solver.solve(&qp, &start);
        on_bound += (0..N)
            .filter(|&i| res.x[i] == qp.l[i] || res.x[i] == qp.u[i])
            .count();
        let bits: Vec<String> = res
            .x
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        rows.push(format!(
            "{} {:?} {}",
            res.iterations,
            res.status,
            bits.join(" ")
        ));
    }
    // The batch exercises what it claims to.
    assert!(on_bound > PROBLEMS, "few active bounds: {on_bound}");
    assert!(rows.iter().any(|r| r.contains("MaxIter")));
    assert!(rows.iter().any(|r| r.contains("Converged")));
    assert_eq!(rows, EXPECTED, "actual rows:\n{rows:#?}");
}
