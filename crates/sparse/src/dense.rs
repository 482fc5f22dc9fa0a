//! Small dense linear-algebra kernels.
//!
//! These cover the tiny systems that appear inside the component subproblems:
//! the 2×2 Schur complements of the bus updates and the ≤ 8×8 dense Hessians
//! of the branch subproblems. [`SmallMatrix`] stores its entries inline and
//! everything else works on caller-provided slices, so nothing here touches
//! the heap, the way a GPU thread block works out of registers and shared
//! memory. The one factorization, [`SmallMatrix::ldlt_solve_masked`], keeps
//! the variables it holds in place as identity rows instead of gathering the
//! others, so it has the caller's shape and inlines into it. The matrix and
//! its factorization are generic over [`Real`], so the same code solves one
//! block in `f64` or a lock-step group's blocks lane by lane.

use crate::lanes::{Lanes, Mask, Real};

/// Solve a 2x2 linear system `A x = b`. Returns `None` when `A` is singular.
#[inline]
pub fn solve2(a: [[f64; 2]; 2], b: [f64; 2]) -> Option<[f64; 2]> {
    let det = a[0][0] * a[1][1] - a[0][1] * a[1][0];
    if det.abs() < 1e-300 {
        return None;
    }
    Some([
        (b[0] * a[1][1] - b[1] * a[0][1]) / det,
        (a[0][0] * b[1] - a[1][0] * b[0]) / det,
    ])
}

/// Largest dimension a [`SmallMatrix`] can hold.
pub const MAX_DIM: usize = 8;

/// Dense symmetric matrix of runtime dimension `n ≤` [`MAX_DIM`], stored
/// inline in a fixed-capacity row-major array with row stride [`MAX_DIM`]:
/// creating, cloning and dropping one never allocates, and entry `(i, j)`
/// sits at a fixed offset whatever `n` is. Entries outside the leading
/// `n × n` block stay zero. An entry is one [`Real`]: an `f64`, or one
/// matrix per lane of a lock-step group ([`Lanes`](crate::Lanes)).
#[derive(Debug, Clone, PartialEq)]
pub struct SmallMatrix<T = f64> {
    n: usize,
    data: [T; MAX_DIM * MAX_DIM],
}

impl<T: Real> SmallMatrix<T> {
    /// Zero matrix of dimension `n`. Panics when `n` exceeds [`MAX_DIM`].
    #[inline]
    pub fn zeros(n: usize) -> Self {
        assert!(
            n <= MAX_DIM,
            "SmallMatrix holds at most {MAX_DIM}x{MAX_DIM} entries, asked for dimension {n}"
        );
        SmallMatrix {
            n,
            data: [T::splat(0.0); MAX_DIM * MAX_DIM],
        }
    }

    /// Solve `H_FF d_F = b_F` on the variables `free` marks by a
    /// square-root-free LDLᵀ factor; `d` is `+0.0` on the held variables.
    /// The mask is false where a pivot is not positive and finite (not
    /// positive definite, NaN, or an overflowed `+∞`); `d` is then garbage.
    /// Reads only the free block's lower triangle and `b`'s free entries.
    /// On [`Lanes`](crate::Lanes) each lane is its own solve, bit for bit,
    /// and a refusal in one lane leaves the others going.
    ///
    /// A pivot is `+∞` only where its diagonal entry is: each step
    /// subtracts `L_jk² D_k ≥ 0` (or NaN) from the diagonal. So a `+∞` on
    /// the free diagonal is refused before factoring, and the pivot test
    /// inside the factor stays one comparison; testing each pivot for
    /// finiteness there slowed the ADMM benchmarks by ≈ 4 % on a 2-core
    /// x86-64 host.
    ///
    /// It factors a copy of the whole `n × n` matrix (`n = free.len()`),
    /// in a zeroed stack scratch, each held row and column an identity row
    /// with a zero
    /// right-hand side: no gather, no scatter, and loops of the caller's
    /// shape, which unroll where `n` is a constant there. Column `j` leaves
    /// `D_j` on the diagonal, `L` below and the unscaled `(L D)ᵀ` above, so
    /// no pivot's division lies on the next pivot's path. Every term a held
    /// variable adds is an exact `+0.0 · +0.0`, and `x − (+0.0)` is `x`: a
    /// block refuses exactly when the gathered free block would, and a
    /// finite solution is bitwise that block's. The solve stops early only
    /// once every lane has refused. Always inlined: as a hint, the branch
    /// solve kept it out of line, its loops running to a runtime `n`.
    #[inline(always)]
    pub fn ldlt_solve_masked(&self, free: &[T::Mask], b: &[T]) -> ([T; MAX_DIM], T::Mask) {
        self.ldlt_solve_masked_with(free, b, &mut SmallMatrix::zeros(free.len()))
    }

    /// [`Self::ldlt_solve_masked`] factoring in the caller's scratch `a`
    /// (dimension at least `n`): the factor writes each entry of `a`'s
    /// leading `n × n` block before it reads it and stores nothing else, so
    /// a solve that factors many times zeroes its scratch once and each
    /// factor costs no more stores than its block. Same bits, whatever `a`
    /// held.
    #[inline(always)]
    pub fn ldlt_solve_masked_with(
        &self,
        free: &[T::Mask],
        b: &[T],
        a: &mut SmallMatrix<T>,
    ) -> ([T; MAX_DIM], T::Mask) {
        let n = free.len();
        debug_assert!(n == self.n && b.len() == n);
        let (zero, one) = (T::splat(0.0), T::splat(1.0));
        let mut x = [zero; MAX_DIM];
        let mut ok = T::Mask::splat(true);
        for i in 0..n {
            for j in 0..i {
                a[(i, j)] = T::select(free[i] & free[j], self[(i, j)], zero);
            }
            a[(i, i)] = T::select(free[i], self[(i, i)], one);
            x[i] = T::select(free[i], b[i], zero);
            ok &= !a[(i, i)].equal(T::splat(f64::INFINITY));
        }
        if !ok.any() {
            return (x, ok);
        }
        for j in 0..n {
            // Entry (k, j) above the diagonal is L_jk D_k, written by column k.
            let mut d = a[(j, j)];
            for k in 0..j {
                d = d - a[(j, k)] * a[(k, j)];
            }
            ok &= !(d.is_nan() | d.less_eq(zero));
            if !ok.any() {
                return (x, ok);
            }
            a[(j, j)] = d;
            for i in j + 1..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v = v - a[(i, k)] * a[(k, j)];
                }
                a[(j, i)] = v;
                a[(i, j)] = v / d;
            }
        }
        // Forward solve L y = b.
        for i in 0..n {
            let mut v = x[i];
            for k in 0..i {
                v = v - a[(i, k)] * x[k];
            }
            x[i] = v;
        }
        // Diagonal solve, then back solve Lᵀ x = D⁻¹ y, subtracting the
        // entry solved last at the end of each row's chain.
        for i in (0..n).rev() {
            let mut v = x[i] / a[(i, i)];
            for k in (i + 1..n).rev() {
                v = v - a[(k, i)] * x[k];
            }
            x[i] = v;
        }
        (x, ok)
    }
}

impl SmallMatrix {
    /// Matrix-vector product `y = A x`.
    #[inline]
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        // The trip counts come from the slices, not from `self.n`, so a
        // caller whose vectors have a compile-time length gets both loops
        // unrolled; `zip` stops each row after its `x.len()` real entries.
        for (yi, row) in y.iter_mut().zip(self.data.chunks_exact(MAX_DIM)) {
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }
}

impl SmallMatrix<Lanes> {
    /// Lane `k`'s matrix.
    #[inline]
    pub fn lane(&self, k: usize) -> SmallMatrix {
        let mut lane = SmallMatrix::zeros(self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                lane[(i, j)] = self[(i, j)].0[k];
            }
        }
        lane
    }
}

impl<T> std::ops::Index<(usize, usize)> for SmallMatrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.n && j < self.n);
        &self.data[i * MAX_DIM + j]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for SmallMatrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.n && j < self.n);
        &mut self.data[i * MAX_DIM + j]
    }
}

/// Dot product, summed in index order from `-0.0` (as `f64`'s `Sum` does).
#[inline]
pub fn dot<T: Real>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .fold(T::splat(-0.0), |sum, (&x, &y)| sum + x * y)
}

/// Euclidean norm.
#[inline]
pub fn norm2<T: Real>(a: &[T]) -> T {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{LaneMask, LANES};
    use proptest::prelude::*;

    /// The scalar solve as an `Option`: `None` when a pivot refuses.
    fn scalar_solve(m: &SmallMatrix, free: &[bool], b: &[f64]) -> Option<[f64; MAX_DIM]> {
        let (x, ok) = m.ldlt_solve_masked(free, b);
        ok.then_some(x)
    }

    fn identity(n: usize) -> SmallMatrix {
        let mut m = SmallMatrix::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    #[test]
    fn solve2_exact() {
        let a = [[2.0, 1.0], [1.0, 3.0]];
        let b = [5.0, 10.0];
        let x = solve2(a, b).unwrap();
        assert!((a[0][0] * x[0] + a[0][1] * x[1] - b[0]).abs() < 1e-12);
        assert!((a[1][0] * x[0] + a[1][1] * x[1] - b[1]).abs() < 1e-12);
    }

    #[test]
    fn solve2_singular_returns_none() {
        assert!(solve2([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]).is_none());
    }

    #[test]
    fn cholesky_solve_spd() {
        let mut m = SmallMatrix::zeros(3);
        let a = [[4.0, 1.0, 0.0], [1.0, 3.0, 2.0], [0.0, 2.0, 5.0]];
        for i in 0..3 {
            for j in 0..3 {
                m[(i, j)] = a[i][j];
            }
        }
        let b = [1.0, 2.0, 3.0];
        let x = scalar_solve(&m, &[true; 3], &b).expect("positive definite");
        let mut r = [0.0; 3];
        m.mul_vec(&x[..3], &mut r);
        for i in 0..3 {
            assert!((r[i] - b[i]).abs() < 1e-12);
        }
        // Holding the middle variable solves the outer 2×2 block.
        let x = scalar_solve(&m, &[true, false, true], &b).expect("positive definite");
        assert_eq!(x[1].to_bits(), 0.0f64.to_bits());
        assert!((4.0 * x[0] - b[0]).abs() < 1e-12 && (5.0 * x[2] - b[2]).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut m = identity(2);
        m[(1, 1)] = -1.0;
        assert_eq!(scalar_solve(&m, &[true; 2], &[1.0; 2]), None);
        // A NaN pivot is no positive pivot: `NaN <= 0.0` is false too.
        let mut m = identity(3);
        m[(1, 1)] = f64::NAN;
        assert_eq!(scalar_solve(&m, &[true; 3], &[1.0; 3]), None);
        // Held, the same entries are never read.
        assert_eq!(
            scalar_solve(&m, &[true, false, true], &[1.0; 3]),
            Some([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        );
    }

    /// LDLᵀ in place over the leading `m.n × m.n` block, reading the lower
    /// triangle; `false` on a pivot that is not positive and finite. The
    /// factor that `ldlt_solve_masked` replaced, kept as its oracle.
    fn ldlt_in_place(m: &mut SmallMatrix) -> bool {
        let n = m.n;
        for j in 0..n {
            let mut d = m[(j, j)];
            for k in 0..j {
                d -= m[(j, k)] * m[(k, j)];
            }
            if !d.is_finite() || d <= 0.0 {
                return false;
            }
            m[(j, j)] = d;
            for i in j + 1..n {
                let mut v = m[(i, j)];
                for k in 0..j {
                    v -= m[(i, k)] * m[(k, j)];
                }
                m[(j, i)] = v;
                m[(i, j)] = v / d;
            }
        }
        true
    }

    /// Solve `L D Lᵀ x = b` in place with a factor from [`ldlt_in_place`].
    fn ldlt_solve(m: &SmallMatrix, x: &mut [f64]) {
        let n = m.n;
        for i in 0..n {
            let mut v = x[i];
            for k in 0..i {
                v -= m[(i, k)] * x[k];
            }
            x[i] = v;
        }
        for i in (0..n).rev() {
            let mut v = x[i] / m[(i, i)];
            for k in (i + 1..n).rev() {
                v -= m[(k, i)] * x[k];
            }
            x[i] = v;
        }
    }

    /// The free-block solve as TRON took it before `ldlt_solve_masked`:
    /// gather the free rows and columns into a block of their own, factor
    /// it, solve, scatter the step back with zeros on the held variables.
    fn gathered_ldlt_solve(h: &SmallMatrix, free: &[bool], b: &[f64]) -> Option<[f64; MAX_DIM]> {
        let index: Vec<usize> = (0..free.len()).filter(|&i| free[i]).collect();
        let mut block = SmallMatrix::zeros(index.len());
        let mut d = vec![0.0; index.len()];
        for (a, &i) in index.iter().enumerate() {
            for (c, &j) in index[..=a].iter().enumerate() {
                block[(a, c)] = h[(i, j)];
            }
            d[a] = b[i];
        }
        if !ldlt_in_place(&mut block) {
            return None;
        }
        ldlt_solve(&block, &mut d);
        let mut x = [0.0; MAX_DIM];
        for (a, &i) in index.iter().enumerate() {
            x[i] = d[a];
        }
        Some(x)
    }

    /// A solve's outcome as bits: `None` for a refused factor, `Some(None)`
    /// for a solution with a non-finite entry (whose held entries carry
    /// whatever the NaN reached), the solution's bits otherwise.
    fn outcome(x: Option<[f64; MAX_DIM]>) -> Option<Option<[u64; MAX_DIM]>> {
        x.map(|x| x.iter().all(|v| v.is_finite()).then(|| x.map(f64::to_bits)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Over every dimension up to `MAX_DIM`, with nothing, everything or
        /// a random set free, on positive-definite, indefinite and singular
        /// blocks, with NaN or ±∞ in a free entry of the matrix or of `b`,
        /// and with NaN garbage in the held rows and columns, the upper
        /// triangle and the held entries of `b`: the masked solve refuses
        /// exactly when the gathered solve does, and their solutions are
        /// bitwise equal (or both have a non-finite entry). The same case in
        /// one lane of a lock-step solve, beside partner lanes holding the
        /// same block, its held variables freed and its free ones held, its
        /// negation or a NaN right-hand side, refuses and solves exactly as
        /// it does alone, and so does each partner.
        #[test]
        fn masked_solve_is_bitwise_the_gathered_solve(
            n in 1..=MAX_DIM,
            mask_kind in 0..6usize,
            mask in 0..1usize << MAX_DIM,
            kind in 0..3usize,
            c in prop::collection::vec(-1.0f64..1.0, MAX_DIM * MAX_DIM),
            b in prop::collection::vec(-3.0f64..3.0, MAX_DIM),
            poison in 0..10usize,
            at_i in 0..MAX_DIM,
            at_j in 0..MAX_DIM,
            garbage in 0..2usize,
            partner in 0..4usize,
            slot in 0..LANES,
        ) {
            let free: Vec<bool> = (0..n)
                .map(|i| match mask_kind {
                    0 => false,
                    1 => true,
                    _ => mask >> i & 1 == 1,
                })
                .collect();
            // H = C Cᵀ over `rank` columns of C: positive definite at full
            // rank (plus a margin), singular below it; indefinite is C Cᵀ
            // shifted down by half its mean diagonal.
            let rank = if kind == 2 { n / 2 } else { n };
            let mut h = SmallMatrix::zeros(n);
            for i in 0..n {
                for j in 0..=i {
                    let v: f64 = (0..rank).map(|k| c[i * MAX_DIM + k] * c[j * MAX_DIM + k]).sum();
                    h[(i, j)] = v;
                }
            }
            let mean_diag = (0..n).map(|i| h[(i, i)]).sum::<f64>() / n as f64;
            for i in 0..n {
                h[(i, i)] += match kind {
                    0 => 0.1,
                    1 => -0.5 * mean_diag,
                    _ => 0.0,
                };
            }
            let mut b: Vec<f64> = b[..n].to_vec();
            let index: Vec<usize> = (0..n).filter(|&i| free[i]).collect();
            let poisoned = !index.is_empty() && poison >= 5;
            if poisoned {
                let (r, s) = (index[at_i % index.len()], index[at_j % index.len()]);
                let (i, j) = (r.max(s), r.min(s));
                match poison {
                    5 => h[(i, j)] = f64::NAN,
                    6 => h[(i, j)] = f64::INFINITY,
                    7 => h[(i, j)] = f64::NEG_INFINITY,
                    8 => b[i] = f64::NAN,
                    _ => b[i] = f64::INFINITY,
                }
            }
            if garbage == 1 {
                for r in 0..n {
                    for s in 0..n {
                        if s > r || !(free[r] && free[s]) {
                            h[(r, s)] = f64::NAN;
                        }
                    }
                    if !free[r] {
                        b[r] = f64::NAN;
                    }
                }
            }
            let masked = scalar_solve(&h, &free, &b);
            let gathered = gathered_ldlt_solve(&h, &free, &b);
            prop_assert_eq!(outcome(masked), outcome(gathered));
            if poisoned && (5..=7).contains(&poison) {
                // NaN or ±∞ anywhere in the free block forces a pivot that is
                // not positive and finite: +∞ on the diagonal is that pivot
                // itself, off it a NaN or −∞ one.
                prop_assert_eq!(masked, None);
            }
            if let Some(x) = masked {
                for r in (0..n).filter(|&r| !free[r]) {
                    prop_assert!(!x[r].is_finite() || x[r].to_bits() == 0, "held x[{}] = {}", r, x[r]);
                }
            }

            let (mut other_h, mut other_free, mut other_b) = (h.clone(), free.clone(), b.clone());
            match partner {
                1 => other_free.iter_mut().for_each(|f| *f = !*f),
                2 => {
                    for r in 0..n {
                        for s in 0..n {
                            other_h[(r, s)] = -h[(r, s)];
                        }
                    }
                }
                3 => other_b.iter_mut().for_each(|v| *v = f64::NAN),
                _ => {}
            }
            let pick = |k: usize| if k == slot { (&h, &free, &b) } else { (&other_h, &other_free, &other_b) };
            let mut lanes = SmallMatrix::<Lanes>::zeros(n);
            for r in 0..n {
                for s in 0..n {
                    lanes[(r, s)] = Lanes::from_fn(|k| pick(k).0[(r, s)]);
                }
            }
            let lane_free: Vec<LaneMask> = (0..n).map(|i| LaneMask::from_fn(|k| pick(k).1[i])).collect();
            let lane_b: Vec<Lanes> = (0..n).map(|i| Lanes::from_fn(|k| pick(k).2[i])).collect();
            let (x, ok) = lanes.ldlt_solve_masked(&lane_free, &lane_b);
            for k in 0..LANES {
                let (hk, fk, bk) = pick(k);
                let lane = ok.lane(k).then(|| std::array::from_fn(|i| x[i].0[k]));
                prop_assert_eq!(outcome(lane), outcome(scalar_solve(hk, fk, bk)), "lane {}", k);
            }
        }
    }

    #[test]
    fn vector_helpers() {
        let a = vec![3.0, -4.0];
        assert!((norm2(&a) - 5.0).abs() < 1e-12);
        assert!((dot(&a, &a) - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at most 8x8")]
    fn dimension_above_capacity_panics() {
        let _ = SmallMatrix::<f64>::zeros(MAX_DIM + 1);
    }

    #[test]
    fn identity_mul_is_noop() {
        let m = identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        m.mul_vec(&x, &mut y);
        assert_eq!(x, y);
    }
}
