//! Small dense linear-algebra kernels.
//!
//! These cover the tiny systems that appear inside the component subproblems:
//! the 2×2 Schur complements of the bus updates and the ≤ 8×8 dense Hessians
//! of the branch subproblems. [`SmallMatrix`] stores its entries inline and
//! everything else works on caller-provided slices, so nothing here touches
//! the heap, the way a GPU thread block works out of registers and shared
//! memory.

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
/// `n × n` block stay zero.
#[derive(Debug, Clone, PartialEq)]
pub struct SmallMatrix {
    n: usize,
    data: [f64; MAX_DIM * MAX_DIM],
}

impl SmallMatrix {
    /// Zero matrix of dimension `n`. Panics when `n` exceeds [`MAX_DIM`].
    #[inline]
    pub fn zeros(n: usize) -> Self {
        assert!(
            n <= MAX_DIM,
            "SmallMatrix holds at most {MAX_DIM}x{MAX_DIM} entries, asked for dimension {n}"
        );
        SmallMatrix {
            n,
            data: [0.0; MAX_DIM * MAX_DIM],
        }
    }

    /// Reset every entry to zero.
    #[inline]
    pub fn set_zero(&mut self) {
        self.data = [0.0; MAX_DIM * MAX_DIM];
    }

    /// Identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

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

    /// LDLᵀ factorization in place, square-root free, reading only the
    /// lower triangle: on return the strict lower triangle holds the unit
    /// lower factor `L`, the diagonal holds `D`, and the strict upper
    /// triangle holds `(L D)ᵀ`, the unscaled entries every later column
    /// reads — so no pivot's division lies on the next pivot's path.
    /// Returns `false` when a pivot is not positive — the matrix is not
    /// positive definite, or an entry is NaN — leaving the matrix partly
    /// overwritten.
    pub fn ldlt_in_place(&mut self) -> bool {
        let n = self.n;
        for j in 0..n {
            // Entry (k, j) above the diagonal is L_jk D_k, written by column k.
            let mut d = self[(j, j)];
            for k in 0..j {
                d -= self[(j, k)] * self[(k, j)];
            }
            if d.is_nan() || d <= 0.0 {
                return false;
            }
            self[(j, j)] = d;
            for i in j + 1..n {
                let mut v = self[(i, j)];
                for k in 0..j {
                    v -= self[(i, k)] * self[(k, j)];
                }
                self[(j, i)] = v;
                self[(i, j)] = v / d;
            }
        }
        true
    }

    /// Solve `L D Lᵀ x = b` in place given a factor produced by
    /// [`Self::ldlt_in_place`]: `x` holds `b` on entry and the solution on
    /// return.
    pub fn ldlt_solve(&self, x: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(x.len(), n);
        // Forward solve L y = b.
        for i in 0..n {
            let mut v = x[i];
            for k in 0..i {
                v -= self[(i, k)] * x[k];
            }
            x[i] = v;
        }
        // Diagonal solve, then back solve Lᵀ x = D⁻¹ y, subtracting the
        // entry solved last at the end of each row's chain.
        for i in (0..n).rev() {
            let mut v = x[i] / self[(i, i)];
            for k in (i + 1..n).rev() {
                v -= self[(k, i)] * x[k];
            }
            x[i] = v;
        }
    }
}

impl std::ops::Index<(usize, usize)> for SmallMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.n && j < self.n);
        &self.data[i * MAX_DIM + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for SmallMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.n && j < self.n);
        &mut self.data[i * MAX_DIM + j]
    }
}

/// Dot product.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Infinity norm.
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).fold(0.0, f64::max)
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let orig = m.clone();
        assert!(m.ldlt_in_place());
        let b = vec![1.0, 2.0, 3.0];
        let mut x = b.clone();
        m.ldlt_solve(&mut x);
        let mut r = vec![0.0; 3];
        orig.mul_vec(&x, &mut r);
        for i in 0..3 {
            assert!((r[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut m = SmallMatrix::identity(2);
        m[(1, 1)] = -1.0;
        assert!(!m.ldlt_in_place());
        // A NaN pivot is no positive pivot: `NaN <= 0.0` is false too.
        let mut m = SmallMatrix::identity(3);
        m[(1, 1)] = f64::NAN;
        assert!(!m.ldlt_in_place());
    }

    #[test]
    fn vector_helpers() {
        let a = vec![3.0, -4.0];
        assert!((norm2(&a) - 5.0).abs() < 1e-12);
        assert!((norm_inf(&a) - 4.0).abs() < 1e-12);
        assert!((dot(&a, &a) - 25.0).abs() < 1e-12);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![7.0, -7.0]);
    }

    #[test]
    #[should_panic(expected = "at most 8x8")]
    fn dimension_above_capacity_panics() {
        let _ = SmallMatrix::zeros(MAX_DIM + 1);
    }

    #[test]
    fn identity_mul_is_noop() {
        let m = SmallMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        m.mul_vec(&x, &mut y);
        assert_eq!(x, y);
    }
}
