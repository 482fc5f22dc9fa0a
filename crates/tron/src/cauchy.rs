//! Cauchy point computation along the projected-gradient path.
//!
//! The Cauchy point is the first local minimizer of the quadratic model along
//! the projected steepest-descent path `P[x - t g]`, limited to the trust
//! region. TRON uses it both to guarantee global convergence and to predict
//! the active set for the subsequent conjugate-gradient subspace phase.

use crate::problem::{BoundProblem, MAX_DIM};
use gridsim_sparse::dense::SmallMatrix;

/// Result of the Cauchy search.
#[derive(Debug, Clone, Copy)]
pub struct CauchyPoint {
    /// Step `s = x_c - x` in the first `dim` entries (the rest stay zero).
    pub step: [f64; MAX_DIM],
    /// The step length `t` along the projected gradient path.
    pub t: f64,
    /// Model reduction `q(s)` (negative when the model decreased).
    pub model_value: f64,
}

/// Quadratic model value `q(s) = g's + 0.5 s'Hs`.
#[inline]
pub fn model_value(g: &[f64], h: &SmallMatrix, s: &[f64], scratch: &mut [f64]) -> f64 {
    h.mul_vec(s, scratch);
    let mut v = 0.0;
    for i in 0..s.len() {
        v += g[i] * s[i] + 0.5 * s[i] * scratch[i];
    }
    v
}

/// Compute the Cauchy point at `x` with gradient `g`, Hessian `h`, and trust
/// radius `delta` using backtracking on the sufficient-decrease condition
/// `q(s(t)) <= mu0 * g's(t)`. Every trial step lives on the stack.
#[inline]
pub fn cauchy_point<P: BoundProblem>(
    problem: &P,
    x: &[f64],
    g: &[f64],
    h: &SmallMatrix,
    delta: f64,
) -> CauchyPoint {
    let n = problem.dim();
    let (x, g) = (&x[..n], &g[..n]);
    let mu0 = 1e-2;
    let gnorm = g.iter().map(|v| v * v).sum::<f64>().sqrt();
    let mut t = if gnorm > 0.0 { delta / gnorm } else { 1.0 };
    let mut scratch = [0.0; MAX_DIM];
    let mut step = [0.0; MAX_DIM];

    for _ in 0..40 {
        // Projected step for this t, truncated to the trust region.
        let s = &mut step[..n];
        let mut norm2 = 0.0;
        for i in 0..n {
            let xi = (x[i] - t * g[i]).clamp(problem.lower(i), problem.upper(i));
            s[i] = xi - x[i];
            norm2 += s[i] * s[i];
        }
        let norm = norm2.sqrt();
        if norm > delta && norm > 0.0 {
            let scale = delta / norm;
            for si in s.iter_mut() {
                *si *= scale;
            }
        }
        let gs: f64 = g.iter().zip(&*s).map(|(a, b)| a * b).sum();
        let q = model_value(g, h, s, &mut scratch[..n]);
        if q <= mu0 * gs && gs <= 0.0 {
            return CauchyPoint {
                step,
                t,
                model_value: q,
            };
        }
        t *= 0.5;
        if t < 1e-16 {
            break;
        }
    }
    CauchyPoint {
        step: [0.0; MAX_DIM],
        t: 0.0,
        model_value: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::QuadraticBox;

    #[test]
    fn cauchy_step_decreases_model_for_convex_quadratic() {
        let qp = QuadraticBox::diagonal(&[1.0, 2.0, 4.0], &[1.0, 1.0, 1.0], &[-5.0; 3], &[5.0; 3]);
        let x = vec![2.0, 2.0, 2.0];
        let mut g = vec![0.0; 3];
        let mut h = SmallMatrix::zeros(3);
        qp.derivatives(&x, &mut g, &mut h);
        let cp = cauchy_point(&qp, &x, &g, &h, 1.0);
        assert!(
            cp.model_value < 0.0,
            "model must decrease: {}",
            cp.model_value
        );
        // Step within trust region.
        let norm: f64 = cp.step[..3].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!(norm <= 1.0 + 1e-12);
    }

    #[test]
    fn cauchy_respects_bounds() {
        // Steep gradient pushes toward the lower bound at -0.1.
        let qp = QuadraticBox::diagonal(&[1.0], &[-100.0], &[-0.1], &[5.0]);
        let x = vec![0.0];
        let mut g = vec![0.0; 1];
        let mut h = SmallMatrix::zeros(1);
        qp.derivatives(&x, &mut g, &mut h);
        let cp = cauchy_point(&qp, &x, &g, &h, 10.0);
        assert!(x[0] + cp.step[0] >= -0.1 - 1e-12);
        assert!(cp.model_value < 0.0);
    }

    #[test]
    fn zero_gradient_gives_zero_step() {
        let qp = QuadraticBox::diagonal(&[1.0, 1.0], &[0.0, 0.0], &[-1.0; 2], &[1.0; 2]);
        let x = vec![0.0, 0.0];
        let g = vec![0.0, 0.0];
        let mut h = SmallMatrix::zeros(2);
        qp.derivatives(&x, &mut [0.0; 2], &mut h);
        let cp = cauchy_point(&qp, &x, &g, &h, 1.0);
        assert!(cp.step[..2].iter().all(|&s| s.abs() < 1e-12));
    }

    #[test]
    fn model_value_matches_direct_computation() {
        let g = vec![1.0, -2.0];
        let mut h = SmallMatrix::zeros(2);
        h[(0, 0)] = 2.0;
        h[(1, 1)] = 3.0;
        h[(0, 1)] = 0.5;
        h[(1, 0)] = 0.5;
        let s = vec![0.2, 0.4];
        let mut scratch = vec![0.0; 2];
        let q = model_value(&g, &h, &s, &mut scratch);
        let expect = 1.0 * 0.2 - 2.0 * 0.4
            + 0.5 * (2.0 * 0.2 * 0.2 + 3.0 * 0.4 * 0.4 + 2.0 * 0.5 * 0.2 * 0.4);
        assert!((q - expect).abs() < 1e-12);
    }

    #[test]
    fn negative_curvature_direction_still_produces_decrease() {
        // Indefinite Hessian: the projected gradient direction still gives a
        // model decrease because the sufficient-decrease condition backtracks.
        let mut qp = QuadraticBox::diagonal(&[1.0, 1.0], &[1.0, 1.0], &[-2.0; 2], &[2.0; 2]);
        qp.q[(1, 1)] = -4.0;
        let x = vec![0.5, 0.5];
        let mut g = vec![0.0; 2];
        let mut h = SmallMatrix::zeros(2);
        qp.derivatives(&x, &mut g, &mut h);
        let cp = cauchy_point(&qp, &x, &g, &h, 0.5);
        assert!(cp.model_value <= 0.0);
    }
}
