//! Cauchy point computation along the projected-gradient path.
//!
//! The Cauchy point is the first local minimizer of the quadratic model along
//! the projected steepest-descent path `P[x - t g]`, limited to the trust
//! region. TRON uses it both to guarantee global convergence and to predict
//! the active set for the subsequent subspace phase. It is the fallback of
//! an iteration: the solver first tries the direct step (the free block's
//! Newton step from the iterate, which decreases the model at least as much
//! as the Cauchy point when it is admissible) and computes the Cauchy point
//! only when that step is refused.
//!
//! The search starts at the model's own step length: the exact minimiser of
//! `q` along `-g`, `t₀ = gᵀg / gᵀHg`, capped at the trust-region boundary
//! `Δ / ‖g‖` (just the boundary when `gᵀHg ≤ 0`), and halves `t` from there.
//! On an unprojected, untruncated path `t₀` meets sufficient decrease at
//! once (`q = -½ gᵀg·t₀ ≤ -μ₀ gᵀg·t₀`), and `t₀ ≥ 1/λ_max(H)` is the
//! step-length bound Lin–Moré's convergence theory asks of the Cauchy point.
//! Starting at the boundary instead, the branch blocks — whose Hessians
//! carry ADMM penalties of 1e2–1e5 — overshot by four to five decades and
//! halved 21–30 times per TRON iteration.

use crate::problem::BoundProblem;
use gridsim_sparse::{SmallMatrix, MAX_DIM};

/// Sufficient-decrease constant of the search: `q(s) <= MU0 * g's`.
const MU0: f64 = 1e-2;

/// Result of the Cauchy search.
#[derive(Debug, Clone, Copy)]
pub struct CauchyPoint {
    /// Step `s = x_c - x` in the first `dim` entries (the rest stay zero).
    pub step: [f64; MAX_DIM],
    /// The step length `t` along the projected gradient path.
    pub t: f64,
    /// Model reduction `q(s)` (negative when the model decreased).
    pub model_value: f64,
    /// How many step lengths were tried, the accepted one included.
    pub trials: usize,
}

/// Quadratic model value `q(s) = g's + 0.5 s'Hs`.
#[inline]
pub(crate) fn model_value(g: &[f64], h: &SmallMatrix, s: &[f64], scratch: &mut [f64]) -> f64 {
    h.mul_vec(s, scratch);
    let mut v = 0.0;
    for i in 0..s.len() {
        v += g[i] * s[i] + 0.5 * s[i] * scratch[i];
    }
    v
}

/// Compute the Cauchy point at `x` with gradient `g`, Hessian `h`, and trust
/// radius `delta` using backtracking on the sufficient-decrease condition
/// `q(s(t)) <= MU0 * g's(t)`, starting from
/// `t₀ = min(delta / ‖g‖, g'g / g'Hg)` (`delta / ‖g‖` when `g'Hg ≤ 0`).
/// Returns a zero step when 40 trials find no decrease. Every trial step
/// lives on the stack.
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
    let mut scratch = [0.0; MAX_DIM];
    let gg = g.iter().map(|v| v * v).sum::<f64>();
    let gnorm = gg.sqrt();
    let mut t = if gnorm > 0.0 { delta / gnorm } else { 1.0 };
    h.mul_vec(g, &mut scratch[..n]);
    let ghg: f64 = g.iter().zip(&scratch[..n]).map(|(a, b)| a * b).sum();
    if ghg > 0.0 {
        t = t.min(gg / ghg);
    }
    let mut step = [0.0; MAX_DIM];
    let mut trials = 0;

    while trials < 40 {
        trials += 1;
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
        if q <= MU0 * gs && gs <= 0.0 {
            return CauchyPoint {
                step,
                t,
                model_value: q,
                trials,
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
        trials,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::problem::QuadraticBox;
    use proptest::prelude::*;

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
        // Steep gradient pushes toward the lower bound at -0.1, which cuts
        // the path well short of the model's minimiser along -g.
        let qp = QuadraticBox::diagonal(&[1.0], &[-100.0], &[-0.1], &[5.0]);
        let x = [0.0];
        let (g, h) = derivatives_at(&qp, &x);
        let cp = cauchy_point(&qp, &x, &g, &h, 10.0);
        assert_eq!(x[0] + cp.step[0], -0.1, "{cp:?}");
        assert!(cp.model_value < 0.0);
        assert_eq!(contract_violation(&qp, &x, &g, &h, 10.0, &cp), None);
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
        // g = (-0.5, -3) and g'Hg = 0.25 - 36 < 0: the model has no
        // minimiser along -g, so the search starts at the boundary.
        let mut qp = QuadraticBox::diagonal(&[1.0, 1.0], &[1.0, 1.0], &[-2.0; 2], &[2.0; 2]);
        qp.q[(1, 1)] = -4.0;
        let x = [0.5, 0.5];
        let (g, h) = derivatives_at(&qp, &x);
        let cp = cauchy_point(&qp, &x, &g, &h, 0.5);
        let gnorm = g.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert_eq!(cp.t.to_bits(), (0.5 / gnorm).to_bits(), "t = {}", cp.t);
        assert!(cp.model_value < 0.0);
        assert_eq!(contract_violation(&qp, &x, &g, &h, 0.5, &cp), None);
    }

    /// `g`, `H` of `qp` at `x`.
    pub(crate) fn derivatives_at(qp: &QuadraticBox, x: &[f64]) -> (Vec<f64>, SmallMatrix) {
        let n = x.len();
        let (mut g, mut h) = (vec![0.0; n], SmallMatrix::zeros(n));
        qp.derivatives(x, &mut g, &mut h);
        (g, h)
    }

    /// Why `cp` breaks the search's contract at `x`, if it does: `x + s` in
    /// the box, `‖s‖ ≤ Δ`, `g's ≤ 0` and `q(s) ≤ MU0·g's` — unless `cp` is
    /// the zero-step fallback.
    fn contract_violation(
        qp: &QuadraticBox,
        x: &[f64],
        g: &[f64],
        h: &SmallMatrix,
        delta: f64,
        cp: &CauchyPoint,
    ) -> Option<String> {
        let n = x.len();
        let s = &cp.step[..n];
        if cp.t == 0.0 && cp.model_value == 0.0 && s.iter().all(|&v| v == 0.0) {
            return None;
        }
        for i in 0..n {
            let slack = 1e-12 * (1.0 + qp.l[i].abs().max(qp.u[i].abs()));
            let xi = x[i] + s[i];
            if xi < qp.l[i] - slack || xi > qp.u[i] + slack {
                return Some(format!("x + s leaves the box at {i}: {xi}"));
            }
        }
        let norm = s.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > delta * (1.0 + 1e-12) {
            return Some(format!("‖s‖ = {norm} > Δ = {delta}"));
        }
        let gs: f64 = g.iter().zip(s).map(|(a, b)| a * b).sum();
        let q = model_value(g, h, s, &mut vec![0.0; n]);
        if !(gs <= 0.0 && q <= MU0 * gs) {
            return Some(format!("no sufficient decrease: g's = {gs}, q = {q}"));
        }
        None
    }

    #[test]
    fn stiff_interior_quadratic_accepts_the_models_minimiser_first() {
        let qp = QuadraticBox::diagonal(&[1e4, 2e4, 5e3], &[0.0; 3], &[-5.0; 3], &[5.0; 3]);
        let x = [0.1, -0.2, 0.3];
        let (g, h) = derivatives_at(&qp, &x);
        let gg = g.iter().map(|v| v * v).sum::<f64>();
        let mut hg = [0.0; 3];
        h.mul_vec(&g, &mut hg);
        let ghg: f64 = g.iter().zip(&hg).map(|(a, b)| a * b).sum();
        let delta = gg.sqrt().max(1.0);
        let cp = cauchy_point(&qp, &x, &g, &h, delta);
        assert_eq!(cp.t.to_bits(), (gg / ghg).to_bits(), "t = {}", cp.t);
        assert_eq!(cp.trials, 1);
        assert_eq!(contract_violation(&qp, &x, &g, &h, delta, &cp), None);
    }

    /// A dense 6-variable box QP shaped like the golden generator's
    /// (`tests/golden_dense_qp.rs`): `Q = D S D` with a convex, indefinite
    /// or concave-leaning diagonal shift, `D` spread over two decades, a
    /// tight or a wide box, and a point inside it. `shape` (0..12) picks the
    /// shift, the scaling's decade and the box; `s` holds 36 entries in
    /// `[-1, 1)`, `unit_x` 6.
    pub(crate) fn dense_box_qp(
        shape: usize,
        scale: &[f64],
        s: &[f64],
        c: Vec<f64>,
        unit_x: &[f64],
    ) -> (QuadraticBox, Vec<f64>) {
        let shift = [6.0, 0.0, -1.5][shape % 3];
        let decade = [1.0, 10.0][shape / 3 % 2];
        let half_width = [5.0, 0.2][shape / 6];
        let d: Vec<f64> = scale.iter().map(|v| v * decade).collect();
        let mut q = SmallMatrix::zeros(6);
        for i in 0..6 {
            q[(i, i)] = (shift + 2.0 * s[6 * i + i]) * d[i] * d[i];
            for j in 0..i {
                let v = s[6 * i + j] * d[i] * d[j];
                q[(i, j)] = v;
                q[(j, i)] = v;
            }
        }
        let qp = QuadraticBox {
            q,
            c,
            l: vec![-half_width; 6],
            u: vec![half_width; 6],
        };
        (qp, unit_x.iter().map(|v| v * half_width).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_step_keeps_the_search_contract(
            shape in 0..12usize,
            scale in prop::collection::vec(0.1f64..1.0, 6),
            s in prop::collection::vec(-1.0f64..1.0, 36),
            c in prop::collection::vec(-3.0f64..3.0, 6),
            unit_x in prop::collection::vec(-1.0f64..1.0, 6),
            log_delta in -3.0f64..3.0,
        ) {
            let (qp, x) = dense_box_qp(shape, &scale, &s, c, &unit_x);
            let (g, h) = derivatives_at(&qp, &x);
            let delta = 10f64.powf(log_delta);
            let cp = cauchy_point(&qp, &x, &g, &h, delta);
            let violation = contract_violation(&qp, &x, &g, &h, delta, &cp);
            prop_assert!(violation.is_none(), "{violation:?}: {cp:?}");
        }
    }
}
