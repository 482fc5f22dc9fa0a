//! The full polar ACOPF formulation (1) as a smooth NLP.
//!
//! This is the formulation the paper hands to Ipopt through PowerModels.jl
//! (with the automatic angle-difference tightening disabled, as described in
//! Section IV-A). Variables are bus voltage angles and magnitudes plus
//! generator dispatch:
//!
//! ```text
//! x = [ va (nbus) | vm (nbus) | pg (ngen) | qg (ngen) ]
//! ```
//!
//! Equality constraints: real and reactive power balance at every bus plus
//! the reference-angle anchor. Inequality constraints: squared apparent-power
//! line limits at both ends of every rated branch.
//!
//! Every derivative structure is a function of the network alone: each
//! branch declares its full 4×4 Hessian block and its 4 × 4 equality and
//! 2 × 4 inequality Jacobian entries whatever their values, and each branch
//! is evaluated at one [`FlowPoint`], so one `sin_cos` serves its values,
//! gradients and Hessians.

use crate::nlp::Nlp;
use gridsim_acopf::start::cold_start;
use gridsim_acopf::{BranchFlow, FlowPoint, OpfSolution};
use gridsim_grid::Network;
use gridsim_sparse::Coo;

/// The ACOPF NLP over a compiled [`Network`].
#[derive(Debug, Clone)]
pub struct AcopfNlp<'a> {
    net: &'a Network,
    /// Branches with a finite thermal rating (only these get limit
    /// constraints).
    limited: Vec<usize>,
    /// Per branch, its position `k` in `limited` (its limit rows are `2k`
    /// and `2k + 1`), `None` for an unrated branch.
    limit_index: Vec<Option<usize>>,
    /// Optional override of the generator real-power bounds (used by the
    /// warm-start tracking experiment to impose ramp limits).
    pg_bounds: Option<(Vec<f64>, Vec<f64>)>,
}

impl<'a> AcopfNlp<'a> {
    /// Build the NLP for a network.
    pub fn new(net: &'a Network) -> Self {
        let limited: Vec<usize> = (0..net.nbranch)
            .filter(|&l| net.rate_a[l].is_finite())
            .collect();
        let mut limit_index = vec![None; net.nbranch];
        for (k, &l) in limited.iter().enumerate() {
            limit_index[l] = Some(k);
        }
        AcopfNlp {
            net,
            limited,
            limit_index,
            pg_bounds: None,
        }
    }

    /// Override the generator real-power bounds (ramp-limited tracking).
    pub fn with_pg_bounds(mut self, pmin: Vec<f64>, pmax: Vec<f64>) -> Self {
        assert_eq!(pmin.len(), self.net.ngen);
        assert_eq!(pmax.len(), self.net.ngen);
        self.pg_bounds = Some((pmin, pmax));
        self
    }

    /// Number of line-limit constraints (two per rated branch).
    pub(crate) fn num_line_limits(&self) -> usize {
        2 * self.limited.len()
    }

    #[inline]
    fn va_idx(&self, b: usize) -> usize {
        b
    }
    #[inline]
    fn vm_idx(&self, b: usize) -> usize {
        self.net.nbus + b
    }
    #[inline]
    fn pg_idx(&self, g: usize) -> usize {
        2 * self.net.nbus + g
    }
    #[inline]
    fn qg_idx(&self, g: usize) -> usize {
        2 * self.net.nbus + self.net.ngen + g
    }

    /// Branch-variable global indices in the flow-derivative order
    /// `(v_i, v_j, θ_i, θ_j)`.
    #[inline]
    fn branch_var_indices(&self, l: usize) -> [usize; 4] {
        let f = self.net.br_from[l];
        let t = self.net.br_to[l];
        [
            self.vm_idx(f),
            self.vm_idx(t),
            self.va_idx(f),
            self.va_idx(t),
        ]
    }

    /// Branch `l`'s flow evaluation point at `x`.
    #[inline]
    fn branch_point(&self, x: &[f64], l: usize) -> FlowPoint {
        let [vi, vj, ti, tj] = self.branch_var_indices(l).map(|i| x[i]);
        FlowPoint::new(vi, vj, ti, tj)
    }

    /// Whether bus `b` carries a shunt, and so a `vm_b` term in its balance
    /// rows.
    #[inline]
    fn has_shunt(&self, b: usize) -> bool {
        self.net.gs[b] != 0.0 || self.net.bs[b] != 0.0
    }

    /// Convert a raw solver vector into an [`OpfSolution`].
    pub fn to_solution(&self, x: &[f64]) -> OpfSolution {
        let n = self.net;
        OpfSolution {
            va: x[..n.nbus].to_vec(),
            vm: x[n.nbus..2 * n.nbus].to_vec(),
            pg: (0..n.ngen).map(|g| x[self.pg_idx(g)]).collect(),
            qg: (0..n.ngen).map(|g| x[self.qg_idx(g)]).collect(),
        }
    }

    /// Flatten an [`OpfSolution`] into the solver's variable order.
    pub fn from_solution(&self, sol: &OpfSolution) -> Vec<f64> {
        let n = self.net;
        let mut x = vec![0.0; self.num_vars()];
        x[..n.nbus].copy_from_slice(&sol.va);
        x[n.nbus..2 * n.nbus].copy_from_slice(&sol.vm);
        for g in 0..n.ngen {
            x[self.pg_idx(g)] = sol.pg[g];
            x[self.qg_idx(g)] = sol.qg[g];
        }
        x
    }
}

/// Writes values one after another into a slice aligned with a declared
/// structure.
struct Writer<'v> {
    slots: std::slice::IterMut<'v, f64>,
}

impl<'v> Writer<'v> {
    fn new(vals: &'v mut [f64]) -> Self {
        Writer {
            slots: vals.iter_mut(),
        }
    }

    #[inline]
    fn put(&mut self, v: f64) {
        *self.slots.next().expect("one value per declared triplet") = v;
    }

    /// Every declared triplet was written.
    fn finish(mut self) {
        assert!(
            self.slots.next().is_none(),
            "a declared triplet went unwritten"
        );
    }
}

impl Nlp for AcopfNlp<'_> {
    fn num_vars(&self) -> usize {
        2 * self.net.nbus + 2 * self.net.ngen
    }

    fn num_eq(&self) -> usize {
        2 * self.net.nbus + 1
    }

    fn num_ineq(&self) -> usize {
        self.num_line_limits()
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.net;
        let mut lo = Vec::with_capacity(self.num_vars());
        let mut hi = Vec::with_capacity(self.num_vars());
        // Angles: formulation (1h).
        let two_pi = 2.0 * std::f64::consts::PI;
        lo.extend(std::iter::repeat_n(-two_pi, n.nbus));
        hi.extend(std::iter::repeat_n(two_pi, n.nbus));
        // Magnitudes.
        lo.extend_from_slice(&n.vmin);
        hi.extend_from_slice(&n.vmax);
        // Dispatch.
        let (pmin, pmax) = match &self.pg_bounds {
            Some((lo_pg, hi_pg)) => (lo_pg.clone(), hi_pg.clone()),
            None => (n.pmin.clone(), n.pmax.clone()),
        };
        lo.extend_from_slice(&pmin);
        hi.extend_from_slice(&pmax);
        lo.extend_from_slice(&n.qmin);
        hi.extend_from_slice(&n.qmax);
        (lo, hi)
    }

    fn initial_point(&self) -> Vec<f64> {
        self.from_solution(&cold_start(self.net))
    }

    fn objective(&self, x: &[f64]) -> f64 {
        let n = self.net;
        (0..n.ngen)
            .map(|g| {
                let pg = x[self.pg_idx(g)];
                (n.cost_c2[g] * pg + n.cost_c1[g]) * pg + n.cost_c0[g]
            })
            .sum()
    }

    fn objective_grad(&self, x: &[f64], grad: &mut [f64]) {
        grad.fill(0.0);
        let n = self.net;
        for g in 0..n.ngen {
            let pg = x[self.pg_idx(g)];
            grad[self.pg_idx(g)] = 2.0 * n.cost_c2[g] * pg + n.cost_c1[g];
        }
    }

    fn eq_constraints(&self, x: &[f64], c: &mut [f64]) {
        let n = self.net;
        // Initialize with load, shunt and generation.
        for b in 0..n.nbus {
            let vm = x[self.vm_idx(b)];
            c[b] = -n.pd[b] - n.gs[b] * vm * vm;
            c[n.nbus + b] = -n.qd[b] + n.bs[b] * vm * vm;
        }
        for g in 0..n.ngen {
            let b = n.gen_bus[g];
            c[b] += x[self.pg_idx(g)];
            c[n.nbus + b] += x[self.qg_idx(g)];
        }
        // Subtract branch flows leaving each bus.
        for l in 0..n.nbranch {
            let p = self.branch_point(x, l);
            let [pij, qij, pji, qji] =
                BranchFlow::all_from_admittance(&n.br_y[l]).map(|flow| flow.value_at(&p));
            let f = n.br_from[l];
            let t = n.br_to[l];
            c[f] -= pij;
            c[n.nbus + f] -= qij;
            c[t] -= pji;
            c[n.nbus + t] -= qji;
        }
        // Reference-angle anchor.
        c[2 * n.nbus] = x[self.va_idx(n.ref_bus)];
    }

    fn ineq_constraints(&self, x: &[f64], c: &mut [f64]) {
        let n = self.net;
        for (k, &l) in self.limited.iter().enumerate() {
            let p = self.branch_point(x, l);
            let [pij, qij, pji, qji] =
                BranchFlow::all_from_admittance(&n.br_y[l]).map(|flow| flow.value_at(&p));
            let limit = n.rate_a[l] * n.rate_a[l];
            c[2 * k] = pij * pij + qij * qij - limit;
            c[2 * k + 1] = pji * pji + qji * qji - limit;
        }
    }

    /// Shunt terms (buses with a shunt), generator injections, the 4 × 4
    /// flow block of every branch, the reference angle.
    fn eq_jacobian_structure(&self) -> Coo {
        let n = self.net;
        let mut jac = Coo::with_capacity(
            self.num_eq(),
            self.num_vars(),
            16 * n.nbranch + 2 * n.ngen + 2 * n.nbus + 1,
        );
        for b in 0..n.nbus {
            if n.gs[b] != 0.0 {
                jac.push(b, self.vm_idx(b), 0.0);
            }
            if n.bs[b] != 0.0 {
                jac.push(n.nbus + b, self.vm_idx(b), 0.0);
            }
        }
        for g in 0..n.ngen {
            let b = n.gen_bus[g];
            jac.push(b, self.pg_idx(g), 0.0);
            jac.push(n.nbus + b, self.qg_idx(g), 0.0);
        }
        for l in 0..n.nbranch {
            let idx = self.branch_var_indices(l);
            let (f, t) = (n.br_from[l], n.br_to[l]);
            for row in [f, n.nbus + f, t, n.nbus + t] {
                for col in idx {
                    jac.push(row, col, 0.0);
                }
            }
        }
        jac.push(2 * n.nbus, self.va_idx(n.ref_bus), 0.0);
        jac
    }

    fn eq_jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        let n = self.net;
        let mut out = Writer::new(vals);
        for b in 0..n.nbus {
            let vm = x[self.vm_idx(b)];
            if n.gs[b] != 0.0 {
                out.put(-2.0 * n.gs[b] * vm);
            }
            if n.bs[b] != 0.0 {
                out.put(2.0 * n.bs[b] * vm);
            }
        }
        for _ in 0..n.ngen {
            out.put(1.0);
            out.put(1.0);
        }
        // A flow enters its balance row with a minus sign.
        for l in 0..n.nbranch {
            let p = self.branch_point(x, l);
            for flow in BranchFlow::all_from_admittance(&n.br_y[l]) {
                for v in flow.gradient_at(&p).to_array() {
                    out.put(-v);
                }
            }
        }
        out.put(1.0);
        out.finish();
    }

    /// The 2 × 4 block of every rated branch: its from-side row, then its
    /// to-side row.
    fn ineq_jacobian_structure(&self) -> Coo {
        let mut jac = Coo::with_capacity(self.num_ineq(), self.num_vars(), 8 * self.limited.len());
        for (k, &l) in self.limited.iter().enumerate() {
            let idx = self.branch_var_indices(l);
            for row in [2 * k, 2 * k + 1] {
                for col in idx {
                    jac.push(row, col, 0.0);
                }
            }
        }
        jac
    }

    fn ineq_jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        let n = self.net;
        let mut out = Writer::new(vals);
        for &l in &self.limited {
            let p = self.branch_point(x, l);
            let [pij, qij, pji, qji] = BranchFlow::all_from_admittance(&n.br_y[l]);
            for (fp, fq) in [(pij, qij), (pji, qji)] {
                let (pv, qv) = (fp.value_at(&p), fq.value_at(&p));
                let gp = fp.gradient_at(&p).to_array();
                let gq = fq.gradient_at(&p).to_array();
                for c4 in 0..4 {
                    out.put(2.0 * pv * gp[c4] + 2.0 * qv * gq[c4]);
                }
            }
        }
        out.finish();
    }

    /// Quadratic-cost diagonals, shunt diagonals, and the full 4×4 block
    /// (both triangles) of every branch.
    fn hessian_structure(&self) -> Coo {
        let n = self.net;
        let nv = self.num_vars();
        let mut hess = Coo::with_capacity(nv, nv, 16 * n.nbranch + n.ngen + n.nbus);
        for g in 0..n.ngen {
            if n.cost_c2[g] != 0.0 {
                hess.push(self.pg_idx(g), self.pg_idx(g), 0.0);
            }
        }
        for b in (0..n.nbus).filter(|&b| self.has_shunt(b)) {
            hess.push(self.vm_idx(b), self.vm_idx(b), 0.0);
        }
        for l in 0..n.nbranch {
            let idx = self.branch_var_indices(l);
            for r in idx {
                for c in idx {
                    hess.push(r, c, 0.0);
                }
            }
        }
        hess
    }

    fn hessian_values(
        &self,
        x: &[f64],
        obj_factor: f64,
        lambda_eq: &[f64],
        lambda_ineq: &[f64],
        vals: &mut [f64],
    ) {
        let n = self.net;
        let mut out = Writer::new(vals);

        // Objective: quadratic generation cost.
        for g in 0..n.ngen {
            if n.cost_c2[g] != 0.0 {
                out.put(2.0 * obj_factor * n.cost_c2[g]);
            }
        }
        // Shunt second derivatives in the balance constraints.
        for b in (0..n.nbus).filter(|&b| self.has_shunt(b)) {
            let mut v = 0.0;
            if n.gs[b] != 0.0 {
                v += lambda_eq[b] * (-2.0 * n.gs[b]);
            }
            if n.bs[b] != 0.0 {
                v += lambda_eq[n.nbus + b] * (2.0 * n.bs[b]);
            }
            out.put(v);
        }
        // Branch flow second derivatives.
        for l in 0..n.nbranch {
            let p = self.branch_point(x, l);
            let flows = BranchFlow::all_from_admittance(&n.br_y[l]);
            let f = n.br_from[l];
            let t = n.br_to[l];
            // Balance-constraint multipliers: the flow enters with a minus
            // sign in the constraint. A zero weight adds nothing to the
            // block, so its flow's Hessian is skipped.
            let eq_weights = [
                -lambda_eq[f],
                -lambda_eq[n.nbus + f],
                -lambda_eq[t],
                -lambda_eq[n.nbus + t],
            ];
            let mut block = [[0.0f64; 4]; 4];
            for (flow, w) in flows.iter().zip(eq_weights) {
                if w == 0.0 {
                    continue;
                }
                let h = flow.hessian_at(&p).to_dense();
                for r in 0..4 {
                    for c in 0..4 {
                        block[r][c] += w * h[r][c];
                    }
                }
            }
            // Line-limit constraint contributions.
            if let Some(k) = self.limit_index[l] {
                let [pij, qij, pji, qji] = flows;
                for (row, (fp, fq)) in [(2 * k, (pij, qij)), (2 * k + 1, (pji, qji))] {
                    let sigma = lambda_ineq[row];
                    if sigma == 0.0 {
                        continue;
                    }
                    let (pv, qv) = (fp.value_at(&p), fq.value_at(&p));
                    let gp = fp.gradient_at(&p).to_array();
                    let gq = fq.gradient_at(&p).to_array();
                    let hp = fp.hessian_at(&p).to_dense();
                    let hq = fq.hessian_at(&p).to_dense();
                    for r in 0..4 {
                        for c in 0..4 {
                            block[r][c] += sigma
                                * (2.0 * gp[r] * gp[c]
                                    + 2.0 * pv * hp[r][c]
                                    + 2.0 * gq[r] * gq[c]
                                    + 2.0 * qv * hq[r][c]);
                        }
                    }
                }
            }
            for v in block.into_iter().flatten() {
                out.put(v);
            }
        }
        out.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_x(nlp: &AcopfNlp<'_>) -> Vec<f64> {
        // A perturbed interior point exercising all nonlinearities.
        let n = nlp.net;
        let mut sol = cold_start(n);
        for b in 0..n.nbus {
            sol.va[b] = 0.02 * (b as f64 % 7.0) - 0.05;
            sol.vm[b] = 1.0 + 0.01 * ((b % 5) as f64 - 2.0);
        }
        sol.va[n.ref_bus] = 0.0;
        for g in 0..n.ngen {
            sol.pg[g] = 0.4 * (n.pmin[g] + n.pmax[g]);
            sol.qg[g] = 0.25 * (n.qmin[g] + n.qmax[g]);
        }
        nlp.from_solution(&sol)
    }

    #[test]
    fn dimensions_are_consistent() {
        let net = gridsim_grid::case9().compile().unwrap();
        let nlp = AcopfNlp::new(&net);
        assert_eq!(nlp.num_vars(), 2 * 9 + 2 * 3);
        assert_eq!(nlp.num_eq(), 19);
        assert_eq!(nlp.num_ineq(), 18);
        let (lo, hi) = nlp.bounds();
        assert_eq!(lo.len(), nlp.num_vars());
        assert!(lo.iter().zip(&hi).all(|(l, u)| l <= u));
    }

    #[test]
    fn solution_roundtrip() {
        let net = gridsim_grid::case14().compile().unwrap();
        let nlp = AcopfNlp::new(&net);
        let sol = cold_start(&net);
        let x = nlp.from_solution(&sol);
        let back = nlp.to_solution(&x);
        assert_eq!(sol, back);
    }

    #[test]
    fn eq_constraints_match_power_mismatch() {
        let net = gridsim_grid::case9().compile().unwrap();
        let nlp = AcopfNlp::new(&net);
        let x = sample_x(&nlp);
        let sol = nlp.to_solution(&x);
        let (dp, dq) = sol.power_mismatch(&net);
        let mut c = vec![0.0; nlp.num_eq()];
        nlp.eq_constraints(&x, &mut c);
        for b in 0..net.nbus {
            assert!((c[b] - dp[b]).abs() < 1e-10, "bus {b} P");
            assert!((c[net.nbus + b] - dq[b]).abs() < 1e-10, "bus {b} Q");
        }
        assert!((c[2 * net.nbus] - sol.va[net.ref_bus]).abs() < 1e-14);
    }

    #[test]
    fn objective_gradient_matches_finite_difference() {
        let net = gridsim_grid::case9().compile().unwrap();
        let nlp = AcopfNlp::new(&net);
        let x = sample_x(&nlp);
        let mut g = vec![0.0; nlp.num_vars()];
        nlp.objective_grad(&x, &mut g);
        let h = 1e-6;
        for i in 0..nlp.num_vars() {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[i] += h;
            xm[i] -= h;
            let fd = (nlp.objective(&xp) - nlp.objective(&xm)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-4, "var {i}: {} vs {fd}", g[i]);
        }
    }

    #[test]
    fn eq_jacobian_matches_finite_difference() {
        let net = gridsim_grid::case9().compile().unwrap();
        let nlp = AcopfNlp::new(&net);
        let x = sample_x(&nlp);
        let jac = nlp.eq_jacobian(&x).to_csc();
        let m = nlp.num_eq();
        let h = 1e-6;
        let mut cp = vec![0.0; m];
        let mut cm = vec![0.0; m];
        for col in 0..nlp.num_vars() {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[col] += h;
            xm[col] -= h;
            nlp.eq_constraints(&xp, &mut cp);
            nlp.eq_constraints(&xm, &mut cm);
            for row in 0..m {
                let fd = (cp[row] - cm[row]) / (2.0 * h);
                let val = jac.get(row, col);
                assert!(
                    (val - fd).abs() < 1e-5,
                    "eq jac ({row},{col}): {val} vs {fd}"
                );
            }
        }
    }

    #[test]
    fn ineq_jacobian_matches_finite_difference() {
        let net = gridsim_grid::case9().compile().unwrap();
        let nlp = AcopfNlp::new(&net);
        let x = sample_x(&nlp);
        let jac = nlp.ineq_jacobian(&x).to_csc();
        let m = nlp.num_ineq();
        let h = 1e-6;
        let mut cp = vec![0.0; m];
        let mut cm = vec![0.0; m];
        for col in 0..nlp.num_vars() {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[col] += h;
            xm[col] -= h;
            nlp.ineq_constraints(&xp, &mut cp);
            nlp.ineq_constraints(&xm, &mut cm);
            for row in 0..m {
                let fd = (cp[row] - cm[row]) / (2.0 * h);
                let val = jac.get(row, col);
                assert!(
                    (val - fd).abs() < 1e-4,
                    "ineq jac ({row},{col}): {val} vs {fd}"
                );
            }
        }
    }

    /// The Hessian of the Lagrangian against finite differences of its
    /// gradient, at multipliers that differ on every row, so each rated
    /// branch's block must pick up its own two limit rows.
    fn assert_hessian_matches_finite_difference(net: &Network) {
        let nlp = AcopfNlp::new(net);
        let x = sample_x(&nlp);
        let nv = nlp.num_vars();
        // Arbitrary but fixed multipliers.
        let lam_eq: Vec<f64> = (0..nlp.num_eq()).map(|i| 0.3 + 0.05 * (i as f64)).collect();
        let lam_ineq: Vec<f64> = (0..nlp.num_ineq())
            .map(|i| 0.1 + 0.02 * (i as f64))
            .collect();
        let obj_factor = 0.7;
        let hess = nlp
            .lagrangian_hessian(&x, obj_factor, &lam_eq, &lam_ineq)
            .to_csc();

        // Finite difference of the Lagrangian gradient.
        let lag_grad = |x: &[f64]| -> Vec<f64> {
            let mut g = vec![0.0; nv];
            nlp.objective_grad(x, &mut g);
            for v in &mut g {
                *v *= obj_factor;
            }
            let je = nlp.eq_jacobian(x);
            for k in 0..je.nnz() {
                g[je.cols[k]] += je.vals[k] * lam_eq[je.rows[k]];
            }
            let ji = nlp.ineq_jacobian(x);
            for k in 0..ji.nnz() {
                g[ji.cols[k]] += ji.vals[k] * lam_ineq[ji.rows[k]];
            }
            g
        };
        let h = 1e-6;
        // Spot check a subset of columns (full n^2 check is slow): every
        // variable family is covered.
        let cols_to_check: Vec<usize> = vec![
            0,
            net.ref_bus,
            net.nbus + 1,
            net.nbus + 4,
            2 * net.nbus,
            2 * net.nbus + net.ngen,
        ];
        for &col in &cols_to_check {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[col] += h;
            xm[col] -= h;
            let gp = lag_grad(&xp);
            let gm = lag_grad(&xm);
            for row in 0..nv {
                let fd = (gp[row] - gm[row]) / (2.0 * h);
                let val = hess.get(row, col);
                assert!(
                    (val - fd).abs() < 2e-4,
                    "hessian ({row},{col}): {val} vs {fd}"
                );
            }
        }
    }

    #[test]
    fn lagrangian_hessian_matches_finite_difference() {
        assert_hessian_matches_finite_difference(&gridsim_grid::case9().compile().unwrap());
        // Unrated branches in between: limit row `2k` belongs to the `k`-th
        // rated branch, not to branch `k`.
        let mut case = gridsim_grid::case9();
        for l in [0, 3, 7] {
            case.branches[l].rate_a = 0.0;
        }
        let net = case.compile().unwrap();
        assert_eq!(AcopfNlp::new(&net).num_ineq(), 12);
        assert_hessian_matches_finite_difference(&net);
    }

    /// Every declared triplet is written on every call — a buffer poisoned
    /// with NaN comes back finite — including the ones that are zero at the
    /// point: at the flat start with zero multipliers nearly the whole
    /// Hessian is.
    #[test]
    fn values_write_every_declared_triplet() {
        let net = gridsim_grid::case14().compile().unwrap();
        let nlp = AcopfNlp::new(&net);
        let x = nlp.initial_point();
        let (lam_eq, lam_ineq) = (vec![0.0; nlp.num_eq()], vec![0.0; nlp.num_ineq()]);
        let mut hess = nlp.hessian_structure();
        let mut jac_eq = nlp.eq_jacobian_structure();
        let mut jac_ineq = nlp.ineq_jacobian_structure();
        for coo in [&mut hess, &mut jac_eq, &mut jac_ineq] {
            coo.vals.fill(f64::NAN);
        }
        nlp.hessian_values(&x, 1.0, &lam_eq, &lam_ineq, &mut hess.vals);
        nlp.eq_jacobian_values(&x, &mut jac_eq.vals);
        nlp.ineq_jacobian_values(&x, &mut jac_ineq.vals);
        for coo in [&hess, &jac_eq, &jac_ineq] {
            assert!(coo.vals.iter().all(|v| v.is_finite()));
        }
        assert_eq!(hess.nnz(), 16 * net.nbranch + net.ngen + 1);
        let zeros = hess.vals.iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, 16 * net.nbranch + 1, "all but the cost diagonals");
    }

    #[test]
    fn pg_bound_override_applies() {
        let net = gridsim_grid::case9().compile().unwrap();
        let pmin = vec![0.5; 3];
        let pmax = vec![1.5; 3];
        let nlp = AcopfNlp::new(&net).with_pg_bounds(pmin.clone(), pmax.clone());
        let (lo, hi) = nlp.bounds();
        for g in 0..3 {
            assert_eq!(lo[2 * net.nbus + g], 0.5);
            assert_eq!(hi[2 * net.nbus + g], 1.5);
        }
    }

    #[test]
    fn unlimited_branches_have_no_line_constraints() {
        let mut case = gridsim_grid::case9();
        for b in &mut case.branches {
            b.rate_a = 0.0;
        }
        let net = case.compile().unwrap();
        let nlp = AcopfNlp::new(&net);
        assert_eq!(nlp.num_ineq(), 0);
    }
}
