//! ADMM algorithm parameters.

use gridsim_grid::TableICase;
use gridsim_tron::TronOptions;

/// Parameters of the two-level ADMM algorithm. The penalty values `rho_pq`
/// and `rho_va` correspond to the columns of the paper's Table I.
#[derive(Debug, Clone)]
pub struct AdmmParams {
    /// Penalty on power-type consensus constraints (generator p/q and branch
    /// flow p/q).
    pub rho_pq: f64,
    /// Penalty on voltage-type consensus constraints (squared magnitude and
    /// angle).
    pub rho_va: f64,
    /// Multiplicative increase of the outer-level penalty β when `‖z‖∞`
    /// does not decrease enough between outer iterations.
    pub beta_factor: f64,
    /// Outer convergence tolerance on `‖z‖∞`.
    pub eps_outer: f64,
    /// Inner convergence tolerance on the primal and dual residuals.
    pub eps_inner: f64,
    /// Maximum number of outer iterations (paper: 20).
    pub max_outer: usize,
    /// Maximum number of inner iterations per outer iteration (paper: 1000).
    pub max_inner: usize,
    /// TRON options used by the batch branch solver.
    pub tron: TronOptions,
}

impl Default for AdmmParams {
    fn default() -> Self {
        AdmmParams {
            rho_pq: 10.0,
            rho_va: 1000.0,
            beta_factor: 6.0,
            eps_outer: 1e-5,
            eps_inner: 2e-6,
            max_outer: 20,
            max_inner: 1000,
            tron: TronOptions {
                max_iter: 60,
                gtol: 1e-7,
                ..Default::default()
            },
        }
    }
}

impl AdmmParams {
    /// Parameters with the penalty values the paper's Table I assigns to a
    /// given evaluation case.
    pub fn for_table1_case(case: TableICase) -> AdmmParams {
        let (rho_pq, rho_va) = case.penalties();
        AdmmParams {
            rho_pq,
            rho_va,
            ..Default::default()
        }
    }

    /// Per-case parameter defaults for a Table-I case at a given size:
    /// the paper's Table-I penalties (which are themselves per-case choices)
    /// for the full-size cases, with retuned penalty/β settings for the
    /// proportionally *scaled stand-ins* the laptop-scale harness solves.
    /// The scaled synthetic cases are denser per bus than the real
    /// interconnects they mimic; a firmer power-consensus penalty with a
    /// steeper outer-β ramp measurably improves both the converged
    /// violation (~1.06 → ~0.87 max violation) and the iteration count
    /// (~15k → ~11.5k inner) on `Pegase1354.scaled(100)`, the ROADMAP's
    /// tracked quality case — see
    /// `tests/scenario_batch.rs::pegase1354_scaled100_violation_does_not_regress`
    /// for the pinned bound.
    pub fn for_case(case: TableICase, nbus: usize) -> AdmmParams {
        let (_, _, full_size) = case.dimensions();
        let mut p = Self::for_table1_case(case);
        if nbus < full_size / 2 {
            // Scaled stand-in: denser topology, smaller loads per bus.
            p.rho_pq = 18.0;
            p.beta_factor = 7.0;
        }
        p
    }

    /// A fast convergence profile for tests and smoke runs: the same
    /// algorithm with looser tolerances and tighter iteration caps, chosen
    /// so the embedded reference cases still reach the quality thresholds
    /// the integration suite asserts (violation < 1e-2, gap < 1 %) at a
    /// fraction of the default profile's wall-clock. Full-tolerance runs
    /// stay on [`AdmmParams::default`]; the expensive integration cases are
    /// gated behind the `GRIDADMM_FULL_TESTS` env flag.
    pub fn test_profile() -> AdmmParams {
        AdmmParams {
            eps_outer: 1e-4,
            eps_inner: 2e-5,
            max_outer: 12,
            max_inner: 400,
            tron: TronOptions {
                max_iter: 50,
                gtol: 1e-7,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The contingency-screening profile: a deliberately *cheap, inexact*
    /// pass — two outer rounds at loose tolerances — whose job is not to
    /// solve scenarios but to *rank* them by constraint stress so a funnel
    /// can decide which ones deserve a full-tolerance solve. The operating
    /// point it reaches is accurate enough that line/voltage/bound
    /// violations separate benign contingencies from stressed ones, at a
    /// small fraction of the full profile's iterations; its warm state also
    /// seeds the graduated scenarios' full solves through the solution
    /// store. Used by `gridsim-screen`'s `ContingencyFunnel`.
    pub fn screening_profile() -> AdmmParams {
        AdmmParams {
            eps_outer: 5e-3,
            eps_inner: 1e-4,
            max_outer: 2,
            max_inner: 150,
            tron: TronOptions {
                max_iter: 30,
                gtol: 1e-6,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Scale both penalties by a common factor (used by the penalty-sweep
    /// ablation).
    pub fn scaled_penalties(&self, factor: f64) -> AdmmParams {
        AdmmParams {
            rho_pq: self.rho_pq * factor,
            rho_va: self.rho_va * factor,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_small_pegase_settings() {
        let p = AdmmParams::default();
        assert_eq!(p.rho_pq, 10.0);
        assert_eq!(p.rho_va, 1000.0);
        assert_eq!(p.max_outer, 20);
        assert_eq!(p.max_inner, 1000);
        assert_eq!(crate::kernels::LINE_LIMIT_MARGIN, 0.99);
    }

    #[test]
    fn table1_penalties_are_respected() {
        let p = AdmmParams::for_table1_case(TableICase::Activsg70k);
        assert_eq!(p.rho_pq, 3e4);
        assert_eq!(p.rho_va, 3e5);
    }

    #[test]
    fn per_case_defaults_retune_scaled_stand_ins_only() {
        // Full-size case: exactly the Table-I penalties, default β schedule.
        let full = AdmmParams::for_case(TableICase::Pegase1354, 1354);
        assert_eq!(full.rho_pq, 1e1);
        assert_eq!(full.rho_va, 1e3);
        assert_eq!(full.beta_factor, 6.0);
        // Scaled stand-in: the retuned penalty/β choices.
        let scaled = AdmmParams::for_case(TableICase::Pegase1354, 100);
        assert_eq!(scaled.rho_pq, 18.0);
        assert_eq!(scaled.rho_va, 1e3);
        assert_eq!(scaled.beta_factor, 7.0);
    }

    #[test]
    fn screening_profile_is_strictly_cheaper_than_test_profile() {
        let s = AdmmParams::screening_profile();
        let t = AdmmParams::test_profile();
        assert!(s.max_outer < t.max_outer);
        assert!(s.max_inner < t.max_inner);
        assert!(s.eps_outer > t.eps_outer);
        assert!(s.eps_inner > t.eps_inner);
        assert!(s.tron.max_iter < t.tron.max_iter);
    }

    #[test]
    fn penalty_scaling() {
        let p = AdmmParams::default().scaled_penalties(10.0);
        assert_eq!(p.rho_pq, 100.0);
        assert_eq!(p.rho_va, 10000.0);
    }
}
