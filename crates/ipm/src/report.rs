//! Result and iteration-log types for the interior-point solver.

use std::time::Duration;

/// Termination status of an interior-point solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum IpmStatus {
    /// First-order optimality satisfied to the requested tolerance.
    Optimal,
    /// Iteration limit reached; the returned point is the best iterate.
    MaxIterations,
    /// The linear algebra failed irrecoverably (singular KKT even after the
    /// maximum regularization), or — with `iterations == 0` — the model's
    /// Hessian came as one triangle instead of both (see
    /// [`Nlp`](crate::Nlp)), which no Newton system can be trusted on.
    NumericalError,
    /// The feasibility-restoration phase could not produce a filter-acceptable
    /// point: the iterate is stuck at a (possibly locally infeasible)
    /// stationary point of the constraint violation.
    RestorationFailure,
}

/// One row of the iteration log (what Ipopt prints per iteration).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IterationRecord {
    /// Iteration number.
    pub iter: usize,
    /// Objective value.
    pub objective: f64,
    /// Primal infeasibility (infinity norm of constraint violations).
    pub primal_infeasibility: f64,
    /// Dual infeasibility (infinity norm of the dual residual).
    pub dual_infeasibility: f64,
    /// Barrier parameter.
    pub mu: f64,
    /// Primal step length after the line search.
    pub alpha_primal: f64,
    /// Primal regularization used for this step.
    pub delta_w: f64,
}

/// Result of an interior-point solve.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SolveReport {
    /// Final primal point (original variables, without slacks).
    pub x: Vec<f64>,
    /// Objective value at the final point.
    pub objective: f64,
    /// Equality-constraint multipliers.
    pub lambda_eq: Vec<f64>,
    /// Inequality-constraint multipliers.
    pub lambda_ineq: Vec<f64>,
    /// Lower-bound multipliers over the slacked vector `v = [x; s]`
    /// (dimension `nx + m_ineq`; zero where the bound is infinite). Feed
    /// them back through
    /// [`IpmOptions::initial_bound_multipliers`](crate::IpmOptions::initial_bound_multipliers)
    /// to warm-start a related solve without losing the active set.
    pub zl: Vec<f64>,
    /// Upper-bound multipliers over `v = [x; s]`, like
    /// [`zl`](SolveReport::zl).
    pub zu: Vec<f64>,
    /// Termination status.
    pub status: IpmStatus,
    /// Number of steps taken: `max_iter` when the budget ran out, `k` when
    /// iteration `k` converged or failed before stepping.
    pub iterations: usize,
    /// Final scaled KKT error.
    pub kkt_error: f64,
    /// Final primal infeasibility.
    pub primal_infeasibility: f64,
    /// Wall-clock time of the solve.
    pub solve_time: Duration,
    /// Total number of KKT factorizations (including inertia-correction
    /// refactorizations) — the quantity that dominates Ipopt's run time on
    /// ACOPF.
    pub factorizations: usize,
    /// Symbolic analyses performed during this solve: the frozen condensed
    /// pattern is analyzed once per distinct declared structure, and none at
    /// all when a reused [`crate::KktCache`] (or, in a fleet, any lane of
    /// the solver) already froze it; every factorization after that is
    /// numeric-only. A fleet bills each analysis to the lowest-index
    /// scenario of the run that declared the structure.
    pub symbolic_analyses: usize,
    /// Trial steps rejected by the (φ, θ) filter line search (each rejection
    /// halves the step length or triggers a second-order correction).
    pub filter_rejections: usize,
    /// Second-order correction steps computed (extra triangular solves on an
    /// already-available factorization after a rejected full step).
    pub soc_steps: usize,
    /// Steps accepted on trust by the watchdog (non-monotone full steps taken
    /// while a relaxed-acceptance run is active).
    pub watchdog_steps: usize,
    /// Feasibility-restoration phases entered (last-resort minimization of
    /// the constraint violation when no acceptable step length remains).
    pub restorations: usize,
    /// Per-iteration log.
    pub log: Vec<IterationRecord>,
}

impl SolveReport {
    /// True when the solve reached the optimality tolerance.
    pub fn is_optimal(&self) -> bool {
        self.status == IpmStatus::Optimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_optimal_reflects_status() {
        let report = SolveReport {
            x: vec![],
            objective: 0.0,
            lambda_eq: vec![],
            lambda_ineq: vec![],
            zl: vec![],
            zu: vec![],
            status: IpmStatus::Optimal,
            iterations: 3,
            kkt_error: 1e-9,
            primal_infeasibility: 1e-10,
            solve_time: Duration::ZERO,
            factorizations: 3,
            symbolic_analyses: 3,
            filter_rejections: 0,
            soc_steps: 0,
            watchdog_steps: 0,
            restorations: 0,
            log: vec![],
        };
        assert!(report.is_optimal());
        let mut not_done = report.clone();
        not_done.status = IpmStatus::MaxIterations;
        assert!(!not_done.is_optimal());
    }
}
