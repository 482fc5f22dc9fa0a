//! The unified fleet-request parameter object.
//!
//! [`FleetRequest`] is one fleet invocation as data: the scenarios to solve,
//! an optional case id (the solution-store group key) and an optional store
//! binding. Each solver family exposes a single `run(request)` that hands
//! it to its engine; the backend a run launches on is the engine's.
//!
//! ## Store bindings
//!
//! [`StoreAccess`] distinguishes the two lifetimes a store can have relative
//! to a run. The [`Engine`](crate::Engine) keeps the protocol for both (see
//! [`LaneSolver`](crate::LaneSolver)):
//!
//! * [`Live`](StoreAccess::Live) — the engine freezes a view of the store
//!   before the run, looks every admission up against it, and commits the
//!   finished scenarios' payloads back after the run in input order.
//! * [`Snapshot`](StoreAccess::Snapshot) — lookups only, against a caller-
//!   owned frozen [`StoreView`]. Nothing is committed; the caller owns the
//!   write side. This is what a durable job layer needs: lookups stay
//!   frozen at *job* start across many fleet runs (so a killed-and-resumed
//!   job sees the same store a straight-through job saw), and commits
//!   happen once, from the job's recorded results.
//!
//! A request that binds a store must also carry a case id — the store is
//! keyed by it.

use gridsim_grid::Network;
use gridsim_store::{SolutionStore, StoreView};

/// How a fleet run touches the warm-start solution store.
#[derive(Debug, Default)]
pub enum StoreAccess<'a, P> {
    /// No store: every admission starts cold (or from its lane's chain).
    #[default]
    None,
    /// Freeze-at-start lookups plus post-run commits in input order, both
    /// kept by the engine.
    Live(&'a mut SolutionStore<P>),
    /// Lookups against a caller-owned frozen snapshot; the run commits
    /// nothing.
    Snapshot(&'a StoreView<P>),
}

impl<P> StoreAccess<'_, P> {
    /// True unless this is [`StoreAccess::None`].
    pub(crate) fn is_bound(&self) -> bool {
        !matches!(self, StoreAccess::None)
    }
}

/// One fleet invocation, as data: scenarios and store binding.
///
/// Build with [`FleetRequest::over`] and the chainable setters:
///
/// ```ignore
/// let report = fleet.run(
///     FleetRequest::over(&nets)
///         .case("case9")
///         .store(&mut store),
/// );
/// ```
#[derive(Debug)]
pub struct FleetRequest<'a, P> {
    /// Scenarios to solve, in input order (outputs come back in the same
    /// order).
    pub nets: &'a [Network],
    /// Store group key: the named case these scenarios are variations of.
    /// Required when a store is bound, optional otherwise.
    pub case_id: Option<&'a str>,
    /// Warm-start store binding.
    pub store: StoreAccess<'a, P>,
}

impl<'a, P> FleetRequest<'a, P> {
    /// A request over `nets` with no case id and no store.
    pub fn over(nets: &'a [Network]) -> FleetRequest<'a, P> {
        FleetRequest {
            nets,
            case_id: None,
            store: StoreAccess::None,
        }
    }

    /// Set the case id (the solution-store group key).
    pub fn case(mut self, case_id: &'a str) -> FleetRequest<'a, P> {
        self.case_id = Some(case_id);
        self
    }

    /// Bind a live store: freeze-at-start lookups, post-run commits.
    pub fn store(mut self, store: &'a mut SolutionStore<P>) -> FleetRequest<'a, P> {
        self.store = StoreAccess::Live(store);
        self
    }

    /// Bind a frozen snapshot: lookups only, no commits.
    pub fn snapshot(mut self, view: &'a StoreView<P>) -> FleetRequest<'a, P> {
        self.store = StoreAccess::Snapshot(view);
        self
    }

    /// The case id, enforcing the store-implies-case invariant.
    ///
    /// # Panics
    /// When a store is bound without a case id.
    pub(crate) fn store_case_id(&self) -> Option<&'a str> {
        if self.store.is_bound() {
            Some(
                self.case_id
                    .expect("a store-backed FleetRequest needs a case id: use .case(...)"),
            )
        } else {
            self.case_id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_grid::case9;

    #[test]
    fn builder_defaults_are_empty() {
        let nets = vec![case9().compile().unwrap()];
        let req: FleetRequest<'_, u32> = FleetRequest::over(&nets);
        assert_eq!(req.nets.len(), 1);
        assert!(req.case_id.is_none());
        assert!(!req.store.is_bound());
        assert_eq!(req.store_case_id(), None);
    }

    #[test]
    fn setters_chain() {
        let nets = vec![case9().compile().unwrap()];
        let mut store: SolutionStore<u32> = SolutionStore::new();
        let req = FleetRequest::over(&nets).case("case9").store(&mut store);
        assert_eq!(req.store_case_id(), Some("case9"));
        assert!(matches!(req.store, StoreAccess::Live(_)));
    }

    #[test]
    fn snapshot_binding_is_lookup_only() {
        let nets = vec![case9().compile().unwrap()];
        let store: SolutionStore<u32> = SolutionStore::new();
        let view = store.view();
        let req = FleetRequest::over(&nets).case("case9").snapshot(&view);
        assert!(matches!(req.store, StoreAccess::Snapshot(_)));
    }

    #[test]
    #[should_panic(expected = "needs a case id")]
    fn store_without_case_id_is_rejected() {
        let nets = vec![case9().compile().unwrap()];
        let mut store: SolutionStore<u32> = SolutionStore::new();
        let req = FleetRequest::over(&nets).store(&mut store);
        let _ = req.store_case_id();
    }
}
