//! # gridsim-store
//!
//! Warm-start solution store: similarity-keyed solve reuse across fleets.
//!
//! The source paper's tracking result (Kim & Kim, ICPP 2022) is that
//! re-solving ACOPF from the previous solution costs a fraction of a cold
//! solve when the problem has only drifted. [`SolutionStore`] lifts that
//! economics above a single fleet run: it maps (case id, scenario
//! fingerprint) → a stored solver state, so *any* admitted scenario — in a
//! later fleet, a later job, a later time period — can warm-start from the
//! nearest previously solved neighbor. It is the fleet-level rung of the
//! same reuse ladder `KktCache` occupies one level down (pay the expensive
//! thing once per equivalence class, replay everywhere else).
//!
//! ## Keying and lookup
//!
//! Entries are grouped by `(case id, structure signature, load dimension)`
//! — see [`ScenarioFingerprint`]: the structure signature hashes everything
//! that is not load, so an N−1 outage (which changes a branch admittance)
//! lands in its own group and a lookup never seeds a solve from a
//! topologically incompatible solution. Within a group, lookup is a linear
//! scan for the nearest neighbor under the dimension-normalized L2 (RMS)
//! load distance, subject to a relative eligibility radius (0.1 × the
//! query's RMS norm): a neighbor too far away is worse than a cold start,
//! so it is reported as a miss. Groups hold a handful of entries on every
//! fleet workload, so an index would prune nothing.
//!
//! ## Determinism rules
//!
//! * The nearest neighbor is the `(distance, insertion index)`
//!   lexicographic minimum over eligible entries, so identical store
//!   contents give bit-identical lookups.
//! * Fleet runs look up against a [`StoreView`] — an immutable snapshot
//!   taken before the run — and commit their own results back *after* the
//!   run, in input order. Mid-run inserts are therefore invisible to
//!   lookups, which makes both the fleet results and the post-run store
//!   contents independent of device count, lane caps, and thread timing.

#![warn(unreachable_pub)]

mod persist;

pub use persist::MAGIC;

use std::collections::HashMap;
use std::sync::Arc;

use gridsim_grid::{rms_distance, ScenarioFingerprint};

/// Eligibility radius as a fraction of the query's RMS load norm: a
/// neighbor at RMS distance beyond `MAX_RELATIVE_DISTANCE × ‖query‖` is a
/// miss (too far to be a useful warm start).
const MAX_RELATIVE_DISTANCE: f64 = 0.1;

/// One stored solution: the load coordinates it was solved at plus an
/// opaque solver-specific payload (`IpmWarmStart` for interior-point
/// fleets, `WarmState` for ADMM fleets).
#[derive(Debug)]
pub struct StoredEntry<P> {
    /// Load coordinates of the solved scenario (`[pd; qd]`, p.u.).
    pub loads: Vec<f64>,
    /// The solver state to warm-start from.
    pub payload: P,
}

/// A successful lookup: the nearest stored entry, how far it is, and its
/// insertion index (the deterministic tie-break key).
#[derive(Debug)]
pub struct StoreHit<P> {
    /// The stored entry (shared, not copied).
    pub entry: Arc<StoredEntry<P>>,
    /// RMS load distance from the query to the entry.
    pub distance: f64,
    /// Insertion index of the entry within its group.
    pub index: usize,
}

impl<P> Clone for StoreHit<P> {
    fn clone(&self) -> StoreHit<P> {
        StoreHit {
            entry: Arc::clone(&self.entry),
            distance: self.distance,
            index: self.index,
        }
    }
}

/// What [`SolutionStore::insert`] did with the new solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new entry was appended at this insertion index.
    Inserted(usize),
    /// An entry with bitwise-identical loads already existed at this index;
    /// its payload was replaced (the index — and therefore every tie-break
    /// — is unchanged).
    Replaced(usize),
}

/// Per-run store traffic counters, surfaced in `FleetReport` and scenario
/// batch statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct StoreRunStats {
    /// Admissions seeded from a stored neighbor.
    pub hits: usize,
    /// Admissions that consulted the store without being seeded from it
    /// (no eligible neighbor, or the lane's own chained point was closer).
    pub misses: usize,
    /// Solutions committed back to the store after the run.
    pub inserts: usize,
}

impl StoreRunStats {
    /// Hits over lookups, in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Accumulate another run's counters into this one.
    pub fn merge(&mut self, other: &StoreRunStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
    }
}

/// Group key: only entries solved for the same named case, with the same
/// structure signature and load dimension, are comparable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    case_id: String,
    structure: u64,
    dim: usize,
}

impl GroupKey {
    fn of(case_id: &str, fp: &ScenarioFingerprint) -> GroupKey {
        GroupKey {
            case_id: case_id.to_string(),
            structure: fp.structure,
            dim: fp.loads.len(),
        }
    }
}

/// Each warm-start-compatible equivalence class's entries, in insertion
/// order.
type Groups<P> = HashMap<GroupKey, Vec<Arc<StoredEntry<P>>>>;

/// The mutable similarity-keyed solution store. See the
/// [module docs](self) for keying, lookup, and determinism rules.
#[derive(Debug)]
pub struct SolutionStore<P> {
    groups: Groups<P>,
}

impl<P> Default for SolutionStore<P> {
    fn default() -> SolutionStore<P> {
        SolutionStore::new()
    }
}

impl<P> SolutionStore<P> {
    /// An empty store.
    pub fn new() -> SolutionStore<P> {
        SolutionStore {
            groups: HashMap::new(),
        }
    }

    /// Total stored entries across all groups.
    pub fn len(&self) -> usize {
        self.groups.values().map(Vec::len).sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Number of warm-start-compatible equivalence classes.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Store a solved scenario's payload under its fingerprint. An existing
    /// entry with bitwise-identical loads is replaced in place, keeping its
    /// insertion index so every tie-break is unchanged; otherwise the entry
    /// is appended.
    pub fn insert(&mut self, case_id: &str, fp: &ScenarioFingerprint, payload: P) -> InsertOutcome {
        let group = self.groups.entry(GroupKey::of(case_id, fp)).or_default();
        let entry = Arc::new(StoredEntry {
            loads: fp.loads.clone(),
            payload,
        });
        match group.iter().position(|e| bitwise_eq(&e.loads, &fp.loads)) {
            Some(i) => {
                group[i] = entry;
                InsertOutcome::Replaced(i)
            }
            None => {
                group.push(entry);
                InsertOutcome::Inserted(group.len() - 1)
            }
        }
    }

    /// Nearest eligible stored neighbor of `fp` (see [`StoreView::nearest`]
    /// for the contract; this searches the live store directly).
    pub fn nearest(&self, case_id: &str, fp: &ScenarioFingerprint) -> Option<StoreHit<P>> {
        nearest(&self.groups, case_id, fp)
    }

    /// An immutable snapshot for lookups during a fleet run. Entries are
    /// shared (`Arc`), so the snapshot is cheap; inserts into the live
    /// store after the snapshot do not affect it.
    pub fn view(&self) -> StoreView<P> {
        StoreView {
            groups: self.groups.clone(),
        }
    }
}

/// A frozen snapshot of a [`SolutionStore`] — the lookup side of the
/// freeze-at-start determinism rule (see the [module docs](self)).
#[derive(Debug)]
pub struct StoreView<P> {
    groups: Groups<P>,
}

impl<P> Clone for StoreView<P> {
    fn clone(&self) -> StoreView<P> {
        StoreView {
            groups: self.groups.clone(),
        }
    }
}

impl<P> StoreView<P> {
    /// Nearest stored neighbor of `fp` within the eligibility radius, or
    /// `None` (a miss) when the group is absent or every entry is too far.
    /// Deterministic: the result is the `(distance, insertion index)`
    /// lexicographic minimum over eligible entries.
    pub fn nearest(&self, case_id: &str, fp: &ScenarioFingerprint) -> Option<StoreHit<P>> {
        nearest(&self.groups, case_id, fp)
    }
}

/// The one lookup: scan `fp`'s group and keep the `(distance, index)`
/// minimum among entries no farther than the eligibility radius.
fn nearest<P>(groups: &Groups<P>, case_id: &str, fp: &ScenarioFingerprint) -> Option<StoreHit<P>> {
    let group = groups.get(&GroupKey::of(case_id, fp))?;
    let threshold = MAX_RELATIVE_DISTANCE * fp.rms_norm();
    let mut best: Option<StoreHit<P>> = None;
    for (i, entry) in group.iter().enumerate() {
        let d = rms_distance(&entry.loads, &fp.loads);
        if d > threshold {
            continue;
        }
        // The scan runs in insertion order, so a strict `<` keeps the lower
        // index on a distance tie.
        if best.as_ref().is_none_or(|b| d < b.distance) {
            best = Some(StoreHit {
                entry: Arc::clone(entry),
                distance: d,
                index: i,
            });
        }
    }
    best
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(loads: &[f64]) -> ScenarioFingerprint {
        ScenarioFingerprint {
            loads: loads.to_vec(),
            structure: 42,
        }
    }

    #[test]
    fn empty_store_always_misses() {
        let store: SolutionStore<u32> = SolutionStore::new();
        assert!(store.is_empty());
        assert!(store.nearest("c", &fp(&[1.0, 1.0])).is_none());
        assert!(store.view().nearest("c", &fp(&[1.0, 1.0])).is_none());
    }

    #[test]
    fn exact_match_is_found_at_distance_zero() {
        let mut store = SolutionStore::new();
        let f = fp(&[0.4, 0.6, 0.1, 0.2]);
        assert_eq!(store.insert("c", &f, 7u32), InsertOutcome::Inserted(0));
        let hit = store.nearest("c", &f).expect("exact hit");
        assert_eq!(hit.distance, 0.0);
        assert_eq!(hit.index, 0);
        assert_eq!(hit.entry.payload, 7);
    }

    #[test]
    fn nearest_picks_the_closer_entry() {
        let mut store = SolutionStore::new();
        store.insert("c", &fp(&[1.0, 1.0]), 1u32);
        store.insert("c", &fp(&[1.01, 1.01]), 2u32);
        let hit = store.nearest("c", &fp(&[1.008, 1.008])).unwrap();
        assert_eq!(hit.entry.payload, 2);
    }

    #[test]
    fn ties_break_to_the_lower_insertion_index() {
        let mut store = SolutionStore::new();
        // Two entries equidistant from the query (±δ on one coordinate).
        store.insert("c", &fp(&[1.0 + 0.01, 1.0]), 10u32);
        store.insert("c", &fp(&[1.0 - 0.01, 1.0]), 20u32);
        let hit = store.nearest("c", &fp(&[1.0, 1.0])).unwrap();
        assert_eq!(hit.index, 0);
        assert_eq!(hit.entry.payload, 10);
    }

    #[test]
    fn far_entries_are_misses() {
        let mut store = SolutionStore::new();
        store.insert("c", &fp(&[2.0, 2.0]), 1u32);
        // Query at norm 1.0, so radius 0.1: an entry at RMS distance 1.0
        // is far outside the eligibility threshold.
        assert!(store.nearest("c", &fp(&[1.0, 1.0])).is_none());
    }

    #[test]
    fn structure_and_case_partition_the_store() {
        let mut store = SolutionStore::new();
        let f = fp(&[1.0, 1.0]);
        store.insert("c", &f, 1u32);
        // Different structure: invisible.
        let other = ScenarioFingerprint {
            loads: f.loads.clone(),
            structure: 43,
        };
        assert!(store.nearest("c", &other).is_none());
        // Different case id: invisible.
        assert!(store.nearest("d", &f).is_none());
        assert_eq!(store.group_count(), 1);
    }

    #[test]
    fn replacing_an_exact_duplicate_keeps_the_index() {
        let mut store = SolutionStore::new();
        let f = fp(&[1.0, 1.0]);
        assert_eq!(store.insert("c", &f, 1u32), InsertOutcome::Inserted(0));
        store.insert("c", &fp(&[1.02, 1.0]), 2u32);
        assert_eq!(store.insert("c", &f, 3u32), InsertOutcome::Replaced(0));
        assert_eq!(store.len(), 2);
        let hit = store.nearest("c", &f).unwrap();
        assert_eq!(hit.index, 0);
        assert_eq!(hit.entry.payload, 3);
    }

    #[test]
    fn view_is_frozen_against_later_inserts() {
        let mut store = SolutionStore::new();
        store.insert("c", &fp(&[1.0, 1.0]), 1u32);
        let view = store.view();
        store.insert("c", &fp(&[1.001, 1.0]), 2u32);
        // The live store sees the closer new entry; the snapshot does not.
        let q = fp(&[1.001, 1.0]);
        assert_eq!(store.nearest("c", &q).unwrap().entry.payload, 2);
        assert_eq!(view.nearest("c", &q).unwrap().entry.payload, 1);
        assert_eq!(view.groups.values().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn stats_merge_and_hit_rate() {
        let mut a = StoreRunStats {
            hits: 3,
            misses: 1,
            inserts: 4,
        };
        let b = StoreRunStats {
            hits: 1,
            misses: 3,
            inserts: 2,
        };
        a.merge(&b);
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 4);
        assert_eq!(a.inserts, 6);
        assert_eq!(a.hit_rate(), 0.5);
        assert_eq!(StoreRunStats::default().hit_rate(), 0.0);
    }
}
