//! Scenario fingerprints for similarity-keyed solution reuse.
//!
//! A [`ScenarioFingerprint`] condenses a compiled [`Network`] into the two
//! pieces a warm-start solution store needs:
//!
//! * the **per-bus load vector** (`[pd; qd]`, p.u.) — the coordinates that
//!   nearest-neighbor lookup measures distances over, because the paper's
//!   tracking economics (Kim & Kim, ICPP 2022) hinge on *load drift*: a
//!   solved operating point is a good starting point exactly when the loads
//!   moved a little,
//! * a **structure signature** — a deterministic hash of everything that is
//!   *not* load: dimensions, topology (branch endpoints), branch electrical
//!   parameters and ratings, generator bounds and costs, bus voltage limits
//!   and shunts. Two networks are warm-start compatible only when their
//!   signatures match: an N−1 outage opens a branch electrically, which
//!   changes its admittance and therefore the signature, so outage scenarios
//!   form their own equivalence classes and a store never seeds a solve from
//!   an incompatible active set.
//!
//! Fingerprinting is exact and reproducible: the same `Network` always
//! produces the same fingerprint (bitwise — the hash runs over the raw f64
//! bits with a fixed FNV-1a state, never through platform- or run-seeded
//! hashers), which the property suite pins.

use crate::network::Network;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash over heterogeneous scalar streams. Deterministic
/// across processes and platforms, unlike `DefaultHasher`'s unspecified
/// keys.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn write_f64s(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
    }

    fn write_usizes(&mut self, vs: &[usize]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_usize(v);
        }
    }
}

/// The similarity key of one scenario: its load coordinates plus the
/// structure signature partitioning the store into warm-start-compatible
/// equivalence classes. See the [module docs](self) for the rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFingerprint {
    /// Load coordinates: `[pd[0..nbus], qd[0..nbus]]` in p.u. Distances
    /// between fingerprints are measured over this vector.
    pub loads: Vec<f64>,
    /// Hash of everything except the loads: dimensions, topology, branch
    /// admittances/ratings/angle limits, generator bounds/costs, bus
    /// voltage limits/shunts, and the MVA base.
    pub structure: u64,
}

impl ScenarioFingerprint {
    /// Fingerprint a compiled network.
    pub fn of_network(net: &Network) -> ScenarioFingerprint {
        let mut loads = Vec::with_capacity(2 * net.nbus);
        loads.extend_from_slice(&net.pd);
        loads.extend_from_slice(&net.qd);

        let mut h = Fnv::new();
        h.write_usize(net.nbus);
        h.write_usize(net.ngen);
        h.write_usize(net.nbranch);
        h.write_f64(net.base_mva);
        h.write_usize(net.ref_bus);
        // Buses: everything but pd/qd.
        h.write_f64s(&net.gs);
        h.write_f64s(&net.bs);
        h.write_f64s(&net.vmin);
        h.write_f64s(&net.vmax);
        // Generators.
        h.write_usizes(&net.gen_bus);
        h.write_f64s(&net.pmin);
        h.write_f64s(&net.pmax);
        h.write_f64s(&net.qmin);
        h.write_f64s(&net.qmax);
        h.write_f64s(&net.cost_c2);
        h.write_f64s(&net.cost_c1);
        h.write_f64s(&net.cost_c0);
        // Branches: topology and electrical parameters. An outage drives the
        // series admittance to ~0 and lifts the rating, so it lands here.
        h.write_usizes(&net.br_from);
        h.write_usizes(&net.br_to);
        h.write_usize(net.br_y.len());
        for y in &net.br_y {
            h.write_f64(y.gii);
            h.write_f64(y.bii);
            h.write_f64(y.gij);
            h.write_f64(y.bij);
            h.write_f64(y.gji);
            h.write_f64(y.bji);
            h.write_f64(y.gjj);
            h.write_f64(y.bjj);
        }
        h.write_f64s(&net.rate_a);
        h.write_f64s(&net.angmin);
        h.write_f64s(&net.angmax);

        ScenarioFingerprint {
            loads,
            structure: h.0,
        }
    }

    /// Dimension-normalized L2 distance between two load vectors: the RMS
    /// per-coordinate load difference in p.u.,
    /// `sqrt(Σ (aᵢ − bᵢ)² / n)`. This is a metric (a scaled L2 norm) that
    /// keeps load *magnitude* — two uniform ramps at 0.9× and 1.1× are far apart,
    /// as warm-start quality demands, where a unit-normalized distance would
    /// collapse them.
    ///
    /// Panics when the structures differ (distances across equivalence
    /// classes are meaningless; a store never compares across them).
    pub fn distance(&self, other: &ScenarioFingerprint) -> f64 {
        assert_eq!(
            self.structure, other.structure,
            "fingerprint distance across different structures"
        );
        rms_distance(&self.loads, other.loads.as_slice())
    }

    /// RMS magnitude of the load vector — its distance to the zero vector,
    /// which scales the store's eligibility radius.
    pub fn rms_norm(&self) -> f64 {
        rms_distance(&self.loads, &vec![0.0; self.loads.len()])
    }
}

/// `sqrt(Σ (aᵢ − bᵢ)² / n)` — the dimension-normalized L2 metric shared by
/// [`ScenarioFingerprint::distance`] and the store's nearest-neighbor scan.
pub fn rms_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "load vectors of different dimension");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum();
    (sum / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;
    use crate::scenario::ScenarioSet;

    #[test]
    fn identical_networks_fingerprint_identically() {
        let a = ScenarioFingerprint::of_network(&cases::case9().compile().unwrap());
        let b = ScenarioFingerprint::of_network(&cases::case9().compile().unwrap());
        assert_eq!(a, b);
        assert_eq!(a.structure, b.structure);
    }

    #[test]
    fn load_changes_move_the_loads_not_the_structure() {
        let base = cases::case9();
        let a = ScenarioFingerprint::of_network(&base.compile().unwrap());
        let b = ScenarioFingerprint::of_network(&base.scale_load(1.05).compile().unwrap());
        assert_eq!(a.structure, b.structure, "load scaling is not structural");
        assert_ne!(a.loads, b.loads);
        assert!(a.distance(&b) > 0.0);
        assert_eq!(a.distance(&b).to_bits(), b.distance(&a).to_bits());
    }

    #[test]
    fn outages_change_the_structure_signature() {
        let base = cases::case9();
        let nominal = ScenarioFingerprint::of_network(&base.compile().unwrap());
        let set = ScenarioSet::branch_outages(base.clone(), 3);
        let mut sigs = vec![nominal.structure];
        for net in set.networks().unwrap() {
            let fp = ScenarioFingerprint::of_network(&net);
            assert_eq!(fp.loads, nominal.loads, "outages keep nominal load");
            sigs.push(fp.structure);
        }
        // The nominal case and each distinct outage hash to distinct classes.
        sigs.sort_unstable();
        sigs.dedup();
        assert_eq!(sigs.len(), 1 + set.len());
    }

    #[test]
    fn distance_is_the_rms_load_delta() {
        let a = ScenarioFingerprint {
            loads: vec![1.0, 2.0, 3.0, 4.0],
            structure: 7,
        };
        let b = ScenarioFingerprint {
            loads: vec![1.0, 2.0, 3.0, 2.0],
            structure: 7,
        };
        // One coordinate off by 2 over n=4: sqrt(4/4) = 1.
        assert_eq!(a.distance(&b), 1.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "different structures")]
    fn cross_structure_distance_panics() {
        let a = ScenarioFingerprint {
            loads: vec![1.0],
            structure: 1,
        };
        let b = ScenarioFingerprint {
            loads: vec![1.0],
            structure: 2,
        };
        let _ = a.distance(&b);
    }
}
