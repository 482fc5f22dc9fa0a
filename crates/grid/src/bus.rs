//! Bus records in MATPOWER conventions (quantities in physical units).

use serde::{Deserialize, Serialize};

/// MATPOWER bus type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusType {
    /// Load bus (PQ).
    Pq,
    /// Generator bus (PV).
    Pv,
    /// Reference (slack) bus.
    Ref,
    /// Isolated bus, excluded from the network.
    Isolated,
}

impl BusType {
    /// Decode the MATPOWER integer bus-type code.
    pub(crate) fn from_code(code: i64) -> Self {
        match code {
            2 => BusType::Pv,
            3 => BusType::Ref,
            4 => BusType::Isolated,
            _ => BusType::Pq,
        }
    }

    /// Encode to the MATPOWER integer bus-type code.
    pub(crate) fn to_code(self) -> i64 {
        match self {
            BusType::Pq => 1,
            BusType::Pv => 2,
            BusType::Ref => 3,
            BusType::Isolated => 4,
        }
    }
}

/// A single bus record. Powers are in MW/MVAr, voltages in per unit on
/// `base_kv`, shunts in MW/MVAr consumed at V = 1.0 p.u.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bus {
    /// External (user-facing) bus number. Not necessarily consecutive.
    pub id: usize,
    /// Bus type.
    pub bus_type: BusType,
    /// Real power demand (MW).
    pub pd: f64,
    /// Reactive power demand (MVAr).
    pub qd: f64,
    /// Shunt conductance (MW demanded at V = 1.0 p.u.).
    pub gs: f64,
    /// Shunt susceptance (MVAr injected at V = 1.0 p.u.).
    pub bs: f64,
    /// Area number.
    pub area: usize,
    /// Initial voltage magnitude (p.u.).
    pub vm: f64,
    /// Initial voltage angle (degrees).
    pub va: f64,
    /// Base voltage (kV).
    pub base_kv: f64,
    /// Loss zone.
    pub zone: usize,
    /// Maximum voltage magnitude (p.u.).
    pub vmax: f64,
    /// Minimum voltage magnitude (p.u.).
    pub vmin: f64,
}

impl Bus {
    /// True when this bus participates in the network.
    pub(crate) fn in_service(&self) -> bool {
        self.bus_type != BusType::Isolated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_type_roundtrip() {
        for code in 1..=4 {
            assert_eq!(BusType::from_code(code).to_code(), code);
        }
    }

    #[test]
    fn unknown_code_is_pq() {
        assert_eq!(BusType::from_code(0), BusType::Pq);
        assert_eq!(BusType::from_code(99), BusType::Pq);
    }

    #[test]
    fn isolated_bus_out_of_service() {
        let mut b = crate::case9().buses[0].clone();
        assert!(b.in_service());
        b.bus_type = BusType::Isolated;
        assert!(!b.in_service());
    }
}
