//! # gridsim-grid
//!
//! Power-grid data model substrate for the GridADMM reproduction of
//! *"Accelerated Computation and Tracking of AC Optimal Power Flow Solutions
//! Using GPUs"* (Kim & Kim, ICPP 2022).
//!
//! This crate provides everything the optimization layers need to know about
//! an electrical network:
//!
//! * raw case data in MATPOWER-style records ([`Case`], [`Bus`], [`Branch`],
//!   [`Generator`], [`GenCost`]),
//! * a MATPOWER `.m` file parser and writer ([`matpower`]),
//! * embedded reference cases for tests and examples ([`case9`] and its
//!   siblings),
//! * a deterministic synthetic-grid generator able to produce cases with the
//!   exact component counts of the paper's Table I ([`SyntheticSpec`],
//!   [`TableICase`]),
//! * time-varying load profiles for the warm-start tracking experiment
//!   ([`LoadProfile`]),
//! * scenario-set generation (load ramps, per-bus perturbations, N−1/N−2
//!   branch and generator outages) for batched multi-scenario solves
//!   ([`ScenarioSet`]), plus spec-driven expansion into thousand-scenario
//!   contingency sweeps ([`ContingencySpec`]),
//! * scenario fingerprints (load vector + structure signature) keying the
//!   warm-start solution store ([`ScenarioFingerprint`]),
//! * and a compiled, per-unit, internally-indexed [`Network`] with branch
//!   admittances and adjacency used by both the ADMM solver and the
//!   interior-point baseline.

#![warn(unreachable_pub)]

mod branch;
mod bus;
mod cases;
mod contingency;
mod error;
mod fingerprint;
mod generator;
mod load_profile;
// `perf/` names this module path (case parse and write).
pub mod matpower;
mod network;
mod perunit;
mod scenario;
mod synthetic;

pub use branch::{Branch, BranchAdmittance};
pub use bus::{Bus, BusType};
pub use cases::{case14, case30_like, case5, case9, two_bus};
pub use contingency::{ContingencyManifest, ContingencySpec};
pub use error::GridError;
pub use fingerprint::{rms_distance, ScenarioFingerprint};
pub use generator::{GenCost, Generator};
pub use load_profile::LoadProfile;
pub use network::{BranchEnd, Case, Network};
pub use scenario::{eligible_branch_outages, Scenario, ScenarioSet, OUTAGE_REACTANCE};
pub use synthetic::{SyntheticSpec, TableICase};
