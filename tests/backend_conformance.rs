//! Workspace-level entry point for the backend conformance suite.
//!
//! The harness itself lives in `gridsim_batch::conformance` so backend
//! authors can run it from unit tests while a backend is still private;
//! this suite re-runs it through the public `Device` API for every
//! shipped backend — plus the `Auto`-resolved device, so whatever mode
//! `GRIDSIM_BACKEND` (or the core count) selects on this machine is the
//! mode that gets certified in CI.

use gridsim_batch::{assert_device_conformance, Device, ExecutionMode};

#[test]
fn sequential_device_conforms() {
    assert_device_conformance(&Device::sequential());
}

#[test]
fn parallel_device_conforms() {
    assert_device_conformance(&Device::parallel());
}

#[test]
fn vectorized_device_conforms() {
    assert_device_conformance(&Device::vectorized());
}

/// The device the rest of the workspace constructs by default: `Auto`,
/// resolved through the `GRIDSIM_BACKEND` override and the worker count.
/// This is the test the CI backend matrix sweeps.
#[test]
fn auto_resolved_device_conforms() {
    let device = Device::auto();
    assert_ne!(device.backend(), ExecutionMode::Auto, "auto must resolve");
    assert_eq!(device.backend(), ExecutionMode::Auto.resolve());
    assert_device_conformance(&device);
}
