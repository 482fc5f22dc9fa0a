//! # gridsim-batch
//!
//! A simulated GPU batch-execution device.
//!
//! The paper runs every step of its ADMM algorithm as CUDA kernels on a
//! Quadro GV100: closed-form component updates map one *thread* per variable,
//! and branch subproblems map one *thread block* per branch (solved by the
//! batch TRON solver ExaTron), with **no host–device data transfer during the
//! solve**. No GPU is available in this environment, so this crate provides a
//! faithful stand-in for the *execution model*:
//!
//! * [`Device`] — a batch device that executes kernels through a
//!   `LaunchBackend`, the crate's dispatch trait over iteration schemes.
//!   Three backends ship: parallel (Rayon thread pool as the stand-in for
//!   the GPU's block scheduler), sequential (the deterministic
//!   single-threaded reference), and vectorized (chunked, branch-free
//!   loops shaped for compiler auto-vectorization).
//!   [`ExecutionMode`] selects among them; `Auto` (the default) resolves
//!   via the `GRIDSIM_BACKEND` env override, then worker count — see
//!   [`ExecutionMode::resolve`] for the pinned precedence.
//! * [`DeviceBuffer`] — device-resident arrays whose host↔device movements
//!   are explicit and *counted*, so the paper's "no transfers during the
//!   solve" claim becomes a checkable property (see the `transfer_audit`
//!   experiment binary),
//! * kernel-launch APIs (masked launches over scenario segments, one thread
//!   per element or one block per group of up to `group` consecutive
//!   elements of a segment — the lock-step TRON branch solves — the
//!   whole-buffer `launch_map` / `launch_blocks` as one segment, and the
//!   per-segment max-reduction) that record per-kernel launch counts, block
//!   counts (one per live element, however grouped) and elapsed time in
//!   [`DeviceStats`]; a backend implements only the segmented launch, the
//!   group launch and the segmented reduction,
//! * [`assert_device_conformance`] — the executable determinism contract:
//!   every backend must be bitwise identical to the sequential one on all
//!   three operations, masked and unmasked, and its group launch must visit
//!   each live element once, in groups that never cross a segment, before
//!   [`ExecutionMode::Auto`] may select it.
//!
//! The algorithmic structure — what is a kernel, what runs per thread, what
//! runs per block, what never leaves the device — is therefore identical to
//! the paper's implementation; only the physical execution substrate differs,
//! and the substrate is swappable behind the trait (a GPU-shaped backend is
//! a plug-in, not a rewrite — see the guide in `backend.rs`).

#![warn(unreachable_pub)]

mod backend;
mod buffer;
mod conformance;
mod device;
mod kernel;
mod pool;
mod stats;

pub use backend::{ExecutionMode, BACKEND_ENV};
pub use buffer::DeviceBuffer;
pub use conformance::assert_device_conformance;
pub use device::Device;
pub use pool::{DevicePool, DEVICE_COUNT_ENV};
pub use stats::{DeviceStats, KernelStats, StatsSnapshot};
