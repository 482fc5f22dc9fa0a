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
//! * kernel-launch APIs in three shapes — masked launches over scenario
//!   segments with one thread per element; one block per group of up to
//!   `group` consecutive elements of a segment, each group handed its
//!   elements' windows of a second buffer ([`Windows`]: the generator and
//!   lock-step TRON branch updates write their consensus values where they
//!   compute them); and one thread per element whose closure returns scores
//!   the backend folds into per-segment maxima in index order (the fused
//!   consensus pass and its residuals) — plus the whole-buffer
//!   `launch_map` / `launch_blocks` as one segment. A segmented launch
//!   hands its closure the element's segment (the scenario slot) and its
//!   index in the segment, a group launch its first element's. Every
//!   launch records its kernel's launch count, block count (one per live
//!   element, however grouped) and elapsed time in [`DeviceStats`], which
//!   finds the kernel's entry by the address of its `&'static str` name —
//!   no hashing, no text
//!   compare and no allocation once the kernel has been seen — and hands
//!   out snapshots keyed by name; a backend implements only the three
//!   segmented shapes,
//! * [`assert_device_conformance`] — the executable determinism contract:
//!   every backend must be bitwise identical to the sequential one on all
//!   three shapes, masked and unmasked; every shape must hand each live
//!   element its own slot and index; its group launch must visit each
//!   live element once, in groups that never cross a segment, with exactly
//!   its own window; and its scoring launch must fold every segment in
//!   index order — all before [`ExecutionMode::Auto`] may select it.
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

pub use backend::{ExecutionMode, Windows, BACKEND_ENV};
pub use buffer::DeviceBuffer;
pub use conformance::assert_device_conformance;
pub use device::Device;
pub use pool::{DevicePool, DEVICE_COUNT_ENV};
pub use stats::{DeviceStats, KernelStats, StatsSnapshot};
