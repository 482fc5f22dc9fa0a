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
//!   [`LaunchBackend`], the dispatch trait over iteration schemes. Three
//!   backends ship: [`ParallelBackend`] (Rayon thread pool as the stand-in
//!   for the GPU's block scheduler), [`SequentialBackend`] (the
//!   deterministic single-threaded reference), and [`VectorizedBackend`]
//!   (chunked, branch-free loops shaped for compiler auto-vectorization).
//!   [`ExecutionMode`] selects among them; `Auto` (the default) resolves
//!   via the `GRIDSIM_BACKEND` env override, then worker count — see
//!   [`ExecutionMode::resolve_with`] for the pinned precedence.
//! * [`DeviceBuffer`] — device-resident arrays whose host↔device movements
//!   are explicit and *counted*, so the paper's "no transfers during the
//!   solve" claim becomes a checkable property (see the `transfer_audit`
//!   experiment binary),
//! * kernel-launch APIs (`launch_map`, `launch_blocks`, their
//!   segmented/masked variants, and the per-segment max-reduction) that
//!   record per-kernel launch counts, block counts and elapsed time in
//!   [`DeviceStats`],
//! * [`conformance`] — the executable determinism contract: every backend
//!   must be bitwise identical to [`SequentialBackend`] on every launch
//!   geometry before [`ExecutionMode::Auto`] may select it.
//!
//! The algorithmic structure — what is a kernel, what runs per thread, what
//! runs per block, what never leaves the device — is therefore identical to
//! the paper's implementation; only the physical execution substrate differs,
//! and the substrate is swappable behind the trait (a GPU-shaped backend is
//! a plug-in, not a rewrite — see the guide in [`backend`]).

pub mod backend;
pub mod buffer;
pub mod conformance;
pub mod device;
pub mod kernel;
pub mod pool;
pub mod stats;

pub use backend::{
    AnyBackend, ExecutionMode, LaunchBackend, ParallelBackend, SequentialBackend,
    VectorizedBackend, BACKEND_ENV,
};
pub use buffer::DeviceBuffer;
pub use device::{Device, DeviceConfig};
pub use pool::{DevicePool, DEVICE_COUNT_ENV};
pub use stats::{DeviceStats, KernelStats, StatsSnapshot};
