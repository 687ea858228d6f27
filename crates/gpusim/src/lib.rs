//! # sparsetir-gpusim
//!
//! Deterministic GPU performance simulator — the substitute for the
//! paper's physical V100/RTX 3070 testbeds (see the README intro). Kernels are
//! described as [`plan::KernelPlan`]s whose thread-block decomposition
//! mirrors the IR schedule; the simulator models SM makespan, a two-level
//! set-associative LRU cache hierarchy, DRAM/L2/L1 bandwidth rooflines,
//! tensor-core vs CUDA-core throughput, occupancy and kernel-launch
//! overhead. Functional correctness is established separately by the
//! `sparsetir-ir` interpreter; this crate only prices execution.

#![warn(missing_docs)]

pub mod cache;
pub mod plan;
pub mod sim;
pub mod spec;

/// Common imports.
pub mod prelude {
    pub use crate::cache::CacheSim;
    pub use crate::plan::{AccessRange, AddressSpace, BlockWork, KernelPlan};
    pub use crate::sim::{simulate_fused, simulate_kernel, simulate_sequence, KernelReport};
    pub use crate::spec::GpuSpec;
}
