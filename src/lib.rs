//! # sparsetir
//!
//! A from-scratch Rust reproduction of **SparseTIR: Composable Abstractions
//! for Sparse Compilation in Deep Learning** (Ye et al., ASPLOS 2023).
//!
//! This umbrella crate re-exports the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`ir`] | loop-level tensor IR: AST, schedules, interpreter, CUDA codegen (Stage II/III substrate) |
//! | [`smat`] | sparse matrix formats: CSR, COO, BSR, DBSR, ELL, SR-BCRS, `hyb(c,k)`; the delta layer |
//! | [`core`] | the paper's contribution: Stage I sparse IR, format decomposition, Stage I schedules, the two lowering passes, horizontal fusion |
//! | [`gpusim`] | deterministic GPU performance simulator (V100/RTX 3070) — the substitution for physical GPUs |
//! | [`kernels`] | the SparseTIR-generated operators that compile and launch — SpMM, SDDMM, attention, fused attention, the fused GraphSAGE step — one view-bound entry point and one request-shape rule each; nothing under it knows the simulator |
//! | [`plans`] | every `KernelPlan` builder, priced on `gpusim`: SparseTIR's schedules (SpMM, SDDMM, attention, pruned-weight SpMM, RGMS, sparse conv) and the cuSPARSE/cuBLAS/Sputnik/dgSPARSE/TACO/Triton/DGL/PyG/Graphiler/TorchSparse-like baselines |
//! | [`graphs`] | synthetic workload generators for every dataset in the evaluation |
//! | [`nn`] | end-to-end GraphSAGE training and RGCN inference |
//! | [`autotune`] | the joint format × schedule search of §2: typed, fingerprint-cached tuners over `plans`; the measured evaluator, whose whole-launch timings of a fixed shortlist decide the engine's tuned SpMM |
//! | [`engine`] | concurrent op-agnostic serving engine: one generic `Submission` path serving SpMM / SDDMM / fused attention / the fused GraphSAGE step over the kernel cache, one launch per request, with SLO admission, incremental graph updates, and per-submission tuning for the op whose launch reads a searched configuration (SpMM) |
//!
//! See `README.md` for the system inventory ("The three-stage IR",
//! "Crate map") and for how to run and gate the paper's experiments
//! ("Quickstart", "Performance tracking"). The `examples/` directory
//! walks through the pipeline end to end; start with
//! `cargo run --example quickstart`.

#![warn(missing_docs)]

pub use sparsetir_autotune as autotune;
pub use sparsetir_core as core;
pub use sparsetir_engine as engine;
pub use sparsetir_gpusim as gpusim;
pub use sparsetir_graphs as graphs;
pub use sparsetir_ir as ir;
pub use sparsetir_kernels as kernels;
pub use sparsetir_nn as nn;
pub use sparsetir_plans as plans;
pub use sparsetir_smat as smat;

/// Everything the examples and integration tests need, in one import.
pub mod prelude {
    pub use sparsetir_autotune::{tune_spmm, SpmmConfig, TuneResult};
    pub use sparsetir_core::prelude::*;
    pub use sparsetir_engine::{
        Adjacency, Engine, EngineConfig, EngineError, EngineStats, LatencyHistogram, OpOutput,
        OpRequest, Priority, PriorityStats, RejectReason, ShedStats, Submission, Ticket,
        DRIFT_THRESHOLD,
    };
    pub use sparsetir_gpusim::prelude::*;
    pub use sparsetir_graphs::prelude::*;
    pub use sparsetir_ir::prelude::*;
    pub use sparsetir_kernels::prelude::*;
    pub use sparsetir_nn::prelude::*;
    pub use sparsetir_plans::prelude::*;
    pub use sparsetir_smat::prelude::*;
}
