//! # sparsetir-kernels
//!
//! The SparseTIR-generated operators that compile and launch: SpMM
//! (§4.2.1), SDDMM (§4.2.2), and the cross-op fused attention (§4.3.1)
//! and GraphSAGE steps.
//!
//! Each kernel is one thing here — an **IR path**: Stage I program →
//! lowering → a Stage III function that compiles and launches (functional
//! validation, serving) — the row walk, unscheduled; the `*_ir` builders
//! that feed CUDA emission add a GPU schedule. Nothing in this crate
//! knows the GPU simulator: the `KernelPlan` builders that price the same
//! schedule parameters on the V100 model live above it, in
//! `sparsetir-plans`.
//!
//! Each served kernel has exactly one executable entry point —
//! [`spmm::spmm_execute_views_on`], [`sddmm::sddmm_execute_views_on`],
//! [`fused_attention::fused_attention_views_on`],
//! [`fused_sage::fused_sage_execute_on`] — binding the caller's operands
//! and outputs as views. The SpMM, SDDMM and attention ones take one
//! request or a batch: the one-rider kernel is looked up and the adjacency
//! bound once, then the kernel runs once per rider (attention: per head)
//! on that rider's own storage, so a rider's bits are the ones it would
//! get alone. Beside each entry point sits its
//! request-shape rule ([`spmm::check_shapes`], [`sddmm::check_shapes`],
//! [`fused_attention::check_heads`], [`fused_sage::check_shapes`]), which
//! the entry point applies and a serving engine applies at admission.
//! The multi-launch forms of the two fused ops
//! ([`fused_attention::attention_pipeline_oracle`],
//! [`fused_sage::sage_pipeline_oracle`]) are test references only.
//!
//! One launch reads a searched configuration — SpMM's — and [`tune`]
//! decides it by timing that launch: the served rule, its shortlist and
//! the cache a serving engine files the decision in.

#![warn(missing_docs)]

pub mod fused_attention;
pub mod fused_sage;
pub mod sddmm;
mod spec;
pub mod spmm;
pub mod tune;

/// The output rule behind every request-shape rule: a `rows × cols` `f32`
/// result (or scratch) can exist only when its element count fits `usize`
/// and its bytes what a `Vec<f32>` can hold, so a request refused here
/// allocates nothing.
fn check_output(what: &str, rows: usize, cols: usize) -> Result<(), String> {
    match rows.checked_mul(cols).map(std::alloc::Layout::array::<f32>) {
        Some(Ok(_)) => Ok(()),
        _ => Err(format!("{what} of {rows}x{cols} f32s cannot be allocated")),
    }
}

/// Common imports.
pub mod prelude {
    pub use crate::fused_attention::{
        attention_aggregate_ir, attention_pipeline_oracle, attention_score_ir, edge_softmax_ir,
        fused_attention_ir, fused_attention_reference, fused_attention_views_on, AttnHead,
    };
    pub use crate::fused_sage::{
        fused_sage_execute_on, fused_sage_ir, fused_sage_reference, inverse_degrees,
        sage_pipeline_oracle,
    };
    pub use crate::sddmm::{sddmm_execute_views_on, sddmm_ir};
    pub use crate::spmm::{
        csr_spmm_ir, prepare_spmm, prepare_spmm_structure, spmm_execute_views_on, CsrSpmmParams,
        PreparedSpmm, SpmmConfig,
    };
    pub use sparsetir_core::prelude::bytes_copied_on_thread;
}
