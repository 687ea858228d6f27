//! # sparsetir-kernels
//!
//! SparseTIR-generated operators for every workload in the paper's
//! evaluation: SpMM (§4.2.1), SDDMM (§4.2.2), batched sparse-attention
//! operators (§4.3.1), pruned-weight SpMM (§4.3.2), RGMS (§4.4.1) and
//! sparse convolution (§4.4.2).
//!
//! Each kernel exposes two faces:
//! * an **IR path** — Stage I program → lowering → schedules → interpretable
//!   Stage III function (functional validation + CUDA emission), and
//! * a **plan path** — a [`sparsetir_gpusim::plan::KernelPlan`] whose block
//!   decomposition mirrors the same schedule parameters, priced by the GPU
//!   simulator (the substitution for the paper's hardware runs).
//!
//! The served kernels' IR path sits behind the generic [`op::SparseOp`]
//! layer: one descriptor per operator with a `Config` holding exactly
//! what its launch reads, a zero-copy batching contract (`can_batch` +
//! one `launch`) and a reference-executor hook, so the serving engine is
//! op-agnostic; the plan path stays the free `*_plan` builders the typed
//! tuners price. Each served kernel has exactly one executable entry
//! point — [`spmm::spmm_execute_views_on`],
//! [`sddmm::sddmm_execute_views_on`],
//! [`fused_attention::fused_attention_views_on`],
//! [`fused_sage::fused_sage_execute_on`] — binding the caller's operands
//! and outputs as views; `SparseOp::launch` is a thin adapter over it.
//! The multi-launch forms of the two fused ops
//! ([`fused_attention::attention_pipeline_oracle`],
//! [`fused_sage::sage_pipeline_oracle`]) are test references only.

#![warn(missing_docs)]

pub mod attention;
pub mod common;
pub mod fused_attention;
pub mod fused_sage;
pub mod op;
pub mod prune;
pub mod rgms;
pub mod sddmm;
pub mod sparse_conv;
mod spec;
pub mod spmm;

/// Common imports.
pub mod prelude {
    pub use crate::attention::{
        batched_bsr_sddmm_plan, batched_bsr_spmm_plan, batched_csr_sddmm_plan,
        batched_csr_spmm_plan, batched_spmm_reference, SPARSETIR_BSR_EFFICIENCY,
    };
    pub use crate::common::{gemm_plan, SpmmCost, SpmmLayout, F16, F32};
    pub use crate::fused_attention::{
        attention_aggregate_ir, attention_pipeline_oracle, attention_score_ir, edge_softmax_ir,
        fused_attention_ir, fused_attention_reference, fused_attention_views_on,
    };
    pub use crate::fused_sage::{
        fused_sage_execute_on, fused_sage_ir, fused_sage_reference, inverse_degrees,
        sage_pipeline_oracle,
    };
    pub use crate::op::{
        AttentionOp, AttnHead, FusedAttentionOp, FusedSageOp, OpError, SddmmOp, SparseOp, SpmmOp,
    };
    pub use crate::prune::{
        bsr_weight_spmm_plan, dbsr_weight_spmm_plan, srbcrs_weight_spmm_plan,
        weight_spmm_reference, PRUNE_TC_EFFICIENCY,
    };
    pub use crate::rgms::{
        fused_footprint_bytes, rgms_execute, rgms_hyb_plan, rgms_naive_plan, rgms_two_stage_plans,
        two_stage_footprint_bytes, RgmsWorkload, RGMS_TC_EFFICIENCY,
    };
    pub use crate::sddmm::{
        sddmm_execute_views_on, sddmm_ir, sddmm_param_candidates, sddmm_plan,
        sddmm_row_parallel_plan, tuned_sddmm_time, SddmmParams,
    };
    pub use crate::sparse_conv::{
        conv_reference, sparsetir_conv_plan, torchsparse_plans, ConvMaps,
    };
    pub use crate::spmm::{
        csr_spmm_ir, csr_spmm_ir_with, csr_spmm_plan, hyb_spmm_plans, hyb_spmm_time, prepare_spmm,
        prepare_spmm_structure, spmm_execute_views_on, tuned_spmm_plans, tuned_spmm_time,
        CsrSpmmParams, PreparedSpmm, SpmmConfig,
    };
    pub use sparsetir_core::prelude::bytes_copied_on_thread;
}
