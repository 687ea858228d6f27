//! # sparsetir-plans
//!
//! Every [`KernelPlan`](sparsetir_gpusim::plan::KernelPlan) builder of the
//! reproduction, priced on the shared GPU simulator (the substitution the
//! README intro names; strategy-level modelling keeps the figures'
//! relative behaviour). The executable kernels live below this crate, in
//! `sparsetir-kernels`, which knows nothing of the simulator; a plan's
//! block decomposition mirrors the schedule parameters
//! (`CsrSpmmParams` / `SpmmConfig`) those kernels read.
//!
//! * SparseTIR's own schedules: [`spmm`] (§4.2.1, CSR and `hyb(c, k)`),
//!   [`sddmm`] (§4.2.2), [`attention`] (§4.3.1), [`prune`] (§4.3.2),
//!   [`rgms`] (§4.4.1), [`sparse_conv`] (§4.4.2, with TorchSparse), over
//!   the layout and block-cost helpers in [`common`];
//! * vendor and framework baselines by their documented strategies:
//!   cuSPARSE, Sputnik, dgSPARSE/GE-SpMM, TACO, DGL/FeatGraph
//!   ([`spmm_baselines`], Figs. 13/14), Triton block-sparse ([`triton`],
//!   Figs. 16/17), cuBLAS and cuSPARSE-fp16 ([`cublas`], Figs. 17/19),
//!   PyG, DGL, Graphiler ([`gnn`], Figs. 15/20).

#![warn(missing_docs)]

pub mod attention;
pub mod common;
pub mod cublas;
pub mod gnn;
pub mod prune;
pub mod rgms;
pub mod sddmm;
pub mod sparse_conv;
pub mod spmm;
pub mod spmm_baselines;
pub mod triton;

/// Common imports.
pub mod prelude {
    pub use crate::attention::{
        batched_bsr_sddmm_plan, batched_bsr_spmm_plan, batched_csr_sddmm_plan,
        batched_csr_spmm_plan, SPARSETIR_BSR_EFFICIENCY,
    };
    pub use crate::common::{gemm_plan, SpmmCost, SpmmLayout, F16, F32};
    pub use crate::cublas::{
        cublas_gemm_fp16_plan, cublas_gemm_fp32_plan, cusparse_csrmm_fp16_plan,
        CUBLAS_F32_EFFICIENCY, CUBLAS_TC_EFFICIENCY,
    };
    pub use crate::gnn::{dgl_spmm_plan, rgcn};
    pub use crate::prune::{
        bsr_weight_spmm_plan, dbsr_weight_spmm_plan, srbcrs_weight_spmm_plan, PRUNE_TC_EFFICIENCY,
    };
    pub use crate::rgms::{
        fused_footprint_bytes, rgms_hyb_plan, rgms_naive_plan, rgms_two_stage_plans,
        two_stage_footprint_bytes, RgmsWorkload, RGMS_TC_EFFICIENCY,
    };
    pub use crate::sddmm::{
        sddmm_param_candidates, sddmm_plan, sddmm_row_parallel_plan, SddmmParams,
    };
    pub use crate::sparse_conv::{
        conv_reference, sparsetir_conv_plan, torchsparse_plans, ConvMaps,
    };
    pub use crate::spmm::{
        csr_spmm_plan, hyb_spmm_plans, hyb_spmm_time, tuned_spmm_plans, tuned_spmm_time,
    };
    pub use crate::spmm_baselines::{
        cusparse_spmm_plan, dgsparse_spmm_plan, sddmm, sputnik_spmm_plan, taco_spmm_plan,
    };
    pub use crate::triton::{
        triton_blocksparse_sddmm_plan, triton_blocksparse_spmm_plan, triton_bsrmm_plan,
        TRITON_EFFICIENCY, TRITON_TILE,
    };
}
