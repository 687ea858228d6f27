//! # sparsetir-baselines
//!
//! Vendor-library and framework baselines for every comparison in the
//! paper's evaluation, re-implemented by their documented strategies as
//! kernel plans on the shared GPU simulator (the substitution the README
//! intro names; strategy-level modelling keeps the figures' relative
//! behaviour):
//!
//! * SpMM (Fig. 13): cuSPARSE, Sputnik, dgSPARSE/GE-SpMM, TACO,
//! * SDDMM (Fig. 14): cuSPARSE, Sputnik, DGL/FeatGraph, dgSPARSE-csr/coo,
//!   TACO,
//! * sparse attention (Fig. 16): Triton block-sparse,
//! * pruned transformers (Figs. 17/19): cuBLAS, cuSPARSE-fp16, Triton
//!   BSRMM,
//! * RGCN (Fig. 20): PyG, DGL, Graphiler,
//! * sparse convolution (Fig. 23): TorchSparse (in
//!   `sparsetir_kernels::sparse_conv`).

#![warn(missing_docs)]

pub mod cublas;
pub mod gnn;
pub mod spmm_baselines;
pub mod triton;

/// Common imports.
pub mod prelude {
    pub use crate::cublas::{
        cublas_gemm_fp16_plan, cublas_gemm_fp32_plan, cusparse_csrmm_fp16_plan,
        CUBLAS_F32_EFFICIENCY, CUBLAS_TC_EFFICIENCY,
    };
    pub use crate::gnn::{dgl_spmm_plan, rgcn};
    pub use crate::spmm_baselines::{
        cusparse_spmm_plan, dgsparse_spmm_plan, sddmm, sputnik_spmm_plan, taco_spmm_plan,
    };
    pub use crate::triton::{
        triton_blocksparse_sddmm_plan, triton_blocksparse_spmm_plan, triton_bsrmm_plan,
        TRITON_EFFICIENCY, TRITON_TILE,
    };
}
