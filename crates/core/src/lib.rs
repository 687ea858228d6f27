//! # sparsetir-core
//!
//! The paper's primary contribution: SparseTIR's Stage I IR (axes, sparse
//! buffers, sparse iterations — §3.1/§3.2), composable-format
//! decomposition (§3.2.1), Stage I schedules (§3.2.2), sparse iteration
//! lowering to position space (§3.3.1, eqs. 1–5), sparse buffer lowering
//! to flat loop-level IR (§3.4.1, eqs. 6–8) and horizontal fusion (§3.5).
//!
//! The lowering pipeline targets `sparsetir-ir` (the TensorIR-equivalent
//! substrate), whose interpreter defines the functional semantics used to
//! validate every pass: a Stage I program interpreted with *dense*
//! coordinate-space bindings must agree with its lowered Stage III form
//! interpreted with *compressed* bindings.
//!
//! ```
//! use sparsetir_core::prelude::*;
//! use sparsetir_ir::prelude::*;
//!
//! // The paper's Figure 3 SpMM, lowered end to end.
//! let program = spmm_program(4, 4, 6, 8);
//! let stage3 = lower(&program)?;
//! assert!(print_func(&stage3).contains("J_indptr"));
//! # Ok::<(), sparsetir_core::lower::LowerError>(())
//! ```

#![warn(missing_docs)]

pub mod axis;
pub mod data;
pub mod flatten;
pub mod fused;
pub mod hfuse;
pub mod lower;
pub mod rewrite;
pub mod schedule1;
pub mod stage1;
pub mod validate;

/// Common imports.
pub mod prelude {
    pub use crate::axis::{Axis, AxisKind, AxisStore};
    pub use crate::data::{
        bind_bsr, bind_bucket, bind_csr, bind_dense, bind_ell, bind_zeros, bucket_tag,
        bytes_copied_on_thread, hyb_buckets, read_dense, Bindings, LaunchBindings,
    };
    pub use crate::flatten::{aux_buffer_names, flat_size, flatten_access, lower, lower_to_stage3};
    pub use crate::fused::{
        attention_aggregate_program, attention_pass_program, attention_score_program,
        edge_softmax_program, fused_attention_program, fused_sage_program, sage_gather_program,
        sage_matmul_program, ATTENTION_PASSES,
    };
    pub use crate::hfuse::horizontal_fuse;
    pub use crate::lower::{lower_to_stage2, BufferDomain, LowerError, Stage2Func};
    pub use crate::rewrite::{decompose_format, FormatRewriteRule, RewriteError};
    pub use crate::schedule1::{sparse_fuse, sparse_reorder, Stage1Error};
    pub use crate::stage1::{
        batched_sddmm_program, sddmm_program, spmm_program, ProgramBuilder, SpBuffer, SpIter,
        SpProgram, SpStore,
    };
    pub use crate::validate::{validate, ValidateError};
}
