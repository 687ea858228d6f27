//! # sparsetir-ir
//!
//! Loop-level tensor IR — the Stage II/III substrate of the SparseTIR
//! reproduction (paper §3.3–§3.5). This crate plays the role TVM's TensorIR
//! plays for the original system: it provides
//!
//! * an expression/statement AST with TensorIR-style **blocks** carrying
//!   spatial/reduction iteration semantics ([`stmt::Block`]),
//! * **schedule primitives** (`split`, `fuse`, `reorder`, `bind`,
//!   `vectorize`, `unroll`, `cache_read`, `cache_write`, `rfactor`,
//!   `tensorize`) as composable program transformations ([`schedule`]),
//! * a reference **interpreter** defining functional semantics ([`eval`]),
//! * a Python-script-style **printer** matching the paper's figures
//!   ([`printer`]), and
//! * a CUDA-source **code generator** ([`codegen`]).
//!
//! ```
//! use sparsetir_ir::prelude::*;
//!
//! // C[i] = A[i] + 1 over n = 4, scheduled onto GPU threads.
//! let i = Var::i32("i");
//! let a = Buffer::global_f32("A", vec![Expr::i32(4)]);
//! let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
//! let body = Stmt::for_serial(
//!     i.clone(),
//!     4,
//!     Stmt::BufferStore {
//!         buffer: c.clone(),
//!         indices: vec![Expr::var(&i)],
//!         value: a.load(vec![Expr::var(&i)]) + 1.0f32,
//!     },
//! );
//! let f = PrimFunc::new("incr", vec![], vec![a, c], body);
//! let mut sch = Schedule::new(f);
//! let (_o, inner) = sch.split("i", 2)?;
//! sch.bind(&inner, ThreadAxis::ThreadIdxX)?;
//!
//! let mut tensors = std::collections::HashMap::new();
//! tensors.insert("A".to_string(), TensorData::from(vec![1.0f32, 2.0, 3.0, 4.0]));
//! tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 4));
//! eval_func(sch.func(), &Default::default(), &mut tensors)?;
//! assert_eq!(tensors["C"].as_f32(), &[2.0, 3.0, 4.0, 5.0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod buffer;
pub mod codegen;
pub mod dtype;
pub mod eval;
pub mod exec;
pub mod expr;
pub mod func;
pub mod printer;
pub mod schedule;
pub mod stmt;

/// Common imports for building and scheduling IR.
pub mod prelude {
    pub use crate::analysis::{count_ops, verify, OpCounts, VerifyError};
    pub use crate::buffer::{Buffer, BufferRegion, Scope};
    pub use crate::codegen::{codegen_cuda, launch_config};
    pub use crate::dtype::DType;
    pub use crate::eval::{eval_func, eval_func_counting, scalar_map, OpKind, TensorData};
    pub use crate::exec::{
        exec_func, BufferPool, CompiledKernel, ExecError, MemoryPlan, NestCounts, PlanEntry,
        Runtime, ViewBindings,
    };
    pub use crate::expr::{BinOp, Expr, Intrinsic, Var};
    pub use crate::func::PrimFunc;
    pub use crate::printer::{print_expr, print_func};
    pub use crate::schedule::{Schedule, ScheduleError};
    pub use crate::stmt::{Block, ForKind, IterKind, IterVar, Stmt, TensorTile, ThreadAxis};
}
