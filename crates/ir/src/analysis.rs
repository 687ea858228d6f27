//! Static analysis over the loop-level IR: a structural verifier and FLOP
//! counting. The FLOP counter is used by the test suite to cross-check
//! simulator kernel plans against the IR they mirror (README,
//! "Interpreter vs. compiled executor").

use crate::buffer::Buffer;
use crate::expr::Expr;
use crate::func::PrimFunc;
use crate::stmt::{ForKind, Stmt, ThreadAxis};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A structural defect found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    message: String,
}

impl VerifyError {
    fn new(message: impl Into<String>) -> Self {
        VerifyError { message: message.into() }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification error: {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verify structural well-formedness of a function:
///
/// * every buffer access arity matches the buffer's rank,
/// * every referenced buffer is bound (parameter or in-scope allocation),
/// * every variable reference is in scope (param, loop, let, block var),
/// * each GPU thread axis is bound by at most one loop on any path,
/// * allocated staging buffers are not `Global` scope.
///
/// # Errors
/// Returns the first defect found.
pub fn verify(func: &PrimFunc) -> Result<(), VerifyError> {
    let mut scope: Vec<String> = func.params.iter().map(|p| p.name.to_string()).collect();
    let mut buffers: HashMap<String, usize> =
        func.buffers.iter().map(|b| (b.name.to_string(), b.ndim())).collect();
    let mut axes: HashSet<ThreadAxis> = HashSet::new();
    verify_stmt(&func.body, &mut scope, &mut buffers, &mut axes)
}

fn verify_stmt(
    s: &Stmt,
    scope: &mut Vec<String>,
    buffers: &mut HashMap<String, usize>,
    axes: &mut HashSet<ThreadAxis>,
) -> Result<(), VerifyError> {
    match s {
        Stmt::For { var, extent, kind, body } => {
            verify_expr(extent, scope, buffers)?;
            if let ForKind::ThreadBinding(axis) = kind {
                if !axes.insert(*axis) {
                    return Err(VerifyError::new(format!(
                        "thread axis {} bound by more than one loop on a path",
                        axis.name()
                    )));
                }
            }
            scope.push(var.name.to_string());
            verify_stmt(body, scope, buffers, axes)?;
            scope.pop();
            if let ForKind::ThreadBinding(axis) = kind {
                axes.remove(axis);
            }
            Ok(())
        }
        Stmt::Block(b) => {
            for iv in &b.iter_vars {
                verify_expr(&iv.binding, scope, buffers)?;
            }
            let base = scope.len();
            scope.extend(b.iter_vars.iter().map(|iv| iv.var.name.to_string()));
            if let Some(init) = &b.init {
                verify_stmt(init, scope, buffers, axes)?;
            }
            verify_stmt(&b.body, scope, buffers, axes)?;
            scope.truncate(base);
            Ok(())
        }
        Stmt::BufferStore { buffer, indices, value } => {
            verify_access(buffer, indices.len(), buffers)?;
            for i in indices {
                verify_expr(i, scope, buffers)?;
            }
            verify_expr(value, scope, buffers)
        }
        Stmt::Seq(v) => {
            for st in v {
                verify_stmt(st, scope, buffers, axes)?;
            }
            Ok(())
        }
        Stmt::IfThenElse { cond, then_branch, else_branch } => {
            verify_expr(cond, scope, buffers)?;
            verify_stmt(then_branch, scope, buffers, axes)?;
            if let Some(e) = else_branch {
                verify_stmt(e, scope, buffers, axes)?;
            }
            Ok(())
        }
        Stmt::Let { var, value, body } => {
            verify_expr(value, scope, buffers)?;
            scope.push(var.name.to_string());
            verify_stmt(body, scope, buffers, axes)?;
            scope.pop();
            Ok(())
        }
        Stmt::Allocate { buffer, body } => {
            if buffer.scope == crate::buffer::Scope::Global {
                return Err(VerifyError::new(format!(
                    "allocated buffer `{}` must not be global scope",
                    buffer.name
                )));
            }
            for d in &buffer.shape {
                verify_expr(d, scope, buffers)?;
            }
            let had = buffers.insert(buffer.name.to_string(), buffer.ndim());
            verify_stmt(body, scope, buffers, axes)?;
            match had {
                Some(prev) => {
                    buffers.insert(buffer.name.to_string(), prev);
                }
                None => {
                    buffers.remove(&buffer.name.to_string());
                }
            }
            Ok(())
        }
        Stmt::Evaluate(e) => verify_expr(e, scope, buffers),
        Stmt::MmaSync { c, a, b, .. } => {
            for t in [c, a, b] {
                verify_access(&t.buffer, 1, buffers)?;
                verify_expr(&t.offset, scope, buffers)?;
                verify_expr(&t.row_stride, scope, buffers)?;
            }
            Ok(())
        }
    }
}

fn verify_access(
    buffer: &Buffer,
    arity: usize,
    buffers: &HashMap<String, usize>,
) -> Result<(), VerifyError> {
    match buffers.get(&buffer.name.to_string()) {
        None => Err(VerifyError::new(format!("buffer `{}` is not bound", buffer.name))),
        Some(&rank) if rank != arity => Err(VerifyError::new(format!(
            "buffer `{}` has rank {rank} but is accessed with {arity} indices",
            buffer.name
        ))),
        Some(_) => Ok(()),
    }
}

fn verify_expr(
    e: &Expr,
    scope: &[String],
    buffers: &HashMap<String, usize>,
) -> Result<(), VerifyError> {
    match e {
        Expr::Var(v) => {
            if scope.iter().any(|s| s == &*v.name) {
                Ok(())
            } else {
                Err(VerifyError::new(format!("variable `{}` is not in scope", v.name)))
            }
        }
        Expr::Int { .. } | Expr::Float { .. } => Ok(()),
        Expr::Binary { lhs, rhs, .. } => {
            verify_expr(lhs, scope, buffers)?;
            verify_expr(rhs, scope, buffers)
        }
        Expr::Select { cond, then, otherwise } => {
            verify_expr(cond, scope, buffers)?;
            verify_expr(then, scope, buffers)?;
            verify_expr(otherwise, scope, buffers)
        }
        Expr::Cast { value, .. } => verify_expr(value, scope, buffers),
        Expr::BufferLoad { buffer, indices } => {
            verify_access(buffer, indices.len(), buffers)?;
            for i in indices {
                verify_expr(i, scope, buffers)?;
            }
            Ok(())
        }
        Expr::Call { args, .. } => {
            for a in args {
                verify_expr(a, scope, buffers)?;
            }
            Ok(())
        }
    }
}

/// Dynamic operation counts of one interpreted execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounts {
    /// Floating multiply-adds and other float binary ops (FMA counts 2).
    pub flops: f64,
    /// Global/scalar loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

/// Count operations of one interpreted run: `func` is fully executed by
/// the interpreter ([`eval_func_counting`](crate::eval::eval_func_counting))
/// on a clone of `tensors`, which is left untouched, and every float op,
/// load and store it executes is counted — so data-dependent extents like
/// `indptr[i+1] − indptr[i]` are exact, and the cost is a whole
/// interpretation.
///
/// # Errors
/// Propagates interpreter errors.
pub fn count_ops(
    func: &PrimFunc,
    scalars: &HashMap<String, i64>,
    tensors: &HashMap<String, crate::eval::TensorData>,
) -> Result<OpCounts, crate::eval::EvalError> {
    let mut tensors = tensors.clone();
    let mut counts = OpCounts::default();
    crate::eval::eval_func_counting(func, scalars, &mut tensors, &mut |kind| match kind {
        crate::eval::OpKind::Flop => counts.flops += 1.0,
        crate::eval::OpKind::Load => counts.loads += 1,
        crate::eval::OpKind::Store => counts.stores += 1,
    })?;
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Scope;
    use crate::dtype::DType;
    use crate::eval::TensorData;
    use crate::expr::Var;

    fn sample_func() -> PrimFunc {
        let i = Var::i32("i");
        let a = Buffer::global_f32("A", vec![Expr::i32(4)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        let body = Stmt::for_serial(
            i.clone(),
            4,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&i)],
                value: a.load(vec![Expr::var(&i)]) * 2.0f32 + 1.0f32,
            },
        );
        PrimFunc::new("f", vec![], vec![a, c], body)
    }

    #[test]
    fn verify_accepts_well_formed() {
        verify(&sample_func()).unwrap();
    }

    #[test]
    fn verify_rejects_unbound_variable() {
        let ghost = Var::i32("ghost");
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        let f = PrimFunc::new(
            "f",
            vec![],
            vec![c.clone()],
            Stmt::BufferStore {
                buffer: c,
                indices: vec![Expr::var(&ghost)],
                value: Expr::f32(0.0),
            },
        );
        let err = verify(&f).unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn verify_rejects_unbound_buffer() {
        let i = Var::i32("i");
        let phantom = Buffer::global_f32("Phantom", vec![Expr::i32(4)]);
        let f = PrimFunc::new(
            "f",
            vec![],
            vec![],
            Stmt::for_serial(
                i.clone(),
                4,
                Stmt::BufferStore {
                    buffer: phantom,
                    indices: vec![Expr::var(&i)],
                    value: Expr::f32(0.0),
                },
            ),
        );
        assert!(verify(&f).is_err());
    }

    #[test]
    fn verify_rejects_rank_mismatch() {
        let i = Var::i32("i");
        let a = Buffer::global_f32("A", vec![Expr::i32(2), Expr::i32(2)]);
        let f = PrimFunc::new(
            "f",
            vec![],
            vec![a.clone()],
            Stmt::for_serial(
                i.clone(),
                2,
                Stmt::BufferStore {
                    buffer: a,
                    indices: vec![Expr::var(&i)], // 1 index for rank 2
                    value: Expr::f32(0.0),
                },
            ),
        );
        let err = verify(&f).unwrap_err();
        assert!(err.to_string().contains("rank"), "{err}");
    }

    #[test]
    fn verify_rejects_double_thread_binding() {
        let i = Var::i32("i");
        let j = Var::i32("j");
        let f = PrimFunc::new(
            "f",
            vec![],
            vec![],
            Stmt::For {
                var: i,
                extent: Expr::i32(2),
                kind: ForKind::ThreadBinding(ThreadAxis::ThreadIdxX),
                body: Box::new(Stmt::For {
                    var: j,
                    extent: Expr::i32(2),
                    kind: ForKind::ThreadBinding(ThreadAxis::ThreadIdxX),
                    body: Box::new(Stmt::nop()),
                }),
            },
        );
        assert!(verify(&f).is_err());
    }

    #[test]
    fn verify_rejects_global_allocation() {
        let tmp = Buffer::new("tmp", DType::F32, vec![Expr::i32(1)], Scope::Global);
        let f = PrimFunc::new(
            "f",
            vec![],
            vec![],
            Stmt::Allocate { buffer: tmp, body: Box::new(Stmt::nop()) },
        );
        assert!(verify(&f).is_err());
    }

    #[test]
    fn count_ops_matches_hand_count() {
        let f = sample_func();
        let mut tensors = HashMap::new();
        tensors.insert("A".to_string(), TensorData::from(vec![1.0f32; 4]));
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 4));
        let counts = count_ops(&f, &HashMap::new(), &tensors).unwrap();
        // Per iteration: 1 load, 2 float ops (mul, add), 1 store; ×4.
        assert_eq!(counts.loads, 4);
        assert_eq!(counts.stores, 4);
        assert!((counts.flops - 8.0).abs() < 1e-9, "{}", counts.flops);
    }
}
