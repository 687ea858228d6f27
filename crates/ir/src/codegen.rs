//! Target-specific code generation (§3.5 of the paper).
//!
//! Emits CUDA C source text for a lowered, thread-bound [`PrimFunc`].
//! In the paper this stage hands off to TVM's CUDA backend; here (per the
//! reproduction's substitution rules — no GPU available) the generated
//! source is a *demonstration artifact*: it is asserted against golden
//! snapshots in tests and shipped for inspection, while execution happens in
//! the interpreter and performance in the GPU simulator crate.

use crate::expr::{BinOp, Expr, Intrinsic};
use crate::func::PrimFunc;
use crate::stmt::{ForKind, Stmt, ThreadAxis};
use std::fmt::Write;

/// Launch configuration extracted from thread-bound loops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Grid dimensions `(x, y, z)` when constant.
    pub grid: [Option<i64>; 3],
    /// Block dimensions `(x, y, z)` when constant.
    pub block: [Option<i64>; 3],
}

/// Extract grid/block extents from the function's thread-bound loops.
#[must_use]
pub fn launch_config(func: &PrimFunc) -> LaunchConfig {
    let mut cfg = LaunchConfig::default();
    func.body.walk(&mut |s| {
        if let Stmt::For { extent, kind: ForKind::ThreadBinding(axis), .. } = s {
            let v = extent.as_const_int();
            match axis {
                ThreadAxis::BlockIdxX => cfg.grid[0] = v,
                ThreadAxis::BlockIdxY => cfg.grid[1] = v,
                ThreadAxis::BlockIdxZ => cfg.grid[2] = v,
                ThreadAxis::ThreadIdxX => cfg.block[0] = v,
                ThreadAxis::ThreadIdxY => cfg.block[1] = v,
                ThreadAxis::ThreadIdxZ => cfg.block[2] = v,
            }
        }
    });
    cfg
}

fn ctype(dtype: crate::dtype::DType) -> &'static str {
    use crate::dtype::DType;
    match dtype {
        DType::I32 => "int",
        DType::I64 => "long long",
        DType::F32 => "float",
        DType::F16 => "half",
        DType::Bool => "bool",
    }
}

fn emit_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Int { value, .. } => {
            let _ = write!(out, "{value}");
        }
        Expr::Float { value, .. } => {
            let _ = write!(out, "{value:?}f");
        }
        Expr::Var(v) => {
            let _ = write!(out, "{}", v.name);
        }
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::Min | BinOp::Max => {
                let _ = write!(out, "{}(", if *op == BinOp::Min { "min" } else { "max" });
                emit_expr(lhs, out);
                out.push_str(", ");
                emit_expr(rhs, out);
                out.push(')');
            }
            _ => {
                out.push('(');
                emit_expr(lhs, out);
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                    BinOp::Min | BinOp::Max => unreachable!(),
                };
                let _ = write!(out, " {sym} ");
                emit_expr(rhs, out);
                out.push(')');
            }
        },
        Expr::Select { cond, then, otherwise } => {
            out.push('(');
            emit_expr(cond, out);
            out.push_str(" ? ");
            emit_expr(then, out);
            out.push_str(" : ");
            emit_expr(otherwise, out);
            out.push(')');
        }
        Expr::Cast { dtype, value } => {
            let _ = write!(out, "({})(", ctype(*dtype));
            emit_expr(value, out);
            out.push(')');
        }
        Expr::BufferLoad { buffer, indices } => {
            let _ = write!(out, "{}[", buffer.name);
            // Flatten row-major for multi-dim buffers.
            if indices.len() == 1 {
                emit_expr(&indices[0], out);
            } else {
                let mut flat = indices[0].clone();
                for (idx, dim) in indices.iter().zip(&buffer.shape).skip(1) {
                    flat = flat * dim.clone() + idx.clone();
                }
                emit_expr(&flat.simplify(), out);
            }
            out.push(']');
        }
        Expr::Call { intrin, args } => match intrin {
            Intrinsic::BinarySearch => {
                out.push_str("__binary_search(");
                if let Expr::BufferLoad { buffer, .. } = &args[0] {
                    let _ = write!(out, "{}, ", buffer.name);
                }
                emit_expr(&args[1], out);
                out.push_str(", ");
                emit_expr(&args[2], out);
                out.push_str(", ");
                emit_expr(&args[3], out);
                out.push(')');
            }
            _ => {
                let _ = write!(out, "{}(", intrin.name());
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    emit_expr(a, out);
                }
                out.push(')');
            }
        },
    }
}

fn pad(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn emit_stmt(s: &Stmt, out: &mut String, level: usize) {
    match s {
        Stmt::For { var, extent, kind, body } => match kind {
            ForKind::ThreadBinding(axis) => {
                pad(out, level);
                let _ = writeln!(out, "const int {} = {};  // extent {}", var.name, axis.name(), {
                    let mut e = String::new();
                    emit_expr(extent, &mut e);
                    e
                });
                emit_stmt(body, out, level);
            }
            _ => {
                pad(out, level);
                let pragma = match kind {
                    ForKind::Unrolled => "#pragma unroll\n",
                    ForKind::Vectorized => "// vectorized (float4)\n",
                    _ => "",
                };
                if !pragma.is_empty() {
                    out.push_str(pragma);
                    pad(out, level);
                }
                let mut e = String::new();
                emit_expr(extent, &mut e);
                let _ = writeln!(out, "for (int {v} = 0; {v} < {e}; ++{v}) {{", v = var.name);
                emit_stmt(body, out, level + 1);
                pad(out, level);
                out.push_str("}\n");
            }
        },
        Stmt::Block(b) => {
            pad(out, level);
            let _ = writeln!(out, "// block: {}", b.name);
            // Bind iter vars as consts first — the init body reads them.
            for iv in &b.iter_vars {
                pad(out, level);
                let mut e = String::new();
                emit_expr(&iv.binding, &mut e);
                let _ = writeln!(out, "const int {} = {};", iv.var.name, e);
            }
            if let Some(init) = &b.init {
                pad(out, level);
                out.push_str("// init (predicated on first reduction iteration)\n");
                // Emit guarded init when reduction vars exist.
                let conds: Vec<String> = b
                    .iter_vars
                    .iter()
                    .filter(|iv| iv.kind == crate::stmt::IterKind::Reduce)
                    .map(|iv| format!("({} == 0)", iv.var.name))
                    .collect();
                if conds.is_empty() {
                    emit_stmt(init, out, level);
                } else {
                    pad(out, level);
                    let _ = writeln!(out, "if ({}) {{", conds.join(" && "));
                    emit_stmt(init, out, level + 1);
                    pad(out, level);
                    out.push_str("}\n");
                }
            }
            emit_stmt(&b.body, out, level);
        }
        Stmt::BufferStore { buffer, indices, value } => {
            pad(out, level);
            let load = Expr::BufferLoad { buffer: buffer.clone(), indices: indices.to_vec() };
            let mut lhs = String::new();
            emit_expr(&load, &mut lhs);
            let mut rhs = String::new();
            emit_expr(value, &mut rhs);
            let _ = writeln!(out, "{lhs} = {rhs};");
        }
        Stmt::Seq(stmts) => {
            for st in stmts {
                emit_stmt(st, out, level);
            }
        }
        Stmt::IfThenElse { cond, then_branch, else_branch } => {
            pad(out, level);
            let mut c = String::new();
            emit_expr(cond, &mut c);
            let _ = writeln!(out, "if ({c}) {{");
            emit_stmt(then_branch, out, level + 1);
            pad(out, level);
            out.push_str("}\n");
            if let Some(e) = else_branch {
                pad(out, level);
                out.push_str("else {\n");
                emit_stmt(e, out, level + 1);
                pad(out, level);
                out.push_str("}\n");
            }
        }
        Stmt::Let { var, value, body } => {
            pad(out, level);
            let mut v = String::new();
            emit_expr(value, &mut v);
            let _ = writeln!(out, "const int {} = {};", var.name, v);
            emit_stmt(body, out, level);
        }
        Stmt::Allocate { buffer, body } => {
            pad(out, level);
            let size: String = {
                let mut total = Expr::i32(1);
                for d in &buffer.shape {
                    total = total * d.clone();
                }
                let mut s = String::new();
                emit_expr(&total.simplify(), &mut s);
                s
            };
            let qual = match buffer.scope {
                crate::buffer::Scope::Shared => "__shared__ ",
                _ => "",
            };
            let _ = writeln!(out, "{qual}{} {}[{size}];", ctype(buffer.dtype), buffer.name);
            emit_stmt(body, out, level);
        }
        Stmt::Evaluate(e) => {
            pad(out, level);
            let mut s = String::new();
            emit_expr(e, &mut s);
            let _ = writeln!(out, "{s};");
        }
        Stmt::MmaSync { c, a, b, m, n, k } => {
            pad(out, level);
            let p = |e: &Expr| {
                let mut s = String::new();
                emit_expr(e, &mut s);
                s
            };
            let _ = writeln!(
                out,
                "wmma::mma_sync(&{}[{}], &{}[{}], &{}[{}]); // m{m}n{n}k{k}",
                c.buffer.name,
                p(&c.offset),
                a.buffer.name,
                p(&a.offset),
                b.buffer.name,
                p(&b.offset),
            );
        }
    }
}

/// Generate CUDA C source for a lowered function.
#[must_use]
pub fn codegen_cuda(func: &PrimFunc) -> String {
    let mut out = String::new();
    out.push_str("// generated by sparsetir-rs codegen\n");
    out.push_str(
        "__device__ int __binary_search(const int* arr, int lo, int hi, int x) {\n  while (lo < hi) { int mid = (lo + hi) >> 1; if (arr[mid] < x) lo = mid + 1; else hi = mid; }\n  return lo;\n}\n\n",
    );
    let params: Vec<String> = func
        .buffers
        .iter()
        .map(|b| format!("{}* __restrict__ {}", ctype(b.dtype), b.name))
        .chain(func.params.iter().map(|p| format!("{} {}", ctype(p.dtype), p.name)))
        .collect();
    let _ = writeln!(out, "extern \"C\" __global__ void {}({}) {{", func.name, params.join(", "));
    emit_stmt(&func.body, &mut out, 1);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::expr::Var;
    use crate::schedule::Schedule;
    use crate::stmt::Stmt;

    fn scale_func() -> PrimFunc {
        let i = Var::i32("i");
        let a = Buffer::global_f32("A", vec![Expr::i32(64)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(64)]);
        let body = Stmt::for_serial(
            i.clone(),
            64,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&i)],
                value: a.load(vec![Expr::var(&i)]) * 2.0f32,
            },
        );
        PrimFunc::new("scale", vec![], vec![a, c], body)
    }

    #[test]
    fn emits_kernel_signature() {
        let src = codegen_cuda(&scale_func());
        assert!(
            src.contains("__global__ void scale(float* __restrict__ A, float* __restrict__ C)"),
            "{src}"
        );
        assert!(src.contains("for (int i = 0; i < 64; ++i)"), "{src}");
    }

    #[test]
    fn thread_bindings_become_builtins() {
        let mut sch = Schedule::new(scale_func());
        let (o, i) = sch.split("i", 32).unwrap();
        sch.bind(&o, crate::stmt::ThreadAxis::BlockIdxX).unwrap();
        sch.bind(&i, crate::stmt::ThreadAxis::ThreadIdxX).unwrap();
        let src = codegen_cuda(sch.func());
        assert!(src.contains("const int i_o = blockIdx.x;"), "{src}");
        assert!(src.contains("const int i_i = threadIdx.x;"), "{src}");
        let cfg = launch_config(sch.func());
        assert_eq!(cfg.grid[0], Some(2));
        assert_eq!(cfg.block[0], Some(32));
    }

    #[test]
    fn unroll_emits_pragma() {
        let mut sch = Schedule::new(scale_func());
        sch.unroll("i").unwrap();
        let src = codegen_cuda(sch.func());
        assert!(src.contains("#pragma unroll"), "{src}");
    }
}
