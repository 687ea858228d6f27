//! Sparse buffer lowering — Stage II → Stage III (§3.4.1).
//!
//! Removes all sparse constructs: every multi-dimensional position-space
//! sparse buffer access is flattened to a 1-D offset via the
//! offset/stride recursion of eqs. 6–8, walking the buffer's axis forest
//! (`is_leaf`, `offset(i)`, `stride(i)` exactly as in the paper). The
//! result is a plain loop-level function interpretable by `sparsetir-ir`
//! and consumable by its code generator.

use crate::axis::{AxisKind, AxisStore};
use crate::lower::{lower_to_stage2, LowerError, Stage2Func};
use crate::stage1::{SpBuffer, SpProgram};
use sparsetir_ir::prelude::*;
use std::rc::Rc;

/// Flat storage size of a sparse buffer: the product of `nnz(Tree(root))`
/// over the roots of its axis forest — an integer literal, or an
/// expression over the axes' scalar parameters (`nnz`).
#[must_use]
pub fn flat_size(axes: &AxisStore, buf: &SpBuffer) -> Expr {
    let mut size = Expr::i32(1);
    for (i, axis_name) in buf.axes.iter().enumerate() {
        if is_root_in(axes, buf, i) {
            size = (size * axes.tree_positions(axis_name, &buf.axes)).simplify();
        }
    }
    size
}

/// `A_i` has no parent among the buffer's earlier axes.
fn is_root_in(axes: &AxisStore, buf: &SpBuffer, i: usize) -> bool {
    let axis = axes.get(&buf.axes[i]).expect("axis registered");
    match &axis.parent {
        None => true,
        Some(p) => !buf.axes[..i].iter().any(|a| a == p),
    }
}

/// No later axis of the buffer depends on `A_i` (eq. 6's `is_leaf`).
fn is_leaf_in(axes: &AxisStore, buf: &SpBuffer, i: usize) -> bool {
    let name = &buf.axes[i];
    !buf.axes[i + 1..]
        .iter()
        .any(|a| axes.get(a).and_then(|ax| ax.parent.as_ref()).is_some_and(|p| p == name))
}

/// The flat offset expression for position indices `q` of buffer `buf`
/// (eq. 6: `Σ is_leaf(A_i) · offset(i) · stride(i+1)`).
///
/// # Errors
/// Fails when an axis is unregistered.
pub fn flatten_access(axes: &AxisStore, buf: &SpBuffer, q: &[Expr]) -> Result<Expr, LowerError> {
    let n = buf.axes.len();
    // stride(i+1) for each i (eq. 8), computed right-to-left.
    let mut stride_after = vec![Expr::i32(1); n];
    let mut running = Expr::i32(1);
    for i in (0..n).rev() {
        stride_after[i] = running.clone();
        let axis_name = &buf.axes[i];
        if is_root_in(axes, buf, i) {
            running = (running * axes.tree_positions(axis_name, &buf.axes)).simplify();
        }
    }
    // offset(i) recursion (eq. 7).
    let mut offsets: Vec<Expr> = Vec::with_capacity(n);
    for (i, qi) in q.iter().enumerate().take(n) {
        let axis_name = &buf.axes[i];
        let axis = axes
            .get(axis_name)
            .ok_or_else(|| lower_err(format!("axis `{axis_name}` not registered")))?;
        let off = if is_root_in(axes, buf, i) {
            qi.clone()
        } else {
            let parent = axis.parent.as_ref().expect("non-root has parent");
            let j =
                buf.axes[..i].iter().position(|a| a == parent).expect("parent among earlier axes");
            let poff = offsets[j].clone();
            match axis.kind {
                AxisKind::DenseFixed => (poff * axis.length as i64 + q[i].clone()).simplify(),
                AxisKind::SparseFixed => {
                    (poff * axis.nnz_cols.unwrap_or(0) as i64 + q[i].clone()).simplify()
                }
                AxisKind::DenseVariable | AxisKind::SparseVariable => {
                    let ip = Buffer::global_i32(
                        axis.indptr.clone().expect("variable axis has indptr"),
                        vec![(axes.positions(parent) + 1).simplify()],
                    );
                    (ip.load(vec![poff]) + q[i].clone()).simplify()
                }
            }
        };
        offsets.push(off);
    }
    // Sum over leaves.
    let mut flat = Expr::i32(0);
    for i in 0..n {
        if is_leaf_in(axes, buf, i) {
            flat = (flat + offsets[i].clone() * stride_after[i].clone()).simplify();
        }
    }
    Ok(flat.simplify())
}

fn lower_err(msg: String) -> LowerError {
    LowerError::new(msg)
}

/// Flatten every sparse value buffer access in `stage2` (Stage III).
///
/// # Errors
/// Fails when an access arity disagrees with the buffer's axis count.
pub fn lower_to_stage3(program: &SpProgram, stage2: &Stage2Func) -> Result<PrimFunc, LowerError> {
    let axes = &program.axes;
    // New flat buffers.
    let mut flat_buffers: Vec<Buffer> = Vec::new();
    for b in &stage2.func.buffers {
        match program.buffer(&b.name) {
            Some(sb) => {
                let size = flat_size(axes, sb);
                flat_buffers.push(Buffer::new(b.name.clone(), b.dtype, vec![size], b.scope));
            }
            None => flat_buffers.push(b.clone()),
        }
    }
    let body = rewrite_stmt(program, &stage2.func.body)?;
    Ok(PrimFunc::new(stage2.func.name.clone(), stage2.func.params.clone(), flat_buffers, body))
}

/// Lower a Stage I program all the way to an interpretable Stage III
/// function (`lower_to_stage2` ∘ `lower_to_stage3`).
///
/// # Errors
/// Propagates errors from both passes.
pub fn lower(program: &SpProgram) -> Result<PrimFunc, LowerError> {
    let s2 = lower_to_stage2(program)?;
    lower_to_stage3(program, &s2)
}

fn rewrite_stmt(program: &SpProgram, s: &Stmt) -> Result<Stmt, LowerError> {
    Ok(match s {
        Stmt::For { var, extent, kind, body } => Stmt::For {
            var: var.clone(),
            extent: rewrite_expr(program, extent)?,
            kind: *kind,
            body: Box::new(rewrite_stmt(program, body)?),
        },
        Stmt::Block(b) => {
            let iter_vars = b
                .iter_vars
                .iter()
                .map(|iv| {
                    Ok(IterVar {
                        var: iv.var.clone(),
                        kind: iv.kind,
                        binding: rewrite_expr(program, &iv.binding)?,
                    })
                })
                .collect::<Result<_, LowerError>>()?;
            Stmt::Block(Block {
                name: b.name.clone(),
                iter_vars,
                reads: b.reads.clone(),
                writes: b.writes.clone(),
                init: match &b.init {
                    Some(i) => Some(Box::new(rewrite_stmt(program, i)?)),
                    None => None,
                },
                body: Box::new(rewrite_stmt(program, &b.body)?),
            })
        }
        Stmt::BufferStore { buffer, indices, value } => {
            let value = rewrite_expr(program, value)?;
            match program.buffer(&buffer.name) {
                Some(sb) => {
                    let q: Vec<Expr> = indices
                        .iter()
                        .map(|i| rewrite_expr(program, i))
                        .collect::<Result<_, _>>()?;
                    let flat = flatten_access(&program.axes, sb, &q)?;
                    let size = flat_size(&program.axes, sb);
                    let nb =
                        Buffer::new(buffer.name.clone(), buffer.dtype, vec![size], buffer.scope);
                    Stmt::BufferStore { buffer: nb, indices: vec![flat], value }
                }
                None => Stmt::BufferStore {
                    buffer: buffer.clone(),
                    indices: indices
                        .iter()
                        .map(|i| rewrite_expr(program, i))
                        .collect::<Result<_, _>>()?,
                    value,
                },
            }
        }
        Stmt::Seq(v) => {
            Stmt::Seq(v.iter().map(|s| rewrite_stmt(program, s)).collect::<Result<_, _>>()?)
        }
        Stmt::IfThenElse { cond, then_branch, else_branch } => Stmt::IfThenElse {
            cond: rewrite_expr(program, cond)?,
            then_branch: Box::new(rewrite_stmt(program, then_branch)?),
            else_branch: match else_branch {
                Some(e) => Some(Box::new(rewrite_stmt(program, e)?)),
                None => None,
            },
        },
        Stmt::Let { var, value, body } => Stmt::Let {
            var: var.clone(),
            value: rewrite_expr(program, value)?,
            body: Box::new(rewrite_stmt(program, body)?),
        },
        Stmt::Allocate { buffer, body } => {
            Stmt::Allocate { buffer: buffer.clone(), body: Box::new(rewrite_stmt(program, body)?) }
        }
        Stmt::Evaluate(e) => Stmt::Evaluate(rewrite_expr(program, e)?),
        Stmt::MmaSync { .. } => s.clone(),
    })
}

fn rewrite_expr(program: &SpProgram, e: &Expr) -> Result<Expr, LowerError> {
    Ok(match e {
        Expr::BufferLoad { buffer, indices } => {
            let idx: Vec<Expr> =
                indices.iter().map(|i| rewrite_expr(program, i)).collect::<Result<_, _>>()?;
            match program.buffer(&buffer.name) {
                Some(sb) => {
                    let flat = flatten_access(&program.axes, sb, &idx)?;
                    let size = flat_size(&program.axes, sb);
                    let nb =
                        Buffer::new(buffer.name.clone(), buffer.dtype, vec![size], buffer.scope);
                    nb.load(vec![flat])
                }
                None => Expr::BufferLoad { buffer: buffer.clone(), indices: idx },
            }
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(rewrite_expr(program, lhs)?),
            rhs: Box::new(rewrite_expr(program, rhs)?),
        },
        Expr::Select { cond, then, otherwise } => Expr::Select {
            cond: Box::new(rewrite_expr(program, cond)?),
            then: Box::new(rewrite_expr(program, then)?),
            otherwise: Box::new(rewrite_expr(program, otherwise)?),
        },
        Expr::Cast { dtype, value } => {
            Expr::Cast { dtype: *dtype, value: Box::new(rewrite_expr(program, value)?) }
        }
        Expr::Call { intrin, args } => Expr::Call {
            intrin: *intrin,
            args: args.iter().map(|a| rewrite_expr(program, a)).collect::<Result<_, _>>()?,
        },
        _ => e.clone(),
    })
}

/// Names of auxiliary buffers (indptr/indices) referenced by a program.
#[must_use]
pub fn aux_buffer_names(program: &SpProgram) -> Vec<Rc<str>> {
    let mut out: Vec<Rc<str>> = Vec::new();
    for axis in program.axes.all() {
        for name in [&axis.indptr, &axis.indices].into_iter().flatten() {
            if !out.contains(name) {
                out.push(name.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::Axis;
    use crate::stage1::spmm_program;

    fn csr_axes_store() -> (AxisStore, SpBuffer) {
        let mut axes = AxisStore::new();
        axes.add(Axis::dense_fixed("I", 4));
        axes.add(Axis::sparse_variable("J", "I", 8, 10, "J_indptr", "J_indices"));
        let buf =
            SpBuffer { name: "A".into(), axes: vec!["I".into(), "J".into()], dtype: DType::F32 };
        (axes, buf)
    }

    #[test]
    fn csr_flattening_matches_figure10() {
        // A[i, j] → A[J_indptr[i] + j]
        let (axes, buf) = csr_axes_store();
        let i = Var::i32("i");
        let j = Var::i32("j");
        let flat = flatten_access(&axes, &buf, &[Expr::var(&i), Expr::var(&j)]).unwrap();
        let txt = print_expr(&flat);
        assert_eq!(txt, "(J_indptr[i] + j)");
        assert_eq!(flat_size(&axes, &buf).as_const_int(), Some(10));
    }

    #[test]
    fn dense_2d_flattening_is_row_major() {
        let mut axes = AxisStore::new();
        axes.add(Axis::dense_fixed("J_", 8));
        axes.add(Axis::dense_fixed("K", 3));
        let buf =
            SpBuffer { name: "B".into(), axes: vec!["J_".into(), "K".into()], dtype: DType::F32 };
        let j = Var::i32("j");
        let k = Var::i32("k");
        let flat = flatten_access(&axes, &buf, &[Expr::var(&j), Expr::var(&k)]).unwrap();
        assert_eq!(print_expr(&flat), "((j * 3) + k)");
        assert_eq!(flat_size(&axes, &buf).as_const_int(), Some(24));
    }

    #[test]
    fn bsr_flattening_matches_equation6() {
        // A_bsr axes (IO, JO, II, JI), block 2:
        // flat = (indptr[io] + jo)·4 + ii·2 + ji
        let mut axes = AxisStore::new();
        axes.add(Axis::dense_fixed("IO", 3));
        axes.add(Axis::sparse_variable("JO", "IO", 3, 5, "bsr_indptr", "bsr_indices"));
        axes.add(Axis::dense_fixed("II", 2));
        axes.add(Axis::dense_fixed("JI", 2));
        let buf = SpBuffer {
            name: "A_bsr".into(),
            axes: vec!["IO".into(), "JO".into(), "II".into(), "JI".into()],
            dtype: DType::F32,
        };
        let vars: Vec<Expr> =
            ["io", "jo", "ii", "ji"].iter().map(|n| Expr::var(&Var::i32(*n))).collect();
        let flat = flatten_access(&axes, &buf, &vars).unwrap();
        let txt = print_expr(&flat);
        assert!(txt.contains("bsr_indptr[io]"), "{txt}");
        assert!(txt.contains("* 4"), "{txt}");
        assert_eq!(flat_size(&axes, &buf).as_const_int(), Some(20)); // 5 blocks × 4
    }

    #[test]
    fn ell_flattening_uses_width_stride() {
        let mut axes = AxisStore::new();
        axes.add(Axis::dense_fixed("I2", 6));
        let mut jb = Axis::sparse_fixed("J2", "I2", 8, 2, "ell_indices");
        jb.nnz = Expr::i32(12);
        axes.add(jb);
        let buf = SpBuffer {
            name: "A_ell".into(),
            axes: vec!["I2".into(), "J2".into()],
            dtype: DType::F32,
        };
        let i = Var::i32("i");
        let j = Var::i32("j");
        let flat = flatten_access(&axes, &buf, &[Expr::var(&i), Expr::var(&j)]).unwrap();
        assert_eq!(print_expr(&flat), "((i * 2) + j)");
        assert_eq!(flat_size(&axes, &buf).as_const_int(), Some(12));
    }

    #[test]
    fn stage3_spmm_has_only_flat_buffers() {
        let p = spmm_program(4, 5, 7, 3);
        let f = lower(&p).unwrap();
        for b in &f.buffers {
            assert_eq!(b.ndim(), 1, "buffer {} not flat", b.name);
        }
        let txt = print_func(&f);
        // A accessed at flat position indptr[row] + local (Figure 10); the
        // row index is the block variable bound to the I coordinate.
        assert!(txt.contains("A[(J_indptr[v_i] + j)]"), "{txt}");
        // B indexed by the J *coordinate* (block var bound to the indices
        // load) times the feature stride.
        assert!(txt.contains("B[((v_j * 3) + v_k)]"), "{txt}");
        assert!(txt.contains("J_indices[(J_indptr[i] + j)]"), "{txt}");
    }

    #[test]
    fn aux_names_are_collected() {
        let p = spmm_program(4, 5, 7, 3);
        let names = aux_buffer_names(&p);
        let as_str: Vec<&str> = names.iter().map(|n| &**n).collect();
        assert_eq!(as_str, vec!["J_indptr", "J_indices"]);
    }
}
