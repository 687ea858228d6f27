//! Sparse iteration lowering — Stage I → Stage II (§3.3.1).
//!
//! Implements the paper's four steps:
//! 1. **Auxiliary buffer materialization** — `indptr`/`indices` handles
//!    become explicit flat `int32` buffers, with value-domain hints.
//! 2. **Nested loop generation** — one loop per axis (or per fused group),
//!    loops normalized to start at 0 (Figure 8/9), separated by blocks.
//! 3. **Coordinate translation** — buffer accesses move from coordinate
//!    space to position space via the decompress/compress functions of
//!    eqs. 1–5; the compress `f⁻¹` fast-path reuses the loop position when
//!    the index expression *is* the matching iterator, and otherwise emits
//!    a `binary_search` over the sorted indices segment (eq. 4's `find`).
//! 4. **Read/write region analysis** — point regions of every access are
//!    attached to the generated block.
//!
//! One deviation from Figure 5's presentation: when a program contains
//! multiple accumulating iterations over the same output (the result of
//! format decomposition), `init` clauses are hoisted into a dedicated
//! zero-fill iteration by [`crate::rewrite::decompose_format`] rather than
//! replicated per format — replicating them would re-zero the output
//! between partial kernels. This matches what the released SparseTIR
//! artifact does with a separate memset before the fused kernels.

use crate::axis::{AxisKind, AxisStore};
use crate::stage1::{SpIter, SpProgram, SpStore};
use sparsetir_ir::prelude::*;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// Error raised during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    message: String,
}

impl LowerError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        LowerError { message: message.into() }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

/// Value-domain hint for an auxiliary buffer (`assume_buffer_domain`),
/// recorded for integer-set analysis during Stage II scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferDomain {
    /// Auxiliary buffer name.
    pub buffer: String,
    /// Inclusive lower bound of stored values.
    pub lo: i64,
    /// Inclusive upper bound of stored values: an `indptr`'s is its axis's
    /// `nnz`, a scalar parameter when that is one.
    pub hi: Expr,
}

/// Result of Stage I → Stage II lowering.
#[derive(Debug, Clone)]
pub struct Stage2Func {
    /// The position-space function (multi-dimensional sparse buffer
    /// accesses; interpretable only after Stage III flattening).
    pub func: PrimFunc,
    /// Domain hints from auxiliary buffer materialization.
    pub domains: Vec<BufferDomain>,
}

/// Per-axis lowering state within one iteration.
struct AxisState {
    /// Loop variable holding the *local* position (within parent row).
    local: Expr,
    /// Flat position into the axis' position space.
    flat: Expr,
    /// Coordinate expression.
    coord: Expr,
}

/// Lower every sparse iteration of `program` to a single Stage II function.
///
/// # Errors
/// Fails when an iterated variable axis' parent is not itself iterated
/// earlier, or on unsupported fusion group shapes.
pub fn lower_to_stage2(program: &SpProgram) -> Result<Stage2Func, LowerError> {
    let mut used_names: HashSet<String> = HashSet::new();
    let mut domains = Vec::new();
    let mut aux: Vec<Buffer> = Vec::new();
    let mut aux_seen: HashSet<String> = HashSet::new();

    // Step 1: auxiliary buffer materialization.
    for axis in program.axes.all() {
        if let Some(indptr) = &axis.indptr {
            if aux_seen.insert(indptr.to_string()) {
                aux.push(indptr_buf(&program.axes, &axis.name));
                domains.push(BufferDomain {
                    buffer: indptr.to_string(),
                    lo: 0,
                    hi: axis.nnz.clone(),
                });
            }
        }
        if let Some(indices) = &axis.indices {
            if aux_seen.insert(indices.to_string()) {
                aux.push(indices_buf(&program.axes, &axis.name));
                domains.push(BufferDomain {
                    buffer: indices.to_string(),
                    lo: 0,
                    hi: Expr::i32(axis.length as i64 - 1),
                });
            }
        }
    }

    let mut body = Stmt::nop();
    for it in &program.iterations {
        let stmt = lower_iteration(program, it, &mut used_names)?;
        body = body.then(stmt);
    }

    let mut buffers: Vec<Buffer> =
        program.buffers.iter().map(|b| b.coord_buffer(&program.axes)).collect();
    buffers.extend(program.extras.iter().cloned());
    buffers.extend(aux);
    let params = program.axes.params();
    Ok(Stage2Func { func: PrimFunc::new(program.name.clone(), params, buffers, body), domains })
}

fn fresh(used: &mut HashSet<String>, base: &str) -> String {
    if used.insert(base.to_string()) {
        return base.to_string();
    }
    for i in 0.. {
        let cand = format!("{base}_{i}");
        if used.insert(cand.clone()) {
            return cand;
        }
    }
    unreachable!()
}

fn indptr_buf(axes: &AxisStore, axis: &str) -> Buffer {
    let a = axes.get(axis).expect("axis registered");
    let parent_pos = a.parent.as_ref().map_or(Expr::i32(1), |p| axes.positions(p));
    Buffer::global_i32(
        a.indptr.clone().expect("variable axis has indptr"),
        vec![(parent_pos + 1).simplify()],
    )
}

fn indices_buf(axes: &AxisStore, axis: &str) -> Buffer {
    let a = axes.get(axis).expect("axis registered");
    Buffer::global_i32(
        a.indices.clone().expect("sparse axis has indices"),
        vec![axes.positions(axis)],
    )
}

/// Lower one sparse iteration: loop generation + coordinate translation +
/// region analysis, producing loops around a single block.
fn lower_iteration(
    program: &SpProgram,
    it: &SpIter,
    used: &mut HashSet<String>,
) -> Result<Stmt, LowerError> {
    let axes = &program.axes;
    // Loop structure description, built group by group (outer → inner).
    enum LoopDesc {
        Plain {
            var: Var,
            extent: Expr,
        },
        /// Fused [parent, variable child]: loop over total nnz with
        /// binary-search row recovery.
        FusedNnz {
            var: Var,
            extent: Expr,
            row: Var,
            local: Var,
            child: Rc<str>,
        },
    }
    let mut loops: Vec<LoopDesc> = Vec::new();
    let mut state: HashMap<Rc<str>, AxisState> = HashMap::new();

    for group in &it.fuse_groups {
        if group.len() == 1 {
            let idx = group[0];
            let axis_name = &it.axes[idx];
            let axis = axes
                .get(axis_name)
                .ok_or_else(|| LowerError::new(format!("axis `{axis_name}` not registered")))?;
            let lv = Var::i32(fresh(used, &axis_name.to_lowercase()));
            let local = Expr::var(&lv);
            let (extent, flat, coord) = match axis.kind {
                AxisKind::DenseFixed => {
                    let flat = match &axis.parent {
                        Some(p) => match state.get(p.as_ref()) {
                            Some(ps) => {
                                (ps.flat.clone() * axis.length as i64 + local.clone()).simplify()
                            }
                            None => local.clone(),
                        },
                        None => local.clone(),
                    };
                    (Expr::i32(axis.length as i64), flat, local.clone())
                }
                AxisKind::SparseFixed => {
                    let w = axis.nnz_cols.unwrap_or(0) as i64;
                    let parent = axis.parent.as_ref().expect("sparse_fixed has parent");
                    let ps = state.get(parent.as_ref()).ok_or_else(|| {
                        LowerError::new(format!(
                            "axis `{axis_name}` iterated before its parent `{parent}`"
                        ))
                    })?;
                    let flat = (ps.flat.clone() * w + local.clone()).simplify();
                    let coord = indices_buf(axes, axis_name).load(vec![flat.clone()]);
                    (Expr::i32(w), flat, coord)
                }
                AxisKind::DenseVariable | AxisKind::SparseVariable => {
                    let parent = axis.parent.as_ref().expect("variable axis has parent");
                    let ps = state.get(parent.as_ref()).ok_or_else(|| {
                        LowerError::new(format!(
                            "axis `{axis_name}` iterated before its parent `{parent}`"
                        ))
                    })?;
                    let ip = indptr_buf(axes, axis_name);
                    let start = ip.load(vec![ps.flat.clone()]);
                    let stop = ip.load(vec![(ps.flat.clone() + 1).simplify()]);
                    let extent = stop - start.clone();
                    let flat = (start + local.clone()).simplify();
                    let coord = if axis.kind == AxisKind::SparseVariable {
                        indices_buf(axes, axis_name).load(vec![flat.clone()])
                    } else {
                        local.clone()
                    };
                    (extent, flat, coord)
                }
            };
            loops.push(LoopDesc::Plain { var: lv, extent });
            state.insert(axis_name.clone(), AxisState { local, flat, coord });
        } else if group.len() == 2 {
            // Fused [parent, variable child] (the sparse_fuse of SDDMM) or
            // a dense-fixed pair.
            let pa = &it.axes[group[0]];
            let ca = &it.axes[group[1]];
            let parent = axes
                .get(pa)
                .ok_or_else(|| LowerError::new(format!("axis `{pa}` not registered")))?;
            let child = axes
                .get(ca)
                .ok_or_else(|| LowerError::new(format!("axis `{ca}` not registered")))?;
            if child.kind.is_variable() && child.parent.as_deref() == Some(&**pa) {
                let f =
                    Var::i32(fresh(used, &format!("{}{}", pa.to_lowercase(), ca.to_lowercase())));
                let row = Var::i32(fresh(used, &format!("{}_row", pa.to_lowercase())));
                let local = Var::i32(fresh(used, &format!("{}_loc", ca.to_lowercase())));
                let extent = child.nnz.clone();
                let coord_p = Expr::var(&row);
                let coord_c = if child.kind.is_sparse() {
                    indices_buf(axes, ca).load(vec![Expr::var(&f)])
                } else {
                    Expr::var(&local)
                };
                state.insert(
                    pa.clone(),
                    AxisState { local: Expr::var(&row), flat: Expr::var(&row), coord: coord_p },
                );
                state.insert(
                    ca.clone(),
                    AxisState { local: Expr::var(&local), flat: Expr::var(&f), coord: coord_c },
                );
                loops.push(LoopDesc::FusedNnz { var: f, extent, row, local, child: ca.clone() });
            } else if parent.kind == AxisKind::DenseFixed && child.kind == AxisKind::DenseFixed {
                let f =
                    Var::i32(fresh(used, &format!("{}{}", pa.to_lowercase(), ca.to_lowercase())));
                let pl = child.length as i64;
                let pv = (Expr::var(&f) / pl).simplify();
                let cv = (Expr::var(&f) % pl).simplify();
                state.insert(
                    pa.clone(),
                    AxisState { local: pv.clone(), flat: pv.clone(), coord: pv },
                );
                state.insert(
                    ca.clone(),
                    AxisState { local: cv.clone(), flat: cv.clone(), coord: cv },
                );
                loops
                    .push(LoopDesc::Plain { var: f, extent: Expr::i32(parent.length as i64 * pl) });
            } else {
                return Err(LowerError::new(format!("unsupported fusion group [{pa}, {ca}]")));
            }
        } else {
            return Err(LowerError::new("fusion groups of >2 axes are not supported"));
        }
    }

    // Step 3: coordinate translation of the body.
    let translate_store = |st: &SpStore| -> Result<Stmt, LowerError> {
        let value = translate_expr(program, it, &state, &st.value)?;
        let buf = program
            .buffer(&st.buffer)
            .ok_or_else(|| LowerError::new(format!("unknown buffer `{}`", st.buffer)))?;
        let indices = translate_indices(program, it, &state, buf, &st.indices)?;
        Ok(Stmt::BufferStore { buffer: buf.coord_buffer(axes), indices, value })
    };
    let mut body_stmt = Stmt::nop();
    for st in &it.body {
        body_stmt = body_stmt.then(translate_store(st)?);
    }
    let init_stmt = if it.init.is_empty() {
        None
    } else {
        let mut s = Stmt::nop();
        for st in &it.init {
            s = s.then(translate_store(st)?);
        }
        Some(Box::new(s))
    };

    // Block iterator variables: stage I vars bound to coordinates (for the
    // body) plus, per reduction axis, a position-bound reduce var driving
    // the init predicate.
    let mut iter_vars: Vec<IterVar> = Vec::new();
    for (i, axis_name) in it.axes.iter().enumerate() {
        let st = &state[axis_name];
        iter_vars.push(IterVar {
            var: it.vars[i].clone(),
            kind: IterKind::Spatial,
            binding: st.coord.clone(),
        });
        if it.kinds[i] == IterKind::Reduce {
            iter_vars.push(IterVar {
                var: Var::i32(format!("{}_pos", it.vars[i].name)),
                kind: IterKind::Reduce,
                binding: st.local.clone(),
            });
        }
    }

    // Step 4: read/write region analysis.
    let mut reads: Vec<BufferRegion> = Vec::new();
    let mut writes: Vec<BufferRegion> = Vec::new();
    let collect_stmt = |s: &Stmt, reads: &mut Vec<BufferRegion>, writes: &mut Vec<BufferRegion>| {
        s.walk(&mut |st| {
            if let Stmt::BufferStore { buffer, indices, value } = st {
                writes.push(BufferRegion::point(buffer, indices));
                let mut add_reads = |e: &Expr| {
                    collect_load_regions(e, reads);
                };
                add_reads(value);
                for i in indices {
                    collect_load_regions(i, reads);
                }
            }
        });
    };
    collect_stmt(&body_stmt, &mut reads, &mut writes);

    let block = Stmt::Block(Block {
        name: it.name.clone(),
        iter_vars,
        reads,
        writes,
        init: init_stmt,
        body: Box::new(body_stmt),
    });

    // Step 2 (finish): wrap the block in the generated loops, inner → outer,
    // emitting one boundary block per loop level as in Figure 8.
    let mut stmt = block;
    for (level, desc) in loops.iter().enumerate().rev() {
        match desc {
            LoopDesc::Plain { var, extent } => {
                stmt = Stmt::For {
                    var: var.clone(),
                    extent: extent.clone(),
                    kind: ForKind::Serial,
                    body: Box::new(stmt),
                };
            }
            LoopDesc::FusedNnz { var, extent, row, local, child } => {
                let ip = indptr_buf(&program.axes, child);
                let parent_axis = program
                    .axes
                    .get(child)
                    .and_then(|a| a.parent.clone())
                    .expect("fused child has parent");
                let plen = program.axes.positions(&parent_axis);
                // row = upper_bound(indptr, f) - 1 over indptr[0..plen+1].
                let search = Expr::Call {
                    intrin: Intrinsic::BinarySearch,
                    args: vec![
                        ip.load(vec![Expr::i32(0)]),
                        Expr::i32(0),
                        (plen.clone() + 1).simplify(),
                        Expr::var(var) + 1,
                    ],
                };
                let inner = Stmt::Let {
                    var: row.clone(),
                    value: (search - 1).simplify(),
                    body: Box::new(Stmt::Let {
                        var: local.clone(),
                        value: (Expr::var(var) - ip.load(vec![Expr::var(row)])).simplify(),
                        body: Box::new(stmt),
                    }),
                };
                stmt = Stmt::For {
                    var: var.clone(),
                    extent: extent.clone(),
                    kind: ForKind::Serial,
                    body: Box::new(inner),
                };
            }
        }
        // Boundary blocks between loop levels (Figure 8): wrap all levels
        // but the outermost in a nameless pass-through block.
        if level > 0 {
            stmt = Stmt::Block(Block {
                name: format!("{}_{}", it.name, level - 1).into(),
                iter_vars: vec![],
                reads: vec![],
                writes: vec![],
                init: None,
                body: Box::new(stmt),
            });
        }
    }
    Ok(stmt)
}

fn collect_load_regions(e: &Expr, out: &mut Vec<BufferRegion>) {
    match e {
        Expr::BufferLoad { buffer, indices } => {
            out.push(BufferRegion::point(buffer, indices));
            for i in indices {
                collect_load_regions(i, out);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            collect_load_regions(lhs, out);
            collect_load_regions(rhs, out);
        }
        Expr::Select { cond, then, otherwise } => {
            collect_load_regions(cond, out);
            collect_load_regions(then, out);
            collect_load_regions(otherwise, out);
        }
        Expr::Cast { value, .. } => collect_load_regions(value, out),
        Expr::Call { args, .. } => {
            for a in args {
                collect_load_regions(a, out);
            }
        }
        _ => {}
    }
}

/// Coordinate translation for the index list of one buffer access
/// (the iterative algorithm of eq. 1).
fn translate_indices(
    program: &SpProgram,
    it: &SpIter,
    state: &HashMap<Rc<str>, AxisState>,
    buf: &crate::stage1::SpBuffer,
    indices: &[Expr],
) -> Result<Vec<Expr>, LowerError> {
    if indices.len() != buf.axes.len() {
        return Err(LowerError::new(format!(
            "buffer `{}` accessed with {} indices, has {} axes",
            buf.name,
            indices.len(),
            buf.axes.len()
        )));
    }
    let axes = &program.axes;
    let mut out: Vec<Expr> = Vec::with_capacity(indices.len());
    for (j, (idx, axis_name)) in indices.iter().zip(&buf.axes).enumerate() {
        let axis = axes
            .get(axis_name)
            .ok_or_else(|| LowerError::new(format!("axis `{axis_name}` not registered")))?;
        if !axis.kind.is_sparse() {
            // Dense axis: coordinate == position; translate nested loads.
            out.push(translate_expr(program, it, state, idx)?);
            continue;
        }
        // Fast path (f⁻¹ short-circuit): the index is exactly the iterator
        // variable whose iteration axis is this buffer axis.
        let fast = match idx {
            Expr::Var(v) => it
                .axes
                .iter()
                .position(|a| it.var_of(a) == Some(v))
                .map(|pos| &it.axes[pos])
                .filter(|a| ***a == **axis_name),
            _ => None,
        };
        if fast.is_some() {
            out.push(state[axis_name].local.clone());
            continue;
        }
        // Slow path: binary search of the translated coordinate within the
        // parent row's sorted indices segment (eq. 4's `find`).
        let target = translate_expr(program, it, state, idx)?;
        let parent_flat = flatten_prefix(axes, &buf.axes[..j], &out)?;
        let (lo, hi) = match axis.kind {
            AxisKind::SparseFixed => {
                let w = axis.nnz_cols.unwrap_or(0) as i64;
                let lo = (parent_flat * w).simplify();
                let hi = (lo.clone() + w).simplify();
                (lo, hi)
            }
            AxisKind::SparseVariable => {
                let ip = indptr_buf(axes, axis_name);
                (ip.load(vec![parent_flat.clone()]), ip.load(vec![(parent_flat + 1).simplify()]))
            }
            _ => unreachable!("sparse kinds only"),
        };
        let search = Expr::Call {
            intrin: Intrinsic::BinarySearch,
            args: vec![indices_buf(axes, axis_name).load(vec![Expr::i32(0)]), lo, hi, target],
        };
        out.push(search);
    }
    Ok(out)
}

/// Flat position of the already-translated position prefix `q[..j]` of a
/// buffer's axes (the offset recursion of eq. 7, used to bound searches).
fn flatten_prefix(
    axes: &AxisStore,
    prefix_axes: &[Rc<str>],
    q: &[Expr],
) -> Result<Expr, LowerError> {
    let mut off = Expr::i32(0);
    for (axis_name, pos) in prefix_axes.iter().zip(q) {
        let axis = axes
            .get(axis_name)
            .ok_or_else(|| LowerError::new(format!("axis `{axis_name}` not registered")))?;
        off = match axis.kind {
            AxisKind::DenseFixed => (off * axis.length as i64 + pos.clone()).simplify(),
            AxisKind::SparseFixed => {
                (off * axis.nnz_cols.unwrap_or(0) as i64 + pos.clone()).simplify()
            }
            AxisKind::DenseVariable | AxisKind::SparseVariable => {
                let ip = indptr_buf(axes, axis_name);
                (ip.load(vec![off]) + pos.clone()).simplify()
            }
        };
    }
    Ok(off)
}

/// Translate an expression: rewrite sparse-buffer loads into position space
/// (recursively), leaving iterator variables intact (they are bound to
/// coordinates by the enclosing block).
fn translate_expr(
    program: &SpProgram,
    it: &SpIter,
    state: &HashMap<Rc<str>, AxisState>,
    e: &Expr,
) -> Result<Expr, LowerError> {
    Ok(match e {
        Expr::BufferLoad { buffer, indices } => {
            match program.buffer(&buffer.name) {
                Some(sb) => {
                    let idx = translate_indices(program, it, state, sb, indices)?;
                    Expr::BufferLoad { buffer: buffer.clone(), indices: idx }
                }
                None => {
                    // Non-sparse (auxiliary/external) buffer: translate
                    // nested index expressions only.
                    let idx = indices
                        .iter()
                        .map(|i| translate_expr(program, it, state, i))
                        .collect::<Result<_, _>>()?;
                    Expr::BufferLoad { buffer: buffer.clone(), indices: idx }
                }
            }
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(translate_expr(program, it, state, lhs)?),
            rhs: Box::new(translate_expr(program, it, state, rhs)?),
        },
        Expr::Select { cond, then, otherwise } => Expr::Select {
            cond: Box::new(translate_expr(program, it, state, cond)?),
            then: Box::new(translate_expr(program, it, state, then)?),
            otherwise: Box::new(translate_expr(program, it, state, otherwise)?),
        },
        Expr::Cast { dtype, value } => Expr::Cast {
            dtype: *dtype,
            value: Box::new(translate_expr(program, it, state, value)?),
        },
        Expr::Call { intrin, args } => Expr::Call {
            intrin: *intrin,
            args: args
                .iter()
                .map(|a| translate_expr(program, it, state, a))
                .collect::<Result<_, _>>()?,
        },
        _ => e.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule1::sparse_fuse;
    use crate::stage1::{sddmm_program, spmm_program};

    #[test]
    fn spmm_lowering_structure_matches_figure9() {
        let p = spmm_program(4, 5, 7, 3);
        let lowered = lower_to_stage2(&p).unwrap();
        let txt = print_func(&lowered.func);
        // Outer dense loop over I, variable extent from indptr, dense K.
        assert!(txt.contains("for i in range(4):"), "{txt}");
        assert!(txt.contains("(J_indptr[(i + 1)] - J_indptr[i])"), "{txt}");
        assert!(txt.contains("for k in range(3):"), "{txt}");
        // Coordinate of J materialized through indices.
        assert!(txt.contains("J_indices[(J_indptr[i] + j)]"), "{txt}");
        // Block named after the iteration.
        assert!(txt.contains("block(\"spmm\")"), "{txt}");
    }

    #[test]
    fn aux_materialization_creates_buffers_and_domains() {
        let p = spmm_program(4, 5, 7, 3);
        let lowered = lower_to_stage2(&p).unwrap();
        let f = &lowered.func;
        let ip = f.buffer("J_indptr").expect("indptr materialized");
        assert_eq!(ip.shape[0].as_const_int(), Some(5)); // rows + 1
        let ix = f.buffer("J_indices").expect("indices materialized");
        assert_eq!(ix.shape[0].as_const_int(), Some(7)); // nnz
        assert!(lowered
            .domains
            .iter()
            .any(|d| d.buffer == "J_indptr" && d.hi.as_const_int() == Some(7)));
        assert!(lowered
            .domains
            .iter()
            .any(|d| d.buffer == "J_indices" && d.hi.as_const_int() == Some(4)));
    }

    #[test]
    fn fast_path_avoids_binary_search_in_spmm() {
        let p = spmm_program(4, 5, 7, 3);
        let lowered = lower_to_stage2(&p).unwrap();
        let txt = print_func(&lowered.func);
        assert!(!txt.contains("binary_search"), "{txt}");
    }

    #[test]
    fn fused_sddmm_emits_single_nnz_loop_with_search() {
        let mut p = sddmm_program(4, 5, 7, 3);
        sparse_fuse(&mut p, "sddmm", &["I", "J"]).unwrap();
        let lowered = lower_to_stage2(&p).unwrap();
        let txt = print_func(&lowered.func);
        // One loop over nnz (Figure 8 bottom).
        assert!(txt.contains("for ij in range(7):"), "{txt}");
        // Row recovered by binary search over indptr.
        assert!(txt.contains("binary_search(J_indptr"), "{txt}");
    }

    #[test]
    fn init_predicate_uses_reduction_position() {
        let p = spmm_program(4, 5, 7, 3);
        let lowered = lower_to_stage2(&p).unwrap();
        let blk = lowered.func.body.find_block("spmm").expect("block exists");
        let reduce_vars: Vec<_> =
            blk.iter_vars.iter().filter(|iv| iv.kind == IterKind::Reduce).collect();
        assert_eq!(reduce_vars.len(), 1);
        // The reduce var must bind to the *position* (plain loop var), not
        // the coordinate (an indices load).
        assert!(matches!(reduce_vars[0].binding, Expr::Var(_)));
        assert!(blk.init.is_some());
    }

    #[test]
    fn region_analysis_collects_reads_and_writes() {
        let p = spmm_program(4, 5, 7, 3);
        let lowered = lower_to_stage2(&p).unwrap();
        let blk = lowered.func.body.find_block("spmm").unwrap();
        assert!(blk.writes.iter().any(|r| &*r.buffer.name == "C"));
        assert!(blk.reads.iter().any(|r| &*r.buffer.name == "A"));
        assert!(blk.reads.iter().any(|r| &*r.buffer.name == "B"));
    }

    #[test]
    fn iterating_child_before_parent_errors() {
        use crate::stage1::ProgramBuilder;
        let mut b = ProgramBuilder::new("bad");
        b.dense_fixed("I", 4);
        b.sparse_variable("J", "I", 4, 4, "ip", "ix");
        b.sparse_buffer("A", &["I", "J"], DType::F32);
        b.sp_iter("it", &["J"], "S", |_| (vec![], vec![]));
        let p = b.finish();
        assert!(lower_to_stage2(&p).is_err());
    }
}
