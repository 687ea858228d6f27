//! Format decomposition (§3.2.1 and Appendix A): `FormatRewriteRule` +
//! `decompose_format`, the Stage I transformation behind composable
//! formats.
//!
//! Each rule `F: (x, i) → (x′, i′)` rewrites one sparse buffer into a new
//! format: new axes and a new buffer are registered, each computation
//! iteration touching the buffer is cloned per rule with its coordinates
//! remapped through the rule's inverse index map, and a data-copy iteration
//! is generated per rule (Figure 5). The index-array conversion `i → i′`
//! is performed at pre-processing time by `sparsetir-smat` constructors
//! (the paper's SciPy-based indices inference); the generated copy
//! iterations document the IR-level transformation and can be stripped with
//! [`SpProgram::strip_copies`] before execution.
//!
//! When the original iteration carried an `init` clause and more than one
//! rule applies, the init is hoisted into a dedicated zero-fill iteration
//! so the per-format partial kernels accumulate instead of re-zeroing the
//! output (what the released artifact does with a memset before launching
//! the fused kernels).

use crate::axis::Axis;
use crate::stage1::{SpIter, SpProgram, SpStore};
use sparsetir_ir::prelude::*;
use std::fmt;
use std::rc::Rc;

/// Error raised by format decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteError {
    message: String,
}

impl RewriteError {
    fn new(message: impl Into<String>) -> Self {
        RewriteError { message: message.into() }
    }
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "format rewrite error: {}", self.message)
    }
}

impl std::error::Error for RewriteError {}

/// Inverse index map: new-format iterator variables → original coordinate
/// expressions (the `f⁻¹` of Appendix A, generalized to arbitrary `Expr`s
/// so gather indirections like `rows[ib]` are expressible).
pub type InvIndexMap = Rc<dyn Fn(&[Expr]) -> Vec<Expr>>;

/// A format rewriting rule for one sparse buffer.
#[derive(Clone)]
pub struct FormatRewriteRule {
    /// Rule name; suffixes generated iterations and the new buffer.
    pub name: String,
    /// Name of the buffer to rewrite (e.g. `"A"`).
    pub buffer: Rc<str>,
    /// New axes to register (the SparseTIR description of the new format).
    pub new_axes: Vec<Axis>,
    /// Axis order of the new buffer (e.g. `[IO, JO, II, JI]`).
    pub buffer_axes: Vec<Rc<str>>,
    /// Iteration order of the new axes when replacing the original buffer's
    /// axes inside computations (e.g. `[IO, II, JO, JI]`).
    pub iter_axes: Vec<Rc<str>>,
    /// For each entry of `iter_axes`: index into the original buffer's axis
    /// list it derives from (S/R kinds are inherited through this map).
    pub derives_from: Vec<usize>,
    /// New iterator variables → original coordinates.
    pub inv_index_map: InvIndexMap,
    /// Plain auxiliary buffers the rule introduces (e.g. row-id arrays).
    pub extras: Vec<Buffer>,
}

impl fmt::Debug for FormatRewriteRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FormatRewriteRule")
            .field("name", &self.name)
            .field("buffer", &self.buffer)
            .field("buffer_axes", &self.buffer_axes)
            .field("iter_axes", &self.iter_axes)
            .finish_non_exhaustive()
    }
}

impl FormatRewriteRule {
    /// New buffer name: `<buffer>_<rule>`.
    #[must_use]
    pub fn new_buffer_name(&self) -> String {
        format!("{}_{}", self.buffer, self.name)
    }

    /// BSR(`block`) rule for a 2-D buffer (paper Appendix A's `BSR`).
    ///
    /// `block_rows`/`block_cols`/`nnz_blocks` describe the concrete
    /// pre-computed block structure (the `i′` of the rule).
    #[must_use]
    pub fn bsr(
        buffer: &str,
        block: usize,
        block_rows: usize,
        block_cols: usize,
        nnz_blocks: usize,
    ) -> FormatRewriteRule {
        let name = format!("bsr_{block}");
        let io: Rc<str> = format!("IO_{name}").into();
        let jo: Rc<str> = format!("JO_{name}").into();
        let ii: Rc<str> = format!("II_{name}").into();
        let ji: Rc<str> = format!("JI_{name}").into();
        let indptr = format!("{name}_indptr");
        let indices = format!("{name}_indices");
        let new_axes = vec![
            Axis::dense_fixed(io.clone(), block_rows),
            Axis::sparse_variable(jo.clone(), io.clone(), block_cols, nnz_blocks, indptr, indices),
            Axis::dense_fixed(ii.clone(), block),
            Axis::dense_fixed(ji.clone(), block),
        ];
        let b = block as i64;
        FormatRewriteRule {
            name,
            buffer: buffer.into(),
            new_axes,
            buffer_axes: vec![io.clone(), jo.clone(), ii.clone(), ji.clone()],
            iter_axes: vec![io, ii, jo, ji],
            derives_from: vec![0, 0, 1, 1],
            inv_index_map: Rc::new(move |vars: &[Expr]| {
                // vars = [io, ii, jo, ji] (iteration order).
                vec![
                    (vars[0].clone() * b + vars[1].clone()).simplify(),
                    (vars[2].clone() * b + vars[3].clone()).simplify(),
                ]
            }),
            extras: vec![],
        }
    }

    /// ELL(`width`) rule for a 2-D buffer (Appendix A's `ELL`).
    #[must_use]
    pub fn ell(buffer: &str, width: usize, rows: usize, cols: usize) -> FormatRewriteRule {
        let name = format!("ell_{width}");
        let i2: Rc<str> = format!("I2_{name}").into();
        let j2: Rc<str> = format!("J2_{name}").into();
        let indices = format!("{name}_indices");
        let mut j_axis = Axis::sparse_fixed(j2.clone(), i2.clone(), cols, width, indices);
        j_axis.nnz = Expr::from(rows * width);
        let new_axes = vec![Axis::dense_fixed(i2.clone(), rows), j_axis];
        FormatRewriteRule {
            name,
            buffer: buffer.into(),
            new_axes,
            buffer_axes: vec![i2.clone(), j2.clone()],
            iter_axes: vec![i2, j2],
            derives_from: vec![0, 1],
            inv_index_map: Rc::new(|vars: &[Expr]| vec![vars[0].clone(), vars[1].clone()]),
            extras: vec![],
        }
    }

    /// Bucketed ELL rule with row-id indirection — one bucket of the
    /// paper's `hyb(c, k)` format (Figure 11). `bucket_rows` ELL rows of
    /// fixed `width`, mapping to original rows through the `rows_buf`
    /// gather array.
    #[must_use]
    pub fn bucket_ell(
        buffer: &str,
        tag: &str,
        width: usize,
        bucket_rows: usize,
        cols: usize,
    ) -> FormatRewriteRule {
        let name = format!("hyb_{tag}");
        let ib: Rc<str> = format!("IB_{name}").into();
        let jb: Rc<str> = format!("JB_{name}").into();
        let indices = format!("{name}_indices");
        let rows_name = format!("{name}_rows");
        let rows_buf = Buffer::global_i32(rows_name, vec![Expr::i32(bucket_rows as i64)]);
        let mut j_axis = Axis::sparse_fixed(jb.clone(), ib.clone(), cols, width, indices);
        j_axis.nnz = Expr::from(bucket_rows * width);
        let new_axes = vec![Axis::dense_fixed(ib.clone(), bucket_rows), j_axis];
        let rows_for_map = rows_buf.clone();
        FormatRewriteRule {
            name,
            buffer: buffer.into(),
            new_axes,
            buffer_axes: vec![ib.clone(), jb.clone()],
            iter_axes: vec![ib, jb],
            derives_from: vec![0, 1],
            inv_index_map: Rc::new(move |vars: &[Expr]| {
                vec![rows_for_map.load(vec![vars[0].clone()]), vars[1].clone()]
            }),
            extras: vec![rows_buf],
        }
    }
}

/// Apply `decompose_format`: rewrite every computation iteration that
/// touches each rule's buffer into per-rule iterations (plus copy
/// iterations), registering new axes and buffers (§3.2.1, Figure 5).
///
/// # Errors
/// Fails when a rule's buffer is missing, or an affected iteration does
/// not iterate the buffer's axes directly (the supported pattern).
pub fn decompose_format(
    program: &SpProgram,
    rules: &[FormatRewriteRule],
) -> Result<SpProgram, RewriteError> {
    let mut out = program.clone();
    let mut fresh_var = 0usize;
    // Register all rules' axes, extras and new buffers up front so every
    // rule decomposes the *original* iterations.
    for rule in rules {
        let orig_buf = out
            .buffer(&rule.buffer)
            .cloned()
            .ok_or_else(|| RewriteError::new(format!("buffer `{}` not found", rule.buffer)))?;
        for axis in &rule.new_axes {
            out.axes.add(axis.clone());
        }
        for extra in &rule.extras {
            if !out.extras.iter().any(|b| b.name == extra.name) {
                out.extras.push(extra.clone());
            }
        }
        let new_buf = crate::stage1::SpBuffer {
            name: rule.new_buffer_name().into(),
            axes: rule.buffer_axes.clone(),
            dtype: orig_buf.dtype,
        };
        if out.buffer(&new_buf.name).is_none() {
            out.buffers.push(new_buf);
        }
    }

    let mut new_iters: Vec<SpIter> = Vec::new();
    // Copy iterations first (Figure 5 places them before the computes).
    for rule in rules {
        let orig_buf = out.buffer(&rule.buffer).cloned().expect("registered above");
        let copy_vars: Vec<Var> = rule
            .iter_axes
            .iter()
            .map(|a| {
                fresh_var += 1;
                Var::i32(format!("c_{}_{}", a.to_lowercase(), fresh_var))
            })
            .collect();
        let copy_exprs: Vec<Expr> = copy_vars.iter().map(Expr::var).collect();
        let coords = (rule.inv_index_map)(&copy_exprs);
        let buffer_coords: Vec<Expr> = rule
            .buffer_axes
            .iter()
            .map(|a| {
                let pos = rule.iter_axes.iter().position(|x| x == a).expect("axis in iter");
                copy_exprs[pos].clone()
            })
            .collect();
        new_iters.push(SpIter {
            name: format!("copy_{}", rule.name).into(),
            axes: rule.iter_axes.clone(),
            kinds: vec![IterKind::Spatial; rule.iter_axes.len()],
            vars: copy_vars,
            fuse_groups: (0..rule.iter_axes.len()).map(|i| vec![i]).collect(),
            init: Vec::new(),
            body: vec![SpStore {
                buffer: rule.new_buffer_name().into(),
                indices: buffer_coords,
                value: orig_buf.load(&out.axes, coords),
            }],
        });
    }

    for it in &program.iterations {
        let touching: Vec<&FormatRewriteRule> =
            rules.iter().filter(|r| iteration_touches(it, &r.buffer)).collect();
        if touching.is_empty() {
            new_iters.push(it.clone());
            continue;
        }
        let distinct_buffers: std::collections::HashSet<&str> =
            touching.iter().map(|r| &*r.buffer).collect();
        if distinct_buffers.len() > 1 {
            return Err(RewriteError::new(format!(
                "iteration `{}` touches multiple rewritten buffers; decompose them separately",
                it.name
            )));
        }
        // Hoisted zero-fill iteration for the original init.
        if !it.init.is_empty() {
            let spatial: Vec<usize> = it
                .kinds
                .iter()
                .enumerate()
                .filter(|(_, k)| **k == IterKind::Spatial)
                .map(|(i, _)| i)
                .collect();
            new_iters.push(SpIter {
                name: format!("init_{}", it.name).into(),
                axes: spatial.iter().map(|&i| it.axes[i].clone()).collect(),
                kinds: vec![IterKind::Spatial; spatial.len()],
                vars: spatial.iter().map(|&i| it.vars[i].clone()).collect(),
                fuse_groups: (0..spatial.len()).map(|i| vec![i]).collect(),
                init: Vec::new(),
                body: it.init.clone(),
            });
        }
        for rule in &touching {
            let orig_buf = out.buffer(&rule.buffer).cloned().expect("registered above");
            let new_buf = out.buffer(&rule.new_buffer_name()).cloned().expect("registered above");
            // Positions of the original buffer's axes within the iteration.
            let axis_positions: Vec<usize> = orig_buf
                .axes
                .iter()
                .map(|a| {
                    it.axes.iter().position(|x| x == a).ok_or_else(|| {
                        RewriteError::new(format!(
                            "iteration `{}` does not iterate axis `{a}` of buffer `{}`",
                            it.name, rule.buffer
                        ))
                    })
                })
                .collect::<Result<_, _>>()?;

            // Fresh iteration variables for the new axes.
            let new_vars: Vec<Var> = rule
                .iter_axes
                .iter()
                .map(|a| {
                    fresh_var += 1;
                    Var::i32(format!("v_{}_{}", a.to_lowercase(), fresh_var))
                })
                .collect();
            let new_var_exprs: Vec<Expr> = new_vars.iter().map(Expr::var).collect();
            let orig_coords = (rule.inv_index_map)(&new_var_exprs);
            if orig_coords.len() != orig_buf.axes.len() {
                return Err(RewriteError::new(format!(
                    "rule `{}` inverse map returned {} coords for {}-D buffer",
                    rule.name,
                    orig_coords.len(),
                    orig_buf.axes.len()
                )));
            }

            // Build the replacement axis/kind/var lists: new axes inserted
            // at the first original axis position, originals removed.
            let insert_at = *axis_positions.iter().min().expect("nonempty");
            let mut axes2: Vec<Rc<str>> = Vec::new();
            let mut kinds2: Vec<IterKind> = Vec::new();
            let mut vars2: Vec<Var> = Vec::new();
            for (pos, axis) in it.axes.iter().enumerate() {
                if pos == insert_at {
                    for (na, &derive) in rule.iter_axes.iter().zip(&rule.derives_from) {
                        axes2.push(na.clone());
                        kinds2.push(it.kinds[axis_positions[derive]]);
                        vars2.push(
                            new_vars[rule.iter_axes.iter().position(|x| x == na).unwrap()].clone(),
                        );
                    }
                }
                if !axis_positions.contains(&pos) {
                    axes2.push(axis.clone());
                    kinds2.push(it.kinds[pos]);
                    vars2.push(it.vars[pos].clone());
                }
            }

            // Rewrite stores: replace exact accesses to the buffer, then
            // substitute remaining original iterator variables.
            let orig_vars: Vec<Var> = axis_positions.iter().map(|&p| it.vars[p].clone()).collect();
            let rewrite_store = |st: &SpStore| -> SpStore {
                let buffer_coords: Vec<Expr> = rule
                    .buffer_axes
                    .iter()
                    .map(|a| {
                        let pos = rule.iter_axes.iter().position(|x| x == a).expect("axis in iter");
                        new_var_exprs[pos].clone()
                    })
                    .collect();
                let mut st2 = rewrite_buffer_access(
                    st,
                    &rule.buffer,
                    &orig_vars,
                    &new_buf.name,
                    &buffer_coords,
                );
                for (ov, coord) in orig_vars.iter().zip(&orig_coords) {
                    st2 = substitute_store(&st2, ov, coord);
                }
                st2
            };

            let compute = SpIter {
                name: format!("{}_{}", it.name, rule.name).into(),
                axes: axes2,
                kinds: kinds2,
                vars: vars2,
                fuse_groups: (0..it.axes.len() - axis_positions.len() + rule.iter_axes.len())
                    .map(|i| vec![i])
                    .collect(),
                init: Vec::new(), // hoisted into the zero-fill iteration
                body: it.body.iter().map(rewrite_store).collect(),
            };
            new_iters.push(compute);
        }
    }
    out.iterations = new_iters;
    Ok(out)
}

impl SpProgram {
    /// Remove generated `copy_*` iterations: data conversion is performed
    /// by `sparsetir-smat` at pre-processing time (§3.2.1: "we can perform
    /// data copying at pre-processing step").
    #[must_use]
    pub fn strip_copies(&self) -> SpProgram {
        let mut p = self.clone();
        p.iterations.retain(|it| !it.name.starts_with("copy_"));
        p
    }
}

fn iteration_touches(it: &SpIter, buffer: &str) -> bool {
    let touches_store = |st: &SpStore| {
        if &*st.buffer == buffer {
            return true;
        }
        let mut found = false;
        let mut check = |e: &Expr| find_buffer_use(e, buffer, &mut found);
        check(&st.value);
        for i in &st.indices {
            check(i);
        }
        found
    };
    it.body.iter().any(touches_store) || it.init.iter().any(touches_store)
}

fn find_buffer_use(e: &Expr, buffer: &str, found: &mut bool) {
    match e {
        Expr::BufferLoad { buffer: b, indices } => {
            if &*b.name == buffer {
                *found = true;
            }
            for i in indices {
                find_buffer_use(i, buffer, found);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            find_buffer_use(lhs, buffer, found);
            find_buffer_use(rhs, buffer, found);
        }
        Expr::Select { cond, then, otherwise } => {
            find_buffer_use(cond, buffer, found);
            find_buffer_use(then, buffer, found);
            find_buffer_use(otherwise, buffer, found);
        }
        Expr::Cast { value, .. } => find_buffer_use(value, buffer, found),
        Expr::Call { args, .. } => {
            for a in args {
                find_buffer_use(a, buffer, found);
            }
        }
        _ => {}
    }
}

/// Replace accesses `buffer[orig_vars…]` (exact variable indices) with
/// `new_buffer[new_coords…]` in one store.
fn rewrite_buffer_access(
    st: &SpStore,
    buffer: &str,
    orig_vars: &[Var],
    new_buffer: &str,
    new_coords: &[Expr],
) -> SpStore {
    let matches_exact = |indices: &[Expr]| -> bool {
        indices.len() == orig_vars.len()
            && indices.iter().zip(orig_vars).all(|(e, v)| matches!(e, Expr::Var(ev) if ev == v))
    };
    fn rewrite_expr(
        e: &Expr,
        buffer: &str,
        matches: &dyn Fn(&[Expr]) -> bool,
        new_buffer: &str,
        new_coords: &[Expr],
    ) -> Expr {
        match e {
            Expr::BufferLoad { buffer: b, indices } => {
                let idx: Vec<Expr> = indices
                    .iter()
                    .map(|i| rewrite_expr(i, buffer, matches, new_buffer, new_coords))
                    .collect();
                if &*b.name == buffer && matches(&idx) {
                    let nb = Buffer::new(new_buffer, b.dtype, vec![], b.scope);
                    Expr::BufferLoad { buffer: nb, indices: new_coords.to_vec() }
                } else {
                    Expr::BufferLoad { buffer: b.clone(), indices: idx }
                }
            }
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(rewrite_expr(lhs, buffer, matches, new_buffer, new_coords)),
                rhs: Box::new(rewrite_expr(rhs, buffer, matches, new_buffer, new_coords)),
            },
            Expr::Select { cond, then, otherwise } => Expr::Select {
                cond: Box::new(rewrite_expr(cond, buffer, matches, new_buffer, new_coords)),
                then: Box::new(rewrite_expr(then, buffer, matches, new_buffer, new_coords)),
                otherwise: Box::new(rewrite_expr(
                    otherwise, buffer, matches, new_buffer, new_coords,
                )),
            },
            Expr::Cast { dtype, value } => Expr::Cast {
                dtype: *dtype,
                value: Box::new(rewrite_expr(value, buffer, matches, new_buffer, new_coords)),
            },
            Expr::Call { intrin, args } => Expr::Call {
                intrin: *intrin,
                args: args
                    .iter()
                    .map(|a| rewrite_expr(a, buffer, matches, new_buffer, new_coords))
                    .collect(),
            },
            _ => e.clone(),
        }
    }
    let m = |idx: &[Expr]| matches_exact(idx);
    let value = rewrite_expr(&st.value, buffer, &m, new_buffer, new_coords);
    let (tb, ti) = if &*st.buffer == buffer && matches_exact(&st.indices) {
        (Rc::from(new_buffer), new_coords.to_vec())
    } else {
        (
            st.buffer.clone(),
            st.indices
                .iter()
                .map(|i| rewrite_expr(i, buffer, &m, new_buffer, new_coords))
                .collect(),
        )
    };
    SpStore { buffer: tb, indices: ti, value }
}

fn substitute_store(st: &SpStore, var: &Var, with: &Expr) -> SpStore {
    SpStore {
        buffer: st.buffer.clone(),
        indices: st.indices.iter().map(|e| e.substitute(var, with)).collect(),
        value: st.value.substitute(var, with),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::spmm_program;

    #[test]
    fn bsr_plus_ell_decomposition_matches_figure5_shape() {
        // SpMM over a 4x4 CSR decomposed into BSR(2) + ELL(2).
        let p = spmm_program(4, 4, 8, 3);
        let rules =
            vec![FormatRewriteRule::bsr("A", 2, 2, 2, 3), FormatRewriteRule::ell("A", 2, 4, 4)];
        let d = decompose_format(&p, &rules).unwrap();
        let names: Vec<String> = d.iterations.iter().map(|i| i.name.to_string()).collect();
        assert!(names.contains(&"init_spmm".to_string()), "{names:?}");
        assert!(names.contains(&"copy_bsr_2".to_string()), "{names:?}");
        assert!(names.contains(&"copy_ell_2".to_string()), "{names:?}");
        assert!(names.contains(&"spmm_bsr_2".to_string()), "{names:?}");
        assert!(
            names.contains(&"spmm_bsr_2_ell_2".to_string())
                || names.contains(&"spmm_ell_2".to_string()),
            "expected an ELL compute iteration in {names:?}"
        );
        // New buffers registered.
        assert!(d.buffer("A_bsr_2").is_some());
        assert!(d.buffer("A_ell_2").is_some());
    }

    #[test]
    fn bsr_compute_iteration_has_remapped_accesses() {
        let p = spmm_program(4, 4, 8, 3);
        let rules = vec![FormatRewriteRule::bsr("A", 2, 2, 2, 3)];
        let d = decompose_format(&p, &rules).unwrap();
        let script = d.script();
        // C is written at (io·2+ii, k) and B read at (jo·2+ji, k).
        assert!(script.contains("A_bsr_2["), "{script}");
        assert!(script.contains("* 2)"), "{script}");
        // Compute iteration carries kinds derived from the original SRS.
        let it = d
            .iterations
            .iter()
            .find(|i| i.name.starts_with("spmm_bsr"))
            .expect("compute iteration");
        assert_eq!(it.kind_string(), "SSRRS"); // io,ii spatial; jo,ji reduce; k spatial
    }

    #[test]
    fn strip_copies_removes_copy_iterations() {
        let p = spmm_program(4, 4, 8, 3);
        let d = decompose_format(&p, &[FormatRewriteRule::ell("A", 2, 4, 4)]).unwrap();
        let stripped = d.strip_copies();
        assert!(stripped.iterations.iter().all(|i| !i.name.starts_with("copy_")));
        assert!(d.iterations.len() > stripped.iterations.len());
    }

    #[test]
    fn missing_buffer_errors() {
        let p = spmm_program(4, 4, 8, 3);
        let r = FormatRewriteRule::ell("ZZZ", 2, 4, 4);
        assert!(decompose_format(&p, &[r]).is_err());
    }

    #[test]
    fn bucket_ell_uses_row_indirection() {
        let p = spmm_program(8, 8, 16, 2);
        let rule = FormatRewriteRule::bucket_ell("A", "p0_b1", 2, 5, 8);
        let d = decompose_format(&p, &[rule]).unwrap();
        let script = d.script();
        assert!(script.contains("hyb_p0_b1_rows["), "{script}");
        // The extras list carries the row-id buffer for binding.
        assert!(d.extras.iter().any(|b| &*b.name == "hyb_p0_b1_rows"));
    }
}
