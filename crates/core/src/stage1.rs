//! Stage I — coordinate-space computation (§3.2).
//!
//! A [`SpProgram`] holds axes, sparse buffers and sparse iterations. Bodies
//! are written against *coordinate space*: `A[i, j]` refers to the logical
//! matrix element, regardless of storage. Index expressions are arbitrary
//! [`Expr`]s (affine combinations, loads from other buffers), which is the
//! expressiveness SparseTIR adds over TACO-style iterator-only indexing.

use crate::axis::{Axis, AxisStore};
use sparsetir_ir::prelude::*;
use std::fmt::Write as _;
use std::rc::Rc;

/// A sparse buffer: values addressed in coordinate space through a list of
/// axes (the `match_sparse_buffer` of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct SpBuffer {
    /// Buffer name (also the data-binding key).
    pub name: Rc<str>,
    /// Axis names composing the format, outermost first.
    pub axes: Vec<Rc<str>>,
    /// Element type.
    pub dtype: DType,
}

impl SpBuffer {
    /// Coordinate-space placeholder [`Buffer`] used inside Stage I bodies:
    /// shape is the per-axis coordinate extent.
    #[must_use]
    pub fn coord_buffer(&self, axes: &AxisStore) -> Buffer {
        let shape = self
            .axes
            .iter()
            .map(|a| Expr::i32(axes.get(a).map_or(0, |ax| ax.length) as i64))
            .collect();
        Buffer::new(self.name.clone(), self.dtype, shape, Scope::Global)
    }

    /// Coordinate-space load `self[indices…]`.
    #[must_use]
    pub fn load(&self, axes: &AxisStore, indices: Vec<Expr>) -> Expr {
        self.coord_buffer(axes).load(indices)
    }
}

/// One assignment inside a sparse iteration: `buffer[indices…] = value`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpStore {
    /// Target sparse buffer name.
    pub buffer: Rc<str>,
    /// Coordinate-space index expressions.
    pub indices: Vec<Expr>,
    /// Right-hand side (coordinate-space loads allowed).
    pub value: Expr,
}

/// A sparse iteration (`sp_iter`): iterators over an axis list with
/// spatial/reduction kinds, an optional init and a body of stores.
#[derive(Debug, Clone, PartialEq)]
pub struct SpIter {
    /// Name, used as the scheduling reference (becomes block names).
    pub name: Rc<str>,
    /// Iterated axes, outermost first.
    pub axes: Vec<Rc<str>>,
    /// Spatial (`S`) / reduction (`R`) kind per axis.
    pub kinds: Vec<IterKind>,
    /// Coordinate-space iterator variables, one per axis.
    pub vars: Vec<Var>,
    /// Fusion grouping: a partition of `0..axes.len()` into consecutive
    /// groups; each group lowers to a single loop (`sparse_fuse`).
    pub fuse_groups: Vec<Vec<usize>>,
    /// `with init():` stores, run before the first reduction step.
    pub init: Vec<SpStore>,
    /// Body stores.
    pub body: Vec<SpStore>,
}

impl SpIter {
    /// Iterator variable for the axis named `axis`.
    #[must_use]
    pub fn var_of(&self, axis: &str) -> Option<&Var> {
        self.axes.iter().position(|a| &**a == axis).map(|i| &self.vars[i])
    }

    /// The `"SRS"`-style kind string of the paper.
    #[must_use]
    pub fn kind_string(&self) -> String {
        self.kinds
            .iter()
            .map(|k| match k {
                IterKind::Spatial => 'S',
                IterKind::Reduce => 'R',
            })
            .collect()
    }
}

/// A Stage I program: the unit format decomposition, Stage I schedules and
/// sparse iteration lowering operate on.
#[derive(Debug, Clone, PartialEq)]
pub struct SpProgram {
    /// Program name (becomes the kernel name).
    pub name: Rc<str>,
    /// Axis registry.
    pub axes: AxisStore,
    /// Sparse buffers.
    pub buffers: Vec<SpBuffer>,
    /// Plain (non-sparse) auxiliary buffers referenced by index expressions,
    /// e.g. the bucket row-id arrays of `hyb` formats.
    pub extras: Vec<Buffer>,
    /// Sparse iterations, executed in order.
    pub iterations: Vec<SpIter>,
}

impl SpProgram {
    /// Look up a buffer by name.
    #[must_use]
    pub fn buffer(&self, name: &str) -> Option<&SpBuffer> {
        self.buffers.iter().find(|b| &*b.name == name)
    }

    /// Look up an iteration by name.
    #[must_use]
    pub fn iteration(&self, name: &str) -> Option<&SpIter> {
        self.iterations.iter().find(|i| &*i.name == name)
    }

    /// Mutable iteration lookup.
    pub fn iteration_mut(&mut self, name: &str) -> Option<&mut SpIter> {
        self.iterations.iter_mut().find(|i| &*i.name == name)
    }

    /// Script-form rendering in the paper's style (Figure 3).
    #[must_use]
    pub fn script(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# program: {}", self.name);
        for axis in self.axes.all() {
            let _ = writeln!(out, "{axis}");
        }
        for buf in &self.buffers {
            let axes: Vec<&str> = buf.axes.iter().map(|a| &**a).collect();
            let _ = writeln!(
                out,
                "{} = match_sparse_buffer(({}), \"{}\")",
                buf.name,
                axes.join(", "),
                buf.dtype
            );
        }
        for it in &self.iterations {
            let axes: Vec<String> = {
                let mut rendered = Vec::new();
                for group in &it.fuse_groups {
                    if group.len() == 1 {
                        rendered.push(it.axes[group[0]].to_string());
                    } else {
                        let names: Vec<&str> = group.iter().map(|&i| &*it.axes[i]).collect();
                        rendered.push(format!("fuse({})", names.join(", ")));
                    }
                }
                rendered
            };
            let vars: Vec<&str> = it.vars.iter().map(|v| &*v.name).collect();
            let _ = writeln!(
                out,
                "with sp_iter([{}], \"{}\", \"{}\") as [{}]:",
                axes.join(", "),
                it.kind_string(),
                it.name,
                vars.join(", ")
            );
            if !it.init.is_empty() {
                let _ = writeln!(out, "    with init():");
                for st in &it.init {
                    let idx: Vec<String> = st.indices.iter().map(print_expr).collect();
                    let _ = writeln!(
                        out,
                        "        {}[{}] = {}",
                        st.buffer,
                        idx.join(", "),
                        print_expr(&st.value)
                    );
                }
            }
            for st in &it.body {
                let idx: Vec<String> = st.indices.iter().map(print_expr).collect();
                let _ = writeln!(
                    out,
                    "    {}[{}] = {}",
                    st.buffer,
                    idx.join(", "),
                    print_expr(&st.value)
                );
            }
        }
        out
    }

    /// Reference semantics: lower the whole program to *dense*
    /// coordinate-space loops (every sparse buffer bound as a dense tensor
    /// of its coordinate extents). This is the oracle the compressed
    /// lowering is validated against — absent entries are zeros, so
    /// multiply-accumulate kernels agree exactly.
    #[must_use]
    pub fn to_dense_func(&self) -> PrimFunc {
        let mut body = Stmt::nop();
        for it in &self.iterations {
            let mut inner: Stmt = Stmt::nop();
            // Init runs when all reduce vars are 0 (guard below); body after.
            let store_stmt = |st: &SpStore| {
                let buf = self
                    .buffer(&st.buffer)
                    .expect("store target registered")
                    .coord_buffer(&self.axes);
                Stmt::BufferStore {
                    buffer: buf,
                    indices: st.indices.clone(),
                    value: st.value.clone(),
                }
            };
            if !it.init.is_empty() {
                let mut cond: Option<Expr> = None;
                for (i, kind) in it.kinds.iter().enumerate() {
                    if *kind == IterKind::Reduce {
                        let c = Expr::var(&it.vars[i]).eq(0);
                        cond = Some(match cond {
                            Some(prev) => prev.and(c),
                            None => c,
                        });
                    }
                }
                let mut init_stmt = Stmt::nop();
                for st in &it.init {
                    init_stmt = init_stmt.then(store_stmt(st));
                }
                inner = inner.then(match cond {
                    Some(c) => Stmt::IfThenElse {
                        cond: c,
                        then_branch: Box::new(init_stmt),
                        else_branch: None,
                    },
                    None => init_stmt,
                });
            }
            for st in &it.body {
                inner = inner.then(store_stmt(st));
            }
            // Wrap loops innermost-out over the *coordinate* extents.
            let mut stmt = inner;
            for (i, axis_name) in it.axes.iter().enumerate().rev() {
                let len = self.axes.get(axis_name).map_or(0, |a| a.length);
                stmt = Stmt::for_serial(it.vars[i].clone(), len as i64, stmt);
            }
            body = body.then(stmt);
        }
        let mut buffers: Vec<Buffer> =
            self.buffers.iter().map(|b| b.coord_buffer(&self.axes)).collect();
        buffers.extend(self.extras.iter().cloned());
        PrimFunc::new(format!("{}_dense", self.name), vec![], buffers, body)
    }
}

/// Builder DSL mirroring the paper's Python interface.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    axes: AxisStore,
    buffers: Vec<SpBuffer>,
    iterations: Vec<SpIter>,
}

impl ProgramBuilder {
    /// Start a program.
    #[must_use]
    pub fn new(name: &str) -> ProgramBuilder {
        ProgramBuilder { name: name.to_string(), ..Default::default() }
    }

    /// `T.dense_fixed(length)`.
    pub fn dense_fixed(&mut self, name: &str, length: usize) -> Rc<str> {
        let axis = Axis::dense_fixed(name, length);
        let n = axis.name.clone();
        self.axes.add(axis);
        n
    }

    /// `T.dense_variable(parent, (length, nnz), indptr)`: `nnz` a constant,
    /// or a scalar parameter (`Var::i32("nnz")`, the paper's `nnz:
    /// T.int32`) the lowered function lists in its `params`.
    pub fn dense_variable(
        &mut self,
        name: &str,
        parent: &str,
        length: usize,
        nnz: impl Into<Expr>,
        indptr: &str,
    ) -> Rc<str> {
        let axis = Axis::dense_variable(name, parent, length, nnz, indptr);
        let n = axis.name.clone();
        self.axes.add(axis);
        n
    }

    /// `T.sparse_fixed(parent, (length, nnz_cols), indices)`.
    pub fn sparse_fixed(
        &mut self,
        name: &str,
        parent: &str,
        length: usize,
        nnz_cols: usize,
        indices: &str,
    ) -> Rc<str> {
        let mut axis = Axis::sparse_fixed(name, parent, length, nnz_cols, indices);
        axis.nnz = (self.axes.positions(parent) * nnz_cols).simplify();
        let n = axis.name.clone();
        self.axes.add(axis);
        n
    }

    /// `T.sparse_variable(parent, (length, nnz), (indptr, indices))`:
    /// `nnz` a constant, or a scalar parameter (`Var::i32("nnz")`, the
    /// paper's `nnz: T.int32`) the lowered function lists in its `params`
    /// — one kernel then serves every matrix of this `rows × cols`.
    pub fn sparse_variable(
        &mut self,
        name: &str,
        parent: &str,
        length: usize,
        nnz: impl Into<Expr>,
        indptr: &str,
        indices: &str,
    ) -> Rc<str> {
        let axis = Axis::sparse_variable(name, parent, length, nnz, indptr, indices);
        let n = axis.name.clone();
        self.axes.add(axis);
        n
    }

    /// `T.match_sparse_buffer(name, axes, dtype)`.
    pub fn sparse_buffer(&mut self, name: &str, axes: &[&str], dtype: DType) -> SpBuffer {
        let buf = SpBuffer {
            name: name.into(),
            axes: axes.iter().map(|a| Rc::from(*a)).collect(),
            dtype,
        };
        self.buffers.push(buf.clone());
        buf
    }

    /// Coordinate-space load helper for use in iteration bodies.
    #[must_use]
    pub fn load(&self, buffer: &SpBuffer, indices: Vec<Expr>) -> Expr {
        buffer.load(&self.axes, indices)
    }

    /// Borrow the axis registry built so far (for load expressions built
    /// outside the closure-based `sp_iter` helper).
    #[must_use]
    pub fn axes(&self) -> &AxisStore {
        &self.axes
    }

    /// `with sp_iter(axes, kinds, name) as vars:` — `kinds` is the paper's
    /// `"SRS"` string; `build` receives the iterator variables and returns
    /// `(init stores, body stores)`.
    ///
    /// # Panics
    /// Panics when `kinds` length differs from `axes` length or an axis is
    /// unregistered.
    pub fn sp_iter(
        &mut self,
        name: &str,
        axes: &[&str],
        kinds: &str,
        build: impl FnOnce(&[Var]) -> (Vec<SpStore>, Vec<SpStore>),
    ) {
        assert_eq!(axes.len(), kinds.len(), "kind string length mismatch");
        let kind_vec: Vec<IterKind> = kinds
            .chars()
            .map(|c| match c {
                'S' => IterKind::Spatial,
                'R' => IterKind::Reduce,
                other => panic!("unknown iterator kind `{other}` (expected S/R)"),
            })
            .collect();
        let vars: Vec<Var> = axes
            .iter()
            .map(|a| {
                assert!(self.axes.get(a).is_some(), "axis `{a}` not registered");
                Var::i32(format!("v_{}", a.to_lowercase()))
            })
            .collect();
        let (init, body) = build(&vars);
        self.iterations.push(SpIter {
            name: name.into(),
            axes: axes.iter().map(|a| Rc::from(*a)).collect(),
            kinds: kind_vec,
            vars: vars.clone(),
            fuse_groups: (0..axes.len()).map(|i| vec![i]).collect(),
            init,
            body,
        });
    }

    /// Finish building.
    #[must_use]
    pub fn finish(self) -> SpProgram {
        SpProgram {
            name: self.name.into(),
            axes: self.axes,
            buffers: self.buffers,
            extras: Vec::new(),
            iterations: self.iterations,
        }
    }
}

/// Build the paper's running SpMM example (Figure 3) for an `m × n` CSR
/// matrix with `nnz` non-zeros — a constant, or the scalar parameter
/// `nnz` of Figure 3: `C[i, k] = Σ_j A[i, j] · B[j, k]`.
#[must_use]
pub fn spmm_program(m: usize, n: usize, nnz: impl Into<Expr>, feat: usize) -> SpProgram {
    let mut b = ProgramBuilder::new("spmm");
    b.dense_fixed("I", m);
    b.sparse_variable("J", "I", n, nnz, "J_indptr", "J_indices");
    b.dense_fixed("J_", n);
    b.dense_fixed("K", feat);
    let a = b.sparse_buffer("A", &["I", "J"], DType::F32);
    let bx = b.sparse_buffer("B", &["J_", "K"], DType::F32);
    let c = b.sparse_buffer("C", &["I", "K"], DType::F32);
    let (al, bl, cl) = (a.clone(), bx.clone(), c.clone());
    let axes = b.axes.clone();
    b.sp_iter("spmm", &["I", "J", "K"], "SRS", |vars| {
        let (i, j, k) = (&vars[0], &vars[1], &vars[2]);
        let init = vec![SpStore {
            buffer: cl.name.clone(),
            indices: vec![Expr::var(i), Expr::var(k)],
            value: Expr::f32(0.0),
        }];
        let body = vec![SpStore {
            buffer: cl.name.clone(),
            indices: vec![Expr::var(i), Expr::var(k)],
            value: cl.load(&axes, vec![Expr::var(i), Expr::var(k)])
                + al.load(&axes, vec![Expr::var(i), Expr::var(j)])
                    * bl.load(&axes, vec![Expr::var(j), Expr::var(k)]),
        }];
        (init, body)
    });
    b.finish()
}

/// Build the paper's SDDMM example for a concrete CSR structure:
/// `B[i, j] = A[i, j] · Σ_k X[i, k] · Y[k, j]` (§4.2.2).
#[must_use]
pub fn sddmm_program(m: usize, n: usize, nnz: impl Into<Expr>, feat: usize) -> SpProgram {
    let mut b = ProgramBuilder::new("sddmm");
    b.dense_fixed("I", m);
    b.sparse_variable("J", "I", n, nnz, "J_indptr", "J_indices");
    b.dense_fixed("K", feat);
    b.dense_fixed("I_", m);
    b.dense_fixed("J_d", n);
    let a = b.sparse_buffer("A", &["I", "J"], DType::F32);
    let x = b.sparse_buffer("X", &["I_", "K"], DType::F32);
    let y = b.sparse_buffer("Y", &["K", "J_d"], DType::F32);
    let out = b.sparse_buffer("Bout", &["I", "J"], DType::F32);
    let axes = b.axes.clone();
    b.sp_iter("sddmm", &["I", "J", "K"], "SSR", |vars| {
        let (i, j, k) = (&vars[0], &vars[1], &vars[2]);
        let init = vec![SpStore {
            buffer: out.name.clone(),
            indices: vec![Expr::var(i), Expr::var(j)],
            value: Expr::f32(0.0),
        }];
        let body = vec![SpStore {
            buffer: out.name.clone(),
            indices: vec![Expr::var(i), Expr::var(j)],
            value: out.load(&axes, vec![Expr::var(i), Expr::var(j)])
                + a.load(&axes, vec![Expr::var(i), Expr::var(j)])
                    * x.load(&axes, vec![Expr::var(i), Expr::var(k)])
                    * y.load(&axes, vec![Expr::var(k), Expr::var(j)]),
        }];
        (init, body)
    });
    b.finish()
}

/// Build the *batched* (multi-head) SDDMM sharing one sparsity structure:
/// `Bout[i, j, h] = A[i, j] · Σ_k X[i, h, k] · Y[h, k, j]`.
///
/// The head axis `H` sits *inside* the sparse `(I, J)` pair, so the
/// per-non-zero coordinate walk (index loads, and under `sparse_fuse` on
/// `(I, J)` the binary-searched row) is paid once and shared by every
/// head. A serving engine does not launch it: a batch runs the one-head
/// program once per rider; this form is the multi-head test and oracle
/// program. With `heads = 1` the loop body degenerates to exactly
/// [`sddmm_program`]'s, so per-head results are bit-identical to
/// unbatched execution (same reduction order over `K`).
///
/// Operand layouts (row-major coordinate space): `X` is `(m, heads,
/// feat)` — each head's `X_h` occupies `feat` consecutive columns of an
/// `m × heads·feat` matrix; `Y` is `(heads, feat, n)` — the heads' `Y_h`
/// stacked row-wise; `Bout` is `(nnz, heads)` interleaved per non-zero.
#[must_use]
pub fn batched_sddmm_program(
    m: usize,
    n: usize,
    nnz: impl Into<Expr>,
    heads: usize,
    feat: usize,
) -> SpProgram {
    let mut b = ProgramBuilder::new("sddmm");
    b.dense_fixed("I", m);
    b.sparse_variable("J", "I", n, nnz, "J_indptr", "J_indices");
    b.dense_fixed("H", heads);
    b.dense_fixed("K", feat);
    b.dense_fixed("I_", m);
    b.dense_fixed("J_d", n);
    let a = b.sparse_buffer("A", &["I", "J"], DType::F32);
    let x = b.sparse_buffer("X", &["I_", "H", "K"], DType::F32);
    let y = b.sparse_buffer("Y", &["H", "K", "J_d"], DType::F32);
    let out = b.sparse_buffer("Bout", &["I", "J", "H"], DType::F32);
    let axes = b.axes.clone();
    b.sp_iter("sddmm", &["I", "J", "H", "K"], "SSSR", |vars| {
        let (i, j, h, k) = (&vars[0], &vars[1], &vars[2], &vars[3]);
        let init = vec![SpStore {
            buffer: out.name.clone(),
            indices: vec![Expr::var(i), Expr::var(j), Expr::var(h)],
            value: Expr::f32(0.0),
        }];
        let body = vec![SpStore {
            buffer: out.name.clone(),
            indices: vec![Expr::var(i), Expr::var(j), Expr::var(h)],
            value: out.load(&axes, vec![Expr::var(i), Expr::var(j), Expr::var(h)])
                + a.load(&axes, vec![Expr::var(i), Expr::var(j)])
                    * x.load(&axes, vec![Expr::var(i), Expr::var(h), Expr::var(k)])
                    * y.load(&axes, vec![Expr::var(h), Expr::var(k), Expr::var(j)]),
        }];
        (init, body)
    });
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn spmm_script_matches_paper_shape() {
        let p = spmm_program(4, 4, 6, 2);
        let s = p.script();
        assert!(s.contains("sp_iter([I, J, K], \"SRS\", \"spmm\")"), "{s}");
        assert!(s.contains("match_sparse_buffer((I, J)"), "{s}");
        assert!(s.contains("with init():"), "{s}");
    }

    #[test]
    fn dense_reference_computes_spmm() {
        // A = [[1,0],[2,3]] (dense-bound), B = [[1,1],[10,10]]
        let p = spmm_program(2, 2, 3, 2);
        let f = p.to_dense_func();
        let mut tensors = HashMap::new();
        tensors.insert("A".to_string(), TensorData::from(vec![1.0, 0.0, 2.0, 3.0]));
        tensors.insert("B".to_string(), TensorData::from(vec![1.0, 1.0, 10.0, 10.0]));
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 4));
        eval_func(&f, &HashMap::new(), &mut tensors).unwrap();
        assert_eq!(tensors["C"].as_f32(), &[1.0, 1.0, 32.0, 32.0]);
    }

    #[test]
    fn sddmm_dense_reference() {
        let p = sddmm_program(2, 2, 2, 2);
        let f = p.to_dense_func();
        let mut tensors = HashMap::new();
        // A pattern: [[1, 0], [0, 2]]
        tensors.insert("A".to_string(), TensorData::from(vec![1.0, 0.0, 0.0, 2.0]));
        tensors.insert("X".to_string(), TensorData::from(vec![1.0, 2.0, 3.0, 4.0]));
        tensors.insert("Y".to_string(), TensorData::from(vec![1.0, 0.0, 0.0, 1.0]));
        tensors.insert("Bout".to_string(), TensorData::zeros(DType::F32, 4));
        eval_func(&f, &HashMap::new(), &mut tensors).unwrap();
        // X·Y = [[1,2],[3,4]]; Bout = A ⊙ (X·Y) = [[1,0],[0,8]]
        assert_eq!(tensors["Bout"].as_f32(), &[1.0, 0.0, 0.0, 8.0]);
    }

    #[test]
    fn builder_panics_on_unregistered_axis() {
        let result = std::panic::catch_unwind(|| {
            let mut b = ProgramBuilder::new("bad");
            b.sp_iter("it", &["Z"], "S", |_| (vec![], vec![]));
        });
        assert!(result.is_err());
    }

    #[test]
    fn var_of_finds_iterator() {
        let p = spmm_program(2, 2, 2, 2);
        let it = p.iteration("spmm").unwrap();
        assert!(it.var_of("J").is_some());
        assert!(it.var_of("ZZ").is_none());
        assert_eq!(it.kind_string(), "SRS");
    }
}
