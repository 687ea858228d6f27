//! Axes — the format-describing dimension objects of SparseTIR (§3.1).
//!
//! Each axis carries two orthogonal attributes: **dense/sparse** (are the
//! non-zero coordinates contiguous?) and **fixed/variable** (is the per-row
//! non-zero count constant?), plus a `parent` link forming the axis
//! dependency tree that coordinate translation (eqs. 1–5) and buffer
//! flattening (eqs. 6–8) walk.
//!
//! A variable axis's `nnz` is an integer [`Expr`]: a constant, or a scalar
//! parameter (`Var::i32("nnz")`, the paper's `nnz: T.int32`) that the
//! lowered function lists in its `params` and a launch binds, so one
//! compiled kernel serves every matrix of the format with its `rows` and
//! `cols`.

use sparsetir_ir::prelude::*;
use std::fmt;
use std::rc::Rc;

/// The 2×2 classification of axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisKind {
    /// Contiguous coordinates, fixed length (a plain dense dimension).
    DenseFixed,
    /// Contiguous coordinates, per-parent variable length (ragged rows);
    /// carries `indptr`.
    DenseVariable,
    /// Non-contiguous coordinates, fixed count per parent (ELL rows);
    /// carries `indices`.
    SparseFixed,
    /// Non-contiguous coordinates, variable count per parent (CSR rows);
    /// carries `indptr` and `indices`.
    SparseVariable,
}

impl AxisKind {
    /// Axis stores an `indices` array (non-contiguous coordinates).
    #[must_use]
    pub fn is_sparse(self) -> bool {
        matches!(self, AxisKind::SparseFixed | AxisKind::SparseVariable)
    }

    /// Axis stores an `indptr` array (variable per-parent count).
    #[must_use]
    pub fn is_variable(self) -> bool {
        matches!(self, AxisKind::DenseVariable | AxisKind::SparseVariable)
    }
}

/// An axis of the sparse iteration space / sparse buffer layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Unique name within a program.
    pub name: Rc<str>,
    /// dense/sparse × fixed/variable classification.
    pub kind: AxisKind,
    /// Parent axis in the dependency tree (`None` for roots).
    pub parent: Option<Rc<str>>,
    /// Coordinate-space extent (the `n` of the paper's metadata).
    pub length: usize,
    /// Total accumulated non-zeros over all parent positions (variable
    /// axes; equals `parent positions × nnz_cols` for fixed): a constant
    /// or an expression over scalar parameters.
    pub nnz: Expr,
    /// Per-parent non-zero count (fixed axes only).
    pub nnz_cols: Option<usize>,
    /// Buffer name of the index-pointer array (variable axes).
    pub indptr: Option<Rc<str>>,
    /// Buffer name of the indices array (sparse axes).
    pub indices: Option<Rc<str>>,
}

impl Axis {
    /// `dense_fixed(length)` — no parent, no auxiliary arrays.
    pub fn dense_fixed(name: impl Into<Rc<str>>, length: usize) -> Axis {
        Axis {
            name: name.into(),
            kind: AxisKind::DenseFixed,
            parent: None,
            length,
            nnz: Expr::from(length),
            nnz_cols: None,
            indptr: None,
            indices: None,
        }
    }

    /// `dense_variable(parent, (length, nnz), indptr)`; `nnz` a constant
    /// or a scalar parameter.
    pub fn dense_variable(
        name: impl Into<Rc<str>>,
        parent: impl Into<Rc<str>>,
        length: usize,
        nnz: impl Into<Expr>,
        indptr: impl Into<Rc<str>>,
    ) -> Axis {
        Axis {
            name: name.into(),
            kind: AxisKind::DenseVariable,
            parent: Some(parent.into()),
            length,
            nnz: nnz.into(),
            nnz_cols: None,
            indptr: Some(indptr.into()),
            indices: None,
        }
    }

    /// `sparse_fixed(parent, (length, nnz_cols), indices)`.
    pub fn sparse_fixed(
        name: impl Into<Rc<str>>,
        parent: impl Into<Rc<str>>,
        length: usize,
        nnz_cols: usize,
        indices: impl Into<Rc<str>>,
    ) -> Axis {
        Axis {
            name: name.into(),
            kind: AxisKind::SparseFixed,
            parent: Some(parent.into()),
            length,
            nnz: Expr::i32(0), // filled by the program once the parent extent is known
            nnz_cols: Some(nnz_cols),
            indptr: None,
            indices: Some(indices.into()),
        }
    }

    /// `sparse_variable(parent, (length, nnz), (indptr, indices))`; `nnz`
    /// a constant or a scalar parameter.
    pub fn sparse_variable(
        name: impl Into<Rc<str>>,
        parent: impl Into<Rc<str>>,
        length: usize,
        nnz: impl Into<Expr>,
        indptr: impl Into<Rc<str>>,
        indices: impl Into<Rc<str>>,
    ) -> Axis {
        Axis {
            name: name.into(),
            kind: AxisKind::SparseVariable,
            parent: Some(parent.into()),
            length,
            nnz: nnz.into(),
            nnz_cols: None,
            indptr: Some(indptr.into()),
            indices: Some(indices.into()),
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            AxisKind::DenseFixed => "dense_fixed",
            AxisKind::DenseVariable => "dense_variable",
            AxisKind::SparseFixed => "sparse_fixed",
            AxisKind::SparseVariable => "sparse_variable",
        };
        write!(f, "{} = {kind}(len={}", self.name, self.length)?;
        if let Some(p) = &self.parent {
            write!(f, ", parent={p}")?;
        }
        if let Some(w) = self.nnz_cols {
            write!(f, ", nnz_cols={w}")?;
        }
        if self.kind.is_variable() {
            write!(f, ", nnz={}", print_expr(&self.nnz))?;
        }
        write!(f, ")")
    }
}

/// A set of axes forming the dependency forest of one program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AxisStore {
    axes: Vec<Axis>,
}

impl AxisStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> AxisStore {
        AxisStore::default()
    }

    /// Register an axis; replaces any axis of the same name.
    pub fn add(&mut self, axis: Axis) {
        if let Some(existing) = self.axes.iter_mut().find(|a| a.name == axis.name) {
            *existing = axis;
        } else {
            self.axes.push(axis);
        }
    }

    /// Look up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Axis> {
        self.axes.iter().find(|a| &*a.name == name)
    }

    /// All registered axes.
    #[must_use]
    pub fn all(&self) -> &[Axis] {
        &self.axes
    }

    /// `anc(A, i)` of eq. 5: ancestor chain (root → … → self) by name.
    ///
    /// # Panics
    /// Panics when a parent link names an unregistered axis (construction
    /// bug, not a runtime condition).
    #[must_use]
    pub fn ancestors(&self, name: &str) -> Vec<Rc<str>> {
        let mut chain = Vec::new();
        let mut cur = self.get(name).map(|a| a.name.clone());
        while let Some(n) = cur {
            chain.push(n.clone());
            let axis = self.get(&n).expect("axis registered");
            cur = axis.parent.clone();
        }
        chain.reverse();
        chain
    }

    /// Number of *positions* (stored slots) of an axis: `nnz` for variable
    /// axes, `parent positions × nnz_cols` for fixed-with-parent, `length`
    /// for roots — simplified, so a constant count is an integer literal.
    #[must_use]
    pub fn positions(&self, name: &str) -> Expr {
        let Some(axis) = self.get(name) else { return Expr::i32(0) };
        let per_parent = |w: usize| match &axis.parent {
            Some(p) => (self.positions(p) * w).simplify(),
            None => Expr::from(w),
        };
        match axis.kind {
            AxisKind::DenseFixed => per_parent(axis.length),
            AxisKind::SparseFixed => per_parent(axis.nnz_cols.unwrap_or(0)),
            AxisKind::DenseVariable | AxisKind::SparseVariable => axis.nnz.clone(),
        }
    }

    /// The scalar parameters the axes' extents are written over, each
    /// once, in axis order: what a lowered function lists in `params`.
    #[must_use]
    pub fn params(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        for axis in &self.axes {
            axis.nnz.collect_vars(&mut vars);
        }
        vars
    }

    /// Positions of the subtree rooted at `name`, restricted to a buffer's
    /// axis list — the `nnz(Tree(A_i))` of eq. 8.
    #[must_use]
    pub fn tree_positions(&self, name: &str, within: &[Rc<str>]) -> Expr {
        // Find the deepest descendant of `name` within the list; its
        // positions count the whole chain.
        let mut best = name.to_string();
        let mut changed = true;
        while changed {
            changed = false;
            for cand in within {
                if let Some(a) = self.get(cand) {
                    if a.parent.as_deref() == Some(best.as_str()) {
                        best = cand.to_string();
                        changed = true;
                    }
                }
            }
        }
        self.positions(&best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr_axes() -> AxisStore {
        let mut s = AxisStore::new();
        s.add(Axis::dense_fixed("I", 4));
        s.add(Axis::sparse_variable("J", "I", 8, 10, "J_indptr", "J_indices"));
        s
    }

    #[test]
    fn ancestors_walks_to_root() {
        let s = csr_axes();
        let chain = s.ancestors("J");
        assert_eq!(chain.iter().map(|c| &**c).collect::<Vec<_>>(), vec!["I", "J"]);
        assert_eq!(s.ancestors("I").len(), 1);
    }

    fn count(e: &Expr) -> Option<i64> {
        e.as_const_int()
    }

    #[test]
    fn positions_of_each_kind() {
        let mut s = csr_axes();
        assert_eq!(count(&s.positions("I")), Some(4));
        assert_eq!(count(&s.positions("J")), Some(10));
        s.add(Axis::sparse_fixed("E", "I", 8, 2, "E_indices"));
        assert_eq!(count(&s.positions("E")), Some(8)); // 4 parents × 2
        let mut ii = Axis::dense_fixed("II", 2);
        ii.parent = None;
        s.add(ii);
        assert_eq!(count(&s.positions("II")), Some(2));
    }

    #[test]
    fn tree_positions_follows_chain() {
        let s = csr_axes();
        let within: Vec<Rc<str>> = vec!["I".into(), "J".into()];
        assert_eq!(count(&s.tree_positions("I", &within)), Some(10)); // chain I→J has nnz 10
        assert_eq!(count(&s.tree_positions("J", &within)), Some(10));
        let only_i: Vec<Rc<str>> = vec!["I".into()];
        assert_eq!(count(&s.tree_positions("I", &only_i)), Some(4));
    }

    /// A parameter `nnz` stays a parameter: the variable axis's positions
    /// are the parameter, a fixed axis under it counts in multiples of it,
    /// and the axes list it once.
    #[test]
    fn a_parameter_nnz_is_a_symbolic_position_count() {
        let nnz = Var::i32("nnz");
        let mut s = AxisStore::new();
        s.add(Axis::dense_fixed("I", 4));
        s.add(Axis::sparse_variable("J", "I", 8, nnz.clone(), "J_indptr", "J_indices"));
        s.add(Axis::dense_fixed("H", 1));
        assert_eq!(s.positions("J"), Expr::var(&nnz));
        assert_eq!(print_expr(&s.tree_positions("I", &["I".into(), "J".into()])), "nnz");
        let mut k = Axis::sparse_fixed("K", "J", 8, 3, "K_indices");
        k.nnz = s.positions("J") * 3;
        s.add(k);
        assert_eq!(print_expr(&s.positions("K")), "(nnz * 3)");
        assert_eq!(s.params(), vec![nnz]);
        assert!(s.get("J").unwrap().to_string().contains("nnz=nnz"));
    }

    #[test]
    fn kind_predicates() {
        assert!(AxisKind::SparseVariable.is_sparse());
        assert!(AxisKind::SparseVariable.is_variable());
        assert!(!AxisKind::DenseFixed.is_sparse());
        assert!(AxisKind::DenseVariable.is_variable());
        assert!(AxisKind::SparseFixed.is_sparse());
        assert!(!AxisKind::SparseFixed.is_variable());
    }

    #[test]
    fn add_replaces_same_name() {
        let mut s = csr_axes();
        s.add(Axis::dense_fixed("I", 99));
        assert_eq!(s.get("I").unwrap().length, 99);
        assert_eq!(s.all().len(), 2);
    }

    #[test]
    fn display_formats() {
        let s = csr_axes();
        let txt = s.get("J").unwrap().to_string();
        assert!(txt.contains("sparse_variable"), "{txt}");
        assert!(txt.contains("parent=I"), "{txt}");
    }
}
