//! Statement AST for the loop-level IR (Stage II/III of SparseTIR).

use crate::buffer::{Buffer, BufferRegion};
use crate::expr::{Expr, Var};
use std::rc::Rc;

/// GPU thread axes a loop can be bound to by the `bind` schedule primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadAxis {
    /// `blockIdx.x`
    BlockIdxX,
    /// `blockIdx.y`
    BlockIdxY,
    /// `blockIdx.z`
    BlockIdxZ,
    /// `threadIdx.x`
    ThreadIdxX,
    /// `threadIdx.y`
    ThreadIdxY,
    /// `threadIdx.z`
    ThreadIdxZ,
}

impl ThreadAxis {
    /// CUDA spelling of the axis.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ThreadAxis::BlockIdxX => "blockIdx.x",
            ThreadAxis::BlockIdxY => "blockIdx.y",
            ThreadAxis::BlockIdxZ => "blockIdx.z",
            ThreadAxis::ThreadIdxX => "threadIdx.x",
            ThreadAxis::ThreadIdxY => "threadIdx.y",
            ThreadAxis::ThreadIdxZ => "threadIdx.z",
        }
    }
}

/// Execution kind of a `for` loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ForKind {
    /// Ordinary sequential loop.
    #[default]
    Serial,
    /// CPU-parallel loop (used by host-side reference kernels).
    Parallel,
    /// Vectorized loop (`float4`-style wide load/store).
    Vectorized,
    /// Fully unrolled loop.
    Unrolled,
    /// Loop bound to a GPU thread axis.
    ThreadBinding(ThreadAxis),
}

/// Iteration semantics of a block iterator variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IterKind {
    /// Spatial ("S") — parallelizable, each value writes disjoint output.
    Spatial,
    /// Reduction ("R") — values combine into the same output element.
    Reduce,
}

/// A block iterator variable: the block-local variable, its semantics and
/// the expression binding it to enclosing loop variables.
#[derive(Debug, Clone, PartialEq)]
pub struct IterVar {
    /// Block-local variable.
    pub var: Var,
    /// Spatial or reduction.
    pub kind: IterKind,
    /// Value in terms of enclosing loop variables.
    pub binding: Expr,
}

impl IterVar {
    /// Spatial iterator bound to `binding`.
    pub fn spatial(var: Var, binding: impl Into<Expr>) -> Self {
        IterVar { var, kind: IterKind::Spatial, binding: binding.into() }
    }

    /// Reduction iterator bound to `binding`.
    pub fn reduce(var: Var, binding: impl Into<Expr>) -> Self {
        IterVar { var, kind: IterKind::Reduce, binding: binding.into() }
    }
}

/// A TensorIR-style block: an isolation boundary for scheduling carrying
/// iteration semantics and read/write regions (paper §3.3.1 step 2 and the
/// region-analysis step).
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block name, referenced by schedule primitives.
    pub name: Rc<str>,
    /// Iterator variables with semantics and bindings.
    pub iter_vars: Vec<IterVar>,
    /// Buffer regions read by the body.
    pub reads: Vec<BufferRegion>,
    /// Buffer regions written by the body.
    pub writes: Vec<BufferRegion>,
    /// Initialization statement, executed before the first reduction step
    /// of each spatial point.
    pub init: Option<Box<Stmt>>,
    /// Block body.
    pub body: Box<Stmt>,
}

/// A 2-D tile of a buffer used by the tensor-core intrinsic: element
/// `(r, c)` of the tile is `buffer[row0 + r, col0 + c]` (or the flattened
/// equivalent for 1-D buffers via `row_stride`).
#[derive(Debug, Clone, PartialEq)]
pub struct TensorTile {
    /// Underlying buffer.
    pub buffer: Buffer,
    /// Flat offset of element (0, 0).
    pub offset: Expr,
    /// Stride between consecutive tile rows.
    pub row_stride: Expr,
}

/// Statement node.
// `MmaSync` (three inline tiles) dwarfs the other variants, but it is the
// seed's public AST shape and is matched across six modules; boxing it
// buys little since `Stmt` trees are clone-heavy regardless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `for var in 0..extent { body }` — all loops are normalized to start
    /// at zero (offsets live in the body, as in Figure 9 of the paper).
    For {
        /// Loop variable.
        var: Var,
        /// Trip count (loops start at 0).
        extent: Expr,
        /// Execution kind (serial / vectorized / thread-bound / …).
        kind: ForKind,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// Scheduling block.
    Block(Block),
    /// `buffer[indices...] = value`.
    BufferStore {
        /// Target buffer.
        buffer: Buffer,
        /// Per-dimension indices.
        indices: Vec<Expr>,
        /// Stored value.
        value: Expr,
    },
    /// Statement sequence.
    Seq(Vec<Stmt>),
    /// Conditional.
    IfThenElse {
        /// Predicate.
        cond: Expr,
        /// Taken branch.
        then_branch: Box<Stmt>,
        /// Optional fallback branch.
        else_branch: Option<Box<Stmt>>,
    },
    /// `let var = value in body`.
    Let {
        /// Bound variable.
        var: Var,
        /// Bound value.
        value: Expr,
        /// Scope of the binding.
        body: Box<Stmt>,
    },
    /// Scoped allocation of a non-global buffer (shared/local staging).
    Allocate {
        /// The staging buffer (non-global scope).
        buffer: Buffer,
        /// Scope of the allocation.
        body: Box<Stmt>,
    },
    /// Expression evaluated for effect.
    Evaluate(Expr),
    /// Tensor-core matrix-multiply-accumulate:
    /// `C[m,n] += A[m,k] * B[k,n]` over `m × n × k` tiles. Produced by the
    /// `tensorize` schedule primitive; executed functionally by the
    /// interpreter and costed as MMA ops by the simulator.
    MmaSync {
        /// Accumulator tile.
        c: TensorTile,
        /// Left operand tile.
        a: TensorTile,
        /// Right operand tile.
        b: TensorTile,
        /// Tile rows of `C`.
        m: usize,
        /// Tile columns of `C`.
        n: usize,
        /// Reduction depth.
        k: usize,
    },
}

impl Stmt {
    /// Empty statement.
    #[must_use]
    pub fn nop() -> Stmt {
        Stmt::Seq(Vec::new())
    }

    /// Sequence two statements, flattening nested sequences.
    #[must_use]
    pub fn then(self, next: Stmt) -> Stmt {
        match (self, next) {
            (Stmt::Seq(mut a), Stmt::Seq(b)) => {
                a.extend(b);
                Stmt::Seq(a)
            }
            (Stmt::Seq(mut a), b) => {
                a.push(b);
                Stmt::Seq(a)
            }
            (a, Stmt::Seq(mut b)) => {
                b.insert(0, a);
                Stmt::Seq(b)
            }
            (a, b) => Stmt::Seq(vec![a, b]),
        }
    }

    /// Serial `for` loop helper.
    pub fn for_serial(var: Var, extent: impl Into<Expr>, body: Stmt) -> Stmt {
        Stmt::For { var, extent: extent.into(), kind: ForKind::Serial, body: Box::new(body) }
    }

    /// Substitute variable `var` with expression `with` everywhere.
    #[must_use]
    pub fn substitute(&self, var: &Var, with: &Expr) -> Stmt {
        match self {
            Stmt::For { var: v, extent, kind, body } => {
                if v == var {
                    // Shadowed; extent still sees the outer binding.
                    Stmt::For {
                        var: v.clone(),
                        extent: extent.substitute(var, with),
                        kind: *kind,
                        body: body.clone(),
                    }
                } else {
                    Stmt::For {
                        var: v.clone(),
                        extent: extent.substitute(var, with),
                        kind: *kind,
                        body: Box::new(body.substitute(var, with)),
                    }
                }
            }
            Stmt::Block(b) => {
                let iter_vars = b
                    .iter_vars
                    .iter()
                    .map(|iv| IterVar {
                        var: iv.var.clone(),
                        kind: iv.kind,
                        binding: iv.binding.substitute(var, with),
                    })
                    .collect();
                // Block-local iter vars shadow; body and regions untouched
                // if shadowed.
                let shadowed = b.iter_vars.iter().any(|iv| &iv.var == var);
                let sub_stmt =
                    |s: &Stmt| if shadowed { s.clone() } else { s.substitute(var, with) };
                let sub_regions = |rs: &[BufferRegion]| -> Vec<BufferRegion> {
                    rs.iter()
                        .map(|r| if shadowed { r.clone() } else { r.substitute(var, with) })
                        .collect()
                };
                Stmt::Block(Block {
                    name: b.name.clone(),
                    iter_vars,
                    reads: sub_regions(&b.reads),
                    writes: sub_regions(&b.writes),
                    init: b.init.as_ref().map(|s| Box::new(sub_stmt(s))),
                    body: Box::new(sub_stmt(&b.body)),
                })
            }
            Stmt::BufferStore { buffer, indices, value } => Stmt::BufferStore {
                buffer: buffer.substitute(var, with),
                indices: indices.iter().map(|e| e.substitute(var, with)).collect(),
                value: value.substitute(var, with),
            },
            Stmt::Seq(stmts) => Stmt::Seq(stmts.iter().map(|s| s.substitute(var, with)).collect()),
            Stmt::IfThenElse { cond, then_branch, else_branch } => Stmt::IfThenElse {
                cond: cond.substitute(var, with),
                then_branch: Box::new(then_branch.substitute(var, with)),
                else_branch: else_branch.as_ref().map(|s| Box::new(s.substitute(var, with))),
            },
            Stmt::Let { var: v, value, body } => {
                let value = value.substitute(var, with);
                if v == var {
                    Stmt::Let { var: v.clone(), value, body: body.clone() }
                } else {
                    Stmt::Let { var: v.clone(), value, body: Box::new(body.substitute(var, with)) }
                }
            }
            Stmt::Allocate { buffer, body } => Stmt::Allocate {
                buffer: buffer.substitute(var, with),
                body: Box::new(body.substitute(var, with)),
            },
            Stmt::Evaluate(e) => Stmt::Evaluate(e.substitute(var, with)),
            Stmt::MmaSync { c, a, b, m, n, k } => {
                let sub_tile = |t: &TensorTile| TensorTile {
                    buffer: t.buffer.substitute(var, with),
                    offset: t.offset.substitute(var, with),
                    row_stride: t.row_stride.substitute(var, with),
                };
                Stmt::MmaSync {
                    c: sub_tile(c),
                    a: sub_tile(a),
                    b: sub_tile(b),
                    m: *m,
                    n: *n,
                    k: *k,
                }
            }
        }
    }

    /// Visit every statement node (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::For { body, .. } | Stmt::Allocate { body, .. } | Stmt::Let { body, .. } => {
                body.walk(f);
            }
            Stmt::Block(b) => {
                if let Some(init) = &b.init {
                    init.walk(f);
                }
                b.body.walk(f);
            }
            Stmt::Seq(stmts) => {
                for s in stmts {
                    s.walk(f);
                }
            }
            Stmt::IfThenElse { then_branch, else_branch, .. } => {
                then_branch.walk(f);
                if let Some(e) = else_branch {
                    e.walk(f);
                }
            }
            Stmt::BufferStore { .. } | Stmt::Evaluate(_) | Stmt::MmaSync { .. } => {}
        }
    }

    /// Rewrite statements bottom-up with `f` applied after children.
    #[must_use]
    pub fn transform(&self, f: &impl Fn(Stmt) -> Stmt) -> Stmt {
        let rebuilt = match self {
            Stmt::For { var, extent, kind, body } => Stmt::For {
                var: var.clone(),
                extent: extent.clone(),
                kind: *kind,
                body: Box::new(body.transform(f)),
            },
            Stmt::Block(b) => Stmt::Block(Block {
                name: b.name.clone(),
                iter_vars: b.iter_vars.clone(),
                reads: b.reads.clone(),
                writes: b.writes.clone(),
                init: b.init.as_ref().map(|s| Box::new(s.transform(f))),
                body: Box::new(b.body.transform(f)),
            }),
            Stmt::Seq(stmts) => Stmt::Seq(stmts.iter().map(|s| s.transform(f)).collect()),
            Stmt::IfThenElse { cond, then_branch, else_branch } => Stmt::IfThenElse {
                cond: cond.clone(),
                then_branch: Box::new(then_branch.transform(f)),
                else_branch: else_branch.as_ref().map(|s| Box::new(s.transform(f))),
            },
            Stmt::Let { var, value, body } => Stmt::Let {
                var: var.clone(),
                value: value.clone(),
                body: Box::new(body.transform(f)),
            },
            Stmt::Allocate { buffer, body } => {
                Stmt::Allocate { buffer: buffer.clone(), body: Box::new(body.transform(f)) }
            }
            s => s.clone(),
        };
        f(rebuilt)
    }

    /// Find the first block with the given name.
    #[must_use]
    pub fn find_block(&self, name: &str) -> Option<Block> {
        let mut found = None;
        self.walk(&mut |s| {
            if found.is_none() {
                if let Stmt::Block(b) = s {
                    if &*b.name == name {
                        found = Some(b.clone());
                    }
                }
            }
        });
        found
    }

    /// Collect the chain of loop variables (outer→inner) leading to the
    /// named block, considering only loops on the path.
    #[must_use]
    pub fn loops_of_block(&self, name: &str) -> Option<Vec<(Var, Expr, ForKind)>> {
        fn go(s: &Stmt, name: &str, path: &mut Vec<(Var, Expr, ForKind)>) -> bool {
            match s {
                Stmt::For { var, extent, kind, body } => {
                    path.push((var.clone(), extent.clone(), *kind));
                    if go(body, name, path) {
                        return true;
                    }
                    path.pop();
                    false
                }
                Stmt::Block(b) => {
                    if &*b.name == name {
                        return true;
                    }
                    b.body.walk(&mut |_| {});
                    go(&b.body, name, path)
                }
                Stmt::Seq(stmts) => stmts.iter().any(|s| go(s, name, path)),
                Stmt::IfThenElse { then_branch, else_branch, .. } => {
                    go(then_branch, name, path)
                        || else_branch.as_ref().is_some_and(|e| go(e, name, path))
                }
                Stmt::Let { body, .. } | Stmt::Allocate { body, .. } => go(body, name, path),
                _ => false,
            }
        }
        let mut path = Vec::new();
        if go(self, name, &mut path) {
            Some(path)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Scope;
    use crate::dtype::DType;

    fn sample_loop() -> Stmt {
        let i = Var::i32("i");
        let j = Var::i32("j");
        let a = Buffer::new("A", DType::F32, vec![Expr::i32(8), Expr::i32(8)], Scope::Global);
        Stmt::for_serial(
            i.clone(),
            8,
            Stmt::for_serial(
                j.clone(),
                8,
                Stmt::BufferStore {
                    buffer: a,
                    indices: vec![Expr::var(&i), Expr::var(&j)],
                    value: Expr::f32(1.0),
                },
            ),
        )
    }

    #[test]
    fn then_flattens_sequences() {
        let s = Stmt::nop().then(Stmt::nop()).then(Stmt::Evaluate(Expr::i32(1)));
        match s {
            Stmt::Seq(v) => assert_eq!(v.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn walk_visits_all_nodes() {
        let mut count = 0;
        sample_loop().walk(&mut |_| count += 1);
        assert_eq!(count, 3); // two fors + store
    }

    #[test]
    fn substitute_respects_shadowing() {
        let i = Var::i32("i");
        let inner = Stmt::for_serial(i.clone(), 4, Stmt::Evaluate(Expr::var(&i)));
        let subbed = inner.substitute(&i, &Expr::i32(7));
        // The loop variable shadows: body unchanged.
        match subbed {
            Stmt::For { body, .. } => match *body {
                Stmt::Evaluate(Expr::Var(v)) => assert_eq!(&*v.name, "i"),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loops_of_block_returns_path() {
        let i = Var::i32("i");
        let blk = Stmt::Block(Block {
            name: "b".into(),
            iter_vars: vec![],
            reads: vec![],
            writes: vec![],
            init: None,
            body: Box::new(Stmt::nop()),
        });
        let s = Stmt::for_serial(i.clone(), 4, blk);
        let loops = s.loops_of_block("b").unwrap();
        assert_eq!(loops.len(), 1);
        assert_eq!(&*loops[0].0.name, "i");
        assert!(s.loops_of_block("missing").is_none());
    }

    #[test]
    fn transform_rewrites_bottom_up() {
        let rewritten = sample_loop().transform(&|s| match s {
            Stmt::For { var, extent, body, .. } => {
                Stmt::For { var, extent, kind: ForKind::Unrolled, body }
            }
            s => s,
        });
        let mut unrolled = 0;
        rewritten.walk(&mut |s| {
            if let Stmt::For { kind: ForKind::Unrolled, .. } = s {
                unrolled += 1;
            }
        });
        assert_eq!(unrolled, 2);
    }
}
