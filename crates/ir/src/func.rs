//! Function container for the loop-level IR.

use crate::buffer::Buffer;
use crate::expr::{Expr, Var};
use crate::stmt::Stmt;
use std::collections::HashMap;
use std::rc::Rc;

/// A primitive function: scalar parameters, externally bound buffers and a
/// statement body. The unit of lowering, scheduling and code generation
/// (analogue of TensorIR's `PrimFunc`).
#[derive(Debug, Clone, PartialEq)]
pub struct PrimFunc {
    /// Function name (becomes the kernel name in codegen).
    pub name: Rc<str>,
    /// Scalar parameters (extents such as `m`, `n`, `nnz`, `feat_size`).
    pub params: Vec<Var>,
    /// Buffers bound by the caller (global-scope inputs/outputs).
    pub buffers: Vec<Buffer>,
    /// Body.
    pub body: Stmt,
}

impl PrimFunc {
    /// Create a function.
    pub fn new(
        name: impl Into<Rc<str>>,
        params: Vec<Var>,
        buffers: Vec<Buffer>,
        body: Stmt,
    ) -> Self {
        PrimFunc { name: name.into(), params, buffers, body }
    }

    /// Look up a parameter by name.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<&Var> {
        self.params.iter().find(|v| &*v.name == name)
    }

    /// Look up a bound buffer by name.
    #[must_use]
    pub fn buffer(&self, name: &str) -> Option<&Buffer> {
        self.buffers.iter().find(|b| &*b.name == name)
    }

    /// Names of every buffer allocated inside the body (non-global staging).
    #[must_use]
    pub fn local_allocations(&self) -> Vec<Buffer> {
        let mut out = Vec::new();
        self.body.walk(&mut |s| {
            if let Stmt::Allocate { buffer, .. } = s {
                out.push(buffer.clone());
            }
        });
        out
    }

    /// Generate a fresh variable name not colliding with params or loop vars.
    #[must_use]
    pub fn fresh_name(&self, base: &str) -> String {
        let mut used: Vec<String> = self.params.iter().map(|p| p.name.to_string()).collect();
        self.body.walk(&mut |s| {
            if let Stmt::For { var, .. } = s {
                used.push(var.name.to_string());
            }
            if let Stmt::Let { var, .. } = s {
                used.push(var.name.to_string());
            }
        });
        if !used.iter().any(|u| u == base) {
            return base.to_string();
        }
        for i in 0.. {
            let cand = format!("{base}_{i}");
            if !used.iter().any(|u| u == &cand) {
                return cand;
            }
        }
        unreachable!()
    }

    /// Substitute scalar parameters with constant values, producing a
    /// specialized function (used when the sparse structure is known at
    /// compile time, §2 of the paper): every occurrence goes, in the body,
    /// in the shapes of the buffers it touches and in the declared ones,
    /// so specializing a function whose `nnz` is a parameter gives the
    /// function built with that `nnz` as a constant.
    #[must_use]
    pub fn specialize(&self, bindings: &HashMap<String, i64>) -> PrimFunc {
        let mut f = PrimFunc { params: Vec::new(), ..self.clone() };
        for p in &self.params {
            let Some(v) = bindings.get(&*p.name) else {
                f.params.push(p.clone());
                continue;
            };
            let c = Expr::Int { value: *v, dtype: p.dtype };
            f.body = f.body.substitute(p, &c);
            f.buffers = f.buffers.iter().map(|b| b.substitute(p, &c)).collect();
        }
        f
    }

    /// All block names in the body, in pre-order.
    #[must_use]
    pub fn block_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.body.walk(&mut |s| {
            if let Stmt::Block(b) = s {
                out.push(b.name.to_string());
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferRegion;
    use crate::dtype::DType;
    use crate::stmt::{Block, IterVar};

    #[test]
    fn specialize_substitutes_params_and_shapes() {
        let n = Var::i32("n");
        let a = Buffer::global_f32("A", vec![Expr::var(&n)]);
        let (i, vi) = (Var::i32("i"), Var::i32("vi"));
        // The block writes `A[vi]` and reads all of `A[0..n]`: both
        // regions mention the param, the read's through `A`'s shape too.
        let block = Stmt::Block(Block {
            name: "zero".into(),
            iter_vars: vec![IterVar::spatial(vi.clone(), Expr::var(&i))],
            reads: vec![BufferRegion::full(&a)],
            writes: vec![BufferRegion::point(&a, &[Expr::var(&vi)])],
            init: None,
            body: Box::new(Stmt::BufferStore {
                buffer: a.clone(),
                indices: vec![Expr::var(&vi)],
                value: Expr::f32(0.0),
            }),
        });
        let body = Stmt::for_serial(i.clone(), Expr::var(&n), block);
        let f = PrimFunc::new("zero", vec![n.clone()], vec![a], body);
        let mut bind = HashMap::new();
        bind.insert("n".to_string(), 16i64);
        let g = f.specialize(&bind);
        assert!(g.params.is_empty());
        assert_eq!(g.buffers[0].shape[0].as_const_int(), Some(16));
        let Stmt::For { extent, body, .. } = &g.body else { panic!("unexpected {:?}", g.body) };
        assert_eq!(extent.as_const_int(), Some(16));
        let Stmt::Block(b) = &**body else { panic!("unexpected {body:?}") };
        let read = &b.reads[0];
        assert_eq!(read.ranges[0].1.as_const_int(), Some(16), "the read's extent");
        assert_eq!(read.buffer.shape[0].as_const_int(), Some(16), "the read's buffer");
        assert_eq!(b.writes[0].buffer.shape[0].as_const_int(), Some(16), "the write's buffer");
        assert_eq!(b.writes[0].ranges[0].0, Expr::var(&vi), "block iter vars stay");
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let n = Var::i32("i");
        let f = PrimFunc::new("f", vec![n], vec![], Stmt::nop());
        assert_eq!(f.fresh_name("i"), "i_0");
        assert_eq!(f.fresh_name("j"), "j");
    }

    #[test]
    fn lookup_param_and_buffer() {
        let n = Var::i32("n");
        let a = Buffer::global_f32("A", vec![Expr::i32(4)]);
        let f = PrimFunc::new("f", vec![n], vec![a], Stmt::nop());
        assert!(f.param("n").is_some());
        assert!(f.param("m").is_none());
        assert!(f.buffer("A").is_some());
        assert_eq!(f.dtype_of_buffer("A"), Some(DType::F32));
    }

    impl PrimFunc {
        fn dtype_of_buffer(&self, name: &str) -> Option<DType> {
            self.buffer(name).map(|b| b.dtype)
        }
    }
}
