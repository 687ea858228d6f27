//! Multi-dimensional buffers referenced by the loop-level IR.

use crate::dtype::DType;
use crate::expr::Expr;
use std::fmt;
use std::rc::Rc;

/// Storage scope of a buffer, mirroring the GPU memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scope {
    /// Device global memory (HBM).
    #[default]
    Global,
    /// Per-thread-block shared memory (SRAM).
    Shared,
    /// Per-thread registers / local memory.
    Local,
    /// Tensor-core matrix fragment registers.
    WmmaFragment,
}

impl Scope {
    /// Printable name (matches CUDA terminology).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scope::Global => "global",
            Scope::Shared => "shared",
            Scope::Local => "local",
            Scope::WmmaFragment => "wmma.fragment",
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An n-dimensional buffer. Identity is by `name`; lowering keeps buffer
/// names unique within a function.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    /// Unique name within the enclosing function.
    pub name: Rc<str>,
    /// Element type.
    pub dtype: DType,
    /// Per-dimension extents. After sparse buffer lowering (Stage III) every
    /// buffer is 1-dimensional.
    pub shape: Vec<Expr>,
    /// Memory scope.
    pub scope: Scope,
}

impl Buffer {
    /// Create a buffer.
    pub fn new(name: impl Into<Rc<str>>, dtype: DType, shape: Vec<Expr>, scope: Scope) -> Self {
        Buffer { name: name.into(), dtype, shape, scope }
    }

    /// Global-scope `float32` buffer.
    pub fn global_f32(name: impl Into<Rc<str>>, shape: Vec<Expr>) -> Self {
        Buffer::new(name, DType::F32, shape, Scope::Global)
    }

    /// Global-scope `int32` buffer (auxiliary indptr/indices arrays).
    pub fn global_i32(name: impl Into<Rc<str>>, shape: Vec<Expr>) -> Self {
        Buffer::new(name, DType::I32, shape, Scope::Global)
    }

    /// Number of dimensions.
    #[must_use]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total element count when the shape is fully constant.
    #[must_use]
    pub fn const_len(&self) -> Option<i64> {
        self.shape.iter().map(Expr::as_const_int).try_fold(1i64, |acc, d| d.map(|d| acc * d))
    }

    /// The buffer with `var` replaced by `with` in its shape, each extent
    /// simplified: a shape over a scalar parameter (`[nnz]`) specialized
    /// to a value reads as the constant-shaped buffer would.
    #[must_use]
    pub fn substitute(&self, var: &crate::expr::Var, with: &Expr) -> Buffer {
        let dim = |d: &Expr| match d {
            Expr::Int { .. } => d.clone(),
            _ => d.substitute(var, with).simplify(),
        };
        Buffer {
            name: self.name.clone(),
            dtype: self.dtype,
            shape: self.shape.iter().map(dim).collect(),
            scope: self.scope,
        }
    }

    /// Read expression `self[indices...]`.
    #[must_use]
    pub fn load(&self, indices: Vec<Expr>) -> Expr {
        Expr::BufferLoad { buffer: self.clone(), indices }
    }
}

/// A rectangular region of a buffer: per-dimension `(offset, extent)`.
/// Produced by read/write region analysis and attached to blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferRegion {
    /// The buffer accessed.
    pub buffer: Buffer,
    /// Per-dimension `(min, extent)` pairs.
    pub ranges: Vec<(Expr, Expr)>,
}

impl BufferRegion {
    /// Region covering the whole buffer.
    #[must_use]
    pub fn full(buffer: &Buffer) -> Self {
        let ranges = buffer.shape.iter().map(|d| (Expr::i32(0), d.clone())).collect();
        BufferRegion { buffer: buffer.clone(), ranges }
    }

    /// Single-point region at `indices`.
    #[must_use]
    pub fn point(buffer: &Buffer, indices: &[Expr]) -> Self {
        let ranges = indices.iter().map(|i| (i.clone(), Expr::i32(1))).collect();
        BufferRegion { buffer: buffer.clone(), ranges }
    }

    /// The region with `var` replaced by `with` in its buffer's shape (see
    /// [`Buffer::substitute`]) and in its ranges.
    #[must_use]
    pub fn substitute(&self, var: &crate::expr::Var, with: &Expr) -> BufferRegion {
        let sub = |e: &Expr| e.substitute(var, with);
        BufferRegion {
            buffer: self.buffer.substitute(var, with),
            ranges: self.ranges.iter().map(|(min, extent)| (sub(min), sub(extent))).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_len_of_static_shape() {
        let b = Buffer::global_f32("A", vec![Expr::i32(4), Expr::i32(8)]);
        assert_eq!(b.const_len(), Some(32));
    }

    #[test]
    fn const_len_of_symbolic_shape_is_none() {
        use crate::expr::Var;
        let n = Var::i32("n");
        let b = Buffer::global_f32("A", vec![Expr::var(&n)]);
        assert_eq!(b.const_len(), None);
    }

    #[test]
    fn full_region_covers_shape() {
        let b = Buffer::global_f32("A", vec![Expr::i32(4), Expr::i32(8)]);
        let r = BufferRegion::full(&b);
        assert_eq!(r.ranges.len(), 2);
        assert_eq!(r.ranges[1].1.as_const_int(), Some(8));
    }

    #[test]
    fn scope_names() {
        assert_eq!(Scope::Shared.name(), "shared");
        assert_eq!(Scope::WmmaFragment.to_string(), "wmma.fragment");
    }
}
