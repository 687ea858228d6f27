//! Expression AST for the loop-level IR (Stage II/III of SparseTIR).

use crate::buffer::Buffer;
use crate::dtype::DType;
use std::fmt;
use std::rc::Rc;

/// A scalar variable. Identity is by `name`, which lowering keeps unique
/// within a [`crate::func::PrimFunc`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Var {
    /// Unique name within the enclosing function.
    pub name: Rc<str>,
    /// Scalar type of the variable.
    pub dtype: DType,
}

impl Var {
    /// Create a new variable of the given type.
    pub fn new(name: impl Into<Rc<str>>, dtype: DType) -> Self {
        Var { name: name.into(), dtype }
    }

    /// Convenience constructor for `int32` loop/index variables.
    pub fn i32(name: impl Into<Rc<str>>) -> Self {
        Var::new(name, DType::I32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Binary operator tags for [`Expr::Binary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// Truncating division (operands in lowering are non-negative, so this
    /// coincides with floor division).
    Div,
    /// Remainder matching [`BinOp::Div`].
    Rem,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// True for comparison/logical operators whose result is `Bool`.
    #[must_use]
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }

    /// Source-form symbol used by the printer.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "//",
            BinOp::Rem => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Intrinsic calls understood by the interpreter and code generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `binary_search(buf, lo, hi, x)` — index of `x` in the sorted segment
    /// `buf[lo..hi]`; the compress function `f⁻¹` of SparseTIR's coordinate
    /// translation (paper eq. 4, "find").
    BinarySearch,
    /// `exp(x)`
    Exp,
    /// `sqrt(x)`
    Sqrt,
    /// `relu(x)` = max(x, 0)
    Relu,
}

impl Intrinsic {
    /// Name used in printed IR and generated CUDA.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::BinarySearch => "binary_search",
            Intrinsic::Exp => "exp",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Relu => "relu",
        }
    }
}

/// Expression node. Construct through the helper methods / `From` impls and
/// the `std::ops` overloads rather than spelling out variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer immediate.
    Int {
        /// The literal value.
        value: i64,
        /// Result type.
        dtype: DType,
    },
    /// Floating-point immediate.
    Float {
        /// The literal value.
        value: f64,
        /// Result type.
        dtype: DType,
    },
    /// Variable reference.
    Var(Var),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `select(cond, then, else)` — non-branching conditional.
    Select {
        /// Predicate.
        cond: Box<Expr>,
        /// Value when the predicate holds.
        then: Box<Expr>,
        /// Value otherwise.
        otherwise: Box<Expr>,
    },
    /// Type conversion.
    Cast {
        /// Target type.
        dtype: DType,
        /// Converted expression.
        value: Box<Expr>,
    },
    /// Read `buffer[indices...]`.
    BufferLoad {
        /// Source buffer.
        buffer: Buffer,
        /// Per-dimension indices.
        indices: Vec<Expr>,
    },
    /// Intrinsic call.
    Call {
        /// Which intrinsic.
        intrin: Intrinsic,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// `int32` immediate.
    #[must_use]
    pub fn i32(v: i64) -> Expr {
        Expr::Int { value: v, dtype: DType::I32 }
    }

    /// `float32` immediate.
    #[must_use]
    pub fn f32(v: f64) -> Expr {
        Expr::Float { value: v, dtype: DType::F32 }
    }

    /// Variable reference.
    #[must_use]
    pub fn var(v: &Var) -> Expr {
        Expr::Var(v.clone())
    }

    /// Best-effort result type of the expression.
    #[must_use]
    pub fn dtype(&self) -> DType {
        match self {
            Expr::Int { dtype, .. } | Expr::Float { dtype, .. } | Expr::Cast { dtype, .. } => {
                *dtype
            }
            Expr::Var(v) => v.dtype,
            Expr::Binary { op, lhs, .. } => {
                if op.is_predicate() {
                    DType::Bool
                } else {
                    lhs.dtype()
                }
            }
            Expr::Select { then, .. } => then.dtype(),
            Expr::BufferLoad { buffer, .. } => buffer.dtype,
            Expr::Call { intrin, args } => match intrin {
                Intrinsic::BinarySearch => DType::I32,
                _ => args.first().map_or(DType::F32, Expr::dtype),
            },
        }
    }

    /// `min(self, other)`.
    #[must_use]
    pub fn min(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary { op: BinOp::Min, lhs: Box::new(self), rhs: Box::new(other.into()) }
    }

    /// `max(self, other)`.
    #[must_use]
    pub fn max(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary { op: BinOp::Max, lhs: Box::new(self), rhs: Box::new(other.into()) }
    }

    /// `self == other`.
    #[must_use]
    pub fn eq(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary { op: BinOp::Eq, lhs: Box::new(self), rhs: Box::new(other.into()) }
    }

    /// `self != other`.
    #[must_use]
    pub fn ne(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary { op: BinOp::Ne, lhs: Box::new(self), rhs: Box::new(other.into()) }
    }

    /// `self < other`.
    #[must_use]
    pub fn lt(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary { op: BinOp::Lt, lhs: Box::new(self), rhs: Box::new(other.into()) }
    }

    /// `self <= other`.
    #[must_use]
    pub fn le(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary { op: BinOp::Le, lhs: Box::new(self), rhs: Box::new(other.into()) }
    }

    /// `self > other`.
    #[must_use]
    pub fn gt(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary { op: BinOp::Gt, lhs: Box::new(self), rhs: Box::new(other.into()) }
    }

    /// `self >= other`.
    #[must_use]
    pub fn ge(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary { op: BinOp::Ge, lhs: Box::new(self), rhs: Box::new(other.into()) }
    }

    /// Logical `self && other`.
    #[must_use]
    pub fn and(self, other: impl Into<Expr>) -> Expr {
        Expr::Binary { op: BinOp::And, lhs: Box::new(self), rhs: Box::new(other.into()) }
    }

    /// `select(self, then, otherwise)`.
    #[must_use]
    pub fn select(self, then: impl Into<Expr>, otherwise: impl Into<Expr>) -> Expr {
        Expr::Select {
            cond: Box::new(self),
            then: Box::new(then.into()),
            otherwise: Box::new(otherwise.into()),
        }
    }

    /// `cast(dtype, self)`.
    #[must_use]
    pub fn cast(self, dtype: DType) -> Expr {
        Expr::Cast { dtype, value: Box::new(self) }
    }

    /// If this expression is an integer immediate, return its value.
    #[must_use]
    pub fn as_const_int(&self) -> Option<i64> {
        match self {
            Expr::Int { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Substitute every occurrence of variable `var` with `with`, the
    /// shapes of the buffers it loads from included.
    #[must_use]
    pub fn substitute(&self, var: &Var, with: &Expr) -> Expr {
        match self {
            Expr::Var(v) if v == var => with.clone(),
            Expr::Var(_) | Expr::Int { .. } | Expr::Float { .. } => self.clone(),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.substitute(var, with)),
                rhs: Box::new(rhs.substitute(var, with)),
            },
            Expr::Select { cond, then, otherwise } => Expr::Select {
                cond: Box::new(cond.substitute(var, with)),
                then: Box::new(then.substitute(var, with)),
                otherwise: Box::new(otherwise.substitute(var, with)),
            },
            Expr::Cast { dtype, value } => {
                Expr::Cast { dtype: *dtype, value: Box::new(value.substitute(var, with)) }
            }
            Expr::BufferLoad { buffer, indices } => Expr::BufferLoad {
                buffer: buffer.substitute(var, with),
                indices: indices.iter().map(|e| e.substitute(var, with)).collect(),
            },
            Expr::Call { intrin, args } => Expr::Call {
                intrin: *intrin,
                args: args.iter().map(|e| e.substitute(var, with)).collect(),
            },
        }
    }

    /// Collect the names of all variables referenced by this expression.
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Int { .. } | Expr::Float { .. } => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
            Expr::Select { cond, then, otherwise } => {
                cond.collect_vars(out);
                then.collect_vars(out);
                otherwise.collect_vars(out);
            }
            Expr::Cast { value, .. } => value.collect_vars(out),
            Expr::BufferLoad { indices, .. } => {
                for i in indices {
                    i.collect_vars(out);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Algebraic simplification of the common patterns lowering produces
    /// (`x + 0`, `x * 1`, `x * 0`, constant folding, `0 + x`, `x // 1`).
    #[must_use]
    pub fn simplify(&self) -> Expr {
        match self {
            Expr::Binary { op, lhs, rhs } => {
                let l = lhs.simplify();
                let r = rhs.simplify();
                if let (Some(a), Some(b)) = (l.as_const_int(), r.as_const_int()) {
                    let dtype = l.dtype();
                    let v = match op {
                        BinOp::Add => Some(a + b),
                        BinOp::Sub => Some(a - b),
                        BinOp::Mul => Some(a * b),
                        BinOp::Div if b != 0 => Some(a / b),
                        BinOp::Rem if b != 0 => Some(a % b),
                        BinOp::Min => Some(a.min(b)),
                        BinOp::Max => Some(a.max(b)),
                        _ => None,
                    };
                    if let Some(v) = v {
                        return Expr::Int { value: v, dtype };
                    }
                }
                match (op, l.as_const_int(), r.as_const_int()) {
                    (BinOp::Add, Some(0), _) => r,
                    (BinOp::Add, _, Some(0)) | (BinOp::Sub, _, Some(0)) => l,
                    (BinOp::Mul, Some(1), _) => r,
                    (BinOp::Mul, _, Some(1)) | (BinOp::Div, _, Some(1)) => l,
                    (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => Expr::i32(0),
                    (BinOp::Rem, _, Some(1)) => Expr::i32(0),
                    _ => Expr::Binary { op: *op, lhs: Box::new(l), rhs: Box::new(r) },
                }
            }
            Expr::Select { cond, then, otherwise } => Expr::Select {
                cond: Box::new(cond.simplify()),
                then: Box::new(then.simplify()),
                otherwise: Box::new(otherwise.simplify()),
            },
            Expr::Cast { dtype, value } => {
                Expr::Cast { dtype: *dtype, value: Box::new(value.simplify()) }
            }
            Expr::BufferLoad { buffer, indices } => Expr::BufferLoad {
                buffer: buffer.clone(),
                indices: indices.iter().map(Expr::simplify).collect(),
            },
            Expr::Call { intrin, args } => {
                Expr::Call { intrin: *intrin, args: args.iter().map(Expr::simplify).collect() }
            }
            _ => self.clone(),
        }
    }
}

impl From<&Var> for Expr {
    fn from(v: &Var) -> Self {
        Expr::Var(v.clone())
    }
}

impl From<Var> for Expr {
    fn from(v: Var) -> Self {
        Expr::Var(v)
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::i32(v)
    }
}

impl From<i32> for Expr {
    fn from(v: i32) -> Self {
        Expr::i32(i64::from(v))
    }
}

impl From<usize> for Expr {
    fn from(v: usize) -> Self {
        Expr::i32(v as i64)
    }
}

impl From<f32> for Expr {
    fn from(v: f32) -> Self {
        Expr::f32(f64::from(v))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: Into<Expr>> std::ops::$trait<R> for Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                Expr::Binary { op: $op, lhs: Box::new(self), rhs: Box::new(rhs.into()) }
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);
impl_binop!(Rem, rem, BinOp::Rem);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, Scope};

    #[test]
    fn operator_overloads_build_binary_nodes() {
        let i = Var::i32("i");
        let e = Expr::var(&i) * 2 + 1;
        match &e {
            Expr::Binary { op: BinOp::Add, lhs, .. } => match lhs.as_ref() {
                Expr::Binary { op: BinOp::Mul, .. } => {}
                other => panic!("expected mul, got {other:?}"),
            },
            other => panic!("expected add, got {other:?}"),
        }
    }

    #[test]
    fn simplify_folds_constants_and_identities() {
        let i = Var::i32("i");
        let e = (Expr::var(&i) + 0) * 1 + (Expr::i32(2) * Expr::i32(3));
        let s = e.simplify();
        match s {
            Expr::Binary { op: BinOp::Add, lhs, rhs } => {
                assert_eq!(*lhs, Expr::var(&i));
                assert_eq!(rhs.as_const_int(), Some(6));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[allow(clippy::erasing_op)] // `x * 0` is the expression under test
    fn simplify_mul_zero() {
        let i = Var::i32("i");
        let e = Expr::var(&i) * 0;
        assert_eq!(e.simplify().as_const_int(), Some(0));
    }

    #[test]
    fn substitute_replaces_in_loads() {
        let i = Var::i32("i");
        let buf = Buffer::new("A", DType::F32, vec![Expr::i32(16)], Scope::Global);
        let e = Expr::BufferLoad { buffer: buf, indices: vec![Expr::var(&i) + 1] };
        let sub = e.substitute(&i, &Expr::i32(3));
        match sub {
            Expr::BufferLoad { indices, .. } => {
                assert_eq!(indices[0].simplify().as_const_int(), Some(4));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn collect_vars_dedups() {
        let i = Var::i32("i");
        let j = Var::i32("j");
        let e = Expr::var(&i) + Expr::var(&j) * Expr::var(&i);
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn dtype_of_predicate_is_bool() {
        let e = Expr::i32(1).lt(2);
        assert_eq!(e.dtype(), DType::Bool);
    }
}
