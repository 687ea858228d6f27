//! Reference interpreter for the loop-level IR.
//!
//! The interpreter establishes *functional* semantics: every kernel in this
//! workspace is validated by interpreting its lowered Stage III IR against
//! the dense/sparse reference routines in `sparsetir-smat`. Performance is
//! modeled separately by the GPU simulator crate; the interpreter executes
//! thread-bound loops sequentially (a valid serialization, since blocks
//! carry spatial/reduction semantics).

use crate::buffer::Buffer;
use crate::dtype::DType;
use crate::expr::{BinOp, Expr, Intrinsic};
use crate::func::PrimFunc;
use crate::stmt::{IterKind, Stmt, TensorTile};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

/// Flat tensor storage bound to a buffer name.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorData {
    /// `float32` (also backs `float16` buffers functionally).
    F32(Vec<f32>),
    /// `int32` (indptr/indices auxiliary arrays).
    I32(Vec<i32>),
}

impl TensorData {
    /// Zero-filled storage of `len` elements matching `dtype`.
    #[must_use]
    pub fn zeros(dtype: DType, len: usize) -> TensorData {
        if dtype.is_float() {
            TensorData::F32(vec![0.0; len])
        } else {
            TensorData::I32(vec![0; len])
        }
    }

    /// Element count.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            TensorData::F32(v) => v.len(),
            TensorData::I32(v) => v.len(),
        }
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View as `f32` slice.
    ///
    /// # Panics
    /// Panics if the storage is integer.
    #[must_use]
    pub fn as_f32(&self) -> &[f32] {
        match self {
            TensorData::F32(v) => v,
            TensorData::I32(_) => panic!("expected f32 tensor"),
        }
    }

    /// View as `i32` slice.
    ///
    /// # Panics
    /// Panics if the storage is floating-point.
    #[must_use]
    pub fn as_i32(&self) -> &[i32] {
        match self {
            TensorData::I32(v) => v,
            TensorData::F32(_) => panic!("expected i32 tensor"),
        }
    }
}

impl From<Vec<f32>> for TensorData {
    fn from(v: Vec<f32>) -> Self {
        TensorData::F32(v)
    }
}

impl From<Vec<i32>> for TensorData {
    fn from(v: Vec<i32>) -> Self {
        TensorData::I32(v)
    }
}

/// Operation categories reported by the counting interpreter
/// ([`eval_func_counting`]): used by `analysis::count_ops` to cross-check
/// simulator plans against the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One floating-point arithmetic operation.
    Flop,
    /// One buffer element load.
    Load,
    /// One buffer element store.
    Store,
}

/// Scalar runtime value. Floats are `f32`, the one float dtype the IR
/// computes in (`F16` buffers are stored as `f32` too).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Floating value.
    Float(f32),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    fn as_int(self) -> Result<i64, EvalError> {
        match self {
            Value::Int(v) => Ok(v),
            Value::Bool(b) => Ok(i64::from(b)),
            Value::Float(v) => Err(EvalError::new(format!("expected int, got float {v}"))),
        }
    }

    fn as_float(self) -> f32 {
        match self {
            Value::Int(v) => v as f32,
            Value::Float(v) => v,
            Value::Bool(b) => f32::from(u8::from(b)),
        }
    }

    /// Cast to an integer dtype: an int or bool operand exactly, a float
    /// operand truncated toward zero (saturating, NaN → 0).
    fn as_cast_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Bool(b) => i64::from(b),
            Value::Float(v) => v as i64,
        }
    }

    fn as_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
        }
    }
}

/// Error raised during interpretation (unbound names, OOB accesses, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    message: String,
}

impl EvalError {
    fn new(message: impl Into<String>) -> Self {
        EvalError { message: message.into() }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// Element count of an `Allocate` of buffer `name` with the evaluated
/// extents `dims` — one rule and one error text for the interpreter and
/// the compiled executor: no extent negative, and the product a size a
/// `Vec` of 4-byte elements can have.
pub(crate) fn alloc_len(name: &str, dims: &[i64]) -> Result<usize, String> {
    const MAX_ELEMS: i64 = isize::MAX as i64 / 4;
    if let Some(d) = dims.iter().find(|d| **d < 0) {
        return Err(format!("negative extent {d} in allocation of buffer `{name}`"));
    }
    dims.iter()
        .try_fold(1i64, |len, d| len.checked_mul(*d))
        .filter(|len| *len <= MAX_ELEMS)
        .and_then(|len| usize::try_from(len).ok())
        .ok_or_else(|| format!("allocation of buffer `{name}` overflows ({dims:?} elements)"))
}

struct Interp<'a, 'h> {
    env: HashMap<String, i64>,
    tensors: &'a mut HashMap<String, TensorData>,
    locals: Vec<String>,
    hook: Option<RefCell<&'h mut dyn FnMut(OpKind)>>,
}

impl<'a, 'h> Interp<'a, 'h> {
    fn tick(&self, kind: OpKind) {
        if let Some(h) = &self.hook {
            (h.borrow_mut())(kind);
        }
    }

    fn eval(&self, e: &Expr) -> Result<Value, EvalError> {
        match e {
            Expr::Int { value, .. } => Ok(Value::Int(*value)),
            // The literal rounds to `f32` once, here.
            Expr::Float { value, .. } => Ok(Value::Float(*value as f32)),
            Expr::Var(v) => self
                .env
                .get(&*v.name.to_string())
                .copied()
                .map(Value::Int)
                .ok_or_else(|| EvalError::new(format!("unbound variable `{}`", v.name))),
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                self.eval_binop(*op, l, r)
            }
            Expr::Select { cond, then, otherwise } => {
                if self.eval(cond)?.as_bool() {
                    self.eval(then)
                } else {
                    self.eval(otherwise)
                }
            }
            Expr::Cast { dtype, value } => {
                let v = self.eval(value)?;
                Ok(if dtype.is_float() {
                    Value::Float(v.as_float())
                } else {
                    Value::Int(v.as_cast_int())
                })
            }
            Expr::BufferLoad { buffer, indices } => {
                self.tick(OpKind::Load);
                let flat = self.flatten_index(buffer, indices)?;
                let data = self
                    .tensors
                    .get(&*buffer.name.to_string())
                    .ok_or_else(|| EvalError::new(format!("unbound buffer `{}`", buffer.name)))?;
                match data {
                    TensorData::F32(v) => v
                        .get(flat)
                        .map(|x| Value::Float(*x))
                        .ok_or_else(|| oob(&buffer.name, flat, v.len())),
                    TensorData::I32(v) => v
                        .get(flat)
                        .map(|x| Value::Int(i64::from(*x)))
                        .ok_or_else(|| oob(&buffer.name, flat, v.len())),
                }
            }
            Expr::Call { intrin, args } => self.eval_call(*intrin, args),
        }
    }

    fn eval_binop(&self, op: BinOp, l: Value, r: Value) -> Result<Value, EvalError> {
        use BinOp::*;
        let float = matches!(l, Value::Float(_)) || matches!(r, Value::Float(_));
        if op.is_predicate() {
            let b = if float {
                let (a, b) = (l.as_float(), r.as_float());
                match op {
                    Eq => a == b,
                    Ne => a != b,
                    Lt => a < b,
                    Le => a <= b,
                    Gt => a > b,
                    Ge => a >= b,
                    And => l.as_bool() && r.as_bool(),
                    Or => l.as_bool() || r.as_bool(),
                    _ => unreachable!(),
                }
            } else {
                let (a, b) = (l.as_int()?, r.as_int()?);
                match op {
                    Eq => a == b,
                    Ne => a != b,
                    Lt => a < b,
                    Le => a <= b,
                    Gt => a > b,
                    Ge => a >= b,
                    And => a != 0 && b != 0,
                    Or => a != 0 || b != 0,
                    _ => unreachable!(),
                }
            };
            return Ok(Value::Bool(b));
        }
        if float {
            self.tick(OpKind::Flop);
            let (a, b) = (l.as_float(), r.as_float());
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Rem => a % b,
                Min => a.min(b),
                Max => a.max(b),
                _ => unreachable!(),
            };
            Ok(Value::Float(v))
        } else {
            let (a, b) = (l.as_int()?, r.as_int()?);
            // Wrapping `+ − *`, and a typed error where the quotient
            // overflows: one meaning in every evaluator.
            let v = match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div => {
                    if b == 0 {
                        return Err(EvalError::new("integer division by zero"));
                    }
                    a.checked_div_euclid(b)
                        .ok_or_else(|| EvalError::new("integer division overflow"))?
                }
                Rem => {
                    if b == 0 {
                        return Err(EvalError::new("integer remainder by zero"));
                    }
                    a.checked_rem_euclid(b)
                        .ok_or_else(|| EvalError::new("integer remainder overflow"))?
                }
                Min => a.min(b),
                Max => a.max(b),
                _ => unreachable!(),
            };
            Ok(Value::Int(v))
        }
    }

    fn eval_call(&self, intrin: Intrinsic, args: &[Expr]) -> Result<Value, EvalError> {
        match intrin {
            Intrinsic::BinarySearch => {
                let [buf, lo, hi, x] = args else {
                    return Err(EvalError::new("binary_search expects 4 args"));
                };
                let Expr::BufferLoad { buffer, .. } = buf else {
                    return Err(EvalError::new("binary_search arg 0 must name a buffer"));
                };
                let lo = self.eval(lo)?.as_int()? as usize;
                let hi = self.eval(hi)?.as_int()? as usize;
                let x = self.eval(x)?.as_int()? as i32;
                let data = self
                    .tensors
                    .get(&*buffer.name.to_string())
                    .ok_or_else(|| EvalError::new(format!("unbound buffer `{}`", buffer.name)))?;
                let seg = &data.as_i32()[lo..hi];
                let pos = seg.partition_point(|&v| v < x);
                Ok(Value::Int(pos as i64))
            }
            Intrinsic::Exp => Ok(Value::Float(self.eval(&args[0])?.as_float().exp())),
            Intrinsic::Sqrt => Ok(Value::Float(self.eval(&args[0])?.as_float().sqrt())),
            Intrinsic::Relu => Ok(Value::Float(self.eval(&args[0])?.as_float().max(0.0))),
        }
    }

    fn flatten_index(&self, buffer: &Buffer, indices: &[Expr]) -> Result<usize, EvalError> {
        if indices.len() != buffer.shape.len() {
            return Err(EvalError::new(format!(
                "buffer `{}` has {} dims but {} indices given",
                buffer.name,
                buffer.shape.len(),
                indices.len()
            )));
        }
        let mut flat: i64 = 0;
        for (idx, dim) in indices.iter().zip(&buffer.shape) {
            let d = self.eval(dim)?.as_int()?;
            let i = self.eval(idx)?.as_int()?;
            if i < 0 || i >= d {
                return Err(EvalError::new(format!(
                    "index {i} out of bounds for dim of extent {d} in buffer `{}`",
                    buffer.name
                )));
            }
            flat = flat * d + i;
        }
        Ok(flat as usize)
    }

    fn store(&mut self, buffer: &Buffer, indices: &[Expr], value: Value) -> Result<(), EvalError> {
        self.tick(OpKind::Store);
        let flat = self.flatten_index(buffer, indices)?;
        let data = self
            .tensors
            .get_mut(&*buffer.name.to_string())
            .ok_or_else(|| EvalError::new(format!("unbound buffer `{}`", buffer.name)))?;
        match data {
            TensorData::F32(v) => {
                let len = v.len();
                *v.get_mut(flat).ok_or_else(|| oob(&buffer.name, flat, len))? = value.as_float();
            }
            TensorData::I32(v) => {
                let len = v.len();
                *v.get_mut(flat).ok_or_else(|| oob(&buffer.name, flat, len))? =
                    value.as_int()? as i32;
            }
        }
        Ok(())
    }

    fn exec(&mut self, s: &Stmt) -> Result<(), EvalError> {
        match s {
            Stmt::For { var, extent, body, .. } => {
                let n = self.eval(extent)?.as_int()?;
                let name = var.name.to_string();
                let saved = self.env.get(&name).copied();
                for i in 0..n {
                    self.env.insert(name.clone(), i);
                    self.exec(body)?;
                }
                restore(&mut self.env, name, saved);
                Ok(())
            }
            Stmt::Block(b) => {
                // Bind iter vars from their binding expressions.
                let mut saved = Vec::new();
                let mut init_needed = true;
                for iv in &b.iter_vars {
                    let v = self.eval(&iv.binding)?.as_int()?;
                    if iv.kind == IterKind::Reduce && v != 0 {
                        init_needed = false;
                    }
                    let name = iv.var.name.to_string();
                    saved.push((name.clone(), self.env.get(&name).copied()));
                    self.env.insert(name, v);
                }
                if b.iter_vars.iter().all(|iv| iv.kind == IterKind::Spatial) {
                    init_needed = b.init.is_some();
                }
                if init_needed {
                    if let Some(init) = &b.init {
                        self.exec(init)?;
                    }
                }
                let r = self.exec(&b.body);
                for (name, old) in saved {
                    restore(&mut self.env, name, old);
                }
                r
            }
            Stmt::BufferStore { buffer, indices, value } => {
                let v = self.eval(value)?;
                self.store(buffer, indices, v)
            }
            Stmt::Seq(stmts) => {
                for st in stmts {
                    self.exec(st)?;
                }
                Ok(())
            }
            Stmt::IfThenElse { cond, then_branch, else_branch } => {
                if self.eval(cond)?.as_bool() {
                    self.exec(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec(e)
                } else {
                    Ok(())
                }
            }
            Stmt::Let { var, value, body } => {
                let v = self.eval(value)?.as_int()?;
                let name = var.name.to_string();
                let saved = self.env.get(&name).copied();
                self.env.insert(name.clone(), v);
                let r = self.exec(body);
                restore(&mut self.env, name, saved);
                r
            }
            Stmt::Allocate { buffer, body } => {
                let mut dims = Vec::with_capacity(buffer.shape.len());
                for d in &buffer.shape {
                    dims.push(self.eval(d)?.as_int()?);
                }
                let len = alloc_len(&buffer.name, &dims).map_err(EvalError::new)?;
                let name = buffer.name.to_string();
                self.tensors.insert(name.clone(), TensorData::zeros(buffer.dtype, len));
                self.locals.push(name.clone());
                let r = self.exec(body);
                self.tensors.remove(&name);
                self.locals.pop();
                r
            }
            Stmt::Evaluate(e) => {
                self.eval(e)?;
                Ok(())
            }
            Stmt::MmaSync { c, a, b, m, n, k } => self.mma(c, a, b, *m, *n, *k),
        }
    }

    fn tile_base(&self, t: &TensorTile) -> Result<(String, usize, usize), EvalError> {
        let off = self.eval(&t.offset)?.as_int()?;
        let stride = self.eval(&t.row_stride)?.as_int()?;
        if off < 0 || stride < 0 {
            return Err(EvalError::new("negative tile offset/stride"));
        }
        Ok((t.buffer.name.to_string(), off as usize, stride as usize))
    }

    fn mma(
        &mut self,
        c: &TensorTile,
        a: &TensorTile,
        b: &TensorTile,
        m: usize,
        n: usize,
        k: usize,
    ) -> Result<(), EvalError> {
        let (an, ao, asn) = self.tile_base(a)?;
        let (bn, bo, bsn) = self.tile_base(b)?;
        let (cn, co, csn) = self.tile_base(c)?;
        let read = |tensors: &HashMap<String, TensorData>,
                    name: &str,
                    idx: usize|
         -> Result<f32, EvalError> {
            let t = tensors
                .get(name)
                .ok_or_else(|| EvalError::new(format!("unbound buffer `{name}`")))?;
            let v = t.as_f32();
            v.get(idx).copied().ok_or_else(|| oob(name, idx, v.len()))
        };
        for _ in 0..2 * m * n * k {
            self.tick(OpKind::Flop);
        }
        for _ in 0..m * k + k * n {
            self.tick(OpKind::Load);
        }
        for _ in 0..m * n {
            self.tick(OpKind::Store);
        }
        let mut acc = vec![0.0f32; m * n];
        for mi in 0..m {
            for ni in 0..n {
                let mut sum = 0.0f32;
                for ki in 0..k {
                    let av = read(self.tensors, &an, ao + mi * asn + ki)?;
                    let bv = read(self.tensors, &bn, bo + ki * bsn + ni)?;
                    sum += av * bv;
                }
                acc[mi * n + ni] = sum;
            }
        }
        let ct = self
            .tensors
            .get_mut(&cn)
            .ok_or_else(|| EvalError::new(format!("unbound buffer `{cn}`")))?;
        let cv = match ct {
            TensorData::F32(v) => v,
            TensorData::I32(_) => return Err(EvalError::new("mma_sync target must be float")),
        };
        for mi in 0..m {
            for ni in 0..n {
                let idx = co + mi * csn + ni;
                let len = cv.len();
                *cv.get_mut(idx).ok_or_else(|| oob(&cn, idx, len))? += acc[mi * n + ni];
            }
        }
        Ok(())
    }
}

fn restore(env: &mut HashMap<String, i64>, name: String, saved: Option<i64>) {
    match saved {
        Some(v) => {
            env.insert(name, v);
        }
        None => {
            env.remove(&name);
        }
    }
}

fn oob(name: &str, idx: usize, len: usize) -> EvalError {
    EvalError::new(format!("flat index {idx} out of bounds (len {len}) in buffer `{name}`"))
}

/// Execute `func` with the given scalar parameter bindings and named
/// tensor storage. Output buffers are mutated in place.
///
/// # Errors
/// Returns [`EvalError`] on unbound names, shape mismatches and
/// out-of-bounds accesses.
pub fn eval_func(
    func: &PrimFunc,
    scalars: &HashMap<String, i64>,
    tensors: &mut HashMap<String, TensorData>,
) -> Result<(), EvalError> {
    run(func, scalars, tensors, None)
}

/// Like [`eval_func`], but reports every executed float op, load and store
/// through `hook` (used by `analysis::count_ops`).
///
/// # Errors
/// Same conditions as [`eval_func`].
pub fn eval_func_counting(
    func: &PrimFunc,
    scalars: &HashMap<String, i64>,
    tensors: &mut HashMap<String, TensorData>,
    hook: &mut dyn FnMut(OpKind),
) -> Result<(), EvalError> {
    run(func, scalars, tensors, Some(hook))
}

/// The one interpreter body: bind the scalar params, check every buffer
/// is bound, and run `func`, reporting to `hook` when there is one.
fn run(
    func: &PrimFunc,
    scalars: &HashMap<String, i64>,
    tensors: &mut HashMap<String, TensorData>,
    hook: Option<&mut dyn FnMut(OpKind)>,
) -> Result<(), EvalError> {
    let mut env = HashMap::new();
    for p in &func.params {
        let v = scalars
            .get(&*p.name.to_string())
            .ok_or_else(|| EvalError::new(format!("missing scalar param `{}`", p.name)))?;
        env.insert(p.name.to_string(), *v);
    }
    for b in &func.buffers {
        if !tensors.contains_key(&*b.name.to_string()) {
            return Err(EvalError::new(format!("missing tensor binding for buffer `{}`", b.name)));
        }
    }
    let mut interp = Interp { env, tensors, locals: Vec::new(), hook: hook.map(RefCell::new) };
    interp.exec(&func.body)
}

/// Convenience: bind a parameter list by name→value pairs.
#[must_use]
pub fn scalar_map(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
    pairs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, Scope};
    use crate::expr::Var;
    use crate::stmt::{Block, ForKind, IterVar};

    /// Build `C[i] = A[i] + B[i]` over n=4 and run it.
    #[test]
    fn vector_add() {
        let i = Var::i32("i");
        let a = Buffer::global_f32("A", vec![Expr::i32(4)]);
        let b = Buffer::global_f32("B", vec![Expr::i32(4)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        let body = Stmt::for_serial(
            i.clone(),
            4,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&i)],
                value: a.load(vec![Expr::var(&i)]) + b.load(vec![Expr::var(&i)]),
            },
        );
        let f = PrimFunc::new("add", vec![], vec![a, b, c], body);
        let mut tensors = HashMap::new();
        tensors.insert("A".to_string(), TensorData::from(vec![1.0, 2.0, 3.0, 4.0]));
        tensors.insert("B".to_string(), TensorData::from(vec![10.0, 20.0, 30.0, 40.0]));
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 4));
        eval_func(&f, &HashMap::new(), &mut tensors).unwrap();
        assert_eq!(tensors["C"].as_f32(), &[11.0, 22.0, 33.0, 44.0]);
    }

    /// Reduction block with init: sum over j with init C[i]=0.
    #[test]
    fn reduction_with_init() {
        let i = Var::i32("i");
        let j = Var::i32("j");
        let a = Buffer::global_f32("A", vec![Expr::i32(2), Expr::i32(3)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(2)]);
        let vi = Var::i32("vi");
        let vj = Var::i32("vj");
        let block = Stmt::Block(Block {
            name: "sum".into(),
            iter_vars: vec![
                IterVar::spatial(vi.clone(), Expr::var(&i)),
                IterVar::reduce(vj.clone(), Expr::var(&j)),
            ],
            reads: vec![],
            writes: vec![],
            init: Some(Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&vi)],
                value: Expr::f32(0.0),
            })),
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&vi)],
                value: c.load(vec![Expr::var(&vi)]) + a.load(vec![Expr::var(&vi), Expr::var(&vj)]),
            }),
        });
        let body = Stmt::for_serial(i.clone(), 2, Stmt::for_serial(j.clone(), 3, block));
        let f = PrimFunc::new("rowsum", vec![], vec![a, c], body);
        let mut tensors = HashMap::new();
        tensors.insert("A".to_string(), TensorData::from(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        tensors.insert("C".to_string(), TensorData::from(vec![99.0, 99.0]));
        eval_func(&f, &HashMap::new(), &mut tensors).unwrap();
        assert_eq!(tensors["C"].as_f32(), &[6.0, 15.0]);
    }

    #[test]
    fn thread_binding_executes_serially() {
        let i = Var::i32("i");
        let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
        let body = Stmt::For {
            var: i.clone(),
            extent: Expr::i32(8),
            kind: ForKind::ThreadBinding(crate::stmt::ThreadAxis::ThreadIdxX),
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&i)],
                value: Expr::var(&i).cast(DType::F32),
            }),
        };
        let f = PrimFunc::new("iota", vec![], vec![c], body);
        let mut tensors = HashMap::new();
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
        eval_func(&f, &HashMap::new(), &mut tensors).unwrap();
        assert_eq!(tensors["C"].as_f32()[7], 7.0);
    }

    #[test]
    fn binary_search_intrinsic() {
        let idx = Buffer::global_i32("indices", vec![Expr::i32(5)]);
        let out = Buffer::global_i32("out", vec![Expr::i32(1)]);
        let call = Expr::Call {
            intrin: Intrinsic::BinarySearch,
            args: vec![idx.load(vec![Expr::i32(0)]), Expr::i32(0), Expr::i32(5), Expr::i32(9)],
        };
        let body =
            Stmt::BufferStore { buffer: out.clone(), indices: vec![Expr::i32(0)], value: call };
        let f = PrimFunc::new("find", vec![], vec![idx, out], body);
        let mut tensors = HashMap::new();
        tensors.insert("indices".to_string(), TensorData::from(vec![1, 3, 9, 10, 12]));
        tensors.insert("out".to_string(), TensorData::zeros(DType::I32, 1));
        eval_func(&f, &HashMap::new(), &mut tensors).unwrap();
        // coordinate 9 is at position 2, matching the paper's example in §3.3.
        assert_eq!(tensors["out"].as_i32(), &[2]);
    }

    #[test]
    fn mma_sync_accumulates() {
        let a = Buffer::global_f32("A", vec![Expr::i32(4)]);
        let b = Buffer::global_f32("B", vec![Expr::i32(4)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        let tile = |buf: &Buffer, stride: i64| TensorTile {
            buffer: buf.clone(),
            offset: Expr::i32(0),
            row_stride: Expr::i32(stride),
        };
        let body =
            Stmt::MmaSync { c: tile(&c, 2), a: tile(&a, 2), b: tile(&b, 2), m: 2, n: 2, k: 2 };
        let f = PrimFunc::new("mma", vec![], vec![a, b, c], body);
        let mut tensors = HashMap::new();
        tensors.insert("A".to_string(), TensorData::from(vec![1.0, 2.0, 3.0, 4.0]));
        tensors.insert("B".to_string(), TensorData::from(vec![5.0, 6.0, 7.0, 8.0]));
        tensors.insert("C".to_string(), TensorData::from(vec![1.0, 0.0, 0.0, 0.0]));
        eval_func(&f, &HashMap::new(), &mut tensors).unwrap();
        // [[1,2],[3,4]] @ [[5,6],[7,8]] = [[19,22],[43,50]]; C starts with 1 at (0,0).
        assert_eq!(tensors["C"].as_f32(), &[20.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn allocate_scopes_local_buffer() {
        let tmp = Buffer::new("tmp", DType::F32, vec![Expr::i32(2)], Scope::Shared);
        let out = Buffer::global_f32("out", vec![Expr::i32(1)]);
        let body = Stmt::Allocate {
            buffer: tmp.clone(),
            body: Box::new(
                Stmt::BufferStore {
                    buffer: tmp.clone(),
                    indices: vec![Expr::i32(0)],
                    value: Expr::f32(5.0),
                }
                .then(Stmt::BufferStore {
                    buffer: out.clone(),
                    indices: vec![Expr::i32(0)],
                    value: tmp.load(vec![Expr::i32(0)]) * 2.0f32,
                }),
            ),
        };
        let f = PrimFunc::new("stage", vec![], vec![out], body);
        let mut tensors = HashMap::new();
        tensors.insert("out".to_string(), TensorData::zeros(DType::F32, 1));
        eval_func(&f, &HashMap::new(), &mut tensors).unwrap();
        assert_eq!(tensors["out"].as_f32(), &[10.0]);
        assert!(!tensors.contains_key("tmp"));
    }

    #[test]
    fn missing_binding_errors() {
        let c = Buffer::global_f32("C", vec![Expr::i32(1)]);
        let f = PrimFunc::new("f", vec![], vec![c], Stmt::nop());
        let mut tensors = HashMap::new();
        let err = eval_func(&f, &HashMap::new(), &mut tensors).unwrap_err();
        assert!(err.to_string().contains("missing tensor binding"));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let c = Buffer::global_f32("C", vec![Expr::i32(2)]);
        let body = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::i32(5)],
            value: Expr::f32(0.0),
        };
        let f = PrimFunc::new("f", vec![], vec![c], body);
        let mut tensors = HashMap::new();
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 2));
        assert!(eval_func(&f, &HashMap::new(), &mut tensors).is_err());
    }

    #[test]
    fn scalar_params_bind_extents() {
        let n = Var::i32("n");
        let i = Var::i32("i");
        let c = Buffer::global_f32("C", vec![Expr::var(&n)]);
        let body = Stmt::for_serial(
            i.clone(),
            Expr::var(&n),
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&i)],
                value: Expr::f32(1.0),
            },
        );
        let f = PrimFunc::new("ones", vec![n], vec![c], body);
        let mut tensors = HashMap::new();
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 3));
        eval_func(&f, &scalar_map(&[("n", 3)]), &mut tensors).unwrap();
        assert_eq!(tensors["C"].as_f32(), &[1.0, 1.0, 1.0]);
    }
}
