//! Slot-compiled executor for lowered Stage III IR.
//!
//! The reference interpreter ([`crate::eval`]) resolves every variable and
//! buffer through name-keyed hash maps in the innermost loops. That is the
//! right shape for a semantics definition and the wrong shape for a hot
//! path: every kernel validation, autotuning trial and paper-figure run
//! pays a string hash per variable read. This module splits execution into
//! two phases, mirroring how TACO-lineage systems separate code generation
//! from execution:
//!
//! 1. **Compile** ([`Runtime::compile`]): walk a [`PrimFunc`] once, resolve
//!    every [`Var`](crate::expr::Var) and buffer name to a dense integer
//!    slot, statically type every expression (variables are always
//!    integers, buffer loads are typed by the buffer's dtype), fold
//!    constants, and lower the body into a typed statement tree and from
//!    there into flat bytecode, with no string lookups and no per-step
//!    allocation.
//! 2. **Execute** ([`CompiledKernel::run_views`]): bind scalar parameters
//!    and tensor storage into the launch's slot table ([`ViewBindings`]: a
//!    `Vec<i64>` of scalar slots and a table of raw buffer views, each name
//!    resolved when it is bound) and run the instruction stream on the
//!    caller's thread. A loop bound to `blockIdx.*` is a serial loop here,
//!    as in the interpreter: the binding is a GPU schedule (§3.3), which
//!    Stage III lets the CPU lower sequentially, and a server parallelises
//!    across requests, not inside one launch.
//!
//! Compiled kernels are cached by function identity in a [`Runtime`]
//! (compile once, run many), so repeated validation/autotuning of the same
//! function costs one compilation. The interpreter remains the semantics
//! oracle: the differential suite in `crates/ir/tests/exec_differential.rs`
//! asserts bit-identical results between the two on random lowered
//! programs.
//!
//! Arithmetic is replicated exactly: floats compute in `f32`, the dtype
//! the IR declares, integer division is euclidean with explicit
//! divide-by-zero errors, a cast to integer is exact for an integer operand
//! and truncates a float one, and per-dimension bounds checks fire with the
//! interpreter's error wording.
//!
//! On top of the generic program, a **dense-lane fusion pass** (the `fuse`
//! submodule) recognizes innermost loops over contiguous dense axes (the
//! feature dimension of SpMM/SDDMM, ELL bucket lanes) at compile time and
//! lowers each to one lane op `dst[l] = combine(dst[l], value(l))` —
//! `combine` a store, an add or a maximum, `value` a hoisted constant, a
//! term or `exp(a − b)` — in one of six instances, `FillLanes`,
//! `AxpyLanes`, `DotLanes`, `GatherScaleAccumulate`, `MaxLanes` and
//! `ExpDiffLanes`, that runs a tight per-lane loop instead of per-element
//! instruction dispatch. Fusion is
//! what [`CompiledKernel::compile`] (and so [`Runtime::compile`]) does;
//! the generic form is retained behind every fused op as the bit-exact
//! fallback, and [`CompiledKernel::compile_with`]`(_, false)` builds the
//! all-generic bytecode as a test reference.
//!
//! Execution is a **flat bytecode executor** (the `bytecode` submodule):
//! the statement tree is lowered once to a flat instruction stream with
//! jump-encoded loops and the fused microkernels embedded as
//! superinstructions, then driven by a single `ip`-dispatch loop.
//! [`CompiledKernel::disassemble`] renders the bytecode as a stable text
//! listing — see the `disasm` submodule and the golden-file tests under
//! `tests/golden/`.
//!
//! The slot table's bindings live in the `views` submodule (the table is
//! per thread, beside the walk state in `bytecode`), the memory plan
//! and scratch pool in `memory`, and the compile-once kernel cache in
//! `runtime`; all are re-exported here.

use crate::buffer::Buffer;
use crate::eval::TensorData;
use crate::expr::{BinOp, Expr, Intrinsic};
use crate::func::PrimFunc;
use crate::stmt::{IterKind, Stmt, TensorTile};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

mod bytecode;
mod disasm;
mod fuse;
mod memory;
mod runtime;
mod views;

pub use memory::{BufferPool, MemoryPlan, PlanEntry};
pub use runtime::{exec_func, Runtime};
pub use views::ViewBindings;

/// Error raised while compiling or executing a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    message: String,
}

impl ExecError {
    fn new(message: impl Into<String>) -> Self {
        ExecError { message: message.into() }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "executor error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

/// What a kernel's row nests did over its runs so far
/// ([`CompiledKernel::nest_counts`]): whether the fast path is the one
/// taken. A nest's entries are taken by a block — a row loop's, or the
/// nest's own block of one entry — or handed to the generic loop, at trip
/// 0 (the walk state could not be established, a test of the block or the
/// row failed) or at the trip whose gathered value left the block's reach.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NestCounts {
    /// Times a nest was entered: once per execution of the loop it heads
    /// — once per row for a CSR row's non-zeros.
    pub entries: u64,
    /// Entries that handed a trip to the generic loop: `entries − blocked`
    /// at trip 0, the rest mid-row (`trips − stepped` trips between them).
    pub handovers: u64,
    /// Trips of the entries a block took (a CSR row's non-zeros).
    pub trips: u64,
    /// Of `trips`, those the nest's monomorphised trip loop ran — a cursor
    /// add per operand — before the generic loop took the rest of a row.
    pub stepped: u64,
    /// Of `entries`, those a block took itself — its registers loaded and
    /// tested against the intervals the launch solved, no bytecode
    /// dispatch or expression tree. On a served kernel expect
    /// `blocked == entries`, `stepped == trips` and no hand-over.
    pub blocked: u64,
}

impl NestCounts {
    fn add(&mut self, other: NestCounts) {
        self.entries += other.entries;
        self.handovers += other.handovers;
        self.trips += other.trips;
        self.stepped += other.stepped;
        self.blocked += other.blocked;
    }
}

fn oob(name: &str, idx: usize, len: usize) -> ExecError {
    ExecError::new(format!("flat index {idx} out of bounds (len {len}) in buffer `{name}`"))
}

// ---------------------------------------------------------------------------
// Compiled program representation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FloatOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Integer-typed compiled expression. Slots index the scalar frame.
#[derive(Debug, Clone, PartialEq)]
enum IntExpr {
    Const(i64),
    Slot(u32),
    Bin {
        op: IntOp,
        lhs: Box<IntExpr>,
        rhs: Box<IntExpr>,
    },
    Select {
        cond: Box<BoolExpr>,
        then_: Box<IntExpr>,
        else_: Box<IntExpr>,
    },
    /// Cast of a float operand to an integer dtype: truncation toward zero
    /// (`f32 as i64`). An integer operand casts exactly and compiles to
    /// itself.
    Trunc(Box<FloatExpr>),
    BoolToInt(Box<BoolExpr>),
    Load {
        buf: u32,
        index: IndexExpr,
    },
    BinarySearch {
        buf: u32,
        name: String,
        lo: Box<IntExpr>,
        hi: Box<IntExpr>,
        x: Box<IntExpr>,
    },
}

/// Float-typed compiled expression (computes in `f32` like the interpreter).
#[derive(Debug, Clone, PartialEq)]
enum FloatExpr {
    Const(f32),
    Bin { op: FloatOp, lhs: Box<FloatExpr>, rhs: Box<FloatExpr> },
    Select { cond: Box<BoolExpr>, then_: Box<FloatExpr>, else_: Box<FloatExpr> },
    FromInt(Box<IntExpr>),
    Load { buf: u32, index: IndexExpr },
    Exp(Box<FloatExpr>),
    Sqrt(Box<FloatExpr>),
    Relu(Box<FloatExpr>),
}

/// Bool-typed compiled expression.
#[derive(Debug, Clone, PartialEq)]
enum BoolExpr {
    CmpI {
        op: CmpOp,
        lhs: Box<IntExpr>,
        rhs: Box<IntExpr>,
    },
    CmpF {
        op: CmpOp,
        lhs: Box<FloatExpr>,
        rhs: Box<FloatExpr>,
    },
    /// Non-short-circuiting, like the interpreter (both sides evaluate, so
    /// divide-by-zero on the right still errors when the left is false).
    And(Box<BoolExpr>, Box<BoolExpr>),
    Or(Box<BoolExpr>, Box<BoolExpr>),
    IntNonZero(Box<IntExpr>),
    FloatNonZero(Box<FloatExpr>),
}

/// Flattened buffer access: per-dimension `(index, extent)` programs plus
/// the buffer name for error messages. Bounds are checked per dimension
/// with the interpreter's wording.
#[derive(Debug, Clone, PartialEq)]
struct IndexExpr {
    name: String,
    dims: Vec<(IntExpr, IntExpr)>,
}

/// What a compiled expression reads — slots, and buffers through a load,
/// an index or a binary search — and whether evaluating it can error.
#[derive(Default)]
struct ExprInfo {
    slots: HashSet<u32>,
    bufs: HashSet<u32>,
    fallible: bool,
}

fn scan_int(e: &IntExpr, info: &mut ExprInfo) {
    match e {
        IntExpr::Const(_) => {}
        IntExpr::Slot(s) => {
            info.slots.insert(*s);
        }
        IntExpr::Bin { op, lhs, rhs } => {
            info.fallible |= matches!(op, IntOp::Div | IntOp::Rem);
            scan_int(lhs, info);
            scan_int(rhs, info);
        }
        IntExpr::Select { cond, then_, else_ } => {
            scan_bool(cond, info);
            scan_int(then_, info);
            scan_int(else_, info);
        }
        IntExpr::Trunc(v) => scan_float(v, info),
        IntExpr::BoolToInt(b) => scan_bool(b, info),
        IntExpr::Load { buf, index } => {
            info.fallible = true;
            info.bufs.insert(*buf);
            scan_index(index, info);
        }
        IntExpr::BinarySearch { buf, lo, hi, x, .. } => {
            info.fallible = true;
            info.bufs.insert(*buf);
            scan_int(lo, info);
            scan_int(hi, info);
            scan_int(x, info);
        }
    }
}

fn scan_float(e: &FloatExpr, info: &mut ExprInfo) {
    match e {
        FloatExpr::Const(_) => {}
        FloatExpr::Bin { lhs, rhs, .. } => {
            // Float div/rem follow IEEE (inf/NaN), never error.
            scan_float(lhs, info);
            scan_float(rhs, info);
        }
        FloatExpr::Select { cond, then_, else_ } => {
            scan_bool(cond, info);
            scan_float(then_, info);
            scan_float(else_, info);
        }
        FloatExpr::FromInt(v) => scan_int(v, info),
        FloatExpr::Load { buf, index } => {
            info.fallible = true;
            info.bufs.insert(*buf);
            scan_index(index, info);
        }
        FloatExpr::Exp(v) | FloatExpr::Sqrt(v) | FloatExpr::Relu(v) => scan_float(v, info),
    }
}

fn scan_bool(e: &BoolExpr, info: &mut ExprInfo) {
    match e {
        BoolExpr::CmpI { lhs, rhs, .. } => {
            scan_int(lhs, info);
            scan_int(rhs, info);
        }
        BoolExpr::CmpF { lhs, rhs, .. } => {
            scan_float(lhs, info);
            scan_float(rhs, info);
        }
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
            scan_bool(a, info);
            scan_bool(b, info);
        }
        BoolExpr::IntNonZero(v) => scan_int(v, info),
        BoolExpr::FloatNonZero(v) => scan_float(v, info),
    }
}

fn scan_index(ix: &IndexExpr, info: &mut ExprInfo) {
    info.fallible = true; // per-dimension bounds checks
    for (i, extent) in &ix.dims {
        scan_int(i, info);
        scan_int(extent, info);
    }
}

#[derive(Debug, Clone)]
enum ValueExpr {
    I(IntExpr),
    F(FloatExpr),
    B(BoolExpr),
}

#[derive(Debug, Clone)]
struct CompiledTile {
    buf: u32,
    name: String,
    offset: IntExpr,
    row_stride: IntExpr,
}

/// Compiled statement tree: the compile-time IR `bytecode::lower`
/// consumes (never executed directly).
#[derive(Debug)]
enum CStmt {
    For {
        slot: u32,
        extent: IntExpr,
        body: Box<CStmt>,
    },
    Block(CBlock),
    StoreF {
        buf: u32,
        index: IndexExpr,
        value: FloatExpr,
    },
    StoreI {
        buf: u32,
        index: IndexExpr,
        value: IntExpr,
    },
    Seq(Vec<CStmt>),
    If {
        cond: BoolExpr,
        then_: Box<CStmt>,
        else_: Option<Box<CStmt>>,
    },
    Let {
        slot: u32,
        value: IntExpr,
        body: Box<CStmt>,
    },
    Alloc {
        buf: u32,
        name: String,
        is_float: bool,
        len_dims: Vec<IntExpr>,
        body: Box<CStmt>,
    },
    EvalV(ValueExpr),
    Mma(Box<MmaOp>),
    /// Statement that is ill-typed but only errors if actually executed
    /// (matching the interpreter's lazy runtime errors).
    Fail(String),
}

/// Boxed payload of [`CStmt::Mma`] (keeps the statement enum small).
#[derive(Debug, Clone)]
struct MmaOp {
    c: CompiledTile,
    a: CompiledTile,
    b: CompiledTile,
    m: usize,
    n: usize,
    k: usize,
}

#[derive(Debug)]
struct CBlock {
    /// `(slot, binding, is_reduce)` in declaration order; bindings are
    /// evaluated sequentially so later ones may reference earlier slots.
    iters: Vec<(u32, IntExpr, bool)>,
    all_spatial: bool,
    init: Option<Box<CStmt>>,
    body: Box<CStmt>,
}

// ---------------------------------------------------------------------------
// Runtime frame
// ---------------------------------------------------------------------------

/// Raw view of one bound buffer. Pointers stay valid for the duration of a
/// launch: function-level views point into the caller's `TensorData` map
/// or borrowed slices (not structurally mutated during execution) and
/// local views point into the frame's allocation arena. Element accesses
/// are plain reads and writes ([`elem_load`], [`elem_store`]).
#[derive(Debug, Clone, Copy)]
enum RawBuf {
    /// Flat storage: a whole tensor or a borrowed slice. Stores need
    /// `writable`.
    F32 {
        ptr: *mut f32,
        len: usize,
        writable: bool,
    },
    I32 {
        ptr: *mut i32,
        len: usize,
        writable: bool,
    },
    Absent,
}

impl RawBuf {
    fn of(data: &mut TensorData) -> RawBuf {
        match data {
            TensorData::F32(v) => RawBuf::F32 { ptr: v.as_mut_ptr(), len: v.len(), writable: true },
            TensorData::I32(v) => RawBuf::I32 { ptr: v.as_mut_ptr(), len: v.len(), writable: true },
        }
    }
}

fn read_only(name: &str) -> ExecError {
    ExecError::new(format!("buffer `{name}` is bound to a read-only view"))
}

/// One element of a bound buffer, read in place.
///
/// # Safety
/// SAFETY contract of every element access of a launch, the lane bodies'
/// included: `idx` has been bounds-checked against the view's length, the
/// view is valid for the whole run, and the launch's frame is the only
/// accessor of its bindings — a launch runs on the caller's thread, and a
/// writable element is reachable through exactly one binding (the `views`
/// module's rule, which the `&mut` borrows of [`ViewBindings`] and of
/// [`CompiledKernel::run`]'s tensor map enforce).
#[inline]
unsafe fn elem_load<T: Copy>(ptr: *const T, idx: usize) -> T {
    ptr.add(idx).read()
}

/// # Safety
/// SAFETY: as [`elem_load`], and the view is writable.
#[inline]
unsafe fn elem_store<T>(ptr: *mut T, idx: usize, v: T) {
    ptr.add(idx).write(v);
}

/// A launch's state: its slot table, moved in for the run, and scratch.
struct Frame {
    scalars: Vec<i64>,
    bufs: Vec<RawBuf>,
    /// Arena owning `Allocate`d staging buffers; `RawBuf` views point at
    /// the arena entries' heap storage, which is stable across pushes.
    locals: Vec<TensorData>,
    /// Size-classed pool serving `Allocate` scratch.
    pool: Arc<BufferPool>,
}

impl Frame {
    /// The address of f32 element `idx` of `buf`, bounds-checked, and
    /// whether its binding may be written. An `i32` binding fails with the
    /// float load's wording.
    #[inline]
    fn f32_at(&self, buf: u32, idx: usize, name: &str) -> Result<(*mut f32, bool), ExecError> {
        match self.bufs[buf as usize] {
            RawBuf::F32 { ptr, len, writable } => {
                if idx >= len {
                    return Err(oob(name, idx, len));
                }
                // SAFETY: idx < len elements behind ptr.
                Ok((unsafe { ptr.add(idx) }, writable))
            }
            RawBuf::I32 { .. } => {
                Err(ExecError::new(format!("buffer `{name}` holds i32 data, float load expected")))
            }
            RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{name}`"))),
        }
    }

    #[inline]
    fn load_f(&self, buf: u32, idx: usize, name: &str) -> Result<f32, ExecError> {
        let (ptr, _) = self.f32_at(buf, idx, name)?;
        // SAFETY: `f32_at` checked the element's bounds.
        Ok(unsafe { elem_load(ptr, 0) })
    }

    /// Store `v` at f32 element `idx` of `buf`: bounds, then writability.
    #[inline]
    fn store_f(&self, buf: u32, idx: usize, name: &str, v: f32) -> Result<(), ExecError> {
        let (ptr, writable) = self.f32_at(buf, idx, name)?;
        if !writable {
            return Err(read_only(name));
        }
        // SAFETY: `f32_at` checked the element's bounds; it is writable.
        unsafe { elem_store(ptr, 0, v) };
        Ok(())
    }

    #[inline]
    fn load_i(&self, buf: u32, idx: usize, name: &str) -> Result<i64, ExecError> {
        match self.bufs[buf as usize] {
            RawBuf::I32 { ptr, len, .. } => {
                if idx >= len {
                    return Err(oob(name, idx, len));
                }
                // SAFETY: idx < len and the view is valid for the run.
                Ok(i64::from(unsafe { elem_load(ptr, idx) }))
            }
            RawBuf::F32 { .. } => {
                Err(ExecError::new(format!("buffer `{name}` holds f32 data, int load expected")))
            }
            RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{name}`"))),
        }
    }
}

impl IndexExpr {
    /// Interpreter-identical flattening: per-dimension bound check, then
    /// `flat = flat * extent + index`.
    fn eval(&self, fr: &Frame) -> Result<usize, ExecError> {
        self.eval_with_last(fr).map(|(flat, _, _)| flat as usize)
    }

    /// Like [`IndexExpr::eval`], but also returns the innermost
    /// dimension's index and extent (the fused lane kernels stride the
    /// innermost dimension and need its headroom to bounds-check every
    /// lane up front).
    fn eval_with_last(&self, fr: &Frame) -> Result<(i64, i64, i64), ExecError> {
        let mut flat: i64 = 0;
        let mut last = (0i64, 1i64);
        for (idx, dim) in &self.dims {
            let d = dim.eval(fr)?;
            let i = idx.eval(fr)?;
            if i < 0 || i >= d {
                return Err(ExecError::new(format!(
                    "index {i} out of bounds for dim of extent {d} in buffer `{}`",
                    self.name
                )));
            }
            flat = flat * d + i;
            last = (i, d);
        }
        Ok((flat, last.0, last.1))
    }
}

impl IntExpr {
    fn eval(&self, fr: &Frame) -> Result<i64, ExecError> {
        match self {
            IntExpr::Const(v) => Ok(*v),
            IntExpr::Slot(s) => Ok(fr.scalars[*s as usize]),
            IntExpr::Bin { op, lhs, rhs } => {
                let a = lhs.eval(fr)?;
                let b = rhs.eval(fr)?;
                // As the interpreter: wrapping `+ − *`, a typed error where
                // the quotient overflows.
                match op {
                    IntOp::Add => Ok(a.wrapping_add(b)),
                    IntOp::Sub => Ok(a.wrapping_sub(b)),
                    IntOp::Mul => Ok(a.wrapping_mul(b)),
                    IntOp::Div => {
                        if b == 0 {
                            return Err(ExecError::new("integer division by zero"));
                        }
                        a.checked_div_euclid(b)
                            .ok_or_else(|| ExecError::new("integer division overflow"))
                    }
                    IntOp::Rem => {
                        if b == 0 {
                            return Err(ExecError::new("integer remainder by zero"));
                        }
                        a.checked_rem_euclid(b)
                            .ok_or_else(|| ExecError::new("integer remainder overflow"))
                    }
                    IntOp::Min => Ok(a.min(b)),
                    IntOp::Max => Ok(a.max(b)),
                }
            }
            IntExpr::Select { cond, then_, else_ } => {
                if cond.eval(fr)? {
                    then_.eval(fr)
                } else {
                    else_.eval(fr)
                }
            }
            IntExpr::Trunc(v) => Ok(v.eval(fr)? as i64),
            IntExpr::BoolToInt(b) => Ok(i64::from(b.eval(fr)?)),
            IntExpr::Load { buf, index } => {
                let flat = index.eval(fr)?;
                fr.load_i(*buf, flat, &index.name)
            }
            IntExpr::BinarySearch { buf, name, lo, hi, x } => {
                let lo = lo.eval(fr)? as usize;
                let hi = hi.eval(fr)? as usize;
                let x = x.eval(fr)? as i32;
                match fr.bufs[*buf as usize] {
                    RawBuf::I32 { ptr, len, .. } => {
                        if lo > hi || hi > len {
                            return Err(ExecError::new(format!(
                                "binary_search range {lo}..{hi} out of bounds (len {len}) in buffer `{name}`"
                            )));
                        }
                        // SAFETY: lo <= hi <= len elements behind `ptr`,
                        // valid for the run, and nothing writes the binding
                        // while the slice lives (`elem_load`'s contract).
                        let seg = unsafe { std::slice::from_raw_parts(ptr.add(lo), hi - lo) };
                        Ok(seg.partition_point(|&v| v < x) as i64)
                    }
                    RawBuf::F32 { .. } => {
                        Err(ExecError::new(format!("binary_search over non-i32 buffer `{name}`")))
                    }
                    RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{name}`"))),
                }
            }
        }
    }
}

impl FloatExpr {
    fn eval(&self, fr: &Frame) -> Result<f32, ExecError> {
        match self {
            FloatExpr::Const(v) => Ok(*v),
            FloatExpr::Bin { op, lhs, rhs } => {
                let a = lhs.eval(fr)?;
                let b = rhs.eval(fr)?;
                Ok(match op {
                    FloatOp::Add => a + b,
                    FloatOp::Sub => a - b,
                    FloatOp::Mul => a * b,
                    FloatOp::Div => a / b,
                    FloatOp::Rem => a % b,
                    FloatOp::Min => a.min(b),
                    FloatOp::Max => a.max(b),
                })
            }
            FloatExpr::Select { cond, then_, else_ } => {
                if cond.eval(fr)? {
                    then_.eval(fr)
                } else {
                    else_.eval(fr)
                }
            }
            FloatExpr::FromInt(v) => Ok(v.eval(fr)? as f32),
            FloatExpr::Load { buf, index } => {
                let flat = index.eval(fr)?;
                fr.load_f(*buf, flat, &index.name)
            }
            FloatExpr::Exp(v) => Ok(v.eval(fr)?.exp()),
            FloatExpr::Sqrt(v) => Ok(v.eval(fr)?.sqrt()),
            FloatExpr::Relu(v) => Ok(v.eval(fr)?.max(0.0)),
        }
    }
}

impl BoolExpr {
    fn eval(&self, fr: &Frame) -> Result<bool, ExecError> {
        match self {
            BoolExpr::CmpI { op, lhs, rhs } => {
                let a = lhs.eval(fr)?;
                let b = rhs.eval(fr)?;
                Ok(match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                })
            }
            BoolExpr::CmpF { op, lhs, rhs } => {
                let a = lhs.eval(fr)?;
                let b = rhs.eval(fr)?;
                Ok(match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                })
            }
            BoolExpr::And(l, r) => {
                let a = l.eval(fr)?;
                let b = r.eval(fr)?;
                Ok(a && b)
            }
            BoolExpr::Or(l, r) => {
                let a = l.eval(fr)?;
                let b = r.eval(fr)?;
                Ok(a || b)
            }
            BoolExpr::IntNonZero(v) => Ok(v.eval(fr)? != 0),
            BoolExpr::FloatNonZero(v) => Ok(v.eval(fr)? != 0.0),
        }
    }
}

impl ValueExpr {
    fn eval_for_effect(&self, fr: &Frame) -> Result<(), ExecError> {
        match self {
            ValueExpr::I(e) => e.eval(fr).map(|_| ()),
            ValueExpr::F(e) => e.eval(fr).map(|_| ()),
            ValueExpr::B(e) => e.eval(fr).map(|_| ()),
        }
    }
}

/// Acquire one zeroed kernel-local scratch buffer from the frame's pool.
#[inline]
fn alloc_local(fr: &Frame, is_float: bool, len: usize) -> TensorData {
    if is_float {
        TensorData::F32(fr.pool.acquire_f32(len))
    } else {
        TensorData::I32(fr.pool.acquire_i32(len))
    }
}

/// Pop the innermost local scratch buffer, returning its storage to the
/// frame's pool.
#[inline]
fn free_local(fr: &mut Frame) {
    match fr.locals.pop() {
        Some(TensorData::F32(v)) => fr.pool.release_f32(v),
        Some(TensorData::I32(v)) => fr.pool.release_i32(v),
        None => {}
    }
}

/// `BufferStore` into a float buffer: value first, then index, then the
/// dtype-dispatched store, in the interpreter's evaluation order and
/// error wording.
#[inline]
fn exec_store_f(
    fr: &Frame,
    buf: u32,
    index: &IndexExpr,
    value: &FloatExpr,
) -> Result<(), ExecError> {
    let v = value.eval(fr)?;
    let flat = index.eval(fr)?;
    if let RawBuf::I32 { .. } = fr.bufs[buf as usize] {
        return Err(ExecError::new(format!("expected int, got float {v}")));
    }
    fr.store_f(buf, flat, &index.name, v)
}

/// `BufferStore` of the reduction-accumulate form `buf[i] = buf[i] + rest`,
/// evaluating the flat index once for both the load and the store. The
/// generic statement's error order is index → load bounds → `rest` →
/// store; reusing the flat index preserves it exactly (the store's bounds
/// check is implied by the load's on the same buffer), and a read-only
/// binding fails at the store, after `rest`.
#[inline]
fn exec_accum_f(
    fr: &Frame,
    buf: u32,
    index: &IndexExpr,
    rest: &FloatExpr,
) -> Result<(), ExecError> {
    let flat = index.eval(fr)?;
    // The generic form fails inside the load, with the load's wording.
    let (ptr, writable) = fr.f32_at(buf, flat, &index.name)?;
    // SAFETY: `f32_at` checked the element's bounds.
    let v = unsafe { elem_load(ptr, 0) } + rest.eval(fr)?;
    if !writable {
        return Err(read_only(&index.name));
    }
    // SAFETY: the same element, and it is writable.
    unsafe { elem_store(ptr, 0, v) };
    Ok(())
}

/// `BufferStore` of an int value; int-into-float follows the interpreter
/// (`v as f32`, one rounding).
#[inline]
fn exec_store_i(fr: &Frame, buf: u32, index: &IndexExpr, value: &IntExpr) -> Result<(), ExecError> {
    let v = value.eval(fr)?;
    let flat = index.eval(fr)?;
    if let RawBuf::I32 { ptr, len, writable } = fr.bufs[buf as usize] {
        if flat >= len {
            return Err(oob(&index.name, flat, len));
        }
        if !writable {
            return Err(read_only(&index.name));
        }
        // SAFETY: flat < len, and the view is writable.
        unsafe { elem_store(ptr, flat, v as i32) };
        return Ok(());
    }
    fr.store_f(buf, flat, &index.name, v as f32)
}

fn tile_base(fr: &Frame, t: &CompiledTile) -> Result<(u32, usize, usize), ExecError> {
    let off = t.offset.eval(fr)?;
    let stride = t.row_stride.eval(fr)?;
    if off < 0 || stride < 0 {
        return Err(ExecError::new("negative tile offset/stride"));
    }
    Ok((t.buf, off as usize, stride as usize))
}

fn exec_mma(
    fr: &Frame,
    c: &CompiledTile,
    a: &CompiledTile,
    b: &CompiledTile,
    m: usize,
    n: usize,
    k: usize,
) -> Result<(), ExecError> {
    let (ab, ao, asn) = tile_base(fr, a)?;
    let (bb, bo, bsn) = tile_base(fr, b)?;
    let (cb, co, csn) = tile_base(fr, c)?;
    let mut acc = vec![0.0f32; m * n];
    for mi in 0..m {
        for ni in 0..n {
            let mut sum = 0.0f32;
            for ki in 0..k {
                let av = fr.load_f(ab, ao + mi * asn + ki, &a.name)?;
                let bv = fr.load_f(bb, bo + ki * bsn + ni, &b.name)?;
                sum += av * bv;
            }
            acc[mi * n + ni] = sum;
        }
    }
    if let RawBuf::I32 { .. } = fr.bufs[cb as usize] {
        return Err(ExecError::new("mma_sync target must be float"));
    }
    for mi in 0..m {
        for ni in 0..n {
            let idx = co + mi * csn + ni;
            let sum = fr.load_f(cb, idx, &c.name)? + acc[mi * n + ni];
            fr.store_f(cb, idx, &c.name, sum)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Float,
    Bool,
}

/// Static result kind of an expression under interpreter semantics:
/// variables are always integers, so every expression's kind is decidable
/// at compile time.
fn kind_of(e: &Expr) -> Kind {
    match e {
        Expr::Int { .. } | Expr::Var(_) => Kind::Int,
        Expr::Float { .. } => Kind::Float,
        Expr::Binary { op, lhs, rhs } => {
            if op.is_predicate() {
                Kind::Bool
            } else if kind_of(lhs) == Kind::Float || kind_of(rhs) == Kind::Float {
                Kind::Float
            } else {
                Kind::Int
            }
        }
        Expr::Select { then, otherwise, .. } => {
            let (a, b) = (kind_of(then), kind_of(otherwise));
            if a == Kind::Float || b == Kind::Float {
                Kind::Float
            } else if a == Kind::Bool && b == Kind::Bool {
                Kind::Bool
            } else {
                Kind::Int
            }
        }
        Expr::Cast { dtype, .. } => {
            if dtype.is_float() {
                Kind::Float
            } else {
                Kind::Int
            }
        }
        Expr::BufferLoad { buffer, .. } => {
            if buffer.dtype.is_float() {
                Kind::Float
            } else {
                Kind::Int
            }
        }
        Expr::Call { intrin, .. } => match intrin {
            Intrinsic::BinarySearch => Kind::Int,
            Intrinsic::Exp | Intrinsic::Sqrt | Intrinsic::Relu => Kind::Float,
        },
    }
}

struct Compiler {
    /// Lexically scoped name → scalar slot map (innermost last).
    var_scopes: Vec<HashMap<Rc<str>, u32>>,
    /// Lexically scoped buffer name → buffer slot map.
    buf_scopes: Vec<HashMap<Rc<str>, u32>>,
    /// Source name of each scalar slot, by slot index: one per slot made.
    slot_names: Vec<String>,
    /// Source name of each buffer slot, by slot index: one per slot made.
    buf_names: Vec<String>,
}

impl Compiler {
    fn new() -> Self {
        Compiler {
            var_scopes: vec![HashMap::new()],
            buf_scopes: vec![HashMap::new()],
            slot_names: Vec::new(),
            buf_names: Vec::new(),
        }
    }

    fn fresh_slot(&mut self, name: &Rc<str>) -> u32 {
        let slot = self.slot_names.len() as u32;
        self.slot_names.push(name.to_string());
        self.var_scopes.last_mut().expect("scope").insert(name.clone(), slot);
        slot
    }

    fn lookup_var(&self, name: &str) -> Option<u32> {
        self.var_scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn fresh_buf(&mut self, name: &Rc<str>) -> u32 {
        let slot = self.buf_names.len() as u32;
        self.buf_names.push(name.to_string());
        self.buf_scopes.last_mut().expect("scope").insert(name.clone(), slot);
        slot
    }

    fn lookup_buf(&self, name: &str) -> Result<u32, ExecError> {
        self.buf_scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .copied()
            .ok_or_else(|| ExecError::new(format!("unbound buffer `{name}`")))
    }

    fn compile_int(&self, e: &Expr) -> Result<IntExpr, ExecError> {
        match kind_of(e) {
            Kind::Int => self.compile_int_raw(e),
            Kind::Bool => Ok(IntExpr::BoolToInt(Box::new(self.compile_bool(e)?))),
            Kind::Float => {
                Err(ExecError::new(format!("expected int expression, found float (in `{e:?}`)")))
            }
        }
    }

    fn compile_int_raw(&self, e: &Expr) -> Result<IntExpr, ExecError> {
        Ok(match e {
            Expr::Int { value, .. } => IntExpr::Const(*value),
            Expr::Var(v) => IntExpr::Slot(
                self.lookup_var(&v.name)
                    .ok_or_else(|| ExecError::new(format!("unbound variable `{}`", v.name)))?,
            ),
            Expr::Binary { op, lhs, rhs } => {
                let iop = match op {
                    BinOp::Add => IntOp::Add,
                    BinOp::Sub => IntOp::Sub,
                    BinOp::Mul => IntOp::Mul,
                    BinOp::Div => IntOp::Div,
                    BinOp::Rem => IntOp::Rem,
                    BinOp::Min => IntOp::Min,
                    BinOp::Max => IntOp::Max,
                    _ => return Err(ExecError::new("predicate in integer position")),
                };
                fold_int(iop, self.compile_int(lhs)?, self.compile_int(rhs)?)
            }
            Expr::Select { cond, then, otherwise } => IntExpr::Select {
                cond: Box::new(self.compile_bool(cond)?),
                then_: Box::new(self.compile_int(then)?),
                else_: Box::new(self.compile_int(otherwise)?),
            },
            // A float operand truncates; an integer one casts exactly, with
            // no float in between (the interpreter's `as_cast_int`).
            Expr::Cast { value, .. } => match kind_of(value) {
                Kind::Float => IntExpr::Trunc(Box::new(self.compile_float(value)?)),
                Kind::Int | Kind::Bool => self.compile_int(value)?,
            },
            Expr::BufferLoad { buffer, indices } => IntExpr::Load {
                buf: self.lookup_buf(&buffer.name)?,
                index: self.compile_index(buffer, indices)?,
            },
            Expr::Call { intrin: Intrinsic::BinarySearch, args } => {
                let [buf, lo, hi, x] = args.as_slice() else {
                    return Err(ExecError::new("binary_search expects 4 args"));
                };
                let Expr::BufferLoad { buffer, .. } = buf else {
                    return Err(ExecError::new("binary_search arg 0 must name a buffer"));
                };
                IntExpr::BinarySearch {
                    buf: self.lookup_buf(&buffer.name)?,
                    name: buffer.name.to_string(),
                    lo: Box::new(self.compile_int(lo)?),
                    hi: Box::new(self.compile_int(hi)?),
                    x: Box::new(self.compile_int(x)?),
                }
            }
            other => {
                return Err(ExecError::new(format!("expression is not integer-typed: `{other:?}`")))
            }
        })
    }

    fn compile_float(&self, e: &Expr) -> Result<FloatExpr, ExecError> {
        match kind_of(e) {
            Kind::Float => self.compile_float_raw(e),
            Kind::Int | Kind::Bool => Ok(FloatExpr::FromInt(Box::new(self.compile_int(e)?))),
        }
    }

    fn compile_float_raw(&self, e: &Expr) -> Result<FloatExpr, ExecError> {
        Ok(match e {
            // The literal rounds to `f32` once, as the interpreter's does.
            Expr::Float { value, .. } => FloatExpr::Const(*value as f32),
            Expr::Binary { op, lhs, rhs } => {
                let fop = match op {
                    BinOp::Add => FloatOp::Add,
                    BinOp::Sub => FloatOp::Sub,
                    BinOp::Mul => FloatOp::Mul,
                    BinOp::Div => FloatOp::Div,
                    BinOp::Rem => FloatOp::Rem,
                    BinOp::Min => FloatOp::Min,
                    BinOp::Max => FloatOp::Max,
                    _ => return Err(ExecError::new("predicate in float position")),
                };
                FloatExpr::Bin {
                    op: fop,
                    lhs: Box::new(self.compile_float(lhs)?),
                    rhs: Box::new(self.compile_float(rhs)?),
                }
            }
            Expr::Select { cond, then, otherwise } => FloatExpr::Select {
                cond: Box::new(self.compile_bool(cond)?),
                then_: Box::new(self.compile_float(then)?),
                else_: Box::new(self.compile_float(otherwise)?),
            },
            // A cast to float is the identity on a float operand and one
            // rounding of an integer one: `compile_float` already gives both.
            Expr::Cast { value, .. } => self.compile_float(value)?,
            Expr::BufferLoad { buffer, indices } => FloatExpr::Load {
                buf: self.lookup_buf(&buffer.name)?,
                index: self.compile_index(buffer, indices)?,
            },
            Expr::Call { intrin, args } => {
                if args.is_empty() {
                    return Err(ExecError::new(format!(
                        "intrinsic `{}` expects an argument",
                        intrin.name()
                    )));
                }
                let arg = Box::new(self.compile_float(&args[0])?);
                match intrin {
                    Intrinsic::Exp => FloatExpr::Exp(arg),
                    Intrinsic::Sqrt => FloatExpr::Sqrt(arg),
                    Intrinsic::Relu => FloatExpr::Relu(arg),
                    Intrinsic::BinarySearch => {
                        return Err(ExecError::new("binary_search is integer-typed"))
                    }
                }
            }
            other => {
                return Err(ExecError::new(format!("expression is not float-typed: `{other:?}`")))
            }
        })
    }

    fn compile_bool(&self, e: &Expr) -> Result<BoolExpr, ExecError> {
        match e {
            Expr::Binary { op, lhs, rhs } if op.is_predicate() => match op {
                BinOp::And => Ok(BoolExpr::And(
                    Box::new(self.compile_bool(lhs)?),
                    Box::new(self.compile_bool(rhs)?),
                )),
                BinOp::Or => Ok(BoolExpr::Or(
                    Box::new(self.compile_bool(lhs)?),
                    Box::new(self.compile_bool(rhs)?),
                )),
                _ => {
                    let cmp = match op {
                        BinOp::Eq => CmpOp::Eq,
                        BinOp::Ne => CmpOp::Ne,
                        BinOp::Lt => CmpOp::Lt,
                        BinOp::Le => CmpOp::Le,
                        BinOp::Gt => CmpOp::Gt,
                        BinOp::Ge => CmpOp::Ge,
                        _ => unreachable!("non-comparison predicate handled above"),
                    };
                    // Float comparison if either side is float, matching
                    // the interpreter's dynamic promotion.
                    if kind_of(lhs) == Kind::Float || kind_of(rhs) == Kind::Float {
                        Ok(BoolExpr::CmpF {
                            op: cmp,
                            lhs: Box::new(self.compile_float(lhs)?),
                            rhs: Box::new(self.compile_float(rhs)?),
                        })
                    } else {
                        Ok(BoolExpr::CmpI {
                            op: cmp,
                            lhs: Box::new(self.compile_int(lhs)?),
                            rhs: Box::new(self.compile_int(rhs)?),
                        })
                    }
                }
            },
            _ => match kind_of(e) {
                Kind::Bool => {
                    Err(ExecError::new(format!("unsupported boolean expression: `{e:?}`")))
                }
                Kind::Int => Ok(BoolExpr::IntNonZero(Box::new(self.compile_int(e)?))),
                Kind::Float => Ok(BoolExpr::FloatNonZero(Box::new(self.compile_float(e)?))),
            },
        }
    }

    fn compile_value(&self, e: &Expr) -> Result<ValueExpr, ExecError> {
        Ok(match kind_of(e) {
            Kind::Int => ValueExpr::I(self.compile_int(e)?),
            Kind::Float => ValueExpr::F(self.compile_float(e)?),
            Kind::Bool => ValueExpr::B(self.compile_bool(e)?),
        })
    }

    fn compile_index(&self, buffer: &Buffer, indices: &[Expr]) -> Result<IndexExpr, ExecError> {
        if indices.len() != buffer.shape.len() {
            return Err(ExecError::new(format!(
                "buffer `{}` has {} dims but {} indices given",
                buffer.name,
                buffer.shape.len(),
                indices.len()
            )));
        }
        let mut dims = Vec::with_capacity(indices.len());
        for (idx, dim) in indices.iter().zip(&buffer.shape) {
            dims.push((self.compile_int(idx)?, self.compile_int(dim)?));
        }
        Ok(IndexExpr { name: buffer.name.to_string(), dims })
    }

    fn compile_tile(&self, t: &TensorTile) -> Result<CompiledTile, ExecError> {
        Ok(CompiledTile {
            buf: self.lookup_buf(&t.buffer.name)?,
            name: t.buffer.name.to_string(),
            offset: self.compile_int(&t.offset)?,
            row_stride: self.compile_int(&t.row_stride)?,
        })
    }

    /// Every loop compiles to a serial [`CStmt::For`], whatever its
    /// `ForKind`: the interpreter ignores thread bindings too.
    fn compile_stmt(&mut self, s: &Stmt) -> Result<CStmt, ExecError> {
        Ok(match s {
            Stmt::For { var, extent, body, .. } => {
                let extent = self.compile_int(extent)?;
                self.var_scopes.push(HashMap::new());
                let slot = self.fresh_slot(&var.name);
                let body = Box::new(self.compile_stmt(body)?);
                self.var_scopes.pop();
                CStmt::For { slot, extent, body }
            }
            Stmt::Block(b) => {
                // Bindings are evaluated sequentially in the outer scope,
                // but each iter var enters scope as soon as it is bound
                // (later bindings may reference earlier iter vars).
                self.var_scopes.push(HashMap::new());
                let mut iters = Vec::with_capacity(b.iter_vars.len());
                for iv in &b.iter_vars {
                    let binding = self.compile_int(&iv.binding)?;
                    let slot = self.fresh_slot(&iv.var.name);
                    iters.push((slot, binding, iv.kind == IterKind::Reduce));
                }
                let all_spatial = b.iter_vars.iter().all(|iv| iv.kind == IterKind::Spatial);
                let init = match &b.init {
                    Some(init) => Some(Box::new(self.compile_stmt(init)?)),
                    None => None,
                };
                let body = Box::new(self.compile_stmt(&b.body)?);
                self.var_scopes.pop();
                CStmt::Block(CBlock { iters, all_spatial, init, body })
            }
            Stmt::BufferStore { buffer, indices, value } => {
                let buf = self.lookup_buf(&buffer.name)?;
                let index = self.compile_index(buffer, indices)?;
                if buffer.dtype.is_float() {
                    CStmt::StoreF { buf, index, value: self.compile_float(value)? }
                } else {
                    match kind_of(value) {
                        // The interpreter raises "expected int, got float"
                        // only when the store executes; match that.
                        Kind::Float => CStmt::Fail(
                            "expected int, got float (float value stored to int buffer)".into(),
                        ),
                        _ => CStmt::StoreI { buf, index, value: self.compile_int(value)? },
                    }
                }
            }
            Stmt::Seq(stmts) => {
                let mut out = Vec::with_capacity(stmts.len());
                for st in stmts {
                    out.push(self.compile_stmt(st)?);
                }
                CStmt::Seq(out)
            }
            Stmt::IfThenElse { cond, then_branch, else_branch } => CStmt::If {
                cond: self.compile_bool(cond)?,
                then_: Box::new(self.compile_stmt(then_branch)?),
                else_: match else_branch {
                    Some(e) => Some(Box::new(self.compile_stmt(e)?)),
                    None => None,
                },
            },
            Stmt::Let { var, value, body } => {
                if kind_of(value) == Kind::Float {
                    // The interpreter raises "expected int, got float"
                    // only when the Let executes; match that laziness.
                    CStmt::Fail("expected int, got float (float value bound by let)".into())
                } else {
                    let value = self.compile_int(value)?;
                    self.var_scopes.push(HashMap::new());
                    let slot = self.fresh_slot(&var.name);
                    let body = Box::new(self.compile_stmt(body)?);
                    self.var_scopes.pop();
                    CStmt::Let { slot, value, body }
                }
            }
            Stmt::Allocate { buffer, body } => {
                let len_dims = buffer
                    .shape
                    .iter()
                    .map(|d| self.compile_int(d))
                    .collect::<Result<Vec<_>, _>>()?;
                self.buf_scopes.push(HashMap::new());
                let buf = self.fresh_buf(&buffer.name);
                let body = Box::new(self.compile_stmt(body)?);
                self.buf_scopes.pop();
                let name = buffer.name.to_string();
                CStmt::Alloc { buf, name, is_float: buffer.dtype.is_float(), len_dims, body }
            }
            Stmt::Evaluate(e) => CStmt::EvalV(self.compile_value(e)?),
            Stmt::MmaSync { c, a, b, m, n, k } => CStmt::Mma(Box::new(MmaOp {
                c: self.compile_tile(c)?,
                a: self.compile_tile(a)?,
                b: self.compile_tile(b)?,
                m: *m,
                n: *n,
                k: *k,
            })),
        })
    }
}

/// Constant-fold integer binops at compile time, as `IntExpr::eval`
/// computes them; a division or remainder by zero or one that overflows
/// is left to run time, so its error is preserved.
fn fold_int(op: IntOp, lhs: IntExpr, rhs: IntExpr) -> IntExpr {
    if let (IntExpr::Const(a), IntExpr::Const(b)) = (&lhs, &rhs) {
        let (a, b) = (*a, *b);
        let v = match op {
            IntOp::Add => Some(a.wrapping_add(b)),
            IntOp::Sub => Some(a.wrapping_sub(b)),
            IntOp::Mul => Some(a.wrapping_mul(b)),
            IntOp::Div if b != 0 => a.checked_div_euclid(b),
            IntOp::Rem if b != 0 => a.checked_rem_euclid(b),
            IntOp::Min => Some(a.min(b)),
            IntOp::Max => Some(a.max(b)),
            _ => None,
        };
        if let Some(v) = v {
            return IntExpr::Const(v);
        }
    }
    IntExpr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A compiled, reusable kernel: run it many times against different tensor
/// bindings without re-walking the IR.
pub struct CompiledKernel {
    name: String,
    /// The function's scalar params: scalar slots `0..n_params`.
    n_params: u32,
    /// The function's buffers: buffer slots `0..n_buffers`.
    n_buffers: u32,
    /// The lowered flat instruction stream.
    code: bytecode::Code,
    fuse: bool,
    /// Source name of every scalar slot, by index.
    slot_names: Vec<String>,
    /// Compile-time memory requirements and name of every buffer slot.
    plan: MemoryPlan,
    /// Size-classed pool serving `Allocate` scratch at run time. Kernels
    /// compiled through a [`Runtime`] share its pool; standalone
    /// compilations get a private one.
    pool: Arc<BufferPool>,
}

impl fmt::Debug for CompiledKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledKernel")
            .field("name", &self.name)
            .field("slots", &self.slot_names.len())
            .field("buffers", &self.plan.entries.len())
            .finish()
    }
}

impl CompiledKernel {
    /// Compile `func` into a slot-indexed program with the dense-lane
    /// microkernel fusion pass on — the one build every library and
    /// serving path runs.
    ///
    /// # Errors
    /// Returns [`ExecError`] on references to unbound names or ill-typed
    /// constructs that the interpreter would also reject.
    pub fn compile(func: &PrimFunc) -> Result<CompiledKernel, ExecError> {
        Self::compile_with(func, true)
    }

    /// Compile `func` with the fusion pass on (`true`, what
    /// [`CompiledKernel::compile`] does) or off (`false`). The
    /// slot-compiled statement tree is lowered to a flat instruction
    /// stream; with fusion on, matching loops lower to superinstructions
    /// with the generic loop right behind each one as the bit-exact
    /// fallback. With fusion off the kernel runs entirely on generic
    /// dispatch: a **test reference** — the middle rung of the
    /// interpreter / bytecode / bytecode+super differential — that no
    /// library or serving call selects.
    ///
    /// # Errors
    /// Returns [`ExecError`] on references to unbound names or ill-typed
    /// constructs that the interpreter would also reject.
    pub fn compile_with(func: &PrimFunc, fuse: bool) -> Result<CompiledKernel, ExecError> {
        let mut c = Compiler::new();
        for p in &func.params {
            c.fresh_slot(&p.name);
        }
        for b in &func.buffers {
            c.fresh_buf(&b.name);
        }
        // The params took the first slots, and no statement writes one.
        let (n_params, n_buffers) = (c.slot_names.len() as u32, c.buf_names.len() as u32);
        let tree = c.compile_stmt(&func.body)?;
        let plan = MemoryPlan::of(func, c.buf_names, &tree);
        Ok(CompiledKernel {
            name: func.name.to_string(),
            n_params,
            n_buffers,
            code: bytecode::lower(&tree, fuse, n_params),
            fuse,
            slot_names: c.slot_names,
            plan,
            pool: Arc::new(BufferPool::new()),
        })
    }

    /// Kernel name (the `PrimFunc` name it was compiled from).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of scalar slots in the compiled frame (compile-time resolved
    /// variables; diagnostic).
    #[must_use]
    pub fn scalar_slots(&self) -> usize {
        self.slot_names.len()
    }

    /// Number of dense-lane microkernel instructions the fusion pass
    /// produced: lane ops `dst[l] = combine(dst[l], value(l))`, each one of
    /// the six instances `FillLanes`, `AxpyLanes`, `DotLanes`,
    /// `GatherScaleAccumulate`, `MaxLanes`, `ExpDiffLanes`. Zero when compiled with fusion disabled or when no
    /// innermost loop matched a contiguous dense-lane pattern.
    #[must_use]
    pub fn fused_ops(&self) -> usize {
        self.code.fused_ops()
    }

    /// The instance name of each fused lane op, in program order
    /// (diagnostics; e.g. `["FillLanes", "AxpyLanes"]` for the hyb SpMM).
    #[must_use]
    pub fn fused_kinds(&self) -> Vec<&'static str> {
        self.code.micro_names()
    }

    /// Stable text listing of the kernel's flat bytecode: header, param
    /// and buffer tables, the scalar-slot table, and one line per
    /// instruction.
    #[must_use]
    pub fn disassemble(&self) -> String {
        disasm::render(self, &self.code)
    }

    /// What the kernel's row nests did, summed over every run so far
    /// (read-only; a diagnostic, like [`CompiledKernel::fused_ops`]).
    #[must_use]
    pub fn nest_counts(&self) -> NestCounts {
        self.code.nest_counts()
    }

    /// Execute against named scalar parameters and tensor storage, exactly
    /// like [`crate::eval::eval_func`]. Output buffers mutate in place.
    /// Each parameter and buffer binds into the launch's slot table, as
    /// [`CompiledKernel::run_views`] runs it.
    ///
    /// # Errors
    /// Returns [`ExecError`] on missing bindings, divide-by-zero and
    /// out-of-bounds accesses — the same conditions (and messages) as the
    /// reference interpreter.
    pub fn run(
        &self,
        scalars: &HashMap<String, i64>,
        tensors: &mut HashMap<String, TensorData>,
    ) -> Result<(), ExecError> {
        let mut views = ViewBindings::new(self);
        for (name, &v) in scalars {
            views.bind_scalar(name, v);
        }
        // Distinct keys, one tensor each, borrowed unchanged for the launch.
        for (name, t) in tensors.iter_mut() {
            views.bind(name, RawBuf::of(t));
        }
        self.run_views(&mut views)
    }

    /// Execute on `views`, the slot table bound for this kernel: on
    /// borrowed flat slices of caller-owned storage instead of whole
    /// tensors. This is the zero-copy entry: a batch re-binds each rider's
    /// operands and output and launches once per rider, writing straight
    /// into the rider's result buffer. The names were resolved when the
    /// bindings were made; a launch checks that every parameter and
    /// function-level buffer is bound, with its dtype, and runs — it
    /// resolves no name, allocates no table and takes no lock. Error
    /// conditions and wording match `run`; stores to a read-only binding
    /// fail with a "read-only view" error.
    ///
    /// # Errors
    /// Returns [`ExecError`] on missing bindings, dtype mismatches and
    /// the interpreter's run-time error conditions.
    ///
    /// # Panics
    /// Panics when `views` was made for another kernel.
    pub fn run_views(&self, views: &mut ViewBindings<'_>) -> Result<(), ExecError> {
        assert!(std::ptr::eq(views.kernel, self), "bindings made for another kernel");
        let table = &mut views.slots;
        if let Some(p) = table.bound.iter().position(|b| !b) {
            return Err(ExecError::new(format!("missing scalar param `{}`", self.slot_names[p])));
        }
        let args = &self.plan.entries[..self.n_buffers as usize];
        for (raw, PlanEntry { name, is_float, .. }) in table.bufs.iter().zip(args) {
            let refusal = match *raw {
                RawBuf::Absent => format!("missing tensor binding for buffer `{name}`"),
                raw if *is_float != matches!(raw, RawBuf::F32 { .. }) => {
                    format!("buffer `{name}` bound to storage of mismatched dtype")
                }
                _ => continue,
            };
            return Err(ExecError::new(refusal));
        }
        let mut frame = Frame {
            scalars: std::mem::take(&mut table.scalars),
            bufs: std::mem::take(&mut table.bufs),
            locals: Vec::new(),
            pool: Arc::clone(&self.pool),
        };
        let result = self.code.exec(&mut frame);
        (table.scalars, table.bufs) = (frame.scalars, frame.bufs);
        result
    }

    /// The kernel's compile-time memory plan: per-buffer-slot element
    /// counts where statically known, with kernel-local scratch flagged
    /// (those allocations are served from the kernel's buffer pool).
    #[must_use]
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests;
