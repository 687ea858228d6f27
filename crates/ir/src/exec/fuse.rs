//! Dense-lane microkernel fusion over the compiled statement tree.
//!
//! The slot-compiled executor ([`super`]) still dispatches one typed
//! instruction per scalar in innermost loops: a 32-wide feature-dimension
//! loop of CSR SpMM pays dozens of enum dispatches, two index
//! flattenings and several bounds checks *per lane*. SparseTIR's
//! generated CUDA avoids exactly this overhead by emitting tight dense
//! inner loops over the feature dimension once the sparse iteration has
//! been lowered away (§3.3); this pass is the executor-side analogue.
//!
//! [`build_fused`] analyzes one innermost `For` whose body is a single
//! `f32` store (optionally wrapped in a reduction block) and yields a
//! [`LaneSpec`] — which the bytecode lowering emits as a superinstruction
//! — when compile-time analysis proves:
//!
//! * every block-iter binding is **affine** in the lane variable
//!   (`base + stride·lane`) with a compile-time-constant stride;
//! * the store target walks a **contiguous** flat axis (lane stride 1),
//!   or is lane-invariant for scalar reductions;
//! * the value expression is one of the four recognized microkernel
//!   shapes ([`Micro`]): `FillLanes`, `AxpyLanes`, `DotLanes`,
//!   `GatherScaleAccumulate`; and
//! * nothing re-evaluated inside the loop **reads the written buffer** —
//!   a slot-level aliasing analysis mirroring the name-level taint check
//!   that gates `blockIdx` parallelization in the parent module.
//!
//! Anything non-contiguous, non-affine, predicated (an `if` in the lane
//! body), or alias-hazardous is left on generic dispatch. The generic
//! loop is also lowered right behind every superinstruction: at run time
//! the microkernel validates every lane's bounds up front and falls
//! through to the generic loop on any violation or evaluation error, so
//! error messages and error ordering stay interpreter-identical.
//!
//! Arithmetic is replicated bit-for-bit: lanes load `f32`, widen to
//! `f64`, combine in the source expression's exact association and
//! operand order, and store back through an `f32` cast per element —
//! including the per-iteration `f32` round-trip of memory-accumulating
//! reductions. Element accesses go through the same relaxed-atomic
//! helpers as generic dispatch, so contract-violating IR still cannot
//! cause undefined behavior: the fused loops win by eliminating
//! dispatch and per-lane index programs, not by weakening the memory
//! model.

use super::{
    elem_load_f32, elem_store_f32, CStmt, ColSeg, FloatExpr, FloatOp, Frame, IndexExpr, IntExpr,
    IntOp, RawBuf,
};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Compile-time stride / invariance / aliasing analysis
// ---------------------------------------------------------------------------

/// Lane-stride environment: scalar slot → linear coefficient of the lane
/// variable in that slot's value. The lane slot itself maps to 1; block
/// iters derived from it map to their computed stride; absent slots are
/// lane-invariant.
type StrideEnv = HashMap<u32, i64>;

/// Linear coefficient of the lane variable in `e`, or `None` when `e` is
/// not affine in it (the lane appears under division, selection, a load
/// index of non-affine shape, …).
fn int_stride(e: &IntExpr, env: &StrideEnv) -> Option<i64> {
    match e {
        IntExpr::Const(_) => Some(0),
        IntExpr::Slot(s) => Some(env.get(s).copied().unwrap_or(0)),
        IntExpr::Bin { op, lhs, rhs } => {
            let ls = int_stride(lhs, env)?;
            let rs = int_stride(rhs, env)?;
            match op {
                IntOp::Add => ls.checked_add(rs),
                IntOp::Sub => ls.checked_sub(rs),
                IntOp::Mul => {
                    if ls == 0 && rs == 0 {
                        Some(0)
                    } else if rs == 0 {
                        if let IntExpr::Const(c) = **rhs {
                            ls.checked_mul(c)
                        } else {
                            None
                        }
                    } else if ls == 0 {
                        if let IntExpr::Const(c) = **lhs {
                            rs.checked_mul(c)
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                }
                IntOp::Div | IntOp::Rem | IntOp::Min | IntOp::Max => {
                    if ls == 0 && rs == 0 {
                        Some(0)
                    } else {
                        None
                    }
                }
            }
        }
        IntExpr::Select { cond, then_, else_ } => {
            if bool_invariant(cond, env)
                && int_stride(then_, env)? == 0
                && int_stride(else_, env)? == 0
            {
                Some(0)
            } else {
                None
            }
        }
        IntExpr::CastViaF64(f) => float_invariant(f, env).then_some(0),
        IntExpr::BoolToInt(b) => bool_invariant(b, env).then_some(0),
        IntExpr::Load { index, .. } => index_invariant(index, env).then_some(0),
        IntExpr::BinarySearch { lo, hi, x, .. } => {
            (int_stride(lo, env)? == 0 && int_stride(hi, env)? == 0 && int_stride(x, env)? == 0)
                .then_some(0)
        }
    }
}

/// True when `e` provably evaluates to the same value at every lane.
fn float_invariant(e: &FloatExpr, env: &StrideEnv) -> bool {
    match e {
        FloatExpr::Const(_) => true,
        FloatExpr::Bin { lhs, rhs, .. } => float_invariant(lhs, env) && float_invariant(rhs, env),
        FloatExpr::Select { cond, then_, else_ } => {
            bool_invariant(cond, env) && float_invariant(then_, env) && float_invariant(else_, env)
        }
        FloatExpr::FromInt(i) => int_stride(i, env) == Some(0),
        FloatExpr::Load { index, .. } => index_invariant(index, env),
        FloatExpr::Exp(v) | FloatExpr::Sqrt(v) | FloatExpr::Relu(v) => float_invariant(v, env),
    }
}

/// True when `e` provably evaluates to the same value at every lane.
fn bool_invariant(e: &super::BoolExpr, env: &StrideEnv) -> bool {
    use super::BoolExpr;
    match e {
        BoolExpr::CmpI { lhs, rhs, .. } => {
            int_stride(lhs, env) == Some(0) && int_stride(rhs, env) == Some(0)
        }
        BoolExpr::CmpF { lhs, rhs, .. } => float_invariant(lhs, env) && float_invariant(rhs, env),
        BoolExpr::And(l, r) | BoolExpr::Or(l, r) => {
            bool_invariant(l, env) && bool_invariant(r, env)
        }
        BoolExpr::IntNonZero(i) => int_stride(i, env) == Some(0),
        BoolExpr::FloatNonZero(f) => float_invariant(f, env),
    }
}

fn index_invariant(ix: &IndexExpr, env: &StrideEnv) -> bool {
    ix.dims
        .iter()
        .all(|(idx, ext)| int_stride(idx, env) == Some(0) && int_stride(ext, env) == Some(0))
}

/// Lane stride of the flattened index: every extent and every dimension
/// except the innermost must be lane-invariant; the innermost dimension's
/// index must be affine in the lane. Because flattening is
/// `flat = prefix·d_last + i_last` and the fused runtime keeps `i_last`
/// inside `[0, d_last)` for every lane, the flat index advances by exactly
/// this stride per lane (no carry into outer dimensions).
fn index_lane_stride(ix: &IndexExpr, env: &StrideEnv) -> Option<i64> {
    let (last, front) = ix.dims.split_last()?;
    for (idx, ext) in front {
        if int_stride(idx, env)? != 0 || int_stride(ext, env)? != 0 {
            return None;
        }
    }
    if int_stride(&last.1, env)? != 0 {
        return None;
    }
    int_stride(&last.0, env)
}

/// Does `e` load (directly or transitively) from buffer slot `buf`?
/// Anything re-evaluated per lane that reads the fused store's target
/// buffer defeats invariance hoisting, so such loops are never fused.
fn int_loads(e: &IntExpr, buf: u32) -> bool {
    match e {
        IntExpr::Const(_) | IntExpr::Slot(_) => false,
        IntExpr::Bin { lhs, rhs, .. } => int_loads(lhs, buf) || int_loads(rhs, buf),
        IntExpr::Select { cond, then_, else_ } => {
            bool_loads(cond, buf) || int_loads(then_, buf) || int_loads(else_, buf)
        }
        IntExpr::CastViaF64(f) => float_loads(f, buf),
        IntExpr::BoolToInt(b) => bool_loads(b, buf),
        IntExpr::Load { buf: b, index } => *b == buf || index_loads(index, buf),
        IntExpr::BinarySearch { buf: b, lo, hi, x, .. } => {
            *b == buf || int_loads(lo, buf) || int_loads(hi, buf) || int_loads(x, buf)
        }
    }
}

fn float_loads(e: &FloatExpr, buf: u32) -> bool {
    match e {
        FloatExpr::Const(_) => false,
        FloatExpr::Bin { lhs, rhs, .. } => float_loads(lhs, buf) || float_loads(rhs, buf),
        FloatExpr::Select { cond, then_, else_ } => {
            bool_loads(cond, buf) || float_loads(then_, buf) || float_loads(else_, buf)
        }
        FloatExpr::FromInt(i) => int_loads(i, buf),
        FloatExpr::Load { buf: b, index } => *b == buf || index_loads(index, buf),
        FloatExpr::Exp(v) | FloatExpr::Sqrt(v) | FloatExpr::Relu(v) => float_loads(v, buf),
    }
}

fn bool_loads(e: &super::BoolExpr, buf: u32) -> bool {
    use super::BoolExpr;
    match e {
        BoolExpr::CmpI { lhs, rhs, .. } => int_loads(lhs, buf) || int_loads(rhs, buf),
        BoolExpr::CmpF { lhs, rhs, .. } => float_loads(lhs, buf) || float_loads(rhs, buf),
        BoolExpr::And(l, r) | BoolExpr::Or(l, r) => bool_loads(l, buf) || bool_loads(r, buf),
        BoolExpr::IntNonZero(i) => int_loads(i, buf),
        BoolExpr::FloatNonZero(f) => float_loads(f, buf),
    }
}

fn index_loads(ix: &IndexExpr, buf: u32) -> bool {
    ix.dims.iter().any(|(idx, ext)| int_loads(idx, buf) || int_loads(ext, buf))
}

// ---------------------------------------------------------------------------
// Fused program representation
// ---------------------------------------------------------------------------

/// A per-lane view of an `f32` buffer: the index program evaluated with
/// the lane variable at 0 yields the base element; consecutive lanes
/// advance the flat index by `stride` (compile-time constant, proven by
/// [`index_lane_stride`]).
#[derive(Debug, Clone)]
pub(super) struct LaneView {
    pub buf: u32,
    pub index: IndexExpr,
    pub stride: i64,
}

/// Association / operand-order shape of a recognized per-lane term.
/// Preserved exactly so `f64` arithmetic (including NaN payload
/// propagation) is bit-identical to generic dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TermShape {
    /// `a[l]`
    AOnly,
    /// `coeff * a[l]`
    CoeffA,
    /// `a[l] * coeff`
    ACoeff,
    /// `a[l] * b[l]`
    AB,
    /// `(coeff * a[l]) * b[l]`
    CoeffAB,
    /// `(a[l] * coeff) * b[l]`
    ACoeffB,
    /// `coeff * (a[l] * b[l])`
    CoeffParenAB,
}

/// The per-lane `f64` term `t(l)` added into an accumulator: up to two
/// lane-striding loads plus an optional lane-invariant coefficient,
/// combined in one of [`TermShape`]'s association orders.
#[derive(Debug, Clone)]
pub(super) struct TermSpec {
    pub shape: TermShape,
    pub coeff: Option<FloatExpr>,
    pub a: LaneView,
    pub b: Option<LaneView>,
}

/// When (at which lanes) the block's init statement fires.
#[derive(Debug, Clone)]
pub(super) enum InitKind {
    /// No init statement.
    None,
    /// All-spatial block with an init: fires at every lane.
    Always { value: FloatExpr },
    /// Every reduce binding is lane-invariant: decided once per
    /// invocation (fires at every lane or at none).
    WhenReduceZero { value: FloatExpr },
    /// Some reduce binding strides with the lane: fires at the single
    /// lane where every reduce binding is zero (scalar reductions only).
    AtZeroLane { value: FloatExpr },
}

/// Specialized dense-lane microkernel instructions. Each operates on
/// `f32` element ranges resolved once per invocation, replacing the
/// per-lane instruction dispatch of the generic executor.
#[derive(Debug, Clone)]
pub(super) enum Micro {
    /// `dst[l] = v` for `l ∈ 0..n` — contiguous fill with a
    /// lane-invariant value (format-init loops, `C = 0` epilogues).
    FillLanes { dst: LaneView, value: FloatExpr },
    /// `dst[l] = f32(f64(dst[l]) + t(l))` over contiguous `dst`/`a`
    /// lanes — the SpMM/ELL inner loop `C[i, 0..d] += a_ij · B[j, 0..d]`.
    AxpyLanes { dst: LaneView, term: TermSpec },
    /// `acc = f32(f64(acc) + a[l]·b[l])` into one lane-invariant
    /// element, both operands contiguous — dot-product reductions over
    /// the feature dimension.
    DotLanes { dst: LaneView, term: TermSpec },
    /// [`Micro::DotLanes`] generalized with an invariant scale and/or a
    /// constant-strided (gathered) operand — the SDDMM inner loop
    /// `Bout[e] += (a_e · X[i, 0..d]) · Y[0..d, j]` where `Y`'s column
    /// walk strides by the number of columns.
    GatherScaleAccumulate { dst: LaneView, term: TermSpec },
}

impl Micro {
    /// Instruction name (diagnostics / bench tables).
    pub(super) fn name(&self) -> &'static str {
        match self {
            Micro::FillLanes { .. } => "FillLanes",
            Micro::AxpyLanes { .. } => "AxpyLanes",
            Micro::DotLanes { .. } => "DotLanes",
            Micro::GatherScaleAccumulate { .. } => "GatherScaleAccumulate",
        }
    }
}

/// One block-iter binding of the fused loop, with its proven lane stride.
#[derive(Debug, Clone)]
pub(super) struct FusedIter {
    pub slot: u32,
    pub binding: IntExpr,
    pub is_reduce: bool,
    pub stride: i64,
}

/// A fused lane loop: everything the microkernel fast path needs (lane
/// slot, extent, proven iter strides, init classification, the [`Micro`]
/// op). The bytecode lowering embeds it in a `Super` instruction whose
/// fallback is the generic loop lowered right after it in the flat
/// stream.
#[derive(Debug, Clone)]
pub(super) struct LaneSpec {
    pub lane_slot: u32,
    pub extent: IntExpr,
    pub iters: Vec<FusedIter>,
    pub init: InitKind,
    pub micro: Micro,
}

// ---------------------------------------------------------------------------
// Pattern detection
// ---------------------------------------------------------------------------

/// See through single-statement `Seq` wrappers (lowering routinely wraps
/// loop and block bodies in singleton sequences).
fn single(mut s: &CStmt) -> &CStmt {
    while let CStmt::Seq(v) = s {
        match v.as_slice() {
            [only] => s = only,
            _ => break,
        }
    }
    s
}

/// Analyze a `For` node; `Some(spec)` when it matches a fusible lane
/// loop (the bytecode lowering pass emits the spec as a `Super`
/// instruction).
#[allow(clippy::too_many_lines)]
pub(super) fn build_fused(node: &CStmt) -> Option<LaneSpec> {
    let CStmt::For { slot: lane, extent, body } = node else {
        return None;
    };
    // Decompose the loop body into (block iters, all_spatial, init, store).
    let (iters_src, all_spatial, init_src, store): (&[_], bool, Option<&CStmt>, &CStmt) =
        match single(body) {
            CStmt::Block(b) => match single(&b.body) {
                st @ CStmt::StoreF { .. } => {
                    (b.iters.as_slice(), b.all_spatial, b.init.as_deref().map(single), st)
                }
                _ => return None,
            },
            st @ CStmt::StoreF { .. } => (&[], true, None, st),
            _ => return None,
        };
    let CStmt::StoreF { buf: dst_buf, index: dst_index, value } = store else {
        return None;
    };

    // Stride environment: lane → 1, then each block iter in binding order.
    let mut env = StrideEnv::new();
    env.insert(*lane, 1);
    let mut iters = Vec::with_capacity(iters_src.len());
    for (slot, binding, is_reduce) in iters_src {
        let stride = int_stride(binding, &env)?;
        env.insert(*slot, stride);
        iters.push(FusedIter {
            slot: *slot,
            binding: binding.clone(),
            is_reduce: *is_reduce,
            stride,
        });
    }
    let reduce_strided = iters.iter().any(|it| it.is_reduce && it.stride != 0);

    let dst_stride = index_lane_stride(dst_index, &env)?;
    let dst = *dst_buf;

    // Init statement must be a store of an invariant value to the exact
    // same element(s) the body writes.
    let init_value = match init_src {
        None => None,
        Some(CStmt::StoreF { buf, index, value: iv })
            if *buf == dst && index == dst_index && float_invariant(iv, &env) =>
        {
            Some(iv.clone())
        }
        Some(_) => return None,
    };
    let init = match init_value {
        None => InitKind::None,
        Some(value) => {
            if all_spatial {
                InitKind::Always { value }
            } else if reduce_strided {
                InitKind::AtZeroLane { value }
            } else {
                InitKind::WhenReduceZero { value }
            }
        }
    };

    // Aliasing: nothing re-evaluated per lane may read the written buffer.
    let clean = |spec: Option<&TermSpec>| -> bool {
        let mut ok =
            !index_loads(dst_index, dst) && iters.iter().all(|it| !int_loads(&it.binding, dst));
        if let InitKind::Always { value }
        | InitKind::WhenReduceZero { value }
        | InitKind::AtZeroLane { value } = &init
        {
            ok = ok && !float_loads(value, dst);
        }
        if let Some(t) = spec {
            ok = ok
                && t.a.buf != dst
                && !index_loads(&t.a.index, dst)
                && t.b.as_ref().is_none_or(|b| b.buf != dst && !index_loads(&b.index, dst))
                && t.coeff.as_ref().is_none_or(|c| !float_loads(c, dst));
        }
        ok
    };

    // Shape 1: contiguous fill — invariant value, no init, no reduce
    // toggling (the store *is* the only effect).
    if dst_stride == 1 && float_invariant(value, &env) {
        if init_src.is_some() || reduce_strided {
            return None;
        }
        let micro = Micro::FillLanes {
            dst: LaneView { buf: dst, index: dst_index.clone(), stride: 1 },
            value: value.clone(),
        };
        if !clean(None) {
            return None;
        }
        if let Micro::FillLanes { value, .. } = &micro {
            if float_loads(value, dst) {
                return None;
            }
        }
        return Some(LaneSpec { lane_slot: *lane, extent: extent.clone(), iters, init, micro });
    }

    // Accumulating store: value = Load(dst, dst_index) + term.
    let FloatExpr::Bin { op: FloatOp::Add, lhs, rhs } = value else {
        return None;
    };
    let FloatExpr::Load { buf: acc_buf, index: acc_index } = &**lhs else {
        return None;
    };
    if *acc_buf != dst || acc_index != dst_index {
        return None;
    }
    let term = match_term(rhs, &env)?;

    if dst_stride == 1 {
        // AxpyLanes: contiguous destination and operands, init must not
        // toggle mid-loop.
        if reduce_strided || term.a.stride != 1 || term.b.as_ref().is_some_and(|b| b.stride != 1) {
            return None;
        }
        if !clean(Some(&term)) {
            return None;
        }
        let micro = Micro::AxpyLanes {
            dst: LaneView { buf: dst, index: dst_index.clone(), stride: 1 },
            term,
        };
        return Some(LaneSpec { lane_slot: *lane, extent: extent.clone(), iters, init, micro });
    }

    if dst_stride == 0 {
        // Scalar reduction into one element.
        if !clean(Some(&term)) {
            return None;
        }
        let dstv = LaneView { buf: dst, index: dst_index.clone(), stride: 0 };
        let contiguous_dot = term.shape == TermShape::AB
            && term.a.stride == 1
            && term.b.as_ref().is_some_and(|b| b.stride == 1);
        let micro = if contiguous_dot {
            Micro::DotLanes { dst: dstv, term }
        } else {
            Micro::GatherScaleAccumulate { dst: dstv, term }
        };
        return Some(LaneSpec { lane_slot: *lane, extent: extent.clone(), iters, init, micro });
    }

    None
}

enum Class {
    Inv,
    Lane(LaneView),
    Other,
}

fn classify(e: &FloatExpr, env: &StrideEnv) -> Class {
    if float_invariant(e, env) {
        return Class::Inv;
    }
    match lane_load(e, env) {
        Some(v) => Class::Lane(v),
        None => Class::Other,
    }
}

fn lane_load(e: &FloatExpr, env: &StrideEnv) -> Option<LaneView> {
    let FloatExpr::Load { buf, index } = e else {
        return None;
    };
    let stride = index_lane_stride(index, env)?;
    if stride == 0 {
        return None;
    }
    Some(LaneView { buf: *buf, index: index.clone(), stride })
}

fn match_term(e: &FloatExpr, env: &StrideEnv) -> Option<TermSpec> {
    if let Some(a) = lane_load(e, env) {
        return Some(TermSpec { shape: TermShape::AOnly, coeff: None, a, b: None });
    }
    let FloatExpr::Bin { op: FloatOp::Mul, lhs, rhs } = e else {
        return None;
    };
    match (classify(lhs, env), classify(rhs, env)) {
        (Class::Inv, Class::Lane(a)) => {
            Some(TermSpec { shape: TermShape::CoeffA, coeff: Some((**lhs).clone()), a, b: None })
        }
        (Class::Lane(a), Class::Inv) => {
            Some(TermSpec { shape: TermShape::ACoeff, coeff: Some((**rhs).clone()), a, b: None })
        }
        (Class::Lane(a), Class::Lane(b)) => {
            Some(TermSpec { shape: TermShape::AB, coeff: None, a, b: Some(b) })
        }
        (Class::Other, Class::Lane(b)) => {
            // (x * y) * b — recognize (coeff * a) * b and (a * coeff) * b.
            let FloatExpr::Bin { op: FloatOp::Mul, lhs: ll, rhs: lr } = &**lhs else {
                return None;
            };
            match (classify(ll, env), classify(lr, env)) {
                (Class::Inv, Class::Lane(a)) => Some(TermSpec {
                    shape: TermShape::CoeffAB,
                    coeff: Some((**ll).clone()),
                    a,
                    b: Some(b),
                }),
                (Class::Lane(a), Class::Inv) => Some(TermSpec {
                    shape: TermShape::ACoeffB,
                    coeff: Some((**lr).clone()),
                    a,
                    b: Some(b),
                }),
                _ => None,
            }
        }
        (Class::Inv, Class::Other) => {
            // coeff * (a * b)
            let FloatExpr::Bin { op: FloatOp::Mul, lhs: rl, rhs: rr } = &**rhs else {
                return None;
            };
            match (classify(rl, env), classify(rr, env)) {
                (Class::Lane(a), Class::Lane(b)) => Some(TermSpec {
                    shape: TermShape::CoeffParenAB,
                    coeff: Some((**lhs).clone()),
                    a,
                    b: Some(b),
                }),
                _ => None,
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Resolved lane range of one buffer: every lane's element has been
/// bounds-checked against both the declared shape and the bound storage.
#[derive(Clone, Copy)]
enum Lanes {
    /// Contiguous (or strided) run inside one allocation.
    Contig { ptr: *mut f32, base: i64, stride: i64 },
    /// Unit-stride run across a column-segmented binding that crosses a
    /// segment boundary: each lane chases its own table entry.
    Cols { table: *const ColSeg, row: usize, col0: usize },
}

impl Lanes {
    /// SAFETY: `l < n` for the `n` this was resolved with; every lane was
    /// bounds-checked by `resolve_lanes`.
    #[inline]
    unsafe fn load(&self, l: i64) -> f32 {
        match *self {
            Lanes::Contig { ptr, base, stride } => elem_load_f32(ptr, (base + stride * l) as usize),
            Lanes::Cols { table, row, col0 } => {
                let e = &*table.add(col0 + l as usize);
                elem_load_f32(e.ptr, row * e.stride as usize)
            }
        }
    }

    /// SAFETY: same contract as [`Lanes::load`]; the view's writability
    /// was checked by `resolve_lanes(.., true)`.
    #[inline]
    unsafe fn store(&self, l: i64, v: f32) {
        match *self {
            Lanes::Contig { ptr, base, stride } => {
                elem_store_f32(ptr, (base + stride * l) as usize, v);
            }
            Lanes::Cols { table, row, col0 } => {
                let e = &*table.add(col0 + l as usize);
                elem_store_f32(e.ptr, row * e.stride as usize, v);
            }
        }
    }
}

/// Resolve `view` for `n` lanes, validating every lane's bounds without
/// raising: `None` means "run the generic loop instead" (which reproduces
/// the exact interpreter error, if any). `for_store` additionally
/// requires the binding to be writable, so stores into read-only
/// segmented views fall back to the generic loop's error path.
fn resolve_lanes(fr: &Frame, view: &LaneView, n: i64, for_store: bool) -> Option<Lanes> {
    let (flat, last_i, last_d) = view.index.eval_with_last(fr).ok()?;
    let span = view.stride.checked_mul(n - 1)?;
    let last_end = last_i.checked_add(span)?;
    if last_end < 0 || last_end >= last_d {
        return None;
    }
    let flat_end = flat.checked_add(span)?;
    match fr.bufs[view.buf as usize] {
        RawBuf::F32 { ptr, len } => {
            let len = i64::try_from(len).ok()?;
            (flat >= 0 && flat < len && flat_end >= 0 && flat_end < len).then_some(Lanes::Contig {
                ptr,
                base: flat,
                stride: view.stride,
            })
        }
        RawBuf::SegCols { table, width, rows, writable } => {
            if for_store && !writable {
                return None;
            }
            let w = i64::try_from(width).ok()?;
            if w == 0 {
                return None;
            }
            let len = w.checked_mul(i64::try_from(rows).ok()?)?;
            if !(flat >= 0 && flat < len && flat_end >= 0 && flat_end < len) {
                return None;
            }
            let (row, col0) = (flat / w, flat % w);
            // SAFETY (both arms): col0 < width; the table is valid for
            // the run.
            match view.stride {
                0 => {
                    // Lane-invariant: one element, shared by all lanes.
                    let e = unsafe { &*table.add(col0 as usize) };
                    Some(Lanes::Contig { ptr: e.ptr, base: row * i64::from(e.stride), stride: 0 })
                }
                1 => {
                    if col0 + n > w {
                        // The run would cross a logical row: generic loop.
                        return None;
                    }
                    let e = unsafe { &*table.add(col0 as usize) };
                    if n <= i64::from(e.rem) {
                        // The whole run stays inside one segment — serve
                        // it as a plain contiguous range.
                        Some(Lanes::Contig {
                            ptr: e.ptr,
                            base: row * i64::from(e.stride),
                            stride: 1,
                        })
                    } else {
                        Some(Lanes::Cols { table, row: row as usize, col0: col0 as usize })
                    }
                }
                _ => None,
            }
        }
        RawBuf::SegRows { segs, n_segs, seg_len, writable } => {
            if for_store && !writable {
                return None;
            }
            let sl = i64::try_from(seg_len).ok()?;
            if sl == 0 {
                return None;
            }
            let len = sl.checked_mul(i64::try_from(n_segs).ok()?)?;
            if !(flat >= 0 && flat < len && flat_end >= 0 && flat_end < len) {
                return None;
            }
            let (s, off) = (flat / sl, flat % sl);
            let end_off = off.checked_add(span)?;
            if end_off < 0 || end_off >= sl {
                // The run would cross a segment boundary: generic loop.
                return None;
            }
            // SAFETY: s < n_segs; the segment table is valid for the run.
            let base = unsafe { (*segs.add(s as usize)).ptr };
            Some(Lanes::Contig { ptr: base, base: off, stride: view.stride })
        }
        _ => None,
    }
}

/// Which lanes the init value overwrites the accumulator at.
enum LaneInit {
    Never,
    All,
    One(i64),
}

impl LaneSpec {
    /// Fast path: evaluate bindings and bases at lane 0, validate every
    /// lane's bounds, then run the microkernel. `None` (no writes done
    /// yet) falls back to the generic loop.
    #[allow(clippy::too_many_lines)]
    pub(super) fn try_fast(&self, fr: &mut Frame, n: i64) -> Option<()> {
        fr.scalars[self.lane_slot as usize] = 0;
        for it in &self.iters {
            let v = it.binding.eval(fr).ok()?;
            fr.scalars[it.slot as usize] = v;
        }
        let lane_init = match &self.init {
            InitKind::None => (LaneInit::Never, 0.0f64),
            InitKind::Always { value } => (LaneInit::All, value.eval(fr).ok()?),
            InitKind::WhenReduceZero { value } => {
                let v = value.eval(fr).ok()?;
                let zero = self
                    .iters
                    .iter()
                    .filter(|it| it.is_reduce)
                    .all(|it| fr.scalars[it.slot as usize] == 0);
                (if zero { LaneInit::All } else { LaneInit::Never }, v)
            }
            InitKind::AtZeroLane { value } => {
                let v = value.eval(fr).ok()?;
                (self.zero_lane(fr, n), v)
            }
        };
        let (lane_init, init_v) = lane_init;
        // Init value round-trips through the f32 store the generic init
        // performs before the accumulating load reads it back.
        let init32 = init_v as f32;

        match &self.micro {
            Micro::FillLanes { dst, value } => {
                let v = value.eval(fr).ok()? as f32;
                let d = resolve_lanes(fr, dst, n, true)?;
                for l in 0..n {
                    // SAFETY: resolve_lanes bounds-checked every lane.
                    unsafe { d.store(l, v) };
                }
                Some(())
            }
            Micro::AxpyLanes { dst, term } => {
                let (coeff, a, b) = resolve_term(fr, term, n)?;
                let d = resolve_lanes(fr, dst, n, true)?;
                let init_all = match lane_init {
                    LaneInit::All => true,
                    LaneInit::Never => false,
                    LaneInit::One(_) => return None, // unreachable by construction
                };
                // SAFETY (all arms): every lane index was bounds-checked
                // by resolve_lanes; element access stays on the relaxed-
                // atomic helpers shared with generic dispatch.
                if init_all {
                    let base = f64::from(init32);
                    for l in 0..n {
                        let t = term_at(term.shape, coeff, a, b, l);
                        unsafe { d.store(l, (base + t) as f32) };
                    }
                } else {
                    for l in 0..n {
                        let t = term_at(term.shape, coeff, a, b, l);
                        unsafe {
                            let cur = f64::from(d.load(l));
                            d.store(l, (cur + t) as f32);
                        }
                    }
                }
                Some(())
            }
            Micro::DotLanes { dst, term } | Micro::GatherScaleAccumulate { dst, term } => {
                let (coeff, a, b) = resolve_term(fr, term, n)?;
                let d = resolve_lanes(fr, dst, n, true)?;
                // SAFETY: lane 0 is bounds-checked (stride 0 → one
                // element); accumulation keeps the per-lane f32 round-trip
                // the generic store/load pair performs.
                let mut acc = unsafe { d.load(0) };
                match lane_init {
                    LaneInit::Never => {
                        for l in 0..n {
                            let t = term_at(term.shape, coeff, a, b, l);
                            acc = (f64::from(acc) + t) as f32;
                        }
                    }
                    LaneInit::All => {
                        for l in 0..n {
                            let t = term_at(term.shape, coeff, a, b, l);
                            acc = (f64::from(init32) + t) as f32;
                        }
                    }
                    LaneInit::One(l0) => {
                        for l in 0..n {
                            if l == l0 {
                                acc = init32;
                            }
                            let t = term_at(term.shape, coeff, a, b, l);
                            acc = (f64::from(acc) + t) as f32;
                        }
                    }
                }
                unsafe { d.store(0, acc) };
                Some(())
            }
        }
    }

    /// The unique lane (if any) at which every reduce binding is zero.
    fn zero_lane(&self, fr: &Frame, n: i64) -> LaneInit {
        let mut lane: Option<i64> = None;
        for it in self.iters.iter().filter(|it| it.is_reduce) {
            let v0 = fr.scalars[it.slot as usize];
            if it.stride == 0 {
                if v0 != 0 {
                    return LaneInit::Never;
                }
            } else {
                // v0 + stride·l == 0 at exactly one (possibly fractional
                // or out-of-range) lane.
                if v0 % it.stride != 0 {
                    return LaneInit::Never;
                }
                let l = -v0 / it.stride;
                if l < 0 || l >= n {
                    return LaneInit::Never;
                }
                match lane {
                    None => lane = Some(l),
                    Some(prev) if prev == l => {}
                    Some(_) => return LaneInit::Never,
                }
            }
        }
        match lane {
            Some(l) => LaneInit::One(l),
            // All reduce bindings are lane-invariant zeros: that case is
            // classified WhenReduceZero at compile time, but guard anyway.
            None => LaneInit::All,
        }
    }
}

/// Evaluate the invariant coefficient and resolve the lane operands.
fn resolve_term(fr: &Frame, term: &TermSpec, n: i64) -> Option<(f64, Lanes, Lanes)> {
    let coeff = match &term.coeff {
        Some(c) => c.eval(fr).ok()?,
        None => 0.0,
    };
    let a = resolve_lanes(fr, &term.a, n, false)?;
    let b = match &term.b {
        Some(bv) => resolve_lanes(fr, bv, n, false)?,
        // Unused by shapes without a second operand; alias `a` so the
        // loop body stays branch-free.
        None => a,
    };
    Some((coeff, a, b))
}

/// Per-lane `f64` term value, preserving the source association and
/// operand order exactly.
#[inline]
fn term_at(shape: TermShape, coeff: f64, a: Lanes, b: Lanes, l: i64) -> f64 {
    // SAFETY: lane indices were bounds-checked by resolve_lanes.
    unsafe {
        match shape {
            TermShape::AOnly => f64::from(a.load(l)),
            TermShape::CoeffA => coeff * f64::from(a.load(l)),
            TermShape::ACoeff => f64::from(a.load(l)) * coeff,
            TermShape::AB => f64::from(a.load(l)) * f64::from(b.load(l)),
            TermShape::CoeffAB => (coeff * f64::from(a.load(l))) * f64::from(b.load(l)),
            TermShape::ACoeffB => (f64::from(a.load(l)) * coeff) * f64::from(b.load(l)),
            TermShape::CoeffParenAB => coeff * (f64::from(a.load(l)) * f64::from(b.load(l))),
        }
    }
}
