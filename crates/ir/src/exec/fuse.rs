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
//! * the value expression is one of the six recognized microkernel
//!   shapes ([`Micro`]): `FillLanes`, `AxpyLanes`, `DotLanes`,
//!   `GatherScaleAccumulate`, `MaxLanes` (a running maximum) and
//!   `ExpDiffLanes` (`exp(a − b)`, overwriting); and
//! * nothing re-evaluated inside the loop **reads the written buffer** —
//!   a slot-level aliasing analysis.
//!
//! A `k_o × k_i` nest that `Schedule::split` made of such a loop is
//! **coalesced** back into one lane run when both loops walk the operands
//! as the unsplit loop would ([`coalesce`]), so the per-invocation
//! prologue is paid once per non-zero, not once per `E_i` lanes.
//!
//! One loop further out, [`build_nest`] (the `nest` submodule) plans the
//! loop *around* a fused lane loop — a CSR row's or ELL bucket's
//! non-zeros — as a **row nest** that pays no prologue at all. The outer
//! body must be the lane loop and nothing else (unit-trip loops in between
//! only pin their variable to 0). One walk over the lane prologue then
//! takes every integer quantity — the trip count, each iter binding, each
//! index dimension of the lane views and of the coefficient's load — apart
//! into its value at trip 0, a sum of constant multiples of a few
//! registers (enclosing loop variables and checked `i32` loads such as
//! `indptr[i]`), and how it moves with the outer variable `j`: a
//! compile-time step per trip plus a constant times the nest's one
//! **gather**, the `i32` load at a position walking with `j` (the
//! `indices[indptr[i] + j]` column, from a buffer the lanes do not write).
//! The lane count and every index extent are constants; the coefficient
//! is a constant, one plain load, or one such load `*` or `/` a factor
//! fixed for the entry (a ratio: attention's `P[pos] / Sum[i]`, divided
//! per trip in the source's order). Anything else — a division, a
//! selection, a moving value times a variable, a load at a gathered
//! position — leaves the loop a loop.
//!
//! No entry of a nest runs the lane loop's prologue: what cannot change
//! within a launch (where operands are bound, strides, spans, lane count)
//! is established once per launch, and the trip-0 values the walk produced
//! are the nest's **entry program** — its registers, loaded and checked
//! once per entry, and linear combinations of them — that pins the walks
//! at trip 0 of every entry, the first included, and hands the entry's
//! trips to one monomorphised **trip loop** picked from a
//! fixed menu when the walk state was established ([`trip_loops`]): a
//! cursor add per operand per trip, the affine walks range-tested per
//! entry, the gathered column per trip (see the `nest` submodule). What
//! the menu does not cover is walked trip by trip: per non-zero one
//! bounds-checked index load, one bounds-checked coefficient load, a base
//! add and an interval check per moving view, and the same lane bodies.
//! The nest is the head of its loop in place of `LoopStart`; the loop
//! behind it is lowered as without it, and the nest hands it the first
//! trip whose checks fail, before that trip writes anything.
//!
//! Anything non-contiguous, non-affine, predicated (an `if` in the lane
//! body — what a split by a factor that does not divide the extent
//! leaves), or alias-hazardous is left on generic dispatch. The generic
//! loop is also lowered right behind every superinstruction: at run time
//! the microkernel validates every lane's bounds up front and falls
//! through to the generic loop on any violation or evaluation error, so
//! error messages and error ordering stay interpreter-identical.
//!
//! **Numerics contract: bit-identity to the interpreter.** Lanes load
//! `f32`, compute in `f32` — the dtype the IR declares — in the source
//! expression's exact association and operand order, and store every
//! element, the running value of memory-accumulating reductions included,
//! as the generic store would. No FMA contraction, no reassociation,
//! no `target_feature` fork: the lane bodies are ordinary scalar Rust the
//! compiler may unroll and vectorize lane-wise, nothing more. (The one
//! thing Rust leaves open is which payload survives when two *different*
//! NaNs meet — `fadd`/`fmul` commute at instruction selection — so a NaN
//! lane is NaN everywhere, its sign and payload are not pinned.)
//!
//! **Memory rule: plain raw-pointer loads and stores**, one monomorphised
//! loop per [`TermShape`], under the contract generic dispatch's element
//! accesses rest on ([`super::elem_load`]): a launch runs on one thread
//! and is the only accessor of its bindings. Raw pointers, never `&mut`
//! slices, so operands that alias one another stay defined. A run is
//! resolved into per-segment contiguous pieces first ([`pieces`]), so a
//! lane run crossing a column-segment boundary of a batched binding costs
//! one extra piece, not a table chase per lane.

use super::{
    scan_float, scan_index, scan_int, CStmt, ColSeg, ExprInfo, FloatExpr, FloatOp, Frame,
    IndexExpr, IntExpr, IntOp, RawBuf,
};
use std::collections::HashMap;

mod nest;

pub(super) use nest::{
    build_nest, Drift, EntryProgram, IndexPlan, Lin, NestSpec, Ratio, Reg, Stepped, Taken, Trips,
};

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
        IntExpr::Trunc(f) => float_invariant(f, env).then_some(0),
        IntExpr::BoolToInt(b) => bool_invariant(b, env).then_some(0),
        IntExpr::Load { index, .. } => index_invariant(index, env).then_some(0),
        IntExpr::BinarySearch { lo, hi, x, .. } => {
            (int_stride(lo, env)? == 0 && int_stride(hi, env)? == 0 && int_stride(x, env)? == 0)
                .then_some(0)
        }
    }
}

/// True when `e` is affine in the lane with a zero stride.
fn int_invariant(e: &IntExpr, env: &StrideEnv) -> bool {
    int_stride(e, env) == Some(0)
}

/// True when `e` provably evaluates to the same value at every lane.
fn float_invariant(e: &FloatExpr, env: &StrideEnv) -> bool {
    match e {
        FloatExpr::Const(_) => true,
        FloatExpr::Bin { lhs, rhs, .. } => float_invariant(lhs, env) && float_invariant(rhs, env),
        FloatExpr::Select { cond, then_, else_ } => {
            bool_invariant(cond, env) && float_invariant(then_, env) && float_invariant(else_, env)
        }
        FloatExpr::FromInt(i) => int_invariant(i, env),
        FloatExpr::Load { index, .. } => index_invariant(index, env),
        FloatExpr::Exp(v) | FloatExpr::Sqrt(v) | FloatExpr::Relu(v) => float_invariant(v, env),
    }
}

/// True when `e` provably evaluates to the same value at every lane.
fn bool_invariant(e: &super::BoolExpr, env: &StrideEnv) -> bool {
    use super::BoolExpr;
    match e {
        BoolExpr::CmpI { lhs, rhs, .. } => int_invariant(lhs, env) && int_invariant(rhs, env),
        BoolExpr::CmpF { lhs, rhs, .. } => float_invariant(lhs, env) && float_invariant(rhs, env),
        BoolExpr::And(l, r) | BoolExpr::Or(l, r) => {
            bool_invariant(l, env) && bool_invariant(r, env)
        }
        BoolExpr::IntNonZero(i) => int_invariant(i, env),
        BoolExpr::FloatNonZero(f) => float_invariant(f, env),
    }
}

fn index_invariant(ix: &IndexExpr, env: &StrideEnv) -> bool {
    ix.dims.iter().all(|(idx, ext)| int_invariant(idx, env) && int_invariant(ext, env))
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

impl LaneView {
    fn parts(&self) -> (u32, &IndexExpr, i64) {
        (self.buf, &self.index, self.stride)
    }
}

/// Association / operand-order shape of a recognized per-lane term.
/// Preserved exactly so every `f32` rounding happens where generic
/// dispatch has it.
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

/// The per-lane `f32` term `t(l)` added into an accumulator: up to two
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

impl InitKind {
    /// The init statement's value, when there is one.
    fn value(&self) -> Option<&FloatExpr> {
        match self {
            InitKind::None => None,
            InitKind::Always { value }
            | InitKind::WhenReduceZero { value }
            | InitKind::AtZeroLane { value } => Some(value),
        }
    }
}

/// Specialized dense-lane microkernel instructions. Each operates on
/// `f32` element ranges resolved once per invocation, replacing the
/// per-lane instruction dispatch of the generic executor.
#[derive(Debug, Clone)]
pub(super) enum Micro {
    /// `dst[l] = v` for `l ∈ 0..n` — contiguous fill with a
    /// lane-invariant value (format-init loops, `C = 0` epilogues).
    FillLanes { dst: LaneView, value: FloatExpr },
    /// `dst[l] = dst[l] + t(l)` over contiguous `dst`/`a`
    /// lanes — the SpMM/ELL inner loop `C[i, 0..d] += a_ij · B[j, 0..d]`.
    AxpyLanes { dst: LaneView, term: TermSpec },
    /// `acc = acc + a[l]·b[l]` into one lane-invariant
    /// element, both operands contiguous — dot-product reductions over
    /// the feature dimension.
    DotLanes { dst: LaneView, term: TermSpec },
    /// [`Micro::DotLanes`] generalized with an invariant scale and/or a
    /// constant-strided (gathered) operand — the SDDMM inner loop
    /// `Bout[e] += (a_e · X[i, 0..d]) · Y[0..d, j]` where `Y`'s column
    /// walk strides by the number of columns.
    GatherScaleAccumulate { dst: LaneView, term: TermSpec },
    /// `dst[l] = dst[l].max(a[l])` over contiguous lanes —
    /// a running maximum, attention's `rowmax` `M[i, h] = max(M[i, h],
    /// S[pos, h])`.
    MaxLanes { dst: LaneView, a: LaneView },
    /// `dst[l] = (a[l] − b[l]).exp()` over contiguous lanes
    /// — a map that overwrites `dst`, attention's `P = exp(S − M)`.
    ExpDiffLanes { dst: LaneView, a: LaneView, b: LaneView },
}

impl Micro {
    /// Instruction name (diagnostics / bench tables).
    pub(super) fn name(&self) -> &'static str {
        match self {
            Micro::FillLanes { .. } => "FillLanes",
            Micro::AxpyLanes { .. } => "AxpyLanes",
            Micro::DotLanes { .. } => "DotLanes",
            Micro::GatherScaleAccumulate { .. } => "GatherScaleAccumulate",
            Micro::MaxLanes { .. } => "MaxLanes",
            Micro::ExpDiffLanes { .. } => "ExpDiffLanes",
        }
    }

    /// The lane views the op touches: `dst`, then the term's `a` and `b`.
    fn views(&self) -> [Option<&LaneView>; 3] {
        match self {
            Micro::FillLanes { dst, .. } => [Some(dst), None, None],
            Micro::AxpyLanes { dst, term }
            | Micro::DotLanes { dst, term }
            | Micro::GatherScaleAccumulate { dst, term } => {
                [Some(dst), Some(&term.a), term.b.as_ref()]
            }
            Micro::MaxLanes { dst, a } => [Some(dst), Some(a), None],
            Micro::ExpDiffLanes { dst, a, b } => [Some(dst), Some(a), Some(b)],
        }
    }

    /// The lane-invariant value the op evaluates once per invocation: the
    /// fill value or the term's coefficient.
    fn hoisted(&self) -> Option<&FloatExpr> {
        match self {
            Micro::FillLanes { value, .. } => Some(value),
            Micro::AxpyLanes { term, .. }
            | Micro::DotLanes { term, .. }
            | Micro::GatherScaleAccumulate { term, .. } => term.coeff.as_ref(),
            Micro::MaxLanes { .. } | Micro::ExpDiffLanes { .. } => None,
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
    /// Loop slot of the `k_o` loop a coalesced spec absorbed (see
    /// [`coalesce`]); `extent` then covers the whole `k_o × k_i` nest.
    pub outer_slot: Option<u32>,
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
/// loop — or a split `k_o × k_i` nest of one ([`coalesce`]) — which the
/// bytecode lowering pass emits as a `Super` instruction.
pub(super) fn build_fused(node: &CStmt) -> Option<LaneSpec> {
    coalesce(node).or_else(|| fuse_lane_loop(node))
}

/// Lane coalescing: `for k_o in 0..E_o { for k_i in 0..E_i { lane body } }`
/// — what `Schedule::split("k", E_i)` leaves behind — runs as **one**
/// lane loop of extent `E_o·E_i` when the inner loop fuses, both extents
/// are constants (`E_i` positive), and the nest walks every operand
/// exactly as the single loop over `L = k_o·E_i + k_i` would:
///
/// * every iter binding is affine in `k_o` with stride `E_i ×` its `k_i`
///   stride (so it is affine in `L` with the inner spec's stride), and no
///   reduce binding moves with `k_o` — the init classification of the
///   inner spec therefore holds for the whole run;
/// * every lane view's flat index strides with `k_o` by `E_i ×` its lane
///   stride (outer dimensions and extents invariant in `k_o` too);
/// * every value hoisted out of the lanes (fill value, coefficient, init
///   value) is invariant in `k_o` as well.
///
/// The spec is the inner one with the extent widened; at run time
/// `resolve_lanes` checks the innermost index stays inside its dimension
/// over all `E_o·E_i` lanes, which is what rules out a carry into outer
/// dimensions. This undoes the split for the CPU executor only: the IR,
/// the schedule and the generic fallback (the whole original nest) keep
/// it.
fn coalesce(node: &CStmt) -> Option<LaneSpec> {
    let CStmt::For { slot: outer, extent: IntExpr::Const(eo), body } = node else {
        return None;
    };
    let inner = single(body);
    let CStmt::For { extent: IntExpr::Const(ei), .. } = inner else {
        return None;
    };
    let lanes = eo.checked_mul(*ei).filter(|_| *ei >= 1)?;
    let mut spec = fuse_lane_loop(inner)?;

    // Strides in `k_o` alone (the inner lane slot is absent: invariant).
    let mut env = StrideEnv::new();
    env.insert(*outer, 1);
    for it in &spec.iters {
        let outer_stride = int_stride(&it.binding, &env)?;
        if outer_stride != ei.checked_mul(it.stride)? || (it.is_reduce && outer_stride != 0) {
            return None;
        }
        env.insert(it.slot, outer_stride);
    }
    let hoisted = spec.micro.hoisted();
    let lanes_line_up = spec
        .micro
        .views()
        .into_iter()
        .flatten()
        .all(|v| index_lane_stride(&v.index, &env) == ei.checked_mul(v.stride));
    let init_value = match &spec.init {
        InitKind::None => None,
        InitKind::Always { value } | InitKind::WhenReduceZero { value } => Some(value),
        // Its lane-strided reduce binding was already turned away above.
        InitKind::AtZeroLane { .. } => return None,
    };
    if !lanes_line_up || !hoisted.into_iter().chain(init_value).all(|v| float_invariant(v, &env)) {
        return None;
    }

    spec.extent = IntExpr::Const(lanes);
    spec.outer_slot = Some(*outer);
    Some(spec)
}

/// The single-loop analysis behind [`build_fused`].
#[allow(clippy::too_many_lines)]
fn fuse_lane_loop(node: &CStmt) -> Option<LaneSpec> {
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

    // Aliasing: nothing re-evaluated per lane — iter bindings, the init
    // and fill values, the coefficient, the operands and every index — may
    // read the written buffer.
    let fused = |micro: Micro| {
        let mut reads = ExprInfo::default();
        scan_index(dst_index, &mut reads);
        for it in &iters {
            scan_int(&it.binding, &mut reads);
        }
        for value in init.value().into_iter().chain(micro.hoisted()) {
            scan_float(value, &mut reads);
        }
        for operand in micro.views().into_iter().skip(1).flatten() {
            reads.bufs.insert(operand.buf);
            scan_index(&operand.index, &mut reads);
        }
        (!reads.bufs.contains(&dst)).then(|| LaneSpec {
            lane_slot: *lane,
            outer_slot: None,
            extent: extent.clone(),
            iters,
            init,
            micro,
        })
    };

    // Shape 1: contiguous fill — invariant value, no init, no reduce
    // toggling (the store *is* the only effect).
    if dst_stride == 1 && float_invariant(value, &env) {
        if init_src.is_some() || reduce_strided {
            return None;
        }
        return fused(Micro::FillLanes {
            dst: LaneView { buf: dst, index: dst_index.clone(), stride: 1 },
            value: value.clone(),
        });
    }

    // A map overwriting `dst`: `exp(a − b)` over contiguous lanes, with
    // nothing to init.
    if let FloatExpr::Exp(arg) = value {
        let FloatExpr::Bin { op: FloatOp::Sub, lhs, rhs } = &**arg else {
            return None;
        };
        let (a, b) = (lane_load(lhs, &env)?, lane_load(rhs, &env)?);
        if dst_stride != 1 || init_src.is_some() || a.stride != 1 || b.stride != 1 {
            return None;
        }
        let dst = LaneView { buf: dst, index: dst_index.clone(), stride: 1 };
        return fused(Micro::ExpDiffLanes { dst, a, b });
    }

    // Accumulating store: value = Load(dst, dst_index) + term, or the
    // running maximum fmax(Load(dst, dst_index), a).
    let FloatExpr::Bin { op: op @ (FloatOp::Add | FloatOp::Max), lhs, rhs } = value else {
        return None;
    };
    let FloatExpr::Load { buf: acc_buf, index: acc_index } = &**lhs else {
        return None;
    };
    if *acc_buf != dst || acc_index != dst_index {
        return None;
    }
    if *op == FloatOp::Max {
        // Contiguous destination and operand, init not toggling mid-loop,
        // as for AxpyLanes.
        let a = lane_load(rhs, &env)?;
        if dst_stride != 1 || reduce_strided || a.stride != 1 {
            return None;
        }
        return fused(Micro::MaxLanes {
            dst: LaneView { buf: dst, index: dst_index.clone(), stride: 1 },
            a,
        });
    }
    let term = match_term(rhs, &env)?;

    if dst_stride == 1 {
        // AxpyLanes: contiguous destination and operands, init must not
        // toggle mid-loop.
        if reduce_strided || term.a.stride != 1 || term.b.as_ref().is_some_and(|b| b.stride != 1) {
            return None;
        }
        return fused(Micro::AxpyLanes {
            dst: LaneView { buf: dst, index: dst_index.clone(), stride: 1 },
            term,
        });
    }

    if dst_stride == 0 {
        // Scalar reduction into one element.
        let dstv = LaneView { buf: dst, index: dst_index.clone(), stride: 0 };
        let contiguous_dot = term.shape == TermShape::AB
            && term.a.stride == 1
            && term.b.as_ref().is_some_and(|b| b.stride == 1);
        let micro = if contiguous_dot {
            Micro::DotLanes { dst: dstv, term }
        } else {
            Micro::GatherScaleAccumulate { dst: dstv, term }
        };
        return fused(micro);
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
    /// Strided run inside one allocation: lane `l` is `ptr[stride·l]`.
    Run { ptr: *mut f32, stride: i64 },
    /// Unit-stride run across a column-segmented binding that crosses a
    /// segment boundary: one contiguous piece per segment.
    Cols { table: *const ColSeg, row: usize, col0: usize },
}

impl Lanes {
    /// The first lane's value.
    fn first(self) -> f32 {
        // SAFETY: every `Lanes` was resolved — each lane bounds-checked —
        // for at least one lane, so lane 0's element is live.
        unsafe { self.piece(0).0.read() }
    }

    fn stride(self) -> i64 {
        match self {
            Lanes::Run { stride, .. } => stride,
            Lanes::Cols { .. } => 1,
        }
    }

    /// Lane `l`'s element and how many lanes from `l` on lie on one
    /// `stride`-strided run with it.
    ///
    /// # Safety
    /// `l < n` for the `n` this was resolved with.
    #[inline(always)]
    unsafe fn piece(self, l: i64) -> (*mut f32, i64) {
        match self {
            Lanes::Run { ptr, stride } => (ptr.offset((stride * l) as isize), i64::MAX),
            Lanes::Cols { table, row, col0 } => {
                let e = &*table.add(col0 + l as usize);
                (e.ptr.add(row * e.stride as usize), i64::from(e.rem))
            }
        }
    }
}

/// Call `body(len, base pointers)` on each maximal stretch of lanes
/// `from..n` over which every operand of `v` stays on one strided run —
/// the whole range at once unless a segmented operand crosses a segment
/// boundary.
///
/// # Safety
/// Every operand was resolved by `resolve_lanes` for (at least) `n` lanes.
#[inline(always)]
unsafe fn pieces<const N: usize>(
    from: i64,
    n: i64,
    v: [Lanes; N],
    mut body: impl FnMut(usize, [*mut f32; N]),
) {
    let mut l = from;
    while l < n {
        let mut len = n - l;
        let mut at = [std::ptr::null_mut(); N];
        for (p, lanes) in at.iter_mut().zip(v) {
            let (ptr, run) = lanes.piece(l);
            *p = ptr;
            len = len.min(run);
        }
        debug_assert!(len >= 1, "every column of a segment table has rem >= 1");
        body(len as usize, at);
        l += len;
    }
}

/// `(x / w, x % w)` for `x >= 0`, `w > 0` — through a 32-bit divide when
/// both fit, which is several times cheaper than the 64-bit one.
#[inline(always)]
fn div_rem(x: i64, w: i64) -> (i64, i64) {
    debug_assert!(x >= 0 && w > 0);
    match (u32::try_from(x), u32::try_from(w)) {
        (Ok(x), Ok(w)) => (i64::from(x / w), i64::from(x % w)),
        _ => (x / w, x % w),
    }
}

/// The lanes of an `n`-lane run at `stride` starting at element `flat` of
/// a column-segmented binding `width` columns wide; `None` for a run the
/// microkernels do not take (one crossing a logical row, a strided one).
///
/// # Safety
/// `0 <= flat` and the run's last lane `flat + stride·(n − 1)` both lie
/// inside the binding's `rows × width` elements, and `table` is its
/// column table.
#[inline(always)]
unsafe fn cols_lanes(
    table: *const ColSeg,
    width: i64,
    flat: i64,
    n: i64,
    stride: i64,
) -> Option<Lanes> {
    let (row, col0) = div_rem(flat, width);
    // SAFETY: col0 < width entries in the table, each pointing at row 0
    // of a `rows`-row column with row stride `e.stride`, and row < rows.
    let e = &*table.add(col0 as usize);
    let first = e.ptr.add(row as usize * e.stride as usize);
    match stride {
        // Lane-invariant: one element, shared by all lanes.
        0 => Some(Lanes::Run { ptr: first, stride: 0 }),
        // The run would cross a logical row: generic loop.
        1 if col0 + n > width => None,
        // The whole run stays inside one segment.
        1 if n <= i64::from(e.rem) => Some(Lanes::Run { ptr: first, stride: 1 }),
        1 => Some(Lanes::Cols { table, row: row as usize, col0: col0 as usize }),
        _ => None,
    }
}

/// Resolve `view` for `n` lanes, validating every lane's bounds without
/// raising: `None` means "run the generic loop instead" (which reproduces
/// the exact interpreter error, if any). `for_store` additionally
/// requires the binding to be writable, so stores into read-only
/// segmented views fall back to the generic loop's error path.
///
/// Inlined into the prologue: out of line, passing the view apart and
/// returning the operand with its place through memory costs ≈ 8 ns per
/// call, three or four times per superinstruction (measured on the
/// per-non-zero SDDMM path).
#[inline(always)]
fn resolve_lanes(
    fr: &Frame,
    (buf, index, stride): (u32, &IndexExpr, i64),
    n: i64,
    for_store: bool,
) -> Option<Lanes> {
    let (flat, last_i, last_d) = index.eval_with_last(fr).ok()?;
    let span = stride.checked_mul(n - 1)?;
    let last_end = last_i.checked_add(span)?;
    if last_end < 0 || last_end >= last_d {
        return None;
    }
    let flat_end = flat.checked_add(span)?;
    let within = |len: i64| flat >= 0 && flat < len && flat_end >= 0 && flat_end < len;
    match fr.bufs[buf as usize] {
        RawBuf::F32 { ptr, len } => {
            // SAFETY: 0 <= flat < len elements behind ptr.
            within(i64::try_from(len).ok()?)
                .then(|| Lanes::Run { ptr: unsafe { ptr.add(flat as usize) }, stride })
        }
        RawBuf::SegCols { table, width, rows, writable } => {
            if for_store && !writable {
                return None;
            }
            let w = i64::try_from(width).ok()?;
            if w == 0 || !within(w.checked_mul(i64::try_from(rows).ok()?)?) {
                return None;
            }
            // SAFETY: 0 <= flat < rows * width, as is the run's last lane.
            unsafe { cols_lanes(table, w, flat, n, stride) }
        }
        RawBuf::SegRows { segs, n_segs, seg_len, writable } => {
            if for_store && !writable {
                return None;
            }
            let sl = i64::try_from(seg_len).ok()?;
            if sl == 0 || !within(sl.checked_mul(i64::try_from(n_segs).ok()?)?) {
                return None;
            }
            let (s, off) = div_rem(flat, sl);
            let end_off = off.checked_add(span)?;
            if end_off < 0 || end_off >= sl {
                // The run would cross a segment boundary: generic loop.
                return None;
            }
            // SAFETY: s < n_segs entries in the table; off < seg_len
            // elements behind each.
            let ptr = unsafe { (*segs.add(s as usize)).ptr.add(off as usize) };
            Some(Lanes::Run { ptr, stride })
        }
        _ => None,
    }
}

/// Which lanes the init value overwrites the accumulator at.
#[derive(Clone, Copy)]
enum LaneInit {
    Never,
    All,
    One(i64),
}

/// What an [`axpy`] adds each lane's term to — or a [`max`] compares each
/// lane's operand with — under the init decision `$init`: the init value
/// where the init fires at every lane, the lane's own element (`None`)
/// where at none; `$one` for an init at one lane, which no contiguous
/// accumulation has. A macro, not a function, so that
/// [`LaneSpec::run_inline`] — inlined into `try_fast`, whose instructions
/// are the per-`Super` path's and stay what they were — and the row nest's
/// trip loops ([`LaneInit::base`]) expand one text.
macro_rules! axpy_base {
    ($init:expr, $init32:expr, $one:expr) => {
        match $init {
            LaneInit::All => Some($init32),
            LaneInit::Never => None,
            LaneInit::One(_) => $one, // unreachable by construction
        }
    };
}

/// Where a [`reduce`] over `$n` lanes starts and from what under the init
/// decision `$init`: every lane at or after an init restarts from the init
/// value, so only the lanes from the last init on reach the stored result.
/// A macro for the reason [`axpy_base!`] is one.
macro_rules! reduce_start {
    ($init:expr, $n:expr, $init32:expr) => {
        match $init {
            LaneInit::Never => (0, None),
            LaneInit::All => ($n - 1, Some($init32)),
            LaneInit::One(l0) => (l0, Some($init32)),
        }
    };
}

/// What the row nest's trip loops ([`trip_loops`]) make of an init
/// decision, once per entry.
impl LaneInit {
    /// [`axpy_base!`]; `None` for an init at one lane.
    #[inline(always)]
    fn base(self, init32: f32) -> Option<Option<f32>> {
        Some(axpy_base!(self, init32, return None))
    }

    /// [`reduce_start!`].
    #[inline(always)]
    fn restart(self, n: i64, init32: f32) -> (i64, Option<f32>) {
        reduce_start!(self, n, init32)
    }
}

/// Everything one invocation of a lane body reads, resolved and
/// bounds-checked: what the lane prologue hands the lane body, and what a
/// row nest ([`nest`]) patches from trip to trip.
#[derive(Clone, Copy)]
struct Resolved {
    /// Lane count.
    n: i64,
    init: LaneInit,
    /// The init value.
    init32: f32,
    /// The term's coefficient; for a fill, the value.
    scalar: f32,
    /// `dst`, `a`, `b` (a fill repeats `dst`; a term without a second
    /// operand repeats `a`, which its shape never loads).
    ops: [Lanes; 3],
}

/// A [`TermShape`] as a type: the per-lane `f32` term over lane element
/// pointers, combining in the source association and operand order
/// exactly. The one place the seven formulas are written:
/// the per-invocation lane bodies reach it through `with_term!` (the
/// coefficient captured), the row nest's trip loops name the type itself
/// (the coefficient changes from trip to trip).
trait Term {
    /// # Safety
    /// `a` — and `b`, for the shapes that load it — are lane pointers
    /// `resolve_lanes` validated.
    unsafe fn of(c: f32, a: *const f32, b: *const f32) -> f32;
}

macro_rules! term_shape {
    ($name:ident, |$c:pat_param, $a:ident, $b:pat_param, $ld:ident| $e:expr) => {
        struct $name;
        impl Term for $name {
            #[inline(always)]
            unsafe fn of($c: f32, $a: *const f32, $b: *const f32) -> f32 {
                // SAFETY: the caller's contract, for each pointer read.
                let $ld = |p: *const f32| unsafe { p.read() };
                $e
            }
        }
    };
}

term_shape!(AOnly, |_, a, _, ld| ld(a));
term_shape!(CoeffA, |c, a, _, ld| c * ld(a));
term_shape!(ACoeff, |c, a, _, ld| ld(a) * c);
term_shape!(AB, |_, a, b, ld| ld(a) * ld(b));
term_shape!(CoeffAB, |c, a, b, ld| (c * ld(a)) * ld(b));
term_shape!(ACoeffB, |c, a, b, ld| (ld(a) * c) * ld(b));
term_shape!(CoeffParenAB, |c, a, b, ld| c * (ld(a) * ld(b)));

/// Expand `$run` once per [`TermShape`] with `$T` naming its [`Term`], and
/// pick the expansion `$shape` selects — so each shape gets its own
/// monomorphised loop with the shape `match` outside it.
macro_rules! on_shape {
    ($shape:expr, $T:ident => $run:expr) => {
        match $shape {
            TermShape::AOnly => {
                type $T = AOnly;
                $run
            }
            TermShape::CoeffA => {
                type $T = CoeffA;
                $run
            }
            TermShape::ACoeff => {
                type $T = ACoeff;
                $run
            }
            TermShape::AB => {
                type $T = AB;
                $run
            }
            TermShape::CoeffAB => {
                type $T = CoeffAB;
                $run
            }
            TermShape::ACoeffB => {
                type $T = ACoeffB;
                $run
            }
            TermShape::CoeffParenAB => {
                type $T = CoeffParenAB;
                $run
            }
        }
    };
}

/// The per-lane `f32` term of `$shape` at coefficient `$coeff` as a closure
/// `$t(a, b)` over lane element pointers; `$body` is expanded once per
/// shape (`on_shape!`).
macro_rules! with_term {
    ($shape:expr, $coeff:expr, |$t:ident| $body:expr) => {{
        let c: f32 = $coeff;
        on_shape!($shape, T => {
            // SAFETY (caller): `$t` is only applied to lane pointers that
            // `resolve_lanes` validated.
            let $t = move |a: *const f32, b: *const f32| unsafe { T::of(c, a, b) };
            $body
        })
    }};
}

/// `dst[l] = v` over unit-stride lanes.
///
/// # Safety
/// `d` was resolved for a store over `n` lanes.
unsafe fn fill(n: i64, d: Lanes, v: f32) {
    pieces(0, n, [d], |len, [pd]| {
        for l in 0..len {
            pd.add(l).write(v);
        }
    });
}

/// `dst[l] = f(cur, a + l, b + l)` over unit-stride lanes, `cur` being
/// `base` when the init fires at every lane and `dst[l]` when at none: the
/// loop of both accumulates that write a whole run, [`axpy`] and [`max`].
///
/// # Safety
/// `d` (for a store), `a` and `b` were resolved over `n` lanes, all with
/// unit stride.
#[inline(always)]
unsafe fn accumulate(
    n: i64,
    [d, a, b]: [Lanes; 3],
    base: Option<f32>,
    f: impl Fn(f32, *const f32, *const f32) -> f32,
) {
    debug_assert!([d, a, b].iter().all(|v| v.stride() == 1));
    pieces(0, n, [d, a, b], |len, [pd, pa, pb]| match base {
        Some(base) => {
            for l in 0..len {
                pd.add(l).write(f(base, pa.add(l), pb.add(l)));
            }
        }
        None => {
            for l in 0..len {
                pd.add(l).write(f(pd.add(l).read(), pa.add(l), pb.add(l)));
            }
        }
    });
}

/// `dst[l] = cur + t(l)` ([`accumulate`]).
///
/// # Safety
/// As [`accumulate`].
unsafe fn axpy(
    n: i64,
    ops: [Lanes; 3],
    base: Option<f32>,
    t: impl Fn(*const f32, *const f32) -> f32,
) {
    accumulate(n, ops, base, |cur, a, b| cur + t(a, b));
}

/// `dst[l] = cur.max(a[l])` ([`accumulate`]): `f32::max`, in the
/// source's operand order, as `FloatExpr::eval` computes `fmax`.
///
/// # Safety
/// As [`accumulate`].
unsafe fn max(n: i64, ops: [Lanes; 3], base: Option<f32>) {
    // SAFETY: the caller's contract: `a` is a validated lane pointer.
    accumulate(n, ops, base, |cur, a, _| cur.max(unsafe { a.read() }));
}

/// `dst[l] = (a[l] − b[l]).exp()` over unit-stride lanes: `f32::exp`, as
/// `FloatExpr::eval` computes `exp`.
///
/// # Safety
/// `d` (for a store), `a` and `b` were resolved over `n` lanes, all with
/// unit stride.
unsafe fn exp_diff(n: i64, [d, a, b]: [Lanes; 3]) {
    debug_assert!([d, a, b].iter().all(|v| v.stride() == 1));
    pieces(0, n, [d, a, b], |len, [pd, pa, pb]| {
        for l in 0..len {
            pd.add(l).write((pa.add(l).read() - pb.add(l).read()).exp());
        }
    });
}

/// `acc = acc + t(l)` over lanes `from..n` into the one element `d`,
/// starting from `start` (or the element's current value): one `f32` add
/// per lane, in lane order, as the generic store/load pair has it.
///
/// # Safety
/// `d` (for a store, stride 0), `a` and `b` were resolved over `n` lanes.
unsafe fn reduce(
    (from, n): (i64, i64),
    [d, a, b]: [Lanes; 3],
    start: Option<f32>,
    t: impl Fn(*const f32, *const f32) -> f32,
) {
    debug_assert!(d.stride() == 0 && (0..n).contains(&from));
    let (pd, _) = d.piece(0);
    let mut acc = start.unwrap_or_else(|| pd.read());
    let (sa, sb) = (a.stride() as isize, b.stride() as isize);
    pieces(from, n, [a, b], |len, [pa, pb]| {
        for l in 0..len as isize {
            acc += t(pa.offset(l * sa), pb.offset(l * sb));
        }
    });
    pd.write(acc);
}

/// A row nest's trip loop: take the trips of the entry `w` was made for,
/// the init firing as `first` says at trip 0 and as `rest` says at every
/// later one; returns the first trip not taken (the trip count, or the one
/// whose gathered value left the entry's reach — nothing of it written).
///
/// # Safety
/// As [`Stepped::walk`]; and the loop is one [`trip_loops`] picked for the
/// lane op whose operands `w` holds, on the frame it holds them for.
type TripLoop = unsafe fn(&Stepped, LaneInit, LaneInit) -> i64;

/// The menu of trip loops: one out-of-line monomorphised loop per lane op
/// and term shape — and per kind of operand: every one a single run
/// (`[0]`; what whole tensors and one-segment views give), or some cut
/// into column segments (`[1]`, a batch). Everything a trip does not
/// change is matched here, once per launch when a nest's walk state is
/// established, instead of once per non-zero. Inside, a trip
/// is [`Stepped::walk`]'s cursor adds and the same lane body the
/// per-invocation path runs.
///
/// The `[1]` loops take all-run operands too, so `[0]` is a second copy
/// kept for what it measures: with only `[1]` installed, `launch_probe`'s
/// tenant graph (every operand a run; aligned builds, one pinned CPU, three
/// alternations) reads SpMM d = 16 88.0 → 105.4 µs and SDDMM k = 8
/// 113.0 → 138.6, the sweep's per-non-zero term 13.7 → 19.0 ns — a
/// `Lanes` match per operand per trip and the lane bodies' piece loop
/// around 8–16 lanes of arithmetic. The batch of eight is the same either
/// way (361 µs).
fn trip_loops(lanes: &LaneSpec) -> [TripLoop; 2] {
    match &lanes.micro {
        Micro::FillLanes { .. } => [fill_trips::<false>, fill_trips::<true>],
        Micro::AxpyLanes { term, .. } => {
            on_shape!(term.shape, T => [axpy_trips::<T, false>, axpy_trips::<T, true>])
        }
        Micro::DotLanes { term, .. } | Micro::GatherScaleAccumulate { term, .. } => {
            on_shape!(term.shape, T => [reduce_trips::<T, false>, reduce_trips::<T, true>])
        }
        Micro::MaxLanes { .. } => [max_trips::<false>, max_trips::<true>],
        Micro::ExpDiffLanes { .. } => [exp_diff_trips::<false>, exp_diff_trips::<true>],
    }
}

/// [`fill`] per trip.
#[inline(never)]
unsafe fn fill_trips<const SEG: bool>(w: &Stepped, _: LaneInit, _: LaneInit) -> i64 {
    // SAFETY: each trip's `dst` lanes are what `resolve_lanes` would hand
    // `fill` there (`Stepped::walk`).
    w.walk::<SEG>(|_, [d, ..], v| unsafe { fill(w.n, d, v) })
}

/// [`axpy`] per trip.
#[inline(never)]
unsafe fn axpy_trips<T: Term, const SEG: bool>(
    w: &Stepped,
    first: LaneInit,
    rest: LaneInit,
) -> i64 {
    let (Some(first), Some(rest)) = (first.base(w.init32), rest.base(w.init32)) else {
        return 0;
    };
    // SAFETY: each trip's operands are what `resolve_lanes` would hand
    // `axpy` there (`Stepped::walk`).
    w.walk::<SEG>(|t, ops, c| unsafe {
        let base = if t == 0 { first } else { rest };
        axpy(w.n, ops, base, |a, b| T::of(c, a, b));
    })
}

/// [`max`] per trip.
#[inline(never)]
unsafe fn max_trips<const SEG: bool>(w: &Stepped, first: LaneInit, rest: LaneInit) -> i64 {
    let (Some(first), Some(rest)) = (first.base(w.init32), rest.base(w.init32)) else {
        return 0;
    };
    // SAFETY: each trip's operands are what `resolve_lanes` would hand
    // `max` there (`Stepped::walk`).
    w.walk::<SEG>(|t, ops, _| unsafe { max(w.n, ops, if t == 0 { first } else { rest }) })
}

/// [`exp_diff`] per trip.
#[inline(never)]
unsafe fn exp_diff_trips<const SEG: bool>(w: &Stepped, _: LaneInit, _: LaneInit) -> i64 {
    // SAFETY: each trip's operands are what `resolve_lanes` would hand
    // `exp_diff` there (`Stepped::walk`).
    w.walk::<SEG>(|_, ops, _| unsafe { exp_diff(w.n, ops) })
}

/// [`reduce`] per trip.
#[inline(never)]
unsafe fn reduce_trips<T: Term, const SEG: bool>(
    w: &Stepped,
    first: LaneInit,
    rest: LaneInit,
) -> i64 {
    let (first, rest) = (first.restart(w.n, w.init32), rest.restart(w.n, w.init32));
    // SAFETY: each trip's operands are what `resolve_lanes` would hand
    // `reduce` there (`Stepped::walk`); `0 <= from < n`.
    w.walk::<SEG>(|t, ops, c| unsafe {
        let (from, start) = if t == 0 { first } else { rest };
        reduce((from, w.n), ops, start, |a, b| T::of(c, a, b));
    })
}

impl LaneSpec {
    /// Fast path: evaluate bindings and bases at lane 0, validate every
    /// lane's bounds, then run the microkernel. `None` (no writes done
    /// yet) falls back to the generic loop.
    pub(super) fn try_fast(&self, fr: &mut Frame, n: i64) -> Option<()> {
        let r = self.resolve_inline(fr, n)?;
        self.run_inline(&r)
    }

    /// The prologue of [`LaneSpec::try_fast`]: bind the iters at lane 0,
    /// evaluate the init and the hoisted value, resolve every operand's
    /// lanes. Writes nothing but scalar slots. Inlined, as the lane body
    /// is: [`LaneSpec::try_fast`] runs once per non-zero wherever no row
    /// nest applies, and out of line either half measured 5–10 % slower
    /// per superinstruction.
    #[inline(always)]
    fn resolve_inline(&self, fr: &mut Frame, n: i64) -> Option<Resolved> {
        fr.scalars[self.lane_slot as usize] = 0;
        if let Some(outer) = self.outer_slot {
            fr.scalars[outer as usize] = 0;
        }
        for it in &self.iters {
            let v = it.binding.eval(fr).ok()?;
            fr.scalars[it.slot as usize] = v;
        }
        let init_v = match &self.init {
            InitKind::None => 0.0,
            InitKind::Always { value }
            | InitKind::WhenReduceZero { value }
            | InitKind::AtZeroLane { value } => value.eval(fr).ok()?,
        };
        let (scalar, [d, a, b]) = match &self.micro {
            Micro::FillLanes { dst, value } => {
                let v = value.eval(fr).ok()?;
                (v, [resolve_lanes(fr, dst.parts(), n, true)?; 3])
            }
            Micro::AxpyLanes { dst, term }
            | Micro::DotLanes { dst, term }
            | Micro::GatherScaleAccumulate { dst, term } => {
                let (coeff, a, b) = resolve_term(fr, term, n)?;
                (coeff, [resolve_lanes(fr, dst.parts(), n, true)?, a, b])
            }
            Micro::MaxLanes { dst, a } => {
                let a = resolve_lanes(fr, a.parts(), n, false)?;
                (0.0, [resolve_lanes(fr, dst.parts(), n, true)?, a, a])
            }
            Micro::ExpDiffLanes { dst, a, b } => {
                let a = resolve_lanes(fr, a.parts(), n, false)?;
                let b = resolve_lanes(fr, b.parts(), n, false)?;
                (0.0, [resolve_lanes(fr, dst.parts(), n, true)?, a, b])
            }
        };
        Some(Resolved { n, init: self.lane_init(fr, n), init32: init_v, scalar, ops: [d, a, b] })
    }

    /// At which lanes the init fires, from the reduce iters' values at
    /// lane 0 (already in their slots).
    fn lane_init(&self, fr: &Frame, n: i64) -> LaneInit {
        match &self.init {
            InitKind::None => LaneInit::Never,
            InitKind::Always { .. } => LaneInit::All,
            InitKind::WhenReduceZero { .. } => {
                let zero = self
                    .iters
                    .iter()
                    .filter(|it| it.is_reduce)
                    .all(|it| fr.scalars[it.slot as usize] == 0);
                if zero {
                    LaneInit::All
                } else {
                    LaneInit::Never
                }
            }
            InitKind::AtZeroLane { .. } => self.zero_lane(fr, n),
        }
    }

    /// Run the microkernel over lanes `r` resolved. `None` only before any
    /// write.
    fn run(&self, r: &Resolved) -> Option<()> {
        self.run_inline(r)
    }

    #[inline(always)]
    fn run_inline(&self, r: &Resolved) -> Option<()> {
        let (n, ops) = (r.n, r.ops);
        match &self.micro {
            Micro::FillLanes { .. } => {
                // SAFETY: `resolve_lanes` validated all `n` lanes of `dst`
                // and its writability; `fuse_lane_loop` proved its stride
                // is 1.
                unsafe { fill(n, ops[0], r.scalar) };
            }
            Micro::AxpyLanes { term, .. } => {
                let base = axpy_base!(r.init, r.init32, return None);
                // SAFETY: `resolve_lanes` validated all `n` lanes of every
                // operand (and `dst`'s writability) before the first write;
                // `fuse_lane_loop` proved all three strides are 1.
                with_term!(term.shape, r.scalar, |t| unsafe { axpy(n, ops, base, t) });
            }
            Micro::DotLanes { term, .. } | Micro::GatherScaleAccumulate { term, .. } => {
                let (from, start) = reduce_start!(r.init, n, r.init32);
                // SAFETY: `resolve_lanes` validated all `n` lanes of `a`
                // and `b` at their proven strides and the one element of
                // `dst` (stride 0, writable); `0 <= from < n`.
                with_term!(term.shape, r.scalar, |t| unsafe { reduce((from, n), ops, start, t) });
            }
            Micro::MaxLanes { .. } => {
                let base = axpy_base!(r.init, r.init32, return None);
                // SAFETY: `resolve_lanes` validated all `n` lanes of `dst`
                // (writable) and `a` before the first write; `fuse_lane_loop`
                // proved both strides are 1.
                unsafe { max(n, ops, base) };
            }
            Micro::ExpDiffLanes { .. } => {
                // SAFETY: `resolve_lanes` validated all `n` lanes of `dst`
                // (writable), `a` and `b` before the first write;
                // `fuse_lane_loop` proved all three strides are 1.
                unsafe { exp_diff(n, ops) };
            }
        }
        Some(())
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
#[inline(always)]
fn resolve_term(fr: &Frame, term: &TermSpec, n: i64) -> Option<(f32, Lanes, Lanes)> {
    let coeff = match &term.coeff {
        Some(c) => c.eval(fr).ok()?,
        None => 0.0,
    };
    let a = resolve_lanes(fr, term.a.parts(), n, false)?;
    let b = match &term.b {
        Some(bv) => resolve_lanes(fr, bv.parts(), n, false)?,
        // Never loaded by shapes without a second operand; alias `a` so
        // the operand triple stays uniform.
        None => a,
    };
    Some((coeff, a, b))
}
