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
//! * the store is one lane op ([`LaneOp`]) `dst[l] = combine(dst[l],
//!   value(l))` — `combine` a store, an add or a maximum, `value` a hoisted
//!   constant, a term or `exp(a − b)` — in one of the six instances it is
//!   named for: `FillLanes`, `AxpyLanes`, `DotLanes`,
//!   `GatherScaleAccumulate`, `MaxLanes` and `ExpDiffLanes`; and
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
//! only pin their variable to 0; when the loop around them is no nest, the
//! innermost such loop becomes a nest of one trip instead — a width-1 ELL
//! bucket's column). One walk over the lane prologue then
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
//! are the nest's **entry program** — its registers and linear
//! combinations of them. A **block** runs the entries — the rows of the
//! loop around the nest, or the nest's one entry — loading each register,
//! testing it against an interval solved once per launch, and taking the
//! entry's trips in the lane op's **trip loop** ([`TripFn`]): a cursor add
//! per operand per trip, the affine walks range-tested per entry, the
//! gathered column per trip (see the `nest` submodule). The row loop and
//! the trip loop inside it are one monomorphised function, picked from a
//! fixed menu when the walk state was established ([`row_loops`]). The
//! nest is the head of its loop in place of `LoopStart`; the loop behind
//! it is lowered as without it, and the block hands it the first trip it
//! cannot take — an entry the menu does not cover at trip 0 — before that
//! trip writes anything.
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
//! **Memory rule: plain raw-pointer loads and stores**, one generic lane
//! body ([`lanes`], [`reduce`]) monomorphised per instance and
//! [`TermShape`], under the contract generic dispatch's element
//! accesses rest on ([`super::elem_load`]): a launch runs on one thread
//! and is the only accessor of its bindings. Raw pointers, never `&mut`
//! slices, so operands that alias one another stay defined. Every binding
//! is flat storage, so an operand's lanes are one strided run.

use super::{
    scan_float, scan_index, scan_int, CStmt, ExprInfo, FloatExpr, FloatOp, Frame, IndexExpr,
    IntExpr, IntOp, RawBuf,
};
use std::collections::HashMap;
use std::marker::PhantomData;

mod nest;

pub(super) use nest::{
    build_block, build_nest, Block, Drift, EntryProgram, Exit, Extent, IndexPlan, Lin, NestSpec,
    Ratio, Reg, RowLoops, RowPlan, Solve, Stepped, Trips,
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

/// The per-lane `f32` term `t(l)` a lane op adds or takes the maximum
/// with: up to two lane-striding loads plus an optional lane-invariant
/// coefficient, combined in one of [`TermShape`]'s association orders.
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

/// How a lane op folds its value into `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Combine {
    /// `dst[l] = v(l)`.
    Store,
    /// `dst[l] = dst[l] + v(l)`; into a stride-0 `dst`, the register
    /// reduction `acc = acc + v(l)` over the lanes.
    Add,
    /// `dst[l] = dst[l].max(v(l))`: `f32::max`, in the source's operand
    /// order, as `FloatExpr::eval` computes `fmax`.
    Max,
}

/// What a lane op computes per lane.
#[derive(Debug, Clone)]
pub(super) enum Value {
    /// A lane-invariant value, evaluated once per invocation.
    Hoisted(FloatExpr),
    /// A term [`TermSpec`]; `max`'s operand is the `AOnly` one.
    Term(TermSpec),
    /// `(a[l] − b[l]).exp()`: `f32::exp`, as `FloatExpr::eval` computes
    /// `exp`.
    ExpDiff(LaneView, LaneView),
}

/// A dense-lane microkernel, `dst[l] = combine(dst[l], value(l))` over
/// `f32` element ranges resolved once per invocation, in place of the
/// generic executor's per-lane instruction dispatch. [`fuse_lane_loop`]
/// accepts six instances, named by [`LaneOp::kind`]:
///
/// * `FillLanes` — store a hoisted value into a contiguous `dst`
///   (format-init loops, `C = 0` epilogues);
/// * `AxpyLanes` — add a term into a contiguous `dst`, the SpMM/ELL inner
///   loop `C[i, 0..d] += a_ij · B[j, 0..d]`;
/// * `DotLanes` — add `a[l]·b[l]`, both contiguous, into one element;
/// * `GatherScaleAccumulate` — add any other term into one element, the
///   SDDMM inner loop `Bout[e] += (a_e · X[i, 0..d]) · Y[0..d, j]` whose
///   `Y` column walk strides by the number of columns;
/// * `MaxLanes` — the running maximum of `a[l]` in a contiguous `dst`,
///   attention's `rowmax` `M[i, h] = max(M[i, h], S[pos, h])`;
/// * `ExpDiffLanes` — store `exp(a[l] − b[l])` into a contiguous `dst`,
///   attention's `P = exp(S − M)`.
#[derive(Debug, Clone)]
pub(super) struct LaneOp {
    pub dst: LaneView,
    pub combine: Combine,
    pub value: Value,
}

impl LaneOp {
    /// The instance's name (diagnostics, `fused_kinds()`) and its listing
    /// mnemonic (`super.*`, `nest.*`).
    pub(super) fn kind(&self) -> (&'static str, &'static str) {
        let dot = |t: &TermSpec| {
            t.shape == TermShape::AB
                && t.a.stride == 1
                && t.b.as_ref().is_some_and(|b| b.stride == 1)
        };
        match (self.combine, &self.value) {
            (Combine::Store, Value::Hoisted(_)) => ("FillLanes", "fill"),
            (Combine::Store, _) => ("ExpDiffLanes", "exp"),
            (Combine::Max, _) => ("MaxLanes", "max"),
            (Combine::Add, _) if self.dst.stride != 0 => ("AxpyLanes", "axpy"),
            (Combine::Add, Value::Term(t)) if dot(t) => ("DotLanes", "dot"),
            (Combine::Add, _) => ("GatherScaleAccumulate", "gsa"),
        }
    }

    /// The lane views the op touches: `dst`, then the value's `a` and `b`.
    fn views(&self) -> [Option<&LaneView>; 3] {
        match &self.value {
            Value::Hoisted(_) => [Some(&self.dst), None, None],
            Value::Term(t) => [Some(&self.dst), Some(&t.a), t.b.as_ref()],
            Value::ExpDiff(a, b) => [Some(&self.dst), Some(a), Some(b)],
        }
    }

    /// The lane-invariant value the op evaluates once per invocation: the
    /// hoisted value or the term's coefficient.
    fn hoisted(&self) -> Option<&FloatExpr> {
        match &self.value {
            Value::Hoisted(value) => Some(value),
            Value::Term(t) => t.coeff.as_ref(),
            Value::ExpDiff(..) => None,
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
/// slot, extent, proven iter strides, init classification, the
/// [`LaneOp`]). The bytecode lowering embeds it in a `Super` instruction whose
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
    pub op: LaneOp,
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
    let hoisted = spec.op.hoisted();
    let lanes_line_up = spec
        .op
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

    // The store is `combine(Load(dst), value)` or a bare `value`; the
    // value a hoisted constant, `exp(a − b)` or a term.
    let is_dst = |e: &FloatExpr| {
        let FloatExpr::Load { buf, index } = e else { return false };
        *buf == dst && index == dst_index
    };
    let (combine, value) = match value {
        FloatExpr::Bin { op: op @ (FloatOp::Add | FloatOp::Max), lhs, rhs } if is_dst(lhs) => {
            (if *op == FloatOp::Add { Combine::Add } else { Combine::Max }, &**rhs)
        }
        value => (Combine::Store, value),
    };
    let value = match value {
        v if float_invariant(v, &env) => Value::Hoisted(v.clone()),
        FloatExpr::Exp(arg) => {
            let FloatExpr::Bin { op: FloatOp::Sub, lhs, rhs } = &**arg else {
                return None;
            };
            Value::ExpDiff(lane_load(lhs, &env)?, lane_load(rhs, &env)?)
        }
        v => Value::Term(match_term(v, &env)?),
    };
    let op = LaneOp {
        dst: LaneView { buf: dst, index: dst_index.clone(), stride: dst_stride },
        combine,
        value,
    };

    // The six instances: the register reduction, with any operand strides
    // and any init; else a contiguous run whose init does not toggle
    // mid-loop — a store, of a hoisted value or `exp(a − b)`, with none.
    let contiguous = op.views().into_iter().flatten().all(|v| v.stride == 1);
    let accepted = match (op.combine, &op.value) {
        (Combine::Add, Value::Term(_)) if dst_stride == 0 => true,
        _ if !contiguous => false,
        (Combine::Store, Value::ExpDiff(..)) => init_src.is_none(),
        _ if reduce_strided => false,
        (Combine::Store, Value::Hoisted(_)) => init_src.is_none(),
        (Combine::Max, Value::Term(t)) => t.shape == TermShape::AOnly,
        (Combine::Add, Value::Term(_)) => true,
        _ => false,
    };

    // Aliasing: nothing re-evaluated per lane — iter bindings, the init
    // and hoisted values, the operands and every index — may read the
    // written buffer.
    let mut reads = ExprInfo::default();
    scan_index(dst_index, &mut reads);
    for it in &iters {
        scan_int(&it.binding, &mut reads);
    }
    for value in init.value().into_iter().chain(op.hoisted()) {
        scan_float(value, &mut reads);
    }
    for operand in op.views().into_iter().skip(1).flatten() {
        reads.bufs.insert(operand.buf);
        scan_index(&operand.index, &mut reads);
    }
    (accepted && !reads.bufs.contains(&dst)).then(|| LaneSpec {
        lane_slot: *lane,
        outer_slot: None,
        extent: extent.clone(),
        iters,
        init,
        op,
    })
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
    use Class::{Inv, Lane, Other};
    if let Some(a) = lane_load(e, env) {
        return Some(TermSpec { shape: TermShape::AOnly, coeff: None, a, b: None });
    }
    // A product's factors, classified, and the factors themselves.
    fn factors<'e>(
        e: &'e FloatExpr,
        env: &StrideEnv,
    ) -> Option<(Class, Class, &'e FloatExpr, &'e FloatExpr)> {
        let FloatExpr::Bin { op: FloatOp::Mul, lhs, rhs } = e else {
            return None;
        };
        Some((classify(lhs, env), classify(rhs, env), lhs, rhs))
    }
    let (shape, coeff, a, b) = match factors(e, env)? {
        (Inv, Lane(a), c, _) => (TermShape::CoeffA, Some(c), a, None),
        (Lane(a), Inv, _, c) => (TermShape::ACoeff, Some(c), a, None),
        (Lane(a), Lane(b), ..) => (TermShape::AB, None, a, Some(b)),
        // (coeff * a) * b and (a * coeff) * b.
        (Other, Lane(b), x, _) => match factors(x, env)? {
            (Inv, Lane(a), c, _) => (TermShape::CoeffAB, Some(c), a, Some(b)),
            (Lane(a), Inv, _, c) => (TermShape::ACoeffB, Some(c), a, Some(b)),
            _ => return None,
        },
        // coeff * (a * b).
        (Inv, Other, c, y) => match factors(y, env)? {
            (Lane(a), Lane(b), ..) => (TermShape::CoeffParenAB, Some(c), a, Some(b)),
            _ => return None,
        },
        _ => return None,
    };
    Some(TermSpec { shape, coeff: coeff.cloned(), a, b })
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Resolved lane range of one buffer: every lane's element has been
/// bounds-checked against both the declared shape and the bound storage.
/// Lane `l` is `ptr[stride·l]`, inside one allocation.
#[derive(Clone, Copy)]
struct Lanes {
    ptr: *mut f32,
    stride: i64,
}

impl Lanes {
    /// The first lane's value.
    fn first(self) -> f32 {
        // SAFETY: every `Lanes` was resolved — each lane bounds-checked —
        // for at least one lane, so lane 0's element is live.
        unsafe { self.ptr.read() }
    }
}

/// Resolve `view` for `n` lanes, validating every lane's bounds without
/// raising: `None` means "run the generic loop instead" (which reproduces
/// the exact interpreter error, if any). `for_store` additionally
/// requires the binding to be writable, so stores into read-only
/// bindings fall back to the generic loop's error path.
///
/// Inlined into the prologue: out of line, passing the view apart and
/// returning the operand with its place through memory costs ≈ 8 ns per
/// call, three or four times per superinstruction (measured on the
/// per-non-zero SDDMM path).
#[inline(always)]
fn resolve_lanes(fr: &Frame, view: &LaneView, n: i64, for_store: bool) -> Option<Lanes> {
    let LaneView { buf, ref index, stride } = *view;
    let (flat, last_i, last_d) = index.eval_with_last(fr).ok()?;
    let span = stride.checked_mul(n - 1)?;
    let last_end = last_i.checked_add(span)?;
    if last_end < 0 || last_end >= last_d {
        return None;
    }
    let flat_end = flat.checked_add(span)?;
    let within = |len: i64| flat >= 0 && flat < len && flat_end >= 0 && flat_end < len;
    match fr.bufs[buf as usize] {
        RawBuf::F32 { ptr, len, writable } => {
            if for_store && !writable {
                return None;
            }
            // SAFETY: 0 <= flat < len elements behind ptr.
            within(i64::try_from(len).ok()?)
                .then(|| Lanes { ptr: unsafe { ptr.add(flat as usize) }, stride })
        }
        _ => None,
    }
}

/// Which lanes the init value overwrites the accumulator at.
#[derive(Clone, Copy)]
pub(super) enum LaneInit {
    Never,
    All,
    One(i64),
}

impl LaneInit {
    /// What a [`lanes`] body combines each lane's value with: the init
    /// value where the init fires at every lane, the lane's own element
    /// (`None`) where at none; `None` for an init at one lane, which no
    /// contiguous lane op has.
    #[inline(always)]
    fn base(self, init32: f32) -> Option<Option<f32>> {
        match self {
            LaneInit::All => Some(Some(init32)),
            LaneInit::Never => Some(None),
            LaneInit::One(_) => None,
        }
    }

    /// Where a [`reduce`] over `n` lanes starts and from what: every lane
    /// at or after an init restarts from the init value, so only the lanes
    /// from the last init on reach the stored result.
    #[inline(always)]
    fn restart(self, n: i64, init32: f32) -> (i64, Option<f32>) {
        match self {
            LaneInit::Never => (0, None),
            LaneInit::All => (n - 1, Some(init32)),
            LaneInit::One(l0) => (l0, Some(init32)),
        }
    }
}

/// Everything one invocation of a lane body reads, resolved and
/// bounds-checked: what the lane prologue hands the lane body.
#[derive(Clone, Copy)]
struct Resolved {
    /// Lane count.
    n: i64,
    init: LaneInit,
    /// The init value.
    init32: f32,
    /// The hoisted value: a fill's value, a term's coefficient.
    scalar: f32,
    /// `dst`, `a`, `b` (a fill repeats `dst`; a value without a second
    /// operand repeats `a`, which it never loads).
    ops: [Lanes; 3],
}

/// A [`Combine`] as a type.
trait CombineFn {
    fn of(cur: f32, v: f32) -> f32;
}

macro_rules! combine_fn {
    ($name:ident, |$cur:pat_param, $v:ident| $e:expr) => {
        struct $name;
        impl CombineFn for $name {
            #[inline(always)]
            fn of($cur: f32, $v: f32) -> f32 {
                $e
            }
        }
    };
}

combine_fn!(Store, |_, v| v);
combine_fn!(Add, |cur, v| cur + v);
combine_fn!(Max, |cur, v| cur.max(v));

/// A [`Value`] as a type: the lane's `f32` value over lane element
/// pointers and the hoisted scalar `c`, in the source association and
/// operand order exactly — [`TermShape`]'s seven formulas, the hoisted
/// value and `exp(a − b)`, each written once here for the lane bodies and
/// the row nest's trip loops alike.
trait ValueFn {
    /// # Safety
    /// `a` — and `b`, for the values that load it — are lane pointers
    /// `resolve_lanes` validated.
    unsafe fn of(c: f32, a: *const f32, b: *const f32) -> f32;
}

macro_rules! value_fn {
    ($name:ident, |$c:pat_param, $a:pat_param, $b:pat_param, $ld:ident| $e:expr) => {
        struct $name;
        impl ValueFn for $name {
            #[inline(always)]
            unsafe fn of($c: f32, $a: *const f32, $b: *const f32) -> f32 {
                // SAFETY: the caller's contract, for each pointer read.
                let $ld = |p: *const f32| unsafe { p.read() };
                $e
            }
        }
    };
}

value_fn!(Hoisted, |c, _, _, _ld| c);
value_fn!(ExpDiff, |_, a, b, ld| (ld(a) - ld(b)).exp());
value_fn!(AOnly, |_, a, _, ld| ld(a));
value_fn!(CoeffA, |c, a, _, ld| c * ld(a));
value_fn!(ACoeff, |c, a, _, ld| ld(a) * c);
value_fn!(AB, |_, a, b, ld| ld(a) * ld(b));
value_fn!(CoeffAB, |c, a, b, ld| (c * ld(a)) * ld(b));
value_fn!(ACoeffB, |c, a, b, ld| (ld(a) * c) * ld(b));
value_fn!(CoeffParenAB, |c, a, b, ld| c * (ld(a) * ld(b)));

/// Expand `$run` once per [`TermShape`] with `$T` naming its [`ValueFn`],
/// and pick the expansion `$shape` selects.
macro_rules! on_shape {
    ($shape:expr, $T:ident => $run:expr) => {
        on_shape!($shape, $T => $run; AOnly CoeffA ACoeff AB CoeffAB ACoeffB CoeffParenAB)
    };
    ($shape:expr, $T:ident => $run:expr; $($name:ident)*) => {
        match $shape {
            $(TermShape::$name => {
                type $T = $name;
                $run
            })*
        }
    };
}

/// Expand `$lanes` with `$C` and `$V` naming the types of the lane op
/// `$op`'s combine and value — `$reduce` with `$V` for the register
/// reduction — for the six instances [`fuse_lane_loop`] accepts and no
/// other pair, and pick the expansion `$op` is: one monomorphised body per
/// instance and term shape, with the `match` outside it.
macro_rules! on_op {
    (@ $C:ident = $c:ty, $V:ident = $v:ty => $lanes:expr) => {{
        type $C = $c;
        type $V = $v;
        $lanes
    }};
    ($op:expr, <$C:ident, $V:ident> => $lanes:expr, <$R:ident> => $reduce:expr) => {{
        let op: &LaneOp = $op;
        match (op.combine, &op.value) {
            (Combine::Store, Value::Hoisted(_)) => on_op!(@ $C = Store, $V = Hoisted => $lanes),
            (Combine::Store, Value::ExpDiff(..)) => on_op!(@ $C = Store, $V = ExpDiff => $lanes),
            (Combine::Max, _) => on_op!(@ $C = Max, $V = AOnly => $lanes),
            (Combine::Add, Value::Term(t)) if op.dst.stride == 0 => {
                on_shape!(t.shape, $R => $reduce)
            }
            (Combine::Add, Value::Term(t)) => {
                type $C = Add;
                on_shape!(t.shape, $V => $lanes)
            }
            _ => unreachable!("`fuse_lane_loop` accepts no other lane op"),
        }
    }};
}

/// `dst[l] = C(cur, V(c, a + l, b + l))` over unit-stride lanes, `cur`
/// being `base` when the init fires at every lane and `dst[l]` when at
/// none: the body of every lane op but the register reduction.
///
/// # Safety
/// `d` (for a store), `a` and `b` were resolved over `n` lanes, all with
/// unit stride.
unsafe fn lanes<C: CombineFn, V: ValueFn>(
    n: i64,
    [d, a, b]: [Lanes; 3],
    base: Option<f32>,
    c: f32,
) {
    debug_assert!([d, a, b].iter().all(|v| v.stride == 1));
    let (pd, pa, pb) = (d.ptr, a.ptr, b.ptr);
    match base {
        Some(base) => {
            for l in 0..n as usize {
                pd.add(l).write(C::of(base, V::of(c, pa.add(l), pb.add(l))));
            }
        }
        None => {
            for l in 0..n as usize {
                pd.add(l).write(C::of(pd.add(l).read(), V::of(c, pa.add(l), pb.add(l))));
            }
        }
    }
}

/// `acc = acc + V(c, a_l, b_l)` over lanes `from..n` into the one element
/// `d`, starting from `start` (or the element's current value): one `f32`
/// add per lane, in lane order, as the generic store/load pair has it.
///
/// # Safety
/// `d` (for a store, stride 0), `a` and `b` were resolved over `n` lanes.
#[inline(always)]
unsafe fn reduce<V: ValueFn>(
    (from, n): (i64, i64),
    [d, a, b]: [Lanes; 3],
    start: Option<f32>,
    c: f32,
) {
    debug_assert!(d.stride == 0 && (0..n).contains(&from));
    let pd = d.ptr;
    let mut acc = start.unwrap_or_else(|| pd.read());
    let (sa, sb) = (a.stride as isize, b.stride as isize);
    let (pa, pb) = (a.ptr.offset(from as isize * sa), b.ptr.offset(from as isize * sb));
    for l in 0..(n - from) as isize {
        acc = Add::of(acc, V::of(c, pa.offset(l * sa), pb.offset(l * sb)));
    }
    pd.write(acc);
}

/// A lane op's trip loop, as a type: take the trips of the entry `w` was
/// made for, the init firing as `first` says at trip 0 and as `rest` says at
/// every later one; returns the first trip not taken (the trip count, or
/// the one whose gathered value left the entry's reach — nothing of it
/// written). Inlined into the row loop that calls it ([`RowLoops`]).
pub(super) trait TripFn {
    /// # Safety
    /// As [`Stepped::walk`]; and the loop is the one for the lane op whose
    /// operands `w` holds, on the frame it holds them for.
    unsafe fn trips(w: &Stepped, first: LaneInit, rest: LaneInit) -> i64;
}

/// [`lanes`] per trip.
struct LanesTrips<C, V>(PhantomData<(C, V)>);

impl<C: CombineFn, V: ValueFn> TripFn for LanesTrips<C, V> {
    #[inline(always)]
    unsafe fn trips(w: &Stepped, first: LaneInit, rest: LaneInit) -> i64 {
        let (Some(first), Some(rest)) = (first.base(w.init32), rest.base(w.init32)) else {
            return 0;
        };
        // SAFETY: each trip's operands are what `resolve_lanes` would hand
        // `lanes` there (`Stepped::walk`).
        w.walk(|t, ops, c| unsafe {
            lanes::<C, V>(w.n, ops, if t == 0 { first } else { rest }, c);
        })
    }
}

/// [`reduce`] per trip.
struct ReduceTrips<V>(PhantomData<V>);

impl<V: ValueFn> TripFn for ReduceTrips<V> {
    #[inline(always)]
    unsafe fn trips(w: &Stepped, first: LaneInit, rest: LaneInit) -> i64 {
        let (first, rest) = (first.restart(w.n, w.init32), rest.restart(w.n, w.init32));
        // SAFETY: each trip's operands are what `resolve_lanes` would hand
        // `reduce` there (`Stepped::walk`); `0 <= from < n`.
        w.walk(|t, ops, c| unsafe {
            let (from, start) = if t == 0 { first } else { rest };
            reduce::<V>((from, w.n), ops, start, c);
        })
    }
}

/// The menu of row loops: per lane op instance and term shape, one
/// monomorphised row loop per row layout — a CSR row in locals, or any
/// block's planned registers. Everything a row or a trip does not change
/// is matched here, once per launch when a nest's walk state is
/// established, instead of once per row or non-zero; the trip loop —
/// [`Stepped::walk`]'s cursor adds around the same lane body the
/// per-invocation path runs — is inlined into its row loop. The menu is 17
/// lane op instances (fill, exp, max, and add into a run or into one
/// element, each with seven term shapes) × 2 layouts = 34 row loops.
fn row_loops(spec: &LaneSpec) -> RowLoops {
    on_op!(&spec.op,
        <C, V> => RowLoops::of::<LanesTrips<C, V>>(),
        <V> => RowLoops::of::<ReduceTrips<V>>())
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
        let eval = |value: Option<&FloatExpr>| value.map_or(Some(0.0), |v| v.eval(fr).ok());
        let (init32, scalar) = (eval(self.init.value())?, eval(self.op.hoisted())?);
        let [_, a, b] = self.op.views();
        let d = resolve_lanes(fr, &self.op.dst, n, true)?;
        let a = a.map_or(Some(d), |a| resolve_lanes(fr, a, n, false))?;
        let b = b.map_or(Some(a), |b| resolve_lanes(fr, b, n, false))?;
        Some(Resolved { n, init: self.lane_init(fr, n), init32, scalar, ops: [d, a, b] })
    }

    /// Run the microkernel over lanes `r` resolved. `None` only before any
    /// write.
    #[inline(always)]
    fn run_inline(&self, r: &Resolved) -> Option<()> {
        let (n, ops, c) = (r.n, r.ops, r.scalar);
        // SAFETY: `resolve_lanes` validated all `n` lanes of every operand
        // at its proven stride (and `dst`'s writability) before the first
        // write; `fuse_lane_loop` proved every stride of a contiguous op is
        // 1 and the reduction's `dst` stride 0; `0 <= from < n`.
        on_op!(&self.op,
        <C, V> => unsafe { lanes::<C, V>(n, ops, r.init.base(r.init32)?, c) },
        <V> => {
            let (from, start) = r.init.restart(n, r.init32);
            unsafe { reduce::<V>((from, n), ops, start, c) }
        });
        Some(())
    }

    /// At which lanes the init fires, from the reduce iters' values at
    /// lane 0 (already in their slots): where every reduce binding is zero
    /// — every lane or none when each is lane-invariant (an all-spatial
    /// block has none), else the one lane, if any.
    fn lane_init(&self, fr: &Frame, n: i64) -> LaneInit {
        if self.init.value().is_none() {
            return LaneInit::Never;
        }
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
        lane.map_or(LaneInit::All, LaneInit::One)
    }
}
