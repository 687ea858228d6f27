//! Row-nest superinstructions: the fusion unit lifted one loop out.
//!
//! A fused lane loop ([`LaneSpec`]) pays its prologue — iter bindings,
//! init and coefficient evaluation, three index evaluations through
//! expression trees — once per invocation, i.e. once per non-zero of a CSR
//! or ELL row, for quantities that are mostly constant for the whole row.
//! [`build_nest`] analyzes `for j in 0..extent { lane loop }` — the
//! lowering finds such loops in the stream it just emitted, a `Super` and
//! its fallback being the whole loop body behind nothing but constant
//! binds (what unit-trip loops in between lower to) — and yields a
//! [`NestSpec`] when, relative to `j`, every prologue quantity of the lane
//! loop classifies at compile time as one of
//!
//! * **row-invariant** — mentions nothing that moves with `j`;
//! * **affine** in `j` — `value(j) = value(0) + step·j`, `step` a
//!   compile-time constant;
//! * **gathered** — `scale ×` one `i32` load at an affine-in-`j` position
//!   of a buffer the nest does not write (the `indices[indptr[i] + j]`
//!   column), plus an affine part. A nest has at most one such load.
//!
//! The quantities are each iter binding, the flat index of the three lane
//! views (at most one dimension of each may move, extents never), the
//! coefficient (row-invariant, or one `f32` load at a moving index), the
//! lane count, and the init / fill values (row-invariant).
//!
//! At run time trip 0 goes through the lane loop's own prologue; the
//! moving quantities are then *walked*: per trip one bounds-checked load
//! of the gathered index, one bounds-checked coefficient load, a base add
//! and an interval check per moving view, and the unchanged lane bodies.
//! Any precondition failing at trip `t` — before that trip's first write —
//! returns `t`, and the generic loop behind the instruction (with the
//! per-non-zero `Super` inside it) resumes at exactly that trip: errors,
//! their order and the written prefix stay the interpreter's.

use super::{
    cols_lanes, div_rem, float_invariant, index_loads, ColSeg, FloatExpr, Frame, IndexExpr,
    IntExpr, IntOp, LaneBody, LaneSpec, Lanes, Micro, Place, RawBuf, Resolved, Steady,
};
use crate::exec::{elem_load_i32, RowSeg};

// ---------------------------------------------------------------------------
// Compile-time classification
// ---------------------------------------------------------------------------

/// How one index dimension moves with the trip `t`:
/// `i(t) = i(0) + step·t + scale·(g(t) − g(0))`, `g` the nest's gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::exec) struct Drift {
    /// Which dimension of the index moves (no other does).
    pub dim: usize,
    pub step: i64,
    pub scale: i64,
}

/// Value of an integer expression relative to the outer slot:
/// `v(t) = v(0) + step·t + scale·(g(t) − g(0))` with `g` the load `atom`.
/// An `atom` under a zero `scale` still matters: the load must succeed at
/// every trip for the expression to evaluate.
#[derive(Clone, Copy, PartialEq)]
struct Form<'a> {
    step: i64,
    scale: i64,
    atom: Option<&'a IntExpr>,
}

const ROW: Form<'static> = Form { step: 0, scale: 0, atom: None };

impl<'a> Form<'a> {
    fn is_row(&self) -> bool {
        *self == ROW
    }

    /// `self + sign·other`; `None` when they gather through different loads.
    fn plus(self, other: Form<'a>, sign: i64) -> Option<Form<'a>> {
        let atom = match (self.atom, other.atom) {
            (a, None) | (None, a) => a,
            (Some(p), Some(q)) if p == q => Some(p),
            _ => return None,
        };
        Some(Form {
            step: self.step.checked_add(sign.checked_mul(other.step)?)?,
            scale: self.scale.checked_add(sign.checked_mul(other.scale)?)?,
            atom,
        })
    }

    fn times(self, c: i64) -> Option<Form<'a>> {
        Some(Form { step: self.step.checked_mul(c)?, scale: self.scale.checked_mul(c)?, ..self })
    }
}

/// Scalar slot → form, for the handful of slots a nest binds (a linear
/// scan beats hashing at this size). Absent slots are row-invariant: loop
/// variables and parameters outside the nest, and the lane slot and pins
/// the nest holds constant.
#[derive(Default)]
struct FormEnv<'a>(Vec<(u32, Form<'a>)>);

impl<'a> FormEnv<'a> {
    fn get(&self, slot: u32) -> Form<'a> {
        self.0.iter().find(|(s, _)| *s == slot).map_or(ROW, |(_, f)| *f)
    }
}

impl Steady for FormEnv<'_> {
    fn steady(&self, e: &IntExpr) -> bool {
        int_form(e, self).is_some_and(|f| f.is_row())
    }
}

/// Classify `e`, or `None` when it is none of row-invariant / affine /
/// gathered (the outer slot under a division or selection, a product of
/// two moving values, a load at a gathered position, …).
fn int_form<'a>(e: &'a IntExpr, env: &FormEnv<'a>) -> Option<Form<'a>> {
    let row_if = |ok: bool| ok.then_some(ROW);
    match e {
        IntExpr::Const(_) => Some(ROW),
        IntExpr::Slot(s) => Some(env.get(*s)),
        IntExpr::Bin { op, lhs, rhs } => {
            let (l, r) = (int_form(lhs, env)?, int_form(rhs, env)?);
            match (op, &**lhs, &**rhs) {
                (IntOp::Add, ..) => l.plus(r, 1),
                (IntOp::Sub, ..) => l.plus(r, -1),
                (IntOp::Mul, _, IntExpr::Const(c)) => l.times(*c),
                (IntOp::Mul, IntExpr::Const(c), _) => r.times(*c),
                _ => row_if(l.is_row() && r.is_row()),
            }
        }
        IntExpr::Select { cond, then_, else_ } => {
            row_if(super::bool_invariant(cond, env) && env.steady(then_) && env.steady(else_))
        }
        IntExpr::CastViaF64(f) => row_if(float_invariant(f, env)),
        IntExpr::BoolToInt(b) => row_if(super::bool_invariant(b, env)),
        IntExpr::Load { index, .. } => match index_drift(index, env)? {
            None => Some(ROW),
            // One load at an affine position: the gather.
            Some(m) if m.drift.scale == 0 && m.atom.is_none() => {
                Some(Form { step: 0, scale: 1, atom: Some(e) })
            }
            Some(_) => None,
        },
        IntExpr::BinarySearch { lo, hi, x, .. } => {
            row_if(env.steady(lo) && env.steady(hi) && env.steady(x))
        }
    }
}

/// The one moving dimension of an index, and the load it gathers through.
struct Moving<'a> {
    drift: Drift,
    atom: Option<&'a IntExpr>,
}

/// `Some(None)` for a row-invariant index, `Some(Some(_))` when exactly
/// one dimension's index moves (every extent row-invariant), else `None`.
fn index_drift<'a>(ix: &'a IndexExpr, env: &FormEnv<'a>) -> Option<Option<Moving<'a>>> {
    let mut moving = None;
    for (dim, (idx, ext)) in ix.dims.iter().enumerate() {
        if !env.steady(ext) {
            return None;
        }
        let f = int_form(idx, env)?;
        if !f.is_row() {
            if moving.is_some() {
                return None;
            }
            moving =
                Some(Moving { drift: Drift { dim, step: f.step, scale: f.scale }, atom: f.atom });
        }
    }
    Some(moving)
}

/// The nest's gather: an `i32` load whose index walks one dimension by a
/// constant step per trip.
#[derive(Debug, Clone)]
pub(in crate::exec) struct Gather {
    pub buf: u32,
    pub index: IndexExpr,
    pub drift: Drift,
}

/// Most reduce iters a nest may have moving with the trip (their trip-0
/// values live in a fixed array of the per-entry state).
const MAX_REDUCE_MOVES: usize = 4;

/// A row nest: `for slot in 0..extent { [pins] lanes }` with the
/// classification of everything the lane prologue evaluates. The lane
/// loop itself is the `Super` at `lanes_at` in the same stream.
#[derive(Debug, Clone)]
pub(in crate::exec) struct NestSpec {
    pub slot: u32,
    pub extent: IntExpr,
    /// Constant binds between the loop head and the lane loop (the
    /// variables of unit-trip loops, pinned to 0).
    pub pins: Vec<(u32, i64)>,
    /// Stream address of the lane loop's superinstruction.
    pub lanes_at: u32,
    pub gather: Option<Gather>,
    /// `(slot, step, scale)` of every reduce iter that moves with the trip.
    pub reduce_moves: Vec<(u32, i64, i64)>,
    /// How `dst`, `a`, `b` move; `None` is row-invariant (or absent).
    pub views: [Option<Drift>; 3],
    /// The coefficient when it is one `f32` load at a moving index;
    /// `None` when it is row-invariant or absent.
    pub coeff: Option<Drift>,
}

/// Record the load a moving quantity gathers through; false when the nest
/// already gathers through a different one.
fn note<'a>(atom: &mut Option<&'a IntExpr>, seen: Option<&'a IntExpr>) -> bool {
    match (*atom, seen) {
        (_, None) => true,
        (None, Some(_)) => {
            *atom = seen;
            true
        }
        (Some(p), Some(q)) => p == q,
    }
}

/// Classify the lane loop `lanes` against the loop variable `slot` of the
/// loop whose whole body it is (behind the constant binds `pins`); `Some`
/// when that loop is a row nest. The bytecode lowering then replaces the
/// loop's `LoopStart` with the nest, leaving body and back edge as they
/// are.
pub(in crate::exec) fn build_nest(
    lanes: &LaneSpec,
    (slot, extent): (u32, &IntExpr),
    pins: Vec<(u32, i64)>,
    lanes_at: u32,
) -> Option<NestSpec> {
    let mut env = FormEnv::default();
    env.0.push((slot, Form { step: 1, scale: 0, atom: None }));
    // Every load at a moving position must be the one gather: it is the
    // only moving thing whose evaluation can fail, and the nest re-checks
    // exactly one such load per trip.
    let mut atom: Option<&IntExpr> = None;

    if !env.steady(&lanes.extent) {
        return None;
    }
    let mut reduce_moves = Vec::new();
    for it in &lanes.iters {
        let f = int_form(&it.binding, &env)?;
        if !note(&mut atom, f.atom) {
            return None;
        }
        if it.is_reduce && !f.is_row() {
            reduce_moves.push((it.slot, f.step, f.scale));
        }
        env.0.push((it.slot, f));
    }
    if reduce_moves.len() > MAX_REDUCE_MOVES {
        return None;
    }

    let (dst, term) = match &lanes.micro {
        Micro::FillLanes { dst, value } => {
            if !float_invariant(value, &env) {
                return None;
            }
            (dst, None)
        }
        Micro::AxpyLanes { dst, term }
        | Micro::DotLanes { dst, term }
        | Micro::GatherScaleAccumulate { dst, term } => (dst, Some(term)),
    };
    let init_is_row = match &lanes.init {
        super::InitKind::None => true,
        super::InitKind::Always { value }
        | super::InitKind::WhenReduceZero { value }
        | super::InitKind::AtZeroLane { value } => float_invariant(value, &env),
    };
    if !init_is_row {
        return None;
    }

    let mut drift_of = |index| -> Option<Option<Drift>> {
        Some(match index_drift(index, &env)? {
            None => None,
            Some(m) => note(&mut atom, m.atom).then_some(Some(m.drift))?,
        })
    };
    let mut views = [drift_of(&dst.index)?, None, None];
    let mut coeff = None;
    if let Some(term) = term {
        views[1] = drift_of(&term.a.index)?;
        if let Some(b) = &term.b {
            views[2] = drift_of(&b.index)?;
        }
        coeff = match &term.coeff {
            Some(c) if !float_invariant(c, &env) => {
                let FloatExpr::Load { index, .. } = c else {
                    return None;
                };
                Some(drift_of(index)??)
            }
            _ => None,
        };
    }

    let gather = match atom {
        None => None,
        Some(IntExpr::Load { buf, index }) => {
            // `int_form` only makes an atom of a load with a moving index.
            let drift = index_drift(index, &env)??.drift;
            // Gathering through the buffer the lanes write would read the
            // nest's own stores.
            if *buf == dst.buf || index_loads(index, dst.buf) {
                return None;
            }
            Some(Gather { buf: *buf, index: index.clone(), drift })
        }
        Some(_) => return None,
    };
    Some(NestSpec {
        slot,
        extent: extent.clone(),
        pins,
        lanes_at,
        gather,
        reduce_moves,
        views,
        coeff,
    })
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// One moving index, pinned at trip 0: where its moving dimension starts,
/// the interval that dimension must stay in, and how the flat index
/// follows it.
struct Walk {
    drift: Drift,
    i0: i64,
    lo: i64,
    hi: i64,
    flat0: i64,
    /// Elements the flat index advances per unit of the moving dimension.
    coef: i64,
}

impl Walk {
    /// Pin `index` at trip 0 (every slot already bound) — from where the
    /// lane prologue found it when the innermost dimension is the one
    /// that moves, else by evaluating it. A run of `span` further elements
    /// along the innermost dimension must stay inside it, as
    /// `resolve_lanes` demands.
    fn enter(
        fr: &Frame,
        index: &IndexExpr,
        drift: Drift,
        span: i64,
        found: Option<Place>,
    ) -> Option<Walk> {
        let innermost = drift.dim + 1 == index.dims.len();
        let (flat0, i0, d, coef) = match found {
            Some(at) if innermost => (at.flat, at.last_i, at.last_d, 1),
            _ => index.eval_dim(fr, drift.dim).ok()?,
        };
        let (lo, hi) = if innermost {
            (0.max(span.checked_neg()?), (d - 1).min((d - 1).checked_sub(span)?))
        } else {
            (0, d - 1)
        };
        Some(Walk { drift, i0, lo, hi, flat0, coef })
    }

    /// How far the moving dimension is from trip 0 at trip `t`; `None`
    /// when that leaves the dimension (the generic loop raises the error).
    #[inline(always)]
    fn offset(&self, t: i64, dg: i64) -> Option<i64> {
        let off = self.drift.step.checked_mul(t)?.checked_add(self.drift.scale.checked_mul(dg)?)?;
        let i = self.i0.checked_add(off)?;
        (self.lo <= i && i <= self.hi).then_some(off)
    }

    #[inline(always)]
    fn flat(&self, off: i64) -> Option<i64> {
        self.flat0.checked_add(self.coef.checked_mul(off)?)
    }
}

/// The gather, pinned at trip 0.
struct GatherWalk {
    walk: Walk,
    ptr: *mut i32,
    len: i64,
    g0: i64,
}

impl GatherWalk {
    fn enter(fr: &Frame, g: &Gather) -> Option<GatherWalk> {
        let walk = Walk::enter(fr, &g.index, g.drift, 0, None)?;
        let RawBuf::I32 { ptr, len } = fr.bufs[g.buf as usize] else {
            return None;
        };
        let mut gw = GatherWalk { walk, ptr, len: i64::try_from(len).ok()?, g0: 0 };
        gw.g0 = gw.at(0)?;
        Some(gw)
    }

    /// `g(t) − g(0)`: one load, checked against the declared dimension and
    /// the bound storage.
    #[inline(always)]
    fn at(&self, t: i64) -> Option<i64> {
        let flat = self.walk.flat(self.walk.offset(t, 0)?)?;
        if flat < 0 || flat >= self.len {
            return None;
        }
        debug_assert!((0..self.len).contains(&flat));
        // SAFETY: 0 <= flat < len elements behind `ptr`, checked above; the
        // binding outlives the run.
        Some(i64::from(unsafe { elem_load_i32(self.ptr, flat as usize) }) - self.g0)
    }
}

/// Where a moving view's run lands in its bound storage, per kind of
/// binding.
enum Spot {
    Flat {
        ptr: *mut f32,
        len: i64,
    },
    /// A column-segmented binding whose flat index moves by whole logical
    /// rows: the column (and so the segment pieces) never change, and no
    /// trip divides.
    ColsByRow {
        table: *const ColSeg,
        rows: i64,
        row0: i64,
        row_step: i64,
        row_scale: i64,
        col0: usize,
        /// The run fits the first column's segment (one contiguous piece).
        whole: bool,
    },
    /// A column-segmented binding walked along its rows (head after head
    /// of a batch): every trip looks its column up.
    Cols {
        table: *const ColSeg,
        width: i64,
        total: i64,
    },
    /// A row-segmented binding; `seg_lo`/`seg_ptr` cache the segment the
    /// last trip landed in, so staying inside it costs no division.
    Rows {
        segs: *const RowSeg,
        seg_len: i64,
        total: i64,
        seg_lo: i64,
        seg_ptr: *mut f32,
    },
}

/// One moving lane view, pinned at trip 0.
struct ViewWalk {
    walk: Walk,
    n: i64,
    stride: i64,
    span: i64,
    spot: Spot,
}

impl ViewWalk {
    /// Pin a view `found` at trip 0 by the lane prologue. `None` for a
    /// binding / movement combination the walk does not cover (the
    /// per-non-zero path still does).
    fn enter(
        fr: &Frame,
        (buf, index, stride): (u32, &IndexExpr, i64),
        drift: Drift,
        (n, for_store): (i64, bool),
        found: Place,
    ) -> Option<ViewWalk> {
        let span = stride.checked_mul(n - 1)?;
        let walk = Walk::enter(fr, index, drift, span, Some(found))?;
        let spot = match fr.bufs[buf as usize] {
            RawBuf::F32 { ptr, len } => Spot::Flat { ptr, len: i64::try_from(len).ok()? },
            RawBuf::SegCols { table, width, rows, writable } => {
                let (w, rows) = (i64::try_from(width).ok()?, i64::try_from(rows).ok()?);
                if (for_store && !writable) || w == 0 || !(0..=1).contains(&stride) {
                    return None;
                }
                // Whole logical rows per step?
                let rows_per = |by: i64| match by {
                    0 => Some(0),
                    by if by == w => Some(1),
                    by => (by % w == 0).then(|| by / w),
                };
                let by = (walk.coef.checked_mul(drift.step)?, walk.coef.checked_mul(drift.scale)?);
                match (rows_per(by.0), rows_per(by.1)) {
                    (Some(row_step), Some(row_scale)) => {
                        let (row0, col0) = div_rem(walk.flat0, w);
                        if col0 + span >= w {
                            return None;
                        }
                        debug_assert!((0..w).contains(&col0));
                        // SAFETY: 0 <= col0 < width entries in the table
                        // (`div_rem` of a non-negative flat index by it).
                        let rem = unsafe { (*table.add(col0 as usize)).rem };
                        let (col0, whole) = (col0 as usize, n <= i64::from(rem));
                        Spot::ColsByRow { table, rows, row0, row_step, row_scale, col0, whole }
                    }
                    _ => Spot::Cols { table, width: w, total: w.checked_mul(rows)? },
                }
            }
            RawBuf::SegRows { segs, n_segs, seg_len, writable } => {
                let sl = i64::try_from(seg_len).ok()?;
                if (for_store && !writable) || sl == 0 {
                    return None;
                }
                Spot::Rows {
                    segs,
                    seg_len: sl,
                    total: sl.checked_mul(i64::try_from(n_segs).ok()?)?,
                    // An empty cache: the first trip looks its segment up.
                    seg_lo: 0,
                    seg_ptr: std::ptr::null_mut(),
                }
            }
            _ => return None,
        };
        Some(ViewWalk { walk, n, stride, span, spot })
    }

    /// The view's lanes at trip `t`, every lane checked against the
    /// declared dimension and the bound storage — what `resolve_lanes`
    /// would return with the outer slot at `t`.
    #[inline(always)]
    fn at(&mut self, t: i64, dg: i64) -> Option<Lanes> {
        let off = self.walk.offset(t, dg)?;
        let (stride, span) = (self.stride, self.span);
        match &mut self.spot {
            Spot::Flat { ptr, len } => {
                let flat = self.walk.flat(off)?;
                let end = flat.checked_add(span)?;
                if flat < 0 || flat >= *len || end < 0 || end >= *len {
                    return None;
                }
                debug_assert!((0..*len).contains(&flat) && (0..*len).contains(&end));
                // SAFETY: 0 <= flat < len elements behind `ptr`, and the
                // run's last lane `flat + span` is in range too.
                Some(Lanes::Run { ptr: unsafe { ptr.add(flat as usize) }, stride })
            }
            Spot::Cols { table, width, total } => {
                let flat = self.walk.flat(off)?;
                let end = flat.checked_add(span)?;
                if flat < 0 || flat >= *total || end < 0 || end >= *total {
                    return None;
                }
                debug_assert!((0..*total).contains(&flat) && (0..*total).contains(&end));
                // SAFETY: the run's first and last lane lie inside the
                // binding's `rows × width` elements, checked above.
                unsafe { cols_lanes(*table, *width, flat, self.n, stride) }
            }
            Spot::ColsByRow { table, rows, row0, row_step, row_scale, col0, whole } => {
                let row = row0
                    .checked_add(row_step.checked_mul(t)?)?
                    .checked_add(row_scale.checked_mul(dg)?)?;
                if row < 0 || row >= *rows {
                    return None;
                }
                debug_assert!((0..*rows).contains(&row) && (stride == 0 || stride == 1));
                if stride == 1 && !*whole {
                    return Some(Lanes::Cols { table: *table, row: row as usize, col0: *col0 });
                }
                // SAFETY: col0 < width entries in the table (checked on
                // entry), each pointing at row 0 of a `rows`-row column
                // with row stride `e.stride`, and 0 <= row < rows; the run
                // (`n <= e.rem` lanes, or one element) stays in the segment.
                let ptr = unsafe {
                    let e = &*table.add(*col0);
                    e.ptr.add(row as usize * e.stride as usize)
                };
                Some(Lanes::Run { ptr, stride })
            }
            Spot::Rows { segs, seg_len, total, seg_lo, seg_ptr } => {
                let flat = self.walk.flat(off)?;
                let end = flat.checked_add(span)?;
                if flat < 0 || flat >= *total || end < 0 || end >= *total {
                    return None;
                }
                if seg_ptr.is_null() || flat < *seg_lo || flat - *seg_lo >= *seg_len {
                    let (s, at) = div_rem(flat, *seg_len);
                    *seg_lo = flat - at;
                    debug_assert!(s * *seg_len < *total);
                    // SAFETY: 0 <= flat < n_segs * seg_len (checked above),
                    // so s < n_segs entries in the table.
                    *seg_ptr = unsafe { (*segs.add(s as usize)).ptr };
                }
                let at = flat - *seg_lo;
                let end_at = at + span;
                if end_at < 0 || end_at >= *seg_len {
                    // The run would cross a segment boundary: generic loop.
                    return None;
                }
                debug_assert!((0..*seg_len).contains(&at) && (0..*seg_len).contains(&end_at));
                // SAFETY: 0 <= at < seg_len elements behind the segment,
                // and so is the run's last lane `at + span`.
                Some(Lanes::Run { ptr: unsafe { seg_ptr.add(at as usize) }, stride })
            }
        }
    }
}

/// Per-entry state of a nest past trip 0.
struct Trips<'s> {
    spec: &'s NestSpec,
    lanes: &'s LaneSpec,
    r: Resolved,
    gather: Option<GatherWalk>,
    views: [Option<ViewWalk>; 3],
    coeff: Option<ViewWalk>,
    /// Trip-0 values of `spec.reduce_moves`.
    v0: [i64; MAX_REDUCE_MOVES],
    /// The term has no second operand: `ops[2]` repeats `ops[1]`.
    b_repeats_a: bool,
}

impl<'s> Trips<'s> {
    /// Pin every moving quantity at trip 0, whose lanes `r` holds.
    fn enter(
        spec: &'s NestSpec,
        lanes: &'s LaneSpec,
        fr: &Frame,
        r: Resolved,
    ) -> Option<Trips<'s>> {
        let gather = match &spec.gather {
            Some(g) => Some(GatherWalk::enter(fr, g)?),
            None => None,
        };
        let of = lanes.micro.views();
        let mut views = [None, None, None];
        for k in 0..3 {
            if let (Some(view), Some(drift)) = (of[k], spec.views[k]) {
                views[k] = Some(ViewWalk::enter(fr, view.parts(), drift, (r.n, k == 0), r.at[k])?);
            }
        }
        let coeff = match (spec.coeff, lanes.micro.hoisted(), r.coeff_at) {
            (Some(drift), Some(FloatExpr::Load { buf, index }), Some(found)) => {
                Some(ViewWalk::enter(fr, (*buf, index, 0), drift, (1, false), found)?)
            }
            (None, ..) => None,
            // `classify` only lets a plain load move.
            _ => return None,
        };
        let mut v0 = [0; MAX_REDUCE_MOVES];
        for (v, (slot, ..)) in v0.iter_mut().zip(&spec.reduce_moves) {
            *v = fr.scalars[*slot as usize];
        }
        let b_repeats_a = of[1].is_some() && of[2].is_none();
        Some(Trips { spec, lanes, r, gather, views, coeff, v0, b_repeats_a })
    }

    /// Move to trip `t`: `None` — nothing written — when any walked
    /// quantity leaves its bounds there.
    #[inline(always)]
    fn advance(&mut self, fr: &mut Frame, t: i64) -> Option<()> {
        let dg = match &self.gather {
            Some(g) => g.at(t)?,
            None => 0,
        };
        if !self.spec.reduce_moves.is_empty() {
            for (v0, (slot, step, scale)) in self.v0.iter().zip(&self.spec.reduce_moves) {
                let moved = step.checked_mul(t)?.checked_add(scale.checked_mul(dg)?)?;
                fr.scalars[*slot as usize] = v0.checked_add(moved)?;
            }
            self.r.init = self.lanes.lane_init(fr, self.r.n);
        }
        for (k, view) in self.views.iter_mut().enumerate() {
            if let Some(view) = view {
                self.r.ops[k] = view.at(t, dg)?;
            }
        }
        if self.b_repeats_a {
            self.r.ops[2] = self.r.ops[1];
        }
        if let Some(c) = &mut self.coeff {
            self.r.scalar = c.at(t, dg)?.first();
        }
        Some(())
    }
}

impl NestSpec {
    /// Run trips `0..trips` of the nest around the lane loop `lanes`;
    /// returns how many completed. Fewer than `trips` means trip `done`
    /// met a failed precondition before writing anything: the caller
    /// resumes the generic loop there, with every earlier trip's writes
    /// exactly the generic loop's.
    pub(in crate::exec) fn run(&self, lanes: &LaneSpec, fr: &mut Frame, trips: i64) -> i64 {
        fr.scalars[self.slot as usize] = 0;
        for (slot, value) in &self.pins {
            fr.scalars[*slot as usize] = *value;
        }
        let Ok(n) = lanes.extent.eval(fr) else {
            return 0;
        };
        if n <= 0 {
            // Row-invariant and empty: every trip's lane loop is a no-op.
            return trips;
        }
        // Trip 0 is the lane loop's own prologue, through the tree
        // evaluators; it validates everything row-invariant for the nest.
        let Some(r) = lanes.resolve(fr, n) else {
            return 0;
        };
        // The plain body is licensed by the frame being thread-private.
        let body = LaneBody::of(fr);
        debug_assert_eq!(body == LaneBody::Plain, fr.exclusive);
        if lanes.run(body, &r).is_none() {
            return 0;
        }
        if trips == 1 {
            return 1;
        }
        let Some(mut at) = Trips::enter(self, lanes, fr, r) else {
            return 1;
        };
        for t in 1..trips {
            // Every check of trip `t` happens inside `advance`, before the
            // body's first write.
            if at.advance(fr, t).is_none() || lanes.run(body, &at.r).is_none() {
                return t;
            }
        }
        trips
    }
}
