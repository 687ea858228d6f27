//! Row-nest superinstructions: the fusion unit lifted one loop out.
//!
//! A fused lane loop ([`LaneSpec`]) pays its prologue — iter bindings,
//! init and coefficient evaluation, three index evaluations through
//! expression trees — once per invocation, i.e. once per non-zero of a CSR
//! or ELL row, for quantities that are mostly constant for the whole row.
//! [`build_nest`] plans `for j in 0..extent { lane loop }` — the lowering
//! finds such loops in the stream it just emitted, a `Super` and its
//! fallback being the whole loop body behind nothing but constant binds
//! (what unit-trip loops in between lower to) — in **one walk** over the
//! prologue: the trip count, each iter binding, the flat index of the three
//! lane views, the coefficient (or fill value) and the init value.
//!
//! **One walk, two answers.** [`Planner::lin`] takes each integer quantity
//! apart once, into
//!
//! * its value at trip 0 of an entry, a [`Lin`]: a constant plus constant
//!   multiples of the entry program's registers — enclosing scalar slots,
//!   and `i32` loads at positions linear in earlier registers (`indptr[r]`,
//!   `indptr[r + 1]`, a bucket's row id); and
//! * how it moves with `j`, a [`Move`]: `value(j) = value(0) + step·j +
//!   scale·(g(j) − g(0))`, `step` and `scale` compile-time constants, `g`
//!   the nest's **gather** — one `i32` load at a position that walks by a
//!   constant step (the `indices[indptr[i] + j]` column), from a buffer the
//!   nest does not write.
//!
//! Anything else is no nest: a division, remainder, `min` / `max`,
//! selection, cast or binary search; a moving value times anything but a
//! literal constant; a load at a position that reads the gather, or a
//! second, different gather; a non-constant lane count or index extent; a
//! second moving dimension in one index; more than [`MAX_REGS`] registers.
//! The coefficient is a constant, one `f32` load at such a position, or a
//! moving such load `*` or `/` a factor that holds for the entry — one
//! still load or a constant (a [`Ratio`]); the fill value is a constant or
//! one still load; the init value is a constant. Such a loop stays a loop
//! around its per-non-zero `Super`.
//!
//! **One way in.** What an entry needs splits by when it can change.
//! *Launch-invariant*: where each operand is bound (pointer, length,
//! segment table, width), strides, spans, the lane count, the init and
//! hoisted values — a launch's first entry establishes these
//! ([`Trips::establish`]) and the executor keeps them for the rest of the
//! launch, dropping them when a buffer the nest names is allocated or
//! freed. *Entry-varying*: the trip-0 values the walk produced — trip
//! count, where the gather and each operand start, the reduce iters, a
//! ratio's factor — which make the nest's **entry program**
//! ([`EntryProgram`]): its registers, each loaded and checked against its
//! declared dimension and its bound storage **once**, then every pin a
//! checked linear combination of them. Every entry, the first included,
//! runs that program and re-pins the kept walks ([`NestSpec::reenter`]): no
//! expression tree, no lane prologue. An entry whose walk state cannot be
//! established, or whose program or re-pin fails a check, hands trip 0 to
//! the generic loop behind the instruction before anything of it is
//! written. The row loop *around* a nest is the one exception to "every
//! entry runs its program": a row block ([`block`]) takes the rows itself
//! — the registers loaded row by row, each against an interval the launch
//! solved from these same checks — and enters a row through
//! [`NestSpec::reenter`] only when that row fails one.
//!
//! **Walked trips.** The moving quantities are *walked* from their trip-0
//! pins: per trip one bounds-checked load of the gathered index, one
//! bounds-checked coefficient load, a base add and an interval check per
//! moving view ([`Trips::advance`]), and the unchanged lane bodies. Any
//! precondition failing at trip `t` — before that trip's first write —
//! returns `t`, and the generic loop behind the instruction (with the
//! per-non-zero `Super` inside it) resumes at exactly that trip: errors,
//! their order and the written prefix stay the interpreter's.
//!
//! **Stepped trips.** `advance` re-derives per trip what is fixed for the
//! whole launch: checked `step·t + scale·dg` products, an interval check
//! and a [`Spot`] match per moving view, then the lane op / body / term
//! shape dispatch. So the walk state also picks, once per launch,
//! **one monomorphised trip loop** from a fixed menu ([`super::trip_loops`]:
//! lane op × term shape × "every operand one run" or not), and
//! each entry hands it its trips as [`Cursor`]s ([`Trips::stepped`]):
//! each operand its lanes at trip 0 plus how far a trip and a unit of the
//! gathered value carry them — a pointer add for a [`Lanes::Run`], a row
//! add for a [`Lanes::Cols`]. What `advance` checks per trip is checked per
//! entry: an affine walk at its first and last trip (both ends inside the
//! dimension, the storage and one segment means every trip between is),
//! while the gathered value keeps a per-trip test (and load: none when no
//! operand moves with it) against the entry's
//! *reach* — the interval of values at which every gather-moved operand
//! passes its checks: each operand's own, solved from its own dimension and
//! binding, then intersected.
//! The menu does not
//! cover a binding walked column by column ([`Spot::Cols`]), an operand
//! moving with the trip *and* the gather, more than one moving reduce iter
//! (or one that is not zero at trip 0 under an init that goes by it); and an
//! entry whose range test fails, or a trip whose gathered value leaves the
//! reach, is not an error yet. All of those go trip by trip through
//! `advance`, which hands the generic loop whatever it cannot take — so
//! error text, error order and written prefix stay the interpreter's.

mod block;

pub(in crate::exec) use block::{build_rows, Exit, RowPlan, Solve, Split};

use super::{
    cols_lanes, div_rem, trip_loops, ColSeg, FloatExpr, Frame, IndexExpr, InitKind, IntExpr, IntOp,
    LaneInit, LaneSpec, Lanes, RawBuf, Resolved, TripLoop, Value,
};
use crate::exec::{elem_load, scan_index, ExprInfo, FloatOp, RowSeg};

// ---------------------------------------------------------------------------
// Compile time: one walk plans the nest
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

/// How a quantity moves with the trip `t`:
/// `v(t) = v(0) + step·t + scale·(g(t) − g(0))`, `g` the nest's gather. One
/// that reads the gather moves even under a zero `scale`: the load must
/// succeed at every trip for it to evaluate.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
struct Move {
    step: i64,
    scale: i64,
    gathers: bool,
}

impl Move {
    fn still(self) -> bool {
        self == Move::default()
    }

    /// `self + sign·other`.
    fn plus(self, other: Move, sign: i64) -> Option<Move> {
        Some(Move {
            step: self.step.checked_add(sign.checked_mul(other.step)?)?,
            scale: self.scale.checked_add(sign.checked_mul(other.scale)?)?,
            gathers: self.gathers || other.gathers,
        })
    }

    fn times(self, c: i64) -> Option<Move> {
        Some(Move { step: self.step.checked_mul(c)?, scale: self.scale.checked_mul(c)?, ..self })
    }
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

/// A row nest: `for slot in 0..extent { [pins] lanes }` with how everything
/// the lane prologue evaluates moves, and its entry program. The lane loop
/// itself is the `Super` at `lanes_at` in the same stream.
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
    /// How the coefficient's walked `f32` load moves when it moves; `None`
    /// when the coefficient is row-invariant or absent.
    pub coeff: Option<Drift>,
    /// The walked load is one operand of a [`Ratio`], not the coefficient
    /// itself.
    pub ratio: Option<Ratio>,
    /// What every entry evaluates in place of the prologue's expression
    /// trees.
    pub entry: EntryProgram,
}

/// Plan the lane loop `lanes` against the loop variable `slot` of the loop
/// whose whole body it is (behind the constant binds `pins`), in one walk
/// over its prologue: `Some` when that loop is a row nest — every quantity
/// has a trip-0 value over an entry program's registers and moves in a way
/// the walks follow. The bytecode lowering then replaces the loop's
/// `LoopStart` with the nest, leaving body and back edge as they are.
pub(in crate::exec) fn build_nest(
    lanes: &LaneSpec,
    (slot, extent): (u32, &IntExpr),
    pins: Vec<(u32, i64)>,
    lanes_at: u32,
) -> Option<NestSpec> {
    let IntExpr::Const(n) = lanes.extent else {
        return None;
    };
    if n < 1 || lanes.init.value().is_some_and(|value| !float_static(value)) {
        return None;
    }
    let mut p = Planner::default();
    // The trip count is evaluated outside the nest's scope.
    let (extent_at, _) = p.lin(extent)?;
    let head = p.regs.len();
    // Trip 0, lane 0; the trip moves by one.
    let still = |at| (at, Move::default());
    p.env.push((slot, (Lin::default(), Move { step: 1, ..Move::default() })));
    let zeroed = [Some(lanes.lane_slot), lanes.outer_slot].into_iter().flatten();
    p.env.extend(zeroed.map(|s| (s, still(Lin::default()))));
    p.env.extend(pins.iter().map(|&(s, c)| (s, still(Lin { konst: c, terms: Vec::new() }))));

    let (mut reduce, mut reduce_moves) = (Vec::new(), Vec::new());
    for it in &lanes.iters {
        let (at, moves) = p.lin(&it.binding)?;
        if it.is_reduce {
            reduce.push((it.slot, at.clone()));
            if !moves.still() {
                reduce_moves.push((it.slot, moves.step, moves.scale));
            }
        }
        p.env.push((it.slot, (at, moves)));
    }
    if reduce_moves.len() > MAX_REDUCE_MOVES {
        return None;
    }

    let mut bufs = Vec::new();
    let (mut views, mut entry_views) = ([None; 3], [None, None, None]);
    for (k, view) in lanes.op.views().into_iter().enumerate() {
        if let Some(view) = view {
            let (at, drift, _) = p.index(&view.index)?;
            (views[k], entry_views[k]) = (drift, Some(at));
            bufs.push(view.buf);
        }
    }

    // A hoisted value that is the lane's value itself, not a coefficient.
    let fill = matches!(lanes.op.value, Value::Hoisted(_));
    let (mut coeff, mut entry_coeff, mut ratio, mut factor) = (None, None, None, None);
    match lanes.op.hoisted() {
        // Evaluated once per launch.
        Some(value) if float_static(value) => {}
        // One plain load (a term's coefficient, a fill's value), pinned and
        // walked like a one-lane view; a fill's must not move.
        Some(FloatExpr::Load { buf, index }) => {
            let (at, drift, _) = p.index(index)?;
            if fill && drift.is_some() {
                return None;
            }
            (coeff, entry_coeff) = (drift, Some(at));
            bufs.push(*buf);
        }
        // A moving load over a factor that holds for the entry, in either
        // operand order: whichever side moves is the load.
        Some(FloatExpr::Bin { op: op @ (FloatOp::Mul | FloatOp::Div), lhs, rhs }) if !fill => {
            let mut left = p.clone();
            let (load_first, (load, at, drift, by)) = match left.ratio(lhs, rhs) {
                Some(planned) => {
                    p = left;
                    (true, planned)
                }
                None => (false, p.ratio(rhs, lhs)?),
            };
            (coeff, entry_coeff, ratio) =
                (Some(drift), Some(at), Some(Ratio { op: *op, load_first }));
            bufs.push(load);
            if let Some((buf, at)) = by {
                bufs.push(buf);
                factor = Some((buf, at));
            }
        }
        Some(_) => return None,
        None => {}
    }

    let dst = lanes.op.dst.buf;
    let (gather, entry_gather) = match p.gather.take() {
        Some((buf, index, drift, at, reg)) => {
            // Gathering through the buffer the lanes write would read the
            // nest's own stores.
            let mut reads = ExprInfo::default();
            scan_index(index, &mut reads);
            if buf == dst || reads.bufs.contains(&dst) {
                return None;
            }
            bufs.push(buf);
            (Some(Gather { buf, index: index.clone(), drift }), Some((at, reg)))
        }
        None => (None, None),
    };
    bufs.extend(p.regs.iter().filter_map(|reg| match reg {
        Reg::Load { buf, .. } => Some(*buf),
        Reg::Slot(_) => None,
    }));
    let entry = EntryProgram {
        regs: p.regs,
        extent: extent_at,
        head,
        n,
        gather: entry_gather,
        views: entry_views,
        coeff: entry_coeff,
        factor,
        reduce,
        bufs,
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
        ratio,
        entry,
    })
}

/// A walked coefficient that is more than its load: one moving `f32` load
/// combined by `*` or `/` with a factor that holds for the whole entry (an
/// `f32` load at an entry-linear position, or a constant) — attention's
/// softmax normalization `P[pos] / Sum[i]`, SAGE's degree scaling
/// `Agg[i, k] · Dinv[i]`. A trip computes `load ⊘ factor` in `f32`, in the
/// source's operand order, as the lane prologue does: never through a
/// reciprocal, so the bits stay the interpreter's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::exec) struct Ratio {
    /// `Mul` or `Div`.
    pub op: FloatOp,
    /// The load is the left operand.
    pub load_first: bool,
}

impl Ratio {
    /// The coefficient at a trip whose load read `load`.
    #[inline(always)]
    fn of(self, load: f32, factor: f32) -> f32 {
        let (l, r) = if self.load_first { (load, factor) } else { (factor, load) };
        match self.op {
            FloatOp::Div => l / r,
            _ => l * r,
        }
    }
}

/// The coefficient `c`'s walked load — `c` itself, or the load side of
/// `ratio` — as `(buffer, index)`, and the factor beside it; `None` when
/// there is no such load (a constant).
fn walked(c: &FloatExpr, ratio: Option<Ratio>) -> Option<(u32, &IndexExpr, Option<&FloatExpr>)> {
    let (load, factor) = match (ratio, c) {
        (None, _) => (c, None),
        (Some(r), FloatExpr::Bin { lhs, rhs, .. }) if r.load_first => (&**lhs, Some(&**rhs)),
        (Some(_), FloatExpr::Bin { lhs, rhs, .. }) => (&**rhs, Some(&**lhs)),
        _ => return None,
    };
    let FloatExpr::Load { buf, index } = load else {
        return None;
    };
    Some((*buf, index, factor))
}

// ---------------------------------------------------------------------------
// Entry program (compile time)
// ---------------------------------------------------------------------------

/// Most registers an entry program may have (a fixed array at run time).
const MAX_REGS: usize = 8;

/// `konst + Σ coef · register`: a prologue quantity at trip 0, linear in
/// the entry program's registers. Terms are sorted by register and carry no
/// zero coefficient, so equal values have equal forms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(in crate::exec) struct Lin {
    pub konst: i64,
    pub terms: Vec<(i64, u8)>,
}

impl Lin {
    /// `self + sign·other`.
    fn plus(&self, other: &Lin, sign: i64) -> Option<Lin> {
        let mut terms = self.terms.clone();
        for &(coef, reg) in &other.terms {
            let coef = sign.checked_mul(coef)?;
            match terms.iter_mut().find(|(_, r)| *r == reg) {
                Some((have, _)) => *have = have.checked_add(coef)?,
                None => terms.push((coef, reg)),
            }
        }
        terms.retain(|(coef, _)| *coef != 0);
        terms.sort_by_key(|(_, reg)| *reg);
        Some(Lin { konst: self.konst.checked_add(sign.checked_mul(other.konst)?)?, terms })
    }

    fn times(&self, c: i64) -> Option<Lin> {
        if c == 0 {
            return Some(Lin::default());
        }
        let terms = self.terms.iter().map(|&(coef, reg)| Some((coef.checked_mul(c)?, reg)));
        Some(Lin { konst: self.konst.checked_mul(c)?, terms: terms.collect::<Option<_>>()? })
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.konst)
    }

    /// The value over `regs`; `None` on overflow (the tree evaluators
    /// decide what that means).
    #[inline(always)]
    fn eval(&self, regs: &[i64; MAX_REGS]) -> Option<i64> {
        let mut v = self.konst;
        for &(coef, reg) in &self.terms {
            v = v.checked_add(coef.checked_mul(regs[usize::from(reg)])?)?;
        }
        Some(v)
    }
}

/// An index at trip 0: every dimension's position a [`Lin`], every extent
/// a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(in crate::exec) struct IndexPlan {
    pub dims: Vec<(Lin, i64)>,
}

/// Dimension `dim` of an index as a walk sees it: its extent, how many
/// elements one step of it advances the flat index, and whether it is the
/// innermost one (whose headroom a lane run's span eats into).
#[derive(Clone, Copy)]
struct Reach {
    d: i64,
    coef: i64,
    innermost: bool,
}

impl IndexPlan {
    fn reach(&self, dim: usize) -> Option<Reach> {
        let coef = self.dims[dim + 1..].iter().try_fold(1i64, |c, (_, d)| c.checked_mul(*d))?;
        Some(Reach { d: self.dims[dim].1, coef, innermost: dim + 1 == self.dims.len() })
    }

    /// The drift of an index that does not move with the trip, only from
    /// entry to entry: pinned on its innermost dimension.
    fn still(&self) -> Drift {
        Drift { dim: self.dims.len() - 1, step: 0, scale: 0 }
    }

    /// Where the index lands over `regs`: the flat element and dimension
    /// `moving`'s position. Every other dimension is checked against its
    /// extent here — the innermost one with room for a run of `span`
    /// further elements, as `resolve_lanes` demands; `moving` is left to
    /// the walk's per-trip interval check (pass `usize::MAX` to check all).
    #[inline(always)]
    fn pin(&self, regs: &[i64; MAX_REGS], span: i64, moving: usize) -> Option<(i64, i64)> {
        let last = self.dims.len().wrapping_sub(1);
        let (mut flat, mut i0) = (0i64, 0i64);
        for (k, (at, d)) in self.dims.iter().enumerate() {
            let i = at.eval(regs)?;
            if k == moving {
                i0 = i;
            } else {
                let (lo, hi) = interval(*d, if k == last { span } else { 0 })?;
                if i < lo || i > hi {
                    return None;
                }
            }
            flat = flat.checked_mul(*d)?.checked_add(i)?;
        }
        Some((flat, i0))
    }
}

/// The positions of a dimension of extent `d` from which `span` further
/// elements stay inside it.
#[inline(always)]
fn interval(d: i64, span: i64) -> Option<(i64, i64)> {
    Some((0.max(span.checked_neg()?), (d - 1).min((d - 1).checked_sub(span)?)))
}

/// One register of an entry program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(in crate::exec) enum Reg {
    /// A scalar slot bound outside the nest (an enclosing loop variable).
    Slot(u32),
    /// One `i32` load at a position over earlier registers, checked
    /// against the declared dimensions and the bound storage.
    Load { buf: u32, at: IndexPlan },
}

/// What every entry of a nest evaluates in place of the lane prologue's
/// expression trees: `regs` in order, then every pin as a [`Lin`] (or an
/// [`IndexPlan`] of them) over those.
#[derive(Debug, Clone)]
pub(in crate::exec) struct EntryProgram {
    pub regs: Vec<Reg>,
    /// The nest's trip count, over the first `head` registers: an entry
    /// that has no trips evaluates nothing else (past the last row's
    /// non-zeros there may be nothing to load).
    pub extent: Lin,
    pub head: usize,
    /// The lane count (a constant).
    pub n: i64,
    /// Where the gather starts, and the register holding its trip-0 value
    /// (the load is one of `regs`: what it gathers is used at trip 0 too).
    pub gather: Option<(IndexPlan, u8)>,
    /// Where `dst`, `a`, `b` start; `Some` for every view the op has.
    pub views: [Option<IndexPlan>; 3],
    /// Where the coefficient's walked load reads from, when it has one.
    pub coeff: Option<IndexPlan>,
    /// Where a [`Ratio`]'s factor is loaded from, when it is a load: one
    /// `f32`, checked like the registers.
    pub factor: Option<(u32, IndexPlan)>,
    /// Every reduce iter's trip-0 value (the init decision reads them).
    pub reduce: Vec<(u32, Lin)>,
    /// Every buffer whose binding the kept state depends on.
    pub bufs: Vec<u32>,
}

/// A value no slot and no load can change: evaluated once per launch.
fn float_static(e: &FloatExpr) -> bool {
    match e {
        FloatExpr::Const(_) => true,
        FloatExpr::Bin { lhs, rhs, .. } => float_static(lhs) && float_static(rhs),
        FloatExpr::Exp(v) | FloatExpr::Sqrt(v) | FloatExpr::Relu(v) => float_static(v),
        _ => false,
    }
}

/// What one entry sees of a ratio's walked load: its buffer, where it
/// starts and how it moves, and the factor's buffer and position when the
/// factor is a load.
type RatioPlan = (u32, IndexPlan, Drift, Option<(u32, IndexPlan)>);

/// The walk behind [`build_nest`]: scalar slot → trip-0 [`Lin`] and
/// [`Move`] for the slots the nest binds (a linear scan beats hashing at
/// this size), registers for everything from outside it, and the nest's
/// gather once a quantity reads it.
#[derive(Default, Clone)]
struct Planner<'a> {
    regs: Vec<Reg>,
    env: Vec<(u32, (Lin, Move))>,
    /// The gather's buffer and index, how that index moves, where it starts
    /// and the register holding what it loads at trip 0.
    gather: Option<(u32, &'a IndexExpr, Drift, IndexPlan, u8)>,
}

impl<'a> Planner<'a> {
    /// The register holding `reg`, shared with an equal one already there —
    /// so no position of a buffer is loaded twice.
    fn reg(&mut self, reg: Reg) -> Option<u8> {
        let at = self.regs.iter().position(|r| *r == reg).unwrap_or(self.regs.len());
        if at == self.regs.len() {
            if at == MAX_REGS {
                return None;
            }
            self.regs.push(reg);
        }
        u8::try_from(at).ok()
    }

    /// `e` at trip 0, lane 0, over the registers, and how it moves with the
    /// trip; `None` for anything but constants, slots, sums, constant
    /// multiples, and `i32` loads — at a still position (a register) or at
    /// the gather's.
    fn lin(&mut self, e: &'a IntExpr) -> Option<(Lin, Move)> {
        let of_reg = |reg| (Lin { konst: 0, terms: vec![(1, reg)] }, Move::default());
        match e {
            IntExpr::Const(c) => Some((Lin { konst: *c, terms: Vec::new() }, Move::default())),
            IntExpr::Slot(s) => match self.env.iter().find(|(slot, _)| slot == s) {
                Some((_, bound)) => Some(bound.clone()),
                None => self.reg(Reg::Slot(*s)).map(of_reg),
            },
            IntExpr::Bin { op, lhs, rhs } => {
                let ((l, lm), (r, rm)) = (self.lin(lhs)?, self.lin(rhs)?);
                match (op, &**lhs, &**rhs) {
                    (IntOp::Add, ..) => Some((l.plus(&r, 1)?, lm.plus(rm, 1)?)),
                    (IntOp::Sub, ..) => Some((l.plus(&r, -1)?, lm.plus(rm, -1)?)),
                    (IntOp::Mul, _, IntExpr::Const(c)) => Some((l.times(*c)?, lm.times(*c)?)),
                    (IntOp::Mul, IntExpr::Const(c), _) => Some((r.times(*c)?, rm.times(*c)?)),
                    // Only a literal constant scales a moving value.
                    (IntOp::Mul, ..) if lm.still() && rm.still() => {
                        match (l.as_const(), r.as_const()) {
                            (_, Some(c)) => Some((l.times(c)?, lm)),
                            (Some(c), _) => Some((r.times(c)?, rm)),
                            _ => None,
                        }
                    }
                    _ => None,
                }
            }
            IntExpr::Load { buf, index } => match self.index(index)? {
                (at, None, _) => self.reg(Reg::Load { buf: *buf, at }).map(of_reg),
                // A position walking by a constant step: the gather, the one
                // moving thing whose evaluation can fail (the nest re-checks
                // exactly one such load per trip).
                (at, Some(drift), false) => {
                    let reg = self.reg(Reg::Load { buf: *buf, at: at.clone() })?;
                    match &self.gather {
                        Some((b, ix, ..)) if (*b, *ix) != (*buf, index) => return None,
                        Some(_) => {}
                        None => self.gather = Some((*buf, index, drift, at, reg)),
                    }
                    Some((of_reg(reg).0, Move { step: 0, scale: 1, gathers: true }))
                }
                // A position that reads the gather.
                (_, Some(_), true) => None,
            },
            _ => None,
        }
    }

    /// An index at trip 0, how its one moving dimension moves, and whether
    /// that reads the gather; `None` when an extent is not a constant or
    /// more than one dimension moves.
    fn index(&mut self, ix: &'a IndexExpr) -> Option<(IndexPlan, Option<Drift>, bool)> {
        if ix.dims.is_empty() {
            return None;
        }
        let (mut dims, mut moving, mut gathers) = (Vec::with_capacity(ix.dims.len()), None, false);
        for (dim, (idx, ext)) in ix.dims.iter().enumerate() {
            let IntExpr::Const(d) = ext else {
                return None;
            };
            let (at, m) = self.lin(idx)?;
            if !m.still() {
                if moving.replace(Drift { dim, step: m.step, scale: m.scale }).is_some() {
                    return None;
                }
                gathers = m.gathers;
            }
            dims.push((at, *d));
        }
        Some((IndexPlan { dims }, moving, gathers))
    }

    /// A ratio with `load` the walked side: one `f32` load that moves, and
    /// a `factor` that holds for the entry — one still `f32` load, or a
    /// constant.
    fn ratio(&mut self, load: &'a FloatExpr, factor: &'a FloatExpr) -> Option<RatioPlan> {
        let FloatExpr::Load { buf, index } = load else {
            return None;
        };
        let (at, drift, _) = self.index(index)?;
        let by = match factor {
            FloatExpr::Load { buf, index } => match self.index(index)? {
                (at, None, _) => Some((*buf, at)),
                _ => return None,
            },
            _ if float_static(factor) => None,
            _ => return None,
        };
        Some((*buf, at, drift?, by))
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// One moving index: the interval its moving dimension must stay in and
/// how the flat index follows it (fixed for the launch), and where that
/// dimension and the flat index stand at trip 0 (pinned per entry).
struct Walk {
    drift: Drift,
    lo: i64,
    hi: i64,
    /// Elements the flat index advances per unit of the moving dimension.
    coef: i64,
    i0: i64,
    flat0: i64,
}

impl Walk {
    /// A walk along `drift.dim`, which `reach` describes; a run of `span`
    /// further elements along the innermost dimension must stay inside it,
    /// as `resolve_lanes` demands. Not pinned yet.
    fn new(drift: Drift, reach: Reach, span: i64) -> Option<Walk> {
        let (lo, hi) = interval(reach.d, if reach.innermost { span } else { 0 })?;
        Some(Walk { drift, lo, hi, coef: reach.coef, i0: 0, flat0: 0 })
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

/// The nest's gather: where its `i32` storage is bound, the walk along it,
/// and what it loaded at trip 0.
struct GatherWalk {
    walk: Walk,
    ptr: *mut i32,
    len: i64,
    g0: i64,
}

impl GatherWalk {
    fn new(fr: &Frame, buf: u32, walk: Walk) -> Option<GatherWalk> {
        let RawBuf::I32 { ptr, len } = fr.bufs[buf as usize] else {
            return None;
        };
        Some(GatherWalk { walk, ptr, len: i64::try_from(len).ok()?, g0: 0 })
    }

    /// Where trip `t` loads from, checked against the declared dimension
    /// and the bound storage.
    #[inline(always)]
    fn flat(&self, t: i64) -> Option<i64> {
        let flat = self.walk.flat(self.walk.offset(t, 0)?)?;
        (0..self.len).contains(&flat).then_some(flat)
    }

    /// `g(t) − g(0)`: one checked load.
    #[inline(always)]
    fn at(&self, t: i64) -> Option<i64> {
        let flat = self.flat(t)?;
        debug_assert!((0..self.len).contains(&flat));
        // SAFETY: 0 <= flat < len elements behind `ptr`, checked above; the
        // binding outlives the run.
        Some(i64::from(unsafe { elem_load(self.ptr, flat as usize) }) - self.g0)
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
    /// rows: the column (and so the segment pieces) never change within an
    /// entry, and no trip divides. `row0`, `col0` and `whole` are pinned
    /// per entry.
    ColsByRow {
        table: *const ColSeg,
        width: i64,
        rows: i64,
        row_step: i64,
        row_scale: i64,
        row0: i64,
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

/// The integers `g` with `lo <= base + k·g <= hi`, as an interval (empty
/// when its ends cross); `k != 0`.
fn solve(k: i128, base: i128, (lo, hi): (i128, i128)) -> (i128, i128) {
    // Mirror a negative slope onto a positive one.
    let (k, lo, hi) = if k < 0 { (-k, base - hi, base - lo) } else { (k, lo - base, hi - base) };
    (-(-lo).div_euclid(k), hi.div_euclid(k))
}

/// One walked lane view.
struct ViewWalk {
    walk: Walk,
    n: i64,
    stride: i64,
    spot: Spot,
}

impl ViewWalk {
    /// The half of a view's walk that holds for a whole launch: how `n`
    /// lanes at `stride` land in what `buf` is bound to, walked along the
    /// dimension `reach` describes. `None` for a binding / movement
    /// combination the walk does not cover (the per-non-zero path still
    /// does). Not pinned yet.
    fn new(
        fr: &Frame,
        (buf, stride): (u32, i64),
        drift: Drift,
        (n, for_store): (i64, bool),
        reach: Reach,
    ) -> Option<ViewWalk> {
        let span = stride.checked_mul(n - 1)?;
        let walk = Walk::new(drift, reach, span)?;
        let spot = match fr.bufs[buf as usize] {
            RawBuf::F32 { ptr, len } => Spot::Flat { ptr, len: i64::try_from(len).ok()? },
            RawBuf::SegCols { table, width, rows, writable } => {
                let (w, rows) = (i64::try_from(width).ok()?, i64::try_from(rows).ok()?);
                if (for_store && !writable) || w == 0 || !(0..=1).contains(&stride) {
                    return None;
                }
                debug_assert!(width >= 1);
                // SAFETY: the table has `width >= 1` entries.
                let first = unsafe { *table };
                let one_segment = i64::from(first.rem) == w && i64::from(first.stride) == w;
                // Whole logical rows per step?
                let rows_per = |by: i64| match by {
                    0 => Some(0),
                    by if by == w => Some(1),
                    by => (by % w == 0).then(|| by / w),
                };
                let by = (walk.coef.checked_mul(drift.step)?, walk.coef.checked_mul(drift.scale)?);
                match (rows_per(by.0), rows_per(by.1)) {
                    // One segment as wide as the binding: a row-major
                    // allocation like any whole tensor.
                    _ if one_segment => Spot::Flat { ptr: first.ptr, len: w.checked_mul(rows)? },
                    (Some(row_step), Some(row_scale)) => Spot::ColsByRow {
                        table,
                        width: w,
                        rows,
                        row_step,
                        row_scale,
                        row0: 0,
                        col0: 0,
                        whole: false,
                    },
                    _ => Spot::Cols { table, width: w, total: w.checked_mul(rows)? },
                }
            }
            RawBuf::SegRows { segs, n_segs, seg_len, writable } => {
                let sl = i64::try_from(seg_len).ok()?;
                if (for_store && !writable) || sl == 0 {
                    return None;
                }
                if n_segs == 1 {
                    // One segment is one allocation.
                    // SAFETY: the table has `n_segs` entries.
                    Spot::Flat { ptr: unsafe { (*segs).ptr }, len: sl }
                } else {
                    Spot::Rows {
                        segs,
                        seg_len: sl,
                        total: sl.checked_mul(i64::try_from(n_segs).ok()?)?,
                        // An empty cache: the first trip looks its segment up.
                        seg_lo: 0,
                        seg_ptr: std::ptr::null_mut(),
                    }
                }
            }
            _ => return None,
        };
        Some(ViewWalk { walk, n, stride, spot })
    }

    /// How far a run's last lane is from its first (`new` checked the
    /// product).
    #[inline(always)]
    fn span(&self) -> i64 {
        self.stride * (self.n - 1)
    }

    /// The view moves with the trip; one that does not is pinned at trip 0
    /// of an entry and left alone.
    #[inline(always)]
    fn moves(&self) -> bool {
        self.walk.drift.step != 0 || self.walk.drift.scale != 0
    }

    /// Pin the walk at trip 0: the flat element `flat0`, its moving
    /// dimension at `i0` (interval-checked by the trips, not here).
    #[inline(always)]
    fn pin(&mut self, flat0: i64, i0: i64) -> Option<()> {
        (self.walk.flat0, self.walk.i0) = (flat0, i0);
        let span = self.span();
        if let Spot::ColsByRow { table, width, row0, col0, whole, .. } = &mut self.spot {
            if flat0 < 0 {
                return None;
            }
            let (row, col) = div_rem(flat0, *width);
            if col + span >= *width {
                return None;
            }
            debug_assert!((0..*width).contains(&col));
            // SAFETY: 0 <= col < width entries in the table (`div_rem` of
            // a non-negative flat index by it).
            let rem = unsafe { (*table.add(col as usize)).rem };
            (*row0, *col0, *whole) = (row, col as usize, self.n <= i64::from(rem));
        }
        Some(())
    }

    /// The view's lanes at trip `t`, every lane checked against the
    /// declared dimension and the bound storage — what `resolve_lanes`
    /// would return with the outer slot at `t`.
    #[inline(always)]
    fn at(&mut self, t: i64, dg: i64) -> Option<Lanes> {
        let off = self.walk.offset(t, dg)?;
        let (stride, span) = (self.stride, self.span());
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
            Spot::ColsByRow { table, rows, row_step, row_scale, row0, col0, whole, .. } => {
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
                // SAFETY: col0 < width entries in the table (checked when
                // pinned), each pointing at row 0 of a `rows`-row column
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

impl ViewWalk {
    /// The segment a row-segmented walk last landed in (0 for the other
    /// bindings, which have one).
    fn segment(&self) -> i64 {
        match self.spot {
            Spot::Rows { seg_lo, .. } => seg_lo,
            _ => 0,
        }
    }

    /// The gathered values at which this view — pinned, its moving
    /// dimension `scale·(g − g0)` from there — passes every check
    /// [`ViewWalk::at`] makes, staying in the segment it is pinned in.
    /// `None` when the pin is too far out for `i64`. Trip 0 has passed
    /// `at`, so `g0` is one of them: narrowing the ends to `i32` loses no
    /// gathered value and cannot make an empty reach look inhabited. (A
    /// row block solves this once per launch; a nest entered row by row,
    /// once per entry.)
    #[inline(always)]
    fn reach(&self, g0: i64) -> Option<(i64, i64)> {
        let (w, scale) = (&self.walk, self.walk.drift.scale);
        let at0 = w.i0.checked_sub(scale.checked_mul(g0)?)?;
        // What the binding bounds — a flat element or a logical row — as
        // `base + k·g`, and the interval it must stay in.
        let span = self.span();
        let room = |len: i64| (0.max(-span), (len - 1).min(len - 1 - span));
        let by = w.coef.checked_mul(scale)?;
        let flat = || w.flat0.checked_sub(by.checked_mul(g0)?);
        let (k, base, (lo, hi)) = match self.spot {
            Spot::Flat { len, .. } => (by, flat()?, room(len)),
            Spot::Rows { seg_len, seg_lo, .. } => {
                let (lo, hi) = room(seg_len);
                (by, flat()?, (seg_lo + lo, seg_lo + hi))
            }
            Spot::ColsByRow { rows, row_scale, row0, .. } => {
                (row_scale, row0.checked_sub(row_scale.checked_mul(g0)?)?, (0, rows - 1))
            }
            Spot::Cols { .. } => return None,
        };
        let wide = |(lo, hi): (i64, i64)| (i128::from(lo), i128::from(hi));
        let a = solve(scale.into(), at0.into(), wide((w.lo, w.hi)));
        let b = solve(k.into(), base.into(), wide((lo, hi)));
        let clamp = |g: i128| i64::from(g.clamp(i32::MIN.into(), i32::MAX.into()) as i32);
        let (lo, hi) = (clamp(a.0.max(b.0)), clamp(a.1.min(b.1)));
        debug_assert!((lo..=hi).contains(&g0));
        Some((lo, hi))
    }

    /// This view, pinned, over an entry of `trips` trips as a [`Cursor`]:
    /// its lanes at trip 0 with every check [`ViewWalk::at`] makes; an
    /// affine walk tested once more, at the entry's last trip — both ends
    /// inside the dimension, the storage and one segment means every trip
    /// between is; a gathered one narrowing `reach`, the gathered values
    /// the trips may meet. `None` when a test fails, or the view moves in
    /// a way a cursor does not follow.
    #[inline(always)]
    fn cursor(&mut self, trips: i64, g0: i64, reach: &mut (i64, i64)) -> Option<Cursor> {
        let first = self.at(0, 0)?;
        if !self.moves() || trips == 1 {
            // Nowhere to go from trip 0.
            return Some(Cursor::new(first, 0, 0));
        }
        let Drift { step, scale, .. } = self.walk.drift;
        // What one unit of the flat index — or, by whole rows, of the
        // logical row — carries the cursor: elements of a run, rows of a
        // run cut into column segments.
        let (by, unit) = match (&self.spot, first) {
            (Spot::Flat { .. } | Spot::Rows { .. }, _) => {
                ((self.walk.coef.checked_mul(step)?, self.walk.coef.checked_mul(scale)?), 1)
            }
            (&Spot::ColsByRow { row_step, row_scale, .. }, Lanes::Cols { .. }) => {
                ((row_step, row_scale), 1)
            }
            (&Spot::ColsByRow { table, col0, row_step, row_scale, .. }, Lanes::Run { .. }) => {
                // SAFETY: `pin` checked col0 < width entries in the table.
                ((row_step, row_scale), i64::from(unsafe { (*table.add(col0)).stride }))
            }
            (Spot::Cols { .. }, _) => return None,
        };
        if scale == 0 {
            let segment = self.segment();
            self.at(trips - 1, 0)?;
            if self.segment() != segment {
                return None;
            }
        } else if step == 0 {
            let (lo, hi) = self.reach(g0)?;
            *reach = (reach.0.max(lo), reach.1.min(hi));
        } else {
            return None;
        }
        let (step, gstep) = (by.0.checked_mul(unit)?, by.1.checked_mul(unit)?);
        Some(Cursor::new(first, isize::try_from(step).ok()?, isize::try_from(gstep).ok()?))
    }
}

/// A nest's walk state: the resolved lanes its body reads, and the walks
/// that patch them from trip to trip. Established once per launch
/// ([`Trips::establish`]), kept by the executor, and re-pinned by every
/// entry ([`Trips::repin`]).
pub(in crate::exec) struct Trips {
    r: Resolved,
    gather: Option<GatherWalk>,
    views: [Option<ViewWalk>; 3],
    coeff: Option<ViewWalk>,
    /// The entry's value of a [`Ratio`]'s factor.
    factor: f32,
    /// Trip-0 values of `spec.reduce_moves`.
    v0: [i64; MAX_REDUCE_MOVES],
    /// The term has no second operand: `ops[2]` repeats `ops[1]`.
    b_repeats_a: bool,
    /// The trip loop an entry runs in place of `advance` + the lane body
    /// per trip; `None` when the menu does not cover how this nest's
    /// operands are bound and move.
    stepper: Option<[TripLoop; 2]>,
    /// How far one trip moves along the gather's index slab, in elements.
    gather_step: isize,
    /// What this launch solved for the row block around the nest, if any.
    pub(in crate::exec) rows: Solve,
}

impl Trips {
    /// Everything of the nest's walk state that holds for a whole launch —
    /// where each operand and the gather are bound, the intervals and
    /// strides of their walks, the init and hoisted constants — with the
    /// validation the lane prologue performs on it. Every view
    /// the op has gets a walk (one that does not move with the trip still
    /// moves from entry to entry). Nothing is pinned: [`Trips::repin`]
    /// comes before any trip. `None` for a binding the walks do not cover.
    pub(in crate::exec) fn establish(
        spec: &NestSpec,
        prog: &EntryProgram,
        lanes: &LaneSpec,
        fr: &Frame,
    ) -> Option<Trips> {
        let gather = match (&spec.gather, &prog.gather) {
            (Some(g), Some((at, _))) => {
                Some(GatherWalk::new(fr, g.buf, Walk::new(g.drift, at.reach(g.drift.dim)?, 0)?)?)
            }
            _ => None,
        };
        let walk = |(buf, stride), at: &IndexPlan, drift: Option<Drift>, run| {
            let drift = drift.unwrap_or_else(|| at.still());
            ViewWalk::new(fr, (buf, stride), drift, run, at.reach(drift.dim)?)
        };
        let of = lanes.op.views();
        let mut views = [None, None, None];
        for k in 0..3 {
            if let (Some(view), Some(at)) = (of[k], &prog.views[k]) {
                views[k] =
                    Some(walk((view.buf, view.stride), at, spec.views[k], (prog.n, k == 0))?);
            }
        }
        let (coeff, scalar, factor) = match lanes.op.hoisted() {
            Some(value) => match (walked(value, spec.ratio), &prog.coeff) {
                (Some((buf, _, by)), Some(at)) => {
                    // A constant factor is evaluated here, a loaded one by
                    // every entry.
                    let factor = match by.filter(|_| prog.factor.is_none()) {
                        Some(by) => by.eval(fr).ok()?,
                        None => 0.0,
                    };
                    (Some(walk((buf, 0), at, spec.coeff, (1, false))?), 0.0, factor)
                }
                // A constant (`build_nest` admits nothing else).
                _ => (None, value.eval(fr).ok()?, 0.0),
            },
            None => (None, 0.0, 0.0),
        };
        let init_v = match lanes.init.value() {
            Some(value) => value.eval(fr).ok()?,
            None => 0.0,
        };
        // Placeholders until trip 0 of an entry resolves every operand.
        let unset = Lanes::Run { ptr: std::ptr::null_mut(), stride: 0 };
        let r =
            Resolved { n: prog.n, init: LaneInit::Never, init32: init_v, scalar, ops: [unset; 3] };
        let b_repeats_a = of[1].is_some() && of[2].is_none();
        let mut at = Trips {
            r,
            gather,
            views,
            coeff,
            factor,
            v0: [0; MAX_REDUCE_MOVES],
            b_repeats_a,
            stepper: None,
            gather_step: 0,
            rows: Solve::Unsolved,
        };
        let along =
            |g: &GatherWalk| isize::try_from(g.walk.coef.checked_mul(g.walk.drift.step)?).ok();
        if let (true, Some(gather_step)) =
            (at.steps(spec, lanes), at.gather.as_ref().map_or(Some(0), along))
        {
            // Chosen here, once per launch: a nest keeps its op and term
            // shape.
            at.stepper = Some(trip_loops(lanes));
            at.gather_step = gather_step;
        }
        Some(at)
    }

    /// Pin the kept state at trip 0 of a new entry from the entry
    /// program's registers: the reduce iters and the init decision, where
    /// the gather and every view start. `None` — nothing written but
    /// scalar slots the nest binds — when a position leaves a dimension
    /// the trips do not re-check.
    #[inline(always)]
    pub(in crate::exec) fn repin(
        &mut self,
        spec: &NestSpec,
        prog: &EntryProgram,
        lanes: &LaneSpec,
        fr: &mut Frame,
        regs: &[i64; MAX_REGS],
    ) -> Option<()> {
        for (slot, at) in &prog.reduce {
            fr.scalars[*slot as usize] = at.eval(regs)?;
        }
        for (v, (slot, ..)) in self.v0.iter_mut().zip(&spec.reduce_moves) {
            *v = fr.scalars[*slot as usize];
        }
        self.r.init = lanes.lane_init(fr, self.r.n);
        if let (Some(g), Some((at, reg))) = (&mut self.gather, &prog.gather) {
            (g.walk.flat0, g.walk.i0) = at.pin(regs, 0, g.walk.drift.dim)?;
            g.g0 = regs[usize::from(*reg)];
        }
        let views = self.views.iter_mut().zip(&prog.views).chain([(&mut self.coeff, &prog.coeff)]);
        for (view, at) in views {
            if let (Some(view), Some(at)) = (view, at) {
                let (flat0, i0) = at.pin(regs, view.span(), view.walk.drift.dim)?;
                view.pin(flat0, i0)?;
            }
        }
        if let Some((buf, at)) = &prog.factor {
            let RawBuf::F32 { ptr, len } = fr.bufs[*buf as usize] else {
                return None;
            };
            let (flat, _) = at.pin(regs, 0, usize::MAX)?;
            if flat < 0 || flat >= i64::try_from(len).ok()? {
                return None;
            }
            debug_assert!(usize::try_from(flat).is_ok_and(|f| f < len));
            // SAFETY: 0 <= flat < len elements behind `ptr`, checked above;
            // the binding outlives the run.
            self.factor = unsafe { elem_load(ptr, flat as usize) };
        }
        Some(())
    }

    /// Move to trip `t`: `None` — nothing written — when any walked
    /// quantity leaves its bounds there. Trip 0 resolves every view from
    /// its pin; later trips only those that move.
    #[inline(always)]
    fn advance(&mut self, spec: &NestSpec, lanes: &LaneSpec, fr: &mut Frame, t: i64) -> Option<()> {
        let dg = match &self.gather {
            // At trip 0 the entry program loaded (and checked) `g(0)`.
            Some(g) if t > 0 => g.at(t)?,
            _ => 0,
        };
        if !spec.reduce_moves.is_empty() {
            for (v0, (slot, step, scale)) in self.v0.iter().zip(&spec.reduce_moves) {
                let moved = step.checked_mul(t)?.checked_add(scale.checked_mul(dg)?)?;
                fr.scalars[*slot as usize] = v0.checked_add(moved)?;
            }
            self.r.init = lanes.lane_init(fr, self.r.n);
        }
        for (k, view) in self.views.iter_mut().enumerate() {
            if let Some(view) = view {
                if t == 0 || view.moves() {
                    self.r.ops[k] = view.at(t, dg)?;
                }
            }
        }
        if t == 0 && self.views[1].is_none() {
            // A fill repeats `dst`.
            self.r.ops[1] = self.r.ops[0];
        }
        if (t == 0 && self.views[2].is_none()) || self.b_repeats_a {
            self.r.ops[2] = self.r.ops[1];
        }
        if let Some(c) = &mut self.coeff {
            if t == 0 || c.moves() {
                let load = c.at(t, dg)?.first();
                self.r.scalar = spec.ratio.map_or(load, |r| r.of(load, self.factor));
            }
        }
        Some(())
    }
}

// ---------------------------------------------------------------------------
// The stepped trip loop
// ---------------------------------------------------------------------------

/// One operand over the trips of an entry: its lanes at trip 0, and how far
/// they move per trip and per unit the gathered value is away from trip 0's
/// — elements of a [`Lanes::Run`], logical rows of a [`Lanes::Cols`].
#[derive(Clone, Copy)]
struct Cursor {
    at: Lanes,
    step: isize,
    gstep: isize,
    /// The moves the entry's range tests cover, restated at every trip.
    #[cfg(debug_assertions)]
    room: (isize, isize),
}

impl Cursor {
    fn new(at: Lanes, step: isize, gstep: isize) -> Cursor {
        Cursor {
            at,
            step,
            gstep,
            #[cfg(debug_assertions)]
            room: (0, 0),
        }
    }

    /// Debug builds: note how far the cursor may move over `trips` trips
    /// whose gathered values stay `reach` away from trip 0's.
    #[cfg(debug_assertions)]
    fn covers(&mut self, trips: i64, reach: (i64, i64)) {
        let ends = |by: isize, (lo, hi): (i64, i64)| {
            let (a, b) = (by.saturating_mul(lo as isize), by.saturating_mul(hi as isize));
            (a.min(b).min(0), a.max(b).max(0))
        };
        let (t, g) = (ends(self.step, (0, trips - 1)), ends(self.gstep, reach));
        self.room = (t.0.saturating_add(g.0), t.1.saturating_add(g.1));
    }

    /// The operand's lanes at trip `t`, where the gather loaded `dg` more
    /// than at trip 0. With `SEG` off the cursor is known to be a
    /// [`Lanes::Run`], and so is what comes back — the lane bodies then
    /// compile to their single-piece form.
    ///
    /// # Safety
    /// `t` is a trip of the entry the cursor was made for
    /// ([`ViewWalk::cursor`]) and `dg` comes from a gathered value inside
    /// the reach it narrowed: those tests put every lane at `(t, dg)`
    /// inside the bound storage. Without `SEG`, the cursor is a run.
    #[inline(always)]
    unsafe fn lanes<const SEG: bool>(&self, t: i64, dg: i64) -> Lanes {
        let by = self.step * t as isize + self.gstep * dg as isize;
        #[cfg(debug_assertions)]
        assert!(
            self.room.0 <= by && by <= self.room.1,
            "trip {t}, gather {dg:+}: a move of {by} outside the entry's tested {:?}",
            self.room
        );
        match self.at {
            // SAFETY: the entry's range tests cover this move (the
            // caller's contract, asserted above in debug builds).
            Lanes::Run { ptr, stride } => Lanes::Run { ptr: ptr.offset(by), stride },
            Lanes::Cols { table, row, col0 } if SEG => {
                Lanes::Cols { table, row: row.wrapping_add_signed(by), col0 }
            }
            // SAFETY: without `SEG` the cursor is a run (the caller's
            // contract; `Stepped::all_runs` decides which loop runs).
            Lanes::Cols { .. } => {
                debug_assert!(false, "a segmented cursor in the loop for runs");
                std::hint::unreachable_unchecked()
            }
        }
    }

    fn is_run(&self) -> bool {
        matches!(self.at, Lanes::Run { .. })
    }
}

/// Everything the trips of one entry read, as a monomorphised trip loop
/// ([`TripLoop`]) takes it: filled in per entry by [`Trips::stepped`] once
/// every range test that does not depend on a gathered value has passed.
/// One per launch, shared by its nests: it is an entry's
/// scratch, not something a nest keeps.
pub(in crate::exec) struct Stepped {
    /// Lane count.
    pub(super) n: i64,
    pub(super) init32: f32,
    /// How many trips the entry has.
    trips: i64,
    ops: [Cursor; 3],
    /// The coefficient's load, when it is walked (`walked`) — the
    /// coefficient itself, or with `ratio` its load side, `factor` the
    /// other; else the coefficient is `scalar` at every trip (as is a
    /// fill's value).
    coeff: Cursor,
    walked: bool,
    ratio: Option<Ratio>,
    factor: f32,
    scalar: f32,
    /// The index slab from trip 0's position on, how far a trip moves along
    /// it, what it held at trip 0, and the gathered values every
    /// gather-moved operand stays in bounds at. Null without a gather.
    gather: *mut i32,
    gather_step: isize,
    g0: i64,
    reach: (i64, i64),
}

impl Stepped {
    /// Scratch for one launch: every entry that steps fills it
    /// in ([`Trips::stepped`]) before a trip loop reads it.
    pub(in crate::exec) fn scratch() -> Stepped {
        let nowhere = Cursor::new(Lanes::Run { ptr: std::ptr::null_mut(), stride: 0 }, 0, 0);
        Stepped {
            n: 0,
            init32: 0.0,
            trips: 0,
            ops: [nowhere; 3],
            coeff: nowhere,
            walked: false,
            ratio: None,
            factor: 0.0,
            scalar: 0.0,
            gather: std::ptr::null_mut(),
            gather_step: 0,
            g0: 0,
            reach: (0, 0),
        }
    }

    /// Every operand is one run: the entry takes the loop compiled for
    /// that (`SEG` off).
    fn all_runs(&self) -> bool {
        self.ops.iter().all(Cursor::is_run)
    }

    /// Take the entry's trips: per trip one load of the gathered value and
    /// its test against the entry's reach, a pointer (or row) add per
    /// operand, one coefficient load, and `body` — a lane body over the
    /// trip, its operands and its coefficient. Returns the first trip not
    /// taken: the trip count, or the one whose gathered value left the
    /// reach, before anything of it is written.
    ///
    /// # Safety
    /// This is the entry `self` was made for, nothing was re-bound since,
    /// and `SEG` is on unless [`Stepped::all_runs`].
    #[inline(always)]
    pub(super) unsafe fn walk<const SEG: bool>(
        &self,
        mut body: impl FnMut(i64, [Lanes; 3], f32),
    ) -> i64 {
        for t in 0..self.trips {
            let dg = if self.gather.is_null() {
                0
            } else {
                // SAFETY: the entry tested the gather's position at its
                // first and last trip against the declared dimension and
                // the bound storage; it is affine between.
                let at = self.gather.offset(self.gather_step * t as isize);
                let g = i64::from(elem_load(at, 0));
                if g < self.reach.0 || g > self.reach.1 {
                    return t;
                }
                g - self.g0
            };
            // SAFETY: `t` is a trip of the entry and the gathered value is
            // inside the reach, checked right above.
            let at = [0, 1, 2].map(|k| self.ops[k].lanes::<SEG>(t, dg));
            let c = if self.walked {
                // A coefficient is one element: always a run.
                let load = self.coeff.lanes::<false>(t, dg).first();
                self.ratio.map_or(load, |r| r.of(load, self.factor))
            } else {
                self.scalar
            };
            body(t, at, c);
        }
        self.trips
    }
}

impl Trips {
    /// Does the menu of trip loops cover this nest as it is bound? Every
    /// operand on a binding a cursor follows (not [`Spot::Cols`]), moving
    /// with the trip or with the gather but not both; at most one reduce
    /// iter moving, affinely, and no init decided lane by lane from it.
    fn steps(&self, spec: &NestSpec, lanes: &LaneSpec) -> bool {
        let follows = |view: &ViewWalk| {
            let Drift { step, scale, .. } = view.walk.drift;
            !matches!(view.spot, Spot::Cols { .. }) && (step == 0 || scale == 0)
        };
        let init_by_lane = matches!(lanes.init, InitKind::AtZeroLane { .. });
        self.views.iter().chain([&self.coeff]).flatten().all(follows)
            && match spec.reduce_moves[..] {
                [] => true,
                [(_, _, scale)] => scale == 0 && !init_by_lane,
                _ => false,
            }
    }

    /// The entry's trips as cursors, from the pins [`Trips::repin`] set:
    /// every operand resolved at trip 0 as [`Trips::advance`] would, one
    /// range test per affine walk at the entry's last trip (both ends in
    /// range means every trip between is), and the gathered values the
    /// gather-moved operands can take. `None` — nothing changed but the
    /// walks' caches — when a test fails: `advance` takes the entry trip by
    /// trip and finds out where.
    #[inline(always)]
    fn stepped(
        &mut self,
        spec: &NestSpec,
        lanes: &LaneSpec,
        trips: i64,
        w: &mut Stepped,
    ) -> Option<()> {
        let last = trips - 1;
        let g0 = self.gather.as_ref().map_or(0, |g| g.g0);
        let mut reach = (i64::from(i32::MIN), i64::from(i32::MAX));
        for k in 0..3 {
            w.ops[k] = match &mut self.views[k] {
                Some(view) => view.cursor(trips, g0, &mut reach)?,
                // A fill repeats `dst`, a term without `b` repeats `a`.
                None => w.ops[k.saturating_sub(1)],
            };
        }
        if let Some(c) = &mut self.coeff {
            w.coeff = c.cursor(trips, g0, &mut reach)?;
        }
        w.gather = std::ptr::null_mut();
        if let Some(g) = &self.gather {
            let (first, _) = (g.flat(0)?, g.flat(last)?);
            debug_assert!((0..g.len).contains(&first));
            // A gather no operand moves with needs no per-trip load: its
            // positions are in range (tested just now), and the value the
            // prologue binds from each is read by nothing the trips do
            // (the softmax passes' column iter).
            let walked = self.coeff.is_some().then_some(&w.coeff);
            if w.ops.iter().chain(walked).any(|c| c.gstep != 0) {
                // SAFETY: 0 <= first < len elements behind `ptr`.
                w.gather = unsafe { g.ptr.add(first as usize) };
                (w.g0, w.reach) = (g0, reach);
            }
        }
        if let [(_, step, _)] = spec.reduce_moves[..] {
            // The init fires where every reduce iter is zero: for a moving
            // one that is trip 0 or — not on this path — a later one.
            let zero_later = matches!(lanes.init, InitKind::WhenReduceZero { .. });
            self.v0[0].checked_add(step.checked_mul(last)?)?;
            if zero_later && self.v0[0] != 0 {
                return None;
            }
        }
        (w.n, w.init32, w.scalar, w.trips) = (self.r.n, self.r.init32, self.r.scalar, trips);
        (w.walked, w.ratio, w.factor) = (self.coeff.is_some(), spec.ratio, self.factor);
        w.gather_step = self.gather_step;
        #[cfg(debug_assertions)]
        for cursor in w.ops.iter_mut().chain([&mut w.coeff]) {
            cursor.covers(trips, (reach.0.saturating_sub(g0), reach.1.saturating_sub(g0)));
        }
        Some(())
    }
}

impl EntryProgram {
    /// Evaluate registers `which` in order (every earlier one already is):
    /// each load checked against its declared dimensions and its bound
    /// storage.
    #[inline(always)]
    fn load(
        &self,
        which: std::ops::Range<usize>,
        fr: &Frame,
        regs: &mut [i64; MAX_REGS],
    ) -> Option<()> {
        for (k, reg) in self.regs[which.clone()].iter().enumerate() {
            regs[which.start + k] = match reg {
                Reg::Slot(s) => fr.scalars[*s as usize],
                Reg::Load { buf, at } => {
                    let RawBuf::I32 { ptr, len } = fr.bufs[*buf as usize] else {
                        return None;
                    };
                    let (flat, _) = at.pin(regs, 0, usize::MAX)?;
                    if flat < 0 || flat >= i64::try_from(len).ok()? {
                        return None;
                    }
                    debug_assert!(usize::try_from(flat).is_ok_and(|f| f < len));
                    // SAFETY: 0 <= flat < len elements behind `ptr`,
                    // checked above; the binding outlives the run.
                    i64::from(unsafe { elem_load(ptr, flat as usize) })
                }
            };
        }
        Some(())
    }
}

impl NestSpec {
    /// Enter the nest on the walk state `at` this launch established: run
    /// the entry program `prog`, re-pin, and hand the trips to the nest's
    /// stepped loop (through the scratch `w`); whatever that does not take
    /// — all of them when the nest has none or a range test of the entry
    /// failed, the rest from the trip whose gathered value left the reach —
    /// goes through `advance` trip by trip. Returns how many trips
    /// completed: fewer than the entry's trips means trip `done` met a
    /// failed precondition before writing anything, and the caller resumes
    /// the generic loop there, every earlier trip's writes being exactly
    /// the generic loop's. `None` — nothing written — when the program or
    /// trip 0 fails a check: the caller hands trip 0 to the generic loop.
    pub(in crate::exec) fn reenter(
        &self,
        prog: &EntryProgram,
        lanes: &LaneSpec,
        fr: &mut Frame,
        at: &mut Trips,
        w: &mut Stepped,
    ) -> Option<Taken> {
        let mut regs = [0i64; MAX_REGS];
        prog.load(0..prog.head, fr, &mut regs)?;
        let trips = prog.extent.eval(&regs)?;
        if trips <= 0 {
            return Some(Taken { done: trips, trips, stepped: 0 });
        }
        prog.load(prog.head..prog.regs.len(), fr, &mut regs)?;
        at.repin(self, prog, lanes, fr, &regs)?;
        let mut stepped = 0;
        if let Some(loops) = at.stepper.filter(|_| at.stepped(self, lanes, trips, w).is_some()) {
            // A moving reduce iter is zero at trip 0 only
            // (`Trips::stepped`): where the init goes by it, it fires at no
            // later trip.
            let moved = !self.reduce_moves.is_empty()
                && matches!(lanes.init, InitKind::WhenReduceZero { .. });
            let rest = if moved { LaneInit::Never } else { at.r.init };
            // SAFETY: `w` was made for this entry just now, the loops are
            // those of this nest's lane op on this frame, and the one for
            // runs only is taken when every operand is one.
            stepped = unsafe { loops[usize::from(!w.all_runs())](w, at.r.init, rest) };
        }
        self.finish(lanes, fr, at, (stepped, trips))
    }

    /// The rest of an entry whose first `stepped` trips its trip loop took,
    /// the walk state pinned at its trip 0: those trips' reduce iter left
    /// where `advance` leaves it, and every trip from `stepped` on through
    /// [`NestSpec::trip_by_trip`].
    pub(in crate::exec) fn finish(
        &self,
        lanes: &LaneSpec,
        fr: &mut Frame,
        at: &mut Trips,
        (stepped, trips): (i64, i64),
    ) -> Option<Taken> {
        if let ([(slot, step, _)], true) = (&self.reduce_moves[..], stepped > 0) {
            // Where `advance` leaves it at the last trip taken.
            fr.scalars[*slot as usize] = at.v0[0] + step * (stepped - 1);
        }
        if stepped == trips {
            return Some(Taken { done: trips, trips, stepped });
        }
        self.trip_by_trip(lanes, fr, at, (stepped, trips))
    }

    /// The trips of an entry from `stepped` on — all of them when
    /// the nest has no stepped loop or a range test of the entry turned it
    /// away — through `advance` one by one: trip 0 resolves every operand,
    /// the later ones those that move, and every check of a trip happens
    /// before the body's first write. Out of line: a served launch comes
    /// here for the nests the menu of trip loops does not cover, and the
    /// entry path stays small for those it does.
    #[inline(never)]
    fn trip_by_trip(
        &self,
        lanes: &LaneSpec,
        fr: &mut Frame,
        at: &mut Trips,
        (stepped, trips): (i64, i64),
    ) -> Option<Taken> {
        let mut t = 0;
        while t < trips {
            let taken = t < stepped;
            if at.advance(self, lanes, fr, t).is_none() || (!taken && lanes.run(&at.r).is_none()) {
                let done = t.max(stepped);
                return (done > 0).then_some(Taken { done, trips, stepped });
            }
            t = (t + 1).max(stepped);
        }
        Some(Taken { done: trips, trips, stepped })
    }
}

/// What an entry did: `done` of its `trips` trips completed (the
/// generic loop resumes at trip `done` when fewer), the first `stepped` of
/// them in the nest's monomorphised trip loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::exec) struct Taken {
    pub done: i64,
    pub trips: i64,
    pub stepped: i64,
}

#[cfg(test)]
mod tests {
    use super::solve;

    /// `solve` against brute force over small slopes, bases and bounds of
    /// both signs, and at the ends of `i64` where `i64` arithmetic would
    /// wrap.
    #[test]
    fn solve_is_the_exact_preimage_of_an_interval() {
        for k in [-7i128, -2, -1, 1, 3, 16] {
            for base in [-9i128, 0, 5] {
                for (lo, hi) in [(0i128, 23), (-4, 4), (6, 5), (0, 0)] {
                    let (from, to) = solve(k, base, (lo, hi));
                    for g in -40i128..40 {
                        let inside = (lo..=hi).contains(&(base + k * g));
                        assert_eq!(
                            (from..=to).contains(&g),
                            inside,
                            "{k}·{g} + {base} in {lo}..={hi}"
                        );
                    }
                }
            }
        }
        let (min, max) = (i128::from(i64::MIN), i128::from(i64::MAX));
        assert_eq!(solve(1, min, (0, max)), (-min, max - min));
        assert_eq!(solve(-1, max, (0, 9)), (max - 9, max));
        assert_eq!(solve(max, min, (min, max)), (0, 2));
    }
}
