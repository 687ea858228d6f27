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
//! lane views, the coefficient (or fill value) and the init value. The
//! `for j` may itself be a unit-trip loop, which the lowering keeps as a
//! loop only to plan it this way, when the loop around it is no nest: a
//! width-1 ELL bucket's column loop, whose row loop sees two gathers (row
//! id and column) where the one-trip nest sees one gather and a still
//! load, so its rows run as a block.
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
//! second, different gather; a non-constant lane count, or an index extent
//! that is neither a constant nor, on the outermost dimension, a scalar
//! parameter of the kernel (a launch fixes `nnz`: [`Extent`]); a second
//! moving dimension in one index; more than [`MAX_REGS`] registers.
//! The coefficient is a constant, one `f32` load at such a position, or a
//! moving such load `*` or `/` a factor that holds for the entry — one
//! still load or a constant (a [`Ratio`]); the fill value is a constant or
//! one still load; the init value is a constant. Such a loop stays a loop
//! around its per-non-zero `Super`.
//!
//! **One way in: a block.** What an entry needs splits by when it can
//! change. *Launch-invariant*: where each operand is bound (pointer,
//! length), strides, spans, the lane count, the init and hoisted values,
//! and the trip loop they call for — the first block
//! over the nest in a launch establishes these ([`Trips::establish`]) and
//! the executor keeps them for the rest of the launch, dropping them when
//! a buffer the nest names is allocated or freed. *Entry-varying*: the
//! trip-0 values the walk produced — trip count, where the gather and each
//! operand start, the reduce iters, a ratio's factor — which make the
//! nest's **entry program** ([`EntryProgram`]): registers, and every pin a
//! linear combination of them. A block ([`block`]) runs the entries: the
//! rows of the row loop around the nest, or — for a nest outside any row
//! loop — its one entry. It loads each register, tests it against an
//! interval the launch solved from the checks its loads and pins need, and
//! takes the entry's trips in the trip loop its row loop inlines. An entry
//! whose walk state
//! cannot be established, or that fails a test, goes to the generic loop
//! behind the instruction at trip 0, before anything of it is written; a
//! nest whose one entry does not fit a block is no nest.
//!
//! **Stepped trips.** The trip loop is the lane op's ([`super::TripFn`]),
//! inlined into **one monomorphised row loop** from a fixed menu
//! ([`super::row_loops`]: lane op × term shape × row layout), picked once
//! per launch; a block hands it each entry as [`Cursor`]s: each operand its
//! lanes at trip 0 plus how far a trip and a unit of the gathered value
//! carry them, a pointer add each. An affine walk is tested per entry, at
//! its first and last trip (both ends inside the dimension and the storage
//! means every trip between is), while the
//! gathered value keeps a per-trip test (and load: none when no operand
//! moves with it) against the entry's *reach* — the interval of values at
//! which every gather-moved operand passes its checks, solved once per
//! launch. A trip whose gathered value leaves the reach is not an error
//! yet: the generic loop behind the instruction, with the per-non-zero
//! `Super` inside it, resumes at exactly that trip, so error text, error
//! order and written prefix stay the interpreter's. The menu does not
//! cover an operand moving with the trip *and* the gather, nor more than
//! one moving reduce iter (or one that is not zero at trip 0 under an init
//! that goes by it): such a nest's entries all go to the generic loop.

mod block;

pub(in crate::exec) use block::{build_block, Block, Exit, RowLoops, RowPlan, Solve};

use super::{
    row_loops, FloatExpr, Frame, IndexExpr, InitKind, IntExpr, IntOp, LaneSpec, Lanes, RawBuf,
    Value,
};
use crate::exec::{elem_load, scan_index, ExprInfo, FloatOp};

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
    (lanes_at, params): (u32, u32),
) -> Option<NestSpec> {
    let IntExpr::Const(n) = lanes.extent else {
        return None;
    };
    if n < 1 || lanes.init.value().is_some_and(|value| !float_static(value)) {
        return None;
    }
    let mut p = Planner { params, ..Planner::default() };
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
    fn eval(&self, regs: &[i64]) -> Option<i64> {
        let mut v = self.konst;
        for &(coef, reg) in &self.terms {
            v = v.checked_add(coef.checked_mul(regs[usize::from(reg)])?)?;
        }
        Some(v)
    }
}

/// A dimension's extent in an [`IndexPlan`]: a constant, or a scalar
/// parameter of the kernel (a sparse buffer's `nnz`), fixed for a launch
/// and read by [`block::Block::solve`] once per launch. Only the outermost
/// dimension may have a parameter extent, so no stride is ever a multiple
/// of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::exec) enum Extent {
    Const(i64),
    Param(u32),
}

impl Extent {
    fn konst(self) -> Option<i64> {
        match self {
            Extent::Const(d) => Some(d),
            Extent::Param(_) => None,
        }
    }
}

/// An index at trip 0: every dimension's position a [`Lin`], every extent
/// a constant but the outermost's, which may be a parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(in crate::exec) struct IndexPlan {
    pub dims: Vec<(Lin, Extent)>,
}

impl IndexPlan {
    /// How many elements one step of dimension `dim` advances the flat
    /// index: the product of the (constant) extents inside it.
    fn coef(&self, dim: usize) -> Option<i64> {
        self.dims[dim + 1..].iter().try_fold(1i64, |c, (_, d)| c.checked_mul(d.konst()?))
    }

    /// The drift of an index that does not move with the trip, only from
    /// entry to entry: pinned on its innermost dimension.
    fn still(&self) -> Drift {
        Drift { dim: self.dims.len() - 1, step: 0, scale: 0 }
    }
}

/// The positions of a dimension of extent `d` from which `span` further
/// elements stay inside it.
#[inline(always)]
fn interval(d: i64, span: i64) -> Option<(i64, i64)> {
    let last = d.checked_sub(1)?;
    Some((0.max(span.checked_neg()?), last.min(last.checked_sub(span)?)))
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
    /// The kernel's scalar parameters are its slots `0..params`: written
    /// only by the launch, so an outermost extent may be one.
    params: u32,
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
    /// that reads the gather; `None` when an extent is neither a constant
    /// nor, on the outermost dimension, a parameter, or when more than one
    /// dimension moves.
    fn index(&mut self, ix: &'a IndexExpr) -> Option<(IndexPlan, Option<Drift>, bool)> {
        if ix.dims.is_empty() {
            return None;
        }
        let (mut dims, mut moving, mut gathers) = (Vec::with_capacity(ix.dims.len()), None, false);
        for (dim, (idx, ext)) in ix.dims.iter().enumerate() {
            let d = match *ext {
                IntExpr::Const(d) => Extent::Const(d),
                IntExpr::Slot(s) if dim == 0 && s < self.params => Extent::Param(s),
                _ => return None,
            };
            let (at, m) = self.lin(idx)?;
            if !m.still() {
                if moving.replace(Drift { dim, step: m.step, scale: m.scale }).is_some() {
                    return None;
                }
                gathers = m.gathers;
            }
            dims.push((at, d));
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

/// The nest's gather as a launch binds it: its `i32` storage, and how far
/// one trip moves along it, in elements.
struct GatherWalk {
    ptr: *mut i32,
    len: i64,
    step: isize,
}

/// The integers `g` with `lo <= base + k·g <= hi`, as an interval (empty
/// when its ends cross); `k != 0`.
fn solve(k: i128, base: i128, (lo, hi): (i128, i128)) -> (i128, i128) {
    // Mirror a negative slope onto a positive one.
    let (k, lo, hi) = if k < 0 { (-k, base - hi, base - lo) } else { (k, lo - base, hi - base) };
    (-(-lo).div_euclid(k), hi.div_euclid(k))
}

/// One walked lane view as a launch binds it: how its moving dimension
/// moves (`drift`) and how many elements of the flat index one unit of that
/// dimension is (`coef`), its run of `n` lanes at `stride`, and the flat
/// storage the run lands in.
struct ViewWalk {
    drift: Drift,
    coef: i64,
    n: i64,
    stride: i64,
    ptr: *mut f32,
    len: i64,
}

impl ViewWalk {
    /// How `n` lanes at `stride` land in what `buf` is bound to, walked as
    /// `drift` says. `None` for a binding a block does not cover (the
    /// per-non-zero path still does).
    fn new(
        fr: &Frame,
        (buf, stride): (u32, i64),
        (drift, coef): (Drift, i64),
        (n, for_store): (i64, bool),
    ) -> Option<ViewWalk> {
        stride.checked_mul(n - 1)?;
        let RawBuf::F32 { ptr, len, writable } = fr.bufs[buf as usize] else { return None };
        if for_store && !writable {
            return None;
        }
        Some(ViewWalk { drift, coef, n, stride, ptr, len: i64::try_from(len).ok()? })
    }

    /// How far a run's last lane is from its first (`new` checked the
    /// product).
    #[inline(always)]
    fn span(&self) -> i64 {
        self.stride * (self.n - 1)
    }

    /// The view moves with the trip; one that does not stays where an
    /// entry puts it.
    #[inline(always)]
    fn moves(&self) -> bool {
        self.drift.step != 0 || self.drift.scale != 0
    }
}

/// A nest's walk state: how each operand and the gather are bound, the lane
/// count, the init and hoisted constants, and the row loops picked for
/// them. Established once per launch ([`Trips::establish`]) and kept by the
/// executor, with what the launch solved for the blocks over the nest.
pub(in crate::exec) struct Trips {
    n: i64,
    /// The init value.
    init32: f32,
    /// The hoisted value: a fill's value, a constant coefficient.
    scalar: f32,
    gather: Option<GatherWalk>,
    views: [Option<ViewWalk>; 3],
    coeff: Option<ViewWalk>,
    /// A [`Ratio`]'s factor when it is a constant.
    factor: f32,
    /// The row loops of the nest's lane op, by layout and kind of operand.
    row_loops: RowLoops,
    /// What this launch solved for the blocks over the nest.
    pub(in crate::exec) rows: Solve,
}

impl Trips {
    /// Everything of the nest's walk state that holds for a whole launch —
    /// where each operand and the gather are bound, the strides of their
    /// walks, the init and hoisted constants — with the validation the lane
    /// prologue performs on it, and the row loops (chosen here, once per
    /// launch: a nest keeps its op and term shape). Every view the op has
    /// gets a walk (one that does not move with the trip still moves from
    /// entry to entry). `None` for a binding or a movement the blocks do
    /// not cover: every entry then goes to the generic loop.
    pub(in crate::exec) fn establish(
        spec: &NestSpec,
        prog: &EntryProgram,
        lanes: &LaneSpec,
        fr: &Frame,
    ) -> Option<Trips> {
        let gather = match (&spec.gather, &prog.gather) {
            (Some(g), Some((at, _))) => {
                let RawBuf::I32 { ptr, len, .. } = fr.bufs[g.buf as usize] else {
                    return None;
                };
                let step = at.coef(g.drift.dim)?.checked_mul(g.drift.step)?;
                let len = i64::try_from(len).ok()?;
                Some(GatherWalk { ptr, len, step: isize::try_from(step).ok()? })
            }
            _ => None,
        };
        let walk = |(buf, stride), at: &IndexPlan, drift: Option<Drift>, run| {
            let drift = drift.unwrap_or_else(|| at.still());
            ViewWalk::new(fr, (buf, stride), (drift, at.coef(drift.dim)?), run)
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
        let init32 = match lanes.init.value() {
            Some(value) => value.eval(fr).ok()?,
            None => 0.0,
        };
        let at = Trips {
            n: prog.n,
            init32,
            scalar,
            gather,
            views,
            coeff,
            factor,
            row_loops: row_loops(lanes),
            rows: Solve::Unsolved,
        };
        at.steps(spec, lanes).then_some(at)
    }

    /// Do the menu's trip loops cover this nest as it is bound? Every
    /// operand moving with the trip or with the gather but not both; at
    /// most one reduce iter moving, affinely, and no init decided lane by
    /// lane from it.
    fn steps(&self, spec: &NestSpec, lanes: &LaneSpec) -> bool {
        let follows = |view: &ViewWalk| view.drift.step == 0 || view.drift.scale == 0;
        let init_by_lane = matches!(lanes.init, InitKind::AtZeroLane { .. });
        self.views.iter().chain([&self.coeff]).flatten().all(follows)
            && match spec.reduce_moves[..] {
                [] => true,
                [(_, _, scale)] => scale == 0 && !init_by_lane,
                _ => false,
            }
    }
}

// ---------------------------------------------------------------------------
// The stepped trip loop
// ---------------------------------------------------------------------------

/// One operand over the trips of an entry: its lanes at trip 0, and how many
/// elements they move per trip and per unit the gathered value is away from
/// trip 0's.
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
    /// than at trip 0.
    ///
    /// # Safety
    /// `t` is a trip of the entry the cursor was aimed for and `dg` comes
    /// from a gathered value inside the reach the block solved: those tests
    /// put every lane at `(t, dg)` inside the bound storage.
    #[inline(always)]
    unsafe fn lanes(&self, t: i64, dg: i64) -> Lanes {
        let by = self.step * t as isize + self.gstep * dg as isize;
        #[cfg(debug_assertions)]
        assert!(
            self.room.0 <= by && by <= self.room.1,
            "trip {t}, gather {dg:+}: a move of {by} outside the entry's tested {:?}",
            self.room
        );
        // SAFETY: the entry's range tests cover this move (the caller's
        // contract, asserted above in debug builds).
        Lanes { ptr: self.at.ptr.offset(by), stride: self.at.stride }
    }
}

/// Everything the trips of one entry read, as a lane op's trip loop
/// ([`super::TripFn`]) takes it: filled in by a block ([`block`]) for each entry
/// once every test of the entry has passed. One per launch, shared by its
/// nests: it is an entry's scratch, not something a nest keeps.
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
    /// gather-moved operand stays in bounds at. Null when no operand moves
    /// with a gather.
    gather: *mut i32,
    gather_step: isize,
    g0: i64,
    reach: (i64, i64),
}

impl Stepped {
    /// Scratch for one launch: every entry a block takes fills it in before
    /// a trip loop reads it.
    pub(in crate::exec) fn scratch() -> Stepped {
        let nowhere = Cursor::new(Lanes { ptr: std::ptr::null_mut(), stride: 0 }, 0, 0);
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

    /// Take the entry's trips: per trip one load of the gathered value and
    /// its test against the entry's reach, a pointer add per operand, one
    /// coefficient load, and `body` — a lane body over the trip, its
    /// operands and its coefficient. Returns the first trip not taken: the
    /// trip count, or the one whose gathered value left the reach, before
    /// anything of it is written.
    ///
    /// # Safety
    /// This is the entry `self` was filled in for, and nothing was
    /// re-bound since.
    #[inline(always)]
    pub(super) unsafe fn walk(&self, mut body: impl FnMut(i64, [Lanes; 3], f32)) -> i64 {
        for t in 0..self.trips {
            let dg = if self.gather.is_null() {
                0
            } else {
                // SAFETY: the block tested the gather's position at the
                // entry's first and last trip against the declared
                // dimension and the bound storage; it is affine between.
                let at = self.gather.offset(self.gather_step * t as isize);
                let g = i64::from(elem_load(at, 0));
                if g < self.reach.0 || g > self.reach.1 {
                    return t;
                }
                g - self.g0
            };
            // SAFETY: `t` is a trip of the entry and the gathered value is
            // inside the reach, checked right above.
            let at = [0, 1, 2].map(|k| self.ops[k].lanes(t, dg));
            let c = if self.walked {
                let load = self.coeff.lanes(t, dg).first();
                self.ratio.map_or(load, |r| r.of(load, self.factor))
            } else {
                self.scalar
            };
            body(t, at, c);
        }
        self.trips
    }
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
