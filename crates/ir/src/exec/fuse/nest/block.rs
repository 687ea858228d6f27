//! Row blocks: the row loop around a nest, run in Rust — and a nest outside
//! any row loop, run as a block of one entry.
//!
//! The paper lowers a compressed axis to `for j in indptr[i]..indptr[i+1]`
//! (§3.3). Consecutive rows of the loop around it share a bound, and what a
//! row's entry tests is known before the launch: every register of the
//! nest's [`EntryProgram`](super::EntryProgram) is the row, a slot the row
//! loop does not write, an `i32` load at a position affine in the row (`indptr[i]`,
//! `indptr[i + 1]`, a bucket's row id) or at a constant plus a multiple of
//! one earlier load (the gather's trip-0 column), and every pin is a
//! constant plus at most one of them.
//!
//! [`build_block`] plans such a loop at compile time ([`Block`], inside a
//! [`RowPlan`]): where each register comes from — a load of `indptr[i]`
//! that the previous row made as `indptr[i + 1]` **rolls** over instead of
//! loading again — and every test an entry makes, as `lo <= konst + coef·v
//! <= hi` over one variable `v` ([`Form`]). A nest that heads no row loop's
//! body is planned the same way, as a block of one entry whose every slot
//! register is fixed. At launch, [`Trips`]' walks being established, the
//! tests over a loaded register are **solved** once into an interval of its
//! values ([`solve`]); a test over the row is affine in it, so a block
//! checks it at its first and last row only. A row of the block then has
//! its registers, compares each against its interval, computes every
//! cursor's first lane as `base + k·v` and takes its trips — no bytecode
//! dispatch, no expression tree.
//!
//! **One compiled row loop per layout and lane op.** The rows run in
//! [`rows`], monomorphised over how a row has its registers ([`Layout`])
//! and over the lane op's trip loop ([`TripFn`]), which it inlines; a
//! launch picks the instance once per nest ([`RowLoops`]), so a row matches
//! nothing that a launch fixes. Two layouts:
//!
//! * [`Csr`], for a block whose rows are CSR rows ([`CsrRegs`]): the head
//!   has one `i32` load one row on (`next`, `indptr[i + 1]`) and one
//!   register rolling over from it (`cur`, `indptr[i]`), the trip count is
//!   exactly `next − cur`, at most one register is gathered at `konst +
//!   coef·cur` (`col`, the trip-0 column), every other register is the
//!   row or a fixed slot, and every aim is over the row, `cur`, `col` or
//!   nothing. A row keeps all three in locals: one `indptr` load, the
//!   rolled `cur`, one column load and three interval compares. Every
//!   served CSR row loop has this shape — SpMM whole and on views, one-head
//!   SDDMM, attention's five passes and SAGE's gather.
//! * [`Planned`], for any block: every register in an array, loaded,
//!   rolled or read per its [`Source`] and tested in program order — SAGE's
//!   dense transform, `hyb`'s buckets and init nest, blocks of one entry.
//!
//! Everything else — [`Block::begin`], the counting, the aims, the trip
//! call and every [`Exit`] — is written once, for both.
//!
//! A block, row or trip that fails any test is not an error here: the
//! block hands the loop, at that row and trip, to the generic loop lowered
//! behind the nest ([`Exit`]) — so error text, error order and written
//! prefix stay the interpreter's. A loop that does not fit the plan is no
//! block; a nest whose one entry does not fit it is no nest.

use super::{
    interval, solve, Cursor, Drift, EntryProgram, Extent, IndexPlan, Lin, NestSpec, Reg, Stepped,
    Trips, MAX_REGS,
};
use crate::exec::fuse::{InitKind, LaneInit, LaneSpec, Lanes, TripFn};
use crate::exec::{elem_load, Frame, IntExpr, NestCounts, RawBuf};

// ---------------------------------------------------------------------------
// Compile time
// ---------------------------------------------------------------------------

/// What a [`Form`] varies with inside one entry of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::exec) enum Var {
    /// Nothing: fixed for the block.
    Fixed,
    /// The row.
    Row,
    /// A loaded register of the entry program.
    Reg(u8),
}

/// `base + coef·v` over one [`Var`] `v`, `base` a [`Lin`] over registers
/// fixed for a block ([`Source::Outer`]) — none when `v` is a loaded
/// register, whose tests are solved once per launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(in crate::exec) struct Form {
    pub base: Lin,
    pub coef: i64,
    pub var: Var,
}

impl Form {
    /// `lin` over the registers `sources` says, when it has at most one
    /// varying term.
    fn of(lin: &Lin, sources: &[Source]) -> Option<Form> {
        let mut form =
            Form { base: Lin { konst: lin.konst, terms: Vec::new() }, coef: 0, var: Var::Fixed };
        for &(coef, reg) in &lin.terms {
            let var = match sources[usize::from(reg)] {
                Source::Outer(_) => {
                    form.base.terms.push((coef, reg));
                    continue;
                }
                Source::Row => Var::Row,
                _ => Var::Reg(reg),
            };
            if form.var != Var::Fixed {
                return None;
            }
            (form.coef, form.var) = (coef, var);
        }
        // A loaded register's tests are solved before any block is entered.
        if matches!(form.var, Var::Reg(_)) && !form.base.terms.is_empty() {
            return None;
        }
        Some(form)
    }
}

/// Where a register of the nest's entry program comes from in a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(in crate::exec) enum Source {
    /// The row loop's variable.
    Row,
    /// A scalar slot the row loop does not write (an enclosing loop's
    /// variable, a constant bind in front of the nest): read once a block.
    Outer(u32),
    /// An `i32` load at a position affine in the row. `rolls` names the
    /// head register that loaded this position one row earlier
    /// (`indptr[i]` is the previous row's `indptr[i + 1]`): every row of a
    /// block but its first takes that value instead of loading.
    Load { buf: u32, at: Form, rolls: Option<u8> },
    /// An `i32` load at a constant plus a multiple of an earlier loaded
    /// register (the gather's value at trip 0); its position is tested as
    /// that register's interval.
    Gathered { buf: u32, at: Form },
}

/// Where a test's interval comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::exec) enum Bound {
    /// A declared dimension of constant extent: known at compile time.
    Dim(i64, i64),
    /// A declared dimension whose extent is the kernel parameter in slot
    /// `.0`, from which a run of `.1` further elements must stay inside
    /// it: read once per launch.
    Param(u32, i64),
    /// The storage an operand ([`GATHER`] … [`FACTOR`]) is bound to.
    Storage(u8),
    /// The `i32` storage register `.0` loads from.
    Len(u8),
}

/// The operands of an entry, by their index in a block's tables.
const GATHER: usize = 0;
const COEFF: usize = 4;
const FACTOR: usize = 5;
const OPERANDS: usize = 6;

/// One test a row's entry makes: `form` inside `bound`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(in crate::exec) struct Probe {
    pub form: Form,
    pub bound: Bound,
}

/// A row loop whose whole body is one row nest, planned as a block:
/// `for slot in 0..extent { [pins] nest }`.
#[derive(Debug, Clone)]
pub(in crate::exec) struct RowPlan {
    pub slot: u32,
    pub extent: IntExpr,
    /// Stream address of the nest.
    pub nest_at: u32,
    pub block: Block,
}

/// What a block of entries of one nest loads and tests: the rows of a
/// [`RowPlan`], or the one entry of a nest outside any row loop.
#[derive(Debug, Clone)]
pub(in crate::exec) struct Block {
    /// Constant binds in front of the nest.
    pins: Vec<(u32, i64)>,
    /// Per register of the nest's entry program.
    sources: Vec<Source>,
    /// Where each operand starts at trip 0 — the gather, `dst`, `a`, `b`,
    /// the coefficient's walked load, a ratio's loaded factor.
    aims: [Option<Form>; OPERANDS],
    /// Every test of an entry with trips. One over the row is made at a
    /// block's first and last row (and covers its head loads); one over a
    /// loaded register is part of that register's interval.
    probes: Vec<Probe>,
    /// The registers of a CSR row, when the block's rows have that shape:
    /// its rows then run on the [`Csr`] layout, else on [`Planned`].
    csr: Option<CsrRegs>,
}

/// The registers of a CSR row, by their index in the entry program:
/// `next`, the `i32` load one row on (`indptr[i + 1]`); `cur`, the one that
/// rolls over from it (`indptr[i]`); and `col`, the gathered column at
/// `konst + coef·cur`, when there is one.
#[derive(Debug, Clone, Copy)]
pub(in crate::exec) struct CsrRegs {
    next: u8,
    cur: u8,
    col: Option<u8>,
}

impl CsrRegs {
    /// The CSR registers of a block whose registers come from `sources`,
    /// over the entry program `prog` with the operand aims `aims`: the head
    /// holds one load (`next`) and one register rolling over from it
    /// (`cur`) besides the row's own slots, the trip count is exactly
    /// `next − cur`, at most one register is gathered at `konst +
    /// coef·cur` (`col`), every other register is the row or a fixed
    /// slot, and every aim is over the row, `cur`, `col` or nothing.
    fn of(prog: &EntryProgram, sources: &[Source], aims: &[Option<Form>]) -> Option<CsrRegs> {
        let head = &sources[..prog.head];
        let mut loads = (0..head.len()).filter(|&k| matches!(head[k], Source::Load { .. }));
        let (a, b) = (loads.next()?, loads.next()?);
        if loads.next().is_some() {
            return None;
        }
        let rolls_from = |k: usize, from: usize| match head[k] {
            Source::Load { rolls: Some(r), .. } => usize::from(r) == from,
            _ => false,
        };
        let (next, cur) = if rolls_from(b, a) {
            (a, b)
        } else if rolls_from(a, b) {
            (b, a)
        } else {
            return None;
        };
        let (next, cur) = (u8::try_from(next).ok()?, u8::try_from(cur).ok()?);
        let mut terms = vec![(1, next), (-1, cur)];
        terms.sort_by_key(|(_, reg)| *reg);
        if prog.extent != (Lin { konst: 0, terms }) {
            return None;
        }
        let mut col = None;
        for (k, source) in sources.iter().enumerate() {
            match source {
                Source::Row if k < prog.head => {}
                Source::Outer(_) => {}
                Source::Load { .. } if k < prog.head => {}
                Source::Gathered { at, .. } if at.var == Var::Reg(cur) && col.is_none() => {
                    col = Some(u8::try_from(k).ok()?);
                }
                _ => return None,
            }
        }
        let regs = CsrRegs { next, cur, col };
        let gather = prog.gather.as_ref().map(|&(_, g)| Var::Reg(g));
        let vars = aims.iter().flatten().map(|form| form.var).chain(gather);
        vars.map(|var| regs.sel(var)).all(|sel| sel.is_some()).then_some(regs)
    }

    /// Where a row of the [`Csr`] layout keeps `var`: `[t, cur, col, 0]`.
    fn sel(self, var: Var) -> Option<u8> {
        match var {
            Var::Row => Some(0),
            Var::Reg(r) if r == self.cur => Some(1),
            Var::Reg(r) if Some(r) == self.col => Some(2),
            Var::Fixed => Some(3),
            Var::Reg(_) => None,
        }
    }
}

impl IndexPlan {
    /// The flat element, as a [`Lin`]; `None` on overflow. The outermost
    /// extent multiplies nothing.
    fn flat(&self) -> Option<Lin> {
        let ((first, _), inner) = self.dims.split_first()?;
        let first = Lin::default().plus(first, 1)?;
        inner.iter().try_fold(first, |flat, (at, d)| flat.times(d.konst()?)?.plus(at, 1))
    }
}

/// Plan the block over the nest `spec` that the row loop over the slot
/// `row` makes of its body — behind the constant binds `pins`, `outer(s)`
/// saying whether the loop's body leaves slot `s` alone — or, with no row
/// loop, the block of the nest's one entry. `None` when a register, pin or
/// test does not fit a block: the loop stays a loop.
pub(in crate::exec) fn build_block(
    (spec, lanes): (&NestSpec, &LaneSpec),
    row: Option<u32>,
    pins: Vec<(u32, i64)>,
    outer: impl Fn(u32) -> bool,
) -> Option<Block> {
    let prog = &spec.entry;
    let mut sources: Vec<Source> = Vec::with_capacity(prog.regs.len());
    for (k, reg) in prog.regs.iter().enumerate() {
        let source = match reg {
            Reg::Slot(s) if Some(*s) == row => Source::Row,
            Reg::Slot(s) if outer(*s) => Source::Outer(*s),
            Reg::Slot(_) => return None,
            Reg::Load { buf, at } => {
                let at = Form::of(&at.flat()?, &sources)?;
                match at.var {
                    // Not loaded for an entry without trips.
                    Var::Reg(_) if k < prog.head => return None,
                    Var::Reg(_) => Source::Gathered { buf: *buf, at },
                    _ => Source::Load { buf: *buf, at, rolls: None },
                }
            }
        };
        sources.push(source);
    }
    // `indptr[i]` rolls over from the previous row's `indptr[i + 1]`: the
    // same buffer at the position one row further on, loaded by every row.
    // No chains: a register rolls over from one that loads.
    for b in 0..prog.head {
        let Source::Load { buf, at, rolls: None } = &sources[b] else { continue };
        if at.var != Var::Row || at.coef == 0 || rolled_from(&sources, b) {
            continue;
        }
        let ahead = Lin { konst: at.base.konst.checked_add(at.coef)?, ..at.base.clone() };
        let from = (0..prog.head).find(|&a| {
            matches!(&sources[a], Source::Load { buf: other, at: o, rolls: None }
                if other == buf && a != b && o.var == Var::Row && o.coef == at.coef
                    && o.base == ahead)
        });
        if let (Some(a), Source::Load { rolls, .. }) = (from, &mut sources[b]) {
            *rolls = u8::try_from(a).ok();
        }
    }
    // A block takes the init decision of its first entry for every row.
    if prog.reduce.iter().any(|(_, at)| at.as_const().is_none()) {
        return None;
    }

    let mut p = Probes { sources: &sources, extent: &prog.extent, probes: Vec::new() };
    for (k, source) in sources.iter().enumerate() {
        if let (Source::Load { .. } | Source::Gathered { .. }, Reg::Load { at, .. }) =
            (source, &prog.regs[k])
        {
            p.index(at, 0, None, Bound::Len(u8::try_from(k).ok()?))?;
        }
    }
    let mut aims: [Option<Form>; OPERANDS] = Default::default();
    if let (Some(g), Some((at, _))) = (&spec.gather, &prog.gather) {
        p.index(at, 0, Some(g.drift), Bound::Storage(GATHER as u8))?;
        aims[GATHER] = Some(Form::of(&at.flat()?, &sources)?);
    }
    let lanes_views = spec.views.iter().zip(&prog.views).enumerate();
    for (k, (drift, at)) in lanes_views {
        if let Some(at) = at {
            let stride = lanes.op.views()[k].map_or(0, |v| v.stride);
            let span = stride.checked_mul(prog.n - 1)?;
            let drift = drift.unwrap_or_else(|| at.still());
            p.index(at, span, Some(drift), Bound::Storage(1 + k as u8))?;
            aims[1 + k] = Some(Form::of(&at.flat()?, &sources)?);
        }
    }
    if let Some(at) = &prog.coeff {
        let drift = spec.coeff.unwrap_or_else(|| at.still());
        p.index(at, 0, Some(drift), Bound::Storage(COEFF as u8))?;
        aims[COEFF] = Some(Form::of(&at.flat()?, &sources)?);
    }
    if let Some((_, at)) = &prog.factor {
        p.index(at, 0, None, Bound::Storage(FACTOR as u8))?;
        aims[FACTOR] = Some(Form::of(&at.flat()?, &sources)?);
    }
    let probes = p.probes;
    let csr = CsrRegs::of(prog, &sources, &aims);
    Some(Block { pins, sources, aims, probes, csr })
}

/// Some register rolls over from register `a`.
fn rolled_from(sources: &[Source], a: usize) -> bool {
    sources.iter().any(|s| matches!(s, Source::Load { rolls: Some(r), .. } if usize::from(*r) == a))
}

/// The tests of an entry with trips, gathered.
struct Probes<'a> {
    sources: &'a [Source],
    /// The nest's trip count at an entry.
    extent: &'a Lin,
    probes: Vec<Probe>,
}

impl Probes<'_> {
    fn probe(&mut self, lin: &Lin, bound: Bound) -> Option<()> {
        self.probes.push(Probe { form: Form::of(lin, self.sources)?, bound });
        Some(())
    }

    /// The tests of a position `at` whose run is `span` elements long,
    /// bound as `storage` says: every dimension at trip 0 (the innermost
    /// with room for the run), and — when `walk` moves it with the trip —
    /// the moving dimension and the flat element at the entry's last trip
    /// too. A walk with the gathered value is tested through the gather's
    /// register, whose interval then is the entry's reach.
    fn index(
        &mut self,
        at: &IndexPlan,
        span: i64,
        walk: Option<Drift>,
        storage: Bound,
    ) -> Option<()> {
        // The dimension the walk moves along with the trip, and its step.
        let last = walk.filter(|d| d.step != 0).map(|d| (d.dim, d.step));
        let innermost = at.dims.len() - 1;
        for (k, (lin, d)) in at.dims.iter().enumerate() {
            let run = if k == innermost { span } else { 0 };
            let bound = match *d {
                Extent::Const(d) => {
                    let (lo, hi) = interval(d, run)?;
                    Bound::Dim(lo, hi)
                }
                Extent::Param(slot) => Bound::Param(slot, run),
            };
            self.probe(lin, bound)?;
            if let Some((_, step)) = last.filter(|(dim, _)| *dim == k) {
                self.probe(&self.at_last(lin, step)?, bound)?;
            }
        }
        let flat = at.flat()?;
        self.probe(&flat, storage)?;
        if let Some((dim, step)) = last {
            self.probe(&self.at_last(&flat, at.coef(dim)?.checked_mul(step)?)?, storage)?;
        }
        Some(())
    }

    /// `lin` at the entry's last trip, moving `by` a trip.
    fn at_last(&self, lin: &Lin, by: i64) -> Option<Lin> {
        let trips = self.extent.plus(&Lin { konst: 1, terms: Vec::new() }, -1)?;
        lin.plus(&trips.times(by)?, 1)
    }
}

// ---------------------------------------------------------------------------
// Launch time
// ---------------------------------------------------------------------------

/// What a launch solved for the blocks over a nest: each loaded register's
/// interval, and the init decision every row shares. A pure function of the
/// nest and its bindings — every block over the nest plans the same tests
/// over its loaded registers — so whichever block asks first solves it.
#[derive(Clone, Copy)]
pub(in crate::exec) enum Solve {
    /// Not yet.
    Unsolved,
    /// The bindings do not fit a block in this launch.
    Unfit,
    Ready(Solved),
}

/// Each loaded register's interval, and the init decision every row
/// shares: at trip 0 (`first`) and at every later trip (`rest`).
#[derive(Clone, Copy)]
pub(in crate::exec) struct Solved {
    regs: [(i32, i32); MAX_REGS],
    first: LaneInit,
    rest: LaneInit,
}

/// How a block ended ([`Block::run`]).
pub(in crate::exec) enum Exit {
    /// Every row is done.
    Done,
    /// The block could not be entered: the loop runs as a loop, the nest
    /// of a block of one entry as its generic loop.
    Plain,
    /// Row `row`'s trips from `done` on — of `trips`, when a block got as
    /// far as counting them — go to the generic loop behind the nest, and
    /// every later row through the loop body: nothing of trip `done` is
    /// written.
    Handover { row: i64, done: i64, trips: Option<i64> },
}

/// Where an operand's run starts over one entry, less its register's
/// part: lanes `at` at `v = 0`, moving `per` elements per unit of `v`, the
/// value a row's [`Layout`] keeps at `sel`.
#[derive(Clone, Copy)]
struct Aim {
    at: Lanes,
    per: isize,
    sel: u8,
}

impl Aim {
    /// The lanes at `v`. Only called once the tests passed: the result is
    /// inside the bound storage.
    #[inline(always)]
    fn lanes(&self, v: i64) -> Lanes {
        let by = self.per.wrapping_mul(v as isize);
        Lanes { ptr: self.at.ptr.wrapping_offset(by), stride: self.at.stride }
    }
}

/// An `i32` or `f32` element at `base + per·v`, `v` the value a row's
/// [`Layout`] keeps at `sel`.
#[derive(Clone, Copy)]
struct Elem<T> {
    base: *mut T,
    per: isize,
    sel: u8,
}

impl<T: Copy> Elem<T> {
    /// `base` at the block's fixed registers `regs`, of the storage at
    /// `ptr`; `None` when a term overflows.
    fn of(ptr: *mut T, form: &Form, regs: &[i64], sel: u8) -> Option<Elem<T>> {
        let base = ptr.wrapping_offset(isize::try_from(form.base.eval(regs)?).ok()?);
        Some(Elem { base, per: isize::try_from(form.coef).ok()?, sel })
    }

    #[inline(always)]
    fn at(&self, v: i64) -> *mut T {
        self.base.wrapping_offset(self.per.wrapping_mul(v as isize))
    }

    /// # Safety
    /// The tests of the element's position at `v` passed.
    #[inline(always)]
    unsafe fn load(&self, v: i64) -> T {
        elem_load(self.at(v), 0)
    }
}

/// An `i32` buffer's storage: its pointer and element count.
fn ints(fr: &Frame, buf: u32) -> Option<(*mut i32, i64)> {
    match fr.bufs[buf as usize] {
        RawBuf::I32 { ptr, len, .. } => Some((ptr, i64::try_from(len).ok()?)),
        _ => None,
    }
}

impl Block {
    /// The positions operand `op` may start at in the storage it is bound
    /// to in this launch.
    fn storage(
        &self,
        op: usize,
        at: &Trips,
        fr: &Frame,
        factor: Option<u32>,
    ) -> Option<(i64, i64)> {
        let view = match op {
            GATHER => return at.gather.as_ref().map(|g| (0, g.len - 1)),
            FACTOR => match fr.bufs[factor? as usize] {
                RawBuf::F32 { len, .. } => return Some((0, i64::try_from(len).ok()? - 1)),
                _ => return None,
            },
            COEFF => at.coeff.as_ref()?,
            k => at.views[k - 1].as_ref()?,
        };
        let (span, len) = (view.span(), view.len);
        Some((0.max(-span), (len - 1).min(len - 1 - span)))
    }

    fn bound(
        &self,
        bound: Bound,
        at: &Trips,
        fr: &Frame,
        factor: Option<u32>,
    ) -> Option<(i64, i64)> {
        match bound {
            Bound::Dim(lo, hi) => Some((lo, hi)),
            Bound::Param(slot, span) => interval(fr.scalars[slot as usize], span),
            Bound::Storage(op) => self.storage(usize::from(op), at, fr, factor),
            Bound::Len(reg) => match &self.sources[usize::from(reg)] {
                Source::Load { buf, .. } | Source::Gathered { buf, .. } => {
                    ints(fr, *buf).map(|(_, len)| (0, len - 1))
                }
                _ => None,
            },
        }
    }

    /// Solve the tests over each loaded register into one interval of its
    /// values, once per launch, on the walk state `at` the launch
    /// established; take the init decision every row shares. `None` when
    /// the bindings do not fit a block in this launch.
    pub(in crate::exec) fn solve(
        &self,
        spec: &NestSpec,
        lanes: &LaneSpec,
        at: &Trips,
        fr: &mut Frame,
    ) -> Option<Solved> {
        let factor = spec.entry.factor.as_ref().map(|(buf, _)| *buf);
        for op in 0..OPERANDS {
            if self.aims[op].is_some() {
                self.storage(op, at, fr, factor)?;
            }
        }
        let mut regs = [(i128::from(i32::MIN), i128::from(i32::MAX)); MAX_REGS];
        for probe in &self.probes {
            let Var::Reg(r) = probe.form.var else { continue };
            let (lo, hi) = self.bound(probe.bound, at, fr, factor)?;
            let konst = i128::from(probe.form.base.konst);
            let (from, to) = if probe.form.coef == 0 {
                if (lo..=hi).contains(&probe.form.base.konst) {
                    continue;
                }
                (1, 0)
            } else {
                solve(probe.form.coef.into(), konst, (lo.into(), hi.into()))
            };
            let reg = &mut regs[usize::from(r)];
            *reg = (reg.0.max(from), reg.1.min(to));
        }
        // The reduce iters and the init decision are the same every entry.
        for (slot, v) in &spec.entry.reduce {
            fr.scalars[*slot as usize] = v.as_const()?;
        }
        let first = lanes.lane_init(fr, at.n);
        let moved = !spec.reduce_moves.is_empty();
        let zero_later = matches!(lanes.init, InitKind::WhenReduceZero { .. });
        if let [(slot, step, _)] = spec.reduce_moves[..] {
            // A moving reduce iter that is not zero at trip 0 under an init
            // that goes by it, or one that could overflow over a row.
            if (zero_later && fr.scalars[slot as usize] != 0) || step.unsigned_abs() > 1 << 20 {
                return None;
            }
        }
        let rest = if moved && zero_later { LaneInit::Never } else { first };
        let clamp = |g: i128| g.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
        let regs = regs.map(|(lo, hi)| (clamp(lo), clamp(hi)));
        Some(Solved { regs, first, rest })
    }
}

/// A block's state, fixed for its rows: the fixed registers, every
/// operand's aim and how the loads are had.
pub(in crate::exec) struct Entry {
    regs: [i64; MAX_REGS],
    /// `dst`, `a`, `b` (a fill repeats `dst`, a term without `b` repeats
    /// `a`).
    ops: [Aim; 3],
    /// The coefficient's walked load, when it has one.
    coeff: Option<Aim>,
    gather: Option<Elem<i32>>,
    factor: Option<Elem<f32>>,
    loads: [Option<Elem<i32>>; MAX_REGS],
    /// Where a row keeps the gathered value at trip 0, and the entry's
    /// reach — the interval of that value — when an operand moves with
    /// the gather: a trip then loads and tests the column.
    reach: Option<(u8, (i64, i64))>,
}

impl Block {
    /// The layout the block's rows run on, as the listing names it.
    pub(in crate::exec) fn layout(&self) -> &'static str {
        if self.csr.is_some() {
            "csr"
        } else {
            "planned"
        }
    }

    /// Where a row of this block's layout keeps `var`'s value.
    fn sel(&self, var: Var) -> Option<u8> {
        match (self.csr, var) {
            (Some(csr), var) => csr.sel(var),
            (None, Var::Reg(r)) => Some(r),
            (None, Var::Row) => Some(ROW),
            (None, Var::Fixed) => Some(ZERO),
        }
    }

    /// Begin the block of rows `0..rows`: their registers' sources and the
    /// operands' aims, each over where the block's [`Layout`] keeps its
    /// variable; the tests over the row at its first and last row.
    #[allow(clippy::too_many_lines)]
    fn begin(
        &self,
        spec: &NestSpec,
        (at, within): (&Trips, &[(i32, i32); MAX_REGS]),
        fr: &Frame,
        w: &mut Stepped,
        rows: i64,
    ) -> Option<Entry> {
        let nowhere = Aim { at: Lanes { ptr: std::ptr::null_mut(), stride: 0 }, per: 0, sel: 0 };
        let mut e = Entry {
            regs: [0; MAX_REGS],
            ops: [nowhere; 3],
            coeff: None,
            gather: None,
            factor: None,
            loads: [None; MAX_REGS],
            reach: None,
        };
        for (k, source) in self.sources.iter().enumerate() {
            if let Source::Outer(s) = source {
                e.regs[k] = fr.scalars[*s as usize];
            }
        }
        let factor = spec.entry.factor.as_ref().map(|(buf, _)| *buf);
        for probe in self.probes.iter().filter(|p| !matches!(p.form.var, Var::Reg(_))) {
            let (lo, hi) = self.bound(probe.bound, at, fr, factor)?;
            let base = probe.form.base.eval(&e.regs)?;
            let ends = if probe.form.var == Var::Row { [0, rows - 1] } else { [0, 0] };
            for i in ends {
                let v = base.checked_add(probe.form.coef.checked_mul(i)?)?;
                if v < lo || v > hi {
                    return None;
                }
            }
        }
        for (k, source) in self.sources.iter().enumerate() {
            if let Source::Load { buf, at: form, .. } | Source::Gathered { buf, at: form } = source
            {
                let sel = self.sel(form.var)?;
                e.loads[k] = Some(Elem::of(ints(fr, *buf)?.0, form, &e.regs, sel)?);
            }
        }
        if let (Some(form), Some(g)) = (&self.aims[GATHER], &at.gather) {
            e.gather = Some(Elem::of(g.ptr, form, &e.regs, self.sel(form.var)?)?);
        }
        if let (Some(form), Some(buf)) = (&self.aims[FACTOR], factor) {
            let RawBuf::F32 { ptr, .. } = fr.bufs[buf as usize] else { return None };
            e.factor = Some(Elem::of(ptr, form, &e.regs, self.sel(form.var)?)?);
        }
        let mut views = [None; 4];
        for (k, aimed) in views.iter_mut().enumerate() {
            let view = if k == 3 { at.coeff.as_ref() } else { at.views[k].as_ref() };
            let (Some(form), Some(view)) = (&self.aims[1 + k], view) else { continue };
            let base = form.base.eval(&e.regs)?;
            let (per, sel) = (isize::try_from(form.coef).ok()?, self.sel(form.var)?);
            let Drift { step, scale, .. } = view.drift;
            let ptr = view.ptr.wrapping_offset(isize::try_from(base).ok()?);
            let aim = Aim { at: Lanes { ptr, stride: view.stride }, per, sel };
            let (step, gstep) = if view.moves() {
                (view.coef.checked_mul(step)?, view.coef.checked_mul(scale)?)
            } else {
                (0, 0)
            };
            let cursor =
                Cursor::new(aim.at, isize::try_from(step).ok()?, isize::try_from(gstep).ok()?);
            if k == 3 {
                w.coeff = cursor;
            } else {
                w.ops[k] = cursor;
            }
            *aimed = Some(aim);
        }
        // A fill repeats `dst`, a term without `b` repeats `a`.
        for k in 1..3 {
            if views[k].is_none() {
                (views[k], w.ops[k]) = (views[k - 1], w.ops[k - 1]);
            }
        }
        (e.ops, e.coeff) = ([views[0]?, views[1]?, views[2]?], views[3]);
        (w.n, w.init32, w.scalar) = (at.n, at.init32, at.scalar);
        (w.walked, w.ratio, w.factor) = (at.coeff.is_some(), spec.ratio, at.factor);
        w.gather_step = at.gather.as_ref().map_or(0, |g| g.step);
        let walks = w.ops.iter().chain(w.walked.then_some(&w.coeff)).any(|c| c.gstep != 0);
        if let Some(&(_, g)) = spec.entry.gather.as_ref().filter(|_| walks) {
            let (lo, hi) = within[usize::from(g)];
            e.reach = Some((self.sel(Var::Reg(g))?, (i64::from(lo), i64::from(hi))));
        }
        Some(e)
    }

    /// Run rows `0..rows` of the loop — the slot and the constant binds are
    /// this function's to set — on the nest `spec` whose walk
    /// state `at` this launch established and solved, handing the row loop
    /// the scratch `w`. Whatever the block does not take is the generic
    /// loop's, from the row and trip [`Exit`] names: nothing of that trip is
    /// written.
    pub(in crate::exec) fn run(
        &self,
        spec: &NestSpec,
        at: &Trips,
        fr: &mut Frame,
        w: &mut Stepped,
        rows: i64,
        counts: &mut NestCounts,
    ) -> Exit {
        let Solve::Ready(solved) = &at.rows else {
            return Exit::Plain;
        };
        for &(slot, c) in &self.pins {
            fr.scalars[slot as usize] = c;
        }
        // A block's test fails: the loop body takes every row.
        let Some(e) = self.begin(spec, (at, &solved.regs), fr, w, rows) else {
            return Exit::Plain;
        };
        let layout = usize::from(self.csr.is_none());
        // SAFETY: the launch picked `row_loops` for the nest's lane op;
        // `begin` made the block's tests over the row.
        unsafe { at.row_loops.0[layout](self, &spec.entry, &e, solved, w, rows, counts) }
    }
}

/// What a row of a block finds once its registers are had.
enum RowIs {
    /// No trips: the row is done.
    Empty,
    /// A register is outside its interval, or the trip count overflows:
    /// the row's trip 0 is the generic loop's.
    Unfit,
    /// Every test passed: the row's trips, for the trip loop.
    Trips(i64),
}

/// How a row of a block has and tests its registers, and where it keeps
/// the values the aims read ([`rows`]).
trait Layout: Sized {
    /// The layout at the block's first row, its loaded registers tested
    /// against `within`; `None` for a block it does not fit.
    ///
    /// # Safety
    /// [`Block::begin`] made the block's tests over the row.
    unsafe fn start(block: &Block, e: &Entry, within: &[(i32, i32); MAX_REGS]) -> Option<Self>;

    /// Have and test row `t`'s registers.
    ///
    /// # Safety
    /// `t` is the row after the one this was last called for (or 0),
    /// inside the block.
    unsafe fn row(&mut self, block: &Block, prog: &EntryProgram, e: &Entry, t: i64) -> RowIs;

    /// The value the row keeps at `sel`.
    fn get(&self, sel: u8) -> i64;
}

/// Where a [`Planned`] row keeps the row and a zero, after the registers.
const ROW: u8 = MAX_REGS as u8;
const ZERO: u8 = ROW + 1;

/// Any block: every register in an array, had as its [`Source`] says.
struct Planned {
    /// The registers, then the row (at [`ROW`]) and a zero ([`ZERO`]).
    regs: [i64; MAX_REGS + 2],
    within: [(i32, i32); MAX_REGS],
    /// No row has been had yet: nothing rolls over.
    first: bool,
}

impl Layout for Planned {
    unsafe fn start(_: &Block, e: &Entry, within: &[(i32, i32); MAX_REGS]) -> Option<Planned> {
        let mut regs = [0; MAX_REGS + 2];
        regs[..MAX_REGS].copy_from_slice(&e.regs);
        Some(Planned { regs, within: *within, first: true })
    }

    #[inline(always)]
    unsafe fn row(&mut self, block: &Block, prog: &EntryProgram, e: &Entry, t: i64) -> RowIs {
        let (regs, head) = (&mut self.regs, prog.head);
        regs[usize::from(ROW)] = t;
        if !self.first {
            // What the previous row loaded, before this row loads over it.
            for (k, source) in block.sources.iter().enumerate().take(head) {
                if let Source::Load { rolls: Some(a), .. } = source {
                    regs[k] = regs[usize::from(*a)];
                }
            }
        }
        for (k, source) in block.sources.iter().enumerate().take(head) {
            regs[k] = match source {
                Source::Row => t,
                Source::Load { rolls: Some(_), .. } if !self.first => continue,
                Source::Load { .. } => {
                    let Some(load) = &e.loads[k] else { unreachable!("a load has its aim") };
                    // SAFETY: the block's tests over the row put every
                    // row's head load inside its storage.
                    i64::from(unsafe { load.load(regs[usize::from(load.sel)]) })
                }
                _ => continue,
            };
        }
        self.first = false;
        let trips = prog.extent.eval(regs);
        if trips.is_some_and(|trips| trips <= 0) {
            return RowIs::Empty;
        }
        let Some(trips) = trips else { return RowIs::Unfit };
        for (k, source) in block.sources.iter().enumerate() {
            match source {
                Source::Row if k >= head => regs[k] = t,
                Source::Row | Source::Outer(_) => continue,
                Source::Load { .. } | Source::Gathered { .. } if k >= head => {
                    let Some(load) = &e.loads[k] else { unreachable!("a load has its aim") };
                    // SAFETY: a load after the head is tested as the
                    // register its position reads (tested just before),
                    // or over the row at the block's ends.
                    regs[k] = i64::from(unsafe { load.load(regs[usize::from(load.sel)]) });
                }
                Source::Load { .. } | Source::Gathered { .. } => {}
            }
            let (lo, hi) = self.within[k];
            if regs[k] < i64::from(lo) || regs[k] > i64::from(hi) {
                return RowIs::Unfit;
            }
        }
        RowIs::Trips(trips)
    }

    #[inline(always)]
    fn get(&self, sel: u8) -> i64 {
        self.regs[usize::from(sel)]
    }
}

/// A CSR row ([`CsrRegs`]) in locals: one load of `next`, `cur` rolled
/// over from the row before, one load of `col` at `cur`, and three
/// interval compares.
struct Csr {
    next_at: Elem<i32>,
    col_at: Option<Elem<i32>>,
    /// `next`'s interval, `cur`'s and `col`'s.
    within: [(i64, i64); 3],
    /// The last row's `next`: this row's `cur`.
    next: i64,
    /// `[t, cur, col, 0]` at the row ([`CsrRegs::sel`]).
    vals: [i64; 4],
}

impl Layout for Csr {
    unsafe fn start(block: &Block, e: &Entry, within: &[(i32, i32); MAX_REGS]) -> Option<Csr> {
        let CsrRegs { next, cur, col } = block.csr?;
        let load = |k: u8| e.loads[usize::from(k)];
        let bound = |k: u8| {
            let (lo, hi) = within[usize::from(k)];
            (i64::from(lo), i64::from(hi))
        };
        let col_at = match col {
            Some(col) => Some(load(col)?),
            None => None,
        };
        // SAFETY: the block's tests over the row put `cur`'s position at
        // its first row inside its storage.
        let first = i64::from(unsafe { load(cur)?.load(0) });
        Some(Csr {
            next_at: load(next)?,
            col_at,
            within: [bound(next), bound(cur), col.map_or((i64::MIN, i64::MAX), bound)],
            next: first,
            vals: [0; 4],
        })
    }

    #[inline(always)]
    unsafe fn row(&mut self, _: &Block, _: &EntryProgram, _: &Entry, t: i64) -> RowIs {
        let cur = self.next;
        // SAFETY: the block's tests over the row put `next`'s position at
        // every row inside its storage.
        self.next = i64::from(unsafe { self.next_at.load(t) });
        let trips = self.next - cur;
        if trips <= 0 {
            return RowIs::Empty;
        }
        let inside = |v: i64, (lo, hi): (i64, i64)| lo <= v && v <= hi;
        if !inside(self.next, self.within[0]) || !inside(cur, self.within[1]) {
            return RowIs::Unfit;
        }
        let col = match &self.col_at {
            Some(at) => {
                // SAFETY: `col`'s position is tested as `cur`, which passed.
                let col = i64::from(unsafe { at.load(cur) });
                if !inside(col, self.within[2]) {
                    return RowIs::Unfit;
                }
                col
            }
            None => 0,
        };
        self.vals = [t, cur, col, 0];
        RowIs::Trips(trips)
    }

    #[inline(always)]
    fn get(&self, sel: u8) -> i64 {
        // `sel < 4` ([`CsrRegs::sel`]): the mask only spares the bounds
        // check.
        self.vals[usize::from(sel) & 3]
    }
}

/// One compiled row loop: rows `0..rows` of the block `begin` entered as
/// `e`, each row's registers had as the layout `L` says, its aims resolved
/// to `base + k·v` over what the row keeps, and its trips taken by the lane
/// op's trip loop `T`, inlined. Returns how the block ended, having added
/// what it did to `counts`.
///
/// # Safety
/// `T` is the trip loop of the nest's lane op; `w` and `e` are what `begin`
/// aimed for the block on the frame and walk state of this launch, and
/// `solved` what the launch solved for the nest.
unsafe fn rows<L: Layout, T: TripFn>(
    block: &Block,
    prog: &EntryProgram,
    e: &Entry,
    solved: &Solved,
    w: &mut Stepped,
    rows: i64,
    counts: &mut NestCounts,
) -> Exit {
    // SAFETY: `begin` made the block's tests over the row (the caller's
    // contract).
    let Some(mut row) = (unsafe { L::start(block, e, &solved.regs) }) else {
        return Exit::Plain;
    };
    let mut tally = NestCounts::default();
    let mut exit = Exit::Done;
    for i in 0..rows {
        tally.entries += 1;
        // SAFETY: `i` is the block's next row.
        let trips = match unsafe { row.row(block, prog, e, i) } {
            RowIs::Empty => {
                tally.blocked += 1;
                continue;
            }
            RowIs::Unfit => {
                tally.handovers += 1;
                exit = Exit::Handover { row: i, done: 0, trips: None };
                break;
            }
            RowIs::Trips(trips) => trips,
        };
        w.trips = trips;
        for (cursor, aim) in w.ops.iter_mut().zip(&e.ops) {
            cursor.at = aim.lanes(row.get(aim.sel));
        }
        if let Some(aim) = &e.coeff {
            w.coeff.at = aim.lanes(row.get(aim.sel));
        }
        w.gather = std::ptr::null_mut();
        if let (Some(g), Some((g0, reach))) = (&e.gather, e.reach) {
            (w.gather, w.g0, w.reach) = (g.at(row.get(g.sel)), row.get(g0), reach);
        }
        if let Some(f) = &e.factor {
            // SAFETY: the factor's position passed its tests.
            w.factor = unsafe { f.load(row.get(f.sel)) };
        }
        #[cfg(debug_assertions)]
        {
            let (lo, hi) = w.reach;
            let g0 = w.g0;
            for cursor in w.ops.iter_mut().chain([&mut w.coeff]) {
                cursor.covers(trips, (lo.saturating_sub(g0), hi.saturating_sub(g0)));
            }
        }
        // SAFETY: `w` holds this row's entry, every position it reads
        // tested against the storage it is bound to; `T` is the nest's loop
        // (the caller's contract).
        let stepped = unsafe { T::trips(w, solved.first, solved.rest) };
        tally.blocked += 1;
        tally.trips += trips as u64;
        tally.stepped += stepped as u64;
        if stepped < trips {
            // A gathered value left the reach mid-row: the rest of the
            // row is the generic loop's.
            tally.handovers += 1;
            exit = Exit::Handover { row: i, done: stepped, trips: Some(trips) };
            break;
        }
    }
    counts.add(tally);
    exit
}

/// A block's row loop, compiled for one layout and one trip loop
/// ([`rows`]).
type RowLoop =
    unsafe fn(&Block, &EntryProgram, &Entry, &Solved, &mut Stepped, i64, &mut NestCounts) -> Exit;

/// The row loops of a nest's lane op, `[layout]`: for the [`Csr`] and the
/// [`Planned`] layout. Picked once per launch, when the nest's walk state
/// is established.
pub(in crate::exec) struct RowLoops([RowLoop; 2]);

impl RowLoops {
    /// The row loops over `T`, a lane op's trip loop.
    pub(in crate::exec) fn of<T: TripFn>() -> RowLoops {
        RowLoops([rows::<Csr, T>, rows::<Planned, T>])
    }
}
