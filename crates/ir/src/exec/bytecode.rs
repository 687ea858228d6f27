//! Flat bytecode executor: tree→bytecode lowering and the `ip`-driven
//! dispatch loop.
//!
//! A recursive walk of the compiled statement tree would pay a call and
//! an enum match per statement node per iteration — `Seq` re-iterates its
//! vector, `Block` re-inspects its option fields, and every loop level is
//! a stack frame. This module lowers the compiled tree **once** into a
//! flat `Vec<Instr>` executed by a single `while ip < end { match }` loop:
//!
//! * **Loops are jump-encoded.** `LoopStart` pushes a loop record
//!   (slot, body address, trip count) onto an explicit stack; the
//!   matching `LoopEnd` is the back edge, jumping to the body address
//!   until the count is exhausted. Zero-trip loops jump straight past
//!   their `LoopEnd`. No recursion, no per-iteration `Box` chasing.
//! * **Blocks are flattened** into bind instructions. A reduce block with
//!   an init becomes one `BlockHead`: every iter binding plus the
//!   reduce-init gate (the interpreter's `init_needed` rule) in a single
//!   dispatch, jumping over the lowered init when any reduce binding is
//!   nonzero. Ungated blocks lower to a bare `Bind`/`BindSlot`/`BindAll`.
//! * **Unit-trip loops are binds.** `for v in 0..1 { body }` lowers to
//!   `v = 0` and the body: no loop record, no back edge — unless a nest
//!   needs the loop back (next bullet but one).
//! * **Fusion emits superinstructions.** Lowering consults the
//!   [`fuse::build_fused`] analysis; a matching loop becomes one
//!   [`Instr::Super`] carrying the [`LaneSpec`] microkernel, and the
//!   generic loop is lowered immediately behind it as the bit-exact
//!   fallback (taken when per-lane bounds validation fails, reproducing
//!   the interpreter's errors). A loop whose whole body is such a lane
//!   loop, and whose per-trip prologue [`fuse::build_nest`] can plan in
//!   one walk (how each quantity moves, and an entry program) as a block
//!   of one entry ([`fuse::build_block`]), is headed by an [`Instr::Nest`]
//!   instead of a `LoopStart`: the nest runs the trips itself
//!   ([`run_entry`]) and hands the loop behind it — lowered exactly as
//!   without the nest — whichever trip it cannot take. When that loop is no
//!   nest but its lane loop stands right behind a unit-trip loop's `v = 0`
//!   (a width-1 ELL bucket's column), the bind becomes the one-trip loop
//!   again and the nest heads that: a nest of one trip, whose entry program
//!   loads what moves with the outer loop (the bucket row's column and row
//!   id), so the outer loop can be a row block over it. A one-trip nest that
//!   does not plan leaves the bind as it was.
//! * **A row loop over a nest is a block, not jump-encoded.** A loop whose
//!   whole body is one nest (behind constant binds) is headed by an
//!   [`Instr::Rows`]: [`fuse::build_block`] plans every register of the
//!   nest's entry program against the row, and the block runs the rows in
//!   Rust ([`run_rows`]) — per row its loads, one compare pair per loaded
//!   register against an interval the launch solved, the cursors' first
//!   lanes and the nest's trip loop, in one compiled row loop per row
//!   layout and lane op. The row and trip it cannot take go
//!   to the generic loop behind the nest, the later rows through the loop
//!   body. So a loop runs one of two ways: as a block, or as the generic
//!   loop. Any other loop is the generic loop: the `blockIdx` loop of a GPU
//!   schedule's split rows runs its blocks of rows one after another, and a
//!   row loop whose nest stands behind a tail guard enters it as a block of
//!   one entry per row.
//! * **A nest keeps, within a launch, what cannot change between
//!   entries.** The dispatch loop's [`State`] has one slot per nest
//!   instruction: the launch's first block over the nest establishes the
//!   launch-invariant walk state there and solves its tests once.
//!   `Alloc` / `Free` of a buffer the state names drops it. The slots are
//!   one slab per launching thread ([`WALKS`]), handed back empty after
//!   every launch: a warm launch allocates no walk state, a kernel keeps
//!   none. Entries, hand-overs and the entries and trips a block took are
//!   counted per launch and added to the [`Code`]'s atomic totals when
//!   `exec` returns ([`Code::nest_counts`]).
//! * **A launch's slot table is per thread too** ([`SLOTS`]): taken when its
//!   [`ViewBindings`](super::ViewBindings) are made, handed back when they drop.
//!
//! A launch is one pass of this loop on the caller's thread: a
//! `blockIdx`-bound loop is a `LoopStart` like any other.
//!
//! Semantics are bit-identical to the reference interpreter
//! ([`crate::eval`]); the differential suite drives interpreter /
//! bytecode-generic / bytecode-fused three-way.

use super::fuse::{self, Block, Exit, LaneSpec, NestSpec, RowPlan, Solve, Stepped, Trips};
use super::{
    exec_accum_f, exec_mma, exec_store_f, exec_store_i, scan_int, BoolExpr, CBlock, CStmt,
    ExecError, ExprInfo, FloatExpr, FloatOp, Frame, IndexExpr, IntExpr, MmaOp, NestCounts, RawBuf,
    ValueExpr,
};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// One flat-stream instruction. Jump targets are absolute instruction
/// indices into the owning [`Code`].
#[derive(Debug)]
pub(super) enum Instr {
    /// Evaluate `extent`; if positive, set `scalars[slot] = 0`, push a
    /// loop record and fall through to the body, else jump to `end`
    /// (the instruction after the matching [`Instr::LoopEnd`]).
    LoopStart { slot: u32, extent: IntExpr, end: u32 },
    /// Back edge: advance the innermost loop record; jump to its body
    /// address or pop it and fall through.
    LoopEnd,
    /// `scalars[slot] = value` (single block iter bindings and `let`).
    Bind { slot: u32, value: IntExpr },
    /// [`Instr::Bind`] specialized for the ubiquitous slot-copy binding
    /// (`vi = i`): one indexed move, no expression dispatch.
    BindSlot { slot: u32, src: u32 },
    /// All iter bindings of an ungated block (all-spatial, or no init),
    /// evaluated in order in one dispatch.
    BindAll { iters: Box<[(u32, IntExpr)]> },
    /// Head of a reduce block with an init: evaluate every iter binding
    /// in order (`true` marks reduce iters), then jump to `init_end` —
    /// skipping the lowered init right behind this instruction — when any
    /// reduce binding is nonzero (the `!any_reduce_nonzero` init gate).
    BlockHead { iters: Box<[(u32, IntExpr, bool)]>, init_end: u32 },
    /// Conditional: fall through into the then-branch or jump to `else_`.
    Branch { cond: BoolExpr, else_: u32 },
    /// Unconditional jump (end of a then-branch over its else-branch).
    Jump { target: u32 },
    /// `BufferStore` into a float-typed buffer.
    StoreF { buf: u32, index: IndexExpr, value: FloatExpr },
    /// [`Instr::StoreF`] specialized for the reduction-accumulate form
    /// `@buf[i] = @buf[i] + rest`: the flat index is evaluated once and
    /// reused for both the load and the store.
    AccumF { buf: u32, index: IndexExpr, rest: FloatExpr },
    /// `BufferStore` of an int value (int-into-float handled like the
    /// interpreter).
    StoreI { buf: u32, index: IndexExpr, value: IntExpr },
    /// Push a zeroed staging buffer into `bufs[buf]`, saving the shadowed
    /// view for the matching [`Instr::Free`]. `name` is for the error a
    /// negative or overflowing extent raises.
    Alloc { buf: u32, name: String, is_float: bool, len_dims: Vec<IntExpr> },
    /// Pop the staging buffer pushed by the matching [`Instr::Alloc`].
    Free { buf: u32 },
    /// Evaluate for effect (lazy runtime errors).
    EvalV(ValueExpr),
    /// `mma_sync` tile op.
    Mma(Box<MmaOp>),
    /// Fused dense-lane superinstruction: run the microkernel fast path
    /// and jump to `done`, or fall through into the generic loop lowered
    /// right behind it (which ends at `done`).
    Super { spec: Box<LaneSpec>, done: u32 },
    /// Head of a loop around a fused lane loop, in place of its
    /// [`Instr::LoopStart`]: run the trips as a block of one entry and jump
    /// to `end`, or — from the first trip the block cannot take — enter
    /// the loop body right behind this instruction at that trip, sharing
    /// the loop's `LoopEnd` (at `end - 1`) as the back edge. `id` numbers
    /// the nests of a stream: the slot of this one's kept walk state in
    /// [`State`].
    Nest { spec: Box<NestSpec>, block: Box<Block>, id: u32, end: u32 },
    /// Head of a row loop whose whole body is one [`Instr::Nest`], in place
    /// of its [`Instr::LoopStart`]: run the rows as a block against the
    /// nest's walk state and jump to `end`, or — from the first row the
    /// block cannot take — enter the loop body right behind this
    /// instruction at that row, sharing the loop's `LoopEnd` (at
    /// `end - 1`) as the back edge, and the nest's generic loop at the trip
    /// the block stopped at.
    Rows { spec: Box<RowPlan>, end: u32 },
    /// Ill-typed statement that errors only if executed (matching the
    /// interpreter's lazy runtime errors).
    Fail(String),
}

/// A lowered kernel body: the flat instruction stream plus lowering
/// metadata.
#[derive(Debug)]
pub(super) struct Code {
    instrs: Vec<Instr>,
    fused_ops: usize,
    /// What the row nests counted over every run, [`NestCounts`]' fields.
    nest_counts: [AtomicU64; 5],
}

/// Lower a compiled statement tree to flat bytecode. When `fuse` is set,
/// the fusion analysis runs over each candidate loop during lowering and
/// emits superinstructions. The kernel's scalar parameters are its slots
/// `0..params`.
pub(super) fn lower(body: &CStmt, fuse: bool, params: u32) -> Code {
    let mut lw = Lower { instrs: Vec::new(), fused_ops: 0, nests: 0, fuse, params };
    lw.stmt(body);
    Code { instrs: lw.instrs, fused_ops: lw.fused_ops, nest_counts: Default::default() }
}

struct Lower {
    instrs: Vec<Instr>,
    fused_ops: usize,
    nests: u32,
    fuse: bool,
    params: u32,
}

impl Lower {
    fn here(&self) -> u32 {
        u32::try_from(self.instrs.len()).expect("kernel exceeds u32 instructions")
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.instrs.push(i);
        self.instrs.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.instrs[at] {
            Instr::LoopStart { end, .. }
            | Instr::BlockHead { init_end: end, .. }
            | Instr::Branch { else_: end, .. }
            | Instr::Jump { target: end }
            | Instr::Super { done: end, .. } => *end = target,
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, s: &CStmt) {
        match s {
            CStmt::For { slot, extent, body } => {
                if self.fuse {
                    if let Some(spec) = fuse::build_fused(s) {
                        self.superinstr(spec, s);
                        return;
                    }
                }
                if matches!(extent, IntExpr::Const(1)) {
                    // One trip: the loop variable is 0 and the body runs
                    // once (a constant extent cannot fail to evaluate).
                    self.emit(Instr::Bind { slot: *slot, value: IntExpr::Const(0) });
                    self.stmt(body);
                    return;
                }
                // Loop-invariant code motion: bindings of a `for { block }`
                // body that depend on nothing the loop writes evaluate to
                // the same value every iteration — bind them once, above
                // the loop.
                let residual = if let CStmt::Block(b) = &**body {
                    licm_split(*slot, extent, b).map(|(hoisted, remaining)| {
                        for (hslot, value) in &hoisted {
                            self.emit_bind(*hslot, value);
                        }
                        remaining
                    })
                } else {
                    None
                };
                let at =
                    self.emit(Instr::LoopStart { slot: *slot, extent: extent.clone(), end: 0 });
                match (&residual, &**body) {
                    (Some(iters), CStmt::Block(b)) => self.block(iters, b),
                    _ => self.stmt(body),
                }
                self.emit(Instr::LoopEnd);
                let end = self.here();
                self.patch(at, end);
                if self.fuse {
                    if !self.nest_head(at) {
                        self.unit_nest(at);
                    }
                    self.row_block(at);
                }
            }
            CStmt::Block(b) => self.block(&b.iters, b),
            CStmt::StoreF { buf, index, value } => {
                // Peephole: `@buf[i] = @buf[i] + rest` (every reduction
                // update) evaluates its destination index twice in the
                // generic form — once inside the load, once for the store.
                if let FloatExpr::Bin { op: FloatOp::Add, lhs, rhs } = value {
                    if matches!(&**lhs,
                        FloatExpr::Load { buf: lbuf, index: lidx } if lbuf == buf && lidx == index)
                    {
                        self.emit(Instr::AccumF {
                            buf: *buf,
                            index: index.clone(),
                            rest: (**rhs).clone(),
                        });
                        return;
                    }
                }
                self.emit(Instr::StoreF { buf: *buf, index: index.clone(), value: value.clone() });
            }
            CStmt::StoreI { buf, index, value } => {
                self.emit(Instr::StoreI { buf: *buf, index: index.clone(), value: value.clone() });
            }
            CStmt::Seq(stmts) => {
                for st in stmts {
                    self.stmt(st);
                }
            }
            CStmt::If { cond, then_, else_ } => {
                let br = self.emit(Instr::Branch { cond: cond.clone(), else_: 0 });
                self.stmt(then_);
                if let Some(e) = else_ {
                    let jmp = self.emit(Instr::Jump { target: 0 });
                    let else_at = self.here();
                    self.patch(br, else_at);
                    self.stmt(e);
                    let end = self.here();
                    self.patch(jmp, end);
                } else {
                    let end = self.here();
                    self.patch(br, end);
                }
            }
            CStmt::Let { slot, value, body } => {
                self.emit(Instr::Bind { slot: *slot, value: value.clone() });
                self.stmt(body);
            }
            CStmt::Alloc { buf, name, is_float, len_dims, body } => {
                self.emit(Instr::Alloc {
                    buf: *buf,
                    name: name.clone(),
                    is_float: *is_float,
                    len_dims: len_dims.clone(),
                });
                self.stmt(body);
                self.emit(Instr::Free { buf: *buf });
            }
            CStmt::EvalV(v) => {
                self.emit(Instr::EvalV(v.clone()));
            }
            CStmt::Mma(op) => {
                self.emit(Instr::Mma(op.clone()));
            }
            CStmt::Fail(msg) => {
                self.emit(Instr::Fail(msg.clone()));
            }
        }
    }

    /// Lower a block with the given iter list — the block's own, or the
    /// residual [`licm_split`] left behind after hoisting. A block gates
    /// its init on `all_spatial ? init.is_some() : !any_reduce_nonzero`;
    /// a reduce block's whole head — every binding plus the gate decision
    /// — is one dispatch.
    fn block(&mut self, iters: &[(u32, IntExpr, bool)], b: &CBlock) {
        let gate = !b.all_spatial && b.init.is_some();
        if gate {
            let iters: Box<[(u32, IntExpr, bool)]> = iters
                .iter()
                .map(|(slot, binding, is_reduce)| (*slot, binding.clone(), *is_reduce))
                .collect();
            let at = self.emit(Instr::BlockHead { iters, init_end: 0 });
            self.stmt(b.init.as_deref().expect("gated block has an init"));
            let t = self.here();
            self.patch(at, t);
        } else {
            match iters {
                [] => {}
                [(slot, binding, _)] => self.emit_bind(*slot, binding),
                iters => {
                    let iters: Box<[(u32, IntExpr)]> =
                        iters.iter().map(|(slot, binding, _)| (*slot, binding.clone())).collect();
                    self.emit(Instr::BindAll { iters });
                }
            }
            if let Some(init) = &b.init {
                // All-spatial block with an init: fires always.
                self.stmt(init);
            }
        }
        self.stmt(&b.body);
    }

    /// Emit a single binding, specialized to a slot move when possible.
    fn emit_bind(&mut self, slot: u32, value: &IntExpr) {
        let ins = if let IntExpr::Slot(src) = value {
            Instr::BindSlot { slot, src: *src }
        } else {
            Instr::Bind { slot, value: value.clone() }
        };
        self.emit(ins);
    }

    /// Turn the loop just lowered at `at` into a row nest when its whole
    /// body is one fused lane loop — `LoopStart; [v = const]*; Super ..
    /// fallback; LoopEnd`, the constant binds being what unit-trip loops
    /// in between lowered to — and [`fuse::build_nest`] can plan that lane
    /// loop's prologue against the loop variable (how each quantity moves,
    /// and its entry program) and [`fuse::build_block`] the nest's one
    /// entry as a block. Only the head changes: the nest replaces the
    /// `LoopStart` and refers to the `Super` behind it. Returns whether the
    /// loop became a nest.
    fn nest_head(&mut self, at: usize) -> bool {
        let (lanes_at, pins) = self.pinned(at + 1);
        let (Instr::LoopStart { slot, extent, end }, Instr::Super { spec: lanes, done }) =
            (&self.instrs[at], &self.instrs[lanes_at])
        else {
            return false;
        };
        // The superinstruction's fallback must run into the back edge.
        if done + 1 != *end {
            return false;
        }
        let lanes_at = u32::try_from(lanes_at).expect("kernel exceeds u32 instructions");
        let Some(spec) = fuse::build_nest(lanes, (*slot, extent), pins, (lanes_at, self.params))
        else {
            return false;
        };
        // Outside any row loop, every slot the entry program reads is fixed.
        let Some(block) = fuse::build_block((&spec, lanes), None, Vec::new(), |_| true) else {
            return false;
        };
        let (spec, block) = (Box::new(spec), Box::new(block));
        self.instrs[at] = Instr::Nest { spec, block, id: self.nests, end: *end };
        self.nests += 1;
        true
    }

    /// The constant binds from `from` on, and where they stop.
    fn pinned(&self, from: usize) -> (usize, Vec<(u32, i64)>) {
        let (mut at, mut pins) = (from, Vec::new());
        while let Instr::Bind { slot, value: IntExpr::Const(c) } = &self.instrs[at] {
            pins.push((*slot, *c));
            at += 1;
        }
        (at, pins)
    }

    /// The loop just lowered at `at` is no nest, but its lane loop stands
    /// right behind a unit-trip loop's pin (`v = 0`: a width-1 ELL bucket's
    /// column, one-input SAGE's transform): make that pin the one-trip loop
    /// it was — a `LoopStart` over `0..1`, with a `LoopEnd` behind the lane
    /// loop's fallback — and plan it as a nest of one trip, whose entry
    /// program loads what moved with `at`'s variable (a bucket row's column
    /// and row id), so [`Self::row_block`] can make `at` a row block over it.
    /// A one-trip nest that does not plan leaves the stream as it was.
    fn unit_nest(&mut self, at: usize) {
        let Instr::LoopStart { end, .. } = self.instrs[at] else { return };
        let (lanes_at, pins) = self.pinned(at + 1);
        let (Some(&(slot, 0)), Instr::Super { done, .. }) = (pins.last(), &self.instrs[lanes_at])
        else {
            return;
        };
        if done + 1 != end {
            return;
        }
        // Only `at`'s `LoopStart` and the lane loop's fallback point at or
        // past the new back edge: the fallback's jumps to `done` now land on
        // it, as they should.
        let (pin_at, done) = (lanes_at - 1, *done as usize);
        self.instrs[pin_at] = Instr::LoopStart { slot, extent: IntExpr::Const(1), end };
        self.instrs.insert(done, Instr::LoopEnd);
        self.patch(at, end + 1);
        if !self.nest_head(pin_at) {
            self.instrs.remove(done);
            self.instrs[pin_at] = Instr::Bind { slot, value: IntExpr::Const(0) };
            self.patch(at, end);
        }
    }

    /// Turn the loop just lowered at `at` into a row block when its whole
    /// body is one row nest — `LoopStart; [v = const]*; Nest ..; LoopEnd` —
    /// and [`fuse::build_block`] can plan the nest's entry program against
    /// the rows. Only the head changes: the block replaces the `LoopStart`,
    /// and the body behind it is the way in for every row the block does
    /// not take.
    fn row_block(&mut self, at: usize) {
        let Instr::LoopStart { slot, extent, end } = &self.instrs[at] else { return };
        let (slot, end) = (*slot, *end as usize);
        let (body, pins) = self.pinned(at + 1);
        let Instr::Nest { spec, end: nest_end, .. } = &self.instrs[body] else { return };
        // The nest's generic loop runs into the row loop's back edge.
        if *nest_end as usize != end - 1 {
            return;
        }
        let Instr::Super { spec: lanes, .. } = &self.instrs[spec.lanes_at as usize] else {
            unreachable!("a nest's lane loop is a superinstruction")
        };
        // Slots the loop body writes other than by its constant binds: what
        // a block reads of any other is fixed for the block.
        let mut written: HashSet<u32> = [slot, spec.slot].into_iter().collect();
        for ins in &self.instrs[body + 1..end] {
            match ins {
                Instr::LoopStart { slot, .. }
                | Instr::Bind { slot, .. }
                | Instr::BindSlot { slot, .. } => {
                    written.insert(*slot);
                }
                Instr::BindAll { iters } => written.extend(iters.iter().map(|(s, _)| *s)),
                Instr::BlockHead { iters, .. } => written.extend(iters.iter().map(|(s, ..)| *s)),
                Instr::Super { spec, .. } => {
                    written.insert(spec.lane_slot);
                    written.extend(spec.outer_slot);
                    written.extend(spec.iters.iter().map(|it| it.slot));
                }
                _ => {}
            }
        }
        let outer = |s: u32| !written.contains(&s);
        let nest_at = u32::try_from(body).expect("kernel exceeds u32 instructions");
        if let Some(block) = fuse::build_block((spec, lanes), Some(slot), pins, outer) {
            let plan = RowPlan { slot, extent: extent.clone(), nest_at, block };
            self.instrs[at] = Instr::Rows { spec: Box::new(plan), end: end as u32 };
        }
    }

    /// Emit a superinstruction followed by its generic fallback (the
    /// original loop, lowered with fusion suppressed so the fallback
    /// never re-matches itself).
    fn superinstr(&mut self, spec: LaneSpec, generic: &CStmt) {
        self.fused_ops += 1;
        let at = self.emit(Instr::Super { spec: Box::new(spec), done: 0 });
        let prev = std::mem::replace(&mut self.fuse, false);
        self.stmt(generic);
        self.fuse = prev;
        let done = self.here();
        self.patch(at, done);
    }
}

// ---------------------------------------------------------------------------
// Loop-invariant code motion (lowering-time analysis)
// ---------------------------------------------------------------------------

/// What a statement subtree writes. `unknown` poisons the analysis.
#[derive(Default)]
struct WriteInfo {
    slots: HashSet<u32>,
    bufs: HashSet<u32>,
    unknown: bool,
}

fn scan_writes(s: &CStmt, w: &mut WriteInfo) {
    match s {
        CStmt::For { slot, body, .. } => {
            w.slots.insert(*slot);
            scan_writes(body, w);
        }
        CStmt::Block(b) => {
            for (slot, _, _) in &b.iters {
                w.slots.insert(*slot);
            }
            if let Some(init) = &b.init {
                scan_writes(init, w);
            }
            scan_writes(&b.body, w);
        }
        CStmt::StoreF { buf, .. } | CStmt::StoreI { buf, .. } => {
            w.bufs.insert(*buf);
        }
        CStmt::Seq(stmts) => {
            for st in stmts {
                scan_writes(st, w);
            }
        }
        CStmt::If { then_, else_, .. } => {
            scan_writes(then_, w);
            if let Some(e) = else_ {
                scan_writes(e, w);
            }
        }
        CStmt::Let { slot, body, .. } => {
            w.slots.insert(*slot);
            scan_writes(body, w);
        }
        CStmt::Alloc { buf, body, .. } => {
            w.bufs.insert(*buf);
            scan_writes(body, w);
        }
        // Opaque evaluation — assume it can touch anything.
        CStmt::EvalV(_) => w.unknown = true,
        CStmt::Mma(op) => {
            w.bufs.insert(op.c.buf);
        }
        CStmt::Fail(_) => {}
    }
}

/// Hoisted `(slot, value)` bindings plus the residual per-iteration
/// iter list, as returned by [`licm_split`].
type LicmSplit = (Vec<(u32, IntExpr)>, Vec<(u32, IntExpr, bool)>);

/// Split a `for { block }` body's iter bindings into a hoistable prefix
/// set (evaluated once, above the loop) and the residual per-iteration
/// list. Only constant positive trip counts qualify: such a loop
/// evaluates every binding at least once, so an invariant binding — or
/// its error — moves from iteration 0 to just before the loop with
/// nothing observable in between (slot writes are invisible outside the
/// frame). A binding hoists when it is spatial, reads no slot the loop
/// rebinds and no buffer the body writes, and no fallible binding before
/// it stays inside (iteration-0 error order must be preserved).
fn licm_split(loop_slot: u32, extent: &IntExpr, b: &CBlock) -> Option<LicmSplit> {
    if !matches!(extent, IntExpr::Const(n) if *n > 0) {
        return None;
    }
    let mut w = WriteInfo::default();
    if let Some(init) = &b.init {
        scan_writes(init, &mut w);
    }
    scan_writes(&b.body, &mut w);
    if w.unknown {
        return None;
    }
    w.slots.insert(loop_slot);
    for (slot, _, _) in &b.iters {
        w.slots.insert(*slot);
    }
    let mut hoisted = Vec::new();
    let mut remaining = Vec::new();
    let mut stayed_fallible = false;
    for (slot, value, is_reduce) in &b.iters {
        let mut info = ExprInfo::default();
        scan_int(value, &mut info);
        let invariant = info.slots.is_disjoint(&w.slots) && info.bufs.is_disjoint(&w.bufs);
        if !*is_reduce && !stayed_fallible && invariant {
            hoisted.push((*slot, value.clone()));
        } else {
            stayed_fallible |= info.fallible;
            remaining.push((*slot, value.clone(), *is_reduce));
        }
    }
    if hoisted.is_empty() {
        None
    } else {
        Some((hoisted, remaining))
    }
}

// ---------------------------------------------------------------------------
// Dispatch loop
// ---------------------------------------------------------------------------

/// Live record of one entered loop: the back edge ([`Instr::LoopEnd`])
/// reads the top of the loop stack instead of carrying state of its own.
struct LoopFrame {
    slot: u32,
    body: u32,
    i: i64,
    n: i64,
}

/// What a row nest keeps from one entry to the next within a launch.
pub(super) struct Kept {
    /// The launch-invariant walk state — with what the launch solved for
    /// the blocks over the nest; `None` when the nest's bindings are of a
    /// kind the blocks do not cover (every entry then goes to the generic
    /// loop).
    walks: Option<Trips>,
    /// Where the nest's instruction is (whose entry program names the
    /// buffers this was decided on).
    at: u32,
}

thread_local! {
    /// The kept walk state of the nests of a launch on this thread, by
    /// [`Instr::Nest`] `id`: a launch takes it ([`State::new`]), [`run_block`]
    /// grows it on first use, and the launch hands it back empty, capacity
    /// kept ([`State`]'s `Drop`), every nest unestablished for the next
    /// launch of any kernel — so a warm launch allocates no walk state, and
    /// a kernel keeps none between launches.
    pub(super) static WALKS: Cell<Vec<Option<Kept>>> = const { Cell::new(Vec::new()) };

    /// The slot table of the launch being bound on this thread, handed back
    /// cleared; a binding set made while another is live gets its own.
    pub(super) static SLOTS: Cell<Slots> =
        const { Cell::new(Slots { scalars: Vec::new(), bound: Vec::new(), bufs: Vec::new() }) };
}

/// A launch's slot table, sized to its kernel: the scalar frame, which
/// params are bound, and one view per buffer slot (`Absent` until bound).
#[derive(Default)]
pub(super) struct Slots {
    pub(super) scalars: Vec<i64>,
    pub(super) bound: Vec<bool>,
    pub(super) bufs: Vec<RawBuf>,
}

/// Nests [`WALKS`] has room for from a thread's first launch: more than a
/// served kernel has (`hyb(c, k)`: one per non-empty bucket, plus the
/// init), so the slab stays where that launch put it.
const RESERVED_NESTS: usize = 64;

/// Mutable interpreter state threaded through [`dispatch`] alongside the
/// frame: the loop stack, the alloc shadow stack, and what the row nests
/// of the stream `'c` keep across their entries.
struct State<'c> {
    code: &'c [Instr],
    loops: Vec<LoopFrame>,
    saved: Vec<RawBuf>,
    /// This thread's [`WALKS`] for the launch; `None` until the first
    /// block over the nest establishes it.
    kept: Vec<Option<Kept>>,
    /// What a block hands the trip loop of its row loop per entry.
    step: Stepped,
    counts: NestCounts,
}

impl<'c> State<'c> {
    fn new(code: &'c [Instr]) -> State<'c> {
        let kept = WALKS.take();
        debug_assert!(kept.is_empty(), "a launch starts with every nest unestablished");
        State {
            code,
            loops: Vec::new(),
            saved: Vec::new(),
            kept,
            step: Stepped::scratch(),
            counts: NestCounts::default(),
        }
    }

    /// `buf` was re-bound (allocated or freed): spots taken of its old
    /// binding are stale.
    fn rebound(&mut self, buf: u32) {
        let code = self.code;
        let names = |at: u32| match &code[at as usize] {
            Instr::Nest { spec, .. } => &spec.entry.bufs,
            _ => unreachable!("kept state belongs to a nest"),
        };
        for kept in &mut self.kept {
            if kept.as_ref().is_some_and(|k| names(k.at).contains(&buf)) {
                *kept = None;
            }
        }
    }
}

impl Drop for State<'_> {
    fn drop(&mut self) {
        let mut kept = std::mem::take(&mut self.kept);
        kept.clear();
        // Gone only while the thread itself is torn down.
        let _ = WALKS.try_with(|slot| slot.set(kept));
    }
}

impl Code {
    /// Number of fused superinstructions in the stream.
    pub(super) fn fused_ops(&self) -> usize {
        self.fused_ops
    }

    /// The name of each superinstruction's microkernel, in stream order.
    pub(super) fn micro_names(&self) -> Vec<&'static str> {
        self.instrs
            .iter()
            .filter_map(|ins| match ins {
                Instr::Super { spec, .. } => Some(spec.op.kind().0),
                _ => None,
            })
            .collect()
    }

    /// Iterate the instruction stream (disassembly).
    pub(super) fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// What the stream's row nests did, summed over every run so far.
    pub(super) fn nest_counts(&self) -> NestCounts {
        let [entries, handovers, trips, stepped, blocked] =
            self.nest_counts.each_ref().map(|n| n.load(Ordering::Relaxed));
        NestCounts { entries, handovers, trips, stepped, blocked }
    }

    /// Execute the whole stream against `fr`, on this thread.
    pub(super) fn exec(&self, fr: &mut Frame) -> Result<(), ExecError> {
        let mut st = State::new(&self.instrs);
        if st.kept.capacity() == 0 {
            // Reserved once per launching thread ([`RESERVED_NESTS`]).
            // Grown launch by launch it ended up where glibc trims the heap
            // top: `stbench kernel_wide` `cold_ratio` 0.061 → 0.096–0.103,
            // `peak_rss_mb` 218.5 → 210.6, page faults every pass.
            st.kept.reserve_exact(RESERVED_NESTS);
        }
        let result = dispatch(&self.instrs, fr, &mut st);
        let c = st.counts;
        let counts = [c.entries, c.handovers, c.trips, c.stepped, c.blocked];
        for (total, n) in self.nest_counts.iter().zip(counts) {
            total.fetch_add(n, Ordering::Relaxed);
        }
        result
    }
}

/// The dispatch loop: execute the stream `code`. On error the
/// partially-unwound `State` is discarded by the caller, so no cleanup
/// pass is needed. Out of line: inlined into [`Code::exec`], its one
/// caller, `stbench serve_shared_dynamic` (scalar attention passes) read
/// ≈ 5 % slower.
#[inline(never)]
fn dispatch<'c>(code: &'c [Instr], fr: &mut Frame, st: &mut State<'c>) -> Result<(), ExecError> {
    let end = u32::try_from(code.len()).expect("kernel exceeds u32 instructions");
    let mut ip = 0;
    while ip < end {
        // Indexing is in-bounds by construction: every jump target the
        // lowering pass emits lies within the stream.
        match &code[ip as usize] {
            Instr::LoopStart { slot, extent, end: lend } => {
                let n = extent.eval(fr)?;
                if n <= 0 {
                    ip = *lend;
                    continue;
                }
                fr.scalars[*slot as usize] = 0;
                st.loops.push(LoopFrame { slot: *slot, body: ip + 1, i: 0, n });
                ip += 1;
            }
            Instr::LoopEnd => {
                let top = st.loops.last_mut().expect("loop stack underflow");
                top.i += 1;
                if top.i < top.n {
                    fr.scalars[top.slot as usize] = top.i;
                    ip = top.body;
                } else {
                    st.loops.pop();
                    ip += 1;
                }
            }
            Instr::Bind { slot, value } => {
                fr.scalars[*slot as usize] = value.eval(fr)?;
                ip += 1;
            }
            Instr::BindSlot { slot, src } => {
                fr.scalars[*slot as usize] = fr.scalars[*src as usize];
                ip += 1;
            }
            Instr::BindAll { iters } => {
                for (slot, value) in iters.iter() {
                    fr.scalars[*slot as usize] = value.eval(fr)?;
                }
                ip += 1;
            }
            Instr::BlockHead { iters, init_end } => {
                let mut any_reduce_nonzero = false;
                for (slot, value, is_reduce) in iters.iter() {
                    let v = value.eval(fr)?;
                    any_reduce_nonzero |= *is_reduce && v != 0;
                    fr.scalars[*slot as usize] = v;
                }
                ip = if any_reduce_nonzero { *init_end } else { ip + 1 };
            }
            Instr::Branch { cond, else_ } => {
                if cond.eval(fr)? {
                    ip += 1;
                } else {
                    ip = *else_;
                }
            }
            Instr::Jump { target } => ip = *target,
            Instr::AccumF { buf, index, rest } => {
                exec_accum_f(fr, *buf, index, rest)?;
                ip += 1;
            }
            Instr::StoreF { buf, index, value } => {
                exec_store_f(fr, *buf, index, value)?;
                ip += 1;
            }
            Instr::StoreI { buf, index, value } => {
                exec_store_i(fr, *buf, index, value)?;
                ip += 1;
            }
            Instr::Alloc { buf, name, is_float, len_dims } => {
                alloc(fr, st, (*buf, name), *is_float, len_dims)?;
                ip += 1;
            }
            Instr::Free { buf } => {
                fr.bufs[*buf as usize] = st.saved.pop().expect("alloc stack underflow");
                super::free_local(fr);
                st.rebound(*buf);
                ip += 1;
            }
            Instr::EvalV(v) => {
                v.eval_for_effect(fr)?;
                ip += 1;
            }
            Instr::Mma(op) => {
                exec_mma(fr, &op.c, &op.a, &op.b, op.m, op.n, op.k)?;
                ip += 1;
            }
            Instr::Super { spec, done } => {
                let n = spec.extent.eval(fr)?;
                if n <= 0 || spec.try_fast(fr, n).is_some() {
                    ip = *done;
                } else {
                    // Microkernel preconditions failed before any write:
                    // fall through into the generic loop behind us, which
                    // reproduces the interpreter's exact behavior.
                    ip += 1;
                }
            }
            Instr::Nest { block, end: lend, .. } => {
                ip = run_entry(code, ip, block, *lend, fr, st)?;
            }
            Instr::Rows { spec, end: lend } => {
                ip = run_rows(code, ip, spec, *lend, fr, st)?;
            }
            Instr::Fail(msg) => return Err(ExecError::new(msg.clone())),
        }
    }
    Ok(())
}

/// Execute an [`Instr::Alloc`] (once per launch or so: kept out of the
/// dispatch loop): a zeroed staging buffer of the evaluated extents'
/// product — an extent no buffer can have is an error, not an allocator
/// panic — bound over whatever `buf` named before.
#[inline(never)]
fn alloc(
    fr: &mut Frame,
    st: &mut State,
    (buf, name): (u32, &str),
    is_float: bool,
    len_dims: &[IntExpr],
) -> Result<(), ExecError> {
    let dims = len_dims.iter().map(|d| d.eval(fr)).collect::<Result<Vec<_>, _>>()?;
    let len = crate::eval::alloc_len(name, &dims).map_err(ExecError::new)?;
    let mut data = super::alloc_local(fr, is_float, len);
    let view = RawBuf::of(&mut data);
    fr.locals.push(data);
    st.saved.push(fr.bufs[buf as usize]);
    fr.bufs[buf as usize] = view;
    st.rebound(buf);
    Ok(())
}

/// Execute the nest at `ip` as a block of one entry (kept out of line:
/// the dispatch loop's other arms should not pay for its state): returns
/// the next `ip` — `end` when the block took every trip, else the generic
/// loop right behind the nest, entered at the first trip the block could
/// not take.
#[inline(never)]
fn run_entry<'c>(
    code: &'c [Instr],
    ip: u32,
    block: &'c Block,
    end: u32,
    fr: &mut Frame,
    st: &mut State<'c>,
) -> Result<u32, ExecError> {
    let (done, trips) = match run_block(code, ip, block, 1, fr, st) {
        Exit::Done => return Ok(end),
        Exit::Plain => {
            st.counts.entries += 1;
            st.counts.handovers += 1;
            (0, None)
        }
        Exit::Handover { done, trips, .. } => (done, trips),
    };
    generic(code, ip, done, trips, fr, st)
}

/// Run rows `0..rows` of `block` on the nest at `nest_at`, against the walk
/// state this launch keeps for the nest — established, and its tests
/// solved, by the first block over the nest to run.
fn run_block<'c>(
    code: &'c [Instr],
    nest_at: u32,
    block: &'c Block,
    rows: i64,
    fr: &mut Frame,
    st: &mut State<'c>,
) -> Exit {
    let Instr::Nest { spec, id, .. } = &code[nest_at as usize] else {
        unreachable!("a block runs a nest")
    };
    let Instr::Super { spec: lanes, .. } = &code[spec.lanes_at as usize] else {
        unreachable!("a nest's lane loop is a superinstruction")
    };
    let id = *id as usize;
    if st.kept.len() <= id {
        st.kept.resize_with(id + 1, || None);
    }
    let kept = st.kept[id].get_or_insert_with(|| Kept {
        walks: Trips::establish(spec, &spec.entry, lanes, fr),
        at: nest_at,
    });
    let Some(at) = kept.walks.as_mut() else { return Exit::Plain };
    if matches!(at.rows, Solve::Unsolved) {
        at.rows = block.solve(spec, lanes, at, fr).map_or(Solve::Unfit, Solve::Ready);
    }
    block.run(spec, at, fr, &mut st.step, rows, &mut st.counts)
}

/// Enter the generic loop behind the nest at `nest_at` at trip `done` of
/// `trips` — when the trip count is not known, evaluating it as the loop's
/// `LoopStart` would — every earlier trip's writes being exactly its own.
fn generic(
    code: &[Instr],
    nest_at: u32,
    done: i64,
    trips: Option<i64>,
    fr: &mut Frame,
    st: &mut State,
) -> Result<u32, ExecError> {
    let Instr::Nest { spec, end, .. } = &code[nest_at as usize] else {
        unreachable!("a block runs a nest")
    };
    let n = match trips {
        Some(n) => n,
        None => spec.extent.eval(fr)?,
    };
    if done >= n {
        return Ok(*end);
    }
    fr.scalars[spec.slot as usize] = done;
    st.loops.push(LoopFrame { slot: spec.slot, body: nest_at + 1, i: done, n });
    Ok(nest_at + 1)
}

/// Execute the row block at `ip` (out of line, like [`run_entry`]):
/// returns the next `ip` — `end` when the block took every row, else the
/// loop body right behind it, entered as the loop would at the first row
/// the block could not take (or, with no way into a block, at row 0), and
/// inside it the nest's generic loop at the trip the block stopped at.
#[inline(never)]
fn run_rows<'c>(
    code: &'c [Instr],
    ip: u32,
    plan: &'c RowPlan,
    end: u32,
    fr: &mut Frame,
    st: &mut State<'c>,
) -> Result<u32, ExecError> {
    let n = plan.extent.eval(fr)?;
    if n <= 0 {
        return Ok(end);
    }
    let (row, done, trips) = match run_block(code, plan.nest_at, &plan.block, n, fr, st) {
        Exit::Done => {
            // Where the loop's back edge leaves its variable.
            fr.scalars[plan.slot as usize] = n - 1;
            return Ok(end);
        }
        Exit::Plain => {
            // As the loop's `LoopStart` would.
            fr.scalars[plan.slot as usize] = 0;
            st.loops.push(LoopFrame { slot: plan.slot, body: ip + 1, i: 0, n });
            return Ok(ip + 1);
        }
        Exit::Handover { row, done, trips } => (row, done, trips),
    };
    // Inside the loop over the rows, at `row`.
    fr.scalars[plan.slot as usize] = row;
    st.loops.push(LoopFrame { slot: plan.slot, body: ip + 1, i: row, n });
    generic(code, plan.nest_at, done, trips, fr, st)
}
