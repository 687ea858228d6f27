//! Stable text disassembly of flat kernel bytecode.
//!
//! [`render`] produces a deterministic listing — header, parameter and
//! buffer tables, the scalar-slot table, then one line per instruction —
//! designed for golden-file tests on codegen: any change to lowering,
//! fusion matching or slot allocation shows up as a readable diff.
//! Scalar slots print as `%N`, buffer slots as `@N` (both resolvable via
//! the tables), jump targets as zero-padded absolute instruction
//! addresses. A row nest prints its entry program on an unnumbered
//! `entry:` line under its `nest.*` line.

use super::bytecode::{Code, Instr};
use super::fuse::{
    Combine, Drift, EntryProgram, Extent, IndexPlan, InitKind, LaneSpec, LaneView, Lin, NestSpec,
    Ratio, Reg, RowPlan, TermShape, TermSpec, Value,
};
use super::{
    BoolExpr, CmpOp, CompiledKernel, CompiledTile, FloatExpr, FloatOp, IndexExpr, IntExpr, IntOp,
    ValueExpr,
};
use std::fmt::Write as _;

pub(super) fn render(k: &CompiledKernel, code: &Code) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ";; kernel `{}` fuse={}", k.name, if k.fuse { "on" } else { "off" });
    if k.n_params == 0 {
        out.push_str(";; params: (none)\n");
    } else {
        let params = k.slot_names[..k.n_params as usize].iter().enumerate();
        let cells: Vec<String> = params.map(|(slot, name)| format!("%{slot}={name}")).collect();
        let _ = writeln!(out, ";; params: {}", cells.join("  "));
    }
    out.push_str(";; buffers:\n");
    for (slot, e) in k.plan.entries.iter().enumerate() {
        let dtype = match (e.local, e.is_float) {
            (true, _) => "local",
            (false, true) => "f32",
            (false, false) => "i32",
        };
        let _ = writeln!(out, ";;   @{slot} = {} : {dtype}", e.name);
    }
    out.push_str(";; slots:\n");
    for (slot, name) in k.slot_names.iter().enumerate() {
        let _ = writeln!(out, ";;   %{slot} = {name}");
    }
    let _ = writeln!(out, ";; superinstructions: {}", code.fused_ops());
    out.push_str(";; memory plan:\n");
    for (slot, e) in k.plan.entries.iter().enumerate() {
        let dtype = if e.is_float { "f32" } else { "i32" };
        let len = match (e.len, &e.symbolic) {
            (Some(l), _) => l.to_string(),
            (None, Some(shape)) => shape.clone(),
            (None, None) => "?".to_string(),
        };
        let kind = if e.local { " local pooled" } else { "" };
        let _ = writeln!(out, ";;   @{slot} = {} : {dtype}[{len}]{kind}", e.name);
    }
    out.push('\n');
    for (at, ins) in code.instrs().iter().enumerate() {
        let _ = writeln!(out, "{at:04}  {}", instr(ins, code.instrs()));
        if let Instr::Nest { spec, .. } = ins {
            let _ = writeln!(out, "      {}", entry(&spec.entry, spec.ratio));
        }
    }
    out
}

fn instr(ins: &Instr, code: &[Instr]) -> String {
    match ins {
        Instr::LoopStart { slot, extent, end } => {
            format!("for        %{slot} in 0..{}, end={end:04}", int(extent))
        }
        Instr::LoopEnd => "end".to_string(),
        Instr::Bind { slot, value } => format!("bind       %{slot} = {}", int(value)),
        Instr::BindSlot { slot, src } => format!("mov        %{slot} = %{src}"),
        Instr::BindAll { iters } => {
            let binds: Vec<String> =
                iters.iter().map(|(slot, value)| format!("%{slot} = {}", int(value))).collect();
            format!("bind.all   {}", binds.join(", "))
        }
        Instr::BlockHead { iters, init_end } => {
            let binds: Vec<String> = iters
                .iter()
                .map(|(slot, value, is_reduce)| {
                    let mark = if *is_reduce { " [r]" } else { "" };
                    format!("%{slot} = {}{mark}", int(value))
                })
                .collect();
            format!("block      {}, skip.init -> {init_end:04}", binds.join(", "))
        }
        Instr::Branch { cond, else_ } => {
            format!("br.false   {} -> {else_:04}", boolean(cond))
        }
        Instr::Jump { target } => format!("jmp        -> {target:04}"),
        Instr::StoreF { buf, index, value } => {
            format!("st.f32     @{buf}[{}] = {}", index_expr(index), float(value))
        }
        Instr::AccumF { buf, index, rest } => {
            format!("acc.f32    @{buf}[{}] += {}", index_expr(index), float(rest))
        }
        Instr::StoreI { buf, index, value } => {
            format!("st.i32     @{buf}[{}] = {}", index_expr(index), int(value))
        }
        Instr::Alloc { buf, is_float, len_dims, .. } => {
            let dims: Vec<String> = len_dims.iter().map(int).collect();
            let dtype = if *is_float { "f32" } else { "i32" };
            format!("alloc      @{buf} = {dtype}[{}]", dims.join(", "))
        }
        Instr::Free { buf } => format!("free       @{buf}"),
        Instr::EvalV(v) => format!("eval       {}", value(v)),
        Instr::Mma(op) => format!(
            "mma        {} += {} x {}, m={} n={} k={}",
            tile(&op.c),
            tile(&op.a),
            tile(&op.b),
            op.m,
            op.n,
            op.k
        ),
        Instr::Super { spec, done } => format!("{} -> {done:04}", superinstr(spec)),
        Instr::Nest { spec, end, .. } => nest(spec, &code[spec.lanes_at as usize], *end),
        Instr::Rows { spec, end } => rows(spec, *end),
        Instr::Fail(msg) => format!("fail       {msg:?}"),
    }
}

/// One line per row nest: the outer slot and extent, then how each
/// quantity of the lane prologue (the superinstruction `lanes`) moves with
/// the trip — `row` (not at all), `+step` per trip, `gather*scale` through
/// the nest's one index load.
fn nest(spec: &NestSpec, lanes: &Instr, end: u32) -> String {
    let Instr::Super { spec: lanes, .. } = lanes else {
        unreachable!("a nest's lane loop is a superinstruction")
    };
    let mnemonic = format!("nest.{:<4}", lanes.op.kind().1);
    let moves = |step: i64, scale: i64| match (step, scale) {
        (0, 0) => "row".to_string(),
        (s, 0) => format!("{s:+}"),
        (0, g) => format!("gather*{g}"),
        (s, g) => format!("gather*{g}{s:+}"),
    };
    let drift = |d: &Option<Drift>| d.map_or_else(|| "row".to_string(), |d| moves(d.step, d.scale));
    let mut out = format!(
        "{mnemonic}  %{} in 0..{}, end={end:04}, lanes=%{}",
        spec.slot,
        int(&spec.extent),
        lanes.lane_slot
    );
    if !spec.pins.is_empty() {
        let pins: Vec<String> = spec.pins.iter().map(|(s, c)| format!("%{s}={c}")).collect();
        let _ = write!(out, ", pin=[{}]", pins.join(", "));
    }
    if let Some(g) = &spec.gather {
        let _ = write!(out, ", gather=@{}[{}]{:+}", g.buf, index_expr(&g.index), g.drift.step);
    }
    let _ = write!(out, ", dst={}", drift(&spec.views[0]));
    if !matches!(lanes.op.value, Value::Hoisted(_)) {
        let _ = write!(out, " a={} b={}", drift(&spec.views[1]), drift(&spec.views[2]));
        let _ = write!(out, " coeff={}", ratio(spec.ratio, drift(&spec.coeff), "row"));
    }
    if !spec.reduce_moves.is_empty() {
        let iters: Vec<String> = spec
            .reduce_moves
            .iter()
            .map(|(slot, step, scale)| format!("%{slot} {}", moves(*step, *scale)))
            .collect();
        let _ = write!(out, ", reduce=[{}]", iters.join("; "));
    }
    out
}

/// One line per row block: the loop's slot and extent, the nest the rows
/// enter, and the layout its rows run on.
fn rows(spec: &RowPlan, end: u32) -> String {
    let (slot, extent, nest, layout) =
        (spec.slot, int(&spec.extent), spec.nest_at, spec.block.layout());
    format!("rows       %{slot} in 0..{extent}, end={end:04}, nest={nest:04}, layout={layout}")
}

/// The entry program of a row nest: its load registers (`$k`, in
/// evaluation order; slot registers print as the slot), then every pin over
/// them — the trip count, where the gather (and the register holding what
/// it loads at trip 0) and each view start, the reduce iters.
fn entry(prog: &EntryProgram, ratio_of: Option<Ratio>) -> String {
    let lin = |l: &Lin| {
        let mut out = String::new();
        for &(coef, reg) in &l.terms {
            let name = match &prog.regs[usize::from(reg)] {
                Reg::Slot(s) => format!("%{s}"),
                Reg::Load { .. } => format!("${reg}"),
            };
            let sign = if coef < 0 {
                "-"
            } else if out.is_empty() {
                ""
            } else {
                "+"
            };
            let by = if coef.unsigned_abs() == 1 {
                String::new()
            } else {
                format!("{}*", coef.unsigned_abs())
            };
            let _ = write!(out, "{sign}{by}{name}");
        }
        if out.is_empty() {
            return l.konst.to_string();
        }
        if l.konst != 0 {
            let _ = write!(out, "{:+}", l.konst);
        }
        out
    };
    let at = |p: &IndexPlan| {
        let dim = |(i, d): &(Lin, Extent)| match d {
            Extent::Const(d) => format!("{}<{d}", lin(i)),
            Extent::Param(slot) => format!("{}<%{slot}", lin(i)),
        };
        let dims: Vec<String> = p.dims.iter().map(dim).collect();
        format!("[{}]", dims.join(", "))
    };
    let loads = prog.regs.iter().enumerate().filter_map(|(k, reg)| match reg {
        Reg::Load { buf, at: pos } => Some(format!("${k}=@{buf}{}", at(pos))),
        Reg::Slot(_) => None,
    });
    let mut pins = vec![format!("extent={}", lin(&prog.extent))];
    if let Some((pos, reg)) = &prog.gather {
        pins.push(format!("gather=${reg}@{}", at(pos)));
    }
    let views = prog.views.iter().zip(["dst", "a", "b"]);
    pins.extend(views.filter_map(|(pos, name)| Some(format!("{name}@{}", at(pos.as_ref()?)))));
    if let Some(pos) = &prog.coeff {
        let factor =
            prog.factor.as_ref().map_or("const".to_string(), |(buf, f)| format!("@{buf}{}", at(f)));
        pins.push(format!("coeff@{}", ratio(ratio_of, at(pos), &factor)));
    }
    if !prog.reduce.is_empty() {
        let iters: Vec<String> =
            prog.reduce.iter().map(|(slot, v)| format!("%{slot}={}", lin(v))).collect();
        pins.push(format!("reduce=[{}]", iters.join("; ")));
    }
    let loads: Vec<String> = loads.collect();
    let sep = if loads.is_empty() { "" } else { "; " };
    format!("entry: {}{sep}{}", loads.join(", "), pins.join(", "))
}

/// A walked coefficient's `load` as the trips combine it with a
/// [`Ratio`]'s `factor`, in the source's operand order.
fn ratio(r: Option<Ratio>, load: String, factor: &str) -> String {
    match r {
        None => load,
        Some(r) if r.load_first => format!("{load}{}{factor}", float_op(r.op)),
        Some(r) => format!("{factor}{}{load}", float_op(r.op)),
    }
}

fn superinstr(spec: &LaneSpec) -> String {
    let op = &spec.op;
    let value = match &op.value {
        Value::Hoisted(value) => format!("val={}", float(value)),
        Value::Term(t) if op.combine == Combine::Max => format!("val=fmax(dst, {})", term_spec(t)),
        Value::Term(t) => format!("term={}", term_spec(t)),
        Value::ExpDiff(a, b) => format!("val=exp(({} - {}))", lane_view(a), lane_view(b)),
    };
    let iters: Vec<String> = spec
        .iters
        .iter()
        .map(|it| {
            format!(
                "%{}={} [{}{:+}]",
                it.slot,
                int(&it.binding),
                if it.is_reduce { "r" } else { "s" },
                it.stride
            )
        })
        .collect();
    // A coalesced `k_o × k_i` nest runs as one lane loop: name both slots
    // so the chosen lane width is visible next to the split it undoes.
    let coalesced = spec
        .outer_slot
        .map_or_else(String::new, |o| format!(" (coalesced %{o}\u{d7}%{})", spec.lane_slot));
    format!(
        "super.{:<4} %{} in 0..{}{coalesced}, dst={} {value}, init={}, iters=[{}]",
        op.kind().1,
        spec.lane_slot,
        int(&spec.extent),
        lane_view(&op.dst),
        init_kind(&spec.init),
        iters.join("; ")
    )
}

fn init_kind(init: &InitKind) -> String {
    match init {
        InitKind::None => "none".to_string(),
        InitKind::Always { value } => format!("always({})", float(value)),
        InitKind::WhenReduceZero { value } => format!("when-reduce-zero({})", float(value)),
        InitKind::AtZeroLane { value } => format!("at-zero-lane({})", float(value)),
    }
}

fn lane_view(v: &LaneView) -> String {
    format!("@{}[{}]{:+}", v.buf, index_expr(&v.index), v.stride)
}

fn term_spec(t: &TermSpec) -> String {
    let a = lane_view(&t.a);
    let b = t.b.as_ref().map(lane_view);
    let c = t.coeff.as_ref().map(float);
    let (b, c) = (b.as_deref().unwrap_or("?"), c.as_deref().unwrap_or("?"));
    match t.shape {
        TermShape::AOnly => a,
        TermShape::CoeffA => format!("({c} * {a})"),
        TermShape::ACoeff => format!("({a} * {c})"),
        TermShape::AB => format!("({a} * {b})"),
        TermShape::CoeffAB => format!("(({c} * {a}) * {b})"),
        TermShape::ACoeffB => format!("(({a} * {c}) * {b})"),
        TermShape::CoeffParenAB => format!("({c} * ({a} * {b}))"),
    }
}

fn tile(t: &CompiledTile) -> String {
    format!("@{}[{} +r*{}]", t.buf, int(&t.offset), int(&t.row_stride))
}

fn value(v: &ValueExpr) -> String {
    match v {
        ValueExpr::I(e) => int(e),
        ValueExpr::F(e) => float(e),
        ValueExpr::B(e) => boolean(e),
    }
}

fn index_expr(ix: &IndexExpr) -> String {
    let dims: Vec<String> =
        ix.dims.iter().map(|(idx, ext)| format!("{}<{}", int(idx), int(ext))).collect();
    dims.join(", ")
}

fn int_op(op: IntOp) -> &'static str {
    match op {
        IntOp::Add => "+",
        IntOp::Sub => "-",
        IntOp::Mul => "*",
        IntOp::Div => "/",
        IntOp::Rem => "%",
        IntOp::Min => "min",
        IntOp::Max => "max",
    }
}

fn float_op(op: FloatOp) -> &'static str {
    match op {
        FloatOp::Add => "+",
        FloatOp::Sub => "-",
        FloatOp::Mul => "*",
        FloatOp::Div => "/",
        FloatOp::Rem => "%",
        FloatOp::Min => "min",
        FloatOp::Max => "max",
    }
}

fn cmp_op(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn int(e: &IntExpr) -> String {
    match e {
        IntExpr::Const(v) => v.to_string(),
        IntExpr::Slot(s) => format!("%{s}"),
        IntExpr::Bin { op, lhs, rhs } => match op {
            IntOp::Min | IntOp::Max => format!("{}({}, {})", int_op(*op), int(lhs), int(rhs)),
            _ => format!("({} {} {})", int(lhs), int_op(*op), int(rhs)),
        },
        IntExpr::Select { cond, then_, else_ } => {
            format!("sel({}, {}, {})", boolean(cond), int(then_), int(else_))
        }
        IntExpr::Trunc(f) => format!("i64({})", float(f)),
        IntExpr::BoolToInt(b) => format!("int({})", boolean(b)),
        IntExpr::Load { buf, index } => format!("@{buf}[{}]", index_expr(index)),
        IntExpr::BinarySearch { buf, lo, hi, x, .. } => {
            format!("bsearch(@{buf}, {}, {}, {})", int(lo), int(hi), int(x))
        }
    }
}

fn float(e: &FloatExpr) -> String {
    match e {
        // Through `f64`, which is exact: the digits name the `f32` bits.
        FloatExpr::Const(v) => format!("{:?}", f64::from(*v)),
        FloatExpr::Bin { op, lhs, rhs } => match op {
            FloatOp::Min | FloatOp::Max => {
                format!("f{}({}, {})", float_op(*op), float(lhs), float(rhs))
            }
            _ => format!("({} {} {})", float(lhs), float_op(*op), float(rhs)),
        },
        FloatExpr::Select { cond, then_, else_ } => {
            format!("sel({}, {}, {})", boolean(cond), float(then_), float(else_))
        }
        FloatExpr::FromInt(i) => format!("f32({})", int(i)),
        FloatExpr::Load { buf, index } => format!("@{buf}[{}]", index_expr(index)),
        FloatExpr::Exp(v) => format!("exp({})", float(v)),
        FloatExpr::Sqrt(v) => format!("sqrt({})", float(v)),
        FloatExpr::Relu(v) => format!("relu({})", float(v)),
    }
}

fn boolean(e: &BoolExpr) -> String {
    match e {
        BoolExpr::CmpI { op, lhs, rhs } => {
            format!("({} {} {})", int(lhs), cmp_op(*op), int(rhs))
        }
        BoolExpr::CmpF { op, lhs, rhs } => {
            format!("({} {} {})", float(lhs), cmp_op(*op), float(rhs))
        }
        BoolExpr::And(l, r) => format!("({} && {})", boolean(l), boolean(r)),
        BoolExpr::Or(l, r) => format!("({} || {})", boolean(l), boolean(r)),
        BoolExpr::IntNonZero(i) => format!("({} != 0)", int(i)),
        BoolExpr::FloatNonZero(f) => format!("({} != 0.0)", float(f)),
    }
}
