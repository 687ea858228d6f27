//! The `kernel_*` workloads: one graph, one op suite, run pass after
//! pass. Each pass builds → lowers → schedules → cold-compiles (fresh
//! `Runtime`) → binds → runs every op, checks the output against the f64
//! oracle and runs the native f32 kernel on the same inputs, so executor
//! and yardstick alternate under identical cache conditions.

use crate::inputs::{csr_ref, power_law_csr};
use crate::native::{self, Oracle};
use crate::stats::{geomean, Metrics, Samples};
use crate::trace::{Trace, TID_DETACHED, TID_MAIN};
use crate::{Counts, Res, Run, RunCfg};
use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_kernels::prelude::*;
use sparsetir_smat::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

pub const OPS: [&str; 4] = ["csr_spmm", "hyb_spmm", "sddmm", "fused_attention"];
/// The buffer each op's kernel writes its result to.
const OUT: [&str; 4] = ["C", "C", "Bout", "Out"];
const HYB_C: usize = 2;
const HYB_K: u32 = 3;

pub struct KernelSpec {
    pub n: usize,
    pub mean_deg: f64,
    pub d: usize,
}

struct State {
    d: usize,
    a: Csr,
    /// `n × d`: SpMM's `B`, attention's `V`.
    b: Dense,
    /// `n × d`: SDDMM's `X`, attention's `Q`.
    x: Dense,
    /// `d × n`: SDDMM's `Y`, attention's `KT`.
    yt: Dense,
    hyb: SpmmConfig,
    oracle: [Oracle; 4],
    /// Useful multiply-adds per run of each op.
    fma: [f64; 4],
    native_out: Vec<f32>,
    native_scratch: Vec<f32>,
    gen_ms: f64,
}

impl State {
    /// Run op `op`'s native kernel into `native_out`; returns the slice
    /// it wrote.
    fn native(&mut self, op: usize) -> &[f32] {
        let (n, d, nnz) = (self.a.rows(), self.d, self.a.nnz());
        let mut out = std::mem::take(&mut self.native_out);
        let mut scratch = std::mem::take(&mut self.native_scratch);
        let len = match op {
            0 | 1 => {
                native::spmm_f32(csr_ref(&self.a), self.b.data(), d, &mut out[..n * d]);
                n * d
            }
            2 => {
                let (x, y) = (self.x.data(), self.yt.data());
                native::sddmm_f32(csr_ref(&self.a), x, y, d, &mut scratch, &mut out[..nnz]);
                nnz
            }
            _ => {
                let (q, kt, v) = (self.x.data(), self.yt.data(), self.b.data());
                let o = &mut out[..n * d];
                native::attention_f32(csr_ref(&self.a), q, kt, v, d, d, &mut scratch, o);
                n * d
            }
        };
        self.native_out = out;
        self.native_scratch = scratch;
        &self.native_out[..len]
    }
}

fn generate(spec: &KernelSpec, seed: u64) -> State {
    let t0 = Instant::now();
    let mut rng = gen::rng(seed);
    let a = power_law_csr(spec.n, spec.mean_deg, &mut rng);
    let gen_ms = crate::stats::ms(t0.elapsed());
    let (n, d) = (spec.n, spec.d);
    let b = gen::random_dense(n, d, &mut rng);
    let x = gen::random_dense(n, d, &mut rng);
    let yt = gen::random_dense(d, n, &mut rng);
    let r = csr_ref(&a);
    let spmm = || native::spmm_f64(r, b.data(), d);
    let oracle = [
        spmm(),
        spmm(),
        native::sddmm_f64(r, x.data(), yt.data(), d),
        native::attention_f64(r, x.data(), yt.data(), b.data(), d, d),
    ];
    let work = (a.nnz() * d) as f64;
    let hyb = SpmmConfig { col_parts: Some(HYB_C), bucket_k: HYB_K, ..SpmmConfig::default_csr() };
    let native_out = vec![0.0; (n * d).max(a.nnz())];
    State {
        d,
        hyb,
        oracle,
        fma: [work, work, work, 2.0 * work],
        native_out,
        native_scratch: Vec::new(),
        gen_ms,
        a,
        b,
        x,
        yt,
    }
}

/// The `csr_spmm_ir` pipeline taken apart at its layer boundaries, so
/// program build, lowering and scheduling are timed separately.
fn build_csr_spmm(
    st: &State,
    tr: &mut Trace,
    pid: Option<usize>,
    s: &mut Samples,
) -> Res<(PrimFunc, f64)> {
    let (a, d) = (&st.a, st.d);
    let (program, t_build) = tr
        .time("core.program_build", pid, TID_MAIN, || spmm_program(a.rows(), a.cols(), a.nnz(), d));
    let (lowered, t_lower) = tr.time("core.lower", pid, TID_MAIN, || lower(&program));
    let lowered = lowered?;
    let (func, t_sched) = tr.time("ir.schedule", pid, TID_MAIN, || {
        let mut sch = Schedule::new(lowered);
        sch.bind("i", ThreadAxis::BlockIdxX)?;
        let (_, ki) = sch.split("k", 32.min(d as i64).max(1))?;
        sch.bind(&ki, ThreadAxis::ThreadIdxX)?;
        Ok::<_, ScheduleError>(sch.into_func())
    });
    s.push("core.program_build", t_build);
    s.push("core.lower", t_lower);
    s.push("ir.schedule", t_sched);
    Ok((func?, t_build + t_lower + t_sched))
}

/// Build op `op`'s Stage III function. hyb comes back from
/// `prepare_spmm` already bound, the others bind in [`bind`].
fn build(
    op: usize,
    st: &State,
    tr: &mut Trace,
    pid: Option<usize>,
    s: &mut Samples,
) -> Res<(PrimFunc, Option<Bindings>, f64)> {
    if op == 0 {
        let (func, ms) = build_csr_spmm(st, tr, pid, s)?;
        return Ok((func, None, ms));
    }
    let (a, d) = (&st.a, st.d);
    let (built, ms) = tr.time("kernels.ir_build", pid, TID_MAIN, || match op {
        1 => prepare_spmm(a, &st.b, &st.hyb).map(|p| (p.func, Some(p.bindings))),
        2 => sddmm_ir(a, d).map(|f| (f, None)),
        _ => fused_attention_ir(a, 1, d, d).map(|f| (f, None)),
    });
    s.push(&format!("kernels.ir_build.{}", OPS[op]), ms);
    let (func, bound) = built?;
    Ok((func, bound, ms))
}

fn bind(op: usize, st: &State) -> Bindings {
    let a = &st.a;
    let mut b = Bindings::new();
    bind_csr(&mut b, "A", "J", a);
    match op {
        0 => {
            bind_dense(&mut b, "B", &st.b);
            bind_zeros(&mut b, "C", a.rows() * st.d);
        }
        2 => {
            bind_dense(&mut b, "X", &st.x);
            bind_dense(&mut b, "Y", &st.yt);
            bind_zeros(&mut b, "Bout", a.nnz());
        }
        _ => {
            bind_dense(&mut b, "Q", &st.x);
            bind_dense(&mut b, "KT", &st.yt);
            bind_dense(&mut b, "V", &st.b);
            for (name, len) in [("S", a.nnz()), ("M", a.rows()), ("P", a.nnz()), ("Sum", a.rows())]
            {
                bind_zeros(&mut b, name, len);
            }
            bind_zeros(&mut b, "Out", a.rows() * st.d);
        }
    }
    b
}

struct OpRun {
    cold_ms: f64,
    pipeline_ms: f64,
    run_ms: f64,
    native_ms: f64,
    ok: bool,
}

fn run_op(
    op: usize,
    st: &mut State,
    tr: &mut Trace,
    pid: Option<usize>,
    s: &mut Samples,
) -> Res<OpRun> {
    let name = OPS[op];
    let (func, prebound, build_ms) = build(op, st, tr, pid, s)?;
    let rt = Runtime::new();
    let (kernel, compile_ms) = tr.time("ir.compile", pid, TID_MAIN, || rt.compile(&func));
    let kernel = kernel?;
    s.push(&format!("ir.compile.{name}"), compile_ms);
    let (mut bindings, bind_ms) = match prebound {
        Some(b) => (b, 0.0),
        None => tr.time("bench.bind", pid, TID_MAIN, || bind(op, st)),
    };
    let (ran, run_ms) =
        tr.time("ir.run", pid, TID_MAIN, || kernel.run(&HashMap::new(), &mut bindings));
    ran?;
    s.push(&format!("ir.run.{name}"), run_ms);
    let (ok, _) = tr.time("bench.check", pid, TID_MAIN, || {
        bindings.get(OUT[op]).is_some_and(|t| st.oracle[op].matches(t.as_f32()))
    });
    let (_, native_ms) = tr.time("native.run", pid, TID_MAIN, || {
        std::hint::black_box(st.native(op));
    });
    s.push(&format!("native.run.{name}"), native_ms);
    // Paired within the pass: executor and yardstick ran back to back, so
    // a drift in machine speed cancels in the ratio.
    s.push(&format!("ratio.{name}"), run_ms / native_ms);
    let cold_ms = build_ms + compile_ms;
    Ok(OpRun { cold_ms, pipeline_ms: cold_ms + bind_ms + run_ms, run_ms, native_ms, ok })
}

/// One pass over the suite. An op that errors or answers wrong is a
/// failed operation; the pass goes on.
fn pass(st: &mut State, tr: &mut Trace, s: &mut Samples, counts: &mut Counts) {
    let pid = tr.on().then(|| tr.open("pass", Instant::now(), TID_MAIN));
    let (mut cold, mut run, mut pipeline, mut native) = (0.0, 0.0, 0.0, 0.0);
    for (op, name) in OPS.iter().enumerate() {
        counts.attempted += 1;
        match run_op(op, st, tr, pid, s) {
            Ok(r) => {
                cold += r.cold_ms;
                run += r.run_ms;
                pipeline += r.pipeline_ms;
                native += r.native_ms;
                if !r.ok {
                    eprintln!("stbench: {name} answered wrong");
                    counts.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("stbench: {name} failed: {e}");
                counts.failed += 1;
            }
        }
    }
    if let Some(pid) = pid {
        tr.close(pid, Instant::now());
    }
    s.push("pass.cold", cold);
    s.push("pass.run", run);
    s.push("pass.pipeline", pipeline);
    s.push("pass.cold_ratio", cold / native);
    s.push("pass.capacity_ratio", pipeline / native);
}

/// Everything before the window: inputs, oracles, a check that the
/// yardstick itself is right, and one warm-up pass (first compile, pool
/// fill, page faults).
fn setup(spec: &KernelSpec, seed: u64) -> Res<State> {
    let mut st = generate(spec, seed);
    for (op, name) in OPS.iter().enumerate() {
        let out = st.native(op).to_vec();
        if !st.oracle[op].matches(&out) {
            return Err(format!("native {name} disagrees with the f64 oracle").into());
        }
    }
    let mut warm = Counts::default();
    pass(&mut st, &mut Trace::new(false), &mut Samples::default(), &mut warm);
    if warm.failed > 0 {
        return Err("warm-up pass failed".into());
    }
    Ok(st)
}

pub fn setup_only(spec: &KernelSpec, seed: u64) -> Res<()> {
    setup(spec, seed).map(drop)
}

fn native_ratio(s: &Samples) -> f64 {
    geomean(&OPS.iter().map(|op| s.p50(&format!("ratio.{op}"))).collect::<Vec<_>>())
}

/// Every bounded metric is a ratio against the native kernels that ran in
/// the same pass, so a drift in machine speed cancels.
fn end_to_end(s: &Samples) -> Metrics {
    let mut m = Metrics::default();
    m.set("native_ratio", native_ratio(s), "ratio", s.n("pass.run"));
    m.p50("cold_ratio", s, "pass.cold_ratio", 1.0, "ratio");
    m.p50("capacity_ratio", s, "pass.capacity_ratio", 1.0, "ratio");
    m
}

/// The same quantities in absolute units, unbounded: every pass is the
/// same work, so they take the quiet-machine estimate.
fn absolute(s: &Samples, counts: &Counts, m: &mut Metrics) {
    let passes = s.n("pass.run");
    m.set("bench.latency_ms", s.quiet("pass.run"), "ms", passes);
    m.set("bench.cold_ms", s.quiet("pass.cold"), "ms", passes);
    let ok_per_pass = (counts.attempted - counts.failed) as f64 / passes as f64;
    m.set("bench.ops_per_s", ok_per_pass * 1e3 / s.quiet("pass.pipeline"), "1/s", passes);
}

/// Number of bytecode instructions in a disassembly listing (the lines
/// after the header that start with a four-digit address).
fn instr_count(listing: &str) -> usize {
    listing
        .lines()
        .filter(|l| l.len() > 4 && l.as_bytes()[..4].iter().all(u8::is_ascii_digit))
        .count()
}

/// Standalone calls made after the traced window: layer costs that sit
/// inside a larger product call during a pass (hyb build, decomposition,
/// the whole `csr_spmm_ir`), the warm cache lookup, and the exact counts.
fn probe_layers(st: &State, tr: &mut Trace, s: &mut Samples, m: &mut Metrics) -> Res<()> {
    const REPS: usize = 7;
    let (a, d) = (&st.a, st.d);
    for _ in 0..REPS {
        let (hyb, t) =
            tr.time("smat.hyb_build", None, TID_DETACHED, || Hyb::from_csr(a, HYB_C, HYB_K));
        s.push("smat.hyb_build", t);
        let hyb = hyb?;
        let program = spmm_program(a.rows(), a.cols(), a.nnz(), d);
        let mut rules = Vec::new();
        for (pi, part) in hyb.partitions().iter().enumerate() {
            for bucket in part.buckets.iter().filter(|b| !b.is_empty()) {
                let tag = format!("p{pi}_w{}", bucket.width);
                rules.push(FormatRewriteRule::bucket_ell(
                    "A",
                    &tag,
                    bucket.width,
                    bucket.len(),
                    a.cols(),
                ));
            }
        }
        let (decomposed, t) =
            tr.time("core.decompose", None, TID_DETACHED, || decompose_format(&program, &rules));
        decomposed?;
        s.push("core.decompose", t);
        let (f, t) = tr.time("kernels.ir_build", None, TID_DETACHED, || csr_spmm_ir(a, d));
        f?;
        s.push("kernels.ir_build.csr_spmm", t);
    }
    let rt = Runtime::new();
    let mut quiet = Trace::new(false);
    for (op, name) in OPS.iter().enumerate() {
        let (func, _, _) = build(op, st, &mut quiet, None, &mut Samples::default())?;
        let kernel = rt.compile(&func)?;
        m.set(
            &format!("core.stage3_lines.{name}"),
            print_func(&func).lines().count() as f64,
            "count",
            1,
        );
        let instrs = instr_count(&kernel.disassemble());
        m.set(&format!("ir.bytecode_instrs.{name}"), instrs as f64, "count", 1);
        m.set(&format!("ir.super_instrs.{name}"), kernel.fused_ops() as f64, "count", 1);
        let bytes = kernel.memory_plan().static_bytes();
        m.set(&format!("ir.static_bytes.{name}"), bytes as f64, "bytes", 1);
        if op == 0 {
            for _ in 0..4 * REPS {
                let (hit, t) = tr.time("ir.cache_lookup", None, TID_DETACHED, || rt.compile(&func));
                hit?;
                s.push("ir.cache_lookup", t);
            }
        }
    }
    Ok(())
}

fn per_layer(
    st: &State,
    tr: &mut Trace,
    s: &mut Samples,
    untraced: &Samples,
    counts: &Counts,
) -> Res<Metrics> {
    let mut m = Metrics::default();
    probe_layers(st, tr, s, &mut m)?;
    absolute(s, counts, &mut m);
    m.set("smat.gen_ms", st.gen_ms, "ms", 1);
    m.p50("smat.hyb_build_ms_p50", s, "smat.hyb_build", 1.0, "ms");
    m.p50("core.program_build_us_p50", s, "core.program_build", 1e3, "us");
    m.p50("core.lower_us_p50", s, "core.lower", 1e3, "us");
    m.p50("core.decompose_ms_p50", s, "core.decompose", 1.0, "ms");
    m.p50("ir.schedule_us_p50", s, "ir.schedule", 1e3, "us");
    m.p50("ir.cache_lookup_us_p50", s, "ir.cache_lookup", 1e3, "us");
    for (op, name) in OPS.iter().enumerate() {
        m.p50(&format!("ir.compile_us_p50.{name}"), s, &format!("ir.compile.{name}"), 1e3, "us");
        let run_key = format!("ir.run.{name}");
        m.p50(&format!("ir.run_ms_p50.{name}"), s, &run_key, 1.0, "ms");
        let ns_per_fma = s.p50(&run_key) * 1e6 / st.fma[op];
        m.set(&format!("ir.ns_per_fma.{name}"), ns_per_fma, "ns", s.n(&run_key));
        let build_key = format!("kernels.ir_build.{name}");
        m.p50(&format!("kernels.ir_build_ms_p50.{name}"), s, &build_key, 1.0, "ms");
        m.p50(&format!("native.run_ms_p50.{name}"), s, &format!("native.run.{name}"), 1.0, "ms");
    }
    m.set("bench.span_coverage_frac", tr.coverage("pass"), "fraction", s.n("pass.run"));
    let overhead = native_ratio(s) / native_ratio(untraced) - 1.0;
    m.set("bench.trace_overhead_frac", overhead, "fraction", untraced.n("pass.run"));
    Ok(m)
}

pub fn run(spec: &KernelSpec, cfg: &RunCfg) -> Res<Run> {
    let t0 = Instant::now();
    let mut st = setup(spec, cfg.seed)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut counts = Counts::default();
    let mut tr = Trace::new(cfg.trace);
    let mut s = Samples::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let metrics = if cfg.trace {
        // Traced and untraced passes alternate, so the reference the
        // tracing overhead is measured against sees the same machine.
        let mut untraced = Samples::default();
        let mut traced = Counts::default();
        while Instant::now() < deadline {
            pass(&mut st, &mut Trace::new(false), &mut untraced, &mut counts);
            pass(&mut st, &mut tr, &mut s, &mut traced);
        }
        let metrics = per_layer(&st, &mut tr, &mut s, &untraced, &traced)?;
        counts.attempted += traced.attempted;
        counts.failed += traced.failed;
        metrics
    } else {
        while Instant::now() < deadline {
            pass(&mut st, &mut tr, &mut s, &mut counts);
        }
        end_to_end(&s)
    };
    Ok(Run { setup_s, counts, metrics, trace: tr })
}
