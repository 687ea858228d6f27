//! The `serve_*` workloads: one generator thread drives one engine worker
//! in a closed loop, first *unloaded* (one outstanding request — the
//! delay a single caller sees) and then *loaded* (16 outstanding, oldest
//! ticket waited first — capacity with batching). Latency runs from the
//! `submit` call to `Ticket::wait` returning; the oracle check runs on the
//! generator thread after the timer stops.
//!
//! A *class* is one (kind, tenant) pair: every request of a class is the
//! same amount of work, so the spread of its latencies is interference,
//! and its lower quartile estimates the cost on a quiet machine (see
//! [`crate::stats::quiet`]).

use crate::inputs::{csr_ref, edge_delta, power_law_csr};
use crate::native;
use crate::stats::{geomean, median, ms, quantile, quiet, Metrics, Samples};
use crate::trace::{Trace, TID_DETACHED, TID_LOADED, TID_MAIN};
use crate::{Counts, Res, Run, RunCfg};
use rand::rngs::SmallRng;
use rand::Rng;
use sparsetir_autotune::tune_spmm;
use sparsetir_engine::{
    Adjacency, Engine, EngineConfig, EngineStats, OpOutput, Submission, Ticket,
};
use sparsetir_gpusim::prelude::GpuSpec;
use sparsetir_ir::prelude::Runtime;
use sparsetir_kernels::prelude::*;
use sparsetir_smat::prelude::*;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

pub const KINDS: [&str; 4] = ["spmm", "sddmm", "fused_attention", "fused_sage"];
/// Indices into [`KINDS`].
pub const SPMM: usize = 0;
pub const SDDMM: usize = 1;
pub const ATTN: usize = 2;
pub const SAGE: usize = 3;

/// Operand variants generated per class; requests draw one.
const VARIANTS: usize = 4;
/// Outstanding requests in the loaded phase.
const OUTSTANDING: usize = 16;
/// Operations per update batch.
const DELTA_OPS: usize = 64;
/// Timed repetitions of each class in the post-window replays.
const REPLAY_REPS: usize = 8;
/// Applied update batches kept for the matrix-layer replay.
const KEPT_DELTAS: usize = 64;

/// Inner widths of the served requests.
pub struct Dims {
    pub spmm: usize,
    pub sddmm: usize,
    pub attn: usize,
    pub sage_in: usize,
    pub sage_out: usize,
}

pub struct ServeSpec {
    pub tenants: usize,
    /// Tenant `t`'s graph has `n_lo + t · n_step` nodes.
    pub n_lo: usize,
    pub n_step: usize,
    pub mean_deg: f64,
    /// `(kind, weight)` traffic mix.
    pub mix: &'static [(usize, u32)],
    pub dims: Dims,
    /// Every request carries `.tune(true)`.
    pub tune: bool,
    /// Apply an update batch after this many requests (0 = never).
    pub delta_every: usize,
    /// Extra graphs, generated like the tenants' but never warmed: every
    /// `cold_probe_every`-th unloaded request goes to the next one (each
    /// serves every kind of the mix once), so a workload whose adjacencies
    /// never change still sees cold requests throughout the window.
    pub spares: usize,
    pub cold_probe_every: usize,
}

enum Operands {
    Spmm(Dense),
    Sddmm(Dense, Dense),
    Attn(AttnHead),
    Sage(Dense, Dense),
}

struct Tenant {
    adj: Adjacency,
    /// `pool[kind][variant]`; empty for kinds outside the mix.
    pool: [Vec<Operands>; 4],
}

/// `(tenant, kind, variant)`.
type Request = (usize, usize, usize);

struct State<'a> {
    spec: &'a ServeSpec,
    engine: Engine,
    /// The `spec.tenants` served tenants, then the spares.
    tenants: Vec<Tenant>,
    since_probe: usize,
    probes_done: usize,
    rng: SmallRng,
    since_delta: usize,
    /// Kinds that have not been served since the adjacency last changed:
    /// their next request needs a kernel the runtime has not compiled.
    fresh: [bool; 4],
    deltas: Vec<(Adjacency, GraphDelta)>,
    gen_ms: f64,
    /// Transpose scratch and output storage of the native kernels.
    native_buf: (Vec<f32>, Vec<f32>),
}

/// Sample key of a class: `<prefix>.<kind>.<tenant>`.
fn class_key(prefix: &str, kind: usize, tenant: usize) -> String {
    format!("{prefix}.{}.{tenant:03}", KINDS[kind])
}

fn operands(kind: usize, n: usize, d: &Dims, rng: &mut SmallRng) -> Operands {
    match kind {
        SPMM => Operands::Spmm(gen::random_dense(n, d.spmm, rng)),
        SDDMM => {
            Operands::Sddmm(gen::random_dense(n, d.sddmm, rng), gen::random_dense(d.sddmm, n, rng))
        }
        ATTN => Operands::Attn(AttnHead {
            q: gen::random_dense(n, d.attn, rng),
            kt: gen::random_dense(d.attn, n, rng),
            v: gen::random_dense(n, d.attn, rng),
        }),
        _ => Operands::Sage(
            gen::random_dense(n, d.sage_in, rng),
            gen::random_dense(d.sage_in, d.sage_out, rng),
        ),
    }
}

fn submission(ops: &Operands, tune: bool) -> Submission {
    let sub = match ops {
        Operands::Spmm(x) => Submission::spmm(x.clone()),
        Operands::Sddmm(x, y) => Submission::sddmm(x.clone(), y.clone()),
        Operands::Attn(h) => Submission::fused_attention(vec![h.clone()]),
        Operands::Sage(x, w) => Submission::fused_sage(x.clone(), w.clone()),
    };
    if tune {
        sub.tune(true)
    } else {
        sub
    }
}

/// The served answer against the benchmark's own f64 reference on the
/// adjacency the request was submitted with.
fn check(a: &Csr, ops: &Operands, out: OpOutput) -> bool {
    let r = csr_ref(a);
    match ops {
        Operands::Spmm(x) => out
            .into_dense()
            .is_ok_and(|o| native::spmm_f64(r, x.data(), x.cols()).matches(o.data())),
        Operands::Sddmm(x, y) => out
            .into_edges()
            .is_ok_and(|o| native::sddmm_f64(r, x.data(), y.data(), x.cols()).matches(&o)),
        Operands::Attn(h) => out.into_heads().is_ok_and(|heads| {
            let (q, kt, v) = (h.q.data(), h.kt.data(), h.v.data());
            let want = native::attention_f64(r, q, kt, v, h.q.cols(), h.v.cols());
            heads.len() == 1 && want.matches(heads[0].data())
        }),
        Operands::Sage(x, w) => out.into_dense().is_ok_and(|o| {
            native::sage_f64(r, x.data(), w.data(), x.cols(), w.cols()).matches(o.data())
        }),
    }
}

impl State<'_> {
    fn draw(&mut self) -> Request {
        let tenant = self.rng.gen_range(0..self.spec.tenants);
        let total: u32 = self.spec.mix.iter().map(|m| m.1).sum();
        let mut pick = self.rng.gen_range(0..total);
        let mut kind = self.spec.mix[0].0;
        for &(k, w) in self.spec.mix {
            if pick < w {
                kind = k;
                break;
            }
            pick -= w;
        }
        (tenant, kind, self.rng.gen_range(0..VARIANTS))
    }

    /// Every (kind, tenant) pair the mix can draw.
    fn classes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let tenants = self.spec.tenants;
        self.spec.mix.iter().flat_map(move |m| (0..tenants).map(move |t| (m.0, t)))
    }

    /// After every `delta_every` requests: apply a seeded update batch and
    /// move to the successor adjacency.
    fn maybe_delta(&mut self, tr: &mut Trace, s: &mut Samples, counts: &mut Counts) {
        if self.spec.delta_every == 0 {
            return;
        }
        self.since_delta += 1;
        if self.since_delta < self.spec.delta_every {
            return;
        }
        self.since_delta = 0;
        let adj = self.tenants[0].adj.clone();
        let delta = edge_delta(adj.csr(), DELTA_OPS, &mut self.rng);
        counts.attempted += 1;
        let t0 = Instant::now();
        let next = self.engine.apply_delta(&adj, &delta);
        let t1 = Instant::now();
        match next {
            Ok(next) => {
                tr.span("engine.apply_delta", t0, t1, None, TID_MAIN);
                s.push("engine.update", ms(t1 - t0));
                if self.deltas.len() < KEPT_DELTAS {
                    self.deltas.push((adj, delta));
                }
                self.tenants[0].adj = next;
                self.fresh = [true; 4];
            }
            Err(e) => {
                eprintln!("stbench: apply_delta failed: {e}");
                counts.failed += 1;
            }
        }
    }
}

/// A request whose kernel the runtime has not compiled, with the native
/// kernel for it run right after: a sample of `cold_ratio`.
fn cold_request(st: &mut State, req: Request, tr: &mut Trace, s: &mut Samples, c: &mut Counts) {
    if let Some((latency, _)) = serve_one(st, req, tr, c) {
        let kind = KINDS[req.1];
        s.push(&format!("cold.{kind}"), latency);
        s.push(&format!("cold_ratio.{kind}"), latency / native_launch(st, req));
    }
}

/// Every `cold_probe_every`-th call: one request to the next spare graph.
fn maybe_cold_probe(st: &mut State, tr: &mut Trace, s: &mut Samples, counts: &mut Counts) {
    if st.spec.cold_probe_every == 0 {
        return;
    }
    st.since_probe += 1;
    if st.since_probe < st.spec.cold_probe_every {
        return;
    }
    st.since_probe = 0;
    let kinds = st.spec.mix.len();
    let tenant = st.spec.tenants + st.probes_done / kinds;
    if tenant < st.tenants.len() {
        let kind = st.spec.mix[st.probes_done % kinds].0;
        st.probes_done += 1;
        cold_request(st, (tenant, kind, 0), tr, s, counts);
    }
}

/// One request, start to checked answer, with one outstanding. Returns
/// `(latency ms, submit-call ms)` for a correct answer; anything else is
/// counted as a failed operation.
fn serve_one(
    st: &State,
    (tenant, kind, variant): Request,
    tr: &mut Trace,
    counts: &mut Counts,
) -> Option<(f64, f64)> {
    let adj = &st.tenants[tenant].adj;
    let ops = &st.tenants[tenant].pool[kind][variant];
    let sub = submission(ops, st.spec.tune);
    counts.attempted += 1;
    let t0 = Instant::now();
    let ticket = st.engine.submit(adj, sub);
    let t1 = Instant::now();
    let out = ticket.and_then(Ticket::wait);
    let t2 = Instant::now();
    let rid = tr.on().then(|| tr.span("request", t0, t2, None, TID_MAIN));
    tr.span("engine.submit", t0, t1, rid, TID_MAIN);
    tr.span("engine.wait", t1, t2, rid, TID_MAIN);
    let (ok, _) = tr.time("bench.check", None, TID_MAIN, || match out {
        Ok(o) => check(adj.csr(), ops, o),
        Err(e) => {
            eprintln!("stbench: {} request failed: {e}", KINDS[kind]);
            false
        }
    });
    if !ok {
        counts.failed += 1;
        return None;
    }
    Some((ms(t2 - t0), ms(t1 - t0)))
}

fn unloaded(st: &mut State, seconds: f64, tr: &mut Trace, s: &mut Samples, counts: &mut Counts) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let req = st.draw();
        let (tenant, kind, _) = req;
        if let Some((latency, submit)) = serve_one(st, req, tr, counts) {
            s.push(&class_key("lat", kind, tenant), latency);
            s.push("lat.all", latency);
            s.push("engine.submit", submit);
            // The yardstick, back to back with the request it measures (the
            // generator is otherwise idle here), so a drift in machine
            // speed cancels in the ratio.
            let native = native_launch(st, req);
            s.push(&class_key("ratio", kind, tenant), latency / native);
            if std::mem::take(&mut st.fresh[kind]) {
                s.push(&format!("cold.{}", KINDS[kind]), latency);
                s.push(&format!("cold_ratio.{}", KINDS[kind]), latency / native);
            }
        }
        maybe_cold_probe(st, tr, s, counts);
        st.maybe_delta(tr, s, counts);
    }
}

struct InFlight {
    t0: Instant,
    ticket: Ticket,
    adj: Adjacency,
    req: Request,
    lane: u32,
}

/// The loaded phase: its correct-response rate, how many times longer it
/// ran than the native kernels need for the same requests, and the engine
/// counters over it.
struct Loaded {
    per_s: f64,
    capacity_ratio: f64,
    stats: EngineStats,
}

fn loaded(
    st: &mut State,
    seconds: f64,
    tr: &mut Trace,
    s: &mut Samples,
    counts: &mut Counts,
) -> Loaded {
    let before = st.engine.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    // `(completion time s, native-kernel ms)` of every correct response.
    let mut done: Vec<(f64, f64)> = Vec::new();
    let mut seq = 0u32;
    loop {
        while inflight.len() < OUTSTANDING && Instant::now() < deadline {
            let req = st.draw();
            let (tenant, kind, variant) = req;
            let adj = st.tenants[tenant].adj.clone();
            let sub = submission(&st.tenants[tenant].pool[kind][variant], st.spec.tune);
            counts.attempted += 1;
            let t0 = Instant::now();
            match st.engine.submit(&adj, sub) {
                Ok(ticket) => {
                    let lane = TID_LOADED + seq % OUTSTANDING as u32;
                    seq += 1;
                    inflight.push_back(InFlight { t0, ticket, adj, req, lane });
                }
                Err(e) => {
                    eprintln!("stbench: {} submit failed: {e}", KINDS[kind]);
                    counts.failed += 1;
                }
            }
            st.maybe_delta(tr, s, counts);
        }
        let Some(f) = inflight.pop_front() else { break };
        let out = f.ticket.wait();
        let t2 = Instant::now();
        tr.span("request.loaded", f.t0, t2, None, f.lane);
        let (tenant, kind, variant) = f.req;
        let ops = &st.tenants[tenant].pool[kind][variant];
        let (ok, _) = tr.time("bench.check", None, TID_MAIN, || match out {
            Ok(o) => check(f.adj.csr(), ops, o),
            Err(e) => {
                eprintln!("stbench: {} request failed: {e}", KINDS[kind]);
                false
            }
        });
        if ok {
            s.push("lat.loaded", ms(t2 - f.t0));
            // The yardstick for the same request, in the same half second.
            done.push(((t2 - start).as_secs_f64(), native_launch(st, f.req)));
        } else {
            counts.failed += 1;
        }
    }
    let (per_s, capacity_ratio) = slice_rates(&done, seconds);
    Loaded { per_s, capacity_ratio, stats: st.engine.stats().delta_since(&before) }
}

/// The loaded phase cut into half-second slices (the ramp-up slice and the
/// drain after the deadline are left out). Per slice: correct responses
/// per second, and the slice's length over the time the native kernels
/// need for the responses it completed. Interference from the host only
/// ever lowers a slice's count — and it can hit the worker's core while
/// sparing the generator's, so pairing with the yardstick does not cancel
/// it here — so both take the quiet quartile of the slices. Phases too
/// short to slice fall back to whole-phase averages.
fn slice_rates(done: &[(f64, f64)], seconds: f64) -> (f64, f64) {
    const SLICE_S: f64 = 0.5;
    let slices = (seconds / SLICE_S).floor() as usize;
    if slices < 4 {
        let span = done.last().map_or(seconds, |d| d.0.max(seconds));
        let native_s: f64 = done.iter().map(|d| d.1).sum::<f64>() / 1e3;
        return (done.len() as f64 / span, span / native_s);
    }
    let mut count = vec![0.0; slices];
    let mut native_ms = vec![0.0; slices];
    for &(t, native) in done {
        let i = (t / SLICE_S) as usize;
        if i < slices {
            count[i] += 1.0;
            native_ms[i] += native;
        }
    }
    let ratio: Vec<f64> = native_ms[1..].iter().map(|n| SLICE_S * 1e3 / n).collect();
    (quantile(&count[1..], 0.75) / SLICE_S, quiet(&ratio))
}

/// Everything before the window: graphs, operand pools, the engine, and
/// one request per class so first compiles, first tunes and pool fill are
/// paid here.
fn setup(spec: &ServeSpec, seed: u64) -> Res<State<'_>> {
    let mut rng = gen::rng(seed);
    let t0 = Instant::now();
    let graphs: Vec<Csr> = (0..spec.tenants + spec.spares)
        .map(|t| power_law_csr(spec.n_lo + t % spec.tenants * spec.n_step, spec.mean_deg, &mut rng))
        .collect();
    let gen_ms = ms(t0.elapsed());
    let tenants = graphs
        .into_iter()
        .enumerate()
        .map(|(t, g)| {
            // A spare is served once per kind, so one variant is enough.
            let variants = if t < spec.tenants { VARIANTS } else { 1 };
            let mut pool: [Vec<Operands>; 4] = Default::default();
            for &(kind, _) in spec.mix {
                pool[kind] =
                    (0..variants).map(|_| operands(kind, g.rows(), &spec.dims, &mut rng)).collect();
            }
            Tenant { adj: Adjacency::new(g), pool }
        })
        .collect();
    let engine = Engine::new(EngineConfig { workers: 1, ..Default::default() });
    let st = State {
        spec,
        engine,
        tenants,
        since_probe: 0,
        probes_done: 0,
        rng,
        since_delta: 0,
        fresh: [false; 4],
        deltas: Vec::new(),
        gen_ms,
        native_buf: Default::default(),
    };
    let mut warm = Counts::default();
    for (kind, tenant) in st.classes() {
        serve_one(&st, (tenant, kind, 0), &mut Trace::new(false), &mut warm);
    }
    if warm.failed > 0 {
        return Err("warm-up request failed".into());
    }
    Ok(st)
}

pub fn setup_only(spec: &ServeSpec, seed: u64) -> Res<()> {
    setup(spec, seed).map(drop)
}

/// Run the benchmark's native f32 kernel on one request's operands;
/// returns the milliseconds one launch takes (storage is preallocated).
fn native_launch(st: &mut State, (tenant, kind, variant): Request) -> f64 {
    let (mut scratch, mut out) = std::mem::take(&mut st.native_buf);
    let t = &st.tenants[tenant];
    let (a, ops) = (csr_ref(t.adj.csr()), &t.pool[kind][variant]);
    let need = match ops {
        Operands::Spmm(x) => a.rows * x.cols(),
        Operands::Sddmm(..) => a.nnz(),
        Operands::Attn(h) => a.rows * h.v.cols(),
        Operands::Sage(_, w) => a.rows * w.cols(),
    };
    if out.len() < need {
        out.resize(need, 0.0);
    }
    let o = &mut out[..need];
    // These launches are microseconds long: the median of three keeps one
    // cold-cache or interrupted launch from setting the denominator.
    let mut times = [0.0; 3];
    for t in &mut times {
        let t0 = Instant::now();
        match ops {
            Operands::Spmm(x) => native::spmm_f32(a, x.data(), x.cols(), o),
            Operands::Sddmm(x, y) => {
                native::sddmm_f32(a, x.data(), y.data(), x.cols(), &mut scratch, o);
            }
            Operands::Attn(h) => {
                let (q, kt, v) = (h.q.data(), h.kt.data(), h.v.data());
                native::attention_f32(a, q, kt, v, h.q.cols(), h.v.cols(), &mut scratch, o);
            }
            Operands::Sage(x, w) => {
                native::sage_f32(a, x.data(), w.data(), x.cols(), w.cols(), o);
            }
        }
        *t = ms(t0.elapsed());
        std::hint::black_box(&mut *o);
    }
    st.native_buf = (scratch, out);
    median(&times)
}

/// Geometric mean over the classes of kind `kind` (every kind when
/// `None`) of `stat` applied to each class's samples under `prefix`.
fn class_geomean(
    st: &State,
    s: &Samples,
    prefix: &str,
    kind: Option<usize>,
    stat: fn(&[f64]) -> f64,
) -> f64 {
    let per_class: Vec<f64> = st
        .classes()
        .filter(|c| kind.is_none_or(|k| k == c.0))
        .map(|(k, t)| stat(s.get(&class_key(prefix, k, t))))
        .collect();
    geomean(&per_class)
}

/// Geometric mean over the served kinds of the median of `<prefix>.<kind>`.
fn kind_geomean(st: &State, s: &Samples, prefix: &str) -> f64 {
    let per_kind: Vec<f64> =
        st.spec.mix.iter().map(|m| s.p50(&format!("{prefix}.{}", KINDS[m.0]))).collect();
    geomean(&per_kind)
}

fn cold_samples(st: &State, s: &Samples) -> usize {
    st.spec.mix.iter().map(|m| s.n(&format!("cold.{}", KINDS[m.0]))).sum()
}

/// Every bounded metric is a ratio against the native kernel run next to
/// the request it measures, so a drift in machine speed cancels.
fn end_to_end(st: &State, s: &Samples, load: &Loaded) -> Metrics {
    let mut m = Metrics::default();
    let n = s.n("lat.all");
    m.set("native_ratio", class_geomean(st, s, "ratio", None, median), "ratio", n);
    m.set("cold_ratio", kind_geomean(st, s, "cold_ratio"), "ratio", cold_samples(st, s));
    m.set("capacity_ratio", load.capacity_ratio, "ratio", s.n("lat.loaded"));
    m
}

/// The same quantities in absolute units, unbounded.
fn absolute(st: &State, s: &Samples, load: &Loaded, m: &mut Metrics) {
    m.set("bench.latency_ms", class_geomean(st, s, "lat", None, quiet), "ms", s.n("lat.all"));
    m.set("bench.cold_ms", kind_geomean(st, s, "cold"), "ms", cold_samples(st, s));
    m.set("bench.ops_per_s", load.per_s, "1/s", s.n("lat.loaded"));
}

/// Direct kernel-layer launch of one class's request through `rt`.
fn launch(rt: &Runtime, a: &Csr, ops: &Operands) -> Res<()> {
    match ops {
        Operands::Spmm(x) => {
            let mut outs = [Dense::zeros(a.rows(), x.cols())];
            spmm_execute_views_on(rt, a, &[x], &mut outs, &SpmmConfig::default_csr())?;
        }
        Operands::Sddmm(x, y) => {
            let mut outs = [vec![0.0; a.nnz()]];
            sddmm_execute_views_on(rt, a, &[(x.clone(), y.clone())], &mut outs)?;
        }
        Operands::Attn(h) => {
            let mut outs = [Dense::zeros(a.rows(), h.v.cols())];
            fused_attention_views_on(rt, a, &[&h.q], &[&h.kt], &[&h.v], &mut outs)?;
        }
        Operands::Sage(x, w) => {
            fused_sage_execute_on(rt, a, x, w)?;
        }
    }
    Ok(())
}

/// Standalone calls made after the traced window, on a private warm
/// `Runtime`: the kernel-layer launch of every class (what a request
/// costs with no engine in the way), the matrix-layer cost of the applied
/// updates, fingerprinting, the warm cache lookup and one cold simulator
/// tune.
fn probe_layers(st: &State, tr: &mut Trace, s: &mut Samples) -> Res<()> {
    let rt = Runtime::new();
    for (kind, tenant) in st.classes() {
        let t = &st.tenants[tenant];
        let (a, ops) = (t.adj.csr(), &t.pool[kind][0]);
        launch(&rt, a, ops)?;
        for _ in 0..REPLAY_REPS {
            let (done, ms) = tr.time("kernels.launch", None, TID_DETACHED, || launch(&rt, a, ops));
            done?;
            s.push(&class_key("launch", kind, tenant), ms);
        }
    }
    for (adj, delta) in &st.deltas {
        let (next, t) =
            tr.time("smat.apply_delta", None, TID_DETACHED, || adj.csr().apply_delta(delta));
        next?;
        s.push("smat.apply_delta", t);
    }
    let adjs = st.tenants.iter().map(|t| &t.adj).chain(st.deltas.iter().map(|d| &d.0));
    for adj in adjs.take(KEPT_DELTAS) {
        let csr = adj.csr().clone();
        let (_, t) = tr.time("smat.fingerprint", None, TID_DETACHED, || Adjacency::new(csr));
        s.push("smat.fingerprint", t);
    }
    let a = st.tenants[0].adj.csr();
    let func = csr_spmm_ir(a, st.spec.dims.spmm)?;
    rt.compile(&func)?;
    for _ in 0..28 {
        let (hit, t) = tr.time("ir.cache_lookup", None, TID_DETACHED, || rt.compile(&func));
        hit?;
        s.push("ir.cache_lookup", t);
    }
    if st.spec.tune {
        // The updated adjacency has a fingerprint no earlier search saw,
        // so this search is cold; a cached answer is not a sample.
        let (tuned, t) = tr.time("autotune.sim_tune", None, TID_DETACHED, || {
            tune_spmm(&GpuSpec::v100(), a, st.spec.dims.spmm)
        });
        if !tuned.from_cache {
            s.push("autotune.sim_tune", t);
        }
    }
    Ok(())
}

fn per_layer(
    st: &State,
    tr: &mut Trace,
    s: &mut Samples,
    load: &Loaded,
    untraced: &Loaded,
    compilations: usize,
) -> Res<Metrics> {
    probe_layers(st, tr, s)?;
    let mut m = Metrics::default();
    absolute(st, s, load, &mut m);
    m.set("smat.gen_ms", st.gen_ms, "ms", 1);
    m.p50("smat.fingerprint_us_p50", s, "smat.fingerprint", 1e3, "us");
    m.p50("smat.apply_delta_ms_p50", s, "smat.apply_delta", 1.0, "ms");
    m.p50("ir.cache_lookup_us_p50", s, "ir.cache_lookup", 1e3, "us");
    m.p50("autotune.sim_tune_ms_p50", s, "autotune.sim_tune", 1.0, "ms");
    let requests = s.n("lat.all") + s.n("lat.loaded");
    let per_kreq = compilations as f64 * 1e3 / requests.max(1) as f64;
    m.set("ir.compilations_per_kreq", per_kreq, "count", requests);
    let tc = st.engine.tune_cache();
    m.set("autotune.cache_hits", tc.hits() as f64, "count", 1);
    m.set("autotune.cache_misses", tc.misses() as f64, "count", 1);
    for &(kind, _) in st.spec.mix {
        let name = KINDS[kind];
        let n: usize =
            st.classes().filter(|c| c.0 == kind).map(|(k, t)| s.n(&class_key("lat", k, t))).sum();
        let latency = class_geomean(st, s, "lat", Some(kind), quiet);
        let direct = class_geomean(st, s, "launch", Some(kind), quiet);
        m.set(&format!("engine.latency_ms.{name}"), latency, "ms", n);
        m.set(&format!("kernels.launch_ms.{name}"), direct, "ms", REPLAY_REPS);
        m.set(&format!("engine.overhead_ms.{name}"), latency - direct, "ms", n);
    }
    m.p50("engine.submit_us_p50", s, "engine.submit", 1e3, "us");
    m.set("engine.unattributed_frac", 1.0 - tr.coverage("request"), "fraction", s.n("lat.all"));
    m.set("engine.latency_ms_p99", quantile(s.get("lat.all"), 0.99), "ms", s.n("lat.all"));
    let loaded_n = s.n("lat.loaded");
    m.set("engine.loaded_latency_ms_p99", quantile(s.get("lat.loaded"), 0.99), "ms", loaded_n);
    m.p50("engine.update_ms_p50", s, "engine.update", 1.0, "ms");

    let ls = &load.stats;
    let answered = (ls.completed + ls.failed) as usize;
    let width = if ls.batches == 0 { 0.0 } else { answered as f64 / ls.batches as f64 };
    m.set("engine.batch_width_mean", width, "ratio", ls.batches as usize);
    m.set("engine.batching_rate", ls.batching_rate(), "fraction", answered);
    let pool = ls.pool_hits + ls.pool_misses;
    let hit_frac = if pool == 0 { 0.0 } else { ls.pool_hits as f64 / pool as f64 };
    m.set("ir.pool_hit_frac", hit_frac, "fraction", pool as usize);
    m.set("engine.hist_p50_ms", ls.latency.p50() as f64 / 1e6, "ms", ls.latency.count() as usize);
    m.set("engine.hist_p99_ms", ls.latency.p99() as f64 / 1e6, "ms", ls.latency.count() as usize);
    let all = st.engine.stats();
    for (name, v) in [
        ("engine.max_batch", all.max_batch as u64),
        ("engine.queue_high_water", all.queue_high_water as u64),
        ("engine.bytes_copied", all.bytes_copied),
        ("engine.rejected", all.rejected),
        ("engine.expired", all.expired),
        ("engine.failed", all.failed),
        ("engine.worker_panics", all.worker_panics),
        ("engine.deltas_applied", all.deltas_applied),
        ("engine.retunes_started", all.retunes_started),
        ("engine.retunes_completed", all.retunes_completed),
        ("engine.retunes_skipped", all.retunes_skipped),
    ] {
        m.set(name, v as f64, "count", 1);
    }
    // On the ratio that is paired with the yardstick, so a drift in machine
    // speed between the two windows does not read as overhead.
    let overhead = load.capacity_ratio / untraced.capacity_ratio - 1.0;
    m.set("bench.trace_overhead_frac", overhead, "fraction", loaded_n);
    Ok(m)
}

/// One window: a third unloaded, two thirds loaded.
fn window(
    st: &mut State,
    seconds: f64,
    tr: &mut Trace,
    s: &mut Samples,
    counts: &mut Counts,
) -> Loaded {
    unloaded(st, seconds / 3.0, tr, s, counts);
    loaded(st, seconds * 2.0 / 3.0, tr, s, counts)
}

pub fn run(spec: &ServeSpec, cfg: &RunCfg) -> Res<Run> {
    let t0 = Instant::now();
    let mut st = setup(spec, cfg.seed)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut s = Samples::default();
    let mut counts = Counts::default();
    let mut tr = Trace::new(cfg.trace);
    let metrics = if cfg.trace {
        // Half of the window runs untraced first: the reference the
        // tracing overhead is measured against.
        let mut quiet = Trace::new(false);
        let reference =
            window(&mut st, cfg.seconds / 2.0, &mut quiet, &mut Samples::default(), &mut counts);
        let compiled = st.engine.runtime().compilations();
        let load = window(&mut st, cfg.seconds / 2.0, &mut tr, &mut s, &mut counts);
        let compiled = st.engine.runtime().compilations() - compiled;
        st.engine.quiesce_retunes();
        per_layer(&st, &mut tr, &mut s, &load, &reference, compiled)?
    } else {
        let load = window(&mut st, cfg.seconds, &mut tr, &mut s, &mut counts);
        end_to_end(&st, &s, &load)
    };
    Ok(Run { setup_s, counts, metrics, trace: tr })
}
