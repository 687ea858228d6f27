//! `launch_probe`: where the microseconds of a warm served launch go.
//!
//! On a tenant-shaped graph (`stbench`'s `serve_multitenant` mix: power-law,
//! n = 440, ≈ 3 300 non-zeros) it times, per served kernel, the **whole
//! launch** (the view-bound entry point on a warm runtime), the **run** alone
//! (`CompiledKernel::run_views` on views bound once), a **floor** — a
//! hand-specialised row loop in this file that keeps every check the
//! executor makes (both `indptr` loads, the index load, the gathered column
//! against the declared dimension and the bound length, the coefficient
//! load, every lane run) and the executor's exact arithmetic (`f32`, in the
//! source's association), asserted bit-identical to the served output — and
//! the **native** f32 loop `stbench` uses as its yardstick. Arms alternate
//! in short bursts and report minima, so the box's clock states cancel.
//! Each arm also says how many of its nest entries a row block took
//! (`blocked / entries` of `CompiledKernel::nest_counts`). A sweep over
//! row and non-zero counts then times the SpMM run at d = 16 and the SDDMM
//! run at k = 8 against their floors, every point's arms in every round
//! (so a clock-state change lands on all points alike), prints each
//! point's `run_views` / floor as the median over rounds of the ratio
//! within one round, and fits each arm's minima over the same rounds to
//! its own `c + entries × a + nnz × b`. A per-pass
//! table takes fused attention
//! apart: at one head and `stbench kernel_narrow`'s d = 4, the fused run
//! beside each of its five passes compiled alone from its Stage I program
//! (score, rowmax, exp, psum, agg), in nanoseconds per non-zero. A rider
//! table prices a batch: SpMM at d = 16, SDDMM at k = 8 and fused attention
//! at d = 4 for 1, 2, 4 and 8 riders through their entry points, in
//! nanoseconds per (non-zero, rider) — a batch runs the one-rider kernel
//! once per rider, so a rider should cost what a solo launch does. A tune
//! table prices the served SpMM decision's shortlist (CSR, `hyb(1, 3)`,
//! `hyb(2, 3)`) on the tenant graph and on a `serve_shared_dynamic`-shaped one: whole launch,
//! `run_views`, the measured rule's score, and its pick. A delta table
//! prices a graph update: on the tenant graph each served kind (SpMM d =
//! 16, SDDMM k = 8, fused attention d = 4, fused SAGE 16 → 16) is warmed,
//! an edge batch that changes `nnz` is applied, and the successor's first
//! launch of each kind is timed against a warm one and against a first
//! launch on a fresh runtime (which compiles), with
//! `Runtime::compilations()` before and after the update's launches. An
//! engine table names the serving layer's share of a request: on the
//! tenant graph at SpMM d = 16, `Engine::serve` on an idle one-permit
//! engine (as `stbench` builds it) against `spmm_execute_views_on` on that
//! engine's own runtime, both taking an operand copy and a fresh output,
//! alternating; the median over rounds of the two arms' paired burst
//! difference is the engine's cost per request.
//!
//! Smoke mode asserts the bit-identities (the engine's answer against the
//! direct launch's included) and that the update compiles nothing, and
//! keeps the bursts short;
//! timings are printed, never gated (`stbench` judges speed). Quoted
//! readings are taken the way `stbench` runs, pinned to one CPU
//! (`taskset -c 1`).

use super::*;
use sparsetir_core::prelude::LaunchBindings;
use sparsetir_ir::prelude::{CompiledKernel, Runtime, TensorData};
use sparsetir_kernels::sddmm::batched_sddmm_ir;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// `stbench`'s tenant graph shape, `n` rows over `cols` columns: the
/// Table 1 power-law degree curve at the `n` stratified quantiles (so the
/// non-zero count is a function of the shape alone), rows shuffled, columns
/// uniform. The sweep varies `n` under a fixed operand footprint.
fn rows_graph(n: usize, cols: usize, mean_deg: f64, seed: u64) -> Csr {
    use rand::Rng;
    let mut rng = gen::rng(seed);
    let eps = 0.015f64;
    let alpha = mean_deg / ((1.0 + eps).ln() - eps.ln());
    let mut degrees: Vec<usize> = (0..n)
        .map(|r| {
            ((alpha / ((r as f64 + 0.5) / n as f64 + eps)) as usize).clamp(1, (cols / 2).max(1))
        })
        .collect();
    for i in (1..n).rev() {
        degrees.swap(i, rng.gen_range(0..i + 1));
    }
    let mut next = degrees.into_iter();
    gen::random_csr_with_row_lengths(n, cols, |_| next.next().unwrap_or(1), &mut rng)
}

/// Nanoseconds per call of each arm in each of `rounds` alternations of
/// `reps`-call bursts (one untimed call each first), one row per round.
fn bursts(rounds: usize, reps: usize, arms: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    arms.iter_mut().for_each(|arm| arm());
    (0..rounds)
        .map(|_| {
            let time = |arm: &mut &mut dyn FnMut()| {
                let t0 = Instant::now();
                (0..reps).for_each(|_| arm());
                t0.elapsed().as_nanos() as f64 / reps as f64
            };
            arms.iter_mut().map(time).collect()
        })
        .collect()
}

/// Minimum nanoseconds per call of each arm over [`bursts`].
fn minima(rounds: usize, reps: usize, arms: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let by_round = bursts(rounds, reps, arms);
    (0..arms.len()).map(|arm| min_over(&by_round, arm)).collect()
}

/// Arm `arm`'s minimum over [`bursts`] rows.
fn min_over(by_round: &[Vec<f64>], arm: usize) -> f64 {
    by_round.iter().map(|r| r[arm]).fold(f64::INFINITY, f64::min)
}

/// One arm's cost over another's, from [`bursts`] rows: the median over
/// rounds of arm `a`'s burst minus arm `b`'s burst of the same round. The
/// two bursts of a round share its clock state; the difference of the two
/// arms' minima mixes two quiet moments and can read negative.
fn paired_median(by_round: &[Vec<f64>], a: usize, b: usize) -> f64 {
    let mut gaps: Vec<f64> = by_round.iter().map(|r| r[a] - r[b]).collect();
    median(&mut gaps)
}

/// The CSR structure as the kernels bind it (`i32` slabs).
struct Slabs {
    indptr: Vec<i32>,
    indices: Vec<i32>,
    values: Vec<f32>,
}

impl Slabs {
    fn of(a: &Csr) -> Slabs {
        Slabs {
            indptr: a.indptr().iter().map(|&p| p as i32).collect(),
            indices: a.indices().iter().map(|&c| c as i32).collect(),
            values: a.values().to_vec(),
        }
    }

    /// Row `i`'s positions, both `indptr` loads checked.
    fn row(&self, i: usize) -> Option<std::ops::Range<usize>> {
        let (lo, hi) = (*self.indptr.get(i)?, *self.indptr.get(i + 1)?);
        Some(usize::try_from(lo).ok()?..usize::try_from(hi).ok()?)
    }

    /// Position `p`'s column — checked against the declared dimension
    /// `cols` — and coefficient, both loads checked.
    fn at(&self, p: usize, cols: usize) -> Option<(usize, f32)> {
        let col = usize::try_from(*self.indices.get(p)?).ok().filter(|c| *c < cols)?;
        Some((col, *self.values.get(p)?))
    }
}

/// The SpMM floor: `c = a · b` row by row with every check and the
/// executor's arithmetic — the first non-zero of a row adds onto the init
/// value, each lane is `c + a_ij · b` in `f32`.
fn spmm_floor(s: &Slabs, (rows, cols, d): (usize, usize, usize), b: &[f32], c: &mut [f32]) -> bool {
    let mut walk = || {
        for i in 0..rows {
            let crow = c.get_mut(i * d..(i + 1) * d)?;
            let row = s.row(i)?;
            for p in row.clone() {
                let (col, v) = s.at(p, cols)?;
                let brow = b.get(col * d..(col + 1) * d)?;
                if p == row.start {
                    for (c, &b) in crow.iter_mut().zip(brow) {
                        *c = 0.0 + v * b;
                    }
                } else {
                    for (c, &b) in crow.iter_mut().zip(brow) {
                        *c += v * b;
                    }
                }
            }
        }
        Some(())
    };
    walk().is_some()
}

/// `stbench`'s native SpMM: plain f32, unchecked beyond slice indexing.
fn spmm_native(a: &Csr, d: usize, b: &[f32], c: &mut [f32]) {
    for (r, crow) in c.chunks_exact_mut(d).enumerate() {
        crow.fill(0.0);
        for e in a.indptr()[r]..a.indptr()[r + 1] {
            let v = a.values()[e];
            let brow = &b[a.indices()[e] as usize * d..][..d];
            for (o, &x) in crow.iter_mut().zip(brow) {
                *o += v * x;
            }
        }
    }
}

/// The SDDMM floor: `out[e] = a_e · (x_i · y_:j)` with every check and the
/// executor's arithmetic — one `f32` add into the accumulator per lane,
/// each term is `(a_e · x) · y`.
fn sddmm_floor(
    s: &Slabs,
    (rows, cols, k): (usize, usize, usize),
    (x, y): (&[f32], &[f32]),
    out: &mut [f32],
) -> bool {
    let mut walk = || {
        for i in 0..rows {
            let xrow = x.get(i * k..(i + 1) * k)?;
            for p in s.row(i)? {
                let (col, v) = s.at(p, cols)?;
                // The column walk's last lane, against the bound length.
                y.get(col + (k - 1) * cols)?;
                let mut acc = 0.0f32;
                for (l, &xv) in xrow.iter().enumerate() {
                    acc += (v * xv) * y[col + l * cols];
                }
                *out.get_mut(p)? = acc;
            }
        }
        Some(())
    };
    walk().is_some()
}

/// `stbench`'s native SDDMM: `y` transposed into `yt` first, then one f32
/// dot product per non-zero.
fn sddmm_native(a: &Csr, k: usize, (x, y): (&[f32], &[f32]), yt: &mut Vec<f32>, out: &mut [f32]) {
    yt.clear();
    yt.resize(a.cols() * k, 0.0);
    for (l, row) in y.chunks_exact(a.cols()).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            yt[j * k + l] = v;
        }
    }
    for r in 0..a.rows() {
        let xrow = &x[r * k..][..k];
        for e in a.indptr()[r]..a.indptr()[r + 1] {
            let yrow = &yt[a.indices()[e] as usize * k..][..k];
            out[e] = a.values()[e] * xrow.iter().zip(yrow).map(|(&p, &q)| p * q).sum::<f32>();
        }
    }
}

fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: served {g} vs floor {w}");
    }
}

/// `blocked / entries` of what a kernel's row nests counted.
fn blocked(kernel: &sparsetir_ir::prelude::CompiledKernel) -> String {
    let counts = kernel.nest_counts();
    format!("{}/{}", counts.blocked, counts.entries)
}

/// The layouts a kernel's row blocks run on (`layout=` on each `rows` line
/// of its listing), each named once in order; `-` when it has none.
fn layouts(kernel: &sparsetir_ir::prelude::CompiledKernel) -> String {
    let mut names: Vec<String> = Vec::new();
    for line in kernel.disassemble().lines().filter(|l| l.contains("  rows ")) {
        let name = line.rsplit_once("layout=").map_or("?", |(_, name)| name);
        if !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    }
    if names.is_empty() {
        "-".into()
    } else {
        names.join("+")
    }
}

/// The kernel the SpMM entry point compiles for width `d` at `config`.
fn spmm_run_kernel(rt: &Runtime, a: &Csr, d: usize, config: &SpmmConfig) -> Arc<CompiledKernel> {
    let (func, _) = prepare_spmm_structure(a, d, config).expect("lowers");
    rt.compile(&func).expect("compiles")
}

/// `[whole launch, run_views alone, floor]` minima of a served SpMM of `x`
/// at `config`, after checking its output against the floor (bit for bit
/// on the CSR kernel), and the run's `blocked / entries` and layouts.
fn spmm_arms(
    a: &Csr,
    x: &Dense,
    config: &SpmmConfig,
    (rounds, reps): (usize, usize),
) -> ([f64; 3], [String; 2]) {
    let rt = Runtime::new();
    let slabs = Slabs::of(a);
    let d = x.cols();
    let mut outs = [Dense::zeros(a.rows(), d)];
    spmm_execute_views_on(&rt, a, &[x], &mut outs, config).expect("served SpMM");
    let floor = |want: &mut [f32]| {
        assert!(spmm_floor(&slabs, (a.rows(), a.cols(), d), x.data(), want));
    };
    let mut want = vec![0.0f32; a.rows() * d];
    floor(&mut want);
    let out = outs[0].data();
    if config.col_parts.is_none() {
        assert_bits(&format!("spmm {}", config.format_label()), out, &want);
    } else {
        // `hyb` adds a row's non-zeros bucket by bucket: the floor's sum in
        // another order.
        let close = |(g, w): (&f32, &f32)| (g - w).abs() <= 1e-4 * (1.0 + w.abs());
        assert!(out.iter().zip(&want).all(close), "spmm {}", config.format_label());
    }

    let kernel = spmm_run_kernel(&rt, a, d, config);
    // The structure bound in place, as the entry point binds it.
    let hyb = config.col_parts.map(|c| Hyb::from_csr(a, c, config.bucket_k).expect("decomposes"));
    let mut launch = LaunchBindings::new(rt.pool(), a, hyb.as_ref(), []);
    let mut run_out = vec![0.0f32; a.rows() * d];
    let mut views = launch.views(&kernel, []);
    views.bind_slice("B", x.data());
    views.bind_slice_mut("C", &mut run_out);
    let got = minima(
        rounds,
        reps,
        &mut [
            &mut || spmm_execute_views_on(&rt, a, &[x], &mut outs, config).expect("served SpMM"),
            &mut || kernel.run_views(&mut views).expect("runs"),
            &mut || floor(&mut want),
        ],
    );
    ([got[0], got[1], got[2]], [blocked(&kernel), layouts(&kernel)])
}

/// The served one-head SDDMM at inner width `k` on `a`, its output checked
/// bit for bit against the floor: `[whole launch, run_views alone, floor,
/// native]` minima, and the run's `blocked / entries` and layouts.
fn sddmm_arms(
    a: &Csr,
    k: usize,
    (rounds, reps): (usize, usize),
    rng: &mut rand::rngs::SmallRng,
) -> ([f64; 4], [String; 2]) {
    let rt = Runtime::new();
    let slabs = Slabs::of(a);
    let req = (gen::random_dense(a.rows(), k, rng), gen::random_dense(k, a.cols(), rng));
    let ops = (req.0.data(), req.1.data());
    let mut outs = vec![vec![0.0f32; a.nnz()]];
    sddmm_execute_views_on(&rt, a, std::slice::from_ref(&req), &mut outs).expect("served");
    let (mut want, mut native, mut yt) = (vec![0.0f32; a.nnz()], vec![0.0f32; a.nnz()], vec![]);
    assert!(sddmm_floor(&slabs, (a.rows(), a.cols(), k), ops, &mut want));
    assert_bits(&format!("sddmm k={k}"), &outs[0], &want);

    let func = batched_sddmm_ir(a, 1, k).expect("lowers");
    let kernel = rt.compile(&func).expect("compiles");
    let mut launch = LaunchBindings::new(rt.pool(), a, None, []);
    let mut run_out = vec![0.0f32; a.nnz()];
    let mut views = launch.views(&kernel, []);
    views.bind_slice("X", ops.0);
    views.bind_slice("Y", ops.1);
    views.bind_slice_mut("Bout", &mut run_out);
    let got = minima(
        rounds,
        reps,
        &mut [
            &mut || {
                sddmm_execute_views_on(&rt, a, std::slice::from_ref(&req), &mut outs)
                    .expect("served");
            },
            &mut || kernel.run_views(&mut views).expect("runs"),
            &mut || assert!(sddmm_floor(&slabs, (a.rows(), a.cols(), k), ops, &mut want)),
            &mut || sddmm_native(a, k, ops, &mut yt, &mut native),
        ],
    );
    ([got[0], got[1], got[2], got[3]], [blocked(&kernel), layouts(&kernel)])
}

/// The launch-level table on one graph, and the sweep's fit.
///
/// # Panics
/// Panics when a served output is not bit-identical to its floor loop.
#[must_use]
#[allow(clippy::too_many_lines)] // one table, arm after arm
pub fn run() -> String {
    let burst = if smoke() { (3, 4) } else { (200, 10) };
    let (d, k) = (16usize, 8usize);
    let a = rows_graph(440, 440, 8.0, 0x7e);
    let mut rng = gen::rng(0x7f);
    let us = |ns: f64| format!("{:.1}", ns / 1e3);
    let mut rows = Vec::new();

    // SpMM, d = 16: CSR and hyb(1, 3).
    let x = gen::random_dense(a.cols(), d, &mut rng);
    let mut c_native = vec![0.0f32; a.rows() * d];
    let native =
        minima(burst.0, burst.1, &mut [&mut || spmm_native(&a, d, x.data(), &mut c_native)]);
    let csr = SpmmConfig::default_csr();
    let hyb = SpmmConfig { col_parts: Some(1), bucket_k: 3, params: CsrSpmmParams::default() };
    for (name, config) in [("spmm d=16 csr", &csr), ("spmm d=16 hyb(1,3)", &hyb)] {
        let ([whole, run, floor], [blocks, layout]) = spmm_arms(&a, &x, config, burst);
        rows.push(vec![name.into(), blocks, layout, us(whole), us(run), us(floor), us(native[0])]);
    }

    // SDDMM, one head, k = 8.
    let (got, [blocks, layout]) = sddmm_arms(&a, k, burst, &mut rng);
    let name = format!("sddmm k={k}");
    rows.push([name, blocks, layout].into_iter().chain(got.map(us)).collect());

    let mut out = render_table(
        &format!(
            "launch_probe: warm launches on the tenant graph (n = {}, nnz = {}), minima in µs",
            a.rows(),
            a.nnz()
        ),
        &["arm", "blocked/entries", "layout", "whole launch", "run_views", "floor", "native f32"],
        &rows,
    );
    let sweep: &[(usize, f64)] = if smoke() {
        &[(110, 8.0), (220, 4.0), (220, 8.0)]
    } else {
        &[(220, 8.0), (440, 4.0), (440, 8.0), (440, 16.0), (880, 8.0), (1760, 2.0), (1760, 8.0)]
    };
    out.push_str(&sweep_table(a.cols(), sweep, (d, k), burst, &mut rng));
    out.push_str(&attention_passes(&a, 4, burst, &mut rng));
    out.push_str(&rider_costs(&a, burst, &mut rng));
    out.push_str(&tune_table(&a, burst, &mut rng));
    out.push_str(&delta_table(&a, burst, &mut rng));
    out.push_str(&engine_table(&a, burst, &mut rng));
    out
}

/// One sweep point's own state: its graph and structure slabs, the SpMM
/// and SDDMM operands, and both runs compiled on its own runtime.
struct SweepPoint {
    g: Csr,
    slabs: Slabs,
    x: Dense,
    pair: (Dense, Dense),
    rt: Runtime,
    spmm: Arc<CompiledKernel>,
    sddmm: Arc<CompiledKernel>,
}

/// The row-count / non-zero-count sweep of the CSR SpMM at `d` and the
/// one-head SDDMM at `k`: `run_views` and floor at each `(n, mean degree)`
/// point. Every round times every arm of every point in turn, so a
/// clock-state change lands on all points alike. Each point's ratio is the
/// median over rounds of `run_views` / floor within one round, and the
/// `c + entries × a + nnz × b` least-squares fits take each arm's minimum
/// over those same rounds.
///
/// # Panics
/// When a point's `run_views` output differs in a bit from its floor's.
fn sweep_table(
    cols: usize,
    sweep: &[(usize, f64)],
    (d, k): (usize, usize),
    (rounds, reps): (usize, usize),
    rng: &mut rand::rngs::SmallRng,
) -> String {
    let pts: Vec<SweepPoint> = sweep
        .iter()
        .map(|&(n, deg)| {
            let g = rows_graph(n, cols, deg, 0x80 + n as u64);
            let x = gen::random_dense(g.cols(), d, rng);
            let pair = (gen::random_dense(g.rows(), k, rng), gen::random_dense(k, g.cols(), rng));
            let rt = Runtime::new();
            let spmm = spmm_run_kernel(&rt, &g, d, &SpmmConfig::default_csr());
            let sddmm = rt.compile(&batched_sddmm_ir(&g, 1, k).expect("lowers")).expect("compiles");
            SweepPoint { slabs: Slabs::of(&g), g, x, pair, rt, spmm, sddmm }
        })
        .collect();
    let mut outs: Vec<[Vec<f32>; 2]> =
        pts.iter().map(|p| [vec![0.0; p.g.rows() * d], vec![0.0; p.g.nnz()]]).collect();
    let mut wants = outs.clone();
    let by_round = {
        let mut launches: Vec<[LaunchBindings<'_, 0>; 2]> = pts
            .iter()
            .map(|p| [(); 2].map(|()| LaunchBindings::new(p.rt.pool(), &p.g, None, [])))
            .collect();
        let mut views: Vec<_> = launches
            .iter_mut()
            .zip(&pts)
            .zip(outs.iter_mut())
            .map(|(([ls, ld], p), [os, od])| {
                let mut vs = ls.views(&p.spmm, []);
                vs.bind_slice("B", p.x.data());
                vs.bind_slice_mut("C", os);
                let mut vd = ld.views(&p.sddmm, []);
                vd.bind_slice("X", p.pair.0.data());
                vd.bind_slice("Y", p.pair.1.data());
                vd.bind_slice_mut("Bout", od);
                [vs, vd]
            })
            .collect();
        // Four arms a point: SpMM run, SpMM floor, SDDMM run, SDDMM floor.
        let mut arms: Vec<Box<dyn FnMut() + '_>> = Vec::new();
        for ((p, [vs, vd]), [ws, wd]) in pts.iter().zip(views.iter_mut()).zip(wants.iter_mut()) {
            let (rows, cols) = (p.g.rows(), p.g.cols());
            let ops = (p.pair.0.data(), p.pair.1.data());
            arms.push(Box::new(move || p.spmm.run_views(vs).expect("runs")));
            arms.push(Box::new(move || {
                assert!(spmm_floor(&p.slabs, (rows, cols, d), p.x.data(), ws))
            }));
            arms.push(Box::new(move || p.sddmm.run_views(vd).expect("runs")));
            arms.push(Box::new(move || assert!(sddmm_floor(&p.slabs, (rows, cols, k), ops, wd))));
        }
        let mut refs: Vec<&mut dyn FnMut()> =
            arms.iter_mut().map(|arm| &mut **arm as &mut dyn FnMut()).collect();
        bursts(rounds, reps, &mut refs)
    };
    for (p, (got, want)) in pts.iter().zip(outs.iter().zip(&wants)) {
        let at = format!("rows {} nnz {}", p.g.rows(), p.g.nnz());
        assert_bits(&format!("sweep spmm d={d} {at}"), &got[0], &want[0]);
        assert_bits(&format!("sweep sddmm k={k} {at}"), &got[1], &want[1]);
    }
    let us = |ns: f64| format!("{:.1}", ns / 1e3);
    let mut out = String::new();
    for (op, name) in [(0, format!("spmm d={d} csr")), (2, format!("sddmm k={k}"))] {
        let (mut ratios, mut fits) = (Vec::new(), [vec![], vec![]]);
        for (i, p) in pts.iter().enumerate() {
            let (run, floor) = (4 * i + op, 4 * i + op + 1);
            let mut same_round: Vec<f64> = by_round.iter().map(|r| r[run] / r[floor]).collect();
            let at = format!("{}/{}", p.g.rows(), p.g.nnz());
            ratios.push(format!("{at}: {:.2}", median(&mut same_round)));
            for (fit, arm) in fits.iter_mut().zip([run, floor]) {
                fit.push([1.0, p.g.rows() as f64, p.g.nnz() as f64, min_over(&by_round, arm)]);
            }
        }
        out.push_str(&format!(
            "{name} run_views / floor by rows/nnz (median over rounds, both arms of each round): \
             {}\n",
            ratios.join(", ")
        ));
        for (arm, points) in ["run_views", "floor"].into_iter().zip(&fits) {
            let [c, per_entry, per_nnz] = least_squares(points);
            let sweep: Vec<String> =
                points.iter().map(|p| format!("{:.0}/{:.0}: {}", p[1], p[2], us(p[3]))).collect();
            out.push_str(&format!(
                "{name} {arm} by rows/nnz, µs: {}\n  = {c:.0} ns + entries × {per_entry:.1} ns + \
                 nnz × {per_nnz:.1} ns (least squares)\n",
                sweep.join(", ")
            ));
        }
    }
    out
}

/// The serving layer's share of a warm tenant request: SpMM d = 16 on
/// `a`, `Engine::serve` on an idle one-permit engine against the entry
/// point it ends in, `spmm_execute_views_on` on the engine's own runtime
/// (so both hit one compiled kernel). Each arm copies the operand (a
/// submission owns it) and gets a fresh output, so the gap is what the
/// engine adds: validation, admission, the hand-off if any, the config
/// lookup, the panic guard and the counters. The arms' minima are
/// printed; the engine's share is their [`paired_median`].
///
/// # Panics
/// In smoke mode, when the served answer differs in a bit from the direct
/// launch's.
fn engine_table(a: &Csr, (rounds, reps): (usize, usize), rng: &mut rand::rngs::SmallRng) -> String {
    use sparsetir_engine::{Adjacency, Engine, EngineConfig, OpOutput, Submission};
    let d = 16usize;
    let x = gen::random_dense(a.cols(), d, rng);
    let adj = Adjacency::new(a.clone());
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    let serve = || {
        let out = engine.serve(&adj, Submission::spmm(x.clone()));
        out.and_then(OpOutput::into_dense).expect("served SpMM")
    };
    let direct = || {
        let (x, mut out) = (x.clone(), [Dense::zeros(a.rows(), d)]);
        let config = SpmmConfig::default();
        spmm_execute_views_on(engine.runtime(), a, &[&x], &mut out, &config).expect("SpMM");
        let [out] = out;
        out
    };
    if smoke() {
        assert_bits("engine spmm d=16", serve().data(), direct().data());
    }
    let before = engine.stats();
    let by_round = bursts(
        rounds,
        reps,
        &mut [
            &mut || {
                serve();
            },
            &mut || {
                direct();
            },
        ],
    );
    let stats = engine.stats().delta_since(&before);
    let us = |ns: f64| format!("{:.1}", ns / 1e3);
    let rows = vec![vec![
        format!("spmm d={d}"),
        us(min_over(&by_round, 0)),
        us(min_over(&by_round, 1)),
        us(paired_median(&by_round, 0, 1)),
        format!("{}/{}", stats.served_inline, stats.completed),
    ]];
    render_table(
        &format!(
            "launch_probe: the engine's share of a warm request on the tenant graph \
             (n = {}, nnz = {}), µs: minima, and the share as the median over rounds \
             of the paired difference",
            a.rows(),
            a.nnz()
        ),
        &["arm", "engine.serve", "direct launch", "engine's share", "served inline"],
        &rows,
    )
}

/// A served launch of one kind on a graph, through its entry point.
type Launch<'a> = Box<dyn Fn(&Runtime, &Csr) + 'a>;

/// What a graph update costs the next launch of each served kind: on `a`,
/// every kind is warmed on one runtime, then a batch of 64 new edges
/// (`nnz` grows, `rows / cols` do not) is applied. For each kind: the
/// successor's first launch on that runtime, a warm launch's minimum, and
/// a first launch on a fresh runtime, which compiles — with the runtime's
/// `compilations()` before and after the successor's launches.
///
/// # Panics
/// In smoke mode, when the successor's launches compile anything.
fn delta_table(a: &Csr, burst: (usize, usize), rng: &mut rand::rngs::SmallRng) -> String {
    use rand::Rng;
    let (d, k, attn, (feat, hidden)) = (16usize, 8usize, 4usize, (16usize, 16usize));
    let x = gen::random_dense(a.cols(), d, rng);
    let (sx, sy) = (gen::random_dense(a.rows(), k, rng), gen::random_dense(k, a.cols(), rng));
    let (q, kt) = (gen::random_dense(a.rows(), attn, rng), gen::random_dense(attn, a.cols(), rng));
    let v = gen::random_dense(a.cols(), attn, rng);
    let (gx, gw) = (gen::random_dense(a.cols(), feat, rng), gen::random_dense(feat, hidden, rng));
    let kinds: [(String, Launch<'_>); 4] = [
        (
            format!("spmm d={d}"),
            Box::new(|rt, g| {
                let mut outs = [Dense::zeros(g.rows(), d)];
                let csr = SpmmConfig::default_csr();
                spmm_execute_views_on(rt, g, &[&x], &mut outs, &csr).expect("served spmm");
            }),
        ),
        (
            format!("sddmm k={k}"),
            Box::new(|rt, g| {
                let mut outs = [vec![0.0f32; g.nnz()]];
                let reqs = [(sx.clone(), sy.clone())];
                sddmm_execute_views_on(rt, g, &reqs, &mut outs).expect("served sddmm");
            }),
        ),
        (
            format!("attention d={attn}"),
            Box::new(|rt, g| {
                let mut outs = [Dense::zeros(g.rows(), attn)];
                fused_attention_views_on(rt, g, &[&q], &[&kt], &[&v], &mut outs)
                    .expect("served attention");
            }),
        ),
        (
            format!("sage {feat}->{hidden}"),
            Box::new(|rt, g| {
                fused_sage_execute_on(rt, g, &gx, &gw).expect("served sage");
            }),
        ),
    ];
    let rt = Runtime::new();
    kinds.iter().for_each(|(_, launch)| launch(&rt, a));
    let mut delta = GraphDelta::new();
    let mut added = 0;
    while added < 64 {
        let (r, c) = (rng.gen_range(0..a.rows()), rng.gen_range(0..a.cols() as u32));
        if !a.row(r).0.contains(&c) {
            delta.upsert(r as u32, c, 0.5);
            added += 1;
        }
    }
    let next = a.apply_delta(&delta).expect("in-bounds delta");
    let before = rt.compilations();
    let ms = |t: Instant| format!("{:.3}", t.elapsed().as_secs_f64() * 1e3);
    let mut rows = Vec::new();
    for (name, launch) in &kinds {
        let t0 = Instant::now();
        launch(&rt, &next);
        let first = ms(t0);
        let fresh = Runtime::new();
        let t0 = Instant::now();
        launch(&fresh, &next);
        let cold = ms(t0);
        let [warm] = minima(burst.0, burst.1, &mut [&mut || launch(&rt, &next)])[..] else {
            unreachable!("one arm")
        };
        rows.push(vec![name.clone(), first, format!("{:.3}", warm / 1e6), cold]);
    }
    let after = rt.compilations();
    if smoke() {
        assert_eq!(after, before, "a graph update compiled {} kernels", after - before);
    }
    render_table(
        &format!(
            "launch_probe: after an update of 64 edges (nnz {} -> {}), ms; \
             compilations {before} -> {after}",
            a.nnz(),
            next.nnz()
        ),
        &["kind", "successor's first launch", "warm launch", "fresh runtime's first launch"],
        &rows,
    )
}

/// The served SpMM decision's inputs: on the tenant graph at d = 16 and on
/// a `serve_shared_dynamic`-shaped graph (n = 2 000, mean degree 4.5) at
/// d = 32, each `kernels::tune::spmm_shortlist` config's whole launch and
/// `run_views` minima, the score the measured rule gives it (minimum of
/// three launches after a warm-up, `SpmmMeasuredEvaluator::scores`), CSR
/// scored a second time in the same rounds (the noise
/// `kernels::tune::CHALLENGER_MARGIN` is sized against), and the config the
/// rule picks.
///
/// # Panics
/// Panics when the pick is not in the shortlist.
fn tune_table(a: &Csr, burst: (usize, usize), rng: &mut rand::rngs::SmallRng) -> String {
    use sparsetir_kernels::tune::{spmm_shortlist, SpmmMeasuredEvaluator};
    let us = |s: f64| format!("{:.1}", s * 1e6);
    let shared = rows_graph(2000, 2000, 4.5, 0x81);
    let mut rows = Vec::new();
    for (name, g, d) in [("tenant", a, 16usize), ("serve_shared_dynamic", &shared, 32)] {
        let x = gen::random_dense(g.cols(), d, rng);
        let rt = Runtime::new();
        let tuner = SpmmMeasuredEvaluator::with_operand(&rt, g, &x);
        // The shortlist scored as the rule scores it, CSR a second time in
        // the same rounds.
        let shortlist = spmm_shortlist();
        let scores = tuner.scores(&[&shortlist[..], &[SpmmConfig::default_csr()]].concat());
        let score = |i: usize| scores[i].map_or("failed".into(), us);
        for (i, config) in shortlist.iter().enumerate() {
            let ([whole, run, _], _) = spmm_arms(g, &x, config, burst);
            rows.push(vec![
                name.into(),
                config.format_label(),
                us(whole / 1e9),
                us(run / 1e9),
                score(i),
            ]);
        }
        let again = score(shortlist.len());
        rows.push(vec![name.into(), "csr, scored again".into(), "-".into(), "-".into(), again]);
        let pick = tuner.decide();
        assert!(shortlist.contains(&pick), "{pick:?}");
        let picked = format!("picked: {}", pick.format_label());
        rows.push(vec![name.into(), picked, "-".into(), "-".into(), "-".into()]);
    }
    render_table(
        "launch_probe: the served SpMM decision's shortlist, minima in µs",
        &["graph", "config", "whole launch", "run_views", "tune score"],
        &rows,
    )
}

/// Rider counts of the rider table.
const RIDERS: [usize; 4] = [1, 2, 4, 8];

/// A batch's cost per rider: SpMM at d = 16, SDDMM at k = 8 and fused
/// attention at d = 4 (one head a rider), each at [`RIDERS`] riders through
/// its served entry point on a warm runtime of its own — so an arm's
/// `blocked / entries` is its runtime's ([`Runtime::nest_counts`]) — as
/// minima in ns per (non-zero, rider) and against the one-rider arm. The
/// arms' riders are the first `n` of one pool of eight; every SpMM rider's
/// output is checked bit for bit against the floor, every other rider's
/// against the eight-rider batch's.
///
/// # Panics
/// Panics when a rider's output differs in a bit from its floor or between
/// batch sizes.
fn rider_costs(a: &Csr, (rounds, reps): (usize, usize), rng: &mut rand::rngs::SmallRng) -> String {
    let (f, k, d, most) = (16usize, 8usize, 4usize, RIDERS[RIDERS.len() - 1]);
    let feats: Vec<Dense> = (0..most).map(|_| gen::random_dense(a.cols(), f, rng)).collect();
    let feat_refs: Vec<&Dense> = feats.iter().collect();
    let pairs: Vec<(Dense, Dense)> = (0..most)
        .map(|_| (gen::random_dense(a.rows(), k, rng), gen::random_dense(k, a.cols(), rng)))
        .collect();
    let heads: Vec<[Dense; 3]> = (0..most)
        .map(|_| {
            let q = gen::random_dense(a.rows(), d, rng);
            [q, gen::random_dense(d, a.cols(), rng), gen::random_dense(a.cols(), d, rng)]
        })
        .collect();
    let operand = |p: usize| -> Vec<&Dense> { heads.iter().map(|h| &h[p]).collect() };
    let (qs, kts, vs) = (operand(0), operand(1), operand(2));
    let rts: Vec<Runtime> = (0..3 * RIDERS.len()).map(|_| Runtime::new()).collect();
    let (spmm_rts, rest) = rts.split_at(RIDERS.len());
    let (sddmm_rts, attention_rts) = rest.split_at(RIDERS.len());
    let mut feat_outs: Vec<Vec<Dense>> =
        RIDERS.iter().map(|&n| vec![Dense::zeros(a.rows(), f); n]).collect();
    let mut edge_outs: Vec<Vec<Vec<f32>>> =
        RIDERS.iter().map(|&n| vec![vec![0.0f32; a.nnz()]; n]).collect();
    let mut head_outs: Vec<Vec<Dense>> =
        RIDERS.iter().map(|&n| vec![Dense::zeros(a.rows(), d); n]).collect();
    let mut arms: Vec<Box<dyn FnMut() + '_>> = Vec::new();
    let csr = SpmmConfig::default_csr();
    for ((&n, outs), rt) in RIDERS.iter().zip(&mut feat_outs).zip(spmm_rts) {
        let xs = &feat_refs[..n];
        arms.push(Box::new(move || {
            spmm_execute_views_on(rt, a, xs, outs, &csr).expect("served SpMM");
        }));
    }
    for ((&n, outs), rt) in RIDERS.iter().zip(&mut edge_outs).zip(sddmm_rts) {
        let reqs = &pairs[..n];
        arms.push(Box::new(move || sddmm_execute_views_on(rt, a, reqs, outs).expect("served")));
    }
    for ((&n, outs), rt) in RIDERS.iter().zip(&mut head_outs).zip(attention_rts) {
        let (q, kt, v) = (&qs[..n], &kts[..n], &vs[..n]);
        arms.push(Box::new(move || {
            fused_attention_views_on(rt, a, q, kt, v, outs).expect("served attention");
        }));
    }
    let mut refs: Vec<&mut dyn FnMut()> = arms.iter_mut().map(|arm| &mut **arm as _).collect();
    let got = minima(rounds, reps, &mut refs);
    drop(refs);
    drop(arms);
    let slabs = Slabs::of(a);
    let floors: Vec<Vec<f32>> = feats
        .iter()
        .map(|x| {
            let mut want = vec![0.0f32; a.rows() * f];
            assert!(spmm_floor(&slabs, (a.rows(), a.cols(), f), x.data(), &mut want));
            want
        })
        .collect();
    for (n, outs) in RIDERS.iter().zip(&feat_outs) {
        for (r, out) in outs.iter().enumerate() {
            assert_bits(&format!("spmm rider {r} of {n}"), out.data(), &floors[r]);
        }
    }
    for (n, outs) in RIDERS.iter().zip(&edge_outs) {
        for (r, out) in outs.iter().enumerate() {
            assert_bits(&format!("sddmm rider {r} of {n}"), out, &edge_outs[RIDERS.len() - 1][r]);
        }
    }
    for (n, outs) in RIDERS.iter().zip(&head_outs) {
        for (r, out) in outs.iter().enumerate() {
            let want = head_outs[RIDERS.len() - 1][r].data();
            assert_bits(&format!("attention rider {r} of {n}"), out.data(), want);
        }
    }
    let mut rows = Vec::new();
    let ops = [format!("spmm d={f}"), format!("sddmm k={k}"), format!("attention d={d}")];
    for (op, at) in ops.iter().zip((0..).step_by(RIDERS.len())) {
        let per_rider = |i: usize| got[at + i] / (a.nnz() * RIDERS[i]) as f64;
        for (i, &n) in RIDERS.iter().enumerate() {
            let counts = rts[at + i].nest_counts();
            rows.push(vec![
                op.clone(),
                n.to_string(),
                format!("{}/{}", counts.blocked, counts.entries),
                format!("{:.1}", per_rider(i)),
                format!("{:.2}", per_rider(i) / per_rider(0)),
            ]);
        }
    }
    render_table(
        &format!(
            "launch_probe: a batch's riders (n = {}, nnz = {}), whole-launch minima",
            a.rows(),
            a.nnz()
        ),
        &["arm", "riders", "blocked/entries", "ns per (non-zero, rider)", "× one rider"],
        &rows,
    )
}

/// Fused attention at one head and `d = feat = vfeat` on `a`, taken apart
/// by pass: the whole fused kernel's run and each pass of it compiled
/// alone from its Stage I program (`attention_pass_program`), all on whole
/// tensors, as minima per non-zero. Before timing, the fused entry point's
/// output is checked bit for bit against the three-launch pipeline oracle,
/// and the passes run one after another against the fused kernel.
///
/// # Panics
/// Panics when an output differs in a bit.
fn attention_passes(
    a: &Csr,
    d: usize,
    (rounds, reps): (usize, usize),
    rng: &mut rand::rngs::SmallRng,
) -> String {
    use sparsetir_core::prelude::{attention_pass_program, bind_csr, lower, ATTENTION_PASSES};
    let (q, kt, v) = (
        gen::random_dense(a.rows(), d, rng),
        gen::random_dense(d, a.cols(), rng),
        gen::random_dense(a.cols(), d, rng),
    );
    let rt = Runtime::new();
    let (qs, kts, vs) = ([&q], [&kt], [&v]);
    let mut served = vec![Dense::zeros(a.rows(), d)];
    fused_attention_views_on(&rt, a, &qs, &kts, &vs, &mut served).expect("served attention");
    let mut oracle = vec![Dense::zeros(a.rows(), d)];
    attention_pipeline_oracle(&rt, a, &qs, &kts, &vs, &mut oracle).expect("pipeline oracle");
    let what = format!("attention d={d}");
    assert_bits(&format!("{what} vs the pipeline oracle"), served[0].data(), oracle[0].data());

    let mut tensors: HashMap<String, TensorData> = HashMap::new();
    bind_csr(&mut tensors, "A", "J", a);
    for (name, m) in [("Q", &q), ("KT", &kt), ("V", &v)] {
        tensors.insert(name.to_string(), TensorData::from(m.data().to_vec()));
    }
    for (name, len) in [("S", a.nnz()), ("M", a.rows()), ("P", a.nnz()), ("Sum", a.rows())] {
        tensors.insert(name.to_string(), TensorData::from(vec![0.0f32; len]));
    }
    tensors.insert("Out".to_string(), TensorData::from(vec![0.0f32; a.rows() * d]));
    let shape = ((a.rows(), a.cols(), a.nnz()), (1, d, d));
    let passes: Vec<_> = ATTENTION_PASSES
        .iter()
        .map(|pass| {
            let program = attention_pass_program(pass, shape.0, shape.1).expect("a known pass");
            rt.compile(&lower(&program).expect("lowers")).expect("compiles")
        })
        .collect();
    let scalars = HashMap::new();
    let mut pieces = tensors.clone();
    for kernel in &passes {
        kernel.run(&scalars, &mut pieces).expect("runs");
    }
    assert_bits(&format!("{what}, pass by pass"), pieces["Out"].as_f32(), served[0].data());

    let fused = rt.compile(&fused_attention_ir(a, 1, d, d).expect("lowers")).expect("compiles");
    // The passes share the tensors the passes before each left.
    let (mut whole, apart) = (tensors, std::cell::RefCell::new(pieces));
    let mut arms: Vec<Box<dyn FnMut() + '_>> =
        vec![Box::new(|| fused.run(&scalars, &mut whole).expect("runs"))];
    for kernel in &passes {
        let (scalars, apart) = (&scalars, &apart);
        arms.push(Box::new(move || kernel.run(scalars, &mut apart.borrow_mut()).expect("runs")));
    }
    let mut refs: Vec<&mut dyn FnMut()> = arms.iter_mut().map(|arm| &mut **arm as _).collect();
    // A fused run is five passes' work: longer bursts than the launch
    // table's, so an arm's first, cold call weighs less.
    let got = minima(rounds, reps * 5, &mut refs);
    drop(refs);
    drop(arms);
    let per_nnz = |ns: f64| format!("{:.0}", ns / a.nnz() as f64);
    let mut row = vec![format!("d={d}, 1 head"), blocked(&fused), layouts(&fused)];
    row.extend(got.iter().map(|&ns| per_nnz(ns)));
    row.push(per_nnz(got[1..].iter().sum()));
    let headers = [
        "arm",
        "fused blocked/entries",
        "layout",
        "fused run",
        "score",
        "rowmax",
        "exp",
        "psum",
        "agg",
        "Σ passes",
    ];
    render_table(
        &format!(
            "launch_probe: fused attention by pass (n = {}, nnz = {}), run minima in ns per non-zero",
            a.rows(),
            a.nnz()
        ),
        &headers,
        &[row],
    )
}

/// The `[c, a, b]` minimising `Σ (c·p[0] + a·p[1] + b·p[2] − p[3])²`
/// (normal equations, Gaussian elimination).
fn least_squares(points: &[[f64; 4]]) -> [f64; 3] {
    let mut m = [[0.0f64; 4]; 3];
    for p in points {
        for r in 0..3 {
            for c in 0..4 {
                m[r][c] += p[r] * p[c];
            }
        }
    }
    for i in 0..3 {
        let pivot = (i..3).max_by(|&p, &q| m[p][i].abs().total_cmp(&m[q][i].abs())).unwrap_or(i);
        m.swap(i, pivot);
        for r in 0..3 {
            if r != i && m[i][i] != 0.0 {
                let f = m[r][i] / m[i][i];
                (0..4).for_each(|c| m[r][c] -= f * m[i][c]);
            }
        }
    }
    [0, 1, 2].map(|i| if m[i][i] == 0.0 { 0.0 } else { m[i][3] / m[i][i] })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five rounds in which the served arm's quietest burst and the direct
    /// arm's fell in different rounds (round one caught the direct burst
    /// busy): the difference of the minima reads the engine as saving
    /// 3 µs, the paired median reads the 1 µs most rounds show.
    #[test]
    fn the_engines_share_pairs_bursts_by_round() {
        let by_round = vec![
            vec![22_000.0, 26_000.0],
            vec![26_000.0, 25_000.0],
            vec![30_000.0, 29_000.0],
            vec![27_000.0, 26_000.0],
            vec![33_000.0, 31_500.0],
        ];
        assert_eq!(min_over(&by_round, 0) - min_over(&by_round, 1), -3_000.0);
        assert_eq!(paired_median(&by_round, 0, 1), 1_000.0);
    }
}
