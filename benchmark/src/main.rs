//! `stbench` — one benchmark for the whole stack. See `benchmark/README.md`
//! for the workloads, the metrics and how each layer metric is expected to
//! move each end-to-end metric.
//!
//! ```text
//! stbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! stbench --smoke                      # every workload, tiny, both modes
//! stbench compare <a.jsonl> <b.jsonl>  # judge b against a
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod compare;
mod inputs;
mod json;
mod kernel;
mod native;
mod serve;
mod stats;
mod trace;

use kernel::{KernelSpec, OPS};
use serve::{Dims, ServeSpec, ATTN, KINDS, SAGE, SDDMM, SPMM};
use stats::{median, Metrics};
use std::process::{Command, ExitCode};
use trace::Trace;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Operations attempted and failed (errors, rejections, wrong answers).
#[derive(Default)]
pub struct Counts {
    pub attempted: usize,
    pub failed: usize,
}

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run hands back to `main`.
pub struct Run {
    pub setup_s: f64,
    pub counts: Counts,
    pub metrics: Metrics,
    pub trace: Trace,
}

pub const WORKLOADS: [&str; 4] =
    ["kernel_wide", "kernel_narrow", "serve_multitenant", "serve_shared_dynamic"];

/// Set-ups per run: this process's own plus fresh child processes, so
/// every sample pays process-wide caches (the simulator tune cache) cold.
const SETUP_REPS: usize = 5;

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("native_ratio", "ratio"),
    ("cold_ratio", "ratio"),
    ("capacity_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit. A workload that does not
/// exercise a layer reports that layer's metrics as 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut one = |name: &str, unit| v.push((name.to_string(), unit));
    one("smat.gen_ms", "ms");
    one("smat.fingerprint_us_p50", "us");
    one("smat.apply_delta_ms_p50", "ms");
    one("smat.hyb_build_ms_p50", "ms");
    one("core.program_build_us_p50", "us");
    one("core.lower_us_p50", "us");
    one("core.decompose_ms_p50", "ms");
    one("ir.schedule_us_p50", "us");
    one("ir.cache_lookup_us_p50", "us");
    one("ir.compilations_per_kreq", "count");
    one("ir.pool_hit_frac", "fraction");
    one("autotune.sim_tune_ms_p50", "ms");
    one("autotune.cache_hits", "count");
    one("autotune.cache_misses", "count");
    one("engine.submit_us_p50", "us");
    one("engine.unattributed_frac", "fraction");
    one("engine.latency_ms_p99", "ms");
    one("engine.loaded_latency_ms_p99", "ms");
    one("engine.update_ms_p50", "ms");
    one("engine.batch_width_mean", "ratio");
    one("engine.batching_rate", "fraction");
    one("engine.hist_p50_ms", "ms");
    one("engine.hist_p99_ms", "ms");
    for name in [
        "max_batch",
        "queue_high_water",
        "bytes_copied",
        "rejected",
        "expired",
        "failed",
        "worker_panics",
        "deltas_applied",
        "retunes_started",
        "retunes_completed",
        "retunes_skipped",
    ] {
        one(&format!("engine.{name}"), "count");
    }
    one("bench.latency_ms", "ms");
    one("bench.cold_ms", "ms");
    one("bench.ops_per_s", "1/s");
    one("bench.span_coverage_frac", "fraction");
    one("bench.trace_overhead_frac", "fraction");
    for op in OPS {
        for (stem, unit) in [
            ("core.stage3_lines", "count"),
            ("ir.compile_us_p50", "us"),
            ("ir.bytecode_instrs", "count"),
            ("ir.super_instrs", "count"),
            ("ir.static_bytes", "bytes"),
            ("ir.run_ms_p50", "ms"),
            ("ir.ns_per_fma", "ns"),
            ("kernels.ir_build_ms_p50", "ms"),
            ("native.run_ms_p50", "ms"),
        ] {
            one(&format!("{stem}.{op}"), unit);
        }
    }
    for kind in KINDS {
        for stem in ["kernels.launch_ms", "engine.latency_ms", "engine.overhead_ms"] {
            one(&format!("{stem}.{kind}"), "ms");
        }
    }
    v
}

enum Workload {
    Kernel(KernelSpec),
    Serve(ServeSpec),
}

/// The four workloads. `smoke` shrinks sizes (and the update period, so a
/// sub-second window still sees updates); the code paths are the same.
fn workload(name: &str, smoke: bool) -> Option<Workload> {
    // pubmed: 19 717 nodes, 88 651 edges (Table 1).
    let pubmed =
        |d| KernelSpec { n: if smoke { 300 } else { 19_717 }, mean_deg: 88_651.0 / 19_717.0, d };
    Some(match name {
        "kernel_wide" => Workload::Kernel(pubmed(128)),
        "kernel_narrow" => Workload::Kernel(pubmed(4)),
        "serve_multitenant" => Workload::Serve(ServeSpec {
            tenants: if smoke { 4 } else { 48 },
            n_lo: if smoke { 64 } else { 256 },
            n_step: 8,
            mean_deg: 8.0,
            mix: &[(SPMM, 2), (SDDMM, 1)],
            dims: Dims { spmm: 16, sddmm: 8, attn: 0, sage_in: 0, sage_out: 0 },
            tune: false,
            delta_every: 0,
            spares: if smoke { 16 } else { 64 },
            cold_probe_every: 20,
        }),
        "serve_shared_dynamic" => Workload::Serve(ServeSpec {
            tenants: 1,
            n_lo: if smoke { 200 } else { 2000 },
            n_step: 0,
            // At twice this density the simulator search sits on a tie between
            // hyb column-partition counts that flips with the seed (±12 %
            // latency); here one configuration wins for every seed.
            mean_deg: 4.5,
            mix: &[(SPMM, 5), (SDDMM, 2), (ATTN, 2), (SAGE, 1)],
            dims: Dims { spmm: 32, sddmm: 16, attn: 16, sage_in: 16, sage_out: 16 },
            tune: true,
            delta_every: if smoke { 4 } else { 25 },
            // Every update makes the next request of each kind cold.
            spares: 0,
            cold_probe_every: 0,
        }),
        _ => return None,
    })
}

/// Pin this thread — and every thread and child process it starts from now
/// on — to one CPU; `false` when the platform has no such call or refuses.
///
/// The host is a shared VM whose two virtual CPUs are not equally fast at
/// any given moment (measured: the loaded-phase rate moved 50 % between
/// two minutes while the unloaded latency stayed put, depending on whether
/// generator and worker happened to slow each other down). On one CPU the
/// generator, the engine worker and the native yardstick all see the same
/// interference, so it cancels in every ratio.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else { return false };
    *word = 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: `sched_setaffinity(0, len, mask)` (syscall 203) only reads
    // `len` bytes from `mask`, which is live across the call; the `syscall`
    // instruction clobbers rcx and r11, both declared.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_to_cpu(_cpu: usize) -> bool {
    false
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

fn run_workload(name: &str, smoke: bool, cfg: &RunCfg) -> Res<Run> {
    match workload(name, smoke).ok_or_else(|| format!("unknown workload `{name}`"))? {
        Workload::Kernel(spec) => kernel::run(&spec, cfg),
        Workload::Serve(spec) => serve::run(&spec, cfg),
    }
}

/// Run the set-up alone in `reps` fresh processes; each prints its own
/// set-up seconds.
fn child_setups(name: &str, seed: u64, reps: usize) -> Res<Vec<f64>> {
    let exe = std::env::current_exe()?;
    let mut out = Vec::new();
    for _ in 0..reps {
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string(), "--setup-only"])
            .output()?;
        if !child.status.success() {
            return Err(format!("set-up child exited with {}", child.status).into());
        }
        out.push(String::from_utf8_lossy(&child.stdout).trim().parse::<f64>()?);
    }
    Ok(out)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(counts: &Counts, metrics: &Metrics) -> String {
    let cells: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, m)| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        counts.failed == 0,
        counts.attempted,
        counts.failed,
        cells.join(", ")
    )
}

/// One workload, start to result: set-ups, the window, the named metrics.
/// `setup_reps` beyond this process's own run in child processes.
fn report(name: &str, smoke: bool, cfg: &RunCfg, setup_reps: usize) -> Res<(Run, String)> {
    let mut setups = child_setups(name, cfg.seed, setup_reps.saturating_sub(1))?;
    let Run { setup_s, counts, mut metrics, trace } = run_workload(name, smoke, cfg)?;
    setups.push(setup_s);
    let declared = if cfg.trace {
        per_layer_names()
    } else {
        metrics.set("setup_s", median(&setups), "s", setups.len());
        metrics.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    for (metric, unit) in declared {
        if !metrics.0.contains_key(&metric) {
            metrics.set(&metric, 0.0, unit, 0);
        }
    }
    println!("# {name} seed={} seconds={} trace={}", cfg.seed, cfg.seconds, u8::from(cfg.trace));
    for (metric, m) in &metrics.0 {
        println!("{metric:<44} {:>16.6} {:<8} n={}", m.value, m.unit, m.n);
    }
    if cfg.trace {
        print!("{}", trace.self_time_table());
    }
    let line = result_line(&counts, &metrics);
    Ok((Run { setup_s, counts, metrics, trace }, line))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    setup_only: bool,
    out_dir: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        setup_only: false,
        out_dir: "benchmark/out".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--out-dir" => a.out_dir = value()?.clone(),
            "--smoke" => a.smoke = true,
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// `Ok(false)` asks for a non-zero exit: `compare` found a row that is not
/// `ok`, or a `--smoke` operation failed. A workload run that finishes is
/// `Ok(true)` even when an operation failed — its result line carries
/// `correct: false`, and `run.sh` acts on that.
fn real_main(argv: &[String]) -> Res<bool> {
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv else { return Err("usage: stbench compare <a> <b>".into()) };
        let spec = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        return Ok(compare::compare(&spec, a, b)?);
    }
    let args = parse_args(argv)?;
    // One executor thread: `Par` loops run inline, so kernel workloads are
    // single-threaded and serving is one generator plus one worker.
    std::env::set_var("SPARSETIR_NUM_THREADS", "1");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The last CPU: the first one usually takes the interrupts.
    let pinned = pin_to_cpu(cores - 1);
    let mut cfg = RunCfg { seed: args.seed, seconds: args.seconds, trace: args.trace };
    if args.smoke {
        // Every workload in both modes, tiny sizes, one set-up each.
        let mut clean = true;
        cfg.seconds = 0.5;
        for name in WORKLOADS {
            for trace in [false, true] {
                cfg.trace = trace;
                let (run, line) = report(name, true, &cfg, 1)?;
                clean &= run.counts.failed == 0;
                println!("{line}");
            }
        }
        return Ok(clean);
    }
    let name = args.workload.ok_or("--workload <name> is required (or --smoke, or compare)")?;
    if args.setup_only {
        let t0 = std::time::Instant::now();
        match workload(&name, false).ok_or_else(|| format!("unknown workload `{name}`"))? {
            Workload::Kernel(spec) => kernel::setup_only(&spec, cfg.seed)?,
            Workload::Serve(spec) => serve::setup_only(&spec, cfg.seed)?,
        }
        println!("{}", t0.elapsed().as_secs_f64());
        return Ok(true);
    }
    println!("# SPARSETIR_NUM_THREADS=1 cores={cores} pinned_to_one_cpu={pinned}");
    let (run, line) = report(&name, false, &cfg, SETUP_REPS)?;
    if cfg.trace {
        std::fs::create_dir_all(&args.out_dir)?;
        let path = format!("{}/trace-{name}.json", args.out_dir);
        std::fs::write(&path, run.trace.chrome_json())?;
        println!("# trace written to {path}");
    }
    println!("{line}");
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn spec() -> json::Json {
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names_of(spec: &json::Json, key: &str) -> BTreeSet<String> {
        let items = spec.get(key).expect(key).as_arr();
        items.iter().map(|m| m.get("name").unwrap().as_str().unwrap().to_string()).collect()
    }

    /// Smoke-run every workload in both modes and hold the printed names
    /// to exactly the set `BENCHMARK.json` declares.
    #[test]
    fn smoke_prints_exactly_the_declared_metrics() {
        let spec = spec();
        let declared: BTreeSet<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names_of(&spec, "workloads"), declared);
        for name in WORKLOADS {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let cfg = RunCfg { seed: 3, seconds: 0.6, trace };
                let (run, line) = report(name, true, &cfg, 1).expect(name);
                assert_eq!(run.counts.failed, 0, "{name}: a smoke operation failed");
                assert!(run.counts.attempted > 0);
                let parsed = json::parse(&line).expect("result line parses");
                let keys: Vec<&str> = parsed.fields().iter().map(|f| f.0.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let printed: BTreeSet<String> =
                    parsed.get("metrics").unwrap().fields().iter().map(|f| f.0.clone()).collect();
                assert_eq!(printed, names_of(&spec, key), "{name} trace={trace}");
                if !trace {
                    for (metric, m) in &run.metrics.0 {
                        assert!(m.value > 0.0, "{name}: end-to-end {metric} must never be 0");
                    }
                }
            }
        }
    }

    #[test]
    fn declared_units_match_printed_units() {
        let spec = spec();
        let mut printed: Vec<(String, &str)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
        printed.extend(per_layer_names());
        for key in ["end_to_end", "per_layer"] {
            for m in spec.get(key).unwrap().as_arr() {
                let name = m.get("name").unwrap().as_str().unwrap();
                let unit = m.get("unit").unwrap().as_str().unwrap();
                let ours = printed.iter().find(|p| p.0 == name).map(|p| p.1);
                assert_eq!(ours, Some(unit), "{name}");
            }
        }
    }

    /// The benchmark may lean only on API that later simplicity PRs intend
    /// to keep: none of the paths slated for deletion may appear in its
    /// sources. (The needles are spelled in pieces so this file passes.)
    #[test]
    fn sources_avoid_api_slated_for_removal() {
        let sources = [
            include_str!("main.rs"),
            include_str!("kernel.rs"),
            include_str!("serve.rs"),
            include_str!("native.rs"),
            include_str!("inputs.rs"),
            include_str!("stats.rs"),
            include_str!("trace.rs"),
            include_str!("compare.rs"),
            include_str!("json.rs"),
        ];
        let banned = [
            ["Exec", "Backend"].concat(),
            ["copy", "_batch"].concat(),
            ["launch", "_stacked"].concat(),
            ["submit", "_spmm"].concat(),
            ["SPARSETIR_", "TREE_EXEC"].concat(),
            ["SPARSETIR_", "COPY_BATCH"].concat(),
            ["experiments", "::"].concat(),
        ];
        for (i, src) in sources.iter().enumerate() {
            for needle in &banned {
                assert!(!src.contains(needle.as_str()), "source #{i} mentions `{needle}`");
            }
        }
    }

    #[test]
    fn argument_errors_are_reported() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
        let a =
            args(&["--workload", "kernel_wide", "--seed", "7", "--seconds", "2", "--trace", "1"])
                .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("kernel_wide"), 7, 2.0, true)
        );
        assert!(workload("nope", false).is_none());
    }
}
