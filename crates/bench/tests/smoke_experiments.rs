//! Every paper-figure experiment must execute end to end without
//! panicking. `SPARSETIR_SMOKE` shrinks the sweeps (fewer graphs, fewer
//! feature sizes, one GPU, smaller synthetic instances) so the whole
//! battery — `experiments::ALL`, what the `experiments` binary runs —
//! finishes in test time. The experiments share no state, so the tests
//! below split `ALL` into disjoint slices that `cargo test` overlaps.

use sparsetir_bench::experiments::{self as e, ALL};
use std::process::Command;

/// The experiments that run real kernels — requests through the engine,
/// or launches under a stopwatch (the wall-clock ones); everything else in
/// `ALL` prices plans on the GPU simulator.
const SERVED: [&str; 5] =
    ["autotuning", "serving_throughput", "serving_slo", "dynamic_graphs", "launch_probe"];

/// Run the named experiment in smoke mode and check it rendered a table.
fn run_smoke(name: &str) -> String {
    // Every test of this binary sets the same value and none unsets it.
    std::env::set_var("SPARSETIR_SMOKE", "1");
    assert!(e::smoke(), "smoke mode must be active for this test");
    let (_, run) = ALL.iter().find(|(n, _)| *n == name).expect("a name in `experiments::ALL`");
    let out = run();
    assert!(!out.trim().is_empty(), "{name} rendered nothing");
    assert!(out.contains('|') || out.contains('-'), "{name} is not a table:\n{out}");
    out
}

/// The data rows of a rendered table: the lines after the dashed rule
/// that split into at least two cells.
fn rows(table: &str) -> Vec<Vec<&str>> {
    table
        .lines()
        .skip_while(|l| !l.starts_with("--"))
        .skip(1)
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|cells| cells.len() >= 2)
        .collect()
}

#[test]
fn simulator_figures_run_end_to_end_in_smoke_mode() {
    let figures: Vec<&str> = ALL.iter().map(|(n, _)| *n).filter(|n| !SERVED.contains(n)).collect();
    assert_eq!(figures.len(), 13);
    for name in figures {
        run_smoke(name);
    }
}

#[test]
fn serving_throughput_runs_end_to_end_in_smoke_mode() {
    let out = run_smoke("serving_throughput");
    // op | clients | req/s
    let rows = rows(&out);
    let attn = rows
        .iter()
        .find(|r| r[0] == "fused_attention" && r[1] == "8")
        .unwrap_or_else(|| panic!("no fused-attention arm at 8 clients:\n{out}"));
    assert!(attn[2].parse::<f64>().is_ok_and(|rps| rps > 0.0), "requests/sec:\n{out}");
    for op in ["spmm", "sddmm"] {
        assert!(rows.iter().any(|r| r[0] == op && r[1] == "8"), "no {op} arm at 8 clients:\n{out}");
    }
}

#[test]
fn slo_dynamic_graphs_and_autotuning_run_end_to_end_in_smoke_mode() {
    let out = run_smoke("serving_slo");
    // clients | lo+hi | fifo hit % | slo hit % | gain | capped gain | …
    let slo = rows(&out);
    let c8 = slo
        .iter()
        .find(|r| r[0] == "8")
        .unwrap_or_else(|| panic!("no 8-client overload arm:\n{out}"));
    assert!(c8[2].ends_with('%') && c8[3].ends_with('%'), "raw deadline-hit rates:\n{out}");
    let capped: f64 = c8[5].trim_end_matches('x').parse().expect("capped hit-rate gain");
    assert!((0.0..=e::serving_slo::GAIN_CAP).contains(&capped), "capped gain {capped}:\n{out}");

    let out = run_smoke("dynamic_graphs");
    // batches | ops/batch | inc update ms | rebuild ms | speedup | …
    let update = &rows(&out)[0];
    assert!(update[2].parse::<f64>().is_ok() && update[3].parse::<f64>().is_ok(), "{out}");
    assert!(update[4].ends_with('x'), "incremental-vs-rebuild update speedup:\n{out}");

    let out = run_smoke("autotuning");
    assert!(out.contains("measured") && out.contains("untuned"), "{out}");
    let timed = rows(&out).iter().filter(|r| r.iter().filter(|c| **c == "µs").count() >= 3).count();
    assert!(timed >= 1, "autotuning must print sim-pick, tuned and untuned times:\n{out}");
}

#[test]
fn launch_probe_runs_end_to_end_in_smoke_mode() {
    // Running it is the assertion that counts: every served output is
    // checked bit for bit against the probe's own fully-checked loop.
    let out = run_smoke("launch_probe");
    // arm | whole launch | run_views | floor | native f32
    let rows = rows(&out);
    for arm in ["spmm d=16 csr", "spmm d=16 hyb(1,3)", "sddmm k=8"] {
        let row = rows.iter().find(|r| r.join(" ").starts_with(arm));
        let row = row.unwrap_or_else(|| panic!("no `{arm}` arm:\n{out}"));
        let cells = &row[row.len() - 4..];
        assert!(cells.iter().all(|c| c.parse::<f64>().is_ok_and(|us| us > 0.0)), "{arm}:\n{out}");
    }
    assert!(out.contains("entries ×") && out.contains("nnz ×"), "the sweep's fit:\n{out}");
}

fn experiments_bin(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("SPARSETIR_SMOKE", "1")
        .output()
        .expect("experiments binary runs")
}

#[test]
fn binary_lists_rejects_and_runs_by_name() {
    let listed = experiments_bin(&["--list"]);
    assert!(listed.status.success());
    let names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
    assert_eq!(names.len(), 18);
    assert_eq!(String::from_utf8_lossy(&listed.stdout).lines().collect::<Vec<_>>(), names);

    let unknown = experiments_bin(&["table1", "fig99"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(unknown.stdout.is_empty(), "nothing runs when a name is unknown");
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(stderr.contains("fig99") && names.iter().all(|n| stderr.contains(n)), "{stderr}");

    let one = experiments_bin(&["table1"]);
    assert!(one.status.success());
    let stdout = String::from_utf8_lossy(&one.stdout);
    assert_eq!(stdout.lines().filter(|l| l.starts_with("== ")).count(), 1, "{stdout}");
    assert!(stdout.starts_with("== Table 1"), "{stdout}");
}
