//! Runs the perf-gated experiments — `executor_vectorization`,
//! `serving_throughput`, `fused_attention`, `serving_slo` and
//! `dynamic_graphs` — in one process and writes their combined records
//! to `BENCH_results.json`, the input of the CI perf-gate and of
//! `scripts/update_bench_baseline.sh`.
//! `SPARSETIR_BENCH_ASSERT=1` arms every bar: ≥ 2× fused-over-generic on
//! CSR SpMM, ≥ 2× batched SpMM serving at 8 clients, ≥ 1.1× batched
//! SDDMM serving at 8 clients, ≥ 2× fused attention serving over the
//! three-launch pipeline at 8 clients, ≥ 1.3× SLO deadline-hit-rate over
//! the FIFO baseline at 8 clients (with non-degenerate p50/p95/p99),
//! ≥ 1.2× incremental graph updates over rebuild-from-scratch. The
//! batched serving arms also hard-assert `bytes_copied == 0`, armed or
//! not.

use sparsetir_bench::{experiments, report};

fn main() {
    print!("{}", experiments::executor_vectorization::run());
    println!();
    print!("{}", experiments::serving_throughput::run());
    println!();
    print!("{}", experiments::fused_attention::run());
    println!();
    print!("{}", experiments::serving_slo::run());
    println!();
    print!("{}", experiments::dynamic_graphs::run());
    let records = report::take_records();
    let path = std::path::Path::new("BENCH_results.json");
    report::write_results(path, &records, experiments::smoke()).expect("write BENCH_results.json");
    eprintln!("[perf_suite] wrote {} records to {}", records.len(), path.display());
}
