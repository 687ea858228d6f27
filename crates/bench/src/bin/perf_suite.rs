//! Runs the experiments whose bars assert a *behaviour* — not a
//! regression, which `stbench` (`benchmark/`) judges against native
//! kernels — in one process: `serving_throughput`, `serving_slo` and
//! `dynamic_graphs`, writing their combined records to
//! `BENCH_results.json` (uploaded by CI, compared by nothing).
//! `SPARSETIR_BENCH_ASSERT=1` arms every bar: ≥ 2× batched SpMM serving
//! at 8 clients, batching happened on every arm at 8 clients (a count,
//! not a wall clock), ≥ 1.3× SLO deadline-hit-rate over the FIFO
//! baseline at 8 clients (with non-degenerate p50/p95/p99), ≥ 1.2×
//! incremental graph updates over rebuild-from-scratch. The batched
//! serving arms also hard-assert `bytes_copied == 0`, armed or not.

use sparsetir_bench::{experiments, report};

fn main() {
    print!("{}", experiments::serving_throughput::run());
    println!();
    print!("{}", experiments::serving_slo::run());
    println!();
    print!("{}", experiments::dynamic_graphs::run());
    let records = report::take_records();
    let path = std::path::Path::new("BENCH_results.json");
    report::write_results(path, &records, experiments::smoke()).expect("write BENCH_results.json");
    eprintln!("[perf_suite] wrote {} records to {}", records.len(), path.display());
}
