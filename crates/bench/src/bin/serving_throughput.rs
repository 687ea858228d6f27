//! Runs the serving-throughput experiment (batched vs unbatched engine
//! at 1/4/8 client threads; SpMM, SDDMM, fused attention) and writes
//! `BENCH_results.json`. `SPARSETIR_BENCH_ASSERT=1` enforces the ≥ 2×
//! batched-over-unbatched SpMM requests/sec bar and that every arm
//! batched at 8 clients.

use sparsetir_bench::{experiments, report};

fn main() {
    print!("{}", experiments::serving_throughput::run());
    let records = report::take_records();
    let path = std::path::Path::new("BENCH_results.json");
    report::write_results(path, &records, experiments::smoke()).expect("write BENCH_results.json");
    eprintln!("[serving_throughput] wrote {} records to {}", records.len(), path.display());
}
