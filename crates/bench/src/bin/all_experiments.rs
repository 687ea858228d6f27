//! Runs every experiment harness in sequence (the full reproduction) and
//! writes the collected timing records to `BENCH_results.json`.
use sparsetir_bench::{experiments as e, report};

fn main() {
    for (name, run) in [
        ("table1", e::table1::run as fn() -> String),
        ("fig12", e::fig12::run),
        ("fig13", e::fig13::run),
        ("fig14", e::fig14::run),
        ("fig15", e::fig15::run),
        ("fig16", e::fig16::run),
        ("fig17", e::fig17::run),
        ("fig19", e::fig19::run),
        ("table2", e::table2::run),
        ("fig20", e::fig20::run),
        ("fig23", e::fig23::run),
        ("ablation_hfuse", e::ablation_hfuse::run),
        ("ablation_bucketing", e::ablation_bucketing::run),
        ("autotuning", e::autotuning::run),
        ("serving_throughput", e::serving_throughput::run),
        ("serving_slo", e::serving_slo::run),
        ("dynamic_graphs", e::dynamic_graphs::run),
    ] {
        eprintln!("[all_experiments] running {name} …");
        print!("{}", run());
        println!();
    }
    let records = report::take_records();
    let path = std::path::Path::new("BENCH_results.json");
    report::write_results(path, &records, e::smoke()).expect("write BENCH_results.json");
    eprintln!("[all_experiments] wrote {} records to {}", records.len(), path.display());
}
