//! Every paper-figure experiment must execute end to end without
//! panicking. `SPARSETIR_SMOKE` shrinks the sweeps (fewer graphs, fewer
//! feature sizes, one GPU, smaller synthetic instances) so the whole
//! battery — the same list `all_experiments` runs — finishes in test time.

use sparsetir_bench::{experiments as e, report};

#[test]
fn all_experiments_run_end_to_end_in_smoke_mode() {
    std::env::set_var("SPARSETIR_SMOKE", "1");
    assert!(e::smoke(), "smoke mode must be active for this test");
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
        let out = run();
        assert!(!out.trim().is_empty(), "{name} rendered nothing");
        assert!(out.contains('|') || out.contains('-'), "{name} is not a table:\n{out}");
    }

    // The run must have produced the machine-readable records
    // `all_experiments` writes to `BENCH_results.json`.
    let records = report::take_records();
    assert!(
        records.iter().any(|r| r.experiment == "autotuning"),
        "autotuning must record measured times"
    );
    assert!(
        records.iter().any(|r| r.experiment == "serving_throughput"),
        "serving_throughput must record requests/sec results"
    );
    assert!(
        records
            .iter()
            .any(|r| r.experiment == "serving_throughput" && r.name == "fused_attention/c8/speedup"),
        "serving_throughput must record its fused-attention arm"
    );
    assert!(
        records.iter().any(|r| r.experiment == "serving_slo" && r.name == "c8/hit_gain_capped"),
        "serving_slo must record the gated 8-client hit-rate gain"
    );
    assert!(
        records.iter().any(|r| r.experiment == "serving_slo" && r.unit == "rate"),
        "serving_slo must record raw deadline-hit rates"
    );
    assert!(
        records.iter().any(|r| r.experiment == "dynamic_graphs" && r.name == "update/speedup"),
        "dynamic_graphs must record the gated incremental-vs-rebuild update speedup"
    );
    let dir = std::env::temp_dir().join(format!("sparsetir_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_results.json");
    report::write_results(&path, &records, true).unwrap();
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written, report::render_results(&records, true));
    assert_eq!(written.matches("\"experiment\":").count(), records.len());
    std::fs::remove_dir_all(&dir).ok();
}
