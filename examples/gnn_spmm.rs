//! GNN SpMM with composable formats: decompose a skewed graph into the
//! paper's `hyb(c, k)` format (Figure 11), validate the decomposed program
//! end to end, and autotune the joint format × schedule space (§4.2.1).
//!
//! Run with: `cargo run --release --example gnn_spmm`

use sparsetir::prelude::*;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A power-law graph — the degree skew that motivates bucketing.
    let spec_cora = graph_by_name("cora").expect("cora registered");
    let graph = spec_cora.generate();
    let (max_deg, mean_deg, _) = graph.degree_stats();
    println!(
        "graph `{}`: {} nodes, {} edges, degrees max {} / mean {:.1}",
        spec_cora.name,
        graph.rows(),
        graph.nnz(),
        max_deg,
        mean_deg
    );

    // Decompose into hyb(2, k): every (partition, bucket) pair becomes one
    // bucket_ell FormatRewriteRule, exactly as §3.2.1 prescribes.
    let feat = 16;
    let hyb = Hyb::with_default_k(&graph, 2)?;
    println!(
        "hyb(c=2, k={}): {} stored entries, padding {:.1}%",
        hyb.bucket_k(),
        hyb.stored(),
        hyb.padding_ratio() * 100.0
    );

    let program = spmm_program(graph.rows(), graph.cols(), graph.nnz(), feat);
    let mut rules = Vec::new();
    let mut buckets = Vec::new();
    for (pi, part) in hyb.partitions().iter().enumerate() {
        for bucket in &part.buckets {
            if bucket.is_empty() {
                continue;
            }
            let tag = format!("p{pi}_w{}", bucket.width);
            rules.push(FormatRewriteRule::bucket_ell(
                "A",
                &tag,
                bucket.width,
                bucket.len(),
                graph.cols(),
            ));
            buckets.push((tag, bucket.clone()));
        }
    }
    let decomposed = decompose_format(&program, &rules)?.strip_copies();
    println!(
        "decomposed program has {} iterations over {} buffers",
        decomposed.iterations.len(),
        decomposed.buffers.len()
    );

    // Lower and execute the decomposed program on the bucketed storage.
    let func = lower(&decomposed)?;
    let mut rng = gen::rng(7);
    let x = gen::random_dense(graph.cols(), feat, &mut rng);
    let mut bindings = Bindings::new();
    for (tag, bucket) in &buckets {
        bind_bucket(&mut bindings, tag, bucket);
    }
    bind_csr(&mut bindings, "A", "J", &graph);
    bind_dense(&mut bindings, "B", &x);
    bind_zeros(&mut bindings, "C", graph.rows() * feat);
    exec_func(&func, &HashMap::new(), &mut bindings)?;
    let got = read_dense(&bindings, "C", graph.rows(), feat);
    assert!(got.approx_eq(&graph.spmm(&x)?, 1e-3));
    println!("decomposed SpMM matches the CSR reference ✓");

    // Autotune the joint space and compare against the vendor baseline.
    let gpu = GpuSpec::v100();
    let tuned = tune_spmm(&gpu, &graph, 64);
    let vendor = simulate_kernel(&gpu, &cusparse_spmm_plan(&graph, 64));
    println!(
        "tuning explored {} configs; best = {:?} → {:.3} ms vs cuSPARSE {:.3} ms ({:.2}x)",
        tuned.trials,
        tuned.config.col_parts,
        tuned.report.time_ms,
        vendor.time_ms,
        vendor.time_ms / tuned.report.time_ms
    );
    Ok(())
}
