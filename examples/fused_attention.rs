//! Cross-op fusion walkthrough: compile the whole sparse attention
//! pipeline — SDDMM scores, edge-softmax, SpMM aggregation — into **one**
//! kernel sharing a single non-zero walk, check it bit-for-bit against
//! the three-launch pipeline oracle, then serve it through the
//! engine.
//!
//! ```sh
//! cargo run --release --example fused_attention
//! ```

use sparsetir::prelude::*;
use std::sync::Arc;

fn main() {
    let n = 512;
    let mut rng = gen::rng(0xF0);
    let graph = gen::random_csr_with_row_lengths(
        n,
        n,
        |r| {
            use rand::Rng;
            let u: f64 = r.gen_range(0.0..1.0);
            ((2.0 / (u + 0.01)) as usize).clamp(0, n / 4)
        },
        &mut rng,
    );
    let (k, vfeat, heads) = (8, 8, 2);
    println!(
        "sparse attention over {} nodes, {} edges, {heads} heads (k={k}, dv={vfeat})",
        graph.rows(),
        graph.nnz()
    );

    // --- One kernel vs three ------------------------------------------
    // One request of `heads` heads: each head's Q (n × k), Kᵀ (k × n) and
    // V (n × dv) binds in place as flat slices of one run of the
    // one-head kernel — the launch runs it once per head.
    let request: Vec<AttnHead> = (0..heads)
        .map(|_| AttnHead {
            q: gen::random_dense(n, k, &mut rng),
            kt: gen::random_dense(k, n, &mut rng),
            v: gen::random_dense(n, vfeat, &mut rng),
        })
        .collect();
    let qs: Vec<&Dense> = request.iter().map(|h| &h.q).collect();
    let kts: Vec<&Dense> = request.iter().map(|h| &h.kt).collect();
    let vs: Vec<&Dense> = request.iter().map(|h| &h.v).collect();
    let fused_rt = Runtime::new();
    let mut fused = vec![Dense::zeros(n, vfeat); heads];
    fused_attention_views_on(&fused_rt, &graph, &qs, &kts, &vs, &mut fused).expect("fused");
    println!(
        "fused:    {} kernel(s) compiled — score, row-max, exp-sum and aggregate passes share one \
         launch",
        fused_rt.cached()
    );

    // The same operands through the three-launch pipeline: a test
    // reference (`attention_pipeline_oracle`), not something a serving or
    // library call ever selects.
    let pipeline_rt = Runtime::new();
    let mut pipeline = vec![Dense::zeros(n, vfeat); heads];
    attention_pipeline_oracle(&pipeline_rt, &graph, &qs, &kts, &vs, &mut pipeline)
        .expect("pipeline");
    println!("pipeline: {} kernels compiled — SDDMM, edge-softmax, SpMM", pipeline_rt.cached());

    let bit_identical = fused
        .iter()
        .zip(&pipeline)
        .all(|(f, p)| f.data().iter().zip(p.data()).all(|(a, b)| a.to_bits() == b.to_bits()));
    println!("fused vs three-launch pipeline bit-identical: {bit_identical}");
    assert!(bit_identical);

    let reference: Vec<Dense> =
        request.iter().map(|h| fused_attention_reference(&graph, &h.q, &h.kt, &h.v, 1)).collect();
    let max_diff =
        fused.iter().zip(&reference).map(|(f, r)| f.max_abs_diff(r)).fold(0.0f32, f32::max);
    println!("max |Δ| vs f64 reference: {max_diff:.2e}");
    assert!(fused.iter().zip(&reference).all(|(f, r)| f.approx_eq(r, 1e-4)));

    // The fused kernel still hits the dense-lane microkernels: the score
    // pass gathers+scales over feature lanes, the aggregate pass runs
    // coefficient AXPYs over value lanes.
    let f = fused_attention_ir(&graph, heads, k, vfeat).expect("lowering");
    let kinds = Runtime::new().compile(&f).expect("compiles").fused_kinds();
    println!("microkernels in the fused launch: {kinds:?}");

    // --- Serving ------------------------------------------------------
    // Concurrent clients share the engine's one compiled fused kernel:
    // each request is one launch, one run of the one-head kernel per
    // head, and the whole three-op pipeline is one kernel to begin with.
    let engine = Arc::new(Engine::new(EngineConfig { workers: 1, queue_depth: 64 }));
    let adj = Adjacency::new(graph.clone());
    let clients = 8;
    let per_client = 8;
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let engine = Arc::clone(&engine);
            let adj = adj.clone();
            s.spawn(move || {
                let mut rng = gen::rng(200 + client as u64);
                for _ in 0..per_client {
                    let head = AttnHead {
                        q: gen::random_dense(n, k, &mut rng),
                        kt: gen::random_dense(k, n, &mut rng),
                        v: gen::random_dense(n, vfeat, &mut rng),
                    };
                    let outs = engine
                        .serve(&adj, Submission::fused_attention(vec![head]))
                        .and_then(OpOutput::into_heads)
                        .expect("served");
                    assert_eq!((outs[0].rows(), outs[0].cols()), (n, vfeat));
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let stats = engine.stats();
    println!(
        "served {} fused-attention requests in {:.1} ms ({:.0} req/s)",
        stats.completed,
        elapsed.as_secs_f64() * 1e3,
        stats.completed as f64 / elapsed.as_secs_f64()
    );
    println!("  {} launches — one cross-op kernel per request", stats.batches);
    println!("  compiled kernels: {}", engine.runtime().cached());
}
