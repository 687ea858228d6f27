//! Serving walkthrough: stand up the engine over one shared adjacency,
//! hammer it from concurrent client threads, and watch every request hit
//! the kernels its shape compiled once, one launch per request.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use sparsetir::nn::prelude::{serve_sage_forward, serving_adjacency, GraphSage};
use sparsetir::prelude::*;
use std::sync::Arc;

fn main() {
    // A power-law graph: the degree skew that makes sparse serving
    // interesting (and the hyb decomposition worthwhile).
    let n = 2000;
    let mut rng = gen::rng(0x5e);
    let graph = gen::random_csr_with_row_lengths(
        n,
        n,
        |r| {
            use rand::Rng;
            let u: f64 = r.gen_range(0.0..1.0);
            ((2.0 / (u + 0.01)) as usize).clamp(1, n / 2)
        },
        &mut rng,
    );
    println!("graph: {} nodes, {} edges", graph.rows(), graph.nnz());

    // One engine per deployment: it owns the kernel cache and the
    // per-adjacency tuning decisions every client thread shares, and it
    // serves requests on the threads that submit and wait (it starts none).
    let engine = Arc::new(Engine::new(EngineConfig { workers: 1, queue_depth: 64 }));

    // --- Raw SpMM serving: 8 clients share one adjacency ------------
    // Each request goes through the `Submission` builder: deadline and
    // priority ride along with the operands, and the engine's admission
    // controller sheds what it cannot serve in time.
    let adj = Adjacency::new(graph.clone());
    let feat = 16;
    let clients = 8;
    let per_client = 16;
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let engine = Arc::clone(&engine);
            let adj = adj.clone();
            s.spawn(move || {
                let mut rng = gen::rng(100 + client as u64);
                for _ in 0..per_client {
                    let x = gen::random_dense(n, feat, &mut rng);
                    let y = engine
                        .serve(&adj, Submission::spmm(x).priority(Priority::Normal))
                        .and_then(OpOutput::into_dense)
                        .expect("request served");
                    assert_eq!((y.rows(), y.cols()), (n, feat));
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let stats = engine.stats();
    println!(
        "served {} SpMM requests in {:.1} ms ({:.0} req/s)",
        stats.completed,
        elapsed.as_secs_f64() * 1e3,
        stats.completed as f64 / elapsed.as_secs_f64()
    );
    println!("  kernel launches: {} (one per request)", stats.batches);
    println!(
        "  mean latency {:.2} ms, worst {:.2} ms, queue high-water {}",
        stats.mean_latency_ns() / 1e6,
        stats.latency_ns_max as f64 / 1e6,
        stats.queue_high_water
    );
    println!(
        "  compiled kernels: {} ({} compilations for {} requests — compile once, serve many)",
        engine.runtime().cached(),
        engine.runtime().compilations(),
        stats.completed
    );
    println!(
        "  kernel lookups: {} by spec, {} found compiled (a warm launch builds no IR)",
        stats.kernel_lookups, stats.kernel_hits
    );

    // --- The generic op path: SDDMM and per-head SpMM share the queue ---
    // Every op submits through one generic path (Submission → Ticket →
    // OpOutput), and a multi-head aggregation is one SpMM ticket per
    // head. Each finds the engine idle and is served on this thread as it
    // is submitted (one launch at a time), so its ticket comes back
    // answered. Deadlines bound queueing: a request the engine cannot
    // answer in time is shed with a typed rejection instead of silently
    // running late.
    let mut rng = gen::rng(77);
    let sddmm_tickets: Vec<_> = (0..4)
        .map(|_| {
            let x = gen::random_dense(n, 8, &mut rng);
            let y = gen::random_dense(8, n, &mut rng);
            let sub = Submission::sddmm(x, y).deadline(std::time::Duration::from_secs(5));
            engine.submit(&adj, sub).expect("submits")
        })
        .collect();
    for t in sddmm_tickets {
        let edges = t.wait_edges().expect("sddmm served");
        assert_eq!(edges.len(), graph.nnz());
    }
    let before = engine.stats().batches;
    let head_tickets: Vec<_> = (0..4)
        .map(|_| {
            let x = gen::random_dense(n, 8, &mut rng);
            engine.submit(&adj, Submission::spmm(x).priority(Priority::Hi)).expect("submits")
        })
        .collect();
    for t in head_tickets {
        let out = t.wait_dense().expect("head served");
        assert_eq!((out.rows(), out.cols()), (n, 8));
    }
    let launches = engine.stats().batches - before;
    println!(
        "generic op path: 4 SDDMM requests (per-edge outputs) + 4 per-head SpMM requests \
         (the heads in {launches} SpMM launches)"
    );

    // --- Cross-op fused attention: SDDMM → softmax → SpMM, one kernel ---
    // A FusedAttention request carries (Q, Kᵀ, V) per head; the engine
    // compiles the whole pipeline into a single kernel and runs it once
    // per head.
    let (k, vfeat) = (8, 8);
    let fused_tickets: Vec<_> = (0..4)
        .map(|_| {
            let head = AttnHead {
                q: gen::random_dense(n, k, &mut rng),
                kt: gen::random_dense(k, n, &mut rng),
                v: gen::random_dense(n, vfeat, &mut rng),
            };
            engine.submit(&adj, Submission::fused_attention(vec![head])).expect("submits")
        })
        .collect();
    for t in fused_tickets {
        let outs = t.wait_heads().expect("fused attention served");
        assert_eq!((outs.len(), outs[0].rows(), outs[0].cols()), (1, n, vfeat));
    }
    println!("fused attention: 4 requests served, whole pipeline in one kernel per launch");

    let stats = engine.stats();

    // --- SLO accounting: latency percentiles and per-priority counters ---
    // The lock-free log-bucketed histogram answers p50/p95/p99 without
    // per-request allocation; shed/expired counters say what the
    // admission controller refused and why.
    println!(
        "latency percentiles: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        stats.latency.p50() as f64 / 1e6,
        stats.latency.p95() as f64 / 1e6,
        stats.latency.p99() as f64 / 1e6,
    );
    for p in Priority::ALL {
        let ps = stats.priority(p);
        println!(
            "  {:<6} served {}, shed {}, expired {}",
            p.name(),
            ps.served,
            ps.shed,
            ps.expired
        );
    }
    println!(
        "  shed by reason: queue_full {}, deadline_infeasible {}, expired {}",
        stats.shed.queue_full, stats.shed.deadline_infeasible, stats.shed.expired
    );

    // --- GraphSAGE inference through the engine ----------------------
    let model = GraphSage::new(&graph, 16, 16, 4, 7).expect("model");
    let sage_adj = serving_adjacency(&model);
    let mut rng = gen::rng(9);
    let x = gen::random_dense(n, 16, &mut rng);
    let served = serve_sage_forward(&engine, &model, &sage_adj, &x).expect("inference");
    let reference = model.forward(&x).expect("reference").out;
    println!(
        "GraphSAGE inference through the engine: {}x{} output, max |Δ| vs reference = {:.2e}",
        served.rows(),
        served.cols(),
        served.max_abs_diff(&reference)
    );
}
