//! GraphSAGE inference served through the engine: both aggregation SpMMs
//! of the forward pass are submitted as engine requests, so concurrent
//! inference clients sharing one graph share its compiled kernels and the
//! engine's launch permits, while the dense GEMM/ReLU tail stays on the
//! caller's thread (it is per-request by construction).

use crate::graphsage::GraphSage;
use sparsetir_engine::{Adjacency, Engine, EngineError, Submission};
use sparsetir_smat::prelude::Dense;

/// The engine-side handle for a model's normalized adjacency. Build it
/// once per deployed model and clone it per client thread (the clone is
/// an `Arc` bump).
#[must_use]
pub fn serving_adjacency(model: &GraphSage) -> Adjacency {
    Adjacency::new(model.a_norm.clone())
}

/// One GraphSAGE forward pass (`relu((A·X)·W1)·W2` composed as
/// `A·H`-aggregations + GEMMs) with both aggregations served by
/// `engine`. Bit-for-bit, the aggregations are the SpMM entry point's
/// launch, served or not; the GEMM tail reuses the model's
/// reference kernels, so a single-client serve matches
/// [`GraphSage::forward`] up to the SpMM backend's accumulation (same
/// order — see the engine's differential suite).
///
/// # Errors
/// Propagates engine errors; dense-shape mismatches surface as
/// [`EngineError::Shape`].
pub fn serve_sage_forward(
    engine: &Engine,
    model: &GraphSage,
    adj: &Adjacency,
    x: &Dense,
) -> Result<Dense, EngineError> {
    // Both aggregations ride the engine's one generic submit path (the
    // same path SDDMM and attention requests take); the unified ticket
    // answers with an `OpOutput` converted back to a dense matrix.
    let agg1 = engine.serve(adj, Submission::spmm(x.clone()))?.into_dense()?;
    let h1 = agg1.matmul(&model.w1).map_err(shape_err)?.relu();
    let agg2 = engine.serve(adj, Submission::spmm(h1))?.into_dense()?;
    agg2.matmul(&model.w2).map_err(shape_err)
}

/// One GraphSAGE forward pass with *both whole layers* served as
/// cross-op fused requests: each `FusedSage` request compiles the
/// gather → degree-normalize → feature-matmul step into a single kernel
/// (one launch per layer instead of SpMM + host-side GEMM), with only
/// the elementwise ReLU between layers on the caller's thread. The
/// fused op's mean aggregator is structural, so it works off the same
/// [`serving_adjacency`] handle — the normalized values are ignored and
/// the per-row `1/deg` is folded into the kernel instead. Numerically
/// this regroups `Σ(x/deg)` as `(Σx)/deg`, so results agree with
/// [`GraphSage::forward`] to relative epsilon, not bit-for-bit.
///
/// # Errors
/// Propagates engine errors; dense-shape mismatches surface as
/// [`EngineError::Shape`].
pub fn serve_sage_forward_fused(
    engine: &Engine,
    model: &GraphSage,
    adj: &Adjacency,
    x: &Dense,
) -> Result<Dense, EngineError> {
    let h1 = engine
        .serve(adj, Submission::fused_sage(x.clone(), model.w1.clone()))?
        .into_dense()?
        .relu();
    engine.serve(adj, Submission::fused_sage(h1, model.w2.clone()))?.into_dense()
}

fn shape_err(e: sparsetir_smat::SmatError) -> EngineError {
    EngineError::Shape(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_engine::EngineConfig;
    use sparsetir_smat::prelude::*;
    use std::sync::Arc;

    fn toy_graph(n: usize, seed: u64) -> Csr {
        let mut rng = gen::rng(seed);
        gen::random_csr_with_row_lengths(
            n,
            n,
            |r| {
                use rand::Rng;
                let u: f64 = r.gen_range(0.0..1.0);
                ((2.0 / (u + 0.01)) as usize).clamp(1, n / 2)
            },
            &mut rng,
        )
    }

    #[test]
    fn served_forward_matches_reference_forward() {
        let adj_csr = toy_graph(48, 7);
        let model = GraphSage::new(&adj_csr, 8, 6, 4, 11).unwrap();
        let adj = serving_adjacency(&model);
        let engine = Engine::new(EngineConfig::default());
        let mut rng = gen::rng(13);
        let x = gen::random_dense(48, 8, &mut rng);
        let served = serve_sage_forward(&engine, &model, &adj, &x).unwrap();
        let reference = model.forward(&x).unwrap().out;
        assert!(
            served.approx_eq(&reference, 1e-3),
            "served inference must agree with the functional forward pass"
        );
        // Two aggregations → two completed SpMM requests.
        assert_eq!(engine.stats().completed, 2);
    }

    /// The fused serving path agrees with the functional forward pass to
    /// relative epsilon, runs each layer as one kernel (two cached
    /// kernels total), one launch per layer.
    #[test]
    fn fused_served_forward_matches_reference_forward() {
        let adj_csr = toy_graph(48, 9);
        let model = GraphSage::new(&adj_csr, 8, 6, 4, 11).unwrap();
        let adj = serving_adjacency(&model);
        let engine = Engine::new(EngineConfig::default());
        let mut rng = gen::rng(19);
        let x = gen::random_dense(48, 8, &mut rng);
        let served = serve_sage_forward_fused(&engine, &model, &adj, &x).unwrap();
        let reference = model.forward(&x).unwrap().out;
        assert!(
            served.approx_eq(&reference, 1e-3),
            "fused inference must agree with the functional forward pass (max |Δ| = {})",
            served.max_abs_diff(&reference)
        );
        let stats = engine.stats();
        assert_eq!(stats.completed, 2, "one fused request per layer");
        assert_eq!(stats.batches, 2, "one launch per layer");
        // One cross-op kernel per layer shape — not SpMM + GEMM pairs.
        assert_eq!(engine.runtime().cached(), 2);
    }

    /// (Named for the switch the oracle replaced.) Fused serving answers
    /// bit-identically to the same two layers run through the two-launch
    /// pipeline oracle, with one kernel per layer where the oracle
    /// compiles two.
    #[test]
    fn fused_serving_kill_switch_stays_bit_identical() {
        use sparsetir_kernels::prelude::sage_pipeline_oracle;
        let adj_csr = toy_graph(40, 29);
        let model = GraphSage::new(&adj_csr, 6, 5, 3, 31).unwrap();
        let adj = serving_adjacency(&model);
        let mut rng = gen::rng(37);
        let x = gen::random_dense(40, 6, &mut rng);
        let engine = Engine::new(EngineConfig::default());
        let served = serve_sage_forward_fused(&engine, &model, &adj, &x).unwrap();
        let rt = sparsetir_ir::exec::Runtime::new();
        let h1 = sage_pipeline_oracle(&rt, &model.a_norm, &x, &model.w1).unwrap().relu();
        let oracle = sage_pipeline_oracle(&rt, &model.a_norm, &h1, &model.w2).unwrap();
        assert_eq!(
            served.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            oracle.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "fused serving and the pipeline oracle must agree bit-for-bit"
        );
        assert_eq!(engine.runtime().cached(), 2, "one fused kernel per layer");
        assert_eq!(rt.cached(), 4, "gather + matmul kernels per layer");
    }

    /// Many clients serving inference over one shared model, their
    /// requests queuing behind one worker: every client gets the answer a
    /// lone client gets from its own engine, bit for bit, and the
    /// reference forward pass's to relative epsilon.
    #[test]
    fn concurrent_clients_get_the_single_client_answer() {
        const CLIENTS: usize = 6;
        let adj_csr = toy_graph(80, 17);
        let model = Arc::new(GraphSage::new(&adj_csr, 10, 8, 3, 23).unwrap());
        let adj = serving_adjacency(&model);
        let engine = Arc::new(Engine::new(EngineConfig { workers: 1, queue_depth: 32 }));
        let xs: Vec<Vec<Dense>> = (0..CLIENTS)
            .map(|client| {
                let mut rng = gen::rng(300 + client as u64);
                (0..4).map(|_| gen::random_dense(80, 10, &mut rng)).collect()
            })
            .collect();
        let served: Vec<Vec<Dense>> = std::thread::scope(|s| {
            let clients: Vec<_> = xs
                .iter()
                .map(|xs| {
                    let (engine, model, adj) = (&engine, &model, &adj);
                    s.spawn(move || {
                        xs.iter()
                            .map(|x| serve_sage_forward(engine, model, adj, x).unwrap())
                            .collect()
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("client finishes")).collect()
        });
        let stats = engine.stats();
        assert_eq!(stats.completed, (CLIENTS * 4 * 2) as u64);
        assert_eq!(stats.failed, 0);
        let alone = Engine::new(EngineConfig::default());
        for (client, (xs, served)) in xs.iter().zip(&served).enumerate() {
            for (x, got) in xs.iter().zip(served) {
                let want = serve_sage_forward(&alone, &model, &adj, x).unwrap();
                let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(&want), "client {client}");
                assert!(got.approx_eq(&model.forward(x).unwrap().out, 1e-3), "client {client}");
            }
        }
    }
}
