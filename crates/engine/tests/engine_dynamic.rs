//! Dynamic-graph serving tests: the engine's incremental-update path
//! (`Engine::apply_delta`) against rebuild-from-scratch, and the
//! stale-while-retune state machine around the drift threshold.
//!
//! The headline property: for arbitrary proptest-generated streams of
//! edge inserts/deletes interleaved with SpMM / SDDMM / fused-attention
//! queries, the incrementally-patched adjacency answers **bit-identically**
//! to an adjacency rebuilt from scratch out of the updated edge set.
//! The deterministic tests pin the tuning state machine: a delta below
//! the drift threshold recompiles nothing (`Runtime::compilations()` is
//! flat) and skips the retune; a delta above it triggers exactly one
//! background retune while requests keep being answered from the
//! pre-seeded stale decision — no serving gap.

use proptest::prelude::*;
use sparsetir_engine::{Adjacency, Engine, EngineConfig, EngineError, OpOutput, Submission};
use sparsetir_kernels::prelude::AttnHead;
use sparsetir_kernels::tune::{measured_spmm_key, spmm_shortlist};
use sparsetir_smat::prelude::*;
use std::collections::BTreeMap;

fn dynamic_engine() -> Engine {
    Engine::new(EngineConfig { workers: 2, queue_depth: 32 })
}

/// Strategy: a base matrix plus a stream of delta batches against its
/// shape (upserts, explicit-zero upserts, deletes — often of absent
/// edges, which must be no-ops).
fn base_and_stream(
    max_dim: usize,
    max_nnz: usize,
    batches: usize,
) -> impl Strategy<Value = (Csr, Vec<GraphDelta>)> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(move |(rows, cols)| {
        let total = rows * cols;
        let base = proptest::collection::vec(
            (0..rows as u32, 0..cols as u32, 0.1f32..2.0f32),
            0..max_nnz.min(total),
        )
        .prop_map(move |entries| {
            let coo = Coo::from_entries(rows, cols, entries).expect("in-bounds");
            Csr::from_coo(&coo)
        });
        let op = (
            0..rows as u32,
            0..cols as u32,
            prop_oneof![
                (0.1f32..2.0f32).prop_map(Some),
                (0.1f32..2.0f32).prop_map(Some),
                (0.1f32..2.0f32).prop_map(Some),
                Just(Some(0.0f32)),
                Just(None),
                Just(None),
            ],
        );
        let stream =
            proptest::collection::vec(proptest::collection::vec(op, 1..10), 1..batches + 1)
                .prop_map(|batches| {
                    batches
                        .into_iter()
                        .map(|ops| {
                            let mut d = GraphDelta::new();
                            for (r, c, v) in ops {
                                match v {
                                    Some(v) => d.upsert(r, c, v),
                                    None => d.delete(r, c),
                                };
                            }
                            d
                        })
                        .collect::<Vec<_>>()
                })
                .boxed();
        (base, stream)
    })
}

/// Rebuild-from-scratch oracle: replay base + deltas through an edge map.
fn oracle_after(base: &Csr, deltas: &[GraphDelta]) -> Csr {
    let mut edges: BTreeMap<(u32, u32), f32> = BTreeMap::new();
    for r in 0..base.rows() {
        let (cols, vals) = base.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            edges.insert((r as u32, c), v);
        }
    }
    for d in deltas {
        for &(r, c, v) in d.normalized_ops().iter() {
            match v {
                Some(v) => {
                    edges.insert((r, c), v);
                }
                None => {
                    edges.remove(&(r, c));
                }
            }
        }
    }
    let entries: Vec<(u32, u32, f32)> = edges.into_iter().map(|((r, c), v)| (r, c, v)).collect();
    Csr::from_coo(&Coo::from_entries(base.rows(), base.cols(), entries).expect("in-bounds"))
}

/// Build the query for step `step` against a matrix of this shape:
/// cycles through the three served op families.
fn query_for(step: usize, rows: usize, cols: usize, seed: u64) -> Submission {
    let rng = &mut gen::rng(seed.wrapping_add(step as u64));
    let k = 1 + step % 3;
    match step % 3 {
        0 => Submission::spmm(gen::random_dense(cols, k, rng)),
        1 => Submission::sddmm(gen::random_dense(rows, k, rng), gen::random_dense(k, cols, rng)),
        _ => Submission::fused_attention(vec![AttnHead {
            q: gen::random_dense(rows, k, rng),
            kt: gen::random_dense(k, cols, rng),
            v: gen::random_dense(cols, 2, rng),
        }]),
    }
}

fn outputs_bit_eq(a: &OpOutput, b: &OpOutput) -> Result<(), TestCaseError> {
    let dense_eq = |x: &Dense, y: &Dense, tag: &str| -> Result<(), TestCaseError> {
        if (x.rows(), x.cols()) != (y.rows(), y.cols()) {
            return Err(TestCaseError::fail(format!("{tag}: shape mismatch")));
        }
        for (i, (g, w)) in x.data().iter().zip(y.data()).enumerate() {
            if g.to_bits() != w.to_bits() {
                return Err(TestCaseError::fail(format!("{tag}: elem {i}: {g} vs {w}")));
            }
        }
        Ok(())
    };
    match (a, b) {
        (OpOutput::Dense(x), OpOutput::Dense(y)) => dense_eq(x, y, "dense"),
        (OpOutput::Edges(x), OpOutput::Edges(y)) => {
            if x.len() != y.len() {
                return Err(TestCaseError::fail("edges: length mismatch"));
            }
            for (i, (g, w)) in x.iter().zip(y).enumerate() {
                if g.to_bits() != w.to_bits() {
                    return Err(TestCaseError::fail(format!("edges: elem {i}: {g} vs {w}")));
                }
            }
            Ok(())
        }
        (OpOutput::Heads(xs), OpOutput::Heads(ys)) => {
            if xs.len() != ys.len() {
                return Err(TestCaseError::fail("heads: count mismatch"));
            }
            for (h, (x, y)) in xs.iter().zip(ys).enumerate() {
                dense_eq(x, y, &format!("head {h}"))?;
            }
            Ok(())
        }
        _ => Err(TestCaseError::fail("output variant mismatch")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary interleaved update/query streams: after every delta
    /// batch, the engine-served answers on the incrementally-patched
    /// adjacency are bit-identical to the answers on an adjacency rebuilt
    /// from scratch — across all three served op families.
    #[test]
    fn incremental_serving_matches_rebuild_from_scratch(
        case in base_and_stream(10, 30, 4),
        seed in 0u64..1 << 32,
    ) {
        let (base, stream) = case;
        let (rows, cols) = (base.rows(), base.cols());
        let engine = dynamic_engine();
        let mut inc = Adjacency::new(base.clone());
        for (step, _) in stream.iter().enumerate() {
            inc = engine.apply_delta(&inc, &stream[step]).expect("in-bounds delta");
            let rebuilt = Adjacency::new(oracle_after(&base, &stream[..=step]));
            // The patched matrix itself is bit-identical to the rebuild…
            prop_assert_eq!(inc.csr(), rebuilt.csr());
            prop_assert_eq!(inc.version(), step as u64 + 1);
            // …and so is everything the engine serves from it.
            let query = query_for(step, rows, cols, seed);
            let from_inc = engine.serve(&inc, query.clone()).expect("serves incremental");
            let from_rebuild = engine.serve(&rebuilt, query).expect("serves rebuild");
            outputs_bit_eq(&from_inc, &from_rebuild)?;
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.deltas_applied, stream.len() as u64);
        // Every delta either kept the anchor or started a retune pass.
        prop_assert_eq!(stats.retunes_skipped + stats.retunes_started, stream.len() as u64);
        prop_assert!(stats.conserved(), "{:?}", stats);
    }
}

/// A values-only (nnz-preserving) delta below the drift threshold leaves
/// the tuning anchor in place: the successor serves through the same
/// cached tune decision and the same compiled kernels — zero
/// recompilations, asserted via `Runtime::compilations()` — while its
/// answers reflect the *new* values.
#[test]
fn below_threshold_delta_recompiles_nothing() {
    let mut rng = gen::rng(0x71);
    let n = 8;
    // Diagonal matrix: every row degree 1.
    let base = Csr::from_coo(
        &Coo::from_entries(n, n, (0..n as u32).map(|i| (i, i, 1.0f32)).collect::<Vec<_>>())
            .expect("in-bounds"),
    );
    let engine = dynamic_engine();
    let adj0 = Adjacency::new(base);
    let x = gen::random_dense(n, 4, &mut rng);

    engine
        .serve(&adj0, Submission::spmm(x.clone()).tune(true))
        .expect("warms kernel and tune cache");
    let compiled_before = engine.runtime().compilations();
    let misses_before = engine.tune_cache().misses();
    assert_eq!(misses_before, 1, "the warmup tuned once");

    // Re-weight every diagonal edge: structure (and hence the degree
    // histogram) is untouched, so drift is exactly zero.
    let mut delta = GraphDelta::new();
    for i in 0..n as u32 {
        delta.upsert(i, i, 2.0 + i as f32);
    }
    let adj1 = engine.apply_delta(&adj0, &delta).expect("in-bounds delta");
    assert_eq!(adj1.version(), 1);
    assert_eq!(adj1.anchor(), adj0.anchor(), "below threshold keeps the tuning anchor");

    let served = engine
        .serve(&adj1, Submission::spmm(x.clone()).tune(true))
        .expect("serves the successor")
        .into_dense()
        .expect("dense");
    let reference = adj1.csr().spmm(&x).expect("reference");
    assert!(
        served.approx_eq(&reference, 1e-4),
        "the successor must serve the *updated* values (max |Δ| = {})",
        served.max_abs_diff(&reference)
    );
    assert_eq!(
        engine.runtime().compilations(),
        compiled_before,
        "a below-threshold delta must recompile nothing"
    );
    assert_eq!(engine.tune_cache().misses(), misses_before, "no re-tune either");

    let stats = engine.stats();
    assert_eq!(stats.deltas_applied, 1);
    assert_eq!(stats.retunes_skipped, 1);
    assert_eq!(stats.retunes_started, 0);
    assert_eq!(stats.retunes_completed, 0);
    assert!(stats.conserved(), "{stats:?}");
}

/// A delta that moves every row across a log2-degree bucket boundary
/// drifts far past the threshold: the successor re-anchors, exactly one
/// background retune pass runs, and the requests issued while it is in
/// flight are answered from the pre-seeded stale decision — the tune
/// cache records no extra miss at any point (no serving gap).
#[test]
fn above_threshold_delta_retunes_exactly_once_without_serving_gap() {
    let mut rng = gen::rng(0x72);
    let n = 16;
    let base = Csr::from_coo(
        &Coo::from_entries(n, n, (0..n as u32).map(|i| (i, i, 1.0f32)).collect::<Vec<_>>())
            .expect("in-bounds"),
    );
    let engine = dynamic_engine();
    let adj0 = Adjacency::new(base);
    let x = gen::random_dense(n, 4, &mut rng);
    engine
        .serve(&adj0, Submission::spmm(x.clone()).tune(true))
        .expect("warms kernel and tune cache");
    assert_eq!(engine.tune_cache().misses(), 1);

    // Add a second edge to every row: every row's degree doubles, the
    // whole histogram shifts a bin — drift 2.0 >> 0.1.
    let mut delta = GraphDelta::new();
    for i in 0..n as u32 {
        delta.upsert(i, (i + 1) % n as u32, 0.5);
    }
    let adj1 = engine.apply_delta(&adj0, &delta).expect("in-bounds delta");
    assert_eq!(adj1.version(), 1);
    assert_ne!(adj1.anchor(), adj0.anchor(), "above threshold re-anchors");
    assert_eq!(adj1.anchor(), adj1.sparsity(), "the new anchor is the successor's own fingerprint");
    assert_eq!(engine.stats().retunes_started, 1, "exactly one retune pass");

    // Serve immediately — the background retune may still be running;
    // the stale decision pre-seeded under the new anchor must answer.
    let served = engine
        .serve(&adj1, Submission::spmm(x.clone()).tune(true))
        .expect("no serving gap while the retune is in flight")
        .into_dense()
        .expect("dense");
    let reference = adj1.csr().spmm(&x).expect("reference");
    assert!(served.approx_eq(&reference, 1e-4), "stale-config answers are still correct");
    assert_eq!(engine.tune_cache().misses(), 1, "the stale seed hit — no blocking re-tune");

    engine.quiesce_retunes();
    let stats = engine.stats();
    assert_eq!(stats.deltas_applied, 1);
    assert_eq!(stats.retunes_started, 1);
    assert_eq!(stats.retunes_completed, 1, "the background pass finished");
    assert_eq!(stats.retunes_in_flight(), 0);
    assert_eq!(stats.retunes_skipped, 0);
    assert_eq!(stats.worker_panics, 0, "the retune thread must not have panicked");
    let fresh = measured_spmm_key(adj1.anchor());
    let decided = engine.tune_cache().peek(&fresh).expect("the new anchor holds a decision");
    assert!(spmm_shortlist().contains(&decided), "{decided:?}");

    // After the swap, requests hit the *fresh* decision — still no miss.
    let again = engine
        .serve(&adj1, Submission::spmm(x.clone()).tune(true))
        .expect("serves after the swap")
        .into_dense()
        .expect("dense");
    assert!(again.approx_eq(&reference, 1e-4));
    assert_eq!(engine.tune_cache().misses(), 1);
    assert!(engine.stats().conserved(), "{:?}", engine.stats());
}

/// With nothing tuned under the old anchor a re-anchor has nothing to
/// replay: the pass completes inline — no retune thread is spawned, so
/// nothing is in flight the moment `apply_delta` returns (no
/// `quiesce_retunes` anywhere) — and the delta accounting still balances.
#[test]
fn above_threshold_deltas_with_nothing_tuned_complete_inline() {
    let n = 16u32;
    let diagonal: Vec<_> = (0..n).map(|i| (i, i, 1.0f32)).collect();
    let base = Csr::from_coo(&Coo::from_entries(16, 16, diagonal).expect("in-bounds"));
    let engine = dynamic_engine();
    let mut adj = Adjacency::new(base);
    for step in 0..32u64 {
        // Toggle a second edge on every row: every degree crosses a log2
        // bucket boundary each step, drift 2.0 >> 0.1.
        let mut delta = GraphDelta::new();
        for i in 0..n {
            if step % 2 == 0 {
                delta.upsert(i, (i + 1) % n, 0.5);
            } else {
                delta.delete(i, (i + 1) % n);
            }
        }
        let next = engine.apply_delta(&adj, &delta).expect("in-bounds delta");
        assert_ne!(next.anchor(), adj.anchor(), "step {step} re-anchors");
        let stats = engine.stats();
        assert_eq!(stats.retunes_in_flight(), 0, "step {step} left a retune in flight");
        assert_eq!(stats.retunes_skipped + stats.retunes_started, stats.deltas_applied);
        adj = next;
    }
    let stats = engine.stats();
    assert_eq!(
        (stats.deltas_applied, stats.retunes_started, stats.retunes_completed),
        (32, 32, 32)
    );
    assert!(stats.conserved(), "{stats:?}");
}

/// Kernels are keyed by `rows / cols` and request shape, and `nnz` is a
/// launch parameter: a delta that adds an edge changes `nnz`, and the
/// successor's first request of each kind still hits the kernel its
/// predecessor compiled — no compilation after the update — while the
/// predecessor, still held and servable, keeps hitting it too. Each SpMM
/// answer is its own graph's product.
#[test]
fn successor_hits_from_its_first_request_and_the_predecessor_keeps_hitting() {
    let mut rng = gen::rng(0x74);
    let engine = dynamic_engine();
    let adj0 = Adjacency::new(gen::random_csr(12, 12, 0.3, &mut rng));
    let serve_both = |adj: &Adjacency| {
        let mut rng = gen::rng(0x75);
        let x = gen::random_dense(12, 4, &mut rng);
        let got = engine.serve(adj, Submission::spmm(x.clone())).expect("serves spmm");
        let got = got.into_dense().expect("spmm answers dense");
        assert!(got.approx_eq(&adj.csr().spmm(&x).expect("reference"), 1e-4), "its own graph");
        let (x, y) = (gen::random_dense(12, 3, &mut rng), gen::random_dense(3, 12, &mut rng));
        engine.serve(adj, Submission::sddmm(x, y)).expect("serves sddmm");
        let stats = engine.stats();
        (stats.kernel_lookups, stats.kernel_hits, engine.runtime().compilations())
    };
    assert_eq!(serve_both(&adj0), (2, 0, 2));
    let absent = (0..12u32).find(|c| !adj0.csr().row(0).0.contains(c)).expect("row 0 not full");
    let mut delta = GraphDelta::new();
    delta.upsert(0, absent, 1.0);
    let adj1 = engine.apply_delta(&adj0, &delta).expect("in-bounds delta");
    assert_eq!(adj1.csr().nnz(), adj0.csr().nnz() + 1);
    assert_eq!(serve_both(&adj1), (4, 2, 2), "the successor hits from its first request");
    assert_eq!(serve_both(&adj0), (6, 4, 2), "the predecessor keeps hitting");
    assert_eq!(serve_both(&adj1), (8, 6, 2), "and so does the successor");
    assert!(engine.stats().conserved(), "{:?}", engine.stats());
}

/// A delta addressing rows/columns outside the adjacency is refused with
/// a typed shape error, and the adjacency is left untouched.
#[test]
fn out_of_bounds_delta_is_a_shape_error() {
    let base =
        Csr::from_coo(&Coo::from_entries(4, 4, vec![(0u32, 0u32, 1.0f32)]).expect("in-bounds"));
    let engine = dynamic_engine();
    let adj = Adjacency::new(base);
    let mut delta = GraphDelta::new();
    delta.upsert(9, 0, 1.0);
    let err = engine.apply_delta(&adj, &delta).expect_err("out of bounds");
    assert!(matches!(err, EngineError::Shape(_)), "typed shape refusal, got {err:?}");
    assert_eq!(adj.version(), 0);
    assert_eq!(engine.stats().deltas_applied, 0, "a refused delta is not counted as applied");
    assert!(engine.stats().conserved(), "{:?}", engine.stats());
}
