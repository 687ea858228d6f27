//! Property-based differential tests: for random CSR matrices and random
//! request sets — widths 0, 1, and mixed — every concurrently served
//! answer of *every served op* (SpMM, SDDMM, fused attention, fused SAGE)
//! must equal its solo launch, bit for bit: a sequential loop of
//! single-request launches through the op's kernel entry point on a fresh
//! runtime. The kernel entry points' batches of riders (which attention's
//! heads are, and which callers of the entry points may form) are held to
//! the same oracle. This is the serving-path analogue of the executor's
//! interpreter-differential suite: concurrency and batching must be pure
//! scheduling, and serving must copy nothing (`bytes_copied == 0` on every
//! engine, across widths 0/1/mixed, empty rows and 0-head requests).
//!
//! Bit-identity between our own paths cannot catch a mistake they share,
//! so every answer is also checked against the independent `f64` oracle
//! of `crates/kernels/tests/oracle`, element by element within
//! `|got − ref| ≤ 1e-4 · (1 + Σ|terms|)`, where the terms are:
//! * SpMM (`spmm_f64`): `a_ij · x_jc`, one per non-zero of the row;
//! * SDDMM (`sddmm_f64`): `a_ij · x_il · y_lj`, one per reduction step;
//! * fused attention (`attention_f64`): `weight_e · v_jc` over the row,
//!   with the softmax weights computed in `f64`;
//! * fused SAGE (`sage_f64`): `x_jl · w_lo / deg(i)`, one per neighbour
//!   and reduction step.

use proptest::prelude::*;
use sparsetir_engine::{Adjacency, Engine, EngineConfig, Submission};
use sparsetir_ir::exec::Runtime;
use sparsetir_kernels::prelude::{
    attention_pipeline_oracle, sage_pipeline_oracle, sddmm_execute_views_on, spmm_execute_views_on,
    AttnHead, SpmmConfig,
};
use sparsetir_smat::prelude::*;

#[path = "../../kernels/tests/oracle/mod.rs"]
mod oracle;

/// Strategy: a small random sparse matrix (dims 1..=max_dim, bounded nnz).
fn sparse_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(rows, cols)| {
        let total = rows * cols;
        proptest::collection::vec(
            (0..rows as u32, 0..cols as u32, 0.1f32..2.0f32),
            0..max_nnz.min(total),
        )
        .prop_map(move |entries| {
            let coo = Coo::from_entries(rows, cols, entries).expect("in-bounds");
            Csr::from_coo(&coo)
        })
    })
}

/// Strategy: a request set of 1..=6 feature widths drawn from {0, 1,
/// 2..=7} — the 0 and 1 edge cases appear often by construction.
fn request_widths() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(prop_oneof![Just(0usize), Just(1usize), 2usize..8], 1..7)
}

fn random_feats(a: &Csr, widths: &[usize], seed: u64) -> Vec<Dense> {
    let mut rng = gen::rng(seed);
    widths.iter().map(|&w| gen::random_dense(a.cols(), w, &mut rng)).collect()
}

/// SDDMM operand pairs at the given inner (reduction) widths.
fn random_pairs(a: &Csr, widths: &[usize], seed: u64) -> Vec<(Dense, Dense)> {
    let mut rng = gen::rng(seed);
    widths
        .iter()
        .map(|&k| {
            (gen::random_dense(a.rows(), k, &mut rng), gen::random_dense(k, a.cols(), &mut rng))
        })
        .collect()
}

/// One untuned launch of `xs` through the SpMM entry point on a fresh
/// runtime.
fn spmm_batch(a: &Csr, xs: &[Dense]) -> Vec<Dense> {
    let refs: Vec<&Dense> = xs.iter().collect();
    let mut outs: Vec<Dense> = xs.iter().map(|x| Dense::zeros(a.rows(), x.cols())).collect();
    spmm_execute_views_on(&Runtime::new(), a, &refs, &mut outs, &SpmmConfig::default())
        .expect("executes");
    outs
}

/// One launch of `reqs` through the SDDMM entry point on a fresh runtime.
fn sddmm_batch(a: &Csr, reqs: &[(Dense, Dense)]) -> Vec<Vec<f32>> {
    let mut outs = vec![vec![0.0; a.nnz()]; reqs.len()];
    sddmm_execute_views_on(&Runtime::new(), a, reqs, &mut outs).expect("executes");
    outs
}

/// The sequential oracles: one request alone.
fn solo_spmm(a: &Csr, x: &Dense) -> Dense {
    spmm_batch(a, std::slice::from_ref(x)).remove(0)
}

fn solo_sddmm(a: &Csr, req: &(Dense, Dense)) -> Vec<f32> {
    sddmm_batch(a, std::slice::from_ref(req)).remove(0)
}

/// The three-launch pipeline oracle over one request's heads, on a fresh
/// runtime.
fn attention_pipeline(a: &Csr, heads: &[AttnHead]) -> Vec<Dense> {
    let qs: Vec<&Dense> = heads.iter().map(|h| &h.q).collect();
    let kts: Vec<&Dense> = heads.iter().map(|h| &h.kt).collect();
    let vs: Vec<&Dense> = heads.iter().map(|h| &h.v).collect();
    let mut outs: Vec<Dense> = heads.iter().map(|h| Dense::zeros(a.rows(), h.v.cols())).collect();
    attention_pipeline_oracle(&Runtime::new(), a, &qs, &kts, &vs, &mut outs)
        .expect("pipeline oracle");
    outs
}

fn assert_bit_identical(got: &Dense, want: &Dense, tag: &str) -> Result<(), TestCaseError> {
    if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
        return Err(TestCaseError::fail(format!(
            "{tag}: shape {}x{} vs {}x{}",
            got.rows(),
            got.cols(),
            want.rows(),
            want.cols()
        )));
    }
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(TestCaseError::fail(format!("{tag}: elem {i}: {g} vs {w}")));
        }
    }
    Ok(())
}

fn assert_bits_eq(got: &[f32], want: &[f32], tag: &str) -> Result<(), TestCaseError> {
    if got.len() != want.len() {
        return Err(TestCaseError::fail(format!("{tag}: len {} vs {}", got.len(), want.len())));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(TestCaseError::fail(format!("{tag}: elem {i}: {g} vs {w}")));
        }
    }
    Ok(())
}

/// An `f32` answer against its `f64` oracle, as a proptest failure.
fn assert_oracle(want: &oracle::Oracle, got: &[f32], tag: &str) -> Result<(), TestCaseError> {
    want.check(got).map_err(|e| TestCaseError::fail(format!("{tag} vs f64 oracle: {e}")))
}

fn test_engine() -> Engine {
    Engine::new(EngineConfig { workers: 2, queue_depth: 16 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pure SpMM batching primitive: one launch (the one-rider kernel
    /// run once per rider) vs a sequential loop of single-request
    /// launches. All requests share one width here (the batching
    /// contract); widths 0 and 1 are included.
    #[test]
    fn batched_kernel_matches_sequential_loop(
        a in sparse_matrix(20, 60),
        w in prop_oneof![Just(0usize), Just(1usize), 2usize..8],
        n in 1usize..7,
        seed in 0u64..1 << 32,
    ) {
        let xs = random_feats(&a, &vec![w; n], seed);
        let batched = spmm_batch(&a, &xs);
        prop_assert_eq!(batched.len(), xs.len());
        for (i, (x, got)) in xs.iter().zip(&batched).enumerate() {
            let want = solo_spmm(&a, x);
            assert_bit_identical(got, &want, &format!("request {i}"))?;
            let f64_ref = oracle::spmm_f64(&a, x.data(), x.cols());
            assert_oracle(&f64_ref, got.data(), &format!("request {i}"))?;
        }
    }

    /// The full engine SpMM path: requests submitted as tickets (so the
    /// two workers serve them concurrently), every other one asking for
    /// tuning, answers compared against the sequential loop. Each
    /// feature matrix also rides a fused-SAGE request (`X`/`W`/`H1` bound
    /// as views) checked against its two-launch
    /// pipeline oracle — with `bind_dense` ticking the counter, neither
    /// op, tuned or not, may copy a byte.
    #[test]
    fn engine_output_matches_sequential_loop(
        a in sparse_matrix(16, 48),
        widths in request_widths(),
        seed in 0u64..1 << 32,
    ) {
        let xs = random_feats(&a, &widths, seed);
        let ws: Vec<Dense> =
            xs.iter().map(|x| gen::random_dense(x.cols(), 3, &mut gen::rng(seed))).collect();
        let adj = Adjacency::new(a.clone());
        let engine = test_engine();
        let submit = |i: usize, sub: Submission| {
            engine.submit(&adj, sub.tune(i.is_multiple_of(2))).expect("submits")
        };
        let tickets: Vec<_> = xs
            .iter()
            .zip(&ws)
            .enumerate()
            .map(|(i, (x, w))| {
                let sage = Submission::fused_sage(x.clone(), w.clone());
                (submit(i, Submission::spmm(x.clone())), submit(i + 1, sage))
            })
            .collect();
        for (i, ((x, w), (spmm, sage))) in xs.iter().zip(&ws).zip(tickets).enumerate() {
            let got = spmm.wait_dense().expect("engine answers");
            assert_bit_identical(&got, &solo_spmm(&a, x), &format!("request {i}"))?;
            let f64_ref = oracle::spmm_f64(&a, x.data(), x.cols());
            assert_oracle(&f64_ref, got.data(), &format!("request {i}"))?;
            let got = sage.wait_dense().expect("engine answers");
            let want = sage_pipeline_oracle(&Runtime::new(), &a, x, w).expect("pipeline oracle");
            assert_bit_identical(&got, &want, &format!("sage request {i}"))?;
            let f64_ref = oracle::sage_f64(&a, x.data(), w.data(), x.cols(), w.cols());
            assert_oracle(&f64_ref, got.data(), &format!("sage request {i}"))?;
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.completed, 2 * xs.len() as u64);
        prop_assert_eq!(stats.failed, 0);
        prop_assert!(stats.bytes_copied == 0, "view assembly must copy nothing: {:?}", stats);
        prop_assert_eq!(stats.batches, stats.completed);
    }

    /// The pure SDDMM batching primitive: one launch (the one-head kernel
    /// run once per rider) vs a sequential loop of
    /// single-request launches. All requests share one inner width here
    /// (the batching contract); widths 0 and 1 are included.
    #[test]
    fn batched_sddmm_kernel_matches_sequential_loop(
        a in sparse_matrix(14, 40),
        k in prop_oneof![Just(0usize), Just(1usize), 2usize..7],
        n in 1usize..5,
        seed in 0u64..1 << 32,
    ) {
        let reqs = random_pairs(&a, &vec![k; n], seed);
        let batched = sddmm_batch(&a, &reqs);
        prop_assert_eq!(batched.len(), reqs.len());
        for (i, (req, got)) in reqs.iter().zip(&batched).enumerate() {
            let want = solo_sddmm(&a, req);
            assert_bits_eq(got, &want, &format!("request {i}"))?;
            let (x, y) = req;
            let f64_ref = oracle::sddmm_f64(&a, x.data(), y.data(), k);
            assert_oracle(&f64_ref, got, &format!("request {i}"))?;
        }
    }

    /// The full engine SDDMM path with *mixed* inner widths, served
    /// concurrently: every answer must be bit-identical to the sequential
    /// loop.
    #[test]
    fn engine_sddmm_output_matches_sequential_loop(
        a in sparse_matrix(12, 36),
        widths in request_widths(),
        seed in 0u64..1 << 32,
    ) {
        let reqs = random_pairs(&a, &widths, seed);
        let adj = Adjacency::new(a.clone());
        let engine = test_engine();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|(x, y)| {
                engine.submit(&adj, Submission::sddmm(x.clone(), y.clone())).expect("submits")
            })
            .collect();
        for (i, (req, t)) in reqs.iter().zip(tickets).enumerate() {
            let got = t.wait_edges().expect("engine answers");
            let want = solo_sddmm(&a, req);
            assert_bits_eq(&got, &want, &format!("request {i}"))?;
            let (x, y) = req;
            let f64_ref = oracle::sddmm_f64(&a, x.data(), y.data(), x.cols());
            assert_oracle(&f64_ref, &got, &format!("request {i}"))?;
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.completed, reqs.len() as u64);
        prop_assert_eq!(stats.failed, 0);
        prop_assert!(stats.bytes_copied == 0, "view assembly must copy nothing: {:?}", stats);
    }
}

/// Strategy: per-request fused-attention shapes `(heads, k, vfeat)`.
/// Head counts include 0 (legal, answers an empty result); the
/// `(k, vfeat)` pairs vary across requests.
fn fused_attn_shapes() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec(
        (prop_oneof![Just(0usize), Just(1usize), 2usize..4], 1usize..4, 1usize..4),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fused-attention serving path vs the sequential three-launch
    /// oracle: over random adjacencies (empty rows appear by
    /// construction), 0-head requests, and mixed per-request head counts
    /// and `(k, vfeat)` shapes, every head the fused engine answers must
    /// be bit-identical to its own one-head three-launch pipeline run.
    /// Cross-op fusion and running a request's heads as riders of one
    /// launch must both be pure performance transformations.
    #[test]
    fn engine_fused_attention_matches_three_launch_oracle(
        a in sparse_matrix(12, 36),
        shapes in fused_attn_shapes(),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = gen::rng(seed);
        let reqs: Vec<Vec<AttnHead>> = shapes
            .iter()
            .map(|&(heads, k, vfeat)| {
                (0..heads)
                    .map(|_| AttnHead {
                        q: gen::random_dense(a.rows(), k, &mut rng),
                        kt: gen::random_dense(k, a.cols(), &mut rng),
                        v: gen::random_dense(a.cols(), vfeat, &mut rng),
                    })
                    .collect()
            })
            .collect();
        let adj = Adjacency::new(a.clone());
        let engine = test_engine();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|heads| {
                engine.submit(&adj, Submission::fused_attention(heads.clone())).expect("submits")
            })
            .collect();
        for (i, (heads, t)) in reqs.iter().zip(tickets).enumerate() {
            let got = t.wait_heads().expect("engine answers");
            prop_assert_eq!(got.len(), heads.len());
            // Head by head, so the oracle is unbatched across heads too.
            for (h, (head, out)) in heads.iter().zip(&got).enumerate() {
                let want = attention_pipeline(&a, std::slice::from_ref(head));
                let tag = format!("request {i} head {h}");
                assert_bit_identical(out, &want[0], &tag)?;
                let (q, kt, v) = (head.q.data(), head.kt.data(), head.v.data());
                let f64_ref = oracle::attention_f64(&a, q, kt, v, head.q.cols(), head.v.cols());
                assert_oracle(&f64_ref, out.data(), &tag)?;
            }
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.completed, reqs.len() as u64);
        prop_assert_eq!(stats.failed, 0);
        prop_assert!(stats.bytes_copied == 0, "view assembly must copy nothing: {:?}", stats);
        prop_assert_eq!(stats.batches, stats.completed);
    }
}
