//! Cross-op tests of the [`SparseOp`] contract: batched ≡ sequential for
//! every op, the batching contract enforced, validation errors indexed.

use super::*;
use crate::spmm::{CsrSpmmParams, SpmmConfig};

fn rt() -> Runtime {
    Runtime::new()
}

fn bit_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A `hyb(c=2, k=2)` decomposition: lowers to different IR than the CSR
/// default on any matrix.
fn hyb_arm() -> SpmmConfig {
    SpmmConfig { col_parts: Some(2), bucket_k: 2, params: CsrSpmmParams::default() }
}

#[test]
fn spmm_op_batch_matches_singles() {
    let mut rng = gen::rng(71);
    let a = gen::random_csr(18, 14, 0.25, &mut rng);
    // A batch of three at each width, the 0 and 1 edge cases included.
    let batches: Vec<Vec<Dense>> = [3usize, 0, 1, 5]
        .iter()
        .map(|&w| (0..3).map(|_| gen::random_dense(14, w, &mut rng)).collect())
        .collect();
    let rt = rt();
    // A non-unit `Config` reaches the IR: each configuration compiles its
    // own kernels, and every one of them computes SpMM.
    let mut compiled = rt.compilations();
    for config in [SpmmConfig::default(), hyb_arm()] {
        for xs in &batches {
            assert!(xs.iter().all(|x| SpmmOp::can_batch(&xs[0], x)));
            let batched = SpmmOp::execute_batch_on(&rt, &a, xs, &config).unwrap();
            for (x, got) in xs.iter().zip(&batched) {
                let want = SpmmOp::execute_on(&rt, &a, x, &config).unwrap();
                assert!(bit_eq(got.data(), want.data()));
                assert!(got.approx_eq(&SpmmOp::reference(&a, x).unwrap(), 1e-4));
            }
        }
        assert!(rt.compilations() > compiled, "{} compiled nothing new", config.label());
        compiled = rt.compilations();
    }
}

#[test]
fn spmm_op_refuses_mixed_widths() {
    let mut rng = gen::rng(74);
    let a = gen::random_csr(4, 4, 0.5, &mut rng);
    let (narrow, wide) = (gen::random_dense(4, 2, &mut rng), gen::random_dense(4, 3, &mut rng));
    assert!(!SpmmOp::can_batch(&narrow, &wide));
    let err = SpmmOp::execute_batch_on(&rt(), &a, &[narrow, wide], &SpmmConfig::default())
        .expect_err("mixed widths must be rejected");
    assert!(err.to_string().contains("request 1"), "{err}");
}

#[test]
fn sddmm_op_block_diagonal_batch_is_bit_identical() {
    let mut rng = gen::rng(72);
    let a = gen::random_csr(12, 10, 0.3, &mut rng);
    let k = 4;
    let reqs: Vec<(Dense, Dense)> = (0..3)
        .map(|_| (gen::random_dense(12, k, &mut rng), gen::random_dense(k, 10, &mut rng)))
        .collect();
    assert!(SddmmOp::can_batch(&reqs[0], &reqs[1]));
    let rt = rt();
    let batched = SddmmOp::execute_batch_on(&rt, &a, &reqs, &()).unwrap();
    assert_eq!(batched.len(), reqs.len());
    for (req, got) in reqs.iter().zip(&batched) {
        let want = SddmmOp::execute_on(&rt, &a, req, &()).unwrap();
        assert!(bit_eq(got, &want));
    }
}

#[test]
fn sddmm_op_refuses_mixed_inner_widths() {
    let mut rng = gen::rng(73);
    let a = gen::random_csr(4, 4, 0.5, &mut rng);
    let narrow = (gen::random_dense(4, 2, &mut rng), gen::random_dense(2, 4, &mut rng));
    let wide = (gen::random_dense(4, 3, &mut rng), gen::random_dense(3, 4, &mut rng));
    assert!(!SddmmOp::can_batch(&narrow, &wide));
    // The contract is enforced by the batch path itself, not just
    // advertised: a mixed-width batch is a typed error, never a
    // silently wrong stacked launch.
    let err = SddmmOp::execute_batch_on(&rt(), &a, &[narrow, wide], &())
        .expect_err("mixed inner widths must be rejected");
    assert!(err.to_string().contains("request 1"), "{err}");
}

#[test]
fn op_validation_reports_request_index() {
    let mut rng = gen::rng(75);
    let a = gen::random_csr(8, 8, 0.3, &mut rng);
    let good = gen::random_dense(8, 2, &mut rng);
    let bad = gen::random_dense(9, 2, &mut rng);
    let err = SpmmOp::execute_batch_on(&rt(), &a, &[good, bad], &SpmmConfig::default())
        .expect_err("row mismatch must be rejected");
    assert!(err.to_string().contains("request 1"), "{err}");
}

fn attn_req(a: &Csr, heads: usize, k: usize, vfeat: usize, seed: u64) -> Vec<AttnHead> {
    let mut rng = gen::rng(seed);
    (0..heads)
        .map(|_| AttnHead {
            q: gen::random_dense(a.rows(), k, &mut rng),
            kt: gen::random_dense(k, a.cols(), &mut rng),
            v: gen::random_dense(a.cols(), vfeat, &mut rng),
        })
        .collect()
}

#[test]
fn fused_attention_op_batch_is_bit_identical_to_singles() {
    let mut rng = gen::rng(81);
    let a = gen::random_csr(14, 12, 0.25, &mut rng);
    // Mixed head counts (including a 0-head request) share one launch;
    // (k, vfeat) agree across all of them.
    let reqs: Vec<Vec<AttnHead>> =
        vec![attn_req(&a, 2, 4, 3, 82), vec![], attn_req(&a, 1, 4, 3, 83)];
    assert!(FusedAttentionOp::can_batch(&reqs[0], &reqs[1]));
    assert!(FusedAttentionOp::can_batch(&reqs[0], &reqs[2]));
    let rt = rt();
    let batched = FusedAttentionOp::execute_batch_on(&rt, &a, &reqs, &()).unwrap();
    assert_eq!(batched.len(), 3);
    assert_eq!(batched[1].len(), 0);
    for (req, got) in reqs.iter().zip(&batched) {
        let solo = FusedAttentionOp::execute_on(&rt, &a, req, &()).unwrap();
        for (g, s) in got.iter().zip(&solo) {
            assert!(bit_eq(g.data(), s.data()), "batched must be bit-identical to solo");
        }
        // Softmax path: relative-epsilon against the f64 reference.
        let want = FusedAttentionOp::reference(&a, req).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!(g.approx_eq(w, 1e-4), "max |Δ| = {}", g.max_abs_diff(w));
        }
    }
}

#[test]
fn fused_attention_op_refuses_mixed_head_shapes() {
    let mut rng = gen::rng(84);
    let a = gen::random_csr(8, 8, 0.3, &mut rng);
    let narrow = attn_req(&a, 1, 2, 3, 85);
    let wide = attn_req(&a, 1, 4, 3, 86);
    assert!(!FusedAttentionOp::can_batch(&narrow, &wide));
    let err = FusedAttentionOp::execute_batch_on(&rt(), &a, &[narrow, wide], &())
        .expect_err("mixed (k, vfeat) must be rejected");
    assert!(err.to_string().contains("request 1"), "{err}");
    // Non-uniform heads inside one request are a validation error.
    let mut bad = attn_req(&a, 1, 2, 3, 87);
    bad.extend(attn_req(&a, 1, 2, 5, 88));
    assert!(FusedAttentionOp::validate(&a, &bad).is_err());
}

#[test]
fn fused_sage_op_executes_and_never_batches() {
    let mut rng = gen::rng(91);
    let a = gen::random_csr(12, 12, 0.3, &mut rng);
    let req = (gen::random_dense(12, 5, &mut rng), gen::random_dense(5, 4, &mut rng));
    assert!(!FusedSageOp::can_batch(&req, &req));
    let got = FusedSageOp::execute_on(&rt(), &a, &req, &()).unwrap();
    let want = FusedSageOp::reference(&a, &req).unwrap();
    assert!(got.approx_eq(&want, 1e-4));
}
