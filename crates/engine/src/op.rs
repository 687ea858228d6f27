//! The table of served ops: [`OpRequest`] lists what the engine serves,
//! each variant checked by its kernel's request-shape rule and launched
//! through its kernel's one entry point, and [`OpOutput`] is what every
//! ticket answers with.

use crate::engine::EngineError;
use sparsetir_ir::exec::Runtime;
use sparsetir_kernels::prelude::{
    fused_attention_views_on, fused_sage_execute_on, sddmm_execute_views_on, spmm_execute_views_on,
    AttnHead, SpmmConfig,
};
use sparsetir_kernels::{fused_attention, fused_sage, sddmm, spmm};
use sparsetir_smat::prelude::{Csr, Dense};
use std::error::Error;
use std::slice;

/// One request for any served op — the table of what the engine serves.
/// Each variant carries the operands of one kernel entry point, is
/// checked at submit by that kernel's request-shape rule and launched
/// through that entry point. Build through
/// [`Submission`](crate::Submission)'s per-op constructors for the serving
/// surface; a bare `OpRequest` converts `Into<Submission>` with default
/// options.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum OpRequest {
    /// SpMM `A · X`: one dense feature operand.
    Spmm(Dense),
    /// SDDMM `A ⊙ (X · Y)`: the dense operand pair.
    Sddmm((Dense, Dense)),
    /// Cross-op fused attention pipeline (SDDMM → edge-softmax → SpMM in
    /// one kernel): one `(Q, Kᵀ, V)` triple per head.
    FusedAttention(Vec<AttnHead>),
    /// Cross-op fused GraphSAGE layer step (gather → normalize → matmul
    /// in one kernel): the `(X, W)` operand pair.
    FusedSage((Dense, Dense)),
}

impl OpRequest {
    /// The op kind tag this request routes to (`"spmm"`, `"sddmm"`,
    /// `"fused_attention"`, `"fused_sage"`) — useful for logging and
    /// metrics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            OpRequest::Spmm(_) => "spmm",
            OpRequest::Sddmm(_) => "sddmm",
            OpRequest::FusedAttention(_) => "fused_attention",
            OpRequest::FusedSage(_) => "fused_sage",
        }
    }

    /// Shape-validate against the adjacency with the kernel's own rule —
    /// the one its entry point applies again at launch.
    pub(crate) fn validate(&self, a: &Csr) -> Result<(), EngineError> {
        match self {
            OpRequest::Spmm(x) => spmm::check_shapes(a, x),
            OpRequest::Sddmm((x, y)) => sddmm::check_shapes(a, x, y),
            OpRequest::FusedAttention(heads) => {
                fused_attention::check_heads(a, heads.iter().map(|h| (&h.q, &h.kt, &h.v)))
            }
            OpRequest::FusedSage((x, w)) => fused_sage::check_shapes(a, x, w),
        }
        .map_err(EngineError::Shape)
    }

    /// True when two validated requests may share one launch: same kind,
    /// and the widths the one-rider kernel is compiled at agree — SpMM's
    /// feature width, SDDMM's inner width, attention's per-head
    /// `(k, vfeat)`. A 0-head attention request adds nothing to a launch
    /// and rides with any shape, so the relation is not transitive; fused
    /// SAGE requests never batch (each already spans the whole graph).
    pub(crate) fn can_batch_with(&self, other: &OpRequest) -> bool {
        match (self, other) {
            (OpRequest::Spmm(a), OpRequest::Spmm(b)) => a.cols() == b.cols(),
            (OpRequest::Sddmm((a, _)), OpRequest::Sddmm((b, _))) => a.cols() == b.cols(),
            (OpRequest::FusedAttention(a), OpRequest::FusedAttention(b)) => {
                match (a.first(), b.first()) {
                    (Some(a), Some(b)) => (a.q.cols(), a.v.cols()) == (b.q.cols(), b.v.cols()),
                    _ => true,
                }
            }
            _ => false,
        }
    }
}

/// The result of any served op — the one shape of output handling every
/// ticket answers with. Typed accessors convert back to the op's native
/// result.
#[derive(Debug, Clone)]
pub enum OpOutput {
    /// A dense matrix (SpMM, fused GraphSAGE).
    Dense(Dense),
    /// Per-non-zero edge values (SDDMM).
    Edges(Vec<f32>),
    /// One dense matrix per head (fused attention).
    Heads(Vec<Dense>),
}

impl OpOutput {
    fn variant(&self) -> &'static str {
        match self {
            OpOutput::Dense(_) => "Dense",
            OpOutput::Edges(_) => "Edges",
            OpOutput::Heads(_) => "Heads",
        }
    }

    /// The op kinds that produce an output variant — so a mismatch error
    /// names both sides' ops, not just the variant tags.
    fn kinds_of(variant: &'static str) -> &'static str {
        match variant {
            "Dense" => "spmm|fused_sage",
            "Edges" => "sddmm",
            _ => "fused_attention",
        }
    }

    fn mismatch(expected: &'static str, got: &OpOutput) -> EngineError {
        EngineError::Output(format!(
            "expected {expected} ({}), got {} ({})",
            OpOutput::kinds_of(expected),
            got.variant(),
            OpOutput::kinds_of(got.variant()),
        ))
    }

    /// The dense SpMM result.
    ///
    /// # Errors
    /// [`EngineError::Output`] when this output belongs to a different
    /// op; the message carries the expected and actual variant + op
    /// kinds.
    pub fn into_dense(self) -> Result<Dense, EngineError> {
        match self {
            OpOutput::Dense(d) => Ok(d),
            other => Err(OpOutput::mismatch("Dense", &other)),
        }
    }

    /// The per-non-zero SDDMM result.
    ///
    /// # Errors
    /// [`EngineError::Output`] when this output belongs to a different
    /// op; the message carries the expected and actual variant + op
    /// kinds.
    pub fn into_edges(self) -> Result<Vec<f32>, EngineError> {
        match self {
            OpOutput::Edges(v) => Ok(v),
            other => Err(OpOutput::mismatch("Edges", &other)),
        }
    }

    /// The per-head fused-attention result.
    ///
    /// # Errors
    /// [`EngineError::Output`] when this output belongs to a different
    /// op; the message carries the expected and actual variant + op
    /// kinds.
    pub fn into_heads(self) -> Result<Vec<Dense>, EngineError> {
        match self {
            OpOutput::Heads(v) => Ok(v),
            other => Err(OpOutput::mismatch("Heads", &other)),
        }
    }
}

/// Launch a kind-matched batch through its op's kernel entry point —
/// allocate each rider's zeroed output, bind operands and outputs in
/// place — and hand `answer` the outputs in rider order once the launch
/// succeeded. The entry point checks the batch; only SpMM reads `config`.
pub(crate) fn launch(
    rt: &Runtime,
    a: &Csr,
    config: &SpmmConfig,
    reqs: &mut [OpRequest],
    answer: &mut dyn FnMut(OpOutput),
) -> Result<(), Box<dyn Error>> {
    match reqs[0] {
        OpRequest::Spmm(_) => {
            let xs: Vec<&Dense> = reqs
                .iter()
                .filter_map(|r| if let OpRequest::Spmm(x) = r { Some(x) } else { None })
                .collect();
            let mut outs: Vec<Dense> =
                xs.iter().map(|x| Dense::zeros(a.rows(), x.cols())).collect();
            spmm_execute_views_on(rt, a, &xs, &mut outs, config)?;
            outs.into_iter().map(OpOutput::Dense).for_each(answer);
        }
        OpRequest::Sddmm(_) => {
            // The entry point takes the pairs side by side: a lone rider
            // lends its own, a batch's are moved out (an empty matrix
            // allocates nothing).
            let moved: Vec<(Dense, Dense)>;
            let pairs = match reqs {
                [OpRequest::Sddmm(pair)] => slice::from_ref(pair),
                batch => {
                    let empty = || (Dense::zeros(0, 0), Dense::zeros(0, 0));
                    moved = batch
                        .iter_mut()
                        .filter_map(|r| match r {
                            OpRequest::Sddmm(pair) => Some(std::mem::replace(pair, empty())),
                            _ => None,
                        })
                        .collect();
                    &moved
                }
            };
            let mut outs = vec![vec![0.0; a.nnz()]; pairs.len()];
            sddmm_execute_views_on(rt, a, pairs, &mut outs)?;
            outs.into_iter().map(OpOutput::Edges).for_each(answer);
        }
        OpRequest::FusedAttention(_) => {
            fn heads_of(r: &OpRequest) -> &[AttnHead] {
                if let OpRequest::FusedAttention(heads) = r {
                    heads
                } else {
                    &[]
                }
            }
            let heads: Vec<&AttnHead> = reqs.iter().flat_map(heads_of).collect();
            let mut outs: Vec<Dense> =
                heads.iter().map(|h| Dense::zeros(a.rows(), h.v.cols())).collect();
            // A batch of 0-head requests has nothing to launch.
            if !heads.is_empty() {
                let qs: Vec<&Dense> = heads.iter().map(|h| &h.q).collect();
                let kts: Vec<&Dense> = heads.iter().map(|h| &h.kt).collect();
                let vs: Vec<&Dense> = heads.iter().map(|h| &h.v).collect();
                fused_attention_views_on(rt, a, &qs, &kts, &vs, &mut outs)?;
            }
            // Hand the flat per-head outputs back per request, in order.
            let mut outs = outs.into_iter();
            for r in reqs.iter() {
                answer(OpOutput::Heads(outs.by_ref().take(heads_of(r).len()).collect()));
            }
        }
        OpRequest::FusedSage(_) => {
            for r in reqs.iter() {
                if let OpRequest::FusedSage((x, w)) = r {
                    answer(OpOutput::Dense(fused_sage_execute_on(rt, a, x, w)?));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! The op table against its kernels: a batch is bit-identical to its
    //! riders launched alone, the batching rule and the shape rules refuse
    //! what the kernels cannot share, and a refused batch names the
    //! offending request.

    use super::*;
    use sparsetir_kernels::prelude::{fused_sage_reference, CsrSpmmParams};
    use sparsetir_smat::prelude::gen;

    /// Launch `reqs` as one batch and collect the answers in rider order.
    fn run(
        rt: &Runtime,
        a: &Csr,
        config: &SpmmConfig,
        reqs: &mut [OpRequest],
    ) -> Result<Vec<OpOutput>, Box<dyn Error>> {
        let mut outs = Vec::new();
        launch(rt, a, config, reqs, &mut |out| outs.push(out))?;
        Ok(outs)
    }

    /// Launch one request alone.
    fn solo(rt: &Runtime, a: &Csr, config: &SpmmConfig, req: &OpRequest) -> OpOutput {
        let mut outs = run(rt, a, config, &mut [req.clone()]).expect("a lone rider launches");
        assert_eq!(outs.len(), 1);
        outs.remove(0)
    }

    fn bit_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A `hyb(c=2, k=2)` decomposition: lowers to different IR than the
    /// CSR default on any matrix.
    fn hyb_arm() -> SpmmConfig {
        SpmmConfig { col_parts: Some(2), bucket_k: 2, params: CsrSpmmParams::default() }
    }

    fn attn_req(a: &Csr, heads: usize, k: usize, vfeat: usize, seed: u64) -> OpRequest {
        let mut rng = gen::rng(seed);
        OpRequest::FusedAttention(
            (0..heads)
                .map(|_| AttnHead {
                    q: gen::random_dense(a.rows(), k, &mut rng),
                    kt: gen::random_dense(k, a.cols(), &mut rng),
                    v: gen::random_dense(a.cols(), vfeat, &mut rng),
                })
                .collect(),
        )
    }

    #[test]
    fn spmm_op_batch_matches_singles() {
        let mut rng = gen::rng(71);
        let a = gen::random_csr(18, 14, 0.25, &mut rng);
        // A batch of three at each width, the 0 and 1 edge cases included.
        let batches: Vec<Vec<OpRequest>> = [3usize, 0, 1, 5]
            .iter()
            .map(|&w| (0..3).map(|_| OpRequest::Spmm(gen::random_dense(14, w, &mut rng))).collect())
            .collect();
        let rt = Runtime::new();
        // A non-unit config reaches the IR: each configuration compiles
        // its own kernels, and every one of them computes SpMM.
        let mut compiled = rt.compilations();
        for config in [SpmmConfig::default(), hyb_arm()] {
            for reqs in &batches {
                assert!(reqs.iter().all(|r| reqs[0].can_batch_with(r)));
                let batched = run(&rt, &a, &config, &mut reqs.clone()).unwrap();
                assert_eq!(batched.len(), reqs.len());
                for (req, got) in reqs.iter().zip(batched) {
                    let want = solo(&rt, &a, &config, req).into_dense().unwrap();
                    let got = got.into_dense().unwrap();
                    assert!(bit_eq(got.data(), want.data()));
                    let OpRequest::Spmm(x) = req else { unreachable!("an SpMM batch") };
                    assert!(got.approx_eq(&a.spmm(x).unwrap(), 1e-4));
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
        let narrow = OpRequest::Spmm(gen::random_dense(4, 2, &mut rng));
        let wide = OpRequest::Spmm(gen::random_dense(4, 3, &mut rng));
        assert!(!narrow.can_batch_with(&wide));
        let err = run(&Runtime::new(), &a, &SpmmConfig::default(), &mut [narrow, wide])
            .expect_err("mixed widths must be rejected");
        assert!(err.to_string().contains("request 1"), "{err}");
    }

    #[test]
    fn sddmm_op_block_diagonal_batch_is_bit_identical() {
        let mut rng = gen::rng(72);
        let a = gen::random_csr(12, 10, 0.3, &mut rng);
        let k = 4;
        let reqs: Vec<OpRequest> = (0..3)
            .map(|_| {
                OpRequest::Sddmm((
                    gen::random_dense(12, k, &mut rng),
                    gen::random_dense(k, 10, &mut rng),
                ))
            })
            .collect();
        assert!(reqs[0].can_batch_with(&reqs[1]));
        let rt = Runtime::new();
        let config = SpmmConfig::default();
        // The batch path moves its operands out, so it launches a copy.
        let batched = run(&rt, &a, &config, &mut reqs.clone()).unwrap();
        assert_eq!(batched.len(), reqs.len());
        for (req, got) in reqs.iter().zip(batched) {
            let want = solo(&rt, &a, &config, req).into_edges().unwrap();
            assert!(bit_eq(&got.into_edges().unwrap(), &want));
        }
    }

    #[test]
    fn sddmm_op_refuses_mixed_inner_widths() {
        let mut rng = gen::rng(73);
        let a = gen::random_csr(4, 4, 0.5, &mut rng);
        let narrow = OpRequest::Sddmm((
            gen::random_dense(4, 2, &mut rng),
            gen::random_dense(2, 4, &mut rng),
        ));
        let wide = OpRequest::Sddmm((
            gen::random_dense(4, 3, &mut rng),
            gen::random_dense(3, 4, &mut rng),
        ));
        assert!(!narrow.can_batch_with(&wide));
        // The entry point enforces the contract the drain relies on: a
        // mixed-width batch is a typed error, never a silently wrong
        // launch.
        let err = run(&Runtime::new(), &a, &SpmmConfig::default(), &mut [narrow, wide])
            .expect_err("mixed inner widths must be rejected");
        assert!(err.to_string().contains("request 1"), "{err}");
    }

    #[test]
    fn op_validation_reports_request_index() {
        let mut rng = gen::rng(75);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let good = OpRequest::Spmm(gen::random_dense(8, 2, &mut rng));
        let bad = OpRequest::Spmm(gen::random_dense(9, 2, &mut rng));
        assert!(good.validate(&a).is_ok());
        assert!(matches!(bad.validate(&a), Err(EngineError::Shape(_))));
        let err = run(&Runtime::new(), &a, &SpmmConfig::default(), &mut [good, bad])
            .expect_err("row mismatch must be rejected");
        assert!(err.to_string().contains("request 1"), "{err}");
    }

    #[test]
    fn fused_attention_op_refuses_mixed_head_shapes() {
        let mut rng = gen::rng(84);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let narrow = attn_req(&a, 1, 2, 3, 85);
        let wide = attn_req(&a, 1, 4, 3, 86);
        assert!(!narrow.can_batch_with(&wide));
        // The batch launches its heads flat: with one head per request,
        // head 1 is request 1.
        let err = run(&Runtime::new(), &a, &SpmmConfig::default(), &mut [narrow, wide])
            .expect_err("mixed (k, vfeat) must be rejected");
        assert!(err.to_string().contains("head 1"), "{err}");
        // Non-uniform heads inside one request are a validation error.
        let (OpRequest::FusedAttention(mut bad), OpRequest::FusedAttention(other)) =
            (attn_req(&a, 1, 2, 3, 87), attn_req(&a, 1, 2, 5, 88))
        else {
            unreachable!("attention requests")
        };
        bad.extend(other);
        assert!(OpRequest::FusedAttention(bad).validate(&a).is_err());
    }

    #[test]
    fn fused_sage_op_executes_and_never_batches() {
        let mut rng = gen::rng(91);
        let a = gen::random_csr(12, 12, 0.3, &mut rng);
        let (x, w) = (gen::random_dense(12, 5, &mut rng), gen::random_dense(5, 4, &mut rng));
        let req = OpRequest::FusedSage((x.clone(), w.clone()));
        assert!(!req.can_batch_with(&req));
        let got = solo(&Runtime::new(), &a, &SpmmConfig::default(), &req).into_dense().unwrap();
        assert!(got.approx_eq(&fused_sage_reference(&a, &x, &w), 1e-4));
    }
}
