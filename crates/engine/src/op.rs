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

/// Launch one request through its op's kernel entry point — allocate its
/// zeroed output, bind operands and output in place, and return the
/// output. The entry point checks the request again; only SpMM reads
/// `config`.
pub(crate) fn launch(
    rt: &Runtime,
    a: &Csr,
    config: &SpmmConfig,
    req: &OpRequest,
) -> Result<OpOutput, Box<dyn Error>> {
    Ok(match req {
        OpRequest::Spmm(x) => {
            let mut out = [Dense::zeros(a.rows(), x.cols())];
            spmm_execute_views_on(rt, a, &[x], &mut out, config)?;
            let [out] = out;
            OpOutput::Dense(out)
        }
        OpRequest::Sddmm(pair) => {
            let mut out = [vec![0.0; a.nnz()]];
            sddmm_execute_views_on(rt, a, slice::from_ref(pair), &mut out)?;
            let [out] = out;
            OpOutput::Edges(out)
        }
        OpRequest::FusedAttention(heads) => {
            let mut outs: Vec<Dense> =
                heads.iter().map(|h| Dense::zeros(a.rows(), h.v.cols())).collect();
            // A 0-head request has nothing to launch.
            if !heads.is_empty() {
                let qs: Vec<&Dense> = heads.iter().map(|h| &h.q).collect();
                let kts: Vec<&Dense> = heads.iter().map(|h| &h.kt).collect();
                let vs: Vec<&Dense> = heads.iter().map(|h| &h.v).collect();
                fused_attention_views_on(rt, a, &qs, &kts, &vs, &mut outs)?;
            }
            OpOutput::Heads(outs)
        }
        OpRequest::FusedSage((x, w)) => OpOutput::Dense(fused_sage_execute_on(rt, a, x, w)?),
    })
}

#[cfg(test)]
mod tests {
    //! The op table against its kernels: a request launched alone is
    //! bit-identical to the same request riding in a kernel batch, and the
    //! shape rules refuse what the kernels cannot run, naming the offending
    //! request or head.

    use super::*;
    use sparsetir_kernels::prelude::{fused_sage_reference, CsrSpmmParams};
    use sparsetir_smat::prelude::gen;

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
        // Three operands at each width, the 0 and 1 edge cases included.
        let batches: Vec<Vec<Dense>> = [3usize, 0, 1, 5]
            .iter()
            .map(|&w| (0..3).map(|_| gen::random_dense(14, w, &mut rng)).collect())
            .collect();
        let rt = Runtime::new();
        // A non-unit config reaches the IR: each configuration compiles
        // its own kernels, and every one of them computes SpMM.
        let mut compiled = rt.compilations();
        for config in [SpmmConfig::default(), hyb_arm()] {
            for xs in &batches {
                let refs: Vec<&Dense> = xs.iter().collect();
                let mut batched: Vec<Dense> =
                    xs.iter().map(|x| Dense::zeros(a.rows(), x.cols())).collect();
                spmm_execute_views_on(&rt, &a, &refs, &mut batched, &config).unwrap();
                for (x, in_batch) in xs.iter().zip(&batched) {
                    let req = OpRequest::Spmm(x.clone());
                    let got = launch(&rt, &a, &config, &req).unwrap().into_dense().unwrap();
                    assert!(bit_eq(got.data(), in_batch.data()));
                    assert!(got.approx_eq(&a.spmm(x).unwrap(), 1e-4));
                }
            }
            assert!(rt.compilations() > compiled, "{} compiled nothing new", config.label());
            compiled = rt.compilations();
        }
    }

    #[test]
    fn sddmm_op_block_diagonal_batch_is_bit_identical() {
        let mut rng = gen::rng(72);
        let a = gen::random_csr(12, 10, 0.3, &mut rng);
        let k = 4;
        let pairs: Vec<(Dense, Dense)> = (0..3)
            .map(|_| (gen::random_dense(12, k, &mut rng), gen::random_dense(k, 10, &mut rng)))
            .collect();
        let rt = Runtime::new();
        let mut batched = vec![vec![0.0; a.nnz()]; pairs.len()];
        sddmm_execute_views_on(&rt, &a, &pairs, &mut batched).unwrap();
        for (pair, in_batch) in pairs.iter().zip(&batched) {
            let req = OpRequest::Sddmm(pair.clone());
            let got = launch(&rt, &a, &SpmmConfig::default(), &req).unwrap();
            assert!(bit_eq(&got.into_edges().unwrap(), in_batch));
        }
    }

    #[test]
    fn op_validation_reports_request_index() {
        let mut rng = gen::rng(75);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let good = OpRequest::Spmm(gen::random_dense(8, 2, &mut rng));
        let bad = OpRequest::Spmm(gen::random_dense(9, 2, &mut rng));
        assert!(good.validate(&a).is_ok());
        assert!(matches!(bad.validate(&a), Err(EngineError::Shape(_))));
        // The entry point checks again: a request is its launch's request 0.
        let err = launch(&Runtime::new(), &a, &SpmmConfig::default(), &bad)
            .expect_err("row mismatch must be rejected");
        assert!(err.to_string().contains("request 0"), "{err}");
    }

    #[test]
    fn fused_attention_op_refuses_mixed_head_shapes() {
        let a = gen::random_csr(8, 8, 0.3, &mut gen::rng(84));
        // Heads of one request that differ in `(k, vfeat)` are a
        // validation error, and the entry point names the odd head.
        let (OpRequest::FusedAttention(mut mixed), OpRequest::FusedAttention(other)) =
            (attn_req(&a, 1, 2, 3, 87), attn_req(&a, 1, 2, 5, 88))
        else {
            unreachable!("attention requests")
        };
        mixed.extend(other);
        let mixed = OpRequest::FusedAttention(mixed);
        assert!(mixed.validate(&a).is_err());
        let err = launch(&Runtime::new(), &a, &SpmmConfig::default(), &mixed)
            .expect_err("mixed (k, vfeat) must be rejected");
        assert!(err.to_string().contains("head 1"), "{err}");
        // A 0-head request launches nothing and answers no heads.
        let empty = launch(&Runtime::new(), &a, &SpmmConfig::default(), &attn_req(&a, 0, 2, 3, 89));
        assert!(empty.unwrap().into_heads().unwrap().is_empty());
    }

    #[test]
    fn fused_sage_op_executes_and_never_batches() {
        let mut rng = gen::rng(91);
        let a = gen::random_csr(12, 12, 0.3, &mut rng);
        let (x, w) = (gen::random_dense(12, 5, &mut rng), gen::random_dense(5, 4, &mut rng));
        let req = OpRequest::FusedSage((x.clone(), w.clone()));
        let rt = Runtime::new();
        let got = launch(&rt, &a, &SpmmConfig::default(), &req).unwrap().into_dense().unwrap();
        assert!(got.approx_eq(&fused_sage_reference(&a, &x, &w), 1e-4));
        // One request is one whole-graph launch of one compiled kernel.
        assert_eq!(rt.compilations(), 1);
    }
}
