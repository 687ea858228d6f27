//! [`FusedAttentionOp`]: cross-op fused attention (SDDMM → edge-softmax
//! → SpMM, one kernel) behind the [`SparseOp`] face.

use super::{OpError, SparseOp};
use crate::fused_attention::{check_heads, fused_attention_reference, fused_attention_views_on};
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

/// One attention head's operands: query, transposed key and value
/// projections against the shared mask.
#[derive(Debug, Clone)]
pub struct AttnHead {
    /// Queries (`rows × k`).
    pub q: Dense,
    /// Transposed keys (`k × cols`).
    pub kt: Dense,
    /// Values (`cols × vfeat`).
    pub v: Dense,
}

/// The whole sparse-attention pipeline (score SDDMM → edge-softmax →
/// aggregation SpMM) as **one** [`SparseOp`] served by one fused kernel
/// ([`crate::fused_attention::fused_attention_views_on`]; the
/// bit-identical three-launch pipeline is the test oracle
/// [`crate::fused_attention::attention_pipeline_oracle`], never a
/// serving route). A request is a list of [`AttnHead`]s sharing
/// one mask; requests batch when their per-head shapes `(k, vfeat)`
/// agree — every head of every folded request is one run of the one-head
/// kernel in the same launch, the run it would make alone, so batching is
/// bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct FusedAttentionOp;

/// Per-head `(k, vfeat)` shape of a request, `None` when it has no heads
/// (0-head requests are compatible with anything — they contribute
/// nothing to a launch).
fn attn_head_shape(req: &[AttnHead]) -> Option<(usize, usize)> {
    req.first().map(|h| (h.q.cols(), h.v.cols()))
}

impl SparseOp for FusedAttentionOp {
    type Operands = Vec<AttnHead>;
    type Output = Vec<Dense>;
    type Config = ();

    fn kind() -> &'static str {
        "fused_attention"
    }

    fn validate(adj: &Csr, req: &Vec<AttnHead>) -> Result<(), String> {
        check_heads(adj, req.iter().map(|h| (&h.q, &h.kt, &h.v)))
    }

    fn can_batch(lhs: &Vec<AttnHead>, rhs: &Vec<AttnHead>) -> bool {
        // One launch runs one kernel, compiled at one (k, vfeat); 0-head
        // requests ride along with anything.
        match (attn_head_shape(lhs), attn_head_shape(rhs)) {
            (Some(l), Some(r)) => l == r,
            _ => true,
        }
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[Vec<AttnHead>],
        (): &(),
    ) -> Result<Vec<Vec<Dense>>, OpError> {
        let heads: Vec<&AttnHead> = reqs.iter().flatten().collect();
        let mut outs: Vec<Dense> =
            heads.iter().map(|h| Dense::zeros(adj.rows(), h.v.cols())).collect();
        // A batch of 0-head requests has nothing to launch.
        if !heads.is_empty() {
            let qs: Vec<&Dense> = heads.iter().map(|h| &h.q).collect();
            let kts: Vec<&Dense> = heads.iter().map(|h| &h.kt).collect();
            let vs: Vec<&Dense> = heads.iter().map(|h| &h.v).collect();
            fused_attention_views_on(rt, adj, &qs, &kts, &vs, &mut outs)?;
        }
        // Hand the flat per-head outputs back per request, in order.
        let mut outs = outs.into_iter();
        Ok(reqs.iter().map(|req| outs.by_ref().take(req.len()).collect()).collect())
    }

    fn reference(adj: &Csr, req: &Vec<AttnHead>) -> Result<Vec<Dense>, OpError> {
        Ok(req.iter().map(|h| fused_attention_reference(adj, &h.q, &h.kt, &h.v, 1)).collect())
    }
}
