//! [`AttentionOp`]: multi-head attention SpMM behind the [`SparseOp`]
//! face.

use super::{regroup, OpError, SparseOp};
use crate::attention::{batched_bsr_spmm_plan, batched_csr_spmm_plan, SPARSETIR_BSR_EFFICIENCY};
use crate::spmm::{self, spmm_execute_views_on, SpmmConfig};
use sparsetir_gpusim::prelude::KernelPlan;
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

/// Configuration of the block-sparse attention operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionOpConfig {
    /// BSR block granularity the tensor-core plan face prices (§4.3.1:
    /// SparseTIR searches it, Triton fixes 64). Falls back to the CSR
    /// CUDA-core plan when the mask does not digitize at this block.
    pub block: usize,
    /// Schedule of the executable column-stacked CSR path.
    pub spmm: SpmmConfig,
}

impl Default for AttentionOpConfig {
    fn default() -> AttentionOpConfig {
        AttentionOpConfig { block: 32, spmm: SpmmConfig::default_csr() }
    }
}

/// Multi-head attention SpMM over one shared mask as a [`SparseOp`]: a
/// request is a list of per-head feature operands, and *all* heads of
/// *all* batched requests stack column-wise into one widened launch
/// (the head axis and the request axis batch identically). The plan face
/// prices the tensor-core BSR kernel of §4.3.1; execution runs the
/// stacked CSR path through the compiled executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttentionOp;

impl SparseOp for AttentionOp {
    type Adj = Csr;
    type Operands = Vec<Dense>;
    type Output = Vec<Dense>;
    type Config = AttentionOpConfig;

    fn kind() -> &'static str {
        "attention"
    }

    fn default_config() -> AttentionOpConfig {
        AttentionOpConfig::default()
    }

    fn sparsity(adj: &Csr) -> SparsityFingerprint {
        SparsityFingerprint::of(adj)
    }

    fn shape_of(req: &Vec<Dense>) -> Vec<usize> {
        vec![req.first().map_or(0, Dense::cols), req.len()]
    }

    fn validate(adj: &Csr, req: &Vec<Dense>) -> Result<(), String> {
        req.iter()
            .enumerate()
            .try_for_each(|(h, x)| spmm::check_shapes(adj, x).map_err(|e| format!("head {h} {e}")))
    }

    fn plans(
        adj: &Csr,
        shape: &[usize],
        config: &AttentionOpConfig,
        name: &str,
    ) -> Vec<KernelPlan> {
        let feat = shape.first().copied().unwrap_or(1).max(1);
        let heads = shape.get(1).copied().unwrap_or(1).max(1);
        match Bsr::from_csr(adj, config.block) {
            Ok(bsr) => {
                vec![batched_bsr_spmm_plan(&bsr, feat, heads, SPARSETIR_BSR_EFFICIENCY, name)]
            }
            Err(_) => vec![batched_csr_spmm_plan(adj, feat, heads, name)],
        }
    }

    fn can_batch(_lhs: &Vec<Dense>, _rhs: &Vec<Dense>) -> bool {
        // Head lists concatenate; any head counts and widths fold.
        true
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[Vec<Dense>],
        config: &AttentionOpConfig,
    ) -> Result<Vec<Vec<Dense>>, OpError> {
        // Every head of every request is one column segment of the same
        // widened SpMM launch.
        let xs: Vec<&Dense> = reqs.iter().flatten().collect();
        let mut outs: Vec<Dense> = xs.iter().map(|x| Dense::zeros(adj.rows(), x.cols())).collect();
        spmm_execute_views_on(rt, adj, &xs, &mut outs, &config.spmm)?;
        Ok(regroup(outs, reqs))
    }

    fn reference(adj: &Csr, req: &Vec<Dense>) -> Result<Vec<Dense>, OpError> {
        Ok(batched_spmm(adj, req)?)
    }
}
