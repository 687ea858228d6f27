//! [`AttentionOp`]: multi-head attention SpMM behind the [`SparseOp`]
//! face.

use super::{regroup, OpError, SparseOp};
use crate::spmm::{self, spmm_execute_views_on, SpmmConfig};
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

/// Multi-head attention SpMM over one shared mask as a [`SparseOp`]: a
/// request is a list of per-head feature operands, and *all* heads of
/// *all* batched requests stack column-wise into one widened launch
/// (the head axis and the request axis batch identically). Execution runs
/// the stacked SpMM path through the compiled executor, so the
/// configuration is SpMM's; the tensor-core BSR kernel of §4.3.1 is
/// priced by `sparsetir_plans::attention::batched_bsr_spmm_plan`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttentionOp;

impl SparseOp for AttentionOp {
    type Adj = Csr;
    type Operands = Vec<Dense>;
    type Output = Vec<Dense>;
    type Config = SpmmConfig;

    fn kind() -> &'static str {
        "attention"
    }

    fn validate(adj: &Csr, req: &Vec<Dense>) -> Result<(), String> {
        req.iter()
            .enumerate()
            .try_for_each(|(h, x)| spmm::check_shapes(adj, x).map_err(|e| format!("head {h} {e}")))
    }

    fn can_batch(_lhs: &Vec<Dense>, _rhs: &Vec<Dense>) -> bool {
        // Head lists concatenate; any head counts and widths fold.
        true
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[Vec<Dense>],
        config: &SpmmConfig,
    ) -> Result<Vec<Vec<Dense>>, OpError> {
        // Every head of every request is one column segment of the same
        // widened SpMM launch.
        let xs: Vec<&Dense> = reqs.iter().flatten().collect();
        let mut outs: Vec<Dense> = xs.iter().map(|x| Dense::zeros(adj.rows(), x.cols())).collect();
        spmm_execute_views_on(rt, adj, &xs, &mut outs, config)?;
        Ok(regroup(outs, reqs))
    }

    fn reference(adj: &Csr, req: &Vec<Dense>) -> Result<Vec<Dense>, OpError> {
        Ok(batched_spmm(adj, req)?)
    }
}
