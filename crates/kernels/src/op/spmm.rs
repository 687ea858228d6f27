//! [`SpmmOp`]: SpMM behind the [`SparseOp`] face.

use super::{OpError, SparseOp};
use crate::spmm::{self, spmm_execute_views_on, SpmmConfig};
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

/// SpMM (`A · X`) as a [`SparseOp`]: one dense feature operand per
/// request; requests batch when their widths agree, folding into one
/// launch that runs the one-rider kernel once per rider, the adjacency
/// bound once.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpmmOp;

impl SparseOp for SpmmOp {
    type Operands = Dense;
    type Output = Dense;
    type Config = SpmmConfig;

    fn kind() -> &'static str {
        "spmm"
    }

    fn validate(adj: &Csr, req: &Dense) -> Result<(), String> {
        spmm::check_shapes(adj, req)
    }

    fn can_batch(lhs: &Dense, rhs: &Dense) -> bool {
        // One launch runs one kernel, compiled at one width, once per
        // rider.
        lhs.cols() == rhs.cols()
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[Dense],
        config: &SpmmConfig,
    ) -> Result<Vec<Dense>, OpError> {
        let mut outs: Vec<Dense> =
            reqs.iter().map(|x| Dense::zeros(adj.rows(), x.cols())).collect();
        let xs: Vec<&Dense> = reqs.iter().collect();
        spmm_execute_views_on(rt, adj, &xs, &mut outs, config)?;
        Ok(outs)
    }

    fn reference(adj: &Csr, req: &Dense) -> Result<Dense, OpError> {
        Ok(adj.spmm(req)?)
    }
}
