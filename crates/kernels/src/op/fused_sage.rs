//! [`FusedSageOp`]: the cross-op fused GraphSAGE step (gather →
//! normalize → matmul, one kernel) behind the [`SparseOp`] face.

use super::{OpError, SparseOp};
use crate::fused_sage::{self, fused_sage_execute_on, fused_sage_reference};
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

/// GraphSAGE's gather → degree-normalize → feature-matmul layer step as
/// a [`SparseOp`] served by one fused kernel launch
/// ([`crate::fused_sage::fused_sage_execute_on`]; the bit-identical
/// two-launch pipeline is the test oracle
/// [`crate::fused_sage::sage_pipeline_oracle`]). A request is the
/// `(features, weights)` pair of one layer; requests never batch (each
/// already spans the whole graph).
#[derive(Debug, Clone, Copy, Default)]
pub struct FusedSageOp;

impl SparseOp for FusedSageOp {
    type Operands = (Dense, Dense);
    type Output = Dense;
    type Config = ();

    fn kind() -> &'static str {
        "fused_sage"
    }

    fn validate(adj: &Csr, (x, w): &(Dense, Dense)) -> Result<(), String> {
        fused_sage::check_shapes(adj, x, w)
    }

    fn can_batch(_lhs: &(Dense, Dense), _rhs: &(Dense, Dense)) -> bool {
        false
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[(Dense, Dense)],
        (): &(),
    ) -> Result<Vec<Dense>, OpError> {
        reqs.iter().map(|(x, w)| fused_sage_execute_on(rt, adj, x, w)).collect()
    }

    fn reference(adj: &Csr, (x, w): &(Dense, Dense)) -> Result<Dense, OpError> {
        Ok(fused_sage_reference(adj, x, w))
    }
}
