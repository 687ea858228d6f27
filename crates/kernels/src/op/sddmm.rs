//! [`SddmmOp`]: SDDMM behind the [`SparseOp`] face.

use super::{OpError, SparseOp};
use crate::sddmm::{self, sddmm_execute_views_on};
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

/// SDDMM (`A ⊙ (X · Y)` sampled at the non-zeros) as a [`SparseOp`]:
/// requests batch when their inner (reduction) widths agree, folding into
/// one launch that runs the one-head kernel once per rider, the adjacency
/// bound once. The executable kernel is the row-shaped schedule with no knob
/// of its own (the compiled CPU executor derives its row nest and
/// microkernel from the loops), so `Config` is `()`; the GPU schedule
/// space — the nnz-parallel `sparse_fuse` one among them — is
/// `sparsetir_plans::sddmm::SddmmParams`, priced by `sddmm_plan` there.
#[derive(Debug, Clone, Copy, Default)]
pub struct SddmmOp;

impl SparseOp for SddmmOp {
    type Operands = (Dense, Dense);
    type Output = Vec<f32>;
    type Config = ();

    fn kind() -> &'static str {
        "sddmm"
    }

    fn validate(adj: &Csr, (x, y): &(Dense, Dense)) -> Result<(), String> {
        sddmm::check_shapes(adj, x, y)
    }

    fn can_batch(lhs: &(Dense, Dense), rhs: &(Dense, Dense)) -> bool {
        // One launch runs one kernel, compiled at one inner (reduction)
        // width, once per rider.
        lhs.0.cols() == rhs.0.cols()
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[(Dense, Dense)],
        (): &(),
    ) -> Result<Vec<Vec<f32>>, OpError> {
        let mut outs = vec![vec![0.0f32; adj.nnz()]; reqs.len()];
        sddmm_execute_views_on(rt, adj, reqs, &mut outs)?;
        Ok(outs)
    }

    fn reference(adj: &Csr, (x, y): &(Dense, Dense)) -> Result<Vec<f32>, OpError> {
        Ok(adj.sddmm(x, y)?.values().to_vec())
    }
}
