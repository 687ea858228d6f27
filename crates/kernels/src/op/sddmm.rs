//! [`SddmmOp`]: SDDMM behind the [`SparseOp`] face.

use super::{OpError, SparseOp};
use crate::sddmm::{self, sddmm_execute_views_on, sddmm_plan, SddmmParams};
use sparsetir_gpusim::prelude::KernelPlan;
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

/// SDDMM (`A ⊙ (X · Y)` sampled at the non-zeros) as a [`SparseOp`]:
/// requests batch when their inner (reduction) widths agree, folding
/// into one widened launch whose head axis sits *inside* the fused
/// non-zero loop — the per-non-zero coordinate walk is shared by every
/// rider. The executable kernel is the fused nnz-parallel schedule;
/// [`SddmmParams`] is the plan-face configuration the simulator and
/// tuner price (the compiled CPU executor derives its own microkernel
/// from the fused loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct SddmmOp;

impl SparseOp for SddmmOp {
    type Adj = Csr;
    type Operands = (Dense, Dense);
    type Output = Vec<f32>;
    type Config = SddmmParams;

    fn kind() -> &'static str {
        "sddmm"
    }

    fn default_config() -> SddmmParams {
        SddmmParams::default()
    }

    fn sparsity(adj: &Csr) -> SparsityFingerprint {
        SparsityFingerprint::of(adj)
    }

    fn shape_of(req: &(Dense, Dense)) -> Vec<usize> {
        vec![req.0.cols()]
    }

    fn validate(adj: &Csr, (x, y): &(Dense, Dense)) -> Result<(), String> {
        sddmm::check_shapes(adj, x, y)
    }

    fn plans(adj: &Csr, shape: &[usize], config: &SddmmParams, name: &str) -> Vec<KernelPlan> {
        let feat = shape.first().copied().unwrap_or(1);
        vec![sddmm_plan(adj, feat, *config, name)]
    }

    fn can_batch(lhs: &(Dense, Dense), rhs: &(Dense, Dense)) -> bool {
        // The widened launch has one head axis over a rectangular X/Y
        // pair, so only equal inner (reduction) widths share it — the
        // reduction order of every stored non-zero must stay exactly the
        // unbatched one for bit-identical results.
        lhs.0.cols() == rhs.0.cols()
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[(Dense, Dense)],
        _config: &SddmmParams,
    ) -> Result<Vec<Vec<f32>>, OpError> {
        let mut outs = vec![vec![0.0f32; adj.nnz()]; reqs.len()];
        sddmm_execute_views_on(rt, adj, reqs, &mut outs)?;
        Ok(outs)
    }

    fn reference(adj: &Csr, (x, y): &(Dense, Dense)) -> Result<Vec<f32>, OpError> {
        Ok(adj.sddmm(x, y)?.values().to_vec())
    }
}
