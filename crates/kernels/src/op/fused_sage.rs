//! [`FusedSageOp`]: the cross-op fused GraphSAGE step (gather →
//! normalize → matmul, one kernel) behind the [`SparseOp`] face.

#[cfg(doc)]
use super::OpConfig;
use super::{OpError, SparseOp};
use crate::attention::batched_csr_spmm_plan;
use crate::common::{gemm_plan, F32};
use crate::fused_sage::{self, fused_sage_execute_on, fused_sage_reference};
use crate::spmm::SpmmConfig;
use sparsetir_gpusim::prelude::KernelPlan;
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

/// Configuration of the fused GraphSAGE-step operator. Wraps the
/// aggregation phase's SpMM schedule (its own type so the kind-tagged
/// [`OpConfig`] conversions stay unambiguous with [`OpConfig::Spmm`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedSageConfig {
    /// Aggregation-phase (SpMM-shaped) schedule the plan face prices.
    pub spmm: SpmmConfig,
}

impl Default for FusedSageConfig {
    fn default() -> FusedSageConfig {
        FusedSageConfig { spmm: SpmmConfig::default_csr() }
    }
}

/// GraphSAGE's gather → degree-normalize → feature-matmul layer step as
/// a [`SparseOp`] served by one fused kernel launch
/// ([`crate::fused_sage::fused_sage_execute_on`]; `SPARSETIR_NO_FUSE` falls
/// back to the bit-identical two-launch pipeline). A request is the
/// `(features, weights)` pair of one layer; requests never batch (each
/// already spans the whole graph, RGMS-style).
#[derive(Debug, Clone, Copy, Default)]
pub struct FusedSageOp;

impl SparseOp for FusedSageOp {
    type Adj = Csr;
    type Operands = (Dense, Dense);
    type Output = Dense;
    type Config = FusedSageConfig;

    fn kind() -> &'static str {
        "fused_sage"
    }

    fn default_config() -> FusedSageConfig {
        FusedSageConfig::default()
    }

    fn sparsity(adj: &Csr) -> SparsityFingerprint {
        SparsityFingerprint::of(adj)
    }

    fn shape_of(req: &(Dense, Dense)) -> Vec<usize> {
        vec![req.0.cols(), req.1.cols()]
    }

    fn validate(adj: &Csr, (x, w): &(Dense, Dense)) -> Result<(), String> {
        fused_sage::check_shapes(adj, x, w)
    }

    fn plans(adj: &Csr, shape: &[usize], _config: &FusedSageConfig, name: &str) -> Vec<KernelPlan> {
        let feat = shape.first().copied().unwrap_or(1).max(1);
        let hidden = shape.get(1).copied().unwrap_or(1).max(1);
        vec![
            batched_csr_spmm_plan(adj, feat, 1, name),
            gemm_plan(name, adj.rows(), hidden, feat, F32, false, 1.0),
        ]
    }

    fn can_batch(_lhs: &(Dense, Dense), _rhs: &(Dense, Dense)) -> bool {
        false
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[(Dense, Dense)],
        _config: &FusedSageConfig,
    ) -> Result<Vec<Dense>, OpError> {
        reqs.iter().map(|(x, w)| fused_sage_execute_on(rt, adj, x, w)).collect()
    }

    fn reference(adj: &Csr, (x, w): &(Dense, Dense)) -> Result<Dense, OpError> {
        Ok(fused_sage_reference(adj, x, w))
    }
}
