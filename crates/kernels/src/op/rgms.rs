//! [`RgmsOp`]: Relational Gather-Matmul-Scatter behind the [`SparseOp`]
//! face.

use super::{OpError, SparseOp};
use crate::rgms::{rgms_hyb_plan, rgms_naive_plan, RgmsWorkload};
use sparsetir_gpusim::prelude::KernelPlan;
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

/// The dense operands of one RGMS request: node features plus one weight
/// matrix per relation.
#[derive(Debug, Clone)]
pub struct RgmsOperands {
    /// Node features (`nodes × d_in`).
    pub x: Dense,
    /// Per-relation weights (`d_in × d_out` each).
    pub weights: Vec<Dense>,
}

/// Relational Gather-Matmul-Scatter as a [`SparseOp`]: the adjacency is
/// the multi-relation [`RgmsWorkload`], the configuration is the 3-D hyb
/// bucket exponent (`0` = the unbucketed naive kernel), and the plan
/// face prices Figure 20's fused kernels. Requests never batch (each
/// already spans every relation); execution runs the smat reference
/// pipeline. Shape vectors are `[d_in, d_out, tensor_cores]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RgmsOp;

impl SparseOp for RgmsOp {
    type Adj = RgmsWorkload;
    type Operands = RgmsOperands;
    type Output = Dense;
    type Config = u32;

    fn kind() -> &'static str {
        "rgms"
    }

    fn default_config() -> u32 {
        5
    }

    fn sparsity(adj: &RgmsWorkload) -> SparsityFingerprint {
        SparsityFingerprint::of_relations(&adj.relations)
    }

    fn shape_of(req: &RgmsOperands) -> Vec<usize> {
        // The third element is the tensor-core flag of the plan face —
        // a caller choice, not derivable from the operands, so it
        // defaults to 0 (CUDA cores) here; `nn::tuned_rgms` passes the
        // explicit flag. Keeping the slot in the request-derived shape
        // means the two forms never collide in a tune-cache key.
        vec![req.x.cols(), req.weights.first().map_or(0, Dense::cols), 0]
    }

    fn validate(adj: &RgmsWorkload, req: &RgmsOperands) -> Result<(), String> {
        if req.weights.len() != adj.relations.len() {
            return Err(format!(
                "{} weight matrices for {} relations",
                req.weights.len(),
                adj.relations.len()
            ));
        }
        if req.x.rows() != adj.nodes() {
            return Err(format!(
                "feature matrix has {} rows, workload has {} nodes",
                req.x.rows(),
                adj.nodes()
            ));
        }
        Ok(())
    }

    fn plans(adj: &RgmsWorkload, shape: &[usize], config: &u32, name: &str) -> Vec<KernelPlan> {
        let tensor_cores = shape.get(2).is_some_and(|&tc| tc != 0);
        if *config == 0 {
            vec![rgms_naive_plan(adj, name)]
        } else {
            vec![rgms_hyb_plan(adj, *config, tensor_cores, name)]
        }
    }

    fn can_batch(_lhs: &RgmsOperands, _rhs: &RgmsOperands) -> bool {
        false
    }

    fn launch(
        _rt: &Runtime,
        adj: &RgmsWorkload,
        reqs: &[RgmsOperands],
        _config: &u32,
    ) -> Result<Vec<Dense>, OpError> {
        reqs.iter().map(|req| Self::reference(adj, req)).collect()
    }

    fn reference(adj: &RgmsWorkload, req: &RgmsOperands) -> Result<Dense, OpError> {
        Ok(rgms_reference(&adj.relations, &req.x, &req.weights)?)
    }
}
