//! The generic sparse-operator layer: every kernel in this crate —
//! SpMM, SDDMM, multi-head attention, RGMS — presents one uniform face
//! ([`SparseOp`]) so the tuning and serving stacks above it can be
//! op-agnostic. This is the composability thesis applied to our own
//! plumbing: one prepare → schedule → compile → execute path, many
//! operators, instead of each kernel re-implementing the pipeline.
//!
//! A [`SparseOp`] bundles:
//! * an **op descriptor** — kind tag, adjacency type, request shape and a
//!   tunable [`SparseOp::Config`], with a uniform
//!   [`plans`](SparseOp::plans) face for the GPU simulator;
//! * a **batching contract** — [`can_batch`](SparseOp::can_batch) plus
//!   [`assemble`](SparseOp::assemble) / [`launch`](SparseOp::launch) /
//!   [`outputs`](SparseOp::outputs), so a serving engine can fold
//!   requests sharing an adjacency fingerprint into one widened kernel
//!   launch **without copying operands**: the kernel binds each rider's
//!   storage directly through segmented views and writes each result
//!   into its rider's own output buffer. Sequential per-request
//!   execution is the bit-identity oracle;
//! * a **reference hook** ([`reference`](SparseOp::reference)) for
//!   differential testing of every execution path against the smat
//!   oracles.
//!
//! Two stacking strategies cover all batched ops:
//! * **Column stacking** (SpMM, attention): dense feature operands are
//!   concatenated column-wise into one operand of width `Σ wᵢ`, the
//!   schedule's vector split is widened to span the stacked width, and
//!   the wide output is sliced back per request. Splitting the (spatial)
//!   feature axis differently never changes a output column's reduction
//!   order, so results are bit-identical to unbatched execution.
//! * **Widened multi-head launch** (SDDMM): `n` requests over one
//!   adjacency fold into a single launch of the batched fused kernel
//!   ([`crate::sddmm::batched_sddmm_ir`]) whose head axis sits *inside*
//!   the fused non-zero loop — the per-non-zero coordinate walk
//!   (binary-searched row recovery, index loads) is shared by every
//!   rider, and each `(non-zero, head)` pair keeps exactly its unbatched
//!   feature-reduction order. The interleaved per-non-zero output splits
//!   back per request. This amortizes both the per-launch fixed costs
//!   (program build, lowering, IR fingerprinting, dispatch) and the
//!   shared coordinate walk across the batch.
//!
//! Both strategies execute **zero-copy**: instead of memcpy'ing riders
//! into one stacked operand and slicing the wide result back, the
//! kernel's buffer slots bind to ordered segment lists over the riders'
//! own storage (`ColsView`/`RowsView` from `sparsetir-ir`), and outputs
//! land directly in per-rider buffers. The `bytes_copied` thread counter
//! (`sparsetir-core`) tallies any dense bytes a launch path memcpys; the
//! view paths leave it at zero.

use crate::attention::{batched_bsr_spmm_plan, batched_csr_spmm_plan, SPARSETIR_BSR_EFFICIENCY};
use crate::common::{gemm_plan, F32};
use crate::fused_attention::{
    fused_attention_plans, fused_attention_reference, fused_attention_views_on,
};
use crate::fused_sage::{fused_sage_execute_on, fused_sage_reference};
use crate::rgms::{rgms_hyb_plan, rgms_naive_plan, RgmsWorkload};
use crate::sddmm::{sddmm_execute_views_on, sddmm_plan, SddmmParams};
use crate::spmm::{spmm_execute_views_on, tuned_spmm_plans, SpmmConfig};
use sparsetir_gpusim::prelude::KernelPlan;
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

/// Error type of the op layer (lowering, compilation and execution
/// failures propagate unchanged from the kernel entry points).
pub type OpError = Box<dyn std::error::Error>;

/// A sparse operator behind the uniform plan/batch/execute face.
///
/// Implementations are zero-sized tag types ([`SpmmOp`], [`SddmmOp`],
/// [`AttentionOp`], [`RgmsOp`]); all state lives in the adjacency,
/// the per-request [`Operands`](SparseOp::Operands) and the tunable
/// [`Config`](SparseOp::Config).
pub trait SparseOp {
    /// The sparse structure requests are served against ([`Csr`] for the
    /// single-matrix ops, [`RgmsWorkload`] for the relational one).
    type Adj;
    /// Dense operands of one request.
    type Operands: Send + 'static;
    /// Per-request result.
    type Output: Send + 'static;
    /// Tunable configuration (format decomposition + schedule knobs).
    type Config: Clone + Send + Sync + PartialEq + std::fmt::Debug + 'static;
    /// Per-rider output buffers of a zero-copy view launch, allocated by
    /// [`assemble`](SparseOp::assemble) and written in place by
    /// [`launch`](SparseOp::launch).
    type Assembled: Send;

    /// Stable kind tag (`"spmm"`, `"sddmm"`, …) — tune-cache key material
    /// and display label.
    fn kind() -> &'static str;

    /// The untuned default configuration.
    fn default_config() -> Self::Config;

    /// Structural fingerprint of the adjacency (cache-key material: a
    /// decision transfers between adjacencies with equal fingerprints).
    fn sparsity(adj: &Self::Adj) -> SparsityFingerprint;

    /// Workload-shape key of one request (feature width, heads, …): the
    /// `extra` component of a tuning key, and what [`plans`](SparseOp::plans)
    /// prices.
    fn shape_of(req: &Self::Operands) -> Vec<usize>;

    /// Shape-validate one request against the adjacency.
    ///
    /// # Errors
    /// A human-readable description of the first mismatch.
    fn validate(adj: &Self::Adj, req: &Self::Operands) -> Result<(), String>;

    /// The uniform simulator face: kernel plans of this op at `shape`
    /// under `config` (the same shape vector [`shape_of`](SparseOp::shape_of)
    /// produces).
    fn plans(
        adj: &Self::Adj,
        shape: &[usize],
        config: &Self::Config,
        name: &str,
    ) -> Vec<KernelPlan>;

    /// Batching contract: true when two validated requests may share one
    /// widened launch. Callers must already have matched the adjacency
    /// fingerprints; this only checks request-shape compatibility.
    fn can_batch(lhs: &Self::Operands, rhs: &Self::Operands) -> bool;

    /// Allocate the per-rider output buffers of one zero-copy view
    /// launch over a batch (length ≥ 2, pairwise
    /// [`can_batch`](SparseOp::can_batch)). No operand bytes move here —
    /// only result storage is created, zero-filled, in the layout
    /// [`outputs`](SparseOp::outputs) hands back per request.
    ///
    /// # Errors
    /// Reports batch-shape violations.
    fn assemble(adj: &Self::Adj, reqs: &[Self::Operands]) -> Result<Self::Assembled, OpError>;

    /// Run one widened launch through `rt`'s kernel cache with every
    /// dense rider operand bound as a segmented view over the request's
    /// own storage and results written in place into `asm` — the
    /// zero-copy batching primitive.
    ///
    /// # Errors
    /// Propagates lowering/compilation/execution errors.
    fn launch(
        rt: &Runtime,
        adj: &Self::Adj,
        reqs: &[Self::Operands],
        asm: &mut Self::Assembled,
        config: &Self::Config,
    ) -> Result<(), OpError>;

    /// Hand the assembled buffers back per request, preserving order.
    /// `reqs` carries the per-request grouping (head counts) that the
    /// flat assembly does not.
    fn outputs(asm: Self::Assembled, reqs: &[Self::Operands]) -> Vec<Self::Output>;

    /// Run a single request without the stacking round-trip (the batch-of-
    /// one fast path — no operand copies).
    ///
    /// # Errors
    /// Propagates lowering/compilation/execution errors.
    fn launch_one(
        rt: &Runtime,
        adj: &Self::Adj,
        req: &Self::Operands,
        config: &Self::Config,
    ) -> Result<Self::Output, OpError>;

    /// Reference executor (the smat semantics oracle) for differential
    /// testing of every batched and unbatched path.
    ///
    /// # Errors
    /// Propagates shape mismatches.
    fn reference(adj: &Self::Adj, req: &Self::Operands) -> Result<Self::Output, OpError>;

    /// Execute a batch of requests as one widened kernel launch (the
    /// serving engine's primitive): validate →
    /// [`assemble`](SparseOp::assemble) → [`launch`](SparseOp::launch) →
    /// [`outputs`](SparseOp::outputs), with a fast path for batches of
    /// one. Results are bit-identical to executing each request alone.
    ///
    /// # Errors
    /// Reports the index of the first invalid request or the first
    /// request violating the [`can_batch`](SparseOp::can_batch) contract;
    /// propagates lowering/compilation/execution errors.
    fn execute_batch_on(
        rt: &Runtime,
        adj: &Self::Adj,
        reqs: &[Self::Operands],
        config: &Self::Config,
    ) -> Result<Vec<Self::Output>, OpError> {
        for (i, req) in reqs.iter().enumerate() {
            Self::validate(adj, req)
                .map_err(|e| format!("batched {} request {i}: {e}", Self::kind()))?;
            if i > 0 && !Self::can_batch(&reqs[0], req) {
                return Err(format!(
                    "batched {} request {i}: cannot share a launch with request 0 \
                     (can_batch contract violated)",
                    Self::kind()
                )
                .into());
            }
        }
        match reqs {
            [] => Ok(Vec::new()),
            [one] => Ok(vec![Self::launch_one(rt, adj, one, config)?]),
            many => {
                let mut asm = Self::assemble(adj, many)?;
                Self::launch(rt, adj, many, &mut asm, config)?;
                Ok(Self::outputs(asm, many))
            }
        }
    }

    /// Execute one request through the op layer.
    ///
    /// # Errors
    /// Like [`execute_batch_on`](SparseOp::execute_batch_on).
    fn execute_on(
        rt: &Runtime,
        adj: &Self::Adj,
        req: &Self::Operands,
        config: &Self::Config,
    ) -> Result<Self::Output, OpError> {
        Self::validate(adj, req).map_err(|e| format!("{} request: {e}", Self::kind()))?;
        Self::launch_one(rt, adj, req, config)
    }
}

/// A tuning decision for *any* [`SparseOp`], as stored in op-agnostic
/// caches ([`TuneCache<OpConfig>`]-shaped maps in the autotuner and the
/// serving engine). The variant always matches the workload kind of the
/// key it is cached under.
///
/// [`TuneCache<OpConfig>`]: SparseOp
#[derive(Debug, Clone, PartialEq)]
pub enum OpConfig {
    /// SpMM format × schedule decision.
    Spmm(SpmmConfig),
    /// SDDMM schedule decision.
    Sddmm(SddmmParams),
    /// Block-sparse attention decision.
    Attention(AttentionOpConfig),
    /// RGMS bucket exponent.
    Rgms(u32),
    /// Cross-op fused attention decision.
    FusedAttention(FusedAttentionConfig),
    /// Cross-op fused GraphSAGE-step decision.
    FusedSage(FusedSageConfig),
}

macro_rules! op_config_conversions {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for OpConfig {
            fn from(c: $ty) -> OpConfig {
                OpConfig::$variant(c)
            }
        }

        impl TryFrom<OpConfig> for $ty {
            type Error = &'static str;

            fn try_from(c: OpConfig) -> Result<$ty, &'static str> {
                match c {
                    OpConfig::$variant(c) => Ok(c),
                    _ => Err(concat!("OpConfig is not the ", stringify!($variant), " variant")),
                }
            }
        }
    };
}

op_config_conversions!(Spmm, SpmmConfig);
op_config_conversions!(Sddmm, SddmmParams);
op_config_conversions!(Attention, AttentionOpConfig);
op_config_conversions!(Rgms, u32);
op_config_conversions!(FusedAttention, FusedAttentionConfig);
op_config_conversions!(FusedSage, FusedSageConfig);

// ---------------------------------------------------------------------------
// SpMM
// ---------------------------------------------------------------------------

/// SpMM (`A · X`) as a [`SparseOp`]: one dense feature operand per
/// request, batched by column stacking.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpmmOp;

impl SparseOp for SpmmOp {
    type Adj = Csr;
    type Operands = Dense;
    type Output = Dense;
    type Config = SpmmConfig;
    type Assembled = Vec<Dense>;

    fn kind() -> &'static str {
        "spmm"
    }

    fn default_config() -> SpmmConfig {
        SpmmConfig::default_csr()
    }

    fn sparsity(adj: &Csr) -> SparsityFingerprint {
        SparsityFingerprint::of(adj)
    }

    fn shape_of(req: &Dense) -> Vec<usize> {
        vec![req.cols()]
    }

    fn validate(adj: &Csr, req: &Dense) -> Result<(), String> {
        if req.rows() != adj.cols() {
            return Err(format!(
                "feature matrix has {} rows, adjacency has {} cols",
                req.rows(),
                adj.cols()
            ));
        }
        Ok(())
    }

    fn plans(adj: &Csr, shape: &[usize], config: &SpmmConfig, name: &str) -> Vec<KernelPlan> {
        let feat = shape.first().copied().unwrap_or(1);
        tuned_spmm_plans(adj, feat, config, name)
    }

    fn can_batch(_lhs: &Dense, _rhs: &Dense) -> bool {
        // Column stacking is width-agnostic: any widths fold together.
        true
    }

    fn assemble(adj: &Csr, reqs: &[Dense]) -> Result<Vec<Dense>, OpError> {
        Ok(reqs.iter().map(|x| Dense::zeros(adj.rows(), x.cols())).collect())
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[Dense],
        asm: &mut Vec<Dense>,
        config: &SpmmConfig,
    ) -> Result<(), OpError> {
        let xs: Vec<&Dense> = reqs.iter().collect();
        spmm_execute_views_on(rt, adj, &xs, asm, config)
    }

    fn outputs(asm: Vec<Dense>, _reqs: &[Dense]) -> Vec<Dense> {
        asm
    }

    fn launch_one(
        rt: &Runtime,
        adj: &Csr,
        req: &Dense,
        config: &SpmmConfig,
    ) -> Result<Dense, OpError> {
        if req.cols() == 0 {
            return Ok(Dense::zeros(adj.rows(), 0));
        }
        // The batch-of-one fast path rides the same single-segment view
        // kernel: the operand binds in place and the result lands
        // directly in the request's output buffer — zero copies end to
        // end.
        let mut outs = vec![Dense::zeros(adj.rows(), req.cols())];
        spmm_execute_views_on(rt, adj, &[req], &mut outs, config)?;
        Ok(outs.pop().expect("one output per request"))
    }

    fn reference(adj: &Csr, req: &Dense) -> Result<Dense, OpError> {
        Ok(adj.spmm(req)?)
    }
}

// ---------------------------------------------------------------------------
// SDDMM
// ---------------------------------------------------------------------------

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
    type Assembled = Vec<Vec<f32>>;

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
        if x.rows() != adj.rows() || y.cols() != adj.cols() || y.rows() != x.cols() {
            return Err(format!(
                "sddmm operands {}x{} · {}x{} incompatible with {}x{} adjacency",
                x.rows(),
                x.cols(),
                y.rows(),
                y.cols(),
                adj.rows(),
                adj.cols()
            ));
        }
        Ok(())
    }

    fn plans(adj: &Csr, shape: &[usize], config: &SddmmParams, name: &str) -> Vec<KernelPlan> {
        let feat = shape.first().copied().unwrap_or(1);
        vec![sddmm_plan(adj, feat, *config, name)]
    }

    fn can_batch(lhs: &(Dense, Dense), rhs: &(Dense, Dense)) -> bool {
        // Block-diagonal stacking needs one rectangular X/Y pair, so only
        // equal inner (reduction) widths share a launch — the reduction
        // order of every stored non-zero must stay exactly the unbatched
        // one for bit-identical results.
        lhs.0.cols() == rhs.0.cols()
    }

    fn assemble(adj: &Csr, reqs: &[(Dense, Dense)]) -> Result<Vec<Vec<f32>>, OpError> {
        Ok(reqs.iter().map(|_| vec![0.0f32; adj.nnz()]).collect())
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[(Dense, Dense)],
        asm: &mut Vec<Vec<f32>>,
        _config: &SddmmParams,
    ) -> Result<(), OpError> {
        sddmm_execute_views_on(rt, adj, reqs, asm)
    }

    fn outputs(asm: Vec<Vec<f32>>, _reqs: &[(Dense, Dense)]) -> Vec<Vec<f32>> {
        asm
    }

    fn launch_one(
        rt: &Runtime,
        adj: &Csr,
        req: &(Dense, Dense),
        _config: &SddmmParams,
    ) -> Result<Vec<f32>, OpError> {
        // Batch-of-one fast path through the view kernel: operands bind
        // in place, the per-non-zero scores land directly in the
        // request's own buffer.
        let mut outs = vec![vec![0.0f32; adj.nnz()]];
        sddmm_execute_views_on(rt, adj, std::slice::from_ref(req), &mut outs)?;
        Ok(outs.pop().expect("one output per request"))
    }

    fn reference(adj: &Csr, (x, y): &(Dense, Dense)) -> Result<Vec<f32>, OpError> {
        Ok(adj.sddmm(x, y)?.values().to_vec())
    }
}

// ---------------------------------------------------------------------------
// Multi-head attention
// ---------------------------------------------------------------------------

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
    type Assembled = Vec<Dense>;

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
        for (h, x) in req.iter().enumerate() {
            if x.rows() != adj.cols() {
                return Err(format!(
                    "head {h} feature matrix has {} rows, adjacency has {} cols",
                    x.rows(),
                    adj.cols()
                ));
            }
        }
        Ok(())
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

    fn assemble(adj: &Csr, reqs: &[Vec<Dense>]) -> Result<Vec<Dense>, OpError> {
        Ok(reqs.iter().flatten().map(|x| Dense::zeros(adj.rows(), x.cols())).collect())
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[Vec<Dense>],
        asm: &mut Vec<Dense>,
        config: &AttentionOpConfig,
    ) -> Result<(), OpError> {
        let xs: Vec<&Dense> = reqs.iter().flatten().collect();
        spmm_execute_views_on(rt, adj, &xs, asm, &config.spmm)
    }

    fn outputs(asm: Vec<Dense>, reqs: &[Vec<Dense>]) -> Vec<Vec<Dense>> {
        let mut heads = asm.into_iter();
        reqs.iter().map(|req| heads.by_ref().take(req.len()).collect()).collect()
    }

    fn launch_one(
        rt: &Runtime,
        adj: &Csr,
        req: &Vec<Dense>,
        config: &AttentionOpConfig,
    ) -> Result<Vec<Dense>, OpError> {
        // A single multi-head request is already a batch over its heads;
        // the heads bind as view segments of one widened launch.
        let mut outs: Vec<Dense> = req.iter().map(|x| Dense::zeros(adj.rows(), x.cols())).collect();
        let xs: Vec<&Dense> = req.iter().collect();
        spmm_execute_views_on(rt, adj, &xs, &mut outs, &config.spmm)?;
        Ok(outs)
    }

    fn reference(adj: &Csr, req: &Vec<Dense>) -> Result<Vec<Dense>, OpError> {
        Ok(batched_spmm(adj, req)?)
    }
}

// ---------------------------------------------------------------------------
// RGMS
// ---------------------------------------------------------------------------

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
    type Assembled = ();

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

    fn assemble(_adj: &RgmsWorkload, _reqs: &[RgmsOperands]) -> Result<(), OpError> {
        Err("rgms requests do not batch".into())
    }

    fn launch(
        _rt: &Runtime,
        _adj: &RgmsWorkload,
        _reqs: &[RgmsOperands],
        _asm: &mut (),
        _config: &u32,
    ) -> Result<(), OpError> {
        Err("rgms requests do not batch".into())
    }

    fn outputs(_asm: (), _reqs: &[RgmsOperands]) -> Vec<Dense> {
        Vec::new()
    }

    fn launch_one(
        _rt: &Runtime,
        adj: &RgmsWorkload,
        req: &RgmsOperands,
        _config: &u32,
    ) -> Result<Dense, OpError> {
        Ok(rgms_reference(&adj.relations, &req.x, &req.weights)?)
    }

    fn reference(adj: &RgmsWorkload, req: &RgmsOperands) -> Result<Dense, OpError> {
        Ok(rgms_reference(&adj.relations, &req.x, &req.weights)?)
    }
}

// ---------------------------------------------------------------------------
// Cross-op fused attention (SDDMM → edge-softmax → SpMM, one kernel)
// ---------------------------------------------------------------------------

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

/// Configuration of the fused attention operator: the score phase's
/// SDDMM schedule plus the aggregation phase's SpMM schedule (the two
/// flop-dominant phases its [`plans`](SparseOp::plans) face prices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedAttentionConfig {
    /// Score-phase (SDDMM) schedule.
    pub sddmm: SddmmParams,
    /// Aggregation-phase (SpMM) schedule.
    pub spmm: SpmmConfig,
}

impl Default for FusedAttentionConfig {
    fn default() -> FusedAttentionConfig {
        FusedAttentionConfig { sddmm: SddmmParams::default(), spmm: SpmmConfig::default_csr() }
    }
}

/// The whole sparse-attention pipeline (score SDDMM → edge-softmax →
/// aggregation SpMM) as **one** [`SparseOp`] served by a single fused
/// kernel launch ([`crate::fused_attention::fused_attention_launch`];
/// the `SPARSETIR_NO_FUSE` kill switch falls back to the bit-identical
/// three-launch pipeline). A request is a list of [`AttnHead`]s sharing
/// one mask; requests batch when their per-head shapes `(k, vfeat)`
/// agree — every head of every folded request rides the same widened
/// launch, inside the same fused non-zero walk (the PR 5 multi-head
/// batching contract), and each `(non-zero, head)` pair keeps exactly
/// its unbatched reduction order, so batching is bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct FusedAttentionOp;

/// Per-head `(k, vfeat)` shape of a request, `None` when it has no heads
/// (0-head requests are compatible with anything — they contribute
/// nothing to a stacked launch).
fn attn_head_shape(req: &[AttnHead]) -> Option<(usize, usize)> {
    req.first().map(|h| (h.q.cols(), h.v.cols()))
}

impl SparseOp for FusedAttentionOp {
    type Adj = Csr;
    type Operands = Vec<AttnHead>;
    type Output = Vec<Dense>;
    type Config = FusedAttentionConfig;
    type Assembled = Vec<Dense>;

    fn kind() -> &'static str {
        "fused_attention"
    }

    fn default_config() -> FusedAttentionConfig {
        FusedAttentionConfig::default()
    }

    fn sparsity(adj: &Csr) -> SparsityFingerprint {
        SparsityFingerprint::of(adj)
    }

    fn shape_of(req: &Vec<AttnHead>) -> Vec<usize> {
        let (k, vfeat) = attn_head_shape(req).unwrap_or((0, 0));
        vec![k, vfeat, req.len()]
    }

    fn validate(adj: &Csr, req: &Vec<AttnHead>) -> Result<(), String> {
        let shape = attn_head_shape(req);
        for (h, head) in req.iter().enumerate() {
            if head.q.rows() != adj.rows()
                || head.kt.rows() != head.q.cols()
                || head.kt.cols() != adj.cols()
                || head.v.rows() != adj.cols()
            {
                return Err(format!(
                    "head {h}: q {}x{}, kt {}x{}, v {}x{} incompatible with {}x{} adjacency",
                    head.q.rows(),
                    head.q.cols(),
                    head.kt.rows(),
                    head.kt.cols(),
                    head.v.rows(),
                    head.v.cols(),
                    adj.rows(),
                    adj.cols()
                ));
            }
            if shape != Some((head.q.cols(), head.v.cols())) {
                return Err(format!(
                    "head {h}: shape ({}, {}) differs from head 0's {:?} — all heads of one \
                     request must share (k, vfeat)",
                    head.q.cols(),
                    head.v.cols(),
                    shape
                ));
            }
        }
        Ok(())
    }

    fn plans(
        adj: &Csr,
        shape: &[usize],
        config: &FusedAttentionConfig,
        _name: &str,
    ) -> Vec<KernelPlan> {
        let k = shape.first().copied().unwrap_or(1).max(1);
        let vfeat = shape.get(1).copied().unwrap_or(1).max(1);
        let heads = shape.get(2).copied().unwrap_or(1).max(1);
        fused_attention_plans(adj, heads, k, vfeat, config.sddmm)
    }

    fn can_batch(lhs: &Vec<AttnHead>, rhs: &Vec<AttnHead>) -> bool {
        // One widened launch needs a single rectangular (k, vfeat); 0-head
        // requests ride along with anything.
        match (attn_head_shape(lhs), attn_head_shape(rhs)) {
            (Some(l), Some(r)) => l == r,
            _ => true,
        }
    }

    fn assemble(adj: &Csr, reqs: &[Vec<AttnHead>]) -> Result<Vec<Dense>, OpError> {
        let heads: Vec<&AttnHead> = reqs.iter().flatten().collect();
        let shapes: Vec<(usize, usize)> = heads.iter().map(|h| (h.q.cols(), h.v.cols())).collect();
        if shapes.windows(2).any(|w| w[0] != w[1]) {
            return Err("fused attention: mixed (k, vfeat) shapes in one stacked launch".into());
        }
        Ok(heads.iter().map(|h| Dense::zeros(adj.rows(), h.v.cols())).collect())
    }

    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[Vec<AttnHead>],
        asm: &mut Vec<Dense>,
        _config: &FusedAttentionConfig,
    ) -> Result<(), OpError> {
        let heads: Vec<&AttnHead> = reqs.iter().flatten().collect();
        if heads.is_empty() {
            return Ok(());
        }
        let qs: Vec<&Dense> = heads.iter().map(|h| &h.q).collect();
        let kts: Vec<&Dense> = heads.iter().map(|h| &h.kt).collect();
        let vs: Vec<&Dense> = heads.iter().map(|h| &h.v).collect();
        fused_attention_views_on(rt, adj, &qs, &kts, &vs, asm)
    }

    fn outputs(asm: Vec<Dense>, reqs: &[Vec<AttnHead>]) -> Vec<Vec<Dense>> {
        let mut heads = asm.into_iter();
        reqs.iter().map(|req| heads.by_ref().take(req.len()).collect()).collect()
    }

    fn launch_one(
        rt: &Runtime,
        adj: &Csr,
        req: &Vec<AttnHead>,
        config: &FusedAttentionConfig,
    ) -> Result<Vec<Dense>, OpError> {
        // A single multi-head request is already a widened launch over
        // its heads — same view assembly, so batched results stay
        // bit-identical (and the batch-of-one fast path stays copy-free).
        let reqs = std::slice::from_ref(req);
        let mut asm = Self::assemble(adj, reqs)?;
        Self::launch(rt, adj, reqs, &mut asm, config)?;
        Ok(Self::outputs(asm, reqs).pop().expect("one output per request"))
    }

    fn reference(adj: &Csr, req: &Vec<AttnHead>) -> Result<Vec<Dense>, OpError> {
        Ok(req.iter().map(|h| fused_attention_reference(adj, &h.q, &h.kt, &h.v, 1)).collect())
    }
}

// ---------------------------------------------------------------------------
// Cross-op fused GraphSAGE step (gather → normalize → matmul, one kernel)
// ---------------------------------------------------------------------------

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
/// ([`crate::fused_sage::fused_sage_launch`]; `SPARSETIR_NO_FUSE` falls
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
    type Assembled = ();

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
        if x.rows() != adj.cols() || w.rows() != x.cols() {
            return Err(format!(
                "sage operands x {}x{}, w {}x{} incompatible with {}x{} adjacency",
                x.rows(),
                x.cols(),
                w.rows(),
                w.cols(),
                adj.rows(),
                adj.cols()
            ));
        }
        Ok(())
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

    fn assemble(_adj: &Csr, _reqs: &[(Dense, Dense)]) -> Result<(), OpError> {
        Err("fused sage requests do not batch".into())
    }

    fn launch(
        _rt: &Runtime,
        _adj: &Csr,
        _reqs: &[(Dense, Dense)],
        _asm: &mut (),
        _config: &FusedSageConfig,
    ) -> Result<(), OpError> {
        Err("fused sage requests do not batch".into())
    }

    fn outputs(_asm: (), _reqs: &[(Dense, Dense)]) -> Vec<Dense> {
        Vec::new()
    }

    fn launch_one(
        rt: &Runtime,
        adj: &Csr,
        (x, w): &(Dense, Dense),
        _config: &FusedSageConfig,
    ) -> Result<Dense, OpError> {
        fused_sage_execute_on(rt, adj, x, w)
    }

    fn reference(adj: &Csr, (x, w): &(Dense, Dense)) -> Result<Dense, OpError> {
        Ok(fused_sage_reference(adj, x, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> Runtime {
        Runtime::new()
    }

    fn bit_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn spmm_op_batch_matches_singles() {
        let mut rng = gen::rng(71);
        let a = gen::random_csr(18, 14, 0.25, &mut rng);
        let xs: Vec<Dense> =
            [3usize, 0, 1, 5].iter().map(|&w| gen::random_dense(14, w, &mut rng)).collect();
        let rt = rt();
        let config = SpmmOp::default_config();
        let batched = SpmmOp::execute_batch_on(&rt, &a, &xs, &config).unwrap();
        for (x, got) in xs.iter().zip(&batched) {
            let want = SpmmOp::execute_on(&rt, &a, x, &config).unwrap();
            assert!(bit_eq(got.data(), want.data()));
            assert!(got.approx_eq(&SpmmOp::reference(&a, x).unwrap(), 1e-4));
        }
    }

    #[test]
    fn sddmm_op_block_diagonal_batch_is_bit_identical() {
        let mut rng = gen::rng(72);
        let a = gen::random_csr(12, 10, 0.3, &mut rng);
        let k = 4;
        let reqs: Vec<(Dense, Dense)> = (0..3)
            .map(|_| (gen::random_dense(12, k, &mut rng), gen::random_dense(k, 10, &mut rng)))
            .collect();
        assert!(SddmmOp::can_batch(&reqs[0], &reqs[1]));
        let rt = rt();
        let config = SddmmOp::default_config();
        let batched = SddmmOp::execute_batch_on(&rt, &a, &reqs, &config).unwrap();
        assert_eq!(batched.len(), reqs.len());
        for (req, got) in reqs.iter().zip(&batched) {
            let want = SddmmOp::execute_on(&rt, &a, req, &config).unwrap();
            assert!(bit_eq(got, &want));
        }
    }

    #[test]
    fn sddmm_op_refuses_mixed_inner_widths() {
        let mut rng = gen::rng(73);
        let a = gen::random_csr(4, 4, 0.5, &mut rng);
        let narrow = (gen::random_dense(4, 2, &mut rng), gen::random_dense(2, 4, &mut rng));
        let wide = (gen::random_dense(4, 3, &mut rng), gen::random_dense(3, 4, &mut rng));
        assert!(!SddmmOp::can_batch(&narrow, &wide));
        // The contract is enforced by the batch path itself, not just
        // advertised: a mixed-width batch is a typed error, never a
        // silently wrong stacked launch.
        let err = SddmmOp::execute_batch_on(&rt(), &a, &[narrow, wide], &SddmmOp::default_config())
            .expect_err("mixed inner widths must be rejected");
        assert!(err.to_string().contains("request 1"), "{err}");
    }

    #[test]
    fn attention_op_stacks_heads_across_requests() {
        let mut rng = gen::rng(74);
        let a = gen::random_csr(16, 16, 0.2, &mut rng);
        let reqs: Vec<Vec<Dense>> = vec![
            (0..3).map(|_| gen::random_dense(16, 4, &mut rng)).collect(),
            vec![],
            (0..2).map(|_| gen::random_dense(16, 2, &mut rng)).collect(),
        ];
        let rt = rt();
        let config = AttentionOp::default_config();
        let batched = AttentionOp::execute_batch_on(&rt, &a, &reqs, &config).unwrap();
        assert_eq!(batched.len(), 3);
        assert_eq!(batched[1].len(), 0);
        for (req, got) in reqs.iter().zip(&batched) {
            let want = AttentionOp::reference(&a, req).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert!(g.approx_eq(w, 1e-4));
            }
            // And bit-identical to the op's own unbatched execution.
            let solo = AttentionOp::execute_on(&rt, &a, req, &config).unwrap();
            for (g, s) in got.iter().zip(&solo) {
                assert!(bit_eq(g.data(), s.data()));
            }
        }
    }

    #[test]
    fn op_validation_reports_request_index() {
        let mut rng = gen::rng(75);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let good = gen::random_dense(8, 2, &mut rng);
        let bad = gen::random_dense(9, 2, &mut rng);
        let err = SpmmOp::execute_batch_on(&rt(), &a, &[good, bad], &SpmmOp::default_config())
            .expect_err("row mismatch must be rejected");
        assert!(err.to_string().contains("request 1"), "{err}");
    }

    #[test]
    fn rgms_op_executes_and_never_batches() {
        use rand::Rng;
        let mut rng = gen::rng(76);
        let relations: Vec<Csr> = (0..2)
            .map(|_| {
                gen::random_csr_with_row_lengths(
                    20,
                    20,
                    |r| {
                        let u: f64 = r.gen_range(0.0..1.0);
                        ((3.0 / (u + 0.05)) as usize).clamp(0, 10)
                    },
                    &mut rng,
                )
            })
            .collect();
        let w = RgmsWorkload { relations, din: 6, dout: 5 };
        let req = RgmsOperands {
            x: gen::random_dense(20, 6, &mut rng),
            weights: (0..2).map(|_| gen::random_dense(6, 5, &mut rng)).collect(),
        };
        assert!(!RgmsOp::can_batch(&req, &req));
        let got = RgmsOp::execute_on(&rt(), &w, &req, &RgmsOp::default_config()).unwrap();
        let want = RgmsOp::reference(&w, &req).unwrap();
        assert!(bit_eq(got.data(), want.data()));
        // The plan face covers both the naive and bucketed variants.
        assert!(!RgmsOp::plans(&w, &[6, 5, 0], &0, "naive").is_empty());
        assert!(!RgmsOp::plans(&w, &[6, 5, 1], &5, "hyb_tc").is_empty());
    }

    fn attn_req(a: &Csr, heads: usize, k: usize, vfeat: usize, seed: u64) -> Vec<AttnHead> {
        let mut rng = gen::rng(seed);
        (0..heads)
            .map(|_| AttnHead {
                q: gen::random_dense(a.rows(), k, &mut rng),
                kt: gen::random_dense(k, a.cols(), &mut rng),
                v: gen::random_dense(a.cols(), vfeat, &mut rng),
            })
            .collect()
    }

    #[test]
    fn fused_attention_op_batch_is_bit_identical_to_singles() {
        let mut rng = gen::rng(81);
        let a = gen::random_csr(14, 12, 0.25, &mut rng);
        // Mixed head counts (including a 0-head request) share one launch;
        // (k, vfeat) agree across all of them.
        let reqs: Vec<Vec<AttnHead>> =
            vec![attn_req(&a, 2, 4, 3, 82), vec![], attn_req(&a, 1, 4, 3, 83)];
        assert!(FusedAttentionOp::can_batch(&reqs[0], &reqs[1]));
        assert!(FusedAttentionOp::can_batch(&reqs[0], &reqs[2]));
        let rt = rt();
        let config = FusedAttentionOp::default_config();
        let batched = FusedAttentionOp::execute_batch_on(&rt, &a, &reqs, &config).unwrap();
        assert_eq!(batched.len(), 3);
        assert_eq!(batched[1].len(), 0);
        for (req, got) in reqs.iter().zip(&batched) {
            let solo = FusedAttentionOp::execute_on(&rt, &a, req, &config).unwrap();
            for (g, s) in got.iter().zip(&solo) {
                assert!(bit_eq(g.data(), s.data()), "batched must be bit-identical to solo");
            }
            // Softmax path: relative-epsilon against the f64 reference.
            let want = FusedAttentionOp::reference(&a, req).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert!(g.approx_eq(w, 1e-4), "max |Δ| = {}", g.max_abs_diff(w));
            }
        }
    }

    #[test]
    fn fused_attention_op_refuses_mixed_head_shapes() {
        let mut rng = gen::rng(84);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let narrow = attn_req(&a, 1, 2, 3, 85);
        let wide = attn_req(&a, 1, 4, 3, 86);
        assert!(!FusedAttentionOp::can_batch(&narrow, &wide));
        let err = FusedAttentionOp::execute_batch_on(
            &rt(),
            &a,
            &[narrow, wide],
            &FusedAttentionOp::default_config(),
        )
        .expect_err("mixed (k, vfeat) must be rejected");
        assert!(err.to_string().contains("request 1"), "{err}");
        // Non-uniform heads inside one request are a validation error.
        let mut bad = attn_req(&a, 1, 2, 3, 87);
        bad.extend(attn_req(&a, 1, 2, 5, 88));
        assert!(FusedAttentionOp::validate(&a, &bad).is_err());
    }

    #[test]
    fn fused_attention_op_has_a_plan_face() {
        let mut rng = gen::rng(89);
        let a = gen::random_csr(16, 16, 0.2, &mut rng);
        let req = attn_req(&a, 2, 4, 4, 90);
        let shape = FusedAttentionOp::shape_of(&req);
        assert_eq!(shape, vec![4, 4, 2]);
        let plans = FusedAttentionOp::plans(&a, &shape, &FusedAttentionOp::default_config(), "fa");
        assert_eq!(plans.len(), 2, "score + aggregation phases");
    }

    #[test]
    fn fused_sage_op_executes_and_never_batches() {
        let mut rng = gen::rng(91);
        let a = gen::random_csr(12, 12, 0.3, &mut rng);
        let req = (gen::random_dense(12, 5, &mut rng), gen::random_dense(5, 4, &mut rng));
        assert!(!FusedSageOp::can_batch(&req, &req));
        let got = FusedSageOp::execute_on(&rt(), &a, &req, &FusedSageOp::default_config()).unwrap();
        let want = FusedSageOp::reference(&a, &req).unwrap();
        assert!(got.approx_eq(&want, 1e-4));
        assert_eq!(FusedSageOp::plans(&a, &[5, 4], &FusedSageOp::default_config(), "fs").len(), 2);
    }
}
