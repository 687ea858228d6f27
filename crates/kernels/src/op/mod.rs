//! The generic sparse-operator layer: every *served* kernel in this
//! crate — SpMM, SDDMM, fused attention, the fused GraphSAGE step —
//! presents one uniform executable face ([`SparseOp`]) so the serving
//! stack above it can be op-agnostic. This is the
//! composability thesis applied to our own plumbing: one prepare →
//! schedule → compile → execute path, many operators, instead of each
//! kernel re-implementing the pipeline. GPU pricing is not part of the
//! face, nor of this crate: the simulator plans are the free `*_plan`
//! builders of `sparsetir-plans`, driven by the typed tuners in
//! `sparsetir-autotune`.
//!
//! A [`SparseOp`] bundles:
//! * an **op descriptor** — kind tag, request operands and a
//!   [`SparseOp::Config`] holding exactly what
//!   [`launch`](SparseOp::launch) reads (`()` for an op whose kernel has
//!   no knob), all served against one CSR adjacency;
//! * a **batching contract** — [`can_batch`](SparseOp::can_batch) plus
//!   one [`launch`](SparseOp::launch), so a serving engine can fold
//!   requests sharing an adjacency fingerprint into one launch **without
//!   copying operands**. Sequential per-request execution is the
//!   bit-identity oracle;
//! * a **reference hook** ([`reference`](SparseOp::reference)) for
//!   differential testing of every execution path against the smat
//!   oracles.
//!
//! A `launch` allocates one zeroed output per rider and hands riders and
//! outputs to the op's single kernel entry point, which binds them in
//! place, as flat slices of the tensors its IR is written against, without
//! copying. One batch shape covers every batched op (SpMM, SDDMM, fused
//! attention): the entry point looks up the one-rider kernel and binds the
//! adjacency once, then runs the kernel once per rider (attention: per
//! head) on that rider's own storage — exactly the launch the rider would
//! make alone, so a rider costs what a solo launch does and its bits are
//! its own. Riders batch when they share the widths the kernel is compiled
//! at. A batch shares the per-launch fixed costs (kernel lookup, structure
//! binding, scratch); the multi-head program with the head axis inside
//! each row's non-zero loop ([`crate::sddmm::batched_sddmm_ir`]) stays a
//! test and oracle builder: its head loop walks no row, and a rider cost
//! 1.6–4× a solo launch there.
//!
//! The `bytes_copied` thread counter (`sparsetir-core`) tallies any
//! dense bytes copied into or out of a whole-tensor binding; every
//! served op leaves it at zero.

use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;

mod fused_attention;
mod fused_sage;
mod sddmm;
mod spmm;
#[cfg(test)]
mod tests;

pub use fused_attention::{AttnHead, FusedAttentionOp};
pub use fused_sage::FusedSageOp;
pub use sddmm::SddmmOp;
pub use spmm::SpmmOp;

/// Error type of the op layer (lowering, compilation and execution
/// failures propagate unchanged from the kernel entry points).
pub type OpError = Box<dyn std::error::Error>;

/// A sparse operator behind the uniform batch/execute face.
///
/// Implementations are zero-sized tag types ([`SpmmOp`], [`SddmmOp`],
/// [`FusedAttentionOp`], [`FusedSageOp`]); all state lives in the CSR
/// adjacency, the per-request [`Operands`](SparseOp::Operands) and the
/// [`Config`](SparseOp::Config).
pub trait SparseOp {
    /// Dense operands of one request.
    type Operands: Send + 'static;
    /// Per-request result.
    type Output: Send + 'static;
    /// What [`launch`](SparseOp::launch) reads besides the operands: the
    /// format decomposition and schedule knobs that change the generated
    /// kernel, `()` when there are none. `Default` is the untuned
    /// configuration.
    type Config: Clone + Default + Send + Sync + PartialEq + std::fmt::Debug + 'static;

    /// Stable kind tag (`"spmm"`, `"sddmm"`, …) — tune-cache key material
    /// and display label.
    fn kind() -> &'static str;

    /// Shape-validate one request against the adjacency.
    ///
    /// # Errors
    /// A human-readable description of the first mismatch.
    fn validate(adj: &Csr, req: &Self::Operands) -> Result<(), String>;

    /// Batching contract: true when two validated requests may share one
    /// launch. Callers must already have matched the adjacency
    /// fingerprints; this only checks request-shape compatibility.
    fn can_batch(lhs: &Self::Operands, rhs: &Self::Operands) -> bool;

    /// Run `reqs` as one launch through `rt`'s kernel cache and
    /// return one output per request, in order — the zero-copy batching
    /// primitive: every dense rider operand binds as a flat slice of the
    /// request's own storage and results are written in place into
    /// per-rider buffers. Callers pass a non-empty batch of
    /// [`validate`](SparseOp::validate)d, pairwise
    /// [`can_batch`](SparseOp::can_batch) requests, so a never-batching
    /// op sees exactly one ([`execute_batch_on`](SparseOp::execute_batch_on)
    /// enforces all of it).
    ///
    /// # Errors
    /// Propagates lowering/compilation/execution errors.
    fn launch(
        rt: &Runtime,
        adj: &Csr,
        reqs: &[Self::Operands],
        config: &Self::Config,
    ) -> Result<Vec<Self::Output>, OpError>;

    /// Reference executor (the smat semantics oracle) for differential
    /// testing of every batched and unbatched path.
    ///
    /// # Errors
    /// Propagates shape mismatches.
    fn reference(adj: &Csr, req: &Self::Operands) -> Result<Self::Output, OpError>;

    /// Execute a batch of requests as one kernel launch (the
    /// serving engine's primitive): validate, check the batching
    /// contract, [`launch`](SparseOp::launch). Results are bit-identical
    /// to executing each request alone.
    ///
    /// # Errors
    /// Reports the index of the first invalid request or the first
    /// request violating the [`can_batch`](SparseOp::can_batch) contract;
    /// propagates lowering/compilation/execution errors.
    fn execute_batch_on(
        rt: &Runtime,
        adj: &Csr,
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
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        Self::launch(rt, adj, reqs, config)
    }

    /// Execute one request through the op layer: a batch of one.
    ///
    /// # Errors
    /// Like [`execute_batch_on`](SparseOp::execute_batch_on).
    fn execute_on(
        rt: &Runtime,
        adj: &Csr,
        req: &Self::Operands,
        config: &Self::Config,
    ) -> Result<Self::Output, OpError> {
        let mut outs = Self::execute_batch_on(rt, adj, std::slice::from_ref(req), config)?;
        Ok(outs.pop().expect("one output per request"))
    }
}
