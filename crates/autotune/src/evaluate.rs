//! Simulator-backed evaluators: each prices a candidate on the GPU
//! model through `sparsetir-plans`' `*_plan` functions.

use crate::engine::Evaluator;
use sparsetir_gpusim::prelude::*;
use sparsetir_kernels::prelude::*;
use sparsetir_plans::prelude::*;
use sparsetir_smat::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Memoized `(c, k) → hyb decomposition` table (`None` = infeasible).
type HybMemo = HashMap<(usize, u32), Option<Arc<Hyb>>>;

/// Simulator-backed SpMM evaluator. Decompositions are memoized per
/// `(c, k)` so the four schedule candidates of each format arm share one
/// `Hyb::from_csr` (the hyb-decomposition hot path every trial pays).
pub struct SpmmSimEvaluator<'a> {
    spec: &'a GpuSpec,
    matrix: &'a Csr,
    feat: usize,
    hybs: Mutex<HybMemo>,
}

impl<'a> SpmmSimEvaluator<'a> {
    /// Evaluator for `matrix · X` at feature width `feat` on `spec`.
    #[must_use]
    pub fn new(spec: &'a GpuSpec, matrix: &'a Csr, feat: usize) -> SpmmSimEvaluator<'a> {
        SpmmSimEvaluator { spec, matrix, feat, hybs: Mutex::new(HybMemo::new()) }
    }

    fn hyb(&self, c: usize, k: u32) -> Option<Arc<Hyb>> {
        if let Some(h) = self.hybs.lock().unwrap().get(&(c, k)) {
            return h.clone();
        }
        // Decompose outside the lock so distinct (c, k) arms build
        // concurrently; a racing duplicate is cheaper than serializing
        // every hyb trial on one mutex.
        let h = Hyb::from_csr(self.matrix, c, k).ok().map(Arc::new);
        self.hybs.lock().unwrap().entry((c, k)).or_insert(h).clone()
    }
}

impl Evaluator<SpmmConfig> for SpmmSimEvaluator<'_> {
    fn evaluate(&self, config: &SpmmConfig) -> Option<f64> {
        match config.col_parts {
            None => Some(
                simulate_kernel(
                    self.spec,
                    &csr_spmm_plan(self.matrix, self.feat, config.params, "tune_csr"),
                )
                .time_ms,
            ),
            Some(c) => {
                let hyb = self.hyb(c, config.bucket_k)?;
                Some(hyb_spmm_time(self.spec, &hyb, self.feat, config.params).time_ms)
            }
        }
    }
}

/// Simulator-backed SDDMM evaluator.
pub struct SddmmSimEvaluator<'a> {
    /// Target device.
    pub spec: &'a GpuSpec,
    /// Sparsity pattern.
    pub matrix: &'a Csr,
    /// Feature width.
    pub feat: usize,
}

impl Evaluator<SddmmParams> for SddmmSimEvaluator<'_> {
    fn evaluate(&self, params: &SddmmParams) -> Option<f64> {
        Some(
            simulate_kernel(
                self.spec,
                &sddmm_plan(self.matrix, self.feat, *params, "sparsetir_sddmm"),
            )
            .time_ms,
        )
    }
}

/// Simulator-backed block-sparse attention evaluator over BSR block sizes.
pub struct AttentionSimEvaluator<'a> {
    /// Target device.
    pub spec: &'a GpuSpec,
    /// Attention mask.
    pub mask: &'a Csr,
    /// Feature width per head.
    pub feat: usize,
    /// Number of heads.
    pub heads: usize,
}

impl AttentionSimEvaluator<'_> {
    /// Simulated report of the tensor-core BSR kernel at `block`; `None`
    /// when the mask does not digitize at that granularity.
    #[must_use]
    pub fn report(&self, block: usize) -> Option<KernelReport> {
        let bsr = Bsr::from_csr(self.mask, block).ok()?;
        let plan = batched_bsr_spmm_plan(
            &bsr,
            self.feat,
            self.heads,
            SPARSETIR_BSR_EFFICIENCY,
            "tune_attn",
        );
        Some(simulate_kernel(self.spec, &plan))
    }
}

impl Evaluator<usize> for AttentionSimEvaluator<'_> {
    fn evaluate(&self, block: &usize) -> Option<f64> {
        self.report(*block).map(|r| r.time_ms)
    }
}
