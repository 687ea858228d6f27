//! Evaluator backends: the GPU simulator (cheap pruning pass) and the
//! *measured* evaluator, which lowers each candidate, compiles it through
//! the slot-compiled `ir::exec::Runtime`, and wall-clock-times real
//! executions with warmup/repeat control.

use crate::engine::Evaluator;
use sparsetir_gpusim::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_kernels::prelude::*;
use sparsetir_plans::prelude::*;
use sparsetir_smat::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

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

/// Wall-clock controls of the measured evaluator.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOpts {
    /// Untimed warmup executions per candidate.
    pub warmup: usize,
    /// Timed repetitions; the minimum is kept.
    pub repeat: usize,
    /// Candidates surviving the simulator pruning pass into measurement.
    pub shortlist: usize,
}

impl Default for MeasureOpts {
    fn default() -> MeasureOpts {
        MeasureOpts { warmup: 1, repeat: 3, shortlist: 4 }
    }
}

/// Measured SpMM evaluator: each candidate is lowered (CSR schedule or hyb
/// decomposition), compiled once through the global [`Runtime`] kernel
/// cache, then executed for real against a deterministic dense operand.
/// Trials run serially ([`Evaluator::parallel`] is `false`) so concurrent
/// timings don't perturb each other.
pub struct SpmmMeasuredEvaluator<'a> {
    matrix: &'a Csr,
    x: Dense,
    opts: MeasureOpts,
}

impl<'a> SpmmMeasuredEvaluator<'a> {
    /// Evaluator for `matrix · X` at feature width `feat`; the dense
    /// operand is seeded deterministically from the matrix structure.
    #[must_use]
    pub fn new(matrix: &'a Csr, feat: usize, opts: MeasureOpts) -> SpmmMeasuredEvaluator<'a> {
        let mut rng = gen::rng(0x7E57 ^ matrix.nnz() as u64);
        let x = gen::random_dense(matrix.cols(), feat, &mut rng);
        SpmmMeasuredEvaluator { matrix, x, opts }
    }

    /// Measure one configuration: compile (or reuse from the kernel
    /// cache), warm up, then keep the minimum of `repeat` timed runs in
    /// seconds. `None` when the candidate fails to lower or execute.
    #[must_use]
    pub fn measure(&self, config: &SpmmConfig) -> Option<f64> {
        let mut prepared = prepare_spmm(self.matrix, &self.x, config).ok()?;
        let kernel = Runtime::global().compile(&prepared.func).ok()?;
        let scalars = HashMap::new();
        for _ in 0..self.opts.warmup {
            prepared.reset_output();
            kernel.run(&scalars, &mut prepared.bindings).ok()?;
        }
        let mut best = f64::INFINITY;
        for _ in 0..self.opts.repeat.max(1) {
            prepared.reset_output();
            let t0 = Instant::now();
            kernel.run(&scalars, &mut prepared.bindings).ok()?;
            best = best.min(t0.elapsed().as_secs_f64());
        }
        Some(best)
    }
}

impl Evaluator<SpmmConfig> for SpmmMeasuredEvaluator<'_> {
    fn evaluate(&self, config: &SpmmConfig) -> Option<f64> {
        self.measure(config)
    }

    fn parallel(&self) -> bool {
        false
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
