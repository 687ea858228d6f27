//! Evaluator backends: the GPU simulator (cheap pruning pass) and the
//! *measured* evaluator, which wall-clock-times whole served SpMM launches
//! on a `Runtime` with warmup/repeat control — and, beside it, the rule a
//! served SpMM decision takes over its timings ([`pick_spmm`]).

use crate::engine::Evaluator;
use sparsetir_gpusim::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_kernels::prelude::*;
use sparsetir_plans::prelude::*;
use sparsetir_smat::prelude::*;
use std::borrow::Cow;
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

/// Measured SpMM evaluator: each candidate is timed as the whole launch a
/// serving worker runs — [`spmm_execute_views_on`] on a warm [`Runtime`],
/// so `hyb`'s decomposition and bucket binds count, not just the kernel
/// run — against one dense operand. Trials run serially
/// ([`Evaluator::parallel`] is `false`) so concurrent timings don't
/// perturb each other.
pub struct SpmmMeasuredEvaluator<'a> {
    rt: &'a Runtime,
    matrix: &'a Csr,
    x: Cow<'a, Dense>,
    opts: MeasureOpts,
}

impl<'a> SpmmMeasuredEvaluator<'a> {
    /// Evaluator for `matrix · X` at feature width `feat` on `rt`; the
    /// dense operand is seeded deterministically from the matrix structure.
    #[must_use]
    pub fn new(
        rt: &'a Runtime,
        matrix: &'a Csr,
        feat: usize,
        opts: MeasureOpts,
    ) -> SpmmMeasuredEvaluator<'a> {
        let mut rng = gen::rng(0x7E57 ^ matrix.nnz() as u64);
        let x = Cow::Owned(gen::random_dense(matrix.cols(), feat, &mut rng));
        SpmmMeasuredEvaluator { rt, matrix, x, opts }
    }

    /// Evaluator for `matrix · x` on `rt`, timed on the caller's operand.
    #[must_use]
    pub fn with_operand(
        rt: &'a Runtime,
        matrix: &'a Csr,
        x: &'a Dense,
        opts: MeasureOpts,
    ) -> SpmmMeasuredEvaluator<'a> {
        SpmmMeasuredEvaluator { rt, matrix, x: Cow::Borrowed(x), opts }
    }

    /// Measure one configuration: [`SpmmMeasuredEvaluator::scores`] of it
    /// alone. `None` when a launch fails.
    #[must_use]
    pub fn measure(&self, config: &SpmmConfig) -> Option<f64> {
        self.scores(std::slice::from_ref(config))[0]
    }

    /// Score each of `configs`: `warmup` untimed launches of each (the
    /// first compiles, or finds the kernel in the runtime's cache), then
    /// `repeat` rounds that launch each once, keeping each one's minimum
    /// in seconds. A round takes the configs in turn, so a change of the
    /// machine's clock state lands on all of them alike. `None` for a
    /// config whose launch failed; it is not launched again.
    #[must_use]
    pub fn scores(&self, configs: &[SpmmConfig]) -> Vec<Option<f64>> {
        let xs = [self.x.as_ref()];
        let mut outs = [Dense::zeros(self.matrix.rows(), self.x.cols())];
        let mut launch = |config: &SpmmConfig| {
            let t0 = Instant::now();
            spmm_execute_views_on(self.rt, self.matrix, &xs, &mut outs, config).ok()?;
            Some(t0.elapsed().as_secs_f64())
        };
        let mut best: Vec<Option<f64>> = configs
            .iter()
            .map(|c| (0..self.opts.warmup).try_for_each(|_| launch(c).map(drop)))
            .map(|warm| warm.map(|()| f64::INFINITY))
            .collect();
        for _ in 0..self.opts.repeat.max(1) {
            for (config, best) in configs.iter().zip(&mut best) {
                *best = best.and_then(|b| launch(config).map(|t| b.min(t)));
            }
        }
        best
    }

    /// The served decision: the [`spmm_shortlist`] scored together, and
    /// [`pick_spmm`] over the scores.
    #[must_use]
    pub fn decide(&self) -> SpmmConfig {
        let shortlist = spmm_shortlist();
        let scores = self.scores(&shortlist);
        let timed: Vec<(SpmmConfig, Option<f64>)> = shortlist.into_iter().zip(scores).collect();
        pick_spmm(&timed)
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

/// How much faster than the incumbent CSR launch a challenger must be to
/// be served instead: more than this fraction of CSR's score. Measured
/// with `launch_probe`'s tune table (x86-64, 2 cores, pinned to one CPU,
/// four runs): two CSR scores taken in the same rounds read 2–13 % apart
/// in seven of eight pairs, and 73 % apart once, when the clock state
/// changed inside the first round; the `hyb` arms score 2.5–5× CSR on the
/// tenant and `serve_shared_dynamic` graphs. So the margin keeps near-ties
/// on CSR and is far from every gap the shortlist shows there; it cannot
/// tell a real gain of a few percent from noise.
pub const CHALLENGER_MARGIN: f64 = 0.10;

/// The configurations a served SpMM decision chooses among, the
/// incumbent first: the untuned CSR launch, and the two `hyb(c, k)`
/// decompositions the V100 model picks on `stbench`'s two serving graphs.
#[must_use]
pub fn spmm_shortlist() -> [SpmmConfig; 3] {
    let hyb = |c| SpmmConfig { col_parts: Some(c), bucket_k: 3, ..SpmmConfig::default_csr() };
    [SpmmConfig::default_csr(), hyb(1), hyb(2)]
}

/// The decision rule over measured `(config, seconds)` pairs, `None` for a
/// launch that failed. The incumbent is [`SpmmConfig::default_csr`]; the
/// fastest challenger replaces it only when it beats the incumbent's time
/// by more than [`CHALLENGER_MARGIN`]. Equal challengers go to the earlier
/// one, a failed candidate is never picked, and when every candidate
/// failed the answer is the incumbent.
#[must_use]
pub fn pick_spmm(timed: &[(SpmmConfig, Option<f64>)]) -> SpmmConfig {
    let incumbent = SpmmConfig::default_csr();
    let seconds_of = |want: &SpmmConfig| timed.iter().find(|(c, _)| c == want).and_then(|t| t.1);
    let bar = seconds_of(&incumbent).map_or(f64::INFINITY, |t| t * (1.0 - CHALLENGER_MARGIN));
    timed
        .iter()
        .filter_map(|&(c, t)| Some((c, t?)))
        .filter(|&(c, t)| c != incumbent && t < bar)
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .map_or(incumbent, |(c, _)| c)
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
