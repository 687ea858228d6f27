//! End-to-end RGCN inference (§4.4.1, Figure 20): one relational graph
//! convolution layer at feature size 32, with every execution strategy of
//! the figure — PyG / DGL / Graphiler two-stage pipelines and the
//! SparseTIR naive / hyb / hyb+TC fused kernels — plus GPU memory
//! footprints.

use sparsetir_autotune::{tune, tune_cached, Evaluator, ListSpace, TuneCache, TuneKey, TuneResult};
use sparsetir_gpusim::prelude::*;
use sparsetir_plans::prelude::{rgcn as baseline_rgcn, *};
use sparsetir_smat::prelude::*;
use std::sync::OnceLock;

/// An RGCN layer instance: relational structure plus per-relation weights.
#[derive(Debug, Clone)]
pub struct RgcnLayer {
    /// The RGMS workload (relations, feature dims).
    pub workload: RgmsWorkload,
    /// Per-relation weight matrices (`din × dout`).
    pub weights: Vec<Dense>,
}

impl RgcnLayer {
    /// Build a layer with random weights (feature size 32 as in §4.4.1).
    #[must_use]
    pub fn new(relations: Vec<Csr>, feat: usize, seed: u64) -> RgcnLayer {
        let mut rng = gen::rng(seed);
        let weights = (0..relations.len())
            .map(|_| gen::random_dense(feat, feat, &mut rng).scale(0.1))
            .collect();
        RgcnLayer { workload: RgmsWorkload { relations, din: feat, dout: feat }, weights }
    }

    /// Functional inference: `Y = relu(Σ_r A_r · X · W_r)`.
    ///
    /// # Errors
    /// Propagates shape mismatches.
    pub fn infer(&self, x: &Dense) -> Result<Dense, SmatError> {
        Ok(rgms_reference(&self.workload.relations, x, &self.weights)?.relu())
    }
}

/// One Figure 20 measurement: inference time and memory footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct RgcnMeasurement {
    /// System label as in the figure.
    pub system: &'static str,
    /// Simulated inference time in milliseconds.
    pub time_ms: f64,
    /// GPU memory footprint in bytes.
    pub footprint_bytes: u64,
}

/// Run every Figure 20 system on one heterograph workload.
#[must_use]
pub fn figure20_measurements(spec: &GpuSpec, layer: &RgcnLayer) -> Vec<RgcnMeasurement> {
    let w = &layer.workload;
    let two_stage_fp = two_stage_footprint_bytes(w);
    vec![
        RgcnMeasurement {
            system: "PyG",
            time_ms: baseline_rgcn::total_time_ms(spec, &baseline_rgcn::pyg_plans(w)),
            footprint_bytes: two_stage_fp,
        },
        RgcnMeasurement {
            system: "DGL",
            time_ms: baseline_rgcn::total_time_ms(spec, &baseline_rgcn::dgl_plans(w)),
            footprint_bytes: two_stage_fp,
        },
        RgcnMeasurement {
            system: "Graphiler",
            time_ms: baseline_rgcn::total_time_ms(spec, &baseline_rgcn::graphiler_plans(w)),
            footprint_bytes: two_stage_fp,
        },
        RgcnMeasurement {
            system: "SparseTIR(naive)",
            time_ms: simulate_kernel(spec, &rgms_naive_plan(w, "stir_naive")).time_ms,
            footprint_bytes: fused_footprint_bytes(w, false),
        },
        RgcnMeasurement {
            system: "SparseTIR(hyb)",
            time_ms: simulate_kernel(spec, &rgms_hyb_plan(w, 5, false, "stir_hyb")).time_ms,
            footprint_bytes: fused_footprint_bytes(w, false),
        },
        RgcnMeasurement {
            system: "SparseTIR(hyb+TC)",
            time_ms: simulate_kernel(spec, &rgms_hyb_plan(w, 5, true, "stir_hyb_tc")).time_ms,
            footprint_bytes: fused_footprint_bytes(w, true),
        },
        RgcnMeasurement {
            system: "SparseTIR(tuned)",
            time_ms: tuned_rgms(spec, layer, true).1,
            footprint_bytes: fused_footprint_bytes(w, true),
        },
    ]
}

/// Simulator scoring of one 3-D hyb bucket exponent `k`.
struct RgmsSimEvaluator<'a> {
    spec: &'a GpuSpec,
    workload: &'a RgmsWorkload,
    tensor_cores: bool,
}

impl RgmsSimEvaluator<'_> {
    fn report(&self, k: u32) -> KernelReport {
        simulate_kernel(
            self.spec,
            &rgms_hyb_plan(self.workload, k, self.tensor_cores, "stir_tuned"),
        )
    }
}

impl Evaluator<u32> for RgmsSimEvaluator<'_> {
    fn evaluate(&self, k: &u32) -> Option<f64> {
        Some(self.report(*k).time_ms)
    }
}

/// Search the 3-D hyb bucket exponent `k` (the fixed `k = 5` of the
/// figure is one candidate) and return `(k, simulated_ms)` of the winner.
/// RGCN picks its operator through the same search engine and
/// fingerprint-keyed cache as SpMM, SDDMM and attention — a retune of the
/// same relational structure is a cache hit.
#[must_use]
pub fn tuned_rgms(spec: &GpuSpec, layer: &RgcnLayer, tensor_cores: bool) -> (u32, f64) {
    static CACHE: OnceLock<TuneCache<TuneResult<u32>>> = OnceLock::new();
    let w = &layer.workload;
    let key = TuneKey {
        workload: "rgms",
        backend: "gpusim",
        device: spec.device_id(),
        extra: vec![w.din, w.dout, usize::from(tensor_cores)],
        fingerprint: SparsityFingerprint::of_relations(&w.relations),
    };
    let evaluator = RgmsSimEvaluator { spec, workload: w, tensor_cores };
    let r = tune_cached(
        CACHE.get_or_init(TuneCache::new),
        key,
        || tune(&ListSpace(vec![2u32, 3, 4, 5, 6]), &evaluator),
        |k| evaluator.report(*k),
    );
    (r.config, r.report.time_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn hetero_relations(n: usize, rels: usize, seed: u64) -> Vec<Csr> {
        let mut rng = gen::rng(seed);
        (0..rels)
            .map(|r| {
                let participation = if r % 4 == 0 { 0.2 } else { 0.04 };
                gen::random_csr_with_row_lengths(
                    n,
                    n,
                    move |rr| {
                        if rr.gen_bool(participation) {
                            let u: f64 = rr.gen_range(0.0..1.0);
                            ((6.0 / (u + 0.1)) as usize).clamp(1, 48)
                        } else {
                            0
                        }
                    },
                    &mut rng,
                )
            })
            .collect()
    }

    #[test]
    fn inference_matches_reference() {
        let layer = RgcnLayer::new(hetero_relations(30, 4, 1), 8, 2);
        let mut rng = gen::rng(3);
        let x = gen::random_dense(30, 8, &mut rng);
        let y = layer.infer(&x).unwrap();
        let manual = rgms_reference(&layer.workload.relations, &x, &layer.weights).unwrap().relu();
        assert!(y.approx_eq(&manual, 1e-4));
    }

    #[test]
    fn tuned_rgms_no_slower_than_fixed_k() {
        let layer = RgcnLayer::new(hetero_relations(600, 24, 7), 32, 8);
        let spec = GpuSpec::v100();
        let (k, t) = tuned_rgms(&spec, &layer, true);
        assert!((2..=6).contains(&k));
        // The figure's fixed k = 5 is one of the candidates, so the tuned
        // pick can never be slower.
        let fixed = simulate_kernel(&spec, &rgms_hyb_plan(&layer.workload, 5, true, "fx")).time_ms;
        assert!(t <= fixed, "tuned {t} vs fixed {fixed}");
    }

    #[test]
    fn figure20_shape_holds() {
        let layer = RgcnLayer::new(hetero_relations(600, 24, 5), 32, 6);
        let spec = GpuSpec::v100();
        let ms = figure20_measurements(&spec, &layer);
        let get = |s: &str| ms.iter().find(|m| m.system == s).unwrap();
        let graphiler = get("Graphiler");
        let tc = get("SparseTIR(hyb+TC)");
        let hyb = get("SparseTIR(hyb)");
        let naive = get("SparseTIR(naive)");
        // Headline: hyb+TC beats Graphiler by a large factor.
        assert!(
            tc.time_ms * 2.0 < graphiler.time_ms,
            "tc {} vs graphiler {}",
            tc.time_ms,
            graphiler.time_ms
        );
        // Ablation ordering: naive > hyb > hyb+TC.
        assert!(naive.time_ms > hyb.time_ms);
        assert!(hyb.time_ms > tc.time_ms);
        // Memory: fused ≪ two-stage; TC variant costs a bit more than hyb.
        assert!(tc.footprint_bytes < graphiler.footprint_bytes);
        assert!(tc.footprint_bytes > hyb.footprint_bytes);
    }
}
