//! GNN framework baselines (Figures 15 and 20): DGL, PyG and Graphiler,
//! modelled by their documented execution strategies over the shared
//! simulator.

use crate::rgms::{rgms_two_stage_plans, RgmsWorkload};
use crate::spmm::csr_spmm_plan;
use sparsetir_gpusim::prelude::*;
use sparsetir_kernels::prelude::CsrSpmmParams;
use sparsetir_smat::prelude::*;

/// DGL's SpMM backend for homogeneous graphs: a GE-SpMM-class kernel but
/// without SparseTIR's per-graph tuning (fixed row grouping, narrower
/// vectorization) — the Figure 15 end-to-end baseline.
#[must_use]
pub fn dgl_spmm_plan(a: &Csr, feat: usize) -> KernelPlan {
    let params =
        CsrSpmmParams { rows_per_block: 8, vec_width: 2, register_cache: true, threads: 128 };
    csr_spmm_plan(a, feat, params, "dgl_spmm")
}

/// RGCN inference strategies (Figure 20). All two-stage baselines
/// materialize `T[r] = X · W_r` for every relation (eqs. 9–10).
pub mod rgcn {
    use super::*;

    /// PyG: per-relation Python-dispatched kernels, COO scatter with
    /// atomic writes and no horizontal batching.
    #[must_use]
    pub fn pyg_plans(w: &RgmsWorkload) -> Vec<KernelPlan> {
        rgms_two_stage_plans(w, 0.70, false, "pyg")
    }

    /// DGL: per-relation two-stage with cuBLAS-grade GEMMs and a tuned
    /// scatter, still materializing `T`.
    #[must_use]
    pub fn dgl_plans(w: &RgmsWorkload) -> Vec<KernelPlan> {
        rgms_two_stage_plans(w, 0.85, true, "dgl")
    }

    /// Graphiler: compiles message passing into batched kernels — the
    /// GEMM stage is batched into one launch and the scatter fused, but
    /// `T` is still materialized (the Figure 20 baseline, =1.0).
    #[must_use]
    pub fn graphiler_plans(w: &RgmsWorkload) -> Vec<KernelPlan> {
        let per_relation = rgms_two_stage_plans(w, 0.88, true, "graphiler");
        // Batch: merge all GEMMs into one launch and all scatters into one.
        let r = w.relations.len();
        let mut gemm = KernelPlan::new("graphiler_batched_gemm");
        for p in &per_relation[..r] {
            gemm.fuse(p);
        }
        let mut scatter = KernelPlan::new("graphiler_fused_scatter");
        for p in &per_relation[r..] {
            scatter.fuse(p);
        }
        vec![gemm, scatter]
    }

    /// Simulated end-to-end time (ms) of a plan sequence.
    #[must_use]
    pub fn total_time_ms(spec: &GpuSpec, plans: &[KernelPlan]) -> f64 {
        simulate_sequence(spec, plans).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgms::rgms_hyb_plan;
    use crate::spmm::hyb_spmm_time;
    use rand::Rng;
    use sparsetir_smat::gen;

    /// Heterograph-like workload: many relations, each touching only a
    /// small subset of nodes (E ≪ R·n — the regime where two-stage RGMS
    /// wastes `T_r = X·W_r` work on nodes the relation never reads).
    fn workload(seed: u64, n: usize, rels: usize) -> RgmsWorkload {
        let mut rng = gen::rng(seed);
        let relations: Vec<Csr> = (0..rels)
            .map(|r| {
                let participation = if r % 5 == 0 { 0.15 } else { 0.03 };
                gen::random_csr_with_row_lengths(
                    n,
                    n,
                    move |rr| {
                        if rr.gen_bool(participation) {
                            let u: f64 = rr.gen_range(0.0..1.0);
                            ((8.0 / (u + 0.1)) as usize).clamp(1, 64)
                        } else {
                            0
                        }
                    },
                    &mut rng,
                )
            })
            .collect();
        RgmsWorkload { relations, din: 32, dout: 32 }
    }

    #[test]
    fn figure20_ordering_graphiler_beats_dgl_beats_pyg_on_launches() {
        let w = workload(91, 500, 16);
        let spec = GpuSpec::v100();
        let pyg = rgcn::total_time_ms(&spec, &rgcn::pyg_plans(&w));
        let dgl = rgcn::total_time_ms(&spec, &rgcn::dgl_plans(&w));
        let graphiler = rgcn::total_time_ms(&spec, &rgcn::graphiler_plans(&w));
        assert!(dgl < pyg, "dgl {dgl} vs pyg {pyg}");
        assert!(graphiler < dgl, "graphiler {graphiler} vs dgl {dgl}");
    }

    #[test]
    fn sparsetir_hyb_tc_beats_graphiler() {
        // The headline Figure 20 result (4.2–40×).
        let w = workload(93, 500, 16);
        let spec = GpuSpec::v100();
        let graphiler = rgcn::total_time_ms(&spec, &rgcn::graphiler_plans(&w));
        let fused = simulate_kernel(&spec, &rgms_hyb_plan(&w, 5, true, "stir_tc")).time_ms;
        assert!(fused * 2.0 < graphiler, "fused {fused} vs graphiler {graphiler}");
    }

    #[test]
    fn dgl_spmm_is_weaker_than_tuned_sparsetir() {
        let mut rng = gen::rng(95);
        let a = gen::random_csr_with_row_lengths(
            2000,
            2000,
            |r| {
                let u: f64 = r.gen_range(0.0..1.0);
                ((1.0 / (u + 0.005)) as usize).clamp(1, 800)
            },
            &mut rng,
        );
        let spec = GpuSpec::v100();
        let dgl = simulate_kernel(&spec, &dgl_spmm_plan(&a, 64)).time_ms;
        let h = Hyb::with_default_k(&a, 2).unwrap();
        let stir = hyb_spmm_time(&spec, &h, 64, CsrSpmmParams::default()).time_ms;
        assert!(stir < dgl, "sparsetir {stir} vs dgl {dgl}");
    }
}
