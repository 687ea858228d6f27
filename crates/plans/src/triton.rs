//! Triton block-sparse baselines (§4.3, Figures 16–17): tile-level kernels
//! on tensor cores with a fixed 64×64 tile configuration and generic (less
//! workload-tuned) schedules.

use crate::attention::{batched_bsr_sddmm_plan, batched_bsr_spmm_plan};
use crate::prune::bsr_weight_spmm_plan;
use sparsetir_gpusim::prelude::*;
use sparsetir_smat::prelude::*;

/// Triton's tensor-core efficiency on its block-sparse templates: solid,
/// but below SparseTIR's per-structure tuned schedules (the source of the
/// 1.05–1.6× SpMM gap of Figure 16).
pub const TRITON_EFFICIENCY: f64 = 0.62;

/// Triton's fixed tile edge for block-sparse operators.
pub const TRITON_TILE: usize = 64;

/// Triton batched block-sparse SpMM: the mask is re-blocked at the 64×64
/// granularity (possibly padding finer structure), then dispatched through
/// the generic tile template.
#[must_use]
pub fn triton_blocksparse_spmm_plan(mask: &Csr, feat: usize, heads: usize) -> KernelPlan {
    let bsr = Bsr::from_csr(mask, TRITON_TILE).expect("positive tile");
    batched_bsr_spmm_plan(&bsr, feat, heads, TRITON_EFFICIENCY, "triton_blocksparse_spmm")
}

/// Triton batched block-sparse SDDMM.
#[must_use]
pub fn triton_blocksparse_sddmm_plan(mask: &Csr, feat: usize, heads: usize) -> KernelPlan {
    let bsr = Bsr::from_csr(mask, TRITON_TILE).expect("positive tile");
    batched_bsr_sddmm_plan(&bsr, feat, heads, TRITON_EFFICIENCY * 0.8, "triton_blocksparse_sddmm")
}

/// Triton BSRMM for block-pruned weights (Figure 17): the weight's own
/// block size is respected, but the generic template neither skips empty
/// block rows nor reaches SparseTIR's tuned efficiency.
#[must_use]
pub fn triton_bsrmm_plan(w: &Bsr, feat: usize) -> KernelPlan {
    let mut plan = bsr_weight_spmm_plan(w, feat, TRITON_EFFICIENCY, "triton_bsrmm");
    plan.name = "triton_bsrmm".to_string();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::SPARSETIR_BSR_EFFICIENCY;
    use sparsetir_smat::gen;

    fn band_mask(n: usize, band: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            let lo = i.saturating_sub(band / 2);
            let hi = (i + band / 2).min(n - 1);
            for j in lo..=hi {
                coo.push(i as u32, j as u32, 1.0);
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn sparsetir_bsr_beats_triton_on_band_masks() {
        // Figure 16: SparseTIR-BSR 1.05–1.6× over Triton on SpMM.
        let mask = band_mask(2048, 256);
        let spec = GpuSpec::v100();
        let heads = 8;
        let feat = 64;
        let triton = simulate_kernel(&spec, &triton_blocksparse_spmm_plan(&mask, feat, heads));
        let stir_bsr = Bsr::from_csr(&mask, 32).unwrap();
        let stir = simulate_kernel(
            &spec,
            &batched_bsr_spmm_plan(&stir_bsr, feat, heads, SPARSETIR_BSR_EFFICIENCY, "stir"),
        );
        let speedup = triton.time_ms / stir.time_ms;
        assert!(
            (1.02..4.0).contains(&speedup),
            "speedup {speedup} (stir {} vs triton {})",
            stir.time_ms,
            triton.time_ms
        );
    }

    #[test]
    fn triton_pads_fine_structure_to_its_tile() {
        let mut rng = gen::rng(81);
        // Butterfly-like scattered 32-blocks fragment Triton's 64-tiles.
        let w = gen::random_block_sparse(1024, 1024, 32, 0.05, 0.0, &mut rng);
        let triton_view = Bsr::from_csr(&w, TRITON_TILE).unwrap();
        let native_view = Bsr::from_csr(&w, 32).unwrap();
        assert!(triton_view.stored() > native_view.stored());
    }
}
