//! cuBLAS-like dense GEMM baseline (Figures 17, 19): the dense execution
//! of a pruned weight matrix, and the dense matmul building block used by
//! the two-stage RGMS baselines.

use crate::common::{gemm_plan, F16, F32};
use crate::spmm::csr_spmm_plan;
use sparsetir_gpusim::prelude::*;
use sparsetir_kernels::prelude::CsrSpmmParams;

/// cuBLAS efficiency on large fp16 tensor-core GEMMs.
pub const CUBLAS_TC_EFFICIENCY: f64 = 0.90;

/// cuBLAS efficiency on fp32 CUDA-core GEMMs.
pub const CUBLAS_F32_EFFICIENCY: f64 = 0.85;

/// Dense fp16 GEMM `m×k · k×n` on tensor cores (the cuBLAS bar that
/// pruned-weight kernels are normalized against).
#[must_use]
pub fn cublas_gemm_fp16_plan(m: usize, n: usize, k: usize) -> KernelPlan {
    gemm_plan("cublas_hgemm", m, n, k, F16, true, CUBLAS_TC_EFFICIENCY)
}

/// Dense fp32 GEMM on CUDA cores.
#[must_use]
pub fn cublas_gemm_fp32_plan(m: usize, n: usize, k: usize) -> KernelPlan {
    gemm_plan("cublas_sgemm", m, n, k, F32, false, CUBLAS_F32_EFFICIENCY)
}

/// cuSPARSE CSRMM in fp16 for unstructured weights (Figure 19): scalar
/// row-split kernel — only competitive against dense at extreme sparsity.
#[must_use]
pub fn cusparse_csrmm_fp16_plan(w: &sparsetir_smat::csr::Csr, feat: usize) -> KernelPlan {
    let params =
        CsrSpmmParams { rows_per_block: 2, vec_width: 1, register_cache: false, threads: 128 };
    let mut plan = csr_spmm_plan(w, feat, params, "cusparse_csrmm_fp16");
    for b in &mut plan.blocks {
        b.mlp_penalty = 1.5; // scalar fp16 gathers
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::{dbsr_weight_spmm_plan, PRUNE_TC_EFFICIENCY};
    use sparsetir_smat::prelude::*;

    #[test]
    fn figure17_crossover_sparse_wins_low_density() {
        // At 2⁻⁷ density the DBSR kernel crushes dense; near 2⁻¹ dense is
        // competitive (within ~2× either way).
        let spec = GpuSpec::v100();
        let (out_dim, in_dim, seq) = (1024usize, 1024usize, 512usize);
        let dense_time =
            simulate_kernel(&spec, &cublas_gemm_fp16_plan(out_dim, seq, in_dim)).time_ms;
        for (density, min_speedup, max_speedup) in [(1.0 / 128.0, 2.0, 100.0), (0.5, 0.2, 3.0)] {
            let mut rng = gen::rng(83);
            let w = gen::random_block_sparse(out_dim, in_dim, 32, density, 0.3, &mut rng);
            let bsr = Bsr::from_csr(&w, 32).unwrap();
            let dbsr = Dbsr::from_bsr(&bsr);
            let sparse_time = simulate_kernel(
                &spec,
                &dbsr_weight_spmm_plan(&dbsr, out_dim, seq, PRUNE_TC_EFFICIENCY, "dbsr"),
            )
            .time_ms;
            let speedup = dense_time / sparse_time;
            assert!(
                (min_speedup..max_speedup).contains(&speedup),
                "density {density}: speedup {speedup}"
            );
        }
    }

    #[test]
    fn figure19_cusparse_only_wins_at_extreme_sparsity() {
        let spec = GpuSpec::v100();
        let (out_dim, in_dim, seq) = (1024usize, 1024usize, 512usize);
        let dense_time =
            simulate_kernel(&spec, &cublas_gemm_fp16_plan(out_dim, seq, in_dim)).time_ms;
        let mut rng = gen::rng(85);
        let sparse_ok = gen::random_csr(out_dim, in_dim, 1.0 / 128.0, &mut rng);
        let t = simulate_kernel(&spec, &cusparse_csrmm_fp16_plan(&sparse_ok, seq)).time_ms;
        // cuSPARSE CSRMM beats dense at 2⁻⁷ …
        assert!(t < dense_time, "csrmm {t} vs dense {dense_time}");
        // … but loses at 2⁻³ (§4.3.2: "can only beat cuBLAS' GeMM when
        // weight density is extremely low").
        let denser = gen::random_csr(out_dim, in_dim, 1.0 / 8.0, &mut rng);
        let t2 = simulate_kernel(&spec, &cusparse_csrmm_fp16_plan(&denser, seq)).time_ms;
        assert!(t2 > dense_time, "csrmm {t2} vs dense {dense_time}");
    }
}
