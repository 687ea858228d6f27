//! SparseTIR SDDMM plans (§4.2.2): the non-zero-parallel decomposition
//! of the Stage I `sparse_fuse` schedule, PRedS-style vectorized loads and
//! the `rfactor` two-stage reduction, priced on the GPU model. These
//! schedule parameters change no executable kernel (the served SDDMM in
//! `sparsetir_kernels::sddmm` is row-shaped for the CPU), so they live
//! here with the plans they parameterize.

use crate::common::{SpmmLayout, F32};
use sparsetir_gpusim::prelude::*;
use sparsetir_smat::prelude::*;

/// Schedule parameters of the SDDMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SddmmParams {
    /// Non-zeros handled per thread block (nnz-parallel decomposition from
    /// `sparse_fuse`; ignored by the row-parallel variant).
    pub nnz_per_block: usize,
    /// Vector load width (`vectorize`).
    pub vec_width: usize,
    /// Two-stage reduction (`rfactor` + intra/inter-group reduction).
    pub two_stage: bool,
    /// Threads per block.
    pub threads: usize,
}

impl Default for SddmmParams {
    fn default() -> Self {
        SddmmParams { nnz_per_block: 32, vec_width: 4, two_stage: true, threads: 128 }
    }
}

/// Memory-level-parallelism penalty of the schedule: a serialized
/// per-thread reduction (no `rfactor`) keeps a quarter of the threads
/// issuing loads; scalar (non-vectorized) loads halve the in-flight bytes.
fn mlp_penalty(p: &SddmmParams) -> f64 {
    let reduction = if p.two_stage { 1.0 } else { 2.5 };
    let vector = if p.vec_width >= 4 { 1.0 } else { 1.5 };
    reduction * vector
}

/// Per-block wall-clock cycles of the dot-product phase. The reduction
/// term models the dependent-FMA chain: without `rfactor`, one thread owns
/// each non-zero's reduction over `feat`, a `feat`-long dependency chain at
/// ~4 cycles per dependent FMA; the two-stage schedule splits it across a
/// warp (intra-group) plus one inter-group step.
fn dot_serial_cycles(nnz_in_block: usize, feat: usize, p: &SddmmParams) -> f64 {
    let load_issue =
        nnz_in_block as f64 * 2.0 * feat as f64 / p.vec_width as f64 / p.threads as f64 * 4.0;
    let chain = if p.two_stage {
        (feat as f64 / 32.0).max(1.0) * 4.0 + 5.0 * (32f64).log2()
    } else {
        feat as f64 * 4.0
    };
    load_issue + chain
}

/// Non-zero-parallel SDDMM plan (the SparseTIR schedule: `sparse_fuse` on
/// `(I, J)`, one block per `nnz_per_block` non-zeros — perfectly load
/// balanced, as §4.2.2 observes).
#[must_use]
pub fn sddmm_plan(a: &Csr, feat: usize, params: SddmmParams, name: &str) -> KernelPlan {
    let layout = SpmmLayout::new(a, feat, F32);
    // Reuse the layout: B holds X (rows × feat), plus one more buffer for
    // Yᵀ (cols × feat) and the output values.
    let mut addr = layout.addr.clone();
    let yt = addr.alloc("Yt", a.cols() as u64 * feat as u64 * F32);
    let out = addr.alloc("Bout", a.nnz() as u64 * F32);
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = params.threads;
    // Row id per non-zero (from the fused-loop binary search, amortized).
    let row_of: Vec<u32> = {
        let mut v = Vec::with_capacity(a.nnz());
        for r in 0..a.rows() {
            for _ in 0..a.row_nnz(r) {
                v.push(r as u32);
            }
        }
        v
    };
    for chunk0 in (0..a.nnz()).step_by(params.nnz_per_block.max(1)) {
        let chunk = params.nnz_per_block.min(a.nnz() - chunk0);
        let mut w = BlockWork {
            cuda_flops: 2.0 * chunk as f64 * feat as f64,
            serial_insts: dot_serial_cycles(chunk, feat, &params),
            mlp_penalty: mlp_penalty(&params),
            ..Default::default()
        };
        w.reads.push(AccessRange::new(layout.indices + chunk0 as u64 * 4, chunk as u64 * 4));
        w.reads.push(AccessRange::new(layout.values + chunk0 as u64 * F32, chunk as u64 * F32));
        for (e, &i) in row_of.iter().enumerate().take(chunk0 + chunk).skip(chunk0) {
            let j = a.indices()[e];
            w.reads.push(AccessRange::new(
                layout.b + u64::from(i) * feat as u64 * F32,
                feat as u64 * F32,
            ));
            w.reads
                .push(AccessRange::new(yt + u64::from(j) * feat as u64 * F32, feat as u64 * F32));
        }
        w.writes.push(AccessRange::new(out + chunk0 as u64 * F32, chunk as u64 * F32));
        plan.blocks.push(w);
    }
    plan
}

/// Row-parallel SDDMM plan (FeatGraph/DGL-style: one block per row group —
/// inherits the row-length skew).
#[must_use]
pub fn sddmm_row_parallel_plan(
    a: &Csr,
    feat: usize,
    params: SddmmParams,
    rows_per_block: usize,
    name: &str,
) -> KernelPlan {
    let layout = SpmmLayout::new(a, feat, F32);
    let mut addr = layout.addr.clone();
    let yt = addr.alloc("Yt", a.cols() as u64 * feat as u64 * F32);
    let out = addr.alloc("Bout", a.nnz() as u64 * F32);
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = params.threads;
    for row0 in (0..a.rows()).step_by(rows_per_block.max(1)) {
        let rows = rows_per_block.min(a.rows() - row0);
        let lo = a.indptr()[row0];
        let hi = a.indptr()[row0 + rows];
        let nnz = hi - lo;
        let mut w = BlockWork {
            cuda_flops: 2.0 * nnz as f64 * feat as f64,
            serial_insts: dot_serial_cycles(nnz, feat, &params),
            mlp_penalty: mlp_penalty(&params),
            ..Default::default()
        };
        w.reads.push(AccessRange::new(layout.indptr + row0 as u64 * 4, (rows as u64 + 1) * 4));
        w.reads.push(AccessRange::new(layout.indices + lo as u64 * 4, nnz as u64 * 4));
        w.reads.push(AccessRange::new(layout.values + lo as u64 * F32, nnz as u64 * F32));
        for r in row0..row0 + rows {
            w.reads
                .push(AccessRange::new(layout.b + r as u64 * feat as u64 * F32, feat as u64 * F32));
        }
        for &j in &a.indices()[lo..hi] {
            w.reads
                .push(AccessRange::new(yt + u64::from(j) * feat as u64 * F32, feat as u64 * F32));
        }
        w.writes.push(AccessRange::new(out + lo as u64 * F32, nnz as u64 * F32));
        plan.blocks.push(w);
    }
    plan
}

/// The paper's SDDMM schedule space (group size / non-zeros per CTA,
/// vector length — §4.2.2: "we generalize the parameters … as tunable
/// parameters"). The autotuner's `SddmmSpace` enumerates exactly these.
#[must_use]
pub fn sddmm_param_candidates() -> Vec<SddmmParams> {
    let mut out = Vec::new();
    for nnz_per_block in [8usize, 16, 32, 64] {
        for vec_width in [2usize, 4] {
            out.push(SddmmParams { nnz_per_block, vec_width, two_stage: true, threads: 128 });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;

    #[test]
    fn nnz_parallel_beats_row_parallel_on_skew() {
        let mut rng = gen::rng(21);
        let a = gen::random_csr_with_row_lengths(
            1500,
            1500,
            |r| {
                use rand::Rng;
                let u: f64 = r.gen_range(0.0..1.0);
                ((1.0 / (u + 0.004)) as usize).clamp(1, 600)
            },
            &mut rng,
        );
        let spec = GpuSpec::v100();
        let fused = simulate_kernel(&spec, &sddmm_plan(&a, 128, SddmmParams::default(), "fused"));
        let rowp = simulate_kernel(
            &spec,
            &sddmm_row_parallel_plan(&a, 128, SddmmParams::default(), 1, "rowp"),
        );
        assert!(fused.time_ms < rowp.time_ms, "{} vs {}", fused.time_ms, rowp.time_ms);
    }

    #[test]
    fn two_stage_reduction_helps_at_large_feat() {
        let mut rng = gen::rng(22);
        let a = gen::random_csr(800, 800, 0.02, &mut rng);
        let spec = GpuSpec::v100();
        let with = simulate_kernel(&spec, &sddmm_plan(&a, 512, SddmmParams::default(), "rf"));
        let without = simulate_kernel(
            &spec,
            &sddmm_plan(&a, 512, SddmmParams { two_stage: false, ..Default::default() }, "norf"),
        );
        assert!(with.time_ms < without.time_ms, "{} vs {}", with.time_ms, without.time_ms);
    }
}
