//! Relational Gather-Matmul-Scatter (§4.4): the fused RGCN operator
//! `Y[i,l] = Σ_r Σ_j A_r[i,j] · (X[j,:] · W_r)[l]` on a 3-D composable
//! format — generalizing `hyb` per relation — with three variants matching
//! Figure 20's ablation: `naive` (fused, no bucketing, CUDA cores), `hyb`
//! (bucketed, CUDA cores) and `hyb+TC` (bucketed, shared-memory staging,
//! tensor cores, fp16), plus the two-stage gather–matmul–scatter pipeline
//! (eqs. 9–10) the GNN libraries implement.

use crate::common::{gemm_plan, F16, F32};
use sparsetir_gpusim::prelude::*;
use sparsetir_smat::prelude::*;

/// Tensor-core efficiency of the fused RGMS kernel.
pub const RGMS_TC_EFFICIENCY: f64 = 0.70;

/// An RGMS problem instance.
#[derive(Debug, Clone)]
pub struct RgmsWorkload {
    /// Per-relation adjacency (all `n × n`).
    pub relations: Vec<Csr>,
    /// Input feature width `d_in`.
    pub din: usize,
    /// Output feature width `d_out`.
    pub dout: usize,
}

impl RgmsWorkload {
    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.relations.first().map_or(0, Csr::rows)
    }

    /// Total edges over all relations.
    #[must_use]
    pub fn edges(&self) -> usize {
        self.relations.iter().map(Csr::nnz).sum()
    }
}

fn base_layout(w: &RgmsWorkload, elem: u64) -> (AddressSpace, u64, u64, u64) {
    let mut addr = AddressSpace::new();
    let x = addr.alloc("X", (w.nodes() * w.din) as u64 * elem);
    let wts = addr.alloc("W", (w.relations.len() * w.din * w.dout) as u64 * elem);
    let y = addr.alloc("Y", (w.nodes() * w.dout) as u64 * elem);
    (addr, x, wts, y)
}

/// Fused RGMS without bucketing (SparseTIR-naive): one block per non-empty
/// row per relation — inherits the degree skew; atomically scatters to Y.
#[must_use]
pub fn rgms_naive_plan(w: &RgmsWorkload, name: &str) -> KernelPlan {
    let elem = F32;
    let (_addr, x, wts, y) = base_layout(w, elem);
    let wsize = (w.din * w.dout) as u64 * elem;
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = 64;
    for (r, rel) in w.relations.iter().enumerate() {
        for i in 0..rel.rows() {
            let nnz = rel.row_nnz(i);
            if nnz == 0 {
                continue;
            }
            let mut blk =
                BlockWork { cuda_flops: 2.0 * (nnz * w.din * w.dout) as f64, ..Default::default() };
            blk.reads.push(AccessRange::new(wts + r as u64 * wsize, wsize));
            for &j in rel.row(i).0 {
                blk.reads.push(AccessRange::new(
                    x + (j as usize * w.din) as u64 * elem,
                    w.din as u64 * elem,
                ));
            }
            // Atomic scatter: read-modify-write of the output row.
            blk.writes
                .push(AccessRange::new(y + (i * w.dout) as u64 * elem, 2 * w.dout as u64 * elem));
            blk.serial_insts = (nnz * w.din * w.dout) as f64 / 64.0 * 2.0;
            plan.blocks.push(blk);
        }
    }
    plan
}

/// Fused RGMS on the 3-D `hyb` format: per relation, rows are bucketed
/// (`hyb(1, k)` as in §4.4.1) so each block covers a bounded edge count;
/// `W_r` is pinned in shared memory (Figure 21).
#[must_use]
pub fn rgms_hyb_plan(
    w: &RgmsWorkload,
    bucket_k: u32,
    tensor_cores: bool,
    name: &str,
) -> KernelPlan {
    let elem = if tensor_cores { F16 } else { F32 };
    let (mut addr, x, wts, y) = base_layout(w, elem);
    let wsize = (w.din * w.dout) as u64 * elem;
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = 128;
    plan.shared_mem_per_block = (w.din * w.dout) * elem as usize;
    for (r, rel) in w.relations.iter().enumerate() {
        if rel.nnz() == 0 {
            continue;
        }
        let hyb = Hyb::from_csr(rel, 1, bucket_k).expect("c=1 is valid");
        let k = hyb.bucket_k();
        for part in hyb.partitions() {
            for bucket in &part.buckets {
                if bucket.is_empty() {
                    continue;
                }
                let width = bucket.width;
                let i = (width as f64).log2() as u32;
                let rows_per_block = (1usize << (k - i.min(k))).max(1);
                let rows_name = format!("{name}_r{r}_w{width}_rows");
                let rows_base = addr.alloc(&rows_name, bucket.len() as u64 * 4);
                for r0 in (0..bucket.len()).step_by(rows_per_block) {
                    let rows = rows_per_block.min(bucket.len() - r0);
                    let edges = rows * width;
                    let mut blk = BlockWork::default();
                    let flops = 2.0 * (edges * w.din * w.dout) as f64;
                    if tensor_cores {
                        blk.tensor_flops = flops / RGMS_TC_EFFICIENCY;
                    } else {
                        blk.cuda_flops = flops;
                        blk.serial_insts = flops / 128.0;
                    }
                    blk.reads.push(AccessRange::new(wts + r as u64 * wsize, wsize));
                    blk.reads.push(AccessRange::new(rows_base + r0 as u64 * 4, rows as u64 * 4));
                    for ri in 0..rows {
                        for j in 0..width {
                            let col = bucket.col_indices[(r0 + ri) * width + j];
                            blk.reads.push(AccessRange::new(
                                x + (col as usize * w.din) as u64 * elem,
                                w.din as u64 * elem,
                            ));
                        }
                        let out = bucket.row_ids[r0 + ri];
                        blk.writes.push(AccessRange::new(
                            y + (out as usize * w.dout) as u64 * elem,
                            2 * w.dout as u64 * elem,
                        ));
                    }
                    // Gather + matmul + intra-group scatter in SRAM (Fig 21).
                    blk.shared_bytes =
                        ((edges * w.din) + w.din * w.dout + edges * w.dout) as f64 * elem as f64;
                    plan.blocks.push(blk);
                }
            }
        }
    }
    plan
}

/// The two-stage pipeline of the GNN libraries (eqs. 9–10): for every
/// relation, `T_r = X · W_r` (dense GEMM over *all* nodes), then
/// `Y += A_r · T_r` (SpMM). Materializes `T` in HBM.
///
/// Returns one plan per kernel launch; `gemm_efficiency` and
/// `scatter_efficiency` tune the library's maturity (cuBLAS-class vs
/// framework scatter kernels).
#[must_use]
pub fn rgms_two_stage_plans(
    w: &RgmsWorkload,
    gemm_efficiency: f64,
    scatter_register_cache: bool,
    name: &str,
) -> Vec<KernelPlan> {
    let elem = F32;
    let n = w.nodes();
    let mut plans = Vec::new();
    // Stage 1: R dense GEMMs (could be batched; libraries launch per
    // relation).
    for (r, _) in w.relations.iter().enumerate() {
        plans.push(gemm_plan(
            &format!("{name}_gemm_r{r}"),
            n,
            w.dout,
            w.din,
            elem,
            false,
            gemm_efficiency,
        ));
    }
    // Stage 2: per-relation SpMM on T_r.
    let mut addr = AddressSpace::new();
    let t = addr.alloc("T", (w.relations.len() * n * w.dout) as u64 * elem);
    let y = addr.alloc("Y", (n * w.dout) as u64 * elem);
    for (r, rel) in w.relations.iter().enumerate() {
        let mut plan = KernelPlan::new(format!("{name}_scatter_r{r}"));
        plan.threads_per_block = 128;
        let t_r = t + (r * n * w.dout) as u64 * elem;
        for i in (0..rel.rows()).step_by(4) {
            let rows = 4.min(rel.rows() - i);
            let lo = rel.indptr()[i];
            let hi = rel.indptr()[i + rows];
            let nnz = hi - lo;
            if nnz == 0 {
                continue;
            }
            let mut blk =
                BlockWork { cuda_flops: 2.0 * (nnz * w.dout) as f64, ..Default::default() };
            for &j in &rel.indices()[lo..hi] {
                blk.reads.push(AccessRange::new(
                    t_r + (j as usize * w.dout) as u64 * elem,
                    w.dout as u64 * elem,
                ));
            }
            let wb = if scatter_register_cache { 1 } else { 2 * nnz as u64 / rows.max(1) as u64 };
            blk.writes.push(AccessRange::new(
                y + (i * w.dout) as u64 * elem,
                wb.max(1) * (rows * w.dout) as u64 * elem,
            ));
            plan.blocks.push(blk);
        }
        plans.push(plan);
    }
    plans
}

/// GPU memory footprint (bytes) of the fused formulation: X, W, Y (+fp16
/// staging copies when `tensor_cores`).
#[must_use]
pub fn fused_footprint_bytes(w: &RgmsWorkload, tensor_cores: bool) -> u64 {
    let n = w.nodes() as u64;
    let r = w.relations.len() as u64;
    let edges = w.edges() as u64;
    let base = (n * w.din as u64 + r * (w.din * w.dout) as u64 + n * w.dout as u64) * 4 + edges * 8; // indices + indptr-ish metadata
    if tensor_cores {
        // fp16 copies of X and W alongside the fp32 originals (§4.4.1:
        // "consumes more GPU memory … because of the half-precision/
        // single-precision data type conversion").
        base + (n * w.din as u64 + r * (w.din * w.dout) as u64) * 2
    } else {
        base
    }
}

/// GPU memory footprint (bytes) of the two-stage formulation: fused's
/// buffers plus the materialized `T` (`R × n × d_out`).
#[must_use]
pub fn two_stage_footprint_bytes(w: &RgmsWorkload) -> u64 {
    fused_footprint_bytes(w, false) + (w.relations.len() * w.nodes() * w.dout) as u64 * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;

    fn workload(seed: u64, n: usize, rels: usize) -> RgmsWorkload {
        use rand::Rng;
        let mut rng = gen::rng(seed);
        // Heterograph relations have power-law in-degrees and skewed sizes.
        let relations: Vec<Csr> = (0..rels)
            .map(|r| {
                let scale = if r == 0 { 40.0 } else { 6.0 };
                gen::random_csr_with_row_lengths(
                    n,
                    n,
                    move |rr| {
                        let u: f64 = rr.gen_range(0.0..1.0);
                        ((scale / (u + 0.02)) as usize).clamp(0, n / 2)
                    },
                    &mut rng,
                )
            })
            .collect();
        RgmsWorkload { relations, din: 32, dout: 32 }
    }

    #[test]
    fn hyb_beats_naive_and_tc_beats_hyb() {
        // Figure 20's ablation ordering.
        let w = workload(51, 600, 8);
        let spec = GpuSpec::v100();
        let naive = simulate_kernel(&spec, &rgms_naive_plan(&w, "naive"));
        let hyb = simulate_kernel(&spec, &rgms_hyb_plan(&w, 5, false, "hyb"));
        let tc = simulate_kernel(&spec, &rgms_hyb_plan(&w, 5, true, "tc"));
        assert!(hyb.time_ms < naive.time_ms, "hyb {} vs naive {}", hyb.time_ms, naive.time_ms);
        assert!(tc.time_ms < hyb.time_ms, "tc {} vs hyb {}", tc.time_ms, hyb.time_ms);
    }

    #[test]
    fn fused_beats_two_stage_and_uses_less_memory() {
        let w = workload(52, 600, 8);
        let spec = GpuSpec::v100();
        let fused = simulate_kernel(&spec, &rgms_hyb_plan(&w, 5, true, "fused"));
        let (_, two_stage_time) =
            simulate_sequence(&spec, &rgms_two_stage_plans(&w, 0.85, true, "dgl"));
        assert!(
            fused.time_ms < two_stage_time,
            "fused {} vs two-stage {}",
            fused.time_ms,
            two_stage_time
        );
        assert!(fused_footprint_bytes(&w, true) < two_stage_footprint_bytes(&w));
    }

    #[test]
    fn reference_matches_dense() {
        let w = workload(53, 40, 3);
        let mut rng = gen::rng(54);
        let x = gen::random_dense(40, w.din, &mut rng);
        let ws: Vec<Dense> = (0..3).map(|_| gen::random_dense(w.din, w.dout, &mut rng)).collect();
        let y = rgms_reference(&w.relations, &x, &ws).unwrap();
        let mut expect = Dense::zeros(40, w.dout);
        for (rel, wt) in w.relations.iter().zip(&ws) {
            let t = x.matmul(wt).unwrap();
            expect = expect.add(&rel.to_dense().matmul(&t).unwrap()).unwrap();
        }
        assert!(y.approx_eq(&expect, 1e-3));
    }
}
