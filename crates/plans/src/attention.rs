//! Batched sparse-attention operators (§4.3.1): multi-head SpMM and SDDMM
//! over Longformer band masks and Pixelated-Butterfly masks, in CSR (CUDA
//! cores) and BSR (`tensorize` → tensor cores, fp16) variants.

use crate::common::{F16, F32};
use sparsetir_gpusim::prelude::*;
use sparsetir_smat::prelude::*;

/// Efficiency of SparseTIR's tuned BSR tensor-core kernels (fraction of
/// peak MMA throughput reached after the `cache_read`/`tensorize`
/// schedule).
pub const SPARSETIR_BSR_EFFICIENCY: f64 = 0.88;

/// Plan for batched (multi-head) BSR SpMM on tensor cores: per head, one
/// block per block-row strip; `A`-tiles and `B`-panels staged in shared
/// memory before `mma_sync`.
#[must_use]
pub fn batched_bsr_spmm_plan(
    bsr: &Bsr,
    feat: usize,
    heads: usize,
    efficiency: f64,
    name: &str,
) -> KernelPlan {
    let b = bsr.block();
    let elem = F16;
    let mut addr = AddressSpace::new();
    let vals = addr.alloc("vals", (heads * bsr.stored()) as u64 * elem);
    let xb = addr.alloc("X", (heads * bsr.cols() * feat) as u64 * elem);
    let yb = addr.alloc("Y", (heads * bsr.rows() * feat) as u64 * elem);
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = 128;
    plan.shared_mem_per_block = b * b * 2 * elem as usize * 8;
    let bb = (b * b) as u64;
    for h in 0..heads {
        let head_val = vals + (h * bsr.stored()) as u64 * elem;
        let head_x = xb + (h * bsr.cols() * feat) as u64 * elem;
        let head_y = yb + (h * bsr.rows() * feat) as u64 * elem;
        for br in 0..bsr.block_rows() {
            let lo = bsr.indptr()[br];
            let hi = bsr.indptr()[br + 1];
            if lo == hi {
                continue;
            }
            let nblk = hi - lo;
            let mut w = BlockWork {
                tensor_flops: 2.0 * (nblk * b * b * feat) as f64 / efficiency,
                ..Default::default()
            };
            w.reads.push(AccessRange::new(
                head_val + lo as u64 * bb * elem,
                (nblk as u64) * bb * elem,
            ));
            for &bc in &bsr.indices()[lo..hi] {
                w.reads.push(AccessRange::new(
                    head_x + (bc as usize * b * feat) as u64 * elem,
                    (b * feat) as u64 * elem,
                ));
            }
            w.writes.push(AccessRange::new(
                head_y + (br * b * feat) as u64 * elem,
                (b * feat) as u64 * elem,
            ));
            w.shared_bytes = (nblk * b * b + b * feat) as f64 * elem as f64;
            plan.blocks.push(w);
        }
    }
    plan
}

/// Plan for batched CSR SpMM on CUDA cores — the SparseTIR-CSR bar of
/// Figure 16: scalar element-wise processing of a block-structured mask,
/// paying per-non-zero overhead with no tensor cores.
#[must_use]
pub fn batched_csr_spmm_plan(a: &Csr, feat: usize, heads: usize, name: &str) -> KernelPlan {
    let elem = F32;
    let mut addr = AddressSpace::new();
    let indptr = addr.alloc("indptr", (a.rows() as u64 + 1) * 4);
    let indices = addr.alloc("indices", a.nnz() as u64 * 4);
    let vals = addr.alloc("vals", (heads * a.nnz()) as u64 * elem);
    let xb = addr.alloc("X", (heads * a.cols() * feat) as u64 * elem);
    let yb = addr.alloc("Y", (heads * a.rows() * feat) as u64 * elem);
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = 128;
    let rows_per_block = 4usize;
    for h in 0..heads {
        let head_val = vals + (h * a.nnz()) as u64 * elem;
        let head_x = xb + (h * a.cols() * feat) as u64 * elem;
        let head_y = yb + (h * a.rows() * feat) as u64 * elem;
        for row0 in (0..a.rows()).step_by(rows_per_block) {
            let rows = rows_per_block.min(a.rows() - row0);
            let lo = a.indptr()[row0];
            let hi = a.indptr()[row0 + rows];
            let nnz = hi - lo;
            // Scalar gather per non-zero element: the dominant cost
            // (uncoalesced fp32 loads, no tensor cores).
            let mut w = BlockWork {
                cuda_flops: 2.0 * (nnz * feat) as f64,
                serial_insts: (nnz * feat) as f64 / 128.0 * 24.0,
                ..Default::default()
            };
            w.reads.push(AccessRange::new(indptr + row0 as u64 * 4, (rows as u64 + 1) * 4));
            w.reads.push(AccessRange::new(indices + lo as u64 * 4, nnz as u64 * 4));
            w.reads.push(AccessRange::new(head_val + lo as u64 * elem, nnz as u64 * elem));
            for &col in &a.indices()[lo..hi] {
                w.reads.push(AccessRange::new(
                    head_x + (col as usize * feat) as u64 * elem,
                    feat as u64 * elem,
                ));
            }
            w.writes.push(AccessRange::new(
                head_y + (row0 * feat) as u64 * elem,
                (rows * feat) as u64 * elem,
            ));
            plan.blocks.push(w);
        }
    }
    plan
}

/// Plan for batched BSR SDDMM on tensor cores (SparseTIR-BSR): one MMA per
/// stored block computing `X_i · Yᵀ_j` tiles.
#[must_use]
pub fn batched_bsr_sddmm_plan(
    bsr: &Bsr,
    feat: usize,
    heads: usize,
    efficiency: f64,
    name: &str,
) -> KernelPlan {
    let b = bsr.block();
    let elem = F16;
    let mut addr = AddressSpace::new();
    let xb = addr.alloc("X", (heads * bsr.rows() * feat) as u64 * elem);
    let yb = addr.alloc("Yt", (heads * bsr.cols() * feat) as u64 * elem);
    let ob = addr.alloc("out", (heads * bsr.stored()) as u64 * elem);
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = 128;
    let blocks_per_cta = 4usize;
    let bb = (b * b) as u64;
    for h in 0..heads {
        let head_x = xb + (h * bsr.rows() * feat) as u64 * elem;
        let head_y = yb + (h * bsr.cols() * feat) as u64 * elem;
        let head_o = ob + (h * bsr.stored()) as u64 * elem;
        let mut block_list: Vec<(usize, u32)> = Vec::new();
        for br in 0..bsr.block_rows() {
            for p in bsr.indptr()[br]..bsr.indptr()[br + 1] {
                block_list.push((br, bsr.indices()[p]));
            }
        }
        for (ci, chunk) in block_list.chunks(blocks_per_cta).enumerate() {
            let mut w = BlockWork {
                tensor_flops: 2.0 * (chunk.len() * b * b * feat) as f64 / efficiency,
                ..Default::default()
            };
            for (br, bc) in chunk {
                w.reads.push(AccessRange::new(
                    head_x + (br * b * feat) as u64 * elem,
                    (b * feat) as u64 * elem,
                ));
                w.reads.push(AccessRange::new(
                    head_y + (*bc as usize * b * feat) as u64 * elem,
                    (b * feat) as u64 * elem,
                ));
            }
            w.writes.push(AccessRange::new(
                head_o + (ci * blocks_per_cta) as u64 * bb * elem,
                (chunk.len() as u64) * bb * elem,
            ));
            w.shared_bytes = (2 * b * feat) as f64 * elem as f64;
            plan.blocks.push(w);
        }
    }
    plan
}

/// Plan for batched CSR SDDMM on CUDA cores (SparseTIR-CSR bar).
#[must_use]
pub fn batched_csr_sddmm_plan(a: &Csr, feat: usize, heads: usize, name: &str) -> KernelPlan {
    let elem = F32;
    let mut addr = AddressSpace::new();
    let indices = addr.alloc("indices", a.nnz() as u64 * 4);
    let xb = addr.alloc("X", (heads * a.rows() * feat) as u64 * elem);
    let yb = addr.alloc("Yt", (heads * a.cols() * feat) as u64 * elem);
    let ob = addr.alloc("out", (heads * a.nnz()) as u64 * elem);
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = 128;
    let row_of: Vec<u32> = {
        let mut v = Vec::with_capacity(a.nnz());
        for r in 0..a.rows() {
            for _ in 0..a.row_nnz(r) {
                v.push(r as u32);
            }
        }
        v
    };
    let nnz_per_block = 32usize;
    for h in 0..heads {
        let head_x = xb + (h * a.rows() * feat) as u64 * elem;
        let head_y = yb + (h * a.cols() * feat) as u64 * elem;
        let head_o = ob + (h * a.nnz()) as u64 * elem;
        for chunk0 in (0..a.nnz()).step_by(nnz_per_block) {
            let chunk = nnz_per_block.min(a.nnz() - chunk0);
            let mut w = BlockWork {
                cuda_flops: 2.0 * (chunk * feat) as f64,
                serial_insts: (chunk * feat) as f64 / 128.0 * 24.0,
                ..Default::default()
            };
            w.reads.push(AccessRange::new(indices + chunk0 as u64 * 4, chunk as u64 * 4));
            for (e, &i) in row_of.iter().enumerate().take(chunk0 + chunk).skip(chunk0) {
                let j = a.indices()[e];
                w.reads.push(AccessRange::new(
                    head_x + (i as usize * feat) as u64 * elem,
                    feat as u64 * elem,
                ));
                w.reads.push(AccessRange::new(
                    head_y + (j as usize * feat) as u64 * elem,
                    feat as u64 * elem,
                ));
            }
            w.writes.push(AccessRange::new(head_o + chunk0 as u64 * elem, chunk as u64 * elem));
            plan.blocks.push(w);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;

    /// A band (Longformer-style) mask of the given half-bandwidth.
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
    fn bsr_tensor_cores_beat_csr_cuda_cores() {
        // The Figure 16 gap: SparseTIR-BSR ≫ SparseTIR-CSR on block masks.
        let spec = GpuSpec::v100();
        let mask = band_mask(2048, 256);
        let bsr = Bsr::from_csr(&mask, 32).unwrap();
        let heads = 8;
        let feat = 64;
        let bsr_plan = batched_bsr_spmm_plan(&bsr, feat, heads, SPARSETIR_BSR_EFFICIENCY, "bsr");
        let csr_plan = batched_csr_spmm_plan(&mask, feat, heads, "csr");
        let rb = simulate_kernel(&spec, &bsr_plan);
        let rc = simulate_kernel(&spec, &csr_plan);
        assert!(rb.time_ms * 5.0 < rc.time_ms, "bsr {} vs csr {}", rb.time_ms, rc.time_ms);
    }

    #[test]
    fn sddmm_plans_cover_all_nonzeros() {
        let mask = band_mask(256, 32);
        let bsr = Bsr::from_csr(&mask, 32).unwrap();
        let p = batched_bsr_sddmm_plan(&bsr, 64, 2, 0.9, "s");
        // Tensor flops = 2 · heads · stored · feat / eff.
        let expect = 2.0 * 2.0 * bsr.stored() as f64 * 64.0 / 0.9;
        let got: f64 = p.blocks.iter().map(|b| b.tensor_flops).sum();
        assert!((got - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn reference_matches_per_head() {
        let mut rng = gen::rng(31);
        let mask = band_mask(32, 8);
        let xs: Vec<Dense> = (0..3).map(|_| gen::random_dense(32, 8, &mut rng)).collect();
        let ys = batched_spmm(&mask, &xs).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert!(y.approx_eq(&mask.spmm(x).unwrap(), 1e-5));
        }
    }
}
