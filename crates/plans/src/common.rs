//! Shared plan-building helpers: buffer address layout and the block-work
//! cost knobs that schedules control.
//!
//! Every kernel plan is parameterized by the same schedule-visible knobs
//! the IR schedules manipulate, so autotuning over plans explores the same
//! space as scheduling over the IR:
//!
//! * `rows_per_block` / bucketing — block decomposition (split + bind),
//! * `vec_width` — `vectorize` (float4-style wide loads),
//! * `register_cache` — `cache_write` of the output accumulator
//!   (without it, every non-zero contribution writes through to global),
//! * `use_shared` — `cache_read` staging into shared memory,
//! * tensor-core usage — `tensorize`.

use sparsetir_gpusim::prelude::*;
use sparsetir_smat::prelude::*;

/// Bytes per element for single precision.
pub const F32: u64 = 4;
/// Bytes per element for half precision (tensor-core kernels).
pub const F16: u64 = 2;

/// Standard buffer layout for an SpMM-like kernel over one sparse matrix.
#[derive(Debug, Clone)]
pub struct SpmmLayout {
    /// Shared address space (reuse it across kernels of one operator so
    /// the cache simulation sees true reuse).
    pub addr: AddressSpace,
    /// Base of the `indptr` array.
    pub indptr: u64,
    /// Base of the `indices` array.
    pub indices: u64,
    /// Base of the non-zero values array.
    pub values: u64,
    /// Base of the dense input `B` (`cols × feat`).
    pub b: u64,
    /// Base of the dense output `C` (`rows × feat`).
    pub c: u64,
}

impl SpmmLayout {
    /// Allocate the standard layout for matrix `a` and feature width
    /// `feat`, with `elem` bytes per value element.
    #[must_use]
    pub fn new(a: &Csr, feat: usize, elem: u64) -> SpmmLayout {
        let mut addr = AddressSpace::new();
        let indptr = addr.alloc("indptr", (a.rows() as u64 + 1) * 4);
        let indices = addr.alloc("indices", a.nnz() as u64 * 4);
        let values = addr.alloc("values", a.nnz() as u64 * elem);
        let b = addr.alloc("B", a.cols() as u64 * feat as u64 * elem);
        let c = addr.alloc("C", a.rows() as u64 * feat as u64 * elem);
        SpmmLayout { addr, indptr, indices, values, b, c }
    }

    /// Access range of `B`'s row `col` (`feat` elements of `elem` bytes).
    #[must_use]
    pub fn b_row(&self, col: u32, feat: usize, elem: u64) -> AccessRange {
        AccessRange::new(self.b + u64::from(col) * feat as u64 * elem, feat as u64 * elem)
    }

    /// Access range of `C` rows `[row, row + nrows)`.
    #[must_use]
    pub fn c_rows(&self, row: usize, nrows: usize, feat: usize, elem: u64) -> AccessRange {
        AccessRange::new(self.c + row as u64 * feat as u64 * elem, (nrows * feat) as u64 * elem)
    }
}

/// Cost knobs for one SpMM-style block over `nnz` non-zeros × `feat`
/// features.
#[derive(Debug, Clone, Copy)]
pub struct SpmmCost {
    /// Non-zeros handled by the block.
    pub nnz: usize,
    /// Feature width.
    pub feat: usize,
    /// Wide-load width from `vectorize` (1 = scalar).
    pub vec_width: usize,
    /// Whether partial sums live in registers (`cache_write`); when false
    /// every contribution writes through to global memory.
    pub register_cache: bool,
    /// Threads cooperating in the block.
    pub threads: usize,
}

impl SpmmCost {
    /// CUDA-core FLOPs (multiply-add per element).
    #[must_use]
    pub fn flops(&self) -> f64 {
        2.0 * self.nnz as f64 * self.feat as f64
    }

    /// Per-block serialized instruction estimate: index bookkeeping plus
    /// load issue, divided over the block's threads.
    #[must_use]
    pub fn serial_insts(&self) -> f64 {
        let loads = self.nnz as f64 * self.feat as f64 / self.vec_width as f64;
        let bookkeeping = 4.0 * self.nnz as f64;
        (loads + bookkeeping) / self.threads as f64 * 4.0
    }

    /// Extra global write traffic when the accumulator is not cached in
    /// registers (`bytes` per element).
    #[must_use]
    pub fn writeback_penalty_bytes(&self, elem: u64) -> u64 {
        if self.register_cache {
            0
        } else {
            // Read-modify-write per contribution.
            2 * self.nnz as u64 * self.feat as u64 * elem
        }
    }
}

/// Dense GEMM plan (`m×k · k×n`), the cuBLAS-like building block.
/// `efficiency` discounts the peak rate (0.85–0.9 for cuBLAS-class code).
#[must_use]
pub fn gemm_plan(
    name: &str,
    m: usize,
    n: usize,
    k: usize,
    elem: u64,
    tensor_cores: bool,
    efficiency: f64,
) -> KernelPlan {
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = 256;
    let mut addr = AddressSpace::new();
    let a = addr.alloc("A", (m * k) as u64 * elem);
    let b = addr.alloc("B", (k * n) as u64 * elem);
    let c = addr.alloc("C", (m * n) as u64 * elem);
    // 128×128 output tiles, k-split into 32-wide panels.
    let tile = 128usize;
    let flops_per_tile = |tm: usize, tn: usize| 2.0 * (tm * tn * k) as f64 / efficiency;
    let mut bm = 0;
    while bm < m {
        let tm = tile.min(m - bm);
        let mut bn = 0;
        while bn < n {
            let tn = tile.min(n - bn);
            let mut w = BlockWork::default();
            if tensor_cores {
                w.tensor_flops = flops_per_tile(tm, tn);
            } else {
                w.cuda_flops = flops_per_tile(tm, tn);
            }
            // A panel rows and B panel columns stream once per tile.
            for r in 0..tm {
                w.reads.push(AccessRange::new(a + ((bm + r) * k) as u64 * elem, k as u64 * elem));
            }
            for kk in (0..k).step_by(32) {
                let rows = 32.min(k - kk);
                for r in 0..rows {
                    w.reads.push(AccessRange::new(
                        b + ((kk + r) * n + bn) as u64 * elem,
                        tn as u64 * elem,
                    ));
                }
            }
            for r in 0..tm {
                w.writes.push(AccessRange::new(
                    c + ((bm + r) * n + bn) as u64 * elem,
                    tn as u64 * elem,
                ));
            }
            w.shared_bytes = (tm * k + k * tn) as f64 * elem as f64;
            plan.blocks.push(w);
            bn += tile;
        }
        bm += tile;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;

    #[test]
    fn layout_allocates_disjoint_buffers() {
        let mut rng = gen::rng(1);
        let a = gen::random_csr(16, 16, 0.2, &mut rng);
        let l = SpmmLayout::new(&a, 32, F32);
        let bases = [l.indptr, l.indices, l.values, l.b, l.c];
        for (i, x) in bases.iter().enumerate() {
            for y in &bases[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn register_cache_removes_writeback() {
        let base =
            SpmmCost { nnz: 100, feat: 32, vec_width: 4, register_cache: true, threads: 128 };
        assert_eq!(base.writeback_penalty_bytes(4), 0);
        let uncached = SpmmCost { register_cache: false, ..base };
        assert!(uncached.writeback_penalty_bytes(4) > 0);
    }

    #[test]
    fn vectorization_reduces_serial_insts() {
        let scalar =
            SpmmCost { nnz: 1000, feat: 64, vec_width: 1, register_cache: true, threads: 128 };
        let vectored = SpmmCost { vec_width: 4, ..scalar };
        assert!(vectored.serial_insts() < scalar.serial_insts());
    }

    #[test]
    fn gemm_plan_counts_flops() {
        let p = gemm_plan("g", 256, 256, 64, F32, false, 1.0);
        let expect = 2.0 * 256.0 * 256.0 * 64.0;
        assert!((p.total_flops() - expect).abs() / expect < 1e-9);
        assert_eq!(p.blocks.len(), 4);
    }

    #[test]
    fn tensor_core_gemm_is_faster() {
        let spec = GpuSpec::v100();
        let c = gemm_plan("cuda", 2048, 2048, 512, F16, false, 0.9);
        let t = gemm_plan("tc", 2048, 2048, 512, F16, true, 0.9);
        let rc = simulate_kernel(&spec, &c);
        let rt = simulate_kernel(&spec, &t);
        assert!(rc.time_ms > rt.time_ms, "{} vs {}", rc.time_ms, rt.time_ms);
    }
}
