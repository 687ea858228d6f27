//! Pruned-transformer SpMM kernels (§4.3.2): `Y = W · X` with sparse
//! weights. Structured pruning uses BSR and the zero-row-skipping DBSR;
//! unstructured pruning uses SR-BCRS(t, g) whose `t × 1` tiles bound
//! intra-tile fragmentation by `1/t` (vs `1/b²` for BSR). All tensor-core
//! variants run in fp16 (footnote 8 of the paper).

use crate::common::F16;
use sparsetir_gpusim::prelude::*;
use sparsetir_smat::prelude::*;

/// Tensor-core efficiency of SparseTIR's pruned-weight kernels.
pub const PRUNE_TC_EFFICIENCY: f64 = 0.85;

/// Plan for BSR weight SpMM on tensor cores. One block per block-row;
/// block rows with no blocks still launch a (cheap) zeroing block — the
/// waste DBSR removes.
#[must_use]
pub fn bsr_weight_spmm_plan(bsr: &Bsr, feat: usize, efficiency: f64, name: &str) -> KernelPlan {
    let b = bsr.block();
    let elem = F16;
    let mut addr = AddressSpace::new();
    let vals = addr.alloc("vals", bsr.stored() as u64 * elem);
    let xb = addr.alloc("X", (bsr.cols() * feat) as u64 * elem);
    let yb = addr.alloc("Y", (bsr.rows() * feat) as u64 * elem);
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = 128;
    let bb = (b * b) as u64;
    for br in 0..bsr.block_rows() {
        let lo = bsr.indptr()[br];
        let hi = bsr.indptr()[br + 1];
        let nblk = hi - lo;
        let mut w = BlockWork::default();
        if nblk > 0 {
            w.tensor_flops = 2.0 * (nblk * b * b * feat) as f64 / efficiency;
            w.reads.push(AccessRange::new(vals + lo as u64 * bb * elem, nblk as u64 * bb * elem));
            for &bc in &bsr.indices()[lo..hi] {
                w.reads.push(AccessRange::new(
                    xb + (bc as usize * b * feat) as u64 * elem,
                    (b * feat) as u64 * elem,
                ));
            }
            w.shared_bytes = (nblk * b * b + b * feat) as f64 * elem as f64;
        }
        // Output rows written (zeroed) regardless of emptiness.
        w.writes
            .push(AccessRange::new(yb + (br * b * feat) as u64 * elem, (b * feat) as u64 * elem));
        plan.blocks.push(w);
    }
    plan
}

/// Plan for DBSR weight SpMM: only non-empty block rows launch compute
/// blocks; the zero rows are covered by a single cheap memset pass fused
/// into the same launch.
#[must_use]
pub fn dbsr_weight_spmm_plan(
    dbsr: &Dbsr,
    rows: usize,
    feat: usize,
    efficiency: f64,
    name: &str,
) -> KernelPlan {
    let b = dbsr.block();
    let elem = F16;
    let mut addr = AddressSpace::new();
    let vals = addr.alloc("vals", (dbsr.nblocks() * b * b) as u64 * elem);
    let xb = addr.alloc("X", (dbsr.cols() * feat) as u64 * elem);
    let yb = addr.alloc("Y", (rows * feat) as u64 * elem);
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = 128;
    let bb = (b * b) as u64;
    // Memset blocks covering the whole output (bandwidth-bound, spread
    // over the grid so no single block serializes).
    let zero_chunk = 64 * 1024u64;
    let total = (rows * feat) as u64 * elem;
    let mut off = 0u64;
    while off < total {
        let len = zero_chunk.min(total - off);
        let mut zero = BlockWork::default();
        zero.writes.push(AccessRange::new(yb + off, len));
        plan.blocks.push(zero);
        off += len;
    }
    for (ci, &br) in dbsr.block_row_ids().iter().enumerate() {
        let lo = dbsr.indptr()[ci];
        let hi = dbsr.indptr()[ci + 1];
        let nblk = hi - lo;
        let mut w = BlockWork {
            tensor_flops: 2.0 * (nblk * b * b * feat) as f64 / efficiency,
            ..Default::default()
        };
        w.reads.push(AccessRange::new(vals + lo as u64 * bb * elem, nblk as u64 * bb * elem));
        for &bc in &dbsr.indices()[lo..hi] {
            w.reads.push(AccessRange::new(
                xb + (bc as usize * b * feat) as u64 * elem,
                (b * feat) as u64 * elem,
            ));
        }
        w.writes.push(AccessRange::new(
            yb + (br as usize * b * feat) as u64 * elem,
            (b * feat) as u64 * elem,
        ));
        w.shared_bytes = (nblk * b * b + b * feat) as f64 * elem as f64;
        plan.blocks.push(w);
    }
    plan
}

/// Plan for SR-BCRS(t, g) weight SpMM on tensor cores (Figure 18's
/// schedule): per tile-row, groups of `g` tiles are gathered to registers
/// and fed to `m8n32k16`-shaped MMAs.
#[must_use]
pub fn srbcrs_weight_spmm_plan(s: &SrBcrs, feat: usize, efficiency: f64, name: &str) -> KernelPlan {
    let elem = F16;
    let t = s.t();
    let g = s.g();
    let mut addr = AddressSpace::new();
    let vals = addr.alloc("vals", s.stored() as u64 * elem);
    let cols = addr.alloc("cols", s.stored_tiles() as u64 * 4);
    let xb = addr.alloc("X", (s.cols() * feat) as u64 * elem);
    let yb = addr.alloc("Y", (s.rows() * feat) as u64 * elem);
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = 128;
    for tr in 0..s.tile_rows() {
        let glo = s.group_indptr()[tr];
        let ghi = s.group_indptr()[tr + 1];
        let mut w = BlockWork::default();
        let ntiles = (ghi - glo) * g;
        // Each group of g tiles contributes a t × feat × g MMA.
        w.tensor_flops = 2.0 * (ntiles * t * feat) as f64 / efficiency;
        w.reads
            .push(AccessRange::new(vals + (glo * g * t) as u64 * elem, (ntiles * t) as u64 * elem));
        w.reads.push(AccessRange::new(cols + (glo * g) as u64 * 4, ntiles as u64 * 4));
        for tile in glo * g..ghi * g {
            let c = s.tile_cols()[tile];
            w.reads
                .push(AccessRange::new(xb + (c as usize * feat) as u64 * elem, feat as u64 * elem));
        }
        w.writes
            .push(AccessRange::new(yb + (tr * t * feat) as u64 * elem, (t * feat) as u64 * elem));
        w.shared_bytes = (ntiles * t + g * feat) as f64 * elem as f64;
        plan.blocks.push(w);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;

    #[test]
    fn dbsr_beats_bsr_with_many_zero_rows() {
        // Fig. 17's effect: block-pruned weights have many all-zero rows.
        let mut rng = gen::rng(41);
        let w = gen::random_block_sparse(1024, 1024, 32, 0.05, 0.5, &mut rng);
        let bsr = Bsr::from_csr(&w, 32).unwrap();
        assert!(bsr.zero_block_rows() > bsr.block_rows() / 4);
        let dbsr = Dbsr::from_bsr(&bsr);
        let spec = GpuSpec::v100();
        let rb =
            simulate_kernel(&spec, &bsr_weight_spmm_plan(&bsr, 512, PRUNE_TC_EFFICIENCY, "bsr"));
        let rd = simulate_kernel(
            &spec,
            &dbsr_weight_spmm_plan(&dbsr, 1024, 512, PRUNE_TC_EFFICIENCY, "dbsr"),
        );
        assert!(rd.time_ms < rb.time_ms, "dbsr {} vs bsr {}", rd.time_ms, rb.time_ms);
    }

    #[test]
    fn srbcrs_beats_bsr_on_unstructured_weights() {
        // Fig. 19's effect: scattered non-zeros fragment 32×32 blocks but
        // not 8×1 tiles.
        let mut rng = gen::rng(43);
        let w = gen::random_csr(1024, 1024, 0.01, &mut rng); // unstructured
        let bsr = Bsr::from_csr(&w, 32).unwrap();
        let s = SrBcrs::from_csr(&w, 8, 32).unwrap();
        assert!(s.stored() < bsr.stored() / 2, "{} vs {}", s.stored(), bsr.stored());
        let spec = GpuSpec::v100();
        let rb =
            simulate_kernel(&spec, &bsr_weight_spmm_plan(&bsr, 512, PRUNE_TC_EFFICIENCY, "bsr"));
        let rs = simulate_kernel(
            &spec,
            &srbcrs_weight_spmm_plan(&s, 512, PRUNE_TC_EFFICIENCY, "srbcrs"),
        );
        assert!(rs.time_ms < rb.time_ms, "srbcrs {} vs bsr {}", rs.time_ms, rb.time_ms);
    }

    #[test]
    fn plans_conserve_tensor_flops() {
        let mut rng = gen::rng(44);
        let w = gen::random_block_sparse(256, 256, 32, 0.1, 0.0, &mut rng);
        let bsr = Bsr::from_csr(&w, 32).unwrap();
        let p = bsr_weight_spmm_plan(&bsr, 128, 1.0, "b");
        let expect = 2.0 * bsr.stored() as f64 * 128.0;
        let got: f64 = p.blocks.iter().map(|b| b.tensor_flops).sum();
        assert!((got - expect).abs() / expect < 1e-9);
    }
}
