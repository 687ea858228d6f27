//! SpMM baselines of §4.2.1 (Figure 13): cuSPARSE, Sputnik, dgSPARSE
//! (GE-SpMM) and TACO, each modelled by its documented strategy on the
//! shared simulator so comparisons isolate strategy differences.

use crate::common::{SpmmCost, SpmmLayout, F32};
use crate::sddmm::{sddmm_plan, sddmm_row_parallel_plan, SddmmParams};
use crate::spmm::csr_spmm_plan;
use sparsetir_gpusim::prelude::*;
use sparsetir_kernels::prelude::CsrSpmmParams;
use sparsetir_smat::prelude::*;

/// cuSPARSE CSRMM: row-split work distribution (a warp per row group)
/// without compile-time load balancing, partial sums written through to
/// global memory between tiles (no register caching of the output across
/// the full row), scalar loads.
#[must_use]
pub fn cusparse_spmm_plan(a: &Csr, feat: usize) -> KernelPlan {
    let params =
        CsrSpmmParams { rows_per_block: 4, vec_width: 2, register_cache: false, threads: 128 };
    csr_spmm_plan(a, feat, params, "cusparse_csrmm")
}

/// Sputnik: 1-D tiling with vector loads and register-cached outputs, but
/// row-based scheduling (row swizzle helps yet long rows still dominate
/// their block).
#[must_use]
pub fn sputnik_spmm_plan(a: &Csr, feat: usize) -> KernelPlan {
    let params =
        CsrSpmmParams { rows_per_block: 2, vec_width: 4, register_cache: true, threads: 128 };
    csr_spmm_plan(a, feat, params, "sputnik_spmm")
}

/// dgSPARSE / GE-SpMM: coalesced row caching + vector loads, row-group
/// scheduling — the strongest CSR-single-format baseline.
#[must_use]
pub fn dgsparse_spmm_plan(a: &Csr, feat: usize) -> KernelPlan {
    let params =
        CsrSpmmParams { rows_per_block: 4, vec_width: 4, register_cache: true, threads: 128 };
    csr_spmm_plan(a, feat, params, "dgsparse_gespmm")
}

/// TACO (with the Senanayake et al. scheduling framework): supports
/// compile-time load balancing via non-zero splitting, but cannot cache
/// the partially aggregated result in registers (§4.2.1: "it does not
/// support caching the partially aggregated result in registers") and the
/// CSR irregularity prevents unrolling/vectorized loads.
#[must_use]
pub fn taco_spmm_plan(a: &Csr, feat: usize) -> KernelPlan {
    // Non-zero split: blocks of equal nnz (load-balanced)…
    let nnz_per_block = 256usize;
    let layout = SpmmLayout::new(a, feat, F32);
    let mut plan = KernelPlan::new("taco_spmm");
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
    for chunk0 in (0..a.nnz()).step_by(nnz_per_block) {
        let chunk = nnz_per_block.min(a.nnz() - chunk0);
        let cost = SpmmCost {
            nnz: chunk,
            feat,
            vec_width: 1,          // …but scalar loads
            register_cache: false, // …and write-through accumulation
            threads: 128,
        };
        let mut w = BlockWork {
            cuda_flops: cost.flops(),
            serial_insts: cost.serial_insts(),
            mlp_penalty: 1.5, // scalar loads limit outstanding requests
            ..Default::default()
        };
        w.reads.push(AccessRange::new(layout.indices + chunk0 as u64 * 4, chunk as u64 * 4));
        w.reads.push(AccessRange::new(layout.values + chunk0 as u64 * F32, chunk as u64 * F32));
        for e in chunk0..chunk0 + chunk {
            let col = a.indices()[e];
            w.reads.push(layout.b_row(col, feat, F32));
        }
        // Write-through accumulation to the output rows of this chunk.
        let r0 = row_of[chunk0] as usize;
        let r1 = row_of[chunk0 + chunk - 1] as usize;
        let mut out = layout.c_rows(r0, r1 - r0 + 1, feat, F32);
        out.bytes += cost.writeback_penalty_bytes(F32);
        w.writes.push(out);
        plan.blocks.push(w);
    }
    plan
}

/// SDDMM baselines of §4.2.2 (Figure 14).
pub mod sddmm {
    use super::*;

    /// DGL (FeatGraph-optimized) SDDMM — the Figure 14 baseline: row
    /// parallel with feature-dim parallelization, no two-stage reduction,
    /// moderate vectorization.
    #[must_use]
    pub fn dgl_plan(a: &Csr, feat: usize) -> KernelPlan {
        let params =
            SddmmParams { nnz_per_block: 32, vec_width: 2, two_stage: false, threads: 128 };
        sddmm_row_parallel_plan(a, feat, params, 4, "dgl_featgraph_sddmm")
    }

    /// dgSPARSE (PRedS) SDDMM with CSR input: vectorized loads + two-stage
    /// reduction, fixed (untuned) group size.
    #[must_use]
    pub fn dgsparse_csr_plan(a: &Csr, feat: usize) -> KernelPlan {
        let params = SddmmParams { nnz_per_block: 16, vec_width: 4, two_stage: true, threads: 128 };
        sddmm_plan(a, feat, params, "dgsparse_preds_csr")
    }

    /// dgSPARSE (PRedS) SDDMM with COO input: same compute strategy, plus
    /// explicit row indices traffic.
    #[must_use]
    pub fn dgsparse_coo_plan(a: &Csr, feat: usize) -> KernelPlan {
        let params = SddmmParams { nnz_per_block: 16, vec_width: 4, two_stage: true, threads: 128 };
        let mut plan = sddmm_plan(a, feat, params, "dgsparse_preds_coo");
        // COO reads one extra 4-byte row index per non-zero.
        for b in &mut plan.blocks {
            if let Some(first) = b.reads.first().copied() {
                b.reads.push(AccessRange::new(first.addr + (1 << 26), first.bytes));
            }
        }
        plan
    }

    /// TACO-scheduled SDDMM: non-zero parallel, but no `rfactor` (the
    /// provenance-graph IR cannot express multi-branch reductions, §4.2.2)
    /// and no vectorized loads.
    #[must_use]
    pub fn taco_plan(a: &Csr, feat: usize) -> KernelPlan {
        let params =
            SddmmParams { nnz_per_block: 32, vec_width: 1, two_stage: false, threads: 128 };
        sddmm_plan(a, feat, params, "taco_sddmm")
    }

    /// cuSPARSE constrained-SDDMM: dense-oriented implementation that
    /// processes the sparse pattern as tiles of the dense product — pays
    /// for a large fraction of the dense FLOPs at graph-level sparsity
    /// (§4.2.2: "not optimized for highly sparse matrices").
    #[must_use]
    pub fn cusparse_plan(a: &Csr, feat: usize) -> KernelPlan {
        // Processes 32×32 output tiles where any non-zero exists, in
        // tile-row-major order: the plan is a pure function of the matrix.
        let tile = 32usize;
        let mut touched = std::collections::BTreeSet::new();
        for r in 0..a.rows() {
            for &c in a.row(r).0 {
                touched.insert((r / tile, c as usize / tile));
            }
        }
        let mut plan = KernelPlan::new("cusparse_sddmm");
        plan.threads_per_block = 128;
        let mut addr = AddressSpace::new();
        let x = addr.alloc("X", (a.rows() * feat) as u64 * 4);
        let y = addr.alloc("Yt", (a.cols() * feat) as u64 * 4);
        let o = addr.alloc("out", a.nnz() as u64 * 4);
        for &(tr, tc) in &touched {
            // dense tile work
            let mut w =
                BlockWork { cuda_flops: 2.0 * (tile * tile * feat) as f64, ..Default::default() };
            w.reads.push(AccessRange::new(
                x + (tr * tile * feat) as u64 * 4,
                (tile * feat) as u64 * 4,
            ));
            w.reads.push(AccessRange::new(
                y + (tc * tile * feat) as u64 * 4,
                (tile * feat) as u64 * 4,
            ));
            w.writes.push(AccessRange::new(o, (tile * tile) as u64 * 4));
            plan.blocks.push(w);
        }
        plan
    }

    /// Sputnik SDDMM: like cuSPARSE, tuned for moderate (ML) sparsity —
    /// 1-D row tiles that densify at graph sparsity.
    #[must_use]
    pub fn sputnik_plan(a: &Csr, feat: usize) -> KernelPlan {
        let mut plan = cusparse_plan(a, feat);
        plan.name = "sputnik_sddmm".to_string();
        // Slightly better vectorization than cuSPARSE's generic path.
        for b in &mut plan.blocks {
            b.cuda_flops *= 0.7;
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::hyb_spmm_time;
    use rand::Rng;
    use sparsetir_smat::gen;

    fn power_law(rows: usize, seed: u64) -> Csr {
        let mut rng = gen::rng(seed);
        gen::random_csr_with_row_lengths(
            rows,
            rows,
            |r| {
                let u: f64 = r.gen_range(0.0..1.0);
                ((1.0 / (u + 0.003)).powf(0.85) as usize).clamp(1, rows / 2)
            },
            &mut rng,
        )
    }

    #[test]
    fn figure13_ordering_holds_on_power_law_graphs() {
        // Expected ordering on skewed graphs: hyb < gespmm ≲ sputnik <
        // cusparse (time; i.e. speedups reversed).
        let a = power_law(3000, 71);
        let feat = 64;
        let spec = GpuSpec::v100();
        let cusparse = simulate_kernel(&spec, &cusparse_spmm_plan(&a, feat)).time_ms;
        let sputnik = simulate_kernel(&spec, &sputnik_spmm_plan(&a, feat)).time_ms;
        let dgsparse = simulate_kernel(&spec, &dgsparse_spmm_plan(&a, feat)).time_ms;
        let hyb = {
            let h = Hyb::with_default_k(&a, 2).unwrap();
            hyb_spmm_time(&spec, &h, feat, CsrSpmmParams::default()).time_ms
        };
        assert!(dgsparse < cusparse, "dgsparse {dgsparse} vs cusparse {cusparse}");
        assert!(sputnik < cusparse, "sputnik {sputnik} vs cusparse {cusparse}");
        assert!(hyb < dgsparse, "hyb {hyb} vs dgsparse {dgsparse}");
    }

    #[test]
    fn taco_trails_vendor_kernels_despite_load_balance() {
        // Figure 13 (V100): TACO lands at 0.4–0.8× of cuSPARSE — its
        // compile-time load balancing cannot compensate for write-through
        // accumulation and scalar loads.
        let a = power_law(3000, 5);
        let feat = 128;
        let spec = GpuSpec::v100();
        let taco = simulate_kernel(&spec, &taco_spmm_plan(&a, feat)).time_ms;
        let cusparse = simulate_kernel(&spec, &cusparse_spmm_plan(&a, feat)).time_ms;
        let dgsparse = simulate_kernel(&spec, &dgsparse_spmm_plan(&a, feat)).time_ms;
        assert!(taco > cusparse, "taco {taco} vs cusparse {cusparse}");
        assert!(taco < cusparse * 4.0, "taco {taco} vs cusparse {cusparse}");
        assert!(dgsparse < taco, "dgsparse {dgsparse} vs taco {taco}");
    }

    #[test]
    fn figure14_sddmm_ordering() {
        let a = power_law(2500, 79);
        let feat = 128;
        let spec = GpuSpec::v100();
        let dgl = simulate_kernel(&spec, &sddmm::dgl_plan(&a, feat)).time_ms;
        let dgsp = simulate_kernel(&spec, &sddmm::dgsparse_csr_plan(&a, feat)).time_ms;
        let taco = simulate_kernel(&spec, &sddmm::taco_plan(&a, feat)).time_ms;
        let cus = simulate_kernel(&spec, &sddmm::cusparse_plan(&a, feat)).time_ms;
        // SparseTIR at its default schedule; that the *tuned* schedule is
        // no slower than dgSPARSE's fixed one is asserted where the search
        // lives (`sparsetir_autotune`'s `tuned_sddmm_beats_the_fixed_schedules`).
        let stir =
            simulate_kernel(&spec, &sddmm_plan(&a, feat, SddmmParams::default(), "stir")).time_ms;
        // The nnz-parallel schedules beat DGL's row-parallel one; cuSPARSE
        // far behind (densified tiles at graph sparsity); TACO (no
        // `rfactor`, scalar loads) behind SparseTIR.
        assert!(stir < dgl, "sparsetir {stir} vs dgl {dgl}");
        assert!(dgsp < dgl, "dgsparse {dgsp} vs dgl {dgl}");
        assert!(cus > dgl * 2.0, "cusparse {cus} vs dgl {dgl}");
        assert!(taco > stir, "taco {taco} vs sparsetir {stir}");
    }

    /// Two builds of one matrix emit the same blocks, one per touched tile,
    /// in ascending `(tile_row, tile_col)` order — which the tile's `X` and
    /// `Yt` read addresses spell out.
    #[test]
    fn cusparse_sddmm_blocks_are_deterministic_and_tile_row_major() {
        let a = power_law(700, 83);
        let tiles = |plan: &KernelPlan| {
            let tile = |b: &BlockWork| (b.reads[0].addr, b.reads[1].addr);
            plan.blocks.iter().map(tile).collect::<Vec<_>>()
        };
        let (first, second) = (sddmm::cusparse_plan(&a, 16), sddmm::cusparse_plan(&a, 16));
        assert_eq!(format!("{:?}", first.blocks), format!("{:?}", second.blocks));
        let order = tiles(&first);
        assert!(order.len() > 1 && order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
    }
}
