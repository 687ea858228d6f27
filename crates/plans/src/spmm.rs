//! SparseTIR SpMM plans (§4.2.1): the GE-SpMM-style CSR schedule
//! (`SparseTIR(no-hyb)`) and the composable `hyb(c, k)` kernel
//! (`SparseTIR(hyb)`) with compile-time load balancing, priced on the GPU
//! model. The block decomposition mirrors the schedule parameters
//! ([`CsrSpmmParams`] / [`SpmmConfig`]) the executable kernels in
//! `sparsetir_kernels::spmm` read.

use crate::common::{SpmmCost, SpmmLayout, F32};
use sparsetir_gpusim::prelude::*;
use sparsetir_kernels::prelude::{CsrSpmmParams, SpmmConfig};
use sparsetir_smat::prelude::*;

/// Build the simulator plan for CSR SpMM under `params`.
#[must_use]
pub fn csr_spmm_plan(a: &Csr, feat: usize, params: CsrSpmmParams, name: &str) -> KernelPlan {
    let layout = SpmmLayout::new(a, feat, F32);
    let mut plan = KernelPlan::new(name);
    plan.threads_per_block = params.threads;
    let rpb = params.rows_per_block.max(1);
    for row0 in (0..a.rows()).step_by(rpb) {
        let rows = rpb.min(a.rows() - row0);
        let lo = a.indptr()[row0];
        let hi = a.indptr()[row0 + rows];
        let nnz = hi - lo;
        let cost = SpmmCost {
            nnz,
            feat,
            vec_width: params.vec_width,
            register_cache: params.register_cache,
            threads: params.threads,
        };
        let mut w = BlockWork {
            cuda_flops: cost.flops(),
            serial_insts: cost.serial_insts(),
            ..Default::default()
        };
        w.reads.push(AccessRange::new(layout.indptr + row0 as u64 * 4, (rows as u64 + 1) * 4));
        w.reads.push(AccessRange::new(layout.indices + lo as u64 * 4, nnz as u64 * 4));
        w.reads.push(AccessRange::new(layout.values + lo as u64 * F32, nnz as u64 * F32));
        for &col in &a.indices()[lo..hi] {
            w.reads.push(layout.b_row(col, feat, F32));
        }
        let mut c_range = layout.c_rows(row0, rows, feat, F32);
        c_range.bytes += cost.writeback_penalty_bytes(F32);
        w.writes.push(c_range);
        plan.blocks.push(w);
    }
    plan
}

/// Build the per-bucket plans for the `hyb(c, k)` SpMM (Figure 11's
/// format + the bucketing schedule: bucket `i` of each partition groups
/// `2^{k−i}` rows per thread block so every block covers `2^k` non-zeros).
#[must_use]
pub fn hyb_spmm_plans(hyb: &Hyb, feat: usize, params: CsrSpmmParams) -> Vec<KernelPlan> {
    let elem = F32;
    let mut plans = Vec::new();
    // Shared address space across all buckets: B and C are common.
    let mut addr = AddressSpace::new();
    let b_base = addr.alloc("B", hyb.cols() as u64 * feat as u64 * elem);
    let c_base = addr.alloc("C", hyb.rows() as u64 * feat as u64 * elem);
    let k = hyb.bucket_k();
    for (pi, part) in hyb.partitions().iter().enumerate() {
        for bucket in &part.buckets {
            if bucket.is_empty() {
                continue;
            }
            let width = bucket.width;
            let i = width.trailing_zeros(); // width is 2^i by construction
            let rows_per_block = (1usize << (k - i.min(k))).max(1);
            let name = format!("spmm_hyb_p{pi}_w{width}");
            let cols_name = format!("{name}_cols");
            let vals_name = format!("{name}_vals");
            let rows_name = format!("{name}_rows");
            let cols_base = addr.alloc(&cols_name, bucket.stored() as u64 * 4);
            let vals_base = addr.alloc(&vals_name, bucket.stored() as u64 * elem);
            let rows_base = addr.alloc(&rows_name, bucket.len() as u64 * 4);
            let mut plan = KernelPlan::new(name);
            plan.threads_per_block = params.threads;
            for r0 in (0..bucket.len()).step_by(rows_per_block) {
                let rows = rows_per_block.min(bucket.len() - r0);
                let nnz = rows * width;
                let cost = SpmmCost {
                    nnz,
                    feat,
                    vec_width: params.vec_width,
                    register_cache: params.register_cache,
                    threads: params.threads,
                };
                let mut w = BlockWork {
                    cuda_flops: cost.flops(),
                    serial_insts: cost.serial_insts(),
                    ..Default::default()
                };
                w.reads.push(AccessRange::new(rows_base + r0 as u64 * 4, rows as u64 * 4));
                w.reads.push(AccessRange::new(cols_base + (r0 * width) as u64 * 4, nnz as u64 * 4));
                w.reads.push(AccessRange::new(
                    vals_base + (r0 * width) as u64 * elem,
                    nnz as u64 * elem,
                ));
                for ri in 0..rows {
                    for j in 0..width {
                        let col = bucket.col_indices[(r0 + ri) * width + j];
                        w.reads.push(AccessRange::new(
                            b_base + u64::from(col) * feat as u64 * elem,
                            feat as u64 * elem,
                        ));
                    }
                    let out_row = bucket.row_ids[r0 + ri];
                    w.writes.push(AccessRange::new(
                        c_base + u64::from(out_row) * feat as u64 * elem,
                        feat as u64 * elem,
                    ));
                }
                plan.blocks.push(w);
            }
            plans.push(plan);
        }
    }
    plans
}

/// Simulated time (ms) of the hyb SpMM with horizontal fusion (§3.5).
#[must_use]
pub fn hyb_spmm_time(
    spec: &GpuSpec,
    hyb: &Hyb,
    feat: usize,
    params: CsrSpmmParams,
) -> KernelReport {
    let plans = hyb_spmm_plans(hyb, feat, params);
    simulate_fused(spec, &plans, "spmm_hyb_fused")
}

/// Simulator plans for a tuned SpMM configuration: one CSR plan, or the
/// per-bucket hyb plans of the decomposed format.
#[must_use]
pub fn tuned_spmm_plans(a: &Csr, feat: usize, config: &SpmmConfig, name: &str) -> Vec<KernelPlan> {
    match config.col_parts.and_then(|c| Hyb::from_csr(a, c, config.bucket_k).ok()) {
        Some(hyb) => hyb_spmm_plans(&hyb, feat, config.params),
        None => vec![csr_spmm_plan(a, feat, config.params, name)],
    }
}

/// Simulated time of a tuned SpMM configuration (hyb buckets horizontally
/// fused, as §3.5 prescribes).
#[must_use]
pub fn tuned_spmm_time(spec: &GpuSpec, a: &Csr, feat: usize, config: &SpmmConfig) -> KernelReport {
    let plans = tuned_spmm_plans(a, feat, config, "spmm_tuned");
    if config.col_parts.is_some() {
        simulate_fused(spec, &plans, "spmm_tuned_fused")
    } else {
        simulate_kernel(spec, &plans[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;

    fn power_law_csr(rows: usize, cols: usize, seed: u64) -> Csr {
        let mut rng = gen::rng(seed);
        gen::random_csr_with_row_lengths(
            rows,
            cols,
            |r| {
                use rand::Rng;
                // Heavy-tailed: most rows short, a few huge.
                let u: f64 = r.gen_range(0.0..1.0);
                ((1.0 / (u + 0.002)).powf(0.9) as usize).clamp(1, cols / 2)
            },
            &mut rng,
        )
    }

    /// A decomposition that cannot be built (here `k = 64`) prices as the
    /// plain CSR kernel: the executable path reports it as a typed error,
    /// the pricing path keeps its CSR fallback.
    #[test]
    fn failed_decomposition_prices_as_csr() {
        let mut rng = gen::rng(54);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let config =
            SpmmConfig { col_parts: Some(1), bucket_k: 64, params: CsrSpmmParams::default() };
        let plans = tuned_spmm_plans(&a, 2, &config, "fallback");
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].name, "fallback");
    }

    #[test]
    fn plan_flops_match_nnz() {
        let mut rng = gen::rng(6);
        let a = gen::random_csr(64, 64, 0.1, &mut rng);
        let plan = csr_spmm_plan(&a, 32, CsrSpmmParams::default(), "t");
        let expect = 2.0 * a.nnz() as f64 * 32.0;
        assert!((plan.total_flops() - expect).abs() < 1e-6);
    }

    #[test]
    fn hyb_beats_csr_on_power_law_graphs() {
        // The headline effect of Fig. 13: bucketed hyb wins on skewed
        // degree distributions through compile-time load balancing.
        let spec = GpuSpec::v100();
        let a = power_law_csr(2000, 2000, 7);
        let (max, mean, _) = a.degree_stats();
        assert!(max as f64 > mean * 10.0, "graph should be skewed: max={max} mean={mean}");
        let feat = 64;
        let csr_time =
            simulate_kernel(&spec, &csr_spmm_plan(&a, feat, CsrSpmmParams::default(), "csr"));
        let hyb = Hyb::with_default_k(&a, 1).unwrap();
        let hyb_time = hyb_spmm_time(&spec, &hyb, feat, CsrSpmmParams::default());
        assert!(
            hyb_time.time_ms < csr_time.time_ms,
            "hyb {} vs csr {}",
            hyb_time.time_ms,
            csr_time.time_ms
        );
    }

    #[test]
    fn column_partitioning_improves_l2_hit_rate() {
        // Fig. 12's effect: more column partitions → better locality on B.
        let spec = GpuSpec::v100();
        let a = power_law_csr(4000, 4000, 11);
        let feat = 128;
        let h1 = Hyb::from_csr(&a, 1, 3).unwrap();
        let h8 = Hyb::from_csr(&a, 8, 3).unwrap();
        let r1 = hyb_spmm_time(&spec, &h1, feat, CsrSpmmParams::default());
        let r8 = hyb_spmm_time(&spec, &h8, feat, CsrSpmmParams::default());
        assert!(r8.l2_hit_rate > r1.l2_hit_rate, "l2 {} vs {}", r8.l2_hit_rate, r1.l2_hit_rate);
    }

    #[test]
    fn register_caching_matters() {
        let spec = GpuSpec::v100();
        let a = power_law_csr(1000, 1000, 13);
        let cached = csr_spmm_plan(&a, 64, CsrSpmmParams::default(), "cached");
        let uncached = csr_spmm_plan(
            &a,
            64,
            CsrSpmmParams { register_cache: false, ..Default::default() },
            "uncached",
        );
        let rc = simulate_kernel(&spec, &cached);
        let ru = simulate_kernel(&spec, &uncached);
        assert!(ru.time_ms > rc.time_ms);
    }
}

#[cfg(test)]
mod crosscheck_tests {
    use super::*;
    use sparsetir_core::prelude::*;
    use sparsetir_ir::prelude::*;
    use sparsetir_smat::gen;
    use std::collections::HashMap;

    /// The plan's block decomposition mirrors the IR schedule of the
    /// kernel it prices (README §Crate map, `crates/plans`): the plan's
    /// total FLOPs equal the FLOPs the interpreter actually executes for
    /// the lowered kernel.
    #[test]
    fn plan_flops_match_interpreted_ir_flops() {
        let mut rng = gen::rng(77);
        let a = gen::random_csr(24, 20, 0.2, &mut rng);
        let feat = 6;
        let plan = csr_spmm_plan(&a, feat, CsrSpmmParams::default(), "xcheck");

        let program = spmm_program(a.rows(), a.cols(), a.nnz(), feat);
        let func = lower(&program).expect("lowers");
        let mut bindings = Bindings::new();
        bind_csr(&mut bindings, "A", "J", &a);
        let x = gen::random_dense(a.cols(), feat, &mut rng);
        bind_dense(&mut bindings, "B", &x);
        bind_zeros(&mut bindings, "C", a.rows() * feat);
        let counts = count_ops(&func, &HashMap::new(), &bindings).expect("counts");
        // IR executes exactly mul+add per (nnz, k): 2·nnz·feat flops.
        assert!(
            (counts.flops - plan.total_flops()).abs() < 1e-9,
            "ir {} vs plan {}",
            counts.flops,
            plan.total_flops()
        );
        // And the block decomposition covers every row group.
        assert_eq!(plan.blocks.len(), a.rows().div_ceil(4));
    }

    /// The hyb plan's FLOPs equal 2·stored·feat (padding included), which
    /// exceeds the CSR plan's FLOPs by exactly the padding.
    #[test]
    fn hyb_plan_flops_account_for_padding() {
        let mut rng = gen::rng(78);
        let a = gen::random_csr(32, 32, 0.15, &mut rng);
        let feat = 4;
        let hyb = Hyb::with_default_k(&a, 2).unwrap();
        let plans = hyb_spmm_plans(&hyb, feat, CsrSpmmParams::default());
        let total: f64 = plans.iter().map(|p| p.total_flops()).sum();
        let expect = 2.0 * hyb.stored() as f64 * feat as f64;
        assert!((total - expect).abs() < 1e-9, "{total} vs {expect}");
        assert!(total >= 2.0 * a.nnz() as f64 * feat as f64);
    }
}
