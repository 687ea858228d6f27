//! Criterion benches over the kernel families of the evaluation: each
//! group measures the wall-clock cost of building + simulating the
//! kernel plans that the figure harnesses sweep (the simulator being this
//! reproduction's substituted "hardware"), plus the functional reference
//! computations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparsetir_baselines::prelude::*;
use sparsetir_core::prelude::*;
use sparsetir_gpusim::prelude::*;
use sparsetir_graphs::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_kernels::prelude::*;
use sparsetir_kernels::sparse_conv::ConvMaps;
use sparsetir_smat::prelude::*;
use std::collections::HashMap;

/// Interpreter vs compiled executor on the lowered CSR SpMM kernel at the
/// paper's default sizes (Table 1 graph, d ∈ {32, 128}). The compiled
/// numbers go through a pre-populated kernel cache, so they measure the
/// amortized compile-once/run-many path; `compile_plus_run` measures the
/// cold path. Informational: how far the executor is from the machine is
/// `stbench`'s `native_ratio`.
fn bench_executor(c: &mut Criterion) {
    let g = graph_by_name("cora").expect("registered").generate();
    let mut group = c.benchmark_group("executor");
    group.sample_size(10);
    for feat in [32usize, 128] {
        let f = csr_spmm_ir(&g, feat).expect("lowers");
        let runtime = Runtime::new();
        let kernel = runtime.compile(&f).expect("compiles");
        let mut rng = gen::rng(3);
        let x = gen::random_dense(g.cols(), feat, &mut rng);
        let mut bindings = Bindings::new();
        bind_csr(&mut bindings, "A", "J", &g);
        bind_dense(&mut bindings, "B", &x);
        bind_zeros(&mut bindings, "C", g.rows() * feat);
        let no_scalars = HashMap::new();
        group.bench_with_input(BenchmarkId::new("interpreter", feat), &feat, |b, _| {
            b.iter(|| eval_func(&f, &no_scalars, &mut bindings).expect("interprets"))
        });
        group.bench_with_input(BenchmarkId::new("compiled_fused", feat), &feat, |b, _| {
            b.iter(|| kernel.run(&no_scalars, &mut bindings).expect("executes"))
        });
        group.bench_with_input(BenchmarkId::new("compile_plus_run", feat), &feat, |b, _| {
            b.iter(|| {
                let k = Runtime::new().compile(&f).expect("compiles");
                k.run(&no_scalars, &mut bindings).expect("executes")
            })
        });
    }
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let g = graph_by_name("cora").expect("registered").generate();
    let spec = GpuSpec::v100();
    let mut group = c.benchmark_group("spmm");
    group.sample_size(20);
    for feat in [32usize, 128] {
        group.bench_with_input(BenchmarkId::new("csr_sim", feat), &feat, |b, &d| {
            b.iter(|| simulate_kernel(&spec, &csr_spmm_plan(&g, d, CsrSpmmParams::default(), "b")))
        });
        group.bench_with_input(BenchmarkId::new("hyb_sim", feat), &feat, |b, &d| {
            let hyb = Hyb::with_default_k(&g, 2).unwrap();
            b.iter(|| hyb_spmm_time(&spec, &hyb, d, CsrSpmmParams::default()))
        });
        group.bench_with_input(BenchmarkId::new("reference", feat), &feat, |b, &d| {
            let mut rng = gen::rng(1);
            let x = gen::random_dense(g.cols(), d, &mut rng);
            b.iter(|| g.spmm(&x).unwrap())
        });
    }
    group.finish();
}

fn bench_sddmm(c: &mut Criterion) {
    let g = graph_by_name("citeseer").expect("registered").generate();
    let spec = GpuSpec::v100();
    let mut group = c.benchmark_group("sddmm");
    group.sample_size(20);
    group.bench_function("sparsetir_sim", |b| {
        b.iter(|| simulate_kernel(&spec, &sddmm_plan(&g, 64, SddmmParams::default(), "b")))
    });
    group
        .bench_function("dgl_sim", |b| b.iter(|| simulate_kernel(&spec, &sddmm::dgl_plan(&g, 64))));
    group.bench_function("reference", |b| {
        let mut rng = gen::rng(2);
        let x = gen::random_dense(g.rows(), 64, &mut rng);
        let y = gen::random_dense(64, g.cols(), &mut rng);
        b.iter(|| g.sddmm(&x, &y).unwrap())
    });
    group.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mask = band_mask(1024, 128);
    let bsr = Bsr::from_csr(&mask, 32).unwrap();
    let spec = GpuSpec::v100();
    let mut group = c.benchmark_group("attention");
    group.sample_size(20);
    group.bench_function("bsr_tc_sim", |b| {
        b.iter(|| {
            simulate_kernel(
                &spec,
                &batched_bsr_spmm_plan(&bsr, 64, 8, SPARSETIR_BSR_EFFICIENCY, "b"),
            )
        })
    });
    group.bench_function("triton_sim", |b| {
        b.iter(|| simulate_kernel(&spec, &triton_blocksparse_spmm_plan(&mask, 64, 8)))
    });
    group.finish();
}

fn bench_rgms(c: &mut Criterion) {
    let spec_g = hetero_by_name("AIFB").expect("registered");
    let layer_rels = spec_g.generate();
    let w = RgmsWorkload { relations: layer_rels, din: 32, dout: 32 };
    let spec = GpuSpec::v100();
    let mut group = c.benchmark_group("rgms");
    group.sample_size(10);
    group.bench_function("hyb_tc_sim", |b| {
        b.iter(|| simulate_kernel(&spec, &rgms_hyb_plan(&w, 5, true, "b")))
    });
    group.bench_function("two_stage_sim", |b| {
        b.iter(|| simulate_sequence(&spec, &rgms_two_stage_plans(&w, 0.85, true, "b")))
    });
    group.finish();
}

fn bench_sparse_conv(c: &mut Criterion) {
    let cloud = VoxelCloud::synthetic(4000, 8, 1);
    let maps = ConvMaps { sites: cloud.len(), pairs: cloud.kernel_maps() };
    let spec = GpuSpec::v100();
    let mut group = c.benchmark_group("sparse_conv");
    group.sample_size(10);
    for ch in [32usize, 128] {
        group.bench_with_input(BenchmarkId::new("fused_sim", ch), &ch, |b, &ch| {
            b.iter(|| simulate_kernel(&spec, &sparsetir_conv_plan(&maps, ch, ch, "b")))
        });
        group.bench_with_input(BenchmarkId::new("torchsparse_sim", ch), &ch, |b, &ch| {
            b.iter(|| simulate_sequence(&spec, &torchsparse_plans(&maps, ch, ch)))
        });
    }
    group.finish();
}

fn bench_formats(c: &mut Criterion) {
    let g = graph_by_name("pubmed").expect("registered").generate();
    let mut group = c.benchmark_group("format_conversion");
    group.sample_size(20);
    group.bench_function("hyb_from_csr", |b| b.iter(|| Hyb::with_default_k(&g, 4).unwrap()));
    group.bench_function("bsr_from_csr", |b| {
        let mask = band_mask(1024, 128);
        b.iter(|| Bsr::from_csr(&mask, 32).unwrap())
    });
    group.bench_function("srbcrs_from_csr", |b| {
        let w = movement_pruned_weight(768, 768, 0.06, 3);
        b.iter(|| SrBcrs::from_csr(&w, 8, 32).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_executor,
    bench_spmm,
    bench_sddmm,
    bench_attention,
    bench_rgms,
    bench_sparse_conv,
    bench_formats
);
criterion_main!(benches);
