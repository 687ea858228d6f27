//! One module per paper table/figure; each `run()` returns the rendered
//! report (the same rows/series the paper plots), and [`ALL`] is the one
//! table of them the `experiments` binary and the smoke test iterate.
//! Experiments that time real executions assert their behaviours
//! in-process (served results vs references, `bytes_copied == 0`, and —
//! under `SPARSETIR_BENCH_ASSERT` — their bars); the printed table is
//! their only output.

use crate::util::*;
use sparsetir_autotune::{tune_sddmm, tune_spmm};
use sparsetir_gpusim::prelude::*;
use sparsetir_graphs::prelude::*;
use sparsetir_kernels::prelude::*;
use sparsetir_nn::prelude::*;
use sparsetir_plans::prelude::*;
use sparsetir_smat::prelude::*;

/// True when `SPARSETIR_SMOKE` is set: every sweep shrinks to a small
/// representative subset so `experiments` executes end to end in
/// seconds (used by CI and the smoke integration test). Full sweeps stay
/// the default.
#[must_use]
pub fn smoke() -> bool {
    std::env::var_os("SPARSETIR_SMOKE").is_some()
}

/// The paper's two evaluation GPUs (smoke: V100 only).
#[must_use]
pub fn gpus() -> Vec<GpuSpec> {
    if smoke() {
        vec![GpuSpec::v100()]
    } else {
        vec![GpuSpec::v100(), GpuSpec::rtx3070()]
    }
}

/// Feature-size sweep of §4.2 (`d ∈ {32, 64, 128, 256, 512}`; smoke:
/// `{32, 128}`).
#[must_use]
pub fn feat_sweep() -> Vec<usize> {
    if smoke() {
        vec![32, 128]
    } else {
        vec![32, 64, 128, 256, 512]
    }
}

/// Graphs the sweep-style experiments iterate (smoke: the two smallest
/// Table 1 graphs).
#[must_use]
pub fn bench_graphs() -> Vec<GraphSpec> {
    let mut graphs = table1_graphs();
    if smoke() {
        graphs.truncate(2);
    }
    graphs
}

/// Heterographs the RGCN experiments iterate (smoke: first two).
#[must_use]
pub fn bench_hetero_graphs() -> Vec<HeteroSpec> {
    let mut graphs = table2_graphs();
    if smoke() {
        graphs.truncate(2);
    }
    graphs
}

/// Every experiment by name, in report order: what the `experiments`
/// binary runs (all of it without arguments, the named ones otherwise).
#[allow(clippy::type_complexity)] // a (name, run) pair; an alias would be a second public name
pub const ALL: &[(&str, fn() -> String)] = &[
    ("table1", table1::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig19", fig19::run),
    ("table2", table2::run),
    ("fig20", fig20::run),
    ("fig23", fig23::run),
    ("ablation_hfuse", ablation_hfuse::run),
    ("ablation_bucketing", ablation_bucketing::run),
    ("autotuning", autotuning::run),
    ("serving_throughput", serving_throughput::run),
    ("serving_slo", serving_slo::run),
    ("dynamic_graphs", dynamic_graphs::run),
    ("launch_probe", launch_probe::run),
];

pub mod launch_probe;

/// Table 1: graph statistics + %padding under the tuned hyb format.
pub mod table1 {
    use super::*;

    /// Render the table.
    #[must_use]
    pub fn run() -> String {
        let mut rows = Vec::new();
        for spec in table1_graphs() {
            let g = spec.generate();
            let hyb = Hyb::with_default_k(&g, 1).expect("c=1 valid");
            rows.push(vec![
                spec.name.to_string(),
                format!("{} (paper {})", g.rows(), spec.paper_nodes),
                format!("{} (paper {})", g.nnz(), spec.paper_edges),
                format!(
                    "{} (paper {})",
                    fmt_pct(hyb.padding_ratio() * 100.0),
                    fmt_pct(spec.paper_padding_pct)
                ),
                format!("{:.2}", spec.scale),
            ]);
        }
        render_table(
            "Table 1: GNN graph statistics (generated vs paper)",
            &["Graph", "#nodes", "#edges", "%padding", "scale"],
            &rows,
        )
    }
}

/// Figure 12: SpMM duration and L1/L2 hit rates vs #column partitions.
pub mod fig12 {
    use super::*;

    /// Render the sweep.
    ///
    /// The column-partition effect exists only when the dense operand
    /// exceeds L2 (on the real Reddit, `B` is 119 MB vs 6 MB of L2), so
    /// this experiment uses a larger reddit-like instance than the Table 1
    /// default: 28k nodes × d=128 → `B` ≈ 14 MB > L2.
    #[must_use]
    pub fn run() -> String {
        let spec = GpuSpec::v100();
        let g = GraphSpec {
            name: "reddit-fig12",
            paper_nodes: 232_965,
            paper_edges: 114_615_892 / 6,
            paper_padding_pct: 28.6,
            family: DegreeFamily::PowerLaw,
            scale: if smoke() { 0.02 } else { 0.12 },
            seed: 0xC6,
        }
        .generate();
        let feat = 128;
        let mut rows = Vec::new();
        for c in [1usize, 2, 4, 8, 16] {
            let hyb = Hyb::with_default_k(&g, c).expect("valid c");
            let r = hyb_spmm_time(&spec, &hyb, feat, CsrSpmmParams::default());
            rows.push(vec![
                c.to_string(),
                fmt_pct(r.l1_hit_rate * 100.0),
                fmt_pct(r.l2_hit_rate * 100.0),
                fmt_ms(r.time_ms),
                fmt_mb(r.dram_bytes),
            ]);
        }
        render_table(
            "Figure 12: SpMM vs #column partitions (reddit-like, d=128, V100)",
            &["#parts", "L1-hit", "L2-hit", "duration", "DRAM"],
            &rows,
        )
    }
}

/// Figure 13: SpMM speedup vs cuSPARSE across graphs and systems.
pub mod fig13 {
    use super::*;

    /// Systems reported, in figure order.
    pub const SYSTEMS: [&str; 6] =
        ["cuSPARSE", "Sputnik", "dgSPARSE", "TACO", "SparseTIR(no-hyb)", "SparseTIR(hyb)"];

    /// Per-system geomean speedups (vs cuSPARSE) for one graph.
    #[must_use]
    pub fn speedups(spec: &GpuSpec, g: &Csr) -> Vec<f64> {
        let feats = feat_sweep();
        let mut per_system: Vec<Vec<f64>> = vec![Vec::new(); SYSTEMS.len()];
        for &d in &feats {
            let base = simulate_kernel(spec, &cusparse_spmm_plan(g, d)).time_ms;
            let nohyb = tune_spmm_csr_only(spec, g, d);
            let hyb = tune_spmm(spec, g, d).report.time_ms;
            let times = [
                base,
                simulate_kernel(spec, &sputnik_spmm_plan(g, d)).time_ms,
                simulate_kernel(spec, &dgsparse_spmm_plan(g, d)).time_ms,
                simulate_kernel(spec, &taco_spmm_plan(g, d)).time_ms,
                nohyb,
                hyb,
            ];
            for (i, t) in times.iter().enumerate() {
                per_system[i].push(base / t);
            }
        }
        per_system.iter().map(|s| geomean(s)).collect()
    }

    fn tune_spmm_csr_only(spec: &GpuSpec, g: &Csr, d: usize) -> f64 {
        [
            CsrSpmmParams::default(),
            CsrSpmmParams { rows_per_block: 8, ..Default::default() },
            CsrSpmmParams { rows_per_block: 2, ..Default::default() },
        ]
        .iter()
        .map(|p| simulate_kernel(spec, &csr_spmm_plan(g, d, *p, "nohyb")).time_ms)
        .fold(f64::INFINITY, f64::min)
    }

    /// Render both GPUs.
    #[must_use]
    pub fn run() -> String {
        let mut out = String::new();
        for spec in gpus() {
            let mut rows = Vec::new();
            for gs in bench_graphs() {
                let g = gs.generate();
                let sp = speedups(&spec, &g);
                let mut row = vec![gs.name.to_string()];
                row.extend(sp.iter().map(|s| fmt_speedup(*s)));
                rows.push(row);
            }
            let mut headers = vec!["Graph"];
            headers.extend(SYSTEMS);
            out.push_str(&render_table(
                &format!("Figure 13: SpMM speedup vs cuSPARSE ({})", spec.name),
                &headers,
                &rows,
            ));
            out.push('\n');
        }
        out
    }
}

/// Figure 14: SDDMM speedup vs DGL (FeatGraph) across systems.
pub mod fig14 {
    use super::*;

    /// Systems reported, in figure order.
    pub const SYSTEMS: [&str; 7] =
        ["cuSPARSE", "Sputnik", "dgl", "dgSPARSE-csr", "dgSPARSE-coo", "TACO", "SparseTIR"];

    /// Per-system geomean speedups (vs DGL) for one graph.
    #[must_use]
    pub fn speedups(spec: &GpuSpec, g: &Csr) -> Vec<f64> {
        let mut per_system: Vec<Vec<f64>> = vec![Vec::new(); SYSTEMS.len()];
        for &d in &feat_sweep() {
            let base = simulate_kernel(spec, &sddmm::dgl_plan(g, d)).time_ms;
            let times = [
                simulate_kernel(spec, &sddmm::cusparse_plan(g, d)).time_ms,
                simulate_kernel(spec, &sddmm::sputnik_plan(g, d)).time_ms,
                base,
                simulate_kernel(spec, &sddmm::dgsparse_csr_plan(g, d)).time_ms,
                simulate_kernel(spec, &sddmm::dgsparse_coo_plan(g, d)).time_ms,
                simulate_kernel(spec, &sddmm::taco_plan(g, d)).time_ms,
                tune_sddmm(spec, g, d).report.time_ms,
            ];
            for (i, t) in times.iter().enumerate() {
                per_system[i].push(base / t);
            }
        }
        per_system.iter().map(|s| geomean(s)).collect()
    }

    /// Render both GPUs.
    #[must_use]
    pub fn run() -> String {
        let mut out = String::new();
        for spec in gpus() {
            let mut rows = Vec::new();
            for gs in bench_graphs() {
                let g = gs.generate();
                let sp = speedups(&spec, &g);
                let mut row = vec![gs.name.to_string()];
                row.extend(sp.iter().map(|s| fmt_speedup(*s)));
                rows.push(row);
            }
            let mut headers = vec!["Graph"];
            headers.extend(SYSTEMS);
            out.push_str(&render_table(
                &format!("Figure 14: SDDMM speedup vs DGL/FeatGraph ({})", spec.name),
                &headers,
                &rows,
            ));
            out.push('\n');
        }
        out
    }
}

/// Figure 15: end-to-end GraphSAGE training speedup vs DGL.
pub mod fig15 {
    use super::*;

    /// Render both GPUs (Reddit skipped on the 3070, as in the paper's
    /// OOM note).
    #[must_use]
    pub fn run() -> String {
        let dims = (128usize, 128usize, 16usize);
        let mut out = String::new();
        for spec in gpus() {
            let mut rows = Vec::new();
            for gs in bench_graphs() {
                if gs.name == "ogbn-proteins" {
                    continue; // not part of Figure 15
                }
                if gs.name == "reddit" && spec.name == "RTX3070" {
                    continue; // paper footnote 7: OOM on the 3070
                }
                let g = gs.generate();
                let model =
                    GraphSage::new(&g, dims.0, dims.1, dims.2, 0xF1).expect("model construction");
                let dgl = dgl_step_time(&spec, &model, dims);
                let stir = sparsetir_step_time(&spec, &model, dims);
                let tuned = tuned_step_time(&spec, &model, dims);
                rows.push(vec![
                    gs.name.to_string(),
                    fmt_ms(dgl),
                    fmt_ms(stir),
                    fmt_ms(tuned),
                    fmt_speedup(dgl / stir),
                    fmt_speedup(dgl / tuned),
                ]);
            }
            out.push_str(&render_table(
                &format!("Figure 15: GraphSAGE training step vs DGL ({})", spec.name),
                &["Graph", "DGL", "PyTorch+SparseTIR", "autotuned", "speedup", "tuned speedup"],
                &rows,
            ));
            out.push('\n');
        }
        out
    }
}

/// Figure 16: sparse-attention operators vs Triton.
pub mod fig16 {
    use super::*;

    /// Render both GPUs × both masks × both operators.
    #[must_use]
    pub fn run() -> String {
        let mut cfg = AttentionConfig::default();
        if smoke() {
            cfg.seq_len = 512;
            cfg.band = 64;
        }
        let band = band_mask(cfg.seq_len, cfg.band);
        let butterfly = butterfly_mask(cfg.seq_len, cfg.block);
        let mut out = String::new();
        for spec in gpus() {
            let mut rows = Vec::new();
            for (mask_name, mask) in [("Butterfly", &butterfly), ("Longformer", &band)] {
                let bsr = Bsr::from_csr(mask, cfg.block).expect("block > 0");
                for op in ["Multi-Head SpMM", "Multi-Head SDDMM"] {
                    let (triton, csr, bsr_t) = if op == "Multi-Head SpMM" {
                        (
                            simulate_kernel(
                                &spec,
                                &triton_blocksparse_spmm_plan(mask, cfg.feat, cfg.heads),
                            )
                            .time_ms,
                            simulate_kernel(
                                &spec,
                                &batched_csr_spmm_plan(mask, cfg.feat, cfg.heads, "csr"),
                            )
                            .time_ms,
                            simulate_kernel(
                                &spec,
                                &batched_bsr_spmm_plan(
                                    &bsr,
                                    cfg.feat,
                                    cfg.heads,
                                    SPARSETIR_BSR_EFFICIENCY,
                                    "bsr",
                                ),
                            )
                            .time_ms,
                        )
                    } else {
                        (
                            simulate_kernel(
                                &spec,
                                &triton_blocksparse_sddmm_plan(mask, cfg.feat, cfg.heads),
                            )
                            .time_ms,
                            simulate_kernel(
                                &spec,
                                &batched_csr_sddmm_plan(mask, cfg.feat, cfg.heads, "csr"),
                            )
                            .time_ms,
                            simulate_kernel(
                                &spec,
                                &batched_bsr_sddmm_plan(
                                    &bsr,
                                    cfg.feat,
                                    cfg.heads,
                                    SPARSETIR_BSR_EFFICIENCY,
                                    "bsr",
                                ),
                            )
                            .time_ms,
                        )
                    };
                    rows.push(vec![
                        op.to_string(),
                        mask_name.to_string(),
                        fmt_speedup(1.0),
                        fmt_speedup(triton / csr),
                        fmt_speedup(triton / bsr_t),
                    ]);
                }
            }
            out.push_str(&render_table(
                &format!(
                    "Figure 16: sparse attention speedup vs Triton ({}, seq={}, heads={}, band={}, d={})",
                    spec.name, cfg.seq_len, cfg.heads, cfg.band, cfg.feat
                ),
                &["Operator", "Pattern", "Triton", "SparseTIR-CSR", "SparseTIR-BSR"],
                &rows,
            ));
            out.push('\n');
        }
        out
    }
}

/// Figure 17: structured (block) pruning vs cuBLAS.
pub mod fig17 {
    use super::*;

    /// Render both GPUs.
    #[must_use]
    pub fn run() -> String {
        let (out_dim, in_dim, seq) =
            if smoke() { (768usize, 384usize, 128usize) } else { (3072usize, 768usize, 512usize) };
        let mut rendered = String::new();
        for spec in gpus() {
            let dense =
                simulate_kernel(&spec, &cublas_gemm_fp16_plan(out_dim, seq, in_dim)).time_ms;
            let mut rows = Vec::new();
            for (i, density) in figure17_densities().iter().enumerate() {
                let w = block_pruned_weight(out_dim, in_dim, *density, 0x17 + i as u64);
                let bsr = Bsr::from_csr(&w, 32).expect("block 32");
                let dbsr = Dbsr::from_bsr(&bsr);
                let t_bsr = simulate_kernel(
                    &spec,
                    &bsr_weight_spmm_plan(&bsr, seq, PRUNE_TC_EFFICIENCY, "bsr"),
                )
                .time_ms;
                let t_dbsr = simulate_kernel(
                    &spec,
                    &dbsr_weight_spmm_plan(&dbsr, out_dim, seq, PRUNE_TC_EFFICIENCY, "dbsr"),
                )
                .time_ms;
                let t_triton = simulate_kernel(&spec, &triton_bsrmm_plan(&bsr, seq)).time_ms;
                rows.push(vec![
                    format!("2^-{}", 7 - i),
                    fmt_speedup(dense / t_bsr),
                    fmt_speedup(dense / t_dbsr),
                    fmt_speedup(dense / t_triton),
                    fmt_speedup(1.0),
                ]);
            }
            rendered.push_str(&render_table(
                &format!(
                    "Figure 17: block-pruned SpMM speedup vs cuBLAS ({}, {}x{}, seq {})",
                    spec.name, out_dim, in_dim, seq
                ),
                &["Density", "SparseTIR(BSR)", "SparseTIR(DBSR)", "Triton", "cuBLAS"],
                &rows,
            ));
            rendered.push('\n');
        }
        rendered
    }
}

/// Figure 19: unstructured pruning vs cuBLAS + transformed-format density.
pub mod fig19 {
    use super::*;

    /// Render both GPUs plus the density panel.
    #[must_use]
    pub fn run() -> String {
        let (out_dim, in_dim, seq) =
            if smoke() { (768usize, 384usize, 128usize) } else { (3072usize, 768usize, 512usize) };
        let mut rendered = String::new();
        for spec in gpus() {
            let dense =
                simulate_kernel(&spec, &cublas_gemm_fp16_plan(out_dim, seq, in_dim)).time_ms;
            let mut rows = Vec::new();
            for (i, density) in figure19_densities().iter().enumerate() {
                let w = movement_pruned_weight(out_dim, in_dim, *density, 0x19 + i as u64);
                let s = SrBcrs::from_csr(&w, 8, 32).expect("valid t,g");
                let bsr = Bsr::from_csr(&w, 32).expect("block 32");
                let t_sr = simulate_kernel(
                    &spec,
                    &srbcrs_weight_spmm_plan(&s, seq, PRUNE_TC_EFFICIENCY, "srbcrs"),
                )
                .time_ms;
                let t_bsr = simulate_kernel(
                    &spec,
                    &bsr_weight_spmm_plan(&bsr, seq, PRUNE_TC_EFFICIENCY, "bsr"),
                )
                .time_ms;
                let t_cus = simulate_kernel(&spec, &cusparse_csrmm_fp16_plan(&w, seq)).time_ms;
                rows.push(vec![
                    format!("2^-{}", 7 - i),
                    fmt_speedup(dense / t_sr),
                    fmt_speedup(dense / t_bsr),
                    fmt_speedup(dense / t_cus),
                    fmt_speedup(1.0),
                    format!("{:.4}", s.stored_density()),
                    format!("{:.4}", bsr.stored_density()),
                ]);
            }
            rendered.push_str(&render_table(
                &format!(
                    "Figure 19: movement-pruned SpMM speedup vs cuBLAS ({}, {}x{}, seq {})",
                    spec.name, out_dim, in_dim, seq
                ),
                &[
                    "Density",
                    "SparseTIR(SR-BCRS)",
                    "SparseTIR(BSR)",
                    "cuSPARSE",
                    "cuBLAS",
                    "SR-BCRS(8,32) density",
                    "BSR(32) density",
                ],
                &rows,
            ));
            rendered.push('\n');
        }
        rendered
    }
}

/// Table 2: heterograph statistics + 3-D hyb %padding.
pub mod table2 {
    use super::*;

    /// Render the table.
    #[must_use]
    pub fn run() -> String {
        let mut rows = Vec::new();
        for spec in table2_graphs() {
            let rels = spec.generate();
            let total_edges: usize = rels.iter().map(Csr::nnz).sum();
            // 3-D hyb: bucket each relation with hyb(1, k) as in §4.4.1.
            let mut stored = 0usize;
            let mut nnz = 0usize;
            for rel in &rels {
                if rel.nnz() == 0 {
                    continue;
                }
                let h = Hyb::from_csr(rel, 1, 5).expect("c=1 valid");
                stored += h.stored();
                nnz += h.original_nnz();
            }
            let padding =
                if stored == 0 { 0.0 } else { (stored - nnz) as f64 / stored as f64 * 100.0 };
            rows.push(vec![
                spec.name.to_string(),
                format!("{} (paper {})", spec.nodes(), spec.paper_nodes),
                format!("{} (paper {})", total_edges, spec.paper_edges),
                spec.paper_etypes.to_string(),
                format!("{} (paper {})", fmt_pct(padding), fmt_pct(spec.paper_padding_pct)),
            ]);
        }
        render_table(
            "Table 2: heterogeneous graph statistics (generated vs paper)",
            &["Graph", "#nodes", "#edges", "#etypes", "%padding"],
            &rows,
        )
    }
}

/// Figure 20: RGCN inference speedup vs Graphiler + memory footprint.
pub mod fig20 {
    use super::*;

    /// Render both GPUs.
    #[must_use]
    pub fn run() -> String {
        let mut out = String::new();
        for spec in gpus() {
            let mut rows = Vec::new();
            for hs in bench_hetero_graphs() {
                let layer = RgcnLayer::new(hs.generate(), 32, 0x20);
                let ms = figure20_measurements(&spec, &layer);
                let graphiler = ms
                    .iter()
                    .find(|m| m.system == "Graphiler")
                    .expect("graphiler measured")
                    .time_ms;
                for m in &ms {
                    rows.push(vec![
                        hs.name.to_string(),
                        m.system.to_string(),
                        fmt_speedup(graphiler / m.time_ms),
                        fmt_ms(m.time_ms),
                        fmt_mb(m.footprint_bytes),
                    ]);
                }
            }
            out.push_str(&render_table(
                &format!("Figure 20: RGCN inference vs Graphiler ({}, feat 32)", spec.name),
                &["Graph", "System", "speedup", "time", "GPU memory"],
                &rows,
            ));
            out.push('\n');
        }
        out
    }
}

/// Figure 23: sparse convolution vs TorchSparse.
pub mod fig23 {
    use super::*;
    use sparsetir_plans::sparse_conv::ConvMaps;

    /// Render both GPUs.
    #[must_use]
    pub fn run() -> String {
        let sites = if smoke() { 4_000 } else { 20_000 };
        let cloud = VoxelCloud::synthetic(sites, 24, 0x23);
        let maps = ConvMaps { sites: cloud.len(), pairs: cloud.kernel_maps() };
        let mut out = String::new();
        for spec in gpus() {
            let mut rows = Vec::new();
            for (cin, cout) in figure23_channels() {
                let fused =
                    simulate_kernel(&spec, &sparsetir_conv_plan(&maps, cin, cout, "fused")).time_ms;
                let (_, ts) = simulate_sequence(&spec, &torchsparse_plans(&maps, cin, cout));
                rows.push(vec![
                    format!("{}", ((cin * cout) as f64).sqrt() as usize),
                    fmt_speedup(ts / fused),
                    fmt_speedup(1.0),
                    fmt_ms(fused),
                    fmt_ms(ts),
                ]);
            }
            out.push_str(&render_table(
                &format!(
                    "Figure 23: sparse conv speedup vs TorchSparse ({}, {} sites, 27 offsets)",
                    spec.name,
                    cloud.len()
                ),
                &[
                    "sqrt(Cin*Cout)",
                    "SparseTIR(TC)",
                    "TorchSparse",
                    "SparseTIR time",
                    "TorchSparse time",
                ],
                &rows,
            ));
            out.push('\n');
        }
        out
    }
}

/// Ablation: horizontal fusion on/off for the hyb SpMM (§3.5).
pub mod ablation_hfuse {
    use super::*;

    /// Render the comparison.
    #[must_use]
    pub fn run() -> String {
        let spec = GpuSpec::v100();
        let mut rows = Vec::new();
        for gs in bench_graphs() {
            let g = gs.generate();
            let hyb = Hyb::with_default_k(&g, 2).expect("c=2 valid");
            let plans = hyb_spmm_plans(&hyb, 64, CsrSpmmParams::default());
            let (_, unfused) = simulate_sequence(&spec, &plans);
            let fused = simulate_fused(&spec, &plans, "fused").time_ms;
            rows.push(vec![
                gs.name.to_string(),
                plans.len().to_string(),
                fmt_ms(unfused),
                fmt_ms(fused),
                fmt_speedup(unfused / fused),
            ]);
        }
        render_table(
            "Ablation: horizontal fusion of hyb SpMM kernels (V100, d=64)",
            &["Graph", "#kernels", "unfused", "fused", "speedup"],
            &rows,
        )
    }
}

/// Autotuning report: the joint format × schedule search of §2 on the GPU
/// simulator beside the rule that decides a served SpMM on the machine
/// that serves. Per graph, one [`SpmmMeasuredEvaluator::scores`] call on
/// one fresh `Runtime` times the whole launch of each `spmm_shortlist()`
/// config and of the simulator's pick; rows give the simulator's pick with
/// its measured time, the served pick (`pick_spmm` over the shortlist's
/// times) with its time, and the untuned CSR launch's. Graphs are cut to a
/// row slice so wall clock stays bounded (smoke-mode capped further).
///
/// [`SpmmMeasuredEvaluator::scores`]: sparsetir_kernels::tune::SpmmMeasuredEvaluator::scores
pub mod autotuning {
    use super::*;
    use sparsetir_autotune::spmm_sim_cache;
    use sparsetir_ir::prelude::Runtime;
    use sparsetir_kernels::tune::{pick_spmm, spmm_shortlist, SpmmMeasuredEvaluator};

    /// Render the comparison plus the simulator's `TuneCache` statistics.
    #[must_use]
    pub fn run() -> String {
        let spec = GpuSpec::v100();
        let feat = 32;
        let cap = if smoke() { 512 } else { 2048 };
        let mut rows = Vec::new();
        for gs in bench_graphs() {
            let g = gs.generate();
            let keep: Vec<u32> = (0..g.rows().min(cap) as u32).collect();
            let g = g.select_rows(&keep);
            let sim = tune_spmm(&spec, &g, feat);
            let shortlist = spmm_shortlist();
            let rt = Runtime::new();
            let scores = SpmmMeasuredEvaluator::new(&rt, &g, feat)
                .scores(&[&shortlist[..], &[sim.config]].concat());
            let seconds = |i: usize| scores[i].unwrap_or(f64::NAN);
            let timed: Vec<_> = shortlist.iter().copied().zip(scores.iter().copied()).collect();
            let served = pick_spmm(&timed);
            let at = shortlist.iter().position(|c| *c == served).expect("picked from the list");
            let (served_s, untuned_s) = (seconds(at), seconds(0));
            rows.push(vec![
                gs.name.to_string(),
                sim.config.label(),
                fmt_us(seconds(shortlist.len())),
                served.format_label(),
                fmt_us(served_s),
                fmt_us(untuned_s),
                fmt_speedup(untuned_s / served_s),
                sim.trials.to_string(),
            ]);
        }
        let mut out = render_table(
            &format!(
                "Autotuning: simulator-picked vs served (measured) SpMM configs \
                 (d={feat}, row cap {cap})"
            ),
            &[
                "Graph",
                "sim pick",
                "sim pick (measured)",
                "served pick",
                "served",
                "untuned",
                "gain",
                "sim trials",
            ],
            &rows,
        );
        out.push_str(&format!(
            "TuneCache: sim {} hits / {} misses\n",
            spmm_sim_cache().hits(),
            spmm_sim_cache().misses(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The `autotuning` module is exercised by the smoke integration test
    // (`tests/smoke_experiments.rs`), which owns its test binary and can
    // therefore set `SPARSETIR_SMOKE` without racing sibling tests.

    #[test]
    fn table1_renders_every_graph() {
        let t = table1::run();
        for g in table1_graphs() {
            assert!(t.contains(g.name), "missing {} in:\n{t}", g.name);
        }
        assert!(t.contains("%padding"));
    }

    #[test]
    fn table2_renders_every_heterograph() {
        let t = table2::run();
        for g in table2_graphs() {
            assert!(t.contains(g.name), "missing {} in:\n{t}", g.name);
        }
        assert!(t.contains("#etypes"));
    }

    #[test]
    fn fig12_shows_l2_improvement() {
        let t = fig12::run();
        assert!(t.contains("#parts"));
        // 5 sweep rows.
        for c in ["1 ", "2 ", "4 ", "8 ", "16"] {
            assert!(t.lines().any(|l| l.starts_with(c)), "missing row {c} in:\n{t}");
        }
    }
}

/// Ablation: bucketing on/off within hyb — fix the column partitioning and
/// compare power-of-two bucketing (`k = default`) against a single bucket
/// (`k = 0`, every row padded/split to width 1 blocks of uniform shape is
/// degenerate; instead compare against one max-width bucket via a large k
/// with no splitting benefit — i.e. bucketed vs the row-uniform extreme).
pub mod ablation_bucketing {
    use super::*;

    /// Render the comparison (V100, d=64).
    #[must_use]
    pub fn run() -> String {
        let spec = GpuSpec::v100();
        let mut rows = Vec::new();
        for gs in bench_graphs() {
            let g = gs.generate();
            let feat = 64;
            // Bucketed: the paper's default k.
            let bucketed = Hyb::with_default_k(&g, 1).expect("c=1");
            let tb = hyb_spmm_time(&spec, &bucketed, feat, CsrSpmmParams::default());
            // Unbucketed: one bucket wide enough for the largest row
            // (k = ⌈log2(max_degree)⌉) — maximal padding, uniform rows.
            let (max_deg, _, _) = g.degree_stats();
            let k_single = ceil_log2(max_deg.max(1));
            let single = Hyb::from_csr(&g, 1, k_single).expect("valid k");
            let ts = hyb_spmm_time(&spec, &single, feat, CsrSpmmParams::default());
            rows.push(vec![
                gs.name.to_string(),
                format!("{:.1}%", bucketed.padding_ratio() * 100.0),
                format!("{:.1}%", single.padding_ratio() * 100.0),
                fmt_ms(tb.time_ms),
                fmt_ms(ts.time_ms),
                fmt_speedup(ts.time_ms / tb.time_ms),
            ]);
        }
        render_table(
            "Ablation: power-of-two bucketing vs single max-width bucket (V100, d=64, c=1)",
            &["Graph", "bucketed pad", "single pad", "bucketed", "single", "bucketing gain"],
            &rows,
        )
    }
}

/// Serving throughput: requests/sec through the engine at 1/4/8 client
/// threads sharing one adjacency, and for one client with many tickets in
/// flight — for SpMM, SDDMM and fused attention, one launch per request.
/// Every arm must copy nothing; `stbench` judges speed.
pub mod serving_throughput {
    use super::*;
    use sparsetir_engine::{Adjacency, Engine, EngineConfig, EngineStats, OpRequest, Ticket};
    use std::sync::Arc;
    use std::time::Instant;

    /// An `n × n` adjacency with heavy-tailed row lengths (most rows
    /// short, a few up to `n / 2`).
    pub(super) fn power_law(n: usize, rng: &mut rand::rngs::SmallRng) -> Csr {
        gen::random_csr_with_row_lengths(
            n,
            n,
            |r| {
                use rand::Rng;
                let u: f64 = r.gen_range(0.0..1.0);
                ((2.0 / (u + 0.01)) as usize).clamp(1, n / 2)
            },
            rng,
        )
    }

    /// Tickets the fan-out client keeps in flight: it submits this many
    /// before it waits on them, as `stbench`'s loaded phase does.
    const FAN_OUT: usize = 16;

    /// Median mean-ns-per-request of three [`run_arm`] repetitions (the
    /// arms are short wall-clock windows on a shared machine; a single
    /// window is too noisy to report). Returns the stats of the median
    /// repetition.
    fn run_arm_median(
        adj: &Adjacency,
        payloads: &[Vec<OpRequest>],
        warm: &OpRequest,
        in_flight: usize,
    ) -> (f64, EngineStats) {
        let mut reps: Vec<(f64, EngineStats)> =
            (0..3).map(|_| run_arm(adj, payloads.to_vec(), warm.clone(), in_flight)).collect();
        reps.sort_by(|a, b| a.0.total_cmp(&b.0));
        reps.swap_remove(1)
    }

    /// One serving arm: one client thread per payload list, each issuing
    /// its requests with blocking submits against the shared adjacency
    /// through the engine's generic submit path, `in_flight` at a time,
    /// then waiting on them (1 is submit-then-wait). Returns mean
    /// wall-clock nanoseconds per request and the engine's counters over
    /// the timed window.
    fn run_arm(
        adj: &Adjacency,
        payloads: Vec<Vec<OpRequest>>,
        warm: OpRequest,
        in_flight: usize,
    ) -> (f64, EngineStats) {
        let engine = Arc::new(Engine::new(EngineConfig { workers: 1, queue_depth: 256 }));
        // Warm the single-request-shape kernel so the arm pays no
        // first-compile latency while timed (payloads were pre-generated
        // by the caller, so RNG cost is outside the window too).
        engine.serve(adj, warm).expect("warmup");
        let total: usize = payloads.iter().map(Vec::len).sum();
        let warmed = engine.stats();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for reqs in payloads {
                let (engine, adj) = (Arc::clone(&engine), adj.clone());
                s.spawn(move || {
                    let mut reqs = reqs.into_iter().peekable();
                    while reqs.peek().is_some() {
                        let wave: Vec<Ticket> = (&mut reqs)
                            .take(in_flight)
                            .map(|req| engine.submit(&adj, req).expect("admitted"))
                            .collect();
                        for t in wave {
                            t.wait().expect("request served");
                        }
                    }
                });
            }
        });
        let elapsed = t0.elapsed().as_nanos() as f64;
        (elapsed / total.max(1) as f64, engine.stats().delta_since(&warmed))
    }

    /// Sweep one op arm over 1/4/8 one-at-a-time clients, then one client
    /// with [`FAN_OUT`] tickets in flight and as many requests as the 8
    /// clients (row `1x16`), and return its table rows.
    ///
    /// # Panics
    /// Panics when an arm copied a byte: a count, so no wall clock decides
    /// it.
    fn sweep_op(
        adj: &Adjacency,
        op: &str,
        per_client: usize,
        mut make: impl FnMut() -> OpRequest,
    ) -> Vec<Vec<String>> {
        let warm = make();
        let mut rows = Vec::new();
        for (clients, in_flight) in [(1usize, 1usize), (4, 1), (8, 1), (1, FAN_OUT)] {
            let per = if in_flight == 1 { per_client } else { per_client * 8 };
            let payloads: Vec<Vec<OpRequest>> =
                (0..clients).map(|_| (0..per).map(|_| make()).collect()).collect();
            let (ns, stats) = run_arm_median(adj, &payloads, &warm, in_flight);
            let label =
                if in_flight == 1 { clients.to_string() } else { format!("{clients}x{in_flight}") };
            // The counter pins the arm to the view contract
            // regardless of the wall clock: operands and outputs are
            // bound in place, so a single copied byte is a regression.
            assert_eq!(
                stats.bytes_copied, 0,
                "{op} arm copied {} bytes at {label} clients",
                stats.bytes_copied
            );
            rows.push(vec![op.to_string(), label, format!("{:.0}", 1e9 / ns)]);
        }
        rows
    }

    /// Render the sweep.
    ///
    /// # Panics
    /// Panics when a served result disagrees with its reference (or
    /// served fused attention with the three-launch pipeline oracle, bit
    /// for bit), or when an arm copied a byte.
    #[must_use]
    pub fn run() -> String {
        // Full mode serves a mid-size graph: big enough that kernel work
        // dominates scheduling noise, small enough that a request's dense
        // operand stays cache-resident.
        let (n, per_client): (usize, usize) = if smoke() { (1000, 16) } else { (2000, 24) };
        let feat = 16;
        let mut rng = gen::rng(0xE6);
        let g = power_law(n, &mut rng);
        let adj = Adjacency::new(g.clone());
        // Served results must be the real answer, not just fast.
        {
            let engine = Engine::new(EngineConfig::default());
            let x = gen::random_dense(n, feat, &mut rng);
            let served = engine
                .serve(&adj, OpRequest::Spmm(x.clone()))
                .and_then(sparsetir_engine::OpOutput::into_dense)
                .expect("serves");
            assert!(
                served.approx_eq(&g.spmm(&x).expect("reference"), 1e-3),
                "served SpMM must match the reference"
            );
            let (sx, sy) =
                (gen::random_dense(n, feat, &mut rng), gen::random_dense(feat, n, &mut rng));
            let sddmm = engine
                .serve(&adj, OpRequest::Sddmm((sx.clone(), sy.clone())))
                .and_then(sparsetir_engine::OpOutput::into_edges)
                .expect("serves");
            let want = g.sddmm(&sx, &sy).expect("reference");
            assert!(
                sddmm
                    .iter()
                    .zip(want.values())
                    .all(|(s, w)| (s - w).abs() <= 1e-2 * w.abs().max(1.0)),
                "served SDDMM must match the reference"
            );
        }
        let mut workloads =
            format!("spmm: n={n} nnz={} d={feat} per_client={per_client} workers=1\n", g.nnz());
        let mut rng_spmm = gen::rng(0x5e41);
        let spmm_rows = sweep_op(&adj, "spmm", per_client, || {
            OpRequest::Spmm(gen::random_dense(n, feat, &mut rng_spmm))
        });
        // The SDDMM arm serves its own *small* adjacency: the
        // many-small-requests regime, where the engine's per-request
        // costs are a big slice of a launch.
        let sn = 128;
        let sfeat = 8;
        let mut rng_sddmm = gen::rng(0x5e42);
        let sg = power_law(sn, &mut rng_sddmm);
        let sadj = Adjacency::new(sg);
        // Small-graph SDDMM requests are ~10x faster than the SpMM arm's,
        // so issue proportionally more per client — otherwise the timed
        // windows are a few tens of milliseconds and too noisy to read.
        let sddmm_per_client = per_client * 4;
        workloads.push_str(&format!(
            "sddmm: n={sn} nnz={} d={sfeat} per_client={sddmm_per_client} workers=1\n",
            sadj.csr().nnz()
        ));
        let sddmm_rows = sweep_op(&sadj, "sddmm", sddmm_per_client, || {
            OpRequest::Sddmm((
                gen::random_dense(sn, sfeat, &mut rng_sddmm),
                gen::random_dense(sfeat, sn, &mut rng_sddmm),
            ))
        });
        // The fused-attention arm (SDDMM → edge-softmax → SpMM as one
        // kernel per launch) serves a small graph too, for the SDDMM
        // arm's reason.
        let (an, k, vfeat) = (256, 8, 8);
        let mut rng_attn = gen::rng(0xFA);
        let ag = power_law(an, &mut rng_attn);
        let aadj = Adjacency::new(ag.clone());
        let mut make_head = || AttnHead {
            q: gen::random_dense(an, k, &mut rng_attn),
            kt: gen::random_dense(k, an, &mut rng_attn),
            v: gen::random_dense(an, vfeat, &mut rng_attn),
        };
        // One served result against the f64 reference (relative epsilon,
        // for the softmax exp) and, bit for bit, against the three-launch
        // pipeline oracle — serving adds no rounding.
        {
            let engine = Engine::new(EngineConfig::default());
            let h = make_head();
            let served = engine
                .serve(&aadj, OpRequest::FusedAttention(vec![h.clone()]))
                .and_then(sparsetir_engine::OpOutput::into_heads)
                .expect("serves");
            let want = fused_attention_reference(&ag, &h.q, &h.kt, &h.v, 1);
            assert!(
                served[0].approx_eq(&want, 1e-3),
                "served fused attention must match the f64 reference"
            );
            let mut oracle = [Dense::zeros(an, vfeat)];
            let rt = sparsetir_ir::exec::Runtime::new();
            attention_pipeline_oracle(&rt, &ag, &[&h.q], &[&h.kt], &[&h.v], &mut oracle)
                .expect("three-launch oracle");
            assert!(
                served[0]
                    .data()
                    .iter()
                    .map(|s| s.to_bits())
                    .eq(oracle[0].data().iter().map(|o| o.to_bits())),
                "served fused attention must be bit-identical to the three-launch pipeline"
            );
        }
        workloads.push_str(&format!(
            "fused_attention: n={an} nnz={} k={k} vfeat={vfeat} heads/req=1 per_client={per_client} workers=1\n",
            ag.nnz()
        ));
        let attn_rows = sweep_op(&aadj, "fused_attention", per_client, || {
            OpRequest::FusedAttention(vec![make_head()])
        });
        let mut rows = spmm_rows;
        rows.extend(sddmm_rows);
        rows.extend(attn_rows);
        render_table(
            &format!(
                "Serving throughput: engine, one launch per request (shared adjacency, spmm d={feat}; 1x16 = one client with 16 tickets in flight)"
            ),
            &["op", "clients", "req/s"],
            &rows,
        ) + &workloads
    }
}

/// SLO serving: deadline-hit-rate of latency-sensitive (`Hi`-priority,
/// deadlined) traffic under a saturating best-effort (`Lo`) flood, with
/// the engine's SLO machinery (priority-then-deadline queue, admission
/// shedding) vs a FIFO/blocking baseline serving the identical mixed
/// workload. One launch permit on both
/// arms; the Lo flood runs heavyweight SpMM requests on distinct
/// adjacencies (each holds the permit for a full execution), the
/// measured Hi clients run cheap SDDMM requests on a
/// shared small adjacency with a deadline ≈ 2 Lo-executions — met only
/// by jumping the Lo backlog, which is exactly what the priority queue
/// buys and FIFO cannot.
pub mod serving_slo {
    use super::*;
    use sparsetir_engine::{
        Adjacency, Engine, EngineConfig, EngineStats, OpRequest, Priority, Submission,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    /// Acceptance floor: Hi-traffic deadline-hit-rate with the SLO
    /// machinery over the FIFO/blocking baseline at the 8-client
    /// overload arm (median of 3 paired repetitions).
    pub const SLO_HIT_RATE_BAR: f64 = 1.3;

    /// The `capped gain` column saturates here: the raw gain is `hits_slo /
    /// hits_fifo` with a near-zero denominator under overload (FIFO
    /// misses almost every tight deadline), so its magnitude is noise
    /// beyond a point. Capping keeps the cell a stable `2.00x` from run
    /// to run while any real regression (SLO arm missing deadlines, or
    /// FIFO suddenly matching it) still lands below [`SLO_HIT_RATE_BAR`].
    pub const GAIN_CAP: f64 = 2.0;

    /// Measure the median wall-clock of one Lo-class SpMM execution on a
    /// warmed one-permit engine — the unit every deadline in the
    /// experiment is calibrated against, so the arms express "about two
    /// executions of backlog" identically on fast and slow machines.
    fn calibrate_lo_exec(adj: &Adjacency, x: &Dense) -> Duration {
        let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 16 });
        Duration::from_nanos(median_ns(5, || {
            engine.serve(adj, OpRequest::Spmm(x.clone())).expect("calibration request");
        }) as u64)
    }

    struct ArmResult {
        hi_hit_rate: f64,
        stats: EngineStats,
    }

    /// One arm: `lo_clients` flood threads serve Lo SpMM requests in a
    /// closed loop until the measured traffic completes; `hi_clients`
    /// threads each issue `hi_per_client` deadlined SDDMM requests and
    /// score a hit when the answer arrives in time. `slo` selects the
    /// machinery under test: priorities + deadlines vs plain FIFO submits
    /// of the identical requests (the deadline then exists only in the
    /// client's stopwatch). Staged, not raced: every flood client queues
    /// its first request with `try_submit` before any Hi client starts,
    /// and nothing serves the queue until some client waits.
    fn run_arm(
        lo: &[(Adjacency, Dense)],
        hi_adj: &Adjacency,
        hi_payload: &(Dense, Dense),
        hi_clients: usize,
        hi_per_client: usize,
        hi_deadline: Duration,
        slo: bool,
    ) -> ArmResult {
        let engine = Arc::new(Engine::new(EngineConfig { workers: 1, queue_depth: 64 }));
        // Warm every kernel shape outside the measured window.
        for (adj, x) in lo {
            engine.serve(adj, OpRequest::Spmm(x.clone())).expect("lo warmup");
        }
        engine.serve(hi_adj, OpRequest::Sddmm(hi_payload.clone())).expect("hi warmup");
        let warmed = engine.stats();
        let stop = AtomicBool::new(false);
        let queued = Barrier::new(lo.len() + 1);
        let [lo_class, hi_class] =
            if slo { [Priority::Lo, Priority::Hi] } else { [Priority::Normal; 2] };
        let hits: u64 = std::thread::scope(|s| {
            for (adj, x) in lo {
                let engine = Arc::clone(&engine);
                let (stop, queued) = (&stop, &queued);
                s.spawn(move || {
                    let sub = || Submission::spmm(x.clone()).priority(lo_class);
                    let mut ticket = engine.try_submit(adj, sub()).expect("lo flood request");
                    queued.wait();
                    loop {
                        ticket.wait().expect("lo flood request");
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        ticket = engine.submit(adj, sub()).expect("lo flood request");
                    }
                });
            }
            queued.wait();
            let measurers: Vec<_> = (0..hi_clients)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    s.spawn(move || {
                        let mut hits = 0u64;
                        for _ in 0..hi_per_client {
                            let (x, y) = hi_payload.clone();
                            let sub = Submission::sddmm(x, y).priority(hi_class);
                            let sub = if slo { sub.deadline(hi_deadline) } else { sub };
                            let t = Instant::now();
                            // A shed/expired answer is a deadline miss by
                            // definition; so is a late success.
                            let res = engine.serve(hi_adj, sub);
                            if res.is_ok() && t.elapsed() <= hi_deadline {
                                hits += 1;
                            }
                        }
                        hits
                    })
                })
                .collect();
            let hits = measurers.into_iter().map(|h| h.join().expect("hi client")).sum();
            stop.store(true, Ordering::Relaxed);
            hits
        });
        let total = (hi_clients * hi_per_client).max(1) as f64;
        ArmResult { hi_hit_rate: hits as f64 / total, stats: engine.stats().delta_since(&warmed) }
    }

    /// Render the sweep.
    ///
    /// # Panics
    /// Panics when a client hits an unexpected engine error, or — under
    /// `SPARSETIR_BENCH_ASSERT=1` — when the 8-client overload arm's
    /// median hit-rate gain falls below [`SLO_HIT_RATE_BAR`] or the SLO
    /// arm's latency histogram is degenerate (p50/p95/p99 unordered or
    /// zero with traffic served).
    #[must_use]
    pub fn run() -> String {
        let (n, hi_per_client): (usize, usize) = if smoke() { (1200, 12) } else { (2500, 20) };
        let feat = 32;
        let mut rng = gen::rng(0x510);
        // One heavyweight adjacency per Lo flood client (each request
        // costs a full execution — a genuinely occupied launch permit).
        let lo: Vec<(Adjacency, Dense)> = (0..4)
            .map(|_| {
                let g = gen::random_csr_with_row_lengths(
                    n,
                    n,
                    |r| {
                        use rand::Rng;
                        let u: f64 = r.gen_range(0.0..1.0);
                        ((4.0 / (u + 0.01)) as usize).clamp(1, n / 2)
                    },
                    &mut rng,
                );
                (Adjacency::new(g), gen::random_dense(n, feat, &mut rng))
            })
            .collect();
        // The measured Hi traffic: cheap SDDMM on a small shared graph.
        let sn = 128;
        let sg = gen::random_csr_with_row_lengths(sn, sn, |_| 8, &mut rng);
        let hi_adj = Adjacency::new(sg);
        let hi_payload = (gen::random_dense(sn, 8, &mut rng), gen::random_dense(8, sn, &mut rng));
        let lo_exec = calibrate_lo_exec(&lo[0].0, &lo[0].1);
        // Deadline ≈ two Lo executions plus a fixed scheduling
        // allowance: with ≥ 2 Lo requests backlogged FIFO must miss,
        // while the priority queue answers after at most the in-flight
        // execution.
        let hi_deadline = lo_exec * 2 + Duration::from_micros(100);
        let workload = format!(
            "lo spmm n={n} d={feat}, hi sddmm n={sn} hi_per_client={hi_per_client}, lo_exec={}us deadline={}us workers=1\n",
            lo_exec.as_micros(),
            hi_deadline.as_micros()
        );
        let mut rows = Vec::new();
        let mut gain_at_8 = 0.0;
        let mut slo_at_8: Option<ArmResult> = None;
        for &clients in &[1usize, 4, 8] {
            let hi_clients = clients.div_ceil(2);
            let lo_clients = clients / 2;
            // Median of 3 *paired* repetitions, picked by the arm-level
            // signal (the gain), so both reported rates come from one
            // coherent repetition.
            let mut reps: Vec<(f64, ArmResult, ArmResult)> = (0..3)
                .map(|_| {
                    let fifo = run_arm(
                        &lo[..lo_clients],
                        &hi_adj,
                        &hi_payload,
                        hi_clients,
                        hi_per_client,
                        hi_deadline,
                        false,
                    );
                    let slo = run_arm(
                        &lo[..lo_clients],
                        &hi_adj,
                        &hi_payload,
                        hi_clients,
                        hi_per_client,
                        hi_deadline,
                        true,
                    );
                    // Floor the denominator at one hit's worth: FIFO
                    // routinely scores zero under overload.
                    let floor = 1.0 / (hi_clients * hi_per_client) as f64;
                    (slo.hi_hit_rate / fifo.hi_hit_rate.max(floor), fifo, slo)
                })
                .collect();
            reps.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (gain, fifo, slo) = reps.swap_remove(1);
            rows.push(vec![
                clients.to_string(),
                format!("{lo_clients}+{hi_clients}"),
                fmt_pct(fifo.hi_hit_rate * 100.0),
                fmt_pct(slo.hi_hit_rate * 100.0),
                fmt_speedup(gain),
                fmt_speedup(gain.min(GAIN_CAP)),
                format!("{}", slo.stats.latency.p50() / 1000),
                format!("{}", slo.stats.latency.p95() / 1000),
                format!("{}", slo.stats.latency.p99() / 1000),
                format!("{}", slo.stats.rejected + slo.stats.expired),
            ]);
            if clients == 8 {
                gain_at_8 = gain;
                slo_at_8 = Some(slo);
            }
        }
        if std::env::var_os("SPARSETIR_BENCH_ASSERT").is_some() {
            assert!(
                gain_at_8 >= SLO_HIT_RATE_BAR,
                "SLO deadline-hit-rate gain {gain_at_8:.2}x below the {SLO_HIT_RATE_BAR}x bar at 8 clients"
            );
            let slo = slo_at_8.as_ref().expect("8-client arm ran");
            let h = &slo.stats.latency;
            assert!(
                h.p50() > 0 && h.p50() <= h.p95() && h.p95() <= h.p99(),
                "degenerate latency percentiles: p50={} p95={} p99={}",
                h.p50(),
                h.p95(),
                h.p99()
            );
            assert!(
                h.p99() <= slo.stats.latency_ns_max,
                "p99 {} exceeds observed max latency {}",
                h.p99(),
                slo.stats.latency_ns_max
            );
        }
        render_table(
            &format!(
                "SLO serving: Hi-priority deadline-hit-rate, priorities+admission vs FIFO (deadline={}us, bar at 8 clients ≥ {SLO_HIT_RATE_BAR}x)",
                hi_deadline.as_micros()
            ),
            &[
                "clients",
                "lo+hi",
                "fifo hit %",
                "slo hit %",
                "gain",
                "capped gain",
                "p50 us",
                "p95 us",
                "p99 us",
                "shed+expired",
            ],
            &rows,
        ) + &workload
    }
}

/// Dynamic graphs: a sustained stream of edge-update batches interleaved
/// with SpMM queries, served **incrementally** (`Engine::apply_delta`
/// patching the CSR in place with the two-pointer merge, versioned
/// fingerprints deciding whether tuning state survives) vs
/// **rebuild-from-scratch** (maintain the full edge set, reconstruct the
/// CSR and re-wrap the `Adjacency` every batch). Both arms answer every
/// query identically — the experiment asserts the final matrices are
/// bit-identical — so the ratio isolates the cost of keeping a served
/// adjacency current.
pub mod dynamic_graphs {
    use super::*;
    use sparsetir_engine::{Adjacency, Engine, EngineConfig, OpRequest};
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};

    /// Acceptance floor: incremental update maintenance over
    /// rebuild-from-scratch, on the update path alone (query serving is
    /// identical machinery in both arms and is reported separately).
    pub const INCREMENTAL_SPEEDUP_BAR: f64 = 1.2;

    fn serving_engine() -> Engine {
        Engine::new(EngineConfig { workers: 1, queue_depth: 64 })
    }

    /// The edge map a rebuild arm maintains (and the oracle both arms are
    /// checked against).
    fn edge_map(g: &Csr) -> BTreeMap<(u32, u32), f32> {
        let mut edges = BTreeMap::new();
        for r in 0..g.rows() {
            let (cols, vals) = g.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                edges.insert((r as u32, c), v);
            }
        }
        edges
    }

    /// Pre-generate the update stream: per batch, a mix of fresh-edge
    /// inserts, re-weights of edges known to exist, and deletes (tracked
    /// against a running edge set so deletes usually hit).
    fn update_stream(
        g: &Csr,
        batches: usize,
        ops_per_batch: usize,
        rng: &mut impl rand::Rng,
    ) -> Vec<GraphDelta> {
        let n = g.rows() as u32;
        let mut live: Vec<(u32, u32)> = edge_map(g).into_keys().collect();
        let mut stream = Vec::with_capacity(batches);
        for _ in 0..batches {
            let mut d = GraphDelta::new();
            for i in 0..ops_per_batch {
                match i % 3 {
                    0 => {
                        // Insert (or re-weight) a random coordinate.
                        let e = (rng.gen_range(0..n), rng.gen_range(0..n));
                        d.upsert(e.0, e.1, rng.gen_range(0.1f32..2.0));
                        live.push(e);
                    }
                    1 => {
                        // Re-weight an existing edge: structure-neutral.
                        if let Some(&(r, c)) = live.get(rng.gen_range(0..live.len().max(1))) {
                            d.upsert(r, c, rng.gen_range(0.1f32..2.0));
                        }
                    }
                    _ => {
                        // Delete a (probably) existing edge.
                        if !live.is_empty() {
                            let at = rng.gen_range(0..live.len());
                            let (r, c) = live.swap_remove(at);
                            d.delete(r, c);
                        }
                    }
                }
            }
            stream.push(d);
        }
        stream
    }

    /// Render the sweep.
    ///
    /// # Panics
    /// Panics when the incremental and rebuilt matrices diverge, when a
    /// served query disagrees with the reference, or — under
    /// `SPARSETIR_BENCH_ASSERT=1` — when the incremental update path
    /// misses its speedup bar over rebuild-from-scratch.
    #[must_use]
    pub fn run() -> String {
        let (n, batches, ops, queries): (usize, usize, usize, usize) =
            if smoke() { (600, 8, 48, 2) } else { (2000, 16, 96, 4) };
        let feat = 8;
        let mut rng = gen::rng(0xD6);
        let g = gen::random_csr_with_row_lengths(
            n,
            n,
            |r| {
                use rand::Rng;
                let u: f64 = r.gen_range(0.0..1.0);
                ((2.0 / (u + 0.01)) as usize).clamp(1, n / 2)
            },
            &mut rng,
        );
        // Pre-generate updates and query operands outside every timed
        // window.
        let stream = update_stream(&g, batches, ops, &mut rng);
        let xs: Vec<Dense> = (0..queries).map(|_| gen::random_dense(n, feat, &mut rng)).collect();

        // Median-of-3 per arm: the update loops are short wall-clock
        // windows, a single one is too noisy to gate on.
        let mut inc_reps = Vec::new();
        let mut reb_reps = Vec::new();
        let mut final_inc: Option<Csr> = None;
        let mut final_reb: Option<Csr> = None;
        for _ in 0..3 {
            // Incremental arm: patch the served adjacency in place.
            let engine = serving_engine();
            let mut adj = Adjacency::new(g.clone());
            engine.serve(&adj, OpRequest::Spmm(xs[0].clone())).expect("warmup");
            let mut update_ns = 0u128;
            let mut query_ns = 0u128;
            for d in &stream {
                let t = Instant::now();
                adj = engine.apply_delta(&adj, d).expect("in-bounds delta");
                update_ns += t.elapsed().as_nanos();
                let t = Instant::now();
                for x in &xs {
                    engine.serve(&adj, OpRequest::Spmm(x.clone())).expect("query served");
                }
                query_ns += t.elapsed().as_nanos();
            }
            inc_reps.push((update_ns, query_ns));
            final_inc = Some(adj.csr().clone());

            // Rebuild arm: maintain the edge set, reconstruct per batch.
            let engine = serving_engine();
            let mut edges = edge_map(&g);
            let mut adj = Adjacency::new(g.clone());
            engine.serve(&adj, OpRequest::Spmm(xs[0].clone())).expect("warmup");
            let mut update_ns = 0u128;
            let mut query_ns = 0u128;
            for d in &stream {
                let t = Instant::now();
                for &(r, c, v) in d.normalized_ops().iter() {
                    match v {
                        Some(v) => {
                            edges.insert((r, c), v);
                        }
                        None => {
                            edges.remove(&(r, c));
                        }
                    }
                }
                let entries: Vec<(u32, u32, f32)> =
                    edges.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
                let rebuilt = Csr::from_coo(&Coo::from_entries(n, n, entries).expect("in-bounds"));
                adj = Adjacency::new(rebuilt);
                update_ns += t.elapsed().as_nanos();
                let t = Instant::now();
                for x in &xs {
                    engine.serve(&adj, OpRequest::Spmm(x.clone())).expect("query served");
                }
                query_ns += t.elapsed().as_nanos();
            }
            reb_reps.push((update_ns, query_ns));
            final_reb = Some(adj.csr().clone());
        }
        let (final_inc, final_reb) = (final_inc.expect("ran"), final_reb.expect("ran"));
        assert_eq!(
            final_inc, final_reb,
            "incremental and rebuilt matrices must be bit-identical after the stream"
        );
        // Served answers on the final state must be the real answer.
        {
            let engine = serving_engine();
            let adj = Adjacency::new(final_inc.clone());
            let served = engine
                .serve(&adj, OpRequest::Spmm(xs[0].clone()))
                .and_then(sparsetir_engine::OpOutput::into_dense)
                .expect("serves");
            let want = final_inc.spmm(&xs[0]).expect("reference");
            assert!(served.approx_eq(&want, 1e-3), "served query must match the reference");
        }

        inc_reps.sort_unstable();
        reb_reps.sort_unstable();
        let (inc_update, inc_query) = inc_reps[1];
        let (reb_update, reb_query) = reb_reps[1];
        let per_batch = |ns: u128| ns as f64 / batches as f64;
        let speedup = per_batch(reb_update) / per_batch(inc_update).max(1.0);
        if std::env::var_os("SPARSETIR_BENCH_ASSERT").is_some() {
            assert!(
                speedup >= INCREMENTAL_SPEEDUP_BAR,
                "incremental graph updates {speedup:.2}x below the {INCREMENTAL_SPEEDUP_BAR}x bar"
            );
        }
        let fmt_ms =
            |ns: f64| format!("{:.3}", Duration::from_nanos(ns as u64).as_secs_f64() * 1e3);
        let rows = vec![vec![
            batches.to_string(),
            ops.to_string(),
            fmt_ms(per_batch(inc_update)),
            fmt_ms(per_batch(reb_update)),
            fmt_speedup(speedup),
            fmt_ms(per_batch(inc_query)),
            fmt_ms(per_batch(reb_query)),
        ]];
        render_table(
            &format!(
                "Dynamic graphs: incremental delta maintenance vs rebuild-from-scratch (n={n}, bar ≥ {INCREMENTAL_SPEEDUP_BAR}x on the update path)"
            ),
            &[
                "batches",
                "ops/batch",
                "inc update ms",
                "rebuild ms",
                "speedup",
                "inc query ms",
                "rebuild query ms",
            ],
            &rows,
        ) + &format!("n={n} nnz0={} queries/batch={queries} d={feat} workers=1\n", g.nnz())
    }
}
