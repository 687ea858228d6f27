//! Workspace-level integration tests: the full pipeline from dataset
//! generation through Stage I construction, format decomposition, both
//! lowering passes, interpretation, scheduling, codegen and simulation —
//! crossing every crate boundary.

use sparsetir::prelude::*;
use std::collections::HashMap;

#[test]
fn cora_spmm_through_the_whole_stack() {
    // Dataset → Stage I → Stage III → interpret → compare to smat.
    let spec = graph_by_name("cora").expect("registered");
    let g = spec.generate();
    // Keep interpretation fast: a slice of the graph.
    let rows: Vec<u32> = (0..256).collect();
    let g = g.select_rows(&rows);
    let feat = 8;
    let program = spmm_program(g.rows(), g.cols(), g.nnz(), feat);
    let func = lower(&program).expect("lowers");

    let mut rng = gen::rng(1);
    let x = gen::random_dense(g.cols(), feat, &mut rng);
    let mut b = Bindings::new();
    bind_csr(&mut b, "A", "J", &g);
    bind_dense(&mut b, "B", &x);
    bind_zeros(&mut b, "C", g.rows() * feat);
    exec_func(&func, &HashMap::new(), &mut b).expect("executes");
    let got = read_dense(&b, "C", g.rows(), feat);
    assert!(got.approx_eq(&g.spmm(&x).unwrap(), 1e-3));
}

#[test]
fn decomposed_hyb_pipeline_on_real_graph_slice() {
    let spec = graph_by_name("citeseer").expect("registered");
    let g = spec.generate();
    let rows: Vec<u32> = (0..200).collect();
    let g = g.select_rows(&rows);
    let feat = 4;
    let hyb = Hyb::with_default_k(&g, 2).expect("valid");

    let program = spmm_program(g.rows(), g.cols(), g.nnz(), feat);
    let mut rules = Vec::new();
    let mut buckets = Vec::new();
    for (pi, part) in hyb.partitions().iter().enumerate() {
        for bucket in &part.buckets {
            if bucket.is_empty() {
                continue;
            }
            let tag = format!("p{pi}_w{}", bucket.width);
            rules.push(FormatRewriteRule::bucket_ell(
                "A",
                &tag,
                bucket.width,
                bucket.len(),
                g.cols(),
            ));
            buckets.push((tag, bucket.clone()));
        }
    }
    let decomposed = decompose_format(&program, &rules).expect("decomposes").strip_copies();
    let func = lower(&decomposed).expect("lowers");

    let mut rng = gen::rng(2);
    let x = gen::random_dense(g.cols(), feat, &mut rng);
    let mut b = Bindings::new();
    for (tag, bucket) in &buckets {
        bind_bucket(&mut b, tag, bucket);
    }
    bind_csr(&mut b, "A", "J", &g);
    bind_dense(&mut b, "B", &x);
    bind_zeros(&mut b, "C", g.rows() * feat);
    exec_func(&func, &HashMap::new(), &mut b).expect("executes");
    let got = read_dense(&b, "C", g.rows(), feat);
    assert!(got.approx_eq(&g.spmm(&x).unwrap(), 1e-3));
}

#[test]
fn scheduled_and_fused_kernels_stay_correct() {
    // Horizontal fusion of two scheduled kernels (zero-init + SpMM) still
    // interprets correctly.
    let mut rng = gen::rng(3);
    let a = gen::random_csr(32, 32, 0.15, &mut rng);
    let x = gen::random_dense(32, 8, &mut rng);
    let program = spmm_program(a.rows(), a.cols(), a.nnz(), 8);
    let f = lower(&program).unwrap();
    let mut sch = Schedule::new(f);
    sch.bind("i", ThreadAxis::BlockIdxX).unwrap();
    sch.bind("k", ThreadAxis::ThreadIdxX).unwrap();
    let spmm_kernel = sch.into_func();

    // A standalone zero-init kernel over C, blockIdx-bound.
    let c_buf = spmm_kernel.buffer("C").unwrap().clone();
    let i = Var::i32("zi");
    let k = Var::i32("zk");
    let zero = PrimFunc::new(
        "zero_c",
        vec![],
        vec![c_buf.clone()],
        Stmt::For {
            var: i.clone(),
            extent: Expr::i32(32),
            kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
            body: Box::new(Stmt::for_serial(
                k.clone(),
                8,
                Stmt::BufferStore {
                    buffer: c_buf.clone(),
                    indices: vec![Expr::var(&i) * 8 + Expr::var(&k)],
                    value: Expr::f32(0.0),
                },
            )),
        },
    );
    let fused = horizontal_fuse(&[zero, spmm_kernel], "zero_then_spmm").unwrap();

    let mut b = Bindings::new();
    bind_csr(&mut b, "A", "J", &a);
    bind_dense(&mut b, "B", &x);
    // Poison C to prove the fused zero-init runs first.
    b.insert("C".into(), TensorData::from(vec![777.0f32; 32 * 8]));
    exec_func(&fused, &HashMap::new(), &mut b).unwrap();
    let got = read_dense(&b, "C", 32, 8);
    assert!(got.approx_eq(&a.spmm(&x).unwrap(), 1e-3));
}

#[test]
fn codegen_compiles_lowered_attention_mask_kernel() {
    let mask = band_mask(64, 8);
    let program = spmm_program(mask.rows(), mask.cols(), mask.nnz(), 16);
    let f = lower(&program).unwrap();
    let src = codegen_cuda(&f);
    assert!(src.contains("__global__ void spmm"));
    assert!(src.contains("J_indptr"));
    // The emitted kernel binds no threads yet (pre-schedule form).
    assert!(launch_config(&f).grid[0].is_none());
}

#[test]
fn simulator_effects_cross_check_figures() {
    // One compact cross-check per headline figure claim, on small inputs.
    let gpu = GpuSpec::v100();
    let mut rng = gen::rng(4);

    // Fig 13: hyb ≥ vendor on skewed graphs.
    let skew = {
        use rand::Rng;
        gen::random_csr_with_row_lengths(
            1200,
            1200,
            |r| {
                let u: f64 = r.gen_range(0.0..1.0);
                ((1.5 / (u + 0.004)) as usize).clamp(1, 600)
            },
            &mut rng,
        )
    };
    let vendor = simulate_kernel(&gpu, &cusparse_spmm_plan(&skew, 64)).time_ms;
    let tuned = tune_spmm(&gpu, &skew, 64).report.time_ms;
    assert!(tuned < vendor, "tuned {tuned} vs vendor {vendor}");

    // Fig 16: BSR tensor cores ≥ CSR on block masks.
    let mask = band_mask(512, 64);
    let bsr = Bsr::from_csr(&mask, 32).unwrap();
    let t_bsr =
        simulate_kernel(&gpu, &batched_bsr_spmm_plan(&bsr, 64, 4, SPARSETIR_BSR_EFFICIENCY, "b"))
            .time_ms;
    let t_csr = simulate_kernel(&gpu, &batched_csr_spmm_plan(&mask, 64, 4, "c")).time_ms;
    assert!(t_bsr < t_csr);

    // Fig 17: DBSR ≥ BSR with zero rows.
    let w = block_pruned_weight(512, 512, 1.0 / 32.0, 9);
    let wb = Bsr::from_csr(&w, 32).unwrap();
    let wd = Dbsr::from_bsr(&wb);
    let tb =
        simulate_kernel(&gpu, &bsr_weight_spmm_plan(&wb, 128, PRUNE_TC_EFFICIENCY, "b")).time_ms;
    let td = simulate_kernel(&gpu, &dbsr_weight_spmm_plan(&wd, 512, 128, PRUNE_TC_EFFICIENCY, "d"))
        .time_ms;
    assert!(td <= tb * 1.05, "dbsr {td} vs bsr {tb}");
}

#[test]
fn sddmm_fused_ir_on_dataset_slice() {
    let spec = graph_by_name("pubmed").expect("registered");
    let g = spec.generate().select_rows(&(0..128).collect::<Vec<u32>>());
    let mut rng = gen::rng(5);
    let feat = 8;
    let x = gen::random_dense(g.rows(), feat, &mut rng);
    let y = gen::random_dense(feat, g.cols(), &mut rng);
    let mut got = [vec![0.0; g.nnz()]];
    sddmm_execute_views_on(&Runtime::new(), &g, &[(x.clone(), y.clone())], &mut got)
        .expect("executes");
    let expect = g.sddmm(&x, &y).unwrap();
    for (gv, ev) in got[0].iter().zip(expect.values()) {
        assert!((gv - ev).abs() < 1e-3);
    }
}

#[test]
fn rgcn_functional_path_on_hetero_slice() {
    let spec = hetero_by_name("AIFB").expect("registered");
    let rels: Vec<Csr> = spec
        .generate()
        .into_iter()
        .take(6)
        .map(|r| r.select_rows(&(0..64).collect::<Vec<u32>>()))
        .collect();
    // select_rows keeps all columns; rebuild as square 64-col slices.
    let rels: Vec<Csr> = rels
        .iter()
        .map(|r| {
            let mut coo = Coo::new(64, 64);
            for row in 0..r.rows() {
                let (cols, vals) = r.row(row);
                for (&c, &v) in cols.iter().zip(vals) {
                    if (c as usize) < 64 {
                        coo.push(row as u32, c, v);
                    }
                }
            }
            Csr::from_coo(&coo)
        })
        .collect();
    let layer = RgcnLayer::new(rels, 16, 6);
    let mut rng = gen::rng(7);
    let x = gen::random_dense(64, 16, &mut rng);
    let out = layer.infer(&x).expect("infers");
    let manual = rgms_reference(&layer.workload.relations, &x, &layer.weights).unwrap().relu();
    assert!(out.approx_eq(&manual, 1e-4));
}
