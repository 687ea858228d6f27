//! End-to-end lowering pipeline tests: a Stage I program lowered through
//! sparse iteration lowering (I→II) and sparse buffer lowering (II→III)
//! must compute the same result on compressed storage as the `smat`
//! reference routines — across formats, schedules and decompositions.

use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_smat::prelude::*;
use std::collections::HashMap;

fn run_stage3(func: &PrimFunc, bindings: &mut Bindings) {
    exec_func(func, &HashMap::new(), bindings).expect("stage III executes");
}

#[test]
fn spmm_stage3_matches_csr_reference() {
    let mut rng = gen::rng(101);
    for (rows, cols, density, feat) in
        [(8usize, 8usize, 0.25f64, 4usize), (16, 12, 0.15, 3), (5, 20, 0.3, 8)]
    {
        let a = gen::random_csr(rows, cols, density, &mut rng);
        let x = gen::random_dense(cols, feat, &mut rng);
        let program = spmm_program(rows, cols, a.nnz(), feat);
        let f = lower(&program).expect("lowers");
        let mut b = Bindings::new();
        bind_csr(&mut b, "A", "J", &a);
        bind_dense(&mut b, "B", &x);
        bind_zeros(&mut b, "C", rows * feat);
        run_stage3(&f, &mut b);
        let got = read_dense(&b, "C", rows, feat);
        let expect = a.spmm(&x).unwrap();
        assert!(
            got.approx_eq(&expect, 1e-4),
            "spmm mismatch for {rows}x{cols} d={density}: {}",
            got.max_abs_diff(&expect)
        );
    }
}

#[test]
fn spmm_stage1_dense_semantics_agree_with_stage3() {
    let mut rng = gen::rng(7);
    let (rows, cols, feat) = (10usize, 9usize, 5usize);
    let a = gen::random_csr(rows, cols, 0.2, &mut rng);
    let x = gen::random_dense(cols, feat, &mut rng);
    let program = spmm_program(rows, cols, a.nnz(), feat);

    // Stage I reference: dense coordinate-space interpretation.
    let dense_f = program.to_dense_func();
    let mut db = Bindings::new();
    db.insert("A".into(), TensorData::from(a.to_dense().data().to_vec()));
    bind_dense(&mut db, "B", &x);
    bind_zeros(&mut db, "C", rows * feat);
    exec_func(&dense_f, &HashMap::new(), &mut db).unwrap();
    let stage1_result = read_dense(&db, "C", rows, feat);

    // Stage III compressed interpretation.
    let f = lower(&program).unwrap();
    let mut cb = Bindings::new();
    bind_csr(&mut cb, "A", "J", &a);
    bind_dense(&mut cb, "B", &x);
    bind_zeros(&mut cb, "C", rows * feat);
    run_stage3(&f, &mut cb);
    let stage3_result = read_dense(&cb, "C", rows, feat);

    assert!(stage1_result.approx_eq(&stage3_result, 1e-4));
}

#[test]
fn sddmm_fused_stage3_matches_reference() {
    let mut rng = gen::rng(23);
    let (rows, cols, feat) = (12usize, 10usize, 6usize);
    let a = gen::random_csr(rows, cols, 0.2, &mut rng);
    let x = gen::random_dense(rows, feat, &mut rng);
    let y = gen::random_dense(feat, cols, &mut rng);

    let mut program = sddmm_program(rows, cols, a.nnz(), feat);
    // The paper's schedule: iterate non-zeros directly with one fused loop.
    sparse_fuse(&mut program, "sddmm", &["I", "J"]).unwrap();
    let f = lower(&program).unwrap();

    let mut b = Bindings::new();
    bind_csr(&mut b, "A", "J", &a);
    bind_dense(&mut b, "X", &x);
    bind_dense(&mut b, "Y", &y);
    b.insert("Bout".into(), TensorData::from(vec![0.0f32; a.nnz()]));
    run_stage3(&f, &mut b);

    let expect = a.sddmm(&x, &y).unwrap();
    let got = b["Bout"].as_f32();
    for (g, e) in got.iter().zip(expect.values()) {
        assert!((g - e).abs() < 1e-3, "sddmm value mismatch: {g} vs {e}");
    }
}

#[test]
fn sddmm_unfused_also_matches() {
    let mut rng = gen::rng(29);
    let (rows, cols, feat) = (9usize, 11usize, 4usize);
    let a = gen::random_csr(rows, cols, 0.25, &mut rng);
    let x = gen::random_dense(rows, feat, &mut rng);
    let y = gen::random_dense(feat, cols, &mut rng);
    let program = sddmm_program(rows, cols, a.nnz(), feat);
    let f = lower(&program).unwrap();
    let mut b = Bindings::new();
    bind_csr(&mut b, "A", "J", &a);
    bind_dense(&mut b, "X", &x);
    bind_dense(&mut b, "Y", &y);
    b.insert("Bout".into(), TensorData::from(vec![0.0f32; a.nnz()]));
    run_stage3(&f, &mut b);
    let expect = a.sddmm(&x, &y).unwrap();
    for (g, e) in b["Bout"].as_f32().iter().zip(expect.values()) {
        assert!((g - e).abs() < 1e-3);
    }
}

/// Split a CSR's non-zeros into a block-friendly part and a remainder, so
/// `A = A_blocks + A_rest` (the pre-processing partition that accompanies
/// a [BSR, ELL] decomposition).
fn split_for_bsr(a: &Csr, block: usize) -> (Csr, Csr) {
    let mut blocks = Coo::new(a.rows(), a.cols());
    let mut rest = Coo::new(a.rows(), a.cols());
    // A block goes to the BSR part when it holds ≥ 2 non-zeros.
    let bsr = Bsr::from_csr(a, block).unwrap();
    let bb = block * block;
    let mut dense_blocks: std::collections::HashSet<(usize, usize)> =
        std::collections::HashSet::new();
    for br in 0..bsr.block_rows() {
        for p in bsr.indptr()[br]..bsr.indptr()[br + 1] {
            let bc = bsr.indices()[p] as usize;
            let nnz_in_block =
                bsr.values()[p * bb..(p + 1) * bb].iter().filter(|&&v| v != 0.0).count();
            if nnz_in_block >= 2 {
                dense_blocks.insert((br, bc));
            }
        }
    }
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            if dense_blocks.contains(&(r / block, c as usize / block)) {
                blocks.push(r as u32, c, v);
            } else {
                rest.push(r as u32, c, v);
            }
        }
    }
    (Csr::from_coo(&blocks), Csr::from_coo(&rest))
}

#[test]
fn decomposed_bsr_plus_ell_spmm_matches_reference() {
    let mut rng = gen::rng(47);
    let (rows, cols, feat, block) = (16usize, 16usize, 4usize, 2usize);
    let a = gen::random_csr(rows, cols, 0.2, &mut rng);
    let x = gen::random_dense(cols, feat, &mut rng);

    let (a_blocks, a_rest) = split_for_bsr(&a, block);
    let bsr = Bsr::from_csr(&a_blocks, block).unwrap();
    let max_rest = a_rest.row_lengths().into_iter().max().unwrap_or(0).max(1);
    let ell = Ell::from_csr(&a_rest, max_rest).unwrap();

    let program = spmm_program(rows, cols, a.nnz(), feat);
    let rules = vec![
        FormatRewriteRule::bsr("A", block, bsr.block_rows(), bsr.block_cols(), bsr.nblocks()),
        FormatRewriteRule::ell("A", max_rest, rows, cols),
    ];
    let decomposed = decompose_format(&program, &rules).unwrap().strip_copies();
    let f = lower(&decomposed).unwrap();

    let mut b = Bindings::new();
    bind_bsr(&mut b, &format!("A_bsr_{block}"), &format!("bsr_{block}"), &bsr);
    bind_ell(&mut b, &format!("A_ell_{max_rest}"), &format!("ell_{max_rest}"), &ell);
    bind_dense(&mut b, "B", &x);
    bind_zeros(&mut b, "C", rows * feat);
    // The original CSR aux arrays are still parameters of the function
    // signature (A itself no longer participates in compute after
    // decomposition, but the copy-stripped program retains the buffer).
    bind_csr(&mut b, "A", "J", &a);
    run_stage3(&f, &mut b);

    let got = read_dense(&b, "C", rows, feat);
    let expect = a.spmm(&x).unwrap();
    assert!(
        got.approx_eq(&expect, 1e-3),
        "decomposed spmm mismatch: {}",
        got.max_abs_diff(&expect)
    );
}

#[test]
fn decomposed_bucket_ell_spmm_matches_reference() {
    // Full hyb(c, k) pipeline: every bucket of every column partition
    // becomes one bucket_ell rule; their accumulated SpMM must equal the
    // CSR reference.
    let mut rng = gen::rng(53);
    let (rows, cols, feat) = (24usize, 24usize, 3usize);
    let a = gen::random_csr(rows, cols, 0.15, &mut rng);
    let x = gen::random_dense(cols, feat, &mut rng);
    let hyb = Hyb::from_csr(&a, 2, 2).unwrap();

    let program = spmm_program(rows, cols, a.nnz(), feat);
    let mut rules = Vec::new();
    let mut tags = Vec::new();
    for (pi, part) in hyb.partitions().iter().enumerate() {
        for bucket in &part.buckets {
            if bucket.is_empty() {
                continue;
            }
            let tag = format!("p{pi}_w{}", bucket.width);
            rules.push(FormatRewriteRule::bucket_ell("A", &tag, bucket.width, bucket.len(), cols));
            tags.push((tag, bucket.clone()));
        }
    }
    let decomposed = decompose_format(&program, &rules).unwrap().strip_copies();
    let f = lower(&decomposed).unwrap();

    let mut b = Bindings::new();
    for (tag, bucket) in &tags {
        bind_bucket(&mut b, tag, bucket);
    }
    bind_csr(&mut b, "A", "J", &a);
    bind_dense(&mut b, "B", &x);
    bind_zeros(&mut b, "C", rows * feat);
    run_stage3(&f, &mut b);

    let got = read_dense(&b, "C", rows, feat);
    let expect = a.spmm(&x).unwrap();
    assert!(
        got.approx_eq(&expect, 1e-3),
        "hyb-decomposed spmm mismatch: {}",
        got.max_abs_diff(&expect)
    );
}

#[test]
fn stage2_schedules_preserve_stage3_semantics() {
    // Lower SpMM, then split + bind the feature loop (a GE-SpMM-style
    // schedule) and check the scheduled kernel still matches.
    let mut rng = gen::rng(61);
    let (rows, cols, feat) = (12usize, 12usize, 8usize);
    let a = gen::random_csr(rows, cols, 0.25, &mut rng);
    let x = gen::random_dense(cols, feat, &mut rng);
    let program = spmm_program(rows, cols, a.nnz(), feat);
    let f = lower(&program).unwrap();

    let mut sch = Schedule::new(f);
    let (ko, ki) = sch.split("k", 4).unwrap();
    sch.bind("i", ThreadAxis::BlockIdxX).unwrap();
    sch.bind(&ki, ThreadAxis::ThreadIdxX).unwrap();
    sch.unroll(&ko).unwrap();
    let scheduled = sch.into_func();

    let mut b = Bindings::new();
    bind_csr(&mut b, "A", "J", &a);
    bind_dense(&mut b, "B", &x);
    bind_zeros(&mut b, "C", rows * feat);
    run_stage3(&scheduled, &mut b);
    let got = read_dense(&b, "C", rows, feat);
    assert!(got.approx_eq(&a.spmm(&x).unwrap(), 1e-4));
}

#[test]
fn reordered_spmm_still_matches() {
    let mut rng = gen::rng(67);
    let (rows, cols, feat) = (8usize, 10usize, 4usize);
    let a = gen::random_csr(rows, cols, 0.3, &mut rng);
    let x = gen::random_dense(cols, feat, &mut rng);
    let mut program = spmm_program(rows, cols, a.nnz(), feat);
    // K-outermost order (Figure 6's reorder example).
    sparse_reorder(&mut program, "spmm", &["K", "I", "J"]).unwrap();
    let f = lower(&program).unwrap();
    let mut b = Bindings::new();
    bind_csr(&mut b, "A", "J", &a);
    bind_dense(&mut b, "B", &x);
    bind_zeros(&mut b, "C", rows * feat);
    run_stage3(&f, &mut b);
    let got = read_dense(&b, "C", rows, feat);
    assert!(got.approx_eq(&a.spmm(&x).unwrap(), 1e-4));
}

#[test]
fn codegen_emits_cuda_for_lowered_spmm() {
    let program = spmm_program(8, 8, 12, 4);
    let f = lower(&program).unwrap();
    let mut sch = Schedule::new(f);
    sch.bind("i", ThreadAxis::BlockIdxX).unwrap();
    sch.bind("k", ThreadAxis::ThreadIdxX).unwrap();
    let src = codegen_cuda(sch.func());
    assert!(src.contains("__global__ void spmm"), "{src}");
    assert!(src.contains("blockIdx.x"), "{src}");
    assert!(src.contains("J_indptr"), "{src}");
}
