//! Figure 18: SR-BCRS(t, g) expressed natively in SparseTIR axes — the
//! paper states "sparse matrices in SR-BCRS format can be composed by 4
//! axes in SparseTIR" (dense_fixed tile-rows → dense_variable groups →
//! sparse_fixed tiles → dense_fixed in-tile rows). This test builds that
//! axis tree, checks the flattening matches `sparsetir-smat`'s SR-BCRS
//! layout bit-for-bit, and runs a full SpMM on it through the lowering
//! pipeline.

use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_smat::prelude::*;
use std::collections::HashMap;

/// Build the Stage I SpMM program over an SR-BCRS(t, g) weight.
fn srbcrs_spmm_program(s: &SrBcrs, feat: usize) -> (SpProgram, SpBuffer) {
    let total_groups = *s.group_indptr().last().expect("nonempty indptr");
    let mut b = ProgramBuilder::new("srbcrs_spmm");
    b.dense_fixed("TR", s.tile_rows());
    b.dense_variable("G", "TR", total_groups, total_groups, "sr_indptr");
    b.sparse_fixed("TL", "G", s.cols(), s.g(), "sr_indices");
    b.dense_fixed("II", s.t());
    b.dense_fixed("J_", s.cols());
    b.dense_fixed("K", feat);
    let w = b.sparse_buffer("W", &["TR", "G", "TL", "II"], DType::F32);
    let x = b.sparse_buffer("X", &["J_", "K"], DType::F32);
    // Output has t·tile_rows rows (covers the logical rows, padded).
    b.dense_fixed("IY", s.tile_rows() * s.t());
    let y = b.sparse_buffer("Y", &["IY", "K"], DType::F32);
    let axes = b.axes().clone();
    let t = s.t() as i64;
    let (wc, xc, yc) = (w.clone(), x.clone(), y.clone());
    b.sp_iter("spmm", &["TR", "G", "TL", "II", "K"], "SRRSS", |vars| {
        let (tr, g, tl, ii, k) = (&vars[0], &vars[1], &vars[2], &vars[3], &vars[4]);
        let out_row = Expr::var(tr) * t + Expr::var(ii);
        let init = vec![SpStore {
            buffer: yc.name.clone(),
            indices: vec![out_row.clone(), Expr::var(k)],
            value: Expr::f32(0.0),
        }];
        let body = vec![SpStore {
            buffer: yc.name.clone(),
            indices: vec![out_row.clone(), Expr::var(k)],
            value: yc.load(&axes, vec![out_row, Expr::var(k)])
                + wc.load(&axes, vec![Expr::var(tr), Expr::var(g), Expr::var(tl), Expr::var(ii)])
                    * xc.load(&axes, vec![Expr::var(tl), Expr::var(k)]),
        }];
        (init, body)
    });
    (b.finish(), w)
}

#[test]
fn srbcrs_flattening_matches_smat_layout() {
    let mut rng = gen::rng(180);
    let a = gen::random_csr(16, 16, 0.15, &mut rng);
    let s = SrBcrs::from_csr(&a, 4, 2).unwrap();
    let (program, w) = srbcrs_spmm_program(&s, 2);
    // flat(W[tr, g, tl, ii]) = ((indptr[tr]+g)·g_size + tl)·t + ii.
    let vars: Vec<Expr> =
        ["tr", "g", "tl", "ii"].iter().map(|n| Expr::var(&Var::i32(*n))).collect();
    let flat = flatten_access(&program.axes, &w, &vars).unwrap();
    let txt = print_expr(&flat);
    assert!(txt.contains("sr_indptr[tr]"), "{txt}");
    assert_eq!(flat_size(&program.axes, &w).as_const_int(), Some(s.stored() as i64));
}

#[test]
fn srbcrs_spmm_lowered_matches_reference() {
    let mut rng = gen::rng(181);
    // Dimensions divisible by t so the padded output equals the original.
    let a = gen::random_csr(24, 20, 0.2, &mut rng);
    let t = 4usize;
    let g = 2usize;
    let s = SrBcrs::from_csr(&a, t, g).unwrap();
    let feat = 3usize;
    let (program, _) = srbcrs_spmm_program(&s, feat);
    let func = lower(&program).expect("lowers");
    verify(&func).expect("well-formed");

    let x = gen::random_dense(a.cols(), feat, &mut rng);
    let mut b = Bindings::new();
    b.insert(
        "sr_indptr".into(),
        TensorData::from(s.group_indptr().iter().map(|&v| v as i32).collect::<Vec<_>>()),
    );
    b.insert(
        "sr_indices".into(),
        TensorData::from(s.tile_cols().iter().map(|&v| v as i32).collect::<Vec<_>>()),
    );
    b.insert("W".into(), TensorData::from(s.values().to_vec()));
    bind_dense(&mut b, "X", &x);
    bind_zeros(&mut b, "Y", s.tile_rows() * t * feat);
    exec_func(&func, &HashMap::new(), &mut b).expect("executes");
    let got = read_dense(&b, "Y", s.tile_rows() * t, feat);

    let expect = a.spmm(&x).unwrap();
    for r in 0..a.rows() {
        for c in 0..feat {
            assert!(
                (got.get(r, c) - expect.get(r, c)).abs() < 1e-3,
                "({r},{c}): {} vs {}",
                got.get(r, c),
                expect.get(r, c)
            );
        }
    }
}

#[test]
fn srbcrs_program_prints_figure18_axes() {
    let mut rng = gen::rng(182);
    let a = gen::random_csr(8, 8, 0.3, &mut rng);
    let s = SrBcrs::from_csr(&a, 2, 2).unwrap();
    let (program, _) = srbcrs_spmm_program(&s, 2);
    let script = program.script();
    // The four axes of Figure 18's annotation.
    assert!(script.contains("TR = dense_fixed"), "{script}");
    assert!(script.contains("G = dense_variable"), "{script}");
    assert!(script.contains("TL = sparse_fixed"), "{script}");
    assert!(script.contains("II = dense_fixed(len=2)"), "{script}");
}
