//! Property-based tests of the lowering pipeline: for arbitrary sparse
//! structures, the lowered Stage III kernel must agree with the reference
//! routines — the compiler-correctness invariant behind every experiment.

use proptest::prelude::*;
use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_smat::prelude::*;
use std::collections::HashMap;

fn arb_csr(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(move |(rows, cols)| {
        proptest::collection::vec((0..rows as u32, 0..cols as u32, 0.1f32..2.0f32), 1..max_nnz)
            .prop_map(move |entries| {
                let coo = Coo::from_entries(rows, cols, entries).expect("in-bounds");
                Csr::from_coo(&coo)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lowered SpMM == reference SpMM for arbitrary structures.
    #[test]
    fn lowered_spmm_matches_reference(a in arb_csr(14, 40), feat in 1usize..6) {
        let program = spmm_program(a.rows(), a.cols(), a.nnz(), feat);
        let func = lower(&program).expect("lowers");
        verify(&func).expect("well-formed IR");

        let mut rng = gen::rng(1);
        let x = gen::random_dense(a.cols(), feat, &mut rng);
        let mut b = Bindings::new();
        bind_csr(&mut b, "A", "J", &a);
        bind_dense(&mut b, "B", &x);
        bind_zeros(&mut b, "C", a.rows() * feat);
        exec_func(&func, &HashMap::new(), &mut b).expect("executes");
        let got = read_dense(&b, "C", a.rows(), feat);
        prop_assert!(got.approx_eq(&a.spmm(&x).unwrap(), 1e-3));
    }

    /// Lowered fused SDDMM == reference for arbitrary structures.
    #[test]
    fn lowered_fused_sddmm_matches_reference(a in arb_csr(12, 30), feat in 1usize..5) {
        let mut program = sddmm_program(a.rows(), a.cols(), a.nnz(), feat);
        sparse_fuse(&mut program, "sddmm", &["I", "J"]).expect("fuses");
        let func = lower(&program).expect("lowers");
        verify(&func).expect("well-formed IR");

        let mut rng = gen::rng(2);
        let x = gen::random_dense(a.rows(), feat, &mut rng);
        let y = gen::random_dense(feat, a.cols(), &mut rng);
        let mut b = Bindings::new();
        bind_csr(&mut b, "A", "J", &a);
        bind_dense(&mut b, "X", &x);
        bind_dense(&mut b, "Y", &y);
        b.insert("Bout".into(), TensorData::from(vec![0.0f32; a.nnz()]));
        exec_func(&func, &HashMap::new(), &mut b).expect("executes");
        let expect = a.sddmm(&x, &y).unwrap();
        for (g, e) in b["Bout"].as_f32().iter().zip(expect.values()) {
            prop_assert!((g - e).abs() < 1e-3, "{g} vs {e}");
        }
    }

    /// Decomposing into hyb bucket rules preserves SpMM semantics for
    /// arbitrary structures and (c, k).
    #[test]
    fn decomposed_hyb_matches_reference(
        a in arb_csr(12, 40),
        c in 1usize..4,
        k in 0u32..3,
        feat in 1usize..4,
    ) {
        let hyb = Hyb::from_csr(&a, c.min(a.cols()), k).expect("0 < c <= cols");
        let program = spmm_program(a.rows(), a.cols(), a.nnz(), feat);
        let mut rules = Vec::new();
        let mut buckets = Vec::new();
        for (pi, part) in hyb.partitions().iter().enumerate() {
            for bucket in &part.buckets {
                if bucket.is_empty() {
                    continue;
                }
                let tag = format!("p{pi}_w{}", bucket.width);
                rules.push(FormatRewriteRule::bucket_ell(
                    "A", &tag, bucket.width, bucket.len(), a.cols(),
                ));
                buckets.push((tag, bucket.clone()));
            }
        }
        if rules.is_empty() {
            // Empty matrix: nothing to check.
            return Ok(());
        }
        let decomposed = decompose_format(&program, &rules).expect("decomposes").strip_copies();
        let func = lower(&decomposed).expect("lowers");
        verify(&func).expect("well-formed IR");

        let mut rng = gen::rng(3);
        let x = gen::random_dense(a.cols(), feat, &mut rng);
        let mut b = Bindings::new();
        for (tag, bucket) in &buckets {
            bind_bucket(&mut b, tag, bucket);
        }
        bind_csr(&mut b, "A", "J", &a);
        bind_dense(&mut b, "B", &x);
        bind_zeros(&mut b, "C", a.rows() * feat);
        exec_func(&func, &HashMap::new(), &mut b).expect("executes");
        let got = read_dense(&b, "C", a.rows(), feat);
        prop_assert!(got.approx_eq(&a.spmm(&x).unwrap(), 1e-3));
    }

    /// Split/bind/unroll schedules never change results for arbitrary
    /// structures and split factors.
    #[test]
    fn schedules_preserve_semantics(a in arb_csr(10, 30), factor in 1i64..9) {
        let feat = 8usize;
        let program = spmm_program(a.rows(), a.cols(), a.nnz(), feat);
        let func = lower(&program).expect("lowers");

        let run = |f: &PrimFunc| {
            let mut rng = gen::rng(4);
            let x = gen::random_dense(a.cols(), feat, &mut rng);
            let mut b = Bindings::new();
            bind_csr(&mut b, "A", "J", &a);
            bind_dense(&mut b, "B", &x);
            bind_zeros(&mut b, "C", a.rows() * feat);
            exec_func(f, &HashMap::new(), &mut b).expect("executes");
            read_dense(&b, "C", a.rows(), feat)
        };
        let before = run(&func);

        let mut sch = Schedule::new(func);
        let (ko, ki) = sch.split("k", factor).expect("splits");
        sch.unroll(&ko).expect("unrolls");
        sch.bind("i", ThreadAxis::BlockIdxX).expect("binds block");
        sch.bind(&ki, ThreadAxis::ThreadIdxX).expect("binds thread");
        let scheduled = sch.into_func();
        verify(&scheduled).expect("well-formed after scheduling");
        let after = run(&scheduled);
        prop_assert!(before.approx_eq(&after, 1e-5));
    }

    /// The interpreted FLOP count of lowered SpMM is exactly 2·nnz·feat.
    #[test]
    fn flop_count_is_exact(a in arb_csr(10, 30), feat in 1usize..5) {
        let program = spmm_program(a.rows(), a.cols(), a.nnz(), feat);
        let func = lower(&program).expect("lowers");
        let mut rng = gen::rng(5);
        let x = gen::random_dense(a.cols(), feat, &mut rng);
        let mut b = Bindings::new();
        bind_csr(&mut b, "A", "J", &a);
        bind_dense(&mut b, "B", &x);
        bind_zeros(&mut b, "C", a.rows() * feat);
        let counts = count_ops(&func, &HashMap::new(), &b).expect("counts");
        prop_assert!((counts.flops - 2.0 * (a.nnz() * feat) as f64).abs() < 1e-9);
    }
}
