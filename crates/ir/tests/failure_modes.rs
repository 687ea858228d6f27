//! Failure-injection tests: every user-facing error path of the IR crate
//! must fail loudly with an actionable message — never silently compute
//! garbage. (C-GOOD-ERR / C-VALIDATE.)
//!
//! The `row_nests` cases fail a CSR SpMM in a row the nest *re-enters*
//! (the last one; whichever thread owns it entered an earlier row first),
//! at its first trip, in its middle and at its end, under its `blockIdx`
//! loop: CI runs this file at `SPARSETIR_NUM_THREADS=1` and `=2`, so the
//! row nest falls back to the lane prologue, or hands the failing trip to
//! the generic loop, from both the plain and the relaxed-atomic lane body.
//! The `allocation` cases are extents no buffer can have: a typed error
//! with one text on all three executors, never an allocator panic.

use sparsetir_ir::prelude::*;
use std::collections::HashMap;

fn scale_func(n: i64) -> PrimFunc {
    let i = Var::i32("i");
    let a = Buffer::global_f32("A", vec![Expr::i32(n)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(n)]);
    let body = Stmt::for_serial(
        i.clone(),
        n,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&i)],
            value: a.load(vec![Expr::var(&i)]) * 2.0f32,
        },
    );
    PrimFunc::new("scale", vec![], vec![a, c], body)
}

mod interpreter {
    use super::*;

    #[test]
    fn missing_tensor_binding() {
        let f = scale_func(4);
        let mut t = HashMap::new();
        t.insert("A".to_string(), TensorData::from(vec![0.0f32; 4]));
        let err = eval_func(&f, &HashMap::new(), &mut t).unwrap_err();
        assert!(err.to_string().contains("missing tensor binding"), "{err}");
    }

    #[test]
    fn missing_scalar_param() {
        let n = Var::i32("n");
        let f = PrimFunc::new("f", vec![n], vec![], Stmt::nop());
        let err = eval_func(&f, &HashMap::new(), &mut HashMap::new()).unwrap_err();
        assert!(err.to_string().contains("missing scalar param"), "{err}");
    }

    #[test]
    fn undersized_binding_is_out_of_bounds() {
        let f = scale_func(4);
        let mut t = HashMap::new();
        t.insert("A".to_string(), TensorData::from(vec![0.0f32; 2])); // too short
        t.insert("C".to_string(), TensorData::from(vec![0.0f32; 4]));
        let err = eval_func(&f, &HashMap::new(), &mut t).unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
    }

    #[test]
    fn integer_division_by_zero() {
        let out = Buffer::global_i32("out", vec![Expr::i32(1)]);
        let body = Stmt::BufferStore {
            buffer: out.clone(),
            indices: vec![Expr::i32(0)],
            value: Expr::i32(1) / Expr::i32(0),
        };
        let f = PrimFunc::new("div0", vec![], vec![out], body);
        let mut t = HashMap::new();
        t.insert("out".to_string(), TensorData::from(vec![0i32]));
        let err = eval_func(&f, &HashMap::new(), &mut t).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let a = Buffer::global_f32("A", vec![Expr::i32(2), Expr::i32(2)]);
        let body = Stmt::BufferStore {
            buffer: a.clone(),
            indices: vec![Expr::i32(0)], // rank-2 buffer, 1 index
            value: Expr::f32(0.0),
        };
        let f = PrimFunc::new("f", vec![], vec![a], body);
        let mut t = HashMap::new();
        t.insert("A".to_string(), TensorData::from(vec![0.0f32; 4]));
        let err = eval_func(&f, &HashMap::new(), &mut t).unwrap_err();
        assert!(err.to_string().contains("indices"), "{err}");
    }
}

mod schedules {
    use super::*;

    #[test]
    fn split_of_missing_loop() {
        let mut sch = Schedule::new(scale_func(4));
        let err = sch.split("zz", 2).unwrap_err();
        assert!(err.to_string().contains("not found"), "{err}");
    }

    #[test]
    fn split_by_zero_rejected() {
        let mut sch = Schedule::new(scale_func(4));
        assert!(sch.split("i", 0).is_err());
        assert!(sch.split("i", -3).is_err());
    }

    #[test]
    fn fuse_requires_perfect_nesting() {
        // i's body is a store, not the named inner loop.
        let mut sch = Schedule::new(scale_func(4));
        let err = sch.fuse("i", "j").unwrap_err();
        assert!(
            err.to_string().contains("nested") || err.to_string().contains("expected"),
            "{err}"
        );
    }

    #[test]
    fn reorder_requires_contiguous_chain() {
        let i = Var::i32("i");
        let j = Var::i32("j");
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        // i and j are siblings, not nested.
        let body = Stmt::for_serial(i, 2, Stmt::nop()).then(Stmt::for_serial(
            j,
            2,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::i32(0)],
                value: Expr::f32(0.0),
            },
        ));
        let mut sch = Schedule::new(PrimFunc::new("f", vec![], vec![c], body));
        assert!(sch.reorder(&["j", "i"]).is_err());
    }

    #[test]
    fn rfactor_requires_accumulation_shape() {
        // Block body is a plain store (no C = C + e pattern).
        let r = Var::i32("r");
        let c = Buffer::global_f32("C", vec![Expr::i32(1)]);
        let blk = Stmt::Block(Block {
            name: "s".into(),
            iter_vars: vec![IterVar::reduce(Var::i32("vr"), Expr::var(&r))],
            reads: vec![],
            writes: vec![],
            init: None,
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::i32(0)],
                value: Expr::f32(1.0),
            }),
        });
        let f = PrimFunc::new("f", vec![], vec![c], Stmt::for_serial(r, 4, blk));
        let mut sch = Schedule::new(f);
        let err = sch.rfactor("s", "r").unwrap_err();
        assert!(err.to_string().contains("C[i] = C[i] + e"), "{err}");
    }

    #[test]
    fn tensorize_requires_constant_extents() {
        let n = Var::i32("n");
        let mi = Var::i32("mi");
        let ni = Var::i32("ni");
        let ki = Var::i32("ki");
        let a = Buffer::global_f32("A", vec![Expr::i32(64)]);
        let b = Buffer::global_f32("B", vec![Expr::i32(64)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(64)]);
        let store = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&mi) * 8 + Expr::var(&ni)],
            value: c.load(vec![Expr::var(&mi) * 8 + Expr::var(&ni)])
                + a.load(vec![Expr::var(&mi) * 8 + Expr::var(&ki)])
                    * b.load(vec![Expr::var(&ki) * 8 + Expr::var(&ni)]),
        };
        let body = Stmt::For {
            var: mi.clone(),
            extent: Expr::var(&n), // symbolic extent
            kind: ForKind::Serial,
            body: Box::new(Stmt::for_serial(ni, 8, Stmt::for_serial(ki, 8, store))),
        };
        let f = PrimFunc::new("g", vec![n], vec![a, b, c], body);
        let mut sch = Schedule::new(f);
        let err = sch.tensorize_gemm("mi", "ni", "ki").unwrap_err();
        assert!(err.to_string().contains("constant"), "{err}");
    }

    #[test]
    fn cache_read_of_missing_buffer() {
        let mut sch = Schedule::new(scale_func(4));
        let err = sch
            .cache_read("i", "ZZ", Scope::Shared, Expr::i32(0), Expr::i32(1), &|_| None)
            .unwrap_err();
        assert!(err.to_string().contains("not found"), "{err}");
    }
}

mod verifier {
    use super::*;

    #[test]
    fn scheduled_functions_still_verify() {
        let mut sch = Schedule::new(scale_func(16));
        let (o, i) = sch.split("i", 4).unwrap();
        sch.bind(&o, ThreadAxis::BlockIdxX).unwrap();
        sch.vectorize(&i).unwrap();
        verify(sch.func()).unwrap();
    }

    #[test]
    fn substituted_dangling_var_is_caught() {
        // Manually construct a body referencing a variable that no loop
        // binds — the verifier must reject what the interpreter would also
        // reject, but statically.
        let ghost = Var::i32("ghost");
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        let f = PrimFunc::new(
            "bad",
            vec![],
            vec![c.clone()],
            Stmt::BufferStore {
                buffer: c,
                indices: vec![Expr::var(&ghost)],
                value: Expr::f32(0.0),
            },
        );
        assert!(verify(&f).is_err());
        let mut t = HashMap::new();
        t.insert("C".to_string(), TensorData::from(vec![0.0f32; 4]));
        assert!(eval_func(&f, &HashMap::new(), &mut t).is_err());
    }
}

mod row_nests {
    use super::*;
    use sparsetir_kernels::prelude::csr_spmm_ir;
    use sparsetir_smat::prelude::Csr;

    const ROWS: usize = 6;
    const COLS: usize = 6;
    /// Row lengths 2, 0, 1, 3, 0, 3: the last row is where every case
    /// fails, so whichever thread owns it, every other row completes on
    /// the interpreter and under any fan-out alike.
    const INDPTR: [i32; ROWS + 1] = [0, 2, 2, 3, 6, 6, 9];
    /// Column 5 is referenced by the last row's middle non-zero only.
    const INDICES: [i32; 9] = [0, 3, 2, 1, 2, 4, 1, 5, 3];

    /// The default (`blockIdx`-bound) CSR SpMM schedule at width `d`, its
    /// row loop a nest, with hand-written structure tensors.
    fn spmm(d: usize) -> (PrimFunc, HashMap<String, TensorData>) {
        // Only the dimensions of `a` reach the IR.
        let indptr = INDPTR.iter().map(|&p| p as usize).collect();
        let sorted = vec![0, 3, 2, 1, 2, 4, 1, 3, 5];
        let a = Csr::new(ROWS, COLS, indptr, sorted, vec![1.0; 9]).unwrap();
        let f = csr_spmm_ir(&a, d).unwrap();
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        assert!(fused.is_parallel() && fused.disassemble().contains("nest.axpy"));
        let ramp =
            |len: usize, by: f32| (0..len).map(|x| by * (x as f32 - 7.0)).collect::<Vec<_>>();
        let mut t = HashMap::new();
        t.insert("J_indptr".to_string(), TensorData::from(INDPTR.to_vec()));
        t.insert("J_indices".to_string(), TensorData::from(INDICES.to_vec()));
        t.insert("A".to_string(), TensorData::from(ramp(9, 0.5)));
        t.insert("B".to_string(), TensorData::from(ramp(COLS * d, 0.125)));
        t.insert("C".to_string(), TensorData::from(vec![9.0f32; ROWS * d]));
        (f, t)
    }

    /// Interpreter, all-generic bytecode and the nest: one outcome — an
    /// error whose text contains `says`, or success for `None` — and `C`
    /// element for element the interpreter's, which is returned.
    fn agrees(f: &PrimFunc, tensors: &HashMap<String, TensorData>, says: Option<&str>) -> Vec<f32> {
        let mut want = tensors.clone();
        let err = eval_func(f, &HashMap::new(), &mut want).err().map(|e| e.to_string());
        let err = err.as_deref().map(|e| e.strip_prefix("interpreter error: ").expect("prefix"));
        match (err, says) {
            (Some(err), Some(says)) => assert!(err.contains(says), "{err}"),
            (None, None) => {}
            other => panic!("interpreter outcome vs expectation: {other:?}"),
        }
        for fuse in [false, true] {
            let mut got = tensors.clone();
            let kernel = CompiledKernel::compile_with(f, fuse).unwrap();
            let e = kernel.run(&HashMap::new(), &mut got).err().map(|e| e.to_string());
            let e = e.as_deref().map(|e| e.strip_prefix("executor error: ").expect("prefix"));
            assert_eq!(e, err, "fuse = {fuse}");
            let (got, want) = (got["C"].as_f32(), want["C"].as_f32());
            let same = got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "fuse = {fuse}: C diverged\n{got:?}\n{want:?}");
        }
        want["C"].as_f32().to_vec()
    }

    /// [`agrees`] on a failure past the last row's first trip: rows before
    /// the last complete, the last row's first trip written (over the
    /// stale 9.0s), nothing of its later trips.
    fn fails_identically(f: &PrimFunc, tensors: &HashMap<String, TensorData>, says: &str) {
        let c = agrees(f, tensors, Some(says));
        let last = &c[(ROWS - 1) * (c.len() / ROWS)..];
        assert!(last.iter().all(|&c| c != 9.0), "the failing row's first trip landed: {last:?}");
    }

    #[test]
    fn column_past_the_operand_in_the_middle_of_a_row() {
        for d in [4, 64] {
            let (f, mut t) = spmm(d);
            let TensorData::I32(cols) = t.get_mut("J_indices").unwrap() else { unreachable!() };
            cols[7] = COLS as i32;
            // `B` is declared flat: column 6 is element `6·d` of `6·d`.
            let n = COLS * d;
            let says = format!("index {n} out of bounds for dim of extent {n} in buffer `B`");
            fails_identically(&f, &t, &says);
        }
    }

    #[test]
    fn column_past_the_operand_at_the_first_and_the_last_trip_of_a_row() {
        // Trip 0: the re-pin itself fails, before the row writes anything
        // (its stale 9.0s stay). Trip 2: the walk stops two trips in.
        for (at, landed) in [(6, false), (8, true)] {
            let (f, mut t) = spmm(4);
            let TensorData::I32(cols) = t.get_mut("J_indices").unwrap() else { unreachable!() };
            cols[at] = COLS as i32;
            let c =
                agrees(&f, &t, Some("index 24 out of bounds for dim of extent 24 in buffer `B`"));
            let last = &c[(ROWS - 1) * 4..];
            assert_eq!(last.iter().all(|&c| c != 9.0), landed, "position {at}: {last:?}");
        }
    }

    #[test]
    fn non_monotone_row_pointer_is_an_empty_row() {
        // `indptr[4] < indptr[3]`: row 3 has a negative trip count and is
        // skipped, row 4 picks up positions 2..6 — no error anywhere.
        let (f, mut t) = spmm(4);
        let TensorData::I32(ptr) = t.get_mut("J_indptr").unwrap() else { unreachable!() };
        ptr[4] = 2;
        let c = agrees(&f, &t, None);
        assert!(c[3 * 4..4 * 4].iter().all(|&c| c == 9.0), "row 3 untouched: {c:?}");
        assert!(c[4 * 4..5 * 4].iter().all(|&c| c != 9.0), "row 4 written: {c:?}");
    }

    #[test]
    fn output_bound_one_row_short() {
        // `C` holds five of its six declared rows: the last row's very
        // first store has nowhere to go.
        let (f, mut t) = spmm(4);
        let TensorData::F32(c) = t.get_mut("C").unwrap() else { unreachable!() };
        c.truncate(5 * 4);
        agrees(&f, &t, Some("flat index 20 out of bounds (len 20) in buffer `C`"));
    }

    #[test]
    fn negative_column_in_the_middle_of_a_row() {
        let (f, mut t) = spmm(4);
        let TensorData::I32(cols) = t.get_mut("J_indices").unwrap() else { unreachable!() };
        cols[7] = -2;
        fails_identically(&f, &t, "index -8 out of bounds for dim of extent 24 in buffer `B`");
    }

    #[test]
    fn operand_bound_one_row_short() {
        // `B` holds five of its six declared rows: the declared dimension
        // admits column 5, the bound storage does not.
        let (f, mut t) = spmm(4);
        let TensorData::F32(b) = t.get_mut("B").unwrap() else { unreachable!() };
        b.truncate(5 * 4);
        fails_identically(&f, &t, "flat index 20 out of bounds (len 20) in buffer `B`");
    }

    #[test]
    fn values_bound_short_of_the_last_row() {
        // The coefficient walk leaves `A`'s storage at the same trip.
        let (f, mut t) = spmm(4);
        let TensorData::F32(a) = t.get_mut("A").unwrap() else { unreachable!() };
        a.truncate(7);
        fails_identically(&f, &t, "flat index 7 out of bounds (len 7) in buffer `A`");
    }

    #[test]
    fn row_pointer_past_the_index_buffer() {
        // The gather itself runs off `J_indices` two trips past the row.
        let (f, mut t) = spmm(4);
        let TensorData::I32(ptr) = t.get_mut("J_indptr").unwrap() else { unreachable!() };
        ptr[ROWS] += 2;
        fails_identically(&f, &t, "out of bounds");
    }
}

mod allocation {
    use super::*;

    /// `alloc tmp[extents] { out[0] = 5 }`.
    fn staged(extents: &[i64]) -> PrimFunc {
        let shape = extents.iter().map(|&d| Expr::i32(d)).collect();
        let tmp = Buffer::new("tmp", DType::F32, shape, Scope::Shared);
        let out = Buffer::global_f32("out", vec![Expr::i32(1)]);
        let store = Stmt::BufferStore {
            buffer: out.clone(),
            indices: vec![Expr::i32(0)],
            value: Expr::f32(5.0),
        };
        let body = Stmt::Allocate { buffer: tmp, body: Box::new(store) };
        PrimFunc::new("staged", vec![], vec![out], body)
    }

    /// An extent no buffer can have is an error with one text on the
    /// interpreter, the all-generic bytecode and the fused build — never
    /// an allocator panic — raised before the body writes anything.
    #[test]
    fn impossible_extents_are_typed_errors_on_every_executor() {
        let big = i64::from(i32::MAX);
        let cases: [(&[i64], &str); 4] = [
            (&[-1], "negative extent -1 in allocation of buffer `tmp`"),
            (&[2, -3], "negative extent -3 in allocation of buffer `tmp`"),
            (&[big, big], "allocation of buffer `tmp` overflows"),
            (&[big, big, big], "allocation of buffer `tmp` overflows"),
        ];
        for (extents, says) in cases {
            let f = staged(extents);
            let fresh = || HashMap::from([("out".to_string(), TensorData::from(vec![3.0f32]))]);
            let mut t = fresh();
            let want = eval_func(&f, &HashMap::new(), &mut t).unwrap_err().to_string();
            let want = want.strip_prefix("interpreter error: ").expect("an interpreter error");
            assert!(want.contains(says), "{extents:?}: {want}");
            assert_eq!(t["out"].as_f32(), &[3.0]);
            for fuse in [false, true] {
                let mut t = fresh();
                let kernel = CompiledKernel::compile_with(&f, fuse).unwrap();
                let got = kernel.run(&HashMap::new(), &mut t).unwrap_err().to_string();
                assert_eq!(got.strip_prefix("executor error: "), Some(want), "fuse = {fuse}");
                assert_eq!(t["out"].as_f32(), &[3.0], "fuse = {fuse}");
            }
            let mut t = fresh();
            let got = exec_func(&f, &HashMap::new(), &mut t).unwrap_err().to_string();
            assert_eq!(got.strip_prefix("executor error: "), Some(want), "exec_func");
        }
    }
}
