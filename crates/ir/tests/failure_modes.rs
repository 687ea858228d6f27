//! Failure-injection tests: every user-facing error path of the IR crate
//! must fail loudly with an actionable message — never silently compute
//! garbage. (C-GOOD-ERR / C-VALIDATE.)
//!
//! The `row_nests` cases fail a CSR SpMM in a row the block enters after
//! others (the last one), at its first trip, in its middle and at its end,
//! under its `blockIdx` loop: the block hands the failing trip — trip 0
//! included — to the generic loop behind the nest.
//! The `stepped` cases do the same to a *long* row — twelve trips, so the
//! failing trip is one the monomorphised trip loop would have taken: a
//! column out of range at its first, a middle and its last trip (the
//! per-trip test against the entry's reach), in the launch's last row and
//! in its first; a coefficient slab one element short and a row pointer
//! that claims 2³¹ trips (the row's test fails: the row goes to the
//! generic loop at trip 0, never to an early error), a negative position,
//! and a column inside one of two operands the gather moves and past the
//! other (each has its own reach).
//! The `ratio` cases do it to a nest whose coefficient is attention's
//! softmax ratio `P[pos] / Sum[i]`: the factor's load past its binding at an
//! entry, the walked load one element short mid-row, and a factor of ±0,
//! NaN or ±inf (no error: the bits of IEEE division in the source's order).
//! The `allocation` cases are extents no buffer can have: a typed error
//! with one text on all three executors, never an allocator panic.
//! The `row_blocks` cases break the structure under the served SpMM,
//! whose rows run as one row block: a row pointer that decreases, runs
//! past the indices or goes negative in the middle of the block, and a
//! column past the operand in its last row.
//! The row that fails a block's test goes to the generic loop behind the
//! nest: the same error text and written prefix.
//! The `unit_nests` case does it to a `hyb` width-1 bucket, whose rows
//! run as a block over a nest of one trip: a column past the operand in a
//! middle bucket row; beside it, a unit-trip loop whose one-trip nest does
//! not plan keeps the listing it had without the rule.
//! The `csr_rows` cases do it to the CSR row loop, which rolls `cur` over
//! from the row before: a `cur` that fails its interval after an empty row
//! and at the launch's first row, and a roll across a decreasing `indptr`.
//! The `integer_arithmetic` cases are a quotient that overflows (a typed
//! error with one text on all three executors, never a panic, and no
//! compile-time fold) and `+ − *` past `i64` (wrapping, everywhere); the
//! `row_nests` case multiplies a reduce binding by `i64::MIN`, whose
//! wrapped values restart the init mid-row, so no block takes the nest.
//! The `param_extents` cases run a CSR row block whose `A` and
//! `J_indices` are declared `[nnz]`, `nnz` a launch parameter: equal to,
//! below and above the bound storage's length, a position at `nnz − 1` and
//! at `nnz`, `nnz` missing, and values no dimension can have — one outcome
//! on all three executors, error text and written prefix included.

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
    /// fails, so every other row completes first.
    const INDPTR: [i32; ROWS + 1] = [0, 2, 2, 3, 6, 6, 9];
    /// Column 5 is referenced by the last row's middle non-zero only.
    const INDICES: [i32; 9] = [0, 3, 2, 1, 2, 4, 1, 5, 3];

    /// The default (`blockIdx`-bound) CSR SpMM schedule at width `d`, its
    /// row loop a nest, with hand-written structure tensors.
    pub(super) fn spmm(d: usize) -> (PrimFunc, HashMap<String, TensorData>) {
        // Only the dimensions of `a` reach the IR.
        let indptr = INDPTR.iter().map(|&p| p as usize).collect();
        let sorted = vec![0, 3, 2, 1, 2, 4, 1, 3, 5];
        let a = Csr::new(ROWS, COLS, indptr, sorted, vec![1.0; 9]).unwrap();
        let f = csr_spmm_ir(&a, d).unwrap();
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        let listing = fused.disassemble();
        assert!(listing.contains("\n0000  rows ") && listing.contains("nest.axpy"), "{listing}");
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
    pub(super) fn agrees(
        f: &PrimFunc,
        tensors: &HashMap<String, TensorData>,
        says: Option<&str>,
    ) -> Vec<f32> {
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
        // Trip 0: the row's test of its gathered column fails, before the
        // row writes anything (its stale 9.0s stay). Trip 2: the trip loop
        // stops two trips in.
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

    /// Every reduce binding under `s` times `by`.
    fn scale_reduce(s: &mut Stmt, by: i64) {
        use sparsetir_ir::stmt::IterKind;
        match s {
            Stmt::For { body, .. } | Stmt::Let { body, .. } | Stmt::Allocate { body, .. } => {
                scale_reduce(body, by);
            }
            Stmt::Block(b) => {
                for iv in b.iter_vars.iter_mut().filter(|iv| iv.kind == IterKind::Reduce) {
                    iv.binding = iv.binding.clone() * Expr::i32(by);
                }
                scale_reduce(&mut b.body, by);
            }
            Stmt::Seq(stmts) => stmts.iter_mut().for_each(|s| scale_reduce(s, by)),
            Stmt::IfThenElse { then_branch, else_branch, .. } => {
                scale_reduce(then_branch, by);
                if let Some(e) = else_branch {
                    scale_reduce(e, by);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn reduce_binding_times_i64_min_wraps_as_the_interpreter_does() {
        // `j · i64::MIN` wraps to 0 at every even trip, so the init fires
        // there again: row 3 (three trips) keeps only its last term. A
        // block would take the row with the init decided once, so the
        // launch must not solve one (`|step|` must not wrap either).
        let (mut f, t) = spmm(4);
        scale_reduce(&mut f.body, i64::MIN);
        let c = agrees(&f, &t, None);
        let last_term = 0.5 * (5.0 - 7.0) * 0.125 * (4.0 * 4.0 - 7.0);
        assert_eq!(c[3 * 4], last_term, "row 3 restarted at its last trip: {c:?}");
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

mod stepped {
    use super::*;
    use sparsetir_kernels::prelude::csr_spmm_ir;
    use sparsetir_smat::prelude::Csr;

    const ROWS: usize = 6;
    const COLS: usize = 16;
    const NNZ: usize = 18;
    /// Row lengths 2, 0, 1, 3, 0, 12: every case fails in the long last
    /// row (or the empty one before it), which the block enters last.
    const INDPTR: [i32; ROWS + 1] = [0, 2, 2, 3, 6, 6, 18];
    /// Where the last row starts, and how many trips it has.
    const LAST: usize = 6;
    const TRIPS: usize = 12;
    /// Row lengths 12, 0, 1, 3, 0, 2: the long row is the first the launch
    /// enters the nest for.
    const LONG_FIRST: [i32; ROWS + 1] = [0, 12, 12, 13, 16, 16, 18];

    /// The default (`blockIdx`-bound) CSR SpMM at width `d` with
    /// hand-written structure tensors, the long row last (`INDPTR`) or
    /// first (`LONG_FIRST`); `C` holds stale 9.0s.
    fn spmm(d: usize, long_first: bool) -> (PrimFunc, HashMap<String, TensorData>) {
        let (short, long) = ([0u32, 3, 2, 1, 2, 4], (0..TRIPS as u32).map(|t| (t * 5 + 1) % 16));
        let (indptr, indices): ([i32; ROWS + 1], Vec<u32>) = if long_first {
            (LONG_FIRST, long.chain(short).collect())
        } else {
            (INDPTR, short.into_iter().chain(long).collect())
        };
        let sorted = |lo: usize, hi: usize| {
            let mut row = indices[lo..hi].to_vec();
            row.sort_unstable();
            row
        };
        // Only the dimensions of `a` reach the IR.
        let by_row: Vec<u32> =
            indptr.windows(2).flat_map(|w| sorted(w[0] as usize, w[1] as usize)).collect();
        let ptr = indptr.iter().map(|&p| p as usize).collect();
        let a = Csr::new(ROWS, COLS, ptr, by_row, vec![1.0; NNZ]).unwrap();
        let f = csr_spmm_ir(&a, d).unwrap();
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        let listing = fused.disassemble();
        assert!(listing.contains("\n0000  rows ") && listing.contains("nest.axpy"), "{listing}");
        let ramp =
            |len: usize, by: f32| (0..len).map(|x| by * (x as f32 - 7.0)).collect::<Vec<_>>();
        let mut t = HashMap::new();
        t.insert("J_indptr".to_string(), TensorData::from(indptr.to_vec()));
        let indices: Vec<i32> = indices.iter().map(|&c| c as i32).collect();
        t.insert("J_indices".to_string(), TensorData::from(indices));
        t.insert("A".to_string(), TensorData::from(ramp(NNZ, 0.5)));
        t.insert("B".to_string(), TensorData::from(ramp(COLS * d, 0.125)));
        t.insert("C".to_string(), TensorData::from(vec![9.0f32; ROWS * d]));
        (f, t)
    }

    /// Interpreter, all-generic bytecode, the nest, and `exec_func`: one
    /// error, whose text is `says`, and `C` element for element the
    /// interpreter's — which is returned.
    fn fails_like_the_interpreter(
        f: &PrimFunc,
        tensors: &HashMap<String, TensorData>,
        says: &str,
    ) -> Vec<f32> {
        let mut want = tensors.clone();
        let err = eval_func(f, &HashMap::new(), &mut want).expect_err("fails").to_string();
        let err = err.strip_prefix("interpreter error: ").expect("prefix");
        assert_eq!(err, says);
        let same = |got: &HashMap<String, TensorData>, who: &str| {
            let (got, want) = (got["C"].as_f32(), want["C"].as_f32());
            let same = got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "{who}: C diverged\n{got:?}\n{want:?}");
        };
        for fuse in [false, true] {
            let mut got = tensors.clone();
            let kernel = CompiledKernel::compile_with(f, fuse).unwrap();
            let e = kernel.run(&HashMap::new(), &mut got).expect_err("fails").to_string();
            assert_eq!(e.strip_prefix("executor error: "), Some(err), "fuse = {fuse}");
            same(&got, if fuse { "fused" } else { "generic" });
            if fuse {
                assert_eq!(kernel.nest_counts().handovers, 1, "the failing trip is handed over");
            }
        }
        let mut got = tensors.clone();
        let e = exec_func(f, &HashMap::new(), &mut got).expect_err("fails").to_string();
        assert_eq!(e.strip_prefix("executor error: "), Some(err), "exec_func");
        same(&got, "exec_func");
        want["C"].as_f32().to_vec()
    }

    /// Row `row` of `c` after `landed` of its trips: written over the
    /// stale 9.0s exactly when any trip landed.
    fn assert_landed(c: &[f32], row: usize, landed: usize) {
        let width = c.len() / ROWS;
        let got = &c[row * width..(row + 1) * width];
        assert_eq!(got.iter().all(|&c| c != 9.0), landed > 0, "{landed} trips landed: {got:?}");
    }

    #[test]
    fn column_past_the_operand_at_the_first_a_middle_and_the_last_trip_of_a_long_row() {
        // The long row entered last, and entered first: the launch's
        // first entry fails at trip 0 / 6 / 11 as a later one does.
        for (long_first, start, row) in [(false, LAST, ROWS - 1), (true, 0, 0)] {
            for d in [4usize, 16] {
                for trip in [0, TRIPS / 2, TRIPS - 1] {
                    for (bad, index) in [(COLS as i32, COLS * d), (i32::MAX, i32::MAX as usize * d)]
                    {
                        let (f, mut t) = spmm(d, long_first);
                        let TensorData::I32(cols) = t.get_mut("J_indices").unwrap() else {
                            unreachable!()
                        };
                        cols[start + trip] = bad;
                        let n = COLS * d;
                        let says = format!(
                            "index {index} out of bounds for dim of extent {n} in buffer `B`"
                        );
                        assert_landed(&fails_like_the_interpreter(&f, &t, &says), row, trip);
                    }
                }
            }
        }
    }

    #[test]
    fn negative_column_in_the_middle_of_a_long_row() {
        let (f, mut t) = spmm(4, false);
        let TensorData::I32(cols) = t.get_mut("J_indices").unwrap() else { unreachable!() };
        cols[LAST + 5] = i32::MIN;
        let index = i64::from(i32::MIN) * 4;
        let says = format!("index {index} out of bounds for dim of extent 64 in buffer `B`");
        assert_landed(&fails_like_the_interpreter(&f, &t, &says), ROWS - 1, 5);
    }

    #[test]
    fn coefficient_slab_one_element_shorter_than_the_row_pointers_claim() {
        // The row's test over the coefficient walk fails: the row goes to
        // the generic loop at trip 0, eleven trips land, the twelfth raises.
        let (f, mut t) = spmm(4, false);
        let TensorData::F32(a) = t.get_mut("A").unwrap() else { unreachable!() };
        a.truncate(NNZ - 1);
        let says = format!("flat index {} out of bounds (len {}) in buffer `A`", NNZ - 1, NNZ - 1);
        assert_landed(&fails_like_the_interpreter(&f, &t, &says), ROWS - 1, TRIPS - 1);
    }

    #[test]
    fn operand_bound_short_of_a_column_the_long_row_reaches() {
        // `B` holds 15 of its 16 declared rows; the long row's trip 3
        // gathers column 0, its trip 6 column 15 — the declared dimension
        // admits it, the bound storage does not.
        let (f, mut t) = spmm(4, false);
        let TensorData::I32(cols) = t.get("J_indices").unwrap() else { unreachable!() };
        let trip = cols[LAST..].iter().position(|&c| c == 15).expect("column 15 is in the row");
        let TensorData::F32(b) = t.get_mut("B").unwrap() else { unreachable!() };
        b.truncate(15 * 4);
        let c = fails_like_the_interpreter(
            &f,
            &t,
            "flat index 60 out of bounds (len 60) in buffer `B`",
        );
        assert_landed(&c, ROWS - 1, trip);
    }

    #[test]
    fn row_pointer_claiming_two_to_the_thirty_one_trips() {
        // The empty row before the last now runs from position 6 to
        // `i32::MAX − 1`: its last position is tested at the entry in
        // arithmetic that cannot wrap, fails there, and the row goes trip
        // by trip through the twelve positions that exist.
        let (f, mut t) = spmm(4, false);
        let TensorData::I32(ptr) = t.get_mut("J_indptr").unwrap() else { unreachable!() };
        (ptr[ROWS - 1], ptr[ROWS]) = (i32::MAX - 1, i32::MAX);
        let says =
            format!("index {NNZ} out of bounds for dim of extent {NNZ} in buffer `J_indices`");
        let c = fails_like_the_interpreter(&f, &t, &says);
        assert!(c[4 * 4..5 * 4].iter().all(|&c| c != 9.0), "row 4 took twelve trips: {c:?}");
        assert!(c[5 * 4..].iter().all(|&c| c == 9.0), "row 5 never ran: {c:?}");
    }

    #[test]
    fn negative_position() {
        // `indptr[5] = −1`: the row before the last has a negative trip
        // count and is skipped; the last starts at position −1.
        let (f, mut t) = spmm(4, false);
        let TensorData::I32(ptr) = t.get_mut("J_indptr").unwrap() else { unreachable!() };
        ptr[ROWS - 1] = -1;
        let says = format!("index -1 out of bounds for dim of extent {NNZ} in buffer `J_indices`");
        // The row's test fails before it writes anything: the block hands
        // trip 0 to the generic loop, which raises.
        let mut want = t.clone();
        let err = eval_func(&f, &HashMap::new(), &mut want).expect_err("fails").to_string();
        assert_eq!(err.strip_prefix("interpreter error: "), Some(says.as_str()));
        for fuse in [false, true] {
            let mut got = t.clone();
            let kernel = CompiledKernel::compile_with(&f, fuse).unwrap();
            let e = kernel.run(&HashMap::new(), &mut got).expect_err("fails").to_string();
            assert_eq!(e.strip_prefix("executor error: "), Some(says.as_str()), "fuse = {fuse}");
            assert_eq!(got["C"], want["C"], "fuse = {fuse}");
            assert_eq!(kernel.nest_counts().handovers, u64::from(fuse), "trip 0 handed over");
        }
        assert_landed(want["C"].as_f32(), ROWS - 1, 0);
    }

    /// Which of the operands one gather moves is the short one.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Short {
        /// The coefficient `W[Idx[p]]`, by its declared dimension.
        CoeffDeclared,
        /// The coefficient, by what it is bound to.
        CoeffBound,
        /// The operand `X[Idx[p], k]`, by its declared dimension.
        Operand,
        /// The destination `C[Idx[p], k]` of the scatter form.
        Dst,
    }

    /// `C[i, k] += W[Idx[p]] · X[Idx[p], k]` under a `blockIdx` loop (or,
    /// scattering, `C[Idx[p], k] += W[p] · X[Idx[p], k]` under a serial
    /// one) over five rows of four positions: two operands moved by the one gather, nine long but
    /// for the `short` one, which is four. Every column is under four save
    /// the last row's trip 2, which is 6 — inside one operand, past the
    /// other.
    fn gathered_twice(short: Short) -> (PrimFunc, HashMap<String, TensorData>) {
        let (rows, width, n) = (5i64, 4i64, 3i64);
        let long_or = |this: Short| if short == this { 4 } else { 9i64 };
        let x_rows = long_or(Short::Operand);
        // `W` goes by column, or — scattering — by position.
        let (w_len, c_rows) = match short {
            Short::Dst => (rows * width, 4),
            _ => (long_or(Short::CoeffDeclared), 9),
        };
        let idx = Buffer::global_i32("Idx", vec![Expr::i32(rows * width)]);
        let w = Buffer::global_f32("W", vec![Expr::i32(w_len)]);
        let x = Buffer::global_f32("X", vec![Expr::i32(x_rows), Expr::i32(n)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(c_rows), Expr::i32(n)]);
        let (i, j, k) = (Var::i32("i"), Var::i32("j"), Var::i32("k"));
        let (vi, vp, vk) = (Var::i32("vi"), Var::i32("vp"), Var::i32("vk"));
        let col = || idx.load(vec![Expr::var(&vp)]);
        let (at, coeff) = if short == Short::Dst {
            (vec![col(), Expr::var(&vk)], w.load(vec![Expr::var(&vp)]))
        } else {
            (vec![Expr::var(&vi), Expr::var(&vk)], w.load(vec![col()]))
        };
        let block = Stmt::Block(sparsetir_ir::stmt::Block {
            name: "acc".into(),
            iter_vars: vec![
                IterVar::spatial(vi.clone(), Expr::var(&i)),
                IterVar::spatial(vp.clone(), Expr::var(&i) * width + Expr::var(&j)),
                IterVar::spatial(vk.clone(), Expr::var(&k)),
            ],
            reads: vec![],
            writes: vec![],
            init: None,
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: at.clone(),
                value: c.load(at) + coeff * x.load(vec![col(), Expr::var(&vk)]),
            }),
        });
        let nest = Stmt::for_serial(j, width, Stmt::for_serial(k, n, block));
        // Rows that scatter share rows of `C`: those run serially.
        let kind = match short {
            Short::Dst => ForKind::Serial,
            _ => ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
        };
        let body = Stmt::For { var: i, extent: Expr::i32(rows), kind, body: Box::new(nest) };
        let f = PrimFunc::new("gathered_twice", vec![], vec![idx, w, x, c], body);
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        assert!(fused.disassemble().contains("nest.axpy"), "{}", fused.disassemble());

        let ramp = |len: i64, by: f32| (0..len).map(|x| by * (x as f32 - 7.0)).collect::<Vec<_>>();
        let mut cols: Vec<i32> = (0..rows * width).map(|p| (p * 3 % 4) as i32).collect();
        cols[(4 * width + 2) as usize] = 6;
        let w_bound = if short == Short::CoeffBound { 5 } else { w_len };
        let mut t = HashMap::new();
        t.insert("Idx".to_string(), TensorData::from(cols));
        t.insert("W".to_string(), TensorData::from(ramp(w_bound, 0.5)));
        t.insert("X".to_string(), TensorData::from(ramp(x_rows * n, 0.125)));
        t.insert("C".to_string(), TensorData::from(vec![9.0f32; (c_rows * n) as usize]));
        (f, t)
    }

    #[test]
    fn operands_one_gather_moves_each_keep_their_own_reach() {
        // The reach of the gathered column is solved per operand: a column
        // the long operand admits and the short one does not stops the row
        // there, two trips in, whichever of them an entry solves first.
        let cases = [
            (Short::CoeffDeclared, "index 6 out of bounds for dim of extent 4 in buffer `W`"),
            (Short::CoeffBound, "flat index 6 out of bounds (len 5) in buffer `W`"),
            (Short::Operand, "index 6 out of bounds for dim of extent 4 in buffer `X`"),
            (Short::Dst, "index 6 out of bounds for dim of extent 4 in buffer `C`"),
        ];
        for (short, says) in cases {
            let (f, mut t) = gathered_twice(short);
            let c = fails_like_the_interpreter(&f, &t, says);
            // With that column back inside both, the stepped loop takes
            // the rows — each operand's reach solved every entry, the two
            // sharing the nest's memo — to the interpreter's bits.
            let TensorData::I32(cols) = t.get_mut("Idx").unwrap() else { unreachable!() };
            cols[4 * 4 + 2] = 2;
            let mut want = t.clone();
            eval_func(&f, &HashMap::new(), &mut want).unwrap();
            let kernel = CompiledKernel::compile_with(&f, true).unwrap();
            kernel.run(&HashMap::new(), &mut t).unwrap();
            assert_eq!(t["C"], want["C"], "{short:?}");
            let counts = kernel.nest_counts();
            assert!(counts.handovers == 0 && counts.stepped >= 4 * 3, "{short:?}: {counts:?}");
            if short != Short::Dst {
                let last = &c[4 * 3..5 * 3];
                assert!(last.iter().all(|&c| c != 9.0), "{short:?}: two trips landed: {last:?}");
            }
        }
    }
}

mod ratio {
    use super::*;
    use sparsetir_core::prelude::{attention_aggregate_program, lower};

    const ROWS: usize = 6;
    const COLS: usize = 16;
    const NNZ: usize = 18;
    /// Row lengths 2, 0, 1, 3, 0, 12: every case lands in the long last
    /// row, which the block enters last.
    const INDPTR: [i32; ROWS + 1] = [0, 2, 2, 3, 6, 6, 18];
    const LAST: usize = 6;
    const TRIPS: usize = 12;

    /// Attention's one-head aggregation `Out[i, c] += (P[pos] / Sum[i]) ·
    /// V[col, c]` at width `d`, its row loop bound to `blockIdx` (a `for`
    /// like any other) and its non-zero loop a row nest walking the ratio;
    /// `Out` holds stale 9.0s.
    fn aggregate(d: usize) -> (PrimFunc, HashMap<String, TensorData>) {
        let f = lower(&attention_aggregate_program(ROWS, COLS, NNZ, 1, d)).unwrap();
        let mut sch = Schedule::new(f);
        sch.bind("i", ThreadAxis::BlockIdxX).unwrap();
        let f = sch.into_func();
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        let listing = fused.disassemble();
        assert!(listing.contains("\n0000  rows ") && listing.contains("coeff=+1/row"), "{listing}");
        let ramp =
            |len: usize, by: f32| (0..len).map(|x| by * (x as f32 - 7.0)).collect::<Vec<_>>();
        let cols: Vec<i32> = (0..NNZ as i32).map(|p| (p * 5 + 1) % COLS as i32).collect();
        let mut t = HashMap::new();
        t.insert("J_indptr".to_string(), TensorData::from(INDPTR.to_vec()));
        t.insert("J_indices".to_string(), TensorData::from(cols));
        // `P[7]` — the last row's second trip — is 0.
        t.insert("P".to_string(), TensorData::from(ramp(NNZ, 0.25)));
        t.insert("Sum".to_string(), TensorData::from(ramp(ROWS, 1.5)));
        t.insert("V".to_string(), TensorData::from(ramp(COLS * d, 0.125)));
        t.insert("Out".to_string(), TensorData::from(vec![9.0f32; ROWS * d]));
        (f, t)
    }

    /// Interpreter, all-generic bytecode, the nest and `exec_func`: one
    /// outcome — the error `says`, or success — and `Out` bit for bit the
    /// interpreter's, which is returned; `handovers` trips handed to the
    /// generic loop.
    fn agrees(
        f: &PrimFunc,
        tensors: &HashMap<String, TensorData>,
        says: Option<&str>,
        handovers: u64,
    ) -> Vec<f32> {
        let mut want = tensors.clone();
        let err = eval_func(f, &HashMap::new(), &mut want).err().map(|e| e.to_string());
        let err = err.as_deref().map(|e| e.strip_prefix("interpreter error: ").expect("prefix"));
        assert_eq!(err, says);
        let same = |got: &HashMap<String, TensorData>, who: &str| {
            let (got, want) = (got["Out"].as_f32(), want["Out"].as_f32());
            let same = got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "{who}: Out diverged\n{got:?}\n{want:?}");
        };
        for fuse in [false, true] {
            let mut got = tensors.clone();
            let kernel = CompiledKernel::compile_with(f, fuse).unwrap();
            let e = kernel.run(&HashMap::new(), &mut got).err().map(|e| e.to_string());
            let e = e.as_deref().map(|e| e.strip_prefix("executor error: ").expect("prefix"));
            assert_eq!(e, err, "fuse = {fuse}");
            same(&got, if fuse { "fused" } else { "generic" });
            if fuse {
                let counts = kernel.nest_counts();
                assert_eq!(counts.handovers, handovers, "{counts:?}");
                assert!(counts.stepped > 0, "the stepped loop walked the ratio: {counts:?}");
            }
        }
        let mut got = tensors.clone();
        let e = exec_func(f, &HashMap::new(), &mut got).err().map(|e| e.to_string());
        assert_eq!(e.as_deref().map(|e| e.strip_prefix("executor error: ").unwrap()), err);
        same(&got, "exec_func");
        want["Out"].as_f32().to_vec()
    }

    /// The last row of `out` (width `d`).
    fn last_row(out: &[f32], d: usize) -> &[f32] {
        &out[(ROWS - 1) * d..]
    }

    #[test]
    fn factor_indexed_past_its_binding_at_an_entry() {
        // `Sum` holds five of its six declared rows: the last row's entry
        // program cannot load its factor, the entry hands trip 0 to the
        // generic loop, and that raises — after the init has zeroed the
        // first lane, as the interpreter's.
        for d in [4usize, 16] {
            let (f, mut t) = aggregate(d);
            let TensorData::F32(sum) = t.get_mut("Sum").unwrap() else { unreachable!() };
            sum.truncate(ROWS - 1);
            let says = "flat index 5 out of bounds (len 5) in buffer `Sum`";
            let out = agrees(&f, &t, Some(says), 1);
            let row = last_row(&out, d);
            assert!(row[0] == 0.0 && row[1..].iter().all(|&v| v == 9.0), "d = {d}: {row:?}");
        }
    }

    #[test]
    fn walked_load_one_element_short_in_the_middle_of_a_long_row() {
        // `P` ends half way through the last row: the row's test on the
        // ratio's walk fails, the row goes to the generic loop at trip 0,
        // six trips land and the seventh raises.
        for d in [4usize, 16] {
            let (f, mut t) = aggregate(d);
            let TensorData::F32(p) = t.get_mut("P").unwrap() else { unreachable!() };
            let len = LAST + TRIPS / 2;
            p.truncate(len);
            let says = format!("flat index {len} out of bounds (len {len}) in buffer `P`");
            let out = agrees(&f, &t, Some(&says), 1);
            assert!(last_row(&out, d).iter().all(|&v| v != 9.0), "d = {d}: six trips landed");
        }
    }

    #[test]
    fn factor_of_zero_nan_and_infinity() {
        // No error: IEEE division, trip after trip in the source's order, to
        // the interpreter's bits — `P / 0` is ±inf or (at `P[7] = 0`) NaN,
        // `P / ±inf` a signed zero. On the first row (the launch's first
        // entry) and the last.
        for factor in [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for row in [0, ROWS - 1] {
                let (f, mut t) = aggregate(4);
                let TensorData::F32(sum) = t.get_mut("Sum").unwrap() else { unreachable!() };
                sum[row] = factor;
                let out = agrees(&f, &t, None, 0);
                let written = &out[row * 4..(row + 1) * 4];
                assert!(written.iter().all(|&v| v != 9.0), "{factor}, row {row}: {written:?}");
            }
        }
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

mod csr_rows {
    use super::row_nests::{agrees, spmm};
    use super::*;

    /// The fixture's row loop runs on the CSR layout, its row pointer
    /// poked: `indptr[at] = value`.
    fn poked(d: usize, at: usize, value: i32) -> (PrimFunc, HashMap<String, TensorData>) {
        let (f, mut t) = spmm(d);
        let listing = CompiledKernel::compile(&f).unwrap().disassemble();
        assert!(listing.contains("layout=csr"), "{listing}");
        let TensorData::I32(ptr) = t.get_mut("J_indptr").unwrap() else { unreachable!() };
        ptr[at] = value;
        (f, t)
    }

    #[test]
    fn csr_rows_cur_fails_its_interval_after_an_empty_row() {
        // Row 4 ends at -1, before it starts: empty. Row 5 rolls `cur` =
        // -1 over from it and fails its test: the generic loop takes row 5
        // at trip 0 and fails there, rows 0 to 4 written, row 5 not.
        for d in [4, 64] {
            let (f, t) = poked(d, 5, -1);
            let c = agrees(&f, &t, Some("out of bounds"));
            let (row, last) = (c.len() / 6, &c[5 * (c.len() / 6)..]);
            assert!(last.iter().all(|&c| c == 9.0), "row 5 untouched: {last:?}");
            assert!(c[3 * row..4 * row].iter().all(|&c| c != 9.0), "row 3 written: {c:?}");
        }
    }

    #[test]
    fn csr_rows_cur_fails_its_interval_at_the_first_row() {
        // The launch's first row loads `cur` = -1: nothing is written.
        let (f, t) = poked(4, 0, -1);
        let c = agrees(&f, &t, Some("out of bounds"));
        assert!(c.iter().all(|&c| c == 9.0), "nothing written: {c:?}");
    }

    #[test]
    fn csr_rows_roll_across_a_decreasing_row_pointer() {
        // `indptr[4] = 2 < indptr[3]`: row 3 is empty, row 4 rolls `cur` =
        // 2 over from it and takes positions 2..6 — no error anywhere.
        let (f, t) = poked(4, 4, 2);
        let c = agrees(&f, &t, None);
        assert!(c[3 * 4..4 * 4].iter().all(|&c| c == 9.0), "row 3 untouched: {c:?}");
        assert!(c[4 * 4..5 * 4].iter().all(|&c| c != 9.0), "row 4 written: {c:?}");
    }
}

mod integer_arithmetic {
    use super::*;

    /// `C[idx] = 1` over a four-element `C`.
    fn store_at(idx: Expr) -> PrimFunc {
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        let body =
            Stmt::BufferStore { buffer: c.clone(), indices: vec![idx], value: Expr::f32(1.0) };
        PrimFunc::new("store_at", vec![], vec![c], body)
    }

    /// The interpreter and both executor builds fail `f` with `says`; the
    /// compilations succeed (nothing is folded that would overflow).
    fn fails_everywhere(f: &PrimFunc, says: &str) {
        let tensors = || {
            let mut t = HashMap::new();
            t.insert("C".to_string(), TensorData::from(vec![0.0f32; 4]));
            t
        };
        let err = eval_func(f, &HashMap::new(), &mut tensors()).unwrap_err().to_string();
        assert_eq!(err.strip_prefix("interpreter error: "), Some(says), "{err}");
        for fuse in [false, true] {
            let kernel = CompiledKernel::compile_with(f, fuse).unwrap();
            let err = kernel.run(&HashMap::new(), &mut tensors()).unwrap_err().to_string();
            assert_eq!(err.strip_prefix("executor error: "), Some(says), "fuse = {fuse}: {err}");
        }
    }

    #[test]
    fn quotient_overflow_is_an_error_on_every_executor() {
        let (min, minus_one) = (Expr::i32(i64::MIN), Expr::i32(-1));
        fails_everywhere(
            &store_at((min.clone() / minus_one.clone()) % 4),
            "integer division overflow",
        );
        fails_everywhere(&store_at(min % minus_one), "integer remainder overflow");
    }

    #[test]
    fn integer_arithmetic_wraps_on_every_executor() {
        // `i64::MAX + 1` wraps to `i64::MIN`, `i64::MIN · 2` to 0 and
        // `i64::MIN − 1` to `i64::MAX`: the stores land at 0, 0 and 3.
        let big = |v: i64| Expr::i32(v);
        for (idx, at) in [
            ((big(i64::MAX) + 1) % 4, 0usize),
            (big(i64::MIN) * 2, 0),
            ((big(i64::MIN) - 1) % 4, 3),
        ] {
            let f = store_at(idx);
            let mut want = HashMap::new();
            want.insert("C".to_string(), TensorData::from(vec![0.0f32; 4]));
            eval_func(&f, &HashMap::new(), &mut want).unwrap();
            assert_eq!(want["C"].as_f32()[at], 1.0);
            for fuse in [false, true] {
                let mut got = HashMap::new();
                got.insert("C".to_string(), TensorData::from(vec![0.0f32; 4]));
                CompiledKernel::compile_with(&f, fuse)
                    .unwrap()
                    .run(&HashMap::new(), &mut got)
                    .unwrap();
                assert_eq!(got["C"].as_f32(), want["C"].as_f32(), "fuse = {fuse}");
            }
        }
    }
}

mod row_blocks {
    use super::*;
    use sparsetir_kernels::prelude::{prepare_spmm_structure, SpmmConfig};
    use sparsetir_smat::prelude::Csr;

    const ROWS: usize = 6;
    const COLS: usize = 6;
    /// Row lengths 2, 0, 1, 3, 0, 3: empty rows inside the block, a long
    /// one last.
    const INDPTR: [i32; ROWS + 1] = [0, 2, 2, 3, 6, 6, 9];
    const INDICES: [i32; 9] = [0, 3, 2, 1, 2, 4, 1, 5, 3];

    /// The served CSR SpMM at width 4 with hand-written structure tensors
    /// (`slab[at] = value` in the one named) and a `C` of stale 9.0s.
    fn spmm(slab: &str, at: usize, value: i32) -> (PrimFunc, HashMap<String, TensorData>) {
        let indptr = INDPTR.iter().map(|&p| p as usize).collect();
        let sorted = vec![0, 3, 2, 1, 2, 4, 1, 3, 5];
        let a = Csr::new(ROWS, COLS, indptr, sorted, vec![1.0; 9]).unwrap();
        let (f, _) = prepare_spmm_structure(&a, 4, &SpmmConfig::default_csr()).unwrap();
        let listing = CompiledKernel::compile(&f).unwrap().disassemble();
        assert!(listing.contains("\n0000  rows ") && !listing.contains("br."), "{listing}");
        let mut t = HashMap::new();
        t.insert("J_indptr".to_string(), TensorData::from(INDPTR.to_vec()));
        t.insert("J_indices".to_string(), TensorData::from(INDICES.to_vec()));
        t.insert("A".to_string(), TensorData::from(vec![0.5f32; 9]));
        let b = (0..COLS * 4).map(|x| x as f32 * 0.25 - 2.0).collect::<Vec<_>>();
        t.insert("B".to_string(), TensorData::from(b));
        t.insert("C".to_string(), TensorData::from(vec![9.0f32; ROWS * 4]));
        let TensorData::I32(s) = t.get_mut(slab).unwrap() else { unreachable!() };
        s[at] = value;
        (f, t)
    }

    /// Interpreter, all-generic bytecode and the block: one outcome — an
    /// error containing `says`, or success for `None` — and `C` bit for bit
    /// the interpreter's, which is returned.
    fn agrees(slab: &str, at: usize, value: i32, says: Option<&str>) -> Vec<f32> {
        let (f, tensors) = spmm(slab, at, value);
        let mut want = tensors.clone();
        let err = eval_func(&f, &HashMap::new(), &mut want).err().map(|e| e.to_string());
        let err = err.as_deref().map(|e| e.strip_prefix("interpreter error: ").expect("prefix"));
        match (err, says) {
            (Some(err), Some(says)) => assert!(err.contains(says), "{err}"),
            (None, None) => {}
            other => panic!("interpreter outcome vs expectation: {other:?}"),
        }
        for fuse in [false, true] {
            let mut got = tensors.clone();
            let kernel = CompiledKernel::compile_with(&f, fuse).unwrap();
            let e = kernel.run(&HashMap::new(), &mut got).err().map(|e| e.to_string());
            let e = e.as_deref().map(|e| e.strip_prefix("executor error: ").expect("prefix"));
            assert_eq!(e, err, "fuse = {fuse}");
            let (got, want) = (got["C"].as_f32(), want["C"].as_f32());
            let same = got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "fuse = {fuse}: C diverged\n{got:?}\n{want:?}");
        }
        want["C"].as_f32().to_vec()
    }

    #[test]
    fn row_pointer_decreasing_mid_block_is_an_empty_row() {
        // Row 1 runs 2..1 (no trips), row 2 1..3 — no error anywhere.
        let c = agrees("J_indptr", 2, 1, None);
        assert!(c[4..8].iter().all(|&c| c == 9.0), "row 1 untouched: {c:?}");
        assert!(c[8..12].iter().all(|&c| c != 9.0), "row 2 written: {c:?}");
    }

    #[test]
    fn row_pointer_past_the_indices_mid_block() {
        // Row 2 claims positions 2..12 of nine: the gather leaves the
        // indices after row 2's seventh trip, rows 0 and 1 written before.
        let c = agrees("J_indptr", 3, 12, Some("out of bounds"));
        assert!(c[..4].iter().all(|&c| c != 9.0), "row 0 written: {c:?}");
    }

    #[test]
    fn negative_row_pointer_mid_block() {
        // Row 1 runs -2..2: its very first gather is out of bounds.
        agrees("J_indptr", 1, -2, Some("index -2 out of bounds"));
    }

    #[test]
    fn column_past_the_operand_in_the_last_row() {
        // Row 5's second trip (position 7) reaches column 6 of six.
        let c = agrees("J_indices", 7, COLS as i32, Some("out of bounds"));
        assert!(c[5 * 4..].iter().all(|&c| c != 9.0), "row 5's first trip landed: {c:?}");
    }
}

mod unit_nests {
    use super::*;
    use sparsetir_kernels::prelude::{prepare_spmm_structure, CsrSpmmParams, SpmmConfig};
    use sparsetir_smat::prelude::Csr;

    /// `hyb(1, 0)` of a 5 × 6 matrix with row lengths 1, 2, 0, 1, 3: every
    /// non-zero is a row of the one width-1 bucket (row ids 0, 1, 1, 3, 4,
    /// 4, 4), at width 4, with `hyb_p0_w1_indices[at] = value` and a `C` of
    /// stale 9.0s.
    fn bucket(at: usize, value: i32) -> (PrimFunc, HashMap<String, TensorData>) {
        let indptr = vec![0, 1, 3, 3, 4, 7];
        let a = Csr::new(5, 6, indptr, vec![2, 0, 5, 1, 0, 3, 4], vec![1.5; 7]).unwrap();
        let config =
            SpmmConfig { col_parts: Some(1), bucket_k: 0, params: CsrSpmmParams::default() };
        let (f, mut t) = prepare_spmm_structure(&a, 4, &config).unwrap();
        let b = (0..6 * 4).map(|x| x as f32 * 0.25 - 2.0).collect::<Vec<_>>();
        t.insert("B".to_string(), TensorData::from(b));
        t.insert("C".to_string(), TensorData::from(vec![9.0f32; 5 * 4]));
        let TensorData::I32(cols) = t.get_mut("hyb_p0_w1_indices").unwrap() else { unreachable!() };
        cols[at] = value;
        (f, t)
    }

    /// The bucket's rows run as a row block over a nest of one trip.
    #[test]
    fn a_width_one_bucket_is_a_row_block_over_a_one_trip_nest() {
        let (f, _) = bucket(0, 2);
        let listing = CompiledKernel::compile(&f).unwrap().disassemble();
        let rows = listing.lines().find(|l| l.contains("  rows ")).expect("a row block");
        assert!(rows.contains("in 0..7") && rows.ends_with("layout=planned"), "{listing}");
        assert!(listing.contains(" in 0..1, end="), "a one-trip nest\n{listing}");
    }

    /// A bucket row whose column is past `B`: the block hands that row to
    /// the generic loop, whose per-non-zero `Super` fails as the
    /// interpreter does — same text, and `C` bit for bit the interpreter's
    /// (rows 0 and 1 accumulated, the init's zeros from row 3 on).
    #[test]
    fn column_past_the_operand_in_a_middle_bucket_row() {
        let (f, tensors) = bucket(3, 6);
        let mut want = tensors.clone();
        let err = eval_func(&f, &HashMap::new(), &mut want).unwrap_err().to_string();
        assert!(err.contains("out of bounds") && err.contains("`B`"), "{err}");
        let err = err.strip_prefix("interpreter error: ").expect("prefix");
        for fuse in [false, true] {
            let mut got = tensors.clone();
            let kernel = CompiledKernel::compile_with(&f, fuse).unwrap();
            let e = kernel.run(&HashMap::new(), &mut got).unwrap_err().to_string();
            assert_eq!(e.strip_prefix("executor error: "), Some(err), "fuse = {fuse}");
            let (got, want) = (got["C"].as_f32(), want["C"].as_f32());
            let same = got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "fuse = {fuse}: C diverged\n{got:?}\n{want:?}");
            if fuse {
                // Bucket rows 0–2 in the block, row 3 handed over.
                let n = kernel.nest_counts();
                assert_eq!((n.blocked, n.handovers), (n.entries - 1, 1), "{n:?}");
            }
        }
        let c = want["C"].as_f32();
        assert!(c[..8].iter().any(|&c| c != 0.0), "rows 0 and 1 landed: {c:?}");
        assert!(c[8..].iter().all(|&c| c == 0.0), "nothing from row 3 on: {c:?}");
    }

    /// `for i in 0..4 { for j in 0..1 { for k in 0..3 { C[i, k] +=
    /// X[Idx[i / 2 + j], k] } } }`: the column's position divides, so
    /// neither loop plans as a nest — and the one-trip nest tried on `j`
    /// leaves the listing as the unit-trip loop lowers without it, a
    /// `bind` in front of the per-row `Super`.
    #[test]
    fn a_one_trip_nest_that_does_not_plan_leaves_the_listing_as_it_was() {
        let idx = Buffer::global_i32("Idx", vec![Expr::i32(2)]);
        let x = Buffer::global_f32("X", vec![Expr::i32(3), Expr::i32(3)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(4), Expr::i32(3)]);
        let (i, j, k) = (Var::i32("i"), Var::i32("j"), Var::i32("k"));
        let at = vec![Expr::var(&i), Expr::var(&k)];
        let col = idx.load(vec![Expr::var(&i) / Expr::i32(2) + Expr::var(&j)]);
        let lanes = Stmt::for_serial(
            k.clone(),
            3,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: at.clone(),
                value: c.load(at) + x.load(vec![col, Expr::var(&k)]),
            },
        );
        let body = Stmt::for_serial(i.clone(), 4, Stmt::for_serial(j.clone(), 1, lanes));
        let f = PrimFunc::new("undivided", vec![], vec![idx, x, c], body);
        let kernel = CompiledKernel::compile(&f).unwrap();
        let listing = kernel.disassemble();
        let code = listing.split_once("\n\n").expect("a header, then the code").1;
        let want = "\
0000  for        %0 in 0..4, end=0007
0001  bind       %1 = 0
0002  super.axpy %2 in 0..3, dst=@2[%0<4, %2<3]+1 term=@1[@0[((%0 / 2) + %1)<2]<3, %2<3]+1, init=none, iters=[] -> 0006
0003  for        %2 in 0..3, end=0006
0004  acc.f32    @2[%0<4, %2<3] += @1[@0[((%0 / 2) + %1)<2]<3, %2<3]
0005  end
0006  end
";
        assert_eq!(code, want, "{listing}");
        let mut t = HashMap::new();
        t.insert("Idx".to_string(), TensorData::from(vec![2, 0]));
        t.insert("X".to_string(), TensorData::from((0..9).map(|v| v as f32).collect::<Vec<_>>()));
        t.insert("C".to_string(), TensorData::from(vec![0.5f32; 12]));
        let mut want = t.clone();
        eval_func(&f, &HashMap::new(), &mut want).unwrap();
        kernel.run(&HashMap::new(), &mut t).unwrap();
        assert_eq!(t["C"].as_f32(), want["C"].as_f32());
    }
}

mod param_extents {
    use super::*;
    use sparsetir_core::prelude::{lower, spmm_program};

    const ROWS: usize = 6;
    const COLS: usize = 8;
    /// Row lengths 2, 0, 1, 3, 0 and — through [`spmm`]'s `end` — the rest
    /// of the slabs. An empty row keeps its stale output.
    const INDPTR: [i32; ROWS] = [0, 2, 2, 3, 6, 6];
    const D: usize = 4;

    /// The CSR SpMM with `nnz` a parameter — `A` and `J_indices` declared
    /// `[nnz]` — its rows bound to `blockIdx` and run as one CSR row block,
    /// over slabs of `len` elements with the row pointer ending at `end`;
    /// `C` holds stale 9.0s.
    fn spmm(len: usize, end: i32) -> (PrimFunc, HashMap<String, TensorData>) {
        let f = lower(&spmm_program(ROWS, COLS, Var::i32("nnz"), D)).unwrap();
        let mut sch = Schedule::new(f);
        sch.bind("i", ThreadAxis::BlockIdxX).unwrap();
        let f = sch.into_func();
        let listing = CompiledKernel::compile(&f).unwrap().disassemble();
        let symbolic = listing.contains(";; params: %0=nnz") && listing.contains("<%0]");
        assert!(symbolic && listing.contains("layout=csr"), "{listing}");
        let mut indptr = INDPTR.to_vec();
        indptr.push(end);
        let cols: Vec<i32> = (0..len as i32).map(|p| (p * 3 + 1) % COLS as i32).collect();
        let ramp =
            |len: usize, by: f32| (0..len).map(|x| by * (x as f32 - 5.0)).collect::<Vec<_>>();
        let mut t = HashMap::new();
        t.insert("J_indptr".to_string(), TensorData::from(indptr));
        t.insert("J_indices".to_string(), TensorData::from(cols));
        t.insert("A".to_string(), TensorData::from(ramp(len, 0.5)));
        t.insert("B".to_string(), TensorData::from(ramp(COLS * D, 0.125)));
        t.insert("C".to_string(), TensorData::from(vec![9.0f32; ROWS * D]));
        (f, t)
    }

    /// The interpreter, all-generic bytecode, bytecode with its row block
    /// and `exec_func`, with `scalars` bound: one outcome each — the error
    /// `says` word for word, or success — and `C` bit for bit the
    /// interpreter's, which is returned with what the block's nest counted.
    fn agrees(
        (f, tensors): &(PrimFunc, HashMap<String, TensorData>),
        scalars: &HashMap<String, i64>,
        says: Option<&str>,
    ) -> (Vec<f32>, NestCounts) {
        let mut want = tensors.clone();
        let err = eval_func(f, scalars, &mut want).err().map(|e| e.to_string());
        let err = err.as_deref().map(|e| e.strip_prefix("interpreter error: ").expect("prefix"));
        assert_eq!(err, says, "the interpreter");
        let same = |got: &HashMap<String, TensorData>, who: &str| {
            let (got, want) = (got["C"].as_f32(), want["C"].as_f32());
            let same = got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "{who}: C diverged\n{got:?}\n{want:?}");
        };
        let mut counts = NestCounts::default();
        for fuse in [false, true] {
            let mut got = tensors.clone();
            let kernel = CompiledKernel::compile_with(f, fuse).unwrap();
            let e = kernel.run(scalars, &mut got).err().map(|e| e.to_string());
            let e = e.as_deref().map(|e| e.strip_prefix("executor error: ").expect("prefix"));
            assert_eq!(e, err, "fuse = {fuse}");
            same(&got, if fuse { "fused" } else { "generic" });
            counts = kernel.nest_counts();
        }
        let mut got = tensors.clone();
        let e = exec_func(f, scalars, &mut got).err().map(|e| e.to_string());
        assert_eq!(e.as_deref().map(|e| e.strip_prefix("executor error: ").unwrap()), err);
        same(&got, "exec_func");
        (want["C"].as_f32().to_vec(), counts)
    }

    fn nnz(v: i64) -> HashMap<String, i64> {
        HashMap::from([("nnz".to_string(), v)])
    }

    /// Row `r` of `c`.
    fn row(c: &[f32], r: usize) -> &[f32] {
        &c[r * D..(r + 1) * D]
    }

    #[test]
    fn parameter_equal_to_the_storage_takes_every_row_in_the_block() {
        // Ten non-zeros, `nnz = 10`: the last one sits at `nnz − 1`.
        let (c, counts) = agrees(&spmm(10, 10), &nnz(10), None);
        for r in [0, 2, 3, 5] {
            assert!(row(&c, r).iter().all(|&c| c != 9.0), "row {r} written: {c:?}");
        }
        assert_eq!(counts.blocked, counts.entries, "{counts:?}");
        assert_eq!((counts.entries, counts.handovers), (ROWS as u64, 0), "{counts:?}");
    }

    #[test]
    fn parameter_below_the_storage_fails_the_position_at_nnz() {
        // Storage for ten, `nnz = 9`: the last row's fourth non-zero sits at
        // position 9 = `nnz`, past the declared dimension though inside the
        // storage. The block's interval, solved from the parameter, sends
        // the last row to the generic loop, which writes its first three
        // trips and fails the fourth in the interpreter's words.
        let (c, counts) = agrees(
            &spmm(10, 10),
            &nnz(9),
            Some("index 9 out of bounds for dim of extent 9 in buffer `J_indices`"),
        );
        assert!(row(&c, 3).iter().all(|&c| c != 9.0), "row 3 written: {c:?}");
        assert!(row(&c, 5).iter().all(|&c| c != 9.0), "the failing row's first trips: {c:?}");
        assert!(counts.handovers > 0, "{counts:?}");
    }

    #[test]
    fn parameter_above_the_storage_is_checked_against_the_storage() {
        // `nnz = 11` over storage for ten: every position the rows reach
        // is below both, and the launch succeeds in the block.
        let (_, counts) = agrees(&spmm(10, 10), &nnz(11), None);
        assert_eq!((counts.blocked, counts.handovers), (counts.entries, 0), "{counts:?}");
        // The row pointer claims an eleventh non-zero: position 10 is inside
        // the declared dimension and past the storage.
        let (c, counts) = agrees(
            &spmm(10, 11),
            &nnz(11),
            Some("flat index 10 out of bounds (len 10) in buffer `J_indices`"),
        );
        assert!(row(&c, 3).iter().all(|&c| c != 9.0), "row 3 written: {c:?}");
        assert!(counts.handovers > 0, "{counts:?}");
    }

    #[test]
    fn a_position_at_nnz_fails_even_with_storage_behind_it() {
        // Storage for eleven, `nnz = 10`, and the row pointer reaching
        // position 10 = `nnz`.
        agrees(
            &spmm(11, 11),
            &nnz(10),
            Some("index 10 out of bounds for dim of extent 10 in buffer `J_indices`"),
        );
    }

    #[test]
    fn a_missing_parameter_writes_nothing() {
        let (c, counts) =
            agrees(&spmm(10, 10), &HashMap::new(), Some("missing scalar param `nnz`"));
        assert!(c.iter().all(|&c| c == 9.0), "nothing written: {c:?}");
        assert_eq!(counts.entries, 0);
    }

    #[test]
    fn parameters_no_dimension_can_have_fail_in_the_generic_loop() {
        // Zero, negative and the ends of `i64`: the block's interval is
        // empty (or its bound overflows), the generic loop fails the first
        // row with a non-zero, and nothing panics.
        for v in [0, -1, i64::MIN, i64::MIN + 1] {
            let says = format!("index 0 out of bounds for dim of extent {v} in buffer `J_indices`");
            let (c, _) = agrees(&spmm(10, 10), &nnz(v), Some(&says));
            assert!(c.iter().all(|&c| c == 9.0), "nnz = {v}: nothing written: {c:?}");
        }
        agrees(&spmm(10, 10), &nnz(i64::MAX), None);
    }
}
