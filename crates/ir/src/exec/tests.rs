use super::*;
use crate::buffer::{Buffer, Scope};
use crate::dtype::DType;
use crate::eval::{eval_func, scalar_map};
use crate::expr::{Expr, Var};
use crate::stmt::{Block, ForKind, IterVar, ThreadAxis};

fn run_both(
    f: &PrimFunc,
    scalars: &HashMap<String, i64>,
    tensors: &HashMap<String, TensorData>,
) -> (HashMap<String, TensorData>, HashMap<String, TensorData>) {
    let mut a = tensors.clone();
    let mut b = tensors.clone();
    eval_func(f, scalars, &mut a).expect("interpreter");
    exec_func(f, scalars, &mut b).expect("executor");
    (a, b)
}

#[test]
fn vector_add_matches_interpreter() {
    let i = Var::i32("i");
    let a = Buffer::global_f32("A", vec![Expr::i32(4)]);
    let b = Buffer::global_f32("B", vec![Expr::i32(4)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
    let body = Stmt::for_serial(
        i.clone(),
        4,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&i)],
            value: a.load(vec![Expr::var(&i)]) + b.load(vec![Expr::var(&i)]),
        },
    );
    let f = PrimFunc::new("add", vec![], vec![a, b, c], body);
    let mut tensors = HashMap::new();
    tensors.insert("A".to_string(), TensorData::from(vec![1.0f32, 2.0, 3.0, 4.0]));
    tensors.insert("B".to_string(), TensorData::from(vec![10.0f32, 20.0, 30.0, 40.0]));
    tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 4));
    let (ia, ea) = run_both(&f, &HashMap::new(), &tensors);
    assert_eq!(ia["C"], ea["C"]);
    assert_eq!(ea["C"].as_f32(), &[11.0, 22.0, 33.0, 44.0]);
}

#[test]
fn reduction_block_matches_interpreter() {
    let i = Var::i32("i");
    let j = Var::i32("j");
    let a = Buffer::global_f32("A", vec![Expr::i32(2), Expr::i32(3)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(2)]);
    let vi = Var::i32("vi");
    let vj = Var::i32("vj");
    let block = Stmt::Block(Block {
        name: "sum".into(),
        iter_vars: vec![
            IterVar::spatial(vi.clone(), Expr::var(&i)),
            IterVar::reduce(vj.clone(), Expr::var(&j)),
        ],
        reads: vec![],
        writes: vec![],
        init: Some(Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&vi)],
            value: Expr::f32(0.0),
        })),
        body: Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&vi)],
            value: c.load(vec![Expr::var(&vi)]) + a.load(vec![Expr::var(&vi), Expr::var(&vj)]),
        }),
    });
    let body = Stmt::for_serial(i.clone(), 2, Stmt::for_serial(j.clone(), 3, block));
    let f = PrimFunc::new("rowsum", vec![], vec![a, c], body);
    let mut tensors = HashMap::new();
    tensors.insert("A".to_string(), TensorData::from(vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]));
    tensors.insert("C".to_string(), TensorData::from(vec![99.0f32, 99.0]));
    let (ia, ea) = run_both(&f, &HashMap::new(), &tensors);
    assert_eq!(ia["C"], ea["C"]);
    assert_eq!(ea["C"].as_f32(), &[6.0, 15.0]);
}

#[test]
fn block_bound_loop_runs_serially_and_matches() {
    // C[i] = i over a blockIdx.x-bound loop: an ordinary loop.
    let i = Var::i32("i");
    let c = Buffer::global_f32("C", vec![Expr::i32(1024)]);
    let body = Stmt::For {
        var: i.clone(),
        extent: Expr::i32(1024),
        kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
        body: Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&i)],
            value: Expr::var(&i).cast(DType::F32),
        }),
    };
    let f = PrimFunc::new("iota", vec![], vec![c], body);
    let k = CompiledKernel::compile(&f).unwrap();
    assert!(k.disassemble().contains("0000  for        %0 in 0..1024"), "{}", k.disassemble());
    let mut tensors = HashMap::new();
    tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 1024));
    k.run(&HashMap::new(), &mut tensors).unwrap();
    let expect: Vec<f32> = (0..1024).map(|x| x as f32).collect();
    assert_eq!(tensors["C"].as_f32(), expect.as_slice());
}

#[test]
fn unsafe_block_write_falls_back_to_serial() {
    // C[0] += 1 under a blockIdx loop: every iteration writes one element.
    let i = Var::i32("i");
    let c = Buffer::global_f32("C", vec![Expr::i32(1)]);
    let body = Stmt::For {
        var: i.clone(),
        extent: Expr::i32(64),
        kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
        body: Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::i32(0)],
            value: c.load(vec![Expr::i32(0)]) + 1.0f32,
        }),
    };
    let f = PrimFunc::new("collide", vec![], vec![c], body);
    let k = CompiledKernel::compile(&f).unwrap();
    let mut tensors = HashMap::new();
    tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 1));
    k.run(&HashMap::new(), &mut tensors).unwrap();
    assert_eq!(tensors["C"].as_f32(), &[64.0]);
}

#[test]
fn reduction_over_block_var_falls_back_to_serial() {
    let i = Var::i32("i");
    let c = Buffer::global_f32("C", vec![Expr::i32(1)]);
    let vj = Var::i32("vj");
    let block = Stmt::Block(Block {
        name: "s".into(),
        iter_vars: vec![IterVar::reduce(vj.clone(), Expr::var(&i))],
        reads: vec![],
        writes: vec![],
        init: Some(Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::i32(0)],
            value: Expr::f32(0.0),
        })),
        body: Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::i32(0)],
            value: c.load(vec![Expr::i32(0)]) + Expr::var(&vj).cast(DType::F32),
        }),
    });
    let body = Stmt::For {
        var: i.clone(),
        extent: Expr::i32(8),
        kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
        body: Box::new(block),
    };
    let f = PrimFunc::new("redblk", vec![], vec![c], body);
    let k = CompiledKernel::compile(&f).unwrap();
    let mut t = HashMap::new();
    t.insert("C".to_string(), TensorData::zeros(DType::F32, 1));
    let mut t2 = t.clone();
    k.run(&HashMap::new(), &mut t).unwrap();
    eval_func(&f, &HashMap::new(), &mut t2).unwrap();
    assert_eq!(t["C"], t2["C"]);
}

#[test]
fn scalar_params_and_scoped_allocate_match() {
    let n = Var::i32("n");
    let i = Var::i32("i");
    let tmp = Buffer::new("tmp", DType::F32, vec![Expr::i32(2)], Scope::Shared);
    let out = Buffer::global_f32("out", vec![Expr::var(&n)]);
    let inner = Stmt::Allocate {
        buffer: tmp.clone(),
        body: Box::new(
            Stmt::BufferStore {
                buffer: tmp.clone(),
                indices: vec![Expr::i32(0)],
                value: Expr::var(&i).cast(DType::F32) * 3.0f32,
            }
            .then(Stmt::BufferStore {
                buffer: out.clone(),
                indices: vec![Expr::var(&i)],
                value: tmp.load(vec![Expr::i32(0)]) + 1.0f32,
            }),
        ),
    };
    let body = Stmt::for_serial(i.clone(), Expr::var(&n), inner);
    let f = PrimFunc::new("staged", vec![n], vec![out], body);
    let scalars = scalar_map(&[("n", 5)]);
    let mut tensors = HashMap::new();
    tensors.insert("out".to_string(), TensorData::zeros(DType::F32, 5));
    let (ia, ea) = run_both(&f, &scalars, &tensors);
    assert_eq!(ia["out"], ea["out"]);
    assert_eq!(ea["out"].as_f32(), &[1.0, 4.0, 7.0, 10.0, 13.0]);
}

#[test]
fn binary_search_matches_interpreter() {
    let idx = Buffer::global_i32("indices", vec![Expr::i32(5)]);
    let out = Buffer::global_i32("out", vec![Expr::i32(1)]);
    let call = Expr::Call {
        intrin: Intrinsic::BinarySearch,
        args: vec![idx.load(vec![Expr::i32(0)]), Expr::i32(0), Expr::i32(5), Expr::i32(9)],
    };
    let body = Stmt::BufferStore { buffer: out.clone(), indices: vec![Expr::i32(0)], value: call };
    let f = PrimFunc::new("find", vec![], vec![idx, out], body);
    let mut tensors = HashMap::new();
    tensors.insert("indices".to_string(), TensorData::from(vec![1, 3, 9, 10, 12]));
    tensors.insert("out".to_string(), TensorData::zeros(DType::I32, 1));
    let (ia, ea) = run_both(&f, &HashMap::new(), &tensors);
    assert_eq!(ia["out"], ea["out"]);
    assert_eq!(ea["out"].as_i32(), &[2]);
}

#[test]
fn mma_sync_matches_interpreter() {
    let a = Buffer::global_f32("A", vec![Expr::i32(4)]);
    let b = Buffer::global_f32("B", vec![Expr::i32(4)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
    let tile = |buf: &Buffer, stride: i64| TensorTile {
        buffer: buf.clone(),
        offset: Expr::i32(0),
        row_stride: Expr::i32(stride),
    };
    let body = Stmt::MmaSync { c: tile(&c, 2), a: tile(&a, 2), b: tile(&b, 2), m: 2, n: 2, k: 2 };
    let f = PrimFunc::new("mma", vec![], vec![a, b, c], body);
    let mut tensors = HashMap::new();
    tensors.insert("A".to_string(), TensorData::from(vec![1.0f32, 2.0, 3.0, 4.0]));
    tensors.insert("B".to_string(), TensorData::from(vec![5.0f32, 6.0, 7.0, 8.0]));
    tensors.insert("C".to_string(), TensorData::from(vec![1.0f32, 0.0, 0.0, 0.0]));
    let (ia, ea) = run_both(&f, &HashMap::new(), &tensors);
    assert_eq!(ia["C"], ea["C"]);
    assert_eq!(ea["C"].as_f32(), &[20.0, 22.0, 43.0, 50.0]);
}

#[test]
fn out_of_bounds_and_missing_bindings_error() {
    let c = Buffer::global_f32("C", vec![Expr::i32(2)]);
    let body =
        Stmt::BufferStore { buffer: c.clone(), indices: vec![Expr::i32(5)], value: Expr::f32(0.0) };
    let f = PrimFunc::new("f", vec![], vec![c.clone()], body);
    let mut tensors = HashMap::new();
    tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 2));
    let err = exec_func(&f, &HashMap::new(), &mut tensors).unwrap_err();
    assert!(err.to_string().contains("out of bounds"), "{err}");

    let g = PrimFunc::new("g", vec![], vec![c], Stmt::nop());
    let err = exec_func(&g, &HashMap::new(), &mut HashMap::new()).unwrap_err();
    assert!(err.to_string().contains("missing tensor binding"), "{err}");
}

#[test]
fn division_by_zero_errors() {
    let out = Buffer::global_i32("out", vec![Expr::i32(1)]);
    let body = Stmt::BufferStore {
        buffer: out.clone(),
        indices: vec![Expr::i32(0)],
        value: Expr::i32(4) / Expr::i32(1).min(0),
    };
    let f = PrimFunc::new("div0", vec![], vec![out], body);
    let mut tensors = HashMap::new();
    tensors.insert("out".to_string(), TensorData::zeros(DType::I32, 1));
    let err = exec_func(&f, &HashMap::new(), &mut tensors).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

/// Functions differing only in an MMA tile's `row_stride` must not
/// collide in the kernel cache (regression: the printer once omitted
/// strides from the rendered IR the fingerprint hashes).
#[test]
fn mma_stride_changes_fingerprint() {
    let build = |stride: i64| {
        let a = Buffer::global_f32("A", vec![Expr::i32(64)]);
        let b = Buffer::global_f32("B", vec![Expr::i32(64)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(64)]);
        let tile = |buf: &Buffer| TensorTile {
            buffer: buf.clone(),
            offset: Expr::i32(0),
            row_stride: Expr::i32(stride),
        };
        let body = Stmt::MmaSync { c: tile(&c), a: tile(&a), b: tile(&b), m: 2, n: 2, k: 2 };
        PrimFunc::new("mma", vec![], vec![a, b, c], body)
    };
    assert_ne!(Runtime::fingerprint(&build(2)), Runtime::fingerprint(&build(4)));
}

/// A float-valued `let` in dead code must not fail compilation — the
/// interpreter only errors when the binding executes.
#[test]
fn float_let_in_dead_branch_is_lazy() {
    let out = Buffer::global_f32("out", vec![Expr::i32(1)]);
    let t = Var::i32("t");
    let bad_let = Stmt::Let { var: t, value: Expr::f32(1.5), body: Box::new(Stmt::nop()) };
    let body = Stmt::IfThenElse {
        cond: Expr::i32(0).gt(Expr::i32(1)),
        then_branch: Box::new(bad_let),
        else_branch: Some(Box::new(Stmt::BufferStore {
            buffer: out.clone(),
            indices: vec![Expr::i32(0)],
            value: Expr::f32(2.0),
        })),
    };
    let f = PrimFunc::new("lazy", vec![], vec![out], body);
    let mut tensors = HashMap::new();
    tensors.insert("out".to_string(), TensorData::zeros(DType::F32, 1));
    exec_func(&f, &HashMap::new(), &mut tensors).expect("dead float let must not block");
    assert_eq!(tensors["out"].as_f32(), &[2.0]);
}

#[test]
fn runtime_cache_hits_on_identical_functions() {
    let rt = Runtime::new();
    let build = || {
        let i = Var::i32("i");
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        let body = Stmt::for_serial(
            i.clone(),
            4,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&i)],
                value: Expr::f32(1.0),
            },
        );
        PrimFunc::new("ones", vec![], vec![c], body)
    };
    let k1 = rt.compile(&build()).unwrap();
    let k2 = rt.compile(&build()).unwrap();
    assert!(Arc::ptr_eq(&k1, &k2), "identical functions must share one kernel");
    assert_eq!(rt.cached(), 1);

    // A different function compiles separately.
    let j = Var::i32("j");
    let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
    let other = PrimFunc::new(
        "twos",
        vec![],
        vec![c.clone()],
        Stmt::for_serial(
            j.clone(),
            4,
            Stmt::BufferStore { buffer: c, indices: vec![Expr::var(&j)], value: Expr::f32(2.0) },
        ),
    );
    let k3 = rt.compile(&other).unwrap();
    assert!(!Arc::ptr_eq(&k1, &k3));
    assert_eq!(rt.cached(), 2);
}

/// Build the canonical fusable lane loop:
/// `for k in 0..n { block { init: C[k] = 0 if j == 0; C[k] += A[0] * B[k] } }`
/// wrapped in a serial `j` loop supplying the reduce binding.
fn axpy_func(n: i64) -> PrimFunc {
    let j = Var::i32("j");
    let k = Var::i32("k");
    let vk = Var::i32("vk");
    let vp = Var::i32("vp");
    let a = Buffer::global_f32("A", vec![Expr::i32(1)]);
    let b = Buffer::global_f32("B", vec![Expr::i32(n)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(n)]);
    let block = Stmt::Block(Block {
        name: "acc".into(),
        iter_vars: vec![
            IterVar::spatial(vk.clone(), Expr::var(&k)),
            IterVar::reduce(vp.clone(), Expr::var(&j)),
        ],
        reads: vec![],
        writes: vec![],
        init: Some(Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&vk)],
            value: Expr::f32(0.0),
        })),
        body: Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&vk)],
            value: c.load(vec![Expr::var(&vk)])
                + a.load(vec![Expr::i32(0)]) * b.load(vec![Expr::var(&vk)]),
        }),
    });
    let body = Stmt::for_serial(j.clone(), 3, Stmt::for_serial(k.clone(), n, block));
    PrimFunc::new("axpy", vec![], vec![a, b, c], body)
}

#[test]
fn fusion_produces_axpy_and_matches_generic() {
    let f = axpy_func(8);
    let fused = CompiledKernel::compile_with(&f, true).unwrap();
    let generic = CompiledKernel::compile_with(&f, false).unwrap();
    assert_eq!(fused.fused_ops(), 1);
    assert_eq!(fused.fused_kinds(), vec!["AxpyLanes"]);
    assert_eq!(generic.fused_ops(), 0);
    let mut t = HashMap::new();
    t.insert("A".to_string(), TensorData::from(vec![1.5f32]));
    t.insert("B".to_string(), TensorData::from((0..8).map(|x| x as f32).collect::<Vec<_>>()));
    t.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
    let mut tf = t.clone();
    let mut tg = t.clone();
    fused.run(&HashMap::new(), &mut tf).unwrap();
    generic.run(&HashMap::new(), &mut tg).unwrap();
    assert_eq!(tf["C"], tg["C"]);
    // Three reduce iterations of 1.5 * B[k].
    let expect: Vec<f32> = (0..8).map(|x| 4.5 * x as f32).collect();
    assert_eq!(tf["C"].as_f32(), expect.as_slice());
}

/// A lane loop whose source walks a non-unit stride must stay on the
/// generic tree (contiguity requirement) yet still execute correctly.
#[test]
fn non_contiguous_source_is_not_fused() {
    let k = Var::i32("k");
    let b = Buffer::global_f32("B", vec![Expr::i32(16)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
    let body = Stmt::for_serial(
        k.clone(),
        8,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&k)],
            value: c.load(vec![Expr::var(&k)]) + b.load(vec![Expr::var(&k) * 2]) * 2.0f32,
        },
    );
    let f = PrimFunc::new("strided", vec![], vec![b, c], body);
    let fused = CompiledKernel::compile_with(&f, true).unwrap();
    assert_eq!(fused.fused_ops(), 0, "stride-2 source must not fuse");
    let mut t = HashMap::new();
    t.insert("B".to_string(), TensorData::from((0..16).map(|x| x as f32).collect::<Vec<_>>()));
    t.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
    let mut t2 = t.clone();
    fused.run(&HashMap::new(), &mut t).unwrap();
    eval_func(&f, &HashMap::new(), &mut t2).unwrap();
    assert_eq!(t["C"], t2["C"]);
}

/// Reading the written buffer anywhere in the loop (here: the scale
/// factor) defeats invariance hoisting, so fusion must decline.
#[test]
fn aliased_coefficient_is_not_fused() {
    let k = Var::i32("k");
    let b = Buffer::global_f32("B", vec![Expr::i32(8)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
    let body = Stmt::for_serial(
        k.clone(),
        8,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&k)],
            value: c.load(vec![Expr::var(&k)])
                + c.load(vec![Expr::i32(0)]) * b.load(vec![Expr::var(&k)]),
        },
    );
    let f = PrimFunc::new("alias", vec![], vec![b, c], body);
    let fused = CompiledKernel::compile_with(&f, true).unwrap();
    assert_eq!(fused.fused_ops(), 0, "coefficient loads the written buffer");
    let mut t = HashMap::new();
    t.insert("B".to_string(), TensorData::from(vec![1.0f32; 8]));
    t.insert("C".to_string(), TensorData::from(vec![2.0f32; 8]));
    let mut t2 = t.clone();
    fused.run(&HashMap::new(), &mut t).unwrap();
    eval_func(&f, &HashMap::new(), &mut t2).unwrap();
    assert_eq!(t["C"], t2["C"]);
}

/// Out-of-bounds lanes must fall back to the generic loop and report
/// the interpreter's exact error.
#[test]
fn fused_bounds_violation_falls_back_with_identical_error() {
    let k = Var::i32("k");
    let n = Var::i32("n");
    let b = Buffer::global_f32("B", vec![Expr::i32(8)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
    // Extent is a scalar param: the kernel fuses (extent is dynamic),
    // and binding n = 12 overruns both buffers at run time.
    let body = Stmt::For {
        var: k.clone(),
        extent: Expr::var(&n),
        kind: ForKind::Serial,
        body: Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&k)],
            value: c.load(vec![Expr::var(&k)]) + Expr::f32(2.0) * b.load(vec![Expr::var(&k)]),
        }),
    };
    let f = PrimFunc::new("oob", vec![n], vec![b, c], body);
    let fused = CompiledKernel::compile_with(&f, true).unwrap();
    assert_eq!(fused.fused_ops(), 1);
    let mut tensors = HashMap::new();
    tensors.insert("B".to_string(), TensorData::from(vec![1.0f32; 8]));
    tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
    let scalars = scalar_map(&[("n", 12)]);
    let mut t2 = tensors.clone();
    let fast = fused.run(&scalars, &mut tensors).unwrap_err();
    let generic = CompiledKernel::compile_with(&f, false).unwrap();
    let slow = generic.run(&scalars, &mut t2).unwrap_err();
    assert_eq!(fast, slow, "fallback must reproduce the generic error exactly");
    let mut t3 = t2.clone();
    let interp = eval_func(&f, &scalars, &mut t3).unwrap_err();
    assert!(interp
        .to_string()
        .ends_with("index 8 out of bounds for dim of extent 8 in buffer `C`"));
    // The in-bounds prefix written by the generic fallback matches.
    assert_eq!(tensors["C"], t2["C"]);
}

/// A launch's slot table is this thread's one table: every run takes it
/// when its bindings are made and hands it back cleared, its capacity
/// kept — a refused one too — so each warm launch reuses the table the
/// first one grew, of this kernel or another.
#[test]
fn frames_are_reused_across_runs() {
    let i = Var::i32("i");
    let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
    let body = Stmt::for_serial(
        i.clone(),
        8,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&i)],
            value: Expr::var(&i).cast(DType::F32),
        },
    );
    let f = PrimFunc::new("iota8", vec![], vec![c], body);
    let kernels =
        [CompiledKernel::compile(&f).unwrap(), CompiledKernel::compile_with(&f, false).unwrap()];
    let mut tensors = HashMap::new();
    tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
    let mut table = None;
    for launch in 0..3 {
        for k in &kernels {
            k.run(&HashMap::new(), &mut tensors).unwrap();
            let mut out = [0.0f32; 8];
            let mut views = ViewBindings::new(k);
            assert_eq!(slot_table(), None, "launch {launch}: the bindings hold the table");
            views.bind_slice_mut("C", &mut out);
            k.run_views(&mut views).unwrap();
            drop(views);
            assert_eq!(out, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
            let seen = slot_table().expect("handed back cleared");
            assert_eq!(*table.get_or_insert(seen), seen, "launch {launch} reused the table");
            let refused = k.run(&HashMap::new(), &mut HashMap::new()).unwrap_err();
            assert_eq!(refused.message, "missing tensor binding for buffer `C`");
            assert_eq!(slot_table(), table, "launch {launch}: refused, table kept");
        }
    }
}

/// A launch refused before it runs — a missing scalar param, a missing
/// binding, a dtype mismatch — hands its slot table back like a launch
/// that ran: the thread keeps its one table, cleared, for the next.
#[test]
fn refused_launches_return_their_frame() {
    let (i, n) = (Var::i32("i"), Var::i32("n"));
    let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
    let body = Stmt::for_serial(
        i.clone(),
        Expr::var(&n),
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&i)],
            value: Expr::var(&i).cast(DType::F32),
        },
    );
    let k = CompiledKernel::compile(&PrimFunc::new("iota", vec![n], vec![c], body)).unwrap();
    let scalars = HashMap::from([("n".to_string(), 8i64)]);
    let floats = HashMap::from([("C".to_string(), TensorData::zeros(DType::F32, 8))]);
    k.run(&scalars, &mut floats.clone()).unwrap();
    let table = slot_table().expect("handed back cleared");
    let ints = HashMap::from([("C".to_string(), TensorData::zeros(DType::I32, 8))]);
    let refusals = [
        (HashMap::new(), floats, "missing scalar param `n`"),
        (scalars.clone(), HashMap::new(), "missing tensor binding for buffer `C`"),
        (scalars, ints, "buffer `C` bound to storage of mismatched dtype"),
    ];
    for (scalars, mut tensors, says) in refusals {
        let err = k.run(&scalars, &mut tensors).unwrap_err();
        assert_eq!(err.message, says);
        assert_eq!(slot_table(), Some(table), "{says}: the table is handed back");
    }
    // Through views too: an index array where `C`'s floats belong.
    let words = [0u32; 8];
    let mut views = ViewBindings::new(&k);
    views.bind_scalar("n", 8);
    views.bind_indices("C", &words);
    let err = k.run_views(&mut views).unwrap_err();
    assert_eq!(err.message, "buffer `C` bound to storage of mismatched dtype");
    drop(views);
    assert_eq!(slot_table(), Some(table), "refused views hand the table back");
}

/// Length, capacity and address of this thread's walk-state slab.
fn walk_slab() -> (usize, usize, usize) {
    let slab = bytecode::WALKS.take();
    let seen = (slab.len(), slab.capacity(), slab.as_ptr() as usize);
    bytecode::WALKS.set(slab);
    seen
}

/// Where this thread's slot table keeps its scalar frame and buffer
/// table, while the thread holds it cleared and with storage — `None`
/// while a binding set holds it or after it was dropped.
fn slot_table() -> Option<[usize; 2]> {
    let table = bytecode::SLOTS.take();
    let at = [table.scalars.as_ptr() as usize, table.bufs.as_ptr() as usize];
    let cleared = table.scalars.is_empty() && table.bound.is_empty() && table.bufs.is_empty();
    let held = cleared && table.bufs.capacity() > 0;
    bytecode::SLOTS.set(table);
    held.then_some(at)
}

/// A frame over `tensors` like the one `run` binds.
fn frame_of(k: &CompiledKernel, tensors: &mut HashMap<String, TensorData>) -> Frame {
    let mut bufs = vec![RawBuf::Absent; k.plan.entries.len()];
    for (slot, e) in k.plan.entries[..k.n_buffers as usize].iter().enumerate() {
        bufs[slot] = RawBuf::of(tensors.get_mut(&e.name).expect("bound"));
    }
    Frame {
        scalars: vec![0; k.slot_names.len()],
        bufs,
        locals: Vec::new(),
        pool: Arc::clone(&k.pool),
    }
}

fn lane_spec(k: &CompiledKernel) -> &fuse::LaneSpec {
    k.code
        .instrs()
        .iter()
        .find_map(|ins| match ins {
            bytecode::Instr::Super { spec, .. } => Some(&**spec),
            _ => None,
        })
        .expect("kernel has a superinstruction")
}

/// `for i: blockIdx.x { for k { C[i, k] += A[i] * B[i, k] } }`: the block
/// loop is a loop like any other — around one lane loop, a row nest — and
/// writes the interpreter's bits.
#[test]
fn block_bound_lane_loop_bit_matches_the_interpreter() {
    let (rows, n) = (5i64, 33i64);
    let i = Var::i32("i");
    let k = Var::i32("k");
    let a = Buffer::global_f32("A", vec![Expr::i32(rows)]);
    let b = Buffer::global_f32("B", vec![Expr::i32(rows), Expr::i32(n)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(rows), Expr::i32(n)]);
    let at = vec![Expr::var(&i), Expr::var(&k)];
    let lanes = Stmt::for_serial(
        k.clone(),
        n,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: at.clone(),
            value: c.load(at.clone()) + a.load(vec![Expr::var(&i)]) * b.load(at),
        },
    );
    let body = Stmt::For {
        var: i.clone(),
        extent: Expr::i32(rows),
        kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
        body: Box::new(lanes),
    };
    let f = PrimFunc::new("rows_axpy", vec![], vec![a, b, c], body);
    let kernel = CompiledKernel::compile_with(&f, true).unwrap();
    let listing = kernel.disassemble();
    assert!(
        kernel.fused_ops() == 1 && listing.contains("0000  nest.axpy  %0 in 0..5"),
        "{listing}"
    );

    let len = (rows * n) as usize;
    let mut tensors = HashMap::new();
    let ramp = |scale: f32| (0..len).map(|x| scale * (x as f32 - 40.0)).collect::<Vec<_>>();
    tensors.insert("A".to_string(), TensorData::from(vec![0.5f32, -1.25, 3.0, 0.1, -7.5]));
    tensors.insert("B".to_string(), TensorData::from(ramp(0.37)));
    tensors.insert("C".to_string(), TensorData::from(ramp(-0.011)));
    let mut interp = tensors.clone();
    eval_func(&f, &HashMap::new(), &mut interp).unwrap();
    let mut t = tensors;
    kernel.run(&HashMap::new(), &mut t).unwrap();
    assert_eq!(t["C"], interp["C"]);
}

/// A coalesced `k_o × k_i` run whose last lanes leave `B`'s innermost
/// dimension must not start: validation over the whole span fails before
/// any write, the generic nest behind the superinstruction runs instead,
/// and it reports the interpreter's error after the interpreter's prefix.
#[test]
fn coalesced_run_past_the_dimension_falls_back_to_the_generic_nest() {
    let ko = Var::i32("ko");
    let ki = Var::i32("ki");
    let b = Buffer::global_f32("B", vec![Expr::i32(6)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
    let lane = || Expr::var(&ko) * 4 + Expr::var(&ki);
    let store = Stmt::BufferStore {
        buffer: c.clone(),
        indices: vec![lane()],
        value: c.load(vec![lane()]) + Expr::f32(2.0) * b.load(vec![lane()]),
    };
    let body = Stmt::for_serial(ko.clone(), 2, Stmt::for_serial(ki.clone(), 4, store));
    let f = PrimFunc::new("split_oob", vec![], vec![b, c], body);
    let fused = CompiledKernel::compile_with(&f, true).unwrap();
    assert_eq!(fused.fused_ops(), 1);
    assert!(lane_spec(&fused).outer_slot.is_some(), "the 2 x 4 nest coalesces to 8 lanes");

    let mut tensors = HashMap::new();
    tensors.insert("B".to_string(), TensorData::from(vec![1.0f32; 6]));
    tensors.insert("C".to_string(), TensorData::from(vec![0.5f32; 8]));
    let mut t_interp = tensors.clone();
    let interp = eval_func(&f, &HashMap::new(), &mut t_interp).unwrap_err().to_string();
    assert!(interp.ends_with("index 6 out of bounds for dim of extent 6 in buffer `B`"));
    let mut t_generic = tensors.clone();
    let generic = CompiledKernel::compile_with(&f, false).unwrap();
    let slow = generic.run(&HashMap::new(), &mut t_generic).unwrap_err();
    let fast = fused.run(&HashMap::new(), &mut tensors).unwrap_err();
    assert_eq!(fast, slow);
    assert_eq!(Some(fast.message.as_str()), interp.strip_prefix("interpreter error: "));
    assert_eq!(tensors["C"], t_interp["C"], "six lanes written, two untouched");
    assert_eq!(tensors["C"].as_f32(), &[2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 0.5, 0.5]);
}

/// `for i: blockIdx.x { for j in 0..3 { for k { C[i, k] += W[i·3 + j] · X[Idx[i·3 + j], k] } } }`:
/// an ELL-shaped kernel whose `j` loop is a row nest (gathered `X` row,
/// walked coefficient, row-invariant `C` row), with its tensors.
fn ell_func(rows: i64, n: i64) -> (PrimFunc, HashMap<String, TensorData>) {
    let width = 3i64;
    let (i, j, k) = (Var::i32("i"), Var::i32("j"), Var::i32("k"));
    let idx = Buffer::global_i32("Idx", vec![Expr::i32(rows * width)]);
    let w = Buffer::global_f32("W", vec![Expr::i32(rows * width)]);
    let x = Buffer::global_f32("X", vec![Expr::i32(4), Expr::i32(n)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(rows), Expr::i32(n)]);
    let at = vec![Expr::var(&i), Expr::var(&k)];
    let pos = Expr::var(&i) * width + Expr::var(&j);
    let lanes = Stmt::for_serial(
        k.clone(),
        n,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: at.clone(),
            value: c.load(at)
                + w.load(vec![pos.clone()]) * x.load(vec![idx.load(vec![pos]), Expr::var(&k)]),
        },
    );
    let body = Stmt::For {
        var: i.clone(),
        extent: Expr::i32(rows),
        kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
        body: Box::new(Stmt::for_serial(j.clone(), width, lanes)),
    };
    let f = PrimFunc::new("ell", vec![], vec![idx, w, x, c], body);
    let ramp = |len: i64, by: f32| (0..len).map(|v| by * (v as f32 - 5.0)).collect::<Vec<_>>();
    let mut t = HashMap::new();
    t.insert(
        "Idx".to_string(),
        TensorData::from((0..rows * width).map(|p| (p * 7 % 4) as i32).collect::<Vec<_>>()),
    );
    t.insert("W".to_string(), TensorData::from(ramp(rows * width, 0.75)));
    t.insert("X".to_string(), TensorData::from(ramp(4 * n, -0.031)));
    t.insert("C".to_string(), TensorData::from(ramp(rows * n, 0.013)));
    (f, t)
}

/// The kernel's first row nest and the block of its one entry.
fn nest_spec(k: &CompiledKernel) -> (&fuse::NestSpec, &fuse::Block) {
    k.code
        .instrs()
        .iter()
        .find_map(|ins| match ins {
            bytecode::Instr::Nest { spec, block, .. } => Some((&**spec, &**block)),
            _ => None,
        })
        .expect("kernel has a row nest")
}

/// `block`'s one entry on the frame `fr` as the bindings stand: the walk
/// state established and solved afresh, what the block did and counted.
fn one_entry(
    k: &CompiledKernel,
    fr: &mut Frame,
    kept: Option<&mut fuse::Trips>,
) -> (fuse::Exit, NestCounts) {
    let (nest, block) = nest_spec(k);
    let lanes = lane_spec(k);
    let mut fresh = None;
    let at = match kept {
        Some(at) => at,
        None => fresh.insert(fuse::Trips::establish(nest, &nest.entry, lanes, fr).expect("flat")),
    };
    if matches!(at.rows, fuse::Solve::Unsolved) {
        at.rows = fuse::Solve::Ready(block.solve(nest, lanes, at, fr).expect("solved"));
    }
    let mut counts = NestCounts::default();
    let exit = block.run(nest, at, fr, &mut fuse::Stepped::scratch(), 1, &mut counts);
    (exit, counts)
}

/// A row nest under a `blockIdx` loop writes the interpreter's bits: run
/// by the launch, whose row block takes all five rows, the first one
/// included; and entered row by row as the nest's own block of one entry,
/// on one kept walk state.
#[test]
fn nest_under_a_block_loop_bit_matches_the_interpreter() {
    let (f, tensors) = ell_func(5, 33);
    let kernel = CompiledKernel::compile_with(&f, true).unwrap();
    let listing = kernel.disassemble();
    assert!(
        kernel.fused_ops() == 1 && listing.contains("0000  rows       %0 in 0..5"),
        "{listing}"
    );
    let (nest, _) = nest_spec(&kernel);
    assert!(nest.gather.is_some() && nest.coeff.is_some());
    assert_eq!(nest.views.map(|v| v.is_some()), [false, true, false], "only `X` moves");

    let mut interp = tensors.clone();
    eval_func(&f, &HashMap::new(), &mut interp).unwrap();
    let mut t = tensors.clone();
    kernel.run(&HashMap::new(), &mut t).unwrap();
    assert_eq!(t["C"], interp["C"]);
    let counts = kernel.nest_counts();
    assert_eq!((counts.entries, counts.blocked, counts.handovers), (5, 5, 0));
    // Every row through the nest's block of one entry, on one walk state
    // kept from row to row.
    let i = kernel.slot_names.iter().position(|s| s == "i").expect("row loop slot");
    let mut t = tensors;
    let mut fr = frame_of(&kernel, &mut t);
    let (nest, _) = nest_spec(&kernel);
    let lanes = lane_spec(&kernel);
    let mut kept = fuse::Trips::establish(nest, &nest.entry, lanes, &fr).expect("flat bindings");
    for row in 0..5 {
        fr.scalars[i] = row;
        let (exit, counts) = one_entry(&kernel, &mut fr, Some(&mut kept));
        assert!(matches!(exit, fuse::Exit::Done), "row {row}");
        assert_eq!((counts.entries, counts.blocked, counts.stepped), (1, 1, 3), "row {row}");
    }
    assert_eq!(t["C"], interp["C"]);
}

/// The block's contract with the loop behind its nest: a trip it cannot
/// take is handed over *before* anything of that trip is written, every
/// earlier trip stands, and the generic loop resuming there reproduces
/// the interpreter's error and prefix; an entry that cannot take its
/// *first* trip hands the row over whole, nothing written.
#[test]
fn nest_reports_the_first_trip_it_cannot_take() {
    let (f, mut tensors) = ell_func(2, 8);
    let kernel = CompiledKernel::compile_with(&f, true).unwrap();
    // Row 0, trip 1 gathers a row `X` does not have.
    let TensorData::I32(idx) = tensors.get_mut("Idx").unwrap() else { unreachable!() };
    idx[1] = 4;
    let mut interp = tensors.clone();
    let err = eval_func(&f, &HashMap::new(), &mut interp).unwrap_err().to_string();
    assert!(err.ends_with("index 4 out of bounds for dim of extent 4 in buffer `X`"), "{err}");

    let mut t = tensors.clone();
    let mut fr = frame_of(&kernel, &mut t);
    let got = kernel.code.exec(&mut fr).unwrap_err();
    assert_eq!(Some(got.message.as_str()), err.strip_prefix("interpreter error: "));
    assert_eq!(t["C"], interp["C"], "exactly trip 0 of row 0 is written");
    let counts = kernel.nest_counts();
    assert_eq!((counts.blocked, counts.handovers, counts.trips, counts.stepped), (1, 1, 3, 1));

    // The same row entered directly: trip 1 handed back after trip 0's
    // writes; with the bad column at trip 0 instead, the row handed back
    // whole, nothing written — and a launch hands trip 0 to the generic
    // loop.
    let mut t = tensors.clone();
    let mut fr = frame_of(&kernel, &mut t);
    let (exit, _) = one_entry(&kernel, &mut fr, None);
    assert!(matches!(exit, fuse::Exit::Handover { row: 0, done: 1, trips: Some(3) }));
    assert_eq!(t["C"], interp["C"]);
    let TensorData::I32(idx) = tensors.get_mut("Idx").unwrap() else { unreachable!() };
    idx.swap(0, 1);
    let mut t = tensors.clone();
    let mut fr = frame_of(&kernel, &mut t);
    let (exit, counts) = one_entry(&kernel, &mut fr, None);
    assert!(matches!(exit, fuse::Exit::Handover { row: 0, done: 0, trips: None }));
    assert_eq!((counts.entries, counts.blocked, counts.handovers), (1, 0, 1));
    assert_eq!(t["C"], tensors["C"], "nothing written");
    let mut interp = tensors.clone();
    let err = eval_func(&f, &HashMap::new(), &mut interp).unwrap_err().to_string();
    let kernel = CompiledKernel::compile_with(&f, true).unwrap();
    let mut t = tensors.clone();
    let got = kernel.run(&HashMap::new(), &mut t).unwrap_err();
    assert_eq!(Some(got.message.as_str()), err.strip_prefix("interpreter error: "));
    assert_eq!(t["C"], interp["C"]);
    let counts = kernel.nest_counts();
    assert_eq!((counts.entries, counts.blocked, counts.handovers), (1, 0, 1));
}

/// A binding resolves its name when it is made: a name the kernel lacks
/// is ignored (the scalar `n`, the buffer `D`), and binding a name again
/// replaces its earlier binding.
#[test]
fn unknown_names_are_ignored_and_a_rebinding_replaces() {
    let kernel = CompiledKernel::compile(&axpy_func(4)).unwrap();
    let (a, b, stale) = ([2.0f32], [1.0f32, 2.0, 3.0, 4.0], [0.0f32; 2]);
    let mut c = [9.0f32; 4];
    let mut views = ViewBindings::new(&kernel);
    views.bind_scalar("n", 4);
    views.bind_slice("D", &b);
    views.bind_slice("A", &stale);
    views.bind_slice("A", &a);
    views.bind_slice("B", &b);
    views.bind_slice_mut("C", &mut c);
    kernel.run_views(&mut views).unwrap();
    drop(views);
    assert_eq!(c, [6.0, 12.0, 18.0, 24.0]);
}

/// Empty views are valid bindings, not dangling-pointer arithmetic: empty
/// slices (what a zero-row adjacency's SpMM operands and output are) bind,
/// and every index a kernel then tries fails the bounds check on both
/// executor builds instead of being dereferenced.
#[test]
fn empty_views_construct_and_reject_every_index() {
    let f = axpy_func(8);
    for fuse in [true, false] {
        let kernel = CompiledKernel::compile_with(&f, fuse).unwrap();
        let (a, mut c) = ([1.5f32], Vec::<f32>::new());
        let mut views = ViewBindings::new(&kernel);
        views.bind_slice("A", &a);
        views.bind_slice("B", &[]);
        views.bind_slice_mut("C", &mut c);
        let err = kernel.run_views(&mut views).unwrap_err().to_string();
        assert!(err.contains("out of bounds"), "fuse={fuse}: {err}");
    }
}

/// An index binding is read in place as the `i32` its bits make (a `u32`
/// past `i32::MAX` reads negative, as the owned binders' `v as i32`) and
/// is read-only: the integer store into it is refused with the float
/// store's wording, on both executor builds, and leaves it untouched.
#[test]
fn index_views_read_in_place_and_refuse_stores() {
    let i = Var::i32("i");
    let j = Buffer::global_i32("J", vec![Expr::i32(3)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(3)]);
    let store = |buffer: &Buffer, value: Expr| Stmt::BufferStore {
        buffer: buffer.clone(),
        indices: vec![Expr::var(&i)],
        value,
    };
    let read = store(&c, j.load(vec![Expr::var(&i)]));
    let read = PrimFunc::new("read", vec![], vec![j.clone(), c.clone()], read);
    let write = PrimFunc::new("write", vec![], vec![j.clone()], store(&j, Expr::var(&i)));
    let [read, write] = [read, write].map(|mut f| {
        f.body = Stmt::for_serial(i.clone(), 3, f.body);
        f
    });
    let words = [7u32, 0, u32::MAX];
    for fuse in [true, false] {
        let mut out = vec![0.0f32; 3];
        let kernel = CompiledKernel::compile_with(&read, fuse).unwrap();
        let mut views = ViewBindings::new(&kernel);
        views.bind_indices("J", &words);
        views.bind_slice_mut("C", &mut out);
        kernel.run_views(&mut views).unwrap();
        drop(views);
        assert_eq!(out, [7.0, 0.0, -1.0], "fuse={fuse}");
        let kernel = CompiledKernel::compile_with(&write, fuse).unwrap();
        let mut views = ViewBindings::new(&kernel);
        views.bind_indices("J", &words);
        let err = kernel.run_views(&mut views).unwrap_err().to_string();
        assert_eq!(err, "executor error: buffer `J` is bound to a read-only view", "fuse={fuse}");
    }
    assert_eq!(words, [7, 0, u32::MAX]);
}

/// A launch allocates no walk state and a kernel keeps none: the kept
/// state of a launch's nests is one slab per thread, handed back empty —
/// every nest unestablished for the next launch — with its capacity, so
/// every warm launch on the thread, of this kernel or another, reuses the
/// slab the first one grew. (Allocating it per launch put the launch at the
/// mercy of glibc's per-thread cache: one size class past it, a pass of
/// `stbench kernel_wide` trimmed and page-faulted the heap top, `cold_ratio`
/// 0.067 → 0.113. Pooling it per kernel cost ≈ 1 KB a nest for as long as
/// the kernel is cached.)
#[test]
fn walk_state_is_one_slab_per_thread() {
    // The ELL kernel at two widths: two kernels.
    let kernels: Vec<_> = [33, 8]
        .map(|n| {
            let (f, tensors) = ell_func(5, n);
            let mut interp = tensors.clone();
            eval_func(&f, &HashMap::new(), &mut interp).unwrap();
            (CompiledKernel::compile(&f).unwrap(), tensors, interp)
        })
        .into();
    let mut slab = None;
    for launch in 0..3 {
        for (kernel, tensors, interp) in &kernels {
            let mut t = tensors.clone();
            kernel.run(&HashMap::new(), &mut t).unwrap();
            assert_eq!(t["C"], interp["C"], "launch {launch}");
            let (len, capacity, at) = walk_slab();
            assert!(len == 0 && capacity >= 1, "handed back empty, capacity kept");
            assert_eq!(*slab.get_or_insert(at), at, "launch {launch} reused the first one's slab");
        }
    }
    for (kernel, ..) in &kernels {
        let counts = kernel.nest_counts();
        assert_eq!((counts.entries, counts.blocked), (15, 15), "each launch establishes anew");
    }
}
