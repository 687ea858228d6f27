//! Concurrency stress tests for the sharded, single-flight kernel cache:
//! a compile storm on one function must cost exactly one compilation and
//! hand every racer the same (bit-identically behaving) kernel, and
//! distinct fingerprints compiled concurrently must all land in the cache
//! with exact `cached()`/`compilations()` accounting across shards.

use sparsetir_ir::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// `C[i] = i * scale` over a serial loop — `scale` varies the fingerprint.
fn iota_func(n: i64, scale: i64, name: &str) -> PrimFunc {
    let i = Var::i32("i");
    let c = Buffer::global_f32("C", vec![Expr::i32(n)]);
    let body = Stmt::for_serial(
        i.clone(),
        n,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&i)],
            value: (Expr::var(&i) * scale).cast(DType::F32),
        },
    );
    PrimFunc::new(name, vec![], vec![c], body)
}

fn run_kernel(k: &CompiledKernel, n: usize) -> Vec<u32> {
    let mut tensors = HashMap::new();
    tensors.insert("C".to_string(), TensorData::zeros(DType::F32, n));
    k.run(&HashMap::new(), &mut tensors).expect("kernel runs");
    tensors["C"].as_f32().iter().map(|v| v.to_bits()).collect()
}

/// 16 threads racing `compile` on the same `PrimFunc`: the single-flight
/// cell must collapse the storm to exactly one compilation, every thread
/// must receive the same cached kernel, and all outputs must be
/// bit-identical.
#[test]
fn compile_storm_on_one_function_compiles_once() {
    const THREADS: usize = 16;
    const N: usize = 256;
    let rt = Arc::new(Runtime::new());
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let rt = Arc::clone(&rt);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            // Each thread builds its own structurally-identical function,
            // so nothing is shared but the printed-IR fingerprint.
            let f = iota_func(N as i64, 3, "storm");
            barrier.wait();
            let kernel = rt.compile(&f).expect("compiles");
            let bits = run_kernel(&kernel, N);
            (kernel, bits)
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("no panic")).collect();
    assert_eq!(rt.compilations(), 1, "16 racing compiles must collapse to one");
    assert_eq!(rt.cached(), 1);
    let (first_kernel, first_bits) = &results[0];
    for (kernel, bits) in &results {
        assert!(Arc::ptr_eq(first_kernel, kernel), "all racers must share one kernel");
        assert_eq!(bits, first_bits, "outputs must be bit-identical across racers");
    }
    // A late arrival still hits.
    let again = rt.compile(&iota_func(N as i64, 3, "storm")).expect("compiles");
    assert!(Arc::ptr_eq(first_kernel, &again));
    assert_eq!(rt.compilations(), 1);
}

/// Distinct fingerprints compiled concurrently must all land in the cache:
/// `cached()` and `compilations()` stay exact even though the entries are
/// spread across shards.
#[test]
fn concurrent_distinct_fingerprints_all_land_in_cache() {
    const FUNCS: usize = 48; // 3 functions per shard on average
    const RACERS_PER_FUNC: usize = 3;
    let rt = Arc::new(Runtime::new());
    let barrier = Arc::new(std::sync::Barrier::new(FUNCS * RACERS_PER_FUNC));
    let mut handles = Vec::new();
    for scale in 0..FUNCS {
        for _ in 0..RACERS_PER_FUNC {
            let rt = Arc::clone(&rt);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let f = iota_func(64, scale as i64 + 1, "multi");
                barrier.wait();
                let kernel = rt.compile(&f).expect("compiles");
                (scale, run_kernel(&kernel, 64))
            }));
        }
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("no panic")).collect();
    assert_eq!(rt.compilations(), FUNCS, "one compilation per distinct fingerprint");
    assert_eq!(rt.cached(), FUNCS, "every fingerprint must be cached");
    // Each scale's racers agree with the serially computed expectation.
    for (scale, bits) in results {
        let expect: Vec<u32> =
            (0..64).map(|i| ((i * (scale as i64 + 1)) as f32).to_bits()).collect();
        assert_eq!(bits, expect, "scale {scale}");
    }
}

/// (Named for the flag the cache key used to carry.) The key is the bare
/// fingerprint: a storm compiling one function from every thread is
/// single-flighted to exactly one compilation and one shared kernel.
#[test]
fn racing_fusion_flags_compile_each_variant_once() {
    const THREADS: usize = 12;
    let rt = Arc::new(Runtime::new());
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let rt = Arc::clone(&rt);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let f = iota_func(32, 5, "flags");
                barrier.wait();
                rt.compile(&f).expect("compiles")
            })
        })
        .collect();
    let kernels: Vec<_> = handles.into_iter().map(|h| h.join().expect("no panic")).collect();
    assert_eq!(rt.compilations(), 1, "one compilation for the one fingerprint");
    // The all-generic test-reference build never enters the cache and
    // agrees with the shared kernel bit for bit.
    let generic = CompiledKernel::compile_with(&iota_func(32, 5, "flags"), false).unwrap();
    for k in &kernels {
        assert!(Arc::ptr_eq(k, &kernels[0]), "every racer shares the one kernel");
        assert_eq!(run_kernel(k, 32), run_kernel(&generic, 32));
    }
    assert_eq!(rt.cached(), 1);
}

/// A function that fails to compile must fail identically for every racer
/// and never count as a compilation or a cached kernel.
#[test]
fn racing_compile_errors_are_consistent() {
    const THREADS: usize = 8;
    let rt = Arc::new(Runtime::new());
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let rt = Arc::clone(&rt);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // References a buffer that is not declared anywhere.
                let ghost = Buffer::global_f32("ghost", vec![Expr::i32(1)]);
                let body = Stmt::BufferStore {
                    buffer: ghost,
                    indices: vec![Expr::i32(0)],
                    value: Expr::f32(1.0),
                };
                let f = PrimFunc::new("bad", vec![], vec![], body);
                barrier.wait();
                rt.compile(&f).expect_err("unbound buffer must not compile")
            })
        })
        .collect();
    let errs: Vec<_> = handles.into_iter().map(|h| h.join().expect("no panic")).collect();
    for e in &errs {
        assert_eq!(e, &errs[0], "racers must observe the same error");
    }
    assert_eq!(rt.compilations(), 0, "failed compiles are not counted");
    assert_eq!(rt.cached(), 0, "failed compiles are not cached kernels");
}
