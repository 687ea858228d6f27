//! Concurrency stress tests for the sharded, single-flight kernel cache:
//! a compile storm on one function must cost exactly one compilation and
//! hand every racer the same (bit-identically behaving) kernel, and
//! distinct fingerprints compiled concurrently must all land in the cache
//! with exact `cached()`/`compilations()` accounting across shards — for
//! the text-keyed `compile` and the caller-keyed `compile_keyed` alike.

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

/// What `compile_keyed` is keyed by here: the arguments of [`iota_func`].
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
struct IotaKey {
    n: i64,
    scale: i64,
}

impl IotaKey {
    fn build(&self) -> Result<PrimFunc, String> {
        Ok(iota_func(self.n, self.scale, "keyed"))
    }
}

type KeyedError = Box<dyn std::error::Error + Send + Sync>;

fn compile_keyed(rt: &Runtime, key: &IotaKey) -> Arc<CompiledKernel> {
    rt.compile_keyed::<_, _, KeyedError>(key, || key.build()).expect("compiles")
}

/// Release builds: a hit never calls `build` — no IR is built, printed or
/// hashed for a key that is already compiled.
#[cfg(not(debug_assertions))]
#[test]
fn keyed_hit_never_calls_build() {
    let rt = Runtime::new();
    let key = IotaKey { n: 16, scale: 2 };
    let first = compile_keyed(&rt, &key);
    let again = rt
        .compile_keyed::<_, String, KeyedError>(&key, || panic!("`build` ran on a hit"))
        .expect("hits");
    assert!(Arc::ptr_eq(&first, &again));
    assert_eq!((rt.keyed_lookups(), rt.keyed_hits(), rt.compilations()), (2, 1, 1));
}

/// Debug builds: every hit re-runs `build` and compares its fingerprint
/// with the one recorded at compile time, so a key that leaves out
/// something `build` reads — here two functions under one key — panics at
/// the first hit instead of serving the wrong kernel.
#[cfg(debug_assertions)]
#[test]
fn keyed_hit_rebuilds_and_catches_an_incomplete_key() {
    let rt = Runtime::new();
    let key = IotaKey { n: 16, scale: 2 };
    let first = compile_keyed(&rt, &key);
    let mut rebuilt = false;
    let again = rt
        .compile_keyed::<_, String, KeyedError>(&key, || {
            rebuilt = true;
            key.build()
        })
        .expect("hits");
    assert!(rebuilt && Arc::ptr_eq(&first, &again));
    assert_eq!((rt.keyed_lookups(), rt.keyed_hits(), rt.compilations()), (2, 1, 1));

    let incomplete = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.compile_keyed::<_, String, KeyedError>(&key, || Ok(iota_func(16, 3, "keyed")))
    }));
    let panic = incomplete.expect_err("one key, two functions");
    let message = panic.downcast_ref::<String>().expect("an assertion message");
    assert!(message.contains("the key leaves out something"), "{message}");
    assert_eq!(rt.compilations(), 1, "nothing was compiled for it");
}

/// 8 threads racing `compile_keyed` on one key compile once and share one
/// kernel; every racer but the one that built counts as a hit.
#[test]
fn keyed_storm_on_one_key_compiles_once() {
    const THREADS: usize = 8;
    let rt = Runtime::new();
    let barrier = std::sync::Barrier::new(THREADS);
    let kernels: Vec<_> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let key = IotaKey { n: 64, scale: 7 };
                    barrier.wait();
                    compile_keyed(&rt, &key)
                })
            })
            .collect();
        racers.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    assert_eq!((rt.compilations(), rt.cached()), (1, 1));
    assert_eq!((rt.keyed_lookups(), rt.keyed_hits()), (THREADS, THREADS - 1));
    let expect: Vec<u32> = (0..64).map(|i| ((i * 7) as f32).to_bits()).collect();
    for k in &kernels {
        assert!(Arc::ptr_eq(k, &kernels[0]), "every racer shares the one kernel");
        assert_eq!(run_kernel(k, 64), expect);
    }
}

/// 8 threads each walking the same 64 keys from a different start: 64
/// compilations, one cached kernel per key, every other lookup a hit.
#[test]
fn keyed_storm_on_distinct_keys_compiles_each_once() {
    const THREADS: usize = 8;
    const KEYS: usize = 64;
    let rt = Runtime::new();
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (rt, barrier) = (&rt, &barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..KEYS {
                    let scale = ((i + t * KEYS / THREADS) % KEYS) as i64 + 1;
                    let kernel = compile_keyed(rt, &IotaKey { n: 8, scale });
                    let expect: Vec<u32> = (0..8).map(|i| ((i * scale) as f32).to_bits()).collect();
                    assert_eq!(run_kernel(&kernel, 8), expect, "scale {scale}");
                }
            });
        }
    });
    assert_eq!((rt.compilations(), rt.cached()), (KEYS, KEYS));
    assert_eq!(rt.keyed_lookups(), THREADS * KEYS);
    assert_eq!(rt.keyed_hits(), (THREADS - 1) * KEYS);
}

/// A `build` that fails is cached like a function that fails to compile:
/// every racer and every later caller reads the same error, worded as
/// `build` worded it; nothing is counted as compiled or cached; and the
/// stripes stay usable — keys compiled afterwards land on all of them.
#[test]
fn keyed_build_errors_are_cached_and_poison_nothing() {
    const THREADS: usize = 8;
    let rt = Runtime::new();
    let key = IotaKey { n: 4, scale: 0 };
    let fail = |rt: &Runtime| {
        rt.compile_keyed::<_, _, KeyedError>(&key, || Err::<PrimFunc, _>("no such schedule"))
            .expect_err("`build` failed")
            .to_string()
    };
    let barrier = std::sync::Barrier::new(THREADS);
    let errs: Vec<String> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    fail(&rt)
                })
            })
            .collect();
        racers.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    assert!(errs.iter().all(|e| e == "no such schedule"), "{errs:?}");
    assert_eq!(fail(&rt), "no such schedule", "a late arrival reads the cached error");
    assert_eq!((rt.keyed_lookups(), rt.keyed_hits()), (THREADS + 1, THREADS));
    // So does a function `build` returns but the compiler refuses.
    let ghost = Buffer::global_f32("ghost", vec![Expr::i32(1)]);
    let store =
        Stmt::BufferStore { buffer: ghost, indices: vec![Expr::i32(0)], value: Expr::f32(1.0) };
    let bad = PrimFunc::new("bad", vec![], vec![], store);
    let refused = rt
        .compile_keyed::<_, String, KeyedError>(&IotaKey { n: 4, scale: -1 }, || Ok(bad.clone()))
        .expect_err("unbound buffer must not compile");
    assert_eq!(refused.to_string(), rt.compile(&bad).expect_err("nor here").to_string());
    assert_eq!((rt.compilations(), rt.cached()), (0, 0));
    for scale in 1..=48 {
        compile_keyed(&rt, &IotaKey { n: 4, scale });
    }
    assert_eq!((rt.compilations(), rt.cached()), (48, 48));
}

/// The two kinds of key never meet: one function compiled through `compile`
/// and through `compile_keyed` is filed twice and compiled twice (a caller
/// picks one entry point per function; the served kernels pick the keyed
/// one), and each entry keeps hitting for its own kind of lookup.
#[test]
fn text_and_spec_keyed_entries_coexist() {
    let rt = Runtime::new();
    let key = IotaKey { n: 16, scale: 5 };
    let by_text = rt.compile(&key.build().unwrap()).expect("compiles");
    let by_spec = compile_keyed(&rt, &key);
    assert!(!Arc::ptr_eq(&by_text, &by_spec));
    assert_eq!((rt.compilations(), rt.cached()), (2, 2));
    assert!(Arc::ptr_eq(&by_text, &rt.compile(&key.build().unwrap()).unwrap()));
    assert!(Arc::ptr_eq(&by_spec, &compile_keyed(&rt, &key)));
    assert_eq!((rt.compilations(), rt.keyed_lookups(), rt.keyed_hits()), (2, 2, 1));
    assert_eq!(run_kernel(&by_text, 16), run_kernel(&by_spec, 16));
    // A key of another type with the same fields is another key.
    rt.compile_keyed::<_, String, KeyedError>(&(16i64, 5i64), || key.build()).expect("compiles");
    assert_eq!(rt.compilations(), 3);
}

/// The map is bounded: past 512 entries (32 per stripe) a new key evicts
/// its stripe's least recently used kernel. Over 2 000 distinct functions
/// every stripe fills, each function compiles once, and 512 kernels stay;
/// one looked up after every compilation is never the victim; one compiled
/// first and never looked up again is, yet the caller still holding it
/// runs it as before — and its function compiles afresh on its next
/// lookup.
#[test]
fn the_kernel_map_keeps_its_most_recently_used_kernels() {
    const COLD: i64 = 2000;
    let rt = Runtime::new();
    let (held_func, hot_func) = (iota_func(8, 2, "held"), iota_func(8, 1, "hot"));
    let held = rt.compile(&held_func).unwrap();
    let hot = rt.compile(&hot_func).unwrap();
    for scale in 0..COLD {
        rt.compile(&iota_func(8, scale + 3, "cold")).unwrap();
        assert!(Arc::ptr_eq(&rt.compile(&hot_func).unwrap(), &hot), "the hot kernel stays");
    }
    assert_eq!(rt.compilations(), COLD as usize + 2, "each function compiled once");
    assert_eq!(rt.cached(), 512, "every stripe full, none past it");
    let expect: Vec<u32> = (0..8).map(|i| ((i * 2) as f32).to_bits()).collect();
    assert_eq!(run_kernel(&held, 8), expect, "an evicted kernel still runs for its holder");
    let again = rt.compile(&held_func).unwrap();
    assert!(!Arc::ptr_eq(&again, &held), "evicted: compiled afresh");
    assert_eq!((rt.compilations(), run_kernel(&again, 8)), (COLD as usize + 3, expect));
}
