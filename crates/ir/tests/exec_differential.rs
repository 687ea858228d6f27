//! Differential property suite: both compiled executor builds — the flat
//! **bytecode** stream on generic dispatch, and bytecode with fused
//! **superinstructions** — must produce **bit-identical** results to the
//! reference interpreter on random lowered programs over F32 and I32
//! buffers, including thread-bound reduction loops and
//! parallel-dispatched `blockIdx` loops.
//!
//! Programs are drawn in five families:
//!
//! * `serial_nest` — arbitrary (even colliding) stores under serial /
//!   `threadIdx` / vectorized loops, wide expression coverage;
//! * `block_striped` — `blockIdx.x`-bound outer loop whose stores stripe
//!   the output disjointly per block (the spatial contract that licenses
//!   parallel dispatch);
//! * `block_reduction` — a reduction block whose reduce axis is bound to
//!   `threadIdx.x` under a `blockIdx.x` spatial loop (§3.3 semantics);
//! * `scheduled_nest` — random `split`/`bind`/`unroll`/`vectorize`
//!   compositions applied by the real `Schedule` machinery;
//! * `lane_kernel` — axpy/dot-shaped lane loops with random lane counts
//!   (including 1/2/3/32/33), strides, init seeding and aliasing, aimed
//!   squarely at the fused lane op (`dst[l] = combine(dst[l], value(l))`)
//!   and its fallback boundary. The lane op has six instances:
//!   `FillLanes`, `AxpyLanes`, `DotLanes`, `GatherScaleAccumulate` (these
//!   four here and in `lane_term`), `MaxLanes` and `ExpDiffLanes` (in the
//!   `softmax` member); the pairs one step outside them each have a named
//!   case that must stay generic.
//!
//! Every case runs three ways — interpreter, bytecode, bytecode+super —
//! and each compiled kernel also runs twice (through the cache) to check
//! that frame reuse cannot leak state between invocations. Failure paths
//! are differential too: runtime bounds/probe errors must carry the
//! interpreter's message and leave the interpreter's written prefix on
//! every executor.
//!
//! A sixth family, `views`, pins the two *binding* modes of one compiled
//! kernel against each other and against the interpreter: the real
//! CSR-SpMM, batched-SDDMM, fused-attention and fused-SAGE functions run
//! once over whole tensors ([`CompiledKernel::run`]) and once over the
//! same data as caller-owned flat slices ([`CompiledKernel::run_views`]) —
//! bit-identical outputs, each also within the independent `f64` oracle's
//! bound, and identical error text on a short binding and on a store to a
//! read-only view. Its `split_k` members run the default
//! CSR schedule's `split(k, 32)` at widths 32 … 128 (lane-coalesced) and
//! 48 (guarded tail, generic) both ways. Its
//! `row_nest` members pin the row-nest superinstruction: the served CSR /
//! ELL / one-head SDDMM loops must compile to one, keep every output bit
//! (every row shape and every ELL bucket width also within the `f64`
//! oracle's bound), and fail like the interpreter when a trip in the *middle* of a row does
//! (a corrupted column index, a short `B`); one negative case per
//! classification rule must stay on the per-non-zero `Super`. Its
//! `reentered` members run every row shape under each loop shape a nest
//! sits in (the GPU schedule's `blockIdx` split of the rows — a row block
//! per `blockIdx` block, or behind its tail guard a loop of nests, each a
//! block of one entry — a plain row loop, `hyb` buckets and the init nest
//! outside any row loop), check
//! through [`CompiledKernel::nest_counts`] that a block takes every entry,
//! the launch's first included — and bit-match, the SpMM, `hyb` and SDDMM
//! arms also within the `f64` oracle's bound, and where re-allocating a
//! buffer the state names drops it — with one negative case per
//! entry-program rule, each no nest, and the ratio coefficients within the
//! `f64` oracle's bound too. Its `stepped` members run the monomorphised
//! trip loop a block hands each entry: lane counts around the vector widths
//! × batches of riders run back to back × one and three heads on a graph with
//! empty rows, one-non-zero rows and one row of `n / 2`, every output also
//! checked against an independent `f64` oracle; every term shape × init
//! kind under a nest entered once per row; and what the menu of trip loops
//! leaves to the generic loop, each case by name. Its `softmax` member runs
//! attention's running-maximum and `exp(a − b)` lane ops at one and three
//! heads, NaN / ±inf / ±`f32::MAX` operands included (finite ones also
//! against an `f64` oracle), and a column out of reach mid-row handed to
//! the generic loop at the right trip. Its `csr_rows` members run the CSR
//! row loop — a row's `indptr`, position and column in locals, `cur`
//! rolled over from the row before — on the served SpMM, the one-level
//! SpMM and the one-head SDDMM: a block's first row against later ones,
//! a roll across an empty row and across a decreasing `indptr`, a `cur`
//! that fails its interval after an empty row, a column leaving the reach
//! mid-row in the launch's last row, and zero and one rows — and the GPU
//! schedule's `blockIdx` split with a tail guard, which is no row block —
//! every case one outcome with the interpreter, error text and written
//! prefix included, and every well-formed one within the `f64` oracle's
//! bound.
//!
//! A seventh, `lane_term`, crosses all seven term shapes with all four
//! init kinds, NaN and ±Inf operands included, under a serial loop and
//! under a `blockIdx` loop, which lowers exactly as the serial one.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sparsetir_core::prelude::{
    attention_aggregate_program, attention_pass_program, bind_dense, bind_zeros, lower,
    spmm_program, ProgramBuilder, SpStore,
};
use sparsetir_ir::prelude::*;
use sparsetir_ir::stmt::IterVar;
use sparsetir_kernels::prelude::{
    csr_spmm_ir, fused_attention_ir, fused_sage_ir, inverse_degrees, prepare_spmm_structure,
    CsrSpmmParams, SpmmConfig,
};
use sparsetir_kernels::sddmm::batched_sddmm_ir;
use sparsetir_smat::prelude::{gen, Csr};
use std::collections::HashMap;
use std::sync::Arc;

#[path = "../../kernels/tests/oracle/mod.rs"]
mod oracle;

// ---------------------------------------------------------------------------
// Bitwise comparison helpers
// ---------------------------------------------------------------------------

fn assert_bits_eq(name: &str, a: &TensorData, b: &TensorData) -> Result<(), String> {
    match (a, b) {
        (TensorData::F32(x), TensorData::F32(y)) => {
            if x.len() != y.len() {
                return Err(format!("`{name}`: length {} vs {}", x.len(), y.len()));
            }
            for (i, (xa, xb)) in x.iter().zip(y).enumerate() {
                if xa.to_bits() != xb.to_bits() {
                    return Err(format!(
                        "`{name}`[{i}]: {xa} ({:#x}) vs {xb} ({:#x})",
                        xa.to_bits(),
                        xb.to_bits()
                    ));
                }
            }
            Ok(())
        }
        (TensorData::I32(x), TensorData::I32(y)) => {
            if x != y {
                return Err(format!("`{name}`: i32 data differs"));
            }
            Ok(())
        }
        _ => Err(format!("`{name}`: storage kinds differ")),
    }
}

/// The two executor builds under differential test (fusion off / on),
/// labeled for error reporting.
const EXECUTORS: [(bool, &str); 2] = [(false, "bytecode"), (true, "bytecode+super")];

/// Run the interpreter and both executor builds on the same program and
/// initial tensors; demand bit-identical tensor maps afterwards. Each
/// compiled path runs twice (the second on a pooled frame — and, for the
/// fused build, on a [`Runtime`] cache hit) to catch state leaking
/// between invocations.
fn differential(
    f: &PrimFunc,
    scalars: &HashMap<String, i64>,
    tensors: &HashMap<String, TensorData>,
) -> Result<(), String> {
    let mut interp = tensors.clone();
    eval_func(f, scalars, &mut interp).map_err(|e| format!("interpreter failed: {e}"))?;

    let rt = Runtime::new();
    for (fuse, label) in EXECUTORS {
        // The all-generic build is the standalone test reference; the
        // fused build is the one a runtime caches.
        let generic = if fuse {
            None
        } else {
            Some(Arc::new(CompiledKernel::compile_with(f, false).map_err(|e| e.to_string())?))
        };
        for run in ["", "#2"] {
            let kernel = match &generic {
                Some(k) => Arc::clone(k),
                None => rt.compile(f).map_err(|e| format!("{label}{run} compile failed: {e}"))?,
            };
            let mut compiled = tensors.clone();
            kernel
                .run(scalars, &mut compiled)
                .map_err(|e| format!("{label}{run} executor failed: {e}"))?;
            for (name, data) in &interp {
                let got = compiled.get(name).ok_or_else(|| format!("`{name}` missing"))?;
                assert_bits_eq(name, data, got).map_err(|e| format!("[{label}{run}] {e}"))?;
            }
        }
    }
    if rt.compilations() != 1 {
        return Err(format!("second fused run recompiled ({} compilations)", rt.compilations()));
    }
    Ok(())
}

/// Failure-path differential: the program must fail on the interpreter
/// and on every executor build with the **same error message** (modulo
/// the `interpreter error:` / `executor error:` prefix), and every
/// executor must leave the interpreter's **written prefix** in the
/// tensors (the in-bounds work done before the error). Returns the
/// executors' shared error message.
fn differential_failure(
    f: &PrimFunc,
    scalars: &HashMap<String, i64>,
    tensors: &HashMap<String, TensorData>,
) -> Result<String, String> {
    let mut prefix = tensors.clone();
    let want = match eval_func(f, scalars, &mut prefix) {
        Err(e) => e.to_string(),
        Ok(()) => return Err("[interpreter] expected a runtime error, got success".into()),
    };
    let want = want.strip_prefix("interpreter error: ").unwrap_or(&want);
    let mut shared = String::new();
    for (fuse, label) in EXECUTORS {
        let kernel = CompiledKernel::compile_with(f, fuse)
            .map_err(|e| format!("{label} compile failed: {e}"))?;
        let mut after = tensors.clone();
        let err = match kernel.run(scalars, &mut after) {
            Err(e) => e.to_string(),
            Ok(()) => return Err(format!("[{label}] expected a runtime error, got success")),
        };
        if err.strip_prefix("executor error: ") != Some(want) {
            return Err(format!("[{label}] error `{err}` differs from interpreter's `{want}`"));
        }
        for (name, data) in &prefix {
            assert_bits_eq(name, data, &after[name])
                .map_err(|e| format!("[{label}] written prefix diverged: {e}"))?;
        }
        shared = err;
    }
    Ok(shared)
}

// ---------------------------------------------------------------------------
// Random program generator (seeded, deterministic)
// ---------------------------------------------------------------------------

struct ProgGen {
    rng: SmallRng,
    loop_vars: Vec<Var>,
}

impl ProgGen {
    fn new(seed: u64) -> Self {
        ProgGen { rng: SmallRng::seed_from_u64(seed), loop_vars: Vec::new() }
    }

    fn small_const(&mut self) -> Expr {
        Expr::i32(self.rng.gen_range(-4i64..9))
    }

    /// Random integer expression over loop vars, `B` loads and constants.
    /// Magnitudes stay bounded so neither engine overflows `i64`.
    fn int_expr(&mut self, b: &Buffer, blen: i64, depth: usize) -> Expr {
        if depth == 0 || self.rng.gen_range(0..10) < 3 {
            return match self.rng.gen_range(0..3) {
                0 => self.small_const(),
                1 if !self.loop_vars.is_empty() => {
                    let i = self.rng.gen_range(0..self.loop_vars.len());
                    Expr::var(&self.loop_vars[i])
                }
                _ => {
                    let idx = self.int_expr(b, blen, 0) % Expr::i32(blen);
                    b.load(vec![idx])
                }
            };
        }
        let l = self.int_expr(b, blen, depth - 1);
        let r = self.int_expr(b, blen, depth - 1);
        match self.rng.gen_range(0..8) {
            0 => l + r,
            1 => l - r,
            2 => l * Expr::i32(self.rng.gen_range(-3i64..4)),
            3 => l.min(r),
            4 => l.max(r),
            5 => l % Expr::i32(self.rng.gen_range(1i64..7)),
            6 => l / Expr::i32(self.rng.gen_range(1i64..7)),
            _ => l.lt(r.clone()).select(self.int_expr(b, blen, depth - 1), r),
        }
    }

    /// Random float expression over `A` loads, casts of int expressions
    /// and constants. Casts back to int are clamped so downstream integer
    /// arithmetic stays bounded.
    fn float_expr(&mut self, a: &Buffer, alen: i64, b: &Buffer, blen: i64, depth: usize) -> Expr {
        if depth == 0 || self.rng.gen_range(0..10) < 3 {
            return match self.rng.gen_range(0..3) {
                0 => Expr::f32(f64::from(self.rng.gen_range(-2.0f32..2.0))),
                1 => {
                    let idx = self.int_expr(b, blen, 1) % Expr::i32(alen);
                    a.load(vec![idx])
                }
                _ => self.int_expr(b, blen, 1).cast(DType::F32),
            };
        }
        let l = self.float_expr(a, alen, b, blen, depth - 1);
        let r = self.float_expr(a, alen, b, blen, depth - 1);
        match self.rng.gen_range(0..8) {
            0 => l + r,
            1 => l - r,
            2 => l * r,
            3 => l / r, // may produce inf/NaN; comparison is bitwise
            4 => l.min(r),
            5 => l.max(r),
            6 => Expr::Call { intrin: Intrinsic::Relu, args: vec![l] },
            _ => l.le(r.clone()).select(r.clone(), self.float_expr(a, alen, b, blen, depth - 1)),
        }
    }

    /// Clamped integer view of a float expression (`cast` then min/max),
    /// bounding the truncated float to a safe range.
    fn clamped_int_of_float(&mut self, a: &Buffer, alen: i64, b: &Buffer, blen: i64) -> Expr {
        self.float_expr(a, alen, b, blen, 1)
            .cast(DType::I32)
            .min(Expr::i32(1000))
            .max(Expr::i32(-1000))
    }
}

/// Inputs shared by every generated program: `A` (F32) and `B` (I32, small
/// non-negative values so it can serve as an index source), plus outputs
/// `C` (F32) and `D` (I32).
fn standard_buffers(g: &mut ProgGen) -> (Buffer, i64, Buffer, i64, Buffer, i64, Buffer, i64) {
    let alen = g.rng.gen_range(8i64..48);
    let blen = g.rng.gen_range(6i64..24);
    let clen = g.rng.gen_range(6i64..24);
    let dlen = g.rng.gen_range(6i64..24);
    let a = Buffer::global_f32("A", vec![Expr::i32(alen)]);
    let b = Buffer::global_i32("B", vec![Expr::i32(blen)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(clen)]);
    let d = Buffer::global_i32("D", vec![Expr::i32(dlen)]);
    (a, alen, b, blen, c, clen, d, dlen)
}

fn standard_tensors(
    g: &mut ProgGen,
    alen: i64,
    blen: i64,
    clen: i64,
    dlen: i64,
) -> HashMap<String, TensorData> {
    let mut t = HashMap::new();
    let a: Vec<f32> = (0..alen).map(|_| g.rng.gen_range(-3.0f32..3.0)).collect();
    let b: Vec<i32> = (0..blen).map(|_| g.rng.gen_range(0i32..8)).collect();
    t.insert("A".to_string(), TensorData::F32(a));
    t.insert("B".to_string(), TensorData::I32(b));
    t.insert("C".to_string(), TensorData::F32(vec![0.5; clen as usize]));
    t.insert("D".to_string(), TensorData::I32(vec![7; dlen as usize]));
    t
}

/// Family 1: serial/threadIdx/vectorized nest with arbitrary (possibly
/// colliding) stores — covers the widest expression space.
fn serial_nest(seed: u64) -> (PrimFunc, HashMap<String, TensorData>) {
    let mut g = ProgGen::new(seed);
    let (a, alen, b, blen, c, clen, d, dlen) = standard_buffers(&mut g);
    let tensors = standard_tensors(&mut g, alen, blen, clen, dlen);

    let depth = g.rng.gen_range(1usize..4);
    let mut loops: Vec<(Var, i64, ForKind)> = Vec::new();
    for li in 0..depth {
        let kinds = [
            ForKind::Serial,
            ForKind::ThreadBinding(ThreadAxis::ThreadIdxX),
            ForKind::Unrolled,
            ForKind::Vectorized,
            ForKind::Parallel,
        ];
        let kind = kinds[g.rng.gen_range(0..kinds.len())];
        // A third of the loops are forced to one trip: those lower to a
        // bind of the loop variable, not a loop.
        let extent = if g.rng.gen_range(0..3) == 0 { 1 } else { g.rng.gen_range(1i64..6) };
        loops.push((Var::i32(format!("l{li}")), extent, kind));
    }
    g.loop_vars = loops.iter().map(|(v, _, _)| v.clone()).collect();

    let n_stores = g.rng.gen_range(1usize..4);
    let mut body = Stmt::nop();
    for _ in 0..n_stores {
        let st = if g.rng.gen_bool(0.5) {
            let idx = g.int_expr(&b, blen, 2) % Expr::i32(clen);
            let val = g.float_expr(&a, alen, &b, blen, 2);
            Stmt::BufferStore { buffer: c.clone(), indices: vec![idx], value: val }
        } else {
            let idx = g.int_expr(&b, blen, 2) % Expr::i32(dlen);
            let val = if g.rng.gen_bool(0.3) {
                g.clamped_int_of_float(&a, alen, &b, blen)
            } else {
                g.int_expr(&b, blen, 2)
            };
            Stmt::BufferStore { buffer: d.clone(), indices: vec![idx], value: val }
        };
        body = body.then(st);
    }
    // Optionally wrap the innermost body in a `let` / `if`.
    if g.rng.gen_bool(0.4) {
        let lv = Var::i32("t");
        let value = g.int_expr(&b, blen, 2);
        g.loop_vars.push(lv.clone());
        let idx = g.int_expr(&b, blen, 1) % Expr::i32(clen);
        let val = g.float_expr(&a, alen, &b, blen, 1);
        g.loop_vars.pop();
        body = body.then(Stmt::Let {
            var: lv,
            value,
            body: Box::new(Stmt::BufferStore { buffer: c.clone(), indices: vec![idx], value: val }),
        });
    }
    if g.rng.gen_bool(0.4) {
        let cond = g.int_expr(&b, blen, 1).lt(g.int_expr(&b, blen, 1));
        body = Stmt::IfThenElse {
            cond,
            then_branch: Box::new(body),
            else_branch: if g.rng.gen_bool(0.5) {
                let idx = g.int_expr(&b, blen, 1) % Expr::i32(dlen);
                Some(Box::new(Stmt::BufferStore {
                    buffer: d.clone(),
                    indices: vec![idx],
                    value: g.int_expr(&b, blen, 1),
                }))
            } else {
                None
            },
        };
    }
    for (v, ext, kind) in loops.into_iter().rev() {
        body = Stmt::For { var: v, extent: Expr::i32(ext), kind, body: Box::new(body) };
    }
    (PrimFunc::new("serial_nest", vec![], vec![a, b, c, d], body), tensors)
}

/// Family 2: `blockIdx.x`-bound outer loop with disjointly striped output
/// writes (the spatial contract that licenses parallel dispatch).
fn block_striped(seed: u64) -> (PrimFunc, HashMap<String, TensorData>) {
    let mut g = ProgGen::new(seed);
    let e1 = g.rng.gen_range(2i64..9);
    let stride = g.rng.gen_range(1i64..4);
    let e2 = g.rng.gen_range(1i64..5);
    let clen = e1 * stride;
    let alen = g.rng.gen_range(8i64..48);
    let blen = g.rng.gen_range(6i64..24);

    let a = Buffer::global_f32("A", vec![Expr::i32(alen)]);
    let b = Buffer::global_i32("B", vec![Expr::i32(blen)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(clen)]);
    let d = Buffer::global_i32("D", vec![Expr::i32(clen)]);
    let tensors = standard_tensors(&mut g, alen, blen, clen, clen);

    let i = Var::i32("i");
    let j = Var::i32("j");
    g.loop_vars = vec![i.clone(), j.clone()];
    // Stripe-local offset: any expression folded into [0, stride).
    let off = g.int_expr(&b, blen, 2) % Expr::i32(stride);
    let idx = Expr::var(&i) * stride + off;
    let val = g.float_expr(&a, alen, &b, blen, 2);
    let off2 = g.int_expr(&b, blen, 2) % Expr::i32(stride);
    let idx2 = Expr::var(&i) * stride + off2;
    let val2 = g.int_expr(&b, blen, 2);
    let inner = Stmt::BufferStore { buffer: c.clone(), indices: vec![idx], value: val }
        .then(Stmt::BufferStore { buffer: d.clone(), indices: vec![idx2], value: val2 });
    let body = Stmt::For {
        var: i.clone(),
        extent: Expr::i32(e1),
        kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
        body: Box::new(Stmt::For {
            var: j.clone(),
            extent: Expr::i32(e2),
            kind: if g.rng.gen_bool(0.5) {
                ForKind::Serial
            } else {
                ForKind::ThreadBinding(ThreadAxis::ThreadIdxX)
            },
            body: Box::new(inner),
        }),
    };
    (PrimFunc::new("block_striped", vec![], vec![a, b, c, d], body), tensors)
}

/// Family 3: reduction block whose reduce axis is bound to `threadIdx.x`
/// under a `blockIdx.x` spatial loop — thread-bound reduction semantics.
fn block_reduction(seed: u64) -> (PrimFunc, HashMap<String, TensorData>) {
    let mut g = ProgGen::new(seed);
    let rows = g.rng.gen_range(2i64..8);
    let red = g.rng.gen_range(1i64..7);
    let alen = rows * red;
    let blen = g.rng.gen_range(6i64..24);

    let a = Buffer::global_f32("A", vec![Expr::i32(alen)]);
    let b = Buffer::global_i32("B", vec![Expr::i32(blen)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(rows)]);
    let d = Buffer::global_i32("D", vec![Expr::i32(rows)]);
    let tensors = standard_tensors(&mut g, alen, blen, rows, rows);

    let i = Var::i32("i");
    let j = Var::i32("j");
    let vi = Var::i32("vi");
    let vj = Var::i32("vj");
    // Optionally seed the accumulator from an expression instead of zero
    // (exercises the "reduce binding non-zero skips init" rule).
    let init_val = if g.rng.gen_bool(0.5) {
        Expr::f32(0.0)
    } else {
        Expr::f32(f64::from(g.rng.gen_range(-1.0f32..1.0)))
    };
    g.loop_vars = vec![vi.clone(), vj.clone()];
    let term =
        a.load(vec![Expr::var(&vi) * red + Expr::var(&vj)]) * g.float_expr(&a, alen, &b, blen, 1);
    let block = Stmt::Block(sparsetir_ir::stmt::Block {
        name: "acc".into(),
        iter_vars: vec![
            IterVar::spatial(vi.clone(), Expr::var(&i)),
            IterVar::reduce(vj.clone(), Expr::var(&j)),
        ],
        reads: vec![],
        writes: vec![],
        init: Some(Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&vi)],
            value: init_val,
        })),
        body: Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&vi)],
            value: c.load(vec![Expr::var(&vi)]) + term,
        }),
    });
    let mut body = Stmt::For {
        var: i.clone(),
        extent: Expr::i32(rows),
        kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
        body: Box::new(Stmt::For {
            var: j.clone(),
            extent: Expr::i32(red),
            kind: ForKind::ThreadBinding(ThreadAxis::ThreadIdxX),
            body: Box::new(block),
        }),
    };
    // Follow with an integer epilogue using binary_search over a sorted
    // prefix of B.
    if g.rng.gen_bool(0.6) {
        let k = Var::i32("k");
        let needle = g.rng.gen_range(0i64..8);
        let search = Expr::Call {
            intrin: Intrinsic::BinarySearch,
            args: vec![
                b.load(vec![Expr::i32(0)]),
                Expr::i32(0),
                Expr::i32(blen.min(6)),
                Expr::i32(needle),
            ],
        };
        body = body.then(Stmt::For {
            var: k.clone(),
            extent: Expr::i32(rows),
            kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
            body: Box::new(Stmt::BufferStore {
                buffer: d.clone(),
                indices: vec![Expr::var(&k)],
                value: search + Expr::var(&k),
            }),
        });
    }
    let mut tensors = tensors;
    // Sort B so binary_search's precondition holds.
    if let Some(TensorData::I32(bv)) = tensors.get_mut("B") {
        bv.sort_unstable();
    }
    (PrimFunc::new("block_reduction", vec![], vec![a, b, c, d], body), tensors)
}

/// Family 4: the real `Schedule` machinery applied to a dense 3-nest,
/// including `bind` to blockIdx/threadIdx.
fn scheduled_nest(seed: u64) -> (PrimFunc, HashMap<String, TensorData>) {
    let mut g = ProgGen::new(seed);
    let (n1, n2, n3) =
        (g.rng.gen_range(2i64..5), g.rng.gen_range(2i64..5), g.rng.gen_range(2i64..6));
    let len = n1 * n2 * n3;
    let i = Var::i32("i");
    let j = Var::i32("j");
    let k = Var::i32("k");
    let a = Buffer::global_f32("A", vec![Expr::i32(len)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(len)]);
    let flat = Expr::var(&i) * (n2 * n3) + Expr::var(&j) * n3 + Expr::var(&k);
    let body = Stmt::for_serial(
        i.clone(),
        n1,
        Stmt::for_serial(
            j.clone(),
            n2,
            Stmt::for_serial(
                k.clone(),
                n3,
                Stmt::BufferStore {
                    buffer: c.clone(),
                    indices: vec![flat.clone()],
                    value: a.load(vec![flat]) * 2.0f32
                        + (Expr::var(&i) + Expr::var(&j) + Expr::var(&k)).cast(DType::F32),
                },
            ),
        ),
    );
    let f = PrimFunc::new("nest", vec![], vec![a.clone(), c.clone()], body);

    let mut sch = Schedule::new(f);
    let mut loops: Vec<String> = vec!["i".into(), "j".into(), "k".into()];
    for _ in 0..g.rng.gen_range(0usize..4) {
        match g.rng.gen_range(0..3) {
            0 => {
                let t = g.rng.gen_range(0..loops.len());
                let name = loops[t].clone();
                let factor = g.rng.gen_range(2i64..5);
                if let Ok((o, inner)) = sch.split(&name, factor) {
                    let pos = loops.iter().position(|l| l == &name).unwrap();
                    loops[pos] = o;
                    loops.insert(pos + 1, inner);
                }
            }
            1 => {
                let t = g.rng.gen_range(0..loops.len());
                let _ = sch.unroll(&loops[t]);
            }
            _ => {
                let t = g.rng.gen_range(0..loops.len());
                let _ = sch.vectorize(&loops[t]);
            }
        }
    }
    // Bind the outermost loop to blockIdx.x and (sometimes) the innermost
    // to threadIdx.x.
    let _ = sch.bind(&loops[0].clone(), ThreadAxis::BlockIdxX);
    if g.rng.gen_bool(0.7) && loops.len() > 1 {
        let last = loops.last().unwrap().clone();
        let _ = sch.bind(&last, ThreadAxis::ThreadIdxX);
    }
    let f = sch.into_func();

    let mut tensors = HashMap::new();
    let av: Vec<f32> = (0..len).map(|_| g.rng.gen_range(-2.0f32..2.0)).collect();
    tensors.insert("A".to_string(), TensorData::F32(av));
    tensors.insert("C".to_string(), TensorData::zeros(DType::F32, len as usize));
    (f, tensors)
}

// ---------------------------------------------------------------------------
// Family 5: lane-kernel programs targeting the fusion pass
// ---------------------------------------------------------------------------

/// Lane counts the fused microkernels must handle, straddling the warp
/// width (1/2/3 short remainders, 32 exact, 33 just past the boundary).
const LANE_COUNTS: [i64; 5] = [1, 2, 3, 32, 33];

/// Axpy-shaped lane loop under a serial reduce loop:
/// `for j in 0..reps { for k in 0..n { block { init C[k·ds] = seed if j == 0;
/// C[k·ds] += A[0] · B[k·ss] } } }`. `ds`/`ss` ≠ 1 must fall back;
/// `alias_coeff` loads the coefficient from the written buffer (must fall
/// back); `alias_src` accumulates `C` from `C` itself (must fall back).
fn lane_axpy(
    n: i64,
    ds: i64,
    ss: i64,
    alias_coeff: bool,
    alias_src: bool,
    seed: u64,
) -> (PrimFunc, HashMap<String, TensorData>) {
    let mut g = ProgGen::new(seed);
    let clen = n * ds + i64::from(alias_src);
    let blen = n * ss;
    let a = Buffer::global_f32("A", vec![Expr::i32(1)]);
    let b = Buffer::global_f32("B", vec![Expr::i32(blen)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(clen)]);
    let j = Var::i32("j");
    let k = Var::i32("k");
    let vk = Var::i32("vk");
    let vp = Var::i32("vp");
    let src = if alias_src { c.clone() } else { b.clone() };
    let src_idx = if alias_src { Expr::var(&vk) + Expr::i32(1) } else { Expr::var(&vk) * ss };
    let coeff = if alias_coeff { c.load(vec![Expr::i32(0)]) } else { a.load(vec![Expr::i32(0)]) };
    let block = Stmt::Block(sparsetir_ir::stmt::Block {
        name: "axpy".into(),
        iter_vars: vec![
            IterVar::spatial(vk.clone(), Expr::var(&k)),
            IterVar::reduce(vp.clone(), Expr::var(&j)),
        ],
        reads: vec![],
        writes: vec![],
        init: Some(Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&vk) * ds],
            value: Expr::f32(f64::from(g.rng.gen_range(-1.0f32..1.0))),
        })),
        body: Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&vk) * ds],
            value: c.load(vec![Expr::var(&vk) * ds]) + coeff * src.load(vec![src_idx]),
        }),
    });
    let body = Stmt::for_serial(j.clone(), 2, Stmt::for_serial(k.clone(), n, block));
    let f = PrimFunc::new("lane_axpy", vec![], vec![a, b, c], body);
    let mut tensors = HashMap::new();
    tensors.insert("A".to_string(), TensorData::F32(vec![g.rng.gen_range(-2.0f32..2.0)]));
    tensors.insert(
        "B".to_string(),
        TensorData::F32((0..blen).map(|_| g.rng.gen_range(-2.0f32..2.0)).collect()),
    );
    tensors.insert(
        "C".to_string(),
        TensorData::F32((0..clen).map(|_| g.rng.gen_range(-2.0f32..2.0)).collect()),
    );
    (f, tensors)
}

/// Scalar dot/gather lane loop whose reduce binding strides with the
/// lane (accumulator-init-at-lane-0 semantics):
/// `for k in 0..n { block { init S[0] = 0 at k == 0;
/// S[0] += (A[0] · X[k]) · Y[k·bs] } }`.
fn lane_dot(
    n: i64,
    bs: i64,
    with_coeff: bool,
    seed: u64,
) -> (PrimFunc, HashMap<String, TensorData>) {
    let mut g = ProgGen::new(seed);
    let a = Buffer::global_f32("A", vec![Expr::i32(1)]);
    let x = Buffer::global_f32("X", vec![Expr::i32(n)]);
    let y = Buffer::global_f32("Y", vec![Expr::i32(n * bs)]);
    let s = Buffer::global_f32("S", vec![Expr::i32(1)]);
    let k = Var::i32("k");
    let vk = Var::i32("vk");
    let vp = Var::i32("vp");
    let xl = x.load(vec![Expr::var(&vk)]);
    let yl = y.load(vec![Expr::var(&vk) * bs]);
    let term = if with_coeff { a.load(vec![Expr::i32(0)]) * xl * yl } else { xl * yl };
    let block = Stmt::Block(sparsetir_ir::stmt::Block {
        name: "dot".into(),
        iter_vars: vec![
            IterVar::spatial(vk.clone(), Expr::var(&k)),
            IterVar::reduce(vp.clone(), Expr::var(&k)),
        ],
        reads: vec![],
        writes: vec![],
        init: Some(Box::new(Stmt::BufferStore {
            buffer: s.clone(),
            indices: vec![Expr::i32(0)],
            value: Expr::f32(0.0),
        })),
        body: Box::new(Stmt::BufferStore {
            buffer: s.clone(),
            indices: vec![Expr::i32(0)],
            value: s.load(vec![Expr::i32(0)]) + term,
        }),
    });
    let body = Stmt::for_serial(k.clone(), n, block);
    let f = PrimFunc::new("lane_dot", vec![], vec![a, x, y, s], body);
    let mut tensors = HashMap::new();
    tensors.insert("A".to_string(), TensorData::F32(vec![g.rng.gen_range(-2.0f32..2.0)]));
    tensors.insert(
        "X".to_string(),
        TensorData::F32((0..n).map(|_| g.rng.gen_range(-2.0f32..2.0)).collect()),
    );
    tensors.insert(
        "Y".to_string(),
        TensorData::F32((0..n * bs).map(|_| g.rng.gen_range(-2.0f32..2.0)).collect()),
    );
    tensors.insert("S".to_string(), TensorData::F32(vec![g.rng.gen_range(-1.0f32..1.0)]));
    (f, tensors)
}

/// Random draw from the lane-kernel family.
fn lane_kernel(seed: u64) -> (PrimFunc, HashMap<String, TensorData>) {
    let mut g = ProgGen::new(seed ^ 0xA5A5);
    let n = LANE_COUNTS[g.rng.gen_range(0..LANE_COUNTS.len())];
    match g.rng.gen_range(0..6) {
        0 => lane_axpy(n, 1, 1, false, false, seed),
        1 => lane_axpy(n, g.rng.gen_range(2i64..4), 1, false, false, seed),
        2 => lane_axpy(n, 1, g.rng.gen_range(2i64..4), false, false, seed),
        3 => lane_axpy(n, 1, 1, true, false, seed),
        4 => lane_axpy(n, 1, 1, false, true, seed),
        _ => lane_dot(n, g.rng.gen_range(1i64..4), g.rng.gen_bool(0.5), seed),
    }
}

// ---------------------------------------------------------------------------
// Targeted fused-vs-generic-vs-interpreter cases
// ---------------------------------------------------------------------------

#[test]
fn fused_lane_counts_cover_the_fallback_boundary() {
    for n in LANE_COUNTS {
        let (f, tensors) = lane_axpy(n, 1, 1, false, false, 0x100 + n as u64);
        let fused = CompiledKernel::compile_with(&f, true).expect("compiles");
        assert_eq!(fused.fused_ops(), 1, "n = {n} must fuse");
        assert_eq!(fused.fused_kinds(), vec!["AxpyLanes"]);
        differential(&f, &HashMap::new(), &tensors).unwrap_or_else(|m| panic!("n = {n}: {m}"));

        let (f, tensors) = lane_dot(n, 3, true, 0x200 + n as u64);
        let fused = CompiledKernel::compile_with(&f, true).expect("compiles");
        assert_eq!(fused.fused_ops(), 1, "dot n = {n} must fuse");
        assert_eq!(fused.fused_kinds(), vec!["GatherScaleAccumulate"]);
        differential(&f, &HashMap::new(), &tensors).unwrap_or_else(|m| panic!("dot n = {n}: {m}"));

        let (f, tensors) = lane_dot(n, 1, false, 0x300 + n as u64);
        let fused = CompiledKernel::compile_with(&f, true).expect("compiles");
        assert_eq!(fused.fused_kinds(), vec!["DotLanes"]);
        differential(&f, &HashMap::new(), &tensors)
            .unwrap_or_else(|m| panic!("pure dot n = {n}: {m}"));
    }
}

#[test]
fn non_contiguous_strides_fall_back_to_generic() {
    for (ds, ss) in [(2, 1), (1, 2), (3, 3)] {
        let (f, tensors) = lane_axpy(32, ds, ss, false, false, 0x400 + (ds * 8 + ss) as u64);
        let fused = CompiledKernel::compile_with(&f, true).expect("compiles");
        assert_eq!(fused.fused_ops(), 0, "strides ({ds},{ss}) must not fuse");
        differential(&f, &HashMap::new(), &tensors)
            .unwrap_or_else(|m| panic!("strides ({ds},{ss}): {m}"));
    }
    // Strided gather operands on a *scalar* reduction stay fused (the
    // GatherScaleAccumulate shape) and still bit-match.
    let (f, tensors) = lane_dot(33, 2, true, 0x777);
    let fused = CompiledKernel::compile_with(&f, true).expect("compiles");
    assert_eq!(fused.fused_kinds(), vec!["GatherScaleAccumulate"]);
    differential(&f, &HashMap::new(), &tensors).unwrap();
}

#[test]
fn aliased_buffers_fall_back_to_generic() {
    // Coefficient loaded from the written buffer.
    let (f, tensors) = lane_axpy(33, 1, 1, true, false, 0x500);
    let fused = CompiledKernel::compile_with(&f, true).expect("compiles");
    assert_eq!(fused.fused_ops(), 0, "aliased coefficient must not fuse");
    differential(&f, &HashMap::new(), &tensors).unwrap();

    // Source lanes overlapping the destination lanes (C[k] += A·C[k+1]).
    let (f, tensors) = lane_axpy(32, 1, 1, false, true, 0x600);
    let fused = CompiledKernel::compile_with(&f, true).expect("compiles");
    assert_eq!(fused.fused_ops(), 0, "self-aliasing source must not fuse");
    differential(&f, &HashMap::new(), &tensors).unwrap();
}

/// Lane loops one step outside the six fused lane ops, each over `k` in
/// `0..33` with `a = X[k]`, `b = Y[k]`, `c = W[0]` and `dst` either `C[k]`
/// or the one element `S[0]`: a bare term store, a running maximum of a
/// scaled operand, an accumulated `exp`, a running minimum, `exp(a − b)`
/// under an init or into one element, and a running maximum whose reduce
/// binding strides with the lane. None fuses; all bit-match the
/// interpreter on generic dispatch.
#[test]
fn lane_bodies_outside_the_six_lane_ops_stay_generic() {
    let n = 33i64;
    let [w, s] = ["W", "S"].map(|name| Buffer::global_f32(name, vec![Expr::i32(1)]));
    let [x, y, c] = ["X", "Y", "C"].map(|name| Buffer::global_f32(name, vec![Expr::i32(n)]));
    let (k, vk, vr) = (Var::i32("k"), Var::i32("vk"), Var::i32("vr"));
    fn exp(e: Expr) -> Expr {
        Expr::Call { intrin: Intrinsic::Exp, args: vec![e] }
    }
    let (lane, one) = (vec![Expr::var(&vk)], vec![Expr::i32(0)]);
    // (case, value of (dst, a, b, c), into `S[0]`, init, reduce binding on
    // the lane)
    type Value = fn(Expr, Expr, Expr, Expr) -> Expr;
    let cases: [(&str, Value, bool, bool, bool); 7] = [
        ("dst = c·a", |_, a, _, c| c * a, false, false, false),
        ("max(dst, c·a)", |d, a, _, c| d.max(c * a), false, false, false),
        ("dst + exp(a − b)", |d, a, b, _| d + exp(a - b), false, false, false),
        ("min(dst, a)", |d, a, _, _| d.min(a), false, false, false),
        ("exp(a − b) with an init", |_, a, b, _| exp(a - b), false, true, false),
        ("exp(a − b) into one element", |_, a, b, _| exp(a - b), true, false, false),
        ("max under a lane-strided reduce", |d, a, _, _| d.max(a), false, true, true),
    ];
    let mut rng = gen::rng(0x6f);
    for (case, value, scalar, init, reduce) in cases {
        let (dst, at) = if scalar { (&s, &one) } else { (&c, &lane) };
        let mut iter_vars = vec![IterVar::spatial(vk.clone(), Expr::var(&k))];
        if reduce {
            iter_vars.push(IterVar::reduce(vr.clone(), Expr::var(&k)));
        }
        let store = |value| Stmt::BufferStore { buffer: dst.clone(), indices: at.to_vec(), value };
        let block = Stmt::Block(sparsetir_ir::stmt::Block {
            name: "boundary".into(),
            iter_vars,
            reads: vec![],
            writes: vec![],
            init: init.then(|| Box::new(store(Expr::f32(0.5)))),
            body: Box::new(store(value(
                dst.load(at.to_vec()),
                x.load(lane.clone()),
                y.load(lane.clone()),
                w.load(one.clone()),
            ))),
        });
        let bufs = vec![w.clone(), x.clone(), y.clone(), c.clone(), s.clone()];
        let f = PrimFunc::new("boundary", vec![], bufs, Stmt::for_serial(k.clone(), n, block));
        let mut tensors = HashMap::new();
        for (name, len) in [("W", 1), ("X", n), ("Y", n), ("C", n), ("S", 1)] {
            let v = (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect::<Vec<_>>();
            tensors.insert(name.to_string(), TensorData::F32(v));
        }
        let fused = CompiledKernel::compile_with(&f, true).expect("compiles");
        assert!(fused.fused_kinds().is_empty(), "{case}:\n{}", fused.disassemble());
        differential(&f, &HashMap::new(), &tensors).unwrap_or_else(|m| panic!("{case}: {m}"));
    }
}

// ---------------------------------------------------------------------------
// Failure-path identity: runtime errors must match on every executor
// ---------------------------------------------------------------------------

/// A fusable axpy loop whose extent is a scalar param: binding it past
/// the buffer lengths makes the superinstruction's lane validation fail
/// and every executor (fused fast paths included) must report the
/// interpreter's exact out-of-bounds error after the same written prefix.
#[test]
fn out_of_bounds_store_fails_identically_on_every_executor() {
    let k = Var::i32("k");
    let n = Var::i32("n");
    let b = Buffer::global_f32("B", vec![Expr::i32(8)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
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
    let f = PrimFunc::new("oob_store", vec![n], vec![b, c], body);
    let fused = CompiledKernel::compile_with(&f, true).unwrap();
    assert_eq!(fused.fused_ops(), 1, "dynamic-extent axpy fuses to a superinstruction");
    let mut tensors = HashMap::new();
    tensors.insert("B".to_string(), TensorData::F32(vec![1.0; 8]));
    tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
    let scalars = scalar_map(&[("n", 12)]);
    let msg = differential_failure(&f, &scalars, &tensors).unwrap();
    assert_eq!(msg, "executor error: index 8 out of bounds for dim of extent 8 in buffer `C`");
}

/// An out-of-bounds *load* (probe failure) part-way through a serial
/// loop: the first two iterations must land before the error, identically
/// everywhere.
#[test]
fn out_of_bounds_probe_fails_identically_after_the_same_prefix() {
    let k = Var::i32("k");
    let b = Buffer::global_f32("B", vec![Expr::i32(2)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
    let body = Stmt::for_serial(
        k.clone(),
        8,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::var(&k)],
            // B has extent 2: iteration k == 2 probes out of bounds.
            value: b.load(vec![Expr::var(&k)]) * 3.0f32,
        },
    );
    let f = PrimFunc::new("oob_probe", vec![], vec![b, c], body);
    let mut tensors = HashMap::new();
    tensors.insert("B".to_string(), TensorData::F32(vec![1.5, -2.5]));
    tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
    let msg = differential_failure(&f, &HashMap::new(), &tensors).unwrap();
    assert_eq!(msg, "executor error: index 2 out of bounds for dim of extent 2 in buffer `B`");
}

/// Integer division by a zero loaded at run time.
#[test]
fn division_by_zero_fails_identically_on_every_executor() {
    let k = Var::i32("k");
    let b = Buffer::global_i32("B", vec![Expr::i32(4)]);
    let d = Buffer::global_i32("D", vec![Expr::i32(4)]);
    let body = Stmt::for_serial(
        k.clone(),
        4,
        Stmt::BufferStore {
            buffer: d.clone(),
            indices: vec![Expr::var(&k)],
            value: Expr::i32(7) / b.load(vec![Expr::var(&k)]),
        },
    );
    let f = PrimFunc::new("div_zero", vec![], vec![b, d], body);
    let mut tensors = HashMap::new();
    tensors.insert("B".to_string(), TensorData::I32(vec![2, 1, 0, 3]));
    tensors.insert("D".to_string(), TensorData::I32(vec![0; 4]));
    let msg = differential_failure(&f, &HashMap::new(), &tensors).unwrap();
    assert!(msg.contains("division by zero"), "got `{msg}`");
}

/// A cast to an integer dtype is exact for an integer operand — nothing
/// passes through `f32`, whose 24-bit significand would round 16 777 217
/// and 2^40 + 1 — and truncates a float operand toward zero (negatives,
/// fractions and ±0 alike), on the interpreter and every executor.
#[test]
fn int_casts_are_exact_and_float_casts_truncate_on_every_executor() {
    let k = Var::i32("k");
    let a = Buffer::global_f32("A", vec![Expr::i32(8)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
    let d = Buffer::global_i32("D", vec![Expr::i32(8)]);
    let e = Buffer::global_i32("E", vec![Expr::i32(2)]);
    let big = 1i64 << 40;
    let at = || vec![Expr::var(&k)];
    let store = |buffer: &Buffer, indices: Vec<Expr>, value: Expr| Stmt::BufferStore {
        buffer: buffer.clone(),
        indices,
        value,
    };
    let ints = store(
        &e,
        vec![Expr::i32(0)],
        (Expr::i32(16_777_216) + Expr::var(&k) + Expr::i32(1)).cast(DType::I64),
    )
    .then(store(
        &e,
        vec![Expr::i32(1)],
        (Expr::i32(big) + Expr::var(&k) + Expr::i32(1)).cast(DType::I64) - Expr::i32(big),
    ));
    let floats = store(&d, at(), a.load(at()).cast(DType::I32)).then(store(
        &c,
        at(),
        a.load(at()).cast(DType::I32).cast(DType::F32),
    ));
    let body = Stmt::for_serial(k.clone(), 1, ints).then(Stmt::for_serial(k.clone(), 8, floats));
    let f = PrimFunc::new("casts", vec![], vec![a, c, d, e], body);
    let xs = vec![-2.75f32, -0.5, -0.0, 0.0, 0.999_999_9, 3.5, -16_777_216.0, 1.0e9];
    let mut tensors = HashMap::new();
    tensors.insert("A".to_string(), TensorData::F32(xs));
    tensors.insert("C".to_string(), TensorData::F32(vec![9.0; 8]));
    tensors.insert("D".to_string(), TensorData::I32(vec![9; 8]));
    tensors.insert("E".to_string(), TensorData::I32(vec![9; 2]));
    differential(&f, &HashMap::new(), &tensors).unwrap();
    eval_func(&f, &HashMap::new(), &mut tensors).unwrap();
    assert_eq!(tensors["E"].as_i32(), [16_777_217, 1]);
    let truncated = [-2, 0, 0, 0, 0, 3, -16_777_216, 1_000_000_000];
    assert_eq!(tensors["D"].as_i32(), truncated);
    // Truncation lands on +0 for every operand in (-1, 1), -0 included.
    let back: Vec<u32> = tensors["C"].as_f32().iter().map(|v| v.to_bits()).collect();
    assert_eq!(back, truncated.map(|t| (t as f32).to_bits()));
}

/// A missing tensor binding errors identically before any execution.
#[test]
fn missing_binding_fails_identically_on_every_executor() {
    let (f, mut tensors) = lane_axpy(8, 1, 1, false, false, 0x900);
    tensors.remove("B");
    let msg = differential_failure(&f, &HashMap::new(), &tensors).unwrap();
    assert_eq!(msg, "executor error: missing tensor binding for buffer `B`");
}

// ---------------------------------------------------------------------------
// Family 6: whole tensors (`run`) vs borrowed slices (`run_views`)
// ---------------------------------------------------------------------------

/// One view-bound f32 tensor over caller-owned storage: its row-major
/// elements, bound as one flat slice (`bind_slice` / `bind_slice_mut`).
#[derive(Clone)]
struct Part {
    name: &'static str,
    data: Vec<f32>,
    writable: bool,
}

impl Part {
    /// A random read-only operand of `len` elements.
    fn new(name: &'static str, len: usize, rng: &mut SmallRng) -> Part {
        let data = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        Part { name, data, writable: false }
    }

    /// A writable output of `len` elements, each `fill`.
    fn output(name: &'static str, len: usize, fill: f32) -> Part {
        Part { name, data: vec![fill; len], writable: true }
    }

    fn bind<'a>(&'a mut self, views: &mut ViewBindings<'a>) {
        if self.writable {
            views.bind_slice_mut(self.name, &mut self.data);
        } else {
            views.bind_slice(self.name, &self.data);
        }
    }
}

/// Whole tensors as a view launch holds them: each f32 tensor bound
/// writable in place, each i32 one read-only through its bits as `u32` —
/// the way a served launch binds its adjacency.
#[derive(Clone)]
struct Held {
    floats: Vec<(String, Vec<f32>)>,
    ints: Vec<(String, Vec<u32>)>,
}

impl Held {
    fn of(tensors: &HashMap<String, TensorData>) -> Held {
        let mut held = Held { floats: Vec::new(), ints: Vec::new() };
        for (name, data) in tensors {
            match data {
                TensorData::F32(v) => held.floats.push((name.clone(), v.clone())),
                TensorData::I32(v) => {
                    held.ints.push((name.clone(), v.iter().map(|&x| x as u32).collect()));
                }
            }
        }
        held
    }

    /// `kernel`'s binding set holding these tensors and `parts`.
    fn views<'a>(
        &'a mut self,
        kernel: &'a CompiledKernel,
        parts: &'a mut [Part],
    ) -> ViewBindings<'a> {
        let mut views = ViewBindings::new(kernel);
        for (name, data) in &mut self.floats {
            views.bind_slice_mut(name, data);
        }
        for (name, data) in &self.ints {
            views.bind_indices(name, data);
        }
        parts.iter_mut().for_each(|p| p.bind(&mut views));
        views
    }
}

/// A small random matrix with empty rows, as the CSR structure tensors
/// `bind_csr(.., "A", "J", ..)` would bind.
fn views_fixture(seed: u64) -> (Csr, HashMap<String, TensorData>, SmallRng) {
    let mut rng = gen::rng(seed);
    let a = gen::random_csr_with_row_lengths(9, 7, |r| r.gen_range(0..4), &mut rng);
    assert!(a.nnz() > 0 && (0..a.rows()).any(|r| a.row_nnz(r) == 0), "fixture {seed:#x}");
    let t = csr_tensors(&a);
    (a, t, rng)
}

/// Run `f` on the interpreter and on both executor builds with `parts`
/// bound whole (`run`), and on both builds with them bound as slices
/// (`run_views`). Where all succeed every tensor must agree bit for bit;
/// where any fails all must, with the same error text — and `run` must
/// leave the interpreter's written prefix. Returns that text per executor
/// build (`None` on success).
fn views_differential(
    f: &PrimFunc,
    structure: &HashMap<String, TensorData>,
    parts: &[Part],
) -> Vec<Option<String>> {
    let scalars = HashMap::new();
    let mut bound = structure.clone();
    for p in parts {
        bound.insert(p.name.to_string(), TensorData::from(p.data.clone()));
    }
    let mut interp = bound.clone();
    let ran_interp = eval_func(f, &scalars, &mut interp)
        .map_err(|e| e.to_string().replacen("interpreter error", "executor error", 1));
    let run_both = |(fuse, label): (bool, &str)| {
        let kernel = CompiledKernel::compile_with(f, fuse).expect("compiles");
        let mut whole = bound.clone();
        let ran_whole = kernel.run(&scalars, &mut whole).map_err(|e| e.to_string());
        assert_eq!(ran_interp, ran_whole, "[{label}] interpreter vs run outcome");
        for (name, data) in &interp {
            assert_bits_eq(name, data, &whole[name]).expect(label);
        }

        let mut held = Held::of(structure);
        let mut sliced = parts.to_vec();
        let mut views = held.views(&kernel, &mut sliced);
        let ran_views = kernel.run_views(&mut views).map_err(|e| e.to_string());
        drop(views);

        assert_eq!(ran_whole, ran_views, "[{label}] run vs run_views outcome");
        for p in sliced.iter().filter(|_| ran_views.is_ok()) {
            assert_bits_eq(p.name, &whole[p.name], &TensorData::from(p.data.clone())).expect(label);
        }
        for (name, data) in held.floats.iter().filter(|_| ran_views.is_ok()) {
            assert_bits_eq(name, &whole[name], &TensorData::from(data.clone())).expect(label);
        }
        ran_views.err()
    };
    EXECUTORS.map(run_both).to_vec()
}

/// The tensors the interpreter leaves after running `f` on `parts` bound
/// whole — what [`views_differential`] proved every executor build equal
/// to, bit for bit, whole and sliced — for a check against the `f64`
/// oracle.
fn interpreted(
    f: &PrimFunc,
    structure: &HashMap<String, TensorData>,
    parts: &[Part],
) -> HashMap<String, TensorData> {
    let mut tensors = structure.clone();
    for p in parts {
        tensors.insert(p.name.to_string(), TensorData::from(p.data.clone()));
    }
    eval_func(f, &HashMap::new(), &mut tensors).expect("the interpreter runs");
    tensors
}

/// Head `h`'s `w` columns of a row-major tensor `heads × w` columns wide.
fn head_cols(t: &[f32], heads: usize, w: usize, h: usize) -> Vec<f32> {
    t.chunks_exact(heads * w).flat_map(|row| &row[h * w..(h + 1) * w]).copied().collect()
}

/// The batched-SDDMM operands of `heads` heads at inner width `k`: `X`,
/// `Y` and the zeroed `Bout`.
fn sddmm_parts(a: &Csr, (heads, k): (usize, usize), rng: &mut SmallRng) -> [Part; 3] {
    [
        Part::new("X", a.rows() * heads * k, rng),
        Part::new("Y", heads * k * a.cols(), rng),
        Part::output("Bout", a.nnz() * heads, 0.0),
    ]
}

#[test]
fn views_csr_spmm_bit_matches_whole_tensors() {
    let (a, structure, mut rng) = views_fixture(0x51);
    let f = csr_spmm_ir(&a, 7).unwrap();
    assert_eq!(nests(&f), ["nest.axpy"], "the row loop is one nest");
    let d = 7;
    let parts = [Part::new("B", a.cols() * d, &mut rng), Part::output("C", a.rows() * d, 0.0)];
    assert_eq!(views_differential(&f, &structure, &parts), [None, None]);
    let t = interpreted(&f, &structure, &parts);
    oracle::spmm_f64(&a, t["B"].as_f32(), d).check(t["C"].as_f32()).unwrap();
    // A `B` short of its last columns' rows fails mid-kernel, inside a
    // nest: same text and same written prefix as the interpreter, whole
    // and sliced.
    let f = serial_spmm(&a, d);
    assert_eq!(nests(&f), ["nest.axpy"]);
    let mut short = parts.clone();
    short[0].data.truncate(a.cols() * 4);
    let errs = views_differential(&f, &structure, &short);
    let want = errs[0].clone().expect("a short binding must fail");
    assert!(want.contains("out of bounds") && want.contains("`B`"), "{want}");
    assert_eq!(errs, [Some(want.clone()), Some(want)]);
}

#[test]
fn views_batched_sddmm_bit_matches_whole_tensors() {
    let (a, structure, mut rng) = views_fixture(0x52);
    // Three heads: the head loop around the lane loop is no nest (the
    // output's position mixes the row's loaded start and the non-zero's
    // slot, which a block does not take). One head — the served shape —
    // makes the head loop a bind and the row's non-zero loop the nest,
    // gathering `Y`'s column like the CSR SpMM.
    for (heads, k, nest) in [(3, 2, None), (1, 4, Some("pin=[%2=0], gather=@5"))] {
        let f = batched_sddmm_ir(&a, heads, k).unwrap();
        let listing = CompiledKernel::compile(&f).unwrap().disassemble();
        let want: &[&str] = if nest.is_some() { &["nest.gsa "] } else { &[] };
        assert_eq!(nests(&f), want, "{listing}");
        assert!(nest.is_none_or(|nest| listing.contains(nest)), "heads = {heads}: {listing}");
        let parts = sddmm_parts(&a, (heads, k), &mut rng);
        assert_eq!(views_differential(&f, &structure, &parts), [None, None]);
        let t = interpreted(&f, &structure, &parts);
        let [x, y, out] = ["X", "Y", "Bout"].map(|n| t[n].as_f32());
        for h in 0..heads {
            let y = &y[h * k * a.cols()..(h + 1) * k * a.cols()];
            oracle::sddmm_f64(&a, &head_cols(x, heads, k, h), y, k)
                .check(&head_cols(out, heads, 1, h))
                .unwrap_or_else(|e| panic!("{heads} heads, head {h}: {e}"));
        }
    }
}

#[test]
fn views_fused_attention_bit_matches_whole_tensors() {
    let (a, mut structure, mut rng) = views_fixture(0x53);
    let (heads, k, vfeat) = (2, 3, 2);
    let f = fused_attention_ir(&a, heads, k, vfeat).unwrap();
    for (name, len) in [("S", a.nnz()), ("M", a.rows()), ("P", a.nnz()), ("Sum", a.rows())] {
        structure.insert(name.to_string(), TensorData::zeros(DType::F32, len * heads));
    }
    let parts = [
        Part::new("Q", a.rows() * heads * k, &mut rng),
        Part::new("KT", heads * k * a.cols(), &mut rng),
        Part::new("V", a.cols() * heads * vfeat, &mut rng),
        Part::output("Out", a.rows() * heads * vfeat, 0.0),
    ];
    assert_eq!(views_differential(&f, &structure, &parts), [None, None]);
    let t = interpreted(&f, &structure, &parts);
    let [q, kt, v, out] = ["Q", "KT", "V", "Out"].map(|n| t[n].as_f32());
    for h in 0..heads {
        let kt = &kt[h * k * a.cols()..(h + 1) * k * a.cols()];
        let (q, v) = (head_cols(q, heads, k, h), head_cols(v, heads, vfeat, h));
        oracle::attention_f64(&a, &q, kt, &v, k, vfeat)
            .check(&head_cols(out, heads, vfeat, h))
            .unwrap_or_else(|e| panic!("head {h}: {e}"));
    }
}

#[test]
fn views_fused_sage_bit_matches_whole_tensors() {
    let (a, mut structure, mut rng) = views_fixture(0x56);
    let (feat, hidden) = (5, 4);
    let f = fused_sage_ir(&a, feat, hidden).unwrap();
    structure.insert("Dinv".to_string(), TensorData::from(inverse_degrees(&a)));
    structure.insert("Agg".to_string(), TensorData::zeros(DType::F32, a.rows() * feat));
    let parts = [
        Part::new("X", a.cols() * feat, &mut rng),
        Part::new("W", feat * hidden, &mut rng),
        Part::output("H1", a.rows() * hidden, 0.0),
    ];
    assert_eq!(views_differential(&f, &structure, &parts), [None, None]);
    let t = interpreted(&f, &structure, &parts);
    let [x, w, h1] = ["X", "W", "H1"].map(|n| t[n].as_f32());
    oracle::sage_f64(&a, x, w, feat, hidden).check(h1).unwrap();
}

/// Failure paths on the batched-SDDMM function: a binding short of what
/// the kernel indexes fails with the same text whether it is a short whole
/// tensor or a short view — `views_differential` demands that — and a
/// store through a read-only binding is refused by name, on every executor
/// build, with the output untouched: the batched SDDMM's (no nest), the
/// one-head SDDMM's (its row blocks) and the served CSR SpMM's (its row
/// blocks).
#[test]
fn views_short_segment_and_read_only_store_fail_identically() {
    let (a, structure, mut rng) = views_fixture(0x54);
    let (heads, k) = (3, 2);
    let f = batched_sddmm_ir(&a, heads, k).unwrap();
    // `X` misses its last rows' last head; `Y` its last head.
    let mut short_x = sddmm_parts(&a, (heads, k), &mut rng);
    short_x[0].data.truncate((a.rows() - 1) * heads * k + 2);
    let mut short_y = sddmm_parts(&a, (heads, k), &mut rng);
    short_y[1].data.truncate((heads - 1) * k * a.cols());
    for (parts, buffer) in [(short_x, "`X`"), (short_y, "`Y`")] {
        let errs = views_differential(&f, &structure, &parts);
        let want = errs[0].clone().expect("a short binding must fail");
        assert!(want.contains("out of bounds") && want.contains(buffer), "{want}");
        assert_eq!(errs, [Some(want.clone()), Some(want)]);
    }

    // `run` has no read-only bindings to compare against: bind the views
    // by hand. The outputs hold 9.0, which no launch leaves if it writes.
    let mut batched = sddmm_parts(&a, (heads, k), &mut rng).to_vec();
    batched[2] = Part { writable: false, ..Part::output("Bout", a.nnz() * heads, 9.0) };
    let mut one_head = sddmm_parts(&a, (1, k), &mut rng).to_vec();
    one_head[2] = Part { writable: false, ..Part::output("Bout", a.nnz(), 9.0) };
    let d = 5;
    let (spmm, mut spmm_structure) = served_spmm(&a, d);
    spmm_structure.extend(structure.clone());
    let spmm_parts = vec![
        Part::new("B", a.cols() * d, &mut rng),
        Part { writable: false, ..Part::output("C", a.rows() * d, 9.0) },
    ];
    assert_eq!(nests(&spmm), ["nest.axpy"]);
    let cases = [
        ("batched sddmm", f, &structure, batched, "Bout"),
        ("one-head sddmm", batched_sddmm_ir(&a, 1, k).unwrap(), &structure, one_head, "Bout"),
        ("served spmm", spmm, &spmm_structure, spmm_parts, "C"),
    ];
    for (what, f, structure, mut parts, out) in cases {
        let before = parts.last().unwrap().data.clone();
        for (fuse, label) in EXECUTORS {
            let mut held = Held::of(structure);
            let kernel = CompiledKernel::compile_with(&f, fuse).unwrap();
            let mut views = held.views(&kernel, &mut parts);
            let ran = kernel.run_views(&mut views).map_err(|e| e.to_string());
            let want = format!("executor error: buffer `{out}` is bound to a read-only view");
            assert_eq!(ran, Err(want), "{what} [{label}]");
            drop(views);
            assert_eq!(parts.last().unwrap().data, before, "{what} [{label}]: output untouched");
        }
    }
}

// ---------------------------------------------------------------------------
// Family 6b: the default CSR schedule's `split(k, 32)` across widths
// ---------------------------------------------------------------------------

/// The default CSR SpMM schedule at feature width `d` — `split(k, 32)` —
/// without its thread bindings.
fn split_k_spmm(a: &Csr, d: usize) -> PrimFunc {
    let f = lower(&spmm_program(a.rows(), a.cols(), a.nnz(), d)).unwrap();
    let mut sch = Schedule::new(f);
    sch.split("k", 32).unwrap();
    sch.into_func()
}

/// [`csr_spmm_ir`] without its thread bindings — the split factor follows
/// narrow widths, so the lane loop fuses at any `d`.
fn serial_spmm(a: &Csr, d: usize) -> PrimFunc {
    let f = lower(&spmm_program(a.rows(), a.cols(), a.nnz(), d)).unwrap();
    let mut sch = Schedule::new(f);
    sch.split("k", 32.min(d as i64)).unwrap();
    sch.into_func()
}

/// The GE-SpMM GPU schedule at the default parameters: rows split four per
/// `blockIdx.x` (fewer when the matrix is shorter), with an `r < rows` tail
/// guard when four does not divide them, and the feature loop split by
/// `min(32, d)` for `threadIdx.x`. Nothing served runs it. A CPU launch runs
/// the `blockIdx` loop as a plain loop, each block's rows a row block — or,
/// behind the guard, a loop of nests, each a block of one entry.
fn split_rows_spmm(a: &Csr, d: usize) -> PrimFunc {
    let f = lower(&spmm_program(a.rows(), a.cols(), a.nnz(), d)).unwrap();
    let mut sch = Schedule::new(f);
    let (io, _) = sch.split("i", a.rows().clamp(1, 4) as i64).unwrap();
    sch.bind(&io, ThreadAxis::BlockIdxX).unwrap();
    let (_, ki) = sch.split("k", 32.min(d.max(1) as i64)).unwrap();
    sch.bind(&ki, ThreadAxis::ThreadIdxX).unwrap();
    sch.into_func()
}

/// Widths the split divides (one coalesced `k_o × 32` lane run per
/// non-zero) and 48, where it leaves a guarded tail: an `if` in the lane
/// body keeps the whole nest on generic dispatch. Every width must agree
/// with the interpreter whole and sliced, and fail identically on a `B` a
/// third short.
#[test]
fn views_split_k_spmm_bit_matches_at_every_width() {
    let (a, structure, mut rng) = views_fixture(0x55);
    for d in [32, 64, 96, 128, 48] {
        let f = split_k_spmm(&a, d);
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        let divides = d % 32 == 0;
        assert_eq!(fused.fused_ops(), usize::from(divides), "d = {d}");
        assert_eq!(fused.disassemble().contains("coalesced"), divides, "d = {d}");
        // A nest needs a fused lane loop under it: none at d = 48.
        assert_eq!(nests(&f).len(), usize::from(divides), "d = {d}");
        let parts = [Part::new("B", a.cols() * d, &mut rng), Part::output("C", a.rows() * d, 0.0)];
        assert_eq!(views_differential(&f, &structure, &parts), [None, None], "d = {d}");
        let t = interpreted(&f, &structure, &parts);
        oracle::spmm_f64(&a, t["B"].as_f32(), d)
            .check(t["C"].as_f32())
            .unwrap_or_else(|e| panic!("d = {d}: {e}"));

        let mut short = parts.clone();
        short[0].data.truncate(a.cols() * (d / 3 * 2));
        let errs = views_differential(&f, &structure, &short);
        let want = errs[0].clone().expect("a short binding must fail");
        assert!(want.contains("out of bounds") && want.contains("`B`"), "d = {d}: {want}");
        assert_eq!(errs, [Some(want.clone()), Some(want)], "d = {d}");
    }
}

// ---------------------------------------------------------------------------
// Family 6c: row nests
// ---------------------------------------------------------------------------

/// Mnemonics of the row-nest heads in `f`'s fused listing, in order. The
/// all-generic build must have none.
fn nests(f: &PrimFunc) -> Vec<String> {
    let generic = CompiledKernel::compile_with(f, false).unwrap().disassemble();
    assert!(!generic.contains("nest."), "fusion off means no nests:\n{generic}");
    let listing = CompiledKernel::compile_with(f, true).unwrap().disassemble();
    let heads = listing.lines().filter_map(|l| l.split_once("  ").map(|(_, ins)| ins));
    heads.filter(|ins| ins.starts_with("nest.")).map(|ins| ins[..9].to_string()).collect()
}

/// The structure tensors of `a` as `bind_csr(.., "A", "J", ..)` binds them.
fn csr_tensors(a: &Csr) -> HashMap<String, TensorData> {
    let as_i32 = |v: Vec<i32>| TensorData::from(v);
    let mut t = HashMap::new();
    t.insert("J_indptr".to_string(), as_i32(a.indptr().iter().map(|&x| x as i32).collect()));
    t.insert("J_indices".to_string(), as_i32(a.indices().iter().map(|&x| x as i32).collect()));
    t.insert("A".to_string(), TensorData::from(a.values().to_vec()));
    t
}

/// `csr_tensors` plus a random `B` and a `C` pre-filled with `fill`.
fn spmm_tensors(a: &Csr, d: usize, fill: f32, rng: &mut SmallRng) -> HashMap<String, TensorData> {
    let mut t = csr_tensors(a);
    let b = (0..a.cols() * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<_>>();
    t.insert("B".to_string(), TensorData::from(b));
    t.insert("C".to_string(), TensorData::from(vec![fill; a.rows() * d]));
    t
}

/// Row shapes the nest must not care about: empty rows, one-non-zero rows
/// (a one-trip nest never builds its walks), long rows, a matrix with no
/// rows and one with no non-zeros — on the serial schedule and on the
/// `blockIdx`-bound default one.
#[test]
fn row_nest_handles_every_row_shape() {
    let mut rng = gen::rng(0x61);
    let lengths: [&[usize]; 4] = [&[0, 1, 0, 5, 1, 1, 0, 3], &[1], &[0, 0, 0], &[]];
    for lens in lengths {
        let mut next = lens.iter().copied();
        let a = gen::random_csr_with_row_lengths(lens.len(), 6, |_| next.next().unwrap(), &mut rng);
        for d in [1usize, 5, 32] {
            for f in [serial_spmm(&a, d), csr_spmm_ir(&a, d).unwrap()] {
                assert_eq!(nests(&f), ["nest.axpy"], "rows {lens:?}, d = {d}");
                let tensors = spmm_tensors(&a, d, 0.0, &mut rng);
                differential(&f, &HashMap::new(), &tensors)
                    .unwrap_or_else(|m| panic!("rows {lens:?}, d = {d}: {m}"));
                let t = interpreted(&f, &tensors, &[]);
                oracle::spmm_f64(&a, t["B"].as_f32(), d)
                    .check(t["C"].as_f32())
                    .unwrap_or_else(|m| panic!("rows {lens:?}, d = {d}: {m}"));
            }
        }
    }
}

/// `when-reduce-zero` init inside a nest: trip 0 of every row overwrites
/// whatever `C` held (here a non-zero fill, NaN included) with the init
/// value, later trips accumulate onto it — and a row with no trips leaves
/// the fill alone. Exactly the interpreter's bits.
#[test]
fn row_nest_init_overwrites_on_trip_zero_then_accumulates() {
    let (a, _, mut rng) = views_fixture(0x62);
    let f = split_k_spmm(&a, 32);
    assert_eq!(nests(&f), ["nest.axpy"]);
    for fill in [7.5f32, f32::NAN] {
        let tensors = spmm_tensors(&a, 32, fill, &mut rng);
        differential(&f, &HashMap::new(), &tensors).unwrap();
        let mut after = tensors.clone();
        CompiledKernel::compile(&f).unwrap().run(&HashMap::new(), &mut after).unwrap();
        for r in 0..a.rows() {
            let row = &after["C"].as_f32()[r * 32..(r + 1) * 32];
            let untouched = row.iter().all(|c| c.to_bits() == fill.to_bits());
            assert_eq!(untouched, a.row_nnz(r) == 0, "row {r} of fill {fill}");
        }
    }
}

/// Every non-empty bucket of a `hyb(c, k)` decomposition is a nest —
/// a width-1 bucket's one-trip column loop included, whose nest loads the
/// row's column and row id in its entry program — and, with the `C = 0`
/// init nest in front of them, bit-matches the interpreter.
#[test]
fn row_nest_covers_ell_buckets_of_every_width() {
    let mut rng = gen::rng(0x63);
    let a = gen::random_csr_with_row_lengths(24, 20, |r| r.gen_range(0..9), &mut rng);
    let config = SpmmConfig { col_parts: Some(2), bucket_k: 3, params: CsrSpmmParams::default() };
    let d = 6;
    let (f, mut tensors) = prepare_spmm_structure(&a, d, &config).unwrap();
    let listing = CompiledKernel::compile(&f).unwrap().disassemble();
    let widths = |w: &str| tensors.keys().filter(|k| k.ends_with(w) && k.starts_with("A_")).count();
    let (narrow, wide) = (widths("_w1"), widths("_w2") + widths("_w4") + widths("_w8"));
    assert!(narrow > 0 && wide > 0, "fixture has width-1 and wider buckets");
    let axpy = nests(&f).iter().filter(|n| *n == "nest.axpy").count();
    assert_eq!(axpy, narrow + wide, "{listing}");
    assert_eq!(nests(&f).iter().filter(|n| *n == "nest.fill").count(), 1, "{listing}");
    bind_dense(&mut tensors, "B", &gen::random_dense(a.cols(), d, &mut rng));
    bind_zeros(&mut tensors, "C", a.rows() * d);
    differential(&f, &HashMap::new(), &tensors).unwrap();
    let t = interpreted(&f, &tensors, &[]);
    oracle::spmm_f64(&a, t["B"].as_f32(), d).check(t["C"].as_f32()).unwrap();
}

/// A column index corrupted in the *middle* of a row — past `B`'s rows, or
/// negative — stops the nest at that trip: the interpreter's error text,
/// and `C` element for element what the interpreter left (earlier rows
/// and the row's earlier trips written, nothing after).
#[test]
fn row_nest_corrupted_column_fails_identically_mid_row() {
    let (a, _, mut rng) = views_fixture(0x64);
    let row = (0..a.rows()).find(|&r| a.row_nnz(r) >= 3).expect("a row with a middle");
    let at = a.indptr()[row] + 1;
    for d in [4usize, 32] {
        let f = serial_spmm(&a, d);
        assert_eq!(nests(&f), ["nest.axpy"]);
        for bad in [a.cols() as i32, -3] {
            let mut tensors = spmm_tensors(&a, d, 0.25, &mut rng);
            let TensorData::I32(cols) = tensors.get_mut("J_indices").unwrap() else {
                unreachable!()
            };
            cols[at] = bad;
            let msg = differential_failure(&f, &HashMap::new(), &tensors)
                .unwrap_or_else(|m| panic!("d = {d}, column {bad}: {m}"));
            assert!(msg.contains("out of bounds") && msg.contains("`B`"), "{msg}");
        }
        // A corrupted row pointer makes the *gather* itself leave
        // `J_indices` mid-row.
        let mut tensors = spmm_tensors(&a, d, 0.25, &mut rng);
        let TensorData::I32(ptr) = tensors.get_mut("J_indptr").unwrap() else { unreachable!() };
        ptr[a.rows()] += 2;
        let msg = differential_failure(&f, &HashMap::new(), &tensors).unwrap();
        assert!(msg.contains("out of bounds"), "{msg}");
    }
}

/// `for i { for j in 0..3 { for k in 0..n { C[i, k] += W[i, j] · X[col, k] } } }`
/// with the column `col` drawn per negative rule. Returns the function and
/// its tensors.
fn nest_candidate(
    col: impl Fn(&Buffer, &Var, &Var) -> Expr,
    second_statement: bool,
) -> (PrimFunc, HashMap<String, TensorData>) {
    let (rows, width, n) = (3i64, 3i64, 5i64);
    let idx = Buffer::global_i32("Idx", vec![Expr::i32(rows * width)]);
    let w = Buffer::global_f32("W", vec![Expr::i32(rows * width)]);
    let x = Buffer::global_f32("X", vec![Expr::i32(8), Expr::i32(n)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(rows), Expr::i32(n)]);
    let s = Buffer::global_f32("S", vec![Expr::i32(rows * width)]);
    let (i, j, k) = (Var::i32("i"), Var::i32("j"), Var::i32("k"));
    let at = vec![Expr::var(&i), Expr::var(&k)];
    let pos = Expr::var(&i) * width + Expr::var(&j);
    let lanes = Stmt::for_serial(
        k.clone(),
        n,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: at.clone(),
            value: c.load(at)
                + w.load(vec![pos.clone()]) * x.load(vec![col(&idx, &i, &j), Expr::var(&k)]),
        },
    );
    let body = if second_statement {
        lanes.then(Stmt::BufferStore {
            buffer: s.clone(),
            indices: vec![pos],
            value: Expr::f32(1.0),
        })
    } else {
        lanes
    };
    let f = PrimFunc::new(
        "nest_candidate",
        vec![],
        vec![idx, w, x, c, s],
        Stmt::for_serial(i.clone(), rows, Stmt::for_serial(j.clone(), width, body)),
    );
    let mut g = ProgGen::new(0x65);
    let mut t = HashMap::new();
    t.insert("Idx".to_string(), TensorData::I32(vec![0, 1, 2, 1, 0, 2, 2, 1, 0]));
    for (name, len) in [("W", rows * width), ("X", 8 * n), ("C", rows * n), ("S", rows * width)] {
        let v = (0..len).map(|_| g.rng.gen_range(-1.0f32..1.0)).collect();
        t.insert(name.to_string(), TensorData::F32(v));
    }
    (f, t)
}

/// One negative case per classification rule: each keeps the per-non-zero
/// `Super` it has today and gets no nest — and still bit-matches. The
/// positive control (`Idx[i·3 + j]`, one gather) does get one.
#[test]
fn row_nest_classification_rules_each_have_a_negative_case() {
    type Col = fn(&Buffer, &Var, &Var) -> Expr;
    let gather: Col = |idx, i, j| idx.load(vec![Expr::var(i) * 3 + Expr::var(j)]);
    // Neither affine nor one gather: the gathered column times the trip.
    let product: Col = |idx, i, j| idx.load(vec![Expr::var(i) * 3 + Expr::var(j)]) * Expr::var(j);
    // Two different gathers in one nest.
    let two: Col =
        |idx, i, j| idx.load(vec![Expr::var(i) * 3 + Expr::var(j)]) + idx.load(vec![Expr::var(j)]);
    // The trip under a division.
    let divided: Col = |_, _, j| Expr::var(j) / Expr::i32(2);
    // A load at the gathered position: moving, and no affine walk.
    let regathered: Col =
        |idx, i, j| idx.load(vec![idx.load(vec![Expr::var(i) * 3 + Expr::var(j)])]);
    let cases: [(&str, Col, bool, usize); 6] = [
        ("one gather", gather, false, 1),
        ("gather × trip", product, false, 0),
        ("two gathers", two, false, 0),
        ("trip / 2", divided, false, 0),
        ("a load at the gathered position", regathered, false, 0),
        ("second statement in the outer body", gather, true, 0),
    ];
    for (what, col, second, want) in cases {
        let (f, tensors) = nest_candidate(col, second);
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        assert_eq!(fused.fused_kinds(), ["AxpyLanes"], "{what}: the lane loop still fuses");
        assert_eq!(nests(&f).len(), want, "{what}:\n{}", fused.disassemble());
        differential(&f, &HashMap::new(), &tensors).unwrap_or_else(|m| panic!("{what}: {m}"));
    }
}

/// The third rule's other half: a gather *from the buffer the lanes
/// write* (here through an integer cast, the only way IR typing lets a
/// float buffer index anything) is no gather — as before this PR, such a
/// loop does not even fuse.
#[test]
fn row_nest_never_gathers_through_the_written_buffer() {
    let through_c: fn(&Buffer, &Var, &Var) -> Expr = |_, i, j| {
        let c = Buffer::global_f32("C", vec![Expr::i32(3), Expr::i32(5)]);
        c.load(vec![Expr::var(i), Expr::var(j)])
            .cast(DType::I32)
            .max(Expr::i32(0))
            .min(Expr::i32(7))
    };
    let (f, tensors) = nest_candidate(through_c, false);
    assert_eq!(CompiledKernel::compile_with(&f, true).unwrap().fused_ops(), 0);
    assert!(nests(&f).is_empty());
    differential(&f, &HashMap::new(), &tensors).unwrap();
}

// ---------------------------------------------------------------------------
// Family 6d: row nests entered row by row
// ---------------------------------------------------------------------------

/// How many row nests of `f`'s fused listing have an entry program.
fn entry_programs(f: &PrimFunc) -> usize {
    let listing = CompiledKernel::compile(f).unwrap().disassemble();
    listing.lines().filter(|l| l.trim_start().starts_with("entry:")).count()
}

/// One launch of `f` on a fresh fused build: what its row nests counted.
/// No entry may hand a trip to the generic loop.
fn launch_counts(
    f: &PrimFunc,
    scalars: &HashMap<String, i64>,
    tensors: &HashMap<String, TensorData>,
) -> NestCounts {
    let kernel = CompiledKernel::compile(f).unwrap();
    assert_eq!(kernel.nest_counts(), NestCounts::default(), "nothing ran yet");
    kernel.run(scalars, &mut tensors.clone()).unwrap();
    let counts = kernel.nest_counts();
    assert_eq!(counts.handovers, 0, "{counts:?}\n{}", kernel.disassemble());
    counts
}

/// Every row shape — empty, one, two and many non-zeros, each of them
/// first and last, plus a matrix without non-zeros and one without rows —
/// under the three shapes of loop a nest sits in: the GPU schedule's
/// `for i_o: blockIdx.x { for i_i in 0..4 { [if r < rows] nest } }` (row
/// counts the blocks divide, and ones that leave the guard), a plain
/// `for i` (the served SpMM, the serial one and the one-head SDDMM), and
/// `hyb` buckets whose row comes through a row-id buffer. Whole tensors and
/// borrowed slices; fused vs all-generic vs interpreter,
/// bit for bit. And the fast path is the one taken: a block takes every
/// entry of each nest, the first included — `hyb`'s init nest, outside any
/// row loop, and the guarded split schedule's nest, as blocks of one
/// entry.
#[test]
fn reentered_nests_bit_match_under_every_enclosing_loop_shape() {
    let mut rng = gen::rng(0x66);
    let shapes: [&[usize]; 6] = [
        &[0, 1, 2, 9, 1, 0, 2, 9],
        &[9, 2, 0, 1, 0, 2, 1],
        &[1, 0, 9, 2, 0],
        &[2, 9, 1, 0, 0, 1, 2, 9, 0, 1, 1, 2],
        &[0, 0, 0],
        &[],
    ];
    let (d, k) = (6usize, 4usize);
    for lens in shapes {
        let mut next = lens.iter().copied();
        let a =
            gen::random_csr_with_row_lengths(lens.len(), 10, |_| next.next().unwrap(), &mut rng);
        let csr = csr_tensors(&a);
        let split = split_rows_spmm(&a, d);
        let listing = CompiledKernel::compile(&split).unwrap().disassemble();
        // Blocks are four rows (fewer when the matrix is shorter).
        let guarded = lens.len() % lens.len().clamp(1, 4) != 0;
        assert_eq!(listing.contains("br.false"), guarded, "rows {lens:?}\n{listing}");
        // The rows of one `blockIdx` block are a row block inside a `for`,
        // unless the guard stands before the nest: then a loop of nests.
        assert_eq!(listing.contains("  rows "), !guarded, "rows {lens:?}\n{listing}");
        let mut spmms =
            vec![("blockIdx + split", split, csr.clone()), ("for i", serial_spmm(&a, d), csr)];
        if a.nnz() > 0 {
            let config =
                SpmmConfig { col_parts: Some(2), bucket_k: 2, params: CsrSpmmParams::default() };
            let (f, structure) = prepare_spmm_structure(&a, d, &config).unwrap();
            spmms.push(("hyb buckets", f, structure));
        }
        for (what, f, structure) in spmms {
            let n_nests = nests(&f).len();
            assert!(n_nests >= 1, "rows {lens:?}, {what}");
            assert_eq!(entry_programs(&f), n_nests, "rows {lens:?}, {what}: a program each");
            let parts =
                [Part::new("B", a.cols() * d, &mut rng), Part::output("C", a.rows() * d, 0.0)];
            let ran = views_differential(&f, &structure, &parts);
            assert_eq!(ran, [None, None], "rows {lens:?}, {what}");
            let t = interpreted(&f, &structure, &parts);
            oracle::spmm_f64(&a, t["B"].as_f32(), d)
                .check(t["C"].as_f32())
                .unwrap_or_else(|m| panic!("rows {lens:?}, {what}: {m}"));
            let mut whole = structure.clone();
            whole.insert("B".to_string(), TensorData::from(vec![0.5f32; a.cols() * d]));
            whole.insert("C".to_string(), TensorData::from(vec![0.0f32; a.rows() * d]));
            let counts = launch_counts(&f, &HashMap::new(), &whole);
            assert_eq!(counts.blocked, counts.entries, "rows {lens:?}, {what}: {counts:?}");
            // Every nest is entered once there is a row.
            let entered = if lens.is_empty() { 0 } else { n_nests as u64 };
            assert!(counts.entries >= entered, "rows {lens:?}, {what}: {counts:?}");
            if what == "for i" {
                assert_eq!(counts.entries, lens.len() as u64, "{lens:?}: {counts:?}");
            }
        }

        let f = batched_sddmm_ir(&a, 1, k).unwrap();
        assert_eq!((nests(&f), entry_programs(&f)), (vec!["nest.gsa ".to_string()], 1));
        let parts = sddmm_parts(&a, (1, k), &mut rng);
        let ran = views_differential(&f, &csr_tensors(&a), &parts);
        assert_eq!(ran, [None, None], "rows {lens:?}, sddmm");
        let t = interpreted(&f, &csr_tensors(&a), &parts);
        let [x, y, out] = ["X", "Y", "Bout"].map(|n| t[n].as_f32());
        oracle::sddmm_f64(&a, x, y, k)
            .check(out)
            .unwrap_or_else(|m| panic!("rows {lens:?}, sddmm: {m}"));
    }
}

/// A local buffer allocated *inside* a loop around a nest is re-bound
/// every iteration, so what the nest kept of its old binding must go:
/// `for i { alloc T { T = 2·X[i]; for r in 0..2 { for j { C[i] += W[i, j] · T } } } }`
/// enters the `j` nest twice per `i` — the block over the `r` loop
/// re-establishes the walk state after each allocation and takes both
/// entries — and bit-matches.
#[test]
fn reentered_nest_drops_spots_of_a_reallocated_local_buffer() {
    let (rows, width, n) = (4i64, 3i64, 5i64);
    let (i, r, j, k, k2) =
        (Var::i32("i"), Var::i32("r"), Var::i32("j"), Var::i32("k"), Var::i32("k2"));
    let t = Buffer::new("T", DType::F32, vec![Expr::i32(n)], Scope::Shared);
    let w = Buffer::global_f32("W", vec![Expr::i32(rows * width)]);
    let x = Buffer::global_f32("X", vec![Expr::i32(rows), Expr::i32(n)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(rows), Expr::i32(n)]);
    let stage = Stmt::for_serial(
        k2.clone(),
        n,
        Stmt::BufferStore {
            buffer: t.clone(),
            indices: vec![Expr::var(&k2)],
            value: x.load(vec![Expr::var(&i), Expr::var(&k2)]) * 2.0f32,
        },
    );
    let at = vec![Expr::var(&i), Expr::var(&k)];
    let lanes = Stmt::for_serial(
        k.clone(),
        n,
        Stmt::BufferStore {
            buffer: c.clone(),
            indices: at.clone(),
            value: c.load(at)
                + w.load(vec![Expr::var(&i) * width + Expr::var(&j)]) * t.load(vec![Expr::var(&k)]),
        },
    );
    let twice = Stmt::for_serial(r, 2, Stmt::for_serial(j, width, lanes));
    let body = Stmt::Allocate { buffer: t, body: Box::new(stage.then(twice)) };
    let f = PrimFunc::new("staged", vec![], vec![w, x, c], Stmt::for_serial(i, rows, body));
    assert_eq!((nests(&f), entry_programs(&f)), (vec!["nest.axpy".to_string()], 1));

    let mut g = ProgGen::new(0x67);
    let mut tensors = HashMap::new();
    for (name, len) in [("W", rows * width), ("X", rows * n), ("C", rows * n)] {
        let v = (0..len).map(|_| g.rng.gen_range(-1.0f32..1.0)).collect();
        tensors.insert(name.to_string(), TensorData::F32(v));
    }
    differential(&f, &HashMap::new(), &tensors).unwrap();
    let counts = launch_counts(&f, &HashMap::new(), &tensors);
    let entries = 2 * rows as u64;
    assert_eq!((counts.entries, counts.blocked), (entries, entries), "every entry blocked");
}

/// What [`entry_candidate`] builds in place of the form that fits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EntryRule {
    Fits,
    /// The output row is `(i · 2) / 2`: row-invariant, but no sum of
    /// constant multiples.
    RowUnderDivision,
    /// The coefficient is `W[i · 3] · 2`: row-invariant, but neither a
    /// constant nor one plain load.
    ComputedCoefficient,
    /// The lane count is the parameter `n`.
    ParamLaneCount,
    /// `X`'s row extent — its outermost — is the parameter `m`: a nest,
    /// its bound read once per launch (how a served kernel's `nnz`-sized
    /// buffers are declared).
    ParamExtent,
    /// `C`'s column extent — an inner one, which strides multiply — is
    /// the parameter `n`.
    InnerParamExtent,
    /// The output row adds eight more enclosing loop variables: nine slot
    /// registers, one more than a program holds.
    NineRegisters,
    /// The coefficient is `W[i·3 + j] / W[i·3]`: a walked load over a
    /// factor loaded once per entry.
    Ratio,
    /// The coefficient is `W[i·3 + j] / (W[i·3] · 2)`: the factor holds
    /// for the entry but is neither a load nor a constant.
    ComputedFactor,
    /// The coefficient is `W[i·3 + j] / W[i·3 + j]`: both sides move.
    MovingFactor,
    /// The output row is `i + j·u`, `u` the variable of a unit-trip loop
    /// between `j` and the lanes: pinned to 0, but the trip times a
    /// variable, not a constant.
    TripTimesPin,
}

/// `for i in 0..4 { for j in 0..3 { for k in 0..5 { C[row, k] += coeff · X[Idx[i·3 + j], k] } } }`
/// with `row = i` and `coeff = W[i·3 + j]` unless `rule` says otherwise.
fn entry_candidate(
    rule: EntryRule,
) -> (PrimFunc, HashMap<String, i64>, HashMap<String, TensorData>) {
    let (rows, width, n, x_rows) = (4i64, 3i64, 5i64, 8i64);
    let (nv, mv) = (Var::i32("n"), Var::i32("m"));
    let lane_count = if rule == EntryRule::ParamLaneCount { Expr::var(&nv) } else { Expr::i32(n) };
    let x_extent = if rule == EntryRule::ParamExtent { Expr::var(&mv) } else { Expr::i32(x_rows) };
    let c_cols = if rule == EntryRule::InnerParamExtent { Expr::var(&nv) } else { Expr::i32(n) };
    let idx = Buffer::global_i32("Idx", vec![Expr::i32(rows * width)]);
    let w = Buffer::global_f32("W", vec![Expr::i32(rows * width)]);
    let x = Buffer::global_f32("X", vec![x_extent, Expr::i32(n)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(rows), c_cols]);
    let (i, j, k, pin) = (Var::i32("i"), Var::i32("j"), Var::i32("k"), Var::i32("p"));
    let outer: Vec<Var> = (0..8).map(|u| Var::i32(format!("u{u}"))).collect();
    let pos = Expr::var(&i) * width + Expr::var(&j);
    let row = match rule {
        EntryRule::RowUnderDivision => Expr::var(&i) * 2 / Expr::i32(2),
        EntryRule::NineRegisters => outer.iter().fold(Expr::var(&i), |r, u| r + Expr::var(u)),
        EntryRule::TripTimesPin => Expr::var(&i) + Expr::var(&j) * Expr::var(&pin),
        _ => Expr::var(&i),
    };
    let first = || w.load(vec![Expr::var(&i) * width]);
    let coeff = match rule {
        EntryRule::ComputedCoefficient => first() * 2.0f32,
        EntryRule::Ratio => w.load(vec![pos.clone()]) / first(),
        EntryRule::ComputedFactor => w.load(vec![pos.clone()]) / (first() * 2.0f32),
        EntryRule::MovingFactor => w.load(vec![pos.clone()]) / w.load(vec![pos.clone()]),
        _ => w.load(vec![pos.clone()]),
    };
    let at = vec![row, Expr::var(&k)];
    let lanes = Stmt::For {
        var: k.clone(),
        extent: lane_count,
        kind: ForKind::Serial,
        body: Box::new(Stmt::BufferStore {
            buffer: c.clone(),
            indices: at.clone(),
            value: c.load(at) + coeff * x.load(vec![idx.load(vec![pos]), Expr::var(&k)]),
        }),
    };
    let lanes =
        if rule == EntryRule::TripTimesPin { Stmt::for_serial(pin, 1, lanes) } else { lanes };
    let mut body = Stmt::for_serial(i, rows, Stmt::for_serial(j, width, lanes));
    if rule == EntryRule::NineRegisters {
        body = outer.into_iter().fold(body, |b, u| Stmt::for_serial(u, 1, b));
    }
    let params = match rule {
        EntryRule::ParamLaneCount | EntryRule::InnerParamExtent => vec![nv],
        EntryRule::ParamExtent => vec![mv],
        _ => vec![],
    };
    let f = PrimFunc::new("entry_candidate", params, vec![idx, w, x, c], body);
    let scalars = match rule {
        EntryRule::ParamLaneCount | EntryRule::InnerParamExtent => {
            HashMap::from([("n".to_string(), n)])
        }
        EntryRule::ParamExtent => HashMap::from([("m".to_string(), x_rows)]),
        _ => HashMap::new(),
    };
    let mut g = ProgGen::new(0x68);
    let mut t = HashMap::new();
    let cols = (0..rows * width).map(|p| (p * 5 % x_rows) as i32).collect();
    t.insert("Idx".to_string(), TensorData::I32(cols));
    for (name, len) in [("W", rows * width), ("X", x_rows * n), ("C", rows * n)] {
        let v = (0..len).map(|_| g.rng.gen_range(-1.0f32..1.0)).collect();
        t.insert(name.to_string(), TensorData::F32(v));
    }
    (f, scalars, t)
}

/// One negative case per entry-program rule: each is no nest — the loop
/// stays a `for` around its per-non-zero `Super` — and still bit-matches.
/// The positive controls are a nest with a program, and a block takes
/// every row: the form that fits, and the same with a parameter for its
/// outermost extent.
#[test]
fn entry_program_rules_each_have_a_negative_case() {
    use EntryRule::{
        ComputedCoefficient, Fits, InnerParamExtent, NineRegisters, ParamExtent, ParamLaneCount,
        RowUnderDivision, TripTimesPin,
    };
    for rule in [
        Fits,
        RowUnderDivision,
        ComputedCoefficient,
        ParamLaneCount,
        ParamExtent,
        InnerParamExtent,
        NineRegisters,
        TripTimesPin,
    ] {
        let (f, scalars, tensors) = entry_candidate(rule);
        let fits = matches!(rule, Fits | ParamExtent);
        let want: &[&str] = if fits { &["nest.axpy"] } else { &[] };
        assert_eq!(nests(&f), want, "{rule:?}: a nest only with a program");
        assert_eq!(entry_programs(&f), usize::from(fits), "{rule:?}");
        assert_eq!(CompiledKernel::compile(&f).unwrap().fused_kinds(), ["AxpyLanes"], "{rule:?}");
        differential(&f, &scalars, &tensors).unwrap_or_else(|m| panic!("{rule:?}: {m}"));
        let counts = launch_counts(&f, &scalars, &tensors);
        let entries = if fits { 4 } else { 0 };
        assert_eq!((counts.entries, counts.blocked), (entries, entries), "{rule:?}");
    }
}

/// A coefficient that is one walked load `*` or `/` a factor: a nest when
/// the factor holds for the entry and is one load (or a constant) — loaded
/// once per entry by the block, every trip dividing in the source's order
/// — and no nest when the factor is computed or moves with the trip too.
/// Each bit-matches, and each is within the `f64` oracle's bound (the
/// operands are finite; `ratio_factor_corners_and_short_bindings_match_on_every_binding`
/// holds the ±0, NaN and ±inf factors to bits alone).
#[test]
fn ratio_coefficients_walk_when_their_factor_holds_for_the_entry() {
    use EntryRule::{ComputedFactor, MovingFactor, Ratio};
    for rule in [Ratio, ComputedFactor, MovingFactor] {
        let (f, scalars, tensors) = entry_candidate(rule);
        let mut t = tensors.clone();
        eval_func(&f, &scalars, &mut t).unwrap();
        ratio_f64(rule, &tensors)
            .check(t["C"].as_f32())
            .unwrap_or_else(|m| panic!("{rule:?}: {m}"));
        let nest = rule == Ratio;
        let want: &[&str] = if nest { &["nest.axpy"] } else { &[] };
        assert_eq!(nests(&f), want, "{rule:?}");
        assert_eq!(entry_programs(&f), usize::from(nest), "{rule:?}");
        if rule == Ratio {
            let listing = CompiledKernel::compile(&f).unwrap().disassemble();
            assert!(
                listing.contains("coeff=+1/row") && listing.contains("/@1[3*%0<12]"),
                "{listing}"
            );
        }
        differential(&f, &scalars, &tensors).unwrap_or_else(|m| panic!("{rule:?}: {m}"));
        let counts = launch_counts(&f, &scalars, &tensors);
        let entries = if nest { 4 } else { 0 };
        assert_eq!((counts.entries, counts.blocked), (entries, entries), "{rule:?}");
    }
}

/// The `f64` answer of an [`entry_candidate`] with a ratio coefficient:
/// `C[i, k] + Σ_j coeff(i, j) · X[Idx[i·3 + j], k]`, the terms `C`'s start
/// and each product.
fn ratio_f64(rule: EntryRule, t: &HashMap<String, TensorData>) -> oracle::Oracle {
    let (width, n) = (3usize, 5usize);
    let [w, x, c] = ["W", "X", "C"].map(|name| t[name].as_f32());
    let TensorData::I32(idx) = &t["Idx"] else { unreachable!() };
    let mut out = oracle::Oracle {
        val: c.iter().map(|&v| f64::from(v)).collect(),
        mag: c.iter().map(|&v| f64::from(v).abs()).collect(),
    };
    for i in 0..c.len() / n {
        for j in 0..width {
            let (p, first) = (i * width + j, f64::from(w[i * width]));
            let coeff = match rule {
                EntryRule::Ratio => f64::from(w[p]) / first,
                EntryRule::ComputedFactor => f64::from(w[p]) / (first * 2.0),
                EntryRule::MovingFactor => f64::from(w[p]) / f64::from(w[p]),
                other => unreachable!("{other:?} has no ratio"),
            };
            for k in 0..n {
                let term = coeff * f64::from(x[idx[p] as usize * n + k]);
                out.val[i * n + k] += term;
                out.mag[i * n + k] += term.abs();
            }
        }
    }
    out
}

/// Attention's one-head aggregation on the stepped fixture: structure, `P`
/// and `Sum` whole, `V` and `Out` slices.
fn ratio_aggregate(
    a: &Csr,
    d: usize,
    rng: &mut SmallRng,
) -> (PrimFunc, HashMap<String, TensorData>, [Part; 2]) {
    let f = lower(&attention_aggregate_program(a.rows(), a.cols(), a.nnz(), 1, d)).unwrap();
    let mut structure = csr_tensors(a);
    let positive = |len: usize, rng: &mut SmallRng| {
        TensorData::F32((0..len).map(|_| rng.gen_range(0.125f32..1.0)).collect())
    };
    structure.insert("P".to_string(), positive(a.nnz(), rng));
    structure.insert("Sum".to_string(), positive(a.rows(), rng));
    let parts = [Part::new("V", a.cols() * d, rng), Part::output("Out", a.rows() * d, 0.0)];
    (f, structure, parts)
}

/// The ratio's failure modes and IEEE corners on every binding, whole and
/// sliced, against the interpreter: a factor of ±0, NaN or ±inf in the
/// launch's first row and in later ones — bits; `Sum` one row short of
/// what an entry loads — the entry falls back and fails with the
/// interpreter's text and prefix; `P` ending mid-row — the same, trips in.
#[test]
fn ratio_factor_corners_and_short_bindings_match_on_every_binding() {
    let (a, mut rng) = (stepped_fixture(), gen::rng(0x6c));
    for d in [1usize, 4, 17] {
        let (f, structure, parts) = ratio_aggregate(&a, d, &mut rng);
        assert_eq!((nests(&f), entry_programs(&f)), (vec!["nest.axpy".to_string()], 1));
        for special in [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut t = structure.clone();
            let TensorData::F32(sum) = t.get_mut("Sum").unwrap() else { unreachable!() };
            // The first row (the launch's first entry) and two later ones.
            for row in [0, 7, a.rows() - 2] {
                sum[row] = special;
            }
            assert_eq!(views_differential(&f, &t, &parts), [None, None], "d = {d}, {special}");
        }
        let short = |name: &str, len: usize| {
            let mut t = structure.clone();
            let TensorData::F32(v) = t.get_mut(name).unwrap() else { unreachable!() };
            v.truncate(len);
            let errs = views_differential(&f, &t, &parts);
            let want = errs[0].clone().unwrap_or_else(|| panic!("`{name}` short must fail"));
            assert!(want.contains(&format!("out of bounds (len {len}) in buffer `{name}`")));
            assert_eq!(errs, [Some(want.clone()), Some(want)], "d = {d}");
        };
        // Row 16 has nine non-zeros; `P` ends four trips in.
        let row = (0..a.rows()).find(|&r| a.row_nnz(r) == 9).unwrap();
        short("Sum", row);
        short("P", a.indptr()[row] + 4);
        let (counts, _) = view_launch(&f, &structure, &parts);
        assert_stepped(counts, a.nnz() as u64, &format!("d = {d}"));
    }
}

// ---------------------------------------------------------------------------
// Family 6e: the stepped trip loop
// ---------------------------------------------------------------------------

/// 24 × 24 with rows of 0, 1 and `n / 2` non-zeros among short ones — the
/// first row long, so the launch's first entry, which establishes the walk
/// state before it steps, is the longest.
fn stepped_fixture() -> Csr {
    let lens = [12usize, 0, 1, 0, 1, 3, 2, 5, 1, 0, 7, 1, 2, 0, 4, 1, 9, 1, 0, 2, 3, 1, 6, 1];
    let mut next = lens.iter().copied();
    gen::random_csr_with_row_lengths(lens.len(), 24, |_| next.next().unwrap(), &mut gen::rng(0x69))
}

/// One view launch of `f` on a fresh fused build with `parts` bound as
/// slices: what its row nests counted, and the parts as it left them.
fn view_launch(
    f: &PrimFunc,
    structure: &HashMap<String, TensorData>,
    parts: &[Part],
) -> (NestCounts, Vec<Part>) {
    let kernel = CompiledKernel::compile(f).unwrap();
    let (mut held, mut parts) = (Held::of(structure), parts.to_vec());
    kernel.run_views(&mut held.views(&kernel, &mut parts)).unwrap();
    (kernel.nest_counts(), parts)
}

/// The stepped loop took every trip of every entry: a block took each
/// entry, none handed over, and `trips` trips in all, every one stepped.
fn assert_stepped(counts: NestCounts, trips: u64, what: &str) {
    assert_eq!(
        (counts.blocked, counts.handovers, counts.trips, counts.stepped),
        (counts.entries, 0, trips, trips),
        "{what}: {counts:?}"
    );
}

/// The served CSR SpMM at lane counts
/// around the vector widths, for one rider and for batches of three and
/// eight run back to back on one kernel, each rider's `B` and `C` bound as
/// its own slices: interpreter ≡ generic ≡ fused, whole and sliced, bit for
/// bit; every rider's output the same bits as its solo launch on a fresh
/// kernel and within the `f64` oracle's bound; and every trip of every
/// launch stepped.
#[test]
fn stepped_spmm_bit_matches_at_every_width_and_batch() {
    let (a, mut rng) = (stepped_fixture(), gen::rng(0x6a));
    for d in [1usize, 3, 4, 16, 17, 48] {
        let (f, structure) = served_spmm(&a, d);
        assert_eq!((nests(&f), entry_programs(&f)), (vec!["nest.axpy".to_string()], 1), "d = {d}");
        for batch in [1usize, 3, 8] {
            let what = format!("d = {d}, batch of {batch}");
            let riders: Vec<[Part; 2]> = (0..batch)
                .map(|_| {
                    [Part::new("B", a.cols() * d, &mut rng), Part::output("C", a.rows() * d, 0.0)]
                })
                .collect();
            let kernel = CompiledKernel::compile(&f).unwrap();
            let mut held = Held::of(&structure);
            for (i, rider) in riders.iter().enumerate() {
                assert_eq!(views_differential(&f, &structure, rider), [None, None], "{what}");
                let mut served = rider.clone();
                kernel.run_views(&mut held.views(&kernel, &mut served)).unwrap();
                let (solo, alone) = view_launch(&f, &structure, rider);
                assert_stepped(solo, a.nnz() as u64, &what);
                let [served_c, alone_c] =
                    [&served[1], &alone[1]].map(|p| TensorData::from(p.data.clone()));
                assert_bits_eq("C", &served_c, &alone_c)
                    .unwrap_or_else(|e| panic!("{what}, rider {i}: {e}"));
                oracle::spmm_f64(&a, &served[0].data, d)
                    .check(&served[1].data)
                    .unwrap_or_else(|e| panic!("{what}, rider {i}: {e}"));
            }
            assert_stepped(kernel.nest_counts(), (batch * a.nnz()) as u64, &what);
        }
    }
}

/// The served SDDMM at one head — the row's non-zero loop is the nest, its
/// operands flat slices, every trip
/// stepped — and the three-head program, whose head loop is no nest (its
/// output position mixes the row's loaded start and the non-zero's slot,
/// which a block does not take): every `(non-zero, head)` a
/// superinstruction. Both against the interpreter bit for bit and the
/// `f64` oracle per head.
#[test]
fn stepped_sddmm_bit_matches_at_every_width_and_head_count() {
    let (a, mut rng) = (stepped_fixture(), gen::rng(0x6b));
    for k in [1usize, 3, 4, 16, 17, 48] {
        for heads in [1usize, 3] {
            let f = batched_sddmm_ir(&a, heads, k).unwrap();
            let what = format!("k = {k}, {heads} heads");
            let parts = sddmm_parts(&a, (heads, k), &mut rng);
            assert_eq!(views_differential(&f, &csr_tensors(&a), &parts), [None, None], "{what}");
            let (counts, after) = view_launch(&f, &csr_tensors(&a), &parts);
            if heads == 1 {
                assert_stepped(counts, a.nnz() as u64, &what);
            } else {
                assert!(nests(&f).is_empty(), "{what}");
                assert_eq!(counts, NestCounts::default(), "{what}");
            }
            let [x, y, out] = [0, 1, 2].map(|p| &after[p].data);
            for h in 0..heads {
                let y = &y[h * k * a.cols()..(h + 1) * k * a.cols()];
                oracle::sddmm_f64(&a, &head_cols(x, heads, k, h), y, k)
                    .check(&head_cols(out, heads, 1, h))
                    .unwrap_or_else(|e| panic!("{what}, head {h}: {e}"));
            }
        }
    }
}

/// The served fused attention and fused SAGE at lane counts around the
/// vector widths, on the stepped fixture, every operand one flat slice:
/// interpreter ≡ generic ≡ fused, whole and view-bound, bit for bit;
/// every head's output within the `f64` oracle's bound. One-head attention
/// walks five nests — the score, the three softmax passes and the
/// ratio-weighted aggregation — SAGE two — the gather and the
/// `Agg · Dinv`-weighted transform — every trip stepped; the three-head
/// program's softmax passes are nests entered once per row, every trip
/// stepped, its score and aggregation no nests (as the three-head SDDMM's
/// head loop).
#[test]
fn stepped_attention_and_sage_bit_match_at_every_width() {
    let (a, mut rng) = (stepped_fixture(), gen::rng(0x6d));
    let (rows, nnz) = (a.rows(), a.nnz());
    for d in [1usize, 3, 4, 16, 17, 48] {
        for heads in [1usize, 3] {
            let f = fused_attention_ir(&a, heads, d, d).unwrap();
            let what = format!("attention, d = {d}, {heads} heads");
            let mut structure = csr_tensors(&a);
            for (name, len) in [("S", nnz), ("M", rows), ("P", nnz), ("Sum", rows)] {
                structure.insert(name.to_string(), TensorData::zeros(DType::F32, len * heads));
            }
            let parts = [
                Part::new("Q", rows * heads * d, &mut rng),
                Part::new("KT", heads * d * a.cols(), &mut rng),
                Part::new("V", a.cols() * heads * d, &mut rng),
                Part::output("Out", rows * heads * d, 0.0),
            ];
            assert_eq!(views_differential(&f, &structure, &parts), [None, None], "{what}");
            let (counts, after) = view_launch(&f, &structure, &parts);
            let passes = if heads == 1 { 5 } else { 3 };
            assert_eq!(nests(&f).len(), passes, "{what}");
            assert_eq!(counts.entries, (passes * rows) as u64, "{what}");
            assert_stepped(counts, (passes * nnz) as u64, &what);
            for h in 0..heads {
                let [q, v, out] = [0, 2, 3].map(|p| head_cols(&after[p].data, heads, d, h));
                let kt = &after[1].data[h * d * a.cols()..(h + 1) * d * a.cols()];
                oracle::attention_f64(&a, &q, kt, &v, d, d)
                    .check(&out)
                    .unwrap_or_else(|e| panic!("{what}, head {h}: {e}"));
            }
        }
        for (feat, hidden) in [(d, 3), (3, d)] {
            let f = fused_sage_ir(&a, feat, hidden).unwrap();
            let what = format!("sage, feat = {feat}, hidden = {hidden}");
            let mut structure = csr_tensors(&a);
            structure.insert("Dinv".to_string(), TensorData::from(inverse_degrees(&a)));
            structure.insert("Agg".to_string(), TensorData::zeros(DType::F32, rows * feat));
            let parts = [
                Part::new("X", a.cols() * feat, &mut rng),
                Part::new("W", feat * hidden, &mut rng),
                Part::output("H1", rows * hidden, 0.0),
            ];
            assert_eq!(views_differential(&f, &structure, &parts), [None, None], "{what}");
            let (counts, after) = view_launch(&f, &structure, &parts);
            // The transform is a nest at every input width: at `feat = 1`
            // a one-trip nest, each row one trip.
            let trips = (nnz + rows * feat) as u64;
            assert_eq!(counts.entries, (2 * rows) as u64, "{what}");
            assert_stepped(counts, trips, &what);
            let [x, w, h1] = [0, 1, 2].map(|p| &after[p].data);
            oracle::sage_f64(&a, x, w, feat, hidden)
                .check(h1)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }
}

/// `for i in 0..5 { for j in 0..4 { for k in 0..n { block { init;
/// dst += term } } } }` with `term` the `shape`-th association order over
/// `a = X[Idx[i·4 + j], k]` (gathered), `b = Y[i, k]` (row-invariant) and
/// `c = W[i·4 + j]` (walked); `dst` is `C[i, k]`, or `S[i·4 + j]` for a
/// scalar destination (which then moves with the trip). The `j` loop is a
/// nest entered once per `i`: a block takes every entry and steps it.
fn stepped_term(
    shape: usize,
    init: Init,
    scalar: bool,
    par: bool,
    n: i64,
) -> (PrimFunc, HashMap<String, TensorData>) {
    let (rows, width, x_rows) = (5i64, 4i64, 7i64);
    let mut g =
        ProgGen::new(0xB000 + (shape * 16 + init as usize * 2 + usize::from(scalar)) as u64);
    let idx = Buffer::global_i32("Idx", vec![Expr::i32(rows * width)]);
    let w = Buffer::global_f32("W", vec![Expr::i32(rows * width)]);
    let x = Buffer::global_f32("X", vec![Expr::i32(x_rows), Expr::i32(n)]);
    let y = Buffer::global_f32("Y", vec![Expr::i32(rows), Expr::i32(n)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(rows), Expr::i32(n)]);
    let s = Buffer::global_f32("S", vec![Expr::i32(rows * width)]);
    let (i, j, k) = (Var::i32("i"), Var::i32("j"), Var::i32("k"));
    let (vi, vp, vk, vr) = (Var::i32("vi"), Var::i32("vp"), Var::i32("vk"), Var::i32("vr"));
    let pos = Expr::var(&i) * width + Expr::var(&j);
    let av = x.load(vec![idx.load(vec![Expr::var(&vp)]), Expr::var(&vk)]);
    let bv = y.load(vec![Expr::var(&vi), Expr::var(&vk)]);
    let cv = w.load(vec![Expr::var(&vp)]);
    let term = match shape {
        0 => av,
        1 => cv * av,
        2 => av * cv,
        3 => av * bv,
        4 => (cv * av) * bv,
        5 => (av * cv) * bv,
        _ => cv * (av * bv),
    };
    let (dst, at) = if scalar {
        (&s, vec![Expr::var(&vp)])
    } else {
        (&c, vec![Expr::var(&vi), Expr::var(&vk)])
    };
    let mut iter_vars = vec![
        IterVar::spatial(vi.clone(), Expr::var(&i)),
        IterVar::spatial(vp.clone(), pos),
        IterVar::spatial(vk.clone(), Expr::var(&k)),
    ];
    match init {
        Init::None | Init::Always => {}
        Init::WhenReduceZero => iter_vars.push(IterVar::reduce(vr.clone(), Expr::var(&j))),
        Init::AtZeroLane => iter_vars.push(IterVar::reduce(vr.clone(), Expr::var(&k))),
    }
    let block = Stmt::Block(sparsetir_ir::stmt::Block {
        name: "term".into(),
        iter_vars,
        reads: vec![],
        writes: vec![],
        init: (init != Init::None).then(|| {
            Box::new(Stmt::BufferStore {
                buffer: dst.clone(),
                indices: at.clone(),
                value: Expr::f32(f64::from(g.rng.gen_range(-1.0f32..1.0))),
            })
        }),
        body: Box::new(Stmt::BufferStore {
            buffer: dst.clone(),
            indices: at.clone(),
            value: dst.load(at) + term,
        }),
    });
    let nest = Stmt::for_serial(j, width, Stmt::for_serial(k, n, block));
    let kind = if par { ForKind::ThreadBinding(ThreadAxis::BlockIdxX) } else { ForKind::Serial };
    let body = Stmt::For { var: i, extent: Expr::i32(rows), kind, body: Box::new(nest) };
    let f = PrimFunc::new("stepped_term", vec![], vec![idx, w, x, y, c, s], body);

    let specials = specials();
    let mut values = |len: i64| {
        let v = (0..len).map(|_| {
            if g.rng.gen_bool(0.15) {
                specials[g.rng.gen_range(0..specials.len())]
            } else {
                g.rng.gen_range(-2.0f32..2.0)
            }
        });
        TensorData::F32(v.collect())
    };
    let mut tensors = HashMap::new();
    let sizes = [("W", rows * width), ("X", x_rows * n), ("Y", rows * n), ("C", rows * n)];
    for (name, len) in sizes.into_iter().chain([("S", rows * width)]) {
        tensors.insert(name.to_string(), values(len));
    }
    let cols = (0..rows * width).map(|p| (p * 3 % x_rows) as i32).collect();
    tensors.insert("Idx".to_string(), TensorData::I32(cols));
    (f, tensors)
}

/// Every loop of the menu: seven term shapes × four init kinds × {axpy,
/// scalar} destinations under a nest entered once per row, under a serial
/// and under a `blockIdx` loop, special values drawn into every operand.
/// Bit for bit the interpreter's, and the stepped loop is the one that
/// ran.
#[test]
fn stepped_loop_bit_matches_for_every_term_shape_and_init_kind() {
    for shape in 0..7 {
        for init in [Init::None, Init::Always, Init::WhenReduceZero, Init::AtZeroLane] {
            for scalar in [false, true] {
                if init == Init::AtZeroLane && !scalar {
                    continue; // a lane-strided reduce binding needs a scalar destination
                }
                for (par, n) in [(false, 19), (true, 19), (false, 1)] {
                    let (f, tensors) = stepped_term(shape, init, scalar, par, n);
                    let case =
                        format!("shape {shape}, {init:?}, scalar={scalar}, par={par}, n={n}");
                    assert_eq!(nests(&f).len(), 1, "{case}\n{}", print_func(&f));
                    assert_eq!(entry_programs(&f), 1, "{case}");
                    differential(&f, &HashMap::new(), &tensors)
                        .unwrap_or_else(|m| panic!("{case}: {m}\n{}", print_func(&f)));
                    let counts = launch_counts(&f, &HashMap::new(), &tensors);
                    assert_eq!(
                        (counts.entries, counts.blocked, counts.trips, counts.stepped),
                        (5, 5, 20, 20),
                        "{case}: {counts:?}"
                    );
                }
            }
        }
    }
}

/// What the menu of trip loops leaves to the generic loop, one case each —
/// still a nest, still bit-identical, and the counts say which path ran:
/// every row of the covered case in a block, every trip stepped; every
/// row of the others handed to the generic loop at trip 0:
///
/// * an operand moving with the trip *and* with the gather
///   (`X[Idx[p] + j, k]`);
/// * two reduce iters moving with the trip;
/// * a moving reduce iter that is not zero at trip 0 under a
///   `when-reduce-zero` init (`vr = j + 1`: the init never fires).
#[test]
fn stepped_menu_leaves_the_rest_to_the_generic_loop() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Off {
        Covered,
        TripAndGather,
        TwoMovingReduces,
        ReduceOffZero,
    }
    for off in [Off::Covered, Off::TripAndGather, Off::TwoMovingReduces, Off::ReduceOffZero] {
        let (rows, width, n, x_rows) = (5i64, 3i64, 6i64, 9i64);
        let idx = Buffer::global_i32("Idx", vec![Expr::i32(rows * width)]);
        let w = Buffer::global_f32("W", vec![Expr::i32(rows * width)]);
        let x = Buffer::global_f32("X", vec![Expr::i32(x_rows), Expr::i32(n)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(rows), Expr::i32(n)]);
        let (i, j, k) = (Var::i32("i"), Var::i32("j"), Var::i32("k"));
        let (vi, vp, vk) = (Var::i32("vi"), Var::i32("vp"), Var::i32("vk"));
        let (vr, vr2) = (Var::i32("vr"), Var::i32("vr2"));
        let pos = Expr::var(&i) * width + Expr::var(&j);
        let mut col = idx.load(vec![Expr::var(&vp)]);
        if off == Off::TripAndGather {
            col = col + Expr::var(&vr);
        }
        let at = vec![Expr::var(&vi), Expr::var(&vk)];
        let start = if off == Off::ReduceOffZero { Expr::var(&j) + 1 } else { Expr::var(&j) };
        let mut iter_vars = vec![
            IterVar::spatial(vi.clone(), Expr::var(&i)),
            IterVar::spatial(vp.clone(), pos),
            IterVar::spatial(vk.clone(), Expr::var(&k)),
            IterVar::reduce(vr.clone(), start),
        ];
        if off == Off::TwoMovingReduces {
            iter_vars.push(IterVar::reduce(vr2, Expr::var(&j) * 2));
        }
        let block = Stmt::Block(sparsetir_ir::stmt::Block {
            name: "acc".into(),
            iter_vars,
            reads: vec![],
            writes: vec![],
            init: Some(Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: at.clone(),
                value: Expr::f32(0.5),
            })),
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: at.clone(),
                value: c.load(at)
                    + w.load(vec![Expr::var(&vp)]) * x.load(vec![col, Expr::var(&vk)]),
            }),
        });
        let nest = Stmt::for_serial(j, width, Stmt::for_serial(k, n, block));
        let f =
            PrimFunc::new("off_menu", vec![], vec![idx, w, x, c], Stmt::for_serial(i, rows, nest));
        assert_eq!((nests(&f), entry_programs(&f)), (vec!["nest.axpy".to_string()], 1), "{off:?}");

        let mut g = ProgGen::new(0x6c);
        let mut tensors = HashMap::new();
        let cols = (0..rows * width).map(|p| (p * 2 % (x_rows - 3)) as i32).collect();
        tensors.insert("Idx".to_string(), TensorData::I32(cols));
        for (name, len) in [("W", rows * width), ("X", x_rows * n), ("C", rows * n)] {
            let v = (0..len).map(|_| g.rng.gen_range(-1.0f32..1.0)).collect();
            tensors.insert(name.to_string(), TensorData::F32(v));
        }
        differential(&f, &HashMap::new(), &tensors).unwrap_or_else(|m| panic!("{off:?}: {m}"));
        let kernel = CompiledKernel::compile(&f).unwrap();
        kernel.run(&HashMap::new(), &mut tensors.clone()).unwrap();
        let counts = kernel.nest_counts();
        let (rows, trips) = (rows as u64, (rows * width) as u64);
        let want = if off == Off::Covered { (rows, 0, trips, trips) } else { (0, rows, 0, 0) };
        assert_eq!(
            (counts.entries, (counts.blocked, counts.handovers, counts.trips, counts.stepped)),
            (rows, want),
            "{off:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Family 6f: attention's softmax lane ops
// ---------------------------------------------------------------------------

/// A softmax pass over `heads` heads on `a`, one of:
///
/// * attention's own `rowmax` (`M[i, h] = max(M[i, h], S[i, j, h])`,
///   `-f32::MAX` at each row's start) or `exp` (`P[i, j, h] = exp(S[i, j, h]
///   − M[i, h])`), as `attention_pass_program` builds them;
/// * `gathered`: the same lane op with its moving operand read through the
///   row's column index, `X[j, h]` over the columns — so a column out of
///   `X`'s reach fails mid-row — and for `rowmax` without the init, so the
///   maximum starts from whatever `M` held (NaN included).
fn softmax_pass(a: &Csr, op: &str, heads: usize, gathered: bool) -> PrimFunc {
    let (m, n, nnz) = (a.rows(), a.cols(), a.nnz());
    if !gathered {
        return lower(&attention_pass_program(op, (m, n, nnz), (heads, 1, 1)).unwrap()).unwrap();
    }
    let mut b = ProgramBuilder::new("softmax_gathered");
    b.dense_fixed("I", m);
    b.sparse_variable("J", "I", n, nnz, "J_indptr", "J_indices");
    b.dense_fixed("H", heads);
    b.dense_fixed("J_d", n);
    let x = b.sparse_buffer("X", &["J_d", "H"], DType::F32);
    let mx = b.sparse_buffer("M", &["I", "H"], DType::F32);
    let p = b.sparse_buffer("P", &["I", "J", "H"], DType::F32);
    let axes = b.axes().clone();
    let kinds = if op == "rowmax" { "SRS" } else { "SSS" };
    b.sp_iter(op, &["I", "J", "H"], kinds, |vars| {
        let (i, j, h) = (Expr::var(&vars[0]), Expr::var(&vars[1]), Expr::var(&vars[2]));
        let xv = x.load(&axes, vec![j.clone(), h.clone()]);
        let mv = mx.load(&axes, vec![i.clone(), h.clone()]);
        let body = if op == "rowmax" {
            SpStore { buffer: mx.name.clone(), indices: vec![i, h], value: mv.max(xv) }
        } else {
            let value = Expr::Call { intrin: Intrinsic::Exp, args: vec![xv - mv] };
            SpStore { buffer: p.name.clone(), indices: vec![i, j, h], value }
        };
        (Vec::new(), vec![body])
    });
    lower(&b.finish()).unwrap()
}

/// The tensors of a [`softmax_pass`]: the structure of `a`, and `S`, `X`,
/// `M`, `P` drawn with a share `special_rate` of special values — NaN,
/// ±inf, ±`f32::MAX`, ±0 and a subnormal — so `f32::max`'s NaN rule and
/// `exp` at the ends of the range are part of the comparisons.
fn softmax_tensors(
    a: &Csr,
    heads: usize,
    special_rate: f64,
    rng: &mut SmallRng,
) -> HashMap<String, TensorData> {
    let specials = specials();
    let special = [specials[0], f32::MAX, -f32::MAX, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
    let mut values = |len: usize| {
        let v = (0..len * heads).map(|_| {
            if rng.gen_bool(special_rate) {
                special[rng.gen_range(0..special.len())]
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        });
        TensorData::F32(v.collect())
    };
    let mut t = csr_tensors(a);
    for (name, len) in [("S", a.nnz()), ("X", a.cols()), ("M", a.rows()), ("P", a.nnz())] {
        t.insert(name.to_string(), values(len));
    }
    // What the rest of the attention program declares (at feat = vfeat = 1).
    for (name, len) in [("Q", a.rows()), ("KT", a.cols()), ("V", a.cols())] {
        t.insert(name.to_string(), TensorData::zeros(DType::F32, len * heads));
    }
    for name in ["Sum", "Out"] {
        t.insert(name.to_string(), TensorData::zeros(DType::F32, a.rows() * heads));
    }
    t
}

/// The `f64` answer of a [`softmax_pass`] over `t`: the running maximum
/// `M[i, h]` over the row's `S[pos, h]` (or gathered `X[j, h]`), from
/// `-f32::MAX` at each non-empty row's start (or, gathered, from `M`'s
/// own value; an empty row keeps it), or the map `P[pos, h] = exp(S[pos, h] − M[i, h])` (`X[j, h]`
/// gathered). Its terms are the operands, so the bound scales with them.
fn softmax_f64(
    a: &Csr,
    (op, heads, gathered): (&str, usize, bool),
    t: &HashMap<String, TensorData>,
) -> oracle::Oracle {
    let [s, x, m] = ["S", "X", "M"].map(|name| t[name].as_f32());
    let src = |pos: usize, h: usize| {
        if gathered {
            f64::from(x[a.indices()[pos] as usize * heads + h])
        } else {
            f64::from(s[pos * heads + h])
        }
    };
    let (len, start) = if op == "rowmax" { (a.rows(), m) } else { (a.nnz(), t["P"].as_f32()) };
    let mut out = oracle::Oracle {
        val: start[..len * heads].iter().map(|&v| f64::from(v)).collect(),
        mag: vec![0.0; len * heads],
    };
    for i in 0..a.rows() {
        for h in 0..heads {
            let row = a.indptr()[i]..a.indptr()[i + 1];
            if op == "rowmax" && !row.is_empty() {
                let at = i * heads + h;
                let from = if gathered { out.val[at] } else { f64::from(f32::MIN) };
                out.val[at] = row.clone().map(|pos| src(pos, h)).fold(from, f64::max);
                out.mag[at] = out.val[at].abs();
            } else if op == "exp" {
                for pos in row {
                    let at = pos * heads + h;
                    out.val[at] = (src(pos, h) - f64::from(m[i * heads + h])).exp();
                    out.mag[at] = out.val[at];
                }
            }
        }
    }
    out
}

/// The softmax's two new lane ops, a running maximum (`nest.max`) and an
/// `exp(a − b)` map (`nest.exp`), at one head and three, attention's own
/// passes and the gathered variants, on a graph with empty rows: bit for
/// bit the interpreter's (and the all-generic build's) with specials in
/// every operand and, with finite operands, within the `f64` oracle's
/// bound; one nest entered once per row, every trip stepped. Then a column
/// out of `X`'s reach in the middle of a row: the block hands that trip to
/// the generic loop — once, having stepped exactly the trips before it —
/// which fails with the interpreter's text, leaving its prefix; and, for
/// attention's own passes, whose trips bind the column without reading
/// through it, a last row running past `J_indices`.
#[test]
fn softmax_lane_ops_bit_match_and_hand_over_mid_row() {
    let (a, mut rng) = (stepped_fixture(), gen::rng(0x6e));
    let row = (0..a.rows()).find(|&r| a.row_nnz(r) >= 3 && r > 0).expect("a row with a middle");
    let at = a.indptr()[row] + 1;
    for (op, kind) in [("rowmax", "nest.max "), ("exp", "nest.exp ")] {
        for heads in [1usize, 3] {
            for gathered in [false, true] {
                let f = softmax_pass(&a, op, heads, gathered);
                let what = format!("{op}, {heads} heads, gathered = {gathered}");
                assert_eq!((nests(&f), entry_programs(&f)), (vec![kind.to_string()], 1), "{what}");
                // Four draws with specials, bits only; one finite, bits and
                // the `f64` oracle.
                for special_rate in [0.25, 0.25, 0.25, 0.25, 0.0] {
                    let tensors = softmax_tensors(&a, heads, special_rate, &mut rng);
                    differential(&f, &HashMap::new(), &tensors)
                        .unwrap_or_else(|m| panic!("{what}: {m}"));
                    let counts = launch_counts(&f, &HashMap::new(), &tensors);
                    assert_stepped(counts, a.nnz() as u64, &what);
                    if special_rate == 0.0 {
                        let mut t = tensors.clone();
                        eval_func(&f, &HashMap::new(), &mut t).unwrap();
                        let out = if op == "rowmax" { "M" } else { "P" };
                        softmax_f64(&a, (op, heads, gathered), &tensors)
                            .check(t[out].as_f32())
                            .unwrap_or_else(|m| panic!("{what}, finite: {m}"));
                    }
                }
                if !gathered {
                    // Attention's own passes read no operand through the
                    // column: a trip loads it only to bind it. A row pointer
                    // past the end makes that load leave `J_indices` mid-row.
                    let mut tensors = softmax_tensors(&a, heads, 0.25, &mut rng);
                    let TensorData::I32(ptr) = tensors.get_mut("J_indptr").unwrap() else {
                        unreachable!()
                    };
                    ptr[a.rows()] += 2;
                    let msg = differential_failure(&f, &HashMap::new(), &tensors)
                        .unwrap_or_else(|m| panic!("{what}, long last row: {m}"));
                    assert!(msg.contains("out of bounds"), "{msg}");
                    continue;
                }
                for bad in [a.cols() as i32, -3] {
                    let mut tensors = softmax_tensors(&a, heads, 0.25, &mut rng);
                    let TensorData::I32(cols) = tensors.get_mut("J_indices").unwrap() else {
                        unreachable!()
                    };
                    cols[at] = bad;
                    let msg = differential_failure(&f, &HashMap::new(), &tensors)
                        .unwrap_or_else(|m| panic!("{what}, column {bad}: {m}"));
                    assert!(msg.contains("out of bounds") && msg.contains("`X`"), "{msg}");
                    let kernel = CompiledKernel::compile(&f).unwrap();
                    kernel.run(&HashMap::new(), &mut tensors).unwrap_err();
                    let counts = kernel.nest_counts();
                    let trips = a.indptr()[row + 1] as u64;
                    assert_eq!(
                        (counts.entries, counts.blocked, counts.handovers),
                        (row as u64 + 1, row as u64 + 1, 1),
                        "{what}, column {bad}: {counts:?}"
                    );
                    assert_eq!((counts.trips, counts.stepped), (trips, at as u64), "{what}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Family 7: every term shape × every init kind through the lane bodies
// ---------------------------------------------------------------------------

/// The four init classifications of the fusion pass, as block shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Init {
    /// No init statement.
    None,
    /// All-spatial block with an init: fires at every lane.
    Always,
    /// Reduce iter bound to an outer serial loop: fires on its first trip.
    WhenReduceZero,
    /// Reduce iter bound to the lane itself: fires at lane 0 (scalar
    /// destinations only).
    AtZeroLane,
}

/// Operand values that stress the widen–combine–narrow contract: NaN,
/// both infinities, signed zero, a subnormal, and magnitudes whose
/// products overflow `f32` on the narrowing store. The NaN is the one the
/// hardware generates (`∞ − ∞`, computed at run time), so every NaN in
/// flight has one bit pattern: which operand's payload survives when two
/// *different* NaNs meet is up to instruction selection (`fadd`/`fmul`
/// commute) and is not part of the bit-identity contract.
fn specials() -> [f32; 8] {
    let nan = std::hint::black_box(f32::INFINITY) - f32::INFINITY;
    [nan, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.0e-40, 3.0e38, -3.0e38, 0.0]
}

/// `f` with its outermost loop serial: what a `blockIdx` binding of it
/// lowers to on the CPU.
fn serial_of(f: &PrimFunc) -> PrimFunc {
    let mut f = f.clone();
    if let Stmt::For { kind, .. } = &mut f.body {
        *kind = ForKind::Serial;
    }
    f
}

/// `for blk in 0..2 { [for j in 0..2] for k in 0..n { block { init;
/// dst += term } } }` with `term` the `shape`-th of the seven
/// association orders over `a = X[blk, k]`, `b = Y[blk, k]`,
/// `c = W[blk]`; `dst` is `C[blk, k]` (axpy) or `S[blk]` (`scalar`: dot /
/// gather). `par` binds `blk` to `blockIdx.x`.
fn lane_term(
    shape: usize,
    init: Init,
    scalar: bool,
    par: bool,
    n: i64,
    seed: u64,
) -> (PrimFunc, HashMap<String, TensorData>) {
    let mut g = ProgGen::new(seed);
    let blocks = 2i64;
    let w = Buffer::global_f32("W", vec![Expr::i32(blocks)]);
    let x = Buffer::global_f32("X", vec![Expr::i32(blocks), Expr::i32(n)]);
    let y = Buffer::global_f32("Y", vec![Expr::i32(blocks), Expr::i32(n)]);
    let c = Buffer::global_f32("C", vec![Expr::i32(blocks), Expr::i32(n)]);
    let s = Buffer::global_f32("S", vec![Expr::i32(blocks)]);
    let (blk, j, k) = (Var::i32("blk"), Var::i32("j"), Var::i32("k"));
    let (vb, vk, vr) = (Var::i32("vb"), Var::i32("vk"), Var::i32("vr"));
    let lane = vec![Expr::var(&vb), Expr::var(&vk)];
    let (av, bv, cv) = (x.load(lane.clone()), y.load(lane.clone()), w.load(vec![Expr::var(&vb)]));
    let term = match shape {
        0 => av,
        1 => cv * av,
        2 => av * cv,
        3 => av * bv,
        4 => (cv * av) * bv,
        5 => (av * cv) * bv,
        _ => cv * (av * bv),
    };
    let (dst, at) = if scalar { (&s, vec![Expr::var(&vb)]) } else { (&c, lane) };
    let mut iter_vars = vec![
        IterVar::spatial(vb.clone(), Expr::var(&blk)),
        IterVar::spatial(vk.clone(), Expr::var(&k)),
    ];
    match init {
        Init::None | Init::Always => {}
        Init::WhenReduceZero => iter_vars.push(IterVar::reduce(vr.clone(), Expr::var(&j))),
        Init::AtZeroLane => iter_vars.push(IterVar::reduce(vr.clone(), Expr::var(&k))),
    }
    let block = Stmt::Block(sparsetir_ir::stmt::Block {
        name: "term".into(),
        iter_vars,
        reads: vec![],
        writes: vec![],
        init: (init != Init::None).then(|| {
            Box::new(Stmt::BufferStore {
                buffer: dst.clone(),
                indices: at.clone(),
                value: Expr::f32(f64::from(g.rng.gen_range(-1.0f32..1.0))),
            })
        }),
        body: Box::new(Stmt::BufferStore {
            buffer: dst.clone(),
            indices: at.clone(),
            value: dst.load(at) + term,
        }),
    });
    let mut nest = Stmt::for_serial(k.clone(), n, block);
    if init == Init::WhenReduceZero {
        nest = Stmt::for_serial(j.clone(), 2, nest);
    }
    let kind = if par { ForKind::ThreadBinding(ThreadAxis::BlockIdxX) } else { ForKind::Serial };
    let body = Stmt::For { var: blk, extent: Expr::i32(blocks), kind, body: Box::new(nest) };
    let f = PrimFunc::new("lane_term", vec![], vec![w, x, y, c, s], body);

    let specials = specials();
    let mut values = |len: i64| {
        let v = (0..len).map(|_| {
            if g.rng.gen_bool(0.2) {
                specials[g.rng.gen_range(0..specials.len())]
            } else {
                g.rng.gen_range(-2.0f32..2.0)
            }
        });
        TensorData::F32(v.collect())
    };
    let mut tensors = HashMap::new();
    for (name, len) in [("W", blocks), ("X", blocks * n), ("Y", blocks * n), ("C", blocks * n)] {
        tensors.insert(name.to_string(), values(len));
    }
    tensors.insert("S".to_string(), values(blocks));
    (f, tensors)
}

/// All seven term shapes × all four init kinds × {axpy, scalar}
/// destinations, under a serial loop and under a `blockIdx` loop, whose
/// listing is the serial one's. Special values are drawn into every
/// operand.
#[test]
fn every_term_shape_and_init_kind_bit_matches() {
    let micro = |shape: usize, scalar: bool| match (scalar, shape) {
        (false, _) => "AxpyLanes",
        (true, 3) => "DotLanes",
        (true, _) => "GatherScaleAccumulate",
    };
    for shape in 0..7 {
        for init in [Init::None, Init::Always, Init::WhenReduceZero, Init::AtZeroLane] {
            for scalar in [false, true] {
                if init == Init::AtZeroLane && !scalar {
                    continue; // a lane-strided reduce binding needs a scalar destination
                }
                for (par, n) in [(false, 33), (true, 33), (false, 1)] {
                    let seed = 0xA000 + (shape * 64 + init as usize * 8 + usize::from(par)) as u64;
                    let (f, tensors) = lane_term(shape, init, scalar, par, n, seed);
                    let case =
                        format!("shape {shape}, {init:?}, scalar={scalar}, par={par}, n={n}");
                    let fused = CompiledKernel::compile_with(&f, true).expect("compiles");
                    assert_eq!(fused.fused_kinds(), vec![micro(shape, scalar)], "{case}");
                    let serial = CompiledKernel::compile_with(&serial_of(&f), true).unwrap();
                    assert_eq!(fused.disassemble(), serial.disassemble(), "{case}");
                    differential(&f, &HashMap::new(), &tensors)
                        .unwrap_or_else(|m| panic!("{case}: {m}\n{}", print_func(&f)));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn serial_nests_bit_match(seed in 0u64..1_000_000) {
        let (f, tensors) = serial_nest(seed);
        if let Err(msg) = differential(&f, &HashMap::new(), &tensors) {
            prop_assert!(false, "seed {seed}: {msg}\n{}", print_func(&f));
        }
    }

    #[test]
    fn block_striped_programs_bit_match(seed in 0u64..1_000_000) {
        let (f, tensors) = block_striped(seed);
        if let Err(msg) = differential(&f, &HashMap::new(), &tensors) {
            prop_assert!(false, "seed {seed}: {msg}\n{}", print_func(&f));
        }
    }

    #[test]
    fn thread_bound_reductions_bit_match(seed in 0u64..1_000_000) {
        let (f, tensors) = block_reduction(seed);
        if let Err(msg) = differential(&f, &HashMap::new(), &tensors) {
            prop_assert!(false, "seed {seed}: {msg}\n{}", print_func(&f));
        }
    }

    #[test]
    fn scheduled_nests_bit_match(seed in 0u64..1_000_000) {
        let (f, tensors) = scheduled_nest(seed);
        if let Err(msg) = differential(&f, &HashMap::new(), &tensors) {
            prop_assert!(false, "seed {seed}: {msg}\n{}", print_func(&f));
        }
    }

    #[test]
    fn lane_kernels_bit_match(seed in 0u64..1_000_000) {
        let (f, tensors) = lane_kernel(seed);
        if let Err(msg) = differential(&f, &HashMap::new(), &tensors) {
            prop_assert!(false, "seed {seed}: {msg}\n{}", print_func(&f));
        }
    }
}

// ---------------------------------------------------------------------------
// Family 6f: row blocks
// ---------------------------------------------------------------------------

/// The served CSR SpMM at width `d` — the unscheduled row walk, one loop
/// over the rows — with the structure tensors it binds.
fn served_spmm(a: &Csr, d: usize) -> (PrimFunc, HashMap<String, TensorData>) {
    prepare_spmm_structure(a, d, &SpmmConfig::default_csr()).unwrap()
}

/// Interpreter ≡ generic ≡ fused on `f` over `tensors`, whichever way it
/// ends: on success every tensor bit for bit; on failure the error text
/// and the written prefix. Returns the error text, if any.
fn agree(f: &PrimFunc, tensors: &HashMap<String, TensorData>) -> Option<String> {
    let fails = eval_func(f, &HashMap::new(), &mut tensors.clone()).is_err();
    if fails {
        Some(differential_failure(f, &HashMap::new(), tensors).unwrap())
    } else {
        differential(f, &HashMap::new(), tensors).unwrap();
        None
    }
}

/// What one run of a fresh fused build of `f` over `tensors` counted.
fn block_counts(f: &PrimFunc, tensors: &HashMap<String, TensorData>) -> NestCounts {
    let kernel = CompiledKernel::compile(f).unwrap();
    kernel.run(&HashMap::new(), &mut tensors.clone()).expect("runs");
    kernel.nest_counts()
}

/// Row shapes at a block's edges — empty and one-non-zero rows first,
/// last and in between, every row empty, every row one non-zero, `M = 0`
/// and `M = 1` — on the served row loop, the `blockIdx`-bound one and the
/// GPU schedule's `blockIdx` split of the rows, mostly behind a tail guard
/// (a loop of nests, each a block of one entry), SpMM and one-head SDDMM:
/// bit for bit against the
/// interpreter, within the `f64` oracle's bound, and every row of a launch
/// taken by a block (one row is no loop: the nest's own block of one entry
/// takes it).
#[test]
fn row_blocks_bit_match_at_every_row_shape() {
    let mut rng = gen::rng(0x71);
    let lengths: [&[usize]; 7] = [
        &[0, 3, 2, 0, 1, 4, 4, 1, 0, 1],
        &[1, 0, 0, 1, 0, 5, 0],
        &[0, 0, 0, 0, 0],
        &[1, 1, 1, 1, 1, 1],
        &[3],
        &[0],
        &[],
    ];
    for lens in lengths {
        let mut next = lens.iter().copied();
        let a = gen::random_csr_with_row_lengths(lens.len(), 6, |_| next.next().unwrap(), &mut rng);
        let rows = a.rows() as u64;
        for d in [1usize, 4, 17] {
            let what = format!("rows {lens:?}, d = {d}");
            let (served, structure) = served_spmm(&a, d);
            let blocked = rows;
            for f in [served, csr_spmm_ir(&a, d).unwrap(), split_rows_spmm(&a, d)] {
                let mut tensors = spmm_tensors(&a, d, 0.0, &mut rng);
                tensors.extend(structure.clone());
                assert_eq!(agree(&f, &tensors), None, "{what}");
                let t = interpreted(&f, &tensors, &[]);
                oracle::spmm_f64(&a, t["B"].as_f32(), d)
                    .check(t["C"].as_f32())
                    .unwrap_or_else(|m| panic!("{what}: {m}"));
                let counts = block_counts(&f, &tensors);
                assert_eq!(
                    (counts.entries, counts.blocked, counts.handovers),
                    (rows, blocked, 0),
                    "{what}: {counts:?}"
                );
            }
            let f = batched_sddmm_ir(&a, 1, d).unwrap();
            let mut tensors = csr_tensors(&a);
            bind_dense(&mut tensors, "X", &gen::random_dense(a.rows(), d, &mut rng));
            bind_dense(&mut tensors, "Y", &gen::random_dense(d, a.cols(), &mut rng));
            bind_zeros(&mut tensors, "Bout", a.nnz());
            assert_eq!(agree(&f, &tensors), None, "sddmm, {what}");
            let t = interpreted(&f, &tensors, &[]);
            oracle::sddmm_f64(&a, t["X"].as_f32(), t["Y"].as_f32(), d)
                .check(t["Bout"].as_f32())
                .unwrap_or_else(|m| panic!("sddmm, {what}: {m}"));
            let counts = block_counts(&f, &tensors);
            assert_eq!((counts.entries, counts.blocked), (rows, blocked), "sddmm, {what}");
        }
    }
}

/// A row pointer that decreases in the middle of a block (an empty row,
/// then a row starting further back), runs past `len(indices)`, or goes
/// negative, and a gathered column that leaves `B` in the middle of a
/// block and in its last row: one outcome on every executor — the
/// interpreter's error text and written prefix, or its bits — on the
/// served row loop, the `blockIdx`-bound one and the GPU schedule's split
/// rows behind a tail guard. The block hands every such row to the generic
/// loop behind the nest, at the trip it cannot take.
#[test]
fn row_blocks_hand_bad_structure_to_the_nest() {
    let mut rng = gen::rng(0x72);
    let lens = [2usize, 3, 0, 4, 1, 2, 3, 1, 2];
    let mut next = lens.iter().copied();
    let a = gen::random_csr_with_row_lengths(lens.len(), 8, |_| next.next().unwrap(), &mut rng);
    let nnz = a.nnz() as i32;
    let (cols, start) = (a.cols() as i32, |r: usize| a.indptr()[r]);
    type Bad = (&'static str, &'static str, usize, i32);
    let cases: [(Bad, Option<&str>); 8] = [
        (("decreasing mid-block", "J_indptr", 2, 1), None),
        (("decreasing at the last row", "J_indptr", 8, 14), None),
        (("past the indices mid-block", "J_indptr", 2, nnz + 3), Some("out of bounds")),
        (("past the indices at the end", "J_indptr", 9, nnz + 1), Some("out of bounds")),
        (("negative mid-block", "J_indptr", 1, -2), Some("out of bounds")),
        (("column past B mid-block", "J_indices", start(2) + 1, cols), Some("`B`")),
        (("negative column at a row's first trip", "J_indices", start(4), -1), Some("`B`")),
        (("column past B in the last row", "J_indices", start(8), cols + 5), Some("`B`")),
    ];
    for d in [1usize, 4, 16] {
        let (served, structure) = served_spmm(&a, d);
        for f in [served, csr_spmm_ir(&a, d).unwrap(), split_rows_spmm(&a, d)] {
            for ((what, buf, at, value), says) in cases {
                let mut tensors = spmm_tensors(&a, d, 9.0, &mut rng);
                tensors.extend(structure.clone());
                let TensorData::I32(slab) = tensors.get_mut(buf).unwrap() else { unreachable!() };
                slab[at] = value;
                let what = format!("{what}, d = {d}");
                match (agree(&f, &tensors), says) {
                    (Some(msg), Some(says)) => assert!(msg.contains(says), "{what}: {msg}"),
                    (None, None) => {}
                    other => panic!("{what}: {other:?}"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Family 6g: the CSR row loop
// ---------------------------------------------------------------------------

/// The layout of every row block in `f`'s fused listing, in order.
fn row_layouts(f: &PrimFunc) -> Vec<String> {
    let listing = CompiledKernel::compile(f).unwrap().disassemble();
    let rows = listing.lines().filter(|l| l.contains("  rows "));
    rows.map(|l| l.rsplit_once("layout=").map_or("none", |(_, layout)| layout).to_string())
        .collect()
}

/// `lens` as a CSR matrix over `cols` columns.
fn csr_of(lens: &[usize], cols: usize, rng: &mut SmallRng) -> Csr {
    let mut next = lens.iter().copied();
    gen::random_csr_with_row_lengths(lens.len(), cols, |_| next.next().unwrap(), rng)
}

/// The CSR row loops at width `d` over `a`, each with its tensors — the
/// output pre-filled with `fill` (9.0 makes a written prefix show; an
/// empty row writes nothing): the served SpMM, the `blockIdx`-bound SpMM
/// row loop, and the one-head SDDMM.
fn csr_loops(
    a: &Csr,
    (d, fill): (usize, f32),
    rng: &mut SmallRng,
) -> Vec<(&'static str, PrimFunc, HashMap<String, TensorData>)> {
    let (served, structure) = served_spmm(a, d);
    let mut spmm = spmm_tensors(a, d, fill, rng);
    spmm.extend(structure);
    let mut sddmm = csr_tensors(a);
    bind_dense(&mut sddmm, "X", &gen::random_dense(a.rows(), d, rng));
    bind_dense(&mut sddmm, "Y", &gen::random_dense(d, a.cols(), rng));
    sddmm.insert("Bout".to_string(), TensorData::from(vec![fill; a.nnz()]));
    vec![
        ("served spmm", served, spmm.clone()),
        ("spmm", csr_spmm_ir(a, d).unwrap(), spmm),
        ("sddmm", batched_sddmm_ir(a, 1, d).unwrap(), sddmm),
    ]
}

/// Set `buf[at] = value` in `tensors`' `i32` buffer `buf`.
fn poke(tensors: &mut HashMap<String, TensorData>, (buf, at, value): (&str, usize, i32)) {
    let TensorData::I32(slab) = tensors.get_mut(buf).unwrap() else { unreachable!("{buf}") };
    slab[at] = value;
}

/// Every CSR row loop of [`csr_loops`] at widths 1, 4 and 17, its row
/// blocks on the `csr` layout, with `pokes` made to its structure: one
/// outcome on the interpreter and both executor builds — an error whose
/// text contains `says` (the same text, the same written prefix), or
/// success with every bit equal. Well-formed (`pokes` empty), every output
/// is also within the `f64` oracle's bound, and a block takes every row
/// and steps every trip.
fn csr_rows_case(a: &Csr, pokes: &[(&str, usize, i32)], says: Option<&str>, what: &str) {
    let mut rng = gen::rng(0x74);
    for d in [1usize, 4, 17] {
        let fill = if pokes.is_empty() { 0.0 } else { 9.0 };
        for (name, f, mut tensors) in csr_loops(a, (d, fill), &mut rng) {
            let what = format!("{what}: {name}, d = {d}");
            if a.rows() > 1 {
                let layouts = row_layouts(&f);
                assert!(!layouts.is_empty() && layouts.iter().all(|l| l == "csr"), "{what}");
            }
            pokes.iter().for_each(|&p| poke(&mut tensors, p));
            match (agree(&f, &tensors), says) {
                (Some(msg), Some(says)) => assert!(msg.contains(says), "{what}: {msg}"),
                (None, None) => {}
                other => panic!("{what}: {other:?}"),
            }
            if !pokes.is_empty() {
                continue;
            }
            let t = interpreted(&f, &tensors, &[]);
            let oracle = match name {
                "sddmm" => oracle::sddmm_f64(a, t["X"].as_f32(), t["Y"].as_f32(), d),
                _ => oracle::spmm_f64(a, t["B"].as_f32(), d),
            };
            let out = if name == "sddmm" { "Bout" } else { "C" };
            oracle.check(t[out].as_f32()).unwrap_or_else(|m| panic!("{what}: {m}"));
            let counts = block_counts(&f, &tensors);
            assert_eq!(counts.entries, a.rows() as u64, "{what}: {counts:?}");
            assert_stepped(counts, a.nnz() as u64, &what);
        }
    }
}

/// A block's first row loads `cur`; every later row takes the `next` of
/// the row before — across an empty row and across a row whose `indptr`
/// decreases (an empty row, then one starting further back).
#[test]
fn csr_rows_roll_cur_from_the_row_before() {
    let mut rng = gen::rng(0x75);
    for lens in [&[3usize, 0, 2, 0, 0, 4, 1, 0, 2][..], &[0, 2, 0, 1, 3, 0], &[2, 2, 2, 2, 1]] {
        let a = csr_of(lens, 9, &mut rng);
        csr_rows_case(&a, &[], None, &format!("rows {lens:?}"));
    }
    let a = csr_of(&[2, 3, 1, 4, 2, 3], 9, &mut rng);
    let at = |r: usize| i32::try_from(a.indptr()[r]).unwrap();
    // Row 2 ends before it starts; row 3 starts at row 2's start.
    csr_rows_case(&a, &[("J_indptr", 3, at(2))], None, "decreasing mid-launch");
    // Row 4 ends at row 1's start: rows 4 and 5 roll back across it.
    csr_rows_case(&a, &[("J_indptr", 5, at(1))], None, "decreasing two rows back");
    // The launch's last row is empty by a decrease.
    csr_rows_case(&a, &[("J_indptr", 6, at(5) - 1)], None, "decreasing at the end");
}

/// `cur` outside its interval on the row after an empty one — negative,
/// and at the end of the index buffer (where `next`, one past it, fails
/// too) — and at the launch's first row, which loads it: the row goes to
/// the generic loop at trip 0, which fails as the interpreter does.
#[test]
fn csr_rows_cur_fails_its_interval_after_an_empty_row() {
    let mut rng = gen::rng(0x76);
    let a = csr_of(&[2, 3, 1, 4, 2, 3], 9, &mut rng);
    let nnz = i32::try_from(a.nnz()).unwrap();
    // Row 2 ends at -3, before it starts: empty. Row 3 starts at -3.
    csr_rows_case(&a, &[("J_indptr", 3, -3)], Some("out of bounds"), "negative after empty");
    // Rows 3 and 4 start at `nnz`: row 3 is empty, row 4 one trip long.
    let past = [("J_indptr", 3, nnz), ("J_indptr", 4, nnz), ("J_indptr", 5, nnz + 1)];
    csr_rows_case(&a, &past, Some("out of bounds"), "past the indices after empty");
    csr_rows_case(&a, &[("J_indptr", 0, -1)], Some("out of bounds"), "negative first row");
}

/// A column that leaves the operand in the middle of the launch's last
/// row: the row's first trips are written, the failing trip goes to the
/// generic loop, which fails as the interpreter does.
#[test]
fn csr_rows_column_leaves_the_reach_mid_row_in_the_last_row() {
    let mut rng = gen::rng(0x77);
    let a = csr_of(&[2, 0, 3, 1, 5], 9, &mut rng);
    let (cols, mid) = (i32::try_from(a.cols()).unwrap(), a.indptr()[4] + 2);
    for (value, what) in [(cols, "past the operand"), (-1, "negative")] {
        csr_rows_case(&a, &[("J_indices", mid, value)], Some("out of bounds"), what);
    }
}

/// The GPU schedule's `blockIdx` split with a tail guard: rows 9, 10 and
/// 11 (one, two and three rows past the last full block of four), with
/// empty rows at the blocks' edges, and a `cur` that fails in the tail. No
/// row block: the `blockIdx` loop and the guard are the generic loop, the
/// nest under them a block of one entry per row the guard lets in — one
/// outcome with the interpreter, within the `f64` oracle's bound, and
/// every entry and trip taken by a block.
#[test]
fn csr_rows_split_with_a_tail_guard() {
    let mut rng = gen::rng(0x78);
    for lens in [
        &[1usize, 0, 2, 0, 0, 3, 1, 0, 2][..],
        &[0, 2, 1, 3, 0, 0, 2, 1, 4, 0],
        &[3, 1, 0, 0, 2, 1, 1, 0, 0, 2, 0],
    ] {
        let a = csr_of(lens, 9, &mut rng);
        let tail = lens.len() - 1;
        for d in [1usize, 4, 17] {
            let (f, what) = (split_rows_spmm(&a, d), format!("rows {lens:?}, d = {d}"));
            let listing = CompiledKernel::compile(&f).unwrap().disassemble();
            assert!(listing.contains("br.false"), "{what}: the tail guard\n{listing}");
            assert!(!listing.contains("  rows "), "{what}: no row block\n{listing}");
            let tensors = spmm_tensors(&a, d, 0.0, &mut rng);
            assert_eq!(agree(&f, &tensors), None, "{what}");
            let t = interpreted(&f, &tensors, &[]);
            oracle::spmm_f64(&a, t["B"].as_f32(), d)
                .check(t["C"].as_f32())
                .unwrap_or_else(|m| panic!("{what}: {m}"));
            let counts = block_counts(&f, &tensors);
            assert_eq!(counts.entries, a.rows() as u64, "{what}: {counts:?}");
            assert_stepped(counts, a.nnz() as u64, &what);
            let mut bad = spmm_tensors(&a, d, 9.0, &mut rng);
            poke(&mut bad, ("J_indptr", tail - 1, 1));
            poke(&mut bad, ("J_indptr", tail, -1));
            let msg = agree(&f, &bad).unwrap_or_else(|| panic!("{what}, bad tail: no error"));
            assert!(msg.contains("out of bounds"), "{what}, bad tail: {msg}");
        }
    }
}

/// No rows, and one row (no loop: the nest's block of one entry takes it,
/// on the `planned` layout), empty or not.
#[test]
fn csr_rows_zero_and_one_row() {
    let mut rng = gen::rng(0x7a);
    for lens in [&[][..], &[0], &[4]] {
        let a = csr_of(lens, 9, &mut rng);
        csr_rows_case(&a, &[], None, &format!("rows {lens:?}"));
    }
}
