//! Cross-operator fused Stage I programs: the whole sparse-attention
//! pipeline (SDDMM → edge-softmax → SpMM) and GraphSAGE's
//! gather → normalize → matmul step, each as **one** `SpProgram` whose
//! passes all lower into a single `PrimFunc` — one compiled kernel, one
//! launch, instead of one launch per operator.
//!
//! The composability thesis applied *across* operator boundaries: every
//! pass iterates the same sparse `(I, J)` space, and the per-row
//! reductions (softmax max/sum, aggregation) reset at each row's segment
//! start via the reduce-position init predicate (`j_pos == 0`). That holds
//! under either Stage I schedule of the space: the CPU compiles the
//! programs as written — row by row, `for i { for j in row(i) }`, each
//! pass a row walk — while `sparse_fuse` on `(I, J)`, the GPU's
//! load-balancing schedule (§3.2), makes each pass one loop over the
//! non-zeros with a binary-searched row (the pipeline oracles keep that
//! one).
//!
//! Pass structure of the attention pipeline (head axis `H` *inside* each
//! row's non-zero loop, as in the multi-head SDDMM program). Every pass
//! is a walk of each row's non-zeros whose body is one store — one lane
//! op of the executor, the head loop its lanes:
//!
//! 1. `score`  — `S[i,j,h] += A[i,j] · Q[i,h,k] · KT[h,k,j]` (the batched
//!    SDDMM body; its `K` loop hits the `GatherScaleAccumulate`
//!    microkernel);
//! 2. `rowmax` — `M[i,h] = max(M[i,h], S[i,j,h])`, reset to `-f32::MAX`
//!    at each row segment start (a running-maximum accumulate);
//! 3. `exp`    — `P[i,j,h] = exp(S[i,j,h] − M[i,h])`, all spatial (a map
//!    that overwrites `P`);
//! 4. `psum`   — `Sum[i,h] += P[i,j,h]`, reset to `0` at each segment
//!    start (an AXPY of one lane per head);
//! 5. `agg`    — `Out[i,h,c] += (P[i,j,h] / Sum[i,h]) · V[j,h,c]`: the
//!    normalization rides as a lane-invariant coefficient of the
//!    aggregation AXPY, so the `C` loop hits the `AxpyLanes` microkernel.
//!
//! `exp` and `psum` were one pass with two stores per point; split, each
//! `(non-zero, head)` point still runs the same operations in the same
//! order — `Sum` reads `P` back through its `f32` store either way — so
//! the split changes no output bit, and each half is a shape the
//! executor runs as a row nest.
//!
//! Rows with no non-zeros never execute any pass body, so their outputs
//! stay at the zero binding (the documented empty-row semantics: an
//! attention row with no incident edges aggregates to zero, and the
//! division by `Sum` is never evaluated there).
//!
//! The same pass builders also produce the *three-launch pipeline*
//! programs ([`attention_score_program`], [`edge_softmax_program`],
//! [`attention_aggregate_program`]): identical pass bodies grouped into
//! separate `PrimFunc`s. Because each `(non-zero, head)` pair keeps
//! exactly the same reduction order and f32 store/rounding points in
//! both groupings, the fused kernel is **bit-identical** to the pipeline
//! (the `exp` path included — same `FloatExpr::Exp` evaluation in both).

use crate::stage1::{ProgramBuilder, SpBuffer, SpProgram, SpStore};
use sparsetir_ir::prelude::*;

/// Register the shared attention axes on `b`. `I`/`J` is the sparse mask
/// structure (CSR aux buffers `J_indptr`/`J_indices`), `H` the head axis,
/// `K` the score (query/key) feature axis, `C` the value feature axis;
/// `I_`/`J_d` are the dense mirrors dense operands are laid out over.
fn attention_axes(
    b: &mut ProgramBuilder,
    m: usize,
    n: usize,
    nnz: impl Into<Expr>,
    heads: usize,
    feat: usize,
    vfeat: usize,
) {
    b.dense_fixed("I", m);
    b.sparse_variable("J", "I", n, nnz, "J_indptr", "J_indices");
    b.dense_fixed("H", heads);
    b.dense_fixed("K", feat);
    b.dense_fixed("C", vfeat);
    b.dense_fixed("I_", m);
    b.dense_fixed("J_d", n);
}

/// Pass 1: the batched-SDDMM score body (`S += A · Q · KT` over `K`).
fn add_score_pass(b: &mut ProgramBuilder, a: &SpBuffer, q: &SpBuffer, kt: &SpBuffer, s: &SpBuffer) {
    let axes = b.axes().clone();
    let (a, q, kt, s) = (a.clone(), q.clone(), kt.clone(), s.clone());
    b.sp_iter("score", &["I", "J", "H", "K"], "SSSR", |vars| {
        let (i, j, h, k) = (&vars[0], &vars[1], &vars[2], &vars[3]);
        let init = vec![SpStore {
            buffer: s.name.clone(),
            indices: vec![Expr::var(i), Expr::var(j), Expr::var(h)],
            value: Expr::f32(0.0),
        }];
        let body = vec![SpStore {
            buffer: s.name.clone(),
            indices: vec![Expr::var(i), Expr::var(j), Expr::var(h)],
            value: s.load(&axes, vec![Expr::var(i), Expr::var(j), Expr::var(h)])
                + a.load(&axes, vec![Expr::var(i), Expr::var(j)])
                    * q.load(&axes, vec![Expr::var(i), Expr::var(h), Expr::var(k)])
                    * kt.load(&axes, vec![Expr::var(h), Expr::var(k), Expr::var(j)]),
        }];
        (init, body)
    });
}

/// Pass 2: per-row score maximum, reset to `-f32::MAX` at each row
/// segment start (the reduce-position init predicate on `J`).
fn add_rowmax_pass(b: &mut ProgramBuilder, s: &SpBuffer, mx: &SpBuffer) {
    let axes = b.axes().clone();
    let (s, mx) = (s.clone(), mx.clone());
    b.sp_iter("rowmax", &["I", "J", "H"], "SRS", |vars| {
        let (i, j, h) = (&vars[0], &vars[1], &vars[2]);
        let init = vec![SpStore {
            buffer: mx.name.clone(),
            indices: vec![Expr::var(i), Expr::var(h)],
            value: Expr::f32(f64::from(f32::MIN)),
        }];
        let body = vec![SpStore {
            buffer: mx.name.clone(),
            indices: vec![Expr::var(i), Expr::var(h)],
            value: mx
                .load(&axes, vec![Expr::var(i), Expr::var(h)])
                .max(s.load(&axes, vec![Expr::var(i), Expr::var(j), Expr::var(h)])),
        }];
        (init, body)
    });
}

/// Pass 3: exponentiate the max-shifted scores, `P = exp(S − M)` — all
/// spatial, one store per `(non-zero, head)` point.
fn add_exp_pass(b: &mut ProgramBuilder, s: &SpBuffer, mx: &SpBuffer, p: &SpBuffer) {
    let axes = b.axes().clone();
    let (s, mx, p) = (s.clone(), mx.clone(), p.clone());
    b.sp_iter("exp", &["I", "J", "H"], "SSS", |vars| {
        let (i, j, h) = (&vars[0], &vars[1], &vars[2]);
        let shifted = s.load(&axes, vec![Expr::var(i), Expr::var(j), Expr::var(h)])
            - mx.load(&axes, vec![Expr::var(i), Expr::var(h)]);
        let body = vec![SpStore {
            buffer: p.name.clone(),
            indices: vec![Expr::var(i), Expr::var(j), Expr::var(h)],
            value: Expr::Call { intrin: Intrinsic::Exp, args: vec![shifted] },
        }];
        (Vec::new(), body)
    });
}

/// Pass 4: the per-row partition sum `Sum += P`, reset to `0` at each row
/// segment start. `P` is read back through the `f32` store pass 3 made.
fn add_psum_pass(b: &mut ProgramBuilder, p: &SpBuffer, sum: &SpBuffer) {
    let axes = b.axes().clone();
    let (p, sum) = (p.clone(), sum.clone());
    b.sp_iter("psum", &["I", "J", "H"], "SRS", |vars| {
        let (i, j, h) = (&vars[0], &vars[1], &vars[2]);
        let init = vec![SpStore {
            buffer: sum.name.clone(),
            indices: vec![Expr::var(i), Expr::var(h)],
            value: Expr::f32(0.0),
        }];
        let body = vec![SpStore {
            buffer: sum.name.clone(),
            indices: vec![Expr::var(i), Expr::var(h)],
            value: sum.load(&axes, vec![Expr::var(i), Expr::var(h)])
                + p.load(&axes, vec![Expr::var(i), Expr::var(j), Expr::var(h)]),
        }];
        (init, body)
    });
}

/// Pass 5: the aggregation AXPY with the softmax normalization folded in
/// as a lane-invariant coefficient (`Out += (P / Sum) · V` over the
/// value-feature lanes).
fn add_aggregate_pass(
    b: &mut ProgramBuilder,
    p: &SpBuffer,
    sum: &SpBuffer,
    v: &SpBuffer,
    out: &SpBuffer,
) {
    let axes = b.axes().clone();
    let (p, sum, v, out) = (p.clone(), sum.clone(), v.clone(), out.clone());
    b.sp_iter("agg", &["I", "J", "H", "C"], "SRSS", |vars| {
        let (i, j, h, c) = (&vars[0], &vars[1], &vars[2], &vars[3]);
        let init = vec![SpStore {
            buffer: out.name.clone(),
            indices: vec![Expr::var(i), Expr::var(h), Expr::var(c)],
            value: Expr::f32(0.0),
        }];
        let body = vec![SpStore {
            buffer: out.name.clone(),
            indices: vec![Expr::var(i), Expr::var(h), Expr::var(c)],
            value: out.load(&axes, vec![Expr::var(i), Expr::var(h), Expr::var(c)])
                + (p.load(&axes, vec![Expr::var(i), Expr::var(j), Expr::var(h)])
                    / sum.load(&axes, vec![Expr::var(i), Expr::var(h)]))
                    * v.load(&axes, vec![Expr::var(j), Expr::var(h), Expr::var(c)]),
        }];
        (init, body)
    });
}

/// The whole multi-head sparse-attention pipeline as **one** program:
/// score SDDMM, edge-softmax (three passes over each row's segment of the
/// non-zero range) and the aggregation AXPY — five passes, one kernel.
///
/// Operand layouts (row-major coordinate space): `Q` is `(m, heads,
/// feat)` — head `h` owns `feat` consecutive columns of an
/// `m × heads·feat` matrix; `KT` is `(heads, feat, n)` — the heads' key
/// transposes stacked row-wise; `V` is `(n, heads, vfeat)` — head `h`
/// owns `vfeat` consecutive columns. `Out` is `(m, heads, vfeat)`.
/// `S`/`P` (`nnz × heads`, head-interleaved per non-zero) and
/// `M`/`Sum` (`m × heads`) are per-launch scratch, bound zeroed.
#[must_use]
pub fn fused_attention_program(
    m: usize,
    n: usize,
    nnz: impl Into<Expr>,
    heads: usize,
    feat: usize,
    vfeat: usize,
) -> SpProgram {
    attention_program(
        "fused_attention",
        (m, n, nnz.into()),
        (heads, feat, vfeat),
        &ATTENTION_PASSES,
    )
    .expect("every attention pass is known")
}

/// The passes of [`fused_attention_program`], in order.
pub const ATTENTION_PASSES: [&str; 5] = ["score", "rowmax", "exp", "psum", "agg"];

/// One pass of [`fused_attention_program`] alone (one of
/// [`ATTENTION_PASSES`]), over the same axes and buffers: run after the
/// passes before it, it does exactly what it does inside the fused kernel.
/// A per-pass cost probe compiles these. `None` for an unknown pass.
#[must_use]
pub fn attention_pass_program(
    pass: &str,
    (m, n, nnz): (usize, usize, usize),
    (heads, feat, vfeat): (usize, usize, usize),
) -> Option<SpProgram> {
    attention_program(&format!("attn_{pass}"), (m, n, nnz.into()), (heads, feat, vfeat), &[pass])
}

/// The attention axes and buffers with `passes` (names of
/// [`ATTENTION_PASSES`], in order) added; `None` for an unknown name.
fn attention_program(
    name: &str,
    (m, n, nnz): (usize, usize, Expr),
    (heads, feat, vfeat): (usize, usize, usize),
    passes: &[&str],
) -> Option<SpProgram> {
    let mut b = ProgramBuilder::new(name);
    attention_axes(&mut b, m, n, nnz, heads, feat, vfeat);
    let a = b.sparse_buffer("A", &["I", "J"], DType::F32);
    let q = b.sparse_buffer("Q", &["I_", "H", "K"], DType::F32);
    let kt = b.sparse_buffer("KT", &["H", "K", "J_d"], DType::F32);
    let v = b.sparse_buffer("V", &["J_d", "H", "C"], DType::F32);
    let s = b.sparse_buffer("S", &["I", "J", "H"], DType::F32);
    let mx = b.sparse_buffer("M", &["I", "H"], DType::F32);
    let p = b.sparse_buffer("P", &["I", "J", "H"], DType::F32);
    let sum = b.sparse_buffer("Sum", &["I", "H"], DType::F32);
    let out = b.sparse_buffer("Out", &["I", "H", "C"], DType::F32);
    for pass in passes {
        match *pass {
            "score" => add_score_pass(&mut b, &a, &q, &kt, &s),
            "rowmax" => add_rowmax_pass(&mut b, &s, &mx),
            "exp" => add_exp_pass(&mut b, &s, &mx, &p),
            "psum" => add_psum_pass(&mut b, &p, &sum),
            "agg" => add_aggregate_pass(&mut b, &p, &sum, &v, &out),
            _ => return None,
        }
    }
    Some(b.finish())
}

/// Pipeline launch 1 of 3: the score pass alone (exactly the batched
/// SDDMM shape of [`crate::stage1::batched_sddmm_program`], with the
/// attention buffer names).
#[must_use]
pub fn attention_score_program(
    m: usize,
    n: usize,
    nnz: impl Into<Expr>,
    heads: usize,
    feat: usize,
) -> SpProgram {
    let mut b = ProgramBuilder::new("attn_score");
    attention_axes(&mut b, m, n, nnz, heads, feat, 0);
    let a = b.sparse_buffer("A", &["I", "J"], DType::F32);
    let q = b.sparse_buffer("Q", &["I_", "H", "K"], DType::F32);
    let kt = b.sparse_buffer("KT", &["H", "K", "J_d"], DType::F32);
    let s = b.sparse_buffer("S", &["I", "J", "H"], DType::F32);
    add_score_pass(&mut b, &a, &q, &kt, &s);
    b.finish()
}

/// Pipeline launch 2 of 3: edge-softmax over the per-non-zero scores —
/// the `rowmax`, `exp` and `psum` passes (the normalization itself rides the
/// aggregation launch as its coefficient, identically to the fused
/// kernel). Inputs: `S`; outputs: `P` and `Sum` (`M` is scratch).
#[must_use]
pub fn edge_softmax_program(m: usize, n: usize, nnz: impl Into<Expr>, heads: usize) -> SpProgram {
    let mut b = ProgramBuilder::new("edge_softmax");
    attention_axes(&mut b, m, n, nnz, heads, 0, 0);
    let s = b.sparse_buffer("S", &["I", "J", "H"], DType::F32);
    let mx = b.sparse_buffer("M", &["I", "H"], DType::F32);
    let p = b.sparse_buffer("P", &["I", "J", "H"], DType::F32);
    let sum = b.sparse_buffer("Sum", &["I", "H"], DType::F32);
    add_rowmax_pass(&mut b, &s, &mx);
    add_exp_pass(&mut b, &s, &mx, &p);
    add_psum_pass(&mut b, &p, &sum);
    b.finish()
}

/// Pipeline launch 3 of 3: the normalized aggregation AXPY (`Out +=
/// (P / Sum) · V`). Inputs: `P`, `Sum`, `V`; output: `Out`.
#[must_use]
pub fn attention_aggregate_program(
    m: usize,
    n: usize,
    nnz: impl Into<Expr>,
    heads: usize,
    vfeat: usize,
) -> SpProgram {
    let mut b = ProgramBuilder::new("attn_aggregate");
    attention_axes(&mut b, m, n, nnz, heads, 0, vfeat);
    let v = b.sparse_buffer("V", &["J_d", "H", "C"], DType::F32);
    let p = b.sparse_buffer("P", &["I", "J", "H"], DType::F32);
    let sum = b.sparse_buffer("Sum", &["I", "H"], DType::F32);
    let out = b.sparse_buffer("Out", &["I", "H", "C"], DType::F32);
    add_aggregate_pass(&mut b, &p, &sum, &v, &out);
    b.finish()
}

/// GraphSAGE mean-aggregator gather pass: `Agg[i,k] += X[j,k]` over each
/// row's neighbors (pure structural gather — the edge values play no
/// role in the mean aggregator). The `K` lanes hit `AxpyLanes`.
fn add_sage_gather_pass(b: &mut ProgramBuilder, x: &SpBuffer, agg: &SpBuffer) {
    let axes = b.axes().clone();
    let (x, agg) = (x.clone(), agg.clone());
    b.sp_iter("gather", &["I", "J", "K"], "SRS", |vars| {
        let (i, j, k) = (&vars[0], &vars[1], &vars[2]);
        let init = vec![SpStore {
            buffer: agg.name.clone(),
            indices: vec![Expr::var(i), Expr::var(k)],
            value: Expr::f32(0.0),
        }];
        let body = vec![SpStore {
            buffer: agg.name.clone(),
            indices: vec![Expr::var(i), Expr::var(k)],
            value: agg.load(&axes, vec![Expr::var(i), Expr::var(k)])
                + x.load(&axes, vec![Expr::var(j), Expr::var(k)]),
        }];
        (init, body)
    });
}

/// GraphSAGE normalize+matmul pass: `H1[i,o] += (Agg[i,k] · Dinv[i]) ·
/// W[k,o]` — the degree normalization rides as a lane-invariant
/// coefficient of the dense GEMM's `O` lanes (`AxpyLanes`), mirroring
/// how the attention kernel folds its softmax normalization.
fn add_sage_matmul_pass(
    b: &mut ProgramBuilder,
    agg: &SpBuffer,
    dinv: &SpBuffer,
    w: &SpBuffer,
    h1: &SpBuffer,
) {
    let axes = b.axes().clone();
    let (agg, dinv, w, h1) = (agg.clone(), dinv.clone(), w.clone(), h1.clone());
    b.sp_iter("sage_mm", &["I", "K", "O"], "SRS", |vars| {
        let (i, k, o) = (&vars[0], &vars[1], &vars[2]);
        let init = vec![SpStore {
            buffer: h1.name.clone(),
            indices: vec![Expr::var(i), Expr::var(o)],
            value: Expr::f32(0.0),
        }];
        let body = vec![SpStore {
            buffer: h1.name.clone(),
            indices: vec![Expr::var(i), Expr::var(o)],
            value: h1.load(&axes, vec![Expr::var(i), Expr::var(o)])
                + (agg.load(&axes, vec![Expr::var(i), Expr::var(k)])
                    * dinv.load(&axes, vec![Expr::var(i)]))
                    * w.load(&axes, vec![Expr::var(k), Expr::var(o)]),
        }];
        (init, body)
    });
}

/// GraphSAGE's gather → normalize → matmul layer step as **one**
/// program: the neighbor gather (a walk of each row's neighbours) and the
/// degree-normalized feature transform (`(A·X / deg) · W`), two passes,
/// one kernel. `Dinv` is the per-row inverse degree (`0` for empty
/// rows, whose aggregation stays zero); `Agg` (`m × feat`) is
/// per-launch scratch.
#[must_use]
pub fn fused_sage_program(
    m: usize,
    n: usize,
    nnz: impl Into<Expr>,
    feat: usize,
    hidden: usize,
) -> SpProgram {
    let mut b = ProgramBuilder::new("fused_sage");
    b.dense_fixed("I", m);
    b.sparse_variable("J", "I", n, nnz, "J_indptr", "J_indices");
    b.dense_fixed("K", feat);
    b.dense_fixed("O", hidden);
    b.dense_fixed("J_d", n);
    let x = b.sparse_buffer("X", &["J_d", "K"], DType::F32);
    let dinv = b.sparse_buffer("Dinv", &["I"], DType::F32);
    let w = b.sparse_buffer("W", &["K", "O"], DType::F32);
    let agg = b.sparse_buffer("Agg", &["I", "K"], DType::F32);
    let h1 = b.sparse_buffer("H1", &["I", "O"], DType::F32);
    add_sage_gather_pass(&mut b, &x, &agg);
    add_sage_matmul_pass(&mut b, &agg, &dinv, &w, &h1);
    b.finish()
}

/// Two-launch pipeline piece: the SAGE gather pass alone.
#[must_use]
pub fn sage_gather_program(m: usize, n: usize, nnz: impl Into<Expr>, feat: usize) -> SpProgram {
    let mut b = ProgramBuilder::new("sage_gather");
    b.dense_fixed("I", m);
    b.sparse_variable("J", "I", n, nnz, "J_indptr", "J_indices");
    b.dense_fixed("K", feat);
    b.dense_fixed("J_d", n);
    let x = b.sparse_buffer("X", &["J_d", "K"], DType::F32);
    let agg = b.sparse_buffer("Agg", &["I", "K"], DType::F32);
    add_sage_gather_pass(&mut b, &x, &agg);
    b.finish()
}

/// Two-launch pipeline piece: the SAGE normalize+matmul pass alone.
#[must_use]
pub fn sage_matmul_program(m: usize, feat: usize, hidden: usize) -> SpProgram {
    let mut b = ProgramBuilder::new("sage_matmul");
    b.dense_fixed("I", m);
    b.dense_fixed("K", feat);
    b.dense_fixed("O", hidden);
    let dinv = b.sparse_buffer("Dinv", &["I"], DType::F32);
    let w = b.sparse_buffer("W", &["K", "O"], DType::F32);
    let agg = b.sparse_buffer("Agg", &["I", "K"], DType::F32);
    let h1 = b.sparse_buffer("H1", &["I", "O"], DType::F32);
    add_sage_matmul_pass(&mut b, &agg, &dinv, &w, &h1);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_attention_program_has_all_five_passes() {
        let p = fused_attention_program(4, 4, 6, 2, 3, 3);
        let s = p.script();
        for pass in ["score", "rowmax", "exp", "psum", "agg"] {
            assert!(s.contains(pass), "missing pass `{pass}` in:\n{s}");
        }
        assert!(s.contains("sp_iter([I, J, H, K], \"SSSR\", \"score\")"), "{s}");
        assert!(s.contains("sp_iter([I, J, H], \"SRS\", \"rowmax\")"), "{s}");
        assert!(s.contains("sp_iter([I, J, H], \"SSS\", \"exp\")"), "{s}");
        assert!(s.contains("sp_iter([I, J, H], \"SRS\", \"psum\")"), "{s}");
        assert!(s.contains("sp_iter([I, J, H, C], \"SRSS\", \"agg\")"), "{s}");
    }

    #[test]
    fn pipeline_programs_cover_the_same_passes() {
        assert!(attention_score_program(4, 4, 6, 2, 3).script().contains("score"));
        let softmax = edge_softmax_program(4, 4, 6, 2).script();
        for pass in ["rowmax", "\"exp\"", "psum"] {
            assert!(softmax.contains(pass), "{softmax}");
        }
        assert!(attention_aggregate_program(4, 4, 6, 2, 3).script().contains("agg"));
    }

    #[test]
    fn each_attention_pass_stands_alone() {
        for pass in ATTENTION_PASSES {
            let s = attention_pass_program(pass, (4, 4, 6), (2, 3, 3)).unwrap().script();
            let others = ATTENTION_PASSES.iter().filter(|&&o| o != pass);
            assert!(s.contains(&format!("\"{pass}\")")), "{s}");
            assert!(others.into_iter().all(|o| !s.contains(&format!("\"{o}\")"))), "{s}");
        }
        assert!(attention_pass_program("expsum", (4, 4, 6), (2, 3, 3)).is_none());
    }

    #[test]
    fn fused_sage_program_has_gather_and_matmul() {
        let s = fused_sage_program(4, 4, 6, 3, 2).script();
        assert!(s.contains("gather") && s.contains("sage_mm"), "{s}");
    }
}
