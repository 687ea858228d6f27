//! Cross-op fused sparse attention: SDDMM → edge-softmax → SpMM compiled
//! into **one** kernel (see [`sparsetir_core::fused`] for the Stage I
//! programs), plus the three-launch pipeline that serves both as the
//! `SPARSETIR_NO_FUSE` fallback and as the bit-identity oracle.
//!
//! All entry points here take *stacked* multi-head operands (the PR 5
//! batching contract, shared with the batched SDDMM): `Q` is
//! `m × heads·feat` with head `h` owning `feat` consecutive columns,
//! `KT` is `heads·feat × n` with the heads' key transposes stacked
//! row-wise, `V` is `n × heads·vfeat` column-stacked, and the output is
//! `m × heads·vfeat` column-stacked. Per-request stacking/splitting
//! lives in [`crate::op::FusedAttentionOp`].
//!
//! ## Numerical contract
//!
//! The fused kernel and the three-launch pipeline run *identical pass
//! bodies* (built by the same Stage I pass builders) in the same order
//! over the same `(non-zero, head)` points, under the same executor
//! semantics (f64 arithmetic, f32 stores, `exp` evaluated as one
//! `FloatExpr::Exp` in both paths) — so fused output is **bit-identical**
//! to the pipeline, `exp` path included. The pure-Rust
//! [`fused_attention_reference`] accumulates in f64 without intermediate
//! f32 rounding, so kernels are validated against it with a relative
//! epsilon (documented at the call sites) rather than bit equality.
//!
//! Rows with no non-zeros aggregate to zero (no pass body executes for
//! them, so the output keeps its zero binding and the softmax division
//! is never evaluated there); for non-empty rows the partition sum is
//! ≥ 1 by max-shifting, so the folded `P/Sum` coefficient is safe.

use sparsetir_core::prelude::*;
use sparsetir_gpusim::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_smat::prelude::*;
use std::collections::HashMap;

use crate::attention::batched_csr_spmm_plan;
use crate::sddmm::{sddmm_plan, SddmmParams};

type KernelResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Lower the whole attention pipeline to one `PrimFunc`: four passes
/// (score / rowmax / expsum / agg), each `sparse_fuse`d on `(I, J)` so
/// every pass walks the non-zero range with binary-searched row
/// recovery — one compiled kernel, one launch.
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn fused_attention_ir(
    a: &Csr,
    heads: usize,
    feat: usize,
    vfeat: usize,
) -> KernelResult<PrimFunc> {
    let mut program = fused_attention_program(a.rows(), a.cols(), a.nnz(), heads, feat, vfeat);
    for pass in ["score", "rowmax", "expsum", "agg"] {
        sparse_fuse(&mut program, pass, &["I", "J"])?;
    }
    Ok(lower(&program)?)
}

/// Pipeline launch 1 of 3: the score SDDMM alone (same pass body as the
/// fused kernel's first pass).
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn attention_score_ir(a: &Csr, heads: usize, feat: usize) -> KernelResult<PrimFunc> {
    let mut program = attention_score_program(a.rows(), a.cols(), a.nnz(), heads, feat);
    sparse_fuse(&mut program, "score", &["I", "J"])?;
    Ok(lower(&program)?)
}

/// Pipeline launch 2 of 3: edge-softmax (rowmax + expsum passes) over
/// per-non-zero scores.
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn edge_softmax_ir(a: &Csr, heads: usize) -> KernelResult<PrimFunc> {
    let mut program = edge_softmax_program(a.rows(), a.cols(), a.nnz(), heads);
    sparse_fuse(&mut program, "rowmax", &["I", "J"])?;
    sparse_fuse(&mut program, "expsum", &["I", "J"])?;
    Ok(lower(&program)?)
}

/// Pipeline launch 3 of 3: the normalized aggregation AXPY.
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn attention_aggregate_ir(a: &Csr, heads: usize, vfeat: usize) -> KernelResult<PrimFunc> {
    let mut program = attention_aggregate_program(a.rows(), a.cols(), a.nnz(), heads, vfeat);
    sparse_fuse(&mut program, "agg", &["I", "J"])?;
    Ok(lower(&program)?)
}

fn check_shapes(a: &Csr, q: &Dense, kt: &Dense, v: &Dense, heads: usize) -> KernelResult<()> {
    if heads == 0 {
        return Err("fused attention: zero heads".into());
    }
    if !q.cols().is_multiple_of(heads) || !v.cols().is_multiple_of(heads) {
        return Err(format!(
            "fused attention: stacked widths q={} v={} not divisible by heads={heads}",
            q.cols(),
            v.cols()
        )
        .into());
    }
    if q.rows() != a.rows()
        || kt.rows() != q.cols()
        || kt.cols() != a.cols()
        || v.rows() != a.cols()
    {
        return Err(format!(
            "fused attention: operand shapes q {}x{}, kt {}x{}, v {}x{} vs adjacency {}x{}",
            q.rows(),
            q.cols(),
            kt.rows(),
            kt.cols(),
            v.rows(),
            v.cols(),
            a.rows(),
            a.cols()
        )
        .into());
    }
    Ok(())
}

/// Run stacked multi-head attention as **one** fused kernel launch.
///
/// # Errors
/// Returns an error on operand-shape mismatches and propagates
/// lowering/execution errors.
pub fn fused_attention_launch(
    rt: &Runtime,
    a: &Csr,
    q: &Dense,
    kt: &Dense,
    v: &Dense,
    heads: usize,
) -> KernelResult<Dense> {
    check_shapes(a, q, kt, v, heads)?;
    let (feat, vfeat) = (q.cols() / heads, v.cols() / heads);
    let f = fused_attention_ir(a, heads, feat, vfeat)?;
    let mut bindings = Bindings::new();
    bind_csr(&mut bindings, "A", "J", a);
    bind_dense(&mut bindings, "Q", q);
    bind_dense(&mut bindings, "KT", kt);
    bind_dense(&mut bindings, "V", v);
    bind_zeros(&mut bindings, "S", a.nnz() * heads);
    bind_zeros(&mut bindings, "M", a.rows() * heads);
    bind_zeros(&mut bindings, "P", a.nnz() * heads);
    bind_zeros(&mut bindings, "Sum", a.rows() * heads);
    bind_zeros(&mut bindings, "Out", a.rows() * heads * vfeat);
    rt.compile(&f)?.run(&HashMap::new(), &mut bindings)?;
    Ok(take_dense(&mut bindings, "Out", a.rows(), heads * vfeat))
}

/// Run the same stacked multi-head attention as the sequential
/// three-launch pipeline (score SDDMM, edge-softmax, aggregation) —
/// the `SPARSETIR_NO_FUSE` fallback and the fused kernel's bit-identity
/// oracle.
///
/// # Errors
/// Returns an error on operand-shape mismatches and propagates
/// lowering/execution errors.
pub fn attention_pipeline_launch(
    rt: &Runtime,
    a: &Csr,
    q: &Dense,
    kt: &Dense,
    v: &Dense,
    heads: usize,
) -> KernelResult<Dense> {
    check_shapes(a, q, kt, v, heads)?;
    let (feat, vfeat) = (q.cols() / heads, v.cols() / heads);

    // Launch 1: scores into S (nnz × heads, head-interleaved).
    let score = attention_score_ir(a, heads, feat)?;
    let mut b1 = Bindings::new();
    bind_csr(&mut b1, "A", "J", a);
    bind_dense(&mut b1, "Q", q);
    bind_dense(&mut b1, "KT", kt);
    bind_zeros(&mut b1, "S", a.nnz() * heads);
    rt.compile(&score)?.run(&HashMap::new(), &mut b1)?;
    let s = b1["S"].as_f32().to_vec();

    // Launch 2: edge-softmax — P = exp(S − rowmax), Sum = Σ P per row.
    let softmax = edge_softmax_ir(a, heads)?;
    let mut b2 = Bindings::new();
    bind_csr(&mut b2, "A", "J", a);
    b2.insert("S".to_string(), TensorData::from(s));
    bind_zeros(&mut b2, "M", a.rows() * heads);
    bind_zeros(&mut b2, "P", a.nnz() * heads);
    bind_zeros(&mut b2, "Sum", a.rows() * heads);
    rt.compile(&softmax)?.run(&HashMap::new(), &mut b2)?;
    let p = b2["P"].as_f32().to_vec();
    let sum = b2["Sum"].as_f32().to_vec();

    // Launch 3: Out += (P / Sum) · V.
    let agg = attention_aggregate_ir(a, heads, vfeat)?;
    let mut b3 = Bindings::new();
    bind_csr(&mut b3, "A", "J", a);
    bind_dense(&mut b3, "V", v);
    b3.insert("P".to_string(), TensorData::from(p));
    b3.insert("Sum".to_string(), TensorData::from(sum));
    bind_zeros(&mut b3, "Out", a.rows() * heads * vfeat);
    rt.compile(&agg)?.run(&HashMap::new(), &mut b3)?;
    Ok(take_dense(&mut b3, "Out", a.rows(), heads * vfeat))
}

/// Serve stacked multi-head attention through `rt`, routing on the
/// runtime's fusion flag: fused single-kernel launch when fusion is on,
/// the three-launch pipeline when `SPARSETIR_NO_FUSE` turned it off.
/// Both paths produce bit-identical outputs (see the module docs).
///
/// # Errors
/// Returns an error on operand-shape mismatches and propagates
/// lowering/execution errors.
pub fn fused_attention_execute_on(
    rt: &Runtime,
    a: &Csr,
    q: &Dense,
    kt: &Dense,
    v: &Dense,
    heads: usize,
) -> KernelResult<Dense> {
    if rt.fusion() {
        fused_attention_launch(rt, a, q, kt, v, heads)
    } else {
        attention_pipeline_launch(rt, a, q, kt, v, heads)
    }
}

/// Serve stacked multi-head attention with every dense operand bound as
/// a segmented view over per-head rider storage — the zero-copy
/// counterpart of [`fused_attention_execute_on`]. Head `h` contributes
/// `qs[h]` (`rows × k`) as columns `[h·k, (h+1)·k)` of the logical `Q`,
/// `kts[h]` (`k × cols`) as the `h`-th row segment of the logical `KT`,
/// `vs[h]` (`cols × vfeat`) as columns of the logical `V`, and the
/// kernel writes head `h`'s aggregation directly into `outs[h]`
/// (`rows × vfeat`, zero-filled). The softmax intermediates `S`/`M`/`P`/
/// `Sum` come from the runtime's [`BufferPool`] instead of fresh
/// allocations, and on the `SPARSETIR_NO_FUSE` pipeline route they move
/// between launches without copies. Outputs are bit-identical to the
/// stacked-operand entry points: views change only address resolution,
/// never pass order.
///
/// # Errors
/// Returns an error on operand-shape mismatches (all slices must be the
/// same non-zero length with uniform `(k, vfeat)`) and propagates
/// lowering/execution errors.
pub fn fused_attention_views_on(
    rt: &Runtime,
    a: &Csr,
    qs: &[&Dense],
    kts: &[&Dense],
    vs: &[&Dense],
    outs: &mut [Dense],
) -> KernelResult<()> {
    let heads = qs.len();
    if heads == 0 {
        return Err("fused attention: zero heads".into());
    }
    let (k, vfeat) = (qs[0].cols(), vs[0].cols());
    let pool = rt.pool().clone();
    let mut b = Bindings::new();
    bind_csr(&mut b, "A", "J", a);
    b.insert("S".to_string(), TensorData::from(pool.acquire_f32(a.nnz() * heads)));
    b.insert("M".to_string(), TensorData::from(pool.acquire_f32(a.rows() * heads)));
    b.insert("P".to_string(), TensorData::from(pool.acquire_f32(a.nnz() * heads)));
    b.insert("Sum".to_string(), TensorData::from(pool.acquire_f32(a.rows() * heads)));
    let q_segs: Vec<(&[f32], usize)> = qs.iter().map(|q| (q.data(), q.cols())).collect();
    let kt_segs: Vec<&[f32]> = kts.iter().map(|t| t.data()).collect();
    let v_segs: Vec<(&[f32], usize)> = vs.iter().map(|v| (v.data(), v.cols())).collect();
    let scalars = HashMap::new();
    let result = (|| -> KernelResult<()> {
        if rt.fusion() {
            // One fused launch: Q/KT/V/Out as views, scratch from the pool.
            let f = fused_attention_ir(a, heads, k, vfeat)?;
            let kernel = rt.compile(&f)?;
            let mut views = ViewBindings::from_tensors(&mut b);
            views.bind_cols("Q", ColsView::read(a.rows(), &q_segs)?);
            views.bind_rows("KT", RowsView::read(k * a.cols(), &kt_segs)?);
            views.bind_cols("V", ColsView::read(a.cols(), &v_segs)?);
            let out_segs: Vec<(&mut [f32], usize)> = outs
                .iter_mut()
                .map(|o| {
                    let w = o.cols();
                    (o.data_mut(), w)
                })
                .collect();
            views.bind_cols("Out", ColsView::write(a.rows(), out_segs)?);
            kernel.run_views(&scalars, &mut views)?;
            return Ok(());
        }
        // Pipeline route: three launches sharing one binding map, so the
        // intermediates (`S`, then `P`/`Sum`) stay in place between
        // launches instead of round-tripping through fresh copies.
        let score = rt.compile(&attention_score_ir(a, heads, k)?)?;
        {
            let mut views = ViewBindings::from_tensors(&mut b);
            views.bind_cols("Q", ColsView::read(a.rows(), &q_segs)?);
            views.bind_rows("KT", RowsView::read(k * a.cols(), &kt_segs)?);
            score.run_views(&scalars, &mut views)?;
        }
        let softmax = rt.compile(&edge_softmax_ir(a, heads)?)?;
        softmax.run_views(&scalars, &mut ViewBindings::from_tensors(&mut b))?;
        let agg = rt.compile(&attention_aggregate_ir(a, heads, vfeat)?)?;
        {
            let mut views = ViewBindings::from_tensors(&mut b);
            views.bind_cols("V", ColsView::read(a.cols(), &v_segs)?);
            let out_segs: Vec<(&mut [f32], usize)> = outs
                .iter_mut()
                .map(|o| {
                    let w = o.cols();
                    (o.data_mut(), w)
                })
                .collect();
            views.bind_cols("Out", ColsView::write(a.rows(), out_segs)?);
            agg.run_views(&scalars, &mut views)?;
        }
        Ok(())
    })();
    for name in ["S", "M", "P", "Sum"] {
        if let Some(TensorData::F32(v)) = b.remove(name) {
            pool.release_f32(v);
        }
    }
    result
}

/// Pure-Rust reference: per-row masked softmax attention with f64
/// accumulation throughout (no intermediate f32 rounding), for
/// relative-epsilon validation of both kernel paths. Empty rows produce
/// zero output rows.
#[must_use]
pub fn fused_attention_reference(a: &Csr, q: &Dense, kt: &Dense, v: &Dense, heads: usize) -> Dense {
    let (feat, vfeat) = (q.cols() / heads, v.cols() / heads);
    let mut out = Dense::zeros(a.rows(), heads * vfeat);
    for i in 0..a.rows() {
        let (lo, hi) = (a.indptr()[i], a.indptr()[i + 1]);
        if lo == hi {
            continue;
        }
        for h in 0..heads {
            // Scores for this row's segment.
            let mut scores = Vec::with_capacity(hi - lo);
            for e in lo..hi {
                let j = a.indices()[e] as usize;
                let mut dot = 0.0f64;
                for k in 0..feat {
                    dot += f64::from(q.get(i, h * feat + k)) * f64::from(kt.get(h * feat + k, j));
                }
                scores.push(f64::from(a.values()[e]) * dot);
            }
            let max = scores.iter().copied().fold(f64::MIN, f64::max);
            let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
            let denom: f64 = exps.iter().sum();
            for c in 0..vfeat {
                let mut acc = 0.0f64;
                for (t, e) in (lo..hi).enumerate() {
                    let j = a.indices()[e] as usize;
                    acc += exps[t] / denom * f64::from(v.get(j, h * vfeat + c));
                }
                out.set(i, h * vfeat + c, acc as f32);
            }
        }
    }
    out
}

/// Simulator face of the fused op: the cost model prices the launch as
/// its two flop-dominant phases — the score SDDMM and the aggregation
/// SpMM (the softmax passes ride the same non-zero walk and are
/// bandwidth-negligible next to them).
#[must_use]
pub fn fused_attention_plans(
    a: &Csr,
    heads: usize,
    feat: usize,
    vfeat: usize,
    sddmm: SddmmParams,
) -> Vec<KernelPlan> {
    vec![
        sddmm_plan(a, heads * feat, sddmm, "fused_attn_score"),
        batched_csr_spmm_plan(a, vfeat, heads, "fused_attn_agg"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;

    fn operands(
        a: &Csr,
        heads: usize,
        feat: usize,
        vfeat: usize,
        seed: u64,
    ) -> (Dense, Dense, Dense) {
        let mut rng = gen::rng(seed);
        let q = gen::random_dense(a.rows(), heads * feat, &mut rng);
        let kt = gen::random_dense(heads * feat, a.cols(), &mut rng);
        let v = gen::random_dense(a.cols(), heads * vfeat, &mut rng);
        (q, kt, v)
    }

    fn bit_eq(a: &Dense, b: &Dense) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn fused_matches_reference_with_relative_epsilon() {
        let mut rng = gen::rng(31);
        let a = gen::random_csr(12, 10, 0.3, &mut rng);
        let (q, kt, v) = operands(&a, 2, 4, 3, 32);
        let rt = Runtime::new();
        let got = fused_attention_launch(&rt, &a, &q, &kt, &v, 2).unwrap();
        let want = fused_attention_reference(&a, &q, &kt, &v, 2);
        assert!(got.approx_eq(&want, 1e-4), "max |Δ| = {}", got.max_abs_diff(&want));
    }

    #[test]
    fn fused_is_bit_identical_to_three_launch_pipeline() {
        let mut rng = gen::rng(33);
        // Includes empty rows: row lengths 0..=4.
        let a = gen::random_csr_with_row_lengths(
            20,
            16,
            |r| {
                use rand::Rng;
                r.gen_range(0..5)
            },
            &mut rng,
        );
        assert!((0..a.rows()).any(|r| a.row_nnz(r) == 0), "want an empty row in the fixture");
        let (q, kt, v) = operands(&a, 3, 4, 5, 34);
        let rt = Runtime::new();
        let fused = fused_attention_launch(&rt, &a, &q, &kt, &v, 3).unwrap();
        let pipeline = attention_pipeline_launch(&rt, &a, &q, &kt, &v, 3).unwrap();
        assert!(bit_eq(&fused, &pipeline));
        // Empty rows aggregate to zero.
        for r in 0..a.rows() {
            if a.row_nnz(r) == 0 {
                assert!(fused.row(r).iter().all(|&x| x == 0.0));
            }
        }
    }

    /// The fused kernel's score pass must still hit `GatherScaleAccumulate`
    /// and its aggregation pass `AxpyLanes` — cross-op fusion composes with
    /// the microkernel layer instead of defeating it.
    #[test]
    fn fused_kernel_hits_the_microkernels() {
        let mut rng = gen::rng(35);
        let a = gen::random_csr(10, 10, 0.3, &mut rng);
        let f = fused_attention_ir(&a, 2, 4, 4).unwrap();
        let rt = Runtime::new();
        let kernel = rt.compile(&f).unwrap();
        let kinds = kernel.fused_kinds();
        assert!(
            kinds.contains(&"GatherScaleAccumulate"),
            "score pass should gather-scale-accumulate: {kinds:?}"
        );
        assert!(
            kinds.contains(&"AxpyLanes"),
            "aggregation pass should axpy over value lanes: {kinds:?}"
        );
    }

    /// `SPARSETIR_NO_FUSE` routing: a fusion-off runtime compiles the three
    /// pipeline kernels, a fusion-on runtime compiles the one fused kernel,
    /// and re-running either adds no compilations (no stale-kernel serving
    /// across the toggle — the fusion flag is part of the cache key).
    #[test]
    fn kill_switch_recompiles_instead_of_serving_stale_kernels() {
        let mut rng = gen::rng(36);
        let a = gen::random_csr(10, 10, 0.25, &mut rng);
        let (q, kt, v) = operands(&a, 2, 3, 3, 37);

        let fused_rt = Runtime::with_fusion(true);
        let fused = fused_attention_execute_on(&fused_rt, &a, &q, &kt, &v, 2).unwrap();
        assert_eq!(fused_rt.cached(), 1, "fused path is one kernel");

        let pipeline_rt = Runtime::with_fusion(false);
        let pipeline = fused_attention_execute_on(&pipeline_rt, &a, &q, &kt, &v, 2).unwrap();
        assert_eq!(pipeline_rt.cached(), 3, "pipeline path is three kernels");

        assert!(bit_eq(&fused, &pipeline));

        // Serve again on both: compile-once/run-many, no recompiles.
        let (c1, c2) = (fused_rt.compilations(), pipeline_rt.compilations());
        let _ = fused_attention_execute_on(&fused_rt, &a, &q, &kt, &v, 2).unwrap();
        let _ = fused_attention_execute_on(&pipeline_rt, &a, &q, &kt, &v, 2).unwrap();
        assert_eq!(fused_rt.compilations(), c1);
        assert_eq!(pipeline_rt.compilations(), c2);
    }

    #[test]
    fn single_head_unit_vfeat_works() {
        let mut rng = gen::rng(38);
        let a = gen::random_csr(8, 8, 0.4, &mut rng);
        let (q, kt, v) = operands(&a, 1, 4, 1, 39);
        let rt = Runtime::new();
        let got = fused_attention_launch(&rt, &a, &q, &kt, &v, 1).unwrap();
        let want = fused_attention_reference(&a, &q, &kt, &v, 1);
        assert!(got.approx_eq(&want, 1e-4));
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut rng = gen::rng(40);
        let a = gen::random_csr(8, 8, 0.4, &mut rng);
        let (q, kt, v) = operands(&a, 2, 3, 3, 41);
        let rt = Runtime::new();
        assert!(fused_attention_launch(&rt, &a, &q, &kt, &v, 0).is_err());
        let bad_q = gen::random_dense(7, 6, &mut gen::rng(42));
        assert!(fused_attention_launch(&rt, &a, &bad_q, &kt, &v, 2).is_err());
        let bad_v = gen::random_dense(8, 7, &mut gen::rng(43));
        assert!(fused_attention_launch(&rt, &a, &q, &kt, &bad_v, 2).is_err());
    }
}
