//! Cross-op fused sparse attention: SDDMM → edge-softmax → SpMM compiled
//! into **one** kernel (see [`sparsetir_core::fused`] for the Stage I
//! programs). Fusion is not a mode: every library and serving call runs
//! that one kernel. The three-launch pipeline survives only as
//! [`attention_pipeline_oracle`], the bit-identity reference tests and
//! examples compare the fused kernel against.
//!
//! The one executable entry point, [`fused_attention_views_on`], takes
//! *per-head* operands and runs the one-head kernel once per head, each
//! head's `Q` (`m × feat`), `KT` (`feat × n`), `V` (`n × vfeat`) and output
//! (`m × vfeat`) bound as flat slices of its own storage. The
//! multi-head program ([`fused_attention_ir`] at `heads > 1`) is written
//! against the logical stacked tensors — `Q` `m × heads·feat` with head
//! `h` owning `feat` consecutive columns, `KT` `heads·feat × n` with the
//! heads' key transposes stacked row-wise, `V` `n × heads·vfeat` and the
//! output `m × heads·vfeat` column-stacked — and is what the pipeline
//! oracle and the tests bind. A served request is a list of [`AttnHead`]s
//! and one entry-point call: the adjacency and scratch bind once, and each
//! head re-binds its operands and output and launches.
//!
//! ## Numerical contract
//!
//! The fused kernel and the three-launch pipeline run *identical pass
//! bodies* (built by the same Stage I pass builders) in the same order
//! over the same `(non-zero, head)` points, under the same executor
//! semantics (`f32` arithmetic, `exp` evaluated as one `f32::exp` in both
//! paths) — so fused output is **bit-identical** to
//! the pipeline, `exp` path included. The loop shapes differ on purpose:
//! the fused kernel walks rows (the CPU schedule), the pipeline keeps the
//! GPU schedule, `sparse_fuse` on `(I, J)` — one loop over the non-zeros,
//! each recovering its row by binary search — so the comparison spans two
//! schedules of one Stage I program. At one head all five passes of the
//! fused kernel run as row nests: the score a gather-scale-accumulate,
//! `rowmax` a running-maximum accumulate, `exp` an `exp(S − M)` map,
//! `psum` and the aggregation AXPYs (see `sparsetir_core::fused` for the
//! pass structure). In the multi-head program the three softmax passes
//! stay nests (the head loop is their lanes); the score and the
//! aggregation are per-`(non-zero, head)` superinstructions. The
//! pure-Rust [`fused_attention_reference`] accumulates in f64 without
//! intermediate f32 rounding, so kernels are validated against it with a
//! relative epsilon (documented at the call sites) rather than bit
//! equality.
//!
//! Rows with no non-zeros aggregate to zero (no pass body executes for
//! them, so the output keeps its zero binding and the softmax division
//! is never evaluated there); for non-empty rows the partition sum is
//! ≥ 1 by max-shifting, so the folded `P/Sum` coefficient is safe.

use crate::spec::{KernelResult, KernelSpec};
use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_smat::prelude::*;

/// One attention head's operands: query, transposed key and value
/// projections against the shared mask.
#[derive(Debug, Clone)]
pub struct AttnHead {
    /// Queries (`rows × k`).
    pub q: Dense,
    /// Transposed keys (`k × cols`).
    pub kt: Dense,
    /// Values (`cols × vfeat`).
    pub v: Dense,
}

/// Lower the whole attention pipeline to one `PrimFunc`: five passes
/// (score / rowmax / exp / psum / agg), each walking the adjacency row by
/// row — one compiled kernel, one launch. At one head it is the kernel
/// [`fused_attention_views_on`] runs per head.
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn fused_attention_ir(
    a: &Csr,
    heads: usize,
    feat: usize,
    vfeat: usize,
) -> KernelResult<PrimFunc> {
    Ok(lower(&fused_attention_program(a.rows(), a.cols(), a.nnz(), heads, feat, vfeat))?)
}

/// Pipeline launch 1 of 3: the score SDDMM alone (same pass body as the
/// fused kernel's first pass), under the GPU schedule like the other two:
/// `sparse_fuse`d on `(I, J)`.
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn attention_score_ir(a: &Csr, heads: usize, feat: usize) -> KernelResult<PrimFunc> {
    let mut program = attention_score_program(a.rows(), a.cols(), a.nnz(), heads, feat);
    sparse_fuse(&mut program, "score", &["I", "J"])?;
    Ok(lower(&program)?)
}

/// Pipeline launch 2 of 3: edge-softmax (rowmax, exp and psum passes)
/// over per-non-zero scores.
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn edge_softmax_ir(a: &Csr, heads: usize) -> KernelResult<PrimFunc> {
    let mut program = edge_softmax_program(a.rows(), a.cols(), a.nnz(), heads);
    for pass in ["rowmax", "exp", "psum"] {
        sparse_fuse(&mut program, pass, &["I", "J"])?;
    }
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

/// The fused-attention head-shape rule — the one check behind a serving
/// engine's admission and [`fused_attention_views_on`]: every `(q, kt, v)`
/// head fits the adjacency, its `a.rows() × vfeat` output can be
/// allocated, and all heads share one `(k, vfeat)`.
///
/// # Errors
/// Describes the first offending head.
pub fn check_heads<'a>(
    a: &Csr,
    heads: impl IntoIterator<Item = (&'a Dense, &'a Dense, &'a Dense)>,
) -> Result<(), String> {
    let mut shape = None;
    for (h, (q, kt, v)) in heads.into_iter().enumerate() {
        if q.rows() != a.rows()
            || kt.rows() != q.cols()
            || kt.cols() != a.cols()
            || v.rows() != a.cols()
        {
            return Err(format!(
                "head {h}: q {}x{}, kt {}x{}, v {}x{} incompatible with {}x{} adjacency",
                q.rows(),
                q.cols(),
                kt.rows(),
                kt.cols(),
                v.rows(),
                v.cols(),
                a.rows(),
                a.cols()
            ));
        }
        crate::check_output("output", a.rows(), v.cols()).map_err(|e| format!("head {h}: {e}"))?;
        let first = *shape.get_or_insert((q.cols(), v.cols()));
        if first != (q.cols(), v.cols()) {
            return Err(format!(
                "head {h}: shape ({}, {}) differs from head 0's {first:?} — all heads of one \
                 launch must share (k, vfeat)",
                q.cols(),
                v.cols()
            ));
        }
    }
    Ok(())
}

/// What the fused entry point and the pipeline oracle check before they
/// launch: at least one head, one `(q, kt, v)` triple per output, heads
/// that fit the adjacency and share one shape, and outputs of that shape.
/// Returns the head shape `(k, vfeat)`.
fn check_launch(
    a: &Csr,
    (qs, kts, vs): (&[&Dense], &[&Dense], &[&Dense]),
    outs: &[Dense],
) -> KernelResult<(usize, usize)> {
    let heads = qs.len();
    if heads == 0 {
        return Err("fused attention: zero heads".into());
    }
    if kts.len() != heads || vs.len() != heads || outs.len() != heads {
        return Err(format!(
            "fused attention: {heads} q, {} kt, {} v operands for {} outputs",
            kts.len(),
            vs.len(),
            outs.len()
        )
        .into());
    }
    check_heads(a, qs.iter().zip(kts).zip(vs).map(|((q, kt), v)| (*q, *kt, *v)))
        .map_err(|e| format!("fused attention: {e}"))?;
    let (k, vfeat) = (qs[0].cols(), vs[0].cols());
    if let Some((h, o)) =
        outs.iter().enumerate().find(|(_, o)| (o.rows(), o.cols()) != (a.rows(), vfeat))
    {
        let rows = a.rows();
        return Err(format!(
            "fused attention: output {h} is {}x{}, expected {rows}x{vfeat}",
            o.rows(),
            o.cols()
        )
        .into());
    }
    Ok((k, vfeat))
}

/// Serve multi-head attention — the only executable fused-attention entry
/// point: the one-head fused kernel is compiled and the adjacency bound
/// once, in place, then the kernel runs once per head on that head's
/// `qs[h]` (`rows × k`), `kts[h]` (`k × cols`) and `vs[h]` (`cols ×
/// vfeat`), bound as flat slices of the rider's own storage, and writes the
/// head's aggregation directly into `outs[h]` (`rows × vfeat`,
/// zero-filled). The softmax intermediates `S`/`M`/`P`/`Sum` come from the
/// runtime's [`BufferPool`] instead of fresh allocations, one head's
/// worth, which every head's launch overwrites before it reads. A head's
/// launch is the one it would make alone, so results are bit-identical to
/// it.
///
/// # Errors
/// Rejects zero heads, slices of different lengths, heads that do not
/// fit the adjacency or mix `(k, vfeat)` and mis-sized outputs;
/// propagates lowering and execution errors.
pub fn fused_attention_views_on(
    rt: &Runtime,
    a: &Csr,
    qs: &[&Dense],
    kts: &[&Dense],
    vs: &[&Dense],
    outs: &mut [Dense],
) -> KernelResult<()> {
    let (k, vfeat) = check_launch(a, (qs, kts, vs), outs)?;
    let kernel = KernelSpec::FusedAttention { a: a.into(), k, vfeat }.compile_on(rt)?;
    let mut launch =
        LaunchBindings::new(rt.pool(), a, None, [a.nnz(), a.rows(), a.nnz(), a.rows()]);
    let mut views = launch.views(&kernel, ["S", "M", "P", "Sum"]);
    for (h, out) in outs.iter_mut().enumerate() {
        views.bind_slice("Q", qs[h].data());
        views.bind_slice("KT", kts[h].data());
        views.bind_slice("V", vs[h].data());
        views.bind_slice_mut("Out", out.data_mut());
        kernel.run_views(&mut views)?;
    }
    Ok(())
}

/// **Test reference, not a serving path:** the same attention as three
/// launches (score SDDMM, edge-softmax, aggregation) of the multi-head
/// programs over the operands [`fused_attention_views_on`] takes — the
/// heads' `Q`, `KT` and `V` copied into the stacked tensors the programs
/// are written against, and the stacked `Out` split back into the outputs
/// after the last launch — bit-identical to it (see the module docs). Each
/// launch binds the same storage into its kernel's slots, so the
/// intermediates (`S`, then `P`/`Sum`, pool scratch) stay in place between
/// them instead of round-tripping through fresh copies. Compiles three
/// kernels on `rt` where the fused entry point compiles one.
///
/// # Errors
/// As [`fused_attention_views_on`].
pub fn attention_pipeline_oracle(
    rt: &Runtime,
    a: &Csr,
    qs: &[&Dense],
    kts: &[&Dense],
    vs: &[&Dense],
    outs: &mut [Dense],
) -> KernelResult<()> {
    let (k, w) = check_launch(a, (qs, kts, vs), outs)?;
    let heads = qs.len();
    let (q, v) = (stack_cols(qs), stack_cols(vs));
    let kt: Vec<f32> = kts.iter().flat_map(|kt| kt.data()).copied().collect();
    let mut out = vec![0.0f32; a.rows() * heads * w];
    let (nnz, rows) = (a.nnz() * heads, a.rows() * heads);
    let mut launch = LaunchBindings::new(rt.pool(), a, None, [nnz, rows, nnz, rows]);
    for f in [
        attention_score_ir(a, heads, k)?,
        edge_softmax_ir(a, heads)?,
        attention_aggregate_ir(a, heads, w)?,
    ] {
        let kernel = rt.compile(&f)?;
        let mut views = launch.views(&kernel, ["S", "M", "P", "Sum"]);
        views.bind_slice("Q", &q);
        views.bind_slice("KT", &kt);
        views.bind_slice("V", &v);
        views.bind_slice_mut("Out", &mut out);
        kernel.run_views(&mut views)?;
    }
    for (h, o) in outs.iter_mut().enumerate() {
        for r in 0..a.rows() {
            let at = (r * heads + h) * w;
            o.data_mut()[r * w..(r + 1) * w].copy_from_slice(&out[at..at + w]);
        }
    }
    Ok(())
}

/// The heads' `rows × w` operands side by side: one row-major
/// `rows × heads·w` tensor, head `h` owning columns `[h·w, (h + 1)·w)`.
fn stack_cols(heads: &[&Dense]) -> Vec<f32> {
    let (rows, w) = (heads[0].rows(), heads[0].cols());
    (0..rows)
        .flat_map(|r| heads.iter().flat_map(move |h| &h.data()[r * w..(r + 1) * w]))
        .copied()
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;

    type Head = (Dense, Dense, Dense);

    fn heads(a: &Csr, n: usize, feat: usize, vfeat: usize, seed: u64) -> Vec<Head> {
        let mut rng = gen::rng(seed);
        (0..n)
            .map(|_| {
                (
                    gen::random_dense(a.rows(), feat, &mut rng),
                    gen::random_dense(feat, a.cols(), &mut rng),
                    gen::random_dense(a.cols(), vfeat, &mut rng),
                )
            })
            .collect()
    }

    type Entry =
        fn(&Runtime, &Csr, &[&Dense], &[&Dense], &[&Dense], &mut [Dense]) -> KernelResult<()>;

    /// `entry` over `heads` into fresh zeroed outputs.
    fn launch_on(entry: Entry, rt: &Runtime, a: &Csr, heads: &[Head]) -> KernelResult<Vec<Dense>> {
        let qs: Vec<&Dense> = heads.iter().map(|h| &h.0).collect();
        let kts: Vec<&Dense> = heads.iter().map(|h| &h.1).collect();
        let vs: Vec<&Dense> = heads.iter().map(|h| &h.2).collect();
        let mut outs: Vec<Dense> =
            heads.iter().map(|h| Dense::zeros(a.rows(), h.2.cols())).collect();
        entry(rt, a, &qs, &kts, &vs, &mut outs)?;
        Ok(outs)
    }

    /// One fused launch.
    fn launch(rt: &Runtime, a: &Csr, heads: &[Head]) -> KernelResult<Vec<Dense>> {
        launch_on(fused_attention_views_on, rt, a, heads)
    }

    /// The three-launch pipeline oracle.
    fn pipeline(rt: &Runtime, a: &Csr, heads: &[Head]) -> KernelResult<Vec<Dense>> {
        launch_on(attention_pipeline_oracle, rt, a, heads)
    }

    fn bit_eq(a: &[Dense], b: &[Dense]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(a, b)| {
                (a.rows(), a.cols()) == (b.rows(), b.cols())
                    && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }

    fn assert_matches_reference(a: &Csr, heads: &[Head], got: &[Dense]) {
        for ((q, kt, v), got) in heads.iter().zip(got) {
            let want = fused_attention_reference(a, q, kt, v, 1);
            assert!(got.approx_eq(&want, 1e-4), "max |Δ| = {}", got.max_abs_diff(&want));
        }
    }

    #[test]
    fn fused_matches_reference_with_relative_epsilon() {
        let mut rng = gen::rng(31);
        let a = gen::random_csr(12, 10, 0.3, &mut rng);
        let hs = heads(&a, 2, 4, 3, 32);
        let got = launch(&Runtime::new(), &a, &hs).unwrap();
        assert_matches_reference(&a, &hs, &got);
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
        let hs = heads(&a, 3, 4, 5, 34);
        let fused = launch(&Runtime::new(), &a, &hs).unwrap();
        let pipeline = pipeline(&Runtime::new(), &a, &hs).unwrap();
        assert!(bit_eq(&fused, &pipeline));
        // Empty rows aggregate to zero.
        for r in 0..a.rows() {
            if a.row_nnz(r) == 0 {
                assert!(fused.iter().all(|out| out.row(r).iter().all(|&x| x == 0.0)));
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

    /// (Named for the switch the oracle function replaced.) The entry
    /// point compiles the one fused kernel, the pipeline oracle its three
    /// kernels, and re-running either adds no compilations.
    #[test]
    fn kill_switch_recompiles_instead_of_serving_stale_kernels() {
        let mut rng = gen::rng(36);
        let a = gen::random_csr(10, 10, 0.25, &mut rng);
        let hs = heads(&a, 2, 3, 3, 37);

        let fused_rt = Runtime::new();
        let fused = launch(&fused_rt, &a, &hs).unwrap();
        assert_eq!(fused_rt.cached(), 1, "fused path is one kernel");

        let pipeline_rt = Runtime::new();
        let piped = pipeline(&pipeline_rt, &a, &hs).unwrap();
        assert_eq!(pipeline_rt.cached(), 3, "pipeline oracle is three kernels");

        assert!(bit_eq(&fused, &piped));

        // Run again on both: compile-once/run-many, no recompiles.
        let (c1, c2) = (fused_rt.compilations(), pipeline_rt.compilations());
        let _ = launch(&fused_rt, &a, &hs).unwrap();
        let _ = pipeline(&pipeline_rt, &a, &hs).unwrap();
        assert_eq!(fused_rt.compilations(), c1);
        assert_eq!(pipeline_rt.compilations(), c2);
    }

    /// A batch of heads — one request's, or several requests' folded into
    /// one launch — is bit-identical to launching each head alone, and
    /// each agrees with the f64 reference.
    #[test]
    fn a_batch_of_heads_is_bit_identical_to_solo_launches() {
        let mut rng = gen::rng(81);
        let a = gen::random_csr(14, 12, 0.25, &mut rng);
        let hs = heads(&a, 3, 4, 3, 82);
        let rt = Runtime::new();
        let batched = launch(&rt, &a, &hs).unwrap();
        for (head, got) in hs.iter().zip(&batched) {
            let solo = launch(&rt, &a, std::slice::from_ref(head)).unwrap();
            assert!(bit_eq(std::slice::from_ref(got), &solo), "batched must equal solo");
        }
        assert_matches_reference(&a, &hs, &batched);
        assert_eq!(rt.cached(), 1, "every head runs the one-head kernel");
    }

    #[test]
    fn single_head_unit_vfeat_works() {
        let mut rng = gen::rng(38);
        let a = gen::random_csr(8, 8, 0.4, &mut rng);
        let hs = heads(&a, 1, 4, 1, 39);
        let got = launch(&Runtime::new(), &a, &hs).unwrap();
        assert_matches_reference(&a, &hs, &got);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut rng = gen::rng(40);
        let a = gen::random_csr(8, 8, 0.4, &mut rng);
        let hs = heads(&a, 2, 3, 3, 41);
        let rt = Runtime::new();
        let err = |heads: &[Head]| launch(&rt, &a, heads).expect_err("rejected").to_string();
        assert!(err(&[]).contains("zero heads"));
        let mut bad_q = hs.clone();
        bad_q[1].0 = gen::random_dense(7, 3, &mut gen::rng(42));
        assert!(err(&bad_q).contains("head 1"), "{}", err(&bad_q));
        let mut bad_v = hs.clone();
        bad_v[0].2 = gen::random_dense(7, 3, &mut gen::rng(43));
        assert!(err(&bad_v).contains("head 0"));
        // Mixed (k, vfeat) in one launch must not compile at head 0's shape.
        let mut mixed = hs.clone();
        mixed.extend(heads(&a, 1, 3, 5, 44));
        assert!(err(&mixed).contains("head 2: shape (3, 5)"), "{}", err(&mixed));
        // Slice lengths are checked, not indexed.
        let (q, kt, v) = &hs[0];
        let e = fused_attention_views_on(&rt, &a, &[q], &[kt, kt], &[v], &mut [Dense::zeros(8, 3)])
            .expect_err("length mismatch");
        assert!(e.to_string().contains("1 q, 2 kt, 1 v operands for 1 outputs"), "{e}");
        // Outputs bind as flat slices: a mis-shaped one is refused by
        // shape, one too wide as well as one too short.
        for out in [Dense::zeros(8, 4), Dense::zeros(7, 3)] {
            let shape = format!("output 0 is {}x{}, expected 8x3", out.rows(), out.cols());
            let e = fused_attention_views_on(&rt, &a, &[q], &[kt], &[v], &mut [out])
                .expect_err("mis-shaped output");
            assert!(e.to_string().contains(&shape), "{e}");
        }
        assert_eq!(rt.compilations(), 0, "rejected before anything compiles");
    }
}
