//! Cross-op fused GraphSAGE layer step: neighbor gather → degree
//! normalization → feature matmul, compiled into **one** kernel — the
//! same fusion shape as [`crate::fused_attention`], applied to the GNN
//! inference path (see [`sparsetir_core::fused::fused_sage_program`]).
//!
//! The gather pass walks each row's neighbours, accumulating `Agg[i] =
//! Σ_{j∈N(i)} X[j]` (the mean aggregator ignores edge values — it is
//! purely structural, so any CSR with the right pattern drives it); the
//! matmul pass then computes `H1 = (Agg · diag(Dinv)) · W` with the
//! per-row inverse degree folded in as a lane-invariant coefficient of the
//! `AxpyLanes` feature loop. Both are row nests: the gather over a row's
//! neighbours, the matmul over its `feat` inputs, walking `Agg[i, k] ·
//! Dinv[i]` with the factor loaded once per row. Empty rows have `Dinv =
//! 0` and aggregate to zero.
//!
//! Every library and serving call runs that one kernel
//! ([`fused_sage_execute_on`]); the two-launch pipeline survives only as
//! [`sage_pipeline_oracle`], a test reference whose gather keeps the GPU
//! schedule (`sparse_fuse` on `(I, J)`, a binary-searched row per
//! non-zero). Fused vs pipeline is bit-identical across the two loop
//! shapes (same pass bodies, same order, same executor rounding points);
//! against a per-edge-weighted
//! reference like [`sparsetir_smat::csr::Csr::spmm`] on a `1/deg`-valued
//! adjacency the grouping differs (`Σ (x/deg)` vs `(Σ x)/deg`), so that
//! comparison is relative-epsilon, not bit equality.

use crate::spec::{KernelResult, KernelSpec};
use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_smat::prelude::*;

/// Per-row inverse degrees of `a` (`0` for empty rows), the `Dinv`
/// operand of the fused SAGE kernel.
#[must_use]
pub fn inverse_degrees(a: &Csr) -> Vec<f32> {
    (0..a.rows())
        .map(|r| {
            let d = a.row_nnz(r);
            if d == 0 {
                0.0
            } else {
                1.0 / d as f32
            }
        })
        .collect()
}

/// Lower the gather → normalize → matmul step to one `PrimFunc` (two
/// passes, one kernel, each walking rows).
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn fused_sage_ir(a: &Csr, feat: usize, hidden: usize) -> KernelResult<PrimFunc> {
    KernelSpec::FusedSage { a: a.into(), feat, hidden }.build_for(a)
}

/// The fused-SAGE request-shape rule — the one check behind a serving
/// engine's admission and [`fused_sage_execute_on`]: the operands fit the
/// adjacency, and the `a.rows() × hidden` result and the
/// `a.rows() × feat` `Agg` scratch can be allocated.
///
/// # Errors
/// Describes the mismatch.
pub fn check_shapes(a: &Csr, x: &Dense, w: &Dense) -> Result<(), String> {
    if x.rows() != a.cols() || w.rows() != x.cols() {
        return Err(format!(
            "sage operands x {}x{}, w {}x{} incompatible with {}x{} adjacency",
            x.rows(),
            x.cols(),
            w.rows(),
            w.cols(),
            a.rows(),
            a.cols()
        ));
    }
    crate::check_output("Agg scratch", a.rows(), x.cols())?;
    crate::check_output("result", a.rows(), w.cols())
}

/// What the fused entry point and the pipeline oracle share: validate
/// the shapes, compile `kernels`, and launch each in order with the
/// adjacency in place, `Dinv`, the pool-drawn `Agg` intermediate, `X`, `W`
/// and the returned matrix's storage as `H1` bound into its slots.
fn with_operands<const K: usize>(
    rt: &Runtime,
    a: &Csr,
    x: &Dense,
    w: &Dense,
    kernels: impl FnOnce() -> KernelResult<[std::sync::Arc<CompiledKernel>; K]>,
) -> KernelResult<Dense> {
    check_shapes(a, x, w).map_err(|e| format!("fused sage: {e}"))?;
    let mut out = Dense::zeros(a.rows(), w.cols());
    let dinv = inverse_degrees(a);
    let mut launch = LaunchBindings::new(rt.pool(), a, None, [a.rows() * x.cols()]);
    for kernel in kernels()? {
        let mut views = launch.views(&kernel, ["Agg"]);
        views.bind_slice("Dinv", &dinv);
        views.bind_slice("X", x.data());
        views.bind_slice("W", w.data());
        views.bind_slice_mut("H1", out.data_mut());
        kernel.run_views(&mut views)?;
    }
    Ok(out)
}

/// Serve the fused SAGE layer step `H1 = (A_structural · X / deg) · W`
/// through `rt` in **one** kernel launch — the only executable fused-SAGE
/// entry point. The adjacency binds in place, and `X`, `W` and the result
/// as flat slices of the caller's operands and the returned matrix
/// (nothing is copied); the `Agg` intermediate comes from the runtime's
/// [`BufferPool`].
///
/// # Errors
/// Returns an error on operand-shape mismatches and propagates
/// lowering/execution errors.
pub fn fused_sage_execute_on(rt: &Runtime, a: &Csr, x: &Dense, w: &Dense) -> KernelResult<Dense> {
    let spec = KernelSpec::FusedSage { a: a.into(), feat: x.cols(), hidden: w.cols() };
    with_operands(rt, a, x, w, || Ok([spec.compile_on(rt)?]))
}

/// **Test reference, not a serving path:** the same layer step as two
/// launches (gather kernel, then normalize+matmul kernel) over the
/// operands [`fused_sage_execute_on`] takes, bit-identical to it. `Agg`
/// stays in place between the two launches. Compiles two kernels on
/// `rt` where the fused entry point compiles one.
///
/// # Errors
/// As [`fused_sage_execute_on`].
pub fn sage_pipeline_oracle(rt: &Runtime, a: &Csr, x: &Dense, w: &Dense) -> KernelResult<Dense> {
    let (feat, hidden) = (x.cols(), w.cols());
    with_operands(rt, a, x, w, || {
        let matmul = lower(&sage_matmul_program(a.rows(), feat, hidden))?;
        Ok([rt.compile(&sage_gather_ir(a, feat)?)?, rt.compile(&matmul)?])
    })
}

/// The pipeline oracle's gather launch: the gather pass alone, lowered with
/// the GPU schedule — `sparse_fuse` on `(I, J)`, one loop over the
/// non-zeros with a binary-searched row each — so the oracle checks the
/// served row-shaped kernel across loop shapes.
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub(crate) fn sage_gather_ir(a: &Csr, feat: usize) -> KernelResult<PrimFunc> {
    let mut gather = sage_gather_program(a.rows(), a.cols(), a.nnz(), feat);
    sparse_fuse(&mut gather, "gather", &["I", "J"])?;
    Ok(lower(&gather)?)
}

/// Pure-Rust f64 reference for relative-epsilon validation: mean-of-
/// neighbors aggregation followed by the dense feature transform.
#[must_use]
pub fn fused_sage_reference(a: &Csr, x: &Dense, w: &Dense) -> Dense {
    let (feat, hidden) = (x.cols(), w.cols());
    let dinv = inverse_degrees(a);
    let mut out = Dense::zeros(a.rows(), hidden);
    for (i, &di) in dinv.iter().enumerate() {
        let mut agg = vec![0.0f64; feat];
        for e in a.indptr()[i]..a.indptr()[i + 1] {
            let j = a.indices()[e] as usize;
            for (k, slot) in agg.iter_mut().enumerate() {
                *slot += f64::from(x.get(j, k));
            }
        }
        for o in 0..hidden {
            let mut acc = 0.0f64;
            for (k, &v) in agg.iter().enumerate() {
                acc += v * f64::from(di) * f64::from(w.get(k, o));
            }
            out.set(i, o, acc as f32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;

    fn bit_eq(a: &Dense, b: &Dense) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn fused_matches_reference_and_pipeline() {
        let mut rng = gen::rng(50);
        let a = gen::random_csr_with_row_lengths(
            16,
            14,
            |r| {
                use rand::Rng;
                r.gen_range(0..5)
            },
            &mut rng,
        );
        let x = gen::random_dense(14, 6, &mut rng);
        let w = gen::random_dense(6, 4, &mut rng);
        let fused = fused_sage_execute_on(&Runtime::new(), &a, &x, &w).unwrap();
        let pipeline = sage_pipeline_oracle(&Runtime::new(), &a, &x, &w).unwrap();
        assert!(bit_eq(&fused, &pipeline), "fused vs pipeline must be bit-identical");
        let reference = fused_sage_reference(&a, &x, &w);
        assert!(fused.approx_eq(&reference, 1e-4), "max |Δ| = {}", fused.max_abs_diff(&reference));
        for r in 0..a.rows() {
            if a.row_nnz(r) == 0 {
                assert!(fused.row(r).iter().all(|&v| v == 0.0), "empty row {r} must stay zero");
            }
        }
    }

    /// (Named for the switch the oracle function replaced.)
    #[test]
    fn kill_switch_routes_to_the_pipeline() {
        let mut rng = gen::rng(51);
        let a = gen::random_csr(10, 10, 0.3, &mut rng);
        let x = gen::random_dense(10, 4, &mut rng);
        let w = gen::random_dense(4, 3, &mut rng);
        let (fused_rt, pipeline_rt) = (Runtime::new(), Runtime::new());
        let fused = fused_sage_execute_on(&fused_rt, &a, &x, &w).unwrap();
        let pipeline = sage_pipeline_oracle(&pipeline_rt, &a, &x, &w).unwrap();
        assert_eq!(fused_rt.cached(), 1, "fused path is one kernel");
        assert_eq!(pipeline_rt.cached(), 2, "pipeline oracle is two kernels");
        assert!(bit_eq(&fused, &pipeline));
    }

    #[test]
    fn gather_pass_hits_axpy_lanes() {
        let mut rng = gen::rng(52);
        let a = gen::random_csr(10, 10, 0.3, &mut rng);
        let f = fused_sage_ir(&a, 8, 4).unwrap();
        let kernel = Runtime::new().compile(&f).unwrap();
        let kinds = kernel.fused_kinds();
        assert!(
            kinds.iter().filter(|k| **k == "AxpyLanes").count() >= 2,
            "gather and matmul passes should both axpy over lanes: {kinds:?}"
        );
    }

    /// Zero-width operands bind as zero-width views: no panic, a zero (or
    /// empty) result from the fused kernel and the pipeline oracle.
    #[test]
    fn zero_width_operands_are_served() {
        let mut rng = gen::rng(54);
        let a = gen::random_csr(6, 6, 0.4, &mut rng);
        let rt = Runtime::new();
        for entry in [fused_sage_execute_on, sage_pipeline_oracle] {
            let no_feat = entry(&rt, &a, &Dense::zeros(6, 0), &Dense::zeros(0, 3)).unwrap();
            assert_eq!((no_feat.rows(), no_feat.cols()), (6, 3));
            assert!(no_feat.data().iter().all(|&v| v == 0.0));
            let x = gen::random_dense(6, 2, &mut rng);
            let no_hidden = entry(&rt, &a, &x, &Dense::zeros(2, 0)).unwrap();
            assert_eq!((no_hidden.rows(), no_hidden.cols()), (6, 0));
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut rng = gen::rng(53);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let x = gen::random_dense(7, 4, &mut rng);
        let w = gen::random_dense(4, 3, &mut rng);
        let rt = Runtime::new();
        assert!(fused_sage_execute_on(&rt, &a, &x, &w).is_err());
        assert_eq!(rt.compilations(), 0, "rejected before anything compiles");
    }
}
