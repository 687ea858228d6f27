//! Cross-op fused GraphSAGE layer step: neighbor gather → degree
//! normalization → feature matmul, compiled into **one** kernel — the
//! same fusion shape as [`crate::fused_attention`], applied to the GNN
//! inference path (see [`sparsetir_core::fused::fused_sage_program`]).
//!
//! The gather pass walks the adjacency's non-zero range once with the
//! fused binary-searched row recovery, accumulating `Agg[i] = Σ_{j∈N(i)}
//! X[j]` (the mean aggregator ignores edge values — it is purely
//! structural, so any CSR with the right pattern drives it); the matmul
//! pass then computes `H1 = (Agg · diag(Dinv)) · W` with the per-row
//! inverse degree folded in as a lane-invariant coefficient of the
//! `AxpyLanes` feature loop. Empty rows have `Dinv = 0` and aggregate
//! to zero.
//!
//! Fused vs two-launch pipeline is bit-identical (same pass bodies, same
//! order, same executor rounding points); against a per-edge-weighted
//! reference like [`sparsetir_smat::csr::Csr::spmm`] on a `1/deg`-valued
//! adjacency the grouping differs (`Σ (x/deg)` vs `(Σ x)/deg`), so that
//! comparison is relative-epsilon, not bit equality.

use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_smat::prelude::*;
use std::collections::HashMap;

type KernelResult<T> = Result<T, Box<dyn std::error::Error>>;

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
/// passes, one kernel; the gather pass `sparse_fuse`d on `(I, J)`).
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn fused_sage_ir(a: &Csr, feat: usize, hidden: usize) -> KernelResult<PrimFunc> {
    let mut program = fused_sage_program(a.rows(), a.cols(), a.nnz(), feat, hidden);
    sparse_fuse(&mut program, "gather", &["I", "J"])?;
    Ok(lower(&program)?)
}

fn check_shapes(a: &Csr, x: &Dense, w: &Dense) -> KernelResult<()> {
    if x.rows() != a.cols() || w.rows() != x.cols() {
        return Err(format!(
            "fused sage: operand shapes x {}x{}, w {}x{} vs adjacency {}x{}",
            x.rows(),
            x.cols(),
            w.rows(),
            w.cols(),
            a.rows(),
            a.cols()
        )
        .into());
    }
    Ok(())
}

/// Run the fused SAGE layer step as **one** kernel launch:
/// `H1 = (A_structural · X / deg) · W`.
///
/// # Errors
/// Returns an error on operand-shape mismatches and propagates
/// lowering/execution errors.
pub fn fused_sage_launch(rt: &Runtime, a: &Csr, x: &Dense, w: &Dense) -> KernelResult<Dense> {
    check_shapes(a, x, w)?;
    let (feat, hidden) = (x.cols(), w.cols());
    let f = fused_sage_ir(a, feat, hidden)?;
    let mut bindings = Bindings::new();
    bind_csr(&mut bindings, "A", "J", a);
    bind_dense(&mut bindings, "X", x);
    bind_dense(&mut bindings, "W", w);
    bindings.insert("Dinv".to_string(), TensorData::from(inverse_degrees(a)));
    bind_zeros(&mut bindings, "Agg", a.rows() * feat);
    bind_zeros(&mut bindings, "H1", a.rows() * hidden);
    rt.compile(&f)?.run(&HashMap::new(), &mut bindings)?;
    Ok(take_dense(&mut bindings, "H1", a.rows(), hidden))
}

/// Run the same layer step as the two-launch pipeline (gather kernel,
/// then normalize+matmul kernel) — the `SPARSETIR_NO_FUSE` fallback and
/// the fused kernel's bit-identity oracle.
///
/// # Errors
/// Returns an error on operand-shape mismatches and propagates
/// lowering/execution errors.
pub fn fused_sage_pipeline_launch(
    rt: &Runtime,
    a: &Csr,
    x: &Dense,
    w: &Dense,
) -> KernelResult<Dense> {
    check_shapes(a, x, w)?;
    let (feat, hidden) = (x.cols(), w.cols());

    let mut gather = sage_gather_program(a.rows(), a.cols(), a.nnz(), feat);
    sparse_fuse(&mut gather, "gather", &["I", "J"])?;
    let gather = lower(&gather)?;
    let mut b1 = Bindings::new();
    bind_csr(&mut b1, "A", "J", a);
    bind_dense(&mut b1, "X", x);
    bind_zeros(&mut b1, "Agg", a.rows() * feat);
    rt.compile(&gather)?.run(&HashMap::new(), &mut b1)?;
    let agg = take_values(&mut b1, "Agg");

    let matmul = lower(&sage_matmul_program(a.rows(), feat, hidden))?;
    let mut b2 = Bindings::new();
    b2.insert("Agg".to_string(), TensorData::from(agg));
    b2.insert("Dinv".to_string(), TensorData::from(inverse_degrees(a)));
    bind_dense(&mut b2, "W", w);
    bind_zeros(&mut b2, "H1", a.rows() * hidden);
    rt.compile(&matmul)?.run(&HashMap::new(), &mut b2)?;
    Ok(take_dense(&mut b2, "H1", a.rows(), hidden))
}

/// Serve the fused SAGE layer step through `rt`, routing on the
/// runtime's fusion flag (the `SPARSETIR_NO_FUSE` kill switch falls back
/// to the two-launch pipeline). Both paths are bit-identical.
///
/// # Errors
/// Returns an error on operand-shape mismatches and propagates
/// lowering/execution errors.
pub fn fused_sage_execute_on(rt: &Runtime, a: &Csr, x: &Dense, w: &Dense) -> KernelResult<Dense> {
    if rt.fusion() {
        fused_sage_launch(rt, a, x, w)
    } else {
        fused_sage_pipeline_launch(rt, a, x, w)
    }
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
        let rt = Runtime::new();
        let fused = fused_sage_launch(&rt, &a, &x, &w).unwrap();
        let pipeline = fused_sage_pipeline_launch(&rt, &a, &x, &w).unwrap();
        assert!(bit_eq(&fused, &pipeline), "fused vs pipeline must be bit-identical");
        let reference = fused_sage_reference(&a, &x, &w);
        assert!(fused.approx_eq(&reference, 1e-4), "max |Δ| = {}", fused.max_abs_diff(&reference));
        for r in 0..a.rows() {
            if a.row_nnz(r) == 0 {
                assert!(fused.row(r).iter().all(|&v| v == 0.0), "empty row {r} must stay zero");
            }
        }
    }

    #[test]
    fn kill_switch_routes_to_the_pipeline() {
        let mut rng = gen::rng(51);
        let a = gen::random_csr(10, 10, 0.3, &mut rng);
        let x = gen::random_dense(10, 4, &mut rng);
        let w = gen::random_dense(4, 3, &mut rng);
        let on = Runtime::with_fusion(true);
        let off = Runtime::with_fusion(false);
        let yes = fused_sage_execute_on(&on, &a, &x, &w).unwrap();
        let no = fused_sage_execute_on(&off, &a, &x, &w).unwrap();
        assert_eq!(on.cached(), 1, "fused path is one kernel");
        assert_eq!(off.cached(), 2, "pipeline path is two kernels");
        assert!(bit_eq(&yes, &no));
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

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut rng = gen::rng(53);
        let a = gen::random_csr(8, 8, 0.3, &mut rng);
        let x = gen::random_dense(7, 4, &mut rng);
        let w = gen::random_dense(4, 3, &mut rng);
        assert!(fused_sage_launch(&Runtime::new(), &a, &x, &w).is_err());
    }
}
