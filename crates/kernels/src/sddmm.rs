//! SparseTIR SDDMM kernels (§4.2.2) as the CPU compiles them: the
//! row-shaped one-head kernel the served path launches ([`sddmm_ir`]),
//! once per rider of a batch, and [`batched_sddmm_ir`], its multi-head
//! Stage I program, kept as a test and oracle builder. The paper's
//! non-zero-parallel schedule — `sparse_fuse` on `(I, J)`, the GPU's load
//! balancing — is priced by `sparsetir_plans` and kept here only as a test
//! oracle.

use crate::spec::KernelSpec;
use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;
use sparsetir_smat::prelude::*;

/// The one-head SDDMM (`X`, `Y`, `Bout` flat, as [`batched_sddmm_ir`]
/// lays them out at one head): the kernel the served path runs for every
/// rider.
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn sddmm_ir(a: &Csr, feat: usize) -> Result<PrimFunc, Box<dyn std::error::Error>> {
    KernelSpec::Sddmm { a: a.into(), k: feat }.build_for(a)
}

/// The SDDMM request-shape rule — the one check behind a serving
/// engine's admission and [`sddmm_execute_views_on`].
///
/// # Errors
/// Describes the mismatch.
pub fn check_shapes(a: &Csr, x: &Dense, y: &Dense) -> Result<(), String> {
    if x.rows() != a.rows() || y.cols() != a.cols() || y.rows() != x.cols() {
        return Err(format!(
            "sddmm operands {}x{} · {}x{} incompatible with {}x{} adjacency",
            x.rows(),
            x.cols(),
            y.rows(),
            y.cols(),
            a.rows(),
            a.cols()
        ));
    }
    Ok(())
}

/// Execute a batch of SDDMM requests — the only executable SDDMM entry
/// point, for one request or many: the one-head kernel is compiled and the
/// adjacency bound once, then the kernel runs once per request on its own
/// operands, bound as flat slices of the request's storage, and writes its
/// per-non-zero scores directly into `outs[h]` (which must hold `a.nnz()`
/// elements, zero-filled). All requests must share the inner width `k`.
/// Each request's launch is the one it would make alone, so results are
/// bit-identical to running it alone, and a rider costs what a solo launch
/// does.
///
/// # Errors
/// Rejects an empty batch, `reqs`/`outs` of different lengths, operands
/// incompatible with the adjacency, mixed inner widths and mis-sized
/// outputs; propagates lowering and execution errors.
pub fn sddmm_execute_views_on(
    rt: &Runtime,
    a: &Csr,
    reqs: &[(Dense, Dense)],
    outs: &mut [Vec<f32>],
) -> Result<(), Box<dyn std::error::Error>> {
    let Some((first, _)) = reqs.first() else {
        return Err("sddmm: empty batch".into());
    };
    let k = first.cols();
    if reqs.len() != outs.len() {
        return Err(format!("sddmm: {} requests for {} outputs", reqs.len(), outs.len()).into());
    }
    for (i, ((x, y), out)) in reqs.iter().zip(outs.iter()).enumerate() {
        check_shapes(a, x, y).map_err(|e| format!("sddmm request {i}: {e}"))?;
        if x.cols() != k {
            return Err(format!(
                "sddmm request {i}: inner width {} differs from request 0's {k}",
                x.cols()
            )
            .into());
        }
        if out.len() != a.nnz() {
            let (len, nnz) = (out.len(), a.nnz());
            return Err(format!("sddmm request {i}: output of {len} for {nnz} non-zeros").into());
        }
    }
    let kernel = KernelSpec::Sddmm { a: a.into(), k }.compile_on(rt)?;
    let mut launch = LaunchBindings::new(rt.pool(), a, None, []);
    let mut views = launch.views(&kernel, []);
    for ((x, y), out) in reqs.iter().zip(outs.iter_mut()) {
        views.bind_slice("X", x.data());
        views.bind_slice("Y", y.data());
        views.bind_slice_mut("Bout", out);
        kernel.run_views(&mut views)?;
    }
    Ok(())
}

/// The multi-head SDDMM as one function, its head axis inside the
/// non-zero loop: a test and oracle builder (the served path runs the
/// one-head kernel once per rider). Its head loop is no row nest: the
/// output's position mixes the row's loaded start and the non-zero's slot,
/// which a block does not take, so each `(non-zero, head)` pays the lane
/// prologue.
///
/// The iteration stays row-shaped (`for i { for j in row(i) { .. } }`):
/// the paper's `sparse_fuse(["I", "J"])` balances non-zeros across GPU
/// threads (§3.2) at the price of a binary-searched row recovery per
/// non-zero, which buys the row-iterating CPU executor nothing; the
/// arithmetic per `(non-zero, head)` — and so every output bit — is the
/// fused lowering's and the one-head kernel's.
///
/// # Errors
/// Propagates lowering/scheduling errors.
pub fn batched_sddmm_ir(
    a: &Csr,
    heads: usize,
    feat: usize,
) -> Result<PrimFunc, Box<dyn std::error::Error>> {
    Ok(lower(&batched_sddmm_program(a.rows(), a.cols(), a.nnz(), heads, feat))?)
}

/// The batched SDDMM under the GPU schedule — `sparse_fuse(["I", "J"])`,
/// one loop over the non-zeros with a binary-searched row each (§3.2) — kept
/// as the oracle for the row-shaped schedule the CPU compiles.
#[cfg(test)]
pub(crate) fn fused_ij_sddmm_ir(a: &Csr, heads: usize, feat: usize) -> PrimFunc {
    let mut program = batched_sddmm_program(a.rows(), a.cols(), a.nnz(), heads, feat);
    sparse_fuse(&mut program, "sddmm", &["I", "J"]).unwrap();
    lower(&program).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;
    use std::collections::HashMap;

    fn pair(a: &Csr, k: usize, seed: u64) -> (Dense, Dense) {
        let mut rng = gen::rng(seed);
        (gen::random_dense(a.rows(), k, &mut rng), gen::random_dense(k, a.cols(), &mut rng))
    }

    #[test]
    fn ir_execution_matches_reference() {
        let mut rng = gen::rng(15);
        let a = gen::random_csr(10, 12, 0.2, &mut rng);
        let req = pair(&a, 5, 16);
        let mut outs = vec![vec![0.0f32; a.nnz()]];
        sddmm_execute_views_on(&Runtime::new(), &a, std::slice::from_ref(&req), &mut outs).unwrap();
        let expect = a.sddmm(&req.0, &req.1).unwrap();
        for (g, e) in outs[0].iter().zip(expect.values()) {
            assert!((g - e).abs() < 1e-3, "{g} vs {e}");
        }
    }

    #[test]
    fn views_launch_rejects_malformed_batches() {
        let mut rng = gen::rng(17);
        let a = gen::random_csr(6, 7, 0.4, &mut rng);
        let rt = Runtime::new();
        let good = pair(&a, 3, 18);
        let run = |reqs: &[(Dense, Dense)], outs: &mut [Vec<f32>]| {
            sddmm_execute_views_on(&rt, &a, reqs, outs).expect_err("must be rejected").to_string()
        };
        let nnz = a.nnz();
        assert!(run(&[], &mut []).contains("empty batch"));
        assert!(run(std::slice::from_ref(&good), &mut []).contains("1 requests for 0 outputs"));
        // A mixed-`k` batch must not compile at request 0's width.
        let wide = pair(&a, 4, 19);
        let err = run(&[good.clone(), wide], &mut [vec![0.0; nnz], vec![0.0; nnz]]);
        assert!(err.contains("request 1: inner width 4"), "{err}");
        let bad = (gen::random_dense(5, 3, &mut rng), good.1.clone());
        assert!(run(&[bad], &mut [vec![0.0; nnz]]).contains("incompatible"));
        // Outputs bind as flat slices: a mis-sized one is refused by size,
        // one too long as well as one too short.
        for len in [nnz + 1, nnz - 1] {
            let err = run(&[good.clone(), good.clone()], &mut [vec![0.0; nnz], vec![0.0; len]]);
            assert!(err.contains(&format!("request 1: output of {len} for {nnz}")), "{err}");
        }
        assert_eq!(rt.compilations(), 0, "rejected before anything compiles");
    }

    /// Dropping `sparse_fuse` from the served SDDMM is a change of loop
    /// shape only: on a power-law graph (empty rows, one-non-zero rows, a
    /// few long ones) every score of every head equals, bit for bit, what
    /// the fused-`ij` lowering computes from the same stacked operands.
    #[test]
    fn served_sddmm_bit_matches_the_fused_ij_lowering() {
        let mut rng = gen::rng(23);
        let a = gen::random_csr_with_row_lengths(
            60,
            50,
            |r| {
                use rand::Rng;
                let u: f64 = r.gen_range(0.0..1.0);
                ((0.9 / (u + 0.03)) as usize).min(25)
            },
            &mut rng,
        );
        assert!(
            (0..a.rows()).any(|r| a.row_nnz(r) == 0) && (0..a.rows()).any(|r| a.row_nnz(r) > 8)
        );
        let k = 5;
        for heads in [1usize, 3] {
            let reqs: Vec<(Dense, Dense)> =
                (0..heads).map(|h| pair(&a, k, 30 + h as u64)).collect();
            let mut outs = vec![vec![0.0f32; a.nnz()]; heads];
            sddmm_execute_views_on(&Runtime::new(), &a, &reqs, &mut outs).unwrap();

            // The oracle runs on whole tensors: `X` side by side, `Y` end
            // to end, `Bout` head-minor.
            let mut t = Bindings::new();
            bind_csr(&mut t, "A", "J", &a);
            let x: Vec<f32> = (0..a.rows())
                .flat_map(|r| {
                    reqs.iter().flat_map(move |(x, _)| x.data()[r * k..(r + 1) * k].to_vec())
                })
                .collect();
            let y: Vec<f32> = reqs.iter().flat_map(|(_, y)| y.data().to_vec()).collect();
            t.insert("X".to_string(), TensorData::from(x));
            t.insert("Y".to_string(), TensorData::from(y));
            bind_zeros(&mut t, "Bout", a.nnz() * heads);
            let oracle = fused_ij_sddmm_ir(&a, heads, k);
            let listing = CompiledKernel::compile(&oracle).unwrap().disassemble();
            assert!(listing.contains("bsearch"), "the oracle is the fused-ij lowering");
            exec_func(&oracle, &HashMap::new(), &mut t).unwrap();
            for (h, out) in outs.iter().enumerate() {
                for (e, got) in out.iter().enumerate() {
                    let want = t["Bout"].as_f32()[e * heads + h];
                    assert_eq!(got.to_bits(), want.to_bits(), "head {h} of {heads}, non-zero {e}");
                }
            }
        }
    }

    /// The SDDMM feature loop — one contiguous operand, one
    /// column-strided operand, an invariant edge weight — must fuse to
    /// the `GatherScaleAccumulate` microkernel.
    #[test]
    fn sddmm_inner_loop_fuses_to_gather_scale_accumulate() {
        let mut rng = gen::rng(16);
        let a = gen::random_csr(10, 12, 0.2, &mut rng);
        let f = sddmm_ir(&a, 5).unwrap();
        let kernel = sparsetir_ir::exec::Runtime::global().compile(&f).unwrap();
        assert_eq!(kernel.fused_kinds(), vec!["GatherScaleAccumulate"]);
    }
}
