//! Golden tests reproducing the IR transformations shown in the paper's
//! figures: the printed form of each stage matches the structures the
//! figures illustrate.

use sparsetir_core::prelude::*;
use sparsetir_ir::prelude::*;

/// Figure 3: language constructs of the SpMM operator.
#[test]
fn figure3_spmm_constructs() {
    let p = spmm_program(64, 64, 256, 32);
    let script = p.script();
    // Axis declarations: dense_fixed I, sparse_variable J with (indptr,
    // indices), dense_fixed K.
    assert!(script.contains("I = dense_fixed(len=64)"), "{script}");
    assert!(script.contains("J = sparse_variable(len=64, parent=I, nnz=256)"), "{script}");
    assert!(script.contains("K = dense_fixed(len=32)"), "{script}");
    // Buffer declarations bind axis compositions.
    assert!(script.contains("A = match_sparse_buffer((I, J), \"float32\")"), "{script}");
    assert!(script.contains("C = match_sparse_buffer((I, K), \"float32\")"), "{script}");
    // The sparse iteration with SRS kinds and init.
    assert!(script.contains("sp_iter([I, J, K], \"SRS\", \"spmm\")"), "{script}");
    assert!(script.contains("with init():"), "{script}");
}

/// Figure 5: format decomposition into BSR(2) + ELL(2) generates copy
/// iterations, new axes/buffers and per-format computations.
#[test]
fn figure5_format_decomposition() {
    let p = spmm_program(8, 8, 20, 4);
    let rules = vec![FormatRewriteRule::bsr("A", 2, 4, 4, 6), FormatRewriteRule::ell("A", 2, 8, 8)];
    let d = decompose_format(&p, &rules).unwrap();
    let script = d.script();
    // Generated axes for BSR(2): IO dense_fixed, JO sparse_variable,
    // II/JI dense_fixed(2) — and for ELL(2): sparse_fixed with width 2.
    assert!(script.contains("dense_fixed(len=4)"), "{script}");
    assert!(script.contains("nnz_cols=2"), "{script}");
    // Generated sparse iterations: copies and computations per format.
    assert!(script.contains("\"copy_bsr_2\""), "{script}");
    assert!(script.contains("\"copy_ell_2\""), "{script}");
    assert!(script.contains("spmm_bsr_2"), "{script}");
    assert!(script.contains("spmm_ell_2"), "{script}");
    // BSR compute remaps the output row to io·2+ii.
    assert!(script.contains("* 2)"), "{script}");
}

/// Figure 6: stage I schedules — reorder SpMM to [K, I, J] ("SSR"), fuse
/// SDDMM's (I, J).
#[test]
fn figure6_stage1_schedules() {
    let mut spmm = spmm_program(8, 8, 16, 4);
    sparse_reorder(&mut spmm, "spmm", &["K", "I", "J"]).unwrap();
    let it = spmm.iteration("spmm").unwrap();
    assert_eq!(it.kind_string(), "SSR");

    let mut sddmm = sddmm_program(8, 8, 16, 4);
    sparse_reorder(&mut sddmm, "sddmm", &["K", "I", "J"]).unwrap();
    sparse_fuse(&mut sddmm, "sddmm", &["I", "J"]).unwrap();
    let script = sddmm.script();
    assert!(script.contains("sp_iter([K, fuse(I, J)], \"RSS\", \"sddmm\")"), "{script}");
}

/// Figure 7: auxiliary buffer materialization creates explicit indptr /
/// indices buffers with domain hints.
#[test]
fn figure7_aux_materialization() {
    let p = spmm_program(16, 16, 40, 4);
    let lowered = lower_to_stage2(&p).unwrap();
    let ip = lowered.func.buffer("J_indptr").expect("J_indptr materialized");
    assert_eq!(ip.dtype, DType::I32);
    assert_eq!(ip.shape[0].as_const_int(), Some(17));
    let ix = lowered.func.buffer("J_indices").expect("J_indices materialized");
    assert_eq!(ix.shape[0].as_const_int(), Some(40));
    // assume_buffer_domain hints: indptr values in [0, nnz], indices in
    // [0, n−1].
    let ip_dom = lowered.domains.iter().find(|d| d.buffer == "J_indptr").unwrap();
    assert_eq!((ip_dom.lo, ip_dom.hi.as_const_int()), (0, Some(40)));
    let ix_dom = lowered.domains.iter().find(|d| d.buffer == "J_indices").unwrap();
    assert_eq!((ix_dom.lo, ix_dom.hi.as_const_int()), (0, Some(15)));
}

/// Figure 8: nested loop generation — one loop per axis without fusion,
/// a single nnz loop with fusion.
#[test]
fn figure8_nested_loop_generation() {
    // Without fusion: loops i then j (variable extent) then k, separated
    // by blocks.
    let spmm = spmm_program(8, 8, 24, 4);
    let txt = print_func(&lower_to_stage2(&spmm).unwrap().func);
    assert!(txt.contains("for i in range(8):"), "{txt}");
    assert!(txt.contains("for j in range((J_indptr[(i + 1)] - J_indptr[i])):"), "{txt}");
    assert!(txt.contains("block(\"spmm_0\")"), "{txt}");

    // With fusion of I and J: a single loop over nnz.
    let mut sddmm = sddmm_program(8, 8, 24, 4);
    sparse_fuse(&mut sddmm, "sddmm", &["I", "J"]).unwrap();
    let txt = print_func(&lower_to_stage2(&sddmm).unwrap().func);
    assert!(txt.contains("for ij in range(24):"), "{txt}");
}

/// Figure 9: coordinate translation rewrites accesses into position space:
/// `B` is indexed by the `J` coordinate from the indices array.
#[test]
fn figure9_coordinate_translation() {
    let p = spmm_program(8, 8, 24, 4);
    let txt = print_func(&lower_to_stage2(&p).unwrap().func);
    // The block binds v_j to the decompressed coordinate.
    assert!(txt.contains("v_j = J_indices[(J_indptr[i] + j)]"), "{txt}");
    // Init zeroes C at the spatial point.
    assert!(txt.contains("with init():"), "{txt}");
}

/// Figure 10: sparse buffer lowering flattens every access to 1-D —
/// `A[i, j] → A[J_indptr[i] + j]` and `C[i, k] → C[i·feat + k]`.
#[test]
fn figure10_sparse_buffer_lowering() {
    let p = spmm_program(8, 8, 24, 4);
    let f = lower(&p).unwrap();
    for b in &f.buffers {
        assert_eq!(b.ndim(), 1, "{} must be flat", b.name);
    }
    let txt = print_func(&f);
    assert!(txt.contains("A[(J_indptr[v_i] + j)]"), "{txt}");
    assert!(txt.contains("C[((v_i * 4) + v_k)]"), "{txt}");
    verify(&f).expect("stage III is well-formed");
}

/// Appendix A: composing BSR(2) and ELL(2) rewrite rules as in the
/// programming-interface listing (`decompose_format(spmm, [BSR(2),
/// ELL(2)])`).
#[test]
fn appendix_a_programming_interface() {
    let spmm = spmm_program(16, 16, 48, 8);
    let composable_format =
        vec![FormatRewriteRule::bsr("A", 2, 8, 8, 12), FormatRewriteRule::ell("A", 2, 16, 16)];
    let spmm_hybrid = decompose_format(&spmm, &composable_format).unwrap();
    // Format conversion is the 1-rule special case.
    let conversion = decompose_format(&spmm, &[FormatRewriteRule::ell("A", 4, 16, 16)]).unwrap();
    assert!(spmm_hybrid.iterations.len() > conversion.iterations.len());
    assert!(conversion.buffer("A_ell_4").is_some());
    // Both still lower end to end.
    lower(&spmm_hybrid.strip_copies()).unwrap();
    lower(&conversion.strip_copies()).unwrap();
}
