//! Golden-file tests on the kernel disassembler: canonical kernels (CSR
//! SpMM at d = 4 and d = 128, hyb SpMM, batched SDDMM, fused attention at
//! two heads and one, fused SAGE) must disassemble to
//! byte-identical listings committed under `tests/golden/`. Any change to
//! slot allocation, lowering, fusion matching or the instruction set
//! shows up here as a readable diff.
//!
//! * Re-bless after an intentional codegen change with
//!   `SPARSETIR_BLESS=1 cargo test -p sparsetir-ir --test golden_disasm`.
//! * On mismatch the produced listing is written next to the golden file
//!   as `<name>.disasm.actual` (CI uploads these as artifacts); a match or
//!   a bless removes it again.
//!
//! The kernels are built from a hand-constructed deterministic matrix —
//! no RNG — so the listings are stable across runs and platforms.

use sparsetir_ir::prelude::*;
use sparsetir_kernels::prelude::*;
use sparsetir_kernels::sddmm::batched_sddmm_ir;
use sparsetir_smat::prelude::*;
use std::path::PathBuf;

/// Deterministic 6×6 sparse matrix with varied row degrees (0 to 5), so
/// the hyb decomposition produces several non-empty buckets.
fn fixture_csr() -> Csr {
    let indptr = vec![0, 3, 4, 4, 9, 10, 12];
    let indices: Vec<u32> = vec![0, 2, 4, 1, 0, 1, 2, 3, 5, 3, 2, 4];
    let values: Vec<f32> = (0..12).map(|i| 0.5 + i as f32 * 0.25).collect();
    Csr::new(6, 6, indptr, indices, values).expect("valid fixture matrix")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.disasm"))
}

/// Compile `func` with fusion on and compare (or bless) the golden file.
fn check_golden(name: &str, func: &PrimFunc) {
    let listing = CompiledKernel::compile_with(func, true).expect("compiles").disassemble();

    let path = golden_path(name);
    let actual = path.with_extension("disasm.actual");
    // A listing an earlier mismatch left beside the golden is stale once the
    // golden is blessed or matched again.
    let drop_stale = || {
        if actual.exists() {
            std::fs::remove_file(&actual).expect("remove stale actual listing");
        }
    };
    if std::env::var_os("SPARSETIR_BLESS").is_some() {
        std::fs::write(&path, &listing).expect("write golden file");
        drop_stale();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); regenerate with SPARSETIR_BLESS=1", path.display())
    });
    if want != listing {
        std::fs::write(&actual, &listing).expect("write actual listing");
        let diff_at = want.lines().zip(listing.lines()).position(|(a, b)| a != b).map_or_else(
            || "listing lengths differ".to_string(),
            |l| format!("first diff at line {}", l + 1),
        );
        panic!(
            "{name}: disassembly drifted from {} ({diff_at}); \
             actual listing written to {}; re-bless with SPARSETIR_BLESS=1 if intentional",
            path.display(),
            actual.display()
        );
    }
    drop_stale();
}

#[test]
fn csr_spmm_disassembly_is_stable() {
    let a = fixture_csr();
    let f = csr_spmm_ir(&a, 4).expect("builds");
    let k = CompiledKernel::compile_with(&f, true).unwrap();
    assert!(k.fused_ops() > 0, "CSR SpMM inner loop fuses to a superinstruction");
    check_golden("csr_spmm", &f);
}

/// The default CSR schedule at d = 128: `split(k, 32)` leaves a 4 × 32
/// nest per non-zero, which lane coalescing runs as one 128-lane
/// superinstruction — one `Super` dispatch per non-zero, not four.
#[test]
fn csr_spmm_d128_coalesces_to_one_superinstruction_per_nonzero() {
    let a = fixture_csr();
    let f = csr_spmm_ir(&a, 128).expect("builds");
    let k = CompiledKernel::compile_with(&f, true).unwrap();
    assert_eq!(k.fused_ops(), 1);
    let listing = k.disassemble();
    let supers: Vec<&str> = listing.lines().filter(|l| l.contains("super.")).collect();
    assert_eq!(supers.len(), 1, "{listing}");
    assert!(supers[0].contains("super.axpy %3 in 0..128 (coalesced %2\u{d7}%3)"), "{}", supers[0]);
    check_golden("csr_spmm_d128", &f);
}

#[test]
fn hyb_spmm_disassembly_is_stable() {
    let a = fixture_csr();
    let x = Dense::from_fn(a.cols(), 4, |i, j| (i * 4 + j) as f32 * 0.125 - 1.0);
    let cfg = SpmmConfig { col_parts: Some(2), bucket_k: 2, params: CsrSpmmParams::default() };
    let prepared = prepare_spmm(&a, &x, &cfg).expect("builds");
    check_golden("hyb_spmm", &prepared.func);
}

#[test]
fn served_csr_spmm_disassembly_is_stable() {
    // The kernel the zero-copy view path compiles for a rider of width 6:
    // the unscheduled row walk, one row block over the rows. A batch runs
    // it once per rider, `B` and `C` bound as that rider's flat slices —
    // bindings never appear in a listing.
    let a = fixture_csr();
    let (f, _) = prepare_spmm_structure(&a, 6, &SpmmConfig::default_csr()).expect("builds");
    check_golden("csr_spmm_served", &f);
}

#[test]
fn batched_sddmm_disassembly_is_stable() {
    let a = fixture_csr();
    let f = batched_sddmm_ir(&a, 2, 4).expect("builds");
    check_golden("batched_sddmm", &f);
}

#[test]
fn fused_attention_disassembly_is_stable() {
    let a = fixture_csr();
    let f = fused_attention_ir(&a, 2, 4, 3).expect("builds");
    check_golden("fused_attention", &f);
}

/// One head, as attention is served: the score pass is a `nest.gsa` that
/// gathers the column, the aggregation a `nest.axpy` whose coefficient is
/// the ratio `P[pos] / Sum[i]` (`coeff=+1/row`).
#[test]
fn one_head_fused_attention_disassembly_is_stable() {
    let a = fixture_csr();
    let f = fused_attention_ir(&a, 1, 4, 3).expect("builds");
    check_golden("fused_attention_one_head", &f);
}

/// Fused SAGE: two `nest.axpy`, the transform's coefficient the walked
/// product `Agg[i, k] · Dinv[i]` (`coeff=+1*row`).
#[test]
fn fused_sage_disassembly_is_stable() {
    let a = fixture_csr();
    let f = fused_sage_ir(&a, 4, 3).expect("builds");
    check_golden("fused_sage", &f);
}
