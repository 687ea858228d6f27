//! Property-based tests: every compressed format must reconstruct the same
//! dense matrix as the CSR it was built from, and every format-level SpMM
//! must agree with the CSR reference. These are the invariants the paper's
//! format decomposition relies on ("decompose A into A1..An such that
//! A = Σ Ai").

use proptest::prelude::*;
use sparsetir_smat::prelude::*;

/// Strategy: a small random sparse matrix given dims and a nnz bound.
fn sparse_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(rows, cols)| {
        let total = rows * cols;
        proptest::collection::vec(
            (0..rows as u32, 0..cols as u32, 0.1f32..2.0f32),
            0..max_nnz.min(total),
        )
        .prop_map(move |entries| {
            let coo = Coo::from_entries(rows, cols, entries).expect("in-bounds");
            Csr::from_coo(&coo)
        })
    })
}

/// Like [`sparse_matrix`], but roughly a third of the stored values are
/// explicit zeros — entries the format must keep (they are part of the
/// sparsity structure) yet never confuse with padding.
fn sparse_matrix_with_zeros(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(rows, cols)| {
        let total = rows * cols;
        proptest::collection::vec(
            (
                0..rows as u32,
                0..cols as u32,
                prop_oneof![Just(0.0f32), Just(0.0f32), 0.1f32..2.0f32, 0.1f32..2.0f32],
            ),
            1..max_nnz.min(total).max(2),
        )
        .prop_map(move |entries| {
            let coo = Coo::from_entries(rows, cols, entries).expect("in-bounds");
            Csr::from_coo(&coo)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hyb_with_explicit_zeros_roundtrips(
        m in sparse_matrix_with_zeros(20, 48),
        c in 1usize..4,
        k in 0u32..4,
    ) {
        let hyb = Hyb::from_csr(&m, c.min(m.cols()), k).expect("0 < c <= cols");
        prop_assert_eq!(hyb.to_dense(), m.to_dense());
    }

    #[test]
    fn hyb_padding_sums_structurally(
        m in sparse_matrix_with_zeros(20, 48),
        c in 1usize..4,
        k in 0u32..4,
    ) {
        // Per-bucket structural padding must always reconcile with the
        // matrix-level accounting, explicit zeros included.
        let hyb = Hyb::from_csr(&m, c.min(m.cols()), k).expect("0 < c <= cols");
        let pad: usize = hyb
            .partitions()
            .iter()
            .flat_map(|p| &p.buckets)
            .map(EllBucket::padding)
            .sum();
        prop_assert_eq!(pad, hyb.stored() - hyb.original_nnz());
        let real: usize = hyb
            .partitions()
            .iter()
            .flat_map(|p| &p.buckets)
            .map(|b| b.real)
            .sum();
        prop_assert_eq!(real, hyb.original_nnz());
    }

    #[test]
    fn csr_dense_roundtrip(m in sparse_matrix(24, 64)) {
        prop_assert_eq!(Csr::from_dense(&m.to_dense()), m);
    }

    #[test]
    fn csr_transpose_involution(m in sparse_matrix(24, 64)) {
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        prop_assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn ell_roundtrip_when_wide_enough(m in sparse_matrix(16, 48)) {
        let width = m.row_lengths().into_iter().max().unwrap_or(0).max(1);
        let ell = Ell::from_csr(&m, width).expect("wide enough");
        prop_assert_eq!(ell.to_dense(), m.to_dense());
    }

    #[test]
    fn bsr_roundtrip(m in sparse_matrix(20, 48), block in 1usize..5) {
        let bsr = Bsr::from_csr(&m, block).expect("valid block");
        prop_assert_eq!(bsr.to_dense(), m.to_dense());
        // Stored count never shrinks below nnz.
        prop_assert!(bsr.stored() >= m.nnz());
    }

    #[test]
    fn dbsr_equals_bsr(m in sparse_matrix(20, 48), block in 1usize..5) {
        let bsr = Bsr::from_csr(&m, block).expect("valid block");
        let dbsr = Dbsr::from_bsr(&bsr);
        prop_assert_eq!(dbsr.to_dense(), bsr.to_dense());
        prop_assert_eq!(dbsr.nblocks(), bsr.nblocks());
        prop_assert_eq!(
            dbsr.nrows_compressed(),
            bsr.block_rows() - bsr.zero_block_rows()
        );
    }

    #[test]
    fn srbcrs_roundtrip(m in sparse_matrix(20, 48), t in 1usize..6, g in 1usize..6) {
        let s = SrBcrs::from_csr(&m, t, g).expect("valid params");
        prop_assert_eq!(s.to_dense(), m.to_dense());
        prop_assert_eq!(s.stored_tiles() % g, 0);
    }

    #[test]
    fn hyb_roundtrip(m in sparse_matrix(20, 64), c in 1usize..5, k in 0u32..4) {
        let hyb = Hyb::from_csr(&m, c.min(m.cols()), k).expect("0 < c <= cols");
        prop_assert_eq!(hyb.to_dense(), m.to_dense());
        prop_assert!(hyb.stored() >= m.nnz());
        let ratio = hyb.padding_ratio();
        prop_assert!((0.0..1.0).contains(&ratio) || hyb.stored() == 0);
    }

    #[test]
    fn spmm_agreement_across_formats(m in sparse_matrix(16, 40), d in 1usize..6) {
        let mut r = gen::rng(99);
        let x = gen::random_dense(m.cols(), d, &mut r);
        let reference = m.spmm(&x).expect("csr spmm");

        let width = m.row_lengths().into_iter().max().unwrap_or(0).max(1);
        let ell = Ell::from_csr(&m, width).expect("wide enough");
        prop_assert!(ell.spmm(&x).unwrap().approx_eq(&reference, 1e-3));

        let bsr = Bsr::from_csr(&m, 2).expect("block");
        prop_assert!(bsr.spmm(&x).unwrap().approx_eq(&reference, 1e-3));

        let hyb = Hyb::with_default_k(&m, m.cols().min(2)).expect("hyb");
        prop_assert!(hyb.spmm(&x).unwrap().approx_eq(&reference, 1e-3));

        let s = SrBcrs::from_csr(&m, 4, 2).expect("srbcrs");
        prop_assert!(s.spmm(&x).unwrap().approx_eq(&reference, 1e-3));
    }

    #[test]
    fn sddmm_scales_pattern(m in sparse_matrix(12, 30), d in 1usize..5) {
        let mut r = gen::rng(7);
        let x = gen::random_dense(m.rows(), d, &mut r);
        let y = gen::random_dense(d, m.cols(), &mut r);
        let out = m.sddmm(&x, &y).expect("sddmm");
        // Pattern must be preserved exactly.
        prop_assert_eq!(out.indptr(), m.indptr());
        prop_assert_eq!(out.indices(), m.indices());
        // Values must equal A ⊙ (X·Y) at the stored positions.
        let xy = x.matmul(&y).expect("gemm");
        for row in 0..m.rows() {
            let (cols, vals) = out.row(row);
            let (_, avals) = m.row(row);
            for ((&c, &v), &a) in cols.iter().zip(vals).zip(avals) {
                let expect = a * xy.get(row, c as usize);
                prop_assert!((v - expect).abs() <= 1e-3_f32.max(expect.abs() * 1e-3));
            }
        }
    }

    #[test]
    fn column_partition_sums_to_original(m in sparse_matrix(16, 48), parts in 1usize..6) {
        let sub = m.column_partition(parts);
        prop_assert_eq!(sub.len(), parts.clamp(1, m.cols()));
        let merged = sub.iter().fold(Dense::zeros(m.rows(), m.cols()), |acc, p| {
            acc.add(&p.to_dense()).expect("same shape")
        });
        prop_assert_eq!(merged, m.to_dense());
        let total: usize = sub.iter().map(Csr::nnz).sum();
        prop_assert_eq!(total, m.nnz());
    }
}
