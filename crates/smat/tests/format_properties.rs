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
        prop_assert_eq!(hyb.to_dense().expect("small"), m.to_dense());
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
        prop_assert_eq!(ell.to_dense().expect("small"), m.to_dense());
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
        prop_assert_eq!(hyb.to_dense().expect("small"), m.to_dense());
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

    /// `Hyb::from_csr` decomposes exactly as the two-stage oracle does:
    /// empty rows and columns, every `c` in `1..=cols`, `k` in `0..=5`,
    /// rows longer than `2^k` and rows spanning every partition.
    #[test]
    fn hyb_matches_the_two_stage_oracle(
        lens in proptest::collection::vec(prop_oneof![Just(0usize), 1usize..=8, 0usize..=96], 1..13),
        cols in 1usize..=96,
        c in 1usize..=96,
        k in 0u32..=5,
        seed in 0u64..1 << 32,
    ) {
        let rows = lens.len();
        let mut lens = lens.into_iter();
        let row_len = |_: &mut _| lens.next().unwrap_or(0);
        let m = gen::random_csr_with_row_lengths(rows, cols, row_len, &mut gen::rng(seed));
        assert_matches_two_stage_oracle(&m, 1 + (c - 1) % cols, k);
    }
}

/// One partition per column of a wide matrix: most partitions hold one
/// column, and every row jumps across many of them.
#[test]
fn hyb_matches_the_two_stage_oracle_with_one_partition_per_column() {
    let m = gen::random_csr(64, 4096, 0.02, &mut gen::rng(51));
    for k in [0, 3] {
        assert_matches_two_stage_oracle(&m, m.cols(), k);
    }
}

/// `hyb(c, k)` as two stages: split the columns into `c` CSR matrices
/// (the last absorbs the remainder), then cut each partition's rows into
/// chunks of at most `2^k`, one element at a time. `Hyb::from_csr` must
/// build exactly these partitions.
fn assert_matches_two_stage_oracle(m: &Csr, c: usize, k: u32) {
    let hyb = Hyb::from_csr(m, c, k).expect("0 < c <= cols, k < 32");
    let width_cols = m.cols().div_ceil(c);
    let step = width_cols.max(1);
    let mut indptrs = vec![vec![0usize; m.rows() + 1]; c];
    let mut indices: Vec<Vec<u32>> = vec![Vec::new(); c];
    let mut values: Vec<Vec<f32>> = vec![Vec::new(); c];
    for r in 0..m.rows() {
        let (cols, vals) = m.row(r);
        for (&col, &v) in cols.iter().zip(vals) {
            let p = col as usize / step;
            indices[p].push(col);
            values[p].push(v);
        }
        for p in 0..c {
            indptrs[p][r + 1] = indices[p].len();
        }
    }
    let mut oracle = Vec::with_capacity(c);
    for (p, ((indptr, indices), values)) in indptrs.into_iter().zip(indices).zip(values).enumerate()
    {
        let part = Csr::new(m.rows(), m.cols(), indptr, indices, values).expect("a partition");
        let mut buckets: Vec<EllBucket> = (0..=k)
            .map(|i| EllBucket {
                width: 1 << i,
                row_ids: Vec::new(),
                col_indices: Vec::new(),
                values: Vec::new(),
                real: 0,
            })
            .collect();
        for r in 0..part.rows() {
            let (cols, vals) = part.row(r);
            let mut start = 0;
            while start < cols.len() {
                let chunk = (cols.len() - start).min(1 << k);
                let b = &mut buckets[bucket_for(chunk, k) as usize];
                b.row_ids.push(r as u32);
                b.real += chunk;
                for j in 0..b.width {
                    if j < chunk {
                        b.col_indices.push(cols[start + j]);
                        b.values.push(vals[start + j]);
                    } else {
                        b.col_indices.push(cols[start + chunk - 1]);
                        b.values.push(0.0);
                    }
                }
                start += chunk;
            }
        }
        oracle.push(HybPartition {
            col_lo: (p * width_cols).min(m.cols()),
            col_hi: ((p + 1) * width_cols).min(m.cols()),
            buckets,
        });
    }
    let stored: usize = oracle.iter().flat_map(|p| &p.buckets).map(EllBucket::stored).sum();
    let padding = if stored == 0 { 0.0 } else { (stored - m.nnz()) as f64 / stored as f64 };
    let at = format!("hyb({c}, {k}) of a {}x{} matrix", m.rows(), m.cols());
    assert_eq!(hyb.partitions(), &oracle[..], "{at}");
    assert_eq!(hyb.stored(), stored, "{at}");
    assert_eq!(hyb.padding_ratio().to_bits(), padding.to_bits(), "{at}");
    assert_eq!(hyb.original_nnz(), m.nnz(), "{at}");
}
