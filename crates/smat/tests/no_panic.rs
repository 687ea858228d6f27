//! The no-panic boundary of the `smat` constructors (ROADMAP 7(a), the
//! `smat` slice): whatever dimensions, arrays or parameters a caller
//! passes, `Csr::new`, `Dense::from_vec`, `Coo::from_entries`, the
//! `from_csr` conversions, the delta path, every format's reference
//! `spmm` and the ELL / `hyb` `to_dense` answer `Ok` or a typed `SmatError`
//! — never a panic. Dimensions and parameters come from 0..8
//! or are values whose successor, product or byte size overflows `usize`:
//! those must be refused before anything is allocated, so no case
//! allocates more than a few MB.

use proptest::prelude::*;
use sparsetir_smat::prelude::*;

const CASES: u32 = 256;

/// A dimension or a parameter: 0..8 most of the time, else a value whose
/// successor, product or byte size overflows `usize`.
fn size() -> Union<usize> {
    prop_oneof![0usize..8, 0usize..8, 0usize..8, Just(usize::MAX), Just(usize::MAX / 2 + 1)]
}

/// A coordinate: mostly in (or just past) a small matrix, else `u32::MAX`.
fn coord() -> Union<u32> {
    prop_oneof![0u32..10, 0u32..10, Just(u32::MAX)]
}

/// An upsert's value, or a delete.
fn upsert_or_delete() -> Union<Option<f32>> {
    prop_oneof![Just(None), (0.1f32..2.0).prop_map(Some)]
}

/// A random CSR of up to 7 × 7, empty rows, columns and matrices included.
fn small_csr() -> impl Strategy<Value = Csr> {
    (0usize..8, 0usize..8, 0u32..=10, 0u64..1 << 32).prop_map(|(rows, cols, tenths, seed)| {
        gen::random_csr(rows, cols, f64::from(tenths) / 10.0, &mut gen::rng(seed))
    })
}

/// `Ok` must be a matrix that passes `Csr::new` again; `Err` must say why.
fn check_csr(got: Result<Csr, SmatError>) -> Result<(), TestCaseError> {
    match got {
        Ok(m) => {
            let (indptr, indices) = (m.indptr().to_vec(), m.indices().to_vec());
            let again = Csr::new(m.rows(), m.cols(), indptr, indices, m.values().to_vec());
            prop_assert!(again.is_ok(), "an accepted matrix fails its own invariants");
        }
        Err(e) => prop_assert!(!e.to_string().is_empty()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// A valid CSR's arrays, then one corruption: a short `indptr`, a
    /// non-monotone one, a column at or past `cols`, a length mismatch,
    /// or arbitrary dimensions (overflowing ones included).
    #[test]
    fn csr_new_is_ok_or_a_typed_error(
        a in small_csr(),
        corruption in 0usize..6,
        at in 0usize..16,
        dims in (size(), size()),
    ) {
        let (mut rows, mut cols) = (a.rows(), a.cols());
        let mut indptr = a.indptr().to_vec();
        let mut indices = a.indices().to_vec();
        let mut values = a.values().to_vec();
        match corruption {
            0 => {}
            1 => indptr.truncate(at % indptr.len()),
            2 => {
                let n = indptr.len();
                indptr.swap(at % n, n - 1);
                indptr[0] = at;
            }
            3 => {
                if !indices.is_empty() {
                    let i = at % indices.len();
                    indices[i] = u32::try_from(cols).unwrap_or(u32::MAX);
                }
            }
            4 => {
                values.push(1.0);
                indices.truncate(indices.len().saturating_sub(at % 2));
            }
            _ => (rows, cols) = dims,
        }
        let got = Csr::new(rows, cols, indptr, indices, values);
        match corruption {
            0 => prop_assert!(got.is_ok(), "a valid matrix is refused"),
            1 | 4 => prop_assert!(got.is_err(), "corruption {corruption} is accepted"),
            _ => {}
        }
        check_csr(got)?;
    }

    #[test]
    fn dense_from_vec_is_ok_or_a_typed_error(rows in size(), cols in size(), len in 0usize..20) {
        match Dense::from_vec(rows, cols, vec![0.5; len]) {
            Ok(d) => prop_assert_eq!(d.data().len(), d.rows() * d.cols()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn dense_try_zeros_is_ok_or_a_typed_error(rows in size(), cols in size()) {
        match Dense::try_zeros(rows, cols) {
            Ok(d) => prop_assert_eq!(d.data().len(), rows * cols),
            Err(e) => prop_assert!(e.to_string().contains("cannot be allocated"), "{e}"),
        }
    }

    /// Triplets in and out of bounds, duplicates included, at any
    /// dimensions: a row count whose `rows + 1` row pointers cannot exist
    /// is refused, and an accepted small `Coo` converts to a valid CSR.
    #[test]
    fn coo_from_entries_is_ok_or_a_typed_error(
        rows in size(),
        cols in size(),
        entries in proptest::collection::vec((coord(), coord(), 0.1f32..2.0), 0..12),
    ) {
        let in_bounds = entries.iter().all(|&(r, c, _)| (r as usize) < rows && (c as usize) < cols);
        let has_csr = rows.checked_add(1).is_some_and(|p| std::alloc::Layout::array::<usize>(p).is_ok());
        match Coo::from_entries(rows, cols, entries) {
            Ok(coo) => {
                prop_assert!(in_bounds, "an out-of-bounds triplet is accepted");
                prop_assert!(has_csr, "{rows} rows are accepted");
                if rows < 8 && cols < 8 {
                    check_csr(Ok(Csr::from_coo(&coo)))?;
                }
            }
            Err(e) => {
                prop_assert!(!in_bounds || !has_csr, "in-bounds triplets are refused: {e}");
            }
        }
    }

    /// ELL at any width (0 included), BSR at any block (0, non-dividing,
    /// past `u32`), SR-BCRS at any `t` and `g` (0 included), `hyb(c, k)`
    /// at any `c` (0 included) and `k` up to 64.
    #[test]
    fn derived_formats_are_ok_or_a_typed_error(
        a in small_csr(),
        width in size(),
        block in prop_oneof![0usize..9, Just(u32::MAX as usize), Just(usize::MAX)],
        (t, g) in (size(), size()),
        (c, k) in (size(), 0u32..=64),
    ) {
        let widest = (0..a.rows()).map(|r| a.row_nnz(r)).max().unwrap_or(0);
        match Ell::from_csr(&a, width) {
            Ok(ell) => {
                prop_assert!(width >= widest, "a row wider than the ELL width is accepted");
                prop_assert_eq!(ell.col_indices().len(), a.rows() * width);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        match Bsr::from_csr(&a, block) {
            Ok(bsr) => prop_assert!(block > 0 && bsr.rows() == a.rows()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        match SrBcrs::from_csr(&a, t, g) {
            Ok(sr) => prop_assert!(t > 0 && g > 0 && sr.rows() == a.rows()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        match Hyb::from_csr(&a, c, k) {
            Ok(hyb) => prop_assert!(c > 0 && k < 32 && hyb.rows() == a.rows()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Upserts and deletes with endpoints in and out of range, duplicate
    /// edges and deletes of absent edges, through `validate` (at any
    /// dimensions) and `Csr::apply_delta`.
    #[test]
    fn graph_deltas_are_ok_or_a_typed_error(
        a in small_csr(),
        ops in proptest::collection::vec((coord(), coord(), upsert_or_delete()), 0..12),
        dims in (size(), size()),
    ) {
        let mut delta = GraphDelta::new();
        for &(r, c, value) in &ops {
            match value {
                Some(v) => delta.upsert(r, c, v),
                None => delta.delete(r, c),
            };
        }
        let in_range = ops.iter().all(|&(r, c, _)| (r as usize) < a.rows() && (c as usize) < a.cols());
        prop_assert_eq!(delta.validate(a.rows(), a.cols()).is_ok(), in_range);
        if let Err(e) = delta.validate(dims.0, dims.1) {
            prop_assert!(!e.to_string().is_empty());
        }
        let next = a.apply_delta(&delta);
        prop_assert_eq!(next.is_ok(), in_range);
        check_csr(next)?;
    }
}

/// `Csr::from_coo` returns no `Result`, so a `Coo` whose CSR cannot exist
/// — `rows + 1` overflows, or the row pointers' bytes do — must be refused
/// where it is built; converted, it would panic.
#[test]
fn a_coo_whose_csr_cannot_exist_is_refused_where_it_is_built() {
    for rows in [usize::MAX, usize::MAX / 2 + 1] {
        match Coo::from_entries(rows, 2, vec![]) {
            Ok(coo) => panic!("{rows} rows accepted: {:?}", Csr::from_coo(&coo).rows()),
            Err(e) => assert!(e.to_string().contains("row pointers"), "{e}"),
        }
    }
}

/// A dense matrix whose element count overflows `usize` (`2⁶³ × 2`, whose
/// unchecked product wraps to 0 in a release build), or whose `f32`s
/// overflow what one allocation can hold (`2⁶² × 1`), is refused before
/// anything is allocated; `Dense::zeros` panics with the same message
/// rather than return a matrix with no storage.
#[test]
fn a_dense_matrix_that_cannot_exist_is_refused() {
    for (rows, cols) in [(1usize << 63, 2usize), (1 << 62, 1)] {
        let e = Dense::try_zeros(rows, cols).expect_err("refused");
        assert_eq!(
            e.to_string(),
            format!("sparse matrix error: dense shape {rows}x{cols} cannot be allocated")
        );
        let panic = std::panic::catch_unwind(|| Dense::zeros(rows, cols)).expect_err("panics");
        let said = panic.downcast_ref::<String>().expect("a formatted message");
        assert_eq!(*said, e.to_string());
    }
}

/// A reference SpMM whose `rows × x.cols()` output cannot exist: a
/// `0 × 2⁶²` operand passes the shape check against a 0-column matrix,
/// and each format's `spmm` then refuses the output with the
/// `Dense::try_zeros` error instead of panicking in `Dense::zeros`.
fn refuses_an_output_that_cannot_exist(spmm: impl Fn(&Dense) -> Result<Dense, SmatError>) {
    let x = Dense::try_zeros(0, 1 << 62).expect("no elements");
    let e = spmm(&x).expect_err("refused");
    assert!(e.to_string().contains("dense shape 3x4611686018427387904 cannot be"), "{e}");
}

/// Three rows, no columns.
fn no_columns() -> Csr {
    Csr::new(3, 0, vec![0; 4], vec![], vec![]).unwrap()
}

#[test]
fn csr_spmm_refuses_an_output_that_cannot_exist() {
    refuses_an_output_that_cannot_exist(|x| no_columns().spmm(x));
}

#[test]
fn ell_spmm_refuses_an_output_that_cannot_exist() {
    let ell = Ell::from_csr(&no_columns(), 1).unwrap();
    refuses_an_output_that_cannot_exist(|x| ell.spmm(x));
}

#[test]
fn hyb_spmm_refuses_an_output_that_cannot_exist() {
    let hyb = Hyb::from_csr(&no_columns(), 1, 2).unwrap();
    refuses_an_output_that_cannot_exist(|x| hyb.spmm(x));
}

#[test]
fn bsr_spmm_refuses_an_output_that_cannot_exist() {
    let bsr = Bsr::from_csr(&no_columns(), 2).unwrap();
    refuses_an_output_that_cannot_exist(|x| bsr.spmm(x));
}

#[test]
fn srbcrs_spmm_refuses_an_output_that_cannot_exist() {
    let tiled = SrBcrs::from_csr(&no_columns(), 2, 2).unwrap();
    refuses_an_output_that_cannot_exist(|x| tiled.spmm(x));
}

/// A dense reconstruction that cannot exist: a `2 × 2⁶²` matrix with no
/// non-zeros builds in any format, but its `2⁶³` dense `f32`s cannot be
/// allocated, so `to_dense` refuses it with the `Dense::try_zeros` error.
fn refuses_a_dense_form_that_cannot_exist(to_dense: impl Fn(&Csr) -> Result<Dense, SmatError>) {
    let a = Csr::new(2, 1 << 62, vec![0; 3], vec![], vec![]).unwrap();
    let e = to_dense(&a).expect_err("refused");
    assert!(e.to_string().contains("dense shape 2x4611686018427387904 cannot be"), "{e}");
}

#[test]
fn ell_to_dense_refuses_a_matrix_that_cannot_exist() {
    refuses_a_dense_form_that_cannot_exist(|a| Ell::from_csr(a, 1)?.to_dense());
}

#[test]
fn hyb_to_dense_refuses_a_matrix_that_cannot_exist() {
    refuses_a_dense_form_that_cannot_exist(|a| Hyb::from_csr(a, 1, 2)?.to_dense());
}
