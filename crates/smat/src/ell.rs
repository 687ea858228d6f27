//! ELLPACK (ELL) format: every row padded to a fixed number of non-zero
//! columns. The building block of the paper's `hyb(c, k)` composable format.

use crate::csr::Csr;
use crate::dense::{Dense, SmatError};

/// An ELL matrix: `rows × width` column-index and value arrays, padded
/// entries carry value `0` (their column index is a valid placeholder).
#[derive(Debug, Clone, PartialEq)]
pub struct Ell {
    rows: usize,
    cols: usize,
    width: usize,
    /// Stored entries that are real non-zeros (explicit zeros included).
    nnz: usize,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl Ell {
    /// Convert from CSR.
    ///
    /// # Errors
    /// Fails when any row has more than `width` non-zeros, or when the
    /// `rows × width` storage overflows `usize` or cannot be reserved —
    /// checked before anything is allocated.
    pub fn from_csr(csr: &Csr, width: usize) -> Result<Ell, SmatError> {
        let rows = csr.rows();
        if let Some(r) = (0..rows).find(|&r| csr.row_nnz(r) > width) {
            return Err(SmatError::new(format!(
                "row {r} has {} non-zeros, exceeding ELL width {width}",
                csr.row_nnz(r)
            )));
        }
        let storage = |e: &dyn std::fmt::Display| {
            SmatError::new(format!("ELL storage of {rows} rows × width {width}: {e}"))
        };
        let stored = rows.checked_mul(width).ok_or_else(|| storage(&"overflows usize"))?;
        let (mut col_indices, mut values) = (Vec::new(), Vec::new());
        col_indices.try_reserve_exact(stored).map_err(|e| storage(&e))?;
        values.try_reserve_exact(stored).map_err(|e| storage(&e))?;
        for r in 0..rows {
            let (cols, vals) = csr.row(r);
            // Pad with the row's last valid column (or 0) so indices stay
            // in-bounds; values are 0 so the contribution vanishes.
            let pad_col = cols.last().copied().unwrap_or(0);
            col_indices.extend_from_slice(cols);
            col_indices.resize((r + 1) * width, pad_col);
            values.extend_from_slice(vals);
            values.resize((r + 1) * width, 0.0);
        }
        Ok(Ell { rows, cols: csr.cols(), width, nnz: csr.nnz(), col_indices, values })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical matrix.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Fixed non-zeros per row (including padding).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Column-index storage (`rows × width`).
    #[must_use]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Value storage (`rows × width`).
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Count of stored entries (including padding).
    #[must_use]
    pub fn stored(&self) -> usize {
        self.rows * self.width
    }

    /// Count of padded entries: stored ones that are no non-zero of the
    /// source matrix (an explicitly stored zero is real, not padding).
    #[must_use]
    pub fn padding(&self) -> usize {
        self.stored() - self.nnz
    }

    /// Dense reconstruction.
    ///
    /// # Errors
    /// Fails when the `rows × cols` matrix cannot be allocated.
    pub fn to_dense(&self) -> Result<Dense, SmatError> {
        let mut d = Dense::try_zeros(self.rows, self.cols)?;
        for r in 0..self.rows {
            for j in 0..self.width {
                let v = self.values[r * self.width + j];
                if v != 0.0 {
                    let c = self.col_indices[r * self.width + j] as usize;
                    let cur = d.get(r, c);
                    d.set(r, c, cur + v);
                }
            }
        }
        Ok(d)
    }

    /// Reference SpMM on ELL storage.
    ///
    /// # Errors
    /// Fails when `x.rows() != self.cols()`, or when the `rows × x.cols()`
    /// output cannot be allocated.
    pub fn spmm(&self, x: &Dense) -> Result<Dense, SmatError> {
        if x.rows() != self.cols {
            return Err(SmatError::new("ell spmm shape mismatch"));
        }
        let mut y = Dense::try_zeros(self.rows, x.cols())?;
        for r in 0..self.rows {
            for j in 0..self.width {
                let v = self.values[r * self.width + j];
                let c = self.col_indices[r * self.width + j] as usize;
                let xrow = x.row(c);
                let yrow = y.row_mut(r);
                for (o, &xv) in yrow.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Csr {
        let coo = Coo::from_entries(3, 4, vec![(0, 1, 1.0), (0, 3, 2.0), (1, 0, 3.0), (2, 2, 4.0)])
            .unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let csr = sample();
        let ell = Ell::from_csr(&csr, 2).unwrap();
        assert_eq!(ell.to_dense().unwrap(), csr.to_dense());
    }

    #[test]
    fn width_too_small_errors() {
        let csr = sample();
        assert!(Ell::from_csr(&csr, 1).is_err());
    }

    /// A width whose storage overflows, or exceeds what a `Vec` can hold
    /// (a one-row matrix at `usize::MAX`), is refused before anything is
    /// allocated instead of panicking on the allocation.
    #[test]
    fn an_unreservable_width_is_an_error_not_a_panic() {
        let one_row = Csr::from_coo(&Coo::from_entries(1, 4, vec![(0, 1, 1.0)]).unwrap());
        for width in [usize::MAX, usize::MAX / 2 + 1] {
            let err = Ell::from_csr(&one_row, width).expect_err("unreservable width");
            assert!(err.to_string().contains("ELL storage of 1 rows"), "{err}");
        }
        assert!(Ell::from_csr(&sample(), usize::MAX).is_err(), "3 rows × usize::MAX overflows");
        let empty = Csr::from_coo(&Coo::new(0, 4));
        assert_eq!(Ell::from_csr(&empty, usize::MAX).unwrap().stored(), 0);
    }

    #[test]
    fn padding_counts_zeros() {
        let csr = sample();
        let ell = Ell::from_csr(&csr, 2).unwrap();
        // 6 stored, 4 real non-zeros → 2 padded.
        assert_eq!(ell.stored(), 6);
        assert_eq!(ell.padding(), 2);
    }

    #[test]
    fn padding_is_structural_not_value_based() {
        // Row 0 stores an explicit zero: a real entry, not padding.
        let csr =
            Csr::new(2, 4, vec![0, 3, 4], vec![0, 1, 2, 0], vec![1.0, 0.0, 2.0, 3.0]).unwrap();
        let ell = Ell::from_csr(&csr, 3).unwrap();
        assert_eq!((ell.stored(), ell.padding()), (6, 2));
    }

    #[test]
    fn storage_that_overflows_is_an_error_not_a_panic() {
        let err = Ell::from_csr(&sample(), usize::MAX / 2 + 1).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn spmm_matches_csr() {
        let csr = sample();
        let ell = Ell::from_csr(&csr, 2).unwrap();
        let x = Dense::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5);
        let a = ell.spmm(&x).unwrap();
        let b = csr.spmm(&x).unwrap();
        assert!(a.approx_eq(&b, 1e-6));
    }
}
