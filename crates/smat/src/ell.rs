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
    /// Fails when any row has more than `width` non-zeros, or when
    /// `rows × width` overflows `usize`.
    pub fn from_csr(csr: &Csr, width: usize) -> Result<Ell, SmatError> {
        let rows = csr.rows();
        let stored = rows.checked_mul(width).ok_or_else(|| {
            SmatError::new(format!("ELL storage of {rows} rows × width {width} overflows usize"))
        })?;
        let mut col_indices = vec![0u32; stored];
        let mut values = vec![0.0f32; stored];
        for r in 0..rows {
            let (cols, vals) = csr.row(r);
            if cols.len() > width {
                return Err(SmatError::new(format!(
                    "row {r} has {} non-zeros, exceeding ELL width {width}",
                    cols.len()
                )));
            }
            for (j, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                col_indices[r * width + j] = c;
                values[r * width + j] = v;
            }
            // Pad with the row's last valid column (or 0) so indices stay
            // in-bounds; values are 0 so the contribution vanishes.
            let pad_col = cols.last().copied().unwrap_or(0);
            for j in cols.len()..width {
                col_indices[r * width + j] = pad_col;
            }
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
    #[must_use]
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.rows, self.cols);
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
        d
    }

    /// Reference SpMM on ELL storage.
    ///
    /// # Errors
    /// Fails when `x.rows() != self.cols()`.
    pub fn spmm(&self, x: &Dense) -> Result<Dense, SmatError> {
        if x.rows() != self.cols {
            return Err(SmatError::new("ell spmm shape mismatch"));
        }
        let mut y = Dense::zeros(self.rows, x.cols());
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
        assert_eq!(ell.to_dense(), csr.to_dense());
    }

    #[test]
    fn width_too_small_errors() {
        let csr = sample();
        assert!(Ell::from_csr(&csr, 1).is_err());
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
