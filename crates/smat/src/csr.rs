//! Compressed Sparse Row (CSR) matrices — the default single format of the
//! paper's baselines and the source format for every decomposition.

use crate::coo::Coo;
use crate::dense::{Dense, SmatError};

/// A sparse matrix in CSR form. Column indices within each row are sorted
/// ascending (an invariant relied upon by the binary-search lowering of
/// SparseTIR's coordinate translation).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Construct from raw arrays, validating the CSR invariants.
    ///
    /// # Errors
    /// Fails when `indptr` is not monotone of length `rows + 1`, when
    /// `indices`/`values` lengths disagree with `indptr[rows]`, when a
    /// column index is out of bounds, or when a row's columns are not
    /// strictly ascending.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Csr, SmatError> {
        let Some(ptrs) = rows.checked_add(1) else {
            return Err(SmatError::new(format!("{rows} rows overflow the indptr length")));
        };
        if indptr.len() != ptrs {
            return Err(SmatError::new(format!(
                "indptr length {} != rows + 1 = {ptrs}",
                indptr.len()
            )));
        }
        if indptr.first() != Some(&0) {
            return Err(SmatError::new("indptr[0] must be 0"));
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SmatError::new("indptr must be non-decreasing"));
        }
        let nnz = *indptr.last().expect("nonempty indptr");
        if indices.len() != nnz || values.len() != nnz {
            return Err(SmatError::new(format!(
                "indices/values length ({}, {}) != nnz {nnz}",
                indices.len(),
                values.len()
            )));
        }
        for r in 0..rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SmatError::new(format!(
                        "row {r} column indices not strictly ascending"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= cols {
                    return Err(SmatError::new(format!(
                        "row {r} column {last} out of bounds for {cols} columns"
                    )));
                }
            }
        }
        Ok(Csr { rows, cols, indptr, indices, values })
    }

    /// Construct from arrays whose invariants are guaranteed by the caller
    /// (the delta merge paths, which preserve per-row ordering by
    /// construction). Checked in debug builds only.
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Csr {
        debug_assert!(
            Csr::new(rows, cols, indptr.clone(), indices.clone(), values.clone()).is_ok(),
            "from_parts caller violated a CSR invariant"
        );
        Csr { rows, cols, indptr, indices, values }
    }

    /// Convert from COO (coalescing duplicates).
    #[must_use]
    pub fn from_coo(coo: &Coo) -> Csr {
        let mut c = coo.clone();
        c.coalesce();
        let rows = c.rows();
        let mut indptr = vec![0usize; rows + 1];
        for &(r, _, _) in c.entries() {
            indptr[r as usize + 1] += 1;
        }
        for i in 0..rows {
            indptr[i + 1] += indptr[i];
        }
        let indices = c.entries().iter().map(|&(_, col, _)| col).collect();
        let values = c.entries().iter().map(|&(_, _, v)| v).collect();
        Csr { rows, cols: c.cols(), indptr, indices, values }
    }

    /// Convert from dense, keeping non-zero entries.
    #[must_use]
    pub fn from_dense(d: &Dense) -> Csr {
        Csr::from_coo(&Coo::from_dense(d))
    }

    /// Dense reconstruction.
    #[must_use]
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                d.set(r, c as usize, v);
            }
        }
        d
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (length `rows + 1`).
    #[must_use]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array (length `nnz`).
    #[must_use]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Value array (length `nnz`).
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable value array (pattern is immutable).
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Column indices and values of row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of non-zeros in row `r`.
    #[must_use]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Density `nnz / (rows × cols)`.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Transposed copy (CSC of the original viewed as CSR).
    #[must_use]
    pub fn transpose(&self) -> Csr {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            indptr[i + 1] += indptr[i];
        }
        let mut cursor = indptr.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = cursor[c as usize];
                indices[slot] = r as u32;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr { rows: self.cols, cols: self.rows, indptr, indices, values }
    }

    /// Reference SpMM: `Y = self × X` (paper §4.2.1).
    ///
    /// # Errors
    /// Fails when `X.rows() != self.cols()`, or when the `rows × X.cols()`
    /// output cannot be allocated.
    pub fn spmm(&self, x: &Dense) -> Result<Dense, SmatError> {
        if x.rows() != self.cols {
            return Err(SmatError::new(format!(
                "spmm shape mismatch: {}x{} × {}x{}",
                self.rows,
                self.cols,
                x.rows(),
                x.cols()
            )));
        }
        let mut y = Dense::try_zeros(self.rows, x.cols())?;
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let yrow = y.row_mut(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let xrow = x.row(c as usize);
                for (o, &xv) in yrow.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        }
        Ok(y)
    }

    /// Reference SDDMM: `B_ij = A_ij · (X_i · Yᵀ_j)` over this matrix's
    /// sparsity pattern (paper §4.2.2). `y` is given as `d × n` so the dot
    /// product uses its columns.
    ///
    /// # Errors
    /// Fails when the dense shapes disagree with the pattern.
    pub fn sddmm(&self, x: &Dense, y: &Dense) -> Result<Csr, SmatError> {
        if x.rows() != self.rows || y.cols() != self.cols || x.cols() != y.rows() {
            return Err(SmatError::new(format!(
                "sddmm shape mismatch: pattern {}x{}, X {}x{}, Y {}x{}",
                self.rows,
                self.cols,
                x.rows(),
                x.cols(),
                y.rows(),
                y.cols()
            )));
        }
        let d = x.cols();
        let mut out = self.clone();
        for r in 0..self.rows {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            let xrow = x.row(r);
            for p in lo..hi {
                let c = self.indices[p] as usize;
                let mut dot = 0.0f32;
                for (k, xv) in xrow.iter().enumerate().take(d) {
                    dot += xv * y.get(k, c);
                }
                out.values[p] = self.values[p] * dot;
            }
        }
        Ok(out)
    }

    /// Per-row non-zero counts.
    #[must_use]
    pub fn row_lengths(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_nnz(r)).collect()
    }

    /// `(max, mean, std)` of row lengths — the degree-skew statistics that
    /// drive hyb bucketing decisions.
    #[must_use]
    pub fn degree_stats(&self) -> (usize, f64, f64) {
        if self.rows == 0 {
            return (0, 0.0, 0.0);
        }
        let lens = self.row_lengths();
        let max = lens.iter().copied().max().unwrap_or(0);
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        let var = lens.iter().map(|&l| (l as f64 - mean).powi(2)).sum::<f64>() / lens.len() as f64;
        (max, mean, var.sqrt())
    }

    /// Histogram of row lengths over power-of-two bins: bin `i` counts the
    /// rows whose length `l` satisfies `⌈log2(l)⌉ = i` (empty rows land in
    /// bin 0). This is the degree-skew summary the tuning cache uses to
    /// fingerprint a sparsity structure.
    #[must_use]
    pub fn degree_histogram_log2(&self) -> Vec<usize> {
        let mut hist = Vec::new();
        for r in 0..self.rows {
            let bin = crate::hyb::ceil_log2(self.row_nnz(r)) as usize;
            if bin >= hist.len() {
                hist.resize(bin + 1, 0);
            }
            hist[bin] += 1;
        }
        hist
    }

    /// Extract the sub-matrix of the given rows (keeping all columns); used
    /// by bucketing. Returns parallel `(csr, original_row_ids)`.
    #[must_use]
    pub fn select_rows(&self, rows: &[u32]) -> Csr {
        let mut indptr = vec![0usize; rows.len() + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &r) in rows.iter().enumerate() {
            let (cols, vals) = self.row(r as usize);
            indices.extend_from_slice(cols);
            values.extend_from_slice(vals);
            indptr[i + 1] = indices.len();
        }
        Csr { rows: rows.len(), cols: self.cols, indptr, indices, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        Csr::new(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn validation_rejects_bad_indptr() {
        assert!(Csr::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::new(2, 2, vec![1, 1, 1], vec![], vec![]).is_err());
        assert!(Csr::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // `rows + 1` overflows: an error, not a panic.
        assert!(Csr::new(usize::MAX, 2, vec![0], vec![], vec![]).is_err());
    }

    #[test]
    fn validation_rejects_unsorted_columns() {
        assert!(Csr::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        assert!(Csr::new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn validation_rejects_oob_column() {
        assert!(Csr::new(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        assert_eq!(Csr::from_dense(&m.to_dense()), m);
    }

    #[test]
    fn coo_conversion_coalesces() {
        let coo = Coo::from_entries(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 4.0)]).unwrap();
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.to_dense().get(0, 0), 3.0);
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let m = sample();
        let x = Dense::from_fn(3, 4, |r, c| (r + c) as f32);
        let y = m.spmm(&x).unwrap();
        let expected = m.to_dense().matmul(&x).unwrap();
        assert!(y.approx_eq(&expected, 1e-6));
    }

    #[test]
    fn sddmm_matches_definition() {
        let m = sample();
        let d = 5;
        let x = Dense::from_fn(3, d, |r, c| (r * d + c) as f32 * 0.1);
        let y = Dense::from_fn(d, 3, |r, c| (r + 2 * c) as f32 * 0.2);
        let out = m.sddmm(&x, &y).unwrap();
        let xy = x.matmul(&y).unwrap();
        for r in 0..3 {
            let (cols, vals) = out.row(r);
            let (_, avals) = m.row(r);
            for ((&c, &v), &a) in cols.iter().zip(vals).zip(avals) {
                let expected = a * xy.get(r, c as usize);
                assert!((v - expected).abs() < 1e-4, "at ({r},{c}): {v} vs {expected}");
            }
        }
    }

    #[test]
    fn degree_histogram_log2_counts_rows() {
        // Row lengths 2, 0, 2 → bins {1: two rows, 0: one empty row}.
        let m = sample();
        assert_eq!(m.degree_histogram_log2(), vec![1, 2]);
    }

    #[test]
    fn degree_stats() {
        let m = sample();
        let (max, mean, _std) = m.degree_stats();
        assert_eq!(max, 2);
        assert!((mean - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn select_rows_gathers() {
        let m = sample();
        let sub = m.select_rows(&[2, 0]);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.row(0).0, &[0, 1]);
        assert_eq!(sub.row(1).0, &[0, 2]);
    }
}
