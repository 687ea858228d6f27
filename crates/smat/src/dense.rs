//! Row-major dense matrices (the `X`, `Y`, `W` operands of the paper's
//! operators) with the reference routines used as correctness oracles.

use std::fmt;

/// Error raised by matrix constructors and kernels on shape mismatches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmatError {
    message: String,
}

impl SmatError {
    /// Construct an error with a message (also used by downstream crates
    /// that report shape mismatches in terms of `SmatError`).
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        SmatError { message: message.into() }
    }
}

impl fmt::Display for SmatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sparse matrix error: {}", self.message)
    }
}

impl std::error::Error for SmatError {}

/// A row-major dense `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Dense {
    /// All-zero `rows × cols` matrix, or why it cannot exist.
    ///
    /// # Errors
    /// Fails when `rows × cols` overflows `usize` or its `f32`s need more
    /// bytes than one allocation can hold; nothing is allocated then.
    pub fn try_zeros(rows: usize, cols: usize) -> Result<Dense, SmatError> {
        match rows.checked_mul(cols).map(|len| (len, std::alloc::Layout::array::<f32>(len))) {
            Some((len, Ok(_))) => Ok(Dense { rows, cols, data: vec![0.0; len] }),
            _ => Err(SmatError::new(format!("dense shape {rows}x{cols} cannot be allocated"))),
        }
    }

    /// All-zero matrix.
    ///
    /// # Panics
    /// With [`Dense::try_zeros`]' message, when the matrix cannot exist.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Dense {
        Dense::try_zeros(rows, cols).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from a function of `(row, col)`, called in row-major order.
    ///
    /// # Panics
    /// As [`Dense::zeros`].
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Dense {
        let mut m = Dense::zeros(rows, cols);
        for (r, row) in m.data.chunks_exact_mut(cols.max(1)).enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = f(r, c);
            }
        }
        m
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Errors
    /// Fails when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Dense, SmatError> {
        let Some(len) = rows.checked_mul(cols) else {
            return Err(SmatError::new(format!("dense shape {rows}x{cols} overflows usize")));
        };
        if data.len() != len {
            return Err(SmatError::new(format!(
                "dense data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Dense { rows, cols, data })
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

    /// Underlying row-major storage.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Errors
    /// Fails when inner dimensions disagree.
    pub fn matmul(&self, rhs: &Dense) -> Result<Dense, SmatError> {
        if self.cols != rhs.rows {
            return Err(SmatError::new(format!(
                "matmul shape mismatch: {}x{} × {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Dense::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Transposed copy.
    #[must_use]
    pub fn transpose(&self) -> Dense {
        Dense::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Elementwise sum with `rhs`.
    ///
    /// # Errors
    /// Fails on shape mismatch.
    pub fn add(&self, rhs: &Dense) -> Result<Dense, SmatError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(SmatError::new("add shape mismatch"));
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Ok(Dense { rows: self.rows, cols: self.cols, data })
    }

    /// Scale every element.
    #[must_use]
    pub fn scale(&self, s: f32) -> Dense {
        Dense { rows: self.rows, cols: self.cols, data: self.data.iter().map(|v| v * s).collect() }
    }

    /// Apply ReLU elementwise.
    #[must_use]
    pub fn relu(&self) -> Dense {
        Dense {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v.max(0.0)).collect(),
        }
    }

    /// Maximum absolute difference to `rhs` (∞ on shape mismatch).
    #[must_use]
    pub fn max_abs_diff(&self, rhs: &Dense) -> f32 {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return f32::INFINITY;
        }
        self.data.iter().zip(&rhs.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    /// True when every element differs from `rhs` by at most `tol`.
    #[must_use]
    pub fn approx_eq(&self, rhs: &Dense, tol: f32) -> bool {
        self.max_abs_diff(rhs) <= tol
    }

    /// Count of non-zero entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Dense::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Dense::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Dense::from_vec(2, 2, vec![0.0; 3]).is_err());
        // A shape whose element count overflows is an error, not a
        // wrapped count an empty buffer matches.
        let err = Dense::from_vec(usize::MAX, 2, vec![]).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn approx_eq_tolerates_small_error() {
        let a = Dense::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let b = Dense::from_vec(1, 2, vec![1.0 + 1e-6, 2.0]).unwrap();
        assert!(a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&b, 1e-8));
    }

    #[test]
    fn relu_and_scale() {
        let a = Dense::from_vec(1, 3, vec![-1.0, 0.5, 2.0]).unwrap();
        assert_eq!(a.relu().data(), &[0.0, 0.5, 2.0]);
        assert_eq!(a.scale(2.0).data(), &[-2.0, 1.0, 4.0]);
    }

    #[test]
    fn nnz_counts_nonzeros() {
        let a = Dense::from_vec(2, 2, vec![0.0, 1.0, 0.0, 3.0]).unwrap();
        assert_eq!(a.nnz(), 2);
    }
}
