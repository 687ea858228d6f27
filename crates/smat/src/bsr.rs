//! Block Compressed Sparse Row (BSR) — the tensor-core-friendly format used
//! for sparse attention and structured pruning (paper §4.3).

use crate::csr::Csr;
use crate::dense::{Dense, SmatError};

/// A BSR matrix with square `block × block` blocks stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Bsr {
    rows: usize,
    cols: usize,
    block: usize,
    block_rows: usize,
    block_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Bsr {
    /// Convert from CSR, collecting every block containing at least one
    /// non-zero (zero-padding block interiors).
    ///
    /// # Errors
    /// Fails when `block` is zero or does not fit a `u32` (the column
    /// indices' type), and when the blocks' storage would overflow `usize`
    /// or cannot be reserved.
    pub fn from_csr(csr: &Csr, block: usize) -> Result<Bsr, SmatError> {
        if block == 0 {
            return Err(SmatError::new("block size must be positive"));
        }
        let Ok(block32) = u32::try_from(block) else {
            return Err(SmatError::new(format!("block size {block} does not fit u32")));
        };
        let rows = csr.rows();
        let cols = csr.cols();
        let block_rows = rows.div_ceil(block);
        let block_cols = cols.div_ceil(block);
        let mut indptr = vec![0usize; block_rows + 1];
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        for br in 0..block_rows {
            // Collect block columns present in this block row.
            let mut present: Vec<u32> = Vec::new();
            for r in br * block..((br + 1) * block).min(rows) {
                for &c in csr.row(r).0 {
                    let bc = c / block32;
                    if !present.contains(&bc) {
                        present.push(bc);
                    }
                }
            }
            present.sort_unstable();
            let base = values.len();
            let len = present
                .len()
                .checked_mul(block)
                .and_then(|n| n.checked_mul(block))
                .and_then(|n| n.checked_add(base))
                .ok_or_else(|| SmatError::new(format!("{block}x{block} blocks overflow usize")))?;
            values.try_reserve_exact(len - base).map_err(|e| {
                SmatError::new(format!("{block}x{block} blocks: {} values: {e}", len - base))
            })?;
            values.resize(len, 0.0);
            for r in br * block..((br + 1) * block).min(rows) {
                let (rcols, rvals) = csr.row(r);
                for (&c, &v) in rcols.iter().zip(rvals) {
                    let bc = c / block32;
                    let slot = present.binary_search(&bc).expect("block present");
                    let ri = r - br * block;
                    let ci = c as usize - bc as usize * block;
                    values[base + slot * block * block + ri * block + ci] = v;
                }
            }
            indices.extend_from_slice(&present);
            indptr[br + 1] = indices.len();
        }
        Ok(Bsr { rows, cols, block, block_rows, block_cols, indptr, indices, values })
    }

    /// Logical row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block edge length.
    #[must_use]
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of block rows.
    #[must_use]
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of block columns.
    #[must_use]
    pub fn block_cols(&self) -> usize {
        self.block_cols
    }

    /// Block-row pointer array.
    #[must_use]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Block column indices.
    #[must_use]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Block value storage (`nblocks × block × block`).
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Number of stored blocks.
    #[must_use]
    pub fn nblocks(&self) -> usize {
        self.indices.len()
    }

    /// Stored element count (blocks × block²).
    #[must_use]
    pub fn stored(&self) -> usize {
        self.nblocks() * self.block * self.block
    }

    /// Count of block rows with no blocks at all — the waste DBSR removes
    /// (paper §4.3.2, structured pruning).
    #[must_use]
    pub fn zero_block_rows(&self) -> usize {
        (0..self.block_rows).filter(|&br| self.indptr[br] == self.indptr[br + 1]).count()
    }

    /// Density of the stored blocks relative to the full matrix.
    #[must_use]
    pub fn stored_density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.stored() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Dense reconstruction.
    #[must_use]
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.rows, self.cols);
        let b = self.block;
        for br in 0..self.block_rows {
            for p in self.indptr[br]..self.indptr[br + 1] {
                let bc = self.indices[p] as usize;
                for ri in 0..b {
                    for ci in 0..b {
                        let r = br * b + ri;
                        let c = bc * b + ci;
                        if r < self.rows && c < self.cols {
                            let v = self.values[p * b * b + ri * b + ci];
                            if v != 0.0 {
                                d.set(r, c, v);
                            }
                        }
                    }
                }
            }
        }
        d
    }

    /// Reference SpMM on block storage.
    ///
    /// # Errors
    /// Fails when `x.rows() != self.cols()`, or when the `rows × x.cols()`
    /// output cannot be allocated.
    pub fn spmm(&self, x: &Dense) -> Result<Dense, SmatError> {
        if x.rows() != self.cols {
            return Err(SmatError::new("bsr spmm shape mismatch"));
        }
        let mut y = Dense::try_zeros(self.rows, x.cols())?;
        let b = self.block;
        for br in 0..self.block_rows {
            for p in self.indptr[br]..self.indptr[br + 1] {
                let bc = self.indices[p] as usize;
                for ri in 0..b {
                    let r = br * b + ri;
                    if r >= self.rows {
                        break;
                    }
                    for ci in 0..b {
                        let c = bc * b + ci;
                        if c >= self.cols {
                            break;
                        }
                        let v = self.values[p * b * b + ri * b + ci];
                        if v == 0.0 {
                            continue;
                        }
                        let xrow = x.row(c);
                        let yrow = y.row_mut(r);
                        for (o, &xv) in yrow.iter_mut().zip(xrow) {
                            *o += v * xv;
                        }
                    }
                }
            }
        }
        Ok(y)
    }
}

/// Doubly-compressed BSR (DBSR, after the DCSR of Buluç & Gilbert): block
/// rows with no blocks are skipped entirely, storing an explicit list of
/// non-empty block-row ids (paper §4.3.2, block-pruned transformers).
#[derive(Debug, Clone, PartialEq)]
pub struct Dbsr {
    rows: usize,
    cols: usize,
    block: usize,
    block_row_ids: Vec<u32>,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Dbsr {
    /// Logical row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Compress a BSR matrix by dropping empty block rows.
    #[must_use]
    pub fn from_bsr(bsr: &Bsr) -> Dbsr {
        let mut block_row_ids = Vec::new();
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let bb = bsr.block() * bsr.block();
        for br in 0..bsr.block_rows() {
            let lo = bsr.indptr()[br];
            let hi = bsr.indptr()[br + 1];
            if lo == hi {
                continue;
            }
            block_row_ids.push(br as u32);
            indices.extend_from_slice(&bsr.indices()[lo..hi]);
            values.extend_from_slice(&bsr.values()[lo * bb..hi * bb]);
            indptr.push(indices.len());
        }
        Dbsr {
            rows: bsr.rows(),
            cols: bsr.cols(),
            block: bsr.block(),
            block_row_ids,
            indptr,
            indices,
            values,
        }
    }

    /// Non-empty block-row ids.
    #[must_use]
    pub fn block_row_ids(&self) -> &[u32] {
        &self.block_row_ids
    }

    /// Number of stored (non-empty) block rows.
    #[must_use]
    pub fn nrows_compressed(&self) -> usize {
        self.block_row_ids.len()
    }

    /// Block pointer array over compressed rows.
    #[must_use]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Block column indices.
    #[must_use]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Block values.
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Block edge length.
    #[must_use]
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of stored blocks.
    #[must_use]
    pub fn nblocks(&self) -> usize {
        self.indices.len()
    }

    /// Dense reconstruction.
    #[must_use]
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.rows, self.cols);
        let b = self.block;
        for (ci, &br) in self.block_row_ids.iter().enumerate() {
            for p in self.indptr[ci]..self.indptr[ci + 1] {
                let bc = self.indices[p] as usize;
                for ri in 0..b {
                    for cj in 0..b {
                        let r = br as usize * b + ri;
                        let c = bc * b + cj;
                        if r < self.rows && c < self.cols {
                            let v = self.values[p * b * b + ri * b + cj];
                            if v != 0.0 {
                                d.set(r, c, v);
                            }
                        }
                    }
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn blocky() -> Csr {
        // 6x6 with non-zeros confined to blocks (0,0) and (2,1) of size 2,
        // leaving block row 1 empty.
        let coo = Coo::from_entries(6, 6, vec![(0, 0, 1.0), (1, 1, 2.0), (4, 2, 3.0), (5, 3, 4.0)])
            .unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_csr_collects_blocks() {
        let bsr = Bsr::from_csr(&blocky(), 2).unwrap();
        assert_eq!(bsr.nblocks(), 2);
        assert_eq!(bsr.zero_block_rows(), 1);
        assert_eq!(bsr.to_dense(), blocky().to_dense());
    }

    #[test]
    fn spmm_matches_csr() {
        let csr = blocky();
        let bsr = Bsr::from_csr(&csr, 2).unwrap();
        let x = Dense::from_fn(6, 3, |r, c| (r + c) as f32);
        assert!(bsr.spmm(&x).unwrap().approx_eq(&csr.spmm(&x).unwrap(), 1e-6));
    }

    #[test]
    fn dbsr_skips_empty_block_rows() {
        let bsr = Bsr::from_csr(&blocky(), 2).unwrap();
        let dbsr = Dbsr::from_bsr(&bsr);
        assert_eq!(dbsr.nrows_compressed(), 2);
        assert_eq!(dbsr.block_row_ids(), &[0, 2]);
        assert_eq!(dbsr.to_dense(), blocky().to_dense());
    }

    #[test]
    fn non_divisible_dims_are_padded() {
        let coo = Coo::from_entries(5, 5, vec![(4, 4, 7.0)]).unwrap();
        let csr = Csr::from_coo(&coo);
        let bsr = Bsr::from_csr(&csr, 2).unwrap();
        assert_eq!(bsr.block_rows(), 3);
        assert_eq!(bsr.to_dense(), csr.to_dense());
    }

    #[test]
    fn zero_block_size_errors() {
        assert!(Bsr::from_csr(&blocky(), 0).is_err());
    }

    /// A block that does not fit the `u32` column type is an error: `1 << 32`
    /// used to truncate to 0 and divide by it, `(1 << 32) + 1` to 1 and
    /// compute block columns as `c / 1`.
    #[test]
    fn block_sizes_past_u32_are_errors() {
        let small = Csr::from_coo(&Coo::from_entries(3, 3, vec![(1, 2, 1.0)]).unwrap());
        for block in [1usize << 32, (1 << 32) + 1, usize::MAX] {
            let err = Bsr::from_csr(&small, block).expect_err("block past u32");
            assert!(err.to_string().contains("does not fit u32"), "{err}");
        }
    }

    /// Storage of `present × block × block` values is counted with checked
    /// arithmetic and reserved fallibly: two block columns of ≈ 3.5e9 wide
    /// blocks overflow `usize`, one of `2^31` wide blocks is `2^62` values —
    /// more than any allocation may hold. Both are errors, not panics.
    #[test]
    fn block_storage_past_usize_is_an_error() {
        let wide =
            Csr::new(1, 1 << 32, vec![0, 2], vec![0, 3_600_000_000], vec![1.0, 2.0]).unwrap();
        let err = Bsr::from_csr(&wide, 3_500_000_000).expect_err("overflows");
        assert!(err.to_string().contains("overflow usize"), "{err}");
        let small = Csr::from_coo(&Coo::from_entries(3, 3, vec![(1, 2, 1.0)]).unwrap());
        let err = Bsr::from_csr(&small, 1 << 31).expect_err("no allocation that large");
        assert!(err.to_string().contains("values"), "{err}");
    }
}
