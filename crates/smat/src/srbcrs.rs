//! SR-BCRS(t, g) — the Magicube-inspired format for unstructured pruned
//! weights (paper §4.3.2, Figure 18): the matrix is cut into `t × 1`
//! vertical tiles; all-zero tiles are dropped; surviving tiles within a
//! tile-row are grouped by `g` with zero-tile padding so tensor cores can
//! consume whole groups.

use crate::csr::Csr;
use crate::dense::{Dense, SmatError};
use std::collections::BTreeSet;

/// An SR-BCRS matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SrBcrs {
    rows: usize,
    cols: usize,
    t: usize,
    g: usize,
    tile_rows: usize,
    /// Per tile-row group counts, prefix-summed (`len = tile_rows + 1`).
    group_indptr: Vec<usize>,
    /// Column index per stored tile (`len = total_groups × g`).
    tile_cols: Vec<u32>,
    /// Values per stored tile, `t` each (`len = total_groups × g × t`).
    values: Vec<f32>,
}

impl SrBcrs {
    /// Convert from CSR.
    ///
    /// # Errors
    /// Fails when `t == 0` or `g == 0`, and when a tile row's padded
    /// storage — `groups × g` tile columns, `× t` values — would overflow
    /// `usize` or cannot be reserved.
    pub fn from_csr(csr: &Csr, t: usize, g: usize) -> Result<SrBcrs, SmatError> {
        if t == 0 || g == 0 {
            return Err(SmatError::new("sr-bcrs: t and g must be positive"));
        }
        let rows = csr.rows();
        let cols = csr.cols();
        let tile_rows = rows.div_ceil(t);
        let mut group_indptr = vec![0usize; tile_rows + 1];
        let mut tile_cols: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        for tr in 0..tile_rows {
            // Columns with at least one non-zero among rows [tr*t, tr*t+t).
            let mut present: BTreeSet<u32> = BTreeSet::new();
            for r in tr * t..((tr + 1) * t).min(rows) {
                for &c in csr.row(r).0 {
                    present.insert(c);
                }
            }
            let ntiles = present.len();
            let ngroups = ntiles.div_ceil(g);
            let overflow = || SmatError::new(format!("sr-bcrs({t}, {g}): tiles overflow usize"));
            let padded = ngroups.checked_mul(g).ok_or_else(overflow)?;
            let nvals = padded.checked_mul(t).ok_or_else(overflow)?;
            tile_cols.try_reserve_exact(padded).map_err(|e| {
                SmatError::new(format!("sr-bcrs({t}, {g}): {padded} tile columns: {e}"))
            })?;
            values
                .try_reserve_exact(nvals)
                .map_err(|e| SmatError::new(format!("sr-bcrs({t}, {g}): {nvals} values: {e}")))?;
            let cols_vec: Vec<u32> = present.into_iter().collect();
            for slot in 0..padded {
                let col = cols_vec.get(slot).copied().unwrap_or(0);
                tile_cols.push(col);
                for ri in 0..t {
                    let r = tr * t + ri;
                    let v = if slot < ntiles && r < rows { lookup(csr, r, col) } else { 0.0 };
                    values.push(v);
                }
            }
            group_indptr[tr + 1] = group_indptr[tr] + ngroups;
        }
        Ok(SrBcrs { rows, cols, t, g, tile_rows, group_indptr, tile_cols, values })
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

    /// Tile height `t`.
    #[must_use]
    pub fn t(&self) -> usize {
        self.t
    }

    /// Group size `g`.
    #[must_use]
    pub fn g(&self) -> usize {
        self.g
    }

    /// Number of tile rows.
    #[must_use]
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Group pointer array over tile rows.
    #[must_use]
    pub fn group_indptr(&self) -> &[usize] {
        &self.group_indptr
    }

    /// Column per stored tile.
    #[must_use]
    pub fn tile_cols(&self) -> &[u32] {
        &self.tile_cols
    }

    /// Tile values (column-major within tile: `t` consecutive values).
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Total stored tiles including padding.
    #[must_use]
    pub fn stored_tiles(&self) -> usize {
        self.tile_cols.len()
    }

    /// Total stored elements including padding.
    #[must_use]
    pub fn stored(&self) -> usize {
        self.values.len()
    }

    /// Density of the transformed storage relative to the full matrix
    /// (the right panel of Figure 19).
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
        for tr in 0..self.tile_rows {
            let lo = self.group_indptr[tr] * self.g;
            let hi = self.group_indptr[tr + 1] * self.g;
            for tile in lo..hi {
                let c = self.tile_cols[tile] as usize;
                for ri in 0..self.t {
                    let r = tr * self.t + ri;
                    if r < self.rows {
                        let v = self.values[tile * self.t + ri];
                        if v != 0.0 {
                            d.set(r, c, v);
                        }
                    }
                }
            }
        }
        d
    }

    /// Reference SpMM on the tiled storage.
    ///
    /// # Errors
    /// Fails when `x.rows() != self.cols()`, or when the `rows × x.cols()`
    /// output cannot be allocated.
    pub fn spmm(&self, x: &Dense) -> Result<Dense, SmatError> {
        if x.rows() != self.cols {
            return Err(SmatError::new("sr-bcrs spmm shape mismatch"));
        }
        let mut y = Dense::try_zeros(self.rows, x.cols())?;
        for tr in 0..self.tile_rows {
            let lo = self.group_indptr[tr] * self.g;
            let hi = self.group_indptr[tr + 1] * self.g;
            for tile in lo..hi {
                let c = self.tile_cols[tile] as usize;
                let xrow = x.row(c);
                for ri in 0..self.t {
                    let r = tr * self.t + ri;
                    if r >= self.rows {
                        break;
                    }
                    let v = self.values[tile * self.t + ri];
                    if v == 0.0 {
                        continue;
                    }
                    let yrow = y.row_mut(r);
                    for (o, &xv) in yrow.iter_mut().zip(xrow) {
                        *o += v * xv;
                    }
                }
            }
        }
        Ok(y)
    }
}

fn lookup(csr: &Csr, r: usize, col: u32) -> f32 {
    let (cols, vals) = csr.row(r);
    match cols.binary_search(&col) {
        Ok(p) => vals[p],
        Err(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Csr {
        // 8x8 with a few scattered entries.
        let coo = Coo::from_entries(
            8,
            8,
            vec![(0, 1, 1.0), (1, 1, 2.0), (2, 5, 3.0), (3, 1, 4.0), (4, 0, 5.0), (7, 7, 6.0)],
        )
        .unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn roundtrip() {
        let csr = sample();
        for (t, g) in [(2usize, 2usize), (4, 2), (4, 4), (8, 1)] {
            let s = SrBcrs::from_csr(&csr, t, g).unwrap();
            assert_eq!(s.to_dense(), csr.to_dense(), "t={t} g={g}");
        }
    }

    #[test]
    fn groups_are_padded_to_g() {
        let csr = sample();
        let s = SrBcrs::from_csr(&csr, 4, 4).unwrap();
        assert_eq!(s.stored_tiles() % 4, 0);
    }

    #[test]
    fn spmm_matches_csr() {
        let csr = sample();
        let x = Dense::from_fn(8, 3, |r, c| (r * 3 + c) as f32 * 0.1);
        let expected = csr.spmm(&x).unwrap();
        let s = SrBcrs::from_csr(&csr, 4, 2).unwrap();
        assert!(s.spmm(&x).unwrap().approx_eq(&expected, 1e-5));
    }

    #[test]
    fn fragmentation_beats_bsr() {
        // SR-BCRS intra-tile waste lower bound is 1/t vs 1/b² for BSR:
        // a single scattered nonzero stores t elements, not b².
        let coo = Coo::from_entries(32, 32, vec![(5, 9, 1.0)]).unwrap();
        let csr = Csr::from_coo(&coo);
        let s = SrBcrs::from_csr(&csr, 8, 1).unwrap();
        let b = crate::bsr::Bsr::from_csr(&csr, 32).unwrap();
        assert!(s.stored() < b.stored());
        assert_eq!(s.stored(), 8);
    }

    #[test]
    fn invalid_params_error() {
        let csr = sample();
        assert!(SrBcrs::from_csr(&csr, 0, 2).is_err());
        assert!(SrBcrs::from_csr(&csr, 2, 0).is_err());
    }

    fn three_by_three() -> Csr {
        Csr::from_coo(&Coo::from_entries(3, 3, vec![(0, 0, 1.0), (1, 2, 2.0)]).unwrap())
    }

    /// A group of `2^40` tiles pads a tile row to `2^40` tile columns: more
    /// than any allocation may hold, so the reservation fails before a
    /// tile is written, where the fill used to abort the process.
    #[test]
    fn a_huge_group_is_an_error() {
        let err = SrBcrs::from_csr(&three_by_three(), 1, 1 << 40).expect_err("too large");
        assert!(err.to_string().contains("tile columns"), "{err}");
    }

    /// `usize::MAX` rows per tile times two tiles overflows `usize`.
    #[test]
    fn a_huge_tile_height_is_an_error() {
        let err = SrBcrs::from_csr(&three_by_three(), usize::MAX, 1).expect_err("overflows");
        assert!(err.to_string().contains("overflow usize"), "{err}");
    }

    /// One group of `usize::MAX` tiles is `usize::MAX` tile columns: past
    /// what a `Vec` may reserve.
    #[test]
    fn a_group_of_usize_max_is_an_error() {
        let err = SrBcrs::from_csr(&three_by_three(), 1, usize::MAX).expect_err("too large");
        assert!(err.to_string().contains("tile columns"), "{err}");
    }
}
