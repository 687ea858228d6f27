//! Coordinate (COO) sparse matrices — the construction entry point for all
//! other formats.

use crate::dense::{Dense, SmatError};

/// A sparse matrix in coordinate form: unordered `(row, col, value)`
/// triplets. Duplicate coordinates are summed during conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f32)>,
}

impl Coo {
    /// Empty matrix of the given shape.
    ///
    /// # Panics
    /// Panics where [`Coo::from_entries`] refuses `rows`.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Coo {
        Coo::from_entries(rows, cols, Vec::new()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from triplets.
    ///
    /// # Errors
    /// Fails when `rows + 1` row pointers cannot exist (their count or
    /// bytes overflow), so that every `Coo` has a CSR, and when any
    /// coordinate is out of bounds.
    pub fn from_entries(
        rows: usize,
        cols: usize,
        entries: Vec<(u32, u32, f32)>,
    ) -> Result<Coo, SmatError> {
        if rows.checked_add(1).map(std::alloc::Layout::array::<usize>).is_none_or(|l| l.is_err()) {
            return Err(SmatError::new(format!("{rows} rows: the row pointers cannot exist")));
        }
        for &(r, c, _) in &entries {
            if r as usize >= rows || c as usize >= cols {
                return Err(SmatError::new(format!(
                    "entry ({r},{c}) out of bounds for {rows}x{cols}"
                )));
            }
        }
        Ok(Coo { rows, cols, entries })
    }

    /// Append one entry.
    ///
    /// # Panics
    /// Panics when the coordinate is out of bounds.
    pub fn push(&mut self, r: u32, c: u32, v: f32) {
        assert!(
            (r as usize) < self.rows && (c as usize) < self.cols,
            "entry ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((r, c, v));
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

    /// Stored triplets (may contain duplicates until conversion).
    #[must_use]
    pub fn entries(&self) -> &[(u32, u32, f32)] {
        &self.entries
    }

    /// Number of stored triplets.
    #[must_use]
    pub fn stored(&self) -> usize {
        self.entries.len()
    }

    /// Sort by `(row, col)` and sum duplicates in place.
    pub fn coalesce(&mut self) {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut out: Vec<(u32, u32, f32)> = Vec::with_capacity(self.entries.len());
        for &(r, c, v) in &self.entries {
            match out.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => out.push((r, c, v)),
            }
        }
        self.entries = out;
    }

    /// Dense reconstruction (duplicates summed).
    #[must_use]
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            let cur = d.get(r as usize, c as usize);
            d.set(r as usize, c as usize, cur + v);
        }
        d
    }

    /// Build from a dense matrix, keeping entries with `|v| > 0`.
    #[must_use]
    pub fn from_dense(d: &Dense) -> Coo {
        let mut coo = Coo::new(d.rows(), d.cols());
        for r in 0..d.rows() {
            for c in 0..d.cols() {
                let v = d.get(r, c);
                if v != 0.0 {
                    coo.push(r as u32, c as u32, v);
                }
            }
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_sums_duplicates() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 5.0);
        coo.coalesce();
        assert_eq!(coo.entries(), &[(0, 1, 3.0), (1, 0, 5.0)]);
    }

    #[test]
    fn bounds_are_validated() {
        assert!(Coo::from_entries(2, 2, vec![(2, 0, 1.0)]).is_err());
        assert!(Coo::from_entries(2, 2, vec![(1, 1, 1.0)]).is_ok());
    }

    #[test]
    fn dense_roundtrip() {
        let d = Dense::from_vec(2, 3, vec![0.0, 1.0, 0.0, 2.0, 0.0, 3.0]).unwrap();
        let coo = Coo::from_dense(&d);
        assert_eq!(coo.stored(), 3);
        assert_eq!(coo.to_dense(), d);
    }
}
