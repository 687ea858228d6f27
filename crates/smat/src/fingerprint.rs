//! Structural sparsity fingerprints: the cache-key material that lets a
//! tuning or serving decision made for one matrix transfer to any matrix
//! with the same shape of sparsity problem (§2's amortization argument).

use crate::csr::Csr;

/// Structural summary of a sparse matrix: dimensions, non-zero count and
/// the power-of-two degree histogram. Two matrices with the same
/// fingerprint have the same shape of tuning problem, so a cached decision
/// transfers. Note the asymmetry: the *configuration* transfers between
/// colliding matrices by design, but any absolute timings stored alongside
/// it were observed on the first matrix — treat them as representative,
/// not exact, for a collider.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SparsityFingerprint {
    /// Rows of the matrix.
    pub rows: usize,
    /// Columns of the matrix.
    pub cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// `Csr::degree_histogram_log2` — the degree-skew summary that drives
    /// bucketing decisions.
    pub degree_hist: Vec<usize>,
    /// Per-relation `(rows, cols, nnz)` for multi-relation adjacencies
    /// (RGMS). Empty for single-matrix fingerprints. Encoding every
    /// member's dimensions (and, through the length, the relation count)
    /// keeps two relation families distinct even when their summed
    /// histograms and total non-zeros coincide.
    pub relation_dims: Vec<(usize, usize, usize)>,
}

impl SparsityFingerprint {
    /// Fingerprint a CSR matrix.
    #[must_use]
    pub fn of(a: &Csr) -> SparsityFingerprint {
        SparsityFingerprint {
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            degree_hist: a.degree_histogram_log2(),
            relation_dims: Vec::new(),
        }
    }

    /// Fingerprint a family of matrices as one combined structure (the
    /// multi-relation adjacency of RGMS): dimensions of the first member,
    /// total non-zeros, the element-wise sum of the per-member degree
    /// histograms, and every member's `(rows, cols, nnz)` so that families
    /// differing in any relation's shape — not just the first — fingerprint
    /// differently.
    #[must_use]
    pub fn of_relations(relations: &[Csr]) -> SparsityFingerprint {
        let mut degree_hist: Vec<usize> = Vec::new();
        for rel in relations {
            let h = rel.degree_histogram_log2();
            if h.len() > degree_hist.len() {
                degree_hist.resize(h.len(), 0);
            }
            for (acc, v) in degree_hist.iter_mut().zip(&h) {
                *acc += v;
            }
        }
        // Sorted so the combined fingerprint stays order-insensitive, as
        // the RGMS kernels treat relations as an unordered family.
        let mut relation_dims: Vec<(usize, usize, usize)> =
            relations.iter().map(|r| (r.rows(), r.cols(), r.nnz())).collect();
        relation_dims.sort_unstable();
        SparsityFingerprint {
            rows: relations.first().map_or(0, Csr::rows),
            cols: relations.first().map_or(0, Csr::cols),
            nnz: relations.iter().map(Csr::nnz).sum(),
            degree_hist,
            relation_dims,
        }
    }

    /// Degree-histogram drift between this fingerprint and `newer`: the L1
    /// distance of the log2-degree histograms normalized by the row count,
    /// i.e. roughly the fraction of rows whose degree bucket changed (a row
    /// that moved bins contributes 2 to the raw distance). The serving
    /// engine re-tunes only when this exceeds its configured threshold —
    /// format and schedule decisions key on degree *skew*, which small
    /// drifts leave intact.
    #[must_use]
    pub fn drift(&self, newer: &SparsityFingerprint) -> f64 {
        let rows = self.rows.max(newer.rows);
        if rows == 0 {
            return 0.0;
        }
        let bins = self.degree_hist.len().max(newer.degree_hist.len());
        let mut l1 = 0usize;
        for i in 0..bins {
            let a = self.degree_hist.get(i).copied().unwrap_or(0);
            let b = newer.degree_hist.get(i).copied().unwrap_or(0);
            l1 += a.abs_diff(b);
        }
        l1 as f64 / rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_degree_distributions() {
        let a = Csr::new(2, 2, vec![0, 2, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        let b = Csr::new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        assert_ne!(SparsityFingerprint::of(&a), SparsityFingerprint::of(&b));
    }

    #[test]
    fn relation_fingerprint_combines_members() {
        let a = Csr::new(2, 2, vec![0, 2, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        let b = Csr::new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        let f = SparsityFingerprint::of_relations(&[a.clone(), b.clone()]);
        assert_eq!(f.nnz, a.nnz() + b.nnz());
        assert_eq!((f.rows, f.cols), (2, 2));
        // Reordering relations must not change the combined fingerprint.
        assert_eq!(f, SparsityFingerprint::of_relations(&[b, a]));
    }

    /// Regression: two relation families agreeing in their first member,
    /// total nnz and summed degree histogram — but differing in a later
    /// member's dimensions — used to collide (only `relations.first()`'s
    /// shape was encoded).
    #[test]
    fn relation_fingerprint_encodes_every_members_shape() {
        let first = Csr::new(4, 4, vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3], vec![1.0; 4]).unwrap();
        // Same rows and row-length profile (4 rows of 1 nnz), different cols.
        let wide = Csr::new(4, 8, vec![0, 1, 2, 3, 4], vec![0, 2, 4, 6], vec![1.0; 4]).unwrap();
        let narrow = Csr::new(4, 2, vec![0, 1, 2, 3, 4], vec![0, 1, 0, 1], vec![1.0; 4]).unwrap();
        let fa = SparsityFingerprint::of_relations(&[first.clone(), wide]);
        let fb = SparsityFingerprint::of_relations(&[first.clone(), narrow]);
        assert_ne!(fa, fb, "families differing only in a later relation's cols must not collide");
        // Relation count is encoded too: [A] vs [A, empty-ish B] with equal
        // totals must differ.
        let empty = Csr::new(0, 4, vec![0], vec![], vec![]).unwrap();
        let fc = SparsityFingerprint::of_relations(std::slice::from_ref(&first));
        let fd = SparsityFingerprint::of_relations(&[first, empty]);
        assert_ne!(fc, fd, "relation count must be part of the fingerprint");
    }

    #[test]
    fn drift_counts_moved_rows() {
        // 4 rows of length 1 → hist [0, 4] (bin 0 empty, bin 1? no:
        // ceil_log2(1) = 0, so hist [4]).
        let a = Csr::new(4, 4, vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3], vec![1.0; 4]).unwrap();
        let fa = SparsityFingerprint::of(&a);
        assert!(fa.drift(&fa).abs() < f64::EPSILON);
        // Move one row from 1 nnz to 2 nnz: one row changes bin → L1 = 2,
        // normalized by 4 rows = 0.5.
        let b = Csr::new(4, 4, vec![0, 2, 3, 4, 5], vec![0, 1, 1, 2, 3], vec![1.0; 5]).unwrap();
        let fb = SparsityFingerprint::of(&b);
        assert!((fa.drift(&fb) - 0.5).abs() < 1e-12);
        assert!((fb.drift(&fa) - 0.5).abs() < 1e-12, "drift is symmetric");
    }
}
