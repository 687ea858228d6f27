//! The paper's parameterized composable format `hyb(c, k)` (§4.2.1,
//! Figure 11): columns are split into `c` partitions; within each partition,
//! rows are bucketed by power-of-two length into ELL sub-matrices, giving
//! compile-time load balancing. Rows longer than `2^k` are split into
//! multiple ELL rows of width `2^k` mapped to the same output row.

use crate::csr::Csr;
use crate::dense::{Dense, SmatError};

/// One ELL bucket of a column partition: `row_ids.len()` rows of fixed
/// `width`, each mapping back to an original matrix row (possibly shared by
/// several bucket rows when a long row was split).
#[derive(Debug, Clone, PartialEq)]
pub struct EllBucket {
    /// Fixed non-zeros per bucket row (`2^i`).
    pub width: usize,
    /// Original row id per bucket row.
    pub row_ids: Vec<u32>,
    /// Column indices, `row_ids.len() × width`, padded entries repeat a
    /// valid column.
    pub col_indices: Vec<u32>,
    /// Values, `row_ids.len() × width`, padded entries are `0`.
    pub values: Vec<f32>,
    /// Real (non-padding) entries across all bucket rows. Tracked
    /// structurally at construction time: a stored value of `0.0` may be an
    /// explicitly-stored zero of the source matrix, so padding cannot be
    /// recovered by inspecting `values`.
    pub real: usize,
}

impl EllBucket {
    /// Number of bucket rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// True when the bucket holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// Stored entries (including padding).
    #[must_use]
    pub fn stored(&self) -> usize {
        self.row_ids.len() * self.width
    }

    /// Padded entries (`stored − real`), counted structurally so that
    /// explicitly-stored zero values are not misattributed to padding and
    /// the per-bucket sum always agrees with [`Hyb::padding_ratio`].
    #[must_use]
    pub fn padding(&self) -> usize {
        self.stored() - self.real
    }
}

/// One column partition with its per-width buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HybPartition {
    /// First column (inclusive) covered by this partition.
    pub col_lo: usize,
    /// One past the last column covered.
    pub col_hi: usize,
    /// Buckets indexed by exponent: `buckets[i]` has width `2^i`.
    pub buckets: Vec<EllBucket>,
}

/// The `hyb(c, k)` decomposition of a sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyb {
    rows: usize,
    cols: usize,
    col_parts: usize,
    bucket_k: u32,
    partitions: Vec<HybPartition>,
    original_nnz: usize,
}

impl Hyb {
    /// Decompose `csr` into `hyb(c, k)`.
    ///
    /// # Errors
    /// Fails when `c == 0` or `c > max(cols, 1)` — a partition past the last
    /// column can only be empty, and the partition tables are allocated per
    /// `c` — or when `k >= 32`: a bucket row holds `u32` column ids, so no
    /// row chunk can be `2^32` wide (and the shift and the `k + 1` buckets
    /// per partition stay bounded). All three are checked before anything is
    /// allocated.
    pub fn from_csr(csr: &Csr, c: usize, k: u32) -> Result<Hyb, SmatError> {
        if c == 0 {
            return Err(SmatError::new("hyb: column partition count must be positive"));
        }
        if c > csr.cols().max(1) {
            return Err(SmatError::new(format!(
                "hyb: {c} column partitions for a matrix of {} columns (at most one per column)",
                csr.cols()
            )));
        }
        if k >= u32::BITS {
            return Err(SmatError::new(format!(
                "hyb: bucket exponent {k} is not a bucket width (must be below {})",
                u32::BITS
            )));
        }
        let step = csr.cols().div_ceil(c).max(1);
        let mut partitions: Vec<HybPartition> = (0..c)
            .map(|p| HybPartition {
                col_lo: (p * step).min(csr.cols()),
                col_hi: (p + 1).saturating_mul(step).min(csr.cols()),
                buckets: (0..=k)
                    .map(|i| EllBucket {
                        width: 1usize << i,
                        row_ids: Vec::new(),
                        col_indices: Vec::new(),
                        values: Vec::new(),
                        real: 0,
                    })
                    .collect(),
            })
            .collect();
        // One pass over the rows. A row's columns ascend, so each partition
        // it touches holds one run of them; each run splits into `2^k`-wide
        // chunks (one contiguous copy into bucket `k`) and one shorter tail,
        // padded with its last column and `0.0`.
        let mask = (1usize << k) - 1;
        for r in 0..csr.rows() {
            let (cols, vals) = csr.row(r);
            let (mut start, mut p, mut hi) = (0, 0, step);
            while start < cols.len() {
                let col = cols[start] as usize;
                if col >= hi {
                    // Divide only when the row jumps past the next partition.
                    p = if col - hi < step { p + 1 } else { col / step };
                    hi = (p + 1) * step;
                }
                let end = start + cols[start..].partition_point(|&x| (x as usize) < hi);
                let buckets = &mut partitions[p].buckets;
                let full = (end - start) & !mask;
                if full > 0 {
                    let b = &mut buckets[k as usize];
                    b.row_ids.resize(b.row_ids.len() + (full >> k), r as u32);
                    b.col_indices.extend_from_slice(&cols[start..start + full]);
                    b.values.extend_from_slice(&vals[start..start + full]);
                    b.real += full;
                }
                let tail = start + full;
                if tail < end {
                    let b = &mut buckets[ceil_log2(end - tail) as usize];
                    let pad = b.col_indices.len() + b.width;
                    b.row_ids.push(r as u32);
                    b.col_indices.extend_from_slice(&cols[tail..end]);
                    b.col_indices.resize(pad, cols[end - 1]);
                    b.values.extend_from_slice(&vals[tail..end]);
                    b.values.resize(pad, 0.0);
                    b.real += end - tail;
                }
                start = end;
            }
        }
        Ok(Hyb {
            rows: csr.rows(),
            cols: csr.cols(),
            col_parts: c,
            bucket_k: k,
            partitions,
            original_nnz: csr.nnz(),
        })
    }

    /// Decompose with the paper's default bucket count
    /// `k = ⌈log2(nnz / rows)⌉` (≥ 0).
    ///
    /// # Errors
    /// Fails when `c == 0` or `c > max(cols, 1)`.
    pub fn with_default_k(csr: &Csr, c: usize) -> Result<Hyb, SmatError> {
        Hyb::from_csr(csr, c, default_k(csr))
    }

    /// Number of rows of the logical matrix.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical matrix.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column partition count `c`.
    #[must_use]
    pub fn col_parts(&self) -> usize {
        self.col_parts
    }

    /// Bucket exponent `k` (max ELL width is `2^k`).
    #[must_use]
    pub fn bucket_k(&self) -> u32 {
        self.bucket_k
    }

    /// The partitions with their buckets.
    #[must_use]
    pub fn partitions(&self) -> &[HybPartition] {
        &self.partitions
    }

    /// Original (pre-padding) non-zero count.
    #[must_use]
    pub fn original_nnz(&self) -> usize {
        self.original_nnz
    }

    /// Total stored entries including padding.
    #[must_use]
    pub fn stored(&self) -> usize {
        self.partitions.iter().flat_map(|p| &p.buckets).map(EllBucket::stored).sum()
    }

    /// Padding ratio `(stored − nnz) / stored` — the `%padding` column of
    /// Tables 1 and 2.
    #[must_use]
    pub fn padding_ratio(&self) -> f64 {
        let stored = self.stored();
        if stored == 0 {
            return 0.0;
        }
        (stored - self.original_nnz) as f64 / stored as f64
    }

    /// Dense reconstruction (sums split rows back together).
    ///
    /// # Errors
    /// Fails when the `rows × cols` matrix cannot be allocated.
    pub fn to_dense(&self) -> Result<Dense, SmatError> {
        let mut d = Dense::try_zeros(self.rows, self.cols)?;
        for part in &self.partitions {
            for b in &part.buckets {
                for (i, &r) in b.row_ids.iter().enumerate() {
                    for j in 0..b.width {
                        let v = b.values[i * b.width + j];
                        if v != 0.0 {
                            let c = b.col_indices[i * b.width + j] as usize;
                            let cur = d.get(r as usize, c);
                            d.set(r as usize, c, cur + v);
                        }
                    }
                }
            }
        }
        Ok(d)
    }

    /// Reference SpMM over the decomposed storage (accumulating across
    /// partitions, buckets and split rows).
    ///
    /// # Errors
    /// Fails when `x.rows() != self.cols()`, or when the `rows × x.cols()`
    /// output cannot be allocated.
    pub fn spmm(&self, x: &Dense) -> Result<Dense, SmatError> {
        if x.rows() != self.cols {
            return Err(SmatError::new("hyb spmm shape mismatch"));
        }
        let mut y = Dense::try_zeros(self.rows, x.cols())?;
        for part in &self.partitions {
            for b in &part.buckets {
                for (i, &r) in b.row_ids.iter().enumerate() {
                    for j in 0..b.width {
                        let v = b.values[i * b.width + j];
                        if v == 0.0 {
                            continue;
                        }
                        let c = b.col_indices[i * b.width + j] as usize;
                        let xrow = x.row(c);
                        let yrow = y.row_mut(r as usize);
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

/// Exact `⌈log2(n)⌉` for positive `n` (0 for `n ≤ 1`), computed with bit
/// arithmetic. Unlike `(n as f64).log2().ceil()`, this cannot misround near
/// power-of-two boundaries once `n` exceeds the 53-bit mantissa of `f64`.
#[must_use]
pub fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Bucket exponent for a row chunk of length `len` (`2^{i-1} < len ≤ 2^i`),
/// clamped to `k`.
#[must_use]
pub fn bucket_for(len: usize, k: u32) -> u32 {
    debug_assert!(len > 0);
    ceil_log2(len).min(k)
}

/// The paper's default `k = ⌈log2(nnz / rows)⌉`, at least 0. The real
/// quotient never materializes: `2^k ≥ nnz/rows ⇔ 2^k ≥ ⌈nnz/rows⌉` for
/// integer `2^k`, so the exact answer is `⌈log2(⌈nnz/rows⌉)⌉`.
#[must_use]
pub fn default_k(csr: &Csr) -> u32 {
    if csr.rows() == 0 || csr.nnz() == 0 {
        return 0;
    }
    ceil_log2(csr.nnz().div_ceil(csr.rows()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn skewed() -> Csr {
        // Row 0: 9 nnz (long), row 1: 1 nnz, row 2: 3 nnz, row 3: empty.
        let mut coo = Coo::new(4, 16);
        for c in 0..9 {
            coo.push(0, c, (c + 1) as f32);
        }
        coo.push(1, 15, 1.0);
        for c in [2u32, 7, 11] {
            coo.push(2, c, 0.5);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn ceil_log2_exact_at_large_boundaries() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(1usize << 40), 40);
        assert_eq!(ceil_log2((1usize << 40) + 1), 41);
        // Beyond f64's 53-bit mantissa the float path misrounds near
        // power-of-two boundaries; the bit-arithmetic path stays exact.
        assert_eq!(ceil_log2((1usize << 53) + 1), 54);
    }

    #[test]
    fn bucket_exponent_is_bounded() {
        let csr = skewed();
        let widest = Hyb::from_csr(&csr, 1, 31).expect("2^31 is a bucket width");
        assert_eq!(widest.partitions()[0].buckets.len(), 32);
        assert_eq!(
            widest.to_dense().unwrap(),
            csr.to_dense(),
            "wide buckets stay empty, not wrong"
        );
        for k in [32, 64, u32::MAX] {
            let err = Hyb::from_csr(&csr, 1, k).expect_err("not a bucket width");
            assert!(err.to_string().contains("bucket exponent"), "{err}");
        }
    }

    #[test]
    fn partition_count_is_bounded_by_columns() {
        let csr = skewed();
        let per_column = Hyb::from_csr(&csr, csr.cols(), 3).expect("one partition per column");
        assert_eq!(per_column.partitions().len(), 16);
        assert_eq!(per_column.to_dense().unwrap(), csr.to_dense());
        for c in [csr.cols() + 1, usize::MAX] {
            let err = Hyb::from_csr(&csr, c, 3).expect_err("more partitions than columns");
            assert!(err.to_string().contains("column partitions"), "{err}");
        }
        // No columns at all: the single (empty) partition is still valid.
        let none = Csr::new(3, 0, vec![0; 4], vec![], vec![]).unwrap();
        assert_eq!(Hyb::from_csr(&none, 1, 3).expect("c = 1").stored(), 0);
        assert!(Hyb::from_csr(&none, 2, 3).is_err());
    }

    #[test]
    fn padding_is_structural_not_value_based() {
        // Row 0 stores an explicit zero: structurally a real entry, not
        // padding. Row 0 (3 nnz) pads to width 4 → 1 padded slot; row 1
        // (1 nnz) fills bucket 0 exactly.
        let csr =
            Csr::new(2, 4, vec![0, 3, 4], vec![0, 1, 2, 0], vec![1.0, 0.0, 2.0, 3.0]).unwrap();
        let hyb = Hyb::from_csr(&csr, 1, 2).unwrap();
        let pad: usize =
            hyb.partitions().iter().flat_map(|p| &p.buckets).map(EllBucket::padding).sum();
        assert_eq!(pad, 1);
        assert_eq!(pad, hyb.stored() - hyb.original_nnz());
    }

    #[test]
    fn bucket_for_boundaries() {
        assert_eq!(bucket_for(1, 4), 0);
        assert_eq!(bucket_for(2, 4), 1);
        assert_eq!(bucket_for(3, 4), 2);
        assert_eq!(bucket_for(4, 4), 2);
        assert_eq!(bucket_for(5, 4), 3);
        assert_eq!(bucket_for(100, 3), 3); // clamped
    }

    #[test]
    fn roundtrip_single_partition() {
        let csr = skewed();
        let hyb = Hyb::from_csr(&csr, 1, 3).unwrap();
        assert_eq!(hyb.to_dense().unwrap(), csr.to_dense());
    }

    #[test]
    fn roundtrip_multi_partition() {
        let csr = skewed();
        for c in [2usize, 4] {
            let hyb = Hyb::from_csr(&csr, c, 2).unwrap();
            assert_eq!(hyb.to_dense().unwrap(), csr.to_dense(), "c={c}");
        }
    }

    #[test]
    fn long_rows_are_split() {
        let csr = skewed();
        // k=1 → max width 2; the 9-nnz row becomes ceil(9/2)=5 bucket rows.
        let hyb = Hyb::from_csr(&csr, 1, 1).unwrap();
        let bucket1 = &hyb.partitions()[0].buckets[1];
        let count_row0 = bucket1.row_ids.iter().filter(|&&r| r == 0).count();
        assert!(count_row0 >= 4, "long row should split, got {count_row0}");
        assert_eq!(hyb.to_dense().unwrap(), csr.to_dense());
    }

    #[test]
    fn spmm_matches_csr() {
        let csr = skewed();
        let x = Dense::from_fn(16, 4, |r, c| ((r * 4 + c) % 7) as f32 * 0.25);
        let expected = csr.spmm(&x).unwrap();
        for (c, k) in [(1usize, 3u32), (2, 2), (4, 1)] {
            let hyb = Hyb::from_csr(&csr, c, k).unwrap();
            assert!(hyb.spmm(&x).unwrap().approx_eq(&expected, 1e-5), "hyb({c},{k}) spmm mismatch");
        }
    }

    #[test]
    fn padding_ratio_counts_padded_zeros() {
        let csr = skewed();
        let hyb = Hyb::from_csr(&csr, 1, 3).unwrap();
        assert!(hyb.stored() >= csr.nnz());
        let ratio = hyb.padding_ratio();
        assert!((0.0..1.0).contains(&ratio));
        // Row 0 (9 nnz) splits into 8+1: the 1-chunk goes to bucket 0 (no
        // padding); row 2 (3 nnz) pads to 4.
        assert_eq!(hyb.stored() - csr.nnz(), 1);
    }

    #[test]
    fn default_k_matches_formula() {
        let csr = skewed();
        // nnz=13, rows=4 → avg=3.25 → ceil(log2)=2.
        assert_eq!(default_k(&csr), 2);
    }

    #[test]
    fn zero_partitions_rejected() {
        assert!(Hyb::from_csr(&skewed(), 0, 2).is_err());
    }

    /// Partition bounds are column counts, not column ids: a matrix wider
    /// than `u32::MAX` columns reports them untruncated.
    #[test]
    fn partition_bounds_hold_past_u32_columns() {
        let cols = 1usize << 62;
        let csr = Csr::new(2, cols, vec![0, 2, 2], vec![5, u32::MAX], vec![1.0, 2.0])
            .expect("a valid 2 x 2^62 matrix");
        let bounds = |c| {
            let hyb = Hyb::from_csr(&csr, c, 2).expect("decomposes");
            assert_eq!(hyb.original_nnz(), 2);
            hyb.partitions().iter().map(|p| (p.col_lo, p.col_hi)).collect::<Vec<_>>()
        };
        assert_eq!(bounds(1), [(0, cols)]);
        assert_eq!(bounds(2), [(0, cols / 2), (cols / 2, cols)]);
    }
}
