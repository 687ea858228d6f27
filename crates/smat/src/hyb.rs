//! The paper's parameterized composable format `hyb(c, k)` (§4.2.1,
//! Figure 11): columns are split into `c` partitions; within each partition,
//! rows are bucketed by power-of-two length into ELL sub-matrices, giving
//! compile-time load balancing. Rows longer than `2^k` are split into
//! multiple ELL rows of width `2^k` mapped to the same output row.

use crate::csr::Csr;
use crate::delta::GraphDelta;
use crate::dense::{Dense, SmatError};
use std::collections::{HashMap, HashSet};

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
    pub col_lo: u32,
    /// Last column (exclusive).
    pub col_hi: u32,
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
    /// Fails when `c == 0`, or when `k >= 32`: a bucket row holds `u32`
    /// column ids, so no row chunk can be `2^32` wide (and the shift and
    /// the `k + 1` buckets per partition stay bounded).
    pub fn from_csr(csr: &Csr, c: usize, k: u32) -> Result<Hyb, SmatError> {
        if c == 0 {
            return Err(SmatError::new("hyb: column partition count must be positive"));
        }
        if k >= u32::BITS {
            return Err(SmatError::new(format!(
                "hyb: bucket exponent {k} is not a bucket width (must be below {})",
                u32::BITS
            )));
        }
        let parts = csr.column_partition(c);
        let width_cols = csr.cols().div_ceil(c);
        let max_width = 1usize << k;
        let mut partitions = Vec::with_capacity(c);
        for (p, part) in parts.iter().enumerate() {
            let col_lo = (p * width_cols).min(csr.cols()) as u32;
            let col_hi = (((p + 1) * width_cols).min(csr.cols())) as u32;
            let mut buckets: Vec<EllBucket> = (0..=k)
                .map(|i| EllBucket {
                    width: 1usize << i,
                    row_ids: Vec::new(),
                    col_indices: Vec::new(),
                    values: Vec::new(),
                    real: 0,
                })
                .collect();
            for r in 0..part.rows() {
                let (cols, vals) = part.row(r);
                if cols.is_empty() {
                    continue;
                }
                // Split rows longer than 2^k into chunks of 2^k.
                let mut start = 0usize;
                while start < cols.len() {
                    let chunk = (cols.len() - start).min(max_width);
                    let ccols = &cols[start..start + chunk];
                    let cvals = &vals[start..start + chunk];
                    let bucket_idx = bucket_for(chunk, k);
                    let width = 1usize << bucket_idx;
                    let b = &mut buckets[bucket_idx as usize];
                    b.row_ids.push(r as u32);
                    b.real += chunk;
                    let pad_col = *ccols.last().expect("nonempty chunk");
                    for j in 0..width {
                        if j < chunk {
                            b.col_indices.push(ccols[j]);
                            b.values.push(cvals[j]);
                        } else {
                            b.col_indices.push(pad_col);
                            b.values.push(0.0);
                        }
                    }
                    start += chunk;
                }
            }
            partitions.push(HybPartition { col_lo, col_hi, buckets });
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
    /// Fails when `c == 0`.
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
    #[must_use]
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.rows, self.cols);
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
        d
    }

    /// Reference SpMM over the decomposed storage (accumulating across
    /// partitions, buckets and split rows).
    ///
    /// # Errors
    /// Fails when `x.rows() != self.cols()`.
    pub fn spmm(&self, x: &Dense) -> Result<Dense, SmatError> {
        if x.rows() != self.cols {
            return Err(SmatError::new("hyb spmm shape mismatch"));
        }
        let mut y = Dense::zeros(self.rows, x.cols());
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

    /// Apply a batch of edge updates in place. `before` is the CSR this
    /// decomposition was built from (or last updated to) and `after` is
    /// `before.apply_delta(delta)`; only the delta's touched rows are
    /// visited. A row's storage in a partition is rewritten **in place**
    /// when its chunk-length sequence is unchanged — i.e. no chunk crossed
    /// a power-of-two bucket boundary — and removed + re-bucketed only when
    /// it did. The result canonicalizes identically to
    /// `Hyb::from_csr(after, c, k)` (see [`Hyb::canonicalize`]).
    ///
    /// # Errors
    /// Fails when the shapes of `before`/`after` disagree with this
    /// decomposition, or when `before`'s non-zero count is not the one this
    /// decomposition stores (a sign the caller passed the wrong snapshot).
    pub fn apply_delta(
        &mut self,
        before: &Csr,
        after: &Csr,
        delta: &GraphDelta,
    ) -> Result<HybDeltaReport, SmatError> {
        if before.rows() != self.rows
            || before.cols() != self.cols
            || after.rows() != self.rows
            || after.cols() != self.cols
        {
            return Err(SmatError::new("hyb apply_delta: shape mismatch"));
        }
        if before.nnz() != self.original_nnz {
            return Err(SmatError::new(format!(
                "hyb apply_delta: `before` has {} nnz but this decomposition was built from {}",
                before.nnz(),
                self.original_nnz
            )));
        }
        let touched = delta.touched_rows();
        let k = self.bucket_k;
        let max_width = 1usize << k;
        let mut row_rebucketed: HashSet<u32> = HashSet::new();
        for part in &mut self.partitions {
            let (lo, hi) = (part.col_lo, part.col_hi);
            // Classify each touched row: unchanged chunk-length sequence →
            // in-place rewrite; otherwise remove + re-bucket.
            let mut in_place: Vec<(u32, &[u32], &[f32])> = Vec::new();
            let mut rebucket: Vec<RebucketRow<'_>> = Vec::new();
            for &r in &touched {
                let (ocols, _) = slice_range(before.row(r as usize), lo, hi);
                let (ncols, nvals) = slice_range(after.row(r as usize), lo, hi);
                let old_lens = chunk_lens(ocols.len(), max_width);
                let new_lens = chunk_lens(ncols.len(), max_width);
                if old_lens == new_lens {
                    if !ncols.is_empty() {
                        in_place.push((r, ncols, nvals));
                    }
                } else {
                    row_rebucketed.insert(r);
                    rebucket.push((r, old_lens, ncols, nvals));
                }
            }
            // Remove every chunk of the re-bucketed rows, one compaction
            // pass per bucket.
            if !rebucket.is_empty() {
                let doomed: HashSet<u32> = rebucket.iter().map(|&(r, ..)| r).collect();
                let mut real_loss = vec![0usize; part.buckets.len()];
                for (_, old_lens, ..) in &rebucket {
                    for &len in old_lens {
                        real_loss[bucket_for(len, k) as usize] += len;
                    }
                }
                for (b, bucket) in part.buckets.iter_mut().enumerate() {
                    if real_loss[b] == 0 && !bucket.row_ids.iter().any(|r| doomed.contains(r)) {
                        continue;
                    }
                    let width = bucket.width;
                    let mut keep = 0usize;
                    for i in 0..bucket.row_ids.len() {
                        if doomed.contains(&bucket.row_ids[i]) {
                            continue;
                        }
                        if keep != i {
                            bucket.row_ids[keep] = bucket.row_ids[i];
                            bucket
                                .col_indices
                                .copy_within(i * width..(i + 1) * width, keep * width);
                            bucket.values.copy_within(i * width..(i + 1) * width, keep * width);
                        }
                        keep += 1;
                    }
                    bucket.row_ids.truncate(keep);
                    bucket.col_indices.truncate(keep * width);
                    bucket.values.truncate(keep * width);
                    bucket.real -= real_loss[b];
                }
            }
            // In-place rewrites: locate each surviving slot of the row in
            // the chunk's bucket (slot order within a bucket is arbitrary —
            // every slot is fully rewritten, so assignment among equal-
            // bucket slots cannot change the canonical form).
            if !in_place.is_empty() {
                let wanted: HashSet<u32> = in_place.iter().map(|&(r, ..)| r).collect();
                let mut slots: HashMap<(u32, usize), Vec<usize>> = HashMap::new();
                for (b, bucket) in part.buckets.iter().enumerate() {
                    for (i, &r) in bucket.row_ids.iter().enumerate() {
                        if wanted.contains(&r) {
                            slots.entry((r, b)).or_default().push(i);
                        }
                    }
                }
                for &(r, ncols, nvals) in &in_place {
                    let mut start = 0usize;
                    while start < ncols.len() {
                        let chunk = (ncols.len() - start).min(max_width);
                        let b = bucket_for(chunk, k) as usize;
                        let pos = slots
                            .get_mut(&(r, b))
                            .and_then(Vec::pop)
                            .expect("chunk-length sequences matched, so a slot exists");
                        write_chunk(
                            &mut part.buckets[b],
                            pos,
                            &ncols[start..start + chunk],
                            &nvals[start..start + chunk],
                        );
                        start += chunk;
                    }
                }
            }
            // Append the re-bucketed rows' new chunks (the same assignment
            // loop `from_csr` runs).
            for &(r, _, ncols, nvals) in &rebucket {
                let mut start = 0usize;
                while start < ncols.len() {
                    let chunk = (ncols.len() - start).min(max_width);
                    push_chunk(
                        &mut part.buckets[bucket_for(chunk, k) as usize],
                        r,
                        &ncols[start..start + chunk],
                        &nvals[start..start + chunk],
                    );
                    start += chunk;
                }
            }
        }
        self.original_nnz = after.nnz();
        let rows_rebucketed = row_rebucketed.len();
        Ok(HybDeltaReport { rows_in_place: touched.len() - rows_rebucketed, rows_rebucketed })
    }

    /// Sort every bucket's rows by `(row id, first column)` — a total order
    /// (chunks of one row within a partition cover disjoint ascending
    /// column ranges). `from_csr` output is already canonical; after
    /// [`Hyb::apply_delta`] this restores the constructor's order, so
    /// `incremental.canonicalize() == from_scratch.canonicalize()` is an
    /// exact structural equality, not an approximate one.
    pub fn canonicalize(&mut self) -> &mut Hyb {
        for part in &mut self.partitions {
            for bucket in &mut part.buckets {
                let width = bucket.width;
                let n = bucket.row_ids.len();
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| (bucket.row_ids[i], bucket.col_indices[i * width]));
                if order.iter().enumerate().all(|(i, &o)| i == o) {
                    continue;
                }
                let mut row_ids = Vec::with_capacity(n);
                let mut col_indices = Vec::with_capacity(n * width);
                let mut values = Vec::with_capacity(n * width);
                for &i in &order {
                    row_ids.push(bucket.row_ids[i]);
                    col_indices.extend_from_slice(&bucket.col_indices[i * width..(i + 1) * width]);
                    values.extend_from_slice(&bucket.values[i * width..(i + 1) * width]);
                }
                bucket.row_ids = row_ids;
                bucket.col_indices = col_indices;
                bucket.values = values;
            }
        }
        self
    }
}

/// `(row, old chunk lengths, new cols, new vals)` of a touched row whose
/// chunk-length sequence changed — it must be removed and re-bucketed.
type RebucketRow<'a> = (u32, Vec<usize>, &'a [u32], &'a [f32]);

/// Outcome of one [`Hyb::apply_delta`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybDeltaReport {
    /// Touched rows whose storage was rewritten in place (no chunk crossed
    /// a bucket boundary in any partition).
    pub rows_in_place: usize,
    /// Touched rows that were removed and re-bucketed in at least one
    /// partition.
    pub rows_rebucketed: usize,
}

/// The subslice of a sorted CSR row covering columns `[lo, hi)`.
fn slice_range<'a>(row: (&'a [u32], &'a [f32]), lo: u32, hi: u32) -> (&'a [u32], &'a [f32]) {
    let (cols, vals) = row;
    let a = cols.partition_point(|&c| c < lo);
    let b = cols.partition_point(|&c| c < hi);
    (&cols[a..b], &vals[a..b])
}

/// Greedy chunk lengths of a row of `len` entries under max chunk `max_width`.
fn chunk_lens(mut len: usize, max_width: usize) -> Vec<usize> {
    let mut lens = Vec::new();
    while len > 0 {
        let chunk = len.min(max_width);
        lens.push(chunk);
        len -= chunk;
    }
    lens
}

/// Overwrite slot `pos` of `bucket` with a chunk (padding exactly as
/// `from_csr` does: the last real column repeated, value `0.0`). The chunk
/// length must match the slot's previous real length, so `real` is
/// unchanged.
fn write_chunk(bucket: &mut EllBucket, pos: usize, cols: &[u32], vals: &[f32]) {
    let width = bucket.width;
    let pad_col = *cols.last().expect("nonempty chunk");
    for j in 0..width {
        let (c, v) = if j < cols.len() { (cols[j], vals[j]) } else { (pad_col, 0.0) };
        bucket.col_indices[pos * width + j] = c;
        bucket.values[pos * width + j] = v;
    }
}

/// Append a chunk of row `r` to `bucket` (the `from_csr` assignment step).
fn push_chunk(bucket: &mut EllBucket, r: u32, cols: &[u32], vals: &[f32]) {
    let width = bucket.width;
    bucket.row_ids.push(r);
    bucket.real += cols.len();
    let pad_col = *cols.last().expect("nonempty chunk");
    for j in 0..width {
        if j < cols.len() {
            bucket.col_indices.push(cols[j]);
            bucket.values.push(vals[j]);
        } else {
            bucket.col_indices.push(pad_col);
            bucket.values.push(0.0);
        }
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
        assert_eq!(widest.to_dense(), csr.to_dense(), "wide buckets stay empty, not wrong");
        for k in [32, 64, u32::MAX] {
            let err = Hyb::from_csr(&csr, 1, k).expect_err("not a bucket width");
            assert!(err.to_string().contains("bucket exponent"), "{err}");
        }
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
        assert_eq!(hyb.to_dense(), csr.to_dense());
    }

    #[test]
    fn roundtrip_multi_partition() {
        let csr = skewed();
        for c in [2usize, 4] {
            let hyb = Hyb::from_csr(&csr, c, 2).unwrap();
            assert_eq!(hyb.to_dense(), csr.to_dense(), "c={c}");
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
        assert_eq!(hyb.to_dense(), csr.to_dense());
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

    #[test]
    fn apply_delta_in_place_when_no_boundary_crossed() {
        let before = skewed();
        let mut hyb = Hyb::from_csr(&before, 2, 2).unwrap();
        // Row 2 has cols {2, 7, 11}: replace col 7 with col 6 — same
        // partition (width ⌈16/2⌉ = 8 → partition 0 is cols [0,8)), same
        // chunk length, so no re-bucketing anywhere.
        let mut d = GraphDelta::new();
        d.delete(2, 7).upsert(2, 6, 9.0);
        let after = before.apply_delta(&d).unwrap();
        let report = hyb.apply_delta(&before, &after, &d).unwrap();
        assert_eq!(report, HybDeltaReport { rows_in_place: 1, rows_rebucketed: 0 });
        let mut rebuilt = Hyb::from_csr(&after, 2, 2).unwrap();
        assert_eq!(hyb.canonicalize(), rebuilt.canonicalize());
    }

    #[test]
    fn apply_delta_rebuckets_on_boundary_cross() {
        let before = skewed();
        let mut hyb = Hyb::from_csr(&before, 1, 2).unwrap();
        // Row 1 has 1 nnz (bucket 0); inserting a second pushes it across
        // the width-1/width-2 boundary.
        let mut d = GraphDelta::new();
        d.upsert(1, 3, 2.0);
        let after = before.apply_delta(&d).unwrap();
        let report = hyb.apply_delta(&before, &after, &d).unwrap();
        assert_eq!(report, HybDeltaReport { rows_in_place: 0, rows_rebucketed: 1 });
        let mut rebuilt = Hyb::from_csr(&after, 1, 2).unwrap();
        assert_eq!(hyb.canonicalize(), rebuilt.canonicalize());
        assert_eq!(hyb.original_nnz(), after.nnz());
    }

    #[test]
    fn apply_delta_handles_emptied_and_filled_rows() {
        let before = skewed();
        let mut hyb = Hyb::from_csr(&before, 2, 1).unwrap();
        let mut d = GraphDelta::new();
        d.delete(1, 15); // row 1 becomes empty
        d.upsert(3, 4, 1.5).upsert(3, 9, 2.5); // empty row 3 gains entries
        let after = before.apply_delta(&d).unwrap();
        hyb.apply_delta(&before, &after, &d).unwrap();
        let mut rebuilt = Hyb::from_csr(&after, 2, 1).unwrap();
        assert_eq!(hyb.canonicalize(), rebuilt.canonicalize());
        assert_eq!(hyb.to_dense(), after.to_dense());
    }

    #[test]
    fn apply_delta_rejects_stale_snapshot() {
        let before = skewed();
        let mut hyb = Hyb::from_csr(&before, 1, 2).unwrap();
        let mut d = GraphDelta::new();
        d.upsert(0, 14, 1.0);
        let after = before.apply_delta(&d).unwrap();
        // Passing `after` as the before-snapshot must be caught.
        assert!(hyb.apply_delta(&after, &after, &d).is_err());
        assert!(hyb.apply_delta(&before, &after, &d).is_ok());
    }
}
