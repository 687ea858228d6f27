//! Data binding helpers: produce the interpreter tensor bindings for Stage
//! III functions from `sparsetir-smat` matrices (the runtime counterpart of
//! the "indices inference" conversions), owned or in place ([`LaunchBindings`]).

use sparsetir_ir::eval::TensorData;
use sparsetir_ir::exec::{BufferPool, CompiledKernel, ViewBindings};
use sparsetir_smat::prelude::*;
use std::cell::Cell;
use std::collections::HashMap;

/// Tensor bindings keyed by buffer name.
pub type Bindings = HashMap<String, TensorData>;

thread_local! {
    /// Dense bytes memcpy'd on this thread ([`bind_dense`] on the way in,
    /// [`read_dense`] on the way out). The serving engine samples it
    /// around each batch launch to attribute copies per engine without
    /// cross-test interference; the zero-copy view paths leave it
    /// untouched.
    static BYTES_COPIED: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative dense bytes [`bind_dense`] and [`read_dense`] copied on the
/// calling thread.
#[must_use]
pub fn bytes_copied_on_thread() -> u64 {
    BYTES_COPIED.with(Cell::get)
}

fn count_bytes_copied(n: u64) {
    BYTES_COPIED.with(|c| c.set(c.get() + n));
}

/// Bind a CSR matrix: `<prefix>_indptr`, `<prefix>_indices` (i32) and the
/// value buffer `name` (flat nnz values).
pub fn bind_csr(bindings: &mut Bindings, name: &str, prefix: &str, csr: &Csr) {
    bindings.insert(
        format!("{prefix}_indptr"),
        TensorData::from(csr.indptr().iter().map(|&v| v as i32).collect::<Vec<_>>()),
    );
    bindings.insert(
        format!("{prefix}_indices"),
        TensorData::from(csr.indices().iter().map(|&v| v as i32).collect::<Vec<_>>()),
    );
    bindings.insert(name.to_string(), TensorData::from(csr.values().to_vec()));
}

/// A served kernel's non-zero-count parameter (Figure 3's `nnz: T.int32`).
pub const NNZ: &str = "nnz";

/// What a view launch binds besides its requests' operands, under the
/// names [`bind_csr`]`(.., "A", "J", ..)` and [`bind_bucket`] use: the
/// adjacency's values and column ids (and a hyb decomposition's buckets)
/// borrowed, its `indptr` as the one array a launch converts (`rows + 1`
/// words), [`NNZ`], and `N` pool scratch buffers, handed back on drop.
pub struct LaunchBindings<'a, const N: usize> {
    csr: &'a Csr,
    indptr: Vec<u32>,
    buckets: Vec<([String; 3], &'a EllBucket)>,
    pool: &'a BufferPool,
    scratch: [Vec<f32>; N],
}

impl<'a, const N: usize> LaunchBindings<'a, N> {
    /// A launch over `csr` (as `hyb` when given) with zeroed scratch of
    /// `lens` elements from `pool`.
    pub fn new(pool: &'a BufferPool, csr: &'a Csr, hyb: Option<&'a Hyb>, lens: [usize; N]) -> Self {
        let buckets = hyb.into_iter().flat_map(hyb_buckets);
        let buckets = buckets.map(|(pi, b)| (bucket_names(&bucket_tag(pi, b.width)), b)).collect();
        let indptr = csr.indptr().iter().map(|&v| v as u32).collect();
        LaunchBindings { csr, indptr, buckets, pool, scratch: lens.map(|n| pool.acquire_f32(n)) }
    }

    /// `k`'s slot table with the structure, [`NNZ`] and the scratch (under `names`) bound.
    pub fn views<'v>(&'v mut self, k: &'v CompiledKernel, names: [&str; N]) -> ViewBindings<'v> {
        let mut views = ViewBindings::new(k);
        views.bind_scalar(NNZ, self.csr.nnz() as i64);
        views.bind_slice("A", self.csr.values());
        views.bind_indices("J_indptr", &self.indptr);
        views.bind_indices("J_indices", self.csr.indices());
        for ([values, rows, indices], bucket) in &self.buckets {
            views.bind_slice(values, &bucket.values);
            views.bind_indices(rows, &bucket.row_ids);
            views.bind_indices(indices, &bucket.col_indices);
        }
        for (name, buf) in names.into_iter().zip(&mut self.scratch) {
            views.bind_slice_mut(name, buf);
        }
        views
    }
}

impl<const N: usize> Drop for LaunchBindings<'_, N> {
    fn drop(&mut self) {
        for buf in &mut self.scratch {
            self.pool.release_f32(std::mem::take(buf));
        }
    }
}

/// Bind a dense matrix as a flat row-major value buffer — a copy of the
/// operand, tallied in [`bytes_copied_on_thread`] (view bindings are the
/// zero-copy alternative).
pub fn bind_dense(bindings: &mut Bindings, name: &str, d: &Dense) {
    count_bytes_copied(d.data().len() as u64 * 4);
    bindings.insert(name.to_string(), TensorData::from(d.data().to_vec()));
}

/// Bind a zero-initialized output of `len` f32 elements.
pub fn bind_zeros(bindings: &mut Bindings, name: &str, len: usize) {
    bindings.insert(name.to_string(), TensorData::from(vec![0.0f32; len]));
}

/// Bind an ELL matrix: `<prefix>_indices` (i32, rows × width) and values.
pub fn bind_ell(bindings: &mut Bindings, name: &str, prefix: &str, ell: &Ell) {
    bindings.insert(
        format!("{prefix}_indices"),
        TensorData::from(ell.col_indices().iter().map(|&v| v as i32).collect::<Vec<_>>()),
    );
    bindings.insert(name.to_string(), TensorData::from(ell.values().to_vec()));
}

/// Bind a BSR matrix: `<prefix>_indptr`, `<prefix>_indices`, block values.
pub fn bind_bsr(bindings: &mut Bindings, name: &str, prefix: &str, bsr: &Bsr) {
    bindings.insert(
        format!("{prefix}_indptr"),
        TensorData::from(bsr.indptr().iter().map(|&v| v as i32).collect::<Vec<_>>()),
    );
    bindings.insert(
        format!("{prefix}_indices"),
        TensorData::from(bsr.indices().iter().map(|&v| v as i32).collect::<Vec<_>>()),
    );
    bindings.insert(name.to_string(), TensorData::from(bsr.values().to_vec()));
}

/// The name stem one hyb bucket's rewrite rule and bindings share: the
/// bucket of width `width` in column partition `partition`.
#[must_use]
pub fn bucket_tag(partition: usize, width: usize) -> String {
    format!("p{partition}_w{width}")
}

/// The non-empty buckets of `hyb` with their column partitions, in order.
pub fn hyb_buckets(hyb: &Hyb) -> impl Iterator<Item = (usize, &EllBucket)> {
    let parts = hyb.partitions().iter().enumerate();
    parts.flat_map(|(pi, part)| part.buckets.iter().filter(|b| !b.is_empty()).map(move |b| (pi, b)))
}

/// The buffer names of the hyb bucket tagged `tag` — its values, row ids
/// and column ids — as `FormatRewriteRule::bucket_ell(.., tag, ..)`
/// declares them for the buffer `A`.
fn bucket_names(tag: &str) -> [String; 3] {
    [format!("A_hyb_{tag}"), format!("hyb_{tag}_rows"), format!("hyb_{tag}_indices")]
}

/// Bind one hyb ELL bucket under the names of its tag `tag`: its values,
/// row ids and column ids (i32).
pub fn bind_bucket(bindings: &mut Bindings, tag: &str, bucket: &EllBucket) {
    let [values, rows, indices] = bucket_names(tag);
    let as_i32 = |v: &[u32]| TensorData::from(v.iter().map(|&v| v as i32).collect::<Vec<_>>());
    bindings.insert(rows, as_i32(&bucket.row_ids));
    bindings.insert(indices, as_i32(&bucket.col_indices));
    bindings.insert(values, TensorData::from(bucket.values.clone()));
}

/// Read a bound f32 buffer back as a dense matrix of the given shape.
///
/// # Panics
/// Panics when the binding is missing or sized differently.
#[must_use]
pub fn read_dense(bindings: &Bindings, name: &str, rows: usize, cols: usize) -> Dense {
    let data =
        bindings.get(name).unwrap_or_else(|| panic!("binding `{name}` missing")).as_f32().to_vec();
    count_bytes_copied(data.len() as u64 * 4);
    Dense::from_vec(rows, cols, data).expect("shape matches binding length")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_binding_produces_i32_aux() {
        let mut rng = gen::rng(1);
        let m = gen::random_csr(6, 6, 0.3, &mut rng);
        let mut b = Bindings::new();
        bind_csr(&mut b, "A", "J", &m);
        assert_eq!(b["J_indptr"].as_i32().len(), 7);
        assert_eq!(b["J_indices"].as_i32().len(), m.nnz());
        assert_eq!(b["A"].as_f32().len(), m.nnz());
    }

    #[test]
    fn dense_roundtrip_through_bindings() {
        let mut rng = gen::rng(2);
        let d = gen::random_dense(3, 4, &mut rng);
        let mut b = Bindings::new();
        // The copy counter is live: `bind_dense` and `read_dense` tally
        // the bytes they clone.
        let before = bytes_copied_on_thread();
        bind_dense(&mut b, "X", &d);
        assert_eq!(bytes_copied_on_thread() - before, 3 * 4 * 4);
        let back = read_dense(&b, "X", 3, 4);
        assert!(back.approx_eq(&d, 0.0));
        assert_eq!(bytes_copied_on_thread() - before, 2 * 3 * 4 * 4);
    }

    #[test]
    fn bucket_binding_has_rows_and_indices() {
        let mut rng = gen::rng(3);
        let m = gen::random_csr(8, 8, 0.3, &mut rng);
        let hyb = Hyb::with_default_k(&m, 1).unwrap();
        let bucket = hyb
            .partitions()
            .iter()
            .flat_map(|p| &p.buckets)
            .find(|b| !b.is_empty())
            .expect("some bucket non-empty");
        let mut b = Bindings::new();
        bind_bucket(&mut b, "p0_w2", bucket);
        assert_eq!(b["hyb_p0_w2_rows"].as_i32().len(), bucket.len());
        assert_eq!(b["hyb_p0_w2_indices"].as_i32().len(), bucket.stored());
        assert_eq!(b["A_hyb_p0_w2"].as_f32().len(), bucket.stored());
    }
}
