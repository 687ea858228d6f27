//! Data binding helpers: produce the interpreter tensor bindings for Stage
//! III functions from `sparsetir-smat` matrices (the runtime counterpart of
//! the "indices inference" conversions).

use sparsetir_ir::eval::TensorData;
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

/// Bind one hyb ELL bucket: `<prefix>_rows` (row ids), `<prefix>_indices`
/// (column ids) and its values.
pub fn bind_bucket(bindings: &mut Bindings, name: &str, prefix: &str, bucket: &EllBucket) {
    bindings.insert(
        format!("{prefix}_rows"),
        TensorData::from(bucket.row_ids.iter().map(|&v| v as i32).collect::<Vec<_>>()),
    );
    bindings.insert(
        format!("{prefix}_indices"),
        TensorData::from(bucket.col_indices.iter().map(|&v| v as i32).collect::<Vec<_>>()),
    );
    bindings.insert(name.to_string(), TensorData::from(bucket.values.clone()));
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
        bind_bucket(&mut b, "A_ell", "E", bucket);
        assert_eq!(b["E_rows"].as_i32().len(), bucket.len());
        assert_eq!(b["A_ell"].as_f32().len(), bucket.stored());
    }
}
