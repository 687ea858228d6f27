//! Incremental graph updates: batched edge inserts/deletes merged into an
//! already-built CSR instead of rebuilding it from an edge list.
//!
//! Real serving traffic mutates adjacencies continuously, but every format
//! constructor in this crate (`Csr::from_coo`, `Hyb::from_csr`) assumes a
//! frozen matrix. This module is the delta
//! layer — one update path, the one `Engine::apply_delta` runs:
//!
//! * [`GraphDelta`] — a normalized batch of edge upserts and deletes;
//! * [`Csr::apply_delta`] — a single-pass two-pointer merge producing the
//!   updated matrix in `O(nnz + |delta|)`.
//!
//! Derived formats are not patched: a tuned launch re-buckets with
//! `Hyb::from_csr` on the merged CSR. The correctness contract is *exact
//! structural equality* with rebuild-from-scratch: the differential suite
//! asserts the merged matrix is bit-identical to the one a fresh
//! constructor produces from the updated edge set.

use crate::csr::Csr;
use crate::dense::SmatError;

/// One normalized edge operation: upsert (`Some(v)`) or delete (`None`).
pub type EdgeOp = (u32, u32, Option<f32>);

/// A batch of edge updates against a fixed `rows × cols` shape.
///
/// Operations are recorded in submission order; [`GraphDelta::normalize`]
/// (called implicitly by the apply paths) sorts them by `(row, col)` with
/// **last-wins** semantics for duplicates, so a delete followed by an
/// insert of the same edge inserts it. Deleting an absent edge is a no-op
/// by design — deltas generated from upstream event streams routinely
/// carry them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    ops: Vec<EdgeOp>,
    normalized: bool,
}

impl GraphDelta {
    /// An empty delta.
    #[must_use]
    pub fn new() -> GraphDelta {
        GraphDelta::default()
    }

    /// Record an edge upsert (insert, or overwrite of an existing value).
    pub fn upsert(&mut self, row: u32, col: u32, value: f32) -> &mut GraphDelta {
        self.ops.push((row, col, Some(value)));
        self.normalized = false;
        self
    }

    /// Record an edge delete (no-op when the edge is absent).
    pub fn delete(&mut self, row: u32, col: u32) -> &mut GraphDelta {
        self.ops.push((row, col, None));
        self.normalized = false;
        self
    }

    /// Number of recorded operations (before de-duplication).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations, sorted by `(row, col)` with duplicates collapsed
    /// last-wins. Idempotent; the apply paths call this implicitly.
    pub fn normalize(&mut self) -> &[EdgeOp] {
        if !self.normalized {
            // Stable sort keeps submission order within an equal (row, col)
            // group, so `last()` is the latest op.
            self.ops.sort_by_key(|&(r, c, _)| (r, c));
            self.ops.dedup_by(|later, earlier| {
                let dup = (later.0, later.1) == (earlier.0, earlier.1);
                if dup {
                    // dedup_by drops `later`; keep its payload (last wins).
                    earlier.2 = later.2;
                }
                dup
            });
            self.normalized = true;
        }
        &self.ops
    }

    /// Sorted normalized view without requiring `&mut self` (clones when
    /// the delta has not been normalized yet).
    #[must_use]
    pub fn normalized_ops(&self) -> std::borrow::Cow<'_, [EdgeOp]> {
        if self.normalized {
            std::borrow::Cow::Borrowed(&self.ops)
        } else {
            let mut clone = self.clone();
            clone.normalize();
            std::borrow::Cow::Owned(clone.ops)
        }
    }

    /// The distinct rows this delta touches, ascending.
    #[must_use]
    pub fn touched_rows(&self) -> Vec<u32> {
        let ops = self.normalized_ops();
        let mut rows: Vec<u32> = ops.iter().map(|&(r, _, _)| r).collect();
        rows.dedup();
        rows
    }

    /// Bounds-check every op against a `rows × cols` shape.
    ///
    /// # Errors
    /// Names the first out-of-bounds op.
    pub fn validate(&self, rows: usize, cols: usize) -> Result<(), SmatError> {
        for &(r, c, _) in &self.ops {
            if r as usize >= rows || c as usize >= cols {
                return Err(SmatError::new(format!(
                    "delta op ({r}, {c}) out of bounds for {rows}x{cols}"
                )));
            }
        }
        Ok(())
    }
}

impl Csr {
    /// Apply a batch of edge updates, producing the updated matrix by a
    /// single two-pointer merge of each touched row with its delta ops —
    /// `O(nnz + |delta|)`, never a full sort. Untouched rows are copied
    /// through unchanged, so the result is bit-identical to rebuilding the
    /// matrix from the updated edge set.
    ///
    /// # Errors
    /// Fails when an op is out of bounds for this matrix's shape.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<Csr, SmatError> {
        delta.validate(self.rows(), self.cols())?;
        let ops = delta.normalized_ops();
        let mut indptr = Vec::with_capacity(self.rows() + 1);
        indptr.push(0usize);
        let inserts = ops.iter().filter(|op| op.2.is_some()).count();
        let mut indices = Vec::with_capacity(self.nnz() + inserts);
        let mut values = Vec::with_capacity(self.nnz() + inserts);
        let mut op_i = 0usize;
        for r in 0..self.rows() {
            let (cols, vals) = self.row(r);
            merge_row(r as u32, cols, vals, &ops, &mut op_i, &mut indices, &mut values);
            indptr.push(indices.len());
        }
        Ok(Csr::from_parts(self.rows(), self.cols(), indptr, indices, values))
    }
}

/// Merge one CSR row with the delta ops targeting it (ops are consumed from
/// `ops[*op_i..]`, which is sorted by `(row, col)`). Pushes the merged row
/// onto `out_cols`/`out_vals`.
fn merge_row(
    row: u32,
    cols: &[u32],
    vals: &[f32],
    ops: &[EdgeOp],
    op_i: &mut usize,
    out_cols: &mut Vec<u32>,
    out_vals: &mut Vec<f32>,
) {
    let mut e = 0usize;
    while *op_i < ops.len() && ops[*op_i].0 == row {
        let (_, oc, ov) = ops[*op_i];
        // Existing entries strictly before the op's column pass through.
        while e < cols.len() && cols[e] < oc {
            out_cols.push(cols[e]);
            out_vals.push(vals[e]);
            e += 1;
        }
        let exists = e < cols.len() && cols[e] == oc;
        if let Some(v) = ov {
            out_cols.push(oc);
            out_vals.push(v);
        } // delete: emit nothing
        if exists {
            e += 1; // the op replaced (or removed) this entry
        }
        *op_i += 1;
    }
    out_cols.extend_from_slice(&cols[e..]);
    out_vals.extend_from_slice(&vals[e..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use std::collections::BTreeMap;

    fn sample() -> Csr {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        Csr::new(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    fn rebuild(base: &Csr, delta: &GraphDelta) -> Csr {
        // Oracle: replay the edge set through a BTreeMap and rebuild.
        let mut edges: BTreeMap<(u32, u32), f32> = BTreeMap::new();
        for r in 0..base.rows() {
            let (cols, vals) = base.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                edges.insert((r as u32, c), v);
            }
        }
        for &(r, c, v) in delta.normalized_ops().iter() {
            match v {
                Some(v) => {
                    edges.insert((r, c), v);
                }
                None => {
                    edges.remove(&(r, c));
                }
            }
        }
        let entries: Vec<(u32, u32, f32)> =
            edges.into_iter().map(|((r, c), v)| (r, c, v)).collect();
        Csr::from_coo(&Coo::from_entries(base.rows(), base.cols(), entries).unwrap())
    }

    #[test]
    fn normalize_is_last_wins() {
        let mut d = GraphDelta::new();
        d.upsert(0, 1, 1.0).delete(0, 1).upsert(0, 1, 9.0).upsert(0, 0, 2.0);
        assert_eq!(d.normalize(), &[(0, 0, Some(2.0)), (0, 1, Some(9.0))]);
        assert_eq!(d.touched_rows(), vec![0]);
    }

    #[test]
    fn apply_delta_matches_rebuild() {
        let base = sample();
        let mut d = GraphDelta::new();
        d.upsert(1, 1, 7.0) // insert into empty row
            .delete(0, 2) // delete existing
            .upsert(2, 0, -3.0) // overwrite
            .delete(1, 2); // delete absent: no-op
        let inc = base.apply_delta(&d).unwrap();
        assert_eq!(inc, rebuild(&base, &d));
        assert_eq!(inc.nnz(), 4);
        assert_eq!(inc.to_dense().get(2, 0), -3.0);
        let mut d2 = GraphDelta::new();
        d2.delete(0, 0) // row 0's last entry: the row is emptied
            .delete(2, 1)
            .upsert(2, 1, 5.0)
            .upsert(2, 1, 6.0); // duplicate coordinate: the last op wins
        let inc2 = inc.apply_delta(&d2).unwrap();
        assert_eq!(inc2, rebuild(&inc, &d2));
        assert!(inc2.row(0).0.is_empty());
        assert_eq!(inc2.row(2), (&[0u32, 1][..], &[-3.0f32, 6.0][..]));
    }

    #[test]
    fn apply_delta_rejects_out_of_bounds() {
        let base = sample();
        let mut d = GraphDelta::new();
        d.upsert(0, 3, 1.0);
        assert!(base.apply_delta(&d).is_err());
        let mut d2 = GraphDelta::new();
        d2.delete(3, 0);
        assert!(base.apply_delta(&d2).is_err());
    }

    #[test]
    fn empty_delta_is_identity() {
        let base = sample();
        assert_eq!(base.apply_delta(&GraphDelta::new()).unwrap(), base);
    }
}
