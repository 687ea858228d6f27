//! Differential suite for the incremental-update layer: for arbitrary
//! streams of edge inserts/deletes, `Csr::apply_delta` — the one update
//! path, the merge `Engine::apply_delta` runs — must be **bit-identical**
//! (exactly structurally equal) to rebuilding the matrix from scratch out
//! of the updated edge set. This is the correctness contract that lets the
//! serving engine merge a delta into an adjacency instead of rebuilding it.

use proptest::prelude::*;
use sparsetir_smat::prelude::*;
use std::collections::BTreeMap;

/// Strategy: a base matrix plus a stream of delta batches against its
/// shape. Each op is an upsert (with an explicit-zero value now and then —
/// stored zeros are structure, not absence) or a delete (often of an edge
/// that does not exist: those must be exact no-ops).
fn base_and_stream(
    max_dim: usize,
    max_nnz: usize,
    batches: usize,
) -> impl Strategy<Value = (Csr, Vec<GraphDelta>)> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(move |(rows, cols)| {
        let total = rows * cols;
        let base = proptest::collection::vec(
            (0..rows as u32, 0..cols as u32, 0.1f32..2.0f32),
            0..max_nnz.min(total),
        )
        .prop_map(move |entries| {
            let coo = Coo::from_entries(rows, cols, entries).expect("in-bounds");
            Csr::from_coo(&coo)
        });
        let op = (
            0..rows as u32,
            0..cols as u32,
            prop_oneof![
                (0.1f32..2.0f32).prop_map(Some),
                (0.1f32..2.0f32).prop_map(Some),
                (0.1f32..2.0f32).prop_map(Some),
                Just(Some(0.0f32)),
                Just(None),
                Just(None),
            ],
        );
        let stream =
            proptest::collection::vec(proptest::collection::vec(op, 1..12), 1..batches + 1)
                .prop_map(|batches| {
                    batches
                        .into_iter()
                        .map(|ops| {
                            let mut d = GraphDelta::new();
                            for (r, c, v) in ops {
                                match v {
                                    Some(v) => d.upsert(r, c, v),
                                    None => d.delete(r, c),
                                };
                            }
                            d
                        })
                        .collect::<Vec<_>>()
                });
        (base, stream)
    })
}

/// Rebuild-from-scratch oracle: replay base + deltas through an edge map.
fn oracle_after(base: &Csr, deltas: &[GraphDelta]) -> Csr {
    let mut edges: BTreeMap<(u32, u32), f32> = BTreeMap::new();
    for r in 0..base.rows() {
        let (cols, vals) = base.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            edges.insert((r as u32, c), v);
        }
    }
    for d in deltas {
        for &(r, c, v) in d.normalized_ops().iter() {
            match v {
                Some(v) => {
                    edges.insert((r, c), v);
                }
                None => {
                    edges.remove(&(r, c));
                }
            }
        }
    }
    let entries: Vec<(u32, u32, f32)> = edges.into_iter().map(|((r, c), v)| (r, c, v)).collect();
    Csr::from_coo(&Coo::from_entries(base.rows(), base.cols(), entries).expect("in-bounds"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental CSR == rebuild-from-scratch, bit-identically, after an
    /// arbitrary stream of update batches.
    #[test]
    fn csr_apply_delta_matches_rebuild(case in base_and_stream(14, 40, 6)) {
        let (base, stream) = case;
        let mut inc = base.clone();
        for d in &stream {
            inc = inc.apply_delta(d).expect("in-bounds delta");
        }
        prop_assert_eq!(inc, oracle_after(&base, &stream));
    }
}
