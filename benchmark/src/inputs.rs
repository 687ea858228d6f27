//! Seeded input generators. The seed decides *which* rows are heavy,
//! where the non-zeros sit and every dense value — but not how much work
//! there is: the degree multiset of a graph is a fixed function of its
//! size, so every seed yields the same non-zero count and run-to-run
//! spread measures the system, not the dice.

use crate::native::CsrRef;
use rand::rngs::SmallRng;
use rand::Rng;
use sparsetir_smat::prelude::*;

/// The plain-slice face of a `smat` CSR that the benchmark's own kernels
/// take.
pub fn csr_ref(a: &Csr) -> CsrRef<'_> {
    CsrRef {
        rows: a.rows(),
        cols: a.cols(),
        indptr: a.indptr(),
        indices: a.indices(),
        values: a.values(),
    }
}

/// The Table 1 power-law degree family (`graphs::datasets` draws
/// `α/(u+ε)` at uniform `u`; this takes the same curve at the `n`
/// stratified quantiles), clamped to `[1, n/2]`.
fn power_law_degrees(n: usize, mean_deg: f64) -> Vec<usize> {
    let eps = 0.015f64;
    let alpha = mean_deg / ((1.0 + eps).ln() - eps.ln());
    (0..n)
        .map(|r| {
            let u = (r as f64 + 0.5) / n as f64;
            ((alpha / (u + eps)) as usize).clamp(1, (n / 2).max(1))
        })
        .collect()
}

/// A square power-law CSR: fixed degree multiset, seeded row assignment,
/// column positions and values.
pub fn power_law_csr(n: usize, mean_deg: f64, rng: &mut SmallRng) -> Csr {
    let mut degrees = power_law_degrees(n, mean_deg);
    for i in (1..n).rev() {
        degrees.swap(i, rng.gen_range(0..i + 1));
    }
    let mut next = degrees.into_iter();
    gen::random_csr_with_row_lengths(n, n, |_| next.next().unwrap_or(1), rng)
}

/// A seeded update batch against `a`: `ops` operations cycling insert /
/// re-weight / delete, so the non-zero count stays near its start while
/// structure and values both move.
pub fn edge_delta(a: &Csr, ops: usize, rng: &mut SmallRng) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for i in 0..ops {
        let r = rng.gen_range(0..a.rows());
        let (cols, _) = a.row(r);
        if i % 3 == 0 || cols.is_empty() {
            delta.upsert(r as u32, rng.gen_range(0..a.cols()) as u32, rng.gen_range(0.1f32..1.0));
        } else {
            let c = cols[rng.gen_range(0..cols.len())];
            if i % 3 == 1 {
                delta.upsert(r as u32, c, rng.gen_range(0.1f32..1.0));
            } else {
                delta.delete(r as u32, c);
            }
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph_and_every_seed_same_nnz() {
        let a = power_law_csr(500, 6.0, &mut gen::rng(3));
        let b = power_law_csr(500, 6.0, &mut gen::rng(3));
        let c = power_law_csr(500, 6.0, &mut gen::rng(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.nnz(), c.nnz());
        let (max, mean, _) = a.degree_stats();
        assert!(max as f64 > 4.0 * mean, "heavy tail: max {max} mean {mean:.1}");
    }

    #[test]
    fn deltas_apply_and_keep_nnz_close() {
        let mut rng = gen::rng(5);
        let a = power_law_csr(300, 8.0, &mut rng);
        let d = edge_delta(&a, 64, &mut rng);
        assert_eq!(d.len(), 64);
        let b = a.apply_delta(&d).unwrap();
        assert_ne!(a, b);
        assert!(a.nnz().abs_diff(b.nnz()) <= 64);
    }
}
