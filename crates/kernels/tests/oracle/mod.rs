//! Independent `f64` references for the served kernels — SpMM, SDDMM, fused
//! attention and fused SAGE — with the bound an `f32` answer must meet —
//! `stbench`'s rule, for `cargo test`.
//!
//! Plain loops over [`Csr::indptr`] / [`Csr::indices`] / [`Csr::values`]:
//! nothing here calls an `smat` kernel, the interpreter or the executor, so
//! a mistake those share cannot hide behind their bit-identity. Included by
//! path (`#[path = ".../oracle/mod.rs"] mod oracle;`) from every suite that
//! wants an answer proved right, not only equal to another of our paths.

use sparsetir_smat::prelude::Csr;

/// Relative tolerance of every check.
pub const TOL: f64 = 1e-4;

/// A reference result: each value, and the sum of the absolute values of
/// the terms that produced it — the scale its rounding error grows with.
pub struct Oracle {
    pub val: Vec<f64>,
    pub mag: Vec<f64>,
}

impl Oracle {
    fn zeros(len: usize) -> Oracle {
        Oracle { val: vec![0.0; len], mag: vec![0.0; len] }
    }

    fn add(&mut self, at: usize, term: f64) {
        self.val[at] += term;
        self.mag[at] += term.abs();
    }

    /// `|got − ref| ≤ TOL · (1 + Σ|terms|)` element by element.
    ///
    /// # Errors
    /// Names the first element that is off (or not finite), or a length
    /// mismatch.
    pub fn check(&self, got: &[f32]) -> Result<(), String> {
        if got.len() != self.val.len() {
            return Err(format!("{} elements, reference has {}", got.len(), self.val.len()));
        }
        for (i, (&g, (&v, &m))) in got.iter().zip(self.val.iter().zip(&self.mag)).enumerate() {
            let g = f64::from(g);
            if !g.is_finite() || (g - v).abs() > TOL * (1.0 + m) {
                return Err(format!("element {i}: got {g}, reference {v} (Σ|terms| = {m})"));
            }
        }
        Ok(())
    }
}

/// `a · x` with `x` row-major `a.cols() × d`; row-major `a.rows() × d`.
pub fn spmm_f64(a: &Csr, x: &[f32], d: usize) -> Oracle {
    assert_eq!(x.len(), a.cols() * d, "operand shape");
    let mut out = Oracle::zeros(a.rows() * d);
    for r in 0..a.rows() {
        for e in a.indptr()[r]..a.indptr()[r + 1] {
            let (v, col) = (f64::from(a.values()[e]), a.indices()[e] as usize);
            for k in 0..d {
                out.add(r * d + k, v * f64::from(x[col * d + k]));
            }
        }
    }
    out
}

/// `a_e · (x_i · y_:j)` per non-zero `e = (i, j)`, with `x` row-major
/// `a.rows() × k` and `y` row-major `k × a.cols()`; one value per non-zero,
/// in CSR order.
pub fn sddmm_f64(a: &Csr, x: &[f32], y: &[f32], k: usize) -> Oracle {
    assert_eq!((x.len(), y.len()), (a.rows() * k, k * a.cols()), "operand shapes");
    let mut out = Oracle::zeros(a.nnz());
    for r in 0..a.rows() {
        for e in a.indptr()[r]..a.indptr()[r + 1] {
            let (v, col) = (f64::from(a.values()[e]), a.indices()[e] as usize);
            for l in 0..k {
                out.add(e, v * f64::from(x[r * k + l]) * f64::from(y[l * a.cols() + col]));
            }
        }
    }
    out
}

/// One head of softmax attention over `a`'s rows: `q` row-major
/// `a.rows() × k`, `kt` row-major `k × a.cols()`, `v` row-major
/// `a.cols() × vfeat`; row-major `a.rows() × vfeat`. A row's weights are
/// `exp(s_e − max s) / Σ exp(·)` over its scores `s_e = a_e · (q_i · kt_:j)`,
/// all in `f64`; the terms are `weight_e · v_jc`. An empty row is zero.
pub fn attention_f64(a: &Csr, q: &[f32], kt: &[f32], v: &[f32], k: usize, vfeat: usize) -> Oracle {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!((q.len(), kt.len(), v.len()), (m * k, k * n, n * vfeat), "operand shapes");
    let mut out = Oracle::zeros(m * vfeat);
    for r in 0..m {
        let row = a.indptr()[r]..a.indptr()[r + 1];
        let scores: Vec<f64> = row
            .clone()
            .map(|e| {
                let col = a.indices()[e] as usize;
                let dot: f64 =
                    (0..k).map(|l| f64::from(q[r * k + l]) * f64::from(kt[l * n + col])).sum();
                f64::from(a.values()[e]) * dot
            })
            .collect();
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let total: f64 = scores.iter().map(|s| (s - max).exp()).sum();
        for (e, s) in row.zip(&scores) {
            let (weight, col) = ((s - max).exp() / total, a.indices()[e] as usize);
            for c in 0..vfeat {
                out.add(r * vfeat + c, weight * f64::from(v[col * vfeat + c]));
            }
        }
    }
    out
}

/// GraphSAGE's mean-aggregate-then-transform step `(mean_{j ∈ N(i)} x_j) · w`
/// over `a`'s structure (its values unused): `x` row-major `a.cols() × feat`,
/// `w` row-major `feat × hidden`; row-major `a.rows() × hidden`. The terms
/// are `x_jk · w_ko / deg(i)`, one per neighbour and `k`; an empty row is
/// zero.
pub fn sage_f64(a: &Csr, x: &[f32], w: &[f32], feat: usize, hidden: usize) -> Oracle {
    assert_eq!((x.len(), w.len()), (a.cols() * feat, feat * hidden), "operand shapes");
    let mut out = Oracle::zeros(a.rows() * hidden);
    for r in 0..a.rows() {
        let row = a.indptr()[r]..a.indptr()[r + 1];
        let deg = row.len() as f64;
        for e in row {
            let col = a.indices()[e] as usize;
            for l in 0..feat {
                let xl = f64::from(x[col * feat + l]) / deg;
                for o in 0..hidden {
                    out.add(r * hidden + o, xl * f64::from(w[l * hidden + o]));
                }
            }
        }
    }
    out
}
