//! The benchmark's own kernels over plain CSR slices: hand-written f32
//! loops (the *yardstick* — what the CPU does for this arithmetic with no
//! compiler stack in the way) and f64 references (the *oracle* every
//! output is checked against). Nothing here calls into the product
//! crates, so a bug shared by the executor and `smat`'s reference cannot
//! hide; one test cross-checks the oracle against `smat` so the oracle
//! itself is verified.
//!
//! Layouts follow the served ops: dense operands are row-major, SDDMM's
//! `y` and attention's `kt` are `d × cols`, SDDMM scales by the stored
//! value, attention scores are `a_ij · (q_i · k_j)` soft-maxed per row,
//! and the Sage step is `((Σ_{j∈N(i)} x_j) / deg_i) · w`.

/// A borrowed CSR matrix.
#[derive(Clone, Copy)]
pub struct CsrRef<'a> {
    pub rows: usize,
    pub cols: usize,
    pub indptr: &'a [usize],
    pub indices: &'a [u32],
    pub values: &'a [f32],
}

impl CsrRef<'_> {
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }
}

/// An f64 reference result: the value and the sum of the absolute values
/// of the terms that produced it (the scale the tolerance is relative to).
pub struct Oracle {
    pub val: Vec<f64>,
    pub mag: Vec<f64>,
}

/// Relative tolerance of every output check.
pub const TOL: f64 = 1e-4;

impl Oracle {
    fn zeros(len: usize) -> Oracle {
        Oracle { val: vec![0.0; len], mag: vec![0.0; len] }
    }

    /// `|got − ref| ≤ TOL · (1 + Σ|terms|)` element-wise; a length
    /// mismatch or a non-finite output is a wrong answer.
    pub fn matches(&self, got: &[f32]) -> bool {
        got.len() == self.val.len()
            && got.iter().zip(self.val.iter().zip(&self.mag)).all(|(&g, (&v, &m))| {
                let g = f64::from(g);
                g.is_finite() && (g - v).abs() <= TOL * (1.0 + m)
            })
    }
}

// ---------------------------------------------------------------------------
// Native f32 kernels (yardstick)
// ---------------------------------------------------------------------------

/// `out = a · x` with `x: cols × d`, `out: rows × d` (overwritten).
pub fn spmm_f32(a: CsrRef, x: &[f32], d: usize, out: &mut [f32]) {
    for (r, orow) in out.chunks_exact_mut(d).enumerate() {
        orow.fill(0.0);
        for e in a.indptr[r]..a.indptr[r + 1] {
            let v = a.values[e];
            let xrow = &x[a.indices[e] as usize * d..][..d];
            for (o, &xv) in orow.iter_mut().zip(xrow) {
                *o += v * xv;
            }
        }
    }
}

/// Row-major transpose of a `d × n` operand into `n × d` scratch, so the
/// per-edge dot products below read both operands contiguously.
fn transpose_into(src: &[f32], d: usize, n: usize, dst: &mut Vec<f32>) {
    dst.clear();
    dst.resize(n * d, 0.0);
    for (k, row) in src.chunks_exact(n).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * d + k] = v;
        }
    }
}

fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// `out[e] = a_e · (x_i · y_:j)` with `x: rows × d`, `y: d × cols`,
/// `out: nnz` (overwritten). `yt` is transpose scratch reused by callers.
pub fn sddmm_f32(a: CsrRef, x: &[f32], y: &[f32], d: usize, yt: &mut Vec<f32>, out: &mut [f32]) {
    transpose_into(y, d, a.cols, yt);
    for r in 0..a.rows {
        let xrow = &x[r * d..][..d];
        for e in a.indptr[r]..a.indptr[r + 1] {
            let yrow = &yt[a.indices[e] as usize * d..][..d];
            out[e] = a.values[e] * dot_f32(xrow, yrow);
        }
    }
}

/// One-head masked attention: scores `a_e · (q_i · k_j)`, per-row
/// softmax, `out_i = Σ_j p_ij v_j`. `q: rows × d`, `kt: d × cols`,
/// `v: cols × dv`, `out: rows × dv` (overwritten; empty rows stay zero).
#[allow(clippy::too_many_arguments)]
pub fn attention_f32(
    a: CsrRef,
    q: &[f32],
    kt: &[f32],
    v: &[f32],
    d: usize,
    dv: usize,
    k_scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    transpose_into(kt, d, a.cols, k_scratch);
    let mut p: Vec<f32> = Vec::new();
    for (r, orow) in out.chunks_exact_mut(dv).enumerate() {
        orow.fill(0.0);
        let (lo, hi) = (a.indptr[r], a.indptr[r + 1]);
        if lo == hi {
            continue;
        }
        let qrow = &q[r * d..][..d];
        p.clear();
        p.extend(
            (lo..hi)
                .map(|e| a.values[e] * dot_f32(qrow, &k_scratch[a.indices[e] as usize * d..][..d])),
        );
        let max = p.iter().copied().fold(f32::MIN, f32::max);
        let mut sum = 0.0f32;
        for s in &mut p {
            *s = (*s - max).exp();
            sum += *s;
        }
        for (e, &pe) in (lo..hi).zip(&p) {
            let w = pe / sum;
            let vrow = &v[a.indices[e] as usize * dv..][..dv];
            for (o, &vv) in orow.iter_mut().zip(vrow) {
                *o += w * vv;
            }
        }
    }
}

/// GraphSAGE mean-aggregate + transform: `out_i = (mean_{j∈N(i)} x_j) · w`
/// with `x: cols × f`, `w: f × h`, `out: rows × h` (overwritten). Edge
/// values are ignored (the aggregator is structural).
pub fn sage_f32(a: CsrRef, x: &[f32], w: &[f32], f: usize, h: usize, out: &mut [f32]) {
    let mut agg = vec![0.0f32; f];
    for (r, orow) in out.chunks_exact_mut(h).enumerate() {
        orow.fill(0.0);
        let (lo, hi) = (a.indptr[r], a.indptr[r + 1]);
        if lo == hi {
            continue;
        }
        agg.fill(0.0);
        for e in lo..hi {
            let xrow = &x[a.indices[e] as usize * f..][..f];
            for (s, &xv) in agg.iter_mut().zip(xrow) {
                *s += xv;
            }
        }
        let inv = 1.0 / (hi - lo) as f32;
        for (k, &s) in agg.iter().enumerate() {
            let c = s * inv;
            for (o, &wv) in orow.iter_mut().zip(&w[k * h..][..h]) {
                *o += c * wv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// f64 references (oracle)
// ---------------------------------------------------------------------------

pub fn spmm_f64(a: CsrRef, x: &[f32], d: usize) -> Oracle {
    let mut o = Oracle::zeros(a.rows * d);
    for r in 0..a.rows {
        for e in a.indptr[r]..a.indptr[r + 1] {
            let v = f64::from(a.values[e]);
            let xrow = &x[a.indices[e] as usize * d..][..d];
            for (k, &xv) in xrow.iter().enumerate() {
                let t = v * f64::from(xv);
                o.val[r * d + k] += t;
                o.mag[r * d + k] += t.abs();
            }
        }
    }
    o
}

/// `(Σ_k x_k y_k, Σ_k |x_k y_k|)` with `y` read at stride `n` from column `j`.
fn dot_f64(xrow: &[f32], y: &[f32], n: usize, j: usize) -> (f64, f64) {
    xrow.iter().enumerate().fold((0.0, 0.0), |(s, m), (k, &xv)| {
        let t = f64::from(xv) * f64::from(y[k * n + j]);
        (s + t, m + t.abs())
    })
}

pub fn sddmm_f64(a: CsrRef, x: &[f32], y: &[f32], d: usize) -> Oracle {
    let mut o = Oracle::zeros(a.nnz());
    for r in 0..a.rows {
        let xrow = &x[r * d..][..d];
        for e in a.indptr[r]..a.indptr[r + 1] {
            let (s, m) = dot_f64(xrow, y, a.cols, a.indices[e] as usize);
            let v = f64::from(a.values[e]);
            o.val[e] = v * s;
            o.mag[e] = v.abs() * m;
        }
    }
    o
}

pub fn attention_f64(a: CsrRef, q: &[f32], kt: &[f32], v: &[f32], d: usize, dv: usize) -> Oracle {
    let mut o = Oracle::zeros(a.rows * dv);
    for r in 0..a.rows {
        let (lo, hi) = (a.indptr[r], a.indptr[r + 1]);
        if lo == hi {
            continue;
        }
        let qrow = &q[r * d..][..d];
        let scores: Vec<f64> = (lo..hi)
            .map(|e| f64::from(a.values[e]) * dot_f64(qrow, kt, a.cols, a.indices[e] as usize).0)
            .collect();
        let max = scores.iter().copied().fold(f64::MIN, f64::max);
        let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
        let denom: f64 = exps.iter().sum();
        for (e, ex) in (lo..hi).zip(&exps) {
            let p = ex / denom;
            let vrow = &v[a.indices[e] as usize * dv..][..dv];
            for (c, &vv) in vrow.iter().enumerate() {
                let t = p * f64::from(vv);
                o.val[r * dv + c] += t;
                o.mag[r * dv + c] += t.abs();
            }
        }
    }
    o
}

pub fn sage_f64(a: CsrRef, x: &[f32], w: &[f32], f: usize, h: usize) -> Oracle {
    let mut o = Oracle::zeros(a.rows * h);
    let mut agg = vec![0.0f64; f];
    let mut agg_mag = vec![0.0f64; f];
    for r in 0..a.rows {
        let (lo, hi) = (a.indptr[r], a.indptr[r + 1]);
        if lo == hi {
            continue;
        }
        agg.fill(0.0);
        agg_mag.fill(0.0);
        for e in lo..hi {
            let xrow = &x[a.indices[e] as usize * f..][..f];
            for (k, &xv) in xrow.iter().enumerate() {
                agg[k] += f64::from(xv);
                agg_mag[k] += f64::from(xv).abs();
            }
        }
        let inv = 1.0 / (hi - lo) as f64;
        for k in 0..f {
            for (c, &wv) in w[k * h..][..h].iter().enumerate() {
                o.val[r * h + c] += agg[k] * inv * f64::from(wv);
                o.mag[r * h + c] += agg_mag[k] * inv * f64::from(wv).abs();
            }
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::prelude::*;

    // A = [[2 0 1]
    //      [0 0 0]
    //      [0 3 4]]
    const INDPTR: [usize; 4] = [0, 2, 2, 4];
    const INDICES: [u32; 4] = [0, 2, 1, 2];
    const VALUES: [f32; 4] = [2.0, 1.0, 3.0, 4.0];

    fn a3() -> CsrRef<'static> {
        CsrRef { rows: 3, cols: 3, indptr: &INDPTR, indices: &INDICES, values: &VALUES }
    }

    fn assert_close(got: &[f32], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((f64::from(*g) - w).abs() < 1e-5, "{got:?} vs {want:?}");
        }
    }

    /// Both arms of one op against a hand-computed answer.
    fn assert_both(native: &[f32], oracle: &Oracle, want: &[f64]) {
        assert_close(native, want);
        for (v, w) in oracle.val.iter().zip(want) {
            assert!((v - w).abs() < 1e-12, "{:?} vs {want:?}", oracle.val);
        }
        assert!(oracle.matches(native));
    }

    #[test]
    fn spmm_3x3_by_hand() {
        // X = [[1 2] [3 4] [5 6]]
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        // row0 = 2·[1 2] + 1·[5 6]; row1 = 0; row2 = 3·[3 4] + 4·[5 6]
        let want = [7.0, 10.0, 0.0, 0.0, 29.0, 36.0];
        let mut out = [9.0f32; 6];
        spmm_f32(a3(), &x, 2, &mut out);
        let oracle = spmm_f64(a3(), &x, 2);
        assert_both(&out, &oracle, &want);
        assert_eq!(oracle.mag, want, "all terms positive: magnitude equals value");
    }

    #[test]
    fn sddmm_3x3_by_hand() {
        // X rows: [1 2] [3 4] [5 6]; Y (2×3) = [[1 0 2] [0 1 1]]
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [1.0, 0.0, 2.0, 0.0, 1.0, 1.0];
        // (0,0): 2·(1·1+2·0)=2  (0,2): 1·(1·2+2·1)=4
        // (2,1): 3·(5·0+6·1)=18 (2,2): 4·(5·2+6·1)=64
        let want = [2.0, 4.0, 18.0, 64.0];
        let mut out = [9.0f32; 4];
        sddmm_f32(a3(), &x, &y, 2, &mut Vec::new(), &mut out);
        assert_both(&out, &sddmm_f64(a3(), &x, &y, 2), &want);
    }

    #[test]
    fn attention_3x3_by_hand() {
        // d = dv = 1. q = [1 1 1], k = [0 ln2 0], v = [10 20 30].
        let ln2 = std::f32::consts::LN_2;
        let (q, kt, v) = ([1.0, 1.0, 1.0], [0.0, ln2, 0.0], [10.0, 20.0, 30.0]);
        // row0: scores 2·0, 1·0 → p = ½,½ → ½·10 + ½·30 = 20
        // row1: empty → 0
        // row2: scores 3·ln2, 4·0 → exp = 8, 1 → p = 8/9, 1/9 → (160+30)/9
        let want = [20.0, 0.0, 190.0 / 9.0];
        let mut out = [9.0f32; 3];
        attention_f32(a3(), &q, &kt, &v, 1, 1, &mut Vec::new(), &mut out);
        let oracle = attention_f64(a3(), &q, &kt, &v, 1, 1);
        assert_close(&out, &want);
        for (o, w) in oracle.val.iter().zip(&want) {
            assert!((o - w).abs() < 1e-6, "{:?} vs {want:?}", oracle.val);
        }
        assert!(oracle.matches(&out));
    }

    #[test]
    fn sage_3x3_by_hand() {
        // X rows: [1 2] [3 4] [5 6]; W (2×2) = [[1 0] [1 1]]
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let w = [1.0, 0.0, 1.0, 1.0];
        // row0: mean([1 2],[5 6]) = [3 4] → [3+4, 4]
        // row2: mean([3 4],[5 6]) = [4 5] → [9, 5]
        let want = [7.0, 4.0, 0.0, 0.0, 9.0, 5.0];
        let mut out = [9.0f32; 6];
        sage_f32(a3(), &x, &w, 2, 2, &mut out);
        assert_both(&out, &sage_f64(a3(), &x, &w, 2, 2), &want);
    }

    #[test]
    fn oracle_rejects_wrong_answers() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let oracle = spmm_f64(a3(), &x, 2);
        let mut out = [0.0f32; 6];
        spmm_f32(a3(), &x, 2, &mut out);
        assert!(oracle.matches(&out));
        out[4] += 0.01; // |Δ| = 1e-2 > 1e-4·(1 + 29)
        assert!(!oracle.matches(&out));
        out[4] = f32::NAN;
        assert!(!oracle.matches(&out));
        assert!(!oracle.matches(&out[..5]), "length mismatch is a wrong answer");
    }

    /// The oracle itself is checked against `smat`'s independent reference
    /// on a random matrix (never used the other way round).
    #[test]
    fn oracle_agrees_with_smat_reference() {
        let mut rng = gen::rng(7);
        let a = gen::random_csr(40, 30, 0.15, &mut rng);
        let x = gen::random_dense(30, 5, &mut rng);
        let r = crate::inputs::csr_ref(&a);
        let spmm = a.spmm(&x).unwrap();
        assert!(spmm_f64(r, x.data(), 5).matches(spmm.data()));
        let xs = gen::random_dense(40, 5, &mut rng);
        let ys = gen::random_dense(5, 30, &mut rng);
        let sddmm = a.sddmm(&xs, &ys).unwrap();
        assert!(sddmm_f64(r, xs.data(), ys.data(), 5).matches(sddmm.values()));
    }
}
