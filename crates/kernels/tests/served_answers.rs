//! The served kernels against an independent `f64` reference with a stated
//! bound (ROADMAP 7(b)): `spmm_execute_views_on` for one request and for
//! batches of three and eight, `sddmm_execute_views_on` and
//! `fused_attention_views_on` for one head and three, `fused_sage_execute_on`
//! with either operand narrow, over lane counts around the vector widths, on
//! a graph with empty rows, one-non-zero rows and one row of `n / 2`.
//! Bit-identity between our own paths is `exec_differential`'s business;
//! this proves the answer.

mod oracle;

use sparsetir_ir::exec::Runtime;
use sparsetir_kernels::prelude::*;
use sparsetir_smat::prelude::*;

/// 24 × 24: rows of 0, 1 and `n / 2` non-zeros among short ones.
fn graph() -> Csr {
    let lens = [0usize, 1, 12, 0, 1, 3, 2, 5, 1, 0, 7, 1, 2, 0, 4, 1, 9, 1, 0, 2, 3, 1, 6, 1];
    let mut next = lens.iter().copied();
    gen::random_csr_with_row_lengths(lens.len(), 24, |_| next.next().unwrap(), &mut gen::rng(0x0a))
}

#[test]
fn the_oracle_agrees_with_smat() {
    let (a, mut rng) = (graph(), gen::rng(0x0b));
    let x = gen::random_dense(a.cols(), 5, &mut rng);
    oracle::spmm_f64(&a, x.data(), 5).check(a.spmm(&x).unwrap().data()).unwrap();
    let (p, q) =
        (gen::random_dense(a.rows(), 5, &mut rng), gen::random_dense(5, a.cols(), &mut rng));
    oracle::sddmm_f64(&a, p.data(), q.data(), 5).check(a.sddmm(&p, &q).unwrap().values()).unwrap();
    // And it can say no: one element a percent off.
    let mut wrong = a.spmm(&x).unwrap().data().to_vec();
    let at = wrong.iter().position(|v| v.abs() > 0.5).expect("a sizeable element");
    wrong[at] *= 1.01;
    let err = oracle::spmm_f64(&a, x.data(), 5).check(&wrong).unwrap_err();
    assert!(err.starts_with(&format!("element {at}:")), "{err}");
}

#[test]
fn served_spmm_is_right_at_every_width_and_batch() {
    let (a, mut rng) = (graph(), gen::rng(0x0c));
    for d in [1usize, 3, 4, 16, 17, 48] {
        for batch in [1usize, 3, 8] {
            let xs: Vec<Dense> =
                (0..batch).map(|_| gen::random_dense(a.cols(), d, &mut rng)).collect();
            for config in [
                SpmmConfig::default_csr(),
                SpmmConfig { col_parts: Some(2), bucket_k: 3, params: CsrSpmmParams::default() },
            ] {
                let refs: Vec<&Dense> = xs.iter().collect();
                let mut outs: Vec<Dense> =
                    xs.iter().map(|x| Dense::zeros(a.rows(), x.cols())).collect();
                spmm_execute_views_on(&Runtime::new(), &a, &refs, &mut outs, &config).unwrap();
                for (i, (x, out)) in xs.iter().zip(&outs).enumerate() {
                    oracle::spmm_f64(&a, x.data(), x.cols()).check(out.data()).unwrap_or_else(
                        |e| panic!("{}, d = {d}, request {i} of {batch}: {e}", config.label()),
                    );
                }
            }
        }
    }
}

/// `a · x` as a plain `f32` loop in the order `stbench`'s native SpMM sums:
/// each output row starts at `0.0`, and its non-zeros add `v · x` in
/// position order, one rounding per multiply and per add.
fn spmm_f32_in_native_order(a: &Csr, x: &[f32], d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; a.rows() * d];
    for (r, orow) in out.chunks_exact_mut(d).enumerate() {
        for e in a.indptr()[r]..a.indptr()[r + 1] {
            let v = a.values()[e];
            let xrow = &x[a.indices()[e] as usize * d..][..d];
            for (o, &xv) in orow.iter_mut().zip(xrow) {
                *o += v * xv;
            }
        }
    }
    out
}

/// The IR computes in the `f32` it declares, so served CSR SpMM is the
/// yardstick's own loop, bit for bit — single requests and batches alike.
#[test]
fn served_csr_spmm_is_the_native_f32_loop_bit_for_bit() {
    let (a, mut rng) = (graph(), gen::rng(0x0e));
    for d in [1usize, 3, 4, 16, 17, 48, 128] {
        for batch in [1usize, 3] {
            let xs: Vec<Dense> =
                (0..batch).map(|_| gen::random_dense(a.cols(), d, &mut rng)).collect();
            let mut outs: Vec<Dense> = xs.iter().map(|_| Dense::zeros(a.rows(), d)).collect();
            spmm_execute_views_on(
                &Runtime::new(),
                &a,
                &refs(&xs),
                &mut outs,
                &SpmmConfig::default_csr(),
            )
            .unwrap();
            for (i, (x, out)) in xs.iter().zip(&outs).enumerate() {
                let want = spmm_f32_in_native_order(&a, x.data(), d);
                for (k, (g, w)) in out.data().iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "d = {d}, request {i} of {batch}: element {k} is {g}, the f32 loop gives {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn served_sddmm_is_right_at_every_width_and_head_count() {
    let (a, mut rng) = (graph(), gen::rng(0x0d));
    for k in [1usize, 3, 4, 16, 17, 48] {
        for heads in [1usize, 3] {
            let reqs: Vec<(Dense, Dense)> = (0..heads)
                .map(|_| {
                    (
                        gen::random_dense(a.rows(), k, &mut rng),
                        gen::random_dense(k, a.cols(), &mut rng),
                    )
                })
                .collect();
            let mut outs = vec![vec![0.0f32; a.nnz()]; heads];
            sddmm_execute_views_on(&Runtime::new(), &a, &reqs, &mut outs).unwrap();
            for (h, ((x, y), out)) in reqs.iter().zip(&outs).enumerate() {
                oracle::sddmm_f64(&a, x.data(), y.data(), k)
                    .check(out)
                    .unwrap_or_else(|e| panic!("k = {k}, head {h} of {heads}: {e}"));
            }
        }
    }
}

/// The attention and SAGE oracles against the library's own `f64`
/// references, written apart from them (per head and per layer step), and
/// able to say no.
#[test]
fn the_fused_oracles_agree_with_the_library_references() {
    let (a, mut rng) = (graph(), gen::rng(0x10));
    let (q, kt) =
        (gen::random_dense(a.rows(), 5, &mut rng), gen::random_dense(5, a.cols(), &mut rng));
    let v = gen::random_dense(a.cols(), 3, &mut rng);
    let attention = fused_attention_reference(&a, &q, &kt, &v, 1);
    let check = oracle::attention_f64(&a, q.data(), kt.data(), v.data(), 5, 3);
    check.check(attention.data()).unwrap();
    let mut wrong = attention.data().to_vec();
    let at = wrong.iter().position(|v| v.abs() > 0.1).expect("a sizeable element");
    wrong[at] *= 1.01;
    assert!(check.check(&wrong).unwrap_err().starts_with(&format!("element {at}:")));
    let (x, w) = (gen::random_dense(a.cols(), 4, &mut rng), gen::random_dense(4, 3, &mut rng));
    let sage = fused_sage_reference(&a, &x, &w);
    oracle::sage_f64(&a, x.data(), w.data(), 4, 3).check(sage.data()).unwrap();
}

const WIDTHS: [usize; 6] = [1, 3, 4, 16, 17, 48];

fn refs(ds: &[Dense]) -> Vec<&Dense> {
    ds.iter().collect()
}

#[test]
fn served_attention_is_right_at_every_width_and_head_count() {
    let (a, mut rng) = (graph(), gen::rng(0x0e));
    for d in WIDTHS {
        for heads in [1usize, 3] {
            // Score width `d`, value width `d` and — so both lane loops
            // meet every width with either shape — 3.
            for vfeat in [d, 3] {
                let dense = |rows, cols, rng: &mut _| gen::random_dense(rows, cols, rng);
                let qs: Vec<Dense> = (0..heads).map(|_| dense(a.rows(), d, &mut rng)).collect();
                let kts: Vec<Dense> = (0..heads).map(|_| dense(d, a.cols(), &mut rng)).collect();
                let vs: Vec<Dense> = (0..heads).map(|_| dense(a.cols(), vfeat, &mut rng)).collect();
                let mut outs = vec![Dense::zeros(a.rows(), vfeat); heads];
                fused_attention_views_on(
                    &Runtime::new(),
                    &a,
                    &refs(&qs),
                    &refs(&kts),
                    &refs(&vs),
                    &mut outs,
                )
                .unwrap();
                for (h, out) in outs.iter().enumerate() {
                    let (q, kt, v) = (qs[h].data(), kts[h].data(), vs[h].data());
                    oracle::attention_f64(&a, q, kt, v, d, vfeat).check(out.data()).unwrap_or_else(
                        |e| panic!("k = {d}, vfeat = {vfeat}, head {h} of {heads}: {e}"),
                    );
                }
            }
        }
    }
}

#[test]
fn served_sage_is_right_at_every_width() {
    let (a, mut rng) = (graph(), gen::rng(0x0f));
    for d in WIDTHS {
        // The gather's lanes `d` wide and the transform's, each beside a
        // narrow other.
        for (feat, hidden) in [(d, 3), (3, d)] {
            let x = gen::random_dense(a.cols(), feat, &mut rng);
            let w = gen::random_dense(feat, hidden, &mut rng);
            let out = fused_sage_execute_on(&Runtime::new(), &a, &x, &w).unwrap();
            oracle::sage_f64(&a, x.data(), w.data(), feat, hidden)
                .check(out.data())
                .unwrap_or_else(|e| panic!("feat = {feat}, hidden = {hidden}: {e}"));
        }
    }
}
