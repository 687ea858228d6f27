//! The `SpmmConfig × small matrix × feature width` grid of ROADMAP 7(a):
//! every public field of the configuration at its edge values, against
//! matrices with zero rows, zero columns and no non-zeros. Shared, by
//! `#[path]`, between the executable boundary (`kernels/tests/no_panic.rs`)
//! and the pricing boundary (`plans/tests/no_panic.rs`).

use proptest::prelude::*;
use sparsetir_kernels::prelude::{CsrSpmmParams, SpmmConfig};
use sparsetir_smat::prelude::*;

/// Uniform choice among `xs`.
fn one_of<T: Clone + 'static>(xs: &[T]) -> Union<T> {
    Union::new(xs.iter().map(|x| Just(x.clone()).boxed()).collect())
}

/// 6×5 and 1×1 with non-zeros, 0×3, 3×0, and an empty 4×4.
fn matrices() -> Vec<Csr> {
    let mut rng = gen::rng(7);
    let empty = |rows, cols| Csr::from_coo(&Coo::new(rows, cols));
    vec![
        gen::random_csr(6, 5, 0.4, &mut rng),
        gen::random_csr(1, 1, 1.0, &mut rng),
        empty(0, 3),
        empty(3, 0),
        empty(4, 4),
    ]
}

/// One grid point: a matrix, a feature width from `feats`, and a
/// configuration whose `col_parts` edges are taken around that matrix's
/// column count.
pub fn grid_point(feats: &'static [usize]) -> impl Strategy<Value = (Csr, usize, SpmmConfig)> {
    const SIZES: [usize; 6] = [0, 1, 3, 128, 1 << 20, usize::MAX];
    (one_of(&matrices()), one_of(feats)).prop_flat_map(|(a, feat)| {
        let cols = a.cols();
        let col_parts = one_of(&[
            None,
            Some(0),
            Some(1),
            Some(2),
            Some(cols),
            Some(cols + 1),
            Some(usize::MAX),
        ]);
        let bucket_k = one_of(&[0u32, 1, 3, 31, 32, u32::MAX]);
        let sizes = (one_of(&SIZES), one_of(&SIZES), one_of(&SIZES), one_of(&[true, false]));
        (col_parts, bucket_k, sizes).prop_map(move |(col_parts, bucket_k, sizes)| {
            let (rows_per_block, vec_width, threads, register_cache) = sizes;
            let params = CsrSpmmParams { rows_per_block, vec_width, register_cache, threads };
            (a.clone(), feat, SpmmConfig { col_parts, bucket_k, params })
        })
    })
}
