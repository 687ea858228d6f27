//! The no-panic boundary of the one executable SpMM entry point
//! (ROADMAP 7(a)): whatever a caller writes into the public fields of an
//! [`SpmmConfig`], `spmm_execute_views_on` answers with a typed error or
//! with `A · X` — never a panic. Four PRs in a row found one such panic
//! by hand (`k ≥ 32`, `c > cols`, `c = usize::MAX`, an empty segment's
//! column table); this is the generator that would have found all four.

mod grid;

use proptest::prelude::*;
use sparsetir_ir::exec::Runtime;
use sparsetir_kernels::prelude::spmm_execute_views_on;
use sparsetir_smat::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn any_spmm_config_is_an_error_or_the_product((a, feat, config) in grid::grid_point(&[1, 3])) {
        let mut rng = gen::rng(11);
        let x = gen::random_dense(a.cols(), feat, &mut rng);
        let mut outs = vec![Dense::zeros(a.rows(), feat)];
        if spmm_execute_views_on(&Runtime::new(), &a, &[&x], &mut outs, &config).is_ok() {
            let want = a.spmm(&x).expect("shapes agree");
            prop_assert!(outs[0].approx_eq(&want, 1e-3), "{} on {}x{}", config.label(), a.rows(), a.cols());
        }
    }
}
