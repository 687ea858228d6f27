//! The no-panic boundary of the pricing path (ROADMAP 7(a)): the same
//! `SpmmConfig × small matrix` grid that `kernels/tests/no_panic.rs`
//! throws at the executable entry point, here at the plan builders the
//! tuners price — feature width 0 included. A configuration the
//! executable path rejects (a decomposition that cannot be built) prices
//! as its CSR fallback; nothing panics, and every price is a number ≥ 0
//! (infinite at degenerate thread counts, never NaN).

#[path = "../../kernels/tests/grid/mod.rs"]
mod grid;

use proptest::prelude::*;
use sparsetir_gpusim::prelude::*;
use sparsetir_plans::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn any_spmm_config_prices_without_panicking((a, feat, config) in grid::grid_point(&[0, 1, 3])) {
        let spec = GpuSpec::v100();
        let report = tuned_spmm_time(&spec, &a, feat, &config);
        prop_assert!(report.time_ms >= 0.0, "{}: {} ms", config.label(), report.time_ms);
        // SDDMM's schedule has the same three size knobs.
        let p = config.params;
        let params = SddmmParams {
            nnz_per_block: p.rows_per_block,
            vec_width: p.vec_width,
            two_stage: p.register_cache,
            threads: p.threads,
        };
        let plan = sddmm_plan(&a, feat, params, "grid");
        prop_assert!(simulate_kernel(&spec, &plan).time_ms >= 0.0);
    }
}
