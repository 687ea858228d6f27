//! The tuning face of a [`SparseOp`]. An op whose
//! [`Config`](SparseOp::Config) carries a knob that changes its generated
//! kernel contributes the search over that knob ([`TunableOp`]); the
//! serving engine tunes exactly the ops that implement it and serves every
//! other op untouched. Today that is SpMM, over the joint format ×
//! schedule space of §4.2.1. GPU-only schedule spaces — SDDMM's, the attention
//! block size, the RGMS bucket exponent — change no executable kernel, so
//! they are not op configuration: the typed tuners in the crate root price
//! them for the paper figures.

use crate::engine::{tune, TuneOutcome};
use crate::evaluate::SpmmSimEvaluator;
use crate::space::SpmmSpace;
use sparsetir_gpusim::prelude::GpuSpec;
use sparsetir_kernels::prelude::*;
use sparsetir_smat::prelude::Csr;

/// A [`SparseOp`] with a tuning story: a simulator search over the
/// configurations its `launch` distinguishes.
pub trait TunableOp: SparseOp {
    /// Run the op's simulator search at the request shape `shape` (the
    /// `extra` component of a [`crate::TuneKey`]; `[feat]` for SpMM).
    /// `None` when no candidate is feasible.
    fn search(
        spec: &GpuSpec,
        adj: &Self::Adj,
        shape: &[usize],
    ) -> Option<TuneOutcome<Self::Config>>;
}

impl TunableOp for SpmmOp {
    fn search(spec: &GpuSpec, adj: &Csr, shape: &[usize]) -> Option<TuneOutcome<SpmmConfig>> {
        let feat = shape.first().copied().unwrap_or(1).max(1);
        tune(&SpmmSpace::joint(adj), &SpmmSimEvaluator::new(spec, adj, feat))
    }
}

#[cfg(test)]
mod tests {
    use crate::{tune_attention_block, tune_sddmm, tune_spmm};
    use sparsetir_gpusim::prelude::*;
    use sparsetir_kernels::prelude::*;
    use sparsetir_smat::prelude::*;

    #[test]
    fn op_tuning_caches_per_kind_and_shape() {
        let mut rng = gen::rng(61);
        let a = gen::random_csr(200, 200, 0.05, &mut rng);
        let spec = GpuSpec::v100();
        let r1 = tune_sddmm(&spec, &a, 32);
        assert!(!r1.from_cache);
        assert_eq!(r1.trials, sddmm_param_candidates().len());
        let r2 = tune_sddmm(&spec, &a, 32);
        assert!(r2.from_cache, "second tune of the same shape must hit");
        assert_eq!(r1.config, r2.config);
        // Same matrix, different op kind: a distinct decision.
        assert!(!tune_spmm(&spec, &a, 32).from_cache);
        // Same op, different shape: a distinct decision.
        assert!(!tune_sddmm(&spec, &a, 64).from_cache);
    }

    #[test]
    fn attention_tuning_picks_a_searched_block() {
        let mut coo = Coo::new(128, 128);
        for i in 0..128usize {
            let lo = i.saturating_sub(8);
            let hi = (i + 8).min(127);
            for j in lo..=hi {
                coo.push(i as u32, j as u32, 1.0);
            }
        }
        let mask = Csr::from_coo(&coo);
        let spec = GpuSpec::v100();
        let r = tune_attention_block(&spec, &mask, 32, 4);
        assert!([16usize, 32, 64].contains(&r.config));
        assert_eq!(r.trials, 3);
    }
}
