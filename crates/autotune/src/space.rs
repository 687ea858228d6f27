//! Concrete search spaces: the joint format × schedule space of §4.2.1
//! for SpMM, the schedule space of §4.2.2 for SDDMM, and the block
//! granularity of §4.3.1 for block-sparse attention.

use crate::engine::SearchSpace;
use sparsetir_kernels::prelude::*;
use sparsetir_plans::prelude::{sddmm_param_candidates, SddmmParams};
use sparsetir_smat::prelude::*;

/// The paper's column-partition candidates (§4.2.1: "we search for the
/// best c over {1, 2, 4, 8, 16}").
#[must_use]
pub fn col_part_candidates() -> Vec<usize> {
    vec![1, 2, 4, 8, 16]
}

/// The CSR schedule candidates (rows per block, vector width).
#[must_use]
pub fn schedule_candidates() -> Vec<CsrSpmmParams> {
    vec![
        CsrSpmmParams::default(),
        CsrSpmmParams { rows_per_block: 8, ..Default::default() },
        CsrSpmmParams { rows_per_block: 2, ..Default::default() },
        CsrSpmmParams { vec_width: 2, ..Default::default() },
    ]
}

/// The joint SpMM space: `(no-decomposition + hyb(c, k)) × schedules`.
pub struct SpmmSpace {
    /// Schedule parameter candidates.
    pub schedules: Vec<CsrSpmmParams>,
    /// Column-partition candidates (empty = CSR-only search).
    pub col_parts: Vec<usize>,
    /// Bucket exponent `k` for the hyb arms.
    pub bucket_k: u32,
}

impl SpmmSpace {
    /// The paper's full joint space for matrix `a`, with `k` defaulted to
    /// `⌈log2(nnz/n)⌉` as §4.2.1 prescribes.
    #[must_use]
    pub fn joint(a: &Csr) -> SpmmSpace {
        SpmmSpace {
            schedules: schedule_candidates(),
            col_parts: col_part_candidates(),
            bucket_k: default_k(a),
        }
    }

    /// Schedule-only search over plain CSR (the `SparseTIR(no-hyb)`
    /// variant of Figure 13).
    #[must_use]
    pub fn csr_only() -> SpmmSpace {
        SpmmSpace { schedules: schedule_candidates(), col_parts: Vec::new(), bucket_k: 0 }
    }
}

impl SearchSpace for SpmmSpace {
    type Candidate = SpmmConfig;

    fn candidates(&self) -> Vec<SpmmConfig> {
        let mut out = Vec::new();
        // No-decomposition arm first: ties break toward the simpler
        // format. `bucket_k` is meaningless without decomposition, so it
        // is canonicalized to 0 — this keeps derived equality meaningful
        // (the CSR default here equals `SpmmConfig::default_csr()`).
        for &params in &self.schedules {
            out.push(SpmmConfig { col_parts: None, bucket_k: 0, params });
        }
        for &c in &self.col_parts {
            for &params in &self.schedules {
                out.push(SpmmConfig { col_parts: Some(c), bucket_k: self.bucket_k, params });
            }
        }
        out
    }
}

/// The SDDMM schedule space (`sddmm_param_candidates`).
pub struct SddmmSpace;

impl SearchSpace for SddmmSpace {
    type Candidate = SddmmParams;

    fn candidates(&self) -> Vec<SddmmParams> {
        sddmm_param_candidates()
    }
}

/// Block granularities searched for block-sparse attention (§4.3.1;
/// Triton fixes 64, SparseTIR searches).
pub struct AttentionSpace;

impl SearchSpace for AttentionSpace {
    type Candidate = usize;

    fn candidates(&self) -> Vec<usize> {
        vec![16, 32, 64]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::gen;

    #[test]
    fn joint_space_covers_both_arms() {
        let mut rng = gen::rng(3);
        let a = gen::random_csr(32, 32, 0.1, &mut rng);
        let cands = SpmmSpace::joint(&a).candidates();
        // 4 schedules × (1 no-hyb arm + 5 column-partition arms).
        assert_eq!(cands.len(), 24);
        assert!(cands[0].col_parts.is_none());
        assert!(cands.iter().any(|c| c.col_parts == Some(16)));
    }

    #[test]
    fn csr_only_space_has_no_decomposition() {
        assert!(SpmmSpace::csr_only().candidates().iter().all(|c| c.col_parts.is_none()));
    }
}
