//! Pruned-transformer weight generators (§4.3.2).
//!
//! Substitution (README intro and §Crate map, `crates/graphs`): the paper extracts SpMM operators from two
//! HuggingFace PruneBERT checkpoints. Here the weights are generated with
//! the same *structure*: block pruning (block 32, many all-zero block rows
//! — the DBSR motivation) and movement pruning (unstructured ~94% sparse).
//! Shapes follow BERT-base: 768×768 attention projections and
//! 768×3072 / 3072×768 FFN layers; sequence length 512, batch 1 (§4.3.2).

use sparsetir_smat::csr::Csr;
use sparsetir_smat::gen;

/// BERT-base layer shapes `(out, in)` the paper's operators come from.
#[must_use]
pub fn bert_layer_shapes() -> Vec<(&'static str, usize, usize)> {
    vec![
        ("attn.qkv", 768, 768),
        ("attn.out", 768, 768),
        ("ffn.up", 3072, 768),
        ("ffn.down", 768, 3072),
    ]
}

/// Block-pruned weight (block-sparse, block 32) at the given density, with
/// the paper's characteristic all-zero block rows (§4.3.2: "the block
/// sparse weights in the block-pruned model have many all-zero rows").
#[must_use]
pub fn block_pruned_weight(out_dim: usize, in_dim: usize, density: f64, seed: u64) -> Csr {
    let mut rng = gen::rng(seed);
    // Roughly a third of block rows end up entirely empty at high
    // sparsity, concentrating the surviving blocks in the rest.
    let zero_row_fraction = (0.5 * (1.0 - density * 4.0)).clamp(0.0, 0.45);
    gen::random_block_sparse(out_dim, in_dim, 32, density, zero_row_fraction, &mut rng)
}

/// Movement-pruned weight: unstructured sparsity at the given density.
#[must_use]
pub fn movement_pruned_weight(out_dim: usize, in_dim: usize, density: f64, seed: u64) -> Csr {
    let mut rng = gen::rng(seed);
    gen::random_csr(out_dim, in_dim, density, &mut rng)
}

/// The density sweep of Figure 17 (structured): `2⁻⁷ … 2⁻¹`.
#[must_use]
pub fn figure17_densities() -> Vec<f64> {
    (1..=7).rev().map(|e| 1.0 / f64::from(1 << e)).collect()
}

/// The density sweep of Figure 19 (unstructured): `2⁻⁷ … 2⁻³`.
#[must_use]
pub fn figure19_densities() -> Vec<f64> {
    (3..=7).rev().map(|e| 1.0 / f64::from(1 << e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_smat::bsr::Bsr;

    #[test]
    fn block_pruned_has_zero_rows_at_high_sparsity() {
        let w = block_pruned_weight(768, 768, 1.0 / 16.0, 7);
        let bsr = Bsr::from_csr(&w, 32).unwrap();
        assert!(bsr.zero_block_rows() > 0, "expected empty block rows");
        // Blocks are fully dense inside (block pruning keeps whole blocks).
        assert_eq!(bsr.stored(), w.nnz());
    }

    #[test]
    fn densities_sweep_downwards() {
        let d = figure17_densities();
        assert_eq!(d.len(), 7);
        assert!((d[0] - 1.0 / 128.0).abs() < 1e-12);
        assert!((d[6] - 0.5).abs() < 1e-12);
        assert_eq!(figure19_densities().len(), 5);
    }

    #[test]
    fn movement_pruned_hits_target_density() {
        let w = movement_pruned_weight(768, 768, 0.06, 11);
        let got = w.density();
        assert!((got - 0.06).abs() < 0.005, "{got}");
    }
}
