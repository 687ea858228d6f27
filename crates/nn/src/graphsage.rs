//! End-to-end GraphSAGE training (§4.2.3, Figure 15): a two-layer
//! mean-aggregator GraphSAGE model whose forward *and* backward passes are
//! composed from SpMM + GEMM kernels. The paper swaps DGL's SpMM for the
//! SparseTIR-tuned kernel inside a PyTorch model; here the two variants
//! differ in exactly the same way — the SpMM plan — while sharing the GEMM
//! and elementwise kernels.

use sparsetir_autotune::tune_spmm;
use sparsetir_gpusim::prelude::*;
use sparsetir_kernels::prelude::*;
use sparsetir_plans::prelude::*;
use sparsetir_smat::prelude::*;

/// A two-layer GraphSAGE model (mean aggregator).
#[derive(Debug, Clone)]
pub struct GraphSage {
    /// Row-normalized adjacency.
    pub a_norm: Csr,
    /// Transposed normalized adjacency (backward pass).
    pub a_norm_t: Csr,
    /// Layer-1 weight (`in × hidden`) applied to aggregated features.
    pub w1: Dense,
    /// Layer-2 weight (`hidden × out`).
    pub w2: Dense,
}

/// Forward activations kept for the backward pass.
#[derive(Debug, Clone)]
pub struct SageActivations {
    /// Aggregated input features `A·X`.
    pub agg1: Dense,
    /// Layer-1 post-ReLU output.
    pub h1: Dense,
    /// Aggregated hidden features `A·H1`.
    pub agg2: Dense,
    /// Final output.
    pub out: Dense,
}

impl GraphSage {
    /// Build a model with row-normalized adjacency and random weights.
    ///
    /// # Errors
    /// Propagates shape errors from normalization.
    pub fn new(
        adj: &Csr,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        seed: u64,
    ) -> Result<GraphSage, SmatError> {
        let mut a = adj.clone();
        // Row-normalize: mean aggregator.
        {
            let indptr = a.indptr().to_vec();
            let vals = a.values_mut();
            for r in 0..indptr.len() - 1 {
                let deg = (indptr[r + 1] - indptr[r]) as f32;
                if deg > 0.0 {
                    for v in &mut vals[indptr[r]..indptr[r + 1]] {
                        *v = 1.0 / deg;
                    }
                }
            }
        }
        let mut rng = gen::rng(seed);
        Ok(GraphSage {
            a_norm_t: a.transpose(),
            a_norm: a,
            w1: gen::random_dense(in_dim, hidden, &mut rng).scale(0.2),
            w2: gen::random_dense(hidden, out_dim, &mut rng).scale(0.2),
        })
    }

    /// Functional forward pass: `H1 = relu((A·X)·W1)`, `Out = (A·H1)·W2`.
    ///
    /// # Errors
    /// Propagates shape mismatches.
    pub fn forward(&self, x: &Dense) -> Result<SageActivations, SmatError> {
        let agg1 = self.a_norm.spmm(x)?;
        let h1 = agg1.matmul(&self.w1)?.relu();
        let agg2 = self.a_norm.spmm(&h1)?;
        let out = agg2.matmul(&self.w2)?;
        Ok(SageActivations { agg1, h1, agg2, out })
    }

    /// Functional backward pass for loss gradient `dout`; returns
    /// `(dW1, dW2)`. Uses `Aᵀ` SpMM for feature gradients — exactly the
    /// kernels whose speed Figure 15 measures.
    ///
    /// # Errors
    /// Propagates shape mismatches.
    pub fn backward(
        &self,
        acts: &SageActivations,
        dout: &Dense,
    ) -> Result<(Dense, Dense), SmatError> {
        // dW2 = agg2ᵀ · dout
        let dw2 = acts.agg2.transpose().matmul(dout)?;
        // dAgg2 = dout · W2ᵀ ; dH1 = Aᵀ · dAgg2 (masked by ReLU)
        let dagg2 = dout.matmul(&self.w2.transpose())?;
        let mut dh1 = self.a_norm_t.spmm(&dagg2)?;
        for (g, h) in dh1.data_mut().iter_mut().zip(acts.h1.data()) {
            if *h <= 0.0 {
                *g = 0.0;
            }
        }
        // dW1 = agg1ᵀ · dH1
        let dw1 = acts.agg1.transpose().matmul(&dh1)?;
        Ok((dw1, dw2))
    }
}

/// Per-step kernel launches of one training iteration as simulator plans:
/// 2 forward SpMMs + 1 backward SpMM (Aᵀ), plus 4 GEMMs. `spmm` builds
/// the SpMM plan for a given adjacency and feature width — the only
/// difference between the DGL and SparseTIR variants.
fn training_step_time(
    spec: &GpuSpec,
    model: &GraphSage,
    in_dim: usize,
    hidden: usize,
    out_dim: usize,
    spmm: &dyn Fn(&Csr, usize) -> Vec<KernelPlan>,
) -> f64 {
    let n = model.a_norm.rows();
    let mut plans: Vec<KernelPlan> = Vec::new();
    plans.extend(spmm(&model.a_norm, in_dim)); // agg1
    plans.push(cublas_gemm_fp32_plan(n, hidden, in_dim)); // h1
    plans.extend(spmm(&model.a_norm, hidden)); // agg2
    plans.push(cublas_gemm_fp32_plan(n, out_dim, hidden)); // out
    plans.push(cublas_gemm_fp32_plan(hidden, out_dim, n)); // dW2
    plans.push(cublas_gemm_fp32_plan(n, hidden, out_dim)); // dAgg2
    plans.extend(spmm(&model.a_norm_t, hidden)); // dH1
    plans.push(cublas_gemm_fp32_plan(in_dim, hidden, n)); // dW1
    simulate_sequence(spec, &plans).1
}

/// Simulated training-step time with DGL's SpMM backend.
#[must_use]
pub fn dgl_step_time(spec: &GpuSpec, model: &GraphSage, dims: (usize, usize, usize)) -> f64 {
    training_step_time(spec, model, dims.0, dims.1, dims.2, &|a, feat| vec![dgl_spmm_plan(a, feat)])
}

/// Simulated training-step time with the SparseTIR hyb SpMM (horizontally
/// fused buckets).
#[must_use]
pub fn sparsetir_step_time(spec: &GpuSpec, model: &GraphSage, dims: (usize, usize, usize)) -> f64 {
    training_step_time(spec, model, dims.0, dims.1, dims.2, &|a, feat| {
        let hyb = Hyb::with_default_k(a, 2).expect("c=2 valid");
        let plans = hyb_spmm_plans(&hyb, feat, CsrSpmmParams::default());
        vec![KernelPlan::fused(&plans, "spmm_hyb_fused")]
    })
}

/// Simulated training-step time with the autotuned SpMM: each
/// `(adjacency, feature width)` pair goes through the cached
/// `sparsetir_autotune::tune_spmm` joint search, and the winning
/// configuration's plans run horizontally fused. Because the [`TuneCache`]
/// keys on the sparsity fingerprint, every subsequent step of a training
/// run reuses the decision at zero search cost — the amortization §2
/// assumes.
///
/// [`TuneCache`]: sparsetir_autotune::TuneCache
#[must_use]
pub fn tuned_step_time(spec: &GpuSpec, model: &GraphSage, dims: (usize, usize, usize)) -> f64 {
    training_step_time(spec, model, dims.0, dims.1, dims.2, &|a, feat| {
        let config = tune_spmm(spec, a, feat).config;
        let plans = tuned_spmm_plans(a, feat, &config, "spmm_tuned");
        vec![KernelPlan::fused(&plans, "spmm_tuned_fused")]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn toy_graph(n: usize, seed: u64) -> Csr {
        let mut rng = gen::rng(seed);
        gen::random_csr_with_row_lengths(
            n,
            n,
            |r| {
                let u: f64 = r.gen_range(0.0..1.0);
                ((2.0 / (u + 0.01)) as usize).clamp(1, n / 2)
            },
            &mut rng,
        )
    }

    #[test]
    fn forward_matches_manual_composition() {
        let adj = toy_graph(24, 1);
        let model = GraphSage::new(&adj, 8, 6, 4, 2).unwrap();
        let mut rng = gen::rng(3);
        let x = gen::random_dense(24, 8, &mut rng);
        let acts = model.forward(&x).unwrap();
        let manual = model
            .a_norm
            .spmm(&model.a_norm.spmm(&x).unwrap().matmul(&model.w1).unwrap().relu())
            .unwrap()
            .matmul(&model.w2)
            .unwrap();
        assert!(acts.out.approx_eq(&manual, 1e-4));
    }

    #[test]
    fn backward_gradient_check_w2() {
        // Finite-difference check on one element of W2 for the loss
        // L = Σ out².
        let adj = toy_graph(12, 5);
        let mut model = GraphSage::new(&adj, 4, 3, 2, 6).unwrap();
        let mut rng = gen::rng(7);
        let x = gen::random_dense(12, 4, &mut rng);
        let acts = model.forward(&x).unwrap();
        let dout = acts.out.scale(2.0); // dL/dout for L = Σ out²
        let (_dw1, dw2) = model.backward(&acts, &dout).unwrap();

        let eps = 1e-3f32;
        let orig = model.w2.get(1, 1);
        model.w2.set(1, 1, orig + eps);
        let lp: f32 = model.forward(&x).unwrap().out.data().iter().map(|v| v * v).sum();
        model.w2.set(1, 1, orig - eps);
        let lm: f32 = model.forward(&x).unwrap().out.data().iter().map(|v| v * v).sum();
        model.w2.set(1, 1, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = dw2.get(1, 1);
        assert!(
            (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn tuned_step_no_slower_than_fixed_hyb() {
        let adj = toy_graph(2000, 12);
        let model = GraphSage::new(&adj, 32, 32, 8, 11).unwrap();
        let spec = GpuSpec::v100();
        let dgl = dgl_step_time(&spec, &model, (32, 32, 8));
        let fixed = sparsetir_step_time(&spec, &model, (32, 32, 8));
        let tuned = tuned_step_time(&spec, &model, (32, 32, 8));
        // The tuner searched a superset of the fixed hyb(2, k) deployment
        // (small tolerance: the search objective fuses per-SpMM, the step
        // estimator sequences whole steps).
        assert!(tuned <= fixed * 1.05, "tuned {tuned} vs fixed {fixed}");
        assert!(tuned < dgl, "tuned {tuned} vs dgl {dgl}");
    }

    #[test]
    fn figure15_sparsetir_step_beats_dgl() {
        let adj = toy_graph(3000, 9);
        let model = GraphSage::new(&adj, 64, 64, 16, 10).unwrap();
        let spec = GpuSpec::v100();
        let dgl = dgl_step_time(&spec, &model, (64, 64, 16));
        let stir = sparsetir_step_time(&spec, &model, (64, 64, 16));
        let speedup = dgl / stir;
        assert!(
            (1.02..3.0).contains(&speedup),
            "speedup {speedup} (dgl {dgl} vs sparsetir {stir})"
        );
    }
}

#[cfg(test)]
mod training_tests {
    use super::*;
    use rand::Rng;

    /// A few SGD steps on a regression loss must reduce it monotonically
    /// (up to small noise) — validating the hand-derived backward pass in
    /// an actual optimization loop, not just a gradient check.
    #[test]
    fn sgd_training_converges() {
        let mut rng = gen::rng(1234);
        let n = 30usize;
        let adj = gen::random_csr_with_row_lengths(
            n,
            n,
            |r| {
                let u: f64 = r.gen_range(0.0..1.0);
                ((2.0 / (u + 0.05)) as usize).clamp(1, 10)
            },
            &mut rng,
        );
        let (din, hidden, dout) = (6usize, 5usize, 3usize);
        let mut model = GraphSage::new(&adj, din, hidden, dout, 99).unwrap();
        let x = gen::random_dense(n, din, &mut rng);
        // Realizable target: the output of a differently-seeded teacher,
        // so gradient descent has a reachable optimum.
        let teacher = GraphSage::new(&adj, din, hidden, dout, 4321).unwrap();
        let target = teacher.forward(&x).unwrap().out;

        let loss_of = |out: &Dense| -> f32 {
            out.data().iter().zip(target.data()).map(|(o, t)| (o - t) * (o - t)).sum()
        };
        let lr = 0.15f32;
        let mut losses = Vec::new();
        for _ in 0..80 {
            let acts = model.forward(&x).unwrap();
            losses.push(loss_of(&acts.out));
            // dL/dout for L = Σ (out − target)².
            let mut dout_m = acts.out.clone();
            for (d, t) in dout_m.data_mut().iter_mut().zip(target.data()) {
                *d = 2.0 * (*d - t);
            }
            let (dw1, dw2) = model.backward(&acts, &dout_m).unwrap();
            model.w1 = model.w1.add(&dw1.scale(-lr)).unwrap();
            model.w2 = model.w2.add(&dw2.scale(-lr)).unwrap();
        }
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(last < first * 0.5, "training failed to converge: {first} → {last} ({losses:?})");
    }
}
