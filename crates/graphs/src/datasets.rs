//! Synthetic stand-ins for the homogeneous GNN graphs of Table 1.
//!
//! Substitution (README intro and §Crate map, `crates/graphs`): the paper loads Cora/Citeseer/Pubmed (
//! Planetoid), PPI, ogbn-arxiv, ogbn-proteins and Reddit. Here each graph
//! is generated with its published node count and average degree and a
//! degree-distribution *family* matching its character (power-law citation
//! /social tails vs the concentrated degrees of ogbn-proteins). Graphs
//! whose full size would make cache-line simulation slow are generated at
//! a documented `scale < 1`; degree statistics — which drive every
//! load-balancing and padding effect — are scale-invariant under the
//! generator.

use rand::Rng;
use sparsetir_smat::csr::Csr;
use sparsetir_smat::gen;

/// Degree-distribution family of a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeFamily {
    /// Heavy-tailed (citation/social networks): most rows short, a few
    /// huge — the regime where `hyb` bucketing wins.
    PowerLaw,
    /// Concentrated around the mean (ogbn-proteins): §4.2.1 notes "the
    /// degree distribution of the ogbn-proteins graph is centralized, and
    /// the benefit of using a hybrid format is compensated".
    Concentrated,
}

/// A Table 1 graph description.
#[derive(Debug, Clone)]
pub struct GraphSpec {
    /// Dataset name as in the paper.
    pub name: &'static str,
    /// Paper-reported node count.
    pub paper_nodes: usize,
    /// Paper-reported edge count.
    pub paper_edges: usize,
    /// Paper-reported `%padding` under the chosen hyb format (Table 1).
    pub paper_padding_pct: f64,
    /// Degree-distribution family.
    pub family: DegreeFamily,
    /// Generation scale in `(0, 1]` applied to the node count.
    pub scale: f64,
    /// RNG seed (deterministic generation).
    pub seed: u64,
}

impl GraphSpec {
    /// Node count after scaling.
    #[must_use]
    pub fn nodes(&self) -> usize {
        ((self.paper_nodes as f64 * self.scale) as usize).max(64)
    }

    /// Paper average degree (preserved by generation).
    #[must_use]
    pub fn avg_degree(&self) -> f64 {
        self.paper_edges as f64 / self.paper_nodes as f64
    }

    /// Generate the adjacency matrix.
    #[must_use]
    pub fn generate(&self) -> Csr {
        let n = self.nodes();
        let mean = self.avg_degree();
        let mut rng = gen::rng(self.seed);
        match self.family {
            DegreeFamily::PowerLaw => {
                // Pareto-like: density α/(u+ε), normalized to hit `mean`.
                let eps = 0.015f64;
                let norm = (1.0f64 + eps).ln() - eps.ln();
                let alpha = mean / norm;
                gen::random_csr_with_row_lengths(
                    n,
                    n,
                    move |r| {
                        let u: f64 = r.gen_range(0.0..1.0);
                        ((alpha / (u + eps)) as usize).clamp(1, n / 2)
                    },
                    &mut rng,
                )
            }
            DegreeFamily::Concentrated => {
                // Degrees within ±25% of the mean.
                let lo = (mean * 0.75) as usize;
                let hi = ((mean * 1.25) as usize).min(n - 1).max(lo + 1);
                gen::random_csr_with_row_lengths(n, n, move |r| r.gen_range(lo..hi), &mut rng)
            }
        }
    }
}

/// All Table 1 graphs, scaled so that simulation stays tractable (the
/// harness prints both generated and paper statistics).
#[must_use]
pub fn table1_graphs() -> Vec<GraphSpec> {
    vec![
        GraphSpec {
            name: "cora",
            paper_nodes: 2708,
            paper_edges: 10556,
            paper_padding_pct: 15.9,
            family: DegreeFamily::PowerLaw,
            scale: 1.0,
            seed: 0xC0,
        },
        GraphSpec {
            name: "citeseer",
            paper_nodes: 3327,
            paper_edges: 9228,
            paper_padding_pct: 13.0,
            family: DegreeFamily::PowerLaw,
            scale: 1.0,
            seed: 0xC1,
        },
        GraphSpec {
            name: "pubmed",
            paper_nodes: 19717,
            paper_edges: 88651,
            paper_padding_pct: 23.1,
            family: DegreeFamily::PowerLaw,
            scale: 1.0,
            seed: 0xC2,
        },
        GraphSpec {
            name: "ppi",
            paper_nodes: 44906,
            paper_edges: 1_271_274,
            paper_padding_pct: 22.9,
            family: DegreeFamily::PowerLaw,
            scale: 0.25,
            seed: 0xC3,
        },
        GraphSpec {
            name: "ogbn-arxiv",
            paper_nodes: 169_343,
            paper_edges: 1_166_243,
            paper_padding_pct: 17.5,
            family: DegreeFamily::PowerLaw,
            scale: 0.08,
            seed: 0xC4,
        },
        GraphSpec {
            name: "ogbn-proteins",
            paper_nodes: 132_534,
            paper_edges: 39_561_252,
            paper_padding_pct: 21.6,
            family: DegreeFamily::Concentrated,
            scale: 0.03,
            seed: 0xC5,
        },
        GraphSpec {
            name: "reddit",
            paper_nodes: 232_965,
            paper_edges: 114_615_892,
            paper_padding_pct: 28.6,
            family: DegreeFamily::PowerLaw,
            scale: 0.02,
            seed: 0xC6,
        },
    ]
}

/// Look up a Table 1 graph by name.
#[must_use]
pub fn graph_by_name(name: &str) -> Option<GraphSpec> {
    table1_graphs().into_iter().find(|g| g.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_matches_average_degree() {
        for spec in table1_graphs() {
            let g = spec.generate();
            let got = g.nnz() as f64 / g.rows() as f64;
            let want = spec.avg_degree();
            let ratio = got / want;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: generated avg degree {got:.1} vs paper {want:.1}",
                spec.name
            );
        }
    }

    #[test]
    fn power_law_graphs_are_skewed_but_proteins_is_not() {
        let reddit = graph_by_name("reddit").unwrap().generate();
        let (max, mean, _) = reddit.degree_stats();
        // The scaled graph caps row length at n/2, truncating the extreme
        // tail; a 4× max/mean ratio is still firmly heavy-tailed.
        assert!(max as f64 > 4.0 * mean, "reddit skew: max {max} mean {mean:.1}");

        let proteins = graph_by_name("ogbn-proteins").unwrap().generate();
        let (pmax, pmean, _) = proteins.degree_stats();
        assert!((pmax as f64) < 1.5 * pmean, "proteins concentration: max {pmax} mean {pmean:.1}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = graph_by_name("cora").unwrap().generate();
        let b = graph_by_name("cora").unwrap().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn lookup_by_name() {
        assert!(graph_by_name("pubmed").is_some());
        assert!(graph_by_name("nope").is_none());
    }
}
