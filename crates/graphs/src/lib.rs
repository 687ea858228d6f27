//! # sparsetir-graphs
//!
//! Deterministic synthetic workload generators matching the paper's
//! datasets (each module documents its substitution; README §Crate map):
//!
//! * [`datasets`] — the homogeneous GNN graphs of Table 1,
//! * [`hetero`] — the heterogeneous RDF graphs of Table 2,
//! * [`attention`] — Longformer band and Pixelated-Butterfly masks (§4.3.1),
//! * [`pruned`] — block-pruned and movement-pruned BERT weights (§4.3.2),
//! * [`pointcloud`] — LiDAR-like voxel clouds and conv kernel maps (§4.4.2).

#![warn(missing_docs)]

pub mod attention;
pub mod datasets;
pub mod hetero;
pub mod pointcloud;
pub mod pruned;

/// Common imports.
pub mod prelude {
    pub use crate::attention::{band_mask, butterfly_mask, AttentionConfig};
    pub use crate::datasets::{graph_by_name, table1_graphs, DegreeFamily, GraphSpec};
    pub use crate::hetero::{hetero_by_name, table2_graphs, HeteroSpec};
    pub use crate::pointcloud::{figure23_channels, VoxelCloud};
    pub use crate::pruned::{
        bert_layer_shapes, block_pruned_weight, figure17_densities, figure19_densities,
        movement_pruned_weight,
    };
}
