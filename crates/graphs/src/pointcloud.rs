//! Synthetic LiDAR-like point clouds and sparse-convolution kernel maps
//! (§4.4.2).
//!
//! Substitution (README intro and §Crate map, `crates/graphs`): the paper benchmarks MinkowskiNet layers on
//! SemanticKITTI scans. Here a scan is synthesized as a ground plane plus
//! scattered object clusters, voxelized, and turned into the per-offset
//! in→out site maps (the "kernel map") exactly as MinkowskiNet/TorchSparse
//! build them for a 3×3×3 submanifold convolution.

use rand::Rng;
use sparsetir_smat::gen;
use std::collections::HashMap;

/// A voxelized point cloud: unique integer voxel coordinates.
#[derive(Debug, Clone)]
pub struct VoxelCloud {
    /// Sorted unique voxel coordinates.
    pub voxels: Vec<(i32, i32, i32)>,
}

impl VoxelCloud {
    /// Number of active sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.voxels.len()
    }

    /// True when no voxels are active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.voxels.is_empty()
    }

    /// Generate a synthetic outdoor scan: a ground plane patch plus
    /// `clusters` box-shaped objects, voxelized at integer resolution.
    #[must_use]
    pub fn synthetic(target_sites: usize, clusters: usize, seed: u64) -> VoxelCloud {
        let mut rng = gen::rng(seed);
        let mut set: HashMap<(i32, i32, i32), ()> = HashMap::new();
        let ground_side = ((target_sites as f64 * 0.7).sqrt() as i32).max(4);
        // Ground plane with gentle height variation.
        for x in 0..ground_side {
            for y in 0..ground_side {
                let z = ((x as f64 * 0.05).sin() * 2.0) as i32;
                set.insert((x, y, z), ());
            }
        }
        // Object clusters.
        let per_cluster = (target_sites.saturating_sub(set.len()) / clusters.max(1)).max(1);
        for _ in 0..clusters {
            let cx = rng.gen_range(0..ground_side);
            let cy = rng.gen_range(0..ground_side);
            let side = ((per_cluster as f64).cbrt() as i32).max(1);
            for dx in 0..side {
                for dy in 0..side {
                    for dz in 1..=side {
                        set.insert((cx + dx, cy + dy, dz), ());
                    }
                }
            }
        }
        let mut voxels: Vec<(i32, i32, i32)> = set.into_keys().collect();
        voxels.sort_unstable();
        VoxelCloud { voxels }
    }

    /// Build the 3×3×3 submanifold kernel maps: for each of the 27
    /// relative offsets, the `(out_site, in_site)` pairs where both
    /// voxels are active. The center offset is the identity map.
    #[must_use]
    pub fn kernel_maps(&self) -> Vec<Vec<(u32, u32)>> {
        let index: HashMap<(i32, i32, i32), u32> =
            self.voxels.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
        let mut maps = Vec::with_capacity(27);
        for dx in -1i32..=1 {
            for dy in -1i32..=1 {
                for dz in -1i32..=1 {
                    let mut pairs = Vec::new();
                    for (out_idx, &(x, y, z)) in self.voxels.iter().enumerate() {
                        if let Some(&in_idx) = index.get(&(x + dx, y + dy, z + dz)) {
                            pairs.push((out_idx as u32, in_idx));
                        }
                    }
                    maps.push(pairs);
                }
            }
        }
        maps
    }
}

/// MinkowskiNet channel configurations swept in Figure 23, as
/// `(C_in, C_out)` with √(C_in·C_out) ∈ {32, 64, 128, 256}.
#[must_use]
pub fn figure23_channels() -> Vec<(usize, usize)> {
    vec![(32, 32), (64, 64), (128, 128), (256, 256)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_cloud_hits_target_roughly() {
        let c = VoxelCloud::synthetic(5000, 10, 3);
        assert!(c.len() > 2500 && c.len() < 10000, "{}", c.len());
    }

    #[test]
    fn center_offset_is_identity() {
        let c = VoxelCloud::synthetic(500, 4, 5);
        let maps = c.kernel_maps();
        assert_eq!(maps.len(), 27);
        let center = &maps[13]; // (0,0,0) in -1..=1 lexicographic order
        assert_eq!(center.len(), c.len());
        assert!(center.iter().all(|&(o, i)| o == i));
    }

    #[test]
    fn neighbor_offsets_are_partial() {
        let c = VoxelCloud::synthetic(500, 4, 7);
        let maps = c.kernel_maps();
        for (k, m) in maps.iter().enumerate() {
            if k != 13 {
                assert!(m.len() < c.len(), "offset {k} should be partial");
            }
        }
        // Ground-plane continuity keeps in-plane neighbours common.
        let total: usize = maps.iter().map(Vec::len).sum();
        assert!(total > 2 * c.len(), "total pairs {total}");
    }

    #[test]
    fn deterministic_generation() {
        let a = VoxelCloud::synthetic(300, 3, 11);
        let b = VoxelCloud::synthetic(300, 3, 11);
        assert_eq!(a.voxels, b.voxels);
    }
}
