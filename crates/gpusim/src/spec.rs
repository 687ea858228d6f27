//! GPU hardware specifications for the performance model.
//!
//! Substitution note (see the README intro): the paper evaluates on real NVIDIA
//! V100 and RTX 3070 boards; this reproduction models them with published
//! architectural parameters. Absolute times are estimates — the harness
//! reports *relative* numbers (speedups vs a baseline simulated on the same
//! model), which is what the paper's figures plot.

/// Architectural parameters of a simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum concurrently resident thread blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// FP32 FMA throughput per SM per cycle (counting 2 FLOPs per FMA).
    pub cuda_flops_per_sm_per_cycle: f64,
    /// FP16 tensor-core throughput per SM per cycle.
    pub tensor_flops_per_sm_per_cycle: f64,
    /// L1 data cache / shared memory size per SM in bytes.
    pub l1_bytes: usize,
    /// Unified L2 size in bytes.
    pub l2_bytes: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Aggregate L2 bandwidth in GB/s.
    pub l2_gbps: f64,
    /// Aggregate L1/shared bandwidth in GB/s.
    pub l1_gbps: f64,
    /// Fixed kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Fixed per-block scheduling overhead in microseconds.
    pub block_overhead_us: f64,
    /// Shared memory capacity per SM in bytes.
    pub shared_bytes_per_sm: usize,
}

impl GpuSpec {
    /// Total FP32 throughput in FLOP/s.
    #[must_use]
    pub fn cuda_flops(&self) -> f64 {
        self.cuda_flops_per_sm_per_cycle * self.num_sms as f64 * self.clock_ghz * 1e9
    }

    /// Total tensor-core throughput in FLOP/s.
    #[must_use]
    pub fn tensor_flops(&self) -> f64 {
        self.tensor_flops_per_sm_per_cycle * self.num_sms as f64 * self.clock_ghz * 1e9
    }

    /// Stable identifier for caching decisions keyed by device: a tuned
    /// configuration is only valid for the GPU it was searched on.
    #[must_use]
    pub fn device_id(&self) -> &'static str {
        self.name
    }

    /// NVIDIA Tesla V100 (Volta, SXM2 16 GB).
    #[must_use]
    pub fn v100() -> GpuSpec {
        GpuSpec {
            name: "V100",
            num_sms: 80,
            max_blocks_per_sm: 16,
            clock_ghz: 1.38,
            // 14 TFLOPS FP32 → 14e12 / (80 · 1.38e9) ≈ 127.
            cuda_flops_per_sm_per_cycle: 127.0,
            // 112 TFLOPS FP16 tensor.
            tensor_flops_per_sm_per_cycle: 1014.0,
            l1_bytes: 128 * 1024,
            l2_bytes: 6 * 1024 * 1024,
            line_bytes: 128,
            l1_assoc: 4,
            l2_assoc: 16,
            dram_gbps: 900.0,
            l2_gbps: 2500.0,
            l1_gbps: 12000.0,
            launch_overhead_us: 5.0,
            block_overhead_us: 0.002,
            shared_bytes_per_sm: 96 * 1024,
        }
    }

    /// NVIDIA A100 (Ampere, SXM4 40 GB) — the data-center Ampere part the
    /// artifact also supports ("Other NVIDIA GPUs with Turing, Ampere, or
    /// Hopper architecture should also work", §B.3.2).
    #[must_use]
    pub fn a100() -> GpuSpec {
        GpuSpec {
            name: "A100",
            num_sms: 108,
            max_blocks_per_sm: 16,
            clock_ghz: 1.41,
            // 19.5 TFLOPS FP32 → 19.5e12 / (108 · 1.41e9) ≈ 128.
            cuda_flops_per_sm_per_cycle: 128.0,
            // 312 TFLOPS FP16 tensor (dense).
            tensor_flops_per_sm_per_cycle: 2049.0,
            l1_bytes: 192 * 1024,
            l2_bytes: 40 * 1024 * 1024,
            line_bytes: 128,
            l1_assoc: 4,
            l2_assoc: 16,
            dram_gbps: 1555.0,
            l2_gbps: 4500.0,
            l1_gbps: 19000.0,
            launch_overhead_us: 4.0,
            block_overhead_us: 0.002,
            shared_bytes_per_sm: 164 * 1024,
        }
    }

    /// NVIDIA GeForce RTX 3070 (Ampere, 8 GB GDDR6).
    #[must_use]
    pub fn rtx3070() -> GpuSpec {
        GpuSpec {
            name: "RTX3070",
            num_sms: 46,
            max_blocks_per_sm: 16,
            clock_ghz: 1.73,
            // 20.3 TFLOPS FP32 → 20.3e12 / (46 · 1.73e9) ≈ 255.
            cuda_flops_per_sm_per_cycle: 255.0,
            // 81 TFLOPS FP16 tensor (dense).
            tensor_flops_per_sm_per_cycle: 1018.0,
            l1_bytes: 128 * 1024,
            l2_bytes: 4 * 1024 * 1024,
            line_bytes: 128,
            l1_assoc: 4,
            l2_assoc: 16,
            dram_gbps: 448.0,
            l2_gbps: 1600.0,
            l1_gbps: 9000.0,
            launch_overhead_us: 4.0,
            block_overhead_us: 0.002,
            shared_bytes_per_sm: 100 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_throughput_matches_datasheet() {
        let v = GpuSpec::v100();
        let tflops = v.cuda_flops() / 1e12;
        assert!((13.5..15.0).contains(&tflops), "{tflops}");
        let tensor = v.tensor_flops() / 1e12;
        assert!((105.0..120.0).contains(&tensor), "{tensor}");
    }

    #[test]
    fn a100_outclasses_v100() {
        let a = GpuSpec::a100();
        let v = GpuSpec::v100();
        assert!(a.tensor_flops() > 2.0 * v.tensor_flops());
        assert!(a.dram_gbps > v.dram_gbps);
        assert!(a.l2_bytes > v.l2_bytes);
    }

    #[test]
    fn rtx3070_is_bandwidth_poorer_than_v100() {
        let v = GpuSpec::v100();
        let r = GpuSpec::rtx3070();
        assert!(r.dram_gbps < v.dram_gbps);
        assert!(r.l2_bytes < v.l2_bytes);
        assert!(r.num_sms < v.num_sms);
    }
}
