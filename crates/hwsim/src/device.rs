//! Device specifications (paper Table 1) plus mechanism constants.

use serde::{Deserialize, Serialize};

/// The four silicon families the paper characterizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Server-class CPU (Broadwell Xeon).
    Cpu,
    /// NVIDIA V100 GPU.
    Gpu,
    /// Google TPUv3.
    Tpu,
    /// Graphcore GC200 IPU.
    Ipu,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Cpu => write!(f, "CPU"),
            DeviceKind::Gpu => write!(f, "GPU"),
            DeviceKind::Tpu => write!(f, "TPU"),
            DeviceKind::Ipu => write!(f, "IPU"),
        }
    }
}

/// One chip's performance model.
///
/// Columns marked (T1) come from the paper's Table 1; the rest are
/// mechanism constants calibrated against the paper's reported ratios
/// (printed side by side by `mprec-bench`'s `calibrate_hw` bin).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Chip name.
    pub name: String,
    /// Silicon family.
    pub kind: DeviceKind,
    /// Effective dense-math peak in GFLOP/s (derated from theoretical).
    pub peak_gflops: f64,
    /// Off-chip memory bandwidth in GB/s (T1).
    pub dram_bw_gb: f64,
    /// Off-chip memory capacity in bytes (T1).
    pub dram_cap_bytes: u64,
    /// On-chip SRAM / last-level cache in bytes (T1 "cache sizes").
    pub sram_bytes: u64,
    /// On-chip SRAM bandwidth in GB/s.
    pub sram_bw_gb: f64,
    /// Thermal design power per chip in watts (T1).
    pub tdp_w: f64,
    /// Fraction of DRAM bandwidth achieved by random row gathers.
    pub gather_eff: f64,
    /// Per-operator dispatch overhead in microseconds (kernel launch).
    pub op_overhead_us: f64,
    /// Fixed host-offload cost per query batch in microseconds.
    pub offload_fixed_us: f64,
    /// Host link bandwidth in GB/s (0 = host-resident, no transfer).
    pub link_bw_gb: f64,
    /// FLOPs at which a single op reaches ~50% utilization (utilization
    /// knee: small ops cannot fill wide machines).
    pub flops_knee: f64,
}

impl DeviceSpec {
    /// Intel Broadwell Xeon (12 cores @ 2.2 GHz, 76.8 GB/s, 264 GB, 105 W).
    pub fn broadwell_cpu() -> Self {
        DeviceSpec {
            name: "Broadwell Xeon".into(),
            kind: DeviceKind::Cpu,
            // 12 cores x 2.2 GHz x 32 FLOP/cycle (AVX2 FMA) is ~845 GF/s of
            // silicon; the *framework-effective* rate of the paper's eager
            // PyTorch artifact is far lower (threading, dispatch, fp32
            // temporaries). Calibrated against Fig. 17's table-CPU
            // latency/violation behaviour.
            peak_gflops: 70.0,
            dram_bw_gb: 76.8,
            dram_cap_bytes: 264 * GB,
            sram_bytes: 30 * MB,
            sram_bw_gb: 400.0,
            tdp_w: 105.0,
            gather_eff: 0.15,
            op_overhead_us: 20.0,
            offload_fixed_us: 0.0,
            link_bw_gb: 0.0,
            flops_knee: 0.05e6,
        }
    }

    /// NVIDIA V100 (5120 cores @ 1.2 GHz, HBM2 900 GB/s, 32 GB, 250 W).
    pub fn v100_gpu() -> Self {
        DeviceSpec {
            name: "V100".into(),
            kind: DeviceKind::Gpu,
            // 12.3 TF/s of fp32 silicon; framework-effective rate for the
            // narrow (dim 16-512) eager-mode GEMMs DLRM issues.
            peak_gflops: 3000.0,
            dram_bw_gb: 900.0,
            dram_cap_bytes: 32 * GB,
            sram_bytes: 6 * MB, // L2
            sram_bw_gb: 3000.0,
            tdp_w: 250.0,
            gather_eff: 0.35,
            op_overhead_us: 25.0,
            offload_fixed_us: 300.0,
            link_bw_gb: 12.0, // PCIe gen3 x16 effective
            flops_knee: 25.0e6,
        }
    }

    /// One TPUv3 core (half a chip): 16 GB HBM, ~450 GB/s, bf16 MXU.
    pub fn tpu_v3_core() -> Self {
        DeviceSpec {
            name: "TPUv3 core".into(),
            kind: DeviceKind::Tpu,
            // 61 TFLOP/s bf16 theoretical per core; the framework-effective
            // rate for dim-16 embedding models through PyTorch/XLA is
            // orders lower (MXU underfill, padding, host round trips).
            // Calibrated to Fig. 7's TPU-2 3.12x / TPU-8 11.13x.
            peak_gflops: 105.0,
            dram_bw_gb: 450.0,
            dram_cap_bytes: 16 * GB,
            sram_bytes: 16 * MB,
            sram_bw_gb: 6000.0,
            tdp_w: 225.0, // half of the 450 W chip
            // TPUEmbedding layers shard + pipeline lookups (O1).
            gather_eff: 0.55,
            op_overhead_us: 3.0,
            offload_fixed_us: 90.0,
            link_bw_gb: 8.0,
            flops_knee: 1.0e6,
        }
    }

    /// One Graphcore GC200 IPU: 900 MB scratchpad SRAM @ ~47 TB/s,
    /// streaming DRAM at 20 GB/s (per M2000 board), 150 W (600 W / 4).
    pub fn ipu_gc200() -> Self {
        DeviceSpec {
            name: "GC200 IPU".into(),
            kind: DeviceKind::Ipu,
            // ~62 TFLOP/s fp32 theoretical; framework-effective rate via
            // poptorch with per-op exchanges, calibrated to Fig. 7's
            // IPU-16 16.65x DHE speedup.
            peak_gflops: 800.0,
            // Off-chip "Streaming Memory" goes through the host: slow.
            dram_bw_gb: 20.0,
            dram_cap_bytes: 64 * GB, // 256 GB per 4-chip board
            sram_bytes: 900 * MB,
            sram_bw_gb: 47_500.0,
            tdp_w: 150.0,
            gather_eff: 0.25,
            op_overhead_us: 0.7,
            offload_fixed_us: 25.0,
            link_bw_gb: 8.0,
            flops_knee: 2.0e6,
        }
    }

    /// Utilization of a single op with `flops` work: ramps from ~0 to 1
    /// around [`DeviceSpec::flops_knee`].
    pub fn utilization(&self, flops: f64) -> f64 {
        flops / (flops + self.flops_knee)
    }
}

/// Decimal units, matching how Table 1 quotes capacities.
pub(crate) const GB: u64 = 1_000_000_000;
pub(crate) const MB: u64 = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_are_encoded() {
        let cpu = DeviceSpec::broadwell_cpu();
        assert_eq!(cpu.dram_bw_gb, 76.8);
        assert_eq!(cpu.dram_cap_bytes, 264 * GB);
        assert_eq!(cpu.tdp_w, 105.0);

        let gpu = DeviceSpec::v100_gpu();
        assert_eq!(gpu.dram_bw_gb, 900.0);
        assert_eq!(gpu.dram_cap_bytes, 32 * GB);
        assert_eq!(gpu.tdp_w, 250.0);

        let ipu = DeviceSpec::ipu_gc200();
        assert_eq!(ipu.sram_bytes, 900 * MB);
        assert_eq!(ipu.dram_bw_gb, 20.0);
    }

    #[test]
    fn tpu_chip_tdp_is_1_8x_v100() {
        // Paper O3: "its single chip TDP is 1.8x higher than that of V100's".
        let tpu_chip = DeviceSpec::tpu_v3_core().tdp_w * 2.0;
        let v100 = DeviceSpec::v100_gpu().tdp_w;
        assert!((tpu_chip / v100 - 1.8).abs() < 0.01);
    }

    #[test]
    fn utilization_ramps_monotonically() {
        let gpu = DeviceSpec::v100_gpu();
        assert!(gpu.utilization(1e3) < gpu.utilization(1e6));
        assert!(gpu.utilization(1e6) < gpu.utilization(1e9));
        assert!(gpu.utilization(1e12) > 0.99);
    }

    #[test]
    fn cpu_saturates_much_earlier_than_gpu() {
        let cpu = DeviceSpec::broadwell_cpu();
        let gpu = DeviceSpec::v100_gpu();
        let small_op = 1.0e6; // 1 MFLOP
        assert!(cpu.utilization(small_op) > 0.9);
        assert!(gpu.utilization(small_op) < 0.1);
    }
}
