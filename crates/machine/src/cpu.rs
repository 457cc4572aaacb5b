//! CPU hardware description.

use ghr_types::{Bandwidth, Bytes, Frequency};

/// Static description of the host CPU.
///
/// The `grace` preset reflects the paper's host: a 72-core Arm Neoverse V2
/// Grace CPU with 480 GB of LPDDR5X. The LPDDR5X subsystem has ~500 GB/s of
/// theoretical bandwidth; sustained STREAM-style read bandwidth on Grace is
/// commonly measured around 450 GB/s, which is what a streaming sum
/// reduction sees.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Physical core count.
    pub cores: u32,
    /// Nominal core clock.
    pub clock: Frequency,
    /// SIMD register width in bytes (Neoverse V2: 4x128-bit SVE2 pipes, so
    /// 16 bytes per operation with 4 pipes — expressed here as the width of
    /// one vector operation).
    pub simd_width_bytes: u32,
    /// Number of SIMD pipes able to issue per cycle.
    pub simd_pipes: u32,
    /// Host memory capacity.
    pub mem_capacity: Bytes,
    /// Sustained aggregate streaming-read bandwidth of host memory.
    pub mem_stream_bw: Bandwidth,
    /// Sustained streaming-read bandwidth achievable by one core (cores
    /// saturate the memory subsystem well before all 72 participate).
    pub per_core_stream_bw: Bandwidth,
}

impl CpuSpec {
    /// The Grace component of a GH200 node as used in the paper.
    pub fn grace() -> Self {
        CpuSpec {
            name: "NVIDIA Grace (72-core Neoverse V2, 480 GB LPDDR5X)".to_string(),
            cores: 72,
            clock: Frequency::ghz(3.2),
            simd_width_bytes: 16,
            simd_pipes: 4,
            mem_capacity: Bytes::gib(480),
            mem_stream_bw: Bandwidth::gbps(450.0),
            per_core_stream_bw: Bandwidth::gbps(12.0),
        }
    }

    /// Aggregate streaming bandwidth achievable by `cores` active cores:
    /// linear in the core count until the memory subsystem saturates.
    pub fn stream_bw(&self, cores: u32) -> Bandwidth {
        let linear = self.per_core_stream_bw * cores.min(self.cores) as f64;
        linear.min(self.mem_stream_bw)
    }

    /// Basic internal-consistency check.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be > 0".into());
        }
        if self.simd_width_bytes == 0 || !self.simd_width_bytes.is_power_of_two() {
            return Err("simd_width_bytes must be a power of two > 0".into());
        }
        if self.mem_stream_bw.bytes_per_sec() <= 0.0 {
            return Err("mem_stream_bw must be positive".into());
        }
        if self.per_core_stream_bw.bytes_per_sec() <= 0.0 {
            return Err("per_core_stream_bw must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grace_preset_matches_paper() {
        let c = CpuSpec::grace();
        assert_eq!(c.cores, 72);
        assert_eq!(c.mem_capacity, Bytes::gib(480));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn stream_bw_scales_then_saturates() {
        let c = CpuSpec::grace();
        let one = c.stream_bw(1);
        let eight = c.stream_bw(8);
        let all = c.stream_bw(72);
        assert!((eight.as_gbps() - 8.0 * one.as_gbps()).abs() < 1e-9);
        assert!(all.as_gbps() <= c.mem_stream_bw.as_gbps() + 1e-9);
        // 72 cores x 12 GB/s = 864 GB/s of demand against 450 GB/s supply:
        // fully saturated.
        assert!((all.as_gbps() - 450.0).abs() < 1e-9);
    }

    #[test]
    fn stream_bw_clamps_core_count() {
        let c = CpuSpec::grace();
        assert_eq!(c.stream_bw(100), c.stream_bw(72));
    }

    #[test]
    fn validation_rejects_broken_specs() {
        let mut c = CpuSpec::grace();
        c.cores = 0;
        assert!(c.validate().is_err());
        let mut c = CpuSpec::grace();
        c.simd_width_bytes = 12;
        assert!(c.validate().is_err());
    }
}
