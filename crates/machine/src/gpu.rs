//! GPU hardware description.

use ghr_types::{Bandwidth, Bytes, Frequency};

/// Static description of an offload-target GPU.
///
/// The `h100_sxm_gh200` preset reflects the paper's device: the H100 in a
/// GH200 node with 96 GB HBM3 and a measured peak memory bandwidth of
/// 4022.7 GB/s (the paper's efficiency denominator).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// SM core clock.
    pub clock: Frequency,
    /// Warp width in threads.
    pub warp_size: u32,
    /// Maximum resident threads per SM (occupancy ceiling).
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks (OpenMP teams) per SM.
    pub max_teams_per_sm: u32,
    /// Warp instructions issued per SM per cycle (scheduler count).
    pub issue_width: u32,
    /// Device memory capacity.
    pub hbm_capacity: Bytes,
    /// Peak device memory bandwidth — the paper's 4022.7 GB/s.
    pub hbm_peak_bw: Bandwidth,
    /// Average device memory load-to-use latency in nanoseconds; together
    /// with the bytes a grid can keep in flight this sets the
    /// bandwidth-saturation knee of Fig. 1 (Little's law).
    pub hbm_latency_ns: f64,
    /// Maximum grid dimension the runtime will launch. NVHPC's OpenMP
    /// runtime caps the default grid at `0xFFFFFF` = 16 777 215 teams, the
    /// value profiled in the paper for case C2.
    pub max_grid_size: u64,
}

impl GpuSpec {
    /// The H100 component of a GH200 node as used in the paper.
    pub fn h100_sxm_gh200() -> Self {
        GpuSpec {
            name: "NVIDIA H100 (GH200, 96 GB HBM3)".to_string(),
            sm_count: 132,
            clock: Frequency::ghz(1.98),
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_teams_per_sm: 32,
            issue_width: 4,
            hbm_capacity: Bytes::gib(96),
            hbm_peak_bw: Bandwidth::gbps(4022.7),
            hbm_latency_ns: 650.0,
            max_grid_size: 0xFF_FFFF,
        }
    }

    /// Total threads resident on the device when fully occupied.
    pub fn max_resident_threads(&self) -> u64 {
        self.sm_count as u64 * self.max_threads_per_sm as u64
    }

    /// How many teams of `threads_per_team` threads fit on one SM,
    /// limited by both the thread and the team residency ceilings.
    ///
    /// `threads_per_team` of zero is rejected by the launch validation layer
    /// before this is called; this function clamps to at least 1 team so the
    /// models never divide by zero.
    pub fn teams_resident_per_sm(&self, threads_per_team: u32) -> u32 {
        let by_threads = self.max_threads_per_sm / threads_per_team.max(1);
        by_threads.min(self.max_teams_per_sm).max(1)
    }

    /// Basic internal-consistency check used by deserialization call sites.
    pub fn validate(&self) -> Result<(), String> {
        if self.sm_count == 0 {
            return Err("sm_count must be > 0".into());
        }
        if self.warp_size == 0 || !self.warp_size.is_power_of_two() {
            return Err("warp_size must be a power of two > 0".into());
        }
        if self.max_threads_per_sm < self.warp_size {
            return Err("max_threads_per_sm must hold at least one warp".into());
        }
        if self.hbm_peak_bw.bytes_per_sec() <= 0.0 {
            return Err("hbm_peak_bw must be positive".into());
        }
        if self.hbm_latency_ns <= 0.0 {
            return Err("hbm_latency_ns must be positive".into());
        }
        if self.max_grid_size == 0 {
            return Err("max_grid_size must be > 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gh200_preset_matches_paper() {
        let g = GpuSpec::h100_sxm_gh200();
        assert!((g.hbm_peak_bw.as_gbps() - 4022.7).abs() < 1e-9);
        assert_eq!(g.hbm_capacity, Bytes::gib(96));
        assert_eq!(g.max_grid_size, 16_777_215);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn residency_limits() {
        let g = GpuSpec::h100_sxm_gh200();
        // 2048 threads / 128 per team = 16 teams, below the 32-team cap.
        assert_eq!(g.teams_resident_per_sm(128), 16);
        // 2048 / 256 = 8.
        assert_eq!(g.teams_resident_per_sm(256), 8);
        // Tiny teams hit the team cap, not the thread cap.
        assert_eq!(g.teams_resident_per_sm(32), 32);
        // Oversized teams still occupy one slot.
        assert_eq!(g.teams_resident_per_sm(4096), 1);
    }

    #[test]
    fn validation_rejects_broken_specs() {
        let mut g = GpuSpec::h100_sxm_gh200();
        g.sm_count = 0;
        assert!(g.validate().is_err());

        let mut g = GpuSpec::h100_sxm_gh200();
        g.warp_size = 31;
        assert!(g.validate().is_err());

        let mut g = GpuSpec::h100_sxm_gh200();
        g.hbm_latency_ns = 0.0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn max_resident_threads() {
        let g = GpuSpec::h100_sxm_gh200();
        assert_eq!(g.max_resident_threads(), 132 * 2048);
    }
}
