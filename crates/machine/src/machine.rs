//! The whole-node configuration.

use crate::{CpuSpec, GpuSpec, LinkSpec};
use ghr_types::Bytes;

/// A complete node: host CPU, target GPU, interconnect, and the page size
/// used by the unified-memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Host CPU description.
    pub cpu: CpuSpec,
    /// Target GPU description.
    pub gpu: GpuSpec,
    /// CPU–GPU interconnect description.
    pub link: LinkSpec,
    /// Granularity of unified-memory placement and migration. GH200 Linux
    /// systems run 64 KiB base pages, which is also the granularity the
    /// driver migrates at for system-allocated memory.
    pub page_size: Bytes,
}

impl MachineConfig {
    /// The paper's testbed: a GH200 Grace-Hopper node (RHEL 9.3, CUDA 12.4,
    /// driver 550.54.15 in the paper; only the hardware shape matters here).
    pub fn gh200() -> Self {
        MachineConfig {
            cpu: CpuSpec::grace(),
            gpu: GpuSpec::h100_sxm_gh200(),
            link: LinkSpec::nvlink_c2c(),
            page_size: Bytes::kib(64),
        }
    }

    /// A conventional discrete-GPU node: x86 host, H100-PCIe-class GPU,
    /// PCIe Gen5 x16 link, fault-driven (not coherent) unified memory.
    /// The counterpoint to [`MachineConfig::gh200`]: same GPU silicon
    /// family, but the paper's co-execution story collapses without the
    /// coherent high-bandwidth interconnect.
    pub fn x86_pcie() -> Self {
        use crate::{CpuSpec, GpuSpec, LinkSpec, MigrationSpec};
        use ghr_types::{Bandwidth, Frequency};
        MachineConfig {
            cpu: CpuSpec {
                name: "x86 server (64 cores, 8-channel DDR5)".to_string(),
                cores: 64,
                clock: Frequency::ghz(2.8),
                simd_width_bytes: 32,
                simd_pipes: 2,
                mem_capacity: Bytes::gib(512),
                mem_stream_bw: Bandwidth::gbps(300.0),
                per_core_stream_bw: Bandwidth::gbps(10.0),
            },
            gpu: GpuSpec {
                name: "H100 PCIe (80 GB HBM2e)".to_string(),
                sm_count: 114,
                clock: Frequency::ghz(1.75),
                warp_size: 32,
                max_threads_per_sm: 2048,
                max_teams_per_sm: 32,
                issue_width: 4,
                hbm_capacity: Bytes::gib(80),
                hbm_peak_bw: Bandwidth::gbps(2000.0),
                hbm_latency_ns: 700.0,
                max_grid_size: 0xFF_FFFF,
            },
            link: LinkSpec {
                name: "PCIe Gen5 x16".to_string(),
                raw_per_direction: Bandwidth::gbps(64.0),
                gpu_reads_cpu_mem: Bandwidth::gbps(50.0),
                // Uncached mapped reads over the BAR: dreadful.
                cpu_reads_gpu_mem: Bandwidth::gbps(3.0),
                migration: MigrationSpec {
                    counter_migration_bw: Bandwidth::gbps(20.0),
                    fault_migration_bw: Bandwidth::gbps(10.0),
                    counter_threshold_passes: 1.0,
                },
            },
            page_size: Bytes::kib(4),
        }
    }

    /// Validate all components together.
    pub fn validate(&self) -> Result<(), String> {
        self.cpu.validate().map_err(|e| format!("cpu: {e}"))?;
        self.gpu.validate().map_err(|e| format!("gpu: {e}"))?;
        self.link.validate().map_err(|e| format!("link: {e}"))?;
        if self.page_size.0 == 0 || !self.page_size.0.is_power_of_two() {
            return Err("page_size must be a power of two > 0".into());
        }
        Ok(())
    }

    /// Number of pages needed to back `bytes` of memory.
    pub fn pages_for(&self, bytes: Bytes) -> u64 {
        bytes.0.div_ceil(self.page_size.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gh200_preset_validates() {
        assert!(MachineConfig::gh200().validate().is_ok());
    }

    #[test]
    fn pages_for_rounds_up() {
        let m = MachineConfig::gh200();
        assert_eq!(m.pages_for(Bytes::ZERO), 0);
        assert_eq!(m.pages_for(Bytes(1)), 1);
        assert_eq!(m.pages_for(Bytes::kib(64)), 1);
        assert_eq!(m.pages_for(Bytes(Bytes::kib(64).0 + 1)), 2);
        // The paper's 4 GB array: 4_194_304_000 B / 64 KiB = 64000 pages.
        assert_eq!(m.pages_for(Bytes(4_194_304_000)), 64_000);
    }

    #[test]
    fn x86_pcie_preset_validates_and_contrasts_with_gh200() {
        let pcie = MachineConfig::x86_pcie();
        assert!(pcie.validate().is_ok());
        let gh = MachineConfig::gh200();
        // The contrasts that matter for the paper's story.
        assert!(pcie.link.raw_per_direction.as_gbps() < gh.link.raw_per_direction.as_gbps() / 5.0);
        assert!(pcie.link.cpu_reads_gpu_mem.as_gbps() < 10.0);
        assert!(pcie.gpu.hbm_peak_bw < gh.gpu.hbm_peak_bw);
    }

    #[test]
    fn validation_rejects_bad_page_size() {
        let mut m = MachineConfig::gh200();
        m.page_size = Bytes(0);
        assert!(m.validate().is_err());
        m.page_size = Bytes(3000);
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_propagates_component_errors() {
        let mut m = MachineConfig::gh200();
        m.cpu.cores = 0;
        let err = m.validate().unwrap_err();
        assert!(err.starts_with("cpu:"), "{err}");
    }
}
