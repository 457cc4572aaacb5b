//! CPU–GPU interconnect and page-migration engine description.

use ghr_types::Bandwidth;

/// The coherent chip-to-chip interconnect (NVLink-C2C on GH200).
///
/// NVLink-C2C provides 900 GB/s aggregate (450 GB/s per direction) of raw
/// bandwidth. What a *single streaming kernel* observes is lower: published
/// GH200 measurements place GPU streaming reads of CPU-resident system
/// memory around 350–420 GB/s, and CPU reads of GPU-resident (HBM) memory
/// substantially lower because Grace cores cannot keep enough requests in
/// flight against the longer cross-chip latency.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Raw per-direction link bandwidth.
    pub raw_per_direction: Bandwidth,
    /// Sustained bandwidth of GPU streaming reads from CPU-resident memory.
    pub gpu_reads_cpu_mem: Bandwidth,
    /// Sustained bandwidth of CPU streaming reads from GPU-resident memory.
    pub cpu_reads_gpu_mem: Bandwidth,
    /// Page-migration engine characteristics.
    pub migration: MigrationSpec,
}

/// The page-migration engine.
///
/// On GH200 under `-gpu=mem:unified`, pages are placed by first touch and
/// later moved by *access-counter-driven* migration: the GPU's memory
/// system counts remote accesses and asks the driver to migrate hot pages.
/// This path is driver-mediated and far slower than the raw link: effective
/// migration throughput for a streaming first pass is tens of GB/s, and the
/// migration of a 4 GB array is spread over the first several kernel
/// repetitions. These two constants are fitted against the paper's
/// Section IV observations (see `ghr-core::corun` and EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationSpec {
    /// Effective throughput of access-counter-driven CPU→GPU migration.
    pub counter_migration_bw: Bandwidth,
    /// Effective throughput of fault-driven GPU→CPU migration (not exercised
    /// by the paper's workload — Grace reads HBM coherently instead of
    /// faulting — but needed for completeness and extensions).
    pub fault_migration_bw: Bandwidth,
    /// Fraction of remote GPU accesses that must be observed before the
    /// driver migrates a page (models the counter threshold: during the
    /// first repetitions the GPU reads remotely, then pages move).
    pub counter_threshold_passes: f64,
}

impl LinkSpec {
    /// NVLink-C2C as in a GH200 node.
    pub fn nvlink_c2c() -> Self {
        LinkSpec {
            name: "NVLink-C2C".to_string(),
            raw_per_direction: Bandwidth::gbps(450.0),
            gpu_reads_cpu_mem: Bandwidth::gbps(380.0),
            // Grace streaming reads of HBM over C2C. Fitted: the paper's
            // CPU-only A1/A2 ratio of 1.367 pins this at 450 / 1.367.
            cpu_reads_gpu_mem: Bandwidth::gbps(329.0),
            migration: MigrationSpec {
                // Driver-mediated access-counter migration. Fitted: pins
                // the paper's optimized-A1 peak co-run speedup (2.253 over
                // GPU-only) and the Fig. 3 maximum (~10x at p = 0).
                counter_migration_bw: Bandwidth::gbps(12.0),
                fault_migration_bw: Bandwidth::gbps(12.0),
                counter_threshold_passes: 1.0,
            },
        }
    }

    /// Basic internal-consistency check.
    pub fn validate(&self) -> Result<(), String> {
        for (name, bw) in [
            ("raw_per_direction", self.raw_per_direction),
            ("gpu_reads_cpu_mem", self.gpu_reads_cpu_mem),
            ("cpu_reads_gpu_mem", self.cpu_reads_gpu_mem),
            ("counter_migration_bw", self.migration.counter_migration_bw),
            ("fault_migration_bw", self.migration.fault_migration_bw),
        ] {
            if bw.bytes_per_sec() <= 0.0 {
                return Err(format!("{name} must be positive"));
            }
        }
        if self.gpu_reads_cpu_mem > self.raw_per_direction {
            return Err("gpu_reads_cpu_mem cannot exceed the raw link rate".into());
        }
        if self.cpu_reads_gpu_mem > self.raw_per_direction {
            return Err("cpu_reads_gpu_mem cannot exceed the raw link rate".into());
        }
        if self.migration.counter_threshold_passes < 0.0 {
            return Err("counter_threshold_passes must be non-negative".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2c_preset_is_consistent() {
        let l = LinkSpec::nvlink_c2c();
        assert!(l.validate().is_ok());
        // Remote streaming is always slower than the raw link.
        assert!(l.gpu_reads_cpu_mem < l.raw_per_direction);
        assert!(l.cpu_reads_gpu_mem < l.gpu_reads_cpu_mem);
        // Migration is much slower than direct remote access — the heart of
        // the paper's A1 story.
        assert!(l.migration.counter_migration_bw < l.cpu_reads_gpu_mem);
    }

    #[test]
    fn validation_rejects_overspeed_remote_paths() {
        let mut l = LinkSpec::nvlink_c2c();
        l.gpu_reads_cpu_mem = Bandwidth::gbps(10_000.0);
        assert!(l.validate().is_err());
    }

    #[test]
    fn validation_rejects_nonpositive_bw() {
        let mut l = LinkSpec::nvlink_c2c();
        l.migration.counter_migration_bw = Bandwidth::ZERO;
        assert!(l.validate().is_err());
    }
}
