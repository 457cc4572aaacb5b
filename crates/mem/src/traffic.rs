//! Traffic classification returned by simulated memory accesses.

use ghr_types::Bytes;

/// Classification of the bytes touched by one streaming access.
///
/// The caller prices each class with the appropriate bandwidth:
/// local bytes at the device's own memory speed, remote bytes at the
/// cross-link streaming rate, migrated bytes at the (much slower)
/// driver-mediated migration rate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessOutcome {
    /// Bytes read from the accessing device's local memory.
    pub local: Bytes,
    /// Bytes read remotely over the interconnect (no migration).
    pub remote: Bytes,
    /// Bytes whose pages were migrated to the accessing device as part of
    /// this access (access-counter or fault driven). The access itself is
    /// satisfied by the migration, so these bytes are *not* also counted as
    /// remote.
    pub migrated: Bytes,
    /// Bytes first-touch populated by this access (no transfer needed).
    pub populated: Bytes,
}

impl AccessOutcome {
    /// Total bytes touched.
    pub fn total(&self) -> Bytes {
        self.local + self.remote + self.migrated + self.populated
    }

    /// Accumulate another outcome into this one.
    pub fn absorb(&mut self, other: AccessOutcome) {
        self.local += other.local;
        self.remote += other.remote;
        self.migrated += other.migrated;
        self.populated += other.populated;
    }
}

/// Cumulative traffic counters for a whole [`super::UnifiedMemory`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficStats {
    /// GPU accesses satisfied from HBM.
    pub gpu_local: Bytes,
    /// GPU accesses satisfied remotely from CPU memory over the link.
    pub gpu_remote: Bytes,
    /// CPU accesses satisfied from CPU memory.
    pub cpu_local: Bytes,
    /// CPU accesses satisfied remotely from HBM over the link.
    pub cpu_remote: Bytes,
    /// Bytes migrated CPU→GPU.
    pub migrated_to_gpu: Bytes,
    /// Bytes migrated GPU→CPU.
    pub migrated_to_cpu: Bytes,
    /// Pages migrated in either direction.
    pub pages_migrated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_total_and_absorb() {
        let mut a = AccessOutcome {
            local: Bytes(10),
            remote: Bytes(20),
            migrated: Bytes(30),
            populated: Bytes(0),
        };
        assert_eq!(a.total(), Bytes(60));
        a.absorb(AccessOutcome {
            local: Bytes(1),
            remote: Bytes(2),
            migrated: Bytes(3),
            populated: Bytes(4),
        });
        assert_eq!(a.total(), Bytes(70));
        assert_eq!(a.populated, Bytes(4));
    }
}
