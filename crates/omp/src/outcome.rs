//! Results of executing OpenMP regions on the simulated node.

use ghr_cpusim::CpuReduceBreakdown;
use ghr_gpusim::{GpuKernelBreakdown, LaunchConfig};
use ghr_types::SimTime;

/// Outcome of one offloaded target region: the computed value plus the
/// modelled timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetOutcome<A> {
    /// The reduction result, really computed with device semantics.
    pub value: A,
    /// The concrete launch after heuristic resolution.
    pub launch: LaunchConfig,
    /// The timing breakdown from the GPU model.
    pub breakdown: GpuKernelBreakdown,
}

impl<A> TargetOutcome<A> {
    /// Modelled wall time of the region.
    pub fn time(&self) -> SimTime {
        self.breakdown.total
    }
}

/// Outcome of a host `parallel for simd reduction` region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostOutcome<A> {
    /// The reduction result, really computed by the fork-join kernels.
    pub value: A,
    /// The timing breakdown from the CPU model.
    pub breakdown: CpuReduceBreakdown,
}

impl<A> HostOutcome<A> {
    /// Modelled wall time of the region.
    pub fn time(&self) -> SimTime {
        self.breakdown.total
    }
}
