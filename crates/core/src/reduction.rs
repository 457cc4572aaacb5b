//! Baseline and optimized reduction kernels (Listings 2 and 5).

use crate::case::Case;
use ghr_gpusim::GpuKernelBreakdown;
use ghr_omp::{OmpRuntime, TargetRegion};
use ghr_types::{Bandwidth, Result};

/// Which kernel variant a driver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Listing 2: no geometry clauses, one element per iteration — the
    /// NVHPC runtime heuristics size the grid.
    Baseline,
    /// Listing 5: explicit `num_teams(teams_axis / v)`, `thread_limit(256)`
    /// and `v` elements accumulated per iteration.
    Optimized {
        /// The paper's teams-axis value (pre-division by `v`).
        teams_axis: u64,
        /// Elements per loop iteration.
        v: u32,
    },
}

/// A fully-specified reduction experiment: a case plus a kernel variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionSpec {
    /// The evaluation case (input/accumulator types and scale).
    pub case: Case,
    /// The kernel variant.
    pub kind: KernelKind,
}

impl ReductionSpec {
    /// The baseline reduction for a case.
    pub fn baseline(case: Case) -> Self {
        ReductionSpec {
            case,
            kind: KernelKind::Baseline,
        }
    }

    /// The paper's chosen optimized reduction for a case
    /// (teams axis 65536; V from Section IV).
    pub fn optimized_paper(case: Case) -> Self {
        ReductionSpec {
            case,
            kind: KernelKind::Optimized {
                teams_axis: 65536,
                v: case.v_optimized(),
            },
        }
    }

    /// The OpenMP region this spec annotates the loop with.
    pub fn region(&self) -> TargetRegion {
        match self.kind {
            KernelKind::Baseline => TargetRegion::baseline(),
            KernelKind::Optimized { teams_axis, v } => TargetRegion::optimized(teams_axis, v),
        }
    }

    /// Model one kernel repetition at `m` elements with data in HBM.
    pub fn time_gpu(&self, rt: &OmpRuntime, m: u64) -> Result<GpuKernelBreakdown> {
        rt.time_target_reduce(&self.region(), m, self.case.elem(), self.case.acc(), None)
    }

    /// Model one kernel repetition with the memory side capped at `supply`.
    pub fn time_gpu_with_supply(
        &self,
        rt: &OmpRuntime,
        m: u64,
        supply: Bandwidth,
    ) -> Result<GpuKernelBreakdown> {
        rt.time_target_reduce(
            &self.region(),
            m,
            self.case.elem(),
            self.case.acc(),
            Some(supply),
        )
    }

    /// The paper's bandwidth metric at the paper's scale.
    pub fn gbps_paper(&self, rt: &OmpRuntime) -> Result<f64> {
        Ok(self
            .time_gpu(rt, self.case.m_paper())?
            .effective_bw
            .as_gbps())
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self.kind {
            KernelKind::Baseline => format!("{} baseline", self.case),
            KernelKind::Optimized { teams_axis, v } => {
                format!("{} optimized (teams={teams_axis}, v={v})", self.case)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghr_machine::MachineConfig;

    fn rt() -> OmpRuntime {
        OmpRuntime::new(MachineConfig::gh200())
    }

    #[test]
    fn baseline_region_has_no_clauses() {
        let r = ReductionSpec::baseline(Case::C1).region();
        assert_eq!(r.num_teams, None);
        assert_eq!(r.thread_limit, None);
        assert_eq!(r.v, 1);
    }

    #[test]
    fn optimized_region_divides_teams_axis() {
        let r = ReductionSpec::optimized_paper(Case::C2).region();
        assert_eq!(r.num_teams, Some(65536 / 32));
        assert_eq!(r.thread_limit, Some(256));
        assert_eq!(r.v, 32);
    }

    #[test]
    fn paper_scale_bandwidths_reproduce_table1() {
        let rt = rt();
        let targets_base = [620.0, 172.0, 271.0, 526.0];
        let targets_opt = [3795.0, 3596.0, 3790.0, 3833.0];
        for (i, case) in Case::ALL.into_iter().enumerate() {
            let base = ReductionSpec::baseline(case).gbps_paper(&rt).unwrap();
            let opt = ReductionSpec::optimized_paper(case)
                .gbps_paper(&rt)
                .unwrap();
            assert!(
                (base - targets_base[i]).abs() / targets_base[i] < 0.02,
                "{case} baseline: {base}"
            );
            assert!(
                (opt - targets_opt[i]).abs() / targets_opt[i] < 0.02,
                "{case} optimized: {opt}"
            );
        }
    }

    #[test]
    fn supply_cap_slows_the_kernel() {
        let rt = rt();
        let spec = ReductionSpec::optimized_paper(Case::C1);
        let local = spec.time_gpu(&rt, Case::C1.m_paper()).unwrap();
        let remote = spec
            .time_gpu_with_supply(&rt, Case::C1.m_paper(), Bandwidth::gbps(380.0))
            .unwrap();
        assert!(remote.total > local.total);
    }

    #[test]
    fn labels() {
        assert_eq!(ReductionSpec::baseline(Case::C3).label(), "C3 baseline");
        assert!(ReductionSpec::optimized_paper(Case::C2)
            .label()
            .contains("teams=65536, v=32"));
    }
}
