//! Autotuning: pick the saturating `(teams, V)` for a case the way the
//! paper's Section IV does — run the Fig. 1 sweep and take the smallest
//! configuration that reaches the plateau.

use crate::case::Case;
use crate::reduction::{KernelKind, ReductionSpec};
use crate::sweep::GpuSweep;
use ghr_omp::OmpRuntime;
use ghr_types::Result;

/// The result of autotuning one case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedConfig {
    /// The case that was tuned.
    pub case: Case,
    /// Best teams-axis value.
    pub teams_axis: u64,
    /// Best `V`.
    pub v: u32,
    /// Bandwidth achieved at the best point (GB/s).
    pub gbps: f64,
}

impl TunedConfig {
    /// The reduction spec this tuning selects.
    pub fn spec(&self) -> ReductionSpec {
        ReductionSpec {
            case: self.case,
            kind: KernelKind::Optimized {
                teams_axis: self.teams_axis,
                v: self.v,
            },
        }
    }
}

/// Tune one case over the paper's parameter space at the paper's scale.
pub fn autotune(rt: &OmpRuntime, case: Case) -> Result<TunedConfig> {
    autotune_scaled(rt, case, case.m_paper())
}

/// Tune at a reduced element count (for tests).
pub fn autotune_scaled(rt: &OmpRuntime, case: Case, m: u64) -> Result<TunedConfig> {
    let result = GpuSweep::paper_scaled(case, m).run(rt)?;
    let best = result.best();
    Ok(TunedConfig {
        case,
        teams_axis: best.teams_axis,
        v: best.v,
        gbps: best.gbps,
    })
}

/// Tune all four cases.
pub fn autotune_all(rt: &OmpRuntime) -> Result<Vec<TunedConfig>> {
    Case::ALL.into_iter().map(|c| autotune(rt, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghr_machine::MachineConfig;

    #[test]
    fn autotune_matches_paper_choices() {
        let rt = OmpRuntime::new(MachineConfig::gh200());
        for case in Case::ALL {
            let t = autotune(&rt, case).unwrap();
            assert_eq!(
                t.v,
                case.v_optimized(),
                "{case}: tuned v {} vs paper {}",
                t.v,
                case.v_optimized()
            );
            // The paper reports saturation by 65536 on the teams axis; the
            // tuned point must sit at or past the knee.
            assert!(t.teams_axis >= 4096, "{case}: {t:?}");
            assert!(t.gbps > 3000.0, "{case}: {t:?}");
        }
    }

    #[test]
    fn tuned_spec_roundtrips() {
        let rt = OmpRuntime::new(MachineConfig::gh200());
        let t = autotune(&rt, Case::C1).unwrap();
        let spec = t.spec();
        let gbps = spec.gbps_paper(&rt).unwrap();
        assert!((gbps - t.gbps).abs() < 1e-6);
    }
}
