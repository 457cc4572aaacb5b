//! What-if study: how much of the baseline's deficit could the *runtime*
//! recover without touching user code?
//!
//! The paper concludes that "the heuristics may be further optimized in
//! the vendor's implementation of the OpenMP reduction". This module
//! quantifies that: it re-runs the baseline (Listing 2 — user code
//! untouched, `V = 1`) under runtime-side changes only:
//!
//! 1. **saturating grid** — cap the default grid at a few residency waves
//!    instead of `M / threads_per_team`;
//! 2. **two-pass combine** — replace the per-team device-wide combine
//!    with a partials buffer + second kernel;
//! 3. **both**.
//!
//! The result: the baseline climbs from 620 GB/s to the `V = 1`
//! concurrency ceiling (~960 GB/s for C1), and *no further* — the
//! remaining 4x to the optimized kernel requires the paper's source-level
//! `V` unrolling. The runtime can fix the overheads; it cannot manufacture
//! memory-level parallelism.

use crate::case::Case;
use crate::report::{fmt_gbps, fmt_speedup, Table};
use ghr_gpusim::params::CombineStrategy;
use ghr_gpusim::{GpuModel, LaunchConfig};
use ghr_machine::MachineConfig;
use ghr_omp::heuristics;
use ghr_types::Result;

/// A runtime-side scenario applied to the unmodified baseline code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeScenario {
    /// NVHPC as profiled by the paper.
    AsShipped,
    /// Default grid capped at `waves` full-residency waves.
    SaturatingGrid {
        /// Residency waves to allow.
        waves: u32,
    },
    /// Two-pass combine instead of per-team device-wide combine.
    TwoPassCombine,
    /// Both improvements.
    Both {
        /// Residency waves to allow.
        waves: u32,
    },
}

impl std::fmt::Display for RuntimeScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeScenario::AsShipped => write!(f, "as shipped (paper baseline)"),
            RuntimeScenario::SaturatingGrid { waves } => {
                write!(f, "saturating grid ({waves} waves)")
            }
            RuntimeScenario::TwoPassCombine => write!(f, "two-pass combine"),
            RuntimeScenario::Both { waves } => write!(f, "both ({waves} waves)"),
        }
    }
}

/// One case's bandwidth under a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfRow {
    /// The scenario.
    pub scenario: RuntimeScenario,
    /// Bandwidths for C1..C4 in GB/s.
    pub gbps: [f64; 4],
}

/// The full study.
#[derive(Debug, Clone)]
pub struct WhatIfStudy {
    /// One row per scenario (AsShipped first).
    pub rows: Vec<WhatIfRow>,
    /// The optimized (source-level `V`) bandwidths for reference.
    pub optimized_gbps: [f64; 4],
}

/// The study's scenarios in report order. Shared by the serial driver and
/// the engine's planner/assembly so both enumerate the same points.
pub(crate) const SCENARIOS: [RuntimeScenario; 4] = [
    RuntimeScenario::AsShipped,
    RuntimeScenario::SaturatingGrid { waves: 4 },
    RuntimeScenario::TwoPassCombine,
    RuntimeScenario::Both { waves: 4 },
];

/// The study's full point grid in evaluation order: every scenario across
/// the four cases, then the optimized (`None`) reference row.
pub(crate) fn point_grid() -> Vec<(Option<RuntimeScenario>, Case)> {
    let mut grid = Vec::with_capacity(SCENARIOS.len() * 4 + 4);
    for scenario in SCENARIOS {
        for case in Case::ALL {
            grid.push((Some(scenario), case));
        }
    }
    for case in Case::ALL {
        grid.push((None, case));
    }
    grid
}

pub(crate) fn baseline_launch(
    machine: &MachineConfig,
    case: Case,
    scenario: RuntimeScenario,
) -> LaunchConfig {
    let threads = heuristics::DEFAULT_THREADS_PER_TEAM;
    let default_grid = heuristics::default_grid(case.m_paper(), threads);
    let grid = match scenario {
        RuntimeScenario::SaturatingGrid { waves } | RuntimeScenario::Both { waves } => {
            let resident = machine.gpu.teams_resident_per_sm(threads) as u64;
            default_grid.min(machine.gpu.sm_count as u64 * resident * waves as u64)
        }
        _ => default_grid,
    };
    LaunchConfig {
        num_teams: grid,
        threads_per_team: threads,
        v: 1,
        m: case.m_paper(),
        elem: case.elem(),
        acc: case.acc(),
    }
}

pub(crate) fn model_for(machine: &MachineConfig, scenario: RuntimeScenario) -> GpuModel {
    let mut model = GpuModel::new(machine.gpu.clone());
    if matches!(
        scenario,
        RuntimeScenario::TwoPassCombine | RuntimeScenario::Both { .. }
    ) {
        model.params_mut().combine_strategy = CombineStrategy::TwoPassKernel;
    }
    model
}

/// Run the study at the paper's scale.
pub fn whatif_study(machine: &MachineConfig) -> Result<WhatIfStudy> {
    let mut rows = Vec::with_capacity(SCENARIOS.len());
    for scenario in SCENARIOS {
        let model = model_for(machine, scenario);
        let mut gbps = [0.0; 4];
        for (g, case) in gbps.iter_mut().zip(Case::ALL) {
            let launch = baseline_launch(machine, case, scenario);
            *g = model.reduce(&launch)?.effective_bw.as_gbps();
        }
        rows.push(WhatIfRow { scenario, gbps });
    }
    let optimized_model = GpuModel::new(machine.gpu.clone());
    let mut optimized_gbps = [0.0; 4];
    for (g, case) in optimized_gbps.iter_mut().zip(Case::ALL) {
        let launch = ghr_gpusim::calibrate::optimized_launch(match case {
            Case::C1 => 1,
            Case::C2 => 2,
            Case::C3 => 3,
            Case::C4 => 4,
        });
        *g = optimized_model.reduce(&launch)?.effective_bw.as_gbps();
    }
    Ok(WhatIfStudy {
        rows,
        optimized_gbps,
    })
}

impl WhatIfStudy {
    /// Render the study.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["runtime scenario", "C1", "C2", "C3", "C4", "C1 gain"]);
        let shipped = self.rows[0].gbps;
        for row in &self.rows {
            t.row([
                row.scenario.to_string(),
                fmt_gbps(row.gbps[0]),
                fmt_gbps(row.gbps[1]),
                fmt_gbps(row.gbps[2]),
                fmt_gbps(row.gbps[3]),
                fmt_speedup(row.gbps[0] / shipped[0]),
            ]);
        }
        t.row([
            "optimized kernel (source-level V)".to_string(),
            fmt_gbps(self.optimized_gbps[0]),
            fmt_gbps(self.optimized_gbps[1]),
            fmt_gbps(self.optimized_gbps[2]),
            fmt_gbps(self.optimized_gbps[3]),
            fmt_speedup(self.optimized_gbps[0] / shipped[0]),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> WhatIfStudy {
        whatif_study(&MachineConfig::gh200()).unwrap()
    }

    #[test]
    fn shipped_row_matches_table1_baselines() {
        let s = study();
        let targets = [620.0, 172.0, 271.0, 526.0];
        for (g, t) in s.rows[0].gbps.iter().zip(targets) {
            assert!((g - t).abs() / t < 0.02, "{g} vs {t}");
        }
    }

    #[test]
    fn every_runtime_fix_helps_every_case() {
        let s = study();
        let shipped = s.rows[0].gbps;
        for row in &s.rows[1..] {
            for (after, before) in row.gbps.iter().zip(shipped) {
                assert!(after > &before, "{}: {after} vs {before}", row.scenario);
            }
        }
    }

    #[test]
    fn runtime_fixes_cannot_reach_the_optimized_kernel() {
        // The whole point: with V = 1, the concurrency ceiling binds well
        // below the optimized kernel for every case.
        let s = study();
        let both = &s.rows[3];
        for (runtime_best, optimized) in both.gbps.iter().zip(s.optimized_gbps) {
            assert!(
                *runtime_best < 0.5 * optimized,
                "{}: {runtime_best} vs optimized {optimized}",
                both.scenario
            );
        }
    }

    #[test]
    fn the_two_fixes_are_individually_sufficient_and_redundant_together() {
        // Either fix alone removes the team-pipeline bottleneck and lands
        // on the V=1 memory/concurrency ceiling; applying both is
        // redundant (and "both" even pays the second-pass launch on top
        // of an already-saturated memory pipe — within 0.5%).
        let s = study();
        for i in 0..4 {
            let sat = s.rows[1].gbps[i];
            let two = s.rows[2].gbps[i];
            let both = s.rows[3].gbps[i];
            assert!((sat - two).abs() / sat < 0.02, "case {i}: {sat} vs {two}");
            assert!(both >= two * 0.999, "case {i}");
            assert!(both >= sat * 0.995, "case {i}");
        }
    }

    #[test]
    fn c1_saturating_grid_hits_the_v1_ceiling() {
        // The v1 concurrency plateau for C1 at 128 threads/team is
        // ~959 GB/s; the runtime fix must land there (within 5%).
        let s = study();
        let c1_both = s.rows[3].gbps[0];
        assert!((c1_both - 959.0).abs() / 959.0 < 0.05, "{c1_both}");
    }
}
