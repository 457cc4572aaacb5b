//! The Fig. 1 parameter sweep: bandwidth as a function of the teams axis
//! and the number of elements per loop iteration.

use crate::case::Case;
use crate::report::{fmt_gbps, Table};
use ghr_omp::{OmpRuntime, TargetRegion};
use ghr_types::Result;

/// The paper's sweep: teams axis 128..65536 (powers of two), V 1..32
/// (powers of two), thread_limit 256.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GpuSweep {
    /// The evaluation case.
    pub case: Case,
    /// Teams-axis values (pre-division by V).
    pub teams_axis: Vec<u64>,
    /// V values.
    pub vs: Vec<u32>,
    /// `thread_limit` clause (paper: 256).
    pub thread_limit: u32,
    /// Element count (defaults to the paper's scale).
    pub m: u64,
}

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Teams-axis value (the figure's x-axis).
    pub teams_axis: u64,
    /// Elements per iteration (the figure's series).
    pub v: u32,
    /// The paper's bandwidth metric.
    pub gbps: f64,
}

/// How a sweep's (teams, V) grid was explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepMode {
    /// Every grid point evaluated (the paper's full 10×6 grid).
    Exhaustive,
    /// Coarse-to-fine: one coarse pass over the dominating largest-`V`
    /// series, then a per-column binary search toward the smallest in-band
    /// `(V, teams)`. Returns the same [`SweepResult::best`] as
    /// [`SweepMode::Exhaustive`] while evaluating a fraction of the grid
    /// (bandwidth is non-decreasing in `V` at fixed teams — see
    /// `bandwidth_monotone_in_v_at_fixed_teams`).
    Refined,
}

impl std::fmt::Display for SweepMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SweepMode::Exhaustive => "exhaustive",
            SweepMode::Refined => "refined",
        })
    }
}

/// The complete sweep result for one case (one of Fig. 1a–1d).
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The sweep that produced this result.
    pub sweep: GpuSweep,
    /// All evaluated points, in (v-major, teams-minor) order. Under
    /// [`SweepMode::Refined`] this holds only the evaluated subset.
    pub points: Vec<SweepPoint>,
    /// How the grid was explored.
    pub mode: SweepMode,
}

impl GpuSweep {
    /// The paper's parameter space for a case.
    pub fn paper(case: Case) -> Self {
        GpuSweep {
            case,
            teams_axis: (7..=16).map(|i| 1u64 << i).collect(), // 128..65536
            vs: vec![1, 2, 4, 8, 16, 32],
            thread_limit: 256,
            m: case.m_paper(),
        }
    }

    /// Same space at a reduced element count (for fast tests).
    pub fn paper_scaled(case: Case, m: u64) -> Self {
        GpuSweep {
            m: case.m_scaled(m),
            ..Self::paper(case)
        }
    }

    /// Run the sweep against the runtime's GPU model.
    pub fn run(&self, rt: &OmpRuntime) -> Result<SweepResult> {
        let mut points = Vec::with_capacity(self.vs.len() * self.teams_axis.len());
        for &v in &self.vs {
            for &teams in &self.teams_axis {
                let region = TargetRegion::optimized(teams, v).with_thread_limit(self.thread_limit);
                let b = rt.time_target_reduce(
                    &region,
                    self.m,
                    self.case.elem(),
                    self.case.acc(),
                    None,
                )?;
                points.push(SweepPoint {
                    teams_axis: teams,
                    v,
                    gbps: b.effective_bw.as_gbps(),
                });
            }
        }
        Ok(SweepResult {
            sweep: self.clone(),
            points,
            mode: SweepMode::Exhaustive,
        })
    }

    /// Size of the full (teams, V) grid.
    pub fn grid_size(&self) -> usize {
        self.teams_axis.len() * self.vs.len()
    }
}

impl SweepResult {
    /// (evaluated, full-grid) point counts — how much of the grid this
    /// result actually touched. Equal under [`SweepMode::Exhaustive`];
    /// under [`SweepMode::Refined`] the first number is the evaluated
    /// subset, never silently conflated with full coverage.
    pub fn coverage(&self) -> (usize, usize) {
        (self.points.len(), self.sweep.grid_size())
    }

    /// The bandwidth at a specific point, if it was swept.
    pub fn gbps_at(&self, teams_axis: u64, v: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.teams_axis == teams_axis && p.v == v)
            .map(|p| p.gbps)
    }

    /// The best point of the sweep.
    ///
    /// "Best" tolerates model jitter: every point whose bandwidth is
    /// within 0.1% of the true maximum is a candidate, and the tie-break
    /// among candidates is explicit — smallest `V` first, then smallest
    /// teams-axis value — mirroring the paper's choice of the smallest
    /// saturating configuration. The returned point is therefore always
    /// within 0.1% of the true maximum. (An earlier implementation
    /// applied the 0.1% hysteresis pairwise while scanning, which let
    /// chained sub-threshold increments drift the result arbitrarily far
    /// below the maximum.)
    pub fn best(&self) -> &SweepPoint {
        assert!(!self.points.is_empty(), "empty sweep");
        let max = self
            .points
            .iter()
            .map(|p| p.gbps)
            .fold(f64::NEG_INFINITY, f64::max);
        self.points
            .iter()
            .filter(|p| p.gbps >= max * (1.0 - 1e-3))
            .min_by_key(|p| (p.v, p.teams_axis))
            .expect("non-empty candidate set")
    }

    /// The highest bandwidth for a given `V` series.
    pub fn best_for_v(&self, v: u32) -> Option<&SweepPoint> {
        self.points
            .iter()
            .filter(|p| p.v == v)
            .max_by(|a, b| a.gbps.total_cmp(&b.gbps))
    }

    /// Smallest teams-axis value at which the given `V` series reaches
    /// `frac` of its own plateau (the figure's "knee").
    pub fn saturation_teams(&self, v: u32, frac: f64) -> Option<u64> {
        let plateau = self.best_for_v(v)?.gbps;
        self.points
            .iter()
            .filter(|p| p.v == v && p.gbps >= frac * plateau)
            .map(|p| p.teams_axis)
            .min()
    }

    /// Render as a markdown matrix: one row per teams-axis value, one
    /// column per `V` (the shape of Fig. 1).
    pub fn to_table(&self) -> Table {
        let mut headers = vec!["teams".to_string()];
        headers.extend(self.sweep.vs.iter().map(|v| format!("v{v}")));
        let mut t = Table::new(headers);
        for &teams in &self.sweep.teams_axis {
            let mut row = vec![teams.to_string()];
            for &v in &self.sweep.vs {
                row.push(
                    self.gbps_at(teams, v)
                        .map(fmt_gbps)
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            t.row(row);
        }
        t
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
    fn paper_space_has_60_points() {
        let s = GpuSweep::paper(Case::C1);
        assert_eq!(s.teams_axis.len(), 10);
        assert_eq!(s.teams_axis[0], 128);
        assert_eq!(*s.teams_axis.last().unwrap(), 65536);
        assert_eq!(s.vs.len(), 6);
        let r = s.run(&rt()).unwrap();
        assert_eq!(r.points.len(), 60);
    }

    #[test]
    fn c1_best_is_v4_at_large_teams() {
        let r = GpuSweep::paper(Case::C1).run(&rt()).unwrap();
        let best = r.best();
        assert_eq!(best.v, 4, "best point {best:?}");
        assert!(best.teams_axis >= 4096);
        assert!((best.gbps - 3795.0).abs() / 3795.0 < 0.02);
    }

    #[test]
    fn c2_best_is_v32() {
        let r = GpuSweep::paper(Case::C2).run(&rt()).unwrap();
        let best = r.best();
        assert_eq!(best.v, 32, "best point {best:?}");
        assert!((best.gbps - 3596.0).abs() / 3596.0 < 0.02);
    }

    #[test]
    fn best_is_within_0_1_percent_of_true_max() {
        let rt = rt();
        for case in [Case::C1, Case::C2, Case::C3, Case::C4] {
            let r = GpuSweep::paper(case).run(&rt).unwrap();
            let max = r
                .points
                .iter()
                .map(|p| p.gbps)
                .fold(f64::NEG_INFINITY, f64::max);
            let best = r.best();
            assert!(
                best.gbps >= max * (1.0 - 1e-3),
                "{case}: best {} vs max {max}",
                best.gbps
            );
        }
    }

    #[test]
    fn best_tie_break_prefers_smallest_v_then_teams() {
        // Four points inside the 0.1% band plus one clearly below it: the
        // winner is the in-band point with the smallest (v, teams), not
        // the absolute maximum.
        let mut r = GpuSweep::paper(Case::C1).run(&rt()).unwrap();
        r.points = vec![
            SweepPoint {
                teams_axis: 256,
                v: 8,
                gbps: 1000.0,
            },
            SweepPoint {
                teams_axis: 512,
                v: 4,
                gbps: 999.5,
            },
            SweepPoint {
                teams_axis: 128,
                v: 4,
                gbps: 999.2,
            },
            SweepPoint {
                teams_axis: 128,
                v: 2,
                gbps: 998.0,
            },
            SweepPoint {
                teams_axis: 128,
                v: 16,
                gbps: 999.9,
            },
        ];
        let best = r.best();
        assert_eq!((best.v, best.teams_axis), (4, 128));
    }

    #[test]
    fn bandwidth_monotone_in_teams_for_each_v() {
        let r = GpuSweep::paper(Case::C3).run(&rt()).unwrap();
        for &v in &r.sweep.vs {
            let series: Vec<f64> = r
                .sweep
                .teams_axis
                .iter()
                .map(|&t| r.gbps_at(t, v).unwrap())
                .collect();
            for w in series.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "v{v}: {series:?}");
            }
        }
    }

    #[test]
    fn bandwidth_monotone_in_v_at_fixed_teams() {
        // The property the engine's refined sweep mode relies on: at a
        // fixed teams value a larger V never loses bandwidth (it widens
        // each team's strided slice without adding launch overhead). Pin
        // it at both a small scale (where the teams axis is *not*
        // monotone) and the paper scale.
        let rt = rt();
        for case in [Case::C1, Case::C2, Case::C3, Case::C4] {
            for sweep in [GpuSweep::paper_scaled(case, 1 << 20), GpuSweep::paper(case)] {
                let r = sweep.run(&rt).unwrap();
                for &t in &r.sweep.teams_axis {
                    let col: Vec<f64> = r
                        .sweep
                        .vs
                        .iter()
                        .map(|&v| r.gbps_at(t, v).unwrap())
                        .collect();
                    for w in col.windows(2) {
                        assert!(w[1] >= w[0], "{case} teams={t}: {col:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn knee_positions_match_paper() {
        let rt = rt();
        let c1 = GpuSweep::paper(Case::C1).run(&rt).unwrap();
        let knee_c1 = c1.saturation_teams(4, 0.9).unwrap();
        assert!(
            (2048..=8192).contains(&knee_c1),
            "C1 v4 knee at {knee_c1} (paper: ~4096)"
        );
        let c2 = GpuSweep::paper(Case::C2).run(&rt).unwrap();
        let knee_c2 = c2.saturation_teams(32, 0.9).unwrap();
        assert!(knee_c2 >= 2 * knee_c1, "C2 knee {knee_c2} vs C1 {knee_c1}");
    }

    #[test]
    fn table_rendering_has_all_rows() {
        let r = GpuSweep::paper_scaled(Case::C1, 1_000_000)
            .run(&rt())
            .unwrap();
        let t = r.to_table();
        assert_eq!(t.len(), 10);
        let md = t.to_markdown();
        assert!(md.contains("v32"));
        assert!(md.contains("65536"));
    }

    #[test]
    fn exhaustive_run_reports_full_coverage() {
        let r = GpuSweep::paper_scaled(Case::C1, 1_000_000)
            .run(&rt())
            .unwrap();
        assert_eq!(r.mode, SweepMode::Exhaustive);
        assert_eq!(r.coverage(), (60, 60));
        assert_eq!(SweepMode::Refined.to_string(), "refined");
    }

    #[test]
    fn gbps_at_missing_point_is_none() {
        let r = GpuSweep::paper_scaled(Case::C1, 1_000_000)
            .run(&rt())
            .unwrap();
        assert!(r.gbps_at(333, 4).is_none());
        assert!(r.gbps_at(128, 3).is_none());
    }
}
