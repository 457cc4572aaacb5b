//! The complete Section IV study: all sixteen co-execution series (four
//! cases x {baseline, optimized} x {A1, A2}) and the aggregate numbers the
//! paper quotes in its text and conclusion.

use crate::case::Case;
use crate::corun::{run_corun, AllocSite, CorunConfig, CorunSeries};
use crate::reduction::{KernelKind, ReductionSpec};
use crate::report::{fmt_speedup, Table};
use ghr_machine::MachineConfig;
use ghr_types::Result;

/// All sixteen series of Figures 2 and 4, in case order.
#[derive(Debug, Clone)]
pub struct CorunStudy {
    /// Fig. 2a: baseline kernels, allocation at A1.
    pub a1_base: Vec<CorunSeries>,
    /// Fig. 2b: optimized kernels, allocation at A1.
    pub a1_opt: Vec<CorunSeries>,
    /// Fig. 4a: baseline kernels, allocation at A2.
    pub a2_base: Vec<CorunSeries>,
    /// Fig. 4b: optimized kernels, allocation at A2.
    pub a2_opt: Vec<CorunSeries>,
}

/// The aggregate quantities the paper reports in Section IV's text.
#[derive(Debug, Clone)]
pub struct StudySummary {
    /// Per-case peak speedups over GPU-only, Fig. 2a (paper: 2.732, 2.246,
    /// 2.692, 2.297; average 2.492).
    pub a1_base_peaks: [f64; 4],
    /// Per-case peak speedups over GPU-only, Fig. 2b (paper: 2.253, 3.385,
    /// 2.100, 2.197; average 2.484).
    pub a1_opt_peaks: [f64; 4],
    /// Per-case peak speedups over GPU-only, Fig. 4b (paper: 1.139, 1.062,
    /// 1.050, 1.017; average 1.067).
    pub a2_opt_peaks: [f64; 4],
    /// Fig. 3 speedup range (paper: 0.996 to 10.654).
    pub fig3_range: (f64, f64),
    /// Fig. 5 speedup range (paper: 0.998 to 6.729).
    pub fig5_range: (f64, f64),
    /// Average ratio of optimized co-run bandwidth, A1 over A2
    /// (paper: 2.299).
    pub a1_over_a2_optimized: f64,
    /// CPU-only bandwidth ratio A2 over A1 (paper: 1.367 — A1 is slower).
    pub cpu_only_a2_over_a1: f64,
}

pub(crate) fn kinds(case: Case) -> (KernelKind, KernelKind) {
    (
        KernelKind::Baseline,
        match ReductionSpec::optimized_paper(case).kind {
            k @ KernelKind::Optimized { .. } => k,
            KernelKind::Baseline => unreachable!(),
        },
    )
}

/// The study's sixteen configs in canonical order: for each case,
/// (baseline, A1), (optimized, A1), (baseline, A2), (optimized, A2) —
/// i.e. bucket `i % 4`. Shared by the serial driver and the engine's
/// planner/assembly so both lower to identical cache keys.
pub(crate) fn study_configs(m: Option<u64>, n_reps: Option<u32>) -> Vec<CorunConfig> {
    let mut configs = Vec::with_capacity(16);
    for case in Case::ALL {
        let (base, opt) = kinds(case);
        for (kind, alloc) in [
            (base, AllocSite::A1),
            (opt, AllocSite::A1),
            (base, AllocSite::A2),
            (opt, AllocSite::A2),
        ] {
            let mut cfg = CorunConfig::paper(case, kind, alloc);
            if let Some(m) = m {
                cfg.m = case.m_scaled(m);
            }
            if let Some(n) = n_reps {
                cfg.n_reps = n;
            }
            configs.push(cfg);
        }
    }
    configs
}

/// Run the full study at the paper's scale.
pub fn run_full_study(machine: &MachineConfig) -> Result<CorunStudy> {
    run_full_study_scaled(machine, None, None)
}

/// Run the full study with optional scaling (for tests): `m` overrides the
/// element count (scaled per case), `n_reps` the repetition count.
pub fn run_full_study_scaled(
    machine: &MachineConfig,
    m: Option<u64>,
    n_reps: Option<u32>,
) -> Result<CorunStudy> {
    let mut study = CorunStudy {
        a1_base: Vec::with_capacity(4),
        a1_opt: Vec::with_capacity(4),
        a2_base: Vec::with_capacity(4),
        a2_opt: Vec::with_capacity(4),
    };
    for (i, cfg) in study_configs(m, n_reps).iter().enumerate() {
        let series = run_corun(machine, cfg)?;
        match i % 4 {
            0 => study.a1_base.push(series),
            1 => study.a1_opt.push(series),
            2 => study.a2_base.push(series),
            _ => study.a2_opt.push(series),
        }
    }
    Ok(study)
}

impl CorunStudy {
    /// Compute the paper's aggregate quantities.
    pub fn summary(&self) -> StudySummary {
        let peaks = |series: &[CorunSeries]| -> [f64; 4] {
            let mut out = [0.0; 4];
            for (o, s) in out.iter_mut().zip(series) {
                *o = s.peak_speedup_over_gpu_only();
            }
            out
        };
        let range = |opt: &[CorunSeries], base: &[CorunSeries]| -> (f64, f64) {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (o, b) in opt.iter().zip(base) {
                for (_, s) in o.speedup_vs(b) {
                    lo = lo.min(s);
                    hi = hi.max(s);
                }
            }
            (lo, hi)
        };
        let avg_bw = |s: &CorunSeries| -> f64 {
            s.points.iter().map(|p| p.gbps).sum::<f64>() / s.points.len() as f64
        };
        let a1_avg: f64 = self.a1_opt.iter().map(avg_bw).sum::<f64>() / 4.0;
        let a2_avg: f64 = self.a2_opt.iter().map(avg_bw).sum::<f64>() / 4.0;
        let cpu_ratio: f64 = self
            .a1_opt
            .iter()
            .zip(&self.a2_opt)
            .map(|(a1, a2)| a2.cpu_only_gbps() / a1.cpu_only_gbps())
            .sum::<f64>()
            / 4.0;
        StudySummary {
            a1_base_peaks: peaks(&self.a1_base),
            a1_opt_peaks: peaks(&self.a1_opt),
            a2_opt_peaks: peaks(&self.a2_opt),
            fig3_range: range(&self.a1_opt, &self.a1_base),
            fig5_range: range(&self.a2_opt, &self.a2_base),
            a1_over_a2_optimized: a1_avg / a2_avg,
            cpu_only_a2_over_a1: cpu_ratio,
        }
    }
}

impl StudySummary {
    /// Average of an array.
    fn avg(xs: &[f64; 4]) -> f64 {
        xs.iter().sum::<f64>() / 4.0
    }

    /// Render the paper-vs-ours comparison of every text-quoted number.
    pub fn to_comparison_table(&self) -> Table {
        let mut t = Table::new(["Quantity", "Paper", "Ours"]);
        let rows: [(&str, f64, f64); 7] = [
            (
                "Avg peak speedup over GPU-only, baseline A1 (Fig 2a)",
                2.492,
                Self::avg(&self.a1_base_peaks),
            ),
            (
                "Avg peak speedup over GPU-only, optimized A1 (Fig 2b)",
                2.484,
                Self::avg(&self.a1_opt_peaks),
            ),
            (
                "Avg peak speedup over GPU-only, optimized A2 (Fig 4b)",
                1.067,
                Self::avg(&self.a2_opt_peaks),
            ),
            (
                "Fig 3 max speedup (optimized/baseline, A1)",
                10.654,
                self.fig3_range.1,
            ),
            (
                "Fig 5 max speedup (optimized/baseline, A2)",
                6.729,
                self.fig5_range.1,
            ),
            (
                "Optimized co-run average, A1 over A2",
                2.299,
                self.a1_over_a2_optimized,
            ),
            (
                "CPU-only bandwidth, A2 over A1",
                1.367,
                self.cpu_only_a2_over_a1,
            ),
        ];
        for (label, paper, ours) in rows {
            t.row([label.to_string(), fmt_speedup(paper), fmt_speedup(ours)]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The full study is expensive in debug builds; run it once and share.
    fn study() -> &'static CorunStudy {
        static STUDY: OnceLock<CorunStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            // Reduced reps keep debug-mode tests quick; the aggregate
            // ratios are insensitive to N beyond ~40 (checked in release).
            run_full_study_scaled(&MachineConfig::gh200(), None, Some(50)).unwrap()
        })
    }

    #[test]
    fn study_shape() {
        let s = study();
        assert_eq!(s.a1_base.len(), 4);
        assert_eq!(s.a1_opt.len(), 4);
        assert_eq!(s.a2_base.len(), 4);
        assert_eq!(s.a2_opt.len(), 4);
        for series in s.a1_base.iter().chain(&s.a2_opt) {
            assert_eq!(series.points.len(), 11);
        }
    }

    #[test]
    fn a1_peaks_beat_a2_peaks() {
        let sum = study().summary();
        assert!(
            StudySummary::avg(&sum.a1_opt_peaks) > StudySummary::avg(&sum.a2_opt_peaks),
            "{sum:?}"
        );
    }

    #[test]
    fn fig3_and_fig5_ranges_bracket_one() {
        let sum = study().summary();
        assert!(sum.fig3_range.0 <= 1.02, "{:?}", sum.fig3_range);
        assert!(sum.fig3_range.1 > 2.0, "{:?}", sum.fig3_range);
        assert!(sum.fig5_range.0 <= 1.02, "{:?}", sum.fig5_range);
        assert!(sum.fig5_range.1 > 1.5, "{:?}", sum.fig5_range);
    }

    #[test]
    fn cpu_only_ratio_close_to_paper() {
        let sum = study().summary();
        assert!(
            (sum.cpu_only_a2_over_a1 - 1.367).abs() < 0.08,
            "{:.3}",
            sum.cpu_only_a2_over_a1
        );
    }

    #[test]
    fn a1_over_a2_exceeds_one() {
        let sum = study().summary();
        assert!(
            sum.a1_over_a2_optimized > 1.0,
            "{:.3}",
            sum.a1_over_a2_optimized
        );
    }

    #[test]
    fn comparison_table_renders() {
        let md = study().summary().to_comparison_table().to_markdown();
        assert!(md.contains("Fig 2a"));
        assert!(md.contains("1.367"));
    }
}
