//! Table 1: baseline vs optimized bandwidth, speedup, and efficiency.

use crate::case::Case;
use crate::reduction::ReductionSpec;
use crate::report::{fmt_gbps, fmt_pct, fmt_speedup, Table};
use ghr_omp::OmpRuntime;
use ghr_types::Result;

/// The paper's Table 1 values, for comparison in reports and tests.
pub mod paper {
    /// Baseline bandwidths (GB/s) for C1–C4.
    pub const BASELINE_GBPS: [f64; 4] = [620.0, 172.0, 271.0, 526.0];
    /// Optimized bandwidths (GB/s) for C1–C4.
    pub const OPTIMIZED_GBPS: [f64; 4] = [3795.0, 3596.0, 3790.0, 3833.0];
    /// Speedups for C1–C4.
    pub const SPEEDUP: [f64; 4] = [6.120, 20.906, 13.985, 7.287];
    /// Baseline efficiencies (% of peak) for C1–C4.
    pub const EFF_BASE_PCT: [f64; 4] = [15.4, 4.3, 6.7, 13.1];
    /// Optimized efficiencies (% of peak) for C1–C4.
    pub const EFF_OPT_PCT: [f64; 4] = [94.3, 89.4, 94.2, 95.3];
}

/// One row of the reproduced Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// The case.
    pub case: Case,
    /// Baseline bandwidth (GB/s).
    pub base_gbps: f64,
    /// Optimized bandwidth (GB/s) at the paper's chosen configuration.
    pub opt_gbps: f64,
    /// `opt / base`.
    pub speedup: f64,
    /// Baseline efficiency (fraction of peak HBM bandwidth).
    pub eff_base: f64,
    /// Optimized efficiency (fraction of peak HBM bandwidth).
    pub eff_opt: f64,
}

/// The reproduced Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Peak GPU memory bandwidth used as the efficiency denominator.
    pub peak_gbps: f64,
    /// One row per case.
    pub rows: Vec<Table1Row>,
}

/// Regenerate Table 1 at the paper's scale.
pub fn table1(rt: &OmpRuntime) -> Result<Table1> {
    let peak_gbps = rt.machine().gpu.hbm_peak_bw.as_gbps();
    let mut rows = Vec::with_capacity(4);
    for case in Case::ALL {
        let base_gbps = ReductionSpec::baseline(case).gbps_paper(rt)?;
        let opt_gbps = ReductionSpec::optimized_paper(case).gbps_paper(rt)?;
        rows.push(Table1Row {
            case,
            base_gbps,
            opt_gbps,
            speedup: opt_gbps / base_gbps,
            eff_base: base_gbps / peak_gbps,
            eff_opt: opt_gbps / peak_gbps,
        });
    }
    Ok(Table1 { peak_gbps, rows })
}

impl Table1 {
    /// Render in the paper's layout.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "Case",
            "Base (GB/s)",
            "Optimized (GB/s)",
            "Speedup",
            "Efficiency (%)",
        ]);
        for r in &self.rows {
            t.row([
                r.case.label().to_string(),
                fmt_gbps(r.base_gbps),
                fmt_gbps(r.opt_gbps),
                fmt_speedup(r.speedup),
                format!("{} / {}", fmt_pct(r.eff_base), fmt_pct(r.eff_opt)),
            ]);
        }
        t
    }

    /// Render a comparison against the paper's numbers (used by
    /// EXPERIMENTS.md and `ghr table1 --compare`).
    pub fn to_comparison_table(&self) -> Table {
        let mut t = Table::new([
            "Case",
            "Base paper",
            "Base ours",
            "Opt paper",
            "Opt ours",
            "Speedup paper",
            "Speedup ours",
        ]);
        for (i, r) in self.rows.iter().enumerate() {
            t.row([
                r.case.label().to_string(),
                fmt_gbps(paper::BASELINE_GBPS[i]),
                fmt_gbps(r.base_gbps),
                fmt_gbps(paper::OPTIMIZED_GBPS[i]),
                fmt_gbps(r.opt_gbps),
                fmt_speedup(paper::SPEEDUP[i]),
                fmt_speedup(r.speedup),
            ]);
        }
        t
    }

    /// Largest relative error of our bandwidths vs the paper's, as a
    /// fraction (reported in EXPERIMENTS.md).
    pub fn max_relative_error(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, r) in self.rows.iter().enumerate() {
            worst =
                worst.max((r.base_gbps - paper::BASELINE_GBPS[i]).abs() / paper::BASELINE_GBPS[i]);
            worst =
                worst.max((r.opt_gbps - paper::OPTIMIZED_GBPS[i]).abs() / paper::OPTIMIZED_GBPS[i]);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghr_machine::MachineConfig;

    #[test]
    fn reproduced_table1_is_within_2_percent() {
        let rt = OmpRuntime::new(MachineConfig::gh200());
        let t = table1(&rt).unwrap();
        assert!(
            t.max_relative_error() < 0.02,
            "max error {:.4}",
            t.max_relative_error()
        );
    }

    #[test]
    fn efficiencies_match_paper_bands() {
        let rt = OmpRuntime::new(MachineConfig::gh200());
        let t = table1(&rt).unwrap();
        for (i, r) in t.rows.iter().enumerate() {
            assert!(
                (r.eff_base * 100.0 - paper::EFF_BASE_PCT[i]).abs() < 1.0,
                "{}: base eff {:.1}",
                r.case,
                r.eff_base * 100.0
            );
            assert!(
                (r.eff_opt * 100.0 - paper::EFF_OPT_PCT[i]).abs() < 1.5,
                "{}: opt eff {:.1}",
                r.case,
                r.eff_opt * 100.0
            );
        }
    }

    #[test]
    fn speedup_ordering_matches_paper() {
        // C2 > C3 > C4 > C1.
        let rt = OmpRuntime::new(MachineConfig::gh200());
        let t = table1(&rt).unwrap();
        let s: Vec<f64> = t.rows.iter().map(|r| r.speedup).collect();
        assert!(s[1] > s[2] && s[2] > s[3] && s[3] > s[0], "{s:?}");
    }

    #[test]
    fn rendering_contains_all_cases() {
        let rt = OmpRuntime::new(MachineConfig::gh200());
        let t = table1(&rt).unwrap();
        let md = t.to_table().to_markdown();
        for case in Case::ALL {
            assert!(md.contains(case.label()));
        }
        let cmp = t.to_comparison_table().to_markdown();
        assert!(cmp.contains("Speedup paper"));
    }
}
