//! Floating-point accuracy study — quantifying what the paper's
//! "GPU results are verified using the CPU results" glosses over.
//!
//! The offloaded reduction reassociates the sum (per-thread partials →
//! intra-team tree → team-order combine), so for C3/C4 the device result
//! differs from the serial one by rounding. This module measures the
//! error of each summation strategy against a Kahan-compensated reference
//! and shows the classic result: the device's tree order is *more*
//! accurate than the serial loop, and error grows with the element count
//! for the serial sum while staying nearly flat for tree-shaped sums.

use crate::report::Table;
use ghr_gpusim::{execute_reduction, LaunchConfig};
use ghr_parallel::{sum_kahan, sum_pairwise, sum_sequential};
use ghr_types::{DType, Result};

/// Error of every strategy at one element count.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyRow {
    /// Element count.
    pub m: u64,
    /// |serial - reference| in units of f32 epsilon times the reference.
    pub serial_ulp: f64,
    /// |device tree - reference| in the same units.
    pub device_ulp: f64,
    /// |pairwise - reference| in the same units.
    pub pairwise_ulp: f64,
}

/// The full study: one row per element count.
#[derive(Debug, Clone)]
pub struct AccuracyStudy {
    /// Rows in ascending `m`.
    pub rows: Vec<AccuracyRow>,
}

/// Deterministic pseudo-random values in `(0, 1)` (Knuth LCG). Periodic
/// test patterns are useless here: their rounding errors cancel
/// systematically over each period, hiding the effect under study.
fn lcg_values(m: u64) -> Vec<f32> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..m)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 + 1.0) / (1u32 << 24) as f32
        })
        .collect()
}

/// Run the study on `f32` data (the paper's C3) for the given counts.
///
/// The data is strictly positive pseudo-random values in `(0, 1)`, so the
/// running sum grows linearly and the serial loop's rounding errors random-
/// walk — the regime where reassociation visibly matters. Each strategy
/// sums in `f32` and is compared against an `f64` Kahan reference.
pub fn accuracy_study(counts: &[u64]) -> Result<AccuracyStudy> {
    let mut rows = Vec::with_capacity(counts.len());
    for &m in counts {
        let data = lcg_values(m);
        let reference = sum_kahan(&data.iter().map(|&x| x as f64).collect::<Vec<_>>());
        let launch = LaunchConfig {
            num_teams: 1024,
            threads_per_team: 256,
            v: 4,
            m,
            elem: DType::F32,
            acc: DType::F32,
        };
        let device = execute_reduction(&data, &launch)? as f64;
        let serial = sum_sequential(&data) as f64;
        let pairwise = sum_pairwise(&data) as f64;
        let scale = (f32::EPSILON as f64) * reference.abs().max(1.0);
        rows.push(AccuracyRow {
            m,
            serial_ulp: (serial - reference).abs() / scale,
            device_ulp: (device - reference).abs() / scale,
            pairwise_ulp: (pairwise - reference).abs() / scale,
        });
    }
    Ok(AccuracyStudy { rows })
}

impl AccuracyStudy {
    /// Render as a table (errors in scaled-epsilon units).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["M", "serial err", "device-tree err", "pairwise err"]);
        for r in &self.rows {
            t.row([
                r.m.to_string(),
                format!("{:.1}", r.serial_ulp),
                format!("{:.1}", r.device_ulp),
                format!("{:.1}", r.pairwise_ulp),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_tree_is_more_accurate_than_serial_on_average() {
        // Rounding errors random-walk, so any single count can be lucky;
        // compare averages over several counts (deterministic data).
        let counts = [1u64 << 16, 1 << 18, 1 << 20, 1 << 22];
        let study = accuracy_study(&counts).unwrap();
        let avg = |f: fn(&AccuracyRow) -> f64| {
            study.rows.iter().map(f).sum::<f64>() / study.rows.len() as f64
        };
        let serial = avg(|r| r.serial_ulp);
        let device = avg(|r| r.device_ulp);
        let pairwise = avg(|r| r.pairwise_ulp);
        assert!(
            serial > 2.0 * device,
            "serial {serial:.1} vs device {device:.1}"
        );
        assert!(
            device > pairwise,
            "device {device:.1} vs pairwise {pairwise:.1}"
        );
    }

    #[test]
    fn serial_error_grows_with_m_on_average() {
        let small = accuracy_study(&[1 << 12, 1 << 13, 1 << 14]).unwrap();
        let large = accuracy_study(&[1 << 20, 1 << 21, 1 << 22]).unwrap();
        let avg = |s: &AccuracyStudy| {
            s.rows.iter().map(|r| r.serial_ulp).sum::<f64>() / s.rows.len() as f64
        };
        assert!(
            avg(&large) > avg(&small),
            "{} vs {}",
            avg(&large),
            avg(&small)
        );
    }

    #[test]
    fn pairwise_stays_tight() {
        let study = accuracy_study(&[1 << 20]).unwrap();
        assert!(study.rows[0].pairwise_ulp < 64.0, "{:?}", study.rows[0]);
    }

    #[test]
    fn table_renders_all_rows() {
        let study = accuracy_study(&[1024, 2048]).unwrap();
        let md = study.to_table().to_markdown();
        assert!(md.contains("1024"));
        assert!(md.contains("2048"));
    }
}
