//! Per-repetition diagnostics: *why* a co-execution point performs the way
//! it does.
//!
//! The paper explains its Figure 2/4 shapes narratively (migration in the
//! first iterations, remote CPU reads after A1's `p = 0`, ...). This module
//! makes those narratives inspectable: it replays a co-execution series up
//! to a chosen `p` (so placement history is faithful) and then records a
//! per-repetition trace of leg times and byte classes at that point.

use crate::corun::{CorunConfig, SeriesRunner};
use crate::report::Table;
use ghr_types::{Bytes, GhrError, Result, SimTime};

/// One repetition's trace at the examined `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepTrace {
    /// Repetition index (0-based).
    pub rep: u32,
    /// CPU leg time.
    pub t_cpu: SimTime,
    /// GPU leg time.
    pub t_gpu: SimTime,
    /// Combined repetition time (legs overlapped + contention pipe).
    pub t_rep: SimTime,
    /// Bytes the CPU leg read remotely.
    pub cpu_remote: Bytes,
    /// Bytes the GPU leg read remotely.
    pub gpu_remote: Bytes,
    /// Bytes migrated to the GPU during this repetition.
    pub migrated: Bytes,
}

impl RepTrace {
    /// Which resource bounds this repetition.
    pub fn bound_by(&self) -> &'static str {
        if self.t_cpu >= self.t_gpu {
            if self.t_rep > self.t_cpu {
                "lpddr-contention"
            } else {
                "cpu-leg"
            }
        } else if self.t_rep > self.t_gpu {
            "lpddr-contention"
        } else {
            "gpu-leg"
        }
    }
}

/// The full explanation of one co-execution point.
#[derive(Debug, Clone)]
pub struct PointExplanation {
    /// The examined configuration.
    pub config: CorunConfig,
    /// The examined `p` (grid index / steps).
    pub p: f64,
    /// Per-repetition traces.
    pub reps: Vec<RepTrace>,
}

/// Replay a co-execution series up to grid index `p_index` through the
/// co-run series loop (so placement history, advice included, is the
/// one [`crate::corun::run_corun`] prices) and trace every repetition at
/// that point.
pub fn explain_corun_point(
    machine: &ghr_machine::MachineConfig,
    config: &CorunConfig,
    p_index: u32,
) -> Result<PointExplanation> {
    if p_index > config.p_steps {
        return Err(GhrError::invalid(
            "p_index",
            format!("must be <= p_steps ({})", config.p_steps),
        ));
    }
    let mut reps = Vec::new();
    SeriesRunner::new(machine, config).run_to(p_index, |i, rep| {
        if i == p_index {
            reps.push(rep);
        }
    })?;
    Ok(PointExplanation {
        config: *config,
        p: p_index as f64 / config.p_steps as f64,
        reps,
    })
}

impl PointExplanation {
    /// Render the first `head` repetitions plus the final one.
    pub fn to_table(&self, head: usize) -> Table {
        let mut t = Table::new([
            "rep",
            "t_cpu",
            "t_gpu",
            "t_rep",
            "bound by",
            "migrated",
            "cpu remote",
        ]);
        let mut add = |r: &RepTrace| {
            t.row([
                r.rep.to_string(),
                r.t_cpu.to_string(),
                r.t_gpu.to_string(),
                r.t_rep.to_string(),
                r.bound_by().to_string(),
                r.migrated.to_string(),
                r.cpu_remote.to_string(),
            ]);
        };
        for r in self.reps.iter().take(head) {
            add(r);
        }
        if self.reps.len() > head {
            if let Some(last) = self.reps.last() {
                add(last);
            }
        }
        t
    }

    /// Repetitions whose time exceeds the steady state by 2x or more
    /// (the migration warmup the paper describes).
    pub fn warmup_reps(&self) -> usize {
        let steady = match self.reps.last() {
            Some(r) => r.t_rep,
            None => return 0,
        };
        self.reps
            .iter()
            .take_while(|r| r.t_rep.as_secs() > 2.0 * steady.as_secs())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Case;
    use crate::corun::{run_corun, AllocSite};
    use crate::reduction::KernelKind;
    use ghr_machine::MachineConfig;

    fn config(alloc: AllocSite) -> CorunConfig {
        CorunConfig::paper(
            Case::C1,
            KernelKind::Optimized {
                teams_axis: 65536,
                v: 4,
            },
            alloc,
        )
        .scaled(5_000_000, 20)
    }

    #[test]
    fn p0_shows_the_migration_warmup() {
        let e = explain_corun_point(&MachineConfig::gh200(), &config(AllocSite::A1), 0).unwrap();
        assert_eq!(e.reps.len(), 20);
        // First repetition migrates everything; later ones are local.
        assert!(e.reps[0].migrated.0 > 0);
        assert!(e.reps[1].migrated.0 == 0);
        assert!(e.warmup_reps() >= 1);
        assert!(e.reps[0].t_rep > e.reps[19].t_rep);
        assert_eq!(e.reps[0].bound_by(), "gpu-leg");
    }

    #[test]
    fn a1_mid_p_shows_remote_cpu_leg() {
        let e = explain_corun_point(&MachineConfig::gh200(), &config(AllocSite::A1), 3).unwrap();
        // All CPU bytes are remote (pages went to the GPU at p=0).
        let r = &e.reps[5];
        assert!(r.cpu_remote.0 > 0);
        assert_eq!(r.migrated.0, 0);
        assert!((e.p - 0.3).abs() < 1e-12);
    }

    #[test]
    fn a2_mid_p_has_local_cpu_and_fresh_migration() {
        let e = explain_corun_point(&MachineConfig::gh200(), &config(AllocSite::A2), 3).unwrap();
        assert!(e.reps[0].migrated.0 > 0);
        // Boundary page aside, the CPU part stays local.
        let page = MachineConfig::gh200().page_size.0;
        assert!(e.reps[5].cpu_remote.0 <= page);
    }

    #[test]
    fn bad_p_index_rejected() {
        let err =
            explain_corun_point(&MachineConfig::gh200(), &config(AllocSite::A1), 11).unwrap_err();
        assert!(err.to_string().contains("p_index"));
    }

    #[test]
    fn table_includes_head_and_tail() {
        let e = explain_corun_point(&MachineConfig::gh200(), &config(AllocSite::A1), 0).unwrap();
        let t = e.to_table(3);
        assert_eq!(t.len(), 4); // 3 head + 1 tail
        let md = t.to_markdown();
        assert!(md.contains("bound by"));
    }

    #[test]
    fn replayed_reps_add_up_to_the_series_point() {
        let machine = MachineConfig::gh200();
        for alloc in [AllocSite::A1, AllocSite::A2] {
            for advised in [false, true] {
                let cfg = if advised {
                    config(alloc).with_advice()
                } else {
                    config(alloc)
                };
                let series = run_corun(&machine, &cfg).unwrap();
                for p in [0, 3, 10] {
                    let e = explain_corun_point(&machine, &cfg, p).unwrap();
                    let point = &series.points[p as usize];
                    let at = format!("{alloc} advised={advised} p={p}");
                    assert_eq!(e.reps.len(), cfg.n_reps as usize, "{at}");
                    let mut total = SimTime::ZERO;
                    let (mut cpu_remote, mut gpu_remote, mut migrated) =
                        (Bytes::ZERO, Bytes::ZERO, Bytes::ZERO);
                    for r in &e.reps {
                        total += r.t_rep;
                        cpu_remote += r.cpu_remote;
                        gpu_remote += r.gpu_remote;
                        migrated += r.migrated;
                    }
                    assert_eq!(total.0.to_bits(), point.total.0.to_bits(), "{at}");
                    assert_eq!(cpu_remote, point.cpu_remote, "{at}");
                    assert_eq!(gpu_remote, point.gpu_remote, "{at}");
                    assert_eq!(migrated, point.migrated_to_gpu, "{at}");
                }
            }
        }
    }
}
