//! Per-repetition diagnostics: *why* a co-execution point performs the way
//! it does.
//!
//! The paper explains its Figure 2/4 shapes narratively (migration in the
//! first iterations, remote CPU reads after A1's `p = 0`, ...). This module
//! makes those narratives inspectable: it replays a co-execution series up
//! to a chosen `p` (so placement history is faithful) and then records a
//! per-repetition trace of leg times and byte classes at that point.

use crate::corun::{AllocSite, CorunConfig};
use crate::pricing::{LegPricer, PricedLeg};
use crate::reduction::ReductionSpec;
use crate::report::Table;
use ghr_mem::{RegionId, UnifiedMemory};
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

/// Replay a co-execution series up to grid index `p_index` and trace every
/// repetition at that point.
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
    let case = config.case;
    let elem_size = case.elem().size_bytes();
    let total_bytes = Bytes(config.m * elem_size);
    let region = ReductionSpec {
        case,
        kind: config.kind,
    }
    .region();
    let pricer = LegPricer::new(machine, config.cpu_threads);
    let mut um = UnifiedMemory::new(machine);
    let mut rid: Option<RegionId> = None;
    if config.alloc == AllocSite::A1 {
        rid = Some(alloc_init(&mut um, total_bytes));
    }

    let mut reps = Vec::new();
    for i in 0..=p_index {
        if config.alloc == AllocSite::A2 {
            if let Some(old) = rid.take() {
                um.free(old);
            }
            rid = Some(alloc_init(&mut um, total_bytes));
        }
        let rid = rid.expect("allocated");
        let len_h = config.m * i as u64 / config.p_steps as u64;
        let len_d = config.m - len_h;
        let len_h_bytes = Bytes(len_h * elem_size);
        let len_d_bytes = Bytes(len_d * elem_size);
        let gpu_base = if len_d > 0 {
            Some(pricer.gpu_model().reduce(&region.resolve_launch(
                len_d,
                case.elem(),
                case.acc(),
            )?)?)
        } else {
            None
        };
        let cpu_base = if len_h > 0 {
            Some(
                pricer
                    .cpu_model()
                    .reduce_local(len_h, case.elem(), config.cpu_threads),
            )
        } else {
            None
        };
        for rep in 0..config.n_reps {
            let migrated_before = um.stats().migrated_to_gpu;
            let cpu_leg = match cpu_base {
                Some(ref cb) => pricer.cpu_leg(&mut um, rid, Bytes::ZERO, len_h_bytes, cb),
                None => PricedLeg::idle(),
            };
            let gpu_leg = match gpu_base {
                Some(ref gb) => pricer.gpu_leg(&mut um, rid, len_h_bytes, len_d_bytes, gb),
                None => PricedLeg::idle(),
            };
            if i == p_index {
                reps.push(RepTrace {
                    rep,
                    t_cpu: cpu_leg.time,
                    t_gpu: gpu_leg.time,
                    t_rep: pricer.rep_time(&cpu_leg, &gpu_leg, config.lpddr_contention),
                    cpu_remote: cpu_leg.outcome.remote,
                    gpu_remote: gpu_leg.outcome.remote,
                    migrated: um.stats().migrated_to_gpu.saturating_sub(migrated_before),
                });
            }
        }
    }

    Ok(PointExplanation {
        config: *config,
        p: p_index as f64 / config.p_steps as f64,
        reps,
    })
}

fn alloc_init(um: &mut UnifiedMemory, bytes: Bytes) -> RegionId {
    let rid = um.alloc(bytes);
    um.cpu_access(rid, Bytes::ZERO, bytes);
    rid
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
}
