//! Declarative experiment requests and their typed responses.
//!
//! A [`Request`] describes *what* the paper-reproduction should compute —
//! a Fig. 1 sweep, Table 1, a set of co-run series, the full Section IV
//! study, the what-if study, or an autotune pass — without saying anything
//! about scheduling, caching or fan-out. The engine's pipeline lowers a
//! request through [`crate::plan::Planner`] into a deduplicated DAG of
//! cacheable work items and walks that DAG with
//! [`crate::exec::Executor`]; every CLI experiment command and every
//! `ghr serve` query is one `Request`.
//!
//! Requests have a *stable* identity ([`Request::id`]): an FNV-1a hash of
//! the deterministic `Debug` render, identical across processes and
//! platforms. The engine memoizes whole responses by that id, so a
//! repeated identical request is answered with zero re-planning.

use std::sync::Arc;

use crate::autotune::TunedConfig;
use crate::case::Case;
use crate::corun::{AllocSite, CorunConfig, CorunSeries};
use crate::kernels::{workload_m, WorkloadResult, GEMV_COLS_DEFAULT};
use crate::reduction::{KernelKind, ReductionSpec};
use crate::study::CorunStudy;
use crate::sweep::{GpuSweep, SweepMode, SweepResult};
use crate::table1::Table1;
use crate::whatif::WhatIfStudy;
use ghr_machine::MachineConfig;
use ghr_types::{Bytes, GhrError, KernelDescriptor, RequestId, Result, WorkloadKind};

/// A declarative description of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A Fig. 1 `(teams, V)` sweep in the given exploration mode.
    Sweep {
        /// The sweep space (case, axes, element count).
        sweep: GpuSweep,
        /// Exhaustive grid or coarse-to-fine refinement.
        mode: SweepMode,
    },
    /// Table 1: the eight kernel timings at the paper's scale.
    Table1,
    /// A set of co-execution series (the Figs. 2/3/4/5 drivers).
    Corun {
        /// The series to evaluate, in output order.
        configs: Vec<CorunConfig>,
    },
    /// The full Section IV study (all sixteen series).
    Study {
        /// Optional element-count override (scaled per case).
        m: Option<u64>,
        /// Optional repetition-count override.
        n_reps: Option<u32>,
    },
    /// The what-if study (runtime-side recovery of the baseline deficit).
    WhatIf,
    /// Autotune: pick the saturating `(teams, V)` per case via a refined
    /// sweep.
    Autotune {
        /// Cases to tune, in output order.
        cases: Vec<Case>,
        /// Optional element-count override (scaled per case).
        m: Option<u64>,
    },
    /// Dot product of two streams, descriptor-timed over the teams axis.
    Dot {
        /// The dtype case.
        case: Case,
        /// Optional element-count override (default: the paper's scale).
        m: Option<u64>,
    },
    /// Inclusive prefix sum, descriptor-timed over the teams axis.
    Scan {
        /// The dtype case.
        case: Case,
        /// Optional element-count override (default: the paper's scale).
        m: Option<u64>,
    },
    /// Row-major GEMV, descriptor-timed over the teams axis.
    Gemv {
        /// The dtype case.
        case: Case,
        /// Row length in elements.
        cols: u32,
        /// Optional element-count override (default: the paper's scale,
        /// rounded down to whole rows).
        m: Option<u64>,
    },
}

impl Request {
    /// Stable identity: FNV-1a over the deterministic `Debug` render.
    pub fn id(&self) -> RequestId {
        RequestId::of(&format!("{self:?}"))
    }

    /// Short human-readable label for plan printouts and stage names.
    pub fn label(&self) -> String {
        match self {
            Request::Sweep { sweep, mode } => format!("sweep {} ({mode})", sweep.case),
            Request::Table1 => "table1".to_string(),
            Request::Corun { configs } => format!("corun x{}", configs.len()),
            Request::Study { .. } => "study".to_string(),
            Request::WhatIf => "whatif".to_string(),
            Request::Autotune { cases, .. } => format!("autotune x{}", cases.len()),
            Request::Dot { case, .. } => format!("dot {case}"),
            Request::Scan { case, .. } => format!("scan {case}"),
            Request::Gemv { case, cols, .. } => format!("gemv {case} cols={cols}"),
        }
    }

    /// The `(kind, case, resolved m)` triple of a workload request, or
    /// `None` for the reduction-era variants. One definition for the
    /// planner's lowering, the executor's assembly and the CLI, so all
    /// three enumerate exactly the same teams-axis items.
    pub fn workload_parts(&self) -> Option<(WorkloadKind, Case, u64)> {
        let (kind, case, m) = match *self {
            Request::Dot { case, m } => (WorkloadKind::Dot, case, m),
            Request::Scan { case, m } => (WorkloadKind::Scan, case, m),
            Request::Gemv { case, cols, m } => (WorkloadKind::Gemv { cols }, case, m),
            _ => return None,
        };
        Some((kind, case, workload_m(kind, case, m)))
    }

    /// Bytes of the largest input array the request puts in memory at
    /// once (saturating; 0 for the fixed paper-scale requests): a
    /// workload's input streams, a sweep's reduction array, or the
    /// biggest of its co-run arrays. Element counts resolve as
    /// [`autotune_sweep`] and the study's configs resolve them, without
    /// building either: this runs before every warm response probe.
    fn input_bytes(&self) -> u64 {
        let array = |case: Case, m: u64| m.saturating_mul(case.elem().size_bytes());
        match self {
            Request::Sweep { sweep, .. } => array(sweep.case, sweep.m),
            Request::Autotune { cases, m } => cases
                .iter()
                .map(|&case| array(case, case.m_scaled(m.unwrap_or(case.m_paper()))))
                .max()
                .unwrap_or(0),
            Request::Corun { configs } => configs
                .iter()
                .map(|cfg| array(cfg.case, cfg.m))
                .max()
                .unwrap_or(0),
            Request::Study { m, .. } => Case::ALL
                .into_iter()
                .map(|case| array(case, m.map_or(case.m_paper(), |m| case.m_scaled(m))))
                .max()
                .unwrap_or(0),
            Request::Dot { .. } | Request::Scan { .. } | Request::Gemv { .. } => {
                let (kind, case, m) = self.workload_parts().expect("a workload request");
                let desc = KernelDescriptor::for_kind(kind, case.elem(), case.acc());
                m.saturating_mul(desc.elem.size_bytes())
                    .saturating_mul(u64::from(desc.input_streams))
            }
            Request::Table1 | Request::WhatIf => 0,
        }
    }

    /// Reject a request before planning: a structurally empty one (an
    /// empty grid would plan, execute and cache successfully but can
    /// assemble no response), or one whose input is larger than the
    /// memory of the machine it would run on (CPU memory plus HBM) — the
    /// real machine could not allocate it, and the simulator would try.
    pub fn validate(&self, machine: &MachineConfig) -> Result<()> {
        let (cpu, hbm) = (machine.cpu.mem_capacity, machine.gpu.hbm_capacity);
        let capacity = cpu.0.saturating_add(hbm.0);
        let bytes = self.input_bytes();
        if bytes > capacity {
            return Err(GhrError::invalid(
                "element count",
                format!(
                    "array larger than the machine: {} reads {bytes} bytes ({}), more than \
                     its {capacity} bytes ({} CPU memory + {} HBM)",
                    self.label(),
                    Bytes(bytes),
                    cpu,
                    hbm,
                ),
            ));
        }
        let empty = |what: &str| Err(GhrError::bad_request(format!("{what} in request")));
        match self {
            Request::Sweep { sweep, .. } => {
                if sweep.teams_axis.is_empty() || sweep.vs.is_empty() {
                    return empty("empty sweep axis");
                }
            }
            Request::Corun { configs } => {
                if configs.is_empty() {
                    return empty("empty co-run config list");
                }
            }
            Request::Autotune { cases, .. } => {
                if cases.is_empty() {
                    return empty("empty autotune case list");
                }
            }
            Request::Dot { m, .. } | Request::Scan { m, .. } => {
                if m == &Some(0) {
                    return Err(GhrError::bad_request("workload with m = 0".to_string()));
                }
            }
            Request::Gemv { case, cols, m } => {
                if *cols == 0 {
                    return Err(GhrError::bad_request("gemv with cols = 0".to_string()));
                }
                if workload_m(WorkloadKind::Gemv { cols: *cols }, *case, *m) == 0 {
                    return Err(GhrError::bad_request(
                        "gemv with fewer elements than one row".to_string(),
                    ));
                }
            }
            Request::Table1 | Request::Study { .. } | Request::WhatIf => {}
        }
        Ok(())
    }

    /// The dot request for one case at the paper's scale.
    pub fn dot(case: Case) -> Self {
        Request::Dot { case, m: None }
    }

    /// The scan request for one case at the paper's scale.
    pub fn scan(case: Case) -> Self {
        Request::Scan { case, m: None }
    }

    /// The GEMV request for one case at the paper's scale with the
    /// default row length.
    pub fn gemv(case: Case) -> Self {
        Request::Gemv {
            case,
            cols: GEMV_COLS_DEFAULT,
            m: None,
        }
    }

    /// The Fig. 1 request for one case at the paper's scale.
    pub fn fig1(case: Case) -> Self {
        Request::Sweep {
            sweep: GpuSweep::paper(case),
            mode: SweepMode::Exhaustive,
        }
    }

    /// The co-run figure request (fig2a/fig2b/fig4a/fig4b): one series per
    /// case for the given allocation site and kernel flavor.
    pub fn corun_fig(alloc: AllocSite, optimized: bool, advice: bool) -> Self {
        Request::Corun {
            configs: Case::ALL
                .into_iter()
                .map(|c| corun_config(c, alloc, optimized, advice))
                .collect(),
        }
    }

    /// The speedup figure request (fig3/fig5): baseline + optimized series
    /// per case, interleaved in `[base, opt]` pairs.
    pub fn speedup_fig(alloc: AllocSite) -> Self {
        Request::Corun {
            configs: Case::ALL
                .into_iter()
                .flat_map(|c| {
                    [
                        corun_config(c, alloc, false, false),
                        corun_config(c, alloc, true, false),
                    ]
                })
                .collect(),
        }
    }

    /// The autotune request for all four cases at the paper's scale.
    pub fn autotune_all() -> Self {
        Request::Autotune {
            cases: Case::ALL.to_vec(),
            m: None,
        }
    }
}

/// The sweep space an [`Request::Autotune`] explores for one case: the
/// paper's axes at the requested (or the paper's own) element count,
/// rounded through [`Case::m_scaled`]. One definition, used by both the
/// planner's lowering and the executor's assembly, so the plan always
/// enumerates exactly the points the assembly reads.
pub fn autotune_sweep(case: Case, m: Option<u64>) -> GpuSweep {
    GpuSweep::paper_scaled(case, m.unwrap_or(case.m_paper()))
}

/// The paper configuration for one co-run series (shared by the CLI and
/// the request constructors so both build identical cache keys).
pub fn corun_config(case: Case, alloc: AllocSite, optimized: bool, advice: bool) -> CorunConfig {
    let kind = if optimized {
        ReductionSpec::optimized_paper(case).kind
    } else {
        KernelKind::Baseline
    };
    let mut cfg = CorunConfig::paper(case, kind, alloc);
    if advice {
        cfg = cfg.with_advice();
    }
    cfg
}

/// The typed result of one executed [`Request`].
#[derive(Debug, Clone)]
pub enum Response {
    /// Result of [`Request::Sweep`].
    Sweep(SweepResult),
    /// Result of [`Request::Table1`].
    Table1(Table1),
    /// Result of [`Request::Corun`], in config order.
    Corun(Vec<Arc<CorunSeries>>),
    /// Result of [`Request::Study`].
    Study(CorunStudy),
    /// Result of [`Request::WhatIf`].
    WhatIf(WhatIfStudy),
    /// Result of [`Request::Autotune`], in case order.
    Autotune(Vec<TunedConfig>),
    /// Result of [`Request::Dot`] / [`Request::Scan`] / [`Request::Gemv`].
    Workload(WorkloadResult),
}

impl Response {
    fn mismatch(&self, wanted: &'static str) -> GhrError {
        GhrError::bad_request(format!("response is not a {wanted}: {self:?}"))
    }

    /// The sweep result, or an error for any other response shape.
    pub fn sweep(&self) -> Result<&SweepResult> {
        match self {
            Response::Sweep(r) => Ok(r),
            other => Err(other.mismatch("sweep")),
        }
    }

    /// The Table 1 result, or an error for any other response shape.
    pub fn table1(&self) -> Result<&Table1> {
        match self {
            Response::Table1(t) => Ok(t),
            other => Err(other.mismatch("table1")),
        }
    }

    /// The co-run series, or an error for any other response shape.
    pub fn corun(&self) -> Result<&[Arc<CorunSeries>]> {
        match self {
            Response::Corun(s) => Ok(s),
            other => Err(other.mismatch("corun series set")),
        }
    }

    /// The full study, or an error for any other response shape.
    pub fn study(&self) -> Result<&CorunStudy> {
        match self {
            Response::Study(s) => Ok(s),
            other => Err(other.mismatch("study")),
        }
    }

    /// The what-if study, or an error for any other response shape.
    pub fn whatif(&self) -> Result<&WhatIfStudy> {
        match self {
            Response::WhatIf(w) => Ok(w),
            other => Err(other.mismatch("what-if study")),
        }
    }

    /// The tuned configs, or an error for any other response shape.
    pub fn autotune(&self) -> Result<&[TunedConfig]> {
        match self {
            Response::Autotune(t) => Ok(t),
            other => Err(other.mismatch("autotune result")),
        }
    }

    /// The workload result, or an error for any other response shape.
    pub fn workload(&self) -> Result<&WorkloadResult> {
        match self {
            Response::Workload(w) => Ok(w),
            other => Err(other.mismatch("workload result")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_distinguish_requests() {
        let a = Request::Table1;
        let b = Request::fig1(Case::C1);
        let c = Request::fig1(Case::C2);
        assert_eq!(a.id(), Request::Table1.id());
        assert_eq!(b.id(), Request::fig1(Case::C1).id());
        assert_ne!(b.id(), c.id());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn mode_is_part_of_the_identity() {
        let exhaustive = Request::Sweep {
            sweep: GpuSweep::paper(Case::C1),
            mode: SweepMode::Exhaustive,
        };
        let refined = Request::Sweep {
            sweep: GpuSweep::paper(Case::C1),
            mode: SweepMode::Refined,
        };
        assert_ne!(exhaustive.id(), refined.id());
    }

    #[test]
    fn empty_requests_are_rejected() {
        let gh200 = MachineConfig::gh200();
        assert!(Request::Corun { configs: vec![] }.validate(&gh200).is_err());
        assert!(Request::Autotune {
            cases: vec![],
            m: None
        }
        .validate(&gh200)
        .is_err());
        let mut sweep = GpuSweep::paper(Case::C1);
        sweep.vs.clear();
        assert!(Request::Sweep {
            sweep,
            mode: SweepMode::Exhaustive
        }
        .validate(&gh200)
        .is_err());
        assert!(Request::Table1.validate(&gh200).is_ok());
        assert!(Request::fig1(Case::C3).validate(&gh200).is_ok());
    }

    #[test]
    fn arrays_larger_than_the_machine_are_rejected() {
        let gh200 = MachineConfig::gh200();
        // 480 GiB of LPDDR5X plus 96 GiB of HBM: a dot of two f32
        // streams fits at 72 Gi elements and not one element more.
        let fits = (480 + 96) * (1u64 << 30) / 8;
        let dot = |m| Request::Dot {
            case: Case::C3,
            m: Some(m),
        };
        assert!(dot(fits).validate(&gh200).is_ok());
        let err = dot(fits + 1).validate(&gh200).unwrap_err();
        assert!(matches!(err, GhrError::InvalidConfig { .. }), "{err:?}");
        assert!(
            err.to_string().contains("array larger than the machine"),
            "{err}"
        );
        // Every request that carries an element count is checked,
        // overflowing counts included.
        let huge = Some(u64::MAX);
        let mut corun = corun_config(Case::C1, AllocSite::A2, true, false);
        corun.m = u64::MAX / 2;
        for request in [
            dot(u64::MAX),
            Request::Scan {
                case: Case::C1,
                m: huge,
            },
            Request::Gemv {
                case: Case::C4,
                cols: 1,
                m: huge,
            },
            Request::Study {
                m: huge,
                n_reps: None,
            },
            Request::Corun {
                configs: vec![corun],
            },
            Request::Autotune {
                cases: vec![Case::C2],
                m: huge,
            },
        ] {
            assert!(request.validate(&gh200).is_err(), "{}", request.label());
        }
        // The paper-scale requests fit.
        for request in [
            Request::Table1,
            Request::WhatIf,
            Request::dot(Case::C2),
            Request::speedup_fig(AllocSite::A1),
            Request::autotune_all(),
        ] {
            assert!(request.validate(&gh200).is_ok(), "{}", request.label());
        }
    }

    #[test]
    fn input_bytes_matches_the_arrays_the_request_builds() {
        let bytes = |case: Case, m: u64| m * case.elem().size_bytes();
        for m in [None, Some(1_000_003), Some(1 << 30)] {
            let study = crate::study::study_configs(m, None)
                .iter()
                .map(|cfg| bytes(cfg.case, cfg.m))
                .max();
            let request = Request::Study { m, n_reps: None };
            assert_eq!(Some(request.input_bytes()), study, "{m:?}");
            let tuned = Case::ALL
                .into_iter()
                .map(|case| bytes(case, autotune_sweep(case, m).m))
                .max();
            let request = Request::Autotune {
                cases: Case::ALL.to_vec(),
                m,
            };
            assert_eq!(Some(request.input_bytes()), tuned, "{m:?}");
        }
    }

    #[test]
    fn response_accessors_enforce_shape() {
        let r = Response::WhatIf(WhatIfStudy {
            rows: Vec::new(),
            optimized_gbps: [0.0; 4],
        });
        assert!(r.whatif().is_ok());
        assert!(matches!(
            r.table1().unwrap_err(),
            GhrError::BadRequest { .. }
        ));
    }

    #[test]
    fn constructors_cover_the_paper_grids() {
        match Request::corun_fig(AllocSite::A1, true, false) {
            Request::Corun { configs } => {
                assert_eq!(configs.len(), 4);
                assert!(configs.iter().all(|c| c.alloc == AllocSite::A1));
            }
            other => panic!("unexpected {other:?}"),
        }
        match Request::speedup_fig(AllocSite::A2) {
            Request::Corun { configs } => {
                assert_eq!(configs.len(), 8);
                assert_eq!(configs[0].kind, KernelKind::Baseline);
                assert!(matches!(configs[1].kind, KernelKind::Optimized { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        match Request::autotune_all() {
            Request::Autotune { cases, m } => {
                assert_eq!(cases, Case::ALL.to_vec());
                assert_eq!(m, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
