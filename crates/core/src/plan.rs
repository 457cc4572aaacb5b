//! The planner: lower a declarative [`Request`] into a deduplicated DAG
//! of cacheable work items.
//!
//! A [`Plan`] is a sequence of [`Stage`]s. Most stages are *fans* — a flat
//! list of independent [`WorkItem`]s the executor spreads across
//! threads — and stages earlier in the list must complete before later
//! ones run (the refined sweep's binary search needs its coarse pass). A
//! work item that appears twice (inside one request, or across the
//! requests of a combined plan) is planned once; the duplicate is counted
//! in [`Plan::deduped`] instead of being re-evaluated.
//!
//! Planning consults the engine's caches (in-process and persistent)
//! *without executing anything*, so the plan itself predicts how many
//! items will be answered from cache — this is what `ghr plan` prints and
//! what the serve loop uses to report expected work before running it.

use std::collections::HashSet;

use crate::case::Case;
use crate::corun::{AllocSite, CorunConfig};
use crate::engine::Engine;
use crate::reduction::ReductionSpec;
use crate::request::Request;
use crate::study;
use crate::sweep::{GpuSweep, SweepMode};
use crate::whatif;
use ghr_omp::TargetRegion;
use ghr_types::{PlanSummary, RequestId, Result, StagePlan, WorkloadKind};

/// One independently cacheable evaluation — the unit the executor fans
/// across threads and the key both result caches (in-process and
/// persistent) are addressed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkItem {
    /// One GPU kernel timing at a resolved region geometry.
    Gpu {
        /// The resolved target-region geometry.
        region: TargetRegion,
        /// Element count.
        m: u64,
        /// Element type.
        elem: ghr_types::DType,
        /// Accumulator type.
        acc: ghr_types::DType,
        /// Bit pattern of the supply cap in GB/s (`None` = local HBM).
        supply_bits: Option<u64>,
    },
    /// A whole A1 co-run series (stateful across `p`, its atomic unit).
    CorunSeries(CorunConfig),
    /// One `p` point of an A2 co-run series (independent per point).
    CorunPoint(CorunConfig, u32),
    /// One what-if point (`None` = the optimized reference row).
    WhatIf {
        /// The runtime scenario, or `None` for the optimized reference.
        scenario: Option<whatif::RuntimeScenario>,
        /// The evaluation case.
        case: Case,
    },
    /// One descriptor-timed GPU kernel point of a non-reduction workload
    /// (dot / scan / GEMV) at a resolved region geometry.
    Kernel {
        /// Which workload (the full descriptor is derived from this plus
        /// the dtypes, keeping the cache key compact and stable).
        kind: WorkloadKind,
        /// The resolved target-region geometry.
        region: TargetRegion,
        /// Elements of the primary input stream.
        m: u64,
        /// Element type.
        elem: ghr_types::DType,
        /// Accumulator type.
        acc: ghr_types::DType,
    },
}

impl WorkItem {
    /// The GPU timing item for one point of a Fig. 1 sweep.
    pub fn sweep_point(sweep: &GpuSweep, teams: u64, v: u32) -> Self {
        let region = TargetRegion::optimized(teams, v).with_thread_limit(sweep.thread_limit);
        WorkItem::Gpu {
            region,
            m: sweep.m,
            elem: sweep.case.elem(),
            acc: sweep.case.acc(),
            supply_bits: None,
        }
    }

    /// The GPU timing item for a reduction spec at the paper's scale.
    pub fn for_spec(spec: &ReductionSpec) -> Self {
        WorkItem::Gpu {
            region: spec.region(),
            m: spec.case.m_paper(),
            elem: spec.case.elem(),
            acc: spec.case.acc(),
            supply_bits: None,
        }
    }

    /// The descriptor-timed kernel item for one teams value of a workload
    /// request's sweep (at the case's optimized `V`).
    pub fn workload_point(kind: WorkloadKind, case: Case, m: u64, teams: u64) -> Self {
        WorkItem::Kernel {
            kind,
            region: TargetRegion::optimized(teams, case.v_optimized()),
            m,
            elem: case.elem(),
            acc: case.acc(),
        }
    }
}

/// How a stage's work is chosen.
#[derive(Debug, Clone)]
pub enum StageKind {
    /// Independent items, fanned across threads.
    Fan(Vec<WorkItem>),
    /// The refined sweep's adaptive follow-up: a serial binary search per
    /// in-band teams column, whose probes are chosen from the coarse
    /// stage's results at run time.
    RefineSweep(GpuSweep),
}

/// One stage of a plan.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage label (request label + stage part).
    pub name: String,
    /// The stage's work.
    pub kind: StageKind,
    /// Items the planner predicts will be answered from a cache.
    pub predicted_hits: usize,
}

impl Stage {
    /// Enumerated work items (0 for an adaptive stage).
    pub fn items(&self) -> usize {
        match &self.kind {
            StageKind::Fan(items) => items.len(),
            StageKind::RefineSweep(_) => 0,
        }
    }

    /// Whether the stage picks its work adaptively at run time.
    pub fn adaptive(&self) -> bool {
        matches!(self.kind, StageKind::RefineSweep(_))
    }
}

/// A lowered, deduplicated plan for one or more requests.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The requests this plan serves, in response order.
    pub requests: Vec<Request>,
    /// Stable id (the single request's id, or a combined hash).
    pub id: RequestId,
    /// Stages in execution order.
    pub stages: Vec<Stage>,
    /// Duplicate work items dropped during lowering.
    pub deduped: usize,
}

impl Plan {
    /// Total enumerated work items.
    pub fn work_items(&self) -> usize {
        self.stages.iter().map(Stage::items).sum()
    }

    /// Total predicted cache hits.
    pub fn predicted_hits(&self) -> usize {
        self.stages.iter().map(|s| s.predicted_hits).sum()
    }

    /// The crate-agnostic summary (`ghr plan`'s data source).
    pub fn summary(&self) -> PlanSummary {
        PlanSummary {
            request: self
                .requests
                .iter()
                .map(Request::label)
                .collect::<Vec<_>>()
                .join(" + "),
            id: self.id,
            stages: self
                .stages
                .iter()
                .map(|s| StagePlan {
                    name: s.name.clone(),
                    items: s.items(),
                    predicted_hits: s.predicted_hits,
                    adaptive: s.adaptive(),
                })
                .collect(),
            deduped: self.deduped,
        }
    }
}

/// The refined sweep's viability test and axes, shared by the planner,
/// the executor and the assembly so all three take the same branch: the
/// sorted deduplicated `V` axis and the dominating largest `V`, or `None`
/// when the space is degenerate or too small for refinement to undercut
/// the exhaustive grid.
pub(crate) fn refine_axes(sweep: &GpuSweep) -> Option<(Vec<u32>, u32)> {
    let mut vs_sorted = sweep.vs.clone();
    vs_sorted.sort_unstable();
    vs_sorted.dedup();
    // Worst case: the coarse pass plus one binary search per teams value.
    // If that cannot undercut the full grid, refinement has nothing to
    // offer.
    let log2_vs = usize::BITS - vs_sorted.len().leading_zeros();
    let worst = sweep.teams_axis.len() * (1 + log2_vs as usize);
    if vs_sorted.len() < 2 || sweep.teams_axis.is_empty() || worst >= sweep.grid_size() {
        return None;
    }
    let v_max = *vs_sorted.last().expect("non-empty vs");
    Some((vs_sorted, v_max))
}

/// Lowers requests into plans against one engine's caches.
pub struct Planner<'e> {
    engine: &'e Engine,
}

impl<'e> Planner<'e> {
    /// A planner over the engine's caches.
    pub fn new(engine: &'e Engine) -> Self {
        Planner { engine }
    }

    /// Lower one request.
    pub fn plan(&self, request: &Request) -> Result<Plan> {
        self.plan_many(std::slice::from_ref(request))
    }

    /// Lower several requests into one combined plan. Work items are
    /// deduplicated *across* requests — overlapping grids (the optimized
    /// Table 1 rows inside the Fig. 1 sweeps, the fig2 series inside
    /// fig3) are planned once.
    pub fn plan_many(&self, requests: &[Request]) -> Result<Plan> {
        for r in requests {
            r.validate(self.engine.machine())?;
        }
        let mut lowering = Lowering {
            engine: self.engine,
            seen: HashSet::new(),
            stages: Vec::new(),
            deduped: 0,
        };
        for r in requests {
            lowering.lower(r);
        }
        let id = match requests {
            [one] => one.id(),
            many => RequestId::of(&format!("{many:?}")),
        };
        Ok(Plan {
            requests: requests.to_vec(),
            id,
            stages: lowering.stages,
            deduped: lowering.deduped,
        })
    }
}

struct Lowering<'e> {
    engine: &'e Engine,
    seen: HashSet<WorkItem>,
    stages: Vec<Stage>,
    deduped: usize,
}

impl Lowering<'_> {
    /// Append a fan stage, dropping items already planned and counting
    /// predicted cache hits for the rest.
    fn fan(&mut self, name: String, items: impl IntoIterator<Item = WorkItem>) {
        let mut fresh = Vec::new();
        let mut hits = 0;
        for item in items {
            if !self.seen.insert(item) {
                self.deduped += 1;
                continue;
            }
            if self.engine.probe_item(&item) {
                hits += 1;
            }
            fresh.push(item);
        }
        self.stages.push(Stage {
            name,
            kind: StageKind::Fan(fresh),
            predicted_hits: hits,
        });
    }

    fn lower(&mut self, request: &Request) {
        let label = request.label();
        match request {
            Request::Sweep { sweep, mode } => self.lower_sweep(&label, sweep, *mode),
            Request::Table1 => {
                let items = crate::engine::table1_specs()
                    .iter()
                    .map(WorkItem::for_spec)
                    .collect::<Vec<_>>();
                self.fan(format!("{label}: kernels"), items);
            }
            Request::Corun { configs } => {
                self.fan(
                    format!("{label}: series"),
                    configs.iter().flat_map(corun_items),
                );
            }
            Request::Study { m, n_reps } => {
                self.fan(
                    format!("{label}: series"),
                    study::study_configs(*m, *n_reps)
                        .iter()
                        .flat_map(corun_items),
                );
            }
            Request::WhatIf => {
                self.fan(
                    format!("{label}: points"),
                    whatif::point_grid()
                        .into_iter()
                        .map(|(scenario, case)| WorkItem::WhatIf { scenario, case }),
                );
            }
            Request::Autotune { cases, m } => {
                for &case in cases {
                    let sweep = crate::request::autotune_sweep(case, *m);
                    self.lower_sweep(&format!("{label} {case}"), &sweep, SweepMode::Refined);
                }
            }
            Request::Dot { .. } | Request::Scan { .. } | Request::Gemv { .. } => {
                let (kind, case, m) = request
                    .workload_parts()
                    .expect("workload request has workload parts");
                self.fan(
                    format!("{label}: teams"),
                    crate::kernels::WORKLOAD_TEAMS_AXIS
                        .iter()
                        .map(|&t| WorkItem::workload_point(kind, case, m, t)),
                );
            }
        }
    }

    fn lower_sweep(&mut self, label: &str, sweep: &GpuSweep, mode: SweepMode) {
        match mode {
            // A refined sweep over a degenerate space falls back to the
            // exhaustive grid — the same branch the executor's assembly
            // takes.
            SweepMode::Refined => {
                if let Some((_, v_max)) = refine_axes(sweep) {
                    self.fan(
                        format!("{label}: coarse"),
                        sweep
                            .teams_axis
                            .iter()
                            .map(|&t| WorkItem::sweep_point(sweep, t, v_max)),
                    );
                    self.stages.push(Stage {
                        name: format!("{label}: refine"),
                        kind: StageKind::RefineSweep(sweep.clone()),
                        predicted_hits: 0,
                    });
                    return;
                }
                self.lower_sweep(label, sweep, SweepMode::Exhaustive)
            }
            SweepMode::Exhaustive => {
                let mut items = Vec::with_capacity(sweep.grid_size());
                for &v in &sweep.vs {
                    for &teams in &sweep.teams_axis {
                        items.push(WorkItem::sweep_point(sweep, teams, v));
                    }
                }
                self.fan(format!("{label}: grid"), items);
            }
        }
    }
}

/// The work items behind one co-run series: the whole series for A1 (its
/// atomic unit — state crosses `p`), one item per `p` point for A2.
fn corun_items(cfg: &CorunConfig) -> Vec<WorkItem> {
    match cfg.alloc {
        AllocSite::A1 => vec![WorkItem::CorunSeries(*cfg)],
        AllocSite::A2 => (0..=cfg.p_steps)
            .map(|i| WorkItem::CorunPoint(*cfg, i))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghr_machine::MachineConfig;

    fn engine() -> Engine {
        Engine::new(MachineConfig::gh200(), 1)
    }

    #[test]
    fn table1_lowers_to_eight_unique_kernels() {
        let e = engine();
        let plan = Planner::new(&e).plan(&Request::Table1).unwrap();
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.work_items(), 8);
        assert_eq!(plan.deduped, 0);
        assert_eq!(plan.predicted_hits(), 0, "cold engine predicts no hits");
        assert_eq!(plan.id, Request::Table1.id());
    }

    #[test]
    fn exhaustive_sweep_lowers_the_full_grid() {
        let e = engine();
        let req = Request::fig1(Case::C1);
        let plan = Planner::new(&e).plan(&req).unwrap();
        assert_eq!(plan.work_items(), 60);
        assert!(!plan.stages[0].adaptive());
    }

    #[test]
    fn refined_sweep_lowers_coarse_plus_adaptive_refine() {
        let e = engine();
        let req = Request::Sweep {
            sweep: GpuSweep::paper(Case::C2),
            mode: SweepMode::Refined,
        };
        let plan = Planner::new(&e).plan(&req).unwrap();
        assert_eq!(plan.stages.len(), 2);
        assert_eq!(plan.stages[0].items(), 10, "coarse pass = teams axis");
        assert!(plan.stages[1].adaptive());
        let summary = plan.summary();
        assert_eq!(summary.adaptive_stages(), 1);
    }

    #[test]
    fn degenerate_refined_sweep_falls_back_to_exhaustive() {
        let e = engine();
        let mut sweep = GpuSweep::paper(Case::C1);
        sweep.vs = vec![4];
        let plan = Planner::new(&e)
            .plan(&Request::Sweep {
                sweep,
                mode: SweepMode::Refined,
            })
            .unwrap();
        assert_eq!(plan.stages.len(), 1);
        assert!(!plan.stages[0].adaptive());
        assert_eq!(plan.work_items(), 10);
    }

    #[test]
    fn corun_granularity_follows_the_allocation_site() {
        let e = engine();
        let a1 = Request::corun_fig(AllocSite::A1, false, false);
        let plan = Planner::new(&e).plan(&a1).unwrap();
        assert_eq!(plan.work_items(), 4, "A1: one atomic item per series");
        let a2 = Request::corun_fig(AllocSite::A2, false, false);
        let plan = Planner::new(&e).plan(&a2).unwrap();
        assert_eq!(plan.work_items(), 44, "A2: eleven points per series");
    }

    #[test]
    fn combined_plans_dedup_across_requests() {
        let e = engine();
        // fig3's eight series strictly contain fig2a's four.
        let reqs = [
            Request::corun_fig(AllocSite::A1, false, false),
            Request::speedup_fig(AllocSite::A1),
        ];
        let plan = Planner::new(&e).plan_many(&reqs).unwrap();
        assert_eq!(plan.deduped, 4, "fig2a's four series recur in fig3");
        assert_eq!(plan.work_items(), 8);
        assert_eq!(plan.requests.len(), 2);
    }

    #[test]
    fn planning_is_a_dry_run() {
        let e = engine();
        Planner::new(&e).plan(&Request::Table1).unwrap();
        Planner::new(&e).plan(&Request::autotune_all()).unwrap();
        let s = e.stats();
        assert_eq!(s.evaluated, 0, "{s:?}");
        assert_eq!(s.lookups, 0, "planning must not touch the counters");
    }

    #[test]
    fn workload_requests_lower_the_teams_axis() {
        let e = engine();
        for req in [
            Request::dot(Case::C1),
            Request::scan(Case::C3),
            Request::gemv(Case::C2),
        ] {
            let plan = Planner::new(&e).plan(&req).unwrap();
            assert_eq!(plan.stages.len(), 1, "{req:?}");
            assert_eq!(plan.work_items(), 7, "{req:?}");
            assert_eq!(plan.deduped, 0, "{req:?}");
        }
    }

    #[test]
    fn workload_items_dedupe_across_requests_but_kinds_stay_distinct() {
        let e = engine();
        // Two identical dot requests: the second's items all fold away.
        let plan = Planner::new(&e)
            .plan_many(&[Request::dot(Case::C1), Request::dot(Case::C1)])
            .unwrap();
        assert_eq!(plan.work_items(), 7);
        assert_eq!(plan.deduped, 7);
        // Dot and scan over the same case share nothing: the kind is part
        // of the cache key.
        let plan = Planner::new(&e)
            .plan_many(&[Request::dot(Case::C1), Request::scan(Case::C1)])
            .unwrap();
        assert_eq!(plan.work_items(), 14);
        assert_eq!(plan.deduped, 0);
    }

    #[test]
    fn executed_items_are_predicted_as_hits_next_time() {
        let e = engine();
        e.table1().unwrap();
        let plan = Planner::new(&e).plan(&Request::Table1).unwrap();
        assert_eq!(plan.predicted_hits(), 8);
        assert!((plan.summary().predicted_hit_ratio() - 1.0).abs() < 1e-12);
    }
}
