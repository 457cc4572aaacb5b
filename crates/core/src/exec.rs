//! The executor: walk a lowered [`Plan`] against the engine's caches.
//!
//! Stages run in plan order — a fan stage spreads its work items over up
//! to the engine's thread count, the caller included
//! (`Engine::map_items`), or runs them on the caller's thread alone when
//! the plan predicted every item to be a cache hit; an adaptive refine
//! stage runs the coarse-to-fine binary search serially on the caller's
//! thread (its probes are chosen from the coarse stage's now-cached
//! results). Each stage is timed and its work accounted (items, fresh
//! evaluations, wall-clock milliseconds) into the engine's stage log,
//! which `--stats-json` reports.
//!
//! After the last stage the executor *assembles* one typed [`Response`]
//! per request, re-reading every point through the same memoized
//! primitives — by construction those reads are pure cache hits, so the
//! assembly is serial, deterministic, and byte-identical to the
//! pre-pipeline drivers at any thread count. The assembly is logged as a
//! final synthetic `assemble` stage whose `evaluated` count should be 0;
//! a nonzero value would mean the plan under-enumerated its request.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::engine::Engine;
use crate::plan::{Plan, StageKind};
use crate::request::Response;
use crate::sweep::{GpuSweep, SweepResult};
use ghr_types::{Result, StageTiming};

/// Walks plans against one engine.
pub struct Executor<'e> {
    engine: &'e Engine,
}

impl<'e> Executor<'e> {
    /// An executor over the engine's caches and thread budget.
    pub fn new(engine: &'e Engine) -> Self {
        Executor { engine }
    }

    /// Run every stage of `plan`, then assemble one response per request
    /// (in request order) from the warm caches.
    pub fn run(&self, plan: &Plan) -> Result<Vec<Arc<Response>>> {
        // Adaptive stages produce results that cannot be reconstructed
        // from the point cache alone (which points they probed is part of
        // the result); carry them to the assembly by sweep.
        let mut refined: HashMap<GpuSweep, SweepResult> = HashMap::new();
        for stage in &plan.stages {
            let t0 = Instant::now();
            let ev0 = self.engine.stats().evaluated;
            match &stage.kind {
                StageKind::Fan(items) => {
                    if !items.is_empty() {
                        self.engine.map_items(items, stage.predicted_hits)?;
                    }
                }
                StageKind::RefineSweep(sweep) => {
                    let result = self.engine.refine_search(sweep)?;
                    refined.insert(sweep.clone(), result);
                }
            }
            self.engine.log_stage(StageTiming {
                name: stage.name.clone(),
                items: stage.items() as u64,
                evaluated: self.engine.stats().evaluated - ev0,
                millis: t0.elapsed().as_secs_f64() * 1e3,
            });
        }

        let t0 = Instant::now();
        let ev0 = self.engine.stats().evaluated;
        let responses = plan
            .requests
            .iter()
            .map(|request| self.engine.assemble(request, &refined).map(Arc::new))
            .collect::<Result<Vec<_>>>()?;
        self.engine.log_stage(StageTiming {
            name: "assemble".to_string(),
            items: plan.requests.len() as u64,
            evaluated: self.engine.stats().evaluated - ev0,
            millis: t0.elapsed().as_secs_f64() * 1e3,
        });
        Ok(responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Case;
    use crate::plan::Planner;
    use crate::request::Request;
    use ghr_machine::MachineConfig;

    #[test]
    fn executing_a_combined_plan_yields_one_response_per_request() {
        let e = Engine::new(MachineConfig::gh200(), 2);
        let reqs = [Request::Table1, Request::WhatIf];
        let plan = Planner::new(&e).plan_many(&reqs).unwrap();
        let responses = Executor::new(&e).run(&plan).unwrap();
        assert_eq!(responses.len(), 2);
        assert!(responses[0].table1().is_ok());
        assert!(responses[1].whatif().is_ok());
    }

    #[test]
    fn assembly_is_pure_cache_hits() {
        let e = Engine::new(MachineConfig::gh200(), 2);
        let req = Request::Sweep {
            sweep: crate::sweep::GpuSweep::paper_scaled(Case::C3, 1 << 20),
            mode: crate::sweep::SweepMode::Refined,
        };
        let plan = Planner::new(&e).plan(&req).unwrap();
        Executor::new(&e).run(&plan).unwrap();
        let assemble = e
            .stage_timings()
            .into_iter()
            .find(|t| t.name == "assemble")
            .expect("assemble stage logged");
        assert_eq!(assemble.evaluated, 0, "assembly re-evaluated points");
    }
}
