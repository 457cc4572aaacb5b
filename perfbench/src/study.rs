//! `study-cold`: never-seen reduced-scale Section IV studies answered in
//! process by `ghr_core::Engine` — 96 co-run series and points through
//! `corun` and the `ghr-mem` unified-memory simulator per answer, a layer
//! no wire request can scale down to. Each round is a fixed count of
//! studies on a fresh engine; rounds repeat until the run's time is up.

use crate::proc;
use crate::util::{mean, median, percentile, span, table_max_err_pct, Fnv, Rng, Slice, Until};
use crate::{Args, Outcome};
use ghr_core::corun::{run_corun, run_corun_point};
use ghr_core::{AllocSite, CorunStudy, Engine, Request, ResponseSource};
use ghr_machine::MachineConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions per co-run point (the paper uses 200).
const REPS: u32 = 10;
/// Element counts are distinct multiples of 320 in one fixed band
/// `[M_LO, M_LO + 320 * M_SLOTS)`, so the seed changes the ids but not
/// the cost.
const M_LO: u64 = 17_600_000;
const M_SLOTS: u64 = 1024;
/// Studies per round: a fixed count, so a round's memory and cost do not
/// depend on how fast the engine is.
const ROUND_STUDIES: usize = 50;
/// Studies re-answered by a fresh engine after the timed rounds.
const SAMPLE: usize = 4;

fn study(m: u64) -> Request {
    Request::Study {
        m: Some(m),
        n_reps: Some(REPS),
    }
}

/// Largest relative error of the seven Section IV quantities at the
/// band's reduced scale (the paper-scale study is the warm workloads').
pub fn reduced_sec4_err_pct() -> Result<f64, String> {
    let engine = Engine::new(MachineConfig::gh200(), 0);
    let r = engine.respond(&study(M_LO)).map_err(|e| e.to_string())?;
    let s = r.response.study().map_err(|e| e.to_string())?;
    table_max_err_pct(&s.summary().to_comparison_table().to_markdown())
        .ok_or_else(|| "empty Section IV comparison".to_string())
}

struct Round {
    setup_s: f64,
    timing: Slice,
    peak_rss_mb: f64,
    /// The answers to the first `SAMPLE` studies, kept for verification
    /// (`None` where the engine answered with an error).
    sample: Vec<Option<Arc<ghr_core::Response>>>,
}

/// One round: a fresh engine, one untimed first answer (part of setup),
/// then every band count once.
fn round(k: usize, ms: &[u64], out: &mut Outcome) -> Result<Round, String> {
    proc::reset_own_peak_rss();
    let t0 = Instant::now();
    let engine = Engine::new(MachineConfig::gh200(), 0);
    let first = engine
        .respond(&study(M_LO - 320 * (k as u64 + 1)))
        .map_err(|e| e.to_string())?;
    out.check(first.source == ResponseSource::Fresh && first.evals > 0);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut lat_us = Vec::with_capacity(ms.len());
    let mut sample = Vec::new();
    let ticks = proc::CpuTicks::now();
    let t1 = Instant::now();
    for &m in ms {
        let (r, us) = span(|| engine.respond(&study(m)));
        lat_us.push(us);
        let answer = match r {
            Ok(r) => {
                out.check(
                    r.source == ResponseSource::Fresh && r.evals > 0 && r.response.study().is_ok(),
                );
                Some(r.response)
            }
            Err(e) => {
                out.check(false);
                out.problem(format!("study m={m}: {e}"));
                None
            }
        };
        if sample.len() < SAMPLE {
            sample.push(answer);
        }
    }
    Ok(Round {
        setup_s,
        timing: Slice::of(
            lat_us,
            t1.elapsed().as_secs_f64(),
            proc::CpuTicks::now().steal_since(&ticks),
        ),
        peak_rss_mb: proc::peak_rss_mb(std::process::id()),
        sample,
    })
}

/// Rounds until `secs` have passed (at least one).
fn rounds(first: usize, secs: f64, ms: &[u64], out: &mut Outcome) -> Result<Vec<Round>, String> {
    let mut until = Until::new(secs);
    let mut done: Vec<Round> = Vec::new();
    while done.is_empty() || until.more() {
        let r = round(first + done.len(), ms, out)?;
        until.slice(r.timing.steal);
        done.push(r);
    }
    Ok(done)
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut slots: Vec<u64> = (0..M_SLOTS).collect();
    Rng::new(args.seed).shuffle(&mut slots);
    let ms: Vec<u64> = slots[..ROUND_STUDIES]
        .iter()
        .map(|k| M_LO + 320 * k)
        .collect();
    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let done = rounds(0, untraced_secs, &ms, out)?;
    let med = |f: &dyn Fn(&Round) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
    let rps = out.set_timing(&done.iter().map(|r| r.timing.clone()).collect::<Vec<_>>());
    out.set("setup_s", med(&|r| r.setup_s));
    out.set("peak_rss_mb", med(&|r| r.peak_rss_mb));

    // Verification, outside the timed rounds: a fresh engine re-answers
    // the seeded sample and must agree field for field; the store it
    // flushes is the workload's on-disk footprint.
    let verifier = Engine::new(MachineConfig::gh200(), 0).with_store_dir(Path::new("verify-store"));
    let mut digest = Fnv::new();
    let mut studies: Vec<CorunStudy> = Vec::new();
    for (i, (kept, &m)) in done[0].sample.iter().zip(&ms).enumerate() {
        // An error answer was already counted as failed.
        let Some(kept) = kept else { continue };
        let again = verifier.respond(&study(m)).map_err(|e| e.to_string())?;
        let (a, b) = (
            kept.study().map_err(|e| e.to_string())?,
            again.response.study().map_err(|e| e.to_string())?,
        );
        let mut kept_text = format!("{a:?}");
        if args.corrupt && i == 0 {
            kept_text = kept_text.replacen("gbps: ", "gbps: 1", 1);
        }
        out.check(kept_text == format!("{b:?}"));
        digest.add(kept_text.as_bytes());
        studies.push(b.clone());
    }
    check_samples(&done[1..], &done[0], out);
    verifier
        .flush_store()
        .map_err(|e| format!("store flush: {e}"))?;
    out.set("store_mb", proc::dir_mb("verify-store"));
    let t1 = verifier.table1().map_err(|e| e.to_string())?;
    out.set("table1_max_err_pct", t1.max_relative_error() * 100.0);
    out.set("sec4_max_err_pct", reduced_sec4_err_pct()?);
    let mem = mem_totals(&studies);
    digest.add(format!("{mem:?}").as_bytes());
    out.note(format!(
        "study-cold: {} rounds of {ROUND_STUDIES} studies; digest seed={} fnv1a={}",
        done.len(),
        args.seed,
        digest.hex()
    ));
    if !args.trace {
        return Ok(());
    }

    let traced = rounds(done.len(), args.seconds / 2.0, &ms, out)?;
    check_samples(&traced, &done[0], out);
    let traced_rps =
        Slice::quiet(&traced.iter().map(|r| r.timing.clone()).collect::<Vec<_>>()).rate;
    out.set("trace.overhead_pct", (rps - traced_rps) / rps * 100.0);
    out.set("mem.migrated_gb", mem[0]);
    out.set("mem.cpu_remote_gb", mem[1]);
    out.set("mem.gpu_remote_gb", mem[2]);
    in_process(&ms, &studies, out)
}

/// Every round answers the same studies on a fresh engine, so each
/// round's sample must match the first round's, field for field.
fn check_samples(rounds: &[Round], first: &Round, out: &mut Outcome) {
    for r in rounds {
        for (a, b) in r.sample.iter().zip(&first.sample) {
            let study = |r: &Option<Arc<ghr_core::Response>>| {
                format!("{:?}", r.as_ref().and_then(|r| r.study().ok()))
            };
            out.check(study(a) == study(b));
        }
    }
}

/// Simulated bytes (GB) migrated, read remotely by the CPU leg and read
/// remotely by the GPU leg, summed over every point of `studies`.
fn mem_totals(studies: &[CorunStudy]) -> [f64; 3] {
    let mut gb = [0.0; 3];
    for s in studies {
        for series in s
            .a1_base
            .iter()
            .chain(&s.a1_opt)
            .chain(&s.a2_base)
            .chain(&s.a2_opt)
        {
            for p in &series.points {
                gb[0] += p.migrated_to_gpu.0 as f64 / 1e9;
                gb[1] += p.cpu_remote.0 as f64 / 1e9;
                gb[2] += p.gpu_remote.0 as f64 / 1e9;
            }
        }
    }
    gb
}

/// The study's layers in process: `Engine::plan`, the executor's stage
/// log, and `corun::run_corun` (A1) / `corun::run_corun_point` (A2) on
/// the configs of the verified sample.
fn in_process(ms: &[u64], studies: &[CorunStudy], out: &mut Outcome) -> Result<(), String> {
    let machine = MachineConfig::gh200();
    let engine = Engine::new(machine.clone(), 0);
    let (mut plan_us, mut items) = (Vec::new(), Vec::new());
    for &m in ms.iter().take(20) {
        let (plan, us) = span(|| engine.plan(&study(m)));
        items.push(plan.map_err(|e| e.to_string())?.work_items() as f64);
        plan_us.push(us);
    }
    out.set("plan.us_p50", percentile(&plan_us, 0.5));
    out.set("plan.items_per_req", mean(&items));

    let sample = ms.len().min(ROUND_STUDIES / 4);
    for &m in &ms[..sample] {
        engine.respond(&study(m)).map_err(|e| e.to_string())?;
    }
    let stats = engine.stats();
    let stages = engine.stage_timings();
    out.set_stage_ms(&stages, sample);
    out.set("engine.response_hit_rate", stats.response_hit_rate());
    out.set(
        "engine.evaluated_per_req",
        stats.evaluated as f64 / stats.requests.max(1) as f64,
    );
    out.set("engine.coalesced", stats.coalesced as f64);
    out.set(
        "engine.replica_log_mb",
        stats.replica_log_bytes as f64 / 1e6,
    );
    out.set("engine.stage_log_len", stages.len() as f64);

    let (mut series_ms, mut point_ms) = (Vec::new(), Vec::new());
    let (mut reps, mut busy_s) = (0.0, 0.0);
    for s in studies {
        for series in s
            .a1_base
            .iter()
            .chain(&s.a1_opt)
            .chain(&s.a2_base)
            .chain(&s.a2_opt)
        {
            let cfg = &series.config;
            if cfg.alloc == AllocSite::A1 {
                let (r, us) = span(|| run_corun(&machine, cfg));
                let r = r.map_err(|e| e.to_string())?;
                out.check(r.points == series.points);
                series_ms.push(us / 1000.0);
                reps += f64::from(cfg.n_reps) * r.points.len() as f64;
                busy_s += us / 1e6;
            } else {
                for (i, want) in series.points.iter().enumerate() {
                    let (p, us) = span(|| run_corun_point(&machine, cfg, i as u32));
                    out.check(p.map_err(|e| e.to_string())? == *want);
                    point_ms.push(us / 1000.0);
                    reps += f64::from(cfg.n_reps);
                    busy_s += us / 1e6;
                }
            }
        }
    }
    out.set("corun.series_ms_p50", percentile(&series_ms, 0.5));
    out.set("corun.point_ms_p50", percentile(&point_ms, 0.5));
    out.set("corun.reps_per_s", reps / busy_s);
    Ok(())
}
