//! `ghr loadgen` — a traffic-shaped load harness for the serving tier.
//!
//! The serve tier's claim is throughput under a realistic request mix,
//! and a realistic mix has structure a uniform replay does not: a hot
//! set (a few requests dominate), phases (a cold ramp, then a warm
//! steady state), distinct request *classes* (a scalar point sweep and
//! a co-run series do very different amounts of work), and an arrival
//! discipline. This module generates that traffic and reports the
//! numbers that make the claim falsifiable — throughput and
//! p50/p95/p99 latency per phase and per request class:
//!
//! * **zipf request mix** — arrivals draw catalog indices from a zipf
//!   distribution (`P(i) ∝ 1/(i+1)^s`), so index 0 is the hot request
//!   and the tail is cold, the canonical cache-workload shape;
//! * **request classes** — the catalog mixes `gpu-point` sweeps,
//!   `corun-series` (A1) and `corun-point` (A2) co-run requests, the
//!   `what-if` study, and the descriptor-timed `dot`/`scan`/`gemv`
//!   workloads, so every cache layer carries traffic and the report
//!   breaks latency down per class;
//! * **closed-loop arrival** — `conns` workers each keep exactly one
//!   request outstanding; latency is measured from issue, and
//!   throughput is capacity at that concurrency;
//! * **open-loop arrival** — requests are *scheduled* at a fixed rate
//!   and latency is measured from the scheduled arrival time, so queue
//!   delay is part of the number (the coordinated-omission-free model);
//! * **phases** — a cold pass over the whole catalog, a warm zipf pass
//!   over the response cache, and a `warm_recombine` pass of *new*
//!   request ids assembled entirely from already-published work items,
//!   which drives warm traffic through the point/series/corun layers;
//!   neither warm pass evaluates anything.
//!
//! Everything here is deterministic given the seed (its own SplitMix64;
//! the workspace has no RNG dependency) and std-only, and the report
//! renders itself as `BENCH_loadgen.json` via the shared JSON helpers.
//! The harness drives either an in-process [`Engine`] (this module) or a
//! live `ghr serve --socket` (the CLI's connector) through the one
//! [`LoadConn`] trait.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use crate::case::Case;
use crate::corun::{AllocSite, CorunConfig};
use crate::engine::{Engine, EngineStats};
use crate::kernels::{workload_m, GEMV_COLS_DEFAULT};
use crate::reduction::KernelKind;
use crate::request::Request;
use crate::sweep::{GpuSweep, SweepMode};
use ghr_types::pipeline::{json_escape, json_f64};
use ghr_types::WorkloadKind;

/// SplitMix64: a tiny, high-quality, seedable PRNG (Steele et al.), used
/// for the zipf draws so schedules are reproducible across runs and
/// platforms without an RNG dependency.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipf distribution over `0..n` with exponent `s` (`P(i) ∝ 1/(i+1)^s`):
/// index 0 is the hottest. `s = 0` degenerates to uniform. Sampling is a
/// binary search over the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Distribution over `0..n` (`n >= 1`) with exponent `s >= 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "zipf needs a nonempty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Map a uniform draw `u ∈ [0, 1)` to an index.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) over an ascending-sorted
/// slice of samples. Empty input yields NaN, which the JSON renderer
/// writes as `null`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What one issued request came back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered successfully.
    Ok,
    /// Answered with an error (engine error or `status=error` frame).
    Error,
    /// Rejected by admission control (`ghr-error reason=overload`).
    Overload,
}

/// One load-generating connection: issues the request at a catalog index
/// and reports what came back. Implemented over an in-process engine
/// here and over a `UnixStream` in the CLI.
pub trait LoadConn {
    /// Issue catalog entry `idx` and block until its response.
    fn issue(&mut self, idx: usize) -> Outcome;
}

/// Arrival discipline for a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each connection keeps exactly one request outstanding; latency is
    /// measured from issue.
    Closed,
    /// Requests are scheduled at a fixed aggregate rate; latency is
    /// measured from the *scheduled* arrival, so a backlog shows up as
    /// latency instead of being silently absorbed (no coordinated
    /// omission).
    Open {
        /// Aggregate scheduled arrival rate, requests per second.
        rate_rps: f64,
    },
}

/// One phase of a load run.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec<'a> {
    /// Phase label (`"cold"`, `"warm"`, …).
    pub name: &'a str,
    /// Concurrent connections.
    pub conns: usize,
    /// Catalog indices every connection issues *untimed* before the
    /// clock starts (connection warm-up); empty for none.
    pub warmup: &'a [usize],
    /// Timed arrival order of catalog indices, shared work-queue style
    /// across connections.
    pub schedule: &'a [usize],
    /// Arrival discipline for the timed section.
    pub arrival: Arrival,
    /// Request-class label per catalog index (same indexing as
    /// `schedule` entries); empty disables the per-class breakdown.
    pub classes: &'a [&'a str],
}

/// Latency breakdown for one request class within a phase.
#[derive(Debug, Clone)]
pub struct ClassMetrics {
    /// Class label (`"gpu-point"`, `"corun-series"`, …).
    pub name: String,
    /// Successful requests of this class in the timed section.
    pub ok: u64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
}

/// Measured outcome of one phase.
#[derive(Debug, Clone)]
pub struct PhaseMetrics {
    /// Phase label.
    pub name: String,
    /// Arrival discipline, rendered (`"closed"` or `"open@RATErps"`).
    pub arrival: String,
    /// Connections that drove the phase.
    pub conns: usize,
    /// Requests issued in the timed section.
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Requests rejected by admission control.
    pub overloaded: u64,
    /// Wall-clock duration of the timed section, milliseconds.
    pub wall_ms: f64,
    /// Successful responses per second of wall clock.
    pub throughput_rps: f64,
    /// Median latency of successful requests, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Worst latency, milliseconds.
    pub max_ms: f64,
    /// Per-request-class latency rows (classes that saw traffic, in
    /// first-appearance order of [`PhaseSpec::classes`]); empty when the
    /// phase ran without class labels.
    pub classes: Vec<ClassMetrics>,
}

/// Run one phase: connect `conns` workers via `connect`, run the untimed
/// warm-up, call `on_timed_start` on the coordinating thread once every
/// worker is warmed (the loadgen runner snapshots counters there), then
/// drain the schedule and merge per-worker latencies into whole-phase
/// and per-class percentiles.
pub fn run_phase<C, F>(
    spec: &PhaseSpec<'_>,
    connect: F,
    on_timed_start: impl FnOnce(),
) -> Result<PhaseMetrics, String>
where
    C: LoadConn,
    F: Fn(usize) -> Result<C, String> + Sync,
{
    let conns = spec.conns.max(1);
    let next = AtomicUsize::new(0);
    // Two barriers bracket the counter snapshot: `ready` (all workers
    // connected and warmed), then `go` (epoch published, clock running).
    let ready = Barrier::new(conns + 1);
    let go = Barrier::new(conns + 1);
    let epoch: OnceLock<Instant> = OnceLock::new();
    type WorkerOut = (u64, u64, u64, Vec<(usize, f64)>);
    type PhaseOut = (Vec<(usize, f64)>, (u64, u64, u64, f64));
    let (samples, counts) = std::thread::scope(|s| -> Result<PhaseOut, String> {
        let handles: Vec<_> = (0..conns)
            .map(|w| {
                let (next, ready, go, epoch, connect) = (&next, &ready, &go, &epoch, &connect);
                s.spawn(move || -> Result<WorkerOut, String> {
                    let mut conn = connect(w)?;
                    for &idx in spec.warmup {
                        conn.issue(idx);
                    }
                    ready.wait();
                    go.wait();
                    let epoch = *epoch.get().expect("epoch published before go");
                    let (mut ok, mut errors, mut overloaded) = (0u64, 0u64, 0u64);
                    let mut lat = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= spec.schedule.len() {
                            break;
                        }
                        let issued = match spec.arrival {
                            Arrival::Closed => Instant::now(),
                            Arrival::Open { rate_rps } => {
                                let target = epoch + Duration::from_secs_f64(i as f64 / rate_rps);
                                let now = Instant::now();
                                if target > now {
                                    std::thread::sleep(target - now);
                                }
                                // Scheduled time, not send time: a backlog
                                // is charged to the requests behind it.
                                target
                            }
                        };
                        match conn.issue(spec.schedule[i]) {
                            Outcome::Ok => {
                                ok += 1;
                                lat.push((
                                    spec.schedule[i],
                                    issued.elapsed().as_secs_f64() * 1000.0,
                                ));
                            }
                            Outcome::Error => errors += 1,
                            Outcome::Overload => overloaded += 1,
                        }
                    }
                    Ok((ok, errors, overloaded, lat))
                })
            })
            .collect();
        ready.wait();
        on_timed_start();
        epoch
            .set(Instant::now())
            .expect("run_phase publishes the epoch once");
        go.wait();
        let start = *epoch.get().expect("just published");
        let (mut ok, mut errors, mut overloaded) = (0u64, 0u64, 0u64);
        let mut lat = Vec::new();
        for h in handles {
            let (o, e, ov, l) = h
                .join()
                .map_err(|_| "loadgen worker panicked".to_string())??;
            ok += o;
            errors += e;
            overloaded += ov;
            lat.extend(l);
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        Ok((lat, (ok, errors, overloaded, wall_ms)))
    })?;
    let (ok, errors, overloaded, wall_ms) = counts;
    // Split the tagged samples into the whole-phase series and one
    // series per class label (first-appearance order).
    let mut class_names: Vec<&str> = Vec::new();
    for &name in spec.classes {
        if !class_names.contains(&name) {
            class_names.push(name);
        }
    }
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); class_names.len()];
    let mut lat = Vec::with_capacity(samples.len());
    for (idx, ms) in samples {
        lat.push(ms);
        if let Some(&name) = spec.classes.get(idx) {
            let slot = class_names
                .iter()
                .position(|&n| n == name)
                .expect("class_names covers every label in spec.classes");
            by_class[slot].push(ms);
        }
    }
    lat.sort_by(|a, b| a.total_cmp(b));
    let mean_of = |xs: &[f64]| {
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let classes = class_names
        .into_iter()
        .zip(by_class)
        .filter(|(_, xs)| !xs.is_empty())
        .map(|(name, mut xs)| {
            xs.sort_by(|a, b| a.total_cmp(b));
            ClassMetrics {
                name: name.to_string(),
                ok: xs.len() as u64,
                p50_ms: percentile(&xs, 50.0),
                p95_ms: percentile(&xs, 95.0),
                p99_ms: percentile(&xs, 99.0),
                mean_ms: mean_of(&xs),
            }
        })
        .collect();
    Ok(PhaseMetrics {
        name: spec.name.to_string(),
        arrival: match spec.arrival {
            Arrival::Closed => "closed".to_string(),
            Arrival::Open { rate_rps } => format!("open@{rate_rps}rps"),
        },
        conns,
        requests: spec.schedule.len() as u64,
        ok,
        errors,
        overloaded,
        wall_ms,
        throughput_rps: if wall_ms > 0.0 {
            ok as f64 / (wall_ms / 1000.0)
        } else {
            0.0
        },
        p50_ms: percentile(&lat, 50.0),
        p95_ms: percentile(&lat, 95.0),
        p99_ms: percentile(&lat, 99.0),
        mean_ms: mean_of(&lat),
        max_ms: lat.last().copied().unwrap_or(f64::NAN),
        classes,
    })
}

/// Engine hot-path counter deltas across one phase's timed section.
#[derive(Debug, Clone, Copy)]
pub struct HotPathDelta {
    /// Whole-response cache hits.
    pub response_hits: u64,
    /// Requests coalesced onto an in-flight evaluation.
    pub coalesced: u64,
    /// Points freshly evaluated.
    pub evaluated: u64,
}

fn hot_path_delta(before: &EngineStats, after: &EngineStats) -> HotPathDelta {
    HotPathDelta {
        response_hits: after.response_hits - before.response_hits,
        coalesced: after.coalesced - before.coalesced,
        evaluated: after.evaluated - before.evaluated,
    }
}

/// One phase's metrics plus (for in-process runs) the engine hot-path
/// deltas over its timed section.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Measured throughput/latency numbers.
    pub metrics: PhaseMetrics,
    /// Engine counter deltas; `None` when driving a remote socket.
    pub hot_path: Option<HotPathDelta>,
}

/// Knobs for a load run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Distinct requests in the catalog (the zipf support).
    pub catalog: usize,
    /// Timed arrivals per warm phase.
    pub requests: usize,
    /// Concurrent connections for the cold/warm phases.
    pub conns: usize,
    /// Zipf exponent over the catalog (0 = uniform; ~1 = classic hot set).
    pub zipf_s: f64,
    /// Open-loop aggregate arrival rate for the warm phases; `None` runs
    /// them closed-loop.
    pub rate: Option<f64>,
    /// Seed for the schedule draws.
    pub seed: u64,
    /// Connections for the socket overload phase (0 skips the phase;
    /// meaningful only against a server started with `--max-inflight`).
    pub overload_conns: usize,
    /// Free-form run label (`--label`), stamped into the report and its
    /// JSON so committed `BENCH_*.json` rows are self-describing in
    /// `ghr bench diff` output.
    pub label: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            catalog: 64,
            requests: 4000,
            conns: 8,
            zipf_s: 1.1,
            rate: None,
            seed: 0x5eed,
            overload_conns: 0,
            label: None,
        }
    }
}

/// A whole load run: the config echo plus per-phase reports.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `"in-process"` or `"socket"`.
    pub mode: String,
    /// Free-form run label (`--label`), if one was given.
    pub label: Option<String>,
    /// Catalog size actually used.
    pub catalog: usize,
    /// Connections for the cold/warm phases.
    pub conns: usize,
    /// Zipf exponent.
    pub zipf_s: f64,
    /// Schedule seed.
    pub seed: u64,
    /// The phases, in execution order.
    pub phases: Vec<PhaseReport>,
}

impl LoadReport {
    /// The report as a JSON document (std-only; `BENCH_loadgen.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"bench\": \"loadgen\",\n");
        if let Some(label) = &self.label {
            out.push_str(&format!("  \"label\": \"{}\",\n", json_escape(label)));
        }
        out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape(&self.mode)));
        out.push_str(&format!("  \"catalog\": {},\n", self.catalog));
        out.push_str(&format!("  \"conns\": {},\n", self.conns));
        out.push_str(&format!("  \"zipf_s\": {},\n", json_f64(self.zipf_s)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"phases\": [\n");
        for (i, phase) in self.phases.iter().enumerate() {
            let m = &phase.metrics;
            out.push_str("    {");
            out.push_str(&format!(
                "\"name\": \"{}\", \"arrival\": \"{}\", \"conns\": {}, \
                 \"requests\": {}, \"ok\": {}, \"errors\": {}, \"overloaded\": {}, \
                 \"wall_ms\": {}, \"throughput_rps\": {}, \"latency_ms\": \
                 {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {}, \"max\": {}}}",
                json_escape(&m.name),
                json_escape(&m.arrival),
                m.conns,
                m.requests,
                m.ok,
                m.errors,
                m.overloaded,
                json_f64(m.wall_ms),
                json_f64(m.throughput_rps),
                json_f64(m.p50_ms),
                json_f64(m.p95_ms),
                json_f64(m.p99_ms),
                json_f64(m.mean_ms),
                json_f64(m.max_ms),
            ));
            if !m.classes.is_empty() {
                out.push_str(", \"classes\": [");
                for (j, c) in m.classes.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"name\": \"{}\", \"ok\": {}, \"p50\": {}, \"p95\": {}, \
                         \"p99\": {}, \"mean\": {}}}",
                        json_escape(&c.name),
                        c.ok,
                        json_f64(c.p50_ms),
                        json_f64(c.p95_ms),
                        json_f64(c.p99_ms),
                        json_f64(c.mean_ms),
                    ));
                }
                out.push(']');
            }
            if let Some(hp) = &phase.hot_path {
                out.push_str(&format!(
                    ", \"hot_path\": {{\"response_hits\": {}, \"coalesced\": {}, \
                     \"evaluated\": {}}}",
                    hp.response_hits, hp.coalesced, hp.evaluated,
                ));
            }
            out.push('}');
            if i + 1 < self.phases.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// `n` distinct, cheap-to-evaluate requests: tiny 2×2 sweeps with a
/// per-entry element count (320-aligned, so entries stay distinct work
/// even under `Case::m_scaled`-style rounding) and a rotating case.
pub fn synthetic_catalog(n: usize) -> Vec<Request> {
    (0..n.max(1))
        .map(|i| {
            let case = Case::ALL[i % Case::ALL.len()];
            Request::Sweep {
                sweep: GpuSweep {
                    case,
                    teams_axis: vec![4096, 65536],
                    vs: vec![1, 4],
                    thread_limit: 256,
                    m: (1u64 << 16) + 320 * (i as u64),
                },
                mode: SweepMode::Exhaustive,
            }
        })
        .collect()
}

/// The request-class labels a class catalog draws from, one per
/// warm-path shape: scalar GPU sweeps, A1 co-run series, A2 per-`p`
/// co-run points, the what-if study, and the descriptor-timed dot,
/// scan and GEMV workloads.
pub const CLASS_NAMES: [&str; 7] = [
    "gpu-point",
    "corun-series",
    "corun-point",
    "what-if",
    "dot",
    "scan",
    "gemv",
];

/// `n` distinct, cheap requests spanning every request class, so every
/// cache layer (points, series, per-`p` co-run points, responses)
/// carries load-run traffic. Indices rotate gpu-point →
/// corun-series → corun-point → gpu-point → dot → scan → gemv; index 3
/// is the single `what-if` entry (the study request has no parameters,
/// so it cannot repeat distinctly). Element counts step by 320 per
/// entry, which survives `Case::m_scaled` rounding, keeping every id
/// distinct (workload ids hash the raw `m`, before any GEMV row
/// rounding, so they stay distinct too).
pub fn class_catalog(n: usize) -> Vec<(Request, &'static str)> {
    (0..n.max(1))
        .map(|i| {
            let case = Case::ALL[i % Case::ALL.len()];
            let m = (1u64 << 16) + 320 * (i as u64);
            let corun = |alloc: AllocSite| Request::Corun {
                configs: vec![CorunConfig::paper(case, KernelKind::Baseline, alloc).scaled(m, 2)],
            };
            match i % 7 {
                1 => (corun(AllocSite::A1), "corun-series"),
                2 => (corun(AllocSite::A2), "corun-point"),
                3 if i == 3 => (Request::WhatIf, "what-if"),
                4 => (Request::Dot { case, m: Some(m) }, "dot"),
                5 => (Request::Scan { case, m: Some(m) }, "scan"),
                6 => (
                    Request::Gemv {
                        case,
                        cols: GEMV_COLS_DEFAULT,
                        m: Some(m),
                    },
                    "gemv",
                ),
                _ => (
                    Request::Sweep {
                        sweep: GpuSweep {
                            case,
                            teams_axis: vec![4096, 65536],
                            vs: vec![1, 4],
                            thread_limit: 256,
                            m,
                        },
                        mode: SweepMode::Exhaustive,
                    },
                    "gpu-point",
                ),
            }
        })
        .collect()
}

/// Recombine an already-evaluated [`class_catalog`] into *new* request
/// ids whose work items are all already published: a one-column subset
/// of every exhaustive sweep, pairs of single-config co-run requests
/// merged into one `Request::Corun` each, and every GEMV re-issued at
/// its row-rounded element count (a new id that lowers to the same
/// kernel points). Answering these costs zero fresh evaluations — the
/// planner probes, the executor re-reads, and the assembly stitches
/// entirely from the warm point/series/corun maps — so a timed pass over
/// them drives warm traffic through those layers, not just the response
/// map.
pub fn recombine_catalog(base: &[(Request, &'static str)]) -> Vec<(Request, &'static str)> {
    let mut out = Vec::new();
    let (mut a1, mut a2) = (Vec::new(), Vec::new());
    for (request, _) in base {
        match request {
            Request::Sweep { sweep, .. } if sweep.vs.len() > 1 => {
                let mut sub = sweep.clone();
                sub.vs = vec![*sweep.vs.last().expect("nonempty V axis")];
                out.push((
                    Request::Sweep {
                        sweep: sub,
                        mode: SweepMode::Exhaustive,
                    },
                    "gpu-point",
                ));
            }
            Request::Corun { configs } => {
                for cfg in configs {
                    match cfg.alloc {
                        AllocSite::A1 => a1.push(*cfg),
                        AllocSite::A2 => a2.push(*cfg),
                    }
                }
            }
            Request::Gemv {
                case,
                cols,
                m: Some(raw),
            } => {
                let rounded = workload_m(WorkloadKind::Gemv { cols: *cols }, *case, Some(*raw));
                if rounded != *raw && rounded > 0 {
                    out.push((
                        Request::Gemv {
                            case: *case,
                            cols: *cols,
                            m: Some(rounded),
                        },
                        "gemv",
                    ));
                }
            }
            _ => {}
        }
    }
    for (configs, class) in [(a1, "corun-series"), (a2, "corun-point")] {
        for pair in configs.chunks(2) {
            if pair.len() == 2 {
                out.push((
                    Request::Corun {
                        configs: pair.to_vec(),
                    },
                    class,
                ));
            }
        }
    }
    out
}

/// In-process connection: issues catalog entries straight into the
/// engine, with ids precomputed so the warm path's cost is the cache
/// probe, not request hashing.
struct EngineConn<'a> {
    engine: &'a Engine,
    catalog: &'a [(Request, u64)],
}

impl LoadConn for EngineConn<'_> {
    fn issue(&mut self, idx: usize) -> Outcome {
        let (request, id) = &self.catalog[idx];
        match self.engine.respond_with_id(request, *id) {
            Ok(_) => Outcome::Ok,
            Err(_) => Outcome::Error,
        }
    }
}

/// Drive a load run against an in-process engine: a cold closed-loop
/// pass over the whole class catalog, a warm phase replaying a zipf
/// schedule over it, and a `warm_recombine` phase that issues each
/// recombined request id exactly once — new responses assembled purely
/// from warm item caches, driving traffic through the point/series/corun
/// layers without evaluating.
pub fn run_in_process(engine: &Engine, cfg: &LoadgenConfig) -> Result<LoadReport, String> {
    let n = cfg.catalog.max(1);
    let conns = cfg.conns.max(1);
    let entries = class_catalog(n);
    let catalog: Vec<(Request, u64)> = entries
        .iter()
        .map(|(r, _)| {
            let id = r.id().0;
            (r.clone(), id)
        })
        .collect();
    let classes: Vec<&'static str> = entries.iter().map(|(_, class)| *class).collect();
    let recombined_entries = recombine_catalog(&entries);
    let recombined: Vec<(Request, u64)> = recombined_entries
        .iter()
        .map(|(r, _)| {
            let id = r.id().0;
            (r.clone(), id)
        })
        .collect();
    let recombine_classes: Vec<&'static str> =
        recombined_entries.iter().map(|(_, class)| *class).collect();
    let zipf = Zipf::new(n, cfg.zipf_s);
    let mut rng = SplitMix64::new(cfg.seed);
    let warm_schedule: Vec<usize> = (0..cfg.requests.max(1))
        .map(|_| zipf.sample(rng.next_f64()))
        .collect();
    let cold_schedule: Vec<usize> = (0..n).collect();
    // Each recombined id exactly once: a repeat would be a response hit,
    // not the item-cache assembly the phase exists to measure.
    let recombine_schedule: Vec<usize> = (0..recombined.len()).collect();
    let warm_arrival = match cfg.rate {
        Some(rate_rps) => Arrival::Open { rate_rps },
        None => Arrival::Closed,
    };

    let run = |name: &str,
               catalog: &[(Request, u64)],
               classes: &[&str],
               schedule: &[usize],
               arrival: Arrival|
     -> Result<PhaseReport, String> {
        let before = std::cell::Cell::new(engine.stats());
        let metrics = run_phase(
            &PhaseSpec {
                name,
                conns,
                warmup: &[],
                schedule,
                arrival,
                classes,
            },
            |_| Ok(EngineConn { engine, catalog }),
            || before.set(engine.stats()),
        )?;
        let after = engine.stats();
        Ok(PhaseReport {
            metrics,
            hot_path: Some(hot_path_delta(&before.get(), &after)),
        })
    };

    let phases = vec![
        run("cold", &catalog, &classes, &cold_schedule, Arrival::Closed)?,
        run("warm", &catalog, &classes, &warm_schedule, warm_arrival)?,
        run(
            "warm_recombine",
            &recombined,
            &recombine_classes,
            &recombine_schedule,
            Arrival::Closed,
        )?,
    ];
    Ok(LoadReport {
        mode: "in-process".to_string(),
        label: cfg.label.clone(),
        catalog: n,
        conns,
        zipf_s: cfg.zipf_s,
        seed: cfg.seed,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ResponseSource;
    use ghr_machine::MachineConfig;
    use ghr_types::Json;

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn zipf_is_head_heavy_and_covers_the_support() {
        let zipf = Zipf::new(16, 1.1);
        let mut rng = SplitMix64::new(7);
        let mut counts = [0usize; 16];
        for _ in 0..10_000 {
            counts[zipf.sample(rng.next_f64())] += 1;
        }
        assert!(
            counts[0] > counts[8] && counts[0] > counts[15],
            "{counts:?}"
        );
        assert!(counts[0] > 10_000 / 8, "index 0 must dominate: {counts:?}");
        // Edge draws stay in range.
        assert!(zipf.sample(0.0) < 16);
        assert_eq!(zipf.sample(0.999_999_999), 15);
        // s = 0 is uniform-ish: the head no longer dominates.
        let flat = Zipf::new(4, 0.0);
        assert_eq!(flat.sample(0.26), 1);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn synthetic_catalog_entries_are_distinct_and_valid() {
        let catalog = synthetic_catalog(32);
        assert_eq!(catalog.len(), 32);
        let mut ids: Vec<u64> = catalog.iter().map(|r| r.id().0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 32, "catalog ids must be distinct");
        for r in &catalog {
            r.validate(&MachineConfig::gh200()).unwrap();
        }
    }

    #[test]
    fn class_catalog_spans_all_classes_with_distinct_ids() {
        let catalog = class_catalog(16);
        assert_eq!(catalog.len(), 16);
        let mut ids: Vec<u64> = catalog.iter().map(|(r, _)| r.id().0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16, "catalog ids must be distinct");
        for class in CLASS_NAMES {
            assert!(
                catalog.iter().any(|(_, c)| *c == class),
                "class {class} missing from the catalog"
            );
        }
        for (r, _) in &catalog {
            r.validate(&MachineConfig::gh200()).unwrap();
        }
    }

    #[test]
    fn recombined_ids_are_new_and_answered_without_evaluation() {
        let engine = Engine::new(MachineConfig::gh200(), 2);
        // 16 entries: two of each co-run site (so pairs recombine) and a
        // GEMV whose rounded-m re-issue joins the recombined set.
        let base = class_catalog(16);
        for (r, _) in &base {
            engine.run(r).unwrap();
        }
        let recombined = recombine_catalog(&base);
        assert!(!recombined.is_empty());
        // Every recombined id is distinct from the base catalog and from
        // every other recombined id.
        let mut ids: Vec<u64> = recombined.iter().map(|(r, _)| r.id().0).collect();
        ids.extend(base.iter().map(|(r, _)| r.id().0));
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "recombined ids must be new");

        let before = engine.stats();
        for (r, _) in &recombined {
            let got = engine.respond(r).unwrap();
            assert_eq!(got.source, ResponseSource::Fresh, "{r:?}");
            assert_eq!(got.evals, 0, "recombined {r:?} must re-use warm items");
        }
        let after = engine.stats();
        assert_eq!(after.evaluated, before.evaluated, "no fresh evaluation");
        assert!(
            after.hits > before.hits,
            "recombined requests must drive warm item-cache traffic"
        );
    }

    #[test]
    fn in_process_run_proves_the_wait_free_warm_phase() {
        let engine = Engine::new(MachineConfig::gh200(), 2);
        let cfg = LoadgenConfig {
            catalog: 8,
            requests: 200,
            conns: 4,
            zipf_s: 1.1,
            rate: None,
            seed: 7,
            overload_conns: 0,
            label: Some("unit-run".to_string()),
        };
        let report = run_in_process(&engine, &cfg).unwrap();
        assert_eq!(report.label.as_deref(), Some("unit-run"));
        assert!(
            report.to_json().contains("\"label\": \"unit-run\""),
            "label must be stamped into the JSON report"
        );
        assert_eq!(report.phases.len(), 3);
        let names: Vec<&str> = report
            .phases
            .iter()
            .map(|p| p.metrics.name.as_str())
            .collect();
        assert_eq!(names, ["cold", "warm", "warm_recombine"]);
        let cold = &report.phases[0];
        assert_eq!(cold.metrics.ok, 8);
        assert!(cold.hot_path.unwrap().evaluated > 0);
        // The cold pass covers the whole catalog, so every request class
        // gets a latency row, and the rows partition the ok count.
        let cold_classes: Vec<&str> = cold
            .metrics
            .classes
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        for class in CLASS_NAMES {
            assert!(cold_classes.contains(&class), "{cold_classes:?}");
        }
        let class_ok: u64 = cold.metrics.classes.iter().map(|c| c.ok).sum();
        assert_eq!(class_ok, cold.metrics.ok);
        let warm = &report.phases[1];
        assert_eq!(warm.metrics.ok, 200);
        assert_eq!(warm.metrics.errors, 0);
        assert!(warm.metrics.throughput_rps > 0.0);
        assert!(warm.metrics.p99_ms >= warm.metrics.p50_ms);
        assert!(!warm.metrics.classes.is_empty());
        let warm = warm.hot_path.unwrap();
        assert_eq!(
            warm.evaluated, 0,
            "the warm phase must be pure cache traffic"
        );
        assert_eq!(warm.response_hits + warm.coalesced, 200);
        // The recombine phase: every id is new (zero response hits) and
        // nothing is evaluated — the point/series/corun maps answer the
        // whole assembly.
        let recombine = &report.phases[2];
        assert!(recombine.metrics.ok > 0);
        assert_eq!(recombine.metrics.errors, 0);
        assert!(!recombine.metrics.classes.is_empty());
        let hp = recombine.hot_path.unwrap();
        assert_eq!(hp.evaluated, 0, "recombined ids assemble from warm caches");
        assert_eq!(hp.response_hits, 0, "every recombined id is new");
        let json = report.to_json();
        for key in [
            "\"bench\": \"loadgen\"",
            "\"name\": \"cold\"",
            "\"name\": \"warm\"",
            "\"name\": \"warm_recombine\"",
            "\"p50\"",
            "\"p95\"",
            "\"p99\"",
            "\"classes\": [",
            "\"name\": \"gpu-point\"",
            "\"name\": \"corun-series\"",
            "\"name\": \"corun-point\"",
            "\"name\": \"what-if\"",
            "\"evaluated\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        Json::parse(&json).expect("the report parses back");
    }

    #[test]
    fn open_loop_arrival_schedules_at_the_requested_rate() {
        let engine = Engine::new(MachineConfig::gh200(), 1);
        let catalog: Vec<(Request, u64)> = synthetic_catalog(2)
            .into_iter()
            .map(|r| {
                let id = r.id().0;
                (r, id)
            })
            .collect();
        // Pre-warm so the timed section is cache traffic.
        for (r, _) in &catalog {
            engine.run(r).unwrap();
        }
        let schedule = [0usize, 1, 0, 1, 0, 1, 0, 1];
        let metrics = run_phase(
            &PhaseSpec {
                name: "open",
                conns: 2,
                warmup: &[0],
                schedule: &schedule,
                arrival: Arrival::Open { rate_rps: 400.0 },
                classes: &[],
            },
            |_| {
                Ok(EngineConn {
                    engine: &engine,
                    catalog: &catalog,
                })
            },
            || {},
        )
        .unwrap();
        assert_eq!(metrics.ok, 8);
        assert_eq!(metrics.arrival, "open@400rps");
        assert!(metrics.classes.is_empty(), "no labels, no breakdown");
        // 8 arrivals at 400/s schedule the last at t = 17.5 ms; an
        // all-warm run cannot finish faster than its schedule.
        assert!(metrics.wall_ms >= 15.0, "{metrics:?}");
    }
}
