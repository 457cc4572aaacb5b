//! `ghr loadgen` — drive traffic-shaped load at a live serving tier.
//!
//! The target is a `ghr serve` or `ghr router` endpoint: **`--socket
//! PATH`** (unix) or **`--tcp HOST:PORT`**, driven over persistent
//! connections with the servable request lines as the catalog. A run is
//! a cold pass, a zipf warm pass, and (with `--overload-conns N`) an
//! overload pass that counts the server's `ghr-error reason=overload`
//! rejections — the admission-control degradation contract, measured.
//! With `--failover-pid PID` (the target is typically a `ghr router`
//! socket with PID one of its workers) the run appends a failover A/B: a
//! `failover_before` warm pass, a SIGKILL of the worker, then a
//! `failover_after` pass — the p99 delta between the two rows is the
//! cost of losing a worker mid-run (`--failover-after N` sets the
//! before-pass length).
//!
//! The traffic shape:
//!
//! * **zipf request mix** — arrivals draw catalog indices from a zipf
//!   distribution (`P(i) ∝ 1/(i+1)^s`, `--zipf S` over `--catalog N`
//!   ids), so index 0 is the hot request and the tail is cold;
//! * **closed-loop arrival** — `--conns` workers each keep exactly one
//!   request outstanding; latency is measured from issue, and
//!   throughput is capacity at that concurrency;
//! * **open-loop arrival** (`--rate RPS`) — requests are *scheduled* at a
//!   fixed rate and latency is measured from the scheduled arrival, so
//!   queue delay is part of the number (no coordinated omission).
//!
//! Schedules are deterministic given `--seed` ([`SplitMix64`]). The
//! report is a markdown SLO table per phase, plus per-class rows, on
//! stdout, and the same numbers as JSON in `BENCH_loadgen.json`
//! (override with `--out FILE`, suppress with `--no-out`).

use crate::flags::{count, Arg, Flags};
use ghr_core::report::Table;
use ghr_types::pipeline::{json_escape, json_f64};
use ghr_types::{Endpoint, SplitMix64};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

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
    /// Answered with a `status=error` frame, or a frame that did not read
    /// whole.
    Error,
    /// Rejected by admission control (`ghr-error reason=overload`).
    Overload,
}

/// One load-generating connection: issues the request at a catalog index
/// and reports what came back. A load run drives a serve or router
/// endpoint through it; a test can drive [`run_phase`] through a fake.
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
/// warm-up, start the clock once every worker is warmed, then drain the
/// schedule and merge per-worker latencies into whole-phase and
/// per-class percentiles.
pub fn run_phase<C, F>(spec: &PhaseSpec<'_>, connect: F) -> Result<PhaseMetrics, String>
where
    C: LoadConn,
    F: Fn(usize) -> Result<C, String> + Sync,
{
    let conns = spec.conns.max(1);
    let next = AtomicUsize::new(0);
    // Two barriers bracket the epoch: `ready` (all workers connected and
    // warmed), then `go` (epoch published, clock running).
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
    /// `"socket"` (unix) or `"tcp"`.
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
    pub phases: Vec<PhaseMetrics>,
}

impl LoadReport {
    /// The report as a JSON document (std-only; what `--out` writes).
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
        for (i, m) in self.phases.iter().enumerate() {
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

/// Parsed `ghr loadgen` flags: the load knobs plus the target and the
/// output selection.
struct LoadgenArgs {
    cfg: LoadgenConfig,
    endpoint: Endpoint,
    out: Option<String>,
    failover: Option<Failover>,
}

/// The failover A/B knobs: which process to SIGKILL mid-run and how
/// many warm requests to issue before the kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Failover {
    /// Worker PID to SIGKILL between the before/after passes.
    pid: i32,
    /// Warm requests issued before the kill; `None` splits the warm
    /// schedule in half.
    after: Option<usize>,
}

fn parse_args(rest: &[String]) -> Result<LoadgenArgs, String> {
    let mut cfg = LoadgenConfig::default();
    let mut out = Some("BENCH_loadgen.json".to_string());
    let (mut socket, mut tcp) = (None, None);
    let mut failover_pid: Option<i32> = None;
    let mut failover_after: Option<usize> = None;
    let parse_f64 = |what: &str, s: &str, min: f64| -> Result<f64, String> {
        match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= min => Ok(v),
            _ => Err(format!("bad {what} {s:?} (need a finite number >= {min})")),
        }
    };
    let mut flags = Flags::new(rest);
    while let Some(arg) = flags.next() {
        match arg {
            Arg::Flag("--socket") => socket = Some(flags.value()?.to_string()),
            Arg::Flag("--tcp") => tcp = Some(flags.value()?.to_string()),
            Arg::Flag("--requests") => cfg.requests = count("request count", flags.value()?)?,
            Arg::Flag("--conns") => cfg.conns = count("connection count", flags.value()?)?,
            Arg::Flag("--catalog") => cfg.catalog = count("catalog size", flags.value()?)?,
            Arg::Flag("--zipf") => cfg.zipf_s = parse_f64("zipf exponent", flags.value()?, 0.0)?,
            Arg::Flag("--rate") => {
                let v = parse_f64("arrival rate", flags.value()?, 0.0)?;
                if v <= 0.0 {
                    return Err(format!("bad arrival rate {v:?} (need rps > 0)"));
                }
                cfg.rate = Some(v);
            }
            Arg::Flag("--seed") => {
                let v = flags.value()?;
                cfg.seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed {v:?} (need a u64)"))?;
            }
            Arg::Flag("--overload-conns") => {
                cfg.overload_conns = count("overload connection count", flags.value()?)?
            }
            Arg::Flag("--label") => cfg.label = Some(flags.value()?.to_string()),
            Arg::Flag("--out") => out = Some(flags.value()?.to_string()),
            Arg::Flag("--no-out") => {
                flags.switch()?;
                out = None;
            }
            Arg::Flag("--failover-pid") => {
                let v = flags.value()?;
                failover_pid = Some(match v.parse::<i32>() {
                    Ok(pid) if pid > 1 => pid,
                    _ => return Err(format!("bad worker pid {v:?} (need an integer > 1)")),
                });
            }
            Arg::Flag("--failover-after") => {
                failover_after = Some(count("failover request count", flags.value()?)?)
            }
            _ => return Err(format!("unknown loadgen argument {:?}", flags.raw())),
        }
    }
    let endpoint = match (socket, tcp) {
        (Some(path), None) => Endpoint::unix(path),
        (None, Some(spec)) => Endpoint::tcp(&spec)?,
        (Some(_), Some(_)) => {
            return Err("--socket and --tcp are mutually exclusive (one target tier)".to_string())
        }
        (None, None) => {
            return Err("loadgen needs a target: --socket PATH or --tcp HOST:PORT".to_string())
        }
    };
    let failover = match (failover_pid, failover_after) {
        (Some(pid), after) => Some(Failover { pid, after }),
        (None, Some(_)) => return Err("--failover-after needs --failover-pid".to_string()),
        (None, None) => None,
    };
    Ok(LoadgenArgs {
        cfg,
        endpoint,
        out,
        failover,
    })
}

/// `ghr loadgen (--socket PATH | --tcp HOST:PORT) [--requests N]
/// [--conns N] [--catalog N] [--zipf S] [--rate RPS] [--seed N]
/// [--overload-conns N] [--failover-pid PID [--failover-after N]]
/// [--label L] [--out FILE|--no-out]` — run the load harness and render
/// the per-phase SLO table (plus the JSON report file).
pub fn cmd_loadgen(rest: &[String]) -> Result<String, String> {
    let args = parse_args(rest)?;
    let report = run_socket(&args.endpoint, &args.cfg, args.failover)?;
    let mut out = render_report(&report);
    if let Some(file) = &args.out {
        std::fs::write(file, report.to_json())
            .map_err(|e| format!("cannot write {file:?}: {e}"))?;
        let _ = writeln!(out, "\nwrote {file}");
    }
    Ok(out)
}

/// The per-phase SLO table and the per-class latency rows.
fn render_report(report: &LoadReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "loadgen ({} mode{}): catalog {} ids, zipf s={}, seed {}, {} conns\n",
        report.mode,
        match &report.label {
            Some(label) => format!(", label {label:?}"),
            None => String::new(),
        },
        report.catalog,
        report.zipf_s,
        report.seed,
        report.conns
    );
    let fmt_ms = |v: f64| {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "-".to_string()
        }
    };
    let mut t = Table::new([
        "phase", "arrival", "conns", "requests", "ok", "err", "overload", "rps", "p50 ms",
        "p95 ms", "p99 ms",
    ]);
    for m in &report.phases {
        t.row([
            m.name.clone(),
            m.arrival.clone(),
            m.conns.to_string(),
            m.requests.to_string(),
            m.ok.to_string(),
            m.errors.to_string(),
            m.overloaded.to_string(),
            format!("{:.0}", m.throughput_rps),
            fmt_ms(m.p50_ms),
            fmt_ms(m.p95_ms),
            fmt_ms(m.p99_ms),
        ]);
    }
    out.push_str(&t.to_markdown());
    if report.phases.iter().any(|p| !p.classes.is_empty()) {
        let mut ct = Table::new(["phase", "class", "ok", "p50 ms", "p95 ms", "p99 ms"]);
        for phase in &report.phases {
            for c in &phase.classes {
                ct.row([
                    phase.name.clone(),
                    c.name.clone(),
                    c.ok.to_string(),
                    fmt_ms(c.p50_ms),
                    fmt_ms(c.p95_ms),
                    fmt_ms(c.p99_ms),
                ]);
            }
        }
        out.push('\n');
        out.push_str(&ct.to_markdown());
    }
    out
}

/// The servable request lines a socket run draws from (`--catalog N`
/// takes the first N; the server evaluates each once, then answers from
/// its warm path).
#[cfg(unix)]
const SOCKET_CATALOG: [&str; 7] = [
    "table1", "whatif", "fig1 c1", "fig1 c2", "fig1 c3", "fig1 c4", "autotune",
];

/// Request class per [`SOCKET_CATALOG`] entry, for the per-class latency
/// breakdown: everything scalar-GPU-shaped is `gpu-point`; the study is
/// `what-if`; the overload volley request (a co-run figure) is tagged
/// `corun-series` where it is appended.
#[cfg(unix)]
const SOCKET_CLASSES: [&str; 7] = [
    "gpu-point",
    "what-if",
    "gpu-point",
    "gpu-point",
    "gpu-point",
    "gpu-point",
    "gpu-point",
];

/// The request line the overload volley leads with: a full co-run
/// figure, which costs whole seconds of cold evaluation. That width of
/// admission window guarantees the rest of the volley arrives while the
/// budget is held — on any build profile or core count — where a
/// reserved *catalog* id (milliseconds cold in release builds) made the
/// rejections a scheduler race. Deliberately not part of
/// [`SOCKET_CATALOG`], so the cold/warm phases never pay for it.
#[cfg(unix)]
const OVERLOAD_REQUEST: &str = "fig2a";

/// Drive a live `ghr serve` or `ghr router` endpoint: a closed-loop cold pass
/// over the catalog, a zipf warm pass, and — with `overload_conns > 0` —
/// a closed-loop overload pass counting `reason=overload` rejections
/// (meaningful against a server started with `--max-inflight`). The
/// overload phase opens with a volley of [`OVERLOAD_REQUEST`] from every
/// connection at once: the admitted leader evaluates for seconds (and a
/// coalescing follower holds the second permit) while the rest of the
/// volley — and the warm tail behind it — is deterministically rejected
/// until the leader publishes. Engine counters live in the server
/// process; read the server's `--stats-json` for them.
///
/// With `failover` set the run appends the failover A/B: a closed-loop
/// `failover_before` slice of the warm schedule, a SIGKILL of the named
/// worker, then the `failover_after` remainder over the same (surviving)
/// connections — against a router, its consistent-hash ring re-routes
/// the dead worker's id range to the ring successor, so the after row's
/// p99 (and error count) is the measured price of losing a worker
/// mid-run.
#[cfg(unix)]
fn run_socket(
    endpoint: &Endpoint,
    cfg: &LoadgenConfig,
    failover: Option<Failover>,
) -> Result<LoadReport, String> {
    let n = cfg.catalog.clamp(1, SOCKET_CATALOG.len());
    // Index n — one past the catalog — is the overload volley request.
    let mut catalog: Vec<&str> = SOCKET_CATALOG[..n].to_vec();
    catalog.push(OVERLOAD_REQUEST);
    let catalog = &catalog[..];
    let mut classes: Vec<&str> = SOCKET_CLASSES[..n].to_vec();
    classes.push("corun-series");
    let classes = &classes[..];
    let zipf = Zipf::new(n, cfg.zipf_s);
    let mut rng = SplitMix64::new(cfg.seed);
    let warm_schedule: Vec<usize> = (0..cfg.requests.max(1))
        .map(|_| zipf.sample(rng.next_f64()))
        .collect();
    let cold_schedule: Vec<usize> = (0..n).collect();
    let warm_arrival = match cfg.rate {
        Some(rate_rps) => Arrival::Open { rate_rps },
        None => Arrival::Closed,
    };
    let connect = |_w: usize| socket::SocketConn::connect(endpoint, catalog);
    let run = |name: &str, conns: usize, schedule: &[usize], warmup: &[usize], arrival: Arrival| {
        run_phase(
            &PhaseSpec {
                name,
                conns,
                warmup,
                schedule,
                arrival,
                classes,
            },
            connect,
        )
    };
    let mut phases = vec![
        run(
            "cold",
            cfg.conns.max(1),
            &cold_schedule,
            &[],
            Arrival::Closed,
        )?,
        run("warm", cfg.conns.max(1), &warm_schedule, &[0], warm_arrival)?,
    ];
    if cfg.overload_conns > 0 {
        // The contention volley: every connection's first pop is the
        // slow cold request, so `overload_conns` requests hit the
        // admission budget while the leader is still evaluating.
        let mut overload_schedule = vec![n; cfg.overload_conns];
        overload_schedule.extend_from_slice(&warm_schedule);
        phases.push(run(
            "overload",
            cfg.overload_conns,
            &overload_schedule,
            &[],
            Arrival::Closed,
        )?);
    }
    if let Some(f) = failover {
        let split = f
            .after
            .unwrap_or(warm_schedule.len() / 2)
            .clamp(1, warm_schedule.len());
        phases.push(run(
            "failover_before",
            cfg.conns.max(1),
            &warm_schedule[..split],
            &[0],
            Arrival::Closed,
        )?);
        sigkill(f.pid)?;
        phases.push(run(
            "failover_after",
            cfg.conns.max(1),
            &warm_schedule[split..],
            &[],
            Arrival::Closed,
        )?);
    }
    Ok(LoadReport {
        mode: match endpoint {
            Endpoint::Unix(_) => "socket".to_string(),
            Endpoint::Tcp(_) => "tcp".to_string(),
        },
        label: cfg.label.clone(),
        catalog: n,
        conns: cfg.conns.max(1),
        zipf_s: cfg.zipf_s,
        seed: cfg.seed,
        phases,
    })
}

#[cfg(not(unix))]
fn run_socket(
    _endpoint: &Endpoint,
    _cfg: &LoadgenConfig,
    _failover: Option<Failover>,
) -> Result<LoadReport, String> {
    Err("loadgen's --socket/--tcp clients need a unix platform".to_string())
}

/// SIGKILL one worker process (the failover A/B's fault injection). The
/// same std-only FFI shape as [`crate::serve::sig`]; SIGKILL because the
/// point is an *ungraceful* loss — a drained worker would never surface
/// re-route latency.
#[cfg(unix)]
fn sigkill(pid: i32) -> Result<(), String> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    // The parser already rejects pid <= 1, so this can never signal init
    // or the whole process group.
    match unsafe { kill(pid, SIGKILL) } {
        0 => Ok(()),
        _ => Err(format!(
            "cannot SIGKILL worker pid {pid} (is the worker still running?)"
        )),
    }
}

#[cfg(unix)]
mod socket {
    use super::{LoadConn, Outcome};
    use ghr_types::wire::{self, Frame};
    use ghr_types::{Endpoint, Stream};
    use std::io::{BufReader, Write};

    /// How a load run counts one answer: a `status=ok` response, an
    /// overload rejection, or an error (any other frame, or one that did
    /// not read whole).
    pub(super) fn outcome(frame: std::io::Result<Frame>) -> Outcome {
        match frame {
            Ok(frame) if frame.is_ok() => Outcome::Ok,
            Ok(frame) if frame.reason() == Some(wire::REASON_OVERLOAD) => Outcome::Overload,
            _ => Outcome::Error,
        }
    }

    /// One persistent connection to a serve/router endpoint (unix or
    /// TCP): writes request lines, reads response frames whole (header,
    /// exact body bytes, `ghr-end`).
    pub struct SocketConn<'a> {
        reader: BufReader<Stream>,
        writer: Stream,
        catalog: &'a [&'a str],
    }

    impl<'a> SocketConn<'a> {
        pub fn connect(endpoint: &Endpoint, catalog: &'a [&'a str]) -> Result<Self, String> {
            let stream = endpoint
                .connect()
                .map_err(|e| format!("cannot connect to {endpoint}: {e}"))?;
            let reader = stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream to {endpoint}: {e}"))?;
            Ok(SocketConn {
                reader: BufReader::new(reader),
                writer: stream,
                catalog,
            })
        }
    }

    impl LoadConn for SocketConn<'_> {
        fn issue(&mut self, idx: usize) -> Outcome {
            let line = self.catalog[idx];
            if self
                .writer
                .write_all(format!("{line}\n").as_bytes())
                .and_then(|()| self.writer.flush())
                .is_err()
            {
                return Outcome::Error;
            }
            outcome(Frame::read(&mut self.reader))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// `list` after a `--socket` target, so a parse error is the flag's own.
    fn targeted(list: &[&str]) -> Vec<String> {
        let mut all = args(&["--socket", "/tmp/r.sock"]);
        all.extend(args(list));
        all
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

    /// A connection that answers every request at once.
    struct AlwaysOk;

    impl LoadConn for AlwaysOk {
        fn issue(&mut self, _idx: usize) -> Outcome {
            Outcome::Ok
        }
    }

    #[test]
    fn open_loop_arrival_schedules_at_the_requested_rate() {
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
            |_| Ok(AlwaysOk),
        )
        .unwrap();
        assert_eq!(metrics.ok, 8);
        assert_eq!(metrics.arrival, "open@400rps");
        assert!(metrics.classes.is_empty(), "no labels, no breakdown");
        // 8 arrivals at 400/s schedule the last at t = 17.5 ms; a run of
        // instant answers cannot finish faster than its schedule.
        assert!(metrics.wall_ms >= 15.0, "{metrics:?}");
    }

    #[test]
    fn flag_parsing_covers_both_forms_and_rejects_garbage() {
        let a = parse_args(&targeted(&[
            "--requests=50",
            "--conns",
            "3",
            "--catalog=5",
            "--zipf",
            "0.9",
            "--rate=250",
            "--seed",
            "9",
            "--overload-conns=4",
            "--label",
            "router-2w",
            "--no-out",
        ]))
        .unwrap();
        assert_eq!(a.cfg.requests, 50);
        assert_eq!(a.cfg.conns, 3);
        assert_eq!(a.cfg.catalog, 5);
        assert_eq!(a.cfg.zipf_s, 0.9);
        assert_eq!(a.cfg.rate, Some(250.0));
        assert_eq!(a.cfg.seed, 9);
        assert_eq!(a.cfg.overload_conns, 4);
        assert_eq!(a.cfg.label.as_deref(), Some("router-2w"));
        assert!(a.out.is_none());
        assert_eq!(a.endpoint, Endpoint::unix("/tmp/r.sock"));

        let defaults = parse_args(&targeted(&[])).unwrap();
        assert_eq!(defaults.out.as_deref(), Some("BENCH_loadgen.json"));
        assert!(defaults.cfg.label.is_none());
        assert!(parse_args(&targeted(&["--label"])).is_err());

        assert!(parse_args(&targeted(&["--requests", "0"])).is_err());
        assert!(parse_args(&targeted(&["--zipf", "-1"])).is_err());
        assert!(parse_args(&targeted(&["--rate", "0"])).is_err());
        assert!(parse_args(&targeted(&["--seed", "banana"])).is_err());
        assert!(parse_args(&targeted(&["--frobnicate"])).is_err());
        assert!(parse_args(&targeted(&["--out"])).is_err());

        // Exactly one target.
        let err = parse_args(&args(&["--requests", "50"])).err().unwrap();
        assert!(err.contains("--socket PATH or --tcp HOST:PORT"), "{err}");
        assert!(parse_args(&targeted(&["--tcp", "7070"])).is_err());
        let tcp = parse_args(&args(&["--tcp=7070"])).unwrap();
        assert_eq!(tcp.endpoint, Endpoint::Tcp("127.0.0.1:7070".to_string()));
    }

    #[test]
    fn failover_flags_parse_and_require_a_socket_target() {
        let a = parse_args(&targeted(&[
            "--failover-pid=4242",
            "--failover-after",
            "50",
        ]))
        .unwrap();
        assert_eq!(
            a.failover,
            Some(Failover {
                pid: 4242,
                after: Some(50),
            })
        );
        // The before-pass length defaults to half the warm schedule.
        let half = parse_args(&targeted(&["--failover-pid", "4242"])).unwrap();
        assert_eq!(
            half.failover,
            Some(Failover {
                pid: 4242,
                after: None
            })
        );
        assert!(parse_args(&args(&["--failover-pid", "4242"])).is_err());
        assert!(parse_args(&targeted(&["--failover-after", "50"])).is_err());
        // Never accept pids that could hit init or a process group.
        for pid in ["0", "1", "-7", "banana"] {
            assert!(
                parse_args(&targeted(&["--failover-pid", pid])).is_err(),
                "{pid}"
            );
        }
        assert!(parse_args(&targeted(&["--failover-pid=4242", "--failover-after", "0"])).is_err());
    }

    #[test]
    #[cfg(unix)]
    fn sigkill_fells_a_live_process_and_reports_a_dead_one() {
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        sigkill(child.id() as i32).unwrap();
        let status = child.wait().unwrap();
        assert!(!status.success(), "SIGKILL never exits cleanly");
    }

    #[cfg(unix)]
    #[test]
    fn frame_reader_classifies_frames_and_caps_the_body_claim() {
        use ghr_types::wire::Frame;
        let read = |mut bytes: &[u8]| socket::outcome(Frame::read(&mut bytes));
        let ok =
            b"ghr-response id=0123456789abcdef status=ok bytes=3 evals=0 cached=yes\nok\nghr-end\n";
        assert_eq!(read(ok), Outcome::Ok);
        assert_eq!(
            read(b"ghr-error reason=overload\nghr-end\n"),
            Outcome::Overload
        );
        assert_eq!(
            read(b"ghr-error reason=nul-byte\nghr-end\n"),
            Outcome::Error
        );
        assert_eq!(read(&ok[..ok.len() - 4]), Outcome::Error, "torn trailer");
        // A server claiming ~10 GB of body is an error (the codec refuses
        // the claim before reading any of it).
        assert_eq!(
            read(b"ghr-response id=0123456789abcdef status=ok bytes=9999999999 evals=0 cached=yes\nok\nghr-end\n"),
            Outcome::Error
        );
    }
}
