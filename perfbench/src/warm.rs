//! `serve-warm` and `router-warm`: zipf traffic over every servable
//! request of `ghr all`, answered warm by one `ghr serve`, or by a
//! `ghr router --workers 2` in front of two of them.

use crate::proc::{self, Proc};
use crate::util::{
    median, percentile, span, table1_err_pct, table_max_err_pct, time_slices, Rng, Slice, Until,
    Zipf, SLICE_S,
};
use crate::wire::{read_frame, Client, Frame};
use crate::{Args, Outcome};
use ghr_core::{AllocSite, Case, Engine, Request};
use ghr_machine::MachineConfig;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The store the binary under test fills before any setup is timed.
const STORE: &str = "store";
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Workers behind the router, given explicitly so a change of the
/// router's default cannot change the traffic under the same names.
const WORKERS: &str = "2";
/// Zipf exponent of the traffic over the catalog.
const ZIPF_S: f64 = 1.1;
/// A warm answer later than this is a failed one.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Lines of the routed-vs-direct probe and of each in-process replay.
const PROBE_LINES: usize = 4000;
/// How long the burst probe waits for its 8 frames.
const BURST_DEADLINE: Duration = Duration::from_secs(2);

/// The 26 servable requests of `ghr all` in artifact order, then three
/// render variants that share a request id with an earlier line but not
/// its body — so a render memo keyed by id alone fails the answer check.
/// Each line carries the request it resolves to, for the in-process
/// probes (checked against `route_key`, the program's own resolution).
fn catalog() -> Vec<(String, Request)> {
    let cases = [
        (Case::C1, "c1"),
        (Case::C2, "c2"),
        (Case::C3, "c3"),
        (Case::C4, "c4"),
    ];
    let mut lines = vec![("table1".to_string(), Request::Table1)];
    for (case, label) in cases {
        lines.push((format!("fig1 {label}"), Request::fig1(case)));
    }
    lines.extend([
        (
            "fig2a".into(),
            Request::corun_fig(AllocSite::A1, false, false),
        ),
        (
            "fig2b".into(),
            Request::corun_fig(AllocSite::A1, true, false),
        ),
        ("fig3".into(), Request::speedup_fig(AllocSite::A1)),
        (
            "fig4a".into(),
            Request::corun_fig(AllocSite::A2, false, false),
        ),
        (
            "fig4b".into(),
            Request::corun_fig(AllocSite::A2, true, false),
        ),
        ("fig5".into(), Request::speedup_fig(AllocSite::A2)),
        (
            "summary".into(),
            Request::Study {
                m: None,
                n_reps: None,
            },
        ),
        ("autotune".into(), Request::autotune_all()),
        ("whatif".into(), Request::WhatIf),
    ]);
    for (case, label) in cases {
        lines.push((format!("dot {label}"), Request::dot(case)));
        lines.push((format!("scan {label}"), Request::scan(case)));
        lines.push((format!("gemv {label}"), Request::gemv(case)));
    }
    lines.extend([
        ("table1 --compare".into(), Request::Table1),
        ("fig1 c2 --csv".into(), Request::fig1(Case::C2)),
        (
            "fig2a --plot".into(),
            Request::corun_fig(AllocSite::A1, false, false),
        ),
    ]);
    lines
}

/// Fill the store with every catalog request, using the binary under
/// test (`ghr all`: the paper-scale co-run study, so not part of any
/// setup time).
fn prefill(args: &Args) -> Result<(), String> {
    let log = std::fs::File::create("prefill.log").map_err(|e| e.to_string())?;
    let status = Command::new(&args.ghr)
        .args(["all", "artifacts", "--cache-dir", STORE])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .status()
        .map_err(|e| format!("cannot run ghr all: {e}"))?;
    proc::take_reaped();
    if !status.success() {
        return Err(format!("ghr all failed ({status}); see prefill.log"));
    }
    Ok(())
}

/// A started server (or router) and the frames of its warm pass.
struct Server {
    proc: Proc,
    sock: &'static str,
    client: Client,
    pass: Vec<Frame>,
}

impl Server {
    /// Start, wait for the socket, send every catalog line once: one
    /// setup, returned with its duration in seconds.
    fn start(
        args: &Args,
        router: bool,
        lines: &[String],
        out: &mut Outcome,
    ) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let (sock, log) = if router {
            ("r.sock", "router.log")
        } else {
            ("s.sock", "serve.log")
        };
        let mut argv = vec![
            if router { "router" } else { "serve" },
            "--socket",
            sock,
            "--cache-dir",
            STORE,
        ];
        if router {
            argv.extend(["--workers", WORKERS]);
            if args.trace {
                argv.push("--stats-json");
            }
        }
        let mut proc = Proc::spawn(&args.ghr, &argv, log)?;
        proc.await_socket(sock)?;
        let mut client = Client::connect(sock, READ_TIMEOUT).map_err(|e| format!("{sock}: {e}"))?;
        let mut pass = Vec::with_capacity(lines.len());
        for line in lines {
            let (frame, _) = client
                .roundtrip(line)
                .map_err(|e| format!("{sock}: warm pass {line:?}: {e}"))?;
            out.check(frame.ok());
            pass.push(frame);
        }
        Ok((
            Server {
                proc,
                sock,
                client,
                pass,
            },
            t0.elapsed().as_secs_f64(),
        ))
    }

    /// Stop gracefully; returns the context switches of its life.
    fn stop(self) -> Result<f64, String> {
        drop(self.client);
        self.proc.shutdown(self.sock)
    }

    /// Kill it: a server that stopped answering may not drain either.
    fn kill(self) {
        drop(self.client);
        self.proc.kill();
    }

    /// The server's pid plus, behind a router, its workers'.
    fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.proc.pid];
        pids.extend(proc::descendants(self.proc.pid));
        pids
    }
}

/// The frames of one pass over `lines`, counted as checked answers
/// against `reference`.
fn check_pass(pass: &[Frame], reference: &[Frame], out: &mut Outcome) {
    for (got, want) in pass.iter().zip(reference) {
        out.check(got.same_answer(want));
    }
}

/// Latencies of one window and when each answer completed, in seconds
/// from the window's start.
struct Window {
    lat_us: Vec<f64>,
    done_s: Vec<f64>,
    /// Steal share of each whole slice.
    steal: Vec<f64>,
}

impl Window {
    fn slices(&self) -> Vec<Slice> {
        time_slices(&self.done_s, &self.lat_us, &self.steal)
    }
}

/// One closed-loop window: zipf draws over `lines`, one request in
/// flight, every answer checked against the warm pass.
fn window(
    client: &mut Client,
    lines: &[String],
    reference: &[Frame],
    seed: u64,
    secs: f64,
    corrupt: bool,
    out: &mut Outcome,
) -> Window {
    let zipf = Zipf::new(lines.len(), ZIPF_S);
    let mut rng = Rng::new(seed);
    let mut lat = Vec::with_capacity((secs * 20_000.0) as usize);
    let mut done_s = Vec::with_capacity(lat.capacity());
    let t0 = Instant::now();
    let mut until = Until::new(secs);
    let mut ticks = vec![proc::CpuTicks::now()];
    while until.more() {
        if t0.elapsed().as_secs_f64() >= ticks.len() as f64 * SLICE_S {
            let now = proc::CpuTicks::now();
            until.slice(now.steal_since(&ticks[ticks.len() - 1]));
            ticks.push(now);
        }
        let i = zipf.sample(&mut rng);
        match client.roundtrip(&lines[i]) {
            Ok((mut frame, us)) => {
                if let (true, Some(b)) = (corrupt && lat.is_empty(), frame.body.first_mut()) {
                    *b ^= 0x20;
                }
                out.check(frame.same_answer(&reference[i]));
                lat.push(us);
                done_s.push(t0.elapsed().as_secs_f64());
            }
            Err(e) => {
                out.check(false);
                out.problem(format!("{:?}: {e}", lines[i]));
                break;
            }
        }
    }
    let steal = ticks.windows(2).map(|w| w[1].steal_since(&w[0])).collect();
    Window {
        lat_us: lat,
        done_s,
        steal,
    }
}

pub fn run(args: &Args, router: bool, out: &mut Outcome) -> Result<(), String> {
    let catalog = catalog();
    let lines: Vec<String> = catalog.iter().map(|(l, _)| l.clone()).collect();
    for (line, request) in &catalog {
        if ghr_cli::router::route_key(line) != request.id().0 {
            return Err(format!("{line:?} does not resolve to {}", request.label()));
        }
    }
    prefill(args)?;

    // Router bodies must match what a direct server answers.
    let direct_reference = if router {
        let (direct, _) = Server::start(args, false, &lines, out)?;
        let pass = direct.pass.clone();
        direct.stop()?;
        Some(pass)
    } else {
        None
    };

    let mut setup_s = Vec::new();
    let mut setup_ctx = Vec::new();
    let mut reference: Option<Vec<Frame>> = direct_reference;
    let mut server = loop {
        let (server, secs) = Server::start(args, router, &lines, out)?;
        setup_s.push(secs);
        match &reference {
            Some(r) => check_pass(&server.pass, r, out),
            None => reference = Some(server.pass.clone()),
        }
        if setup_s.len() == SETUPS {
            break server;
        }
        setup_ctx.push(server.stop()?);
    };
    let reference = reference.expect("the first setup sets the reference");
    out.set("setup_s", median(&setup_s));

    let body = |line: &str| {
        let i = lines.iter().position(|l| l == line).expect("catalog line");
        reference[i].body_str().to_string()
    };
    match table1_err_pct(&body("table1 --compare")) {
        Some(v) => out.set("table1_max_err_pct", v),
        None => out.problem("no Table 1 error line in `table1 --compare`".into()),
    }
    match table_max_err_pct(&body("summary")) {
        Some(v) => out.set("sec4_max_err_pct", v),
        None => out.problem("no comparison table in `summary`".into()),
    }

    let worker_ctx0: f64 = server.pids()[1..]
        .iter()
        .map(|&p| proc::ctx_switches(p))
        .sum();
    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let w = window(
        &mut server.client,
        &lines,
        &reference,
        args.seed,
        untraced_secs,
        args.corrupt,
        out,
    );
    let slices = w.slices();
    let rps = out.set_timing(&slices);
    let lat = &w.lat_us;
    out.set(
        "peak_rss_mb",
        server.pids().iter().map(|&p| proc::peak_rss_mb(p)).sum(),
    );
    out.set("store_mb", proc::dir_mb(STORE));
    out.note(format!(
        "{}: {} answers in {untraced_secs} s after {SETUPS} setups",
        args.workload,
        lat.len()
    ));
    if !out.problems.is_empty() {
        server.kill();
        return Ok(());
    }
    if !args.trace {
        server.stop()?;
        return Ok(());
    }

    // Traced replay: the second half of the window, with per-process
    // counters read around it.
    let pids = server.pids();
    let cpu0: Vec<f64> = pids.iter().map(|&p| proc::cpu_us(p)).collect();
    let log0 = proc::file_len(&server.proc.log);
    let worker_logs: Vec<String> = (0..pids.len() - 1)
        .map(|i| format!("r.sock.w{i}.log"))
        .collect();
    let worker_log0: Vec<u64> = worker_logs.iter().map(|l| proc::file_len(l)).collect();
    let traced = window(
        &mut server.client,
        &lines,
        &reference,
        args.seed,
        args.seconds / 2.0,
        false,
        out,
    );
    let tlat = &traced.lat_us;
    let n = tlat.len().max(1) as f64;
    let cpu: Vec<f64> = pids
        .iter()
        .zip(&cpu0)
        .map(|(&p, c0)| proc::cpu_us(p) - c0)
        .collect();
    if !out.problems.is_empty() {
        server.kill();
        return Ok(());
    }
    let traced_rps = Slice::quiet(&traced.slices()).rate;
    out.set("trace.overhead_pct", (rps - traced_rps) / rps * 100.0);

    let line_us_p50 = in_process(args, &catalog, &reference, router, out)?;
    // Context switches over the server's whole life, less a setup-only
    // life's, per request answered after setup (see NOTES.md).
    let setup_ctx = median(&setup_ctx);
    let mut after_setup = lat.len() + tlat.len();
    if router {
        out.set("router.cpu_us_per_req", cpu[0] / n);
        out.set("worker.cpu_us_per_req", cpu[1..].iter().sum::<f64>() / n);
        out.set(
            "router.worker_sessions_per_1k",
            sessions_opened(&worker_logs, &worker_log0) as f64 * 1000.0 / n,
        );
        after_setup += overhead_probe(args, &mut server, &lines, &reference, out)?;
        if !out.problems.is_empty() {
            server.kill();
            return Ok(());
        }
        let worker_ctx = pids[1..]
            .iter()
            .map(|&p| proc::ctx_switches(p))
            .sum::<f64>()
            - worker_ctx0;
        let ctx = server.stop()?;
        out.set(
            "router.ctx_switches_per_req",
            (ctx - setup_ctx - worker_ctx) / after_setup as f64,
        );
        ledger(out)?;
        burst_probe(args, &reference[0], out)
    } else {
        out.set("transport.us_p50", percentile(tlat, 0.5) - line_us_p50);
        out.set("serve.cpu_us_per_req", cpu[0] / n);
        out.set(
            "serve.log_bytes_per_req",
            (proc::file_len(&server.proc.log) - log0) as f64 / n,
        );
        let ctx = server.stop()?;
        out.set(
            "serve.ctx_switches_per_req",
            (ctx - setup_ctx) / after_setup as f64,
        );
        Ok(())
    }
}

/// Worker sessions whose first request line appears in the window's
/// part of the worker logs: connections the router opened.
fn sessions_opened(logs: &[String], from: &[u64]) -> usize {
    let mut opened = 0;
    for (log, &start) in logs.iter().zip(from) {
        let text = std::fs::read(log).unwrap_or_default();
        let split = (start as usize).min(text.len());
        let ids = |bytes: &[u8]| -> std::collections::BTreeSet<u64> {
            String::from_utf8_lossy(bytes)
                .lines()
                .filter(|l| l.contains(" -> "))
                .filter_map(|l| l.strip_prefix("serve[")?.split(']').next()?.parse().ok())
                .collect()
        };
        let before = ids(&text[..split]);
        opened += ids(&text[split..]).difference(&before).count();
    }
    opened
}

/// Routed round trips against direct round trips to the owning worker's
/// own socket, alternating on the same lines. Returns the routed count.
fn overhead_probe(
    args: &Args,
    server: &mut Server,
    lines: &[String],
    reference: &[Frame],
    out: &mut Outcome,
) -> Result<usize, String> {
    let workers = proc::descendants(server.proc.pid).len();
    let ring = ghr_cli::router::HashRing::new(workers);
    let alive = vec![true; workers];
    let mut direct: Vec<Client> = (0..workers)
        .map(|i| Client::connect(&format!("r.sock.w{i}"), READ_TIMEOUT))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("worker socket: {e}"))?;
    let zipf = Zipf::new(lines.len(), ZIPF_S);
    let mut rng = Rng::new(args.seed);
    let (mut routed_us, mut direct_us) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_LINES {
        let i = zipf.sample(&mut rng);
        let owner = ring
            .route(ghr_cli::router::route_key(&lines[i]), &alive)
            .ok_or("empty ring")?;
        let routed = server.client.roundtrip(&lines[i]);
        let direct = direct[owner].roundtrip(&lines[i]);
        match (routed, direct) {
            (Ok((a, us_a)), Ok((b, us_b))) => {
                out.check(a.same_answer(&reference[i]));
                out.check(b.same_answer(&reference[i]));
                routed_us.push(us_a);
                direct_us.push(us_b);
            }
            (routed, direct) => {
                // A timed-out or broken round trip is a failed answer and
                // ends the probe, as in the timed window.
                for (what, r) in [("routed", routed.err()), ("direct", direct.err())] {
                    out.check(r.is_none());
                    if let Some(e) = r {
                        out.problem(format!("{what} {:?}: {e}", lines[i]));
                    }
                }
                break;
            }
        }
    }
    out.set(
        "router.overhead_us_p50",
        percentile(&routed_us, 0.5) - percentile(&direct_us, 0.5),
    );
    Ok(routed_us.len())
}

/// The router's `--stats-json` drain ledger.
fn ledger(out: &mut Outcome) -> Result<(), String> {
    let log = std::fs::read_to_string("router.log").map_err(|e| e.to_string())?;
    let line = log
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"router\""))
        .ok_or("the router printed no --stats-json ledger")?;
    let json = ghr_types::Json::parse(line).map_err(|e| format!("router ledger: {e}"))?;
    let get = |k: &str| {
        json.path(&["router", k])
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    out.set("router.forwarded", get("forwarded"));
    out.set("router.rerouted", get("rerouted"));
    out.set("router.rejected", get("rejected"));
    let share = json
        .path(&["router", "workers"])
        .and_then(|w| w.as_arr())
        .map(|ws| {
            ws.iter()
                .filter_map(|w| w.get("ring_share").and_then(|s| s.as_f64()))
                .fold(0.0, f64::max)
        })
        .unwrap_or(0.0);
    out.set("router.ring_share_max", share);
    Ok(())
}

/// Eight copies of one warm line in one write through a fresh
/// `ghr router --workers 2`: frames not back by the deadline are parked
/// behind the owning worker's session slots. The router is then killed,
/// since a graceful drain would wait out the parked forwards.
fn burst_probe(args: &Args, reference: &Frame, out: &mut Outcome) -> Result<(), String> {
    let sock = "b.sock";
    let mut router = Proc::spawn(
        &args.ghr,
        &[
            "router",
            "--socket",
            sock,
            "--cache-dir",
            STORE,
            "--workers",
            WORKERS,
        ],
        "burst.log",
    )?;
    router.await_socket(sock)?;
    let mut client = Client::connect(sock, READ_TIMEOUT).map_err(|e| e.to_string())?;
    match client.roundtrip("table1") {
        Ok((warm, _)) => out.check(warm.same_answer(reference)),
        Err(e) => {
            out.check(false);
            out.problem(format!("burst probe warm-up: {e}"));
            return Ok(());
        }
    }
    client
        .send_raw("table1\n".repeat(8).as_bytes())
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut back = 0;
    let mut last = 0.0;
    while back < 8 {
        let left = BURST_DEADLINE.saturating_sub(t0.elapsed());
        if left.is_zero() || client.set_timeout(left).is_err() {
            break;
        }
        match client.read_frame() {
            Ok(frame) => {
                out.check(frame.same_answer(reference));
                back += 1;
                last = t0.elapsed().as_secs_f64();
            }
            Err(_) => break,
        }
    }
    out.set("router.burst8_parked", (8 - back) as f64);
    out.set(
        "router.burst8_s",
        if back == 8 {
            last
        } else {
            BURST_DEADLINE.as_secs_f64()
        },
    );
    drop(client);
    router.kill();
    Ok(())
}

/// The serve path in process: `Engine::respond` and `serve_loop` over
/// in-memory pipes on warm lines drawn like the window's, plus the store
/// open and, for the router, `route_key`. Returns `serve.line_us_p50`.
fn in_process(
    args: &Args,
    catalog: &[(String, Request)],
    reference: &[Frame],
    router: bool,
    out: &mut Outcome,
) -> Result<f64, String> {
    let ((engine, first), open_us) = span(|| {
        let engine = Engine::new(MachineConfig::gh200(), 0).with_store_dir(Path::new(STORE));
        let first = engine.respond(&catalog[0].1);
        (engine, first)
    });
    first.map_err(|e| format!("in-process {}: {e}", catalog[0].0))?;
    out.set("store.open_ms", open_us / 1000.0);
    for (line, request) in catalog {
        engine
            .respond(request)
            .map_err(|e| format!("in-process {line}: {e}"))?;
    }
    let zipf = Zipf::new(catalog.len(), ZIPF_S);
    let mut rng = Rng::new(args.seed);
    let inputs: Vec<Vec<u8>> = catalog
        .iter()
        .map(|(l, _)| format!("{l}\n").into_bytes())
        .collect();
    let (mut respond_us, mut line_us, mut key_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut frame = Vec::with_capacity(4096);
    let mut log = Vec::with_capacity(256);
    for _ in 0..PROBE_LINES {
        let i = zipf.sample(&mut rng);
        let (r, us) = span(|| engine.respond(&catalog[i].1));
        r.map_err(|e| e.to_string())?;
        respond_us.push(us);
        frame.clear();
        log.clear();
        let (r, us) =
            span(|| ghr_cli::serve::serve_loop(&engine, &inputs[i][..], &mut frame, &mut log));
        r?;
        line_us.push(us);
        out.check(read_frame(&mut &frame[..]).is_ok_and(|f| f.same_answer(&reference[i])));
        if router {
            let (_, us) = span(|| ghr_cli::router::route_key(&catalog[i].0));
            key_us.push(us);
        }
    }
    let stats = engine.stats();
    let line_us_p50 = percentile(&line_us, 0.5);
    let respond_us_p50 = percentile(&respond_us, 0.5);
    out.set("serve.line_us_p50", line_us_p50);
    out.set("serve.render_us_p50", line_us_p50 - respond_us_p50);
    out.set("engine.respond_us_p50", respond_us_p50);
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
    out.set("engine.stage_log_len", engine.stage_timings().len() as f64);
    out.set("store.rows", engine.store().map_or(0, |s| s.len()) as f64);
    if router {
        out.set("router.route_key_us_p50", percentile(&key_us, 0.5));
    }
    Ok(line_us_p50)
}
