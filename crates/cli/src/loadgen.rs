//! `ghr loadgen` — drive traffic-shaped load at the serving tier.
//!
//! Two targets behind one flag:
//!
//! * **in-process** (default) — [`ghr_core::loadgen::run_in_process`]
//!   drives the engine directly: a cold pass over a class-mixed catalog
//!   (gpu-point / corun-series / corun-point / what-if), a zipf warm
//!   pass over the response cache, and a `warm_recombine` pass of new
//!   request ids assembled purely from warm item caches, reporting
//!   engine hot-path counter deltas and per-class latency rows;
//! * **`--socket PATH`** (or **`--tcp HOST:PORT`**) — a live `ghr
//!   serve`/`ghr router` endpoint is driven over persistent connections
//!   (unix-stream or TCP; same frames either way) with the servable
//!   request lines as the catalog: a cold pass, a zipf warm pass, and (with
//!   `--overload-conns N`) an overload pass that counts the server's
//!   `ghr-error reason=overload` rejections — the admission-control
//!   degradation contract, measured. With `--failover-pid PID` (the
//!   target is typically a `ghr router` socket with PID one of its
//!   workers) the run appends a failover A/B: a `failover_before` warm
//!   pass, a SIGKILL of the worker, then a `failover_after` pass — the
//!   p99 delta between the two rows is the cost of losing a worker
//!   mid-run (`--failover-after N` sets the before-pass length).
//!
//! Both modes share the arrival disciplines (closed-loop, or open-loop
//! at `--rate RPS` with latency charged from the *scheduled* arrival —
//! no coordinated omission), the zipf request mix (`--zipf S` over
//! `--catalog N` ids), and the report shape: a markdown SLO table per
//! phase on stdout plus `BENCH_loadgen.json` (override with `--out
//! FILE`, suppress with `--no-out`).

use crate::flags::{count, Arg, Flags};
use ghr_core::engine::Engine;
use ghr_core::loadgen::{
    run_in_process, run_phase, Arrival, LoadConn, LoadReport, LoadgenConfig, Outcome, PhaseReport,
    PhaseSpec, SplitMix64, Zipf,
};
use ghr_core::report::Table;
use std::fmt::Write as _;

/// Parsed `ghr loadgen` flags: the core knobs plus the CLI-only target
/// and output selection.
struct LoadgenArgs {
    cfg: LoadgenConfig,
    socket: Option<String>,
    tcp: Option<String>,
    out: Option<String>,
    failover: Option<Failover>,
}

/// The failover A/B knobs (`--socket` mode only): which process to
/// SIGKILL mid-run and how many warm requests to issue before the kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Failover {
    /// Worker PID to SIGKILL between the before/after passes.
    pid: i32,
    /// Warm requests issued before the kill; `None` splits the warm
    /// schedule in half.
    after: Option<usize>,
}

fn parse_args(rest: &[String]) -> Result<LoadgenArgs, String> {
    let mut args = LoadgenArgs {
        cfg: LoadgenConfig::default(),
        socket: None,
        tcp: None,
        out: Some("BENCH_loadgen.json".to_string()),
        failover: None,
    };
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
            Arg::Flag("--socket") => args.socket = Some(flags.value()?.to_string()),
            Arg::Flag("--tcp") => args.tcp = Some(flags.value()?.to_string()),
            Arg::Flag("--requests") => args.cfg.requests = count("request count", flags.value()?)?,
            Arg::Flag("--conns") => args.cfg.conns = count("connection count", flags.value()?)?,
            Arg::Flag("--catalog") => args.cfg.catalog = count("catalog size", flags.value()?)?,
            Arg::Flag("--zipf") => {
                args.cfg.zipf_s = parse_f64("zipf exponent", flags.value()?, 0.0)?
            }
            Arg::Flag("--rate") => {
                let v = parse_f64("arrival rate", flags.value()?, 0.0)?;
                if v <= 0.0 {
                    return Err(format!("bad arrival rate {v:?} (need rps > 0)"));
                }
                args.cfg.rate = Some(v);
            }
            Arg::Flag("--seed") => {
                let v = flags.value()?;
                args.cfg.seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed {v:?} (need a u64)"))?;
            }
            Arg::Flag("--overload-conns") => {
                args.cfg.overload_conns = count("overload connection count", flags.value()?)?
            }
            Arg::Flag("--label") => args.cfg.label = Some(flags.value()?.to_string()),
            Arg::Flag("--out") => args.out = Some(flags.value()?.to_string()),
            Arg::Flag("--no-out") => {
                flags.switch()?;
                args.out = None;
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
    if args.socket.is_some() && args.tcp.is_some() {
        return Err("--socket and --tcp are mutually exclusive (one target tier)".to_string());
    }
    match (failover_pid, failover_after) {
        (Some(pid), after) => {
            if args.socket.is_none() && args.tcp.is_none() {
                return Err("--failover-pid needs --socket or --tcp (the failover A/B \
                            drives a live router/serve tier)"
                    .to_string());
            }
            args.failover = Some(Failover { pid, after });
        }
        (None, Some(_)) => return Err("--failover-after needs --failover-pid".to_string()),
        (None, None) => {}
    }
    Ok(args)
}

/// `ghr loadgen [--socket PATH | --tcp HOST:PORT] [--requests N]
/// [--conns N] [--catalog N] [--zipf S] [--rate RPS] [--seed N]
/// [--overload-conns N] [--failover-pid PID [--failover-after N]]
/// [--out FILE|--no-out]` — run the load harness and render the
/// per-phase SLO table (plus the JSON report file).
pub fn cmd_loadgen(engine: &Engine, rest: &[String]) -> Result<String, String> {
    let args = parse_args(rest)?;
    let endpoint = match (&args.socket, &args.tcp) {
        (Some(path), None) => Some(ghr_types::Endpoint::unix(path.clone())),
        (None, Some(spec)) => Some(ghr_types::Endpoint::tcp(spec)?),
        _ => None,
    };
    let report = match &endpoint {
        None => run_in_process(engine, &args.cfg)?,
        Some(endpoint) => run_socket(endpoint, &args.cfg, args.failover)?,
    };
    let mut out = render_report(&report);
    if let Some(file) = &args.out {
        std::fs::write(file, report.to_json())
            .map_err(|e| format!("cannot write {file:?}: {e}"))?;
        let _ = writeln!(out, "\nwrote {file}");
    }
    Ok(out)
}

/// The per-phase SLO table and (when measured) the hot-path counter
/// deltas.
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
    for phase in &report.phases {
        let m = &phase.metrics;
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
    if report.phases.iter().any(|p| !p.metrics.classes.is_empty()) {
        let mut ct = Table::new(["phase", "class", "ok", "p50 ms", "p95 ms", "p99 ms"]);
        for phase in &report.phases {
            for c in &phase.metrics.classes {
                ct.row([
                    phase.metrics.name.clone(),
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
    for phase in &report.phases {
        if let Some(hp) = &phase.hot_path {
            let _ = writeln!(
                out,
                "\n{}: {} response hits, {} coalesced, {} evaluated",
                phase.metrics.name, hp.response_hits, hp.coalesced, hp.evaluated
            );
        }
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

/// Drive a live `ghr serve --socket` server: a closed-loop cold pass
/// over the catalog, a zipf warm pass, and — with `overload_conns > 0` —
/// a closed-loop overload pass counting `reason=overload` rejections
/// (meaningful against a server started with `--max-inflight`). The
/// overload phase opens with a volley of [`OVERLOAD_REQUEST`] from every
/// connection at once: the admitted leader evaluates for seconds (and a
/// coalescing follower holds the second permit) while the rest of the
/// volley — and the warm tail behind it — is deterministically rejected
/// until the leader publishes. Hot-path counters live in the server
/// process, so phases carry none here; read the server's `--stats-json`
/// for them.
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
    endpoint: &ghr_types::Endpoint,
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
            || {},
        )
        .map(|metrics| PhaseReport {
            metrics,
            hot_path: None,
        })
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
            ghr_types::Endpoint::Unix(_) => "socket".to_string(),
            ghr_types::Endpoint::Tcp(_) => "tcp".to_string(),
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
    _endpoint: &ghr_types::Endpoint,
    _cfg: &LoadgenConfig,
    _failover: Option<Failover>,
) -> Result<LoadReport, String> {
    Err("--socket/--tcp need a unix platform; run loadgen in-process instead".to_string())
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
    use ghr_machine::MachineConfig;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing_covers_both_forms_and_rejects_garbage() {
        let a = parse_args(&args(&[
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
        assert!(a.socket.is_none());

        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.out.as_deref(), Some("BENCH_loadgen.json"));
        assert!(defaults.cfg.label.is_none());
        assert!(parse_args(&args(&["--label"])).is_err());

        assert!(parse_args(&args(&["--requests", "0"])).is_err());
        assert!(parse_args(&args(&["--zipf", "-1"])).is_err());
        assert!(parse_args(&args(&["--rate", "0"])).is_err());
        assert!(parse_args(&args(&["--seed", "banana"])).is_err());
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
        assert!(parse_args(&args(&["--out"])).is_err());
    }

    #[test]
    fn failover_flags_parse_and_require_a_socket_target() {
        let a = parse_args(&args(&[
            "--socket",
            "/tmp/r.sock",
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
        let half = parse_args(&args(&["--socket=/tmp/r.sock", "--failover-pid", "4242"])).unwrap();
        assert_eq!(
            half.failover,
            Some(Failover {
                pid: 4242,
                after: None
            })
        );
        // In-process runs have no worker to kill.
        assert!(parse_args(&args(&["--failover-pid", "4242"])).is_err());
        assert!(parse_args(&args(&["--failover-after", "50"])).is_err());
        // Never accept pids that could hit init or a process group.
        for pid in ["0", "1", "-7", "banana"] {
            assert!(
                parse_args(&args(&["--socket=/tmp/r.sock", "--failover-pid", pid])).is_err(),
                "{pid}"
            );
        }
        assert!(parse_args(&args(&[
            "--socket=/tmp/r.sock",
            "--failover-pid=4242",
            "--failover-after",
            "0"
        ]))
        .is_err());
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

    #[test]
    fn in_process_run_renders_the_slo_table_and_writes_json() {
        let engine = Engine::new(MachineConfig::gh200(), 2);
        let dir = std::env::temp_dir().join(format!("ghr-loadgen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("bench.json");
        let out = cmd_loadgen(
            &engine,
            &args(&[
                "--catalog",
                "7",
                "--requests",
                "120",
                "--conns",
                "3",
                "--out",
                file.to_str().unwrap(),
            ]),
        )
        .unwrap();
        assert!(out.contains("| phase"), "{out}");
        for phase in ["cold", "warm", "warm_recombine"] {
            assert!(out.contains(phase), "{out}");
        }
        assert!(out.contains("p99 ms"), "{out}");
        // The per-class latency breakdown table covers every class,
        // including the descriptor-timed workloads.
        assert!(out.contains("| class"), "{out}");
        for class in ghr_core::loadgen::CLASS_NAMES {
            assert!(out.contains(class), "{out}");
        }
        assert!(
            out.contains("warm_recombine: 0 response hits, 0 coalesced, 0 evaluated"),
            "{out}"
        );
        let json = std::fs::read_to_string(&file).unwrap();
        assert!(json.contains("\"bench\": \"loadgen\""), "{json}");
        assert!(json.contains("\"evaluated\": 0"), "{json}");
        assert!(json.contains("\"classes\": ["), "{json}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_out_skips_the_report_file() {
        let engine = Engine::new(MachineConfig::gh200(), 2);
        let out = cmd_loadgen(
            &engine,
            &args(&[
                "--catalog",
                "2",
                "--requests",
                "20",
                "--conns",
                "2",
                "--no-out",
            ]),
        )
        .unwrap();
        assert!(!out.contains("wrote "), "{out}");
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
