//! `cold-stream`: never-seen `dot|scan|gemv <case> --m N` lines, each
//! planned, priced, placed, checksummed and flushed to the store. Each
//! round is a fixed count of lines sent to a fresh `ghr serve` over an
//! empty on-disk store; rounds repeat until the run's time is up.

use crate::proc::{self, Proc};
use crate::util::{mean, median, percentile, span, table1_err_pct, Fnv, Rng, Slice, Until};
use crate::wire::Client;
use crate::{Args, Outcome};
use ghr_core::kernels::{first_touch_placement, functional_checksum, GEMV_COLS_DEFAULT};
use ghr_core::{Case, Engine, Request, ResponseSource};
use ghr_machine::MachineConfig;
use ghr_omp::TargetRegion;
use ghr_types::{KernelDescriptor, WorkloadKind};
use std::path::Path;
use std::time::{Duration, Instant};

/// Lines per round. The store flush after each line rewrites the whole
/// file, so a round's cost grows with its length: the count is fixed so
/// rounds stay comparable.
const ROUND_LINES: usize = 100;
/// Element counts are `M_BASE + M_STEP * k` for distinct `k < M_SLOTS`:
/// one fixed band, so the seed changes the ids but not the cost. The step
/// is a whole default GEMV row, so every count resolves to its own
/// element count and no line shares a work item with another.
const M_BASE: u64 = 1 << 22;
const M_STEP: u64 = GEMV_COLS_DEFAULT as u64;
const M_SLOTS: u64 = 1024;
/// A cold answer later than this is a failed one.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One request line with what it resolves to.
struct Line {
    text: String,
    request: Request,
    kind: WorkloadKind,
    case: Case,
    m: u64,
}

/// The round's lines: the 12 (kind, case) pairs in a fixed rotation so
/// every seed has the same mix, each with a distinct seeded count.
fn lines(seed: u64) -> Vec<Line> {
    let mut slots: Vec<u64> = (0..M_SLOTS).collect();
    Rng::new(seed).shuffle(&mut slots);
    let cases = [
        (Case::C1, "c1"),
        (Case::C2, "c2"),
        (Case::C3, "c3"),
        (Case::C4, "c4"),
    ];
    let gemv = WorkloadKind::Gemv {
        cols: GEMV_COLS_DEFAULT,
    };
    (0..ROUND_LINES)
        .map(|i| {
            let (case, label) = cases[i / 3 % 4];
            let m = M_BASE + M_STEP * slots[i];
            let (kind, request) = match i % 3 {
                0 => (WorkloadKind::Dot, Request::Dot { case, m: Some(m) }),
                1 => (WorkloadKind::Scan, Request::Scan { case, m: Some(m) }),
                _ => (
                    gemv,
                    Request::Gemv {
                        case,
                        cols: GEMV_COLS_DEFAULT,
                        m: Some(m),
                    },
                ),
            };
            Line {
                text: format!("{} {label} --m {m}", kind.name()),
                request,
                kind,
                case,
                m,
            }
        })
        .collect()
}

/// The checksum line a correct body carries for `line`.
fn checksum_line(line: &Line) -> String {
    format!(
        "functional checksum at {} elements: {}",
        ghr_core::kernels::FUNC_M,
        functional_checksum(line.kind, line.case)
    )
}

/// What every answer is checked against.
struct Expected {
    /// The checksum line of each line's body.
    checksums: Vec<String>,
    /// The first round's bodies: every later round answers the same lines
    /// from the same empty state, so it must repeat them byte for byte.
    bodies: Option<Vec<Vec<u8>>>,
}

struct Round {
    setup_s: f64,
    timing: Slice,
    peak_rss_mb: f64,
    store_mb: f64,
    bodies: Vec<Vec<u8>>,
    cpu_us: f64,
    log_bytes: u64,
    ctx_switches: f64,
}

/// One round: a fresh server on an empty store, every line once.
fn round(
    args: &Args,
    k: usize,
    lines: &[Line],
    expected: &Expected,
    out: &mut Outcome,
) -> Result<Round, String> {
    let dir = format!("round{k}");
    let store = format!("{dir}/store");
    let sock = format!("{dir}/s.sock");
    let log = format!("{dir}/serve.log");
    let t0 = Instant::now();
    std::fs::create_dir_all(&store).map_err(|e| format!("{store}: {e}"))?;
    let mut server = Proc::spawn(
        &args.ghr,
        &["serve", "--socket", &sock, "--cache-dir", &store],
        &log,
    )?;
    server.await_socket(&sock)?;
    let mut client = Client::connect(&sock, READ_TIMEOUT).map_err(|e| format!("{sock}: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = proc::cpu_us(server.pid);
    let log0 = proc::file_len(&log);
    let mut bodies = Vec::with_capacity(lines.len());
    let mut lat_us = Vec::with_capacity(lines.len());
    let ticks = proc::CpuTicks::now();
    let t1 = Instant::now();
    let mut broken = false;
    for (i, line) in lines.iter().enumerate() {
        let (mut frame, us) = match client.roundtrip(&line.text) {
            Ok(answer) => answer,
            Err(e) => {
                // A timed-out or broken round trip is a failed answer
                // and ends the round.
                out.check(false);
                out.problem(format!("{sock}: {:?}: {e}", line.text));
                broken = true;
                break;
            }
        };
        if args.corrupt && k == 0 && i == 0 {
            // The last digit of the checksum, just before the final newline.
            let at = frame.body.len().saturating_sub(2);
            if let Some(b) = frame.body.get_mut(at) {
                *b ^= 0x01;
            }
        }
        let cold = frame.field("cached") == Some("no")
            && frame.field("evals").and_then(|e| e.parse::<u64>().ok()) > Some(0);
        let checksum = frame.body_str().lines().any(|l| l == expected.checksums[i]);
        let repeated = expected
            .bodies
            .as_ref()
            .is_none_or(|b| b.get(i) == Some(&frame.body));
        out.check(frame.ok() && cold && checksum && repeated);
        bodies.push(frame.body);
        lat_us.push(us);
    }
    let secs = t1.elapsed().as_secs_f64();
    let steal = proc::CpuTicks::now().steal_since(&ticks);
    let cpu_us = proc::cpu_us(server.pid) - cpu0;
    let log_bytes = proc::file_len(&log) - log0;
    let peak_rss_mb = proc::peak_rss_mb(server.pid);
    if k == 0 && !broken {
        // Once per run, outside the timed lines: the program's own
        // Table 1 fidelity, answered by the same server.
        let frame = client.roundtrip("table1 --compare").ok();
        let err = frame
            .as_ref()
            .and_then(|(f, _)| table1_err_pct(f.body_str()));
        out.check(frame.is_some_and(|(f, _)| f.ok()));
        match err {
            Some(v) => out.set("table1_max_err_pct", v),
            None => out.problem("no Table 1 error line in `table1 --compare`".into()),
        }
    }
    drop(client);
    let ctx_switches = if broken {
        // A server that stopped answering may not drain either.
        server.kill();
        0.0
    } else {
        server.shutdown(&sock)?
    };
    Ok(Round {
        setup_s,
        timing: Slice::of(lat_us, secs, steal),
        peak_rss_mb,
        store_mb: proc::dir_mb(&store),
        bodies,
        cpu_us,
        log_bytes,
        ctx_switches,
    })
}

/// Rounds until `secs` have passed (at least one).
fn rounds(
    args: &Args,
    first: usize,
    secs: f64,
    lines: &[Line],
    expected: &mut Expected,
    out: &mut Outcome,
) -> Result<Vec<Round>, String> {
    let mut until = Until::new(secs);
    let mut done = Vec::new();
    // A problem (a timed-out or broken round trip, a missing fidelity
    // line) ends the rounds: the run reports what it has.
    while done.is_empty() || (until.more() && out.problems.is_empty()) {
        let r = round(args, first + done.len(), lines, expected, out)?;
        until.slice(r.timing.steal);
        let _ = std::fs::remove_dir_all(format!("round{}", first + done.len()));
        if expected.bodies.is_none() {
            expected.bodies = Some(r.bodies.clone());
        }
        done.push(r);
    }
    Ok(done)
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let lines = lines(args.seed);
    for line in &lines {
        if ghr_cli::router::route_key(&line.text) != line.request.id().0 {
            return Err(format!(
                "{:?} does not resolve to {}",
                line.text,
                line.request.label()
            ));
        }
    }
    let mut expected = Expected {
        checksums: lines.iter().map(checksum_line).collect(),
        bodies: None,
    };
    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let done = rounds(args, 0, untraced_secs, &lines, &mut expected, out)?;
    let med = |f: &dyn Fn(&Round) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
    let rps = out.set_timing(&done.iter().map(|r| r.timing.clone()).collect::<Vec<_>>());
    out.set("setup_s", med(&|r| r.setup_s));
    out.set("peak_rss_mb", med(&|r| r.peak_rss_mb));
    out.set("store_mb", med(&|r| r.store_mb));
    out.set("sec4_max_err_pct", crate::study::reduced_sec4_err_pct()?);
    let mut digest = Fnv::new();
    for body in &done[0].bodies {
        digest.add(body);
    }
    out.note(format!(
        "cold-stream: {} rounds of {ROUND_LINES} lines; digest seed={} fnv1a={}",
        done.len(),
        args.seed,
        digest.hex()
    ));
    if !args.trace {
        return Ok(());
    }

    let traced = rounds(
        args,
        done.len(),
        args.seconds / 2.0,
        &lines,
        &mut expected,
        out,
    )?;
    let n = (traced.len() * ROUND_LINES) as f64;
    let traced_rps =
        Slice::quiet(&traced.iter().map(|r| r.timing.clone()).collect::<Vec<_>>()).rate;
    out.set("trace.overhead_pct", (rps - traced_rps) / rps * 100.0);
    out.set(
        "serve.cpu_us_per_req",
        traced.iter().map(|r| r.cpu_us).sum::<f64>() / n,
    );
    out.set(
        "serve.ctx_switches_per_req",
        traced.iter().map(|r| r.ctx_switches).sum::<f64>() / n,
    );
    out.set(
        "serve.log_bytes_per_req",
        traced.iter().map(|r| r.log_bytes as f64).sum::<f64>() / n,
    );
    in_process(&lines, out)
}

/// The cold path in process, line by line: `Engine::plan`, a cold
/// `Engine::respond`, `Engine::flush_store`, and the kernels and
/// simulators under them.
fn in_process(lines: &[Line], out: &mut Outcome) -> Result<(), String> {
    let machine = MachineConfig::gh200();
    let engine = Engine::new(machine.clone(), 0).with_store_dir(Path::new("probe-store"));
    let (mut plan_us, mut items) = (Vec::new(), Vec::new());
    let (mut respond_us, mut flush_us, mut written, mut points) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut checksum_us, mut placement_us) = (Vec::new(), Vec::new());
    for line in lines {
        let (plan, us) = span(|| engine.plan(&line.request));
        items.push(plan.map_err(|e| e.to_string())?.work_items() as f64);
        plan_us.push(us);
        let evaluated = engine.stats().evaluated;
        let (r, us) = span(|| engine.respond(&line.request));
        let r = r.map_err(|e| e.to_string())?;
        respond_us.push(us);
        out.check(r.source == ResponseSource::Fresh && r.evals > 0);
        points.push((engine.stats().evaluated - evaluated) as f64);
        let wchar = own_bytes_written();
        let (flushed, us) = span(|| engine.flush_store());
        flushed.map_err(|e| format!("store flush: {e}"))?;
        flush_us.push(us);
        written.push((own_bytes_written() - wchar) as f64);

        let (sum, us) = span(|| functional_checksum(line.kind, line.case));
        checksum_us.push(us);
        let w = r.response.workload().map_err(|e| e.to_string())?;
        out.check(sum.to_bits() == w.checksum.to_bits());
        let desc = KernelDescriptor::for_kind(line.kind, line.case.elem(), line.case.acc());
        let mut um = ghr_mem::UnifiedMemory::new(&machine);
        let (placement, us) = span(|| {
            first_touch_placement(&mut um, desc.input_bytes(line.m), w.best_gbps, w.cpu_gbps)
        });
        placement_us.push(us);
        out.check(placement == w.placement);
    }
    let (respond_total, flush_total): (f64, f64) = (respond_us.iter().sum(), flush_us.iter().sum());
    out.set("plan.us_p50", percentile(&plan_us, 0.5));
    out.set("plan.items_per_req", mean(&items));
    out.set("store.flush_ms_p50", percentile(&flush_us, 0.5) / 1000.0);
    out.set(
        "store.flush_share",
        flush_total / (respond_total + flush_total),
    );
    out.set("store.bytes_written_per_req", mean(&written));
    out.set("store.rows", engine.store().map_or(0, |s| s.len()) as f64);
    out.set("gpusim.points_per_req", mean(&points));
    out.set("kernels.checksum_us_p50", percentile(&checksum_us, 0.5));
    out.set("kernels.placement_us_p50", percentile(&placement_us, 0.5));
    let stats = engine.stats();
    out.set("engine.respond_us_p50", percentile(&respond_us, 0.5));
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
    let stages = engine.stage_timings();
    out.set("engine.stage_log_len", stages.len() as f64);
    out.set_stage_ms(&stages, lines.len());

    // One cold GPU point at a time, on counts no line used.
    let fresh = Engine::new(machine, 0);
    let mut point_us = Vec::new();
    for line in lines.iter().take(100) {
        let (elem, acc) = (line.case.elem(), line.case.acc());
        let region = TargetRegion::optimized(4096, line.case.v_optimized());
        let (r, us) = span(|| fresh.kernel_point(line.kind, &region, line.m + 1, elem, acc));
        r.map_err(|e| e.to_string())?;
        point_us.push(us);
    }
    out.set("gpusim.point_us_p50", percentile(&point_us, 0.5));
    Ok(())
}

/// Bytes this process has passed to write(2) so far (`/proc/self/io`).
fn own_bytes_written() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar: ")?.parse().ok())
        })
        .unwrap_or(0)
}
