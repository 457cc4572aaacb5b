//! Serve-loop acceptance: a batch of requests piped through one session,
//! with a duplicate answered from the response cache byte-identically; a
//! protocol-fuzz pass over the framing layer; and the multi-client stress
//! test — ≥8 threads hammering one serve socket with overlapping request
//! ids, asserting byte-identical bodies, coalesced evaluations, and a
//! graceful drain.

use ghr_cli::serve::serve_loop;
use ghr_core::engine::Engine;
use ghr_machine::MachineConfig;
use ghr_types::{wire, Json};
use std::io::BufReader;

/// One parsed response frame.
#[derive(Debug)]
struct Frame {
    id: String,
    status: String,
    evals: u64,
    cached: bool,
    body: String,
}

fn parse_frames(out: &str) -> Vec<Frame> {
    let mut rest = out.as_bytes();
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let frame = wire::Frame::read(&mut rest).expect("a whole frame");
        let field = |name: &str| -> String {
            let missing = || panic!("missing {name} in {:?}", frame.header());
            frame.field(name).unwrap_or_else(missing).to_string()
        };
        frames.push(Frame {
            id: field("id"),
            status: field("status"),
            evals: field("evals").parse().unwrap(),
            cached: field("cached") == "yes",
            body: String::from_utf8(frame.body().to_vec()).unwrap(),
        });
    }
    frames
}

#[test]
fn duplicate_request_in_a_batch_is_answered_from_cache_byte_identically() {
    let engine = Engine::new(MachineConfig::gh200(), 2);
    let input = "table1\nwhatif\ntable1\nquit\n";
    let mut out = Vec::new();
    let mut err = Vec::new();
    let summary = serve_loop(
        &engine,
        BufReader::new(input.as_bytes()),
        &mut out,
        &mut err,
    )
    .unwrap();
    assert_eq!(summary.served, 3);
    assert!(summary.quit);

    let out = String::from_utf8(out).unwrap();
    let frames = parse_frames(&out);
    assert_eq!(frames.len(), 3, "{out}");
    for f in &frames {
        assert_eq!(f.status, "ok", "{f:?}");
    }

    // Cold table1 evaluates its eight kernels; the duplicate is answered
    // whole from the response cache: zero evaluations, same id, and a
    // byte-identical body.
    let (first, dup) = (&frames[0], &frames[2]);
    assert_eq!(first.evals, 8, "{first:?}");
    assert!(!first.cached, "{first:?}");
    assert_eq!(dup.evals, 0, "warm duplicate must not evaluate: {dup:?}");
    assert!(dup.cached, "{dup:?}");
    assert_eq!(dup.id, first.id);
    assert_eq!(
        dup.body, first.body,
        "duplicate must render byte-identically"
    );
    assert!(first.body.contains("Table 1"), "{}", first.body);

    // The interleaved distinct request got its own id and fresh work.
    assert_ne!(frames[1].id, first.id);
    assert!(frames[1].evals > 0, "{:?}", frames[1]);

    // The engine saw three pipeline requests, one answered from the
    // response cache.
    let stats = engine.stats();
    assert_eq!(stats.requests, 3, "{stats:?}");
    assert_eq!(stats.response_hits, 1, "{stats:?}");
}

#[test]
fn serve_bodies_match_the_one_shot_cli_output() {
    // A serve frame's body must be byte-identical to what `ghr <cmd>`
    // prints, so clients can switch between the two freely.
    let engine = Engine::new(MachineConfig::gh200(), 2);
    let mut out = Vec::new();
    let mut err = Vec::new();
    serve_loop(
        &engine,
        BufReader::new("autotune\n".as_bytes()),
        &mut out,
        &mut err,
    )
    .unwrap();
    let frames = parse_frames(&String::from_utf8(out).unwrap());
    let oneshot = ghr_cli::run("autotune", &[]).unwrap();
    assert_eq!(frames[0].body, oneshot);
}

#[test]
fn workload_requests_round_trip_through_serve() {
    // The descriptor-timed workloads are servable: a repeat is a pure
    // response-cache hit and every body matches the one-shot CLI.
    let engine = Engine::new(MachineConfig::gh200(), 2);
    let mut out = Vec::new();
    let mut err = Vec::new();
    serve_loop(
        &engine,
        BufReader::new("dot c1\nscan c2\ngemv c3 --cols 2048\ndot c1\n".as_bytes()),
        &mut out,
        &mut err,
    )
    .unwrap();
    let frames = parse_frames(&String::from_utf8(out).unwrap());
    assert_eq!(frames.len(), 4);
    for (frame, (cmd, rest)) in frames.iter().zip([
        ("dot", vec!["c1"]),
        ("scan", vec!["c2"]),
        ("gemv", vec!["c3", "--cols", "2048"]),
        ("dot", vec!["c1"]),
    ]) {
        let rest: Vec<String> = rest.into_iter().map(str::to_string).collect();
        assert_eq!(frame.body, ghr_cli::run(cmd, &rest).unwrap(), "{cmd}");
    }
    let stats = engine.stats();
    assert_eq!(stats.requests, 4, "{stats:?}");
    assert_eq!(
        stats.response_hits, 1,
        "the repeated dot is a warm hit: {stats:?}"
    );
}

/// Serve `input` as one session on `engine`; the frames, parsed.
fn serve_frames(engine: &Engine, input: &str) -> Vec<Frame> {
    let mut out = Vec::new();
    serve_loop(
        engine,
        BufReader::new(input.as_bytes()),
        &mut out,
        &mut std::io::sink(),
    )
    .unwrap();
    parse_frames(&String::from_utf8(out).unwrap())
}

/// What the one-shot `ghr <line>` prints, with no persistent store.
fn one_shot(line: &str) -> String {
    let mut words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    let cmd = words.remove(0);
    words.push("--no-cache".to_string());
    ghr_cli::run(&cmd, &words).unwrap()
}

#[test]
fn repeated_lines_answer_from_the_render_memo_byte_identically() {
    // Render variants share a request id but not a body: the memo is
    // keyed by (id, variant), so each variant keeps its own body.
    let lines = [
        "table1",
        "table1 --compare",
        "fig1 c2",
        "fig1 c2 --csv",
        "fig1 c2 --plot",
        "dot c1",
        "gemv c3 --cols 2048",
    ];
    let engine = Engine::new(MachineConfig::gh200(), 2);
    let input: String = lines.iter().map(|l| format!("{l}\n{l}\n{l}\n")).collect();
    let frames = serve_frames(&engine, &input);
    assert_eq!(frames.len(), 3 * lines.len());
    for (line, sent) in lines.iter().zip(frames.chunks(3)) {
        let reference = one_shot(line);
        for (i, f) in sent.iter().enumerate() {
            assert_eq!(f.status, "ok", "{line}: {f:?}");
            assert_eq!(f.body, reference, "{line}: answer {} differs", i + 1);
            assert_eq!(f.id, sent[0].id, "{line}");
        }
        for f in &sent[1..] {
            assert!(f.evals == 0 && f.cached, "{line}: {f:?}");
        }
    }
    let body = |line: &str| {
        let i = lines.iter().position(|l| *l == line).unwrap();
        (&frames[3 * i].id, &frames[3 * i].body)
    };
    for (a, b) in [
        ("table1", "table1 --compare"),
        ("fig1 c2", "fig1 c2 --csv"),
        ("fig1 c2", "fig1 c2 --plot"),
        ("fig1 c2 --csv", "fig1 c2 --plot"),
    ] {
        assert_eq!(body(a).0, body(b).0, "{a} and {b} share an id");
        assert_ne!(body(a).1, body(b).1, "{a} and {b} render differently");
    }
    // Every line reached the engine; all but the four cold ids (table1,
    // fig1 c2, dot c1, gemv c3) were response-cache hits.
    let stats = engine.stats();
    assert_eq!(stats.requests, 21, "{stats:?}");
    assert_eq!(stats.response_hits, 17, "{stats:?}");
}

#[test]
fn each_engine_renders_its_own_machine() {
    // The memo belongs to one engine: two engines for two machines
    // answer the same line (same id) with their own bodies, however
    // their sessions interleave.
    let gh200 = Engine::new(MachineConfig::gh200(), 1);
    let pcie = Engine::new(MachineConfig::x86_pcie(), 1);
    let thrice = "table1\ntable1\ntable1\n";
    let a = serve_frames(&gh200, thrice);
    let b = serve_frames(&pcie, thrice);
    let a_again = serve_frames(&gh200, thrice);
    assert_eq!(a[0].id, b[0].id, "one request, one id");
    assert_ne!(a[0].body, b[0].body, "the machines differ");
    for f in a.iter().chain(&a_again) {
        assert_eq!(f.body, a[0].body, "gh200: {f:?}");
    }
    for f in &b {
        assert_eq!(f.body, b[0].body, "x86_pcie: {f:?}");
    }
}

#[test]
fn arrays_larger_than_the_machine_get_an_error_frame_and_the_session_survives() {
    let oversized = "dot c1 --m 100000000000000";
    let engine = Engine::new(MachineConfig::gh200(), 2);
    let frames = serve_frames(&engine, &format!("{oversized}\ntable1\n{oversized}\n"));
    assert_eq!(frames.len(), 3);
    for f in [&frames[0], &frames[2]] {
        assert_eq!(f.status, "error", "{f:?}");
        assert!(
            f.body.contains("array larger than the machine"),
            "{}",
            f.body
        );
    }
    assert_eq!(frames[1].status, "ok", "{:?}", frames[1]);
    assert!(frames[1].body.contains("Table 1"), "{}", frames[1].body);
    let stats = engine.stats();
    assert_eq!(stats.evaluated, 8, "only table1 evaluated: {stats:?}");

    // The one-shot command refuses it the same way, with exit status 2.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ghr"))
        .args(oversized.split_whitespace())
        .arg("--no-cache")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("array larger than the machine"), "{stderr}");
}

#[test]
fn protocol_fuzz_malformed_lines_are_rejected_and_the_session_survives() {
    // Feed the framing layer every malformed shape it documents: a CRLF
    // line ending, an interior NUL, an oversized line, invalid UTF-8 and a
    // truncated final frame. Each must be answered with a `ghr-error`
    // frame, none may reach the request parser, and a valid request in the
    // middle must still be served normally.
    let engine = Engine::new(MachineConfig::gh200(), 2);
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(b"table1\r\n"); // CRLF line ending
    input.extend_from_slice(b"\n\n# a comment, ignored\n"); // blank noise
    input.extend_from_slice(b"bad\0request\n"); // interior NUL
    input.extend_from_slice(format!("table1 {}\n", "x".repeat(8 * 1024)).as_bytes());
    input.extend_from_slice(b"bad \xff\xfe utf8\n"); // invalid UTF-8
    input.extend_from_slice(b"table1\n"); // still a working session
    input.extend_from_slice(b"whati"); // truncated frame: EOF, no newline
    let mut out = Vec::new();
    let mut err = Vec::new();
    let summary = serve_loop(&engine, BufReader::new(&input[..]), &mut out, &mut err).unwrap();
    assert_eq!(summary.served, 1, "{summary:?}");
    assert_eq!(summary.stats.malformed, 5, "{:?}", summary.stats);
    assert!(!summary.quit, "{summary:?}");

    let out = String::from_utf8(out).unwrap();
    assert_eq!(out.matches("ghr-error ").count(), 5, "{out}");
    for reason in [
        "crlf-line-ending",
        "nul-byte",
        "oversized-line",
        "invalid-utf8",
        "truncated-frame",
    ] {
        assert!(out.contains(&format!("reason={reason}")), "{out}");
    }

    // The one valid request between the garbage was answered in full.
    assert!(out.contains("status=ok"), "{out}");
    assert!(out.contains("Table 1"), "{out}");
    let stats = engine.stats();
    assert_eq!(
        stats.requests, 1,
        "malformed lines must never reach the engine: {stats:?}"
    );
}

/// Connect to a serve socket, retrying while the server thread binds it.
#[cfg(unix)]
fn connect_with_retry(path: &str) -> std::os::unix::net::UnixStream {
    for _ in 0..200 {
        if let Ok(s) = std::os::unix::net::UnixStream::connect(path) {
            return s;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("server socket {path} never came up");
}

#[cfg(unix)]
#[test]
fn stress_concurrent_clients_coalesce_work_and_get_identical_bodies() {
    use ghr_cli::serve::{serve_socket, ServeOptions};
    use ghr_core::{Case, Request};
    use std::io::{Read, Write};
    use std::sync::Arc;

    const CLIENTS: usize = 8;
    const REQS: [&str; 3] = ["table1", "whatif", "fig1 c1"];

    let engine = Arc::new(Engine::new(MachineConfig::gh200(), 2));
    let sock = std::env::temp_dir().join(format!("ghr-stress-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let sock_str = sock.to_string_lossy().into_owned();
    let server = {
        let engine = Arc::clone(&engine);
        let path = sock_str.clone();
        std::thread::spawn(move || {
            let opts = ServeOptions {
                sessions: CLIENTS,
                ..ServeOptions::default()
            };
            serve_socket(&engine, &path, &opts)
        })
    };

    // Reference bodies from the one-shot CLI: a serve frame body must be
    // byte-identical to `ghr <cmd>` stdout for the same request.
    let oneshot: Vec<String> = REQS
        .iter()
        .map(|line| {
            let mut words = line.split_whitespace();
            let cmd = words.next().unwrap();
            let rest: Vec<String> = words.map(str::to_string).collect();
            ghr_cli::run(cmd, &rest).unwrap()
        })
        .collect();

    // Hammer the socket: every client sends all three requests, rotated so
    // that at any instant several sessions race on the same request id.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let path = sock_str.clone();
            std::thread::spawn(move || {
                let mut stream = connect_with_retry(&path);
                let mut payload = String::new();
                for k in 0..REQS.len() {
                    payload.push_str(REQS[(t + k) % REQS.len()]);
                    payload.push('\n');
                }
                payload.push_str("quit\n");
                stream.write_all(payload.as_bytes()).unwrap();
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut out = String::new();
                stream.read_to_string(&mut out).unwrap();
                (t, out)
            })
        })
        .collect();

    for client in clients {
        let (t, out) = client.join().unwrap();
        // parse_frames also re-checks the byte count in every header, so a
        // torn or interleaved frame fails loudly here.
        let frames = parse_frames(&out);
        assert_eq!(frames.len(), REQS.len(), "client {t}: {out}");
        for (k, frame) in frames.iter().enumerate() {
            assert_eq!(frame.status, "ok", "client {t} frame {k}: {frame:?}");
            let want = &oneshot[(t + k) % REQS.len()];
            assert_eq!(
                &frame.body, want,
                "client {t} frame {k} body diverged from the one-shot CLI"
            );
        }
    }

    // Coalescing bound: 24 requests over 3 distinct ids may evaluate at
    // most the distinct work items of those 3 requests — every duplicate
    // was answered from the response cache or coalesced onto a flight.
    let reqs = [Request::Table1, Request::WhatIf, Request::fig1(Case::C1)];
    let items = Engine::new(MachineConfig::gh200(), 1)
        .plan_many(&reqs)
        .unwrap()
        .summary()
        .items();
    let stats = engine.stats();
    assert_eq!(stats.requests as usize, CLIENTS * REQS.len(), "{stats:?}");
    assert!(
        stats.evaluated as usize <= items,
        "evaluations exceeded distinct work items: {stats:?} vs {items}"
    );
    assert_eq!(
        (stats.response_hits + stats.coalesced) as usize,
        CLIENTS * REQS.len() - REQS.len(),
        "exactly one request per distinct id does fresh work: {stats:?}"
    );

    // Graceful drain: a control frame shuts the whole server down, the
    // server reports every session it served and removes its socket file.
    let mut stream = connect_with_retry(&sock_str);
    stream.write_all(b"ghr-shutdown\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = String::new();
    let _ = stream.read_to_string(&mut rest);
    let result = server.join().unwrap().unwrap();
    assert!(
        result.contains(&format!("served {} request(s)", CLIENTS * REQS.len())),
        "{result}"
    );
    assert!(result.contains("session(s)"), "{result}");
    assert!(!sock.exists(), "socket file must be removed after drain");
}

#[cfg(unix)]
#[test]
fn loadgen_drives_a_live_socket_and_counts_overload_rejections() {
    use ghr_cli::serve::{serve_socket, ServeOptions};
    use std::io::{Read, Write};
    use std::sync::Arc;

    let engine = Arc::new(Engine::new(MachineConfig::gh200(), 2));
    let sock = std::env::temp_dir().join(format!("ghr-loadgen-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let sock_str = sock.to_string_lossy().into_owned();
    let server = {
        let engine = Arc::clone(&engine);
        let path = sock_str.clone();
        std::thread::spawn(move || {
            let opts = ServeOptions {
                sessions: 12,
                max_inflight: Some(2),
                ..ServeOptions::default()
            };
            serve_socket(&engine, &path, &opts)
        })
    };
    drop(connect_with_retry(&sock_str)); // wait for the listener to bind
    let loadgen = |flags: &[&str]| {
        let mut args = vec!["--socket".to_string(), sock_str.clone()];
        args.extend(flags.iter().map(|s| s.to_string()));
        ghr_cli::run("loadgen", &args).unwrap()
    };

    // Two warm connections can never exceed the in-flight budget of two,
    // so the cold and warm phases stay rejection-free; eight closed-loop
    // overload connections must trip it.
    let report = std::env::temp_dir().join(format!("ghr-loadgen-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&report);
    let out = loadgen(&[
        "--catalog",
        "3",
        "--requests",
        "400",
        "--conns",
        "2",
        "--overload-conns",
        "8",
        "--label",
        "serve-loop",
        "--out",
        &report.to_string_lossy(),
    ]);
    assert!(
        out.contains("loadgen (socket mode, label \"serve-loop\")"),
        "{out}"
    );
    assert!(
        out.contains(&format!("wrote {}", report.display())),
        "{out}"
    );
    // The report file: JSON that parses, stamped with the label, with the
    // per-class latency rows.
    let json = std::fs::read_to_string(&report).expect("--out writes the report");
    std::fs::remove_file(&report).unwrap();
    let doc = Json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
    assert_eq!(
        doc.get("label").and_then(Json::as_str),
        Some("serve-loop"),
        "{json}"
    );
    assert!(json.contains("\"classes\": ["), "{json}");
    for phase in ["cold", "warm", "overload"] {
        assert!(out.contains(&format!("| {phase}")), "{out}");
    }
    // The warm row: all 400 served, none rejected.
    let warm = out
        .lines()
        .find(|l| l.starts_with("| warm "))
        .unwrap_or_else(|| panic!("no warm row in {out}"));
    let cells: Vec<&str> = warm.split('|').map(str::trim).collect();
    assert_eq!(cells[5], "400", "warm ok count: {warm}");
    assert_eq!(cells[7], "0", "warm must see no overload: {warm}");
    // The overload row: every request either served or explicitly
    // rejected — never errored — and the budget was actually tripped.
    let over = out
        .lines()
        .find(|l| l.starts_with("| overload "))
        .unwrap_or_else(|| panic!("no overload row in {out}"));
    let cells: Vec<&str> = over.split('|').map(str::trim).collect();
    let (requests, ok, err, overload) = (
        cells[4].parse::<u64>().unwrap(),
        cells[5].parse::<u64>().unwrap(),
        cells[6].parse::<u64>().unwrap(),
        cells[7].parse::<u64>().unwrap(),
    );
    // 400 zipf arrivals plus the eight-request cold contention volley.
    assert_eq!(requests, 408, "{over}");
    assert_eq!(err, 0, "{over}");
    assert_eq!(ok + overload, requests, "{over}");
    assert!(
        overload > 0,
        "a cold volley from eight conns over a budget of two must trip it: {over}"
    );

    // --no-out writes no report: not the default file either.
    let default_report = std::path::Path::new("BENCH_loadgen.json");
    let existed = default_report.exists();
    let out = loadgen(&["--catalog", "2", "--requests", "20", "--no-out"]);
    assert!(out.contains("| warm "), "{out}");
    assert!(!out.contains("wrote "), "{out}");
    assert_eq!(default_report.exists(), existed, "--no-out wrote a report");

    let mut stream = connect_with_retry(&sock_str);
    stream.write_all(b"ghr-shutdown\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = String::new();
    let _ = stream.read_to_string(&mut rest);
    let result = server.join().unwrap().unwrap();
    assert!(result.contains("session(s)"), "{result}");
    assert!(!sock.exists());
}

#[cfg(unix)]
#[test]
fn idle_server_shuts_itself_down_after_max_idle() {
    use ghr_cli::serve::{serve_socket, ServeOptions};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let engine = Arc::new(Engine::new(MachineConfig::gh200(), 1));
    let sock = std::env::temp_dir().join(format!("ghr-idle-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let opts = ServeOptions {
        sessions: 2,
        max_idle: Some(Duration::from_millis(200)),
        ..ServeOptions::default()
    };
    let start = Instant::now();
    let result = serve_socket(&engine, &sock.to_string_lossy(), &opts).unwrap();
    let took = start.elapsed();
    assert!(took >= Duration::from_millis(200));
    // A liveness bound, not a timing: the idle deadline ends the wait.
    assert!(
        took < Duration::from_millis(200) + Duration::from_secs(2),
        "idle exit took {took:?}"
    );
    assert!(result.contains("served 0 request(s)"), "{result}");
    assert!(
        !sock.exists(),
        "socket file must be removed after idle exit"
    );
}

/// Spawn `ghr <cmd> --socket <sock> --no-cache <extra>` with its output
/// discarded, and wait (20 s at most) until it accepts a connection.
#[cfg(unix)]
fn spawn_listening(cmd: &str, sock: &std::path::Path, extra: &[&str]) -> std::process::Child {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_ghr"))
        .arg(cmd)
        .arg("--socket")
        .arg(sock)
        .arg("--no-cache")
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ghr");
    let up = Instant::now() + Duration::from_secs(20);
    while std::os::unix::net::UnixStream::connect(sock).is_err() {
        if Instant::now() > up || child.try_wait().unwrap().is_some() {
            let _ = child.kill();
            panic!("{cmd} never listened on {sock:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child
}

/// Wait until a spawned server exits 0 (`within` is a liveness bound,
/// not a timing), then require its socket file gone.
#[cfg(unix)]
fn drains_cleanly(
    mut child: std::process::Child,
    cmd: &str,
    sock: &std::path::Path,
    within: std::time::Duration,
) {
    let deadline = std::time::Instant::now() + within;
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("{cmd} did not drain within {within:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert!(status.success(), "{cmd} exited {status}");
    assert!(!sock.exists(), "{cmd} left its socket file");
}

/// SIGTERM drains an idle spawned `ghr serve`, and an idle `ghr router`
/// with the two workers it spawned: each exits 0 within a liveness bound
/// of seconds and removes its socket file.
#[cfg(unix)]
#[test]
fn sigterm_drains_an_idle_spawned_serve_and_router() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let dir = std::env::temp_dir().join(format!("ghr-sigterm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (cmd, extra) in [("serve", &[][..]), ("router", &["--workers", "2"][..])] {
        let sock = dir.join(format!("{cmd}.sock"));
        let child = spawn_listening(cmd, &sock, extra);
        // SAFETY: `kill` only reads its integer arguments.
        assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
        drains_cleanly(child, cmd, &sock, std::time::Duration::from_secs(20));
        for w in 0..2 {
            let worker = dir.join(format!("{cmd}.sock.w{w}"));
            assert!(!worker.exists(), "{cmd} left {worker:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `ghr-shutdown` from a second connection drains a spawned `ghr
/// serve` and a `ghr router --workers 1` while a first client stays
/// connected and silent: each server ends that client's blocked read,
/// exits 0 within a liveness bound of seconds and removes its socket
/// file, and the silent client reads EOF.
#[cfg(unix)]
#[test]
fn shutdown_frame_drains_a_server_holding_a_silent_client() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("ghr-silent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (cmd, extra) in [
        ("serve", &["--sessions", "2"][..]),
        ("router", &["--workers", "1"][..]),
    ] {
        let sock = dir.join(format!("{cmd}.sock"));
        let child = spawn_listening(cmd, &sock, extra);
        // Accepted in connect order, so the silent client holds a
        // session before the shutdown line arrives.
        let mut silent = UnixStream::connect(&sock).unwrap();
        let mut control = UnixStream::connect(&sock).unwrap();
        control.write_all(b"ghr-shutdown\n").unwrap();
        drains_cleanly(child, cmd, &sock, Duration::from_secs(10));
        silent
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut rest = Vec::new();
        silent
            .read_to_end(&mut rest)
            .unwrap_or_else(|e| panic!("{cmd}: the silent client must read EOF: {e}"));
        assert!(rest.is_empty(), "{cmd} sent the silent client {rest:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
