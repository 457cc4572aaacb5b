//! Transport fault-injection battery for the cluster tier.
//!
//! A router in the wild faces peers that dribble bytes, tear frames
//! mid-body, die mid-trailer, and claim absurd body sizes. Every case
//! here must end in a clean reasoned `ghr-error` frame or a re-route to
//! a live sibling — never a hang, never bytes from one request bleeding
//! into another's response — and must do so identically over unix
//! sockets and TCP, because the framing layer is supposed to be
//! transport-blind.
//!
//! Two batteries:
//!
//! * **client side** — a real 2-worker cluster driven through one
//!   router: 1-byte-at-a-time request writes, CRLF/NUL/oversized/
//!   truncated framing violations, and a pipelined burst whose response
//!   frames must come back in arrival order byte-identical to the same
//!   requests sent alone;
//! * **worker side** — a scripted fake worker attached to the router
//!   misbehaves on the response path: a valid frame dribbled out in
//!   2-byte segments (the `bytes=N` header split across TCP segments)
//!   must pass through byte-exactly, while torn bodies, sockets killed
//!   mid-`ghr-end`, and absurd `bytes=` claims must get the worker
//!   declared dead (re-routing to a live sibling when one exists,
//!   `reason=no-live-worker` when not).

#![cfg(unix)]

use ghr_cli::router::{route_key, run_router, HashRing, RouterOptions};
use ghr_types::{wire, Endpoint, Listener};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU16, Ordering};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ghr-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Distinct loopback ports for router listeners, spread by PID so
/// concurrent test runs do not collide.
fn next_port() -> u16 {
    static NEXT: AtomicU16 = AtomicU16::new(0);
    21000 + (std::process::id() % 18000) as u16 + NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The router's client-facing endpoint for one battery run.
fn listen_options(tcp: bool, dir: &Path) -> (RouterOptions, Endpoint) {
    if tcp {
        let spec = format!("127.0.0.1:{}", next_port());
        let ep = Endpoint::tcp(&spec).unwrap();
        (
            RouterOptions {
                tcp: Some(spec),
                ..RouterOptions::default()
            },
            ep,
        )
    } else {
        let path = dir.join("router.sock").to_str().unwrap().to_string();
        (
            RouterOptions {
                socket: Some(path.clone()),
                ..RouterOptions::default()
            },
            Endpoint::unix(path),
        )
    }
}

fn spawn_worker(sock: &Path, cache: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_ghr"))
        .args([
            "serve",
            "--socket",
            sock.to_str().unwrap(),
            "--sessions",
            "4",
            "--cache-dir",
            cache.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ghr serve")
}

fn await_endpoint(ep: &Endpoint) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !ep.probe() {
        assert!(Instant::now() < deadline, "endpoint {ep} never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Send request lines over one connection and return everything the
/// router streamed back (the write half closes, so the session drains).
fn client(ep: &Endpoint, lines: &str) -> String {
    let mut stream = ep.connect().expect("connect");
    stream.write_all(lines.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

/// Split a concatenation of `ghr-response`/`ghr-error` frames into
/// `(header, body)` pairs.
fn parse_frames(text: &str) -> Vec<(String, String)> {
    let mut rest = text.as_bytes();
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let frame = wire::Frame::read(&mut rest).expect("a whole frame");
        let body = String::from_utf8(frame.body().to_vec()).unwrap();
        frames.push((frame.header().to_string(), body));
    }
    frames
}

/// A frame as the text a client reads.
fn frame_text(frame: wire::Frame) -> String {
    String::from_utf8(frame.into_bytes()).unwrap()
}

/// A well-formed `status=ok` frame carrying `body`.
fn valid_frame(body: &str) -> String {
    frame_text(wire::Frame::response(
        "0123456789abcdef",
        "ok",
        body,
        0,
        "yes",
    ))
}

/// How a scripted fake worker misbehaves on its response path.
#[derive(Clone)]
enum Script {
    /// Write a valid frame, but 2 bytes at a time with pauses — the
    /// header (and its `bytes=N`) lands split across TCP segments.
    Dribble(Vec<u8>),
    /// Claim `bytes=64`, write 10 body bytes, kill the socket.
    TornBody,
    /// Write a complete header and body, then die mid-`ghr-end`.
    KilledMidTrailer,
    /// Claim a body far past any sane frame (the allocation-cap probe).
    AbsurdClaim,
    /// Answer the first line on each connection with a valid frame,
    /// then close it, as a worker restarted between requests would.
    OncePerConnection(Vec<u8>),
}

/// A fake worker: accepts connections forever (the router's revival
/// probe connects and drops, real forwards send a line), answers each
/// request line per the script, then kills the connection. The thread
/// is deliberately leaked — it blocks in accept and dies with the test
/// process.
fn fake_worker(tcp: bool, dir: &Path, name: &str, script: Script) -> Endpoint {
    let (listener, ep) = if tcp {
        let l = Endpoint::tcp("127.0.0.1:0").unwrap().bind().unwrap();
        let ep = l.local_endpoint().unwrap();
        (l, ep)
    } else {
        let path = dir.join(name).to_str().unwrap().to_string();
        let ep = Endpoint::unix(path);
        (ep.bind().unwrap(), ep.clone())
    };
    std::thread::spawn(move || serve_fake(listener, script));
    ep
}

fn serve_fake(listener: Listener, script: Script) {
    loop {
        let Ok(mut conn) = listener.accept() else {
            return;
        };
        let Ok(read_half) = conn.try_clone() else {
            continue;
        };
        let mut reader = BufReader::new(read_half);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // probe connect, or client done
                Ok(_) => {}
            }
            match &script {
                Script::Dribble(frame) => {
                    for chunk in frame.chunks(2) {
                        if conn.write_all(chunk).is_err() {
                            break;
                        }
                        let _ = conn.flush();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    continue; // keep the connection serving
                }
                Script::TornBody => {
                    let _ = conn.write_all(
                        b"ghr-response id=feedfacefeedface status=ok bytes=64 evals=0 cached=yes\n",
                    );
                    let _ = conn.write_all(b"ten bytes\n");
                    let _ = conn.flush();
                }
                Script::KilledMidTrailer => {
                    let _ = conn.write_all(
                        b"ghr-response id=feedfacefeedface status=ok bytes=3 evals=0 cached=yes\nok\nghr-e",
                    );
                    let _ = conn.flush();
                }
                Script::AbsurdClaim => {
                    let _ = conn.write_all(
                        b"ghr-response id=feedfacefeedface status=ok bytes=9999999999 evals=0 cached=yes\n",
                    );
                    let _ = conn.flush();
                }
                Script::OncePerConnection(frame) => {
                    let _ = conn.write_all(frame);
                    let _ = conn.flush();
                }
            }
            break; // every non-dribble script ends with a dead socket
        }
        drop(conn);
    }
}

/// One router over a single scripted fake worker: send `lines` on one
/// connection, return the raw client bytes after shutting the router
/// down.
fn fake_worker_round(tcp: bool, tag: &str, script: Script, lines: &str) -> String {
    let dir = tmp_dir(tag);
    let fake = fake_worker(tcp, &dir, "fake.sock", script);
    let (mut opts, listen) = listen_options(tcp, &dir);
    match &fake {
        Endpoint::Unix(path) => opts.attach.push(path.clone()),
        Endpoint::Tcp(addr) => opts.attach_tcp.push(addr.clone()),
    }
    let router = std::thread::spawn(move || run_router(&opts));
    await_endpoint(&listen);
    let out = client(&listen, lines);
    let _ = client(&listen, "ghr-shutdown\n");
    router.join().unwrap().expect("router drains cleanly");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// A valid frame whose header `bytes=N` arrives split across segments
/// must reach the client byte-identically: the router reassembles the
/// frame from however many reads the transport takes.
fn dribbled_frame_passes_through(tcp: bool) {
    let frame = valid_frame("dribbled but intact\n");
    let tag = if tcp { "dribble-tcp" } else { "dribble-unix" };
    let out = fake_worker_round(
        tcp,
        tag,
        Script::Dribble(frame.clone().into_bytes()),
        "table1\n",
    );
    assert_eq!(
        out, frame,
        "tcp={tcp}: dribbled frame must pass through byte-exactly"
    );
}

#[test]
fn dribbled_frame_passes_through_unix() {
    dribbled_frame_passes_through(false);
}

#[test]
fn dribbled_frame_passes_through_tcp() {
    dribbled_frame_passes_through(true);
}

/// A connection that has answered before and then fails may just have
/// gone stale (its worker restarted), so the router resends the lines
/// still unanswered on it over one fresh connection instead of
/// declaring the only worker dead. Both lines are written before either
/// frame is read, so the second is always the one caught on the closed
/// connection.
fn stale_connection_is_retried_once(tcp: bool) {
    let frame = valid_frame("answered once per connection\n");
    let tag = if tcp { "stale-tcp" } else { "stale-unix" };
    let out = fake_worker_round(
        tcp,
        tag,
        Script::OncePerConnection(frame.clone().into_bytes()),
        "table1\ntable1\n",
    );
    assert_eq!(
        out,
        frame.repeat(2),
        "tcp={tcp}: the second line must be resent on a fresh connection"
    );
}

#[test]
fn stale_connection_is_retried_once_unix() {
    stale_connection_is_retried_once(false);
}

#[test]
fn stale_connection_is_retried_once_tcp() {
    stale_connection_is_retried_once(true);
}

/// Torn mid-body, killed mid-`ghr-end`, absurd `bytes=` claim: each
/// poisons the only worker, so the client must see the explicit
/// `no-live-worker` frame — promptly, with no hang and no partial
/// bytes leaking through.
fn broken_frames_surface_reasoned_errors(tcp: bool) {
    for (tag, script) in [
        ("torn", Script::TornBody),
        ("trailer", Script::KilledMidTrailer),
        ("absurd", Script::AbsurdClaim),
    ] {
        let t0 = Instant::now();
        let tag = format!("{tag}-{}", if tcp { "tcp" } else { "unix" });
        let out = fake_worker_round(tcp, &tag, script, "table1\n");
        assert_eq!(
            out,
            frame_text(wire::Frame::error(wire::REASON_NO_WORKER)),
            "tcp={tcp} script={tag}: a broken worker frame must become a reasoned error"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(15),
            "tcp={tcp} script={tag}: the failure path must not hang"
        );
    }
}

#[test]
fn broken_frames_surface_reasoned_errors_unix() {
    broken_frames_surface_reasoned_errors(false);
}

#[test]
fn broken_frames_surface_reasoned_errors_tcp() {
    broken_frames_surface_reasoned_errors(true);
}

/// With a live sibling on the ring, a torn frame re-routes instead of
/// erroring: the fake worker is placed at the index that owns the
/// request, so the first forward is guaranteed to hit the tear.
fn torn_frame_reroutes_to_live_sibling(tcp: bool) {
    let dir = tmp_dir(if tcp { "reroute-tcp" } else { "reroute-unix" });
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let real_sock = dir.join("real.sock");
    let mut real = spawn_worker(&real_sock, &cache);
    await_endpoint(&Endpoint::unix(real_sock.to_str().unwrap()));

    let fake = fake_worker(tcp, &dir, "fake.sock", Script::TornBody);
    let (mut opts, listen) = listen_options(tcp, &dir);
    // Attach order fixes ring indices: unix attaches first, then TCP.
    let fake_index = match &fake {
        Endpoint::Unix(path) => {
            opts.attach.push(path.clone());
            opts.attach.push(real_sock.to_str().unwrap().to_string());
            0
        }
        Endpoint::Tcp(addr) => {
            opts.attach.push(real_sock.to_str().unwrap().to_string());
            opts.attach_tcp.push(addr.clone());
            1
        }
    };
    // A request the fake worker owns, so the torn frame is on the path.
    let ring = HashRing::new(2);
    let victim = [
        "table1", "whatif", "fig1 c1", "fig1 c2", "fig1 c3", "fig1 c4",
    ]
    .into_iter()
    .find(|req| ring.route(route_key(req), &[true, true]) == Some(fake_index))
    .expect("some candidate request must land on the fake worker");

    let router = std::thread::spawn(move || run_router(&opts));
    await_endpoint(&listen);
    let out = client(&listen, &format!("{victim}\n"));
    let frames = parse_frames(&out);
    assert_eq!(frames.len(), 1, "tcp={tcp}: {out}");
    assert!(
        frames[0].0.contains("status=ok"),
        "tcp={tcp}: the live sibling must answer after the tear: {}",
        frames[0].0
    );
    assert!(
        !frames[0].1.is_empty(),
        "tcp={tcp}: rerouted body must be whole"
    );

    let _ = client(&listen, "ghr-shutdown\n");
    router.join().unwrap().expect("router drains cleanly");
    real.kill().unwrap();
    real.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_frame_reroutes_to_live_sibling_unix() {
    torn_frame_reroutes_to_live_sibling(false);
}

#[test]
fn torn_frame_reroutes_to_live_sibling_tcp() {
    torn_frame_reroutes_to_live_sibling(true);
}

/// The client-side battery: trickled writes, framing violations, and a
/// pipelined burst, all through one real 2-worker cluster.
fn client_side_battery(tcp: bool) {
    let dir = tmp_dir(if tcp { "client-tcp" } else { "client-unix" });
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let worker_socks = [dir.join("w0.sock"), dir.join("w1.sock")];
    let mut children: Vec<Child> = worker_socks
        .iter()
        .map(|s| spawn_worker(s, &cache))
        .collect();
    for sock in &worker_socks {
        await_endpoint(&Endpoint::unix(sock.to_str().unwrap()));
    }
    let (mut opts, listen) = listen_options(tcp, &dir);
    opts.attach = worker_socks
        .iter()
        .map(|s| s.to_str().unwrap().to_string())
        .collect();
    opts.sessions = 4;
    let router = std::thread::spawn(move || run_router(&opts));
    await_endpoint(&listen);

    // 1-byte-at-a-time request write: the line assembles on the router
    // side regardless of how many reads the transport splits it into.
    {
        let mut stream = listen.connect().unwrap();
        for b in b"table1\n" {
            stream.write_all(&[*b]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let frames = parse_frames(&out);
        assert_eq!(frames.len(), 1, "tcp={tcp}: {out}");
        assert!(
            frames[0].0.contains("status=ok"),
            "tcp={tcp}: {}",
            frames[0].0
        );
    }

    // Framing violations answer the exact reasoned error frame.
    for (payload, reason) in [
        (b"table1\r\n".to_vec(), wire::REASON_CRLF),
        (b"tab\0le1\n".to_vec(), wire::REASON_NUL),
        (
            {
                let mut l = vec![b'x'; 5000];
                l.push(b'\n');
                l
            },
            wire::REASON_OVERSIZED,
        ),
        (b"table1".to_vec(), wire::REASON_TRUNCATED), // EOF mid-line
    ] {
        let mut stream = listen.connect().unwrap();
        stream.write_all(&payload).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert_eq!(
            out,
            frame_text(wire::Frame::error(reason)),
            "tcp={tcp}: framing violation must name its reason"
        );
    }

    // Pipelined burst: warm each request alone first (twice, so the
    // second pass is the stable warm frame), then send them all in one
    // write. The burst's frames must come back in arrival order and
    // byte-identical to the solo frames — interleaving across the
    // in-flight forwards must never bleed bytes between responses.
    let burst = [
        "table1", "whatif", "fig1 c1", "fig1 c2", "fig1 c3", "fig1 c4",
    ];
    let mut solo = Vec::new();
    for req in &burst {
        let _ = client(&listen, &format!("{req}\n"));
        let out = client(&listen, &format!("{req}\n"));
        let frames = parse_frames(&out);
        assert_eq!(frames.len(), 1, "tcp={tcp}: {out}");
        solo.push(frames[0].clone());
    }
    let all: String = burst.iter().map(|r| format!("{r}\n")).collect();
    let out = client(&listen, &all);
    let frames = parse_frames(&out);
    assert_eq!(frames.len(), burst.len(), "tcp={tcp}: {out}");
    for (i, (frame, want)) in frames.iter().zip(&solo).enumerate() {
        assert_eq!(
            frame, want,
            "tcp={tcp}: pipelined frame {i} ({}) differs from its solo run",
            burst[i]
        );
    }

    let _ = client(&listen, "ghr-shutdown\n");
    router.join().unwrap().expect("router drains cleanly");
    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_side_battery_unix() {
    client_side_battery(false);
}

#[test]
fn client_side_battery_tcp() {
    client_side_battery(true);
}
