//! End-to-end router test over two *real* `ghr serve` worker processes:
//! frames stream back byte-identically, routing is deterministic and
//! cache-local, a killed worker's ids are answered warm by the ring
//! successor (through the shared persistent store), a fully dead
//! cluster degrades to `reason=no-live-worker` instead of hanging, and
//! a pipelined burst for one worker comes back promptly and in order.

#![cfg(unix)]

use ghr_cli::router::{route_key, run_router, HashRing, RouterOptions};
use ghr_types::wire;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ghr-router-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

fn await_socket(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while UnixStream::connect(path).is_err() {
        assert!(Instant::now() < deadline, "socket {path:?} never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Send request lines over one connection and return everything the
/// router streamed back (the write half closes, so the session drains).
fn client(socket: &Path, lines: &str) -> String {
    let mut stream = UnixStream::connect(socket).expect("connect to router");
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

/// Two workers with `--sessions 4` on a shared cache dir, attached to
/// an in-process router with 4 sessions and the given per-worker
/// in-flight budget; returns the worker processes, their sockets, the
/// router socket and the router thread.
type Cluster = (
    Vec<Child>,
    [PathBuf; 2],
    PathBuf,
    std::thread::JoinHandle<Result<String, String>>,
);

fn cluster(dir: &Path, worker_inflight: Option<usize>) -> Cluster {
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let worker_socks = [dir.join("w0.sock"), dir.join("w1.sock")];
    let children: Vec<Child> = worker_socks
        .iter()
        .map(|s| spawn_worker(s, &cache))
        .collect();
    for sock in &worker_socks {
        await_socket(sock);
    }

    let router_sock = dir.join("router.sock");
    let opts = RouterOptions {
        socket: Some(router_sock.to_str().unwrap().to_string()),
        attach: worker_socks
            .iter()
            .map(|s| s.to_str().unwrap().to_string())
            .collect(),
        sessions: 4,
        worker_inflight,
        ..RouterOptions::default()
    };
    let router = std::thread::spawn(move || run_router(&opts));
    await_socket(&router_sock);
    (children, worker_socks, router_sock, router)
}

#[test]
fn router_forwards_reroutes_and_drains_over_real_workers() {
    let dir = tmp_dir("main");
    let (mut children, worker_socks, router_sock, router) = cluster(&dir, None);

    // The same request twice plus a non-servable line: two ok frames
    // with identical bodies and one pass-through error body. Both
    // table1 lines go down the one connection this session holds to
    // their owner, whose worker session answers them in order, so the
    // second is always a response-cache hit: never `coalesced` onto a
    // first still in flight, whatever the thread timing.
    let out = client(&router_sock, "table1\ntable1\nno such thing\n");
    let frames = parse_frames(&out);
    assert_eq!(frames.len(), 3, "{out}");
    assert!(frames[0].0.contains("status=ok"), "{}", frames[0].0);
    assert!(frames[1].0.contains("cached=yes"), "{}", frames[1].0);
    assert_eq!(frames[0].1, frames[1].1, "same request, same body");
    assert!(frames[2].0.contains("status=error"), "{}", frames[2].0);
    assert!(frames[2].1.contains("not a servable"), "{}", frames[2].1);

    // Byte-identity: the owning worker, asked directly, must produce
    // exactly the warm frame the router just streamed.
    let ring = HashRing::new(2);
    let owner = ring.route(route_key("table1"), &[true, true]).unwrap();
    let direct = client(&worker_socks[owner], "table1\n");
    let direct_frames = parse_frames(&direct);
    assert_eq!(direct_frames.len(), 1);
    assert_eq!(
        direct_frames[0], frames[1],
        "router frame differs from the worker's own bytes"
    );

    // Kill the owner: table1's range walks to the ring successor, which
    // answers *warm* (zero evaluations) from the shared persistent
    // store the dead worker flushed into — no client-visible error.
    children[owner].kill().unwrap();
    children[owner].wait().unwrap();
    let out = client(&router_sock, "table1\n");
    let frames = parse_frames(&out);
    assert_eq!(frames.len(), 1, "{out}");
    assert!(
        frames[0].0.contains("status=ok"),
        "killed worker's id must be answered by the successor: {}",
        frames[0].0
    );
    assert!(
        frames[0].0.contains("evals=0"),
        "successor must answer from the shared store, not re-evaluate: {}",
        frames[0].0
    );
    assert_eq!(
        frames[0].1, direct_frames[0].1,
        "body survives the re-route"
    );

    // Kill the survivor too: the ring is empty and the client gets an
    // explicit error frame, never a hang.
    let survivor = 1 - owner;
    children[survivor].kill().unwrap();
    children[survivor].wait().unwrap();
    let out = client(&router_sock, "table1\n");
    assert_eq!(
        out, "ghr-error reason=no-live-worker\nghr-end\n",
        "dead cluster must degrade explicitly"
    );

    // A shutdown frame drains the router; attached workers are not its
    // to reap (they are already dead here) and the socket file goes.
    let _ = client(&router_sock, "ghr-shutdown\n");
    let summary = router.join().unwrap().expect("router drains cleanly");
    assert!(summary.contains("routed"), "{summary}");
    assert!(!router_sock.exists(), "socket file must be removed");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight copies of one warm line in one write all belong to one worker.
/// They queue on the session's single connection to it, so the burst
/// cannot open more connections than the worker has `--sessions` slots
/// and park the extras in its listen backlog: all eight frames come
/// back at once, in order, each byte-identical to the line sent alone.
#[test]
fn pipelined_burst_for_one_worker_returns_promptly_in_order() {
    let dir = tmp_dir("burst");
    let (mut children, _, router_sock, router) = cluster(&dir, None);

    // The second solo answer is the stable warm frame (`cached=yes`).
    let _ = client(&router_sock, "table1\n");
    let solo = parse_frames(&client(&router_sock, "table1\n"));
    assert_eq!(solo.len(), 1);
    assert!(solo[0].0.contains("cached=yes"), "{}", solo[0].0);

    let deadline = Duration::from_secs(5);
    let mut stream = UnixStream::connect(&router_sock).expect("connect to router");
    stream.set_read_timeout(Some(deadline)).unwrap();
    let t0 = Instant::now();
    stream.write_all("table1\n".repeat(8).as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    let read = stream.read_to_string(&mut out);
    let took = t0.elapsed();
    assert!(
        read.is_ok() && took < deadline,
        "8-line burst not answered within {deadline:?} ({took:?}, {read:?}): {} frame(s) back",
        out.matches("ghr-end\n").count()
    );
    let frames = parse_frames(&out);
    assert_eq!(frames.len(), 8, "{out}");
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(
            frame, &solo[0],
            "burst frame {i} differs from the solo warm frame"
        );
    }

    let _ = client(&router_sock, "ghr-shutdown\n");
    router.join().unwrap().expect("router drains cleanly");
    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--worker-inflight 1`: a worker's slot is held from the write of a
/// line until its frame is read. Two pipelined lines for one worker are
/// both written before either frame is read, so the second is refused
/// at the door with `reason=overload`; sent one after the other, both
/// are admitted because the first frame gave its slot back.
#[test]
fn worker_inflight_slots_span_write_to_frame() {
    let dir = tmp_dir("inflight");
    let (mut children, _, router_sock, router) = cluster(&dir, Some(1));

    let lockstep = [
        client(&router_sock, "table1\n"),
        client(&router_sock, "table1\n"),
    ];
    for out in &lockstep {
        let frames = parse_frames(out);
        assert_eq!(frames.len(), 1, "{out}");
        assert!(frames[0].0.contains("status=ok"), "{}", frames[0].0);
    }

    let out = client(&router_sock, "table1\ntable1\n");
    let frames = parse_frames(&out);
    assert_eq!(frames.len(), 2, "{out}");
    assert!(frames[0].0.contains("status=ok"), "{}", frames[0].0);
    assert_eq!(frames[1].0, "ghr-error reason=overload", "{out}");

    let _ = client(&router_sock, "ghr-shutdown\n");
    router.join().unwrap().expect("router drains cleanly");
    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
