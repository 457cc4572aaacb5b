//! `ghr serve` — a long-lived request loop over one warm engine.
//!
//! The serve loop reads line-delimited requests (the same words as the
//! CLI's experiment commands: `table1`, `fig1 c2 --csv`, `summary`, …)
//! from stdin or a unix socket, runs each through the engine's
//! request → plan → execute pipeline, and writes framed responses:
//!
//! ```text
//! ghr-response id=<hash16> status=ok|error bytes=<n> evals=<n> cached=<yes|no|coalesced>
//! <body bytes>
//! ghr-end
//! ```
//!
//! Every frame, answer or rejection, is built whole by [`wire::Frame`]
//! and leaves in one `write`.
//!
//! The engine — and therefore its point caches, persistent store and
//! response cache — lives for the whole server, so a repeated identical
//! request (same [`ghr_core::Request::id`]) is answered from the response
//! cache with zero re-planning and zero evaluations (`evals=0 cached=yes`),
//! and a request that duplicates another session's *in-flight* evaluation
//! coalesces onto it (`evals=0 cached=coalesced`) instead of evaluating
//! again. A repeated line — same id and render variant — also skips the
//! renderer: from the id's second touch on, its body comes from the
//! engine's render memo ([`Engine::render_once`]). `quit` or `exit` (or
//! EOF) ends one session; blank lines and `#`
//! comments are ignored. The store is flushed after every request, so a
//! concurrent or later process sees results as soon as they exist.
//!
//! ## Framing discipline
//!
//! Request lines are read as raw bytes, not trusted text. A line with a
//! trailing `\r` (a CRLF client), an interior NUL, more than
//! [`MAX_REQUEST_LINE`] bytes, invalid UTF-8, or a missing final newline
//! (a truncated frame) is rejected *before* request parsing with a
//! two-line error frame — and the session keeps serving:
//!
//! ```text
//! ghr-error reason=<slug>
//! ghr-end
//! ```
//!
//! ## Concurrency and shutdown
//!
//! With `--socket PATH` the server accepts connections on a bounded
//! session set (`--sessions N`, default = engine worker threads); each
//! session runs on its own thread over the shared engine, so warm requests
//! answer from the response cache while cold ones plan/execute, and
//! frames never interleave (each session owns its stream). Stdin is one
//! sequential session. The acceptor sleeps until a connection arrives, a
//! session ends or a signal lands, so a connection is accepted as it
//! arrives and an idle server makes no wakeups (one `Acceptor`, shared with
//! `ghr router`). Shutdown is graceful — in-flight requests finish,
//! sessions drain, then the listener exits — and is triggered by a
//! `ghr-shutdown` frame on any session, SIGTERM, or `--max-idle SECS`
//! elapsing with no active session.
//!
//! ## Admission control (overload degradation contract)
//!
//! With `--max-inflight N` the server holds a server-wide budget of
//! requests allowed *inside the engine* at once. A request arriving past
//! the budget is rejected **immediately** with a body-less
//! `ghr-error reason=overload` frame — it never queues, never touches the
//! engine, and the session keeps serving. Clients see bounded latency on
//! admitted requests and an explicit, retryable signal on the rest, which
//! is the graceful-degradation contract `ghr loadgen`'s overload phase
//! measures (p99 stays bounded instead of collapsing into an unbounded
//! queue). Without the flag every request is admitted, as before.

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ghr_core::engine::{Engine, EngineStats, ResponseSource};
use ghr_types::wire::{self, Frame};
use ghr_types::{RequestId, SessionStats, StageTiming};

/// Longest accepted request line, in bytes. Real requests are a few words;
/// anything longer is a confused client or a protocol attack.
pub const MAX_REQUEST_LINE: usize = 4096;

/// Hard ceiling on buffered bytes for a single (oversized) line: beyond
/// this the remainder is consumed but not stored, so a malicious client
/// cannot balloon server memory before the `oversized-line` rejection.
pub(crate) const HARD_LINE_CAP: usize = 1 << 20;

/// Server-wide in-flight request budget (`--max-inflight`): a request is
/// admitted only while fewer than `limit` requests hold permits, and a
/// rejected arrival gets an immediate `ghr-error reason=overload` frame
/// instead of queueing. Shared by every session of one server.
#[derive(Debug)]
pub struct Admission {
    limit: usize,
    inflight: AtomicUsize,
    rejected: AtomicU64,
}

impl Admission {
    /// A budget admitting at most `limit` (≥ 1) concurrent requests.
    pub fn new(limit: usize) -> Self {
        Admission {
            limit: limit.max(1),
            inflight: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Try to take an in-flight slot. `None` means the budget is spent —
    /// the caller must reject the request without touching the engine.
    pub fn try_admit(&self) -> Option<AdmissionPermit<'_>> {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.limit {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(AdmissionPermit(self)),
                Err(now) => cur = now,
            }
        }
    }

    /// Requests currently holding permits.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Requests rejected with `reason=overload` so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Give back one slot. [`AdmissionPermit`] calls this on drop; a
    /// holder that must keep its slot past the permit's borrow (the
    /// router holds a worker's slot from the write of a line until its
    /// frame is read) forgets the permit and calls this itself.
    pub(crate) fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An admitted request's slot; dropping it releases the budget.
pub struct AdmissionPermit<'a>(&'a Admission);

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Per-session knobs, shared by every session of one server.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig<'a> {
    /// Longest accepted request line in bytes (`--max-frame`; longer lines
    /// are rejected with `reason=oversized-line`).
    pub max_frame: usize,
    /// In-flight budget; `None` admits everything.
    pub admission: Option<&'a Admission>,
}

impl Default for SessionConfig<'_> {
    fn default() -> Self {
        SessionConfig {
            max_frame: MAX_REQUEST_LINE,
            admission: None,
        }
    }
}

/// What one serve session did (returned for logging and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Requests answered (ok or error frames written).
    pub served: u64,
    /// Whether the session ended on an explicit `quit`/`exit`/
    /// `ghr-shutdown` (vs EOF or server shutdown).
    pub quit: bool,
    /// Full per-session accounting.
    pub stats: SessionStats,
}

/// Append raw bytes into `buf` until a newline or EOF; whether a
/// complete line arrived (`false` is EOF, and any bytes left in `buf`
/// are a truncated line). The newline itself is consumed but not
/// stored. Bytes beyond `hard_cap` are consumed but dropped (the stored
/// prefix is enough to reject the line as oversized). Hard I/O errors
/// read as EOF — for a socket that is a vanished client, not a server
/// fault.
pub(crate) fn read_raw_line(input: &mut impl BufRead, buf: &mut Vec<u8>, hard_cap: usize) -> bool {
    loop {
        let chunk = match input.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        if chunk.is_empty() {
            return false;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let upto = newline.unwrap_or(chunk.len());
        let room = hard_cap.saturating_sub(buf.len());
        buf.extend_from_slice(&chunk[..upto.min(room)]);
        if upto > room {
            // Remember that bytes were dropped so the length check below
            // still sees an oversized line.
            buf.resize(hard_cap, b'#');
        }
        input.consume(upto + usize::from(newline.is_some()));
        if newline.is_some() {
            return true;
        }
    }
}

/// Validate one raw line and decode it, or name the protocol violation
/// with its [`wire`] rejection slug.
pub(crate) fn classify_line(buf: &[u8], max_frame: usize) -> Result<&str, &'static str> {
    if buf.last() == Some(&b'\r') {
        return Err(wire::REASON_CRLF);
    }
    if buf.contains(&0) {
        return Err(wire::REASON_NUL);
    }
    if buf.len() > max_frame {
        return Err(wire::REASON_OVERSIZED);
    }
    std::str::from_utf8(buf).map_err(|_| wire::REASON_INVALID_UTF8)
}

/// Run one serve session until EOF, `quit`, or shutdown. Frames go to
/// `out` (owned by this session — frames from concurrent sessions never
/// interleave); one human-readable log line per request goes to `err`.
/// `shutdown` is the server-wide drain flag: the session observes it
/// between requests and exits promptly; a `ghr-shutdown` frame *sets*
/// it, draining every session. A drain also ends a session blocked
/// reading an idle client (the acceptor shuts its read side down), and
/// a partial line cut off that way is not rejected.
pub fn serve_session(
    engine: &Engine,
    session: u64,
    input: &mut impl BufRead,
    out: &mut impl Write,
    err: &mut impl Write,
    shutdown: &AtomicBool,
    config: &SessionConfig<'_>,
) -> Result<ServeSummary, String> {
    let mut summary = ServeSummary::default();
    let mut buf: Vec<u8> = Vec::new();
    // The buffering ceiling must exceed the frame cap so an over-cap line
    // is stored far enough to be *classified* as oversized, while a
    // pathological line still cannot balloon memory.
    let hard_cap = HARD_LINE_CAP.max(config.max_frame.saturating_add(1));
    loop {
        if !read_raw_line(input, &mut buf, hard_cap) {
            if !buf.is_empty() && !shutdown.load(Ordering::SeqCst) {
                summary.stats.malformed += 1;
                send(out, &Frame::error(wire::REASON_TRUNCATED))?;
                let _ = writeln!(
                    err,
                    "serve[{session}]: rejected malformed frame ({})",
                    wire::REASON_TRUNCATED
                );
            }
            break;
        }
        let line = match classify_line(&buf, config.max_frame) {
            Ok(s) => s.to_string(),
            Err(reason) => {
                summary.stats.malformed += 1;
                send(out, &Frame::error(reason))?;
                let _ = writeln!(err, "serve[{session}]: rejected malformed frame ({reason})");
                buf.clear();
                continue;
            }
        };
        buf.clear();
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" || line == "exit" {
            summary.quit = true;
            break;
        }
        if line == wire::SHUTDOWN_LINE {
            summary.quit = true;
            shutdown.store(true, Ordering::SeqCst);
            let _ = writeln!(err, "serve[{session}]: shutdown frame received; draining");
            break;
        }
        let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let (cmd, rest) = (words[0].as_str(), &words[1..]);

        let t0 = std::time::Instant::now();
        // Admission control: past the in-flight budget the request is
        // rejected *now*, without queueing or touching the engine.
        let permit = match config.admission.map(Admission::try_admit) {
            Some(None) => {
                summary.stats.overloaded += 1;
                send(out, &Frame::error(wire::REASON_OVERLOAD))?;
                let _ = writeln!(err, "serve[{session}]: rejected {line} (overload)");
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Some(permit @ Some(_)) => permit,
            None => None,
        };
        let answer = serve_one(engine, cmd, rest);
        drop(permit);
        summary.served += 1;
        summary.stats.served += 1;
        let (status, id, body, cached, evals) = match answer {
            Ok((id, body, source, evals)) => {
                summary.stats.ok += 1;
                summary.stats.evals += evals;
                let cached = match source {
                    ResponseSource::Fresh => "no",
                    ResponseSource::ResponseCache => {
                        summary.stats.response_cache_hits += 1;
                        "yes"
                    }
                    ResponseSource::Coalesced => {
                        summary.stats.coalesced += 1;
                        "coalesced"
                    }
                };
                ("ok", id.to_string(), body, cached, evals)
            }
            Err(e) => {
                summary.stats.errors += 1;
                let body = format!("error: {e}\n").into();
                ("error", "-".repeat(16), body, "no", 0)
            }
        };
        send(out, &Frame::response(&id, status, &body, evals, cached))?;
        // The client has its answer now; the flush after it is not part
        // of the request's time.
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        if let Err(e) = engine.flush_store() {
            let _ = writeln!(
                err,
                "serve[{session}]: warning: persistent cache flush failed: {e}"
            );
        }
        let _ = writeln!(
            err,
            "serve[{session}]: {line} -> {status} id={id} evals={evals} cached={cached} {ms:.1} ms"
        );
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(summary)
}

/// Run one sequential serve session until EOF or `quit` — the stdin mode,
/// and the entry point the integration tests drive over in-memory pipes.
pub fn serve_loop(
    engine: &Engine,
    mut input: impl BufRead,
    out: &mut impl Write,
    err: &mut impl Write,
) -> Result<ServeSummary, String> {
    let shutdown = AtomicBool::new(false);
    serve_session(
        engine,
        0,
        &mut input,
        out,
        err,
        &shutdown,
        &SessionConfig::default(),
    )
}

/// Answer one request line: parse its command and render switches once,
/// resolve it to a declarative [`ghr_core::Request`] and hash that once
/// (the id in the frame header), run it through
/// [`Engine::respond_with_id`] — single-flight, so a duplicate of another
/// session's in-flight request waits for that evaluation instead of
/// repeating it — and take the body from [`Engine::render_once`]: the
/// memoized body of a repeated `(id, render variant)`, or a fresh render
/// through the renderer the one-shot CLI uses, so a serve body is
/// byte-identical to the corresponding `ghr <command>` output.
fn serve_one(
    engine: &Engine,
    cmd: &str,
    rest: &[String],
) -> Result<(RequestId, Arc<str>, ResponseSource, u64), String> {
    let render = crate::Render::parse(cmd, rest).ok_or_else(|| {
        format!(
            "{cmd:?} is not a servable experiment request \
             (serve answers: {})",
            crate::SERVABLE
        )
    })?;
    let request = render.request(rest)?;
    let id = request.id();
    let responded = engine
        .respond_with_id(&request, id.0)
        .map_err(|e| e.to_string())?;
    let body = engine.render_once(id.0, render.variant(), &responded, |r| render.body(r))?;
    Ok((id, body, responded.source, responded.evals))
}

/// Write one whole frame to the session's output as one buffer.
fn send(out: &mut impl Write, frame: &Frame) -> Result<(), String> {
    out.write_all(frame.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("serve: write failed: {e}"))
}

/// Render the engine counters and per-stage executor timings as one JSON
/// object (std-only; no serializer dependency). This is what
/// `--stats-json` prints to stderr.
pub fn stats_json(stats: &EngineStats, stages: &[StageTiming], wall_ms: f64) -> String {
    use ghr_types::pipeline::{json_escape, json_f64};
    let mut s = String::with_capacity(256 + stages.len() * 96);
    let _ = write!(
        s,
        "{{\"threads\":{},\"requests\":{},\"response_hits\":{},\
         \"coalesced\":{},\"response_hit_rate\":{},\"lookups\":{},\"hits\":{},\
         \"evaluated\":{},\"hit_rate\":{},\"persistent\":{{\"loaded\":{},\
         \"hits\":{},\"misses\":{},\"stored\":{}}},\"sweep\":{{\"evaluated\":{},\
         \"skipped\":{}}},\"cache_bytes\":{},\"inflight\":{{\"claims\":{},\
         \"joins\":{}}},\"wall_ms\":{},\"stages\":[",
        stats.threads,
        stats.requests,
        stats.response_hits,
        stats.coalesced,
        json_f64(stats.response_hit_rate()),
        stats.lookups,
        stats.hits,
        stats.evaluated,
        json_f64(stats.hit_rate()),
        stats.persistent_loaded,
        stats.persistent_hits,
        stats.persistent_misses,
        stats.persistent_stored,
        stats.sweep_evaluated,
        stats.sweep_skipped,
        stats.replica_log_bytes,
        stats.inflight_claims,
        stats.inflight_joins,
        json_f64(wall_ms),
    );
    for (i, st) in stages.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"items\":{},\"evaluated\":{},\"millis\":{}}}",
            json_escape(&st.name),
            st.items,
            st.evaluated,
            json_f64(st.millis),
        );
    }
    s.push_str("]}");
    s
}

#[cfg(unix)]
pub use socket::{serve_endpoint, serve_socket, ServeOptions};

/// Std-only SIGTERM latch: the handler stores an atomic flag and writes
/// one byte to a process-wide [`Wake`] that nobody clears, which is the
/// whole async-signal-safe repertoire. Every acceptor waits on that wake,
/// so a SIGTERM that lands between an acceptor's flag check and its wait
/// still ends the wait.
///
/// [`Wake`]: ghr_types::transport::Wake
#[cfg(unix)]
pub(crate) mod sig {
    use ghr_types::transport::Wake;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
    use std::sync::OnceLock;

    static TERM: AtomicBool = AtomicBool::new(false);
    static WAKE: OnceLock<Wake> = OnceLock::new();
    /// The descriptor the handler writes `WAKE` through; `-1` until
    /// [`install`] has run.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" fn on_sigterm(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
        let fd = WAKE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            // SAFETY: `write(2)` is async-signal-safe, the one-byte
            // buffer lives on this frame, and the descriptor is
            // non-blocking and open for the life of the process.
            unsafe {
                write(fd, [1u8].as_ptr().cast(), 1);
            }
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const std::ffi::c_void, count: usize) -> isize;
    }

    const SIGTERM: i32 = 15;

    /// Install the handler and return the wake it writes to, clearing
    /// any latch from a previous server in this process (back-to-back
    /// tests).
    pub fn install() -> std::io::Result<&'static Wake> {
        let wake = match WAKE.get() {
            Some(wake) => wake,
            None => {
                let fresh = Wake::new()?;
                WAKE.get_or_init(|| fresh)
            }
        };
        TERM.store(false, Ordering::SeqCst);
        wake.clear();
        WAKE_FD.store(wake.signal_fd(), Ordering::SeqCst);
        // SAFETY: `on_sigterm` touches only atomics and `write(2)`.
        unsafe {
            signal(SIGTERM, on_sigterm);
        }
        Ok(wake)
    }

    pub fn seen() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(unix)]
pub(crate) use socket::Acceptor;

#[cfg(unix)]
mod socket {
    use super::{serve_session, sig, Admission, ServeSummary, SessionConfig};
    use ghr_core::engine::Engine;
    use ghr_types::transport::{Endpoint, Listener, Stream, Waited, Wake};
    use ghr_types::SessionStats;
    use std::io::BufReader;
    use std::net::Shutdown;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// How the socket server bounds and drains its sessions.
    #[derive(Debug, Clone)]
    pub struct ServeOptions {
        /// Concurrent session cap; further connections queue in the
        /// listener backlog until a slot drains.
        pub sessions: usize,
        /// Shut down after this long with no active session.
        pub max_idle: Option<Duration>,
        /// Server-wide in-flight request budget (`--max-inflight`);
        /// arrivals past it get `ghr-error reason=overload` immediately.
        /// `None` admits everything.
        pub max_inflight: Option<usize>,
        /// Longest accepted request line in bytes (`--max-frame`).
        pub max_frame: usize,
    }

    impl Default for ServeOptions {
        fn default() -> Self {
            ServeOptions {
                sessions: 1,
                max_idle: None,
                max_inflight: None,
                max_frame: super::MAX_REQUEST_LINE,
            }
        }
    }

    /// Accept connections on a unix socket onto a bounded session set over
    /// the shared engine (see [`serve_endpoint`] for the general form).
    pub fn serve_socket(
        engine: &Arc<Engine>,
        path: &str,
        opts: &ServeOptions,
    ) -> Result<String, String> {
        serve_endpoint(engine, &Endpoint::unix(path), opts)
    }

    /// Accept connections on a unix-socket or TCP endpoint onto a bounded
    /// session set over the shared engine. Runs until a `ghr-shutdown`
    /// frame, SIGTERM, or the idle timeout, then drains: in-flight
    /// sessions finish their current request and exit, their counters are
    /// absorbed, and whatever the bind left on disk is removed. The wire
    /// protocol is transport-agnostic, so frames are byte-identical
    /// across unix and TCP sessions.
    pub fn serve_endpoint(
        engine: &Arc<Engine>,
        endpoint: &Endpoint,
        opts: &ServeOptions,
    ) -> Result<String, String> {
        let cap = opts.sessions.max(1);
        let term = sig::install().map_err(|e| format!("cannot watch SIGTERM: {e}"))?;
        let listener = endpoint
            .bind()
            .map_err(|e| format!("cannot bind {endpoint}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot poll {endpoint}: {e}"))?;
        // With `--tcp 0` the OS picks the port; report where it landed.
        let bound = listener
            .local_endpoint()
            .unwrap_or_else(|| endpoint.clone());
        let shutdown = Arc::new(AtomicBool::new(false));
        let admission = opts
            .max_inflight
            .map(|limit| Arc::new(Admission::new(limit)));
        if !bound.is_loopback() {
            eprintln!(
                "serve: WARNING: {bound} is reachable beyond this host and the wire \
                 protocol is unauthenticated — bind loopback (the default) unless the \
                 network path is trusted"
            );
        }
        eprintln!(
            "serve: listening on {bound} ({cap} session slot(s){}; \
             `ghr-shutdown` or SIGTERM stops the server)",
            match opts.max_inflight {
                Some(limit) => format!(", max {limit} in-flight request(s)"),
                None => String::new(),
            }
        );
        let session = {
            let engine = Arc::clone(engine);
            let shutdown = Arc::clone(&shutdown);
            let admission = admission.clone();
            let max_frame = opts.max_frame;
            move |id: u64, input: &mut BufReader<Stream>, out: &mut Stream| {
                let config = SessionConfig {
                    max_frame,
                    admission: admission.as_deref(),
                };
                let stderr = &mut std::io::stderr();
                match serve_session(&engine, id, input, out, stderr, &shutdown, &config) {
                    Ok(summary) => {
                        eprintln!(
                            "serve[{id}]: session done — {}",
                            summary.stats.summary_line()
                        );
                        summary
                    }
                    Err(e) => {
                        // A vanished client mid-write is a session event,
                        // not a server fault.
                        eprintln!("serve[{id}]: session ended: {e}");
                        ServeSummary::default()
                    }
                }
            }
        };
        let mut total = SessionStats::default();
        let acceptor = Acceptor {
            who: "serve",
            listener: &listener,
            sessions: cap,
            max_idle: opts.max_idle,
            shutdown: &shutdown,
            term,
        };
        let sessions = acceptor.run(session, |summary: ServeSummary| {
            total.absorb(&summary.stats)
        });
        endpoint.cleanup();
        let sessions = sessions?;
        eprintln!("serve: drained — {}", total.summary_line());
        if let Some(admission) = &admission {
            if admission.rejected() > 0 {
                eprintln!(
                    "serve: {} request(s) rejected with reason=overload",
                    admission.rejected()
                );
            }
        }
        Ok(format!(
            "served {} request(s) across {sessions} session(s) on {bound}\n",
            total.served
        ))
    }

    /// The accept loop `ghr serve` and `ghr router` share. It sleeps in
    /// [`Listener::wait`] until a connection is pending, a session ends,
    /// SIGTERM arrives, or `max_idle` has passed with no live session, so
    /// it accepts each connection as it arrives and makes no wakeups of
    /// its own. A session that reads `ghr-shutdown` sets `shutdown` and
    /// ends, and its end wakes the loop. Sessions block in their reads
    /// with no timeout; the drain ends those reads by shutting each live
    /// session's read side down.
    pub(crate) struct Acceptor<'a> {
        /// `serve` or `router`, for log lines.
        pub who: &'static str,
        /// A bound, non-blocking listener.
        pub listener: &'a Listener,
        /// Live-session cap; further connections wait in the backlog.
        pub sessions: usize,
        /// Stop after this long with no live session.
        pub max_idle: Option<Duration>,
        /// The drain flag every session watches.
        pub shutdown: &'a AtomicBool,
        /// The SIGTERM wake, from [`sig::install`].
        pub term: &'static Wake,
    }

    /// A handle on each live session's stream, by session id: their
    /// count is the live-session count, and the drain shuts their read
    /// sides down.
    type Live = Mutex<Vec<(u64, Stream)>>;

    fn lock(live: &Live) -> MutexGuard<'_, Vec<(u64, Stream)>> {
        live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A session thread's last act, run by drop even if the session
    /// panics: count the session out (closing the acceptor's handle on
    /// its stream) and wake the acceptor.
    struct Ending {
        id: u64,
        live: Arc<Live>,
        wake: Arc<Wake>,
    }

    impl Drop for Ending {
        fn drop(&mut self) {
            lock(&self.live).retain(|(id, _)| *id != self.id);
            self.wake.wake();
        }
    }

    impl Acceptor<'_> {
        /// Run each accepted connection through `session` on its own
        /// thread (its id, its buffered input, its output) until
        /// shutdown, SIGTERM or the idle timeout; then set `shutdown`,
        /// join every session and hand each result to `absorb`. Returns
        /// how many sessions ran.
        pub fn run<T, S>(&self, session: S, mut absorb: impl FnMut(T)) -> Result<u64, String>
        where
            T: Send + 'static,
            S: Fn(u64, &mut BufReader<Stream>, &mut Stream) -> T + Send + Sync + 'static,
        {
            let who = self.who;
            let ended = Arc::new(Wake::new().map_err(|e| format!("{who}: cannot wake: {e}"))?);
            let live: Arc<Live> = Arc::default();
            let session = Arc::new(session);
            let mut threads: Vec<JoinHandle<T>> = Vec::new();
            let mut started = 0u64;
            let mut idle_since = Some(Instant::now());
            let stopped = loop {
                ended.clear();
                if sig::seen() {
                    self.shutdown.store(true, Ordering::SeqCst);
                }
                if self.shutdown.load(Ordering::SeqCst) {
                    break Ok(());
                }
                reap_finished(&mut threads, &mut absorb);
                let live_now = lock(&live).len();
                let deadline = if live_now > 0 {
                    idle_since = None;
                    None
                } else {
                    let since = *idle_since.get_or_insert_with(Instant::now);
                    self.max_idle.map(|idle| since + idle)
                };
                let wakes = [&*ended, self.term];
                let waited = if live_now < self.sessions {
                    self.listener.wait(&wakes, deadline)
                } else {
                    Wake::wait_any(&wakes, deadline)
                };
                match waited {
                    Ok(Waited::Woken) => {}
                    Ok(Waited::Deadline) => {
                        eprintln!(
                            "{who}: idle for {:.1}s with no session; shutting down",
                            self.max_idle.unwrap_or_default().as_secs_f64()
                        );
                        break Ok(());
                    }
                    Ok(Waited::Connection) => match self.listener.accept() {
                        Ok(stream) => {
                            idle_since = None;
                            started += 1;
                            let id = started;
                            let (input, handle) = match (stream.try_clone(), stream.try_clone()) {
                                (Ok(reader), Ok(handle)) => (BufReader::new(reader), handle),
                                (Err(e), _) | (_, Err(e)) => {
                                    eprintln!("{who}[{id}]: cannot clone stream: {e}");
                                    continue;
                                }
                            };
                            lock(&live).push((id, handle));
                            let ending = Ending {
                                id,
                                live: Arc::clone(&live),
                                wake: Arc::clone(&ended),
                            };
                            let session = Arc::clone(&session);
                            threads.push(std::thread::spawn(move || {
                                let _ending = ending;
                                // Declared after `_ending`, so the streams
                                // close before it wakes the acceptor.
                                let (mut input, mut out) = (input, stream);
                                session(id, &mut input, &mut out)
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) => break Err(format!("{who}: accept failed: {e}")),
                    },
                    Err(e) => break Err(format!("{who}: wait for connections failed: {e}")),
                }
            };
            // Drain: no new sessions; the flag lets every in-flight
            // session finish its current request and exit, and shutting
            // the read sides down ends every read still waiting on an
            // idle client with EOF.
            self.shutdown.store(true, Ordering::SeqCst);
            for (_, stream) in lock(&live).iter() {
                let _ = stream.shutdown(Shutdown::Read);
            }
            for thread in threads {
                if let Ok(result) = thread.join() {
                    absorb(result);
                }
            }
            stopped.map(|()| started)
        }
    }

    /// Join every finished session thread (without blocking on live
    /// ones) and absorb its result.
    fn reap_finished<T>(threads: &mut Vec<JoinHandle<T>>, absorb: &mut impl FnMut(T)) {
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                if let Ok(result) = threads.swap_remove(i).join() {
                    absorb(result);
                }
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghr_machine::MachineConfig;
    use std::io::BufReader;

    fn engine() -> Engine {
        Engine::new(MachineConfig::gh200(), 2)
    }

    fn serve(input: &str) -> (ServeSummary, String, String) {
        let e = engine();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let summary = serve_loop(&e, BufReader::new(input.as_bytes()), &mut out, &mut err).unwrap();
        (
            summary,
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    #[test]
    fn blank_lines_and_comments_are_ignored() {
        let (summary, out, _) = serve("\n# warm-up batch\n\n");
        assert_eq!(summary.served, 0);
        assert!(!summary.quit);
        assert!(out.is_empty(), "{out}");
    }

    #[test]
    fn quit_ends_the_loop_before_later_requests() {
        let (summary, out, _) = serve("quit\ntable1\n");
        assert_eq!(summary.served, 0);
        assert!(summary.quit);
        assert!(out.is_empty(), "{out}");
    }

    #[test]
    fn shutdown_frame_ends_the_session_and_sets_the_flag() {
        let e = engine();
        let shutdown = AtomicBool::new(false);
        let mut input = BufReader::new("ghr-shutdown\ntable1\n".as_bytes());
        let mut out = Vec::new();
        let mut err = Vec::new();
        let summary = serve_session(
            &e,
            7,
            &mut input,
            &mut out,
            &mut err,
            &shutdown,
            &SessionConfig::default(),
        )
        .unwrap();
        assert_eq!(summary.served, 0);
        assert!(summary.quit);
        assert!(shutdown.load(Ordering::SeqCst), "shutdown flag must latch");
        assert!(out.is_empty(), "{:?}", String::from_utf8(out));
    }

    #[test]
    fn a_partial_line_cut_off_by_the_drain_is_not_rejected() {
        let e = engine();
        for (draining, frames) in [(false, 1), (true, 0)] {
            let shutdown = AtomicBool::new(draining);
            let mut input = BufReader::new("table".as_bytes());
            let mut out = Vec::new();
            let mut err = Vec::new();
            let summary = serve_session(
                &e,
                3,
                &mut input,
                &mut out,
                &mut err,
                &shutdown,
                &SessionConfig::default(),
            )
            .unwrap();
            let out = String::from_utf8(out).unwrap();
            assert_eq!(out.matches(wire::REASON_TRUNCATED).count(), frames, "{out}");
            assert_eq!(summary.stats.malformed, frames as u64);
        }
    }

    #[test]
    fn exhausted_admission_budget_rejects_with_an_overload_frame() {
        let e = engine();
        let admission = Admission::new(1);
        // Hold the only permit so the session's request arrives overloaded.
        let held = admission.try_admit().expect("first permit");
        assert_eq!(admission.inflight(), 1);
        let config = SessionConfig {
            max_frame: MAX_REQUEST_LINE,
            admission: Some(&admission),
        };
        let shutdown = AtomicBool::new(false);
        let mut input = BufReader::new("table1\nquit\n".as_bytes());
        let mut out = Vec::new();
        let mut err = Vec::new();
        let summary =
            serve_session(&e, 1, &mut input, &mut out, &mut err, &shutdown, &config).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(summary.served, 0, "{out}");
        assert_eq!(summary.stats.overloaded, 1, "{:?}", summary.stats);
        assert!(out.contains("ghr-error reason=overload"), "{out}");
        assert_eq!(
            e.stats().requests,
            0,
            "rejected requests never reach the engine"
        );
        assert_eq!(admission.rejected(), 1);
        drop(held);
        assert_eq!(
            admission.inflight(),
            0,
            "dropping the permit frees the slot"
        );
        // With the budget free again the same request is admitted and served.
        let mut input = BufReader::new("table1\nquit\n".as_bytes());
        let mut out = Vec::new();
        let summary = serve_session(
            &e,
            2,
            &mut input,
            &mut out,
            &mut std::io::sink(),
            &shutdown,
            &config,
        )
        .unwrap();
        assert_eq!(summary.served, 1);
        assert_eq!(summary.stats.overloaded, 0, "{:?}", summary.stats);
        assert!(String::from_utf8(out).unwrap().contains("status=ok"));
    }

    #[test]
    fn max_frame_rejects_longer_lines_as_oversized() {
        let e = engine();
        let config = SessionConfig {
            max_frame: 16,
            admission: None,
        };
        let shutdown = AtomicBool::new(false);
        let long = "x".repeat(20);
        let input = format!("{long}\ntable1\nquit\n");
        let mut input = BufReader::new(input.as_bytes());
        let mut out = Vec::new();
        let mut err = Vec::new();
        let summary =
            serve_session(&e, 1, &mut input, &mut out, &mut err, &shutdown, &config).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(summary.stats.malformed, 1, "{:?}", summary.stats);
        assert!(out.contains("reason=oversized-line"), "{out}");
        // A line within the tightened cap still parses and serves.
        assert_eq!(summary.served, 1, "{out}");
        assert!(out.contains("status=ok"), "{out}");
    }

    #[test]
    fn unknown_requests_get_an_error_frame_and_the_loop_survives() {
        let (summary, out, _) = serve("frobnicate\nbench --quick\n");
        assert_eq!(summary.served, 2, "{out}");
        assert_eq!(summary.stats.errors, 2, "{:?}", summary.stats);
        assert_eq!(out.matches("status=error").count(), 2, "{out}");
        assert!(out.contains("not a servable experiment request"), "{out}");
    }

    #[test]
    fn malformed_lines_are_rejected_at_the_framing_layer() {
        let (summary, out, err) = serve("table1\r\nbad\0byte\nquit\n");
        assert_eq!(summary.served, 0, "{out}");
        assert_eq!(summary.stats.malformed, 2, "{:?}", summary.stats);
        assert!(summary.quit);
        assert_eq!(out.matches("ghr-error ").count(), 2, "{out}");
        assert!(out.contains("reason=crlf-line-ending"), "{out}");
        assert!(out.contains("reason=nul-byte"), "{out}");
        assert!(err.contains("rejected malformed frame"), "{err}");
    }

    #[test]
    fn frame_header_accounts_bytes_exactly() {
        let (_, out, _) = serve("table1\n");
        let header = out.lines().next().unwrap();
        let bytes: usize = header
            .split(" bytes=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let body_start = out.find('\n').unwrap() + 1;
        let body_end = out.rfind("ghr-end\n").unwrap();
        assert_eq!(bytes, body_end - body_start, "{header}");
    }

    #[test]
    fn session_stats_track_ok_and_cache_hits() {
        let (summary, out, _) = serve("table1\ntable1\nquit\n");
        assert_eq!(summary.stats.served, 2, "{out}");
        assert_eq!(summary.stats.ok, 2);
        assert_eq!(summary.stats.response_cache_hits, 1);
        assert_eq!(summary.stats.coalesced, 0);
        assert_eq!(summary.stats.evals, 8, "{:?}", summary.stats);
    }

    #[test]
    fn stats_json_is_well_formed_and_guarded() {
        let e = engine();
        e.table1().unwrap();
        let json = stats_json(&e.stats(), &e.stage_timings(), 12.5);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"requests\":1"), "{json}");
        assert!(json.contains("\"coalesced\":0"), "{json}");
        assert!(json.contains("\"evaluated\":8"), "{json}");
        assert!(json.contains("\"name\":\"assemble\""), "{json}");
        assert!(
            json.contains("\"inflight\":{\"claims\":1,\"joins\":0}"),
            "one cold request leads one request-id flight: {json}"
        );
        let doc = ghr_types::Json::parse(&json).expect("stats JSON parses back");
        // Table 1 published one response and eight GPU points, so the
        // footprint is nonzero and renders as the engine reports it.
        let cache_bytes = doc.get("cache_bytes").and_then(ghr_types::Json::as_f64);
        assert_eq!(
            cache_bytes,
            Some(e.stats().replica_log_bytes as f64),
            "{json}"
        );
        assert!(cache_bytes.is_some_and(|b| b > 0.0), "{json}");
        assert!(!json.contains("NaN"), "{json}");
        // A fresh engine has zero lookups and zero requests; the ratios
        // must render as numbers (0), not NaN/null noise.
        let fresh = stats_json(&engine().stats(), &[], 0.0);
        assert!(fresh.contains("\"hit_rate\":0"), "{fresh}");
        assert!(fresh.contains("\"response_hit_rate\":0"), "{fresh}");
    }
}
