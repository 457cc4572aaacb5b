//! `ghr router` — a consistent-hash scale-out tier over N serve workers.
//!
//! One `ghr serve` process multiplies warm throughput until its single
//! engine saturates the host; past that point the only lever left is
//! more processes — and past *that*, more hosts. The router owns the
//! client-facing endpoint (a unix socket, or `--tcp HOST:PORT` for
//! cross-host clients) and N `ghr serve` workers on their own endpoints
//! — spawned as children on unix sockets, or attached if already
//! running (`--attach SOCK` for same-host workers, `--attach-tcp
//! HOST:PORT` for workers on other machines) — and forwards each
//! request line to the worker that owns its position on a 64-vnode
//! consistent-hash ring. The ring is *stable*: a given request id
//! always lands on the same worker, whose response and item caches
//! are warm for exactly that id, so adding workers multiplies
//! aggregate warm throughput instead of spreading every id's cache
//! entries across all of them. The router reads each worker frame with
//! [`ghr_types::wire::Frame::read`] (header, exactly the `bytes=` body
//! bytes, trailer) and relays the bytes it read, so response frames
//! stream back byte-identically over either transport and the router
//! never parses a body. Its own answers (rejections, join reports) are
//! built by the same codec.
//!
//! Sessions are *pipelined*: a client may write up to `--pipeline K`
//! request lines (default 8) without waiting for responses. The thread
//! that reads a client session also forwards its lines: it routes each
//! one and writes it on the connection the session holds to its owner
//! (one connection per worker, opened on first use), writes every line
//! the client has already sent before it reads any frame back, and
//! relays the frames in arrival order. Lines for different workers
//! therefore overlap, while lines for one worker queue on its
//! connection and that worker's session answers them in order — so a
//! burst never opens more connections to a worker than the router has
//! sessions. `--pipeline 1` restores strict lockstep.
//!
//! Because every router session may hold a connection to every worker,
//! and a worker gives each connection a session slot for its whole
//! life, a worker needs at least as many `--sessions` as the router
//! has sessions. Spawned workers get exactly that; an attached worker
//! must be started with it, or the router's extra connections park in
//! its listen backlog until the 60 s worker read timeout declares the
//! worker dead.
//!
//! Membership is *dynamic*: a `ghr-join <endpoint>` control frame
//! attaches a new worker at runtime, and a worker dead past
//! `--retire-after` is retired. Both rebuild the ring with
//! [`HashRing::for_members`], whose per-member vnode positions are
//! stable — only the arcs owned by the joining (or leaving) member
//! move, so a join migrates at most that worker's vnode share of the
//! keyspace and every other key stays home. The moved range answers
//! warm through the shared persistent store (refresh-on-miss).
//!
//! Degradation is explicit, never silent:
//!
//! * a per-worker in-flight budget (`--worker-inflight`) answers
//!   `ghr-error reason=overload` at the door, and a worker's own
//!   overload frames pass through untouched;
//! * a worker whose connection dies is marked dead and its hash range
//!   re-routes to the ring successor, while a background probe waits
//!   for the endpoint to come back — or retires it for good after
//!   `--retire-after` seconds;
//! * with every worker dead the client sees
//!   `ghr-error reason=no-live-worker`, not a hang.
//!
//! Workers share one `--cache-dir`; the persistent store's
//! refresh-on-miss (see `ghr_core::store`) means a row one worker
//! evaluated and flushed answers warm from any other — which is what
//! makes dead-worker re-routes and join-time rebalances invisible to
//! clients beyond latency.

use crate::flags::{count, seconds, Arg, Flags};
use crate::serve;
use ghr_types::{Endpoint, RequestId};
use std::time::Duration;

/// Virtual nodes per worker on the hash ring. 64 points per worker keep
/// the per-worker key-space share within a few percent of uniform while
/// the whole ring still fits in one cache line per worker-pair search.
pub const VNODES: usize = 64;

/// A stable consistent-hash ring: `VNODES` points per worker, hashed
/// from the worker *index* (not its socket path), so the same cluster
/// shape always yields the same routing regardless of where the
/// sockets live.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring position, worker index)`, sorted by position.
    points: Vec<(u64, usize)>,
}

/// Finalize a 64-bit hash for ring arithmetic (splitmix64's mixer).
/// FNV-1a is stable and collision-free enough for request *identity*,
/// but its high bits are uneven on short strings — and ring placement
/// compares whole-`u64` order, so both the vnode points and the looked-up
/// keys go through this avalanche first.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

impl HashRing {
    /// Build the ring for workers `0..workers` (the static cluster
    /// shape at startup).
    pub fn new(workers: usize) -> Self {
        Self::for_members(&(0..workers).collect::<Vec<_>>())
    }

    /// Build the ring for an explicit member set. Each member's vnode
    /// positions depend only on its own index, so growing or shrinking
    /// the set never moves a surviving member's points: a join moves
    /// exactly the arcs the new member's vnodes claim (its vnode share
    /// of the keyspace, nothing else), and a retirement returns exactly
    /// the retiree's arcs to the survivors that already owned their
    /// successors.
    pub fn for_members(members: &[usize]) -> Self {
        let mut points = Vec::with_capacity(members.len() * VNODES);
        for &w in members {
            for v in 0..VNODES {
                points.push((mix(RequestId::of(&format!("worker-{w}#vnode-{v}")).0), w));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The worker owning `key` (a raw [`route_key`] value): the first
    /// ring point at or clockwise of the mixed key whose worker is
    /// alive. `None` when no worker is alive.
    pub fn route(&self, key: u64, alive: &[bool]) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let key = mix(key);
        let start = self.points.partition_point(|&(p, _)| p < key);
        for k in 0..self.points.len() {
            let (_, w) = self.points[(start + k) % self.points.len()];
            if alive.get(w).copied().unwrap_or(false) {
                return Some(w);
            }
        }
        None
    }

    /// Each worker's share of the key space, in `[0, 1]`; the shares sum
    /// to exactly 1 (the arcs tile the full `u64` circle). `workers` is
    /// the full worker-table size — members absent from the ring (e.g.
    /// retired) get share 0.
    pub fn occupancy(&self, workers: usize) -> Vec<f64> {
        let mut arcs = vec![0u128; workers];
        for (i, &(p, w)) in self.points.iter().enumerate() {
            let prev = if i == 0 {
                self.points[self.points.len() - 1].0
            } else {
                self.points[i - 1].0
            };
            arcs[w] += u128::from(p.wrapping_sub(prev));
        }
        arcs.iter().map(|&a| a as f64 / 2f64.powi(64)).collect()
    }

    /// Ring points (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the ring has no points (a zero-worker ring).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The ring position of one request line: the *request id* when the
/// line parses as a servable experiment (so `fig1 c2 --csv` and
/// `fig1 c2` share a worker — render flags change the body, not the
/// cached evaluation), else a hash of the raw line (the owning worker
/// then renders the same error a lone server would).
pub fn route_key(line: &str) -> u64 {
    let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    if let Some((cmd, rest)) = words.split_first() {
        if let Ok(Some(req)) = crate::request_for(cmd, rest) {
            return req.id().0;
        }
    }
    RequestId::of(line).0
}

/// Everything `ghr router` needs to run, resolved from the command line
/// plus the stripped global flags.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Client-facing unix socket path (exclusive with `tcp`).
    pub socket: Option<String>,
    /// Client-facing TCP address (`--tcp HOST:PORT`, or a bare port
    /// which binds loopback). Exclusive with `socket`.
    pub tcp: Option<String>,
    /// Workers to spawn (`--workers N`); ignored when attaching.
    pub workers: usize,
    /// Unix sockets of already-running workers to attach to instead of
    /// spawning (`--attach SOCK`, repeatable). Attached workers are not
    /// shut down when the router drains.
    pub attach: Vec<String>,
    /// TCP addresses of already-running workers to attach to
    /// (`--attach-tcp HOST:PORT`, repeatable) — the cross-host leg.
    pub attach_tcp: Vec<String>,
    /// Concurrent router sessions; `0` means twice the worker count.
    /// Spawned workers get the same session cap, since every router
    /// session may hold one connection to each worker; attached workers
    /// need at least this many `--sessions`.
    pub sessions: usize,
    /// Per-worker in-flight budget; past it arrivals for that worker get
    /// `ghr-error reason=overload` immediately. `None` admits everything.
    pub worker_inflight: Option<usize>,
    /// Shut down after this long with no active session.
    pub max_idle: Option<Duration>,
    /// Longest accepted request line in bytes.
    pub max_frame: usize,
    /// In-flight request lines accepted per client connection
    /// (`--pipeline K`); responses stream back in arrival order.
    /// `1` is strict lockstep.
    pub pipeline: usize,
    /// Retire a worker that has been dead this long: its vnodes leave
    /// the ring for good and the revival probe stops watching it.
    /// `None` keeps probing forever.
    pub retire_after: Option<Duration>,
    /// `--threads` for spawned workers; `0` lets each worker resolve.
    pub threads: usize,
    /// `--cache-dir` for spawned workers (the shared store that makes
    /// the cluster cache a union).
    pub cache_dir: Option<String>,
    /// `--no-cache` for spawned workers.
    pub no_cache: bool,
    /// Emit the forwarding ledger as JSON on stderr at drain.
    pub stats_json: bool,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            socket: None,
            tcp: None,
            workers: 2,
            attach: Vec::new(),
            attach_tcp: Vec::new(),
            sessions: 0,
            worker_inflight: None,
            max_idle: None,
            max_frame: serve::MAX_REQUEST_LINE,
            pipeline: 8,
            retire_after: None,
            threads: 0,
            cache_dir: None,
            no_cache: false,
            stats_json: false,
        }
    }
}

impl RouterOptions {
    /// The client-facing endpoint these options name.
    pub fn listen_endpoint(&self) -> Result<Endpoint, String> {
        match (&self.socket, &self.tcp) {
            (Some(path), None) => Ok(Endpoint::unix(path.clone())),
            (None, Some(spec)) => Endpoint::tcp(spec),
            (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive \
                 (one listening place)"
                .to_string()),
            (None, None) => Err("ghr router needs --socket PATH or --tcp HOST:PORT".to_string()),
        }
    }
}

/// Parse `ghr router` arguments (global flags already stripped).
pub fn parse_router_args(
    cache_dir: Option<&std::path::Path>,
    no_cache: bool,
    threads: usize,
    stats_json: bool,
    rest: &[String],
) -> Result<RouterOptions, String> {
    let mut opts = RouterOptions {
        threads,
        stats_json,
        no_cache,
        cache_dir: cache_dir.map(|d| d.to_string_lossy().into_owned()),
        ..RouterOptions::default()
    };
    let mut workers: Option<usize> = None;
    let mut flags = Flags::new(rest);
    while let Some(arg) = flags.next() {
        match arg {
            Arg::Flag("--socket") => opts.socket = Some(flags.value()?.to_string()),
            Arg::Flag("--tcp") => opts.tcp = Some(flags.value()?.to_string()),
            Arg::Flag("--workers") => workers = Some(count("worker count", flags.value()?)?),
            Arg::Flag("--attach") => opts.attach.push(flags.value()?.to_string()),
            Arg::Flag("--attach-tcp") => opts.attach_tcp.push(flags.value()?.to_string()),
            Arg::Flag("--sessions") => opts.sessions = count("session count", flags.value()?)?,
            Arg::Flag("--worker-inflight") => {
                opts.worker_inflight = Some(count("in-flight budget", flags.value()?)?)
            }
            Arg::Flag("--pipeline") => opts.pipeline = count("pipeline depth", flags.value()?)?,
            Arg::Flag("--retire-after") => {
                opts.retire_after = Some(seconds("retirement window", flags.value()?)?)
            }
            Arg::Flag("--max-idle") => {
                opts.max_idle = Some(seconds("idle timeout", flags.value()?)?)
            }
            Arg::Flag("--max-frame") => opts.max_frame = count("frame cap", flags.value()?)?,
            _ => return Err(format!("unknown router argument {:?}", flags.raw())),
        }
    }
    if workers.is_some() && !(opts.attach.is_empty() && opts.attach_tcp.is_empty()) {
        return Err(
            "--workers and --attach/--attach-tcp are mutually exclusive \
             (spawn a cluster, or attach to one)"
                .to_string(),
        );
    }
    if let Some(n) = workers {
        opts.workers = n;
    }
    opts.listen_endpoint()?; // validate the listening place now
    Ok(opts)
}

/// `ghr router [--socket PATH | --tcp HOST:PORT] [--workers N |
/// --attach SOCK ... | --attach-tcp HOST:PORT ...] ...` — parse and run.
pub fn cmd_router(
    cache_dir: Option<&std::path::Path>,
    no_cache: bool,
    threads: usize,
    stats_json: bool,
    rest: &[String],
) -> Result<String, String> {
    let opts = parse_router_args(cache_dir, no_cache, threads, stats_json, rest)?;
    run_router(&opts)
}

/// Run the router until `ghr-shutdown`, SIGTERM, or the idle timeout.
#[cfg(unix)]
pub fn run_router(opts: &RouterOptions) -> Result<String, String> {
    socket::run(opts)
}

#[cfg(not(unix))]
pub fn run_router(_opts: &RouterOptions) -> Result<String, String> {
    Err("ghr router needs a unix platform".to_string())
}

#[cfg(unix)]
mod socket {
    use super::{HashRing, RouterOptions};
    use crate::serve::{self, sig, Acceptor, Admission};
    use ghr_types::transport::wait_closed;
    use ghr_types::wire::{self, Frame};
    use ghr_types::{Endpoint, RequestId, RouterStats, RouterWorkerStats, Stream};
    use std::collections::VecDeque;
    use std::io::{BufReader, Write};
    use std::process::{Child, Command, Stdio};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::{Arc, Mutex, PoisonError, RwLock};
    use std::time::{Duration, Instant};

    /// Dead-worker revival probe interval.
    const PROBE_TICK: Duration = Duration::from_millis(200);
    /// How long a spawned worker gets to bind its socket.
    const SPAWN_DEADLINE: Duration = Duration::from_secs(10);
    /// How often a spawned worker that has not bound yet is probed: a
    /// worker binds within milliseconds of its start.
    const READY_PROBE: Duration = Duration::from_millis(1);
    /// How long a spawned worker gets to drain after `ghr-shutdown`
    /// before it is killed.
    const STOP_DEADLINE: Duration = Duration::from_secs(5);
    /// Hard deadline on any single read from a worker connection. A
    /// killed worker closes its socket (EOF, instant), but a worker
    /// that *accepted* the connect and then never serves it would wedge
    /// the session forever without this. That is a worker at its own
    /// `--sessions` cap, with the connect parked in its listen backlog:
    /// every router session holds one connection per worker, so an
    /// attached worker started with fewer `--sessions` than the router
    /// has sessions parks the extra ones (spawned workers get the
    /// router's session count and never do). Generous because a cold
    /// evaluation legitimately takes a while; on expiry the connection
    /// is declared broken and its lines re-route like any other worker
    /// fault.
    const WORKER_READ_TIMEOUT: Duration = Duration::from_secs(60);

    /// One worker as the router sees it: where it lives, whether it is
    /// alive, its forwarding counters and in-flight budget. The child
    /// handle is `Some` only for spawned workers.
    struct Worker {
        name: String,
        endpoint: Endpoint,
        child: Mutex<Option<Child>>,
        alive: AtomicBool,
        /// Retired workers stay in the table (their counters still
        /// render in the ledger) but leave the ring and the probe list.
        retired: AtomicBool,
        /// When the worker was last declared dead (the retirement clock).
        dead_since: Mutex<Option<Instant>>,
        forwarded: AtomicU64,
        rejected: AtomicU64,
        rerouted: AtomicU64,
        admission: Option<Admission>,
    }

    impl Worker {
        fn new(
            index: usize,
            endpoint: Endpoint,
            child: Option<Child>,
            inflight: Option<usize>,
        ) -> Worker {
            Worker {
                name: format!("worker-{index}"),
                endpoint,
                child: Mutex::new(child),
                alive: AtomicBool::new(true),
                retired: AtomicBool::new(false),
                dead_since: Mutex::new(None),
                forwarded: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                rerouted: AtomicU64::new(0),
                admission: inflight.map(Admission::new),
            }
        }

        /// Whether the ring may send this worker a request.
        fn routable(&self) -> bool {
            self.alive.load(Ordering::SeqCst) && !self.retired.load(Ordering::SeqCst)
        }

        /// Declare the worker dead and start its retirement clock (if
        /// not already running).
        fn mark_dead(&self) {
            self.alive.store(false, Ordering::SeqCst);
            let mut since = self
                .dead_since
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if since.is_none() {
                *since = Some(Instant::now());
            }
        }

        /// Put the worker (back) in rotation.
        fn revive(&self) {
            self.alive.store(true, Ordering::SeqCst);
            self.retired.store(false, Ordering::SeqCst);
            *self
                .dead_since
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// A worker's `--worker-inflight` slot, held from the write of a
    /// line until its frame is read or the line moves to another worker.
    struct Permit(Arc<Worker>);

    impl Permit {
        /// Take one of `worker`'s slots: `Ok(None)` when it has no
        /// budget, `Err(())` when the budget is spent.
        fn take(worker: &Arc<Worker>) -> Result<Option<Permit>, ()> {
            let Some(admission) = &worker.admission else {
                return Ok(None);
            };
            // The slot outlives this borrow of the budget, so the
            // permit is forgotten and `Drop` below gives the slot back.
            std::mem::forget(admission.try_admit().ok_or(())?);
            Ok(Some(Permit(Arc::clone(worker))))
        }
    }

    impl Drop for Permit {
        fn drop(&mut self) {
            if let Some(admission) = &self.0.admission {
                admission.release();
            }
        }
    }

    /// The membership view: the ring plus the worker table it indexes.
    /// Guarded by one `RwLock` — routing takes a read lock for the
    /// worker lookup only (forwarding happens outside it), joins and
    /// retirements take the write lock to rebuild the ring.
    struct Members {
        ring: HashRing,
        workers: Vec<Arc<Worker>>,
    }

    impl Members {
        /// Rebuild the ring over every non-retired worker.
        fn rebuild_ring(&mut self) {
            let active: Vec<usize> = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| !w.retired.load(Ordering::SeqCst))
                .map(|(i, _)| i)
                .collect();
            self.ring = HashRing::for_members(&active);
        }
    }

    /// Shared router state: the membership view and the router's own
    /// counters.
    struct Router {
        members: RwLock<Members>,
        /// The budget a runtime-joined worker is admitted with.
        worker_inflight: Option<usize>,
        requests: AtomicU64,
        malformed: AtomicU64,
        unrouted: AtomicU64,
        joined: AtomicU64,
    }

    impl Router {
        fn read_members(&self) -> std::sync::RwLockReadGuard<'_, Members> {
            self.members.read().unwrap_or_else(PoisonError::into_inner)
        }

        fn write_members(&self) -> std::sync::RwLockWriteGuard<'_, Members> {
            self.members.write().unwrap_or_else(PoisonError::into_inner)
        }

        fn ledger(&self) -> RouterStats {
            let members = self.read_members();
            let shares = members.ring.occupancy(members.workers.len());
            RouterStats {
                workers: members
                    .workers
                    .iter()
                    .zip(&shares)
                    .map(|(w, &share)| RouterWorkerStats {
                        name: w.name.clone(),
                        alive: w.routable(),
                        forwarded: w.forwarded.load(Ordering::Relaxed),
                        rejected: w.rejected.load(Ordering::Relaxed),
                        rerouted: w.rerouted.load(Ordering::Relaxed),
                        ring_share: share,
                    })
                    .collect(),
                requests: self.requests.load(Ordering::Relaxed),
                malformed: self.malformed.load(Ordering::Relaxed),
                unrouted: self.unrouted.load(Ordering::Relaxed),
            }
        }
    }

    /// Handle a `ghr-join <endpoint>` control frame: probe the
    /// endpoint, admit it (or re-admit a known one), rebuild the ring.
    /// Answers a normal response frame describing the rebalance, or
    /// `ghr-error reason=join-failed`.
    fn handle_join(router: &Router, session: u64, line: &str) -> Vec<u8> {
        let spec = line[wire::JOIN_PREFIX.len()..].trim();
        let endpoint = match Endpoint::parse(spec) {
            Ok(ep) => ep,
            Err(e) => {
                eprintln!("router[{session}]: join {spec:?} rejected: {e}");
                return Frame::error(wire::REASON_JOIN_FAILED).into_bytes();
            }
        };
        if !endpoint.probe() {
            eprintln!(
                "router[{session}]: join {endpoint} rejected: endpoint does not \
                 accept connections"
            );
            return Frame::error(wire::REASON_JOIN_FAILED).into_bytes();
        }
        let (verb, name, share, live) = {
            let mut members = router.write_members();
            let (verb, index) = match members.workers.iter().position(|w| w.endpoint == endpoint) {
                Some(i) => {
                    members.workers[i].revive();
                    ("re-admitted", i)
                }
                None => {
                    let i = members.workers.len();
                    members.workers.push(Arc::new(Worker::new(
                        i,
                        endpoint.clone(),
                        None,
                        router.worker_inflight,
                    )));
                    ("joined", i)
                }
            };
            members.rebuild_ring();
            let share = members.ring.occupancy(members.workers.len())[index];
            let live = members.workers.iter().filter(|w| w.routable()).count();
            (verb, members.workers[index].name.clone(), share, live)
        };
        router.joined.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "router[{session}]: {verb} {name} at {endpoint}; ring rebuilt, \
             ~{:.1}% of the keyspace rebalanced to it ({live} live worker(s))",
            share * 100.0
        );
        let body = format!(
            "{verb} {name} at {endpoint}: {live} live worker(s), \
             ~{:.1}% of keys moved to it\n",
            share * 100.0
        );
        let id = RequestId::of(line).to_string();
        Frame::response(&id, "ok", &body, 0, "no").into_bytes()
    }

    /// A session's connection to one worker, and the lines written on
    /// it whose frames are unread. The worker session answers its lines
    /// in order, so the next frame on the wire belongs to the oldest.
    /// Reads are bounded by [`WORKER_READ_TIMEOUT`] — a killed worker
    /// closes the socket (EOF) and an unresponsive one times out;
    /// neither wedges a read.
    struct Conn {
        worker: Arc<Worker>,
        writer: Stream,
        reader: BufReader<Stream>,
        /// Session sequence numbers of the unread lines, oldest first.
        unread: VecDeque<u64>,
        /// No frame read on it yet: a failure now means the worker is
        /// dead, not that a long-lived connection went stale.
        fresh: bool,
        /// Why a write failed. Frames the worker sent before it closed
        /// are still read; the first read that fails reports this.
        broken: Option<String>,
    }

    impl Conn {
        fn open(worker: &Arc<Worker>) -> std::io::Result<Conn> {
            let writer = worker.endpoint.connect()?;
            let reader_half = writer.try_clone()?;
            reader_half.set_read_timeout(Some(WORKER_READ_TIMEOUT))?;
            Ok(Conn {
                worker: Arc::clone(worker),
                writer,
                reader: BufReader::new(reader_half),
                unread: VecDeque::new(),
                fresh: true,
                broken: None,
            })
        }

        /// Write one request line (a single `write`) and queue its frame.
        fn send(&mut self, seq: u64, line: &str) {
            if self.broken.is_none() {
                let mut msg = Vec::with_capacity(line.len() + 1);
                msg.extend_from_slice(line.as_bytes());
                msg.push(b'\n');
                if let Err(e) = self.writer.write_all(&msg) {
                    self.broken = Some(e.to_string());
                }
            }
            self.unread.push_back(seq);
        }

        /// The next frame on the wire, as the exact bytes the worker
        /// wrote, or why there is none.
        fn read(&mut self) -> Result<Vec<u8>, String> {
            Frame::read(&mut self.reader)
                .map(Frame::into_bytes)
                .map_err(|e| self.broken.take().unwrap_or_else(|| e.to_string()))
        }
    }

    /// A client line's place in the session's output order.
    enum Slot {
        /// The frame to relay: a framing error, a join answer, a
        /// rejection, or a worker's frame already read.
        Ready(Vec<u8>),
        /// Written to a worker; its frame is still on that connection.
        Sent(Forward),
    }

    /// A request line written to the worker at index `worker`.
    struct Forward {
        line: String,
        key: u64,
        worker: usize,
        permit: Option<Permit>,
        sent: Instant,
    }

    /// One client session's forwarding state: its connection to each
    /// worker it has written to (by worker index, opened on first use)
    /// and every line not yet relayed, in arrival order.
    struct Session<'a> {
        router: &'a Router,
        id: u64,
        conns: Vec<Option<Conn>>,
        slots: VecDeque<Slot>,
        /// Sequence number of `slots[0]`.
        head: u64,
    }

    impl Session<'_> {
        fn slot(&mut self, seq: u64) -> &mut Slot {
            &mut self.slots[(seq - self.head) as usize]
        }

        /// Route a new request line and queue its slot.
        fn forward(&mut self, line: String) {
            let key = super::route_key(&line);
            let seq = self.head + self.slots.len() as u64;
            let slot = self.dispatch(seq, line, key);
            self.slots.push_back(slot);
        }

        /// Pick the owner on the ring, apply its in-flight budget and
        /// write the line on this session's connection to it. A worker
        /// that cannot be connected is marked dead and the line walks to
        /// the ring successor; only a fully dead ring or a spent budget
        /// answers with an error frame.
        fn dispatch(&mut self, seq: u64, line: String, key: u64) -> Slot {
            let router = self.router;
            let session = self.id;
            loop {
                let (index, worker) = {
                    let members = router.read_members();
                    let alive: Vec<bool> = members.workers.iter().map(|w| w.routable()).collect();
                    match members.ring.route(key, &alive) {
                        Some(w) => (w, Arc::clone(&members.workers[w])),
                        None => {
                            router.unrouted.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "router[{session}]: {line} -> no live worker (id={key:016x})"
                            );
                            return Slot::Ready(Frame::error(wire::REASON_NO_WORKER).into_bytes());
                        }
                    }
                };
                // The budget is per-worker and the decision is final:
                // the id's home worker is the only one whose caches are
                // warm for it, so spilling to a sibling would trade an
                // explicit overload for a silent cold evaluation.
                let Ok(permit) = Permit::take(&worker) else {
                    worker.rejected.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "router[{session}]: {line} -> {} rejected (overload)",
                        worker.name
                    );
                    return Slot::Ready(Frame::error(wire::REASON_OVERLOAD).into_bytes());
                };
                if self.conns.len() <= index {
                    self.conns.resize_with(index + 1, || None);
                }
                let conn = match &mut self.conns[index] {
                    Some(conn) => conn,
                    empty @ None => match Conn::open(&worker) {
                        Ok(conn) => empty.insert(conn),
                        Err(e) => {
                            let e = format!("connect to {}: {e}", worker.endpoint);
                            reroute(session, &worker, key, &e);
                            continue;
                        }
                    },
                };
                conn.send(seq, &line);
                return Slot::Sent(Forward {
                    line,
                    key,
                    worker: index,
                    permit,
                    sent: Instant::now(),
                });
            }
        }

        /// Write every relayable frame at the head of the order.
        fn relay_ready(&mut self, out: &mut impl Write) -> std::io::Result<()> {
            while let Some(Slot::Ready(frame)) = self.slots.front() {
                out.write_all(frame)?;
                self.slots.pop_front();
                self.head += 1;
            }
            Ok(())
        }

        /// Block until the oldest slot holds its frame, reading frames
        /// off its worker connection in the order they arrive there
        /// (each answers the oldest line unread on that connection); a
        /// failed read hands the connection's lines to
        /// [`Session::recover`].
        fn settle_front(&mut self) {
            while let Some(Slot::Sent(front)) = self.slots.front() {
                let index = front.worker;
                let conn = self.conns[index]
                    .as_mut()
                    .expect("a sent line's connection stays open until its frame is read");
                let frame = match conn.read() {
                    Ok(frame) => frame,
                    Err(e) => {
                        self.recover(index, &e);
                        continue;
                    }
                };
                conn.fresh = false;
                let seq = conn
                    .unread
                    .pop_front()
                    .expect("frames are read only for lines written on the connection");
                let worker = Arc::clone(&conn.worker);
                let bytes = frame.len();
                if let Slot::Sent(fwd) = std::mem::replace(self.slot(seq), Slot::Ready(frame)) {
                    worker.forwarded.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "router[{}]: {} -> {} id={:016x} ({bytes} bytes, {:.1} ms)",
                        self.id,
                        fwd.line,
                        worker.name,
                        fwd.key,
                        fwd.sent.elapsed().as_secs_f64() * 1000.0
                    );
                }
            }
        }

        /// The connection to worker `index` failed with `err`. One that
        /// has answered before may just have gone stale, so its unread
        /// lines go again on one fresh connection. Otherwise the worker
        /// is declared dead and each unread line re-routes to the ring
        /// successor.
        fn recover(&mut self, index: usize, err: &str) {
            let Some(old) = self.conns[index].take() else {
                return;
            };
            if !old.fresh {
                if let Ok(mut conn) = Conn::open(&old.worker) {
                    for &seq in &old.unread {
                        if let Slot::Sent(fwd) = self.slot(seq) {
                            conn.send(seq, &fwd.line);
                        }
                    }
                    self.conns[index] = Some(conn);
                    return;
                }
            }
            for seq in old.unread {
                let unsent = std::mem::replace(self.slot(seq), Slot::Ready(Vec::new()));
                if let Slot::Sent(Forward {
                    line, key, permit, ..
                }) = unsent
                {
                    drop(permit);
                    reroute(self.id, &old.worker, key, err);
                    let slot = self.dispatch(seq, line, key);
                    *self.slot(seq) = slot;
                }
            }
        }
    }

    /// Take `worker` out of rotation after a failed forward of the line
    /// keyed `key`; the caller routes the line again.
    fn reroute(session: u64, worker: &Worker, key: u64, err: &str) {
        worker.mark_dead();
        worker.rerouted.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "router[{session}]: {} failed ({err}); re-routing id={key:016x} \
             to the ring successor",
            worker.name
        );
    }

    /// One client session: read request lines with the serve framing
    /// rules and forward each on this thread, until EOF/quit/shutdown.
    /// Every line the client has already sent, up to `pipeline`, is
    /// written to its worker before any frame is read, so lines for
    /// different workers overlap; frames are relayed in arrival order.
    fn router_session(
        router: &Router,
        session: u64,
        input: &mut BufReader<Stream>,
        out: &mut impl Write,
        shutdown: &AtomicBool,
        max_frame: usize,
        pipeline: usize,
    ) -> std::io::Result<()> {
        let mut s = Session {
            router,
            id: session,
            conns: Vec::new(),
            slots: VecDeque::new(),
            head: 0,
        };
        let pipeline = pipeline.max(1);
        let mut buf: Vec<u8> = Vec::new();
        let hard_cap = serve::HARD_LINE_CAP.max(max_frame.saturating_add(1));
        loop {
            s.relay_ready(out)?;
            // With lines outstanding, read on only while the next line
            // is already here and the pipeline has room; otherwise wait
            // for the oldest frame.
            let read_on =
                s.slots.is_empty() || (s.slots.len() < pipeline && input.buffer().contains(&b'\n'));
            if !read_on {
                s.settle_front();
                continue;
            }
            if !serve::read_raw_line(input, &mut buf, hard_cap) {
                // A partial line cut off by the drain is not rejected.
                if !buf.is_empty() && !shutdown.load(Ordering::SeqCst) {
                    router.malformed.fetch_add(1, Ordering::Relaxed);
                    s.slots.push_back(Slot::Ready(
                        Frame::error(wire::REASON_TRUNCATED).into_bytes(),
                    ));
                }
                break;
            }
            let line = match serve::classify_line(&buf, max_frame) {
                Ok(s) => s.trim().to_string(),
                Err(reason) => {
                    router.malformed.fetch_add(1, Ordering::Relaxed);
                    s.slots
                        .push_back(Slot::Ready(Frame::error(reason).into_bytes()));
                    buf.clear();
                    continue;
                }
            };
            buf.clear();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "quit" || line == "exit" {
                break;
            }
            if line == wire::SHUTDOWN_LINE {
                shutdown.store(true, Ordering::SeqCst);
                eprintln!("router[{session}]: shutdown frame received; draining");
                break;
            }
            if line.starts_with(wire::JOIN_PREFIX) {
                // Joins rebuild the ring; handled inline so every
                // earlier line routed on the old ring and every later
                // one on the new.
                s.slots
                    .push_back(Slot::Ready(handle_join(router, session, &line)));
                continue;
            }
            router.requests.fetch_add(1, Ordering::Relaxed);
            s.forward(line);
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        // Relay every line still outstanding, in order; dropping the
        // session then closes its worker connections.
        while !s.slots.is_empty() {
            s.settle_front();
            s.relay_ready(out)?;
        }
        Ok(())
    }

    /// The base path spawned workers hang their unix sockets off: the
    /// router's own socket path, or a temp-dir stem when the router
    /// listens on TCP (workers are local children either way).
    fn worker_base(opts: &RouterOptions) -> String {
        match &opts.socket {
            Some(path) => path.clone(),
            None => std::env::temp_dir()
                .join(format!("ghr-router-{}", std::process::id()))
                .to_string_lossy()
                .into_owned(),
        }
    }

    /// Spawn `ghr serve` for worker `i` with its socket at
    /// `<base>.w<i>` and stderr teed to `<socket>.log`.
    fn spawn_worker(
        i: usize,
        base: &str,
        opts: &RouterOptions,
        sessions: usize,
    ) -> Result<Worker, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the ghr binary to spawn workers: {e}"))?;
        let sock = format!("{base}.w{i}");
        let log_path = format!("{sock}.log");
        let _ = std::fs::remove_file(&sock);
        let log = std::fs::File::create(&log_path)
            .map_err(|e| format!("cannot create worker log {log_path:?}: {e}"))?;
        let mut cmd = Command::new(exe);
        // The worker never reads its stdin; the router holds the pipe's
        // write end because the worker's exit closes the read end
        // (`stop_workers`).
        cmd.arg("serve")
            .arg("--socket")
            .arg(&sock)
            .arg("--sessions")
            .arg(sessions.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(log);
        if opts.threads > 0 {
            cmd.arg("--threads").arg(opts.threads.to_string());
        }
        if let Some(dir) = &opts.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        if opts.no_cache {
            cmd.arg("--no-cache");
        }
        if opts.max_frame != serve::MAX_REQUEST_LINE {
            cmd.arg("--max-frame").arg(opts.max_frame.to_string());
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn worker {i}: {e}"))?;
        Ok(Worker::new(
            i,
            Endpoint::unix(sock),
            Some(child),
            opts.worker_inflight,
        ))
    }

    /// Wait until every spawned worker accepts a connection (or died
    /// trying, in which case its log tail becomes the error).
    fn await_workers(workers: &[Arc<Worker>]) -> Result<(), String> {
        let deadline = Instant::now() + SPAWN_DEADLINE;
        for worker in workers {
            loop {
                if worker.endpoint.probe() {
                    break;
                }
                let exited = worker
                    .child
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .as_mut()
                    .and_then(|c| c.try_wait().ok().flatten());
                if let Some(status) = exited {
                    let tail = std::fs::read_to_string(format!("{}.log", worker.endpoint))
                        .unwrap_or_default();
                    let tail = tail.lines().next_back().unwrap_or("");
                    return Err(format!(
                        "{} exited during startup ({status}): {tail}",
                        worker.name
                    ));
                }
                if Instant::now() >= deadline {
                    return Err(format!(
                        "{} did not bind {} within {SPAWN_DEADLINE:?}",
                        worker.name, worker.endpoint
                    ));
                }
                std::thread::sleep(READY_PROBE);
            }
        }
        Ok(())
    }

    /// Gracefully stop every spawned worker: `ghr-shutdown` over each
    /// socket, so they drain together, then a wait for each exit (its
    /// stdin pipe closes) until [`STOP_DEADLINE`], and a kill as the
    /// backstop. Attached workers are not ours to stop.
    fn stop_workers(workers: &[Arc<Worker>]) {
        let mut children: Vec<_> = workers
            .iter()
            .map(|w| (w, w.child.lock().unwrap_or_else(PoisonError::into_inner)))
            .filter(|(_, child)| child.is_some())
            .collect();
        for (worker, _) in &children {
            if let Ok(mut conn) = worker.endpoint.connect() {
                let _ = conn.write_all(format!("{}\n", wire::SHUTDOWN_LINE).as_bytes());
            }
        }
        let deadline = Instant::now() + STOP_DEADLINE;
        for (_, child) in &mut children {
            let child = child.as_mut().expect("filtered to spawned workers");
            let exited = child
                .stdin
                .as_ref()
                .is_some_and(|pipe| wait_closed(pipe, deadline).unwrap_or(false));
            if !exited {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }

    pub(super) fn run(opts: &RouterOptions) -> Result<String, String> {
        let listen = opts.listen_endpoint()?;
        let spawn_mode = opts.attach.is_empty() && opts.attach_tcp.is_empty();
        let worker_count = if spawn_mode {
            opts.workers
        } else {
            opts.attach.len() + opts.attach_tcp.len()
        };
        if worker_count == 0 {
            return Err(
                "router needs at least one worker (--workers N, --attach SOCK, \
                 or --attach-tcp HOST:PORT)"
                    .into(),
            );
        }
        let sessions = match opts.sessions {
            0 => worker_count * 2,
            n => n,
        };
        // Installed before the workers start, so a SIGTERM during their
        // startup drains them instead of orphaning them.
        let term = sig::install().map_err(|e| format!("cannot watch SIGTERM: {e}"))?;

        let workers: Vec<Arc<Worker>> = if spawn_mode {
            let base = worker_base(opts);
            let spawned = (0..worker_count)
                .map(|i| spawn_worker(i, &base, opts, sessions).map(Arc::new))
                .collect::<Result<Vec<_>, _>>()?;
            await_workers(&spawned)?;
            spawned
        } else {
            let mut endpoints: Vec<Endpoint> = opts
                .attach
                .iter()
                .map(|sock| Endpoint::unix(sock.clone()))
                .collect();
            for spec in &opts.attach_tcp {
                endpoints.push(Endpoint::tcp(spec)?);
            }
            endpoints
                .into_iter()
                .enumerate()
                .map(|(i, ep)| Arc::new(Worker::new(i, ep, None, opts.worker_inflight)))
                .collect()
        };

        let router = Arc::new(Router {
            members: RwLock::new(Members {
                ring: HashRing::new(worker_count),
                workers,
            }),
            worker_inflight: opts.worker_inflight,
            requests: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            unrouted: AtomicU64::new(0),
            joined: AtomicU64::new(0),
        });

        let listener = listen
            .bind()
            .map_err(|e| format!("cannot bind {listen}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot poll {listen}: {e}"))?;
        let bound = listener.local_endpoint().unwrap_or_else(|| listen.clone());
        if !bound.is_loopback() {
            eprintln!(
                "router: WARNING: {bound} is reachable beyond this host and the \
                 wire protocol is unauthenticated — bind loopback (the default) \
                 unless the network path is trusted"
            );
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        eprintln!(
            "router: listening on {bound} -> {worker_count} worker(s), \
             {sessions} session slot(s), pipeline depth {}{}; \
             `ghr-shutdown` or SIGTERM stops the router",
            opts.pipeline.max(1),
            match opts.worker_inflight {
                Some(limit) => format!(", {limit} in-flight request(s) per worker"),
                None => String::new(),
            }
        );

        // Revival probe: a dead worker whose endpoint accepts again is
        // put back in rotation (its hash range returns home) — unless
        // it stayed dead past the retirement window, in which case its
        // vnodes leave the ring for good. It runs every PROBE_TICK, and
        // stops at once when the router drains and drops `stop_probe`.
        let (stop_probe, probe_stopped) = mpsc::channel::<()>();
        let probe = {
            let router = Arc::clone(&router);
            let retire_after = opts.retire_after;
            std::thread::spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = probe_stopped.recv_timeout(PROBE_TICK) {
                    let workers: Vec<Arc<Worker>> = router.read_members().workers.clone();
                    let mut retired_any = false;
                    for worker in &workers {
                        if worker.retired.load(Ordering::SeqCst)
                            || worker.alive.load(Ordering::SeqCst)
                        {
                            continue;
                        }
                        if worker.endpoint.probe() {
                            worker.revive();
                            eprintln!("router: {} is back; range restored", worker.name);
                        } else if let Some(window) = retire_after {
                            let expired = worker
                                .dead_since
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .map(|t| t.elapsed() >= window)
                                .unwrap_or(false);
                            if expired {
                                worker.retired.store(true, Ordering::SeqCst);
                                retired_any = true;
                                eprintln!(
                                    "router: {} dead for {:.1}s; retired — its vnodes \
                                     rebalance to the survivors",
                                    worker.name,
                                    window.as_secs_f64()
                                );
                            }
                        }
                    }
                    if retired_any {
                        router.write_members().rebuild_ring();
                    }
                }
            })
        };

        let session = {
            let router = Arc::clone(&router);
            let shutdown = Arc::clone(&shutdown);
            let (max_frame, pipeline) = (opts.max_frame, opts.pipeline);
            move |id: u64, input: &mut BufReader<Stream>, out: &mut Stream| {
                let ended = router_session(&router, id, input, out, &shutdown, max_frame, pipeline);
                match ended {
                    Ok(()) => eprintln!("router[{id}]: session done"),
                    Err(e) => eprintln!("router[{id}]: session ended: {e}"),
                }
            }
        };
        let acceptor = Acceptor {
            who: "router",
            listener: &listener,
            sessions,
            max_idle: opts.max_idle,
            shutdown: &shutdown,
            term,
        };
        let accepted = acceptor.run(session, |()| {});

        // Drained: stop the probe and the workers we own, then render
        // the ledger.
        drop(stop_probe);
        let _ = probe.join();
        let final_workers: Vec<Arc<Worker>> = router.read_members().workers.clone();
        stop_workers(&final_workers);
        listen.cleanup();
        let accepted = accepted?;

        let ledger = router.ledger();
        eprint!("{}", ledger.summary_lines());
        let joined = router.joined.load(Ordering::Relaxed);
        if joined > 0 {
            eprintln!("\nrouter: {joined} runtime join(s) rebalanced the ring");
        } else {
            eprintln!();
        }
        if opts.stats_json {
            eprintln!("{}", ledger.to_json());
        }
        Ok(format!(
            "routed {} request(s) across {accepted} session(s) on {bound} ({} worker(s))\n",
            ledger.forwarded(),
            final_workers.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_every_worker() {
        let a = HashRing::new(4);
        let b = HashRing::new(4);
        assert_eq!(a.len(), 4 * VNODES);
        let alive = [true; 4];
        let mut hit = [false; 4];
        for i in 0..1000u64 {
            let key = RequestId::of(&format!("probe-{i}")).0;
            let wa = a.route(key, &alive).unwrap();
            let wb = b.route(key, &alive).unwrap();
            assert_eq!(wa, wb, "two rings over the same shape must agree");
            hit[wa] = true;
        }
        assert!(hit.iter().all(|&h| h), "1000 keys must touch all 4 workers");
    }

    #[test]
    fn occupancy_sums_to_one_and_is_roughly_balanced() {
        for workers in [1, 2, 3, 8] {
            let ring = HashRing::new(workers);
            let shares = ring.occupancy(workers);
            let total: f64 = shares.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "{workers} workers: {total}");
            let even = 1.0 / workers as f64;
            for (w, &s) in shares.iter().enumerate() {
                assert!(
                    s > even * 0.4 && s < even * 2.0,
                    "worker {w}/{workers} share {s} too far from {even}"
                );
            }
        }
    }

    #[test]
    fn dead_workers_are_skipped_and_survivors_keep_their_keys() {
        let ring = HashRing::new(3);
        let all = [true, true, true];
        let without_1 = [true, false, true];
        for i in 0..500u64 {
            let key = RequestId::of(&format!("probe-{i}")).0;
            let home = ring.route(key, &all).unwrap();
            let rerouted = ring.route(key, &without_1).unwrap();
            assert_ne!(rerouted, 1, "dead worker must never be routed to");
            if home != 1 {
                assert_eq!(
                    home, rerouted,
                    "killing worker 1 must not move keys homed elsewhere"
                );
            }
        }
        assert!(ring.route(7, &[false, false, false]).is_none());
        assert!(!ring.is_empty());
    }

    /// The rebalance bound: adding member 2 to a `[0, 1]` ring moves a
    /// key only if its new owner *is* member 2, and the moved fraction
    /// tracks the new member's measured arc share.
    #[test]
    fn join_moves_only_keys_owned_by_the_new_member() {
        let before = HashRing::for_members(&[0, 1]);
        let after = HashRing::for_members(&[0, 1, 2]);
        assert_eq!(after.len(), 3 * VNODES);
        let alive = [true; 3];
        let mut moved = 0usize;
        let samples = 4000u64;
        for i in 0..samples {
            let key = RequestId::of(&format!("k-{i}")).0;
            let a = before.route(key, &alive).unwrap();
            let b = after.route(key, &alive).unwrap();
            if a != b {
                assert_eq!(b, 2, "a moved key must land on the joined member");
                moved += 1;
            }
        }
        let share = after.occupancy(3)[2];
        assert!(moved > 0, "a third member must claim some keys");
        let moved_frac = moved as f64 / samples as f64;
        assert!(
            moved_frac <= share * 1.25 + 0.01,
            "moved {moved_frac} of sampled keys but the member owns only {share}"
        );
    }

    /// Retiring a member is the mirror image: only the retiree's keys
    /// move, and each lands on the worker that was already its
    /// successor (the one `route` with a dead flag picks).
    #[test]
    fn removal_moves_only_the_removed_members_keys() {
        let full = HashRing::for_members(&[0, 1, 2]);
        let less = HashRing::for_members(&[0, 2]);
        let alive = [true, true, true];
        let skip_1 = [true, false, true];
        for i in 0..2000u64 {
            let key = RequestId::of(&format!("k-{i}")).0;
            let home = full.route(key, &alive).unwrap();
            let rebuilt = less.route(key, &alive).unwrap();
            assert_ne!(rebuilt, 1, "a removed member must own nothing");
            if home != 1 {
                assert_eq!(home, rebuilt, "survivors' keys must not move on removal");
            } else {
                // The rebuilt ring and the dead-flag walk agree on the
                // inheritor: retirement changes bookkeeping, not routing.
                assert_eq!(rebuilt, full.route(key, &skip_1).unwrap());
            }
        }
        let shares = less.occupancy(3);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(shares[1], 0.0, "a retired member's share must be zero");
    }

    #[test]
    fn route_key_ignores_render_flags_and_falls_back_on_garbage() {
        let plain = route_key("fig1 c2");
        let csv = route_key("fig1 c2 --csv");
        assert_eq!(plain, csv, "render flags must not move a request's home");
        assert_ne!(route_key("fig1 c2"), route_key("fig1 c3"));
        // A non-servable line still routes deterministically (the worker
        // renders the error): the key is just the line hash.
        assert_eq!(route_key("no such thing"), RequestId::of("no such thing").0);
    }

    #[test]
    fn router_args_parse_and_reject_contradictions() {
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let opts = parse_router_args(
            None,
            false,
            3,
            true,
            &args(&[
                "--socket",
                "/tmp/r.sock",
                "--workers",
                "4",
                "--sessions=6",
                "--worker-inflight",
                "2",
                "--max-idle",
                "1.5",
                "--max-frame=8192",
                "--pipeline",
                "4",
                "--retire-after=2.5",
            ]),
        )
        .unwrap();
        assert_eq!(opts.socket.as_deref(), Some("/tmp/r.sock"));
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.sessions, 6);
        assert_eq!(opts.worker_inflight, Some(2));
        assert_eq!(opts.max_idle, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(opts.max_frame, 8192);
        assert_eq!(opts.pipeline, 4);
        assert_eq!(opts.retire_after, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(opts.threads, 3);
        assert!(opts.stats_json);
        assert_eq!(
            opts.listen_endpoint().unwrap(),
            Endpoint::unix("/tmp/r.sock")
        );

        let attached = parse_router_args(
            None,
            false,
            0,
            false,
            &args(&[
                "--socket=/tmp/r.sock",
                "--attach",
                "/tmp/a",
                "--attach=/tmp/b",
                "--attach-tcp",
                "127.0.0.1:7421",
            ]),
        )
        .unwrap();
        assert_eq!(attached.attach, vec!["/tmp/a", "/tmp/b"]);
        assert_eq!(attached.attach_tcp, vec!["127.0.0.1:7421"]);

        let tcp = parse_router_args(None, false, 0, false, &args(&["--tcp", "7421"])).unwrap();
        assert_eq!(tcp.tcp.as_deref(), Some("7421"));
        assert_eq!(
            tcp.listen_endpoint().unwrap(),
            Endpoint::Tcp("127.0.0.1:7421".to_string())
        );

        // No listening place, two listening places, bad combinations.
        assert!(parse_router_args(None, false, 0, false, &args(&[])).is_err());
        assert!(parse_router_args(
            None,
            false,
            0,
            false,
            &args(&["--socket", "/tmp/r", "--tcp", "7421"]),
        )
        .is_err());
        assert!(parse_router_args(
            None,
            false,
            0,
            false,
            &args(&["--socket", "/tmp/r", "--workers", "2", "--attach", "/tmp/a"]),
        )
        .is_err());
        assert!(parse_router_args(
            None,
            false,
            0,
            false,
            &args(&["--tcp", "7421", "--workers", "2", "--attach-tcp", "h:1"]),
        )
        .is_err());
        assert!(parse_router_args(
            None,
            false,
            0,
            false,
            &args(&["--socket", "/tmp/r", "--bogus"])
        )
        .is_err());
        assert!(parse_router_args(
            None,
            false,
            0,
            false,
            &args(&["--socket", "/tmp/r", "--workers", "0"]),
        )
        .is_err());
        assert!(parse_router_args(
            None,
            false,
            0,
            false,
            &args(&["--socket", "/tmp/r", "--pipeline", "0"]),
        )
        .is_err());
    }
}
