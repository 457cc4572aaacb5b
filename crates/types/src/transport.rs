//! Stream transports for the serve/router wire protocol.
//!
//! The framed line protocol (see [`crate::wire`]) is transport-agnostic
//! by construction: every producer writes whole frames and every
//! consumer reads them back byte-exactly, so the only thing a transport
//! has to provide is an ordered, reliable byte stream. This module is
//! the one place that knows which byte streams exist:
//!
//! * **unix** — a `UnixStream` on a filesystem socket path. Same-host
//!   only; this is the default everywhere and what `ghr router
//!   --workers N` spawns its children on.
//! * **tcp** — a `TcpStream` on `HOST:PORT`. This is what makes the
//!   cluster tier cross-host: a worker on another machine binds
//!   `ghr serve --tcp 0.0.0.0:7421` and the router attaches it with
//!   `--attach-tcp host:7421`.
//!
//! An [`Endpoint`] names one listening place, a [`Listener`] accepts
//! connections on it, and a [`Stream`] is one established connection.
//! `Stream` implements `Read` + `Write`, so all framing code upstream
//! (`ghr serve`, `ghr router`, `ghr client`, `ghr loadgen`) is written
//! once against it and is byte-identical across transports — CI
//! byte-diffs a routed response over unix against the same response
//! over TCP.
//!
//! An acceptor sleeps in [`Listener::wait`] until a connection is
//! pending, a [`Wake`] is woken (a session ended, a signal arrived), or
//! its deadline passes: one `poll(2)`, so an idle server makes no
//! periodic wakeups and a connection is accepted as it arrives.
//!
//! ## Security posture
//!
//! The wire protocol is unauthenticated, so exposure is controlled at
//! bind time. A bare port (`--tcp 7421`) binds **loopback** — reachable
//! only from this host, the safe default. Binding an external interface
//! requires naming it explicitly (`--tcp 0.0.0.0:7421`), and
//! [`Endpoint::is_loopback`] lets the server warn when that happens.
//! Unix sockets inherit filesystem permissions and are always
//! host-local.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;
#[cfg(unix)]
use std::time::Instant;

/// How long a TCP connect attempt waits before the peer is declared
/// unreachable. A dead cross-host worker must fail fast enough for the
/// router's re-route to stay invisible to clients; the OS default (a
/// minutes-long SYN backoff) is not a serving-tier timeout.
pub const TCP_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// One place the wire protocol can listen or connect: a unix socket
/// path, or a TCP `host:port`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A filesystem unix-socket path (host-local).
    Unix(String),
    /// A TCP socket address as `host:port` (cross-host capable).
    Tcp(String),
}

impl Endpoint {
    /// A unix-socket endpoint at `path`.
    pub fn unix(path: impl Into<String>) -> Endpoint {
        Endpoint::Unix(path.into())
    }

    /// Parse a `--tcp` address: `HOST:PORT`, or a bare `PORT` which
    /// binds **loopback** (`127.0.0.1`) — external exposure must be
    /// named explicitly (`0.0.0.0:PORT`).
    pub fn tcp(spec: &str) -> Result<Endpoint, String> {
        if spec.is_empty() {
            return Err("empty tcp address (need HOST:PORT or PORT)".to_string());
        }
        if let Ok(port) = spec.parse::<u16>() {
            return Ok(Endpoint::Tcp(format!("127.0.0.1:{port}")));
        }
        match spec.rsplit_once(':') {
            Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => {
                Ok(Endpoint::Tcp(spec.to_string()))
            }
            _ => Err(format!(
                "bad tcp address {spec:?} (need HOST:PORT or a bare PORT, \
                 which binds 127.0.0.1)"
            )),
        }
    }

    /// Parse a spec that may name either transport — the `ghr-join`
    /// control frame's operand. `tcp:HOST:PORT` (or `tcp://HOST:PORT`)
    /// is TCP; `unix:PATH` or any bare path is a unix socket.
    pub fn parse(spec: &str) -> Result<Endpoint, String> {
        if let Some(rest) = spec
            .strip_prefix("tcp://")
            .or_else(|| spec.strip_prefix("tcp:"))
        {
            Endpoint::tcp(rest)
        } else if let Some(rest) = spec.strip_prefix("unix:") {
            if rest.is_empty() {
                Err("empty unix socket path".to_string())
            } else {
                Ok(Endpoint::unix(rest))
            }
        } else if spec.is_empty() {
            Err("empty endpoint".to_string())
        } else {
            Ok(Endpoint::unix(spec))
        }
    }

    /// Whether binding here is reachable only from this host: every
    /// unix socket, and TCP on a loopback or unspecified-loopback host.
    /// `false` means the caller is exposing an unauthenticated protocol
    /// to the network and should say so loudly.
    pub fn is_loopback(&self) -> bool {
        match self {
            Endpoint::Unix(_) => true,
            Endpoint::Tcp(addr) => {
                let host = addr.rsplit_once(':').map(|(h, _)| h).unwrap_or(addr);
                let host = host.trim_start_matches('[').trim_end_matches(']');
                host == "localhost" || host == "::1" || host.starts_with("127.")
            }
        }
    }

    /// Connect to this endpoint. TCP connects carry
    /// [`TCP_CONNECT_TIMEOUT`] and set `TCP_NODELAY` (the protocol is
    /// small request lines that must not sit in Nagle buffers).
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets need a unix platform",
            )),
            Endpoint::Tcp(addr) => {
                let mut last = None;
                for sockaddr in std::net::ToSocketAddrs::to_socket_addrs(addr.as_str())? {
                    match TcpStream::connect_timeout(&sockaddr, TCP_CONNECT_TIMEOUT) {
                        Ok(stream) => {
                            let _ = stream.set_nodelay(true);
                            return Ok(Stream::Tcp(stream));
                        }
                        Err(e) => last = Some(e),
                    }
                }
                Err(last.unwrap_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::AddrNotAvailable,
                        format!("{addr:?} resolved to no address"),
                    )
                }))
            }
        }
    }

    /// Bind a listener here. A stale unix socket file from a previous
    /// run is removed first (the bind would otherwise fail on it).
    pub fn bind(&self) -> std::io::Result<Listener> {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets need a unix platform",
            )),
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr.as_str())?)),
        }
    }

    /// Remove whatever the bind left on disk (the unix socket file;
    /// TCP leaves nothing).
    pub fn cleanup(&self) {
        if let Endpoint::Unix(path) = self {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Whether the socket currently accepts connections (the router's
    /// revival probe).
    pub fn probe(&self) -> bool {
        self.connect().is_ok()
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "{path}"),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One established wire-protocol connection over either transport.
/// Implements `Read` + `Write`; framing code upstream never matches on
/// the variant.
#[derive(Debug)]
pub enum Stream {
    /// A unix-socket connection.
    #[cfg(unix)]
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// Clone the handle (one side buffers reads, the other writes).
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
        }
    }

    /// Set the read timeout: a deadline on each read from a peer that
    /// may never answer (the router's reads from its workers).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Shut down one or both halves of the connection, for every handle
    /// on it. `Write` signals EOF to the peer while responses still
    /// drain; `Read` ends a read blocked on this side with EOF at once
    /// (how a draining server ends its idle sessions).
    pub fn shutdown(&self, how: std::net::Shutdown) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(how),
            Stream::Tcp(s) => s.shutdown(how),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound wire-protocol listener over either transport.
#[derive(Debug)]
pub enum Listener {
    /// Listening on a unix socket path.
    #[cfg(unix)]
    Unix(UnixListener),
    /// Listening on a TCP address.
    Tcp(TcpListener),
}

impl Listener {
    /// Accept one pending connection. Accepted TCP streams set
    /// `TCP_NODELAY` so small frames leave immediately.
    pub fn accept(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }

    /// Switch the listener to non-blocking accepts. An acceptor that
    /// [`Listener::wait`]s before it accepts sets this, so an accept
    /// never blocks even when a pending connection vanishes first.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Block until a connection is pending here, one of `wakes` is
    /// woken, or `deadline` passes (`None` waits without one). A wake
    /// wins over a pending connection, so the caller checks its flags
    /// before it takes a new session.
    #[cfg(unix)]
    pub fn wait(&self, wakes: &[&Wake], deadline: Option<Instant>) -> std::io::Result<Waited> {
        let fd = match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        };
        poll::wait(Some(fd), wakes, deadline)
    }

    /// The actually bound address — for TCP with port 0 this is where
    /// the OS put the listener (tests bind ephemeral ports).
    pub fn local_endpoint(&self) -> Option<Endpoint> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.local_addr().ok().and_then(|a| {
                a.as_pathname()
                    .map(|p| Endpoint::unix(p.to_string_lossy().into_owned()))
            }),
            Listener::Tcp(l) => l.local_addr().ok().map(|a| Endpoint::Tcp(a.to_string())),
        }
    }
}

/// What ended a [`Listener::wait`] or [`Wake::wait_any`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waited {
    /// A connection is pending on the listener.
    Connection,
    /// A wake was woken, or a signal interrupted the wait: the caller
    /// re-checks whatever it waits for.
    Woken,
    /// The deadline passed.
    Deadline,
}

/// A wake-up for a thread blocked in [`Listener::wait`]: a socket pair
/// whose read end the wait watches. [`Wake::wake`] writes a byte, and
/// the wait returns until [`Wake::clear`] reads the bytes back. A wake
/// that is never cleared ends every later wait at once, which is what a
/// shutdown signal wants.
#[cfg(unix)]
#[derive(Debug)]
pub struct Wake {
    rx: UnixStream,
    tx: UnixStream,
}

#[cfg(unix)]
impl Wake {
    /// A fresh wake, not yet woken.
    pub fn new() -> std::io::Result<Wake> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Wake { rx, tx })
    }

    /// Wake the waiter. Never blocks: a full buffer already holds a
    /// wake.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Forget every wake so far. An acceptor clears its wake *before* it
    /// checks what woke it, so a wake that lands between that check and
    /// the next wait still ends the wait.
    pub fn clear(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// The descriptor [`Wake::wake`] writes to. A signal handler may
    /// wake a waiter by writing one byte to it: `write(2)` is
    /// async-signal-safe and the descriptor never blocks.
    pub fn signal_fd(&self) -> RawFd {
        self.tx.as_raw_fd()
    }

    /// Block until one of `wakes` is woken or `deadline` passes: an
    /// acceptor whose session slots are all taken, so a pending
    /// connection must not end its wait.
    pub fn wait_any(wakes: &[&Wake], deadline: Option<Instant>) -> std::io::Result<Waited> {
        poll::wait(None, wakes, deadline)
    }
}

/// Block until the far end of `fd` closes — every reader of a pipe's
/// write end, or a socket's peer — or `deadline` passes; whether it
/// closed. The router waits this way on the write end of a spawned
/// worker's stdin, which only the worker's exit closes.
#[cfg(unix)]
pub fn wait_closed(fd: &impl AsRawFd, deadline: Instant) -> std::io::Result<bool> {
    poll::closed(fd.as_raw_fd(), deadline)
}

/// `poll(2)` over std's descriptors, std-only like the store's `flock`.
#[cfg(unix)]
mod poll {
    use super::{Waited, Wake};
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::time::Instant;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x1;

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Poll `fds` until one is ready (`true`) or `deadline` passes
    /// (`false`). A signal's interruption counts as ready with no
    /// `revents`, so the caller re-checks its flags.
    fn until(fds: &mut [PollFd], deadline: Option<Instant>) -> std::io::Result<bool> {
        loop {
            let timeout = match deadline {
                None => -1,
                // Rounded up, so a wait never ends before its deadline.
                Some(d) => d
                    .saturating_duration_since(Instant::now())
                    .as_nanos()
                    .div_ceil(1_000_000)
                    .min(c_int::MAX as u128) as c_int,
            };
            // SAFETY: `fds` is a live, exclusively borrowed array of
            // `fds.len()` `pollfd`s for the duration of the call.
            let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout) };
            if ready > 0 {
                return Ok(true);
            }
            if ready < 0 {
                let err = std::io::Error::last_os_error();
                return match err.kind() {
                    std::io::ErrorKind::Interrupted => Ok(true),
                    _ => Err(err),
                };
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(false);
            }
        }
    }

    pub(super) fn wait(
        listener: Option<RawFd>,
        wakes: &[&Wake],
        deadline: Option<Instant>,
    ) -> std::io::Result<Waited> {
        let mut fds: Vec<PollFd> = wakes
            .iter()
            .map(|w| w.rx.as_raw_fd())
            .chain(listener)
            .map(|fd| PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            })
            .collect();
        if !until(&mut fds, deadline)? {
            return Ok(Waited::Deadline);
        }
        let (wake_fds, listener_fd) = fds.split_at(wakes.len());
        let pending = listener_fd.first().is_some_and(|p| p.revents != 0);
        Ok(if pending && wake_fds.iter().all(|p| p.revents == 0) {
            Waited::Connection
        } else {
            Waited::Woken
        })
    }

    pub(super) fn closed(fd: RawFd, deadline: Instant) -> std::io::Result<bool> {
        // No events asked: only a hang-up, an error or a bad descriptor
        // can be reported.
        let mut fds = [PollFd {
            fd,
            events: 0,
            revents: 0,
        }];
        while until(&mut fds, Some(deadline))? {
            if fds[0].revents != 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn tcp_spec_parses_and_bare_ports_bind_loopback() {
        assert_eq!(
            Endpoint::tcp("7421").unwrap(),
            Endpoint::Tcp("127.0.0.1:7421".to_string())
        );
        assert_eq!(
            Endpoint::tcp("0.0.0.0:7421").unwrap(),
            Endpoint::Tcp("0.0.0.0:7421".to_string())
        );
        assert_eq!(
            Endpoint::tcp("node7:9000").unwrap(),
            Endpoint::Tcp("node7:9000".to_string())
        );
        for bad in ["", ":7421", "host:", "host:notaport", "host:99999"] {
            assert!(Endpoint::tcp(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn generic_parse_covers_both_transports() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7421").unwrap(),
            Endpoint::Tcp("127.0.0.1:7421".to_string())
        );
        assert_eq!(
            Endpoint::parse("tcp://9000").unwrap(),
            Endpoint::Tcp("127.0.0.1:9000".to_string())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/w.sock").unwrap(),
            Endpoint::unix("/tmp/w.sock")
        );
        assert_eq!(
            Endpoint::parse("/tmp/w.sock").unwrap(),
            Endpoint::unix("/tmp/w.sock")
        );
        assert!(Endpoint::parse("").is_err());
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
    }

    #[test]
    fn loopback_detection_gates_the_exposure_warning() {
        assert!(Endpoint::unix("/tmp/x.sock").is_loopback());
        assert!(Endpoint::tcp("7421").unwrap().is_loopback());
        assert!(Endpoint::tcp("127.0.0.1:7421").unwrap().is_loopback());
        assert!(Endpoint::tcp("localhost:7421").unwrap().is_loopback());
        assert!(Endpoint::tcp("[::1]:7421").unwrap().is_loopback());
        assert!(!Endpoint::tcp("0.0.0.0:7421").unwrap().is_loopback());
        assert!(!Endpoint::tcp("10.0.0.7:7421").unwrap().is_loopback());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for spec in ["tcp:127.0.0.1:7421", "/tmp/w.sock"] {
            let ep = Endpoint::parse(spec).unwrap();
            assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep);
        }
    }

    /// The same bytes cross both transports intact: bind, connect,
    /// write a frame-shaped blob, read it back.
    #[test]
    fn streams_carry_bytes_on_both_transports() {
        let dir = std::env::temp_dir().join(format!("ghr-transport-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let unix = Endpoint::unix(dir.join("t.sock").to_string_lossy().into_owned());
        let tcp_listener = Endpoint::tcp("127.0.0.1:0").unwrap().bind().unwrap();
        let tcp = tcp_listener.local_endpoint().unwrap();
        for (endpoint, listener) in [
            (unix.clone(), unix.bind().unwrap()),
            (tcp.clone(), tcp_listener),
        ] {
            let payload =
                b"ghr-response id=abc status=ok bytes=3 evals=0 cached=yes\nhi\nghr-end\n";
            let server = std::thread::spawn(move || {
                let mut conn = listener.accept().unwrap();
                let mut line = String::new();
                BufReader::new(conn.try_clone().unwrap())
                    .read_line(&mut line)
                    .unwrap();
                assert_eq!(line, "table1\n");
                conn.write_all(payload).unwrap();
            });
            let mut client = endpoint.connect().unwrap();
            client.write_all(b"table1\n").unwrap();
            client.shutdown(std::net::Shutdown::Write).unwrap();
            let mut got = Vec::new();
            client.read_to_end(&mut got).unwrap();
            assert_eq!(got, payload, "transport {endpoint} mangled the frame");
            server.join().unwrap();
        }
        unix.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bound unix endpoint under a per-test temp dir, listening
    /// non-blocking as the acceptors do.
    #[cfg(unix)]
    fn waiting_listener(tag: &str) -> (std::path::PathBuf, Listener) {
        let dir = std::env::temp_dir().join(format!("ghr-wait-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ep = Endpoint::unix(dir.join("w.sock").to_string_lossy().into_owned());
        let listener = ep.bind().unwrap();
        listener.set_nonblocking(true).unwrap();
        (dir, listener)
    }

    #[cfg(unix)]
    #[test]
    fn wait_returns_a_pending_connection_on_both_transports() {
        let (dir, unix) = waiting_listener("pending");
        let tcp = Endpoint::tcp("127.0.0.1:0").unwrap().bind().unwrap();
        tcp.set_nonblocking(true).unwrap();
        let wake = Wake::new().unwrap();
        for listener in [unix, tcp] {
            let _client = listener.local_endpoint().unwrap().connect().unwrap();
            // The deadline is only a liveness bound.
            let deadline = Instant::now() + Duration::from_secs(10);
            // With every slot taken the acceptor waits on wakes alone,
            // and a pending connection does not end that wait.
            let full = Wake::wait_any(&[&wake], Some(Instant::now() + Duration::from_millis(20)));
            assert_eq!(full.unwrap(), Waited::Deadline);
            assert_eq!(
                listener.wait(&[&wake], Some(deadline)).unwrap(),
                Waited::Connection
            );
            assert!(listener.accept().is_ok(), "a pending connection accepts");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn wait_without_deadline_returns_on_a_wake_from_another_thread() {
        let (dir, listener) = waiting_listener("woken");
        let wake = std::sync::Arc::new(Wake::new().unwrap());
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let wake = std::sync::Arc::clone(&wake);
            std::thread::spawn(move || {
                let _ = tx.send(listener.wait(&[&wake], None).unwrap());
                listener
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        wake.wake();
        let got = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            got,
            Ok(Waited::Woken),
            "the wake must end a deadline-free wait"
        );
        let listener = waiter.join().unwrap();
        // A wake stays woken until cleared; cleared, it no longer ends a
        // wait.
        let soon = || Some(Instant::now() + Duration::from_millis(20));
        assert_eq!(listener.wait(&[&wake], soon()).unwrap(), Waited::Woken);
        wake.clear();
        assert_eq!(listener.wait(&[&wake], soon()).unwrap(), Waited::Deadline);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn wait_returns_at_its_deadline() {
        let (dir, listener) = waiting_listener("deadline");
        let wake = Wake::new().unwrap();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(100);
        assert_eq!(
            listener.wait(&[&wake], Some(deadline)).unwrap(),
            Waited::Deadline
        );
        assert!(Instant::now() >= deadline, "returned before its deadline");
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn wait_closed_sees_the_far_end_close() {
        let (near, far) = UnixStream::pair().unwrap();
        let soon = Instant::now() + Duration::from_millis(20);
        assert!(!wait_closed(&near, soon).unwrap(), "the far end is open");
        drop(far);
        let bound = Instant::now() + Duration::from_secs(10);
        assert!(wait_closed(&near, bound).unwrap());
    }

    #[test]
    fn connecting_to_a_dead_endpoint_fails_not_hangs() {
        // Bind then drop a TCP listener: the port is closed, connect must
        // error promptly (refused), bounded by the connect timeout.
        let listener = Endpoint::tcp("127.0.0.1:0").unwrap().bind().unwrap();
        let ep = listener.local_endpoint().unwrap();
        drop(listener);
        let t0 = std::time::Instant::now();
        assert!(ep.connect().is_err());
        assert!(!ep.probe());
        assert!(t0.elapsed() < TCP_CONNECT_TIMEOUT + Duration::from_secs(2));
    }
}
