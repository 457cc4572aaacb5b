//! The serve/router wire protocol: its literal strings, and [`Frame`],
//! the one codec that reads and writes its frames.
//!
//! The framed line protocol (`ghr serve`, `ghr router`, `ghr client`,
//! `ghr loadgen --socket`) is defined by a handful of exact byte strings:
//! frame headers, the end-of-frame trailer, control lines, and the
//! `reason=` slugs a server rejects malformed or past-budget requests
//! with. [`Frame`] is the only code that writes or parses the frame
//! format: the serve loop and the router build their answers with it,
//! the router reads each worker frame with it and relays the bytes it
//! read unchanged, and loadgen classifies answers with it. A renamed slug
//! is therefore a compile-time event, not a silently broken smoke script.
//! The strings themselves are wire-frozen: clients in the wild grep for
//! them, and `tests` below pins each one.
//!
//! A response frame:
//!
//! ```text
//! ghr-response id=<hash16> status=ok|error bytes=<n> evals=<n> cached=<yes|no|coalesced>
//! <body bytes>
//! ghr-end
//! ```
//!
//! A rejection frame (body-less):
//!
//! ```text
//! ghr-error reason=<slug>
//! ghr-end
//! ```

use std::fmt::Write as _;
use std::io::{self, BufRead, Read};

/// First word of a response frame header (trailing space included: the
/// header always carries `id=`).
pub const RESPONSE_PREFIX: &str = "ghr-response ";

/// First word of a rejection frame, up to and including `reason=`; the
/// slug follows immediately.
pub const ERROR_PREFIX: &str = "ghr-error reason=";

/// End-of-frame trailer, its own line after the body (or directly after
/// a body-less error header).
pub const FRAME_END: &str = "ghr-end";

/// Control line that drains the whole server (vs `quit`/`exit`, which
/// end one session).
pub const SHUTDOWN_LINE: &str = "ghr-shutdown";

/// Control-line prefix that attaches a new worker to a running router
/// at runtime (`ghr-join <endpoint>`, where the endpoint is a unix
/// socket path or `tcp:HOST:PORT`). The router answers with a normal
/// response frame describing the rebalance, or
/// `ghr-error reason=join-failed` when the endpoint does not accept.
/// Router-only; a lone `ghr serve` treats the line as a request and
/// renders the usual not-servable error.
pub const JOIN_PREFIX: &str = "ghr-join ";

/// Rejection slug: the request arrived past the in-flight admission
/// budget (`--max-inflight` on a worker, `--worker-inflight` at the
/// router). Retryable by contract.
pub const REASON_OVERLOAD: &str = "overload";

/// Rejection slug: the request line ended in `\r\n` (a CRLF client).
pub const REASON_CRLF: &str = "crlf-line-ending";

/// Rejection slug: the request line contained an interior NUL byte.
pub const REASON_NUL: &str = "nul-byte";

/// Rejection slug: the request line exceeded the frame cap
/// (`--max-frame`).
pub const REASON_OVERSIZED: &str = "oversized-line";

/// Rejection slug: the request line was not valid UTF-8.
pub const REASON_INVALID_UTF8: &str = "invalid-utf8";

/// Rejection slug: input ended mid-line (no final newline).
pub const REASON_TRUNCATED: &str = "truncated-frame";

/// Rejection slug: the router found no live worker for the request (the
/// whole ring is dead). Router-only; a single `ghr serve` never emits it.
pub const REASON_NO_WORKER: &str = "no-live-worker";

/// Rejection slug: a `ghr-join` control frame named an endpoint the
/// router could not parse or connect to. Router-only.
pub const REASON_JOIN_FAILED: &str = "join-failed";

/// Largest body a response frame header may claim. [`Frame::read`]
/// refuses a larger `bytes=` claim before allocating, so a corrupt or
/// hostile peer saying `bytes=18446744073709551615` costs nothing. Real
/// bodies are kilobytes.
pub const MAX_FRAME_BODY: usize = 16 << 20;

/// Longest header line [`Frame::read`] takes, newline included. Real
/// headers are about 100 bytes; the cap stops a peer that never sends a
/// newline from growing the read buffer without bound.
const MAX_FRAME_HEADER: usize = 1024;

/// One whole `ghr-response` or `ghr-error` frame: the exact bytes that
/// go on the wire, from the header line to the `ghr-end` trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    bytes: Vec<u8>,
    /// Length of the header line without its newline.
    header_len: usize,
    /// Length of the body (0 for a rejection frame).
    body_len: usize,
}

impl Frame {
    /// A response frame: the request `id`, `status` (`ok` or `error`),
    /// the body, the evaluations it cost and where it came from
    /// (`cached=yes|no|coalesced`). `bytes=` is the body's length.
    pub fn response(id: &str, status: &str, body: &str, evals: u64, cached: &str) -> Frame {
        let mut header = String::with_capacity(body.len() + 128);
        let _ = write!(
            header,
            "{RESPONSE_PREFIX}id={id} status={status} bytes={} evals={evals} cached={cached}",
            body.len()
        );
        Frame::assemble(header, body)
    }

    /// A body-less rejection frame naming `reason` (a `REASON_*` slug).
    pub fn error(reason: &str) -> Frame {
        Frame::assemble(format!("{ERROR_PREFIX}{reason}"), "")
    }

    /// The whole frame in one buffer: header line, body, trailer.
    fn assemble(header: String, body: &str) -> Frame {
        let header_len = header.len();
        let mut bytes = header.into_bytes();
        bytes.reserve(body.len() + FRAME_END.len() + 2);
        bytes.push(b'\n');
        bytes.extend_from_slice(body.as_bytes());
        bytes.extend_from_slice(FRAME_END.as_bytes());
        bytes.push(b'\n');
        Frame {
            bytes,
            header_len,
            body_len: body.len(),
        }
    }

    /// Read one whole frame: the header line, then exactly the body bytes
    /// a response header claims in `bytes=`, then the `ghr-end` trailer
    /// line. A claim past [`MAX_FRAME_BODY`] is refused before anything
    /// is allocated for it, with the reader left just past the header.
    /// Input that ends before or inside a frame is an `UnexpectedEof`
    /// error; any other malformed frame is `InvalidData`.
    pub fn read(reader: &mut impl BufRead) -> io::Result<Frame> {
        let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let torn = |what: &str| io::Error::new(io::ErrorKind::UnexpectedEof, what);
        let mut bytes = Vec::new();
        let n = reader
            .by_ref()
            .take(MAX_FRAME_HEADER as u64)
            .read_until(b'\n', &mut bytes)?;
        if bytes.last() != Some(&b'\n') {
            return Err(match n {
                0 => torn("closed before a frame header"),
                MAX_FRAME_HEADER => invalid(format!("frame header over {n} bytes")),
                _ => torn("closed inside a frame header"),
            });
        }
        let header_len = n - 1;
        let header = std::str::from_utf8(&bytes[..header_len])
            .map_err(|_| invalid("non-UTF-8 frame header".to_string()))?;
        let body_len = if header.starts_with(RESPONSE_PREFIX) {
            field(header, "bytes")
                .and_then(|claim| claim.parse::<usize>().ok())
                .filter(|&n| n <= MAX_FRAME_BODY)
                .ok_or_else(|| {
                    invalid(format!(
                        "no bytes= count up to {MAX_FRAME_BODY} in frame header {header:?}"
                    ))
                })?
        } else if header.starts_with(ERROR_PREFIX) {
            0
        } else {
            return Err(invalid(format!("unexpected frame header {header:?}")));
        };
        // The body and the trailer line in one exact read.
        let start = bytes.len();
        bytes.resize(start + body_len + FRAME_END.len() + 1, 0);
        reader.read_exact(&mut bytes[start..])?;
        let trailer = &bytes[start + body_len..];
        if trailer.split_last() != Some((&b'\n', FRAME_END.as_bytes())) {
            return Err(invalid(format!(
                "bad frame trailer {:?}",
                String::from_utf8_lossy(trailer)
            )));
        }
        Ok(Frame {
            bytes,
            header_len,
            body_len,
        })
    }

    /// The frame exactly as it goes on the wire.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The frame's wire bytes, by value.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The header line, without its newline.
    pub fn header(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.header_len])
            .expect("a frame header is UTF-8 by construction")
    }

    /// The body bytes; empty for a rejection frame.
    pub fn body(&self) -> &[u8] {
        let start = self.header_len + 1;
        &self.bytes[start..start + self.body_len]
    }

    /// The value of the header's `name=` field (`id`, `status`, `bytes`,
    /// `evals`, `cached`; `reason` on a rejection frame).
    pub fn field(&self, name: &str) -> Option<&str> {
        field(self.header(), name)
    }

    /// The slug a rejection frame names; `None` for a response frame.
    pub fn reason(&self) -> Option<&str> {
        self.header().strip_prefix(ERROR_PREFIX)
    }

    /// Whether this is a `status=ok` response frame.
    pub fn is_ok(&self) -> bool {
        self.field("status") == Some("ok")
    }
}

/// The value of `name=` among a header's space-separated fields.
fn field<'h>(header: &'h str, name: &str) -> Option<&'h str> {
    header
        .split(' ')
        .skip(1)
        .find_map(|t| t.strip_prefix(name)?.strip_prefix('='))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire strings are frozen: external clients parse these exact
    /// bytes. Renaming a constant is fine; changing its value is a
    /// protocol break and must fail here first.
    #[test]
    fn wire_strings_are_pinned() {
        assert_eq!(RESPONSE_PREFIX, "ghr-response ");
        assert_eq!(ERROR_PREFIX, "ghr-error reason=");
        assert_eq!(FRAME_END, "ghr-end");
        assert_eq!(SHUTDOWN_LINE, "ghr-shutdown");
        assert_eq!(JOIN_PREFIX, "ghr-join ");
        assert_eq!(REASON_OVERLOAD, "overload");
        assert_eq!(REASON_CRLF, "crlf-line-ending");
        assert_eq!(REASON_NUL, "nul-byte");
        assert_eq!(REASON_OVERSIZED, "oversized-line");
        assert_eq!(REASON_INVALID_UTF8, "invalid-utf8");
        assert_eq!(REASON_TRUNCATED, "truncated-frame");
        assert_eq!(REASON_NO_WORKER, "no-live-worker");
        assert_eq!(REASON_JOIN_FAILED, "join-failed");
    }

    #[test]
    fn error_frame_is_two_lines_and_body_less() {
        let frame = Frame::error(REASON_OVERLOAD);
        assert_eq!(frame.as_bytes(), b"ghr-error reason=overload\nghr-end\n");
        assert_eq!(frame.header(), "ghr-error reason=overload");
        assert_eq!(frame.reason(), Some(REASON_OVERLOAD));
        assert_eq!(frame.field("reason"), Some(REASON_OVERLOAD));
        assert!(frame.body().is_empty());
        assert!(!frame.is_ok());
    }

    #[test]
    fn frames_round_trip_through_read_to_identical_bytes() {
        let body = "Table 1\n| C1 | 1.0 |\n";
        let ok = Frame::response("0123456789abcdef", "ok", body, 8, "no");
        assert_eq!(
            ok.as_bytes(),
            format!(
                "ghr-response id=0123456789abcdef status=ok bytes={} evals=8 cached=no\n\
                 {body}ghr-end\n",
                body.len()
            )
            .as_bytes()
        );
        assert_eq!(
            ok.header(),
            "ghr-response id=0123456789abcdef status=ok bytes=21 evals=8 cached=no"
        );
        assert_eq!(ok.body(), body.as_bytes());
        assert_eq!(ok.field("id"), Some("0123456789abcdef"));
        assert_eq!(ok.field("bytes"), Some("21"));
        assert_eq!(ok.field("evals"), Some("8"));
        assert_eq!(ok.field("cached"), Some("no"));
        assert_eq!(ok.field("rid"), None);
        assert_eq!(ok.reason(), None);
        assert!(ok.is_ok());

        let failed = Frame::response(&"-".repeat(16), "error", "error: no such case\n", 0, "no");
        assert!(!failed.is_ok());
        assert_eq!(failed.field("status"), Some("error"));

        let frames = [ok, failed, Frame::error(REASON_NO_WORKER)];
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.as_bytes().to_vec()).collect();
        let mut reader = &wire[..];
        for frame in &frames {
            assert_eq!(&Frame::read(&mut reader).unwrap(), frame);
        }
        assert!(reader.is_empty(), "each read takes exactly one frame");
    }

    #[test]
    fn a_body_line_reading_ghr_end_is_read_whole() {
        let body = "before\nghr-end\nafter\n";
        let frame = Frame::response("0123456789abcdef", "ok", body, 0, "yes");
        let wire = [frame.as_bytes(), Frame::error(REASON_OVERLOAD).as_bytes()].concat();
        let mut reader = &wire[..];
        assert_eq!(Frame::read(&mut reader).unwrap().body(), body.as_bytes());
        let next = Frame::read(&mut reader).unwrap();
        assert_eq!(next.reason(), Some(REASON_OVERLOAD));
    }

    #[test]
    fn malformed_frames_are_errors() {
        use std::io::ErrorKind::{InvalidData, UnexpectedEof};
        let ok = Frame::response("0123456789abcdef", "ok", "ok\n", 0, "yes").into_bytes();
        let header_end = ok.iter().position(|&b| b == b'\n').unwrap() + 1;
        let crlf = [&ok[..ok.len() - 1], b"\r\n"].concat();
        let wrong = [&ok[..ok.len() - 8], b"ghr-fin\n"].concat();
        let cases: [(&str, &[u8], io::ErrorKind); 11] = [
            ("no input", b"", UnexpectedEof),
            ("torn header", &ok[..20], UnexpectedEof),
            ("torn body", &ok[..header_end + 1], UnexpectedEof),
            ("torn trailer", &ok[..ok.len() - 4], UnexpectedEof),
            ("no trailer", &ok[..ok.len() - 8], UnexpectedEof),
            ("CRLF trailer", &crlf, InvalidData),
            ("wrong trailer", &wrong, InvalidData),
            ("neither kind", b"ghr-hello id=0\nghr-end\n", InvalidData),
            (
                "non-UTF-8 header",
                b"ghr-error reason=\xff\nghr-end\n",
                InvalidData,
            ),
            (
                "no bytes=",
                b"ghr-response id=0 status=ok evals=0 cached=yes\nghr-end\n",
                InvalidData,
            ),
            ("endless header", &[b'x'; 2 * MAX_FRAME_HEADER], InvalidData),
        ];
        for (what, wire, kind) in cases {
            let err = Frame::read(&mut &wire[..]).expect_err(what);
            assert_eq!(err.kind(), kind, "{what}: {err}");
        }
    }

    /// A response header's `bytes=` claim is read as the body length and
    /// refused past [`MAX_FRAME_BODY`] before any body byte is read.
    #[test]
    fn body_len_reads_the_claim_and_enforces_the_cap() {
        let read = |header: &str, body: u64| {
            let wire = header
                .as_bytes()
                .chain(io::repeat(b'x').take(body))
                .chain(&b"ghr-end\n"[..]);
            Frame::read(&mut io::BufReader::new(wire)).map(|f| f.body().len())
        };
        let header = "ghr-response id=0123456789abcdef status=ok bytes=42 evals=0 cached=yes\n";
        assert_eq!(read(header, 42).unwrap(), 42);
        let at_cap = format!("ghr-response id=0 status=ok bytes={MAX_FRAME_BODY} evals=0\n");
        assert_eq!(
            read(&at_cap, MAX_FRAME_BODY as u64).unwrap(),
            MAX_FRAME_BODY
        );
        let past_cap = format!(
            "ghr-response id=0 status=ok bytes={} evals=0\n",
            MAX_FRAME_BODY + 1
        );
        for bad in [
            "ghr-response id=0 status=ok evals=0 cached=yes\n",
            "ghr-response id=0 status=ok bytes=-1 evals=0\n",
            "ghr-response id=0 status=ok bytes=9999999999 evals=0\n",
            "ghr-response id=0 status=ok bytes=18446744073709551616 evals=0\n",
            &past_cap,
        ] {
            let err = read(bad, 0).expect_err(bad);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}: {err}");
        }
        // A peer claiming ~10 GB of body is refused with the reader still
        // at the end of the header: nothing of the body was read.
        let header =
            "ghr-response id=0123456789abcdef status=ok bytes=9999999999 evals=0 cached=yes\n";
        let mut absurd = io::Cursor::new(format!("{header}ok\nghr-end\n").into_bytes());
        assert!(Frame::read(&mut absurd).is_err());
        assert_eq!(
            absurd.position(),
            header.len() as u64,
            "body bytes were read"
        );
    }

    /// Every slug is a single lowercase-kebab word — it must survive
    /// being embedded in a one-line header unquoted.
    #[test]
    fn reason_slugs_are_header_safe() {
        for slug in [
            REASON_OVERLOAD,
            REASON_CRLF,
            REASON_NUL,
            REASON_OVERSIZED,
            REASON_INVALID_UTF8,
            REASON_TRUNCATED,
            REASON_NO_WORKER,
            REASON_JOIN_FAILED,
        ] {
            assert!(
                slug.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "{slug:?}"
            );
            assert!(!slug.is_empty());
        }
    }
}
