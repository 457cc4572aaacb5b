//! The serve/router wire protocol's literal strings, in one place.
//!
//! The framed line protocol (`ghr serve`, `ghr router`, `ghr client`,
//! `ghr loadgen --socket`) is defined by a handful of exact byte strings:
//! frame headers, the end-of-frame trailer, control lines, and the
//! `reason=` slugs a server rejects malformed or past-budget requests
//! with. Every producer and consumer in the workspace — the serve loop
//! that writes frames, the router that forwards them byte-identically,
//! the loadgen and client readers that parse them — uses these constants,
//! so a renamed slug is a compile-time event, not a silently broken
//! smoke script. The strings themselves are wire-frozen: clients in the
//! wild grep for them, and `tests` below pins each one.
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

/// One full rejection frame for `reason`, ready to write.
pub fn error_frame(reason: &str) -> String {
    format!("{ERROR_PREFIX}{reason}\n{FRAME_END}\n")
}

/// Largest body a response frame header may claim. Every frame reader
/// (the router relaying a worker's frame, loadgen reading a server's)
/// refuses a larger `bytes=` claim before allocating, so a corrupt or
/// hostile peer saying `bytes=18446744073709551615` costs nothing. Real
/// bodies are kilobytes.
pub const MAX_FRAME_BODY: usize = 16 << 20;

/// The body length a response frame header claims in its `bytes=`
/// field, or why the header cannot be read: no `bytes=`, a claim that is
/// not a count, or one past [`MAX_FRAME_BODY`].
pub fn body_len(header: &str) -> Result<usize, String> {
    let claim = header
        .split_whitespace()
        .find_map(|t| t.strip_prefix("bytes="))
        .ok_or("frame header without bytes=")?;
    let bytes: usize = claim
        .parse()
        .map_err(|_| format!("frame header claims bytes={claim:?}"))?;
    if bytes > MAX_FRAME_BODY {
        return Err(format!(
            "frame header claims {bytes} body bytes (cap {MAX_FRAME_BODY})"
        ));
    }
    Ok(bytes)
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
        let frame = error_frame(REASON_OVERLOAD);
        assert_eq!(frame, "ghr-error reason=overload\nghr-end\n");
        assert_eq!(frame.lines().count(), 2);
    }

    #[test]
    fn body_len_reads_the_claim_and_enforces_the_cap() {
        let header = "ghr-response id=0123456789abcdef status=ok bytes=42 evals=0 cached=yes";
        assert_eq!(body_len(header), Ok(42));
        let at_cap = format!("ghr-response id=0 status=ok bytes={MAX_FRAME_BODY} evals=0");
        assert_eq!(body_len(&at_cap), Ok(MAX_FRAME_BODY));
        for bad in [
            "ghr-response id=0 status=ok evals=0 cached=yes",
            "ghr-response id=0 status=ok bytes=-1 evals=0",
            "ghr-response id=0 status=ok bytes=9999999999 evals=0",
            "ghr-response id=0 status=ok bytes=18446744073709551616 evals=0",
        ] {
            assert!(body_len(bad).is_err(), "{bad}");
        }
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
