//! A closed-loop client for the framed `ghr serve` / `ghr router`
//! protocol over one unix-socket connection.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// One response frame as the client received it.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The header line without its newline.
    pub header: String,
    /// The body bytes (empty for `ghr-error` frames).
    pub body: Vec<u8>,
}

impl Frame {
    /// The value of `key=` in the header.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.header
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
    }

    /// A `status=ok` response frame.
    pub fn ok(&self) -> bool {
        self.header.starts_with("ghr-response ") && self.field("status") == Some("ok")
    }

    /// Same request id, status and body: what a warm answer must repeat
    /// (`evals=` and `cached=` legitimately differ between passes).
    pub fn same_answer(&self, other: &Frame) -> bool {
        self.field("id") == other.field("id")
            && self.field("status") == other.field("status")
            && self.body == other.body
    }

    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// One connection.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    line: Vec<u8>,
}

/// Longest body the client accepts, so a corrupt header cannot make it
/// allocate without bound.
const MAX_BODY: usize = 16 << 20;

impl Client {
    /// Connect with a read deadline; a read past it is a failed answer.
    pub fn connect(path: &str, timeout: Duration) -> std::io::Result<Client> {
        let writer = UnixStream::connect(path)?;
        let reader = writer.try_clone()?;
        reader.set_read_timeout(Some(timeout))?;
        Ok(Client {
            writer,
            reader: BufReader::new(reader),
            line: Vec::with_capacity(64),
        })
    }

    /// Send one request line, wait for its frame, and return the frame
    /// with the round trip in microseconds.
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<(Frame, f64)> {
        self.line.clear();
        self.line.extend_from_slice(request.as_bytes());
        self.line.push(b'\n');
        let t0 = Instant::now();
        self.writer.write_all(&self.line)?;
        let frame = self.read_frame()?;
        Ok((frame, t0.elapsed().as_secs_f64() * 1e6))
    }

    /// Write raw bytes without waiting (the burst probe).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    pub fn set_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(timeout))
    }

    /// Read one whole frame from the connection.
    pub fn read_frame(&mut self) -> std::io::Result<Frame> {
        read_frame(&mut self.reader)
    }
}

/// Read one whole `ghr-response` or `ghr-error` frame.
pub fn read_frame(reader: &mut impl BufRead) -> std::io::Result<Frame> {
    use std::io::{Error, ErrorKind};
    let bad = |what: String| Error::new(ErrorKind::InvalidData, what);
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 {
        return Err(Error::new(
            ErrorKind::UnexpectedEof,
            "closed before a frame",
        ));
    }
    let mut frame = Frame {
        header: header.trim_end().to_string(),
        body: Vec::new(),
    };
    if frame.header.starts_with("ghr-response ") {
        let bytes: usize = frame
            .field("bytes")
            .and_then(|b| b.parse().ok())
            .ok_or_else(|| bad(format!("no bytes= in {:?}", frame.header)))?;
        if bytes > MAX_BODY {
            return Err(bad(format!("frame claims {bytes} body bytes")));
        }
        frame.body.resize(bytes, 0);
        reader.read_exact(&mut frame.body)?;
    } else if !frame.header.starts_with("ghr-error ") {
        return Err(bad(format!("unexpected header {:?}", frame.header)));
    }
    let mut trailer = String::new();
    reader.read_line(&mut trailer)?;
    if trailer.trim_end() != "ghr-end" {
        return Err(bad(format!("bad trailer {trailer:?}")));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_fields_and_answers_compare() {
        let a = Frame {
            header: "ghr-response id=ab status=ok bytes=2 evals=0 cached=no".into(),
            body: b"x\n".to_vec(),
        };
        let mut b = a.clone();
        b.header = b.header.replace("cached=no", "cached=yes");
        assert!(a.ok());
        assert_eq!(a.field("bytes"), Some("2"));
        assert_eq!(b.field("cached"), Some("yes"));
        assert!(a.same_answer(&b));
        b.body[0] = b'y';
        assert!(!a.same_answer(&b));
    }
}
