//! The wire protocol: length-prefixed UTF-8 frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | length: u32 BE | payload (length B)  |
//! +----------------+---------------------+
//! ```
//!
//! A **request** payload is a UTF-8 statement: SQL, or one of the server
//! commands (`STATS`, `PING`). A **response** payload starts with one
//! status byte — `O` (ok) or `E` (error) — followed by the UTF-8 body
//! (rendered rows / plan / error message). Keeping the framing this dumb
//! makes clients trivial: the repo's own `fts-client` is a few dozen
//! lines, and `examples/concurrent_clients.rs` drives 16 of them from
//! one process.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload; anything larger is a protocol error.
/// Generous for result sets, small enough to bound a connection's memory.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} B exceeds MAX_FRAME_BYTES", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame. Returns `None` on clean EOF (the peer
/// closed between frames); errors on truncation or oversized frames.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len} B frame"),
        ));
    }
    // Grow the buffer as bytes arrive: a peer that announces a large
    // frame and then idles pins only what it actually sent.
    let mut payload = Vec::new();
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(Some(payload))
}

/// A client request: one statement per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The SQL statement or server command (`STATS`, `PING`).
    pub statement: String,
}

impl Request {
    /// Frame this request onto `w`.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        write_frame(w, self.statement.as_bytes())
    }

    /// Read the next request frame; `None` on clean EOF.
    pub fn read(r: &mut impl Read) -> io::Result<Option<Request>> {
        let Some(payload) = read_frame(r)? else {
            return Ok(None);
        };
        let statement = String::from_utf8(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(Some(Request { statement }))
    }
}

/// A server response: ok text or an error message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; the body is the rendered result (rows, count, plan…).
    Ok(String),
    /// Failure; the body says why (parse error, `Overloaded`, …).
    Err(String),
}

impl Response {
    /// The body regardless of status.
    pub fn body(&self) -> &str {
        match self {
            Response::Ok(s) | Response::Err(s) => s,
        }
    }

    /// Whether this is an ok response.
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok(_))
    }

    /// Frame this response onto `w`: status byte + body.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        let (status, body) = match self {
            Response::Ok(s) => (b'O', s),
            Response::Err(s) => (b'E', s),
        };
        let mut payload = Vec::with_capacity(1 + body.len());
        payload.push(status);
        payload.extend_from_slice(body.as_bytes());
        write_frame(w, &payload)
    }

    /// Read the next response frame; `None` on clean EOF.
    pub fn read(r: &mut impl Read) -> io::Result<Option<Response>> {
        let Some(payload) = read_frame(r)? else {
            return Ok(None);
        };
        let (&status, body) = payload
            .split_first()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response frame"))?;
        let body = std::str::from_utf8(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .to_string();
        match status {
            b'O' => Ok(Some(Response::Ok(body))),
            b'E' => Ok(Some(Response::Err(body))),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown response status byte 0x{other:02x}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let mut buf = Vec::new();
        Request {
            statement: "SELECT COUNT(*) FROM t".into(),
        }
        .write(&mut buf)
        .unwrap();
        Response::Ok("42".into()).write(&mut buf).unwrap();
        Response::Err("overloaded".into()).write(&mut buf).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            Request::read(&mut r).unwrap().unwrap().statement,
            "SELECT COUNT(*) FROM t"
        );
        assert_eq!(
            Response::read(&mut r).unwrap().unwrap(),
            Response::Ok("42".into())
        );
        let err = Response::read(&mut r).unwrap().unwrap();
        assert!(!err.is_ok());
        assert_eq!(err.body(), "overloaded");
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    /// Announces a full-size frame, delivers 10 bytes, then EOF; records
    /// the largest buffer it is asked to fill.
    struct Stingy {
        sent: Vec<u8>,
        largest_read: usize,
    }

    impl Read for Stingy {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_read = self.largest_read.max(buf.len());
            let n = buf.len().min(self.sent.len());
            buf[..n].copy_from_slice(&self.sent[..n]);
            self.sent.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn announced_length_is_not_allocated_before_the_payload_arrives() {
        let mut sent = (MAX_FRAME_BYTES as u32).to_be_bytes().to_vec();
        sent.extend_from_slice(b"ten bytes!");
        let mut peer = Stingy {
            sent,
            largest_read: 0,
        };
        let err = read_frame(&mut peer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            peer.largest_read <= 64 * 1024,
            "asked the peer to fill {} B",
            peer.largest_read
        );
    }

    #[test]
    fn oversized_announcement_rejected() {
        let buf = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }
}
