//! Shared socket plumbing: length-guarded stream framing and bounded-backoff
//! connect.
//!
//! Everything that ships this workspace's binary frames over a real byte
//! stream uses the same discipline the PR-2 codecs established: a fixed
//! magic so a desynchronized stream fails loudly, a length prefix validated
//! against a hard cap *before* any allocation, and the payload bytes
//! verbatim (the payload carries its own tag/codec). The `/metrics`
//! exporter's scrape clients and the shard boundary-sync transport both sit
//! on these helpers, so framing bugs have exactly one home.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Wire magic prefixed to every framed message: "VCSM" (VCS Message).
pub const MSG_MAGIC: [u8; 4] = *b"VCSM";

/// Hard cap on a framed message's payload length. Large enough for a full
/// shard commit log at deployment sizes, small enough that a corrupted
/// length prefix cannot drive an allocation into the gigabytes.
pub const MAX_MSG_LEN: usize = 64 << 20;

/// Writes one length-guarded frame: magic, big-endian `u32` payload length,
/// payload.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads above [`MAX_MSG_LEN`] with
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_MSG_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds cap {MAX_MSG_LEN}", payload.len()),
        ));
    }
    w.write_all(&MSG_MAGIC)?;
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-guarded frame written by [`write_frame`], returning the
/// payload bytes. On a stream with a read timeout, use a [`FrameReader`]
/// instead: this one-shot call drops a partial frame with its error.
///
/// # Errors
///
/// `UnexpectedEof` on a closed stream, `InvalidData` on magic mismatch or a
/// length prefix above [`MAX_MSG_LEN`] — a desynchronized or hostile stream
/// is detected before any payload allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    FrameReader::default().read_frame(r)
}

/// The resumable decoder of [`write_frame`]'s framing. It keeps a partial
/// frame across `TimedOut`/`WouldBlock` errors, so a reader polling a
/// stream with a read timeout (to notice a stop flag) resumes mid-frame
/// instead of desynchronizing. It reads exactly one frame's bytes per
/// frame, never past it.
#[derive(Debug, Default)]
pub struct FrameReader {
    head: [u8; 8],
    /// Bytes of the current frame read so far, header included.
    filled: usize,
    payload: Vec<u8>,
}

impl FrameReader {
    /// Reads until the current frame is complete and returns its payload.
    ///
    /// # Errors
    ///
    /// As [`read_frame`]. An error from the underlying reader (such as
    /// `TimedOut` or `WouldBlock`) leaves the partial frame in place; the
    /// next call resumes it.
    pub fn read_frame(&mut self, r: &mut impl Read) -> io::Result<Vec<u8>> {
        while self.filled < self.head.len() {
            self.filled += read_some(r, &mut self.head[self.filled..])?;
            if self.filled == self.head.len() {
                self.start_payload()?;
            }
        }
        while self.filled < self.head.len() + self.payload.len() {
            let at = self.filled - self.head.len();
            self.filled += read_some(r, &mut self.payload[at..])?;
        }
        self.filled = 0;
        Ok(std::mem::take(&mut self.payload))
    }

    /// Validates a complete header and sizes the payload buffer.
    fn start_payload(&mut self) -> io::Result<()> {
        let head = self.head;
        if head[0..4] != MSG_MAGIC {
            self.filled = 0;
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame magic {:02x?}", &head[0..4]),
            ));
        }
        let len = u32::from_be_bytes(head[4..8].try_into().expect("4 bytes")) as usize;
        if len > MAX_MSG_LEN {
            self.filled = 0;
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds cap {MAX_MSG_LEN}"),
            ));
        }
        self.payload = vec![0u8; len];
        Ok(())
    }
}

/// One `read` into a non-empty `buf`, retried on `Interrupted`; a closed
/// stream is `UnexpectedEof`.
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match r.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed",
                ))
            }
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Connects to `addr` with bounded exponential backoff: `attempts` tries,
/// sleeping `base_delay · 2^k` (capped at one second) between consecutive
/// failures. Returns the last error when every attempt fails.
///
/// This is the reconnect discipline of every long-lived peer link in the
/// workspace — shard workers dialing their coordinator (including after a
/// coordinator-side restart) and scrape clients dialing the `/metrics`
/// exporter before its accept loop is up.
pub fn connect_with_backoff(
    addr: impl ToSocketAddrs + Clone,
    attempts: u32,
    base_delay: Duration,
) -> io::Result<TcpStream> {
    let mut delay = base_delay;
    let mut last_err = io::Error::new(io::ErrorKind::TimedOut, "no connect attempts made");
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(addr.clone()) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = e,
        }
        if attempt + 1 < attempts.max(1) {
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_secs(1));
        }
    }
    Err(last_err)
}

/// One blocking `GET <path>` against a workspace HTTP endpoint (the
/// `/metrics` exporter), returning `(status_line, body)`. This is the
/// scrape client the fleet smoke tests and CI jobs share: request written
/// in one shot, response read to EOF (the exporter closes per request),
/// both sides bounded by `timeout`.
///
/// # Errors
///
/// Propagates connect/read/write errors; a response without a blank-line
/// header terminator is `InvalidData`.
pub fn http_get(
    addr: impl ToSocketAddrs + Clone,
    path: &str,
    timeout: Duration,
) -> io::Result<(String, String)> {
    let mut stream = connect_with_backoff(addr, 5, Duration::from_millis(20))?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    // One buffer, one `write_all`: a peer that reads the request with a
    // single `read` must not see it split across several segments.
    let request = format!("GET {path} HTTP/1.1\r\nHost: vcs\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "response without header terminator",
        )
    })?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn frames_roundtrip_over_a_real_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let got = read_frame(&mut conn).unwrap();
            write_frame(&mut conn, &got).unwrap();
        });
        let mut client = connect_with_backoff(addr, 5, Duration::from_millis(1)).unwrap();
        let payload = vec![7u8; 10_000];
        write_frame(&mut client, &payload).unwrap();
        assert_eq!(read_frame(&mut client).unwrap(), payload);
        server.join().unwrap();
    }

    #[test]
    fn bad_magic_and_oversize_length_are_rejected() {
        let mut bad_magic: &[u8] = b"XXXX\x00\x00\x00\x00";
        assert_eq!(
            read_frame(&mut bad_magic).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut huge = Vec::from(MSG_MAGIC);
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            read_frame(&mut huge.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &[0u8; 1]).is_ok());
    }

    #[test]
    fn truncated_stream_is_eof() {
        let mut cut: &[u8] = &{
            let mut buf = Vec::from(MSG_MAGIC);
            buf.extend_from_slice(&8u32.to_be_bytes());
            buf.extend_from_slice(&[1, 2, 3]); // promised 8, delivered 3
            buf
        };
        assert_eq!(
            read_frame(&mut cut).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn http_get_scrapes_a_minimal_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Read the whole request head: closing with unread request
            // bytes in the socket would reset the connection.
            let mut request = Vec::new();
            let mut buf = [0u8; 512];
            while !request.windows(4).any(|w| w == b"\r\n\r\n") {
                let n = conn.read(&mut buf).unwrap();
                assert!(n > 0, "client closed before ending its request");
                request.extend_from_slice(&buf[..n]);
            }
            assert!(request.starts_with(b"GET /metrics "));
            let body = "vcs_ok 1\n";
            write!(
                conn,
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
        });
        let (status, body) = http_get(addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "vcs_ok 1\n");
        server.join().unwrap();
    }

    #[test]
    fn backoff_connect_eventually_fails_cleanly() {
        // Port 1 on localhost: nothing listens there in this sandbox.
        let err = connect_with_backoff("127.0.0.1:1", 2, Duration::from_millis(1));
        assert!(err.is_err());
    }
}
