//! The wire client: `ServeRequest`s framed into one buffer each (magic,
//! big-endian length, payload) and a blocking frame reader with no read
//! timeout, so a reply split across any number of TCP segments is always
//! reassembled whole.
//!
//! Only the frame format (`MSG_MAGIC`, length prefix) and the message codec
//! are shared with the server; the runtime's own framing functions are not
//! used, so a change to them is measured on the server side instead of also
//! changing the client that measures it.

use std::io::{self, Read};

use vcs_runtime::net::MSG_MAGIC;
use vcs_runtime::{ServeReply, ServeRequest};

/// Frame header: 4 magic bytes plus a `u32` payload length.
pub const HEADER_LEN: usize = 8;

/// Largest reply payload the client accepts (replies are ≤ 33 bytes).
const MAX_REPLY_LEN: usize = 1 << 10;

/// `payload` framed as one contiguous buffer, so the request leaves in a
/// single `write_all` (one segment with `TCP_NODELAY`).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MSG_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// `req` encoded and framed.
pub fn request_frame(req: &ServeRequest) -> Vec<u8> {
    frame(req.encode().as_ref())
}

/// Reads whole reply frames from a blocking byte stream.
pub struct ReplyReader<R> {
    inner: R,
    payload: Vec<u8>,
}

impl<R: Read> ReplyReader<R> {
    pub fn new(inner: R) -> Self {
        ReplyReader {
            inner,
            payload: Vec::with_capacity(64),
        }
    }

    /// The next frame's payload bytes; `Ok(None)` on a clean end of stream
    /// at a frame boundary. A stream that ends or breaks mid-frame is an
    /// error, never a silently dropped partial frame.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let mut head = [0u8; HEADER_LEN];
        let mut got = 0;
        while got < HEADER_LEN {
            match self.inner.read(&mut head[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if head[..4] != MSG_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad frame magic",
            ));
        }
        let len = u32::from_be_bytes([head[4], head[5], head[6], head[7]]) as usize;
        if len > MAX_REPLY_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized reply frame",
            ));
        }
        self.payload.resize(len, 0);
        self.inner.read_exact(&mut self.payload)?;
        Ok(Some(&self.payload))
    }
}

/// Decodes one reply payload.
pub fn decode(payload: &[u8]) -> io::Result<ServeReply> {
    ServeReply::decode(payload.to_vec().into())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use vcs_runtime::{RejectReason, ServeReplyBody};

    /// Hands out the underlying bytes in seeded random chunk sizes, with
    /// `Interrupted` errors sprinkled in, like a socket under load.
    struct Choppy {
        data: Vec<u8>,
        at: usize,
        rng: StdRng,
    }

    impl Read for Choppy {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.rng.random_range(0..4u32) == 0 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let left = self.data.len() - self.at;
            let n = left.min(buf.len()).min(self.rng.random_range(1..=9usize));
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn replies() -> Vec<ServeReply> {
        let bodies = [
            ServeReplyBody::Joined {
                user: (1 << 32) | 7,
                slots: 3,
            },
            ServeReplyBody::Left { slots: 0 },
            ServeReplyBody::Responded { moved: true },
            ServeReplyBody::Stats {
                users: 128,
                slots: 99,
                phi: -2.5,
            },
            ServeReplyBody::Rejected {
                reason: RejectReason::UnknownUser,
            },
            ServeReplyBody::ShuttingDown,
        ];
        (0..60)
            .map(|i| ServeReply {
                id: i,
                body: bodies[i as usize % bodies.len()].clone(),
            })
            .collect()
    }

    #[test]
    fn reader_survives_replies_split_at_arbitrary_offsets() {
        let sent = replies();
        let mut wire = Vec::new();
        for r in &sent {
            wire.extend_from_slice(&frame(r.encode().as_ref()));
        }
        for seed in 0..50 {
            let choppy = Choppy {
                data: wire.clone(),
                at: 0,
                rng: StdRng::seed_from_u64(seed),
            };
            let mut reader = ReplyReader::new(choppy);
            let mut got = Vec::new();
            while let Some(payload) = reader.next_frame().expect("whole frames") {
                got.push(decode(payload).expect("valid reply"));
            }
            assert_eq!(got, sent, "seed {seed}");
        }
    }

    #[test]
    fn truncated_or_foreign_streams_are_errors() {
        let whole = frame(replies()[0].encode().as_ref());
        for cut in 1..whole.len() {
            let mut reader = ReplyReader::new(&whole[..cut]);
            assert!(reader.next_frame().is_err(), "cut at {cut}");
        }
        let mut reader = ReplyReader::new(&b"HTTP/1.1 200 OK\r\n"[..]);
        assert!(reader.next_frame().is_err());
        let mut empty = ReplyReader::new(&[][..]);
        assert!(matches!(empty.next_frame(), Ok(None)));
    }
}
