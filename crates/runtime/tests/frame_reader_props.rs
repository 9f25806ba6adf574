//! Property test of the resumable frame reader: random frames pushed
//! through a reader that fails with `TimedOut`/`WouldBlock` at arbitrary
//! byte offsets all come out intact and in order — the read-timeout poll
//! loops of the serving frontend and the load generator rely on it.

use proptest::prelude::*;
use std::io::{self, Read};
use vcs_runtime::net::{write_frame, FrameReader};

/// A byte source that fails once with a timeout-class error on reaching
/// each stall offset, and otherwise hands out at most `chunk` bytes per
/// read.
struct Stalling {
    data: Vec<u8>,
    at: usize,
    /// Ascending byte offsets to stall at.
    stalls: Vec<usize>,
    chunk: usize,
    stalled: usize,
}

impl Read for Stalling {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.stalls.first().is_some_and(|&s| s <= self.at) {
            self.stalls.remove(0);
            self.stalled += 1;
            let kind = if self.stalled.is_multiple_of(2) {
                io::ErrorKind::TimedOut
            } else {
                io::ErrorKind::WouldBlock
            };
            return Err(io::Error::new(kind, "injected stall"));
        }
        let limit = self.stalls.first().map_or(self.data.len(), |&s| s);
        let n = buf.len().min(self.chunk).min(limit - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

proptest! {
    #[test]
    fn frames_survive_stalls_at_any_offset(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..8),
        stalls in prop::collection::vec(any::<u16>(), 0..24),
        chunk in 1usize..64,
    ) {
        let mut data = Vec::new();
        for frame in &frames {
            write_frame(&mut data, frame).expect("in-memory write");
        }
        let mut stalls: Vec<usize> = stalls
            .into_iter()
            .map(|s| usize::from(s) % (data.len() + 1))
            .collect();
        stalls.sort_unstable();
        let injected = stalls.len();
        let mut src = Stalling { data, at: 0, stalls, chunk, stalled: 0 };

        let mut reader = FrameReader::default();
        let mut got = Vec::new();
        while got.len() < frames.len() {
            match reader.read_frame(&mut src) {
                Ok(payload) => got.push(payload),
                Err(e) if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) => {}
                Err(e) => panic!("stream desynchronized: {e}"),
            }
        }
        prop_assert_eq!(&got, &frames);
        // Stalls at the very end remain; past them the stream is at EOF.
        loop {
            match reader.read_frame(&mut src) {
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) => {}
                other => panic!("expected EOF after the last frame, got {other:?}"),
            }
        }
        prop_assert_eq!(src.stalled, injected);
    }
}
