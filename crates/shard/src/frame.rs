//! The boundary-sync wire format.
//!
//! When a boundary user commits a move at its home shard, the coordinator
//! broadcasts the committed move to every other shard as a
//! [`BoundaryFrame`] — a fixed-size binary frame carrying the mover, the
//! route transition, and the sender's causal stamp (per-sender sequence
//! number plus Lamport clock, the same [`FrameStamper`] discipline the
//! runtime channel uses). Replicas decode the frame and apply the move
//! silently ([`Engine::apply_remote_move`]); the stamps flow into each
//! shard's event stream so merged post-mortems can re-establish the
//! cross-shard happens-before order.
//!
//! The codec is deliberately rigid — fixed length, magic-prefixed,
//! big-endian — so corruption surfaces as a decode error rather than a
//! silently skewed replica (the trace-fuzzing suite leans on this).
//!
//! [`FrameStamper`]: vcs_obs::FrameStamper
//! [`Engine::apply_remote_move`]: vcs_core::Engine::apply_remote_move

use std::fmt;
use vcs_obs::wire::{Reader, WireError, Writer};

/// Wire magic: "VCSB" (VCS Boundary).
const MAGIC: [u8; 4] = *b"VCSB";

/// Exact encoded length of a [`BoundaryFrame`] in bytes.
pub const FRAME_LEN: usize = 36;

/// One committed boundary move, as broadcast shard-to-shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryFrame {
    /// Home shard of the mover (the frame's causal sender).
    pub shard: u32,
    /// Global user id of the mover.
    pub user: u32,
    /// Route the user moved away from (post-mortem context; replicas only
    /// need `to_route`).
    pub from_route: u32,
    /// Route the user committed to.
    pub to_route: u32,
    /// Per-sender frame sequence number (1-based).
    pub seq: u64,
    /// Sender's Lamport clock at send time.
    pub lamport: u64,
}

/// Why a byte slice failed to decode as a [`BoundaryFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The slice is not exactly [`FRAME_LEN`] bytes.
    BadLength(usize),
    /// The first four bytes are not the `VCSB` magic.
    BadMagic([u8; 4]),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadLength(len) => {
                write!(f, "boundary frame must be {FRAME_LEN} bytes, got {len}")
            }
            FrameError::BadMagic(magic) => {
                write!(f, "boundary frame magic mismatch: {magic:02x?}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl BoundaryFrame {
    /// Serializes the frame to its fixed wire layout.
    pub fn encode(&self) -> [u8; FRAME_LEN] {
        let mut out = Vec::with_capacity(FRAME_LEN);
        out.extend_from_slice(&MAGIC);
        out.put_u32(self.shard);
        out.put_u32(self.user);
        out.put_u32(self.from_route);
        out.put_u32(self.to_route);
        out.put_u64(self.seq);
        out.put_u64(self.lamport);
        out.try_into().expect("FRAME_LEN bytes")
    }

    /// Decodes a frame, rejecting wrong lengths and magic mismatches.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        if bytes.len() != FRAME_LEN {
            return Err(FrameError::BadLength(bytes.len()));
        }
        let mut r = Reader::new(bytes);
        let read = |r: &mut Reader<'_>| -> Result<_, WireError> {
            let magic = r.array()?;
            let frame = BoundaryFrame {
                shard: r.u32()?,
                user: r.u32()?,
                from_route: r.u32()?,
                to_route: r.u32()?,
                seq: r.u64()?,
                lamport: r.u64()?,
            };
            Ok((magic, frame))
        };
        let (magic, frame) = read(&mut r).expect("length checked");
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BoundaryFrame {
        BoundaryFrame {
            shard: 3,
            user: 812,
            from_route: 1,
            to_route: 2,
            seq: 41,
            lamport: 97,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let frame = sample();
        let bytes = frame.encode();
        assert_eq!(bytes.len(), FRAME_LEN);
        assert_eq!(BoundaryFrame::decode(&bytes), Ok(frame));
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        for len in 0..FRAME_LEN {
            assert_eq!(
                BoundaryFrame::decode(&bytes[..len]),
                Err(FrameError::BadLength(len))
            );
        }
    }

    #[test]
    fn magic_corruption_is_rejected() {
        let mut bytes = sample().encode();
        bytes[2] ^= 0x40;
        assert!(matches!(
            BoundaryFrame::decode(&bytes),
            Err(FrameError::BadMagic(_))
        ));
    }
}
