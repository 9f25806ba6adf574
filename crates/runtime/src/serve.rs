//! Wire protocol of the long-lived serving mode (`platform_serve`).
//!
//! A serving process accepts an open-ended stream of requests — Join /
//! Leave / BestRespond / Query / Shutdown — instead of running one batch
//! to a fixpoint. Requests and replies are binary messages carried over
//! the PR-8 length-guarded [`net`](crate::net) frame codec (`VCSM` magic,
//! 64 MiB cap), one message per frame, many frames per connection.
//!
//! Every request carries a client-chosen `id`, echoed verbatim on the
//! reply. The server may interleave replies from different lanes on one
//! connection, so the id — not arrival order — is the correlation key,
//! and it is what the ingress stamps into the request-scoped span
//! pipeline (`IngressQueue` / `ConvergeWait` / `Reply`).
//!
//! Join carries a *shard hint*, not a user spec: the server synthesizes
//! paper-range vehicles from its own seeded RNG, which keeps join frames
//! 14 bytes, makes a serving run reproducible from `(seed, request
//! stream)` alone, and lets one loadgen drive ~100k agents without
//! shipping route tables. The codec is hostile-input safe in the same
//! style as [`protocol`](crate::protocol): truncation, unknown tags and
//! trailing bytes all fail with [`CodecError`], never a panic.

use crate::protocol::CodecError;
use vcs_obs::wire::{Reader, Writer};

/// Join target meaning "any lane" (server picks round-robin).
pub const ANY_SHARD: u32 = u32::MAX;

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The referenced user id is not (or no longer) admitted.
    UnknownUser,
    /// The shard hint names a lane the server does not host.
    UnknownShard,
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
}

impl RejectReason {
    fn code(self) -> u8 {
        match self {
            RejectReason::UnknownUser => 1,
            RejectReason::UnknownShard => 2,
            RejectReason::ShuttingDown => 3,
        }
    }

    fn from_code(code: u8) -> Result<Self, CodecError> {
        Ok(match code {
            1 => RejectReason::UnknownUser,
            2 => RejectReason::UnknownShard,
            3 => RejectReason::ShuttingDown,
            _ => return Err(CodecError("unknown reject reason")),
        })
    }
}

/// One client request. `id` is echoed on the matching reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Client-chosen correlation id, echoed on the reply.
    pub id: u64,
    /// What the client asks for.
    pub body: ServeRequestBody,
}

/// Request payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequestBody {
    /// Admit one synthetic vehicle on the hinted lane ([`ANY_SHARD`] =
    /// server's choice).
    Join {
        /// Target lane, or [`ANY_SHARD`].
        shard: u32,
    },
    /// Retire a previously admitted vehicle (global id from `Joined`).
    Leave {
        /// Global user id.
        user: u64,
    },
    /// Evaluate (and commit, if improving) one best response for a vehicle.
    BestRespond {
        /// Global user id.
        user: u64,
    },
    /// Read-only serving stats (population, cumulative slots, ϕ).
    Query,
    /// Stop accepting requests and exit the serving loop.
    Shutdown,
}

/// One server reply, correlated by `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReply {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// The outcome.
    pub body: ServeReplyBody,
}

/// Reply payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeReplyBody {
    /// Join succeeded: the admitted vehicle's global id and the decision
    /// slots the lane spent re-converging before replying.
    Joined {
        /// Global user id (`shard << 32 | local`).
        user: u64,
        /// Convergence slots charged to this request.
        slots: u64,
    },
    /// Leave succeeded.
    Left {
        /// Convergence slots charged to this request.
        slots: u64,
    },
    /// BestRespond evaluated; `moved` says whether an improving move was
    /// committed.
    Responded {
        /// Whether the vehicle changed route.
        moved: bool,
    },
    /// Query result.
    Stats {
        /// Vehicles currently admitted across all lanes.
        users: u64,
        /// Cumulative decision slots across all lanes.
        slots: u64,
        /// Sum of per-lane potentials ϕ.
        phi: f64,
    },
    /// Shutdown acknowledged; the connection closes after this reply.
    ShuttingDown,
    /// The request was not served.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
}

const REQ_JOIN: u8 = 1;
const REQ_LEAVE: u8 = 2;
const REQ_BEST_RESPOND: u8 = 3;
const REQ_QUERY: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

const REP_JOINED: u8 = 1;
const REP_LEFT: u8 = 2;
const REP_RESPONDED: u8 = 3;
const REP_STATS: u8 = 4;
const REP_SHUTTING_DOWN: u8 = 5;
const REP_REJECTED: u8 = 6;

impl ServeRequest {
    /// Encodes into a binary frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(18);
        buf.put_u64(self.id);
        match self.body {
            ServeRequestBody::Join { shard } => {
                buf.put_u8(REQ_JOIN);
                buf.put_u32(shard);
            }
            ServeRequestBody::Leave { user } => {
                buf.put_u8(REQ_LEAVE);
                buf.put_u64(user);
            }
            ServeRequestBody::BestRespond { user } => {
                buf.put_u8(REQ_BEST_RESPOND);
                buf.put_u64(user);
            }
            ServeRequestBody::Query => buf.put_u8(REQ_QUERY),
            ServeRequestBody::Shutdown => buf.put_u8(REQ_SHUTDOWN),
        }
        buf
    }

    /// Decodes a binary frame payload.
    pub fn decode(frame: Vec<u8>) -> Result<Self, CodecError> {
        let mut r = Reader::new(&frame);
        let id = r.u64()?;
        let body = match r.u8()? {
            REQ_JOIN => ServeRequestBody::Join { shard: r.u32()? },
            REQ_LEAVE => ServeRequestBody::Leave { user: r.u64()? },
            REQ_BEST_RESPOND => ServeRequestBody::BestRespond { user: r.u64()? },
            REQ_QUERY => ServeRequestBody::Query,
            REQ_SHUTDOWN => ServeRequestBody::Shutdown,
            _ => return Err(CodecError("unknown serve request tag")),
        };
        r.finish()?;
        Ok(ServeRequest { id, body })
    }
}

impl ServeReply {
    /// Encodes into a binary frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(33);
        buf.put_u64(self.id);
        match self.body {
            ServeReplyBody::Joined { user, slots } => {
                buf.put_u8(REP_JOINED);
                buf.put_u64(user);
                buf.put_u64(slots);
            }
            ServeReplyBody::Left { slots } => {
                buf.put_u8(REP_LEFT);
                buf.put_u64(slots);
            }
            ServeReplyBody::Responded { moved } => {
                buf.put_u8(REP_RESPONDED);
                buf.put_u8(u8::from(moved));
            }
            ServeReplyBody::Stats { users, slots, phi } => {
                buf.put_u8(REP_STATS);
                buf.put_u64(users);
                buf.put_u64(slots);
                buf.put_f64(phi);
            }
            ServeReplyBody::ShuttingDown => buf.put_u8(REP_SHUTTING_DOWN),
            ServeReplyBody::Rejected { reason } => {
                buf.put_u8(REP_REJECTED);
                buf.put_u8(reason.code());
            }
        }
        buf
    }

    /// Decodes a binary frame payload.
    pub fn decode(frame: Vec<u8>) -> Result<Self, CodecError> {
        let mut r = Reader::new(&frame);
        let id = r.u64()?;
        let body = match r.u8()? {
            REP_JOINED => ServeReplyBody::Joined {
                user: r.u64()?,
                slots: r.u64()?,
            },
            REP_LEFT => ServeReplyBody::Left { slots: r.u64()? },
            REP_RESPONDED => ServeReplyBody::Responded {
                moved: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(CodecError("malformed bool")),
                },
            },
            REP_STATS => ServeReplyBody::Stats {
                users: r.u64()?,
                slots: r.u64()?,
                phi: r.f64()?,
            },
            REP_SHUTTING_DOWN => ServeReplyBody::ShuttingDown,
            REP_REJECTED => ServeReplyBody::Rejected {
                reason: RejectReason::from_code(r.u8()?)?,
            },
            _ => return Err(CodecError("unknown serve reply tag")),
        };
        r.finish()?;
        Ok(ServeReply { id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<ServeRequest> {
        vec![
            ServeRequest {
                id: 0,
                body: ServeRequestBody::Join { shard: ANY_SHARD },
            },
            ServeRequest {
                id: 1,
                body: ServeRequestBody::Join { shard: 3 },
            },
            ServeRequest {
                id: u64::MAX,
                body: ServeRequestBody::Leave {
                    user: (7u64 << 32) | 42,
                },
            },
            ServeRequest {
                id: 9,
                body: ServeRequestBody::BestRespond { user: 5 },
            },
            ServeRequest {
                id: 10,
                body: ServeRequestBody::Query,
            },
            ServeRequest {
                id: 11,
                body: ServeRequestBody::Shutdown,
            },
        ]
    }

    fn replies() -> Vec<ServeReply> {
        vec![
            ServeReply {
                id: 1,
                body: ServeReplyBody::Joined {
                    user: (3u64 << 32) | 1,
                    slots: 17,
                },
            },
            ServeReply {
                id: 2,
                body: ServeReplyBody::Left { slots: 0 },
            },
            ServeReply {
                id: 3,
                body: ServeReplyBody::Responded { moved: true },
            },
            ServeReply {
                id: 4,
                body: ServeReplyBody::Stats {
                    users: 100,
                    slots: 12345,
                    phi: -3.5,
                },
            },
            ServeReply {
                id: 5,
                body: ServeReplyBody::ShuttingDown,
            },
            ServeReply {
                id: 6,
                body: ServeReplyBody::Rejected {
                    reason: RejectReason::UnknownUser,
                },
            },
        ]
    }

    #[test]
    fn requests_and_replies_roundtrip() {
        for req in requests() {
            let decoded = ServeRequest::decode(req.encode()).expect("request roundtrip");
            assert_eq!(decoded, req);
        }
        for rep in replies() {
            let decoded = ServeReply::decode(rep.encode()).expect("reply roundtrip");
            assert_eq!(decoded, rep);
        }
    }

    #[test]
    fn hostile_frames_fail_without_panicking() {
        assert!(ServeRequest::decode(Vec::new()).is_err());
        assert!(ServeReply::decode(Vec::new()).is_err());
        for msg in requests() {
            let full = msg.encode();
            // Every strict prefix is a truncation error.
            for cut in 0..full.len() {
                assert!(ServeRequest::decode(full[0..cut].to_vec()).is_err());
            }
            // Trailing garbage is rejected.
            let mut long = full.clone();
            long.push(0xFF);
            assert!(ServeRequest::decode(long).is_err());
        }
        // Unknown tags.
        let mut buf = Vec::new();
        buf.put_u64(1);
        buf.put_u8(0xEE);
        assert!(ServeRequest::decode(buf.clone()).is_err());
        assert!(ServeReply::decode(buf).is_err());
        // Malformed bool and reject code.
        let mut buf = Vec::new();
        buf.put_u64(1);
        buf.put_u8(REP_RESPONDED);
        buf.put_u8(7);
        assert!(ServeReply::decode(buf).is_err());
        let mut buf = Vec::new();
        buf.put_u64(1);
        buf.put_u8(REP_REJECTED);
        buf.put_u8(0);
        assert!(ServeReply::decode(buf).is_err());
    }
}
