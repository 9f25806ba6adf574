//! Causal stamping of protocol frames: per-sender sequence numbers and
//! Lamport clocks.
//!
//! Every runtime frame event ([`Event::FrameSent`], [`Event::FrameReceived`],
//! [`Event::FrameDropped`], [`Event::Retransmission`]) carries a
//! [`FrameStamp`]. Stamps follow the classic Lamport rules over the star
//! topology of the protocol (platform ↔ each user agent):
//!
//! * **send** — the sender increments its own frame sequence number and
//!   ticks its logical clock; the frame carries `(seq, clock)`;
//! * **receive** — the receiver merges `clock ← max(local, frame) + 1` and
//!   the RX event keeps the sender's `seq` so TX/RX pairs are matchable;
//! * **drop** — the channel annihilates the frame; the drop event inherits
//!   the TX stamp unchanged (nothing at the receiver advanced);
//! * **retransmission** — a local tick at the sender, `seq` unchanged.
//!
//! The resulting partial order is exactly happens-before restricted to the
//! recorded frames: if `a → b` causally then `lamport(a) < lamport(b)`.
//! Sorting a trace's frame events by `(lamport, trace position)` therefore
//! linearizes them consistently with causality, which is what
//! `replay_debug` prints as the *causal neighborhood* of a divergence.
//!
//! All runtimes emit events from the platform/driver thread, so a
//! [`FrameStamper`] is plain mutable state — no atomics — and stamping is
//! deterministic per seed (the threaded runtime emits the same platform-side
//! sequence it would record on the wire).

use crate::event::Event;

/// Sender id used by the platform endpoint. User agents use their own
/// `UserId` index; `u32::MAX` can never collide with a user (the wire
/// protocol caps user ids well below it).
pub const PLATFORM_SENDER: u32 = u32::MAX;

/// A causal stamp carried by one frame event: the per-sender sequence
/// number and a Lamport time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameStamp {
    /// Per-sender frame sequence number, 1-based (0 = pre-causal trace).
    pub seq: u64,
    /// Lamport clock value, 1-based (0 = pre-causal trace).
    pub lamport: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Endpoint {
    seq: u64,
    clock: u64,
}

/// Issues [`FrameStamp`]s for a run: one logical clock and sequence counter
/// per endpoint (the platform plus each user agent), grown on demand.
///
/// `Clone` snapshots every endpoint's counters, which is what a sharded
/// checkpoint needs: a resumed run re-stamps its remaining frames with the
/// same sequence numbers and Lamport times the uninterrupted run would have
/// issued.
#[derive(Debug, Clone, Default)]
pub struct FrameStamper {
    platform: Endpoint,
    users: Vec<Endpoint>,
}

impl FrameStamper {
    /// A fresh stamper with all clocks at zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn endpoint(&mut self, sender: u32) -> &mut Endpoint {
        if sender == PLATFORM_SENDER {
            return &mut self.platform;
        }
        let idx = sender as usize;
        if idx >= self.users.len() {
            self.users.resize(idx + 1, Endpoint::default());
        }
        &mut self.users[idx]
    }

    /// Stamps a frame send: bumps the sender's sequence number and ticks
    /// its clock.
    pub fn send(&mut self, sender: u32) -> FrameStamp {
        let ep = self.endpoint(sender);
        ep.seq += 1;
        ep.clock += 1;
        FrameStamp {
            seq: ep.seq,
            lamport: ep.clock,
        }
    }

    /// Stamps a frame receipt: merges the carried clock into the receiver
    /// (`max(local, frame) + 1`) and keeps the sender's sequence number.
    pub fn receive(&mut self, receiver: u32, sent: FrameStamp) -> FrameStamp {
        let ep = self.endpoint(receiver);
        ep.clock = ep.clock.max(sent.lamport) + 1;
        FrameStamp {
            seq: sent.seq,
            lamport: ep.clock,
        }
    }

    /// Stamps a local (non-frame) step at `sender` — used for the ARQ
    /// retransmission decision. The sequence number is the sender's latest
    /// issued one, unchanged.
    pub fn local(&mut self, sender: u32) -> FrameStamp {
        let ep = self.endpoint(sender);
        ep.clock += 1;
        FrameStamp {
            seq: ep.seq,
            lamport: ep.clock,
        }
    }

    /// The `(seq, clock)` counters of one endpoint, for checkpoint codecs
    /// that must re-stamp a resumed run's remaining frames exactly as the
    /// uninterrupted run would have.
    pub fn endpoint_state(&self, sender: u32) -> (u64, u64) {
        let ep = if sender == PLATFORM_SENDER {
            self.platform
        } else {
            self.users.get(sender as usize).copied().unwrap_or_default()
        };
        (ep.seq, ep.clock)
    }

    /// Restores one endpoint's `(seq, clock)` counters captured with
    /// [`endpoint_state`](FrameStamper::endpoint_state).
    pub fn restore_endpoint(&mut self, sender: u32, seq: u64, clock: u64) {
        let ep = self.endpoint(sender);
        ep.seq = seq;
        ep.clock = clock;
    }
}

/// The causal stamp of an event, if it is a frame event.
pub fn stamp_of(event: &Event) -> Option<FrameStamp> {
    match *event {
        Event::FrameSent { seq, lamport, .. }
        | Event::FrameReceived { seq, lamport, .. }
        | Event::FrameDropped { seq, lamport, .. }
        | Event::Retransmission { seq, lamport, .. } => Some(FrameStamp { seq, lamport }),
        _ => None,
    }
}

/// Indices of the frame events in `events`, sorted by `(lamport, index)` —
/// a linearization consistent with happens-before. Non-frame events are
/// omitted.
pub fn lamport_order(events: &[Event]) -> Vec<usize> {
    let mut frames: Vec<(u64, usize)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| stamp_of(e).map(|s| (s.lamport, i)))
        .collect();
    frames.sort(); // (lamport, index): stable causal linearization
    frames.into_iter().map(|(_, i)| i).collect()
}

/// The causal neighborhood of `center`: up to `radius` frame events on each
/// side of the frame nearest to `center` in the Lamport linearization
/// (plus that frame itself), returned as trace indices in Lamport order.
///
/// "Nearest" is by trace position: the frame whose index is closest to
/// `center` anchors the window, so callers can pass the index of *any*
/// event (e.g. a divergent `MoveCommitted`) and see the frames that led up
/// to it.
pub fn causal_neighborhood(events: &[Event], center: usize, radius: usize) -> Vec<usize> {
    let order = lamport_order(events);
    if order.is_empty() {
        return Vec::new();
    }
    let anchor = order
        .iter()
        .enumerate()
        .min_by_key(|&(_, &idx)| idx.abs_diff(center))
        .map(|(pos, _)| pos)
        .unwrap_or(0);
    let lo = anchor.saturating_sub(radius);
    let hi = (anchor + radius + 1).min(order.len());
    order[lo..hi].to_vec()
}

/// A violation of the causal-stamp invariants found by
/// [`validate_causal_order`] or [`validate_causal_order_merged`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalViolation {
    /// A stamped frame event (`seq > 0`) whose Lamport time is zero.
    MissingLamport {
        /// Index of the offending event in the trace.
        index: usize,
    },
    /// A `FrameSent` whose sequence number is not exactly one past the
    /// sender's previous send — a gap (lost or truncated recording) or a
    /// regression (reordered recording).
    SeqDiscontinuity {
        /// Sender whose stream carries the discontinuity.
        sender: u32,
        /// Index of the offending event *within that sender's stream*.
        index: usize,
        /// Sequence number expected (previous send + 1).
        expected: u64,
        /// Sequence number found.
        found: u64,
    },
    /// A stamped frame whose Lamport time is below an earlier frame of the
    /// same stream — impossible for a faithful recording (every local step
    /// ticks the sender's clock), so the stream was reordered or spliced.
    LamportRegression {
        /// Sender whose stream regresses.
        sender: u32,
        /// Index of the offending event *within that sender's stream*.
        index: usize,
        /// The stream's running Lamport high-water mark.
        prev: u64,
        /// The (lower) Lamport time found.
        found: u64,
    },
    /// A `FrameReceived` with no matching `FrameSent` in any *other* stream
    /// carrying the same sequence number and a strictly smaller Lamport
    /// time — the receive happens-before its own send, or the send was
    /// never recorded (truncated sender stream).
    UnmatchedReceive {
        /// Receiver whose stream carries the orphan RX.
        sender: u32,
        /// Index of the offending event *within that receiver's stream*.
        index: usize,
        /// The orphaned sequence number.
        seq: u64,
    },
}

/// Checks the intra-trace causal invariants of a *stamped* trace (one where
/// at least one frame carries a non-zero stamp): every stamped frame has a
/// non-zero Lamport time. Pre-causal traces (all stamps zero) validate
/// trivially. Returns all violations, empty = consistent.
///
/// A single interleaved trace mixes frames from many senders (the platform
/// plus every user agent) without recording which, so per-sender sequence
/// monotonicity cannot be checked here; [`validate_causal_order_merged`]
/// checks it on sender-tagged streams, which is what a sharded run records
/// (one dump per shard).
pub fn validate_causal_order(events: &[Event]) -> Vec<CausalViolation> {
    let mut violations = Vec::new();
    for (index, event) in events.iter().enumerate() {
        if let Some(stamp) = stamp_of(event) {
            if stamp.seq > 0 && stamp.lamport == 0 {
                violations.push(CausalViolation::MissingLamport { index });
            }
        }
    }
    violations
}

/// One endpoint's recorded event stream, tagged with the sender id its
/// `FrameSent` stamps belong to — the unit a sharded run dumps (one per
/// shard) and the unit the merge-aware validators consume.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedStream {
    /// The endpoint that recorded `events` (its sends carry its seq space).
    pub sender: u32,
    /// The stream's events in recording order.
    pub events: Vec<Event>,
}

impl StampedStream {
    /// Wraps a recorded stream.
    pub fn new(sender: u32, events: Vec<Event>) -> Self {
        StampedStream { sender, events }
    }
}

/// The merge-aware causal validator for multi-stream recordings: checks, on
/// top of [`validate_causal_order`]'s per-frame stamp sanity, the
/// per-sender invariants a faithful sharded recording must satisfy —
///
/// * **seq continuity** — each stream's `FrameSent` sequence numbers run
///   `1, 2, 3, …` with no gap or regression ([`SeqDiscontinuity`]);
/// * **Lamport monotonicity** — each stream's stamped frames carry
///   non-decreasing Lamport times, every send/receive ticking strictly past
///   the stream's previous frame ([`LamportRegression`]; equal times are
///   tolerated for drop events, which inherit their TX stamp verbatim);
/// * **receive matching** — every stamped `FrameReceived` is matched by a
///   `FrameSent` with the same seq in some *other* stream at a strictly
///   smaller Lamport time ([`UnmatchedReceive`]): a receive cannot precede
///   its send.
///
/// Violation indices are positions **within the offending sender's
/// stream**, so a post-mortem can jump straight into the right shard dump.
///
/// [`SeqDiscontinuity`]: CausalViolation::SeqDiscontinuity
/// [`LamportRegression`]: CausalViolation::LamportRegression
/// [`UnmatchedReceive`]: CausalViolation::UnmatchedReceive
pub fn validate_causal_order_merged(streams: &[StampedStream]) -> Vec<CausalViolation> {
    let mut violations = Vec::new();
    // All sends across all streams: seq -> (sender, lamport) pairs.
    let mut sends: std::collections::HashMap<u64, Vec<(u32, u64)>> =
        std::collections::HashMap::new();
    for stream in streams {
        for event in &stream.events {
            if let Event::FrameSent { seq, lamport, .. } = *event {
                if seq > 0 {
                    sends.entry(seq).or_default().push((stream.sender, lamport));
                }
            }
        }
    }
    for stream in streams {
        let mut prev_seq = 0u64;
        let mut high_water = 0u64;
        for (index, event) in stream.events.iter().enumerate() {
            let Some(stamp) = stamp_of(event) else {
                continue;
            };
            if stamp.seq == 0 && stamp.lamport == 0 {
                continue; // pre-causal frame: nothing to check
            }
            if stamp.lamport == 0 {
                violations.push(CausalViolation::MissingLamport { index });
                continue;
            }
            if stamp.lamport < high_water {
                violations.push(CausalViolation::LamportRegression {
                    sender: stream.sender,
                    index,
                    prev: high_water,
                    found: stamp.lamport,
                });
            }
            high_water = high_water.max(stamp.lamport);
            match *event {
                Event::FrameSent { seq, .. } => {
                    if seq != prev_seq + 1 {
                        violations.push(CausalViolation::SeqDiscontinuity {
                            sender: stream.sender,
                            index,
                            expected: prev_seq + 1,
                            found: seq,
                        });
                    }
                    prev_seq = seq;
                }
                Event::FrameReceived { seq, lamport, .. } => {
                    let matched = sends.get(&seq).is_some_and(|txs| {
                        txs.iter().any(|&(tx_sender, tx_lamport)| {
                            tx_sender != stream.sender && tx_lamport < lamport
                        })
                    });
                    if !matched {
                        violations.push(CausalViolation::UnmatchedReceive {
                            sender: stream.sender,
                            index,
                            seq,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    violations
}

/// Merges per-sender recorder dumps into one happens-before-consistent
/// post-mortem timeline, keyed by `(sender seq, Lamport)` as carried on the
/// stamped frames.
///
/// Each event inherits the Lamport time of the latest frame at-or-before it
/// in its own stream (0 before the first frame), and the merged order is a
/// stable sort by `(inherited Lamport, sender, stream position)`. Within a
/// stream the inherited key is non-decreasing, so **per-stream order is
/// preserved exactly**; across streams, any frame `a` that happens-before a
/// frame `b` satisfies `lamport(a) < lamport(b)` and therefore lands
/// earlier — the merged dump linearizes the shards' recordings consistently
/// with causality. Returns `(sender, event)` pairs so provenance survives
/// the merge.
pub fn merge_stamped_streams(streams: &[StampedStream]) -> Vec<(u32, Event)> {
    let mut keyed: Vec<(u64, u32, usize, &Event)> = Vec::new();
    for stream in streams {
        let mut inherited = 0u64;
        for (pos, event) in stream.events.iter().enumerate() {
            if let Some(stamp) = stamp_of(event) {
                inherited = inherited.max(stamp.lamport);
            }
            keyed.push((inherited, stream.sender, pos, event));
        }
    }
    keyed.sort_by_key(|&(lamport, sender, pos, _)| (lamport, sender, pos));
    keyed
        .into_iter()
        .map(|(_, sender, _, event)| (sender, *event))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(seq: u64, lamport: u64) -> Event {
        Event::FrameSent {
            bytes: 10,
            seq,
            lamport,
        }
    }

    fn received(seq: u64, lamport: u64) -> Event {
        Event::FrameReceived {
            bytes: 10,
            seq,
            lamport,
        }
    }

    #[test]
    fn send_receive_obeys_lamport_rules() {
        let mut stamper = FrameStamper::new();
        let tx = stamper.send(PLATFORM_SENDER);
        assert_eq!(tx, FrameStamp { seq: 1, lamport: 1 });
        let rx = stamper.receive(3, tx);
        // Receiver clock jumps past the sender's.
        assert_eq!(rx.seq, 1);
        assert!(rx.lamport > tx.lamport);
        // The reply from user 3 ticks past its receive time.
        let reply = stamper.send(3);
        assert_eq!(reply.seq, 1); // first frame *from* user 3
        assert!(reply.lamport > rx.lamport);
        let ack = stamper.receive(PLATFORM_SENDER, reply);
        assert!(ack.lamport > reply.lamport);
    }

    #[test]
    fn drop_inherits_tx_stamp_and_retry_ticks_locally() {
        let mut stamper = FrameStamper::new();
        let tx = stamper.send(PLATFORM_SENDER);
        // Drop: the event reuses the TX stamp verbatim (caller-side rule).
        let retry = stamper.local(PLATFORM_SENDER);
        assert_eq!(retry.seq, tx.seq);
        assert!(retry.lamport > tx.lamport);
        let tx2 = stamper.send(PLATFORM_SENDER);
        assert_eq!(tx2.seq, tx.seq + 1);
        assert!(tx2.lamport > retry.lamport);
    }

    #[test]
    fn lamport_order_linearizes_consistently_with_causality() {
        // Trace order interleaves two causal chains; lamport order must put
        // each chain's TX before its RX.
        let events = vec![
            sent(1, 1),     // platform TX #1
            sent(2, 2),     // platform TX #2
            received(2, 3), // user b RX of #2
            received(1, 2), // user a RX of #1
            Event::SlotCompleted {
                slot: 1,
                updated: 1,
                phi: 0.0,
                total_profit: 0.0,
            },
            sent(1, 3), // user a reply
        ];
        let order = lamport_order(&events);
        // Non-frame events omitted.
        assert_eq!(order.len(), 5);
        let pos = |idx: usize| order.iter().position(|&i| i == idx).unwrap();
        assert!(pos(0) < pos(3), "TX #1 before its RX");
        assert!(pos(1) < pos(2), "TX #2 before its RX");
        assert!(pos(3) < pos(5), "user a's RX before its reply");
    }

    #[test]
    fn neighborhood_is_windowed_around_the_nearest_frame() {
        let mut events = Vec::new();
        for i in 0..20u64 {
            events.push(sent(i + 1, i + 1));
        }
        events.insert(
            10,
            Event::SlotCompleted {
                slot: 1,
                updated: 1,
                phi: 0.0,
                total_profit: 0.0,
            },
        );
        let hood = causal_neighborhood(&events, 10, 2);
        assert_eq!(hood.len(), 5);
        // Window is contiguous in lamport order around trace position 10.
        let lamports: Vec<u64> = hood
            .iter()
            .map(|&i| stamp_of(&events[i]).unwrap().lamport)
            .collect();
        let mut sorted = lamports.clone();
        sorted.sort_unstable();
        assert_eq!(lamports, sorted);
    }

    #[test]
    fn neighborhood_of_frameless_trace_is_empty() {
        let events = vec![Event::SlotCompleted {
            slot: 1,
            updated: 0,
            phi: 0.0,
            total_profit: 0.0,
        }];
        assert!(causal_neighborhood(&events, 0, 4).is_empty());
    }

    /// Two shard streams produced by one stamper: shard 0 sends two frames,
    /// shard 1 receives both and sends one back, shard 0 receives it.
    fn clean_shard_streams() -> Vec<StampedStream> {
        let mut stamper = FrameStamper::new();
        let tx1 = stamper.send(0);
        let rx1 = stamper.receive(1, tx1);
        let tx2 = stamper.send(0);
        let rx2 = stamper.receive(1, tx2);
        let reply = stamper.send(1);
        let rx3 = stamper.receive(0, reply);
        vec![
            StampedStream::new(
                0,
                vec![
                    sent(tx1.seq, tx1.lamport),
                    sent(tx2.seq, tx2.lamport),
                    received(rx3.seq, rx3.lamport),
                ],
            ),
            StampedStream::new(
                1,
                vec![
                    received(rx1.seq, rx1.lamport),
                    received(rx2.seq, rx2.lamport),
                    sent(reply.seq, reply.lamport),
                ],
            ),
        ]
    }

    #[test]
    fn merged_validation_accepts_a_faithful_multi_stream_recording() {
        assert!(validate_causal_order_merged(&clean_shard_streams()).is_empty());
    }

    #[test]
    fn merged_validation_flags_seq_gap_from_truncation() {
        let mut streams = clean_shard_streams();
        // Drop shard 0's first send: its stream now opens at seq 2 and
        // shard 1's first receive goes unmatched... except seq 1 is also the
        // reply's seq. The gap itself is always flagged.
        streams[0].events.remove(0);
        let violations = validate_causal_order_merged(&streams);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                CausalViolation::SeqDiscontinuity {
                    sender: 0,
                    expected: 1,
                    found: 2,
                    ..
                }
            )),
            "truncating a sender's sends must surface a seq gap: {violations:?}"
        );
    }

    #[test]
    fn merged_validation_flags_reordered_stream() {
        let mut streams = clean_shard_streams();
        streams[0].events.swap(0, 1); // two sends out of order
        let violations = validate_causal_order_merged(&streams);
        assert!(violations
            .iter()
            .any(|v| matches!(v, CausalViolation::LamportRegression { sender: 0, .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, CausalViolation::SeqDiscontinuity { sender: 0, .. })));
    }

    #[test]
    fn merged_validation_flags_receive_without_send() {
        let streams = vec![
            StampedStream::new(0, vec![sent(1, 1)]),
            StampedStream::new(1, vec![received(7, 9)]), // nobody sent seq 7
        ];
        assert_eq!(
            validate_causal_order_merged(&streams),
            vec![CausalViolation::UnmatchedReceive {
                sender: 1,
                index: 0,
                seq: 7,
            }]
        );
    }

    #[test]
    fn merged_validation_flags_receive_before_its_send() {
        // Shard 1 "receives" seq 1 at lamport 1, but the only send of seq 1
        // carries lamport 5: the receive precedes its send.
        let streams = vec![
            StampedStream::new(0, vec![sent(1, 5)]),
            StampedStream::new(1, vec![received(1, 1)]),
        ];
        let violations = validate_causal_order_merged(&streams);
        assert!(violations.iter().any(|v| matches!(
            v,
            CausalViolation::UnmatchedReceive {
                sender: 1,
                seq: 1,
                ..
            }
        )));
    }

    #[test]
    fn merged_validation_accepts_precausal_streams() {
        let streams = vec![StampedStream::new(0, vec![sent(0, 0), received(0, 0)])];
        assert!(validate_causal_order_merged(&streams).is_empty());
    }

    #[test]
    fn merge_preserves_stream_order_and_happens_before() {
        let streams = clean_shard_streams();
        let merged = merge_stamped_streams(&streams);
        assert_eq!(merged.len(), 6);
        // Per-stream order preserved.
        for stream in &streams {
            let filtered: Vec<&Event> = merged
                .iter()
                .filter(|(s, _)| *s == stream.sender)
                .map(|(_, e)| e)
                .collect();
            assert_eq!(filtered.len(), stream.events.len());
            for (a, b) in filtered.iter().zip(&stream.events) {
                assert_eq!(stamp_of(a), stamp_of(b));
            }
        }
        // Cross-stream happens-before: each TX precedes its RX.
        let pos_of = |seq: u64, is_rx: bool| {
            merged
                .iter()
                .position(|(_, e)| match *e {
                    Event::FrameSent { seq: s, .. } => !is_rx && s == seq,
                    Event::FrameReceived { seq: s, .. } => is_rx && s == seq,
                    _ => false,
                })
                .unwrap()
        };
        assert!(pos_of(2, false) < pos_of(2, true), "TX #2 before RX #2");
    }

    #[test]
    fn merge_keys_non_frame_events_to_their_preceding_frame() {
        let marker = Event::SlotCompleted {
            slot: 9,
            updated: 1,
            phi: 0.0,
            total_profit: 0.0,
        };
        let streams = vec![
            StampedStream::new(0, vec![sent(1, 1), marker, sent(2, 4)]),
            StampedStream::new(1, vec![received(1, 2), sent(1, 3)]),
        ];
        let merged = merge_stamped_streams(&streams);
        let marker_pos = merged
            .iter()
            .position(|(_, e)| matches!(e, Event::SlotCompleted { .. }))
            .unwrap();
        // The marker rides with its preceding frame (lamport 1): after
        // shard 0's first send, before shard 1's receive of it.
        assert_eq!(marker_pos, 1);
        assert_eq!(merged[marker_pos].0, 0, "provenance survives the merge");
    }

    #[test]
    fn validate_flags_stamped_frames_without_lamport_time() {
        let clean = vec![sent(1, 1), received(1, 2)];
        assert!(validate_causal_order(&clean).is_empty());
        let precausal = vec![sent(0, 0), received(0, 0)];
        assert!(validate_causal_order(&precausal).is_empty());
        let bad = vec![sent(3, 0)];
        assert_eq!(
            validate_causal_order(&bad),
            vec![CausalViolation::MissingLamport { index: 0 }]
        );
    }
}
