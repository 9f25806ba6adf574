//! UDP reliability layer: a seq/ack/nak ARQ over datagrams, plus the seeded
//! fault injector the conformance suite drives it with.
//!
//! The boundary-sync control protocol assumes a reliable in-order byte
//! channel per peer. TCP provides that natively; the UDP transport builds
//! it here from three pieces, all **pure state machines** (time is an
//! explicit `now_ms` argument, no sockets, no `Instant`) so the proptest
//! fault matrix can drive them through loss × reorder × duplication
//! schedules without touching the network:
//!
//! * [`ArqSender`] — assigns per-link sequence numbers, keeps unacked
//!   payloads, resends on NAK or retransmission timeout;
//! * [`ArqReceiver`] — reorders, de-duplicates, delivers strictly in order,
//!   and reports the first missing sequence number so the link can NAK it
//!   (the retransmit-request half of the gap-detection contract);
//! * [`FaultInjector`] — deterministic per-seed loss / duplication /
//!   reorder / RTT+jitter delay applied to outbound datagrams.
//!
//! The datagram codec follows the workspace framing discipline: fixed
//! magic (`VCSD`), explicit lengths validated before allocation, corruption
//! surfaced as a decode error.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use vcs_obs::wire::{Reader, WireError, Writer};

/// Wire magic of every ARQ datagram: "VCSD" (VCS Datagram).
pub const DGRAM_MAGIC: [u8; 4] = *b"VCSD";

/// Fixed datagram header length: magic, kind, seq, payload length.
pub const DGRAM_HEADER: usize = 4 + 1 + 8 + 4;

/// Hard cap on a datagram payload — control messages chunk themselves well
/// below typical UDP MTU-with-fragmentation limits, and a corrupted length
/// field cannot drive an allocation past this.
pub const MAX_DGRAM_PAYLOAD: usize = 8192;

/// Datagram discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DgramKind {
    /// Sequenced payload carrying one encoded control message.
    Data,
    /// Cumulative acknowledgement: every `seq' <= seq` was delivered.
    Ack,
    /// Retransmit request for exactly `seq` (the receiver's first gap).
    Nak,
}

/// One ARQ datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// What the datagram means.
    pub kind: DgramKind,
    /// `Data`: the sender's 1-based link sequence number. `Ack`: the
    /// cumulative acknowledged sequence. `Nak`: the missing sequence.
    pub seq: u64,
    /// Encoded control message (`Data` only; empty for `Ack`/`Nak`).
    pub payload: Vec<u8>,
}

/// Why a byte buffer failed to decode as a [`Datagram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DgramError {
    /// Shorter than the fixed header.
    Short(usize),
    /// Magic mismatch.
    BadMagic([u8; 4]),
    /// Unknown kind byte.
    BadKind(u8),
    /// Promised payload length above [`MAX_DGRAM_PAYLOAD`].
    Oversize(usize),
    /// Promised payload length disagrees with the bytes present.
    BadLength {
        /// Length the header promised.
        promised: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
}

impl fmt::Display for DgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgramError::Short(n) => write!(f, "datagram shorter than header: {n} bytes"),
            DgramError::BadMagic(m) => write!(f, "datagram magic mismatch: {m:02x?}"),
            DgramError::BadKind(k) => write!(f, "unknown datagram kind {k}"),
            DgramError::Oversize(n) => write!(f, "datagram payload {n} exceeds cap"),
            DgramError::BadLength { promised, actual } => {
                write!(f, "datagram length {promised} promised, {actual} present")
            }
        }
    }
}

impl std::error::Error for DgramError {}

impl Datagram {
    /// Serializes the datagram.
    ///
    /// # Panics
    ///
    /// Panics when the payload exceeds [`MAX_DGRAM_PAYLOAD`] — senders chunk
    /// control messages below the cap by construction.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.payload.len() <= MAX_DGRAM_PAYLOAD,
            "datagram payload over cap"
        );
        let mut out = Vec::with_capacity(DGRAM_HEADER + self.payload.len());
        out.extend_from_slice(&DGRAM_MAGIC);
        out.put_u8(match self.kind {
            DgramKind::Data => 0,
            DgramKind::Ack => 1,
            DgramKind::Nak => 2,
        });
        out.put_u64(self.seq);
        out.put_prefixed(&self.payload);
        out
    }

    /// Decodes a datagram, validating magic, kind, and length before any
    /// payload allocation.
    pub fn decode(bytes: &[u8]) -> Result<Self, DgramError> {
        if bytes.len() < DGRAM_HEADER {
            return Err(DgramError::Short(bytes.len()));
        }
        let mut r = Reader::new(bytes);
        let header = |r: &mut Reader<'_>| -> Result<_, WireError> {
            Ok((r.array()?, r.u8()?, r.u64()?, r.u32()? as usize))
        };
        let (magic, kind, seq, promised) = header(&mut r).expect("length checked");
        if magic != DGRAM_MAGIC {
            return Err(DgramError::BadMagic(magic));
        }
        let kind = match kind {
            0 => DgramKind::Data,
            1 => DgramKind::Ack,
            2 => DgramKind::Nak,
            k => return Err(DgramError::BadKind(k)),
        };
        if promised > MAX_DGRAM_PAYLOAD {
            return Err(DgramError::Oversize(promised));
        }
        let actual = r.remaining();
        if promised != actual {
            return Err(DgramError::BadLength { promised, actual });
        }
        Ok(Datagram {
            kind,
            seq,
            payload: bytes[DGRAM_HEADER..].to_vec(),
        })
    }
}

struct SendSlot {
    bytes: Vec<u8>,
    last_tx_ms: u64,
    attempts: u32,
}

/// Sender half of the ARQ link: sequences payloads, holds them until
/// cumulatively acked, resends on NAK or timeout. Alongside the
/// reliability machinery it keeps the telemetry counters the fleet
/// observability plane reports: NAK-driven vs. RTO-driven resends and a
/// smoothed RTT estimate (EWMA over first-attempt acks — Karn's rule, a
/// retransmitted datagram's ack is ambiguous and never sampled).
pub struct ArqSender {
    next_seq: u64,
    unacked: BTreeMap<u64, SendSlot>,
    retransmissions: u64,
    naks: u64,
    rto_fires: u64,
    srtt_ms: Option<u64>,
}

impl Default for ArqSender {
    fn default() -> Self {
        Self::new()
    }
}

impl ArqSender {
    /// A fresh sender; the first payload gets sequence 1.
    pub fn new() -> Self {
        ArqSender {
            next_seq: 1,
            unacked: BTreeMap::new(),
            retransmissions: 0,
            naks: 0,
            rto_fires: 0,
            srtt_ms: None,
        }
    }

    /// Sequences `payload` and returns `(seq, encoded datagram)` to put on
    /// the wire. The datagram stays buffered until acked.
    pub fn send(&mut self, payload: Vec<u8>, now_ms: u64) -> (u64, Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = Datagram {
            kind: DgramKind::Data,
            seq,
            payload,
        }
        .encode();
        self.unacked.insert(
            seq,
            SendSlot {
                bytes: bytes.clone(),
                last_tx_ms: now_ms,
                attempts: 1,
            },
        );
        (seq, bytes)
    }

    /// Processes a cumulative ACK: everything at or below `cum` is
    /// released. Slots released on their **first** attempt contribute an
    /// RTT sample (`now_ms − send time`) to the smoothed estimate;
    /// retransmitted slots never do (Karn's rule — the ack could belong to
    /// either transmission).
    pub fn on_ack(&mut self, cum: u64, now_ms: u64) {
        for (_, slot) in self.unacked.range(..=cum) {
            if slot.attempts == 1 {
                let sample = now_ms.saturating_sub(slot.last_tx_ms);
                self.srtt_ms = Some(match self.srtt_ms {
                    None => sample,
                    // Classic EWMA, α = 1/8.
                    Some(srtt) => (srtt * 7 + sample) / 8,
                });
            }
        }
        // BTreeMap: split_off keeps >= cum+1, i.e. the still-unacked tail.
        self.unacked = self.unacked.split_off(&(cum + 1));
    }

    /// Processes a NAK: returns the encoded datagram for the requested
    /// sequence to resend immediately (`None` if it was already acked —
    /// a stale or duplicated NAK).
    pub fn on_nak(&mut self, seq: u64, now_ms: u64) -> Option<(u32, Vec<u8>)> {
        let slot = self.unacked.get_mut(&seq)?;
        slot.attempts += 1;
        slot.last_tx_ms = now_ms;
        self.retransmissions += 1;
        self.naks += 1;
        Some((slot.attempts - 1, slot.bytes.clone()))
    }

    /// Returns `(seq, attempt, datagram)` for every unacked datagram whose
    /// retransmission timeout expired, bumping its timer and attempt count.
    pub fn due(&mut self, now_ms: u64, rto_ms: u64) -> Vec<(u64, u32, Vec<u8>)> {
        let mut out = Vec::new();
        for (&seq, slot) in self.unacked.iter_mut() {
            if now_ms.saturating_sub(slot.last_tx_ms) >= rto_ms {
                slot.attempts += 1;
                slot.last_tx_ms = now_ms;
                self.retransmissions += 1;
                self.rto_fires += 1;
                out.push((seq, slot.attempts - 1, slot.bytes.clone()));
            }
        }
        out
    }

    /// Unacked datagrams currently buffered.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Total resends performed (NAK-driven plus timeout-driven).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Resends triggered by an explicit receiver NAK.
    pub fn naks(&self) -> u64 {
        self.naks
    }

    /// Resends triggered by a retransmission-timeout expiry.
    pub fn rto_fires(&self) -> u64 {
        self.rto_fires
    }

    /// Smoothed RTT estimate in milliseconds (`None` until the first
    /// unambiguous sample).
    pub fn srtt_ms(&self) -> Option<u64> {
        self.srtt_ms
    }
}

/// What one incoming `Data` datagram produced at the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxOutcome {
    /// Payloads now deliverable, strictly in sequence order. May be empty
    /// (out-of-order arrival buffered) or several (a gap just healed).
    pub delivered: Vec<Vec<u8>>,
    /// The datagram had already been delivered or buffered — dropped here,
    /// but still worth re-acking (the original ACK may have been lost).
    pub duplicate: bool,
    /// First missing sequence number, when the arrival revealed a gap —
    /// the link should NAK it.
    pub gap: Option<u64>,
    /// Cumulative acknowledgement to send back: everything `<= cum_ack`
    /// has been delivered in order.
    pub cum_ack: u64,
}

/// Receiver half of the ARQ link: de-duplicates, reorders, and delivers
/// payloads strictly in sequence order. **No payload is ever delivered
/// twice** — the fault-matrix suite proves this under duplication storms.
pub struct ArqReceiver {
    next: u64,
    pending: BTreeMap<u64, Vec<u8>>,
    dup_drops: u64,
}

impl Default for ArqReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl ArqReceiver {
    /// A fresh receiver expecting sequence 1 first.
    pub fn new() -> Self {
        ArqReceiver {
            next: 1,
            pending: BTreeMap::new(),
            dup_drops: 0,
        }
    }

    /// Ingests one `Data` datagram.
    pub fn on_data(&mut self, seq: u64, payload: Vec<u8>) -> RxOutcome {
        if seq < self.next || self.pending.contains_key(&seq) {
            self.dup_drops += 1;
            return RxOutcome {
                delivered: Vec::new(),
                duplicate: true,
                gap: None,
                cum_ack: self.next - 1,
            };
        }
        self.pending.insert(seq, payload);
        let mut delivered = Vec::new();
        while let Some(payload) = self.pending.remove(&self.next) {
            delivered.push(payload);
            self.next += 1;
        }
        let gap = self.pending.keys().next().map(|_| self.next);
        RxOutcome {
            delivered,
            duplicate: false,
            gap,
            cum_ack: self.next - 1,
        }
    }

    /// Cumulative in-order high-water mark (0 = nothing delivered yet).
    pub fn cum_ack(&self) -> u64 {
        self.next - 1
    }

    /// Incoming datagrams discarded as duplicates.
    pub fn dup_drops(&self) -> u64 {
        self.dup_drops
    }
}

/// Fault model applied to outbound datagrams, all probabilities in `[0,1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a datagram is silently dropped.
    pub loss: f64,
    /// Probability a datagram is sent twice.
    pub dup: f64,
    /// Probability a datagram is held back long enough to land after
    /// datagrams sent later (reordering).
    pub reorder: f64,
    /// Injected round-trip time in milliseconds (each direction delays by
    /// half).
    pub rtt_ms: u64,
    /// Uniform extra per-datagram delay in `[0, jitter_ms]`.
    pub jitter_ms: u64,
}

impl FaultConfig {
    /// No faults, no delay.
    pub fn clean() -> Self {
        FaultConfig {
            loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            rtt_ms: 0,
            jitter_ms: 0,
        }
    }

    /// Whether this config perturbs nothing.
    pub fn is_clean(&self) -> bool {
        self.loss == 0.0
            && self.dup == 0.0
            && self.reorder == 0.0
            && self.rtt_ms == 0
            && self.jitter_ms == 0
    }

    /// A retransmission timeout safely above the injected delays: generous
    /// enough not to storm, tight enough to heal losses quickly.
    pub fn suggested_rto_ms(&self) -> u64 {
        (2 * (self.rtt_ms + self.jitter_ms) + 60).max(40)
    }
}

/// Deterministic (seeded) fault injection on outbound datagrams.
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
    dropped: u64,
}

impl FaultInjector {
    /// An injector applying `cfg`, drawing all its coin flips from `seed`.
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        FaultInjector {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            dropped: 0,
        }
    }

    /// Admits one outbound datagram: returns `(release_ms, bytes)` copies
    /// to schedule (empty = dropped). Reordering is modeled as extra delay,
    /// so a held-back datagram can never starve behind silence.
    pub fn admit(&mut self, bytes: Vec<u8>, now_ms: u64) -> Vec<(u64, Vec<u8>)> {
        if self.cfg.loss > 0.0 && self.rng.random_bool(self.cfg.loss) {
            self.dropped += 1;
            return Vec::new();
        }
        let copies = if self.cfg.dup > 0.0 && self.rng.random_bool(self.cfg.dup) {
            2
        } else {
            1
        };
        let mut out = Vec::with_capacity(copies);
        for _ in 0..copies {
            let mut delay = self.cfg.rtt_ms / 2;
            if self.cfg.jitter_ms > 0 {
                delay += self.rng.random_range(0..=self.cfg.jitter_ms);
            }
            if self.cfg.reorder > 0.0 && self.rng.random_bool(self.cfg.reorder) {
                delay += 15 + self.rng.random_range(0..=20u64);
            }
            out.push((now_ms + delay, bytes.clone()));
        }
        out
    }

    /// Datagrams dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datagram_codec_round_trips_and_rejects_corruption() {
        let d = Datagram {
            kind: DgramKind::Data,
            seq: 42,
            payload: vec![1, 2, 3],
        };
        let bytes = d.encode();
        assert_eq!(Datagram::decode(&bytes), Ok(d));
        assert!(matches!(
            Datagram::decode(&bytes[..10]),
            Err(DgramError::Short(10))
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(matches!(
            Datagram::decode(&bad),
            Err(DgramError::BadMagic(_))
        ));
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(
            Datagram::decode(&bad),
            Err(DgramError::BadKind(9))
        ));
        let mut bad = bytes.clone();
        bad[13..17].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            Datagram::decode(&bad),
            Err(DgramError::Oversize(_))
        ));
        let mut bad = bytes;
        bad.pop();
        assert!(matches!(
            Datagram::decode(&bad),
            Err(DgramError::BadLength { .. })
        ));
    }

    #[test]
    fn in_order_delivery_and_cumulative_ack() {
        let mut tx = ArqSender::new();
        let mut rx = ArqReceiver::new();
        for i in 0..5u8 {
            let (seq, bytes) = tx.send(vec![i], 0);
            let d = Datagram::decode(&bytes).unwrap();
            let out = rx.on_data(d.seq, d.payload);
            assert_eq!(out.delivered, vec![vec![i]]);
            assert_eq!(out.cum_ack, seq);
            assert_eq!(out.gap, None);
            tx.on_ack(out.cum_ack, 0);
        }
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.retransmissions(), 0);
        assert_eq!(tx.naks(), 0);
        assert_eq!(tx.rto_fires(), 0);
    }

    #[test]
    fn gap_is_napped_and_heals_on_resend() {
        let mut tx = ArqSender::new();
        let mut rx = ArqReceiver::new();
        let (_, d1) = tx.send(vec![1], 0);
        let (_, d2) = tx.send(vec![2], 0);
        // d1 lost; d2 arrives first.
        let d2 = Datagram::decode(&d2).unwrap();
        let out = rx.on_data(d2.seq, d2.payload);
        assert!(out.delivered.is_empty());
        assert_eq!(out.gap, Some(1));
        assert_eq!(out.cum_ack, 0);
        // NAK 1 → resend → both deliver in order.
        let (attempt, resent) = tx.on_nak(1, 5).unwrap();
        assert_eq!(attempt, 1);
        assert_eq!(resent, d1);
        let d1 = Datagram::decode(&resent).unwrap();
        let out = rx.on_data(d1.seq, d1.payload);
        assert_eq!(out.delivered, vec![vec![1], vec![2]]);
        assert_eq!(out.cum_ack, 2);
        tx.on_ack(2, 9);
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.retransmissions(), 1);
        assert_eq!(tx.naks(), 1, "the resend was NAK-driven");
        assert_eq!(tx.rto_fires(), 0);
    }

    #[test]
    fn duplicates_are_dropped_but_reacked() {
        let mut tx = ArqSender::new();
        let mut rx = ArqReceiver::new();
        let (_, bytes) = tx.send(vec![7], 0);
        let d = Datagram::decode(&bytes).unwrap();
        let first = rx.on_data(d.seq, d.payload.clone());
        assert_eq!(first.delivered.len(), 1);
        let dup = rx.on_data(d.seq, d.payload);
        assert!(dup.duplicate);
        assert!(dup.delivered.is_empty());
        assert_eq!(dup.cum_ack, 1, "duplicate still re-acks");
        assert_eq!(rx.dup_drops(), 1);
    }

    #[test]
    fn timeout_resend_fires_once_per_rto() {
        let mut tx = ArqSender::new();
        let (_, _) = tx.send(vec![1], 0);
        assert!(tx.due(10, 40).is_empty());
        let due = tx.due(45, 40);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, 1);
        assert_eq!(due[0].1, 1);
        assert!(tx.due(50, 40).is_empty(), "timer was rearmed");
        assert_eq!(tx.rto_fires(), 1);
        assert_eq!(tx.naks(), 0);
        tx.on_ack(1, 50);
        assert!(tx.due(1000, 40).is_empty());
        assert_eq!(tx.srtt_ms(), None, "retransmitted slot never samples RTT");
    }

    #[test]
    fn rtt_estimate_is_ewma_over_first_attempt_acks_only() {
        let mut tx = ArqSender::new();
        // First clean sample sets the estimate outright.
        tx.send(vec![1], 100);
        tx.on_ack(1, 140);
        assert_eq!(tx.srtt_ms(), Some(40));
        // Subsequent samples blend in with α = 1/8.
        tx.send(vec![2], 200);
        tx.on_ack(2, 208);
        assert_eq!(tx.srtt_ms(), Some((40 * 7 + 8) / 8));
        // A NAK-retransmitted slot is ambiguous and leaves the estimate be.
        let before = tx.srtt_ms();
        tx.send(vec![3], 300);
        tx.on_nak(3, 310).expect("resend");
        tx.on_ack(3, 320);
        assert_eq!(tx.srtt_ms(), before);
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let cfg = FaultConfig {
            loss: 0.3,
            dup: 0.2,
            reorder: 0.2,
            rtt_ms: 20,
            jitter_ms: 5,
        };
        let run = |seed| {
            let mut inj = FaultInjector::new(cfg, seed);
            (0..100)
                .flat_map(|i| inj.admit(vec![i], u64::from(i) * 3))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn clean_injector_passes_everything_straight_through() {
        let mut inj = FaultInjector::new(FaultConfig::clean(), 1);
        for i in 0..50u8 {
            let out = inj.admit(vec![i], 7);
            assert_eq!(out, vec![(7, vec![i])]);
        }
        assert_eq!(inj.dropped(), 0);
    }
}
