//! The cross-process telemetry frame: a compact binary snapshot of one
//! process's observability state, streamed from shard workers to the
//! coordinator over the same transport that carries boundary frames.
//!
//! Telemetry is strictly **out-of-band** with respect to the deterministic
//! trajectory: frames carry cumulative counter snapshots (not deltas), so a
//! frame lost to transport loss, a duplicate, or a reordering costs nothing
//! but staleness — the fleet registry keeps the highest-`seq` frame per
//! `(shard, incarnation)` and folding is idempotent. Counters reset when a
//! crashed worker respawns; the coordinator stamps each ingested frame with
//! the worker's incarnation number so fleet rollups sum the final snapshot
//! of every dead incarnation plus the live one.
//!
//! The codec follows the workspace's hostile-input discipline (PR 2): a
//! fixed magic so a desynchronized stream fails loudly, explicit shape
//! bytes validated against this build's constants before any allocation,
//! and trailing bytes rejected. A frame is ~1.4 KiB — comfortably inside
//! the UDP transport's 8 KiB datagram payload cap, so telemetry never needs
//! chunking.

use crate::span::SpanKind;
use crate::stats::{StatsSubscriber, SPAN_BUCKETS as STATS_SPAN_BUCKETS};
use crate::watchdog::WatchdogSubscriber;
use crate::wire::{Reader, WireError, Writer};

/// Wire magic of a telemetry frame: "VCST" (VCS Telemetry).
pub const TELEMETRY_MAGIC: [u8; 4] = *b"VCST";

/// Telemetry wire-format version this build speaks.
pub const TELEMETRY_VERSION: u8 = 1;

/// Cells per span row: one per latency bucket bound plus `+Inf`.
pub const SPAN_BUCKETS: usize = STATS_SPAN_BUCKETS;

/// The `shard` id the coordinator uses for its own telemetry frames;
/// rendered as `shard="coord"` by the fleet registry. `u32::MAX` can never
/// collide with a real shard index (the deployment caps shards far below).
pub const COORD_SHARD: u32 = u32::MAX;

/// Stats-counter column order of the telemetry wire format. Must match the
/// declaration order of the `counters!` table in `stats.rs` (a unit test
/// pins the correspondence).
pub const COUNTER_NAMES: [&str; 13] = [
    "slots",
    "moves",
    "joins",
    "leaves",
    "frames_sent",
    "frames_received",
    "frames_dropped",
    "bytes_sent",
    "bytes_received",
    "retransmissions",
    "epochs_started",
    "epochs_converged",
    "runs_completed",
];

/// Named transport/ARQ health counters of one socket endpoint — the typed
/// replacement for the bare `(retransmissions, drops)` tuple the shard
/// transport used to expose. TCP endpoints report all-zero (the kernel owns
/// reliability there); UDP endpoints aggregate their per-peer ARQ state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams retransmitted, NAK-driven and RTO-driven combined.
    pub retransmissions: u64,
    /// Datagrams annihilated by the fault injector (simulated loss).
    pub drops: u64,
    /// Retransmissions triggered by an explicit receiver NAK.
    pub naks: u64,
    /// Received datagrams discarded as duplicates (already delivered or
    /// already pending).
    pub dup_drops: u64,
    /// Retransmissions triggered by a retransmission-timeout expiry.
    pub rto_fires: u64,
    /// Sent-but-unacknowledged datagrams at snapshot time (a gauge).
    pub in_flight: u64,
    /// Smoothed round-trip-time estimate in milliseconds (EWMA over
    /// first-attempt acks, Karn's rule); 0 = no sample yet.
    pub srtt_ms: u64,
}

impl NetStats {
    /// Component-wise sum of two snapshots (counters and the in-flight
    /// gauge add; the RTT estimate keeps the larger of the two).
    pub fn merged(&self, other: &NetStats) -> NetStats {
        NetStats {
            retransmissions: self.retransmissions + other.retransmissions,
            drops: self.drops + other.drops,
            naks: self.naks + other.naks,
            dup_drops: self.dup_drops + other.dup_drops,
            rto_fires: self.rto_fires + other.rto_fires,
            in_flight: self.in_flight + other.in_flight,
            srtt_ms: self.srtt_ms.max(other.srtt_ms),
        }
    }
}

/// One span kind's latency cells as carried on the wire: raw
/// (non-cumulative) bucket counts plus the nanosecond sum. The observation
/// count is the cell sum — not transmitted separately, so the histogram can
/// never arrive internally inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCells {
    /// Sum of all recorded durations, nanoseconds.
    pub sum_nanos: u64,
    /// One cell per latency bucket (bounds as in `vcs_span_*_seconds`),
    /// last cell = `+Inf`.
    pub buckets: [u64; SPAN_BUCKETS],
}

impl SpanCells {
    /// An all-zero row.
    pub fn zero() -> Self {
        SpanCells {
            sum_nanos: 0,
            buckets: [0; SPAN_BUCKETS],
        }
    }

    /// Observations recorded (the cell sum).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// A decoding failure: the bytes are not a telemetry frame this build can
/// accept. Decoding never panics and never silently accepts damage — every
/// malformed input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// Fewer bytes than the fixed layout requires.
    Truncated,
    /// The leading magic is not `VCST`.
    BadMagic([u8; 4]),
    /// A version this build does not speak.
    BadVersion(u8),
    /// A shape byte (counter / span-kind / bucket count) disagrees with
    /// this build's constants.
    BadShape(&'static str),
    /// Bytes left over after the fixed layout was consumed.
    TrailingBytes(usize),
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::Truncated => f.write_str("telemetry frame truncated"),
            TelemetryError::BadMagic(m) => write!(f, "bad telemetry magic {m:02x?}"),
            TelemetryError::BadVersion(v) => write!(f, "unknown telemetry version {v}"),
            TelemetryError::BadShape(what) => write!(f, "telemetry shape mismatch: {what}"),
            TelemetryError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
        }
    }
}

impl std::error::Error for TelemetryError {}

impl From<WireError> for TelemetryError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Trailing { left, .. } => TelemetryError::TrailingBytes(left),
            WireError::Truncated { .. } | WireError::BadLength { .. } => TelemetryError::Truncated,
        }
    }
}

/// One process's cumulative observability snapshot: stats counters,
/// response lanes, per-kind span-latency buckets, transport/ARQ counters,
/// latched watchdog alert counts, and the latest ϕ / total-profit gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// Reporting shard ([`COORD_SHARD`] = the coordinator itself).
    pub shard: u32,
    /// Process incarnation: 0 for the first spawn, bumped by the
    /// coordinator on every respawn of this shard. Workers send 0; the
    /// coordinator stamps the true value at ingest.
    pub incarnation: u32,
    /// Per-incarnation frame sequence number (stale frames lose to newer
    /// ones in the registry).
    pub seq: u64,
    /// Stats counters in [`COUNTER_NAMES`] order.
    pub counters: Vec<u64>,
    /// The four raw response lanes (`(kind is Better) << 1 | improving`).
    pub lanes: [u64; 4],
    /// One row per [`SpanKind`], in [`SpanKind::ALL`] order.
    pub spans: Vec<SpanCells>,
    /// Transport/ARQ health of this endpoint.
    pub net: NetStats,
    /// Latched watchdog counts: ϕ-decrease, slot-budget-overrun,
    /// stale-livelock.
    pub watchdog: [u64; 3],
    /// Latest ϕ as f64 bits (NaN bits = never set).
    pub phi_bits: u64,
    /// Latest total profit as f64 bits (NaN bits = never set).
    pub profit_bits: u64,
}

/// Exact encoded size of a telemetry frame in this build.
pub const TELEMETRY_FRAME_LEN: usize = 4 // magic
    + 1 // version
    + 4 // shard
    + 4 // incarnation
    + 8 // seq
    + 1 // counter count
    + COUNTER_NAMES.len() * 8
    + 4 * 8 // lanes
    + 1 // span-kind count
    + 1 // bucket count
    + SpanKind::ALL.len() * (1 + SPAN_BUCKETS) * 8
    + 7 * 8 // net
    + 3 * 8 // watchdog
    + 8 // phi bits
    + 8; // profit bits

impl TelemetryFrame {
    /// Snapshots a process's observability state into one frame.
    ///
    /// `seq` is the caller's per-process frame counter; `watchdog` may be
    /// absent (coordinator-side captures have no watchdog of their own).
    pub fn capture(
        shard: u32,
        seq: u64,
        stats: &StatsSubscriber,
        watchdog: Option<&WatchdogSubscriber>,
        net: NetStats,
    ) -> TelemetryFrame {
        let counters: Vec<u64> = stats.counter_pairs().iter().map(|&(_, v)| v).collect();
        debug_assert_eq!(counters.len(), COUNTER_NAMES.len());
        let spans = SpanKind::ALL
            .iter()
            .map(|&kind| {
                let (buckets, sum_nanos) = stats.span_histogram(kind).snapshot_cells();
                SpanCells { sum_nanos, buckets }
            })
            .collect();
        let (phi_decrease, budget_overrun, stale) = watchdog
            .map(WatchdogSubscriber::counters)
            .unwrap_or((0, 0, 0));
        TelemetryFrame {
            shard,
            incarnation: 0,
            seq,
            counters,
            lanes: stats.response_lanes(),
            spans,
            net,
            watchdog: [phi_decrease, budget_overrun, stale],
            phi_bits: stats.latest_phi().unwrap_or(f64::NAN).to_bits(),
            profit_bits: stats.latest_total_profit().unwrap_or(f64::NAN).to_bits(),
        }
    }

    /// An all-zero frame (gauges unset), for registry padding and tests.
    pub fn empty(shard: u32) -> TelemetryFrame {
        TelemetryFrame {
            shard,
            incarnation: 0,
            seq: 0,
            counters: vec![0; COUNTER_NAMES.len()],
            lanes: [0; 4],
            spans: vec![SpanCells::zero(); SpanKind::ALL.len()],
            net: NetStats::default(),
            watchdog: [0; 3],
            phi_bits: f64::NAN.to_bits(),
            profit_bits: f64::NAN.to_bits(),
        }
    }

    /// The latest ϕ carried, if the gauge was ever set.
    pub fn phi(&self) -> Option<f64> {
        let v = f64::from_bits(self.phi_bits);
        (!v.is_nan()).then_some(v)
    }

    /// Decision slots completed (the first counter column).
    pub fn slots(&self) -> u64 {
        self.counters.first().copied().unwrap_or(0)
    }

    /// Total latched watchdog alerts.
    pub fn alerts(&self) -> u64 {
        self.watchdog.iter().sum()
    }

    /// Encodes the frame ([`TELEMETRY_FRAME_LEN`] bytes, all multi-byte
    /// fields big-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(TELEMETRY_FRAME_LEN);
        out.extend_from_slice(&TELEMETRY_MAGIC);
        out.put_u8(TELEMETRY_VERSION);
        out.put_u32(self.shard);
        out.put_u32(self.incarnation);
        out.put_u64(self.seq);
        out.put_u8(COUNTER_NAMES.len() as u8);
        for i in 0..COUNTER_NAMES.len() {
            out.put_u64(self.counters.get(i).copied().unwrap_or(0));
        }
        for lane in self.lanes {
            out.put_u64(lane);
        }
        out.put_u8(SpanKind::ALL.len() as u8);
        out.put_u8(SPAN_BUCKETS as u8);
        for i in 0..SpanKind::ALL.len() {
            let row = self.spans.get(i).copied().unwrap_or_else(SpanCells::zero);
            out.put_u64(row.sum_nanos);
            for cell in row.buckets {
                out.put_u64(cell);
            }
        }
        for v in [
            self.net.retransmissions,
            self.net.drops,
            self.net.naks,
            self.net.dup_drops,
            self.net.rto_fires,
            self.net.in_flight,
            self.net.srtt_ms,
        ] {
            out.put_u64(v);
        }
        for v in self.watchdog {
            out.put_u64(v);
        }
        out.put_u64(self.phi_bits);
        out.put_u64(self.profit_bits);
        debug_assert_eq!(out.len(), TELEMETRY_FRAME_LEN);
        out
    }

    /// Decodes a frame, rejecting every malformed input with a
    /// [`TelemetryError`] — truncation, bad magic, unknown version, shape
    /// bytes that disagree with this build, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<TelemetryFrame, TelemetryError> {
        let mut r = Reader::new(bytes);
        let magic = r.array()?;
        if magic != TELEMETRY_MAGIC {
            return Err(TelemetryError::BadMagic(magic));
        }
        let version = r.u8()?;
        if version != TELEMETRY_VERSION {
            return Err(TelemetryError::BadVersion(version));
        }
        let shard = r.u32()?;
        let incarnation = r.u32()?;
        let seq = r.u64()?;
        if r.u8()? as usize != COUNTER_NAMES.len() {
            return Err(TelemetryError::BadShape("counter count"));
        }
        let counters: Vec<u64> = (0..COUNTER_NAMES.len())
            .map(|_| r.u64())
            .collect::<Result<_, _>>()?;
        let mut lanes = [0u64; 4];
        for lane in &mut lanes {
            *lane = r.u64()?;
        }
        if r.u8()? as usize != SpanKind::ALL.len() {
            return Err(TelemetryError::BadShape("span-kind count"));
        }
        if r.u8()? as usize != SPAN_BUCKETS {
            return Err(TelemetryError::BadShape("bucket count"));
        }
        let mut spans = Vec::with_capacity(SpanKind::ALL.len());
        for _ in 0..SpanKind::ALL.len() {
            let sum_nanos = r.u64()?;
            let mut buckets = [0u64; SPAN_BUCKETS];
            for cell in &mut buckets {
                *cell = r.u64()?;
            }
            spans.push(SpanCells { sum_nanos, buckets });
        }
        let net = NetStats {
            retransmissions: r.u64()?,
            drops: r.u64()?,
            naks: r.u64()?,
            dup_drops: r.u64()?,
            rto_fires: r.u64()?,
            in_flight: r.u64()?,
            srtt_ms: r.u64()?,
        };
        let mut watchdog = [0u64; 3];
        for w in &mut watchdog {
            *w = r.u64()?;
        }
        let phi_bits = r.u64()?;
        let profit_bits = r.u64()?;
        r.finish()?;
        Ok(TelemetryFrame {
            shard,
            incarnation,
            seq,
            counters,
            lanes,
            spans,
            net,
            watchdog,
            phi_bits,
            profit_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::subscriber::Subscriber;
    use crate::watchdog::{WatchdogConfig, WatchdogSubscriber};

    fn sample_frame() -> TelemetryFrame {
        let stats = StatsSubscriber::new();
        stats.event(&Event::SlotCompleted {
            slot: 1,
            updated: 2,
            phi: 4.5,
            total_profit: 9.0,
        });
        stats.event(&Event::SpanRecorded {
            kind: SpanKind::InteriorConverge,
            nanos: 250_000,
        });
        stats.event(&Event::FrameSent {
            bytes: 64,
            seq: 1,
            lamport: 1,
        });
        let dog = WatchdogSubscriber::new(WatchdogConfig::default());
        let net = NetStats {
            retransmissions: 7,
            drops: 9,
            naks: 3,
            dup_drops: 2,
            rto_fires: 4,
            in_flight: 1,
            srtt_ms: 12,
        };
        let mut frame = TelemetryFrame::capture(2, 41, &stats, Some(&dog), net);
        frame.incarnation = 1;
        frame
    }

    #[test]
    fn counter_columns_match_the_stats_table() {
        let stats = StatsSubscriber::new();
        let names: Vec<&str> = stats.counter_pairs().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, COUNTER_NAMES);
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let frame = sample_frame();
        let bytes = frame.encode();
        assert_eq!(bytes.len(), TELEMETRY_FRAME_LEN);
        let back = TelemetryFrame::decode(&bytes).expect("decode");
        assert_eq!(back, frame);
        assert_eq!(back.phi(), Some(4.5));
        assert_eq!(back.slots(), 1);
        assert_eq!(back.alerts(), 0);
        assert_eq!(back.net.srtt_ms, 12);
        assert_eq!(back.spans[SpanKind::InteriorConverge.index()].count(), 1);
    }

    #[test]
    fn frame_fits_one_udp_datagram() {
        // The UDP transport caps datagram payloads at 8 KiB; telemetry must
        // never need chunking. Checked against the *encoded* length so the
        // bound holds for what actually goes on the wire, not just the
        // layout constant.
        let encoded = sample_frame().encode().len();
        assert_eq!(encoded, TELEMETRY_FRAME_LEN);
        assert!(encoded <= 8192, "{encoded}");
    }

    #[test]
    fn damage_is_always_rejected_never_a_panic() {
        let bytes = sample_frame().encode();
        // Truncation at every split point.
        for cut in 0..bytes.len() {
            assert!(
                TelemetryFrame::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Trailing garbage.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            TelemetryFrame::decode(&longer),
            Err(TelemetryError::TrailingBytes(1))
        );
        // Magic damage.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            TelemetryFrame::decode(&bad),
            Err(TelemetryError::BadMagic(_))
        ));
        // Version bump.
        let mut bad = bytes.clone();
        bad[4] = TELEMETRY_VERSION + 1;
        assert_eq!(
            TelemetryFrame::decode(&bad),
            Err(TelemetryError::BadVersion(TELEMETRY_VERSION + 1))
        );
        // Shape bytes.
        let mut bad = bytes.clone();
        bad[21] = COUNTER_NAMES.len() as u8 + 1; // counter-count byte
        assert!(matches!(
            TelemetryFrame::decode(&bad),
            Err(TelemetryError::BadShape(_))
        ));
        assert!(TelemetryFrame::decode(&[]).is_err());
        assert!(TelemetryFrame::decode(b"VCST").is_err());
    }

    #[test]
    fn unset_gauges_survive_the_roundtrip_as_none() {
        let frame = TelemetryFrame::empty(0);
        let back = TelemetryFrame::decode(&frame.encode()).expect("decode");
        assert_eq!(back.phi(), None);
        assert_eq!(back.slots(), 0);
    }
}
