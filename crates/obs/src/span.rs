//! Wall-clock profiling spans.
//!
//! Theorem 4 bounds convergence in *slots*; the running-time claims of §5
//! — and any production latency budget — are about *wall-clock*. A span is
//! one timed section of the hot path, classified by [`SpanKind`] and
//! recorded as an [`Event::SpanRecorded`] carrying the elapsed monotonic
//! nanoseconds. Spans flow through the same closure-deferred [`Obs`] handle
//! as every other event, so the disabled path stays a single branch: the
//! monotonic clock is **never read** unless a subscriber is attached.
//!
//! Each [`SpanTimer`] is a thread-local recorder in the literal sense: it
//! lives on the recording thread's stack, reads `std::time::Instant` (the
//! OS monotonic clock) on that thread only, and hands the finished duration
//! to the subscriber — the subscriber's aggregation (atomic histograms in
//! [`StatsSubscriber`](crate::StatsSubscriber)) is the only cross-thread
//! point. Timers never allocate.
//!
//! Two recording shapes:
//!
//! * [`Obs::time`] — wrap a closure: `obs.time(SpanKind::FrameEncode, ||
//!   msg.encode())`. The closure always runs; only the timing is gated.
//! * [`Obs::span`] — an RAII guard for sections that do not nest neatly in
//!   a closure (loop bodies with `break`). [`SpanTimer::finish`] emits
//!   early; [`SpanTimer::cancel`] suppresses emission (a loop iteration
//!   that turned out not to be a decision slot).

use crate::event::Event;
use std::time::Instant;

/// What a profiling span measures. Mirrors the wall-clock decomposition of
/// one decision slot across the whole stack: engine (apply, response scan),
/// protocol (frame codec, channel wait), dynamics (slot), and the online
/// scheduler (epoch warm re-convergence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One full decision slot of a dynamics driver (poll → grant → commit).
    Slot,
    /// One `Engine::apply_move` commit: count updates, ϕ and total-profit
    /// maintenance, dirty-set marking.
    EngineApply,
    /// One best-/better-response refresh pass: every response-rule scan a
    /// driver runs back-to-back before granting (the users invalidated
    /// since the previous pass, or a single scan where drivers evaluate one
    /// user per turn). Batched at pass granularity because an individual
    /// incremental scan is ~100ns — timing each one costs more than the
    /// scan itself and would blow the instrumented-overhead budget.
    BestResponse,
    /// Encoding one protocol message to its wire frame.
    FrameEncode,
    /// Decoding one wire frame back into a protocol message.
    FrameDecode,
    /// Blocking on the channel for the next agent frame (threaded runtime).
    ChannelWait,
    /// One churn epoch's warm re-convergence (apply batch → fixed point).
    EpochReconverge,
    /// One conflict-free PUU batch commit (`Engine::apply_batch`): the
    /// granted moves applied one after another in grant order.
    BatchApply,
    /// One shard's interior-convergence phase of a coordinator round: from
    /// the `RunInterior` fan-out to that shard's `InteriorDone`.
    InteriorConverge,
    /// Serializing one boundary commit: encoding the boundary frame and the
    /// control messages that carry it to every replica shard.
    BoundarySerialize,
    /// Blocking on the socket transport for the next control message
    /// (coordinator-side recv wait, the network share of a round).
    NetWait,
    /// Serving mode: time a request spent queued between ingress stamping
    /// and a lane thread dequeuing it (scheduling delay, not work).
    IngressQueue,
    /// Serving mode: the bounded post-churn re-convergence a lane runs
    /// before replying to a Join/Leave (the "converge wait" share of
    /// request latency).
    ConvergeWait,
    /// Serving mode: encoding a reply and writing it back to the client
    /// socket.
    Reply,
}

impl SpanKind {
    /// Every kind, in display order. New kinds append at the end: the
    /// flight-recorder binary codec and per-kind tables index by
    /// [`index`](Self::index), so declaration order is a wire format.
    pub const ALL: [SpanKind; 14] = [
        SpanKind::Slot,
        SpanKind::EngineApply,
        SpanKind::BestResponse,
        SpanKind::FrameEncode,
        SpanKind::FrameDecode,
        SpanKind::ChannelWait,
        SpanKind::EpochReconverge,
        SpanKind::BatchApply,
        SpanKind::InteriorConverge,
        SpanKind::BoundarySerialize,
        SpanKind::NetWait,
        SpanKind::IngressQueue,
        SpanKind::ConvergeWait,
        SpanKind::Reply,
    ];

    /// Stable snake_case tag used by the JSONL codec and the Prometheus
    /// histogram names.
    pub fn tag(self) -> &'static str {
        match self {
            SpanKind::Slot => "slot",
            SpanKind::EngineApply => "engine_apply",
            SpanKind::BestResponse => "best_response",
            SpanKind::FrameEncode => "frame_encode",
            SpanKind::FrameDecode => "frame_decode",
            SpanKind::ChannelWait => "channel_wait",
            SpanKind::EpochReconverge => "epoch_reconverge",
            SpanKind::BatchApply => "batch_apply",
            SpanKind::InteriorConverge => "interior_converge",
            SpanKind::BoundarySerialize => "boundary_serialize",
            SpanKind::NetWait => "net_wait",
            SpanKind::IngressQueue => "ingress_queue",
            SpanKind::ConvergeWait => "converge_wait",
            SpanKind::Reply => "reply",
        }
    }

    /// Parses a [`tag`](Self::tag) back (JSONL codec).
    pub fn from_tag(tag: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Dense index into per-kind tables (`0..ALL.len()`).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// An in-flight span: started by [`Obs::span`](crate::Obs::span), emitted on
/// drop (or [`finish`](Self::finish)). Holds `None` when the handle was
/// disabled at start — then the drop is a single branch and no clock was
/// ever read.
#[must_use = "a span records nothing until it is dropped or finished"]
#[derive(Debug)]
pub struct SpanTimer<'a> {
    pub(crate) obs: &'a crate::Obs,
    pub(crate) kind: SpanKind,
    pub(crate) start: Option<Instant>,
}

impl SpanTimer<'_> {
    /// Stops the clock and emits the [`Event::SpanRecorded`] now.
    pub fn finish(self) {
        drop(self);
    }

    /// Discards the span without emitting (e.g. a loop pass that found the
    /// dynamics already converged — not a decision slot).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = elapsed_nanos(start);
            self.obs.emit(|| Event::SpanRecorded {
                kind: self.kind,
                nanos,
            });
        }
    }
}

/// Elapsed monotonic nanoseconds since `start`, saturating at `u64::MAX`
/// (584 years — unreachable, but the cast must still be total). Public so
/// hot loops that time several spans off one shared clock read (e.g. the
/// dynamics slot loop, where the refresh pass starts the slot) can emit
/// `Event::SpanRecorded` without a [`SpanTimer`] per span.
pub fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Latency summary of one [`SpanKind`] over a captured event stream —
/// what `trace_report` prints next to its ϕ reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanSummary {
    /// The summarized kind.
    pub kind: SpanKind,
    /// Spans recorded.
    pub count: usize,
    /// Median duration, nanoseconds.
    pub p50_nanos: u64,
    /// 90th-percentile duration, nanoseconds (nearest-rank).
    pub p90_nanos: u64,
    /// 99th-percentile duration, nanoseconds (nearest-rank).
    pub p99_nanos: u64,
    /// Largest duration, nanoseconds.
    pub max_nanos: u64,
    /// Sum of all durations, nanoseconds.
    pub total_nanos: u64,
}

/// Aggregates every [`Event::SpanRecorded`] in `events` into one
/// [`SpanSummary`] per kind (kinds with no spans are omitted), in
/// [`SpanKind::ALL`] order. Percentiles are nearest-rank over the exact
/// recorded durations.
pub fn summarize_spans(events: &[Event]) -> Vec<SpanSummary> {
    let mut per_kind: Vec<Vec<u64>> = vec![Vec::new(); SpanKind::ALL.len()];
    for event in events {
        if let Event::SpanRecorded { kind, nanos } = *event {
            per_kind[kind.index()].push(nanos);
        }
    }
    let mut out = Vec::new();
    for kind in SpanKind::ALL {
        let durations = &mut per_kind[kind.index()];
        if durations.is_empty() {
            continue;
        }
        durations.sort_unstable();
        let rank = |q: f64| {
            // Nearest-rank: ceil(q·n) clamped to [1, n], 1-based.
            let n = durations.len();
            let r = (q * n as f64).ceil() as usize;
            durations[r.clamp(1, n) - 1]
        };
        out.push(SpanSummary {
            kind,
            count: durations.len(),
            p50_nanos: rank(0.50),
            p90_nanos: rank(0.90),
            p99_nanos: rank(0.99),
            max_nanos: *durations.last().expect("non-empty"),
            total_nanos: durations.iter().sum(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, RingBufferSubscriber};
    use std::sync::Arc;

    #[test]
    fn tags_roundtrip_and_index_is_dense() {
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(SpanKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(SpanKind::from_tag("no_such_span"), None);
    }

    #[test]
    fn disabled_span_reads_no_clock_and_emits_nothing() {
        let obs = Obs::disabled();
        let timer = obs.span(SpanKind::Slot);
        assert!(timer.start.is_none());
        timer.finish();
        // time() still runs the work itself.
        let mut ran = false;
        obs.time(SpanKind::FrameEncode, || ran = true);
        assert!(ran);
    }

    #[test]
    fn enabled_span_emits_one_record() {
        let ring = Arc::new(RingBufferSubscriber::new(8));
        let obs = Obs::new(ring.clone());
        obs.span(SpanKind::EngineApply).finish();
        let out = obs.time(SpanKind::FrameDecode, || 7);
        assert_eq!(out, 7);
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            Event::SpanRecorded {
                kind: SpanKind::EngineApply,
                ..
            }
        ));
        assert!(matches!(
            events[1],
            Event::SpanRecorded {
                kind: SpanKind::FrameDecode,
                ..
            }
        ));
    }

    #[test]
    fn cancelled_span_is_silent() {
        let ring = Arc::new(RingBufferSubscriber::new(8));
        let obs = Obs::new(ring.clone());
        obs.span(SpanKind::Slot).cancel();
        assert_eq!(ring.total(), 0);
    }

    #[test]
    fn summary_percentiles_are_nearest_rank() {
        let events: Vec<Event> = (1..=100)
            .map(|n| Event::SpanRecorded {
                kind: SpanKind::Slot,
                nanos: n,
            })
            .chain(std::iter::once(Event::SpanRecorded {
                kind: SpanKind::FrameEncode,
                nanos: 5,
            }))
            .collect();
        let summaries = summarize_spans(&events);
        assert_eq!(summaries.len(), 2);
        let slot = &summaries[0];
        assert_eq!(slot.kind, SpanKind::Slot);
        assert_eq!(slot.count, 100);
        assert_eq!(slot.p50_nanos, 50);
        assert_eq!(slot.p90_nanos, 90);
        assert_eq!(slot.p99_nanos, 99);
        assert_eq!(slot.max_nanos, 100);
        assert_eq!(slot.total_nanos, 5050);
        let enc = &summaries[1];
        assert_eq!(enc.kind, SpanKind::FrameEncode);
        assert_eq!(enc.count, 1);
        assert_eq!(enc.p50_nanos, 5);
        assert_eq!(enc.p99_nanos, 5);
    }

    #[test]
    fn summary_skips_absent_kinds() {
        assert!(summarize_spans(&[]).is_empty());
    }
}
