//! Zero-cost-when-disabled structured observability for the VCS workspace.
//!
//! The distributed dynamics of the paper (Alg. 1/2, PUU) are only
//! trustworthy at production scale if every decision slot is *visible*: who
//! updated, how the potential `ϕ` moved, how many frames and retransmissions
//! the channel cost, how fast each churn epoch re-converged. This crate is
//! the event layer the rest of the workspace instruments itself with:
//!
//! * [`Event`] — the slot-level event taxonomy (engine commits, response
//!   evaluations, slot/epoch boundaries, frame-level TX/RX/ARQ);
//! * [`Subscriber`] — the sink trait; [`NoopSubscriber`] (overhead
//!   measurement), [`RingBufferSubscriber`] (lock-cheap bounded capture),
//!   [`StatsSubscriber`] (atomic counters + log-bucketed histograms with a
//!   Prometheus-style text dump) and [`JsonlSubscriber`] (streaming JSONL
//!   trace file);
//! * [`Obs`] — the handle instrumented code holds. Disabled it is a single
//!   `Option` branch: [`Obs::emit`] takes a *closure* so event construction
//!   is never executed unless a subscriber is attached (measured < 2%
//!   overhead on the engine benchmark, see `BENCH_obs.json`);
//! * [`trace`] helpers — parse a JSONL trace back into events and
//!   reconstruct the ϕ trajectory from per-move deltas
//!   ([`reconstruct_phi`]), cross-checked against the absolute values the
//!   engine recorded (the `trace_report` bin in `vcs-bench` drives this);
//! * [`span`] — monotonic wall-clock profiling spans ([`SpanKind`],
//!   [`Obs::span`], [`Obs::time`]) flowing through the same
//!   closure-deferred handle, so the disabled path stays one branch;
//! * [`MetricsExporter`] / [`LiveMonitor`] — a dependency-free
//!   `TcpListener` HTTP endpoint serving `/metrics` (Prometheus text
//!   exposition), `/healthz`, `/snapshot` and `/alerts` off a live
//!   [`StatsSubscriber`] (plus an optional [`WatchdogSubscriber`]), so a
//!   running simulation can be scraped mid-epoch;
//! * [`causal`] — per-sender sequence numbers and Lamport clocks stamped
//!   onto every frame event by the runtimes ([`FrameStamper`]), giving a
//!   recorded trace a happens-before order ([`lamport_order`],
//!   [`causal_neighborhood`]);
//! * [`FlightRecorder`] — the always-on, lock-free bounded ring of recent
//!   events with a panic hook that dumps a post-mortem JSONL tail when a
//!   runtime thread dies;
//! * [`WatchdogSubscriber`] — online invariant checks (Eq. 11 ϕ
//!   monotonicity, Theorem 4 slot budgets, stale-livelock) raising
//!   structured [`Alert`]s through `/alerts` and `vcs_watchdog_*` counters;
//! * [`telemetry`] / [`FleetStats`] — the cross-process plane: compact
//!   [`TelemetryFrame`] snapshots a multi-process deployment streams from
//!   workers to its coordinator, folded into one fleet registry and served
//!   with `shard="<id>"` labels by
//!   [`MetricsExporter::bind_fleet`];
//! * [`LatencyHistogram`] — HDR-style log-linear request-latency histogram
//!   (wait-free recording, ≤ 3.1% quantile error, exact max) backing the
//!   serving layer's p50/p90/p99/p999 extraction;
//! * [`ServeMetrics`] / [`SloMonitor`] — serving-mode request counters,
//!   per-window sustained slots/sec + goodput gauges, and the windowed
//!   p99-budget burn-rate monitor latching [`AlertKind::SloBurnRate`]
//!   alerts, served together by [`MetricsExporter::bind_serve`];
//! * [`wire`] — the byte codec every binary wire format is built on:
//!   big-endian [`wire::Reader`] / [`wire::Writer`], the hostile-length
//!   guard and the trailing-bytes check, behind one [`wire::WireError`].
//!
//! This crate is a dependency *leaf* (only the vendored `parking_lot`), so
//! `vcs-core` itself can depend on it; events therefore carry raw `u32`/
//! `u64` ids rather than `vcs-core` newtypes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert_sink;
pub mod causal;
mod event;
mod exporter;
mod fleet;
mod jsonl;
mod latency;
mod recorder;
mod slo;
pub mod span;
mod stats;
mod subscriber;
pub mod telemetry;
pub mod trace;
mod watchdog;
pub mod wire;

pub use alert_sink::{AlertRoute, AlertSink, FileAlertSink, HttpAlertSink, StderrAlertSink};
pub use causal::{
    causal_neighborhood, lamport_order, merge_stamped_streams, stamp_of, validate_causal_order,
    validate_causal_order_merged, CausalViolation, FrameStamp, FrameStamper, StampedStream,
    PLATFORM_SENDER,
};
pub use event::{Event, ResponseKind};
pub use exporter::{LiveMonitor, MetricsExporter};
pub use fleet::{shard_label, FleetStats, ShardTotals};
pub use jsonl::JsonlSubscriber;
pub use latency::{LatencyHistogram, LatencySnapshot};
pub use recorder::FlightRecorder;
pub use slo::{RequestKind, ServeMetrics, SloConfig, SloMonitor};
pub use span::{elapsed_nanos, summarize_spans, SpanKind, SpanSummary, SpanTimer};
pub use stats::{
    validate_prometheus_text, Histogram, SpanHistogram, SpanQuantiles, StatsSubscriber,
};
pub use subscriber::{FanoutSubscriber, NoopSubscriber, Obs, RingBufferSubscriber, Subscriber};
pub use telemetry::{
    NetStats, SpanCells, TelemetryError, TelemetryFrame, COORD_SHARD, COUNTER_NAMES,
    TELEMETRY_FRAME_LEN, TELEMETRY_MAGIC, TELEMETRY_VERSION,
};
pub use trace::{reconstruct_phi, PhiPoint, PhiReconstruction, TraceError};
pub use watchdog::{Alert, AlertKind, WatchdogConfig, WatchdogSubscriber};
