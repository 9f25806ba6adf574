//! The long-lived serving mode behind the `platform_serve` binary.
//!
//! Where [`run_deployment`](crate::run_deployment) drives a fixed game to
//! one fixpoint and exits, a serving process stays up and answers an
//! open-ended stream of [`ServeRequest`]s over the PR-8 length-guarded
//! frame transport. The process hosts `K` *shard lanes*: each lane is one
//! OS thread owning an independent [`ServeCore`] (its own paper-range
//! game, engine and RNG — the per-shard games of the deployment layer,
//! without cross-shard boundary coupling), fed through an mpsc queue.
//!
//! ## Request lifecycle
//!
//! 1. A connection reader decodes the frame, stamps the **ingress**
//!    instant, and routes by shard: `Join` by its hint (round-robin on
//!    [`ANY_SHARD`]), `Leave`/`BestRespond` by the global id's upper 32
//!    bits. Malformed frames close the connection; bad shards/users are
//!    *rejected*, never panics.
//! 2. The owning lane dequeues it — the queue delay is recorded as a
//!    [`SpanKind::IngressQueue`] span — executes it on its core (the
//!    bounded re-convergence shows up as [`SpanKind::ConvergeWait`]), and
//!    enqueues the reply to the connection's writer thread.
//! 3. The writer encodes and writes the reply under a [`SpanKind::Reply`]
//!    span, then records the request's end-to-end latency (ingress →
//!    reply written) into the process-wide [`ServeMetrics`] histogram and
//!    the [`SloMonitor`]'s current window.
//!
//! `Query` is answered at ingress from per-lane atomics (population,
//! cumulative slots, ϕ) without a lane round-trip; `Shutdown` latches the
//! stop flag, after which every new request is rejected with
//! [`RejectReason::ShuttingDown`] and the process drains and exits.
//!
//! ## Observability
//!
//! Each lane carries its own [`StatsSubscriber`]; a ticker thread
//! captures per-lane [`TelemetryFrame`]s into a [`FleetStats`] registry
//! every window (the lane id is the shard label; the connection front is
//! [`COORD_SHARD`]), rolls the [`ServeMetrics`] rate window (sustained
//! slots/sec, goodput), and rolls the [`SloMonitor`] window (consecutive
//! p99-over-budget windows latch a burn-rate alert). Everything is served
//! by [`MetricsExporter::bind_serve`] on `/metrics`, `/alerts` and
//! `/snapshot`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vcs_core::ids::UserId;
use vcs_obs::{
    elapsed_nanos, Event, FleetStats, MetricsExporter, Obs, RequestKind, ServeMetrics, SloConfig,
    SloMonitor, SpanKind, StatsSubscriber, Subscriber, TelemetryFrame, COORD_SHARD,
};
use vcs_online::{ServeCore, ServeCoreConfig};
use vcs_runtime::net::{write_frame, FrameReader};
use vcs_runtime::{
    RejectReason, ServeReply, ServeReplyBody, ServeRequest, ServeRequestBody, ANY_SHARD,
};

/// Composes a global user id from a lane and the lane-local id.
pub fn global_user_id(shard: u32, local: UserId) -> u64 {
    (u64::from(shard) << 32) | local.index() as u64
}

/// Splits a global user id into `(lane, lane-local id)`.
pub fn split_user_id(user: u64) -> (u32, UserId) {
    (
        (user >> 32) as u32,
        UserId::from_index(user as u32 as usize),
    )
}

/// Shape of one serving process.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Shard lanes to host (each an independent game + engine + thread).
    pub shards: usize,
    /// Request listener bind address (`"127.0.0.1:0"` for ephemeral).
    pub addr: String,
    /// `/metrics` exporter bind address.
    pub metrics_addr: String,
    /// Per-lane core shape; lane `s` seeds its RNG with `core.seed + s`.
    pub core: ServeCoreConfig,
    /// Telemetry/SLO window length (also the ticker period).
    pub window: Duration,
    /// SLO budget the monitor holds the windowed p99 against.
    pub slo: SloConfig,
    /// When set, `serve.addr` and `metrics.addr` are written there so
    /// out-of-process clients (CI, loadgen scripts) can discover the
    /// ephemeral ports.
    pub out_dir: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: 2,
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            core: ServeCoreConfig::default(),
            window: Duration::from_millis(250),
            slo: SloConfig::default(),
            out_dir: None,
        }
    }
}

/// What a lane is asked to do (the shard routing already happened).
enum LaneOp {
    Join,
    Leave(UserId),
    BestRespond(UserId),
}

/// One routed request in flight to a lane.
struct LaneRequest {
    /// The connection's reply channel.
    reply_to: Sender<WriterMsg>,
    id: u64,
    ingress: Instant,
    op: LaneOp,
}

/// What a connection writer sends back: `(ingress stamp, ok, reply)`.
type WriterMsg = (Instant, bool, ServeReply);

/// Per-lane read-mostly stats the ingress answers `Query` from.
#[derive(Default)]
struct LaneShared {
    users: AtomicU64,
    slots: AtomicU64,
    phi_bits: AtomicU64,
}

impl LaneShared {
    fn publish(&self, core: &ServeCore) {
        self.users.store(core.users() as u64, Ordering::Relaxed);
        self.slots.store(core.slots_total(), Ordering::Relaxed);
        self.phi_bits.store(core.phi().to_bits(), Ordering::Relaxed);
    }
}

/// Everything the connection threads share.
struct ServerState {
    lanes: Vec<Sender<LaneRequest>>,
    shared: Vec<Arc<LaneShared>>,
    stop: Arc<AtomicBool>,
    round_robin: AtomicU64,
    serve: Arc<ServeMetrics>,
    slo: Arc<SloMonitor>,
    front_obs: Obs,
}

impl ServerState {
    fn stats(&self) -> (u64, u64, f64) {
        let mut users = 0u64;
        let mut slots = 0u64;
        let mut phi = 0.0f64;
        for lane in &self.shared {
            users += lane.users.load(Ordering::Relaxed);
            slots += lane.slots.load(Ordering::Relaxed);
            phi += f64::from_bits(lane.phi_bits.load(Ordering::Relaxed));
        }
        (users, slots, phi)
    }
}

/// A running serving process. Dropping the handle does **not** stop the
/// server — call [`shutdown`](Self::shutdown) (or send a `Shutdown`
/// request) and then [`wait`](Self::wait).
pub struct ServeHandle {
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    state: Arc<ServerState>,
    fleet: Arc<FleetStats>,
    slo: Arc<SloMonitor>,
    threads: Vec<JoinHandle<()>>,
    _exporter: MetricsExporter,
}

impl ServeHandle {
    /// The request listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `/metrics` exporter's bound address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// The process-wide request metrics (live view).
    pub fn serve_metrics(&self) -> &Arc<ServeMetrics> {
        &self.state.serve
    }

    /// The SLO monitor (live view).
    pub fn slo(&self) -> &Arc<SloMonitor> {
        &self.slo
    }

    /// The per-lane fleet registry (live view).
    pub fn fleet(&self) -> &Arc<FleetStats> {
        &self.fleet
    }

    /// Latches the stop flag, as a `Shutdown` request would.
    pub fn request_shutdown(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until the server has stopped (a `Shutdown` request arrived
    /// or [`request_shutdown`](Self::request_shutdown) was called) and
    /// every thread has drained and exited.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// [`request_shutdown`](Self::request_shutdown) + [`wait`](Self::wait).
    pub fn shutdown(self) {
        self.request_shutdown();
        self.wait();
    }
}

/// Starts a serving process in this process: binds the request listener
/// and the `/metrics` exporter, spawns the shard lanes, the accept loop
/// and the telemetry ticker, and returns immediately (lanes warm their
/// initial games up asynchronously; early requests queue).
///
/// # Errors
///
/// Socket bind/IO errors; `shards == 0` is `InvalidInput`.
pub fn start_platform_serve(opts: &ServeOptions) -> io::Result<ServeHandle> {
    if opts.shards == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a serving process needs at least one shard lane",
        ));
    }
    let fleet = Arc::new(FleetStats::new().with_stale_after(opts.window * 20));
    let serve = Arc::new(ServeMetrics::new());
    let slo = Arc::new(SloMonitor::new(opts.slo));
    let front_stats = Arc::new(StatsSubscriber::new());
    let front_obs = Obs::new(Arc::clone(&front_stats) as Arc<dyn Subscriber>);

    let exporter = MetricsExporter::bind_serve(
        opts.metrics_addr.as_str(),
        Arc::clone(&fleet),
        Arc::clone(&serve),
        Arc::clone(&slo),
    )?;
    let metrics_addr = exporter.addr();
    let listener = TcpListener::bind(opts.addr.as_str())?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("serve.addr"), addr.to_string())?;
        std::fs::write(dir.join("metrics.addr"), metrics_addr.to_string())?;
    }

    // Shard lanes.
    let stop = Arc::new(AtomicBool::new(false));
    let mut lanes = Vec::with_capacity(opts.shards);
    let mut shared = Vec::with_capacity(opts.shards);
    let mut lane_stats = Vec::with_capacity(opts.shards);
    let mut threads = Vec::new();
    for s in 0..opts.shards {
        let (tx, rx) = mpsc::channel::<LaneRequest>();
        let lane_shared = Arc::new(LaneShared::default());
        let stats = Arc::new(StatsSubscriber::new());
        let lane_stop = Arc::clone(&stop);
        let config = ServeCoreConfig {
            seed: opts.core.seed + s as u64,
            ..opts.core
        };
        lanes.push(tx);
        shared.push(Arc::clone(&lane_shared));
        lane_stats.push(Arc::clone(&stats));
        threads.push(std::thread::spawn(move || {
            let obs = Obs::new(stats as Arc<dyn Subscriber>);
            let mut core = ServeCore::new(config);
            core.set_obs(obs.clone());
            lane_shared.publish(&core);
            lane_loop(s as u32, core, rx, &lane_shared, &lane_stop, &obs);
        }));
    }

    let state = Arc::new(ServerState {
        lanes,
        shared,
        stop,
        round_robin: AtomicU64::new(0),
        serve: Arc::clone(&serve),
        slo: Arc::clone(&slo),
        front_obs,
    });

    // Telemetry / window ticker.
    {
        let state = Arc::clone(&state);
        let fleet = Arc::clone(&fleet);
        let serve = Arc::clone(&serve);
        let slo = Arc::clone(&slo);
        let window = opts.window;
        threads.push(std::thread::spawn(move || {
            let mut seq = 0u64;
            loop {
                let stopping = state.stop.load(Ordering::SeqCst);
                for (s, stats) in lane_stats.iter().enumerate() {
                    fleet.ingest(TelemetryFrame::capture(
                        s as u32,
                        seq,
                        stats,
                        None,
                        Default::default(),
                    ));
                }
                fleet.ingest(TelemetryFrame::capture(
                    COORD_SHARD,
                    seq,
                    &front_stats,
                    None,
                    Default::default(),
                ));
                if seq > 0 {
                    // The first tick only seeds the registry; rates need a
                    // full window behind them.
                    let (_, slots, _) = state.stats();
                    serve.roll_window(slots, window.as_secs_f64());
                    slo.roll_window();
                }
                seq += 1;
                if stopping {
                    break;
                }
                std::thread::sleep(window);
            }
        }));
    }

    // Accept loop: non-blocking accept polled against the stop flag, so a
    // `Shutdown` request (no new connection required) unsticks it.
    {
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let state = Arc::clone(&state);
                        conns.push(std::thread::spawn(move || handle_conn(stream, &state)));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if state.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => break,
                }
                if state.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            for c in conns {
                let _ = c.join();
            }
        }));
    }

    Ok(ServeHandle {
        addr,
        metrics_addr,
        state,
        fleet,
        slo,
        threads,
        _exporter: exporter,
    })
}

/// One lane's serve loop: dequeue → record queue delay → execute on the
/// core → publish stats → enqueue the reply.
fn lane_loop(
    lane: u32,
    mut core: ServeCore,
    rx: mpsc::Receiver<LaneRequest>,
    shared: &LaneShared,
    stop: &AtomicBool,
    obs: &Obs,
) {
    loop {
        let req = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(req) => req,
            Err(RecvTimeoutError::Timeout) => {
                // Queued requests win over the stop flag: recv_timeout
                // returns them first, so the lane drains before exiting.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let queued = elapsed_nanos(req.ingress);
        obs.emit(|| Event::SpanRecorded {
            kind: SpanKind::IngressQueue,
            nanos: queued,
        });
        let (ok, body) = match req.op {
            LaneOp::Join => {
                let (local, slots) = core.join();
                (
                    true,
                    ServeReplyBody::Joined {
                        user: global_user_id(lane, local),
                        slots,
                    },
                )
            }
            LaneOp::Leave(user) => match core.leave(user) {
                Ok(slots) => (true, ServeReplyBody::Left { slots }),
                Err(_) => (
                    false,
                    ServeReplyBody::Rejected {
                        reason: RejectReason::UnknownUser,
                    },
                ),
            },
            LaneOp::BestRespond(user) => match core.best_respond(user) {
                Ok((moved, _)) => (true, ServeReplyBody::Responded { moved }),
                Err(_) => (
                    false,
                    ServeReplyBody::Rejected {
                        reason: RejectReason::UnknownUser,
                    },
                ),
            },
        };
        shared.publish(&core);
        let reply = ServeReply { id: req.id, body };
        let _ = req.reply_to.send((req.ingress, ok, reply));
    }
}

/// Serves one client connection: a frame-decoding reader on this thread
/// plus a spawned reply writer, bridged by a channel the lanes also hold
/// while their replies are in flight.
fn handle_conn(stream: TcpStream, state: &ServerState) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel::<WriterMsg>();
    let writer = {
        let serve = Arc::clone(&state.serve);
        let slo = Arc::clone(&state.slo);
        let obs = state.front_obs.clone();
        std::thread::spawn(move || {
            let mut w = write_half;
            while let Ok((ingress, ok, reply)) = reply_rx.recv() {
                let span = obs.span(SpanKind::Reply);
                let frame = reply.encode();
                let written = write_frame(&mut w, &frame).is_ok();
                span.finish();
                let latency = elapsed_nanos(ingress);
                serve.observe_reply(ok, latency);
                slo.observe_nanos(latency);
                if !written {
                    break;
                }
            }
        })
    };
    read_loop(stream, state, &reply_tx);
    drop(reply_tx);
    let _ = writer.join();
}

/// The reader half of [`handle_conn`]: decodes frames, stamps ingress,
/// routes. Returns (closing the connection) on EOF, a malformed frame, or
/// server stop.
fn read_loop(mut stream: TcpStream, state: &ServerState, reply_tx: &Sender<WriterMsg>) {
    // The short read timeout is what lets the reader notice the stop flag
    // on an idle connection; the frame reader resumes a frame a timeout
    // interrupted.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut frames = FrameReader::default();
    loop {
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        let payload = match frames.read_frame(&mut stream) {
            Ok(p) => p,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return, // EOF, desync or hostile frame: close.
        };
        let ingress = Instant::now();
        let ServeRequest { id, body } = match ServeRequest::decode(payload) {
            Ok(r) => r,
            Err(_) => return,
        };
        let reject = |reason: RejectReason| {
            let _ = reply_tx.send((
                ingress,
                false,
                ServeReply {
                    id,
                    body: ServeReplyBody::Rejected { reason },
                },
            ));
        };
        let stopping = state.stop.load(Ordering::SeqCst);
        match body {
            ServeRequestBody::Join { shard } => {
                state.serve.observe_request(RequestKind::Join);
                if stopping {
                    reject(RejectReason::ShuttingDown);
                    continue;
                }
                let lane = if shard == ANY_SHARD {
                    (state.round_robin.fetch_add(1, Ordering::Relaxed) % state.lanes.len() as u64)
                        as usize
                } else if (shard as usize) < state.lanes.len() {
                    shard as usize
                } else {
                    reject(RejectReason::UnknownShard);
                    continue;
                };
                let _ = state.lanes[lane].send(LaneRequest {
                    reply_to: reply_tx.clone(),
                    id,
                    ingress,
                    op: LaneOp::Join,
                });
            }
            ServeRequestBody::Leave { user } | ServeRequestBody::BestRespond { user } => {
                let is_leave = matches!(body, ServeRequestBody::Leave { .. });
                state.serve.observe_request(if is_leave {
                    RequestKind::Leave
                } else {
                    RequestKind::BestRespond
                });
                if stopping {
                    reject(RejectReason::ShuttingDown);
                    continue;
                }
                let (lane, local) = split_user_id(user);
                if lane as usize >= state.lanes.len() {
                    reject(RejectReason::UnknownShard);
                    continue;
                }
                let _ = state.lanes[lane as usize].send(LaneRequest {
                    reply_to: reply_tx.clone(),
                    id,
                    ingress,
                    op: if is_leave {
                        LaneOp::Leave(local)
                    } else {
                        LaneOp::BestRespond(local)
                    },
                });
            }
            ServeRequestBody::Query => {
                state.serve.observe_request(RequestKind::Query);
                let (users, slots, phi) = state.stats();
                let _ = reply_tx.send((
                    ingress,
                    true,
                    ServeReply {
                        id,
                        body: ServeReplyBody::Stats { users, slots, phi },
                    },
                ));
            }
            ServeRequestBody::Shutdown => {
                let _ = reply_tx.send((
                    ingress,
                    true,
                    ServeReply {
                        id,
                        body: ServeReplyBody::ShuttingDown,
                    },
                ));
                state.stop.store(true, Ordering::SeqCst);
                // Next loop iteration observes the flag and closes.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcs_runtime::net::{connect_with_backoff, read_frame};

    fn tiny_options() -> ServeOptions {
        ServeOptions {
            shards: 2,
            core: ServeCoreConfig {
                n_tasks: 8,
                initial_users: 10,
                seed: 21,
                ..ServeCoreConfig::default()
            },
            window: Duration::from_millis(50),
            ..ServeOptions::default()
        }
    }

    fn roundtrip(stream: &mut TcpStream, req: &ServeRequest) -> ServeReply {
        write_frame(stream, &req.encode()).expect("write request");
        let payload = read_frame(stream).expect("read reply");
        ServeReply::decode(payload).expect("decode reply")
    }

    #[test]
    fn serve_join_respond_leave_query_shutdown() {
        let handle = start_platform_serve(&tiny_options()).expect("start server");
        let mut conn =
            connect_with_backoff(handle.addr(), 10, Duration::from_millis(10)).expect("connect");

        // Join on each lane, one round-robin.
        let mut users = Vec::new();
        for (id, shard) in [(1u64, 0u32), (2, 1), (3, ANY_SHARD)] {
            let reply = roundtrip(
                &mut conn,
                &ServeRequest {
                    id,
                    body: ServeRequestBody::Join { shard },
                },
            );
            assert_eq!(reply.id, id);
            match reply.body {
                ServeReplyBody::Joined { user, .. } => users.push(user),
                other => panic!("expected Joined, got {other:?}"),
            }
        }
        assert_eq!(split_user_id(users[0]).0, 0);
        assert_eq!(split_user_id(users[1]).0, 1);

        // BestRespond on a fresh equilibrium: served, not moved.
        let reply = roundtrip(
            &mut conn,
            &ServeRequest {
                id: 4,
                body: ServeRequestBody::BestRespond { user: users[0] },
            },
        );
        assert!(matches!(reply.body, ServeReplyBody::Responded { .. }));

        // Leave, then the same leave again is rejected UnknownUser.
        let reply = roundtrip(
            &mut conn,
            &ServeRequest {
                id: 5,
                body: ServeRequestBody::Leave { user: users[0] },
            },
        );
        assert!(matches!(reply.body, ServeReplyBody::Left { .. }));
        let reply = roundtrip(
            &mut conn,
            &ServeRequest {
                id: 6,
                body: ServeRequestBody::Leave { user: users[0] },
            },
        );
        assert!(matches!(
            reply.body,
            ServeReplyBody::Rejected {
                reason: RejectReason::UnknownUser
            }
        ));

        // Unknown shard hint.
        let reply = roundtrip(
            &mut conn,
            &ServeRequest {
                id: 7,
                body: ServeRequestBody::Join { shard: 99 },
            },
        );
        assert!(matches!(
            reply.body,
            ServeReplyBody::Rejected {
                reason: RejectReason::UnknownShard
            }
        ));

        // Query sees both lanes' populations (10 initial each + 2 alive).
        let reply = roundtrip(
            &mut conn,
            &ServeRequest {
                id: 8,
                body: ServeRequestBody::Query,
            },
        );
        match reply.body {
            ServeReplyBody::Stats { users, slots, .. } => {
                assert_eq!(users, 22);
                assert!(slots > 0, "initial convergences consumed slots");
            }
            other => panic!("expected Stats, got {other:?}"),
        }

        // Metrics counted every request.
        let m = handle.serve_metrics();
        assert_eq!(m.requests(RequestKind::Join), 4);
        assert_eq!(m.requests(RequestKind::Leave), 2);
        assert_eq!(m.requests(RequestKind::BestRespond), 1);
        assert_eq!(m.requests(RequestKind::Query), 1);
        let (ok, rejected) = m.replies();
        assert_eq!(ok + rejected, 8);
        assert_eq!(rejected, 2);

        // Shutdown drains the server; wait() returns.
        let reply = roundtrip(
            &mut conn,
            &ServeRequest {
                id: 9,
                body: ServeRequestBody::Shutdown,
            },
        );
        assert!(matches!(reply.body, ServeReplyBody::ShuttingDown));
        drop(conn);
        handle.wait();
    }

    #[test]
    fn global_ids_split_and_compose() {
        for (shard, local) in [(0u32, 0usize), (3, 41), (u32::MAX - 1, 123_456)] {
            let id = global_user_id(shard, UserId::from_index(local));
            assert_eq!(split_user_id(id), (shard, UserId::from_index(local)));
        }
    }

    #[test]
    fn serve_metrics_endpoint_is_live_and_valid() {
        let handle = start_platform_serve(&tiny_options()).expect("start server");
        let mut conn =
            connect_with_backoff(handle.addr(), 10, Duration::from_millis(10)).expect("connect");
        for id in 0..5u64 {
            roundtrip(
                &mut conn,
                &ServeRequest {
                    id,
                    body: ServeRequestBody::Join { shard: ANY_SHARD },
                },
            );
        }
        // Give the ticker a window to ingest lane frames and roll rates.
        std::thread::sleep(Duration::from_millis(150));
        let (status, body) =
            vcs_runtime::net::http_get(handle.metrics_addr(), "/metrics", Duration::from_secs(2))
                .expect("scrape");
        assert!(status.contains("200"), "status {status}");
        vcs_obs::validate_prometheus_text(&body).expect("valid exposition");
        assert!(body.contains("vcs_serve_requests_total{kind=\"join\"} 5"));
        assert!(body.contains("vcs_fleet_slots_total"));
        assert!(body.contains("vcs_slo_windows_total"));
        roundtrip(
            &mut conn,
            &ServeRequest {
                id: 99,
                body: ServeRequestBody::Shutdown,
            },
        );
        drop(conn);
        handle.wait();
    }
}
