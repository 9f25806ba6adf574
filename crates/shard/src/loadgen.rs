//! Open-loop load generator for a live `platform_serve` process.
//!
//! The generator schedules requests from a seeded Poisson process (ideal
//! exponential inter-arrival times at `rate_hz`) and writes each one at
//! its *scheduled* instant, never waiting for replies — the open-loop
//! discipline. Per-request latency is measured from the **scheduled send
//! time** to reply receipt, so queueing delay a saturated server inflicts
//! on the generator itself is charged to the server, not silently
//! excluded (the coordinated-omission correction).
//!
//! The request mix is weight-driven over Join / Leave / BestRespond, with
//! two guard rails: an empty agent pool forces Join, and a pool at
//! `max_agents` forbids it (so a long run holds a roughly constant
//! population instead of growing without bound). Leaves retire the agent
//! from the pool at *send* time — per-connection FIFO ordering guarantees
//! the server sees the retirement after every earlier request that named
//! the agent, so a well-formed run has zero rejected requests.
//!
//! A `Query` brackets the run on each side; the cumulative decision-slot
//! delta between the two, divided by the span between them, is the
//! server's **sustained slots/sec** under this offered load — the
//! serving-layer counterpart of the batch benchmarks' slots-to-converge.

use std::collections::HashMap;
use std::io::{self};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vcs_obs::LatencyHistogram;
use vcs_runtime::net::{connect_with_backoff, read_frame, write_frame, FrameReader};
use vcs_runtime::{ServeReply, ServeReplyBody, ServeRequest, ServeRequestBody, ANY_SHARD};

/// Shape of one load generation run.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// The serving process's request address.
    pub addr: String,
    /// Offered request rate (Poisson arrivals per second).
    pub rate_hz: f64,
    /// How long to keep offering load.
    pub duration: Duration,
    /// Seed for arrival times and the request mix.
    pub seed: u64,
    /// Cap on the simulated agent pool (live joined vehicles).
    pub max_agents: usize,
    /// Relative weights of Join / Leave / BestRespond in the mix.
    pub mix: (u32, u32, u32),
    /// Send a `Shutdown` request after the run (CI teardown).
    pub shutdown_after: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: "127.0.0.1:0".into(),
            rate_hz: 200.0,
            duration: Duration::from_secs(10),
            seed: 1,
            max_agents: 100_000,
            mix: (2, 1, 5),
            shutdown_after: false,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests written (including the two bracketing queries).
    pub sent: u64,
    /// Replies received before the drain deadline.
    pub replies: u64,
    /// Replies that were served (not `Rejected`).
    pub replies_ok: u64,
    /// `Rejected` replies.
    pub rejected: u64,
    /// Join / Leave / BestRespond requests sent.
    pub joins: u64,
    /// Leave requests sent.
    pub leaves: u64,
    /// BestRespond requests sent.
    pub responds: u64,
    /// Wall clock of the offered-load phase, seconds.
    pub duration_secs: f64,
    /// Offered rate actually achieved, requests/sec.
    pub offered_rps: f64,
    /// Served replies per second of offered-load wall clock.
    pub goodput_rps: f64,
    /// `replies_ok / sent` — 1.0 for a clean run.
    pub served_ratio: f64,
    /// Client-observed latency quantiles, milliseconds (scheduled-send →
    /// reply, coordinated-omission corrected).
    pub p50_ms: f64,
    /// 90th percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile latency, milliseconds.
    pub p999_ms: f64,
    /// Largest observed latency, milliseconds.
    pub max_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Server-side decision slots per second between the bracketing
    /// queries (0 when a query reply was lost).
    pub sustained_slots_per_sec: f64,
    /// Server population at the closing query.
    pub users_final: u64,
}

impl LoadReport {
    /// Renders the report as a JSON object (one `BENCH_load.json` row).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sent\": {}, \"replies\": {}, \"replies_ok\": {}, \"rejected\": {}, \
             \"joins\": {}, \"leaves\": {}, \"responds\": {}, \
             \"duration_secs\": {:.3}, \"offered_rps\": {:.1}, \"goodput_rps\": {:.1}, \
             \"served_ratio\": {:.4}, \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"p999_ms\": {:.3}, \"max_ms\": {:.3}, \"mean_ms\": {:.3}, \
             \"sustained_slots_per_sec\": {:.1}, \"users_final\": {}}}",
            self.sent,
            self.replies,
            self.replies_ok,
            self.rejected,
            self.joins,
            self.leaves,
            self.responds,
            self.duration_secs,
            self.offered_rps,
            self.goodput_rps,
            self.served_ratio,
            self.p50_ms,
            self.p90_ms,
            self.p99_ms,
            self.p999_ms,
            self.max_ms,
            self.mean_ms,
            self.sustained_slots_per_sec,
            self.users_final,
        )
    }
}

/// Reply-side state shared between the sender (main thread) and the
/// reader thread.
struct Inflight {
    /// Request id → scheduled send instant (latency epoch).
    pending: HashMap<u64, Instant>,
    /// Agents confirmed joined and not yet retired.
    agents: Vec<u64>,
    /// `(slots, users, at)` per Stats reply, in arrival order.
    stats: Vec<(u64, u64, Instant)>,
}

fn nanos_to_ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Runs one open-loop load generation session against a live server.
/// Blocks for `duration` plus a bounded drain.
///
/// # Errors
///
/// Connection and frame-codec I/O errors. Lost replies are not errors —
/// they surface as `served_ratio < 1`.
pub fn run_loadgen(opts: &LoadgenOptions) -> io::Result<LoadReport> {
    let mut stream = connect_with_backoff(opts.addr.as_str(), 10, Duration::from_millis(50))?;
    let read_half = stream.try_clone()?;

    let shared = Arc::new(Mutex::new(Inflight {
        pending: HashMap::new(),
        agents: Vec::new(),
        stats: Vec::new(),
    }));
    let hist = Arc::new(LatencyHistogram::new());
    let ok = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let done_sending = Arc::new(AtomicBool::new(false));

    let reader = {
        let shared = Arc::clone(&shared);
        let hist = Arc::clone(&hist);
        let ok = Arc::clone(&ok);
        let rejected = Arc::clone(&rejected);
        let done_sending = Arc::clone(&done_sending);
        let mut r = read_half;
        let _ = r.set_read_timeout(Some(Duration::from_millis(100)));
        std::thread::spawn(move || {
            let mut drain_deadline: Option<Instant> = None;
            let mut frames = FrameReader::default();
            loop {
                match frames.read_frame(&mut r) {
                    Ok(payload) => {
                        let now = Instant::now();
                        let Ok(reply) = ServeReply::decode(payload) else {
                            return; // desynchronized server: stop reading
                        };
                        let mut s = shared.lock().expect("loadgen state");
                        if let Some(scheduled) = s.pending.remove(&reply.id) {
                            hist.record_nanos(
                                u64::try_from(now.duration_since(scheduled).as_nanos())
                                    .unwrap_or(u64::MAX),
                            );
                        }
                        match reply.body {
                            ServeReplyBody::Rejected { .. } => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            ServeReplyBody::Joined { user, .. } => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                s.agents.push(user);
                            }
                            ServeReplyBody::Stats { users, slots, .. } => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                s.stats.push((slots, users, now));
                            }
                            _ => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        let drained = {
                            let s = shared.lock().expect("loadgen state");
                            s.pending.is_empty()
                        };
                        if done_sending.load(Ordering::SeqCst) {
                            if drained {
                                return;
                            }
                            // Bounded drain: give stragglers five seconds.
                            let deadline = *drain_deadline
                                .get_or_insert_with(|| Instant::now() + Duration::from_secs(5));
                            if Instant::now() > deadline {
                                return;
                            }
                        }
                    }
                    Err(_) => return,
                }
            }
        })
    };

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut next_id = 0u64;
    let mut send = |stream: &mut TcpStream,
                    body: ServeRequestBody,
                    scheduled: Instant,
                    shared: &Mutex<Inflight>|
     -> io::Result<u64> {
        let id = next_id;
        next_id += 1;
        shared
            .lock()
            .expect("loadgen state")
            .pending
            .insert(id, scheduled);
        write_frame(stream, &ServeRequest { id, body }.encode())?;
        Ok(id)
    };

    // Opening query: the slots baseline.
    let start = Instant::now();
    send(&mut stream, ServeRequestBody::Query, start, &shared)?;

    let (w_join, w_leave, w_respond) = opts.mix;
    let total_weight = w_join + w_leave + w_respond;
    let mut joins = 0u64;
    let mut leaves = 0u64;
    let mut responds = 0u64;
    let mut scheduled = start;
    loop {
        // Ideal Poisson arrivals: exponential inter-arrival times laid out
        // on the absolute schedule, independent of reply progress.
        let u: f64 = rng.random_range(0.0..1.0);
        let dt = -(1.0 - u).ln() / opts.rate_hz.max(1e-9);
        scheduled += Duration::from_secs_f64(dt);
        if scheduled.duration_since(start) > opts.duration {
            break;
        }
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let body = {
            let mut s = shared.lock().expect("loadgen state");
            let n_agents = s.agents.len();
            let pick = rng.random_range(0..total_weight.max(1));
            if n_agents == 0 || (pick < w_join && n_agents < opts.max_agents) {
                ServeRequestBody::Join { shard: ANY_SHARD }
            } else if pick < w_join + w_leave || n_agents >= opts.max_agents {
                // Retire at send time so no later request names this agent.
                let i = rng.random_range(0..n_agents);
                let user = s.agents.swap_remove(i);
                ServeRequestBody::Leave { user }
            } else {
                let user = s.agents[rng.random_range(0..n_agents)];
                ServeRequestBody::BestRespond { user }
            }
        };
        match body {
            ServeRequestBody::Join { .. } => joins += 1,
            ServeRequestBody::Leave { .. } => leaves += 1,
            ServeRequestBody::BestRespond { .. } => responds += 1,
            _ => {}
        }
        send(&mut stream, body, scheduled, &shared)?;
    }

    // Closing query, then let the reader drain.
    send(
        &mut stream,
        ServeRequestBody::Query,
        Instant::now(),
        &shared,
    )?;
    let offered_wall = start.elapsed();
    done_sending.store(true, Ordering::SeqCst);
    let _ = reader.join();

    if opts.shutdown_after {
        let shutdown = ServeRequest {
            id: next_id,
            body: ServeRequestBody::Shutdown,
        };
        write_frame(&mut stream, &shutdown.encode())?;
        // Best-effort: read the acknowledgement so the server's reply
        // write does not race the socket teardown.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = read_frame(&mut stream);
    }

    let sent = next_id;
    let replies_ok = ok.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    let snap = hist.snapshot();
    let s = shared.lock().expect("loadgen state");
    let (slots_per_sec, users_final) = match (s.stats.first(), s.stats.last()) {
        (Some(&(slots0, _, at0)), Some(&(slots1, users1, at1))) if at1 > at0 => (
            (slots1.saturating_sub(slots0)) as f64 / (at1 - at0).as_secs_f64(),
            users1,
        ),
        (_, Some(&(_, users1, _))) => (0.0, users1),
        _ => (0.0, 0),
    };
    let duration_secs = offered_wall.as_secs_f64();
    Ok(LoadReport {
        sent,
        replies: replies_ok + rejected,
        replies_ok,
        rejected,
        joins,
        leaves,
        responds,
        duration_secs,
        offered_rps: sent as f64 / duration_secs.max(1e-9),
        goodput_rps: replies_ok as f64 / duration_secs.max(1e-9),
        served_ratio: replies_ok as f64 / (sent as f64).max(1.0),
        p50_ms: nanos_to_ms(snap.quantile_nanos(0.50)),
        p90_ms: nanos_to_ms(snap.quantile_nanos(0.90)),
        p99_ms: nanos_to_ms(snap.quantile_nanos(0.99)),
        p999_ms: nanos_to_ms(snap.quantile_nanos(0.999)),
        max_ms: nanos_to_ms(snap.max_nanos()),
        mean_ms: nanos_to_ms(snap.mean_nanos()),
        sustained_slots_per_sec: slots_per_sec,
        users_final,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{start_platform_serve, ServeOptions};
    use vcs_online::ServeCoreConfig;

    #[test]
    fn loadgen_drives_a_live_server_cleanly() {
        let handle = start_platform_serve(&ServeOptions {
            shards: 2,
            core: ServeCoreConfig {
                n_tasks: 8,
                initial_users: 12,
                seed: 33,
                ..ServeCoreConfig::default()
            },
            window: Duration::from_millis(50),
            ..ServeOptions::default()
        })
        .expect("start server");

        let report = run_loadgen(&LoadgenOptions {
            addr: handle.addr().to_string(),
            rate_hz: 400.0,
            duration: Duration::from_millis(1500),
            seed: 9,
            max_agents: 50,
            shutdown_after: true,
            ..LoadgenOptions::default()
        })
        .expect("loadgen run");
        handle.wait();

        assert!(report.sent > 100, "offered load was generated: {report:?}");
        assert_eq!(report.replies, report.sent, "every request was answered");
        assert_eq!(report.rejected, 0, "well-formed run has no rejects");
        assert!((report.served_ratio - 1.0).abs() < 1e-9);
        assert!(report.sustained_slots_per_sec > 0.0);
        assert!(report.p50_ms > 0.0 && report.p99_ms >= report.p50_ms);
        assert!(report.max_ms >= report.p999_ms);
        assert!(report.joins >= report.leaves, "pool never goes negative");
        let json = report.to_json();
        assert!(json.contains("\"served_ratio\": 1.0000"));
        assert!(json.contains("sustained_slots_per_sec"));
    }
}
