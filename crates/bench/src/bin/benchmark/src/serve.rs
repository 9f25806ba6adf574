//! The serving workloads: a separately spawned `platform_serve` process
//! driven over the wire protocol by an open-loop Poisson client — one
//! connection, one sender thread (this one) and one blocking reader thread.

use std::fs;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vcs_runtime::{ServeReplyBody, ServeRequest, ServeRequestBody, ANY_SHARD};

use crate::client::{self, ReplyReader, HEADER_LEN};
use crate::gen::{self, derive_seed, Planned, Want};
use crate::stats::{median, percentile, sorted};
use crate::trace::{mean_self_ns, Spans};
use crate::{solve, sys, Outcome};

/// Shape of a serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Vehicles each lane converges before the first request.
    pub initial_users: usize,
    /// Offered Poisson rate, requests per second.
    pub rate_hz: f64,
    /// Join : Leave : BestRespond : Query weights.
    pub mix: [u32; 4],
    /// Cap on the client's pool of vehicles it joined.
    pub max_agents: usize,
}

/// Lanes and tasks per lane of every serving workload.
pub const LANES: usize = 2;
pub const TASKS: usize = 40;

/// Seed of the served games. The games are a fixed part of each serving
/// workload, like a dataset; `--seed` drives the traffic. Games drawn per
/// seed moved `cpu_us_per_req` on serve-churn by about 10% from seed to seed,
/// which would hide the changes the bounds are there to catch.
const GAME_SEED: u64 = 7;

/// Servers started per run; each start is one `setup_s` sample and the last
/// one takes the load. A start waits 0–20 ms for the server's accept poll,
/// so the median needs enough samples to stay on one side of that step.
const SETUPS: u64 = 9;

/// How long unanswered requests may take after the last send, and how long
/// a stopping server may take to exit.
const DRAIN: Duration = Duration::from_secs(5);

/// Limit on one server start (spawn to full initial population).
const START_LIMIT: Duration = Duration::from_secs(60);

const POLL: Duration = Duration::from_micros(200);

/// A spawned `platform_serve`; killed and reaped on drop if still running.
struct Server {
    child: Child,
    addr: SocketAddr,
    metrics_addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn fail(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

impl Server {
    /// Spawns a server and returns it with its set-up time: from spawn until
    /// a `Query` reports the full initial population of every lane.
    fn start(exe: &Path, dir: &Path, seed: u64, initial_users: usize) -> io::Result<(Server, f64)> {
        fs::create_dir_all(dir)?;
        for file in ["serve.addr", "metrics.addr"] {
            let _ = fs::remove_file(dir.join(file));
        }
        let begin = Instant::now();
        let child = Command::new(exe)
            .args([
                "--shards",
                &LANES.to_string(),
                "--tasks",
                &TASKS.to_string(),
            ])
            .args([
                "--initial-users",
                &initial_users.to_string(),
                "--seed",
                &seed.to_string(),
            ])
            .arg("--out-dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let unbound: SocketAddr = ([127, 0, 0, 1], 0).into();
        let mut server = Server {
            child,
            addr: unbound,
            metrics_addr: unbound,
        };
        let read_addr = |file: &str| -> Option<SocketAddr> {
            fs::read_to_string(dir.join(file)).ok()?.trim().parse().ok()
        };
        loop {
            if let (Some(a), Some(m)) = (read_addr("serve.addr"), read_addr("metrics.addr")) {
                server.addr = a;
                server.metrics_addr = m;
                break;
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(fail(format!(
                    "platform_serve exited during start: {status}"
                )));
            }
            if begin.elapsed() > START_LIMIT {
                return Err(fail("platform_serve did not publish its addresses"));
            }
            std::thread::sleep(POLL);
        }
        let conn = TcpStream::connect(server.addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(START_LIMIT))?;
        // A second thread sends the Queries on its own schedule while this
        // one reads the replies. Sending each Query only after the previous
        // reply had arrived left the rest of a reply waiting for the client's
        // delayed ACK (the server writes a reply in several small segments
        // without TCP_NODELAY), so set-up time moved in steps of about 40 ms.
        // The interval grows with the time spent, to resolve set-up time to
        // about 2% without loading a server that is still converging.
        let ready = Arc::new(AtomicBool::new(false));
        let poller = {
            let (mut conn, ready) = (conn.try_clone()?, Arc::clone(&ready));
            std::thread::spawn(move || -> io::Result<()> {
                for id in 0.. {
                    if ready.load(Ordering::Relaxed) || begin.elapsed() > START_LIMIT {
                        break;
                    }
                    let query = ServeRequest {
                        id,
                        body: ServeRequestBody::Query,
                    };
                    conn.write_all(&client::request_frame(&query))?;
                    std::thread::sleep(POLL.max(begin.elapsed() / 50));
                }
                Ok(())
            })
        };
        let mut replies = ReplyReader::new(conn);
        let expected = (LANES * initial_users) as u64;
        let started = loop {
            let body = match replies.next_frame() {
                Ok(Some(payload)) => client::decode(payload).map(|r| r.body),
                Ok(None) => Err(fail("server closed during start")),
                Err(e) => Err(e),
            };
            match body {
                Ok(ServeReplyBody::Stats { users, .. }) if users == expected => {
                    break Ok(begin.elapsed().as_secs_f64())
                }
                Ok(ServeReplyBody::Stats { .. }) => {}
                Ok(other) => break Err(fail(format!("unexpected reply to Query: {other:?}"))),
                Err(e) => break Err(e),
            }
            if begin.elapsed() > START_LIMIT {
                break Err(fail("lanes did not converge their initial population"));
            }
        };
        ready.store(true, Ordering::Relaxed);
        let polled = poller.join().map_err(|_| fail("poller thread panicked"))?;
        let started = started?;
        polled?;
        Ok((server, started))
    }

    /// Waits up to `DRAIN` for the process to exit on its own.
    fn wait_exit(&mut self) -> bool {
        let until = Instant::now() + DRAIN;
        while Instant::now() < until {
            if !matches!(self.child.try_wait(), Ok(None)) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

/// What the client sent for one id.
#[derive(Clone, Copy)]
struct Sent {
    kind: Want,
    /// Actual send start, nanoseconds after the load epoch.
    sent_ns: u64,
    bytes: usize,
}

/// One reply as the reader thread saw it.
struct Got {
    id: u64,
    /// Reply decoded, nanoseconds after the load epoch.
    done_ns: u64,
    body: ServeReplyBody,
    bytes: usize,
}

struct ReaderOut {
    got: Vec<Got>,
    spans: Spans,
    decode_ns: u128,
    error: Option<io::Error>,
}

/// The reader thread: blocks on whole frames until the server closes the
/// connection (or the sender shuts the socket down at the drain deadline).
fn read_replies(
    stream: TcpStream,
    epoch: Instant,
    due: Arc<[Duration]>,
    traced: bool,
    joined: Sender<u64>,
    received: Arc<AtomicU64>,
) -> ReaderOut {
    let mut reader = ReplyReader::new(BufReader::new(stream));
    let mut got = Vec::with_capacity(due.len() + 2);
    let mut spans = Spans::new(epoch, traced, due.len() + 2);
    let mut decode_ns = 0u128;
    let error = loop {
        let payload = match reader.next_frame() {
            Ok(Some(p)) => p,
            Ok(None) => break None,
            Err(e) => break Some(e),
        };
        let bytes = HEADER_LEN + payload.len();
        let at = Instant::now();
        let reply = match client::decode(payload) {
            Ok(r) => r,
            Err(e) => break Some(e),
        };
        let done = Instant::now();
        decode_ns += (done - at).as_nanos();
        if let ServeReplyBody::Joined { user, .. } = reply.body {
            let _ = joined.send(user);
        }
        if let Some(&d) = due
            .get(reply.id as usize)
            .filter(|_| reply.id.is_multiple_of(2))
        {
            spans.record("runtime.decode", at, done, reply.id);
            spans.record("client.request", epoch + d, done, reply.id);
        }
        got.push(Got {
            id: reply.id,
            done_ns: (done - epoch).as_nanos() as u64,
            body: reply.body,
            bytes,
        });
        // A progress count only; the replies themselves are handed over
        // when the thread is joined.
        received.fetch_add(1, Ordering::Relaxed);
    };
    ReaderOut {
        got,
        spans,
        decode_ns,
        error,
    }
}

/// Resolves a scheduled request against the pool of joined vehicles: an
/// empty pool forces a Join, a full pool turns a Join into a Leave, and a
/// Leave retires its vehicle at send time so no later request names it.
fn resolve(
    want: Want,
    pick: u64,
    pool: &mut Vec<u64>,
    max_agents: usize,
) -> (Want, ServeRequestBody) {
    let n = pool.len() as u64;
    match want {
        Want::Query => (Want::Query, ServeRequestBody::Query),
        _ if pool.is_empty() => (Want::Join, ServeRequestBody::Join { shard: ANY_SHARD }),
        Want::Join if pool.len() < max_agents => {
            (Want::Join, ServeRequestBody::Join { shard: ANY_SHARD })
        }
        Want::Join | Want::Leave => {
            let user = pool.swap_remove((pick % n) as usize);
            (Want::Leave, ServeRequestBody::Leave { user })
        }
        Want::BestRespond => {
            let user = pool[(pick % n) as usize];
            (Want::BestRespond, ServeRequestBody::BestRespond { user })
        }
    }
}

fn wait_until(received: &AtomicU64, count: u64, until: Instant) -> bool {
    while received.load(Ordering::Relaxed) < count {
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(POLL);
    }
    true
}

/// One reading of the server's CPU counters, µs.
#[derive(Clone, Copy, Default)]
struct Cpu {
    /// Run time of the live threads, falling back to clock ticks where the
    /// kernel keeps no per-thread run time.
    total: f64,
    user: f64,
    sys: f64,
}

fn server_cpu(pid: u32) -> Cpu {
    let (user, sys) = sys::cpu_user_sys_us(pid).unwrap_or_default();
    let fine = sys::cpu_ns_live_threads(pid).unwrap_or(0) as f64 / 1e3;
    Cpu {
        total: if fine > 0.0 { fine } else { user + sys },
        user,
        sys,
    }
}

/// One `GET /metrics`: the body, how long the scrape took and its size.
fn scrape(addr: SocketAddr) -> io::Result<(String, f64, usize)> {
    let begin = Instant::now();
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(DRAIN))?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: benchmark\r\nConnection: close\r\n\r\n")?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let ms = begin.elapsed().as_secs_f64() * 1e3;
    let text = String::from_utf8_lossy(&raw);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| fail("metrics response without header terminator"))?;
    Ok((body, ms, raw.len()))
}

/// The value of an unlabelled sample `name` in a Prometheus text body.
fn sample(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Quantile `q` of histogram `family`, ns, interpolated log-linearly inside
/// the bucket that holds the rank (the exporter's buckets are decades).
fn histogram_quantile_ns(body: &str, family: &str, q: f64) -> Option<f64> {
    let prefix = format!("{family}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in body.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let (le, count) = rest.split_once("\"} ")?;
        let upper = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>().ok()? * 1e9
        };
        buckets.push((upper, count.trim().parse().ok()?));
    }
    let total = buckets.last()?.1;
    if total == 0.0 {
        return None;
    }
    let rank = (q * total).ceil().clamp(1.0, total);
    // (upper bound, cumulative count) of the bucket below; the first
    // bucket starts at 1 ns and `+Inf` ends a decade above the last bound.
    let mut below = (1.0, 0.0);
    for &(upper, cumulative) in &buckets {
        if cumulative >= rank {
            let (lo, hi) = (
                below.0,
                if upper.is_finite() {
                    upper
                } else {
                    below.0 * 10.0
                },
            );
            let frac = (rank - below.1) / (cumulative - below.1);
            return Some(lo * (hi / lo).powf(frac));
        }
        below = (upper, cumulative);
    }
    None
}

/// Runs one serving workload. See the README for the shape of a run.
pub fn run(
    shape: &ServeShape,
    seed: u64,
    seconds: f64,
    traced: bool,
    exe: &Path,
    out_dir: &Path,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let warmup = Duration::from_secs_f64((seconds / 2.0).min(2.0));

    let mut setup_s = Vec::new();
    let mut server = None;
    let dir = out_dir.join(format!("serve-{}", std::process::id()));
    for _ in 0..SETUPS {
        drop(server.take());
        let (s, t) = Server::start(exe, &dir, GAME_SEED, shape.initial_users)?;
        setup_s.push(t);
        server = Some(s);
    }
    let mut server = server.expect("SETUPS > 0");
    let pid = server.child.id();

    let plan: Vec<Planned> = gen::schedule(
        shape.rate_hz,
        warmup + Duration::from_secs_f64(seconds),
        shape.mix,
        derive_seed(seed, 1),
    );
    let total = plan.len() as u64;
    let due: Arc<[Duration]> = plan.iter().map(|p| p.at).collect();
    let first_measured = plan.partition_point(|p| p.at < warmup);
    // The measured span splits into one-second windows; each end-to-end
    // metric is a median over windows, so a stall that hits one or two
    // windows (the machine is shared) does not move it.
    let windows = (seconds.floor() as usize).max(1);
    let window_of = |at: Duration| {
        (((at - warmup).as_secs_f64() / seconds * windows as f64) as usize).min(windows - 1)
    };

    let mut stream = TcpStream::connect(server.addr)?;
    stream.set_nodelay(true)?;
    let received = Arc::new(AtomicU64::new(0));
    let (joined_tx, joined_rx): (Sender<u64>, Receiver<u64>) = mpsc::channel();
    let epoch = Instant::now() + Duration::from_millis(20);
    let reader: JoinHandle<ReaderOut> = {
        let (stream, due, received) =
            (stream.try_clone()?, Arc::clone(&due), Arc::clone(&received));
        std::thread::spawn(move || read_replies(stream, epoch, due, traced, joined_tx, received))
    };

    // The sender: every request written at its scheduled instant.
    let mut spans = Spans::new(epoch, traced, 3 * plan.len());
    let mut sent: Vec<Sent> = Vec::with_capacity(plan.len() + 2);
    let mut pool: Vec<u64> = Vec::new();
    let mut encode_ns = 0u128;
    // Server CPU at the start of each window, then at the end of the load.
    let mut cpu_marks: Vec<Cpu> = Vec::with_capacity(windows + 1);
    for (id, p) in plan.iter().enumerate() {
        let due_at = epoch + p.at;
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        while id >= first_measured && cpu_marks.len() <= window_of(p.at) {
            cpu_marks.push(server_cpu(pid));
        }
        pool.extend(joined_rx.try_iter());
        let (kind, body) = resolve(p.want, p.pick, &mut pool, shape.max_agents);
        let start = Instant::now();
        let buf = client::request_frame(&ServeRequest {
            id: id as u64,
            body,
        });
        let encoded = Instant::now();
        if let Err(e) = stream.write_all(&buf) {
            out.violation(format!("request {id} could not be written: {e}"));
            break;
        }
        encode_ns += (encoded - start).as_nanos();
        if traced && id.is_multiple_of(2) {
            let written = Instant::now();
            spans.record("client.gen_lag", due_at, start, id as u64);
            spans.record("runtime.encode", start, encoded, id as u64);
            spans.record("client.write", encoded, written, id as u64);
        }
        sent.push(Sent {
            kind,
            sent_ns: (start - epoch).as_nanos() as u64,
            bytes: buf.len(),
        });
    }
    let load_end = epoch + due.last().copied().unwrap_or_default();
    let drained = wait_until(
        &received,
        sent.len() as u64,
        load_end.max(Instant::now()) + DRAIN,
    );
    cpu_marks.resize_with(windows + 1, || server_cpu(pid));

    // Closing Query: only after every reply is in, since the server answers
    // Query at ingress, ahead of requests still queued on a lane.
    let close_id = total;
    let closed = drained
        && stream
            .write_all(&client::request_frame(&ServeRequest {
                id: close_id,
                body: ServeRequestBody::Query,
            }))
            .is_ok()
        && wait_until(&received, sent.len() as u64 + 1, Instant::now() + DRAIN);
    // No early return from here until the reader thread is joined.
    let peak_rss = sys::peak_rss_mib(pid).unwrap_or(f64::NAN);
    let scraped = traced.then(|| scrape(server.metrics_addr));

    let shutdown = ServeRequest {
        id: close_id + 1,
        body: ServeRequestBody::Shutdown,
    };
    let _ = stream.write_all(&client::request_frame(&shutdown));
    let until = Instant::now() + DRAIN;
    while !reader.is_finished() && Instant::now() < until {
        std::thread::sleep(POLL);
    }
    if !reader.is_finished() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    let replies = reader.join().map_err(|_| fail("reader thread panicked"))?;
    if !server.wait_exit() {
        out.violation("platform_serve did not exit after Shutdown");
    }
    drop(server);
    let _ = fs::remove_dir_all(&dir);

    // Correctness: one reply per request, nothing rejected, and the closing
    // population equals the initial one plus joins minus leaves.
    if let Some(e) = &replies.error {
        out.violation(format!("reply stream broke: {e}"));
    }
    let mut done_ns: Vec<Option<u64>> = vec![None; sent.len()];
    let (mut joins, mut leaves, mut slots, mut reply_bytes) = (0u64, 0u64, 0u64, 0usize);
    let mut closing_users = None;
    let mut rejected = 0u64;
    for g in &replies.got {
        match done_ns.get_mut(g.id as usize) {
            Some(slot @ None) => *slot = Some(g.done_ns),
            Some(Some(_)) => out.violation(format!("duplicate reply for request {}", g.id)),
            None if g.id == close_id => {
                if let ServeReplyBody::Stats { users, .. } = g.body {
                    closing_users = Some(users);
                }
            }
            None if g.id == close_id + 1 => {}
            None => out.violation(format!("reply for unknown request {}", g.id)),
        }
        if (g.id as usize) < sent.len() {
            reply_bytes += g.bytes;
        }
        match g.body {
            ServeReplyBody::Joined { slots: s, .. } => {
                joins += 1;
                slots += s;
            }
            ServeReplyBody::Left { slots: s } => {
                leaves += 1;
                slots += s;
            }
            ServeReplyBody::Rejected { reason } => {
                rejected += 1;
                out.violation(format!("request {} rejected: {reason:?}", g.id));
            }
            _ => {}
        }
    }
    let unanswered = (total as usize - done_ns.iter().filter(|d| d.is_some()).count()) as u64;
    if unanswered > 0 {
        out.violation(format!("{unanswered} of {total} requests unanswered"));
    }
    let expected = (LANES * shape.initial_users) as u64 + joins - leaves;
    match closing_users {
        Some(users) if closed && users == expected => {}
        other => out.violation(format!(
            "closing Query reported {other:?} vehicles, expected {expected}"
        )),
    }
    out.attempted += total;
    out.failed += rejected + unanswered;

    // End-to-end metrics: medians over the measured windows.
    let lat_ms: Vec<Option<f64>> = (0..sent.len())
        .map(|id| done_ns[id].map(|d| (d as f64 - due[id].as_nanos() as f64) / 1e6))
        .collect();
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut sent_per_window = vec![0usize; windows];
    for id in first_measured..sent.len() {
        let w = window_of(due[id]);
        sent_per_window[w] += 1;
        per_window[w].extend(lat_ms[id]);
    }
    let window_quantile = |q: f64| -> Vec<f64> {
        let busy = per_window.iter().filter(|w| !w.is_empty());
        busy.map(|w| percentile(&sorted(w), q)).collect()
    };
    let cpu_per_req: Vec<f64> = (0..windows)
        .filter(|&w| sent_per_window[w] > 0)
        .map(|w| (cpu_marks[w + 1].total - cpu_marks[w].total) / sent_per_window[w] as f64)
        .collect();
    let measured = (sent.len() - first_measured).max(1) as f64;
    out.e2e("setup_s", median(&setup_s));
    out.e2e("latency_p50_ms", median(&window_quantile(0.5)));
    out.e2e("latency_p99_ms", median(&window_quantile(0.99)));
    out.e2e("cpu_us_per_req", median(&cpu_per_req));
    out.e2e("peak_rss_mb", peak_rss);
    out.note(format!(
        "requests={total} measured={measured} joins={joins} leaves={leaves} setup_s={setup_s:?}"
    ));

    if !traced {
        return Ok(out);
    }
    let (cpu0, cpu1) = (cpu_marks[0], cpu_marks[windows]);
    let latency_ms = |kind: Want| -> Vec<f64> {
        let of_kind = (first_measured..sent.len()).filter(|&id| sent[id].kind == kind);
        sorted(&of_kind.filter_map(|id| lat_ms[id]).collect::<Vec<_>>())
    };
    let lag_ms: Vec<f64> = (first_measured..sent.len())
        .map(|id| (sent[id].sent_ns as f64 - due[id].as_nanos() as f64) / 1e6)
        .collect();
    out.layer("client.gen_lag_p99_ms", percentile(&sorted(&lag_ms), 0.99));
    out.layer(
        "runtime.encode_ns",
        encode_ns as f64 / sent.len().max(1) as f64,
    );
    out.layer(
        "runtime.decode_ns",
        replies.decode_ns as f64 / replies.got.len().max(1) as f64,
    );
    let request_bytes: usize = sent.iter().map(|s| s.bytes).sum();
    out.layer(
        "runtime.bytes_per_req",
        (request_bytes + reply_bytes) as f64 / total.max(1) as f64,
    );
    for (kind, p50, p99) in [
        (Want::Query, "shard.query_p50_ms", "shard.query_p99_ms"),
        (
            Want::BestRespond,
            "shard.respond_p50_ms",
            "shard.respond_p99_ms",
        ),
        (Want::Join, "online.join_p50_ms", "online.join_p99_ms"),
        (Want::Leave, "online.leave_p50_ms", "online.leave_p99_ms"),
    ] {
        let lat = latency_ms(kind);
        out.layer(p50, percentile(&lat, 0.5));
        out.layer(p99, percentile(&lat, 0.99));
    }
    out.layer(
        "online.slots_per_mutation",
        slots as f64 / (joins + leaves).max(1) as f64,
    );
    out.layer(
        "server.user_cpu_us_per_req",
        (cpu1.user - cpu0.user) / measured,
    );
    out.layer(
        "server.sys_cpu_us_per_req",
        (cpu1.sys - cpu0.sys) / measured,
    );

    let (body, scrape_ms, scrape_bytes) = match scraped {
        Some(Ok(scrape)) => scrape,
        other => {
            out.violation(format!(
                "scraping /metrics failed: {:?}",
                other.map(|r| r.err())
            ));
            (String::new(), f64::NAN, 0)
        }
    };
    let us = |family: &str, q: f64| {
        histogram_quantile_ns(&body, family, q).map_or(f64::NAN, |ns| ns / 1e3)
    };
    out.layer(
        "shard.ingress_queue_p99_us",
        us("vcs_fleet_span_ingress_queue_seconds", 0.99),
    );
    out.layer(
        "shard.reply_write_p99_us",
        us("vcs_fleet_span_reply_seconds", 0.99),
    );
    out.layer(
        "online.converge_p50_us",
        us("vcs_fleet_span_converge_wait_seconds", 0.5),
    );
    out.layer(
        "online.converge_p99_us",
        us("vcs_fleet_span_converge_wait_seconds", 0.99),
    );
    let server_mean_ms =
        sample(&body, "vcs_serve_latency_mean_seconds").map_or(f64::NAN, |s| s * 1e3);
    let client_mean_ms = {
        let lat: Vec<f64> = lat_ms.iter().flatten().copied().collect();
        lat.iter().sum::<f64>() / lat.len().max(1) as f64
    };
    out.layer("shard.server_latency_mean_ms", server_mean_ms);
    out.layer(
        "shard.outside_server_mean_ms",
        client_mean_ms - server_mean_ms,
    );
    out.layer("obs.scrape_ms", scrape_ms);
    out.layer("obs.scrape_bytes", scrape_bytes as f64);

    let half = |parity: usize| -> Vec<f64> {
        let ids = (first_measured..sent.len()).filter(|id| id % 2 == parity);
        ids.filter_map(|id| lat_ms[id]).collect()
    };
    out.layer(
        "trace.overhead_pct",
        (median(&half(0)) / median(&half(1)) - 1.0) * 100.0,
    );

    // The lane's core and algorithm layers, probed on an instance of the
    // lane's shape generated here (the server's own game is not visible
    // from outside).
    solve::probe_shape(shape.initial_users, TASKS, derive_seed(seed, 3), &mut out);

    spans.absorb(replies.spans);
    spans.link_to_roots("client.request");
    for (name, ns) in mean_self_ns(spans.spans()) {
        out.note(format!("self_us {name} {:.3}", ns / 1e3));
    }
    out.spans = Some(spans);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_rules_keep_every_request_well_formed() {
        let mut pool = Vec::new();
        assert_eq!(resolve(Want::Leave, 5, &mut pool, 2).0, Want::Join);
        assert_eq!(resolve(Want::BestRespond, 5, &mut pool, 2).0, Want::Join);
        assert_eq!(resolve(Want::Query, 5, &mut pool, 2).0, Want::Query);
        pool.extend([10, 11]);
        assert_eq!(
            resolve(Want::Join, 1, &mut pool, 2),
            (Want::Leave, ServeRequestBody::Leave { user: 11 })
        );
        assert_eq!(pool, vec![10]);
        assert_eq!(
            resolve(Want::BestRespond, 7, &mut pool, 2),
            (
                Want::BestRespond,
                ServeRequestBody::BestRespond { user: 10 }
            )
        );
        assert_eq!(resolve(Want::Join, 0, &mut pool, 2).0, Want::Join);
    }

    #[test]
    fn histogram_quantiles_follow_the_exporter_interpolation() {
        let body = "# TYPE h histogram\n\
            h_bucket{le=\"1e-6\"} 0\n\
            h_bucket{le=\"1e-5\"} 50\n\
            h_bucket{le=\"0.0001\"} 100\n\
            h_bucket{le=\"+Inf\"} 100\n\
            h_sum 0.001\nh_count 100\n\
            g_mean_seconds 0.25\n";
        // Rank 50 closes the 1–10 µs decade; rank 99 is 49/50 into the next.
        let p50 = histogram_quantile_ns(body, "h", 0.5).expect("p50");
        assert!((p50 - 10_000.0).abs() < 1e-6);
        let p99 = histogram_quantile_ns(body, "h", 0.99).expect("p99");
        assert!((p99 - 10_000.0 * 10f64.powf(49.0 / 50.0)).abs() < 1e-3);
        assert_eq!(sample(body, "g_mean_seconds"), Some(0.25));
        assert_eq!(histogram_quantile_ns(body, "missing", 0.5), None);
    }
}
