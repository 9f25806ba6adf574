//! Live-exporter integration: a threaded run with an attached
//! [`LiveMonitor`] must be scrapeable over a real TCP socket — well-formed
//! Prometheus exposition, working `/healthz` and `/snapshot`, and counters
//! that only grow as more work flows through the shared
//! [`StatsSubscriber`]. Plus a many-writer stress test on the subscriber
//! itself (the exporter reads it concurrently with the run's writers, so
//! its totals must be exact under contention).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use vcs_core::examples::fig1_instance;
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{ChurnEvent, Route, UserPrefs, UserSpec};
use vcs_obs::{validate_prometheus_text, Event, LiveMonitor, Obs, SpanKind, StatsSubscriber};
use vcs_runtime::platform::SchedulerKind;
use vcs_runtime::threaded::{run_threaded, run_threaded_churn};

/// Minimal HTTP/1.1 GET over a plain [`TcpStream`]; returns (status line,
/// body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().expect("status line").to_string();
    (status, body.to_string())
}

/// Extracts the value of an un-labelled sample from an exposition.
fn sample(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("exposition missing sample {name}"))
        .trim()
        .parse()
        .expect("numeric sample value")
}

#[test]
fn metrics_endpoint_serves_a_live_threaded_run() {
    let game = fig1_instance();
    let monitor = LiveMonitor::bind("127.0.0.1:0").expect("bind ephemeral exporter");
    let outcome = run_threaded(&game, SchedulerKind::Puu, 7, 10_000, &monitor.obs());
    let plain = run_threaded(&game, SchedulerKind::Puu, 7, 10_000, &Obs::disabled());
    assert_eq!(outcome, plain, "monitoring perturbed the run");
    let addr = monitor.addr();

    let (status, healthz) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "healthz status: {status}");
    assert_eq!(healthz, "ok\n");

    let (status, first) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "metrics status: {status}");
    validate_prometheus_text(&first).expect("first scrape is valid exposition");
    assert_eq!(sample(&first, "vcs_slots_total"), outcome.slots as f64);
    assert_eq!(sample(&first, "vcs_moves_total"), outcome.updates as f64);
    // Span histograms made it across the socket: every slot was timed.
    assert_eq!(
        sample(&first, "vcs_span_slot_seconds_count"),
        outcome.slots as f64
    );
    assert!(sample(&first, "vcs_span_frame_encode_seconds_count") > 0.0);

    // The monitor keeps serving while more work flows through the same
    // subscriber — run again on its handle, then re-scrape: every counter
    // is non-decreasing and the run counters doubled exactly.
    let again = run_threaded(&game, SchedulerKind::Puu, 7, 10_000, &monitor.obs());
    assert_eq!(again, plain);
    let (_, second) = http_get(addr, "/metrics");
    validate_prometheus_text(&second).expect("second scrape is valid exposition");
    for name in [
        "vcs_slots_total",
        "vcs_moves_total",
        "vcs_frames_sent_total",
        "vcs_frames_received_total",
        "vcs_span_slot_seconds_count",
    ] {
        assert!(
            sample(&second, name) >= sample(&first, name),
            "{name} decreased between scrapes"
        );
    }
    assert_eq!(
        sample(&second, "vcs_slots_total"),
        2.0 * outcome.slots as f64
    );

    let (status, snapshot) = http_get(addr, "/snapshot");
    assert!(status.contains("200"), "snapshot status: {status}");
    assert!(snapshot.contains("\"counters\""), "snapshot: {snapshot}");
    assert!(snapshot.contains("\"spans\""), "snapshot: {snapshot}");
    assert!(snapshot.contains("\"slot\""), "snapshot: {snapshot}");

    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains("404"), "unknown path status: {status}");
}

#[test]
fn churn_monitor_exposes_phi_gauge_and_epoch_counters() {
    let game = fig1_instance();
    let epochs = vec![
        vec![ChurnEvent::Join {
            spec: UserSpec::new(
                UserPrefs::neutral(),
                vec![
                    Route::new(RouteId(0), vec![TaskId(0)], 0.5, 0.5),
                    Route::new(RouteId(1), vec![TaskId(1)], 0.0, 1.0),
                ],
            ),
            initial: RouteId(1),
        }],
        vec![ChurnEvent::Leave { user: UserId(1) }],
    ];
    let monitor = LiveMonitor::bind("127.0.0.1:0").expect("bind ephemeral exporter");
    let outcome = run_threaded_churn(
        &game,
        SchedulerKind::Puu,
        3,
        10_000,
        &epochs,
        &monitor.obs(),
    );
    let (_, text) = http_get(monitor.addr(), "/metrics");
    validate_prometheus_text(&text).expect("valid exposition");
    assert_eq!(
        sample(&text, "vcs_epochs_started_total"),
        (epochs.len() + 1) as f64
    );
    assert_eq!(
        sample(&text, "vcs_epochs_converged_total"),
        (epochs.len() + 1) as f64
    );
    // The ϕ gauge carries the last certified equilibrium potential.
    let phi = monitor.stats().latest_phi().expect("phi gauge set");
    assert_eq!(sample(&text, "vcs_phi"), phi);
    assert!(sample(&text, "vcs_span_epoch_reconverge_seconds_count") > 0.0);
    assert_eq!(outcome.epoch_slots.len(), epochs.len() + 1);
}

#[test]
fn stats_subscriber_totals_are_exact_under_many_writers() {
    let stats = Arc::new(StatsSubscriber::new());
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let obs = Obs::new(stats.clone());
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    obs.emit(|| Event::SlotCompleted {
                        slot: i + 1,
                        updated: 1,
                        phi: (t * PER_THREAD + i) as f64,
                        total_profit: 1.0,
                    });
                    obs.emit(|| Event::FrameSent {
                        bytes: 8,
                        seq: 1,
                        lamport: 1,
                    });
                    obs.emit(|| Event::SpanRecorded {
                        kind: SpanKind::Slot,
                        nanos: 1_000 + i,
                    });
                }
            });
        }
    });
    assert_eq!(stats.slots(), THREADS * PER_THREAD);
    let (sent, _, dropped) = stats.frames();
    assert_eq!(sent, THREADS * PER_THREAD);
    assert_eq!(dropped, 0);
    let hist = stats.span_histogram(SpanKind::Slot);
    assert_eq!(hist.count(), THREADS * PER_THREAD);
    // Exact sum: each thread recorded Σ(1000+i)·1e-9 seconds.
    let per_thread_nanos: u64 = (0..PER_THREAD).map(|i| 1_000 + i).sum();
    let expected = THREADS as f64 * per_thread_nanos as f64 * 1e-9;
    assert!((hist.sum_seconds() - expected).abs() < 1e-9 * expected);
    // The gauge holds *some* thread's final ϕ write (last writer wins).
    let phi = stats.latest_phi().expect("phi gauge set");
    assert!(
        (0..THREADS).any(|t| phi == (t * PER_THREAD + PER_THREAD - 1) as f64),
        "phi gauge {phi} is not any thread's last write"
    );
    // And the rendered exposition stays internally consistent after the
    // concurrent writes.
    validate_prometheus_text(&stats.prometheus_text()).expect("valid exposition");
}
