//! Live monitoring: attach a `/metrics` endpoint to an online churn
//! simulation and scrape it over plain HTTP — no Prometheus server needed,
//! `curl` (or here, a raw `TcpStream`) is enough.
//!
//! ```text
//! cargo run --release --example live_monitor
//! ```
//!
//! A long-running sim normally serves while it works; this example runs a
//! short churn scenario to completion and then scrapes all three endpoints
//! (`/metrics`, `/healthz`, `/snapshot`) from the still-live listener, so
//! the output is deterministic-ish and the whole flow fits in one process.

use std::io::{Read, Write};
use std::net::TcpStream;
use vcs::obs::{validate_prometheus_text, LiveMonitor};
use vcs::online::{synthetic_stream, OnlineAlgorithm, OnlineSim, StreamConfig};

/// Minimal HTTP/1.1 GET, the same bytes `curl` would send.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to monitor");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn main() {
    // 1. A small churn scenario: 60 users, 4 epochs of 10% join/leave churn.
    let config = StreamConfig {
        initial_users: 60,
        n_tasks: 60,
        epochs: 4,
        churn_rate: 0.1,
        seed: 7,
    };
    let (game, stream) = synthetic_stream(&config);
    let mut sim = OnlineSim::new(game, OnlineAlgorithm::Dgrn, 7, 1_000_000);

    // 2. Bind the live endpoint on an ephemeral port. From here on, every
    //    warm-path event the sim emits lands in the endpoint's
    //    StatsSubscriber — `curl http://<addr>/metrics` works mid-run.
    let monitor = LiveMonitor::bind("127.0.0.1:0").expect("bind monitor");
    sim.set_obs(monitor.obs());
    let addr = monitor.addr();
    println!("serving /metrics on http://{addr}");

    // 3. Run the churn stream to its warm equilibria.
    let report = sim.run(&stream);
    println!(
        "ran {} epochs, warm re-equilibration {} slots total",
        report.epochs.len(),
        report.warm_slots()
    );

    // 4. Scrape. `/healthz` is a liveness probe, `/metrics` the Prometheus
    //    text exposition, `/snapshot` a JSON dump of the same counters.
    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "healthz: {health}");

    let metrics = http_get(addr, "/metrics");
    let body = metrics.split("\r\n\r\n").nth(1).expect("metrics body");
    validate_prometheus_text(body).expect("valid exposition");
    println!(
        "\nscraped {} metric lines; a few of them:",
        body.lines().count()
    );
    for line in body.lines().filter(|l| {
        l.starts_with("vcs_slots_total")
            || l.starts_with("vcs_epochs_converged_total")
            || l.starts_with("vcs_span_slot_seconds_count")
            || l.starts_with("vcs_span_epoch_reconverge_seconds_count")
            || l.starts_with("vcs_phi ")
    }) {
        println!("  {line}");
    }

    let snapshot = http_get(addr, "/snapshot");
    assert!(snapshot.starts_with("HTTP/1.1 200"), "snapshot: {snapshot}");
    println!("\n/snapshot JSON and /healthz both answered 200 — done.");
}
