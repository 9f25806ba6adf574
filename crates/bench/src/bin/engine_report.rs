//! `engine_report` — measures slots/sec of the distributed dynamics with the
//! incremental engine vs the naive reference driver and writes the table,
//! with the machine's core count (`nproc`) and rayon pool width (`threads`),
//! to `BENCH_engine.json` (repo root by default; pass a path to override).
//!
//! Methodology: per (algorithm, size) both drivers run the *identical*
//! trajectory (same seed; equivalence is test-enforced), so slots/sec is a
//! like-for-like measure. The slot budget is capped at the largest size to
//! keep the naive driver's runtime bounded; the speedup is then measured on
//! the shared trajectory prefix. Each measurement takes the best of three
//! runs to damp scheduler noise.
//!
//! `--prometheus <path>` additionally replays every (algorithm, size) cell
//! once under a [`vcs_obs::StatsSubscriber`] and dumps the final Prometheus
//! text exposition (counters + span latency histograms) to `path` — the
//! same bytes a live `/metrics` scrape would return after those runs.
//!
//! `--threads N` (or `VCS_THREADS=N`) pins the rayon pool width so the
//! committed numbers are reproducible across machines; `1` forces the
//! engine's strictly sequential paths.

use std::sync::Arc;
use std::time::Instant;
use vcs_algorithms::{
    run_distributed, run_distributed_naive, run_distributed_observed, DistributedAlgorithm,
    RunConfig,
};
use vcs_bench::synthetic_game;
use vcs_obs::{validate_prometheus_text, Obs, StatsSubscriber};

struct Row {
    algorithm: &'static str,
    users: usize,
    slots: usize,
    engine_slots_per_sec: f64,
    naive_slots_per_sec: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.engine_slots_per_sec / self.naive_slots_per_sec
    }
}

/// Best-of-`reps` slots/sec for one driver.
fn measure(reps: usize, mut run: impl FnMut() -> usize) -> (usize, f64) {
    let mut best = 0.0f64;
    let mut slots = 0;
    for _ in 0..reps {
        let start = Instant::now();
        slots = run();
        let rate = slots as f64 / start.elapsed().as_secs_f64().max(1e-12);
        best = best.max(rate);
    }
    (slots, best)
}

/// The report as JSON, with the machine it ran on: `nproc` cores and a
/// rayon pool of `threads` workers.
fn json_escape_free(rows: &[Row], nproc: usize, threads: usize) -> String {
    // Hand-formatted JSON: fixed schema, no string content needing escapes.
    let mut out = format!("{{\n  \"benchmark\": \"run_distributed slots/sec, incremental engine vs naive driver\",\n  \"seed\": 7,\n  \"nproc\": {nproc},\n  \"threads\": {threads},\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"users\": {}, \"slots\": {}, \"engine_slots_per_sec\": {:.1}, \"naive_slots_per_sec\": {:.1}, \"speedup\": {:.2}}}{}\n",
            row.algorithm,
            row.users,
            row.slots,
            row.engine_slots_per_sec,
            row.naive_slots_per_sec,
            row.speedup(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut out_path = "BENCH_engine.json".to_string();
    let mut prometheus_path: Option<String> = None;
    let mut threads_cli: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--prometheus" {
            prometheus_path = Some(args.next().expect("--prometheus needs a path"));
        } else if arg == "--threads" {
            threads_cli = Some(
                args.next()
                    .expect("--threads needs a count")
                    .parse()
                    .expect("--threads needs an integer"),
            );
        } else {
            out_path = arg;
        }
    }
    let workers = vcs_bench::threads::configure_threads(threads_cli);
    eprintln!("rayon pool: {workers} worker(s)");
    let stats = Arc::new(StatsSubscriber::new());
    let stats_obs = Obs::new(stats.clone());
    let mut rows = Vec::new();
    for users in [100usize, 500, 2000, 100_000] {
        // Tasks scale with users (city-scale deployments grow both), keeping
        // per-task contention — and thus dirty-set sizes — representative.
        let game = synthetic_game(users, users.max(60), 11);
        let mut config = RunConfig::with_seed(7);
        // Bound the naive driver's runtime at the larger sizes; both drivers
        // then run the same capped trajectory. At 10⁵ users a naive slot
        // recomputes every response and the full ϕ, so a dozen slots is
        // already tens of seconds of reference work.
        config.max_slots = if users >= 100_000 {
            12
        } else if users >= 2000 {
            60
        } else {
            1_000_000
        };
        for algo in [DistributedAlgorithm::Dgrn, DistributedAlgorithm::Muun] {
            if prometheus_path.is_some() {
                // One instrumented replay per cell, outside the timed reps,
                // so the exposition covers every (algorithm, size) pair.
                run_distributed_observed(&game, algo, &config, &stats_obs);
            }
            let (slots, engine_rate) = measure(3, || run_distributed(&game, algo, &config).slots);
            let (naive_slots, naive_rate) =
                measure(3, || run_distributed_naive(&game, algo, &config).slots);
            assert_eq!(slots, naive_slots, "drivers diverged — equivalence broken");
            let row = Row {
                algorithm: algo.name(),
                users,
                slots,
                engine_slots_per_sec: engine_rate,
                naive_slots_per_sec: naive_rate,
            };
            eprintln!(
                "{:>4} users {:>4}: {} slots, engine {:>10.1}/s, naive {:>10.1}/s, speedup {:.2}x",
                row.algorithm,
                row.users,
                row.slots,
                row.engine_slots_per_sec,
                row.naive_slots_per_sec,
                row.speedup()
            );
            rows.push(row);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::write(&out_path, json_escape_free(&rows, nproc, workers))
        .expect("write benchmark report");
    eprintln!("wrote {out_path}");
    if let Some(path) = prometheus_path {
        let text = stats.prometheus_text();
        validate_prometheus_text(&text).expect("exposition is valid");
        if let Some(parent) = std::path::Path::new(&path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create prometheus output directory");
            }
        }
        std::fs::write(&path, text).expect("write prometheus exposition");
        eprintln!("wrote {path}");
    }
}
