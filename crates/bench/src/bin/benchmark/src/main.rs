//! `benchmark` — the repository benchmark: end-to-end and per-layer metrics
//! of the serving stack (a spawned `platform_serve`, driven over the wire)
//! and of the equilibrium solvers (`vcs-core` / `vcs-algorithms` calls).
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run [--seed <n>] [--workload <name>] [--seconds <s>] [--repeat <k>] [--trace] [--smoke]
//! benchmark agree <A.json> <B.json>
//! ```
//!
//! The first form runs one workload in this process and prints one line per
//! metric, then a JSON result as the last line. `run` runs workloads, each in
//! a fresh child process, and writes every result to
//! `<target dir>/benchmark/run.json`; `agree` compares two such files against
//! the bounds in `BENCHMARK.json`. See README.md beside this file.

mod client;
mod gen;
mod json;
mod serve;
mod solve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use vcs_algorithms::DistributedAlgorithm;

use crate::json::{quote, Json};
use crate::serve::ServeShape;
use crate::solve::SolveShape;
use crate::trace::Spans;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Serve(ServeShape),
    Solve(SolveShape),
}

struct Workload {
    name: &'static str,
    shape: Shape,
}

/// The four workloads; README.md records why each was chosen.
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-light",
        shape: Shape::Serve(ServeShape {
            initial_users: 64,
            rate_hz: 1000.0,
            mix: [2, 1, 4, 1],
            max_agents: 400,
        }),
    },
    Workload {
        name: "serve-churn",
        shape: Shape::Serve(ServeShape {
            initial_users: 2000,
            rate_hz: 1500.0,
            mix: [4, 4, 1, 1],
            max_agents: 2000,
        }),
    },
    Workload {
        name: "solve-suu",
        shape: Shape::Solve(SolveShape {
            algorithm: DistributedAlgorithm::Dgrn,
            users: 20_000,
            tasks: 20_000,
        }),
    },
    Workload {
        name: "solve-puu",
        shape: Shape::Solve(SolveShape {
            algorithm: DistributedAlgorithm::Muun,
            users: 20_000,
            tasks: 20_000,
        }),
    },
];

/// End-to-end metrics `(name, unit)`, reported by untraced runs of every
/// workload. Bounds live in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Absolute allowance of `agree` on `setup_s`, s: two sets agree when their
/// medians differ by at most `max(bound × median, SETUP_FLOOR_S)`. A set-up
/// of a few milliseconds moves by more than any relative bound from run to
/// run.
const SETUP_FLOOR_S: f64 = 0.05;

/// Per-layer metrics `(name, unit)`, reported by traced runs. A workload that
/// does not exercise a layer reports 0 for that layer's metrics.
const PER_LAYER: [(&str, &str); 34] = [
    ("client.gen_lag_p99_ms", "ms"),
    ("runtime.encode_ns", "ns"),
    ("runtime.decode_ns", "ns"),
    ("runtime.bytes_per_req", "B"),
    ("shard.query_p50_ms", "ms"),
    ("shard.query_p99_ms", "ms"),
    ("shard.respond_p50_ms", "ms"),
    ("shard.respond_p99_ms", "ms"),
    ("shard.ingress_queue_p99_us", "us"),
    ("shard.reply_write_p99_us", "us"),
    ("shard.server_latency_mean_ms", "ms"),
    ("shard.outside_server_mean_ms", "ms"),
    ("online.join_p50_ms", "ms"),
    ("online.join_p99_ms", "ms"),
    ("online.leave_p50_ms", "ms"),
    ("online.leave_p99_ms", "ms"),
    ("online.slots_per_mutation", "count"),
    ("online.converge_p50_us", "us"),
    ("online.converge_p99_us", "us"),
    ("server.user_cpu_us_per_req", "us"),
    ("server.sys_cpu_us_per_req", "us"),
    ("obs.scrape_ms", "ms"),
    ("obs.scrape_bytes", "B"),
    ("core.engine_new_ms", "ms"),
    ("core.best_response_ns", "ns"),
    ("core.apply_move_ns", "ns"),
    ("core.dirty_per_move", "count"),
    ("core.apply_batch_ns_per_move", "ns"),
    ("core.is_nash_ms", "ms"),
    ("algorithms.slots", "count"),
    ("algorithms.updates", "count"),
    ("algorithms.updates_per_slot", "count"),
    ("algorithms.slot_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (counts, self times).
    pub notes: Vec<String>,
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Counts `attempted` operations, one of them failed if `violation`.
    pub fn check(&mut self, attempted: u64, violation: Option<String>) {
        self.attempted += attempted;
        if let Some(v) = violation {
            self.failed += 1;
            self.violations.push(v);
        }
    }

    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Where builds and results go: `$CARGO_TARGET_DIR`, else `target`.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds `platform_serve` from the checkout in the current directory and
/// returns its path.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "vcs-shard",
            "--bin",
            "platform_serve",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building platform_serve failed: {status}"));
    }
    Ok(target_dir().join("release").join("platform_serve"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    smoke: bool,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: 15.0,
        trace: false,
        repeat: 1,
        smoke: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not an integer: {v}"))?;
            }
            "--seconds" => out.seconds = number("--seconds", value("--seconds")?)?,
            "--repeat" => out.repeat = number("--repeat", value("--repeat")?)? as u64,
            // `--trace 0|1` in the one-workload form, a bare flag for `run`.
            "--trace" => {
                out.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => out.smoke = true,
            other if !other.starts_with("--") => out.files.push(other.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    Ok(out)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; expected one of {}",
            names.join(", ")
        )
    })
}

/// The rayon pool is pinned to the machine's width, so the thread count
/// every result records is the one the solvers used.
fn pin_threads() -> usize {
    let n = sys::nproc();
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global();
    rayon::current_num_threads()
}

fn metrics_json(values: &[(&str, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        );
    }
    out.push('}');
    out
}

/// `benchmark --workload W --seed N --seconds S --trace 0|1`.
fn cmd_workload(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = find_workload(name)?;
    let threads = pin_threads();
    let exe = build_server()?;
    let out_dir = target_dir().join("benchmark");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    println!(
        "# workload={name} seed={} seconds={} trace={} nproc={} threads={threads} commit={} cpu={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        sys::git_commit(),
        sys::cpu_model()
    );
    let mut outcome = match workload.shape {
        Shape::Serve(shape) => {
            serve::run(&shape, args.seed, args.seconds, args.trace, &exe, &out_dir)
                .map_err(|e| format!("{name}: {e}"))?
        }
        Shape::Solve(shape) => solve::run(&shape, args.seed, args.seconds, args.trace),
    };
    if let Some(spans) = &outcome.spans {
        let path = out_dir.join(format!("{name}.trace.jsonl"));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            spans.spans().len(),
            path.display()
        );
    }

    let (table, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if args.trace {
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    let mut reported = Vec::new();
    let mut missing = Vec::new();
    for &(metric, unit) in table {
        // A per-layer metric of a layer the workload does not exercise
        // reads 0; an end-to-end metric must be measured, and is never 0.
        let value = match values.get(metric) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => f64::NAN,
        };
        let measured = value.is_finite() && (args.trace || value > 0.0);
        if !measured {
            missing.push(format!("metric {metric} was not measured ({value})"));
        }
        reported.push((metric, unit, if value.is_finite() { value } else { 0.0 }));
    }
    outcome.violations.extend(missing);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for v in &outcome.violations {
        println!("# VIOLATION {v}");
    }
    for (metric, unit, value) in &reported {
        println!("{name} {metric} {value} {unit}");
    }
    let correct = outcome.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&reported)
    );
    Ok(correct)
}

/// `benchmark run`: every selected workload in a fresh child process, so
/// peak RSS and allocator state belong to that run alone.
fn cmd_run(args: &Args) -> Result<bool, String> {
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![find_workload(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let seconds = if args.smoke { 1.0 } else { args.seconds };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    build_server()?;
    let mut ok = true;
    let mut runs = Vec::new();
    let mut summary = Vec::new();
    for r in 0..args.repeat.max(1) {
        let seed = args.seed + r;
        for w in &selected {
            for traced in [false, true].into_iter().filter(|&t| !t || args.trace) {
                let output = Command::new(&exe)
                    .args(["--workload", w.name, "--seed", &seed.to_string()])
                    .args([
                        "--seconds",
                        &seconds.to_string(),
                        "--trace",
                        if traced { "1" } else { "0" },
                    ])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| e.to_string())?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let last = stdout.lines().last().unwrap_or("");
                eprint!("{}", stdout.strip_suffix(last).unwrap_or(&stdout));
                let result =
                    json::parse(last).map_err(|e| format!("{}: no result line: {e}", w.name))?;
                let correct = result.get("correct") == Some(&Json::Bool(true));
                ok &= correct && output.status.success();
                for (metric, m) in result
                    .get("metrics")
                    .and_then(Json::as_object)
                    .into_iter()
                    .flatten()
                {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    summary.push(format!("{} {metric} {value} {unit}", w.name));
                }
                runs.push(format!(
                    "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {traced}, {}",
                    quote(w.name),
                    last.trim_start_matches('{')
                ));
            }
        }
    }
    for line in &summary {
        println!("{line}");
    }
    let dir = target_dir().join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("run.json");
    let doc = format!(
        "{{\"nproc\": {}, \"threads\": {}, \"cpu\": {}, \"commit\": {}, \"seconds\": {seconds}, \"runs\": [\n  {}\n]}}\n",
        sys::nproc(),
        pin_threads(),
        quote(&sys::cpu_model()),
        quote(&sys::git_commit()),
        runs.join(",\n  ")
    );
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(ok)
}

/// Untraced runs of a run file, as `(workload, metric) → values`; the
/// failure share of each run is added as `error_rate`.
fn load_runs(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let runs = doc.get("runs").map(Json::as_array).unwrap_or_default();
    for run in runs
        .iter()
        .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
    {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        for (metric, m) in run
            .get("metrics")
            .and_then(Json::as_object)
            .into_iter()
            .flatten()
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.clone(), metric.clone()))
                    .or_default()
                    .push(v);
            }
        }
        let count = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let rate = count("failed") / count("attempted").max(1.0);
        out.entry((workload, "error_rate".into()))
            .or_default()
            .push(rate);
    }
    Ok(out)
}

/// `benchmark agree A.json B.json`.
fn cmd_agree(args: &Args) -> Result<bool, String> {
    let [a, b] = args.files.as_slice() else {
        return Err("agree needs two run files".into());
    };
    let defs =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let defs = json::parse(&defs).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut bounds: BTreeMap<String, f64> = BTreeMap::new();
    for m in defs
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
    {
        if let (Some(name), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) {
            bounds.insert(name.to_string(), bound);
        }
    }
    // Any increase in the failure share is a difference.
    bounds.insert("error_rate".into(), 0.0);
    let (runs_a, runs_b) = (load_runs(Path::new(a))?, load_runs(Path::new(b))?);
    let mut ok = true;
    for ((workload, metric), va) in &runs_a {
        let (Some(&bound), Some(vb)) = (
            bounds.get(metric),
            runs_b.get(&(workload.clone(), metric.clone())),
        ) else {
            continue;
        };
        let floor = if metric == "setup_s" {
            SETUP_FLOOR_S
        } else {
            0.0
        };
        let verdict = stats::compare(va, vb, bound, floor);
        ok &= verdict != stats::Verdict::Differs;
        let (qa, qb) = (stats::quartiles(va), stats::quartiles(vb));
        println!(
            "{workload} {metric} A {} [{}, {}] n={} B {} [{}, {}] n={} bound {bound} floor {floor} {}",
            qa.1,
            qa.0,
            qa.2,
            va.len(),
            qb.1,
            qb.0,
            qb.2,
            vb.len(),
            verdict.label()
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "agree")) => (c, &argv[1..]),
        _ => ("workload", &argv[..]),
    };
    let result = parse_args(rest).and_then(|args| match command {
        "agree" => cmd_agree(&args),
        _ if !args.files.is_empty() => Err(format!("unexpected arguments {:?}", args.files)),
        "run" => cmd_run(&args),
        _ => cmd_workload(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the definitions in `BENCHMARK.json` name
    /// the same metrics with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        let names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn both_argument_forms_parse() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload solve-suu --seed 3 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("solve-suu"), 3, 10.0, false)
        );
        let a = parse_args(&args("--trace 1 --seed 4")).unwrap();
        assert!(a.trace);
        let a = parse_args(&args("--trace --smoke")).unwrap();
        assert!(a.trace && a.smoke);
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--bogus")).is_err());
    }
}
