//! Deployment driver: one entry point ([`run_deployment`]) that runs a
//! sharded game to its global fixpoint on any transport.
//!
//! * [`TransportKind::Channel`] — the in-process lanes of
//!   [`crate::ShardedSim`].
//! * [`TransportKind::Tcp`] / [`TransportKind::Udp`] — one OS **process**
//!   per shard (spawned from the current executable with `--worker`), a
//!   coordinator-centric star protocol over [`crate::net`], per-round
//!   worker checkpoints, and crash recovery by history replay.
//!
//! Both modes drive the same coordinator round (`crate::sim::Rounds`) over
//! a different link, and every shard runs the same lane code
//! (`crate::sim::ShardLane`) in-process or inside a worker. So all three
//! transports produce *byte-identical* per-shard JSONL dumps, merged
//! post-mortems, and `outcome.txt` files for the same `(game, config)` —
//! the transport-oracle suite enforces it, and the full-game replay of
//! [`verify_outcome`] is the oracle for all of them. The determinism
//! argument: the RNG streams are shared, the boundary tie-break RNG is
//! consumed coordinator-side (one draw per boundary user with a non-empty
//! best-route set), and both socket transports deliver control messages
//! reliably in order, so the logical trajectory is independent of loss,
//! reorder, duplication, and latency.
//!
//! ## Crash recovery
//!
//! The coordinator records each round: the interior move lists per shard
//! and every completed boundary step `(user, home, route, frame)` — a step
//! is recorded only once its `Commit` **and all replica `Apply`s** have
//! been acknowledged. When an exchange times out and the worker process
//! is confirmed dead, the coordinator respawns it; the worker restores its
//! checkpoint (round *k*) and reports it in `Hello`; the coordinator
//! replays rounds *k+1…* for that shard alone — re-running interior phases
//! (asserting the moves come out identical) and re-issuing the recorded
//! steps (re-`Commit` at home, re-`Apply` at replicas, both idempotent) —
//! and then resends the in-flight message. A timeout with a *live* worker
//! is just waited out: resending to a live worker would double-apply.
//!
//! ## Fleet observability
//!
//! With [`DeployConfig::telemetry`] on, workers stream compact
//! [`TelemetryFrame`] snapshots ahead of their phase-boundary replies; the
//! coordinator ingests them inside its guarded receive (so the lock-step
//! protocol never sees them), stamps each with the sending worker's
//! incarnation number, and folds them — together with its own per-round
//! self-captures — into a [`FleetStats`] registry served at `/metrics` on
//! `127.0.0.1:<metrics_port>` (the bound address is written to
//! `metrics.addr` in the artifact directory). Telemetry is cumulative and
//! loss-tolerant by construction, and strictly out of band: certified
//! artifacts stay byte-identical with it enabled. When a worker dies, its
//! checkpoint-refreshed flight-recorder dump is stashed before the respawn
//! and shipped into `merged.jsonl` as causally merged
//! `{"shard":…,"recorder":true,…}` tail lines.

use crate::arq::FaultConfig;
use crate::frame::BoundaryFrame;
use crate::gen::localized_game;
use crate::net::{CtrlMsg, PeerNet, TransportKind};
use crate::partition::partition;
use crate::sim::{initial_profile, Link, Rounds};
use crate::worker::WorkerConfig;
use std::io;

use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcs_core::ids::{RouteId, UserId};
use vcs_core::{is_nash, potential, Engine, Game, Profile};
use vcs_obs::span::SpanKind;
use vcs_obs::trace::{event_to_json, read_trace};
use vcs_obs::{
    elapsed_nanos, merge_stamped_streams, validate_causal_order_merged, AlertRoute, Event,
    FanoutSubscriber, FleetStats, JsonlSubscriber, MetricsExporter, NetStats, Obs, SpanQuantiles,
    StampedStream, StatsSubscriber, Subscriber, TelemetryFrame, WatchdogConfig, WatchdogSubscriber,
    COORD_SHARD,
};

/// Parameters of a deployment, shared verbatim between the coordinator and
/// every worker process (the game is re-derived from them, never shipped).
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Users in the generated localized game.
    pub users: usize,
    /// Tasks in the generated localized game.
    pub tasks: usize,
    /// Locality window of the generated game.
    pub window: usize,
    /// Number of shards (= worker processes in socket mode).
    pub shards: usize,
    /// Seed for the game, the initial profile, and every RNG stream.
    pub seed: u64,
    /// Cap on coordinator rounds.
    pub max_rounds: u32,
    /// Per-shard, per-round cap on interior decision slots.
    pub interior_cap: u64,
    /// Theorem-4 watchdog `ΔP_min` for the per-shard slot budgets.
    pub delta_p_min: f64,
    /// Artifact directory: JSONL dumps, checkpoints, `merged.jsonl`,
    /// `outcome.txt`, `stats.txt`.
    pub out_dir: PathBuf,
    /// Fault injection for the UDP transport (ignored by channel/TCP).
    pub fault: FaultConfig,
    /// Seed of the fault injectors (separate from the game seed: faults
    /// must not perturb the trajectory).
    pub net_seed: u64,
    /// Checkpoint cadence in rounds (1 = every round).
    pub ckpt_every: u32,
    /// Fault-injection hook: SIGKILL worker `s` right after its interior
    /// phase of round `r`, once.
    pub kill_shard: Option<(usize, u32)>,
    /// Channel mode only: sequential interior phases instead of one thread
    /// per shard (bit-identical either way).
    pub sequential: bool,
    /// Optional watchdog alert route spec (`stderr|file:<path>|http://…`).
    pub alert_sink: Option<String>,
    /// Socket modes: stream worker telemetry frames to the coordinator's
    /// fleet registry, refresh worker flight-recorder dumps at every
    /// checkpoint, and ship dead workers' recorder tails into
    /// `merged.jsonl`.
    pub telemetry: bool,
    /// With [`telemetry`](Self::telemetry): serve the fleet registry's
    /// `/metrics` on `127.0.0.1:<port>` (0 = ephemeral; the bound address
    /// lands in `metrics.addr` under `out_dir`).
    pub metrics_port: Option<u16>,
    /// Rayon pool width for every process of the deployment (`None`/0 =
    /// `VCS_THREADS` or the machine default).
    pub threads: Option<usize>,
}

impl DeployConfig {
    /// A config with defaults matching the `shard_runtime` binary's.
    pub fn new(users: usize, tasks: usize, window: usize, shards: usize, seed: u64) -> Self {
        DeployConfig {
            users,
            tasks,
            window,
            shards,
            seed,
            max_rounds: 200,
            interior_cap: u64::MAX,
            delta_p_min: 1e-3,
            out_dir: PathBuf::from("shard_run"),
            fault: FaultConfig::clean(),
            net_seed: 0x5EED0FFA17,
            ckpt_every: 1,
            kill_shard: None,
            sequential: false,
            alert_sink: None,
            telemetry: false,
            metrics_port: None,
            threads: None,
        }
    }

    /// The deployment's game — a pure function of the config.
    pub fn game(&self) -> Game {
        localized_game(self.users, self.tasks, self.window, self.seed)
    }

    /// Serializes the worker command line for shard `shard` dialing
    /// `port`. Parsed back by [`parse_worker_args`].
    pub fn worker_args(&self, shard: usize, port: u16, transport: TransportKind) -> Vec<String> {
        let t = match transport {
            TransportKind::Tcp => "tcp",
            TransportKind::Udp => "udp",
            TransportKind::Channel => panic!("channel mode spawns no workers"),
        };
        let mut args: Vec<String> = [
            "--worker".into(),
            "--shard".into(),
            shard.to_string(),
            "--coord-port".into(),
            port.to_string(),
            "--transport".into(),
            t.into(),
            "--users".into(),
            self.users.to_string(),
            "--tasks".into(),
            self.tasks.to_string(),
            "--window".into(),
            self.window.to_string(),
            "--shards".into(),
            self.shards.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--interior-cap".into(),
            self.interior_cap.to_string(),
            "--delta-p-min".into(),
            self.delta_p_min.to_string(),
            "--out-dir".into(),
            self.out_dir.display().to_string(),
            "--loss".into(),
            self.fault.loss.to_string(),
            "--dup".into(),
            self.fault.dup.to_string(),
            "--reorder".into(),
            self.fault.reorder.to_string(),
            "--rtt-ms".into(),
            self.fault.rtt_ms.to_string(),
            "--jitter-ms".into(),
            self.fault.jitter_ms.to_string(),
            "--net-seed".into(),
            self.net_seed.to_string(),
        ]
        .to_vec();
        if self.telemetry {
            args.push("--telemetry".into());
        }
        if let Some(threads) = self.threads {
            args.push("--threads".into());
            args.push(threads.to_string());
        }
        args
    }
}

/// Parses a worker command line produced by [`DeployConfig::worker_args`]
/// (everything after the leading `--worker`).
///
/// # Panics
///
/// Panics on unknown flags or missing values — a malformed self-spawn is a
/// bug, not an input error.
pub fn parse_worker_args(mut it: impl Iterator<Item = String>) -> WorkerConfig {
    let mut cfg = WorkerConfig {
        shard: 0,
        coord_port: 0,
        transport: TransportKind::Tcp,
        deploy: DeployConfig::new(0, 0, 0, 1, 0),
    };
    let next = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().unwrap_or_else(|| panic!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        let d = &mut cfg.deploy;
        match arg.as_str() {
            "--shard" => cfg.shard = next("--shard", &mut it).parse().expect("--shard"),
            "--coord-port" => {
                cfg.coord_port = next("--coord-port", &mut it).parse().expect("--coord-port");
            }
            "--transport" => {
                cfg.transport = next("--transport", &mut it).parse().expect("--transport");
            }
            "--users" => d.users = next("--users", &mut it).parse().expect("--users"),
            "--tasks" => d.tasks = next("--tasks", &mut it).parse().expect("--tasks"),
            "--window" => d.window = next("--window", &mut it).parse().expect("--window"),
            "--shards" => d.shards = next("--shards", &mut it).parse().expect("--shards"),
            "--seed" => d.seed = next("--seed", &mut it).parse().expect("--seed"),
            "--interior-cap" => {
                d.interior_cap = next("--interior-cap", &mut it)
                    .parse()
                    .expect("--interior-cap");
            }
            "--delta-p-min" => {
                d.delta_p_min = next("--delta-p-min", &mut it)
                    .parse()
                    .expect("--delta-p-min");
            }
            "--out-dir" => d.out_dir = PathBuf::from(next("--out-dir", &mut it)),
            "--loss" => d.fault.loss = next("--loss", &mut it).parse().expect("--loss"),
            "--dup" => d.fault.dup = next("--dup", &mut it).parse().expect("--dup"),
            "--reorder" => d.fault.reorder = next("--reorder", &mut it).parse().expect("--reorder"),
            "--rtt-ms" => d.fault.rtt_ms = next("--rtt-ms", &mut it).parse().expect("--rtt-ms"),
            "--jitter-ms" => {
                d.fault.jitter_ms = next("--jitter-ms", &mut it).parse().expect("--jitter-ms");
            }
            "--net-seed" => d.net_seed = next("--net-seed", &mut it).parse().expect("--net-seed"),
            "--telemetry" => d.telemetry = true,
            "--threads" => d.threads = Some(next("--threads", &mut it).parse().expect("--threads")),
            other => panic!("unknown worker argument {other}"),
        }
    }
    cfg
}

/// The deterministic core of a finished deployment plus its run stats.
#[derive(Debug, Clone)]
pub struct DeployOutcome {
    /// Whether the global fixpoint was reached within the round cap.
    pub converged: bool,
    /// Coordinator rounds executed.
    pub rounds: u32,
    /// Weighted potential `ϕ` of the merged final profile on the full game.
    pub phi: f64,
    /// The initial profile the run started from.
    pub initial: Vec<RouteId>,
    /// The merged final profile (global user order).
    pub choices: Vec<RouteId>,
    /// The merged global commit log (replayable on a full-game engine).
    pub log: Vec<(UserId, RouteId)>,
    /// Decision slots per shard.
    pub shard_slots: Vec<u64>,
    /// Watchdog alerts across all shards.
    pub alerts: u64,
    /// Coordinator-side transport/ARQ health counters (all-zero for
    /// channel and TCP — the kernel owns reliability there).
    pub net: NetStats,
    /// Wall-clock seconds of the run proper (excluded from `outcome.txt`).
    pub wall_secs: f64,
    /// The partition's boundary fraction.
    pub boundary_fraction: f64,
    /// Fleet-wide per-[`SpanKind`] latency quantiles (p50/p90/p99/max),
    /// extracted from the telemetry plane's merged decade histograms.
    /// Empty unless `cfg.telemetry` streamed frames into the registry.
    pub span_quantiles: Vec<SpanQuantiles>,
}

fn other_err(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Removes every artifact a previous run may have left in `out_dir` —
/// stale checkpoints especially must not leak into a fresh run, or a
/// restarting worker would resume the wrong trajectory.
fn clean_artifacts(cfg: &DeployConfig) -> io::Result<()> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    for s in 0..cfg.shards {
        for name in [
            format!("shard-{s}.jsonl"),
            format!("net-{s}.jsonl"),
            format!("ckpt-{s}.bin"),
            format!("ckpt-{s}.tmp"),
            format!("recorder-{s}.jsonl"),
            format!("recorder-{s}.dead.jsonl"),
        ] {
            let _ = std::fs::remove_file(cfg.out_dir.join(name));
        }
    }
    for name in [
        "net-coord.jsonl",
        "merged.jsonl",
        "outcome.txt",
        "stats.txt",
        "metrics.addr",
    ] {
        let _ = std::fs::remove_file(cfg.out_dir.join(name));
    }
    Ok(())
}

/// Runs a deployment on the chosen transport, writes all artifacts
/// (per-shard dumps, validated `merged.jsonl`, `outcome.txt`,
/// `stats.txt`), and returns the outcome.
///
/// # Errors
///
/// Transport/process failures, and a failed merged causal validation.
pub fn run_deployment(cfg: &DeployConfig, transport: TransportKind) -> io::Result<DeployOutcome> {
    clean_artifacts(cfg)?;
    let outcome = match transport {
        TransportKind::Channel => run_channel(cfg)?,
        _ => Coordinator::run(cfg, transport)?,
    };
    write_post_mortem(cfg)?;
    write_outcome_file(&cfg.out_dir.join("outcome.txt"), &outcome)?;
    write_stats_file(&cfg.out_dir.join("stats.txt"), &outcome)?;
    Ok(outcome)
}

/// Oracle check of a finished deployment: replays the merged commit log on
/// a single full-game engine, asserts exact profile reconstruction, `ϕ`
/// agreement to `1e-9` (relative), and a Nash certificate.
///
/// # Errors
///
/// A human-readable description of the first violated property.
pub fn verify_outcome(cfg: &DeployConfig, outcome: &DeployOutcome) -> Result<(), String> {
    let game = cfg.game();
    let mut oracle = Engine::new_owned(game.clone(), Profile::new(&game, outcome.initial.clone()));
    let trajectory = oracle.replay_moves(&outcome.log);
    let final_phi = trajectory
        .last()
        .map(|&(phi, _)| phi)
        .unwrap_or_else(|| oracle.potential());
    if oracle.profile().choices() != &outcome.choices[..] {
        return Err("oracle replay does not reconstruct the merged profile".into());
    }
    let merged_phi = potential(&game, &Profile::new(&game, outcome.choices.clone()));
    // Relative tolerance: the replay phi is incrementally accumulated over
    // thousands of moves, so agreement scales with |phi|.
    if (final_phi - merged_phi).abs() > 1e-9 * merged_phi.abs().max(1.0) {
        return Err(format!("oracle phi {final_phi} vs merged {merged_phi}"));
    }
    if !outcome.converged {
        return Ok(()); // no NE claim without a fixpoint
    }
    if !is_nash(&game, &Profile::new(&game, outcome.choices.clone())) {
        return Err("merged profile is not a full-game Nash equilibrium".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Channel mode
// ---------------------------------------------------------------------------

fn run_channel(cfg: &DeployConfig) -> io::Result<DeployOutcome> {
    use crate::sim::{ShardConfig, ShardedSim};
    let game = cfg.game();
    let mut sim = ShardedSim::new(
        game.clone(),
        ShardConfig {
            shards: cfg.shards,
            seed: cfg.seed,
            max_rounds: cfg.max_rounds,
            interior_slot_cap: cfg.interior_cap,
        },
    );
    let alert_route = cfg
        .alert_sink
        .as_deref()
        .map(|spec| AlertRoute::parse(spec).expect("valid alert route"));
    let budgets = sim.shard_slot_budgets(cfg.delta_p_min);
    let mut jsonls = Vec::new();
    let mut dogs = Vec::new();
    for (s, &budget) in budgets.iter().enumerate() {
        let dump = cfg.out_dir.join(format!("shard-{s}.jsonl"));
        let jsonl = Arc::new(JsonlSubscriber::create(&dump)?);
        let mut dog = WatchdogSubscriber::new(WatchdogConfig {
            slot_budget: budget.is_finite().then(|| budget.ceil() as u64),
            ..WatchdogConfig::default()
        });
        if let Some(route) = &alert_route {
            dog = dog.with_sink(route.open().expect("open alert sink"));
        }
        let dog = Arc::new(dog);
        let sinks: Vec<Arc<dyn Subscriber>> = vec![jsonl.clone(), dog.clone()];
        sim.set_shard_obs(s, FanoutSubscriber::obs(sinks));
        jsonls.push(jsonl);
        dogs.push(dog);
    }
    let start = Instant::now();
    let outcome = if cfg.sequential {
        sim.run()
    } else {
        sim.run_parallel()
    };
    let wall_secs = start.elapsed().as_secs_f64();
    for jsonl in &jsonls {
        jsonl.flush()?;
    }
    Ok(DeployOutcome {
        converged: outcome.converged,
        rounds: outcome.rounds,
        phi: sim.merged_potential(),
        initial: outcome.initial,
        choices: outcome.choices,
        log: outcome.log,
        shard_slots: outcome.shard_slots,
        alerts: dogs.iter().map(|d| d.alert_count() as u64).sum(),
        net: NetStats::default(),
        wall_secs,
        boundary_fraction: outcome.boundary_fraction,
        span_quantiles: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// Socket mode: the multi-process coordinator
// ---------------------------------------------------------------------------

/// One completed boundary step: recorded only after the home `Commit` and
/// every replica `Apply` are acknowledged.
struct Step {
    user: u32,
    home: usize,
    route: u32,
    frame: Vec<u8>,
}

/// Everything the coordinator must be able to replay for a restarted
/// worker: the interior move lists (for verification) and the boundary
/// steps, per round.
struct RoundRecord {
    round: u32,
    /// Per shard: `Some(moves)` once that shard's interior phase of this
    /// round has been collected.
    interior: Vec<Option<Vec<(u32, u32)>>>,
    steps: Vec<Step>,
}

enum RecvFail {
    /// The worker process has exited.
    Dead,
    Io(io::Error),
}

/// The worker processes as the coordinator round's [`Link`]: lock-step
/// request/reply exchanges, the round history that crash recovery
/// replays, the SIGKILL hook, the checkpoint barrier, and the coordinator's
/// own telemetry.
struct Coordinator {
    cfg: DeployConfig,
    transport: TransportKind,
    port: u16,
    net: PeerNet,
    children: Vec<Child>,
    history: Vec<RoundRecord>,
    current: Option<RoundRecord>,
    interior_converged: Vec<bool>,
    slots: Vec<u64>,
    kill: Option<(usize, u32)>,
    /// When the current round's boundary walk started.
    boundary_start: Instant,
    /// Telemetry plane (all `None`/disabled unless `cfg.telemetry`).
    fleet: Option<Arc<FleetStats>>,
    stats: Option<Arc<StatsSubscriber>>,
    /// The coordinator's own span sink (NetWait / BoundarySerialize).
    obs: Obs,
    /// Sequence counter of the coordinator's self-captured frames.
    self_seq: u64,
    /// Respawn count per shard — stamped onto ingested worker frames so
    /// the registry sums dead incarnations separately from the live one.
    incarnations: Vec<u32>,
    /// Keeps the fleet `/metrics` endpoint alive for the whole run.
    _exporter: Option<MetricsExporter>,
}

impl Link for Coordinator {
    type Error = io::Error;

    /// Fires every shard's interior phase (they compute in parallel), then
    /// collects per shard in ascending order — the merged log keeps the
    /// shard-order serialization of channel mode.
    fn interior(&mut self, round: u32, log: &mut Vec<(UserId, RouteId)>) -> io::Result<u64> {
        self.current = Some(RoundRecord {
            round,
            interior: vec![None; self.cfg.shards],
            steps: Vec::new(),
        });
        for s in 0..self.cfg.shards {
            self.send_recovering(s, &CtrlMsg::RunInterior { round })?;
        }
        let mut total = 0u64;
        for s in 0..self.cfg.shards {
            let moves = self.collect_interior(s, round, true)?;
            total += moves.len() as u64;
            log.extend(moves.iter().map(|&(u, r)| {
                (
                    UserId::from_index(u as usize),
                    RouteId::from_index(r as usize),
                )
            }));
            self.current.as_mut().expect("in round").interior[s] = Some(moves);
        }

        // Fault-injection hook: SIGKILL right between the phases.
        if let Some((ks, kr)) = self.kill {
            if kr == round {
                eprintln!(
                    "coordinator: injecting SIGKILL into shard {ks} after round {round} interior"
                );
                let _ = self.children[ks].kill();
                self.kill = None;
            }
        }
        self.boundary_start = Instant::now();
        Ok(total)
    }

    fn interior_converged(&self) -> bool {
        self.interior_converged.iter().all(|&c| c)
    }

    fn best_routes(&mut self, home: usize, user: UserId) -> io::Result<Vec<RouteId>> {
        let user = user.index() as u32;
        match self.exchange(home, &CtrlMsg::BestRespond { user })? {
            CtrlMsg::Routes { user: u, routes } if u == user => Ok(routes
                .into_iter()
                .map(|r| RouteId::from_index(r as usize))
                .collect()),
            other => Err(other_err(format!("expected Routes({user}), got {other:?}"))),
        }
    }

    fn commit(&mut self, home: usize, user: UserId, route: RouteId) -> io::Result<usize> {
        let (user, route) = (user.index() as u32, route.index() as u32);
        let frame = match self.exchange(home, &CtrlMsg::Commit { user, route })? {
            CtrlMsg::Committed { frame } => frame,
            other => return Err(other_err(format!("expected Committed, got {other:?}"))),
        };
        for t in 0..self.cfg.shards {
            if t != home {
                self.apply_with_heal(t, &frame)?;
            }
        }
        let len = frame.len();
        self.current.as_mut().expect("in round").steps.push(Step {
            user,
            home,
            route,
            frame,
        });
        Ok(len)
    }

    /// Times the boundary walk, runs the checkpoint barrier when due,
    /// files the round into the replay history, and publishes the
    /// coordinator's telemetry frame.
    fn end_round(&mut self, round: u32, converged: bool) -> io::Result<()> {
        let nanos = elapsed_nanos(self.boundary_start);
        self.obs.emit(|| Event::SpanRecorded {
            kind: SpanKind::BoundarySerialize,
            nanos,
        });
        let cfg = &self.cfg;
        if round.is_multiple_of(cfg.ckpt_every.max(1)) || converged || round == cfg.max_rounds {
            for s in 0..self.cfg.shards {
                match self.exchange(s, &CtrlMsg::Checkpoint { round })? {
                    CtrlMsg::CheckpointDone { round: r } if r == round => {}
                    other => {
                        return Err(other_err(format!("expected CheckpointDone, got {other:?}")))
                    }
                }
            }
        }
        let record = self.current.take().expect("in round");
        self.history.push(record);
        self.publish_self_frame();
        Ok(())
    }
}

impl Coordinator {
    fn run(cfg: &DeployConfig, transport: TransportKind) -> io::Result<DeployOutcome> {
        let game = cfg.game();
        let net_obs = if transport == TransportKind::Udp {
            Obs::new(Arc::new(JsonlSubscriber::create(
                &cfg.out_dir.join("net-coord.jsonl"),
            )?))
        } else {
            Obs::disabled()
        };
        let (net, port) = PeerNet::bind(transport, cfg.shards, cfg.fault, cfg.net_seed, net_obs)?;
        let fleet = cfg.telemetry.then(|| Arc::new(FleetStats::new()));
        let stats = cfg.telemetry.then(|| Arc::new(StatsSubscriber::new()));
        let obs = match &stats {
            Some(stats) => Obs::new(stats.clone() as Arc<dyn Subscriber>),
            None => Obs::disabled(),
        };
        let exporter = match (&fleet, cfg.metrics_port) {
            (Some(fleet), Some(metrics_port)) => {
                let exporter =
                    MetricsExporter::bind_fleet(("127.0.0.1", metrics_port), fleet.clone())?;
                eprintln!("coordinator: fleet /metrics on http://{}", exporter.addr());
                std::fs::write(
                    cfg.out_dir.join("metrics.addr"),
                    format!("{}\n", exporter.addr()),
                )?;
                Some(exporter)
            }
            _ => None,
        };
        let mut co = Coordinator {
            cfg: cfg.clone(),
            transport,
            port,
            net,
            children: Vec::new(),
            history: Vec::new(),
            current: None,
            interior_converged: vec![false; cfg.shards],
            slots: vec![0; cfg.shards],
            kill: cfg.kill_shard,
            boundary_start: Instant::now(),
            fleet,
            stats,
            obs,
            self_seq: 0,
            incarnations: vec![0; cfg.shards],
            _exporter: exporter,
        };
        for s in 0..cfg.shards {
            co.children.push(co.spawn_worker(s)?);
        }
        for _ in 0..cfg.shards {
            let (s, ckpt_round) = co.net.accept_hello(Duration::from_secs(60))?;
            if ckpt_round != 0 {
                return Err(other_err(format!(
                    "fresh worker {s} reported checkpoint round {ckpt_round}"
                )));
            }
        }

        let start = Instant::now();
        let mut rounds = Rounds::new(partition(&game, cfg.shards), cfg.seed);
        rounds.run(&mut co, cfg.max_rounds)?;

        // Finish: collect final choices, alerts and slot counts.
        let n = game.users().len();
        let mut choices = vec![RouteId::from_index(0); n];
        let mut assigned = vec![false; n];
        let mut alerts = 0u64;
        for s in 0..cfg.shards {
            co.send_recovering(s, &CtrlMsg::Finish)?;
            let entries = match co.collect(s, &CtrlMsg::Finish, true)? {
                (
                    entries,
                    CtrlMsg::Done {
                        shard,
                        alerts: shard_alerts,
                        slots,
                        entries: n,
                    },
                ) if shard as usize == s && n as usize == entries.len() => {
                    alerts += shard_alerts;
                    co.slots[s] = slots;
                    entries
                }
                (_, other) => {
                    return Err(other_err(format!(
                        "shard {s}: inconsistent done stream ending {other:?}"
                    )))
                }
            };
            for (u, r) in entries {
                choices[u as usize] = RouteId::from_index(r as usize);
                assigned[u as usize] = true;
            }
        }
        if !assigned.iter().all(|&a| a) {
            return Err(other_err("some user reported by no home shard".into()));
        }
        let wall_secs = start.elapsed().as_secs_f64();
        co.publish_self_frame();
        let net = co.net.stats();
        co.reap_children();

        let phi = potential(&game, &Profile::new(&game, choices.clone()));
        Ok(DeployOutcome {
            converged: rounds.progress.converged,
            rounds: rounds.progress.rounds,
            phi,
            initial: initial_profile(&game, cfg.seed),
            choices,
            log: rounds.log,
            shard_slots: co.slots,
            alerts,
            net,
            wall_secs,
            boundary_fraction: rounds.plan.boundary_fraction(),
            span_quantiles: co
                .fleet
                .as_deref()
                .map(FleetStats::span_quantiles)
                .unwrap_or_default(),
        })
    }

    /// Folds the coordinator's own observability snapshot into the fleet
    /// registry (one frame per round, shard label `"coord"`). A no-op with
    /// telemetry off.
    fn publish_self_frame(&mut self) {
        let (Some(fleet), Some(stats)) = (&self.fleet, &self.stats) else {
            return;
        };
        self.self_seq += 1;
        let frame =
            TelemetryFrame::capture(COORD_SHARD, self.self_seq, stats, None, self.net.stats());
        fleet.ingest(frame);
    }

    fn spawn_worker(&self, s: usize) -> io::Result<Child> {
        std::process::Command::new(std::env::current_exe()?)
            .args(self.cfg.worker_args(s, self.port, self.transport))
            .spawn()
    }

    /// Receives the next message from shard `s`, distinguishing "the
    /// worker is slow" (keep waiting, up to a hard cap) from "the worker
    /// process is gone" (recoverable). Telemetry frames are folded into
    /// the fleet registry right here and never surface to the lock-step
    /// protocol logic.
    fn recv_guarded(&mut self, s: usize) -> Result<CtrlMsg, RecvFail> {
        let deadline = Instant::now() + Duration::from_secs(120);
        let timer = self.obs.span(SpanKind::NetWait);
        loop {
            match self.net.recv(s, Duration::from_millis(200)) {
                Ok(CtrlMsg::Telemetry { bytes }) => {
                    ingest_telemetry(self.fleet.as_deref(), self.incarnations[s], s, &bytes);
                }
                Ok(msg) => {
                    timer.finish();
                    return Ok(msg);
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    match self.children[s].try_wait() {
                        Ok(Some(_)) => return Err(RecvFail::Dead),
                        Ok(None) => {}
                        Err(e) => return Err(RecvFail::Io(e)),
                    }
                    if Instant::now() >= deadline {
                        return Err(RecvFail::Io(other_err(format!(
                            "shard {s} alive but silent for 120s"
                        ))));
                    }
                }
                // A broken link with a live process: take the process down
                // and recover — a half-connected worker is unsalvageable.
                Err(_) => {
                    let _ = self.children[s].kill();
                    return Err(RecvFail::Dead);
                }
            }
        }
    }

    /// Sends `msg`, recovering the worker first if its link is down.
    fn send_recovering(&mut self, s: usize, msg: &CtrlMsg) -> io::Result<()> {
        if let Err(e) = self.net.send(s, msg) {
            eprintln!("coordinator: send to shard {s} failed ({e}); recovering");
            self.recover(s)?;
            self.net.send(s, msg)?;
        }
        Ok(())
    }

    /// One lock-step request/reply exchange with shard `s`, transparently
    /// recovering (and resending) across a worker death.
    fn exchange(&mut self, s: usize, msg: &CtrlMsg) -> io::Result<CtrlMsg> {
        loop {
            self.send_recovering(s, msg)?;
            match self.recv_guarded(s) {
                Ok(reply) => return Ok(reply),
                Err(RecvFail::Dead) => self.recover(s)?,
                Err(RecvFail::Io(e)) => return Err(e),
            }
        }
    }

    /// Collects shard `s`'s chunked reply to `request` (already sent):
    /// its `InteriorPart`s or `DonePart`s, then the closing message. With
    /// `retry`, a death recovers the worker and restarts the stream;
    /// without (during a recovery replay), a second death is fatal.
    fn collect(
        &mut self,
        s: usize,
        request: &CtrlMsg,
        retry: bool,
    ) -> io::Result<(Vec<(u32, u32)>, CtrlMsg)> {
        let interior = matches!(request, CtrlMsg::RunInterior { .. });
        let mut pairs = Vec::new();
        loop {
            match self.recv_guarded(s) {
                Ok(CtrlMsg::InteriorPart { moves }) if interior => pairs.extend(moves),
                Ok(CtrlMsg::DonePart { entries }) if !interior => pairs.extend(entries),
                Ok(end) => return Ok((pairs, end)),
                Err(RecvFail::Dead) if retry => {
                    self.recover(s)?;
                    self.net.send(s, request)?;
                    pairs.clear();
                }
                Err(RecvFail::Dead) => return Err(died_in_replay(s)),
                Err(RecvFail::Io(e)) => return Err(e),
            }
        }
    }

    /// Collects shard `s`'s interior phase of `round` (see
    /// [`Coordinator::collect`]).
    fn collect_interior(
        &mut self,
        s: usize,
        round: u32,
        retry: bool,
    ) -> io::Result<Vec<(u32, u32)>> {
        match self.collect(s, &CtrlMsg::RunInterior { round }, retry)? {
            (
                moves,
                CtrlMsg::InteriorDone {
                    round: r,
                    converged,
                    slots,
                    moves: n,
                },
            ) if r == round && n as usize == moves.len() => {
                self.interior_converged[s] = converged;
                self.slots[s] = slots;
                Ok(moves)
            }
            (moves, other) => Err(other_err(format!(
                "shard {s}: inconsistent interior stream for round {round} ({} moves, then {other:?})",
                moves.len()
            ))),
        }
    }

    /// Applies `frame` at replica `t`, healing `FrameGap` replies by
    /// retransmitting the missing frames from the recorded history.
    fn apply_with_heal(&mut self, t: usize, frame: &[u8]) -> io::Result<()> {
        let want = BoundaryFrame::decode(frame).map_err(|e| other_err(format!("{e:?}")))?;
        loop {
            match self.exchange(
                t,
                &CtrlMsg::Apply {
                    frame: frame.to_vec(),
                },
            )? {
                CtrlMsg::Applied { seq } if seq == want.seq => return Ok(()),
                CtrlMsg::FrameGap { shard, from_seq } => {
                    eprintln!(
                        "coordinator: shard {t} reports gap in shard {shard}'s frames from seq {from_seq}; retransmitting"
                    );
                    for missing in self.frames_between(shard, from_seq, want.seq) {
                        match self.exchange(t, &CtrlMsg::Apply { frame: missing })? {
                            CtrlMsg::Applied { .. } => {}
                            other => {
                                return Err(other_err(format!(
                                    "gap heal at shard {t}: expected Applied, got {other:?}"
                                )))
                            }
                        }
                    }
                }
                other => {
                    return Err(other_err(format!(
                        "shard {t}: expected Applied({}), got {other:?}",
                        want.seq
                    )))
                }
            }
        }
    }

    /// Recorded frames originating at `src_shard` with sequence numbers in
    /// `[from_seq, until_seq)`, in order.
    fn frames_between(&self, src_shard: u32, from_seq: u64, until_seq: u64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let records = self.history.iter().chain(self.current.iter());
        for rec in records {
            for step in &rec.steps {
                if step.home as u32 != src_shard {
                    continue;
                }
                if let Ok(f) = BoundaryFrame::decode(&step.frame) {
                    if f.seq >= from_seq && f.seq < until_seq {
                        out.push(step.frame.clone());
                    }
                }
            }
        }
        out
    }

    /// Restarts a dead worker and replays everything it has to have seen:
    /// completed rounds after its checkpoint, then the completed part of
    /// the current round. On return the worker is ready for exactly the
    /// message the caller was trying to deliver.
    fn recover(&mut self, s: usize) -> io::Result<()> {
        eprintln!("coordinator: shard {s} process died; restarting from its checkpoint");
        let _ = self.children[s].wait(); // reap the dead incarnation
        self.incarnations[s] += 1;
        stash_recorder_dump(&self.cfg.out_dir, s);
        self.net.reset(s);
        self.children[s] = self.spawn_worker(s)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let ckpt_round = loop {
            match self.net.accept_hello(Duration::from_secs(5)) {
                Ok((hs, r)) if hs == s => break r,
                Ok((hs, _)) => {
                    return Err(other_err(format!(
                        "during shard {s} recovery, unexpected Hello from shard {hs}"
                    )))
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    if Instant::now() >= deadline {
                        return Err(other_err(format!("restarted shard {s} never said Hello")));
                    }
                }
                Err(e) => return Err(e),
            }
        };

        // Replay completed rounds this worker's checkpoint predates, then
        // the completed part of the in-flight round if its interior for
        // this shard was already collected (otherwise the caller's retried
        // RunInterior covers it).
        let history = std::mem::take(&mut self.history);
        let current = self.current.take();
        let replayed = history
            .iter()
            .filter(|rec| rec.round > ckpt_round)
            .chain(current.iter().filter(|rec| rec.interior[s].is_some()))
            .try_for_each(|rec| self.replay(s, rec));
        self.history = history;
        self.current = current;
        replayed?;
        eprintln!(
            "coordinator: shard {s} recovered (checkpoint round {ckpt_round}, replayed to present)"
        );
        Ok(())
    }

    /// Replays one recorded round for shard `s`: re-run its interior
    /// (asserting determinism) and re-issue every recorded step.
    fn replay(&mut self, s: usize, rec: &RoundRecord) -> io::Result<()> {
        self.net
            .send(s, &CtrlMsg::RunInterior { round: rec.round })?;
        let moves = self.collect_interior(s, rec.round, false)?;
        if Some(&moves) != rec.interior[s].as_ref() {
            return Err(other_err(format!(
                "shard {s} replay diverged in round {}: interior moves differ",
                rec.round
            )));
        }
        for st in &rec.steps {
            self.replay_step(s, st)?;
        }
        Ok(())
    }

    fn replay_step(&mut self, s: usize, st: &Step) -> io::Result<()> {
        if st.home == s {
            // Re-commit at home: the restarted worker rolled back to its
            // checkpoint, so this applies exactly once and must reproduce
            // the recorded frame bit-for-bit.
            let (user, route) = (st.user, st.route);
            self.net.send(s, &CtrlMsg::Commit { user, route })?;
            match self.recv_replay(s)? {
                CtrlMsg::Committed { frame } if frame == st.frame => Ok(()),
                CtrlMsg::Committed { .. } => Err(other_err(format!(
                    "shard {s} replay diverged: re-committed frame differs for user {user}"
                ))),
                other => Err(other_err(format!("expected Committed, got {other:?}"))),
            }
        } else {
            // Re-apply at a replica: absorbed by the applied-seq table if
            // the checkpoint already covered it.
            let frame = st.frame.clone();
            self.net.send(s, &CtrlMsg::Apply { frame })?;
            match self.recv_replay(s)? {
                CtrlMsg::Applied { .. } => Ok(()),
                other => Err(other_err(format!("expected Applied, got {other:?}"))),
            }
        }
    }

    /// Receive during a recovery replay — a second death is fatal.
    fn recv_replay(&mut self, s: usize) -> io::Result<CtrlMsg> {
        match self.recv_guarded(s) {
            Ok(msg) => Ok(msg),
            Err(RecvFail::Dead) => Err(died_in_replay(s)),
            Err(RecvFail::Io(e)) => Err(e),
        }
    }

    /// Waits for worker processes to exit (pumping the socket so their
    /// final ARQ drains get acked), then kills stragglers.
    fn reap_children(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let all_done = self
                .children
                .iter_mut()
                .all(|c| matches!(c.try_wait(), Ok(Some(_))));
            if all_done {
                return;
            }
            if Instant::now() >= deadline {
                for c in &mut self.children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return;
            }
            self.net.idle_pump(Duration::from_millis(50));
        }
    }
}

fn died_in_replay(s: usize) -> io::Error {
    other_err(format!("shard {s} died again during recovery replay"))
}

/// Decodes one telemetry frame off the control socket and folds it into the
/// fleet registry, stamping the coordinator-side incarnation count so a
/// respawned worker's counters accumulate instead of rolling back. Malformed
/// frames (the wire may hand the codec anything) are logged and dropped —
/// telemetry loss must never fail the run.
fn ingest_telemetry(fleet: Option<&FleetStats>, incarnation: u32, s: usize, bytes: &[u8]) {
    let Some(fleet) = fleet else { return };
    match TelemetryFrame::decode(bytes) {
        Ok(mut frame) => {
            frame.incarnation = incarnation;
            fleet.ingest(frame);
        }
        Err(e) => eprintln!("coordinator: dropping malformed telemetry from shard {s}: {e}"),
    }
}

/// Preserves a dead worker's checkpoint-cadence flight-recorder dump before
/// the respawned incarnation starts overwriting the live file. Appending
/// keeps every dead incarnation's tail if a shard dies more than once.
fn stash_recorder_dump(out_dir: &Path, s: usize) {
    let live = out_dir.join(format!("recorder-{s}.jsonl"));
    let Ok(dump) = std::fs::read(&live) else {
        return; // no dump yet (telemetry off, or death before first checkpoint)
    };
    let dead = out_dir.join(format!("recorder-{s}.dead.jsonl"));
    use std::io::Write as _;
    let stashed = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&dead)
        .and_then(|mut f| f.write_all(&dump));
    match stashed {
        Ok(()) => {
            let _ = std::fs::remove_file(&live);
            eprintln!(
                "coordinator: stashed shard {s} flight-recorder dump ({} bytes) for the post-mortem",
                dump.len()
            );
        }
        Err(e) => eprintln!("coordinator: failed to stash shard {s} recorder dump: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

/// Reads every shard dump back, validates the merged cross-shard causal
/// order, and writes `merged.jsonl`.
fn write_post_mortem(cfg: &DeployConfig) -> io::Result<()> {
    let streams: Vec<StampedStream> = (0..cfg.shards)
        .map(|s| {
            let path = cfg.out_dir.join(format!("shard-{s}.jsonl"));
            let events = read_trace(&path)
                .map_err(|e| other_err(format!("re-read shard {s} dump: {e:?}")))?;
            Ok(StampedStream::new(s as u32, events))
        })
        .collect::<io::Result<_>>()?;
    let violations = validate_causal_order_merged(&streams);
    if !violations.is_empty() {
        let mut detail = String::new();
        for v in violations.iter().take(16) {
            detail.push_str(&format!("  {v:?}\n"));
        }
        return Err(other_err(format!(
            "merged causal validation failed with {} violation(s):\n{detail}",
            violations.len()
        )));
    }
    let merged = merge_stamped_streams(&streams);
    let path = cfg.out_dir.join("merged.jsonl");
    use std::io::Write as _;
    let mut out = io::BufWriter::new(std::fs::File::create(&path)?);
    for (shard, event) in &merged {
        writeln!(
            out,
            "{{\"shard\":{shard},\"event\":{}}}",
            event_to_json(event)
        )?;
    }

    // Crash-shipped recorder tails: merge the flight-recorder dumps (dead
    // incarnations stashed by `recover`, plus each survivor's last
    // checkpoint dump) causally *among themselves* and append them tagged
    // `"recorder":true`. They duplicate events already in the main streams
    // by design — a recorder ring is the last N events before death — so
    // they are merged separately, never validated against the main body.
    // Telemetry-gated: with telemetry off, `merged.jsonl` stays
    // byte-identical to a recorder-less run.
    if cfg.telemetry {
        let mut recorder_streams: Vec<StampedStream> = Vec::new();
        for s in 0..cfg.shards {
            let mut events = Vec::new();
            for name in [
                format!("recorder-{s}.dead.jsonl"),
                format!("recorder-{s}.jsonl"),
            ] {
                let path = cfg.out_dir.join(name);
                if path.exists() {
                    events
                        .extend(read_trace(&path).map_err(|e| {
                            other_err(format!("re-read shard {s} recorder: {e:?}"))
                        })?);
                }
            }
            if !events.is_empty() {
                recorder_streams.push(StampedStream::new(s as u32, events));
            }
        }
        for (shard, event) in &merge_stamped_streams(&recorder_streams) {
            writeln!(
                out,
                "{{\"shard\":{shard},\"recorder\":true,\"event\":{}}}",
                event_to_json(event)
            )?;
        }
    }
    out.flush()
}

/// Writes the deterministic core of the outcome — everything here must be
/// byte-identical across transports and fault schedules for the same
/// `(game, config)`.
fn write_outcome_file(path: &Path, o: &DeployOutcome) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "converged={}", o.converged);
    let _ = writeln!(s, "rounds={}", o.rounds);
    let _ = writeln!(s, "phi={:.17e}", o.phi);
    let join = |rs: &[RouteId]| {
        rs.iter()
            .map(|r| r.index().to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = writeln!(s, "initial={}", join(&o.initial));
    let _ = writeln!(s, "choices={}", join(&o.choices));
    let log = o
        .log
        .iter()
        .map(|&(u, r)| format!("{}:{}", u.index(), r.index()))
        .collect::<Vec<_>>()
        .join(";");
    let _ = writeln!(s, "log={log}");
    std::fs::write(path, s)
}

/// Writes the run stats — wall-clock and transport counters, explicitly
/// *not* part of the cross-transport determinism contract.
fn write_stats_file(path: &Path, o: &DeployOutcome) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "alerts={}", o.alerts);
    let _ = writeln!(s, "retransmissions={}", o.net.retransmissions);
    let _ = writeln!(s, "drops={}", o.net.drops);
    let _ = writeln!(s, "naks={}", o.net.naks);
    let _ = writeln!(s, "dup_drops={}", o.net.dup_drops);
    let _ = writeln!(s, "rto_fires={}", o.net.rto_fires);
    let _ = writeln!(s, "wall_secs={:.3}", o.wall_secs);
    let _ = writeln!(s, "shard_slots={:?}", o.shard_slots);
    let _ = writeln!(s, "boundary_fraction={:.6}", o.boundary_fraction);
    std::fs::write(path, s)
}
