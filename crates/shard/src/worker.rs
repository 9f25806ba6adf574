//! The shard worker: the per-shard OS process of a socket-mode deployment.
//!
//! A worker owns one [`crate::sim::ShardLane`] — the same lane type the
//! in-process coordinator ([`crate::ShardedSim`]) runs, with its engine over
//! the member sub-game, lane RNG, slot counter, causal-stamp endpoint and
//! applied-frame table — and executes the coordinator's control messages
//! lock-step by calling the lane's operations. Because the lane code, the
//! RNG streams, and the event-emission order are shared with channel mode,
//! a socket deployment's per-shard JSONL dumps are *byte-identical* to the
//! channel-mode run of the same `(game, config)` (the transport-oracle
//! suite asserts this).
//!
//! ## Crash recovery
//!
//! At every `Checkpoint` message the worker atomically persists a
//! [`WorkerCheckpoint`]: the lane's checkpoint (engine snapshot, RNG state,
//! stamper endpoint, slot counter, applied-frame table) and the flushed
//! length of its JSONL dump. A restarted worker (same arguments) restores
//! all of it, truncates the dump back to the checkpointed offset with
//! [`JsonlSubscriber::resume_at`], and reports the covered round in its
//! `Hello` — the coordinator then replays the rounds the dead incarnation
//! had seen, and the rewritten tail of the dump comes out identical.
//! The Theorem-4 watchdog is deliberately **not** checkpointed: a resumed
//! worker gets a fresh one (its budget is a bound on total slots, so a
//! restart can only under-count — never a false positive).
//!
//! ## Idempotent frame application
//!
//! Boundary frames apply exactly once, keyed on `(sender shard, seq)` (see
//! `ShardLane::apply_frame`): a duplicate is acknowledged but not
//! re-applied, and a frame that would skip ahead triggers a
//! [`CtrlMsg::FrameGap`] naming the first missing sequence number, which
//! drives coordinator-side retransmission of the gap.
//!
//! ## Observability
//!
//! Every worker carries a [`FlightRecorder`] on its event fanout with a
//! panic hook dumping the tail to `recorder-{s}.jsonl`. With `--telemetry`
//! the worker additionally streams [`TelemetryFrame`] snapshots (its stats
//! counters, span histograms, ARQ health, and latched watchdog alerts) to
//! the coordinator ahead of its `InteriorDone`/`CheckpointDone`/`Done`
//! replies, and refreshes the recorder dump at every checkpoint so even a
//! SIGKILL (which no panic hook survives) leaves a post-mortem tail for the
//! coordinator to ship into `merged.jsonl`. All of it is out-of-band: the
//! stats/recorder sinks never touch the JSONL dump, so the byte-identity
//! contract with channel mode is unaffected.

use crate::arq::FaultConfig;
use crate::deploy::DeployConfig;
use crate::net::{CoordLink, CtrlMsg, TransportKind, CHUNK_PAIRS};
use crate::partition::{partition, ShardPlan};
use crate::sim::{initial_profile, FrameApplied, LaneState, ShardLane};
use rand::rngs::StdRng;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use vcs_core::bounds::slot_upper_bound;
use vcs_core::ids::{RouteId, UserId};
use vcs_obs::wire::{Reader, Writer};
use vcs_obs::{
    FanoutSubscriber, FlightRecorder, JsonlSubscriber, NetStats, Obs, StatsSubscriber, Subscriber,
    TelemetryFrame, WatchdogConfig, WatchdogSubscriber,
};

/// Everything a worker process needs to reconstruct its shard of the
/// deployment deterministically: the full game parameters (the game is
/// re-derived, never shipped) plus its shard id and the coordinator's
/// address.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// This worker's shard id.
    pub shard: usize,
    /// Coordinator port on localhost.
    pub coord_port: u16,
    /// Socket transport to dial ([`TransportKind::Channel`] is invalid
    /// here).
    pub transport: TransportKind,
    /// The deployment parameters shared with the coordinator.
    pub deploy: DeployConfig,
}

const CKPT_MAGIC: [u8; 4] = *b"VCSW";
const CKPT_VERSION: u16 = 1;

/// A worker's durable round-boundary state. See the module docs for what
/// is (and deliberately is not) covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WorkerCheckpoint {
    pub(crate) shard: u32,
    /// Last fully completed coordinator round this state covers.
    pub(crate) round: u32,
    /// Flushed JSONL dump length at checkpoint time — the resume
    /// truncation point.
    pub(crate) jsonl_off: u64,
    pub(crate) lane: LaneState,
    /// Encoded engine [`vcs_online::Snapshot`].
    pub(crate) snapshot: Vec<u8>,
}

impl WorkerCheckpoint {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let lane = &self.lane;
        let mut out = Vec::with_capacity(64 + lane.applied.len() * 8 + self.snapshot.len());
        out.extend_from_slice(&CKPT_MAGIC);
        out.put_u16(CKPT_VERSION);
        out.put_u32(self.shard);
        out.put_u32(self.round);
        out.put_u64(lane.slots);
        for word in lane.rng.state() {
            out.put_u64(word);
        }
        out.put_u64(lane.stamp.0);
        out.put_u64(lane.stamp.1);
        out.put_u64(self.jsonl_off);
        out.put_len(lane.applied.len());
        for &hi in &lane.applied {
            out.put_u64(hi);
        }
        out.put_u64(self.snapshot.len() as u64);
        out.extend_from_slice(&self.snapshot);
        out
    }

    pub(crate) fn decode(buf: &[u8]) -> io::Result<Self> {
        let bad =
            |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("checkpoint: {msg}"));
        let mut r = Reader::new(buf);
        if r.array()? != CKPT_MAGIC {
            return Err(bad("bad magic"));
        }
        if r.u16()? != CKPT_VERSION {
            return Err(bad("unknown version"));
        }
        let shard = r.u32()?;
        let round = r.u32()?;
        let slots = r.u64()?;
        let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let stamp = (r.u64()?, r.u64()?);
        let jsonl_off = r.u64()?;
        let n_applied = r.len(8)?;
        let applied = (0..n_applied).map(|_| r.u64()).collect::<Result<_, _>>()?;
        let snap_len = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
        let snapshot = r.bytes(snap_len)?.to_vec();
        r.finish()?;
        Ok(WorkerCheckpoint {
            shard,
            round,
            jsonl_off,
            lane: LaneState {
                rng: StdRng::from_state(rng),
                slots,
                stamp,
                applied,
            },
            snapshot,
        })
    }

    /// Atomically persists the checkpoint (temp file + rename): a crash
    /// mid-write leaves the previous checkpoint intact.
    pub(crate) fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)
    }
}

/// The worker's live state: the lane plus the protocol bookkeeping around
/// it. `handle` is a pure-ish message → replies step so the protocol logic
/// is unit-testable without sockets.
pub(crate) struct Worker {
    shard: usize,
    plan: ShardPlan,
    lane: ShardLane,
    jsonl: Arc<JsonlSubscriber>,
    dog: Arc<WatchdogSubscriber>,
    /// This process's aggregate counters/histograms — the source of its
    /// telemetry frames. Fanned in next to the JSONL sink, never writing a
    /// byte of the dump itself.
    stats: Arc<StatsSubscriber>,
    /// The always-on flight recorder (panic hook + checkpoint dumps).
    recorder: Arc<FlightRecorder>,
    recorder_path: PathBuf,
    /// Whether telemetry streaming (and checkpoint recorder dumps) is on.
    telemetry: bool,
    /// Per-process telemetry frame counter.
    telemetry_seq: u64,
    ckpt_path: PathBuf,
    interior_cap: u64,
    buf: Vec<(UserId, RouteId)>,
}

impl Worker {
    /// Builds the worker for `cfg.shard`, restoring from its checkpoint
    /// file when one exists. Returns the worker and the round its state
    /// covers (0 = fresh).
    pub(crate) fn build(cfg: &WorkerConfig) -> io::Result<(Self, u32)> {
        let d = &cfg.deploy;
        let s = cfg.shard;
        let game = d.game();
        let plan = partition(&game, d.shards);
        let ckpt_path = d.out_dir.join(format!("ckpt-{s}.bin"));
        let dump_path = d.out_dir.join(format!("shard-{s}.jsonl"));
        let restored = match std::fs::read(&ckpt_path) {
            Ok(bytes) => Some(WorkerCheckpoint::decode(&bytes)?),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };

        let (jsonl, mut lane, ckpt_round) = match restored {
            Some(ck) => {
                if ck.shard != s as u32 || ck.lane.applied.len() != d.shards {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "checkpoint does not match this deployment",
                    ));
                }
                let jsonl = Arc::new(JsonlSubscriber::resume_at(&dump_path, ck.jsonl_off)?);
                let lane = ShardLane::restore(&game, &plan, s, &ck.snapshot, ck.lane)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
                (jsonl, lane, ck.round)
            }
            None => {
                let jsonl = Arc::new(JsonlSubscriber::create(&dump_path)?);
                let lane = ShardLane::new(&game, &plan, s, &initial_profile(&game, d.seed), d.seed);
                (jsonl, lane, 0)
            }
        };

        let budget = slot_upper_bound(lane.engine.game(), d.delta_p_min);
        let dog = Arc::new(WatchdogSubscriber::new(WatchdogConfig {
            slot_budget: budget.is_finite().then(|| budget.ceil() as u64),
            ..WatchdogConfig::default()
        }));
        let stats = Arc::new(StatsSubscriber::new());
        let recorder = Arc::new(FlightRecorder::new(1 << 12));
        let recorder_path = d.out_dir.join(format!("recorder-{s}.jsonl"));
        let sinks: Vec<Arc<dyn Subscriber>> =
            vec![jsonl.clone(), dog.clone(), stats.clone(), recorder.clone()];
        // NOTE: set_obs emits EngineInit — on a fresh start this matches
        // channel mode exactly; after a restart it adds one (harmlessly
        // unstamped) extra EngineInit at the resume point.
        lane.set_obs(FanoutSubscriber::obs(sinks));
        // The worker's own phase spans go to stats + recorder only, so
        // `SpanRecorded` events never perturb the deterministic JSONL dump.
        lane.span_obs = FanoutSubscriber::obs(vec![
            stats.clone() as Arc<dyn Subscriber>,
            recorder.clone() as Arc<dyn Subscriber>,
        ]);

        Ok((
            Worker {
                shard: s,
                plan,
                lane,
                jsonl,
                dog,
                stats,
                recorder,
                recorder_path,
                telemetry: d.telemetry,
                telemetry_seq: 0,
                ckpt_path,
                interior_cap: d.interior_cap,
                buf: Vec::new(),
            },
            ckpt_round,
        ))
    }

    /// Installs the process-wide panic hook that dumps the flight
    /// recorder's tail to `recorder-{s}.jsonl` when any thread dies.
    pub(crate) fn install_panic_hook(&self) {
        self.recorder.install_panic_hook(self.recorder_path.clone());
    }

    /// Snapshots this process's observability state into the next telemetry
    /// frame (monotonic per-process `seq`; incarnation 0 — the coordinator
    /// stamps the true incarnation at ingest).
    pub(crate) fn telemetry_frame(&mut self, net: NetStats) -> TelemetryFrame {
        self.telemetry_seq += 1;
        TelemetryFrame::capture(
            self.shard as u32,
            self.telemetry_seq,
            &self.stats,
            Some(&self.dog),
            net,
        )
    }

    /// Executes one control message, returning the replies to send (in
    /// order) and whether the run is over.
    pub(crate) fn handle(&mut self, msg: CtrlMsg) -> io::Result<(Vec<CtrlMsg>, bool)> {
        let mut out = Vec::new();
        let user_id = |user: u32| UserId::from_index(user as usize);
        let pair = |(g, r): (UserId, RouteId)| (g.index() as u32, r.index() as u32);
        match msg {
            CtrlMsg::RunInterior { round } => {
                self.buf.clear();
                self.lane
                    .converge_interior(self.interior_cap, &mut self.buf);
                let moves: Vec<(u32, u32)> = self.buf.iter().copied().map(pair).collect();
                for chunk in moves.chunks(CHUNK_PAIRS) {
                    out.push(CtrlMsg::InteriorPart {
                        moves: chunk.to_vec(),
                    });
                }
                out.push(CtrlMsg::InteriorDone {
                    round,
                    converged: self.lane.converged,
                    slots: self.lane.slots,
                    moves: moves.len() as u32,
                });
            }
            CtrlMsg::BestRespond { user } => {
                let routes = self.lane.best_routes(user_id(user));
                out.push(CtrlMsg::Routes {
                    user,
                    routes: routes.iter().map(|r| r.index() as u32).collect(),
                });
            }
            CtrlMsg::Commit { user, route } => {
                let route = RouteId::from_index(route as usize);
                let frame = self.lane.commit(user_id(user), route).to_vec();
                out.push(CtrlMsg::Committed { frame });
            }
            CtrlMsg::Apply { frame } => out.push(match self.lane.apply_frame(&frame)? {
                FrameApplied::Ack { seq } => CtrlMsg::Applied { seq },
                FrameApplied::Gap { shard, from_seq } => CtrlMsg::FrameGap { shard, from_seq },
            }),
            CtrlMsg::Checkpoint { round } => {
                self.write_checkpoint(round)?;
                if self.telemetry {
                    // Refresh the post-mortem tail at every checkpoint: a
                    // SIGKILL gives no panic hook a chance to fire, but the
                    // last checkpoint's dump survives for the coordinator
                    // to ship into `merged.jsonl`. Best-effort by design —
                    // a failed dump must not take the worker down.
                    let _ = self.recorder.dump_jsonl(&self.recorder_path);
                }
                out.push(CtrlMsg::CheckpointDone { round });
            }
            CtrlMsg::Finish => {
                let entries: Vec<(u32, u32)> =
                    self.lane.home_choices(&self.plan).map(pair).collect();
                for chunk in entries.chunks(CHUNK_PAIRS) {
                    out.push(CtrlMsg::DonePart {
                        entries: chunk.to_vec(),
                    });
                }
                self.jsonl.flush()?;
                out.push(CtrlMsg::Done {
                    shard: self.shard as u32,
                    alerts: self.dog.alert_count() as u64,
                    slots: self.lane.slots,
                    entries: entries.len() as u32,
                });
                return Ok((out, true));
            }
            other => {
                return Err(io::Error::other(format!(
                    "worker got unexpected message {other:?}"
                )));
            }
        }
        Ok((out, false))
    }

    fn write_checkpoint(&mut self, round: u32) -> io::Result<()> {
        let (snapshot, lane) = self.lane.checkpoint();
        let ck = WorkerCheckpoint {
            shard: self.shard as u32,
            round,
            jsonl_off: self.jsonl.flushed_len()?,
            lane,
            snapshot,
        };
        ck.write_atomic(&self.ckpt_path)
    }
}

/// Runs a shard worker process to completion: connect, `Hello`, then serve
/// the coordinator's control messages until `Finish`.
///
/// # Errors
///
/// Transport failures, a corrupt checkpoint, or a protocol violation. A
/// recv timeout (the coordinator has been silent for two minutes) is also
/// an error — the worker exits rather than orphan itself.
pub fn run_worker(cfg: &WorkerConfig) -> io::Result<()> {
    vcs_bench::threads::configure_threads(cfg.deploy.threads);
    let (mut worker, ckpt_round) = Worker::build(cfg)?;
    worker.install_panic_hook();
    let net_obs = match cfg.transport {
        TransportKind::Udp => {
            let path = cfg.deploy.out_dir.join(format!("net-{}.jsonl", cfg.shard));
            Obs::new(Arc::new(JsonlSubscriber::create(&path)?))
        }
        _ => Obs::disabled(),
    };
    // Each side of a lossy link injects faults on its own outbound
    // datagrams; the seeds differ per direction so the two streams are
    // independent.
    let fault = if cfg.transport == TransportKind::Udp {
        cfg.deploy.fault
    } else {
        FaultConfig::clean()
    };
    let mut link = CoordLink::connect(
        cfg.transport,
        &format!("127.0.0.1:{}", cfg.coord_port),
        fault,
        cfg.deploy
            .net_seed
            .wrapping_add(1 + cfg.shard as u64)
            .rotate_left(17),
        net_obs,
    )?;
    link.send(&CtrlMsg::Hello {
        shard: cfg.shard as u32,
        ckpt_round,
    })?;
    loop {
        let msg = link.recv(Duration::from_secs(120))?;
        // Telemetry rides ahead of the phase-boundary replies so the
        // coordinator folds the freshest snapshot while it is already
        // receiving from this shard. Strictly out-of-band: the coordinator
        // ingests and skips these without touching the lock-step protocol.
        let telemetry_due = cfg.deploy.telemetry
            && matches!(
                msg,
                CtrlMsg::RunInterior { .. } | CtrlMsg::Checkpoint { .. } | CtrlMsg::Finish
            );
        let (replies, finished) = worker.handle(msg)?;
        if telemetry_due {
            let frame = worker.telemetry_frame(link.net_stats());
            link.send(&CtrlMsg::Telemetry {
                bytes: frame.encode(),
            })?;
        }
        for reply in &replies {
            link.send(reply)?;
        }
        if finished {
            link.drain(Duration::from_secs(10));
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkerCheckpoint {
        WorkerCheckpoint {
            shard: 2,
            round: 9,
            jsonl_off: 8899,
            lane: LaneState {
                rng: StdRng::from_state([1, 2, 3, 4]),
                slots: 1234,
                stamp: (17, 41),
                applied: vec![5, 0, 7],
            },
            snapshot: vec![9u8; 100],
        }
    }

    /// FNV-1a-64 over the encoded length and bytes of a fixed checkpoint,
    /// recorded before the codec moved onto `vcs_obs::wire`: the on-disk
    /// layout must not change.
    #[test]
    fn checkpoint_bytes_match_their_golden_digest() {
        let mut ck = sample();
        ck.lane.rng = StdRng::from_state([u64::MAX, 0, 1 << 63, 0x0123_4567_89ab_cdef]);
        ck.snapshot = (0..=255u8).collect();
        let bytes = ck.encode();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(h, 0xff28_91f8_e2e2_0fe4, "{h:#018x}");
    }

    #[test]
    fn checkpoint_codec_round_trips_and_rejects_corruption() {
        let ck = sample();
        let bytes = ck.encode();
        assert_eq!(WorkerCheckpoint::decode(&bytes).unwrap(), ck);
        assert!(WorkerCheckpoint::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(WorkerCheckpoint::decode(&bad_magic).is_err());
        // Hostile applied-table length: promises more entries than bytes.
        let mut hostile = bytes.clone();
        // applied-count offset: 4 magic + 2 ver + 4 shard + 4 round +
        // 8 slots + 32 rng + 8 seq + 8 clock + 8 off = 78.
        hostile[78..82].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(WorkerCheckpoint::decode(&hostile).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(WorkerCheckpoint::decode(&trailing).is_err());
    }
}
