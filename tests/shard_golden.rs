//! Golden digests of the sharded deployment: pins the in-process
//! coordinator ([`ShardedSim`]) and channel-mode `run_deployment`
//! artifacts, so a refactor of the shard lanes or of the coordinator round
//! must reproduce them exactly.
//!
//! Digested (FNV-1a-64):
//!
//! * **deployments** — `outcome.txt`, `merged.jsonl` and every
//!   `shard-*.jsonl` of a channel-mode run, for the library-test shape and
//!   the transport-oracle shape. TCP and lossy UDP are pinned transitively:
//!   the transport-oracle suite asserts they equal channel mode.
//! * **sim outcomes** — `choices`, `log`, `rounds`, `shard_slots`,
//!   `frames_sent` and `frame_bytes` of `ShardedSim` runs over shards
//!   {1, 3, 4} × seeds 0..3;
//! * **sim events** — each lane's event stream (`set_shard_obs` into a
//!   [`RingBufferSubscriber`]), as JSON lines, wall-clock spans excluded;
//! * **resume** — the same runs checkpointed after two `step_round`s and
//!   resumed to the end.

use std::path::PathBuf;
use std::sync::Arc;
use vcs::obs::trace::event_to_json;
use vcs::prelude::*;
use vcs::shard::{run_deployment, DeployConfig, ShardedOutcome, TransportKind};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// Channel-mode artifacts of one deployment shape, in the order
/// `outcome.txt`, `merged.jsonl`, `shard-0.jsonl`, `shard-1.jsonl`, ….
fn deployment_digests(tag: &str, mut cfg: DeployConfig) -> Vec<(String, u64)> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("shard_golden_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cfg.out_dir = dir.clone();
    let outcome = run_deployment(&cfg, TransportKind::Channel).expect("channel deployment");
    assert!(outcome.converged, "{tag}: the golden shape converges");
    let mut names = vec!["outcome.txt".to_string(), "merged.jsonl".to_string()];
    names.extend((0..cfg.shards).map(|s| format!("shard-{s}.jsonl")));
    let digests = names
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).expect("artifact written");
            let d = digest(&bytes);
            (name, d)
        })
        .collect();
    let _ = std::fs::remove_dir_all(dir);
    digests
}

fn check(what: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(
        got, want,
        "{what}: golden digests moved (left = this tree, right = pinned)"
    );
}

const LIBRARY_SHAPE: [(&str, u64); 5] = [
    ("outcome.txt", 139169231078480719),
    ("merged.jsonl", 8433405426045696942),
    ("shard-0.jsonl", 31442403674348864),
    ("shard-1.jsonl", 8250988435854333714),
    ("shard-2.jsonl", 10195915147201295174),
];

const ORACLE_SHAPE: [(&str, u64); 6] = [
    ("outcome.txt", 6257421877728685081),
    ("merged.jsonl", 2114543894073669727),
    ("shard-0.jsonl", 15019855136386288253),
    ("shard-1.jsonl", 1407364952617930739),
    ("shard-2.jsonl", 6901365966907486246),
    ("shard-3.jsonl", 17656758898357944182),
];

#[test]
fn channel_deployment_artifacts_match_their_golden_digests() {
    let library = deployment_digests("lib", DeployConfig::new(180, 180, 5, 3, 23));
    check("library shape", &library, &LIBRARY_SHAPE);
    let oracle = deployment_digests("oracle", DeployConfig::new(240, 240, 5, 4, 11));
    check("transport-oracle shape", &oracle, &ORACLE_SHAPE);
}

fn digest_outcome(h: &mut Fnv, o: &ShardedOutcome) {
    h.u64(o.choices.len() as u64);
    for r in &o.choices {
        h.u64(r.index() as u64);
    }
    h.u64(o.log.len() as u64);
    for &(u, r) in &o.log {
        h.u64(u.index() as u64);
        h.u64(r.index() as u64);
    }
    h.u64(u64::from(o.rounds));
    for &slots in &o.shard_slots {
        h.u64(slots);
    }
    h.u64(o.frames_sent);
    h.u64(o.frame_bytes);
}

const SHARD_COUNTS: [usize; 3] = [1, 3, 4];
const SEEDS: std::ops::Range<u64> = 0..3;

/// `(shards, outcome, events, resume)` digests per shard count, each
/// folded over seeds 0..3.
const SIM: [(usize, u64, u64, u64); 3] = [
    (
        1,
        13412138113887469666,
        10194163822532046658,
        17178996543461228057,
    ),
    (
        3,
        9495787813685049181,
        9912199574797125871,
        2463298778764518287,
    ),
    (
        4,
        3693185147136629135,
        7765967320423673279,
        2310752748885090189,
    ),
];

fn sim_game(seed: u64) -> Game {
    localized_game(120, 110, 5, seed)
}

#[test]
fn sharded_sim_runs_match_their_golden_digests() {
    let mut got = Vec::new();
    for shards in SHARD_COUNTS {
        let (mut outcome_h, mut events_h, mut resume_h) = (Fnv::new(), Fnv::new(), Fnv::new());
        for seed in SEEDS {
            let config = ShardConfig::new(shards, seed);
            let mut sim = ShardedSim::new(sim_game(seed), config.clone());
            let rings: Vec<Arc<RingBufferSubscriber>> = (0..shards)
                .map(|s| {
                    let ring = Arc::new(RingBufferSubscriber::new(1 << 18));
                    sim.set_shard_obs(s, Obs::new(ring.clone()));
                    ring
                })
                .collect();
            let outcome = sim.run();
            assert!(outcome.converged, "{shards} shards, seed {seed}: converges");
            assert!(
                shards == 1 || outcome.frames_sent > 0,
                "boundary frames flow"
            );
            assert!(
                shards == 1 || outcome.rounds > 2,
                "the checkpoint lands mid-run"
            );
            digest_outcome(&mut outcome_h, &outcome);
            for ring in &rings {
                let events = ring.events();
                assert_eq!(events.len() as u64, ring.total(), "ring holds every event");
                let mut lines = 0u64;
                for event in events {
                    if !matches!(event, Event::SpanRecorded { .. }) {
                        events_h.bytes(event_to_json(&event).as_bytes());
                        lines += 1;
                    }
                }
                events_h.u64(lines);
            }

            let mut head = ShardedSim::new(sim_game(seed), config.clone());
            head.step_round();
            head.step_round();
            let checkpoint = head.checkpoint();
            let mut tail =
                ShardedSim::resume(sim_game(seed), config, checkpoint).expect("decodable");
            let resumed = tail.run();
            assert_eq!(resumed.choices, outcome.choices, "resume retraces the run");
            digest_outcome(&mut resume_h, &resumed);
        }
        got.push((shards, outcome_h.0, events_h.0, resume_h.0));
    }
    assert_eq!(
        got, SIM,
        "ShardedSim golden digests moved (left = this tree, right = pinned)"
    );
}
