//! Golden digests of the six message-passing runtimes: pins each runner's
//! outcome and observable event stream, so a refactor of the platform loop
//! or of a transport must reproduce them exactly.
//!
//! Every run records into a [`RingBufferSubscriber`]; the stream is split
//! into classes and each class is digested on its own (FNV-1a-64):
//!
//! * **frames** — `FrameSent` / `FrameReceived` / `FrameDropped` /
//!   `Retransmission` with their byte counts and causal `(seq, lamport)`
//!   stamps;
//! * **engine** — `EngineInit`, `MoveCommitted`, `UserJoined`, `UserLeft`;
//! * **control** — `SlotCompleted`, `EpochStarted`, `EpochConverged`,
//!   `RunCompleted`;
//! * **responses** — per segment between control events, how many
//!   `ResponseEvaluated` replies were improving and how many were not.
//!
//! `SpanRecorded` is not digested (a transport may time more or fewer
//! sections), and classes are digested separately, so events of different
//! classes may interleave differently within a slot.
//!
//! The threaded runners stamp uplink frames as they arrive on the shared
//! channel, so their Lamport clocks and the order of frames within a round
//! depend on thread scheduling. Their frame class is digested as the sorted
//! multiset of `(kind, bytes, seq)` per segment instead.

use std::fmt::Debug;
use std::sync::Arc;
use vcs::core::examples::fig1_instance;
use vcs::core::ids::{RouteId, UserId};
use vcs::core::{ChurnEvent, UserSpec};
use vcs::prelude::*;
use vcs::runtime::{run_lossy, run_stale, LossConfig};

const MAX_SLOTS: usize = 100_000;
const STALE_REFRESH: usize = 2;

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

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Runner {
    Sync,
    SyncChurn,
    Threaded,
    ThreadedChurn,
    Lossy,
    Stale,
}

const RUNNERS: [Runner; 6] = [
    Runner::Sync,
    Runner::SyncChurn,
    Runner::Threaded,
    Runner::ThreadedChurn,
    Runner::Lossy,
    Runner::Stale,
];

/// Runs one runner under `obs` and returns its outcome's `Debug`.
fn run(
    runner: Runner,
    game: &Game,
    epochs: &[Vec<ChurnEvent>],
    scheduler: SchedulerKind,
    seed: u64,
    obs: &Obs,
) -> String {
    fn show(outcome: impl Debug) -> String {
        format!("{outcome:?}")
    }
    match runner {
        Runner::Sync => show(run_sync(game, scheduler, seed, MAX_SLOTS, obs)),
        Runner::SyncChurn => show(run_sync_churn(
            game, scheduler, seed, MAX_SLOTS, epochs, obs,
        )),
        Runner::Threaded => show(run_threaded(game, scheduler, seed, MAX_SLOTS, obs)),
        Runner::ThreadedChurn => show(run_threaded_churn(
            game, scheduler, seed, MAX_SLOTS, epochs, obs,
        )),
        Runner::Lossy => {
            let loss = LossConfig::hostile(seed.wrapping_add(7));
            show(run_lossy(game, scheduler, seed, MAX_SLOTS, &loss, obs))
        }
        Runner::Stale => show(run_stale(
            game,
            scheduler,
            seed,
            MAX_SLOTS,
            STALE_REFRESH,
            obs,
        )),
    }
}

/// Running digests of one runner over several runs, one per class.
#[derive(Default)]
struct Digests {
    outcome: Option<Fnv>,
    frames: Option<Fnv>,
    engine: Option<Fnv>,
    control: Option<Fnv>,
    responses: Option<Fnv>,
}

fn h(slot: &mut Option<Fnv>) -> &mut Fnv {
    slot.get_or_insert_with(Fnv::new)
}

/// `(class tag, bytes, seq, lamport)` of a frame-class event.
fn frame_fields(event: &Event) -> Option<(u64, u64, u64, u64)> {
    match *event {
        Event::FrameSent {
            bytes,
            seq,
            lamport,
        } => Some((1, bytes.into(), seq, lamport)),
        Event::FrameReceived {
            bytes,
            seq,
            lamport,
        } => Some((2, bytes.into(), seq, lamport)),
        Event::FrameDropped {
            bytes,
            seq,
            lamport,
        } => Some((3, bytes.into(), seq, lamport)),
        Event::Retransmission {
            attempt,
            seq,
            lamport,
        } => Some((4, attempt.into(), seq, lamport)),
        _ => None,
    }
}

impl Digests {
    fn add(&mut self, outcome: &str, events: &[Event], racy_frames: bool) {
        h(&mut self.outcome).bytes(outcome.as_bytes());
        let mut segment_frames: Vec<(u64, u64, u64)> = Vec::new();
        let (mut improving, mut idle) = (0u64, 0u64);
        for event in events {
            if let Some((tag, bytes, seq, lamport)) = frame_fields(event) {
                if racy_frames {
                    segment_frames.push((tag, bytes, seq));
                } else {
                    let f = h(&mut self.frames);
                    for v in [tag, bytes, seq, lamport] {
                        f.u64(v);
                    }
                }
                continue;
            }
            match *event {
                Event::EngineInit {
                    users,
                    tasks,
                    phi,
                    total_profit,
                } => {
                    let e = h(&mut self.engine);
                    e.u64(0);
                    e.u64(users.into());
                    e.u64(tasks.into());
                    e.f64(phi);
                    e.f64(total_profit);
                }
                Event::MoveCommitted {
                    user,
                    from_route,
                    to_route,
                    phi_delta,
                    profit_delta,
                    phi,
                    total_profit,
                } => {
                    let e = h(&mut self.engine);
                    e.u64(1);
                    e.u64(user.into());
                    e.u64(from_route.into());
                    e.u64(to_route.into());
                    for v in [phi_delta, profit_delta, phi, total_profit] {
                        e.f64(v);
                    }
                }
                Event::UserJoined {
                    user,
                    phi,
                    total_profit,
                } => {
                    let e = h(&mut self.engine);
                    e.u64(2);
                    e.u64(user.into());
                    e.f64(phi);
                    e.f64(total_profit);
                }
                Event::UserLeft {
                    user,
                    phi,
                    total_profit,
                } => {
                    let e = h(&mut self.engine);
                    e.u64(3);
                    e.u64(user.into());
                    e.f64(phi);
                    e.f64(total_profit);
                }
                Event::ResponseEvaluated { improving: i, .. } => {
                    if i {
                        improving += 1;
                    } else {
                        idle += 1;
                    }
                }
                Event::SlotCompleted { .. }
                | Event::EpochStarted { .. }
                | Event::EpochConverged { .. }
                | Event::RunCompleted { .. } => {
                    self.control_event(event);
                    let r = h(&mut self.responses);
                    r.u64(improving);
                    r.u64(idle);
                    (improving, idle) = (0, 0);
                    if racy_frames {
                        self.frame_segment(&mut segment_frames);
                    }
                }
                Event::SpanRecorded { .. } => {}
                other => panic!("runtime emitted an unexpected event {other:?}"),
            }
        }
        let r = h(&mut self.responses);
        r.u64(improving);
        r.u64(idle);
        if racy_frames {
            self.frame_segment(&mut segment_frames);
        }
    }

    fn control_event(&mut self, event: &Event) {
        let c = h(&mut self.control);
        match *event {
            Event::SlotCompleted {
                slot,
                updated,
                phi,
                total_profit,
            } => {
                c.u64(0);
                c.u64(slot);
                c.u64(updated.into());
                c.f64(phi);
                c.f64(total_profit);
            }
            Event::EpochStarted {
                epoch,
                joins,
                leaves,
                active,
            } => {
                c.u64(1);
                for v in [epoch, joins, leaves, active] {
                    c.u64(v.into());
                }
            }
            Event::EpochConverged {
                epoch,
                slots,
                converged,
                phi,
            } => {
                c.u64(2);
                c.u64(epoch.into());
                c.u64(slots);
                c.u64(converged.into());
                c.f64(phi);
            }
            Event::RunCompleted {
                slots,
                updates,
                converged,
                phi,
            } => {
                c.u64(3);
                c.u64(slots);
                c.u64(updates);
                c.u64(converged.into());
                c.f64(phi);
            }
            _ => unreachable!("not a control event"),
        }
    }

    fn frame_segment(&mut self, frames: &mut Vec<(u64, u64, u64)>) {
        frames.sort_unstable();
        let f = h(&mut self.frames);
        f.u64(frames.len() as u64);
        for &(tag, bytes, seq) in frames.iter() {
            f.u64(tag);
            f.u64(bytes);
            f.u64(seq);
        }
        frames.clear();
    }

    fn finish(&self) -> [u64; 5] {
        [
            &self.outcome,
            &self.frames,
            &self.engine,
            &self.control,
            &self.responses,
        ]
        .map(|d| d.as_ref().map_or(0, |f| f.0))
    }
}

/// A 15-user Shanghai scenario game.
fn shanghai_game() -> Game {
    UserPool::build(Dataset::Shanghai, 1).instantiate(&ScenarioConfig {
        n_users: 15,
        n_tasks: 30,
        seed: 3,
        params: ScenarioParams::default(),
    })
}

/// Two churn batches against `game`: two clones of existing users join,
/// then the first joiner and an incumbent leave.
fn churn_stream(game: &Game) -> Vec<Vec<ChurnEvent>> {
    let m = game.user_count();
    let clone_of = |u: usize, initial: usize| {
        let user = &game.users()[u];
        ChurnEvent::Join {
            spec: UserSpec::new(user.prefs, user.routes.clone()),
            initial: RouteId::from_index(initial % user.routes.len()),
        }
    };
    vec![
        vec![clone_of(0, 1), clone_of(m - 1, 0)],
        vec![
            ChurnEvent::Leave {
                user: UserId::from_index(m),
            },
            ChurnEvent::Leave { user: UserId(1) },
        ],
    ]
}

/// Digests of `runner` over both games × both schedulers × seeds 0..3.
fn digests(runner: Runner) -> [[u64; 5]; 2] {
    let racy = matches!(runner, Runner::Threaded | Runner::ThreadedChurn);
    [fig1_instance(), shanghai_game()].map(|game| {
        let epochs = churn_stream(&game);
        let mut d = Digests::default();
        for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
            for seed in 0..3u64 {
                let ring = Arc::new(RingBufferSubscriber::new(1 << 20));
                let outcome = run(
                    runner,
                    &game,
                    &epochs,
                    scheduler,
                    seed,
                    &Obs::new(ring.clone()),
                );
                let events = ring.events();
                assert_eq!(events.len() as u64, ring.total(), "ring overflowed");
                d.add(&outcome, &events, racy);
            }
        }
        d.finish()
    })
}

/// `[outcome, frames, engine, control, responses]` per runner, for
/// `[fig1, shanghai-15]`.
#[rustfmt::skip]
const GOLDEN: [(Runner, [[u64; 5]; 2]); 6] = [
    (Runner::Sync, [[0x099b7c357c2e5da7, 0x0d7afb18af88e4a5, 0x54e1d2b55b97c1cd, 0xaf1883edfb4b9965, 0x1f17be590f9c81e5], [0x77f3959126028f7c, 0x65f8a92a23c5b075, 0xdda528d83c077350, 0xb5cc390eef8e5fbe, 0x7a1448e6f2d3ca68]]),
    (Runner::SyncChurn, [[0x9cf422b8fbd0a055, 0xe69cc3dc0ef0daa5, 0x1c818f3b8fd1af71, 0xdf934119d4273bc5, 0x5d7b7237c8c681e5], [0xfbadcb359b655969, 0x3984e6c708f7a421, 0x5c4fde08a2892344, 0x5865810e99d87f6e, 0xeebf4899f37a51ac]]),
    (Runner::Threaded, [[0x099b7c357c2e5da7, 0x7d101546e7c01bc5, 0x54e1d2b55b97c1cd, 0xaf1883edfb4b9965, 0x1f17be590f9c81e5], [0x77f3959126028f7c, 0xecf33042d6d654f5, 0x05b407421227df65, 0xb5cc390eef8e5fbe, 0x7a1448e6f2d3ca68]]),
    (Runner::ThreadedChurn, [[0x9cf422b8fbd0a055, 0xbeac075106915a85, 0x1c818f3b8fd1af71, 0xdf934119d4273bc5, 0x5d7b7237c8c681e5], [0xfbadcb359b655969, 0xd864815aa018d835, 0xd51f180e27671c54, 0x5865810e99d87f6e, 0xeebf4899f37a51ac]]),
    (Runner::Lossy, [[0xeabd4ed74191dc25, 0x294aba4a2762f265, 0x54e1d2b55b97c1cd, 0xaf1883edfb4b9965, 0x1f17be590f9c81e5], [0xc497decf0857e600, 0x77b217a00a78f5a3, 0xdda528d83c077350, 0xb5cc390eef8e5fbe, 0x7a1448e6f2d3ca68]]),
    (Runner::Stale, [[0x507e5919276065ad, 0x5401e928fe89f165, 0x54e1d2b55b97c1cd, 0xaf1883edfb4b9965, 0xc3e27630b8340f65], [0xa8e7292a6babc2c0, 0x1157accb5b1b9426, 0xc5f0f744240d59dc, 0x6d1e1ba259d6c5b0, 0x72c3cf4622e76a4b]]),
];

#[test]
fn runtimes_match_their_golden_digests() {
    let classes = ["outcome", "frames", "engine", "control", "responses"];
    let games = ["fig1", "shanghai-15"];
    let mut mismatches = Vec::new();
    for (runner, (golden_runner, golden)) in RUNNERS.into_iter().zip(GOLDEN) {
        assert_eq!(runner, golden_runner);
        let actual = digests(runner);
        let rows = actual.map(|row| row.map(|d| format!("{d:#018x}")).join(", "));
        println!("(Runner::{runner:?}, [[{}], [{}]]),", rows[0], rows[1]);
        for (g, (want, got)) in golden.iter().zip(&actual).enumerate() {
            for (c, (w, a)) in want.iter().zip(got).enumerate() {
                if w != a {
                    mismatches.push(format!("{runner:?}/{}/{}", games[g], classes[c]));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "digest mismatch: {mismatches:?}");
}
