//! Multi-threaded runtime: one OS thread per user agent plus the platform on
//! the calling thread, exchanging **encoded byte frames** over
//! `std::sync::mpsc` channels — the in-process analogue of the networked
//! deployment the paper sketches (each user's smartphone runs Alg. 1, the
//! platform runs Alg. 2).
//!
//! The protocol is slot-synchronous: the platform sends a round of frames,
//! then waits for exactly the replies that round elicits. Replies are
//! sorted by user id and stamped in that order, so thread scheduling
//! changes neither the outcome nor the trace. The outcome is identical to
//! [`crate::sync_runtime::run_sync`] with the same seed (tested in the
//! workspace integration tests).

use crate::agent::UserAgent;
use crate::driver::{Driver, Link, Wire};
use crate::platform::SchedulerKind;
use crate::protocol::{PlatformMsg, UserMsg};
use crate::sync_runtime::{ChurnOutcome, RuntimeOutcome};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use vcs_core::ids::UserId;
use vcs_core::{ChurnEvent, Game};
use vcs_obs::{Obs, SpanKind, PLATFORM_SENDER};

/// One encoded protocol frame, moved (never shared) across a channel.
type Frame = Vec<u8>;

/// Runs the agent event loop on its own thread until `Terminate`.
/// `announce` sends the initial decision first (Alg. 1 line 4) — start-up
/// agents announce; agents joining mid-game already shipped their initial
/// choice inside the `Join` frame.
fn agent_thread(
    mut agent: UserAgent,
    inbox: Receiver<Frame>,
    outbox: Sender<(UserId, Frame)>,
    announce: bool,
) {
    if announce {
        outbox
            .send((agent.id, agent.initial_message().encode()))
            .expect("platform inbox open");
    }
    while let Ok(frame) = inbox.recv() {
        let msg = PlatformMsg::decode(&frame).expect("well-formed platform frame");
        let terminate = matches!(msg, PlatformMsg::Terminate);
        if let Some(reply) = agent.handle(msg) {
            outbox
                .send((agent.id, reply.encode()))
                .expect("platform inbox open");
        }
        if terminate {
            break;
        }
    }
}

/// Whether an agent answers `msg` (`Counts` with a request or silence,
/// `Grant` with its confirmation).
fn elicits_reply(msg: &PlatformMsg) -> bool {
    matches!(msg, PlatformMsg::Counts { .. } | PlatformMsg::Grant)
}

/// The threaded link: each live agent's mailbox and thread, and the shared
/// platform inbox every agent replies to.
struct Threads {
    agents: Vec<Option<(Sender<Frame>, JoinHandle<()>)>>,
    inbox: Receiver<(UserId, Frame)>,
    outbox: Sender<(UserId, Frame)>,
}

impl Threads {
    fn new() -> Self {
        let (outbox, inbox) = channel();
        Self {
            agents: Vec::new(),
            inbox,
            outbox,
        }
    }

    /// Waits for `n` replies, then counts, stamps and decodes them in user
    /// id order.
    fn collect(&self, n: usize, wire: &mut Wire) -> Vec<(UserId, UserMsg)> {
        let obs = wire.obs;
        let mut frames: Vec<(UserId, Frame)> = (0..n)
            .map(|_| {
                obs.time(SpanKind::ChannelWait, || {
                    self.inbox.recv().expect("agents alive")
                })
            })
            .collect();
        frames.sort_by_key(|&(user, _)| user);
        frames
            .into_iter()
            .map(|(user, frame)| {
                wire.frame(user.index() as u32, PLATFORM_SENDER, frame.len());
                let msg = obs.time(SpanKind::FrameDecode, || {
                    UserMsg::decode(&frame).expect("well-formed user frame")
                });
                (user, msg)
            })
            .collect()
    }
}

impl Link for Threads {
    fn admit(&mut self, agent: UserAgent, announce: bool, wire: &mut Wire) -> Option<UserMsg> {
        debug_assert_eq!(self.agents.len(), agent.id.index());
        let (to_agent, inbox) = channel();
        let outbox = self.outbox.clone();
        let handle = std::thread::spawn(move || agent_thread(agent, inbox, outbox, announce));
        self.agents.push(Some((to_agent, handle)));
        announce.then(|| self.collect(1, wire).pop().expect("one announcement").1)
    }

    fn round(
        &mut self,
        msgs: Vec<(UserId, PlatformMsg)>,
        wire: &mut Wire,
    ) -> Vec<(UserId, UserMsg)> {
        let mut expected = 0;
        for (user, msg) in msgs {
            expected += usize::from(elicits_reply(&msg));
            let frame = wire.obs.time(SpanKind::FrameEncode, || msg.encode());
            wire.frame(PLATFORM_SENDER, user.index() as u32, frame.len());
            let (to_agent, _) = self.agents[user.index()]
                .as_ref()
                .expect("message to a live agent");
            to_agent.send(frame).expect("agent alive");
        }
        self.collect(expected, wire)
    }

    fn retire(&mut self, user: UserId) {
        let (to_agent, handle) = self.agents[user.index()]
            .take()
            .expect("retiring a live agent");
        drop(to_agent);
        handle.join().expect("agent thread panicked");
    }
}

/// Runs the full protocol with one thread per user agent.
///
/// `seed` drives the same initial decisions and scheduler draws as
/// [`run_sync`](crate::sync_runtime::run_sync); the outcome is identical.
/// `obs` receives the same kinds of events as under `run_sync`, all
/// emitted from the platform thread.
pub fn run_threaded(
    game: &Game,
    scheduler: SchedulerKind,
    seed: u64,
    max_slots: usize,
    obs: &Obs,
) -> RuntimeOutcome {
    Driver::start(game, scheduler, seed, Threads::new(), obs)
        .run(max_slots)
        .0
}

/// Runs the churn-enabled protocol with one thread per *live* user agent:
/// agents joining mid-game get their own freshly spawned thread, leaving
/// agents are terminated and joined. Identical to
/// [`run_sync_churn`](crate::sync_runtime::run_sync_churn) for the same seed
/// and event stream (tested in the workspace integration tests).
pub fn run_threaded_churn(
    game: &Game,
    scheduler: SchedulerKind,
    seed: u64,
    max_slots_per_epoch: usize,
    epochs: &[Vec<ChurnEvent>],
    obs: &Obs,
) -> ChurnOutcome {
    Driver::start(game, scheduler, seed, Threads::new(), obs).run_churn(max_slots_per_epoch, epochs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync_runtime::run_sync;
    use vcs_core::examples::fig1_instance;
    use vcs_core::response::is_nash;

    #[test]
    fn threaded_reaches_nash() {
        let game = fig1_instance();
        let out = run_threaded(&game, SchedulerKind::Puu, 11, 10_000, &Obs::disabled());
        assert!(out.converged);
        assert!(is_nash(&game, &out.profile));
    }

    #[test]
    fn threaded_matches_sync_bit_for_bit() {
        let game = fig1_instance();
        for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
            for seed in 0..6u64 {
                let sync = run_sync(&game, scheduler, seed, 10_000, &Obs::disabled());
                let threaded = run_threaded(&game, scheduler, seed, 10_000, &Obs::disabled());
                assert_eq!(sync, threaded, "divergence at seed {seed}");
            }
        }
    }

    #[test]
    fn threaded_churn_matches_sync_churn() {
        let game = fig1_instance();
        let epochs = crate::sync_runtime::tests::fig1_stream();
        for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
            for seed in 0..4u64 {
                let sync = crate::sync_runtime::run_sync_churn(
                    &game,
                    scheduler,
                    seed,
                    10_000,
                    &epochs,
                    &Obs::disabled(),
                );
                let threaded =
                    run_threaded_churn(&game, scheduler, seed, 10_000, &epochs, &Obs::disabled());
                assert_eq!(sync, threaded, "churn divergence at seed {seed}");
                assert!(threaded.converged);
            }
        }
    }
}
