//! Deterministic in-process runtime: agents live on the platform's own
//! thread, yet every protocol frame is still **encoded** and decoded, in a
//! fixed order. The reference link of the shared platform loop; the
//! threaded runtime must produce identical outcomes (tested in `tests/`).
//!
//! The same link carries the lossy runtime
//! ([`run_lossy`](crate::resilience::run_lossy)): given a [`LossConfig`],
//! its channel drops frames i.i.d. and the sending end of each exchange
//! retransmits until delivery (stop-and-wait).

use crate::agent::UserAgent;
use crate::driver::{Driver, Link, Wire};
use crate::platform::SchedulerKind;
use crate::protocol::{PlatformMsg, UserMsg};
use crate::resilience::LossConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use vcs_core::ids::{RouteId, UserId};
use vcs_core::{ChurnEvent, Game, Profile};
use vcs_obs::{Obs, SpanKind, PLATFORM_SENDER};

/// Communication telemetry of a protocol run: how many frames and bytes
/// crossed the platform↔user boundary. The paper motivates the distributed
/// design by the platform's reduced computation; this quantifies the price
/// paid in communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Telemetry {
    /// Frames sent by the platform to users.
    pub platform_msgs: usize,
    /// Bytes in those frames.
    pub platform_bytes: usize,
    /// Frames sent by users to the platform.
    pub user_msgs: usize,
    /// Bytes in those frames.
    pub user_bytes: usize,
}

impl Telemetry {
    /// Total frames in both directions.
    pub fn total_msgs(&self) -> usize {
        self.platform_msgs + self.user_msgs
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> usize {
        self.platform_bytes + self.user_bytes
    }
}

/// Outcome of a runtime execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeOutcome {
    /// Final strategy profile (a Nash equilibrium on normal termination).
    pub profile: Profile,
    /// Decision slots elapsed.
    pub slots: usize,
    /// Individual updates applied.
    pub updates: usize,
    /// Whether the run terminated with an empty request set (equilibrium)
    /// rather than the slot cap.
    pub converged: bool,
    /// Communication counters (identical between the sync and threaded
    /// runtimes for the same seed).
    pub telemetry: Telemetry,
}

/// Derives the agent-local seed for its initial random route choice.
pub fn agent_seed(seed: u64, user: UserId) -> u64 {
    seed ^ (u64::from(user.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

/// Builds the agents with their random initial decisions (Alg. 1 lines 1–4).
pub fn spawn_agents(game: &Game, seed: u64) -> Vec<UserAgent> {
    game.users()
        .iter()
        .map(|u| {
            let mut rng = StdRng::seed_from_u64(agent_seed(seed, u.id));
            let initial = RouteId::from_index(rng.random_range(0..u.routes.len()));
            UserAgent::new(
                u.id,
                u.prefs,
                &u.routes,
                game.params().phi,
                game.params().theta,
                initial,
            )
        })
        .collect()
}

/// The in-process link. Without a loss model every frame arrives; with
/// one, each frame leg is dropped with the configured probability and
/// retried.
pub(crate) struct InProcess {
    pub(crate) agents: Vec<Option<UserAgent>>,
    loss: Option<(LossConfig, StdRng)>,
}

impl InProcess {
    /// A link on which every frame arrives.
    pub(crate) fn lossless() -> Self {
        Self {
            agents: Vec::new(),
            loss: None,
        }
    }

    /// A link that drops frames as `loss` says.
    ///
    /// # Panics
    ///
    /// Panics when the drop probability lies outside `[0, 1)`.
    pub(crate) fn lossy(loss: &LossConfig) -> Self {
        assert!(
            (0.0..1.0).contains(&loss.drop_probability),
            "drop probability must lie in [0, 1)"
        );
        Self {
            agents: Vec::new(),
            loss: Some((*loss, StdRng::seed_from_u64(loss.seed))),
        }
    }

    /// Puts one frame on the channel; `false` when the channel dropped it.
    fn leg(&mut self, sender: u32, receiver: u32, bytes: usize, wire: &mut Wire) -> bool {
        let tx = wire.sent(sender, bytes);
        if let Some((loss, rng)) = &mut self.loss {
            if rng.random_range(0.0..1.0) < loss.drop_probability {
                wire.dropped(tx, bytes);
                return false;
            }
        }
        wire.received(receiver, tx, bytes);
        true
    }

    /// Counts one more attempt of a stop-and-wait exchange whose timer runs
    /// at `timer`; every attempt after the first is a retransmission.
    fn attempt(&self, attempts: &mut usize, timer: u32, wire: &mut Wire) {
        *attempts += 1;
        if let Some((loss, _)) = &self.loss {
            assert!(
                *attempts <= loss.max_retries + 1,
                "channel never delivered after {attempts} attempts"
            );
        }
        if *attempts > 1 {
            wire.retransmission(timer, *attempts);
        }
    }

    /// Delivers `msg` to `user` and returns the reply it elicits. The
    /// platform re-sends `msg` until the request leg and, if there is one,
    /// the reply leg arrive. Re-sending is safe because the protocol's
    /// messages are idempotent: a repeated `Counts` carries the same state,
    /// and a repeated `Grant` is re-acknowledged with the current route.
    pub(crate) fn exchange(
        &mut self,
        user: UserId,
        msg: &PlatformMsg,
        wire: &mut Wire,
    ) -> Option<UserMsg> {
        let obs = wire.obs;
        let id = user.index() as u32;
        let mut attempts = 0;
        loop {
            self.attempt(&mut attempts, PLATFORM_SENDER, wire);
            let frame = obs.time(SpanKind::FrameEncode, || msg.encode());
            if !self.leg(PLATFORM_SENDER, id, frame.len(), wire) {
                continue; // timeout ⇒ retransmit
            }
            let msg = obs.time(SpanKind::FrameDecode, || {
                PlatformMsg::decode(&frame).expect("self-encoded frame decodes")
            });
            let agent = self.agents[user.index()]
                .as_mut()
                .expect("message to a live agent");
            let reply = agent.handle(msg)?;
            let frame = obs.time(SpanKind::FrameEncode, || reply.encode());
            if !self.leg(id, PLATFORM_SENDER, frame.len(), wire) {
                continue; // reply lost ⇒ the platform re-sends the request
            }
            return Some(obs.time(SpanKind::FrameDecode, || {
                UserMsg::decode(&frame).expect("self-encoded frame decodes")
            }));
        }
    }
}

impl Link for InProcess {
    fn admit(&mut self, agent: UserAgent, announce: bool, wire: &mut Wire) -> Option<UserMsg> {
        let id = agent.id.index() as u32;
        // The agent re-announces on its own timer until the platform has
        // its choice.
        let announcement = announce.then(|| {
            let mut attempts = 0;
            loop {
                self.attempt(&mut attempts, id, wire);
                let frame = agent.initial_message().encode();
                if self.leg(id, PLATFORM_SENDER, frame.len(), wire) {
                    break UserMsg::decode(&frame).expect("self-encoded frame decodes");
                }
            }
        });
        debug_assert_eq!(self.agents.len(), agent.id.index());
        self.agents.push(Some(agent));
        announcement
    }

    fn round(
        &mut self,
        msgs: Vec<(UserId, PlatformMsg)>,
        wire: &mut Wire,
    ) -> Vec<(UserId, UserMsg)> {
        msgs.into_iter()
            .filter_map(|(user, msg)| Some((user, self.exchange(user, &msg, wire)?)))
            .collect()
    }

    fn retire(&mut self, user: UserId) {
        self.agents[user.index()] = None;
    }
}

/// Runs the full protocol to termination on a single thread. `obs`
/// receives frame-level TX/RX events for every protocol frame,
/// `ResponseEvaluated` per dirty-agent poll, `SlotCompleted` per decision
/// slot and the engine's per-commit events; observation never influences
/// the protocol.
pub fn run_sync(
    game: &Game,
    scheduler: SchedulerKind,
    seed: u64,
    max_slots: usize,
    obs: &Obs,
) -> RuntimeOutcome {
    Driver::start(game, scheduler, seed, InProcess::lossless(), obs)
        .run(max_slots)
        .0
}

/// Outcome of a churn-enabled protocol run ([`run_sync_churn`] /
/// [`run_threaded_churn`](crate::threaded::run_threaded_churn)): the final
/// live state densified to a standalone post-churn game plus per-epoch
/// convergence accounting. Note ϕ is per-epoch — each churn event redefines
/// the potential, so slot counts are comparable *within* an epoch only.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// The post-churn game (tombstones dropped, users densely renumbered).
    pub game: Game,
    /// Final route choices, indexed like `game`'s users.
    pub choices: Vec<RouteId>,
    /// `id_map[dense] = live id` of each surviving user.
    pub id_map: Vec<UserId>,
    /// Decision slots per epoch; entry 0 is the pre-churn convergence, entry
    /// `e ≥ 1` the re-convergence after the `e`-th event batch.
    pub epoch_slots: Vec<usize>,
    /// Individual updates applied across all epochs.
    pub updates: usize,
    /// Whether every epoch reached an empty request set within its slot cap.
    pub converged: bool,
    /// Communication counters (identical between the sync and threaded
    /// churn runtimes for the same seed and stream).
    pub telemetry: Telemetry,
}

/// Runs the protocol with **churn**: converge, then alternate event batches
/// (delivered as encoded `Join`/`Leave` frames) with re-convergence phases,
/// all on one thread in a fixed order. The reference implementation;
/// [`run_threaded_churn`](crate::threaded::run_threaded_churn) must produce
/// an identical [`ChurnOutcome`]. Besides everything [`run_sync`] emits,
/// `obs` receives `EpochStarted` / `EpochConverged` around every
/// (re-)convergence phase and the engine's `UserJoined` / `UserLeft` per
/// churn frame.
///
/// # Panics
///
/// Panics when the stream is invalid against the live game (leave of an
/// unknown user, join rejected by validation) — streams are produced by
/// trusted generators; untrusted frames should go through
/// [`PlatformState::apply_churn_msg`](crate::platform::PlatformState::apply_churn_msg)
/// directly.
pub fn run_sync_churn(
    game: &Game,
    scheduler: SchedulerKind,
    seed: u64,
    max_slots_per_epoch: usize,
    epochs: &[Vec<ChurnEvent>],
    obs: &Obs,
) -> ChurnOutcome {
    Driver::start(game, scheduler, seed, InProcess::lossless(), obs)
        .run_churn(max_slots_per_epoch, epochs)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vcs_core::examples::fig1_instance;
    use vcs_core::response::is_nash;

    #[test]
    fn sync_runtime_reaches_nash_fig1() {
        let game = fig1_instance();
        for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
            for seed in 0..10u64 {
                let out = run_sync(&game, scheduler, seed, 10_000, &Obs::disabled());
                assert!(out.converged);
                assert!(is_nash(&game, &out.profile), "seed {seed} not Nash");
                // Fig. 1 has a unique equilibrium.
                assert_eq!(out.profile.choices(), &[RouteId(0), RouteId(0), RouteId(0)]);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let game = fig1_instance();
        let a = run_sync(&game, SchedulerKind::Puu, 3, 10_000, &Obs::disabled());
        let b = run_sync(&game, SchedulerKind::Puu, 3, 10_000, &Obs::disabled());
        assert_eq!(a, b);
    }

    #[test]
    fn agent_seeds_differ_per_user() {
        assert_ne!(agent_seed(1, UserId(0)), agent_seed(1, UserId(1)));
        assert_ne!(agent_seed(1, UserId(0)), agent_seed(2, UserId(0)));
    }

    /// A hand-built two-epoch stream on Fig. 1: one join, then that user's
    /// departure plus an incumbent's departure.
    pub(crate) fn fig1_stream() -> Vec<Vec<ChurnEvent>> {
        use vcs_core::ids::TaskId;
        use vcs_core::{Route, UserPrefs, UserSpec};
        vec![
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
            vec![
                ChurnEvent::Leave { user: UserId(3) },
                ChurnEvent::Leave { user: UserId(1) },
            ],
        ]
    }

    #[test]
    fn sync_churn_reconverges_every_epoch() {
        let game = fig1_instance();
        let epochs = fig1_stream();
        for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
            for seed in 0..5u64 {
                let out = run_sync_churn(&game, scheduler, seed, 10_000, &epochs, &Obs::disabled());
                assert!(out.converged, "seed {seed} hit the slot cap");
                assert_eq!(out.epoch_slots.len(), 3);
                // Users 0 and 2 survive; user 1 and the joiner left.
                assert_eq!(out.id_map, vec![UserId(0), UserId(2)]);
                assert_eq!(out.game.user_count(), 2);
                let profile = Profile::new(&out.game, out.choices.clone());
                assert!(
                    vcs_core::response::is_nash(&out.game, &profile),
                    "seed {seed}: final state not Nash on the post-churn game"
                );
            }
        }
    }

    #[test]
    fn sync_churn_with_empty_stream_matches_plain_run() {
        let game = fig1_instance();
        let plain = run_sync(&game, SchedulerKind::Puu, 5, 10_000, &Obs::disabled());
        let churn = run_sync_churn(&game, SchedulerKind::Puu, 5, 10_000, &[], &Obs::disabled());
        assert_eq!(churn.epoch_slots, vec![plain.slots]);
        assert_eq!(churn.updates, plain.updates);
        assert_eq!(churn.choices, plain.profile.choices());
        assert_eq!(churn.telemetry, plain.telemetry);
    }
}
