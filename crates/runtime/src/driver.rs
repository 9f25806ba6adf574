//! The platform side of Alg. 2, written once for every transport.
//!
//! A [`Driver`] owns the [`PlatformState`], a [`Link`] to the agents and the
//! [`Wire`] that counts and stamps every frame. It runs the protocol the
//! same way whatever carries the frames:
//!
//! * **setup** — every agent announces its initial route (Alg. 1 line 4),
//!   the platform is built from the announcements and sends `Init`
//!   (Alg. 2 lines 2–4);
//! * **slots** — poll the dirty users with `Counts`, record their replies,
//!   collect the standing requests, grant a subset through SUU or PUU
//!   (Alg. 3), commit the confirmed moves (Alg. 2 lines 5–11);
//! * **churn** — `Join`/`Leave` frames between convergence phases, each
//!   phase bracketed by `EpochStarted`/`EpochConverged`;
//! * **teardown** — `Terminate` to every live agent (Alg. 2 line 12).
//!
//! The links are the in-process one ([`crate::sync_runtime`], lossless or
//! with a lossy stop-and-wait channel) and the threaded one
//! ([`crate::threaded`]).

use crate::agent::UserAgent;
use crate::platform::{PlatformState, SchedulerKind};
use crate::protocol::{PlatformMsg, UserMsg};
use crate::resilience::LossStats;
use crate::sync_runtime::{spawn_agents, ChurnOutcome, RuntimeOutcome, Telemetry};
use vcs_core::ids::{RouteId, UserId};
use vcs_core::{ChurnEvent, Game};
use vcs_obs::{Event, FrameStamp, FrameStamper, Obs, ResponseKind, SpanKind, PLATFORM_SENDER};

/// Frame accounting shared by every link: telemetry and loss counters, the
/// causal stamper, and the observability handle that receives the frame
/// events.
pub(crate) struct Wire<'o> {
    pub(crate) obs: &'o Obs,
    telemetry: Telemetry,
    loss: LossStats,
    stamper: FrameStamper,
}

impl<'o> Wire<'o> {
    fn new(obs: &'o Obs) -> Self {
        Self {
            obs,
            telemetry: Telemetry::default(),
            loss: LossStats::default(),
            stamper: FrameStamper::new(),
        }
    }

    /// Counts a frame of `bytes` put on the channel by `sender` and emits
    /// its `FrameSent`; returns the send stamp its receipt or drop carries.
    pub(crate) fn sent(&mut self, sender: u32, bytes: usize) -> FrameStamp {
        if sender == PLATFORM_SENDER {
            self.telemetry.platform_msgs += 1;
            self.telemetry.platform_bytes += bytes;
        } else {
            self.telemetry.user_msgs += 1;
            self.telemetry.user_bytes += bytes;
        }
        let tx = self.stamper.send(sender);
        self.obs.emit(|| Event::FrameSent {
            bytes: bytes as u32,
            seq: tx.seq,
            lamport: tx.lamport,
        });
        tx
    }

    /// Emits the `FrameReceived` of the frame stamped `tx` at `receiver`.
    pub(crate) fn received(&mut self, receiver: u32, tx: FrameStamp, bytes: usize) {
        let rx = self.stamper.receive(receiver, tx);
        self.obs.emit(|| Event::FrameReceived {
            bytes: bytes as u32,
            seq: rx.seq,
            lamport: rx.lamport,
        });
    }

    /// A frame that crossed a lossless link from `sender` to `receiver`.
    pub(crate) fn frame(&mut self, sender: u32, receiver: u32, bytes: usize) {
        let tx = self.sent(sender, bytes);
        self.received(receiver, tx, bytes);
    }

    /// The channel dropped the frame stamped `tx`: the drop inherits the
    /// send stamp, since nothing at the receiver advanced.
    pub(crate) fn dropped(&mut self, tx: FrameStamp, bytes: usize) {
        self.loss.dropped_frames += 1;
        self.obs.emit(|| Event::FrameDropped {
            bytes: bytes as u32,
            seq: tx.seq,
            lamport: tx.lamport,
        });
    }

    /// `timer`'s stop-and-wait timer fired for the `attempt`-th try of a
    /// frame: a local step at that endpoint.
    pub(crate) fn retransmission(&mut self, timer: u32, attempt: usize) {
        self.loss.retransmissions += 1;
        let stamp = self.stamper.local(timer);
        self.obs.emit(|| Event::Retransmission {
            attempt: attempt as u32,
            seq: stamp.seq,
            lamport: stamp.lamport,
        });
    }
}

/// What carries frames between the platform and the agents.
pub(crate) trait Link {
    /// Puts `agent` on the link. A start-up agent announces its initial
    /// route, which is returned; a joiner already shipped its choice inside
    /// its `Join` frame and returns `None`.
    fn admit(&mut self, agent: UserAgent, announce: bool, wire: &mut Wire) -> Option<UserMsg>;

    /// Delivers one round of platform messages in order and returns the
    /// replies they elicit.
    fn round(
        &mut self,
        msgs: Vec<(UserId, PlatformMsg)>,
        wire: &mut Wire,
    ) -> Vec<(UserId, UserMsg)>;

    /// Takes `user` off the link once it has received `Terminate`.
    fn retire(&mut self, user: UserId);
}

/// The platform loop of one run over link `L`.
pub(crate) struct Driver<'g, 'o, L> {
    pub(crate) platform: PlatformState<'g>,
    pub(crate) link: L,
    pub(crate) wire: Wire<'o>,
}

impl<'g, 'o, L: Link> Driver<'g, 'o, L> {
    /// Admits the agents, collects their initial routes, builds the
    /// platform and sends everyone `Init`.
    pub(crate) fn start(
        game: &'g Game,
        scheduler: SchedulerKind,
        seed: u64,
        mut link: L,
        obs: &'o Obs,
    ) -> Self {
        let mut wire = Wire::new(obs);
        let initial: Vec<RouteId> = spawn_agents(game, seed)
            .into_iter()
            .map(|agent| match link.admit(agent, true, &mut wire) {
                Some(UserMsg::Initial { route, .. }) => route,
                other => panic!("expected Initial, got {other:?}"),
            })
            .collect();
        let mut platform = PlatformState::new(game, scheduler, seed, initial);
        platform.set_obs(obs.clone());
        let init = (0..game.user_count())
            .map(UserId::from_index)
            .map(|user| (user, platform.init_msg_for(user)))
            .collect();
        notify(&mut link, &mut wire, init);
        Self {
            platform,
            link,
            wire,
        }
    }

    /// Runs decision slots until a poll round yields no request (returns
    /// `converged = true`) or `max_slots` slots elapse. Returns the slots
    /// this call used.
    pub(crate) fn converge(&mut self, max_slots: usize) -> (usize, bool) {
        let Self {
            platform,
            link,
            wire,
        } = self;
        let obs = wire.obs;
        let start = platform.slots;
        while platform.slots - start < max_slots {
            // A poll round with no request ends the phase; it is not a
            // decision slot, so its span is cancelled.
            let slot_span = obs.span(SpanKind::Slot);
            // Poll only the users whose standing reply the previous slot's
            // moves may have changed (initially everyone); clean agents'
            // cached requests are reused without any message exchange.
            let polls = platform
                .dirty_users()
                .into_iter()
                .map(|user| (user, platform.counts_msg_for(user)))
                .collect();
            for (user, reply) in link.round(polls, wire) {
                obs.emit(|| Event::ResponseEvaluated {
                    user: user.index() as u32,
                    kind: ResponseKind::Best,
                    improving: matches!(reply, UserMsg::Request { .. }),
                });
                platform.record_reply(user, &reply);
            }
            let requests = platform.collect_requests();
            if requests.is_empty() {
                slot_span.cancel();
                return (platform.slots - start, true);
            }
            let granted = platform.select(&requests);
            // Only granted users hear back; a standing request needs no
            // Deny — it stays cached until granted or invalidated by a
            // fresh poll.
            let grants = granted
                .iter()
                .map(|&g| (requests[g].user, PlatformMsg::Grant))
                .collect();
            for (_, reply) in link.round(grants, wire) {
                match reply {
                    UserMsg::Updated { user, route } => platform.apply_update(user, route),
                    other => panic!("expected Updated, got {other:?}"),
                }
            }
            slot_span.finish();
            obs.emit(|| Event::SlotCompleted {
                slot: platform.slots as u64,
                updated: granted.len() as u32,
                phi: platform.potential(),
                total_profit: platform.total_profit(),
            });
        }
        (platform.slots - start, false)
    }

    /// Sends `Terminate` to every live agent and takes it off the link.
    fn terminate(&mut self) {
        let live: Vec<UserId> = (0..self.platform.game().user_count())
            .map(UserId::from_index)
            .filter(|&user| self.platform.is_active(user))
            .collect();
        let bye = live.iter().map(|&u| (u, PlatformMsg::Terminate)).collect();
        notify(&mut self.link, &mut self.wire, bye);
        for user in live {
            self.link.retire(user);
        }
    }

    /// Terminates everyone and reports a run that ended with `converged`.
    pub(crate) fn finish(mut self, converged: bool) -> (RuntimeOutcome, LossStats) {
        self.terminate();
        let platform = self.platform;
        self.wire.obs.emit(|| Event::RunCompleted {
            slots: platform.slots as u64,
            updates: platform.updates as u64,
            converged,
            phi: platform.potential(),
        });
        let outcome = RuntimeOutcome {
            slots: platform.slots,
            updates: platform.updates,
            profile: platform.into_profile(),
            converged,
            telemetry: self.wire.telemetry,
        };
        (outcome, self.wire.loss)
    }

    /// The whole protocol: converge within `max_slots`, then terminate.
    pub(crate) fn run(mut self, max_slots: usize) -> (RuntimeOutcome, LossStats) {
        let (_, converged) = self.converge(max_slots);
        self.finish(converged)
    }

    /// The protocol with churn: converge, then alternate each event batch
    /// with a re-convergence phase of at most `max_slots_per_epoch` slots.
    pub(crate) fn run_churn(
        mut self,
        max_slots_per_epoch: usize,
        epochs: &[Vec<ChurnEvent>],
    ) -> ChurnOutcome {
        let obs = self.wire.obs;
        let mut epoch_slots = Vec::with_capacity(epochs.len() + 1);
        let mut converged = true;
        for epoch in 0..=epochs.len() {
            let (joins, leaves) = match epoch.checked_sub(1) {
                Some(batch) => self.churn(&epochs[batch]),
                None => (0, 0),
            };
            obs.emit(|| Event::EpochStarted {
                epoch: epoch as u32,
                joins,
                leaves,
                active: self.platform.active_count() as u32,
            });
            let (slots, ok) = obs.time(SpanKind::EpochReconverge, || {
                self.converge(max_slots_per_epoch)
            });
            epoch_slots.push(slots);
            converged &= ok;
            obs.emit(|| Event::EpochConverged {
                epoch: epoch as u32,
                slots: slots as u64,
                converged: ok,
                phi: self.platform.potential(),
            });
        }
        self.terminate();
        let (game, choices, id_map) = self.platform.materialize();
        ChurnOutcome {
            game,
            choices,
            id_map,
            epoch_slots,
            updates: self.platform.updates,
            converged,
            telemetry: self.wire.telemetry,
        }
    }

    /// Applies one churn batch, each event shipped as the wire frame a
    /// networked vehicle would send. Returns `(joins, leaves)`.
    ///
    /// # Panics
    ///
    /// Panics when an event is invalid against the live game.
    fn churn(&mut self, batch: &[ChurnEvent]) -> (u32, u32) {
        let obs = self.wire.obs;
        let (mut joins, mut leaves) = (0, 0);
        for event in batch {
            let frame = obs.time(SpanKind::FrameEncode, || {
                UserMsg::from_churn(event).encode()
            });
            // A `Join` comes from the arriving vehicle, which the platform
            // will number next; a `Leave` from the departing user itself.
            let sender = match event {
                ChurnEvent::Join { .. } => self.platform.game().user_count(),
                ChurnEvent::Leave { user } => user.index(),
            };
            self.wire.frame(sender as u32, PLATFORM_SENDER, frame.len());
            let msg = obs.time(SpanKind::FrameDecode, || {
                UserMsg::decode(&frame).expect("self-encoded frame decodes")
            });
            let joined = self
                .platform
                .apply_churn_msg(&msg)
                .expect("stream events are valid");
            match (joined, msg) {
                (Some(joined), UserMsg::Join { spec, initial }) => {
                    joins += 1;
                    let params = self.platform.game().params();
                    let agent = UserAgent::new(
                        joined,
                        spec.prefs,
                        &spec.routes,
                        params.phi,
                        params.theta,
                        initial,
                    );
                    self.link.admit(agent, false, &mut self.wire);
                    let init = self.platform.init_msg_for(joined);
                    notify(&mut self.link, &mut self.wire, vec![(joined, init)]);
                }
                (None, UserMsg::Leave { user }) => {
                    leaves += 1;
                    let bye = vec![(user, PlatformMsg::Terminate)];
                    notify(&mut self.link, &mut self.wire, bye);
                    self.link.retire(user);
                }
                _ => unreachable!("a join returns its id, a leave none"),
            }
        }
        (joins, leaves)
    }
}

/// Delivers messages no agent answers (`Init`, `Terminate`).
fn notify(link: &mut impl Link, wire: &mut Wire, msgs: Vec<(UserId, PlatformMsg)>) {
    let replies = link.round(msgs, wire);
    debug_assert!(replies.is_empty(), "unexpected replies {replies:?}");
}
