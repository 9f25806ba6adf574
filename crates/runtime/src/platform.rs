//! The platform side of Algorithm 2, shared by both runtimes.
//!
//! The platform keeps the authoritative profile inside an incremental
//! [`Engine`] and exploits its dirty set for the request-collection loop:
//! a user's request depends only on the participant counts of its covered
//! tasks and its own current route, so after a slot's granted moves only the
//! users covering an affected task (plus the movers) can answer differently.
//! The platform caches every agent's last reply and re-polls (`Counts`) only
//! the dirty ones — clean agents are neither messaged nor recomputed, and
//! their standing request (or standing silence) is reused verbatim.

use crate::protocol::{PlatformMsg, UserMsg};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vcs_algorithms::scheduler::{puu, suu};
use vcs_algorithms::UpdateRequest;
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{Engine, Game, GameError, Profile, UserSpec};
use vcs_obs::{elapsed_nanos, Event, SpanKind};

/// Which user-update scheduler the platform runs (Alg. 2 line 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Single User Update: one random requester per slot (DGRN).
    Suu,
    /// Parallel User Update: Algorithm 3's conflict-free batch (MUUN).
    Puu,
}

/// Platform state: the authoritative strategy profile (inside the
/// incremental [`Engine`]), task counts, and the per-agent request cache.
#[derive(Debug)]
pub struct PlatformState<'g> {
    engine: Engine<'g>,
    /// Each agent's standing request (`None` = last reply was `NoRequest`
    /// or the agent has not been polled yet — all users start dirty).
    cached: Vec<Option<UpdateRequest>>,
    scheduler: SchedulerKind,
    rng: StdRng,
    /// Decision slots elapsed.
    pub slots: usize,
    /// Individual decision updates applied.
    pub updates: usize,
}

impl<'g> PlatformState<'g> {
    /// Creates the platform once all `Initial` decisions are in
    /// (Alg. 2 lines 2–3).
    ///
    /// # Panics
    ///
    /// Panics when the decoded initial choices do not form a valid profile;
    /// callers holding untrusted wire input should prefer [`Self::try_new`].
    pub fn new(
        game: &'g Game,
        scheduler: SchedulerKind,
        seed: u64,
        initial_choices: Vec<RouteId>,
    ) -> Self {
        Self::try_new(game, scheduler, seed, initial_choices)
            .expect("initial decisions form a valid profile")
    }

    /// Fallible constructor: validates the (wire-decoded, hence untrusted)
    /// initial choices against the game before building any state.
    pub fn try_new(
        game: &'g Game,
        scheduler: SchedulerKind,
        seed: u64,
        initial_choices: Vec<RouteId>,
    ) -> Result<Self, GameError> {
        let profile = Profile::try_new(game, initial_choices)?;
        Ok(Self {
            engine: Engine::new(game, profile),
            cached: vec![None; game.user_count()],
            scheduler,
            rng: StdRng::seed_from_u64(seed),
            slots: 0,
            updates: 0,
        })
    }

    /// Attaches an observability handle to the platform's engine: emits the
    /// `EngineInit` anchor now, and every subsequent granted move / churn
    /// application emits its own per-commit event. The runtimes layer their
    /// frame-level and slot-level events on top of the same handle.
    pub fn set_obs(&mut self, obs: vcs_obs::Obs) {
        self.engine.set_obs(obs);
    }

    /// Number of users currently on the platform.
    pub fn active_count(&self) -> usize {
        self.engine.active_count()
    }

    /// The incrementally maintained total profit `Σ_i P_i(s)`.
    pub fn total_profit(&self) -> f64 {
        self.engine.total_profit()
    }

    /// The game the platform currently prices. After a mid-game `Join` this
    /// is the engine's copy-on-write extension, not the construction-time
    /// game reference (and it may contain departed tombstone users).
    pub fn game(&self) -> &Game {
        self.engine.game()
    }

    /// Admits a wire-decoded joining user (a `Join` frame): validates the
    /// spec against the game's task set and weight bounds, assigns the next
    /// user id and starts the user on `initial`. Affected incumbents are
    /// marked dirty and get re-polled on the next slot.
    pub fn try_join(&mut self, spec: &UserSpec, initial: RouteId) -> Result<UserId, GameError> {
        let user = self
            .engine
            .add_user(spec.prefs, spec.routes.clone(), initial)?;
        self.cached.push(None);
        Ok(user)
    }

    /// Retires a user (a `Leave` frame): unwinds its participation, drops its
    /// standing request and tombstones its id. Returns the route it was on.
    pub fn handle_leave(&mut self, user: UserId) -> Result<RouteId, GameError> {
        let route = self.engine.remove_user(user)?;
        self.cached[user.index()] = None;
        Ok(route)
    }

    /// Applies a decoded churn message. Returns the assigned id for a join,
    /// `None` for a leave.
    ///
    /// # Panics
    ///
    /// Panics when `msg` is not a churn message — routing non-churn frames
    /// here is a driver bug, not untrusted input.
    pub fn apply_churn_msg(&mut self, msg: &UserMsg) -> Result<Option<UserId>, GameError> {
        match msg {
            UserMsg::Join { spec, initial } => self.try_join(spec, *initial).map(Some),
            UserMsg::Leave { user } => self.handle_leave(*user).map(|_| None),
            other => panic!("apply_churn_msg on non-churn message {other:?}"),
        }
    }

    /// Whether `user` is on the platform (exists and has not left).
    pub fn is_active(&self, user: UserId) -> bool {
        self.engine.is_active(user)
    }

    /// The incrementally maintained potential ϕ of the live game.
    pub fn potential(&self) -> f64 {
        self.engine.potential()
    }

    /// Densifies the live post-churn state into `(game, choices, id_map)` —
    /// see [`Engine::materialize`].
    pub fn materialize(&self) -> (Game, Vec<RouteId>, Vec<UserId>) {
        self.engine.materialize()
    }

    /// The authoritative profile.
    pub fn profile(&self) -> &Profile {
        self.engine.profile()
    }

    /// Consumes the platform, returning the final profile.
    pub fn into_profile(self) -> Profile {
        self.engine.into_profile()
    }

    /// Users whose standing reply may have changed since they were last
    /// polled (sorted, deduplicated); clears the dirty set. Initially every
    /// user is dirty.
    pub fn dirty_users(&mut self) -> Vec<UserId> {
        self.engine.take_dirty()
    }

    /// Records a freshly polled reply in the request cache, replacing the
    /// user's standing request.
    pub fn record_reply(&mut self, user: UserId, reply: &UserMsg) {
        self.cached[user.index()] = self.to_request(reply);
    }

    /// This slot's request set: every standing request, in user-id order —
    /// exactly what polling all users densely would have produced, by the
    /// dirty-set soundness invariant.
    pub fn collect_requests(&self) -> Vec<UpdateRequest> {
        self.cached.iter().flatten().cloned().collect()
    }

    /// Participant counts restricted to the tasks covered by `user`'s
    /// recommended routes (the locality of Alg. 1 line 9).
    pub fn counts_for(&self, user: UserId) -> Vec<(TaskId, u32)> {
        let mut tasks: Vec<TaskId> = self.game().users()[user.index()]
            .routes
            .iter()
            .flat_map(|r| r.tasks.iter().copied())
            .collect();
        tasks.sort_unstable();
        tasks.dedup();
        tasks
            .into_iter()
            .map(|t| (t, self.profile().participants(t)))
            .collect()
    }

    /// The `Init` message for `user` (Alg. 2 line 4): reward parameters and
    /// counts of its covered tasks.
    pub fn init_msg_for(&self, user: UserId) -> PlatformMsg {
        let counts = self.counts_for(user);
        let tasks = counts
            .iter()
            .map(|&(t, _)| {
                let task = self.game().task(t);
                (t, task.base_reward, task.increment)
            })
            .collect();
        PlatformMsg::Init { tasks, counts }
    }

    /// The per-slot `Counts` refresh for `user`.
    pub fn counts_msg_for(&self, user: UserId) -> PlatformMsg {
        PlatformMsg::Counts {
            counts: self.counts_for(user),
        }
    }

    /// Runs the scheduler over this slot's decoded requests (already sorted
    /// by user id for determinism) and returns the indices of granted ones.
    /// Increments the slot counter when any request is granted.
    pub fn select(&mut self, requests: &[UpdateRequest]) -> Vec<usize> {
        if requests.is_empty() {
            return Vec::new();
        }
        let granted = match self.scheduler {
            SchedulerKind::Suu => suu(requests, &mut self.rng),
            SchedulerKind::Puu => {
                puu(&requests.iter().map(UpdateRequest::view).collect::<Vec<_>>())
            }
        };
        if !granted.is_empty() {
            self.slots += 1;
        }
        granted
    }

    /// Applies a confirmed decision update (Alg. 2 line 10). The engine
    /// marks the mover and every user covering an affected task dirty, which
    /// drives the next slot's selective `Counts` poll. The commit is recorded
    /// as an [`SpanKind::EngineApply`] span: timing lives here, at the grant
    /// site, rather than inside `Engine::apply_move` itself, so the
    /// single-process dynamics loops (whose Slot span already covers the
    /// apply) don't pay two extra clock reads per slot.
    pub fn apply_update(&mut self, user: UserId, route: RouteId) {
        let start = self.engine.obs().enabled().then(std::time::Instant::now);
        self.engine.apply_move(user, route);
        if let Some(start) = start {
            let nanos = elapsed_nanos(start);
            self.engine.obs().emit(|| Event::SpanRecorded {
                kind: SpanKind::EngineApply,
                nanos,
            });
        }
        self.updates += 1;
    }

    /// Converts a decoded `UserMsg::Request` into the scheduler's request
    /// type. Returns `None` for other message kinds, and for a request naming
    /// a task the game does not have: PUU sizes its task-occupancy array by
    /// the largest task id it is given, which wire input must not choose.
    pub fn to_request(&self, msg: &UserMsg) -> Option<UpdateRequest> {
        match msg {
            UserMsg::Request {
                user,
                new_route,
                gain,
                tau,
                affected,
            } if affected
                .iter()
                .all(|t| t.index() < self.game().task_count()) =>
            {
                Some(UpdateRequest {
                    user: *user,
                    new_route: *new_route,
                    gain: *gain,
                    tau: *tau,
                    affected_tasks: affected.clone(),
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcs_core::examples::fig1_instance;

    #[test]
    fn counts_restricted_to_covered_tasks() {
        let game = fig1_instance();
        let platform = PlatformState::new(
            &game,
            SchedulerKind::Suu,
            0,
            vec![RouteId(0), RouteId(0), RouteId(0)],
        );
        // u2 only has r3 covering the $6 task (task 1), which u3's r4 also
        // covers under the all-first profile.
        let counts = platform.counts_for(UserId(1));
        assert_eq!(counts, vec![(TaskId(1), 2)]);
        // u1 covers tasks 0 and 1 across its two routes.
        let counts = platform.counts_for(UserId(0));
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn init_message_carries_reward_parameters() {
        let game = fig1_instance();
        let platform = PlatformState::new(
            &game,
            SchedulerKind::Puu,
            0,
            vec![RouteId(0), RouteId(0), RouteId(1)],
        );
        match platform.init_msg_for(UserId(2)) {
            PlatformMsg::Init { tasks, counts } => {
                assert_eq!(tasks.len(), 2); // tasks 1 and 2
                assert_eq!(counts.len(), 2);
                let (_, a, mu) = tasks[0];
                assert!(a > 0.0);
                assert_eq!(mu, 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn apply_update_moves_profile() {
        let game = fig1_instance();
        let mut platform = PlatformState::new(
            &game,
            SchedulerKind::Suu,
            0,
            vec![RouteId(1), RouteId(0), RouteId(0)],
        );
        platform.apply_update(UserId(0), RouteId(0));
        assert_eq!(platform.profile().choice(UserId(0)), RouteId(0));
        assert_eq!(platform.updates, 1);
    }

    #[test]
    fn join_and_leave_reshape_platform() {
        let game = fig1_instance();
        let mut platform = PlatformState::new(
            &game,
            SchedulerKind::Suu,
            0,
            vec![RouteId(0), RouteId(0), RouteId(0)],
        );
        platform.dirty_users();
        let spec = vcs_core::UserSpec::new(
            vcs_core::UserPrefs::neutral(),
            vec![vcs_core::Route::new(RouteId(0), vec![TaskId(1)], 0.5, 0.5)],
        );
        let joined = platform
            .apply_churn_msg(&UserMsg::Join {
                spec,
                initial: RouteId(0),
            })
            .unwrap()
            .expect("join assigns an id");
        assert_eq!(joined, UserId(3));
        assert!(platform.is_active(joined));
        // The join extends the live game past the construction-time one.
        assert_eq!(platform.game().user_count(), 4);
        assert_eq!(platform.counts_for(joined), vec![(TaskId(1), 3)]);
        // Incumbents sharing task 1 get re-polled.
        assert!(platform.dirty_users().contains(&UserId(1)));
        platform
            .apply_churn_msg(&UserMsg::Leave { user: joined })
            .unwrap();
        assert!(!platform.is_active(joined));
        let (post, choices, id_map) = platform.materialize();
        assert_eq!(post.user_count(), 3);
        assert_eq!(choices.len(), 3);
        assert_eq!(id_map, vec![UserId(0), UserId(1), UserId(2)]);
        // Leaving twice surfaces the engine error, untrusted-frame style.
        assert!(matches!(
            platform.apply_churn_msg(&UserMsg::Leave { user: joined }),
            Err(GameError::UnknownUser { .. })
        ));
    }

    #[test]
    fn select_counts_slots() {
        let game = fig1_instance();
        let mut platform = PlatformState::new(
            &game,
            SchedulerKind::Suu,
            7,
            vec![RouteId(1), RouteId(0), RouteId(1)],
        );
        assert!(platform.select(&[]).is_empty());
        assert_eq!(platform.slots, 0);
        let req = UpdateRequest {
            user: UserId(0),
            new_route: RouteId(0),
            gain: 1.0,
            tau: 2.0,
            affected_tasks: vec![TaskId(0), TaskId(1)],
        };
        let granted = platform.select(&[req]);
        assert_eq!(granted, vec![0]);
        assert_eq!(platform.slots, 1);
    }

    #[test]
    fn request_naming_an_unknown_task_is_dropped() {
        let game = fig1_instance();
        let platform = PlatformState::new(
            &game,
            SchedulerKind::Puu,
            0,
            vec![RouteId(1), RouteId(0), RouteId(1)],
        );
        let request = |task: u32| UserMsg::Request {
            user: UserId(0),
            new_route: RouteId(0),
            gain: 1.0,
            tau: 2.0,
            affected: vec![TaskId(0), TaskId(task)],
        };
        assert!(platform.to_request(&request(1)).is_some());
        assert!(platform.to_request(&request(u32::MAX)).is_none());
    }
}
