//! The serving-mode request executor: one live game answering an
//! open-ended stream of Join / Leave / BestRespond requests.
//!
//! [`crate::OnlineSim`] runs a *closed* experiment — a pre-synthesized
//! churn stream, a fixed number of epochs, a report at the end. A deployed
//! platform instead holds a long-lived game and answers requests as they
//! arrive, with no known end. [`ServeCore`] is that executor. It shares the
//! epoch scheduler's standing requests and slot loop, i.e. the SUU rule of
//! Alg. 2 over a [`ResponseCache`](vcs_core::ResponseCache) refreshed from
//! the engine's dirty set:
//!
//! * **Join** — the core synthesizes a paper-range vehicle spec from its
//!   own seeded RNG (the wire request carries only a shard hint, so frames
//!   stay tiny and a run is reproducible from `(seed, request stream)`),
//!   admits it via [`Engine::add_user`] and into the cache, and
//!   re-converges.
//! * **Leave** — [`Engine::remove_user`], drop the user from the cache,
//!   then re-converge.
//! * **BestRespond** — draw a route from the named user's cached response
//!   under the configured [`OnlineAlgorithm`] (current, since every request
//!   ends in a refresh); apply it if improving, then re-converge.
//!
//! Every mutating request ends in a bounded re-convergence (the serving
//! layer times it under [`SpanKind::ConvergeWait`]), so between requests
//! the game sits at a Nash equilibrium of its *current* user set — the
//! same per-epoch contract as the scheduler, at per-request granularity.
//! The slots each convergence consumed are the request's cost; the running
//! total backs the `/metrics` sustained-slots-per-second gauge.
//!
//! One `ServeCore` is single-threaded by design: the sharded server gives
//! each shard lane its own core (its own game, RNG and engine) and routes
//! requests by shard id, mirroring the per-shard games of the deployment
//! layer.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use vcs_core::ids::{RouteId, UserId};
use vcs_core::{Engine, GameError};
use vcs_obs::{Obs, SpanKind};

use crate::sim::{random_profile, OnlineAlgorithm, Requests};
use crate::stream::{synthetic_game, synthetic_spec};

/// Shape of one serving core (one shard lane's game).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeCoreConfig {
    /// Crowdsensing tasks in this shard's deployment (fixed for the core's
    /// lifetime — requests move vehicles, not tasks).
    pub n_tasks: usize,
    /// Vehicles present before the first request.
    pub initial_users: usize,
    /// Seed for the initial game, every synthesized Join spec and the
    /// scheduler's uniform picks. Two cores with the same seed and request
    /// stream produce identical trajectories.
    pub seed: u64,
    /// Improvement rule granted per decision slot.
    pub algo: OnlineAlgorithm,
    /// Re-convergence slot budget per request. A request that exhausts it
    /// leaves residual improvers for the next request to mop up (reported
    /// via [`ServeCore::converged`]); Theorem 4's bound makes this rare at
    /// sensible budgets.
    pub max_slots_per_request: usize,
}

impl Default for ServeCoreConfig {
    fn default() -> Self {
        ServeCoreConfig {
            n_tasks: 40,
            initial_users: 64,
            seed: 7,
            algo: OnlineAlgorithm::Dgrn,
            max_slots_per_request: 4096,
        }
    }
}

/// A long-lived game plus the standing-request cache, re-equilibrated
/// after every mutating request. See the module docs for the semantics.
#[derive(Debug)]
pub struct ServeCore {
    engine: Engine<'static>,
    requests: Requests,
    rng: StdRng,
    n_tasks: usize,
    max_slots_per_request: usize,
    obs: Obs,
    slots_total: u64,
    converged: bool,
}

impl ServeCore {
    /// Builds the core: a seed-deterministic paper-range game of
    /// `initial_users` vehicles over `n_tasks` tasks, converged to its
    /// first equilibrium (that initial convergence is charged to
    /// [`slots_total`](Self::slots_total) like any request).
    pub fn new(config: ServeCoreConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let game = synthetic_game(config.n_tasks, config.initial_users, &mut rng);
        let profile = random_profile(&game, &mut rng);
        let mut core = ServeCore {
            engine: Engine::new_owned(game, profile),
            requests: Requests::new(config.algo, config.initial_users),
            rng,
            n_tasks: config.n_tasks,
            max_slots_per_request: config.max_slots_per_request,
            obs: Obs::disabled(),
            slots_total: 0,
            converged: true,
        };
        core.converge();
        core
    }

    /// Installs an observability handle: the engine's per-commit events,
    /// the scheduler's refresh/slot events, and the `ConvergeWait` span
    /// around each request's re-convergence.
    pub fn set_obs(&mut self, obs: Obs) {
        self.engine.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Drives the engine back to a fixed point (or the per-request
    /// budget), returning the slots consumed.
    fn converge(&mut self) -> u64 {
        let span = self.obs.span(SpanKind::ConvergeWait);
        let (slots, converged) = self.requests.drive(
            &mut self.engine,
            &mut self.rng,
            self.max_slots_per_request,
            &self.obs,
        );
        if slots > 0 {
            span.finish();
        } else {
            span.cancel();
        }
        self.converged = converged;
        self.slots_total += slots as u64;
        slots as u64
    }

    /// Admits one synthesized paper-range vehicle (uniform initial route)
    /// and re-converges. Returns the new local user id and the slots the
    /// request consumed.
    pub fn join(&mut self) -> (UserId, u64) {
        let spec = synthetic_spec(self.n_tasks, &mut self.rng);
        let initial = RouteId::from_index(self.rng.random_range(0..spec.routes.len()));
        let user = self
            .engine
            .add_user(spec.prefs, spec.routes, initial)
            .expect("synthesized specs are paper-range valid");
        self.requests.push_user(user);
        let slots = self.converge();
        (user, slots)
    }

    /// Removes `user` and re-converges, returning the slots consumed.
    ///
    /// # Errors
    ///
    /// [`GameError::UnknownUser`] when `user` never joined or already left.
    pub fn leave(&mut self, user: UserId) -> Result<u64, GameError> {
        if !self.is_active(user) {
            return Err(GameError::UnknownUser { user });
        }
        self.engine.remove_user(user)?;
        self.requests.remove_user(user);
        Ok(self.converge())
    }

    /// Evaluates `user`'s standing request under the configured rule,
    /// applies it when improving, and re-converges. Returns `(moved,
    /// slots)`: `moved` is whether the user had an improving route (at an
    /// equilibrium it never does — the value reports the game's state to
    /// the requester, it is not an error).
    ///
    /// # Errors
    ///
    /// [`GameError::UnknownUser`] when `user` never joined or already left.
    pub fn best_respond(&mut self, user: UserId) -> Result<(bool, u64), GameError> {
        if !self.is_active(user) {
            return Err(GameError::UnknownUser { user });
        }
        // Every mutator ends in a refresh with no later move, so the cached
        // response is current; the request is a fresh draw from it.
        match self.requests.draw(user, &mut self.rng) {
            Some(route) => {
                self.engine.apply_move(user, route);
                Ok((true, self.converge()))
            }
            None => Ok((false, 0)),
        }
    }

    /// Whether `user` is currently on the platform.
    pub fn is_active(&self, user: UserId) -> bool {
        self.engine.is_active(user)
    }

    /// Vehicles currently on the platform.
    pub fn users(&self) -> usize {
        self.engine.active_count()
    }

    /// Decision slots consumed since construction (including the initial
    /// convergence).
    pub fn slots_total(&self) -> u64 {
        self.slots_total
    }

    /// ϕ of the current game (the engine's incrementally maintained sum).
    pub fn phi(&self) -> f64 {
        self.engine.potential()
    }

    /// Whether the last re-convergence reached a fixed point within the
    /// per-request budget.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The live engine (read access — e.g. for equilibrium checks).
    pub fn engine(&self) -> &Engine<'static> {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcs_core::is_nash;

    fn nash(core: &ServeCore) -> bool {
        is_nash(core.engine().game(), core.engine().profile())
    }

    #[test]
    fn requests_leave_the_game_at_equilibrium() {
        let mut core = ServeCore::new(ServeCoreConfig {
            n_tasks: 12,
            initial_users: 24,
            seed: 11,
            ..ServeCoreConfig::default()
        });
        assert!(core.converged());
        assert!(nash(&core), "initial convergence ends at Nash");
        assert_eq!(core.users(), 24);

        let (user, _) = core.join();
        assert_eq!(user.index(), 24);
        assert!(core.is_active(user));
        assert_eq!(core.users(), 25);
        assert!(nash(&core), "post-join re-convergence ends at Nash");

        let slots = core.leave(UserId::from_index(3)).unwrap();
        assert_eq!(core.users(), 24);
        assert!(nash(&core), "post-leave re-convergence ends at Nash");
        // The departure perturbs only a neighbourhood; the budget is ample.
        assert!(slots as usize <= core.max_slots_per_request);

        // At equilibrium no user can improve.
        let (moved, slots) = core.best_respond(user).unwrap();
        assert!(!moved);
        assert_eq!(slots, 0);
    }

    #[test]
    fn invalid_users_are_rejected_not_panicked() {
        let mut core = ServeCore::new(ServeCoreConfig {
            n_tasks: 8,
            initial_users: 6,
            seed: 3,
            ..ServeCoreConfig::default()
        });
        let ghost = UserId::from_index(999);
        assert!(matches!(
            core.leave(ghost),
            Err(GameError::UnknownUser { .. })
        ));
        assert!(matches!(
            core.best_respond(ghost),
            Err(GameError::UnknownUser { .. })
        ));
        // Double-leave: the second is a reject, not a panic.
        let gone = UserId::from_index(2);
        core.leave(gone).unwrap();
        assert!(matches!(
            core.leave(gone),
            Err(GameError::UnknownUser { .. })
        ));
        assert!(matches!(
            core.best_respond(gone),
            Err(GameError::UnknownUser { .. })
        ));
    }

    #[test]
    fn same_seed_and_stream_reproduce_the_trajectory() {
        let config = ServeCoreConfig {
            n_tasks: 10,
            initial_users: 16,
            seed: 42,
            ..ServeCoreConfig::default()
        };
        let run = |mut core: ServeCore| {
            let mut log = Vec::new();
            for i in 0..8u64 {
                match i % 3 {
                    0 => {
                        let (u, s) = core.join();
                        log.push((u.index() as u64, s));
                    }
                    1 => {
                        let s = core.leave(UserId::from_index((i % 5) as usize)).unwrap();
                        log.push((u64::MAX, s));
                    }
                    _ => {
                        let target = UserId::from_index(core.engine().game().user_count() - 1);
                        let (m, s) = core.best_respond(target).unwrap();
                        log.push((u64::from(m), s));
                    }
                }
            }
            (log, core.phi(), core.slots_total())
        };
        let a = run(ServeCore::new(config));
        let b = run(ServeCore::new(config));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert!(a.2 > 0, "the run consumed decision slots");
    }

    #[test]
    fn phi_rises_within_each_request_window() {
        // ϕ is redefined by churn, but each re-convergence only applies
        // strictly improving moves: after best_respond reports moved, ϕ
        // exceeds the pre-move value of the *same* game.
        let mut core = ServeCore::new(ServeCoreConfig {
            n_tasks: 10,
            initial_users: 20,
            seed: 5,
            ..ServeCoreConfig::default()
        });
        // Perturb, then find some user with an improving move.
        for _ in 0..4 {
            core.join();
        }
        let before = core.phi();
        let mut moved_any = false;
        for i in 0..core.engine().game().user_count() {
            let user = UserId::from_index(i);
            if !core.is_active(user) {
                continue;
            }
            if let Ok((true, _)) = core.best_respond(user) {
                moved_any = true;
                assert!(
                    core.phi() >= before,
                    "ϕ never drops within a fixed user set"
                );
                break;
            }
        }
        // Post-join the game was already re-converged, so finding no
        // improver is the expected outcome; the assertion above only fires
        // when a move existed.
        let _ = moved_any;
    }
}
