//! The epoch scheduler: warm-start re-equilibration of a live game under
//! churn, with a cold-restart baseline and a from-scratch equivalence replay
//! per epoch.
//!
//! ## Dynamic-game semantics
//!
//! Each churn batch *redefines* the game — and with it the potential
//! function ϕ, which is a function of the current user set. Within an epoch
//! the dynamics are the paper's: every accepted update strictly increases ϕ
//! (Theorem 2), so each epoch terminates at a Nash equilibrium of the
//! *current* game. Across epochs no such monotonicity exists: a departure
//! removes that user's terms from ϕ and a join adds new ones, so the
//! reported per-epoch ϕ trajectory may rise or fall between epochs. See
//! DESIGN.md §11.
//!
//! ## Warm vs cold
//!
//! The warm path keeps the incremental [`Engine`] alive across batches:
//! churn dirties only the affected users, so re-convergence touches the
//! neighbourhood of the perturbation. The cold baseline rebuilds an engine
//! from the materialized post-churn game with a fresh random profile — what
//! a platform without churn support would do — and pays the full
//! convergence cost again. The *equivalence replay* additionally retraces
//! the warm trajectory on a from-scratch engine (same standing requests,
//! same RNG) and checks the fixed points agree on ϕ within
//! [`PHI_TOLERANCE`], validating the warm engine's incrementally maintained
//! caches across arbitrarily long churn histories.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use vcs_algorithms::cached_request;
use vcs_core::ids::{RouteId, UserId};
use vcs_core::{apply_churn, is_nash, ChurnEvent, Engine, Game, Profile, ResponseCache};
use vcs_obs::{Event, Obs, ResponseKind, SpanKind};

use crate::stream::EventStream;

/// Absolute tolerance for the warm-vs-replay fixed-point ϕ agreement. The
/// warm value is the engine's compensated running sum maintained across the
/// whole churn history; the replay value is a fresh recomputation.
pub const PHI_TOLERANCE: f64 = 1e-9;

/// Which improvement rule the online scheduler grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OnlineAlgorithm {
    /// Best-response: each improving user requests a uniformly random member
    /// of its best route set `Δ_i(t)` (DGRN, Alg. 1).
    Dgrn,
    /// Better-response: each improving user requests a uniformly random
    /// strictly improving route (BRUN ablation).
    Brun,
}

impl OnlineAlgorithm {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            OnlineAlgorithm::Dgrn => "DGRN",
            OnlineAlgorithm::Brun => "BRUN",
        }
    }
}

/// Per-epoch measurements of one churn batch and its re-convergence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Users admitted this epoch.
    pub joins: usize,
    /// Users departed this epoch.
    pub leaves: usize,
    /// Active population after the batch.
    pub active_users: usize,
    /// Decision slots the warm engine needed to re-converge.
    pub warm_slots: usize,
    /// Decision slots the cold restart needed from a random profile.
    pub cold_slots: usize,
    /// Wall time of the warm path (apply events + re-converge), seconds.
    pub warm_secs: f64,
    /// Wall time of the cold path (rebuild engine + converge), seconds.
    pub cold_secs: f64,
    /// ϕ at the warm fixed point (incrementally maintained running sum).
    pub phi_warm: f64,
    /// ϕ recomputed from scratch at the replayed warm fixed point.
    pub phi_replay: f64,
    /// ϕ at the cold restart's fixed point (may differ from `phi_warm`:
    /// distinct Nash equilibria of the same game).
    pub phi_cold: f64,
    /// Whether `|phi_warm − phi_replay| ≤ PHI_TOLERANCE`.
    pub phi_agrees: bool,
    /// Total user profit `Σ_i P_i` at the warm fixed point.
    pub profit: f64,
}

impl EpochReport {
    /// Warm-start advantage in decision slots (`cold / warm`; ∞ when the
    /// warm path needed none).
    pub fn slot_speedup(&self) -> f64 {
        self.cold_slots as f64 / (self.warm_slots as f64).max(1e-12)
    }
}

/// The full outcome of driving one stream through [`OnlineSim::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Slots of the initial (pre-churn) convergence from the random profile.
    pub initial_slots: usize,
    /// One entry per churn epoch.
    pub epochs: Vec<EpochReport>,
    /// Whether every warm and cold run reached a fixed point within the
    /// slot budget.
    pub converged: bool,
}

impl OnlineReport {
    /// Total warm re-convergence slots across epochs.
    pub fn warm_slots(&self) -> usize {
        self.epochs.iter().map(|e| e.warm_slots).sum()
    }

    /// Total cold restart slots across epochs.
    pub fn cold_slots(&self) -> usize {
        self.epochs.iter().map(|e| e.cold_slots).sum()
    }

    /// Total warm wall time, seconds.
    pub fn warm_secs(&self) -> f64 {
        self.epochs.iter().map(|e| e.warm_secs).sum()
    }

    /// Total cold wall time, seconds.
    pub fn cold_secs(&self) -> f64 {
        self.epochs.iter().map(|e| e.cold_secs).sum()
    }

    /// Aggregate slot speedup `Σ cold / Σ warm`.
    pub fn slot_speedup(&self) -> f64 {
        self.cold_slots() as f64 / (self.warm_slots() as f64).max(1e-12)
    }

    /// Aggregate wall-time speedup.
    pub fn wall_speedup(&self) -> f64 {
        self.cold_secs() / self.warm_secs().max(1e-12)
    }

    /// Whether every epoch's warm/replay fixed points agreed on ϕ.
    pub fn all_phi_agree(&self) -> bool {
        self.epochs.iter().all(|e| e.phi_agrees)
    }
}

/// A uniformly random route per user, drawn in id order (Alg. 1 line 4:
/// arbitrary initial decisions).
pub(crate) fn random_profile(game: &Game, rng: &mut StdRng) -> Profile {
    let choices = game
        .users()
        .iter()
        .map(|u| RouteId::from_index(rng.random_range(0..u.routes.len())))
        .collect();
    Profile::try_new(game, choices).expect("random choices index each route set")
}

/// The scheduler's standing requests: the response cache, plus the route
/// each improving user requested when its response was last refreshed.
#[derive(Debug)]
pub(crate) struct Requests {
    cache: ResponseCache,
    standing: Vec<Option<RouteId>>,
}

impl Requests {
    /// Requests of `users` users, all due for a refresh (a fresh engine
    /// starts all-dirty).
    pub(crate) fn new(algo: OnlineAlgorithm, users: usize) -> Self {
        let kind = match algo {
            OnlineAlgorithm::Dgrn => ResponseKind::Best,
            OnlineAlgorithm::Brun => ResponseKind::Better,
        };
        Requests {
            cache: ResponseCache::new(kind, vec![true; users]),
            standing: vec![None; users],
        }
    }

    /// Adopts another scheduler's `standing` requests over a fresh
    /// `engine` of the same users: one refresh fills the cache without an
    /// RNG draw, so a replay retraces the original trajectory.
    fn adopt(
        algo: OnlineAlgorithm,
        engine: &mut Engine<'_>,
        standing: Vec<Option<RouteId>>,
    ) -> Self {
        let mut requests = Requests::new(algo, standing.len());
        requests.cache.refresh(engine);
        debug_assert!(
            requests
                .cache
                .iter_improving()
                .eq((0..standing.len()).filter(|&i| standing[i].is_some())),
            "the adopted requests are exactly the fresh engine's improvers"
        );
        requests.standing = standing;
        requests
    }

    /// Makes room for joining `user`, which must be the engine's next id.
    pub(crate) fn push_user(&mut self, user: UserId) {
        debug_assert_eq!(user.index(), self.standing.len(), "joins take the next id");
        self.cache.push_user();
        self.standing.push(None);
    }

    /// Drops departed `user`'s request.
    pub(crate) fn remove_user(&mut self, user: UserId) {
        self.cache.remove_user(user);
        self.standing[user.index()] = None;
    }

    /// A uniformly random route from `user`'s cached response (`None` when
    /// it cannot improve): one RNG draw per improving user, part of the
    /// deterministic trajectory.
    pub(crate) fn draw(&self, user: UserId, rng: &mut StdRng) -> Option<RouteId> {
        cached_request(&self.cache, user, rng).map(|(route, _)| route)
    }

    /// Refreshes the responses of every user the engine marked dirty and
    /// draws their standing requests, in id order (the order is part of
    /// the deterministic trajectory).
    fn refresh(&mut self, engine: &mut Engine<'_>, rng: &mut StdRng, obs: &Obs) {
        // One span and one `RefreshPass` event per pass, not per scan: an
        // incremental scan is ~100ns, below the cost of timing or emitting it.
        let refresh_span = obs.span(SpanKind::BestResponse);
        let (scans, improving) = self.cache.refresh(engine);
        for &user in self.cache.refreshed() {
            self.standing[user.index()] = self.draw(user, rng);
        }
        if scans > 0 {
            refresh_span.finish();
            obs.emit(|| Event::RefreshPass {
                kind: self.cache.kind(),
                scans,
                improving,
            });
        } else {
            refresh_span.cancel();
        }
    }

    /// Drives the engine to a fixed point (or the slot budget): each slot
    /// refreshes dirty requests, then grants one uniformly random standing
    /// request — the SUU rule of Alg. 2, priced from the engine's caches.
    /// Returns `(slots, converged)`. Ends on a refresh with no later move,
    /// so the cache is current for the engine it returns.
    pub(crate) fn drive(
        &mut self,
        engine: &mut Engine<'_>,
        rng: &mut StdRng,
        max_slots: usize,
        obs: &Obs,
    ) -> (usize, bool) {
        let mut slots = 0;
        loop {
            // A pass that finds no improving user (or an exhausted budget)
            // is not a decision slot — the span is cancelled on those paths.
            let slot_span = obs.span(SpanKind::Slot);
            self.refresh(engine, rng, obs);
            let improving = self.cache.improving_len();
            if improving == 0 {
                slot_span.cancel();
                return (slots, true);
            }
            if slots >= max_slots {
                slot_span.cancel();
                return (slots, false);
            }
            let user = UserId::from_index(self.cache.nth_improving(rng.random_range(0..improving)));
            let route = self.standing[user.index()]
                .take()
                .expect("improving user holds a standing request");
            engine.apply_move(user, route);
            slots += 1;
            slot_span.finish();
            obs.emit(|| Event::SlotCompleted {
                slot: slots as u64,
                updated: 1,
                phi: engine.potential(),
                total_profit: engine.total_profit(),
            });
        }
    }
}

/// The online simulator: a live incremental engine plus the standing-request
/// cache, re-equilibrated after every churn batch.
#[derive(Debug)]
pub struct OnlineSim {
    engine: Engine<'static>,
    requests: Requests,
    algo: OnlineAlgorithm,
    rng: StdRng,
    seed: u64,
    max_slots_per_epoch: usize,
    /// Observability handle for the **warm** path only; the equivalence
    /// replay and cold-restart baselines stay silent (they are internal
    /// validation machinery, not part of the simulated system).
    obs: Obs,
}

impl OnlineSim {
    /// Builds the simulator around `game` with a seed-deterministic random
    /// initial profile (Alg. 1 line 4: arbitrary initial decisions).
    pub fn new(game: Game, algo: OnlineAlgorithm, seed: u64, max_slots_per_epoch: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = random_profile(&game, &mut rng);
        Self {
            requests: Requests::new(algo, game.user_count()),
            engine: Engine::new_owned(game, profile),
            algo,
            rng,
            seed,
            max_slots_per_epoch,
            obs: Obs::disabled(),
        }
    }

    /// The live engine (read access — e.g. for snapshotting).
    pub fn engine(&self) -> &Engine<'static> {
        &self.engine
    }

    /// Installs an observability handle on the warm path: the live engine's
    /// per-commit events plus `RefreshPass` / `SlotCompleted` /
    /// `EpochStarted` / `EpochConverged` from the epoch scheduler. The
    /// trajectory is unchanged — observation only watches.
    pub fn set_obs(&mut self, obs: Obs) {
        self.engine.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Re-converges the live engine under one `EpochReconverge` span and
    /// closes epoch `epoch` with its `EpochConverged`.
    fn reconverge(&mut self, epoch: u32) -> (usize, bool) {
        let (slots, converged) = self.obs.time(SpanKind::EpochReconverge, || {
            self.requests.drive(
                &mut self.engine,
                &mut self.rng,
                self.max_slots_per_epoch,
                &self.obs,
            )
        });
        self.obs.emit(|| Event::EpochConverged {
            epoch,
            slots: slots as u64,
            converged,
            phi: self.engine.potential(),
        });
        (slots, converged)
    }

    /// Drives the stream: initial convergence, then per epoch apply the
    /// batch, warm re-converge, retrace on a from-scratch engine
    /// (equivalence replay), and run the cold-restart baseline.
    ///
    /// # Panics
    ///
    /// Panics when the stream contains an invalid event (unknown leave
    /// target, malformed join) — streams from this crate's generators are
    /// valid by construction.
    pub fn run(&mut self, stream: &EventStream) -> OnlineReport {
        self.obs.emit(|| Event::EpochStarted {
            epoch: 0,
            joins: 0,
            leaves: 0,
            active: self.engine.active_count() as u32,
        });
        let (initial_slots, mut converged) = self.reconverge(0);
        let mut epochs = Vec::with_capacity(stream.epochs());
        for (epoch, batch) in stream.batches.iter().enumerate() {
            let warm_start = Instant::now();
            let mut joins = 0;
            let mut leaves = 0;
            for event in batch {
                let joined = apply_churn(&mut self.engine, event).expect("stream events are valid");
                match event {
                    ChurnEvent::Join { .. } => {
                        self.requests
                            .push_user(joined.expect("a join returns its id"));
                        joins += 1;
                    }
                    ChurnEvent::Leave { user } => {
                        self.requests.remove_user(*user);
                        leaves += 1;
                    }
                }
            }
            self.obs.emit(|| Event::EpochStarted {
                epoch: (epoch + 1) as u32,
                joins: joins as u32,
                leaves: leaves as u32,
                active: self.engine.active_count() as u32,
            });
            // Make the standing-request cache fully valid again before
            // forking the replay: only churn-dirtied users are re-evaluated.
            self.requests
                .refresh(&mut self.engine, &mut self.rng, &self.obs);

            // Fork the equivalence replay *before* warm re-convergence: a
            // from-scratch engine on the materialized post-churn game, the
            // same standing requests (renumbered densely via `id_map`) and a
            // clone of the RNG retrace the warm trajectory exactly.
            let (post_game, post_choices, id_map) = self.engine.materialize();
            let mut replay_rng = self.rng.clone();
            let replay_standing: Vec<Option<RouteId>> = id_map
                .iter()
                .map(|u| self.requests.standing[u.index()])
                .collect();

            let (warm_slots, warm_ok) = self.reconverge(epoch as u32 + 1);
            let warm_secs = warm_start.elapsed().as_secs_f64();
            let phi_warm = self.engine.potential();
            let profit = self.engine.total_profit();

            let replay_profile = Profile::try_new(&post_game, post_choices)
                .expect("materialized choices form a valid profile");
            let mut replay = Engine::new(&post_game, replay_profile);
            let (replay_slots, _) = Requests::adopt(self.algo, &mut replay, replay_standing).drive(
                &mut replay,
                &mut replay_rng,
                self.max_slots_per_epoch,
                &Obs::disabled(),
            );
            debug_assert_eq!(
                replay_slots, warm_slots,
                "replay must retrace the warm trajectory"
            );
            let phi_replay = replay.potential_fresh();
            let phi_agrees = (phi_warm - phi_replay).abs() <= PHI_TOLERANCE;
            if warm_ok {
                debug_assert!(
                    is_nash(&post_game, replay.profile()),
                    "a converged epoch must end in a Nash equilibrium"
                );
            }

            // Cold-restart baseline: rebuild from the post-churn game with a
            // fresh random profile, as a churn-unaware platform would.
            let cold_start = Instant::now();
            let mut cold_rng = StdRng::seed_from_u64(
                self.seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut cold = Engine::new(&post_game, random_profile(&post_game, &mut cold_rng));
            let (cold_slots, cold_ok) = Requests::new(self.algo, post_game.user_count()).drive(
                &mut cold,
                &mut cold_rng,
                self.max_slots_per_epoch,
                &Obs::disabled(),
            );
            let cold_secs = cold_start.elapsed().as_secs_f64();
            let phi_cold = cold.potential_fresh();

            converged &= warm_ok && cold_ok;
            epochs.push(EpochReport {
                epoch,
                joins,
                leaves,
                active_users: self.engine.active_count(),
                warm_slots,
                cold_slots,
                warm_secs,
                cold_secs,
                phi_warm,
                phi_replay,
                phi_cold,
                phi_agrees,
                profit,
            });
        }
        let report = OnlineReport {
            initial_slots,
            epochs,
            converged,
        };
        self.obs.emit(|| Event::RunCompleted {
            slots: (report.initial_slots + report.warm_slots()) as u64,
            updates: (report.initial_slots + report.warm_slots()) as u64,
            converged: report.converged,
            phi: self.engine.potential(),
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{synthetic_stream, StreamConfig};
    use std::sync::Arc;
    use vcs_obs::{LiveMonitor, WatchdogConfig, WatchdogSubscriber};

    /// The per-epoch slot cap as the watchdog's slot budget: a clean run
    /// can never trip it.
    fn watchdog_config(max_slots_per_epoch: u64) -> WatchdogConfig {
        WatchdogConfig {
            slot_budget: Some(max_slots_per_epoch),
            ..WatchdogConfig::default()
        }
    }

    fn small_config(seed: u64) -> StreamConfig {
        StreamConfig {
            initial_users: 20,
            n_tasks: 10,
            epochs: 4,
            churn_rate: 0.1,
            seed,
        }
    }

    #[test]
    fn warm_reconvergence_agrees_with_replay() {
        for algo in [OnlineAlgorithm::Dgrn, OnlineAlgorithm::Brun] {
            for seed in 0..4 {
                let (game, stream) = synthetic_stream(&small_config(seed));
                let mut sim = OnlineSim::new(game, algo, seed, 100_000);
                let report = sim.run(&stream);
                assert!(report.converged, "{algo:?} seed {seed} did not converge");
                assert_eq!(report.epochs.len(), 4);
                assert!(
                    report.all_phi_agree(),
                    "{algo:?} seed {seed}: warm ϕ diverged from the from-scratch replay"
                );
            }
        }
    }

    #[test]
    fn warm_start_needs_fewer_slots_than_cold_restart() {
        let (game, stream) = synthetic_stream(&StreamConfig {
            initial_users: 60,
            n_tasks: 30,
            epochs: 3,
            churn_rate: 0.05,
            seed: 1,
        });
        let mut sim = OnlineSim::new(game, OnlineAlgorithm::Dgrn, 1, 100_000);
        let report = sim.run(&stream);
        assert!(report.converged);
        assert!(
            report.warm_slots() < report.cold_slots(),
            "warm {} slots vs cold {} slots",
            report.warm_slots(),
            report.cold_slots()
        );
    }

    #[test]
    fn clean_online_run_raises_no_watchdog_alerts() {
        for algo in [OnlineAlgorithm::Dgrn, OnlineAlgorithm::Brun] {
            let (game, stream) = synthetic_stream(&small_config(3));
            let mut sim = OnlineSim::new(game, algo, 3, 100_000);
            let dog = Arc::new(WatchdogSubscriber::new(watchdog_config(100_000)));
            sim.set_obs(Obs::new(dog.clone()));
            let report = sim.run(&stream);
            assert!(report.converged);
            assert_eq!(
                dog.alert_count(),
                0,
                "{algo:?}: clean run raised {:?}",
                dog.alerts()
            );
            // Every epoch's events reached the watchdog.
            assert_eq!(dog.counters(), (0, 0, 0));
        }
    }

    #[test]
    fn watched_monitor_serves_alerts_endpoint() {
        use std::io::{Read as _, Write as _};
        let (game, stream) = synthetic_stream(&small_config(5));
        let mut sim = OnlineSim::new(game, OnlineAlgorithm::Dgrn, 5, 100_000);
        let monitor =
            LiveMonitor::bind_watched("127.0.0.1:0", watchdog_config(100_000)).expect("bind");
        sim.set_obs(monitor.obs());
        let addr = monitor.addr();
        sim.run(&stream);
        assert!(monitor.watchdog().is_some());
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /alerts HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        assert!(body.contains("200 OK"), "{body}");
        assert!(body.contains("\"alerts\":[]"), "clean run: {body}");
    }

    #[test]
    fn report_is_deterministic_in_the_seed() {
        let (game, stream) = synthetic_stream(&small_config(7));
        let run = |game: Game| {
            let mut sim = OnlineSim::new(game, OnlineAlgorithm::Dgrn, 7, 100_000);
            let mut report = sim.run(&stream);
            // Wall-clock fields are the only nondeterministic ones.
            for e in &mut report.epochs {
                e.warm_secs = 0.0;
                e.cold_secs = 0.0;
            }
            report
        };
        assert_eq!(run(game.clone()), run(game));
    }
}
