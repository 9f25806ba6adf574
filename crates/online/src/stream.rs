//! Churn stream synthesis: timestamped batches of [`ChurnEvent`]s that
//! perturb a live game between re-equilibration epochs.
//!
//! Two generators are provided:
//!
//! * [`synthetic_stream`] — paper-range random games of arbitrary size
//!   (mirrors the `vcs-bench` synthetic generator's parameter ranges), with
//!   a fixed per-epoch churn rate;
//! * [`trace_stream`] — arrivals synthesized from a [`UserPool`]'s
//!   trace-derived commuters: the *timing* of joins follows the empirical
//!   departure-time distribution of the pool (bucketed into epochs via
//!   [`vcs_traces::arrival_epochs`]), and each join's route set comes from
//!   [`UserPool::sample_arrival`], i.e. the same OD → recommended-routes →
//!   coverage pipeline as the static scenarios.
//!
//! Both generators do their own id accounting — joins take engine ids in
//! append-only order, so a generated `Leave { user }` always refers to a
//! user that is active at that point of the stream. This is what lets the
//! same stream drive both the engine-level [`crate::OnlineSim`] and the
//! message-passing runtimes without translation: its
//! [`batches`](EventStream::batches) are the `epochs` argument of
//! `vcs_runtime::run_sync_churn(game, scheduler, seed, max_slots, epochs,
//! obs)` and of `run_threaded_churn`, which takes the same arguments.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{ChurnEvent, Game, PlatformParams, Route, Task, User, UserPrefs, UserSpec};
use vcs_scenario::{ScenarioConfig, ScenarioParams, UserPool};
use vcs_traces::arrival_epochs;

/// Shape of a synthesized churn stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Users present before the first epoch.
    pub initial_users: usize,
    /// Number of crowdsensing tasks (fixed for the whole stream — churn
    /// moves users, not the task deployment).
    pub n_tasks: usize,
    /// Number of churn epochs (batches of events between re-equilibrations).
    pub epochs: usize,
    /// Fraction of the active population replaced per epoch. Each epoch
    /// pairs every arrival with a departure, so the population stays at
    /// `initial_users` throughout.
    pub churn_rate: f64,
    /// Seed for both the initial game and the stream.
    pub seed: u64,
}

/// A batched churn stream: `batches[e]` holds the events arriving between
/// epoch `e`'s re-equilibration and the previous one. Events within a batch
/// are ordered; leaves always name users active at that point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventStream {
    /// One batch of events per epoch.
    pub batches: Vec<Vec<ChurnEvent>>,
}

impl EventStream {
    /// Number of epochs.
    pub fn epochs(&self) -> usize {
        self.batches.len()
    }

    /// Total number of `Join` events across all epochs.
    pub fn join_count(&self) -> usize {
        self.batches
            .iter()
            .flatten()
            .filter(|e| matches!(e, ChurnEvent::Join { .. }))
            .count()
    }

    /// Total number of `Leave` events across all epochs.
    pub fn leave_count(&self) -> usize {
        self.batches
            .iter()
            .flatten()
            .filter(|e| matches!(e, ChurnEvent::Leave { .. }))
            .count()
    }
}

/// One paper-range task: `a_k ∈ [10, 20)`, `μ_k ∈ [0, 1)`.
fn synthetic_task(id: TaskId, rng: &mut StdRng) -> Task {
    Task::new(id, rng.random_range(10.0..20.0), rng.random_range(0.0..1.0))
}

/// One paper-range user spec: 2–4 routes of 1–4 distinct tasks each, detour
/// in `[0, 5)`, congestion in `[0, 4)`, weights in `[0.1, 0.9)` — the same
/// ranges as the `vcs-bench` synthetic generator, so online instances are
/// statistically comparable to the engine benchmarks.
pub(crate) fn synthetic_spec(n_tasks: usize, rng: &mut StdRng) -> UserSpec {
    let n_routes = rng.random_range(2..=4usize);
    let routes = (0..n_routes)
        .map(|r| {
            let mut covered: Vec<TaskId> = (0..rng.random_range(1..5usize))
                .map(|_| TaskId::from_index(rng.random_range(0..n_tasks)))
                .collect();
            covered.sort_unstable();
            covered.dedup();
            Route::new(
                RouteId::from_index(r),
                covered,
                rng.random_range(0.0..5.0),
                rng.random_range(0.0..4.0),
            )
        })
        .collect();
    let prefs = UserPrefs::new(
        rng.random_range(0.1..0.9),
        rng.random_range(0.1..0.9),
        rng.random_range(0.1..0.9),
    );
    UserSpec::new(prefs, routes)
}

/// A paper-range game of `n_users` synthetic users over `n_tasks` synthetic
/// tasks, drawn from `rng` (tasks first, then users in id order).
pub(crate) fn synthetic_game(n_tasks: usize, n_users: usize, rng: &mut StdRng) -> Game {
    let tasks: Vec<Task> = (0..n_tasks)
        .map(|k| synthetic_task(TaskId::from_index(k), rng))
        .collect();
    let users: Vec<User> = (0..n_users)
        .map(|i| {
            let spec = synthetic_spec(n_tasks, rng);
            User::new(UserId::from_index(i), spec.prefs, spec.routes)
        })
        .collect();
    Game::with_paper_bounds(tasks, users, PlatformParams::new(0.4, 0.4))
        .expect("synthetic parameters are in paper range")
}

/// Synthesizes an initial game plus a churn stream, entirely from the seed.
///
/// Each epoch replaces `max(1, round(churn_rate · active))` users: events
/// alternate `Leave` (uniform over the tracked active set) and `Join` (fresh
/// paper-range spec, uniform initial route), so a batch exercises mixed
/// orderings rather than all-leaves-then-all-joins.
pub fn synthetic_stream(config: &StreamConfig) -> (Game, EventStream) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let game = synthetic_game(config.n_tasks, config.initial_users, &mut rng);

    // Id accounting mirrors the engine: ids are append-only, never reused.
    let mut active: Vec<UserId> = (0..config.initial_users).map(UserId::from_index).collect();
    let mut next = config.initial_users;
    let mut batches = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        let n_churn = ((config.churn_rate * active.len() as f64).round() as usize).max(1);
        let mut batch = Vec::with_capacity(2 * n_churn);
        for _ in 0..n_churn {
            if !active.is_empty() {
                let idx = rng.random_range(0..active.len());
                batch.push(ChurnEvent::Leave {
                    user: active.swap_remove(idx),
                });
            }
            let spec = synthetic_spec(config.n_tasks, &mut rng);
            let initial = RouteId::from_index(rng.random_range(0..spec.routes.len()));
            batch.push(ChurnEvent::Join { spec, initial });
            active.push(UserId::from_index(next));
            next += 1;
        }
        batches.push(batch);
    }
    (game, EventStream { batches })
}

/// Builds an initial game from a trace-derived pool plus a churn stream
/// whose arrivals follow the pool's empirical departure times.
///
/// The total arrival count is `round(churn_rate · initial_users · epochs)`
/// (at least one per epoch on average); each arrival's *epoch* comes from
/// bucketing a sampled pool departure time with [`arrival_epochs`], so rush
/// hours in the traces become join-heavy epochs. Every arrival is paired
/// with a departure sampled uniformly from the active set, keeping the
/// population near `initial_users`.
///
/// # Panics
///
/// Panics when the pool is empty or holds fewer commuters than
/// `config.initial_users` (propagated from [`UserPool::instantiate`]).
pub fn trace_stream(
    pool: &UserPool,
    params: &ScenarioParams,
    config: &StreamConfig,
) -> (Game, EventStream) {
    let game = pool.instantiate(&ScenarioConfig {
        n_users: config.initial_users,
        n_tasks: config.n_tasks,
        seed: config.seed,
        params: *params,
    });
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x00C0_FFEE);
    let total = ((config.churn_rate * config.initial_users as f64 * config.epochs as f64).round()
        as usize)
        .max(config.epochs);
    let departs: Vec<f64> = (0..total)
        .map(|_| pool.users[rng.random_range(0..pool.len())].depart)
        .collect();
    let joins_per_epoch = arrival_epochs(&departs, config.epochs);

    let tasks = game.tasks().to_vec();
    let mut active: Vec<UserId> = (0..config.initial_users).map(UserId::from_index).collect();
    let mut next = config.initial_users;
    let mut batches = Vec::with_capacity(config.epochs);
    for &n_joins in &joins_per_epoch {
        let mut batch = Vec::with_capacity(2 * n_joins);
        for _ in 0..n_joins {
            if !active.is_empty() {
                let idx = rng.random_range(0..active.len());
                batch.push(ChurnEvent::Leave {
                    user: active.swap_remove(idx),
                });
            }
            let spec = pool.sample_arrival(&tasks, params, &mut rng);
            let initial = RouteId::from_index(rng.random_range(0..spec.routes.len()));
            batch.push(ChurnEvent::Join { spec, initial });
            active.push(UserId::from_index(next));
            next += 1;
        }
        batches.push(batch);
    }
    (game, EventStream { batches })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcs_core::{apply_churn, Engine, Profile};

    fn apply_all(game: &Game, stream: &EventStream) {
        let choices = vec![RouteId(0); game.user_count()];
        let profile = Profile::try_new(game, choices).expect("route 0 exists for every user");
        let mut engine = Engine::new(game, profile);
        for event in stream.batches.iter().flatten() {
            apply_churn(&mut engine, event).expect("generated streams are valid");
        }
    }

    #[test]
    fn synthetic_stream_is_valid_and_deterministic() {
        let config = StreamConfig {
            initial_users: 12,
            n_tasks: 8,
            epochs: 4,
            churn_rate: 0.25,
            seed: 9,
        };
        let (game, stream) = synthetic_stream(&config);
        assert_eq!(game.user_count(), 12);
        assert_eq!(stream.epochs(), 4);
        // 25% of 12 → 3 replacements per epoch, population held constant.
        assert_eq!(stream.join_count(), 12);
        assert_eq!(stream.leave_count(), 12);
        apply_all(&game, &stream);

        let (game2, stream2) = synthetic_stream(&config);
        assert_eq!(game, game2);
        assert_eq!(stream, stream2);
    }

    #[test]
    fn synthetic_stream_survives_tiny_population() {
        let config = StreamConfig {
            initial_users: 1,
            n_tasks: 3,
            epochs: 5,
            churn_rate: 1.0,
            seed: 3,
        };
        let (game, stream) = synthetic_stream(&config);
        apply_all(&game, &stream);
        assert_eq!(stream.join_count(), 5);
    }

    #[test]
    fn trace_stream_buckets_arrivals_by_departure() {
        let pool = UserPool::build(vcs_scenario::Dataset::Shanghai, 77);
        let params = ScenarioParams::default();
        let config = StreamConfig {
            initial_users: 10,
            n_tasks: 6,
            epochs: 3,
            churn_rate: 0.3,
            seed: 5,
        };
        let (game, stream) = trace_stream(&pool, &params, &config);
        assert_eq!(game.user_count(), 10);
        assert_eq!(stream.epochs(), 3);
        // round(0.3 · 10 · 3) = 9 arrivals distributed over the epochs.
        assert_eq!(stream.join_count(), 9);
        assert_eq!(stream.leave_count(), 9);
        apply_all(&game, &stream);

        let (_, stream2) = trace_stream(&pool, &params, &config);
        assert_eq!(stream, stream2);
    }
}
