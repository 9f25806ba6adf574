//! Theorem 4 conformance: every runtime's slot count stays below the
//! paper's convergence bound
//! `C < (e_max/ΔP_min)·|U|·(|L|(g_max−g_min) + (e_max/e_min)(d_max+b_max))`,
//! with `ΔP_min` recovered from the observability layer: each committed
//! move's `profit_delta` is the mover's exact profit gain (Eq. 11), so the
//! smallest one over a run is the ΔP_min the bound needs.
//!
//! Covered paths: the sync runtime (both schedulers), the threaded runtime,
//! the lossy channel, the stale-information runtime, and every epoch of the
//! churn runtime (per-epoch game rebuilt via a shadow engine) — ≥ 20 seeds
//! across the lot.

use std::sync::Arc;
use vcs_core::bounds::slot_upper_bound;
use vcs_core::examples::fig1_instance;
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{
    apply_churn, ChurnEvent, Engine, Game, PlatformParams, Profile, Route, Task, User, UserPrefs,
    UserSpec,
};
use vcs_obs::{Event, Obs, RingBufferSubscriber};
use vcs_runtime::platform::SchedulerKind;
use vcs_runtime::resilience::{run_lossy, run_stale, LossConfig};
use vcs_runtime::sync_runtime::{run_sync, run_sync_churn};
use vcs_runtime::threaded::run_threaded;

/// A seeded random game, large enough to need a nontrivial convergence.
fn random_game(seed: u64) -> Game {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n_tasks = rng.random_range(4..=8usize);
    let n_users = rng.random_range(4..=10usize);
    let tasks: Vec<Task> = (0..n_tasks)
        .map(|k| {
            Task::new(
                TaskId::from_index(k),
                rng.random_range(10.0..20.0),
                rng.random_range(0.0..1.0),
            )
        })
        .collect();
    let users: Vec<User> = (0..n_users)
        .map(|i| {
            let n_routes = rng.random_range(2..=4usize);
            let routes = (0..n_routes)
                .map(|r| {
                    let mut covered: Vec<TaskId> = (0..rng.random_range(1..4usize))
                        .map(|_| TaskId::from_index(rng.random_range(0..n_tasks)))
                        .collect();
                    covered.sort_unstable();
                    covered.dedup();
                    Route::new(
                        RouteId::from_index(r),
                        covered,
                        rng.random_range(0.0..3.0),
                        rng.random_range(0.0..3.0),
                    )
                })
                .collect();
            User::new(
                UserId::from_index(i),
                UserPrefs::new(
                    rng.random_range(0.1..0.9),
                    rng.random_range(0.1..0.9),
                    rng.random_range(0.1..0.9),
                ),
                routes,
            )
        })
        .collect();
    Game::with_paper_bounds(
        tasks,
        users,
        PlatformParams::new(rng.random_range(0.1..0.8), rng.random_range(0.1..0.8)),
    )
    .expect("generated instance is valid")
}

/// The smallest committed profit improvement in an event slice — the run's
/// ΔP_min. `None` when no move was committed.
fn delta_p_min(events: &[Event]) -> Option<f64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::MoveCommitted { profit_delta, .. } => Some(*profit_delta),
            _ => None,
        })
        .min_by(|a, b| a.total_cmp(b))
}

/// Asserts `slots` respects the Theorem 4 bound for `game` given the
/// captured events, and that every accepted move strictly improved.
fn assert_theorem4(game: &Game, slots: usize, events: &[Event], context: &str) {
    let Some(dp_min) = delta_p_min(events) else {
        assert_eq!(slots, 0, "{context}: slots without any committed move");
        return;
    };
    assert!(
        dp_min > 0.0,
        "{context}: accepted a non-improving move (ΔP = {dp_min})"
    );
    let bound = slot_upper_bound(game, dp_min);
    assert!(
        (slots as f64) < bound,
        "{context}: {slots} slots exceed the Theorem 4 bound {bound} (ΔP_min = {dp_min})"
    );
}

fn capture() -> (Arc<RingBufferSubscriber>, Obs) {
    let ring = Arc::new(RingBufferSubscriber::new(1 << 16));
    let obs = Obs::new(ring.clone());
    (ring, obs)
}

#[test]
fn sync_runs_respect_the_slot_bound() {
    // 2 schedulers × (fig. 1 + 10 random games) × 2 seeds ≥ 20 runs.
    for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
        for game_seed in 0..11u64 {
            let game = if game_seed == 0 {
                fig1_instance()
            } else {
                random_game(game_seed)
            };
            for seed in 0..2u64 {
                let (ring, obs) = capture();
                let out = run_sync(&game, scheduler, seed, 100_000, &obs);
                assert!(out.converged);
                assert_theorem4(
                    &game,
                    out.slots,
                    &ring.events(),
                    &format!("sync {scheduler:?} game {game_seed} seed {seed}"),
                );
            }
        }
    }
}

#[test]
fn threaded_runs_respect_the_slot_bound() {
    for game_seed in 1..6u64 {
        let game = random_game(game_seed);
        for seed in 0..4u64 {
            let (ring, obs) = capture();
            let out = run_threaded(&game, SchedulerKind::Puu, seed, 100_000, &obs);
            assert!(out.converged);
            assert_theorem4(
                &game,
                out.slots,
                &ring.events(),
                &format!("threaded game {game_seed} seed {seed}"),
            );
        }
    }
}

#[test]
fn lossy_runs_respect_the_slot_bound() {
    for game_seed in 1..6u64 {
        let game = random_game(game_seed);
        for seed in 0..4u64 {
            let (ring, obs) = capture();
            let loss = LossConfig::hostile(seed.wrapping_add(31));
            let (out, _) = run_lossy(&game, SchedulerKind::Puu, seed, 100_000, &loss, &obs);
            assert!(out.converged);
            assert_theorem4(
                &game,
                out.slots,
                &ring.events(),
                &format!("lossy game {game_seed} seed {seed}"),
            );
        }
    }
}

#[test]
fn stale_runs_respect_the_slot_bound() {
    // Staleness costs extra *rounds* but every counted slot still carries a
    // strict improvement, so the bound applies unchanged.
    for refresh in [2usize, 4] {
        for game_seed in 1..6u64 {
            let game = random_game(game_seed);
            for seed in 0..2u64 {
                let (ring, obs) = capture();
                let out = run_stale(&game, SchedulerKind::Suu, seed, 100_000, refresh, &obs);
                assert!(out.converged);
                assert_theorem4(
                    &game,
                    out.slots,
                    &ring.events(),
                    &format!("stale/{refresh} game {game_seed} seed {seed}"),
                );
            }
        }
    }
}

/// A small churn stream against fig. 1: one join, then two departures.
fn fig1_stream() -> Vec<Vec<ChurnEvent>> {
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
fn churn_epochs_respect_the_per_epoch_slot_bound() {
    // Each churn batch redefines the game, so the bound is per-epoch: a
    // shadow engine replays the batches to materialize each epoch's game,
    // and the event stream is segmented at the epoch brackets.
    let game = fig1_instance();
    let epochs = fig1_stream();
    for seed in 0..20u64 {
        let (ring, obs) = capture();
        let out = run_sync_churn(&game, SchedulerKind::Puu, seed, 100_000, &epochs, &obs);
        assert!(out.converged, "seed {seed}");
        let events = ring.events();

        // Epoch games: epoch 0 is the original; epoch e ≥ 1 is the live
        // game after batch e, materialized from the shadow engine.
        let mut epoch_games = vec![game.clone()];
        let mut shadow = Engine::new_owned(game.clone(), Profile::all_first(&game));
        for batch in &epochs {
            for event in batch {
                apply_churn(&mut shadow, event).expect("stream events are valid");
            }
            let (epoch_game, _, _) = shadow.materialize();
            epoch_games.push(epoch_game);
        }

        // Segment events per epoch at the EpochStarted markers.
        let mut segments: Vec<Vec<Event>> = Vec::new();
        for event in &events {
            if matches!(event, Event::EpochStarted { .. }) {
                segments.push(Vec::new());
            }
            if let Some(current) = segments.last_mut() {
                current.push(*event);
            }
        }
        assert_eq!(segments.len(), epoch_games.len(), "seed {seed}");
        assert_eq!(out.epoch_slots.len(), epoch_games.len(), "seed {seed}");
        for (epoch, ((segment, epoch_game), &slots)) in segments
            .iter()
            .zip(&epoch_games)
            .zip(&out.epoch_slots)
            .enumerate()
        {
            assert_theorem4(
                epoch_game,
                slots,
                segment,
                &format!("churn seed {seed} epoch {epoch}"),
            );
        }
    }
}
