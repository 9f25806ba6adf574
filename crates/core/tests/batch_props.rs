//! Property tests for the conflict-free batch commit path: applying a
//! randomized PUU-style batch (pairwise-disjoint affected task sets) through
//! `Engine::apply_batch` must be **bit-identical** to applying the same
//! moves one-by-one via `Engine::apply_move` — running ϕ and total profit to
//! the bit, profiles and dirty sets exactly, and the emitted event stream
//! move for move.

use proptest::prelude::*;
use std::sync::Arc;
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{Engine, Game, PlatformParams, Profile, Route, Task, User, UserPrefs};
use vcs_obs::{Obs, RingBufferSubscriber};

/// A generated game plus a valid starting profile.
#[derive(Debug, Clone)]
struct Instance {
    game: Game,
    choices: Vec<RouteId>,
}

prop_compose! {
    fn arb_instance()(
        n_tasks in 1usize..14,
        n_users in 1usize..24,
        seed in any::<u64>(),
    ) -> Instance {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let tasks: Vec<Task> = (0..n_tasks)
            .map(|k| Task::new(
                TaskId::from_index(k),
                rng.random_range(10.0..20.0),
                rng.random_range(0.0..1.0),
            ))
            .collect();
        let users: Vec<User> = (0..n_users)
            .map(|i| {
                let n_routes = rng.random_range(1..=4usize);
                let routes = (0..n_routes)
                    .map(|r| {
                        let mut covered: Vec<TaskId> = (0..rng.random_range(0..4usize))
                            .map(|_| TaskId::from_index(rng.random_range(0..n_tasks)))
                            .collect();
                        covered.sort_unstable();
                        covered.dedup();
                        Route::new(
                            RouteId::from_index(r),
                            covered,
                            rng.random_range(0.0..5.0),
                            rng.random_range(0.0..5.0),
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
        let choices = users
            .iter()
            .map(|u| RouteId::from_index(rng.random_range(0..u.routes.len())))
            .collect();
        let game = Game::with_paper_bounds(
            tasks,
            users,
            PlatformParams::new(rng.random_range(0.1..0.8), rng.random_range(0.1..0.8)),
        )
        .expect("generated game is valid");
        Instance { game, choices }
    }
}

/// Greedily assembles a conflict-free batch exactly the way PUU grants one:
/// walk the users in id order, propose a random non-current route, and admit
/// the move only if its affected set `B_i = L_{s_i} ∪ L_{s_i'}` is disjoint
/// from every already-admitted move's.
fn greedy_conflict_free_batch(game: &Game, profile: &Profile, seed: u64) -> Vec<(UserId, RouteId)> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut taken: Vec<TaskId> = Vec::new();
    let mut batch = Vec::new();
    for user in game.users() {
        if user.routes.len() < 2 {
            continue;
        }
        let current = profile.choice(user.id);
        let mut candidate = RouteId::from_index(rng.random_range(0..user.routes.len()));
        if candidate == current {
            candidate = RouteId::from_index((candidate.index() + 1) % user.routes.len());
        }
        let mut affected: Vec<TaskId> = user.routes[current.index()]
            .tasks
            .iter()
            .chain(user.routes[candidate.index()].tasks.iter())
            .copied()
            .collect();
        affected.sort_unstable();
        affected.dedup();
        if affected.iter().any(|t| taken.contains(t)) {
            continue;
        }
        taken.extend(affected);
        batch.push((user.id, candidate));
    }
    batch
}

fn observed_engine(
    game: &Game,
    choices: &[RouteId],
) -> (Engine<'static>, Arc<RingBufferSubscriber>) {
    let profile = Profile::new(game, choices.to_vec());
    let mut engine = Engine::new_owned(game.clone(), profile);
    let ring = Arc::new(RingBufferSubscriber::new(1 << 16));
    engine.set_obs(Obs::new(ring.clone()));
    (engine, ring)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn apply_batch_matches_an_apply_move_loop(
        instance in arb_instance(),
        batch_seed in any::<u64>(),
    ) {
        let Instance { game, choices } = instance;
        let profile = Profile::new(&game, choices.clone());
        let batch = greedy_conflict_free_batch(&game, &profile, batch_seed);

        // Reference: one apply_move per granted move, in grant order.
        let (mut seq, seq_ring) = observed_engine(&game, &choices);
        let mut applied_ref = 0usize;
        for &(user, route) in &batch {
            if seq.profile().choice(user) != route {
                applied_ref += 1;
            }
            seq.apply_move(user, route);
        }

        let (mut batched, ring) = observed_engine(&game, &choices);
        prop_assert_eq!(batched.apply_batch(&batch), applied_ref);
        prop_assert_eq!(batched.potential().to_bits(), seq.potential().to_bits());
        prop_assert_eq!(batched.total_profit().to_bits(), seq.total_profit().to_bits());
        prop_assert_eq!(batched.profile(), seq.profile());
        prop_assert_eq!(batched.take_dirty(), seq.take_dirty());
        // The event stream — including per-move ϕ/total snapshots taken
        // mid-batch — must match move for move.
        prop_assert_eq!(ring.events(), seq_ring.events());
    }

    #[test]
    fn batch_of_noops_applies_nothing(instance in arb_instance()) {
        let Instance { game, choices } = instance;
        let profile = Profile::new(&game, choices.clone());
        let noops: Vec<(UserId, RouteId)> = game
            .users()
            .iter()
            .map(|u| (u.id, profile.choice(u.id)))
            .collect();
        let mut engine = Engine::new(&game, profile);
        engine.take_dirty();
        let phi = engine.potential();
        prop_assert_eq!(engine.apply_batch(&noops), 0);
        prop_assert_eq!(engine.potential().to_bits(), phi.to_bits());
        prop_assert!(engine.take_dirty().is_empty());
    }
}
