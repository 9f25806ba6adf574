//! Property tests of the solver's response cache ([`ResponseCache`]): under
//! random moves, joins and leaves, random construction-time `driven` masks
//! (joiners are always driven) and both response kinds, every refresh must
//! leave
//!
//! * the improving bitset's `improving_len()`, every `nth_improving(k)` and
//!   `iter_improving()` equal to the brute-force sorted list of users that
//!   are active, driven and have a non-empty fresh response, and
//! * each active driven user's cached response equal to a fresh
//!   `best_route_set` / `better_routes` of the current profile.
//!
//! The sequences mix single moves with bursts of moves and leaves.
//! `word_boundaries_and_joins_across_them` pins the bitset's word edges:
//! pools of 63, 64 and 65 users, and joins that open a new word.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vcs::core::ids::{RouteId, TaskId, UserId};
use vcs::core::{
    best_route_set, better_routes, Engine, Game, PlatformParams, Profile, ResponseCache, Route,
    Task, User, UserPrefs,
};
use vcs::obs::ResponseKind;

const N_TASKS: usize = 12;

fn random_user(rng: &mut StdRng) -> (UserPrefs, Vec<Route>) {
    let routes = (0..rng.random_range(1..=4usize))
        .map(|r| {
            let mut covered: Vec<TaskId> = (0..rng.random_range(0..5usize))
                .map(|_| TaskId::from_index(rng.random_range(0..N_TASKS)))
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
    (prefs, routes)
}

fn random_engine(rng: &mut StdRng, n_users: usize) -> Engine<'static> {
    let tasks: Vec<Task> = (0..N_TASKS)
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
            let (prefs, routes) = random_user(rng);
            User::new(UserId::from_index(i), prefs, routes)
        })
        .collect();
    let game = Game::with_paper_bounds(tasks, users, PlatformParams::new(0.4, 0.4)).unwrap();
    let choices = game
        .users()
        .iter()
        .map(|u| RouteId::from_index(rng.random_range(0..u.routes.len())))
        .collect();
    let profile = Profile::new(&game, choices);
    Engine::new_owned(game, profile)
}

/// Refreshes `cache` and checks it against a brute-force recomputation.
fn refresh_and_check(
    engine: &mut Engine<'_>,
    cache: &mut ResponseCache,
    driven: &[bool],
) -> Result<(), String> {
    let (scans, improving) = cache.refresh(engine);
    if scans as usize != cache.refreshed().len() {
        return Err(format!(
            "{scans} scans for {} refreshed",
            cache.refreshed().len()
        ));
    }
    if cache.refreshed().iter().any(|u| !driven[u.index()]) {
        return Err("an undriven user was rescanned".into());
    }
    if !cache.refreshed().windows(2).all(|w| w[0] < w[1]) {
        return Err("refreshed users are not in id order".into());
    }
    let (game, profile) = (engine.game(), engine.profile());
    let mut expected = Vec::new();
    for (i, &drives) in driven.iter().enumerate() {
        let user = UserId::from_index(i);
        if !engine.is_active(user) || !drives {
            continue;
        }
        let non_empty = match cache.kind() {
            ResponseKind::Best => {
                let fresh = best_route_set(game, profile, user);
                if cache.best(user) != &fresh {
                    return Err(format!("user {i}: cached best response is stale"));
                }
                !fresh.best_routes.is_empty()
            }
            ResponseKind::Better => {
                let fresh = better_routes(game, profile, user);
                if cache.better(user) != fresh.as_slice() {
                    return Err(format!("user {i}: cached better routes are stale"));
                }
                !fresh.is_empty()
            }
        };
        if non_empty {
            expected.push(i);
        }
    }
    let iterated: Vec<usize> = cache.iter_improving().collect();
    let ranked: Vec<usize> = (0..cache.improving_len())
        .map(|k| cache.nth_improving(k))
        .collect();
    if iterated != expected || ranked != expected {
        return Err(format!(
            "iter_improving {iterated:?} / nth_improving {ranked:?} != brute force {expected:?}"
        ));
    }
    let refreshed_improving = cache
        .refreshed()
        .iter()
        .filter(|u| expected.binary_search(&u.index()).is_ok())
        .count();
    if improving as usize != refreshed_improving {
        return Err(format!(
            "reported {improving} improving of {refreshed_improving}"
        ));
    }
    Ok(())
}

fn random_active(engine: &Engine<'_>, rng: &mut StdRng) -> UserId {
    let active: Vec<UserId> = engine.active_users().collect();
    active[rng.random_range(0..active.len())]
}

fn random_move(engine: &mut Engine<'_>, rng: &mut StdRng) {
    let user = random_active(engine, rng);
    let routes = engine.game().users()[user.index()].routes.len();
    engine.apply_move(user, RouteId::from_index(rng.random_range(0..routes)));
}

/// Runs one random sequence of moves, joins, leaves and bursts, checking
/// the cache after every refresh.
fn run_sequence(seed: u64, n_users: usize, kind: ResponseKind) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = random_engine(&mut rng, n_users);
    let driven_share = rng.random_range(0.3..1.0);
    let mut driven: Vec<bool> = (0..n_users)
        .map(|_| rng.random_bool(driven_share))
        .collect();
    let mut cache = ResponseCache::new(kind, driven.clone());
    refresh_and_check(&mut engine, &mut cache, &driven)?;
    for _ in 0..40 {
        match rng.random_range(0..10u32) {
            0..=3 => random_move(&mut engine, &mut rng),
            4 | 5 => {
                let (prefs, routes) = random_user(&mut rng);
                let initial = RouteId::from_index(rng.random_range(0..routes.len()));
                engine.add_user(prefs, routes, initial).unwrap();
                cache.push_user();
                driven.push(true);
            }
            6 if engine.active_count() > 1 => {
                let user = random_active(&engine, &mut rng);
                engine.remove_user(user).unwrap();
                cache.remove_user(user);
            }
            7 => {
                // A burst: many moves and some leaves before one refresh.
                for _ in 0..rng.random_range(10..60usize) {
                    if rng.random_bool(0.1) && engine.active_count() > 1 {
                        let user = random_active(&engine, &mut rng);
                        engine.remove_user(user).unwrap();
                        cache.remove_user(user);
                    } else {
                        random_move(&mut engine, &mut rng);
                    }
                }
            }
            _ => {}
        }
        refresh_and_check(&mut engine, &mut cache, &driven)?;
    }
    Ok(())
}

fn kind_of(better: bool) -> ResponseKind {
    if better {
        ResponseKind::Better
    } else {
        ResponseKind::Best
    }
}

proptest! {
    #[test]
    fn cache_matches_brute_force_after_every_refresh(
        seed in any::<u64>(),
        n_users in 2usize..160,
        better in any::<bool>(),
    ) {
        let outcome = run_sequence(seed, n_users, kind_of(better));
        prop_assert!(outcome.is_ok(), "seed {seed}, {n_users} users: {outcome:?}");
    }
}

#[test]
fn word_boundaries_and_joins_across_them() {
    for better in [false, true] {
        for n_users in [63, 64, 65] {
            for seed in 0..8 {
                let outcome = run_sequence(seed, n_users, kind_of(better));
                assert!(outcome.is_ok(), "seed {seed}, {n_users} users: {outcome:?}");
            }
        }
        // Every user driven, so each join lands in the bitset: 62 → 67 users
        // crosses the 64-bit word edge with a refresh after every join.
        let mut rng = StdRng::seed_from_u64(u64::from(better));
        let mut engine = random_engine(&mut rng, 62);
        let mut driven = vec![true; 62];
        let mut cache = ResponseCache::new(kind_of(better), driven.clone());
        refresh_and_check(&mut engine, &mut cache, &driven).unwrap();
        for _ in 0..5 {
            let (prefs, routes) = random_user(&mut rng);
            engine.add_user(prefs, routes, RouteId(0)).unwrap();
            cache.push_user();
            driven.push(true);
            refresh_and_check(&mut engine, &mut cache, &driven).unwrap();
        }
        assert_eq!(cache.iter_improving().last().map(|i| i >= 64), Some(true));
    }
}
