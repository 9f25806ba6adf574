//! The SUU grant's law over `(user, route)`. Alg. 2 grants the update to one
//! uniformly random requester, so drawing that requester first and then only
//! its route ([`suu_grant`]) must grant each `(user, route)` cell as often as
//! the per-requester scheme it replaces: one route per improving user in id
//! order, then [`suu`] over those requests. On a fixed game state with tied
//! best sets (DGRN) and multi-route better lists (BRUN), seeded samples of
//! both schemes must pass a χ² homogeneity test at p = 0.001, and a scheme
//! that ignores ties must fail it.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use vcs_algorithms::{suu, suu_grant};
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{
    Engine, Game, PlatformParams, Profile, ResponseCache, Route, Task, User, UserPrefs,
};
use vcs_obs::ResponseKind;

/// Grants sampled per scheme.
const SAMPLES: usize = 20_000;

/// χ² critical values at p = 0.001, indexed by degrees of freedom.
const CHI2_CRIT_001: [f64; 13] = [
    f64::NAN,
    10.828,
    13.816,
    16.266,
    18.467,
    20.515,
    22.458,
    24.322,
    26.124,
    27.877,
    29.588,
    31.264,
    32.909,
];

type Cell = (usize, usize);

/// Every user of [`fixed_game`] on its route 0.
fn fixed_engine(game: &Game) -> Engine<'_> {
    Engine::new(game, Profile::new(game, vec![RouteId(0); 5]))
}

/// Five users on four tasks:
/// * user 0: routes 1 and 2 are identical, so its best set is a tie, and
///   route 3 is better than route 0 but not best;
/// * user 1: two distinct better routes;
/// * user 2: one better route, on tasks it shares with user 0;
/// * user 3: starts on its best route, so it never requests;
/// * user 4: identical routes 1–3, a three-way tie.
fn fixed_game() -> Game {
    let tasks = (0..4)
        .map(|k| Task::new(TaskId(k), 10.0 + 2.0 * f64::from(k), 0.5))
        .collect();
    let route = |r: u32, tasks: &[u32], detour: f64, congestion: f64| {
        Route::new(
            RouteId(r),
            tasks.iter().map(|&t| TaskId(t)).collect(),
            detour,
            congestion,
        )
    };
    let prefs = UserPrefs::new(0.5, 0.5, 0.5);
    let users = vec![
        vec![
            route(0, &[], 4.0, 3.0),
            route(1, &[0, 1], 1.0, 1.0),
            route(2, &[0, 1], 1.0, 1.0),
            route(3, &[2], 2.0, 2.0),
        ],
        vec![
            route(0, &[], 5.0, 4.0),
            route(1, &[3], 1.0, 0.5),
            route(2, &[2], 2.0, 1.0),
        ],
        vec![route(0, &[], 3.0, 3.0), route(1, &[0, 1], 0.5, 0.5)],
        vec![route(0, &[3, 2], 0.0, 0.0), route(1, &[], 5.0, 4.0)],
        vec![
            route(0, &[], 2.0, 2.0),
            route(1, &[1], 0.5, 0.5),
            route(2, &[1], 0.5, 0.5),
            route(3, &[1], 0.5, 0.5),
        ],
    ];
    let users = users
        .into_iter()
        .enumerate()
        .map(|(i, routes)| User::new(UserId::from_index(i), prefs, routes))
        .collect();
    Game::with_paper_bounds(tasks, users, PlatformParams::new(0.4, 0.4)).unwrap()
}

/// A refreshed cache over the fixed state, with its preconditions checked:
/// at least three requesters, and (under `Best`) a tied best set.
fn refreshed_cache(engine: &mut Engine<'_>, kind: ResponseKind) -> ResponseCache {
    let mut cache = ResponseCache::new(kind, vec![true; 5]);
    cache.refresh(engine);
    assert!(cache.improving_len() >= 3, "{kind:?}: too few requesters");
    let widest = cache
        .iter_improving()
        .map(|i| {
            let user = UserId::from_index(i);
            match kind {
                ResponseKind::Best => cache.best(user).best_routes.len(),
                ResponseKind::Better => cache.better(user).len(),
            }
        })
        .max();
    assert!(widest >= Some(2), "{kind:?}: no requester has a choice");
    cache
}

/// The replaced scheme, drawn here without the drivers' helpers: one
/// uniformly random route per improving user in id order, then SUU over
/// those requests.
fn per_requester_grant(cache: &ResponseCache, rng: &mut StdRng) -> Cell {
    let picks: Vec<Cell> = cache
        .iter_improving()
        .map(|i| {
            let user = UserId::from_index(i);
            let routes: Vec<RouteId> = match cache.kind() {
                ResponseKind::Best => cache.best(user).best_routes.clone(),
                ResponseKind::Better => cache.better(user).iter().map(|&(r, _)| r).collect(),
            };
            (i, routes[rng.random_range(0..routes.len())].index())
        })
        .collect();
    picks[suu(&picks, rng)[0]]
}

/// The two-stage grant of the drivers.
fn two_stage_grant(cache: &ResponseCache, rng: &mut StdRng) -> Cell {
    let (user, route, _) = suu_grant(cache, rng).unwrap();
    (user.index(), route.index())
}

/// A deliberately wrong scheme: the right requester, but always the first
/// route of its response.
fn first_route_grant(cache: &ResponseCache, rng: &mut StdRng) -> Cell {
    let (user, _, _) = suu_grant(cache, rng).unwrap();
    let route = match cache.kind() {
        ResponseKind::Best => cache.best(user).best_routes[0],
        ResponseKind::Better => cache.better(user)[0].0,
    };
    (user.index(), route.index())
}

fn sample(
    cache: &ResponseCache,
    seed: u64,
    grant: fn(&ResponseCache, &mut StdRng) -> Cell,
) -> BTreeMap<Cell, u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = BTreeMap::new();
    for _ in 0..SAMPLES {
        *counts.entry(grant(cache, &mut rng)).or_insert(0) += 1;
    }
    counts
}

/// Pearson's χ² statistic of the 2 × k homogeneity table of `a` and `b`,
/// with its degrees of freedom `k - 1`.
fn chi2_homogeneity(a: &BTreeMap<Cell, u64>, b: &BTreeMap<Cell, u64>) -> (f64, usize) {
    let cells: BTreeSet<Cell> = a.keys().chain(b.keys()).copied().collect();
    let (na, nb) = (
        a.values().sum::<u64>() as f64,
        b.values().sum::<u64>() as f64,
    );
    let mut stat = 0.0;
    for cell in &cells {
        let (oa, ob) = (
            a.get(cell).copied().unwrap_or(0) as f64,
            b.get(cell).copied().unwrap_or(0) as f64,
        );
        let col = oa + ob;
        for (observed, row) in [(oa, na), (ob, nb)] {
            let expected = row * col / (na + nb);
            stat += (observed - expected).powi(2) / expected;
        }
    }
    (stat, cells.len() - 1)
}

fn passes(a: &BTreeMap<Cell, u64>, b: &BTreeMap<Cell, u64>) -> bool {
    let (stat, df) = chi2_homogeneity(a, b);
    assert!(
        df >= 1 && df < CHI2_CRIT_001.len(),
        "{df} degrees of freedom"
    );
    stat < CHI2_CRIT_001[df]
}

fn check(kind: ResponseKind, seed: u64) {
    let game = fixed_game();
    let mut engine = fixed_engine(&game);
    let cache = refreshed_cache(&mut engine, kind);
    let old = sample(&cache, seed, per_requester_grant);
    let new = sample(&cache, seed + 1, two_stage_grant);
    let (stat, df) = chi2_homogeneity(&old, &new);
    assert!(
        passes(&old, &new),
        "{kind:?}: χ² = {stat:.2} on {df} df rejects equal laws\nold {old:?}\nnew {new:?}"
    );
    // The test has power: collapsing ties onto one route is rejected.
    let biased = sample(&cache, seed + 2, first_route_grant);
    assert!(
        !passes(&old, &biased),
        "{kind:?}: a tie-ignoring grant went undetected"
    );
}

#[test]
fn dgrn_two_stage_grant_matches_per_requester_law() {
    check(ResponseKind::Best, 11);
}

#[test]
fn brun_two_stage_grant_matches_per_requester_law() {
    check(ResponseKind::Better, 23);
}
