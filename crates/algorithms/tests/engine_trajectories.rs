//! Trajectory equivalence between the incremental-engine driver
//! ([`run_distributed`]) and the naive reference driver
//! ([`run_distributed_naive`]): for every algorithm and fixed seed the two
//! must produce the same run — same profile, slots, updates, convergence
//! flag, granted-user counts and `ΔP_min` — with slot-trace potentials and
//! total profits within `1e-9` (the engine accumulates them incrementally).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vcs_algorithms::{run_distributed, run_distributed_naive, DistributedAlgorithm, RunConfig};
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{Game, PlatformParams, Route, Task, User, UserPrefs};

/// A fixed random-ish game: `n_users` users, 15 tasks, up to 4 routes each.
fn scenario_game(seed: u64, n_users: u32) -> Game {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_tasks = 15u32;
    let tasks: Vec<Task> = (0..n_tasks)
        .map(|k| {
            Task::new(
                TaskId(k),
                rng.random_range(10.0..20.0),
                rng.random_range(0.0..1.0),
            )
        })
        .collect();
    let users: Vec<User> = (0..n_users)
        .map(|i| {
            let n_routes = rng.random_range(1..=4usize);
            let routes = (0..n_routes)
                .map(|r| {
                    let mut covered: Vec<TaskId> = (0..rng.random_range(0..5usize))
                        .map(|_| TaskId(rng.random_range(0..n_tasks)))
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
            User::new(
                UserId(i),
                UserPrefs::new(
                    rng.random_range(0.1..0.9),
                    rng.random_range(0.1..0.9),
                    rng.random_range(0.1..0.9),
                ),
                routes,
            )
        })
        .collect();
    Game::with_paper_bounds(tasks, users, PlatformParams::new(0.4, 0.4)).unwrap()
}

/// Asserts the engine run equals the naive run: everything identical except
/// the slot-trace floats, which must agree within `1e-9`.
fn assert_equivalent(game: &Game, algorithm: DistributedAlgorithm, config: &RunConfig) {
    let fast = run_distributed(game, algorithm, config);
    let naive = run_distributed_naive(game, algorithm, config);
    let tag = format!("{} seed {}", algorithm.name(), config.seed);
    assert_eq!(fast.profile, naive.profile, "{tag}: final profile diverged");
    assert_eq!(fast.slots, naive.slots, "{tag}: slot count diverged");
    assert_eq!(fast.updates, naive.updates, "{tag}: update count diverged");
    assert_eq!(
        fast.converged, naive.converged,
        "{tag}: convergence flag diverged"
    );
    assert_eq!(
        fast.min_improvement, naive.min_improvement,
        "{tag}: ΔP_min diverged"
    );
    assert_eq!(
        fast.slot_trace.len(),
        naive.slot_trace.len(),
        "{tag}: trace length"
    );
    for (t, (f, n)) in fast.slot_trace.iter().zip(&naive.slot_trace).enumerate() {
        assert_eq!(
            f.updated_users, n.updated_users,
            "{tag}: updated_users at slot {t}"
        );
        assert!(
            (f.potential - n.potential).abs() < 1e-9,
            "{tag}: potential at slot {t}: engine {} vs naive {}",
            f.potential,
            n.potential
        );
        assert!(
            (f.total_profit - n.total_profit).abs() < 1e-9,
            "{tag}: total profit at slot {t}: engine {} vs naive {}",
            f.total_profit,
            n.total_profit
        );
    }
    match (&fast.user_profit_trace, &naive.user_profit_trace) {
        (None, None) => {}
        (Some(f), Some(n)) => {
            assert_eq!(f.len(), n.len(), "{tag}: profit-trace length");
            for (t, (fr, nr)) in f.iter().zip(n).enumerate() {
                assert_eq!(fr.len(), nr.len());
                for (i, (a, b)) in fr.iter().zip(nr).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "{tag}: profit of user {i} at slot {t}: {a} vs {b}"
                    );
                }
            }
        }
        _ => panic!("{tag}: profit-trace presence diverged"),
    }
}

#[test]
fn all_algorithms_match_naive_driver() {
    for seed in 0..4u64 {
        let game = scenario_game(seed, 12);
        for algorithm in DistributedAlgorithm::ALL {
            assert_equivalent(&game, algorithm, &RunConfig::with_seed(seed * 31 + 7));
        }
    }
}

#[test]
fn equivalence_holds_with_user_profit_recording() {
    let game = scenario_game(9, 10);
    for algorithm in DistributedAlgorithm::ALL {
        let mut config = RunConfig::with_seed(42);
        config.record_user_profits = true;
        assert_equivalent(&game, algorithm, &config);
    }
}

#[test]
fn equivalence_holds_on_larger_instances() {
    // A denser instance where dirty sets are non-trivial: many users share
    // each task, so a single move invalidates a real subset, not everyone.
    let game = scenario_game(3, 40);
    for algorithm in [
        DistributedAlgorithm::Dgrn,
        DistributedAlgorithm::Brun,
        DistributedAlgorithm::Muun,
    ] {
        assert_equivalent(&game, algorithm, &RunConfig::with_seed(17));
    }
}

#[test]
fn equivalence_under_slot_cap() {
    // Truncated runs (cap below convergence) must truncate identically.
    let game = scenario_game(5, 15);
    for algorithm in DistributedAlgorithm::ALL {
        let mut config = RunConfig::with_seed(8);
        config.max_slots = 3;
        assert_equivalent(&game, algorithm, &config);
    }
}

#[test]
fn equivalence_holds_through_the_parallel_refresh() {
    // The first refresh drains every user, and 5000 is above the response
    // cache's parallel threshold (4096), so the opening slots rescan on
    // the rayon pool. Pin at least two workers so a one-core host takes
    // that path too; results are identical at any width.
    if rayon::current_num_threads() < 2 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build_global()
            .expect("pin two workers");
    }
    let game = scenario_game(21, 5000);
    for algorithm in [
        DistributedAlgorithm::Dgrn,
        DistributedAlgorithm::Brun,
        DistributedAlgorithm::Muun,
    ] {
        let mut config = RunConfig::with_seed(4);
        config.max_slots = 5;
        assert_equivalent(&game, algorithm, &config);
    }
}
