//! The distributed runtimes (message-passing agents) against the game-level
//! semantics: local agent decisions must match the centralized evaluation,
//! the threaded runtime must be bit-identical to the reference runtime, and
//! every run must terminate at a Nash equilibrium.

use vcs::core::ids::UserId;
use vcs::prelude::*;
use vcs::runtime::{PlatformState, UserAgent};

fn scenario_game(seed: u64, n_users: usize) -> Game {
    let pool = UserPool::build(Dataset::Shanghai, 1);
    pool.instantiate(&ScenarioConfig {
        n_users,
        n_tasks: 30,
        seed,
        params: ScenarioParams::default(),
    })
}

#[test]
fn sync_runtime_terminates_at_nash() {
    let game = scenario_game(2, 20);
    for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
        let out = run_sync(&game, scheduler, 4, 1_000_000, &Obs::disabled());
        assert!(out.converged);
        assert!(is_nash(&game, &out.profile));
    }
}

#[test]
fn threaded_matches_sync_on_scenario_games() {
    for seed in [0u64, 1, 2] {
        let game = scenario_game(seed, 15);
        for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
            let sync = run_sync(&game, scheduler, seed, 1_000_000, &Obs::disabled());
            let threaded = run_threaded(&game, scheduler, seed, 1_000_000, &Obs::disabled());
            assert_eq!(
                sync, threaded,
                "divergence: scheduler {scheduler:?} seed {seed}"
            );
        }
    }
}

/// The agent's local best-route computation agrees with the centralized
/// `best_route_set` on the same state: same improvement decision and, when
/// improving, the same profit gain.
#[test]
fn agent_request_matches_centralized_best_response() {
    let game = scenario_game(5, 12);
    let profile = Profile::all_first(&game);
    let platform = PlatformState::new(&game, SchedulerKind::Suu, 0, profile.choices().to_vec());
    for user in game.users() {
        let mut agent = UserAgent::new(
            user.id,
            user.prefs,
            &user.routes,
            game.params().phi,
            game.params().theta,
            profile.choice(user.id),
        );
        agent.handle(platform.init_msg_for(user.id));
        let reply = agent
            .handle(platform.counts_msg_for(user.id))
            .expect("counts always answered");
        let centralized = best_route_set(&game, &profile, user.id);
        match reply {
            vcs::runtime::UserMsg::Request {
                gain, new_route, ..
            } => {
                assert!(
                    centralized.can_improve(),
                    "agent requested but core says stay"
                );
                assert!(
                    (gain - centralized.gain).abs() < 1e-9,
                    "gain mismatch: agent {gain} vs core {}",
                    centralized.gain
                );
                // The agent picks the lowest-index best route.
                assert_eq!(Some(new_route), centralized.first());
            }
            vcs::runtime::UserMsg::NoRequest { .. } => {
                assert!(!centralized.can_improve(), "core improves but agent stays");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

/// The platform's final profile matches what the agents believe: no stale
/// local state survives the protocol (checked internally via debug asserts;
/// here we re-run and compare potentials between schedulers).
#[test]
fn runtime_profiles_validate_against_game() {
    let game = scenario_game(8, 25);
    let out = run_threaded(&game, SchedulerKind::Puu, 123, 1_000_000, &Obs::disabled());
    assert!(game.validate_profile(out.profile.choices()).is_ok());
    // Every user is on one of its own routes and cannot improve.
    for i in 0..game.user_count() {
        let user = UserId::from_index(i);
        assert!(!best_route_set(&game, &out.profile, user).can_improve());
    }
}

/// PUU runtimes use strictly fewer (or equal) slots than SUU on the same
/// instance — the Fig. 4 story at the protocol level.
#[test]
fn puu_runtime_needs_fewer_slots() {
    let mut suu_total = 0usize;
    let mut puu_total = 0usize;
    for seed in 0..5u64 {
        let game = scenario_game(seed + 40, 30);
        suu_total += run_sync(&game, SchedulerKind::Suu, seed, 1_000_000, &Obs::disabled()).slots;
        puu_total += run_sync(&game, SchedulerKind::Puu, seed, 1_000_000, &Obs::disabled()).slots;
    }
    assert!(
        puu_total <= suu_total,
        "PUU used {puu_total} slots vs SUU {suu_total}"
    );
}
