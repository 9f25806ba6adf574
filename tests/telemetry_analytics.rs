//! Cross-crate tests of the communication telemetry and convergence
//! analytics extensions.

use vcs::algorithms::{run_anneal, summarize, AnnealConfig};
use vcs::prelude::*;

fn scenario_game(seed: u64) -> Game {
    let pool = UserPool::build(Dataset::Shanghai, 3);
    pool.instantiate(&ScenarioConfig {
        n_users: 20,
        n_tasks: 30,
        seed,
        params: ScenarioParams::default(),
    })
}

#[test]
fn telemetry_identical_across_runtimes() {
    let game = scenario_game(1);
    for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
        let sync = run_sync(&game, scheduler, 5, 1_000_000, &Obs::disabled());
        let threaded = run_threaded(&game, scheduler, 5, 1_000_000, &Obs::disabled());
        assert_eq!(
            sync.telemetry, threaded.telemetry,
            "telemetry diverged: {scheduler:?}"
        );
        assert!(sync.telemetry.total_msgs() > 0);
        assert!(sync.telemetry.total_bytes() > sync.telemetry.total_msgs());
    }
}

#[test]
fn telemetry_accounting_is_closed() {
    // The dirty-set protocol exchanges, over a whole run: M Initial + M Init
    // + M Terminate, one Counts/reply pair per *polled* (dirty) agent, and
    // one Grant/Updated pair per applied update. So the books close exactly:
    // platform frames (init + counts + grants + terminate) exceed user
    // frames (initial + replies + updates) by precisely M.
    let game = scenario_game(2);
    let m = game.user_count();
    let out = run_sync(&game, SchedulerKind::Puu, 9, 1_000_000, &Obs::disabled());
    assert!(out.converged);
    let t = out.telemetry;
    assert_eq!(
        t.platform_msgs,
        t.user_msgs + m,
        "accounting identity broken"
    );
    // The first slot polls everyone; every update costs one more exchange.
    assert!(t.user_msgs >= 2 * m + out.updates);
    // Selective polling never exceeds the dense protocol's one-poll-per-user
    // -per-slot budget.
    assert!(t.user_msgs <= m + (out.slots + 1) * m + out.updates);
    // Byte counts are at least one byte per message (tag).
    assert!(t.platform_bytes >= t.platform_msgs);
    assert!(t.user_bytes >= t.user_msgs);
}

#[test]
fn convergence_summary_consistent_on_scenarios() {
    let game = scenario_game(4);
    for algo in DistributedAlgorithm::ALL {
        let out = run_distributed(&game, algo, &RunConfig::with_seed(4));
        let s = summarize(&out);
        assert!(s.final_potential >= s.initial_potential - 1e-9, "{algo:?}");
        assert!(s.slots_to_90_percent <= s.slots, "{algo:?}");
        assert!(s.max_slot_gain >= 0.0, "{algo:?}");
        // 90% of the gain arrives no later than (usually well before) the end.
        if s.potential_gain > 1e-6 {
            assert!(s.slots_to_90_percent > 0 || s.slots == 0, "{algo:?}");
        }
    }
}

#[test]
fn anneal_tracks_or_beats_equilibria_on_scenarios() {
    let mut anneal_total = 0.0;
    let mut eq_total = 0.0;
    for seed in 0..3u64 {
        let game = scenario_game(seed + 10);
        anneal_total += run_anneal(&game, &AnnealConfig::with_seed(seed)).total_profit;
        eq_total += run_distributed(
            &game,
            DistributedAlgorithm::Dgrn,
            &RunConfig::with_seed(seed),
        )
        .profile
        .total_profit(&game);
    }
    assert!(
        anneal_total >= 0.95 * eq_total,
        "anneal {anneal_total} far below equilibrium {eq_total}"
    );
}
