//! Distributed execution: runs the actual Alg. 1 / Alg. 2 message protocol
//! with one OS thread per vehicle, exchanging binary frames over channels —
//! then cross-checks the result against the single-threaded reference
//! runtime (bit-identical) and the game-level Nash test.
//!
//! ```text
//! cargo run --release --example distributed_threads
//! ```

use std::time::Instant;
use vcs::prelude::*;

fn main() {
    let pool = UserPool::build(Dataset::Epfl, 21);
    let game = pool.instantiate(&ScenarioConfig {
        n_users: 60,
        n_tasks: 50,
        seed: 8,
        params: ScenarioParams::default(),
    });
    println!(
        "{} user agents, {} tasks",
        game.user_count(),
        game.task_count()
    );

    for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
        let t0 = Instant::now();
        let threaded = run_threaded(&game, scheduler, 77, 1_000_000, &Obs::disabled());
        let threaded_time = t0.elapsed();
        let t1 = Instant::now();
        let sync = run_sync(&game, scheduler, 77, 1_000_000, &Obs::disabled());
        let sync_time = t1.elapsed();

        assert!(threaded.converged, "protocol terminates at equilibrium");
        assert!(
            is_nash(&game, &threaded.profile),
            "termination implies Nash"
        );
        assert_eq!(
            threaded, sync,
            "threaded and reference runtimes are bit-identical"
        );
        println!(
            "{scheduler:?}: {} slots, {} updates | threaded {:.1} ms vs sync {:.1} ms | equilibrium verified",
            threaded.slots,
            threaded.updates,
            threaded_time.as_secs_f64() * 1e3,
            sync_time.as_secs_f64() * 1e3,
        );
    }
    println!("PUU grants conflict-free batches, so it needs far fewer decision slots.");
}
