//! Fault tolerance: the route-navigation protocol over an unreliable
//! network. Frames are dropped i.i.d.; the platform retransmits
//! (stop-and-wait). Because every protocol message is idempotent, the run
//! reaches the *identical* equilibrium as the lossless execution — loss only
//! costs retransmissions — and stale-information operation (counts refreshed
//! every K slots) still terminates at a verified Nash equilibrium.
//!
//! ```text
//! cargo run --release --example lossy_network
//! ```

use vcs::prelude::*;
use vcs::runtime::{run_lossy, run_stale, LossConfig};

fn main() {
    let pool = UserPool::build(Dataset::Roma, 13);
    let game = pool.instantiate(&ScenarioConfig {
        n_users: 30,
        n_tasks: 40,
        seed: 6,
        params: ScenarioParams::default(),
    });
    println!("{} users, {} tasks\n", game.user_count(), game.task_count());

    // Reference: lossless protocol run.
    let reference = run_sync(&game, SchedulerKind::Puu, 42, 1_000_000, &Obs::disabled());
    println!(
        "lossless : {} slots, {} frames ({:.1} KiB)",
        reference.slots,
        reference.telemetry.total_msgs(),
        reference.telemetry.total_bytes() as f64 / 1024.0
    );

    // The same run over increasingly hostile channels.
    for drop_probability in [0.05, 0.2, 0.4] {
        let loss = LossConfig {
            drop_probability,
            seed: 1,
            max_retries: 100_000,
        };
        let (out, stats) = run_lossy(
            &game,
            SchedulerKind::Puu,
            42,
            1_000_000,
            &loss,
            &Obs::disabled(),
        );
        assert_eq!(
            out.profile, reference.profile,
            "loss must not change the equilibrium"
        );
        assert_eq!(out.slots, reference.slots);
        println!(
            "loss {:>3.0}% : same equilibrium; {} drops, {} retransmissions, {} frames ({:.1} KiB)",
            drop_probability * 100.0,
            stats.dropped_frames,
            stats.retransmissions,
            out.telemetry.total_msgs(),
            out.telemetry.total_bytes() as f64 / 1024.0
        );
    }

    // Stale information: counts refreshed every K slots only.
    println!();
    for refresh in [1usize, 2, 4, 8] {
        let out = run_stale(
            &game,
            SchedulerKind::Puu,
            42,
            1_000_000,
            refresh,
            &Obs::disabled(),
        );
        assert!(out.converged);
        assert!(
            is_nash(&game, &out.profile),
            "stale operation must still end at Nash"
        );
        println!(
            "refresh every {refresh} slot(s): {} slots to a verified Nash equilibrium",
            out.slots
        );
    }
    println!("\nloss costs bandwidth, staleness costs slots - neither costs correctness.");
}
