//! Cross-crate check: streams generated by `vcs-online` drive the
//! message-passing runtimes unchanged — the generators' id accounting
//! matches the platform's append-only id assignment, and both runtimes
//! agree on the outcome.

use vcs_obs::Obs;
use vcs_online::{synthetic_stream, StreamConfig};
use vcs_runtime::{run_sync_churn, run_threaded_churn, SchedulerKind};

#[test]
fn generated_streams_drive_both_runtimes_identically() {
    let (game, stream) = synthetic_stream(&StreamConfig {
        initial_users: 10,
        n_tasks: 6,
        epochs: 3,
        churn_rate: 0.2,
        seed: 11,
    });
    for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
        let sync = run_sync_churn(
            &game,
            scheduler,
            4,
            100_000,
            &stream.batches,
            &Obs::disabled(),
        );
        assert!(sync.converged, "{scheduler:?} did not converge");
        assert_eq!(sync.epoch_slots.len(), 1 + stream.epochs());
        assert_eq!(sync.id_map.len(), sync.game.user_count());
        let threaded = run_threaded_churn(
            &game,
            scheduler,
            4,
            100_000,
            &stream.batches,
            &Obs::disabled(),
        );
        assert_eq!(sync, threaded, "{scheduler:?} runtimes diverged");
    }
}
