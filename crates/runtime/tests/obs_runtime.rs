//! Observability conformance for the runtime layer: attaching a subscriber
//! must never perturb a run, and the emitted event stream must reconcile
//! with the runtime's own telemetry counters.

use std::sync::Arc;
use vcs_core::examples::fig1_instance;
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{ChurnEvent, Route, UserPrefs, UserSpec};
use vcs_obs::{Event, Obs, RingBufferSubscriber, StatsSubscriber};
use vcs_runtime::platform::SchedulerKind;
use vcs_runtime::resilience::{run_lossy, run_stale, LossConfig};
use vcs_runtime::sync_runtime::{run_sync, run_sync_churn};
use vcs_runtime::threaded::{run_threaded, run_threaded_churn};

fn stats() -> (Arc<StatsSubscriber>, Obs) {
    let subscriber = Arc::new(StatsSubscriber::new());
    let obs = Obs::new(subscriber.clone());
    (subscriber, obs)
}

#[test]
fn observed_sync_run_is_unperturbed_and_reconciles() {
    let game = fig1_instance();
    for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
        for seed in 0..4u64 {
            let plain = run_sync(&game, scheduler, seed, 10_000, &Obs::disabled());
            let (subscriber, obs) = stats();
            let observed = run_sync(&game, scheduler, seed, 10_000, &obs);
            assert_eq!(plain, observed, "observation perturbed seed {seed}");
            // Lossless transport: every frame is sent exactly once and
            // received exactly once, and telemetry counts the same frames.
            let (sent, received, dropped) = subscriber.frames();
            assert_eq!(sent, received);
            assert_eq!(dropped, 0);
            assert_eq!(sent, observed.telemetry.total_msgs() as u64);
            assert_eq!(subscriber.slots(), observed.slots as u64);
            assert_eq!(subscriber.moves(), observed.updates as u64);
        }
    }
}

#[test]
fn observed_threaded_run_matches_sync_counters() {
    let game = fig1_instance();
    for seed in 0..3u64 {
        let (sync_sub, sync_obs) = stats();
        let sync = run_sync(&game, SchedulerKind::Puu, seed, 10_000, &sync_obs);
        let (thr_sub, thr_obs) = stats();
        let threaded = run_threaded(&game, SchedulerKind::Puu, seed, 10_000, &thr_obs);
        assert_eq!(sync, threaded, "threaded diverged at seed {seed}");
        assert_eq!(sync_sub.frames(), thr_sub.frames());
        assert_eq!(sync_sub.slots(), thr_sub.slots());
        assert_eq!(sync_sub.moves(), thr_sub.moves());
    }
}

#[test]
fn observed_lossy_run_accounts_for_every_drop() {
    let game = fig1_instance();
    for seed in 0..4u64 {
        let loss = LossConfig::hostile(seed.wrapping_add(7));
        let (plain, plain_stats) = run_lossy(
            &game,
            SchedulerKind::Puu,
            seed,
            10_000,
            &loss,
            &Obs::disabled(),
        );
        let (subscriber, obs) = stats();
        let (observed, obs_stats) = run_lossy(&game, SchedulerKind::Puu, seed, 10_000, &loss, &obs);
        assert_eq!(plain, observed);
        assert_eq!(plain_stats, obs_stats);
        let (sent, received, dropped) = subscriber.frames();
        assert_eq!(dropped, obs_stats.dropped_frames as u64);
        assert_eq!(sent, received + dropped, "every sent frame lands or drops");
        assert_eq!(
            subscriber.retransmissions(),
            obs_stats.retransmissions as u64
        );
    }
}

#[test]
fn observed_stale_run_is_unperturbed() {
    let game = fig1_instance();
    for refresh in [1usize, 3] {
        for seed in 0..3u64 {
            let plain = run_stale(
                &game,
                SchedulerKind::Suu,
                seed,
                10_000,
                refresh,
                &Obs::disabled(),
            );
            let (subscriber, obs) = stats();
            let observed = run_stale(&game, SchedulerKind::Suu, seed, 10_000, refresh, &obs);
            assert_eq!(plain, observed);
            let (sent, received, dropped) = subscriber.frames();
            assert_eq!(sent, received);
            assert_eq!(dropped, 0);
            assert_eq!(sent, observed.telemetry.total_msgs() as u64);
            assert_eq!(subscriber.slots(), observed.slots as u64);
        }
    }
}

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
        vec![ChurnEvent::Leave { user: UserId(1) }],
    ]
}

#[test]
fn observed_churn_runs_emit_epoch_brackets() {
    let game = fig1_instance();
    let epochs = fig1_stream();
    for seed in 0..3u64 {
        let plain = run_sync_churn(
            &game,
            SchedulerKind::Puu,
            seed,
            10_000,
            &epochs,
            &Obs::disabled(),
        );
        let ring = Arc::new(RingBufferSubscriber::new(1 << 14));
        let obs = Obs::new(ring.clone());
        let observed = run_sync_churn(&game, SchedulerKind::Puu, seed, 10_000, &epochs, &obs);
        assert_eq!(plain, observed);

        let events = ring.events();
        let started: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                Event::EpochStarted { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect();
        let converged: Vec<(u32, u64, bool)> = events
            .iter()
            .filter_map(|e| match e {
                Event::EpochConverged {
                    epoch,
                    slots,
                    converged,
                    ..
                } => Some((*epoch, *slots, *converged)),
                _ => None,
            })
            .collect();
        // One bracket per epoch (pre-churn epoch 0 plus one per batch), in
        // order, with per-epoch slot counts matching the outcome.
        let n = epochs.len() + 1;
        assert_eq!(started, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(converged.len(), n);
        for (i, (epoch, slots, ok)) in converged.iter().enumerate() {
            assert_eq!(*epoch, i as u32);
            assert_eq!(*slots, observed.epoch_slots[i] as u64);
            assert!(*ok);
        }
        // Join/leave totals across EpochStarted events match the stream.
        let (joins, leaves) = events
            .iter()
            .filter_map(|e| match e {
                Event::EpochStarted { joins, leaves, .. } => Some((joins, leaves)),
                _ => None,
            })
            .fold((0u32, 0u32), |(j, l), (dj, dl)| (j + dj, l + dl));
        assert_eq!(joins, 1);
        assert_eq!(leaves, 1);

        // The threaded churn runtime produces the same outcome and the same
        // counter totals.
        let (thr_sub, thr_obs) = stats();
        let threaded =
            run_threaded_churn(&game, SchedulerKind::Puu, seed, 10_000, &epochs, &thr_obs);
        assert_eq!(plain, threaded);
        let (epochs_started, epochs_converged) = thr_sub.epochs();
        assert_eq!(epochs_started, n as u64);
        assert_eq!(epochs_converged, n as u64);
    }
}
