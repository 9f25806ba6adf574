//! Protocol resilience: lossy links and stale information.
//!
//! Two "future work" conditions the paper's deployment sketch would face:
//!
//! * **Message loss** ([`run_lossy`]): every frame is dropped i.i.d. with a
//!   seeded probability; the sender retransmits until delivery. Because
//!   the protocol's messages are idempotent (re-sent `Counts` carry the same
//!   state; a re-sent `Grant` is re-acknowledged with the current route),
//!   the delivered sequence equals the lossless one — the run produces the
//!   **identical outcome**, paying only in retransmissions. This is tested,
//!   not assumed. The lossy channel is the in-process link of
//!   [`crate::sync_runtime`] with a loss model; the platform loop is the
//!   shared one.
//! * **Stale information** ([`run_stale`]): the platform refreshes the
//!   participant counts only every `refresh_every` slots; between refreshes
//!   agents decide on cached (possibly outdated) counts. Termination still
//!   requires a quiet fresh-count slot, so the final profile remains a
//!   verified Nash equilibrium; staleness only costs extra slots. Its window
//!   rules and `Deny` frames give it a slot loop of its own, over the same
//!   in-process link, setup and teardown.

use crate::driver::Driver;
use crate::platform::SchedulerKind;
use crate::protocol::{PlatformMsg, UserMsg};
use crate::sync_runtime::{InProcess, RuntimeOutcome};
use serde::{Deserialize, Serialize};
use vcs_core::ids::UserId;
use vcs_core::Game;
use vcs_obs::{Event, Obs, ResponseKind, PLATFORM_SENDER};

/// Loss-model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossConfig {
    /// Per-frame drop probability in `[0, 1)` (applied independently to
    /// both directions).
    pub drop_probability: f64,
    /// Seed of the loss process (independent of the protocol seed).
    pub seed: u64,
    /// Safety cap on consecutive retransmissions of one frame.
    pub max_retries: usize,
}

impl LossConfig {
    /// A moderately hostile channel: 20% frame loss.
    pub fn hostile(seed: u64) -> Self {
        Self {
            drop_probability: 0.2,
            seed,
            max_retries: 10_000,
        }
    }
}

/// Loss statistics of a lossy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LossStats {
    /// Frames the channel dropped (either direction).
    pub dropped_frames: usize,
    /// Retransmissions the platform performed.
    pub retransmissions: usize,
}

/// Runs the protocol over a lossy channel with stop-and-wait retransmission.
/// Returns the outcome plus loss statistics. The outcome's profile, slots
/// and updates equal the lossless [`crate::sync_runtime::run_sync`] run with
/// the same protocol seed (only telemetry grows). Besides everything the
/// lossless runtimes emit, `obs` receives `FrameDropped` per channel drop
/// and `Retransmission` per stop-and-wait retry (the `attempt` field is the
/// 1-based attempt number of that frame, so the first retransmission of a
/// frame carries `attempt: 2`).
///
/// # Panics
///
/// Panics when the drop probability lies outside `[0, 1)`, or when a frame
/// is still undelivered after `max_retries` retransmissions.
pub fn run_lossy(
    game: &Game,
    scheduler: SchedulerKind,
    seed: u64,
    max_slots: usize,
    loss: &LossConfig,
    obs: &Obs,
) -> (RuntimeOutcome, LossStats) {
    Driver::start(game, scheduler, seed, InProcess::lossy(loss), obs).run(max_slots)
}

/// Runs the protocol with periodic count refresh: agents receive fresh
/// `Counts` only every `refresh_every` slots and decide on their cached view
/// in between.
///
/// Stale beliefs alone would break the finite-improvement property (a move
/// that looks improving on old counts can lower the true potential, and the
/// dynamics can cycle). The platform therefore enforces two window rules on
/// stale slots: (1) each agent is granted at most one move per refresh
/// window, and (2) a granted move's affected task set must be disjoint from
/// everything already granted this window. Under those rules every granted
/// move's stale evaluation coincides with the truth, so the potential still
/// strictly increases and convergence is restored. Termination additionally
/// requires an empty request set **on a fresh-count slot**, so the final
/// profile is a Nash equilibrium.
///
/// `obs` receives frame events for every exchanged frame (a stale slot's
/// self-computed request counts as an uplink frame, matching telemetry),
/// `ResponseEvaluated` per agent decision, `SlotCompleted` per slot and the
/// engine's per-commit events.
pub fn run_stale(
    game: &Game,
    scheduler: SchedulerKind,
    seed: u64,
    max_slots: usize,
    refresh_every: usize,
    obs: &Obs,
) -> RuntimeOutcome {
    assert!(refresh_every >= 1, "refresh period must be at least 1");
    let mut driver = Driver::start(game, scheduler, seed, InProcess::lossless(), obs);
    let Driver {
        platform,
        link,
        wire,
    } = &mut driver;
    let mut converged = false;
    let mut round = 0usize;
    // Window state: which users moved and which tasks were touched since the
    // last fresh broadcast.
    let mut moved = vec![false; game.user_count()];
    let mut touched = vec![false; game.task_count()];
    while platform.slots < max_slots {
        let fresh = round.is_multiple_of(refresh_every);
        round += 1;
        if fresh {
            moved.fill(false);
            touched.fill(false);
        }
        let mut requests = Vec::new();
        for user in (0..game.user_count()).map(UserId::from_index) {
            let reply = if fresh {
                let msg = platform.counts_msg_for(user);
                link.exchange(user, &msg, wire)
                    .expect("counts elicit a reply")
            } else {
                // Stale slot: the agent recomputes from its cached counts;
                // no platform frame is sent.
                let agent = link.agents[user.index()].as_mut().expect("live agent");
                let frame = agent.compute_request().encode();
                wire.frame(user.index() as u32, PLATFORM_SENDER, frame.len());
                UserMsg::decode(&frame).expect("self-encoded frame decodes")
            };
            obs.emit(|| Event::ResponseEvaluated {
                user: user.index() as u32,
                kind: ResponseKind::Best,
                improving: matches!(reply, UserMsg::Request { .. }),
            });
            if let Some(req) = platform.to_request(&reply) {
                // Window rules: on stale information, only first moves over
                // untouched tasks are eligible — their stale evaluation is
                // exact, preserving the potential argument.
                let eligible = fresh
                    || (!moved[user.index()]
                        && req.affected_tasks.iter().all(|t| !touched[t.index()]));
                if eligible {
                    requests.push(req);
                } else {
                    link.exchange(user, &PlatformMsg::Deny, wire);
                }
            }
        }
        if requests.is_empty() {
            if fresh {
                converged = true;
                break;
            }
            continue; // quiet on stale info proves nothing; refresh and retry
        }
        let granted = platform.select(&requests);
        for &g in &granted {
            moved[requests[g].user.index()] = true;
            for t in &requests[g].affected_tasks {
                touched[t.index()] = true;
            }
        }
        // Every requester hears its verdict.
        for (i, req) in requests.iter().enumerate() {
            let verdict = if granted.contains(&i) {
                PlatformMsg::Grant
            } else {
                PlatformMsg::Deny
            };
            if let Some(UserMsg::Updated { user, route }) = link.exchange(req.user, &verdict, wire)
            {
                platform.apply_update(user, route);
            }
        }
        obs.emit(|| Event::SlotCompleted {
            slot: platform.slots as u64,
            updated: granted.len() as u32,
            phi: platform.potential(),
            total_profit: platform.total_profit(),
        });
    }
    driver.finish(converged).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync_runtime::run_sync;
    use vcs_core::examples::fig1_instance;
    use vcs_core::response::is_nash;

    #[test]
    fn lossy_run_matches_lossless_outcome() {
        let game = fig1_instance();
        let mut total_dropped = 0;
        for seed in 0..5u64 {
            let lossless = run_sync(&game, SchedulerKind::Puu, seed, 10_000, &Obs::disabled());
            let (lossy, stats) = run_lossy(
                &game,
                SchedulerKind::Puu,
                seed,
                10_000,
                &LossConfig::hostile(seed.wrapping_add(99)),
                &Obs::disabled(),
            );
            assert_eq!(lossy.profile, lossless.profile, "seed {seed}");
            assert_eq!(lossy.slots, lossless.slots);
            assert_eq!(lossy.updates, lossless.updates);
            // Every drop costs exactly one retransmission, and each
            // retransmission re-sends one or two frames (request leg alone,
            // or request + re-elicited reply), all visible in telemetry.
            assert_eq!(stats.dropped_frames, stats.retransmissions);
            let extra = lossy.telemetry.total_msgs() - lossless.telemetry.total_msgs();
            assert!(
                extra >= stats.retransmissions && extra <= 2 * stats.retransmissions,
                "seed {seed}: {extra} extra frames for {} retransmissions",
                stats.retransmissions
            );
            total_dropped += stats.dropped_frames;
        }
        // A single short run can survive a 20% channel unscathed (fig. 1
        // converges within a handful of frames), but five hostile seeds in a
        // row cannot all come through clean.
        assert!(total_dropped > 0, "loss process never fired across 5 seeds");
    }

    #[test]
    fn lossless_loss_config_is_identity() {
        let game = fig1_instance();
        let loss = LossConfig {
            drop_probability: 0.0,
            seed: 1,
            max_retries: 0,
        };
        let (lossy, stats) = run_lossy(
            &game,
            SchedulerKind::Suu,
            3,
            10_000,
            &loss,
            &Obs::disabled(),
        );
        let reference = run_sync(&game, SchedulerKind::Suu, 3, 10_000, &Obs::disabled());
        assert_eq!(lossy, reference);
        assert_eq!(stats, LossStats::default());
    }

    #[test]
    fn stale_runs_still_reach_nash() {
        let game = fig1_instance();
        for refresh in [1usize, 2, 4] {
            for seed in 0..5u64 {
                let out = run_stale(
                    &game,
                    SchedulerKind::Suu,
                    seed,
                    10_000,
                    refresh,
                    &Obs::disabled(),
                );
                assert!(out.converged, "refresh {refresh}, seed {seed}");
                assert!(
                    is_nash(&game, &out.profile),
                    "stale run off-equilibrium (refresh {refresh}, seed {seed})"
                );
            }
        }
    }

    #[test]
    fn refresh_one_equals_sync_runtime() {
        let game = fig1_instance();
        let stale = run_stale(&game, SchedulerKind::Puu, 7, 10_000, 1, &Obs::disabled());
        let sync = run_sync(&game, SchedulerKind::Puu, 7, 10_000, &Obs::disabled());
        assert_eq!(stale.profile, sync.profile);
        assert_eq!(stale.slots, sync.slots);
    }

    #[test]
    #[should_panic(expected = "drop probability must lie in [0, 1)")]
    fn invalid_drop_probability_rejected() {
        let game = fig1_instance();
        let loss = LossConfig {
            drop_probability: 1.0,
            seed: 0,
            max_retries: 10,
        };
        let _ = run_lossy(&game, SchedulerKind::Suu, 0, 10, &loss, &Obs::disabled());
    }
}
