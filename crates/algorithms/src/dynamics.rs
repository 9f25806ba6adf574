//! The distributed route-navigation dynamics (Alg. 1 + Alg. 2) and the four
//! distributed baselines of §5.2.
//!
//! DGRN, MUUN, BRUN and BUAU share one synchronous driver: in each decision
//! slot the platform collects update requests from users that can improve
//! (Alg. 1 lines 10–12), a scheduler grants the opportunity to a subset
//! (Alg. 2 line 8), the granted users switch, and the platform refreshes
//! the participant counts (Alg. 2 line 10). The loop ends when no request
//! arrives — a Nash equilibrium by construction. The refresh and the
//! improving set come from [`ResponseCache`]. SUU (DGRN, BRUN) grants one
//! uniformly random requester, so the driver draws that requester's rank
//! first and then only its route: the same joint law over (user, route) as
//! drawing a route per requester and then the grant, at O(1) draws per
//! slot. BUAU and PUU (MUUN) read every request, so they draw one route per
//! requester and run the same [`crate::scheduler`] functions as the naive
//! driver and the runtime platform, over borrowed views whose `B_i` is the
//! engine's current and picked route task lists. The granted moves commit
//! through [`Engine::apply_batch`]. BATS has a loop of its own: its users
//! take round-robin turns, so it needs only the cursor user's response,
//! cached lazily per user.

use crate::outcome::{RunOutcome, SlotTrace};
use crate::request::UpdateRequest;
use crate::scheduler::{buau, cached_request, puu, suu, suu_grant, RequestView};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use vcs_core::ids::{RouteId, UserId};
use vcs_core::response::{best_route_set, better_routes, BestResponse, ProfitView};
use vcs_core::{potential, Engine, Game, Profile, ResponseCache};
use vcs_obs::{elapsed_nanos, Event, Obs, ResponseKind, SpanKind};

/// The five distributed algorithms evaluated in §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistributedAlgorithm {
    /// Distributed Game-theoretical Route Navigation: best response + SUU
    /// (random single requester per slot). The paper's main algorithm.
    Dgrn,
    /// Multi-User Update Navigation: best response + PUU (Algorithm 3,
    /// parallel conflict-free batch per slot).
    Muun,
    /// Better Response Update Navigation: a random single requester takes a
    /// uniformly random *better* (not necessarily best) route.
    Brun,
    /// Best Update of All Users: the single requester with the largest
    /// potential increase updates.
    Buau,
    /// Bayesian Asynchronous Task Selection (adapted from Cheung et al.):
    /// users take turns round-robin; every turn consumes a decision slot
    /// even when the user cannot improve.
    Bats,
}

impl DistributedAlgorithm {
    /// All five, in the paper's legend order.
    pub const ALL: [DistributedAlgorithm; 5] = [
        DistributedAlgorithm::Dgrn,
        DistributedAlgorithm::Brun,
        DistributedAlgorithm::Buau,
        DistributedAlgorithm::Bats,
        DistributedAlgorithm::Muun,
    ];

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            DistributedAlgorithm::Dgrn => "DGRN",
            DistributedAlgorithm::Muun => "MUUN",
            DistributedAlgorithm::Brun => "BRUN",
            DistributedAlgorithm::Buau => "BUAU",
            DistributedAlgorithm::Bats => "BATS",
        }
    }
}

/// Configuration of a dynamics run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// RNG seed (initial routes, SUU draws, tie-breaking).
    pub seed: u64,
    /// Safety cap on decision slots; the dynamics provably terminate, the
    /// cap guards against implementation bugs only.
    pub max_slots: usize,
    /// Record per-user profit trajectories (Fig. 3); costs `O(slots · M)`.
    pub record_user_profits: bool,
}

impl RunConfig {
    /// Default configuration with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            max_slots: 1_000_000,
            record_user_profits: false,
        }
    }
}

/// Samples the Alg. 1 line 3 initial profile: each user takes a uniformly
/// random recommended route, drawn in user order from `rng`.
fn random_initial_profile(game: &Game, rng: &mut StdRng) -> Profile {
    let choices = game
        .users()
        .iter()
        .map(|u| vcs_core::ids::RouteId::from_index(rng.random_range(0..u.routes.len())))
        .collect();
    Profile::new(game, choices)
}

/// Runs `algorithm` on `game` and returns the outcome. The initial profile
/// assigns each user a uniformly random recommended route (Alg. 1 line 3).
pub fn run_distributed(
    game: &Game,
    algorithm: DistributedAlgorithm,
    config: &RunConfig,
) -> RunOutcome {
    run_distributed_observed(game, algorithm, config, &Obs::disabled())
}

/// [`run_distributed`] with an observability handle: the engine emits
/// per-commit `MoveCommitted` events and the driver adds
/// `ResponseEvaluated` / `RefreshPass` / `SlotCompleted` / `RunCompleted`
/// (the incremental drivers batch scan telemetry into one `RefreshPass`
/// per refresh pass — see `Event::RefreshPass`). With a disabled
/// handle this *is* `run_distributed` (same RNG stream, same trajectory —
/// observation never influences the dynamics).
///
/// Per slot the driver re-evaluates only the users whose best responses
/// the previous slot's moves invalidated ([`ResponseCache::refresh`]) and
/// records the slot trace from the engine's O(1) running
/// potential/total-profit. The RNG draw sequence is identical to
/// [`run_distributed_naive`]'s, so trajectories match the reference bit for
/// bit (slot-trace floats within `1e-9`): under SUU (DGRN, BRUN) one draw of
/// the granted requester's rank among the improving users in id order, then
/// one draw of its route; under BUAU and PUU (MUUN) one `pick` per improving
/// user in id order and no scheduler draw.
pub fn run_distributed_observed(
    game: &Game,
    algorithm: DistributedAlgorithm,
    config: &RunConfig,
    obs: &Obs,
) -> RunOutcome {
    let rng = &mut StdRng::seed_from_u64(config.seed);
    let profile = random_initial_profile(game, rng);
    let m = game.user_count();
    let mut engine = Engine::new(game, profile);
    engine.set_obs(obs.clone());
    let mut slot_trace = Vec::new();
    let mut user_profit_trace = config.record_user_profits.then(Vec::new);
    let record = |engine: &Engine,
                  updated: usize,
                  slot_trace: &mut Vec<SlotTrace>,
                  user_trace: &mut Option<Vec<Vec<f64>>>| {
        slot_trace.push(SlotTrace {
            potential: engine.potential(),
            total_profit: engine.total_profit(),
            updated_users: updated,
        });
        if let Some(trace) = user_trace {
            trace.push(
                (0..m)
                    .map(|i| engine.profit(UserId::from_index(i)))
                    .collect(),
            );
        }
    };
    record(&engine, 0, &mut slot_trace, &mut user_profit_trace);

    let mut slots = 0usize;
    let mut updates = 0usize;
    let mut min_improvement = f64::INFINITY;
    let mut converged = false;

    match algorithm {
        DistributedAlgorithm::Bats => {
            // Round-robin turns; only the cursor user's response is needed,
            // and it is recomputed only when a move since its last evaluation
            // dirtied it.
            let mut cache: Vec<Option<BestResponse>> = vec![None; m];
            let mut quiet = 0usize;
            let mut cursor = 0usize;
            engine.take_dirty(); // initial: everything is uncached anyway
            while quiet < m && slots < config.max_slots {
                // Every BATS turn is a decision slot, so the span is
                // unconditional.
                let slot_span = obs.span(SpanKind::Slot);
                let user = UserId::from_index(cursor);
                cursor = (cursor + 1) % m;
                slots += 1;
                if cache[user.index()].is_none() {
                    let response = obs.time(SpanKind::BestResponse, || engine.best_route_set(user));
                    obs.emit(|| Event::ResponseEvaluated {
                        user: user.index() as u32,
                        kind: ResponseKind::Best,
                        improving: !response.best_routes.is_empty(),
                    });
                    cache[user.index()] = Some(response);
                }
                let response = cache[user.index()].as_ref().expect("just cached");
                let choice = pick(&response.best_routes, rng).copied();
                let gain = response.gain;
                let updated = if let Some(route) = choice {
                    engine.apply_move(user, route);
                    for dirtied in engine.take_dirty() {
                        cache[dirtied.index()] = None;
                    }
                    updates += 1;
                    min_improvement = min_improvement.min(gain);
                    quiet = 0;
                    1
                } else {
                    quiet += 1;
                    0
                };
                record(&engine, updated, &mut slot_trace, &mut user_profit_trace);
                slot_span.finish();
                obs.emit(|| Event::SlotCompleted {
                    slot: slots as u64,
                    updated: updated as u32,
                    phi: engine.potential(),
                    total_profit: engine.total_profit(),
                });
            }
            converged = quiet >= m;
        }
        _ => {
            let kind = if algorithm == DistributedAlgorithm::Brun {
                ResponseKind::Better
            } else {
                ResponseKind::Best
            };
            let mut cache = ResponseCache::new(kind, vec![true; m]);
            // A would-be update request: the picked route and its gain. BUAU
            // and PUU read views whose `B_i` is the engine's current and
            // picked route task lists, so no `UpdateRequest` is ever built.
            struct Pick {
                user: UserId,
                route: RouteId,
                gain: f64,
            }
            let mut picks: Vec<Pick> = Vec::new();
            // The granted moves, rebuilt per slot.
            let mut batch: Vec<(UserId, RouteId)> = Vec::new();
            while slots < config.max_slots {
                // A pass that finds no request is termination, not a
                // decision slot — nothing is emitted on that path. One clock
                // read serves as the start of both the slot span and the
                // refresh-pass span: at ~7µs per slot every extra monotonic
                // read (~30ns here) is measurable against the <5%
                // instrumented-overhead budget.
                let slot_start = obs.enabled().then(std::time::Instant::now);
                // Alg. 2 line 6: refresh invalidated responses; the users
                // able to improve are the requesters. One span and one
                // `RefreshPass` event cover the whole pass: a single
                // incremental scan is ~100ns, far below the cost of timing
                // or emitting per scan.
                let (scans, improving) = cache.refresh(&mut engine);
                if scans > 0 {
                    if let Some(start) = slot_start {
                        let nanos = elapsed_nanos(start);
                        obs.emit(|| Event::SpanRecorded {
                            kind: SpanKind::BestResponse,
                            nanos,
                        });
                    }
                    obs.emit(|| Event::RefreshPass {
                        kind,
                        scans,
                        improving,
                    });
                }
                if cache.improving_len() == 0 {
                    converged = true;
                    break; // Alg. 2 line 11: no request ⇒ terminate.
                }
                slots += 1;
                batch.clear();
                if let DistributedAlgorithm::Dgrn | DistributedAlgorithm::Brun = algorithm {
                    // Alg. 2 line 8: the requester first, then its route.
                    let (user, route, gain) = suu_grant(&cache, rng).expect("a requester");
                    batch.push((user, route));
                    min_improvement = min_improvement.min(gain);
                } else {
                    // BUAU and PUU read every request: one route per
                    // requester in id order, then the same schedulers the
                    // naive driver runs over its materialized requests.
                    picks.clear();
                    for iu in cache.iter_improving() {
                        let user = UserId::from_index(iu);
                        let (route, gain) =
                            cached_request(&cache, user, rng).expect("improving ⇒ a response");
                        picks.push(Pick { user, route, gain });
                    }
                    let views: Vec<RequestView<'_>> = picks
                        .iter()
                        .map(|p| RequestView {
                            user: p.user,
                            tau: p.gain / engine.alpha_of(p.user),
                            tasks: [
                                engine.route_task_list(p.user, engine.profile().choice(p.user)),
                                engine.route_task_list(p.user, p.route),
                            ],
                        })
                        .collect();
                    let granted = if algorithm == DistributedAlgorithm::Buau {
                        buau(&views)
                    } else {
                        puu(&views)
                    };
                    for &g in &granted {
                        let p = &picks[g];
                        batch.push((p.user, p.route));
                        min_improvement = min_improvement.min(p.gain);
                    }
                }
                debug_assert!(!batch.is_empty());
                updates += batch.len();
                // PUU grants a pairwise conflict-free set (Theorem 3); a
                // single grant is trivially one. Only MUUN's batch is timed.
                let batch_span = (algorithm == DistributedAlgorithm::Muun)
                    .then(|| obs.span(SpanKind::BatchApply));
                engine.apply_batch(&batch);
                drop(batch_span);
                let updated = batch.len();
                record(&engine, updated, &mut slot_trace, &mut user_profit_trace);
                if let Some(start) = slot_start {
                    let nanos = elapsed_nanos(start);
                    obs.emit(|| Event::SpanRecorded {
                        kind: SpanKind::Slot,
                        nanos,
                    });
                }
                obs.emit(|| Event::SlotCompleted {
                    slot: slots as u64,
                    updated: updated as u32,
                    phi: engine.potential(),
                    total_profit: engine.total_profit(),
                });
            }
        }
    }

    obs.emit(|| Event::RunCompleted {
        slots: slots as u64,
        updates: updates as u64,
        converged,
        phi: engine.potential(),
    });
    RunOutcome {
        profile: engine.into_profile(),
        slots,
        updates,
        converged,
        slot_trace,
        user_profit_trace,
        min_improvement,
    }
}

/// Reference (naive) counterpart of [`run_distributed`]: same seed, same
/// trajectory, but every slot re-derives responses, `ϕ` and the total profit
/// from scratch instead of using the incremental [`Engine`] — the
/// pre-engine implementation, kept as the equivalence oracle and for the
/// old-vs-new benchmarks.
pub fn run_distributed_naive(
    game: &Game,
    algorithm: DistributedAlgorithm,
    config: &RunConfig,
) -> RunOutcome {
    let rng = &mut StdRng::seed_from_u64(config.seed);
    let mut profile = random_initial_profile(game, rng);
    let m = game.user_count();
    let mut slot_trace = Vec::new();
    let mut user_profit_trace = config.record_user_profits.then(Vec::new);
    let record = |profile: &Profile,
                  updated: usize,
                  slot_trace: &mut Vec<SlotTrace>,
                  user_trace: &mut Option<Vec<Vec<f64>>>| {
        slot_trace.push(SlotTrace {
            potential: potential(game, profile),
            total_profit: profile.total_profit(game),
            updated_users: updated,
        });
        if let Some(trace) = user_trace {
            trace.push(
                (0..m)
                    .map(|i| profile.profit(game, UserId::from_index(i)))
                    .collect(),
            );
        }
    };
    record(&profile, 0, &mut slot_trace, &mut user_profit_trace);

    let mut slots = 0usize;
    let mut updates = 0usize;
    let mut min_improvement = f64::INFINITY;
    let mut converged = false;

    match algorithm {
        DistributedAlgorithm::Bats => {
            // Round-robin turns; a full quiet pass terminates. Every turn is
            // a decision slot, improving or not (§5.3.1's explanation of why
            // BATS converges slowest).
            let mut quiet = 0usize;
            let mut cursor = 0usize;
            while quiet < m && slots < config.max_slots {
                let user = UserId::from_index(cursor);
                cursor = (cursor + 1) % m;
                slots += 1;
                let response = best_route_set(game, &profile, user);
                let updated = if let Some(route) = pick(&response.best_routes, rng) {
                    profile.apply_move(game, user, *route);
                    updates += 1;
                    min_improvement = min_improvement.min(response.gain);
                    quiet = 0;
                    1
                } else {
                    quiet += 1;
                    0
                };
                record(&profile, updated, &mut slot_trace, &mut user_profit_trace);
            }
            converged = quiet >= m;
        }
        _ => {
            // A user's would-be requests: each route of its best set at the
            // best-response gain, or its better list (BRUN).
            let options = |profile: &Profile, user: UserId| -> Vec<(RouteId, f64)> {
                if algorithm == DistributedAlgorithm::Brun {
                    better_routes(game, profile, user)
                } else {
                    let response = best_route_set(game, profile, user);
                    let gain = response.gain;
                    response.best_routes.iter().map(|&r| (r, gain)).collect()
                }
            };
            while slots < config.max_slots {
                // Alg. 2 line 6: every user able to improve requests.
                let granted: Vec<(UserId, RouteId, f64)> = match algorithm {
                    DistributedAlgorithm::Dgrn | DistributedAlgorithm::Brun => {
                        // Alg. 2 line 8, SUU: find the requesters without an
                        // RNG draw, grant one, then draw only its route.
                        let requesters: Vec<(UserId, Vec<(RouteId, f64)>)> = (0..m)
                            .map(|i| {
                                let user = UserId::from_index(i);
                                (user, options(&profile, user))
                            })
                            .filter(|(_, routes)| !routes.is_empty())
                            .collect();
                        suu(&requesters, rng)
                            .into_iter()
                            .map(|g| {
                                let (user, routes) = &requesters[g];
                                let &(route, gain) = pick(routes, rng).expect("non-empty");
                                (*user, route, gain)
                            })
                            .collect()
                    }
                    _ => {
                        // BUAU and PUU read every request: one route per
                        // requester, drawn in user order.
                        let requests: Vec<UpdateRequest> = (0..m)
                            .filter_map(|i| {
                                let user = UserId::from_index(i);
                                let &(route, gain) = pick(&options(&profile, user), rng)?;
                                Some(UpdateRequest::build(game, &profile, user, route, gain))
                            })
                            .collect();
                        let views: Vec<RequestView<'_>> =
                            requests.iter().map(UpdateRequest::view).collect();
                        let granted = if algorithm == DistributedAlgorithm::Buau {
                            buau(&views)
                        } else {
                            puu(&views)
                        };
                        granted
                            .iter()
                            .map(|&g| (requests[g].user, requests[g].new_route, requests[g].gain))
                            .collect()
                    }
                };
                if granted.is_empty() {
                    converged = true;
                    break; // Alg. 2 line 11: no request ⇒ terminate.
                }
                slots += 1;
                for &(user, route, gain) in &granted {
                    profile.apply_move(game, user, route);
                    updates += 1;
                    min_improvement = min_improvement.min(gain);
                }
                record(
                    &profile,
                    granted.len(),
                    &mut slot_trace,
                    &mut user_profit_trace,
                );
            }
        }
    }

    RunOutcome {
        profile,
        slots,
        updates,
        converged,
        slot_trace,
        user_profit_trace,
        min_improvement,
    }
}

/// Uniformly random element of a slice, or `None` for an empty slice.
fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.random_range(0..items.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcs_core::examples::fig1_instance;
    use vcs_core::ids::{RouteId, TaskId};
    use vcs_core::response::is_nash;
    use vcs_core::{PlatformParams, Route, Task, User, UserPrefs};

    fn medium_game(seed: u64) -> Game {
        // A random-ish but fixed game: 8 users, 12 tasks, 3 routes each.
        let mut rng = StdRng::seed_from_u64(seed);
        let tasks: Vec<Task> = (0..12)
            .map(|k| {
                Task::new(
                    TaskId(k),
                    rng.random_range(10.0..20.0),
                    rng.random_range(0.0..1.0),
                )
            })
            .collect();
        let users: Vec<User> = (0..8u32)
            .map(|i| {
                let routes = (0..3u32)
                    .map(|r| {
                        let n_tasks = rng.random_range(0..4);
                        let mut covered: Vec<TaskId> = (0..n_tasks)
                            .map(|_| TaskId(rng.random_range(0..12)))
                            .collect();
                        covered.sort_unstable();
                        covered.dedup();
                        Route::new(
                            RouteId(r),
                            covered,
                            rng.random_range(0.0..5.0),
                            rng.random_range(0.0..4.0),
                        )
                    })
                    .collect();
                User::new(
                    vcs_core::ids::UserId(i),
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

    #[test]
    fn all_algorithms_reach_nash() {
        for seed in 0..5u64 {
            let game = medium_game(seed);
            for algo in DistributedAlgorithm::ALL {
                let out = run_distributed(&game, algo, &RunConfig::with_seed(seed));
                assert!(out.converged, "{} did not converge", algo.name());
                assert!(
                    is_nash(&game, &out.profile),
                    "{} terminated off-equilibrium (seed {seed})",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn potential_monotone_along_any_run() {
        let game = medium_game(3);
        for algo in DistributedAlgorithm::ALL {
            let out = run_distributed(&game, algo, &RunConfig::with_seed(11));
            for w in out.slot_trace.windows(2) {
                assert!(
                    w[1].potential >= w[0].potential - 1e-9,
                    "{}: potential decreased {} -> {}",
                    algo.name(),
                    w[0].potential,
                    w[1].potential
                );
            }
        }
    }

    #[test]
    fn muun_converges_in_fewest_slots_on_average() {
        let mut totals = std::collections::HashMap::new();
        for seed in 0..10u64 {
            let game = medium_game(seed);
            for algo in DistributedAlgorithm::ALL {
                let out = run_distributed(&game, algo, &RunConfig::with_seed(seed * 7 + 1));
                *totals.entry(algo.name()).or_insert(0usize) += out.slots;
            }
        }
        assert!(totals["MUUN"] <= totals["DGRN"]);
        assert!(totals["DGRN"] <= totals["BATS"]);
    }

    #[test]
    fn fig1_dynamics_reach_the_paper_equilibrium() {
        let game = fig1_instance();
        let out = run_distributed(&game, DistributedAlgorithm::Dgrn, &RunConfig::with_seed(5));
        assert!(is_nash(&game, &out.profile));
        // The unique equilibrium of Fig. 1 is u1:r1, u2:r3, u3:r4 (total 11
        // unscaled). u1 never stays on r2: sharing $6 yields at most 3 < 5.
        assert_eq!(out.profile.choices(), &[RouteId(0), RouteId(0), RouteId(0)]);
    }

    #[test]
    fn slot_trace_has_initial_entry() {
        let game = medium_game(1);
        let out = run_distributed(&game, DistributedAlgorithm::Dgrn, &RunConfig::with_seed(2));
        assert_eq!(out.slot_trace.len(), out.slots + 1);
    }

    #[test]
    fn user_profit_trace_dimensions() {
        let game = medium_game(2);
        let mut cfg = RunConfig::with_seed(3);
        cfg.record_user_profits = true;
        let out = run_distributed(&game, DistributedAlgorithm::Muun, &cfg);
        let trace = out.user_profit_trace.as_ref().unwrap();
        assert_eq!(trace.len(), out.slots + 1);
        assert!(trace.iter().all(|row| row.len() == game.user_count()));
    }

    #[test]
    fn bats_counts_quiet_turns() {
        let game = medium_game(4);
        let out = run_distributed(&game, DistributedAlgorithm::Bats, &RunConfig::with_seed(9));
        // Terminating requires a full quiet pass, so slots ≥ users and
        // slots ≥ updates + users.
        assert!(out.slots >= game.user_count());
        assert!(out.slots >= out.updates + game.user_count());
    }

    #[test]
    fn min_improvement_positive_when_updates_happen() {
        let game = medium_game(6);
        let out = run_distributed(&game, DistributedAlgorithm::Dgrn, &RunConfig::with_seed(1));
        if out.updates > 0 {
            assert!(out.min_improvement > 0.0);
            assert!(out.min_improvement.is_finite());
        } else {
            assert_eq!(out.min_improvement, f64::INFINITY);
        }
    }

    #[test]
    fn observation_never_perturbs_the_run() {
        use std::sync::Arc;
        use vcs_obs::RingBufferSubscriber;
        let game = medium_game(5);
        for algo in DistributedAlgorithm::ALL {
            let cfg = RunConfig::with_seed(17);
            let plain = run_distributed(&game, algo, &cfg);
            let ring = Arc::new(RingBufferSubscriber::new(1 << 20));
            let observed = run_distributed_observed(&game, algo, &cfg, &Obs::new(ring.clone()));
            assert_eq!(plain, observed, "{}: observed run diverged", algo.name());
            let events = ring.events();
            // One init anchor, one slot event per decision slot, one move
            // event per update, one terminal event.
            assert!(matches!(events[0], Event::EngineInit { .. }));
            let slot_events = events
                .iter()
                .filter(|e| matches!(e, Event::SlotCompleted { .. }))
                .count();
            assert_eq!(slot_events, observed.slots, "{}", algo.name());
            let move_events = events
                .iter()
                .filter(|e| matches!(e, Event::MoveCommitted { .. }))
                .count();
            assert_eq!(move_events, observed.updates, "{}", algo.name());
            match events.last() {
                Some(&Event::RunCompleted {
                    slots,
                    updates,
                    converged,
                    phi,
                }) => {
                    assert_eq!(slots as usize, observed.slots);
                    assert_eq!(updates as usize, observed.updates);
                    assert_eq!(converged, observed.converged);
                    let terminal = observed.slot_trace.last().unwrap().potential;
                    assert!((phi - terminal).abs() < 1e-12);
                }
                other => panic!("{}: expected RunCompleted, got {other:?}", algo.name()),
            }
            // The recorded trace reconstructs the ϕ trajectory within 1e-9.
            let rec = vcs_obs::reconstruct_phi(&events).unwrap();
            assert_eq!(rec.moves, observed.updates);
            assert!(
                rec.max_abs_err < 1e-9,
                "{}: {}",
                algo.name(),
                rec.max_abs_err
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let game = medium_game(8);
        let cfg = RunConfig::with_seed(123);
        let a = run_distributed(&game, DistributedAlgorithm::Muun, &cfg);
        let b = run_distributed(&game, DistributedAlgorithm::Muun, &cfg);
        assert_eq!(a, b);
    }
}
