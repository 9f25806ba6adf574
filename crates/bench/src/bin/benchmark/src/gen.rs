//! Seeded inputs: game instances for the solver workloads and open-loop
//! request schedules for the serving workloads.
//!
//! The game distribution is the benchmark's own copy of the paper-range
//! synthetic instance (Table 2 weight bounds, φ = θ = 0.4), so a change to a
//! workspace generator cannot silently change what the benchmark measures.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{Route, Task, User, UserPrefs};

/// Derives the `i`-th independent seed from a run seed (splitmix64 step), so
/// instances, set-ups and schedules of one run never share a stream.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The raw inputs of one game: tasks and users, not yet validated into a
/// `Game` (that validation is the solver workloads' set-up step).
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    pub tasks: Vec<Task>,
    pub users: Vec<User>,
}

/// A paper-range instance: task rewards `a ∈ [10, 20)`, increments
/// `μ ∈ [0, 1)`; each user has 2–4 recommended routes covering 1–4 random
/// tasks, detour `h ∈ [0, 5)`, congestion `c ∈ [0, 4)`, weights in
/// `[0.1, 0.9)`.
pub fn instance(n_users: usize, n_tasks: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tasks = (0..n_tasks)
        .map(|k| {
            Task::new(
                TaskId::from_index(k),
                rng.random_range(10.0..20.0),
                rng.random_range(0.0..1.0),
            )
        })
        .collect();
    let users = (0..n_users)
        .map(|i| {
            let n_routes = rng.random_range(2..=4usize);
            let routes = (0..n_routes)
                .map(|r| {
                    let mut covered: Vec<TaskId> = (0..rng.random_range(1..5usize))
                        .map(|_| TaskId::from_index(rng.random_range(0..n_tasks)))
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
            let prefs = UserPrefs::new(
                rng.random_range(0.1..0.9),
                rng.random_range(0.1..0.9),
                rng.random_range(0.1..0.9),
            );
            User::new(UserId::from_index(i), prefs, routes)
        })
        .collect();
    Instance { tasks, users }
}

/// The initial profile `run_distributed` starts from for `seed`: each user a
/// uniformly random recommended route, drawn in user order (Alg. 1 line 3).
pub fn initial_choices(users: &[User], seed: u64) -> Vec<RouteId> {
    let mut rng = StdRng::seed_from_u64(seed);
    users
        .iter()
        .map(|u| RouteId::from_index(rng.random_range(0..u.routes.len())))
        .collect()
}

/// What a scheduled request asks for, before the sender resolves it against
/// its pool of joined vehicles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    Join,
    Leave,
    BestRespond,
    Query,
}

/// One scheduled request: its send time from the start of the load, what it
/// asks for, and a uniform draw the sender uses to pick a pooled vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub at: Duration,
    pub want: Want,
    pub pick: u64,
}

/// Ideal Poisson arrivals at `rate_hz` over `[0, span)`, laid out on an
/// absolute schedule, each drawing its kind from `mix` (Join : Leave :
/// BestRespond : Query weights).
pub fn schedule(rate_hz: f64, span: Duration, mix: [u32; 4], seed: u64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total: u32 = mix.iter().sum();
    let mut out = Vec::with_capacity((rate_hz * span.as_secs_f64() * 1.1) as usize + 16);
    let mut at = 0.0f64;
    loop {
        let u: f64 = rng.random_range(0.0..1.0);
        at += -(1.0 - u).ln() / rate_hz;
        if at >= span.as_secs_f64() {
            return out;
        }
        let mut draw = rng.random_range(0..total);
        let mut want = Want::Query;
        for (weight, kind) in mix.iter().zip([Want::Join, Want::Leave, Want::BestRespond]) {
            if draw < *weight {
                want = kind;
                break;
            }
            draw -= weight;
        }
        out.push(Planned {
            at: Duration::from_secs_f64(at),
            want,
            pick: rng.random_range(0..u64::MAX),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_schedules_and_instances() {
        let span = Duration::from_secs(2);
        let a = schedule(500.0, span, [2, 1, 4, 1], 11);
        assert_eq!(a, schedule(500.0, span, [2, 1, 4, 1], 11));
        assert_ne!(a, schedule(500.0, span, [2, 1, 4, 1], 12));
        assert!(
            (800..1200).contains(&a.len()),
            "≈ rate × span arrivals: {}",
            a.len()
        );
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "absolute, sorted");
        assert!(a.last().is_some_and(|p| p.at < span));

        let g = instance(300, 200, 5);
        assert_eq!(g, instance(300, 200, 5));
        assert_ne!(g, instance(300, 200, 6));
        assert_eq!(initial_choices(&g.users, 3), initial_choices(&g.users, 3));
    }

    #[test]
    fn mix_weights_shape_the_schedule() {
        let plan = schedule(2000.0, Duration::from_secs(5), [4, 4, 1, 1], 3);
        let share =
            |w: Want| plan.iter().filter(|p| p.want == w).count() as f64 / plan.len() as f64;
        assert!((share(Want::Join) - 0.4).abs() < 0.03);
        assert!((share(Want::Leave) - 0.4).abs() < 0.03);
        assert!((share(Want::BestRespond) - 0.1).abs() < 0.02);
        assert!((share(Want::Query) - 0.1).abs() < 0.02);
    }

    #[test]
    fn instances_are_valid_paper_range_games() {
        let g = instance(500, 300, 9);
        let game = vcs_core::Game::with_paper_bounds(
            g.tasks,
            g.users,
            vcs_core::PlatformParams::new(0.4, 0.4),
        );
        assert!(game.is_ok());
    }
}
