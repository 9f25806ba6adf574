//! Update requests: what a user sends the platform when it wants to switch
//! (Alg. 1 line 12, consumed by SUU/PUU in Alg. 2/3).

use crate::scheduler::RequestView;
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{Game, Profile};

/// An update request from one user in one decision slot.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// The requesting user.
    pub user: UserId,
    /// The new route the user wants to switch to (drawn from its best route
    /// set `Δ_i(t)`, or any better route under better-response dynamics).
    pub new_route: RouteId,
    /// Profit gain `P_i(s_i', s_-i) − P_i(s)` of the switch.
    pub gain: f64,
    /// `τ_i = gain / α_i`: the potential increase the switch contributes.
    pub tau: f64,
    /// `B_i`: the tasks jointly covered by the current and the new route
    /// (every task whose participant count the switch can touch), sorted.
    pub affected_tasks: Vec<TaskId>,
}

impl UpdateRequest {
    /// Builds a request for `user` switching to `new_route` under `profile`,
    /// computing `gain`, `τ_i` and `B_i`.
    pub fn build(
        game: &Game,
        profile: &Profile,
        user: UserId,
        new_route: RouteId,
        gain: f64,
    ) -> Self {
        let u = &game.users()[user.index()];
        let current = &u.routes[profile.choice(user).index()];
        let next = &u.routes[new_route.index()];
        let mut affected: Vec<TaskId> = current
            .tasks
            .iter()
            .chain(next.tasks.iter())
            .copied()
            .collect();
        affected.sort_unstable();
        affected.dedup();
        Self {
            user,
            new_route,
            gain,
            tau: gain / u.prefs.alpha,
            affected_tasks: affected,
        }
    }

    /// The schedulers' view of this request: the carried `B_i` as one list.
    pub fn view(&self) -> RequestView<'_> {
        RequestView {
            user: self.user,
            tau: self.tau,
            tasks: [&self.affected_tasks, &[]],
        }
    }

    /// Whether this request's affected task set intersects `other`'s
    /// (conflicting requests must not update in the same slot under PUU).
    /// The schedulers decide admission by task occupancy instead; this
    /// pairwise predicate is the tests' independent oracle.
    pub fn conflicts_with(&self, other: &UpdateRequest) -> bool {
        tasks_intersect(&self.affected_tasks, &other.affected_tasks)
    }
}

/// Linear merge intersection test over two **sorted** task lists — the
/// pairwise PUU conflict predicate behind [`UpdateRequest::conflicts_with`].
pub fn tasks_intersect(a: &[TaskId], b: &[TaskId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcs_core::ids::{RouteId, TaskId, UserId};
    use vcs_core::{Game, PlatformParams, Route, Task, User, UserPrefs};

    fn game() -> Game {
        let tasks = (0..4).map(|k| Task::new(TaskId(k), 10.0, 0.0)).collect();
        let users = vec![
            User::new(
                UserId(0),
                UserPrefs::new(0.5, 0.5, 0.5),
                vec![
                    Route::new(RouteId(0), vec![TaskId(0), TaskId(1)], 0.0, 0.0),
                    Route::new(RouteId(1), vec![TaskId(1), TaskId(2)], 0.0, 0.0),
                ],
            ),
            User::new(
                UserId(1),
                UserPrefs::new(0.25, 0.5, 0.5),
                vec![
                    Route::new(RouteId(0), vec![TaskId(3)], 0.0, 0.0),
                    Route::new(RouteId(1), vec![TaskId(0)], 0.0, 0.0),
                ],
            ),
        ];
        Game::with_paper_bounds(tasks, users, PlatformParams::new(0.5, 0.5)).unwrap()
    }

    #[test]
    fn affected_tasks_union_current_and_new() {
        let g = game();
        let p = Profile::all_first(&g);
        let req = UpdateRequest::build(&g, &p, UserId(0), RouteId(1), 1.0);
        assert_eq!(req.affected_tasks, vec![TaskId(0), TaskId(1), TaskId(2)]);
        assert!((req.tau - 2.0).abs() < 1e-12); // gain 1.0 / α 0.5
    }

    #[test]
    fn tau_scales_by_alpha() {
        let g = game();
        let p = Profile::all_first(&g);
        let req = UpdateRequest::build(&g, &p, UserId(1), RouteId(1), 1.0);
        assert!((req.tau - 4.0).abs() < 1e-12); // α = 0.25
    }

    #[test]
    fn conflict_detection() {
        let g = game();
        let p = Profile::all_first(&g);
        let r0 = UpdateRequest::build(&g, &p, UserId(0), RouteId(1), 1.0); // {0,1,2}
        let r1 = UpdateRequest::build(&g, &p, UserId(1), RouteId(1), 1.0); // {0,3}
        assert!(r0.conflicts_with(&r1)); // share task 0
        assert!(r1.conflicts_with(&r0));
        // A request only touching task 3 conflicts with nothing in r0.
        let solo = UpdateRequest {
            user: UserId(1),
            new_route: RouteId(0),
            gain: 0.1,
            tau: 0.4,
            affected_tasks: vec![TaskId(3)],
        };
        assert!(!solo.conflicts_with(&r0));
    }
}
