//! Better/best response updates (Definition 1) and Nash-equilibrium checks
//! (Definition 2).
//!
//! The distributed algorithm's per-user step is: compute the *best route set*
//! `Δ_i(t)` — the routes that maximize user `i`'s profit given everyone
//! else's current choice *and* strictly improve on the current profit
//! (Alg. 1, line 10). [`best_route_set`] implements exactly that;
//! [`better_routes`] lists all strictly improving routes for better-response
//! dynamics (BRUN); [`is_nash`] checks Definition 2 up to a tolerance.

use crate::game::Game;
use crate::ids::{RouteId, UserId};
use crate::profile::Profile;

/// Numerical tolerance for "strict improvement". Profit deltas below this are
/// treated as ties so that floating-point noise cannot produce infinite
/// update cycles. The potential function increases by at least
/// `EPSILON / e_max` per accepted update, preserving the finite-improvement
/// property.
pub const EPSILON: f64 = 1e-9;

/// Result of scanning a user's recommended set for a best response.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BestResponse {
    /// The best route set `Δ_i(t)`: all routes attaining the maximum profit,
    /// **empty when the current route is already (tied-for) optimal**.
    pub best_routes: Vec<RouteId>,
    /// Profit gain `P_i(s_i', s_-i) − P_i(s)` of the best routes (0 if none).
    pub gain: f64,
    /// The maximum achievable profit for the user under `s_-i`.
    pub best_profit: f64,
}

impl BestResponse {
    /// Whether the user can strictly improve (`Δ_i(t) ≠ ∅`).
    #[inline]
    pub fn can_improve(&self) -> bool {
        !self.best_routes.is_empty()
    }

    /// The canonical representative of `Δ_i(t)`: the lowest-index best route.
    /// `None` when no improvement exists.
    #[inline]
    pub fn first(&self) -> Option<RouteId> {
        self.best_routes.first().copied()
    }
}

/// A view of per-user route profits under some joint strategy state.
///
/// Both the plain `(Game, Profile)` pair and the incremental
/// [`Engine`](crate::engine::Engine) price routes; the best/better-response
/// scans below are generic over this trait so that both paths share one
/// implementation of the [`EPSILON`] tie-breaking rules and stay
/// bit-identical by construction.
pub trait ProfitView {
    /// Number of recommended routes of `user`.
    fn route_count(&self, user: UserId) -> usize;
    /// The route `user` currently travels.
    fn choice(&self, user: UserId) -> RouteId;
    /// Profit `P_i(s)` of `user` under the current joint strategy.
    fn profit(&self, user: UserId) -> f64;
    /// Profit of `user` if it unilaterally switched to `candidate`.
    fn profit_if_switched(&self, user: UserId, candidate: RouteId) -> f64;
}

/// The naive profit view: prices every route directly from the game
/// definition and the profile's participant counts.
impl ProfitView for (&Game, &Profile) {
    fn route_count(&self, user: UserId) -> usize {
        self.0.users()[user.index()].routes.len()
    }

    fn choice(&self, user: UserId) -> RouteId {
        self.1.choice(user)
    }

    fn profit(&self, user: UserId) -> f64 {
        self.1.profit(self.0, user)
    }

    fn profit_if_switched(&self, user: UserId, candidate: RouteId) -> f64 {
        self.1.profit_if_switched(self.0, user, candidate)
    }
}

/// Computes the best route set `Δ_i(t)` of `user` (Alg. 1, line 10).
///
/// Scans every recommended route, evaluating the unilateral-deviation profit
/// via [`Profile::profit_if_switched`]. Routes within [`EPSILON`] of the
/// maximum are all reported (ties), but only if the maximum strictly exceeds
/// the current profit by more than [`EPSILON`].
pub fn best_route_set(game: &Game, profile: &Profile, user: UserId) -> BestResponse {
    best_route_set_in(&(game, profile), user)
}

/// Recommended sets are small (the paper's scenarios top out at a handful
/// of candidate routes); scans buffer per-route profits on the stack up to
/// this size so the common no-improvement case performs no allocation.
const STACK_ROUTES: usize = 16;

/// [`best_route_set`] generic over any [`ProfitView`].
pub fn best_route_set_in<V: ProfitView>(view: &V, user: UserId) -> BestResponse {
    let current_profit = view.profit(user);
    let n_routes = view.route_count(user);
    let mut stack_buf = [0.0f64; STACK_ROUTES];
    let mut heap_buf: Vec<f64>;
    let profits: &mut [f64] = if n_routes <= STACK_ROUTES {
        &mut stack_buf[..n_routes]
    } else {
        heap_buf = vec![0.0; n_routes];
        &mut heap_buf
    };
    let mut best_profit = f64::NEG_INFINITY;
    for (r, slot) in profits.iter_mut().enumerate() {
        let candidate = RouteId::from_index(r);
        let p = if candidate == view.choice(user) {
            current_profit
        } else {
            view.profit_if_switched(user, candidate)
        };
        *slot = p;
        if p > best_profit {
            best_profit = p;
        }
    }
    if best_profit <= current_profit + EPSILON {
        return BestResponse {
            best_routes: Vec::new(),
            gain: 0.0,
            best_profit: current_profit,
        };
    }
    let best_routes = profits
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p >= best_profit - EPSILON)
        .map(|(r, _)| RouteId::from_index(r))
        .collect();
    BestResponse {
        best_routes,
        gain: best_profit - current_profit,
        best_profit,
    }
}

/// Lists every strictly improving route of `user` together with its profit
/// gain (better-response candidates, Definition 1).
pub fn better_routes(game: &Game, profile: &Profile, user: UserId) -> Vec<(RouteId, f64)> {
    better_routes_in(&(game, profile), user)
}

/// [`better_routes`] generic over any [`ProfitView`].
pub fn better_routes_in<V: ProfitView>(view: &V, user: UserId) -> Vec<(RouteId, f64)> {
    let current_profit = view.profit(user);
    let current = view.choice(user);
    let n_routes = view.route_count(user);
    let mut out = Vec::new();
    for r in 0..n_routes {
        let candidate = RouteId::from_index(r);
        if candidate == current {
            continue;
        }
        let p = view.profit_if_switched(user, candidate);
        if p > current_profit + EPSILON {
            out.push((candidate, p - current_profit));
        }
    }
    out
}

/// Whether `profile` is a Nash equilibrium of `game` (Definition 2): no user
/// can improve its profit by more than [`EPSILON`] with a unilateral switch.
pub fn is_nash(game: &Game, profile: &Profile) -> bool {
    (0..game.user_count())
        .all(|i| !best_route_set(game, profile, UserId::from_index(i)).can_improve())
}

/// The largest unilateral improvement available to any user; `0.0` at a Nash
/// equilibrium. Useful as a convergence diagnostic.
pub fn max_unilateral_gain(game: &Game, profile: &Profile) -> f64 {
    (0..game.user_count())
        .map(|i| best_route_set(game, profile, UserId::from_index(i)).gain)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::PlatformParams;
    use crate::ids::TaskId;
    use crate::route::Route;
    use crate::task::Task;
    use crate::user::{User, UserPrefs};

    /// One user with three routes of cleanly ordered profit.
    fn solo_game() -> Game {
        let tasks = vec![
            Task::new(TaskId(0), 10.0, 0.0),
            Task::new(TaskId(1), 20.0, 0.0),
            Task::new(TaskId(2), 20.0, 0.0),
        ];
        let users = vec![User::new(
            UserId(0),
            UserPrefs::new(0.5, 0.5, 0.5),
            vec![
                Route::new(RouteId(0), vec![TaskId(0)], 0.0, 0.0),
                Route::new(RouteId(1), vec![TaskId(1)], 0.0, 0.0),
                Route::new(RouteId(2), vec![TaskId(2)], 0.0, 0.0),
            ],
        )];
        Game::with_paper_bounds(tasks, users, PlatformParams::new(0.5, 0.5)).unwrap()
    }

    #[test]
    fn best_route_set_reports_all_ties() {
        let g = solo_game();
        let p = Profile::all_first(&g);
        let br = best_route_set(&g, &p, UserId(0));
        assert!(br.can_improve());
        assert_eq!(br.best_routes, vec![RouteId(1), RouteId(2)]);
        assert!((br.gain - 5.0).abs() < 1e-12); // 0.5·20 − 0.5·10
        assert_eq!(br.first(), Some(RouteId(1)));
    }

    #[test]
    fn no_improvement_when_on_best_route() {
        let g = solo_game();
        let p = Profile::new(&g, vec![RouteId(1)]);
        let br = best_route_set(&g, &p, UserId(0));
        assert!(!br.can_improve());
        assert_eq!(br.gain, 0.0);
        assert!(is_nash(&g, &p));
    }

    #[test]
    fn better_routes_lists_all_improvements() {
        let g = solo_game();
        let p = Profile::all_first(&g);
        let better = better_routes(&g, &p, UserId(0));
        assert_eq!(better.len(), 2);
        assert!(better.iter().all(|&(_, gain)| gain > 0.0));
    }

    #[test]
    fn nash_detects_deviation_incentive() {
        let g = solo_game();
        let p = Profile::all_first(&g);
        assert!(!is_nash(&g, &p));
        assert!((max_unilateral_gain(&g, &p) - 5.0).abs() < 1e-12);
    }

    /// Fig. 1 style: reward sharing makes the "everyone chase the big task"
    /// profile unstable.
    #[test]
    fn sharing_induces_spreading() {
        let tasks = vec![
            Task::new(TaskId(0), 12.0, 0.0),
            Task::new(TaskId(1), 10.0, 0.0),
        ];
        let routes = |_: u32| {
            vec![
                Route::new(RouteId(0), vec![TaskId(0)], 0.0, 0.0),
                Route::new(RouteId(1), vec![TaskId(1)], 0.0, 0.0),
            ]
        };
        let users = (0..2)
            .map(|i| User::new(UserId(i), UserPrefs::new(0.5, 0.5, 0.5), routes(i)))
            .collect();
        let g = Game::with_paper_bounds(tasks, users, PlatformParams::new(0.5, 0.5)).unwrap();
        // Both on the 12-task: each receives 6 < 10, so both want to deviate.
        let p = Profile::all_first(&g);
        assert!(!is_nash(&g, &p));
        // One on each task: 12 vs 10 ≥ 12/2, stable.
        let split = Profile::new(&g, vec![RouteId(0), RouteId(1)]);
        assert!(is_nash(&g, &split));
    }

    #[test]
    fn ties_do_not_count_as_improvement() {
        // Two identical routes: switching gains exactly 0, must not improve.
        let tasks = vec![Task::new(TaskId(0), 10.0, 0.0)];
        let users = vec![User::new(
            UserId(0),
            UserPrefs::new(0.5, 0.5, 0.5),
            vec![
                Route::new(RouteId(0), vec![TaskId(0)], 1.0, 1.0),
                Route::new(RouteId(1), vec![TaskId(0)], 1.0, 1.0),
            ],
        )];
        let g = Game::with_paper_bounds(tasks, users, PlatformParams::new(0.5, 0.5)).unwrap();
        let p = Profile::all_first(&g);
        assert!(!best_route_set(&g, &p, UserId(0)).can_improve());
        assert!(better_routes(&g, &p, UserId(0)).is_empty());
        assert!(is_nash(&g, &p));
    }
}
