//! # vcs-core — the multi-user route-navigation potential game
//!
//! Core library of the reproduction of *"Distributed Game-Theoretical Route
//! Navigation for Vehicular Crowdsensing"* (ICPP '21). This crate implements
//! the paper's primary contribution as a standalone, substrate-agnostic game
//! model:
//!
//! * the system model of §3.1 — tasks with the logarithmic shared reward of
//!   Eq. 1 ([`Task`]), recommended routes with detour and congestion costs
//!   ([`Route`]), users with preference weights ([`User`], [`UserPrefs`]) and
//!   platform weights ([`PlatformParams`]);
//! * strategy profiles with incrementally maintained participant counts
//!   ([`Profile`]) and the user profit function `P_i(s)` of Eq. 2;
//! * the weighted potential function of Eq. 8 and the Theorem 2 identity
//!   ([`potential`], [`potential_delta`], [`weighted_potential_defect`]);
//! * better/best-response machinery and Nash-equilibrium checks
//!   ([`best_route_set`], [`better_routes`], [`is_nash`]);
//! * the incremental solver engine — cached share/potential tables, a
//!   task→users inverted index, O(Δ)-per-move potential and total-profit
//!   maintenance and dirty-set best-response invalidation ([`Engine`],
//!   [`ShareTables`]), and the response cache every solver loop refreshes
//!   from the dirty set ([`ResponseCache`]);
//! * the theoretical artifacts: Theorem 4's convergence-slot bound
//!   ([`bounds`]), Theorem 5's Price-of-Anarchy bound ([`poa`]) and the
//!   Theorem 1 set-cover reduction ([`reduction`]);
//! * the paper's illustrative instances Fig. 1 / Fig. 2 ([`examples`]).
//!
//! Route *generation* (road networks, k-shortest paths), trace synthesis, the
//! distributed runtime and the solver algorithms live in the sibling crates
//! `vcs-roadnet`, `vcs-traces`, `vcs-runtime` and `vcs-algorithms`.
//!
//! ## Quick example
//!
//! ```
//! use vcs_core::{
//!     Game, PlatformParams, Profile, Route, Task, User, UserPrefs,
//!     ids::{RouteId, TaskId, UserId},
//!     response::{best_route_set, is_nash},
//! };
//!
//! // Two tasks, one user with two candidate routes.
//! let tasks = vec![Task::new(TaskId(0), 10.0, 0.5), Task::new(TaskId(1), 18.0, 0.0)];
//! let user = User::new(
//!     UserId(0),
//!     UserPrefs::new(0.5, 0.3, 0.3),
//!     vec![
//!         Route::new(RouteId(0), vec![TaskId(0)], 0.0, 1.0),
//!         Route::new(RouteId(1), vec![TaskId(1)], 2.0, 0.5),
//!     ],
//! );
//! let game = Game::with_paper_bounds(tasks, vec![user], PlatformParams::new(0.4, 0.4)).unwrap();
//!
//! let mut profile = Profile::all_first(&game);
//! let response = best_route_set(&game, &profile, UserId(0));
//! if let Some(better) = response.first() {
//!     profile.apply_move(&game, UserId(0), better);
//! }
//! assert!(is_nash(&game, &profile));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod breakdown;
pub mod cache;
pub mod churn;
pub mod engine;
pub mod error;
pub mod examples;
pub mod game;
pub mod ids;
pub mod poa;
pub mod potential;
pub mod profile;
pub mod reduction;
pub mod response;
pub mod route;
pub mod slab;
pub mod task;
pub mod user;

pub use breakdown::{all_breakdowns, profit_breakdown, profit_breakdown_engine, ProfitBreakdown};
pub use cache::ResponseCache;
pub use churn::{apply_churn, ChurnEvent, UserSpec};
pub use engine::{Engine, ShareTables};
pub use error::GameError;
pub use game::{Game, PlatformParams};
pub use potential::{potential, potential_delta, weighted_potential_defect};
pub use profile::Profile;
pub use response::{best_route_set, better_routes, is_nash, BestResponse, ProfitView, EPSILON};
pub use route::Route;
pub use slab::SegmentedSlab;
pub use task::Task;
pub use user::{User, UserPrefs, WeightBounds};
