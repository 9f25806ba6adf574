//! The incremental game engine: cached share tables, per-route cost caches,
//! a task→users inverted index and O(Δ)-per-move maintenance of the
//! potential `ϕ(s)` and the total profit `Σ_i P_i(s)`.
//!
//! The naive solver loop re-derives everything from the game definition each
//! slot: `Task::potential_term` walks an `O(n_k)` loop of `ln` calls per
//! task, `Profile::total_profit` re-prices every user, and every user's best
//! response is re-scanned even when nothing it can see has changed. At
//! `M = 2000` users that makes a single decision slot `O(M·(R·T̄ + M·T̄))`.
//!
//! [`Engine`] removes all of that re-derivation:
//!
//! * [`ShareTables`] precomputes each task's per-participant share
//!   `w_k(q)/q` and the potential prefix sums `Σ_{q≤x} w_k(q)/q` up to the
//!   task's maximum possible participant count, turning both
//!   [`Task::share`](crate::Task::share) and
//!   [`Task::potential_term`](crate::Task::potential_term) into O(1) lookups
//!   (bit-identical: the tables are built by the same ascending summation);
//! * per-`(user, route)` costs `β_i·d(r) + γ_i·b(r)` and the potential's
//!   ratio-weighted costs `(β_i/α_i)·d(r) + (γ_i/α_i)·b(r)` are computed
//!   once at construction;
//! * a task→users inverted index lets [`Engine::apply_move`] mark exactly
//!   the users whose cached best responses a move invalidates (the *dirty
//!   set*), which the solver drains via [`Engine::take_dirty`];
//! * `ϕ(s)` and `Σ_i P_i(s)` are maintained incrementally in
//!   `O(|L_old| + |L_new|)` per move with Neumaier-compensated accumulation,
//!   so recording a [`SlotTrace`](crate) entry costs O(1) instead of a full
//!   recomputation.
//!
//! ## Memory layout
//!
//! All hot state lives in struct-of-arrays slabs keyed by the dense id
//! spaces of [`crate::ids`] (see [`SegmentedSlab`]):
//!
//! * `route_cost` / `phi_route_cost` — one `f64` row per user, indexed by
//!   route;
//! * `route_tasks` — every route's task list flattened into one slab, rows
//!   addressed by the flat route index `route_base[user] + route`;
//! * `task_users` — the task→users inverted index in CSR form, rows sorted
//!   by user id (ids are append-only, so churn appends keep rows sorted);
//! * [`ShareTables`] — per-task share and prefix rows in two slabs sharing
//!   identical geometry;
//! * `alpha` — the per-user profit weight, so pricing never chases into
//!   `Game::users`.
//!
//! A best-response scan therefore touches four contiguous arrays (segment
//! table → route tasks → participant counts/share rows → cost row) instead
//! of pointer-hopping `Vec<User> → Vec<Route> → Vec<TaskId>`.
//!
//! Correctness invariants (enforced by the property tests in
//! `tests/engine_equivalence.rs`, `tests/batch_props.rs` and the
//! cross-implementation trajectory tests in `vcs-algorithms`):
//!
//! 1. [`Engine::profit`] and [`Engine::profit_if_switched`] are
//!    **bit-identical** to [`Profile::profit`]/[`Profile::profit_if_switched`]
//!    — same share values (table entries are `Task::share` outputs), same
//!    cached cost values, same summation order.
//! 2. [`Engine::potential`] and [`Engine::total_profit`] track the freshly
//!    recomputed values within `1e-9` along arbitrary move sequences.
//! 3. A user absent from every dirty set since its last evaluation has an
//!    unchanged best response: its profits depend only on its own choice and
//!    the counts of tasks covered by *some* route of its recommended set,
//!    and the inverted index covers exactly those tasks.
//! 4. [`Engine::apply_batch`] is an [`Engine::apply_move`] loop in grant
//!    order, so its ϕ/total bits, dirty set and event stream are those of
//!    the sequential moves; debug builds check its conflict-free contract
//!    (pairwise-disjoint affected task sets, the Theorem 3 / PUU guarantee).

use crate::error::GameError;
use crate::game::Game;
use crate::ids::{RouteId, TaskId, UserId};
use crate::profile::Profile;
use crate::response::{better_routes_in, BestResponse, ProfitView, EPSILON};
use crate::route::Route;
use crate::slab::SegmentedSlab;
use crate::user::UserPrefs;
use std::borrow::Cow;
use vcs_obs::{Event, Obs};

/// Per-task share and potential prefix tables.
///
/// `share(k, q) = w_k(q)/q` and `prefix(k, x) = Σ_{q=1}^{x} w_k(q)/q` for
/// `q` up to the number of users that can possibly perform `k` (the users
/// with at least one recommended route covering it). Entries are produced by
/// the same expressions as [`crate::Task::share`] /
/// [`crate::Task::potential_term`], so lookups are bit-identical to the
/// naive evaluation. Both tables are stored as [`SegmentedSlab`] rows (one
/// row per task) over contiguous backing vectors.
#[derive(Debug, Clone)]
pub struct ShareTables {
    /// Row `k` holds `share[k][q]`, `q ∈ 0..=cap_k`; `share[k][0] = 0`.
    share: SegmentedSlab<f64>,
    /// Row `k` holds `prefix[k][x] = Σ_{q≤x} share[k][q]`, summed ascending.
    prefix: SegmentedSlab<f64>,
    /// `(a_k, μ_k)` fallback parameters for counts beyond the table (cannot
    /// happen for legal profiles; kept total for robustness).
    params: Vec<(f64, f64)>,
}

impl ShareTables {
    /// Builds the tables for `game`, sizing each task's row by how many
    /// users can possibly cover it.
    pub fn new(game: &Game) -> Self {
        Self::with_coverage(game, &coverage_capacity(game))
    }

    /// Builds the tables from a precomputed coverage vector (one pass of
    /// [`coverage_capacity`], shared with the engine's CSR construction).
    pub(crate) fn with_coverage(game: &Game, cap: &[u32]) -> Self {
        // ln(q) does not depend on the task, so one table of max_k cap_k
        // logarithms replaces the Σ_k cap_k `ln` calls a per-task
        // `Task::share` loop would make — the dominant construction cost at
        // scale. The entries below re-run the exact `Task::share` expression
        // (`(a_k + μ_k·ln q) / q`, same operation order) on the memoized
        // value, so the tables stay bit-identical to direct evaluation.
        let max_cap = cap.iter().copied().max().unwrap_or(0);
        let mut ln_q: Vec<f64> = Vec::with_capacity(max_cap as usize + 1);
        ln_q.push(0.0); // q = 0 never evaluates a logarithm
        for q in 1..=max_cap {
            ln_q.push(f64::from(q).ln());
        }
        let total: usize = cap.iter().map(|&c| c as usize + 1).sum();
        let mut share_data: Vec<f64> = Vec::with_capacity(total);
        let mut prefix_data: Vec<f64> = Vec::with_capacity(total);
        let mut row_lens: Vec<usize> = Vec::with_capacity(game.task_count());
        let mut params = Vec::with_capacity(game.task_count());
        for task in game.tasks() {
            let n = cap[task.id.index()] as usize;
            row_lens.push(n + 1);
            let mut acc = 0.0;
            share_data.push(0.0);
            prefix_data.push(0.0);
            for q in 1..=n as u32 {
                let sq = (task.base_reward + task.increment * ln_q[q as usize]) / f64::from(q);
                acc += sq;
                share_data.push(sq);
                prefix_data.push(acc);
            }
            params.push((task.base_reward, task.increment));
        }
        Self {
            share: SegmentedSlab::from_filled(share_data, &row_lens),
            prefix: SegmentedSlab::from_filled(prefix_data, &row_lens),
            params,
        }
    }

    /// Grows `task`'s row by one participant slot (a newly arrived user can
    /// now cover it). The new prefix entry continues the same ascending
    /// summation as construction, so the extended table is bit-identical to
    /// one built for the larger capacity from scratch.
    pub(crate) fn extend_for(&mut self, task: &crate::task::Task) {
        let k = task.id.index();
        let q = self.share.row_len(k) as u32;
        let sq = task.share(q);
        let prev = *self.prefix.row(k).last().expect("tables hold q = 0");
        self.share.push_to_row(k, sq);
        self.prefix.push_to_row(k, prev + sq);
    }

    /// `w_k(n)/n`, O(1). Falls back to direct evaluation beyond the table.
    #[inline]
    pub fn share(&self, task: TaskId, n: u32) -> f64 {
        match self.share.row(task.index()).get(n as usize) {
            Some(&s) => s,
            None => self.share_cold(task, n),
        }
    }

    #[cold]
    fn share_cold(&self, task: TaskId, n: u32) -> f64 {
        // Mirrors Task::share exactly (n > 0 here: 0 is always in the table).
        let (a, mu) = self.params[task.index()];
        (a + mu * f64::from(n).ln()) / f64::from(n)
    }

    /// `Σ_{q=1}^{n} w_k(q)/q`, O(1). Bit-identical to
    /// [`crate::Task::potential_term`] within the table range.
    #[inline]
    pub fn potential_term(&self, task: TaskId, n: u32) -> f64 {
        match self.prefix.row(task.index()).get(n as usize) {
            Some(&p) => p,
            None => self.potential_term_cold(task, n),
        }
    }

    #[cold]
    fn potential_term_cold(&self, task: TaskId, n: u32) -> f64 {
        let table = self.prefix.row(task.index());
        let mut acc = table[table.len() - 1];
        for q in table.len() as u32..=n {
            acc += self.share_cold(task, q);
        }
        acc
    }

    /// Largest tabulated participant count of `task`.
    pub fn capacity(&self, task: TaskId) -> u32 {
        (self.share.row_len(task.index()) - 1) as u32
    }
}

/// How many users have at least one recommended route covering each task —
/// the row capacity of both [`ShareTables`] and the inverted index.
fn coverage_capacity(game: &Game) -> Vec<u32> {
    let mut cap = vec![0u32; game.task_count()];
    let mut seen: Vec<TaskId> = Vec::new();
    for user in game.users() {
        seen.clear();
        seen.extend(user.routes.iter().flat_map(|r| r.tasks.iter().copied()));
        seen.sort_unstable();
        seen.dedup();
        for &task in &seen {
            cap[task.index()] += 1;
        }
    }
    cap
}

/// Neumaier-compensated running sum: accumulates per-move deltas with a
/// correction term so thousands of increments stay within `1e-9` of a fresh
/// recomputation.
#[derive(Debug, Clone, Copy, Default)]
struct CompensatedSum {
    sum: f64,
    compensation: f64,
}

impl CompensatedSum {
    fn new(value: f64) -> Self {
        Self {
            sum: value,
            compensation: 0.0,
        }
    }

    #[inline]
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        self.compensation += if self.sum.abs() >= x.abs() {
            (self.sum - t) + x
        } else {
            (x - t) + self.sum
        };
        self.sum = t;
    }

    #[inline]
    fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

/// Incremental solver state for one game: profile, cached prices, inverted
/// index, running potential/total-profit and the dirty set — all hot tables
/// in contiguous struct-of-arrays slabs (see the module docs).
///
/// Construction is `O(Σ_k cap_k + Σ_i R_i)`; [`apply_move`](Self::apply_move)
/// is `O(|L_old| + |L_new|)` plus the size of the dirty set it marks;
/// [`potential`](Self::potential) and [`total_profit`](Self::total_profit)
/// are O(1).
///
/// # Dynamic arrivals and departures
///
/// [`add_user`](Self::add_user) and [`remove_user`](Self::remove_user) grow
/// and shrink the *live* user set in `O(|L_{s_i}| + R_i + |dirtied|)` without
/// rebuilding any cache. Ids are append-only: a departed user's id is never
/// reused, its slot becomes an inactive tombstone (skipped by
/// [`take_dirty`](Self::take_dirty), [`active_users`](Self::active_users) and
/// the fresh ϕ/total recomputations), so per-user caches stay index-stable.
/// Slab rows that outgrow their capacity (a task's share table or inverted
/// index absorbing arrivals) relocate within their slab, leaving holes that
/// are compacted away whenever a fresh engine is built from
/// [`materialize`](Self::materialize). The first mutation on a borrowed
/// engine clones the game once (copy-on-write); [`Engine::new_owned`] starts
/// owned and never clones.
#[derive(Debug, Clone)]
pub struct Engine<'g> {
    game: Cow<'g, Game>,
    tables: ShareTables,
    /// Row per user: `β_i·d(r) + γ_i·b(r)` per route (the Eq. 2 cost term).
    route_cost: SegmentedSlab<f64>,
    /// Row per user: `(β_i/α_i)·d(r) + (γ_i/α_i)·b(r)` per route (the Eq. 8
    /// cost term).
    phi_route_cost: SegmentedSlab<f64>,
    /// Row per flat route index (`route_base[user] + route`): the route's
    /// task list, flattened out of the `Game` object graph.
    route_tasks: SegmentedSlab<TaskId>,
    /// `route_base[i]` — flat route index of user `i`'s route 0;
    /// `route_base[user_count]` is the total-route sentinel.
    route_base: Vec<u32>,
    /// Per-user profit weight `α_i`.
    alpha: Vec<f64>,
    /// CSR inverted index: row per task, the users with at least one
    /// recommended route covering it, sorted by id. Departed users are *not*
    /// removed (the active mask filters them).
    task_users: SegmentedSlab<UserId>,
    profile: Profile,
    /// `Σ α_i` over the current participants of each task.
    alpha_sum: Vec<f64>,
    phi: CompensatedSum,
    total: CompensatedSum,
    dirty_flag: Vec<bool>,
    dirty: Vec<UserId>,
    /// `active[i]` — user `i` is on the platform (not a departed tombstone).
    active: Vec<bool>,
    n_active: usize,
    /// Observability handle; disabled by default ([`Engine::set_obs`]).
    /// Disabled, every emission is a single `None` branch — the event
    /// payloads are built inside closures that never run.
    obs: Obs,
}

impl<'g> Engine<'g> {
    /// Builds the engine around `profile`. Every user starts dirty.
    pub fn new(game: &'g Game, profile: Profile) -> Self {
        Self::build(Cow::Borrowed(game), profile)
    }

    fn build(game: Cow<'g, Game>, profile: Profile) -> Self {
        let n_users = game.user_count();
        let n_tasks = game.task_count();
        let total_routes: usize = game.users().iter().map(|u| u.routes.len()).sum();
        let total_route_tasks: usize = game
            .users()
            .iter()
            .flat_map(|u| &u.routes)
            .map(|r| r.tasks.len())
            .sum();
        let mut cost_data: Vec<f64> = Vec::with_capacity(total_routes);
        let mut phi_cost_data: Vec<f64> = Vec::with_capacity(total_routes);
        let mut cost_lens: Vec<usize> = Vec::with_capacity(n_users);
        let mut route_tasks_data: Vec<TaskId> = Vec::with_capacity(total_route_tasks);
        let mut route_tasks_lens: Vec<usize> = Vec::with_capacity(total_routes);
        let mut route_base = Vec::with_capacity(n_users + 1);
        let mut alpha = Vec::with_capacity(n_users);
        let mut alpha_sum = vec![0.0; n_tasks];
        // One coverage pass serves three consumers: the per-task capacities
        // (ShareTables + CSR row lengths), and the flattened per-user
        // covered-task lists the CSR fill walks. Dedup runs off a per-task
        // epoch stamp (stamp[t] == user marker ⇔ already counted for this
        // user) — no per-user sort; list order within a user is free, and
        // the CSR rows still come out sorted because users are visited in
        // ascending id order.
        let mut coverage = vec![0u32; n_tasks];
        let mut stamp = vec![u32::MAX; n_tasks];
        let mut user_cover: Vec<TaskId> = Vec::with_capacity(total_route_tasks);
        let mut user_cover_off: Vec<usize> = Vec::with_capacity(n_users + 1);
        user_cover_off.push(0);
        route_base.push(0u32);
        for (mark, user) in game.users().iter().enumerate() {
            let ratio_beta = user.prefs.beta / user.prefs.alpha;
            let ratio_gamma = user.prefs.gamma / user.prefs.alpha;
            let chosen = profile.choice(user.id).index();
            for (r, route) in user.routes.iter().enumerate() {
                cost_data.push(game.user_route_cost(user.id, route));
                phi_cost_data.push(
                    ratio_beta * game.detour_cost(route)
                        + ratio_gamma * game.congestion_cost(route),
                );
                route_tasks_data.extend_from_slice(&route.tasks);
                route_tasks_lens.push(route.tasks.len());
                for &task in &route.tasks {
                    if stamp[task.index()] != mark as u32 {
                        stamp[task.index()] = mark as u32;
                        coverage[task.index()] += 1;
                        user_cover.push(task);
                    }
                    if r == chosen {
                        alpha_sum[task.index()] += user.prefs.alpha;
                    }
                }
            }
            user_cover_off.push(user_cover.len());
            cost_lens.push(user.routes.len());
            route_base.push(*route_base.last().expect("seeded") + user.routes.len() as u32);
            alpha.push(user.prefs.alpha);
        }
        let route_cost = SegmentedSlab::from_filled(cost_data, &cost_lens);
        let phi_route_cost = SegmentedSlab::from_filled(phi_cost_data, &cost_lens);
        let route_tasks = SegmentedSlab::from_filled(route_tasks_data, &route_tasks_lens);
        let tables = ShareTables::with_coverage(&game, &coverage);
        // CSR inverted index: offsets from the coverage counts, fill with a
        // per-row cursor. Users are visited in ascending id order, so each
        // row comes out sorted.
        let total_coverage: usize = coverage.iter().map(|&c| c as usize).sum();
        let mut index_data = vec![UserId(0); total_coverage];
        let mut cursor: Vec<usize> = Vec::with_capacity(n_tasks);
        let mut off = 0usize;
        for &c in &coverage {
            cursor.push(off);
            off += c as usize;
        }
        for (i, window) in user_cover_off.windows(2).enumerate() {
            for &task in &user_cover[window[0]..window[1]] {
                index_data[cursor[task.index()]] = UserId::from_index(i);
                cursor[task.index()] += 1;
            }
        }
        let row_lens: Vec<usize> = coverage.iter().map(|&c| c as usize).collect();
        let task_users = SegmentedSlab::from_filled(index_data, &row_lens);
        let mut engine = Self {
            game,
            tables,
            route_cost,
            phi_route_cost,
            route_tasks,
            route_base,
            alpha,
            task_users,
            profile,
            alpha_sum,
            phi: CompensatedSum::default(),
            total: CompensatedSum::default(),
            dirty_flag: vec![true; n_users],
            dirty: (0..n_users).map(UserId::from_index).collect(),
            active: vec![true; n_users],
            n_active: n_users,
            obs: Obs::disabled(),
        };
        engine.phi = CompensatedSum::new(engine.potential_fresh());
        engine.total = CompensatedSum::new(engine.total_profit_fresh());
        engine
    }

    /// Builds an engine that **owns** its game — the natural form for a live
    /// platform whose user set churns (no copy-on-write clone on the first
    /// [`add_user`](Self::add_user)).
    pub fn new_owned(game: Game, profile: Profile) -> Engine<'static> {
        Engine::build(Cow::Owned(game), profile)
    }

    /// Attaches an observability handle and emits the
    /// [`Event::EngineInit`] anchor (current ϕ / total profit), from which
    /// `vcs_obs::reconstruct_phi` replays the trajectory of the
    /// per-commit events. Pass [`Obs::disabled`] to detach.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        self.obs.emit(|| Event::EngineInit {
            users: self.n_active as u32,
            tasks: self.game.task_count() as u32,
            phi: self.phi.value(),
            total_profit: self.total.value(),
        });
    }

    /// The attached observability handle (disabled unless
    /// [`set_obs`](Self::set_obs) was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The game this engine prices (including departed tombstone users; see
    /// [`Engine::active_users`]).
    pub fn game(&self) -> &Game {
        &self.game
    }

    /// The current strategy profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Consumes the engine, returning the final profile.
    pub fn into_profile(self) -> Profile {
        self.profile
    }

    /// The precomputed share tables.
    pub fn tables(&self) -> &ShareTables {
        &self.tables
    }

    /// The cached profit weight `α_i` of `user` (slab-resident; identical
    /// bits to `game.users()[i].prefs.alpha`).
    #[inline]
    pub fn alpha_of(&self, user: UserId) -> f64 {
        self.alpha[user.index()]
    }

    /// The task list of `user`'s route `route`, read from the flattened
    /// route-task slab.
    #[inline]
    pub fn route_task_list(&self, user: UserId, route: RouteId) -> &[TaskId] {
        self.route_tasks
            .row(self.route_base[user.index()] as usize + route.index())
    }

    /// The incrementally maintained potential `ϕ(s)`, O(1).
    pub fn potential(&self) -> f64 {
        self.phi.value()
    }

    /// The incrementally maintained total profit `Σ_i P_i(s)`, O(1).
    pub fn total_profit(&self) -> f64 {
        self.total.value()
    }

    /// Recomputes `ϕ(s)` from the tables over the active users
    /// (construction / diagnostics).
    pub fn potential_fresh(&self) -> f64 {
        let mut phi = 0.0;
        for task in self.game.tasks() {
            phi += self
                .tables
                .potential_term(task.id, self.profile.participants(task.id));
        }
        for i in 0..self.game.user_count() {
            if self.active[i] {
                let user = UserId::from_index(i);
                phi -= self.phi_route_cost.row(i)[self.profile.choice(user).index()];
            }
        }
        phi
    }

    /// Recomputes `Σ_i P_i(s)` from the tables over the active users
    /// (construction / diagnostics).
    pub fn total_profit_fresh(&self) -> f64 {
        (0..self.game.user_count())
            .filter(|&i| self.active[i])
            .map(|i| self.profit(UserId::from_index(i)))
            .sum()
    }

    /// Users whose routes cover `task` (the CSR inverted index), sorted by
    /// id.
    pub fn users_covering(&self, task: TaskId) -> &[UserId] {
        self.task_users.row(task.index())
    }

    /// Whether `user`'s cached best response may be stale.
    pub fn is_dirty(&self, user: UserId) -> bool {
        self.dirty_flag[user.index()]
    }

    /// Drains the dirty set, returning the **active** users (sorted by id)
    /// whose best responses must be re-evaluated since the last drain.
    /// Departed users are dropped silently.
    pub fn take_dirty(&mut self) -> Vec<UserId> {
        let mut drained = Vec::new();
        self.take_dirty_into(&mut drained);
        drained
    }

    /// [`take_dirty`](Self::take_dirty) writing into `out`: the buffers are
    /// swapped, so a caller draining once per slot recycles both allocations
    /// instead of re-growing a fresh `Vec` from empty every slot.
    pub fn take_dirty_into(&mut self, out: &mut Vec<UserId>) {
        out.clear();
        std::mem::swap(&mut self.dirty, out);
        for &user in out.iter() {
            self.dirty_flag[user.index()] = false;
        }
        out.retain(|&user| self.active[user.index()]);
        out.sort_unstable();
    }

    /// Switches `user` to `new_route`: updates counts, `α`-sums, `ϕ`, total
    /// profit and the dirty set in `O(|L_old| + |L_new| + |dirtied|)`.
    /// Returns the previous route. Switching to the current route is a no-op.
    pub fn apply_move(&mut self, user: UserId, new_route: RouteId) -> RouteId {
        self.apply_move_impl(user, new_route, true)
    }

    /// Applies a move that was *decided elsewhere* — by another engine
    /// holding a replica of `user` in a sharded deployment. Bookkeeping is
    /// identical to [`apply_move`](Self::apply_move) (counts, `α`-sums,
    /// running `ϕ`/total, dirty marking of every user covering an affected
    /// task), but **no `MoveCommitted` event is emitted**: the move was
    /// committed and recorded at its home engine, and this engine's ϕ-delta
    /// for it is only meaningful for the tasks this engine can see. The
    /// sharded runtime records the replication as a stamped `FrameReceived`
    /// instead, keeping watchdogs and post-mortem traces attached to a
    /// replica free of double-counted or locally-skewed move telemetry.
    pub fn apply_remote_move(&mut self, user: UserId, new_route: RouteId) -> RouteId {
        self.apply_move_impl(user, new_route, false)
    }

    fn apply_move_impl(&mut self, user: UserId, new_route: RouteId, emit: bool) -> RouteId {
        let old_route = self.profile.choice(user);
        if old_route == new_route {
            return old_route;
        }
        let Self {
            tables,
            route_cost,
            phi_route_cost,
            route_tasks,
            route_base,
            alpha: alpha_cache,
            task_users,
            profile,
            alpha_sum,
            phi,
            total,
            dirty_flag,
            dirty,
            active,
            obs,
            ..
        } = self;
        debug_assert!(active[user.index()], "moving a departed user");
        let i = user.index();
        let alpha = alpha_cache[i];
        let base = route_base[i] as usize;
        let route_tasks = &*route_tasks;
        let task_users = &*task_users;
        let old = route_tasks.row(base + old_route.index());
        let new = route_tasks.row(base + new_route.index());
        let mut phi_delta = 0.0;
        let mut profit_delta = 0.0;
        // Tasks the user leaves: counts drop n → n−1 (n ≥ 1: the user is a
        // current participant).
        for &task in old {
            if !new.contains(&task) {
                let k = task.index();
                let n = profile.participants(task);
                let a_sum = alpha_sum[k];
                phi_delta -= tables.share(task, n);
                profit_delta +=
                    tables.share(task, n - 1) * (a_sum - alpha) - tables.share(task, n) * a_sum;
                alpha_sum[k] = a_sum - alpha;
                for &other in task_users.row(k) {
                    mark(dirty_flag, dirty, other);
                }
            }
        }
        // Tasks the user joins: counts rise n → n+1.
        for &task in new {
            if !old.contains(&task) {
                let k = task.index();
                let n = profile.participants(task);
                let a_sum = alpha_sum[k];
                phi_delta += tables.share(task, n + 1);
                profit_delta +=
                    tables.share(task, n + 1) * (a_sum + alpha) - tables.share(task, n) * a_sum;
                alpha_sum[k] = a_sum + alpha;
                for &other in task_users.row(k) {
                    mark(dirty_flag, dirty, other);
                }
            }
        }
        phi_delta -=
            phi_route_cost.row(i)[new_route.index()] - phi_route_cost.row(i)[old_route.index()];
        profit_delta -= route_cost.row(i)[new_route.index()] - route_cost.row(i)[old_route.index()];
        phi.add(phi_delta);
        total.add(profit_delta);
        profile.apply_move_tasks(user, new_route, old, new);
        mark(dirty_flag, dirty, user);
        if !emit {
            return old_route;
        }
        obs.emit(|| Event::MoveCommitted {
            user: user.index() as u32,
            from_route: old_route.index() as u32,
            to_route: new_route.index() as u32,
            phi_delta,
            // The mover's own gain: exactly `α_i·Δϕ` by Eq. 11.
            profit_delta: alpha * phi_delta,
            phi: phi.value(),
            total_profit: total.value(),
        });
        old_route
    }

    /// Applies a **conflict-free** batch of moves (pairwise-disjoint affected
    /// task sets `B_i = L_{s_i} ∪ L_{s_i'}` — exactly what the PUU scheduler
    /// of Alg. 3 / Theorem 3 grants) in batch order, one
    /// [`apply_move`](Self::apply_move) each, and returns the number of
    /// effective (non-no-op) moves. The conflict-free contract is checked in
    /// debug builds.
    pub fn apply_batch(&mut self, moves: &[(UserId, RouteId)]) -> usize {
        debug_assert!(
            batch_conflict_free(self, moves),
            "apply_batch requires pairwise-disjoint affected task sets"
        );
        moves
            .iter()
            .filter(|&&(user, route)| self.apply_move(user, route) != route)
            .count()
    }

    /// Whether `user` is currently on the platform (exists and has not left).
    #[inline]
    pub fn is_active(&self, user: UserId) -> bool {
        self.active.get(user.index()).copied().unwrap_or(false)
    }

    /// Number of users currently on the platform.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.n_active
    }

    /// The active users in id order.
    pub fn active_users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.active
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| UserId::from_index(i))
    }

    /// Admits a new user onto the live platform with `initial` as its first
    /// route choice (Join event).
    ///
    /// Validates the user against the game's task set and weight bounds (see
    /// [`Game::push_user`]), then extends every slab incrementally: share
    /// tables and inverted-index rows grow one slot per distinct covered
    /// task (relocating within their slab when full), the per-user cost and
    /// route-task slabs gain exact-sized rows, and ϕ/total-profit absorb the
    /// activation delta — `O(R_i·T̄ + |dirtied|)` amortized, no rebuild. The
    /// new user and everyone sharing a task with its initial route are
    /// marked dirty.
    ///
    /// Ids are append-only; on a borrowed engine the first call clones the
    /// game (copy-on-write).
    pub fn add_user(
        &mut self,
        prefs: UserPrefs,
        routes: Vec<Route>,
        initial: RouteId,
    ) -> Result<UserId, GameError> {
        // Validate the initial choice *before* mutating the game.
        let next = UserId::from_index(self.game.user_count());
        if routes.is_empty() {
            return Err(GameError::EmptyRouteSet { user: next });
        }
        if initial.index() >= routes.len() {
            return Err(GameError::InvalidProfile {
                detail: format!(
                    "joining user {next} selects route {initial} but has only {} routes",
                    routes.len()
                ),
            });
        }
        let user = self.game.to_mut().push_user(prefs, routes)?;
        debug_assert_eq!(user, next);
        let Self {
            game,
            tables,
            route_cost,
            phi_route_cost,
            route_tasks,
            route_base,
            alpha: alpha_cache,
            task_users,
            profile,
            alpha_sum,
            phi,
            total,
            dirty_flag,
            dirty,
            active,
            n_active,
            obs,
        } = self;
        let game: &Game = game;
        let u = &game.users()[user.index()];
        // Per-route cost caches (same expressions as construction).
        let ratio_beta = u.prefs.beta / u.prefs.alpha;
        let ratio_gamma = u.prefs.gamma / u.prefs.alpha;
        let mut costs = Vec::with_capacity(u.routes.len());
        let mut phi_costs = Vec::with_capacity(u.routes.len());
        for route in &u.routes {
            costs.push(game.user_route_cost(user, route));
            phi_costs.push(
                ratio_beta * game.detour_cost(route) + ratio_gamma * game.congestion_cost(route),
            );
            route_tasks.push_row(&route.tasks);
        }
        route_cost.push_row(&costs);
        phi_route_cost.push_row(&phi_costs);
        let base = *route_base.last().expect("seeded at construction");
        route_base.push(base + u.routes.len() as u32);
        alpha_cache.push(u.prefs.alpha);
        // Share-table capacity and inverted index: one slot per distinct
        // covered task; pushing the max id keeps each CSR row sorted.
        let mut covered: Vec<TaskId> = u
            .routes
            .iter()
            .flat_map(|r| r.tasks.iter().copied())
            .collect();
        covered.sort_unstable();
        covered.dedup();
        for &task in &covered {
            tables.extend_for(&game.tasks()[task.index()]);
            task_users.push_to_row(task.index(), user);
        }
        profile.push_choice(initial);
        dirty_flag.push(false);
        active.push(true);
        *n_active += 1;
        // Activation: the user joins every task of its initial route
        // (counts n → n+1), mirroring the join half of `apply_move`.
        let alpha = u.prefs.alpha;
        let route_tasks = &*route_tasks;
        let task_users = &*task_users;
        let route_row = route_tasks.row(base as usize + initial.index());
        let mut phi_delta = 0.0;
        let mut profit_delta = 0.0;
        for &task in route_row {
            let k = task.index();
            let n = profile.participants(task);
            let a_sum = alpha_sum[k];
            phi_delta += tables.share(task, n + 1);
            profit_delta +=
                tables.share(task, n + 1) * (a_sum + alpha) - tables.share(task, n) * a_sum;
            alpha_sum[k] = a_sum + alpha;
            for &other in task_users.row(k) {
                mark(dirty_flag, dirty, other);
            }
        }
        phi_delta -= phi_route_cost.row(user.index())[initial.index()];
        profit_delta -= route_cost.row(user.index())[initial.index()];
        phi.add(phi_delta);
        total.add(profit_delta);
        profile.add_route_counts(route_row);
        mark(dirty_flag, dirty, user);
        obs.emit(|| Event::UserJoined {
            user: user.index() as u32,
            phi: phi.value(),
            total_profit: total.value(),
        });
        Ok(user)
    }

    /// Removes `user` from the live platform (Leave event), returning the
    /// route it was on.
    ///
    /// The user's participation is unwound from counts, `α`-sums, ϕ and total
    /// profit (the leave half of [`apply_move`](Self::apply_move)), everyone
    /// sharing a task with its final route is marked dirty, and the slot
    /// becomes an inactive tombstone — `O(|L_{s_i}| + |dirtied|)`, no cache
    /// shrinking, ids of the remaining users unchanged.
    ///
    /// # Errors
    ///
    /// [`GameError::UnknownUser`] if `user` does not exist or already left.
    pub fn remove_user(&mut self, user: UserId) -> Result<RouteId, GameError> {
        if user.index() >= self.game.user_count() || !self.active[user.index()] {
            return Err(GameError::UnknownUser { user });
        }
        let Self {
            tables,
            route_cost,
            phi_route_cost,
            route_tasks,
            route_base,
            alpha: alpha_cache,
            task_users,
            profile,
            alpha_sum,
            phi,
            total,
            dirty_flag,
            dirty,
            active,
            n_active,
            obs,
            ..
        } = self;
        let i = user.index();
        let alpha = alpha_cache[i];
        let choice = profile.choice(user);
        let route_tasks = &*route_tasks;
        let task_users = &*task_users;
        let route_row = route_tasks.row(route_base[i] as usize + choice.index());
        let mut phi_delta = 0.0;
        let mut profit_delta = 0.0;
        for &task in route_row {
            let k = task.index();
            let n = profile.participants(task);
            let a_sum = alpha_sum[k];
            phi_delta -= tables.share(task, n);
            profit_delta +=
                tables.share(task, n - 1) * (a_sum - alpha) - tables.share(task, n) * a_sum;
            alpha_sum[k] = a_sum - alpha;
            for &other in task_users.row(k) {
                mark(dirty_flag, dirty, other);
            }
        }
        phi_delta += phi_route_cost.row(i)[choice.index()];
        profit_delta += route_cost.row(i)[choice.index()];
        phi.add(phi_delta);
        total.add(profit_delta);
        profile.remove_route_counts(route_row);
        active[i] = false;
        *n_active -= 1;
        obs.emit(|| Event::UserLeft {
            user: user.index() as u32,
            phi: phi.value(),
            total_profit: total.value(),
        });
        Ok(choice)
    }

    /// Densifies the live state into a standalone `(game, choices, id_map)`
    /// triple: tombstones dropped, the remaining users renumbered to dense
    /// ids in id order, `id_map[new] = old`. The returned choices form a
    /// valid profile of the returned game — this is what a cold restart
    /// (`Engine::new` from scratch) would solve, and what the churn property
    /// tests compare against. Rebuilding an engine from the result also
    /// compacts every slab hole left behind by churn growth.
    pub fn materialize(&self) -> (Game, Vec<RouteId>, Vec<UserId>) {
        let mut users = Vec::with_capacity(self.n_active);
        let mut choices = Vec::with_capacity(self.n_active);
        let mut id_map = Vec::with_capacity(self.n_active);
        for u in self.game.users() {
            if !self.active[u.id.index()] {
                continue;
            }
            let mut cloned = u.clone();
            cloned.id = UserId::from_index(users.len());
            id_map.push(u.id);
            choices.push(self.profile.choice(u.id));
            users.push(cloned);
        }
        let game = Game::new(
            self.game.tasks().to_vec(),
            users,
            self.game.params(),
            self.game.bounds(),
        )
        .expect("materialized game re-validates: every user was validated on entry");
        (game, choices, id_map)
    }

    /// Re-executes a recorded move sequence (e.g. the `MoveCommitted` events
    /// of a trace) against this engine, returning the `(ϕ, total profit)`
    /// trajectory *after* each move.
    ///
    /// Because [`apply_move`](Self::apply_move) is deterministic and the
    /// compensated accumulators replay the exact same additions, an engine
    /// built from the same game and initial profile reproduces the recorded
    /// trajectory bit-for-bit — this is the substrate of the `replay_debug`
    /// divergence search in `vcs-bench`.
    pub fn replay_moves(&mut self, moves: &[(UserId, RouteId)]) -> Vec<(f64, f64)> {
        moves
            .iter()
            .map(|&(user, route)| {
                self.apply_move(user, route);
                (self.potential(), self.total_profit())
            })
            .collect()
    }

    /// Best route set `Δ_i(t)` of `user`, priced from the cached tables.
    /// Identical semantics (and bit-identical results) to
    /// [`crate::response::best_route_set`].
    ///
    /// This is the hot-path specialization of the generic scan: the current
    /// route's task row, the cost row and the participant-count slice are
    /// hoisted out of the per-candidate loop (the [`ProfitView`] methods
    /// re-derive them per call), while the arithmetic — per-task share
    /// summation order, `α_i·reward − cost` — and the EPSILON tie rules are
    /// replicated exactly, so results match [`best_route_set_in`] bit for
    /// bit (test-enforced).
    pub fn best_route_set(&self, user: UserId) -> BestResponse {
        let mut out = BestResponse {
            best_routes: Vec::new(),
            gain: 0.0,
            best_profit: 0.0,
        };
        self.best_route_set_into(user, &mut out);
        out
    }

    /// [`best_route_set`](Self::best_route_set) writing into `out`, reusing
    /// its `best_routes` allocation — the form the dynamics' per-slot dirty
    /// refresh uses so a response cache entry is overwritten without a heap
    /// round-trip.
    pub fn best_route_set_into(&self, user: UserId, out: &mut BestResponse) {
        let i = user.index();
        let base = self.route_base[i] as usize;
        let n_routes = (self.route_base[i + 1] - self.route_base[i]) as usize;
        let choice = self.profile.choice(user).index();
        let costs = self.route_cost.row(i);
        let counts = self.profile.participant_counts();
        let alpha = self.alpha[i];
        let cur_row = self.route_tasks.row(base + choice);
        let mut reward = 0.0;
        for &task in cur_row {
            reward += self.tables.share(task, counts[task.index()]);
        }
        let current_profit = alpha * reward - costs[choice];
        let mut stack_buf = [0.0f64; 16];
        let mut heap_buf: Vec<f64>;
        let profits: &mut [f64] = if n_routes <= 16 {
            &mut stack_buf[..n_routes]
        } else {
            heap_buf = vec![0.0; n_routes];
            &mut heap_buf
        };
        let mut best_profit = f64::NEG_INFINITY;
        for (r, slot) in profits.iter_mut().enumerate() {
            let p = if r == choice {
                current_profit
            } else {
                let cand = self.route_tasks.row(base + r);
                let mut reward = 0.0;
                for &task in cand {
                    let n = counts[task.index()];
                    let n_after = if cur_row.contains(&task) { n } else { n + 1 };
                    reward += self.tables.share(task, n_after);
                }
                alpha * reward - costs[r]
            };
            *slot = p;
            if p > best_profit {
                best_profit = p;
            }
        }
        out.best_routes.clear();
        if best_profit <= current_profit + EPSILON {
            out.gain = 0.0;
            out.best_profit = current_profit;
            return;
        }
        out.best_routes.extend(
            profits
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p >= best_profit - EPSILON)
                .map(|(r, _)| RouteId::from_index(r)),
        );
        out.gain = best_profit - current_profit;
        out.best_profit = best_profit;
    }

    /// Strictly improving routes of `user` with their gains; the cached-table
    /// counterpart of [`crate::response::better_routes`].
    pub fn better_routes(&self, user: UserId) -> Vec<(RouteId, f64)> {
        better_routes_in(self, user)
    }
}

/// Debug-build check that a batch's affected task sets are pairwise disjoint
/// and no user appears twice (the [`Engine::apply_batch`] contract). No-op
/// moves (user already on the route) read and write nothing, so they are
/// exempt from the disjointness requirement.
fn batch_conflict_free(engine: &Engine<'_>, moves: &[(UserId, RouteId)]) -> bool {
    let mut seen_tasks: Vec<TaskId> = Vec::new();
    let mut seen_users: Vec<UserId> = Vec::new();
    for &(user, route) in moves {
        if seen_users.contains(&user) {
            return false;
        }
        seen_users.push(user);
        let current = engine.profile.choice(user);
        if current == route {
            continue;
        }
        let base = engine.route_base[user.index()] as usize;
        for row in [current.index(), route.index()] {
            for &task in engine.route_tasks.row(base + row) {
                if seen_tasks.contains(&task) {
                    return false;
                }
            }
        }
        let mut mine: Vec<TaskId> = engine.route_tasks.row(base + current.index()).to_vec();
        mine.extend_from_slice(engine.route_tasks.row(base + route.index()));
        mine.sort_unstable();
        mine.dedup();
        seen_tasks.extend(mine);
    }
    true
}

/// Marks `user` dirty. Free function over the split-off dirty fields so the
/// mutating methods can hold simultaneous borrows of the other engine parts.
#[inline]
fn mark(dirty_flag: &mut [bool], dirty: &mut Vec<UserId>, user: UserId) {
    if !dirty_flag[user.index()] {
        dirty_flag[user.index()] = true;
        dirty.push(user);
    }
}

/// Prices routes exactly like [`Profile::profit`] /
/// [`Profile::profit_if_switched`], with shares and costs read from the
/// slabs: same values, same summation order, bit-identical results.
impl ProfitView for Engine<'_> {
    fn route_count(&self, user: UserId) -> usize {
        let i = user.index();
        (self.route_base[i + 1] - self.route_base[i]) as usize
    }

    fn choice(&self, user: UserId) -> RouteId {
        self.profile.choice(user)
    }

    fn profit(&self, user: UserId) -> f64 {
        let i = user.index();
        let choice = self.profile.choice(user);
        let row = self
            .route_tasks
            .row(self.route_base[i] as usize + choice.index());
        let mut reward = 0.0;
        for &task in row {
            reward += self.tables.share(task, self.profile.participants(task));
        }
        self.alpha[i] * reward - self.route_cost.row(i)[choice.index()]
    }

    fn profit_if_switched(&self, user: UserId, candidate: RouteId) -> f64 {
        let i = user.index();
        let base = self.route_base[i] as usize;
        let current = self
            .route_tasks
            .row(base + self.profile.choice(user).index());
        let cand = self.route_tasks.row(base + candidate.index());
        let mut reward = 0.0;
        for &task in cand {
            let n = self.profile.participants(task);
            let n_after = if current.contains(&task) { n } else { n + 1 };
            reward += self.tables.share(task, n_after);
        }
        self.alpha[i] * reward - self.route_cost.row(i)[candidate.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::PlatformParams;
    use crate::potential::potential;
    use crate::response::{best_route_set, better_routes};
    use crate::route::Route;
    use crate::task::Task;
    use crate::user::{User, UserPrefs};

    /// Three users over three tasks with overlapping coverage.
    fn game() -> Game {
        let tasks = vec![
            Task::new(TaskId(0), 11.0, 0.3),
            Task::new(TaskId(1), 15.0, 0.9),
            Task::new(TaskId(2), 18.0, 0.0),
        ];
        let users = vec![
            User::new(
                UserId(0),
                UserPrefs::new(0.4, 0.6, 0.2),
                vec![
                    Route::new(RouteId(0), vec![TaskId(0), TaskId(1)], 0.0, 2.0),
                    Route::new(RouteId(1), vec![TaskId(2)], 4.0, 0.5),
                ],
            ),
            User::new(
                UserId(1),
                UserPrefs::new(0.7, 0.3, 0.5),
                vec![
                    Route::new(RouteId(0), vec![TaskId(1), TaskId(2)], 1.0, 1.0),
                    Route::new(RouteId(1), vec![TaskId(0)], 0.0, 3.0),
                ],
            ),
            User::new(
                UserId(2),
                UserPrefs::new(0.2, 0.8, 0.8),
                vec![
                    Route::new(RouteId(0), vec![TaskId(1)], 2.0, 0.0),
                    Route::new(RouteId(1), vec![], 0.0, 0.0),
                ],
            ),
        ];
        Game::with_paper_bounds(tasks, users, PlatformParams::new(0.3, 0.6)).unwrap()
    }

    #[test]
    fn share_tables_match_task_methods() {
        let g = game();
        let tables = ShareTables::new(&g);
        for task in g.tasks() {
            let cap = tables.capacity(task.id);
            for n in 0..=cap + 3 {
                assert_eq!(
                    tables.share(task.id, n),
                    task.share(n),
                    "share({}, {n})",
                    task.id
                );
                assert!(
                    (tables.potential_term(task.id, n) - task.potential_term(n)).abs() < 1e-12,
                    "potential_term({}, {n})",
                    task.id
                );
            }
            // Within the table range the prefix is bit-identical.
            for n in 0..=cap {
                assert_eq!(tables.potential_term(task.id, n), task.potential_term(n));
            }
        }
    }

    #[test]
    fn engine_profits_bit_identical_to_profile() {
        let g = game();
        let profile = Profile::all_first(&g);
        let engine = Engine::new(&g, profile.clone());
        for i in 0..g.user_count() {
            let user = UserId::from_index(i);
            assert_eq!(engine.profit(user), profile.profit(&g, user));
            for r in 0..g.users()[i].routes.len() {
                let route = RouteId::from_index(r);
                assert_eq!(
                    engine.profit_if_switched(user, route),
                    profile.profit_if_switched(&g, user, route)
                );
            }
            assert_eq!(
                engine.best_route_set(user),
                best_route_set(&g, &profile, user)
            );
            assert_eq!(
                engine.better_routes(user),
                better_routes(&g, &profile, user)
            );
        }
    }

    #[test]
    fn apply_remote_move_matches_apply_move_silently() {
        use crate::ids::UserId;
        use vcs_obs::{Obs, RingBufferSubscriber};
        let g = game();
        let mut local = Engine::new(&g, Profile::all_first(&g));
        let mut replica = Engine::new(&g, Profile::all_first(&g));
        let ring = std::sync::Arc::new(RingBufferSubscriber::new(64));
        replica.set_obs(Obs::new(ring.clone()));
        // Same mechanical state transition on both engines...
        assert_eq!(
            local.apply_move(UserId(1), RouteId(1)),
            replica.apply_remote_move(UserId(1), RouteId(1))
        );
        assert_eq!(local.potential(), replica.potential(), "bit-identical ϕ");
        assert_eq!(local.total_profit(), replica.total_profit());
        assert_eq!(local.take_dirty(), replica.take_dirty(), "same dirtying");
        assert_eq!(
            local.profile().choices(),
            replica.profile().choices(),
            "same profile"
        );
        // ...but the replica emitted no MoveCommitted for it.
        assert!(
            ring.events()
                .iter()
                .all(|e| !matches!(e, Event::MoveCommitted { .. })),
            "remote application must not re-record the move"
        );
        // No-op remote moves are no-ops.
        let before = replica.potential();
        replica.apply_remote_move(UserId(1), RouteId(1));
        assert_eq!(replica.potential(), before);
    }

    #[test]
    fn slab_views_mirror_the_game_object_graph() {
        let g = game();
        let engine = Engine::new(&g, Profile::all_first(&g));
        for user in g.users() {
            assert_eq!(engine.alpha_of(user.id), user.prefs.alpha);
            assert_eq!(engine.route_count(user.id), user.routes.len());
            for route in &user.routes {
                assert_eq!(
                    engine.route_task_list(user.id, route.id),
                    route.tasks.as_slice()
                );
            }
        }
    }

    #[test]
    fn incremental_potential_tracks_full_recompute() {
        let g = game();
        let mut engine = Engine::new(&g, Profile::all_first(&g));
        let moves = [(0u32, 1u32), (1, 1), (2, 1), (0, 0), (1, 0), (2, 0), (0, 1)];
        for (u, r) in moves {
            engine.apply_move(UserId(u), RouteId(r));
            let fresh = potential(&g, engine.profile());
            assert!(
                (engine.potential() - fresh).abs() < 1e-9,
                "phi drifted: {} vs {fresh}",
                engine.potential()
            );
            let fresh_total = engine.profile().total_profit(&g);
            assert!(
                (engine.total_profit() - fresh_total).abs() < 1e-9,
                "total drifted: {} vs {fresh_total}",
                engine.total_profit()
            );
        }
    }

    #[test]
    fn dirty_set_covers_affected_users() {
        let g = game();
        let mut engine = Engine::new(&g, Profile::all_first(&g));
        // Initial drain: everyone.
        let initial = engine.take_dirty();
        assert_eq!(initial.len(), g.user_count());
        assert!(engine.take_dirty().is_empty());
        // User 2 leaves task 1 (covered by routes of users 0, 1, 2).
        engine.apply_move(UserId(2), RouteId(1));
        let dirty = engine.take_dirty();
        assert_eq!(dirty, vec![UserId(0), UserId(1), UserId(2)]);
        // No-op move dirties nothing.
        engine.apply_move(UserId(2), RouteId(1));
        assert!(engine.take_dirty().is_empty());
    }

    #[test]
    fn clean_users_keep_their_best_response() {
        // A game where user 1's tasks are disjoint from user 0's.
        let tasks = vec![
            Task::new(TaskId(0), 10.0, 0.0),
            Task::new(TaskId(1), 12.0, 0.0),
        ];
        let users = vec![
            User::new(
                UserId(0),
                UserPrefs::new(0.5, 0.5, 0.5),
                vec![
                    Route::new(RouteId(0), vec![TaskId(0)], 0.0, 0.0),
                    Route::new(RouteId(1), vec![], 1.0, 1.0),
                ],
            ),
            User::new(
                UserId(1),
                UserPrefs::new(0.5, 0.5, 0.5),
                vec![
                    Route::new(RouteId(0), vec![TaskId(1)], 0.0, 0.0),
                    Route::new(RouteId(1), vec![], 1.0, 1.0),
                ],
            ),
        ];
        let g = Game::with_paper_bounds(tasks, users, PlatformParams::new(0.5, 0.5)).unwrap();
        let mut engine = Engine::new(&g, Profile::all_first(&g));
        engine.take_dirty();
        let before = engine.best_route_set(UserId(1));
        engine.apply_move(UserId(0), RouteId(1));
        // User 1 covers neither of user 0's tasks: stays clean.
        assert_eq!(engine.take_dirty(), vec![UserId(0)]);
        assert_eq!(engine.best_route_set(UserId(1)), before);
    }

    #[test]
    fn inverted_index_sorted_per_task() {
        let g = game();
        let engine = Engine::new(&g, Profile::all_first(&g));
        // Task 1 is on routes of all three users; task 2 on users 0 and 1.
        assert_eq!(
            engine.users_covering(TaskId(1)),
            &[UserId(0), UserId(1), UserId(2)]
        );
        assert_eq!(engine.users_covering(TaskId(2)), &[UserId(0), UserId(1)]);
    }

    #[test]
    fn batch_apply_matches_sequential_moves_bitwise() {
        // Users 0 and 2 have disjoint affected sets once user 0 sits on
        // route 1 ({2}) and user 2 on route 1 ({}): batch = user 0 back to
        // {0,1}... that overlaps user 2's route 0 ({1}). Build a bespoke
        // game with clean separation instead.
        let tasks = vec![
            Task::new(TaskId(0), 10.0, 0.2),
            Task::new(TaskId(1), 12.0, 0.0),
            Task::new(TaskId(2), 14.0, 0.5),
            Task::new(TaskId(3), 16.0, 0.1),
        ];
        let users = vec![
            User::new(
                UserId(0),
                UserPrefs::new(0.5, 0.4, 0.3),
                vec![
                    Route::new(RouteId(0), vec![TaskId(0)], 0.0, 1.0),
                    Route::new(RouteId(1), vec![TaskId(1)], 1.0, 0.0),
                ],
            ),
            User::new(
                UserId(1),
                UserPrefs::new(0.6, 0.2, 0.7),
                vec![
                    Route::new(RouteId(0), vec![TaskId(2)], 0.5, 0.5),
                    Route::new(RouteId(1), vec![TaskId(3)], 0.0, 2.0),
                ],
            ),
        ];
        let g = Game::with_paper_bounds(tasks, users, PlatformParams::new(0.4, 0.4)).unwrap();
        let batch = [(UserId(0), RouteId(1)), (UserId(1), RouteId(1))];
        let mut sequential = Engine::new(&g, Profile::all_first(&g));
        for &(u, r) in &batch {
            sequential.apply_move(u, r);
        }
        let mut batched = Engine::new(&g, Profile::all_first(&g));
        assert_eq!(batched.apply_batch(&batch), 2);
        assert_eq!(
            batched.potential().to_bits(),
            sequential.potential().to_bits()
        );
        assert_eq!(
            batched.total_profit().to_bits(),
            sequential.total_profit().to_bits()
        );
        assert_eq!(batched.profile(), sequential.profile());
        assert_eq!(batched.take_dirty(), sequential.take_dirty());
    }

    #[test]
    fn batch_apply_skips_noop_moves() {
        let g = game();
        let mut engine = Engine::new(&g, Profile::all_first(&g));
        let before_phi = engine.potential();
        assert_eq!(engine.apply_batch(&[(UserId(2), RouteId(0))]), 0);
        assert_eq!(engine.potential(), before_phi);
    }

    /// Checks the live engine against a fresh engine on its materialized
    /// game: ϕ/total within 1e-9, counts exact, per-user profits identical.
    fn assert_matches_materialized(engine: &Engine<'_>) {
        let (game, choices, id_map) = engine.materialize();
        let fresh = Engine::new(&game, Profile::new(&game, choices));
        assert!(
            (engine.potential() - fresh.potential_fresh()).abs() < 1e-9,
            "phi {} vs fresh {}",
            engine.potential(),
            fresh.potential_fresh()
        );
        assert!(
            (engine.total_profit() - fresh.total_profit_fresh()).abs() < 1e-9,
            "total {} vs fresh {}",
            engine.total_profit(),
            fresh.total_profit_fresh()
        );
        for (new_idx, &old) in id_map.iter().enumerate() {
            let new = UserId::from_index(new_idx);
            assert_eq!(engine.profit(old), fresh.profit(new), "profit of {old}");
        }
        for task in game.tasks() {
            assert_eq!(
                engine.profile().participants(task.id),
                fresh.profile().participants(task.id),
                "count of {}",
                task.id
            );
        }
    }

    #[test]
    fn add_user_matches_fresh_engine() {
        let g = game();
        let mut engine = Engine::new(&g, Profile::all_first(&g));
        let joined = engine
            .add_user(
                UserPrefs::new(0.6, 0.4, 0.3),
                vec![
                    Route::new(RouteId(0), vec![TaskId(0), TaskId(2)], 0.5, 1.0),
                    Route::new(RouteId(1), vec![TaskId(1)], 2.0, 0.0),
                ],
                RouteId(0),
            )
            .unwrap();
        assert_eq!(joined, UserId(3));
        assert_eq!(engine.active_count(), 4);
        assert!(engine.is_active(joined));
        // The inverted index gained the user on its covered tasks, sorted.
        assert!(engine.users_covering(TaskId(0)).contains(&joined));
        assert_matches_materialized(&engine);
        // The join dirtied the arriving user and the task-0/2 sharers.
        let dirty = engine.take_dirty();
        assert!(dirty.contains(&joined));
        assert!(dirty.contains(&UserId(0)));
    }

    #[test]
    fn remove_user_matches_fresh_engine() {
        let g = game();
        let mut engine = Engine::new(&g, Profile::all_first(&g));
        engine.take_dirty();
        let choice = engine.remove_user(UserId(1)).unwrap();
        assert_eq!(choice, RouteId(0));
        assert_eq!(engine.active_count(), 2);
        assert!(!engine.is_active(UserId(1)));
        assert_eq!(
            engine.active_users().collect::<Vec<_>>(),
            vec![UserId(0), UserId(2)]
        );
        assert_matches_materialized(&engine);
        // Users sharing tasks 1/2 with the departed user's route are dirty;
        // the departed user itself is filtered out of the drain.
        let dirty = engine.take_dirty();
        assert_eq!(dirty, vec![UserId(0), UserId(2)]);
        assert!(matches!(
            engine.remove_user(UserId(1)),
            Err(GameError::UnknownUser { user: UserId(1) })
        ));
        assert!(engine.remove_user(UserId(9)).is_err());
    }

    #[test]
    fn churn_then_moves_stay_consistent() {
        let g = game();
        let mut engine = Engine::new(&g, Profile::all_first(&g));
        engine.remove_user(UserId(0)).unwrap();
        let joined = engine
            .add_user(
                UserPrefs::new(0.3, 0.7, 0.6),
                vec![
                    Route::new(RouteId(0), vec![TaskId(1)], 0.0, 0.0),
                    Route::new(RouteId(1), vec![TaskId(0), TaskId(2)], 1.0, 2.0),
                ],
                RouteId(1),
            )
            .unwrap();
        engine.apply_move(joined, RouteId(0));
        engine.apply_move(UserId(2), RouteId(1));
        assert_matches_materialized(&engine);
        assert!(
            (engine.potential() - engine.potential_fresh()).abs() < 1e-9,
            "running phi drifted"
        );
        assert!((engine.total_profit() - engine.total_profit_fresh()).abs() < 1e-9);
    }

    #[test]
    fn add_user_rejects_bad_input_without_mutating() {
        let g = game();
        let mut engine = Engine::new(&g, Profile::all_first(&g));
        let snapshot_phi = engine.potential();
        // Initial route out of range.
        assert!(matches!(
            engine.add_user(
                UserPrefs::neutral(),
                vec![Route::new(RouteId(0), vec![], 0.0, 0.0)],
                RouteId(3),
            ),
            Err(GameError::InvalidProfile { .. })
        ));
        // Empty route set.
        assert!(matches!(
            engine.add_user(UserPrefs::neutral(), vec![], RouteId(0)),
            Err(GameError::EmptyRouteSet { .. })
        ));
        // Unknown task.
        assert!(matches!(
            engine.add_user(
                UserPrefs::neutral(),
                vec![Route::new(RouteId(0), vec![TaskId(7)], 0.0, 0.0)],
                RouteId(0),
            ),
            Err(GameError::UnknownTask { .. })
        ));
        assert_eq!(engine.active_count(), 3);
        assert_eq!(engine.game().user_count(), 3);
        assert_eq!(engine.potential(), snapshot_phi);
    }

    #[test]
    fn replay_reproduces_trajectory_bit_for_bit() {
        let g = game();
        let moves = [(0u32, 1u32), (1, 1), (2, 1), (0, 0), (1, 0), (2, 0), (0, 1)];
        // Record by stepping one engine move-by-move...
        let mut live = Engine::new(&g, Profile::all_first(&g));
        let recorded: Vec<(f64, f64)> = moves
            .iter()
            .map(|&(u, r)| {
                live.apply_move(UserId(u), RouteId(r));
                (live.potential(), live.total_profit())
            })
            .collect();
        // ...then replay the same sequence against a fresh engine.
        let mut fresh = Engine::new(&g, Profile::all_first(&g));
        let pairs: Vec<(UserId, RouteId)> = moves
            .iter()
            .map(|&(u, r)| (UserId(u), RouteId(r)))
            .collect();
        let replayed = fresh.replay_moves(&pairs);
        assert_eq!(recorded, replayed, "replay must be bit-identical");
    }

    #[test]
    fn new_owned_engine_is_static() {
        let engine: Engine<'static> = Engine::new_owned(game(), Profile::all_first(&game()));
        assert_eq!(engine.active_count(), 3);
        assert!((engine.potential() - engine.potential_fresh()).abs() < 1e-12);
    }
}
