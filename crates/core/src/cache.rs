//! The solver's response cache: each driven user's cached response, the
//! dirty-set refresh that keeps it valid, and the sorted index of the users
//! that can improve — the part of Alg. 2's platform loop that the dynamics
//! driver, the shard lane's interior phase and the online scheduler share.
//! It holds no RNG and emits no events: each caller keeps its own draw order
//! and event stream.

use crate::engine::Engine;
use crate::ids::{RouteId, UserId};
use crate::response::BestResponse;
use rayon::prelude::*;
use vcs_obs::ResponseKind;

/// Below this many users to rescan a refresh stays sequential: an
/// incremental best-response scan is ~100ns, so fanning out to worker
/// threads only pays off for the huge convergence-from-cold passes (first
/// slot at 10⁵ users, epoch re-convergence after bulk churn).
const PAR_REFRESH_MIN: usize = 4096;

/// Cached responses of the users a caller drives, kept valid through the
/// engine's dirty set, plus the sorted ids of the users that can improve.
///
/// Invariant after every [`refresh`](Self::refresh): for each active driven
/// user the cached response equals a fresh scan, and the user is in
/// [`improving`](Self::improving) iff that response is non-empty. The index
/// is sorted by id, so drawing once per improving user in index order uses
/// the same RNG stream as a full scan of every user in id order.
#[derive(Debug)]
pub struct ResponseCache {
    kind: ResponseKind,
    /// Per user: whether this cache scans it. Undriven users are never
    /// rescanned and never improving.
    driven: Vec<bool>,
    /// Best-route sets (`ResponseKind::Best`); empty under `Better`.
    best: Vec<BestResponse>,
    /// Strictly improving routes with gains (`ResponseKind::Better`);
    /// empty under `Best`.
    better: Vec<Vec<(RouteId, f64)>>,
    /// Per user: whether its cached response is non-empty.
    flag: Vec<bool>,
    /// Sorted ids of the flagged users.
    improving: Vec<u32>,
    /// The driven users the last refresh rescanned, in drain order.
    refreshed: Vec<UserId>,
    /// Users whose flag the last refresh flipped.
    flips: Vec<u32>,
}

impl ResponseCache {
    /// An empty cache over `driven.len()` users, of which it scans those
    /// with `driven[i]`. Every response starts empty; a fresh engine has
    /// every user dirty, so the first refresh fills them all.
    pub fn new(kind: ResponseKind, driven: Vec<bool>) -> Self {
        let m = driven.len();
        let (best, better) = match kind {
            ResponseKind::Best => (vec![BestResponse::default(); m], Vec::new()),
            ResponseKind::Better => (Vec::new(), vec![Vec::new(); m]),
        };
        Self {
            kind,
            driven,
            best,
            better,
            flag: vec![false; m],
            improving: Vec::new(),
            refreshed: Vec::new(),
            flips: Vec::new(),
        }
    }

    /// Which response rule the cache holds.
    #[inline]
    pub fn kind(&self) -> ResponseKind {
        self.kind
    }

    /// Drains the engine's dirty set and rescans the drained users this
    /// cache drives (in parallel for large passes; results land in id
    /// order either way, so the cache contents are deterministic), then
    /// folds the flag flips into the improving index. Returns `(scans,
    /// improving)`: how many users were rescanned and how many of them can
    /// improve.
    pub fn refresh(&mut self, engine: &mut Engine<'_>) -> (u32, u32) {
        engine.take_dirty_into(&mut self.refreshed);
        let driven = &self.driven;
        self.refreshed.retain(|u| driven[u.index()]);
        let users = &self.refreshed;
        let engine = &*engine;
        let parallel = users.len() >= PAR_REFRESH_MIN && rayon::current_num_threads() > 1;
        match self.kind {
            ResponseKind::Best => rescan(&mut self.best, users, parallel, |u, out| {
                engine.best_route_set_into(u, out);
            }),
            ResponseKind::Better => rescan(&mut self.better, users, parallel, |u, out| {
                *out = engine.better_routes(u);
            }),
        }
        let scans = users.len() as u32;
        self.flips.clear();
        let mut improving = 0u32;
        for &u in users {
            let i = u.index();
            let now = match self.kind {
                ResponseKind::Best => !self.best[i].best_routes.is_empty(),
                ResponseKind::Better => !self.better[i].is_empty(),
            };
            improving += u32::from(now);
            if now != self.flag[i] {
                self.flag[i] = now;
                self.flips.push(i as u32);
            }
        }
        self.fold_flips();
        (scans, improving)
    }

    /// Folds the last refresh's flag flips into the sorted improving index:
    /// binary-search edits for a few flips, one linear rebuild when a pass
    /// flipped a large fraction (cold start, bulk churn).
    fn fold_flips(&mut self) {
        if self.flips.len() > self.improving.len() / 8 + 32 {
            let flag = &self.flag;
            self.improving.clear();
            self.improving
                .extend((0..flag.len() as u32).filter(|&i| flag[i as usize]));
            return;
        }
        for &i in &self.flips {
            match (self.improving.binary_search(&i), self.flag[i as usize]) {
                (Err(at), true) => self.improving.insert(at, i),
                (Ok(at), false) => {
                    self.improving.remove(at);
                }
                _ => {}
            }
        }
    }

    /// Extends the cache by one joining, driven user (the engine's next
    /// id), with an empty response until its first refresh.
    pub fn push_user(&mut self) {
        self.driven.push(true);
        self.flag.push(false);
        match self.kind {
            ResponseKind::Best => self.best.push(BestResponse::default()),
            ResponseKind::Better => self.better.push(Vec::new()),
        }
    }

    /// Forgets departed `user`: the engine never drains an inactive user
    /// again, so its cached response and improving flag are dropped here.
    pub fn remove_user(&mut self, user: UserId) {
        let i = user.index();
        match self.kind {
            ResponseKind::Best => self.best[i] = BestResponse::default(),
            ResponseKind::Better => self.better[i].clear(),
        }
        if std::mem::take(&mut self.flag[i]) {
            let at = self
                .improving
                .binary_search(&(i as u32))
                .expect("a flagged user is indexed");
            self.improving.remove(at);
        }
    }

    /// Sorted ids of the driven users whose cached response is non-empty.
    #[inline]
    pub fn improving(&self) -> &[u32] {
        &self.improving
    }

    /// The cached best-route set of `user` (`ResponseKind::Best` only).
    #[inline]
    pub fn best(&self, user: UserId) -> &BestResponse {
        &self.best[user.index()]
    }

    /// The cached strictly improving routes of `user` with their gains
    /// (`ResponseKind::Better` only).
    #[inline]
    pub fn better(&self, user: UserId) -> &[(RouteId, f64)] {
        &self.better[user.index()]
    }

    /// The driven users the last refresh rescanned, in drain (id) order.
    #[inline]
    pub fn refreshed(&self) -> &[UserId] {
        &self.refreshed
    }
}

/// Recomputes `slots[u]` for every `u` in `users` with `scan`, on the rayon
/// pool when `parallel` (results collected in index order, so both paths
/// leave identical slots).
fn rescan<T: Default + Send>(
    slots: &mut [T],
    users: &[UserId],
    parallel: bool,
    scan: impl Fn(UserId, &mut T) + Sync,
) {
    if parallel {
        let fresh: Vec<T> = (0..users.len())
            .into_par_iter()
            .map(|j| {
                let mut out = T::default();
                scan(users[j], &mut out);
                out
            })
            .collect();
        for (&u, out) in users.iter().zip(fresh) {
            slots[u.index()] = out;
        }
    } else {
        for &u in users {
            scan(u, &mut slots[u.index()]);
        }
    }
}
