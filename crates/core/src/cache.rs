//! The solver's response cache: each driven user's cached response, the
//! dirty-set refresh that keeps it valid, and the id-ordered index of the
//! users that can improve — the part of Alg. 2's platform loop that the
//! dynamics driver, the shard lane's interior phase and the online scheduler
//! share. It holds no RNG and emits no events: each caller keeps its own
//! draw order and event stream.

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
/// engine's dirty set, plus a bitset of the users that can improve.
///
/// Invariant after every [`refresh`](Self::refresh): for each active driven
/// user the cached response equals a fresh scan, and its improving bit is
/// set iff that response is non-empty. Improving users rank by id, which
/// every caller's RNG order relies on: [`nth_improving`](Self::nth_improving)
/// of a uniform rank below `improving_len()` is a uniform requester.
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
    /// Bit `i % 64` of word `i / 64` is set iff user `i`'s cached response
    /// is non-empty.
    improving: Vec<u64>,
    /// Number of set bits in `improving`.
    improving_len: usize,
    /// The driven users the last refresh rescanned, in drain order.
    refreshed: Vec<UserId>,
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
            improving: vec![0; m.div_ceil(64)],
            improving_len: 0,
            refreshed: Vec::new(),
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
    /// sets or clears their improving bits. Returns `(scans, improving)`:
    /// how many users were rescanned and how many of them can improve.
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
        let mut improving = 0u32;
        for &u in users {
            let i = u.index();
            let now = match self.kind {
                ResponseKind::Best => !self.best[i].best_routes.is_empty(),
                ResponseKind::Better => !self.better[i].is_empty(),
            };
            improving += u32::from(now);
            set_bit(&mut self.improving, &mut self.improving_len, i, now);
        }
        (users.len() as u32, improving)
    }

    /// Extends the cache by one joining, driven user (the engine's next
    /// id), with an empty response until its first refresh.
    pub fn push_user(&mut self) {
        self.driven.push(true);
        self.improving.resize(self.driven.len().div_ceil(64), 0);
        match self.kind {
            ResponseKind::Best => self.best.push(BestResponse::default()),
            ResponseKind::Better => self.better.push(Vec::new()),
        }
    }

    /// Forgets departed `user`: the engine never drains an inactive user
    /// again, so its cached response and improving bit are dropped here.
    pub fn remove_user(&mut self, user: UserId) {
        let i = user.index();
        match self.kind {
            ResponseKind::Best => self.best[i] = BestResponse::default(),
            ResponseKind::Better => self.better[i].clear(),
        }
        set_bit(&mut self.improving, &mut self.improving_len, i, false);
    }

    /// How many driven users have a non-empty cached response.
    #[inline]
    pub fn improving_len(&self) -> usize {
        self.improving_len
    }

    /// The `k`-th smallest improving id (from 0): a popcount scan over the
    /// words, then a select in the word that holds it. Panics unless
    /// `k < improving_len()`.
    pub fn nth_improving(&self, k: usize) -> usize {
        let mut rest = k;
        for (w, &word) in self.improving.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if rest < ones {
                let word = (0..rest).fold(word, |word, _| word & (word - 1));
                return w * 64 + word.trailing_zeros() as usize;
            }
            rest -= ones;
        }
        panic!("no improving user of rank {k}");
    }

    /// The ids of the improving users, in increasing order.
    pub fn iter_improving(&self) -> impl Iterator<Item = usize> + '_ {
        self.improving.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(w * 64 + bit)
            })
        })
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

/// Sets bit `i` of `words` to `on`, keeping `ones` the count of set bits.
fn set_bit(words: &mut [u64], ones: &mut usize, i: usize, on: bool) {
    let (word, bit) = (&mut words[i / 64], 1u64 << (i % 64));
    *ones = *ones + usize::from(on) - usize::from(*word & bit != 0);
    *word = if on { *word | bit } else { *word & !bit };
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
