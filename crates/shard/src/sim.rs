//! The sharded multi-engine simulator, the shard lane every execution mode
//! runs, and the coordinator round they share.
//!
//! [`ShardedSim`] runs one incremental [`Engine`] per shard, each over the
//! sub-game induced by the shard's members (its interior users plus *every*
//! boundary user, with **global task ids preserved** — see
//! [`crate::partition`] for why that makes every participant count a member
//! can observe exact). Convergence alternates two phases per coordinator
//! round:
//!
//! 1. **Interior convergence** — each shard runs the paper's best-response
//!    and SUU dynamics over its interior users only, to a local fixpoint
//!    (or a slot cap). Interior users of different shards share no task, so
//!    these runs commute: their move logs concatenate (in shard order) into
//!    a serialization some single-engine schedule could have produced.
//! 2. **Boundary sync** — the coordinator walks all boundary users in
//!    ascending global id; each best-responds *in its home shard*, commits
//!    there ([`Engine::apply_move`]), and the committed move is broadcast
//!    to every replica as a causally stamped [`BoundaryFrame`] and applied
//!    silently ([`Engine::apply_remote_move`]), re-dirtying the interior
//!    users it touches.
//!
//! The run reaches the **global fixpoint** when a boundary round commits no
//! move while every shard's interior is converged — then no user anywhere
//! has an improving deviation, i.e. the merged profile is a Nash
//! equilibrium of the full game (the oracle tests replay the merged log on
//! a single full-game engine and check `ϕ` agreement to 1e-9).
//!
//! ## One lane, one round
//!
//! Everything a shard does is a method of `ShardLane`: construction from
//! `(game, plan, shard, initial profile, seed)`, the interior phase, the
//! home commit (`apply_move` → `SlotCompleted` → stamp → frame encode →
//! `FrameSent`), the replica apply (idempotent on `(sender, seq)`, with gap
//! detection), and the lane's checkpoint state. Each lane owns its causal
//! stamp endpoint. [`ShardedSim`]'s in-process lanes and the worker
//! processes of a socket deployment (`crate::worker`) run the same lane
//! code.
//!
//! The coordinator round — interior phases merged in shard order, the
//! boundary walk with its one tie-break draw per improving boundary user,
//! the fixpoint test — is `Rounds::step`, generic over a `Link` to the
//! lanes: the in-process one here, or the worker processes driven by the
//! multi-process coordinator (`crate::deploy`).
//!
//! Everything is deterministic in `(game, config)`: per-shard RNGs and the
//! coordinator RNG are derived from the config seed, and the threaded
//! driver ([`ShardedSim::run_parallel`]) produces bit-identical results to
//! the sequential one because shard lanes share no mutable state during
//! phase 1 and logs are merged in shard order.
//!
//! [`Engine`]: vcs_core::Engine
//! [`Engine::apply_move`]: vcs_core::Engine::apply_move
//! [`Engine::apply_remote_move`]: vcs_core::Engine::apply_remote_move

use crate::frame::{BoundaryFrame, FRAME_LEN};
use crate::partition::{partition, ShardPlan};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::convert::Infallible;
use std::io;
use vcs_algorithms::suu_grant;
use vcs_core::bounds::slot_upper_bound;
use vcs_core::ids::{RouteId, UserId};
use vcs_core::{Engine, Game, Profile, ResponseCache};
use vcs_obs::{Event, FrameStamp, FrameStamper, Obs, ResponseKind, SpanKind};
use vcs_online::{Snapshot, SnapshotError};

/// Configuration of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards to cut the game into (≥ 1).
    pub shards: usize,
    /// Seed for the initial profile and all per-lane/coordinator RNGs.
    pub seed: u64,
    /// Cap on coordinator rounds before giving up on convergence.
    pub max_rounds: u32,
    /// Per-shard, per-round cap on interior decision slots (`u64::MAX` =
    /// run each interior phase to its local fixpoint).
    pub interior_slot_cap: u64,
}

impl ShardConfig {
    /// A config with the default round cap and uncapped interior phases.
    pub fn new(shards: usize, seed: u64) -> Self {
        ShardConfig {
            shards,
            seed,
            max_rounds: 200,
            interior_slot_cap: u64::MAX,
        }
    }
}

/// The seeded random initial profile every execution mode starts from: one
/// uniform route per user, drawn in user-id order — matching the
/// single-engine dynamics' initialisation.
pub(crate) fn initial_profile(game: &Game, seed: u64) -> Vec<RouteId> {
    let mut rng = StdRng::seed_from_u64(seed);
    game.users()
        .iter()
        .map(|u| RouteId::from_index(rng.random_range(0..u.routes.len())))
        .collect()
}

/// Shard `s`'s lane RNG seed, derived from the config seed: a deployment is
/// a pure function of `(game, config)` regardless of transport.
fn lane_seed(seed: u64, s: usize) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(s as u64 + 1))
}

/// One shard's lane: its engine over the member sub-game, the member ↔
/// local id maps, its RNG, its causal-stamp endpoint, the applied-frame
/// table, and the driver-side best-response cache for its interior
/// (driven) users. See the module docs.
pub(crate) struct ShardLane {
    shard: usize,
    /// Local id → global id.
    members: Vec<UserId>,
    /// Global id → local id (`u32::MAX` when absent; boundary users are
    /// members of every lane, interior users only of their home).
    local_of: Vec<u32>,
    pub(crate) engine: Engine<'static>,
    rng: StdRng,
    /// The lane's event stream: the engine's `MoveCommitted`, then
    /// `SlotCompleted` and the stamped `FrameSent` / `FrameReceived`.
    obs: Obs,
    /// Wall-clock spans of the interior phase and the frame encode. Kept
    /// off `obs`, so spans never reach a deterministic dump; disabled
    /// unless a worker installs one.
    pub(crate) span_obs: Obs,
    /// Best responses of the users this lane drives in phase 1 (its
    /// interior users), by local id.
    cache: ResponseCache,
    /// Decision slots committed at this shard (interior + boundary-home).
    pub(crate) slots: u64,
    /// Whether the last interior phase ended at a local fixpoint (as
    /// opposed to the slot cap).
    pub(crate) converged: bool,
    /// Stamps this lane's frames; only the endpoint `shard` is used.
    stamper: FrameStamper,
    /// Per-sender-shard applied-frame high-water marks.
    applied: Vec<u64>,
}

/// A lane's resumable state besides its engine snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LaneState {
    pub(crate) rng: StdRng,
    pub(crate) slots: u64,
    /// The lane's stamp endpoint as `(seq, clock)`.
    pub(crate) stamp: (u64, u64),
    /// Per-sender-shard applied-frame high-water marks.
    pub(crate) applied: Vec<u64>,
}

/// What a replica did with a boundary frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameApplied {
    /// Applied now, or already applied before (a duplicate): acknowledge
    /// `seq`.
    Ack { seq: u64 },
    /// Frames `from_seq..` of sender `shard` are missing; nothing applied.
    Gap { shard: u32, from_seq: u64 },
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl ShardLane {
    /// Lane `shard` of `plan` over `game`, started from the global
    /// `initial` profile with the lane RNG derived from `seed`.
    pub(crate) fn new(
        game: &Game,
        plan: &ShardPlan,
        shard: usize,
        initial: &[RouteId],
        seed: u64,
    ) -> Self {
        let members = plan.members(shard);
        let choices: Vec<RouteId> = members.iter().map(|&g| initial[g.index()]).collect();
        let sub = game.subgame(&members);
        let profile = Profile::new(&sub, choices);
        let engine = Engine::new_owned(sub, profile);
        let rng = StdRng::seed_from_u64(lane_seed(seed, shard));
        Self::assemble(game, plan, shard, members, engine, rng)
    }

    /// Lane `shard` of `plan` over `game`, restored from its checkpoint.
    pub(crate) fn restore(
        game: &Game,
        plan: &ShardPlan,
        shard: usize,
        snapshot: &[u8],
        state: LaneState,
    ) -> Result<Self, SnapshotError> {
        let snapshot = Snapshot::decode(snapshot)?;
        let members = plan.members(shard);
        assert_eq!(
            snapshot.game.users().len(),
            members.len(),
            "shard {shard} snapshot user count must match the plan"
        );
        let mut lane = Self::assemble(game, plan, shard, members, snapshot.restore(), state.rng);
        lane.slots = state.slots;
        lane.stamper
            .restore_endpoint(shard as u32, state.stamp.0, state.stamp.1);
        lane.applied = state.applied;
        Ok(lane)
    }

    fn assemble(
        game: &Game,
        plan: &ShardPlan,
        shard: usize,
        members: Vec<UserId>,
        engine: Engine<'static>,
        rng: StdRng,
    ) -> Self {
        let m = members.len();
        assert_eq!(m, engine.game().users().len(), "one engine user per member");
        let mut local_of = vec![u32::MAX; game.users().len()];
        let mut driven = vec![false; m];
        for (l, &g) in members.iter().enumerate() {
            local_of[g.index()] = l as u32;
            driven[l] = !plan.is_boundary(g);
        }
        ShardLane {
            shard,
            members,
            local_of,
            engine,
            rng,
            obs: Obs::default(),
            span_obs: Obs::default(),
            cache: ResponseCache::new(ResponseKind::Best, driven),
            slots: 0,
            converged: false,
            stamper: FrameStamper::default(),
            applied: vec![0; plan.shards()],
        }
    }

    /// Routes the lane's events into `obs` (the engine emits its
    /// `EngineInit` there right away).
    pub(crate) fn set_obs(&mut self, obs: Obs) {
        self.engine.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The engine snapshot and the rest of the lane's resumable state.
    pub(crate) fn checkpoint(&self) -> (Vec<u8>, LaneState) {
        let state = LaneState {
            rng: self.rng.clone(),
            slots: self.slots,
            stamp: self.stamper.endpoint_state(self.shard as u32),
            applied: self.applied.clone(),
        };
        (Snapshot::capture(&self.engine).encode(), state)
    }

    fn local(&self, user: UserId) -> UserId {
        let l = self.local_of[user.index()];
        assert_ne!(
            l,
            u32::MAX,
            "user {} is not a member of shard {}",
            user.index(),
            self.shard
        );
        UserId::from_index(l as usize)
    }

    /// The current route of member `user` (global id).
    pub(crate) fn choice(&self, user: UserId) -> RouteId {
        self.engine.profile().choice(self.local(user))
    }

    /// `(global id, route)` of every user this lane is the home of.
    pub(crate) fn home_choices<'a>(
        &'a self,
        plan: &'a ShardPlan,
    ) -> impl Iterator<Item = (UserId, RouteId)> + 'a {
        self.members
            .iter()
            .enumerate()
            .filter(move |&(_, &g)| plan.home_of(g) == self.shard)
            .map(move |(l, &g)| (g, self.engine.profile().choice(UserId::from_index(l))))
    }

    /// Counts one decision slot and emits its `SlotCompleted`.
    fn complete_slot(&mut self) {
        self.slots += 1;
        let (slot, phi, total) = (
            self.slots,
            self.engine.potential(),
            self.engine.total_profit(),
        );
        self.obs.emit(|| Event::SlotCompleted {
            slot,
            updated: 1,
            phi,
            total_profit: total,
        });
    }

    /// Runs the interior phase to a local fixpoint (or `cap` slots),
    /// appending committed moves as global `(user, route)` pairs to `out`.
    /// Returns the number of moves committed by this call.
    pub(crate) fn converge_interior(&mut self, cap: u64, out: &mut Vec<(UserId, RouteId)>) -> u64 {
        let span_obs = self.span_obs.clone();
        let _span = span_obs.span(SpanKind::InteriorConverge);
        let mut done = 0u64;
        loop {
            self.cache.refresh(&mut self.engine);
            if self.cache.improving_len() == 0 {
                self.converged = true;
                return done;
            }
            if done >= cap {
                self.converged = false;
                return done;
            }

            // SUU grant: one uniform pick among improving users, then a
            // uniform tie-break among that user's best-route set.
            let (user, route, _) = suu_grant(&self.cache, &mut self.rng).expect("a requester");
            self.engine.apply_move(user, route);
            self.complete_slot();
            done += 1;
            out.push((self.members[user.index()], route));
        }
    }

    /// The best-route set of member `user` (global id).
    pub(crate) fn best_routes(&self, user: UserId) -> Vec<RouteId> {
        self.engine.best_route_set(self.local(user)).best_routes
    }

    /// Commits `user → route` at its home lane: the one `MoveCommitted` of
    /// the move (from the engine), then `SlotCompleted`, then the stamped
    /// `FrameSent` of the boundary frame returned for the replicas.
    pub(crate) fn commit(&mut self, user: UserId, route: RouteId) -> [u8; FRAME_LEN] {
        let from = self.engine.apply_move(self.local(user), route);
        self.complete_slot();
        let stamp = self.stamper.send(self.shard as u32);
        let frame = BoundaryFrame {
            shard: self.shard as u32,
            user: user.index() as u32,
            from_route: from.index() as u32,
            to_route: route.index() as u32,
            seq: stamp.seq,
            lamport: stamp.lamport,
        };
        let wire = self
            .span_obs
            .time(SpanKind::BoundarySerialize, || frame.encode());
        let len = wire.len() as u32;
        self.obs.emit(|| Event::FrameSent {
            bytes: len,
            seq: stamp.seq,
            lamport: stamp.lamport,
        });
        wire
    }

    /// Applies one boundary frame from another lane silently, exactly once
    /// per `(sender shard, seq)`: a frame at or below the sender's applied
    /// high-water mark is acknowledged without being re-applied, and one
    /// that would skip ahead reports the gap instead of applying out of
    /// order.
    ///
    /// # Errors
    ///
    /// `InvalidData` for an undecodable frame or one from an invalid
    /// sender.
    pub(crate) fn apply_frame(&mut self, frame: &[u8]) -> io::Result<FrameApplied> {
        let f = BoundaryFrame::decode(frame).map_err(|e| invalid(format!("{e:?}")))?;
        let src = f.shard as usize;
        if src >= self.applied.len() || src == self.shard {
            return Err(invalid(format!("frame from invalid shard {src}")));
        }
        let hi = self.applied[src];
        if f.seq <= hi {
            return Ok(FrameApplied::Ack { seq: f.seq });
        }
        if f.seq > hi + 1 {
            return Ok(FrameApplied::Gap {
                shard: f.shard,
                from_seq: hi + 1,
            });
        }
        let local = self.local(UserId::from_index(f.user as usize));
        self.engine
            .apply_remote_move(local, RouteId::from_index(f.to_route as usize));
        let rx = self.stamper.receive(
            self.shard as u32,
            FrameStamp {
                seq: f.seq,
                lamport: f.lamport,
            },
        );
        let len = frame.len() as u32;
        self.obs.emit(|| Event::FrameReceived {
            bytes: len,
            seq: rx.seq,
            lamport: rx.lamport,
        });
        self.applied[src] = f.seq;
        Ok(FrameApplied::Ack { seq: f.seq })
    }
}

/// What carries the coordinator's requests to the shard lanes: the
/// in-process lanes of [`ShardedSim`], or the worker processes of a socket
/// deployment.
pub(crate) trait Link {
    /// Why a request could not be carried out.
    type Error;

    /// Runs round `round`'s interior phase on every shard and appends the
    /// committed moves (global ids) to `log`, merged in shard order.
    /// Returns how many moves were committed.
    fn interior(
        &mut self,
        round: u32,
        log: &mut Vec<(UserId, RouteId)>,
    ) -> Result<u64, Self::Error>;

    /// Whether every shard's last interior phase reached its local
    /// fixpoint.
    fn interior_converged(&self) -> bool;

    /// The best-route set of boundary user `user` at its home shard.
    fn best_routes(&mut self, home: usize, user: UserId) -> Result<Vec<RouteId>, Self::Error>;

    /// Commits `user → route` at `home` and applies the resulting boundary
    /// frame at every other shard. Returns the frame's length in bytes.
    fn commit(&mut self, home: usize, user: UserId, route: RouteId) -> Result<usize, Self::Error>;

    /// Closes round `round` once its fixpoint test has run.
    fn end_round(&mut self, _round: u32, _converged: bool) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Where the coordinator is in a run: its boundary tie-break RNG and the
/// round and move counters. Checkpointed as a whole.
#[derive(Debug, Clone)]
pub(crate) struct Progress {
    boundary_rng: StdRng,
    pub(crate) rounds: u32,
    pub(crate) converged: bool,
    pub(crate) interior_moves: u64,
    pub(crate) boundary_moves: u64,
    pub(crate) frames_sent: u64,
    pub(crate) frame_bytes: u64,
}

/// The coordinator round, written once for every [`Link`].
pub(crate) struct Rounds {
    pub(crate) plan: ShardPlan,
    /// The merged global commit log.
    pub(crate) log: Vec<(UserId, RouteId)>,
    pub(crate) progress: Progress,
}

impl Rounds {
    pub(crate) fn new(plan: ShardPlan, seed: u64) -> Self {
        Rounds {
            plan,
            log: Vec::new(),
            progress: Progress {
                boundary_rng: StdRng::seed_from_u64(seed ^ 0xB0D7_F1E1),
                rounds: 0,
                converged: false,
                interior_moves: 0,
                boundary_moves: 0,
                frames_sent: 0,
                frame_bytes: 0,
            },
        }
    }

    /// One coordinator round: every shard's interior phase, then the
    /// boundary walk — each boundary user, in ascending global id,
    /// best-responds at home and, when improving, commits the route picked
    /// by the round's single tie-break draw — then the fixpoint test.
    pub(crate) fn step<L: Link>(&mut self, link: &mut L) -> Result<RoundReport, L::Error> {
        let Rounds {
            plan,
            log,
            progress: at,
        } = self;
        at.rounds += 1;
        let interior = link.interior(at.rounds, log)?;
        let replicas = plan.shards() as u64 - 1;
        let mut boundary = 0u64;
        for &g in plan.boundary_users() {
            let routes = link.best_routes(plan.home_of(g), g)?;
            if routes.is_empty() {
                continue;
            }
            let route = routes[at.boundary_rng.random_range(0..routes.len())];
            let len = link.commit(plan.home_of(g), g, route)?;
            log.push((g, route));
            boundary += 1;
            at.frames_sent += 1;
            at.frame_bytes += len as u64 * replicas;
        }
        at.interior_moves += interior;
        at.boundary_moves += boundary;
        at.converged = boundary == 0 && link.interior_converged();
        link.end_round(at.rounds, at.converged)?;
        Ok(RoundReport {
            round: at.rounds,
            interior_moves: interior,
            boundary_moves: boundary,
            converged: at.converged,
        })
    }

    /// Steps rounds until the global fixpoint or `max_rounds`.
    pub(crate) fn run<L: Link>(&mut self, link: &mut L, max_rounds: u32) -> Result<(), L::Error> {
        while !self.progress.converged && self.progress.rounds < max_rounds {
            self.step(link)?;
        }
        Ok(())
    }
}

/// The in-process link: [`ShardedSim`]'s lanes, interior phases either
/// sequential or one OS thread per shard.
struct InProcess<'a> {
    lanes: &'a mut [ShardLane],
    cap: u64,
    parallel: bool,
}

impl Link for InProcess<'_> {
    type Error = Infallible;

    fn interior(&mut self, _: u32, log: &mut Vec<(UserId, RouteId)>) -> Result<u64, Infallible> {
        let cap = self.cap;
        if !self.parallel {
            return Ok(self
                .lanes
                .iter_mut()
                .map(|lane| lane.converge_interior(cap, log))
                .sum());
        }
        // Lanes share no mutable state in phase 1; logs merge in shard
        // order, so this is bit-identical to the sequential phase.
        let mut bufs: Vec<Vec<(UserId, RouteId)>> = self.lanes.iter().map(|_| Vec::new()).collect();
        let moved = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .lanes
                .iter_mut()
                .zip(bufs.iter_mut())
                .map(|(lane, buf)| scope.spawn(move || lane.converge_interior(cap, buf)))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("interior phase thread"))
                .sum()
        });
        log.extend(bufs.into_iter().flatten());
        Ok(moved)
    }

    fn interior_converged(&self) -> bool {
        self.lanes.iter().all(|l| l.converged)
    }

    fn best_routes(&mut self, home: usize, user: UserId) -> Result<Vec<RouteId>, Infallible> {
        Ok(self.lanes[home].best_routes(user))
    }

    fn commit(&mut self, home: usize, user: UserId, route: RouteId) -> Result<usize, Infallible> {
        let wire = self.lanes[home].commit(user, route);
        for (t, lane) in self.lanes.iter_mut().enumerate() {
            if t != home {
                let applied = lane.apply_frame(&wire).expect("in-process frames decode");
                assert!(
                    matches!(applied, FrameApplied::Ack { .. }),
                    "in-process frames arrive in order"
                );
            }
        }
        Ok(wire.len())
    }
}

/// Per-round progress report from [`ShardedSim::step_round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundReport {
    /// 1-based coordinator round number.
    pub round: u32,
    /// Interior moves committed across all shards this round.
    pub interior_moves: u64,
    /// Boundary moves committed this round.
    pub boundary_moves: u64,
    /// Whether the global fixpoint was reached at the end of this round.
    pub converged: bool,
}

/// Final outcome of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The merged final profile (global user order).
    pub choices: Vec<RouteId>,
    /// The initial profile the run started from.
    pub initial: Vec<RouteId>,
    /// The merged global commit log, a serialization of every committed
    /// move (replayable on a full-game engine).
    pub log: Vec<(UserId, RouteId)>,
    /// Coordinator rounds executed.
    pub rounds: u32,
    /// Whether the global fixpoint was reached within the round cap.
    pub converged: bool,
    /// Total interior moves.
    pub interior_moves: u64,
    /// Total boundary moves.
    pub boundary_moves: u64,
    /// Decision slots per shard (aggregate throughput numerator).
    pub shard_slots: Vec<u64>,
    /// Boundary frames broadcast (one TX per boundary commit).
    pub frames_sent: u64,
    /// Total frame bytes delivered to replicas.
    pub frame_bytes: u64,
    /// The plan's partition-quality metric.
    pub boundary_fraction: f64,
}

/// A shard-scoped checkpoint: one engine [`Snapshot`] per shard, each
/// lane's RNG, slot counter, stamp endpoint and applied-frame table, and
/// the coordinator's tie-break RNG and counters — everything needed to
/// resume the run on its exact trajectory. Taken at coordinator-round
/// boundaries.
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    /// Encoded per-shard engine snapshots, shard order.
    pub shards: Vec<Vec<u8>>,
    lanes: Vec<LaneState>,
    progress: Progress,
}

/// The sharded multi-engine simulator. See the module docs for the
/// protocol; construct with [`ShardedSim::new`], drive with
/// [`ShardedSim::run`] / [`ShardedSim::run_parallel`] or round-by-round
/// with [`ShardedSim::step_round`].
pub struct ShardedSim {
    game: Game,
    config: ShardConfig,
    lanes: Vec<ShardLane>,
    coord: Rounds,
    initial: Vec<RouteId>,
}

impl ShardedSim {
    /// Builds a sharded run over `game` from a seeded random initial
    /// profile (one uniform route per user, drawn in user-id order —
    /// matching the single-engine dynamics' initialisation).
    pub fn new(game: Game, config: ShardConfig) -> Self {
        let initial = initial_profile(&game, config.seed);
        Self::with_initial(game, config, initial)
    }

    /// Builds a sharded run from an explicit initial profile.
    ///
    /// # Panics
    ///
    /// Panics when `initial.len()` differs from the user count.
    pub fn with_initial(game: Game, config: ShardConfig, initial: Vec<RouteId>) -> Self {
        assert_eq!(
            initial.len(),
            game.users().len(),
            "initial profile must cover every user"
        );
        let plan = partition(&game, config.shards);
        let lanes = (0..config.shards)
            .map(|s| ShardLane::new(&game, &plan, s, &initial, config.seed))
            .collect();
        ShardedSim {
            coord: Rounds::new(plan, config.seed),
            lanes,
            initial,
            config,
            game,
        }
    }

    /// The partition the run executes under.
    pub fn plan(&self) -> &ShardPlan {
        &self.coord.plan
    }

    /// The full game (global ids).
    pub fn game(&self) -> &Game {
        &self.game
    }

    /// Coordinator rounds executed so far.
    pub fn rounds(&self) -> u32 {
        self.coord.progress.rounds
    }

    /// Whether the global fixpoint has been reached.
    pub fn is_converged(&self) -> bool {
        self.coord.progress.converged
    }

    /// The merged global commit log so far (or, after a resume, since the
    /// resume point).
    pub fn log(&self) -> &[(UserId, RouteId)] {
        &self.coord.log
    }

    /// The profile the run started from (after a resume: the merged profile
    /// at the resume point).
    pub fn initial_choices(&self) -> &[RouteId] {
        &self.initial
    }

    /// Attaches an observability handle to shard `s`: the lane's engine
    /// emits `MoveCommitted` into it, and the lane adds `SlotCompleted` and
    /// its `FrameSent`/`FrameReceived` with causal stamps.
    pub fn set_shard_obs(&mut self, s: usize, obs: Obs) {
        self.lanes[s].set_obs(obs);
    }

    /// Theorem-4 slot upper bounds, one per shard's sub-game — the budgets
    /// a per-shard watchdog should enforce.
    pub fn shard_slot_budgets(&self, delta_p_min: f64) -> Vec<f64> {
        self.lanes
            .iter()
            .map(|l| slot_upper_bound(l.engine.game(), delta_p_min))
            .collect()
    }

    /// Decision slots committed per shard.
    pub fn shard_slots(&self) -> Vec<u64> {
        self.lanes.iter().map(|l| l.slots).collect()
    }

    /// The merged global profile: every user's current route read from its
    /// home lane (boundary replicas agree by protocol construction — see
    /// [`ShardedSim::replicas_consistent`]).
    pub fn merged_choices(&self) -> Vec<RouteId> {
        // Every user is a member of its home lane, so every entry is
        // overwritten below (the placeholder never survives).
        let mut out = vec![RouteId::from_index(0); self.game.users().len()];
        for lane in &self.lanes {
            for (g, route) in lane.home_choices(&self.coord.plan) {
                out[g.index()] = route;
            }
        }
        out
    }

    /// The weighted potential `ϕ` of the merged profile on the *full* game.
    pub fn merged_potential(&self) -> f64 {
        let profile = Profile::new(&self.game, self.merged_choices());
        vcs_core::potential(&self.game, &profile)
    }

    /// Debug invariant: every boundary user's route agrees across all of
    /// its replicas.
    pub fn replicas_consistent(&self) -> bool {
        let plan = &self.coord.plan;
        plan.boundary_users().iter().all(|&g| {
            let home = self.lanes[plan.home_of(g)].choice(g);
            self.lanes.iter().all(|lane| lane.choice(g) == home)
        })
    }

    fn step(&mut self, parallel: bool) -> RoundReport {
        let mut link = InProcess {
            lanes: &mut self.lanes,
            cap: self.config.interior_slot_cap,
            parallel,
        };
        let Ok(report) = self.coord.step(&mut link);
        report
    }

    /// Executes one coordinator round (interior phases sequentially, then
    /// the boundary sync).
    pub fn step_round(&mut self) -> RoundReport {
        self.step(false)
    }

    /// Executes one coordinator round with the interior phases on one OS
    /// thread per shard. Bit-identical to [`ShardedSim::step_round`]: lanes
    /// share no mutable state in phase 1 and logs merge in shard order.
    pub fn step_round_parallel(&mut self) -> RoundReport {
        self.step(true)
    }

    fn run_inner(&mut self, parallel: bool) -> ShardedOutcome {
        let mut link = InProcess {
            lanes: &mut self.lanes,
            cap: self.config.interior_slot_cap,
            parallel,
        };
        let Ok(()) = self.coord.run(&mut link, self.config.max_rounds);
        self.outcome()
    }

    /// Runs to the global fixpoint (or the round cap), sequentially.
    pub fn run(&mut self) -> ShardedOutcome {
        self.run_inner(false)
    }

    /// Runs to the global fixpoint (or the round cap) with one interior
    /// thread per shard.
    pub fn run_parallel(&mut self) -> ShardedOutcome {
        self.run_inner(true)
    }

    /// The outcome at the current point of the run.
    pub fn outcome(&self) -> ShardedOutcome {
        let at = &self.coord.progress;
        ShardedOutcome {
            choices: self.merged_choices(),
            initial: self.initial.clone(),
            log: self.coord.log.clone(),
            rounds: at.rounds,
            converged: at.converged,
            interior_moves: at.interior_moves,
            boundary_moves: at.boundary_moves,
            shard_slots: self.shard_slots(),
            frames_sent: at.frames_sent,
            frame_bytes: at.frame_bytes,
            boundary_fraction: self.coord.plan.boundary_fraction(),
        }
    }

    /// Captures a shard-scoped checkpoint. Valid at coordinator-round
    /// boundaries (between [`ShardedSim::step_round`] calls): each lane is
    /// checkpointed independently and the coordinator state (tie-break
    /// RNG, counters) rides along, so [`ShardedSim::resume`] retraces the
    /// exact remaining trajectory.
    pub fn checkpoint(&self) -> ShardCheckpoint {
        let (shards, lanes) = self.lanes.iter().map(ShardLane::checkpoint).unzip();
        ShardCheckpoint {
            shards,
            lanes,
            progress: self.coord.progress.clone(),
        }
    }

    /// Rebuilds a run from a checkpoint over the same `game` and an
    /// equivalent `config`. The partition is recomputed (it is a pure
    /// function of game and shard count); each lane is restored from its
    /// snapshot and state, so RNGs and stamp endpoints resume their exact
    /// streams. The continuation's [`ShardedSim::log`] starts empty and
    /// [`ShardedSim::initial_choices`] is the merged profile at the resume
    /// point.
    pub fn resume(
        game: Game,
        config: ShardConfig,
        checkpoint: ShardCheckpoint,
    ) -> Result<Self, SnapshotError> {
        assert_eq!(
            checkpoint.shards.len(),
            config.shards,
            "checkpoint shard count must match the config"
        );
        let plan = partition(&game, config.shards);
        let lanes = checkpoint
            .shards
            .into_iter()
            .zip(checkpoint.lanes)
            .enumerate()
            .map(|(s, (snapshot, state))| ShardLane::restore(&game, &plan, s, &snapshot, state))
            .collect::<Result<_, _>>()?;
        let mut sim = ShardedSim {
            coord: Rounds {
                plan,
                log: Vec::new(),
                // A checkpoint taken exactly at the fixpoint stays
                // converged; otherwise the resumed run re-enters the loop.
                progress: checkpoint.progress,
            },
            lanes,
            initial: Vec::new(),
            config,
            game,
        };
        sim.initial = sim.merged_choices();
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::localized_game;
    use vcs_core::is_nash;

    fn run_pair(shards: usize, seed: u64) -> (Game, ShardedOutcome) {
        let game = localized_game(60, 60, 4, seed);
        let mut sim = ShardedSim::new(game.clone(), ShardConfig::new(shards, seed));
        let outcome = sim.run();
        assert!(sim.replicas_consistent(), "boundary replicas must agree");
        (game, outcome)
    }

    #[test]
    fn single_shard_run_converges_without_frames() {
        let (game, outcome) = run_pair(1, 3);
        assert!(outcome.converged);
        assert_eq!(outcome.boundary_moves, 0);
        assert_eq!(outcome.frames_sent, 0);
        assert_eq!(outcome.boundary_fraction, 0.0);
        let profile = Profile::new(&game, outcome.choices);
        assert!(is_nash(&game, &profile));
    }

    #[test]
    fn sharded_fixpoint_is_a_nash_equilibrium_of_the_full_game() {
        for shards in [2, 3, 4] {
            let (game, outcome) = run_pair(shards, 11 + shards as u64);
            assert!(outcome.converged, "{shards} shards should converge");
            let profile = Profile::new(&game, outcome.choices);
            assert!(
                is_nash(&game, &profile),
                "{shards}-shard fixpoint must be a full-game NE"
            );
        }
    }

    #[test]
    fn merged_log_replays_to_the_merged_potential_on_a_full_engine() {
        let (game, outcome) = run_pair(3, 29);
        let profile = Profile::new(&game, outcome.initial.clone());
        let mut oracle = Engine::new_owned(game.clone(), profile);
        let trajectory = oracle.replay_moves(&outcome.log);
        let final_phi = trajectory
            .last()
            .map(|&(phi, _)| phi)
            .unwrap_or_else(|| oracle.potential());
        let merged = vcs_core::potential(&game, &Profile::new(&game, outcome.choices.clone()));
        assert!(
            (final_phi - merged).abs() <= 1e-9,
            "oracle replay phi {final_phi} vs merged {merged}"
        );
        assert_eq!(oracle.profile().choices(), &outcome.choices[..]);
    }

    #[test]
    fn parallel_interior_phases_are_bit_identical_to_sequential() {
        let game = localized_game(80, 80, 5, 41);
        let config = ShardConfig::new(4, 41);
        let mut seq = ShardedSim::new(game.clone(), config.clone());
        let mut par = ShardedSim::new(game, config);
        let a = seq.run();
        let b = par.run_parallel();
        assert_eq!(a.choices, b.choices);
        assert_eq!(a.log, b.log);
        assert_eq!(a.shard_slots, b.shard_slots);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.frames_sent, b.frames_sent);
    }

    #[test]
    fn checkpoint_resume_retraces_the_remaining_trajectory() {
        let game = localized_game(70, 70, 4, 53);
        let config = ShardConfig::new(3, 53);
        let mut full = ShardedSim::new(game.clone(), config.clone());
        full.step_round();
        let checkpoint = full.checkpoint();
        let split = full.log().len();
        let a = full.run();

        let mut resumed = ShardedSim::resume(game, config, checkpoint).expect("decodable");
        let b = resumed.run();
        assert_eq!(a.choices, b.choices);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(&a.log[split..], &b.log[..], "continuation log matches");
        assert_eq!(b.initial, a_initial_at_split(&a, split));

        fn a_initial_at_split(a: &ShardedOutcome, split: usize) -> Vec<RouteId> {
            let mut profile = a.initial.clone();
            for &(u, r) in &a.log[..split] {
                profile[u.index()] = r;
            }
            profile
        }
    }

    #[test]
    fn shard_slot_budgets_cover_each_lane_subgame() {
        let game = localized_game(50, 50, 4, 61);
        let sim = ShardedSim::new(game, ShardConfig::new(2, 61));
        let budgets = sim.shard_slot_budgets(1e-3);
        assert_eq!(budgets.len(), 2);
        assert!(budgets.iter().all(|&b| b.is_finite() && b > 0.0));
    }
}
