//! Shard checkpoint/resume: a self-contained binary snapshot of a live
//! engine's game and strategy profile.
//!
//! [`Snapshot::capture`] materializes the engine (tombstoned departures are
//! compacted away and user ids renumbered densely — see
//! [`Engine::materialize`]); [`Snapshot::restore`] rebuilds an owned engine
//! from it. The byte codec is built on [`vcs_obs::wire`] (big-endian
//! fixed-width fields, length prefixes guarded against hostile values,
//! trailing bytes rejected) so a shard can be checkpointed to disk or
//! shipped to another process. Route polyline geometry is display-only and is **not** carried
//! in the snapshot; task locations are (they define coverage provenance).
//!
//! Decoding re-validates everything through [`Game::new`] and
//! [`Game::validate_profile`], so a corrupted or adversarial snapshot is
//! rejected with a [`SnapshotError`] instead of producing an inconsistent
//! engine.

use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{
    Engine, Game, GameError, PlatformParams, Profile, Route, Task, User, UserPrefs, WeightBounds,
};
use vcs_obs::wire::{Reader, WireError, Writer};

/// Format magic: `b"VCSO"`.
const MAGIC: u32 = 0x5643_534F;
/// Format version; bump on layout changes.
const VERSION: u8 = 1;

/// Why a snapshot failed to decode.
#[derive(Debug, PartialEq)]
pub enum SnapshotError {
    /// The byte stream is malformed (truncated, bad magic, hostile length).
    Codec(&'static str),
    /// The bytes parsed but describe an invalid game or profile.
    Invalid(GameError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Codec(msg) => write!(f, "snapshot codec error: {msg}"),
            SnapshotError::Invalid(err) => write!(f, "snapshot describes an invalid game: {err}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Codec(match e {
            WireError::Truncated { .. } => "truncated snapshot",
            WireError::BadLength { .. } => "length prefix exceeds snapshot size",
            WireError::Trailing { .. } => "trailing bytes after snapshot",
        })
    }
}

/// A checkpoint of one shard: the compacted game plus the current profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The materialized game (dense user ids, no tombstones).
    pub game: Game,
    /// The profile at capture time, aligned with `game`'s user ids.
    pub choices: Vec<RouteId>,
}

impl Snapshot {
    /// Captures the engine's current state. Departed users are compacted
    /// away; ids are renumbered densely in ascending order.
    pub fn capture(engine: &Engine<'_>) -> Self {
        let (game, choices, _id_map) = engine.materialize();
        Self { game, choices }
    }

    /// Rebuilds an owned engine from the checkpoint (shard resume).
    pub fn restore(self) -> Engine<'static> {
        let profile = Profile::try_new(&self.game, self.choices)
            .expect("snapshot profile was validated at capture or decode");
        Engine::new_owned(self.game, profile)
    }

    /// Serializes the checkpoint to a byte frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u32(MAGIC);
        buf.put_u8(VERSION);
        let params = self.game.params();
        buf.put_f64(params.phi);
        buf.put_f64(params.theta);
        let bounds = self.game.bounds();
        buf.put_f64(bounds.e_min);
        buf.put_f64(bounds.e_max);
        buf.put_len(self.game.task_count());
        for task in self.game.tasks() {
            buf.put_f64(task.base_reward);
            buf.put_f64(task.increment);
            match task.location {
                Some((x, y)) => {
                    buf.put_u8(1);
                    buf.put_f64(x);
                    buf.put_f64(y);
                }
                None => buf.put_u8(0),
            }
        }
        buf.put_len(self.game.user_count());
        for (user, &choice) in self.game.users().iter().zip(&self.choices) {
            buf.put_f64(user.prefs.alpha);
            buf.put_f64(user.prefs.beta);
            buf.put_f64(user.prefs.gamma);
            buf.put_u32(choice.0);
            buf.put_len(user.routes.len());
            for route in &user.routes {
                buf.put_f64(route.detour);
                buf.put_f64(route.congestion);
                buf.put_len(route.tasks.len());
                for task in &route.tasks {
                    buf.put_u32(task.0);
                }
            }
        }
        buf
    }

    /// Deserializes and fully re-validates a checkpoint frame.
    pub fn decode(frame: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(frame);
        if r.u32()? != MAGIC {
            return Err(SnapshotError::Codec("bad snapshot magic"));
        }
        if r.u8()? != VERSION {
            return Err(SnapshotError::Codec("unsupported snapshot version"));
        }
        let params = PlatformParams::new(r.f64()?, r.f64()?);
        let bounds = WeightBounds {
            e_min: r.f64()?,
            e_max: r.f64()?,
        };
        // Minimum on-wire sizes guard each length prefix: 17 bytes per task
        // (a + μ + location flag), 36 per user (prefs + choice + route
        // count), 20 per route (costs + task count), 4 per task id.
        let n_tasks = r.len(17)?;
        let mut tasks = Vec::with_capacity(n_tasks);
        for k in 0..n_tasks {
            let base = r.f64()?;
            let mu = r.f64()?;
            let id = TaskId::from_index(k);
            tasks.push(match r.u8()? {
                0 => Task::new(id, base, mu),
                _ => Task::at(id, base, mu, (r.f64()?, r.f64()?)),
            });
        }
        let n_users = r.len(36)?;
        let mut users = Vec::with_capacity(n_users);
        let mut choices = Vec::with_capacity(n_users);
        for i in 0..n_users {
            let prefs = UserPrefs::new(r.f64()?, r.f64()?, r.f64()?);
            choices.push(RouteId(r.u32()?));
            let n_routes = r.len(20)?;
            let mut routes = Vec::with_capacity(n_routes);
            for j in 0..n_routes {
                let detour = r.f64()?;
                let congestion = r.f64()?;
                let n_route_tasks = r.len(4)?;
                let mut route_tasks = Vec::with_capacity(n_route_tasks);
                for _ in 0..n_route_tasks {
                    route_tasks.push(TaskId(r.u32()?));
                }
                let id = RouteId::from_index(j);
                routes.push(Route::new(id, route_tasks, detour, congestion));
            }
            users.push(User::new(UserId::from_index(i), prefs, routes));
        }
        r.finish()?;
        let game = Game::new(tasks, users, params, bounds).map_err(SnapshotError::Invalid)?;
        game.validate_profile(&choices)
            .map_err(SnapshotError::Invalid)?;
        Ok(Self { game, choices })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcs_core::examples::fig1_instance;
    use vcs_core::{apply_churn, ChurnEvent, UserSpec};

    fn fig1_engine() -> Engine<'static> {
        let game = fig1_instance();
        let choices = vec![RouteId(0); game.user_count()];
        let profile = Profile::try_new(&game, choices).expect("valid");
        Engine::new_owned(game, profile)
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let engine = fig1_engine();
        let snap = Snapshot::capture(&engine);
        let decoded = Snapshot::decode(&snap.encode()).expect("roundtrip decodes");
        assert_eq!(snap, decoded);
        let restored = decoded.restore();
        assert_eq!(restored.potential_fresh(), engine.potential_fresh());
        assert_eq!(restored.profile(), engine.profile());
    }

    #[test]
    fn snapshot_after_churn_compacts_tombstones() {
        let mut engine = fig1_engine();
        let spec = UserSpec::new(
            UserPrefs::neutral(),
            vec![Route::new(RouteId(0), vec![TaskId(0)], 0.2, 0.1)],
        );
        apply_churn(
            &mut engine,
            &ChurnEvent::Join {
                spec,
                initial: RouteId(0),
            },
        )
        .expect("valid join");
        apply_churn(&mut engine, &ChurnEvent::Leave { user: UserId(1) }).expect("valid leave");
        let snap = Snapshot::capture(&engine);
        assert_eq!(snap.game.user_count(), 3, "tombstone compacted away");
        let restored = Snapshot::decode(&snap.encode()).expect("decodes").restore();
        let diff = (restored.potential_fresh() - engine.potential_fresh()).abs();
        assert!(
            diff <= 1e-12,
            "ϕ drifted by {diff} across checkpoint/resume"
        );
    }

    #[test]
    fn snapshot_roundtrips_slab_state_after_churn() {
        use vcs_core::ids::TaskId as Tid;
        use vcs_core::response::ProfitView;
        // Drive the live engine through joins, a departure (tombstone +
        // inverted-index staleness) and moves, so every slab has been grown
        // and compacted at least once before the checkpoint.
        let mut engine = fig1_engine();
        let joined = engine
            .add_user(
                UserPrefs::neutral(),
                vec![
                    Route::new(RouteId(0), vec![Tid(0)], 0.2, 0.1),
                    Route::new(RouteId(1), vec![Tid(1)], 0.1, 0.3),
                ],
                RouteId(0),
            )
            .expect("valid join");
        engine.remove_user(UserId(1)).expect("valid leave");
        engine.apply_move(joined, RouteId(1));
        let restored = Snapshot::decode(&Snapshot::capture(&engine).encode())
            .expect("decodes")
            .restore();
        // The restored engine rebuilds its slabs from the compacted game;
        // every surviving user's profit must come out bit-identical, and the
        // rebuilt inverted index must cover exactly the live participants.
        let (_, _, id_map) = engine.materialize();
        assert_eq!(id_map.len(), restored.game().user_count());
        for (new_idx, &old) in id_map.iter().enumerate() {
            let new = UserId::from_index(new_idx);
            assert_eq!(
                engine.profit(old).to_bits(),
                restored.profit(new).to_bits(),
                "profit of pre-churn user {old} drifted across checkpoint/resume"
            );
        }
        for task in restored.game().tasks() {
            assert_eq!(
                engine.profile().participants(task.id),
                restored.profile().participants(task.id),
                "participant count of {} drifted",
                task.id
            );
            for &u in restored.users_covering(task.id) {
                assert!(restored.is_active(u));
            }
        }
        assert_eq!(
            restored.potential().to_bits(),
            restored.potential_fresh().to_bits(),
            "restored running ϕ must equal its own fresh recomputation"
        );
    }

    #[test]
    fn truncated_and_corrupt_snapshots_rejected() {
        let snap = Snapshot::capture(&fig1_engine());
        let frame = snap.encode();
        for cut in [0, 3, 4, 5, 20, frame.len() - 1] {
            let err = Snapshot::decode(&frame[0..cut]).expect_err("truncation detected");
            assert!(matches!(err, SnapshotError::Codec(_)), "cut {cut}: {err}");
        }
        // Flip the magic.
        let mut bad = frame.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            Snapshot::decode(&bad),
            Err(SnapshotError::Codec("bad snapshot magic"))
        );
        // Hostile task-count prefix.
        let mut hostile = frame.clone();
        hostile[37..41].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            Snapshot::decode(&hostile),
            Err(SnapshotError::Codec("length prefix exceeds snapshot size"))
        );
        // A valid snapshot plus one byte.
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(
            Snapshot::decode(&long),
            Err(SnapshotError::Codec("trailing bytes after snapshot"))
        );
    }

    #[test]
    fn semantically_invalid_snapshot_rejected() {
        let mut snap = Snapshot::capture(&fig1_engine());
        // Point a choice past the user's route set; the bytes stay
        // well-formed but validation must refuse them.
        snap.choices[0] = RouteId(99);
        assert!(matches!(
            Snapshot::decode(&snap.encode()),
            Err(SnapshotError::Invalid(GameError::InvalidProfile { .. }))
        ));
    }
}
