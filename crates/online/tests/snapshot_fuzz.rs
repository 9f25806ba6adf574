//! Corruption fuzzing for the [`Snapshot`] byte codec: arbitrary bit flips,
//! truncations, and pure garbage must never panic the decoder and must
//! never be accepted silently — every `Ok` has passed full `Game::new` +
//! `validate_profile` re-validation, so it is restorable by construction.

use proptest::prelude::*;
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{Engine, Game, PlatformParams, Profile, Route, Task, User, UserPrefs};
use vcs_online::Snapshot;

/// A seeded random engine to snapshot — same family as the core generators.
fn random_engine(seed: u64) -> Engine<'static> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n_tasks = rng.random_range(1..=8usize);
    let n_users = rng.random_range(1..=8usize);
    let tasks: Vec<Task> = (0..n_tasks)
        .map(|k| {
            let id = TaskId::from_index(k);
            let base = rng.random_range(10.0..20.0);
            let mu = rng.random_range(0.0..1.0);
            if rng.random_range(0..2u8) == 0 {
                Task::new(id, base, mu)
            } else {
                Task::at(
                    id,
                    base,
                    mu,
                    (rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)),
                )
            }
        })
        .collect();
    let users: Vec<User> = (0..n_users)
        .map(|i| {
            let n_routes = rng.random_range(1..=4usize);
            let routes = (0..n_routes)
                .map(|r| {
                    let mut covered: Vec<TaskId> = (0..rng.random_range(0..5usize))
                        .map(|_| TaskId::from_index(rng.random_range(0..n_tasks)))
                        .collect();
                    covered.sort_unstable();
                    covered.dedup();
                    Route::new(
                        RouteId::from_index(r),
                        covered,
                        rng.random_range(0.0..5.0),
                        rng.random_range(0.0..5.0),
                    )
                })
                .collect();
            User::new(
                UserId::from_index(i),
                UserPrefs::new(
                    rng.random_range(0.1..0.9),
                    rng.random_range(0.1..0.9),
                    rng.random_range(0.1..0.9),
                ),
                routes,
            )
        })
        .collect();
    let choices: Vec<RouteId> = users
        .iter()
        .map(|u| RouteId::from_index(rng.random_range(0..u.routes.len())))
        .collect();
    let game = Game::with_paper_bounds(
        tasks,
        users,
        PlatformParams::new(rng.random_range(0.1..0.8), rng.random_range(0.1..0.8)),
    )
    .expect("generated instance is valid");
    let profile = Profile::new(&game, choices);
    Engine::new_owned(game, profile)
}

/// Decodes a (possibly mangled) frame and checks the codec's contract: no
/// panic ever, and any `Ok` is a fully re-validated, restorable snapshot.
fn assert_no_silent_acceptance(frame: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(decoded) = Snapshot::decode(frame) {
        prop_assert!(
            decoded.game.validate_profile(&decoded.choices).is_ok(),
            "decode returned a snapshot whose profile does not re-validate"
        );
        // Restoring must therefore succeed and yield a live engine; the
        // validated parameters guarantee a finite potential.
        let engine = decoded.restore();
        prop_assert!(engine.potential().is_finite());
    }
    Ok(())
}

proptest! {
    /// Random bit flips anywhere in the frame: decode never panics and
    /// never silently accepts an invalid game.
    #[test]
    fn bit_flips_never_panic_or_slip_through(
        seed in any::<u64>(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..16),
    ) {
        let engine = random_engine(seed);
        let frame = Snapshot::capture(&engine).encode();
        let mut bytes = frame.to_vec();
        for (index, bit) in flips {
            let at = index % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        assert_no_silent_acceptance(&bytes)?;
    }

    /// Truncation at an arbitrary cut point: a strict prefix is always
    /// rejected (the decoder needs every byte it reads), and never panics.
    #[test]
    fn truncations_are_always_rejected(
        seed in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let engine = random_engine(seed);
        let frame = Snapshot::capture(&engine).encode();
        let cut = cut % frame.len(); // strict prefix: 0..len-1
        prop_assert!(
            Snapshot::decode(&frame[0..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte frame decoded", frame.len()
        );
    }

    /// Combined mangle: flip bits *and* truncate. Anything can happen to
    /// the verdict, but never a panic and never silent acceptance.
    #[test]
    fn flip_then_truncate_never_panics(
        seed in any::<u64>(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 0..8),
        cut in any::<usize>(),
    ) {
        let engine = random_engine(seed);
        let frame = Snapshot::capture(&engine).encode();
        let mut bytes = frame.to_vec();
        for (index, bit) in flips {
            let at = index % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        let cut = cut % (bytes.len() + 1); // 0..=len: full frame allowed
        bytes.truncate(cut);
        assert_no_silent_acceptance(&bytes)?;
    }

    /// Pure garbage bytes (with and without a valid-looking header) never
    /// panic the decoder.
    #[test]
    fn garbage_never_panics(
        mut bytes in prop::collection::vec(any::<u8>(), 0..512),
        with_header in any::<bool>(),
    ) {
        if with_header && bytes.len() >= 5 {
            bytes[0..4].copy_from_slice(&0x5643_534Fu32.to_be_bytes());
            bytes[4] = 1;
        }
        assert_no_silent_acceptance(&bytes)?;
    }
}
