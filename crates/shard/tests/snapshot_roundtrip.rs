//! Shard-scoped checkpoint/resume properties:
//!
//! * a run checkpointed at any coordinator-round boundary and resumed into
//!   fresh engines retraces the *identical* remaining trajectory — same
//!   continuation log, same final profile, merged `ϕ` within `1e-9`;
//! * the [`Snapshot`] codec underneath round-trips engines that carry
//!   tombstones: capture materializes departed users away, and a second
//!   capture of the restored engine reproduces the same bytes.

use proptest::prelude::*;
use vcs_core::ids::UserId;
use vcs_core::{potential, Engine, Profile};
use vcs_online::Snapshot;
use vcs_shard::{localized_game, partition, ShardConfig, ShardedSim};

proptest! {
    /// Checkpoint each shard mid-convergence, restore into fresh engines,
    /// and the resumed run retraces the original trajectory exactly.
    #[test]
    fn checkpoint_resume_retraces_identical_trajectory(
        seed in any::<u64>(),
        users in 8usize..40,
        shards in 1usize..5,
        pre_rounds in 0u32..3,
    ) {
        let game = localized_game(users, users.max(12), 3, seed);
        let config = ShardConfig::new(shards, seed);
        let mut full = ShardedSim::new(game.clone(), config.clone());
        for _ in 0..pre_rounds {
            if full.is_converged() {
                break;
            }
            full.step_round();
        }
        let checkpoint = full.checkpoint();
        let split = full.log().len();
        let a = full.run();

        let mut resumed = ShardedSim::resume(game.clone(), config, checkpoint)
            .expect("a just-captured checkpoint decodes");
        let b = resumed.run();

        prop_assert_eq!(&a.choices, &b.choices);
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.converged, b.converged);
        prop_assert_eq!(&a.log[split..], &b.log[..]);
        let phi_a = potential(&game, &Profile::new(&game, a.choices.clone()));
        let phi_b = potential(&game, &Profile::new(&game, b.choices.clone()));
        prop_assert!((phi_a - phi_b).abs() <= 1e-9);
    }

    /// The snapshot codec under the shard checkpoint covers the tombstone/
    /// materialize path: capture an engine with departed users, restore,
    /// re-capture — the bytes are reproduced and `ϕ` is preserved.
    #[test]
    fn tombstoned_shard_engines_roundtrip_through_the_codec(
        seed in any::<u64>(),
        users in 10usize..30,
        removals in 1usize..4,
    ) {
        let game = localized_game(users, users, 3, seed);
        let plan = partition(&game, 2);
        let members = plan.members(0);
        prop_assume!(members.len() > removals + 1);
        let sub = game.subgame(&members);
        let profile = Profile::all_first(&sub);
        let mut engine = Engine::new_owned(sub, profile);

        // Tombstone a few users mid-life, then let the dynamics move on so
        // the captured state is not the trivial post-churn profile.
        for k in 0..removals {
            let victim = UserId::from_index((seed as usize + k * 7) % members.len());
            if engine.is_active(victim) && engine.active_count() > 1 {
                engine.remove_user(victim).expect("active user removes");
            }
        }
        let movers: Vec<UserId> = engine.active_users().take(4).collect();
        for user in movers {
            if let Some(route) = engine.best_route_set(user).first() {
                engine.apply_move(user, route);
            }
        }

        let bytes = Snapshot::capture(&engine).encode();
        let restored = Snapshot::decode(&bytes).expect("own encoding decodes").restore();
        prop_assert_eq!(restored.game().users().len(), engine.active_count());
        prop_assert!((restored.potential() - engine.potential()).abs() <= 1e-9);
        let again = Snapshot::capture(&restored).encode();
        // Re-capture of a restored engine is a codec fixpoint.
        prop_assert_eq!(again, bytes);
    }
}
