//! Adversarial robustness of the recorder/post-mortem pipeline: random
//! corruption of the three wire formats a sharded deployment leaves behind
//! must be *rejected or localized*, never a panic.
//!
//! * [`BoundaryFrame`] bytes — bit flips and truncation against the binary
//!   codec: length or magic damage is always rejected, any other flip
//!   decodes to a frame or a clean error;
//! * JSONL trace lines — byte flips and mid-line truncation against
//!   `parse_line`: every mutation either reparses as a valid event or
//!   errors, and truncation strictly inside a line always errors;
//! * stamped per-shard streams — reordering and head-truncation against
//!   the merge-aware causal validator: both mutation classes are flagged
//!   (seq discontinuity, Lamport regression, or an orphaned receive);
//! * recorded ϕ/ΣP trajectories — a single flipped mantissa bit in one
//!   `MoveCommitted` is localized by `locate_divergence`'s binary search
//!   to exactly the corrupted slot.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use vcs_bench::replay::{
    extract_moves, first_divergence_in_prefix, flip_mantissa_bit, locate_divergence, RecordedMove,
    TOLERANCE,
};
use vcs_bench::synthetic_game;
use vcs_core::ids::RouteId;
use vcs_core::{Engine, Game, Profile};
use vcs_obs::trace::{event_to_json, parse_line};
use vcs_obs::{validate_causal_order_merged, Event, Obs, RingBufferSubscriber, StampedStream};
use vcs_runtime::sync_runtime::spawn_agents;
use vcs_runtime::{run_threaded, SchedulerKind};
use vcs_shard::{localized_game, BoundaryFrame, ShardConfig, ShardedSim, FRAME_LEN};

// ---------------------------------------------------------------------------
// Shared corpora (built once: proptest runs hundreds of cases per property)
// ---------------------------------------------------------------------------

/// Per-shard stamped streams from one converged 3-shard deployment.
fn sharded_streams() -> &'static Vec<StampedStream> {
    static CELL: OnceLock<Vec<StampedStream>> = OnceLock::new();
    CELL.get_or_init(|| {
        let shards = 3;
        let game = localized_game(100, 90, 5, 13);
        let mut sim = ShardedSim::new(game, ShardConfig::new(shards, 13));
        let rings: Vec<Arc<RingBufferSubscriber>> = (0..shards)
            .map(|s| {
                let ring = Arc::new(RingBufferSubscriber::new(1 << 16));
                sim.set_shard_obs(s, Obs::new(ring.clone()));
                ring
            })
            .collect();
        let outcome = sim.run();
        assert!(outcome.converged && outcome.frames_sent > 0);
        let streams: Vec<StampedStream> = rings
            .iter()
            .enumerate()
            .map(|(s, ring)| StampedStream::new(s as u32, ring.events()))
            .collect();
        assert!(validate_causal_order_merged(&streams).is_empty());
        streams
    })
}

/// The corpus of serialized trace lines the JSONL mutations draw from.
fn trace_lines() -> &'static Vec<String> {
    static CELL: OnceLock<Vec<String>> = OnceLock::new();
    CELL.get_or_init(|| {
        let lines: Vec<String> = sharded_streams()
            .iter()
            .flat_map(|s| s.events.iter().map(event_to_json))
            .collect();
        assert!(lines.len() > 100);
        lines
    })
}

/// One threaded-runtime recording plus its reconstruction recipe: the game
/// and the agent seed, which together rebuild the initial profile.
fn recorded_run() -> &'static (Game, Vec<RecordedMove>, u64) {
    static CELL: OnceLock<(Game, Vec<RecordedMove>, u64)> = OnceLock::new();
    CELL.get_or_init(|| {
        let seed = 7u64;
        let game = synthetic_game(120, 120, 11);
        let ring = Arc::new(RingBufferSubscriber::new(1 << 18));
        let obs = Obs::new(ring.clone());
        run_threaded(&game, SchedulerKind::Puu, seed, 200_000, &obs);
        let moves = extract_moves(&ring.events());
        assert!(moves.len() > 20, "corpus run must commit moves");
        (game, moves, seed)
    })
}

/// Rebuilds the recorded run's engine the way `replay_debug` does: same
/// game, same agent-announced initial routes.
fn rebuild<'g>(game: &'g Game, seed: u64) -> Engine<'g> {
    let choices: Vec<RouteId> = spawn_agents(game, seed).iter().map(|a| a.current).collect();
    Engine::new(game, Profile::new(game, choices))
}

fn arbitrary_frame(bits: u64) -> BoundaryFrame {
    BoundaryFrame {
        shard: (bits & 0xFF) as u32,
        user: ((bits >> 8) & 0xFFFF) as u32,
        from_route: ((bits >> 24) & 0xFF) as u32,
        to_route: ((bits >> 32) & 0xFF) as u32,
        seq: (bits >> 40) & 0xFFF,
        lamport: (bits >> 52) & 0xFFF,
    }
}

proptest! {
    // ---------------------------------------------------------------------
    // Binary frame codec
    // ---------------------------------------------------------------------

    /// Any single-bit flip of an encoded frame decodes or errors — never a
    /// panic — and damage to the magic bytes is always rejected.
    #[test]
    fn frame_bit_flips_decode_or_reject(bits in any::<u64>(), flip in 0usize..FRAME_LEN * 8) {
        let frame = arbitrary_frame(bits);
        let mut bytes = frame.encode();
        bytes[flip / 8] ^= 1 << (flip % 8);
        match BoundaryFrame::decode(&bytes) {
            Err(_) => prop_assert!(flip / 8 < 4, "only magic damage is rejectable"),
            Ok(decoded) => {
                prop_assert!(flip / 8 >= 4, "magic damage must be rejected");
                // The flip landed in exactly one field.
                prop_assert_ne!(decoded, frame);
            }
        }
    }

    /// Every truncation of a valid frame is rejected by length, and short
    /// garbage never panics the decoder.
    #[test]
    fn frame_truncation_is_always_rejected(bits in any::<u64>(), keep in 0usize..FRAME_LEN) {
        let bytes = arbitrary_frame(bits).encode();
        prop_assert!(BoundaryFrame::decode(&bytes[..keep]).is_err());
    }

    // ---------------------------------------------------------------------
    // JSONL trace lines
    // ---------------------------------------------------------------------

    /// A random byte flip in a recorded trace line either errors out of
    /// `parse_line` or reparses as a valid event (the flip hit a value, not
    /// the structure) — in no case a panic.
    #[test]
    fn jsonl_byte_flips_reparse_or_reject(pick in any::<u64>(), flip in any::<u64>(), bit in 0u8..8) {
        let lines = trace_lines();
        let line = &lines[(pick % lines.len() as u64) as usize];
        let mut bytes = line.clone().into_bytes();
        let at = (flip % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        // Invalid UTF-8 counts as rejection at the string boundary.
        if let Ok(mutated) = String::from_utf8(bytes) {
            if let Ok(event) = parse_line(&mutated) {
                // Survivors must re-serialize cleanly (the parse produced a
                // real event, not a half-read).
                prop_assert!(parse_line(&event_to_json(&event)).is_ok());
            }
        }
    }

    /// Truncating a trace line strictly inside its JSON object is always a
    /// parse error, never a panic.
    #[test]
    fn jsonl_truncation_is_rejected(pick in any::<u64>(), cut in any::<u64>()) {
        let lines = trace_lines();
        let line = &lines[(pick % lines.len() as u64) as usize];
        let mut at = 1 + (cut % (line.len() as u64 - 1)) as usize;
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        if at > 0 {
            prop_assert!(parse_line(&line[..at]).is_err());
        }
    }

    // ---------------------------------------------------------------------
    // ϕ-trajectory corruption → exact localization
    // ---------------------------------------------------------------------

    /// One flipped mantissa bit in one recorded move's ϕ or ΣP is found by
    /// the binary search at exactly the corrupted slot.
    #[test]
    fn single_bit_corruption_is_localized_to_the_exact_slot(
        slot_sel in any::<u64>(),
        corrupt_profit in any::<bool>(),
    ) {
        let (game, moves, seed) = recorded_run();
        let slot = (slot_sel % moves.len() as u64) as usize;
        let mut corrupted = moves.clone();
        if corrupt_profit {
            corrupted[slot].total_profit = flip_mantissa_bit(corrupted[slot].total_profit);
            prop_assume!(
                (corrupted[slot].total_profit - moves[slot].total_profit).abs() > TOLERANCE
            );
        } else {
            corrupted[slot].phi = flip_mantissa_bit(corrupted[slot].phi);
            prop_assume!((corrupted[slot].phi - moves[slot].phi).abs() > TOLERANCE);
        }
        prop_assert_eq!(
            locate_divergence(|| rebuild(game, *seed), &corrupted),
            Some(slot)
        );
    }
}

// ---------------------------------------------------------------------------
// Stamped-stream mutations (deterministic: the corpus is fixed)
// ---------------------------------------------------------------------------

/// Indices of the stamped `FrameSent` events in one stream.
fn send_indices(stream: &StampedStream) -> Vec<usize> {
    stream
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::FrameSent { seq, .. } if *seq > 0))
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn clean_replay_of_the_recorded_corpus_has_no_divergence() {
    let (game, moves, seed) = recorded_run();
    assert_eq!(
        first_divergence_in_prefix(|| rebuild(game, *seed), moves, moves.len()),
        None,
        "the uncorrupted recording must replay bit-identically"
    );
}

#[test]
fn reordered_sends_within_a_shard_stream_are_flagged() {
    let streams = sharded_streams();
    for (victim, stream) in streams.iter().enumerate() {
        let sends = send_indices(stream);
        if sends.len() < 2 {
            continue;
        }
        let mut mutated = streams.clone();
        mutated[victim]
            .events
            .swap(sends[0], sends[sends.len() - 1]);
        let violations = validate_causal_order_merged(&mutated);
        assert!(
            !violations.is_empty(),
            "swapping sends {} and {} in shard {victim}'s stream must be flagged",
            sends[0],
            sends[sends.len() - 1]
        );
        return;
    }
    panic!("corpus has no stream with two sends to reorder");
}

#[test]
fn head_truncated_shard_stream_is_flagged() {
    let streams = sharded_streams();
    for (victim, stream) in streams.iter().enumerate() {
        let sends = send_indices(stream);
        // Two sends needed: dropping the first leaves a survivor whose
        // per-sender sequence number exposes the gap.
        if sends.len() < 2 {
            continue;
        }
        // Drop the stream's first send: its own seq chain gains a gap, and
        // replicas that recorded the matching receive may be orphaned.
        let mut mutated = streams.clone();
        mutated[victim].events.remove(sends[0]);
        let violations = validate_causal_order_merged(&mutated);
        assert!(
            !violations.is_empty(),
            "dropping shard {victim}'s first send must be flagged"
        );
        return;
    }
    panic!("corpus has no stream with a send to drop");
}
