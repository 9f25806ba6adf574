//! Property-based tests of the wire protocol: total decoding (no panics on
//! arbitrary bytes) and lossless round-trips for arbitrary messages.

use proptest::prelude::*;
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_runtime::{PlatformMsg, UserMsg};

fn arb_task_counts() -> impl Strategy<Value = Vec<(TaskId, u32)>> {
    prop::collection::vec((any::<u32>(), any::<u32>()), 0..20)
        .prop_map(|v| v.into_iter().map(|(t, n)| (TaskId(t), n)).collect())
}

fn arb_platform_msg() -> impl Strategy<Value = PlatformMsg> {
    prop_oneof![
        (
            prop::collection::vec((any::<u32>(), 0.0f64..100.0, 0.0f64..1.0), 0..20),
            arb_task_counts(),
        )
            .prop_map(|(tasks, counts)| PlatformMsg::Init {
                tasks: tasks
                    .into_iter()
                    .map(|(t, a, mu)| (TaskId(t), a, mu))
                    .collect(),
                counts,
            }),
        arb_task_counts().prop_map(|counts| PlatformMsg::Counts { counts }),
        Just(PlatformMsg::Grant),
        Just(PlatformMsg::Deny),
        Just(PlatformMsg::Terminate),
    ]
}

fn arb_user_msg() -> impl Strategy<Value = UserMsg> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(u, r)| UserMsg::Initial {
            user: UserId(u),
            route: RouteId(r),
        }),
        (
            any::<u32>(),
            any::<u32>(),
            -1e9f64..1e9,
            -1e9f64..1e9,
            prop::collection::vec(any::<u32>(), 0..16),
        )
            .prop_map(|(u, r, gain, tau, tasks)| UserMsg::Request {
                user: UserId(u),
                new_route: RouteId(r),
                gain,
                tau,
                affected: tasks.into_iter().map(TaskId).collect(),
            }),
        any::<u32>().prop_map(|u| UserMsg::NoRequest { user: UserId(u) }),
        (any::<u32>(), any::<u32>()).prop_map(|(u, r)| UserMsg::Updated {
            user: UserId(u),
            route: RouteId(r),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn platform_roundtrip(msg in arb_platform_msg()) {
        let frame = msg.encode();
        prop_assert_eq!(PlatformMsg::decode(&frame).unwrap(), msg);
    }

    #[test]
    fn user_roundtrip(msg in arb_user_msg()) {
        let frame = msg.encode();
        prop_assert_eq!(UserMsg::decode(&frame).unwrap(), msg);
    }

    /// Decoding arbitrary byte garbage never panics; it either errors or
    /// yields a message that re-encodes to a decodable frame.
    #[test]
    fn decoding_is_total(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let frame = &bytes;
        if let Ok(msg) = PlatformMsg::decode(frame) {
            prop_assert!(PlatformMsg::decode(&msg.encode()).is_ok());
        }
        if let Ok(msg) = UserMsg::decode(frame) {
            prop_assert!(UserMsg::decode(&msg.encode()).is_ok());
        }
    }

    /// Any truncation of a valid frame is rejected, never mis-parsed into a
    /// different valid message with trailing garbage accepted.
    #[test]
    fn truncations_rejected(msg in arb_user_msg(), cut in 0usize..64) {
        let frame = msg.encode();
        prop_assume!(cut < frame.len());
        let truncated = &frame[0..cut];
        if let Ok(decoded) = UserMsg::decode(truncated) {
            // The only way a prefix decodes is if it is itself a complete
            // frame of a *different* message — impossible with this codec
            // because every variant's length is determined by its content.
            prop_assert_eq!(decoded, msg);
        }
    }
}
