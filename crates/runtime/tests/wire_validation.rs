//! Untrusted-wire validation: frames that decode fine but describe invalid
//! game state must be rejected by the platform's fallible constructors, not
//! panic — the codec layer checks only framing, the game layer checks
//! semantics. Exercises `Profile::try_new` rejection paths through
//! `PlatformState::try_new` and the churn (`Join`/`Leave`) admission paths
//! through `PlatformState::apply_churn_msg`.

use vcs_core::examples::fig1_instance;
use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{GameError, Route, UserPrefs, UserSpec};
use vcs_runtime::{PlatformState, SchedulerKind, UserMsg};

/// Decodes a frame end-to-end first, as the runtimes do, so the tests cover
/// the real wire → platform path rather than hand-built messages.
fn roundtrip(msg: UserMsg) -> UserMsg {
    UserMsg::decode(&msg.encode()).expect("well-formed frame decodes")
}

#[test]
fn initial_decisions_with_wrong_user_count_rejected() {
    let game = fig1_instance();
    // Fig. 1 has three users; two initial decisions is a protocol violation.
    let short = PlatformState::try_new(&game, SchedulerKind::Suu, 0, vec![RouteId(0), RouteId(0)]);
    assert!(matches!(short, Err(GameError::InvalidProfile { .. })));
    // Too many decisions is equally invalid.
    let long = PlatformState::try_new(&game, SchedulerKind::Suu, 0, vec![RouteId(0); 4]);
    assert!(matches!(long, Err(GameError::InvalidProfile { .. })));
}

#[test]
fn initial_decision_with_out_of_range_route_rejected() {
    let game = fig1_instance();
    // User 1 has two routes; RouteId(7) points past its recommended set.
    let result = PlatformState::try_new(
        &game,
        SchedulerKind::Puu,
        0,
        vec![RouteId(0), RouteId(7), RouteId(0)],
    );
    assert!(matches!(result, Err(GameError::InvalidProfile { .. })));
}

#[test]
fn join_frame_with_empty_route_set_rejected() {
    let game = fig1_instance();
    let mut platform = PlatformState::new(
        &game,
        SchedulerKind::Suu,
        0,
        vec![RouteId(0), RouteId(0), RouteId(0)],
    );
    let msg = roundtrip(UserMsg::Join {
        spec: UserSpec::new(UserPrefs::neutral(), vec![]),
        initial: RouteId(0),
    });
    assert!(matches!(
        platform.apply_churn_msg(&msg),
        Err(GameError::EmptyRouteSet { .. })
    ));
    // The rejected join left no trace: the next valid join gets id 3.
    assert_eq!(platform.game().user_count(), 3);
}

#[test]
fn join_frame_with_out_of_range_initial_rejected() {
    let game = fig1_instance();
    let mut platform = PlatformState::new(
        &game,
        SchedulerKind::Suu,
        0,
        vec![RouteId(0), RouteId(0), RouteId(0)],
    );
    let msg = roundtrip(UserMsg::Join {
        spec: UserSpec::new(
            UserPrefs::neutral(),
            vec![Route::new(RouteId(0), vec![TaskId(0)], 0.0, 0.0)],
        ),
        initial: RouteId(5),
    });
    assert!(matches!(
        platform.apply_churn_msg(&msg),
        Err(GameError::InvalidProfile { .. })
    ));
}

#[test]
fn join_frame_with_unknown_task_rejected() {
    let game = fig1_instance();
    let mut platform = PlatformState::new(
        &game,
        SchedulerKind::Puu,
        0,
        vec![RouteId(0), RouteId(0), RouteId(0)],
    );
    // Fig. 1 has three tasks; TaskId(9) does not exist.
    let msg = roundtrip(UserMsg::Join {
        spec: UserSpec::new(
            UserPrefs::neutral(),
            vec![Route::new(RouteId(0), vec![TaskId(9)], 0.0, 0.0)],
        ),
        initial: RouteId(0),
    });
    assert!(matches!(
        platform.apply_churn_msg(&msg),
        Err(GameError::UnknownTask {
            task: TaskId(9),
            ..
        })
    ));
}

#[test]
fn join_frame_with_out_of_bounds_weights_rejected() {
    let game = fig1_instance();
    let mut platform = PlatformState::new(
        &game,
        SchedulerKind::Suu,
        0,
        vec![RouteId(0), RouteId(0), RouteId(0)],
    );
    // α = 0 violates the paper's e_min > 0 bound; the frame decodes fine and
    // is rejected at game validation, never panicking.
    let msg = roundtrip(UserMsg::Join {
        spec: UserSpec::new(
            UserPrefs::new(0.0, 0.5, 0.5),
            vec![Route::new(RouteId(0), vec![TaskId(0)], 0.0, 0.0)],
        ),
        initial: RouteId(0),
    });
    assert!(matches!(
        platform.apply_churn_msg(&msg),
        Err(GameError::UserWeightOutOfRange { name: "alpha", .. })
    ));
}

#[test]
fn leave_frame_for_unknown_user_rejected() {
    let game = fig1_instance();
    let mut platform = PlatformState::new(
        &game,
        SchedulerKind::Suu,
        0,
        vec![RouteId(0), RouteId(0), RouteId(0)],
    );
    let msg = roundtrip(UserMsg::Leave { user: UserId(42) });
    assert!(matches!(
        platform.apply_churn_msg(&msg),
        Err(GameError::UnknownUser { user: UserId(42) })
    ));
}
