//! Golden digests of every public binary wire format: the platform ↔ user
//! protocol, the serving protocol, engine snapshots, telemetry frames, the
//! shard control protocol, boundary frames and ARQ datagrams.
//!
//! Each format encodes a fixed corpus that covers every variant, and the
//! encoded frames are digested (FNV-1a-64 over each frame's length and
//! bytes). A refactor of a codec must reproduce the bytes exactly.

use vcs::core::examples::fig1_instance;
use vcs::core::ids::{RouteId, TaskId, UserId};
use vcs::core::{Game, PlatformParams, Route, Task, User, UserPrefs, UserSpec, WeightBounds};
use vcs::obs::{NetStats, SpanCells, TelemetryFrame, COUNTER_NAMES};
use vcs::online::Snapshot;
use vcs::runtime::{
    PlatformMsg, RejectReason, ServeReply, ServeReplyBody, ServeRequest, ServeRequestBody, UserMsg,
    ANY_SHARD,
};
use vcs::shard::arq::{Datagram, DgramKind};
use vcs::shard::{BoundaryFrame, CtrlMsg};

/// FNV-1a, 64-bit, over each frame's length (little-endian `u64`) and then
/// its bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn frame(&mut self, frame: &[u8]) {
        let len = (frame.len() as u64).to_le_bytes();
        for &b in len.iter().chain(frame) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn platform_msgs() -> Vec<PlatformMsg> {
    vec![
        PlatformMsg::Init {
            tasks: vec![(TaskId(3), 12.5, 0.25), (TaskId(9), 18.0, 1.0)],
            counts: vec![(TaskId(3), 2), (TaskId(9), 0)],
        },
        PlatformMsg::Init {
            tasks: vec![],
            counts: vec![],
        },
        PlatformMsg::Counts {
            counts: vec![(TaskId(1), 7), (TaskId(u32::MAX), u32::MAX)],
        },
        PlatformMsg::Counts { counts: vec![] },
        PlatformMsg::Grant,
        PlatformMsg::Deny,
        PlatformMsg::Terminate,
    ]
}

fn user_msgs() -> Vec<UserMsg> {
    vec![
        UserMsg::Initial {
            user: UserId(4),
            route: RouteId(2),
        },
        UserMsg::Request {
            user: UserId(0),
            new_route: RouteId(1),
            gain: 1.75,
            tau: -3.5e-7,
            affected: vec![TaskId(0), TaskId(5), TaskId(6)],
        },
        UserMsg::Request {
            user: UserId(u32::MAX),
            new_route: RouteId(0),
            gain: f64::MAX,
            tau: 0.0,
            affected: vec![],
        },
        UserMsg::NoRequest { user: UserId(9) },
        UserMsg::Updated {
            user: UserId(1),
            route: RouteId(0),
        },
        UserMsg::Join {
            spec: UserSpec::new(
                UserPrefs::new(0.3, 0.6, 0.2),
                vec![
                    Route::new(RouteId(0), vec![TaskId(1), TaskId(4)], 1.5, 0.25),
                    Route::new(RouteId(1), vec![], 0.0, 3.0),
                ],
            ),
            initial: RouteId(1),
        },
        UserMsg::Join {
            spec: UserSpec::new(UserPrefs::neutral(), vec![]),
            initial: RouteId(0),
        },
        UserMsg::Leave { user: UserId(17) },
    ]
}

fn serve_requests() -> Vec<ServeRequest> {
    let bodies = [
        ServeRequestBody::Join { shard: ANY_SHARD },
        ServeRequestBody::Join { shard: 3 },
        ServeRequestBody::Leave {
            user: (7u64 << 32) | 42,
        },
        ServeRequestBody::BestRespond { user: 5 },
        ServeRequestBody::Query,
        ServeRequestBody::Shutdown,
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| ServeRequest {
            id: if i == 2 { u64::MAX } else { i as u64 },
            body,
        })
        .collect()
}

fn serve_replies() -> Vec<ServeReply> {
    let bodies = [
        ServeReplyBody::Joined {
            user: (3u64 << 32) | 1,
            slots: 17,
        },
        ServeReplyBody::Left { slots: 0 },
        ServeReplyBody::Responded { moved: true },
        ServeReplyBody::Responded { moved: false },
        ServeReplyBody::Stats {
            users: 100,
            slots: 12345,
            phi: -3.5,
        },
        ServeReplyBody::ShuttingDown,
        ServeReplyBody::Rejected {
            reason: RejectReason::UnknownUser,
        },
        ServeReplyBody::Rejected {
            reason: RejectReason::UnknownShard,
        },
        ServeReplyBody::Rejected {
            reason: RejectReason::ShuttingDown,
        },
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| ServeReply {
            id: 1000 + i as u64,
            body,
        })
        .collect()
}

/// The Fig. 1 game, plus a game with located and unlocated tasks and users
/// with empty-task routes.
fn snapshots() -> Vec<Snapshot> {
    let fig1 = fig1_instance();
    let fig1_choices = vec![RouteId(0); fig1.user_count()];
    let tasks = vec![
        Task::at(TaskId(0), 4.0, 0.5, (1.25, -2.5)),
        Task::new(TaskId(1), 7.5, 0.0),
        Task::at(TaskId(2), 0.75, 1.0, (0.0, 3.0)),
    ];
    let users = vec![
        User::new(
            UserId(0),
            UserPrefs::new(0.2, 0.5, 0.8),
            vec![
                Route::new(RouteId(0), vec![TaskId(0), TaskId(2)], 1.5, 0.25),
                Route::new(RouteId(1), vec![], 0.0, 2.0),
            ],
        ),
        User::new(
            UserId(1),
            UserPrefs::new(0.9, 0.1, 0.4),
            vec![Route::new(RouteId(0), vec![TaskId(1)], 0.5, 0.5)],
        ),
    ];
    let located = Game::new(
        tasks,
        users,
        PlatformParams::new(0.3, 0.7),
        WeightBounds::PAPER,
    )
    .expect("valid game");
    vec![
        Snapshot {
            game: fig1,
            choices: fig1_choices,
        },
        Snapshot {
            game: located,
            choices: vec![RouteId(1), RouteId(0)],
        },
    ]
}

fn telemetry_frames() -> Vec<TelemetryFrame> {
    let mut full = TelemetryFrame::empty(2);
    full.incarnation = 3;
    full.seq = 41;
    full.counters = (0..COUNTER_NAMES.len() as u64).map(|i| i * 7 + 1).collect();
    full.lanes = [1, 2, 3, u64::MAX];
    for (i, row) in full.spans.iter_mut().enumerate() {
        let mut cells = SpanCells::zero();
        cells.sum_nanos = 250_000 * i as u64;
        for (j, cell) in cells.buckets.iter_mut().enumerate() {
            *cell = (i * 31 + j) as u64;
        }
        *row = cells;
    }
    full.net = NetStats {
        retransmissions: 7,
        drops: 9,
        naks: 3,
        dup_drops: 2,
        rto_fires: 4,
        in_flight: 1,
        srtt_ms: 12,
    };
    full.watchdog = [1, 0, 5];
    full.phi_bits = 4.5f64.to_bits();
    full.profit_bits = (-9.25f64).to_bits();
    vec![TelemetryFrame::empty(0), full]
}

fn boundary_frames() -> Vec<BoundaryFrame> {
    vec![
        BoundaryFrame {
            shard: 3,
            user: 812,
            from_route: 1,
            to_route: 2,
            seq: 41,
            lamport: 97,
        },
        BoundaryFrame {
            shard: u32::MAX,
            user: 0,
            from_route: u32::MAX,
            to_route: 0,
            seq: u64::MAX,
            lamport: 1,
        },
    ]
}

fn ctrl_msgs() -> Vec<CtrlMsg> {
    let frame = boundary_frames()[0].encode().to_vec();
    vec![
        CtrlMsg::Hello {
            shard: 1,
            ckpt_round: 0,
        },
        CtrlMsg::RunInterior { round: 7 },
        CtrlMsg::InteriorPart {
            moves: vec![(1, 2), (u32::MAX, 0)],
        },
        CtrlMsg::InteriorPart { moves: vec![] },
        CtrlMsg::InteriorDone {
            round: 7,
            converged: true,
            slots: 1234,
            moves: 2,
        },
        CtrlMsg::InteriorDone {
            round: 8,
            converged: false,
            slots: u64::MAX,
            moves: 0,
        },
        CtrlMsg::BestRespond { user: 44 },
        CtrlMsg::Routes {
            user: 44,
            routes: vec![0, 3, 9],
        },
        CtrlMsg::Routes {
            user: 45,
            routes: vec![],
        },
        CtrlMsg::Commit { user: 44, route: 3 },
        CtrlMsg::Committed {
            frame: frame.clone(),
        },
        CtrlMsg::Apply { frame },
        CtrlMsg::Applied { seq: 41 },
        CtrlMsg::FrameGap {
            shard: 2,
            from_seq: 40,
        },
        CtrlMsg::Checkpoint { round: 9 },
        CtrlMsg::CheckpointDone { round: 9 },
        CtrlMsg::Finish,
        CtrlMsg::DonePart {
            entries: vec![(5, 1), (6, 0)],
        },
        CtrlMsg::Done {
            shard: 2,
            alerts: 1,
            slots: 99,
            entries: 2,
        },
        CtrlMsg::Telemetry {
            bytes: telemetry_frames()[1].encode(),
        },
    ]
}

fn datagrams() -> Vec<Datagram> {
    vec![
        Datagram {
            kind: DgramKind::Data,
            seq: 42,
            payload: CtrlMsg::Commit { user: 44, route: 3 }.encode(),
        },
        Datagram {
            kind: DgramKind::Data,
            seq: 1,
            payload: vec![],
        },
        Datagram {
            kind: DgramKind::Ack,
            seq: 41,
            payload: vec![],
        },
        Datagram {
            kind: DgramKind::Nak,
            seq: u64::MAX,
            payload: vec![],
        },
    ]
}

/// Digests a corpus's encoded frames.
fn digest<T, F: AsRef<[u8]>>(corpus: &[T], encode: impl Fn(&T) -> F) -> u64 {
    let mut h = Fnv::new();
    for value in corpus {
        h.frame(encode(value).as_ref());
    }
    h.0
}

/// Checks that every frame of a corpus decodes back to its value.
fn roundtrips<T: PartialEq + std::fmt::Debug, F: AsRef<[u8]>, E: std::fmt::Debug>(
    corpus: &[T],
    encode: impl Fn(&T) -> F,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    for value in corpus {
        assert_eq!(&decode(encode(value).as_ref()).expect("decode"), value);
    }
}

/// Recorded before the codecs moved onto `vcs_obs::wire`.
const GOLDEN: [(&str, u64); 9] = [
    ("PlatformMsg", 0x67cd249c777d4789),
    ("UserMsg", 0x19e98f18cd947627),
    ("ServeRequest", 0xf19c0e27b283ef71),
    ("ServeReply", 0x6d0f8dfb2e6b8c8f),
    ("Snapshot", 0x1d78ce5e564ad0fb),
    ("TelemetryFrame", 0x7aa53691f1c1fb64),
    ("CtrlMsg", 0x52d3bf72a794c30a),
    ("BoundaryFrame", 0x4563bcb6f85b0add),
    ("Datagram", 0x2f3a9b94b4cc4774),
];

#[test]
fn wire_formats_match_their_golden_digests() {
    let got = [
        ("PlatformMsg", digest(&platform_msgs(), PlatformMsg::encode)),
        ("UserMsg", digest(&user_msgs(), UserMsg::encode)),
        (
            "ServeRequest",
            digest(&serve_requests(), ServeRequest::encode),
        ),
        ("ServeReply", digest(&serve_replies(), ServeReply::encode)),
        ("Snapshot", digest(&snapshots(), Snapshot::encode)),
        (
            "TelemetryFrame",
            digest(&telemetry_frames(), TelemetryFrame::encode),
        ),
        ("CtrlMsg", digest(&ctrl_msgs(), CtrlMsg::encode)),
        (
            "BoundaryFrame",
            digest(&boundary_frames(), BoundaryFrame::encode),
        ),
        ("Datagram", digest(&datagrams(), Datagram::encode)),
    ];
    for ((name, want), (got_name, got)) in GOLDEN.iter().zip(&got) {
        assert_eq!(name, got_name);
        if want != got {
            println!("(\"{name}\", {got:#018x}),");
        }
    }
    assert_eq!(GOLDEN.map(|(_, d)| d), got.map(|(_, d)| d));
}

/// The shard and telemetry formats decode their corpus back; the protocol,
/// serving and snapshot round trips are covered by their own suites.
#[test]
fn wire_corpus_decodes_back() {
    roundtrips(
        &telemetry_frames(),
        TelemetryFrame::encode,
        TelemetryFrame::decode,
    );
    roundtrips(&ctrl_msgs(), CtrlMsg::encode, CtrlMsg::decode);
    roundtrips(
        &boundary_frames(),
        BoundaryFrame::encode,
        BoundaryFrame::decode,
    );
    roundtrips(&datagrams(), Datagram::encode, Datagram::decode);
}
