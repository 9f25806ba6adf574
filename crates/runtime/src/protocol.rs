//! The wire protocol between the platform (Alg. 2) and user agents (Alg. 1),
//! with a compact binary codec.
//!
//! Every exchange of the paper's algorithms is a message here:
//!
//! * platform → user: task parameters and counts (`Init`, Alg. 2 lines 1–4 /
//!   `Counts`, Alg. 1 line 9), update grants/denials (Alg. 2 line 9), and
//!   termination (Alg. 2 line 12);
//! * user → platform: the initial decision (Alg. 1 line 4), update requests
//!   carrying `B_i` and `τ_i` for PUU (Alg. 1 line 12 / Alg. 3), explicit
//!   no-request notices, and the applied decision (Alg. 1 line 15).
//!
//! Messages are encoded into length-free, tag-prefixed binary frames with
//! the [`vcs_obs::wire`] codec, so the threaded runtime ships real byte
//! buffers between threads — the same frames a networked deployment would
//! exchange.

use vcs_core::ids::{RouteId, TaskId, UserId};
use vcs_core::{ChurnEvent, Route, UserPrefs, UserSpec};
use vcs_obs::wire::{Reader, WireError, Writer};

/// Task metadata a user needs to evaluate rewards locally: `(k, a_k, μ_k)`.
pub type TaskInfo = (TaskId, f64, f64);

/// Platform → user messages.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformMsg {
    /// Initialization: reward parameters of the tasks covered by the user's
    /// recommended routes, plus the initial participant counts.
    Init {
        /// Reward parameters for each covered task.
        tasks: Vec<TaskInfo>,
        /// Initial `n_k` for each covered task.
        counts: Vec<(TaskId, u32)>,
    },
    /// Per-slot refresh of `n_k` for the user's covered tasks.
    Counts {
        /// Current `n_k` for each covered task.
        counts: Vec<(TaskId, u32)>,
    },
    /// The user won the update opportunity for this slot.
    Grant,
    /// The user's request was not granted this slot.
    Deny,
    /// The game has reached equilibrium; stop.
    Terminate,
}

/// User → platform messages.
#[derive(Debug, Clone, PartialEq)]
pub enum UserMsg {
    /// Initial random route decision (Alg. 1 line 4).
    Initial {
        /// The sender.
        user: UserId,
        /// The chosen route.
        route: RouteId,
    },
    /// Update request: the user found a strictly better route.
    Request {
        /// The sender.
        user: UserId,
        /// The route it wants to switch to.
        new_route: RouteId,
        /// Profit gain of the switch.
        gain: f64,
        /// `τ_i = gain / α_i` (potential increase).
        tau: f64,
        /// `B_i`: tasks covered by the current or the new route (sorted).
        affected: Vec<TaskId>,
    },
    /// The user cannot improve this slot.
    NoRequest {
        /// The sender.
        user: UserId,
    },
    /// Confirmation that the granted switch was applied.
    Updated {
        /// The sender.
        user: UserId,
        /// The route now selected.
        route: RouteId,
    },
    /// A new vehicle enters the platform mid-game: its preference weights,
    /// its recommended route set and its initial route choice (the Alg. 1
    /// line 4 random decision, made locally before first contact). The
    /// platform assigns the user id and answers with `Init`. Route polyline
    /// geometry is display-only and is **not** carried on the wire.
    Join {
        /// Weights and recommended routes of the arriving user.
        spec: UserSpec,
        /// Index into `spec.routes` of the initial choice.
        initial: RouteId,
    },
    /// The vehicle with id `user` leaves the platform.
    Leave {
        /// The departing user.
        user: UserId,
    },
}

impl UserMsg {
    /// The wire frame corresponding to a churn event (see
    /// [`vcs_core::ChurnEvent`]).
    pub fn from_churn(event: &ChurnEvent) -> Self {
        match event {
            ChurnEvent::Join { spec, initial } => UserMsg::Join {
                spec: spec.clone(),
                initial: *initial,
            },
            ChurnEvent::Leave { user } => UserMsg::Leave { user: *user },
        }
    }
}

// ---- Codec ---------------------------------------------------------------

const TAG_INIT: u8 = 1;
const TAG_COUNTS: u8 = 2;
const TAG_GRANT: u8 = 3;
const TAG_DENY: u8 = 4;
const TAG_TERMINATE: u8 = 5;
const TAG_INITIAL: u8 = 16;
const TAG_REQUEST: u8 = 17;
const TAG_NO_REQUEST: u8 = 18;
const TAG_UPDATED: u8 = 19;
const TAG_JOIN: u8 = 20;
const TAG_LEAVE: u8 = 21;

/// Codec error: truncated or malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError(match e {
            WireError::Truncated { .. } => "truncated frame",
            WireError::BadLength { .. } => "length prefix exceeds frame size",
            WireError::Trailing { .. } => "trailing bytes",
        })
    }
}

fn put_task_counts(buf: &mut Vec<u8>, counts: &[(TaskId, u32)]) {
    buf.put_len(counts.len());
    for &(task, n) in counts {
        buf.put_u32(task.0);
        buf.put_u32(n);
    }
}

fn get_task_counts(r: &mut Reader<'_>) -> Result<Vec<(TaskId, u32)>, WireError> {
    let len = r.len(8)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push((TaskId(r.u32()?), r.u32()?));
    }
    Ok(out)
}

impl PlatformMsg {
    /// Encodes into a binary frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            PlatformMsg::Init { tasks, counts } => {
                buf.put_u8(TAG_INIT);
                buf.put_len(tasks.len());
                for &(task, a, mu) in tasks {
                    buf.put_u32(task.0);
                    buf.put_f64(a);
                    buf.put_f64(mu);
                }
                put_task_counts(&mut buf, counts);
            }
            PlatformMsg::Counts { counts } => {
                buf.put_u8(TAG_COUNTS);
                put_task_counts(&mut buf, counts);
            }
            PlatformMsg::Grant => buf.put_u8(TAG_GRANT),
            PlatformMsg::Deny => buf.put_u8(TAG_DENY),
            PlatformMsg::Terminate => buf.put_u8(TAG_TERMINATE),
        }
        buf
    }

    /// Decodes a binary frame.
    pub fn decode(frame: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(frame);
        let msg = match r.u8()? {
            TAG_INIT => {
                let n = r.len(20)?;
                let mut tasks = Vec::with_capacity(n);
                for _ in 0..n {
                    tasks.push((TaskId(r.u32()?), r.f64()?, r.f64()?));
                }
                let counts = get_task_counts(&mut r)?;
                PlatformMsg::Init { tasks, counts }
            }
            TAG_COUNTS => PlatformMsg::Counts {
                counts: get_task_counts(&mut r)?,
            },
            TAG_GRANT => PlatformMsg::Grant,
            TAG_DENY => PlatformMsg::Deny,
            TAG_TERMINATE => PlatformMsg::Terminate,
            _ => return Err(CodecError("unknown platform tag")),
        };
        r.finish()?;
        Ok(msg)
    }
}

impl UserMsg {
    /// Encodes into a binary frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            UserMsg::Initial { user, route } => {
                buf.put_u8(TAG_INITIAL);
                buf.put_u32(user.0);
                buf.put_u32(route.0);
            }
            UserMsg::Request {
                user,
                new_route,
                gain,
                tau,
                affected,
            } => {
                buf.put_u8(TAG_REQUEST);
                buf.put_u32(user.0);
                buf.put_u32(new_route.0);
                buf.put_f64(*gain);
                buf.put_f64(*tau);
                buf.put_len(affected.len());
                for t in affected {
                    buf.put_u32(t.0);
                }
            }
            UserMsg::NoRequest { user } => {
                buf.put_u8(TAG_NO_REQUEST);
                buf.put_u32(user.0);
            }
            UserMsg::Updated { user, route } => {
                buf.put_u8(TAG_UPDATED);
                buf.put_u32(user.0);
                buf.put_u32(route.0);
            }
            UserMsg::Join { spec, initial } => {
                buf.put_u8(TAG_JOIN);
                buf.put_f64(spec.prefs.alpha);
                buf.put_f64(spec.prefs.beta);
                buf.put_f64(spec.prefs.gamma);
                buf.put_u32(initial.0);
                buf.put_len(spec.routes.len());
                for route in &spec.routes {
                    buf.put_len(route.tasks.len());
                    for t in &route.tasks {
                        buf.put_u32(t.0);
                    }
                    buf.put_f64(route.detour);
                    buf.put_f64(route.congestion);
                }
            }
            UserMsg::Leave { user } => {
                buf.put_u8(TAG_LEAVE);
                buf.put_u32(user.0);
            }
        }
        buf
    }

    /// Decodes a binary frame.
    pub fn decode(frame: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(frame);
        let msg = match r.u8()? {
            TAG_INITIAL => UserMsg::Initial {
                user: UserId(r.u32()?),
                route: RouteId(r.u32()?),
            },
            TAG_REQUEST => {
                let user = UserId(r.u32()?);
                let new_route = RouteId(r.u32()?);
                let gain = r.f64()?;
                let tau = r.f64()?;
                let n = r.len(4)?;
                let mut affected = Vec::with_capacity(n);
                for _ in 0..n {
                    affected.push(TaskId(r.u32()?));
                }
                UserMsg::Request {
                    user,
                    new_route,
                    gain,
                    tau,
                    affected,
                }
            }
            TAG_NO_REQUEST => UserMsg::NoRequest {
                user: UserId(r.u32()?),
            },
            TAG_UPDATED => UserMsg::Updated {
                user: UserId(r.u32()?),
                route: RouteId(r.u32()?),
            },
            TAG_JOIN => {
                let prefs = UserPrefs::new(r.f64()?, r.f64()?, r.f64()?);
                let initial = RouteId(r.u32()?);
                // Each route is at least a task count + detour + congestion.
                let n_routes = r.len(20)?;
                let mut routes = Vec::with_capacity(n_routes);
                for i in 0..n_routes {
                    let n_tasks = r.len(4)?;
                    let mut tasks = Vec::with_capacity(n_tasks);
                    for _ in 0..n_tasks {
                        tasks.push(TaskId(r.u32()?));
                    }
                    let id = RouteId::from_index(i);
                    routes.push(Route::new(id, tasks, r.f64()?, r.f64()?));
                }
                UserMsg::Join {
                    spec: UserSpec::new(prefs, routes),
                    initial,
                }
            }
            TAG_LEAVE => UserMsg::Leave {
                user: UserId(r.u32()?),
            },
            _ => return Err(CodecError("unknown user tag")),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_messages_roundtrip() {
        let msgs = vec![
            PlatformMsg::Init {
                tasks: vec![(TaskId(3), 12.5, 0.25), (TaskId(9), 18.0, 1.0)],
                counts: vec![(TaskId(3), 2), (TaskId(9), 0)],
            },
            PlatformMsg::Counts {
                counts: vec![(TaskId(1), 7)],
            },
            PlatformMsg::Counts { counts: vec![] },
            PlatformMsg::Grant,
            PlatformMsg::Deny,
            PlatformMsg::Terminate,
        ];
        for msg in msgs {
            let frame = msg.encode();
            assert_eq!(PlatformMsg::decode(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn user_messages_roundtrip() {
        let msgs = vec![
            UserMsg::Initial {
                user: UserId(4),
                route: RouteId(2),
            },
            UserMsg::Request {
                user: UserId(0),
                new_route: RouteId(1),
                gain: 1.75,
                tau: 3.5,
                affected: vec![TaskId(0), TaskId(5), TaskId(6)],
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
        ];
        for msg in msgs {
            let frame = msg.encode();
            assert_eq!(UserMsg::decode(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn truncated_frames_rejected() {
        let frame = UserMsg::Initial {
            user: UserId(4),
            route: RouteId(2),
        }
        .encode();
        let cut = &frame[0..frame.len() - 1];
        assert!(UserMsg::decode(cut).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let frame = [0xFF];
        assert!(PlatformMsg::decode(&frame).is_err());
        assert!(UserMsg::decode(&frame).is_err());
    }

    #[test]
    fn join_frame_matches_churn_event() {
        let event = ChurnEvent::Join {
            spec: UserSpec::new(
                UserPrefs::new(0.4, 0.4, 0.4),
                vec![Route::new(RouteId(0), vec![TaskId(2)], 0.5, 0.5)],
            ),
            initial: RouteId(0),
        };
        let msg = UserMsg::from_churn(&event);
        let decoded = UserMsg::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
        let leave = ChurnEvent::Leave { user: UserId(3) };
        assert_eq!(
            UserMsg::from_churn(&leave),
            UserMsg::Leave { user: UserId(3) }
        );
    }

    #[test]
    fn truncated_join_rejected() {
        let frame = UserMsg::Join {
            spec: UserSpec::new(
                UserPrefs::neutral(),
                vec![Route::new(RouteId(0), vec![TaskId(0), TaskId(1)], 1.0, 1.0)],
            ),
            initial: RouteId(0),
        }
        .encode();
        for cut in [1, 8, 20, frame.len() - 1] {
            assert!(UserMsg::decode(&frame[0..cut]).is_err(), "cut {cut}");
        }
        // A hostile length prefix larger than the frame is caught before any
        // allocation.
        let mut buf = Vec::new();
        buf.put_u8(20);
        buf.put_f64(0.5);
        buf.put_f64(0.5);
        buf.put_f64(0.5);
        buf.put_u32(0);
        buf.put_u32(u32::MAX); // absurd route count
        assert_eq!(
            UserMsg::decode(&buf),
            Err(CodecError("length prefix exceeds frame size"))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        buf.put_u8(3); // Grant
        buf.put_u8(0); // junk
        assert_eq!(PlatformMsg::decode(&buf), Err(CodecError("trailing bytes")));
    }
}
