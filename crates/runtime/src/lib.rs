//! # vcs-runtime — distributed execution substrate
//!
//! The paper's algorithms are *distributed*: Alg. 1 runs on each user's
//! smartphone against local information only, Alg. 2 on the platform. This
//! crate implements that split literally:
//!
//! * [`protocol`] — the platform↔user message set with a compact binary
//!   codec on [`vcs_obs::wire`];
//! * [`agent::UserAgent`] — the user-side state machine (local profit
//!   evaluation, best-route-set computation, request/grant handling);
//! * [`platform::PlatformState`] — the platform-side bookkeeping and the
//!   SUU/PUU scheduling step;
//! * [`sync_runtime::run_sync`] — single-thread reference execution of the
//!   protocol (frames still pass through the codec);
//! * [`threaded::run_threaded`] — one OS thread per agent over std mpsc
//!   channels, slot-synchronous and bit-identical to the sync runtime;
//! * [`resilience`] — the protocol under message loss (stop-and-wait
//!   retransmission, provably outcome-preserving) and under stale
//!   information (periodic count refresh, still Nash-terminating).
//!
//! The sync, threaded and lossy runtimes share one platform loop and differ
//! only in the link that carries their frames; their churn variants wrap
//! the same loop in epoch brackets. Every runner takes an [`vcs_obs::Obs`]
//! as its last argument (`&Obs::disabled()` to run unobserved; a
//! [`vcs_obs::LiveMonitor`]'s `obs()` to serve `/metrics` during the run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
mod driver;
pub mod net;
pub mod platform;
pub mod protocol;
pub mod resilience;
pub mod serve;
pub mod sync_runtime;
pub mod threaded;

pub use agent::{LocalRoute, UserAgent};
pub use platform::{PlatformState, SchedulerKind};
pub use protocol::{CodecError, PlatformMsg, UserMsg};
pub use resilience::{run_lossy, run_stale, LossConfig, LossStats};
pub use serve::{
    RejectReason, ServeReply, ServeReplyBody, ServeRequest, ServeRequestBody, ANY_SHARD,
};
pub use sync_runtime::{run_sync, run_sync_churn, ChurnOutcome, RuntimeOutcome, Telemetry};
pub use threaded::{run_threaded, run_threaded_churn};
