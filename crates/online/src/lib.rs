//! # vcs-online — dynamic user churn over a live game
//!
//! The paper solves the route-navigation game for a fixed user set `U`; a
//! deployed platform faces continuous traffic where vehicles join and leave
//! mid-game. This crate adds that online dimension on top of the
//! incremental `vcs-core` engine:
//!
//! * [`stream`] — synthesizes timestamped batches of
//!   [`ChurnEvent`](vcs_core::ChurnEvent)s, either fully synthetic
//!   (paper-range parameters) or from `vcs-traces` OD pairs with arrivals
//!   following the empirical departure-time distribution;
//! * [`sim`] — the epoch scheduler: after each batch the platform
//!   re-converges from the *warm* previous equilibrium, and the simulator
//!   also runs a cold-restart baseline plus a from-scratch equivalence
//!   replay of the warm trajectory (fixed-point ϕ agreement within
//!   [`PHI_TOLERANCE`]);
//! * [`snapshot`] — shard checkpoint/resume as a validated binary frame;
//! * [`serve`] — the serving-mode executor: a long-lived game answering an
//!   open-ended Join/Leave/BestRespond request stream, re-converged after
//!   every mutating request (the `platform_serve` bin's per-lane core).
//!
//! **Dynamic-game semantics.** Every churn event redefines the potential ϕ
//! (it is a function of the current user set): ϕ increases monotonically
//! *within* an epoch (Theorem 2) and each epoch ends in a Nash equilibrium
//! of the current game, but the ϕ trajectory *across* epochs is not
//! monotone. See DESIGN.md §11.
//!
//! The same event streams also drive the message-passing runtimes through
//! the `Join`/`Leave` protocol frames: pass [`EventStream::batches`] to
//! `vcs_runtime::run_sync_churn` or `vcs_runtime::run_threaded_churn`,
//! together with an `&Obs` (`&Obs::disabled()` to run unobserved).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;
pub mod sim;
pub mod snapshot;
pub mod stream;

pub use serve::{ServeCore, ServeCoreConfig};
pub use sim::{EpochReport, OnlineAlgorithm, OnlineReport, OnlineSim, PHI_TOLERANCE};
pub use snapshot::{Snapshot, SnapshotError};
pub use stream::{synthetic_stream, trace_stream, EventStream, StreamConfig};
