//! # vcs-algorithms — the evaluated allocation algorithms
//!
//! Implements every algorithm of the paper's §5.2 comparison:
//!
//! | Algorithm | Kind | Module |
//! |---|---|---|
//! | DGRN | best response + SUU (random single requester) | [`dynamics`] |
//! | MUUN | best response + PUU (Algorithm 3, parallel batch) | [`dynamics`], [`scheduler`] |
//! | BRUN | random better response + SUU | [`dynamics`] |
//! | BUAU | max-potential-increase single update | [`dynamics`] |
//! | BATS | round-robin asynchronous best response | [`dynamics`] |
//! | CORN | centralized optimum via exact branch-and-bound | [`corn`] |
//! | RRN  | uniformly random routes | [`rrn`] |
//!
//! Beyond the paper, [`anneal`] provides a centralized simulated-annealing
//! heuristic usable at scales where exact CORN is infeasible.
//!
//! All distributed variants share the synchronous Alg. 1 + Alg. 2 driver in
//! [`dynamics::run_distributed`] and terminate at a Nash equilibrium; their
//! run records ([`outcome::RunOutcome`]) carry everything the experiment
//! harness plots (slot counts, potential/profit trajectories, `ΔP_min`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod anneal;
pub mod corn;
pub mod dynamics;
pub mod outcome;
pub mod request;
pub mod rrn;
pub mod scheduler;

pub use analytics::{profit_volatility, summarize, ConvergenceSummary};
pub use anneal::{run_anneal, AnnealConfig, AnnealOutcome};
pub use corn::{run_corn, run_exhaustive, CornOutcome};
pub use dynamics::{
    run_distributed, run_distributed_naive, run_distributed_observed, DistributedAlgorithm,
    RunConfig,
};
pub use outcome::{RunOutcome, SlotTrace};
pub use request::UpdateRequest;
pub use rrn::run_rrn;
pub use scheduler::{
    buau, cached_request, optimal_selection, puu, suu, suu_grant, theorem3_bound, RequestView,
};
