//! Golden digests of the three callers of the solver's response cache: the
//! distributed dynamics driver, the online epoch scheduler and the serving
//! core. A refactor of the dirty-set refresh or of the improving index must
//! reproduce them exactly.
//!
//! Digested (FNV-1a-64), wall-clock spans excluded everywhere:
//!
//! * **driver** — `run_distributed_observed` for all five algorithms over
//!   seeds 0..3: the outcome's `Debug` plus every event as a JSON line
//!   (`EngineInit`, `RefreshPass`, `ResponseEvaluated`, `MoveCommitted`,
//!   `SlotCompleted`, `RunCompleted`);
//! * **online** — `OnlineSim::run` on a `synthetic_stream` for DGRN and
//!   BRUN: the report's `Debug` (wall-clock seconds zeroed) plus the events;
//! * **serve** — a scripted `ServeCore` join / leave / best-respond
//!   sequence under a tight and an ample per-request slot budget: each
//!   request's `(moved, slots)` or rejection, `phi()` bits, the final
//!   profile and the events.

use std::sync::Arc;
use vcs::core::ids::UserId;
use vcs::obs::trace::event_to_json;
use vcs::online::{ServeCore, ServeCoreConfig};
use vcs::prelude::*;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Every event of `ring` except wall-clock spans, as JSON lines.
    fn events(&mut self, ring: &RingBufferSubscriber) {
        let events = ring.events();
        assert_eq!(events.len() as u64, ring.total(), "ring holds every event");
        let mut lines = 0u64;
        for event in events {
            if !matches!(event, Event::SpanRecorded { .. }) {
                self.bytes(event_to_json(&event).as_bytes());
                lines += 1;
            }
        }
        self.u64(lines);
    }
}

fn ring() -> Arc<RingBufferSubscriber> {
    Arc::new(RingBufferSubscriber::new(1 << 20))
}

/// `(algorithm, outcome, events)` digests, each folded over seeds 0..3.
const DRIVER: [(&str, u64, u64); 5] = [
    ("DGRN", 16759745595484563518, 14631133309524799052),
    ("BRUN", 17399833757970753463, 7364244973871550853),
    ("BUAU", 12476547654576426481, 6260947176582469852),
    ("BATS", 9461722276342424394, 3539555961908990209),
    ("MUUN", 17560901069684111861, 660605054348901459),
];

#[test]
fn solver_driver_runs_match_their_golden_digests() {
    let mut got = Vec::new();
    for algorithm in DistributedAlgorithm::ALL {
        let (mut outcome_h, mut events_h) = (Fnv::new(), Fnv::new());
        for seed in 0..3u64 {
            let game = localized_game(48, 24, 6, seed);
            let ring = ring();
            let outcome = vcs::algorithms::run_distributed_observed(
                &game,
                algorithm,
                &RunConfig::with_seed(seed),
                &Obs::new(ring.clone()),
            );
            assert!(outcome.converged, "{} seed {seed}", algorithm.name());
            outcome_h.bytes(format!("{outcome:?}").as_bytes());
            events_h.events(&ring);
        }
        got.push((algorithm.name(), outcome_h.0, events_h.0));
    }
    assert_eq!(
        got, DRIVER,
        "driver golden digests moved (left = this tree, right = pinned)"
    );
}

/// `(algorithm, report, events)` digests, each folded over seeds 0..3.
const ONLINE: [(&str, u64, u64); 2] = [
    ("DGRN", 3632440689332487554, 4446248544484625486),
    ("BRUN", 3374355378690451028, 17478596910071812532),
];

#[test]
fn online_scheduler_runs_match_their_golden_digests() {
    let mut got = Vec::new();
    for algo in [OnlineAlgorithm::Dgrn, OnlineAlgorithm::Brun] {
        let (mut report_h, mut events_h) = (Fnv::new(), Fnv::new());
        for seed in 0..3u64 {
            let (game, stream) = synthetic_stream(&StreamConfig {
                initial_users: 40,
                n_tasks: 16,
                epochs: 5,
                churn_rate: 0.15,
                seed,
            });
            let mut sim = OnlineSim::new(game, algo, seed, 100_000);
            let ring = ring();
            sim.set_obs(Obs::new(ring.clone()));
            let mut report = sim.run(&stream);
            assert!(report.converged, "{algo:?} seed {seed}");
            assert!(report.all_phi_agree(), "{algo:?} seed {seed}");
            for e in &mut report.epochs {
                e.warm_secs = 0.0;
                e.cold_secs = 0.0;
            }
            report_h.bytes(format!("{report:?}").as_bytes());
            events_h.events(&ring);
        }
        got.push((algo.name(), report_h.0, events_h.0));
    }
    assert_eq!(
        got, ONLINE,
        "online golden digests moved (left = this tree, right = pinned)"
    );
}

/// `(algorithm, slot budget, trajectory, events)` digests.
const SERVE: [(&str, usize, u64, u64); 4] = [
    ("DGRN", 2, 15889202703971866696, 10117913741618635011),
    ("DGRN", 4096, 3686875888233797820, 3667577157204589011),
    ("BRUN", 2, 9374977423186051041, 4186747857373688324),
    ("BRUN", 4096, 8325077655403655407, 9232051219704796737),
];

/// Runs the scripted request sequence on one core, folding every reply,
/// `phi()` and the final profile into `h`. Returns how many best-respond
/// requests moved their user and how many requests were rejected.
fn serve_script(core: &mut ServeCore, h: &mut Fnv) -> (u32, u32) {
    let (mut moved_n, mut rejected) = (0, 0);
    let mut next_leave = 0usize;
    for step in 0..60usize {
        let known = core.engine().game().user_count();
        match step % 5 {
            0 => {
                let (user, slots) = core.join();
                h.u64(user.index() as u64);
                h.u64(slots);
            }
            1 => {
                // Leaves walk the id space; a departed id is rejected.
                let user = UserId::from_index(next_leave % known);
                next_leave += 3;
                match core.leave(user) {
                    Ok(slots) => h.u64(slots),
                    Err(_) => {
                        rejected += 1;
                        h.u64(u64::MAX);
                    }
                }
            }
            _ => {
                let user = UserId::from_index((step * 7) % (known + 1));
                match core.best_respond(user) {
                    Ok((moved, slots)) => {
                        moved_n += u32::from(moved);
                        h.u64(u64::from(moved));
                        h.u64(slots);
                    }
                    Err(_) => {
                        rejected += 1;
                        h.u64(u64::MAX);
                    }
                }
            }
        }
        h.u64(core.phi().to_bits());
        h.u64(u64::from(core.converged()));
    }
    h.u64(core.slots_total());
    for &route in core.engine().profile().choices() {
        h.u64(route.index() as u64);
    }
    (moved_n, rejected)
}

#[test]
fn serve_core_requests_match_their_golden_digests() {
    let mut got = Vec::new();
    for algo in [OnlineAlgorithm::Dgrn, OnlineAlgorithm::Brun] {
        for budget in [2, 4096] {
            let mut core = ServeCore::new(ServeCoreConfig {
                n_tasks: 12,
                initial_users: 24,
                seed: 11,
                algo,
                max_slots_per_request: budget,
            });
            let ring = ring();
            core.set_obs(Obs::new(ring.clone()));
            let (mut trajectory_h, mut events_h) = (Fnv::new(), Fnv::new());
            let (moved, rejected) = serve_script(&mut core, &mut trajectory_h);
            assert!(rejected > 0, "the script sends requests for departed users");
            if budget == 2 {
                assert!(moved > 0, "a tight budget leaves improvers to serve");
            }
            events_h.events(&ring);
            got.push((algo.name(), budget, trajectory_h.0, events_h.0));
        }
    }
    assert_eq!(
        got, SERVE,
        "serve golden digests moved (left = this tree, right = pinned)"
    );
}
