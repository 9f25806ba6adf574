//! Property-based tests of the SUU/PUU schedulers and the Theorem 3 greedy
//! guarantee on random request sets.
//!
//! `puu` is fed both view shapes its callers build: wire-style `[B_i, &[]]`
//! (the runtime platform and the naive driver) and split `[L_cur, L_new]`
//! (the engine driver, whose two route lists may overlap). Each split case
//! is checked against its materialized request, `B_i` = the sorted, deduped
//! union. The admission oracle is an independent copy of the pairwise
//! greedy: δ order, then `tasks_intersect` against every admitted request.

use proptest::prelude::*;
use vcs_algorithms::request::tasks_intersect;
use vcs_algorithms::{optimal_selection, puu, suu, theorem3_bound, RequestView, UpdateRequest};
use vcs_core::ids::{RouteId, TaskId, UserId};

/// `τ` from a continuum, or from a few integers so that δ ties occur.
fn arb_tau() -> impl Strategy<Value = f64> {
    prop_oneof![0.001f64..10.0, (1u32..4).prop_map(f64::from)]
}

/// Distinct user ids in non-index order, so the δ tie-break on user id is
/// not the index order.
fn user(i: usize) -> UserId {
    UserId((i * 7 % 13) as u32)
}

fn arb_requests() -> impl Strategy<Value = Vec<UpdateRequest>> {
    prop::collection::vec(
        (arb_tau(), prop::collection::btree_set(0u32..12, 0..5)),
        1..10,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (tau, tasks))| UpdateRequest {
                user: user(i),
                new_route: RouteId(0),
                gain: tau * 0.5,
                tau,
                affected_tasks: tasks.into_iter().map(TaskId).collect(),
            })
            .collect()
    })
}

/// A request whose `B_i` arrives as two unsorted, possibly overlapping
/// lists — the current and the picked route.
#[derive(Debug, Clone)]
struct Split {
    user: UserId,
    tau: f64,
    lists: [Vec<TaskId>; 2],
}

impl Split {
    fn view(&self) -> RequestView<'_> {
        RequestView {
            user: self.user,
            tau: self.tau,
            tasks: [&self.lists[0], &self.lists[1]],
        }
    }

    /// The request a materializing caller would build: `B_i` sorted, deduped.
    fn request(&self) -> UpdateRequest {
        let mut affected: Vec<TaskId> = self.lists.concat();
        affected.sort_unstable();
        affected.dedup();
        UpdateRequest {
            user: self.user,
            new_route: RouteId(0),
            gain: self.tau * 0.5,
            tau: self.tau,
            affected_tasks: affected,
        }
    }
}

fn arb_split() -> impl Strategy<Value = Vec<Split>> {
    let list = || prop::collection::vec((0u32..12).prop_map(TaskId), 0..4);
    prop::collection::vec((arb_tau(), list(), list()), 1..10).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (tau, cur, new))| Split {
                user: user(i),
                tau,
                lists: [cur, new],
            })
            .collect()
    })
}

/// Both view shapes of one generated case, each as (materialized requests,
/// `puu`'s admitted indices).
fn both_shapes(wire: &[UpdateRequest], split: &[Split]) -> [(Vec<UpdateRequest>, Vec<usize>); 2] {
    let wire_views: Vec<RequestView<'_>> = wire.iter().map(UpdateRequest::view).collect();
    let split_views: Vec<RequestView<'_>> = split.iter().map(Split::view).collect();
    [
        (wire.to_vec(), puu(&wire_views)),
        (
            split.iter().map(Split::request).collect(),
            puu(&split_views),
        ),
    ]
}

fn delta(r: &UpdateRequest) -> f64 {
    if r.affected_tasks.is_empty() {
        f64::INFINITY
    } else {
        r.tau / r.affected_tasks.len() as f64
    }
}

/// Algorithm 3 as stated: δ non-ascending, ties to the lower user id, then
/// admit iff `B_i` meets no admitted request's `B_i`.
fn pairwise_greedy(requests: &[UpdateRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        delta(&requests[b])
            .total_cmp(&delta(&requests[a]))
            .then_with(|| requests[a].user.cmp(&requests[b].user))
    });
    let mut admitted: Vec<usize> = Vec::new();
    for idx in order {
        if admitted
            .iter()
            .all(|&a| !tasks_intersect(&requests[a].affected_tasks, &requests[idx].affected_tasks))
        {
            admitted.push(idx);
        }
    }
    admitted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Occupancy admission returns exactly the pairwise greedy's indices,
    /// in admission order, for both view shapes.
    #[test]
    fn puu_matches_the_pairwise_oracle(wire in arb_requests(), split in arb_split()) {
        for (requests, admitted) in both_shapes(&wire, &split) {
            prop_assert_eq!(admitted, pairwise_greedy(&requests));
        }
    }

    /// PUU always admits a non-empty, conflict-free set.
    #[test]
    fn puu_admits_conflict_free_nonempty(wire in arb_requests(), split in arb_split()) {
        for (requests, admitted) in both_shapes(&wire, &split) {
            prop_assert!(!admitted.is_empty());
            for (i, &a) in admitted.iter().enumerate() {
                for &b in &admitted[i + 1..] {
                    prop_assert!(!requests[a].conflicts_with(&requests[b]));
                }
            }
        }
    }

    /// PUU's admitted set is maximal: no rejected request is conflict-free
    /// with everything admitted (the greedy scan would have taken it).
    #[test]
    fn puu_is_maximal(wire in arb_requests(), split in arb_split()) {
        for (requests, admitted) in both_shapes(&wire, &split) {
            for idx in 0..requests.len() {
                if admitted.contains(&idx) {
                    continue;
                }
                let conflict = admitted
                    .iter()
                    .any(|&a| requests[a].conflicts_with(&requests[idx]));
                prop_assert!(conflict, "request {idx} was rejected without a conflict");
            }
        }
    }

    /// Theorem 3: `τ/τ̂ ≥ |B_{i'}|/(|µ̂|·B_max)` against the brute-force
    /// optimal selection.
    #[test]
    fn theorem3_guarantee(wire in arb_requests(), split in arb_split()) {
        for (requests, admitted) in both_shapes(&wire, &split) {
            let (optimal, tau_hat) = optimal_selection(&requests);
            if tau_hat <= 0.0 {
                continue;
            }
            let tau: f64 = admitted.iter().map(|&i| requests[i].tau).sum();
            if let Some(bound) = theorem3_bound(&requests, &admitted, &optimal) {
                prop_assert!(
                    tau / tau_hat >= bound - 1e-9,
                    "τ/τ̂ = {} below bound {bound}",
                    tau / tau_hat
                );
            }
            // Greedy can never beat the optimum.
            prop_assert!(tau <= tau_hat + 1e-9);
        }
    }

    /// SUU picks exactly one valid index, uniformly seeded.
    #[test]
    fn suu_picks_one(requests in arb_requests(), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let sel = suu(&requests, &mut rng);
        prop_assert_eq!(sel.len(), 1);
        prop_assert!(sel[0] < requests.len());
    }

    /// The Theorem 3 premise: the first user PUU admits has the globally
    /// largest δ among all requests.
    #[test]
    fn puu_first_has_max_delta(wire in arb_requests(), split in arb_split()) {
        for (requests, admitted) in both_shapes(&wire, &split) {
            let first = delta(&requests[admitted[0]]);
            for r in &requests {
                prop_assert!(first >= delta(r) - 1e-12);
            }
        }
    }
}
