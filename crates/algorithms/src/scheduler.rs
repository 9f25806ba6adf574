//! Platform-side user-update schedulers: SUU, BUAU and PUU (Algorithm 3).
//!
//! The engine driver, the naive driver and the runtime platform all grant
//! through these functions. BUAU and PUU read borrowed [`RequestView`]s, so
//! no caller has to materialize an affected-task set to be scheduled.

use crate::request::UpdateRequest;
use rand::rngs::StdRng;
use rand::RngExt;
use vcs_core::ids::{TaskId, UserId};

/// Single User Update: grants the opportunity to one uniformly random
/// requester per decision slot. Only the request count matters, so any
/// slice of requests (or would-be requests) will do.
pub fn suu<T>(requests: &[T], rng: &mut StdRng) -> Vec<usize> {
    if requests.is_empty() {
        Vec::new()
    } else {
        vec![rng.random_range(0..requests.len())]
    }
}

/// Borrowed view of one update request: everything BUAU and PUU read.
#[derive(Debug, Clone, Copy)]
pub struct RequestView<'a> {
    /// The requesting user.
    pub user: UserId,
    /// `τ_i = gain / α_i`.
    pub tau: f64,
    /// `B_i` as the union of two task lists, neither of which need be sorted
    /// or disjoint from the other: the engine passes the current and the
    /// picked route's lists, a wire-carried `B_i` passes `[B_i, &[]]`
    /// ([`UpdateRequest::view`]).
    pub tasks: [&'a [TaskId]; 2],
}

impl RequestView<'_> {
    /// Every task of `B_i`, with repeats where the two lists overlap.
    fn affected(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks[0].iter().chain(self.tasks[1]).copied()
    }
}

/// Best User of All Users: grants the single requester with the largest
/// potential increase `τ_i` (the BUAU baseline of §5.2); on ties the *last*
/// maximum under `total_cmp`, as `Iterator::max_by` keeps it.
pub fn buau(requests: &[RequestView<'_>]) -> Vec<usize> {
    requests
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.tau.total_cmp(&b.1.tau))
        .map(|(i, _)| vec![i])
        .unwrap_or_default()
}

/// Parallel User Update (Algorithm 3): sorts requesters by
/// `δ_i = τ_i / |B_i|` non-ascending (ties broken by lower user id) and
/// greedily admits every requester whose affected task set `B_i` is disjoint
/// from all already admitted ones. Requests with empty `B_i` (pure cost
/// moves) never conflict and sort first.
///
/// Disjoint from every admitted set is disjoint from their union, so one
/// task-occupancy array decides admission in `O(|B_i|)` per candidate.
///
/// Returns indices into `requests` of the admitted set `µ`.
pub fn puu(requests: &[RequestView<'_>]) -> Vec<usize> {
    let task_count = requests
        .iter()
        .flat_map(RequestView::affected)
        .map(|t| t.index() + 1)
        .max()
        .unwrap_or(0);
    // `occupied[k]`: task `k` lies in an admitted `B_i`. Before admission
    // starts it doubles as scratch for counting `|B_i|` without sorting.
    let mut occupied = vec![false; task_count];
    let delta: Vec<f64> = requests
        .iter()
        .map(|r| {
            let size = r
                .affected()
                .filter(|t| !std::mem::replace(&mut occupied[t.index()], true))
                .count();
            r.affected().for_each(|t| occupied[t.index()] = false);
            if size == 0 {
                f64::INFINITY
            } else {
                r.tau / size as f64
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        delta[b]
            .total_cmp(&delta[a])
            // Deterministic tie-break on user id.
            .then_with(|| requests[a].user.cmp(&requests[b].user))
    });
    let mut admitted: Vec<usize> = Vec::new();
    for idx in order {
        let candidate = &requests[idx];
        if candidate.affected().all(|t| !occupied[t.index()]) {
            candidate
                .affected()
                .for_each(|t| occupied[t.index()] = true);
            admitted.push(idx);
        }
    }
    admitted
}

/// Brute-force optimal conflict-free selection maximizing `Σ τ_i`
/// (exponential; only for testing Theorem 3's guarantee on small inputs).
pub fn optimal_selection(requests: &[UpdateRequest]) -> (Vec<usize>, f64) {
    let n = requests.len();
    assert!(n <= 20, "brute force limited to 20 requests");
    let mut best: (Vec<usize>, f64) = (Vec::new(), 0.0);
    for mask in 0u32..(1 << n) {
        let chosen: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let mut ok = true;
        'outer: for (ai, &a) in chosen.iter().enumerate() {
            for &b in &chosen[ai + 1..] {
                if requests[a].conflicts_with(&requests[b]) {
                    ok = false;
                    break 'outer;
                }
            }
        }
        if !ok {
            continue;
        }
        let tau: f64 = chosen.iter().map(|&i| requests[i].tau).sum();
        if tau > best.1 {
            best = (chosen, tau);
        }
    }
    best
}

/// The Theorem 3 lower bound `|B_{i'}| / (|µ̂| · B_max)` on `τ/τ̂`, where `i'`
/// is the admitted requester with the largest `δ_i`, `µ̂` the optimal
/// selection and `B_max` its largest affected-task set. Returns `None` when
/// the bound degenerates (empty selections or zero-size sets).
pub fn theorem3_bound(
    requests: &[UpdateRequest],
    admitted: &[usize],
    optimal: &[usize],
) -> Option<f64> {
    let i_prime = admitted.iter().copied().max_by(|&a, &b| {
        let d = |i: usize| {
            let r = &requests[i];
            if r.affected_tasks.is_empty() {
                f64::INFINITY
            } else {
                r.tau / r.affected_tasks.len() as f64
            }
        };
        d(a).total_cmp(&d(b))
    })?;
    let b_iprime = requests[i_prime].affected_tasks.len();
    let b_max = optimal
        .iter()
        .map(|&i| requests[i].affected_tasks.len())
        .max()?;
    if optimal.is_empty() || b_max == 0 {
        return None;
    }
    Some(b_iprime as f64 / (optimal.len() as f64 * b_max as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vcs_core::ids::{RouteId, TaskId, UserId};

    fn req(user: u32, tau: f64, tasks: &[u32]) -> UpdateRequest {
        UpdateRequest {
            user: UserId(user),
            new_route: RouteId(0),
            gain: tau * 0.5,
            tau,
            affected_tasks: tasks.iter().map(|&t| TaskId(t)).collect(),
        }
    }

    fn views(requests: &[UpdateRequest]) -> Vec<RequestView<'_>> {
        requests.iter().map(UpdateRequest::view).collect()
    }

    #[test]
    fn suu_selects_exactly_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let requests = vec![req(0, 1.0, &[0]), req(1, 2.0, &[1]), req(2, 3.0, &[2])];
        let sel = suu(&requests, &mut rng);
        assert_eq!(sel.len(), 1);
        assert!(sel[0] < 3);
        assert!(suu::<UpdateRequest>(&[], &mut rng).is_empty());
    }

    #[test]
    fn buau_selects_max_tau() {
        let requests = vec![req(0, 1.0, &[0]), req(1, 5.0, &[1]), req(2, 3.0, &[2])];
        assert_eq!(buau(&views(&requests)), vec![1]);
        assert!(buau(&[]).is_empty());
    }

    #[test]
    fn puu_admits_disjoint_requests() {
        let requests = vec![
            req(0, 6.0, &[0, 1]), // δ = 3
            req(1, 5.0, &[1]),    // δ = 5, conflicts with 0
            req(2, 2.0, &[2]),    // δ = 2, disjoint
        ];
        let sel = puu(&views(&requests));
        // Order by δ: user1 (5), user0 (3, conflicts with 1), user2 (2).
        assert_eq!(sel, vec![1, 2]);
    }

    #[test]
    fn puu_empty_b_always_admitted() {
        let requests = vec![req(0, 0.1, &[]), req(1, 9.0, &[0]), req(2, 8.0, &[0])];
        let sel = puu(&views(&requests));
        // Empty-B first (δ = ∞), then the better of the two conflicting ones.
        assert!(sel.contains(&0));
        assert_eq!(sel.len(), 2);
        assert!(sel.contains(&1));
    }

    #[test]
    fn puu_deterministic_tie_break() {
        let requests = vec![req(3, 2.0, &[0]), req(1, 2.0, &[1])];
        // Equal δ: lower user id first.
        assert_eq!(puu(&views(&requests)), vec![1, 0]);
    }

    #[test]
    fn optimal_selection_brute_force() {
        let requests = vec![req(0, 6.0, &[0, 1]), req(1, 5.0, &[1]), req(2, 2.0, &[2])];
        let (sel, tau) = optimal_selection(&requests);
        // Optimal: {0, 2} with τ = 8 (beats {1, 2} = 7).
        assert_eq!(sel, vec![0, 2]);
        assert!((tau - 8.0).abs() < 1e-12);
    }

    #[test]
    fn theorem3_guarantee_holds() {
        // A case where greedy PUU is suboptimal: check τ/τ̂ ≥ bound.
        let requests = vec![
            req(0, 6.0, &[0, 1]),
            req(1, 5.0, &[1]),
            req(2, 2.0, &[2]),
            req(3, 1.5, &[0, 3]),
        ];
        let admitted = puu(&views(&requests));
        let (optimal, tau_hat) = optimal_selection(&requests);
        let tau: f64 = admitted.iter().map(|&i| requests[i].tau).sum();
        let bound = theorem3_bound(&requests, &admitted, &optimal).unwrap();
        assert!(
            tau / tau_hat >= bound - 1e-12,
            "τ/τ̂ = {} < bound {bound}",
            tau / tau_hat
        );
    }

    #[test]
    fn puu_admitted_set_is_conflict_free() {
        let requests = vec![
            req(0, 4.0, &[0, 1, 2]),
            req(1, 3.0, &[2, 3]),
            req(2, 2.5, &[4]),
            req(3, 2.0, &[1, 4]),
            req(4, 1.0, &[5]),
        ];
        let sel = puu(&views(&requests));
        for (i, &a) in sel.iter().enumerate() {
            for &b in &sel[i + 1..] {
                assert!(!requests[a].conflicts_with(&requests[b]));
            }
        }
    }
}
