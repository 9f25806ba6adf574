//! Solver performance: per-move primitives (best response, potential delta),
//! full dynamics per algorithm and size, PUU batch selection, CORN
//! branch-and-bound, and the message-passing runtimes (sync vs threaded) —
//! the ablation benches DESIGN.md calls out (SUU vs PUU wall clock).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vcs_algorithms::{puu, run_corn, suu, DistributedAlgorithm, UpdateRequest};
use vcs_bench::{bench_game, bench_pool, equilibrate};
use vcs_core::ids::UserId;
use vcs_core::response::best_route_set;
use vcs_core::{potential, Profile};
use vcs_obs::Obs;
use vcs_runtime::{run_sync, run_threaded, SchedulerKind};

fn bench_primitives(c: &mut Criterion) {
    let pool = bench_pool();
    let game = bench_game(&pool, 60, 60, 3);
    let profile = Profile::all_first(&game);
    c.bench_function("best_response_scan_60u", |b| {
        b.iter(|| {
            let mut improving = 0usize;
            for i in 0..game.user_count() {
                if best_route_set(&game, &profile, UserId::from_index(i)).can_improve() {
                    improving += 1;
                }
            }
            black_box(improving)
        })
    });
    c.bench_function("potential_full_60u", |b| {
        b.iter(|| black_box(potential(&game, &profile)))
    });
}

fn bench_dynamics(c: &mut Criterion) {
    let pool = bench_pool();
    let mut group = c.benchmark_group("dynamics_to_nash");
    group.sample_size(10);
    for users in [20usize, 60, 100] {
        let game = bench_game(&pool, users, 60, 11);
        for algo in [
            DistributedAlgorithm::Dgrn,
            DistributedAlgorithm::Muun,
            DistributedAlgorithm::Bats,
        ] {
            group.bench_with_input(BenchmarkId::new(algo.name(), users), &game, |b, game| {
                b.iter(|| black_box(equilibrate(game, algo, 7).slots))
            });
        }
    }
    group.finish();
}

fn bench_puu_selection(c: &mut Criterion) {
    // Synthetic request sets of growing size.
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use vcs_core::ids::{RouteId, TaskId};
    let mut rng = StdRng::seed_from_u64(5);
    let make_requests = |n: usize, rng: &mut StdRng| -> Vec<UpdateRequest> {
        (0..n)
            .map(|i| {
                let mut tasks: Vec<TaskId> = (0..rng.random_range(1..6usize))
                    .map(|_| TaskId(rng.random_range(0..80u32)))
                    .collect();
                tasks.sort_unstable();
                tasks.dedup();
                UpdateRequest {
                    user: UserId(i as u32),
                    new_route: RouteId(0),
                    gain: rng.random_range(0.01..5.0),
                    tau: rng.random_range(0.01..10.0),
                    affected_tasks: tasks,
                }
            })
            .collect()
    };
    let mut group = c.benchmark_group("scheduler");
    for n in [10usize, 50, 100] {
        let requests = make_requests(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("puu", n), &requests, |b, reqs| {
            let views: Vec<_> = reqs.iter().map(UpdateRequest::view).collect();
            b.iter(|| black_box(puu(&views).len()))
        });
        group.bench_with_input(BenchmarkId::new("suu", n), &requests, |b, reqs| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(suu(reqs, &mut rng).len()))
        });
    }
    group.finish();
}

fn bench_corn(c: &mut Criterion) {
    let pool = bench_pool();
    let mut group = c.benchmark_group("corn_branch_and_bound");
    group.sample_size(10);
    for users in [10usize, 12, 14] {
        let game = bench_game(&pool, users, 20, 13);
        group.bench_with_input(BenchmarkId::from_parameter(users), &game, |b, game| {
            b.iter(|| black_box(run_corn(game).nodes))
        });
    }
    group.finish();
}

fn bench_runtimes(c: &mut Criterion) {
    let pool = bench_pool();
    let game = bench_game(&pool, 40, 50, 17);
    let mut group = c.benchmark_group("runtime");
    group.sample_size(10);
    for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
        group.bench_function(format!("sync_{scheduler:?}"), |b| {
            b.iter(|| black_box(run_sync(&game, scheduler, 3, 1_000_000, &Obs::disabled()).slots))
        });
        group.bench_function(format!("threaded_{scheduler:?}"), |b| {
            b.iter(|| {
                black_box(run_threaded(&game, scheduler, 3, 1_000_000, &Obs::disabled()).slots)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_dynamics,
    bench_puu_selection,
    bench_corn,
    bench_runtimes
);
criterion_main!(benches);
