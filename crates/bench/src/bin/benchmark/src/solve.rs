//! The solver workloads: seeded paper-range games driven to a certified Nash
//! equilibrium through the public `vcs-core` / `vcs-algorithms` API, plus the
//! core-layer probes of a traced run.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vcs_algorithms::{run_distributed, DistributedAlgorithm, RunConfig};
use vcs_core::ids::{RouteId, UserId};
use vcs_core::{is_nash, potential, Engine, Game, PlatformParams, Profile};

use crate::gen::{self, derive_seed};
use crate::stats::median;
use crate::trace::Spans;
use crate::{sys, Outcome};

/// Shape of a solver workload.
#[derive(Debug, Clone, Copy)]
pub struct SolveShape {
    pub algorithm: DistributedAlgorithm,
    pub users: usize,
    pub tasks: usize,
}

/// Improving moves timed by the `apply_move` probe.
const MOVE_SAMPLE: usize = 2000;

/// Solves per instance. An instance's time is the median of its repeats, so
/// a stall on the shared machine during one solve does not set it.
const REPEATS: usize = 3;

/// Largest share of `|ϕ|` by which the engine's incremental potential may
/// differ from a fresh `potential()` at the equilibrium.
const PHI_TOLERANCE: f64 = 1e-9;

fn params() -> PlatformParams {
    PlatformParams::new(0.4, 0.4)
}

/// One solved and certified instance.
struct Solved {
    setup_s: f64,
    /// Median over the repeats.
    solve_ms: f64,
    repeat_ms: Vec<f64>,
    cpu_us: f64,
    is_nash_ms: f64,
    slots: usize,
    updates: usize,
    violation: Option<String>,
}

/// Generates instance `index` of the run, builds its game and solves it
/// `repeats` times. Only the last repeat records its solve span, so a traced
/// run can compare it with the one before (the first repeat of an instance
/// runs on colder caches than the rest).
fn solve_one(
    shape: &SolveShape,
    seed: u64,
    index: u64,
    repeats: usize,
    spans: &mut Spans,
) -> (Solved, Game) {
    let pid = std::process::id();
    let root_start = Instant::now();
    let inst = spans.time("bench.generate", index, || {
        gen::instance(shape.users, shape.tasks, derive_seed(seed, index))
    });

    let t0 = Instant::now();
    let game = Game::with_paper_bounds(inst.tasks, inst.users, params())
        .expect("generated instances are in paper range");
    let t1 = Instant::now();
    spans.record("core.game_new", t0, t1, index);

    // Every repeat follows the same seeded trajectory; a repeat that ends
    // elsewhere is a determinism violation.
    let config = RunConfig::with_seed(derive_seed(seed, 1_000_000 + index));
    let (mut solve_ms, mut cpu_us, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..repeats {
        let cpu0 = sys::cpu_user_sys_us(pid).unwrap_or_default();
        let t2 = Instant::now();
        let outcome = run_distributed(&game, shape.algorithm, &config);
        let t3 = Instant::now();
        let cpu1 = sys::cpu_user_sys_us(pid).unwrap_or_default();
        if r + 1 == repeats {
            spans.record("algorithms.run_distributed", t2, t3, index);
        }
        solve_ms.push((t3 - t2).as_secs_f64() * 1e3);
        cpu_us.push((cpu1.0 + cpu1.1) - (cpu0.0 + cpu0.1));
        outcomes.push(outcome);
    }
    let outcome = outcomes.pop().expect("at least one repeat");
    let repeatable = outcomes.iter().all(|o| {
        (o.slots, o.updates, o.final_potential().to_bits())
            == (
                outcome.slots,
                outcome.updates,
                outcome.final_potential().to_bits(),
            )
    });

    let t3 = Instant::now();
    let nash = is_nash(&game, &outcome.profile);
    let t4 = Instant::now();
    spans.record("core.is_nash", t3, t4, index);
    let fresh = spans.time("core.potential", index, || {
        potential(&game, &outcome.profile)
    });
    spans.record("solve.instance", root_start, Instant::now(), index);

    let incremental = outcome.final_potential();
    let violation = if !repeatable {
        Some(format!(
            "instance {index}: repeated solves took different trajectories"
        ))
    } else if !outcome.converged {
        Some(format!("instance {index}: dynamics hit the slot cap"))
    } else if !nash {
        Some(format!(
            "instance {index}: final profile is not a Nash equilibrium"
        ))
    } else if (incremental - fresh).abs() > PHI_TOLERANCE * fresh.abs().max(1.0) {
        Some(format!(
            "instance {index}: incremental ϕ {incremental} differs from fresh ϕ {fresh}"
        ))
    } else {
        None
    };
    let solved = Solved {
        setup_s: (t1 - t0).as_secs_f64(),
        solve_ms: median(&solve_ms),
        repeat_ms: solve_ms,
        cpu_us: median(&cpu_us),
        is_nash_ms: (t4 - t3).as_secs_f64() * 1e3,
        slots: outcome.slots,
        updates: outcome.updates,
        violation,
    };
    (solved, game)
}

/// Runs a solver workload: warm-up instances, then fresh seed-derived
/// instances until `seconds` have passed (at least one). Traced runs record
/// spans around every layer call and probe the core layer on the last
/// instance.
pub fn run(shape: &SolveShape, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch, traced, 1 << 12);
    let mut off = Spans::new(epoch, false, 0);
    let mut out = Outcome::default();

    // Warm-up instances (one solve each, not measured) until the warm-up time
    // has passed: the first seconds of a process run measurably slower.
    let warmup = Duration::from_secs_f64((seconds / 2.0).min(2.0));
    let start = Instant::now();
    let mut index = 0u64;
    while index == 0 || start.elapsed() < warmup {
        let (warm, _) = solve_one(shape, seed, index, 1, &mut off);
        out.check(1, warm.violation);
        index += 1;
    }

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut runs: Vec<Solved> = Vec::new();
    let mut last_game = None;
    let warm_instances = index;
    while runs.is_empty() || start.elapsed() < budget {
        let (solved, game) = solve_one(shape, seed, index, REPEATS, &mut spans);
        out.check(1, solved.violation.clone());
        runs.push(solved);
        last_game = Some(game);
        index += 1;
    }

    let all = |f: fn(&Solved) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let peak = sys::peak_rss_mib(std::process::id()).unwrap_or(f64::NAN);
    out.e2e("setup_s", median(&all(|s| s.setup_s)));
    // As on the serving side, each instance is a window with its own p50 and
    // tail (the median and the slowest of its repeats); the metrics are
    // medians over windows.
    let slowest = |s: &Solved| s.repeat_ms.iter().copied().fold(f64::NAN, f64::max);
    out.e2e("latency_p50_ms", median(&all(|s| s.solve_ms)));
    out.e2e("latency_p99_ms", median(&all(slowest)));
    out.e2e("cpu_us_per_req", median(&all(|s| s.cpu_us)));
    out.e2e("peak_rss_mb", peak);
    out.note(format!(
        "instances={} (after {warm_instances} warm-up)",
        runs.len()
    ));

    if traced {
        algorithm_layers(runs.iter(), &mut out);
        let traced_vs_untraced = |s: &Solved| {
            let ms = &s.repeat_ms;
            (ms[REPEATS - 1] / ms[REPEATS - 2] - 1.0) * 100.0
        };
        out.layer("trace.overhead_pct", median(&all(traced_vs_untraced)));
        let game = last_game.expect("at least one instance ran");
        probe_core(&game, derive_seed(seed, 2_000_000), &mut out);
        spans.link_to_roots("solve.instance");
        out.spans = Some(spans);
    }
    out
}

/// Slot and update counts summed over `runs`, their ratio, time per slot,
/// and the median certification time.
fn algorithm_layers<'a>(runs: impl Iterator<Item = &'a Solved> + Clone, out: &mut Outcome) {
    let slots: usize = runs.clone().map(|s| s.slots).sum();
    let updates: usize = runs.clone().map(|s| s.updates).sum();
    let solve_ms: f64 = runs.clone().map(|s| s.solve_ms).sum();
    let is_nash_ms: Vec<f64> = runs.map(|s| s.is_nash_ms).collect();
    out.layer("algorithms.slots", slots as f64);
    out.layer("algorithms.updates", updates as f64);
    out.layer(
        "algorithms.updates_per_slot",
        updates as f64 / slots.max(1) as f64,
    );
    out.layer("algorithms.slot_us", solve_ms * 1e3 / slots.max(1) as f64);
    out.layer("core.is_nash_ms", median(&is_nash_ms));
}

/// The core and algorithm layer metrics of a traced serving run, measured
/// on a DGRN solve of an instance with a serving lane's shape.
pub fn probe_shape(users: usize, tasks: usize, seed: u64, out: &mut Outcome) {
    let shape = SolveShape {
        algorithm: DistributedAlgorithm::Dgrn,
        users,
        tasks,
    };
    let (solved, game) = solve_one(
        &shape,
        seed,
        0,
        1,
        &mut Spans::new(Instant::now(), false, 0),
    );
    if let Some(v) = &solved.violation {
        out.violation(format!("lane-shaped probe: {v}"));
    }
    algorithm_layers(std::iter::once(&solved), out);
    probe_core(&game, derive_seed(seed, 1), out);
}

/// Core-layer probes on `game` from its seeded random initial profile:
/// `Engine::new`, a full best-response scan, a sample of improving
/// `apply_move`s with their dirty sets, and one greedy conflict-free
/// `apply_batch`.
fn probe_core(game: &Game, seed: u64, out: &mut Outcome) {
    let n = game.user_count();
    let choices = gen::initial_choices(game.users(), seed);
    let profile = Profile::new(game, choices);

    let t = Instant::now();
    let engine = Engine::new(game, profile.clone());
    out.layer("core.engine_new_ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let best: Vec<Option<RouteId>> = (0..n)
        .map(|i| engine.best_route_set(UserId::from_index(i)).first())
        .collect();
    out.layer(
        "core.best_response_ns",
        t.elapsed().as_nanos() as f64 / n as f64,
    );

    // Improving moves in a seeded order, each re-checked against the
    // current profile so every timed move is still improving.
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let mut engine = engine;
    let mut dirty = Vec::new();
    let (mut moves, mut move_ns, mut dirtied) = (0usize, 0u128, 0usize);
    for &i in &order {
        if moves == MOVE_SAMPLE {
            break;
        }
        let user = UserId::from_index(i);
        let Some(route) = engine.best_route_set(user).first() else {
            continue;
        };
        let t = Instant::now();
        engine.apply_move(user, route);
        engine.take_dirty_into(&mut dirty);
        move_ns += t.elapsed().as_nanos();
        dirtied += dirty.len();
        moves += 1;
    }
    out.layer("core.apply_move_ns", move_ns as f64 / moves.max(1) as f64);
    out.layer("core.dirty_per_move", dirtied as f64 / moves.max(1) as f64);

    // A greedy conflict-free batch from the initial profile: a move joins
    // when its affected tasks (current ∪ new route) are all unclaimed.
    let mut engine = Engine::new(game, profile);
    let mut claimed = vec![false; game.task_count()];
    let mut batch = Vec::new();
    for (i, route) in best.iter().enumerate() {
        let Some(route) = *route else { continue };
        let user = UserId::from_index(i);
        let current = engine.profile().choice(user);
        let affected = || {
            engine
                .route_task_list(user, current)
                .iter()
                .chain(engine.route_task_list(user, route))
        };
        if affected().all(|t| !claimed[t.index()]) {
            affected().for_each(|t| claimed[t.index()] = true);
            batch.push((user, route));
        }
    }
    let t = Instant::now();
    engine.apply_batch(&batch);
    out.layer(
        "core.apply_batch_ns_per_move",
        t.elapsed().as_nanos() as f64 / batch.len().max(1) as f64,
    );
}
