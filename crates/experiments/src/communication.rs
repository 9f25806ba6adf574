//! Communication-cost ablation (beyond the paper): what the distributed
//! protocol spends in messages and bytes to reach the equilibrium, per
//! scheduler and population size.
//!
//! The paper motivates the distributed design by the platform's reduced
//! computation and the users' privacy; this experiment quantifies the other
//! side of the ledger — the Alg. 1/Alg. 2 message exchange measured on the
//! actual wire codec.

use crate::common::build_game;
use crate::context::Ctx;
use crate::report::{fmt3, Report};
use vcs_metrics::replicate;
use vcs_obs::Obs;
use vcs_runtime::{run_sync, SchedulerKind};
use vcs_scenario::{replicate_seed, Dataset, ScenarioParams};

const TAG_COMM: u64 = 204;

/// Messages/bytes to equilibrium vs user count, SUU vs PUU.
pub fn ablation_communication(ctx: &Ctx) -> Report {
    let mut report = Report::new(
        "ablation_communication",
        "Ablation: protocol cost to equilibrium (messages / KiB), SUU vs PUU",
        &[
            "users",
            "scheduler",
            "slots",
            "messages",
            "KiB",
            "msgs/user",
        ],
    );
    let pool = ctx.pool(Dataset::Shanghai);
    for n_users in [10usize, 20, 40, 80] {
        for scheduler in [SchedulerKind::Suu, SchedulerKind::Puu] {
            let rows = replicate(ctx.reps, |rep| {
                let seed = replicate_seed(ctx.base_seed, TAG_COMM, rep);
                let game = build_game(&pool, n_users, 40, seed, ScenarioParams::default());
                let out = run_sync(&game, scheduler, seed, 1_000_000, &Obs::disabled());
                debug_assert!(out.converged);
                (
                    out.slots as f64,
                    out.telemetry.total_msgs() as f64,
                    out.telemetry.total_bytes() as f64 / 1024.0,
                )
            });
            let n = rows.len() as f64;
            let slots = rows.iter().map(|r| r.0).sum::<f64>() / n;
            let msgs = rows.iter().map(|r| r.1).sum::<f64>() / n;
            let kib = rows.iter().map(|r| r.2).sum::<f64>() / n;
            report.push_row(vec![
                n_users.to_string(),
                format!("{scheduler:?}"),
                fmt3(slots),
                fmt3(msgs),
                fmt3(kib),
                fmt3(msgs / n_users as f64),
            ]);
        }
    }
    report.note(format!(
        "40 tasks; {} repetitions per cell; common random numbers",
        ctx.reps
    ));
    report.note("PUU batches updates, so it needs fewer slots and fewer count-broadcast rounds");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn puu_uses_fewer_messages() {
        let ctx = Ctx::for_tests();
        let r = ablation_communication(&ctx);
        assert_eq!(r.rows.len(), 8);
        // Rows come in (SUU, PUU) pairs per user count.
        for pair in r.rows.chunks(2) {
            let suu_msgs: f64 = pair[0][3].parse().unwrap();
            let puu_msgs: f64 = pair[1][3].parse().unwrap();
            assert!(
                puu_msgs <= suu_msgs + 1e-9,
                "PUU messages {puu_msgs} above SUU {suu_msgs}"
            );
        }
    }

    #[test]
    fn message_count_scales_with_users() {
        let ctx = Ctx::for_tests();
        let r = ablation_communication(&ctx);
        let msgs_10: f64 = r.rows[0][3].parse().unwrap();
        let msgs_80: f64 = r.rows[6][3].parse().unwrap();
        assert!(msgs_80 > msgs_10);
    }
}
