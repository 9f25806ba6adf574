//! Process and machine facts read from `/proc` and the checkout.

use std::fs;
use std::io;
use std::path::Path;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every mainstream kernel configuration.
const TICK_US: f64 = 10_000.0;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Peak resident set size (`VmHWM`) of `pid`, MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| bad("no VmHWM"))?;
    Ok(kib / 1024.0)
}

/// User and system CPU time of the whole process `pid` (every thread,
/// including exited ones), microseconds at clock-tick resolution.
pub fn cpu_user_sys_us(pid: u32) -> io::Result<(f64, f64)> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(") ")
        .ok_or_else(|| bad("malformed stat"))?
        .1;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> io::Result<f64> {
        fields
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .map(|t| t as f64 * TICK_US)
            .ok_or_else(|| bad("malformed stat"))
    };
    Ok((tick()?, tick()?))
}

/// Nanoseconds the live threads of `pid` have run on a CPU
/// (`/proc/<pid>/task/*/schedstat`), which resolves far finer than clock
/// ticks. Threads that exit take their time with them, so compare two
/// readings only across a window in which the process starts and ends no
/// threads.
pub fn cpu_ns_live_threads(pid: u32) -> io::Result<u64> {
    let mut total = 0u64;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between listing and reading.
        if let Ok(s) = fs::read_to_string(path) {
            total += s
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| bad("malformed schedstat"))?;
        }
    }
    Ok(total)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the current directory, read from `.git`
/// directly (so nothing outside the checkout is consulted), or `unknown`
/// when the directory is not a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_counters_are_readable() {
        let pid = std::process::id();
        assert!(peak_rss_mib(pid).expect("VmHWM") > 0.0);
        let (user, sys) = cpu_user_sys_us(pid).expect("stat");
        assert!(user >= 0.0 && sys >= 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 20 {}
        assert!(cpu_ns_live_threads(pid).expect("schedstat") > 0);
    }
}
