//! Where threads run, fixed by the benchmark instead of left to the kernel.
//!
//! On a few shared vCPUs the kernel's placement *was* the measurement: a
//! worker woken on the other CPU starts late and cold, one woken behind a
//! busy thread waits for the scheduler, and the choice differed from
//! process to process (`fine_grain` inferred in 0.40 ms in one process and
//! 0.52 ms in the next). An earlier version held the second vCPU with a
//! spinning thread so that caller and worker always shared the first; that
//! kept every vCPU busy, and anything else the host had to run (the driver,
//! a kernel thread) then took its time from the measured thread. Now the
//! serving tier and every one-worker executor are pinned to one CPU (the
//! last the process may use), the load generator to the others, and no
//! thread spins to hold a CPU: one CPU computes, the rest are the
//! generator's (which sleeps between requests and yields through the last
//! half millisecond before one is due) and whatever else the host runs.
//!
//! A thread's affinity is set with `taskset -cp <cpus> <tid>` (util-linux),
//! the thread id read from `/proc/thread-self`: no `unsafe`, no new
//! dependency. Threads inherit the mask of the thread that spawns them.
//! Where either is missing nothing is pinned and the run says so.

use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// Which CPUs a thread may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cpus {
    /// The serving tier's CPU: the last one the process started with.
    Tier,
    /// Every other CPU (all of them on a one-CPU host): the generator's.
    Outside,
    /// Every CPU the process started with: a multi-worker executor's.
    All,
}

/// CPU ids the process was allowed when it started, ascending. Read once,
/// before the first pin narrows the calling thread's own mask.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("Cpus_allowed_list:"))?;
                parse_cpu_list(line.split(':').nth(1)?.trim())
            })
            .unwrap_or_default()
    })
}

/// `0-1,4` → `[0, 1, 4]`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

fn choose(cpus: Cpus, allowed: &[usize]) -> &[usize] {
    let last = allowed.len().saturating_sub(1);
    match cpus {
        Cpus::Tier => &allowed[last..],
        Cpus::Outside if last > 0 => &allowed[..last],
        Cpus::Outside | Cpus::All => allowed,
    }
}

/// CPUs the process started with; call before the first [`pin`].
pub fn host_cpus() -> usize {
    allowed().len()
}

/// Restricts the calling thread (and every thread it spawns from now on)
/// to `cpus`. `false` when that could not be done.
pub fn pin(cpus: Cpus) -> bool {
    let Ok(thread) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let Some(tid) = thread.file_name().and_then(|t| t.to_str()) else {
        return false;
    };
    let list: Vec<String> = choose(cpus, allowed())
        .iter()
        .map(usize::to_string)
        .collect();
    if list.is_empty() {
        return false;
    }
    Command::new("taskset")
        .args(["-cp", &list.join(","), tid])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_and_split() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0-2,5,8-9"), Some(vec![0, 1, 2, 5, 8, 9]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
        let four = [0, 1, 2, 5];
        assert_eq!(choose(Cpus::Tier, &four), &[5]);
        assert_eq!(choose(Cpus::Outside, &four), &[0, 1, 2]);
        assert_eq!(choose(Cpus::All, &four), &four);
        // One CPU: everything shares it.
        assert_eq!(choose(Cpus::Tier, &[7]), &[7]);
        assert_eq!(choose(Cpus::Outside, &[7]), &[7]);
        assert!(choose(Cpus::Tier, &[]).is_empty());
    }
}
