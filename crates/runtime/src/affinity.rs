//! Worker-to-CPU binding.
//!
//! OmpSs binds its worker threads to cores by default, and the runtime does
//! the same for a multi-worker pool. Left to the kernel, the workers of a
//! short-task graph end up stacked on one CPU: a worker that parks for a few
//! microseconds is woken next to its waker whenever its own CPU looks
//! unavailable (an idle vCPU that the hypervisor has descheduled looks
//! exactly like that to a guest kernel), wake-ups never move it back, and
//! the periodic balancer needs about a second of continuous imbalance — so
//! a two-worker executor ran at one worker's speed for whole runs, or not,
//! depending on what the host had been doing before (observed: the same
//! inference batch in 45 ms or 95 ms, 24 rounds out of 24 stacked once task
//! bodies had shrunk to 40 µs).
//!
//! Worker `w` of a pool of `n > 1` workers is bound to one CPU of the set
//! the *creating* thread may run on, provided that set has at least `n`
//! CPUs; consecutive pools start where the previous one stopped, so several
//! pools in one process (router replicas, concurrent tests) spread over the
//! CPUs instead of all claiming the first few. A single worker is never
//! bound: it inherits its creator's mask, which is how an embedder places a
//! one-worker pool. Off Linux nothing is bound.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Where the next multi-worker pool starts in its creator's CPU list.
static NEXT: AtomicUsize = AtomicUsize::new(0);

/// One CPU per worker of a pool of `workers` being created by the calling
/// thread, or `None` when the pool is not bound (one worker, fewer allowed
/// CPUs than workers, not Linux, or the mask could not be read).
pub(crate) fn plan(workers: usize) -> Option<Vec<usize>> {
    if workers < 2 {
        return None;
    }
    let allowed = allowed_cpus()?;
    if allowed.len() < workers {
        return None;
    }
    let base = NEXT.fetch_add(workers, Ordering::Relaxed);
    Some(
        (0..workers)
            .map(|w| allowed[(base + w) % allowed.len()])
            .collect(),
    )
}

/// CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Option<Vec<usize>> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    parse_cpu_list(line.split(':').nth(1)?.trim())
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

/// Restricts the calling thread to `cpu`. Failure is not an error: the
/// thread then runs wherever the kernel puts it, as it did before.
pub(crate) fn bind_current_thread(cpu: usize) {
    #[cfg(target_os = "linux")]
    {
        /// Bits in glibc's `cpu_set_t`.
        const SET_BITS: usize = 1024;
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        if cpu >= SET_BITS {
            return;
        }
        let mut mask = [0u64; SET_BITS / 64];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised buffer of exactly the size
        // passed, which is all `sched_setaffinity(2)` reads; pid 0 is the
        // calling thread. The call changes scheduling only, no memory.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpu;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0-2,5,8-9"), Some(vec![0, 1, 2, 5, 8, 9]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn one_worker_is_never_bound_and_pools_take_turns() {
        assert_eq!(plan(1), None);
        let Some(allowed) = allowed_cpus() else {
            return;
        };
        assert_eq!(plan(allowed.len() + 1), None);
        if allowed.len() >= 2 {
            let a = plan(2).expect("two CPUs allow a pool of two");
            assert_ne!(a[0], a[1]);
            assert!(a.iter().all(|c| allowed.contains(c)));
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn binding_narrows_the_calling_thread_only() {
        let Some(allowed) = allowed_cpus() else {
            return;
        };
        let cpu = *allowed.last().unwrap();
        let bound = std::thread::spawn(move || {
            bind_current_thread(cpu);
            allowed_cpus()
        })
        .join()
        .unwrap();
        assert_eq!(bound, Some(vec![cpu]));
        assert_eq!(allowed_cpus(), Some(allowed));
    }
}
