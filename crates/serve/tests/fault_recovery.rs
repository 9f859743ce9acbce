//! End-to-end fault-recovery properties (ISSUE tentpole invariant):
//! under **any** seeded fault plan, every admitted request reaches
//! exactly one terminal outcome — served, shed, rejected, or failed
//! after its retry budget — and the serving loop never deadlocks or
//! loses a request.
//!
//! Determinism harness: every request is enqueued before the serving
//! loop starts (queue capacity ≥ request count, so admission never
//! blocks or rejects and the loop's first intake takes them all), no
//! request carries a deadline, the batch window is one no request
//! outlives (so which bucket goes next never depends on the clock),
//! retries are [`RetryPolicy::immediate`], and the fault plan has an
//! unlimited panic budget. Under those conditions the sequence of batch
//! executions — and therefore every counter — is a pure function of the
//! seed, which is what lets the same-seed property diff whole counter
//! sets across runs (the chaos CI job checks the same thing through the
//! CLI).

use bpar_core::model::{Brnn, BrnnConfig};
use bpar_runtime::FaultConfig;
use bpar_serve::breaker::BreakerConfig;
use bpar_serve::metrics::MetricsCollector;
use bpar_serve::queue::{Admission, AdmissionQueue};
use bpar_serve::request::{InferRequest, Outcome};
use bpar_serve::server::{RetryPolicy, ServeConfig, Server};
use bpar_serve::{BackpressurePolicy, BatchPolicy};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

fn tiny_model() -> Brnn<f32> {
    Brnn::new(
        BrnnConfig {
            input_size: 4,
            hidden_size: 3,
            layers: 1,
            seq_len: 6,
            output_size: 3,
            ..BrnnConfig::default()
        },
        13,
    )
}

fn frames(len: usize, dim: usize, salt: u64) -> Vec<Vec<f32>> {
    (0..len)
        .map(|t| {
            (0..dim)
                .map(|c| ((salt as usize + 5 * t + c) % 9) as f32 * 0.2 - 0.8)
                .collect()
        })
        .collect()
}

/// What one chaos run observed, reduced to its deterministic parts.
#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    /// id → ("served" | "shed" | "rejected" | "failed", attempts, batch_rows).
    terminal: Vec<(u64, &'static str, u32, usize)>,
    served: u64,
    failed: u64,
    retries: u64,
    breaker_opened: u64,
    breaker_closed: u64,
    injected_panics: u64,
    injected_straggles: u64,
}

/// Runs `requests` pre-enqueued requests through a server under `fault`
/// and collects every serve-side outcome.
fn run_chaos(
    fault: FaultConfig,
    policy: BackpressurePolicy,
    max_batch: usize,
    bucket_width: usize,
    max_retries: u32,
    workers: usize,
    requests: u64,
) -> RunOutcome {
    let cfg = ServeConfig {
        queue_capacity: requests as usize + 1,
        policy,
        batch: BatchPolicy::new(max_batch, Duration::from_secs(3600))
            .with_bucket_width(bucket_width),
        workers,
        retry: RetryPolicy::immediate(max_retries),
        breaker: BreakerConfig::default(),
        ..ServeConfig::default()
    };
    let server = Server::new(tiny_model(), cfg);
    let plan = server.install_fault_plan(fault);
    let queue = AdmissionQueue::new(cfg.queue_capacity, cfg.policy);
    for id in 0..requests {
        let len = 3 + (id as usize % 5); // lengths 3..=7, several buckets
        let admission = queue.push(InferRequest::new(id, frames(len, 4, id)));
        assert!(
            matches!(admission, Admission::Admitted { ref shed } if shed.is_empty()),
            "capacity >= requests must admit everything"
        );
    }
    queue.close();
    let mut metrics = MetricsCollector::new();
    let mut terminal = Vec::new();
    server.serve(&queue, &mut metrics, |o| {
        let row = match &o {
            Outcome::Served(r) => (r.id, "served", r.timing.attempts, r.timing.batch_rows),
            Outcome::Shed { id } => (*id, "shed", 0, 0),
            Outcome::Rejected { id } => (*id, "rejected", 0, 0),
            Outcome::Failed { id } => (*id, "failed", 0, 0),
            // No hedging in this harness: requests carry no cancel cell.
            Outcome::Cancelled { id } => (*id, "cancelled", 0, 0),
        };
        terminal.push(row);
    });
    RunOutcome {
        terminal,
        served: metrics.served(),
        failed: metrics.failed(),
        retries: metrics.retries(),
        breaker_opened: metrics.breaker_opened(),
        breaker_closed: metrics.breaker_closed(),
        injected_panics: plan.injected_panics(),
        injected_straggles: plan.injected_straggles(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole invariant: one terminal outcome per request, no
    /// duplicates, no losses — under any seeded fault plan and any
    /// backpressure policy. Retried requests that do get served must
    /// have been re-executed alone (poison isolation).
    #[test]
    fn every_request_reaches_exactly_one_terminal_outcome(
        seed in 0u64..1_000_000,
        panic_pm in 0u32..200,     // per-mille: 0..0.2 per task
        straggle_pm in 0u32..50,
        policy_ix in 0usize..3,
        max_batch in 1usize..5,
        bucket_width in 1usize..3,
        max_retries in 0u32..4,
        workers in 1usize..3,
        requests in 8u64..32,
    ) {
        let policy = [
            BackpressurePolicy::Block,
            BackpressurePolicy::Reject,
            BackpressurePolicy::ShedExpired,
        ][policy_ix];
        let fault = FaultConfig {
            seed,
            panic_rate: panic_pm as f64 / 1000.0,
            straggle_rate: straggle_pm as f64 / 1000.0,
            straggle: Duration::from_micros(20),
            ..FaultConfig::default()
        };
        let run = run_chaos(fault, policy, max_batch, bucket_width, max_retries, workers, requests);

        let mut seen: HashMap<u64, u32> = HashMap::new();
        for (id, _, _, _) in &run.terminal {
            *seen.entry(*id).or_insert(0) += 1;
        }
        for id in 0..requests {
            prop_assert_eq!(
                seen.get(&id).copied().unwrap_or(0), 1,
                "request {} must reach exactly one terminal outcome", id
            );
        }
        prop_assert_eq!(run.served + run.failed, requests, "no deadline, full capacity: served+failed covers all");
        for (id, kind, attempts, batch_rows) in &run.terminal {
            if *kind == "served" && *attempts > 0 {
                prop_assert_eq!(
                    *batch_rows, 1,
                    "request {} served on retry {} must run as a singleton", id, attempts
                );
            }
        }
        if max_retries == 0 {
            prop_assert_eq!(run.retries, 0, "disabled retry policy must never retry");
        }
    }

    /// Same seed, same configuration → byte-identical counters and the
    /// same multiset of terminal outcomes, even with injected faults,
    /// stragglers, and a multi-threaded worker pool.
    #[test]
    fn same_seed_runs_are_counter_identical(
        seed in 0u64..1_000_000,
        panic_pm in 1u32..150,
        max_batch in 1usize..5,
        max_retries in 1u32..4,
        workers in 1usize..3,
    ) {
        let fault = FaultConfig {
            seed,
            panic_rate: panic_pm as f64 / 1000.0,
            straggle_rate: 0.02,
            straggle: Duration::from_micros(20),
            ..FaultConfig::default()
        };
        let run = || {
            let mut r = run_chaos(
                fault,
                BackpressurePolicy::Block,
                max_batch,
                1,
                max_retries,
                workers,
                24,
            );
            // Worker interleaving may reorder emissions inside a batch;
            // the *set* of outcomes must match exactly.
            r.terminal.sort_unstable();
            r
        };
        prop_assert_eq!(run(), run(), "same-seed chaos runs must agree on every counter");
    }
}

/// A finite panic budget gives the run a storm-then-calm shape: the
/// breaker must open during the storm and close again once the budget
/// is spent and a clean window passes — observable in one run's
/// counters, with the degraded phase never losing a request.
#[test]
fn breaker_opens_and_closes_under_finite_budget() {
    let fault = FaultConfig {
        seed: 99,
        panic_rate: 1.0,
        panic_budget: 200,
        ..FaultConfig::default()
    };
    // workers = 1 keeps finite-budget claim order deterministic.
    let run = run_chaos(fault, BackpressurePolicy::Block, 2, 1, 6, 1, 30);
    assert!(
        run.breaker_opened >= 1,
        "sustained failure must open the breaker: {run:?}"
    );
    assert!(
        run.breaker_closed >= 1,
        "clean window after budget exhaustion must close the breaker: {run:?}"
    );
    assert_eq!(run.injected_panics, 200, "budget must be spent exactly");
    assert_eq!(run.served + run.failed, 30);
    assert!(run.served > 0, "post-storm requests must serve: {run:?}");
}

/// With no faults installed the recovery machinery must be invisible:
/// no retries, no breaker transitions, everything served.
#[test]
fn clean_run_never_touches_recovery_path() {
    let fault = FaultConfig {
        seed: 1,
        panic_rate: 0.0,
        straggle_rate: 0.0,
        ..FaultConfig::default()
    };
    let run = run_chaos(fault, BackpressurePolicy::Block, 4, 1, 2, 2, 20);
    assert_eq!(run.served, 20);
    assert_eq!(run.failed, 0);
    assert_eq!(run.retries, 0);
    assert_eq!(run.breaker_opened, 0);
    assert_eq!(run.breaker_closed, 0);
    assert_eq!(run.injected_panics, 0);
}
