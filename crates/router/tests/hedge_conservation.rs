//! Fleet-level conservation properties (ISSUE tentpole invariant):
//! under **any** routing policy × hedging mode × fault plan, every
//! request submitted to the router reaches **exactly one**
//! client-terminal outcome — served, shed, rejected, or failed — no
//! matter how many redundant copies were dispatched, cancelled, or
//! crashed; and the deterministic counter subset is byte-identical
//! across same-seed runs in the deterministic configurations.
//!
//! Determinism harness (the PR-4 recipe, fleet edition): the router
//! starts **paused**, every request is submitted before the shard serve
//! loops run (per-shard queue capacity ≥ 2× requests, so even
//! at-dispatch double-enqueue never blocks, and each shard loop's first
//! intake takes everything routed to it), no deadlines, a batch window no
//! request outlives, immediate retries, and unlimited fault budgets.
//! Under those conditions each shard's batch sequence is
//! a pure function of (seed, routed key set).

use bpar_core::model::BrnnConfig;
use bpar_router::{
    build_models, default_tenants, HedgePolicy, Router, RouterConfig, RouterReport, RoutingPolicy,
};
use bpar_runtime::FaultConfig;
use bpar_serve::breaker::BreakerConfig;
use bpar_serve::request::{InferRequest, Outcome};
use bpar_serve::server::{RetryPolicy, ServeConfig};
use bpar_serve::{BackpressurePolicy, BatchPolicy};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 4;

fn arch() -> BrnnConfig {
    BrnnConfig {
        input_size: DIM,
        hidden_size: 3,
        layers: 1,
        seq_len: 6,
        output_size: 3,
        ..BrnnConfig::default()
    }
}

fn frames(len: usize, salt: u64) -> Vec<Vec<f32>> {
    (0..len)
        .map(|t| {
            (0..DIM)
                .map(|c| ((salt as usize + 5 * t + c) % 9) as f32 * 0.2 - 0.8)
                .collect()
        })
        .collect()
}

/// One fleet run reduced to comparable parts.
struct FleetRun {
    /// Sorted (id, kind) client-terminal outcomes.
    terminal: Vec<(u64, &'static str)>,
    report: RouterReport,
}

#[allow(clippy::too_many_arguments)]
fn run_fleet(
    replicas: usize,
    tenants: usize,
    routing: RoutingPolicy,
    hedge: HedgePolicy,
    fault: Option<FaultConfig>,
    max_batch: usize,
    max_retries: u32,
    workers: usize,
    requests: u64,
    plan_byte_budget: Option<u64>,
) -> FleetRun {
    let serve = ServeConfig {
        // At-dispatch hedging enqueues two copies per request; capacity
        // for all of them on one shard means submit never blocks.
        queue_capacity: 2 * requests as usize + 4,
        policy: BackpressurePolicy::Block,
        batch: BatchPolicy::new(max_batch, Duration::from_secs(3600)),
        workers,
        retry: RetryPolicy::immediate(max_retries),
        breaker: BreakerConfig::default(),
        plan_byte_budget,
        ..ServeConfig::default()
    };
    let config = RouterConfig {
        replicas,
        routing,
        hedge,
        serve,
        fault,
        start_paused: true,
    };
    let models = build_models::<f32>(arch(), &default_tenants(tenants));
    let terminal: Arc<Mutex<Vec<(u64, &'static str)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&terminal);
    let router = Router::new(models, config, move |o| {
        let row = match &o {
            Outcome::Served(r) => (r.id, "served"),
            Outcome::Shed { id } => (*id, "shed"),
            Outcome::Rejected { id } => (*id, "rejected"),
            Outcome::Failed { id } => (*id, "failed"),
            Outcome::Cancelled { id } => (*id, "cancelled"),
        };
        sink.lock().push(row);
    });
    for id in 0..requests {
        let len = 3 + (id as usize % 4); // lengths 3..=6: several shapes
        let mut req = InferRequest::new(id, frames(len, id));
        req.tenant = (id % tenants as u64) as u32;
        router.submit(req);
    }
    router.release();
    let report = router.finish();
    let mut terminal = Arc::try_unwrap(terminal)
        .unwrap_or_else(|_| panic!("sink still shared after finish"))
        .into_inner();
    terminal.sort_unstable();
    FleetRun { terminal, report }
}

fn hedge_mode(ix: usize) -> HedgePolicy {
    match ix {
        0 => HedgePolicy::Off,
        1 => HedgePolicy::AtDispatch,
        // An aggressive deadline (tiny floor, few samples) so the
        // monitor actually hedges in a short test run.
        _ => HedgePolicy::Deadline {
            quantile: 0.5,
            min_samples: 4,
            floor: Duration::from_micros(10),
            tick: Duration::from_micros(50),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: exactly one client-terminal outcome per
    /// request under any fault plan × routing policy × hedge mode, with
    /// router-level accounting consistent with the delivered outcomes.
    #[test]
    fn exactly_one_terminal_outcome_per_request(
        seed in 0u64..1_000_000,
        panic_pm in 0u32..150,
        straggle_pm in 0u32..40,
        replicas in 1usize..5,
        tenants in 1usize..3,
        routing_ix in 0usize..2,
        hedge_ix in 0usize..3,
        max_batch in 1usize..4,
        max_retries in 0u32..3,
        workers in 1usize..3,
        requests in 8u64..24,
    ) {
        let routing = [RoutingPolicy::Hash, RoutingPolicy::LeastLoaded][routing_ix];
        let fault = FaultConfig {
            seed,
            panic_rate: panic_pm as f64 / 1000.0,
            straggle_rate: straggle_pm as f64 / 1000.0,
            straggle: Duration::from_micros(20),
            ..FaultConfig::default()
        };
        let run = run_fleet(
            replicas, tenants, routing, hedge_mode(hedge_ix),
            Some(fault), max_batch, max_retries, workers, requests, None,
        );

        let mut seen: HashMap<u64, u32> = HashMap::new();
        for (id, kind) in &run.terminal {
            prop_assert_ne!(*kind, "cancelled", "Cancelled is copy-level, never client-terminal");
            *seen.entry(*id).or_insert(0) += 1;
        }
        for id in 0..requests {
            prop_assert_eq!(
                seen.get(&id).copied().unwrap_or(0), 1,
                "request {} must reach exactly one client-terminal outcome", id
            );
        }
        let r = &run.report;
        prop_assert_eq!(r.submitted, requests);
        prop_assert_eq!(r.completed, requests);
        prop_assert_eq!(r.served + r.failed + r.shed + r.rejected, requests);
        // Full capacity, no deadlines: nothing sheds or rejects.
        prop_assert_eq!(r.served + r.failed, requests);
        let routed: u64 = r.shards.iter().map(|s| s.routed).sum();
        prop_assert_eq!(routed, requests, "every request routed to exactly one primary");
        if matches!(hedge_mode(hedge_ix), HedgePolicy::AtDispatch) && replicas > 1 {
            prop_assert_eq!(r.hedges, requests, "at-dispatch hedges every request");
        }
        if replicas == 1 {
            prop_assert_eq!(r.hedges, 0, "a single replica must never hedge");
        }
    }

    /// Same seed, hash routing, hedging off or at-dispatch → the
    /// deterministic counter subset and the terminal outcome set are
    /// byte-identical across runs, even with faults, stragglers, and
    /// redundant copies racing for claims.
    #[test]
    fn same_seed_deterministic_counters(
        seed in 0u64..1_000_000,
        panic_pm in 1u32..120,
        replicas in 2usize..5,
        tenants in 1usize..3,
        at_dispatch_ix in 0usize..2,
        max_batch in 1usize..4,
        max_retries in 1u32..3,
        workers in 1usize..3,
    ) {
        let hedge = if at_dispatch_ix == 1 { HedgePolicy::AtDispatch } else { HedgePolicy::Off };
        let fault = FaultConfig {
            seed,
            panic_rate: panic_pm as f64 / 1000.0,
            straggle_rate: 0.02,
            straggle: Duration::from_micros(20),
            ..FaultConfig::default()
        };
        let run = || run_fleet(
            replicas, tenants, RoutingPolicy::Hash, hedge,
            Some(fault), max_batch, max_retries, workers, 20, None,
        );
        let (a, b) = (run(), run());
        prop_assert_eq!(
            a.report.deterministic_counters_json(),
            b.report.deterministic_counters_json(),
            "same-seed fleet runs must agree on the deterministic counter subset"
        );
        prop_assert_eq!(a.terminal, b.terminal, "terminal outcome sets must match");
    }
}

/// Clean fleet, hash routing: everything serves, primaries spread over
/// shards, and with at-dispatch hedging every request also lands a copy
/// on its (distinct) hedge shard.
#[test]
fn clean_fleet_spreads_and_hedges() {
    let run = run_fleet(
        4,
        2,
        RoutingPolicy::Hash,
        HedgePolicy::AtDispatch,
        None,
        2,
        1,
        2,
        32,
        None,
    );
    let r = &run.report;
    assert_eq!(r.served, 32);
    assert_eq!(r.failed + r.shed + r.rejected, 0);
    assert_eq!(r.hedges, 32);
    assert_eq!(
        r.cancelled_copies, 32,
        "with every request duplicated and served, every loser cancels: {r:?}"
    );
    for shard in &r.shards {
        assert!(
            shard.routed > 0,
            "rendezvous hashing should give every shard primaries over 32 keys"
        );
    }
}

/// A tight plan byte budget forces tenant-LRU eviction under fleet load
/// while the run still serves everything (evicted plans recompile on
/// their tenant's next request) — and no shard's resident arena ever
/// exceeds the budget.
#[test]
fn tenant_plan_budget_holds_under_fleet_load() {
    // Learn the arena cost of one tenant's working set (4 request
    // lengths → up to 4 cached plan shapes) on this architecture.
    let probe = run_fleet(
        1,
        1,
        RoutingPolicy::Hash,
        HedgePolicy::Off,
        None,
        1,
        0,
        1,
        8,
        None,
    );
    let one_tenant = probe.report.shards[0].serving.arena_bytes;
    assert!(one_tenant > 0, "probe must cache plans");
    // Half of one tenant's working set; three tenants fight over it.
    let budget = one_tenant / 2;
    let run = run_fleet(
        2,
        3,
        RoutingPolicy::Hash,
        HedgePolicy::Off,
        None,
        1,
        0,
        1,
        30,
        Some(budget),
    );
    let r = &run.report;
    assert_eq!(r.served, 30, "evictions must not lose requests: {r:?}");
    let mut evictions = 0;
    for shard in &r.shards {
        assert!(
            shard.serving.arena_bytes <= budget,
            "shard {} arena {} exceeds budget {}",
            shard.shard,
            shard.serving.arena_bytes,
            budget
        );
        evictions += shard.serving.tenant_evictions;
    }
    assert!(
        evictions > 0,
        "three tenants through a half-tenant budget must evict: {r:?}"
    );
}
