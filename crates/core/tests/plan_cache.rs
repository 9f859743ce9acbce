//! Cached-execution-plan correctness: replayed plans must be
//! bit-identical to freshly built graphs and to the sequential reference,
//! the weight store must be shared across batches (no per-batch model
//! clone), and a failed batch must leave the executor serviceable.

use bpar_core::cell::CellKind;
use bpar_core::exec::{BSeqExec, BarrierExec, Executor, SequentialExec, Target, TaskGraphExec};
use bpar_core::merge::MergeMode;
use bpar_core::model::{Brnn, BrnnConfig, ModelKind};
use bpar_core::optim::Sgd;
use bpar_runtime::SchedulerPolicy;
use bpar_tensor::{init, Matrix};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = BrnnConfig> {
    (
        prop_oneof![
            Just(CellKind::Lstm),
            Just(CellKind::Gru),
            Just(CellKind::Vanilla)
        ],
        1usize..4, // input
        1usize..6, // hidden
        1usize..3, // layers
        2usize..5, // output
        prop_oneof![
            Just(MergeMode::Sum),
            Just(MergeMode::Avg),
            Just(MergeMode::Mul),
            Just(MergeMode::Concat)
        ],
        prop_oneof![Just(ModelKind::ManyToOne), Just(ModelKind::ManyToMany)],
    )
        .prop_map(
            |(cell, input_size, hidden_size, layers, output_size, merge, kind)| BrnnConfig {
                cell,
                input_size,
                hidden_size,
                layers,
                seq_len: 4, // per-batch seq comes from the inputs, not the config
                output_size,
                merge,
                kind,
            },
        )
}

/// The three executor disciplines: B-Par, the barrier baseline and B-Seq,
/// each a cached plan replayed by a [`TaskGraphExec`].
#[derive(Debug, Clone, Copy)]
enum Discipline {
    BPar,
    Barrier,
    BSeq,
}

fn discipline() -> impl Strategy<Value = Discipline> {
    prop_oneof![
        Just(Discipline::BPar),
        Just(Discipline::Barrier),
        Just(Discipline::BSeq)
    ]
}

/// A two-worker executor of `d` with `mbs` mini-batches.
fn executor(d: Discipline, mbs: usize) -> TaskGraphExec {
    match d {
        Discipline::BPar => TaskGraphExec::with_config(2, SchedulerPolicy::LocalityAware, mbs),
        Discipline::Barrier => BarrierExec::with_config(2, SchedulerPolicy::LocalityAware, mbs),
        Discipline::BSeq => BSeqExec::new(2, mbs),
    }
}

fn inputs(cfg: &BrnnConfig, rows: usize, seq: usize, seed: u64) -> Vec<Matrix<f64>> {
    (0..seq)
        .map(|t| init::uniform(rows, cfg.input_size, -1.0, 1.0, seed * 131 + t as u64))
        .collect()
}

fn target_for(cfg: &BrnnConfig, rows: usize, seq: usize, salt: usize) -> Target {
    match cfg.kind {
        ModelKind::ManyToOne => {
            Target::Classes((0..rows).map(|r| (r + salt) % cfg.output_size).collect())
        }
        ModelKind::ManyToMany => Target::SeqClasses(
            (0..seq)
                .map(|t| {
                    (0..rows)
                        .map(|r| (r + t + salt) % cfg.output_size)
                        .collect()
                })
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Interleaving two batch shapes on one executor (so each shape's
    /// plan is built once and replayed on every revisit) must reproduce a
    /// fresh sequential forward bit-for-bit, for arbitrary architectures,
    /// mini-batch splits and disciplines.
    #[test]
    fn interleaved_shape_replays_match_sequential_bitwise(
        cfg in arb_config(),
        (rows_a, seq_a) in (1usize..5, 1usize..5),
        (rows_b, seq_b) in (1usize..5, 1usize..5),
        mbs in 1usize..4,
        disc in discipline(),
        seed in 0u64..1000,
    ) {
        let model: Brnn<f64> = Brnn::new(cfg, seed);
        let exec = executor(disc, mbs);
        let seq_exec = SequentialExec::new();
        for round in 0..3u64 {
            for (shape_seed, rows, seq) in
                [(seed + round, rows_a, seq_a), (seed + 500 + round, rows_b, seq_b)]
            {
                let xs = inputs(&cfg, rows, seq, shape_seed);
                let cached = exec.forward(&model, &xs);
                let fresh = seq_exec.forward(&model, &xs);
                prop_assert_eq!(cached.logits.max_abs_diff(&fresh.logits), 0.0);
                prop_assert_eq!(cached.seq_logits.len(), fresh.seq_logits.len());
                for (c, f) in cached.seq_logits.iter().zip(&fresh.seq_logits) {
                    prop_assert_eq!(c.max_abs_diff(f), 0.0);
                }
            }
        }
        // One plan per distinct shape; all 6 other batches replayed; both
        // plans read one weight store, seeded once.
        let distinct = if (rows_a, seq_a) == (rows_b, seq_b) { 1 } else { 2 };
        let stats = exec.plan_cache_stats();
        prop_assert_eq!(stats.misses, distinct);
        prop_assert_eq!(stats.hits, 6 - distinct);
        prop_assert_eq!(stats.weight_syncs, 1);
    }

    /// Repeated training steps replay the cached plan with *changing*
    /// weights (each step bumps the model revision) and must track the
    /// sequential reference bit-for-bit at mbs = 1, under every
    /// discipline.
    #[test]
    fn replayed_training_steps_match_sequential_bitwise(
        cfg in arb_config(),
        rows in 1usize..5,
        disc in discipline(),
        seed in 0u64..1000,
    ) {
        let seq = 3;
        let mut a: Brnn<f64> = Brnn::new(cfg, seed);
        let mut b: Brnn<f64> = Brnn::new(cfg, seed);
        let mut oa = Sgd::new(0.1);
        let mut ob = Sgd::new(0.1);
        let exec = executor(disc, 1);
        let seq_exec = SequentialExec::new();
        for step in 0..3u64 {
            let xs = inputs(&cfg, rows, seq, seed + step);
            let target = target_for(&cfg, rows, seq, step as usize);
            let la = exec.train_batch(&mut a, &xs, &target, &mut oa);
            let lb = seq_exec.train_batch(&mut b, &xs, &target, &mut ob);
            prop_assert_eq!(la, lb, "loss diverged at step {}", step);
            prop_assert_eq!(a.max_param_diff(&b), 0.0);
        }
        let stats = exec.plan_cache_stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 2);
        // Build copy + one re-sync after each of the first two updates.
        prop_assert_eq!(stats.weight_syncs, 3);
    }

    /// A warm training replay is isolated from the ones before it: a
    /// training plan keeps every buffer between batches, so after N warm
    /// steps — training and inference batches of two shapes interleaved
    /// on one executor — step N+1's loss, its gradients (seen through the
    /// updated weights) and the logits that follow must equal a cold step
    /// bitwise: `SequentialExec`'s at mbs 1, a fresh executor's otherwise
    /// (a split batch regroups the loss sums, so only the cold plan is a
    /// bitwise reference). Never-written `dh` slots (many-to-one), the
    /// reductions (mbs > 1) and every scheduler on 1–3 workers included.
    #[test]
    fn warm_training_replays_match_a_cold_step_bitwise(
        cfg in arb_config(),
        warm_steps in prop_oneof![Just(1u64), Just(3)],
        mbs in 1usize..4,
        workers in 1usize..4,
        policy in prop_oneof![
            Just(SchedulerPolicy::Fifo),
            Just(SchedulerPolicy::LocalityAware),
            Just(SchedulerPolicy::WorkStealing)
        ],
        (rows_a, seq_a) in (1usize..5, 1usize..5),
        (rows_b, seq_b) in (1usize..5, 1usize..5),
        seed in 0u64..1000,
    ) {
        let mut model: Brnn<f64> = Brnn::new(cfg, seed);
        let exec = TaskGraphExec::with_config(workers, policy, mbs);
        for step in 0..warm_steps {
            for (salt, rows, seq) in [(0, rows_a, seq_a), (500, rows_b, seq_b)] {
                let xs = inputs(&cfg, rows, seq, seed + step + salt);
                let target = target_for(&cfg, rows, seq, (step + salt) as usize);
                exec.train_batch(&mut model, &xs, &target, &mut Sgd::new(0.1));
                exec.forward(&model, &xs);
            }
        }

        let xs = inputs(&cfg, rows_a, seq_a, seed + 99);
        let target = target_for(&cfg, rows_a, seq_a, 7);
        let mut cold = model.clone();
        let warm_loss = exec.train_batch(&mut model, &xs, &target, &mut Sgd::new(0.1));
        let cold_loss = if mbs == 1 {
            SequentialExec::new().train_batch(&mut cold, &xs, &target, &mut Sgd::new(0.1))
        } else {
            let fresh = TaskGraphExec::with_config(1, SchedulerPolicy::Fifo, mbs);
            fresh.train_batch(&mut cold, &xs, &target, &mut Sgd::new(0.1))
        };
        prop_assert_eq!(warm_loss.to_bits(), cold_loss.to_bits());
        prop_assert_eq!(model.max_param_diff(&cold), 0.0);

        let warm_out = exec.forward(&model, &xs);
        let cold_out = SequentialExec::new().forward(&cold, &xs);
        prop_assert_eq!(warm_out.logits.max_abs_diff(&cold_out.logits), 0.0);
        for (w, c) in warm_out.seq_logits.iter().zip(&cold_out.seq_logits) {
            prop_assert_eq!(w.max_abs_diff(c), 0.0);
        }
    }
}

/// Gradient accumulators are zero-filled per batch, not carried: two
/// identical steps on clones of one model, one after the other on one
/// warm executor, give the identical loss and identical updated weights.
#[test]
fn identical_steps_on_clones_give_identical_gradients() {
    let cfg = BrnnConfig {
        cell: CellKind::Gru,
        kind: ModelKind::ManyToMany,
        ..small_config()
    };
    let model: Brnn<f64> = Brnn::new(cfg, 17);
    let exec = TaskGraphExec::with_config(2, SchedulerPolicy::LocalityAware, 2);
    let xs = inputs(&cfg, 3, 4, 5);
    let target = target_for(&cfg, 3, 4, 1);
    let (mut a, mut b) = (model.clone(), model.clone());
    let la = exec.train_batch(&mut a, &xs, &target, &mut Sgd::new(0.1));
    let lb = exec.train_batch(&mut b, &xs, &target, &mut Sgd::new(0.1));
    assert_eq!(la.to_bits(), lb.to_bits());
    assert_eq!(
        a.max_param_diff(&b),
        0.0,
        "the second step saw the first's gradients"
    );
    assert!(
        a.max_param_diff(&model) > 0.0,
        "the step must move the weights"
    );
    assert_eq!(
        exec.plan_cache_stats().hits,
        1,
        "the second step replayed the plan"
    );
}

fn small_config() -> BrnnConfig {
    BrnnConfig {
        cell: CellKind::Lstm,
        input_size: 3,
        hidden_size: 4,
        layers: 2,
        seq_len: 4,
        output_size: 3,
        merge: MergeMode::Concat,
        kind: ModelKind::ManyToOne,
    }
}

/// The acceptance-criterion test: across many same-shape batches the
/// weight store is shared (one deep copy total) while outputs stay
/// bit-identical to the first batch's fresh build.
#[test]
fn weights_are_shared_across_replays_and_stay_bit_identical() {
    let cfg = small_config();
    let model: Brnn<f64> = Brnn::new(cfg, 21);
    let exec = TaskGraphExec::new(2);
    let xs = inputs(&cfg, 4, 5, 77);
    let first = exec.forward(&model, &xs);
    for _ in 0..20 {
        let again = exec.forward(&model, &xs);
        assert_eq!(first.logits.max_abs_diff(&again.logits), 0.0);
    }
    let stats = exec.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one build for one shape");
    assert_eq!(stats.hits, 20, "all subsequent batches replay");
    assert_eq!(
        stats.weight_syncs, 1,
        "21 batches, exactly one model deep copy"
    );
    assert_eq!(stats.cached_plans, 1);
    assert!(stats.build_ns > 0 && stats.replay_ns > 0);
}

/// A model mutation (revision bump) re-syncs the snapshot exactly once
/// and replayed batches see the new weights.
#[test]
fn weight_mutation_resyncs_once_and_changes_outputs() {
    let cfg = small_config();
    let mut model: Brnn<f64> = Brnn::new(cfg, 5);
    let exec = TaskGraphExec::new(2);
    let xs = inputs(&cfg, 2, 4, 9);
    let before = exec.forward(&model, &xs);
    assert_eq!(exec.plan_cache_stats().weight_syncs, 1);

    // Train one step through a *different* executor so only the revision
    // (not this executor's cache) observes the change.
    let target = target_for(&cfg, 2, 4, 0);
    SequentialExec::new().train_batch(&mut model, &xs, &target, &mut Sgd::new(0.5));

    let after = exec.forward(&model, &xs);
    let stats = exec.plan_cache_stats();
    assert_eq!(stats.misses, 1, "same shape: no rebuild");
    assert_eq!(stats.weight_syncs, 2, "revision change: one re-copy");
    assert!(
        after.logits.max_abs_diff(&before.logits) > 0.0,
        "replayed batch must see the updated weights"
    );
    // And the synced replay matches a fresh sequential pass exactly.
    let fresh = SequentialExec::new().forward(&model, &xs);
    assert_eq!(after.logits.max_abs_diff(&fresh.logits), 0.0);
}

/// Shrinking the cache to one slot forces alternate shapes to rebuild
/// every time — and the rebuilt plans still produce exact results.
#[test]
fn capacity_one_thrashes_but_stays_correct() {
    let cfg = small_config();
    let model: Brnn<f64> = Brnn::new(cfg, 3);
    let exec = TaskGraphExec::new(2);
    exec.set_plan_capacity(1);
    let xs_a = inputs(&cfg, 2, 3, 1);
    let xs_b = inputs(&cfg, 3, 4, 2);
    let seq_exec = SequentialExec::new();
    for _ in 0..3 {
        for xs in [&xs_a, &xs_b] {
            let got = exec.forward(&model, xs);
            let want = seq_exec.forward(&model, xs);
            assert_eq!(got.logits.max_abs_diff(&want.logits), 0.0);
        }
    }
    let stats = exec.plan_cache_stats();
    assert_eq!(stats.hits, 0, "alternating shapes never hit a 1-slot cache");
    assert_eq!(stats.misses, 6);
    assert_eq!(stats.evictions, 5);
    assert_eq!(stats.cached_plans, 1);
}

/// A task panic surfaces as `Err`, evicts the (possibly half-written)
/// plan, and leaves the executor fully serviceable for the next batch.
#[test]
fn failed_batch_is_evicted_and_executor_recovers() {
    let cfg = small_config();
    let good: Brnn<f64> = Brnn::new(cfg, 11);
    // Config promises one more layer than the model has: the first
    // deep-layer task panics on the missing index at execution time.
    let mut bad = good.clone();
    bad.config.layers += 1;

    let exec = TaskGraphExec::new(2);
    let xs = inputs(&cfg, 2, 4, 4);
    let err = exec.try_forward(&bad, &xs).unwrap_err();
    assert!(err.0.contains("panicked"), "{err}");
    assert_eq!(
        exec.plan_cache_stats().cached_plans,
        0,
        "failed plan must not stay cached"
    );

    // Same executor, same runtime: a valid model still serves, exactly.
    let got = exec.forward(&good, &xs);
    let want = SequentialExec::new().forward(&good, &xs);
    assert_eq!(got.logits.max_abs_diff(&want.logits), 0.0);

    // The failure repeats deterministically without poisoning the cache.
    assert!(exec.try_forward(&bad, &xs).is_err());
    assert_eq!(
        exec.plan_cache_stats().cached_plans,
        1,
        "only the good plan"
    );
}

/// A panic inside a *replayed* plan (cache hit, not first build) must
/// surface the failing task's label, evict the plan, and leave the
/// executor serviceable — the panic path through `Runtime::replay` has no
/// fresh `DepTracker` state to fall back on, so this exercises a
/// different recovery path than a first-build failure.
#[test]
fn panic_inside_replayed_plan_names_the_task_and_evicts() {
    let cfg = small_config();
    let mut model: Brnn<f64> = Brnn::new(cfg, 13);
    let exec = TaskGraphExec::new(2);
    let xs = inputs(&cfg, 3, 4, 8);

    // First batch: builds and caches the training plan.
    let good_target = target_for(&cfg, 3, 4, 0);
    exec.train_batch(&mut model, &xs, &good_target, &mut Sgd::new(0.01));
    let stats = exec.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.cached_plans), (1, 0, 1));

    // Second batch, same shape: a cache *hit* whose replay panics inside
    // the loss task (out-of-range class is only detected at execution).
    let bad_target = Target::Classes(vec![0, 1, cfg.output_size + 5]);
    let err = exec
        .try_train_batch(&mut model, &xs, &bad_target, &mut Sgd::new(0.01))
        .unwrap_err();
    assert!(err.0.contains("loss"), "panic must name the task: {err}");
    assert!(err.0.contains("out of range"), "{err}");
    let stats = exec.plan_cache_stats();
    assert_eq!(stats.hits, 1, "the failing batch was a replay");
    assert_eq!(stats.cached_plans, 0, "failed plan must be evicted");

    // The executor rebuilds and keeps matching the sequential reference.
    let mut twin = model.clone();
    let la = exec.train_batch(&mut model, &xs, &good_target, &mut Sgd::new(0.01));
    let lb = SequentialExec::new().train_batch(&mut twin, &xs, &good_target, &mut Sgd::new(0.01));
    assert_eq!(la, lb);
    assert_eq!(model.max_param_diff(&twin), 0.0);
    assert_eq!(
        exec.plan_cache_stats().misses,
        2,
        "one rebuild after eviction"
    );
}

/// Long-running steady state: trace records and task counts must stay
/// per-batch, not accumulate across replays (the serve loop runs for
/// hours).
#[test]
fn many_replays_keep_per_batch_trace_bounded() {
    let cfg = small_config();
    let model: Brnn<f64> = Brnn::new(cfg, 2);
    let exec = TaskGraphExec::new(2);
    let xs = inputs(&cfg, 3, 4, 6);
    exec.forward(&model, &xs);
    let tasks_per_batch = exec.runtime().stats().tasks;
    // 3 rows of an h = 4 LSTM get two timesteps per task: 2L·2 cell and
    // (L-1)·2 merge tasks for T = 4, and one for the output (22 unfolded).
    assert_eq!(tasks_per_batch, 8 + 2 + 1);
    for _ in 0..50 {
        exec.forward(&model, &xs);
        assert_eq!(exec.runtime().stats().tasks, tasks_per_batch);
    }
}

/// Tenant-keyed plans: two tenants with *identical* configs and shapes
/// each keep their own plan and weight snapshot. Alternating between
/// them must not thrash weight deep-copies (the shared-plan failure
/// mode: revisions are globally unique, so a shared plan would re-sync
/// on every alternation), and each tenant's outputs must match its own
/// model's sequential reference exactly.
#[test]
fn tenant_keys_isolate_plans_and_weight_snapshots() {
    use bpar_core::exec::ForwardOutput;
    let cfg = small_config();
    let tenants: Vec<Brnn<f64>> = vec![Brnn::new(cfg, 21), Brnn::new(cfg, 22)];
    let exec = TaskGraphExec::new(2);
    let seq_exec = SequentialExec::new();
    let xs = inputs(&cfg, 2, 4, 9);
    let mut out = ForwardOutput::zeros_for(&tenants[0], 2, 4);
    for _round in 0..3 {
        for (t, model) in tenants.iter().enumerate() {
            exec.try_forward_into_keyed(t as u64, model, &xs, &mut out)
                .unwrap();
            let want = seq_exec.forward(model, &xs);
            assert_eq!(out.logits.max_abs_diff(&want.logits), 0.0);
        }
    }
    let stats = exec.plan_cache_stats();
    assert_eq!(stats.misses, 2, "one plan per tenant");
    assert_eq!(stats.hits, 4, "all later batches replay");
    assert_eq!(
        stats.weight_syncs, 2,
        "one deep copy per tenant, zero re-syncs while alternating"
    );
    assert_eq!(stats.cached_plans, 2);
}

/// The plan cache's byte budget is strict: after every batch the summed
/// resident arena bytes stay at or under the budget, with LRU plans
/// (idle tenants) evicted to make room and counted separately from
/// capacity evictions.
#[test]
fn plan_byte_budget_evicts_lru_tenants_and_holds() {
    use bpar_core::exec::ForwardOutput;
    let cfg = small_config();
    let tenants: Vec<Brnn<f64>> = (0..4).map(|s| Brnn::new(cfg, 30 + s)).collect();
    let exec = TaskGraphExec::new(2);
    let xs = inputs(&cfg, 2, 4, 10);
    let mut out = ForwardOutput::zeros_for(&tenants[0], 2, 4);

    // Learn one plan's arena size, then budget for exactly two plans.
    exec.try_forward_into_keyed(0, &tenants[0], &xs, &mut out)
        .unwrap();
    let per_plan = exec.plan_cache_stats().arena_bytes;
    assert!(per_plan > 0);
    let budget = 2 * per_plan;
    exec.set_plan_byte_budget(Some(budget));

    for (t, model) in tenants.iter().enumerate() {
        exec.try_forward_into_keyed(t as u64, model, &xs, &mut out)
            .unwrap();
        let stats = exec.plan_cache_stats();
        assert!(
            stats.arena_bytes <= budget,
            "budget exceeded: {} > {budget}",
            stats.arena_bytes
        );
    }
    let stats = exec.plan_cache_stats();
    assert_eq!(stats.cached_plans, 2, "two plans fit the budget");
    assert_eq!(stats.budget_evictions, 2, "tenants 0 and 1 were evicted");
    assert_eq!(stats.evictions, 0, "capacity was never the binding limit");

    // Evicted tenants still serve — at rebuild cost, exactly.
    exec.try_forward_into_keyed(0, &tenants[0], &xs, &mut out)
        .unwrap();
    let want = SequentialExec::new().forward(&tenants[0], &xs);
    assert_eq!(out.logits.max_abs_diff(&want.logits), 0.0);
    assert!(exec.plan_cache_stats().arena_bytes <= budget);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every plan of a tenant reads one weight store. Driven through three
    /// or four inference shapes with a training step after each round,
    /// one executor seeds the store once and re-syncs it once per
    /// revision, through whichever plan runs next — and every output
    /// stays bitwise equal to `SequentialExec` on the current model: the
    /// replays right after a re-sync made through another plan, and the
    /// training step (its own plan, the same store), included. Sharing
    /// moves no arena: the resident bytes are those of each plan built
    /// alone, and one snapshot.
    #[test]
    fn plans_of_one_tenant_share_one_weight_store(
        cfg in arb_config(),
        shapes in proptest::collection::vec((1usize..5, 1usize..6), 3..5),
        mbs in 1usize..3,
        seed in 0u64..1000,
    ) {
        let mut model: Brnn<f64> = Brnn::new(cfg, seed);
        let mut twin = model.clone();
        let exec = TaskGraphExec::with_config(2, SchedulerPolicy::LocalityAware, mbs);
        let seq_exec = SequentialExec::new();
        let rounds = 3u64;
        for round in 0..rounds {
            for (i, &(rows, seq)) in shapes.iter().enumerate() {
                let xs = inputs(&cfg, rows, seq, seed + 10 * round + i as u64);
                let got = exec.forward(&model, &xs);
                let want = seq_exec.forward(&model, &xs);
                prop_assert_eq!(got.logits.max_abs_diff(&want.logits), 0.0);
                for (g, w) in got.seq_logits.iter().zip(&want.seq_logits) {
                    prop_assert_eq!(g.max_abs_diff(w), 0.0);
                }
            }
            let (rows, seq) = shapes[0];
            let xs = inputs(&cfg, rows, seq, seed + 500 + round);
            let target = target_for(&cfg, rows, seq, round as usize);
            let loss = exec.train_batch(&mut model, &xs, &target, &mut Sgd::new(0.1));
            if mbs == 1 {
                let want = seq_exec.train_batch(&mut twin, &xs, &target, &mut Sgd::new(0.1));
                prop_assert_eq!(loss.to_bits(), want.to_bits());
                prop_assert_eq!(model.max_param_diff(&twin), 0.0);
            }
        }
        let stats = exec.plan_cache_stats();
        // The seed, then one re-sync after each training step but the last.
        prop_assert_eq!(stats.weight_syncs, rounds);
        let snapshot = (model.param_count() * std::mem::size_of::<f64>()) as u64;
        prop_assert_eq!(stats.weight_bytes, snapshot);

        let alone = |rows: usize, seq: usize, train: bool| {
            let exec = TaskGraphExec::with_config(1, SchedulerPolicy::Fifo, mbs);
            let xs = inputs(&cfg, rows, seq, 0);
            if train {
                let target = target_for(&cfg, rows, seq, 0);
                exec.train_batch(&mut model.clone(), &xs, &target, &mut Sgd::new(0.1));
            } else {
                exec.forward(&model, &xs);
            }
            exec.plan_cache_stats().arena_bytes
        };
        let distinct: std::collections::BTreeSet<_> = shapes.iter().copied().collect();
        let inference: u64 = distinct.iter().map(|&(rows, seq)| alone(rows, seq, false)).sum();
        let training = alone(shapes[0].0, shapes[0].1, true);
        prop_assert_eq!(stats.arena_bytes, inference + training);
    }
}

/// Stores are keyed by tenant, config and scalar type, never by phase or
/// backend kind. Two tenants with identical configs each get their own;
/// a `scalar` executor's inference plans and its training plans (which
/// run the default kernels) read one store, re-synced in place as
/// training moves the weights — and training on it stays bitwise equal
/// to `SequentialExec` while inference of the same model runs in between.
#[test]
fn tenants_never_share_a_store_but_phases_do() {
    use bpar_core::exec::ForwardOutput;
    use bpar_tensor::BackendKind;
    let cfg = small_config();
    let tenants: Vec<Brnn<f32>> = vec![Brnn::new(cfg, 61), Brnn::new(cfg, 62)];
    let snapshot = (tenants[0].param_count() * std::mem::size_of::<f32>()) as u64;
    let exec =
        TaskGraphExec::with_backend(2, SchedulerPolicy::LocalityAware, 1, BackendKind::Scalar);
    let xs: Vec<Matrix<f32>> = (0..4)
        .map(|t| init::uniform(2, cfg.input_size, -1.0, 1.0, 70 + t))
        .collect();
    let mut out = ForwardOutput::zeros_for(&tenants[0], 2, 4);
    for (t, model) in tenants.iter().enumerate() {
        exec.try_forward_into_keyed(t as u64, model, &xs, &mut out)
            .unwrap();
    }
    let stats = exec.plan_cache_stats();
    assert_eq!((stats.weight_syncs, stats.weight_bytes), (2, 2 * snapshot));

    let mut model = tenants[0].clone();
    let mut twin = model.clone();
    let target = target_for(&cfg, 2, 4, 3);
    for step in 0..3 {
        let loss = exec.train_batch(&mut model, &xs, &target, &mut Sgd::new(0.1));
        let want = SequentialExec::new().train_batch(&mut twin, &xs, &target, &mut Sgd::new(0.1));
        assert_eq!(loss.to_bits(), want.to_bits(), "step {step}: loss");
        assert_eq!(model.max_param_diff(&twin), 0.0, "step {step}: weights");
        exec.try_forward_into_keyed(0, &model, &xs, &mut out)
            .unwrap();
        let served = SequentialExec::new().forward(&model, &xs);
        assert_eq!(out.logits.max_abs_diff(&served.logits), 0.0, "step {step}");
        assert_eq!(
            exec.plan_cache_stats().weight_bytes,
            2 * snapshot,
            "step {step}"
        );
    }
}

/// Once the byte budget has evicted every plan of a tenant, nothing holds
/// its weight store: the snapshot leaves `weight_bytes`, and the tenant's
/// next plan seeds a fresh store with exactly one deep copy — and serves
/// exactly.
#[test]
fn evicting_a_tenants_last_plan_frees_its_weights() {
    use bpar_core::exec::ForwardOutput;
    let cfg = small_config();
    let tenants: Vec<Brnn<f64>> = (0..3).map(|s| Brnn::new(cfg, 40 + s)).collect();
    let snapshot = (tenants[0].param_count() * std::mem::size_of::<f64>()) as u64;
    let exec = TaskGraphExec::new(2);
    let (small, large) = (inputs(&cfg, 2, 4, 1), inputs(&cfg, 3, 4, 2));
    let mut outs = [
        ForwardOutput::zeros_for(&tenants[0], 2, 4),
        ForwardOutput::zeros_for(&tenants[0], 3, 4),
    ];
    let mut serve = |t: usize, xs: &[Matrix<f64>]| {
        let out = &mut outs[usize::from(xs[0].rows() == 3)];
        exec.try_forward_into_keyed(t as u64, &tenants[t], xs, out)
            .unwrap();
        let want = SequentialExec::new().forward(&tenants[t], xs);
        assert_eq!(out.logits.max_abs_diff(&want.logits), 0.0);
        exec.plan_cache_stats()
    };
    // Tenant 0's two shapes read one store.
    let small_arena = serve(0, &small).arena_bytes;
    let both = serve(0, &large);
    assert_eq!((both.weight_syncs, both.weight_bytes), (1, snapshot));
    // Room for two large plans: tenants 1 and 2 push out both of tenant
    // 0's, LRU first.
    let large_arena = both.arena_bytes - small_arena;
    exec.set_plan_byte_budget(Some(2 * large_arena));
    serve(1, &large);
    let gone = serve(2, &large);
    assert_eq!(gone.budget_evictions, 2);
    assert_eq!((gone.weight_syncs, gone.weight_bytes), (3, 2 * snapshot));
    // Tenant 0 comes back: one fresh seed, exact outputs.
    let back = serve(0, &small);
    assert_eq!(
        back.weight_syncs, 4,
        "exactly one seed for the returning tenant"
    );
    assert_eq!(
        back.weight_bytes,
        2 * snapshot,
        "tenant 1 was evicted in turn"
    );
}
