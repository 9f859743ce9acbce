//! Property-based executor parity: for *arbitrary* model architectures
//! (cell kind, dimensions, depth, sequence length, merge mode, arity),
//! the B-Par task-graph executor must match the sequential reference
//! bit-for-bit at mbs:1 and to fp tolerance under data parallelism.

use bpar_core::cell::CellKind;
use bpar_core::exec::{BarrierExec, Executor, SequentialExec, Target, TaskGraphExec};
use bpar_core::graphgen::{Coarsen, GraphSpec};
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
        1usize..5, // input
        1usize..7, // hidden
        1usize..4, // layers
        1usize..6, // seq_len
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
            |(cell, input_size, hidden_size, layers, seq_len, output_size, merge, kind)| {
                BrnnConfig {
                    cell,
                    input_size,
                    hidden_size,
                    layers,
                    seq_len,
                    output_size,
                    merge,
                    kind,
                }
            },
        )
}

/// Cells too small to carry a task's overhead: the plan builder's §IV-B
/// rule folds several timesteps into each task of these shapes.
fn arb_fine_config() -> impl Strategy<Value = BrnnConfig> {
    (arb_config(), 1usize..4, 2usize..10).prop_map(|(cfg, hidden_size, seq_len)| BrnnConfig {
        input_size: cfg.input_size.min(3),
        hidden_size,
        seq_len,
        ..cfg
    })
}

fn arb_policy() -> impl Strategy<Value = SchedulerPolicy> {
    prop_oneof![
        Just(SchedulerPolicy::Fifo),
        Just(SchedulerPolicy::LocalityAware),
        Just(SchedulerPolicy::WorkStealing),
    ]
}

fn batch_for(cfg: &BrnnConfig, rows: usize, seed: u64) -> (Vec<Matrix<f64>>, Target) {
    let xs = (0..cfg.seq_len)
        .map(|t| init::uniform(rows, cfg.input_size, -1.0, 1.0, seed * 100 + t as u64))
        .collect();
    let target = match cfg.kind {
        ModelKind::ManyToOne => Target::Classes((0..rows).map(|r| r % cfg.output_size).collect()),
        ModelKind::ManyToMany => Target::SeqClasses(
            (0..cfg.seq_len)
                .map(|t| (0..rows).map(|r| (r + t) % cfg.output_size).collect())
                .collect(),
        ),
    };
    (xs, target)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bpar_matches_sequential_for_arbitrary_architectures(
        cfg in arb_config(),
        rows in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (xs, target) = batch_for(&cfg, rows, seed);
        let mut a: Brnn<f64> = Brnn::new(cfg, seed);
        let mut b: Brnn<f64> = Brnn::new(cfg, seed);
        let mut oa = Sgd::new(0.1);
        let mut ob = Sgd::new(0.1);
        let exec = TaskGraphExec::new(3);
        let la = exec.train_batch(&mut a, &xs, &target, &mut oa);
        let lb = SequentialExec::new().train_batch(&mut b, &xs, &target, &mut ob);
        prop_assert_eq!(la, lb, "loss must match bit-for-bit");
        prop_assert_eq!(a.max_param_diff(&b), 0.0);
    }

    /// The same, where the executors run folded plans: the granularity is
    /// whatever the rule derives from the drawn shape (2 to `seq_len`
    /// timesteps per task, ragged last chunks included), on B-Par and on
    /// the barrier executor, under every production scheduler.
    #[test]
    fn folded_plans_match_sequential_for_arbitrary_fine_grained_architectures(
        cfg in arb_fine_config(),
        rows in 1usize..3,
        workers in 1usize..4,
        policy in arb_policy(),
        seed in 0u64..1000,
    ) {
        let k = GraphSpec::training(cfg, rows).with_coarsen(Coarsen::Rule).coarsen_factor();
        prop_assert!(k > 1, "{:?} x {} rows is not fine-grained", cfg, rows);
        let (xs, target) = batch_for(&cfg, rows, seed);
        let mut reference: Brnn<f64> = Brnn::new(cfg, seed);
        let want = SequentialExec::new().train_batch(&mut reference, &xs, &target, &mut Sgd::new(0.1));
        let bpar = TaskGraphExec::with_config(workers, policy, 1);
        let barrier = BarrierExec::with_config(workers, policy, 1);
        for exec in [&bpar as &dyn Executor<f64>, &barrier] {
            let mut model: Brnn<f64> = Brnn::new(cfg, seed);
            let loss = exec.train_batch(&mut model, &xs, &target, &mut Sgd::new(0.1));
            prop_assert_eq!(loss, want, "{} k={}", exec.name(), k);
            prop_assert_eq!(model.max_param_diff(&reference), 0.0, "{} k={}", exec.name(), k);
            let got = exec.forward(&reference, &xs);
            let logits = SequentialExec::new().forward(&reference, &xs).logits;
            prop_assert_eq!(got.logits.max_abs_diff(&logits), 0.0, "{} k={}", exec.name(), k);
        }
    }

    #[test]
    fn data_parallel_bpar_stays_close_for_arbitrary_architectures(
        cfg in arb_config(),
        mbs in 2usize..5,
        seed in 0u64..1000,
    ) {
        let rows = 6;
        let (xs, target) = batch_for(&cfg, rows, seed);
        let mut a: Brnn<f64> = Brnn::new(cfg, seed);
        let mut b: Brnn<f64> = Brnn::new(cfg, seed);
        let mut oa = Sgd::new(0.1);
        let mut ob = Sgd::new(0.1);
        let exec = TaskGraphExec::with_config(2, SchedulerPolicy::LocalityAware, mbs);
        let la = exec.train_batch(&mut a, &xs, &target, &mut oa);
        let lb = SequentialExec::new().train_batch(&mut b, &xs, &target, &mut ob);
        prop_assert!((la - lb).abs() < 1e-9, "losses {} vs {}", la, lb);
        prop_assert!(a.max_param_diff(&b) < 1e-9);
    }

    #[test]
    fn forward_is_deterministic_across_runs(
        cfg in arb_config(),
        rows in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (xs, _) = batch_for(&cfg, rows, seed);
        let model: Brnn<f64> = Brnn::new(cfg, seed);
        let exec = TaskGraphExec::new(2);
        let o1 = exec.forward(&model, &xs);
        let o2 = exec.forward(&model, &xs);
        prop_assert_eq!(o1.logits.max_abs_diff(&o2.logits), 0.0);
    }
}
