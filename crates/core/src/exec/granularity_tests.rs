//! B-Par and the barrier executor at an arbitrary granularity: whatever
//! `k` [`crate::emit::coarsen`] folds by, a folded task runs its members'
//! bodies unchanged and in stream order, so results keep the bits they
//! have at one cell per task. Outside the crate `k` follows from the
//! shape ([`Coarsen::Rule`]); these tests pin it to sweep ragged chunks,
//! `k = T` and `k > T` on shapes the rule would leave alone.

use super::{BarrierExec, Executor, SequentialExec, Target, TaskGraphExec};
use crate::cell::CellKind;
use crate::emit::Coarsen;
use crate::merge::MergeMode;
use crate::model::{Brnn, BrnnConfig, ModelKind};
use crate::optim::Sgd;
use bpar_runtime::{AdversarialOrder, SchedulerPolicy};
use bpar_tensor::{init, Matrix};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = BrnnConfig> {
    (
        prop_oneof![
            Just(CellKind::Lstm),
            Just(CellKind::Gru),
            Just(CellKind::Vanilla)
        ],
        prop_oneof![Just(ModelKind::ManyToOne), Just(ModelKind::ManyToMany)],
        prop_oneof![Just(MergeMode::Sum), Just(MergeMode::Concat)],
        1usize..4, // layers
        1usize..8, // seq_len
        1usize..5, // hidden
    )
        .prop_map(
            |(cell, kind, merge, layers, seq_len, hidden_size)| BrnnConfig {
                cell,
                input_size: 3,
                hidden_size,
                layers,
                seq_len,
                output_size: 3,
                merge,
                kind,
            },
        )
}

fn arb_policy() -> impl Strategy<Value = SchedulerPolicy> {
    prop_oneof![
        Just(SchedulerPolicy::Fifo),
        Just(SchedulerPolicy::LocalityAware),
        Just(SchedulerPolicy::WorkStealing),
        Just(SchedulerPolicy::Adversarial(AdversarialOrder::Reverse)),
        (0u64..1000).prop_map(|s| SchedulerPolicy::Adversarial(AdversarialOrder::Random(s))),
    ]
}

fn batch_for(cfg: &BrnnConfig, rows: usize, seed: u64) -> (Vec<Matrix<f64>>, Target) {
    let xs = (0..cfg.seq_len)
        .map(|t| init::uniform(rows, cfg.input_size, -1.0, 1.0, seed * 100 + t as u64))
        .collect();
    let classes = |t: usize| (0..rows).map(|r| (r + t) % cfg.output_size).collect();
    let target = match cfg.kind {
        ModelKind::ManyToOne => Target::Classes(classes(0)),
        ModelKind::ManyToMany => Target::SeqClasses((0..cfg.seq_len).map(classes).collect()),
    };
    (xs, target)
}

/// The bits of one forward pass's logits and of one training step's loss,
/// and the model that step leaves.
fn run(exec: &dyn Executor<f64>, cfg: BrnnConfig, rows: usize, seed: u64) -> (Vec<u64>, Brnn<f64>) {
    let (xs, target) = batch_for(&cfg, rows, seed);
    let mut model: Brnn<f64> = Brnn::new(cfg, seed);
    let out = exec.forward(&model, &xs);
    let logits = std::iter::once(&out.logits).chain(&out.seq_logits);
    let mut bits: Vec<u64> = logits
        .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    let loss = exec.train_batch(&mut model, &xs, &target, &mut Sgd::new(0.1));
    bits.push(loss.to_bits());
    (bits, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_granularity_keeps_the_bits_of_one_cell_per_task(
        cfg in arb_config(),
        k in 1usize..13,
        mbs in 1usize..4,
        workers in 1usize..4,
        policy in arb_policy(),
        seed in 0u64..1000,
    ) {
        let rows = 5;
        let what = format!("{cfg:?} k={k} mbs={mbs} workers={workers} {policy:?}");
        let bpar = |c| TaskGraphExec::with_config(workers, policy, mbs).with_coarsen(c);
        let barrier = |c| BarrierExec::with_config(workers, policy, mbs).with_coarsen(c);
        let (bits, model) = run(&bpar(Coarsen::By(k)), cfg, rows, seed);
        let same = |(other_bits, other_model): (Vec<u64>, Brnn<f64>)| {
            bits == other_bits && model.max_param_diff(&other_model) == 0.0
        };
        prop_assert!(same(run(&barrier(Coarsen::By(k)), cfg, rows, seed)), "barrier: {}", what);
        // One replica is the sequential arithmetic; several re-weight the
        // loss per chunk, and still no bit depends on the granularity.
        prop_assert!(same(run(&bpar(Coarsen::By(1)), cfg, rows, seed)), "k = 1: {}", what);
        if mbs == 1 {
            prop_assert!(same(run(&SequentialExec::new(), cfg, rows, seed)), "{}", what);
        }
        // Inference is the sequential arithmetic under any row split.
        let (xs, _) = batch_for(&cfg, rows, seed);
        let model: Brnn<f64> = Brnn::new(cfg, seed);
        let want = SequentialExec::new().forward(&model, &xs);
        let got = bpar(Coarsen::By(k)).forward(&model, &xs);
        prop_assert_eq!(got.logits.max_abs_diff(&want.logits), 0.0, "{}", what);
    }
}

/// A folded plan runs fewer tasks — the count the closed form gives — and
/// the rule folds exactly the shapes whose cells are too small to carry a
/// task's overhead.
#[test]
fn folded_plans_run_the_closed_form_task_count() {
    let cfg = BrnnConfig {
        cell: CellKind::Gru,
        input_size: 2,
        hidden_size: 2,
        layers: 2,
        seq_len: 7,
        output_size: 3,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToMany,
    };
    let (xs, _) = batch_for(&cfg, 1, 3);
    let model: Brnn<f64> = Brnn::new(cfg, 3);
    let tasks = |coarsen| {
        let exec = TaskGraphExec::new(1).with_coarsen(coarsen);
        exec.forward(&model, &xs);
        exec.runtime().stats().tasks
    };
    // 2LT cells + (L-1)T merges + 2n output tasks, then ⌈7/3⌉ = 3 per run.
    assert_eq!(tasks(Coarsen::By(1)), 28 + 7 + 14);
    assert_eq!(tasks(Coarsen::By(3)), 4 * 3 + 3 + 3);
    assert_eq!(tasks(Coarsen::By(7)), 4 + 1 + 1);
    assert_eq!(tasks(Coarsen::Rule), tasks(Coarsen::By(7)));
}
