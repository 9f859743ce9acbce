//! B-Par and its baselines at an arbitrary granularity: whatever `k`
//! [`crate::emit::coarsen`] folds by, a folded task runs its members' steps
//! in stream order — a run of cells as one chain body — so results keep
//! the bits they have at one cell per task, under every discipline. Outside
//! the crate `k` follows from the shape ([`Coarsen::Rule`]); these tests
//! pin it to sweep ragged chunks, `k = T` and `k > T` on shapes the rule
//! would leave alone.

use super::builder::{BodyConfig, WeightStore};
use super::plan::ExecPlan;
use super::{BSeqExec, BarrierExec, Executor, SequentialExec, Target, TaskGraphExec};
use crate::cell::CellKind;
use crate::emit::{Coarsen, Dir, Discipline, Node, SlotId, Stream};
use crate::graphgen::{build_graph, GraphSpec, Phase};
use crate::merge::MergeMode;
use crate::model::{Brnn, BrnnConfig, ModelKind};
use crate::optim::Sgd;
use crate::scanplan::RecurrenceStrategy;
use bpar_runtime::validate::{AccessEvent, AccessKind};
use bpar_runtime::{
    AccessRecorder, AdversarialOrder, RegionId, Runtime, RuntimeConfig, SchedulerPolicy,
};
use bpar_tensor::{init, Backend, Matrix};
use bpar_verify::{
    check_happens_before, default_region_name, expected_shape, validate_clauses, GraphView,
    ShapeSpec,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

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
        let bseq = |c| BSeqExec::new(workers, mbs).with_coarsen(c);
        let (bits, model) = run(&bpar(Coarsen::By(k)), cfg, rows, seed);
        let same = |(other_bits, other_model): (Vec<u64>, Brnn<f64>)| {
            bits == other_bits && model.max_param_diff(&other_model) == 0.0
        };
        prop_assert!(same(run(&barrier(Coarsen::By(k)), cfg, rows, seed)), "barrier: {}", what);
        prop_assert!(same(run(&bseq(Coarsen::By(k)), cfg, rows, seed)), "b-seq: {}", what);
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
    let (xs, target) = batch_for(&cfg, 1, 3);
    let model: Brnn<f64> = Brnn::new(cfg, 3);
    let tasks = |coarsen, train| {
        let exec = TaskGraphExec::new(1).with_coarsen(coarsen);
        if train {
            exec.train_batch(&mut model.clone(), &xs, &target, &mut Sgd::new(0.1));
        } else {
            exec.forward(&model, &xs);
        }
        exec.runtime().stats().tasks
    };
    let closed_form = |k, training| {
        let shape = ShapeSpec {
            layers: 2,
            seq: 7,
            outputs: 7,
            replicas: 1,
            training,
            scan_chunks: None,
            coarsen: k,
        };
        expected_shape(&shape).tasks
    };
    // 2LT cells + (L-1)T merges + 2n output tasks, then ⌈7/3⌉ = 3 per run.
    assert_eq!(tasks(Coarsen::By(1), false), 28 + 7 + 14);
    assert_eq!(tasks(Coarsen::By(3), false), 4 * 3 + 3 + 3);
    assert_eq!(tasks(Coarsen::By(7), false), 4 + 1 + 1);
    assert_eq!(tasks(Coarsen::Rule, false), tasks(Coarsen::By(7), false));
    // Training adds 2LT BPTT cells, (L-1)T inner merge_bwd and, per
    // output position, the loss and the backward seed; folded, the whole
    // head of a position run (merge_final, loss, seed) is one task.
    assert_eq!(tasks(Coarsen::By(1), true), 56 + 14 + 21);
    assert_eq!(tasks(Coarsen::By(3), true), 8 * 3 + 2 * 3 + 3);
    assert_eq!(tasks(Coarsen::By(7), true), 8 + 2 + 1);
    assert_eq!(tasks(Coarsen::Rule, true), tasks(Coarsen::By(7), true));
    for k in [1, 3, 7] {
        for train in [false, true] {
            assert_eq!(tasks(Coarsen::By(k), train), closed_form(k, train));
        }
    }
}

/// One access of a task body: the region, read or write.
type Access = (RegionId, AccessKind);

/// The plan of `model` over `mbs` replicas, folded by `coarsen` and
/// scheduled by `discipline`, and the accesses of one recorded replay of
/// it on one worker.
fn recorded_replay(
    model: &Brnn<f64>,
    xs: &[Matrix<f64>],
    target: &Target,
    train: bool,
    mbs: usize,
    coarsen: Coarsen,
    discipline: Discipline,
) -> (ExecPlan<f64>, Vec<AccessEvent>) {
    let body = BodyConfig {
        backend: Backend::default(),
        strategy: RecurrenceStrategy::Chain,
        train,
        workers: 1,
    };
    let weights = Arc::new(WeightStore::new(model));
    let plan = ExecPlan::build(weights, xs, mbs, None, body, coarsen, discipline);
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        policy: SchedulerPolicy::Fifo,
        record_trace: false,
    });
    let recorder = Arc::new(AccessRecorder::new());
    rt.set_validation(Some(recorder.clone()));
    plan.load_batch(model, xs);
    if train {
        plan.load_target(target);
    }
    rt.replay(&plan.compiled);
    rt.taskwait().expect("clean plan panicked");
    rt.set_validation(None);
    (plan, recorder.take_events())
}

/// The B-Par plan of `model` folded by `k`, its stream, and every task's
/// accesses in body order, from one recorded replay on one worker.
fn recorded_accesses(
    model: &Brnn<f64>,
    xs: &[Matrix<f64>],
    target: &Target,
    train: bool,
    k: usize,
) -> (ExecPlan<f64>, Stream, Vec<Vec<Access>>) {
    let (coarsen, bpar) = (Coarsen::By(k), Discipline::BPar);
    let (plan, events) = recorded_replay(model, xs, target, train, 1, coarsen, bpar);
    let (mut streams, _) = ExecPlan::stream(&plan.replicas, train, None, coarsen, bpar);
    let stream = streams.remove(0);
    assert!(streams.iter().all(|s| s.nodes.is_empty()), "one replica");
    let mut by_task = vec![Vec::new(); stream.nodes.len()];
    for e in events {
        by_task[e.task].push((e.region, e.kind));
    }
    (plan, stream, by_task)
}

/// A chain body touches what its members touched as tasks of their own:
/// the same slots, read and written in the same order — except that a
/// BPTT chain reads and writes its weight-gradient accumulator once, not
/// once per step. So a folded plan's observed accesses are its declared
/// clauses exactly when the unfolded plan's are.
#[test]
fn chain_bodies_record_their_members_accesses() {
    let cfg = BrnnConfig {
        cell: CellKind::Gru,
        input_size: 2,
        hidden_size: 2,
        layers: 2,
        seq_len: 6,
        output_size: 3,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToMany,
    };
    let model: Brnn<f64> = Brnn::new(cfg, 5);
    let (xs, target) = batch_for(&cfg, 2, 5);
    for train in [false, true] {
        let (_, unfolded, alone) = recorded_accesses(&model, &xs, &target, train, 1);
        let id = |n: &Node| (n.kind, n.dir.ix(), n.layer, n.index);
        let task_of: HashMap<_, _> = (unfolded.nodes.iter().enumerate())
            .map(|(i, n)| (id(n), i))
            .collect();
        for k in [1, 3, cfg.seq_len] {
            let (plan, stream, folded) = recorded_accesses(&model, &xs, &target, train, k);
            let grads = |l| Dir::BOTH.map(|d| plan.replicas[0].region(SlotId::Grads(d, l)));
            let accumulators: BTreeSet<RegionId> = (0..cfg.layers).flat_map(grads).collect();
            let steps = |a: &[Access]| -> Vec<Access> {
                let step = |(r, _): &&Access| !accumulators.contains(r);
                a.iter().filter(step).copied().collect()
            };
            let set = |a: &[Access]| a.iter().copied().collect::<BTreeSet<_>>();
            let mut folds = 0;
            for (node, got) in stream.nodes.iter().zip(&folded) {
                let members = stream.members(node);
                folds += usize::from(members.len() > 1);
                let want: Vec<Access> = (members.iter())
                    .flat_map(|m| alone[task_of[&id(m)]].iter().copied())
                    .collect();
                let what = format!("{} k={k} train={train}", node.label());
                assert!(!got.is_empty(), "{what}");
                assert_eq!(steps(got), steps(&want), "{what}");
                assert_eq!(set(got), set(&want), "{what}");
            }
            assert_eq!(folds > 0, k > 1, "k={k} train={train}");
        }
    }
}

/// The baselines' plans are as sound as B-Par's: one recorded replay of a
/// barrier and of a B-Seq plan touches exactly the declared clauses
/// (barrier tokens included) and no conflicting pair of accesses is left
/// unordered by the plan's edges — folded or not, with and without
/// reductions. And the compiled barrier plan is the simulator's barrier
/// graph at the rule's granularity, task by task: label, tag, predecessor
/// set and clause counts, as `sim_vs_live.rs` checks for B-Par.
#[test]
fn baseline_plans_are_sound_and_barrier_plans_are_the_simulators_graph() {
    type Shape = Vec<(String, u64, Vec<usize>, usize, usize)>;
    let shape = |view: &GraphView| -> Shape {
        let task = |t: &bpar_verify::TaskView| {
            let mut preds = t.preds.clone();
            preds.sort_unstable();
            (t.label.clone(), t.tag, preds, t.ins.len(), t.outs.len())
        };
        view.tasks.iter().map(task).collect()
    };
    let (mut checked, mut folded) = (0, 0);
    for (cell, kind) in [
        (CellKind::Lstm, ModelKind::ManyToOne),
        (CellKind::Gru, ModelKind::ManyToMany),
    ] {
        for (layers, seq, hidden_size) in [(1, 3, 4), (3, 4, 4), (2, 5, 2), (3, 1, 2)] {
            let cfg = BrnnConfig {
                cell,
                input_size: 3,
                hidden_size,
                layers,
                seq_len: seq,
                output_size: 3,
                merge: MergeMode::Concat,
                kind,
            };
            let model: Brnn<f64> = Brnn::new(cfg, 3);
            let (xs, target) = batch_for(&cfg, 4, 3);
            for (train, mbs) in [(false, 1), (true, 1), (true, 2)] {
                let spec = GraphSpec {
                    phase: [Phase::Inference, Phase::Training][usize::from(train)],
                    ..GraphSpec::training(cfg, 4).with_mbs(mbs)
                };
                let what = format!("{cfg:?} train {train} mbs {mbs}");
                for discipline in [Discipline::Barrier, Discipline::BSeq] {
                    let (plan, events) = recorded_replay(
                        &model,
                        &xs,
                        &target,
                        train,
                        mbs,
                        Coarsen::Rule,
                        discipline,
                    );
                    let view = GraphView::from_plan(&plan.compiled);
                    let name = &default_region_name;
                    let clauses = validate_clauses(&view, &events, true, name);
                    assert!(clauses.is_empty(), "{discipline:?} {what}: {clauses:?}");
                    let races = check_happens_before(&view, &events, name);
                    assert!(races.is_empty(), "{discipline:?} {what}: {races:?}");
                    if discipline == Discipline::Barrier {
                        let graph = spec.with_barriers(true).with_coarsen(Coarsen::Rule);
                        let sim = GraphView::from_graph(&build_graph(&graph));
                        assert_eq!(shape(&view), shape(&sim), "{what}");
                        assert!(view.tasks.iter().any(|t| t.label == "barrier"), "{what}");
                        folded += usize::from(plan.coarsen > 1);
                    } else {
                        let tasks = mbs + usize::from(train && mbs > 1) * (2 * layers + 2);
                        assert_eq!(view.len(), tasks, "{what}");
                    }
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 48);
    assert!(folded > 0, "no barrier plan was folded");
}
