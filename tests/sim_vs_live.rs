//! Consistency between the three representations of a B-Par batch:
//! the static generated graph (`graphgen`), the live executor's compiled
//! plan and task stream, and the simulator's replay. The scaling
//! experiments are only meaningful if all three agree on structure.

use bpar_core::analyze::{plan_view, AnalyzeOptions};
use bpar_core::graphgen::{build_graph, Coarsen, GraphSpec, Phase};
use bpar_core::prelude::*;
use bpar_sim::{simulate, SimConfig};
use bpar_tensor::init;
use std::collections::HashMap;

fn config() -> BrnnConfig {
    BrnnConfig {
        cell: CellKind::Lstm,
        input_size: 6,
        hidden_size: 8,
        layers: 3,
        seq_len: 5,
        output_size: 3,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToOne,
    }
}

/// `(label, tag, sorted predecessors, #ins, #outs)` of every task, in order.
type Shape = Vec<(String, u64, Vec<usize>, usize, usize)>;

fn static_shape(spec: &GraphSpec) -> Shape {
    let g = build_graph(spec);
    (0..g.len())
        .map(|i| {
            let n = g.node(i);
            let mut preds = g.preds(i).to_vec();
            preds.sort_unstable();
            (
                n.label.to_string(),
                n.tag,
                preds,
                g.ins(i).len(),
                g.outs(i).len(),
            )
        })
        .collect()
}

fn live_shape(opts: &AnalyzeOptions) -> Shape {
    let view = plan_view(opts);
    view.tasks
        .iter()
        .map(|t| {
            let mut preds = t.preds.clone();
            preds.sort_unstable();
            (t.label.clone(), t.tag, preds, t.ins.len(), t.outs.len())
        })
        .collect()
}

/// The compiled live plan and the simulator's graph are two consumers of
/// one description: over 960 configurations they must agree task by task
/// on label, tag, predecessor set and clause counts — each side deriving
/// its granularity from the shared §IV-B rule, which leaves the `h = 8`
/// LSTMs at one cell per task and folds the cheaper chain cells.
#[test]
fn compiled_plan_equals_static_graph_task_by_task() {
    let (mut checked, mut folded) = (0, 0);
    for (cell, recurrence) in [
        (CellKind::Lstm, RecurrenceStrategy::Chain),
        (CellKind::Lstm, RecurrenceStrategy::Scan { chunks: 2 }),
        (CellKind::Linear, RecurrenceStrategy::Chain),
        (CellKind::Linear, RecurrenceStrategy::Scan { chunks: 2 }),
    ] {
        for kind in [ModelKind::ManyToOne, ModelKind::ManyToMany] {
            for layers in 1..=3 {
                for seq in 1..=5 {
                    for mbs in 1..=2 {
                        for (hidden_size, train) in [(8, false), (8, true), (2, false), (2, true)] {
                            let config = BrnnConfig {
                                cell,
                                layers,
                                seq_len: seq,
                                hidden_size,
                                kind,
                                ..config()
                            };
                            let opts = AnalyzeOptions {
                                config,
                                rows: 4,
                                mbs,
                                train,
                                recurrence,
                                coarsen: Coarsen::Rule,
                                ..AnalyzeOptions::default()
                            };
                            let spec = GraphSpec {
                                phase: if train {
                                    Phase::Training
                                } else {
                                    Phase::Inference
                                },
                                ..GraphSpec::training(config, 4)
                                    .with_mbs(mbs)
                                    .with_recurrence(recurrence)
                                    .with_coarsen(Coarsen::Rule)
                            };
                            let what = format!(
                                "{cell:?} {recurrence} {kind:?} L={layers} T={seq} \
                                 h={hidden_size} mbs={mbs} train={train}"
                            );
                            let k = spec.coarsen_factor();
                            let coarse = cell == CellKind::Lstm && hidden_size == 8;
                            assert!(!coarse || k == 1, "{what}: k = {k}");
                            let live = live_shape(&opts);
                            assert_eq!(live, static_shape(&spec), "{what}");
                            if k > 1 {
                                let unfolded = static_shape(&spec.with_coarsen(Coarsen::By(1)));
                                assert!(live.len() < unfolded.len(), "{what}: k = {k}");
                                folded += 1;
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!((checked, folded), (960, 384));
}

/// The executor really runs the plan's tasks: the live trace of one batch
/// has the label histogram (training, `mbs` 1 and 3) and task count
/// (inference) of the static graph at the rule's granularity — one cell
/// per task at `h = 8`, folded at `h = 2`.
#[test]
fn live_trace_runs_every_task_of_the_graph() {
    for hidden_size in [8, 2] {
        let cfg = BrnnConfig {
            hidden_size,
            ..config()
        };
        let rule = |spec: GraphSpec| build_graph(&spec.with_coarsen(Coarsen::Rule));
        for (rows, mbs) in [(4, 1), (9, 3)] {
            let exec =
                TaskGraphExec::with_config(2, bpar_runtime::SchedulerPolicy::LocalityAware, mbs);
            let mut model: Brnn<f64> = Brnn::new(cfg, 1);
            let xs: Vec<_> = (0..cfg.seq_len)
                .map(|t| init::uniform(rows, cfg.input_size, -1.0, 1.0, t as u64))
                .collect();
            let target = Target::Classes((0..rows).map(|r| r % cfg.output_size).collect());
            exec.train_batch(&mut model, &xs, &target, &mut Sgd::new(0.01));
            let mut live: HashMap<&'static str, usize> = HashMap::new();
            for rec in exec.runtime().take_records() {
                *live.entry(rec.label).or_insert(0) += 1;
            }
            let mut stat: HashMap<&'static str, usize> = HashMap::new();
            for n in rule(GraphSpec::training(cfg, rows).with_mbs(mbs)).nodes() {
                *stat.entry(n.label).or_insert(0) += 1;
            }
            assert_eq!(live, stat, "h {hidden_size} mbs {mbs}");
        }
        let exec = TaskGraphExec::new(2);
        let model: Brnn<f64> = Brnn::new(cfg, 1);
        let xs: Vec<_> = (0..cfg.seq_len)
            .map(|t| init::uniform(4, cfg.input_size, -1.0, 1.0, t as u64))
            .collect();
        exec.forward(&model, &xs);
        let spec = GraphSpec::inference(cfg, 4);
        let tasks = exec.runtime().take_records().len();
        assert_eq!(tasks, rule(spec).len());
        assert_eq!(tasks < build_graph(&spec).len(), hidden_size == 2);
    }
}

#[test]
fn simulator_conservation_laws_on_brnn_graph() {
    let cfg = config();
    let g = build_graph(&GraphSpec::training(cfg, 8).with_mbs(2));
    g.validate().unwrap();
    for cores in [1usize, 3, 7, 24] {
        let r = simulate(&g, &SimConfig::xeon(cores));
        assert_eq!(r.records.len(), g.len(), "every task completes");
        let busy: f64 = r.core_busy.iter().sum();
        assert!(
            busy <= r.makespan * cores as f64 + 1e-9,
            "busy {} > makespan x cores at {cores}",
            busy
        );
        let total: f64 = r.records.iter().map(|t| t.end - t.start).sum();
        assert!(
            r.makespan >= total / cores as f64 - 1e-9,
            "makespan below work bound at {cores} cores"
        );
        // Dependencies respected.
        let mut end_of = vec![0.0f64; g.len()];
        for rec in &r.records {
            end_of[rec.task] = rec.end;
        }
        for rec in &r.records {
            for &p in g.preds(rec.task) {
                assert!(rec.start >= end_of[p] - 1e-9, "task started before pred");
            }
        }
    }
}

#[test]
fn simulated_makespan_is_monotone_enough_in_cores() {
    // Not strictly monotone in general, but over the standard sweep the
    // BRNN training graphs must never get *much* slower with more cores.
    let cfg = config();
    let g = build_graph(&GraphSpec::training(cfg, 16).with_mbs(4));
    let mut prev = f64::INFINITY;
    for cores in [1usize, 2, 4, 8, 16] {
        let t = simulate(&g, &SimConfig::xeon(cores)).makespan;
        assert!(t <= prev * 1.05, "{cores} cores: {t} vs prev {prev}");
        prev = t;
    }
}
