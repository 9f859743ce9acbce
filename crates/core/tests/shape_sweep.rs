//! Sweeps the closed-form Fig. 2 shape formulas against the graph
//! generator across depth, sequence length, output arity, replica count
//! and phase — the closed form in `bpar_verify::shape` must predict the
//! generated task/edge counts *exactly* for every canonical
//! (barrier-free, unfused, unsplit) configuration, in both recurrence
//! strategies and at every task granularity.

use bpar_core::cell::CellKind;
use bpar_core::graphgen::{build_graph, Coarsen, GraphSpec, Phase};
use bpar_core::model::{BrnnConfig, ModelKind};
use bpar_core::scanplan::RecurrenceStrategy;
use bpar_verify::{check_shape, expected_shape, scan_combine_count, GraphView, ShapeSpec};

fn sweep(kind: ModelKind) {
    let rows = 6;
    for layers in 1..=3 {
        for seq in 1..=7 {
            // Unfolded, then every granularity: chunks that divide the
            // sequence, ragged last chunks, k = T and k beyond it.
            for k in (1..=seq).chain([seq + 5]) {
                for mbs in 1..=3 {
                    for phase in [Phase::Inference, Phase::Training] {
                        let config = BrnnConfig {
                            layers,
                            seq_len: seq,
                            input_size: 3,
                            hidden_size: 4,
                            output_size: 3,
                            kind,
                            ..BrnnConfig::default()
                        };
                        let spec = GraphSpec {
                            phase,
                            ..GraphSpec::training(config, rows)
                                .with_mbs(mbs)
                                .with_coarsen(Coarsen::By(k))
                        };
                        let graph = build_graph(&spec);
                        graph.validate().unwrap();
                        let view = GraphView::from_graph(&graph);
                        let shape = ShapeSpec {
                            layers,
                            seq,
                            outputs: match kind {
                                ModelKind::ManyToOne => 1,
                                ModelKind::ManyToMany => seq,
                            },
                            replicas: mbs, // rows = 6 >= mbs, so never clamped
                            training: phase == Phase::Training,
                            scan_chunks: None,
                            coarsen: k,
                        };
                        let findings = check_shape(view.len(), view.edge_count(), &shape);
                        assert!(
                            findings.is_empty(),
                            "L={layers} T={seq} k={k} mbs={mbs} {kind:?} {phase:?}: {:#?}",
                            findings
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn many_to_one_graphs_match_the_closed_form() {
    sweep(ModelKind::ManyToOne);
}

#[test]
fn many_to_many_graphs_match_the_closed_form() {
    sweep(ModelKind::ManyToMany);
}

/// Every scan configuration — chunk counts from degenerate to one-per-
/// timestep, uneven splits included — must match the scan closed form
/// exactly, and the closed form's combine term must match the planner's.
fn scan_sweep(kind: ModelKind) {
    let rows = 6;
    for layers in 1..=3 {
        for seq in [2usize, 4, 6, 9, 16] {
            for chunks in [2usize, 3, 4, 8, 16] {
                for mbs in 1..=2 {
                    for phase in [Phase::Inference, Phase::Training] {
                        let config = BrnnConfig {
                            cell: CellKind::Linear,
                            layers,
                            seq_len: seq,
                            input_size: 3,
                            hidden_size: 4,
                            output_size: 3,
                            kind,
                            ..BrnnConfig::default()
                        };
                        let strategy = RecurrenceStrategy::Scan { chunks };
                        let spec = GraphSpec {
                            phase,
                            ..GraphSpec::training(config, rows)
                                .with_mbs(mbs)
                                .with_recurrence(strategy)
                        };
                        let graph = build_graph(&spec);
                        let view = GraphView::from_graph(&graph);
                        let shape = ShapeSpec {
                            layers,
                            seq,
                            outputs: match kind {
                                ModelKind::ManyToOne => 1,
                                ModelKind::ManyToMany => seq,
                            },
                            replicas: mbs,
                            training: phase == Phase::Training,
                            scan_chunks: strategy.effective(CellKind::Linear, seq).scan_chunks(),
                            coarsen: 1,
                        };
                        let findings = check_shape(view.len(), view.edge_count(), &shape);
                        assert!(
                            findings.is_empty(),
                            "L={layers} T={seq} C={chunks} mbs={mbs} {kind:?} {phase:?}: {:#?}",
                            findings
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn scan_graphs_match_the_closed_form_many_to_one() {
    scan_sweep(ModelKind::ManyToOne);
}

#[test]
fn scan_graphs_match_the_closed_form_many_to_many() {
    scan_sweep(ModelKind::ManyToMany);
}

/// The two `combine_count` recursions — `bpar_core::scanplan` (used by
/// the planner) and `bpar_verify::shape` (used by the closed form) — are
/// deliberate duplicates across a crate boundary; keep them in lock-step.
#[test]
fn verify_combine_count_mirrors_core_scanplan() {
    for c in 1..=300 {
        assert_eq!(
            bpar_core::scanplan::combine_count(c),
            scan_combine_count(c),
            "C={c}"
        );
    }
}

/// The paper's Fig. 2 instance, cell-for-cell: a 3-layer many-to-one
/// stack over 3 timesteps.
#[test]
fn fig2_instance_is_26_39_and_51_110() {
    let m2o = |training| ShapeSpec {
        layers: 3,
        seq: 3,
        outputs: 1,
        replicas: 1,
        training,
        scan_chunks: None,
        coarsen: 1,
    };
    let inf = expected_shape(&m2o(false));
    assert_eq!((inf.tasks, inf.edges), (26, 39));
    let train = expected_shape(&m2o(true));
    assert_eq!((train.tasks, train.edges), (51, 110));
}
