//! Everything that is not the paper's graph — the task granularity, the
//! seeded bugs of the soundness detectors and the framework ablations — is
//! a transform of the one emitted node stream. Each test pins a transform's *exact*
//! delta against the untransformed stream, seen through the public
//! consumers: the compiled live plan (`analyze::plan_view`) and the
//! simulator graph (`graphgen::build_graph`).

use bpar_core::analyze::{plan_view, AnalyzeOptions, SeedBug};
use bpar_core::graphgen::{build_graph, Coarsen, GraphSpec, Phase};
use bpar_core::model::{BrnnConfig, ModelKind};
use bpar_runtime::TaskGraph;
use bpar_verify::GraphView;

fn label_tags(g: &TaskGraph) -> Vec<(&'static str, u64)> {
    g.nodes().iter().map(|n| (n.label, n.tag)).collect()
}

#[test]
fn missing_state_clause_drops_one_in_clause_and_nothing_else() {
    let clean = plan_view(&AnalyzeOptions::default());
    let seeded = plan_view(&AnalyzeOptions {
        seed_bug: Some(SeedBug::MissingClause),
        ..AnalyzeOptions::default()
    });
    assert_eq!(clean.len(), seeded.len());
    let mut changed = Vec::new();
    for (a, b) in clean.tasks.iter().zip(&seeded.tasks) {
        assert_eq!((&a.label, a.tag, &a.outs), (&b.label, b.tag, &b.outs));
        if a.ins != b.ins {
            changed.push((a, b));
        }
    }
    let [(a, b)] = changed[..] else {
        panic!(
            "expected exactly one task with changed ins, got {}",
            changed.len()
        );
    };
    // cell_fwd(l=0, t=1) lost its only clause: the t-1 recurrent state.
    assert_eq!((a.label.as_str(), a.tag), ("cell_fwd", 1));
    assert_eq!(a.ins.len(), 1);
    assert!(b.ins.is_empty());
}

#[test]
fn cross_epoch_race_appends_one_probe_node() {
    let opts = AnalyzeOptions {
        train: false,
        ..AnalyzeOptions::default()
    };
    let clean = plan_view(&opts);
    let seeded = plan_view(&AnalyzeOptions {
        seed_bug: Some(SeedBug::CrossEpochRace),
        ..opts
    });
    assert_eq!(seeded.len(), clean.len() + 1);
    for (a, b) in clean.tasks.iter().zip(&seeded.tasks) {
        assert_eq!(
            (&a.label, a.tag, &a.ins, &a.outs, &a.preds),
            (&b.label, b.tag, &b.ins, &b.outs, &b.preds)
        );
    }
    let probe = seeded.tasks.last().unwrap();
    assert_eq!(probe.label, "epoch_probe");
    assert_eq!(probe.ins, clean.tasks[0].outs, "reads st_fwd[0][0]");
    // Its out region is fresh: no clean task declares it.
    assert_eq!(probe.outs.len(), 1);
    assert!(clean
        .tasks
        .iter()
        .all(|t| !t.ins.contains(&probe.outs[0]) && !t.outs.contains(&probe.outs[0])));
}

#[test]
fn barriers_only_add_barrier_nodes() {
    for layers in 1..=3 {
        for mbs in 1..=2 {
            let config = BrnnConfig {
                layers,
                seq_len: 3,
                input_size: 4,
                hidden_size: 4,
                output_size: 2,
                ..BrnnConfig::default()
            };
            let spec = GraphSpec::training(config, 4).with_mbs(mbs);
            let free = build_graph(&spec);
            let barred = build_graph(&spec.with_barriers(true));
            assert_eq!(free.count_label("barrier"), 0);
            assert_eq!(barred.count_label("barrier"), mbs * (4 * layers - 1));
            let rest: Vec<_> = label_tags(&barred)
                .into_iter()
                .filter(|&(label, _)| label != "barrier")
                .collect();
            assert_eq!(rest, label_tags(&free), "L={layers} mbs={mbs}");
        }
    }
}

#[test]
fn split_cells_double_the_cells_and_keep_the_flops() {
    let spec = GraphSpec::training(BrnnConfig::default(), 4).with_mbs(2);
    let whole = build_graph(&spec);
    let split = build_graph(&spec.with_split_cells(true));
    for dir in ["fwd", "rev"] {
        let cells = whole.count_label(&format!("cell_{dir}"));
        assert!(cells > 0);
        assert_eq!(split.count_label(&format!("cell_{dir}")), 0);
        assert_eq!(split.count_label(&format!("cell_{dir}_gemm")), cells);
        assert_eq!(split.count_label(&format!("cell_{dir}_pt")), cells);
    }
    assert_eq!(split.len(), whole.len() + whole.count_label("cell_fwd") * 2);
    let flops = |g: &TaskGraph| g.nodes().iter().map(|n| n.flops).sum::<u64>();
    assert_eq!(flops(&split), flops(&whole));
}

// ---- coarsen(k): the granularity transform ----

fn coarsen_config(layers: usize, seq: usize, kind: ModelKind) -> BrnnConfig {
    BrnnConfig {
        layers,
        seq_len: seq,
        input_size: 4,
        hidden_size: 4,
        output_size: 2,
        kind,
        ..BrnnConfig::default()
    }
}

/// The fold the transform is specified to make, recomputed from the
/// unfolded plan's labels and tags alone: consecutive tasks of one kind
/// family and layer, at most `k` distinct timesteps (the tag's low half)
/// each. The output head (`merge_final`, `dense`, `loss` and the backward
/// seed, a `merge_bwd` that follows a `loss`) is one family.
fn expected_groups(base: &GraphView, k: usize) -> Vec<std::ops::Range<usize>> {
    let family = |i: usize| {
        let t = &base.tasks[i];
        let seed = t.label == "merge_bwd" && base.tasks[i - 1].label == "loss";
        let family = match t.label.as_str() {
            "dense" | "loss" => "merge_final",
            "merge_bwd" if seed => "merge_final",
            "reduce_fwd" | "reduce_rev" | "reduce_dense" | "reduce_loss" => return None,
            other => other,
        };
        Some((family, t.tag >> 32))
    };
    let mut groups = Vec::new();
    let mut start = 0;
    while start < base.len() {
        let (mut end, mut positions) = (start + 1, 1);
        while k > 1 && end < base.len() && family(start).is_some() && family(end) == family(start) {
            if base.tasks[end].tag != base.tasks[end - 1].tag {
                if positions == k {
                    break;
                }
                positions += 1;
            }
            end += 1;
        }
        groups.push(start..end);
        start = end;
    }
    groups
}

#[test]
fn coarsen_folds_k_timesteps_per_run_and_nothing_else() {
    use std::collections::BTreeSet;
    let seq = 5;
    let mut folded_runs = 0;
    for layers in [1, 3] {
        for kind in [ModelKind::ManyToOne, ModelKind::ManyToMany] {
            for train in [false, true] {
                for mbs in 1..=2 {
                    let config = coarsen_config(layers, seq, kind);
                    let opts = |coarsen| AnalyzeOptions {
                        config,
                        rows: 4,
                        mbs,
                        train,
                        coarsen,
                        ..AnalyzeOptions::default()
                    };
                    let spec = |coarsen| GraphSpec {
                        phase: if train {
                            Phase::Training
                        } else {
                            Phase::Inference
                        },
                        ..GraphSpec::training(config, 4)
                            .with_mbs(mbs)
                            .with_coarsen(coarsen)
                    };
                    let base = plan_view(&opts(Coarsen::By(1)));
                    let base_graph = build_graph(&spec(Coarsen::By(1)));
                    // Divisors, ragged last chunks (reverse chunks then
                    // straddle forward ones), k = T - 1, T and beyond.
                    for k in [1, 2, 3, seq - 1, seq, seq + 5] {
                        let what = format!("L={layers} {kind:?} train={train} mbs={mbs} k={k}");
                        let folded = plan_view(&opts(Coarsen::By(k)));
                        let graph = build_graph(&spec(Coarsen::By(k)));
                        graph.validate().unwrap();
                        let groups = expected_groups(&base, k);
                        assert_eq!(folded.len(), groups.len(), "{what}");
                        assert_eq!(graph.len(), groups.len(), "{what}");

                        // Per run, ⌈n/k⌉ nodes.
                        let chunks = seq.div_ceil(k.min(seq));
                        let count = |v: &GraphView, l: &str| {
                            v.tasks.iter().filter(|t| t.label == l).count()
                        };
                        for cell in ["cell_fwd", "cell_rev"] {
                            assert_eq!(count(&folded, cell), mbs * layers * chunks, "{what}");
                        }
                        assert_eq!(count(&folded, "merge"), mbs * (layers - 1) * chunks);

                        let mut owner = vec![0; base.len()];
                        for (i, (task, group)) in folded.tasks.iter().zip(&groups).enumerate() {
                            let members = &base.tasks[group.clone()];
                            folded_runs += usize::from(members.len() > 1);
                            owner[group.clone()].fill(i);
                            // Label and tag of the first member; a
                            // training head is labelled by its loss.
                            let label = match members.iter().find(|m| m.label == "loss") {
                                Some(loss) => &loss.label,
                                None => &members[0].label,
                            };
                            assert_eq!((&task.label, task.tag), (label, members[0].tag));
                            // out = union of the members' outs; in = union of
                            // their ins minus what an earlier member wrote;
                            // each slot listed once, at its first occurrence
                            // in member order (the naive quadratic fold).
                            let (mut ins, mut outs) = (Vec::new(), Vec::new());
                            for m in members {
                                for r in &m.ins {
                                    if !outs.contains(r) && !ins.contains(r) {
                                        ins.push(*r);
                                    }
                                }
                                for r in &m.outs {
                                    if !outs.contains(r) {
                                        outs.push(*r);
                                    }
                                }
                            }
                            assert_eq!(task.ins, ins, "{what} task {i} ins");
                            assert_eq!(task.outs, outs, "{what} task {i} outs");
                            // Costs are summed.
                            let sum = |f: fn(&bpar_runtime::graph::TaskNode) -> u64| {
                                group.clone().map(|b| f(base_graph.node(b))).sum::<u64>()
                            };
                            assert_eq!(graph.node(i).flops, sum(|n| n.flops), "{what}");
                            assert_eq!(
                                graph.node(i).working_set_bytes as u64,
                                sum(|n| n.working_set_bytes as u64)
                            );
                        }
                        // Every original edge is inside a node or between
                        // the two nodes holding its ends — and the folded
                        // plan has no edge beyond those.
                        let edges = |v: &GraphView, owner: &dyn Fn(usize) -> usize| {
                            let mut e = BTreeSet::new();
                            for (s, t) in v.tasks.iter().enumerate() {
                                let across = t.preds.iter().map(|&p| (owner(p), owner(s)));
                                e.extend(across.filter(|(a, b)| a != b));
                            }
                            e
                        };
                        assert_eq!(
                            edges(&base, &|b| owner[b]),
                            edges(&folded, &|f| f),
                            "{what}"
                        );
                        if k == 1 {
                            assert_eq!(live_rows(&folded), live_rows(&base), "{what}");
                        }
                    }
                }
            }
        }
    }
    assert!(folded_runs > 1000, "the sweep folded {folded_runs} runs");
}

/// Everything the runtime sees of a plan, task by task.
fn live_rows(v: &GraphView) -> Vec<String> {
    let row = |t: &bpar_verify::TaskView| {
        format!(
            "{} {} {:?} {:?} {:?}",
            t.label, t.tag, t.ins, t.outs, t.preds
        )
    };
    v.tasks.iter().map(row).collect()
}

/// The rule's `k` for every plan shape the four ledger workloads build
/// (`crates/bench/src/bin/ledger/spec.rs`): only `fine_grain` folds.
#[test]
fn the_overhead_rule_folds_fine_grain_and_nothing_else_in_the_ledger() {
    use bpar_core::cell::CellKind::{Gru, Lstm};
    let k = |cell, kind, (input, hidden, layers): (usize, usize, usize), seq, rows, train| {
        let config = BrnnConfig {
            cell,
            input_size: input,
            hidden_size: hidden,
            layers,
            seq_len: seq,
            output_size: 11,
            kind,
            ..BrnnConfig::default()
        };
        let spec = if train {
            GraphSpec::training(config, rows)
        } else {
            GraphSpec::inference(config, rows)
        };
        spec.with_coarsen(Coarsen::Rule).coarsen_factor()
    };
    let (m2o, m2m) = (ModelKind::ManyToOne, ModelKind::ManyToMany);
    for train in [false, true] {
        // fine_grain: BGRU h2x4 many-to-many, 48 steps; 1 row in the
        // train/infer phases, 1-4 rows per served batch.
        let fine = |rows| k(Gru, m2m, (2, 2, 4), 48, rows, train);
        assert_eq!([fine(1), fine(2), fine(3), fine(4)], [9, 6, 5, 4]);
        // train_coarse: BLSTM h48x3, 16 rows x 16 steps; serves 8 frames.
        assert_eq!(k(Lstm, m2o, (16, 48, 3), 16, 16, train), 1);
        // serve_shapes: BLSTM h32x2, lengths 24 +- 60 %, 1-8 rows.
        // fleet_tenants: BGRU h16 x 1 or 2, lengths 12 +- 35 %, 1-4 rows.
        for rows in 1..=8 {
            assert_eq!(k(Lstm, m2o, (16, 48, 3), 8, rows.min(4), train), 1);
            for seq in 9..=39 {
                assert_eq!(k(Lstm, m2o, (16, 32, 2), seq, rows, train), 1);
            }
            for seq in 7..=17 {
                for layers in 1..=2 {
                    assert_eq!(k(Gru, m2o, (8, 16, layers), seq, rows.min(4), train), 1);
                }
            }
        }
    }
}
