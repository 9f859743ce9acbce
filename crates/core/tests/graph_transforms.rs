//! Everything that is not the paper's graph — the seeded bugs of the
//! soundness detectors and the framework ablations — is a transform of
//! the one emitted node stream. Each test pins a transform's *exact*
//! delta against the untransformed stream, seen through the public
//! consumers: the compiled live plan (`analyze::plan_view`) and the
//! simulator graph (`graphgen::build_graph`).

use bpar_core::analyze::{plan_view, AnalyzeOptions, SeedBug};
use bpar_core::graphgen::{build_graph, GraphSpec};
use bpar_core::model::BrnnConfig;
use bpar_runtime::TaskGraph;

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
