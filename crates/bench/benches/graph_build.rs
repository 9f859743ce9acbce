//! Criterion benchmarks of static task-graph generation — the cost of
//! "unrolling" a BRNN into its dependency graph (Algorithms 1–3), which
//! B-Par pays once per batch shape.
//!
//! The h256 cases are the paper's graph (`Coarsen::By(1)`). The two
//! ledger-sized cases build the graph an executor compiles
//! (`Coarsen::Rule`): `fine_grain`'s training shape, whose tiny cells the
//! rule folds by `k = 9`, and `train_coarse`'s, which stays at `k = 1`.

use bpar_core::cell::CellKind;
use bpar_core::graphgen::{build_graph, Coarsen, GraphSpec};
use bpar_core::merge::MergeMode;
use bpar_core::model::{BrnnConfig, ModelKind};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn config(layers: usize, seq: usize) -> BrnnConfig {
    BrnnConfig {
        cell: CellKind::Lstm,
        input_size: 256,
        hidden_size: 256,
        layers,
        seq_len: seq,
        output_size: 11,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToOne,
    }
}

/// A ledger workload's model (`crates/bench/src/bin/ledger/spec.rs`).
fn ledger_config(
    cell: CellKind,
    kind: ModelKind,
    (input, hidden, layers): (usize, usize, usize),
    seq: usize,
) -> BrnnConfig {
    BrnnConfig {
        cell,
        input_size: input,
        hidden_size: hidden,
        layers,
        seq_len: seq,
        output_size: 10,
        merge: MergeMode::Sum,
        kind,
    }
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(10);
    let mut cases: Vec<(String, GraphSpec)> = Vec::new();
    for &(layers, seq, mbs) in &[(6usize, 100usize, 1usize), (6, 100, 8), (12, 100, 8)] {
        let spec = GraphSpec::training(config(layers, seq), 128).with_mbs(mbs);
        cases.push((format!("{layers}L_seq{seq}_mbs{mbs}"), spec));
    }
    let fine_grain = ledger_config(CellKind::Gru, ModelKind::ManyToMany, (2, 2, 4), 48);
    let train_coarse = ledger_config(CellKind::Lstm, ModelKind::ManyToOne, (16, 48, 3), 16);
    for (name, cfg, rows) in [
        ("fine_grain", fine_grain, 1),
        ("train_coarse", train_coarse, 16),
    ] {
        let spec = GraphSpec::training(cfg, rows).with_coarsen(Coarsen::Rule);
        cases.push((format!("{name}_k{}", spec.coarsen_factor()), spec));
    }
    for (name, spec) in &cases {
        let tasks = build_graph(spec).len();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{name}_{tasks}tasks")),
            spec,
            |b, spec| b.iter(|| black_box(build_graph(spec).len())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
