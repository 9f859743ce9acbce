//! Reproduces the §IV-B task-granularity experiment: a BLSTM with
//! seq 100, batch 128, input 64, hidden 512.
//!
//! Paper numbers: 368,240 tasks in total (over a training run), average
//! LSTM-task working set 4.71 MB, task durations 272.8 µs – 315 ms with a
//! 13.05 ms average, and task creation/scheduling/synchronisation
//! overhead at least 10× smaller than useful task time.
//!
//! Then the sweep the plan builder's granularity rule
//! (`bpar_core::graphgen::Coarsen::Rule`) is judged by: `k` timesteps per
//! task × simulated cores, on the paper's graph above and on the ledger's
//! `fine_grain` graph (BGRU h2×4 many-to-many, 1 row × 48 steps), next to
//! the live one-worker time of the `fine_grain` plan at the same `k`.
//!
//! Usage: `cargo run --release -p bpar-bench --bin granularity`

use bpar_bench::{bpar_result, paper, print_table, write_json, Phase};
use bpar_core::analyze::{time_replays, AnalyzeOptions};
use bpar_core::cell::CellKind;
use bpar_core::graphgen::{build_graph, Coarsen, GraphSpec};
use bpar_core::merge::MergeMode;
use bpar_core::model::{BrnnConfig, ModelKind};
use bpar_runtime::SchedulerPolicy;
use bpar_sim::{simulate, SimConfig};
use serde::Serialize;

#[derive(Serialize)]
struct GranularityResult {
    tasks_per_batch: usize,
    batches_for_paper_count: f64,
    lstm_ws_mb: f64,
    min_task_us: f64,
    avg_task_us: f64,
    max_task_us: f64,
    overhead_ratio: f64,
    /// `k` the plan builder's rule derives for each swept graph.
    rule_k: Vec<(&'static str, usize)>,
    sweep: Vec<SweepRow>,
    live_fine_grain: Vec<LiveRow>,
}

/// One graph at one granularity on one simulated core count.
#[derive(Serialize)]
struct SweepRow {
    graph: &'static str,
    k: usize,
    cores: usize,
    tasks: usize,
    makespan_ms: f64,
    /// Per-task runtime overhead over total task time, as above.
    overhead_ratio: f64,
    /// Longest dependency chain at cache-warm task cost: the makespan no
    /// core count gets under.
    critical_path_ms: f64,
}

/// The live `fine_grain` inference plan at one granularity, one worker.
#[derive(Serialize)]
struct LiveRow {
    k: usize,
    ms_per_batch: f64,
}

const SWEEP_CORES: [usize; 3] = [1, 2, 48];

/// Simulates `spec` folded by each `k` on each core count.
fn sweep(graph: &'static str, spec: GraphSpec, rows: &mut Vec<SweepRow>) {
    let seq = spec.config.seq_len;
    for k in [1, 2, 4, 8, 16, seq] {
        let g = build_graph(&spec.with_coarsen(Coarsen::By(k)));
        for cores in SWEEP_CORES {
            let cfg = SimConfig::xeon(cores);
            let overhead = cfg.cost.per_task_overhead;
            let warm = |n: &bpar_runtime::graph::TaskNode| {
                overhead + n.flops as f64 / cfg.machine.flops_per_core
            };
            let r = simulate(&g, &cfg);
            let task_time: f64 = r.records.iter().map(|t| t.duration()).sum();
            rows.push(SweepRow {
                graph,
                k,
                cores,
                tasks: g.len(),
                makespan_ms: r.makespan * 1e3,
                overhead_ratio: overhead * g.len() as f64 / task_time,
                critical_path_ms: g.critical_path(warm) * 1e3,
            });
        }
    }
}

fn main() {
    let cfg = BrnnConfig {
        cell: CellKind::Lstm,
        input_size: 64,
        hidden_size: 512,
        layers: 6,
        seq_len: 100,
        output_size: 11,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToOne,
    };
    let r = bpar_result(
        &cfg,
        128,
        24,
        1,
        Phase::Training,
        SchedulerPolicy::LocalityAware,
    );

    let durations_us: Vec<f64> = r.records.iter().map(|t| t.duration() * 1e6).collect();
    let min = durations_us.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = durations_us.iter().cloned().fold(0.0, f64::max);
    let avg = durations_us.iter().sum::<f64>() / durations_us.len() as f64;

    // Working set of the forward LSTM cell tasks specifically (the paper
    // quotes the per-task LSTM working set).
    let lstm_ws: Vec<f64> = r
        .records
        .iter()
        .filter(|t| t.label == "cell_fwd" || t.label == "cell_rev")
        .map(|t| t.working_set_bytes as f64 / (1024.0 * 1024.0))
        .collect();
    let lstm_ws_mb = lstm_ws.iter().sum::<f64>() / lstm_ws.len() as f64;

    // Overhead: 30 µs of creation/scheduling per task vs useful time.
    let overhead = 30e-6 * r.records.len() as f64;
    let useful: f64 = r.records.iter().map(|t| t.duration()).sum();
    let overhead_ratio = overhead / useful;

    let tasks_per_batch = r.records.len();
    let batches = paper::granularity::TOTAL_TASKS as f64 / tasks_per_batch as f64;

    let rows = vec![
        vec![
            "tasks (one training batch)".into(),
            tasks_per_batch.to_string(),
            format!(
                "{} total = ~{batches:.0} batches",
                paper::granularity::TOTAL_TASKS
            ),
        ],
        vec![
            "avg LSTM-task working set (MB)".into(),
            format!("{lstm_ws_mb:.2}"),
            format!("{:.2}", paper::granularity::AVG_WORKING_SET_MB),
        ],
        vec![
            "min task duration (us)".into(),
            format!("{min:.1}"),
            format!("{:.1}", paper::granularity::MIN_TASK_US),
        ],
        vec![
            "avg task duration (us)".into(),
            format!("{avg:.1}"),
            format!("{:.1}", paper::granularity::AVG_TASK_US),
        ],
        vec![
            "max task duration (us)".into(),
            format!("{max:.1}"),
            format!("{:.1}", paper::granularity::MAX_TASK_US),
        ],
        vec![
            "overhead / useful time".into(),
            format!("{overhead_ratio:.3}"),
            "< 0.1".into(),
        ],
    ];
    print_table(
        "Task granularity (BLSTM, seq 100, batch 128, input 64, hidden 512)",
        &["metric", "ours", "paper"],
        &rows,
    );
    assert!(
        overhead_ratio < 0.1,
        "overhead must stay 10x below task time"
    );

    // The ledger's `fine_grain` model and inference batch.
    let fine = BrnnConfig {
        cell: CellKind::Gru,
        input_size: 2,
        hidden_size: 2,
        layers: 4,
        seq_len: 48,
        output_size: 11,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToMany,
    };
    let fine_spec = GraphSpec::inference(fine, 1);
    let paper_spec = GraphSpec::training(cfg, 128);
    let rule = |spec: GraphSpec| spec.with_coarsen(Coarsen::Rule).coarsen_factor();
    let rule_k = vec![("fine_grain", rule(fine_spec)), ("paper", rule(paper_spec))];
    let mut sweep_rows = Vec::new();
    sweep("fine_grain", fine_spec, &mut sweep_rows);
    sweep("paper", paper_spec, &mut sweep_rows);
    let live_fine_grain: Vec<LiveRow> = [1, 2, 4, 8, 16, fine.seq_len]
        .into_iter()
        .map(|k| {
            let opts = AnalyzeOptions {
                config: fine,
                rows: 1,
                train: false,
                coarsen: Coarsen::By(k),
                scheduler: SchedulerPolicy::LocalityAware,
                ..AnalyzeOptions::default()
            };
            let mut secs = time_replays(&opts, 400);
            secs.sort_by(f64::total_cmp);
            LiveRow {
                k,
                ms_per_batch: secs[secs.len() / 2] * 1e3,
            }
        })
        .collect();

    for graph in ["fine_grain", "paper"] {
        let table: Vec<Vec<String>> = sweep_rows
            .chunks(SWEEP_CORES.len())
            .filter(|per_k| per_k[0].graph == graph)
            .map(|per_k| {
                let first = &per_k[0];
                let mut row = vec![first.k.to_string(), first.tasks.to_string()];
                row.extend(per_k.iter().map(|r| format!("{:.3}", r.makespan_ms)));
                row.push(format!("{:.3}", first.critical_path_ms));
                row.push(format!("{:.3}", first.overhead_ratio));
                if graph == "fine_grain" {
                    let live = live_fine_grain.iter().find(|l| l.k == first.k);
                    row.push(format!("{:.3}", live.expect("same k list").ms_per_batch));
                }
                row
            })
            .collect();
        let mut headers = vec![
            "k",
            "tasks",
            "1 core (ms)",
            "2 cores",
            "48 cores",
            "critical path (ms)",
            "overhead / task time",
        ];
        if graph == "fine_grain" {
            headers.push("live, 1 worker (ms)");
        }
        let k = rule_k.iter().find(|(g, _)| *g == graph).expect("swept").1;
        print_table(
            &format!("coarsen(k) on the {graph} graph, simulated (the rule picks k = {k})"),
            &headers,
            &table,
        );
    }

    write_json(
        "granularity",
        &GranularityResult {
            tasks_per_batch,
            batches_for_paper_count: batches,
            lstm_ws_mb,
            min_task_us: min,
            avg_task_us: avg,
            max_task_us: max,
            overhead_ratio,
            rule_k,
            sweep: sweep_rows,
            live_fine_grain,
        },
    );
}
