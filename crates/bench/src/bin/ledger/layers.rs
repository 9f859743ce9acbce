//! Per-layer measurements of the traced pass that do not come from the
//! rounds themselves: what one batch's `TaskRecord`s say about the
//! runtime and the model, and probes that call one crate's public API in
//! isolation (GEMM kernels, an empty-bodied plan, the other executors,
//! the simulator).

use crate::inputs::Batch;
use crate::pin::{pin, Cpus};
use crate::span::Tracer;
use crate::spec::Workload;
use crate::stats::{median, percentile, sorted};
use bpar_core::exec::{
    BSeqExec, BarrierExec, Executor, ForwardOutput, SequentialExec, Target, TaskGraphExec,
};
use bpar_core::graphgen::{build_graph, GraphSpec};
use bpar_core::model::Brnn;
use bpar_core::optim::Sgd;
use bpar_runtime::plan::{PlanBuilder, PlanSpec};
use bpar_runtime::stats::TaskRecord;
use bpar_runtime::task::TaskSpec;
use bpar_runtime::{Runtime, RuntimeConfig, RuntimeStats, SchedulerPolicy, TaskGraph};
use bpar_sim::{simulate, SimConfig};
use bpar_tensor::{init, Backend, BackendKind, Matrix, Workspace};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A row of named values; the run takes the median of each name over
/// rounds.
pub type Row = Vec<(&'static str, f64)>;

/// Task kinds `core.kind_ms.*` reports, as the graph builder labels them.
const KINDS: [(&str, &str); 11] = [
    ("cell_fwd", "core.kind_ms.cell_fwd"),
    ("cell_rev", "core.kind_ms.cell_rev"),
    ("merge", "core.kind_ms.merge"),
    ("merge_final", "core.kind_ms.merge_final"),
    ("dense", "core.kind_ms.dense"),
    ("loss", "core.kind_ms.loss"),
    ("cell_fwd_bwd", "core.kind_ms.cell_fwd_bwd"),
    ("cell_rev_bwd", "core.kind_ms.cell_rev_bwd"),
    ("merge_bwd", "core.kind_ms.merge_bwd"),
    ("reduce_dense", "core.kind_ms.reduce_dense"),
    ("reduce_loss", "core.kind_ms.reduce_loss"),
];

const LAYERS: [[&str; 2]; 4] = [
    ["core.layer_ms.L0.fwd", "core.layer_ms.L0.rev"],
    ["core.layer_ms.L1.fwd", "core.layer_ms.L1.rev"],
    ["core.layer_ms.L2.fwd", "core.layer_ms.L2.rev"],
    ["core.layer_ms.L3.fwd", "core.layer_ms.L3.rev"],
];

/// Time per task kind and per layer × direction of one training batch —
/// the paper's §IV-B granularity table, from live `TaskRecord`s. Cell
/// tasks carry their layer in the upper half of the tag.
pub fn train_batch_row(records: &[TaskRecord]) -> Row {
    let mut kind_ms = [0.0f64; KINDS.len()];
    let mut layer_ms = [[0.0f64; 2]; LAYERS.len()];
    for r in records {
        let ms = r.duration() * 1e3;
        if let Some(k) = KINDS.iter().position(|(label, _)| *label == r.label) {
            kind_ms[k] += ms;
        }
        let dir = match r.label {
            "cell_fwd" | "cell_fwd_bwd" => 0,
            "cell_rev" | "cell_rev_bwd" => 1,
            _ => continue,
        };
        if let Some(layer) = layer_ms.get_mut((r.tag >> 32) as usize) {
            layer[dir] += ms;
        }
    }
    let kinds = KINDS.iter().zip(kind_ms).map(|((_, name), ms)| (*name, ms));
    let layers = LAYERS
        .iter()
        .zip(layer_ms)
        .flat_map(|(names, ms)| [(names[0], ms[0]), (names[1], ms[1])]);
    kinds.chain(layers).collect()
}

/// What one inference batch's records say about the runtime: task count,
/// time in bodies, makespan and the share of `workers × makespan` spent
/// outside bodies. `stats` must come from the same batch.
pub fn infer_batch_row(
    records: &[TaskRecord],
    stats: &RuntimeStats,
    workers: usize,
    flops_per_batch: f64,
) -> Row {
    let tasks = records.len().max(1) as f64;
    let capacity = stats.makespan * workers as f64;
    let idle = (capacity - stats.total_task_time).max(0.0);
    let durations_us: Vec<f64> = records.iter().map(|r| r.duration() * 1e6).collect();
    vec![
        ("runtime.tasks_per_batch", records.len() as f64),
        ("runtime.task_time_ms", stats.total_task_time * 1e3),
        ("runtime.makespan_ms", stats.makespan * 1e3),
        (
            "runtime.idle_frac",
            if capacity > 0.0 { idle / capacity } else { 0.0 },
        ),
        ("runtime.gap_ns_per_task", idle * 1e9 / tasks),
        ("runtime.avg_concurrency", stats.avg_concurrency),
        ("runtime.overhead_ratio", stats.overhead_ratio()),
        ("core.task_us_p50", percentile(&sorted(&durations_us), 0.5)),
        (
            "tensor.task_gflops",
            if stats.total_task_time > 0.0 {
                flops_per_batch / stats.total_task_time / 1e9
            } else {
                0.0
            },
        ),
    ]
}

/// Forward FLOPs and bytes touched by one inference batch, from shapes
/// alone (`CellKind::forward_flops` / `forward_working_set` per cell task
/// plus the classifier GEMM) — not measured.
pub fn shape_counts(w: &Workload) -> (f64, f64) {
    let cfg = &w.models[0];
    let mut flops = 0u64;
    let mut bytes = 0usize;
    for l in 0..cfg.layers {
        let input = cfg.layer_input_size(l);
        let cells = 2 * cfg.seq_len;
        flops += cells as u64 * cfg.cell.forward_flops(w.rows, input, cfg.hidden_size);
        bytes += cells
            * cfg
                .cell
                .forward_working_set(w.rows, input, cfg.hidden_size, 4);
    }
    let outputs = match cfg.kind {
        bpar_core::ModelKind::ManyToOne => 1,
        bpar_core::ModelKind::ManyToMany => cfg.seq_len,
    };
    let (feat, classes) = (cfg.classifier_input_size(), cfg.output_size);
    flops += (outputs * 2 * w.rows * feat * classes) as u64;
    bytes += outputs * (feat * classes + w.rows * (feat + classes)) * 4;
    (flops as f64, bytes as f64)
}

fn median_of(reps: usize, mut sample: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| sample()).collect::<Vec<_>>())
}

/// GFLOP/s of the three GEMM variants at the workload's gate shape
/// `(rows × (input + hidden)) · ((input + hidden) × gates·hidden)` of the
/// deepest layer, through `Backend::of(kind)`.
fn gemm_probe(w: &Workload, effort: f64, row: &mut Row) {
    const NAMES: [[&str; 3]; 2] = [
        [
            "tensor.gemm_nn_gflops.scalar",
            "tensor.gemm_nt_gflops.scalar",
            "tensor.gemm_tn_gflops.scalar",
        ],
        [
            "tensor.gemm_nn_gflops.simd",
            "tensor.gemm_nt_gflops.simd",
            "tensor.gemm_tn_gflops.simd",
        ],
    ];
    let cfg = &w.models[0];
    let m = w.rows;
    let k = cfg.layer_input_size(cfg.layers - 1) + cfg.hidden_size;
    let n = cfg.cell.gates() * cfg.hidden_size;
    let a: Matrix<f32> = init::uniform(m, k, -1.0, 1.0, 1);
    let b: Matrix<f32> = init::uniform(k, n, -1.0, 1.0, 2);
    let bt: Matrix<f32> = init::uniform(n, k, -1.0, 1.0, 3);
    let at: Matrix<f32> = init::uniform(k, m, -1.0, 1.0, 4);
    let mut c: Matrix<f32> = Matrix::zeros(m, n);
    let mut ws: Workspace<f32> = Workspace::new();
    let flops = 2.0 * (m * k * n) as f64;
    // ~40 ms of scalar work per variant at 0.6 GFLOP/s.
    let iters = ((2.5e7 * effort / flops).ceil() as usize).max(20);
    for (kind, names) in [BackendKind::Scalar, BackendKind::Simd]
        .into_iter()
        .zip(NAMES)
    {
        let be = Backend::of(kind);
        for (op, name) in names.into_iter().enumerate() {
            let mut once = |c: &mut Matrix<f32>| match op {
                0 => be.gemm(1.0f32, black_box(&a), black_box(&b), 0.0, c, &mut ws),
                1 => be.gemm_nt(1.0f32, black_box(&a), black_box(&bt), 0.0, c),
                _ => be.gemm_tn(1.0f32, black_box(&at), black_box(&b), 0.0, c),
            };
            once(&mut c);
            let t0 = Instant::now();
            for _ in 0..iters {
                once(&mut c);
                black_box(c.get(0, 0));
            }
            let secs = t0.elapsed().as_secs_f64();
            row.push((name, flops * iters as f64 / secs / 1e9));
        }
    }
}

/// The runtime alone: the workload's inference graph with empty bodies on
/// one worker, replayed from a compiled plan under each production
/// policy, and submitted live (dependency resolution included).
fn runtime_probe(graph: &TaskGraph, reps: usize, row: &mut Row) {
    let tasks = graph.len() as f64;
    let mut b = PlanBuilder::new();
    for id in 0..graph.len() {
        b.submit(
            PlanSpec::new(graph.node(id).label)
                .ins(graph.ins(id).iter().copied())
                .outs(graph.outs(id).iter().copied())
                .body(|| {}),
        );
    }
    let plan = Arc::new(b.compile());
    let runtime = |policy| {
        Runtime::new(RuntimeConfig {
            workers: 1,
            policy,
            record_trace: true,
        })
    };
    for (policy, name) in [
        (SchedulerPolicy::Fifo, "runtime.ns_per_empty_task.fifo"),
        (
            SchedulerPolicy::LocalityAware,
            "runtime.ns_per_empty_task.locality",
        ),
        (
            SchedulerPolicy::WorkStealing,
            "runtime.ns_per_empty_task.work-stealing",
        ),
    ] {
        let rt = runtime(policy);
        let replay = || {
            let t0 = Instant::now();
            rt.replay(&plan);
            rt.taskwait().expect("empty task bodies cannot panic");
            t0.elapsed().as_secs_f64() * 1e9 / tasks
        };
        (0..3).for_each(|_| _ = replay());
        row.push((name, median_of(reps, replay)));
    }
    let rt = runtime(SchedulerPolicy::LocalityAware);
    let live = || {
        rt.reset();
        let t0 = Instant::now();
        for id in 0..graph.len() {
            rt.submit(
                TaskSpec::new(graph.node(id).label)
                    .ins(graph.ins(id).iter().copied())
                    .outs(graph.outs(id).iter().copied())
                    .body(|| {}),
            );
        }
        rt.taskwait().expect("empty task bodies cannot panic");
        t0.elapsed().as_secs_f64() * 1e9 / tasks
    };
    (0..2).for_each(|_| _ = live());
    row.push(("runtime.submit_ns_per_task", median_of(reps, live)));
}

/// One warm-up call, then the median of `calls` training steps in ms.
fn train_ms(
    exec: &dyn Executor<f32>,
    model: &Brnn<f32>,
    xs: &[Matrix<f32>],
    target: &Target,
    calls: usize,
) -> f64 {
    let mut model = model.clone();
    let mut opt = Sgd::new(0.01);
    exec.train_batch(&mut model, xs, target, &mut opt);
    median_of(calls, || {
        let t0 = Instant::now();
        black_box(exec.train_batch(&mut model, xs, target, &mut opt));
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// One warm-up call, then the median of `calls` forward passes in ms.
fn infer_ms(exec: &TaskGraphExec, model: &Brnn<f32>, xs: &[Matrix<f32>], calls: usize) -> f64 {
    let mut out = ForwardOutput::zeros_for(model, xs[0].rows(), xs.len());
    let mut once = || {
        let t0 = Instant::now();
        exec.try_forward_into(model, xs, &mut out)
            .expect("probe batch failed");
        t0.elapsed().as_secs_f64() * 1e3
    };
    once();
    median_of(calls, once)
}

/// What the rounds measured that the probes compare against.
pub struct Live {
    pub train_ms_per_batch: f64,
    pub infer_makespan_ms: f64,
}

/// All probes, each under its own span. `effort` scales iteration counts
/// (1 in real runs).
pub fn probes(
    w: &Workload,
    model: &Brnn<f32>,
    batch: &Batch,
    live: &Live,
    effort: f64,
    place: bool,
    tracer: &mut Tracer,
) -> Row {
    let (xs, target) = (&batch.xs[..], &batch.target);
    let mut row = Row::new();
    let cfg = w.models[0];
    let calls = ((3.0 * effort).ceil() as usize).max(1);
    let root = tracer.open("bench.probes", None);
    let span = tracer.open("tensor.gemm", Some(root));
    gemm_probe(w, effort, &mut row);
    tracer.close(span);

    let infer_graph = build_graph(&GraphSpec::inference(cfg, w.rows));
    let span = tracer.open("runtime.empty_tasks", Some(root));
    runtime_probe(
        &infer_graph,
        ((15.0 * effort).ceil() as usize).max(3),
        &mut row,
    );
    tracer.close(span);

    // The same batch on one and on two workers. Informational: on shared
    // vCPUs the second worker's wake-ups measure the host as much as the
    // runtime.
    // Every other probe runs where the rounds ran: on the tier's CPU with
    // one worker, on all of them with more. This one needs all.
    let policy = SchedulerPolicy::LocalityAware;
    let span = tracer.open("runtime.workers_1_vs_2", Some(root));
    let w1 = infer_ms(&TaskGraphExec::with_config(1, policy, 1), model, xs, calls);
    if place {
        pin(Cpus::All);
    }
    let w2 = infer_ms(&TaskGraphExec::with_config(2, policy, 1), model, xs, calls);
    if place && w.workers == 1 {
        pin(Cpus::Tier);
    }
    tracer.close(span);
    row.push(("runtime.w2_over_w1", w2 / w1));

    // Tables III/IV baselines on the training step, same batch, same
    // worker count: no parallelism, data parallelism only (B-Seq, one
    // mini-batch per worker), task parallelism with per-layer barriers.
    let span = tracer.open("core.other_executors", Some(root));
    let sequential = train_ms(&SequentialExec, model, xs, target, calls);
    let bseq = train_ms(
        &BSeqExec::new(w.workers, w.workers),
        model,
        xs,
        target,
        calls,
    );
    let barrier = train_ms(&BarrierExec::new(w.workers), model, xs, target, calls);
    tracer.close(span);
    row.push(("core.sequential_ms_per_batch", sequential));
    row.push(("core.bseq_ms_per_batch", bseq));
    row.push(("core.barrier_ms_per_batch", barrier));
    row.push((
        "core.speedup_vs_sequential",
        sequential / live.train_ms_per_batch,
    ));
    row.push(("core.barrier_over_bpar", barrier / live.train_ms_per_batch));

    // The simulator on the same graph and worker count: the calibration
    // error every 48-virtual-core claim carries.
    let span = tracer.open("sim.simulate", Some(root));
    let t0 = Instant::now();
    let sim = simulate(&infer_graph, &SimConfig::xeon(w.workers));
    row.push(("sim.predict_ms", t0.elapsed().as_secs_f64() * 1e3));
    row.push((
        "sim.live_over_sim_makespan",
        live.infer_makespan_ms / (sim.makespan * 1e3),
    ));
    let train_graph = build_graph(&GraphSpec::training(cfg, w.rows));
    let one = simulate(&train_graph, &SimConfig::xeon(1)).makespan;
    let many = simulate(&train_graph, &SimConfig::xeon(48)).makespan;
    row.push(("sim.speedup_48c", one / many));
    tracer.close(span);
    tracer.close(root);
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(label: &'static str, tag: u64, start: f64, end: f64) -> TaskRecord {
        TaskRecord {
            id: 0,
            label,
            tag,
            worker: 0,
            start,
            end,
            working_set_bytes: 0,
        }
    }

    fn get(row: &Row, name: &str) -> f64 {
        row.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn records_split_by_kind_layer_and_direction() {
        let records = [
            rec("cell_fwd", 0, 0.0, 0.001),
            rec("cell_fwd", (1 << 32) | 5, 0.0, 0.002),
            rec("cell_rev_bwd", (1 << 32) | 2, 0.0, 0.004),
            rec("merge", 1 << 32, 0.0, 0.008),
            rec("scan_local", 0, 0.0, 1.0),
        ];
        let row = train_batch_row(&records);
        assert_eq!(row.len(), KINDS.len() + 8);
        assert!((get(&row, "core.kind_ms.cell_fwd") - 3.0).abs() < 1e-9);
        assert!((get(&row, "core.kind_ms.cell_rev_bwd") - 4.0).abs() < 1e-9);
        assert!((get(&row, "core.kind_ms.merge") - 8.0).abs() < 1e-9);
        assert!((get(&row, "core.layer_ms.L0.fwd") - 1.0).abs() < 1e-9);
        assert!((get(&row, "core.layer_ms.L1.fwd") - 2.0).abs() < 1e-9);
        assert!((get(&row, "core.layer_ms.L1.rev") - 4.0).abs() < 1e-9);
        assert_eq!(get(&row, "core.layer_ms.L3.rev"), 0.0);
    }

    #[test]
    fn idle_share_counts_every_worker() {
        // Two workers, makespan 10 ms, 15 ms inside bodies: a quarter idle.
        let records = [rec("dense", 0, 0.0, 0.010), rec("dense", 0, 0.0, 0.005)];
        let stats = RuntimeStats::from_records(&records, std::time::Duration::from_millis(3));
        let row = infer_batch_row(&records, &stats, 2, 3.0e6);
        assert!((get(&row, "runtime.idle_frac") - 0.25).abs() < 1e-9);
        assert!((get(&row, "runtime.gap_ns_per_task") - 2.5e6).abs() < 1.0);
        assert!((get(&row, "runtime.overhead_ratio") - 0.2).abs() < 1e-9);
        assert!((get(&row, "tensor.task_gflops") - 0.2).abs() < 1e-9);
        assert_eq!(get(&row, "runtime.tasks_per_batch"), 2.0);
    }
}
