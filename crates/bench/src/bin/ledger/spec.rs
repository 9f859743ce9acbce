//! Everything the benchmark fixes in advance: the four workloads with
//! every shape, count and rate frozen, the metric tables, and the text of
//! `BENCHMARK.json` (rendered from those tables, so the committed file and
//! the code cannot drift — `print_benchmark_json_matches_committed_file`).
//!
//! The numbers were sized on the 2-vCPU builder container with the scalar
//! f32 backend; README.md lists the measurements behind each one.

use bpar_core::cell::CellKind;
use bpar_core::model::{BrnnConfig, ModelKind};
use bpar_core::MergeMode;
use bpar_data::tidigits::DIGIT_CLASSES;

/// Directory (from the repository root) that holds the benchmark.
pub const BENCH_DIR: &str = "crates/bench/src/bin/ledger";
/// Seconds one run measures (`--seconds` from the driver).
pub const RUN_SECONDS: u32 = 30;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The seven end-to-end metrics, reported on every workload by the timed
/// pass (`--trace 0`).
///
/// The bounds are what the host allows, not what ISSUE 12 asked for (0.05,
/// and 0.10 for set-up and p90). The driver refused those: its two sets of
/// ten runs of the same code spread by 6–18 % of the median. The builder's
/// host has stretches of minutes in which everything runs 10–20 % slower;
/// a run that lies wholly inside one has no quiet round to report, and a
/// bound below that both fails the same-code check and rejects later
/// changes that did nothing wrong. README.md holds the spread these were
/// set against: at most 0.05 for train, infer and the rate (bound 0.20,
/// four times that), at most 0.09 for set-up and 0.13 for the latencies,
/// which queueing amplifies (bound 0.25, the most the contract allows).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "train_ms_per_batch",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "infer_ms_per_batch",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "serve_capacity_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "serve_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// One per-layer metric of the traced pass (`--trace 1`); no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, grouped by the crate they measure. A count or a
/// shape-derived number has a nominal direction only (fewer misses, fewer
/// bytes); README.md says which end-to-end metric each one should move.
pub const PER_LAYER: [PerLayer; 90] = [
    // bpar-tensor
    hi("tensor.gemm_nn_gflops.scalar", "GFLOP/s"),
    hi("tensor.gemm_nt_gflops.scalar", "GFLOP/s"),
    hi("tensor.gemm_tn_gflops.scalar", "GFLOP/s"),
    hi("tensor.gemm_nn_gflops.simd", "GFLOP/s"),
    hi("tensor.gemm_nt_gflops.simd", "GFLOP/s"),
    hi("tensor.gemm_tn_gflops.simd", "GFLOP/s"),
    lo("tensor.flops_per_batch", "count"),
    lo("tensor.bytes_per_batch", "count"),
    hi("tensor.task_gflops", "GFLOP/s"),
    // bpar-runtime
    lo("runtime.tasks_per_batch", "count"),
    lo("runtime.task_time_ms", "ms"),
    lo("runtime.makespan_ms", "ms"),
    lo("runtime.idle_frac", "frac"),
    lo("runtime.gap_ns_per_task", "ns"),
    hi("runtime.avg_concurrency", "count"),
    lo("runtime.replay_us", "us"),
    lo("runtime.overhead_ratio", "frac"),
    lo("runtime.ns_per_empty_task.fifo", "ns"),
    lo("runtime.ns_per_empty_task.locality", "ns"),
    lo("runtime.ns_per_empty_task.work-stealing", "ns"),
    lo("runtime.submit_ns_per_task", "ns"),
    lo("runtime.w2_over_w1", "ratio"),
    // bpar-core
    hi("core.plan_hits", "count"),
    lo("core.plan_misses", "count"),
    lo("core.plan_evictions", "count"),
    lo("core.weight_syncs", "count"),
    lo("core.plan_build_us", "us"),
    lo("core.arena_mib", "MiB"),
    lo("core.budget_evictions", "count"),
    lo("core.op_self_us", "us"),
    lo("core.task_us_p50", "us"),
    lo("core.kind_ms.cell_fwd", "ms"),
    lo("core.kind_ms.cell_rev", "ms"),
    lo("core.kind_ms.merge", "ms"),
    lo("core.kind_ms.merge_final", "ms"),
    lo("core.kind_ms.dense", "ms"),
    lo("core.kind_ms.loss", "ms"),
    lo("core.kind_ms.cell_fwd_bwd", "ms"),
    lo("core.kind_ms.cell_rev_bwd", "ms"),
    lo("core.kind_ms.merge_bwd", "ms"),
    lo("core.kind_ms.reduce_dense", "ms"),
    lo("core.kind_ms.reduce_loss", "ms"),
    lo("core.layer_ms.L0.fwd", "ms"),
    lo("core.layer_ms.L0.rev", "ms"),
    lo("core.layer_ms.L1.fwd", "ms"),
    lo("core.layer_ms.L1.rev", "ms"),
    lo("core.layer_ms.L2.fwd", "ms"),
    lo("core.layer_ms.L2.rev", "ms"),
    lo("core.layer_ms.L3.fwd", "ms"),
    lo("core.layer_ms.L3.rev", "ms"),
    lo("core.sequential_ms_per_batch", "ms"),
    lo("core.bseq_ms_per_batch", "ms"),
    lo("core.barrier_ms_per_batch", "ms"),
    hi("core.speedup_vs_sequential", "ratio"),
    hi("core.barrier_over_bpar", "ratio"),
    // bpar-serve
    lo("serve.queue_wait_p50_ms", "ms"),
    lo("serve.queue_wait_p90_ms", "ms"),
    lo("serve.service_p50_ms", "ms"),
    lo("serve.service_p90_ms", "ms"),
    lo("serve.latency_p99_ms", "ms"),
    hi("serve.latency_samples", "count"),
    lo("serve.batches", "count"),
    hi("serve.batch_rows_mean", "count"),
    hi("serve.batch_fill", "frac"),
    lo("serve.padding_frac", "frac"),
    lo("serve.queue_depth_mean", "count"),
    lo("serve.queue_depth_max", "count"),
    hi("serve.pool_hits", "count"),
    lo("serve.pool_misses", "count"),
    lo("serve.pool_mib", "MiB"),
    lo("serve.shed", "count"),
    lo("serve.rejected", "count"),
    lo("serve.failed", "count"),
    lo("serve.retries", "count"),
    lo("serve.push_us_p50", "us"),
    lo("serve.gen_lag_p99_ms", "ms"),
    lo("serve.gen_lag_max_ms", "ms"),
    lo("serve.residual_frac", "frac"),
    // bpar-router
    lo("router.submit_us_p50", "us"),
    lo("router.submit_us_p99", "us"),
    lo("router.shard_imbalance", "frac"),
    lo("router.hedges", "count"),
    lo("router.cancelled_copies", "count"),
    // bpar-sim
    lo("sim.live_over_sim_makespan", "ratio"),
    lo("sim.predict_ms", "ms"),
    hi("sim.speedup_48c", "ratio"),
    // bpar-data
    lo("data.gen_us_per_utt", "us"),
    // the benchmark itself
    lo("bench.failed_frac", "frac"),
    lo("bench.trace_overhead_frac", "frac"),
    lo("bench.round_iqr_frac_max", "frac"),
];

/// One workload with every number frozen.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub why: &'static str,
    /// One model per tenant; tenant 0's model also runs the train and
    /// infer phases.
    pub models: Vec<BrnnConfig>,
    /// Rows of the train/infer batch (its length is `models[0].seq_len`).
    pub rows: usize,
    /// Worker threads of the executor that trains and infers. (Servers
    /// and fleet replicas run `run::SERVE_WORKERS`.)
    pub workers: usize,
    /// `None`: one `Server`. `Some(n)`: a `Router` over `n` replicas.
    pub replicas: Option<usize>,
    /// Mean request length in frames.
    pub mean_frames: usize,
    /// Request lengths run from `mean_frames` less this share to
    /// `mean_frames` plus it; 0: every request has `mean_frames` frames.
    /// (`TidigitsDataset` itself draws ±35 %.)
    pub len_spread: f64,
    pub max_batch: usize,
    pub window_us: u64,
    pub bucket_width: usize,
    pub plan_budget_kib: Option<u64>,
    pub pool_budget_kib: Option<u64>,
    /// Cold set-ups per round; the round's `setup_s` is their median.
    pub setups: usize,
    /// Warm calls per round.
    pub train_calls: usize,
    pub infer_calls: usize,
    /// Closed loop: requests per round and the concurrency window (the
    /// admission queue's capacity under `Block`).
    pub closed_requests: usize,
    pub closed_window: usize,
    /// Open loop: requests per round and the fixed Poisson rate.
    pub open_requests: usize,
    pub open_rate_rps: f64,
}

/// CPUs the workloads are sized for: one for the serving tier and every
/// one-worker executor, one for the load generator; `train_coarse`'s two
/// workers compute on both. A run on fewer says so.
pub const BUSY_THREADS: usize = 2;

fn model(
    cell: CellKind,
    kind: ModelKind,
    input: usize,
    hidden: usize,
    layers: usize,
    seq: usize,
) -> BrnnConfig {
    BrnnConfig {
        cell,
        input_size: input,
        hidden_size: hidden,
        layers,
        seq_len: seq,
        output_size: DIGIT_CLASSES,
        merge: MergeMode::Sum,
        kind,
    }
}

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "train_coarse",
            why: "BLSTM h48x3, 16 rows x 16 steps on 2 workers, 8-frame requests: 130 tasks of ~0.9 ms, kernels >95 % of the time, runtime idle",
            models: vec![model(CellKind::Lstm, ModelKind::ManyToOne, 16, 48, 3, 16)],
            rows: 16,
            workers: 2,
            replicas: None,
            mean_frames: 8,
            len_spread: 0.0,
            max_batch: 4,
            window_us: 10_000,
            bucket_width: 1,
            plan_budget_kib: None,
            pool_budget_kib: None,
            setups: 1,
            train_calls: 4,
            infer_calls: 5,
            closed_requests: 128,
            closed_window: 32,
            open_requests: 300,
            open_rate_rps: 130.0,
        },
        Workload {
            name: "fine_grain",
            why: "BGRU h2x4 many-to-many, 1 row x 48 steps, 1 worker: 624 tasks of ~0.4 us, per-task overhead sets the time, kernels idle",
            models: vec![model(CellKind::Gru, ModelKind::ManyToMany, 2, 2, 4, 48)],
            rows: 1,
            workers: 1,
            replicas: None,
            mean_frames: 48,
            len_spread: 0.0,
            max_batch: 4,
            window_us: 4_000,
            bucket_width: 1,
            plan_budget_kib: None,
            pool_budget_kib: None,
            setups: 7,
            train_calls: 200,
            infer_calls: 500,
            closed_requests: 1500,
            closed_window: 8,
            open_requests: 1500,
            open_rate_rps: 2100.0,
        },
        Workload {
            name: "serve_shapes",
            why: "BLSTM h32x2 on 1 worker, lengths 24+-60 %, exact-length buckets, ~90 batch shapes against a 32-plan cache: plans are built, evicted, re-synced",
            models: vec![model(CellKind::Lstm, ModelKind::ManyToOne, 16, 32, 2, 24)],
            rows: 8,
            workers: 1,
            replicas: None,
            mean_frames: 24,
            len_spread: 0.6,
            max_batch: 8,
            window_us: 4_000,
            bucket_width: 1,
            plan_budget_kib: None,
            pool_budget_kib: None,
            setups: 3,
            train_calls: 6,
            infer_calls: 16,
            closed_requests: 320,
            closed_window: 32,
            open_requests: 200,
            open_rate_rps: 140.0,
        },
        Workload {
            name: "fleet_tenants",
            why: "Router, 2 replicas x 1 worker on one CPU, 3 BGRU h16 tenants, hash routing, plan and pool budgets: dispatch, queue wait and the batch window dominate",
            models: vec![
                model(CellKind::Gru, ModelKind::ManyToOne, 8, 16, 1, 12),
                model(CellKind::Gru, ModelKind::ManyToOne, 8, 16, 2, 12),
                model(CellKind::Gru, ModelKind::ManyToOne, 8, 16, 1, 12),
            ],
            rows: 4,
            workers: 1,
            replicas: Some(2),
            mean_frames: 12,
            len_spread: 0.35,
            max_batch: 4,
            window_us: 1_000,
            bucket_width: 4,
            plan_budget_kib: Some(1024),
            pool_budget_kib: Some(64),
            setups: 7,
            train_calls: 150,
            infer_calls: 400,
            closed_requests: 1600,
            closed_window: 64,
            open_requests: 1200,
            open_rate_rps: 1600.0,
        },
    ]
}

/// A name as `BENCHMARK.json` allows it: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.`, `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit as `BENCHMARK.json` allows it.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// The text of `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        &format!("{BENCH_DIR}/Cargo.toml"),
        "--",
    ]
    .map(|s| format!("\"{s}\""))
    .join(", ");
    let workloads: Vec<String> = workloads()
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"{BENCH_DIR}\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let ws = workloads();
        assert!((2..=8).contains(&ws.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        let names = ws
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "name used twice: {name}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit}");
        }
        for w in &ws {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(!w.why.contains('"') && !w.why.contains('\\'));
        }
        // The contract's ceiling, and set-up has the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            assert!(m.bound <= setup.bound, "{} bound", m.name);
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn name_charset_is_enforced() {
        assert!(valid_name("runtime.ns_per_empty_task.work-stealing"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("GFLOP/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn workload_specs_are_runnable() {
        for w in workloads() {
            assert!(!w.models.is_empty());
            for m in &w.models {
                m.validate().unwrap();
                assert_eq!(m.input_size, w.models[0].input_size);
                assert!(m.layers <= 4, "core.layer_ms has names for L0..L3");
            }
            assert!(w.setups >= 1 && w.train_calls >= 3 && w.infer_calls >= 4);
            // p90 needs >= 15 samples beyond it in every round.
            assert!(w.open_requests >= 150);
            assert!(w.closed_window >= w.max_batch);
            assert!(w.open_rate_rps > 0.0);
            assert!(w.replicas.is_some() || w.models.len() == 1);
            assert!(w.workers <= BUSY_THREADS && w.replicas.unwrap_or(1) <= BUSY_THREADS);
        }
    }

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json in an ancestor of the package")
            .to_path_buf()
    }

    /// The committed file is exactly what `--print-benchmark-json` prints.
    #[test]
    fn print_benchmark_json_matches_committed_file() {
        let root = repo_root();
        let committed = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json differs from `ledger --print-benchmark-json`; regenerate it"
        );
        assert!(root.join(BENCH_DIR).join("main.rs").is_file());
    }

    /// Lines of `[section]` in a manifest, comments and blanks dropped.
    fn section(manifest: &str, header: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect()
    }

    /// The benchmark's own manifest (what `BENCHMARK.json` builds) and the
    /// workspace's (what `cargo test` builds these sources with) compile
    /// the same code the same way: same release profile, and no dependency
    /// that `bpar-bench` does not have.
    #[test]
    fn own_manifest_follows_the_workspace() {
        let root = repo_root();
        let read = |p: &str| std::fs::read_to_string(root.join(p)).unwrap();
        let own = read(&format!("{BENCH_DIR}/Cargo.toml"));
        let workspace = read("Cargo.toml");
        let bench = read("crates/bench/Cargo.toml");
        let profile = section(&own, "[profile.release]");
        assert!(!profile.is_empty());
        assert_eq!(profile, section(&workspace, "[profile.release]"));
        let names = |lines: Vec<String>| -> BTreeSet<String> {
            let name = |l: &String| l.split(['.', ' ', '=']).next().unwrap().to_string();
            lines.iter().map(name).collect()
        };
        let own_deps = names(section(&own, "[dependencies]"));
        let bench_deps = names(section(&bench, "[dependencies]"));
        assert!(!own_deps.is_empty());
        assert!(
            own_deps.is_subset(&bench_deps),
            "{own_deps:?} not within {bench_deps:?}"
        );
    }
}
