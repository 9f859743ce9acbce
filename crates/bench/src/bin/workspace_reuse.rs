//! Workspace-arena reuse measurement: allocations-per-batch and
//! throughput, warm vs cold.
//!
//! The memory refactor's claim is that a *warm* replayed inference batch —
//! cached plan, persistent arena, pooled output buffer — touches the heap
//! allocator exactly zero times, where the *cold* path (plan rebuilt from
//! scratch) pays the full build: replica construction, dependency
//! compilation, and every activation/cache buffer; and that a warm
//! training step (resident arena, in-place weight re-sync, `Sgd` update)
//! touches it zero times too. This bench measures both inference regimes
//! over the same serving-shaped batches, and the warm training step on
//! one of them, and reports per-batch wall time plus — when built with
//! `--features count-alloc`,
//! which installs [`bpar_tensor::CountingAlloc`] process-wide — the exact
//! allocator call and byte counts per batch, exiting nonzero if any warm
//! row allocates. Without the feature the allocation columns are `null`
//! rather than silently zero. It also reports what the four shapes keep
//! resident once all are cached: their arenas, and the one weight
//! snapshot every plan of the model reads.
//!
//! Usage:
//!   cargo run --release -p bpar-bench --bin workspace_reuse
//!   cargo run --release -p bpar-bench --features count-alloc --bin workspace_reuse

use bpar_bench::{print_table, write_json};
use bpar_core::exec::{Executor, ForwardOutput, Target, TaskGraphExec};
use bpar_core::model::{Brnn, BrnnConfig, ModelKind};
use bpar_core::optim::Sgd;
use bpar_data::tidigits::{TidigitsDataset, DIGIT_CLASSES};
use bpar_tensor::alloc_track::{allocation_count, bytes_allocated};
use serde::Serialize;
use std::time::Instant;

#[cfg(feature = "count-alloc")]
#[global_allocator]
static ALLOC: bpar_tensor::CountingAlloc = bpar_tensor::CountingAlloc;

const SEED: u64 = 11;
const WORKERS: usize = 4;
const BATCHES: usize = 40;
const WARMUP: usize = 5;

#[derive(Serialize)]
struct ShapeRow {
    rows: usize,
    seq: usize,
    batches: usize,
    cold_batch_us: f64,
    warm_batch_us: f64,
    warm_speedup: f64,
    cold_allocs_per_batch: Option<u64>,
    cold_bytes_per_batch: Option<u64>,
    warm_allocs_per_batch: Option<u64>,
    warm_bytes_per_batch: Option<u64>,
    /// Persistent arena resident for this shape's plan (analytic,
    /// independent of the count-alloc feature).
    arena_bytes: u64,
}

/// Warm `try_train_batch` on one shape: revision bump, weight re-sync,
/// forward, BPTT and the optimizer step per batch.
#[derive(Serialize)]
struct TrainRow {
    rows: usize,
    seq: usize,
    batches: usize,
    warm_batch_us: f64,
    warm_allocs_per_batch: Option<u64>,
    warm_bytes_per_batch: Option<u64>,
}

/// What the executor keeps resident with every shape's plan cached.
#[derive(Serialize)]
struct Resident {
    plans: usize,
    arena_bytes: u64,
    /// One snapshot, however many plans read it.
    weight_bytes: u64,
}

#[derive(Serialize)]
struct WorkspaceReuseReport {
    seed: u64,
    workers: usize,
    batches: usize,
    count_alloc: bool,
    config: String,
    shapes: Vec<ShapeRow>,
    resident: Resident,
    train: TrainRow,
}

/// Allocator-call and byte deltas across `f`, as `Some` only when the
/// counting allocator is actually installed.
fn counted(f: impl FnOnce()) -> (Option<u64>, Option<u64>) {
    let (a0, b0) = (allocation_count(), bytes_allocated());
    f();
    let (a1, b1) = (allocation_count(), bytes_allocated());
    if cfg!(feature = "count-alloc") {
        (Some(a1 - a0), Some(b1 - b0))
    } else {
        (None, None)
    }
}

fn main() {
    let cfg = BrnnConfig {
        input_size: 16,
        hidden_size: 32,
        layers: 2,
        seq_len: 16,
        output_size: DIGIT_CLASSES,
        kind: ModelKind::ManyToOne,
        ..Default::default()
    };
    let model: Brnn<f64> = Brnn::new(cfg, SEED);
    let data = TidigitsDataset::new(cfg.input_size, 12, SEED);
    let exec = TaskGraphExec::new(WORKERS);

    let shapes: &[(usize, usize)] = &[(1, 16), (4, 16), (8, 16), (8, 24)];
    let batch_of = |rows: usize, seq: usize| data.batch::<f64>(rows as u64 * 1000, rows, seq).0;
    let mut table = Vec::new();
    let mut shape_rows = Vec::new();
    for &(rows, seq) in shapes {
        let batch = batch_of(rows, seq);
        let mut out = ForwardOutput::zeros_for(&model, rows, seq);

        // Cold: every batch rebuilds the plan and re-allocates its arena —
        // what a cache-less executor would pay per batch.
        let cold_start = Instant::now();
        let (cold_allocs, cold_bytes) = counted(|| {
            for _ in 0..BATCHES {
                exec.clear_plan_cache();
                let _ = exec.forward(&model, &batch);
            }
        });
        let cold_batch_us = cold_start.elapsed().as_secs_f64() * 1e6 / BATCHES as f64;

        // Warm: one build, then replays through the persistent arena into
        // a reused output buffer — the serving steady state.
        exec.clear_plan_cache();
        for _ in 0..WARMUP {
            exec.try_forward_into(&model, &batch, &mut out)
                .expect("warmup batch");
        }
        let warm_start = Instant::now();
        let (warm_allocs, warm_bytes) = counted(|| {
            for _ in 0..BATCHES {
                exec.try_forward_into(&model, &batch, &mut out)
                    .expect("warm batch");
            }
        });
        let warm_batch_us = warm_start.elapsed().as_secs_f64() * 1e6 / BATCHES as f64;

        let arena_bytes = exec.plan_cache_stats().arena_bytes;
        let per = |v: Option<u64>| v.map(|n| n / BATCHES as u64);
        let row = ShapeRow {
            rows,
            seq,
            batches: BATCHES,
            cold_batch_us,
            warm_batch_us,
            warm_speedup: cold_batch_us / warm_batch_us,
            cold_allocs_per_batch: per(cold_allocs),
            cold_bytes_per_batch: per(cold_bytes),
            warm_allocs_per_batch: per(warm_allocs),
            warm_bytes_per_batch: per(warm_bytes),
            arena_bytes,
        };
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |n| n.to_string());
        table.push(vec![
            format!("{rows}x{seq}"),
            format!("{:.1}", row.cold_batch_us),
            format!("{:.1}", row.warm_batch_us),
            format!("{:.2}x", row.warm_speedup),
            opt(row.cold_allocs_per_batch),
            opt(row.warm_allocs_per_batch),
            format!("{:.1}", row.arena_bytes as f64 / 1024.0),
        ]);
        shape_rows.push(row);
    }

    // Every shape cached at once, as a serving loop keeps them.
    for &(rows, seq) in shapes {
        let _ = exec.forward(&model, &batch_of(rows, seq));
    }
    let stats = exec.plan_cache_stats();
    let resident = Resident {
        plans: stats.cached_plans,
        arena_bytes: stats.arena_bytes,
        weight_bytes: stats.weight_bytes,
    };
    println!(
        "resident with {} shapes cached: arena {:.1} KiB, weights {:.1} KiB (one snapshot)",
        resident.plans,
        resident.arena_bytes as f64 / 1024.0,
        resident.weight_bytes as f64 / 1024.0,
    );

    // Warm training on the serving tier's typical shape.
    let (rows, seq) = (4, 16);
    let (batch, labels) = data.batch::<f64>(7_000, rows, seq);
    let target = Target::Classes(labels);
    let mut trained = model.clone();
    let mut opt = Sgd::new(0.01);
    for _ in 0..WARMUP {
        exec.try_train_batch(&mut trained, &batch, &target, &mut opt)
            .expect("warmup step");
    }
    let train_start = Instant::now();
    let (train_allocs, train_bytes) = counted(|| {
        for _ in 0..BATCHES {
            exec.try_train_batch(&mut trained, &batch, &target, &mut opt)
                .expect("warm step");
        }
    });
    let per = |v: Option<u64>| v.map(|n| n / BATCHES as u64);
    let train = TrainRow {
        rows,
        seq,
        batches: BATCHES,
        warm_batch_us: train_start.elapsed().as_secs_f64() * 1e6 / BATCHES as f64,
        warm_allocs_per_batch: per(train_allocs),
        warm_bytes_per_batch: per(train_bytes),
    };
    table.push(vec![
        format!("train {rows}x{seq}"),
        "-".to_string(),
        format!("{:.1}", train.warm_batch_us),
        "-".to_string(),
        "-".to_string(),
        train
            .warm_allocs_per_batch
            .map_or_else(|| "-".to_string(), |n| n.to_string()),
        "-".to_string(),
    ]);

    print_table(
        "workspace reuse: cold rebuild vs warm replay (per batch)",
        &[
            "shape",
            "cold_us",
            "warm_us",
            "speedup",
            "cold_allocs",
            "warm_allocs",
            "arena_KiB",
        ],
        &table,
    );
    let max_warm = shape_rows
        .iter()
        .filter_map(|r| r.warm_allocs_per_batch)
        .max()
        .unwrap_or(0);
    let train_allocs = train.warm_allocs_per_batch.unwrap_or(0);
    if cfg!(feature = "count-alloc") {
        println!(
            "\nwarm allocations per batch, worst shape: {max_warm} \
             (steady-state target: 0)"
        );
        println!(
            "warm training allocations per step, {}x{}: {train_allocs} (steady-state target: 0)",
            train.rows, train.seq,
        );
    } else {
        println!("\n(build with --features count-alloc for exact allocation counts)");
    }

    let canonical = format!(
        "in={},h={},l={},out={},workers={WORKERS},n={BATCHES},count_alloc={}",
        cfg.input_size,
        cfg.hidden_size,
        cfg.layers,
        cfg.output_size,
        cfg!(feature = "count-alloc"),
    );
    let report = WorkspaceReuseReport {
        seed: SEED,
        workers: WORKERS,
        batches: BATCHES,
        count_alloc: cfg!(feature = "count-alloc"),
        config: canonical.clone(),
        shapes: shape_rows,
        resident,
        train,
    };
    write_json(
        &bpar_serve::metrics::report_name("workspace_reuse", SEED, &canonical),
        &report,
    );
    if max_warm > 0 || train_allocs > 0 {
        eprintln!("FAIL: a warm row allocated (shapes: {max_warm}, training: {train_allocs})");
        std::process::exit(1);
    }
}
