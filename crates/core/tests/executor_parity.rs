//! Executor-parity tests: the paper's §III claim that orchestrating BRNN
//! training via task dependencies "does not produce any accuracy loss
//! compared to a sequential execution".
//!
//! With `mbs = 1` every parallel executor performs the same kernel calls
//! whose only reorderings are commutative two-operand float additions, so
//! outputs and trained weights must match the sequential reference
//! *bit-for-bit*. With `mbs > 1` the loss is re-weighted per chunk, so
//! results match to floating-point tolerance instead.

use bpar_core::cell::CellKind;
use bpar_core::exec::{BSeqExec, BarrierExec, Executor, SequentialExec, Target, TaskGraphExec};
use bpar_core::merge::MergeMode;
use bpar_core::model::{Brnn, BrnnConfig, ModelKind};
use bpar_core::optim::Sgd;
use bpar_runtime::SchedulerPolicy;
use bpar_tensor::{init, Matrix};

fn batch(seq: usize, rows: usize, input: usize, seed: u64) -> Vec<Matrix<f64>> {
    (0..seq)
        .map(|t| init::uniform(rows, input, -1.0, 1.0, seed * 100 + t as u64))
        .collect()
}

fn config(cell: CellKind, kind: ModelKind, merge: MergeMode) -> BrnnConfig {
    BrnnConfig {
        cell,
        input_size: 3,
        hidden_size: 5,
        layers: 3,
        seq_len: 4,
        output_size: 3,
        merge,
        kind,
    }
}

fn target_for(kind: ModelKind, seq: usize, rows: usize) -> Target {
    match kind {
        ModelKind::ManyToOne => Target::Classes((0..rows).map(|r| r % 3).collect()),
        ModelKind::ManyToMany => Target::SeqClasses(
            (0..seq)
                .map(|t| (0..rows).map(|r| (r + t) % 3).collect())
                .collect(),
        ),
    }
}

/// Trains `steps` batches with each executor and compares the final
/// parameters against the sequential reference.
fn train_and_diff(exec: &dyn Executor<f64>, cfg: BrnnConfig, steps: usize) -> (f64, f64) {
    let rows = 6;
    let xs = batch(cfg.seq_len, rows, cfg.input_size, 7);
    let target = target_for(cfg.kind, cfg.seq_len, rows);

    let mut reference: Brnn<f64> = Brnn::new(cfg, 42);
    let mut opt = Sgd::new(0.1);
    let seq_exec = SequentialExec::new();
    let mut seq_loss = 0.0;
    for _ in 0..steps {
        seq_loss = seq_exec.train_batch(&mut reference, &xs, &target, &mut opt);
    }

    let mut model: Brnn<f64> = Brnn::new(cfg, 42);
    let mut opt = Sgd::new(0.1);
    let mut loss = 0.0;
    for _ in 0..steps {
        loss = exec.train_batch(&mut model, &xs, &target, &mut opt);
    }

    (model.max_param_diff(&reference), (loss - seq_loss).abs())
}

#[test]
fn bpar_matches_sequential_bitwise_lstm_many_to_one() {
    let cfg = config(CellKind::Lstm, ModelKind::ManyToOne, MergeMode::Sum);
    let exec = TaskGraphExec::new(4);
    let (pdiff, ldiff) = train_and_diff(&exec, cfg, 3);
    assert_eq!(pdiff, 0.0, "parameters must match bit-for-bit");
    assert_eq!(ldiff, 0.0, "loss must match bit-for-bit");
}

#[test]
fn bpar_matches_sequential_bitwise_gru_many_to_many() {
    let cfg = config(CellKind::Gru, ModelKind::ManyToMany, MergeMode::Sum);
    let exec = TaskGraphExec::new(4);
    let (pdiff, ldiff) = train_and_diff(&exec, cfg, 3);
    assert_eq!(pdiff, 0.0);
    assert_eq!(ldiff, 0.0);
}

#[test]
fn bpar_matches_sequential_concat_merge() {
    let cfg = config(CellKind::Lstm, ModelKind::ManyToOne, MergeMode::Concat);
    let exec = TaskGraphExec::new(3);
    let (pdiff, ldiff) = train_and_diff(&exec, cfg, 2);
    assert_eq!(pdiff, 0.0);
    assert_eq!(ldiff, 0.0);
}

#[test]
fn bpar_matches_sequential_avg_and_mul_merges() {
    for merge in [MergeMode::Avg, MergeMode::Mul] {
        let cfg = config(CellKind::Gru, ModelKind::ManyToOne, merge);
        let exec = TaskGraphExec::new(2);
        let (pdiff, ldiff) = train_and_diff(&exec, cfg, 2);
        assert_eq!(pdiff, 0.0, "{merge:?}");
        assert_eq!(ldiff, 0.0, "{merge:?}");
    }
}

#[test]
fn fifo_scheduler_preserves_results() {
    let cfg = config(CellKind::Lstm, ModelKind::ManyToOne, MergeMode::Sum);
    let exec = TaskGraphExec::with_config(4, SchedulerPolicy::Fifo, 1);
    let (pdiff, ldiff) = train_and_diff(&exec, cfg, 2);
    assert_eq!(pdiff, 0.0);
    assert_eq!(ldiff, 0.0);
}

#[test]
fn barrier_executor_matches_sequential_bitwise() {
    let cfg = config(CellKind::Lstm, ModelKind::ManyToOne, MergeMode::Sum);
    let exec = BarrierExec::new(4);
    let (pdiff, ldiff) = train_and_diff(&exec, cfg, 3);
    assert_eq!(pdiff, 0.0);
    assert_eq!(ldiff, 0.0);
}

/// Regression for the reverse-pass rewrite in `forward_trace` (push in
/// traversal order + one `reverse()`, replacing placeholder matrices
/// and per-slot `Option`s) and the hoisted vstack refs buffer in
/// B-Seq's many-to-many assembly: both are container-plumbing changes,
/// so every executor that reuses the sequential drivers must stay
/// *bitwise* identical — including uneven row chunking, where the refs
/// buffer sees chunks of different heights.
#[test]
fn reverse_pass_rewrite_is_bit_identical_across_chunkings() {
    let cfg = config(CellKind::Lstm, ModelKind::ManyToMany, MergeMode::Concat);
    let rows = 5; // 5 rows over 3 chunks: 2 + 2 + 1 (uneven)
    let model: Brnn<f64> = Brnn::new(cfg, 9);
    let xs = batch(cfg.seq_len, rows, cfg.input_size, 11);

    let reference = SequentialExec::new().forward(&model, &xs);
    let bseq = BSeqExec::new(2, 3).forward(&model, &xs);
    assert_eq!(reference.logits.max_abs_diff(&bseq.logits), 0.0);
    for t in 0..cfg.seq_len {
        assert_eq!(
            reference.seq_logits[t].max_abs_diff(&bseq.seq_logits[t]),
            0.0
        );
    }

    // Training drives `backward_from_trace` over the rewritten caches.
    let exec = BSeqExec::new(2, 1);
    let (pdiff, ldiff) = train_and_diff(&exec, cfg, 2);
    assert_eq!(pdiff, 0.0);
    assert_eq!(ldiff, 0.0);
}

#[test]
fn bseq_single_chunk_matches_sequential_bitwise() {
    let cfg = config(CellKind::Gru, ModelKind::ManyToOne, MergeMode::Sum);
    let exec = BSeqExec::new(2, 1);
    let (pdiff, ldiff) = train_and_diff(&exec, cfg, 3);
    assert_eq!(pdiff, 0.0);
    assert_eq!(ldiff, 0.0);
}

#[test]
fn data_parallel_mbs_matches_to_tolerance() {
    // mbs > 1 changes summation grouping, so allow fp tolerance.
    for mbs in [2usize, 3] {
        let cfg = config(CellKind::Lstm, ModelKind::ManyToOne, MergeMode::Sum);
        let exec = TaskGraphExec::with_config(4, SchedulerPolicy::LocalityAware, mbs);
        let (pdiff, ldiff) = train_and_diff(&exec, cfg, 3);
        assert!(pdiff < 1e-9, "mbs {mbs}: param diff {pdiff}");
        assert!(ldiff < 1e-9, "mbs {mbs}: loss diff {ldiff}");
    }
}

#[test]
fn bseq_multi_chunk_matches_to_tolerance() {
    let cfg = config(CellKind::Gru, ModelKind::ManyToMany, MergeMode::Sum);
    let exec = BSeqExec::new(3, 3);
    let (pdiff, ldiff) = train_and_diff(&exec, cfg, 3);
    assert!(pdiff < 1e-9, "param diff {pdiff}");
    assert!(ldiff < 1e-9, "loss diff {ldiff}");
}

#[test]
fn forward_outputs_match_across_executors() {
    let cfg = config(CellKind::Lstm, ModelKind::ManyToMany, MergeMode::Sum);
    let model: Brnn<f64> = Brnn::new(cfg, 5);
    let xs = batch(cfg.seq_len, 5, cfg.input_size, 3);

    let reference = SequentialExec::new().forward(&model, &xs);
    let bpar = TaskGraphExec::new(4).forward(&model, &xs);
    let barrier = BarrierExec::new(2).forward(&model, &xs);
    let bseq = BSeqExec::new(2, 2).forward(&model, &xs);
    let bpar_mbs =
        TaskGraphExec::with_config(4, SchedulerPolicy::LocalityAware, 2).forward(&model, &xs);

    for t in 0..cfg.seq_len {
        assert_eq!(
            reference.seq_logits[t].max_abs_diff(&bpar.seq_logits[t]),
            0.0
        );
        assert_eq!(
            reference.seq_logits[t].max_abs_diff(&barrier.seq_logits[t]),
            0.0
        );
        assert_eq!(
            reference.seq_logits[t].max_abs_diff(&bseq.seq_logits[t]),
            0.0
        );
        // Chunked forward is also bitwise (row partitioning does not change
        // per-row arithmetic).
        assert_eq!(
            reference.seq_logits[t].max_abs_diff(&bpar_mbs.seq_logits[t]),
            0.0
        );
    }
}

#[test]
fn repeated_batches_reuse_runtime_cleanly() {
    // Several different batches through one executor instance: the
    // region-id reset path must not leak stale dependencies.
    let cfg = config(CellKind::Lstm, ModelKind::ManyToOne, MergeMode::Sum);
    let exec = TaskGraphExec::new(4);
    let mut model: Brnn<f64> = Brnn::new(cfg, 11);
    let mut reference = model.clone();
    let mut opt_a = Sgd::new(0.1);
    let mut opt_b = Sgd::new(0.1);
    let seq_exec = SequentialExec::new();
    for i in 0..4 {
        let xs = batch(cfg.seq_len, 4, cfg.input_size, 50 + i);
        let target = target_for(cfg.kind, cfg.seq_len, 4);
        let l1 = exec.train_batch(&mut model, &xs, &target, &mut opt_a);
        let l2 = seq_exec.train_batch(&mut reference, &xs, &target, &mut opt_b);
        assert_eq!(l1, l2, "batch {i}");
    }
    assert_eq!(model.max_param_diff(&reference), 0.0);
}

#[test]
fn single_timestep_sequence_works() {
    // Degenerate seq_len = 1: forward and reverse directions see the same
    // single input; merge still combines two distinct cells.
    let cfg = BrnnConfig {
        seq_len: 1,
        ..config(CellKind::Lstm, ModelKind::ManyToOne, MergeMode::Sum)
    };
    let xs = batch(1, 3, cfg.input_size, 9);
    let target = target_for(cfg.kind, 1, 3);
    let exec = TaskGraphExec::new(2);
    let mut a: Brnn<f64> = Brnn::new(cfg, 1);
    let mut b: Brnn<f64> = Brnn::new(cfg, 1);
    let mut o1 = Sgd::new(0.1);
    let mut o2 = Sgd::new(0.1);
    let l1 = exec.train_batch(&mut a, &xs, &target, &mut o1);
    let l2 = SequentialExec::new().train_batch(&mut b, &xs, &target, &mut o2);
    assert_eq!(l1, l2);
    assert_eq!(a.max_param_diff(&b), 0.0);
}

#[test]
fn single_layer_model_works() {
    let cfg = BrnnConfig {
        layers: 1,
        ..config(CellKind::Gru, ModelKind::ManyToMany, MergeMode::Sum)
    };
    let xs = batch(cfg.seq_len, 2, cfg.input_size, 13);
    let target = target_for(cfg.kind, cfg.seq_len, 2);
    let exec = TaskGraphExec::new(3);
    let mut a: Brnn<f64> = Brnn::new(cfg, 2);
    let mut b: Brnn<f64> = Brnn::new(cfg, 2);
    let mut o1 = Sgd::new(0.1);
    let mut o2 = Sgd::new(0.1);
    let l1 = exec.train_batch(&mut a, &xs, &target, &mut o1);
    let l2 = SequentialExec::new().train_batch(&mut b, &xs, &target, &mut o2);
    assert_eq!(l1, l2);
    assert_eq!(a.max_param_diff(&b), 0.0);
}

#[test]
fn runtime_stats_reflect_task_counts() {
    let cfg = config(CellKind::Lstm, ModelKind::ManyToOne, MergeMode::Sum);
    let tasks_of_one_step = |cfg: BrnnConfig, rows| {
        let exec = TaskGraphExec::new(2);
        let mut model: Brnn<f64> = Brnn::new(cfg, 1);
        let xs = batch(cfg.seq_len, rows, cfg.input_size, 21);
        let target = target_for(cfg.kind, cfg.seq_len, rows);
        exec.train_batch(&mut model, &xs, &target, &mut Sgd::new(0.1));
        let stats = exec.runtime().stats();
        assert!(stats.total_task_time > 0.0);
        stats.tasks
    };
    // 4 rows of an h = 5 LSTM are coarse enough for one cell per task.
    // Forward: 2 dirs × L × T cells + (L-1) × T merges + 1 final merge.
    // Loss + merge_bwd seed + backward cells + inner merge_bwd.
    let l = cfg.layers;
    let t = cfg.seq_len;
    let expected = 2 * l * t      // forward cells
        + (l - 1) * t             // merges
        + 1 + 1 + 1               // merge_final, loss, merge_bwd seed
        + 2 * l * t               // backward cells
        + (l - 1) * t; // inner merge_bwd
    assert_eq!(tasks_of_one_step(cfg, 4), expected);

    // One row of an h = 2 cell is not: the plan builder folds all T = 4
    // timesteps (k = 7, clamped) into each task, so every run of T tasks
    // is one, and the final merge, the loss and the backward seed run as
    // one head task.
    let fine = BrnnConfig {
        hidden_size: 2,
        ..cfg
    };
    let folded = 2 * l + (l - 1) + 1 + 2 * l + (l - 1);
    assert_eq!(tasks_of_one_step(fine, 1), folded);
}

#[test]
fn vanilla_cell_matches_sequential_bitwise() {
    let cfg = config(CellKind::Vanilla, ModelKind::ManyToOne, MergeMode::Sum);
    let exec = TaskGraphExec::new(3);
    let (pdiff, ldiff) = train_and_diff(&exec, cfg, 3);
    assert_eq!(pdiff, 0.0);
    assert_eq!(ldiff, 0.0);
}

#[test]
fn vanilla_many_to_many_matches_with_mbs() {
    let cfg = config(CellKind::Vanilla, ModelKind::ManyToMany, MergeMode::Avg);
    let exec = TaskGraphExec::with_config(2, SchedulerPolicy::LocalityAware, 2);
    let (pdiff, ldiff) = train_and_diff(&exec, cfg, 2);
    assert!(pdiff < 1e-9, "param diff {pdiff}");
    assert!(ldiff < 1e-9, "loss diff {ldiff}");
}
