//! Steady-state allocation gate: a warm, replayed inference plan must run
//! an entire batch — input copy-in, every cell/merge/dense task, logit
//! collection — without touching the heap allocator once.
//!
//! The whole file is compiled only with the `count-alloc` feature (the CI
//! `alloc-gate` job runs `cargo test -p bpar-core --features count-alloc
//! --test alloc_gate`): it installs [`bpar_tensor::CountingAlloc`] as the
//! process-wide global allocator, and a global counter cannot distinguish
//! threads, so everything is measured from a single `#[test]` to keep
//! concurrent tests from polluting the window.

#![cfg(feature = "count-alloc")]

use bpar_core::cell::CellKind;
use bpar_core::exec::{Executor, ForwardOutput, SequentialExec, TaskGraphExec};
use bpar_core::graphgen::{Coarsen, GraphSpec};
use bpar_core::merge::MergeMode;
use bpar_core::model::{Brnn, BrnnConfig, ModelKind};
use bpar_core::scanplan::RecurrenceStrategy;
use bpar_runtime::SchedulerPolicy;
use bpar_tensor::alloc_track::{allocation_count, bytes_allocated};
use bpar_tensor::{init, BackendKind, Float, Matrix};

#[global_allocator]
static ALLOC: bpar_tensor::CountingAlloc = bpar_tensor::CountingAlloc;

fn batch<T: Float>(seq: usize, rows: usize, input: usize, seed: u64) -> Vec<Matrix<T>> {
    (0..seq)
        .map(|t| init::uniform(rows, input, -1.0, 1.0, seed + t as u64))
        .collect()
}

fn config(cell: CellKind, merge: MergeMode, kind: ModelKind) -> BrnnConfig {
    BrnnConfig {
        cell,
        input_size: 5,
        hidden_size: 8,
        layers: 2,
        seq_len: 6,
        output_size: 4,
        merge,
        kind,
    }
}

/// One shape's gate: warm the plan, then assert a further replayed batch
/// performs exactly zero heap allocations.
///
/// When `check_bits` is set the logits must additionally be bit-identical
/// to the sequential reference — valid for the `scalar` and `simd`
/// backends, whose kernels agree bit for bit. The int8 backend
/// carries a quantization tolerance instead (covered by the
/// `backend_parity` suite), so its gate checks allocations and shape only.
fn gate<T: Float>(cfg: BrnnConfig, seed: u64, backend: BackendKind, check_bits: bool) {
    gate_scheduled::<T>(
        cfg,
        seed,
        backend,
        check_bits,
        SchedulerPolicy::LocalityAware,
    );
}

/// The gate under an explicit scheduler policy. Work-stealing keeps its
/// per-worker deques and injector warm across replays (capacity is
/// retained like the global queue's), so it must be as allocation-free as
/// the paper-parity policies — and bit-identical, since any topological
/// order produces the same logits.
fn gate_scheduled<T: Float>(
    cfg: BrnnConfig,
    seed: u64,
    backend: BackendKind,
    check_bits: bool,
    scheduler: SchedulerPolicy,
) {
    let model = Brnn::<T>::new(cfg, seed);
    let exec = TaskGraphExec::with_backend(2, scheduler, 1, backend);
    let xs = batch::<T>(cfg.seq_len, 4, cfg.input_size, seed + 100);
    let mut out = ForwardOutput::zeros_for(&model, 4, cfg.seq_len);

    // Warmup: the first call builds and caches the plan (allocating its
    // arena; the int8 plan also quantizes its weight snapshot and grows
    // per-task quantization scratch); a few more drain every lazily grown
    // queue and thread-local.
    for _ in 0..5 {
        exec.try_forward_into(&model, &xs, &mut out).unwrap();
    }

    let allocs_before = allocation_count();
    let bytes_before = bytes_allocated();
    exec.try_forward_into(&model, &xs, &mut out).unwrap();
    let allocs = allocation_count() - allocs_before;
    let bytes = bytes_allocated() - bytes_before;
    assert_eq!(
        allocs, 0,
        "warm replayed inference batch allocated {allocs} times ({bytes} bytes) \
         for {:?}/{:?}/{:?} under the {backend} backend",
        cfg.cell, cfg.merge, cfg.kind
    );

    // The allocation-free path must not have changed a single bit.
    let reference = SequentialExec.forward(&model, &xs);
    assert_eq!(out.logits.shape(), reference.logits.shape());
    assert_eq!(out.seq_logits.len(), reference.seq_logits.len());
    if !check_bits {
        return;
    }
    // Exact `==` equality; finite logits make this equivalent to the bit
    // check the f64-only version of this gate used to perform.
    for (a, b) in out
        .logits
        .as_slice()
        .iter()
        .zip(reference.logits.as_slice())
    {
        assert!(a == b, "logits diverge from sequential");
    }
    for (m, r) in out.seq_logits.iter().zip(&reference.seq_logits) {
        for (a, b) in m.as_slice().iter().zip(r.as_slice()) {
            assert!(a == b, "seq logits diverge");
        }
    }
}

/// The scan strategy's gate: a warm Blelloch-scan plan must replay with
/// zero allocations exactly like the chain — the up-sweep/down-sweep
/// tasks draw their chunk prefixes, combine scratch and fix-up buffers
/// from the cached plan's arena. The scan reassociates the recurrence,
/// so instead of the bit check the logits must land within the
/// documented scan tolerance of the sequential reference
/// (`scan_parity.rs` header: 1e-10 for `f64`, 1e-4 for `f32`).
fn gate_scan<T: Float>(cfg: BrnnConfig, seed: u64, backend: BackendKind, chunks: usize, tol: f64) {
    let model = Brnn::<T>::new(cfg, seed);
    let exec = TaskGraphExec::with_backend(2, SchedulerPolicy::LocalityAware, 1, backend)
        .with_strategy(RecurrenceStrategy::Scan { chunks });
    let xs = batch::<T>(cfg.seq_len, 4, cfg.input_size, seed + 100);
    let mut out = ForwardOutput::zeros_for(&model, 4, cfg.seq_len);
    for _ in 0..5 {
        exec.try_forward_into(&model, &xs, &mut out).unwrap();
    }

    let allocs_before = allocation_count();
    let bytes_before = bytes_allocated();
    exec.try_forward_into(&model, &xs, &mut out).unwrap();
    let allocs = allocation_count() - allocs_before;
    let bytes = bytes_allocated() - bytes_before;
    assert_eq!(
        allocs, 0,
        "warm replayed scan batch allocated {allocs} times ({bytes} bytes) \
         for chunks={chunks} under the {backend} backend"
    );

    let reference = SequentialExec.forward(&model, &xs);
    let d = out.logits.max_abs_diff(&reference.logits);
    assert!(d <= tol, "scan logits diverge from sequential by {d:e}");
    for (m, r) in out.seq_logits.iter().zip(&reference.seq_logits) {
        let d = m.max_abs_diff(r);
        assert!(d <= tol, "scan seq logits diverge by {d:e}");
    }
}

#[test]
fn warm_replayed_inference_batches_allocate_nothing() {
    // All three cell kinds; concat exercises the widest merge buffers,
    // many-to-many exercises per-timestep dense/logit buffers, and the
    // GRU draws per-task scratch from its workspace on every step.
    gate::<f64>(
        config(CellKind::Lstm, MergeMode::Concat, ModelKind::ManyToOne),
        3,
        BackendKind::Scalar,
        true,
    );
    gate::<f64>(
        config(CellKind::Gru, MergeMode::Sum, ModelKind::ManyToMany),
        5,
        BackendKind::Scalar,
        true,
    );
    gate::<f64>(
        config(CellKind::Vanilla, MergeMode::Avg, ModelKind::ManyToOne),
        7,
        BackendKind::Scalar,
        true,
    );

    // Non-scalar backends specialize only f32, so their gates run f32
    // models: the zero-allocation guarantee must hold under every backend
    // (the SIMD GEMM's blocked tile loop and the int8 path's quantization
    // scratch both draw from the pooled per-task workspace).
    for cell in [CellKind::Lstm, CellKind::Gru, CellKind::Vanilla] {
        gate::<f32>(
            config(cell, MergeMode::Concat, ModelKind::ManyToMany),
            11,
            BackendKind::Simd,
            true,
        );
        gate::<f32>(
            config(cell, MergeMode::Concat, ModelKind::ManyToMany),
            13,
            BackendKind::Int8,
            false,
        );
    }

    // Folded plans: with h = 2 the plan builder puts several timesteps in
    // each task (`emit::coarsen`), whose body walks a list of its members'
    // bodies — built once with the plan, so the warm replay still touches
    // no allocator, under every backend.
    let fine = BrnnConfig {
        input_size: 2,
        hidden_size: 2,
        ..config(CellKind::Gru, MergeMode::Sum, ModelKind::ManyToMany)
    };
    let k = GraphSpec::inference(fine, 4)
        .with_coarsen(Coarsen::Rule)
        .coarsen_factor();
    assert!(k > 1, "the gate's fine-grained shape is not folded");
    gate::<f64>(fine, 23, BackendKind::Scalar, true);
    gate::<f32>(fine, 23, BackendKind::Scalar, true);
    gate::<f32>(fine, 29, BackendKind::Simd, true);
    gate::<f32>(fine, 31, BackendKind::Int8, false);

    // The work-stealing scheduler must preserve the zero-allocation warm
    // path: deques and injector retain capacity across replays exactly
    // like the global queue, and direct handoff touches no queue at all.
    gate_scheduled::<f64>(
        config(CellKind::Lstm, MergeMode::Concat, ModelKind::ManyToOne),
        3,
        BackendKind::Scalar,
        true,
        SchedulerPolicy::WorkStealing,
    );
    gate_scheduled::<f32>(
        config(CellKind::Gru, MergeMode::Sum, ModelKind::ManyToMany),
        11,
        BackendKind::Simd,
        true,
        SchedulerPolicy::WorkStealing,
    );

    // The Blelloch scan strategy over the diagonal linear cell: three
    // chunks of two timesteps exercise every scan task kind (local
    // sweeps, combine tree, fix-up wave) through the warm path on both
    // element widths.
    gate_scan::<f64>(
        config(CellKind::Linear, MergeMode::Concat, ModelKind::ManyToMany),
        17,
        BackendKind::Scalar,
        3,
        1e-10,
    );
    gate_scan::<f32>(
        config(CellKind::Linear, MergeMode::Sum, ModelKind::ManyToMany),
        19,
        BackendKind::Simd,
        3,
        1e-4,
    );
}
