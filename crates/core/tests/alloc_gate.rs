//! Steady-state allocation gate: a warm, replayed plan must run an entire
//! batch without touching the heap allocator once — an inference batch
//! (input copy-in, every cell/merge/dense task, logit collection) and a
//! training step (target copy-in, accumulator reset, weight re-sync,
//! forward, BPTT, reductions, the optimizer step) — under B-Par, under its
//! Blelloch-scan recurrence, and under the barrier and B-Seq baselines,
//! whose plans are replayed the same way.
//!
//! The whole file is compiled only with the `count-alloc` feature (the CI
//! `alloc-gate` job runs `cargo test -p bpar-core --features count-alloc
//! --test alloc_gate`): it installs [`bpar_tensor::CountingAlloc`] as the
//! process-wide global allocator, and a global counter cannot distinguish
//! threads, so everything is measured from a single `#[test]` to keep
//! concurrent tests from polluting the window.

#![cfg(feature = "count-alloc")]

use bpar_core::cell::CellKind;
use bpar_core::exec::{
    BSeqExec, BarrierExec, Executor, ForwardOutput, SequentialExec, Target, TaskGraphExec,
};
use bpar_core::graphgen::{Coarsen, GraphSpec};
use bpar_core::merge::MergeMode;
use bpar_core::model::{Brnn, BrnnConfig, ModelKind};
use bpar_core::optim::Sgd;
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
/// performs exactly zero heap allocations and that its logits are
/// bit-identical to the sequential reference (the `scalar` and `simd`
/// kernels agree bit for bit).
fn gate<T: Float>(cfg: BrnnConfig, seed: u64, backend: BackendKind) {
    for workers in [1, 2, 3] {
        gate_scheduled::<T>(
            cfg,
            seed,
            backend,
            SchedulerPolicy::LocalityAware,
            workers,
            4,
        );
    }
}

/// The gate under an explicit scheduler policy and worker count.
/// Work-stealing keeps its per-worker deques and injector warm across
/// replays (capacity is retained like the global queue's), so it must be
/// as allocation-free as the paper-parity policies — and bit-identical,
/// since any topological order produces the same logits.
fn gate_scheduled<T: Float>(
    cfg: BrnnConfig,
    seed: u64,
    backend: BackendKind,
    scheduler: SchedulerPolicy,
    workers: usize,
    rows: usize,
) {
    let model = Brnn::<T>::new(cfg, seed);
    let exec = TaskGraphExec::with_backend(workers, scheduler, 1, backend);
    let xs = batch::<T>(cfg.seq_len, rows, cfg.input_size, seed + 100);
    let mut out = ForwardOutput::zeros_for(&model, rows, cfg.seq_len);

    // Warmup: the first call builds and caches the plan (allocating its
    // arena) and sizes
    // every worker's scratch; a few more drain every lazily grown queue
    // and thread-local.
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
         for {:?}/{:?}/{:?} under the {backend} backend on {workers} workers",
        cfg.cell, cfg.merge, cfg.kind
    );

    // The allocation-free path must not have changed a single bit.
    let reference = SequentialExec.forward(&model, &xs);
    assert_eq!(out.logits.shape(), reference.logits.shape());
    assert_eq!(out.seq_logits.len(), reference.seq_logits.len());
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

/// Whether the plan builder folds both phases of a `rows`-row batch of
/// `cfg` (`k > 1`).
fn folds(cfg: BrnnConfig, rows: usize) -> bool {
    let k = |spec: GraphSpec| spec.with_coarsen(Coarsen::Rule).coarsen_factor();
    k(GraphSpec::inference(cfg, rows)) > 1 && k(GraphSpec::training(cfg, rows)) > 1
}

/// Per-position target classes for a `rows`-row batch of `cfg`.
fn target(cfg: BrnnConfig, rows: usize) -> Target {
    let classes = |salt: usize| (0..rows).map(|r| (r + salt) % cfg.output_size).collect();
    match cfg.kind {
        ModelKind::ManyToOne => Target::Classes(classes(1)),
        ModelKind::ManyToMany => Target::SeqClasses((0..cfg.seq_len).map(classes).collect()),
    }
}

/// The training gate: warm the training and the inference plan of one
/// batch shape, then assert that two more `try_train_batch` calls —
/// target copy-in, accumulator reset, in-place weight re-sync (every step
/// bumps the revision), forward, BPTT, reductions and the `Sgd` step — and
/// the inference batch right after them perform exactly zero heap
/// allocations. Both plans read one weight store under every backend
/// kind: the second step re-syncs it after the first, and the inference
/// replay re-syncs it once more, through its own plan, in place. Every
/// backend kind gives the sequential bits, so the steps must stay
/// bit-identical to `SequentialExec` stepping a twin model, and so must
/// the logits — or, with a non-zero `tol` (a scan plan), within `tol` of
/// them.
fn train_gate<T: Float>(exec: &TaskGraphExec, cfg: BrnnConfig, seed: u64, rows: usize, tol: f64) {
    let (backend, mbs, workers) = (exec.backend(), exec.mbs(), exec.runtime().workers());
    let mut model = Brnn::<T>::new(cfg, seed);
    let mut twin = model.clone();
    let xs = batch::<T>(cfg.seq_len, rows, cfg.input_size, seed + 100);
    let target = target(cfg, rows);
    let mut out = ForwardOutput::zeros_for(&model, rows, cfg.seq_len);
    let (mut opt, mut twin_opt) = (Sgd::new(0.05), Sgd::new(0.05));
    let mut round = |model: &mut Brnn<T>, out: &mut ForwardOutput<T>| {
        let losses = [(); 2].map(|_| exec.try_train_batch(model, &xs, &target, &mut opt).unwrap());
        exec.try_forward_into(model, &xs, out).unwrap();
        losses
    };
    for _ in 0..3 {
        round(&mut model, &mut out);
        for _ in 0..2 {
            SequentialExec.train_batch(&mut twin, &xs, &target, &mut twin_opt);
        }
    }

    let allocs_before = allocation_count();
    let bytes_before = bytes_allocated();
    let losses = round(&mut model, &mut out);
    let allocs = allocation_count() - allocs_before;
    let bytes = bytes_allocated() - bytes_before;
    assert_eq!(
        allocs,
        0,
        "two warm training steps and an inference batch allocated {allocs} times \
         ({bytes} bytes) for {:?}/{:?}/{:?} under the {backend} {} executor on \
         {workers} workers, mbs {mbs}",
        cfg.cell,
        cfg.merge,
        cfg.kind,
        Executor::<T>::name(exec)
    );

    if mbs == 1 {
        for loss in losses {
            let want = SequentialExec.train_batch(&mut twin, &xs, &target, &mut twin_opt);
            let same = if tol == 0.0 {
                loss.to_bits() == want.to_bits()
            } else {
                (loss - want).abs() <= tol
            };
            assert!(same, "loss {loss} diverges from sequential {want}");
        }
        let d = model.max_param_diff(&twin);
        assert!(d <= tol, "weights diverge from sequential by {d:e}");
    }
    let want = SequentialExec.forward(&model, &xs);
    let got = out.seq_logits.iter().chain([&out.logits]);
    for (g, w) in got.zip(want.seq_logits.iter().chain([&want.logits])) {
        let d = g.max_abs_diff(w);
        assert!(d <= tol, "logits diverge from sequential by {d:e}");
    }
}

/// The scan strategy's gate: a warm Blelloch-scan plan must replay with
/// zero allocations exactly like the chain, on 1–3 workers — an inference
/// batch, then the training round of [`train_gate`]: the up-sweep/down-sweep
/// tasks of both phases draw their chunk prefixes, combine scratch and
/// fix-up buffers from the cached plan's arena, and the gradient tasks
/// write their input gradients in place. The scan reassociates the
/// recurrence, so instead of the bit check the results must land within
/// the documented scan tolerance of the sequential reference
/// (`scan_parity.rs` header: forward 1e-10 for `f64`, 1e-4 for `f32`;
/// backward 1e-8 and 1e-2), the training round within the backward one.
fn gate_scan<T: Float>(
    cfg: BrnnConfig,
    seed: u64,
    backend: BackendKind,
    chunks: usize,
    (fwd_tol, bwd_tol): (f64, f64),
) {
    for workers in [1, 2, 3] {
        let model = Brnn::<T>::new(cfg, seed);
        let exec = TaskGraphExec::with_backend(workers, SchedulerPolicy::LocalityAware, 1, backend)
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
             for chunks={chunks} under the {backend} backend on {workers} workers"
        );

        let reference = SequentialExec.forward(&model, &xs);
        let d = out.logits.max_abs_diff(&reference.logits);
        assert!(d <= fwd_tol, "scan logits diverge from sequential by {d:e}");
        for (m, r) in out.seq_logits.iter().zip(&reference.seq_logits) {
            let d = m.max_abs_diff(r);
            assert!(d <= fwd_tol, "scan seq logits diverge by {d:e}");
        }

        train_gate::<T>(&exec, cfg, seed + 1, 4, bwd_tol);
    }
}

#[test]
fn warm_replays_allocate_nothing() {
    // All three cell kinds; concat exercises the widest merge buffers,
    // many-to-many exercises per-timestep dense/logit buffers, and the
    // GRU draws scratch from its worker's workspace on every step.
    gate::<f64>(
        config(CellKind::Lstm, MergeMode::Concat, ModelKind::ManyToOne),
        3,
        BackendKind::Scalar,
    );
    gate::<f64>(
        config(CellKind::Gru, MergeMode::Sum, ModelKind::ManyToMany),
        5,
        BackendKind::Scalar,
    );
    gate::<f64>(
        config(CellKind::Vanilla, MergeMode::Avg, ModelKind::ManyToOne),
        7,
        BackendKind::Scalar,
    );

    // Backends specialize only f32, so the `simd` gates run f32 models:
    // the zero-allocation guarantee must hold under every backend (the
    // SIMD GEMM's blocked tile loop draws nothing from the allocator).
    for cell in [CellKind::Lstm, CellKind::Gru, CellKind::Vanilla] {
        gate::<f32>(
            config(cell, MergeMode::Concat, ModelKind::ManyToMany),
            11,
            BackendKind::Simd,
        );
    }

    // Folded plans: with h = 2 the plan builder puts several timesteps in
    // each task (`emit::coarsen`), a run of cells as one chain body whose
    // steps were resolved once with the plan, so the warm replay still
    // touches no allocator, under every backend.
    let fine = BrnnConfig {
        input_size: 2,
        hidden_size: 2,
        ..config(CellKind::Gru, MergeMode::Sum, ModelKind::ManyToMany)
    };
    assert!(
        folds(fine, 4),
        "the gate's fine-grained shape is not folded"
    );
    gate::<f64>(fine, 23, BackendKind::Scalar);
    gate::<f32>(fine, 23, BackendKind::Scalar);
    gate::<f32>(fine, 29, BackendKind::Simd);
    // The `fine_grain` benchmark's shape: one row of a long many-to-many
    // GRU sequence at h = 2, every plan folded by k > 1.
    let fine_grain = BrnnConfig {
        input_size: 2,
        hidden_size: 2,
        seq_len: 18,
        ..config(CellKind::Gru, MergeMode::Sum, ModelKind::ManyToMany)
    };
    assert!(folds(fine_grain, 1), "the fine_grain shape is not folded");
    for backend in BackendKind::all() {
        for workers in [1, 2, 3] {
            let scheduler = SchedulerPolicy::LocalityAware;
            gate_scheduled::<f32>(fine_grain, 37, backend, scheduler, workers, 1);
        }
    }

    // The work-stealing scheduler must preserve the zero-allocation warm
    // path: deques and injector retain capacity across replays exactly
    // like the global queue, and direct handoff touches no queue at all.
    gate_scheduled::<f64>(
        config(CellKind::Lstm, MergeMode::Concat, ModelKind::ManyToOne),
        3,
        BackendKind::Scalar,
        SchedulerPolicy::WorkStealing,
        2,
        4,
    );
    gate_scheduled::<f32>(
        config(CellKind::Gru, MergeMode::Sum, ModelKind::ManyToMany),
        11,
        BackendKind::Simd,
        SchedulerPolicy::WorkStealing,
        3,
        4,
    );

    // The Blelloch scan strategy over the diagonal linear cell: three
    // chunks of two timesteps exercise every scan task kind (local
    // sweeps, combine tree, fix-up wave, and in training the adjoint
    // sweeps and gradient tasks) through the warm path on both element
    // widths.
    gate_scan::<f64>(
        config(CellKind::Linear, MergeMode::Concat, ModelKind::ManyToMany),
        17,
        BackendKind::Scalar,
        3,
        (1e-10, 1e-8),
    );
    gate_scan::<f32>(
        config(CellKind::Linear, MergeMode::Sum, ModelKind::ManyToMany),
        19,
        BackendKind::Simd,
        3,
        (1e-4, 1e-2),
    );

    // Training: every cell kind under every backend kind's executor and on
    // 1–3 workers;
    // many-to-one leaves most top-layer `dh` slots unwritten, `mbs` 2
    // adds the cross-replica reductions, the h = 2 shapes are folded.
    let bpar = |workers, backend, mbs| {
        TaskGraphExec::with_backend(workers, SchedulerPolicy::LocalityAware, mbs, backend)
    };
    for workers in [1, 2, 3] {
        for backend in BackendKind::all() {
            for cell in [CellKind::Lstm, CellKind::Gru, CellKind::Vanilla] {
                let cfg = config(cell, MergeMode::Concat, ModelKind::ManyToOne);
                train_gate::<f32>(&bpar(workers, backend, 1), cfg, 41, 4, 0.0);
            }
            train_gate::<f32>(&bpar(workers, backend, 1), fine_grain, 53, 1, 0.0);
        }
        let cfg = config(CellKind::Lstm, MergeMode::Mul, ModelKind::ManyToMany);
        train_gate::<f64>(&bpar(workers, BackendKind::Scalar, 2), cfg, 43, 4, 0.0);
        train_gate::<f32>(&bpar(workers, BackendKind::Simd, 1), fine, 47, 4, 0.0);

        // The baselines are plans too: barrier tokens, B-Seq's one task
        // per replica and its reductions replay as allocation-free as
        // B-Par, on the portable loops (`f64`) and the dispatched `simd`
        // kernels (`f32`), folded or not, with one replica or two.
        for mbs in [1, 2] {
            let policy = SchedulerPolicy::LocalityAware;
            for exec in [
                BarrierExec::with_config(workers, policy, mbs),
                BSeqExec::new(workers, mbs),
            ] {
                let cfg = config(CellKind::Lstm, MergeMode::Concat, ModelKind::ManyToOne);
                train_gate::<f64>(&exec, cfg, 59, 4, 0.0);
                let cfg = config(CellKind::Gru, MergeMode::Sum, ModelKind::ManyToMany);
                train_gate::<f32>(&exec, cfg, 61, 4, 0.0);
                train_gate::<f32>(&exec, fine, 67, 4, 0.0);
            }
        }
    }
}
