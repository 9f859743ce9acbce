//! Failure-injection tests: the runtime and executors must fail loudly
//! and recoverably, never hang or corrupt state.

use bpar_core::prelude::*;
use bpar_runtime::{FaultConfig, FaultPlan, RegionId, Runtime, RuntimeConfig};
use bpar_tensor::{init, Matrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn panicking_task_surfaces_at_taskwait() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });
    rt.spawn("ok", [], [RegionId(0)], || {});
    rt.spawn("bad", [RegionId(0)], [], || panic!("injected failure"));
    let err = rt.taskwait().unwrap_err();
    assert!(err.contains("injected failure"));
}

#[test]
fn runtime_remains_usable_after_repeated_panics() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });
    for round in 0..5 {
        rt.reset();
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 0..20u64 {
            let h = hits.clone();
            if i == 7 {
                rt.spawn("boom", [], [RegionId(i)], || panic!("round failure"));
            } else {
                rt.spawn("t", [], [RegionId(i)], move || {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert!(rt.taskwait().is_err(), "round {round}");
        // The panic poisons its wait epoch: tasks popped after it are
        // released but skipped (fail-fast), so anywhere from 0 to all 19
        // of the others may have run — none more than once.
        assert!(hits.load(Ordering::SeqCst) <= 19, "round {round}");
    }
    // The poison dies with each failed wait: a clean round runs fully.
    rt.reset();
    let hits = Arc::new(AtomicUsize::new(0));
    for i in 0..20u64 {
        let h = hits.clone();
        rt.spawn("t", [], [RegionId(i)], move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
    }
    rt.taskwait().unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 20);
}

#[test]
fn deep_dependency_chains_do_not_overflow_or_hang() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });
    let count = Arc::new(AtomicUsize::new(0));
    for _ in 0..20_000 {
        let c = count.clone();
        rt.spawn("t", [RegionId(0)], [RegionId(0)], move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
    }
    rt.taskwait().unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 20_000);
}

#[test]
fn wide_fanout_and_fanin() {
    // One producer, 500 readers, one WAR-blocked overwriter.
    let rt = Runtime::new(RuntimeConfig {
        workers: 4,
        ..Default::default()
    });
    let sum = Arc::new(AtomicUsize::new(0));
    rt.spawn("produce", [], [RegionId(0)], || {});
    for _ in 0..500 {
        let s = sum.clone();
        rt.spawn("read", [RegionId(0)], [], move || {
            s.fetch_add(1, Ordering::SeqCst);
        });
    }
    let s = sum.clone();
    rt.spawn("overwrite", [], [RegionId(0)], move || {
        assert_eq!(s.load(Ordering::SeqCst), 500, "WAR must wait for readers");
    });
    rt.taskwait().unwrap();
}

#[test]
#[should_panic(expected = "timestep 1 has inconsistent shape")]
fn ragged_batch_is_rejected() {
    let model: Brnn<f64> = Brnn::new(BrnnConfig::default(), 1);
    let xs = vec![
        Matrix::zeros(4, model.config.input_size),
        Matrix::zeros(3, model.config.input_size), // wrong row count
    ];
    SequentialExec::new().forward(&model, &xs);
}

#[test]
#[should_panic(expected = "empty batch")]
fn empty_batch_is_rejected() {
    let model: Brnn<f64> = Brnn::new(BrnnConfig::default(), 1);
    SequentialExec::new().forward(&model, &[]);
}

#[test]
fn mbs_larger_than_batch_degrades_gracefully() {
    // 3 rows with mbs:8 → 3 replicas of one row each; must still match
    // the sequential result.
    let cfg = BrnnConfig {
        input_size: 4,
        hidden_size: 6,
        layers: 2,
        seq_len: 4,
        output_size: 2,
        ..Default::default()
    };
    let xs: Vec<_> = (0..4)
        .map(|t| init::uniform(3, 4, -1.0, 1.0, t as u64))
        .collect();
    let target = Target::Classes(vec![0, 1, 0]);
    let exec = TaskGraphExec::with_config(2, bpar_runtime::SchedulerPolicy::LocalityAware, 8);
    let mut a: Brnn<f64> = Brnn::new(cfg, 1);
    let mut b: Brnn<f64> = Brnn::new(cfg, 1);
    let mut o1 = Sgd::new(0.1);
    let mut o2 = Sgd::new(0.1);
    let l1 = exec.train_batch(&mut a, &xs, &target, &mut o1);
    let l2 = SequentialExec::new().train_batch(&mut b, &xs, &target, &mut o2);
    assert!((l1 - l2).abs() < 1e-12);
    assert!(a.max_param_diff(&b) < 1e-12);
}

#[test]
fn executor_survives_task_spec_with_heavy_contention() {
    // Many tiny batches through one executor: stresses reset()/region
    // reuse and the condvar paths.
    let cfg = BrnnConfig {
        input_size: 3,
        hidden_size: 4,
        layers: 1,
        seq_len: 2,
        output_size: 2,
        ..Default::default()
    };
    let exec = TaskGraphExec::new(4);
    let mut model: Brnn<f64> = Brnn::new(cfg, 1);
    let mut opt = Sgd::new(0.01);
    for i in 0..50u64 {
        let xs: Vec<_> = (0..2)
            .map(|t| init::uniform(2, 3, -1.0, 1.0, i * 10 + t))
            .collect();
        let loss = exec.train_batch(&mut model, &xs, &Target::Classes(vec![0, 1]), &mut opt);
        assert!(loss.is_finite());
    }
}

/// A task panic in a barrier or a B-Seq batch comes back as an
/// `ExecError`, as the `Executor` docs promise, instead of unwinding the
/// caller; the failed training step leaves the model alone, and the batch
/// after the fault has the bits of a clean run.
#[test]
fn baseline_executors_return_task_panics_as_errors() {
    let cfg = BrnnConfig {
        input_size: 3,
        hidden_size: 4,
        layers: 2,
        seq_len: 3,
        output_size: 2,
        ..Default::default()
    };
    let xs: Vec<_> = (0..3)
        .map(|t| init::uniform(4, 3, -1.0, 1.0, t as u64))
        .collect();
    let target = Target::Classes(vec![0, 1, 1, 0]);
    let model: Brnn<f64> = Brnn::new(cfg, 5);
    let check = |exec: &dyn Executor<f64>, runtime: &Runtime, clean: &dyn Executor<f64>| {
        let want = clean.forward(&model, &xs).logits;
        let mut stepped = model.clone();
        let want_loss = clean.train_batch(&mut stepped, &xs, &target, &mut Sgd::new(0.1));

        let storm = FaultConfig {
            seed: 3,
            panic_rate: 1.0,
            ..FaultConfig::default()
        };
        runtime.set_fault_plan(Some(Arc::new(FaultPlan::new(storm))));
        let name = exec.name();
        assert!(exec.try_forward(&model, &xs).is_err(), "{name}");
        let mut failed = model.clone();
        let step = exec.try_train_batch(&mut failed, &xs, &target, &mut Sgd::new(0.1));
        assert!(step.is_err(), "{name}");
        assert_eq!(failed.max_param_diff(&model), 0.0, "{name}");

        runtime.set_fault_plan(None);
        let got = exec.try_forward(&model, &xs).expect("clean batch");
        assert_eq!(got.logits.max_abs_diff(&want), 0.0, "{name}");
        let loss = exec.try_train_batch(&mut failed, &xs, &target, &mut Sgd::new(0.1));
        assert_eq!(loss, Ok(want_loss), "{name}");
        assert_eq!(failed.max_param_diff(&stepped), 0.0, "{name}");
    };
    let barrier = BarrierExec::new(2);
    check(&barrier, barrier.runtime(), &BarrierExec::new(2));
    let bseq = BSeqExec::new(2, 2);
    check(&bseq, bseq.runtime(), &BSeqExec::new(2, 2));
}
