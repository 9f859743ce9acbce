//! Per-layer-barrier executor — the execution discipline of
//! Keras/TensorFlow and PyTorch that the paper identifies as the
//! bottleneck (§II):
//!
//! > "State-of-the-art deep learning frameworks apply per-layer barriers
//! > between forward and reverse order RNNs. […] these barrier
//! > synchronization points significantly undermine the parallel
//! > performance of BRNN workloads."
//!
//! This executor submits exactly the same tasks as
//! [`super::TaskGraphExec`], but inserts a `taskwait` after every layer
//! stage of the forward pass and every layer stage of the backward pass —
//! so cells of layer `l+1` can never overlap the tail of layer `l`, and
//! forward/reverse directions of different layers never pipeline. The
//! ablation benches compare it directly against barrier-free B-Par on the
//! same runtime, isolating the cost of the barriers themselves.

use super::builder::{task_spec, BodyConfig, LiveSink, RegionAlloc, ReplicaGraph};
use super::taskgraph::{collect_logits, TaskGraphExec};
use super::{Executor, ForwardOutput, Target};
use crate::emit::{Coarsen, Node, Stream};
use crate::model::Brnn;
use crate::optim::Optimizer;
use bpar_runtime::{Runtime, RuntimeConfig, SchedulerPolicy};
use bpar_tensor::{Backend, Float, Matrix};

/// Task executor with per-layer barriers (framework-style scheduling).
pub struct BarrierExec {
    runtime: Runtime,
    mbs: usize,
    /// Timesteps per task: [`Coarsen::Rule`] outside this crate's tests.
    coarsen: Coarsen,
}

impl BarrierExec {
    /// Barrier executor with `workers` threads and no data parallelism.
    pub fn new(workers: usize) -> Self {
        Self::with_config(workers, SchedulerPolicy::LocalityAware, 1)
    }

    /// Full configuration (see [`TaskGraphExec::with_config`]).
    pub fn with_config(workers: usize, policy: SchedulerPolicy, mbs: usize) -> Self {
        assert!(mbs >= 1, "mbs must be at least 1");
        Self {
            runtime: Runtime::new(RuntimeConfig {
                workers,
                policy,
                record_trace: true,
            }),
            mbs,
            coarsen: Coarsen::Rule,
        }
    }

    /// Pins the granularity instead of deriving it (see
    /// [`TaskGraphExec::with_coarsen`]).
    #[cfg(test)]
    pub(crate) fn with_coarsen(mut self, coarsen: Coarsen) -> Self {
        self.coarsen = coarsen;
        self
    }

    /// The underlying runtime (task statistics, trace records).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Submits one batch stage by stage — for every stage the tasks of all
    /// replicas, then a `taskwait`: the per-layer barrier. Layer `l+1`
    /// cells are not even created until every layer-`l` cell and merge has
    /// completed. Returns the replicas holding the results.
    fn run<T: Float>(
        &self,
        model: &Brnn<T>,
        batch: &[Matrix<T>],
        target: Option<&Target>,
    ) -> Vec<ReplicaGraph<T>> {
        self.runtime.reset();
        let mut regions = RegionAlloc::default();
        let train = target.is_some();
        let body = BodyConfig {
            backend: Backend::default(),
            strategy: crate::scanplan::RecurrenceStrategy::Chain,
            train,
            workers: self.runtime.workers(),
        };
        let (_weights, replicas, chunks) =
            TaskGraphExec::make_replicas(self.mbs, model, batch, &mut regions, body);
        if let Some(target) = target {
            for (rep, &(start, count)) in replicas.iter().zip(&chunks) {
                rep.set_target(target, start, count);
            }
        }
        let mut sink = LiveSink(&self.runtime);
        let mut run_stage = |stream: &Stream, nodes: &[Node]| {
            for node in nodes {
                sink.push(task_spec(&replicas, stream, node));
            }
        };
        let emitters = replicas.iter().enumerate().map(|(ri, rep)| rep.emitter(ri));
        let mut streams = vec![Stream::default(); replicas.len()];
        for (e, stream) in emitters.clone().zip(&mut streams) {
            e.replica(train, stream);
        }
        // The same tasks as B-Par means the same granularity: one `k` from
        // all replicas' cells, each stage folded within itself.
        self.coarsen.apply(&mut streams, batch.len());
        let mut staged: Vec<_> = streams.iter().map(|s| (s, s.stages())).collect();
        for _ in 0..streams[0].stages().count() {
            for (stream, stages) in &mut staged {
                run_stage(
                    stream,
                    stages.next().expect("replicas have equal stage counts"),
                );
            }
            self.runtime.taskwait().expect("task panicked");
        }
        if train {
            let mut reductions = Stream::default();
            emitters.skip(1).for_each(|e| e.reduce(&mut reductions));
            run_stage(&reductions, &reductions.nodes);
            self.runtime.taskwait().expect("task panicked");
        }
        replicas
    }
}

impl<T: Float> Executor<T> for BarrierExec {
    fn forward(&self, model: &Brnn<T>, batch: &[Matrix<T>]) -> ForwardOutput<T> {
        collect_logits(model, &self.run(model, batch, None))
    }

    fn train_batch(
        &self,
        model: &mut Brnn<T>,
        batch: &[Matrix<T>],
        target: &Target,
        opt: &mut dyn Optimizer<T>,
    ) -> f64 {
        let replicas = self.run(model, batch, Some(target));
        replicas[0].apply_grads(model, opt);
        replicas[0].loss()
    }

    fn name(&self) -> &'static str {
        "barrier"
    }
}
