//! The B-Par executor: barrier-free task-graph execution.
//!
//! Every RNN cell update, merge, classifier/loss evaluation, backward cell
//! update and gradient reduction is one task with explicit `in`/`out`
//! dependency clauses. The entire training batch — forward propagation,
//! backward propagation, and mini-batch gradient reduction — is submitted
//! as **one dependency graph** with a single `taskwait` at the end; no
//! barrier ever separates network layers or directions (§III).
//!
//! With `mbs > 1` the batch is split into `mbs` mini-batches processed as
//! independent replicas of the graph whose gradients are combined by
//! dedicated reduction tasks (§III-B data parallelism). `mbs = 1` is pure
//! model parallelism and produces bit-identical results to
//! [`super::SequentialExec`].
//!
//! # Cached execution plans
//!
//! Every batch runs through a cached [`ExecPlan`]: the first batch of a
//! given shape (model config × rows × timesteps × mbs × phase) builds the
//! replica graphs and compiles the dependency structure once; subsequent
//! batches of that shape only swap inputs/targets into the existing
//! replicas and [`bpar_runtime::Runtime::replay`] the frozen graph. The
//! weights live once per tenant and backend kind, not once per plan: every
//! plan of a tenant reads one persistent [`WeightStore`], seeded by the
//! first and synced before each replay. In steady-state serving this
//! removes both per-batch costs the original implementation paid: the
//! `O(model)` weight clone and the dependency-tracker rebuild. Because
//! *every* batch — including the first — executes via the same
//! load-values-then-replay path, cached replays are bit-identical to fresh
//! builds by construction.
//!
//! A plan keeps every slot's buffer between batches (its arena) and every
//! body writes in place, so a warm batch — inference or training step,
//! weight re-sync and optimizer update included — allocates nothing.
//!
//! # The baselines are plans too
//!
//! The paper's baselines differ from B-Par only in schedule, so they are
//! the same executor with another `emit::Discipline`, fixed by their
//! constructors ([`BarrierExec`], [`BSeqExec`]): a stream transform applied
//! to every replica of the emitted graph before the plan is compiled. The
//! plans are cached, replayed, and fail, like B-Par's.

use super::builder::{BodyConfig, RegionAlloc, ReplicaGraph, WeightStore};
use super::plan::{ExecPlan, PlanCache, PlanCacheStats, PlanKey};
use super::{check_batch, ExecError, Executor, ForwardOutput, Target};
use crate::emit::{Coarsen, Discipline};
use crate::model::{Brnn, ModelKind};
use crate::optim::Optimizer;
use crate::scanplan::RecurrenceStrategy;
use bpar_runtime::{Runtime, RuntimeConfig, SchedulerPolicy};
use bpar_tensor::{Backend, BackendKind, Float, Matrix};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Barrier-free task-graph executor (B-Par).
pub struct TaskGraphExec {
    runtime: Runtime,
    mbs: usize,
    backend: BackendKind,
    strategy: RecurrenceStrategy,
    /// Timesteps per task: [`Coarsen::Rule`] outside this crate's tests.
    coarsen: Coarsen,
    /// The schedule, fixed by the constructor.
    discipline: Discipline,
    plans: Mutex<PlanCache>,
}

impl TaskGraphExec {
    /// B-Par with `workers` worker threads (`0` = available parallelism),
    /// the locality-aware scheduler, and no data parallelism (`mbs = 1`).
    pub fn new(workers: usize) -> Self {
        Self::with_config(workers, SchedulerPolicy::LocalityAware, 1)
    }

    /// Full configuration: worker count, scheduling policy, and the number
    /// of mini-batch replicas (`mbs:N` in the paper's figures). Kernels
    /// run on the default backend.
    pub fn with_config(workers: usize, policy: SchedulerPolicy, mbs: usize) -> Self {
        Self::with_backend(workers, policy, mbs, BackendKind::default())
    }

    /// [`TaskGraphExec::with_config`] plus an explicit kernel backend.
    /// The backend is an inference choice: inference plans dispatch their
    /// forward kernels through `backend`; a training plan runs wholly on
    /// the dispatched f32 kernels (the free functions, i.e. the default
    /// backend) whatever the kind — they are bit-identical to `scalar`'s
    /// portable loops, so the choice never moves a gradient's bits.
    pub fn with_backend(
        workers: usize,
        policy: SchedulerPolicy,
        mbs: usize,
        backend: BackendKind,
    ) -> Self {
        assert!(mbs >= 1, "mbs must be at least 1");
        Self {
            runtime: Runtime::new(RuntimeConfig {
                workers,
                policy,
                record_trace: true,
            }),
            mbs,
            backend,
            strategy: RecurrenceStrategy::Chain,
            coarsen: Coarsen::Rule,
            discipline: Discipline::BPar,
            plans: Mutex::new(PlanCache::default()),
        }
    }

    /// Pins the granularity instead of deriving it, so the parity tests
    /// can sweep `k` on one shape.
    #[cfg(test)]
    pub(crate) fn with_coarsen(mut self, coarsen: Coarsen) -> Self {
        self.coarsen = coarsen;
        self
    }

    /// Selects how timestep recurrences execute
    /// ([`RecurrenceStrategy::Chain`] by default). Scan requests fall back
    /// to chain per plan when the model's cell is not scannable (see
    /// [`RecurrenceStrategy::effective`]); plans are cached under the
    /// *effective* strategy, so the fallback shares the chain plan.
    pub fn with_strategy(mut self, strategy: RecurrenceStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The configured (requested, pre-fallback) recurrence strategy.
    pub fn strategy(&self) -> RecurrenceStrategy {
        self.strategy
    }

    /// The underlying runtime (task statistics, trace records).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Number of mini-batch replicas.
    pub fn mbs(&self) -> usize {
        self.mbs
    }

    /// The kernel backend inference plans are built with.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The backend a plan of the given phase dispatches through: the
    /// configured backend for inference, the dispatched exact kernels for
    /// training (see [`TaskGraphExec::with_backend`]).
    fn plan_backend(&self, train: bool) -> Backend {
        if train {
            Backend::default()
        } else {
            Backend::of(self.backend)
        }
    }

    /// Plan-cache counters: hits, misses, weight deep copies, build vs
    /// replay time, resident arena and weight bytes.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.lock().stats()
    }

    /// Bounds the number of resident compiled plans (default 32).
    pub fn set_plan_capacity(&self, capacity: usize) {
        self.plans.lock().set_capacity(capacity);
    }

    /// Caps the summed resident plan-arena bytes (`None` = unlimited).
    /// With many tenants resident this is the global LRU byte budget:
    /// after every plan build, least-recently-used plans — typically idle
    /// tenants' — are evicted until the budget holds (counted as
    /// `PlanCacheStats::budget_evictions`).
    pub fn set_plan_byte_budget(&self, budget: Option<u64>) {
        self.plans.lock().set_byte_budget(budget);
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear_plan_cache(&self) {
        self.plans.lock().clear();
    }

    /// Splits a batch row-wise into up to `mbs` non-empty chunks and
    /// builds one replica graph per chunk, all reading `weights`. Returns
    /// the replicas and the `(start, count)` row ranges.
    pub(crate) fn make_replicas<T: Float>(
        mbs: usize,
        weights: &Arc<WeightStore<T>>,
        batch: &[Matrix<T>],
        regions: &mut RegionAlloc,
        body: BodyConfig,
    ) -> (Vec<ReplicaGraph<T>>, Vec<(usize, usize)>) {
        let (_, rows) = check_batch(&weights.snapshot(), batch);
        let chunks = row_chunks(rows, mbs);
        let replicas = chunks
            .iter()
            .map(|&(start, count)| {
                let xs: Vec<Matrix<T>> = batch.iter().map(|x| x.row_block(start, count)).collect();
                ReplicaGraph::new(
                    weights.clone(),
                    xs,
                    count as f64 / rows as f64,
                    regions,
                    body,
                )
            })
            .collect();
        (replicas, chunks)
    }

    /// Fetches (or builds and caches) the plan for `batch`'s shape under
    /// `tenant`'s key (single-tenant callers pass 0).
    fn plan_for<T: Float>(
        &self,
        tenant: u64,
        model: &Brnn<T>,
        batch: &[Matrix<T>],
        train: bool,
    ) -> (Arc<ExecPlan<T>>, PlanKey) {
        let (seq, rows) = check_batch(model, batch);
        let backend = self.plan_backend(train);
        // Cache under the *effective* strategy: a scan request on a
        // non-scannable cell shares the chain plan instead of building a
        // duplicate under a distinct key.
        let strategy = self.strategy.effective(model.config.cell, seq);
        let key = PlanKey {
            tenant,
            config: model.config,
            rows,
            seq,
            mbs: self.mbs,
            train,
            backend: backend.kind(),
            strategy,
            discipline: self.discipline,
        };
        let mut cache = self.plans.lock();
        if let Some(plan) = cache.get::<T>(&key) {
            return (plan, key);
        }
        let t0 = Instant::now();
        let weights = cache.store(tenant, model);
        drop(cache);
        // Build outside the lock: plan construction is the expensive path
        // and the serve loop may poll stats from another thread.
        let body = BodyConfig {
            backend,
            strategy,
            train,
            workers: self.runtime.workers(),
        };
        let plan = Arc::new(ExecPlan::build(
            weights,
            batch,
            self.mbs,
            None,
            body,
            self.coarsen,
            self.discipline,
        ));
        let build_ns = t0.elapsed().as_nanos() as u64;
        let mut cache = self.plans.lock();
        cache.counters.build_ns += build_ns;
        // Another caller may have missed on the same key meanwhile and
        // cached its build first: keep that one, so a key never holds two
        // entries (and their arena bytes and misses).
        if let Some(first) = cache.get::<T>(&key) {
            return (first, key);
        }
        cache.insert(key.clone(), plan.clone());
        (plan, key)
    }

    /// Syncs weights, replays the compiled graph and waits for it.
    /// On a task panic the plan is evicted — its slots may hold partial
    /// values no later replay must observe — and the error is surfaced.
    fn run_plan<T: Float>(
        &self,
        model: &Brnn<T>,
        plan: &ExecPlan<T>,
        key: &PlanKey,
    ) -> Result<(), ExecError> {
        if plan.weights.sync(model) {
            self.plans.lock().counters.weight_syncs += 1;
        }
        // The runtime measures re-submission under its own lock, so the
        // figure is unpolluted by worker threads starting the batch.
        let replay = self.runtime.replay(&plan.compiled);
        self.plans.lock().counters.replay_ns += replay.as_nanos() as u64;
        self.runtime.taskwait().map_err(|msg| {
            self.plans.lock().evict::<T>(key);
            ExecError(msg)
        })?;
        // The first replay that ran every body (a claimed cancel token
        // skips some) sizes every worker's scratch for all of them.
        if !plan.scratch_sized.load(Ordering::Relaxed) && !self.runtime.cancel_claimed() {
            plan.size_scratch();
        }
        Ok(())
    }

    /// Tenant-keyed counterpart of
    /// [`Executor::try_forward_into`]: identical execution, but the plan
    /// and the weight store it reads are keyed by `tenant`, so
    /// alternating tenants with identical shapes each keep their own
    /// resident plan and snapshot instead of thrashing deep copies
    /// through shared ones. `model` must be `tenant`'s model.
    pub fn try_forward_into_keyed<T: Float>(
        &self,
        tenant: u64,
        model: &Brnn<T>,
        batch: &[Matrix<T>],
        out: &mut ForwardOutput<T>,
    ) -> Result<(), ExecError> {
        let (plan, key) = self.plan_for(tenant, model, batch, false);
        plan.load_batch(model, batch);
        self.run_plan(model, &plan, &key)?;
        // A claimed cancel token means the epoch skipped bodies and the
        // logit slots may be empty; the caller reports the copy as
        // cancelled and must not read `out`. The plan stays valid — the
        // next replay overwrites every forward slot.
        if !self.runtime.cancel_claimed() {
            collect_logits_into(model, &plan.replicas, &plan.chunks, out);
        }
        Ok(())
    }
}

/// Row ranges `(start, count)` splitting `rows` into at most `mbs` chunks.
pub(crate) fn row_chunks(rows: usize, mbs: usize) -> Vec<(usize, usize)> {
    let n = mbs.min(rows).max(1);
    let base = rows / n;
    let rem = rows % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let count = base + usize::from(i < rem);
        out.push((start, count));
        start += count;
    }
    out
}

impl<T: Float> Executor<T> for TaskGraphExec {
    fn forward(&self, model: &Brnn<T>, batch: &[Matrix<T>]) -> ForwardOutput<T> {
        self.try_forward(model, batch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_forward(
        &self,
        model: &Brnn<T>,
        batch: &[Matrix<T>],
    ) -> Result<ForwardOutput<T>, ExecError> {
        let (plan, key) = self.plan_for(0, model, batch, false);
        plan.load_batch(model, batch);
        self.run_plan(model, &plan, &key)?;
        Ok(collect_logits(model, &plan.replicas))
    }

    fn try_forward_into(
        &self,
        model: &Brnn<T>,
        batch: &[Matrix<T>],
        out: &mut ForwardOutput<T>,
    ) -> Result<(), ExecError> {
        let (plan, key) = self.plan_for(0, model, batch, false);
        plan.load_batch(model, batch);
        self.run_plan(model, &plan, &key)?;
        collect_logits_into(model, &plan.replicas, &plan.chunks, out);
        Ok(())
    }

    fn train_batch(
        &self,
        model: &mut Brnn<T>,
        batch: &[Matrix<T>],
        target: &Target,
        opt: &mut dyn Optimizer<T>,
    ) -> f64 {
        self.try_train_batch(model, batch, target, opt)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_train_batch(
        &self,
        model: &mut Brnn<T>,
        batch: &[Matrix<T>],
        target: &Target,
        opt: &mut dyn Optimizer<T>,
    ) -> Result<f64, ExecError> {
        let (plan, key) = self.plan_for(0, model, batch, true);
        plan.load_batch(model, batch);
        plan.load_target(target);
        self.run_plan(model, &plan, &key)?;
        // Bumps the model's revision, so the next run re-syncs weights.
        plan.replicas[0].apply_grads(model, opt);
        Ok(plan.replicas[0].loss())
    }

    fn name(&self) -> &'static str {
        self.discipline.name()
    }
}

/// The per-layer-barrier executor — the execution discipline of
/// Keras/TensorFlow and PyTorch that the paper identifies as the
/// bottleneck (§II):
///
/// > "State-of-the-art deep learning frameworks apply per-layer barriers
/// > between forward and reverse order RNNs. […] these barrier
/// > synchronization points significantly undermine the parallel
/// > performance of BRNN workloads."
///
/// A [`TaskGraphExec`] whose plans hold B-Par's tasks plus barrier tasks:
/// in each layer, forward and backward pass alike, the reverse direction
/// waits for the whole forward direction and the next layer for every
/// merge — the graph the simulator runs for Fig. 6/7
/// ([`crate::graphgen::GraphSpec::with_barriers`]). Everything else is
/// B-Par's, cached plans included, so comparing the two isolates the cost
/// of the barriers themselves.
pub enum BarrierExec {}

// Not a type of its own: the constructors of one `TaskGraphExec` discipline.
#[allow(clippy::new_ret_no_self)]
impl BarrierExec {
    /// Barrier executor with `workers` threads and no data parallelism.
    pub fn new(workers: usize) -> TaskGraphExec {
        Self::with_config(workers, SchedulerPolicy::LocalityAware, 1)
    }

    /// Full configuration (see [`TaskGraphExec::with_config`]).
    pub fn with_config(workers: usize, policy: SchedulerPolicy, mbs: usize) -> TaskGraphExec {
        TaskGraphExec {
            discipline: Discipline::Barrier,
            ..TaskGraphExec::with_config(workers, policy, mbs)
        }
    }
}

/// B-Seq, the paper's data-parallelism-only baseline (§IV-A):
///
/// > "B-Seq splits batches into mini-batches that are processed in
/// > parallel. B-Seq only relies on data parallelism and processes each
/// > minibatch sequentially."
///
/// A [`TaskGraphExec`] whose plans fold each mini-batch replica into one
/// task that runs the replica's whole graph in order; the gradient
/// reductions stay tasks of their own. At most `mbs` tasks are ever ready
/// at once — why B-Seq stops scaling past `mbs` cores in Fig. 4 while
/// B-Par keeps scaling through model parallelism.
pub enum BSeqExec {}

// Not a type of its own: the constructor of one `TaskGraphExec` discipline.
#[allow(clippy::new_ret_no_self)]
impl BSeqExec {
    /// B-Seq with `workers` threads and `mbs` mini-batches.
    pub fn new(workers: usize, mbs: usize) -> TaskGraphExec {
        TaskGraphExec {
            discipline: Discipline::BSeq,
            ..TaskGraphExec::with_config(workers, SchedulerPolicy::Fifo, mbs)
        }
    }
}

/// Reassembles per-replica logits into freshly allocated full-batch
/// outputs. Reads the logit slots without consuming them, so a cached
/// plan's persistent buffers survive collection.
pub(crate) fn collect_logits<T: Float>(
    model: &Brnn<T>,
    replicas: &[ReplicaGraph<T>],
) -> ForwardOutput<T> {
    fn stacked<T: Float>(replicas: &[ReplicaGraph<T>], i: usize) -> Matrix<T> {
        let parts: Vec<Matrix<T>> = replicas
            .iter()
            .map(|r| r.logits[i].with(|m| m.expect("missing logits").clone()))
            .collect();
        let refs: Vec<&Matrix<T>> = parts.iter().collect();
        Matrix::vstack(&refs)
    }
    match model.config.kind {
        ModelKind::ManyToOne => ForwardOutput {
            logits: stacked(replicas, 0),
            seq_logits: Vec::new(),
        },
        ModelKind::ManyToMany => {
            let seq = replicas[0].logits.len();
            let seq_logits: Vec<Matrix<T>> = (0..seq).map(|t| stacked(replicas, t)).collect();
            ForwardOutput {
                logits: seq_logits.last().unwrap().clone(),
                seq_logits,
            }
        }
    }
}

/// Allocation-free counterpart of [`collect_logits`]: copies each
/// replica's logits into its `(start, count)` row range of the
/// caller-provided, pre-shaped output (see [`ForwardOutput::zeros_for`]).
/// Values are bit-identical to the allocating path — both are plain row
/// copies of the same per-replica matrices.
pub(crate) fn collect_logits_into<T: Float>(
    model: &Brnn<T>,
    replicas: &[ReplicaGraph<T>],
    chunks: &[(usize, usize)],
    out: &mut ForwardOutput<T>,
) {
    match model.config.kind {
        ModelKind::ManyToOne => {
            for (rep, &(start, _)) in replicas.iter().zip(chunks) {
                rep.logits[0].with(|m| {
                    out.logits.copy_rows_from(start, m.expect("missing logits"));
                });
            }
        }
        ModelKind::ManyToMany => {
            let seq = replicas[0].logits.len();
            assert_eq!(out.seq_logits.len(), seq, "output buffer seq length");
            for t in 0..seq {
                for (rep, &(start, _)) in replicas.iter().zip(chunks) {
                    rep.logits[t].with(|m| {
                        out.seq_logits[t].copy_rows_from(start, m.expect("missing logits"));
                    });
                }
            }
            out.logits.copy_from(&out.seq_logits[seq - 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::merge::MergeMode;
    use crate::model::BrnnConfig;
    use crate::optim::Sgd;

    #[test]
    fn row_chunks_cover_everything() {
        for rows in [1usize, 2, 7, 16, 100] {
            for mbs in [1usize, 2, 3, 8, 200] {
                let chunks = row_chunks(rows, mbs);
                assert!(!chunks.is_empty());
                let total: usize = chunks.iter().map(|&(_, c)| c).sum();
                assert_eq!(total, rows, "rows {rows} mbs {mbs}");
                // Contiguous, non-empty.
                let mut pos = 0;
                for &(start, count) in &chunks {
                    assert_eq!(start, pos);
                    assert!(count > 0);
                    pos += count;
                }
                assert!(chunks.len() <= mbs.max(1));
            }
        }
    }

    #[test]
    fn chunk_sizes_are_balanced() {
        let chunks = row_chunks(10, 4);
        let sizes: Vec<usize> = chunks.iter().map(|&(_, c)| c).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    /// Callers that miss on one key at the same time all build, but the
    /// cache keeps the first plan only: one entry, its arena counted once,
    /// one miss and one weight sync — and every caller gets that plan.
    #[test]
    fn concurrent_misses_on_one_key_cache_one_plan() {
        use crate::model::{Brnn, BrnnConfig};
        let model: Brnn<f64> = Brnn::new(BrnnConfig::default(), 3);
        let cfg = model.config;
        let batch: Vec<Matrix<f64>> = (0..cfg.seq_len)
            .map(|_| Matrix::zeros(2, cfg.input_size))
            .collect();
        let threads = 8;
        let exec = TaskGraphExec::new(1);
        let start = std::sync::Barrier::new(threads);
        let plans: Vec<Arc<ExecPlan<f64>>> = std::thread::scope(|s| {
            let caller = || {
                start.wait();
                exec.plan_for(0, &model, &batch, false).0
            };
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(caller)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = exec.plan_cache_stats();
        assert_eq!(stats.cached_plans, 1);
        assert_eq!(stats.arena_bytes, plans[0].arena_bytes);
        assert_eq!((stats.misses, stats.weight_syncs), (1, 1));
        assert_eq!(stats.hits, threads as u64 - 1);
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
    }

    fn inputs<T: Float>(cfg: BrnnConfig, rows: usize) -> (Vec<Matrix<T>>, Target) {
        let xs = (0..cfg.seq_len)
            .map(|t| bpar_tensor::init::uniform(rows, cfg.input_size, -1.0, 1.0, 7 + t as u64))
            .collect();
        let classes = |salt: usize| (0..rows).map(|r| (r + salt) % cfg.output_size).collect();
        let target = match cfg.kind {
            ModelKind::ManyToOne => Target::Classes(classes(0)),
            ModelKind::ManyToMany => Target::SeqClasses((0..cfg.seq_len).map(classes).collect()),
        };
        (xs, target)
    }

    fn config(cell: CellKind, kind: ModelKind, hidden: usize) -> BrnnConfig {
        BrnnConfig {
            cell,
            input_size: 3,
            hidden_size: hidden,
            layers: 2,
            seq_len: 5,
            output_size: 3,
            merge: MergeMode::Concat,
            kind,
        }
    }

    /// `arena_bytes` is exactly what a plan's slots hold after a replay:
    /// an inference plan's states without their caches, a training plan's
    /// caches, gradient slots and accumulators too — for every cell kind,
    /// both output arities, a split batch and the scan strategy.
    #[test]
    fn arena_bytes_are_what_the_slots_hold() {
        let chain = RecurrenceStrategy::Chain;
        let scan = RecurrenceStrategy::Scan { chunks: 2 };
        for cell in [
            CellKind::Lstm,
            CellKind::Gru,
            CellKind::Vanilla,
            CellKind::Linear,
        ] {
            let strategies = if cell.scannable() {
                vec![chain, scan]
            } else {
                vec![chain]
            };
            for (strategy, kind) in strategies
                .into_iter()
                .flat_map(|s| [(s, ModelKind::ManyToOne), (s, ModelKind::ManyToMany)])
            {
                for mbs in [1, 2] {
                    let cfg = config(cell, kind, 4);
                    let mut model: Brnn<f32> = Brnn::new(cfg, 5);
                    let (xs, target) = inputs(cfg, 3);
                    let exec = TaskGraphExec::with_config(1, SchedulerPolicy::Fifo, mbs)
                        .with_strategy(strategy);
                    exec.forward(&model, &xs);
                    exec.train_batch(&mut model, &xs, &target, &mut Sgd::new(0.1));
                    for train in [false, true] {
                        let (plan, _) = exec.plan_for(0, &model, &xs, train);
                        let held: u64 = plan.replicas.iter().map(ReplicaGraph::held_bytes).sum();
                        let what =
                            format!("{cell:?} {kind:?} {strategy:?} mbs {mbs} train {train}");
                        assert_eq!(plan.arena_bytes, held, "{what}");
                    }
                }
            }
        }
    }

    /// Every worker's scratch is sized by the plan's first run: after it,
    /// all workers pool as many buffers, and however the scheduler
    /// spreads the tasks over three workers afterwards, no replay
    /// allocates a scratch buffer — the
    /// warm path's zero allocations cannot depend on which worker ran
    /// which task before.
    #[test]
    fn scratch_is_sized_by_the_first_run() {
        let (chain, scan) = (
            RecurrenceStrategy::Chain,
            RecurrenceStrategy::Scan { chunks: 2 },
        );
        let cases = [
            (
                CellKind::Lstm,
                ModelKind::ManyToOne,
                4,
                BackendKind::Simd,
                chain,
            ),
            (
                CellKind::Gru,
                ModelKind::ManyToMany,
                4,
                BackendKind::Simd,
                chain,
            ),
            (
                CellKind::Gru,
                ModelKind::ManyToMany,
                2,
                BackendKind::Scalar,
                chain,
            ),
            (
                CellKind::Vanilla,
                ModelKind::ManyToOne,
                4,
                BackendKind::Simd,
                chain,
            ),
            (
                CellKind::Linear,
                ModelKind::ManyToMany,
                4,
                BackendKind::Simd,
                scan,
            ),
        ];
        for (cell, kind, hidden, backend, strategy) in cases {
            for policy in [
                SchedulerPolicy::Fifo,
                SchedulerPolicy::LocalityAware,
                SchedulerPolicy::WorkStealing,
            ] {
                let cfg = config(cell, kind, hidden);
                let mut model: Brnn<f32> = Brnn::new(cfg, 9);
                let (xs, target) = inputs(cfg, 3);
                let exec =
                    TaskGraphExec::with_backend(3, policy, 2, backend).with_strategy(strategy);
                for train in [false, true] {
                    let run = |model: &mut Brnn<f32>| {
                        if train {
                            exec.train_batch(model, &xs, &target, &mut Sgd::new(0.1));
                        } else {
                            exec.forward(model, &xs);
                        }
                    };
                    run(&mut model);
                    let plan = exec.plan_for(0, &model, &xs, train).0;
                    let what = format!("{cfg:?} {backend} {strategy:?} {policy:?} train {train}");
                    let profiles = || -> Vec<_> {
                        plan.replicas
                            .iter()
                            .map(ReplicaGraph::scratch_profile)
                            .collect()
                    };
                    let sized = profiles();
                    for workers in &sized {
                        let same = workers.iter().all(|&w| w == workers[0]);
                        assert!(same, "{what}: {sized:?}");
                    }
                    (0..6).for_each(|_| run(&mut model));
                    assert_eq!(sized, profiles(), "{what}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mbs must be at least 1")]
    fn zero_mbs_rejected() {
        TaskGraphExec::with_config(1, SchedulerPolicy::Fifo, 0);
    }
}
