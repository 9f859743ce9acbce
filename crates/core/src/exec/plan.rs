//! Cached execution plans for [`super::TaskGraphExec`].
//!
//! Building a batch's task graph — allocating regions, constructing a
//! replica per mini-batch chunk, running the dependency tracker over every
//! `in`/`out` clause — costs the same whether the batch shape was seen
//! before or not. A serving loop sees the *same* padded shape over and
//! over, so [`super::TaskGraphExec`] builds an [`ExecPlan`] once per
//! distinct [`PlanKey`] (model config × rows × timesteps × mbs × phase)
//! and thereafter only swaps the per-batch values (inputs, targets, weight
//! snapshot) and replays the frozen graph through
//! [`bpar_runtime::Runtime::replay`].
//!
//! Plans are held in a small LRU [`PlanCache`]; [`PlanCacheStats`] exposes
//! hit/miss/eviction counts, deep-copy ("weight sync") counts and the
//! cumulative build vs replay nanoseconds the `plan_replay` bench turns
//! into the §IV-B overhead comparison.

use super::builder::{task_spec, RegionAlloc, ReplicaGraph, WeightStore};
use super::taskgraph::TaskGraphExec;
use super::{check_batch, Target};
use crate::emit::{self, Coarsen, SeedBug, Stream};
use crate::model::{Brnn, BrnnConfig};
use crate::scanplan::RecurrenceStrategy;
use bpar_runtime::{CompiledPlan, PlanBuilder};
use bpar_tensor::{Backend, BackendKind, Float, Matrix};
use std::any::{Any, TypeId};
use std::sync::Arc;

/// Everything that makes two batches shape-compatible with one plan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanKey {
    /// Tenant the plan (and its weight snapshot) belongs to. Two tenants
    /// with identical configs must not share a plan: each plan owns a
    /// `WeightStore` synced to *its* model's revision, and revisions are
    /// globally unique — a shared plan would deep-copy weights on every
    /// alternation between the tenants.
    pub tenant: u64,
    /// Full hyper-parameter set (layer count, sizes, cell, merge, kind).
    pub config: BrnnConfig,
    /// Batch rows.
    pub rows: usize,
    /// Timesteps.
    pub seq: usize,
    /// Mini-batch replica count the graph was built for.
    pub mbs: usize,
    /// `true` for a training graph (loss + backward + reduction tasks).
    pub train: bool,
    /// Kernel backend the task bodies were frozen with. Two executions
    /// that differ only in backend must never share a plan: the backend
    /// is captured into the compiled bodies at build time, so a shared
    /// plan would silently run the wrong kernels (and int8 plans own
    /// quantized weight planes a scalar run must not touch).
    pub backend: BackendKind,
    /// *Effective* recurrence strategy (post `RecurrenceStrategy::
    /// effective` fallback/clamping). Chain and scan graphs have entirely
    /// different task structures over the same shapes.
    pub strategy: RecurrenceStrategy,
}

/// A compiled, replayable task graph plus the replica state it runs over.
///
/// The plan owns its [`WeightStore`]; steady-state replays share the same
/// weight snapshot and make **zero** deep copies until the model's
/// revision changes.
pub(crate) struct ExecPlan<T: Float> {
    pub weights: Arc<WeightStore<T>>,
    pub replicas: Vec<ReplicaGraph<T>>,
    pub chunks: Vec<(usize, usize)>,
    pub compiled: Arc<CompiledPlan>,
    /// Whether the graph contains loss/backward/reduction tasks.
    pub train: bool,
    /// Timesteps folded into each task (the resolved [`Coarsen`]).
    pub coarsen: usize,
    /// Analytic size of the plan's persistent arena — every input, state,
    /// cache, merge and logit buffer its replicas keep alive between
    /// replays — computed once at build time from the plan's shapes.
    pub arena_bytes: u64,
}

impl<T: Float> ExecPlan<T> {
    /// The plan's node stream and the `k` it is folded by: every
    /// replica's stages in order, then the cross-replica reductions,
    /// through [`Coarsen::apply`] — or, for a seeded plan, unfolded and
    /// with the stream transform of `seed` (first replica only).
    pub fn stream(
        replicas: &[ReplicaGraph<T>],
        train: bool,
        seed: Option<SeedBug>,
        coarsen: Coarsen,
    ) -> (Stream, usize) {
        let emitters = replicas.iter().enumerate().map(|(ri, rep)| rep.emitter(ri));
        let mut stream = Stream::default();
        emitters.clone().for_each(|e| e.replica(train, &mut stream));
        if train {
            emitters.skip(1).for_each(|e| e.reduce(&mut stream));
        }
        let k = match seed {
            None => coarsen.apply(std::slice::from_mut(&mut stream), replicas[0].seq),
            Some(_) => 1,
        };
        match seed {
            Some(SeedBug::MissingClause) => emit::drop_state_clause(&mut stream),
            Some(SeedBug::CrossEpochRace) => emit::append_epoch_probe(&mut stream),
            Some(SeedBug::DroppedEdge) | None => {}
        }
        (stream, k)
    }

    /// Builds the full graph for `batch`'s shape: replicas, task bodies,
    /// frozen dependency structure. `batch` supplies only the shape; call
    /// [`ExecPlan::load_batch`] before every run (including the first).
    /// Forward task bodies dispatch their kernels through `backend`
    /// (frozen into the compiled bodies — one plan, one backend).
    /// Executors pass `seed = None` and [`Coarsen::Rule`]; a [`SeedBug`]
    /// plants that bug for the soundness detectors.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        model: &Brnn<T>,
        batch: &[Matrix<T>],
        mbs: usize,
        train: bool,
        seed: Option<SeedBug>,
        backend: Backend,
        strategy: RecurrenceStrategy,
        coarsen: Coarsen,
    ) -> Self {
        let mut regions = RegionAlloc::default();
        let (weights, mut replicas, chunks) =
            TaskGraphExec::make_replicas(mbs, model, batch, &mut regions, backend, strategy);
        if seed == Some(SeedBug::CrossEpochRace) {
            replicas[0].seed_alias(&mut regions);
        }
        let mut b = PlanBuilder::new();
        let (stream, coarsen) = Self::stream(&replicas, train, seed, coarsen);
        for node in &stream.nodes {
            b.submit(task_spec(&replicas, &stream, node));
        }
        let mut compiled = b.compile();
        if seed == Some(SeedBug::DroppedEdge) {
            // Surgically remove the write-after-write edge between the
            // first two loss tasks. The clauses still *declare* the
            // dependency — only the compiled graph lost it — which is
            // exactly the race class the happens-before prong exists for.
            let loss: Vec<usize> = (0..compiled.len())
                .filter(|&i| compiled.label(i) == "loss")
                .take(2)
                .collect();
            assert!(
                loss.len() == 2,
                "SeedBug::DroppedEdge requires a training graph with at \
                 least two loss tasks (many-to-many)"
            );
            assert!(
                compiled.drop_edge(loss[0], loss[1]),
                "expected a compiled edge between consecutive loss tasks"
            );
        }
        let compiled = Arc::new(compiled);
        let arena_bytes = replicas.iter().map(ReplicaGraph::persistent_bytes).sum();
        Self {
            weights,
            replicas,
            chunks,
            compiled,
            train,
            coarsen,
            arena_bytes,
        }
    }

    /// Distributes `batch` row-wise over the replicas' input stores by
    /// copying into their persistent buffers — allocation-free once the
    /// buffers exist (see [`ReplicaGraph::load_inputs`]).
    pub fn load_batch(&self, model: &Brnn<T>, batch: &[Matrix<T>]) {
        let (seq, rows) = check_batch(model, batch);
        assert_eq!(seq, self.replicas[0].seq, "plan built for other seq");
        assert_eq!(
            rows,
            self.chunks.iter().map(|&(_, c)| c).sum::<usize>(),
            "plan built for other row count"
        );
        for (rep, &(start, count)) in self.replicas.iter().zip(&self.chunks) {
            rep.load_inputs(batch, start, count);
        }
    }

    /// Distributes `target` row-wise over the replicas' target stores.
    pub fn load_target(&self, target: &Target) {
        for (rep, &(start, count)) in self.replicas.iter().zip(&self.chunks) {
            rep.set_target(&target.row_block(start, count));
        }
    }

    /// Post-batch cleanup. Training plans drop every transient value —
    /// gradients and loss are single-consumer `take()`s and the next batch
    /// must start from an all-empty state. Inference plans keep their
    /// buffers: every forward task fully overwrites its slot on the next
    /// replay, so retaining them is what makes the warm path
    /// allocation-free — the retained memory *is* the plan's arena
    /// ([`ExecPlan::arena_bytes`]).
    pub fn scrub(&self) {
        if self.train {
            for rep in &self.replicas {
                rep.clear_values();
            }
        }
    }

    /// Unconditionally drops every transient value, returning the plan to
    /// the all-empty state of a freshly built graph. Analysis replays use
    /// this instead of [`ExecPlan::scrub`]: a missing-dependency bug must
    /// surface as an empty-slot read or a divergent fingerprint, which a
    /// persistent buffer holding the previous replay's (identical) values
    /// would mask.
    pub fn clear_values(&self) {
        for rep in &self.replicas {
            rep.clear_values();
        }
    }
}

/// Counters describing plan-cache behaviour; returned by
/// [`super::TaskGraphExec::plan_cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Batches served by an already-compiled plan.
    pub hits: u64,
    /// Batches that had to build (and cache) a new plan.
    pub misses: u64,
    /// Plans dropped to respect the cache capacity.
    pub evictions: u64,
    /// Model deep copies made (initial build copies plus revision-change
    /// re-syncs). In steady-state serving this stays at `misses`.
    pub weight_syncs: u64,
    /// Cumulative nanoseconds spent building plans (graph construction +
    /// dependency compilation).
    pub build_ns: u64,
    /// Cumulative nanoseconds spent re-submitting cached plans
    /// ([`bpar_runtime::Runtime::replay`] calls).
    pub replay_ns: u64,
    /// Plans currently resident.
    pub cached_plans: usize,
    /// Total bytes of persistent arena held by the resident plans
    /// (activations, caches, inputs, logits — see `ExecPlan::arena_bytes`).
    pub arena_bytes: u64,
    /// Warm replays that reused a resident plan's arena instead of
    /// allocating fresh buffers (increments with every cache hit).
    pub arena_reuses: u64,
    /// Plans dropped (LRU-first) to keep `arena_bytes` under the cache's
    /// byte budget — the tenant-eviction counter of a multi-tenant
    /// server. Disjoint from `evictions`, which counts capacity drops.
    pub budget_evictions: u64,
}

struct CacheEntry {
    key: PlanKey,
    /// Scalar type of the cached [`ExecPlan<T>`] — `f32` and `f64` models
    /// can share a [`BrnnConfig`], so the key alone is ambiguous.
    tid: TypeId,
    plan: Arc<dyn Any + Send + Sync>,
    /// The plan's `arena_bytes`, mirrored here so eviction can subtract it
    /// without downcasting.
    bytes: u64,
}

/// Small LRU cache of compiled plans (most-recently-used last; lookup is a
/// linear scan, fine for the handful of shapes a bucketed serving loop
/// produces).
pub(crate) struct PlanCache {
    entries: Vec<CacheEntry>,
    capacity: usize,
    /// Optional cap on the summed `arena_bytes` of resident plans. After
    /// every insert, least-recently-used plans are dropped until the
    /// budget holds, so `stats.arena_bytes` never exceeds it between
    /// calls — the knob that lets many tenants share one executor
    /// without unbounded resident state.
    byte_budget: Option<u64>,
    pub stats: PlanCacheStats,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            capacity: 32,
            byte_budget: None,
            stats: PlanCacheStats::default(),
        }
    }
}

impl PlanCache {
    /// Looks up a plan, marking it most-recently-used.
    pub fn get<T: Float>(&mut self, key: &PlanKey) -> Option<Arc<ExecPlan<T>>> {
        let tid = TypeId::of::<T>();
        let pos = self
            .entries
            .iter()
            .position(|e| e.tid == tid && e.key == *key)?;
        let entry = self.entries.remove(pos);
        let plan = entry
            .plan
            .clone()
            .downcast::<ExecPlan<T>>()
            .expect("plan type matches its TypeId");
        self.entries.push(entry);
        self.stats.hits += 1;
        self.stats.arena_reuses += 1;
        Some(plan)
    }

    /// Caches a freshly built plan, evicting the least-recently-used entry
    /// when full. Counts the miss that caused the build.
    pub fn insert<T: Float>(&mut self, key: PlanKey, plan: Arc<ExecPlan<T>>) {
        self.stats.misses += 1;
        if self.entries.len() >= self.capacity {
            let dropped = self.entries.remove(0);
            self.stats.evictions += 1;
            self.stats.arena_bytes -= dropped.bytes;
        }
        let bytes = plan.arena_bytes;
        self.entries.push(CacheEntry {
            key,
            tid: TypeId::of::<T>(),
            plan,
            bytes,
        });
        self.stats.arena_bytes += bytes;
        self.enforce_budget();
        self.stats.cached_plans = self.entries.len();
    }

    fn enforce_budget(&mut self) {
        let Some(budget) = self.byte_budget else {
            return;
        };
        while self.stats.arena_bytes > budget && !self.entries.is_empty() {
            let dropped = self.entries.remove(0);
            self.stats.budget_evictions += 1;
            self.stats.arena_bytes -= dropped.bytes;
        }
        self.stats.cached_plans = self.entries.len();
    }

    /// Caps the summed resident `arena_bytes` (`None` = unlimited),
    /// trimming immediately. A lone plan larger than the whole budget is
    /// dropped rather than cached — the budget is strict, at the price of
    /// rebuilding that plan every batch.
    pub fn set_byte_budget(&mut self, budget: Option<u64>) {
        self.byte_budget = budget;
        self.enforce_budget();
    }

    /// Removes one plan (used after a task panic: the plan's slots may
    /// hold partial values a later replay must not observe).
    pub fn evict<T: Float>(&mut self, key: &PlanKey) {
        let tid = TypeId::of::<T>();
        let mut freed = 0;
        self.entries.retain(|e| {
            let drop = e.tid == tid && e.key == *key;
            if drop {
                freed += e.bytes;
            }
            !drop
        });
        self.stats.arena_bytes -= freed;
        self.stats.cached_plans = self.entries.len();
    }

    /// Changes the capacity, trimming least-recently-used plans.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity >= 1, "plan cache capacity must be at least 1");
        self.capacity = capacity;
        while self.entries.len() > capacity {
            let dropped = self.entries.remove(0);
            self.stats.evictions += 1;
            self.stats.arena_bytes -= dropped.bytes;
        }
        self.stats.cached_plans = self.entries.len();
    }

    /// Drops every cached plan.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stats.cached_plans = 0;
        self.stats.arena_bytes = 0;
    }
}
