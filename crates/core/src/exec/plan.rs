//! Cached execution plans for [`super::TaskGraphExec`].
//!
//! Building a batch's task graph — allocating regions, constructing a
//! replica per mini-batch chunk, running the dependency tracker over every
//! `in`/`out` clause — costs the same whether the batch shape was seen
//! before or not. A serving loop sees the *same* padded shape over and
//! over, so [`super::TaskGraphExec`] builds an [`ExecPlan`] once per
//! distinct [`PlanKey`] (model config × rows × timesteps × mbs × phase ×
//! discipline) and thereafter only swaps the per-batch values (inputs,
//! targets, weight snapshot) and replays the frozen graph through
//! [`bpar_runtime::Runtime::replay`].
//!
//! Plans are held in a small LRU [`PlanCache`]; [`PlanCacheStats`] exposes
//! hit/miss/eviction counts, deep-copy ("weight sync") counts and the
//! cumulative build vs replay nanoseconds the `plan_replay` bench turns
//! into the §IV-B overhead comparison.
//!
//! The weights are not a plan's: the cache hands every plan of one
//! tenant's model the same [`WeightStore`]
//! ([`PlanCache::store`]), holding it only weakly itself, so a snapshot
//! lives exactly as long as some resident plan reads it.

use super::builder::{task_spec, BodyConfig, RegionAlloc, ReplicaGraph, WeightStore};
use super::taskgraph::TaskGraphExec;
use super::{check_batch, Target};
use crate::emit::{self, Coarsen, Discipline, SeedBug, Stream};
use crate::model::{Brnn, BrnnConfig};
use crate::scanplan::RecurrenceStrategy;
use bpar_runtime::{CompiledPlan, PlanBuilder};
use bpar_tensor::{BackendKind, Float, Matrix};
use std::any::{Any, TypeId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// Everything that makes two batches shape-compatible with one plan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanKey {
    /// Tenant the plan (and its weight store) belongs to. Two tenants
    /// with identical configs must not share a plan or a store: a store
    /// is synced to *its* model's revision, and revisions are globally
    /// unique — a shared one would deep-copy weights on every alternation
    /// between the tenants.
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
    /// plan would silently run the wrong kernels.
    pub backend: BackendKind,
    /// *Effective* recurrence strategy (post `RecurrenceStrategy::
    /// effective` fallback/clamping). Chain and scan graphs have entirely
    /// different task structures over the same shapes.
    pub strategy: RecurrenceStrategy,
    /// The executor's schedule: B-Par, barrier and B-Seq plans of one
    /// shape are different graphs over the same slots.
    pub discipline: Discipline,
}

/// A compiled, replayable task graph plus the replica state it runs over.
///
/// The plan holds its [`WeightStore`] — shared with the other plans of its
/// tenant's model — strongly; steady-state replays read the same
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
    /// Analytic size of the plan's persistent arena — every buffer its
    /// replicas' slots keep alive between replays (see
    /// [`ReplicaGraph::persistent_bytes`]) — computed once at build time
    /// from the plan's shapes.
    pub arena_bytes: u64,
    /// Whether a replay in which every body ran has sized every worker's
    /// scratch ([`ExecPlan::size_scratch`]).
    pub scratch_sized: AtomicBool,
}

impl<T: Float> ExecPlan<T> {
    /// The plan's node streams in submission order, and the `k` they are
    /// folded by — the order [`crate::graphgen`] builds its graphs in: one
    /// stream per replica, through [`Coarsen::apply`] and then
    /// `discipline`, and last the cross-replica reductions. A seeded plan
    /// is unfolded and carries the stream transform of `seed` (first
    /// replica only).
    pub fn stream(
        replicas: &[ReplicaGraph<T>],
        train: bool,
        seed: Option<SeedBug>,
        coarsen: Coarsen,
        discipline: Discipline,
    ) -> (Vec<Stream>, usize) {
        let emitters = replicas.iter().enumerate().map(|(ri, rep)| rep.emitter(ri));
        let mut streams = vec![Stream::default(); replicas.len()];
        for (e, stream) in emitters.clone().zip(&mut streams) {
            e.replica(train, stream);
        }
        let layout = replicas[0].emitter(0).slot_layout();
        let k = match seed {
            None => coarsen.apply(&mut streams, layout),
            Some(_) => 1,
        };
        for stream in &mut streams {
            *stream = discipline.apply(std::mem::take(stream), layout);
        }
        let mut reductions = Stream::default();
        if train {
            emitters.skip(1).for_each(|e| e.reduce(&mut reductions));
        }
        match seed {
            Some(SeedBug::MissingClause) => emit::drop_state_clause(&mut streams[0]),
            Some(SeedBug::CrossEpochRace) => emit::append_epoch_probe(&mut reductions),
            Some(SeedBug::DroppedEdge) | None => {}
        }
        streams.push(reductions);
        (streams, k)
    }

    /// Builds the full graph for `batch`'s shape over the model in
    /// `weights`: replicas, task bodies, frozen dependency structure.
    /// `batch` supplies only the shape; call [`ExecPlan::load_batch`]
    /// before every run (including the first), and sync `weights` to the
    /// model. The bodies are frozen with `body` — one plan, one backend —
    /// and the graph with `discipline`, the executor's schedule.
    /// Executors pass `seed = None` and [`Coarsen::Rule`]; a [`SeedBug`]
    /// plants that bug for the soundness detectors.
    pub fn build(
        weights: Arc<WeightStore<T>>,
        batch: &[Matrix<T>],
        mbs: usize,
        seed: Option<SeedBug>,
        body: BodyConfig,
        coarsen: Coarsen,
        discipline: Discipline,
    ) -> Self {
        let train = body.train;
        let mut regions = RegionAlloc::default();
        let (mut replicas, chunks) =
            TaskGraphExec::make_replicas(mbs, &weights, batch, &mut regions, body);
        if seed == Some(SeedBug::CrossEpochRace) {
            replicas[0].seed_alias(&mut regions);
        }
        if discipline == Discipline::Barrier {
            replicas
                .iter_mut()
                .for_each(|r| r.seed_barriers(&mut regions));
        }
        let mut b = PlanBuilder::new();
        let (streams, coarsen) = Self::stream(&replicas, train, seed, coarsen, discipline);
        for stream in &streams {
            for node in &stream.nodes {
                b.submit(task_spec(&replicas, stream, node));
            }
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
            scratch_sized: AtomicBool::new(false),
        }
    }

    /// Once, after a replay in which every body ran: gives every worker's
    /// scratch what any worker's needed ([`ReplicaGraph::equalize_scratch`]),
    /// so later replays allocate no scratch whatever the schedule.
    pub fn size_scratch(&self) {
        if !self.scratch_sized.swap(true, Ordering::Relaxed) {
            self.replicas
                .iter()
                .for_each(ReplicaGraph::equalize_scratch);
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

    /// Starts a training batch: copies `target` row-wise into the
    /// replicas' resident target buffers and zero-fills their gradient
    /// and loss accumulators, which the batch's tasks then fold into.
    /// Every other slot is fully overwritten by its task, so nothing is
    /// dropped between batches — the retained memory *is* the plan's
    /// arena ([`ExecPlan::arena_bytes`]).
    pub fn load_target(&self, target: &Target) {
        for (rep, &(start, count)) in self.replicas.iter().zip(&self.chunks) {
            rep.set_target(target, start, count);
            rep.reset_accumulators();
        }
    }

    /// Drops every value, returning the plan to the all-empty state of a
    /// freshly built graph. Only analysis replays do this: a
    /// missing-dependency bug must surface as an empty-slot read or a
    /// divergent fingerprint, which a persistent buffer holding the
    /// previous replay's (identical) values would mask.
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
    /// Model deep copies made: weight-store seeds plus revision-change
    /// re-syncs. A store is seeded when a tenant's first plan is built
    /// (or rebuilt after all its plans were evicted), so steady-state
    /// serving makes about one per tenant and revision, however many
    /// shapes it caches.
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
    /// (inputs, activations, logits; training plans' caches and gradient
    /// slots — see `ExecPlan::arena_bytes`).
    pub arena_bytes: u64,
    /// Total bytes of the weight snapshots the resident plans read: one
    /// per live store, however many plans share it. Not part of the byte
    /// budget, which bounds `arena_bytes` only.
    pub weight_bytes: u64,
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
    /// The plan's `arena_bytes`, mirrored here so the cache can sum them
    /// without downcasting.
    bytes: u64,
}

/// What makes two plans read one weight store.
#[derive(PartialEq)]
struct StoreKey {
    tenant: u64,
    /// The model's configuration: a snapshot holds one.
    config: BrnnConfig,
    /// Scalar type of the [`WeightStore<T>`].
    tid: TypeId,
}

struct StoreEntry {
    key: StoreKey,
    /// Dead once no plan holds the store.
    store: Weak<dyn Any + Send + Sync>,
    /// The snapshot's weight bytes.
    bytes: u64,
}

/// What a [`PlanCache`] counts; each field means what the
/// [`PlanCacheStats`] field of its name does. Everything else there is
/// derived from what the cache holds ([`PlanCache::stats`]).
#[derive(Default)]
pub(crate) struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub weight_syncs: u64,
    pub build_ns: u64,
    pub replay_ns: u64,
    pub budget_evictions: u64,
}

/// Small LRU cache of compiled plans (most-recently-used last; lookup is a
/// linear scan, fine for the handful of shapes a bucketed serving loop
/// produces), and the weight stores they share.
pub(crate) struct PlanCache {
    entries: Vec<CacheEntry>,
    stores: Vec<StoreEntry>,
    capacity: usize,
    /// Optional cap on the summed `arena_bytes` of resident plans. After
    /// every insert, least-recently-used plans are dropped until the
    /// budget holds, so the resident arena never exceeds it between
    /// calls — the knob that lets many tenants share one executor
    /// without unbounded resident state.
    byte_budget: Option<u64>,
    pub counters: Counters,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            stores: Vec::new(),
            capacity: 32,
            byte_budget: None,
            counters: Counters::default(),
        }
    }
}

impl PlanCache {
    /// The counters, and what the cache holds now: its plans, their
    /// arenas, and the weight stores still alive.
    pub fn stats(&self) -> PlanCacheStats {
        let c = &self.counters;
        let live = self.stores.iter().filter(|e| e.store.strong_count() > 0);
        PlanCacheStats {
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            weight_syncs: c.weight_syncs,
            build_ns: c.build_ns,
            replay_ns: c.replay_ns,
            cached_plans: self.entries.len(),
            arena_bytes: self.arena_bytes(),
            weight_bytes: live.map(|e| e.bytes).sum(),
            arena_reuses: c.hits,
            budget_evictions: c.budget_evictions,
        }
    }

    fn arena_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// The weight store the plans of `tenant`'s `model` read, whatever
    /// their backend or phase: the live one while some plan holds it, else
    /// a fresh one seeded from `model` — one deep copy, counted as a weight
    /// sync. The caller syncs it before every replay.
    pub fn store<T: Float>(&mut self, tenant: u64, model: &Brnn<T>) -> Arc<WeightStore<T>> {
        let key = StoreKey {
            tenant,
            config: model.config,
            tid: TypeId::of::<T>(),
        };
        self.stores.retain(|e| e.store.strong_count() > 0);
        let live = self.stores.iter().find(|e| e.key == key);
        if let Some(store) = live.and_then(|e| e.store.upgrade()) {
            return store.downcast().expect("store type matches its TypeId");
        }
        let store = Arc::new(WeightStore::new(model));
        let weak: Weak<WeightStore<T>> = Arc::downgrade(&store);
        self.stores.push(StoreEntry {
            key,
            store: weak,
            bytes: (model.param_count() * std::mem::size_of::<T>()) as u64,
        });
        self.counters.weight_syncs += 1;
        store
    }

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
        self.counters.hits += 1;
        Some(plan)
    }

    /// Caches a freshly built plan, evicting the least-recently-used entry
    /// when full. Counts the miss that caused the build.
    pub fn insert<T: Float>(&mut self, key: PlanKey, plan: Arc<ExecPlan<T>>) {
        self.counters.misses += 1;
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
            self.counters.evictions += 1;
        }
        let bytes = plan.arena_bytes;
        self.entries.push(CacheEntry {
            key,
            tid: TypeId::of::<T>(),
            plan,
            bytes,
        });
        self.enforce_budget();
    }

    fn enforce_budget(&mut self) {
        let Some(budget) = self.byte_budget else {
            return;
        };
        let mut held = self.arena_bytes();
        while held > budget {
            held -= self.entries.remove(0).bytes;
            self.counters.budget_evictions += 1;
        }
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
        self.entries.retain(|e| !(e.tid == tid && e.key == *key));
    }

    /// Changes the capacity, trimming least-recently-used plans.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity >= 1, "plan cache capacity must be at least 1");
        self.capacity = capacity;
        while self.entries.len() > capacity {
            self.entries.remove(0);
            self.counters.evictions += 1;
        }
    }

    /// Drops every cached plan.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}
