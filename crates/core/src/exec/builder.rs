//! The live consumer of the graph description, shared by the parallel
//! executors.
//!
//! A [`ReplicaGraph`] owns all the *slots* (shared data cells, one
//! dependency region each) for one mini-batch replica of a training batch.
//! The tasks themselves — and their `in`/`out` clauses, exactly those of
//! the paper's Algorithms 2 and 3 — come from [`crate::emit`];
//! [`task_spec`] resolves a node's symbolic slot ids to this replica's
//! regions and attaches the closure of the node's kind. The resulting
//! spec goes one of two ways:
//!
//! * [`LiveSink`] submits it directly to a [`Runtime`] — used by
//!   [`super::BarrierExec`], which interleaves submission with `taskwait`s;
//! * `bpar_runtime::PlanBuilder` records the stream for one-shot
//!   compilation into a replayable plan — used by [`super::TaskGraphExec`],
//!   which re-runs the same graph every batch (task bodies are `Fn`, and
//!   all per-batch values — inputs, targets, weights — live behind shared
//!   stores the executor swaps between replays).
//!
//! Model weights are read through a [`WeightStore`]: a persistent snapshot
//! re-synced — copied in place — only when the model's revision stamp
//! changes, never once per batch.
//!
//! Memory (DESIGN.md §5): every slot keeps its buffer between replays and
//! every body writes into it in place, so a warm replay — inference or
//! training — touches no allocator. Cell slots keep their BPTT caches
//! only in training replicas; an inference cell writes its forward
//! intermediates into its worker's [`Scratch`], which also holds the
//! kernels' transient buffers: one per runtime worker, sized for every
//! body after the plan's first run ([`ReplicaGraph::equalize_scratch`]),
//! never one per task.
//!
//! Floating-point note: task bodies perform identical kernel calls in an
//! order whose only reorderings are commutative two-operand additions, so
//! results are bit-identical to [`super::SequentialExec`] under the
//! `scalar` and `simd` [`Backend`]s alike — the portable loops and the
//! dispatched kernels of `bpar-tensor` agree bit for bit. Forward task
//! bodies dispatch through the graph's backend (so an int8 inference graph
//! quantizes its forward GEMMs); backward bodies, and every body of a
//! training graph, run the dispatched exact kernels (the default backend),
//! which is why an int8 executor trains exactly.

use super::Target;
use crate::cell::{CellCache, CellParams, CellState, StateGrad};
use crate::dense::DenseParams;
use crate::emit::{self, Dir, Emitter, Kind, Node, SlotId, SlotRef, Stream};
use crate::loss::softmax_cross_entropy_into;
use crate::merge::MergeMode;
use crate::model::{Brnn, BrnnConfig, BrnnGrads, LayerPair, ModelKind};
use crate::optim::Optimizer;
use crate::scanplan::{NodeRef, RecurrenceStrategy, ScanPlan};
use bpar_runtime::plan::PlanBody;
use bpar_runtime::{
    current_worker, record_read_at, record_write_at, PlanSpec, RegionId, Runtime, TaskSpec,
};
use bpar_tensor::{roundtrip_quantize, Backend, BackendKind, Float, Matrix, Workspace};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hands out fresh region ids for one batch.
#[derive(Debug, Default)]
pub(crate) struct RegionAlloc {
    next: u64,
}

impl RegionAlloc {
    pub(crate) fn fresh(&mut self) -> RegionId {
        let id = RegionId(self.next);
        self.next += 1;
        id
    }
}

/// Submits compiled-plan specs straight to a [`Runtime`], each as a
/// one-shot task — the live counterpart of recording them in a
/// [`bpar_runtime::PlanBuilder`].
pub(crate) struct LiveSink<'a>(pub &'a Runtime);

impl LiveSink<'_> {
    pub fn push(&mut self, spec: PlanSpec) {
        let body = spec.body.expect("spec submitted without a body");
        self.0.submit(
            TaskSpec::new(spec.label)
                .tag(spec.tag)
                .ins(spec.ins)
                .outs(spec.outs)
                .working_set(spec.working_set_bytes)
                .body(move || body()),
        );
    }
}

/// Persistent shared handle on model weights.
///
/// Task bodies read the current snapshot; the owning executor calls
/// [`WeightStore::sync`] once per batch, which copies the model *only*
/// when its revision stamp differs from the snapshot's — in steady-state
/// inference serving that is never, fixing the per-batch
/// `Arc::new(model.clone())` of the original executors; in training it is
/// every step, into the snapshot's own buffers.
pub(crate) struct WeightStore<T: Float> {
    snapshot: RwLock<Arc<Brnn<T>>>,
    /// Weight copies made over this store's lifetime (1 at construction).
    deep_copies: AtomicU64,
    /// When set, every deep copy round-trip-quantizes the weight matrices
    /// (see [`WeightStore::for_backend`]).
    quantized: bool,
}

/// Round-trip int8-quantizes every weight matrix of `model` in place:
/// per-tensor symmetric scales, biases untouched. After this pass the
/// weights sit exactly on the int8 grid, so the int8 GEMM's B-operand
/// quantization is lossless and only the activation side contributes
/// error. `f64` models are left exact, matching the backend dispatch rule
/// that `f64` never reaches a backend-specific kernel.
fn quantize_weights<T: Float>(model: &mut Brnn<T>) {
    let mut q = |m: &mut Matrix<T>| {
        if let Some(s) = T::as_f32_slice_mut(m.as_mut_slice()) {
            roundtrip_quantize(s);
        }
    };
    for layer in &mut model.layers {
        layer.fwd.for_each_weight_mut(&mut q);
        layer.rev.for_each_weight_mut(&mut q);
    }
    q(&mut model.dense.w);
}

impl<T: Float> WeightStore<T> {
    /// A store whose deep copies are prepared for `backend`: under
    /// [`BackendKind::Int8`] every copy (the seed and each revision
    /// re-sync) is weight-quantized **once**, so the per-batch hot path
    /// only quantizes activations. Other backends copy verbatim.
    pub fn for_backend(model: &Brnn<T>, backend: Backend) -> Self {
        let quantized = backend.kind() == BackendKind::Int8;
        let mut seed = model.clone();
        if quantized {
            quantize_weights(&mut seed);
        }
        Self {
            snapshot: RwLock::new(Arc::new(seed)),
            deep_copies: AtomicU64::new(1),
            quantized,
        }
    }

    /// The current weight snapshot (cheap: one `Arc` clone).
    pub fn snapshot(&self) -> Arc<Brnn<T>> {
        self.snapshot.read().clone()
    }

    /// Brings the snapshot up to date with `model`. Returns `true` iff a
    /// copy was made (i.e. the revisions differed). The copy goes into
    /// the snapshot's own buffers unless a reader still holds the
    /// snapshot (between batches none does), in which case it is cloned.
    /// Copies preserve the revision stamp, so a quantized snapshot still
    /// compares equal to the model it was copied from.
    pub fn sync(&self, model: &Brnn<T>) -> bool {
        let mut snapshot = self.snapshot.write();
        if snapshot.revision() == model.revision() {
            return false;
        }
        match Arc::get_mut(&mut snapshot) {
            Some(own) => own.copy_weights_from(model),
            None => *snapshot = Arc::new(model.clone()),
        }
        if self.quantized {
            quantize_weights(Arc::get_mut(&mut snapshot).expect("fresh snapshot is unshared"));
        }
        self.deep_copies.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Weight copies made so far (at least 1).
    pub fn deep_copies(&self) -> u64 {
        self.deep_copies.load(Ordering::Relaxed)
    }
}

/// A shared data cell guarded by its dependency region.
///
/// The runtime's dependency protocol guarantees readers and writers never
/// overlap, so the `RwLock` is always uncontended; it exists to make the
/// sharing safe without `unsafe`.
///
/// Every access reports itself to the runtime's validation recorder
/// ([`bpar_runtime::record_read_at`] / [`bpar_runtime::record_write_at`])
/// — a single relaxed atomic load when validation is off. Because all
/// task data flows through slots, the recorder's event stream is a
/// complete trace of what each task body *actually* touched, which
/// `bpar-verify` diffs against the declared `in`/`out` clauses. Each
/// event carries both the *region id* (what the dependency protocol
/// reasons about) and the *physical site* — the address of the shared
/// data cell — so the schedule-exploration prong can detect storage
/// aliased under two region ids, which no region-keyed analysis can see.
pub(crate) struct Slot<X> {
    data: Arc<RwLock<Option<X>>>,
    /// Dependency region representing this value.
    pub region: RegionId,
}

impl<X> Clone for Slot<X> {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
            region: self.region,
        }
    }
}

impl<X> Slot<X> {
    fn new(regions: &mut RegionAlloc) -> Self {
        Self {
            data: Arc::new(RwLock::new(None)),
            region: regions.fresh(),
        }
    }

    /// A second handle to the *same* data cell under a *fresh* region id.
    ///
    /// This deliberately breaks the slot invariant that one region guards
    /// one cell: the dependency protocol sees two independent regions and
    /// will happily schedule their tasks concurrently, while the physical
    /// storage is shared. Only the [`crate::emit::SeedBug::CrossEpochRace`] fixture
    /// uses this — it is the seeded bug itself, not a building block.
    pub fn alias_with_fresh_region(&self, regions: &mut RegionAlloc) -> Self {
        Self {
            data: self.data.clone(),
            region: regions.fresh(),
        }
    }

    /// The address of the shared data cell, reported as the access `site`
    /// so physical aliasing is visible to the exploration prong even when
    /// region ids disagree.
    fn site(&self) -> u64 {
        Arc::as_ptr(&self.data) as u64
    }

    /// Stores a value (writer side).
    pub fn put(&self, v: X) {
        record_write_at(self.region, self.site());
        *self.data.write() = Some(v);
    }

    /// Drops the value: the slot is empty again, as built.
    fn clear(&self) {
        *self.data.write() = None;
    }

    /// Reads the value by reference (multi-consumer reads).
    pub fn with<R>(&self, f: impl FnOnce(Option<&X>) -> R) -> R {
        record_read_at(self.region, self.site());
        f(self.data.read().as_ref())
    }

    /// Mutates the value in place, initialising with `init` if absent
    /// (accumulator slots). A read-modify-write: tasks using it must
    /// declare the region *inout* (both `in` and `out`).
    pub fn update(&self, init: impl FnOnce() -> X, f: impl FnOnce(&mut X)) {
        record_read_at(self.region, self.site());
        record_write_at(self.region, self.site());
        let mut guard = self.data.write();
        let v = guard.get_or_insert_with(init);
        f(v);
    }

    /// Overwrites the value in place, initialising the backing buffer with
    /// `init` only when the slot is empty (first run, or after
    /// [`ReplicaGraph::clear_values`]). The closure must **fully**
    /// overwrite the value — no prior-batch data may flow into the result
    /// — so this records only a *write*: tasks using it declare the region
    /// `out`, exactly like [`Slot::put`]. This is the steady-state
    /// allocation-free counterpart of `put`: warm replays reuse the buffer
    /// instead of dropping and reallocating it every batch. On the warm
    /// path no slot is ever emptied — that would hand its buffer back to
    /// the allocator.
    pub fn write_in_place(&self, init: impl FnOnce() -> X, f: impl FnOnce(&mut X)) {
        record_write_at(self.region, self.site());
        let mut guard = self.data.write();
        let v = guard.get_or_insert_with(init);
        f(v);
    }
}

/// A cell's forward output: recurrent state plus — in a training replica
/// — the BPTT cache.
pub(crate) type CellSlot<T> = Slot<(CellState<T>, Option<CellCache<T>>)>;

/// A scan transfer `(a, b) : h ↦ a ⊙ h + b` — `a` is `1 × hidden`
/// (a diagonal decay power), `b` is `rows × hidden`.
pub(crate) type TransferSlot<T> = Slot<(Matrix<T>, Matrix<T>)>;

/// `[layer][t]` slots.
type Grid<X> = Vec<Vec<X>>;
/// `[dir][layer][t]` slots, `dir` = [`Dir::ix`].
type DirGrid<X> = [Grid<X>; 2];

/// What a replica's task bodies are frozen with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BodyConfig {
    /// Kernel backend of the forward bodies (training bodies always run
    /// the default backend's exact kernels).
    pub backend: Backend,
    /// *Effective* recurrence strategy — callers resolve fallback and
    /// clamping via [`RecurrenceStrategy::effective`] first.
    pub strategy: RecurrenceStrategy,
    /// Whether the graph runs BPTT: then cell slots keep their caches.
    pub train: bool,
    /// Worker threads of the runtime the bodies run on: one [`Scratch`]
    /// each.
    pub workers: usize,
}

/// One worker's private working set for one replica's task bodies — the
/// paper's "sequential kernels on a private working set", owned by the
/// worker rather than by each task, so its size is O(workers × shapes)
/// however many tasks the graph has.
pub(crate) struct Scratch<T: Float> {
    /// The kernels' transient buffers.
    ws: Workspace<T>,
    /// `[l]`: where a layer-`l` forward cell of an inference replica
    /// writes its BPTT intermediates, which nothing reads outside the
    /// cell's own body. Empty in training replicas, whose slots keep them.
    caches: Vec<CellCache<T>>,
}

impl<T: Float> Scratch<T> {
    /// The cache a layer-`l` forward writes — the slot's own when the
    /// replica keeps one, else this worker's — and the kernel pool.
    fn forward_bufs<'a>(
        &'a mut self,
        kept: &'a mut Option<CellCache<T>>,
        l: usize,
    ) -> (&'a mut CellCache<T>, &'a mut Workspace<T>) {
        let cache = match kept {
            Some(c) => c,
            None => &mut self.caches[l],
        };
        (cache, &mut self.ws)
    }
}

/// One [`Scratch`] per runtime worker. A body locks its own worker's, so
/// the lock is never contended (a worker runs one body at a time); it
/// exists to make sharing the handle safe.
#[derive(Clone)]
pub(crate) struct WorkerScratch<T: Float>(Arc<[Mutex<Scratch<T>>]>);

impl<T: Float> WorkerScratch<T> {
    /// The calling worker's scratch ([`current_worker`]); the first one
    /// off a pool, the last one shared by the surplus workers of a pool
    /// larger than the plan was built for.
    fn lock(&self) -> MutexGuard<'_, Scratch<T>> {
        let w = current_worker().unwrap_or(0).min(self.0.len() - 1);
        self.0[w].lock()
    }
}

/// All slots for one mini-batch replica — the live resolution of the
/// emitter's [`SlotId`]s.
pub(crate) struct ReplicaGraph<T: Float> {
    /// Shared weight snapshot read by every task.
    pub weights: Arc<WeightStore<T>>,
    /// Hyper-parameters frozen at construction (plan-cache keys guarantee
    /// a replica is only ever replayed for models with this config).
    pub config: BrnnConfig,
    /// Input timesteps for this replica (`rows × input_size` each);
    /// refilled between replays via [`ReplicaGraph::load_inputs`].
    pub xs: Arc<RwLock<Vec<Matrix<T>>>>,
    /// Per-output-position target classes; swappable between replays via
    /// [`ReplicaGraph::set_target`]. Empty for inference graphs.
    pub targets: Arc<RwLock<Vec<Vec<usize>>>>,
    /// Sequence length (timesteps) this replica was built for.
    pub seq: usize,
    /// Batch rows in this replica.
    pub rows: usize,
    /// Loss weight `rows / total_rows` (1.0 when mbs = 1).
    pub weight: f64,
    /// Cell outputs.
    st: DirGrid<CellSlot<T>>,
    /// Merge-cell outputs feeding layer `l+1`, `[layer][t]` for `l < L-1`.
    merged: Grid<Slot<Matrix<T>>>,
    /// Classifier features (1 entry for many-to-one, T for many-to-many).
    feat: Vec<Slot<Matrix<T>>>,
    /// Classifier logits matching `feat`.
    pub logits: Vec<Slot<Matrix<T>>>,
    /// Gradients w.r.t. classifier features.
    dfeat: Vec<Slot<Matrix<T>>>,
    /// Gradients w.r.t. each direction's hidden outputs.
    dh: DirGrid<Slot<Matrix<T>>>,
    /// Recurrent state gradients.
    sg: DirGrid<Slot<StateGrad<T>>>,
    /// Gradients w.r.t. each layer's inputs via one direction's cells.
    dinput: DirGrid<Slot<Matrix<T>>>,
    /// Per-layer weight-gradient accumulators, `[dir][layer]`.
    grads: [Vec<Slot<CellParams<T>>>; 2],
    /// Classifier weight-gradient accumulator.
    grads_dense: Slot<DenseParams<T>>,
    /// Weighted loss accumulator.
    loss: Slot<f64>,
    /// Shared all-zero recurrent state read by every sequence-boundary
    /// cell (`t = 0` forward, `t = T-1` reverse) instead of allocating a
    /// fresh zero state inside each boundary task on every replay; its
    /// `h` is also the `dh` of a cell no classifier or merge feeds.
    zero_state: Arc<CellState<T>>,
    /// Kernel backend every forward-path task body dispatches through
    /// (cell GEMMs, bias broadcasts, gate non-linearities, classifier
    /// projection). `scalar` and `simd` reproduce the sequential
    /// reference bit-for-bit; backward tasks always use the default
    /// backend's exact kernels, whatever this is.
    backend: Backend,
    /// How each direction's timestep recurrence is executed (the
    /// *effective* strategy — callers resolve fallback/clamping via
    /// [`RecurrenceStrategy::effective`] before construction).
    pub strategy: RecurrenceStrategy,
    /// Whether this replica runs BPTT (its cell slots keep caches).
    train: bool,
    /// The bodies' per-worker working sets.
    scratch: WorkerScratch<T>,
    /// Scan topology and its transfer slots `[adjoint][dir][layer][k]`
    /// (chunk totals first, then combine-node outputs); `Some` iff
    /// `strategy` is scan. Adjoint totals are indexed by *backward* scan
    /// order, so the one [`ScanPlan`] serves both sweeps.
    scan: Option<(ScanPlan, [DirGrid<TransferSlot<T>>; 2])>,
    /// Second handle on `feat[0]`'s storage ([`SlotId::FeatAlias`]); only
    /// the cross-epoch-race seed creates it.
    alias: Option<Slot<Matrix<T>>>,
}

/// Zeroed BPTT cache of a layer-`l` cell.
fn cell_cache<T: Float>(cfg: BrnnConfig, rows: usize, l: usize) -> CellCache<T> {
    CellCache::zeros(cfg.cell, rows, cfg.layer_input_size(l), cfg.hidden_size)
}

/// Zeroed slot buffers of a layer-`l` cell: its state, and its cache when
/// the replica keeps one (`train`).
fn cell_buffers<T: Float>(
    cfg: BrnnConfig,
    rows: usize,
    l: usize,
    train: bool,
) -> (CellState<T>, Option<CellCache<T>>) {
    (
        CellState::zeros(cfg.cell, rows, cfg.hidden_size),
        train.then(|| cell_cache(cfg, rows, l)),
    )
}

/// The training classifier as one body runs it: logits of `x` into
/// `logits`, softmax cross-entropy against `classes`, the loss gradient
/// scaled by `scale`, then the classifier backward — weight gradient
/// accumulated into `g`, feature gradient into `dx`. Returns the mean
/// loss.
#[allow(clippy::too_many_arguments)]
fn classify_backprop<T: Float>(
    dense: &DenseParams<T>,
    x: &Matrix<T>,
    classes: &[usize],
    scale: T,
    logits: &mut Matrix<T>,
    g: &mut DenseParams<T>,
    dx: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) -> f64 {
    let be = Backend::default();
    dense.forward_into(x, logits, ws, be);
    let mut dlogits = ws.checkout(logits.rows(), logits.cols());
    let loss = softmax_cross_entropy_into(logits, classes, &mut dlogits);
    bpar_tensor::ops::scale(scale, &mut dlogits);
    dense.backward_ws(x, &dlogits, g, dx, ws, be);
    ws.give_back(dlogits);
    loss
}

/// Zeroed scan transfer `(1 × hidden, rows × hidden)`.
fn transfer_zeros<T: Float>(rows: usize, hidden: usize) -> (Matrix<T>, Matrix<T>) {
    (Matrix::zeros(1, hidden), Matrix::zeros(rows, hidden))
}

fn dir_params<T: Float>(model: &Brnn<T>, l: usize, dir: Dir) -> &CellParams<T> {
    match dir {
        Dir::Fwd => &model.layers[l].fwd,
        Dir::Rev => &model.layers[l].rev,
    }
}

/// The diagonal decay of a scannable cell.
fn lambda<T: Float>(params: &CellParams<T>) -> &Matrix<T> {
    match params {
        CellParams::Linear(p) => &p.lambda,
        _ => unreachable!("scan requires a scannable cell"),
    }
}

/// Merge backward (Eq. (11)) of `dmerged` against the operands `fh`/`rh`,
/// written in place into their `dh` slots.
fn split_merge_grad<T: Float>(
    mode: MergeMode,
    dmerged: &Matrix<T>,
    fh: &Matrix<T>,
    rh: &Matrix<T>,
    dhf: &Slot<Matrix<T>>,
    dhr: &Slot<Matrix<T>>,
) {
    let zeros = || Matrix::zeros(fh.rows(), fh.cols());
    dhf.write_in_place(zeros, |df| {
        dhr.write_in_place(zeros, |dr| mode.backward_into(dmerged, fh, rh, df, dr))
    });
}

/// Reduction body: folds `src` (if the replica produced one) into `dst`
/// in place (`zero` shapes `dst` should it be empty).
fn reduce_body<X: Send + Sync + 'static>(
    src: &Slot<X>,
    dst: &Slot<X>,
    zero: fn(&X) -> X,
    add: fn(&mut X, &X),
) -> PlanBody {
    let (src, dst) = (src.clone(), dst.clone());
    Arc::new(move || {
        src.with(|v| {
            if let Some(v) = v {
                dst.update(|| zero(v), |acc| add(acc, v));
            }
        })
    })
}

/// The live consumer of the emitter: `node` with its clauses resolved
/// against its replicas' slots and the body of its kind — of each of its
/// members' kinds, for a folded node — attached.
pub(crate) fn task_spec<T: Float>(
    replicas: &[ReplicaGraph<T>],
    stream: &Stream,
    node: &Node,
) -> PlanSpec {
    let region = |&(rep, slot): &SlotRef| replicas[rep].region(slot);
    let mut spec = PlanSpec::new(node.label())
        .tag(node.tag)
        .ins(stream.ins(node).iter().map(region))
        .outs(stream.outs(node).iter().map(region))
        .working_set(node.ws);
    let body = |n: &Node| replicas[n.rep].body(n, &replicas[0]);
    spec.body = Some(match stream.members(node) {
        [only] => body(only),
        // A node `emit::coarsen` folded: its members' bodies, unchanged,
        // in stream order.
        members => {
            let bodies: Vec<PlanBody> = members.iter().map(body).collect();
            Arc::new(move || bodies.iter().for_each(|b| b()))
        }
    });
    spec
}

impl<T: Float> ReplicaGraph<T> {
    /// Allocates all slots for a replica of `rows` batch rows, and one
    /// scratch per worker.
    pub fn new(
        weights: Arc<WeightStore<T>>,
        xs: Vec<Matrix<T>>,
        weight: f64,
        regions: &mut RegionAlloc,
        body: BodyConfig,
    ) -> Self {
        let BodyConfig {
            backend,
            strategy,
            train,
            workers,
        } = body;
        let cfg = weights.snapshot().config;
        let seq = xs.len();
        let rows = xs[0].rows();
        let scratch = (0..workers.max(1))
            .map(|_| {
                let caches = if train {
                    Vec::new()
                } else {
                    (0..cfg.layers).map(|l| cell_cache(cfg, rows, l)).collect()
                };
                Mutex::new(Scratch {
                    ws: Workspace::new(),
                    caches,
                })
            })
            .collect();
        fn list<X>(n: usize, regions: &mut RegionAlloc) -> Vec<Slot<X>> {
            (0..n).map(|_| Slot::new(regions)).collect()
        }
        fn grids<X>(layers: usize, n: usize, regions: &mut RegionAlloc) -> DirGrid<Slot<X>> {
            [(); 2].map(|_| (0..layers).map(|_| list(n, regions)).collect())
        }
        let scan = strategy.scan_chunks().map(|chunks| {
            assert!(
                cfg.cell.scannable(),
                "scan recurrence requires a scannable cell (got {:?}); callers \
                 must resolve RecurrenceStrategy::effective first",
                cfg.cell
            );
            let plan = ScanPlan::new(seq, chunks);
            let n = plan.chunk_count() + plan.combines.len();
            let slots = [(); 2].map(|_| grids(cfg.layers, n, regions));
            (plan, slots)
        });
        let n_out = emit::output_count(cfg.kind, seq);
        Self {
            xs: Arc::new(RwLock::new(xs)),
            targets: Arc::new(RwLock::new(Vec::new())),
            seq,
            rows,
            weight,
            st: grids(cfg.layers, seq, regions),
            merged: (1..cfg.layers).map(|_| list(seq, regions)).collect(),
            feat: list(n_out, regions),
            logits: list(n_out, regions),
            dfeat: list(n_out, regions),
            dh: grids(cfg.layers, seq, regions),
            sg: grids(cfg.layers, seq, regions),
            dinput: grids(cfg.layers, seq, regions),
            grads: [(); 2].map(|_| list(cfg.layers, regions)),
            grads_dense: Slot::new(regions),
            loss: Slot::new(regions),
            zero_state: Arc::new(CellState::zeros(cfg.cell, rows, cfg.hidden_size)),
            weights,
            config: cfg,
            backend,
            strategy,
            train,
            scratch: WorkerScratch(scratch),
            scan,
            alias: None,
        }
    }

    /// Gives every worker's scratch what any worker's scratch needed.
    /// Called once, after the plan's first replay in which every body
    /// ran (each on some worker): from then on no replay allocates
    /// scratch, whichever worker runs which task — the zero-allocation
    /// warm path cannot depend on how earlier replays were scheduled.
    pub fn equalize_scratch(&self) {
        let workers = &self.scratch.0;
        for (i, a) in workers.iter().enumerate() {
            for b in &workers[i + 1..] {
                let (mut a, mut b) = (a.lock(), b.lock());
                a.ws.reserve_like(&b.ws);
                b.ws.reserve_like(&a.ws);
            }
        }
    }

    /// The emitter describing this replica's tasks as replica `rep`.
    pub fn emitter(&self, rep: usize) -> Emitter<'_> {
        Emitter {
            cfg: self.config,
            seq: self.seq,
            rows: self.rows,
            scalar: std::mem::size_of::<T>(),
            scan: self.scan.as_ref().map(|(plan, _)| plan),
            rep,
        }
    }

    /// Creates the [`SlotId::FeatAlias`] handle: `feat[0]`'s storage under
    /// a fresh region id (see [`Slot::alias_with_fresh_region`]).
    pub fn seed_alias(&mut self, regions: &mut RegionAlloc) {
        self.alias = Some(self.feat[0].alias_with_fresh_region(regions));
    }

    fn transfer(&self, adjoint: bool, dir: Dir, l: usize, r: NodeRef) -> &TransferSlot<T> {
        let (plan, slots) = self.scan.as_ref().expect("scan slots");
        let k = match r {
            NodeRef::Total(i) => i,
            NodeRef::Node(i) => plan.chunk_count() + i,
            NodeRef::Identity => unreachable!("identity transfers are never materialised"),
        };
        &slots[usize::from(adjoint)][dir.ix()][l][k]
    }

    /// The dependency region of a symbolic slot.
    pub fn region(&self, slot: SlotId) -> RegionId {
        match slot {
            SlotId::St(d, l, t) => self.st[d.ix()][l][t].region,
            SlotId::Merged(l, t) => self.merged[l][t].region,
            SlotId::Feat(i) => self.feat[i].region,
            SlotId::Logits(i) => self.logits[i].region,
            SlotId::Dfeat(i) => self.dfeat[i].region,
            SlotId::Dh(d, l, t) => self.dh[d.ix()][l][t].region,
            SlotId::Sg(d, l, t) => self.sg[d.ix()][l][t].region,
            SlotId::Dinput(d, l, t) => self.dinput[d.ix()][l][t].region,
            SlotId::Grads(d, l) => self.grads[d.ix()][l].region,
            SlotId::GradsDense => self.grads_dense.region,
            SlotId::Loss => self.loss.region,
            SlotId::Scan(adjoint, d, l, r) => self.transfer(adjoint, d, l, r).region,
            SlotId::FeatAlias => self.alias.as_ref().expect("alias not seeded").region,
            SlotId::Gemm(..) | SlotId::Barrier(_) => {
                unreachable!("{slot} exists only in simulator ablation graphs")
            }
        }
    }

    /// Copies batch rows `[start, start + count)` of `batch` into this
    /// replica's persistent input buffers — the steady-state path of
    /// [`super::plan::ExecPlan::load_batch`], which allocates nothing.
    /// Falls back to allocating fresh buffers when the store is empty
    /// (after [`ReplicaGraph::clear_values`]).
    pub fn load_inputs(&self, batch: &[Matrix<T>], start: usize, count: usize) {
        assert_eq!(batch.len(), self.seq, "input timestep count changed");
        assert_eq!(count, self.rows, "input row count changed");
        let mut xs = self.xs.write();
        if xs.len() != self.seq {
            *xs = batch.iter().map(|x| x.row_block(start, count)).collect();
        } else {
            for (dst, src) in xs.iter_mut().zip(batch) {
                src.row_block_into(start, count, dst);
            }
        }
    }

    /// Analytic size of the buffers this replica's slots hold after a
    /// replay — the arena a resident plan keeps between replays: inputs,
    /// the shared zero state, per-cell states, merge outputs, features
    /// and logits; in a training replica also the BPTT caches, every
    /// gradient slot (`dfeat`, the `dh` some merge or classifier writes,
    /// `sg`, `dinput`), the weight-gradient accumulators and the targets.
    /// The per-worker scratch (O(workers × shapes), one cell's cache per
    /// layer at most) is not counted.
    pub fn persistent_bytes(&self) -> u64 {
        let cfg = self.config;
        let (rows, seq, h, layers) = (self.rows, self.seq, cfg.hidden_size, cfg.layers);
        let scalar = std::mem::size_of::<T>();
        let n_out = self.feat.len();
        // State, cache and gradient buffers all scale linearly with batch
        // rows, so a one-row probe gives the per-row footprint without
        // materialising full-size buffers. A state gradient has a state's
        // shape.
        let state_row = CellState::<T>::zeros(cfg.cell, 1, h).nbytes();
        let merge_w = cfg.merge.output_width(h);
        let mut total = seq * rows * cfg.input_size * scalar;
        total += rows * state_row;
        // Forward + reverse grids, one cell per timestep.
        total += 2 * layers * seq * rows * state_row;
        total += layers.saturating_sub(1) * seq * rows * merge_w * scalar;
        total += n_out * rows * (merge_w + cfg.output_size) * scalar;
        if self.train {
            for l in 0..layers {
                let in_w = cfg.layer_input_size(l);
                let cache_row = cell_cache::<T>(cfg, 1, l).nbytes();
                // Cache, `sg` and `dinput` per cell; two accumulators.
                total += 2 * seq * rows * (cache_row + state_row + in_w * scalar);
                total += 2 * cfg.cell.params(in_w, h) * scalar;
            }
            // `dh`: every position below the last layer; at the last,
            // the positions the classifier reads.
            total += 2 * ((layers - 1) * seq + n_out) * rows * h * scalar;
            total += n_out * rows * merge_w * scalar; // dfeat
            total += (merge_w + 1) * cfg.output_size * scalar; // dense grads
            total += n_out * rows * std::mem::size_of::<usize>(); // targets
        }
        if let Some((plan, _)) = &self.scan {
            // Transfer slots: one (1 × h, rows × h) pair per chunk total
            // and per combine node, per direction, per layer — and the
            // adjoint tree's as many again in training.
            let per = (h + rows * h) * scalar;
            let n = plan.chunk_count() + plan.combines.len();
            total += 2 * layers * n * per * if self.train { 2 } else { 1 };
        }
        total as u64
    }

    /// Bytes the slots actually hold — what [`ReplicaGraph::persistent_bytes`]
    /// predicts after a replay.
    #[cfg(test)]
    pub fn held_bytes(&self) -> u64 {
        fn sum<'a, X: 'a>(
            slots: impl IntoIterator<Item = &'a Slot<X>>,
            f: fn(&X) -> usize,
        ) -> usize {
            slots.into_iter().map(|s| s.with(|v| v.map_or(0, f))).sum()
        }
        let cell = |v: &(CellState<T>, Option<CellCache<T>>)| {
            v.0.nbytes() + v.1.as_ref().map_or(0, CellCache::nbytes)
        };
        let sg = |g: &StateGrad<T>| g.dh.nbytes() + g.dc.as_ref().map_or(0, Matrix::nbytes);
        let mut total = self.xs.read().iter().map(Matrix::nbytes).sum::<usize>();
        total += self.zero_state.nbytes();
        let classes = self.targets.read().iter().map(Vec::len).sum::<usize>();
        total += classes * std::mem::size_of::<usize>();
        for d in 0..2 {
            total += sum(self.st[d].iter().flatten(), cell);
            total += sum(self.dh[d].iter().flatten(), Matrix::nbytes);
            total += sum(self.sg[d].iter().flatten(), sg);
            total += sum(self.dinput[d].iter().flatten(), Matrix::nbytes);
            total += sum(&self.grads[d], |g| {
                g.param_count() * std::mem::size_of::<T>()
            });
        }
        total += sum(self.merged.iter().flatten(), Matrix::nbytes);
        total += sum(
            self.feat.iter().chain(&self.logits).chain(&self.dfeat),
            Matrix::nbytes,
        );
        total += sum([&self.grads_dense], |g| {
            g.param_count() * std::mem::size_of::<T>()
        });
        if let Some((_, slots)) = &self.scan {
            let transfer = |(a, b): &(Matrix<T>, Matrix<T>)| a.nbytes() + b.nbytes();
            total += sum(slots.iter().flatten().flatten().flatten(), transfer);
        }
        total as u64
    }

    /// Per worker: the buffers its scratch pools (every one it ever
    /// allocated, once a replay has given them back) and the bytes of its
    /// int8 quantization scratch.
    #[cfg(test)]
    pub fn scratch_profile(&self) -> Vec<(usize, usize)> {
        let profile = |s: &Mutex<Scratch<T>>| {
            let mut s = s.lock();
            (s.ws.pooled(), s.ws.quant_scratch().bytes())
        };
        self.scratch.0.iter().map(profile).collect()
    }

    /// Copies batch rows `[start, start + count)` of `target` into this
    /// replica's resident target buffers (one class vector per output
    /// position) for the next run of the graph.
    pub fn set_target(&self, target: &Target, start: usize, count: usize) {
        let per_pos: &[Vec<usize>] = match (self.config.kind, target) {
            (ModelKind::ManyToOne, Target::Classes(c)) => std::slice::from_ref(c),
            (ModelKind::ManyToMany, Target::SeqClasses(s)) => s,
            _ => panic!("target kind does not match model kind"),
        };
        assert_eq!(per_pos.len(), self.logits.len(), "target positions");
        let mut targets = self.targets.write();
        targets.resize_with(per_pos.len(), Vec::new);
        for (dst, src) in targets.iter_mut().zip(per_pos) {
            dst.clear();
            dst.extend_from_slice(&src[start..start + count]);
        }
    }

    /// Zero-fills the weight-gradient and loss accumulators in place, so
    /// the next run accumulates from zero — as a fresh `zeros_like` would,
    /// without the allocation.
    pub fn reset_accumulators(&self) {
        let model = self.weights.snapshot();
        for dir in Dir::BOTH {
            for (l, g) in self.grads[dir.ix()].iter().enumerate() {
                g.write_in_place(
                    || dir_params(&model, l, dir).zeros_like(),
                    CellParams::fill_zero,
                );
            }
        }
        self.grads_dense.write_in_place(
            || model.dense.zeros_like(),
            |g| {
                g.w.fill_zero();
                g.b.fill_zero();
            },
        );
        self.loss.write_in_place(|| 0.0, |l| *l = 0.0);
    }

    /// Drops every value (activations, caches, gradients, inputs,
    /// targets) while keeping slots and regions alive: the next run
    /// starts from the same all-empty state a freshly built graph has.
    /// Analysis replays only — see [`super::plan::ExecPlan::clear_values`].
    pub fn clear_values(&self) {
        fn clear<'a, X: 'a>(slots: impl IntoIterator<Item = &'a Slot<X>>) {
            slots.into_iter().for_each(Slot::clear);
        }
        for d in 0..2 {
            clear(self.st[d].iter().flatten());
            clear(self.dh[d].iter().flatten());
            clear(self.sg[d].iter().flatten());
            clear(self.dinput[d].iter().flatten());
            clear(&self.grads[d]);
        }
        clear(self.merged.iter().flatten());
        clear(self.feat.iter().chain(&self.logits).chain(&self.dfeat));
        if let Some((_, slots)) = &self.scan {
            clear(slots.iter().flatten().flatten().flatten());
        }
        self.grads_dense.clear();
        self.loss.clear();
        self.xs.write().clear();
        self.targets.write().clear();
    }

    /// The body of `node`'s kind over this replica's slots (`first` is
    /// replica 0, the destination of reductions). Handles are resolved
    /// here, once, from the node's coordinates — never from its clause
    /// lists, which is what lets the clause validator compare what a body
    /// touches against what the node declares — so nothing symbolic is
    /// looked up during replay.
    fn body(&self, node: &Node, first: &Self) -> PlanBody {
        let (dir, l, i) = (node.dir, node.layer, node.index);
        let d = dir.ix();
        let last = self.config.layers - 1;
        let steps = || emit::output_steps(self.config.kind, self.seq, i);
        match node.kind {
            Kind::Cell => self.cell_body(dir, l, i),
            Kind::Merge => {
                self.merge_body(&self.st[0][l][i], &self.st[1][l][i], &self.merged[l][i])
            }
            Kind::MergeFinal => {
                let (tf, tr) = steps();
                self.merge_body(&self.st[0][last][tf], &self.st[1][last][tr], &self.feat[i])
            }
            Kind::Dense => self.dense_body(i),
            Kind::Loss => self.loss_body(i),
            Kind::MergeBwdFinal => self.merge_bwd_final_body(i, steps()),
            Kind::CellBwd => self.cell_bwd_body(dir, l, i),
            Kind::MergeBwd => self.merge_bwd_body(l + 1, i),
            Kind::ScanLocal => self.scan_local_body(dir, l, i),
            Kind::ScanComb => self.scan_comb_body(false, dir, l, i),
            Kind::ScanFix => self.scan_fix_body(dir, l, i),
            Kind::BscanLocal => self.bscan_local_body(dir, l, i),
            Kind::BscanComb => self.scan_comb_body(true, dir, l, i),
            Kind::BscanFix => self.bscan_fix_body(dir, l, i),
            Kind::BscanGrad => self.bscan_grad_body(dir, l, i),
            Kind::ReduceCell => reduce_body(
                &self.grads[d][l],
                &first.grads[d][l],
                CellParams::zeros_like,
                CellParams::add_assign,
            ),
            Kind::ReduceDense => reduce_body(
                &self.grads_dense,
                &first.grads_dense,
                DenseParams::zeros_like,
                DenseParams::add_assign,
            ),
            Kind::ReduceLoss => reduce_body(&self.loss, &first.loss, |_| 0.0, |acc, l| *acc += l),
            Kind::EpochProbe => self.epoch_probe_body(),
            Kind::Barrier | Kind::CellGemm | Kind::CellPt => {
                unreachable!("{} exists only in simulator ablation graphs", node.label())
            }
        }
    }

    /// Clones of a chunk's slots in scan order (logical `j0..j1`).
    fn span<X>(&self, row: &[Slot<X>], dir: Dir, (j0, j1): (usize, usize)) -> Vec<Slot<X>> {
        (j0..j1)
            .map(|j| row[dir.phys(j, self.seq)].clone())
            .collect()
    }

    /// One cell update: reads its own previous state (the shared zero
    /// state at the sequence boundary) and the merge below (the input at
    /// layer 0).
    fn cell_body(&self, dir: Dir, l: usize, t: usize) -> PlanBody {
        let j = dir.phys(t, self.seq);
        let st = &self.st[dir.ix()][l];
        let prev = (j > 0).then(|| st[dir.phys(j - 1, self.seq)].clone());
        let below = (l > 0).then(|| self.merged[l - 1][t].clone());
        let dst = st[t].clone();
        let (weights, xs, zero) = (
            self.weights.clone(),
            self.xs.clone(),
            self.zero_state.clone(),
        );
        let (rows, be, train, scratch) =
            (self.rows, self.backend, self.train, self.scratch.clone());
        let missing = ["missing t-1 state", "missing t+1 state"][dir.ix()];
        Arc::new(move || {
            let model = weights.snapshot();
            let cfg = model.config;
            let params = dir_params(&model, l, dir);
            let mut scratch = scratch.lock();
            let mut step = |x: &Matrix<T>, p: &CellState<T>| {
                dst.write_in_place(
                    || cell_buffers(cfg, rows, l, train),
                    |(st, kept)| {
                        let (cache, ws) = scratch.forward_bufs(kept, l);
                        params.forward_ws(x, p, st, cache, ws, be)
                    },
                )
            };
            let mut with_prev = |x: &Matrix<T>| match &prev {
                Some(prev) => prev.with(|v| step(x, &v.expect(missing).0)),
                None => step(x, &zero),
            };
            match &below {
                Some(below) => below.with(|m| with_prev(m.expect("missing merge"))),
                None => with_prev(&xs.read()[t]),
            }
        })
    }

    /// Merge of one timestep's two directions into `dst` (Eq. (11)).
    fn merge_body(&self, f: &CellSlot<T>, r: &CellSlot<T>, dst: &Slot<Matrix<T>>) -> PlanBody {
        let (f, r, dst) = (f.clone(), r.clone(), dst.clone());
        let (mode, rows) = (self.config.merge, self.rows);
        let width = mode.output_width(self.config.hidden_size);
        Arc::new(move || {
            f.with(|fv| {
                r.with(|rv| {
                    let (fh, rh) = (&fv.expect("fwd missing").0.h, &rv.expect("rev missing").0.h);
                    dst.write_in_place(
                        || Matrix::zeros(rows, width),
                        |m| mode.apply_into(fh, rh, m),
                    )
                })
            });
        })
    }

    /// Inference classifier.
    fn dense_body(&self, i: usize) -> PlanBody {
        let (weights, feat, out) = (
            self.weights.clone(),
            self.feat[i].clone(),
            self.logits[i].clone(),
        );
        let (rows, be, scratch) = (self.rows, self.backend, self.scratch.clone());
        Arc::new(move || {
            let model = weights.snapshot();
            let mut scratch = scratch.lock();
            feat.with(|x| {
                let x = x.expect("missing features");
                out.write_in_place(
                    || Matrix::zeros(rows, model.dense.w.cols()),
                    |logits| model.dense.forward_into(x, logits, &mut scratch.ws, be),
                )
            });
        })
    }

    /// Training: classifier + loss + classifier backward in one task
    /// (small working set; Eq. (11) merge tasks are the paper's analogue
    /// of lightweight glue tasks). Classes come from the target store
    /// (see [`ReplicaGraph::set_target`]).
    fn loss_body(&self, i: usize) -> PlanBody {
        let (weights, targets) = (self.weights.clone(), self.targets.clone());
        let (feat, out, dfeat) = (
            self.feat[i].clone(),
            self.logits[i].clone(),
            self.dfeat[i].clone(),
        );
        let (gdense, loss_slot) = (self.grads_dense.clone(), self.loss.clone());
        let (weight, inv_outputs) = (self.weight, 1.0 / self.logits.len() as f64);
        let (rows, scratch) = (self.rows, self.scratch.clone());
        let width = self.config.merge.output_width(self.config.hidden_size);
        Arc::new(move || {
            let model = weights.snapshot();
            let mut scratch = scratch.lock();
            let targets = targets.read();
            let scale = T::from_f64(weight * inv_outputs);
            feat.with(|x| {
                let x = x.expect("missing features");
                let mut loss = 0.0;
                out.write_in_place(
                    || Matrix::zeros(rows, model.dense.w.cols()),
                    |logits| {
                        gdense.update(
                            || model.dense.zeros_like(),
                            |g| {
                                dfeat.write_in_place(
                                    || Matrix::zeros(rows, width),
                                    |dx| {
                                        let (d, ws) = (&model.dense, &mut scratch.ws);
                                        let classes = &targets[i];
                                        loss = classify_backprop(
                                            d, x, classes, scale, logits, g, dx, ws,
                                        );
                                    },
                                )
                            },
                        )
                    },
                );
                loss_slot.update(|| 0.0, |acc| *acc += loss * weight * inv_outputs);
            });
        })
    }

    /// Backward seed: splits `dfeat[i]` into the two directions.
    fn merge_bwd_final_body(&self, i: usize, (tf, tr): (usize, usize)) -> PlanBody {
        let last = self.config.layers - 1;
        let (f, r) = (self.st[0][last][tf].clone(), self.st[1][last][tr].clone());
        let (dhf, dhr) = (self.dh[0][last][tf].clone(), self.dh[1][last][tr].clone());
        let (dfeat, mode) = (self.dfeat[i].clone(), self.config.merge);
        Arc::new(move || {
            dfeat.with(|d| {
                f.with(|fv| {
                    r.with(|rv| {
                        let (fh, rh) = (&fv.unwrap().0.h, &rv.unwrap().0.h);
                        split_merge_grad(mode, d.unwrap(), fh, rh, &dhf, &dhr)
                    })
                })
            });
        })
    }

    /// One BPTT cell: reads its `dh` (zero when nothing feeds this cell's
    /// output) and the state gradient flowing in from the later recurrence
    /// step, writes its input and state gradients in place, accumulates
    /// weight gradients.
    fn cell_bwd_body(&self, dir: Dir, l: usize, t: usize) -> PlanBody {
        let (d, j) = (dir.ix(), dir.phys(t, self.seq));
        let sg_in = (j + 1 < self.seq).then(|| self.sg[d][l][dir.phys(j + 1, self.seq)].clone());
        let (st, dh, sg_out) = (
            self.st[d][l][t].clone(),
            self.dh[d][l][t].clone(),
            self.sg[d][l][t].clone(),
        );
        let (dinput, gacc) = (self.dinput[d][l][t].clone(), self.grads[d][l].clone());
        let (weights, zero, scratch) = (
            self.weights.clone(),
            self.zero_state.clone(),
            self.scratch.clone(),
        );
        let cfg = self.config;
        let (rows, in_w) = (self.rows, cfg.layer_input_size(l));
        Arc::new(move || {
            let model = weights.snapshot();
            let params = dir_params(&model, l, dir);
            let mut scratch = scratch.lock();
            st.with(|cached| {
                let cache = cached.and_then(|(_, c)| c.as_ref());
                let cache = cache.expect("missing forward cache");
                dh.with(|dh_val| {
                    let dh_val = dh_val.unwrap_or(&zero.h);
                    let mut backward = |sg_val: Option<&StateGrad<T>>| {
                        gacc.update(
                            || params.zeros_like(),
                            |g| {
                                dinput.write_in_place(
                                    || Matrix::zeros(rows, in_w),
                                    |dx| {
                                        sg_out.write_in_place(
                                            || StateGrad::zeros(cfg.cell, rows, cfg.hidden_size),
                                            |dprev| {
                                                let (ws, be) =
                                                    (&mut scratch.ws, Backend::default());
                                                params.backward_ws(
                                                    cache, dh_val, sg_val, g, dx, dprev, ws, be,
                                                )
                                            },
                                        )
                                    },
                                )
                            },
                        )
                    };
                    match &sg_in {
                        Some(sg_in) => sg_in.with(backward),
                        None => backward(None),
                    }
                })
            });
        })
    }

    /// Merge-backward of layer `l` seeding layer `l-1`: sums the two
    /// directions' input gradients — in fwd-then-rev order, matching the
    /// sequential reference — and splits the sum through the merge.
    fn merge_bwd_body(&self, l: usize, t: usize) -> PlanBody {
        let (din_f, din_r) = (self.dinput[0][l][t].clone(), self.dinput[1][l][t].clone());
        let (f, r) = (self.st[0][l - 1][t].clone(), self.st[1][l - 1][t].clone());
        let (dhf, dhr) = (self.dh[0][l - 1][t].clone(), self.dh[1][l - 1][t].clone());
        let (mode, scratch) = (self.config.merge, self.scratch.clone());
        let (rows, h) = (self.rows, self.config.hidden_size);
        let width = mode.output_width(h);
        Arc::new(move || {
            let mut scratch = scratch.lock();
            let mut dmerged = scratch.ws.checkout(rows, width);
            din_f.with(|d| dmerged.copy_from(d.expect("missing fwd dinput")));
            din_r.with(|d| {
                bpar_tensor::ops::axpy(T::ONE, d.expect("missing rev dinput"), &mut dmerged);
            });
            f.with(|fv| {
                r.with(|rv| {
                    let (fh, rh) = (&fv.unwrap().0.h, &rv.unwrap().0.h);
                    split_merge_grad(mode, &dmerged, fh, rh, &dhf, &dhr)
                })
            });
            scratch.ws.give_back(dmerged);
        })
    }

    /// Chunk-local sweep: a sequential chain from a *zero* incoming state,
    /// writing every `st` slot of the chunk plus the chunk's total
    /// transfer (λ^len, h_last). Chunk 0's incoming state really is zero,
    /// so its states are final (and bit-identical to the chain
    /// executor's).
    fn scan_local_body(&self, dir: Dir, l: usize, c: usize) -> PlanBody {
        let (plan, _) = self.scan.as_ref().expect("scan slots");
        let chunk = plan.chunks[c];
        let len = chunk.1 - chunk.0;
        let below = (l > 0).then(|| self.span(&self.merged[l - 1], dir, chunk));
        let dsts = self.span(&self.st[dir.ix()][l], dir, chunk);
        let phys_ts: Vec<usize> = (chunk.0..chunk.1).map(|j| dir.phys(j, self.seq)).collect();
        let total = self.transfer(false, dir, l, NodeRef::Total(c)).clone();
        let (weights, xs) = (self.weights.clone(), self.xs.clone());
        let (rows, be, hidden) = (self.rows, self.backend, self.config.hidden_size);
        let (train, scratch) = (self.train, self.scratch.clone());
        Arc::new(move || {
            let model = weights.snapshot();
            let cfg = model.config;
            let params = dir_params(&model, l, dir);
            let mut scratch = scratch.lock();
            // The within-chunk recurrence carry (a scannable cell has no
            // `c`), zero at the top of every run: checkout zeroes it.
            let mut carry = CellState {
                h: scratch.ws.checkout(rows, hidden),
                c: None,
            };
            let xs_guard = below.is_none().then(|| xs.read());
            for (i, dst) in dsts.iter().enumerate() {
                let mut step = |x: &Matrix<T>| {
                    dst.write_in_place(
                        || cell_buffers(cfg, rows, l, train),
                        |(stv, kept)| {
                            let (cache, ws) = scratch.forward_bufs(kept, l);
                            params.forward_ws(x, &carry, stv, cache, ws, be);
                            carry.h.copy_from(&stv.h);
                        },
                    )
                };
                match &below {
                    Some(b) => b[i].with(|m| step(m.expect("missing merge"))),
                    None => step(&xs_guard.as_ref().expect("inputs")[phys_ts[i]]),
                }
            }
            let lam = lambda(params);
            total.write_in_place(
                || transfer_zeros(rows, cfg.hidden_size),
                |(a, b)| {
                    a.fill(T::ONE);
                    for _ in 0..len {
                        be.row_scale(lam, a);
                    }
                    b.copy_from(&carry.h);
                },
            );
            scratch.ws.give_back(carry.h);
        })
    }

    /// One combine node `(a1,b1) ∘ (a2,b2) = (a1⊙a2, a2⊙b1+b2)` of the
    /// activation tree, or of the adjoint tree — whose transfers compose
    /// identically, just over the reversed chunk sequence, and which stays
    /// on the default backend's exact kernels like all training bodies.
    fn scan_comb_body(&self, adjoint: bool, dir: Dir, l: usize, k: usize) -> PlanBody {
        let (plan, _) = self.scan.as_ref().expect("scan slots");
        let comb = plan.combines[k];
        let lhs = self.transfer(adjoint, dir, l, comb.lhs).clone();
        let rhs = self.transfer(adjoint, dir, l, comb.rhs).clone();
        let dst = self.transfer(adjoint, dir, l, NodeRef::Node(k)).clone();
        let (rows, hidden) = (self.rows, self.config.hidden_size);
        let be = if adjoint {
            Backend::default()
        } else {
            self.backend
        };
        Arc::new(move || {
            lhs.with(|lv| {
                let (a1, b1) = lv.expect("missing scan operand");
                rhs.with(|rv| {
                    let (a2, b2) = rv.expect("missing scan operand");
                    dst.write_in_place(
                        || transfer_zeros(rows, hidden),
                        |(oa, ob)| be.scan_combine(a1, b1, a2, b2, oa, ob),
                    )
                })
            });
        })
    }

    /// Fix-up: chunk `c`'s true incoming state is the `b` component of its
    /// exclusive prefix (the global initial state is zero). Walks the
    /// chunk once, updating carry `p ← λ⊙p` and adding the decayed
    /// correction to each state (and, for BPTT, to each cached h_prev).
    fn scan_fix_body(&self, dir: Dir, l: usize, c: usize) -> PlanBody {
        let (plan, _) = self.scan.as_ref().expect("scan slots");
        let pref = self
            .transfer(false, dir, l, plan.prefix_of_chunk[c])
            .clone();
        let dsts = self.span(&self.st[dir.ix()][l], dir, plan.chunks[c]);
        let (weights, rows, be) = (self.weights.clone(), self.rows, self.backend);
        let scratch = self.scratch.clone();
        Arc::new(move || {
            let model = weights.snapshot();
            let lam = lambda(dir_params(&model, l, dir));
            let mut scratch = scratch.lock();
            let ws = &mut scratch.ws;
            let mut carry = ws.checkout(rows, model.config.hidden_size);
            pref.with(|p| {
                let (_, pb) = p.expect("missing scan prefix");
                carry.copy_from(pb);
            });
            for dst in &dsts {
                dst.update(
                    || unreachable!("scan_fix ran before its chunk-local sweep"),
                    |(stv, cache)| {
                        // True h_prev at this step gains λ^i ⊙ h_in (carry
                        // before the scale), the state λ^(i+1) ⊙ h_in.
                        if let Some(CellCache::Linear(lc)) = cache {
                            bpar_tensor::ops::axpy(T::ONE, &carry, &mut lc.h_prev);
                        }
                        be.row_scale(lam, &mut carry);
                        bpar_tensor::ops::axpy(T::ONE, &carry, &mut stv.h);
                    },
                );
            }
            ws.give_back(carry);
        })
    }

    /// Adjoint chunk-local sweep of backward scan-order chunk `bc`
    /// (forward chunk `C-1-bc`): runs over logical positions descending
    /// from a zero incoming adjoint. The `sg` slots hold the (local, later
    /// corrected) total adjoint δ — a different convention from the chain
    /// executor, whose `sg[t]` holds the λ-scaled gradient flowing into
    /// `t-1`; both are internal to their own task sets.
    fn bscan_local_body(&self, dir: Dir, l: usize, bc: usize) -> PlanBody {
        let (plan, _) = self.scan.as_ref().expect("scan slots");
        let chunk = plan.chunks[plan.chunk_count() - 1 - bc];
        let len = chunk.1 - chunk.0;
        let dhs = self.span(&self.dh[dir.ix()][l], dir, chunk);
        let sgs = self.span(&self.sg[dir.ix()][l], dir, chunk);
        let btotal = self.transfer(true, dir, l, NodeRef::Total(bc)).clone();
        let (weights, rows) = (self.weights.clone(), self.rows);
        let (zero, scratch) = (self.zero_state.clone(), self.scratch.clone());
        Arc::new(move || {
            let model = weights.snapshot();
            let cfg = model.config;
            let lam = lambda(dir_params(&model, l, dir));
            let mut scratch = scratch.lock();
            let ws = &mut scratch.ws;
            // Checkout zeroes the buffer: the chunk-local sweep starts
            // from a zero incoming adjoint.
            let mut carry = ws.checkout(rows, cfg.hidden_size);
            for i in (0..len).rev() {
                dhs[i].with(|dh_val| {
                    let dh_val = dh_val.unwrap_or(&zero.h);
                    sgs[i].write_in_place(
                        || StateGrad::zeros(cfg.cell, rows, cfg.hidden_size),
                        |sgv| {
                            bpar_tensor::ops::row_mul_add(lam, &carry, dh_val, &mut sgv.dh);
                            carry.copy_from(&sgv.dh);
                        },
                    )
                });
            }
            btotal.write_in_place(
                || transfer_zeros(rows, cfg.hidden_size),
                |(a, b)| {
                    a.fill(T::ONE);
                    for _ in 0..len {
                        bpar_tensor::ops::row_scale(lam, a);
                    }
                    b.copy_from(&carry);
                },
            );
            ws.give_back(carry);
        })
    }

    /// Adjoint fix-up: chunk `bc`'s incoming adjoint δ_in is the `b` of
    /// its exclusive prefix (the adjoint past the last timestep is zero);
    /// each position j gains λ^(j1-j) ⊙ δ_in.
    fn bscan_fix_body(&self, dir: Dir, l: usize, bc: usize) -> PlanBody {
        let (plan, _) = self.scan.as_ref().expect("scan slots");
        let pref = self
            .transfer(true, dir, l, plan.prefix_of_chunk[bc])
            .clone();
        let sgs = self.span(
            &self.sg[dir.ix()][l],
            dir,
            plan.chunks[plan.chunk_count() - 1 - bc],
        );
        let (weights, rows, scratch) = (self.weights.clone(), self.rows, self.scratch.clone());
        Arc::new(move || {
            let model = weights.snapshot();
            let lam = lambda(dir_params(&model, l, dir));
            let mut scratch = scratch.lock();
            let ws = &mut scratch.ws;
            let mut carry = ws.checkout(rows, model.config.hidden_size);
            pref.with(|p| {
                let (_, pb) = p.expect("missing adjoint prefix");
                carry.copy_from(pb);
            });
            for sg in sgs.iter().rev() {
                bpar_tensor::ops::row_scale(lam, &mut carry);
                sg.update(
                    || unreachable!("bscan_fix ran before its local sweep"),
                    |sgv| bpar_tensor::ops::axpy(T::ONE, &carry, &mut sgv.dh),
                );
            }
            ws.give_back(carry);
        })
    }

    /// Gradient task of forward chunk `c`: with the corrected total
    /// adjoint δ in hand, each timestep's parameter/input gradients follow
    /// from the cell's ordinary backward with a zero recurrent state-grad
    /// (the recurrence is already folded into δ). The chunk is walked
    /// descending so the accumulator adds timesteps in the chain
    /// executor's order for both directions.
    fn bscan_grad_body(&self, dir: Dir, l: usize, c: usize) -> PlanBody {
        let (plan, _) = self.scan.as_ref().expect("scan slots");
        let d = dir.ix();
        let sts = self.span(&self.st[d][l], dir, plan.chunks[c]);
        let sgs = self.span(&self.sg[d][l], dir, plan.chunks[c]);
        let dinputs = self.span(&self.dinput[d][l], dir, plan.chunks[c]);
        let (weights, gacc) = (self.weights.clone(), self.grads[d][l].clone());
        Arc::new(move || {
            let model = weights.snapshot();
            let params = dir_params(&model, l, dir);
            gacc.update(
                || params.zeros_like(),
                |g| {
                    for i in (0..sts.len()).rev() {
                        sts[i].with(|cached| {
                            let cache = cached.and_then(|(_, c)| c.as_ref());
                            let cache = cache.expect("missing forward cache");
                            sgs[i].with(|sgv| {
                                let delta = &sgv.expect("missing scan adjoint").dh;
                                let (dx, _sg_prev) = params.backward(cache, delta, None, g);
                                dinputs[i].put(dx);
                            });
                        });
                    }
                },
            );
        })
    }

    /// The cross-epoch-race probe: zero-fills `feat[0]`'s storage through
    /// the aliased handle. Every clause matches what the body touches —
    /// region-keyed clause validation and happens-before analysis both
    /// pass — but the graph admits schedules where the zero-fill lands
    /// between `merge_final` and the classifier, corrupting the logits.
    /// Only exhaustive schedule exploration, which keys conflicts on
    /// physical sites, can witness the divergence.
    fn epoch_probe_body(&self) -> PlanBody {
        let probe_src = self.st[0][0][0].clone();
        let aliased = self.alias.clone().expect("alias not seeded");
        let rows = self.rows;
        let width = self.config.merge.output_width(self.config.hidden_size);
        Arc::new(move || {
            // Touch the declared input so the recorded trace matches the
            // clauses exactly.
            probe_src.with(|_| {});
            aliased.write_in_place(
                || Matrix::zeros(rows, width),
                |m| m.as_mut_slice().fill(T::from_f64(0.0)),
            );
        })
    }

    /// Applies one optimizer step to `model` straight from this replica's
    /// resident gradient accumulators (replica 0 holds the reduced sum).
    /// Call only after `taskwait`.
    pub fn apply_grads(&self, model: &mut Brnn<T>, opt: &mut dyn Optimizer<T>) {
        const MISSING: &str = "missing gradient accumulator";
        model.apply_grads_with(
            opt,
            |l, dir, f| self.grads[dir.ix()][l].with(|g| f(g.expect(MISSING))),
            |f| self.grads_dense.with(|g| f(g.expect(MISSING))),
        );
    }

    /// A copy of this replica's accumulated gradients (zero where a
    /// replay left an accumulator empty). Call only after `taskwait`.
    pub fn grads(&self) -> BrnnGrads<T> {
        let model = self.weights.snapshot();
        let layers = (0..self.config.layers)
            .map(|l| {
                let copy = |dir: Dir| {
                    let own = self.grads[dir.ix()][l].with(|g| g.cloned());
                    own.unwrap_or_else(|| dir_params(&model, l, dir).zeros_like())
                };
                LayerPair {
                    fwd: copy(Dir::Fwd),
                    rev: copy(Dir::Rev),
                }
            })
            .collect();
        let dense = self.grads_dense.with(|g| g.cloned());
        BrnnGrads {
            layers,
            dense: dense.unwrap_or_else(|| model.dense.zeros_like()),
        }
    }

    /// The weighted loss this replica accumulated. Call after `taskwait`.
    pub fn loss(&self) -> f64 {
        self.loss.with(|l| l.copied().unwrap_or(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::merge::MergeMode;
    use crate::model::ModelKind;

    fn tiny() -> Brnn<f64> {
        Brnn::new(
            BrnnConfig {
                cell: CellKind::Lstm,
                input_size: 3,
                hidden_size: 2,
                layers: 1,
                seq_len: 2,
                output_size: 2,
                merge: MergeMode::Sum,
                kind: ModelKind::ManyToOne,
            },
            7,
        )
    }

    #[test]
    fn weight_store_copies_only_on_revision_change() {
        let mut model = tiny();
        let store = WeightStore::for_backend(&model, Backend::scalar());
        assert_eq!(store.deep_copies(), 1);

        // Unchanged model: sync is a no-op, the snapshot stays shared.
        let before = store.snapshot();
        assert!(!store.sync(&model));
        assert_eq!(store.deep_copies(), 1);
        assert!(Arc::ptr_eq(&before, &store.snapshot()));

        // Revision bump forces exactly one fresh copy — a clone, since
        // `before` still reads the old snapshot, which must not change.
        model.touch();
        assert!(store.sync(&model));
        assert!(!store.sync(&model));
        assert_eq!(store.deep_copies(), 2);
        assert!(!Arc::ptr_eq(&before, &store.snapshot()));
        assert_ne!(before.revision(), model.revision());
    }

    /// With no reader holding the snapshot, a re-sync copies the new
    /// weights into the snapshot's own buffers: same allocation, new
    /// values and revision.
    #[test]
    fn weight_store_resyncs_an_unshared_snapshot_in_place() {
        let mut model = tiny();
        let store = WeightStore::for_backend(&model, Backend::scalar());
        let before = Arc::as_ptr(&store.snapshot());
        let mut grads = model.zero_grads();
        grads.dense.w.fill(1.0);
        model.apply_grads(&mut crate::optim::Sgd::new(0.5), &grads);
        assert!(store.sync(&model));
        let after = store.snapshot();
        assert_eq!(
            Arc::as_ptr(&after),
            before,
            "re-sync reallocated the snapshot"
        );
        assert_eq!(after.revision(), model.revision());
        assert_eq!(after.max_param_diff(&model), 0.0);
        assert_eq!(store.deep_copies(), 2);
    }

    #[test]
    fn replica_rejects_mismatched_inputs() {
        let model = tiny();
        let store = Arc::new(WeightStore::for_backend(&model, Backend::scalar()));
        let mut regions = RegionAlloc::default();
        let xs: Vec<Matrix<f64>> = (0..2).map(|_| Matrix::zeros(4, 3)).collect();
        let body = BodyConfig {
            backend: Backend::scalar(),
            strategy: RecurrenceStrategy::Chain,
            train: false,
            workers: 1,
        };
        let rep = ReplicaGraph::new(store, xs, 1.0, &mut regions, body);
        let wrong_len: Vec<Matrix<f64>> = vec![Matrix::zeros(4, 3)];
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rep.load_inputs(&wrong_len, 0, 4)
        }))
        .is_err());
        let wrong_rows: Vec<Matrix<f64>> = (0..2).map(|_| Matrix::zeros(3, 3)).collect();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rep.load_inputs(&wrong_rows, 0, 3)
        }))
        .is_err());
    }
}
