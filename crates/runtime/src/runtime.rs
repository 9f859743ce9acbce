//! The live task runtime: worker pool, dynamic dependency resolution,
//! `taskwait`.
//!
//! This plays the role OmpSs/Nanos++ plays in the paper: tasks are submitted
//! with `in`/`out` clauses in program order, the dependency graph is built
//! on the fly, and ready tasks are dispatched to worker threads immediately
//! — execution overlaps submission and **no barrier** ever separates network
//! layers. The only synchronisation point is [`Runtime::taskwait`], the
//! equivalent of `#pragma omp taskwait` at the end of a training batch.

use crate::affinity;
use crate::cancel::CancelCell;
use crate::fault::{self, FaultPlan};
use crate::lockwitness::WitnessedMutex;
use crate::plan::CompiledPlan;
use crate::region::{DepTracker, RegionId};
use crate::scheduler::{ReadySet, SchedulerPolicy};
use crate::stats::{RuntimeStats, TaskRecord};
use crate::task::{TaskId, TaskSpec};
use crate::validate::{self, AccessRecorder, TaskScope};
use parking_lot::Condvar;
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

thread_local! {
    /// Index of the pool worker this thread is (`usize::MAX` off a pool).
    static WORKER: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Index (`0..workers`) of the runtime worker the calling thread is, or
/// `None` off a worker pool. A task body uses it to pick state that
/// belongs to the worker rather than to the task — one scratch arena per
/// worker, whatever the graph's size.
pub fn current_worker() -> Option<usize> {
    let w = WORKER.with(Cell::get);
    (w != usize::MAX).then_some(w)
}

/// Runtime construction parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads. `0` means "use available parallelism".
    pub workers: usize,
    /// Ready-queue policy (see [`SchedulerPolicy`]).
    pub policy: SchedulerPolicy,
    /// Whether to keep a per-task [`TaskRecord`] trace (cheap; on by
    /// default because the granularity experiments need it).
    pub record_trace: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            policy: SchedulerPolicy::default(),
            record_trace: true,
        }
    }
}

/// A task body: either a one-shot closure (live submission) or a shared
/// plan body that can be re-run every replay without re-boxing.
enum TaskBody {
    /// Live-submitted closure, consumed on execution.
    Once(Box<dyn FnOnce() + Send + 'static>),
    /// Body owned by a [`CompiledPlan`]; cloning is a refcount bump, so a
    /// replay materialises its tasks without touching the allocator.
    Shared(crate::plan::PlanBody),
}

impl TaskBody {
    fn run(self) {
        match self {
            TaskBody::Once(f) => f(),
            TaskBody::Shared(f) => f(),
        }
    }
}

/// Per-task bookkeeping held by the runtime.
struct TaskMeta {
    label: &'static str,
    tag: u64,
    working_set_bytes: usize,
    /// Unsatisfied predecessor count; ready when it reaches zero.
    pending: usize,
    /// Tasks to release on completion (live tasks only — replayed tasks
    /// read their frozen successor lists straight from the plan).
    succs: Vec<usize>,
    completed: bool,
    body: Option<TaskBody>,
}

/// State behind the central lock.
struct Inner {
    deps: DepTracker,
    tasks: Vec<TaskMeta>,
    ready: ReadySet,
    /// Submitted-but-not-completed task count.
    incomplete: usize,
    records: Vec<TaskRecord>,
    overhead: Duration,
    /// First panic payload observed in a task body.
    panicked: Option<String>,
    shutdown: bool,
    record_trace: bool,
    /// When set, workers wrap every task body in a [`TaskScope`] so slot
    /// accesses are attributed to the executing task (validation mode).
    validation: Option<Arc<AccessRecorder>>,
    /// When set, workers consult the plan before each task body and may
    /// panic or straggle on its behalf (fault-injection mode).
    fault: Option<Arc<FaultPlan>>,
    /// When set, workers check the cell before each task body and skip
    /// the body once the cell is claimed (hedged-dispatch cancellation).
    cancel: Option<Arc<CancelCell>>,
    /// The plan currently loaded by [`Runtime::replay`]. Tasks with an
    /// index inside this plan take their successor lists from it instead
    /// of from per-task `succs` vectors, which is what keeps a warm
    /// replay free of heap allocations.
    replayed: Option<Arc<CompiledPlan>>,
}

struct Shared {
    /// The central runtime lock, witnessed (see [`crate::lockwitness`]) so
    /// the verify tooling can audit the lock discipline the work-stealing
    /// refactor will later replace.
    inner: WitnessedMutex<Inner>,
    /// Signals workers that the ready set or shutdown flag changed.
    work_cv: Condvar,
    /// Signals `taskwait` that `incomplete` may have reached zero.
    done_cv: Condvar,
    epoch: Instant,
}

/// Task-based runtime with OmpSs-style dependency tracking.
///
/// See the [crate-level documentation](crate) for an example.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    n_workers: usize,
}

impl Runtime {
    /// Starts a runtime with `config.workers` worker threads.
    pub fn new(config: RuntimeConfig) -> Self {
        let n_workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            inner: WitnessedMutex::new(
                "runtime.inner",
                Inner {
                    deps: DepTracker::new(),
                    tasks: Vec::new(),
                    ready: ReadySet::new(config.policy, n_workers),
                    incomplete: 0,
                    records: Vec::new(),
                    overhead: Duration::ZERO,
                    panicked: None,
                    shutdown: false,
                    record_trace: config.record_trace,
                    validation: None,
                    fault: None,
                    cancel: None,
                    replayed: None,
                },
            ),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epoch: Instant::now(),
        });
        // A multi-worker pool binds each worker to a CPU of its own (see
        // [`crate::affinity`]); a lone worker inherits this thread's mask.
        let cpus = affinity::plan(n_workers);
        // The constructor returns once every worker thread is running, so
        // a thread's start-up allocations (its name, its thread-locals)
        // never land in a later batch — on an oversubscribed host a worker
        // can otherwise first run long after its pool started working.
        let started = Arc::new(std::sync::Barrier::new(n_workers + 1));
        let workers = (0..n_workers)
            .map(|w| {
                let (sh, started) = (shared.clone(), started.clone());
                let cpu = cpus.as_ref().map(|c| c[w]);
                std::thread::Builder::new()
                    .name(format!("bpar-worker-{w}"))
                    .spawn(move || {
                        if let Some(cpu) = cpu {
                            affinity::bind_current_thread(cpu);
                        }
                        WORKER.with(|i| i.set(w));
                        started.wait();
                        worker_loop(sh, w)
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        started.wait();
        Self {
            shared,
            workers,
            n_workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// Submits a task; it may start executing immediately if its
    /// dependencies are already satisfied.
    ///
    /// # Panics
    /// Panics if the spec has no body.
    pub fn submit(&self, spec: TaskSpec) -> TaskId {
        let TaskSpec {
            label,
            tag,
            ins,
            outs,
            working_set_bytes,
            body,
        } = spec;
        let body = body.expect("TaskSpec submitted without a body");

        let t0 = Instant::now();
        let mut inner = self.shared.inner.lock();
        let id = TaskId(inner.tasks.len());
        let preds = inner.deps.register(id, &ins, &outs);
        let mut pending = 0;
        for p in preds {
            let pm = &mut inner.tasks[p.index()];
            if !pm.completed {
                pm.succs.push(id.index());
                pending += 1;
            }
        }
        inner.tasks.push(TaskMeta {
            label,
            tag,
            working_set_bytes,
            pending,
            succs: Vec::new(),
            completed: false,
            body: Some(TaskBody::Once(body)),
        });
        inner.incomplete += 1;
        if pending == 0 {
            inner.ready.push(id.index(), None);
            self.shared.work_cv.notify_one();
        }
        inner.overhead += t0.elapsed();
        id
    }

    /// Blocks until every submitted task has completed.
    ///
    /// Returns the first task panic as an error (remaining tasks are still
    /// drained so the runtime stays usable). The error names the panicking
    /// task's label, so a long-running caller (e.g. a serving loop) can log
    /// which subgraph died.
    pub fn taskwait(&self) -> Result<(), String> {
        let mut inner = self.shared.inner.lock();
        while inner.incomplete > 0 {
            inner.wait(&self.shared.done_cv);
        }
        let result = match inner.panicked.take() {
            Some(msg) => Err(msg),
            None => Ok(()),
        };
        // Taskwait is the epoch barrier of the happens-before model: flush
        // the recorder's worker shards and advance its epoch so accesses
        // on either side of this wait are barrier-ordered, never racy.
        let recorder = inner.validation.clone();
        drop(inner);
        if let Some(rec) = recorder {
            rec.barrier();
        }
        result
    }

    /// Aggregate statistics over all tasks completed so far.
    pub fn stats(&self) -> RuntimeStats {
        let inner = self.shared.inner.lock();
        RuntimeStats::from_records(&inner.records, inner.overhead)
    }

    /// Removes and returns the trace collected so far.
    pub fn take_records(&self) -> Vec<TaskRecord> {
        std::mem::take(&mut self.shared.inner.lock().records)
    }

    /// Clears dependency history (so region ids can be reused for the next
    /// batch) and the trace. Must be called only when idle.
    ///
    /// # Panics
    /// Panics if tasks are still in flight.
    pub fn reset(&self) {
        let mut inner = self.shared.inner.lock();
        assert_eq!(inner.incomplete, 0, "reset() while tasks are in flight");
        inner.deps.clear();
        inner.tasks.clear();
        inner.records.clear();
        inner.overhead = Duration::ZERO;
        // Task indices restart at zero, so they must no longer resolve
        // successor lists against a previously replayed plan.
        inner.replayed = None;
    }

    /// Re-submits a whole [`CompiledPlan`] in one pass — the cheap
    /// steady-state path for graphs whose shape repeats batch after batch.
    ///
    /// Equivalent to `reset()` followed by submitting every task of the
    /// plan live, except that no dependency resolution happens: predecessor
    /// counts and successor lists were frozen at compile time, so the cost
    /// is one lock acquisition plus a copy of the per-task bookkeeping.
    /// Like `reset()`, this clears the previous batch's trace records and
    /// overhead accounting, so a long-running caller never accumulates
    /// per-batch state. Pair with [`Runtime::taskwait`] as usual.
    ///
    /// Returns the re-submission cost. It is measured while the runtime
    /// lock is still held — workers cannot start until the lock drops, so
    /// the figure is pure bookkeeping time, not contaminated by task
    /// execution stealing the caller's core.
    ///
    /// After the first replay of a given plan size, this path performs no
    /// heap allocations: task bodies are `Arc` clones of the plan's shared
    /// bodies, successor lists are read from the plan itself at completion
    /// time, and the bookkeeping vectors retain their capacity across
    /// replays.
    ///
    /// # Panics
    /// Panics if tasks are still in flight.
    pub fn replay(&self, plan: &Arc<CompiledPlan>) -> Duration {
        let t0 = Instant::now();
        let mut inner = self.shared.inner.lock();
        assert_eq!(inner.incomplete, 0, "replay() while tasks are in flight");
        inner.deps.clear();
        inner.tasks.clear();
        inner.records.clear();
        inner.overhead = Duration::ZERO;
        inner.tasks.reserve(plan.tasks.len());
        // Which queue depth a replay reaches depends on how the workers
        // interleave; room for every task means none of them allocates.
        inner.ready.reserve(plan.tasks.len());
        for (i, t) in plan.tasks.iter().enumerate() {
            inner.tasks.push(TaskMeta {
                label: t.label,
                tag: t.tag,
                working_set_bytes: t.working_set_bytes,
                pending: plan.pending[i],
                succs: Vec::new(),
                completed: false,
                body: Some(TaskBody::Shared(t.body.clone())),
            });
        }
        inner.replayed = Some(plan.clone());
        inner.incomplete = plan.tasks.len();
        for &root in &plan.roots {
            inner.ready.push(root, None);
        }
        let took = t0.elapsed();
        inner.overhead += took;
        drop(inner);
        if !plan.roots.is_empty() {
            self.shared.work_cv.notify_all();
        }
        took
    }

    /// Installs (or removes, with `None`) an [`AccessRecorder`]:
    /// while set, every task body — live or replayed — runs inside a
    /// [`TaskScope`] so `record_read`/`record_write` calls made by the
    /// body land in the recorder attributed to the task's index.
    ///
    /// Validation mode costs one `Arc` clone per task plus the recording
    /// itself; with no recorder installed the per-access overhead is a
    /// single relaxed atomic load. Install while idle (between
    /// `taskwait`s) so a batch is observed in full or not at all.
    pub fn set_validation(&self, recorder: Option<Arc<AccessRecorder>>) {
        let mut inner = self.shared.inner.lock();
        let was = inner.validation.is_some();
        let now = recorder.is_some();
        inner.validation = recorder;
        drop(inner);
        if was != now {
            validate::validation_installed(now);
        }
    }

    /// Installs (or removes, with `None`) a [`FaultPlan`]: while set,
    /// every task body — live or replayed — is preceded by a seeded,
    /// deterministic decision to run clean, panic, or straggle
    /// (see [`crate::fault`]).
    ///
    /// Injection mode costs one `Arc` clone per task plus the decision
    /// hash; with no plan installed the per-task overhead is a single
    /// relaxed atomic load. Install while idle (between `taskwait`s) so a
    /// batch is faulted in full or not at all.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        let mut inner = self.shared.inner.lock();
        let was = inner.fault.is_some();
        let now = plan.is_some();
        inner.fault = plan;
        drop(inner);
        if was != now {
            fault::fault_installed(now);
        }
    }

    /// Installs (or removes, with `None`) a [`CancelCell`]: while set,
    /// workers check the cell before each task body and, once it has been
    /// claimed by a competing copy of the same request, complete the
    /// remaining tasks of the current epoch *without running their
    /// bodies* — the losing side of a hedged pair stops burning executor
    /// time mid-replay.
    ///
    /// Skipped bodies still consume their fault draw (see
    /// [`crate::fault`]), so seeded injection stays schedule-independent.
    /// Unlike a panic, a cancelled epoch is not an error: `taskwait`
    /// returns `Ok`, and a replayed plan stays valid because forward-pass
    /// slots are fully overwritten by the next replay — the embedder must
    /// simply not read outputs of an epoch whose token was claimed.
    ///
    /// Install while idle (between `taskwait`s) so an epoch observes one
    /// token for its whole lifetime; [`Runtime::shutdown`] clears it.
    pub fn set_cancel_token(&self, cell: Option<Arc<CancelCell>>) {
        self.shared.inner.lock().cancel = cell;
    }

    /// True when the installed cancel token (if any) has been claimed —
    /// i.e. the epoch that just ran may have skipped bodies, and its
    /// outputs must not be read.
    pub fn cancel_claimed(&self) -> bool {
        self.shared
            .inner
            .lock()
            .cancel
            .as_ref()
            .is_some_and(|c| c.is_claimed())
    }

    /// Installs (or removes, with `None`) a ready-queue script: while set,
    /// workers pop ready tasks in exactly the scripted order (see
    /// [`crate::scheduler::ReadySet::set_script`]). This is how the
    /// schedule-exploration prong of `bpar-verify` replays one specific
    /// dependency-consistent topological order per run.
    ///
    /// The scripted order is only faithful with a single worker (with more
    /// workers, pops interleave with completions non-deterministically).
    /// Install while idle; a script does not reset on `replay`, so install
    /// a fresh one per explored schedule.
    pub fn set_schedule_script(&self, order: Option<Arc<[usize]>>) {
        self.shared.inner.lock().ready.set_script(order);
    }

    /// Convenience: submit a closure with explicit region clauses.
    pub fn spawn(
        &self,
        label: &'static str,
        ins: impl IntoIterator<Item = RegionId>,
        outs: impl IntoIterator<Item = RegionId>,
        body: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        self.submit(TaskSpec::new(label).ins(ins).outs(outs).body(body))
    }

    /// Drains in-flight work and joins every worker thread. Idempotent;
    /// also invoked by `Drop`, so long-running embedders (serving loops)
    /// can either call this explicitly to bound teardown or simply drop
    /// the runtime.
    ///
    /// Tasks already submitted still run to completion before the workers
    /// exit (the shutdown flag is only honoured once the ready set is
    /// empty), so no work is lost.
    pub fn shutdown(&mut self) {
        // Balance the global validation/fault users counters if the
        // embedder never uninstalled its recorder or plan.
        self.set_validation(None);
        self.set_fault_plan(None);
        self.set_cancel_token(None);
        {
            let mut inner = self.shared.inner.lock();
            if inner.shutdown && self.workers.is_empty() {
                return;
            }
            inner.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How many `work_cv` wakeups a completing worker must issue after
/// queueing `queued` newly released tasks.
///
/// On the classic path (no script, no direct handoff) the completing
/// worker takes one of the queued tasks itself on its next loop
/// iteration, so only the tasks *beyond* that one need a peer woken.
/// That assumption breaks in two cases, and under-notifying strands
/// ready tasks until the next unrelated wakeup:
///
/// * a schedule script is installed — the script may withhold every
///   queued task from this worker (scripted pops can target any task,
///   and the single scripted driver may be a *different* worker), so
///   every queued task needs a wakeup;
/// * the completing worker already took a successor by direct handoff —
///   its next iteration consumes the handoff, not the queue, so again
///   every queued task needs a peer.
fn wake_count(queued: usize, script_active: bool, direct_taken: bool) -> usize {
    if script_active || direct_taken {
        queued
    } else {
        queued.saturating_sub(1)
    }
}

/// Body of each worker thread.
fn worker_loop(shared: Arc<Shared>, worker: usize) {
    let mut inner = shared.inner.lock();
    // Immediate-successor execution (work-stealing policy only): the
    // first successor released by the task this worker just completed,
    // run next without ever touching a queue. The successor's inputs are
    // the completed task's outputs — still in this worker's cache.
    let mut handoff: Option<usize> = None;
    loop {
        if let Some(tid) = handoff.take().or_else(|| inner.ready.pop(worker)) {
            let body = inner.tasks[tid]
                .body
                .take()
                .expect("ready task lost its body");
            let recorder = inner.validation.clone();
            // `fault::active()` keeps the injection-off fast path at one
            // relaxed load; the per-task clone happens only while some
            // runtime has a plan installed.
            let plan = if fault::active() {
                inner.fault.clone()
            } else {
                None
            };
            let label = inner.tasks[tid].label;
            // A panic poisons the current wait epoch: the graph has
            // already failed, and a dependent of the dead task would
            // observe missing outputs if its body ran (it was only
            // released *because* completion bookkeeping must proceed to
            // keep taskwait from deadlocking). Poisoned tasks complete
            // without running their bodies.
            let poisoned = inner.panicked.is_some();
            // A claimed cancel token skips bodies the same way poisoning
            // does, but as a success: a competing copy of this request
            // already won, so the rest of this epoch is wasted work.
            let cancelled =
                !poisoned && inner.cancel.as_ref().is_some_and(|cell| cell.is_claimed());
            let start = shared.epoch.elapsed().as_secs_f64();
            drop(inner);

            let result = if poisoned || cancelled {
                // Still consume this task's fault draw: every task must
                // advance its occurrence counter exactly once per
                // execution, or which tasks drew would depend on worker
                // timing and same-seed runs would diverge.
                if let Some(plan) = plan {
                    plan.decide(tid, label);
                }
                drop(body);
                Ok(())
            } else {
                let _scope = recorder.map(|rec| TaskScope::enter_on(rec, tid, worker));
                std::panic::catch_unwind(AssertUnwindSafe(move || {
                    if let Some(plan) = plan {
                        plan.apply(tid, label);
                    }
                    body.run();
                }))
            };

            let end = shared.epoch.elapsed().as_secs_f64();
            let t0 = Instant::now();
            inner = shared.inner.lock();
            if let Err(payload) = result {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "task panicked".to_string());
                if inner.panicked.is_none() {
                    let label = inner.tasks[tid].label;
                    inner.panicked = Some(format!("task '{label}' panicked: {msg}"));
                }
            }
            if inner.record_trace {
                let m = &inner.tasks[tid];
                let rec = TaskRecord {
                    id: tid,
                    label: m.label,
                    tag: m.tag,
                    worker,
                    start,
                    end,
                    working_set_bytes: m.working_set_bytes,
                };
                inner.records.push(rec);
            }
            inner.tasks[tid].completed = true;
            // Replayed tasks keep their successor lists in the plan (frozen
            // at compile time, shared by every replay); live tasks own
            // theirs and surrender them on completion. Tasks submitted live
            // after a replay get indices beyond the plan and fall through
            // to the owned path.
            let frozen = match &inner.replayed {
                Some(p) if tid < p.tasks.len() => Some(p.clone()),
                _ => None,
            };
            let direct = inner.ready.direct_handoff();
            let mut queued = 0;
            if let Some(plan) = frozen {
                for &s in &plan.succs[tid] {
                    let sm = &mut inner.tasks[s];
                    sm.pending -= 1;
                    if sm.pending == 0 {
                        if direct && handoff.is_none() {
                            handoff = Some(s);
                        } else {
                            inner.ready.push(s, Some(worker));
                            queued += 1;
                        }
                    }
                }
            } else {
                let succs = std::mem::take(&mut inner.tasks[tid].succs);
                for s in succs {
                    let sm = &mut inner.tasks[s];
                    sm.pending -= 1;
                    if sm.pending == 0 {
                        if direct && handoff.is_none() {
                            handoff = Some(s);
                        } else {
                            inner.ready.push(s, Some(worker));
                            queued += 1;
                        }
                    }
                }
            }
            inner.incomplete -= 1;
            if inner.incomplete == 0 {
                shared.done_cv.notify_all();
            }
            // Wake peers for the newly queued tasks this worker will not
            // take itself (see `wake_count` for the script/handoff cases).
            for _ in 0..wake_count(queued, inner.ready.script_active(), handoff.is_some()) {
                shared.work_cv.notify_one();
            }
            inner.overhead += t0.elapsed();
        } else if inner.shutdown {
            return;
        } else {
            inner.wait(&shared.work_cv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;

    fn rt(workers: usize) -> Runtime {
        Runtime::new(RuntimeConfig {
            workers,
            ..Default::default()
        })
    }

    #[test]
    fn claimed_cancel_token_skips_bodies_without_error() {
        let r = rt(2);
        let cell = StdArc::new(CancelCell::new());
        assert!(cell.try_claim());
        r.set_cancel_token(Some(cell));
        let hit = StdArc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let h = hit.clone();
            r.spawn("t", [RegionId(0)], [RegionId(0)], move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Cancellation is a success, not a poisoned epoch.
        r.taskwait().unwrap();
        assert_eq!(hit.load(Ordering::SeqCst), 0);
        // Clearing the token restores normal execution.
        r.set_cancel_token(None);
        let h = hit.clone();
        r.spawn("t", [], [], move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        r.taskwait().unwrap();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unclaimed_cancel_token_changes_nothing() {
        let r = rt(2);
        let cell = StdArc::new(CancelCell::new());
        r.set_cancel_token(Some(cell.clone()));
        let hit = StdArc::new(AtomicUsize::new(0));
        let h = hit.clone();
        r.spawn("t", [], [], move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        r.taskwait().unwrap();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
        assert!(!cell.is_claimed());
    }

    #[test]
    fn bodies_see_their_worker_index() {
        assert_eq!(current_worker(), None, "the test thread is no worker");
        let r = rt(3);
        let seen = StdArc::new(Mutex::new(Vec::new()));
        for i in 0..30 {
            let s = seen.clone();
            r.spawn("t", [], [RegionId(i)], move || {
                s.lock().push(current_worker());
            });
        }
        r.taskwait().unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 30);
        assert!(seen.iter().all(|w| matches!(w, Some(0..=2))), "{:?}", *seen);
    }

    #[test]
    fn single_task_runs() {
        let r = rt(2);
        let hit = StdArc::new(AtomicUsize::new(0));
        let h = hit.clone();
        r.spawn("t", [], [], move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        r.taskwait().unwrap();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn chain_executes_in_order() {
        let r = rt(4);
        let log = StdArc::new(Mutex::new(Vec::new()));
        for i in 0..20 {
            let l = log.clone();
            // Chain through region 0: each task is RAW+WAW on the previous.
            r.spawn("t", [RegionId(0)], [RegionId(0)], move || {
                l.lock().push(i);
            });
        }
        r.taskwait().unwrap();
        assert_eq!(*log.lock(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn independent_tasks_all_run() {
        let r = rt(4);
        let count = StdArc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let c = count.clone();
            r.spawn("t", [], [RegionId(i)], move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        r.taskwait().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn diamond_dependency_order() {
        let r = rt(4);
        let state = StdArc::new(Mutex::new(Vec::new()));
        for (name, ins, outs) in [
            ("a", vec![], vec![RegionId(1)]),
            ("b", vec![RegionId(1)], vec![RegionId(2)]),
            ("c", vec![RegionId(1)], vec![RegionId(3)]),
            ("d", vec![RegionId(2), RegionId(3)], vec![RegionId(4)]),
        ] {
            let s = state.clone();
            r.spawn(name, ins, outs, move || {
                s.lock().push(name);
            });
        }
        r.taskwait().unwrap();
        let order = state.lock().clone();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], "a");
        assert_eq!(order[3], "d");
    }

    #[test]
    fn taskwait_propagates_panic_and_runtime_survives() {
        let r = rt(2);
        r.spawn("boom", [], [], || panic!("kaboom"));
        let err = r.taskwait().unwrap_err();
        assert!(err.contains("kaboom"));
        // The error names the failing task so callers can log which
        // subgraph died.
        assert!(err.contains("'boom'"), "missing label in: {err}");
        // Runtime still works afterwards.
        let ok = StdArc::new(AtomicUsize::new(0));
        let o = ok.clone();
        r.spawn("t", [], [], move || {
            o.store(7, Ordering::SeqCst);
        });
        r.taskwait().unwrap();
        assert_eq!(ok.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn panic_poisons_epoch_dependents_released_but_skipped() {
        // A dependent of a panicked task must still be *released* —
        // otherwise taskwait would deadlock — but its body must NOT run:
        // the producer died before writing its outputs, so running the
        // dependent would crash on missing state (a cascading secondary
        // panic that masks the real failure).
        let r = rt(2);
        let hit = StdArc::new(AtomicUsize::new(0));
        r.spawn("boom", [], [RegionId(1)], || panic!("x"));
        let h = hit.clone();
        r.spawn("after", [RegionId(1)], [], move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let err = r.taskwait().unwrap_err();
        assert!(err.contains("'boom'"), "first panic must surface: {err}");
        assert_eq!(
            hit.load(Ordering::SeqCst),
            0,
            "dependent body must be skipped in a poisoned epoch"
        );
        // The poison clears with the failed wait: the dependent region is
        // writable again and fresh tasks run normally.
        let h = hit.clone();
        r.spawn("retry", [], [RegionId(1)], move || {
            h.fetch_add(10, Ordering::SeqCst);
        });
        r.taskwait().unwrap();
        assert_eq!(hit.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn stats_and_trace_are_recorded() {
        let r = rt(2);
        for i in 0..10 {
            r.submit(
                TaskSpec::new("t")
                    .tag(i)
                    .outs([RegionId(i)])
                    .working_set(1000)
                    .body(|| std::thread::sleep(Duration::from_millis(2))),
            );
        }
        r.taskwait().unwrap();
        let stats = r.stats();
        assert_eq!(stats.tasks, 10);
        assert!(
            stats.total_task_time >= 0.019,
            "got {}",
            stats.total_task_time
        );
        assert!(stats.peak_working_set_bytes >= 1000);
        let records = r.take_records();
        assert_eq!(records.len(), 10);
        assert!(records.iter().all(|rec| rec.end >= rec.start));
    }

    #[test]
    fn taskwait_without_tasks_returns_immediately() {
        let r = rt(1);
        r.taskwait().unwrap();
    }

    #[test]
    fn reset_allows_region_reuse() {
        let r = rt(2);
        let flag = StdArc::new(AtomicUsize::new(0));
        let f = flag.clone();
        r.spawn("w", [], [RegionId(5)], move || {
            f.store(1, Ordering::SeqCst);
        });
        r.taskwait().unwrap();
        r.reset();
        // After reset, region 5 has no last writer: task is immediately ready.
        let f = flag.clone();
        r.spawn("r", [RegionId(5)], [], move || {
            assert_eq!(f.load(Ordering::SeqCst), 1);
        });
        r.taskwait().unwrap();
        assert_eq!(r.stats().tasks, 1); // trace was cleared by reset
    }

    #[test]
    #[should_panic(expected = "without a body")]
    fn bodyless_spec_is_rejected() {
        let r = rt(1);
        r.submit(TaskSpec::new("nobody"));
    }

    #[test]
    fn many_tasks_with_random_deps_complete() {
        let r = rt(4);
        let count = StdArc::new(AtomicUsize::new(0));
        for i in 0..500u64 {
            let c = count.clone();
            let ins = vec![RegionId(i % 13), RegionId((i * 7) % 13)];
            let outs = vec![RegionId((i * 3) % 13)];
            r.spawn("t", ins, outs, move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        r.taskwait().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn fifo_policy_also_executes_correctly() {
        let r = Runtime::new(RuntimeConfig {
            workers: 3,
            policy: SchedulerPolicy::Fifo,
            record_trace: true,
        });
        let log = StdArc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let l = log.clone();
            r.spawn("t", [RegionId(0)], [RegionId(0)], move || {
                l.lock().push(i);
            });
        }
        r.taskwait().unwrap();
        assert_eq!(*log.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn workers_zero_uses_available_parallelism() {
        let r = rt(0);
        assert!(r.workers() >= 1);
    }

    #[test]
    fn shutdown_joins_workers_and_is_idempotent() {
        let mut r = rt(3);
        let count = StdArc::new(AtomicUsize::new(0));
        for i in 0..32 {
            let c = count.clone();
            r.spawn("t", [], [RegionId(i)], move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        r.taskwait().unwrap();
        r.shutdown();
        r.shutdown(); // second call is a no-op
        assert_eq!(count.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn replay_runs_plan_bodies_each_time() {
        use crate::plan::{PlanBuilder, PlanSpec};
        let r = rt(4);
        let count = StdArc::new(AtomicUsize::new(0));
        let mut b = PlanBuilder::new();
        for i in 0..20u64 {
            let c = count.clone();
            b.submit(PlanSpec::new("t").outs([RegionId(i)]).body(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let plan = Arc::new(b.compile());
        for round in 1..=3 {
            r.replay(&plan);
            r.taskwait().unwrap();
            assert_eq!(count.load(Ordering::SeqCst), 20 * round);
        }
    }

    #[test]
    fn replay_respects_frozen_dependency_order() {
        use crate::plan::{PlanBuilder, PlanSpec};
        let r = rt(4);
        let log = StdArc::new(Mutex::new(Vec::new()));
        let mut b = PlanBuilder::new();
        for i in 0..20 {
            let l = log.clone();
            b.submit(
                PlanSpec::new("t")
                    .ins([RegionId(0)])
                    .outs([RegionId(0)])
                    .body(move || l.lock().push(i)),
            );
        }
        let plan = Arc::new(b.compile());
        for _ in 0..3 {
            log.lock().clear();
            r.replay(&plan);
            r.taskwait().unwrap();
            assert_eq!(*log.lock(), (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    fn replay_clears_previous_trace_and_stats() {
        use crate::plan::{PlanBuilder, PlanSpec};
        let r = rt(2);
        let mut b = PlanBuilder::new();
        for i in 0..7u64 {
            b.submit(PlanSpec::new("t").outs([RegionId(i)]).body(|| {}));
        }
        let plan = Arc::new(b.compile());
        for _ in 0..50 {
            r.replay(&plan);
            r.taskwait().unwrap();
            // Records never accumulate across replays: each batch's trace
            // replaces the previous one, so long serving runs stay bounded.
            assert_eq!(r.stats().tasks, 7);
            assert_eq!(r.take_records().len(), 7);
        }
    }

    #[test]
    fn replay_panic_surfaces_and_plan_stays_replayable() {
        use crate::plan::{PlanBuilder, PlanSpec};
        let r = rt(2);
        let hits = StdArc::new(AtomicUsize::new(0));
        let fail = StdArc::new(AtomicUsize::new(1));
        let mut b = PlanBuilder::new();
        let h = hits.clone();
        b.submit(PlanSpec::new("ok").outs([RegionId(0)]).body(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        let f = fail.clone();
        b.submit(PlanSpec::new("maybe").ins([RegionId(0)]).body(move || {
            if f.load(Ordering::SeqCst) == 1 {
                panic!("injected replay failure");
            }
        }));
        let plan = Arc::new(b.compile());
        r.replay(&plan);
        let err = r.taskwait().unwrap_err();
        assert!(err.contains("injected replay failure"), "{err}");
        assert!(err.contains("'maybe'"), "{err}");
        // Same runtime, same plan, failure disarmed: replay succeeds.
        fail.store(0, Ordering::SeqCst);
        r.replay(&plan);
        r.taskwait().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn replay_interleaves_with_live_submission() {
        use crate::plan::{PlanBuilder, PlanSpec};
        let r = rt(3);
        let count = StdArc::new(AtomicUsize::new(0));
        let mut b = PlanBuilder::new();
        let c = count.clone();
        b.submit(PlanSpec::new("planned").outs([RegionId(0)]).body(move || {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        let plan = Arc::new(b.compile());
        r.replay(&plan);
        r.taskwait().unwrap();
        // A live batch between replays works on the same runtime.
        let c = count.clone();
        r.spawn("live", [], [RegionId(0)], move || {
            c.fetch_add(10, Ordering::SeqCst);
        });
        r.taskwait().unwrap();
        r.replay(&plan);
        r.taskwait().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn empty_plan_replay_is_a_noop() {
        use crate::plan::PlanBuilder;
        let r = rt(1);
        let plan = Arc::new(PlanBuilder::new().compile());
        r.replay(&plan);
        r.taskwait().unwrap();
        assert_eq!(r.stats().tasks, 0);
    }

    #[test]
    fn validation_mode_attributes_accesses_to_tasks() {
        use crate::plan::{PlanBuilder, PlanSpec};
        use crate::validate::{record_read, record_write, AccessKind, AccessRecorder};

        let r = rt(2);
        let rec = StdArc::new(AccessRecorder::new());
        r.set_validation(Some(rec.clone()));

        // Live path: two chained tasks whose bodies self-report accesses.
        r.spawn("w", [], [RegionId(4)], || record_write(RegionId(4)));
        r.spawn("r", [RegionId(4)], [], || record_read(RegionId(4)));
        r.taskwait().unwrap();
        let ev = rec.take_events();
        assert_eq!(ev.len(), 2);
        assert_eq!((ev[0].task, ev[0].kind), (0, AccessKind::Write));
        assert_eq!((ev[1].task, ev[1].kind), (1, AccessKind::Read));

        // Replay path: the same attribution works for compiled plans.
        let mut b = PlanBuilder::new();
        b.submit(
            PlanSpec::new("p")
                .outs([RegionId(9)])
                .body(|| record_write(RegionId(9))),
        );
        let plan = Arc::new(b.compile());
        r.replay(&plan);
        r.taskwait().unwrap();
        let ev = rec.take_events();
        assert_eq!(ev.len(), 1);
        assert_eq!((ev[0].task, ev[0].region), (0, RegionId(9)));

        // Uninstalling stops recording.
        r.set_validation(None);
        r.spawn("q", [], [RegionId(1)], || record_write(RegionId(1)));
        r.taskwait().unwrap();
        assert!(rec.take_events().is_empty());
    }

    #[test]
    fn adversarial_policies_still_respect_dependencies() {
        use crate::scheduler::AdversarialOrder;
        for order in [
            AdversarialOrder::Reverse,
            AdversarialOrder::Random(7),
            AdversarialOrder::Random(999),
        ] {
            let r = Runtime::new(RuntimeConfig {
                workers: 1,
                policy: SchedulerPolicy::Adversarial(order),
                record_trace: false,
            });
            let log = StdArc::new(Mutex::new(Vec::new()));
            for i in 0..20 {
                let l = log.clone();
                // A dependency chain leaves no scheduling freedom: every
                // order must execute it 0..20.
                r.spawn("t", [RegionId(0)], [RegionId(0)], move || {
                    l.lock().push(i);
                });
            }
            r.taskwait().unwrap();
            assert_eq!(*log.lock(), (0..20).collect::<Vec<_>>(), "{order:?}");
        }
    }

    #[test]
    fn fault_plan_injects_panic_that_surfaces_at_taskwait() {
        use crate::fault::{FaultConfig, FaultPlan};
        let r = rt(2);
        let plan = StdArc::new(FaultPlan::new(FaultConfig {
            seed: 5,
            panic_rate: 1.0,
            ..FaultConfig::default()
        }));
        r.set_fault_plan(Some(plan.clone()));
        let ran = StdArc::new(AtomicUsize::new(0));
        let c = ran.clone();
        r.spawn("victim", [], [], move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        let err = r.taskwait().unwrap_err();
        assert!(err.contains("injected fault"), "{err}");
        assert!(err.contains("'victim'"), "{err}");
        assert_eq!(ran.load(Ordering::SeqCst), 0, "body must not run");
        assert_eq!(plan.injected_panics(), 1);
        // Uninstalling restores clean execution.
        r.set_fault_plan(None);
        let c = ran.clone();
        r.spawn("victim", [], [], move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        r.taskwait().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fault_plan_straggle_delays_but_completes() {
        use crate::fault::{FaultConfig, FaultPlan};
        let r = rt(2);
        let plan = StdArc::new(FaultPlan::new(FaultConfig {
            seed: 5,
            straggle_rate: 1.0,
            straggle: Duration::from_millis(2),
            ..FaultConfig::default()
        }));
        r.set_fault_plan(Some(plan.clone()));
        let count = StdArc::new(AtomicUsize::new(0));
        let t0 = Instant::now();
        for i in 0..4 {
            let c = count.clone();
            r.spawn("slow", [], [RegionId(i)], move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        r.taskwait().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 4);
        assert_eq!(plan.injected_straggles(), 4);
        // 4 tasks × 2ms over 2 workers ≥ ~4ms of injected delay.
        assert!(t0.elapsed() >= Duration::from_millis(4));
        r.set_fault_plan(None);
    }

    #[test]
    fn fault_plan_applies_to_replayed_plans() {
        use crate::fault::{FaultConfig, FaultPlan};
        use crate::plan::{PlanBuilder, PlanSpec};
        let r = rt(2);
        let mut b = PlanBuilder::new();
        for i in 0..8u64 {
            b.submit(PlanSpec::new("t").outs([RegionId(i)]).body(|| {}));
        }
        let compiled = Arc::new(b.compile());
        let fp = StdArc::new(FaultPlan::new(FaultConfig {
            seed: 13,
            panic_rate: 1.0,
            panic_budget: 3,
            ..FaultConfig::default()
        }));
        r.set_fault_plan(Some(fp.clone()));
        // Replays fail while budget remains, then run clean.
        let mut failures = 0;
        for _ in 0..5 {
            r.replay(&compiled);
            if r.taskwait().is_err() {
                failures += 1;
            }
        }
        assert_eq!(fp.injected_panics(), 3);
        assert!(failures >= 1, "budgeted panics must fail some replay");
        r.replay(&compiled);
        r.taskwait().unwrap(); // budget exhausted: clean
        r.set_fault_plan(None);
    }

    #[test]
    fn schedule_script_replays_exact_topological_order() {
        use crate::plan::{PlanBuilder, PlanSpec};
        let r = Runtime::new(RuntimeConfig {
            workers: 1,
            policy: SchedulerPolicy::Fifo,
            record_trace: false,
        });
        // Four independent tasks: every permutation is a legal schedule.
        let log = StdArc::new(Mutex::new(Vec::new()));
        let mut b = PlanBuilder::new();
        for i in 0..4u64 {
            let l = log.clone();
            b.submit(PlanSpec::new("t").outs([RegionId(i)]).body(move || {
                l.lock().push(i as usize);
            }));
        }
        let plan = Arc::new(b.compile());
        for order in [vec![2, 0, 3, 1], vec![3, 2, 1, 0], vec![0, 1, 2, 3]] {
            log.lock().clear();
            r.set_schedule_script(Some(order.clone().into()));
            r.replay(&plan);
            r.taskwait().unwrap();
            assert_eq!(*log.lock(), order);
        }
        // Clearing the script restores the policy order.
        r.set_schedule_script(None);
        log.lock().clear();
        r.replay(&plan);
        r.taskwait().unwrap();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shutdown_drains_submitted_work() {
        // Work submitted but not yet awaited still completes before the
        // workers join: shutdown must not drop queued tasks.
        let mut r = rt(2);
        let count = StdArc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let c = count.clone();
            // Chain through one region so tasks release one another while
            // the shutdown flag is already set.
            r.spawn("chain", [RegionId(0)], [RegionId(0)], move || {
                std::thread::sleep(Duration::from_millis(1));
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        r.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn wake_count_covers_script_and_handoff_cases() {
        // Classic path: the completing worker takes one queued task
        // itself, so n queued tasks need n-1 peer wakeups.
        assert_eq!(wake_count(0, false, false), 0);
        assert_eq!(wake_count(1, false, false), 0);
        assert_eq!(wake_count(3, false, false), 2);
        // Script installed: the script may withhold every queued task
        // from this worker. The old `for _ in 1..released` loop issued 0
        // wakeups for 1 released task here.
        assert_eq!(wake_count(1, true, false), 1);
        assert_eq!(wake_count(3, true, false), 3);
        // Direct handoff taken: this worker's next iteration consumes the
        // handoff, not the queue.
        assert_eq!(wake_count(1, false, true), 1);
        assert_eq!(wake_count(2, true, true), 2);
        assert_eq!(wake_count(0, true, true), 0);
    }

    #[test]
    fn scripted_run_never_strands_a_ready_task() {
        use crate::plan::{PlanBuilder, PlanSpec};
        // Regression for wakeup under-notification: a fan-out whose
        // script takes the released tasks in an order the policy would
        // not. Every task must still run (no stranded ready task), driven
        // by a single worker as set_script's contract requires. The old
        // accounting skipped one wakeup per completion on the assumption
        // that the completing worker takes a released task — under a
        // script it may not, and only the always-pop-before-wait worker
        // loop hid the bug; this pins the contract directly.
        let r = Runtime::new(RuntimeConfig {
            workers: 1,
            policy: SchedulerPolicy::Fifo,
            record_trace: false,
        });
        let log = StdArc::new(Mutex::new(Vec::new()));
        let mut b = PlanBuilder::new();
        // Root 0 releases 1..=4 at once; the script defers task 1 to last.
        let l = log.clone();
        b.submit(PlanSpec::new("root").outs([RegionId(0)]).body(move || {
            l.lock().push(0usize);
        }));
        for i in 1..5u64 {
            let l = log.clone();
            b.submit(
                PlanSpec::new("leaf")
                    .ins([RegionId(0)])
                    .outs([RegionId(i)])
                    .body(move || {
                        l.lock().push(i as usize);
                    }),
            );
        }
        let plan = Arc::new(b.compile());
        for _ in 0..50 {
            log.lock().clear();
            r.set_schedule_script(Some(vec![0, 4, 3, 2, 1].into()));
            r.replay(&plan);
            r.taskwait().unwrap();
            assert_eq!(*log.lock(), vec![0, 4, 3, 2, 1]);
        }
    }

    #[test]
    fn work_stealing_executes_chains_correctly() {
        let r = Runtime::new(RuntimeConfig {
            workers: 4,
            policy: SchedulerPolicy::WorkStealing,
            record_trace: true,
        });
        let log = StdArc::new(Mutex::new(Vec::new()));
        // Four independent chains of dependent tasks: exercises direct
        // handoff (each completion releases exactly one successor).
        for c in 0..4u64 {
            for i in 0..25usize {
                let l = log.clone();
                r.spawn("link", [RegionId(c)], [RegionId(c)], move || {
                    l.lock().push((c, i));
                });
            }
        }
        r.taskwait().unwrap();
        let got = log.lock().clone();
        assert_eq!(got.len(), 100);
        for c in 0..4u64 {
            let chain: Vec<usize> = got
                .iter()
                .filter(|&&(cc, _)| cc == c)
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(chain, (0..25).collect::<Vec<_>>(), "chain {c} order");
        }
    }

    #[test]
    fn work_stealing_fan_out_runs_every_task_exactly_once() {
        // A completion that releases many successors at once: one goes by
        // direct handoff, the rest are queued and must all be woken (the
        // handoff arm of wake_count).
        let r = Runtime::new(RuntimeConfig {
            workers: 4,
            policy: SchedulerPolicy::WorkStealing,
            record_trace: false,
        });
        for _ in 0..20 {
            let count = StdArc::new(AtomicUsize::new(0));
            let c0 = count.clone();
            r.spawn("root", [], [RegionId(0)], move || {
                c0.fetch_add(1, Ordering::SeqCst);
            });
            for i in 1..32u64 {
                let c = count.clone();
                r.spawn("leaf", [RegionId(0)], [RegionId(i)], move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            r.taskwait().unwrap();
            assert_eq!(count.load(Ordering::SeqCst), 32);
            r.reset();
        }
    }

    #[test]
    fn work_stealing_replay_matches_live_results() {
        use crate::plan::{PlanBuilder, PlanSpec};
        let r = Runtime::new(RuntimeConfig {
            workers: 3,
            policy: SchedulerPolicy::WorkStealing,
            record_trace: false,
        });
        let count = StdArc::new(AtomicUsize::new(0));
        let mut b = PlanBuilder::new();
        for i in 0..30u64 {
            let c = count.clone();
            let (ins, outs) = if i % 5 == 0 {
                (vec![], vec![RegionId(i)])
            } else {
                (vec![RegionId(i - 1)], vec![RegionId(i)])
            };
            b.submit(PlanSpec::new("t").ins(ins).outs(outs).body(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let plan = Arc::new(b.compile());
        for replay in 1..=10 {
            r.replay(&plan);
            r.taskwait().unwrap();
            assert_eq!(count.load(Ordering::SeqCst), 30 * replay);
        }
    }
}
