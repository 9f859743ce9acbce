//! The serving loop: admission queue → micro-batcher → B-Par executor.
//!
//! One [`Server`] owns the model and a single resident
//! [`TaskGraphExec`] (and therefore one worker pool); the model stays
//! warm across batches instead of being re-materialized per request.
//! The executor caches one compiled execution plan per padded batch
//! shape, so a steady-state batch neither deep-copies the weights nor
//! re-resolves task dependencies — it swaps inputs into the cached
//! replicas and replays the frozen graph
//! (see [`Server::plan_cache_stats`]).
//! Batches formed by the [`MicroBatcher`] run with `mbs = 1`, which is
//! bit-identical to [`bpar_core::exec::SequentialExec`] — so with
//! exact-length buckets (`bucket_width == 1`, no padding) a served
//! response carries exactly the logits sequential inference would have
//! produced for that request alone.

use crate::batcher::{BatchPolicy, MicroBatcher};
use crate::breaker::{BreakerConfig, BreakerTransition, CircuitBreaker};
use crate::metrics::MetricsCollector;
use crate::pool::{BufferPool, PoolStats};
use crate::queue::{AdmissionQueue, BackpressurePolicy, Popped};
use crate::request::{InferRequest, InferResponse, Outcome, ResponseTiming};
use bpar_core::exec::{PlanCacheStats, TaskGraphExec};
use bpar_core::model::Brnn;
use bpar_core::scanplan::RecurrenceStrategy;
use bpar_runtime::{FaultConfig, FaultPlan, SchedulerPolicy};
use bpar_tensor::{BackendKind, Float};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry policy for batches that fail in the executor.
///
/// A failed request is re-executed as a **singleton** batch (poison
/// isolation: one bad request can no longer repeatedly kill its
/// batch-mates) after an exponential backoff with deterministic jitter.
/// Requests already past their deadline are not retried — a retry that
/// cannot possibly be served in time only steals executor capacity from
/// live traffic.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Re-execution attempts per request after its first failure.
    pub max_retries: u32,
    /// Backoff before retry `n` is `base · 2^(n-1)`, capped.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// Jitter amplitude as a fraction of the backoff: the delay is
    /// scaled by a deterministic factor in `[1 - f, 1 + f]` keyed on
    /// `(request id, attempt)`, decorrelating retry bursts without
    /// sacrificing replayability.
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(5),
            jitter_frac: 0.2,
        }
    }
}

impl RetryPolicy {
    /// Disables retries: a failed batch fails its requests immediately.
    pub fn disabled() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// Zero-delay retries (used by determinism tests, where any real
    /// sleep would make run timing part of the observable behaviour).
    pub fn immediate(max_retries: u32) -> Self {
        Self {
            max_retries,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            jitter_frac: 0.0,
        }
    }

    /// Backoff before retry `attempt` (1-based) of request `id`.
    pub fn backoff(&self, id: u64, attempt: u32) -> Duration {
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16))
            .min(self.backoff_cap);
        if self.jitter_frac <= 0.0 || exp.is_zero() {
            return exp;
        }
        // splitmix64 over (id, attempt): deterministic jitter.
        let mut x = id
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(attempt as u64);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let factor = 1.0 + self.jitter_frac * (2.0 * u - 1.0);
        exp.mul_f64(factor.max(0.0))
    }
}

/// Full serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// What a full queue does with new arrivals.
    pub policy: BackpressurePolicy,
    /// Micro-batch closing policy.
    pub batch: BatchPolicy,
    /// Runtime worker threads (`0` = available parallelism).
    pub workers: usize,
    /// Task scheduling policy for the worker pool.
    pub scheduler: SchedulerPolicy,
    /// What to do with requests whose batch failed in the executor.
    pub retry: RetryPolicy,
    /// When sustained failure trips degraded mode.
    pub breaker: BreakerConfig,
    /// Whether a request whose [`bpar_runtime::CancelCell`] is already
    /// claimed (its hedge twin won) is skipped instead of executed.
    /// `true` is the latency-optimizing mode: cancelled copies shed their
    /// remaining work, including mid-batch via the runtime's cancel
    /// token. `false` is the deterministic-redundancy mode: every copy
    /// executes fully and the claim decides only who *delivers*, so
    /// same-seed runs produce bit-identical work counters.
    pub cancel_sheds_work: bool,
    /// Byte budget for the serve-side buffer pool (`None` = unlimited).
    pub pool_byte_budget: Option<u64>,
    /// Byte budget for the executor's compiled-plan cache
    /// (`None` = unlimited). Tenant-keyed plans make this the knob that
    /// bounds per-replica model memory under many tenants.
    pub plan_byte_budget: Option<u64>,
    /// Kernel backend inference batches dispatch through. `Simd` (the
    /// default, vector kernels) and `Scalar` (the portable loops) both
    /// keep responses bit-identical to `SequentialExec`.
    pub backend: BackendKind,
    /// How each direction's recurrence executes. `Chain` (the default)
    /// is the paper's timestep chain, bit-identical to sequential;
    /// `Scan { chunks }` runs the Blelloch parallel scan over sequence
    /// chunks for scannable (diagonal linear) cells, within the
    /// documented scan tolerance, and falls back to the chain for
    /// everything else.
    pub recurrence: RecurrenceStrategy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            batch: BatchPolicy::new(8, Duration::from_millis(2)),
            workers: 0,
            scheduler: SchedulerPolicy::LocalityAware,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            cancel_sheds_work: true,
            pool_byte_budget: None,
            plan_byte_budget: None,
            backend: BackendKind::default(),
            recurrence: RecurrenceStrategy::Chain,
        }
    }
}

impl ServeConfig {
    /// Canonical string for [`crate::metrics::config_hash`]: every field
    /// that changes behaviour, in a fixed order.
    pub fn canonical(&self) -> String {
        format!(
            "cap={},policy={},max_batch={},window_us={},bucket_width={},workers={},sched={:?},\
             retries={},backoff_us={},backoff_cap_us={},jitter={},\
             brk_fail={},brk_win={},brk_rec={},\
             cancel_sheds={},pool_budget={},plan_budget={},backend={},recurrence={}",
            self.queue_capacity,
            self.policy.name(),
            self.batch.max_batch,
            self.batch.window.as_micros(),
            self.batch.bucket_width,
            self.workers,
            self.scheduler,
            self.retry.max_retries,
            self.retry.backoff_base.as_micros(),
            self.retry.backoff_cap.as_micros(),
            self.retry.jitter_frac,
            self.breaker.failure_threshold,
            self.breaker.window,
            self.breaker.recovery,
            self.cancel_sheds_work,
            self.pool_byte_budget.unwrap_or(0),
            self.plan_byte_budget.unwrap_or(0),
            self.backend,
            self.recurrence,
        )
    }
}

/// A failed request waiting for its singleton re-execution.
struct RetryEntry<T: Float> {
    req: InferRequest<T>,
    /// 1-based attempt number of the upcoming re-execution.
    attempt: u32,
    due: Instant,
}

/// Mutable serving-loop state threaded through batch execution, so a
/// failure can schedule retries and a breaker transition can flip the
/// batcher and queue into (or out of) degraded mode.
struct ServeState<'a, T: Float> {
    batcher: MicroBatcher<T>,
    breaker: CircuitBreaker,
    retries: VecDeque<RetryEntry<T>>,
    queue: &'a AdmissionQueue<T>,
    normal_policy: BackpressurePolicy,
    normal_max_batch: usize,
}

/// Inference server: resident models + resident executor + serving loop.
///
/// A server hosts one model per **tenant**; request `tenant` indexes
/// into that list. Tenants never share compiled plans (the executor's
/// plan cache is tenant-keyed — sharing would thrash weight revisions),
/// batches (the batcher keys buckets on tenant), or pooled buffers.
pub struct Server<T: Float> {
    models: Vec<Brnn<T>>,
    exec: TaskGraphExec,
    config: ServeConfig,
    /// Fault plan installed on the resident runtime, kept so reports can
    /// read the injection counters.
    fault: Mutex<Option<Arc<FaultPlan>>>,
    /// Per-batch input/output buffers, pooled by padded shape so a warm
    /// batch re-fills retained memory instead of allocating (the serve
    /// half of the executor's plan arena — see [`crate::pool`]).
    pool: Mutex<BufferPool<T>>,
    /// Latest [`crate::breaker::BreakerSnapshot`] encoding, published
    /// after every breaker record so a router can sample shard health
    /// without locking the serving loop.
    breaker_cell: Arc<AtomicU8>,
}

impl<T: Float> Server<T> {
    /// Builds a single-tenant server around `model`. The executor (and
    /// its worker pool) is created once here and reused for every batch.
    pub fn new(model: Brnn<T>, config: ServeConfig) -> Self {
        Self::with_tenants(vec![model], config)
    }

    /// Builds a multi-tenant server: `models[i]` serves requests whose
    /// `tenant == i`. One executor (and worker pool) is shared across
    /// tenants; plans, batches, and buffers stay tenant-isolated.
    pub fn with_tenants(models: Vec<Brnn<T>>, config: ServeConfig) -> Self {
        assert!(!models.is_empty(), "a server needs at least one tenant");
        // mbs = 1 keeps each batch bit-identical to sequential execution;
        // data parallelism comes from batching requests, not splitting
        // the batch again.
        let exec = TaskGraphExec::with_backend(config.workers, config.scheduler, 1, config.backend)
            .with_strategy(config.recurrence);
        exec.set_plan_byte_budget(config.plan_byte_budget);
        // Pool capacity mirrors the plan cache's order of magnitude: a
        // bucketed batcher produces one shape per (bucket, fill) pair, a
        // small bounded set.
        let pool = Mutex::new(BufferPool::new(32).with_byte_budget(config.pool_byte_budget));
        Self {
            models,
            exec,
            config,
            fault: Mutex::new(None),
            pool,
            breaker_cell: Arc::new(AtomicU8::new(0)),
        }
    }

    /// Installs a seeded [`FaultPlan`] on the resident runtime (chaos
    /// testing: injected task panics and stragglers). Returns the plan so
    /// callers can read its counters; [`Self::fault_plan`] retrieves it
    /// later. Install before serving so every batch runs under the plan.
    pub fn install_fault_plan(&self, config: FaultConfig) -> Arc<FaultPlan> {
        let plan = Arc::new(FaultPlan::new(config));
        self.exec.runtime().set_fault_plan(Some(plan.clone()));
        *self.fault.lock() = Some(plan.clone());
        plan
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault.lock().clone()
    }

    /// The resident model of tenant 0 (the only tenant for servers built
    /// with [`Server::new`]).
    pub fn model(&self) -> &Brnn<T> {
        &self.models[0]
    }

    /// The model serving `tenant`, if that tenant exists.
    pub fn tenant_model(&self, tenant: u32) -> Option<&Brnn<T>> {
        self.models.get(tenant as usize)
    }

    /// Number of resident tenants.
    pub fn tenants(&self) -> usize {
        self.models.len()
    }

    /// Shared cell holding the latest breaker snapshot
    /// ([`crate::breaker::BreakerSnapshot::as_u8`] encoding). Routers
    /// sample it to steer traffic away from degraded shards.
    pub fn breaker_cell(&self) -> Arc<AtomicU8> {
        self.breaker_cell.clone()
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Execution-plan cache counters of the resident executor. In steady
    /// state (`bucket_width == 1` or any bounded set of padded shapes)
    /// `misses` plateaus at the number of distinct batch shapes, while
    /// every plan of a tenant reads one weight store: `weight_syncs` is
    /// one seed per tenant (again only after all its plans were evicted)
    /// — no per-batch or per-plan model clones.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.exec.plan_cache_stats()
    }

    /// Per-batch buffer-pool counters. In steady state `misses` plateaus
    /// at the number of distinct padded batch shapes — the same plateau as
    /// [`Self::plan_cache_stats`]' `misses` — and every further batch
    /// reuses pooled buffers.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.lock().stats()
    }

    /// Runs the serving loop until `queue` is closed and fully drained
    /// (including partially filled buckets and pending retries). The
    /// loop is work-conserving: whenever the executor is free and a
    /// request is pending, a batch runs — formed from what has been
    /// admitted by then ([`MicroBatcher::next_batch`]) — so the executor
    /// never idles while a request waits.
    ///
    /// Serve-side outcomes — [`Outcome::Served`], deadline
    /// [`Outcome::Shed`]s, [`Outcome::Rejected`] for malformed requests,
    /// and [`Outcome::Failed`] after the retry budget — are recorded into
    /// `metrics` and forwarded to `on_outcome`. Admission-side outcomes
    /// (queue rejects/sheds) are the producer's to report.
    ///
    /// Failed batches feed the retry queue per [`RetryPolicy`]; executor
    /// health feeds the [`CircuitBreaker`], which in degraded mode
    /// shrinks batches to singletons and flips the queue's backpressure
    /// to [`BackpressurePolicy::Reject`] until a clean window passes.
    pub fn serve(
        &self,
        queue: &AdmissionQueue<T>,
        metrics: &mut MetricsCollector,
        mut on_outcome: impl FnMut(Outcome<T>),
    ) {
        let shed_expired = self.config.policy == BackpressurePolicy::ShedExpired;
        let mut st = ServeState {
            batcher: MicroBatcher::new(self.config.batch),
            breaker: CircuitBreaker::new(self.config.breaker),
            retries: VecDeque::new(),
            queue,
            normal_policy: self.config.policy,
            normal_max_batch: self.config.batch.max_batch,
        };
        let capacity = queue.capacity();
        loop {
            // Take in what has been admitted, up to one queue's worth in
            // the batcher: a closed loop's producer refills the queue as
            // fast as it drains, so without the bound the batcher, not
            // the producer, would absorb the backlog.
            let room = capacity.saturating_sub(st.batcher.pending());
            let exhausted = queue.drain_into(room, |req| st.batcher.offer(req));
            debug_assert!(
                st.batcher.pending() <= capacity,
                "the batcher holds at most one queue's worth of requests"
            );
            let now = Instant::now();
            if shed_expired {
                for req in st.batcher.take_expired(now) {
                    let outcome = Outcome::Shed { id: req.id };
                    metrics.record_outcome(&outcome);
                    on_outcome(outcome);
                }
            }
            // Due retries run before fresh batches: they are the oldest
            // work in the system, and a singleton retry is cheap. Once
            // nothing more can arrive, backoff is waived: waiting buys
            // nothing. Retries scheduled meanwhile queue behind, so every
            // request still reaches a terminal outcome.
            if let Some(pos) = st.retries.iter().position(|e| exhausted || now >= e.due) {
                let entry = st.retries.remove(pos).expect("position in bounds");
                self.execute(
                    vec![entry.req],
                    entry.attempt,
                    &mut st,
                    metrics,
                    &mut on_outcome,
                );
                continue;
            }
            // The executor is free: run whatever is pending now.
            if let Some(batch) = st.batcher.next_batch(now) {
                self.execute(batch, 0, &mut st, metrics, &mut on_outcome);
                continue;
            }
            if exhausted {
                break;
            }
            // Nothing to run: sleep until a request arrives or the next
            // retry comes due.
            match queue.pop_wait(st.retries.iter().map(|e| e.due).min()) {
                Popped::Item(req) => st.batcher.offer(req),
                Popped::TimedOut | Popped::Closed => {}
            }
        }
    }

    /// Executes one closed batch (`attempt == 0`) or singleton retry
    /// (`attempt >= 1`) and emits outcomes, schedules retries, and feeds
    /// the breaker.
    fn execute(
        &self,
        batch: Vec<InferRequest<T>>,
        attempt: u32,
        st: &mut ServeState<'_, T>,
        metrics: &mut MetricsCollector,
        on_outcome: &mut impl FnMut(Outcome<T>),
    ) {
        let close = Instant::now();
        let cancel_sheds = self.config.cancel_sheds_work;
        let mut live: Vec<InferRequest<T>> = Vec::with_capacity(batch.len());
        for req in batch {
            // A hedge twin already won this request: shed the copy before
            // spending executor time on it (latency mode only — the
            // deterministic-redundancy mode executes every copy fully).
            if cancel_sheds && req.cancel.as_ref().is_some_and(|c| c.is_claimed()) {
                let outcome = Outcome::Cancelled { id: req.id };
                metrics.record_outcome(&outcome);
                on_outcome(outcome);
                continue;
            }
            // Malformed sequences and unknown tenants can't be served;
            // bounce them rather than poisoning the whole batch.
            let dim = self
                .models
                .get(req.tenant as usize)
                .map(|m| m.config.input_size);
            let well_formed = dim
                .is_some_and(|dim| req.seq_len() > 0 && req.frames.iter().all(|f| f.len() == dim));
            if well_formed {
                live.push(req);
            } else {
                let outcome = Outcome::Rejected { id: req.id };
                metrics.record_outcome(&outcome);
                on_outcome(outcome);
            }
        }
        if live.is_empty() {
            return;
        }
        let tenant = live[0].tenant;
        debug_assert!(
            live.iter().all(|r| r.tenant == tenant),
            "batches are tenant-pure: the batcher keys buckets on tenant \
             and retries are singletons"
        );
        let model = &self.models[tenant as usize];
        let dim = model.config.input_size;
        let rows = live.len();
        let padded_len = live.iter().map(InferRequest::seq_len).max().unwrap_or(0);
        let real_frames: u64 = live.iter().map(|r| r.seq_len() as u64).sum();
        // Check the batch's working set out of the shape-keyed pool: one
        // `rows × input_size` matrix per timestep plus the output buffer.
        // Every row is fully overwritten — short sequences get their tail
        // zero-filled explicitly (none are short when `bucket_width == 1`),
        // so a reused buffer can't leak a previous batch's frames.
        let mut bufs = self.pool.lock().checkout(model, tenant, rows, padded_len);
        for (t, x) in bufs.xs.iter_mut().enumerate() {
            let data = x.as_mut_slice();
            for (r, req) in live.iter().enumerate() {
                let dst = &mut data[r * dim..(r + 1) * dim];
                match req.frames.get(t) {
                    Some(frame) => dst.copy_from_slice(frame),
                    None => dst.fill(T::ZERO),
                }
            }
        }
        // A singleton hedged request gets the runtime's cancel token: if
        // its twin wins mid-batch, the remaining task bodies are skipped
        // (the epoch completes cleanly; the unread garbage output is
        // discarded by the post-execution claim check below). Batches
        // with more than one request never install a token — the epoch
        // is shared, and one request's cancellation must not starve its
        // batch-mates.
        let token = if cancel_sheds && rows == 1 {
            live[0].cancel.clone()
        } else {
            None
        };
        if token.is_some() {
            self.exec.runtime().set_cancel_token(token);
        }
        // A task panic must not take the server down with it: the batch's
        // requests go to the retry queue (or fail) and the loop — and its
        // worker pool — keeps serving. The buffers go back to the pool on
        // both paths; partially written output is fine because the next
        // batch fully overwrites before reading.
        let result =
            self.exec
                .try_forward_into_keyed(tenant as u64, model, &bufs.xs, &mut bufs.out);
        if cancel_sheds && rows == 1 {
            self.exec.runtime().set_cancel_token(None);
        }
        if result.is_err() {
            self.pool.lock().give_back(tenant, rows, padded_len, bufs);
            self.breaker_record(true, st, metrics);
            let now = Instant::now();
            for req in live {
                // A copy whose twin won while it was failing sheds its
                // retries too (latency mode): nobody is waiting for it.
                if cancel_sheds && req.cancel.as_ref().is_some_and(|c| c.is_claimed()) {
                    let outcome = Outcome::Cancelled { id: req.id };
                    metrics.record_outcome(&outcome);
                    on_outcome(outcome);
                } else if attempt < self.config.retry.max_retries && !req.expired(now) {
                    metrics.record_retry(attempt == 0);
                    let due = now + self.config.retry.backoff(req.id, attempt + 1);
                    st.retries.push_back(RetryEntry {
                        req,
                        attempt: attempt + 1,
                        due,
                    });
                } else {
                    if attempt >= self.config.retry.max_retries && self.config.retry.max_retries > 0
                    {
                        metrics.record_retry_exhausted();
                    }
                    let outcome = Outcome::Failed { id: req.id };
                    metrics.record_outcome(&outcome);
                    on_outcome(outcome);
                }
            }
            return;
        }
        self.breaker_record(false, st, metrics);
        let done = Instant::now();
        let service = done.duration_since(close);
        metrics.record_batch(rows, padded_len, real_frames);
        for (r, req) in live.into_iter().enumerate() {
            // Hedged requests race for the claim: exactly one copy in the
            // fleet delivers `Served`; the rest observe a lost claim and
            // emit `Cancelled` (their computed output is discarded). The
            // mid-batch cancel token above makes a lost claim here also
            // the path that reports a body-skipped epoch: its claim was
            // taken, so its garbage output is never read.
            let delivers = match &req.cancel {
                Some(cell) => cell.try_claim(),
                None => true,
            };
            let outcome = if delivers {
                Outcome::Served(InferResponse {
                    id: req.id,
                    // The one remaining per-request allocation: a response
                    // outlives its batch and must own its logits row.
                    logits: bufs.out.logits.row(r).to_vec(),
                    timing: ResponseTiming {
                        queue_wait: close.duration_since(req.arrival),
                        service,
                        total: done.duration_since(req.arrival),
                        batch_rows: rows,
                        padded_len,
                        attempts: attempt,
                    },
                })
            } else {
                Outcome::Cancelled { id: req.id }
            };
            metrics.record_outcome(&outcome);
            on_outcome(outcome);
        }
        self.pool.lock().give_back(tenant, rows, padded_len, bufs);
    }

    /// Feeds one executor run into the breaker and applies any state
    /// transition: opening degrades the batcher to singletons and the
    /// queue to `Reject`; closing restores the configured policy.
    fn breaker_record(
        &self,
        failed: bool,
        st: &mut ServeState<'_, T>,
        metrics: &mut MetricsCollector,
    ) {
        match st.breaker.record(failed) {
            BreakerTransition::None => {}
            BreakerTransition::Opened => {
                metrics.record_breaker_opened();
                st.batcher.set_max_batch(1);
                st.queue.set_policy(BackpressurePolicy::Reject);
            }
            BreakerTransition::Closed => {
                metrics.record_breaker_closed();
                st.batcher.set_max_batch(st.normal_max_batch);
                st.queue.set_policy(st.normal_policy);
            }
        }
        self.breaker_cell
            .store(st.breaker.snapshot().as_u8(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Admission;
    use bpar_core::exec::{Executor, SequentialExec};
    use bpar_core::model::BrnnConfig;
    use bpar_runtime::CancelCell;
    use bpar_tensor::Matrix;
    use std::sync::Arc;

    fn tiny_model() -> Brnn<f32> {
        Brnn::new(
            BrnnConfig {
                input_size: 4,
                hidden_size: 3,
                layers: 1,
                seq_len: 5,
                output_size: 3,
                ..BrnnConfig::default()
            },
            7,
        )
    }

    fn frames(len: usize, dim: usize, salt: u64) -> Vec<Vec<f32>> {
        (0..len)
            .map(|t| {
                (0..dim)
                    .map(|c| ((salt as usize + 3 * t + c) % 7) as f32 * 0.25 - 0.5)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn serves_and_matches_sequential() {
        let model = tiny_model();
        let server = Server::new(
            model.clone(),
            ServeConfig {
                workers: 2,
                batch: BatchPolicy::new(4, Duration::from_millis(1)),
                ..ServeConfig::default()
            },
        );
        let queue = Arc::new(AdmissionQueue::new(16, BackpressurePolicy::Block));
        for id in 0..5u64 {
            let req = InferRequest::new(id, frames(3 + (id as usize % 3), 4, id));
            assert!(matches!(queue.push(req), Admission::Admitted { .. }));
        }
        queue.close();
        let mut metrics = MetricsCollector::new();
        let mut responses = Vec::new();
        server.serve(&queue, &mut metrics, |o| {
            if let Outcome::Served(r) = o {
                responses.push(r);
            }
        });
        assert_eq!(responses.len(), 5);
        let seq = SequentialExec;
        for resp in &responses {
            let fr = frames(3 + (resp.id as usize % 3), 4, resp.id);
            let xs: Vec<Matrix<f32>> = fr
                .iter()
                .map(|f| Matrix::from_vec(1, 4, f.clone()))
                .collect();
            let expect = seq.forward(&model, &xs);
            assert_eq!(resp.logits, expect.logits.row(0).to_vec());
        }
    }

    #[test]
    fn a_lone_request_does_not_wait_out_the_window() {
        // One request, an idle executor, a queue that stays open until the
        // response: the request must not wait for its bucket to fill or
        // its 1 s window to run out.
        let server = Server::new(
            tiny_model(),
            ServeConfig {
                workers: 1,
                batch: BatchPolicy::new(8, Duration::from_secs(1)),
                ..ServeConfig::default()
            },
        );
        let queue = AdmissionQueue::new(8, BackpressurePolicy::Block);
        queue.push(InferRequest::new(0, frames(4, 4, 0)));
        let mut metrics = MetricsCollector::new();
        let mut waits = Vec::new();
        server.serve(&queue, &mut metrics, |o| {
            if let Outcome::Served(r) = o {
                waits.push(r.timing.queue_wait);
            }
            queue.close();
        });
        assert_eq!(waits.len(), 1);
        assert!(
            waits[0] < Duration::from_millis(100),
            "queue wait {:?} against a 1 s window",
            waits[0]
        );
    }

    #[test]
    fn pooled_buffers_are_reused_across_batches() {
        // max_batch = 1 makes every batch a (1, 4) singleton: one padded
        // shape, so the pool and the plan arena must each allocate once
        // and serve every later batch from retained memory.
        let server = Server::new(
            tiny_model(),
            ServeConfig {
                workers: 2,
                batch: BatchPolicy::new(1, Duration::from_millis(1)),
                ..ServeConfig::default()
            },
        );
        let queue = AdmissionQueue::new(16, BackpressurePolicy::Block);
        for id in 0..6u64 {
            queue.push(InferRequest::new(id, frames(4, 4, id)));
        }
        queue.close();
        let mut metrics = MetricsCollector::new();
        server.serve(&queue, &mut metrics, |_| {});
        assert_eq!(metrics.served(), 6);
        let pool = server.pool_stats();
        assert_eq!(pool.misses, 1, "one shape allocates one buffer set");
        assert_eq!(pool.hits, 5);
        assert_eq!(pool.resident, 1);
        assert!(pool.resident_bytes > 0);
        let plans = server.plan_cache_stats();
        assert_eq!(plans.arena_reuses, 5, "five warm replays");
        assert!(plans.arena_bytes > 0);
    }

    #[test]
    fn executor_panic_fails_batch_but_server_survives() {
        // A model whose config promises more layers than it has: every
        // batch's first deep-layer task panics on the missing index. The
        // serve loop must turn that into per-request `Failed` outcomes
        // and keep draining — not abort the process.
        let mut model = tiny_model();
        model.config.layers += 1;
        let server = Server::new(
            model,
            ServeConfig {
                workers: 2,
                batch: BatchPolicy::new(2, Duration::from_millis(1)),
                ..ServeConfig::default()
            },
        );
        let queue = AdmissionQueue::new(8, BackpressurePolicy::Block);
        for id in 0..3u64 {
            queue.push(InferRequest::new(id, frames(4, 4, id)));
        }
        queue.close();
        let mut metrics = MetricsCollector::new();
        let mut failed = Vec::new();
        server.serve(&queue, &mut metrics, |o| {
            assert!(matches!(o, Outcome::Failed { .. }), "got {:?}", o.id());
            failed.push(o.id());
        });
        failed.sort_unstable();
        assert_eq!(failed, vec![0, 1, 2]);
        assert_eq!(metrics.failed(), 3);
        assert_eq!(metrics.served(), 0);
        // The broken plan was evicted rather than cached.
        assert_eq!(server.plan_cache_stats().cached_plans, 0);
    }

    #[test]
    fn malformed_requests_are_rejected_not_served() {
        let server = Server::new(tiny_model(), ServeConfig::default());
        let queue = AdmissionQueue::new(8, BackpressurePolicy::Block);
        queue.push(InferRequest::new(0, vec![])); // empty sequence
        queue.push(InferRequest::new(1, vec![vec![0.0; 9]])); // wrong width
        queue.push(InferRequest::new(2, frames(4, 4, 2)));
        // Unknown tenant: a single-tenant server only hosts tenant 0.
        queue.push(InferRequest::new(3, frames(4, 4, 3)).with_tenant(5));
        queue.close();
        let mut metrics = MetricsCollector::new();
        let mut got = Vec::new();
        server.serve(&queue, &mut metrics, |o| got.push(o.id()));
        assert_eq!(metrics.rejected(), 3);
        assert_eq!(metrics.served(), 1);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn tenants_get_their_own_models_and_plans() {
        // Two tenants with the same architecture but different weights:
        // each request must be answered by *its* tenant's model, and the
        // executor must cache one plan and one weight store per tenant
        // (revision thrash through a shared store would show up as more
        // than one weight sync per tenant).
        let model_a = tiny_model();
        let model_b = Brnn::<f32>::new(model_a.config, 99);
        // Singleton batches pin every execution to the (1, padded) shape,
        // so the plan count below is exactly one per tenant regardless of
        // arrival timing.
        let server = Server::with_tenants(
            vec![model_a.clone(), model_b.clone()],
            ServeConfig {
                workers: 2,
                batch: BatchPolicy::new(1, Duration::from_millis(1)),
                ..ServeConfig::default()
            },
        );
        let queue = AdmissionQueue::new(16, BackpressurePolicy::Block);
        for round in 0..3u64 {
            for tenant in 0..2u32 {
                let id = round * 2 + tenant as u64;
                queue.push(InferRequest::new(id, frames(4, 4, 7)).with_tenant(tenant));
            }
        }
        queue.close();
        let mut metrics = MetricsCollector::new();
        let mut responses = Vec::new();
        server.serve(&queue, &mut metrics, |o| {
            if let Outcome::Served(r) = o {
                responses.push(r);
            }
        });
        assert_eq!(responses.len(), 6);
        let seq = SequentialExec;
        let xs: Vec<Matrix<f32>> = frames(4, 4, 7)
            .iter()
            .map(|f| Matrix::from_vec(1, 4, f.clone()))
            .collect();
        let expect_a = seq.forward(&model_a, &xs).logits.row(0).to_vec();
        let expect_b = seq.forward(&model_b, &xs).logits.row(0).to_vec();
        assert_ne!(expect_a, expect_b, "different weights, different logits");
        for resp in &responses {
            let expect = if resp.id % 2 == 0 {
                &expect_a
            } else {
                &expect_b
            };
            assert_eq!(
                &resp.logits, expect,
                "request {} answered by wrong tenant",
                resp.id
            );
        }
        let plans = server.plan_cache_stats();
        assert_eq!(plans.cached_plans, 2, "one plan per tenant");
        assert_eq!(
            plans.weight_syncs, 2,
            "one seed per tenant, no revision thrash"
        );
        let snapshot = model_a.param_count() * std::mem::size_of::<f32>();
        assert_eq!(
            plans.weight_bytes,
            2 * snapshot as u64,
            "one snapshot per tenant"
        );
    }

    #[test]
    fn claimed_requests_cancel_instead_of_serving() {
        let server = Server::new(
            tiny_model(),
            ServeConfig {
                workers: 2,
                batch: BatchPolicy::new(1, Duration::from_millis(1)),
                ..ServeConfig::default()
            },
        );
        let queue = AdmissionQueue::new(8, BackpressurePolicy::Block);
        // Pre-claimed cell: the "other copy" already won, so this copy
        // must shed without executing.
        let lost = Arc::new(CancelCell::new());
        assert!(lost.try_claim());
        queue.push(InferRequest::new(0, frames(4, 4, 0)).with_cancel(lost));
        // Unclaimed cell: this copy wins the claim and serves.
        let won = Arc::new(CancelCell::new());
        queue.push(InferRequest::new(1, frames(4, 4, 1)).with_cancel(won.clone()));
        queue.push(InferRequest::new(2, frames(4, 4, 2))); // no cell at all
        queue.close();
        let mut metrics = MetricsCollector::new();
        let mut cancelled = Vec::new();
        let mut served = Vec::new();
        server.serve(&queue, &mut metrics, |o| match o {
            Outcome::Cancelled { id } => cancelled.push(id),
            Outcome::Served(r) => served.push(r.id),
            other => panic!("unexpected outcome for {}", other.id()),
        });
        assert_eq!(cancelled, vec![0]);
        served.sort_unstable();
        assert_eq!(served, vec![1, 2]);
        assert_eq!(metrics.cancelled(), 1);
        assert_eq!(metrics.served(), 2);
        assert!(won.is_claimed(), "serving a hedged request claims its cell");
    }
}
