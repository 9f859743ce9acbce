//! Serving metrics: latency percentiles, batch shape distributions,
//! shed/reject accounting, and the JSON-serializable [`ServingReport`].
//!
//! Reports follow the repo's `results/` convention (see `bpar-bench`):
//! every number that reaches JSON is derived from seeded, deterministic
//! inputs, and [`report_name`] derives the filename from the seed and a
//! hash of the configuration — never from wall-clock time — so repeated
//! runs of the same configuration overwrite the same file.

use crate::request::Outcome;
use bpar_tensor::Float;
use serde::Serialize;
use std::time::Duration;

/// Latency summary in microseconds, nearest-rank percentiles.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
    /// Maximum.
    pub max_us: u64,
}

impl LatencyStats {
    /// Summarizes a sample set (consumes and sorts it).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        // Accumulate the mean in f64: a u64 sum overflows after ~2^64 µs
        // of total latency, which a long run with stragglers (or any run
        // with pathological samples) can actually reach.
        let sum: f64 = samples.iter().map(|&s| s as f64).sum();
        let rank = |q: f64| -> u64 {
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            samples[idx]
        };
        Self {
            count: n as u64,
            mean_us: sum / n as f64,
            p50_us: rank(0.50),
            p95_us: rank(0.95),
            p99_us: rank(0.99),
            p999_us: rank(0.999),
            max_us: samples[n - 1],
        }
    }
}

/// One bar of the batch-size histogram.
#[derive(Debug, Clone, Serialize)]
pub struct BatchRowsBar {
    /// Rows in the batch.
    pub rows: usize,
    /// How many batches closed with exactly this many rows.
    pub count: u64,
}

/// Full result of one serving run, serialized to `results/`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServingReport {
    /// Load-generator mode: `"open"` (Poisson) or `"closed"`.
    pub mode: String,
    /// Load-generator seed.
    pub seed: u64,
    /// Offered rate (open loop) or 0 for closed loop.
    pub rate_rps: f64,
    /// Batching window in microseconds.
    pub window_us: u64,
    /// Maximum rows per batch.
    pub max_batch: usize,
    /// Sequence-length bucket width.
    pub bucket_width: usize,
    /// Backpressure policy name.
    pub policy: String,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Runtime worker threads.
    pub workers: usize,
    /// Requests submitted by the load generator.
    pub submitted: u64,
    /// Requests served with a response.
    pub served: u64,
    /// Requests shed (deadline expired before service).
    pub shed: u64,
    /// Requests refused admission.
    pub rejected: u64,
    /// Requests whose batch failed in the executor (task panic).
    pub failed: u64,
    /// Hedged copies that lost the claim race (no client-visible result;
    /// the winning copy is counted under `served`).
    pub cancelled: u64,
    /// Wall time from first submission to last outcome, seconds.
    pub duration_s: f64,
    /// Served requests per second of `duration_s`.
    pub throughput_rps: f64,
    /// End-to-end latency of served requests (arrival → response).
    pub latency: LatencyStats,
    /// Arrival → batch-close wait of served requests.
    pub queue_wait: LatencyStats,
    /// Batch-close → response (forward pass) of served requests.
    pub service: LatencyStats,
    /// Singleton retry executions scheduled after batch failures.
    pub retries: u64,
    /// Distinct requests pulled out of a failed batch into singleton
    /// re-execution (poison isolation).
    pub poison_isolated: u64,
    /// Requests that failed terminally after spending their whole retry
    /// budget.
    pub retry_exhausted: u64,
    /// Circuit-breaker trips into degraded mode.
    pub breaker_opened: u64,
    /// Circuit-breaker recoveries back to normal operation.
    pub breaker_closed: u64,
    /// Task panics injected by an installed fault plan.
    pub injected_panics: u64,
    /// Straggler sleeps injected by an installed fault plan.
    pub injected_straggles: u64,
    /// Mean admission-queue depth, **admission-sampled**: the average of
    /// the depths observed at each successful admission (event-weighted).
    /// It is *not* a time-weighted average — quiet periods contribute no
    /// samples, so bursty arrivals pull this toward the depths they
    /// themselves create.
    pub queue_depth_mean: f64,
    /// Maximum admission-queue depth.
    pub queue_depth_max: usize,
    /// Full admission-sampled queue-depth distribution (same samples as
    /// `queue_depth_mean`). The values are **depths in requests**, not
    /// microseconds — the `_us` field names are inherited from the shared
    /// percentile summarizer. The router's least-loaded policy samples
    /// the identical statistic at routing time.
    pub queue_depth: LatencyStats,
    /// Plans evicted from the tenant-keyed plan cache to stay under its
    /// byte budget (0 when no budget is set).
    pub tenant_evictions: u64,
    /// Batches executed.
    pub batches: u64,
    /// Mean rows per batch.
    pub batch_rows_mean: f64,
    /// Mean `rows / max_batch` across batches.
    pub batch_fill_mean: f64,
    /// Padding frames as a fraction of all frames computed (0 when
    /// `bucket_width == 1`).
    pub padding_frac: f64,
    /// Batch-size distribution.
    pub batch_rows_hist: Vec<BatchRowsBar>,
    /// Execution-plan cache hits (batches replaying a compiled graph).
    pub plan_hits: u64,
    /// Plan-cache misses (batches that built + compiled a new graph).
    pub plan_misses: u64,
    /// Plans dropped for capacity.
    pub plan_evictions: u64,
    /// Model deep copies over the whole run: one seed per tenant's weight
    /// store (again only after all of a tenant's plans were evicted) plus
    /// one per model revision — never one per batch or per plan.
    pub weight_syncs: u64,
    /// Bytes of persistent plan arena resident in the executor's plan
    /// cache at the end of the run (inputs, states, caches, merges,
    /// logits retained between replays).
    pub arena_bytes: u64,
    /// Bytes of the weight snapshots those plans read at the end of the
    /// run: one per tenant with a resident plan.
    pub weight_bytes: u64,
    /// Warm replays that reused a resident plan's arena instead of
    /// allocating fresh buffers (one per plan-cache hit).
    pub arena_reuses: u64,
    /// Batches whose input/output buffers came from the server's
    /// shape-keyed pool (no per-batch allocation).
    pub pool_hits: u64,
    /// Batches that allocated a fresh buffer set for a new padded shape.
    /// Plateaus at the number of distinct shapes, like `plan_misses`.
    pub pool_misses: u64,
    /// Bytes of pooled per-batch buffers parked at the end of the run.
    pub pool_bytes: u64,
}

/// Accumulates per-request outcomes and per-batch shapes into a
/// [`ServingReport`].
#[derive(Debug, Default)]
pub struct MetricsCollector {
    latency_us: Vec<u64>,
    queue_wait_us: Vec<u64>,
    service_us: Vec<u64>,
    served: u64,
    shed: u64,
    rejected: u64,
    failed: u64,
    cancelled: u64,
    batch_rows: Vec<usize>,
    total_frames: u64,
    padded_frames: u64,
    retries: u64,
    poison_isolated: u64,
    retry_exhausted: u64,
    breaker_opened: u64,
    breaker_closed: u64,
}

impl MetricsCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request's terminal outcome.
    pub fn record_outcome<T: Float>(&mut self, outcome: &Outcome<T>) {
        match outcome {
            Outcome::Served(resp) => {
                self.served += 1;
                self.latency_us.push(resp.timing.total.as_micros() as u64);
                self.queue_wait_us
                    .push(resp.timing.queue_wait.as_micros() as u64);
                self.service_us.push(resp.timing.service.as_micros() as u64);
            }
            Outcome::Shed { .. } => self.shed += 1,
            Outcome::Rejected { .. } => self.rejected += 1,
            Outcome::Failed { .. } => self.failed += 1,
            Outcome::Cancelled { .. } => self.cancelled += 1,
        }
    }

    /// Records one executed batch: its row count, the padded sequence
    /// length, and the sum of real (unpadded) frames across rows.
    pub fn record_batch(&mut self, rows: usize, padded_len: usize, real_frames: u64) {
        self.batch_rows.push(rows);
        self.total_frames += (rows * padded_len) as u64;
        self.padded_frames += (rows * padded_len) as u64 - real_frames;
    }

    /// Served count so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Shed count so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Rejected count so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Failed count so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Cancelled (hedge-loser) count so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Records one scheduled singleton retry; `first` marks the
    /// request's first retry (counts it as poison-isolated).
    pub fn record_retry(&mut self, first: bool) {
        self.retries += 1;
        if first {
            self.poison_isolated += 1;
        }
    }

    /// Records a request failing terminally with its retry budget spent.
    pub fn record_retry_exhausted(&mut self) {
        self.retry_exhausted += 1;
    }

    /// Records a circuit-breaker trip into degraded mode.
    pub fn record_breaker_opened(&mut self) {
        self.breaker_opened += 1;
    }

    /// Records a circuit-breaker recovery.
    pub fn record_breaker_closed(&mut self) {
        self.breaker_closed += 1;
    }

    /// Retries scheduled so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Breaker trips so far.
    pub fn breaker_opened(&self) -> u64 {
        self.breaker_opened
    }

    /// Breaker recoveries so far.
    pub fn breaker_closed(&self) -> u64 {
        self.breaker_closed
    }

    /// Finalizes the report. `max_batch` is the policy cap (for fill),
    /// `duration` the span from first submission to last outcome.
    pub fn finish(self, max_batch: usize, duration: Duration) -> ServingReport {
        let batches = self.batch_rows.len() as u64;
        let rows_sum: usize = self.batch_rows.iter().sum();
        let mut hist: Vec<BatchRowsBar> = Vec::new();
        let mut sorted_rows = self.batch_rows.clone();
        sorted_rows.sort_unstable();
        for rows in sorted_rows {
            match hist.last_mut() {
                Some(bar) if bar.rows == rows => bar.count += 1,
                _ => hist.push(BatchRowsBar { rows, count: 1 }),
            }
        }
        let secs = duration.as_secs_f64();
        ServingReport {
            served: self.served,
            shed: self.shed,
            rejected: self.rejected,
            failed: self.failed,
            cancelled: self.cancelled,
            duration_s: secs,
            throughput_rps: if secs > 0.0 {
                self.served as f64 / secs
            } else {
                0.0
            },
            latency: LatencyStats::from_samples(self.latency_us),
            queue_wait: LatencyStats::from_samples(self.queue_wait_us),
            service: LatencyStats::from_samples(self.service_us),
            retries: self.retries,
            poison_isolated: self.poison_isolated,
            retry_exhausted: self.retry_exhausted,
            breaker_opened: self.breaker_opened,
            breaker_closed: self.breaker_closed,
            batches,
            batch_rows_mean: if batches > 0 {
                rows_sum as f64 / batches as f64
            } else {
                0.0
            },
            batch_fill_mean: if batches > 0 {
                rows_sum as f64 / (batches as usize * max_batch.max(1)) as f64
            } else {
                0.0
            },
            padding_frac: if self.total_frames > 0 {
                self.padded_frames as f64 / self.total_frames as f64
            } else {
                0.0
            },
            batch_rows_hist: hist,
            ..ServingReport::default()
        }
    }
}

/// FNV-1a hash of a canonical configuration string.
pub fn config_hash(canonical: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in canonical.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic `results/` basename: seed plus a configuration hash,
/// no wall-clock component. The `prefix` (bench binary name) is folded
/// into the hash as well, so two binaries sweeping an identical
/// seed+config cannot collide on a filename.
pub fn report_name(prefix: &str, seed: u64, canonical_config: &str) -> String {
    let keyed = format!("{prefix}|{canonical_config}");
    format!("{prefix}_s{seed}_{:08x}", config_hash(&keyed) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{InferResponse, ResponseTiming};

    #[test]
    fn percentiles_nearest_rank() {
        let s = LatencyStats::from_samples((1..=100).collect());
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p95_us, 95);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.p999_us, 100);
        assert_eq!(s.max_us, 100);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn mean_survives_samples_whose_u64_sum_overflows() {
        // Two samples near u64::MAX: the old u64 accumulator wrapped and
        // reported a tiny mean; the f64 path stays near the true value.
        let s = LatencyStats::from_samples(vec![u64::MAX - 1, u64::MAX - 1]);
        assert!(s.mean_us > 1.8e19, "got {}", s.mean_us);
    }

    #[test]
    fn recovery_counters_flow_into_report() {
        let mut c = MetricsCollector::new();
        c.record_retry(true);
        c.record_retry(false);
        c.record_retry_exhausted();
        c.record_breaker_opened();
        c.record_breaker_closed();
        let r = c.finish(4, Duration::from_secs(1));
        assert_eq!(r.retries, 2);
        assert_eq!(r.poison_isolated, 1);
        assert_eq!(r.retry_exhausted, 1);
        assert_eq!((r.breaker_opened, r.breaker_closed), (1, 1));
    }

    #[test]
    fn empty_samples_are_zero() {
        let s = LatencyStats::from_samples(Vec::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.max_us, 0);
    }

    #[test]
    fn collector_counts_and_histogram() {
        let mut c = MetricsCollector::new();
        let timing = ResponseTiming {
            queue_wait: Duration::from_micros(10),
            service: Duration::from_micros(40),
            total: Duration::from_micros(50),
            batch_rows: 2,
            padded_len: 3,
            attempts: 0,
        };
        for id in 0..2u64 {
            c.record_outcome(&Outcome::Served(InferResponse::<f32> {
                id,
                logits: vec![0.0],
                timing,
            }));
        }
        c.record_outcome(&Outcome::<f32>::Shed { id: 2 });
        c.record_outcome(&Outcome::<f32>::Rejected { id: 3 });
        c.record_outcome(&Outcome::<f32>::Failed { id: 4 });
        c.record_batch(2, 3, 5); // one frame of padding out of six
        let r = c.finish(4, Duration::from_secs(1));
        assert_eq!((r.served, r.shed, r.rejected, r.failed), (2, 1, 1, 1));
        assert_eq!(r.batches, 1);
        assert!((r.batch_fill_mean - 0.5).abs() < 1e-9);
        assert!((r.padding_frac - 1.0 / 6.0).abs() < 1e-9);
        assert_eq!(r.batch_rows_hist.len(), 1);
        assert_eq!(r.batch_rows_hist[0].rows, 2);
        assert_eq!(r.latency.p50_us, 50);
    }

    #[test]
    fn report_name_is_deterministic_and_config_sensitive() {
        let a = report_name("serving", 7, "w=1000,b=8");
        let b = report_name("serving", 7, "w=1000,b=8");
        let c = report_name("serving", 7, "w=2000,b=8");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with("serving_s7_"));
    }

    #[test]
    fn report_name_hash_includes_binary_prefix() {
        // Two binaries with identical seed+config must not collide: the
        // hash suffix itself has to differ, not just the readable prefix.
        let a = report_name("serving", 7, "w=1000,b=8");
        let b = report_name("fleet", 7, "w=1000,b=8");
        let suffix = |s: &str| s.rsplit('_').next().unwrap().to_string();
        assert_ne!(suffix(&a), suffix(&b));
    }
}
