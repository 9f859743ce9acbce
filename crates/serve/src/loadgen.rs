//! Deterministic load generation and end-to-end serving drivers.
//!
//! The build environment has no network, so the load generator plays the
//! client: it draws variable-length utterances from the seeded synthetic
//! TIDIGITS corpus (`bpar_data::tidigits`) and submits them to the
//! admission queue from its own thread while the serving loop runs on the
//! caller's thread.
//!
//! Two disciplines:
//!
//! * **Open loop** ([`run_open_loop`]) — arrivals follow a seeded Poisson
//!   process at `rate_rps`; the generator never waits for responses, so
//!   overload shows up as queue growth, rejections, or sheds, exactly as
//!   it would with independent clients.
//! * **Closed loop** ([`run_closed_loop`]) — the first queue's worth of
//!   requests is admitted before the serving loop starts, then the
//!   generator submits the next request as soon as admission succeeds;
//!   combined with [`crate::queue::BackpressurePolicy::Block`] the queue
//!   bound acts as the concurrency window, so the system runs at its own
//!   saturation rate.
//!
//! Both are deterministic in the *workload* (same seed → same request
//! ids, lengths, contents, and arrival schedule); wall-clock timings in
//! the resulting [`ServingReport`] naturally vary run to run.

use crate::metrics::{MetricsCollector, ServingReport};
use crate::queue::{Admission, AdmissionQueue};
use crate::request::{InferRequest, Outcome};
use crate::server::{ServeConfig, Server};
use bpar_core::model::Brnn;
use bpar_data::tidigits::TidigitsDataset;
use bpar_runtime::FaultConfig;
use bpar_tensor::Float;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop (Poisson arrivals) generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Workload seed (arrival schedule and request contents).
    pub seed: u64,
    /// Mean offered rate, requests per second.
    pub rate_rps: f64,
    /// Total requests to submit.
    pub requests: u64,
    /// Mean utterance length in frames (actual lengths vary ±35%).
    pub mean_frames: usize,
    /// Latency budget attached to every request, if any.
    pub deadline: Option<Duration>,
    /// Fault plan to install on the server before serving (chaos runs).
    pub fault: Option<FaultConfig>,
}

/// Closed-loop (admission-paced) generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoopConfig {
    /// Workload seed (request contents).
    pub seed: u64,
    /// Total requests to submit.
    pub requests: u64,
    /// Mean utterance length in frames (actual lengths vary ±35%).
    pub mean_frames: usize,
    /// Latency budget attached to every request, if any.
    pub deadline: Option<Duration>,
    /// Fault plan to install on the server before serving (chaos runs).
    pub fault: Option<FaultConfig>,
}

fn make_request<T: Float>(
    data: &TidigitsDataset,
    id: u64,
    deadline: Option<Duration>,
) -> InferRequest<T> {
    let utt = data.utterance::<T>(id);
    let mut req = InferRequest::new(id, utt.frames);
    req.deadline = deadline;
    req
}

fn admission_outcomes<T: Float>(admission: Admission<T>, out: &mut Vec<Outcome<T>>) {
    match admission {
        Admission::Admitted { shed } => {
            out.extend(shed.into_iter().map(|r| Outcome::Shed { id: r.id }));
        }
        Admission::Rejected(r) => out.push(Outcome::Rejected { id: r.id }),
        Admission::Shed(r) => out.push(Outcome::Shed { id: r.id }),
    }
}

/// Assembles the full [`ServingReport`] for one server at the end of a
/// run: producer-side outcomes merged in, config echoed, queue / plan /
/// pool / fault counters gathered. Public because the router tier builds
/// one report per shard through the same path.
pub fn finish_report<T: Float>(
    mut metrics: MetricsCollector,
    producer_outcomes: Vec<Outcome<T>>,
    queue: &AdmissionQueue<T>,
    server: &Server<T>,
    elapsed: Duration,
) -> ServingReport {
    let cfg = server.config();
    for outcome in &producer_outcomes {
        metrics.record_outcome(outcome);
    }
    let depth = queue.depth_stats();
    let plans = server.plan_cache_stats();
    let mut report = metrics.finish(cfg.batch.max_batch, elapsed);
    report.window_us = cfg.batch.window.as_micros() as u64;
    report.max_batch = cfg.batch.max_batch;
    report.bucket_width = cfg.batch.bucket_width;
    report.policy = cfg.policy.name().to_string();
    report.queue_capacity = cfg.queue_capacity;
    report.workers = cfg.workers;
    report.queue_depth_mean = depth.mean();
    report.queue_depth_max = depth.max();
    report.queue_depth = depth.summary();
    report.tenant_evictions = plans.budget_evictions;
    report.plan_hits = plans.hits;
    report.plan_misses = plans.misses;
    report.plan_evictions = plans.evictions;
    report.weight_syncs = plans.weight_syncs;
    report.arena_bytes = plans.arena_bytes;
    report.weight_bytes = plans.weight_bytes;
    report.arena_reuses = plans.arena_reuses;
    let pool = server.pool_stats();
    report.pool_hits = pool.hits;
    report.pool_misses = pool.misses;
    report.pool_bytes = pool.resident_bytes;
    if let Some(plan) = server.fault_plan() {
        report.injected_panics = plan.injected_panics();
        report.injected_straggles = plan.injected_straggles();
    }
    report
}

/// Serves `gen.requests` Poisson arrivals through `model` under `cfg` and
/// returns the full report. Runs the serving loop on the calling thread.
pub fn run_open_loop<T: Float>(
    model: Brnn<T>,
    cfg: ServeConfig,
    gen: OpenLoopConfig,
) -> ServingReport {
    assert!(gen.rate_rps > 0.0, "open loop needs a positive rate");
    let server = Server::new(model, cfg);
    if let Some(fault) = gen.fault {
        server.install_fault_plan(fault);
    }
    let data = TidigitsDataset::new(server.model().config.input_size, gen.mean_frames, gen.seed);
    let queue = Arc::new(AdmissionQueue::new(cfg.queue_capacity, cfg.policy));
    let producer_queue = queue.clone();
    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        let mut rng = SmallRng::seed_from_u64(gen.seed);
        let mut outcomes = Vec::new();
        let mut next = Instant::now();
        for id in 0..gen.requests {
            // Exponential inter-arrival gap; 1 - u is in (0, 1] so the
            // log is finite.
            let u: f64 = rng.gen_range(0.0..1.0);
            next += Duration::from_secs_f64(-(1.0 - u).ln() / gen.rate_rps);
            if let Some(wait) = next.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let req = make_request::<T>(&data, id, gen.deadline);
            admission_outcomes(producer_queue.push(req), &mut outcomes);
        }
        producer_queue.close();
        outcomes
    });
    let mut metrics = MetricsCollector::new();
    server.serve(&queue, &mut metrics, |_| {});
    let producer_outcomes = producer.join().expect("load generator panicked");
    let mut report = finish_report(metrics, producer_outcomes, &queue, &server, start.elapsed());
    report.mode = "open".to_string();
    report.seed = gen.seed;
    report.rate_rps = gen.rate_rps;
    report.submitted = gen.requests;
    report
}

/// Serves `gen.requests` admission-paced requests through `model` under
/// `cfg` and returns the full report. Most useful with
/// [`crate::queue::BackpressurePolicy::Block`], where the queue bound is the
/// concurrency window.
pub fn run_closed_loop<T: Float>(
    model: Brnn<T>,
    cfg: ServeConfig,
    gen: ClosedLoopConfig,
) -> ServingReport {
    let server = Server::new(model, cfg);
    if let Some(fault) = gen.fault {
        server.install_fault_plan(fault);
    }
    let data = TidigitsDataset::new(server.model().config.input_size, gen.mean_frames, gen.seed);
    let queue = Arc::new(AdmissionQueue::new(cfg.queue_capacity, cfg.policy));
    let producer_queue = queue.clone();
    let start = Instant::now();
    // The loop starts with its window full: the first queue's worth is
    // admitted before serving begins, so which requests share the first
    // batches does not depend on how the two threads are scheduled. With
    // capacity >= requests and a window no request outlives, every batch's
    // composition is a function of the seed alone.
    let preload = gen.requests.min(queue.capacity() as u64);
    let mut outcomes = Vec::new();
    for id in 0..preload {
        let req = make_request::<T>(&data, id, gen.deadline);
        admission_outcomes(queue.push(req), &mut outcomes);
    }
    let producer = std::thread::spawn(move || {
        let mut outcomes = outcomes;
        for id in preload..gen.requests {
            let req = make_request::<T>(&data, id, gen.deadline);
            admission_outcomes(producer_queue.push(req), &mut outcomes);
        }
        producer_queue.close();
        outcomes
    });
    let mut metrics = MetricsCollector::new();
    server.serve(&queue, &mut metrics, |_| {});
    let producer_outcomes = producer.join().expect("load generator panicked");
    let mut report = finish_report(metrics, producer_outcomes, &queue, &server, start.elapsed());
    report.mode = "closed".to_string();
    report.seed = gen.seed;
    report.submitted = gen.requests;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use crate::queue::BackpressurePolicy;
    use bpar_core::model::BrnnConfig;

    fn tiny_model() -> Brnn<f32> {
        Brnn::new(
            BrnnConfig {
                input_size: 4,
                hidden_size: 3,
                layers: 1,
                seq_len: 6,
                output_size: 3,
                ..BrnnConfig::default()
            },
            11,
        )
    }

    #[test]
    fn closed_loop_conserves_requests() {
        let cfg = ServeConfig {
            queue_capacity: 4,
            policy: BackpressurePolicy::Block,
            batch: BatchPolicy::new(4, Duration::from_micros(200)),
            workers: 2,
            ..ServeConfig::default()
        };
        let report = run_closed_loop(
            tiny_model(),
            cfg,
            ClosedLoopConfig {
                seed: 3,
                requests: 24,
                mean_frames: 6,
                deadline: None,
                fault: None,
            },
        );
        assert_eq!(report.submitted, 24);
        assert_eq!(report.served + report.shed + report.rejected, 24);
        assert_eq!(report.served, 24); // Block + no deadlines: everything serves
        assert!(report.batches >= 6); // max_batch = 4
        assert!(report.latency.count == 24);
        // Every batch ran through the plan cache, and the model was
        // deep-copied once, into the one store every shape's plan reads —
        // never per batch or per plan.
        assert_eq!(report.plan_hits + report.plan_misses, report.batches);
        assert!(report.plan_misses > 1, "several shapes were built");
        assert_eq!(report.weight_syncs, 1);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn closed_loop_batcher_never_outgrows_the_queue() {
        // A producer that refills a 4-deep queue while each batch runs, and
        // lengths spread over ~15 exact-length buckets, so a batch takes
        // about one request: without its intake bound the batcher would
        // grow by the queue's refill every batch. The serving loop's
        // `debug_assert!` checks the bound after every intake.
        let model = Brnn::<f32>::new(
            BrnnConfig {
                input_size: 4,
                hidden_size: 24,
                layers: 2,
                seq_len: 20,
                output_size: 3,
                ..BrnnConfig::default()
            },
            5,
        );
        let cfg = ServeConfig {
            queue_capacity: 4,
            policy: BackpressurePolicy::Block,
            batch: BatchPolicy::new(8, Duration::from_secs(1)),
            workers: 1,
            ..ServeConfig::default()
        };
        let report = run_closed_loop(
            model,
            cfg,
            ClosedLoopConfig {
                seed: 4,
                requests: 96,
                mean_frames: 20,
                deadline: None,
                fault: None,
            },
        );
        assert_eq!(report.served, 96);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn open_loop_is_workload_deterministic_and_conserves() {
        let cfg = ServeConfig {
            queue_capacity: 2,
            policy: BackpressurePolicy::Reject,
            batch: BatchPolicy::new(2, Duration::from_micros(100)),
            workers: 1,
            ..ServeConfig::default()
        };
        let gen = OpenLoopConfig {
            seed: 5,
            rate_rps: 4000.0,
            requests: 40,
            mean_frames: 6,
            deadline: None,
            fault: None,
        };
        let report = run_open_loop(tiny_model(), cfg, gen);
        assert_eq!(report.submitted, 40);
        assert_eq!(report.served + report.shed + report.rejected, 40);
        assert_eq!(report.shed, 0); // Reject policy never sheds
    }

    #[test]
    fn shed_expired_sheds_instead_of_serving_late() {
        let cfg = ServeConfig {
            queue_capacity: 2,
            policy: BackpressurePolicy::ShedExpired,
            batch: BatchPolicy::new(2, Duration::from_micros(100)),
            workers: 1,
            ..ServeConfig::default()
        };
        let gen = OpenLoopConfig {
            seed: 9,
            rate_rps: 50_000.0, // heavy overload
            requests: 60,
            mean_frames: 8,
            deadline: Some(Duration::from_micros(500)),
            fault: None,
        };
        let report = run_open_loop(tiny_model(), cfg, gen);
        assert_eq!(report.served + report.shed + report.rejected, 60);
        assert!(report.shed > 0, "overload with tight deadlines must shed");
    }
}
