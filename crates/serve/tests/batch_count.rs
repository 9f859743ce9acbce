//! What batching buys, as a count rather than a timing: N requests of one
//! length that are already admitted when the executor frees up run as
//! ⌈N / max_batch⌉ batches, one executor run (one plan replay) per batch,
//! where a server batching nothing pays N runs. Counts repeat exactly on
//! any host, so this holds as a test where a throughput comparison could
//! not.
//!
//! The queue stays open until the last response, so the batches form on
//! the serving path, not in the shutdown drain; the window never has to
//! run out for a batch to close.

use bpar_core::model::{Brnn, BrnnConfig};
use bpar_serve::metrics::MetricsCollector;
use bpar_serve::request::{InferRequest, Outcome};
use bpar_serve::server::{ServeConfig, Server};
use bpar_serve::{AdmissionQueue, BackpressurePolicy, BatchPolicy};
use std::time::Duration;

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
        21,
    )
}

/// Serves `n` pre-admitted 5-frame requests under `batch` and returns the
/// batch count and the rows each response's batch had.
fn serve_same_length(n: usize, batch: BatchPolicy) -> (u64, Vec<usize>) {
    let server = Server::new(
        tiny_model(),
        ServeConfig {
            queue_capacity: n,
            batch,
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let queue = AdmissionQueue::new(n, BackpressurePolicy::Block);
    for id in 0..n as u64 {
        let frames = vec![vec![0.25 * id as f32; 4]; 5];
        queue.push(InferRequest::new(id, frames));
    }
    let mut metrics = MetricsCollector::new();
    let mut rows = Vec::new();
    server.serve(&queue, &mut metrics, |o| {
        match o {
            Outcome::Served(r) => rows.push(r.timing.batch_rows),
            other => panic!("request {} not served", other.id()),
        }
        if rows.len() == n {
            queue.close();
        }
    });
    let report = metrics.finish(batch.max_batch, Duration::from_secs(1));
    (report.batches, rows)
}

#[test]
fn same_length_requests_run_in_full_batches() {
    for n in [1, 3, 4, 5, 13, 32] {
        for window in [
            Duration::ZERO,
            Duration::from_millis(2),
            Duration::from_secs(1),
        ] {
            let (batches, rows) = serve_same_length(n, BatchPolicy::new(4, window));
            assert_eq!(batches, n.div_ceil(4) as u64, "n = {n}, window {window:?}");
            // Every batch but the last is full.
            let full = rows.iter().filter(|&&r| r == 4).count();
            assert_eq!(full, 4 * (n / 4), "n = {n}, window {window:?}");
        }
    }
}

#[test]
fn batch_of_one_runs_every_request_alone() {
    for n in [1, 5, 13] {
        let (batches, rows) = serve_same_length(n, BatchPolicy::batch_of_one());
        assert_eq!(batches, n as u64);
        assert!(rows.iter().all(|&r| r == 1));
    }
}
