//! The benchmark's own load generator.
//!
//! `bpar_serve::run_open_loop` builds each request on the producer thread
//! and stamps `arrival` when it sends, so a generator that runs late hides
//! the delay it caused. Here every request is built before the timers
//! start, an open-loop request's `arrival` is the instant it was *due*,
//! latency runs from that instant to the client callback, and how late
//! the generator ran is reported beside it (`serve.gen_lag_*`).

use crate::pin::{pin, Cpus};
use bpar_router::{Router, RouterReport};
use bpar_serve::{
    finish_report, Admission, AdmissionQueue, InferRequest, MetricsCollector, Outcome, Server,
    ServingReport,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    Served,
    Shed,
    Rejected,
    Failed,
}

/// One client callback.
#[derive(Debug, Clone)]
pub struct Delivery {
    pub id: u64,
    pub at: Instant,
    pub end: End,
    pub queue_wait: Duration,
    pub service: Duration,
    pub padded_len: usize,
    pub logits: Vec<f32>,
}

impl Delivery {
    fn new(outcome: Outcome<f32>) -> Self {
        let at = Instant::now();
        let (end, id) = match &outcome {
            Outcome::Served(r) => (End::Served, r.id),
            Outcome::Shed { id } => (End::Shed, *id),
            Outcome::Rejected { id } => (End::Rejected, *id),
            // A lost hedge copy never reaches a client; hedging is off.
            Outcome::Failed { id } | Outcome::Cancelled { id } => (End::Failed, *id),
        };
        let mut d = Delivery {
            id,
            at,
            end,
            queue_wait: Duration::ZERO,
            service: Duration::ZERO,
            padded_len: 0,
            logits: Vec::new(),
        };
        if let Outcome::Served(r) = outcome {
            d.queue_wait = r.timing.queue_wait;
            d.service = r.timing.service;
            d.padded_len = r.timing.padded_len;
            d.logits = r.logits;
        }
        d
    }
}

/// What the generator recorded when it handed one request over.
#[derive(Debug, Clone, Copy)]
pub struct Send {
    pub id: u64,
    /// Open loop: the scheduled instant. Closed loop: the send instant.
    pub due: Instant,
    pub push_start: Instant,
    pub push_end: Instant,
}

/// One serve phase (closed or open) of one round.
pub struct Phase {
    pub start: Instant,
    pub end: Instant,
    pub sends: Vec<Send>,
    pub deliveries: Vec<Delivery>,
}

impl Phase {
    pub fn wall_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    pub fn count(&self, end: End) -> usize {
        self.deliveries.iter().filter(|d| d.end == end).count()
    }
}

/// How the generator paces a phase.
#[derive(Clone, Copy)]
pub enum Pace<'a> {
    /// Open loop: request `i` goes at `start + offsets[i]` and carries that
    /// instant as its arrival.
    Open(&'a [Duration]),
    /// Closed loop: the next request goes as soon as fewer than `window`
    /// are in flight (sent and not yet called back).
    Closed { window: usize },
}

/// Waits until `due`: sleeps to half a millisecond before it, then yields
/// in a loop. `thread::sleep` overshoots — on the builder's host, with a
/// neighbour busy, by 0.1 ms at the median, 0.3 ms at p90 and 2 ms at p99 —
/// and with a margin below that the overshoot was part of most latencies
/// (`fine_grain` `serve_p50_ms` over five runs: 1.26–1.58 ms with 80 µs,
/// 1.27–1.38 ms with 400 µs). The generator has a CPU the tier does not
/// use (see `pin.rs`), so the spin takes nothing from what is measured; at
/// 2000 requests a second it spins most of the time, at 130 a fifteenth.
fn wait_until(due: Instant) {
    const MARGIN: Duration = Duration::from_micros(500);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > MARGIN {
            std::thread::sleep(left - MARGIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Waits, in sleeps of 50 µs, until `done` has reached `total`.
fn wait_for(done: &AtomicUsize, total: usize) {
    while done.load(Ordering::Acquire) < total {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Hands `requests` to `push` one by one at the phase's pace, on the
/// calling thread, which first moves off the tier's CPU when `place` says
/// so. `done` counts callbacks so far. Returns the phase's start (taken
/// after the move) and what was sent.
fn generate(
    requests: Vec<InferRequest<f32>>,
    pace: Pace,
    place: bool,
    done: &AtomicUsize,
    mut push: impl FnMut(InferRequest<f32>),
) -> (Instant, Vec<Send>) {
    if place {
        pin(Cpus::Outside);
    }
    let start = Instant::now();
    let mut sends = Vec::with_capacity(requests.len());
    for (i, mut req) in requests.into_iter().enumerate() {
        let due = match pace {
            Pace::Open(offsets) => {
                let due = start + offsets[i];
                wait_until(due);
                due
            }
            Pace::Closed { window } => {
                wait_for(done, (i + 1).saturating_sub(window));
                Instant::now()
            }
        };
        req.arrival = due;
        let id = req.id;
        let push_start = Instant::now();
        push(req);
        sends.push(Send {
            id,
            due,
            push_start,
            push_end: Instant::now(),
        });
    }
    (start, sends)
}

/// Runs one phase through a single [`Server`]: the generator on its own
/// thread, the serving loop on this one, a fresh admission queue of the
/// server's configured capacity and policy between them.
pub fn drive_server(
    server: &Server<f32>,
    requests: Vec<InferRequest<f32>>,
    pace: Pace,
    place: bool,
) -> (Phase, ServingReport) {
    let config = server.config();
    let queue = AdmissionQueue::new(config.queue_capacity, config.policy);
    let mut metrics = MetricsCollector::new();
    let mut deliveries = Vec::with_capacity(requests.len());
    let done = AtomicUsize::new(0);
    let (start, sends, bounced) = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut bounced: Vec<Outcome<f32>> = Vec::new();
            let (start, sends) = generate(requests, pace, place, &done, |req| {
                let before = bounced.len();
                match queue.push(req) {
                    Admission::Admitted { shed } => {
                        bounced.extend(shed.into_iter().map(|r| Outcome::Shed { id: r.id }));
                    }
                    Admission::Rejected(r) => bounced.push(Outcome::Rejected { id: r.id }),
                    Admission::Shed(r) => bounced.push(Outcome::Shed { id: r.id }),
                }
                done.fetch_add(bounced.len() - before, Ordering::Release);
            });
            queue.close();
            (start, sends, bounced)
        });
        server.serve(&queue, &mut metrics, |o| {
            deliveries.push(Delivery::new(o));
            done.fetch_add(1, Ordering::Release);
        });
        producer.join().expect("load generator panicked")
    });
    let end = Instant::now();
    deliveries.extend(bounced.iter().cloned().map(Delivery::new));
    let report = finish_report(metrics, bounced, &queue, server, end.duration_since(start));
    let phase = Phase {
        start,
        end,
        sends,
        deliveries,
    };
    (phase, report)
}

/// Where a [`Router`]'s shard threads put client callbacks.
#[derive(Default)]
pub struct Sink {
    deliveries: Mutex<Vec<Delivery>>,
    /// Callbacks since the last [`Sink::take`]; the generator polls it.
    done: AtomicUsize,
}

impl Sink {
    pub fn deliver(&self, outcome: Outcome<f32>) {
        let d = Delivery::new(outcome);
        self.deliveries.lock().expect("sink poisoned").push(d);
        self.done.fetch_add(1, Ordering::Release);
    }

    fn take(&self) -> Vec<Delivery> {
        self.done.store(0, Ordering::Release);
        std::mem::take(&mut self.deliveries.lock().expect("sink poisoned"))
    }
}

/// Runs one phase through a running [`Router`] whose terminal callback is
/// `sink.deliver`; the generator runs on a thread of its own and this one
/// waits for it.
pub fn drive_router(
    router: &Router<f32>,
    sink: &Sink,
    requests: Vec<InferRequest<f32>>,
    pace: Pace,
    place: bool,
) -> Phase {
    let total = requests.len();
    let (start, sends) = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let sent = generate(requests, pace, place, &sink.done, |req| router.submit(req));
            wait_for(&sink.done, total);
            sent
        });
        producer.join().expect("load generator panicked")
    });
    let deliveries = sink.take();
    let end = deliveries.iter().map(|d| d.at).max().unwrap_or(start);
    Phase {
        start,
        end,
        sends,
        deliveries,
    }
}

/// The serving tier a round drives: one server or a routed fleet.
pub enum Front {
    Single(Server<f32>),
    Fleet {
        router: Router<f32>,
        sink: Arc<Sink>,
    },
}

impl Front {
    /// `place`: move the generator off the tier's CPU (see `pin.rs`).
    pub fn drive(
        &self,
        requests: Vec<InferRequest<f32>>,
        pace: Pace,
        place: bool,
    ) -> (Phase, Option<ServingReport>) {
        match self {
            Front::Single(server) => {
                let (phase, report) = drive_server(server, requests, pace, place);
                (phase, Some(report))
            }
            Front::Fleet { router, sink } => {
                (drive_router(router, sink, requests, pace, place), None)
            }
        }
    }

    /// Shuts a fleet down (joins every shard thread; the router asserts
    /// its in-flight map drained) and returns its report.
    pub fn finish(self) -> Option<RouterReport> {
        match self {
            Front::Single(_) => None,
            Front::Fleet { router, .. } => Some(router.finish()),
        }
    }
}
