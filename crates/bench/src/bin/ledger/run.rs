//! One run of one workload: rounds of fixed work, each
//! `setup → train → infer → closed → open`, for `--seconds`; every
//! end-to-end metric is the best round's per-round statistic (see
//! [`aggregate`]), so a disturbance that leaves one round alone moves
//! nothing. Output checks against `SequentialExec` follow the last round.

use crate::inputs::{Batch, Requests, Source};
use crate::layers::{self, Row};
use crate::loadgen::{Delivery, End, Front, Pace, Phase, Sink};
use crate::pin::{pin, Cpus};
use crate::span::{SpanId, Tracer};
use crate::spec::{Better, Workload, END_TO_END, PER_LAYER};
use crate::stats::{best, beyond, iqr_frac, median, percentile, quartiles, sorted};
use bpar_core::exec::{Executor, ForwardOutput, SequentialExec, TaskGraphExec};
use bpar_core::model::Brnn;
use bpar_core::optim::Sgd;
use bpar_router::{HedgePolicy, Router, RouterConfig, RoutingPolicy};
use bpar_runtime::SchedulerPolicy;
use bpar_serve::{BackpressurePolicy, BatchPolicy, ServeConfig, Server, ServingReport};
use bpar_tensor::{BackendKind, Matrix};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Scheduler and backend of every executor and server the ledger builds:
/// the defaults `bpar serve` ships with.
pub const SCHEDULER: SchedulerPolicy = SchedulerPolicy::LocalityAware;
pub const BACKEND: BackendKind = BackendKind::Scalar;
/// Worker threads of every server and fleet replica. One, whatever the
/// workload: the whole tier runs on one CPU (`pin::Cpus::Tier`) and the
/// load generator on another. With two workers computing on the builder's
/// two vCPUs the generator was handed a CPU up to a scheduler tick (4 ms)
/// after a request was due — `serve.gen_lag_p99_ms` of 4 ms on every run.
pub const SERVE_WORKERS: usize = 1;
/// Responses per serve path compared against `SequentialExec`.
const SERVE_SAMPLES: usize = 32;
/// A generator this late at p99 no longer offers the load it claims.
const GEN_LAG_LIMIT_MS: f64 = 1.0;
/// Fewer rounds than this and a run says so.
const MIN_ROUNDS: usize = 7;
/// Rounds of the traced pass whose requests get spans of their own; every
/// round still gets its phase and call spans and counts towards the
/// metrics. (A fleet round is 2400 requests of five spans each.)
const REQUEST_SPAN_ROUNDS: usize = 3;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the rounds measure: the run ends with the round that comes
    /// nearest to it.
    pub seconds: f64,
    pub trace: bool,
    /// Divides every per-round count; 1 except in smoke runs.
    pub divide: usize,
    /// Fix where threads run (`pin.rs`); off in unit tests, which share
    /// their process with other tests.
    pub place: bool,
}

/// What a run hands back to `main`.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the pass that ran: end-to-end or per-layer.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-round values, quartiles, checks, warnings: the output file.
    pub detail: Value,
    pub trace: Option<Value>,
    pub warnings: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn serve_config(w: &Workload) -> ServeConfig {
    ServeConfig {
        queue_capacity: w.closed_window,
        policy: BackpressurePolicy::Block,
        batch: BatchPolicy::new(w.max_batch, Duration::from_micros(w.window_us))
            .with_bucket_width(w.bucket_width),
        workers: SERVE_WORKERS,
        scheduler: SCHEDULER,
        pool_byte_budget: w.pool_budget_kib.map(|k| k * 1024),
        plan_byte_budget: w.plan_budget_kib.map(|k| k * 1024),
        backend: BACKEND,
        ..ServeConfig::default()
    }
}

fn build_front(w: &Workload, models: &[Brnn<f32>]) -> Front {
    match w.replicas {
        None => Front::Single(Server::new(models[0].clone(), serve_config(w))),
        Some(replicas) => {
            let sink = Arc::new(Sink::default());
            let deliver = Arc::clone(&sink);
            let config = RouterConfig {
                replicas,
                routing: RoutingPolicy::Hash,
                hedge: HedgePolicy::Off,
                serve: serve_config(w),
                fault: None,
                start_paused: false,
            };
            let router = Router::new(models.to_vec(), config, move |o| deliver.deliver(o));
            Front::Fleet { router, sink }
        }
    }
}

fn models(w: &Workload, seed: u64) -> Vec<Brnn<f32>> {
    w.models
        .iter()
        .enumerate()
        .map(|(i, cfg)| Brnn::new(*cfg, seed.wrapping_add(i as u64)))
        .collect()
}

/// Bit patterns of a forward output, for exact comparison.
fn output_bits(out: &ForwardOutput<f32>) -> Vec<u32> {
    out.seq_logits
        .iter()
        .chain(std::iter::once(&out.logits))
        .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

/// Counters of the serving tier over one round, summed over the phases
/// of a server or the shards of a fleet.
#[derive(Default)]
struct TierCounters {
    batches: f64,
    rows: f64,
    padding_weighted: f64,
    depth_weighted: f64,
    depth_max: f64,
    served: f64,
    retries: f64,
    plan_hits: u64,
    plan_misses: u64,
    plan_evictions: u64,
    weight_syncs: u64,
    budget_evictions: u64,
    arena_bytes: u64,
    pool_hits: u64,
    pool_misses: u64,
    pool_bytes: u64,
}

impl TierCounters {
    /// What a report says about the traffic it covers.
    fn add_traffic(&mut self, r: &ServingReport) {
        let rows = r.batch_rows_mean * r.batches as f64;
        self.batches += r.batches as f64;
        self.rows += rows;
        self.padding_weighted += r.padding_frac * rows;
        self.depth_weighted += r.queue_depth_mean * r.served as f64;
        self.depth_max = self.depth_max.max(r.queue_depth_max as f64);
        self.served += r.served as f64;
        self.retries += r.retries as f64;
    }

    /// The plan-cache and pool counters a report copies from its server.
    /// They count from the server's start, so they are added once per
    /// server: from its last report.
    fn add_server_totals(&mut self, r: &ServingReport) {
        self.plan_hits += r.plan_hits;
        self.plan_misses += r.plan_misses;
        self.plan_evictions += r.plan_evictions;
        self.weight_syncs += r.weight_syncs;
        self.budget_evictions += r.tenant_evictions;
        self.arena_bytes += r.arena_bytes;
        self.pool_hits += r.pool_hits;
        self.pool_misses += r.pool_misses;
        self.pool_bytes += r.pool_bytes;
    }
}

/// Everything one round leaves behind.
struct Round {
    row: Row,
    /// Open-loop latencies in ms, ascending; `run` pools them over rounds.
    latencies: Vec<f64>,
    /// Cold loss, then every warm loss, as bit patterns.
    losses: Vec<u64>,
    logits: Vec<u32>,
    /// The closed and the open phase, kept for the output checks. `run`
    /// drops them from every round but the last, so that peak memory does
    /// not depend on how many rounds fit.
    phases: Option<[Phase; 2]>,
    /// Requests that did not end `Served`, mismatched counts included.
    failed: u64,
    attempted: u64,
}

/// Latency of each open-loop request from its due instant to the client
/// callback, in ms; a request that was not served has none.
fn open_latencies(phase: &Phase) -> Vec<f64> {
    let due: BTreeMap<u64, Instant> = phase.sends.iter().map(|s| (s.id, s.due)).collect();
    phase
        .deliveries
        .iter()
        .filter(|d| d.end == End::Served)
        .filter_map(|d| {
            due.get(&d.id)
                .map(|&due| ms(d.at.saturating_duration_since(due)))
        })
        .collect()
}

/// `served + shed + rejected + failed == sent`, one callback per id.
fn conserved(phase: &Phase) -> bool {
    let sent: BTreeSet<u64> = phase.sends.iter().map(|s| s.id).collect();
    let got: BTreeSet<u64> = phase.deliveries.iter().map(|d| d.id).collect();
    phase.deliveries.len() == phase.sends.len() && sent == got
}

/// Request-level spans of one phase, built after the fact from the
/// instants the generator and the callbacks recorded.
fn phase_spans(tr: &mut Tracer, phase: &Phase, parent: SpanId, fleet: bool, round: usize) {
    if !tr.enabled() || round >= REQUEST_SPAN_ROUNDS {
        return;
    }
    let by_id: BTreeMap<u64, &Delivery> = phase.deliveries.iter().map(|d| (d.id, d)).collect();
    let push_name = if fleet {
        "router.submit"
    } else {
        "serve.queue_push"
    };
    for s in &phase.sends {
        let Some(d) = by_id.get(&s.id) else { continue };
        let req = tr.add("request", s.due, d.at, Some(parent), Some(s.id));
        tr.add(push_name, s.push_start, s.push_end, Some(req), Some(s.id));
        if d.end == End::Served {
            let close = s.due + d.queue_wait;
            let done = close + d.service;
            tr.add("serve.queue_wait", s.due, close, Some(req), Some(s.id));
            tr.add("serve.service", close, done, Some(req), Some(s.id));
            tr.add("client.callback", done, d.at, Some(req), Some(s.id));
        }
    }
}

/// Nearest-rank percentile `p` of unsorted values.
fn percentile_of(values: impl Iterator<Item = f64>, p: f64) -> f64 {
    percentile(&sorted(&values.collect::<Vec<_>>()), p)
}

/// What one cold set-up builds and what its two cold batches returned.
struct Built {
    inputs: Batch,
    models: Vec<Brnn<f32>>,
    exec: TaskGraphExec,
    front: Front,
    train_model: Brnn<f32>,
    opt: Sgd,
    out: ForwardOutput<f32>,
    cold_loss: Option<u64>,
    failed: u64,
    seconds: f64,
}

/// One cold set-up, timed as one piece: the train/infer batch, the models,
/// the executor, the `Server` or `Router`, the first train and the first
/// infer batch (plan build, weight copy, arena).
///
/// The calling thread is pinned to the tier's CPU, and threads inherit the
/// mask of their spawner, so a one-worker executor and the whole serving
/// tier land there. The workers of a multi-worker executor need every
/// CPU: that executor is built on a thread allowed all of them, which is
/// started and placed before the timer starts.
fn set_up(opts: &Options) -> Built {
    let w = &opts.workload;
    let new_exec = || TaskGraphExec::with_backend(w.workers, SCHEDULER, 1, BACKEND);
    let go = Barrier::new(2);
    std::thread::scope(|s| {
        let wide = (opts.place && w.workers > 1).then(|| {
            s.spawn(|| {
                pin(Cpus::All);
                go.wait();
                new_exec()
            })
        });
        let t0 = Instant::now();
        let inputs = Batch::generate(w, opts.seed);
        let models = models(w, opts.seed);
        let exec = match wide {
            Some(builder) => {
                go.wait();
                builder.join().expect("executor builder panicked")
            }
            None => new_exec(),
        };
        let front = build_front(w, &models);
        let mut train_model = models[0].clone();
        let mut opt = Sgd::new(0.01);
        let mut out = ForwardOutput::zeros_for(&models[0], w.rows, w.models[0].seq_len);
        let cold = exec.try_train_batch(&mut train_model, &inputs.xs, &inputs.target, &mut opt);
        let cold_infer = exec.try_forward_into(&models[0], &inputs.xs, &mut out);
        let seconds = t0.elapsed().as_secs_f64();
        Built {
            failed: u64::from(cold.is_err()) + u64::from(cold_infer.is_err()),
            cold_loss: cold.ok().map(f64::to_bits),
            inputs,
            models,
            exec,
            front,
            train_model,
            opt,
            out,
            seconds,
        }
    })
}

fn run_round(opts: &Options, round: usize, tracer: &mut Tracer) -> Round {
    let w = &opts.workload;
    let fleet = w.replicas.is_some();
    let round_start = Instant::now();
    let round_span = tracer.open("bench.round", None);
    let mut row = Row::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let requests = Requests::generate(w, opts.seed, round, opts.divide);

    // --- setup: everything cold, several times; the last one is kept ----
    let span = tracer.open("bench.setup", Some(round_span));
    let mut setup_s = Vec::with_capacity(w.setups);
    let mut built = set_up(opts);
    for _ in 1..w.setups {
        setup_s.push(built.seconds);
        failed += built.failed;
        drop(built.exec);
        built.front.finish();
        built = set_up(opts);
    }
    setup_s.push(built.seconds);
    failed += built.failed;
    attempted += 2 * w.setups as u64;
    let Built {
        inputs,
        models,
        exec,
        front,
        mut train_model,
        mut opt,
        mut out,
        cold_loss,
        ..
    } = built;
    let mut losses: Vec<u64> = cold_loss.into_iter().collect();
    row.push(("setup_s", median(&setup_s)));
    row.push(("data.gen_us_per_utt", requests.gen_us_per_utt));
    tracer.close(span);

    // --- train: warm steps, revision bump and weight re-sync included --
    let span = tracer.open("bench.train", Some(round_span));
    let train_calls = (w.train_calls / opts.divide).max(3);
    let mut train_ms = Vec::with_capacity(train_calls);
    let mut train_rows: Vec<Row> = Vec::new();
    for _ in 0..train_calls {
        let t0 = Instant::now();
        let result = exec.try_train_batch(&mut train_model, &inputs.xs, &inputs.target, &mut opt);
        let t1 = Instant::now();
        train_ms.push(ms(t1 - t0));
        match result {
            Ok(loss) => losses.push(loss.to_bits()),
            Err(_) => failed += 1,
        }
        if tracer.enabled() {
            let call = tracer.add("core.try_train_batch", t0, t1, Some(span), None);
            let drain = tracer.open("runtime.drain", Some(call));
            train_rows.push(layers::train_batch_row(&exec.runtime().take_records()));
            tracer.close(drain);
        }
    }
    attempted += train_calls as u64;
    row.push(("train_ms_per_batch", median(&train_ms)));
    tracer.close(span);

    // --- infer: warm forward passes on the same batch -----------------
    // In the traced pass every second call is wrapped in a span and has
    // its records drained; the other half stays as the timed pass runs
    // it, and the ratio of the two is the tracing overhead.
    let span = tracer.open("bench.infer", Some(round_span));
    let infer_calls = (w.infer_calls / opts.divide).max(4);
    let (flops_per_batch, bytes_per_batch) = layers::shape_counts(w);
    let mut infer_ms = Vec::with_capacity(infer_calls);
    let mut traced_ms = Vec::new();
    let mut self_us = Vec::new();
    let mut infer_rows: Vec<Row> = Vec::new();
    for call in 0..infer_calls {
        let t0 = Instant::now();
        let result = exec.try_forward_into(&models[0], &inputs.xs, &mut out);
        let t1 = Instant::now();
        failed += u64::from(result.is_err());
        if !(tracer.enabled() && call % 2 == 1) {
            infer_ms.push(ms(t1 - t0));
            continue;
        }
        let id = tracer.add("core.try_forward_into", t0, t1, Some(span), None);
        let drain = tracer.open("runtime.drain", Some(id));
        let stats = exec.runtime().stats();
        let records = exec.runtime().take_records();
        tracer.close(drain);
        traced_ms.push(ms(Instant::now() - t0));
        // The tasks ran inside the call; the runtime's epoch is private, so
        // the child span is placed at the call's end.
        let makespan = Duration::from_secs_f64(stats.makespan).min(t1 - t0);
        tracer.add("runtime.tasks", t1 - makespan, t1, Some(id), None);
        self_us.push(ms(t1 - t0 - makespan) * 1e3);
        infer_rows.push(layers::infer_batch_row(
            &records,
            &stats,
            w.workers,
            flops_per_batch,
        ));
    }
    attempted += infer_calls as u64;
    row.push(("infer_ms_per_batch", median(&infer_ms)));
    tracer.close(span);
    if tracer.enabled() {
        row.push(("bench.infer_traced_ms", median(&traced_ms)));
        row.push(("core.op_self_us", median(&self_us)));
        row.push(("tensor.flops_per_batch", flops_per_batch));
        row.push(("tensor.bytes_per_batch", bytes_per_batch));
        for rows in [&train_rows, &infer_rows] {
            for (i, (name, _)) in rows[0].iter().enumerate() {
                let values: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
                row.push((name, median(&values)));
            }
        }
    }
    let exec_plans = exec.plan_cache_stats();
    let plan_calls = (exec_plans.hits + exec_plans.misses).max(1) as f64;
    row.push((
        "runtime.replay_us",
        exec_plans.replay_ns as f64 / 1e3 / plan_calls,
    ));
    row.push((
        "core.plan_build_us",
        exec_plans.build_ns as f64 / 1e3 / exec_plans.misses.max(1) as f64,
    ));

    // --- closed loop: the tier's capacity, drain included -------------
    let span = tracer.open("bench.closed", Some(round_span));
    let (closed, closed_report) = front.drive(
        requests.closed,
        Pace::Closed {
            window: w.closed_window,
        },
        opts.place,
    );
    tracer.close(span);
    phase_spans(tracer, &closed, span, fleet, round);
    row.push((
        "serve_capacity_rps",
        closed.count(End::Served) as f64 / closed.wall_s(),
    ));

    // --- open loop: latency at the workload's fixed rate --------------
    let span = tracer.open("bench.open", Some(round_span));
    let (open, open_report) = front.drive(requests.open, Pace::Open(&requests.offsets), opts.place);
    tracer.close(span);
    phase_spans(tracer, &open, span, fleet, round);
    let latencies = sorted(&open_latencies(&open));
    let served = || open.deliveries.iter().filter(|d| d.end == End::Served);
    let waits = || served().map(|d| ms(d.queue_wait));
    let services = || served().map(|d| ms(d.service));
    let lags = || {
        let sends = open.sends.iter();
        sends.map(|s| ms(s.push_start.saturating_duration_since(s.due)))
    };
    let push_us = || {
        open.sends
            .iter()
            .map(|s| ms(s.push_end - s.push_start) * 1e3)
    };
    let covered: f64 = waits().sum::<f64>() + services().sum::<f64>();
    let total: f64 = latencies.iter().sum();
    // The hand-over is `AdmissionQueue::push` on a server and
    // `Router::submit` (which contains that push) on a fleet.
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    row.extend([
        ("serve_p50_ms", percentile(&latencies, 0.5)),
        ("serve_p90_ms", percentile(&latencies, 0.9)),
        ("serve.queue_wait_p50_ms", percentile_of(waits(), 0.5)),
        ("serve.queue_wait_p90_ms", percentile_of(waits(), 0.9)),
        ("serve.service_p50_ms", percentile_of(services(), 0.5)),
        ("serve.service_p90_ms", percentile_of(services(), 0.9)),
        (
            "serve.residual_frac",
            only(total > 0.0, 1.0 - covered / total),
        ),
        ("serve.gen_lag_p99_ms", percentile_of(lags(), 0.99)),
        ("serve.gen_lag_max_ms", percentile_of(lags(), 1.0)),
        (
            "serve.push_us_p50",
            only(!fleet, percentile_of(push_us(), 0.5)),
        ),
        (
            "router.submit_us_p50",
            only(fleet, percentile_of(push_us(), 0.5)),
        ),
        (
            "router.submit_us_p99",
            only(fleet, percentile_of(push_us(), 0.99)),
        ),
    ]);

    // --- outcomes, the tier's own counters, then tear it down ----------
    for phase in [&closed, &open] {
        failed += (phase.sends.len() - phase.count(End::Served)) as u64;
        failed += u64::from(!conserved(phase));
        attempted += phase.sends.len() as u64;
    }
    let ended = |end: End| (closed.count(end) + open.count(end)) as f64;
    let mut tier = TierCounters::default();
    let mut router = [0.0f64; 3]; // imbalance, hedges, cancelled copies
    match front.finish() {
        None => {
            let phases = [closed_report, open_report].map(|r| r.expect("a server reports"));
            phases.iter().for_each(|r| tier.add_traffic(r));
            tier.add_server_totals(&phases[1]);
        }
        Some(report) => {
            // `finish` has already asserted that the in-flight map drained.
            failed += u64::from(report.completed != report.submitted);
            let routed = || report.shards.iter().map(|s| s.routed as f64);
            let mean = routed().sum::<f64>() / report.shards.len() as f64;
            let spread = routed().fold(0.0, f64::max) - routed().fold(f64::MAX, f64::min);
            router = [
                only(mean > 0.0, spread / mean),
                report.hedges as f64,
                report.cancelled_copies as f64,
            ];
            for shard in &report.shards {
                tier.add_traffic(&shard.serving);
                tier.add_server_totals(&shard.serving);
            }
        }
    }
    // `core.*` plan counters cover both plan caches a round exercises:
    // the serving tier's and the train/infer executor's.
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let batches = tier.batches.max(1.0);
    row.extend([
        ("core.plan_hits", (tier.plan_hits + exec_plans.hits) as f64),
        (
            "core.plan_misses",
            (tier.plan_misses + exec_plans.misses) as f64,
        ),
        (
            "core.plan_evictions",
            (tier.plan_evictions + exec_plans.evictions) as f64,
        ),
        (
            "core.weight_syncs",
            (tier.weight_syncs + exec_plans.weight_syncs) as f64,
        ),
        (
            "core.budget_evictions",
            (tier.budget_evictions + exec_plans.budget_evictions) as f64,
        ),
        (
            "core.arena_mib",
            mib(tier.arena_bytes + exec_plans.arena_bytes),
        ),
        ("serve.batches", tier.batches),
        ("serve.batch_rows_mean", tier.rows / batches),
        (
            "serve.batch_fill",
            tier.rows / (batches * w.max_batch as f64),
        ),
        (
            "serve.padding_frac",
            tier.padding_weighted / tier.rows.max(1.0),
        ),
        (
            "serve.queue_depth_mean",
            tier.depth_weighted / tier.served.max(1.0),
        ),
        ("serve.queue_depth_max", tier.depth_max),
        ("serve.pool_hits", tier.pool_hits as f64),
        ("serve.pool_misses", tier.pool_misses as f64),
        ("serve.pool_mib", mib(tier.pool_bytes)),
        ("serve.shed", ended(End::Shed)),
        ("serve.rejected", ended(End::Rejected)),
        ("serve.failed", ended(End::Failed)),
        ("serve.retries", tier.retries),
        ("router.shard_imbalance", router[0]),
        ("router.hedges", router[1]),
        ("router.cancelled_copies", router[2]),
        ("bench.peak_rss_so_far_mib", peak_rss_mib()),
        ("bench.round_s", round_start.elapsed().as_secs_f64()),
    ]);
    tracer.close(round_span);
    Round {
        row,
        latencies,
        losses,
        logits: output_bits(&out),
        phases: Some([closed, open]),
        failed,
        attempted,
    }
}

/// `VmHWM` of this process in MiB (Linux; 0 elsewhere).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Per-name values over rounds → one value per name.
///
/// An end-to-end metric is the value of its **best round**: the smallest
/// time, the largest rate. What disturbs a round on a shared host (a
/// neighbour on the core, a vCPU taken away for some milliseconds) only
/// ever makes it slower, and here it comes in stretches of seconds to a
/// minute that slow everything by 10–40 %: the median over rounds — what
/// this benchmark reported first — moved by a tenth between runs of the
/// same code whenever such a stretch covered half a run, the best round
/// by a few hundredths. A change to the program moves every round, the
/// best one too. Inside a round nothing is "best of": the statistic is the
/// median of the calls or a percentile of the requests. Layer metrics are
/// medians over rounds; the open-loop latencies are also pooled for a p99
/// with enough samples beyond it, and the generator's worst lag is a
/// maximum.
fn aggregate(
    rounds: &[Round],
) -> (
    BTreeMap<&'static str, f64>,
    BTreeMap<&'static str, Vec<f64>>,
) {
    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in rounds {
        for &(name, v) in &round.row {
            per_round.entry(name).or_default().push(v);
        }
    }
    let pooled = sorted(
        &rounds
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect::<Vec<_>>(),
    );
    let mut values: BTreeMap<&'static str, f64> = per_round
        .iter()
        .map(|(&name, v)| (name, median(v)))
        .collect();
    for m in &END_TO_END {
        if let Some(v) = per_round.get(m.name) {
            values.insert(m.name, best(v, m.better == Better::Higher));
        }
    }
    values.insert("serve.latency_p99_ms", percentile(&pooled, 0.99));
    values.insert("serve.latency_samples", pooled.len() as f64);
    let worst = per_round["serve.gen_lag_max_ms"]
        .iter()
        .fold(0.0f64, |m, &v| m.max(v));
    values.insert("serve.gen_lag_max_ms", worst);
    (values, per_round)
}

/// Output checks after the last round. Returns the failures found and a
/// description of each check for the output file.
fn output_checks(opts: &Options, rounds: &[Round], inputs: &Batch) -> (u64, Vec<(String, Value)>) {
    let w = &opts.workload;
    let last = rounds.last().expect("at least one round");
    let mut failures = 0u64;
    let mut notes = Vec::new();
    fn note(notes: &mut Vec<(String, Value)>, failures: &mut u64, name: &str, ok: bool) {
        *failures += u64::from(!ok);
        notes.push((name.to_string(), Value::Bool(ok)));
    }

    // Every round restarts from the same seed, so every round must see
    // exactly the same losses and logits.
    let repeatable = rounds
        .iter()
        .all(|r| r.losses == last.losses && r.logits == last.logits);
    note(
        &mut notes,
        &mut failures,
        "rounds_bit_identical",
        repeatable,
    );

    // Cold step, first warm step and the inference logits against the
    // reference executor, bit for bit.
    let models = models(w, opts.seed);
    let seq = SequentialExec;
    let mut model = models[0].clone();
    let mut opt = Sgd::new(0.01);
    let reference: Vec<u64> = (0..2)
        .map(|_| {
            seq.train_batch(&mut model, &inputs.xs, &inputs.target, &mut opt)
                .to_bits()
        })
        .collect();
    let same = last.losses.len() >= 2 && last.losses[..2] == reference[..];
    note(
        &mut notes,
        &mut failures,
        "train_losses_match_sequential",
        same,
    );
    let reference = output_bits(&seq.forward(&models[0], &inputs.xs));
    let same = last.logits == reference;
    note(
        &mut notes,
        &mut failures,
        "infer_logits_match_sequential",
        same,
    );

    // Sampled responses of each serve path against the reference executor
    // on the identically padded input: the request's own frames, then
    // zero frames up to the length its batch was padded to.
    let source = Source::new(w, opts.seed);
    let phases = last
        .phases
        .as_ref()
        .expect("the last round keeps its phases");
    for (name, phase) in ["closed", "open"].into_iter().zip(phases) {
        let served: Vec<&Delivery> = phase
            .deliveries
            .iter()
            .filter(|d| d.end == End::Served)
            .collect();
        let step = (served.len() / SERVE_SAMPLES).max(1);
        let mut checked = 0;
        let mut matched = 0;
        for d in served.iter().step_by(step).take(SERVE_SAMPLES) {
            let req = source.request(w, d.id);
            let dim = source.feature_dim();
            let xs: Vec<Matrix<f32>> = (0..d.padded_len)
                .map(|t| match req.frames.get(t) {
                    Some(frame) => Matrix::from_vec(1, dim, frame.clone()),
                    None => Matrix::zeros(1, dim),
                })
                .collect();
            let expect = seq.forward(&models[req.tenant as usize], &xs);
            let same = expect
                .logits
                .row(0)
                .iter()
                .map(|v| v.to_bits())
                .eq(d.logits.iter().map(|v| v.to_bits()));
            checked += 1;
            matched += usize::from(same);
        }
        let enough = checked >= SERVE_SAMPLES.min(phase.sends.len());
        let check = format!("{name}_responses_match_sequential");
        note(
            &mut notes,
            &mut failures,
            &check,
            enough && matched == checked,
        );
        notes.push((
            format!("{name}_responses_checked"),
            Value::Int(checked as i64),
        ));
    }
    (failures, notes)
}

pub fn run(opts: &Options) -> RunResult {
    let w = &opts.workload;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut tracer = Tracer::new(started, opts.trace);
    let mut warnings = Vec::new();

    // The serving tier and every one-worker executor run where this
    // thread runs; see `pin.rs`.
    if opts.place && !pin(Cpus::Tier) {
        warnings.push(
            "threads are not pinned (no taskset or no /proc/thread-self): \
             the kernel's placement is part of every number"
                .into(),
        );
    }

    // Rounds of fixed work until the next one would end further from
    // `--seconds` than this one did.
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        if let Some(previous) = rounds.last_mut() {
            previous.phases = None;
        }
        rounds.push(run_round(opts, rounds.len(), &mut tracer));
        let elapsed = started.elapsed();
        if elapsed + elapsed / (2 * rounds.len() as u32) >= budget {
            break;
        }
    }
    if rounds.len() < MIN_ROUNDS {
        warnings.push(format!(
            "only {} rounds in {:.0} s; the best of so few is noisier than specified",
            rounds.len(),
            opts.seconds
        ));
    }

    let (mut values, mut per_round) = aggregate(&rounds);
    // Peak memory is the high-water mark after the last round, before the
    // output checks allocate their reference models.
    let rss = peak_rss_mib();
    values.insert("peak_rss_mib", rss);
    per_round.insert("peak_rss_mib", vec![rss]);
    if values["serve.gen_lag_p99_ms"] > GEN_LAG_LIMIT_MS {
        warnings.push(format!(
            "generator ran late: serve.gen_lag_p99_ms = {:.3} ms > {GEN_LAG_LIMIT_MS} ms, \
             the open loop offered less load than its rate says",
            values["serve.gen_lag_p99_ms"]
        ));
    }
    // A percentile is reported only with enough samples beyond it: 15 per
    // round for the end-to-end p90, 10 in the pool for the layer p99.
    let per_round_samples = rounds.iter().map(|r| r.latencies.len()).min();
    let pooled_samples = values["serve.latency_samples"] as usize;
    for (what, n, p, need) in [
        ("serve_p90_ms", per_round_samples.unwrap_or(0), 0.90, 15),
        ("serve.latency_p99_ms", pooled_samples, 0.99, 10),
    ] {
        if beyond(n, p) < need {
            warnings.push(format!(
                "{what} has {} samples beyond it, fewer than {need}",
                beyond(n, p)
            ));
        }
    }

    let inputs = Batch::generate(w, opts.seed);
    let mut attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let checks_started = Instant::now();
    let (check_failures, check_notes) = output_checks(opts, &rounds, &inputs);
    let checks_s = checks_started.elapsed().as_secs_f64();
    failed += check_failures;
    attempted = attempted.max(1);

    let spread = END_TO_END
        .iter()
        .map(|m| iqr_frac(&per_round[m.name]))
        .fold(0.0f64, f64::max);
    let mut metrics = Vec::new();
    if opts.trace {
        let models = models(w, opts.seed);
        let live = layers::Live {
            // Layer numbers are medians over rounds; what they are held
            // against is too, not the best round.
            train_ms_per_batch: median(&per_round["train_ms_per_batch"]),
            infer_makespan_ms: values["runtime.makespan_ms"],
        };
        let effort = 1.0 / opts.divide as f64;
        values.extend(layers::probes(
            w,
            &models[0],
            &inputs,
            &live,
            effort,
            opts.place,
            &mut tracer,
        ));
        values.insert("bench.failed_frac", failed as f64 / attempted as f64);
        values.insert(
            "bench.trace_overhead_frac",
            values["bench.infer_traced_ms"] / median(&per_round["infer_ms_per_batch"]) - 1.0,
        );
        values.insert("bench.round_iqr_frac_max", spread);
        for m in &PER_LAYER {
            match values.get(m.name) {
                Some(&v) => metrics.push((m.name, v, m.unit)),
                None => {
                    failed += 1;
                    warnings.push(format!("per-layer metric {} was not measured", m.name));
                }
            }
        }
    } else {
        for m in &END_TO_END {
            metrics.push((m.name, values[m.name], m.unit));
        }
    }

    let rounds_json = per_round
        .iter()
        .map(|(name, v)| {
            let [q1, q2, q3] = quartiles(v);
            (
                name.to_string(),
                Value::Object(vec![
                    ("median".into(), Value::Float(median(v))),
                    (
                        "quartiles".into(),
                        Value::Array(vec![Value::Float(q1), Value::Float(q2), Value::Float(q3)]),
                    ),
                    (
                        "per_round".into(),
                        Value::Array(v.iter().map(|&x| Value::Float(x)).collect()),
                    ),
                ]),
            )
        })
        .collect();
    let detail = Value::Object(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::Int(opts.seed as i64)),
        ("trace".into(), Value::Bool(opts.trace)),
        ("rounds".into(), Value::Int(rounds.len() as i64)),
        (
            "wall_s".into(),
            Value::Float(started.elapsed().as_secs_f64()),
        ),
        ("round_iqr_frac_max".into(), Value::Float(spread)),
        ("checks_s".into(), Value::Float(checks_s)),
        ("checks".into(), Value::Object(check_notes)),
        (
            "warnings".into(),
            Value::Array(warnings.iter().map(|s| Value::Str(s.clone())).collect()),
        ),
        ("values".into(), Value::Object(rounds_json)),
    ]);
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
        trace: opts.trace.then(|| tracer.to_json()),
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workloads;

    /// A miniature traced run: every per-layer name the spec lists is
    /// measured and nothing else is reported, the outputs check out, and
    /// the trace carries request spans. (`divide` shrinks every count; the
    /// numbers mean nothing at this size.)
    #[test]
    fn traced_pass_emits_exactly_the_per_layer_names() {
        let workload = workloads()
            .into_iter()
            .find(|w| w.name == "fleet_tenants")
            .unwrap();
        let result = run(&Options {
            workload,
            seed: 3,
            seconds: 0.0,
            trace: true,
            divide: 25,
            place: false,
        });
        assert_eq!(result.failed, 0, "{:?}", result.warnings);
        assert!(result.correct);
        let emitted: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(emitted, listed);
        assert!(
            result.metrics.iter().all(|m| m.1.is_finite()),
            "{:?}",
            result.metrics
        );
        let trace = serde_json::to_string(&result.trace.unwrap()).unwrap();
        for name in [
            "bench.round",
            "core.try_forward_into",
            "router.submit",
            "serve.service",
        ] {
            assert!(trace.contains(name), "no {name} span");
        }
    }

    #[test]
    fn timed_pass_emits_exactly_the_end_to_end_names() {
        let workload = workloads()
            .into_iter()
            .find(|w| w.name == "fine_grain")
            .unwrap();
        let result = run(&Options {
            workload,
            seed: 4,
            seconds: 0.0,
            trace: false,
            divide: 25,
            place: false,
        });
        assert_eq!(result.failed, 0, "{:?}", result.warnings);
        let emitted: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(emitted, listed);
        assert!(
            result.metrics.iter().all(|m| m.1 > 0.0),
            "{:?}",
            result.metrics
        );
        assert!(result.trace.is_none());
    }
}
