//! The `bpar analyze` driver: builds real execution plans and runs the
//! `bpar-verify` prongs over them.
//!
//! `bpar-verify` holds the analyses (structural lints, the closed-form
//! Fig. 2 shape check, the clause differ, the happens-before race engine,
//! the schedule explorer, output fingerprinting) but knows nothing about
//! BRNNs; this module supplies the subjects. For one model configuration
//! it:
//!
//! 1. compiles the live executor's [`ExecPlan`] and lints both that plan
//!    and the simulator's [`crate::graphgen::build_graph`] twin, checking
//!    both against the closed-form shape;
//! 2. replays the plan once on a single-worker FIFO runtime with the
//!    access recorder and lock witness installed, then
//!    * diffs every task's *observed* region accesses against its
//!      *declared* `in`/`out` clauses (`clause-validation`),
//!    * classifies every conflicting access pair as ordered-by-an-edge or
//!      a race via the plan's happens-before relation (`happens-before`),
//!    * lints the witnessed lock-acquisition-order graph
//!      (`lock-discipline`);
//! 3. re-executes the plan under other schedules and fingerprints the
//!    outputs — every legal topological order of a sound graph must
//!    produce identical bits. Small plans (at most
//!    [`AnalyzeOptions::explore_max_tasks`] tasks) get *exhaustive*
//!    enumeration of all dependency-consistent orders with
//!    persistent-set + sleep-set pruning (`schedule-explore`); larger
//!    plans fall back to the adversarial policy sample
//!    ([`bpar_verify::fuzz_policies`], `schedule-fuzz`).
//!
//! [`AnalyzeOptions::seed_bug`] rebuilds the plan with one of the
//! [`SeedBug`] fixtures — each a realistic bug class that exactly one
//! prong can witness, proving the prongs are not redundant:
//!
//! * [`SeedBug::MissingClause`] — a dropped `in` clause; caught by the
//!   clause differ (`BPV201`) and by schedule fuzzing (`BPV212`).
//! * [`SeedBug::DroppedEdge`] — clauses intact, one compiled edge
//!   surgically removed; invisible to the clause differ and (because the
//!   reordered bodies commute bitwise) to fingerprint fuzzing — only the
//!   happens-before engine sees the unordered conflicting pair
//!   (`BPV301`).
//! * [`SeedBug::CrossEpochRace`] — two region ids aliasing one physical
//!   buffer; clauses and happens-before are region-keyed and stay clean —
//!   only exhaustive exploration, whose conflicts are keyed on observed
//!   *physical sites*, reaches a schedule whose fingerprint diverges
//!   (`BPV401`).
//!
//! Fault injection ([`AnalyzeOptions::fault`]) and cooperative
//! cancellation ([`AnalyzeOptions::cancel`]) can be layered onto the
//! recorded replay to prove the analyses do not false-positive on
//! *expected* incompleteness: injected panics and cancelled epochs gate
//! the completion-dependent lints instead of tripping them.
//!
//! Everything is deterministic: the model is seeded, the batch is a
//! hash-filled tensor, single-worker replays are schedule-deterministic,
//! fault plans are seeded draws, and findings are sorted — the JSON
//! report is byte-identical across reruns.

use crate::cell::CellParams;
use crate::emit::Discipline;
use crate::exec::builder::{BodyConfig, WeightStore};
use crate::exec::plan::ExecPlan;
use crate::exec::taskgraph::{collect_logits, row_chunks};
use crate::exec::Target;
use crate::graphgen::{build_graph, GraphSpec, Phase};
use crate::model::{Brnn, BrnnConfig, BrnnGrads, ModelKind};
use crate::scanplan::RecurrenceStrategy;
use bpar_runtime::lockwitness::{self, LockWitness};
use bpar_runtime::validate::AccessEvent;
use bpar_runtime::{
    AccessRecorder, CancelCell, FaultConfig, FaultPlan, RegionId, Runtime, RuntimeConfig,
    SchedulerPolicy,
};
use bpar_tensor::{Backend, Float, Matrix};
use bpar_verify::{
    check_happens_before, check_lock_discipline, check_shape, collect_metrics, explore_schedules,
    policy_name, run_lints, validate_clauses, AnalysisReport, ExploreBudget, Finding, Fnv64,
    GraphReport, GraphView, ReplayOutcome, ShapeSpec,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

pub use crate::emit::{Coarsen, SeedBug};

/// What to analyze: one model configuration and batch shape.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Model hyper-parameters (`config.seq_len` is the batch length).
    pub config: BrnnConfig,
    /// Batch rows.
    pub rows: usize,
    /// Mini-batch replicas.
    pub mbs: usize,
    /// Analyze the training graph (loss + backward + reductions) instead
    /// of inference.
    pub train: bool,
    /// Build the plan with one deliberately seeded bug to prove the
    /// detectors fire (each [`SeedBug`] targets a different prong).
    pub seed_bug: Option<SeedBug>,
    /// Seeds for the random adversarial schedules (on top of the always-on
    /// FIFO and reverse orders) when the fuzz fallback runs.
    pub fuzz_seeds: Vec<u64>,
    /// Model weight initialisation seed.
    pub model_seed: u64,
    /// Plans with at most this many tasks get exhaustive schedule
    /// exploration instead of policy fuzzing.
    pub explore_max_tasks: usize,
    /// Hard cap on replayed schedules during exploration; hitting it
    /// truncates the proof (reported, never silent).
    pub explore_max_schedules: usize,
    /// Run the recorded replay under seeded fault injection. Injected
    /// panics are *expected*: they gate completion-dependent lints and
    /// suppress the schedule prongs rather than producing findings.
    pub fault: Option<FaultConfig>,
    /// Claim a cancel token before the recorded replay: every body is
    /// skipped, the epoch completes without error, and the analyses must
    /// stay silent about the (expected) emptiness.
    pub cancel: bool,
    /// Scheduler policy for the recorded replay. The clause and
    /// happens-before prongs are schedule-independent, so any policy is a
    /// valid witness; running them under `WorkStealing` proves the
    /// per-worker-deque scheduler produces clean executions too. Schedule
    /// exploration always scripts its own orders over a FIFO runtime
    /// regardless of this setting.
    pub scheduler: SchedulerPolicy,
    /// Recurrence strategy for the analysed graph. Scan requests resolve
    /// through [`RecurrenceStrategy::effective`] exactly like the
    /// executor's plan cache, so `scan` on a non-scannable cell analyses
    /// the chain graph it would actually run.
    pub recurrence: RecurrenceStrategy,
    /// Timesteps per task of the analysed plan. The default
    /// [`Coarsen::By`]`(1)` is the paper's graph; [`Coarsen::Rule`] is the
    /// plan an executor compiles for this shape. Seeded plans are never
    /// folded.
    pub coarsen: Coarsen,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self {
            config: BrnnConfig {
                layers: 3,
                seq_len: 3,
                input_size: 8,
                hidden_size: 8,
                output_size: 4,
                ..BrnnConfig::default()
            },
            rows: 4,
            mbs: 1,
            train: true,
            seed_bug: None,
            fuzz_seeds: vec![42, 1337],
            model_seed: 7,
            explore_max_tasks: 12,
            explore_max_schedules: 4096,
            fault: None,
            cancel: false,
            scheduler: SchedulerPolicy::Fifo,
            recurrence: RecurrenceStrategy::Chain,
            coarsen: Coarsen::By(1),
        }
    }
}

/// Runs every prong over the configured graph and returns the combined
/// report: sections `static-plan`, `static-graphgen`, `clause-validation`,
/// `happens-before`, `lock-discipline` and — unless fault/cancel
/// injection is active — either `schedule-explore` (small plans) or
/// `schedule-fuzz`.
pub fn analyze(opts: &AnalyzeOptions) -> AnalysisReport {
    let model = Brnn::<f64>::new(opts.config, opts.model_seed);
    let batch = synth_batch(&opts.config, opts.rows);
    let target = synth_target(&opts.config, opts.rows);
    let recurrence = opts
        .recurrence
        .effective(opts.config.cell, opts.config.seq_len);
    let plan = build_plan(opts, &model, &batch);
    let names = region_name_map(&plan, opts.seed_bug);
    let name_of = |r: RegionId| {
        names
            .get(&r.0)
            .cloned()
            .unwrap_or_else(|| bpar_verify::default_region_name(r))
    };
    let replicas = row_chunks(opts.rows, opts.mbs).len();
    // Read the strategy back off the compiled replica rather than trusting
    // the local resolution: the shape check must describe the graph that
    // was actually built.
    let built_strategy = plan.replicas[0].strategy;
    debug_assert_eq!(built_strategy, recurrence);
    let spec = ShapeSpec {
        layers: opts.config.layers,
        seq: opts.config.seq_len,
        outputs: crate::emit::output_count(opts.config.kind, opts.config.seq_len),
        replicas,
        training: opts.train,
        scan_chunks: built_strategy.scan_chunks(),
        coarsen: plan.coarsen,
    };

    // Prong 1a: structural lints + shape over the compiled plan. The
    // seeded graph-surgery bugs change the compiled shape by a known
    // delta; compensate so the shape check stays a pure Fig. 2 gate and
    // the seeded bug is caught by its *designated* prong only.
    let plan_view = GraphView::from_plan(&plan.compiled);
    let (shape_tasks, shape_edges) = match opts.seed_bug {
        Some(SeedBug::DroppedEdge) => (plan_view.len(), plan_view.edge_count() + 1),
        Some(SeedBug::CrossEpochRace) => (plan_view.len() - 1, plan_view.edge_count() - 1),
        _ => (plan_view.len(), plan_view.edge_count()),
    };
    let mut plan_findings = run_lints(&plan_view, &name_of);
    plan_findings.extend(check_shape(shape_tasks, shape_edges, &spec));
    let plan_metrics = collect_metrics(&plan_view);

    // Prong 1b: the same lints over the simulator's consumer of the same
    // node stream — region mapping and ablation-free transforms must not
    // change the dataflow.
    let phase = if opts.train {
        Phase::Training
    } else {
        Phase::Inference
    };
    let gspec = GraphSpec {
        config: opts.config,
        batch_rows: opts.rows,
        mbs: opts.mbs,
        phase,
        barriers: false,
        fuse_merges: false,
        split_cells: false,
        recurrence: opts.recurrence,
        coarsen: Coarsen::By(plan.coarsen),
    };
    let graph = build_graph(&gspec);
    let graph_view = GraphView::from_graph(&graph);
    let mut graph_findings = run_lints(&graph_view, &bpar_verify::default_region_name);
    graph_findings.extend(check_shape(
        graph_view.len(),
        graph_view.edge_count(),
        &spec,
    ));
    let graph_metrics = collect_metrics(&graph_view);

    // Prong 2: one recorded FIFO replay feeding three analyses — the
    // clause differ, the happens-before race engine, and the lock
    // discipline lints.
    let run = recorded_replay(&plan, &model, &batch, &target, opts);
    let mut clause_findings = validate_clauses(&plan_view, &run.events, run.completed, &name_of);
    if let Some(msg) = &run.panic {
        // Injected faults are supposed to panic; only an *uninjected*
        // panic is a finding.
        if opts.fault.is_none() {
            clause_findings.push(Finding::graph_error(
                "validation-run-panic",
                format!("recorded replay did not complete: {msg}"),
            ));
        }
    }
    let hb_findings = check_happens_before(&plan_view, &run.events, &name_of);
    let task_label = |t: usize| {
        plan_view
            .tasks
            .get(t)
            .map(|tv| tv.label.clone())
            .unwrap_or_else(|| format!("task {t}"))
    };
    let lock_findings = check_lock_discipline(&run.lock_edges, &run.task_acqs, &task_label);

    let mut sections = vec![
        GraphReport::new("static-plan", plan_metrics, plan_findings),
        GraphReport::new("static-graphgen", graph_metrics, graph_findings),
        GraphReport::new(
            "clause-validation",
            collect_metrics(&plan_view),
            clause_findings,
        ),
        GraphReport::new("happens-before", collect_metrics(&plan_view), hb_findings),
        GraphReport::new(
            "lock-discipline",
            collect_metrics(&plan_view),
            lock_findings,
        ),
    ];

    // Prong 3: schedule exploration (small plans) or fuzzing. Skipped
    // entirely under fault/cancel injection — the injected panics and
    // skipped bodies would surface as schedule-panic false positives.
    if opts.fault.is_none() && !opts.cancel {
        if plan_view.len() <= opts.explore_max_tasks {
            let (findings, stats) = explore_plan(
                &plan,
                &model,
                &batch,
                &target,
                opts,
                &plan_view,
                &run.events,
            );
            let mut metrics = collect_metrics(&plan_view);
            metrics.explored_schedules = stats.replayed;
            metrics.pruned_branches = stats.pruned;
            metrics.explore_complete = usize::from(stats.complete);
            sections.push(GraphReport::new("schedule-explore", metrics, findings));
        } else {
            let fuzz_findings =
                fuzz_plan(&plan, &model, &batch, &target, opts.train, &opts.fuzz_seeds);
            sections.push(GraphReport::new(
                "schedule-fuzz",
                collect_metrics(&plan_view),
                fuzz_findings,
            ));
        }
    }

    AnalysisReport::new(sections)
}

/// Compiles the live plan `opts` describes (seeded bug included).
fn build_plan(opts: &AnalyzeOptions, model: &Brnn<f64>, batch: &[Matrix<f64>]) -> ExecPlan<f64> {
    // Every analysis replay runs on a one-worker runtime.
    let body = BodyConfig {
        backend: Backend::default(),
        strategy: opts
            .recurrence
            .effective(opts.config.cell, opts.config.seq_len),
        train: opts.train,
        workers: 1,
    };
    let weights = Arc::new(WeightStore::new(model));
    let (seed, coarsen) = (opts.seed_bug, opts.coarsen);
    ExecPlan::build(
        weights,
        batch,
        opts.mbs,
        seed,
        body,
        coarsen,
        Discipline::BPar,
    )
}

/// The compiled live plan [`analyze`] examines for `opts`, as a view:
/// labels, tags, declared clauses and frozen edges of every task. Lets
/// tests outside the crate hold the plan against
/// [`crate::graphgen::build_graph`].
pub fn plan_view(opts: &AnalyzeOptions) -> GraphView {
    let model = Brnn::<f64>::new(opts.config, opts.model_seed);
    let plan = build_plan(opts, &model, &synth_batch(&opts.config, opts.rows));
    GraphView::from_plan(&plan.compiled)
}

/// Wall-clock seconds of each of `replays` warm replays (batch load,
/// replay, `taskwait`) of the plan [`analyze`] examines for `opts`, on one
/// worker under `opts.scheduler`. Executors derive their granularity from
/// the shape; this is how the `granularity` experiment times one shape at
/// every [`AnalyzeOptions::coarsen`].
pub fn time_replays(opts: &AnalyzeOptions, replays: usize) -> Vec<f64> {
    let model = Brnn::<f64>::new(opts.config, opts.model_seed);
    let batch = synth_batch(&opts.config, opts.rows);
    let target = synth_target(&opts.config, opts.rows);
    let plan = build_plan(opts, &model, &batch);
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        policy: opts.scheduler,
        record_trace: false,
    });
    let replay = || {
        let t0 = std::time::Instant::now();
        plan.load_batch(&model, &batch);
        if opts.train {
            plan.load_target(&target);
        }
        rt.replay(&plan.compiled);
        rt.taskwait().expect("clean plan panicked");
        t0.elapsed().as_secs_f64()
    };
    (0..3).for_each(|_| _ = replay());
    (0..replays).map(|_| replay()).collect()
}

/// Human-readable `(cell, slot)` coordinates for every region any task
/// of the plan declares, e.g. `r0.st_fwd[1][2]`.
fn region_name_map<T: Float>(plan: &ExecPlan<T>, seed: Option<SeedBug>) -> HashMap<u64, String> {
    let coarsen = Coarsen::By(plan.coarsen);
    let (streams, _) =
        ExecPlan::stream(&plan.replicas, plan.train, seed, coarsen, Discipline::BPar);
    let mut names = HashMap::new();
    for s in &streams {
        for n in &s.nodes {
            for &(rep, slot) in s.ins(n).iter().chain(s.outs(n)) {
                names.insert(plan.replicas[rep].region(slot).0, format!("r{rep}.{slot}"));
            }
        }
    }
    names
}

/// Everything one recorded replay yields for the analyses.
struct RecordedRun {
    /// Observed accesses, in deterministic (shard-merged) order.
    events: Vec<AccessEvent>,
    /// True when every task body actually ran: no panic, no claimed
    /// cancel token. Gates the completion-dependent lints
    /// (`dead-declaration`).
    completed: bool,
    /// Panic message, if the replay panicked.
    panic: Option<String>,
    /// Witnessed lock-acquisition-order edges (held → then-acquired).
    lock_edges: BTreeSet<(String, String)>,
    /// Witnessed (task id, lock) acquisitions inside task bodies.
    task_acqs: BTreeSet<(usize, String)>,
}

/// Replays `plan` once on a single-worker runtime (policy from
/// [`AnalyzeOptions::scheduler`]) with the access recorder and lock
/// witness installed, optionally under fault injection or a pre-claimed
/// cancel token.
fn recorded_replay<T: Float>(
    plan: &ExecPlan<T>,
    model: &Brnn<T>,
    batch: &[Matrix<T>],
    target: &Target,
    opts: &AnalyzeOptions,
) -> RecordedRun {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        policy: opts.scheduler,
        record_trace: false,
    });
    let recorder = Arc::new(AccessRecorder::new());
    rt.set_validation(Some(recorder.clone()));
    let witness = Arc::new(LockWitness::new());
    lockwitness::install(Some(witness.clone()));
    if let Some(cfg) = opts.fault {
        rt.set_fault_plan(Some(Arc::new(FaultPlan::new(cfg))));
    }
    if opts.cancel {
        let cell = Arc::new(CancelCell::new());
        assert!(cell.try_claim(), "fresh cancel token must be claimable");
        rt.set_cancel_token(Some(cell));
    }

    plan.clear_values();
    plan.load_batch(model, batch);
    if opts.train {
        plan.load_target(target);
    }
    rt.replay(&plan.compiled);
    let result = rt.taskwait();

    let cancelled = rt.cancel_claimed();
    rt.set_fault_plan(None);
    rt.set_cancel_token(None);
    rt.set_validation(None);
    lockwitness::install(None);
    let events = recorder.take_events();
    plan.clear_values();

    let lock_edges = witness
        .edges()
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let task_acqs = witness
        .task_acquisitions()
        .into_iter()
        .map(|(t, l)| (t, l.to_string()))
        .collect();
    RecordedRun {
        events,
        completed: result.is_ok() && !cancelled,
        panic: result.err(),
        lock_edges,
        task_acqs,
    }
}

/// Exhaustively replays every dependency-consistent schedule of `plan`
/// (with persistent-set + sleep-set pruning) and checks fingerprint
/// invariance. Conflicts are keyed on *observed physical sites* from the
/// recorded baseline run, so storage aliased under two region ids still
/// conflicts — the property that makes this prong strictly stronger than
/// the region-keyed ones on small plans.
fn explore_plan<T: Float>(
    plan: &ExecPlan<T>,
    model: &Brnn<T>,
    batch: &[Matrix<T>],
    target: &Target,
    opts: &AnalyzeOptions,
    view: &GraphView,
    events: &[AccessEvent],
) -> (Vec<Finding>, bpar_verify::ExploreStats) {
    let n = view.len();
    // Symmetric conflict matrix: tasks conflict when they touch the same
    // physical site and at least one access is a write.
    let mut by_site: HashMap<u64, Vec<(usize, bool)>> = HashMap::new();
    for ev in events {
        if ev.task < n {
            by_site.entry(ev.site).or_default().push((
                ev.task,
                ev.kind == bpar_runtime::validate::AccessKind::Write,
            ));
        }
    }
    let mut conflict = vec![false; n * n];
    for accesses in by_site.values() {
        for (i, &(ta, wa)) in accesses.iter().enumerate() {
            for &(tb, wb) in &accesses[i + 1..] {
                if ta != tb && (wa || wb) {
                    conflict[ta * n + tb] = true;
                    conflict[tb * n + ta] = true;
                }
            }
        }
    }
    let conflicts = |a: usize, b: usize| conflict[a * n + b];
    let succs: Vec<Vec<usize>> = view.tasks.iter().map(|t| t.succs.clone()).collect();

    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        policy: SchedulerPolicy::Fifo,
        record_trace: false,
    });
    let mut replay = |order: &[usize]| {
        rt.set_schedule_script(Some(order.to_vec().into()));
        plan.clear_values();
        plan.load_batch(model, batch);
        if opts.train {
            plan.load_target(target);
        }
        rt.replay(&plan.compiled);
        let outcome = match rt.taskwait() {
            Ok(()) => ReplayOutcome::Ok(fingerprint_outputs(plan, model, opts.train)),
            Err(msg) => ReplayOutcome::Panic(msg),
        };
        plan.clear_values();
        outcome
    };
    let budget = ExploreBudget {
        max_tasks: opts.explore_max_tasks,
        max_schedules: opts.explore_max_schedules,
    };
    let result = explore_schedules(&succs, &conflicts, budget, &mut replay);
    rt.set_schedule_script(None);
    result
}

/// One fuzzed replay's result: an output fingerprint or a panic message.
enum Outcome {
    Ok(String),
    Panic(String),
}

impl Outcome {
    fn describe(&self) -> String {
        match self {
            Outcome::Ok(hex) => format!("ok fingerprint={hex}"),
            Outcome::Panic(msg) => format!("panic: {msg}"),
        }
    }
}

/// Replays `plan` under each fuzzing policy on a fresh single-worker
/// runtime and compares output fingerprints. Single-worker replays are
/// fully deterministic per policy, so the run set is reproducible and any
/// divergence is a stable witness.
fn fuzz_plan<T: Float>(
    plan: &ExecPlan<T>,
    model: &Brnn<T>,
    batch: &[Matrix<T>],
    target: &Target,
    train: bool,
    seeds: &[u64],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut outcomes: Vec<(String, Outcome)> = Vec::new();
    for policy in bpar_verify::fuzz_policies(seeds) {
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            policy,
            record_trace: false,
        });
        plan.clear_values();
        plan.load_batch(model, batch);
        if train {
            plan.load_target(target);
        }
        rt.replay(&plan.compiled);
        let outcome = match rt.taskwait() {
            Ok(()) => Outcome::Ok(fingerprint_outputs(plan, model, train)),
            Err(msg) => Outcome::Panic(msg),
        };
        plan.clear_values();
        outcomes.push((policy_name(policy), outcome));
    }

    for (name, outcome) in &outcomes {
        if let Outcome::Panic(msg) = outcome {
            findings.push(Finding::graph_error(
                "schedule-panic",
                format!(
                    "plan panics under the {name} schedule but not under every \
                     schedule — a dependency the graph does not order: {msg}"
                ),
            ));
        }
    }
    let digests: Vec<&Outcome> = outcomes.iter().map(|(_, o)| o).collect();
    let all_equal = digests.windows(2).all(|w| match (w[0], w[1]) {
        (Outcome::Ok(a), Outcome::Ok(b)) => a == b,
        _ => false,
    });
    if !all_equal && outcomes.len() > 1 {
        let detail = outcomes
            .iter()
            .map(|(name, o)| format!("{name}: {}", o.describe()))
            .collect::<Vec<_>>()
            .join("; ");
        findings.push(Finding::graph_error(
            "schedule-divergence",
            format!(
                "replaying the same plan under different legal schedules does \
                 not produce identical bits — race witness: {detail}"
            ),
        ));
    }
    findings
}

/// FNV-1a digest of everything a run produces: logits for inference, loss
/// plus every gradient matrix for training. Reads the plan's output
/// slots; the caller clears them afterwards.
fn fingerprint_outputs<T: Float>(plan: &ExecPlan<T>, model: &Brnn<T>, train: bool) -> String {
    let mut h = Fnv64::new();
    if train {
        h.write_f64(plan.replicas[0].loss());
        hash_grads(&mut h, &plan.replicas[0].grads());
    } else {
        let out = collect_logits(model, &plan.replicas);
        hash_matrix(&mut h, &out.logits);
        for m in &out.seq_logits {
            hash_matrix(&mut h, m);
        }
    }
    h.hex()
}

fn hash_matrix<T: Float>(h: &mut Fnv64, m: &Matrix<T>) {
    h.write_u64(m.rows() as u64);
    h.write_u64(m.cols() as u64);
    for &v in m.as_slice() {
        h.write_f64(v.to_f64());
    }
}

fn hash_cell<T: Float>(h: &mut Fnv64, c: &CellParams<T>) {
    match c {
        CellParams::Lstm(p) => {
            hash_matrix(h, &p.w);
            hash_matrix(h, &p.b);
        }
        CellParams::Gru(p) => {
            hash_matrix(h, &p.wzr);
            hash_matrix(h, &p.bzr);
            hash_matrix(h, &p.wh);
            hash_matrix(h, &p.bh);
        }
        CellParams::Vanilla(p) => {
            hash_matrix(h, &p.w);
            hash_matrix(h, &p.b);
        }
        CellParams::Linear(p) => {
            hash_matrix(h, &p.w);
            hash_matrix(h, &p.lambda);
            hash_matrix(h, &p.b);
        }
    }
}

fn hash_grads<T: Float>(h: &mut Fnv64, g: &BrnnGrads<T>) {
    for layer in &g.layers {
        hash_cell(h, &layer.fwd);
        hash_cell(h, &layer.rev);
    }
    hash_matrix(h, &g.dense.w);
    hash_matrix(h, &g.dense.b);
}

/// Deterministic hash-filled input batch (`seq_len` matrices of
/// `rows × input_size`), independent of any RNG crate.
pub fn synth_batch<T: Float>(config: &BrnnConfig, rows: usize) -> Vec<Matrix<T>> {
    (0..config.seq_len)
        .map(|t| {
            Matrix::from_fn(rows, config.input_size, |r, c| {
                T::from_f64(unit_hash(t as u64, r as u64, c as u64) - 0.5)
            })
        })
        .collect()
}

/// Deterministic targets matching the model kind.
pub fn synth_target(config: &BrnnConfig, rows: usize) -> Target {
    let class = |t: u64, r: u64| (unit_hash(t, r, 0xC1A55) * config.output_size as f64) as usize;
    match config.kind {
        ModelKind::ManyToOne => Target::Classes((0..rows).map(|r| class(0, r as u64)).collect()),
        ModelKind::ManyToMany => Target::SeqClasses(
            (0..config.seq_len)
                .map(|t| (0..rows).map(|r| class(t as u64, r as u64)).collect())
                .collect(),
        ),
    }
}

/// SplitMix64-style mix of three coordinates into `[0, 1)`.
fn unit_hash(a: u64, b: u64, c: u64) -> f64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_batch_is_deterministic_and_shaped() {
        let config = BrnnConfig::default();
        let a = synth_batch::<f64>(&config, 3);
        let b = synth_batch::<f64>(&config, 3);
        assert_eq!(a.len(), config.seq_len);
        assert_eq!(a[0].rows(), 3);
        assert_eq!(a[0].cols(), config.input_size);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn synth_targets_are_in_range() {
        let config = BrnnConfig {
            kind: ModelKind::ManyToMany,
            ..BrnnConfig::default()
        };
        match synth_target(&config, 5) {
            Target::SeqClasses(ts) => {
                assert_eq!(ts.len(), config.seq_len);
                for t in ts {
                    assert_eq!(t.len(), 5);
                    assert!(t.iter().all(|&c| c < config.output_size));
                }
            }
            Target::Classes(_) => panic!("wrong target kind"),
        }
    }

    #[test]
    fn clean_training_graph_has_zero_findings() {
        let opts = AnalyzeOptions::default();
        let report = analyze(&opts);
        assert_eq!(
            report.errors,
            0,
            "clean build must produce a zero-finding report:\n{}",
            report.to_json()
        );
    }

    #[test]
    fn clean_inference_graph_has_zero_findings() {
        let opts = AnalyzeOptions {
            train: false,
            ..AnalyzeOptions::default()
        };
        let report = analyze(&opts);
        assert_eq!(report.errors, 0, "{}", report.to_json());
    }

    #[test]
    fn work_stealing_replay_has_zero_findings() {
        // The clause/HB prongs are schedule-independent; a recorded
        // replay under the per-worker-deque scheduler must be as clean as
        // the FIFO one.
        let opts = AnalyzeOptions {
            scheduler: SchedulerPolicy::WorkStealing,
            ..AnalyzeOptions::default()
        };
        let report = analyze(&opts);
        assert_eq!(report.errors, 0, "{}", report.to_json());
    }

    #[test]
    fn scan_training_graph_has_zero_findings() {
        // The full prong stack over a live scan plan: shape (plan and
        // graphgen twin), clause differ, happens-before, lock discipline
        // and schedule fuzzing must all come back clean.
        let opts = AnalyzeOptions {
            config: BrnnConfig {
                cell: crate::cell::CellKind::Linear,
                layers: 2,
                seq_len: 8,
                input_size: 6,
                hidden_size: 6,
                output_size: 3,
                ..BrnnConfig::default()
            },
            recurrence: RecurrenceStrategy::Scan { chunks: 4 },
            ..AnalyzeOptions::default()
        };
        let report = analyze(&opts);
        assert_eq!(report.errors, 0, "{}", report.to_json());
    }

    #[test]
    fn scan_inference_graph_has_zero_findings() {
        let opts = AnalyzeOptions {
            config: BrnnConfig {
                cell: crate::cell::CellKind::Linear,
                layers: 2,
                seq_len: 9, // uneven 4-chunk split
                input_size: 6,
                hidden_size: 6,
                output_size: 3,
                ..BrnnConfig::default()
            },
            train: false,
            mbs: 2,
            recurrence: RecurrenceStrategy::Scan { chunks: 4 },
            ..AnalyzeOptions::default()
        };
        let report = analyze(&opts);
        assert_eq!(report.errors, 0, "{}", report.to_json());
    }

    #[test]
    fn scan_fallback_on_chain_cell_analyses_the_chain_graph() {
        // LSTM + scan request: both the compiled plan and the graphgen
        // twin must resolve to the chain shape — no phantom scan counts.
        let opts = AnalyzeOptions {
            recurrence: RecurrenceStrategy::Scan { chunks: 4 },
            ..AnalyzeOptions::default()
        };
        let report = analyze(&opts);
        assert_eq!(report.errors, 0, "{}", report.to_json());
    }

    #[test]
    fn reports_are_byte_identical_across_reruns() {
        let opts = AnalyzeOptions {
            mbs: 2,
            ..AnalyzeOptions::default()
        };
        let a = analyze(&opts).to_json();
        let b = analyze(&opts).to_json();
        assert_eq!(a, b);
    }
}
