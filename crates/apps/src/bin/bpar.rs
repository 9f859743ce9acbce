//! `bpar` — command-line front end for the B-Par stack.
//!
//! ```text
//! bpar train-speech [--layers N] [--hidden N] [--epochs N] [--mbs N]
//!                   [--save PATH]                 train a BLSTM digit classifier
//! bpar train-chars  [--layers N] [--hidden N] [--steps N] [--cell lstm|gru]
//!                   [--save PATH]                 train a next-char model
//! bpar eval         --model PATH                  evaluate a checkpoint
//! bpar simulate     [--layers N] [--hidden N] [--batch N] [--seq N]
//!                   [--cores LIST] [--mbs N] [--barriers]
//!                                                 simulated multi-core batch times
//! bpar serve        [--rate R] [--requests N] [--window-us U] [--max-batch N]
//!                   [--policy block|reject|shed] [--mode open|closed] [--model PATH]
//!                   [--fault-panic-rate P] [--fault-straggle-rate P] [--fault-seed S]
//!                   [--retry-max N] [--retry-backoff-us U] [--counters-out PATH]
//!                   [--replicas N] [--routing hash|least-loaded]
//!                   [--hedge-mode off|at-dispatch|deadline] [--hedge-quantile Q]
//!                   [--tenants FILE] [--plan-budget-kib N] [--pool-budget-kib N]
//!                   [--backend scalar|simd]
//!                   [--scheduler fifo|locality|work-stealing]
//!                   [--recurrence chain|scan|scan:N]
//!                                                 dynamic-batching inference serving
//!                                                 (a batch runs whenever the executor
//!                                                 is free; --window-us bounds how long
//!                                                 full batches may pass over a partial
//!                                                 one; optionally under injected
//!                                                 faults; --replicas > 1 runs the
//!                                                 routed multi-replica fleet tier)
//! bpar analyze      [--layers N] [--hidden N] [--seq N] [--batch N] [--mbs N]
//!                   [--cell lstm|gru|vanilla|linear] [--kind m2o|m2m] [--inference]
//!                   [--seed-bug [missing-clause|dropped-edge|cross-epoch-race]]
//!                   [--explore-max-tasks N] [--explore-max-schedules N]
//!                   [--scheduler fifo|locality|work-stealing]
//!                   [--recurrence chain|scan|scan:N]
//!                   [--format text|json] [--out PATH]
//!                                                 verify dependency clauses, graph
//!                                                 structure, happens-before races,
//!                                                 lock discipline and schedule
//!                                                 invariance; exit 1 on findings
//! ```
//!
//! Argument parsing is hand-rolled (no CLI-crate dependency); every
//! subcommand prints a compact report and exits non-zero on bad usage.

use bpar_core::graphgen::{build_graph, GraphSpec};
use bpar_core::prelude::*;
use bpar_core::scanplan::RecurrenceStrategy;
use bpar_core::train::{Batch, Trainer};
use bpar_data::tidigits::{TidigitsDataset, DIGIT_CLASSES};
use bpar_data::wikitext::{WikitextDataset, VOCAB_SIZE};
use bpar_runtime::SchedulerPolicy;
use bpar_sim::{simulate, SimConfig};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "train-speech" => train_speech(&opts),
        "train-chars" => train_chars(&opts),
        "eval" => eval(&opts),
        "simulate" => simulate_cmd(&opts),
        "serve" => serve_cmd(&opts),
        "analyze" => analyze_cmd(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
bpar — task-based bidirectional RNNs (B-Par reproduction)

USAGE:
  bpar train-speech [--layers N] [--hidden N] [--epochs N] [--mbs N] [--save PATH]
  bpar train-chars  [--layers N] [--hidden N] [--steps N] [--cell lstm|gru|vanilla] [--save PATH]
  bpar eval         --model PATH
  bpar simulate     [--layers N] [--hidden N] [--batch N] [--seq N]
                    [--cores a,b,c] [--mbs N] [--barriers]
  bpar serve        [--rate R] [--requests N] [--window-us U] [--max-batch N]
                    [--bucket-width N] [--queue-cap N] [--policy block|reject|shed]
                    [--mode open|closed] [--deadline-ms D] [--workers N] [--seed S]
                    [--layers N] [--hidden N] [--model PATH]
                    [--fault-seed S] [--fault-panic-rate P] [--fault-straggle-rate P]
                    [--fault-straggle-us U] [--fault-panic-budget N]
                    [--retry-max N] [--retry-backoff-us U] [--counters-out PATH]
                    [--replicas N] [--routing hash|least-loaded]
                    [--hedge-mode off|at-dispatch|deadline] [--hedge-quantile Q]
                    [--tenants FILE] [--plan-budget-kib N] [--pool-budget-kib N]
                    [--backend scalar|simd]
                    [--scheduler fifo|locality|work-stealing]
                    [--recurrence chain|scan|scan:N]
                    (a batch runs whenever the executor is free; --window-us,
                    default 2000, bounds how long full batches may pass over
                    a waiting partial one)
  bpar analyze      [--layers N] [--hidden N] [--seq N] [--batch N] [--mbs N]
                    [--cell lstm|gru|vanilla|linear] [--kind m2o|m2m] [--inference]
                    [--fuzz-seeds a,b,c] [--scheduler fifo|locality|work-stealing]
                    [--seed-bug [missing-clause|dropped-edge|cross-epoch-race]]
                    [--explore-max-tasks N] [--explore-max-schedules N]
                    [--recurrence chain|scan|scan:N]
                    [--format text|json] [--out PATH]";

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut out = Flags::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        // Boolean flags take no value.
        if matches!(name, "barriers" | "inference") {
            out.insert(name.into(), "true".into());
            continue;
        }
        // `--seed-bug` takes an optional bug name; bare means the
        // original missing-clause fixture.
        if name == "seed-bug" {
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
                _ => "missing-clause".into(),
            };
            out.insert(name.into(), value);
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        out.insert(name.into(), value.clone());
    }
    Ok(out)
}

fn get_usize(opts: &Flags, name: &str, default: usize) -> Result<usize, String> {
    match opts.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects an integer, got `{v}`")),
    }
}

fn get_f64(opts: &Flags, name: &str, default: f64) -> Result<f64, String> {
    match opts.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got `{v}`")),
    }
}

fn get_scheduler(opts: &Flags, default: SchedulerPolicy) -> Result<SchedulerPolicy, String> {
    match opts.get("scheduler") {
        None => Ok(default),
        Some(name) => SchedulerPolicy::parse(name).ok_or_else(|| {
            format!("--scheduler expects fifo|locality|work-stealing, got `{name}`")
        }),
    }
}

fn get_cell(opts: &Flags) -> Result<CellKind, String> {
    match opts.get("cell").map(String::as_str) {
        None | Some("lstm") => Ok(CellKind::Lstm),
        Some("gru") => Ok(CellKind::Gru),
        Some("vanilla") => Ok(CellKind::Vanilla),
        Some("linear") => Ok(CellKind::Linear),
        Some(other) => Err(format!("unknown cell `{other}`")),
    }
}

fn get_recurrence(opts: &Flags) -> Result<RecurrenceStrategy, String> {
    match opts.get("recurrence") {
        None => Ok(RecurrenceStrategy::Chain),
        Some(name) => RecurrenceStrategy::parse(name)
            .ok_or_else(|| format!("--recurrence expects chain|scan|scan:N, got `{name}`")),
    }
}

fn train_speech(opts: &Flags) -> Result<(), String> {
    let config = BrnnConfig {
        cell: get_cell(opts)?,
        input_size: 20,
        hidden_size: get_usize(opts, "hidden", 32)?,
        layers: get_usize(opts, "layers", 2)?,
        seq_len: 14,
        output_size: DIGIT_CLASSES,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToOne,
    };
    let epochs = get_usize(opts, "epochs", 4)?;
    let mbs = get_usize(opts, "mbs", 2)?;
    let data = TidigitsDataset::new(config.input_size, 11, 2024);
    let train: Vec<Batch<f32>> = (0..30u64)
        .map(|i| {
            let (xs, labels) = data.batch(i * 16, 16, config.seq_len);
            Batch {
                xs,
                target: Target::Classes(labels),
            }
        })
        .collect();
    let eval_batch: Vec<Batch<f32>> = vec![{
        let (xs, labels) = data.batch(1_000_000, 128, config.seq_len);
        Batch {
            xs,
            target: Target::Classes(labels),
        }
    }];

    let exec = TaskGraphExec::with_config(0, SchedulerPolicy::LocalityAware, mbs);
    let mut model: Brnn<f32> = Brnn::new(config, 1);
    let mut trainer = Trainer::new(&exec, Box::new(Momentum::new(0.05, 0.9)));
    println!(
        "training {}-layer BLSTM digit classifier ({} params, mbs:{mbs}, {} workers)",
        config.layers,
        config.total_param_count(),
        exec.runtime().workers()
    );
    for epoch in 0..epochs {
        let stats = trainer.train_epoch(&mut model, &train);
        let acc = trainer.evaluate(&model, &eval_batch);
        println!(
            "epoch {epoch}: loss {:.4}, accuracy {:.1}%, {:.1} ms/batch",
            stats.final_loss(),
            acc * 100.0,
            stats.mean_batch_ms()
        );
    }
    maybe_save(opts, &model)
}

fn train_chars(opts: &Flags) -> Result<(), String> {
    let config = BrnnConfig {
        cell: get_cell(opts)?,
        input_size: VOCAB_SIZE,
        hidden_size: get_usize(opts, "hidden", 48)?,
        layers: get_usize(opts, "layers", 2)?,
        seq_len: 24,
        output_size: VOCAB_SIZE,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToMany,
    };
    let steps = get_usize(opts, "steps", 40)?;
    let data = WikitextDataset::new(2024);
    let exec = TaskGraphExec::new(0);
    let mut model: Brnn<f32> = Brnn::new(config, 1);
    let mut opt = Adam::new(0.01);
    println!(
        "training {}-layer {:?} next-char model ({} params)",
        config.layers,
        config.cell,
        config.total_param_count()
    );
    for step in 0..steps as u64 {
        let (xs, targets) = data.batch::<f32>(step * 32, 32, config.seq_len);
        let loss = exec.train_batch(&mut model, &xs, &Target::SeqClasses(targets), &mut opt);
        if step % 10 == 0 || step + 1 == steps as u64 {
            println!(
                "step {step}: loss {loss:.3}, perplexity {:.1}",
                bpar_core::loss::perplexity(loss)
            );
        }
    }
    maybe_save(opts, &model)
}

fn maybe_save(opts: &Flags, model: &Brnn<f32>) -> Result<(), String> {
    if let Some(path) = opts.get("save") {
        bpar_core::io::save_file(model, path).map_err(|e| e.to_string())?;
        println!("saved checkpoint to {path}");
    }
    Ok(())
}

fn eval(opts: &Flags) -> Result<(), String> {
    let path = opts.get("model").ok_or("--model PATH is required")?;
    let model: Brnn<f32> = bpar_core::io::load_file(path).map_err(|e| e.to_string())?;
    let cfg = model.config;
    println!(
        "loaded {:?} model: {} layers, hidden {}, {} params, {:?}",
        cfg.cell,
        cfg.layers,
        cfg.hidden_size,
        model.param_count(),
        cfg.kind
    );
    let exec = TaskGraphExec::new(0);
    match cfg.kind {
        ModelKind::ManyToOne => {
            let data = TidigitsDataset::new(cfg.input_size, 11, 2024);
            let (xs, labels) = data.batch::<f32>(1_000_000, 128, cfg.seq_len);
            let out = exec.forward(&model, &xs);
            let acc = bpar_core::loss::accuracy(&out.logits, &labels);
            println!("held-out digit accuracy: {:.1}%", acc * 100.0);
        }
        ModelKind::ManyToMany => {
            let data = WikitextDataset::new(2024);
            let (xs, targets) = data.batch::<f32>(1_000_000, 32, cfg.seq_len);
            let out = exec.forward(&model, &xs);
            let mut loss = 0.0;
            let mut dlogits = bpar_tensor::Matrix::zeros(out.logits.rows(), out.logits.cols());
            for (t, classes) in targets.iter().enumerate() {
                let logits = &out.seq_logits[t];
                let l = bpar_core::loss::softmax_cross_entropy(logits, classes, &mut dlogits);
                loss += l / targets.len() as f64;
            }
            println!(
                "held-out perplexity: {:.2}",
                bpar_core::loss::perplexity(loss)
            );
        }
    }
    Ok(())
}

fn simulate_cmd(opts: &Flags) -> Result<(), String> {
    let config = BrnnConfig {
        cell: get_cell(opts)?,
        input_size: 256,
        hidden_size: get_usize(opts, "hidden", 256)?,
        layers: get_usize(opts, "layers", 6)?,
        seq_len: get_usize(opts, "seq", 100)?,
        output_size: 11,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToOne,
    };
    let batch = get_usize(opts, "batch", 128)?;
    let mbs = get_usize(opts, "mbs", 8)?;
    let barriers = opts.contains_key("barriers");
    let cores: Vec<usize> = match opts.get("cores") {
        None => vec![1, 8, 24, 48],
        Some(list) => list
            .split(',')
            .map(|c| {
                c.trim()
                    .parse()
                    .map_err(|_| format!("bad core count `{c}`"))
            })
            .collect::<Result<_, _>>()?,
    };

    let spec = GraphSpec::training(config, batch)
        .with_mbs(mbs)
        .with_barriers(barriers);
    let graph = build_graph(&spec);
    println!(
        "simulating {} tasks ({}-layer {:?}, batch {batch}, mbs:{mbs}{}) on a 48-core Xeon model",
        graph.len(),
        config.layers,
        config.cell,
        if barriers { ", per-layer barriers" } else { "" }
    );
    println!("cores  batch-time(s)  speedup  avg-tasks-in-flight");
    let mut first = None;
    for &c in &cores {
        if c == 0 || c > 48 {
            return Err(format!("core count {c} outside 1..=48"));
        }
        let r = simulate(&graph, &SimConfig::xeon(c));
        let base = *first.get_or_insert(r.makespan);
        println!(
            "{c:>5}  {:>13.3}  {:>6.2}x  {:>18.1}",
            r.makespan,
            base / r.makespan,
            r.avg_concurrency()
        );
    }
    Ok(())
}

fn analyze_cmd(opts: &Flags) -> Result<(), String> {
    use bpar_core::analyze::{analyze, AnalyzeOptions, Coarsen, SeedBug};

    let kind = match opts.get("kind").map(String::as_str) {
        None | Some("m2o") => ModelKind::ManyToOne,
        Some("m2m") => ModelKind::ManyToMany,
        Some(other) => return Err(format!("--kind expects m2o|m2m, got `{other}`")),
    };
    let fuzz_seeds: Vec<u64> = match opts.get("fuzz-seeds") {
        None => vec![42, 1337],
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("bad seed `{s}`")))
            .collect::<Result<_, _>>()?,
    };
    let seed_bug = match opts.get("seed-bug").map(String::as_str) {
        None => None,
        Some("missing-clause") => Some(SeedBug::MissingClause),
        Some("dropped-edge") => Some(SeedBug::DroppedEdge),
        Some("cross-epoch-race") => Some(SeedBug::CrossEpochRace),
        Some(other) => {
            return Err(format!(
                "--seed-bug expects missing-clause|dropped-edge|cross-epoch-race, got `{other}`"
            ))
        }
    };
    let format = opts.get("format").map(String::as_str).unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(format!("--format expects text|json, got `{format}`"));
    }
    let defaults = AnalyzeOptions::default();
    let analyze_opts = AnalyzeOptions {
        config: BrnnConfig {
            cell: get_cell(opts)?,
            input_size: 8,
            hidden_size: get_usize(opts, "hidden", 8)?,
            layers: get_usize(opts, "layers", 3)?,
            seq_len: get_usize(opts, "seq", 3)?,
            output_size: 4,
            merge: MergeMode::Sum,
            kind,
        },
        rows: get_usize(opts, "batch", 4)?,
        mbs: get_usize(opts, "mbs", 1)?,
        train: !opts.contains_key("inference"),
        seed_bug,
        fuzz_seeds,
        model_seed: get_usize(opts, "seed", 7)? as u64,
        explore_max_tasks: get_usize(opts, "explore-max-tasks", defaults.explore_max_tasks)?,
        explore_max_schedules: get_usize(
            opts,
            "explore-max-schedules",
            defaults.explore_max_schedules,
        )?,
        scheduler: get_scheduler(opts, defaults.scheduler)?,
        recurrence: get_recurrence(opts)?,
        // The plan an executor compiles for this shape: cells too small to
        // carry a task fold into chains, the rest stay the paper's graph.
        coarsen: Coarsen::Rule,
        ..defaults
    };

    let report = analyze(&analyze_opts);
    let json = report.to_json();
    let default_out = "results/analyze.json".to_string();
    let out = opts.get("out").unwrap_or(&default_out);
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;

    if format == "json" {
        // Machine mode: the byte-deterministic report itself, nothing
        // else, so CI can `cmp` two same-seed runs.
        println!("{json}");
    } else {
        for g in &report.graphs {
            println!(
                "{:<18} {:>5} tasks {:>5} edges {:>3} findings",
                g.name,
                g.metrics.tasks,
                g.metrics.edges,
                g.findings.len()
            );
            for f in &g.findings {
                let task = f
                    .task
                    .map(|t| format!(" task {t} ({})", f.label))
                    .unwrap_or_default();
                let region = f
                    .region
                    .as_deref()
                    .map(|r| format!(" region {r}"))
                    .unwrap_or_default();
                println!("  [{} {}]{task}{region}: {}", f.code, f.check, f.detail);
            }
        }
        println!("[written {out}]");
    }
    if report.errors > 0 {
        return Err(format!(
            "{} gating finding(s) — the dependency clauses or graph structure are unsound",
            report.errors
        ));
    }
    if format == "text" {
        println!("clean: every prong passed (clauses sound, schedules bit-identical)");
    }
    Ok(())
}

fn serve_cmd(opts: &Flags) -> Result<(), String> {
    use bpar_runtime::FaultConfig;
    use bpar_serve::{
        run_closed_loop, run_open_loop, BackpressurePolicy, BatchPolicy, ClosedLoopConfig,
        OpenLoopConfig, RetryPolicy, ServeConfig,
    };
    use std::time::Duration;

    let model: Brnn<f32> = match opts.get("model") {
        Some(path) => bpar_core::io::load_file(path).map_err(|e| e.to_string())?,
        None => Brnn::new(
            BrnnConfig {
                cell: get_cell(opts)?,
                input_size: 20,
                hidden_size: get_usize(opts, "hidden", 32)?,
                layers: get_usize(opts, "layers", 2)?,
                seq_len: 14,
                output_size: DIGIT_CLASSES,
                merge: MergeMode::Sum,
                kind: ModelKind::ManyToOne,
            },
            1,
        ),
    };
    let policy = {
        let name = opts.get("policy").map(String::as_str).unwrap_or("block");
        BackpressurePolicy::parse(name)
            .ok_or_else(|| format!("--policy expects block|reject|shed, got `{name}`"))?
    };
    let retry = {
        let max_retries = get_usize(opts, "retry-max", 2)? as u32;
        let backoff_us = get_usize(opts, "retry-backoff-us", 200)? as u64;
        if backoff_us == 0 {
            // Zero backoff also zeroes the jitter — the determinism knob
            // for the chaos CI job.
            RetryPolicy::immediate(max_retries)
        } else {
            RetryPolicy {
                max_retries,
                backoff_base: Duration::from_micros(backoff_us),
                ..RetryPolicy::default()
            }
        }
    };
    let budget_kib = |name: &str| -> Result<Option<u64>, String> {
        match opts.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(|kib| Some(kib * 1024))
                .map_err(|_| format!("--{name} expects an integer KiB count, got `{v}`")),
        }
    };
    let backend = {
        use bpar_tensor::BackendKind;
        let default = BackendKind::default().as_str();
        let name = opts.get("backend").map(String::as_str).unwrap_or(default);
        BackendKind::parse(name).ok_or_else(|| {
            let kinds = BackendKind::all().map(BackendKind::as_str).join("|");
            format!("--backend expects {kinds}, got `{name}`")
        })?
    };
    let cfg = ServeConfig {
        queue_capacity: get_usize(opts, "queue-cap", 64)?,
        policy,
        batch: BatchPolicy::new(
            get_usize(opts, "max-batch", 8)?,
            Duration::from_micros(get_usize(opts, "window-us", 2000)? as u64),
        )
        .with_bucket_width(get_usize(opts, "bucket-width", 1)?),
        workers: get_usize(opts, "workers", 0)?,
        scheduler: get_scheduler(opts, SchedulerPolicy::LocalityAware)?,
        retry,
        plan_byte_budget: budget_kib("plan-budget-kib")?,
        pool_byte_budget: budget_kib("pool-budget-kib")?,
        backend,
        recurrence: get_recurrence(opts)?,
        ..ServeConfig::default()
    };
    let seed = get_usize(opts, "seed", 42)? as u64;
    let fault = {
        let panic_rate = get_f64(opts, "fault-panic-rate", 0.0)?;
        let straggle_rate = get_f64(opts, "fault-straggle-rate", 0.0)?;
        if panic_rate > 0.0 || straggle_rate > 0.0 {
            Some(FaultConfig {
                seed: get_usize(opts, "fault-seed", seed as usize)? as u64,
                panic_rate,
                straggle_rate,
                straggle: Duration::from_micros(get_usize(opts, "fault-straggle-us", 200)? as u64),
                panic_budget: match opts.get("fault-panic-budget") {
                    None => u64::MAX,
                    Some(v) => v.parse().map_err(|_| {
                        format!("--fault-panic-budget expects an integer, got `{v}`")
                    })?,
                },
            })
        } else {
            None
        }
    };
    if fault.is_some() {
        // Injected panics are expected, high-volume events; keep the
        // default hook's per-panic stderr spew for *organic* panics only.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|msg| msg.contains("injected fault"));
            if !injected {
                default_hook(info);
            }
        }));
    }
    let requests = get_usize(opts, "requests", 200)? as u64;
    let deadline = match opts.get("deadline-ms") {
        None => None,
        Some(v) => {
            let ms: f64 = v
                .parse()
                .map_err(|_| format!("--deadline-ms expects a number, got `{v}`"))?;
            Some(Duration::from_secs_f64(ms / 1e3))
        }
    };
    let mode = opts.get("mode").map(String::as_str).unwrap_or("open");
    if !matches!(mode, "open" | "closed") {
        return Err(format!("--mode expects open|closed, got `{mode}`"));
    }
    let replicas = get_usize(opts, "replicas", 1)?;
    if replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    // Any fleet-tier flag routes through the router, even with one
    // replica, so tenant files and hedging knobs behave uniformly.
    if replicas > 1
        || opts.contains_key("tenants")
        || opts.contains_key("routing")
        || opts.contains_key("hedge-mode")
        || opts.contains_key("hedge-quantile")
    {
        return serve_fleet(
            opts, model, cfg, fault, seed, requests, deadline, mode, replicas,
        );
    }
    println!(
        "serving {requests} requests ({mode} loop) through a {}-layer {:?} model: \
         window {}us, max batch {}, bucket width {}, policy {}, queue cap {}",
        model.config.layers,
        model.config.cell,
        cfg.batch.window.as_micros(),
        cfg.batch.max_batch,
        cfg.batch.bucket_width,
        cfg.policy.name(),
        cfg.queue_capacity,
    );
    let report = match mode {
        "open" => run_open_loop(
            model,
            cfg,
            OpenLoopConfig {
                seed,
                rate_rps: get_f64(opts, "rate", 200.0)?,
                requests,
                mean_frames: 11,
                deadline,
                fault,
            },
        ),
        "closed" => run_closed_loop(
            model,
            cfg,
            ClosedLoopConfig {
                seed,
                requests,
                mean_frames: 11,
                deadline,
                fault,
            },
        ),
        other => return Err(format!("--mode expects open|closed, got `{other}`")),
    };
    println!(
        "outcome: {} served, {} shed, {} rejected, {} failed in {:.2}s ({:.1} served/s)",
        report.served,
        report.shed,
        report.rejected,
        report.failed,
        report.duration_s,
        report.throughput_rps
    );
    println!(
        "latency (ms): p50 {:.2}  p95 {:.2}  p99 {:.2}  p99.9 {:.2}  max {:.2}",
        report.latency.p50_us as f64 / 1e3,
        report.latency.p95_us as f64 / 1e3,
        report.latency.p99_us as f64 / 1e3,
        report.latency.p999_us as f64 / 1e3,
        report.latency.max_us as f64 / 1e3,
    );
    println!(
        "batches: {} ({:.1} rows mean, {:.0}% fill, {:.1}% padding); queue depth mean {:.1} max {}",
        report.batches,
        report.batch_rows_mean,
        report.batch_fill_mean * 100.0,
        report.padding_frac * 100.0,
        report.queue_depth_mean,
        report.queue_depth_max,
    );
    println!(
        "plan cache: {} hits, {} misses, {} evictions; {} weight deep copies; \
         arena {:.1} KiB + weights {:.1} KiB resident, {} warm reuses",
        report.plan_hits,
        report.plan_misses,
        report.plan_evictions,
        report.weight_syncs,
        report.arena_bytes as f64 / 1024.0,
        report.weight_bytes as f64 / 1024.0,
        report.arena_reuses,
    );
    println!(
        "batch buffers: {} pool hits, {} misses ({:.1} KiB pooled) — \
         steady-state batches allocate nothing",
        report.pool_hits,
        report.pool_misses,
        report.pool_bytes as f64 / 1024.0,
    );
    if fault.is_some() || report.retries > 0 {
        println!(
            "recovery: {} retries ({} poison-isolated, {} budget-exhausted); \
             breaker opened {} / closed {}; injected {} panics, {} stragglers",
            report.retries,
            report.poison_isolated,
            report.retry_exhausted,
            report.breaker_opened,
            report.breaker_closed,
            report.injected_panics,
            report.injected_straggles,
        );
    }
    if let Some(path) = opts.get("counters-out") {
        // Deterministic counters only (no latencies or wall times), so a
        // CI job can diff two same-seed runs byte for byte.
        let json = format!(
            "{{\n  \"submitted\": {},\n  \"served\": {},\n  \"shed\": {},\n  \
             \"rejected\": {},\n  \"failed\": {},\n  \"retries\": {},\n  \
             \"poison_isolated\": {},\n  \"retry_exhausted\": {},\n  \
             \"breaker_opened\": {},\n  \"breaker_closed\": {},\n  \
             \"injected_panics\": {},\n  \"injected_straggles\": {}\n}}\n",
            report.submitted,
            report.served,
            report.shed,
            report.rejected,
            report.failed,
            report.retries,
            report.poison_isolated,
            report.retry_exhausted,
            report.breaker_opened,
            report.breaker_closed,
            report.injected_panics,
            report.injected_straggles,
        );
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("[written {path}]");
    }
    // Conservation: every submitted request must have exactly one
    // terminal outcome. A mismatch means the serving loop lost or
    // duplicated work — fail loudly so CI catches it.
    let accounted = report.served + report.shed + report.rejected + report.failed;
    if accounted != report.submitted {
        return Err(format!(
            "request conservation violated: {} submitted but {} accounted \
             ({} served + {} shed + {} rejected + {} failed)",
            report.submitted, accounted, report.served, report.shed, report.rejected, report.failed,
        ));
    }
    Ok(())
}

/// The routed multi-replica path of `bpar serve`: N thread-owned server
/// replicas behind `bpar_router::Router`, with optional per-tenant
/// models, hedged dispatch, and a deterministic fleet counter dump for
/// the chaos CI job.
#[allow(clippy::too_many_arguments)]
fn serve_fleet(
    opts: &Flags,
    model: Brnn<f32>,
    cfg: bpar_serve::ServeConfig,
    fault: Option<bpar_runtime::FaultConfig>,
    seed: u64,
    requests: u64,
    deadline: Option<std::time::Duration>,
    mode: &str,
    replicas: usize,
) -> Result<(), String> {
    use bpar_router::{
        build_models, parse_tenants, HedgePolicy, Router, RouterConfig, RoutingPolicy,
    };
    use bpar_serve::{InferRequest, MetricsCollector};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    let routing = {
        let name = opts.get("routing").map(String::as_str).unwrap_or("hash");
        RoutingPolicy::parse(name)
            .ok_or_else(|| format!("--routing expects hash|least-loaded, got `{name}`"))?
    };
    let hedge = match opts.get("hedge-mode").map(String::as_str) {
        Some("off") => HedgePolicy::Off,
        Some("at-dispatch") => HedgePolicy::AtDispatch,
        Some("deadline") => HedgePolicy::deadline(get_f64(opts, "hedge-quantile", 0.95)?),
        // A bare --hedge-quantile implies deadline mode.
        None if opts.contains_key("hedge-quantile") => {
            HedgePolicy::deadline(get_f64(opts, "hedge-quantile", 0.95)?)
        }
        None => HedgePolicy::Off,
        Some(other) => {
            return Err(format!(
                "--hedge-mode expects off|at-dispatch|deadline, got `{other}`"
            ))
        }
    };
    let models = match opts.get("tenants") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            build_models::<f32>(model.config, &parse_tenants(&text)?)
        }
        None => vec![model],
    };
    let tenants = models.len() as u64;
    let input_size = models[0].config.input_size;
    let max_batch = cfg.batch.max_batch;
    let closed = mode == "closed";
    println!(
        "routing {requests} requests ({mode} loop) across {replicas} replicas, {tenants} \
         tenant(s): routing {}, hedging {}, window {}us, max batch {}, policy {}, queue cap {}",
        routing.name(),
        hedge.name(),
        cfg.batch.window.as_micros(),
        max_batch,
        cfg.policy.name(),
        cfg.queue_capacity,
    );
    let config = RouterConfig {
        replicas,
        routing,
        hedge,
        serve: cfg,
        fault,
        // Closed mode pre-enqueues the whole workload behind a paused
        // start gate — the determinism recipe the chaos CI job relies on.
        start_paused: closed,
    };
    let metrics = Arc::new(Mutex::new(MetricsCollector::new()));
    let sink = Arc::clone(&metrics);
    let start = Instant::now();
    let router = Router::new(models, config, move |outcome| {
        sink.lock()
            .expect("metrics poisoned")
            .record_outcome(&outcome)
    });
    let data = TidigitsDataset::new(input_size, 11, seed);
    let rate = get_f64(opts, "rate", 200.0)?;
    if !closed && rate <= 0.0 {
        return Err("open loop needs a positive --rate".into());
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next = Instant::now();
    for id in 0..requests {
        if !closed {
            // Same seeded Poisson arrival process as the single-server
            // open loop.
            let u: f64 = rng.gen_range(0.0..1.0);
            next += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
            if let Some(wait) = next.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let utt = data.utterance::<f32>(id);
        let mut req = InferRequest::new(id, utt.frames);
        req.deadline = deadline;
        req.tenant = (id % tenants) as u32;
        router.submit(req);
    }
    router.release();
    let report = router.finish();
    let elapsed = start.elapsed();
    let fleet = Arc::try_unwrap(metrics)
        .map_err(|_| "fleet metrics still shared after router teardown".to_string())?
        .into_inner()
        .expect("metrics poisoned")
        .finish(max_batch, elapsed);
    println!(
        "fleet outcome: {} served, {} shed, {} rejected, {} failed in {:.2}s ({:.1} served/s)",
        report.served,
        report.shed,
        report.rejected,
        report.failed,
        elapsed.as_secs_f64(),
        report.served as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "latency (ms): p50 {:.2}  p95 {:.2}  p99 {:.2}  p99.9 {:.2}  max {:.2}",
        fleet.latency.p50_us as f64 / 1e3,
        fleet.latency.p95_us as f64 / 1e3,
        fleet.latency.p99_us as f64 / 1e3,
        fleet.latency.p999_us as f64 / 1e3,
        fleet.latency.max_us as f64 / 1e3,
    );
    println!(
        "hedging: {} hedge copies, {} wins on the hedge shard, {} copies cancelled, \
         {} late copy events",
        report.hedges, report.hedge_wins, report.cancelled_copies, report.late_events,
    );
    for sh in &report.shards {
        println!(
            "  shard {}: {} routed + {} hedged; {} served, {} failed, {} retries; \
             breaker {}; {} panics / {} straggles injected; queue depth p99 {}; \
             {} tenant evictions",
            sh.shard,
            sh.routed,
            sh.hedged,
            sh.serving.served,
            sh.serving.failed,
            sh.serving.retries,
            sh.breaker_state,
            sh.serving.injected_panics,
            sh.serving.injected_straggles,
            sh.serving.queue_depth.p99_us,
            sh.serving.tenant_evictions,
        );
    }
    if let Some(path) = opts.get("counters-out") {
        std::fs::write(path, report.deterministic_counters_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("[written {path}]");
    }
    // Fleet conservation: the router must deliver exactly one terminal
    // outcome per submitted request, whatever the copies did.
    let accounted = report.served + report.shed + report.rejected + report.failed;
    if report.completed != report.submitted || accounted != report.submitted {
        return Err(format!(
            "fleet conservation violated: {} submitted, {} completed, {} accounted \
             ({} served + {} shed + {} rejected + {} failed)",
            report.submitted,
            report.completed,
            accounted,
            report.served,
            report.shed,
            report.rejected,
            report.failed,
        ));
    }
    Ok(())
}
