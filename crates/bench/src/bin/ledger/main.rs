//! The repository's performance ledger: four workloads, seven end-to-end
//! metrics (timed pass) and ninety per-layer metrics (traced pass), sized
//! and placed so that two runs of the same code agree as far as a shared
//! host lets them. See README.md beside this
//! file for every command, metric and frozen number.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! ledger --all [--seed <n>] [--seconds <s>] [--trace <0|1>]         every workload
//! ledger --check-repeat [--sets <n>] [--seed <n>] [--seconds <s>]   same-code spread
//! ledger --print-benchmark-json                                     BENCHMARK.json
//! ```
//!
//! The last line of standard output of a run is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; everything else goes to
//! standard error and to `<out>/<workload>.{timed,traced,trace}.json`.

mod inputs;
mod layers;
mod loadgen;
mod pin;
mod repeat;
mod run;
mod span;
mod spec;
mod stats;

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

pub struct Args {
    pub workload: Option<String>,
    pub all: bool,
    pub check_repeat: bool,
    pub print_benchmark_json: bool,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sets: usize,
    pub out: PathBuf,
}

fn default_out() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("ledger-out")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        check_repeat: false,
        print_benchmark_json: false,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        sets: 5,
        out: default_out(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--sets" => {
                args.sets = value()?
                    .parse()
                    .map_err(|_| "--sets takes a whole number")?;
                if args.sets < 5 {
                    return Err("--sets must be at least 5".into());
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--all" => args.all = true,
            "--check-repeat" => args.check_repeat = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What was actually compiled and where it runs: recorded with every
/// output file so a number can be traced back to its build.
fn env_block(w: &spec::Workload) -> Value {
    let nproc = pin::host_cpus();
    let features: Vec<Value> = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| Value::Str(name.into()))
    .collect();
    Value::Object(vec![
        ("nproc".into(), Value::Int(nproc as i64)),
        ("workers".into(), Value::Int(w.workers as i64)),
        ("serve_workers".into(), Value::Int(run::SERVE_WORKERS as i64)),
        ("replicas".into(), Value::Int(w.replicas.unwrap_or(1) as i64)),
        (
            "placement".into(),
            Value::Str(
                "taskset: tier and one-worker executors on the last CPU, load generator on \
                 the others, multi-worker executors on all; a run that could not pin warns"
                    .into(),
            ),
        ),
        ("backend".into(), Value::Str(run::BACKEND.as_str().into())),
        ("scheduler".into(), Value::Str(run::SCHEDULER.as_str().into())),
        (
            "simd_active".into(),
            Value::Bool(bpar_tensor::Backend::simd().simd_active()),
        ),
        ("target_arch".into(), Value::Str(std::env::consts::ARCH.into())),
        ("target_feature".into(), Value::Array(features)),
        ("debug_assertions".into(), Value::Bool(cfg!(debug_assertions))),
        (
            ONE_ARENA.0.into(),
            Value::Str(std::env::var(ONE_ARENA.0).unwrap_or_default()),
        ),
        ("rustc".into(), Value::Str(command_line("rustc", &["--version"]))),
        (
            "commit".into(),
            Value::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        (
            "task_records".into(),
            Value::Str(
                "TaskGraphExec records TaskRecords unconditionally; the timed pass never drains them"
                    .into(),
            ),
        ),
    ])
}

fn write_json(dir: &Path, file: &str, value: &Value) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload and prints its result line. `Ok(correct)`.
fn run_workload(args: &Args, w: spec::Workload) -> Result<bool, String> {
    let nproc = pin::host_cpus();
    if nproc < spec::BUSY_THREADS {
        eprintln!(
            "warning: {} is sized for {} CPUs (tier and load generator) but only {nproc} is \
             available; its numbers will measure the host's scheduler",
            w.name,
            spec::BUSY_THREADS
        );
    }
    let env = env_block(&w);
    let name = w.name;
    let result = run::run(&run::Options {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        divide: 1,
        place: true,
    });
    for warning in &result.warnings {
        eprintln!("warning: {name}: {warning}");
    }
    let pass = if args.trace { "traced" } else { "timed" };
    let Value::Object(mut detail) = result.detail else {
        unreachable!("run detail is an object")
    };
    detail.insert(0, ("env".into(), env));
    write_json(
        &args.out,
        &format!("{name}.{pass}.json"),
        &Value::Object(detail),
    )?;
    if let Some(trace) = &result.trace {
        write_json(&args.out, &format!("{name}.trace.json"), trace)?;
    }
    if let Some((bad, ..)) = result.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name}: metric {bad} is not a finite number"));
    }
    let metrics = result
        .metrics
        .iter()
        .map(|&(metric, value, unit)| {
            (
                metric.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(result.correct)),
        ("attempted".into(), Value::Int(result.attempted as i64)),
        ("failed".into(), Value::Int(result.failed as i64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(result.correct)
}

/// The setting measuring runs are made under, and its value.
pub const ONE_ARENA: (&str, &str) = ("MALLOC_ARENA_MAX", "1");

/// Runs this invocation again in a child with glibc held to one malloc
/// arena, unless it already is. Every round starts new threads, glibc
/// hands each whichever arena is free at that instant, and memory freed
/// into one arena is not reused from another: left alone, `peak_rss_mib`
/// of the same code ended on one of several plateaus 5 MiB apart
/// (24 / 29 / 33 MiB on `serve_shapes`). The warm paths do not allocate,
/// so the timings do not notice.
fn rerun_with_one_arena(argv: &[String]) -> Option<Result<bool, String>> {
    if std::env::var(ONE_ARENA.0).as_deref() == Ok(ONE_ARENA.1) {
        return None;
    }
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(argv)
            .env(ONE_ARENA.0, ONE_ARENA.1)
            .status()
    });
    Some(match child {
        Ok(status) if status.success() => Ok(true),
        Ok(status) => Err(format!("the measuring child ended with {status}")),
        Err(e) => Err(format!("cannot start the measuring child: {e}")),
    })
}

fn dispatch(args: &Args, argv: &[String]) -> Result<bool, String> {
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    if args.check_repeat {
        return repeat::check_repeat(args);
    }
    if let Some(result) = rerun_with_one_arena(argv) {
        return result;
    }
    let all = spec::workloads();
    if args.all {
        let mut correct = true;
        for w in all {
            eprintln!("== {}", w.name);
            correct &= run_workload(args, w)?;
        }
        return Ok(correct);
    }
    let name = args
        .workload
        .as_deref()
        .ok_or("give --workload <name>, --all, --check-repeat or --print-benchmark-json")?;
    let known: Vec<&str> = all.iter().map(|w| w.name).collect();
    let w = all.iter().find(|w| w.name == name).cloned().ok_or(format!(
        "unknown workload {name}; known: {}",
        known.join(", ")
    ))?;
    run_workload(args, w)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| dispatch(&args, &argv)) {
        // An incorrect run still printed its result line, with
        // `correct: false`; the exit code is for failures to measure.
        Ok(_) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload fine_grain --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("fine_grain"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--sets 4").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
