//! `ledger --check-repeat`: the same code, measured N times per workload
//! in fresh child processes (one seed per set, as the driver does it), and
//! the spread of every end-to-end metric held against its bound.

use crate::spec::{workloads, END_TO_END};
use crate::stats::{iqr_frac, max_pairwise_rel_diff, median, quartiles};
use crate::Args;
use std::process::Command;

/// The value of `metric` in a result line, as `run_workload` prints it:
/// `"<metric>":{"value":<number>,`.
pub fn metric_value(line: &str, metric: &str) -> Option<f64> {
    let key = format!("\"{metric}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// One run in a fresh process; its output files go to `<out>/set<n>`.
fn child_run(args: &Args, workload: &str, set: usize) -> Result<String, String> {
    let seed = args.seed + set as u64;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(args.out.join(format!("set{}", set + 1)))
        .env(crate::ONE_ARENA.0, crate::ONE_ARENA.1)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !output.status.success() || !line.contains("\"correct\":true") {
        return Err(format!(
            "{workload} seed {seed} did not produce a correct result: {line}\n{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(line)
}

/// Prints the spread table (markdown, as committed in README.md) and
/// fails if any metric's largest pairwise difference exceeds its bound.
pub fn check_repeat(args: &Args) -> Result<bool, String> {
    // Sets are interleaved over workloads, so a slow minute of the host
    // lands on one set of every workload rather than on one workload.
    let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
    let mut lines: Vec<Vec<String>> = vec![Vec::new(); names.len()];
    for set in 0..args.sets {
        for (w, name) in names.iter().enumerate() {
            eprintln!("set {}/{}: {name}", set + 1, args.sets);
            lines[w].push(child_run(args, name, set)?);
        }
    }
    println!(
        "| workload | metric | median | q1 | q3 | iqr/median | max pairwise diff | bound | |\n\
         |---|---|---|---|---|---|---|---|---|"
    );
    let mut exceeded = Vec::new();
    for (name, lines) in names.iter().zip(&lines) {
        for m in &END_TO_END {
            let values: Vec<f64> = lines
                .iter()
                .map(|l| metric_value(l, m.name).ok_or(format!("{name}: no {} in {l}", m.name)))
                .collect::<Result<_, _>>()?;
            let [q1, _, q3] = quartiles(&values);
            let diff = max_pairwise_rel_diff(&values);
            let ok = diff <= m.bound;
            println!(
                "| {name} | {} | {:.4} | {q1:.4} | {q3:.4} | {:.4} | {diff:.4} | {} | {} |",
                m.name,
                median(&values),
                iqr_frac(&values),
                m.bound,
                if ok { "ok" } else { "EXCEEDS" }
            );
            if !ok {
                exceeded.push(format!("{name}/{}", m.name));
            }
        }
    }
    if exceeded.is_empty() {
        Ok(true)
    } else {
        Err(format!(
            "same-code runs differ by more than the bound on: {}",
            exceeded.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_values_parse() {
        let line = r#"{"correct":true,"attempted":9,"failed":0,"metrics":{"setup_s":{"value":0.0123,"unit":"s"},"serve_p50_ms":{"value":2.0,"unit":"ms"}}}"#;
        assert_eq!(metric_value(line, "setup_s"), Some(0.0123));
        assert_eq!(metric_value(line, "serve_p50_ms"), Some(2.0));
        assert_eq!(metric_value(line, "serve_p90_ms"), None);
    }
}
