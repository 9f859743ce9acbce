//! End-to-end detector checks for `bpar_core::analyze`.
//!
//! The acceptance bar for the verification layer: each [`SeedBug`] is a
//! realistic bug class that exactly one analysis prong can witness, so
//! these tests pin both directions of the exclusivity claims —
//!
//! * [`SeedBug::MissingClause`] (a dropped `in` clause) is caught by the
//!   clause validator (`BPV201`, naming the exact region) and by the
//!   schedule fuzzer (`BPV212`);
//! * [`SeedBug::DroppedEdge`] (clauses intact, one compiled edge
//!   removed) is *invisible* to the clause validator and to fingerprint
//!   fuzzing — the reordered bodies commute bitwise — and is caught only
//!   by the happens-before engine (`BPV301`), which names the missing
//!   edge;
//! * [`SeedBug::CrossEpochRace`] (one buffer aliased under two region
//!   ids) passes every region-keyed analysis and is caught only by
//!   exhaustive schedule exploration (`BPV401`), whose conflicts key on
//!   observed physical sites.
//!
//! Plus the no-false-positive direction: fault-injected and cancelled
//! replays of *clean* plans must not produce findings, and the full
//! Fig. 2 inference graph must be exhaustively explored (100% of its
//! schedule classes) within the default budget.

use bpar_core::analyze::{analyze, AnalyzeOptions, SeedBug};
use bpar_core::model::{BrnnConfig, ModelKind};
use bpar_runtime::FaultConfig;
use bpar_verify::AnalysisReport;

fn seeded(train: bool, bug: SeedBug) -> AnalyzeOptions {
    AnalyzeOptions {
        train,
        seed_bug: Some(bug),
        ..AnalyzeOptions::default()
    }
}

/// Smallest config with two `loss` tasks: many-to-many training over one
/// layer and two timesteps — 14 tasks, over the explore budget, so the
/// schedule prong is the fuzzer (pinning that fuzzing *misses* this bug).
fn dropped_edge_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        config: BrnnConfig {
            layers: 1,
            seq_len: 2,
            input_size: 4,
            hidden_size: 4,
            output_size: 3,
            kind: ModelKind::ManyToMany,
            ..BrnnConfig::default()
        },
        train: true,
        seed_bug: Some(SeedBug::DroppedEdge),
        ..AnalyzeOptions::default()
    }
}

/// Smallest interesting inference graph: one layer, two timesteps,
/// many-to-one — 7 tasks with the probe, under the explore budget, so
/// the schedule prong is exhaustive exploration.
fn cross_epoch_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        config: BrnnConfig {
            layers: 1,
            seq_len: 2,
            input_size: 4,
            hidden_size: 4,
            output_size: 3,
            kind: ModelKind::ManyToOne,
            ..BrnnConfig::default()
        },
        train: false,
        seed_bug: Some(SeedBug::CrossEpochRace),
        ..AnalyzeOptions::default()
    }
}

fn section<'a>(report: &'a AnalysisReport, name: &str) -> &'a bpar_verify::GraphReport {
    report
        .graphs
        .iter()
        .find(|g| g.name == name)
        .unwrap_or_else(|| panic!("missing section {name}:\n{}", report.to_json()))
}

fn codes_in(report: &AnalysisReport, name: &str) -> Vec<String> {
    section(report, name)
        .findings
        .iter()
        .map(|f| f.code.clone())
        .collect()
}

#[test]
fn clause_validator_names_the_dropped_region() {
    let report = analyze(&seeded(false, SeedBug::MissingClause));
    let clauses = section(&report, "clause-validation");
    let hit = clauses
        .findings
        .iter()
        .find(|f| f.check == "undeclared-read")
        .unwrap_or_else(|| panic!("no undeclared-read finding:\n{}", report.to_json()));
    assert_eq!(hit.code, "BPV201");
    assert_eq!(hit.label, "cell_fwd");
    assert_eq!(hit.region.as_deref(), Some("r0.st_fwd[0][0]"));
}

#[test]
fn schedule_fuzzer_produces_a_divergence_witness() {
    let report = analyze(&seeded(false, SeedBug::MissingClause));
    assert!(
        codes_in(&report, "schedule-fuzz").contains(&"BPV212".to_string()),
        "no divergence witness:\n{}",
        report.to_json()
    );
}

#[test]
fn both_prongs_fire_on_a_seeded_training_graph() {
    let report = analyze(&seeded(true, SeedBug::MissingClause));
    assert!(
        codes_in(&report, "clause-validation").contains(&"BPV201".to_string()),
        "{}",
        report.to_json()
    );
    assert!(
        codes_in(&report, "schedule-fuzz").contains(&"BPV212".to_string()),
        "{}",
        report.to_json()
    );
    assert!(report.errors > 0);
}

#[test]
fn static_shape_check_notices_the_missing_edge() {
    // Dropping the in clause also removes one RAW edge, so the compiled
    // plan no longer matches the closed-form edge count.
    let report = analyze(&seeded(false, SeedBug::MissingClause));
    assert!(
        codes_in(&report, "static-plan").contains(&"BPV106".to_string()),
        "{}",
        report.to_json()
    );
    // The untouched graphgen twin stays clean — the bug is in the plan,
    // not the paper's dataflow.
    assert_eq!(
        section(&report, "static-graphgen").error_count(),
        0,
        "{}",
        report.to_json()
    );
}

#[test]
fn dropped_edge_is_caught_only_by_happens_before() {
    let report = analyze(&dropped_edge_opts());
    let hb = section(&report, "happens-before");
    let races: Vec<_> = hb
        .findings
        .iter()
        .filter(|f| f.check == "hb-race")
        .collect();
    assert!(
        !races.is_empty(),
        "happens-before must witness the dropped edge:\n{}",
        report.to_json()
    );
    for f in &races {
        assert_eq!(f.code, "BPV301");
        assert!(
            f.detail.contains("lost the edge"),
            "race witness must name the missing edge: {}",
            f.detail
        );
    }
    // Exclusivity: every other prong stays silent. The clauses still
    // declare the dependency (only the compiled graph lost it) and the
    // two loss bodies commute bitwise, so fuzzing sees identical
    // fingerprints.
    for sec in [
        "static-plan",
        "static-graphgen",
        "clause-validation",
        "lock-discipline",
    ] {
        assert_eq!(
            section(&report, sec).error_count(),
            0,
            "{sec} must stay clean:\n{}",
            report.to_json()
        );
    }
    assert_eq!(
        section(&report, "schedule-fuzz").error_count(),
        0,
        "fuzzing must miss this bug (commuting reorder):\n{}",
        report.to_json()
    );
}

#[test]
fn cross_epoch_race_is_caught_only_by_exploration() {
    let report = analyze(&cross_epoch_opts());
    let explore = section(&report, "schedule-explore");
    let hits: Vec<_> = explore
        .findings
        .iter()
        .filter(|f| f.check == "exploration-divergence")
        .collect();
    assert!(
        !hits.is_empty(),
        "exploration must witness the aliased buffer:\n{}",
        report.to_json()
    );
    for f in &hits {
        assert_eq!(f.code, "BPV401");
    }
    // Exclusivity: the probe's clauses match its body exactly and the
    // race is invisible to any region-keyed analysis.
    for sec in [
        "static-plan",
        "static-graphgen",
        "clause-validation",
        "happens-before",
        "lock-discipline",
    ] {
        assert_eq!(
            section(&report, sec).error_count(),
            0,
            "{sec} must stay clean:\n{}",
            report.to_json()
        );
    }
}

#[test]
fn fault_injected_clean_plan_has_no_false_positives() {
    // Injected panics poison downstream tasks: the run is incomplete by
    // design, and the analyses must treat that as expected (gating the
    // completion-dependent lints) instead of reporting findings.
    let opts = AnalyzeOptions {
        fault: Some(FaultConfig {
            seed: 11,
            panic_rate: 0.3,
            ..FaultConfig::default()
        }),
        ..AnalyzeOptions::default()
    };
    let report = analyze(&opts);
    assert_eq!(report.errors, 0, "{}", report.to_json());
    // The schedule prongs are suppressed: injected panics would read as
    // schedule-panic witnesses.
    assert!(report
        .graphs
        .iter()
        .all(|g| g.name != "schedule-fuzz" && g.name != "schedule-explore"));
}

#[test]
fn cancelled_clean_plan_has_no_false_positives() {
    // A pre-claimed cancel token skips every body: zero accesses, zero
    // outputs, taskwait still Ok. Nothing to report.
    let opts = AnalyzeOptions {
        cancel: true,
        ..AnalyzeOptions::default()
    };
    let report = analyze(&opts);
    assert_eq!(report.errors, 0, "{}", report.to_json());
}

#[test]
fn fig2_inference_graph_explores_completely() {
    // The full Fig. 2 shape (L=3, T=3, many-to-one inference, 26 tasks):
    // every conflicting access pair follows a compiled edge, so the
    // persistent-set filter collapses the schedule space to one class —
    // 100% coverage in a single replay, well inside the budget.
    let opts = AnalyzeOptions {
        train: false,
        explore_max_tasks: 32,
        ..AnalyzeOptions::default()
    };
    let report = analyze(&opts);
    assert_eq!(report.errors, 0, "{}", report.to_json());
    let explore = section(&report, "schedule-explore");
    assert_eq!(explore.metrics.explore_complete, 1, "{}", report.to_json());
    assert!(explore.metrics.explored_schedules >= 1);
}

#[test]
fn seeded_reports_are_deterministic_too() {
    let a = analyze(&seeded(false, SeedBug::MissingClause)).to_json();
    let b = analyze(&seeded(false, SeedBug::MissingClause)).to_json();
    assert_eq!(a, b);
    let c = analyze(&cross_epoch_opts()).to_json();
    let d = analyze(&cross_epoch_opts()).to_json();
    assert_eq!(c, d);
}

/// The granularity transform keeps every plan sound: at any `k` —
/// explicit, or the one the plan builder's rule derives for a
/// fine-grained shape — the closed-form shape, the clause differ, the
/// happens-before engine, the lock lints and the schedule prong
/// (exhaustive where the folded plan is small enough, which folding makes
/// more plans be) all report nothing, under every production scheduler.
#[test]
fn coarsened_plans_have_zero_findings_under_every_scheduler() {
    use bpar_core::analyze::Coarsen;
    use bpar_runtime::SchedulerPolicy;
    let config = |kind| BrnnConfig {
        layers: 2,
        seq_len: 5,
        input_size: 2,
        hidden_size: 2,
        output_size: 3,
        kind,
        ..BrnnConfig::default()
    };
    let mut explored = 0;
    for scheduler in [
        SchedulerPolicy::Fifo,
        SchedulerPolicy::LocalityAware,
        SchedulerPolicy::WorkStealing,
    ] {
        for coarsen in [Coarsen::Rule, Coarsen::By(2), Coarsen::By(5)] {
            for (kind, train, mbs) in [
                (ModelKind::ManyToMany, false, 1),
                (ModelKind::ManyToMany, true, 2),
                (ModelKind::ManyToOne, true, 1),
            ] {
                let opts = AnalyzeOptions {
                    config: config(kind),
                    rows: 2,
                    mbs,
                    train,
                    scheduler,
                    coarsen,
                    ..AnalyzeOptions::default()
                };
                let report = analyze(&opts);
                let what = format!("{scheduler:?} {coarsen:?} {kind:?} train={train} mbs={mbs}");
                assert_eq!(report.errors, 0, "{what}:\n{}", report.to_json());
                // Folded for real.
                let unfolded = bpar_core::analyze::plan_view(&AnalyzeOptions {
                    coarsen: Coarsen::By(1),
                    ..opts
                });
                let plan = section(&report, "static-plan");
                assert!(plan.metrics.tasks < unfolded.len(), "{what}");
                let explore = report.graphs.iter().find(|g| g.name == "schedule-explore");
                explored += usize::from(explore.is_some_and(|g| g.metrics.explore_complete == 1));
            }
        }
    }
    assert!(
        explored >= 9,
        "only {explored} folded plans were explored exhaustively"
    );
}

/// A seeded plan is never folded, whatever granularity is asked for: each
/// seeded bug is still caught, by its own prong.
#[test]
fn seeded_plans_stay_at_one_cell_per_task() {
    use bpar_core::analyze::Coarsen;
    for (opts, code) in [
        (seeded(true, SeedBug::MissingClause), "BPV201"),
        (dropped_edge_opts(), "BPV301"),
        (cross_epoch_opts(), "BPV401"),
    ] {
        let plain = analyze(&opts).to_json();
        assert!(plain.contains(code), "{code}");
        for coarsen in [Coarsen::Rule, Coarsen::By(3)] {
            let folded = AnalyzeOptions {
                coarsen,
                ..opts.clone()
            };
            assert_eq!(analyze(&folded).to_json(), plain, "{code} {coarsen:?}");
        }
    }
}
