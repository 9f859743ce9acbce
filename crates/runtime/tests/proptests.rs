//! Property-based tests: the runtime never violates declared dependencies,
//! and the static graph agrees with the live execution order.

use bpar_runtime::graph::TaskNode;
use bpar_runtime::prelude::*;
use bpar_runtime::scheduler::ReadySet;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// A randomly generated task access list: (ins, outs) over a small region
/// universe.
#[derive(Debug, Clone)]
struct Access {
    ins: Vec<u64>,
    outs: Vec<u64>,
}

fn accesses(max_tasks: usize, regions: u64) -> impl Strategy<Value = Vec<Access>> {
    let one = (
        proptest::collection::vec(0..regions, 0..3),
        proptest::collection::vec(0..regions, 0..2),
    )
        .prop_map(|(ins, outs)| Access { ins, outs });
    proptest::collection::vec(one, 1..max_tasks)
}

/// The predecessors of every task by definition, scanning all earlier
/// tasks: `i` precedes `j` iff some region `r` is written by `i` and
/// accessed by `j` (RAW, WAW) or read by `i` and written by `j` (WAR), with
/// no task strictly between them writing `r`. Ascending, no duplicates.
fn naive_preds(accs: &[Access]) -> Vec<Vec<usize>> {
    let writes_between =
        |r: u64, i: usize, j: usize| accs[i + 1..j].iter().any(|a| a.outs.contains(&r));
    (0..accs.len())
        .map(|j| {
            let (ins, outs) = (&accs[j].ins, &accs[j].outs);
            (0..j)
                .filter(|&i| {
                    let raw_waw = accs[i].outs.iter().any(|r| {
                        (ins.contains(r) || outs.contains(r)) && !writes_between(*r, i, j)
                    });
                    let war = accs[i]
                        .ins
                        .iter()
                        .any(|r| outs.contains(r) && !writes_between(*r, i, j));
                    raw_waw || war
                })
                .collect()
        })
        .collect()
}

/// Accesses with many repeated and inout regions: up to five `in` and
/// three `out` clauses over five regions.
fn dense_accesses() -> impl Strategy<Value = Vec<Access>> {
    let one = (
        proptest::collection::vec(0..5u64, 0..6),
        proptest::collection::vec(0..5u64, 0..4),
    )
        .prop_map(|(ins, outs)| Access { ins, outs });
    proptest::collection::vec(one, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `DepTracker::register`, `TaskGraph` and `PlanBuilder::compile`
    /// agree with the naive scan on every task's predecessors, and the
    /// compiled plan's pending counts, successor lists and roots are that
    /// edge set's. Region ids are offset to land below, across and far
    /// above the tracker's directly indexed range, and one tracker runs
    /// the graph twice with a reset between, so its recycled state is
    /// checked too.
    #[test]
    fn edges_match_a_naive_scan(
        accs in dense_accesses(),
        base in prop_oneof![Just(0u64), Just((1 << 16) - 2), Just(u64::MAX - 8)],
    ) {
        let expected = naive_preds(&accs);
        let regions = |rs: &[u64]| rs.iter().map(|&r| RegionId(base + r)).collect::<Vec<_>>();

        let mut tracker = DepTracker::new();
        for pass in 0..2 {
            for (i, a) in accs.iter().enumerate() {
                let got = tracker.register(TaskId(i), &regions(&a.ins), &regions(&a.outs));
                let got: Vec<usize> = got.iter().map(|p| p.index()).collect();
                prop_assert_eq!(&got, &expected[i], "pass {} task {}", pass, i);
            }
            tracker.reset();
        }

        let mut g = TaskGraph::new();
        let mut b = PlanBuilder::new();
        for a in &accs {
            g.add_task(TaskNode::new("t"), &regions(&a.ins), &regions(&a.outs));
            b.submit(PlanSpec::new("t").ins(regions(&a.ins)).outs(regions(&a.outs)).body(|| {}));
        }
        let plan = b.compile();
        for (j, ps) in expected.iter().enumerate() {
            prop_assert_eq!(g.preds(j), &ps[..], "graph task {}", j);
            prop_assert_eq!(plan.pending_of(j), ps.len(), "pending of {}", j);
            let succs: Vec<usize> = (j + 1..accs.len()).filter(|&t| expected[t].contains(&j)).collect();
            prop_assert_eq!(plan.succs_of(j), &succs[..], "successors of {}", j);
        }
        let roots: Vec<usize> = (0..accs.len()).filter(|&j| expected[j].is_empty()).collect();
        prop_assert_eq!(plan.roots(), &roots[..]);
    }

    /// Execution order respects every dependency edge computed by a
    /// reference DepTracker, and every task runs exactly once, under every
    /// scheduler policy (including work-stealing, where concurrent workers
    /// push to their own deques and steal from each other's) and several
    /// worker counts.
    #[test]
    fn execution_respects_dependencies(
        accs in accesses(60, 6),
        workers in 1usize..5,
        which in 0usize..3,
    ) {
        let policy = [
            SchedulerPolicy::Fifo,
            SchedulerPolicy::LocalityAware,
            SchedulerPolicy::WorkStealing,
        ][which];
        let rt = Runtime::new(RuntimeConfig { workers, policy, record_trace: false });

        // Reference edges.
        let mut tracker = DepTracker::new();
        let mut preds: Vec<Vec<usize>> = Vec::new();
        for (i, a) in accs.iter().enumerate() {
            let ins: Vec<_> = a.ins.iter().map(|&r| RegionId(r)).collect();
            let outs: Vec<_> = a.outs.iter().map(|&r| RegionId(r)).collect();
            let ps = tracker.register(TaskId(i), &ins, &outs);
            preds.push(ps.iter().map(|p| p.index()).collect());
        }

        let order = Arc::new(Mutex::new(Vec::new()));
        for (i, a) in accs.iter().enumerate() {
            let o = order.clone();
            let ins: Vec<_> = a.ins.iter().map(|&r| RegionId(r)).collect();
            let outs: Vec<_> = a.outs.iter().map(|&r| RegionId(r)).collect();
            rt.spawn("t", ins, outs, move || {
                o.lock().push(i);
            });
        }
        rt.taskwait().unwrap();

        let order = order.lock();
        // Exactly-once: every submitted task appears exactly one time.
        prop_assert_eq!(order.len(), accs.len());
        let mut seen = order.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), accs.len(), "a task ran twice or not at all");
        let mut position = vec![0usize; accs.len()];
        for (pos, &t) in order.iter().enumerate() {
            position[t] = pos;
        }
        for (t, ps) in preds.iter().enumerate() {
            for &p in ps {
                prop_assert!(
                    position[p] < position[t],
                    "task {} ran before its predecessor {}", t, p
                );
            }
        }
    }

    /// The ReadySet facade itself is exactly-once and lossless under every
    /// policy for arbitrary interleavings of tagged/untagged pushes with
    /// pops issued from arbitrary worker ids (the pure queue-level
    /// counterpart of `execution_respects_dependencies`).
    #[test]
    fn ready_set_is_exactly_once_under_any_interleaving(
        ops in proptest::collection::vec((any::<bool>(), 0usize..4, 0usize..6), 1..200),
        which in 0usize..5,
    ) {
        let policy = [
            SchedulerPolicy::Fifo,
            SchedulerPolicy::LocalityAware,
            SchedulerPolicy::WorkStealing,
            SchedulerPolicy::Adversarial(AdversarialOrder::Reverse),
            SchedulerPolicy::Adversarial(AdversarialOrder::Random(7)),
        ][which];
        let mut rs = ReadySet::new(policy, 4);
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        let mut next = 0usize;
        for (is_push, worker, raw_tag) in ops {
            // raw_tag 5 encodes "untagged"; 4 is an out-of-range worker id.
            let tag = (raw_tag < 5).then_some(raw_tag);
            if is_push {
                rs.push(next, tag);
                pushed.push(next);
                next += 1;
            } else if let Some(t) = rs.pop(worker) {
                popped.push(t);
            }
        }
        while let Some(t) = rs.pop(0) {
            popped.push(t);
        }
        prop_assert!(rs.is_empty());
        popped.sort_unstable();
        prop_assert_eq!(popped, pushed, "pops must be a permutation of pushes");
    }

    /// The static TaskGraph built from the same clauses is a valid DAG whose
    /// critical path is bounded by total work.
    #[test]
    fn static_graph_invariants(accs in accesses(80, 8)) {
        let mut g = TaskGraph::new();
        for (i, a) in accs.iter().enumerate() {
            let ins: Vec<_> = a.ins.iter().map(|&r| RegionId(r)).collect();
            let outs: Vec<_> = a.outs.iter().map(|&r| RegionId(r)).collect();
            g.add_task(TaskNode::new("t").tag(i as u64).flops(1 + i as u64), &ins, &outs);
        }
        g.validate().unwrap();
        let cost = |n: &TaskNode| n.flops as f64;
        let cp = g.critical_path(cost);
        let work = g.total_work(cost);
        prop_assert!(cp <= work + 1e-9);
        prop_assert!(g.max_width() >= 1);
        prop_assert!(g.max_width() <= g.len());
        // Any non-empty graph has at least one root and one sink.
        prop_assert!(!g.roots().is_empty());
        prop_assert!(!g.sinks().is_empty());
    }

    /// Stats conservation: sum of task durations is at least the makespan
    /// when one worker runs everything (no overlap possible).
    #[test]
    fn single_worker_has_no_overlap(n in 1usize..20) {
        let rt = Runtime::new(RuntimeConfig { workers: 1, ..Default::default() });
        for i in 0..n as u64 {
            rt.spawn("t", [], [RegionId(i)], || {
                std::hint::black_box((0..1000).sum::<u64>());
            });
        }
        rt.taskwait().unwrap();
        let s = rt.stats();
        prop_assert_eq!(s.tasks, n);
        prop_assert_eq!(s.peak_concurrency, 1);
    }
}
