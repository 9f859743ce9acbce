//! Static task-graph representation.
//!
//! The live [`crate::runtime::Runtime`] discovers the dependency graph
//! dynamically, but two other consumers need the graph as a value:
//!
//! * `bpar-sim` replays the exact same graph on a simulated multi-core
//!   machine under different scheduling policies and core counts,
//! * tests assert that the unrolled BRNN graphs have exactly the shape of
//!   the paper's Fig. 2.
//!
//! A [`TaskGraph`] is append-only and uses the same [`DepTracker`] edge
//! semantics as the runtime, so a graph built from identical `in`/`out`
//! clauses is guaranteed to match what the runtime would execute.

use crate::region::{DepTracker, RegionId};
use crate::task::TaskId;

/// Static description of one task: identification plus cost-model inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskNode {
    /// Task kind (e.g. `"lstm_fwd"`, `"merge"`, `"grad_update"`).
    pub label: &'static str,
    /// Client tag (cell index, layer, …).
    pub tag: u64,
    /// Floating-point operations the task performs (cost-model input).
    pub flops: u64,
    /// Bytes of unique data the task touches (cost-model + working set).
    pub working_set_bytes: usize,
}

impl TaskNode {
    /// Node with a label only; costs default to zero.
    pub fn new(label: &'static str) -> Self {
        Self {
            label,
            tag: 0,
            flops: 0,
            working_set_bytes: 0,
        }
    }

    /// Sets the client tag.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the flop count.
    pub fn flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Sets the working-set size.
    pub fn working_set(mut self, bytes: usize) -> Self {
        self.working_set_bytes = bytes;
        self
    }
}

/// Append-only DAG of tasks with dependency edges.
#[derive(Debug, Default)]
pub struct TaskGraph {
    nodes: Vec<TaskNode>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    /// Declared `in` then `out` clauses of every task in one arena,
    /// verbatim (duplicates included) so static analysis sees exactly what
    /// the builder wrote.
    clauses: Vec<RegionId>,
    /// Per task, `[start, ins end, outs end]` in `clauses`.
    spans: Vec<[usize; 3]>,
    deps: DepTracker,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task with the given dependency clauses; returns its id.
    ///
    /// Edge semantics are identical to the live runtime (RAW/WAR/WAW via
    /// [`DepTracker`]).
    pub fn add_task(&mut self, node: TaskNode, ins: &[RegionId], outs: &[RegionId]) -> TaskId {
        let id = TaskId(self.nodes.len());
        let preds = self.deps.register(id, ins, outs);
        for &p in preds {
            self.succs[p.index()].push(id.index());
        }
        self.preds.push(preds.iter().map(|p| p.index()).collect());
        self.succs.push(Vec::new());
        self.push_clauses(ins, outs);
        self.nodes.push(node);
        id
    }

    fn push_clauses(&mut self, ins: &[RegionId], outs: &[RegionId]) {
        let start = self.clauses.len();
        self.clauses.extend_from_slice(ins);
        self.clauses.extend_from_slice(outs);
        self.spans
            .push([start, start + ins.len(), self.clauses.len()]);
    }

    /// Adds a task with explicit predecessor ids (bypassing region clauses).
    ///
    /// Used by generators of random graphs in tests and by graph transforms.
    ///
    /// # Panics
    /// Panics if any predecessor id is not smaller than the new task's id
    /// (which would create a cycle).
    pub fn add_task_with_preds(&mut self, node: TaskNode, preds: &[usize]) -> TaskId {
        let id = self.nodes.len();
        for &p in preds {
            assert!(p < id, "predecessor {p} would not precede task {id}");
            self.succs[p].push(id);
        }
        let mut ps: Vec<usize> = preds.to_vec();
        ps.sort_unstable();
        ps.dedup();
        self.preds.push(ps);
        self.succs.push(Vec::new());
        self.push_clauses(&[], &[]);
        self.nodes.push(node);
        TaskId(id)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node metadata for `id`.
    pub fn node(&self, id: usize) -> &TaskNode {
        &self.nodes[id]
    }

    /// Predecessor ids of `id`.
    pub fn preds(&self, id: usize) -> &[usize] {
        &self.preds[id]
    }

    /// Successor ids of `id`.
    pub fn succs(&self, id: usize) -> &[usize] {
        &self.succs[id]
    }

    /// Declared read regions of `id` (empty for tasks added via
    /// [`TaskGraph::add_task_with_preds`]).
    pub fn ins(&self, id: usize) -> &[RegionId] {
        let [start, mid, _] = self.spans[id];
        &self.clauses[start..mid]
    }

    /// Declared write regions of `id` (empty for tasks added via
    /// [`TaskGraph::add_task_with_preds`]).
    pub fn outs(&self, id: usize) -> &[RegionId] {
        let [_, mid, end] = self.spans[id];
        &self.clauses[mid..end]
    }

    /// All nodes, in id (topological) order.
    pub fn nodes(&self) -> &[TaskNode] {
        &self.nodes
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
    }

    /// Ids of tasks with no predecessors.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.preds[i].is_empty())
            .collect()
    }

    /// Ids of tasks with no successors.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.succs[i].is_empty())
            .collect()
    }

    /// Sum of `cost(task)` over all tasks (the sequential execution time).
    pub fn total_work(&self, cost: impl Fn(&TaskNode) -> f64) -> f64 {
        self.nodes.iter().map(cost).sum()
    }

    /// Length of the critical (longest) path under the given cost model.
    ///
    /// This is the lower bound on makespan at infinite parallelism; the
    /// simulator asserts `critical_path <= makespan <= total_work` as a
    /// conservation law.
    pub fn critical_path(&self, cost: impl Fn(&TaskNode) -> f64) -> f64 {
        let mut finish = vec![0.0f64; self.len()];
        let mut best = 0.0f64;
        for i in 0..self.len() {
            let start = self.preds[i]
                .iter()
                .map(|&p| finish[p])
                .fold(0.0f64, f64::max);
            finish[i] = start + cost(&self.nodes[i]);
            best = best.max(finish[i]);
        }
        best
    }

    /// Maximum width of the graph: the largest antichain found by level
    /// scheduling (tasks grouped by longest-path depth).
    ///
    /// This approximates the paper's notion of "parallelism exposed to the
    /// architecture".
    pub fn max_width(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        let mut width = std::collections::HashMap::<usize, usize>::new();
        let mut best = 0;
        for i in 0..self.len() {
            let d = self.preds[i]
                .iter()
                .map(|&p| depth[p] + 1)
                .max()
                .unwrap_or(0);
            depth[i] = d;
            let w = width.entry(d).or_insert(0);
            *w += 1;
            best = best.max(*w);
        }
        best
    }

    /// Checks the structural invariants: every edge points forward and
    /// pred/succ lists mirror each other. Returns an error description on
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        for i in 0..self.len() {
            for &p in &self.preds[i] {
                if p >= i {
                    return Err(format!("edge {p} -> {i} does not point forward"));
                }
                if !self.succs[p].contains(&i) {
                    return Err(format!("succ list of {p} is missing {i}"));
                }
            }
            for &s in &self.succs[i] {
                if !self.preds[s].contains(&i) {
                    return Err(format!("pred list of {s} is missing {i}"));
                }
            }
        }
        Ok(())
    }

    /// Count of tasks whose label equals `label`.
    pub fn count_label(&self, label: &str) -> usize {
        self.nodes.iter().filter(|n| n.label == label).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u64) -> RegionId {
        RegionId(i)
    }

    /// Diamond: a -> b, a -> c, b/c -> d.
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        g.add_task(TaskNode::new("a").flops(1), &[], &[r(0)]);
        g.add_task(TaskNode::new("b").flops(2), &[r(0)], &[r(1)]);
        g.add_task(TaskNode::new("c").flops(3), &[r(0)], &[r(2)]);
        g.add_task(TaskNode::new("d").flops(4), &[r(1), r(2)], &[r(3)]);
        g
    }

    #[test]
    fn diamond_shape() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.roots(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
        assert_eq!(g.preds(3), &[1, 2]);
        assert_eq!(g.succs(0), &[1, 2]);
        g.validate().unwrap();
    }

    #[test]
    fn critical_path_and_work() {
        let g = diamond();
        let cost = |n: &TaskNode| n.flops as f64;
        assert_eq!(g.total_work(cost), 10.0);
        // Longest path: a(1) -> c(3) -> d(4) = 8.
        assert_eq!(g.critical_path(cost), 8.0);
    }

    #[test]
    fn max_width_of_diamond_is_two() {
        assert_eq!(diamond().max_width(), 2);
    }

    #[test]
    fn chain_has_width_one() {
        let mut g = TaskGraph::new();
        for i in 0..5 {
            g.add_task(TaskNode::new("t"), &[r(i)], &[r(i + 1)]);
        }
        assert_eq!(g.max_width(), 1);
        assert_eq!(g.critical_path(|_| 1.0), 5.0);
    }

    #[test]
    fn independent_tasks_have_full_width() {
        let mut g = TaskGraph::new();
        for i in 0..7 {
            g.add_task(TaskNode::new("t"), &[], &[r(i)]);
        }
        assert_eq!(g.max_width(), 7);
        assert_eq!(g.critical_path(|_| 2.0), 2.0);
    }

    #[test]
    fn explicit_preds_validate() {
        let mut g = TaskGraph::new();
        g.add_task_with_preds(TaskNode::new("a"), &[]);
        g.add_task_with_preds(TaskNode::new("b"), &[0]);
        g.add_task_with_preds(TaskNode::new("c"), &[0, 1]);
        g.validate().unwrap();
        assert_eq!(g.preds(2), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "would not precede")]
    fn forward_edge_invariant_is_enforced() {
        let mut g = TaskGraph::new();
        g.add_task_with_preds(TaskNode::new("a"), &[0]); // self-edge
    }

    #[test]
    fn clauses_are_stored_verbatim() {
        let g = diamond();
        assert_eq!(g.ins(3), &[r(1), r(2)]);
        assert_eq!(g.outs(3), &[r(3)]);
        assert!(g.ins(0).is_empty());
        let mut g2 = TaskGraph::new();
        g2.add_task_with_preds(TaskNode::new("x"), &[]);
        assert!(g2.ins(0).is_empty() && g2.outs(0).is_empty());
    }

    #[test]
    fn count_label_counts() {
        let g = diamond();
        assert_eq!(g.count_label("a"), 1);
        assert_eq!(g.count_label("nope"), 0);
    }

    #[test]
    fn node_builder_sets_fields() {
        let n = TaskNode::new("x").tag(5).flops(100).working_set(64);
        assert_eq!(n.tag, 5);
        assert_eq!(n.flops, 100);
        assert_eq!(n.working_set_bytes, 64);
    }
}
