//! Reusable, pre-compiled task graphs ("execution plans").
//!
//! Submitting a task graph through [`crate::Runtime::submit`] pays the full
//! dependency-resolution cost — hashing every `in`/`out` region through the
//! [`DepTracker`] — on *every* batch, even when the graph's shape is
//! identical batch after batch. That is exactly the task-instantiation
//! overhead the paper's §IV-B requires to stay an order of magnitude below
//! task time, and the regime a serving loop lives in.
//!
//! A [`PlanBuilder`] accepts the same submission stream ([`PlanSpec`] is a
//! re-runnable sibling of [`crate::TaskSpec`] whose body is `Fn`, not
//! `FnOnce`) and [`PlanBuilder::compile`]s it once into a [`CompiledPlan`]:
//! per-task predecessor counts, successor lists, and the root set. Each
//! subsequent batch re-submits the whole graph through
//! [`crate::Runtime::replay`] in a single pass that never touches the
//! dependency tracker — the edges were frozen at compile time.
//!
//! Replay is semantically identical to re-submitting the same specs live:
//! tasks are registered in the same order, so the `DepTracker` would compute
//! the same RAW/WAW/WAR edges every time. (A live submission can elide an
//! edge whose predecessor already completed; that only ever *relaxes* an
//! ordering constraint the compiled plan still enforces, so replay admits a
//! subset of live interleavings and inherits its correctness.)

use crate::region::{DepTracker, RegionId};
use crate::task::TaskId;
use std::sync::Arc;

/// A task body that can be executed once per replay.
pub type PlanBody = Arc<dyn Fn() + Send + Sync + 'static>;

/// A re-runnable task submission: the dependency clauses of
/// [`crate::TaskSpec`] with an `Fn` body that survives arbitrarily many
/// replays. Construction uses the same builder style:
///
/// ```
/// # use bpar_runtime::plan::PlanSpec;
/// # use bpar_runtime::region::RegionId;
/// let spec = PlanSpec::new("lstm_fwd")
///     .tag(42)
///     .ins([RegionId(1)])
///     .outs([RegionId(2)])
///     .working_set(4 << 20)
///     .body(|| { /* one RNN cell, re-run every batch */ });
/// ```
pub struct PlanSpec {
    /// Human-readable task kind (e.g. `"cell_fwd"`, `"merge"`).
    pub label: &'static str,
    /// Free-form numeric tag for the client (cell index, layer, …).
    pub tag: u64,
    /// Regions read by the task (`in` clause).
    pub ins: Vec<RegionId>,
    /// Regions written by the task (`out` clause).
    pub outs: Vec<RegionId>,
    /// Approximate bytes the task touches (working-set accounting).
    pub working_set_bytes: usize,
    /// The re-runnable sequential body.
    pub body: Option<PlanBody>,
}

impl PlanSpec {
    /// New spec with the given label and no dependencies.
    pub fn new(label: &'static str) -> Self {
        Self {
            label,
            tag: 0,
            ins: Vec::new(),
            outs: Vec::new(),
            working_set_bytes: 0,
            body: None,
        }
    }

    /// Attaches a client tag.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Adds input (read) dependencies.
    pub fn ins(mut self, regions: impl IntoIterator<Item = RegionId>) -> Self {
        self.ins.extend(regions);
        self
    }

    /// Adds output (write) dependencies.
    pub fn outs(mut self, regions: impl IntoIterator<Item = RegionId>) -> Self {
        self.outs.extend(regions);
        self
    }

    /// Records the task's approximate working-set size in bytes.
    pub fn working_set(mut self, bytes: usize) -> Self {
        self.working_set_bytes = bytes;
        self
    }

    /// Sets the re-runnable body.
    pub fn body(mut self, f: impl Fn() + Send + Sync + 'static) -> Self {
        self.body = Some(Arc::new(f));
        self
    }
}

impl std::fmt::Debug for PlanSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanSpec")
            .field("label", &self.label)
            .field("tag", &self.tag)
            .field("ins", &self.ins)
            .field("outs", &self.outs)
            .field("working_set_bytes", &self.working_set_bytes)
            .field("has_body", &self.body.is_some())
            .finish()
    }
}

/// One task of a compiled plan.
pub(crate) struct PlanTask {
    pub label: &'static str,
    pub tag: u64,
    pub working_set_bytes: usize,
    /// Declared read regions, kept verbatim from the spec so analysis
    /// tooling (`bpar-verify`) can diff declarations against observed
    /// accesses after the edges were frozen.
    pub ins: Vec<RegionId>,
    /// Declared write regions (see `ins`).
    pub outs: Vec<RegionId>,
    pub body: PlanBody,
}

/// Collects [`PlanSpec`]s in submission order for one-shot compilation.
#[derive(Default)]
pub struct PlanBuilder {
    specs: Vec<PlanSpec>,
}

impl PlanBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a task; returns the id it will carry in every replay.
    ///
    /// # Panics
    /// Panics if the spec has no body.
    pub fn submit(&mut self, spec: PlanSpec) -> TaskId {
        assert!(spec.body.is_some(), "PlanSpec submitted without a body");
        let id = TaskId(self.specs.len());
        self.specs.push(spec);
        id
    }

    /// Number of tasks recorded so far.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when no task has been recorded.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Runs the dependency tracker once over the recorded submission order
    /// and freezes the resulting graph. The predecessors of every task go
    /// into one flat list first, so each successor list is allocated once,
    /// at its final length.
    pub fn compile(self) -> CompiledPlan {
        let n = self.specs.len();
        let mut deps = DepTracker::new();
        let mut pending = vec![0usize; n];
        let mut out_degree = vec![0usize; n];
        let mut preds: Vec<usize> = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            let ps = deps.register(TaskId(i), &spec.ins, &spec.outs);
            pending[i] = ps.len();
            for p in ps {
                out_degree[p.index()] += 1;
                preds.push(p.index());
            }
        }
        let mut succs: Vec<Vec<usize>> = out_degree.into_iter().map(Vec::with_capacity).collect();
        let mut preds = preds.into_iter();
        for (i, &count) in pending.iter().enumerate() {
            for p in preds.by_ref().take(count) {
                succs[p].push(i);
            }
        }
        let tasks = self
            .specs
            .into_iter()
            .map(|spec| PlanTask {
                label: spec.label,
                tag: spec.tag,
                working_set_bytes: spec.working_set_bytes,
                ins: spec.ins,
                outs: spec.outs,
                body: spec.body.expect("checked at submit"),
            })
            .collect();
        let roots = (0..n).filter(|&i| pending[i] == 0).collect();
        CompiledPlan {
            tasks,
            pending,
            succs,
            roots,
        }
    }
}

/// A frozen task graph: bodies plus precomputed dependency structure,
/// replayable any number of times via [`crate::Runtime::replay`].
pub struct CompiledPlan {
    pub(crate) tasks: Vec<PlanTask>,
    /// Predecessor count per task (immutable template; the runtime copies
    /// it into live counters on each replay).
    pub(crate) pending: Vec<usize>,
    /// Successor lists per task.
    pub(crate) succs: Vec<Vec<usize>>,
    /// Tasks with no predecessors — ready the moment a replay starts.
    pub(crate) roots: Vec<usize>,
}

impl CompiledPlan {
    /// Number of tasks in the plan.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True for a plan with no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of dependency edges frozen into the plan.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Number of root (immediately ready) tasks.
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Label of task `i`.
    pub fn label(&self, i: usize) -> &'static str {
        self.tasks[i].label
    }

    /// Client tag of task `i`.
    pub fn tag(&self, i: usize) -> u64 {
        self.tasks[i].tag
    }

    /// Declared read regions of task `i` (verbatim from its spec,
    /// duplicates included).
    pub fn ins(&self, i: usize) -> &[RegionId] {
        &self.tasks[i].ins
    }

    /// Declared write regions of task `i` (verbatim from its spec).
    pub fn outs(&self, i: usize) -> &[RegionId] {
        &self.tasks[i].outs
    }

    /// Successor task indices of task `i` (frozen dependency edges).
    pub fn succs_of(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Frozen predecessor count of task `i`.
    pub fn pending_of(&self, i: usize) -> usize {
        self.pending[i]
    }

    /// Root task indices (immediately ready on replay).
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// **Test fixture.** Removes the dependency edge `from → to` from the
    /// frozen graph — successor list, predecessor count, and root set stay
    /// mutually consistent — while leaving both tasks' *declared clauses*
    /// untouched. This simulates a dependency-protocol bug (an edge the
    /// tracker dropped even though the clauses were faithfully declared),
    /// the bug class the happens-before prong of `bpar-verify` exists to
    /// catch and the observed-vs-declared clause diff is blind to.
    ///
    /// Returns `false` (plan unchanged) when the edge does not exist. Only
    /// the first copy of a duplicated edge is removed. Do not call this on
    /// plans used outside of verification tests.
    pub fn drop_edge(&mut self, from: usize, to: usize) -> bool {
        let Some(pos) = self
            .succs
            .get(from)
            .and_then(|s| s.iter().position(|&t| t == to))
        else {
            return false;
        };
        self.succs[from].remove(pos);
        self.pending[to] -= 1;
        if self.pending[to] == 0 {
            if let Err(i) = self.roots.binary_search(&to) {
                self.roots.insert(i, to);
            }
        }
        true
    }
}

impl std::fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledPlan")
            .field("tasks", &self.len())
            .field("edges", &self.edge_count())
            .field("roots", &self.root_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u64) -> RegionId {
        RegionId(i)
    }

    #[test]
    fn compile_computes_diamond_edges() {
        let mut b = PlanBuilder::new();
        b.submit(PlanSpec::new("a").outs([r(1)]).body(|| {}));
        b.submit(PlanSpec::new("b").ins([r(1)]).outs([r(2)]).body(|| {}));
        b.submit(PlanSpec::new("c").ins([r(1)]).outs([r(3)]).body(|| {}));
        b.submit(
            PlanSpec::new("d")
                .ins([r(2), r(3)])
                .outs([r(4)])
                .body(|| {}),
        );
        let plan = b.compile();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.roots, vec![0]);
        assert_eq!(plan.pending, vec![0, 1, 1, 2]);
        assert_eq!(plan.succs[0], vec![1, 2]);
        assert_eq!(plan.succs[1], vec![3]);
        assert_eq!(plan.succs[2], vec![3]);
        assert_eq!(plan.edge_count(), 4);
    }

    #[test]
    fn compile_keeps_edges_live_submission_would_elide() {
        // Live submission may skip an edge whose predecessor already ran;
        // compilation must keep every program-order edge.
        let mut b = PlanBuilder::new();
        b.submit(PlanSpec::new("w").outs([r(7)]).body(|| {}));
        b.submit(PlanSpec::new("r").ins([r(7)]).body(|| {}));
        let plan = b.compile();
        assert_eq!(plan.pending, vec![0, 1]);
        assert_eq!(plan.succs[0], vec![1]);
    }

    #[test]
    fn independent_tasks_are_all_roots() {
        let mut b = PlanBuilder::new();
        for i in 0..5 {
            b.submit(PlanSpec::new("t").outs([r(i)]).body(|| {}));
        }
        let plan = b.compile();
        assert_eq!(plan.root_count(), 5);
        assert_eq!(plan.edge_count(), 0);
    }

    #[test]
    fn empty_plan_compiles() {
        let plan = PlanBuilder::new().compile();
        assert!(plan.is_empty());
        assert_eq!(plan.root_count(), 0);
    }

    #[test]
    #[should_panic(expected = "without a body")]
    fn bodyless_spec_is_rejected() {
        PlanBuilder::new().submit(PlanSpec::new("nobody"));
    }

    #[test]
    fn drop_edge_keeps_structure_consistent() {
        let mut b = PlanBuilder::new();
        b.submit(PlanSpec::new("a").outs([r(1)]).body(|| {}));
        b.submit(PlanSpec::new("b").ins([r(1)]).outs([r(2)]).body(|| {}));
        let mut plan = b.compile();
        assert!(!plan.drop_edge(1, 0), "no such edge");
        assert!(plan.drop_edge(0, 1));
        assert!(!plan.drop_edge(0, 1), "already dropped");
        assert_eq!(plan.edge_count(), 0);
        assert_eq!(plan.pending_of(1), 0);
        // Task 1 became a root; the root list stays sorted.
        assert_eq!(plan.roots(), &[0, 1]);
        // Declared clauses are untouched — that is the whole point.
        assert_eq!(plan.ins(1), &[r(1)]);
    }

    #[test]
    fn compiled_plan_exposes_clauses_and_structure() {
        let mut b = PlanBuilder::new();
        b.submit(PlanSpec::new("w").tag(3).outs([r(1)]).body(|| {}));
        b.submit(PlanSpec::new("r").ins([r(1), r(1)]).body(|| {}));
        let plan = b.compile();
        assert_eq!(plan.label(0), "w");
        assert_eq!(plan.tag(0), 3);
        assert_eq!(plan.outs(0), &[r(1)]);
        // Clauses are verbatim: duplicates are preserved for the validator
        // (dedup happens in the DepTracker, not here).
        assert_eq!(plan.ins(1), &[r(1), r(1)]);
        assert_eq!(plan.succs_of(0), &[1]);
        assert_eq!(plan.pending_of(1), 1);
        assert_eq!(plan.roots(), &[0]);
    }

    #[test]
    fn builder_tracks_ids_and_len() {
        let mut b = PlanBuilder::new();
        assert!(b.is_empty());
        assert_eq!(b.submit(PlanSpec::new("a").body(|| {})), TaskId(0));
        assert_eq!(b.submit(PlanSpec::new("b").body(|| {})), TaskId(1));
        assert_eq!(b.len(), 2);
    }
}
