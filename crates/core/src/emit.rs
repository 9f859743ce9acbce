//! The one description of the B-Par task graph.
//!
//! The paper's idea is small: every cell update is a task, its `in`/`out`
//! clauses are the edges, and there are no barriers (Algorithms 2–3,
//! Fig. 2). This module writes that down exactly once. An [`Emitter`]
//! yields, per mini-batch replica, a stream of [`Node`]s: task kind,
//! layer, direction, timestep/output index, symbolic `in`/`out` slot ids
//! ([`SlotId`]) and flop / working-set annotations parameterised by the
//! scalar size. Direction is data ([`Dir`]), so chain
//! cells and BPTT cells are each written once; the Blelloch scan layer
//! (`scan_forward` / `scan_backward`) is a second emitter of the same node
//! type.
//!
//! Consumers attach what they need and nothing else:
//!
//! * [`crate::graphgen::build_graph`] maps slot ids to fresh region ids
//!   and keeps the cost annotations (simulator, shape checks);
//! * `exec::builder::ReplicaGraph` resolves slot ids to its typed slot
//!   handles at build time and attaches one closure per [`Kind`] (live
//!   executors);
//! * `analyze` lints either.
//!
//! Everything that is *not* the paper's graph is a transform over the
//! emitted stream rather than a branch inside emission: the task
//! granularity ([`coarsen`], with `k` chosen by [`Coarsen::Rule`]), the
//! baselines' schedules ([`Discipline`]: per-layer barriers,
//! [`insert_barriers`], and B-Seq's one task per replica), the other
//! framework ablations ([`fuse_merges`], [`split_cells`]) and the seeded
//! bugs of the soundness detectors ([`drop_state_clause`],
//! [`append_epoch_probe`]).

use crate::model::{BrnnConfig, ModelKind};
use crate::scanplan::{NodeRef, ScanPlan};
use std::collections::HashMap;
use std::fmt;

/// Recurrence direction of a cell chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Dir {
    /// Forward order (`t` ascending).
    Fwd,
    /// Reverse order (`t` descending).
    Rev,
}

impl Dir {
    pub const BOTH: [Dir; 2] = [Dir::Fwd, Dir::Rev];

    /// Array index of the direction (`[fwd, rev]`).
    pub fn ix(self) -> usize {
        self as usize
    }

    /// Logical recurrence position → physical timestep: the reverse
    /// direction's recurrence runs right-to-left, so its position 0 is
    /// `t = T-1`.
    pub fn phys(self, j: usize, seq: usize) -> usize {
        match self {
            Dir::Fwd => j,
            Dir::Rev => seq - 1 - j,
        }
    }

    fn suffix(self) -> &'static str {
        ["fwd", "rev"][self.ix()]
    }
}

/// A symbolic data slot of one replica; each names one dependency region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SlotId {
    /// Cell output (state + BPTT cache), `(dir, layer, t)`.
    St(Dir, usize, usize),
    /// Merge-cell output feeding layer `l+1`, `(layer, t)`.
    Merged(usize, usize),
    /// Classifier features of output position `i`.
    Feat(usize),
    /// Classifier logits of output position `i`.
    Logits(usize),
    /// Gradient w.r.t. `Feat(i)`.
    Dfeat(usize),
    /// Gradient w.r.t. a direction's hidden output, `(dir, layer, t)`.
    Dh(Dir, usize, usize),
    /// Recurrent state gradient, `(dir, layer, t)`.
    Sg(Dir, usize, usize),
    /// Gradient w.r.t. the layer input via one direction's cells. Kept
    /// per direction so the two BPTT chains share no output region — a
    /// shared accumulator would add a WAW edge serialising them.
    Dinput(Dir, usize, usize),
    /// Weight-gradient accumulator, `(dir, layer)`.
    Grads(Dir, usize),
    /// Classifier weight-gradient accumulator.
    GradsDense,
    /// Weighted loss accumulator.
    Loss,
    /// Scan transfer `(adjoint tree?, dir, layer, which)`.
    Scan(bool, Dir, usize, NodeRef),
    /// `Feat(0)`'s storage under a second region id — exists only in
    /// graphs seeded by [`append_epoch_probe`].
    FeatAlias,
    /// Intermediate GEMM output of a [`split_cells`] cell (sim only).
    Gemm(Dir, usize, usize),
    /// Completion token of the barrier with this tag.
    Barrier(u64),
}

/// Human-readable coordinates (`st_fwd[1][2]`), used in analysis findings.
impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SlotId::*;
        match *self {
            St(d, l, t) => write!(f, "st_{}[{l}][{t}]", d.suffix()),
            Merged(l, t) => write!(f, "merged[{l}][{t}]"),
            Feat(i) => write!(f, "feat[{i}]"),
            Logits(i) => write!(f, "logits[{i}]"),
            Dfeat(i) => write!(f, "dfeat[{i}]"),
            Dh(d, l, t) => write!(f, "dh_{}[{l}][{t}]", d.suffix()),
            Sg(d, l, t) => write!(f, "sg_{}[{l}][{t}]", d.suffix()),
            Dinput(d, l, t) => write!(f, "dinput_{}[{l}][{t}]", &d.suffix()[..1]),
            Grads(d, l) => write!(f, "grads_{}[{l}]", d.suffix()),
            GradsDense => f.write_str("grads_dense"),
            Loss => f.write_str("loss"),
            Scan(adjoint, d, l, r) => {
                let (what, i) = match r {
                    NodeRef::Total(i) => ("total", i),
                    NodeRef::Node(i) => ("node", i),
                    NodeRef::Identity => ("identity", 0),
                };
                let b = if adjoint { "b" } else { "" };
                write!(f, "{b}scan_{what}_{}[{l}][{i}]", &d.suffix()[..1])
            }
            FeatAlias => f.write_str("feat_alias"),
            Gemm(d, l, t) => write!(f, "gemm_{}[{l}][{t}]", d.suffix()),
            Barrier(tag) => write!(f, "barrier[{tag}]"),
        }
    }
}

/// A slot of a specific replica (reductions cross replicas).
pub(crate) type SlotRef = (usize, SlotId);

/// Task kind; with the node's direction it determines the label and, in
/// the live consumer, the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Kind {
    Cell,
    Merge,
    MergeFinal,
    Dense,
    Loss,
    /// Backward seed: splits `Dfeat(i)` into the top layer's `Dh` slots.
    MergeBwdFinal,
    CellBwd,
    /// Inner backward merge feeding layer `node.layer` from `layer + 1`.
    MergeBwd,
    ScanLocal,
    ScanComb,
    ScanFix,
    BscanLocal,
    BscanComb,
    BscanFix,
    BscanGrad,
    ReduceCell,
    ReduceDense,
    ReduceLoss,
    /// The [`append_epoch_probe`] task.
    EpochProbe,
    /// [`insert_barriers`] node.
    Barrier,
    /// [`split_cells`] halves of a forward cell (sim only).
    CellGemm,
    CellPt,
}

impl Kind {
    /// The kind whose runs [`coarsen`] folds this one into — consecutive
    /// nodes of one family (and one layer, direction and replica) form a
    /// run: the output head is one family, `merge_final` with the `dense`
    /// that reads it (inference) or with the `loss` and backward seed that
    /// follow it (training). `None` for kinds that are never folded (scan
    /// sweeps are chunked already; reductions and ablation nodes stand
    /// alone).
    fn family(self) -> Option<Kind> {
        use Kind::*;
        match self {
            Cell | Merge | CellBwd | MergeBwd => Some(self),
            MergeFinal | Dense | Loss | MergeBwdFinal => Some(MergeFinal),
            _ => None,
        }
    }

    fn is_scan(self) -> bool {
        use Kind::*;
        matches!(
            self,
            ScanLocal | ScanComb | ScanFix | BscanLocal | BscanComb | BscanFix | BscanGrad
        )
    }
}

/// One task of the graph, before any consumer attached regions or a body.
/// Its clause lists live in the owning [`Stream`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub kind: Kind,
    /// Replica the task belongs to (and whose body state it uses).
    pub rep: usize,
    pub layer: usize,
    pub dir: Dir,
    /// Timestep, output position, chunk or combine index (per kind).
    pub index: usize,
    pub tag: u64,
    pub flops: u64,
    /// Approximate bytes touched.
    pub ws: usize,
    /// `[start, ins end, outs end]` of the clauses in the stream's arena.
    clauses: [usize; 3],
    /// Range of the nodes [`coarsen`] folded into this one, in the
    /// stream's member arena; empty for a node that is its own body.
    members: [usize; 2],
}

impl Node {
    fn new(kind: Kind, rep: usize, dir: Dir, layer: usize, index: usize) -> Node {
        let lt = ((layer as u64) << 32) | index as u64;
        let dir_bits = if kind.is_scan() { dir.ix() as u64 } else { 0 };
        Node {
            kind,
            rep,
            layer,
            dir,
            index,
            tag: (dir_bits << 56) | lt,
            flops: 0,
            ws: 0,
            clauses: [0; 3],
            members: [0; 2],
        }
    }

    /// The task label every consumer reports.
    pub fn label(&self) -> &'static str {
        let by_dir = |names: [&'static str; 2]| names[self.dir.ix()];
        match self.kind {
            Kind::Cell => by_dir(["cell_fwd", "cell_rev"]),
            Kind::Merge => "merge",
            Kind::MergeFinal => "merge_final",
            Kind::Dense => "dense",
            Kind::Loss => "loss",
            Kind::MergeBwdFinal | Kind::MergeBwd => "merge_bwd",
            Kind::CellBwd => by_dir(["cell_fwd_bwd", "cell_rev_bwd"]),
            Kind::ScanLocal => "scan_local",
            Kind::ScanComb => "scan_comb",
            Kind::ScanFix => "scan_fix",
            Kind::BscanLocal => "bscan_local",
            Kind::BscanComb => "bscan_comb",
            Kind::BscanFix => "bscan_fix",
            Kind::BscanGrad => "bscan_grad",
            Kind::ReduceCell => by_dir(["reduce_fwd", "reduce_rev"]),
            Kind::ReduceDense => "reduce_dense",
            Kind::ReduceLoss => "reduce_loss",
            Kind::EpochProbe => "epoch_probe",
            Kind::Barrier => "barrier",
            Kind::CellGemm => by_dir(["cell_fwd_gemm", "cell_rev_gemm"]),
            Kind::CellPt => by_dir(["cell_fwd_pt", "cell_rev_pt"]),
        }
    }
}

/// An emitted node stream: the nodes in submission order, with all their
/// `in`/`out` clause lists in one arena — emitting a node allocates
/// nothing, which keeps plan builds (every plan-cache miss of a server)
/// cheap.
#[derive(Debug, Clone, Default)]
pub(crate) struct Stream {
    pub nodes: Vec<Node>,
    slots: Vec<SlotRef>,
    /// The member arena: a folded node's members are a range of it, in
    /// stream order (coordinates only: their clause lists are empty).
    /// After [`coarsen`] it is the emitted node list itself.
    folded: Vec<Node>,
}

impl Stream {
    /// The nodes whose bodies `n` runs, in order: `n` itself unless
    /// [`coarsen`] folded several nodes into it.
    pub fn members<'a>(&'a self, n: &'a Node) -> &'a [Node] {
        match n.members {
            [a, b] if a < b => &self.folded[a..b],
            _ => std::slice::from_ref(n),
        }
    }

    /// The node's declared `in` clauses.
    pub fn ins(&self, n: &Node) -> &[SlotRef] {
        &self.slots[n.clauses[0]..n.clauses[1]]
    }

    /// The node's declared `out` clauses.
    pub fn outs(&self, n: &Node) -> &[SlotRef] {
        &self.slots[n.clauses[1]..n.clauses[2]]
    }

    /// Appends `node` with clauses over its own replica's slots.
    fn push(
        &mut self,
        node: Node,
        ins: impl IntoIterator<Item = SlotId>,
        outs: impl IntoIterator<Item = SlotId>,
    ) {
        let on_rep = |s| (node.rep, s);
        self.push_refs(
            node,
            ins.into_iter().map(on_rep),
            outs.into_iter().map(on_rep),
        );
    }

    fn push_refs(
        &mut self,
        mut node: Node,
        ins: impl IntoIterator<Item = SlotRef>,
        outs: impl IntoIterator<Item = SlotRef>,
    ) {
        let start = self.slots.len();
        self.slots.extend(ins);
        let mid = self.slots.len();
        self.slots.extend(outs);
        node.clauses = [start, mid, self.slots.len()];
        self.nodes.push(node);
    }

    /// Appends `node` with the clauses and costs of the fold of `run`:
    /// it reads what a member reads that no earlier member wrote and
    /// writes what any member writes, each slot once, in order of first
    /// occurrence. `marks` makes each membership test one table lookup,
    /// so a fold costs time linear in its members' clauses.
    fn push_union(&mut self, mut node: Node, from: &Stream, run: &[Node], marks: &mut FoldMarks) {
        let start = self.slots.len();
        let (listed, written) = (marks.next(), marks.next());
        marks.outs.clear();
        for m in run {
            for &r in from.ins(m) {
                let at = marks.at(node.rep, r);
                if marks.stamp[at] != listed && marks.written[at] != written {
                    marks.stamp[at] = listed;
                    self.slots.push(r);
                }
            }
            for &r in from.outs(m) {
                let at = marks.at(node.rep, r);
                marks.written[at] = written;
                marks.outs.push((at, r));
            }
        }
        let mid = self.slots.len();
        let listed = marks.next();
        for &(at, r) in &marks.outs {
            if marks.stamp[at] != listed {
                marks.stamp[at] = listed;
                self.slots.push(r);
            }
        }
        node.clauses = [start, mid, self.slots.len()];
        node.flops = run.iter().map(|m| m.flops).sum();
        node.ws = run.iter().map(|m| m.ws).sum();
        self.nodes.push(node);
    }
}

/// The membership tests of [`Stream::push_union`], one lookup each: per
/// slot of a replica's dense numbering ([`SlotLayout`]), the last mark it
/// was given. A mark is a fresh number ([`FoldMarks::next`]), so the
/// tables are never cleared — one pair serves every fold of a build.
#[derive(Debug)]
pub(crate) struct FoldMarks {
    layout: SlotLayout,
    /// "Listed as an `in`" and then "listed as an `out`" of the fold.
    stamp: Vec<u32>,
    /// "Written by an earlier member" of the fold.
    written: Vec<u32>,
    last: u32,
    /// The fold's `out` clauses with their indices, in member order.
    outs: Vec<(usize, SlotRef)>,
}

impl FoldMarks {
    pub fn new(layout: SlotLayout) -> Self {
        Self {
            layout,
            stamp: vec![0; layout.len()],
            written: vec![0; layout.len()],
            last: 0,
            outs: Vec::new(),
        }
    }

    fn next(&mut self) -> u32 {
        self.last += 1;
        self.last
    }

    /// Table index of `slot`, a clause of a node of replica `rep`: a
    /// fold never crosses replicas (reductions are never folded), so the
    /// slot's replica-local index is unique within the fold.
    fn at(&self, rep: usize, (of, slot): SlotRef) -> usize {
        assert_eq!(of, rep, "a folded node names another replica's slot");
        self.layout.index(slot)
    }
}

/// The `(fwd t, rev t)` cell outputs feeding output position `i`: a
/// many-to-one model reads each direction's *last* state.
pub(crate) fn output_steps(kind: ModelKind, seq: usize, i: usize) -> (usize, usize) {
    match kind {
        ModelKind::ManyToOne => (seq - 1, 0),
        ModelKind::ManyToMany => (i, i),
    }
}

/// Output positions of a model: 1 for many-to-one, `seq` for many-to-many.
pub(crate) fn output_count(kind: ModelKind, seq: usize) -> usize {
    match kind {
        ModelKind::ManyToOne => 1,
        ModelKind::ManyToMany => seq,
    }
}

/// Emits the nodes of one replica.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Emitter<'a> {
    pub cfg: BrnnConfig,
    /// Timesteps (the batch's, which may differ from `cfg.seq_len`).
    pub seq: usize,
    /// Batch rows of this replica.
    pub rows: usize,
    /// Element size the working-set annotations assume.
    pub scalar: usize,
    /// Scan topology; `None` runs the timestep chain.
    pub scan: Option<&'a ScanPlan>,
    /// Replica index.
    pub rep: usize,
}

/// Barrier tags [`insert_barriers`] can hand out beyond `layers`.
pub(crate) const BARRIER_TAGS: usize = 301;

/// Dense numbering of every slot a replica of one shape (or a transform
/// over its stream) can name — what lets a consumer map slots to regions
/// through a `Vec` instead of hashing coordinates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotLayout {
    layers: usize,
    seq: usize,
    outputs: usize,
    /// Scan chunk totals, and transfer slots (totals + combine outputs),
    /// per tree × direction × layer; 0 under the chain strategy.
    chunks: usize,
    transfers: usize,
}

impl SlotLayout {
    /// Index of `slot`, below [`SlotLayout::len`].
    pub fn index(&self, slot: SlotId) -> usize {
        use SlotId::*;
        let (layers, seq, n) = (self.layers, self.seq, self.outputs);
        // Five `[dir][layer][t]` grids, the merge grid, then the lists.
        let grid = |g: usize, d: Dir, l: usize, t: usize| ((g * 2 + d.ix()) * layers + l) * seq + t;
        let merged = 10 * layers * seq;
        let outputs = merged + layers * seq;
        let grads = outputs + 3 * n;
        let singles = grads + 2 * layers;
        let scan = singles + 3;
        let barriers = scan + 4 * layers * self.transfers;
        match slot {
            St(d, l, t) => grid(0, d, l, t),
            Dh(d, l, t) => grid(1, d, l, t),
            Sg(d, l, t) => grid(2, d, l, t),
            Dinput(d, l, t) => grid(3, d, l, t),
            Gemm(d, l, t) => grid(4, d, l, t),
            Merged(l, t) => merged + l * seq + t,
            Feat(i) => outputs + i,
            Logits(i) => outputs + n + i,
            Dfeat(i) => outputs + 2 * n + i,
            Grads(d, l) => grads + d.ix() * layers + l,
            GradsDense => singles,
            Loss => singles + 1,
            FeatAlias => singles + 2,
            Scan(adjoint, d, l, r) => {
                let k = match r {
                    NodeRef::Total(i) => i,
                    NodeRef::Node(i) => self.chunks + i,
                    NodeRef::Identity => unreachable!("identity transfers are never materialised"),
                };
                scan + ((usize::from(adjoint) * 2 + d.ix()) * layers + l) * self.transfers + k
            }
            Barrier(tag) => barriers + tag as usize,
        }
    }

    /// Number of distinct indices: one past the last barrier token
    /// [`insert_barriers`] can hand out.
    pub fn len(&self) -> usize {
        self.index(SlotId::Barrier((BARRIER_TAGS + self.layers) as u64))
    }
}

impl Emitter<'_> {
    /// The dense slot numbering of this replica's shape.
    pub fn slot_layout(&self) -> SlotLayout {
        let chunks = self.scan.map_or(0, ScanPlan::chunk_count);
        SlotLayout {
            layers: self.cfg.layers,
            seq: self.seq,
            outputs: output_count(self.cfg.kind, self.seq),
            chunks,
            transfers: chunks + self.scan.map_or(0, |p| p.combines.len()),
        }
    }

    fn node(&self, kind: Kind, dir: Dir, at: (usize, usize), cost: (u64, usize)) -> Node {
        let mut n = Node::new(kind, self.rep, dir, at.0, at.1);
        (n.flops, n.ws) = cost;
        n
    }

    /// Appends the replica's nodes in one topological order: forward
    /// layers bottom-up, the output stage, then (training) the backward
    /// layers deepest-first. Every schedule is a transform of this stream
    /// ([`Discipline`]): B-Par submits it as it is, the barrier discipline
    /// adds barrier nodes between its phases, B-Seq folds it into one task.
    pub fn replica(&self, train: bool, out: &mut Stream) {
        // Room for the chain graph: per pass both directions' cells and
        // the inner merges, per output position two or three nodes, and
        // at most seven clauses a node.
        let (layers, seq) = (self.cfg.layers, self.seq);
        let pass = (3 * layers - 1) * seq;
        let outputs = output_count(self.cfg.kind, seq);
        let nodes = if train {
            2 * pass + 3 * outputs
        } else {
            pass + 2 * outputs
        };
        out.nodes.reserve(nodes);
        out.slots.reserve(if train { 7 * nodes } else { 3 * nodes });
        for l in 0..self.cfg.layers {
            self.forward(l, out);
        }
        self.output(train, out);
        for l in (0..self.cfg.layers).rev().filter(|_| train) {
            self.backward(l, out);
        }
    }

    /// `(flops, working set)` of one cell update of layer `l`.
    fn cell_cost(&self, l: usize, backward: bool) -> (u64, usize) {
        let (cell, rows, h) = (self.cfg.cell, self.rows, self.cfg.hidden_size);
        let w = self.cfg.layer_input_size(l);
        if backward {
            let ws = cell.backward_working_set(rows, w, h, self.scalar);
            (cell.backward_flops(rows, w, h), ws)
        } else {
            let ws = cell.forward_working_set(rows, w, h, self.scalar);
            (cell.forward_flops(rows, w, h), ws)
        }
    }

    /// Layer `l`'s cells and merges (Algorithms 2 and 3).
    fn forward(&self, l: usize, out: &mut Stream) {
        use SlotId::*;
        let (cfg, seq, rows) = (self.cfg, self.seq, self.rows);
        let cost = self.cell_cost(l, false);
        for dir in Dir::BOTH {
            if let Some(plan) = self.scan {
                self.scan_forward(plan, l, dir, out);
                continue;
            }
            // Cells are created in recurrence order; each depends on its
            // own previous state and (for l > 0) the merge cell below.
            for j in 0..seq {
                let t = dir.phys(j, seq);
                let prev = (j > 0).then(|| St(dir, l, dir.phys(j - 1, seq)));
                let below = (l > 0).then(|| Merged(l - 1, t));
                let cell = self.node(Kind::Cell, dir, (l, t), cost);
                out.push(cell, prev.into_iter().chain(below), [St(dir, l, t)]);
            }
        }
        // Merge cells (all layers except the last, whose merge belongs to
        // the output stage) are separate tasks so forward and reverse
        // cells never depend on each other (§III-A). Strategy-oblivious:
        // they read completed `St` slots either way.
        if l + 1 < cfg.layers {
            let ws = 3 * rows * cfg.merge.output_width(cfg.hidden_size) * self.scalar;
            let cost = (cfg.merge.flops(rows, cfg.hidden_size), ws);
            for t in 0..seq {
                let merge = self.node(Kind::Merge, Dir::Fwd, (l, t), cost);
                out.push(
                    merge,
                    [St(Dir::Fwd, l, t), St(Dir::Rev, l, t)],
                    [Merged(l, t)],
                );
            }
        }
    }

    /// The last layer's merge and classifier; with `train` also the loss
    /// and the backward seed.
    fn output(&self, train: bool, out: &mut Stream) {
        use SlotId::*;
        let (cfg, rows) = (self.cfg, self.rows);
        let last = cfg.layers - 1;
        let dense_in = cfg.classifier_input_size();
        let dense_flops = (2 * rows * dense_in * cfg.output_size) as u64;
        let merge_flops = cfg.merge.flops(rows, cfg.hidden_size);
        let node = |kind, i, flops, ws| self.node(kind, Dir::Fwd, (0, i), (flops, ws));
        for i in 0..output_count(cfg.kind, self.seq) {
            let (tf, tr) = output_steps(cfg.kind, self.seq, i);
            let (f, r) = (St(Dir::Fwd, last, tf), St(Dir::Rev, last, tr));
            let merge_ws = 3 * rows * dense_in * self.scalar;
            out.push(
                node(Kind::MergeFinal, i, merge_flops, merge_ws),
                [f, r],
                [Feat(i)],
            );
            if !train {
                out.push(node(Kind::Dense, i, dense_flops, 0), [Feat(i)], [Logits(i)]);
                continue;
            }
            // Classifier + loss + classifier backward in one task. The
            // classifier-gradient and loss slots are accumulated across
            // output positions (read-modify-write), so they are *inout*;
            // the added read edges coincide with the write-after-write
            // chain between consecutive loss tasks and dedup away.
            out.push(
                node(Kind::Loss, i, 3 * dense_flops, 0),
                [Feat(i), GradsDense, Loss],
                [Logits(i), Dfeat(i), GradsDense, Loss],
            );
            out.push(
                node(Kind::MergeBwdFinal, i, merge_flops, 0),
                [Dfeat(i), f, r],
                [Dh(Dir::Fwd, last, tf), Dh(Dir::Rev, last, tr)],
            );
        }
    }

    /// Layer `l`'s BPTT cells (each direction against its recurrence
    /// order) and, for `l > 0`, the merge-backward tasks seeding `l-1`.
    fn backward(&self, l: usize, out: &mut Stream) {
        use SlotId::*;
        let (cfg, seq, rows) = (self.cfg, self.seq, self.rows);
        let cost = self.cell_cost(l, true);
        for dir in Dir::BOTH {
            if let Some(plan) = self.scan {
                self.scan_backward(plan, l, dir, out);
                continue;
            }
            for j in (0..seq).rev() {
                let t = dir.phys(j, seq);
                // The per-layer weight-gradient accumulator is read-
                // modify-written by every timestep's backward cell, so it
                // is inout; its read edge duplicates the BPTT chain edge
                // (same predecessor) and dedups away.
                let sg_in = (j + 1 < seq).then(|| Sg(dir, l, dir.phys(j + 1, seq)));
                out.push(
                    self.node(Kind::CellBwd, dir, (l, t), cost),
                    [St(dir, l, t), Dh(dir, l, t), Grads(dir, l)]
                        .into_iter()
                        .chain(sg_in),
                    [Sg(dir, l, t), Dinput(dir, l, t), Grads(dir, l)],
                );
            }
        }
        // The layer-input gradient is the sum of the two directions'
        // contributions; summing in a separate task keeps the directions'
        // BPTT chains free of mutual dependencies.
        if l > 0 {
            let cost = (cfg.merge.flops(rows, cfg.hidden_size), 0);
            for t in 0..seq {
                let (df, dr) = (Dinput(Dir::Fwd, l, t), Dinput(Dir::Rev, l, t));
                out.push(
                    self.node(Kind::MergeBwd, Dir::Fwd, (l - 1, t), cost),
                    [df, dr, St(Dir::Fwd, l - 1, t), St(Dir::Rev, l - 1, t)],
                    [Dh(Dir::Fwd, l - 1, t), Dh(Dir::Rev, l - 1, t)],
                );
            }
        }
    }

    /// Gradient reductions of this replica into replica 0, one task per
    /// accumulator so reductions of different layers proceed in parallel
    /// (§III-B: "dependencies enforce gradient synchronization among model
    /// replicas"). The destination is read-modify-written, so it is inout;
    /// the read edge duplicates the reduction chain's WAW edge and dedups
    /// away.
    pub fn reduce(&self, out: &mut Stream) {
        let cfg = self.cfg;
        let mut push = |mut n: Node, tag: usize, slot: SlotId| {
            n.tag = tag as u64;
            out.push_refs(n, [(self.rep, slot), (0, slot)], [(0, slot)]);
        };
        for l in 0..cfg.layers {
            let params = cfg.cell.params(cfg.layer_input_size(l), cfg.hidden_size);
            for dir in Dir::BOTH {
                let n = self.node(Kind::ReduceCell, dir, (l, 0), (params as u64, 0));
                push(n, l, SlotId::Grads(dir, l));
            }
        }
        let node = |kind| self.node(kind, Dir::Fwd, (0, 0), (0, 0));
        push(node(Kind::ReduceDense), 0, SlotId::GradsDense);
        push(node(Kind::ReduceLoss), 0, SlotId::Loss);
    }

    /// One direction of layer `l` under the scan strategy: `C` chunk-local
    /// sweeps (`scan_local`) from a zero incoming state, the Blelloch
    /// combine tree (`scan_comb`, in the plan's dependency-safe order) and
    /// `C-1` fix-ups (`scan_fix`) folding each chunk's exclusive prefix
    /// into its states. After the fix-ups every `St` slot holds what a
    /// chain execution would have produced (up to FP reassociation in
    /// chunks > 0), so everything downstream is strategy-oblivious.
    fn scan_forward(&self, plan: &ScanPlan, l: usize, dir: Dir, out: &mut Stream) {
        use SlotId::*;
        let (seq, rows, hidden) = (self.seq, self.rows, self.cfg.hidden_size);
        let (step_flops, cell_ws) = self.cell_cost(l, false);
        let states =
            |&(j0, j1): &(usize, usize)| (j0..j1).map(move |j| St(dir, l, dir.phys(j, seq)));
        for (c, chunk) in plan.chunks.iter().enumerate() {
            let len = chunk.1 - chunk.0;
            let below = (chunk.0..chunk.1).filter(|_| l > 0);
            // Chain sweep over the chunk plus the λ^len total.
            let flops = len as u64 * step_flops + (len * hidden) as u64;
            out.push(
                self.node(Kind::ScanLocal, dir, (l, c), (flops, cell_ws * len)),
                below.map(|j| Merged(l - 1, dir.phys(j, seq))),
                states(chunk).chain([Scan(false, dir, l, NodeRef::Total(c))]),
            );
        }
        self.scan_tree(plan, Kind::ScanComb, l, dir, out);
        // Fix-ups are read-modify-writes, so the `St` slots are inout.
        for (c, chunk) in plan.chunks.iter().enumerate().skip(1) {
            let len = chunk.1 - chunk.0;
            // Per position: h_prev += carry, carry ← λ⊙carry, h += carry
            // (all rows×H element-wise).
            let flops = (5 * rows * hidden * len) as u64;
            let ws = (2 * len + 1) * rows * hidden * self.scalar;
            let prefix = Scan(false, dir, l, plan.prefix_of_chunk[c]);
            out.push(
                self.node(Kind::ScanFix, dir, (l, c), (flops, ws)),
                [prefix].into_iter().chain(states(chunk)),
                states(chunk),
            );
        }
    }

    /// The combine tree `(a1,b1) ∘ (a2,b2) = (a1⊙a2, a2⊙b1+b2)` over the
    /// activation (`ScanComb`) or adjoint (`BscanComb`) transfers: per
    /// node a `1×H` element-wise product plus a `rows×H` row-scaled add.
    fn scan_tree(&self, plan: &ScanPlan, kind: Kind, l: usize, dir: Dir, out: &mut Stream) {
        let (rows, hidden) = (self.rows, self.cfg.hidden_size);
        let transfer_bytes = (hidden + rows * hidden) * self.scalar;
        let cost = (((2 * rows + 1) * hidden) as u64, 3 * transfer_bytes);
        let slot = |r| SlotId::Scan(kind == Kind::BscanComb, dir, l, r);
        for (k, comb) in plan.combines.iter().enumerate() {
            let node = self.node(kind, dir, (l, k), cost);
            out.push(
                node,
                [slot(comb.lhs), slot(comb.rhs)],
                [slot(NodeRef::Node(k))],
            );
        }
    }

    /// One direction of layer `l`'s BPTT under the scan strategy. The
    /// adjoint `δ_t = dh_t + λ ⊙ δ_{t+1}` is itself a diagonal linear
    /// recurrence over *reversed* scan order (BPPSA), so the same plan
    /// runs again: backward scan-order chunk `bc` is forward chunk
    /// `C-1-bc`. `bscan_local` sweeps each chunk from a zero incoming
    /// adjoint, `bscan_comb` builds the tree, `bscan_fix` folds each
    /// chunk's exclusive adjoint prefix in, and `bscan_grad` turns the
    /// corrected adjoints into weight/input gradients — one task per
    /// chunk, emitted in reverse chunk order so the inout-serialised
    /// accumulator adds timesteps in the chain executor's order.
    fn scan_backward(&self, plan: &ScanPlan, l: usize, dir: Dir, out: &mut Stream) {
        use SlotId::*;
        let (seq, rows, hidden) = (self.seq, self.rows, self.cfg.hidden_size);
        let (bwd_flops, cell_ws) = self.cell_cost(l, true);
        let cc = plan.chunk_count();
        // Timesteps of backward scan-order chunk `bc`, and its length.
        let span = |bc: usize| {
            let (j0, j1) = plan.chunks[cc - 1 - bc];
            ((j0..j1).map(move |j| dir.phys(j, seq)), j1 - j0)
        };
        for bc in 0..cc {
            let (ts, len) = span(bc);
            // Per position: δ = dh + λ⊙carry plus the λ^len total.
            let flops = (3 * rows * hidden * len + hidden * len) as u64;
            let ws = 2 * len * rows * hidden * self.scalar;
            let total = Scan(true, dir, l, NodeRef::Total(bc));
            out.push(
                self.node(Kind::BscanLocal, dir, (l, bc), (flops, ws)),
                ts.clone().map(|t| Dh(dir, l, t)),
                ts.map(|t| Sg(dir, l, t)).chain([total]),
            );
        }
        self.scan_tree(plan, Kind::BscanComb, l, dir, out);
        for bc in 1..cc {
            let (ts, len) = span(bc);
            // Per position: carry ← λ⊙carry, δ += carry.
            let flops = (3 * rows * hidden * len) as u64;
            let ws = (len + 1) * rows * hidden * self.scalar;
            let sgs = ts.map(|t| Sg(dir, l, t));
            out.push(
                self.node(Kind::BscanFix, dir, (l, bc), (flops, ws)),
                [Scan(true, dir, l, plan.prefix_of_chunk[bc])]
                    .into_iter()
                    .chain(sgs.clone()),
                sgs,
            );
        }
        for bc in 0..cc {
            let (ts, len) = span(bc);
            let cost = (len as u64 * bwd_flops, cell_ws * len);
            let read = ts.clone().flat_map(|t| [Sg(dir, l, t), St(dir, l, t)]);
            out.push(
                self.node(Kind::BscanGrad, dir, (l, cc - 1 - bc), cost),
                read.chain([Grads(dir, l)]),
                ts.map(|t| Dinput(dir, l, t)).chain([Grads(dir, l)]),
            );
        }
    }
}

// ---- Transforms over an emitted stream ----

/// How many consecutive timesteps of one layer and direction one task
/// covers — the granularity transform's `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coarsen {
    /// The smallest `k` that keeps per-task runtime overhead ten times
    /// below the predicted task body (the paper's §IV-B ratio), from the
    /// flops of the shape's forward cells — what every executor runs.
    Rule,
    /// Exactly `k` timesteps per task (clamped to `[1, seq]`); `By(1)` is
    /// the paper's one-cell-per-task graph.
    By(usize),
}

/// What the runtime spends per task outside its body — pop, release,
/// wake-up: `runtime.gap_ns_per_task` on `fine_grain` (190–280 ns; one
/// worker, so no parked-worker wake-up in it). §IV-B is an inequality, so
/// the rule takes the top of the measured range here and the bottom of
/// it for the body: the ratio then holds on the host's slow days too.
const TASK_OVERHEAD_NS: f64 = 280.0;
/// Part of a cell body that does not shrink with its flops — slot locks,
/// weight snapshot, scratch checkout: the lowest `core.task_us_p50` seen
/// on `fine_grain` (0.34 µs; it ranges to 0.50) less the flop term of its
/// 98-flop cell.
const BODY_FIXED_NS: f64 = 180.0;
/// Flops per ns of the slowest kernels a plan can be frozen with — the
/// `scalar` backend's portable loops, `tensor.gemm_*_gflops.scalar`
/// (0.47–0.68). Every other backend's bodies are shorter than predicted,
/// never longer, so the rule folds no plan further than any backend
/// justifies and `k` needs no backend in its key.
const BODY_FLOPS_PER_NS: f64 = 0.6;
/// §IV-B: task creation, scheduling and synchronisation must cost "at
/// least 10× less" than the task.
const BODY_OVER_OVERHEAD: f64 = 10.0;

impl Coarsen {
    /// The `k` [`coarsen`] runs with for the stream(s) holding `nodes`.
    ///
    /// [`Coarsen::Rule`] is a pure function of the emitted forward cells:
    /// their mean flops predict a body of `BODY_FIXED_NS + flops /
    /// BODY_FLOPS_PER_NS`, and `k` is the smallest count of such bodies
    /// that is `BODY_OVER_OVERHEAD` × `TASK_OVERHEAD_NS` long. Either way
    /// `k` is clamped to `[1, seq]`, and is 1 for a scan stream, whose
    /// sweeps are chunked already. The same shape therefore always
    /// compiles to the same plan.
    fn resolve<'a>(self, nodes: impl IntoIterator<Item = &'a Node>, seq: usize) -> usize {
        let (mut cells, mut flops) = (0u64, 0u64);
        for n in nodes {
            if n.kind.is_scan() {
                return 1;
            }
            if n.kind == Kind::Cell {
                cells += 1;
                flops += n.flops;
            }
        }
        let k = match self {
            Coarsen::By(k) => k,
            Coarsen::Rule => {
                let body_ns =
                    BODY_FIXED_NS + flops as f64 / cells.max(1) as f64 / BODY_FLOPS_PER_NS;
                (BODY_OVER_OVERHEAD * TASK_OVERHEAD_NS / body_ns).ceil() as usize
            }
        };
        k.clamp(1, seq.max(1))
    }

    /// Folds every stream of one batch, whose replicas share `layout`,
    /// by the one `k` this resolves to over all of them ([`coarsen`]);
    /// returns that `k`.
    pub(crate) fn apply(self, streams: &mut [Stream], layout: SlotLayout) -> usize {
        let k = self.resolve(streams.iter().flat_map(|s| &s.nodes), layout.seq);
        if k > 1 {
            let mut marks = FoldMarks::new(layout);
            for stream in streams {
                *stream = coarsen(std::mem::take(stream), k, &mut marks);
            }
        }
        k
    }
}

/// Granularity transform, the inverse of [`split_cells`]: folds every `k`
/// consecutive timesteps (or output positions) of one kind family × layer
/// × direction × replica into one node — forward cells, merges, the
/// output head (`merge_final` with its `dense`, or with its `loss` and
/// backward seed), BPTT cells, inner `merge_bwd`. Consecutive phases of a
/// replica's stream differ in family, layer or direction, so no run
/// crosses from one phase into the next.
///
/// The folded node reads what its members read less what an earlier member
/// writes, writes what any member writes, sums their flops and working
/// sets, carries the first member's tag and label — a folded training
/// head is labelled `loss`, the work that dominates it — and its body runs the
/// members' work in stream order ([`Stream::members`]) — for a run of
/// forward or BPTT cells as one chain body that takes the weight snapshot
/// and the worker's scratch once, with the members' slot accesses. A fold
/// replaces a *contiguous* run of a topologically ordered stream, so every
/// edge still points forward (no cycle), every original edge either falls
/// inside a node or connects the two nodes holding its ends (clauses stay
/// sound), and each body runs after everything it ran after before (bits
/// cannot move). `k = 1` leaves the stream as emitted ([`Coarsen::apply`]
/// does not call this then).
fn coarsen(stream: Stream, k: usize, marks: &mut FoldMarks) -> Stream {
    assert!(stream.folded.is_empty(), "coarsen folds an emitted stream");
    let run_of = |n: &Node| (n.kind.family(), n.layer, n.dir, n.rep);
    let mut out = Stream::default();
    let nodes = &stream.nodes;
    let mut start = 0;
    while let Some(first) = nodes.get(start) {
        let mut end = start + 1;
        let mut positions = 1;
        let same_run = |n: &Node| run_of(n) == run_of(first);
        while first.kind.family().is_some() && nodes.get(end).is_some_and(same_run) {
            if nodes[end].index != nodes[end - 1].index {
                if positions == k {
                    break;
                }
                positions += 1;
            }
            end += 1;
        }
        let run = &nodes[start..end];
        match run {
            [only] => out.push_refs(
                *only,
                stream.ins(only).iter().copied(),
                stream.outs(only).iter().copied(),
            ),
            _ => {
                let members = [start, end];
                let mut node = Node { members, ..*first };
                if run.iter().any(|m| m.kind == Kind::Loss) {
                    node.kind = Kind::Loss;
                }
                out.push_union(node, &stream, run, marks);
            }
        }
        start = end;
    }
    // The members of a folded node are a range of the emitted nodes, so
    // their list is the member arena as it is, coordinates only.
    out.folded = stream.nodes;
    out.folded.iter_mut().for_each(|n| n.clauses = [0; 3]);
    out
}

/// A deliberately seeded bug class, each the exclusive prey of one
/// analysis prong (see the [`crate::analyze`] module docs for the
/// exclusivity argument). Used by `bpar analyze --seed-bug` and the
/// detector tests; executors never build seeded plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedBug {
    /// Drop one `in` clause (`drop_state_clause`): a real undeclared
    /// dependency, caught by the clause differ (`BPV201`).
    MissingClause,
    /// Declare every clause faithfully, then remove the compiled edge
    /// between the first two `loss` tasks — a dependency-*protocol* bug.
    /// Observed accesses match the declarations and the lost orderings
    /// are bitwise-commutative FP additions, so only the happens-before
    /// engine sees the unordered conflicting pair (`BPV301`). Requires a
    /// many-to-many training graph.
    DroppedEdge,
    /// Alias one buffer under two region ids (`append_epoch_probe`) —
    /// the stale-region-id-recycled-across-epochs class. Every
    /// region-keyed analysis is blind by construction; only exhaustive
    /// schedule exploration, keyed on observed *physical sites*, witnesses
    /// the fingerprint divergence (`BPV401`).
    CrossEpochRace,
}

/// Seeded bug: drops the `t-1` recurrent-state `in` clause of the first
/// replica's `cell_fwd(l=0, t=1)`. The body is untouched and still reads
/// the slot, so the graph carries a real undeclared dependency.
pub(crate) fn drop_state_clause(stream: &mut Stream) {
    let target = (stream.nodes.iter_mut())
        .find(|n| (n.kind, n.rep, n.dir, n.layer, n.index) == (Kind::Cell, 0, Dir::Fwd, 0, 1))
        .expect("the dropped-clause seed needs a chain graph with cell_fwd(l=0, t=1)");
    // The state clause is the node's first `in`.
    assert_eq!(
        stream.slots[target.clauses[0]],
        (0, SlotId::St(Dir::Fwd, 0, 0))
    );
    target.clauses[0] += 1;
}

/// Seeded bug: appends a probe task to the first replica whose clauses are
/// complete and truthful *for the region ids it uses* — it reads
/// `st_fwd[0][0]` and writes [`SlotId::FeatAlias`], a second region id for
/// `feat[0]`'s storage. Appended last so its clauses attach no edges to
/// the classifier chain: the aliasing, not a clause, is what makes it racy.
pub(crate) fn append_epoch_probe(stream: &mut Stream) {
    let probe = Node::new(Kind::EpochProbe, 0, Dir::Fwd, 0, 0);
    stream.push(probe, [SlotId::St(Dir::Fwd, 0, 0)], [SlotId::FeatAlias]);
}

/// The framework discipline over one replica's stream, the simulator's
/// ablation and the barrier executor's plan alike: per §II, frameworks
/// "apply per-layer barriers between forward and reverse order RNNs", so
/// (a) a layer's reverse direction starts only after its whole forward
/// direction (tags `l` forward, `200+l` backward), (b) layer `l+1` starts
/// only after every merge of layer `l` (`100+l`), and mirrored in BPTT,
/// layer `l-1` starts only after layer `l`'s backward finished (`300+l`).
/// Each barrier node reads the states its phase produced; every node of
/// the gated phase gets the barrier's token as one more `in`. A folded
/// stream keeps its folds.
pub(crate) fn insert_barriers(stream: &Stream) -> Stream {
    use SlotId::{Dh, Merged, Sg, St};
    let mut out = Stream {
        folded: stream.folded.clone(),
        ..Stream::default()
    };
    let mut gates: Vec<((Kind, Dir, usize), SlotId)> = Vec::new();
    let mut produced: Vec<SlotRef> = Vec::new();
    for (i, n) in stream.nodes.iter().enumerate() {
        let phase = (n.kind, n.dir, n.layer);
        let gate = gates.iter().find(|(p, _)| *p == phase);
        let token = gate.map(|&(_, token)| (n.rep, token));
        let (ins, outs) = (stream.ins(n), stream.outs(n));
        out.push_refs(*n, ins.iter().copied().chain(token), outs.iter().copied());
        let states = outs
            .iter()
            .filter(|(_, s)| matches!(s, St(..) | Sg(..) | Merged(..) | Dh(..)));
        produced.extend(states);
        let next = stream.nodes.get(i + 1);
        if next.is_some_and(|m| (m.kind, m.dir, m.layer) == phase) {
            continue;
        }
        // (barrier tag, phase that waits for it)
        let rule = match phase {
            (Kind::Cell, Dir::Fwd, l) => Some((l, Some((Kind::Cell, Dir::Rev, l)))),
            (Kind::Merge, _, l) => Some((100 + l, Some((Kind::Cell, Dir::Fwd, l + 1)))),
            (Kind::CellBwd, Dir::Fwd, l) => Some((200 + l, Some((Kind::CellBwd, Dir::Rev, l)))),
            (Kind::MergeBwd, _, l) => Some((301 + l, Some((Kind::CellBwd, Dir::Fwd, l)))),
            (Kind::CellBwd, Dir::Rev, 0) => Some((300, None)),
            _ => None,
        };
        if let Some((tag, gated)) = rule {
            let token = SlotId::Barrier(tag as u64);
            let mut barrier = Node::new(Kind::Barrier, n.rep, n.dir, n.layer, 0);
            barrier.tag = tag as u64;
            out.push_refs(barrier, produced.drain(..), [(n.rep, token)]);
            gates.extend(gated.map(|p| (p, token)));
        }
        produced.clear();
    }
    out
}

/// B-Seq over one replica's stream (§IV-A: "processes each minibatch
/// sequentially"): the whole stream folded into one node, whose body runs
/// every member in stream order and whose clauses are what the replica
/// reads from outside and writes.
fn fold_replica(stream: &Stream, layout: SlotLayout) -> Stream {
    let coordinates = |m: &Node| Node {
        clauses: [0; 3],
        ..*m
    };
    let members = stream.nodes.iter().flat_map(|n| stream.members(n));
    let mut out = Stream {
        folded: members.map(coordinates).collect(),
        ..Stream::default()
    };
    let node = Node {
        members: [0, out.folded.len()],
        ..stream.nodes[0]
    };
    out.push_union(node, stream, &stream.nodes, &mut FoldMarks::new(layout));
    out
}

/// The schedule a plan imposes on each replica's stream — the only thing
/// the paper's three parallel executors differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Discipline {
    /// The emitted graph, no barriers (§III).
    BPar,
    /// Per-layer barriers: a layer's forward direction, then its reverse
    /// direction, then its merges ([`insert_barriers`], §II).
    Barrier,
    /// One sequential task per mini-batch replica ([`fold_replica`]).
    BSeq,
}

impl Discipline {
    /// `replica`, whose slots `layout` numbers, under this discipline.
    pub(crate) fn apply(self, replica: Stream, layout: SlotLayout) -> Stream {
        match self {
            Discipline::BPar => replica,
            Discipline::Barrier => insert_barriers(&replica),
            Discipline::BSeq => fold_replica(&replica, layout),
        }
    }

    /// The name the executor of this discipline reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Discipline::BPar => "b-par",
            Discipline::Barrier => "barrier",
            Discipline::BSeq => "b-seq",
        }
    }
}

/// Ablation: fuses each merge into the consuming cells of the next layer
/// instead of keeping it as a separate task — what B-Par deliberately
/// avoids (§III-A): the fused cell then depends on *both* directions of
/// the layer below, coupling them. Merge nodes disappear; their reads and
/// flops move into every cell that consumed their output.
pub(crate) fn fuse_merges(stream: &Stream) -> Stream {
    let merges = stream.nodes.iter().filter(|n| n.kind == Kind::Merge);
    let by_out: HashMap<SlotRef, &Node> = merges.map(|m| (stream.outs(m)[0], m)).collect();
    let mut out = Stream::default();
    for n in stream.nodes.iter().filter(|n| n.kind != Kind::Merge) {
        let mut fused = *n;
        let ins = stream.ins(n).iter().flat_map(|r| match by_out.get(r) {
            Some(merge) => {
                fused.flops += merge.flops;
                stream.ins(merge)
            }
            None => std::slice::from_ref(r),
        });
        let ins: Vec<SlotRef> = ins.copied().collect();
        out.push_refs(fused, ins, stream.outs(n).iter().copied());
    }
    out
}

/// Granularity ablation: splits every forward cell into two finer tasks —
/// the fused GEMM, which keeps the bulk of the flops and the full working
/// set, and the element-wise gate tail over the hidden state — twice the
/// tasks, twice the scheduling overhead, same work.
pub(crate) fn split_cells(stream: &Stream, rows: usize, hidden: usize) -> Stream {
    let mut out = Stream::default();
    for n in &stream.nodes {
        let (ins, outs) = (
            stream.ins(n).iter().copied(),
            stream.outs(n).iter().copied(),
        );
        if n.kind != Kind::Cell {
            out.push_refs(*n, ins, outs);
            continue;
        }
        let tail = (12 * rows * hidden) as u64;
        let gemm = (n.rep, SlotId::Gemm(n.dir, n.layer, n.index));
        let (mut head, mut pt) = (*n, *n);
        (head.kind, head.flops) = (Kind::CellGemm, n.flops.saturating_sub(tail));
        (pt.kind, pt.flops, pt.ws) = (Kind::CellPt, tail, 5 * rows * hidden * 4);
        out.push_refs(head, ins, [gemm]);
        out.push_refs(pt, [gemm], outs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use std::collections::HashMap;

    /// Every slot an emitter or a transform names has its own index below
    /// `SlotLayout::len` — chain and scan, seeded and ablated.
    #[test]
    fn slot_layout_is_dense_and_injective() {
        for (cell, chunks) in [(CellKind::Lstm, None), (CellKind::Linear, Some(3))] {
            for kind in [ModelKind::ManyToOne, ModelKind::ManyToMany] {
                let cfg = BrnnConfig {
                    cell,
                    layers: 3,
                    seq_len: 7,
                    kind,
                    ..BrnnConfig::default()
                };
                let plan = chunks.map(|c| ScanPlan::new(cfg.seq_len, c));
                let emitter = Emitter {
                    cfg,
                    seq: cfg.seq_len,
                    rows: 2,
                    scalar: 4,
                    scan: plan.as_ref(),
                    rep: 0,
                };
                let mut stream = Stream::default();
                emitter.replica(true, &mut stream);
                append_epoch_probe(&mut stream);
                let layout = emitter.slot_layout();
                let mut streams = vec![coarsen(stream.clone(), 3, &mut FoldMarks::new(layout))];
                if plan.is_none() {
                    streams.push(split_cells(&insert_barriers(&stream), 2, cfg.hidden_size));
                }
                let mut seen: HashMap<usize, SlotId> = HashMap::new();
                for s in &streams {
                    let clauses = |n| s.ins(n).iter().chain(s.outs(n));
                    for &(_, slot) in s.nodes.iter().flat_map(clauses) {
                        let i = layout.index(slot);
                        assert!(i < layout.len(), "{slot} -> {i} of {}", layout.len());
                        let first = *seen.entry(i).or_insert(slot);
                        assert_eq!(first, slot, "{first} and {slot} share index {i}");
                    }
                }
                assert!(seen.len() > 100);
            }
        }
    }

    /// The rule's arithmetic on hand-made streams: `k` bodies of
    /// `180 ns + flops / 0.6` reach 2.8 µs.
    #[test]
    fn rule_is_the_smallest_k_with_ten_times_the_overhead() {
        let cells = |flops: &[u64]| -> Vec<Node> {
            let cell = |&f| Node {
                flops: f,
                ..Node::new(Kind::Cell, 0, Dir::Fwd, 0, 0)
            };
            flops.iter().map(cell).collect()
        };
        let rule = |flops: &[u64], seq| Coarsen::Rule.resolve(&cells(flops), seq);
        assert_eq!(rule(&[0], 100), 16); // 180 ns bodies
        assert_eq!(rule(&[192], 100), 6); // 500 ns
        assert_eq!(rule(&[1572], 100), 1); // 2.8 µs: one body is enough
        assert_eq!(rule(&[1571], 100), 2);
        assert_eq!(rule(&[100, 284], 100), 6); // the mean cell
        assert_eq!(rule(&[0], 4), 4); // clamped to the sequence
        assert_eq!(Coarsen::By(0).resolve(&cells(&[9]), 8), 1);
        assert_eq!(Coarsen::By(12).resolve(&cells(&[9]), 8), 8);
        // A scan stream is never folded.
        let scan = [Node::new(Kind::ScanLocal, 0, Dir::Fwd, 0, 0)];
        assert_eq!(Coarsen::By(4).resolve(&scan, 8), 1);
        assert_eq!(Coarsen::Rule.resolve(&scan, 8), 1);
    }
}
