//! Static task-graph generation for the multi-core simulator.
//!
//! [`build_graph`] is the simulator's consumer of the single graph
//! description in `crate::emit` — the very node stream the live executors
//! attach closures to (see [`crate::exec`]) — materialised as a
//! [`bpar_runtime::TaskGraph`] value annotated with per-task flop counts
//! and working-set sizes. `bpar-sim` replays these graphs on simulated
//! machines with 1–48 cores to reproduce the paper's scaling figures, and
//! the graph-shape tests check the 3-layer/seq-3 instance against the
//! paper's Fig. 2 cell-by-cell.
//!
//! Setting [`GraphSpec::barriers`] inserts explicit per-layer barrier
//! nodes, turning the B-Par graph into the Keras/PyTorch-style schedule —
//! that single flag is the paper's central ablation, and the graph
//! [`crate::exec::BarrierExec`] compiles and replays live. Per §II, frameworks
//! "apply per-layer barriers **between forward and reverse order RNNs**:
//! each layer sequentially performs either forward or reverse order RNN
//! computations for each timestamp, and then merges" — so the barriered
//! graph (a) runs the reverse direction only after the whole forward
//! direction of the layer, and (b) starts layer `l+1` only after every
//! merge of layer `l`. Removing exactly those two constraints is what
//! B-Par contributes.

use crate::emit::{self, Emitter, SlotLayout, SlotRef, Stream};
use crate::exec::taskgraph::row_chunks;
use crate::model::BrnnConfig;
use crate::scanplan::{RecurrenceStrategy, ScanPlan};
use bpar_runtime::graph::{TaskGraph, TaskNode};
use bpar_runtime::RegionId;

pub use crate::emit::Coarsen;

/// What part of a training step the graph covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Forward propagation only (inference).
    Inference,
    /// Forward + loss + backward + gradient reduction (one training batch).
    #[default]
    Training,
}

/// Parameters of a generated graph.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    /// Model hyper-parameters (cell kind, dims, merge, arity).
    pub config: BrnnConfig,
    /// Total batch rows.
    pub batch_rows: usize,
    /// Mini-batch replicas (`mbs:N`). Rows are split evenly.
    pub mbs: usize,
    /// Inference or full training step.
    pub phase: Phase,
    /// Insert per-layer barrier nodes (framework-style execution).
    pub barriers: bool,
    /// Ablation: fuse each merge into the consuming forward-order cell of
    /// the next layer instead of keeping it as a separate task. This is
    /// what B-Par deliberately avoids (§III-A): the fused cell then
    /// depends on *both* directions of the layer below, coupling them.
    pub fuse_merges: bool,
    /// Ablation: split every cell update into two finer tasks (the fused
    /// GEMM and the element-wise gate tail) to probe task granularity —
    /// twice the tasks, twice the scheduling overhead, same work.
    pub split_cells: bool,
    /// How each direction's timestep recurrence is executed. `Scan` (for
    /// scannable cells) replaces the per-timestep chain with chunk-local
    /// sweeps, a Blelloch combine tree and fix-ups. Falls back to `Chain`
    /// exactly like the live executor (see
    /// [`RecurrenceStrategy::effective`]).
    pub recurrence: RecurrenceStrategy,
    /// Timesteps per task. The constructors give [`Coarsen::By`]`(1)`, the
    /// paper's graph; [`Coarsen::Rule`] is the graph the live executors
    /// compile for this shape ([`GraphSpec::coarsen_factor`]).
    pub coarsen: Coarsen,
}

impl GraphSpec {
    /// Training graph of a model on a full batch, barrier-free (B-Par).
    pub fn training(config: BrnnConfig, batch_rows: usize) -> Self {
        Self {
            config,
            batch_rows,
            mbs: 1,
            phase: Phase::Training,
            barriers: false,
            fuse_merges: false,
            split_cells: false,
            recurrence: RecurrenceStrategy::Chain,
            coarsen: Coarsen::By(1),
        }
    }

    /// Inference graph.
    pub fn inference(config: BrnnConfig, batch_rows: usize) -> Self {
        Self {
            phase: Phase::Inference,
            ..Self::training(config, batch_rows)
        }
    }

    /// Same spec with `mbs` replicas.
    pub fn with_mbs(mut self, mbs: usize) -> Self {
        assert!(mbs >= 1);
        self.mbs = mbs;
        self
    }

    /// Same spec with per-layer barriers.
    pub fn with_barriers(mut self, barriers: bool) -> Self {
        self.barriers = barriers;
        self
    }

    /// Same spec with merges fused into consuming cells (ablation).
    pub fn with_fused_merges(mut self, fuse: bool) -> Self {
        self.fuse_merges = fuse;
        self
    }

    /// Same spec with gate-split cell tasks (granularity ablation).
    pub fn with_split_cells(mut self, split: bool) -> Self {
        self.split_cells = split;
        self
    }

    /// Same spec with the given recurrence execution strategy.
    pub fn with_recurrence(mut self, recurrence: RecurrenceStrategy) -> Self {
        self.recurrence = recurrence;
        self
    }

    /// Same spec with `coarsen` timesteps folded into each task.
    pub fn with_coarsen(mut self, coarsen: Coarsen) -> Self {
        self.coarsen = coarsen;
        self
    }

    /// The `k` this spec's graph is folded by: [`GraphSpec::coarsen`]
    /// resolved against the emitted stream, exactly as the live plan
    /// builder resolves it for the same shape.
    pub fn coarsen_factor(&self) -> usize {
        self.streams().1
    }
}

impl GraphSpec {
    /// The spec's node streams — one per replica with the requested
    /// transforms applied, last the cross-replica reductions — with the
    /// `k` they were folded by and the replicas' slot numbering.
    fn streams(&self) -> (Vec<Stream>, usize, SlotLayout) {
        let cfg = self.config;
        cfg.validate().expect("invalid config");
        assert!(
            !(self.barriers && self.fuse_merges),
            "barrier and merge-fusion ablations are mutually exclusive"
        );
        // The generator honours the same fallback the live executor
        // applies: non-scannable cells and degenerate chunk counts run the
        // chain.
        let recurrence = self.recurrence.effective(cfg.cell, cfg.seq_len);
        let scan_plan = recurrence
            .scan_chunks()
            .map(|c| ScanPlan::new(cfg.seq_len, c));
        let ablated = self.barriers || self.fuse_merges || self.split_cells;
        assert!(
            scan_plan.is_none() || !ablated,
            "the scan strategy excludes the barrier/fusion/granularity ablations"
        );
        let train = self.phase == Phase::Training;
        let emitters: Vec<Emitter> = row_chunks(self.batch_rows, self.mbs)
            .iter()
            .enumerate()
            .map(|(rep, &(_, rows))| Emitter {
                cfg,
                seq: cfg.seq_len,
                rows,
                scalar: 4, // cost model assumes f32, like the paper's kernels
                scan: scan_plan.as_ref(),
                rep,
            })
            .collect();
        let mut streams = vec![Stream::default(); emitters.len()];
        for (e, replica) in emitters.iter().zip(&mut streams) {
            e.replica(train, replica);
        }
        let layout = emitters[0].slot_layout();
        let k = self.coarsen.apply(&mut streams, layout);
        assert!(
            k == 1 || !(self.fuse_merges || self.split_cells),
            "a coarsened graph excludes the fusion/split ablations"
        );
        // Per replica: the requested ablation transforms.
        for (e, replica) in emitters.iter().zip(&mut streams) {
            if self.fuse_merges {
                *replica = emit::fuse_merges(replica);
            }
            if self.barriers {
                *replica = emit::insert_barriers(replica);
            }
            if self.split_cells {
                *replica = emit::split_cells(replica, e.rows, cfg.hidden_size);
            }
        }
        if train {
            let mut reductions = Stream::default();
            emitters[1..].iter().for_each(|e| e.reduce(&mut reductions));
            streams.push(reductions);
        }
        (streams, k, layout)
    }
}

/// Builds the annotated task graph for `spec`: the `crate::emit` stream
/// of every replica (with the requested transforms applied), then the
/// cross-replica gradient reductions, each slot id mapped to a fresh
/// region.
pub fn build_graph(spec: &GraphSpec) -> TaskGraph {
    let (streams, _, layout) = spec.streams();
    // Regions are numbered in order of first use, through a table indexed
    // by replica and the slot's dense index.
    let mut regions: Vec<Option<RegionId>> = vec![None; streams.len() * layout.len()];
    let mut next = 0;
    let mut region = |&(rep, slot): &SlotRef| {
        *regions[rep * layout.len() + layout.index(slot)].get_or_insert_with(|| {
            next += 1;
            RegionId(next - 1)
        })
    };
    let mut g = TaskGraph::new();
    let (mut ins, mut outs) = (Vec::new(), Vec::new());
    for stream in &streams {
        for n in &stream.nodes {
            ins.clear();
            ins.extend(stream.ins(n).iter().map(&mut region));
            outs.clear();
            outs.extend(stream.outs(n).iter().map(&mut region));
            let node = TaskNode::new(n.label())
                .tag(n.tag)
                .flops(n.flops)
                .working_set(n.ws);
            g.add_task(node, &ins, &outs);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::merge::MergeMode;
    use crate::model::ModelKind;

    /// The paper's Fig. 1/2 example: 3 layers, sequence length 3.
    pub(super) fn fig2_config() -> BrnnConfig {
        BrnnConfig {
            cell: CellKind::Lstm,
            input_size: 4,
            hidden_size: 4,
            layers: 3,
            seq_len: 3,
            output_size: 2,
            merge: MergeMode::Sum,
            kind: ModelKind::ManyToOne,
        }
    }

    #[test]
    fn fig2_forward_task_counts() {
        let g = build_graph(&GraphSpec::inference(fig2_config(), 2));
        // 9 forward cells (1f..9f), 9 reverse cells (1r..9r),
        // 6 merge cells (layers 0 and 1, 3 timesteps each),
        // 1 final merge (9f9r), 1 dense.
        assert_eq!(g.count_label("cell_fwd"), 9);
        assert_eq!(g.count_label("cell_rev"), 9);
        assert_eq!(g.count_label("merge"), 6);
        assert_eq!(g.count_label("merge_final"), 1);
        assert_eq!(g.count_label("dense"), 1);
        assert_eq!(g.len(), 26);
        g.validate().unwrap();
    }

    #[test]
    fn fig2_training_has_mirrored_backward() {
        let g = build_graph(&GraphSpec::training(fig2_config(), 2));
        assert_eq!(g.count_label("cell_fwd_bwd"), 9);
        assert_eq!(g.count_label("cell_rev_bwd"), 9);
        // merge_bwd: 1 final + 6 inner (layers 1 and 2 feeding below).
        assert_eq!(g.count_label("merge_bwd"), 7);
        assert_eq!(g.count_label("loss"), 1);
        g.validate().unwrap();
    }

    #[test]
    fn fig2_dependency_arrows() {
        // Check specific arrows from Fig. 1: the merge of (1f, 3r) feeds
        // forward cell 4f (layer 1, t 0) and reverse cell 6r (layer 1, t 0).
        let g = build_graph(&GraphSpec::inference(fig2_config(), 2));
        // Task creation order: layer 0 fwd cells are ids 0,1,2; rev cells
        // created t descending are ids 3 (t=2), 4 (t=1), 5 (t=0); merges
        // t ascending are 6,7,8. Layer 1 fwd: 9,10,11; rev: 12,13,14.
        let merge_l0_t0 = 6;
        assert_eq!(g.node(merge_l0_t0).label, "merge");
        // merge(l0,t0) reads 1f (id 0) and 3r (id 5: rev cell processing t=0).
        assert_eq!(g.preds(merge_l0_t0), &[0, 5]);
        // Its successors are 4f (layer-1 fwd t=0, id 9) and the layer-1
        // reverse cell for t=0 (id 14, created last in descending order).
        let succs = g.succs(merge_l0_t0);
        assert!(
            succs.contains(&9),
            "merge should feed layer-1 fwd t0: {succs:?}"
        );
        assert!(
            succs.contains(&14),
            "merge should feed layer-1 rev t0: {succs:?}"
        );
    }

    #[test]
    fn forward_cells_chain_within_direction() {
        let g = build_graph(&GraphSpec::inference(fig2_config(), 2));
        // 2f (id 1) depends on 1f (id 0); 3f (id 2) on 2f.
        assert_eq!(g.preds(1), &[0]);
        assert_eq!(g.preds(2), &[1]);
        // Reverse chain: id 4 (t=1) depends on id 3 (t=2).
        assert_eq!(g.preds(4), &[3]);
        assert_eq!(g.preds(5), &[4]);
    }

    #[test]
    fn many_to_many_output_counts() {
        let cfg = BrnnConfig {
            kind: ModelKind::ManyToMany,
            ..fig2_config()
        };
        let g = build_graph(&GraphSpec::training(cfg, 2));
        assert_eq!(g.count_label("merge_final"), 3);
        assert_eq!(g.count_label("loss"), 3);
        // merge_bwd: 3 final + 6 inner.
        assert_eq!(g.count_label("merge_bwd"), 9);
        g.validate().unwrap();
    }

    #[test]
    fn barriers_add_nodes_and_reduce_width() {
        let spec = GraphSpec::training(fig2_config(), 2);
        let free = build_graph(&spec);
        let barred = build_graph(&spec.with_barriers(true));
        assert!(barred.count_label("barrier") > 0);
        assert_eq!(free.count_label("barrier"), 0);
        // Barrier-free exposes at least as much parallelism.
        assert!(free.max_width() >= barred.max_width());
        // And its critical path (unit costs) is no longer.
        let cp_free = free.critical_path(|n| n.flops as f64);
        let cp_barred = barred.critical_path(|n| n.flops as f64);
        assert!(cp_free <= cp_barred + 1e-9);
        barred.validate().unwrap();
    }

    #[test]
    fn mbs_replicas_multiply_tasks_and_add_reductions() {
        let spec = GraphSpec::training(fig2_config(), 8).with_mbs(2);
        let g = build_graph(&spec);
        assert_eq!(g.count_label("cell_fwd"), 18); // 9 per replica
        assert_eq!(g.count_label("reduce_fwd"), 3); // one per layer
        assert_eq!(g.count_label("reduce_dense"), 1);
        g.validate().unwrap();
    }

    #[test]
    fn replicas_are_independent_until_reduction() {
        // With 2 replicas the max width should roughly double.
        let spec1 = GraphSpec::training(fig2_config(), 8);
        let spec2 = spec1.with_mbs(2);
        let w1 = build_graph(&spec1).max_width();
        let w2 = build_graph(&spec2).max_width();
        assert!(w2 >= 2 * w1 - 2, "w1={w1} w2={w2}");
    }

    #[test]
    fn flops_annotations_scale_with_rows() {
        let small = build_graph(&GraphSpec::training(fig2_config(), 2));
        let large = build_graph(&GraphSpec::training(fig2_config(), 4));
        let f = |g: &bpar_runtime::TaskGraph| g.total_work(|n| n.flops as f64);
        assert!((f(&large) / f(&small) - 2.0).abs() < 0.05);
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::tests::fig2_config as cfg;
    use super::*;

    #[test]
    fn fused_merges_remove_merge_tasks_and_couple_directions() {
        let free = build_graph(&GraphSpec::inference(cfg(), 2));
        let fused = build_graph(&GraphSpec::inference(cfg(), 2).with_fused_merges(true));
        assert_eq!(free.count_label("merge"), 6);
        assert_eq!(fused.count_label("merge"), 0);
        fused.validate().unwrap();
        // The fused graph has fewer tasks but no wider (same critical
        // structure with the directions coupled at layer boundaries).
        assert!(fused.len() < free.len());
        // Layer-1 forward cell at t=0 now has three preds: its own t-1 (none
        // at t=0), fwd below and rev below.
        // Task ids: layer-0 fwd 0..3, rev 3..6; layer-1 fwd starts at 6.
        assert_eq!(fused.preds(6), &[0, 5]);
    }

    #[test]
    fn split_cells_double_cell_tasks_preserving_work() {
        let whole = build_graph(&GraphSpec::training(cfg(), 2));
        let split = build_graph(&GraphSpec::training(cfg(), 2).with_split_cells(true));
        split.validate().unwrap();
        assert_eq!(split.count_label("cell_fwd"), 0);
        assert_eq!(
            split.count_label("cell_fwd_gemm"),
            whole.count_label("cell_fwd")
        );
        assert_eq!(
            split.count_label("cell_fwd_pt"),
            whole.count_label("cell_fwd")
        );
        // Total flops preserved (forward cells only differ in partitioning).
        let f = |g: &TaskGraph| g.total_work(|n| n.flops as f64);
        assert!((f(&split) / f(&whole) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn barriers_and_fusion_conflict() {
        build_graph(
            &GraphSpec::training(cfg(), 2)
                .with_barriers(true)
                .with_fused_merges(true),
        );
    }
}

#[cfg(test)]
mod scan_tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::merge::MergeMode;
    use crate::model::ModelKind;
    use crate::scanplan::combine_count;

    fn linear_cfg(layers: usize, seq: usize) -> BrnnConfig {
        BrnnConfig {
            cell: CellKind::Linear,
            input_size: 4,
            hidden_size: 4,
            layers,
            seq_len: seq,
            output_size: 2,
            merge: MergeMode::Sum,
            kind: ModelKind::ManyToOne,
        }
    }

    #[test]
    fn scan_task_labels_and_counts() {
        let spec = GraphSpec::training(linear_cfg(2, 12), 2)
            .with_recurrence(RecurrenceStrategy::Scan { chunks: 4 });
        let g = build_graph(&spec);
        let k = combine_count(4); // 3 per direction per layer
        assert_eq!(g.count_label("scan_local"), 16);
        assert_eq!(g.count_label("scan_comb"), 4 * k);
        assert_eq!(g.count_label("scan_fix"), 12);
        assert_eq!(g.count_label("bscan_local"), 16);
        assert_eq!(g.count_label("bscan_comb"), 4 * k);
        assert_eq!(g.count_label("bscan_fix"), 12);
        assert_eq!(g.count_label("bscan_grad"), 16);
        // No chain cells anywhere; merges are strategy-oblivious.
        assert_eq!(g.count_label("cell_fwd"), 0);
        assert_eq!(g.count_label("cell_fwd_bwd"), 0);
        assert_eq!(g.count_label("merge"), 12);
        assert_eq!(g.count_label("merge_bwd"), 13);
        g.validate().unwrap();
    }

    #[test]
    fn scan_shortens_the_critical_path_and_widens_the_graph() {
        let cfg = linear_cfg(1, 4096);
        let chain = build_graph(&GraphSpec::inference(cfg, 8));
        let scan = build_graph(
            &GraphSpec::inference(cfg, 8).with_recurrence(RecurrenceStrategy::Scan { chunks: 64 }),
        );
        let cp = |g: &TaskGraph| g.critical_path(|n| n.flops as f64);
        // Inference: the whole T-step chain collapses to chunk + tree +
        // fix work — orders of magnitude shorter at T = 4096.
        assert!(
            cp(&scan) < cp(&chain) / 4.0,
            "scan cp {} vs chain cp {}",
            cp(&scan),
            cp(&chain)
        );
        assert!(scan.max_width() > chain.max_width());

        // Training still wins (forward + adjoint trees parallelise) even
        // though the gradient accumulator chain stays sequential.
        let chain_t = build_graph(&GraphSpec::training(cfg, 8));
        let scan_t = build_graph(
            &GraphSpec::training(cfg, 8).with_recurrence(RecurrenceStrategy::Scan { chunks: 64 }),
        );
        assert!(cp(&scan_t) < cp(&chain_t));
        scan.validate().unwrap();
        scan_t.validate().unwrap();
    }

    #[test]
    fn scan_combines_read_locals_and_fixes_read_prefixes() {
        let spec = GraphSpec::inference(linear_cfg(1, 8), 2)
            .with_recurrence(RecurrenceStrategy::Scan { chunks: 4 });
        let g = build_graph(&spec);
        // Emission per direction: 4 locals, K=3 combines, 3 fixes.
        // Forward direction starts at task 0.
        for comb in 4..7 {
            assert_eq!(g.node(comb).label, "scan_comb");
            for &p in g.preds(comb) {
                assert!(
                    g.node(p).label == "scan_local" || g.node(p).label == "scan_comb",
                    "combine preds must be transfers, got {}",
                    g.node(p).label
                );
            }
        }
        for fix in 7..10 {
            assert_eq!(g.node(fix).label, "scan_fix");
            // Exactly two deduplicated preds: the prefix transfer and the
            // chunk's own local sweep.
            assert_eq!(g.preds(fix).len(), 2, "{:?}", g.preds(fix));
        }
        g.validate().unwrap();
    }

    #[test]
    fn non_scannable_cells_fall_back_to_the_chain_graph() {
        let cfg = BrnnConfig {
            cell: CellKind::Lstm,
            ..linear_cfg(2, 8)
        };
        let scan = build_graph(
            &GraphSpec::training(cfg, 2).with_recurrence(RecurrenceStrategy::Scan { chunks: 4 }),
        );
        let chain = build_graph(&GraphSpec::training(cfg, 2));
        assert_eq!(scan.count_label("scan_local"), 0);
        assert_eq!(scan.len(), chain.len());
        for i in 0..scan.len() {
            assert_eq!(scan.node(i).label, chain.node(i).label);
            assert_eq!(scan.node(i).tag, chain.node(i).tag);
            assert_eq!(scan.preds(i), chain.preds(i));
        }
    }

    #[test]
    #[should_panic(expected = "ablations")]
    fn scan_and_barriers_conflict() {
        build_graph(
            &GraphSpec::training(linear_cfg(1, 8), 2)
                .with_barriers(true)
                .with_recurrence(RecurrenceStrategy::Scan { chunks: 4 }),
        );
    }
}

#[cfg(test)]
mod fig2_backward_tests {
    use super::*;

    /// Fig. 2's red (backward-propagation) arrows for the 3-layer, seq-3
    /// many-to-one model: the backward graph starts from the final merge
    /// (cell "9f9r") and mirrors the forward dependencies.
    #[test]
    fn backward_graph_mirrors_forward() {
        let g = build_graph(&GraphSpec::training(super::tests::fig2_config(), 2));
        // Locate key tasks by label and tag.
        let find = |label: &str, tag: u64| -> usize {
            (0..g.len())
                .find(|&i| g.node(i).label == label && g.node(i).tag == tag)
                .unwrap_or_else(|| panic!("no {label} with tag {tag}"))
        };
        let tag = |l: u64, t: u64| (l << 32) | t;

        // The loss reads the final merge; the backward seed reads the loss
        // output (dfeat) and writes the dh slots of the top layer's last
        // forward cell and first reverse cell.
        let merge_final = find("merge_final", 0);
        let loss = find("loss", 0);
        assert!(g.succs(merge_final).contains(&loss));

        // Top-layer forward BPTT starts at t = T-1 (cell 9f) and chains
        // backward in time: bwd(2, 1) depends on bwd(2, 2) through the
        // recurrent state gradient.
        let b22 = find("cell_fwd_bwd", tag(2, 2));
        let b21 = find("cell_fwd_bwd", tag(2, 1));
        assert!(
            g.preds(b21).contains(&b22),
            "BPTT chain must run t descending"
        );

        // Reverse-direction BPTT runs t ascending.
        let r20 = find("cell_rev_bwd", tag(2, 0));
        let r21 = find("cell_rev_bwd", tag(2, 1));
        assert!(g.preds(r21).contains(&r20));

        // The inner merge_bwd for layer 1, t 0 consumes both directions'
        // dinput of layer 2 at t 0 and feeds both directions of layer 1.
        let mb = find("merge_bwd", tag(1, 0));
        let b20 = find("cell_fwd_bwd", tag(2, 0));
        let r20b = find("cell_rev_bwd", tag(2, 0));
        assert!(g.preds(mb).contains(&b20));
        assert!(g.preds(mb).contains(&r20b));
        let b10 = find("cell_fwd_bwd", tag(1, 0));
        let r10 = find("cell_rev_bwd", tag(1, 0));
        assert!(g.succs(mb).contains(&b10));
        assert!(g.succs(mb).contains(&r10));

        // Weight-gradient accumulators serialize each direction's BPTT
        // chain but never couple the two directions: no cell_rev_bwd ever
        // depends on a cell_fwd_bwd of the same layer directly.
        for i in 0..g.len() {
            if g.node(i).label == "cell_rev_bwd" {
                for &p in g.preds(i) {
                    assert_ne!(
                        g.node(p).label,
                        "cell_fwd_bwd",
                        "directions' BPTT chains must stay independent"
                    );
                }
            }
        }
    }
}
