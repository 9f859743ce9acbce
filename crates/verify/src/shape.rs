//! Closed-form task/edge counts for canonical B-Par BRNN graphs.
//!
//! The paper's Fig. 2 shows the task graph of one bidirectional layer
//! stack; its size is a closed-form function of depth `L`, sequence
//! length `T`, the number of output positions `n` (1 for many-to-one,
//! `T` for many-to-many) and the micro-batch replica count `R`. The
//! shape check recomputes that function and compares it against what the
//! graph builder actually produced — a mismatch means the builder grew
//! or lost tasks/edges relative to the paper's dataflow.
//!
//! Derivation (per replica; all edges are deduplicated per (pred, succ)
//! pair exactly as the `DepTracker` computes them):
//!
//! **Inference**
//! * tasks: `2LT` directional cells + `(L-1)T` merges + `n` final merges
//!   + `n` dense heads = `2LT + (L-1)T + 2n`
//! * edges: `2L(T-1)` intra-layer state chains + `2(L-1)T` cell reads of
//!   the merged layer below + `2(L-1)T` merge reads of both directional
//!   states + `2n` final-merge reads + `n` dense reads
//!   = `2L(T-1) + 4(L-1)T + 3n`
//!
//! **Training** adds per replica: `n` loss tasks, `n` final backward
//! merges, `2LT` backward cells and `(L-1)T` inner backward merges:
//! * tasks: `4LT + 2(L-1)T + 3n`
//! * edges: the forward part above with the dense head replaced by the
//!   loss chain (`n` reads of features plus `n-1` accumulator-chain
//!   edges), `3n` final-backward-merge reads, and for each backward cell
//!   direction `LT` state reads + `(L-1)T + n` upstream-gradient reads +
//!   `L(T-1)` backward chain edges; inner merges read four regions each.
//!   Total: `4L(T-1) + 10(L-1)T + 2LT + 9n - 1`
//!
//! The gradient accumulators (`grads_*`) are declared *inout*; their read
//! edges coincide with the backward chain's existing write-after-write
//! predecessors and dedup away, so they contribute no terms. For Fig. 2
//! (`L=3, T=3`, many-to-one) these give 26 tasks / 39 edges in inference
//! and 51 tasks / 110 edges in training, matching the repo's
//! exact-shape graph tests.
//!
//! **Micro-batching**: `R` independent replicas plus, for training,
//! `2L + 2` reduce tasks per extra replica (forward/reverse gradients
//! per layer, dense gradients, loss), each with exactly two edges (its
//! source replica's last accumulation and the reduction chain on the
//! destination).
//!
//! **Coarsening** (`k ≥ 2` timesteps per task, `bpar_core`'s `coarsen`
//! transform): every run of `T` per-timestep tasks becomes `c = ⌈T/k⌉`
//! tasks. Runs are chunked in stream order, so forward cells, merges,
//! output positions, reverse-direction BPTT cells and inner backward
//! merges are chunked by ascending `t` and reverse cells and
//! forward-direction BPTT cells by descending `t`. Between two runs with
//! the same alignment a per-timestep dependency leaves `c` edges; between
//! opposite alignments the two chunkings' boundaries interleave, leaving
//! `x = c` edges when `k` divides `T` and `2c - 1` otherwise. A
//! many-to-one model has one output position (2 edges into it, 2 out of
//! it whatever `k`); a many-to-many model's `T` positions are a run of
//! their own.
//!
//! * inference: the output run folds each `merge_final` with its `dense`
//!   head, `c_n = ⌈n/k⌉` tasks. Tasks `2Lc + (L-1)c + c_n`; edges:
//!   `2L(c-1)` state chains, `(L-1)(c+x)` cell reads of the merge below,
//!   `(L-1)(c+x)` merge reads and `o` output reads, `o = 2` (many-to-one)
//!   or `c + x`.
//! * training: the output run folds each position's `merge_final`,
//!   `loss` and backward seed, `c_n` tasks (labelled `loss`). Inside a
//!   task the features, the feature gradient and all but its first
//!   accumulator read are internal, and its seeds read the states its
//!   merges read. Tasks `4Lc + 2(L-1)c + c_n`; edges: the forward part,
//!   the head's `o` state reads, `c_n - 1` accumulator-chain edges, `o`
//!   seeds into the top layer's BPTT chunks (their chunking mirrors the
//!   cells': forward-direction BPTT descends, so it meets the head as the
//!   reverse cells do), and per the derivation above `2Lx` cached-state
//!   reads, `(L-1)(c+x)` inner `dh` reads, `2L(c-1)` BPTT chains and
//!   `2(L-1)(c+x)` inner-backward-merge reads:
//!   `4L(c-1) + 5(L-1)(c+x) + 2Lx + 2o + c_n - 1`.
//!
//! Reductions are untouched.

use crate::report::Finding;

/// The graph-shape parameters of one compiled BRNN execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeSpec {
    /// Stacked bidirectional layers (`L`).
    pub layers: usize,
    /// Sequence length (`T`).
    pub seq: usize,
    /// Output positions `n`: 1 for many-to-one, `T` for many-to-many.
    pub outputs: usize,
    /// Micro-batch replicas (`R >= 1`).
    pub replicas: usize,
    /// Whether the graph includes the backward pass and reductions.
    pub training: bool,
    /// `Some(C)` when each direction runs a `C`-chunk Blelloch scan
    /// instead of the timestep chain (the *effective* strategy — chain
    /// fallbacks pass `None`). See [`scan_combine_count`] for the tree
    /// arithmetic and the derivation below for the counts.
    pub scan_chunks: Option<usize>,
    /// Timesteps folded into each task (`k`; 1 is the paper's graph, and
    /// scan graphs are never folded).
    pub coarsen: usize,
}

/// Combine-node count of a `C`-chunk Blelloch exclusive-prefix tree that
/// never materialises the identity: up-sweep pairs (`⌊C/2⌋` nodes),
/// recurse on the `⌈C/2⌉` pair totals, down-sweep interleave (`⌊C/2⌋-1`
/// nodes — position 0's pair-prefix is the identity and aliases away).
///
/// This mirrors `bpar_core::scanplan::combine_count`; `bpar-verify`
/// cannot depend on `bpar-core`, so the recursion is duplicated here and
/// cross-checked by a test in `bpar-core` against the planned tree.
pub fn scan_combine_count(chunks: usize) -> usize {
    if chunks <= 2 {
        return 0;
    }
    chunks / 2 + (chunks / 2 - 1) + scan_combine_count(chunks.div_ceil(2))
}

/// Expected task and edge counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedShape {
    /// Total tasks.
    pub tasks: usize,
    /// Total deduplicated dependency edges.
    pub edges: usize,
}

/// Closed-form expected shape for a canonical (barrier-free, unfused,
/// unsplit) B-Par graph.
///
/// **Scan mode** (`scan_chunks = Some(C)`, `K = scan_combine_count(C)`):
/// each direction of each layer replaces its `T`-task chain with `C`
/// chunk-local sweeps, `K` combines and `C-1` fix-ups (forward), plus in
/// training `C` adjoint sweeps, `K` adjoint combines, `C-1` adjoint
/// fix-ups and `C` gradient tasks. Merges, output heads and reductions
/// are strategy-oblivious. Edges per direction per layer: the combine
/// tree reads two transfers each (`2K`), every fix-up reads its prefix
/// and (deduplicated) its chunk's sweep (`2(C-1)`), and in training every
/// gradient task reads its chunk's corrected adjoints and cached states
/// (2 deduplicated edges) plus the accumulator chain (`C-1` total); the
/// chain's `2L(T-1)` state edges disappear, everything else (merge reads,
/// `dh` seeds, loss chain, reductions) is unchanged from the chain
/// derivation above.
pub fn expected_shape(s: &ShapeSpec) -> ExpectedShape {
    let (l, t, n, r) = (s.layers, s.seq, s.outputs, s.replicas.max(1));
    let chain = l * t.saturating_sub(1); // one direction's state chain
    let inner = l.saturating_sub(1) * t; // merge positions per direction
    let k = s.coarsen.clamp(1, t.max(1));
    let (per_tasks, per_edges) = match (s.scan_chunks, s.training) {
        (Some(c), training) => {
            let k = scan_combine_count(c);
            if training {
                (
                    2 * l * (5 * c + 2 * k - 2) + 2 * inner + 3 * n,
                    2 * l * (4 * k + 7 * c - 5) + 10 * inner + 9 * n - 1,
                )
            } else {
                (
                    2 * l * (2 * c + k - 1) + inner + 2 * n,
                    2 * l * (2 * k + 2 * (c - 1)) + 4 * inner + 3 * n,
                )
            }
        }
        (None, training) if k > 1 => {
            // Chunks per run, and distinct chunk pairs between an
            // ascending and a descending run.
            let c = t.div_ceil(k);
            let x = if t % k == 0 { c } else { 2 * c - 1 };
            let inner = l.saturating_sub(1) * (c + x);
            let forward = 2 * l * (c - 1) + 2 * inner;
            // Output tasks, and the edges between them and one pass's
            // top-layer cells (each direction's chunks).
            let (heads, o) = (n.div_ceil(k), if n == 1 { 2 } else { c + x });
            if training {
                (
                    4 * l * c + 2 * l.saturating_sub(1) * c + heads,
                    forward + 2 * l * (c - 1) + 3 * inner + 2 * l * x + 2 * o + heads - 1,
                )
            } else {
                (3 * l * c - c + heads, forward + o)
            }
        }
        (None, true) => (
            4 * l * t + 2 * inner + 3 * n,
            4 * chain + 10 * inner + 2 * l * t + 9 * n - 1,
        ),
        (None, false) => (2 * l * t + inner + 2 * n, 2 * chain + 4 * inner + 3 * n),
    };
    let (red_tasks, red_edges) = if s.training {
        let per_extra = 2 * l + 2;
        ((r - 1) * per_extra, 2 * (r - 1) * per_extra)
    } else {
        (0, 0)
    };
    ExpectedShape {
        tasks: r * per_tasks + red_tasks,
        edges: r * per_edges + red_edges,
    }
}

/// Compares an actual graph size against the closed form; returns
/// `shape-mismatch` findings (empty when the shape is exact).
pub fn check_shape(actual_tasks: usize, actual_edges: usize, spec: &ShapeSpec) -> Vec<Finding> {
    let expect = expected_shape(spec);
    let mut findings = Vec::new();
    if actual_tasks != expect.tasks {
        findings.push(Finding::graph_error(
            "shape-mismatch",
            format!(
                "graph has {actual_tasks} tasks but the closed form for \
                 L={} T={} n={} R={} {} predicts {}",
                spec.layers,
                spec.seq,
                spec.outputs,
                spec.replicas,
                if spec.training {
                    "training"
                } else {
                    "inference"
                },
                expect.tasks
            ),
        ));
    }
    if actual_edges != expect.edges {
        findings.push(Finding::graph_error(
            "shape-mismatch",
            format!(
                "graph has {actual_edges} edges but the closed form for \
                 L={} T={} n={} R={} {} predicts {}",
                spec.layers,
                spec.seq,
                spec.outputs,
                spec.replicas,
                if spec.training {
                    "training"
                } else {
                    "inference"
                },
                expect.edges
            ),
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 2 of the paper: L=3, T=3, many-to-one.
    #[test]
    fn fig2_inference_is_26_tasks_39_edges() {
        let s = ShapeSpec {
            layers: 3,
            seq: 3,
            outputs: 1,
            replicas: 1,
            training: false,
            scan_chunks: None,
            coarsen: 1,
        };
        assert_eq!(
            expected_shape(&s),
            ExpectedShape {
                tasks: 26,
                edges: 39
            }
        );
    }

    #[test]
    fn fig2_training_is_51_tasks_110_edges() {
        let s = ShapeSpec {
            layers: 3,
            seq: 3,
            outputs: 1,
            replicas: 1,
            training: true,
            scan_chunks: None,
            coarsen: 1,
        };
        assert_eq!(
            expected_shape(&s),
            ExpectedShape {
                tasks: 51,
                edges: 110
            }
        );
    }

    #[test]
    fn replicas_scale_linearly_plus_reductions() {
        let one = expected_shape(&ShapeSpec {
            layers: 2,
            seq: 4,
            outputs: 1,
            replicas: 1,
            training: true,
            scan_chunks: None,
            coarsen: 1,
        });
        let three = expected_shape(&ShapeSpec {
            layers: 2,
            seq: 4,
            outputs: 1,
            replicas: 3,
            training: true,
            scan_chunks: None,
            coarsen: 1,
        });
        // 2 extra replicas, each adding the per-replica graph plus
        // 2L+2 = 6 reduce tasks with 2 edges each.
        assert_eq!(three.tasks, 3 * one.tasks + 2 * 6);
        assert_eq!(three.edges, 3 * one.edges + 2 * 12);
    }

    #[test]
    fn inference_has_no_reductions() {
        let s = ShapeSpec {
            layers: 2,
            seq: 3,
            outputs: 3,
            replicas: 4,
            training: false,
            scan_chunks: None,
            coarsen: 1,
        };
        let one = expected_shape(&ShapeSpec { replicas: 1, ..s });
        let four = expected_shape(&s);
        assert_eq!(four.tasks, 4 * one.tasks);
        assert_eq!(four.edges, 4 * one.edges);
    }

    #[test]
    fn exact_shape_yields_no_findings() {
        let s = ShapeSpec {
            layers: 3,
            seq: 3,
            outputs: 1,
            replicas: 1,
            training: false,
            scan_chunks: None,
            coarsen: 1,
        };
        assert!(check_shape(26, 39, &s).is_empty());
    }

    #[test]
    fn deviations_are_reported_per_dimension() {
        let s = ShapeSpec {
            layers: 3,
            seq: 3,
            outputs: 1,
            replicas: 1,
            training: false,
            scan_chunks: None,
            coarsen: 1,
        };
        let f = check_shape(27, 39, &s);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].check, "shape-mismatch");
        assert!(f[0].detail.contains("27 tasks"), "{}", f[0].detail);
        assert_eq!(check_shape(26, 38, &s).len(), 1);
        assert_eq!(check_shape(0, 0, &s).len(), 2);
    }

    #[test]
    fn degenerate_sizes_do_not_underflow() {
        // L=1, T=1: no chains, no inner merges.
        let s = ShapeSpec {
            layers: 1,
            seq: 1,
            outputs: 1,
            replicas: 1,
            training: false,
            scan_chunks: None,
            coarsen: 1,
        };
        // cells fwd+rev, final merge, dense = 4 tasks; 2 merge reads + 1
        // dense read = 3 edges.
        assert_eq!(expected_shape(&s), ExpectedShape { tasks: 4, edges: 3 });
    }

    #[test]
    fn scan_combine_counts_match_hand_checked_trees() {
        // Same table as bpar-core's scanplan tests — the two recursions
        // must stay in lock-step.
        for (c, k) in [(1, 0), (2, 0), (3, 1), (4, 3), (5, 4), (8, 10), (16, 25)] {
            assert_eq!(scan_combine_count(c), k, "C={c}");
        }
    }

    #[test]
    fn scan_training_shape_hand_checked_minimal_case() {
        // L=1, T=2, C=2 (K=0), many-to-one: per direction 2 sweeps + 1
        // fix + 2 adjoint sweeps + 1 adjoint fix + 2 gradient tasks = 8;
        // both directions 16, plus final merge + loss + final backward
        // merge = 19 tasks. Edges: per direction fix 2 + adjoint fix 2 +
        // gradients (2 each for sg/st, dedup) 4 + accumulator chain 1 =
        // 9; ×2 = 18, plus 2 final-merge + 1 loss + 3 backward-merge + 2
        // dh seeds = 26.
        let s = ShapeSpec {
            layers: 1,
            seq: 2,
            outputs: 1,
            replicas: 1,
            training: true,
            scan_chunks: Some(2),
            coarsen: 1,
        };
        assert_eq!(
            expected_shape(&s),
            ExpectedShape {
                tasks: 19,
                edges: 26
            }
        );
    }

    #[test]
    fn scan_task_count_is_seq_independent() {
        // The whole point of the scan: task count depends on C, not T.
        let shape = |seq| {
            expected_shape(&ShapeSpec {
                layers: 1,
                seq,
                outputs: 1,
                replicas: 1,
                training: true,
                scan_chunks: Some(8),
                coarsen: 1,
            })
        };
        assert_eq!(shape(64), shape(16384));
    }

    #[test]
    fn scan_replicas_scale_like_chain_replicas() {
        let one = expected_shape(&ShapeSpec {
            layers: 2,
            seq: 16,
            outputs: 1,
            replicas: 1,
            training: true,
            scan_chunks: Some(4),
            coarsen: 1,
        });
        let three = expected_shape(&ShapeSpec {
            layers: 2,
            seq: 16,
            outputs: 1,
            replicas: 3,
            training: true,
            scan_chunks: Some(4),
            coarsen: 1,
        });
        assert_eq!(three.tasks, 3 * one.tasks + 2 * 6);
        assert_eq!(three.edges, 3 * one.edges + 2 * 12);
    }
}
