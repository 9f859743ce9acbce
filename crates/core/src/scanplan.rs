//! Pure parallel-scan topology, interpreted by the graph emitter.
//!
//! A direction of a [`crate::cell::CellKind::Linear`] layer is a linear
//! recurrence `h_t = λ ⊙ h_{t-1} + u_t`. Splitting the `T` timesteps into
//! `C` contiguous chunks turns the sequence into `C` *transfer functions*
//! `(a, b) : h ↦ a ⊙ h + b` (chunk-local runs from a zero incoming
//! state), whose composition is associative — so the incoming state of
//! every chunk is the `b` component of an **exclusive prefix** of the
//! chunk transfers, computable by a Blelloch up-sweep/down-sweep tree in
//! `O(log C)` depth (Martin & Cundy; BPPSA runs the same tree over the
//! adjoint recurrence in reversed chunk order).
//!
//! This module computes only the *shape* of that tree: which transfers
//! combine, in which order, and which combine output (or raw chunk total)
//! is each chunk's exclusive prefix. `emit.rs` turns the shape into one
//! node per chunk-local sweep, per combine node and per fix-up, with
//! symbolic dependency clauses; `exec/builder.rs` attaches the bodies and
//! `graphgen.rs` the simulator's regions to those same nodes, so
//! bpar-sim's crossover prediction and bpar-verify's closed-form counts
//! describe exactly the graph the executors run.
//!
//! The construction never materialises the identity transfer: the first
//! chunk's prefix is `Identity` (no fix-up task at all), and
//! `compose(Identity, x)` aliases `x` instead of spawning a node. A
//! two-element (sub)problem therefore needs no combine nodes —
//! `prefixes = [Identity, totals[0]]` — which prunes the conventional
//! up-sweep root reduce (the total of *all* chunks is never a prefix).

use crate::cell::CellKind;

/// How a direction's timestep recurrence is executed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecurrenceStrategy {
    /// One task per timestep, chained on the recurrent state — the
    /// paper's Algorithms 2/3. Works for every cell; bit-identical to
    /// the sequential reference.
    #[default]
    Chain,
    /// Blelloch parallel scan over `chunks` sequence chunks. Requires a
    /// [`CellKind::scannable`] cell; reassociates the recurrence, so
    /// results carry a documented tolerance instead of bit-identity
    /// (chunk 0 excepted).
    Scan {
        /// Number of sequence chunks (clamped to `[1, seq_len]`;
        /// effectively `Chain` when it clamps to 1).
        chunks: usize,
    },
}

/// Default chunk count for `--recurrence scan` without an explicit `:N`.
pub const DEFAULT_SCAN_CHUNKS: usize = 16;

impl RecurrenceStrategy {
    /// Parses a CLI spelling: `chain`, `scan` (16 chunks), or `scan:N`.
    pub fn parse(s: &str) -> Option<RecurrenceStrategy> {
        match s {
            "chain" => Some(RecurrenceStrategy::Chain),
            "scan" => Some(RecurrenceStrategy::Scan {
                chunks: DEFAULT_SCAN_CHUNKS,
            }),
            _ => {
                let n = s.strip_prefix("scan:")?.parse().ok()?;
                (n >= 1).then_some(RecurrenceStrategy::Scan { chunks: n })
            }
        }
    }

    /// The strategy actually used for a `(cell, seq_len)` pair: scan
    /// falls back to `Chain` for non-scannable cells, and the chunk count
    /// is clamped to the sequence length (1 chunk degenerates to a chain
    /// too). Plan-cache keys store *this* value so equivalent requests
    /// share one plan.
    pub fn effective(self, cell: CellKind, seq: usize) -> RecurrenceStrategy {
        match self {
            RecurrenceStrategy::Chain => RecurrenceStrategy::Chain,
            RecurrenceStrategy::Scan { chunks } => {
                let chunks = chunks.min(seq);
                if cell.scannable() && chunks >= 2 {
                    RecurrenceStrategy::Scan { chunks }
                } else {
                    RecurrenceStrategy::Chain
                }
            }
        }
    }

    /// The scan chunk count, if this is a scan.
    pub fn scan_chunks(self) -> Option<usize> {
        match self {
            RecurrenceStrategy::Chain => None,
            RecurrenceStrategy::Scan { chunks } => Some(chunks),
        }
    }
}

impl std::fmt::Display for RecurrenceStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecurrenceStrategy::Chain => f.write_str("chain"),
            RecurrenceStrategy::Scan { chunks } => write!(f, "scan:{chunks}"),
        }
    }
}

/// A transfer value in the scan tree: nothing, a chunk-local total, or
/// the output of a combine node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// The identity transfer `(1, 0)` — never materialised.
    Identity,
    /// The total transfer of chunk `i` (written by its chunk-local sweep).
    Total(usize),
    /// The output of combine node `i` (index into [`ScanPlan::combines`]).
    Node(usize),
}

/// One combine node: apply `lhs` first, then `rhs`
/// (`scan_combine(lhs, rhs)`); neither operand is ever `Identity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Combine {
    /// Earlier transfer (applied first).
    pub lhs: NodeRef,
    /// Later transfer (applied second).
    pub rhs: NodeRef,
}

/// The shape of a Blelloch scan over `C` chunk transfers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPlan {
    /// Chunk boundaries over logical positions `0..seq`: `chunk_of[c] =
    /// (start, end)` half-open. Logical position `j` maps to physical
    /// timestep `j` in the forward direction and `seq-1-j` in reverse.
    pub chunks: Vec<(usize, usize)>,
    /// Combine nodes in emission (dependency-safe) order.
    pub combines: Vec<Combine>,
    /// Exclusive prefix transfer of each chunk: `prefix_of_chunk[0]` is
    /// always `Identity`; the rest reference a total or combine output.
    pub prefix_of_chunk: Vec<NodeRef>,
}

impl ScanPlan {
    /// Plans a scan of `seq` timesteps in `chunk_count` near-equal chunks
    /// (the same split rule as mini-batch row chunking: remainder spread
    /// one-per-chunk from the front).
    ///
    /// # Panics
    /// Panics unless `2 <= chunk_count <= seq`.
    pub fn new(seq: usize, chunk_count: usize) -> ScanPlan {
        assert!(
            (2..=seq).contains(&chunk_count),
            "scan needs 2..=seq chunks (got {chunk_count} for seq {seq})"
        );
        let base = seq / chunk_count;
        let extra = seq % chunk_count;
        let mut chunks = Vec::with_capacity(chunk_count);
        let mut start = 0;
        for c in 0..chunk_count {
            let len = base + usize::from(c < extra);
            chunks.push((start, start + len));
            start += len;
        }
        let mut combines = Vec::new();
        let totals: Vec<NodeRef> = (0..chunk_count).map(NodeRef::Total).collect();
        let prefix_of_chunk = prefixes(&totals, &mut combines);
        ScanPlan {
            chunks,
            combines,
            prefix_of_chunk,
        }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Number of fix-up tasks: every chunk except the first (whose prefix
    /// is the un-materialised identity).
    pub fn fix_count(&self) -> usize {
        self.chunk_count() - 1
    }
}

/// Exclusive prefixes of `totals` under an associative combine, emitting
/// the needed combine nodes into `combines`. Recursive Blelloch: pair up
/// (up-sweep), recurse on the pair totals, then interleave (down-sweep),
/// aliasing instead of combining whenever one operand is the identity.
fn prefixes(totals: &[NodeRef], combines: &mut Vec<Combine>) -> Vec<NodeRef> {
    let n = totals.len();
    if n == 1 {
        return vec![NodeRef::Identity];
    }
    if n == 2 {
        return vec![NodeRef::Identity, totals[0]];
    }
    let mut pairs = Vec::with_capacity(n.div_ceil(2));
    for i in 0..n / 2 {
        combines.push(Combine {
            lhs: totals[2 * i],
            rhs: totals[2 * i + 1],
        });
        pairs.push(NodeRef::Node(combines.len() - 1));
    }
    if n % 2 == 1 {
        pairs.push(totals[n - 1]);
    }
    let pp = prefixes(&pairs, combines);
    let mut out = Vec::with_capacity(n);
    for i in 0..n / 2 {
        out.push(pp[i]);
        out.push(match pp[i] {
            NodeRef::Identity => totals[2 * i],
            p => {
                combines.push(Combine {
                    lhs: p,
                    rhs: totals[2 * i],
                });
                NodeRef::Node(combines.len() - 1)
            }
        });
    }
    if n % 2 == 1 {
        out.push(pp[n / 2]);
    }
    out
}

/// Number of combine nodes a `chunks`-wide scan plan contains — the same
/// recursion as [`ScanPlan::new`], kept in closed arithmetic form so
/// `bpar-verify` (which cannot depend on this crate) can mirror it.
pub fn combine_count(chunks: usize) -> usize {
    if chunks <= 2 {
        return 0;
    }
    let up = chunks / 2;
    // Down-sweep: one combine per even position whose pair-prefix is not
    // the identity — i.e. all of them except position 0.
    let down = chunks / 2 - 1;
    up + down + combine_count(chunks.div_ceil(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: apply the planned tree over `(scale, offset)` scalar
    /// transfers and compare against sequentially composed prefixes.
    fn check_prefixes(c: usize) {
        let plan = ScanPlan::new(c * 3, c);
        assert_eq!(plan.chunk_count(), c);
        // Scalar transfer per chunk: (a, b) with distinct primes.
        let totals: Vec<(f64, f64)> = (0..c)
            .map(|i| (1.0 + 0.1 * i as f64, 2.0 + i as f64))
            .collect();
        let compose = |x: (f64, f64), y: (f64, f64)| (x.0 * y.0, y.0 * x.1 + y.1);
        // Evaluate combine nodes in order.
        let mut nodes: Vec<(f64, f64)> = Vec::new();
        let resolve = |r: NodeRef, nodes: &[(f64, f64)]| match r {
            NodeRef::Identity => (1.0, 0.0),
            NodeRef::Total(i) => totals[i],
            NodeRef::Node(i) => nodes[i],
        };
        for comb in &plan.combines {
            // Emission order must be dependency-safe: operands resolved
            // before the node exists.
            let l = resolve(comb.lhs, &nodes);
            let r = resolve(comb.rhs, &nodes);
            assert!(comb.lhs != NodeRef::Identity && comb.rhs != NodeRef::Identity);
            nodes.push(compose(l, r));
        }
        // Exclusive prefixes must match the sequential composition
        // (relative tolerance: the tree legitimately reassociates the
        // products, which is the one FP liberty the scan takes).
        let mut want = (1.0, 0.0);
        for (i, &total) in totals.iter().enumerate().take(c) {
            let got = resolve(plan.prefix_of_chunk[i], &nodes);
            let ok = |g: f64, w: f64| (g - w).abs() <= 1e-9 * w.abs().max(1.0);
            assert!(
                ok(got.0, want.0) && ok(got.1, want.1),
                "prefix {i} of {c}: got {got:?}, want {want:?}"
            );
            want = compose(want, total);
        }
        assert_eq!(plan.combines.len(), combine_count(c), "count for C={c}");
        assert_eq!(plan.prefix_of_chunk[0], NodeRef::Identity);
    }

    #[test]
    fn planned_prefixes_match_sequential_composition() {
        for c in 2..=33 {
            check_prefixes(c);
        }
    }

    #[test]
    fn chunk_ranges_tile_the_sequence() {
        for (seq, c) in [(8, 2), (10, 3), (16, 16), (100, 7)] {
            let plan = ScanPlan::new(seq, c);
            let mut pos = 0;
            for &(s, e) in &plan.chunks {
                assert_eq!(s, pos);
                assert!(e > s);
                pos = e;
            }
            assert_eq!(pos, seq);
            // Near-equal: lengths differ by at most 1.
            let lens: Vec<usize> = plan.chunks.iter().map(|&(s, e)| e - s).collect();
            let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn combine_count_small_cases() {
        // Hand-checked shapes (see module docs): C=2 needs no combines,
        // C=3 one up-sweep pair, C=4 two up + one down, …
        assert_eq!(combine_count(1), 0);
        assert_eq!(combine_count(2), 0);
        assert_eq!(combine_count(3), 1);
        assert_eq!(combine_count(4), 3);
        assert_eq!(combine_count(5), 4);
        assert_eq!(combine_count(8), 10);
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        // Depth of the combine DAG (longest chain of Node references)
        // must be O(log C), the whole point of the scan.
        for c in [16usize, 64, 256, 1024] {
            let plan = ScanPlan::new(c, c);
            let mut depth = vec![0usize; plan.combines.len()];
            let d = |r: NodeRef, depth: &[usize]| match r {
                NodeRef::Node(i) => depth[i],
                _ => 0,
            };
            for (i, comb) in plan.combines.iter().enumerate() {
                depth[i] = 1 + d(comb.lhs, &depth).max(d(comb.rhs, &depth));
            }
            let max = depth.iter().copied().max().unwrap_or(0);
            let log2 = usize::BITS as usize - c.leading_zeros() as usize;
            assert!(max <= 2 * log2, "depth {max} for C={c}");
        }
    }

    #[test]
    fn strategy_parse_and_effective() {
        assert_eq!(
            RecurrenceStrategy::parse("chain"),
            Some(RecurrenceStrategy::Chain)
        );
        assert_eq!(
            RecurrenceStrategy::parse("scan"),
            Some(RecurrenceStrategy::Scan { chunks: 16 })
        );
        assert_eq!(
            RecurrenceStrategy::parse("scan:4"),
            Some(RecurrenceStrategy::Scan { chunks: 4 })
        );
        assert_eq!(RecurrenceStrategy::parse("scan:0"), None);
        assert_eq!(RecurrenceStrategy::parse("tree"), None);

        let scan = RecurrenceStrategy::Scan { chunks: 16 };
        // Non-scannable cells fall back to chain.
        assert_eq!(
            scan.effective(CellKind::Lstm, 64),
            RecurrenceStrategy::Chain
        );
        // Chunks clamp to seq.
        assert_eq!(
            scan.effective(CellKind::Linear, 8),
            RecurrenceStrategy::Scan { chunks: 8 }
        );
        assert_eq!(
            scan.effective(CellKind::Linear, 1),
            RecurrenceStrategy::Chain
        );
        assert_eq!(
            scan.effective(CellKind::Linear, 64),
            RecurrenceStrategy::Scan { chunks: 16 }
        );
        assert_eq!(format!("{}", scan), "scan:16");
        assert_eq!(format!("{}", RecurrenceStrategy::Chain), "chain");
    }
}
