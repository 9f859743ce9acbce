//! Property tests for buffer and workspace reuse: every layer kernel —
//! cell forward and backward of every cell kind, merge both ways in every
//! mode, the classifier both ways and its loss — writes the same bits into
//! output buffers still holding an earlier call's values, drawing scratch
//! from a [`Workspace`] other shapes have used, as a cold call writes into
//! fresh buffers with a fresh workspace. That is how the compiled task
//! graph calls them: each task keeps its output slots and a private
//! workspace across replays of *different* cached plans. End to end, the
//! task-graph executor, cold and warm, matches `SequentialExec` bitwise.
//!
//! The cold call (fresh allocations per call) is the `legacy` reference
//! the test names refer to.
//!
//! "Close enough" is not the bar: the executor equivalence guarantees of
//! this repo are stated as exact bit equality with `SequentialExec`, so
//! the building blocks are held to the same standard via `to_bits`.

use bpar_core::cell::{CellCache, CellKind, CellParams, CellState, StateGrad};
use bpar_core::dense::DenseParams;
use bpar_core::exec::{Executor, SequentialExec, Target, TaskGraphExec};
use bpar_core::loss::softmax_cross_entropy;
use bpar_core::merge::MergeMode;
use bpar_core::model::{Brnn, BrnnConfig, ModelKind};
use bpar_core::optim::Sgd;
use bpar_tensor::{init, Backend, Float, Matrix, Workspace};
use proptest::prelude::*;

fn assert_bits<T: Float>(a: &Matrix<T>, b: &Matrix<T>, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(
            x.to_f64().to_bits(),
            y.to_f64().to_bits(),
            "{what}: bit mismatch"
        );
    }
}

/// Batch rows and two widths of one reuse case (input and hidden for a
/// cell, input and output for the classifier).
type Dims = (usize, usize, usize);

fn dims() -> impl Strategy<Value = Dims> {
    (1usize..5, 1usize..7, 1usize..7)
}

/// Runs `pass` at shape `d` cold — into buffers from `fresh`, with a fresh
/// workspace — and warm: with a workspace the two `others` shapes used
/// first, interleaved, into buffers a call on other operands already
/// filled. Returns `(cold, warm)`.
fn cold_and_warm<B>(
    d: Dims,
    others: (Dims, Dims),
    seed: u64,
    fresh: impl Fn(Dims) -> B,
    pass: impl Fn(Dims, u64, &mut B, &mut Workspace<f32>),
) -> (B, B) {
    let mut cold = fresh(d);
    pass(d, seed, &mut cold, &mut Workspace::new());

    let mut ws = Workspace::new();
    let (d2, d3) = others;
    for (other, s) in [(d2, seed + 11), (d3, seed + 12), (d2, seed + 13)] {
        pass(other, s, &mut fresh(other), &mut ws);
    }
    let mut warm = fresh(d);
    pass(d, seed + 1, &mut warm, &mut ws);
    pass(d, seed, &mut warm, &mut ws);
    (cold, warm)
}

/// Every buffer a cell's forward and backward write.
struct CellBufs {
    st: CellState<f32>,
    cache: CellCache<f32>,
    dx: Matrix<f32>,
    dprev: StateGrad<f32>,
    grads: CellParams<f32>,
}

impl CellBufs {
    fn fresh(kind: CellKind, (b, i, h): Dims) -> Self {
        Self {
            st: CellState::zeros(kind, b, h),
            cache: CellCache::zeros(kind, b, i, h),
            dx: Matrix::zeros(b, i),
            dprev: StateGrad::zeros(kind, b, h),
            grads: CellParams::init(kind, i, h, 0).zeros_like(),
        }
    }

    fn assert_bits_eq(&self, other: &Self) {
        assert_bits(&self.st.h, &other.st.h, "state h");
        assert_bits(&self.dx, &other.dx, "dx");
        assert_bits(&self.dprev.dh, &other.dprev.dh, "dprev.dh");
        match (&self.st.c, &other.st.c) {
            (Some(a), Some(b)) => assert_bits(a, b, "state c"),
            (None, None) => {}
            _ => panic!("cell-state c presence differs"),
        }
        match (&self.dprev.dc, &other.dprev.dc) {
            (Some(a), Some(b)) => assert_bits(a, b, "dprev.dc"),
            (None, None) => {}
            _ => panic!("dprev.dc presence differs"),
        }
        let grads = &mut self.grads.clone();
        grads.for_each_param(&other.grads, &mut |a, b| assert_bits(a, b, "cell grads"));
    }
}

/// One cell update and its backward on operands drawn from `seed`,
/// writing into `out` (weight-gradient accumulators zeroed first). Odd
/// seeds pass no recurrent state gradient, as for a direction's last cell.
fn cell_pass(
    kind: CellKind,
    (b, i, h): Dims,
    seed: u64,
    out: &mut CellBufs,
    ws: &mut Workspace<f32>,
) {
    let be = Backend::default();
    let p = CellParams::<f32>::init(kind, i, h, seed);
    let x = init::uniform(b, i, -1.0, 1.0, seed + 1);
    let mut prev = CellState::zeros(kind, b, h);
    prev.h = init::uniform(b, h, -0.5, 0.5, seed + 2);
    let mut dstate = StateGrad::zeros(kind, b, h);
    dstate.dh = init::uniform(b, h, -1.0, 1.0, seed + 3);
    if let (Some(c), Some(dc)) = (&mut prev.c, &mut dstate.dc) {
        *c = init::uniform(b, h, -0.5, 0.5, seed + 4);
        *dc = init::uniform(b, h, -1.0, 1.0, seed + 5);
    }
    let dstate = seed.is_multiple_of(2).then_some(&dstate);
    let dh = init::uniform(b, h, -1.0, 1.0, seed + 6);
    out.grads.fill_zero();
    p.forward(&x, &prev, &mut out.st, &mut out.cache, ws, be);
    let CellBufs {
        cache,
        grads,
        dx,
        dprev,
        ..
    } = out;
    p.backward(cache, &dh, dstate, grads, dx, dprev, ws, be);
}

fn every_cell_kind() -> impl Strategy<Value = CellKind> {
    prop_oneof![
        Just(CellKind::Lstm),
        Just(CellKind::Gru),
        Just(CellKind::Vanilla),
        Just(CellKind::Linear)
    ]
}

fn merge_modes() -> impl Strategy<Value = MergeMode> {
    prop_oneof![
        Just(MergeMode::Sum),
        Just(MergeMode::Avg),
        Just(MergeMode::Mul),
        Just(MergeMode::Concat)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cell forward and backward of every kind write the cold call's bits
    /// into dirty buffers, with a workspace two interleaved other shapes
    /// used first.
    #[test]
    fn cell_ws_matches_legacy_across_interleaved_shapes(
        kind in every_cell_kind(),
        (d, d2, d3) in (dims(), dims(), dims()),
        seed in 0u64..1000,
    ) {
        let fresh = |d| CellBufs::fresh(kind, d);
        let pass = |d, s, out: &mut CellBufs, ws: &mut _| cell_pass(kind, d, s, out, ws);
        let (cold, warm) = cold_and_warm(d, (d2, d3), seed, fresh, pass);
        warm.assert_bits_eq(&cold);
    }

    /// Merge `apply` and `backward` write the cold call's bits over dirty
    /// output buffers, in every mode.
    #[test]
    fn merge_into_matches_legacy(
        mode in merge_modes(),
        (d, d2, d3) in (dims(), dims(), dims()),
        seed in 0u64..1000,
    ) {
        let fresh = |(b, _, h): Dims| {
            [Matrix::zeros(b, mode.output_width(h)), Matrix::zeros(b, h), Matrix::zeros(b, h)]
        };
        let pass = |(b, _, h): Dims, s, out: &mut [Matrix<f32>; 3], _: &mut _| {
            let fwd = init::uniform(b, h, -1.0, 1.0, s);
            let rev = init::uniform(b, h, -1.0, 1.0, s + 1);
            let dmerged = init::uniform(b, mode.output_width(h), -1.0, 1.0, s + 2);
            let [merged, dfwd, drev] = out;
            mode.apply(&fwd, &rev, merged);
            mode.backward(&dmerged, &fwd, &rev, dfwd, drev);
        };
        let (cold, warm) = cold_and_warm(d, (d2, d3), seed, fresh, pass);
        for ((a, b), what) in warm.iter().zip(&cold).zip(["merged", "dfwd", "drev"]) {
            assert_bits(a, b, what);
        }
    }

    /// Dense `forward` and `backward` write the cold call's bits into
    /// dirty buffers, with the workspace reused across other widths.
    #[test]
    fn dense_into_matches_legacy(
        (d, d2, d3) in (dims(), dims(), dims()),
        seed in 0u64..1000,
    ) {
        let fresh = |(b, i, o): Dims| {
            (Matrix::zeros(b, o), DenseParams::<f32>::init(i, o, 0).zeros_like(), Matrix::zeros(b, i))
        };
        let pass = |(b, i, o): Dims, s, out: &mut (Matrix<f32>, DenseParams<f32>, Matrix<f32>), _: &mut _| {
            let be = Backend::default();
            let p = DenseParams::<f32>::init(i, o, s);
            let x = init::uniform(b, i, -1.0, 1.0, s + 1);
            let dlogits = init::uniform(b, o, -1.0, 1.0, s + 2);
            let (logits, grads, dx) = out;
            grads.w.fill_zero();
            grads.b.fill_zero();
            p.forward(&x, logits, be);
            p.backward(&x, &dlogits, grads, dx, be);
        };
        let (cold, warm) = cold_and_warm(d, (d2, d3), seed, fresh, pass);
        assert_bits(&warm.0, &cold.0, "logits");
        assert_bits(&warm.1.w, &cold.1.w, "dense dW");
        assert_bits(&warm.1.b, &cold.1.b, "dense dB");
        assert_bits(&warm.2, &cold.2, "dense dx");
    }

    /// `softmax_cross_entropy` returns the cold call's loss and writes its
    /// gradient bits over a dirty buffer.
    #[test]
    fn loss_into_matches_legacy(
        (d, d2, d3) in (dims(), dims(), dims()),
        seed in 0u64..1000,
    ) {
        let fresh = |(b, _, classes): Dims| (Matrix::zeros(b, classes), 0.0);
        let pass = |(b, _, classes): Dims, s, out: &mut (Matrix<f32>, f64), _: &mut _| {
            let logits = init::uniform(b, classes, -2.0, 2.0, s);
            let targets: Vec<usize> = (0..b).map(|r| (s as usize + r) % classes).collect();
            out.1 = softmax_cross_entropy(&logits, &targets, &mut out.0);
        };
        let (cold, warm) = cold_and_warm(d, (d2, d3), seed, fresh, pass);
        prop_assert_eq!(warm.1.to_bits(), cold.1.to_bits(), "loss scalar");
        assert_bits(&warm.0, &cold.0, "dlogits");
    }
}

proptest! {
    // Whole-model cases build task graphs and thread pools; keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// End to end: the workspace-arena executor (warm *and* cold plans)
    /// produces bit-identical inference logits and training losses to the
    /// sequential reference, across cell kinds, merge modes, model kinds
    /// and shapes.
    #[test]
    fn taskgraph_matches_sequential_bitwise(
        kind in every_cell_kind(),
        merge in merge_modes(),
        many_to_many in any::<bool>(),
        rows in 1usize..4, seq in 1usize..5,
        seed in 0u64..1000,
    ) {
        let cfg = BrnnConfig {
            cell: kind,
            input_size: 3,
            hidden_size: 4,
            layers: 2,
            seq_len: seq,
            output_size: 3,
            merge,
            kind: if many_to_many { ModelKind::ManyToMany } else { ModelKind::ManyToOne },
        };
        let model = Brnn::<f64>::new(cfg, seed);
        let xs: Vec<Matrix<f64>> = (0..seq)
            .map(|t| init::uniform(rows, cfg.input_size, -1.0, 1.0, seed + t as u64))
            .collect();
        let exec = TaskGraphExec::new(2);

        // Inference: run twice so the second pass replays the cached plan
        // through its persistent arena.
        let reference = SequentialExec.forward(&model, &xs);
        for pass in 0..2 {
            let got = exec.forward(&model, &xs);
            assert_bits(&reference.logits, &got.logits, "logits");
            prop_assert_eq!(got.seq_logits.len(), reference.seq_logits.len(), "pass {}", pass);
            for (a, b) in reference.seq_logits.iter().zip(&got.seq_logits) {
                assert_bits(a, b, "seq logits");
            }
        }

        // Training: identical models stepped by both executors must agree
        // on the loss and every post-step parameter bit.
        let target = match cfg.kind {
            ModelKind::ManyToOne => {
                Target::Classes((0..rows).map(|r| (seed as usize + r) % cfg.output_size).collect())
            }
            ModelKind::ManyToMany => Target::SeqClasses(
                (0..seq)
                    .map(|t| (0..rows).map(|r| (seed as usize + t + r) % cfg.output_size).collect())
                    .collect(),
            ),
        };
        let mut m_seq = model.clone();
        let mut m_tg = model.clone();
        for _ in 0..2 {
            let l_seq =
                SequentialExec.train_batch(&mut m_seq, &xs, &target, &mut Sgd::new(0.05));
            let l_tg = exec.train_batch(&mut m_tg, &xs, &target, &mut Sgd::new(0.05));
            prop_assert_eq!(l_seq.to_bits(), l_tg.to_bits(), "loss");
        }
        assert_bits(&m_seq.dense.w, &m_tg.dense.w, "post-step dense w");
        assert_bits(&m_seq.dense.b, &m_tg.dense.b, "post-step dense b");
        for (a, b) in m_seq.layers.iter_mut().zip(&m_tg.layers) {
            a.fwd.for_each_param(&b.fwd, &mut |x, y| assert_bits(x, y, "fwd params"));
            a.rev.for_each_param(&b.rev, &mut |x, y| assert_bits(x, y, "rev params"));
        }
    }
}
