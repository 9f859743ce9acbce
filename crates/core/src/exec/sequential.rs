//! Reference sequential executor.
//!
//! Defines the exact semantics — cell-update order, gradient accumulation
//! order, merge placement — that every parallel executor must reproduce.
//! It runs the kernels a plan's task bodies run, on the default backend
//! with one [`Workspace`] threaded through the pass, but as straight-line
//! loops over freshly allocated trace buffers: an independent reference,
//! not a plan.

use super::{check_batch, Executor, ForwardOutput, Target};
use crate::cell::{CellCache, CellParams, CellState, StateGrad};
use crate::loss::softmax_cross_entropy;
use crate::model::{Brnn, BrnnGrads, ModelKind};
use crate::optim::Optimizer;
use bpar_tensor::{Backend, Float, Matrix, Workspace};

/// Everything the forward pass must remember for BPTT.
struct FwdTrace<T: Float> {
    /// Forward-direction caches, `[layer][t]`.
    fwd_caches: Vec<Vec<CellCache<T>>>,
    /// Reverse-direction caches, `[layer][t]` (indexed by input position).
    rev_caches: Vec<Vec<CellCache<T>>>,
    /// Forward-direction hidden outputs, `[layer][t]`.
    fwd_h: Vec<Vec<Matrix<T>>>,
    /// Reverse-direction hidden outputs, `[layer][t]`.
    rev_h: Vec<Vec<Matrix<T>>>,
    /// Classifier input features: one matrix (many-to-one) or per-t.
    features: Vec<Matrix<T>>,
    /// Classifier outputs matching `features`.
    logits: Vec<Matrix<T>>,
}

/// The `(fwd t, rev t)` cell pairs whose merges feed the classifier: the
/// *final* cells of both directions for many-to-one (fwd at T-1, rev at 0:
/// both have seen the full sequence), every position for many-to-many.
fn feature_cells(kind: ModelKind, seq_len: usize) -> Vec<(usize, usize)> {
    match kind {
        ModelKind::ManyToOne => vec![(seq_len - 1, 0)],
        ModelKind::ManyToMany => (0..seq_len).map(|t| (t, t)).collect(),
    }
}

/// One direction's recurrence over `xs`, in traversal order from a zero
/// state: every step's hidden output and BPTT cache, in that order.
fn run_direction<'a, T: Float>(
    params: &CellParams<T>,
    xs: impl Iterator<Item = &'a Matrix<T>>,
    (rows, hidden): (usize, usize),
    ws: &mut Workspace<T>,
) -> (Vec<Matrix<T>>, Vec<CellCache<T>>) {
    let kind = params.kind();
    let zero = CellState::zeros(kind, rows, hidden);
    let (mut states, mut caches): (Vec<CellState<T>>, Vec<_>) = (Vec::new(), Vec::new());
    for x in xs {
        let mut state = CellState::zeros(kind, rows, hidden);
        let mut cache = CellCache::zeros(kind, rows, x.cols(), hidden);
        let prev = states.last().unwrap_or(&zero);
        params.forward(x, prev, &mut state, &mut cache, ws, Backend::default());
        states.push(state);
        caches.push(cache);
    }
    (states.into_iter().map(|s| s.h).collect(), caches)
}

/// Runs the full forward pass, recording the trace.
fn forward_trace<T: Float>(
    model: &Brnn<T>,
    batch: &[Matrix<T>],
    ws: &mut Workspace<T>,
) -> FwdTrace<T> {
    let (seq_len, rows) = check_batch(model, batch);
    let cfg = &model.config;
    let hidden = cfg.hidden_size;
    let width = cfg.merge.output_width(hidden);

    let mut trace = FwdTrace {
        fwd_caches: Vec::with_capacity(cfg.layers),
        rev_caches: Vec::with_capacity(cfg.layers),
        fwd_h: Vec::with_capacity(cfg.layers),
        rev_h: Vec::with_capacity(cfg.layers),
        features: Vec::new(),
        logits: Vec::new(),
    };

    let mut inputs: Vec<Matrix<T>> = batch.to_vec();
    for l in 0..cfg.layers {
        let params = &model.layers[l];

        // Forward order: t = 0 .. T-1.
        let (fwd_h, fwd_caches) = run_direction(&params.fwd, inputs.iter(), (rows, hidden), ws);
        // Reverse order: t = T-1 .. 0, reversed once at the end so both
        // are indexed by input position.
        let (mut rev_h, mut rev_caches) =
            run_direction(&params.rev, inputs.iter().rev(), (rows, hidden), ws);
        rev_h.reverse();
        rev_caches.reverse();

        // Merge cells.
        let merge = |tf: usize, tr: usize| {
            let mut out = Matrix::zeros(rows, width);
            cfg.merge.apply(&fwd_h[tf], &rev_h[tr], &mut out);
            out
        };
        if l < cfg.layers - 1 {
            inputs = (0..seq_len).map(|t| merge(t, t)).collect();
        } else {
            for (tf, tr) in feature_cells(cfg.kind, seq_len) {
                let feat = merge(tf, tr);
                let mut logits = Matrix::zeros(rows, model.dense.w.cols());
                model.dense.forward(&feat, &mut logits, Backend::default());
                trace.logits.push(logits);
                trace.features.push(feat);
            }
        }
        trace.fwd_h.push(fwd_h);
        trace.rev_h.push(rev_h);
        trace.fwd_caches.push(fwd_caches);
        trace.rev_caches.push(rev_caches);
    }
    trace
}

/// Computes the loss and its gradient w.r.t. each classifier feature
/// matrix. Returns `(mean_loss, dfeatures)`.
fn loss_and_dfeatures<T: Float>(
    model: &Brnn<T>,
    trace: &FwdTrace<T>,
    target: &Target,
    grads: &mut BrnnGrads<T>,
) -> (f64, Vec<Matrix<T>>) {
    // Softmax cross-entropy of output `t` against `classes`, its gradient
    // scaled by `scale`, then the classifier backward: `(loss, dfeat)`.
    let mut backprop = |t: usize, classes: &[usize], scale: Option<T>| {
        let (logits, x) = (&trace.logits[t], &trace.features[t]);
        let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
        let loss = softmax_cross_entropy(logits, classes, &mut dlogits);
        if let Some(scale) = scale {
            bpar_tensor::ops::scale(scale, &mut dlogits);
        }
        let mut dfeat = Matrix::zeros(x.rows(), x.cols());
        let g = &mut grads.dense;
        model
            .dense
            .backward(x, &dlogits, g, &mut dfeat, Backend::default());
        (loss, dfeat)
    };
    match (model.config.kind, target) {
        (ModelKind::ManyToOne, Target::Classes(classes)) => {
            let (loss, dfeat) = backprop(0, classes, None);
            (loss, vec![dfeat])
        }
        (ModelKind::ManyToMany, Target::SeqClasses(seq)) => {
            assert_eq!(seq.len(), trace.logits.len(), "one target row per timestep");
            // Multiply by the reciprocal rather than dividing so the
            // floating-point result matches the task executor's
            // `loss * weight * inv_outputs` accumulation bit-for-bit.
            let inv = 1.0 / seq.len() as f64;
            let inv_t = T::from_f64(inv);
            let mut total = 0.0;
            let mut dfeats = Vec::with_capacity(seq.len());
            for (t, classes) in seq.iter().enumerate() {
                let (loss, dfeat) = backprop(t, classes, Some(inv_t));
                total += loss * inv;
                dfeats.push(dfeat);
            }
            (total, dfeats)
        }
        _ => panic!("target kind does not match model kind"),
    }
}

/// BPTT through one direction of a layer, visiting input positions in
/// `order` (the reverse of the direction's forward traversal): the weight
/// gradients accumulate into `g`, each step's input gradient into
/// `dinputs[t]`.
fn bptt_direction<T: Float>(
    params: &CellParams<T>,
    g: &mut CellParams<T>,
    caches: &[CellCache<T>],
    dh: &[Matrix<T>],
    order: impl Iterator<Item = usize>,
    dinputs: &mut [Matrix<T>],
    ws: &mut Workspace<T>,
) {
    let (kind, (rows, hidden)) = (params.kind(), dh[0].shape());
    let mut dx = Matrix::zeros(rows, dinputs[0].cols());
    let mut sg = StateGrad::zeros(kind, rows, hidden);
    let mut sg_prev = StateGrad::zeros(kind, rows, hidden);
    for (i, t) in order.enumerate() {
        let dstate = (i > 0).then_some(&sg);
        let be = Backend::default();
        params.backward(&caches[t], &dh[t], dstate, g, &mut dx, &mut sg_prev, ws, be);
        bpar_tensor::ops::axpy(T::ONE, &dx, &mut dinputs[t]);
        std::mem::swap(&mut sg, &mut sg_prev);
    }
}

/// Runs the full backward pass from per-feature gradients, accumulating
/// into `grads`.
fn backward_from_trace<T: Float>(
    model: &Brnn<T>,
    trace: &FwdTrace<T>,
    dfeatures: &[Matrix<T>],
    grads: &mut BrnnGrads<T>,
    ws: &mut Workspace<T>,
) {
    let cfg = &model.config;
    let seq_len = trace.fwd_h[0].len();
    let rows = trace.fwd_h[0][0].rows();
    let hidden = cfg.hidden_size;
    let last = cfg.layers - 1;

    // Gradients w.r.t. each direction's hidden output at the current layer.
    let mut dh_fwd: Vec<Matrix<T>> = (0..seq_len).map(|_| Matrix::zeros(rows, hidden)).collect();
    let mut dh_rev: Vec<Matrix<T>> = (0..seq_len).map(|_| Matrix::zeros(rows, hidden)).collect();

    // Seed from the classifier features (last layer merges).
    let (mut df, mut dr) = (Matrix::zeros(rows, hidden), Matrix::zeros(rows, hidden));
    for (dfeat, (tf, tr)) in dfeatures.iter().zip(feature_cells(cfg.kind, seq_len)) {
        let (fh, rh) = (&trace.fwd_h[last][tf], &trace.rev_h[last][tr]);
        cfg.merge.backward(dfeat, fh, rh, &mut df, &mut dr);
        bpar_tensor::ops::axpy(T::ONE, &df, &mut dh_fwd[tf]);
        bpar_tensor::ops::axpy(T::ONE, &dr, &mut dh_rev[tr]);
    }

    for l in (0..cfg.layers).rev() {
        let params = &model.layers[l];
        let lgrads = &mut grads.layers[l];
        let input_w = cfg.layer_input_size(l);
        let mut dinputs: Vec<Matrix<T>> =
            (0..seq_len).map(|_| Matrix::zeros(rows, input_w)).collect();

        // The forward direction's gradients flow t = T-1 .. 0; the reverse
        // direction ran T-1 .. 0, so its gradients flow t = 0 .. T-1.
        bptt_direction(
            &params.fwd,
            &mut lgrads.fwd,
            &trace.fwd_caches[l],
            &dh_fwd,
            (0..seq_len).rev(),
            &mut dinputs,
            ws,
        );
        bptt_direction(
            &params.rev,
            &mut lgrads.rev,
            &trace.rev_caches[l],
            &dh_rev,
            0..seq_len,
            &mut dinputs,
            ws,
        );

        // Propagate through the previous layer's merge cells.
        if l > 0 {
            for t in 0..seq_len {
                let (fh, rh) = (&trace.fwd_h[l - 1][t], &trace.rev_h[l - 1][t]);
                cfg.merge
                    .backward(&dinputs[t], fh, rh, &mut dh_fwd[t], &mut dh_rev[t]);
            }
        }
    }
}

/// Straight-line reference executor: no parallelism of any kind.
#[derive(Debug, Default, Clone)]
pub struct SequentialExec;

impl SequentialExec {
    /// New sequential executor.
    pub fn new() -> Self {
        Self
    }

    /// Computes the gradients for one batch without applying them.
    /// Returns `(loss, grads)`.
    fn compute_grads<T: Float>(
        model: &Brnn<T>,
        batch: &[Matrix<T>],
        target: &Target,
    ) -> (f64, BrnnGrads<T>) {
        let ws = &mut Workspace::new();
        let mut grads = model.zero_grads();
        let trace = forward_trace(model, batch, ws);
        let (loss, dfeats) = loss_and_dfeatures(model, &trace, target, &mut grads);
        backward_from_trace(model, &trace, &dfeats, &mut grads, ws);
        (loss, grads)
    }
}

impl<T: Float> Executor<T> for SequentialExec {
    fn forward(&self, model: &Brnn<T>, batch: &[Matrix<T>]) -> ForwardOutput<T> {
        let trace = forward_trace(model, batch, &mut Workspace::new());
        match model.config.kind {
            ModelKind::ManyToOne => ForwardOutput {
                logits: trace.logits[0].clone(),
                seq_logits: Vec::new(),
            },
            ModelKind::ManyToMany => ForwardOutput {
                logits: trace.logits.last().unwrap().clone(),
                seq_logits: trace.logits,
            },
        }
    }

    fn train_batch(
        &self,
        model: &mut Brnn<T>,
        batch: &[Matrix<T>],
        target: &Target,
        opt: &mut dyn Optimizer<T>,
    ) -> f64 {
        let (loss, grads) = Self::compute_grads(model, batch, target);
        model.apply_grads(opt, &grads);
        loss
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::merge::MergeMode;
    use crate::model::BrnnConfig;
    use crate::optim::Sgd;
    use bpar_tensor::init;

    fn small_batch(seq: usize, rows: usize, input: usize) -> Vec<Matrix<f64>> {
        (0..seq)
            .map(|t| init::uniform(rows, input, -1.0, 1.0, 100 + t as u64))
            .collect()
    }

    fn config(cell: CellKind, kind: ModelKind) -> BrnnConfig {
        BrnnConfig {
            cell,
            input_size: 3,
            hidden_size: 4,
            layers: 3,
            seq_len: 5,
            output_size: 3,
            merge: MergeMode::Sum,
            kind,
        }
    }

    #[test]
    fn forward_shapes_many_to_one() {
        let model: Brnn<f64> = Brnn::new(config(CellKind::Lstm, ModelKind::ManyToOne), 1);
        let out = SequentialExec::new().forward(&model, &small_batch(5, 2, 3));
        assert_eq!(out.logits.shape(), (2, 3));
        assert!(out.seq_logits.is_empty());
    }

    #[test]
    fn forward_shapes_many_to_many() {
        let model: Brnn<f64> = Brnn::new(config(CellKind::Gru, ModelKind::ManyToMany), 1);
        let out = SequentialExec::new().forward(&model, &small_batch(5, 2, 3));
        assert_eq!(out.seq_logits.len(), 5);
        for l in &out.seq_logits {
            assert_eq!(l.shape(), (2, 3));
        }
    }

    /// End-to-end finite-difference check through the whole deep BRNN.
    #[test]
    fn whole_model_gradient_check_lstm_many_to_one() {
        let cfg = config(CellKind::Lstm, ModelKind::ManyToOne);
        let model: Brnn<f64> = Brnn::new(cfg, 7);
        let batch = small_batch(5, 2, 3);
        let target = Target::Classes(vec![0, 2]);

        let (_, grads) = SequentialExec::compute_grads(&model, &batch, &target);

        let loss_of = |m: &Brnn<f64>| {
            let trace = forward_trace(m, &batch, &mut Workspace::new());
            let mut dlogits = Matrix::zeros(2, 3);
            softmax_cross_entropy(&trace.logits[0], &[0, 2], &mut dlogits)
        };
        let eps = 1e-6;
        // Probe one weight in each layer/direction plus the dense layer.
        for l in 0..3 {
            for dir in 0..2 {
                let mut m = model.clone();
                let (w, gw) = {
                    let pair = (&mut m.layers[l], &grads.layers[l]);
                    match dir {
                        0 => match (&mut pair.0.fwd, &pair.1.fwd) {
                            (
                                crate::cell::CellParams::Lstm(p),
                                crate::cell::CellParams::Lstm(g),
                            ) => (&mut p.w, &g.w),
                            _ => unreachable!(),
                        },
                        _ => match (&mut pair.0.rev, &pair.1.rev) {
                            (
                                crate::cell::CellParams::Lstm(p),
                                crate::cell::CellParams::Lstm(g),
                            ) => (&mut p.w, &g.w),
                            _ => unreachable!(),
                        },
                    }
                };
                let (r, c) = (1, 2);
                let orig = w.get(r, c);
                w.set(r, c, orig + eps);
                let lp = loss_of(&m);
                // Reset and re-borrow for the minus side.
                let mut m2 = model.clone();
                let w2 = match dir {
                    0 => match &mut m2.layers[l].fwd {
                        crate::cell::CellParams::Lstm(p) => &mut p.w,
                        _ => unreachable!(),
                    },
                    _ => match &mut m2.layers[l].rev {
                        crate::cell::CellParams::Lstm(p) => &mut p.w,
                        _ => unreachable!(),
                    },
                };
                w2.set(r, c, orig - eps);
                let lm = loss_of(&m2);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (gw.get(r, c) - fd).abs() < 1e-5,
                    "layer {l} dir {dir}: {} vs {fd}",
                    gw.get(r, c)
                );
            }
        }
        // Dense weight.
        let mut m = model.clone();
        let orig = m.dense.w.get(0, 1);
        m.dense.w.set(0, 1, orig + eps);
        let lp = loss_of(&m);
        m.dense.w.set(0, 1, orig - eps);
        let lm = loss_of(&m);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((grads.dense.w.get(0, 1) - fd).abs() < 1e-5);
    }

    #[test]
    fn whole_model_gradient_check_gru_many_to_many() {
        let cfg = config(CellKind::Gru, ModelKind::ManyToMany);
        let model: Brnn<f64> = Brnn::new(cfg, 11);
        let batch = small_batch(4, 2, 3);
        let targets: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 0], vec![1, 1], vec![0, 2]];
        let target = Target::SeqClasses(targets.clone());

        let (_, grads) = SequentialExec::compute_grads(&model, &batch, &target);
        let loss_of = |m: &Brnn<f64>| {
            let mut g = m.zero_grads();
            let ws = &mut Workspace::new();
            let trace = forward_trace(m, &batch, ws);
            let (l, _) = loss_and_dfeatures(m, &trace, &target, &mut g);
            l
        };
        let eps = 1e-6;
        // Probe a reverse-direction wzr entry in layer 1.
        let mut mp = model.clone();
        let (orig, gref) = match (&mut mp.layers[1].rev, &grads.layers[1].rev) {
            (crate::cell::CellParams::Gru(p), crate::cell::CellParams::Gru(g)) => {
                (p.wzr.get(2, 3), g.wzr.get(2, 3))
            }
            _ => unreachable!(),
        };
        match &mut mp.layers[1].rev {
            crate::cell::CellParams::Gru(p) => p.wzr.set(2, 3, orig + eps),
            _ => unreachable!(),
        }
        let lp = loss_of(&mp);
        match &mut mp.layers[1].rev {
            crate::cell::CellParams::Gru(p) => p.wzr.set(2, 3, orig - eps),
            _ => unreachable!(),
        }
        let lm = loss_of(&mp);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((gref - fd).abs() < 1e-5, "{gref} vs {fd}");
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = BrnnConfig {
            cell: CellKind::Lstm,
            input_size: 4,
            hidden_size: 8,
            layers: 2,
            seq_len: 6,
            output_size: 2,
            merge: MergeMode::Sum,
            kind: ModelKind::ManyToOne,
        };
        let mut model: Brnn<f64> = Brnn::new(cfg, 5);
        let batch = small_batch(6, 4, 4);
        let target = Target::Classes(vec![0, 1, 0, 1]);
        let exec = SequentialExec::new();
        let mut opt = Sgd::new(0.5);
        let first = exec.train_batch(&mut model, &batch, &target, &mut opt);
        let mut last = first;
        for _ in 0..30 {
            last = exec.train_batch(&mut model, &batch, &target, &mut opt);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn concat_merge_trains_too() {
        let cfg = BrnnConfig {
            merge: MergeMode::Concat,
            output_size: 2,
            ..config(CellKind::Gru, ModelKind::ManyToOne)
        };
        let mut model: Brnn<f64> = Brnn::new(cfg, 5);
        let batch = small_batch(5, 3, 3);
        let target = Target::Classes(vec![0, 1, 0]);
        let mut opt = Sgd::new(0.3);
        let exec = SequentialExec::new();
        let first = exec.train_batch(&mut model, &batch, &target, &mut opt);
        let mut last = first;
        for _ in 0..40 {
            last = exec.train_batch(&mut model, &batch, &target, &mut opt);
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "does not match model kind")]
    fn mismatched_target_kind_panics() {
        let model: Brnn<f64> = Brnn::new(config(CellKind::Lstm, ModelKind::ManyToOne), 1);
        let batch = small_batch(5, 2, 3);
        let mut opt = Sgd::new(0.1);
        SequentialExec::new().train_batch(
            &mut model.clone(),
            &batch,
            &Target::SeqClasses(vec![vec![0, 0]; 5]),
            &mut opt,
        );
    }
}
