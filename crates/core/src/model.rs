//! BRNN model definition and parameter store.
//!
//! Following §II of the paper, the unrolled network keeps **one copy of
//! weights and biases per layer and direction**, shared by every unrolled
//! timestep, while activations and caches are per timestep. [`Brnn`] is
//! that parameter store; executors (sequential, B-Par task graph, barrier,
//! B-Seq) all operate on the same `Brnn` so their outputs can be compared
//! bit-for-bit.

use crate::cell::{CellKind, CellParams};
use crate::dense::DenseParams;
use crate::emit::Dir;
use crate::merge::MergeMode;
use crate::optim::Optimizer;
use bpar_tensor::{Float, Matrix};
use std::sync::atomic::{AtomicU64, Ordering};

/// Globally unique revision stamps. Fresh values (never increments of an
/// existing stamp) mean two models that diverge from a common clone can
/// never collide on the same revision.
static NEXT_REVISION: AtomicU64 = AtomicU64::new(1);

fn fresh_revision() -> u64 {
    NEXT_REVISION.fetch_add(1, Ordering::Relaxed)
}

/// Output arity of the model (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelKind {
    /// One output per sequence (speech recognition on TIDIGITS): the last
    /// layer merges only its final forward and reverse cells.
    #[default]
    ManyToOne,
    /// One output per timestep (next-character prediction on Wikipedia):
    /// the last layer merges every position.
    ManyToMany,
}

/// Hyper-parameters of a deep BRNN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrnnConfig {
    /// Recurrent cell type.
    pub cell: CellKind,
    /// Width of the raw input features.
    pub input_size: usize,
    /// Hidden units per direction per layer.
    pub hidden_size: usize,
    /// Number of stacked bidirectional layers.
    pub layers: usize,
    /// Unrolled sequence length (can be overridden per batch).
    pub seq_len: usize,
    /// Classifier width (classes).
    pub output_size: usize,
    /// Merge operation of Eq. (11).
    pub merge: MergeMode,
    /// Many-to-one or many-to-many.
    pub kind: ModelKind,
}

impl Default for BrnnConfig {
    fn default() -> Self {
        Self {
            cell: CellKind::Lstm,
            input_size: 16,
            hidden_size: 16,
            layers: 2,
            seq_len: 8,
            output_size: 4,
            merge: MergeMode::Sum,
            kind: ModelKind::ManyToOne,
        }
    }
}

impl BrnnConfig {
    /// Input width of `layer`: the raw features for layer 0, the merged
    /// width for deeper layers.
    pub fn layer_input_size(&self, layer: usize) -> usize {
        if layer == 0 {
            self.input_size
        } else {
            self.merge.output_width(self.hidden_size)
        }
    }

    /// Width of the features fed to the classifier.
    pub fn classifier_input_size(&self) -> usize {
        self.merge.output_width(self.hidden_size)
    }

    /// Trainable recurrent parameters (both directions, all layers).
    /// This is what the "Parameters" column of Tables III/IV counts.
    pub fn rnn_param_count(&self) -> usize {
        (0..self.layers)
            .map(|l| 2 * self.cell.params(self.layer_input_size(l), self.hidden_size))
            .sum()
    }

    /// All trainable parameters including the classifier.
    pub fn total_param_count(&self) -> usize {
        self.rnn_param_count() + self.classifier_input_size() * self.output_size + self.output_size
    }

    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.input_size == 0
            || self.hidden_size == 0
            || self.layers == 0
            || self.seq_len == 0
            || self.output_size == 0
        {
            return Err("all dimensions must be non-zero".into());
        }
        Ok(())
    }
}

/// Parameters of one bidirectional layer.
#[derive(Debug, Clone)]
pub struct LayerPair<T: Float> {
    /// Forward-order cell parameters.
    pub fwd: CellParams<T>,
    /// Reverse-order cell parameters.
    pub rev: CellParams<T>,
}

/// A deep bidirectional RNN: per-layer parameter pairs plus a classifier.
///
/// Carries a *revision stamp* identifying the current weight values:
/// [`Brnn::apply_grads`] (and any other in-place mutation, via
/// [`Brnn::touch`]) refreshes it, while `clone()` copies it — two models
/// with equal revisions hold bit-identical weights. Weight caches (the
/// executors' plan cache) compare revisions to skip deep copies.
#[derive(Debug, Clone)]
pub struct Brnn<T: Float> {
    /// Hyper-parameters.
    pub config: BrnnConfig,
    /// Per-layer forward/reverse parameters.
    pub layers: Vec<LayerPair<T>>,
    /// Output classifier (shared across timesteps for many-to-many).
    pub dense: DenseParams<T>,
    /// Weight-value revision (see type docs). Private so every mutation
    /// path goes through [`Brnn::touch`].
    revision: u64,
}

impl<T: Float> Brnn<T> {
    /// Seeded model initialisation.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(config: BrnnConfig, seed: u64) -> Self {
        config.validate().expect("invalid BrnnConfig");
        let layers = (0..config.layers)
            .map(|l| {
                let input = config.layer_input_size(l);
                LayerPair {
                    fwd: CellParams::init(
                        config.cell,
                        input,
                        config.hidden_size,
                        seed ^ (2 * l as u64 + 1),
                    ),
                    rev: CellParams::init(
                        config.cell,
                        input,
                        config.hidden_size,
                        seed ^ (2 * l as u64 + 2) ^ 0xdead_beef,
                    ),
                }
            })
            .collect();
        let dense = DenseParams::init(
            config.classifier_input_size(),
            config.output_size,
            seed ^ 0xfeed_f00d,
        );
        Self {
            config,
            layers,
            dense,
            revision: fresh_revision(),
        }
    }

    /// The current weight-value revision. Equal revisions imply
    /// bit-identical weights; a fresh revision is minted by [`Brnn::new`],
    /// [`Brnn::touch`], and [`Brnn::apply_grads`].
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Marks the weights as changed. Call after mutating `layers` or
    /// `dense` in place so revision-based weight caches resynchronize;
    /// forgetting to do so makes cached executors serve stale weights.
    pub fn touch(&mut self) {
        self.revision = fresh_revision();
    }

    /// Zeroed gradient accumulators matching this model's shapes.
    pub fn zero_grads(&self) -> BrnnGrads<T> {
        BrnnGrads {
            layers: self
                .layers
                .iter()
                .map(|lp| LayerPair {
                    fwd: lp.fwd.zeros_like(),
                    rev: lp.rev.zeros_like(),
                })
                .collect(),
            dense: self.dense.zeros_like(),
        }
    }

    /// Total trainable parameters actually allocated.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|lp| lp.fwd.param_count() + lp.rev.param_count())
            .sum::<usize>()
            + self.dense.param_count()
    }

    /// Applies one optimizer step from accumulated gradients.
    ///
    /// Parameter slots are visited in a stable order, so stateful
    /// optimizers keep consistent per-tensor state across batches.
    pub fn apply_grads(&mut self, opt: &mut dyn Optimizer<T>, grads: &BrnnGrads<T>) {
        assert_eq!(
            grads.layers.len(),
            self.layers.len(),
            "gradient layer count"
        );
        self.apply_grads_with(
            opt,
            |l, dir, f| match dir {
                Dir::Fwd => f(&grads.layers[l].fwd),
                Dir::Rev => f(&grads.layers[l].rev),
            },
            |f| f(&grads.dense),
        );
    }

    /// [`Brnn::apply_grads`] reading the gradient of layer `l` ×
    /// direction through `cell(l, dir, f)` and the classifier's through
    /// `dense(f)` — for callers whose gradients live in separately
    /// guarded buffers (the task-graph executor's accumulator slots),
    /// which can then apply them in place, without assembling a
    /// [`BrnnGrads`]. Same slots, same order, same updates.
    pub(crate) fn apply_grads_with(
        &mut self,
        opt: &mut dyn Optimizer<T>,
        mut cell: impl FnMut(usize, Dir, &mut dyn FnMut(&CellParams<T>)),
        dense: impl FnOnce(&mut dyn FnMut(&DenseParams<T>)),
    ) {
        let mut slot = 0usize;
        let mut step = |p: &mut Matrix<T>, g: &Matrix<T>| {
            opt.update(slot, p, g);
            slot += 1;
        };
        for (l, lp) in self.layers.iter_mut().enumerate() {
            cell(l, Dir::Fwd, &mut |g| lp.fwd.for_each_param(g, &mut step));
            cell(l, Dir::Rev, &mut |g| lp.rev.for_each_param(g, &mut step));
        }
        dense(&mut |g| {
            step(&mut self.dense.w, &g.w);
            step(&mut self.dense.b, &g.b);
        });
        opt.end_step();
        self.touch();
    }

    /// Overwrites every weight with `src`'s and takes its revision, in
    /// place: the allocation-free `*self = src.clone()` for two models of
    /// one configuration (a weight snapshot catching up with its model).
    ///
    /// # Panics
    /// Panics if the configurations differ.
    pub fn copy_weights_from(&mut self, src: &Brnn<T>) {
        assert_eq!(self.config, src.config, "weight copy across configurations");
        let mut copy = |dst: &mut Matrix<T>, s: &Matrix<T>| dst.copy_from(s);
        for (lp, sp) in self.layers.iter_mut().zip(&src.layers) {
            lp.fwd.for_each_param(&sp.fwd, &mut copy);
            lp.rev.for_each_param(&sp.rev, &mut copy);
        }
        copy(&mut self.dense.w, &src.dense.w);
        copy(&mut self.dense.b, &src.dense.b);
        self.revision = src.revision;
    }

    /// Maximum absolute parameter difference against another model —
    /// used by executor-parity tests.
    pub fn max_param_diff(&self, other: &Brnn<T>) -> f64 {
        let mut worst = 0.0f64;
        let mut acc = |a: &Matrix<T>, b: &Matrix<T>| {
            worst = worst.max(a.max_abs_diff(b));
        };
        for (x, y) in self.layers.iter().zip(&other.layers) {
            match (&x.fwd, &y.fwd) {
                (CellParams::Lstm(a), CellParams::Lstm(b)) => {
                    acc(&a.w, &b.w);
                    acc(&a.b, &b.b);
                }
                (CellParams::Gru(a), CellParams::Gru(b)) => {
                    acc(&a.wzr, &b.wzr);
                    acc(&a.bzr, &b.bzr);
                    acc(&a.wh, &b.wh);
                    acc(&a.bh, &b.bh);
                }
                (CellParams::Vanilla(a), CellParams::Vanilla(b)) => {
                    acc(&a.w, &b.w);
                    acc(&a.b, &b.b);
                }
                (CellParams::Linear(a), CellParams::Linear(b)) => {
                    acc(&a.w, &b.w);
                    acc(&a.lambda, &b.lambda);
                    acc(&a.b, &b.b);
                }
                _ => panic!("cell kind mismatch"),
            }
            match (&x.rev, &y.rev) {
                (CellParams::Lstm(a), CellParams::Lstm(b)) => {
                    acc(&a.w, &b.w);
                    acc(&a.b, &b.b);
                }
                (CellParams::Gru(a), CellParams::Gru(b)) => {
                    acc(&a.wzr, &b.wzr);
                    acc(&a.bzr, &b.bzr);
                    acc(&a.wh, &b.wh);
                    acc(&a.bh, &b.bh);
                }
                (CellParams::Vanilla(a), CellParams::Vanilla(b)) => {
                    acc(&a.w, &b.w);
                    acc(&a.b, &b.b);
                }
                (CellParams::Linear(a), CellParams::Linear(b)) => {
                    acc(&a.w, &b.w);
                    acc(&a.lambda, &b.lambda);
                    acc(&a.b, &b.b);
                }
                _ => panic!("cell kind mismatch"),
            }
        }
        acc(&self.dense.w, &other.dense.w);
        acc(&self.dense.b, &other.dense.b);
        worst
    }
}

/// Gradient accumulators for a whole model.
#[derive(Debug, Clone)]
pub struct BrnnGrads<T: Float> {
    /// Per-layer forward/reverse gradient pairs.
    pub layers: Vec<LayerPair<T>>,
    /// Classifier gradients.
    pub dense: DenseParams<T>,
}

impl<T: Float> BrnnGrads<T> {
    /// Adds another replica's gradients (mini-batch reduction, §III-B).
    pub fn add_assign(&mut self, other: &BrnnGrads<T>) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.fwd.add_assign(&b.fwd);
            a.rev.add_assign(&b.rev);
        }
        self.dense.add_assign(&other.dense);
    }

    /// Scales every gradient by `alpha` (mini-batch averaging).
    pub fn scale(&mut self, alpha: T) {
        for lp in &mut self.layers {
            let dummy_fwd = lp.fwd.zeros_like();
            lp.fwd.for_each_param(&dummy_fwd, &mut |p, _| {
                bpar_tensor::ops::scale(alpha, p);
            });
            let dummy_rev = lp.rev.zeros_like();
            lp.rev.for_each_param(&dummy_rev, &mut |p, _| {
                bpar_tensor::ops::scale(alpha, p);
            });
        }
        bpar_tensor::ops::scale(alpha, &mut self.dense.w);
        bpar_tensor::ops::scale(alpha, &mut self.dense.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;

    #[test]
    fn paper_parameter_counts() {
        // Table III: BLSTM 6 layers, sum merge.
        let cfg = |input, hidden| BrnnConfig {
            cell: CellKind::Lstm,
            input_size: input,
            hidden_size: hidden,
            layers: 6,
            seq_len: 100,
            output_size: 11,
            merge: MergeMode::Sum,
            kind: ModelKind::ManyToOne,
        };
        let near = |got: usize, want_m: f64| {
            let got_m = got as f64 / 1e6;
            assert!(
                (got_m - want_m).abs() / want_m < 0.03,
                "got {got_m:.1}M want {want_m}M"
            );
        };
        near(cfg(64, 256).rnn_param_count(), 5.9);
        near(cfg(256, 256).rnn_param_count(), 6.3);
        near(cfg(1024, 256).rnn_param_count(), 7.8);
        near(cfg(64, 1024).rnn_param_count(), 92.8);
        near(cfg(256, 1024).rnn_param_count(), 94.4);
        near(cfg(1024, 1024).rnn_param_count(), 100.7);

        // Table IV: BGRU.
        let cfg_gru = |input, hidden| BrnnConfig {
            cell: CellKind::Gru,
            ..cfg(input, hidden)
        };
        near(cfg_gru(64, 256).rnn_param_count(), 4.4);
        near(cfg_gru(256, 256).rnn_param_count(), 4.7);
        near(cfg_gru(1024, 1024).rnn_param_count(), 75.5);
    }

    #[test]
    fn model_allocates_declared_params() {
        let config = BrnnConfig::default();
        let m: Brnn<f32> = Brnn::new(config, 1);
        assert_eq!(m.param_count(), config.total_param_count());
        assert_eq!(m.layers.len(), config.layers);
    }

    #[test]
    fn concat_merge_widens_deeper_layers() {
        let config = BrnnConfig {
            merge: MergeMode::Concat,
            ..Default::default()
        };
        assert_eq!(config.layer_input_size(0), 16);
        assert_eq!(config.layer_input_size(1), 32);
        assert_eq!(config.classifier_input_size(), 32);
        // Model construction respects the widths.
        let m: Brnn<f32> = Brnn::new(config, 0);
        assert_eq!(m.param_count(), config.total_param_count());
    }

    #[test]
    fn seeded_init_is_reproducible() {
        let config = BrnnConfig::default();
        let a: Brnn<f64> = Brnn::new(config, 9);
        let b: Brnn<f64> = Brnn::new(config, 9);
        assert_eq!(a.max_param_diff(&b), 0.0);
        let c: Brnn<f64> = Brnn::new(config, 10);
        assert!(a.max_param_diff(&c) > 0.0);
    }

    #[test]
    fn apply_grads_moves_parameters() {
        let config = BrnnConfig::default();
        let mut m: Brnn<f64> = Brnn::new(config, 3);
        let reference = m.clone();
        let mut grads = m.zero_grads();
        // Non-zero dense gradient only.
        grads.dense.w.fill(1.0);
        let mut opt = Sgd::new(0.1);
        m.apply_grads(&mut opt, &grads);
        let diff = m.max_param_diff(&reference);
        assert!((diff - 0.1).abs() < 1e-12);
    }

    #[test]
    fn grad_reduction_and_scaling() {
        let config = BrnnConfig::default();
        let m: Brnn<f64> = Brnn::new(config, 3);
        let mut a = m.zero_grads();
        let mut b = m.zero_grads();
        a.dense.w.fill(1.0);
        b.dense.w.fill(2.0);
        a.add_assign(&b);
        assert_eq!(a.dense.w.get(0, 0), 3.0);
        a.scale(0.5);
        assert_eq!(a.dense.w.get(0, 0), 1.5);
    }

    #[test]
    fn revision_tracks_weight_mutations() {
        let config = BrnnConfig::default();
        let mut m: Brnn<f64> = Brnn::new(config, 3);
        let r0 = m.revision();
        // Clone shares the revision: identical weights.
        assert_eq!(m.clone().revision(), r0);
        // A fresh model never shares a revision.
        let other: Brnn<f64> = Brnn::new(config, 3);
        assert_ne!(other.revision(), r0);
        // apply_grads refreshes the stamp.
        let grads = m.zero_grads();
        let mut opt = Sgd::new(0.1);
        m.apply_grads(&mut opt, &grads);
        assert_ne!(m.revision(), r0);
        // touch() always mints a fresh stamp.
        let r1 = m.revision();
        m.touch();
        assert_ne!(m.revision(), r1);
    }

    #[test]
    #[should_panic(expected = "invalid BrnnConfig")]
    fn zero_dim_config_rejected() {
        let config = BrnnConfig {
            hidden_size: 0,
            ..Default::default()
        };
        let _: Brnn<f32> = Brnn::new(config, 0);
    }
}
