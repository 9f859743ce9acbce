//! Interchangeable BRNN executors.
//!
//! Every executor computes *exactly the same* forward and backward pass
//! over a [`Brnn`] model — they differ only in how the work is scheduled:
//!
//! | Executor | Parallelism | Barriers | Paper role |
//! |---|---|---|---|
//! | [`SequentialExec`] | none | n/a | reference semantics |
//! | [`TaskGraphExec`] | model + data | **none** | **B-Par** |
//! | [`BarrierExec`] | model + data | forward, then reverse, then merges, per layer (§II) | Keras/PyTorch discipline |
//! | [`BSeqExec`] | data only | one task per mini-batch | B-Seq baseline |
//!
//! The three parallel executors are one [`TaskGraphExec`] each: the same
//! emitted graph, compiled into a cached plan under the executor's
//! schedule.
//!
//! Because all executors run the same kernels in the same floating-point
//! order, their outputs are expected to match bit-for-bit — the paper's
//! claim that task-based orchestration "does not produce any accuracy loss
//! compared to a sequential execution" (§III), which the integration tests
//! verify.

pub(crate) mod builder;
pub(crate) mod plan;
mod sequential;
pub(crate) mod taskgraph;

pub use plan::PlanCacheStats;
pub use sequential::SequentialExec;
pub use taskgraph::{BSeqExec, BarrierExec, TaskGraphExec};

use crate::model::Brnn;
use crate::optim::Optimizer;
use bpar_tensor::{Float, Matrix};

/// Training targets.
#[derive(Debug, Clone)]
pub enum Target {
    /// Many-to-one: one class per batch row.
    Classes(Vec<usize>),
    /// Many-to-many: per timestep, one class per batch row
    /// (`targets[t][row]`).
    SeqClasses(Vec<Vec<usize>>),
}

impl Target {
    /// Slices the targets to batch rows `[start, start + count)` —
    /// used by mini-batch data parallelism.
    pub fn row_block(&self, start: usize, count: usize) -> Target {
        match self {
            Target::Classes(c) => Target::Classes(c[start..start + count].to_vec()),
            Target::SeqClasses(s) => {
                Target::SeqClasses(s.iter().map(|c| c[start..start + count].to_vec()).collect())
            }
        }
    }
}

/// Result of a forward pass.
#[derive(Debug, Clone)]
pub struct ForwardOutput<T: Float> {
    /// Many-to-one logits (`batch × classes`). For many-to-many models this
    /// holds the *last* timestep's logits for convenience.
    pub logits: Matrix<T>,
    /// Many-to-many per-timestep logits (empty for many-to-one).
    pub seq_logits: Vec<Matrix<T>>,
}

impl<T: Float> ForwardOutput<T> {
    /// Pre-shaped zero buffers for a `rows × seq` batch of `model` — the
    /// reusable output a caller hands to [`Executor::try_forward_into`].
    pub fn zeros_for(model: &Brnn<T>, rows: usize, seq: usize) -> Self {
        let classes = model.config.output_size;
        let seq_logits = match model.config.kind {
            crate::model::ModelKind::ManyToOne => Vec::new(),
            crate::model::ModelKind::ManyToMany => {
                (0..seq).map(|_| Matrix::zeros(rows, classes)).collect()
            }
        };
        Self {
            logits: Matrix::zeros(rows, classes),
            seq_logits,
        }
    }
}

/// A batch failed inside the executor (a task body panicked).
///
/// Carries the runtime's description of the failing task. A failed batch
/// leaves the executor usable: the next call starts from a clean graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// A strategy for running BRNN inference and training batches.
pub trait Executor<T: Float> {
    /// Inference: forward pass only.
    ///
    /// `batch` is one matrix of `batch_rows × input_size` per timestep.
    fn forward(&self, model: &Brnn<T>, batch: &[Matrix<T>]) -> ForwardOutput<T>;

    /// One training step: forward, backward, gradient update.
    /// Returns the mean loss of the batch.
    fn train_batch(
        &self,
        model: &mut Brnn<T>,
        batch: &[Matrix<T>],
        target: &Target,
        opt: &mut dyn Optimizer<T>,
    ) -> f64;

    /// Fallible forward pass: a task panic becomes an [`ExecError`]
    /// instead of unwinding the caller, so a serving loop can fail one
    /// batch and keep the process alive. Executors whose `forward` cannot
    /// fail use this default.
    fn try_forward(
        &self,
        model: &Brnn<T>,
        batch: &[Matrix<T>],
    ) -> Result<ForwardOutput<T>, ExecError> {
        Ok(self.forward(model, batch))
    }

    /// Fallible forward pass writing logits into a caller-provided,
    /// pre-shaped output (see [`ForwardOutput::zeros_for`]) so a serving
    /// loop can reuse one buffer across batches. The default delegates to
    /// [`Executor::try_forward`] and replaces the buffers; executors with
    /// an allocation-free steady state override it with a copy-into
    /// implementation.
    fn try_forward_into(
        &self,
        model: &Brnn<T>,
        batch: &[Matrix<T>],
        out: &mut ForwardOutput<T>,
    ) -> Result<(), ExecError> {
        *out = self.try_forward(model, batch)?;
        Ok(())
    }

    /// Fallible training step (see [`Executor::try_forward`]).
    fn try_train_batch(
        &self,
        model: &mut Brnn<T>,
        batch: &[Matrix<T>],
        target: &Target,
        opt: &mut dyn Optimizer<T>,
    ) -> Result<f64, ExecError> {
        Ok(self.train_batch(model, batch, target, opt))
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Validates that a batch is well-formed for the model; returns
/// `(timesteps, batch_rows)`.
pub(crate) fn check_batch<T: Float>(model: &Brnn<T>, batch: &[Matrix<T>]) -> (usize, usize) {
    assert!(!batch.is_empty(), "empty batch");
    let rows = batch[0].rows();
    for (t, x) in batch.iter().enumerate() {
        assert_eq!(
            x.shape(),
            (rows, model.config.input_size),
            "timestep {t} has inconsistent shape"
        );
    }
    (batch.len(), rows)
}

#[cfg(test)]
mod granularity_tests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_row_block_slices_classes() {
        let t = Target::Classes(vec![1, 2, 3, 4]);
        match t.row_block(1, 2) {
            Target::Classes(c) => assert_eq!(c, vec![2, 3]),
            _ => panic!(),
        }
    }

    #[test]
    fn target_row_block_slices_seq() {
        let t = Target::SeqClasses(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        match t.row_block(0, 2) {
            Target::SeqClasses(s) => assert_eq!(s, vec![vec![1, 2], vec![4, 5]]),
            _ => panic!(),
        }
    }
}
