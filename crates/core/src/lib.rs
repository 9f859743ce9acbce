//! # bpar-core
//!
//! The B-Par execution model for Bidirectional Recurrent Neural Networks,
//! reproducing Sharma & Casas, *"Task-based Acceleration of Bidirectional
//! Recurrent Neural Networks on Multi-core Architectures"* (IPDPS 2022).
//!
//! A BRNN runs two unidirectional RNNs over each input sequence — one in
//! forward order, one in reverse — and merges their per-timestep outputs
//! (Equation (11) of the paper). B-Par maps every cell update and every
//! merge onto its own *task* with explicit input/output data dependencies
//! and lets a runtime system (`bpar-runtime`) schedule them with **no
//! per-layer barriers**.
//!
//! ## Crate layout
//!
//! * [`cell`] — LSTM (Eqs. 1–6) and GRU (Eqs. 7–10) kernels, forward and
//!   backward (BPTT), plus flop/working-set estimators for the simulator.
//! * [`merge`] — the merge modes of Eq. (11): sum, average, element-wise
//!   product, concatenation.
//! * [`dense`] / [`loss`] — output classifier and softmax cross-entropy.
//! * [`model`] — [`model::BrnnConfig`] and the parameter store
//!   ([`model::Brnn`]): one weight copy per layer and direction, shared by
//!   all unrolled timesteps (§II).
//! * [`exec`] — interchangeable executors over the same model:
//!   [`exec::SequentialExec`] (reference), [`exec::TaskGraphExec`] (B-Par),
//!   and its two baseline schedules: [`exec::BarrierExec`] (per-layer
//!   barriers, the Keras/PyTorch execution discipline) and
//!   [`exec::BSeqExec`] (data-parallelism only, the paper's B-Seq
//!   baseline).
//! * `emit` (crate-private) — the one description of the task graph:
//!   nodes with symbolic `in`/`out` clauses, consumed by the live
//!   executors in [`exec`], by [`graphgen`] and by [`analyze`].
//! * [`graphgen`] — static task-graph generation (with flop/byte
//!   annotations) consumed by the `bpar-sim` multi-core simulator and by
//!   graph-shape tests against the paper's Fig. 2.
//! * [`optim`] / [`train`] — SGD/momentum/Adam (plus gradient clipping and
//!   learning-rate schedules) and the batch training loop, including
//!   `mbs:N` mini-batch data parallelism.
//! * [`io`] — binary model checkpointing.
//! * [`analyze`] — the `bpar analyze` driver: structural lints, Fig. 2
//!   shape checks, dynamic clause validation and schedule fuzzing over
//!   real compiled plans (analyses live in `bpar-verify`).
//!
//! ## Quick start
//!
//! ```
//! use bpar_core::prelude::*;
//!
//! // 2-layer bidirectional LSTM classifier, 8 hidden units.
//! let config = BrnnConfig {
//!     cell: CellKind::Lstm,
//!     input_size: 4,
//!     hidden_size: 8,
//!     layers: 2,
//!     seq_len: 5,
//!     output_size: 3,
//!     ..Default::default()
//! };
//! let mut model: Brnn<f32> = Brnn::new(config, 42);
//!
//! // One batch of 2 sequences (seq_len matrices of batch x input_size).
//! let batch: Vec<_> = (0..5)
//!     .map(|t| bpar_tensor::init::uniform(2, 4, -1.0, 1.0, t as u64))
//!     .collect();
//!
//! let exec = SequentialExec::new();
//! let out = exec.forward(&model, &batch);
//! assert_eq!(out.logits.shape(), (2, 3));
//!
//! // One training step.
//! let mut opt = Sgd::new(0.05);
//! let loss = exec.train_batch(&mut model, &batch, &Target::Classes(vec![0, 2]), &mut opt);
//! assert!(loss > 0.0);
//! ```

pub mod analyze;
pub mod cell;
pub mod dense;
pub(crate) mod emit;
pub mod exec;
pub mod graphgen;
pub mod io;
pub mod loss;
pub mod merge;
pub mod model;
pub mod optim;
pub mod scanplan;
pub mod train;

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::cell::CellKind;
    pub use crate::exec::{
        BSeqExec, BarrierExec, ExecError, Executor, ForwardOutput, PlanCacheStats, SequentialExec,
        Target, TaskGraphExec,
    };
    pub use crate::merge::MergeMode;
    pub use crate::model::{Brnn, BrnnConfig, ModelKind};
    pub use crate::optim::{Adam, GradClip, Momentum, Optimizer, Schedule, ScheduledSgd, Sgd};
    pub use crate::scanplan::RecurrenceStrategy;
    pub use crate::train::Trainer;
}

pub use cell::CellKind;
pub use merge::MergeMode;
pub use model::{Brnn, BrnnConfig, ModelKind};
