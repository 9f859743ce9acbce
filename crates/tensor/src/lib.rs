//! # bpar-tensor
//!
//! Dense linear-algebra substrate for the B-Par reproduction.
//!
//! The paper maps each RNN-cell update onto MKL-Sequential kernels; this
//! crate provides the equivalent building blocks in pure Rust:
//!
//! * [`Matrix`] — a row-major dense matrix over [`Float`] scalars,
//! * [`gemm`] — cache-blocked general matrix multiply (plus the transposed
//!   variants needed by backpropagation),
//! * [`ops`] — element-wise kernels (Hadamard products, axpy, bias
//!   broadcast, reductions),
//! * [`activation`] — sigmoid/tanh/softmax and their derivatives (the
//!   paper's MKL vectorises the gate non-linearities as well as the GEMM;
//!   here the `f32` ones are branch-free polynomials whose slice loops run
//!   on the vector unit),
//! * [`init`] — deterministic, seedable weight initialisation,
//! * [`reference`] — the portable loops that define the arithmetic of
//!   every fused multiply-add kernel: the fallback, and the oracle the
//!   dispatched kernels must match bit for bit,
//! * [`step`] — one narrow LSTM/GRU/vanilla step as a single call, one
//!   pass per row (the `reference` loops, on the widest tier under `simd`),
//! * [`backend`] — the AVX-512 / AVX2+FMA / NEON kernels `gemm`, `ops` and
//!   `activation` dispatch to when the host has the unit (run-time
//!   detection picks the widest), and the two selectable backends on top
//!   (`simd`, the default: those dispatched kernels; `scalar`: the portable
//!   loops, same bits).
//!
//! All kernels are sequential by design: in the B-Par execution model,
//! parallelism comes from running many *tasks* (cell updates) concurrently,
//! each of which calls these kernels on its private working set — exactly
//! the "B-Par is mapped to MKL-Sequential" configuration of the paper.

// The only crate in the workspace with real unsafe (SIMD intrinsics, the
// `target_feature` wrappers around the portable loops, and the counting
// allocator): every unsafe operation must sit in its own
// block with a SAFETY comment, enforced here and by the `unsafe_audit`
// binary in CI.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod activation;
pub mod alloc_track;
pub mod backend;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod reference;
pub mod scalar;
pub mod step;
pub mod workspace;

pub use activation::Activation;
pub use alloc_track::CountingAlloc;
pub use backend::{Backend, BackendKind, KernelBackend, ScalarBackend, SimdBackend};
pub use gemm::{gemm, gemm_naive, gemm_nt, gemm_tn};
pub use matrix::Matrix;
pub use scalar::Float;
pub use workspace::{Workspace, WorkspaceStats};
