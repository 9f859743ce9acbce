//! # bpar-runtime
//!
//! A task-based runtime system with OmpSs-style data-dependency tracking —
//! the substrate the B-Par execution model runs on.
//!
//! The paper expresses BRNN cell updates as *tasks* annotated with `in`/`out`
//! dependency clauses (`#pragma omp task in(...) out(...)`); a runtime builds
//! the task dependency graph dynamically and schedules ready tasks onto
//! cores with **no per-layer barriers**. This crate reproduces that model:
//!
//! * [`region`] — versioned dependency objects and the RAW/WAR/WAW edge
//!   computation ([`region::DepTracker`]),
//! * [`graph`] — a static [`graph::TaskGraph`] representation consumed by
//!   the multi-core simulator (`bpar-sim`) and the verifier
//!   (`bpar-verify`); live executors replay a [`CompiledPlan`] instead,
//! * [`runtime`] — the live [`runtime::Runtime`]: worker threads (bound to
//!   CPUs when there are several, as OmpSs does), dynamic dependency
//!   resolution, `taskwait`,
//! * [`scheduler`] — the global-FIFO ready queue, optionally with the
//!   breadth-first *locality-aware* mechanism of the paper (§IV-A),
//! * [`stats`] — per-task trace records, concurrency and working-set
//!   accounting used by the granularity / memory-consumption experiments,
//! * [`trace`] — Chrome-trace (`chrome://tracing` / Perfetto) export of
//!   task timelines.
//!
//! # Example
//!
//! ```
//! use bpar_runtime::prelude::*;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(RuntimeConfig { workers: 2, ..Default::default() });
//! let r = RegionId(0);
//! let hits = Arc::new(AtomicUsize::new(0));
//!
//! // Two tasks with a RAW dependency: the second sees the first's effect.
//! let h = hits.clone();
//! rt.submit(TaskSpec::new("produce").outs([r]).body(move || {
//!     h.fetch_add(1, Ordering::SeqCst);
//! }));
//! let h = hits.clone();
//! rt.submit(TaskSpec::new("consume").ins([r]).body(move || {
//!     assert_eq!(h.load(Ordering::SeqCst), 1);
//! }));
//! rt.taskwait().unwrap();
//! ```

// Unsafe-audit policy (see `bpar-verify::audit`): every crate containing
// unsafe code must force explicit `unsafe` blocks inside unsafe fns.
#![deny(unsafe_op_in_unsafe_fn)]

mod affinity;
pub mod cancel;
pub mod fault;
pub mod graph;
pub mod lockwitness;
pub mod plan;
pub mod region;
pub mod runtime;
pub mod scheduler;
pub mod stats;
pub mod task;
pub mod trace;
pub mod validate;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::cancel::CancelCell;
    pub use crate::fault::{FaultAction, FaultConfig, FaultPlan};
    pub use crate::graph::TaskGraph;
    pub use crate::plan::{CompiledPlan, PlanBuilder, PlanSpec};
    pub use crate::region::{DepTracker, RegionId};
    pub use crate::runtime::{Runtime, RuntimeConfig};
    pub use crate::scheduler::{AdversarialOrder, SchedulerPolicy};
    pub use crate::stats::RuntimeStats;
    pub use crate::task::{TaskId, TaskSpec};
    pub use crate::validate::{AccessEvent, AccessKind, AccessRecorder};
}

pub use cancel::CancelCell;
pub use fault::{FaultAction, FaultConfig, FaultPlan};
pub use graph::TaskGraph;
pub use lockwitness::LockWitness;
pub use plan::{CompiledPlan, PlanBuilder, PlanSpec};
pub use region::{DepTracker, RegionId};
pub use runtime::{current_worker, Runtime, RuntimeConfig};
pub use scheduler::{AdversarialOrder, SchedulerPolicy};
pub use stats::RuntimeStats;
pub use task::{TaskId, TaskSpec};
pub use validate::{
    record_read, record_read_at, record_write, record_write_at, AccessEvent, AccessKind,
    AccessRecorder,
};
