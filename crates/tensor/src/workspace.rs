//! Shape-keyed workspace arena.
//!
//! The paper's execution model assumes every task runs its sequential
//! kernels on a *private working set*; this module makes that working set
//! literal. A [`Workspace`] is a slab pool of [`Matrix`] buffers keyed by
//! shape: `checkout` pops a recycled buffer (or cold-allocates on first
//! use), `give_back` returns it, and a warmed-up workspace services a
//! fixed-shape kernel sequence with zero heap allocations.
//!
//! Cells, merge/dense layers and the serving batch assembly all thread a
//! caller-provided workspace through their `_ws` entry points; the plan
//! layer keeps one arena's worth of persistent buffers alive per
//! `CompiledPlan` so `Runtime::replay` never touches the allocator.

use crate::matrix::Matrix;
use crate::scalar::Float;

/// Counters describing a workspace's allocation behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Bytes of backing storage ever allocated by this workspace.
    pub bytes: usize,
    /// Checkouts served from the pool without allocating.
    pub reuses: u64,
    /// Checkouts that had to allocate a fresh buffer (cold path).
    pub cold_allocs: u64,
}

/// Grow-only integer scratch used by the int8 kernel backend: quantized
/// copies of the GEMM operands plus one row of `i32` accumulators.
///
/// It lives inside the [`Workspace`] so the per-task warm-up replay that
/// already warms the matrix pool also warms the quantization buffers —
/// after the first call at a given shape, the int8 path performs zero heap
/// allocations (the buffers only ever grow, never shrink).
#[derive(Debug, Default)]
pub struct QuantScratch {
    qa: Vec<i8>,
    qb: Vec<i8>,
    acc: Vec<i32>,
}

impl QuantScratch {
    /// Borrows quantization buffers of at least the requested sizes,
    /// growing them if this shape has never been seen (cold path).
    pub fn ensure(
        &mut self,
        a_len: usize,
        b_len: usize,
        acc_len: usize,
    ) -> (&mut [i8], &mut [i8], &mut [i32]) {
        if self.qa.len() < a_len {
            self.qa.resize(a_len, 0);
        }
        if self.qb.len() < b_len {
            self.qb.resize(b_len, 0);
        }
        if self.acc.len() < acc_len {
            self.acc.resize(acc_len, 0);
        }
        (
            &mut self.qa[..a_len],
            &mut self.qb[..b_len],
            &mut self.acc[..acc_len],
        )
    }

    /// Bytes of backing storage currently held.
    pub fn bytes(&self) -> usize {
        self.qa.capacity() + self.qb.capacity() + 4 * self.acc.capacity()
    }
}

/// Free buffers of one `(rows, cols)` shape.
type FreeList<T> = ((usize, usize), Vec<Matrix<T>>);

/// A shape-keyed pool of reusable [`Matrix`] buffers.
///
/// ```
/// use bpar_tensor::Workspace;
/// let mut ws: Workspace<f32> = Workspace::new();
/// let a = ws.checkout(4, 8); // cold: allocates
/// ws.give_back(a);
/// let b = ws.checkout(4, 8); // warm: reuses, no allocation
/// assert_eq!(ws.stats().reuses, 1);
/// # drop(b);
/// ```
#[derive(Debug, Default)]
pub struct Workspace<T: Float = f32> {
    /// Free buffers per shape. A kernel sequence touches a handful of
    /// shapes, so a linear scan beats hashing the key on every
    /// checkout/give-back.
    pool: Vec<FreeList<T>>,
    quant: QuantScratch,
    stats: WorkspaceStats,
}

impl<T: Float> Workspace<T> {
    /// An empty workspace.
    pub fn new() -> Self {
        Self {
            pool: Vec::new(),
            quant: QuantScratch::default(),
            stats: WorkspaceStats::default(),
        }
    }

    /// The free list of `shape`, if that shape was ever given back.
    fn free(&mut self, shape: (usize, usize)) -> Option<&mut Vec<Matrix<T>>> {
        self.pool
            .iter_mut()
            .find_map(|(s, free)| (*s == shape).then_some(free))
    }

    /// The int8 backend's grow-only quantization scratch.
    pub fn quant_scratch(&mut self) -> &mut QuantScratch {
        &mut self.quant
    }

    /// Checks a `rows × cols` buffer out of the pool.
    ///
    /// The returned matrix is always zeroed so checkout order cannot leak
    /// stale values into kernel results (determinism over speed on the
    /// cold path; warm reuse is a `fill` of resident memory).
    pub fn checkout(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        match self.free((rows, cols)).and_then(Vec::pop) {
            Some(mut m) => {
                self.stats.reuses += 1;
                m.fill_zero();
                m
            }
            None => {
                self.stats.cold_allocs += 1;
                let m = Matrix::zeros(rows, cols);
                self.stats.bytes += m.nbytes();
                m
            }
        }
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn give_back(&mut self, m: Matrix<T>) {
        if m.is_empty() {
            return;
        }
        let shape = m.shape();
        match self.free(shape) {
            Some(free) => free.push(m),
            None => self.pool.push((shape, vec![m])),
        }
    }

    /// Tops the pool up to at least as many free buffers of every shape as
    /// `other` holds, and the quantization scratch to `other`'s sizes: a
    /// workspace that never ran a kernel sequence `other` ran is then as
    /// ready for it. Call with both pools idle (every buffer given back).
    pub fn reserve_like(&mut self, other: &Workspace<T>) {
        for &((rows, cols), ref free) in &other.pool {
            let have = self.free((rows, cols)).map_or(0, |f| f.len());
            for _ in have..free.len() {
                let m = Matrix::zeros(rows, cols);
                self.stats.bytes += m.nbytes();
                self.give_back(m);
            }
        }
        let q = &other.quant;
        self.quant.ensure(q.qa.len(), q.qb.len(), q.acc.len());
    }

    /// Drops every pooled buffer but keeps the lifetime byte counter
    /// (checkout/reset semantics: the next checkout of each shape is cold
    /// again).
    pub fn reset(&mut self) {
        self.pool.clear();
    }

    /// Allocation counters.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Bytes of backing storage ever allocated by this workspace.
    pub fn bytes(&self) -> usize {
        self.stats.bytes
    }

    /// Number of buffers currently resident in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.iter().map(|(_, free)| free.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_warm() {
        let mut ws: Workspace<f32> = Workspace::new();
        let a = ws.checkout(3, 4);
        assert_eq!(a.shape(), (3, 4));
        assert_eq!(ws.stats().cold_allocs, 1);
        assert_eq!(ws.bytes(), 3 * 4 * 4);
        ws.give_back(a);
        let b = ws.checkout(3, 4);
        assert_eq!(ws.stats().reuses, 1);
        assert_eq!(ws.stats().cold_allocs, 1);
        assert_eq!(ws.bytes(), 3 * 4 * 4); // no new storage
        ws.give_back(b);
    }

    #[test]
    fn checkout_is_zeroed_after_reuse() {
        let mut ws: Workspace<f64> = Workspace::new();
        let mut a = ws.checkout(2, 2);
        a.fill(7.0);
        ws.give_back(a);
        let b = ws.checkout(2, 2);
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shapes_pool_independently() {
        let mut ws: Workspace<f32> = Workspace::new();
        let a = ws.checkout(2, 3);
        let b = ws.checkout(3, 2);
        ws.give_back(a);
        ws.give_back(b);
        assert_eq!(ws.pooled(), 2);
        let c = ws.checkout(2, 3);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(ws.stats().reuses, 1);
    }

    #[test]
    fn interleaved_shape_thrash_allocates_once_per_shape() {
        let mut ws: Workspace<f32> = Workspace::new();
        for _ in 0..16 {
            for &(r, c) in &[(2usize, 8usize), (4, 4), (1, 16)] {
                let m = ws.checkout(r, c);
                ws.give_back(m);
            }
        }
        assert_eq!(ws.stats().cold_allocs, 3);
        assert_eq!(ws.stats().reuses, 45);
    }

    /// The linear-scan pool keeps the shape-keyed contract over more
    /// shapes than a kernel sequence uses: every shape allocates once,
    /// buffers held concurrently stay distinct, checkouts come back
    /// zeroed and of the asked shape, and `pooled` counts every free one.
    #[test]
    fn many_interleaved_shapes_keep_the_pool_contract() {
        let shapes: Vec<(usize, usize)> = (1..=10).map(|i| (i % 3 + 1, i)).collect();
        let mut ws: Workspace<f32> = Workspace::new();
        for round in 0..4 {
            let held: Vec<Matrix<f32>> = shapes
                .iter()
                .flat_map(|&(r, c)| [ws.checkout(r, c), ws.checkout(r, c)])
                .collect();
            for (m, &(r, c)) in held.iter().zip(shapes.iter().flat_map(|s| [s, s])) {
                assert_eq!(m.shape(), (r, c));
                assert!(m.as_slice().iter().all(|&v| v == 0.0), "round {round}");
            }
            for mut m in held {
                m.fill(round as f32 + 1.0);
                ws.give_back(m);
            }
            assert_eq!(ws.pooled(), 2 * shapes.len());
        }
        let cells: usize = shapes.iter().map(|&(r, c)| 2 * r * c).sum();
        assert_eq!(ws.stats().cold_allocs, 2 * shapes.len() as u64);
        assert_eq!(ws.stats().reuses, 3 * 2 * shapes.len() as u64);
        assert_eq!(ws.bytes(), 4 * cells);
        ws.reset();
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn reserve_like_tops_up_to_the_other_pool() {
        let mut a: Workspace<f32> = Workspace::new();
        let mut b: Workspace<f32> = Workspace::new();
        let held = [a.checkout(2, 3), a.checkout(2, 3), a.checkout(1, 4)];
        held.into_iter().for_each(|m| a.give_back(m));
        let _ = a.quant_scratch().ensure(6, 8, 4);
        let m = b.checkout(2, 3);
        b.give_back(m);
        b.reserve_like(&a);
        assert_eq!(b.pooled(), 3);
        assert_eq!(b.quant_scratch().bytes(), a.quant_scratch().bytes());
        // Everything `a` needed, `b` now serves without allocating.
        let (cold, bytes) = (b.stats().cold_allocs, b.bytes());
        let held = [b.checkout(2, 3), b.checkout(2, 3), b.checkout(1, 4)];
        assert_eq!(b.stats().cold_allocs, cold);
        assert_eq!(bytes, 4 * (2 * 6 + 4));
        held.into_iter().for_each(|m| b.give_back(m));
        // Reserving again is a no-op.
        b.reserve_like(&a);
        assert_eq!((b.pooled(), b.bytes()), (3, bytes));
    }

    #[test]
    fn quant_scratch_grows_once_per_shape() {
        let mut ws: Workspace<f32> = Workspace::new();
        assert_eq!(ws.quant_scratch().bytes(), 0);
        {
            let (qa, qb, acc) = ws.quant_scratch().ensure(6, 8, 4);
            assert_eq!((qa.len(), qb.len(), acc.len()), (6, 8, 4));
            qa[5] = 7;
        }
        let grown = ws.quant_scratch().bytes();
        assert!(grown >= 6 + 8 + 16);
        // Re-ensuring the same (or smaller) sizes never grows the buffers.
        let _ = ws.quant_scratch().ensure(6, 8, 4);
        let _ = ws.quant_scratch().ensure(3, 2, 1);
        assert_eq!(ws.quant_scratch().bytes(), grown);
    }

    #[test]
    fn reset_forgets_pool_but_keeps_bytes() {
        let mut ws: Workspace<f32> = Workspace::new();
        let a = ws.checkout(2, 2);
        ws.give_back(a);
        ws.reset();
        assert_eq!(ws.pooled(), 0);
        let bytes = ws.bytes();
        let _ = ws.checkout(2, 2);
        assert_eq!(ws.stats().cold_allocs, 2);
        assert_eq!(ws.bytes(), bytes + 16);
    }
}
