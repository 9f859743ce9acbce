//! Bounded admission queue with configurable backpressure.
//!
//! The queue is the contract between the load generator (producer side)
//! and the serving loop (consumer side). It is bounded: a server that
//! falls behind surfaces that fact at admission time instead of letting
//! latency grow without bound. What happens when the bound is hit is the
//! [`BackpressurePolicy`].

use crate::request::InferRequest;
use bpar_tensor::Float;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Instant;

/// What a full queue does with the next arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the producer until space frees (closed-loop clients).
    Block,
    /// Refuse admission; the request bounces back to the caller.
    Reject,
    /// Evict queued requests whose deadline has already expired to make
    /// room; if none have expired, shed the incoming request. Requests
    /// without a deadline are never evicted.
    ShedExpired,
}

impl BackpressurePolicy {
    /// Parses the CLI spelling (`block` / `reject` / `shed`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "block" => Some(Self::Block),
            "reject" => Some(Self::Reject),
            "shed" => Some(Self::ShedExpired),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Block => "block",
            Self::Reject => "reject",
            Self::ShedExpired => "shed",
        }
    }
}

/// Result of [`AdmissionQueue::push`].
#[derive(Debug)]
pub enum Admission<T: Float> {
    /// Queued. `shed` lists expired requests evicted to make room
    /// (only non-empty under [`BackpressurePolicy::ShedExpired`]).
    Admitted {
        /// Expired requests evicted by this admission.
        shed: Vec<InferRequest<T>>,
    },
    /// Queue full under [`BackpressurePolicy::Reject`], or the queue is
    /// closed. The request is handed back untouched.
    Rejected(InferRequest<T>),
    /// Queue full under [`BackpressurePolicy::ShedExpired`] with nothing
    /// expired to evict: the incoming request itself is shed.
    Shed(InferRequest<T>),
}

/// Result of [`AdmissionQueue::pop_wait`].
#[derive(Debug)]
pub enum Popped<T: Float> {
    /// The oldest queued request.
    Item(InferRequest<T>),
    /// `deadline` passed with the queue still empty.
    TimedOut,
    /// Queue closed and fully drained; no more items will ever arrive.
    Closed,
}

/// Occupancy statistics, sampled after every admission.
///
/// Retains every sample so the full distribution (p50/p99, not just the
/// mean) is reportable; a sample is 4 bytes, so even a million
/// admissions cost ~4 MiB. The router's least-loaded policy feeds its
/// routing-time depth samples through the same type.
#[derive(Debug, Clone, Default)]
pub struct DepthStats {
    depths: Vec<u32>,
    depth_max: usize,
}

impl DepthStats {
    /// Records one observed depth.
    pub fn record(&mut self, depth: usize) {
        self.depths.push(depth.min(u32::MAX as usize) as u32);
        self.depth_max = self.depth_max.max(depth);
    }

    /// Number of samples (successful admissions).
    pub fn samples(&self) -> u64 {
        self.depths.len() as u64
    }

    /// Mean queue depth over all admission samples.
    pub fn mean(&self) -> f64 {
        if self.depths.is_empty() {
            0.0
        } else {
            self.depths.iter().map(|&d| d as f64).sum::<f64>() / self.depths.len() as f64
        }
    }

    /// Maximum observed depth.
    pub fn max(&self) -> usize {
        self.depth_max
    }

    /// Full percentile summary of the sampled depths. The values are
    /// depths in requests; the `_us` field names come from the shared
    /// latency summarizer.
    pub fn summary(&self) -> crate::metrics::LatencyStats {
        crate::metrics::LatencyStats::from_samples(self.depths.iter().map(|&d| d as u64).collect())
    }
}

struct QueueState<T: Float> {
    items: VecDeque<InferRequest<T>>,
    closed: bool,
    depth: DepthStats,
    /// Lives behind the mutex because the consumer may swap it at
    /// runtime (circuit breaker flipping to `Reject` in degraded mode);
    /// blocked producers re-read it on every wakeup.
    policy: BackpressurePolicy,
}

/// Bounded MPSC admission queue. Producers [`push`](Self::push); the
/// single serving loop [`drain_into`](Self::drain_into)s what is there
/// and [`pop_wait`](Self::pop_wait)s when it has nothing else to do.
/// Share via `Arc`.
pub struct AdmissionQueue<T: Float> {
    state: Mutex<QueueState<T>>,
    /// Signalled when an item arrives or the queue closes.
    data_cv: Condvar,
    /// Signalled when space frees (for `Block` producers).
    space_cv: Condvar,
    capacity: usize,
}

impl<T: Float> AdmissionQueue<T> {
    /// A queue holding at most `capacity` requests (min 1).
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                depth: DepthStats::default(),
                policy,
            }),
            data_cv: Condvar::new(),
            space_cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The backpressure policy currently in force.
    pub fn policy(&self) -> BackpressurePolicy {
        self.state.lock().policy
    }

    /// Swaps the backpressure policy at runtime (degraded-mode entry and
    /// exit). Producers blocked under `Block` are woken so they re-apply
    /// the new policy — switching to `Reject` bounces them immediately
    /// instead of leaving them parked on a queue that will not drain.
    pub fn set_policy(&self, policy: BackpressurePolicy) {
        let mut st = self.state.lock();
        if st.policy == policy {
            return;
        }
        st.policy = policy;
        drop(st);
        self.space_cv.notify_all();
    }

    /// Submits a request, applying the backpressure policy if full.
    pub fn push(&self, req: InferRequest<T>) -> Admission<T> {
        let now = Instant::now();
        let mut st = self.state.lock();
        if st.closed {
            return Admission::Rejected(req);
        }
        let mut shed = Vec::new();
        while st.items.len() >= self.capacity {
            // Re-read each iteration: the consumer may have swapped the
            // policy while this producer was blocked.
            match st.policy {
                BackpressurePolicy::Block => {
                    self.space_cv.wait(&mut st);
                    if st.closed {
                        return Admission::Rejected(req);
                    }
                }
                BackpressurePolicy::Reject => return Admission::Rejected(req),
                BackpressurePolicy::ShedExpired => {
                    // Evict the oldest expired occupant; if every occupant
                    // is still live, the newcomer is the one shed.
                    match st.items.iter().position(|r| r.expired(now)) {
                        Some(i) => shed.push(st.items.remove(i).expect("position in bounds")),
                        None => return Admission::Shed(req),
                    }
                }
            }
        }
        st.items.push_back(req);
        let depth = st.items.len();
        st.depth.record(depth);
        drop(st);
        self.data_cv.notify_one();
        Admission::Admitted { shed }
    }

    /// Removes the oldest request, waiting until one arrives, `deadline`
    /// passes, or the queue is closed *and* drained.
    pub fn pop_wait(&self, deadline: Option<Instant>) -> Popped<T> {
        let mut st = self.state.lock();
        loop {
            if let Some(req) = st.items.pop_front() {
                drop(st);
                self.space_cv.notify_one();
                return Popped::Item(req);
            }
            if st.closed {
                return Popped::Closed;
            }
            match deadline {
                None => self.data_cv.wait(&mut st),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Popped::TimedOut;
                    }
                    self.data_cv.wait_for(&mut st, d - now);
                }
            }
        }
    }

    /// Moves up to `limit` queued requests into `sink`, oldest first,
    /// under one lock, and wakes producers blocked for space once.
    /// Returns `true` when the queue is closed and empty afterwards:
    /// nothing more will ever arrive.
    pub fn drain_into(&self, limit: usize, mut sink: impl FnMut(InferRequest<T>)) -> bool {
        let mut st = self.state.lock();
        let take = st.items.len().min(limit);
        st.items.drain(..take).for_each(&mut sink);
        let exhausted = st.closed && st.items.is_empty();
        drop(st);
        if take > 0 {
            self.space_cv.notify_all();
        }
        exhausted
    }

    /// The most requests the queue holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued requests.
    pub fn depth(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Occupancy statistics accumulated so far.
    pub fn depth_stats(&self) -> DepthStats {
        self.state.lock().depth.clone()
    }

    /// Closes the queue: future pushes are rejected, blocked producers
    /// wake with `Rejected`, and the consumer sees [`Popped::Closed`]
    /// once the backlog drains.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.data_cv.notify_all();
        self.space_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn req(id: u64) -> InferRequest<f32> {
        InferRequest::new(id, vec![vec![0.0]])
    }

    #[test]
    fn fifo_order_and_depth_accounting() {
        let q = AdmissionQueue::new(8, BackpressurePolicy::Reject);
        for id in 0..3 {
            assert!(matches!(q.push(req(id)), Admission::Admitted { .. }));
        }
        assert_eq!(q.depth(), 3);
        for id in 0..3 {
            match q.pop_wait(None) {
                Popped::Item(r) => assert_eq!(r.id, id),
                other => panic!("expected item, got {other:?}"),
            }
        }
        let d = q.depth_stats();
        assert_eq!(d.samples(), 3);
        assert_eq!(d.max(), 3);
        assert!((d.mean() - 2.0).abs() < 1e-9);
        // Percentile view of the same samples (depths 1, 2, 3).
        let s = d.summary();
        assert_eq!(s.p50_us, 2);
        assert_eq!(s.p99_us, 3);
    }

    #[test]
    fn reject_when_full() {
        let q = AdmissionQueue::new(1, BackpressurePolicy::Reject);
        assert!(matches!(q.push(req(1)), Admission::Admitted { .. }));
        match q.push(req(2)) {
            Admission::Rejected(r) => assert_eq!(r.id, 2),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn shed_expired_evicts_stale_occupant() {
        let q = AdmissionQueue::new(1, BackpressurePolicy::ShedExpired);
        // Already-expired occupant: zero budget.
        let stale = req(1).with_deadline(Duration::from_secs(0));
        assert!(matches!(q.push(stale), Admission::Admitted { .. }));
        match q.push(req(2)) {
            Admission::Admitted { shed } => {
                assert_eq!(shed.len(), 1);
                assert_eq!(shed[0].id, 1);
            }
            other => panic!("expected admission with eviction, got {other:?}"),
        }
        // Occupant 2 has no deadline, so the next arrival is shed instead.
        match q.push(req(3)) {
            Admission::Shed(r) => assert_eq!(r.id, 3),
            other => panic!("expected incoming shed, got {other:?}"),
        }
    }

    #[test]
    fn block_waits_for_space() {
        let q = Arc::new(AdmissionQueue::new(1, BackpressurePolicy::Block));
        assert!(matches!(q.push(req(1)), Admission::Admitted { .. }));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.push(req(2)));
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(q.pop_wait(None), Popped::Item(r) if r.id == 1));
        assert!(matches!(h.join().unwrap(), Admission::Admitted { .. }));
        assert!(matches!(q.pop_wait(None), Popped::Item(r) if r.id == 2));
    }

    #[test]
    fn close_drains_then_signals() {
        let q = AdmissionQueue::new(4, BackpressurePolicy::Block);
        q.push(req(1));
        q.close();
        assert!(matches!(q.push(req(2)), Admission::Rejected(_)));
        assert!(matches!(q.pop_wait(None), Popped::Item(r) if r.id == 1));
        assert!(matches!(q.pop_wait(None), Popped::Closed));
    }

    #[test]
    fn set_policy_wakes_blocked_producer_into_rejection() {
        let q = Arc::new(AdmissionQueue::new(1, BackpressurePolicy::Block));
        assert!(matches!(q.push(req(1)), Admission::Admitted { .. }));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.push(req(2)));
        std::thread::sleep(Duration::from_millis(20));
        // Degraded mode: the parked producer must bounce, not wait for a
        // drain that may never come.
        q.set_policy(BackpressurePolicy::Reject);
        match h.join().unwrap() {
            Admission::Rejected(r) => assert_eq!(r.id, 2),
            other => panic!("expected rejection after policy swap, got {other:?}"),
        }
        assert_eq!(q.policy(), BackpressurePolicy::Reject);
        // Restoring Block reinstates waiting behaviour for new pushes.
        q.set_policy(BackpressurePolicy::Block);
        assert_eq!(q.policy(), BackpressurePolicy::Block);
    }

    #[test]
    fn drain_into_moves_oldest_first_up_to_limit() {
        let q = AdmissionQueue::new(8, BackpressurePolicy::Reject);
        for id in 0..5 {
            q.push(req(id));
        }
        let mut got = Vec::new();
        assert!(!q.drain_into(3, |r| got.push(r.id)));
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(q.depth(), 2);
        assert!(!q.drain_into(0, |r| got.push(r.id)));
        assert_eq!(q.depth(), 2, "a zero limit moves nothing");
        assert!(!q.drain_into(usize::MAX, |r| got.push(r.id)));
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn drain_into_reports_closed_once_nothing_is_left() {
        let q = AdmissionQueue::new(4, BackpressurePolicy::Block);
        q.push(req(1));
        q.push(req(2));
        assert!(!q.drain_into(usize::MAX, |_| {}), "open: more may arrive");
        q.push(req(3));
        q.push(req(4));
        q.close();
        let mut got = Vec::new();
        assert!(!q.drain_into(1, |r| got.push(r.id)), "closed, one left");
        assert!(q.drain_into(1, |r| got.push(r.id)));
        assert!(q.drain_into(1, |r| got.push(r.id)));
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn drain_into_wakes_every_blocked_producer() {
        let q = Arc::new(AdmissionQueue::new(2, BackpressurePolicy::Block));
        q.push(req(1));
        q.push(req(2));
        let (tx, rx) = std::sync::mpsc::channel();
        let producers = [3, 4].map(|id| {
            let (q, tx) = (q.clone(), tx.clone());
            std::thread::spawn(move || tx.send(q.push(req(id))).expect("receiver alive"))
        });
        // Let both producers block on the full queue; if they have not
        // yet, their pushes find room and the test still passes.
        std::thread::sleep(Duration::from_millis(20));
        let mut got = Vec::new();
        q.drain_into(2, |r| got.push(r.id));
        for _ in 0..2 {
            let admission = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("one drain wakes both blocked producers");
            assert!(matches!(admission, Admission::Admitted { .. }));
        }
        for p in producers {
            p.join().expect("producer panicked");
        }
        q.drain_into(usize::MAX, |r| got.push(r.id));
        got[2..].sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4]);
    }

    #[test]
    fn pop_times_out_on_empty_queue() {
        let q: AdmissionQueue<f32> = AdmissionQueue::new(4, BackpressurePolicy::Block);
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(matches!(q.pop_wait(Some(deadline)), Popped::TimedOut));
    }
}
