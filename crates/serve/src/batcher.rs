//! Dynamic micro-batching with sequence-length bucketing.
//!
//! The batcher is a pure state machine over an injected clock (`now` is a
//! parameter everywhere), which makes its policy exhaustively testable
//! without sleeping — the property tests in `tests/proptests.rs` drive it
//! with synthetic timelines.
//!
//! Policy: requests land in a FIFO bucket keyed by tenant and quantized
//! sequence length. Whenever the executor is free, the serving loop asks
//! [`MicroBatcher::next_batch`] for a batch, and gets one whenever
//! anything is pending: the batcher never holds a request back to let its
//! bucket fill. Under load batches still fill, from the requests that
//! arrived while the previous batch ran. The bucket that goes next is
//!
//! 1. a bucket that is full (`max_batch` rows) or whose oldest member is
//!    `window` past its arrival, earliest such deadline first;
//! 2. otherwise the bucket with the oldest member.
//!
//! So `window` bounds how long full buckets may pass over a partial one;
//! it is never time the executor spends idle. With `bucket_width == 1`
//! every bucket holds exactly one sequence length, so batches need no
//! padding and the forward pass is bit-for-bit identical to serving each
//! request alone (row blocks of a GEMM accumulate independently). Wider
//! buckets trade a little padding for fuller batches.

use crate::request::InferRequest;
use bpar_tensor::Float;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How batches are formed and which one goes next.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Maximum rows per batch; a bucket holding this many is full.
    pub max_batch: usize,
    /// How long full buckets may pass over a partial one: once a bucket's
    /// oldest member is `window` past its arrival, the bucket ranks with
    /// the full ones, by that deadline. The batcher never holds a request
    /// back for this long; an idle executor takes a partial bucket at once.
    pub window: Duration,
    /// Sequence-length quantization. Lengths `l` with equal
    /// `(l - 1) / bucket_width` share a bucket; `1` means exact-length
    /// buckets and zero padding.
    pub bucket_width: usize,
}

impl BatchPolicy {
    /// Dynamic micro-batching with exact-length buckets.
    pub fn new(max_batch: usize, window: Duration) -> Self {
        Self {
            max_batch: max_batch.max(1),
            window,
            bucket_width: 1,
        }
    }

    /// Overrides the bucket width (min 1).
    pub fn with_bucket_width(mut self, width: usize) -> Self {
        self.bucket_width = width.max(1);
        self
    }

    /// Degenerate policy: one request per batch.
    pub fn batch_of_one() -> Self {
        Self::new(1, Duration::ZERO)
    }

    fn bucket_of(&self, seq_len: usize) -> usize {
        seq_len.saturating_sub(1) / self.bucket_width
    }
}

struct Bucket<T: Float> {
    /// `(tenant, quantized length)` — batches are tenant-pure, since all
    /// rows of one batch run through one tenant's model.
    key: (u32, usize),
    /// Never empty: a bucket is dropped with its last member.
    fifo: VecDeque<InferRequest<T>>,
}

/// Accumulates requests into length buckets and emits batches.
pub struct MicroBatcher<T: Float> {
    policy: BatchPolicy,
    /// Buckets in creation order (the tie-break for equal arrivals).
    buckets: Vec<Bucket<T>>,
    pending: usize,
}

impl<T: Float> MicroBatcher<T> {
    /// An empty batcher with the given policy.
    pub fn new(policy: BatchPolicy) -> Self {
        Self {
            policy,
            buckets: Vec::new(),
            pending: 0,
        }
    }

    /// The closing policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Changes the row cap at runtime (min 1). The circuit breaker uses
    /// this to degrade to singleton batches — isolating poison requests —
    /// and to restore the configured cap on recovery. Buckets already
    /// holding more than the new cap drain in cap-sized slices.
    pub fn set_max_batch(&mut self, max_batch: usize) {
        self.policy.max_batch = max_batch.max(1);
    }

    /// Requests currently waiting in buckets.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Adds a request to its `(tenant, length)` bucket.
    pub fn offer(&mut self, req: InferRequest<T>) {
        let key = (req.tenant, self.policy.bucket_of(req.seq_len()));
        self.pending += 1;
        if let Some(b) = self.buckets.iter_mut().find(|b| b.key == key) {
            b.fifo.push_back(req);
            return;
        }
        self.buckets.push(Bucket {
            key,
            fifo: VecDeque::from([req]),
        });
    }

    /// Removes and returns the batch to run at `now`; `None` only when
    /// nothing is pending. The bucket is a full or past-window one,
    /// earliest deadline first, else the one with the oldest member (see
    /// the module docs). Returns at most `max_batch` requests in
    /// bucket-FIFO order; a bucket holding more keeps the remainder, whose
    /// window runs from its own oldest member's arrival.
    pub fn next_batch(&mut self, now: Instant) -> Option<Vec<InferRequest<T>>> {
        let (max_batch, window) = (self.policy.max_batch, self.policy.window);
        // Every bucket shares the window, so ordering by the oldest
        // member's arrival is ordering by deadline. `false` sorts first:
        // due buckets, then the rest; `min_by_key` keeps the first of
        // equal keys.
        let idx = self
            .buckets
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| {
                let oldest = b.fifo[0].arrival;
                (b.fifo.len() < max_batch && now < oldest + window, oldest)
            })
            .map(|(i, _)| i)?;
        let b = &mut self.buckets[idx];
        let take = b.fifo.len().min(max_batch);
        let batch: Vec<_> = b.fifo.drain(..take).collect();
        self.pending -= batch.len();
        if b.fifo.is_empty() {
            self.buckets.remove(idx);
        }
        Some(batch)
    }

    /// Removes every queued request whose deadline has expired at `now`
    /// (the `ShedExpired` sweep). Emptied buckets are dropped.
    pub fn take_expired(&mut self, now: Instant) -> Vec<InferRequest<T>> {
        let mut expired = Vec::new();
        for b in &mut self.buckets {
            let mut kept = VecDeque::with_capacity(b.fifo.len());
            for req in b.fifo.drain(..) {
                if req.expired(now) {
                    expired.push(req);
                } else {
                    kept.push_back(req);
                }
            }
            b.fifo = kept;
        }
        self.buckets.retain(|b| !b.fifo.is_empty());
        self.pending -= expired.len();
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_at(id: u64, len: usize, base: Instant, offset_us: u64) -> InferRequest<f32> {
        let mut r = InferRequest::new(id, vec![vec![0.0]; len]);
        r.arrival = base + Duration::from_micros(offset_us);
        r
    }

    fn ids(batch: &[InferRequest<f32>]) -> Vec<u64> {
        batch.iter().map(|r| r.id).collect()
    }

    fn next_ids(mb: &mut MicroBatcher<f32>, now: Instant) -> Vec<u64> {
        ids(&mb.next_batch(now).expect("requests are pending"))
    }

    #[test]
    fn closes_on_max_batch() {
        // A full bucket goes before an older partial one inside its window.
        let base = Instant::now();
        let mut mb = MicroBatcher::new(BatchPolicy::new(2, Duration::from_secs(10)));
        mb.offer(req_at(1, 7, base, 0));
        mb.offer(req_at(2, 5, base, 1));
        mb.offer(req_at(3, 5, base, 2));
        assert_eq!(next_ids(&mut mb, base), vec![2, 3]);
        assert_eq!(next_ids(&mut mb, base), vec![1]);
        assert_eq!(mb.pending(), 0);
        assert!(mb.next_batch(base).is_none());
    }

    #[test]
    fn closes_on_window_expiry() {
        // A partial bucket past its window ranks with the full ones by
        // deadline, so it goes before a younger full bucket.
        let base = Instant::now();
        let window = Duration::from_millis(2);
        let fill = || {
            let mut mb = MicroBatcher::new(BatchPolicy::new(2, window));
            mb.offer(req_at(1, 7, base, 0));
            mb.offer(req_at(2, 5, base, 1_000));
            mb.offer(req_at(3, 5, base, 1_001));
            mb
        };
        let mut inside = fill();
        assert_eq!(next_ids(&mut inside, base + window / 2), vec![2, 3]);
        let mut expired = fill();
        assert_eq!(next_ids(&mut expired, base + window), vec![1]);
        assert_eq!(next_ids(&mut expired, base + window), vec![2, 3]);
    }

    #[test]
    fn buckets_separate_lengths() {
        let base = Instant::now();
        let mut mb = MicroBatcher::new(BatchPolicy::new(2, Duration::from_secs(10)));
        mb.offer(req_at(1, 5, base, 0));
        mb.offer(req_at(2, 7, base, 0));
        mb.offer(req_at(3, 7, base, 0));
        assert_eq!(next_ids(&mut mb, base), vec![2, 3], "len-7 bucket is full");
        assert_eq!(next_ids(&mut mb, base), vec![1]);
    }

    #[test]
    fn bucket_width_merges_nearby_lengths() {
        let base = Instant::now();
        let policy = BatchPolicy::new(2, Duration::from_secs(10)).with_bucket_width(4);
        let mut mb = MicroBatcher::new(policy);
        mb.offer(req_at(1, 5, base, 0)); // bucket (5-1)/4 = 1
        mb.offer(req_at(2, 8, base, 0)); // bucket (8-1)/4 = 1
        assert_eq!(next_ids(&mut mb, base), vec![1, 2], "shared bucket");
    }

    #[test]
    fn tenants_never_share_a_batch() {
        let base = Instant::now();
        let mut mb = MicroBatcher::new(BatchPolicy::new(2, Duration::from_secs(10)));
        mb.offer(req_at(1, 5, base, 0).with_tenant(0));
        mb.offer(req_at(2, 5, base, 0).with_tenant(1));
        mb.offer(req_at(3, 5, base, 0).with_tenant(1));
        let batch = mb.next_batch(base).expect("tenant-1 bucket is full");
        assert!(batch.iter().all(|r| r.tenant == 1));
        assert_eq!(ids(&batch), vec![2, 3]);
        assert_eq!(next_ids(&mut mb, base), vec![1]);
    }

    #[test]
    fn force_drains_partial_buckets() {
        // Nothing full, nothing past its window: the oldest member's bucket
        // still goes, so every pending request leaves without waiting.
        let base = Instant::now();
        let mut mb = MicroBatcher::new(BatchPolicy::new(8, Duration::from_secs(10)));
        mb.offer(req_at(1, 9, base, 1));
        mb.offer(req_at(2, 5, base, 0));
        assert_eq!(next_ids(&mut mb, base), vec![2]);
        assert_eq!(next_ids(&mut mb, base), vec![1]);
        assert_eq!(mb.pending(), 0);
        assert!(mb.next_batch(base).is_none());
    }

    #[test]
    fn oversized_bucket_keeps_remainder_with_new_deadline() {
        let base = Instant::now();
        let window = Duration::from_millis(5);
        let mut mb = MicroBatcher::new(BatchPolicy::new(2, window));
        for (id, off) in [(1u64, 0u64), (2, 100), (3, 200)] {
            mb.offer(req_at(id, 5, base, off));
        }
        assert_eq!(next_ids(&mut mb, base), vec![1, 2]);
        assert_eq!(mb.pending(), 1);
        // The remainder's deadline is request 3's arrival plus the window,
        // not request 1's: 100 µs past the old one it is not yet due, and a
        // younger full bucket goes first.
        mb.offer(req_at(4, 7, base, 300));
        mb.offer(req_at(5, 7, base, 301));
        let old_deadline = base + window;
        assert_eq!(
            next_ids(&mut mb, old_deadline + Duration::from_micros(100)),
            vec![4, 5]
        );
        // At its own deadline it goes before a younger full bucket.
        mb.offer(req_at(6, 7, base, 400));
        mb.offer(req_at(7, 7, base, 401));
        let new_deadline = base + Duration::from_micros(200) + window;
        assert_eq!(next_ids(&mut mb, new_deadline), vec![3]);
        assert_eq!(next_ids(&mut mb, new_deadline), vec![6, 7]);
    }

    #[test]
    fn set_max_batch_degrades_to_singletons_and_restores() {
        let base = Instant::now();
        let mut mb = MicroBatcher::new(BatchPolicy::new(4, Duration::from_secs(10)));
        for id in 0..4u64 {
            mb.offer(req_at(id, 5, base, 0));
        }
        mb.set_max_batch(1);
        assert_eq!(next_ids(&mut mb, base), vec![0], "singleton cap");
        mb.set_max_batch(4);
        assert_eq!(next_ids(&mut mb, base), vec![1, 2, 3], "restored cap");
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn take_expired_sweeps_only_expired() {
        let base = Instant::now();
        let mut mb = MicroBatcher::new(BatchPolicy::new(8, Duration::from_secs(10)));
        let mut live = req_at(1, 5, base, 0);
        live.deadline = Some(Duration::from_secs(100));
        let mut stale = req_at(2, 5, base, 0);
        stale.deadline = Some(Duration::from_micros(1));
        mb.offer(live);
        mb.offer(stale);
        let swept = mb.take_expired(base + Duration::from_millis(1));
        assert_eq!(ids(&swept), vec![2]);
        assert_eq!(mb.pending(), 1);
    }
}
