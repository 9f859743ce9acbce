//! Property tests for the micro-batcher:
//!
//! 1. `next_batch` returns a batch whenever requests are pending;
//! 2. no emitted batch exceeds `max_batch` or mixes buckets, and requests
//!    sharing a bucket leave in arrival order;
//! 3. once a bucket's oldest member is `window` past arrival, that bucket
//!    goes before every younger bucket;
//! 4. a full bucket goes before an older partial bucket still inside its
//!    window;
//! 5. under `ShedExpired`-style sweeping, every offered request is either
//!    served or shed — exactly once, none lost.
//!
//! The batcher takes `now` as a parameter everywhere, so these drive it
//! over fully synthetic timelines: a base `Instant` plus generated
//! microsecond offsets, no sleeping. A shadow of the buckets (what was
//! offered and not yet emitted, per bucket, in arrival order) is recorded
//! before every call, and each property is checked against it.

use bpar_serve::batcher::{BatchPolicy, MicroBatcher};
use bpar_serve::request::InferRequest;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One generated step: an offer (sequence length, gap since the previous
/// step, an optional deadline budget; times in microseconds), then how
/// many times the executor frees up and asks for a batch before the next
/// offer.
type Op = (usize, u64, Option<u64>, usize);

/// Pending requests per bucket key, each bucket in arrival order:
/// `(id, arrival)`.
type Shadow = BTreeMap<usize, Vec<(u64, Instant)>>;

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            1usize..12,
            0u64..400,
            prop_oneof![
                Just(None),
                (1u64..2_000).prop_map(Some),
                (2_000u64..50_000).prop_map(Some),
            ],
            0usize..3,
        ),
        1..max_ops,
    )
}

fn build_request(
    id: u64,
    len: usize,
    arrival: Instant,
    deadline_us: Option<u64>,
) -> InferRequest<f32> {
    let mut req = InferRequest::new(id, vec![vec![0.0]; len]);
    req.arrival = arrival;
    req.deadline = deadline_us.map(Duration::from_micros);
    req
}

/// One `next_batch` call: when, the buckets it chose from, and what it
/// returned as `(id, len)` pairs.
struct Call {
    now: Instant,
    before: Shadow,
    batch: Option<Vec<(u64, usize)>>,
}

impl Call {
    /// The bucket key the batch came from.
    fn key(&self, bucket_width: usize) -> Option<usize> {
        let (_, len) = self.batch.as_ref()?.first()?;
        Some((len - 1) / bucket_width)
    }
}

struct Replay {
    calls: Vec<Call>,
    shed: Vec<u64>,
    offered: usize,
}

/// Replays `ops` through a batcher, asking for batches as the ops say and
/// draining with `next_batch` at the end. Requests past their deadline are
/// swept (and reported in `shed`) only with `sweep_expired`.
fn replay(policy: BatchPolicy, ops: &[Op], sweep_expired: bool) -> Replay {
    let base = Instant::now();
    let key = |len: usize| (len - 1) / policy.bucket_width;
    let mut mb: MicroBatcher<f32> = MicroBatcher::new(policy);
    let mut shadow = Shadow::new();
    let mut now = base;
    let mut calls = Vec::new();
    let mut shed = Vec::new();
    let mut sweep = |mb: &mut MicroBatcher<f32>, shadow: &mut Shadow, now: Instant| {
        if !sweep_expired {
            return;
        }
        let swept: Vec<u64> = mb.take_expired(now).iter().map(|r| r.id).collect();
        for bucket in shadow.values_mut() {
            bucket.retain(|(id, _)| !swept.contains(id));
        }
        shadow.retain(|_, bucket| !bucket.is_empty());
        shed.extend(swept);
    };
    let call = |mb: &mut MicroBatcher<f32>, shadow: &mut Shadow, now: Instant| {
        let before = shadow.clone();
        let batch: Option<Vec<(u64, usize)>> = mb
            .next_batch(now)
            .map(|b| b.iter().map(|r| (r.id, r.seq_len())).collect());
        for (id, len) in batch.iter().flatten() {
            let bucket = shadow
                .get_mut(&key(*len))
                .expect("emitted from a live bucket");
            bucket.retain(|(i, _)| i != id);
            if bucket.is_empty() {
                shadow.remove(&key(*len));
            }
        }
        Call { now, before, batch }
    };
    for (id, &(len, gap_us, deadline_us, frees)) in ops.iter().enumerate() {
        now += Duration::from_micros(gap_us);
        mb.offer(build_request(id as u64, len, now, deadline_us));
        shadow.entry(key(len)).or_default().push((id as u64, now));
        sweep(&mut mb, &mut shadow, now);
        for _ in 0..frees {
            calls.push(call(&mut mb, &mut shadow, now));
        }
    }
    // Shutdown drain: one last sweep, then ask until nothing is left, and
    // once more.
    now += Duration::from_micros(1_000);
    sweep(&mut mb, &mut shadow, now);
    loop {
        let c = call(&mut mb, &mut shadow, now);
        let done = c.batch.is_none();
        calls.push(c);
        if done {
            break;
        }
    }
    assert_eq!(mb.pending(), 0);
    assert!(shadow.is_empty());
    Replay {
        calls,
        shed,
        offered: ops.len(),
    }
}

fn policy(max_batch: usize, window_us: u64, bucket_width: usize) -> BatchPolicy {
    BatchPolicy::new(max_batch, Duration::from_micros(window_us)).with_bucket_width(bucket_width)
}

proptest! {
    #[test]
    fn next_batch_returns_a_batch_whenever_requests_are_pending(
        max_batch in 1usize..6,
        window_us in 1u64..5_000,
        bucket_width in 1usize..4,
        ops in ops_strategy(80),
    ) {
        let run = replay(policy(max_batch, window_us, bucket_width), &ops, false);
        for c in &run.calls {
            let pending: usize = c.before.values().map(Vec::len).sum();
            prop_assert_eq!(c.batch.is_some(), pending > 0, "{} pending", pending);
        }
    }

    #[test]
    fn no_batch_exceeds_max_batch(
        max_batch in 1usize..6,
        window_us in 1u64..5_000,
        bucket_width in 1usize..4,
        ops in ops_strategy(80),
    ) {
        let run = replay(policy(max_batch, window_us, bucket_width), &ops, false);
        let batches: Vec<&Vec<(u64, usize)>> = run.calls.iter().flat_map(|c| &c.batch).collect();
        for batch in &batches {
            prop_assert!(!batch.is_empty());
            prop_assert!(batch.len() <= max_batch);
        }
        let emitted: usize = batches.iter().map(|b| b.len()).sum();
        prop_assert_eq!(emitted, run.offered);
    }

    #[test]
    fn within_bucket_fifo_order_is_preserved(
        max_batch in 1usize..6,
        window_us in 1u64..5_000,
        bucket_width in 1usize..4,
        ops in ops_strategy(80),
    ) {
        let run = replay(policy(max_batch, window_us, bucket_width), &ops, false);
        for c in &run.calls {
            let Some(batch) = &c.batch else { continue };
            let keys: Vec<usize> = batch.iter().map(|(_, len)| (len - 1) / bucket_width).collect();
            prop_assert!(keys.windows(2).all(|w| w[0] == w[1]), "batch mixes buckets");
            // The batch is the front of its bucket: as many of the oldest
            // members as fit.
            let bucket = &c.before[&keys[0]];
            let front: Vec<u64> = bucket.iter().take(max_batch).map(|(id, _)| *id).collect();
            let ids: Vec<u64> = batch.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(ids, front, "bucket {} not served oldest first", keys[0]);
        }
    }

    #[test]
    fn a_bucket_past_its_window_goes_before_every_younger_bucket(
        max_batch in 1usize..6,
        window_us in 1u64..5_000,
        bucket_width in 1usize..4,
        ops in ops_strategy(80),
    ) {
        let window = Duration::from_micros(window_us);
        let run = replay(policy(max_batch, window_us, bucket_width), &ops, false);
        for c in &run.calls {
            let Some(chosen) = c.key(bucket_width) else { continue };
            let oldest = |key: &usize| c.before[key][0].1;
            for key in c.before.keys().filter(|k| c.now >= oldest(k) + window) {
                prop_assert!(
                    oldest(&chosen) <= oldest(key),
                    "bucket {} past its window was passed over for younger bucket {}",
                    key, chosen
                );
            }
        }
    }

    #[test]
    fn a_full_bucket_goes_before_an_older_partial_one_inside_its_window(
        max_batch in 1usize..6,
        window_us in 1u64..5_000,
        bucket_width in 1usize..4,
        ops in ops_strategy(80),
    ) {
        let window = Duration::from_micros(window_us);
        let run = replay(policy(max_batch, window_us, bucket_width), &ops, false);
        for c in &run.calls {
            let Some(chosen) = c.key(bucket_width) else { continue };
            if !c.before.values().any(|b| b.len() >= max_batch) {
                continue;
            }
            let bucket = &c.before[&chosen];
            prop_assert!(
                bucket.len() >= max_batch || c.now >= bucket[0].1 + window,
                "partial bucket {} inside its window went before a full one",
                chosen
            );
        }
    }

    #[test]
    fn shed_expired_conserves_every_request(
        max_batch in 1usize..6,
        window_us in 1u64..5_000,
        ops in ops_strategy(60),
    ) {
        let run = replay(policy(max_batch, window_us, 1), &ops, true);
        let mut seen = vec![0u32; run.offered];
        for (id, _) in run.calls.iter().flat_map(|c| c.batch.iter().flatten()) {
            seen[*id as usize] += 1;
        }
        for id in &run.shed {
            seen[*id as usize] += 1;
        }
        for (id, count) in seen.iter().enumerate() {
            prop_assert_eq!(*count, 1, "request {} emitted {} times", id, count);
        }
    }
}
