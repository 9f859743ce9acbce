//! Seeded inputs: the train/infer batch, and per round the pre-built
//! requests of the closed and the open phase with the open phase's
//! Poisson schedule. Everything is a pure function of `(workload, seed)`,
//! except the schedule, which also takes the round so that the median
//! over rounds averages over arrival orders instead of repeating one.

use crate::spec::Workload;
use bpar_core::exec::Target;
use bpar_core::model::ModelKind;
use bpar_data::tidigits::TidigitsDataset;
use bpar_serve::InferRequest;
use bpar_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Utterance index of the first row of the train/infer batch; request
/// `id` uses utterance `id`, far below this.
const BATCH_FIRST_UTTERANCE: u64 = 1_000_000;

/// The train/infer batch of a workload: generated inside the timed
/// set-up, as a user loading data would.
pub struct Batch {
    /// One `rows × input` matrix per timestep.
    pub xs: Vec<Matrix<f32>>,
    pub target: Target,
}

/// The pre-built requests of one round's serve phases: generated before
/// the round's timers start.
pub struct Requests {
    pub closed: Vec<InferRequest<f32>>,
    pub open: Vec<InferRequest<f32>>,
    /// Due time of each open request, from the phase's start.
    pub offsets: Vec<Duration>,
    /// Mean time `TidigitsDataset::utterance` took per utterance.
    pub gen_us_per_utt: f64,
}

/// Shortest and longest request of a workload: `mean ∓ len_spread`.
pub fn length_range(w: &Workload) -> (usize, usize) {
    let mean = w.mean_frames as f64;
    (
        (mean * (1.0 - w.len_spread)) as usize,
        (mean * (1.0 + w.len_spread)) as usize,
    )
}

/// Coprime with every workload's number of lengths (25, 10, 1), so that
/// stepping by it visits each length once per block.
const LENGTH_STRIDE: u64 = 7;

/// Where requests come from: seeded utterances, cut to a length schedule.
pub struct Source {
    data: TidigitsDataset,
    seed: u64,
}

impl Source {
    /// The dataset's mean is set so that its shortest utterance (65 % of
    /// the mean) still has the longest request's frames: a request is
    /// always a cut utterance, never a padded one.
    pub fn new(w: &Workload, seed: u64) -> Self {
        let longest = length_range(w).1.max(w.models[0].seq_len);
        let mean = (longest as f64 / 0.65).ceil() as usize + 1;
        Self {
            data: TidigitsDataset::new(w.models[0].input_size, mean, seed),
            seed,
        }
    }

    pub fn feature_dim(&self) -> usize {
        self.data.feature_dim
    }

    /// Frames of request `id`. Every block of consecutive ids carries
    /// every length of the range exactly once, so each run sees the same
    /// mix of lengths whatever its seed; the seed moves only their order
    /// (and the contents). Drawing lengths at random instead made the tail
    /// latency of `serve_shapes` differ by a sixth between seeds.
    fn request_len(&self, w: &Workload, id: u64) -> usize {
        let (lo, hi) = length_range(w);
        let span = (hi - lo + 1) as u64;
        let block = id / span;
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let shift = rng.gen_range(0..span);
        lo + (((id % span) * LENGTH_STRIDE + shift) % span) as usize
    }

    /// Request `id`: utterance `id` cut to its scheduled length, for
    /// tenant `id mod tenants`.
    pub fn request(&self, w: &Workload, id: u64) -> InferRequest<f32> {
        let mut frames = self.data.utterance::<f32>(id).frames;
        let len = self.request_len(w, id);
        assert!(frames.len() >= len, "utterance shorter than its request");
        frames.truncate(len);
        InferRequest::new(id, frames).with_tenant((id % w.models.len() as u64) as u32)
    }
}

/// Requests per block of the open-loop schedule.
const SCHEDULE_BLOCK: usize = 15;

/// Due times of `n` open-loop requests at `rate` per second. The gaps are
/// the `n` quantile midpoints of the exponential distribution, dealt into
/// blocks of [`SCHEDULE_BLOCK`] like cards (every block gets short and
/// long gaps alike) and shuffled inside each block by seed and round.
/// Every schedule therefore has exactly the Poisson process's gap
/// distribution and offers exactly the same load over exactly the same
/// time, in every stretch of fifteen requests; seed and round move only
/// where the bursts and lulls fall inside a stretch. Drawing the gaps
/// independently let the load a round actually offered wander by
/// `1/sqrt(n)` — 8 % at 150 requests — and the latency percentiles with it.
fn schedule(n: usize, rate: f64, seed: u64, round: usize) -> Vec<Duration> {
    let quantile = |i: usize| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate;
    let blocks = n.div_ceil(SCHEDULE_BLOCK);
    let mut rng =
        SmallRng::seed_from_u64(seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut at = 0.0f64;
    let mut offsets = Vec::with_capacity(n);
    for block in 0..blocks {
        let mut gaps: Vec<f64> = (block..n).step_by(blocks).map(quantile).collect();
        for i in (1..gaps.len()).rev() {
            gaps.swap(i, rng.gen_range(0..i + 1));
        }
        for gap in gaps {
            at += gap;
            offsets.push(Duration::from_secs_f64(at));
        }
    }
    offsets
}

impl Batch {
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let cfg = &w.models[0];
        let (xs, labels) =
            Source::new(w, seed)
                .data
                .batch::<f32>(BATCH_FIRST_UTTERANCE, w.rows, cfg.seq_len);
        let target = match cfg.kind {
            ModelKind::ManyToOne => Target::Classes(labels),
            ModelKind::ManyToMany => Target::SeqClasses(vec![labels; cfg.seq_len]),
        };
        Self { xs, target }
    }
}

impl Requests {
    /// `divide` shrinks the request counts (smoke runs only).
    pub fn generate(w: &Workload, seed: u64, round: usize, divide: usize) -> Self {
        let source = Source::new(w, seed);
        let n_closed = (w.closed_requests / divide).max(1) as u64;
        let n_open = (w.open_requests / divide).max(1) as u64;
        let t0 = Instant::now();
        let closed: Vec<_> = (0..n_closed).map(|id| source.request(w, id)).collect();
        let open: Vec<_> = (n_closed..n_closed + n_open)
            .map(|id| source.request(w, id))
            .collect();
        let gen_us_per_utt = t0.elapsed().as_secs_f64() * 1e6 / (n_closed + n_open) as f64;
        Self {
            closed,
            open,
            offsets: schedule(n_open as usize, w.open_rate_rps, seed, round),
            gen_us_per_utt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workloads;

    #[test]
    fn same_seed_same_inputs_and_rounds_differ_only_in_schedule() {
        for w in workloads() {
            let a = Requests::generate(&w, 5, 0, 8);
            let b = Requests::generate(&w, 5, 0, 8);
            let c = Requests::generate(&w, 5, 1, 8);
            let d = Requests::generate(&w, 6, 0, 8);
            assert_eq!(a.offsets, b.offsets);
            assert_ne!(a.offsets, c.offsets);
            // Whatever seed and round, the same gaps over the same time.
            assert_eq!(a.offsets.len(), a.open.len());
            let took = |r: &Requests| r.offsets.last().unwrap().as_secs_f64();
            assert!((took(&a) - took(&c)).abs() < 1e-6 && (took(&a) - took(&d)).abs() < 1e-6);
            let batch = |seed| Batch::generate(&w, seed).xs[0].as_slice().to_vec();
            assert_eq!(batch(5), batch(5));
            assert_ne!(batch(5), batch(6));
            for (x, y) in a.open.iter().zip(&c.open) {
                assert_eq!((x.id, x.tenant, &x.frames), (y.id, y.tenant, &y.frames));
            }
            assert!(a.offsets.windows(2).all(|p| p[0] <= p[1]));
            // Whatever the seed, a block of requests has every length once.
            let (lo, hi) = length_range(&w);
            let span = hi - lo + 1;
            for inputs in [&a, &d] {
                let requests = inputs.closed.iter().chain(&inputs.open);
                let mut block: Vec<usize> = requests.take(span).map(|r| r.frames.len()).collect();
                block.sort_unstable();
                assert_eq!(block, (lo..=hi).collect::<Vec<_>>(), "{}", w.name);
            }
            assert!(a
                .closed
                .iter()
                .all(|r| (r.tenant as usize) < w.models.len()));
        }
    }
}
