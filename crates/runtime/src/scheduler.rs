//! Ready-queue policies.
//!
//! The paper's B-Par configuration uses a *breadth-first task scheduler
//! with a single global ready queue* ordered FIFO, plus a *locality-aware
//! mechanism* that "schedules a task to run on the same core as a
//! predecessor if the task accesses a piece of data that was already read
//! or written by the predecessor" (§IV-A). [`ReadySet`] is a facade over
//! two queue organisations, so the live runtime, the simulator and the
//! schedule fuzzer are all policy-agnostic:
//!
//! * **Global queue** — one FIFO `VecDeque` shared by every worker:
//!   * [`SchedulerPolicy::Fifo`] — a worker always takes the oldest ready
//!     task (locality-oblivious baseline of Fig. 7);
//!   * [`SchedulerPolicy::LocalityAware`] — a worker first scans a bounded
//!     window at the front of the queue for a task whose predecessor ran
//!     on it (its caches are warm with that task's inputs) and falls back
//!     to the queue front otherwise. Keeping the single global queue
//!     preserves breadth-first fairness — a strict per-core queue would
//!     let a worker hoard its own dependency chain and starve older ready
//!     work;
//!   * [`SchedulerPolicy::Adversarial`] — fuzzing orders for
//!     `bpar-verify`.
//! * **Per-worker deques** — [`SchedulerPolicy::WorkStealing`], the
//!   post-paper design from "Advanced Synchronization Techniques for
//!   Task-based Runtime Systems" (ROADMAP item 4): a task released by
//!   worker `w` lands at the *bottom* of `w`'s deque; the owner pushes
//!   and pops LIFO at the bottom (hot chain stays in its cache), thieves
//!   steal FIFO from the *top* (the victim's oldest, coldest task).
//!   Victim selection is locality-aware: a thief retries the worker it
//!   last stole from (chains released by one producer stay paired with
//!   one consumer) before round-robining. Untagged tasks (roots, live
//!   submissions) go to a shared injector FIFO; every
//!   [`INJECTOR_POLL`]-th pop a worker drains the injector *first*, so an
//!   old untagged task cannot starve behind owners churning their own
//!   chains.
//!
//! Mid-queue removals (random adversarial draws, scripted extraction of
//! a task that can sit anywhere) use **swap-to-front removal** (`O(1)`:
//! swap the victim to the front, pop the front) instead of
//! `VecDeque::remove`, which shifts every element on the shorter side of
//! the removal point — `O(n²)` over a drain of a deep queue. The element
//! previously at the front takes the removed task's slot, so the
//! *relative* order of untouched tasks is perturbed — acceptable there
//! because fuzz schedules only promise per-seed determinism. The
//! paper-parity policies stay order-preserving and bit-identical:
//! pure-FIFO pops never remove mid-queue, and the affinity scan keeps
//! `VecDeque::remove`, which is already `O(window)` because the scan
//! window bounds the shorter side it shifts.
//!
//! The same type drives both the live runtime and the multi-core
//! simulator, so Fig. 7 compares identical policies.

use std::collections::VecDeque;
use std::sync::Arc;

/// How many pops a worker may serve from its own deque before it must
/// poll the shared injector first (work-stealing fairness bound; see the
/// starvation test).
pub const INJECTOR_POLL: u64 = 64;

/// A scripted pop order (see [`ReadySet::set_script`]).
#[derive(Debug)]
struct Script {
    order: Arc<[usize]>,
    cursor: usize,
    /// First worker that performed a scripted pop; `set_script`'s
    /// contract says every later scripted pop must come from the same
    /// worker (checked in debug builds).
    driver: Option<usize>,
}

/// Which ready-queue discipline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Global FIFO; a ready task runs on whichever worker asks first.
    Fifo,
    /// Global FIFO with an affinity scan: a task released by a
    /// predecessor that ran on worker `w` is preferentially taken by `w`.
    #[default]
    LocalityAware,
    /// Per-worker work-stealing deques with a shared injector: owners
    /// push/pop LIFO at the bottom, thieves steal FIFO from the top,
    /// victims are selected locality-first. Pairs with the runtime's
    /// immediate-successor execution (a completing task's first released
    /// successor runs on the same worker without touching any queue).
    WorkStealing,
    /// Deterministic adversarial order for the schedule fuzzer
    /// (`bpar-verify`): deliberately *not* the submission-biased FIFO
    /// order, so an undeclared dependency whose effects happen to line up
    /// under FIFO is driven out of hiding. Any legal topological order
    /// must produce bit-identical results; a divergence under one of
    /// these orders is a concrete race witness.
    Adversarial(AdversarialOrder),
}

impl SchedulerPolicy {
    /// Parses the CLI names of the three serving-facing policies
    /// (adversarial orders are verify-internal and not parseable).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fifo" => Some(Self::Fifo),
            "locality" => Some(Self::LocalityAware),
            "work-stealing" | "stealing" => Some(Self::WorkStealing),
            _ => None,
        }
    }

    /// Stable CLI/report name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Fifo => "fifo",
            Self::LocalityAware => "locality",
            Self::WorkStealing => "work-stealing",
            Self::Adversarial(_) => "adversarial",
        }
    }
}

/// How [`SchedulerPolicy::Adversarial`] permutes the ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialOrder {
    /// Newest ready task first (LIFO) — depth-first where FIFO is
    /// breadth-first, reversing sibling execution order.
    Reverse,
    /// Seeded xorshift pick among all ready tasks; the same seed always
    /// replays the same schedule on a single worker.
    ///
    /// The draw is mapped onto the queue with a widening multiply rather
    /// than `rng % len`, so every ready position is equiprobable. Two
    /// changes have altered the seed→schedule mapping over time (each
    /// still deterministic per seed): the modulo-bias fix, and the switch
    /// to swap-to-front removal, which perturbs the relative order of the
    /// tasks left behind by a mid-queue pick. Recorded schedules or
    /// divergence witnesses keyed to old seeds do not transfer.
    Random(u64),
}

/// Per-worker deques plus a shared injector (the
/// [`SchedulerPolicy::WorkStealing`] organisation).
#[derive(Debug)]
struct DequeSet {
    /// One deque per worker. The owner treats the *back* as the bottom
    /// (LIFO push/pop); thieves steal from the *front* (the top).
    local: Vec<VecDeque<usize>>,
    /// Tasks with no release affinity: roots and untagged submissions.
    injector: VecDeque<usize>,
    /// Last victim each worker successfully stole from — tried first on
    /// the next steal, so a producer/consumer pair stays paired.
    last_victim: Vec<usize>,
    /// Per-worker pop counter driving the periodic injector poll.
    pops: Vec<u64>,
    /// Total ready tasks across the injector and every deque.
    len: usize,
}

impl DequeSet {
    fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            local: (0..workers).map(|_| VecDeque::new()).collect(),
            injector: VecDeque::new(),
            last_victim: vec![0; workers],
            pops: vec![0; workers],
            len: 0,
        }
    }

    fn push(&mut self, task: usize, preferred: Option<usize>) {
        match preferred {
            Some(w) if w < self.local.len() => self.local[w].push_back(task),
            _ => self.injector.push_back(task),
        }
        self.len += 1;
    }

    fn pop(&mut self, worker: usize) -> Option<usize> {
        // Fairness: a periodic forced injector poll bounds how long an
        // untagged task can wait behind owners churning their own chains.
        if let Some(count) = self.pops.get_mut(worker) {
            *count += 1;
            if *count % INJECTOR_POLL == 0 {
                if let Some(t) = self.injector.pop_front() {
                    self.len -= 1;
                    return Some(t);
                }
            }
        }
        // 1. Own deque, bottom first: the task this worker released last,
        //    whose inputs are hottest in its cache.
        if let Some(q) = self.local.get_mut(worker) {
            if let Some(t) = q.pop_back() {
                self.len -= 1;
                return Some(t);
            }
        }
        // 2. Shared injector (oldest untagged work).
        if let Some(t) = self.injector.pop_front() {
            self.len -= 1;
            return Some(t);
        }
        // 3. Steal from the top of a victim's deque — its oldest, coldest
        //    task, leaving the victim's hot bottom alone. Locality-aware
        //    victim order: last successful victim first, then round-robin.
        let n = self.local.len();
        let start = self.last_victim.get(worker).copied().unwrap_or(0) % n.max(1);
        for i in 0..n {
            let v = (start + i) % n;
            if v == worker {
                continue;
            }
            if let Some(t) = self.local[v].pop_front() {
                if let Some(lv) = self.last_victim.get_mut(worker) {
                    *lv = v;
                }
                self.len -= 1;
                return Some(t);
            }
        }
        None
    }

    /// Removes a specific task wherever it sits (scripted pops only).
    fn remove_task(&mut self, want: usize) -> Option<usize> {
        if let Some(pos) = self.injector.iter().position(|&t| t == want) {
            self.injector.swap(0, pos);
            self.len -= 1;
            return self.injector.pop_front();
        }
        for q in &mut self.local {
            if let Some(pos) = q.iter().position(|&t| t == want) {
                q.swap(0, pos);
                self.len -= 1;
                return q.pop_front();
            }
        }
        None
    }
}

/// The two queue organisations behind the facade.
#[derive(Debug)]
enum Queues {
    /// One global FIFO shared by every worker; tasks keep their
    /// released-by tag so the policy is applied at *pop* time.
    Global(VecDeque<(usize, Option<usize>)>),
    /// Per-worker work-stealing deques.
    Deques(DequeSet),
}

/// Swap-to-front removal: `O(1)` where `VecDeque::remove` shifts the
/// shorter side of the removal point. The former front element takes the
/// removed slot, perturbing the relative order of what remains — so this
/// is reserved for the paths where `pos` can sit mid-queue (random
/// adversarial draws, scripted mid-queue extraction). Paper-parity paths
/// keep order-preserving removal: FIFO pops only at the ends, and the
/// locality scan uses `VecDeque::remove`, which is already `O(window)`
/// there because `pos ≤ window` bounds the shorter side it shifts —
/// keeping committed LocalityAware figure runs bit-identical.
fn take_at<T>(q: &mut VecDeque<T>, pos: usize) -> Option<T> {
    q.swap(0, pos);
    q.pop_front()
}

/// The set of ready-to-run tasks, organised according to a policy.
///
/// Task ids are opaque `usize`s so both the live runtime
/// ([`crate::Runtime`]) and the simulator can use this type.
#[derive(Debug)]
pub struct ReadySet {
    policy: SchedulerPolicy,
    queues: Queues,
    /// How deep into the global queue the affinity scan may look.
    window: usize,
    /// xorshift64 state for [`AdversarialOrder::Random`].
    rng: u64,
    /// When set, overrides the policy: pops follow this exact task order.
    script: Option<Script>,
}

impl ReadySet {
    /// Ready set for `workers` workers under `policy`.
    pub fn new(policy: SchedulerPolicy, workers: usize) -> Self {
        let rng = match policy {
            // xorshift needs a nonzero state; remap only the zero seed so
            // distinct seeds never collapse onto the same schedule.
            SchedulerPolicy::Adversarial(AdversarialOrder::Random(0)) => 0x9E37_79B9_7F4A_7C15,
            SchedulerPolicy::Adversarial(AdversarialOrder::Random(seed)) => seed,
            _ => 1,
        };
        let queues = match policy {
            SchedulerPolicy::WorkStealing => Queues::Deques(DequeSet::new(workers)),
            _ => Queues::Global(VecDeque::new()),
        };
        Self {
            policy,
            queues,
            // Scanning ~2 tasks per worker keeps the affinity hit rate
            // high (each worker's resident chains release about that many
            // tasks) while bounding the cost of a pop.
            window: (2 * workers).max(8),
            rng,
            script: None,
        }
    }

    /// Installs (or clears, with `None`) a scripted pop order: while set,
    /// [`ReadySet::pop`] returns the scripted task ids in order, skipping
    /// the policy entirely. Used by the schedule-exploration prong of
    /// `bpar-verify` to replay one specific dependency-consistent
    /// topological order per run.
    ///
    /// A scripted task that is not yet ready falls back to the policy pop
    /// without advancing the script — that cannot happen when the script
    /// is a valid topological order driven by a single worker, where every
    /// prefix of the script has completed before the next pop. Debug
    /// builds assert the single-worker part of that contract.
    pub fn set_script(&mut self, order: Option<Arc<[usize]>>) {
        self.script = order.map(|order| Script {
            order,
            cursor: 0,
            driver: None,
        });
    }

    /// True while a scripted pop order is installed. The runtime's wakeup
    /// accounting must not assume a completing worker takes one of the
    /// tasks it just released when a script may withhold it.
    pub fn script_active(&self) -> bool {
        self.script.is_some()
    }

    /// True when the runtime may hand a completing task's first released
    /// successor directly to the same worker without queueing it
    /// (immediate-successor execution). Only the work-stealing policy opts
    /// in: the global-queue policies define their schedules *through* the
    /// queue (FIFO parity, fuzzing orders), and a script must see every
    /// ready task to stay faithful.
    pub fn direct_handoff(&self) -> bool {
        matches!(self.policy, SchedulerPolicy::WorkStealing) && self.script.is_none()
    }

    /// The active policy.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// Enqueues a ready task. `preferred` is the worker that completed the
    /// predecessor which released this task. The tag is stored under every
    /// policy and honoured at pop time — [`SchedulerPolicy::LocalityAware`]
    /// scans for it, [`SchedulerPolicy::WorkStealing`] homes the task on
    /// that worker's deque, the rest ignore it.
    pub fn push(&mut self, task: usize, preferred: Option<usize>) {
        match &mut self.queues {
            Queues::Global(q) => q.push_back((task, preferred)),
            Queues::Deques(d) => d.push(task, preferred),
        }
    }

    /// Makes room for `tasks` ready tasks at once, so that no schedule of a
    /// graph of that many tasks grows a queue. Capacity is kept across
    /// replays: after the first call for a given size this allocates
    /// nothing, and neither does any push that follows it.
    pub fn reserve(&mut self, tasks: usize) {
        match &mut self.queues {
            Queues::Global(q) => q.reserve(tasks.saturating_sub(q.len())),
            Queues::Deques(d) => {
                for q in d.local.iter_mut().chain([&mut d.injector]) {
                    q.reserve(tasks.saturating_sub(q.len()));
                }
            }
        }
    }

    /// Dequeues a task for `worker` according to the policy (see the
    /// module docs). Returns `None` when no task is ready.
    pub fn pop(&mut self, worker: usize) -> Option<usize> {
        let nonempty = !self.is_empty();
        if let Some(script) = &mut self.script {
            if script.cursor < script.order.len() && nonempty {
                let want = script.order[script.cursor];
                let found = match &mut self.queues {
                    Queues::Global(q) => q
                        .iter()
                        .position(|&(t, _)| t == want)
                        .and_then(|pos| take_at(q, pos).map(|(t, _)| t)),
                    Queues::Deques(d) => d.remove_task(want),
                };
                if let Some(t) = found {
                    match script.driver {
                        None => script.driver = Some(worker),
                        Some(d) => debug_assert_eq!(
                            d, worker,
                            "set_script contract violated: scripted pops must be \
                             driven by a single worker (worker {worker} popped \
                             after worker {d})"
                        ),
                    }
                    script.cursor += 1;
                    return Some(t);
                }
            }
        }
        let q = match &mut self.queues {
            Queues::Deques(d) => return d.pop(worker),
            Queues::Global(q) => q,
        };
        match self.policy {
            SchedulerPolicy::LocalityAware => {
                let depth = self.window.min(q.len());
                if let Some(pos) = q
                    .iter()
                    .take(depth)
                    .position(|&(_, tag)| tag == Some(worker))
                {
                    // Order-preserving on purpose: `pos ≤ window`, so
                    // `remove` shifts at most `window` elements, and the
                    // untouched relative order keeps LocalityAware runs
                    // bit-identical to the pre-deque scheduler.
                    return q.remove(pos).map(|(t, _)| t);
                }
            }
            SchedulerPolicy::Adversarial(AdversarialOrder::Reverse) => {
                return q.pop_back().map(|(t, _)| t);
            }
            SchedulerPolicy::Adversarial(AdversarialOrder::Random(_)) => {
                if q.is_empty() {
                    return None;
                }
                // xorshift64 — deterministic for a given seed and pop
                // sequence, which single-worker fuzz runs guarantee.
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                // Widening multiply maps the draw onto 0..len without the
                // modulo bias that over-weights low positions whenever
                // `len` does not divide 2^64 (Lemire's bounded-range
                // reduction). Bias for small queues was negligible, but
                // the fuzzer's whole point is equiprobable schedules.
                let len = q.len() as u64;
                let pos = ((self.rng as u128 * len as u128) >> 64) as usize;
                return take_at(q, pos).map(|(t, _)| t);
            }
            SchedulerPolicy::Fifo => {}
            SchedulerPolicy::WorkStealing => unreachable!("work-stealing uses Queues::Deques"),
        }
        q.pop_front().map(|(t, _)| t)
    }

    /// Number of ready tasks.
    pub fn len(&self) -> usize {
        match &self.queues {
            Queues::Global(q) => q.len(),
            Queues::Deques(d) => d.len,
        }
    }

    /// True when no task is ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ignores_preference() {
        let mut rs = ReadySet::new(SchedulerPolicy::Fifo, 2);
        rs.push(1, Some(1));
        rs.push(2, None);
        // Worker 1 gets them in FIFO order despite task 1's tag.
        assert_eq!(rs.pop(0), Some(1));
        assert_eq!(rs.pop(0), Some(2));
        assert_eq!(rs.pop(0), None);
    }

    #[test]
    fn fifo_keeps_tags_so_policy_is_applied_at_pop_time() {
        // The tag must survive the push even under FIFO — dropping it at
        // push time silently erased the release-affinity information the
        // pop-side policy (and any tooling inspecting the queue) relies
        // on. FIFO order itself is unaffected.
        let mut rs = ReadySet::new(SchedulerPolicy::Fifo, 4);
        for i in 0..8 {
            rs.push(i, Some(i % 4));
        }
        for i in 0..8 {
            assert_eq!(rs.pop(3), Some(i));
        }
    }

    #[test]
    fn locality_prefers_affine_tasks() {
        let mut rs = ReadySet::new(SchedulerPolicy::LocalityAware, 2);
        rs.push(10, None);
        rs.push(11, Some(1));
        // Worker 1 takes its affine task first even though 10 is older.
        assert_eq!(rs.pop(1), Some(11));
        assert_eq!(rs.pop(1), Some(10));
    }

    #[test]
    fn worker_without_affine_work_takes_front() {
        let mut rs = ReadySet::new(SchedulerPolicy::LocalityAware, 3);
        rs.push(1, Some(0));
        rs.push(2, Some(0));
        // Worker 2 has no affine task: takes the oldest (no starvation).
        assert_eq!(rs.pop(2), Some(1));
        assert_eq!(rs.pop(0), Some(2));
        assert!(rs.is_empty());
    }

    #[test]
    fn affinity_scan_picks_oldest_affine() {
        let mut rs = ReadySet::new(SchedulerPolicy::LocalityAware, 2);
        rs.push(1, Some(0));
        rs.push(2, Some(1));
        rs.push(3, Some(1));
        assert_eq!(rs.pop(1), Some(2)); // oldest task tagged 1
        assert_eq!(rs.pop(1), Some(3));
        assert_eq!(rs.pop(1), Some(1)); // falls back to front
    }

    #[test]
    fn scan_window_is_bounded() {
        let mut rs = ReadySet::new(SchedulerPolicy::LocalityAware, 1);
        // Window is max(2*1, 8) = 8; an affine task at position 9 is not
        // seen, so the front is taken instead.
        for i in 0..9 {
            rs.push(i, None);
        }
        rs.push(99, Some(0));
        assert_eq!(rs.pop(0), Some(0));
    }

    #[test]
    fn untagged_pushes_behave_like_fifo() {
        let mut rs = ReadySet::new(SchedulerPolicy::LocalityAware, 1);
        rs.push(5, Some(9)); // tag for a nonexistent worker
        rs.push(6, None);
        assert_eq!(rs.pop(0), Some(5));
        assert_eq!(rs.pop(0), Some(6));
    }

    #[test]
    fn reverse_order_is_lifo() {
        let mut rs = ReadySet::new(SchedulerPolicy::Adversarial(AdversarialOrder::Reverse), 1);
        for i in 0..4 {
            rs.push(i, Some(0)); // preference is ignored
        }
        assert_eq!(rs.pop(0), Some(3));
        assert_eq!(rs.pop(0), Some(2));
        assert_eq!(rs.pop(0), Some(1));
        assert_eq!(rs.pop(0), Some(0));
        assert_eq!(rs.pop(0), None);
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut rs = ReadySet::new(
                SchedulerPolicy::Adversarial(AdversarialOrder::Random(seed)),
                1,
            );
            for i in 0..10 {
                rs.push(i, None);
            }
            let mut order = Vec::new();
            while let Some(t) = rs.pop(0) {
                order.push(t);
            }
            order
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed must replay the same schedule");
        assert_eq!(a.len(), 10);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>(), "a permutation");
        // Different seeds explore different schedules (for these values).
        assert_ne!(a, run(43));
    }

    #[test]
    fn zero_seed_is_accepted() {
        let mut rs = ReadySet::new(SchedulerPolicy::Adversarial(AdversarialOrder::Random(0)), 1);
        rs.push(7, None);
        assert_eq!(rs.pop(0), Some(7));
    }

    #[test]
    fn script_overrides_policy_until_exhausted() {
        let mut rs = ReadySet::new(SchedulerPolicy::Fifo, 1);
        for i in 0..4 {
            rs.push(i, None);
        }
        rs.set_script(Some(vec![2, 0, 3].into()));
        assert!(rs.script_active());
        assert_eq!(rs.pop(0), Some(2));
        assert_eq!(rs.pop(0), Some(0));
        assert_eq!(rs.pop(0), Some(3));
        // Script exhausted: back to the FIFO policy for the remainder.
        assert_eq!(rs.pop(0), Some(1));
        assert_eq!(rs.pop(0), None);
        rs.set_script(None);
        assert!(!rs.script_active());
    }

    #[test]
    fn scripted_task_not_ready_falls_back_without_advancing() {
        let mut rs = ReadySet::new(SchedulerPolicy::Fifo, 1);
        rs.push(0, None);
        rs.set_script(Some(vec![5, 0].into()));
        // Task 5 is not in the queue: policy pop, script stays on 5.
        assert_eq!(rs.pop(0), Some(0));
        rs.push(5, None);
        assert_eq!(rs.pop(0), Some(5));
    }

    #[test]
    fn script_drives_work_stealing_deques_too() {
        let mut rs = ReadySet::new(SchedulerPolicy::WorkStealing, 2);
        rs.push(0, None); // injector
        rs.push(1, Some(0));
        rs.push(2, Some(1)); // another worker's deque
        rs.set_script(Some(vec![2, 0, 1].into()));
        assert_eq!(rs.pop(0), Some(2));
        assert_eq!(rs.pop(0), Some(0));
        assert_eq!(rs.pop(0), Some(1));
        assert_eq!(rs.pop(0), None);
    }

    #[test]
    #[should_panic(expected = "single worker")]
    #[cfg(debug_assertions)]
    fn scripted_pops_from_two_workers_assert() {
        let mut rs = ReadySet::new(SchedulerPolicy::Fifo, 2);
        rs.push(0, None);
        rs.push(1, None);
        rs.set_script(Some(vec![0, 1].into()));
        assert_eq!(rs.pop(0), Some(0));
        let _ = rs.pop(1); // second scripted pop from another worker
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut rs = ReadySet::new(SchedulerPolicy::LocalityAware, 2);
        assert!(rs.is_empty());
        rs.push(1, None);
        rs.push(2, Some(0));
        assert_eq!(rs.len(), 2);
        rs.pop(0);
        assert_eq!(rs.len(), 1);
        rs.pop(1);
        assert!(rs.is_empty());
    }

    #[test]
    fn owner_pops_lifo_from_its_own_deque() {
        let mut rs = ReadySet::new(SchedulerPolicy::WorkStealing, 2);
        rs.push(1, Some(0));
        rs.push(2, Some(0));
        rs.push(3, Some(0));
        // Owner takes its newest (bottom) task first: depth-first over the
        // chain it is releasing.
        assert_eq!(rs.pop(0), Some(3));
        assert_eq!(rs.pop(0), Some(2));
        assert_eq!(rs.pop(0), Some(1));
        assert_eq!(rs.pop(0), None);
    }

    #[test]
    fn thief_steals_oldest_from_victim_top() {
        let mut rs = ReadySet::new(SchedulerPolicy::WorkStealing, 2);
        rs.push(1, Some(0));
        rs.push(2, Some(0));
        // Worker 1 owns nothing: steals worker 0's *oldest* task, leaving
        // the hot bottom (task 2) for the owner.
        assert_eq!(rs.pop(1), Some(1));
        assert_eq!(rs.pop(0), Some(2));
        assert!(rs.is_empty());
    }

    #[test]
    fn untagged_tasks_go_to_injector_fifo() {
        let mut rs = ReadySet::new(SchedulerPolicy::WorkStealing, 2);
        rs.push(10, None);
        rs.push(11, None);
        rs.push(12, Some(0));
        // Own deque first, then injector in FIFO order.
        assert_eq!(rs.pop(0), Some(12));
        assert_eq!(rs.pop(0), Some(10));
        assert_eq!(rs.pop(1), Some(11));
    }

    #[test]
    fn out_of_range_tag_goes_to_injector() {
        let mut rs = ReadySet::new(SchedulerPolicy::WorkStealing, 2);
        rs.push(7, Some(9)); // no worker 9: injector, not a lost task
        assert_eq!(rs.pop(0), Some(7));
    }

    #[test]
    fn steal_retries_last_successful_victim_first() {
        let mut rs = ReadySet::new(SchedulerPolicy::WorkStealing, 4);
        rs.push(1, Some(2));
        rs.push(2, Some(2));
        rs.push(3, Some(1));
        // Worker 3's initial victim scan starts at 0 and finds worker 1's
        // task first.
        assert_eq!(rs.pop(3), Some(3));
        // Worker 1 is now empty; the next steal comes from worker 2 and
        // records it as worker 3's preferred victim.
        assert_eq!(rs.pop(3), Some(1));
        assert_eq!(rs.pop(2), Some(2)); // owner drains its own deque
        rs.push(4, Some(1));
        rs.push(5, Some(2));
        // Preferred victim 2 is tried before the round-robin reaches
        // worker 1, even though worker 1's task is available.
        assert_eq!(rs.pop(3), Some(5));
    }

    #[test]
    fn injector_poll_bounds_untagged_starvation() {
        // An old untagged task must be taken within INJECTOR_POLL pops
        // even while the owner keeps releasing (and LIFO-popping) its own
        // chain — the starvation bound of the work-stealing design.
        let mut rs = ReadySet::new(SchedulerPolicy::WorkStealing, 1);
        rs.push(9999, None);
        let mut took_old = None;
        for i in 0..(2 * INJECTOR_POLL as usize) {
            rs.push(i, Some(0));
            let got = rs.pop(0).expect("work is always ready");
            if got == 9999 {
                took_old = Some(i);
                break;
            }
        }
        let at = took_old.expect("untagged task starved");
        assert!(
            at < INJECTOR_POLL as usize,
            "injector polled too late: pop {at}"
        );
        // Drain: nothing is lost.
        let mut rest = Vec::new();
        while let Some(t) = rs.pop(0) {
            rest.push(t);
        }
        assert!(rest.iter().all(|&t| t < 2 * INJECTOR_POLL as usize));
    }

    #[test]
    fn work_stealing_loses_no_tasks_across_workers() {
        let workers = 4;
        let mut rs = ReadySet::new(SchedulerPolicy::WorkStealing, workers);
        let mut seen = Vec::new();
        // Interleave pushes from every "releasing worker" with pops from
        // every worker id, exactly-once overall.
        for round in 0..50usize {
            for w in 0..workers {
                rs.push(round * 10 + w, if w % 3 == 0 { None } else { Some(w) });
            }
            if round % 2 == 0 {
                for w in 0..workers {
                    if let Some(t) = rs.pop((w + round) % workers) {
                        seen.push(t);
                    }
                }
            }
        }
        while let Some(t) = rs.pop(1) {
            seen.push(t);
        }
        assert_eq!(seen.len(), 50 * workers);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 50 * workers, "a task was popped twice");
        assert!(rs.is_empty());
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn direct_handoff_only_for_work_stealing_without_script() {
        let ws = ReadySet::new(SchedulerPolicy::WorkStealing, 2);
        assert!(ws.direct_handoff());
        let mut ws = ws;
        ws.set_script(Some(vec![0].into()));
        assert!(!ws.direct_handoff(), "a script must see every ready task");
        ws.set_script(None);
        assert!(ws.direct_handoff());
        for policy in [
            SchedulerPolicy::Fifo,
            SchedulerPolicy::LocalityAware,
            SchedulerPolicy::Adversarial(AdversarialOrder::Reverse),
        ] {
            assert!(!ReadySet::new(policy, 2).direct_handoff(), "{policy:?}");
        }
    }

    #[test]
    fn policy_parse_and_names_roundtrip() {
        for (name, policy) in [
            ("fifo", SchedulerPolicy::Fifo),
            ("locality", SchedulerPolicy::LocalityAware),
            ("work-stealing", SchedulerPolicy::WorkStealing),
        ] {
            assert_eq!(SchedulerPolicy::parse(name), Some(policy));
            assert_eq!(policy.as_str(), name);
        }
        assert_eq!(
            SchedulerPolicy::parse("stealing"),
            Some(SchedulerPolicy::WorkStealing)
        );
        assert_eq!(SchedulerPolicy::parse("nope"), None);
    }
}
