//! Dependency regions and OmpSs-style edge computation.
//!
//! A *region* is an abstract memory object a task may read (`in` clause) or
//! write (`out` clause) — in the paper these are elements of the `c_f`/`c_r`
//! operation arrays indexed through `start_*`/`end_*`. The [`DepTracker`]
//! turns the per-task access lists into dependency edges with the standard
//! semantics:
//!
//! * **RAW** — a reader depends on the last writer of the region,
//! * **WAW** — a writer depends on the previous writer,
//! * **WAR** — a writer depends on every reader since the previous write.
//!
//! Because tasks are registered in submission order, every edge points from
//! an earlier task to a later one and the resulting graph is acyclic by
//! construction.

use crate::task::TaskId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a dependency region (an abstract memory object).
///
/// Clients allocate ids themselves; ids need not be dense. `bpar-core`
/// derives them from (cell, slot) coordinates of the unrolled network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u64);

/// Hasher for [`RegionId`] keys. The ids are small integers the embedding
/// program counts up — never input from outside it, so SipHash's
/// collision resistance buys nothing here — and one odd multiply spreads
/// them over both ends of the word. The table is probed several times per
/// submitted task; this takes a sixth off `graph_build` and plan compiles.
#[derive(Debug, Default, Clone, Copy)]
struct RegionHasher(u64);

impl Hasher for RegionHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("RegionId hashes as one u64");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Last-writer / readers-since-last-write state for one region.
#[derive(Debug, Default, Clone)]
struct RegionState {
    last_writer: Option<TaskId>,
    readers: Vec<TaskId>,
}

/// Incremental dependency-edge computation.
///
/// Feed tasks in submission order via [`DepTracker::register`]; it returns
/// the deduplicated list of predecessor tasks the new task must wait for.
/// Task ids must be registered in strictly increasing order; debug builds
/// assert this, so stale state from a previous graph (forgotten
/// [`DepTracker::reset`]) is caught at the first re-registration.
#[derive(Debug, Default)]
pub struct DepTracker {
    regions: HashMap<RegionId, RegionState, BuildHasherDefault<RegionHasher>>,
    /// Highest task id registered since the last reset.
    watermark: Option<TaskId>,
}

impl DepTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a task's accesses and returns its predecessors.
    ///
    /// A region appearing in both `ins` and `outs` behaves like an OmpSs
    /// `inout`: the task gets RAW/WAW/WAR edges and becomes the region's
    /// new last writer.
    pub fn register(&mut self, task: TaskId, ins: &[RegionId], outs: &[RegionId]) -> Vec<TaskId> {
        debug_assert!(
            self.watermark.is_none_or(|w| task > w),
            "task ids must increase monotonically (got {task:?} after {:?}); \
             call reset() between graphs",
            self.watermark
        );
        self.watermark = Some(task);
        let mut preds: Vec<TaskId> = Vec::new();

        for &r in ins {
            let st = self.regions.entry(r).or_default();
            if let Some(w) = st.last_writer {
                preds.push(w); // RAW
            }
            // A region listed twice in `ins` (or revisited because the
            // clause list carries duplicates) must not bloat the WAR edge
            // list: all pushes for one task are consecutive, so checking
            // the tail deduplicates readers per region per task.
            if st.readers.last() != Some(&task) {
                st.readers.push(task);
            }
        }
        for &r in outs {
            let st = self.regions.entry(r).or_default();
            if let Some(w) = st.last_writer {
                preds.push(w); // WAW
            }
            for &rd in &st.readers {
                if rd != task {
                    preds.push(rd); // WAR
                }
            }
            st.last_writer = Some(task);
            st.readers.clear();
        }

        preds.sort_unstable();
        preds.dedup();
        // A task never depends on itself (possible when a region is inout).
        preds.retain(|&p| p != task);
        preds
    }

    /// Number of regions ever touched.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of reader entries currently tracked across all regions
    /// (WAR bookkeeping size; readers are deduplicated per task).
    pub fn reader_entries(&self) -> usize {
        self.regions.values().map(|st| st.readers.len()).sum()
    }

    /// Forgets all state so the tracker can be reused for a new graph:
    /// last-writer/reader state is dropped (region ids may be reused) and
    /// task ids may restart from zero. Without this, stale last-writer
    /// entries from a previous compiled plan would leak edges into the
    /// next one.
    pub fn reset(&mut self) {
        self.regions.clear();
        self.watermark = None;
    }

    /// Alias of [`DepTracker::reset`] (historical name, used between
    /// batches when region ids are reused).
    pub fn clear(&mut self) {
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId(i)
    }
    fn r(i: u64) -> RegionId {
        RegionId(i)
    }

    #[test]
    fn raw_dependency() {
        let mut d = DepTracker::new();
        assert!(d.register(t(0), &[], &[r(1)]).is_empty());
        assert_eq!(d.register(t(1), &[r(1)], &[]), vec![t(0)]);
    }

    #[test]
    fn waw_dependency() {
        let mut d = DepTracker::new();
        d.register(t(0), &[], &[r(1)]);
        assert_eq!(d.register(t(1), &[], &[r(1)]), vec![t(0)]);
    }

    #[test]
    fn war_dependency_blocks_overwrite() {
        let mut d = DepTracker::new();
        d.register(t(0), &[], &[r(1)]);
        d.register(t(1), &[r(1)], &[]);
        d.register(t(2), &[r(1)], &[]);
        // Writer must wait for both readers (WAR) and the old writer (WAW).
        assert_eq!(d.register(t(3), &[], &[r(1)]), vec![t(0), t(1), t(2)]);
    }

    #[test]
    fn readers_do_not_depend_on_each_other() {
        let mut d = DepTracker::new();
        d.register(t(0), &[], &[r(1)]);
        assert_eq!(d.register(t(1), &[r(1)], &[]), vec![t(0)]);
        assert_eq!(d.register(t(2), &[r(1)], &[]), vec![t(0)]);
    }

    #[test]
    fn write_resets_reader_set() {
        let mut d = DepTracker::new();
        d.register(t(0), &[], &[r(1)]);
        d.register(t(1), &[r(1)], &[]);
        d.register(t(2), &[], &[r(1)]); // WAR on t1, WAW on t0
                                        // A later writer only sees t2, not the stale reader t1.
        assert_eq!(d.register(t(3), &[], &[r(1)]), vec![t(2)]);
    }

    #[test]
    fn inout_region_is_raw_plus_waw_without_self_edge() {
        let mut d = DepTracker::new();
        d.register(t(0), &[], &[r(1)]);
        let preds = d.register(t(1), &[r(1)], &[r(1)]);
        assert_eq!(preds, vec![t(0)]);
        // And the next reader depends on the inout task.
        assert_eq!(d.register(t(2), &[r(1)], &[]), vec![t(1)]);
    }

    #[test]
    fn preds_are_deduplicated_across_regions() {
        let mut d = DepTracker::new();
        d.register(t(0), &[], &[r(1), r(2)]);
        let preds = d.register(t(1), &[r(1), r(2)], &[]);
        assert_eq!(preds, vec![t(0)]);
    }

    #[test]
    fn untouched_region_has_no_preds() {
        let mut d = DepTracker::new();
        assert!(d.register(t(0), &[r(9)], &[]).is_empty());
        assert_eq!(d.region_count(), 1);
    }

    #[test]
    fn clear_forgets_history() {
        let mut d = DepTracker::new();
        d.register(t(0), &[], &[r(1)]);
        d.clear();
        assert!(d.register(t(1), &[r(1)], &[]).is_empty());
    }

    #[test]
    fn duplicate_ins_do_not_bloat_reader_lists() {
        let mut d = DepTracker::new();
        d.register(t(0), &[], &[r(1)]);
        // The same region listed three times in `ins` registers one
        // reader entry, so the next writer gets exactly one WAR edge.
        d.register(t(1), &[r(1), r(1), r(1)], &[]);
        assert_eq!(d.reader_entries(), 1);
        assert_eq!(d.register(t(2), &[], &[r(1)]), vec![t(0), t(1)]);
    }

    #[test]
    fn interleaved_duplicate_ins_are_deduplicated() {
        let mut d = DepTracker::new();
        d.register(t(0), &[r(1), r(2), r(1), r(2), r(1)], &[]);
        assert_eq!(d.reader_entries(), 2);
    }

    #[test]
    fn inout_keeps_single_reader_entry() {
        let mut d = DepTracker::new();
        // inout: the write clears the reader list, so nothing lingers.
        d.register(t(0), &[r(1), r(1)], &[r(1)]);
        assert_eq!(d.reader_entries(), 0);
    }

    #[test]
    fn reset_allows_task_ids_to_restart() {
        let mut d = DepTracker::new();
        d.register(t(5), &[], &[r(1)]);
        d.reset();
        // Restarting from 0 after reset is legal and sees no stale state.
        assert!(d.register(t(0), &[r(1)], &[]).is_empty());
        assert_eq!(d.region_count(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "monotonically")]
    fn non_monotonic_ids_are_rejected_in_debug() {
        let mut d = DepTracker::new();
        d.register(t(3), &[], &[r(1)]);
        d.register(t(3), &[], &[r(1)]); // same id again: stale-state bug
    }

    #[test]
    fn edges_always_point_forward() {
        // Randomised mini-check: later ids never appear as preds of earlier.
        let mut d = DepTracker::new();
        for i in 0..50 {
            let ins = [r((i % 7) as u64)];
            let outs = [r(((i + 3) % 7) as u64)];
            let preds = d.register(t(i), &ins, &outs);
            assert!(preds.iter().all(|p| p.index() < i));
        }
    }
}
