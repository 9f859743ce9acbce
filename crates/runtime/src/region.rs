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

/// Hasher for the [`RegionId`] keys at or above [`DENSE_IDS`]. The ids are
/// integers the embedding program counts up — never input from outside
/// it, so SipHash's collision resistance buys nothing here — and one odd
/// multiply spreads them over both ends of the word.
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

/// "No entry" in the tracker's `u32` task and link fields.
const NIL: u32 = u32::MAX;

/// Region ids below this are looked up in a table indexed by the id, every
/// other id through a hash map. Programs count their ids up from zero
/// (`bpar-core` numbers one plan's slots densely), so a graph of up to
/// this many regions never hashes; the table costs 8 bytes per id below
/// the largest one seen, at most 512 KiB.
const DENSE_IDS: u64 = 1 << 16;

/// Last writer and the head of the readers-since-last-write list of one
/// region; both [`NIL`] for a region no task touched (a region once
/// touched always has one of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RegionState {
    last_writer: u32,
    /// Most recent reader's entry in [`DepTracker::readers`].
    readers: u32,
}

impl RegionState {
    const UNTOUCHED: RegionState = RegionState {
        last_writer: NIL,
        readers: NIL,
    };
}

/// One entry of a region's reader list, most recent reader first.
#[derive(Debug, Clone, Copy)]
struct Reader {
    task: u32,
    next: u32,
}

/// Incremental dependency-edge computation.
///
/// Feed tasks in submission order via [`DepTracker::register`]; it returns
/// the deduplicated, ascending list of predecessor tasks the new task must
/// wait for. Task ids must be registered in strictly increasing order;
/// debug builds assert this, so stale state from a previous graph
/// (forgotten [`DepTracker::reset`]) is caught at the first
/// re-registration.
///
/// The tracker allocates nothing per task or per region once its tables
/// have grown: region state sits in a table indexed by the id (ids from
/// 2^16 up are hashed), the reader lists of all regions share one
/// arena whose entries a write hands back to a free list, and the
/// predecessor list is one buffer every call reuses. A plan compile
/// therefore costs one table access per clause plus a sort of each task's
/// few predecessors.
#[derive(Debug)]
pub struct DepTracker {
    /// State of regions `0..DENSE_IDS`, indexed by id.
    dense: Vec<RegionState>,
    /// State of every other region.
    sparse: HashMap<RegionId, RegionState, BuildHasherDefault<RegionHasher>>,
    /// Regions some task touched.
    touched: usize,
    /// Every region's reader list, linked through [`Reader::next`].
    readers: Vec<Reader>,
    /// Head of the list of `readers` entries no region holds.
    free: u32,
    /// Entries some region's list holds (`readers.len()` less the free
    /// list).
    live_readers: usize,
    /// What the last [`DepTracker::register`] returned.
    preds: Vec<TaskId>,
    /// Highest task id registered since the last reset.
    watermark: Option<TaskId>,
}

impl Default for DepTracker {
    fn default() -> Self {
        Self {
            dense: Vec::new(),
            sparse: HashMap::default(),
            touched: 0,
            readers: Vec::new(),
            free: NIL,
            live_readers: 0,
            preds: Vec::new(),
            watermark: None,
        }
    }
}

impl DepTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a task's accesses and returns its predecessors, valid
    /// until the next call.
    ///
    /// A region appearing in both `ins` and `outs` behaves like an OmpSs
    /// `inout`: the task gets RAW/WAW/WAR edges and becomes the region's
    /// new last writer.
    ///
    /// # Panics
    /// Panics if `task`'s index does not fit in 32 bits.
    pub fn register(&mut self, task: TaskId, ins: &[RegionId], outs: &[RegionId]) -> &[TaskId] {
        debug_assert!(
            self.watermark.is_none_or(|w| task > w),
            "task ids must increase monotonically (got {task:?} after {:?}); \
             call reset() between graphs",
            self.watermark
        );
        self.watermark = Some(task);
        let me = u32::try_from(task.index())
            .ok()
            .filter(|&t| t != NIL)
            .expect("task index fits in 32 bits");
        let preds = &mut self.preds;
        preds.clear();
        let id = |t: u32| TaskId(t as usize);

        for &r in ins {
            let st = state(&mut self.dense, &mut self.sparse, r);
            self.touched += usize::from(*st == RegionState::UNTOUCHED);
            if st.last_writer != NIL {
                preds.push(id(st.last_writer)); // RAW
            }
            // A region listed twice in `ins` (or revisited because the
            // clause list carries duplicates) must not bloat the WAR edge
            // list: all entries for one task are added consecutively, so
            // checking the head deduplicates readers per region per task.
            if st.readers == NIL || self.readers[st.readers as usize].task != me {
                let entry = Reader {
                    task: me,
                    next: st.readers,
                };
                st.readers = if self.free == NIL {
                    self.readers.push(entry);
                    u32::try_from(self.readers.len() - 1).expect("reader entries fit in 32 bits")
                } else {
                    let at = self.free;
                    self.free = self.readers[at as usize].next;
                    self.readers[at as usize] = entry;
                    at
                };
                self.live_readers += 1;
            }
        }
        for &r in outs {
            let st = state(&mut self.dense, &mut self.sparse, r);
            self.touched += usize::from(*st == RegionState::UNTOUCHED);
            if st.last_writer != NIL {
                preds.push(id(st.last_writer)); // WAW
            }
            // WAR on every reader since the last write; the list's entries
            // go back to the free list as they are visited.
            let mut at = std::mem::replace(&mut st.readers, NIL);
            while at != NIL {
                let rd = &mut self.readers[at as usize];
                if rd.task != me {
                    preds.push(id(rd.task));
                }
                let next = std::mem::replace(&mut rd.next, self.free);
                self.free = at;
                self.live_readers -= 1;
                at = next;
            }
            st.last_writer = me;
        }

        preds.sort_unstable();
        preds.dedup();
        // A task never depends on itself (possible when a region is inout).
        preds.retain(|&p| p != task);
        preds
    }

    /// Number of regions ever touched.
    pub fn region_count(&self) -> usize {
        self.touched
    }

    /// Number of reader entries currently tracked across all regions
    /// (WAR bookkeeping size; readers are deduplicated per task).
    pub fn reader_entries(&self) -> usize {
        self.live_readers
    }

    /// Forgets all state so the tracker can be reused for a new graph:
    /// last-writer/reader state is dropped (region ids may be reused) and
    /// task ids may restart from zero. Without this, stale last-writer
    /// entries from a previous compiled plan would leak edges into the
    /// next one. Keeps the tables' capacity, so it never allocates.
    pub fn reset(&mut self) {
        self.dense.clear();
        self.sparse.clear();
        self.touched = 0;
        self.readers.clear();
        self.free = NIL;
        self.live_readers = 0;
        self.preds.clear();
        self.watermark = None;
    }

    /// Alias of [`DepTracker::reset`] (historical name, used between
    /// batches when region ids are reused).
    pub fn clear(&mut self) {
        self.reset();
    }
}

/// The state of region `r`: its entry of the id-indexed table, grown to
/// cover it, or of the hash map.
fn state<'a>(
    dense: &'a mut Vec<RegionState>,
    sparse: &'a mut HashMap<RegionId, RegionState, BuildHasherDefault<RegionHasher>>,
    r: RegionId,
) -> &'a mut RegionState {
    if r.0 < DENSE_IDS {
        let i = r.0 as usize;
        if i >= dense.len() {
            dense.resize(i + 1, RegionState::UNTOUCHED);
        }
        &mut dense[i]
    } else {
        sparse.entry(r).or_insert(RegionState::UNTOUCHED)
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
