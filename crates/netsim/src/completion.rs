//! Indexed min-heap of projected flow completions.
//!
//! [`FlowNet`](crate::net::FlowNet) keeps at most one completion
//! projection per flow slot. A rate change re-projects the flow's single
//! entry in place, and a flow that completes, leaves, or loses its
//! projection has its entry removed, so the heap only ever holds live
//! projections: peeking is O(1) and nothing needs compaction. The
//! projection key travels inline with the heap entry, and `pos[slot]`
//! back-indexes the entry's heap position.

use pythia_des::SimTime;

const NONE: u32 = u32::MAX;

/// One projected completion. Ordered by time, then flow id; the rate
/// epoch it was projected under rides along for consistency checks and
/// snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Projection {
    pub(crate) t: SimTime,
    pub(crate) id: u64,
    pub(crate) epoch: u64,
}

impl Projection {
    fn key(&self) -> (SimTime, u64) {
        (self.t, self.id)
    }
}

#[derive(Clone, Copy)]
struct Entry {
    p: Projection,
    slot: u32,
}

/// Binary min-heap holding at most one [`Projection`] per slot.
pub(crate) struct CompletionHeap {
    entries: Vec<Entry>,
    /// Heap position of each slot's entry, or `NONE`.
    pos: Vec<u32>,
}

impl CompletionHeap {
    pub(crate) fn new() -> Self {
        CompletionHeap {
            entries: Vec::new(),
            pos: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The earliest projection and its slot.
    pub(crate) fn peek(&self) -> Option<(u32, Projection)> {
        self.entries.first().map(|e| (e.slot, e.p))
    }

    /// `slot`'s projection, if it has one.
    pub(crate) fn get(&self, slot: u32) -> Option<Projection> {
        match self.pos.get(slot as usize) {
            Some(&i) if i != NONE => Some(self.entries[i as usize].p),
            _ => None,
        }
    }

    /// Insert `slot`'s projection, or move its existing entry in place.
    pub(crate) fn set(&mut self, slot: u32, p: Projection) {
        let s = slot as usize;
        if self.pos.len() <= s {
            self.pos.resize(s + 1, NONE);
        }
        let i = self.pos[s];
        if i == NONE {
            let i = self.entries.len();
            self.entries.push(Entry { p, slot });
            self.pos[s] = i as u32;
            self.sift_up(i);
            return;
        }
        let i = i as usize;
        let old = self.entries[i].p;
        self.entries[i].p = p;
        if p.key() < old.key() {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Drop `slot`'s projection; returns it if there was one.
    pub(crate) fn remove(&mut self, slot: u32) -> Option<Projection> {
        let i = match self.pos.get(slot as usize) {
            Some(&i) if i != NONE => i as usize,
            _ => return None,
        };
        self.pos[slot as usize] = NONE;
        let removed = self.entries.swap_remove(i);
        if i < self.entries.len() {
            self.pos[self.entries[i].slot as usize] = i as u32;
            if self.entries[i].p.key() < removed.p.key() {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        Some(removed.p)
    }

    /// Every entry as `(slot, projection)`, in heap-array order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, Projection)> + '_ {
        self.entries.iter().map(|e| (e.slot, e.p))
    }

    /// Check the heap's internal invariants: every entry's `pos` points
    /// back at it, no other slot claims a position, and every parent
    /// orders before its children.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_consistent(&self) {
        for (i, e) in self.entries.iter().enumerate() {
            assert_eq!(
                self.pos.get(e.slot as usize),
                Some(&(i as u32)),
                "heap entry {i} (slot {}) not back-indexed",
                e.slot
            );
            if i > 0 {
                let parent = &self.entries[(i - 1) / 2];
                assert!(
                    parent.p.key() <= e.p.key(),
                    "heap order violated at {i}: {:?} above {:?}",
                    parent.p,
                    e.p
                );
            }
        }
        let claimed = self.pos.iter().filter(|&&i| i != NONE).count();
        assert_eq!(claimed, self.entries.len(), "stray heap positions");
    }

    fn place(&mut self, i: usize, e: Entry) {
        self.pos[e.slot as usize] = i as u32;
        self.entries[i] = e;
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[parent].p.key() <= e.p.key() {
                break;
            }
            let p = self.entries[parent];
            self.place(i, p);
            i = parent;
        }
        self.place(i, e);
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.entries[i];
        let n = self.entries.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.entries[child + 1].p.key() < self.entries[child].p.key() {
                child += 1;
            }
            if e.p.key() <= self.entries[child].p.key() {
                break;
            }
            let c = self.entries[child];
            self.place(i, c);
            i = child;
        }
        self.place(i, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proj(ms: u64, id: u64) -> Projection {
        Projection {
            t: SimTime::from_millis(ms),
            id,
            epoch: 1,
        }
    }

    /// Pop everything, checking the invariants after every removal.
    fn drain(h: &mut CompletionHeap) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        while let Some((slot, p)) = h.peek() {
            assert_eq!(h.remove(slot), Some(p));
            h.assert_consistent();
            out.push((slot, p.id));
        }
        out
    }

    fn filled(times_ms: &[u64]) -> CompletionHeap {
        let mut h = CompletionHeap::new();
        for (s, &ms) in times_ms.iter().enumerate() {
            h.set(s as u32, proj(ms, s as u64));
            h.assert_consistent();
        }
        h
    }

    #[test]
    fn in_place_update_sifts_up() {
        let mut h = filled(&[10, 20, 30, 40, 50, 60, 70]);
        // The last leaf becomes the earliest projection.
        h.set(6, proj(5, 6));
        h.assert_consistent();
        assert_eq!(h.len(), 7);
        assert_eq!(h.peek().map(|(s, _)| s), Some(6));
        let order: Vec<u32> = drain(&mut h).into_iter().map(|(s, _)| s).collect();
        assert_eq!(order, vec![6, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn in_place_update_sifts_down() {
        let mut h = filled(&[10, 20, 30, 40, 50, 60, 70]);
        // The root is re-projected past everything else.
        h.set(0, proj(65, 0));
        h.assert_consistent();
        assert_eq!(h.len(), 7);
        assert_eq!(h.get(0), Some(proj(65, 0)));
        let order: Vec<u32> = drain(&mut h).into_iter().map(|(s, _)| s).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5, 0, 6]);
    }

    #[test]
    fn removal_in_the_middle_and_at_the_tail() {
        let mut h = filled(&[10, 20, 30, 40, 50, 60, 70]);
        // Slot 2 sits mid-heap; the backfilled entry must be re-sifted.
        assert_eq!(h.remove(2), Some(proj(30, 2)));
        h.assert_consistent();
        // Slot 6 is the last array entry: nothing to backfill.
        assert_eq!(h.remove(6), Some(proj(70, 6)));
        h.assert_consistent();
        assert_eq!(h.remove(6), None, "double removal is a no-op");
        assert_eq!(h.remove(99), None, "never-seen slot");
        assert_eq!(h.get(2), None);
        let order: Vec<u32> = drain(&mut h).into_iter().map(|(s, _)| s).collect();
        assert_eq!(order, vec![0, 1, 3, 4, 5]);
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn ties_break_by_flow_id() {
        let mut h = CompletionHeap::new();
        // Same instant everywhere; slot numbers deliberately disagree
        // with flow ids.
        for (slot, id) in [(0u32, 9u64), (1, 3), (2, 7), (3, 1), (4, 5)] {
            h.set(slot, proj(100, id));
        }
        h.assert_consistent();
        let ids: Vec<u64> = drain(&mut h).into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, vec![1, 3, 5, 7, 9]);
    }
}
