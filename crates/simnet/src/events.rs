//! The pending events: an indexed 4-ary min-heap of 16-byte keys,
//! `(time, seq << SLOT_BITS | slot)`, over a slab of payloads. `seq` is
//! bumped on every push, so events pop in `(time, seq)` order, and a sift
//! moves keys, not payloads. Each pending slot records where its key
//! sits in the heap, so an event can be taken out before its instant
//! ([`Events::remove`]). A freed slot is reused by the next push.

use crate::time::SimTime;

/// Bits of [`EvKey::order`] that name the event's slab slot: at most
/// 2^24 events pending at once. The other 40 hold its sequence number.
const SLOT_BITS: u32 = 24;

/// Children per heap node: a 4-ary heap is half as deep as a binary
/// one, and a node's children are 64 contiguous bytes of keys.
const ARITY: usize = 4;

/// Names no slot: ends the free list, and stands for "no pending event"
/// wherever a slot is kept.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A pending event's place in the schedule: its instant, then `order =
/// seq << SLOT_BITS | slot`. Every push takes a fresh `seq`, so the slot
/// bits never decide a comparison: keys order exactly as `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvKey {
    time: SimTime,
    order: u64,
}

impl EvKey {
    fn slot(self) -> u32 {
        (self.order & ((1 << SLOT_BITS) - 1)) as u32
    }
}

/// The pending events, each named by its slab slot from its push until
/// it is popped or removed.
pub(crate) struct Events<T> {
    /// The keys, a 4-ary min-heap: the children of `i` are `ARITY * i + 1`
    /// to `ARITY * i + ARITY`.
    heap: Vec<EvKey>,
    /// The payloads; `None` in a free slot.
    slab: Vec<Option<T>>,
    /// Per slot: the index of its key in `heap` while it is pending, the
    /// next free slot ([`NO_SLOT`] ends the list) while it is free.
    link: Vec<u32>,
    free: u32,
    seq: u64,
}

impl<T> Events<T> {
    pub(crate) fn new() -> Events<T> {
        Events {
            heap: Vec::new(),
            slab: Vec::new(),
            link: Vec::new(),
            free: NO_SLOT,
            seq: 0,
        }
    }

    /// Schedules `event` at `time`, after every event already scheduled
    /// at that instant, and returns the slot that names it.
    pub(crate) fn push(&mut self, time: SimTime, event: T) -> u32 {
        let slot = if self.free == NO_SLOT {
            assert!(
                self.slab.len() < 1 << SLOT_BITS,
                "simnet: more than 2^{SLOT_BITS} events pending"
            );
            self.slab.push(Some(event));
            self.link.push(NO_SLOT);
            self.slab.len() as u32 - 1
        } else {
            let slot = self.free;
            self.free = self.link[slot as usize];
            let taken = self.slab[slot as usize].replace(event);
            debug_assert!(taken.is_none(), "the free list names a pending slot");
            slot
        };
        self.seq += 1;
        assert!(
            self.seq < 1 << (64 - SLOT_BITS),
            "simnet: more than 2^{} events scheduled",
            64 - SLOT_BITS
        );
        let order = self.seq << SLOT_BITS | u64::from(slot);
        self.heap.push(EvKey { time, order });
        self.sift_up(self.heap.len() - 1);
        slot
    }

    /// The instant of the next event, if any.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.heap.first().map(|key| key.time)
    }

    /// Takes the next event out, with the slot that named it.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u32, T)> {
        let key = *self.heap.first()?;
        Some((key.time, key.slot(), self.remove(key.slot())))
    }

    /// Takes the pending event in `slot` out before its instant, freeing
    /// the slot. Every other event keeps its place in the order.
    pub(crate) fn remove(&mut self, slot: u32) -> T {
        let event = self.slab[slot as usize]
            .take()
            .expect("removing an event that is not pending");
        let i = self.link[slot as usize] as usize;
        debug_assert_eq!(self.heap[i].slot(), slot, "a slot's link names its key");
        let last = self.heap.pop().expect("a pending event has a key");
        if i < self.heap.len() {
            let gone = std::mem::replace(&mut self.heap[i], last);
            if last < gone {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        self.link[slot as usize] = self.free;
        self.free = slot;
        event
    }

    /// How many events are pending.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.link.clear();
        self.free = NO_SLOT;
    }

    /// The most events ever pending at once since the last
    /// [`Events::clear`]: a slot is added only when every slot is
    /// pending.
    #[cfg(test)]
    pub(crate) fn peak(&self) -> usize {
        self.slab.len()
    }

    /// Moves the key at `i` towards the root until its parent is smaller.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent] < key {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, key);
    }

    /// Moves the key at `i` towards the leaves until its children are
    /// larger.
    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        loop {
            let first = ARITY * i + 1;
            let children = self.heap.get(first..self.heap.len().min(first + ARITY));
            let Some((c, &child)) = children.and_then(|c| c.iter().enumerate().min_by_key(|e| e.1))
            else {
                break;
            };
            if key < child {
                break;
            }
            self.place(i, child);
            i = first + c;
        }
        self.place(i, key);
    }

    /// Puts `key` at index `i` of the heap and tells its slot.
    fn place(&mut self, i: usize, key: EvKey) {
        self.heap[i] = key;
        self.link[key.slot() as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The heap orders its keys by `(time, seq)` alone: same-instant
    /// events pop in push order even when later pushes took freed slots
    /// below earlier ones, and a removal takes one event out of that
    /// order and moves no other.
    #[test]
    fn same_instant_events_pop_in_push_order_after_slot_reuse() {
        let mut events = Events::new();
        let at = SimTime::from_millis;
        let next = |events: &mut Events<u32>| events.pop().expect("an event").2;
        for id in 0..4 {
            events.push(at(5), id);
        }
        events.push(at(1), 90);
        events.push(at(2), 91);
        assert_eq!((next(&mut events), next(&mut events)), (90, 91));
        // 4 and 5 take the freed slots 5 and 4; 6 and 7 new ones.
        let mut slots = Vec::new();
        for id in 4..8 {
            slots.push(events.push(at(5), id));
        }
        assert_eq!(slots, [5, 4, 6, 7]);
        assert_eq!(events.peak(), 8, "freed slots are reused");
        assert_eq!(next(&mut events), 0);
        // A slot freed mid-instant is reused by an event that still runs
        // after every earlier push at that instant.
        events.push(at(5), 8);
        // Removed before their instant, 2 (in slot 2) and 6 never run;
        // 9 takes the slot 6 left, and still runs last.
        assert_eq!(events.remove(2), 2);
        assert_eq!(events.remove(slots[2]), 6);
        assert_eq!(events.len(), 6);
        assert_eq!(events.push(at(5), 9), slots[2]);
        let order: Vec<u32> = (0..7).map(|_| next(&mut events)).collect();
        assert_eq!(order, [1, 3, 4, 5, 7, 8, 9]);
        assert!(events.pop().is_none());
        assert_eq!(events.peak(), 8);
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u64),
        Pop,
        Remove(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u64..8).prop_map(Op::Push),
            1 => Just(Op::Pop),
            1 => any::<usize>().prop_map(Op::Remove),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sequence of pushes, pops and removals, against a model
        /// ordered by `(time, push number)`: every pop returns the
        /// model's first event and its slot, every removal the event it
        /// names, and the slab holds exactly as many slots as the most
        /// events ever pending at once.
        #[test]
        fn pops_and_removals_match_an_ordered_model(
            ops in proptest::collection::vec(op(), 0..400),
        ) {
            let mut events = Events::new();
            let mut model: BTreeMap<(SimTime, u32), u32> = BTreeMap::new();
            let (mut pushed, mut peak) = (0u32, 0usize);
            for op in ops {
                match op {
                    Op::Push(ms) => {
                        let time = SimTime::from_millis(ms);
                        let slot = events.push(time, pushed);
                        prop_assert!(
                            model.values().all(|&s| s != slot),
                            "slot {slot} handed out twice"
                        );
                        model.insert((time, pushed), slot);
                        pushed += 1;
                    }
                    Op::Pop => {
                        let want = model.pop_first();
                        let got = events.pop();
                        prop_assert_eq!(
                            got.map(|(t, slot, id)| (t, id, slot)),
                            want.map(|((t, id), slot)| (t, id, slot))
                        );
                    }
                    Op::Remove(pick) => {
                        if model.is_empty() {
                            continue;
                        }
                        let (&(t, id), &slot) = model.iter().nth(pick % model.len()).unwrap();
                        prop_assert_eq!(events.remove(slot), id);
                        model.remove(&(t, id));
                    }
                }
                peak = peak.max(model.len());
                prop_assert_eq!(events.len(), model.len());
                prop_assert_eq!(events.next_time(), model.keys().next().map(|k| k.0));
                prop_assert_eq!(events.peak(), peak);
            }
            for ((t, id), slot) in model {
                prop_assert_eq!(events.pop(), Some((t, slot, id)));
            }
            prop_assert!(events.pop().is_none());
        }
    }
}
