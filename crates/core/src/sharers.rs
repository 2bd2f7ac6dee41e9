//! The sharer directory: which subscribers a write must reach.
//!
//! A [`crate::ServiceServer`] files every subscriber under the tags it
//! has read since their last invalidation, so a write is pushed to the
//! caches that can hold what it staled and to nobody else. Sending an
//! invalidation *breaks the callback* (AFS-style): the subscriber is
//! forgotten for that tag and registers again by missing. A subscriber's
//! cache drops the whole-object tag `"*"` with every tag it is told
//! about, and everything when told `"*"`; the directory mirrors exactly
//! that, so it never believes a cache holds less than it does.
//!
//! Sets hold subscriber *indices* and every answer is in subscription
//! order — send order is part of the simulation's state, and hash order
//! is not.

use std::collections::HashMap;

use simnet::Endpoint;

/// `load` of a subscriber that outgrew the cap.
const OVERFLOWED: usize = usize::MAX;

/// Who read what since it was last written.
#[derive(Debug)]
pub(crate) struct Sharers {
    /// Invalidation callbacks, in subscription order.
    subscribers: Vec<Endpoint>,
    index: HashMap<Endpoint, usize>,
    /// Per subscriber: how many tags it is filed under, or [`OVERFLOWED`].
    load: Vec<usize>,
    /// tag → the subscribers filed under it, ascending. Never empty.
    by_tag: HashMap<String, Vec<usize>>,
    /// Subscribers that read more distinct tags than `cap`, ascending.
    /// They are filed nowhere (so cost no memory however much they read)
    /// and count as sharers of everything: the next write tells them to
    /// drop their whole cache, after which they are tracked again.
    overflowed: Vec<usize>,
    /// Most tags one subscriber may be filed under.
    cap: usize,
}

impl Sharers {
    pub(crate) fn new(cap: usize) -> Sharers {
        Sharers {
            subscribers: Vec::new(),
            index: HashMap::new(),
            load: Vec::new(),
            by_tag: HashMap::new(),
            overflowed: Vec::new(),
            cap,
        }
    }

    /// Whether nobody is subscribed (the only question a service without
    /// caching clients is ever asked).
    pub(crate) fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }

    /// Number of subscribers.
    pub(crate) fn len(&self) -> usize {
        self.subscribers.len()
    }

    pub(crate) fn subscribe(&mut self, cb: Endpoint) {
        if !self.index.contains_key(&cb) {
            self.index.insert(cb, self.subscribers.len());
            self.subscribers.push(cb);
            self.load.push(0);
        }
    }

    /// Forgets `cb` everywhere. Later subscribers move down one index.
    pub(crate) fn unsubscribe(&mut self, cb: Endpoint) {
        let Some(gone) = self.index.remove(&cb) else {
            return;
        };
        self.subscribers.remove(gone);
        self.load.remove(gone);
        for i in self.index.values_mut() {
            if *i > gone {
                *i -= 1;
            }
        }
        let close_gap = |set: &mut Vec<usize>| {
            set.retain(|&i| i != gone);
            for i in set.iter_mut() {
                if *i > gone {
                    *i -= 1;
                }
            }
        };
        self.by_tag.retain(|_, set| {
            close_gap(set);
            !set.is_empty()
        });
        close_gap(&mut self.overflowed);
    }

    /// Files `reader` under `tag`: it was just sent a result it may
    /// cache. Readers that never subscribed are none of our business.
    pub(crate) fn note_read(&mut self, reader: Endpoint, tag: &str) {
        let Some(&i) = self.index.get(&reader) else {
            return;
        };
        if self.load[i] == OVERFLOWED {
            return;
        }
        let room = self.load[i] < self.cap;
        match self.by_tag.get_mut(tag) {
            Some(set) => match set.binary_search(&i) {
                Ok(_) => return,
                Err(at) if room => set.insert(at, i),
                Err(_) => return self.overflow(i),
            },
            None if room => {
                self.by_tag.insert(tag.to_owned(), vec![i]);
            }
            None => return self.overflow(i),
        }
        self.load[i] += 1;
    }

    fn overflow(&mut self, i: usize) {
        self.by_tag.retain(|_, set| {
            set.retain(|&s| s != i);
            !set.is_empty()
        });
        self.load[i] = OVERFLOWED;
        let at = self.overflowed.partition_point(|&s| s < i);
        self.overflowed.insert(at, i);
    }

    /// The subscribers a successful write under `tag` must reach, in
    /// subscription order and without `writer` (its proxy drops its own
    /// copies), each with whether it must be told `"*"` in place of
    /// `tag`. Everyone returned is forgotten the way its cache forgets.
    pub(crate) fn take(&mut self, tag: &str, writer: Endpoint) -> Vec<(Endpoint, bool)> {
        let writer = self.index.get(&writer).copied();
        let mut hit: Vec<(usize, bool)> = Vec::new();
        if tag == "*" {
            // A whole-object write empties every cache, the writer's too.
            for (i, load) in self.load.iter_mut().enumerate() {
                if *load != 0 {
                    hit.push((i, true));
                    *load = 0;
                }
            }
            self.by_tag.clear();
            self.overflowed.clear();
        } else {
            for staled in [tag, "*"] {
                for i in self.by_tag.remove(staled).unwrap_or_default() {
                    self.load[i] -= 1;
                    hit.push((i, false));
                }
            }
            // An overflowed writer dropped only this tag: it stays owed.
            let load = &mut self.load;
            self.overflowed.retain(|&i| {
                if Some(i) == writer {
                    return true;
                }
                load[i] = 0;
                hit.push((i, true));
                false
            });
            hit.sort_unstable();
            hit.dedup();
        }
        hit.into_iter()
            .filter(|&(i, _)| Some(i) != writer)
            .map(|(i, all)| (self.subscribers[i], all))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use simnet::{NodeId, PortId};

    use super::*;

    fn ep(n: u32) -> Endpoint {
        Endpoint::new(NodeId(n), PortId(PortId::EPHEMERAL_BASE))
    }

    fn with_subscribers(n: u32, cap: usize) -> Sharers {
        let mut s = Sharers::new(cap);
        for i in 0..n {
            s.subscribe(ep(i));
        }
        s
    }

    /// Directory memory in use: filed (tag, subscriber) pairs.
    fn filed(s: &Sharers) -> usize {
        s.by_tag.values().map(Vec::len).sum()
    }

    #[test]
    fn a_write_reaches_only_the_readers_of_its_tag_and_breaks_the_callback() {
        let mut s = with_subscribers(4, 8);
        s.note_read(ep(2), "a");
        s.note_read(ep(0), "a");
        s.note_read(ep(1), "b");
        s.note_read(ep(2), "a"); // again: still filed once
                                 // Subscription order, not read order; ep(3) wrote, ep(1) never read "a".
        assert_eq!(s.take("a", ep(3)), [(ep(0), false), (ep(2), false)]);
        assert_eq!(s.take("a", ep(3)), [], "callbacks were broken");
        assert_eq!(s.take("b", ep(1)), [], "the writer is not told");
        assert_eq!(filed(&s), 0);
        assert!(s.by_tag.is_empty(), "emptied tags leave no entry behind");
    }

    #[test]
    fn whole_object_readers_hear_every_write_and_whole_object_writes_reach_every_sharer() {
        let mut s = with_subscribers(4, 8);
        s.note_read(ep(1), "*");
        s.note_read(ep(1), "a");
        s.note_read(ep(2), "b");
        // ep(1) is in both sets: told once. Its "*" filing goes with it.
        assert_eq!(s.take("a", ep(0)), [(ep(1), false)]);
        assert_eq!(s.take("c", ep(0)), [], "nobody reads c or * any more");
        s.note_read(ep(3), "*");
        s.note_read(ep(0), "a");
        // "*": everyone filed anywhere but the writer; ep(1) holds nothing.
        assert_eq!(s.take("*", ep(0)), [(ep(2), true), (ep(3), true)]);
        assert_eq!(filed(&s), 0);
        assert_eq!(s.load, [0, 0, 0, 0]);
    }

    #[test]
    fn unsubscribe_purges_and_keeps_later_subscribers_addressable() {
        let mut s = with_subscribers(4, 1);
        s.note_read(ep(0), "a");
        s.note_read(ep(1), "a");
        s.note_read(ep(3), "a");
        s.note_read(ep(2), "a");
        s.note_read(ep(2), "b"); // over a cap of 1: overflowed
        s.unsubscribe(ep(1));
        s.unsubscribe(ep(1)); // twice is harmless
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.take("a", ep(9)),
            [(ep(0), false), (ep(2), true), (ep(3), false)]
        );
        s.unsubscribe(ep(0));
        s.unsubscribe(ep(2));
        s.unsubscribe(ep(3));
        assert!(s.is_empty());
        s.note_read(ep(3), "a"); // no longer a subscriber
        assert!(s.by_tag.is_empty() && s.overflowed.is_empty());
    }

    #[test]
    fn a_reader_of_endless_keys_cannot_grow_the_directory() {
        let mut s = with_subscribers(2, 16);
        s.note_read(ep(1), "hot");
        for k in 0..10_000 {
            s.note_read(ep(0), &format!("k{k}"));
            assert!(filed(&s) <= 16 + 1 && s.by_tag.len() <= 16 + 1);
        }
        // Overflowed: filed nowhere, owed a whole-cache drop by whatever
        // is written next; the well-behaved reader is untouched by that.
        assert_eq!(filed(&s), 1);
        assert_eq!(s.take("cold", ep(9)), [(ep(0), true)]);
        assert_eq!(s.take("hot", ep(9)), [(ep(1), false)]);
        // ... after which it is tracked precisely again.
        s.note_read(ep(0), "k1");
        assert_eq!(s.take("k1", ep(9)), [(ep(0), false)]);
    }

    #[test]
    fn an_overflowed_writer_stays_owed_until_someone_else_writes() {
        let mut s = with_subscribers(2, 1);
        s.note_read(ep(0), "a");
        s.note_read(ep(0), "b");
        assert_eq!(s.take("a", ep(0)), [], "its own write drops one tag only");
        assert_eq!(s.take("a", ep(1)), [(ep(0), true)]);
        assert_eq!(s.take("a", ep(1)), []);
    }
}
