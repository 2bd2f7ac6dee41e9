//! The call ids a process still awaits (see [`Awaited`]).

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

/// One process's awaited ids, ascending: ids are minted ascending, so
/// each joins at the back. Shared between the process's [`Ctx`] and the
/// [`Awaited`] values it handed out, which may be dropped anywhere.
///
/// [`Ctx`]: crate::Ctx
pub(crate) type AwaitedIds = Arc<Mutex<VecDeque<u64>>>;

/// Marks `id`, the highest id minted so far, as awaited.
pub(crate) fn hold(ids: &AwaitedIds, id: u64) -> Awaited {
    let mut held = ids.lock();
    debug_assert!(held.back().is_none_or(|&last| last < id), "ids ascend");
    held.push_back(id);
    Awaited {
        id,
        ids: Arc::clone(ids),
    }
}

/// An id its process awaits until this is dropped.
///
/// A protocol layer that mints an id for a call it will wait on takes it
/// from [`Ctx::await_next`] rather than [`Ctx::next_seq`], and keeps this
/// value as long as the call is unsettled. The id stops being awaited
/// however the call ends — a reply, a timeout, or its owner dropped with
/// the call still in flight — because dropping this is what ends it.
/// [`Ctx::lowest_awaited`] is the lowest id still held: the process
/// waits on no id below it, so a server may forget every answer it
/// recorded for those.
///
/// [`Ctx::await_next`]: crate::Ctx::await_next
/// [`Ctx::next_seq`]: crate::Ctx::next_seq
/// [`Ctx::lowest_awaited`]: crate::Ctx::lowest_awaited
pub struct Awaited {
    id: u64,
    ids: AwaitedIds,
}

impl std::fmt::Debug for Awaited {
    /// The id alone: the shared set is the process's, not this value's.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Awaited").field(&self.id).finish()
    }
}

impl Awaited {
    /// The id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Awaited {
    fn drop(&mut self) {
        let mut held = self.ids.lock();
        if let Ok(at) = held.binary_search(&self.id) {
            held.remove(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use crate::{NetworkConfig, NodeId, Simulation};

    use super::*;

    #[test]
    fn the_lowest_held_id_is_the_lowest_awaited() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 1);
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        sim.spawn("client", NodeId(0), move |ctx| {
            assert_eq!(ctx.lowest_awaited(), None, "nothing minted yet");
            let a = ctx.await_next();
            // An id minted without being awaited (a spill key, say) is
            // not tracked, and the ids around it still ascend.
            let plain = ctx.next_seq();
            let b = ctx.await_next();
            let c = ctx.await_next();
            assert_eq!((a.id(), plain, b.id(), c.id()), (1, 2, 3, 4));
            assert_eq!(ctx.lowest_awaited(), Some(1));
            drop(b);
            assert_eq!(ctx.lowest_awaited(), Some(1), "a later id settled");
            drop(a);
            assert_eq!(ctx.lowest_awaited(), Some(4));
            drop(c);
            assert_eq!(ctx.lowest_awaited(), None);
            r2.store(true, Ordering::SeqCst);
        });
        sim.run();
        assert!(ran.load(Ordering::SeqCst));
    }
}
