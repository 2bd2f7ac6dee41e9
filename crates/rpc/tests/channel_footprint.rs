//! What a client keeps on the heap for its channels, and how big the
//! structures that hold them are.
//!
//! A parked client holds its channels for as long as it lives, so a
//! channel's capacity is paid once per client, however many clients are
//! parked. A counting global allocator measures what a channel holds: the
//! bytes dropping it frees. It lives in this test binary alone, and it
//! counts this thread only, where the simulation runs every process, so
//! tests running in parallel on other threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::mem::size_of;
use std::sync::{Arc, Mutex};

use naming::NameClient;
use proxy_core::{Binder, SessionCore};
use rpc::{Channel, ChannelConfig, RpcServer};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// Tracks the bytes this thread holds: allocated minus freed.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` that never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap bytes `value` holds: what dropping it frees.
fn held<T>(value: T) -> i64 {
    let before = LIVE.with(Cell::get);
    drop(value);
    before - LIVE.with(Cell::get)
}

/// The size of one call's record in a channel's queue of unsettled calls
/// (private to `rpc`): one call's worth of that queue's capacity.
const CALL_SLOT: i64 = 264;

/// A depth-8 channel makes `k` calls one after another, claiming each
/// before it begins the next, for `k` from 1 to 5; each channel is
/// measured right after its last claim. Every one of them holds exactly
/// one call's worth of queue, however deep its window: nothing for the
/// results it handed out, and no room for calls it never had in flight
/// at once.
#[test]
fn a_sequential_caller_holds_one_calls_worth() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let server = sim.spawn_at("echo", NodeId(0), PortId(10), |ctx| {
        let mut srv = RpcServer::new();
        srv.serve(ctx, |_, req| Ok(req.args.clone()), |_, _| {});
    });
    let measured = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&measured);
    sim.spawn_async("client", NodeId(1), move |cx| async move {
        for k in 1..=5u64 {
            let mut ch = Channel::new("", server, ChannelConfig::with_depth(8));
            for i in 0..k {
                let reply = ch.call(cx, "", "echo", Value::U64(i), None).await;
                assert_eq!(reply.unwrap(), Value::U64(i));
            }
            assert_eq!((ch.outstanding(), ch.queued()), (0, 0));
            let bytes = held(ch);
            out.lock().unwrap().push(bytes);
        }
    });
    sim.run();
    assert_eq!(*measured.lock().unwrap(), [CALL_SLOT; 5]);
}

/// The exact sizes of the structures a client context keeps inline: its
/// channels, its name client, its binder and its session core. A change
/// that moves one pastes the printed table and says why.
#[test]
fn the_client_structures_are_exactly_their_size() {
    let actual = [
        ("Channel", size_of::<Channel>()),
        ("NameClient", size_of::<NameClient>()),
        ("Binder", size_of::<Binder>()),
        ("SessionCore", size_of::<SessionCore>()),
    ];
    const EXPECTED: [(&str, usize); 4] = [
        ("Channel", 392),
        ("NameClient", 80),
        ("Binder", 200),
        ("SessionCore", 328),
    ];
    if actual != EXPECTED {
        let mut table = String::from("    const EXPECTED: [(&str, usize); 4] = [\n");
        for row in actual {
            let _ = writeln!(table, "        {row:?},");
        }
        table.push_str("    ];\n");
        panic!("client structure sizes moved; the whole table:\n\n{table}");
    }
}
