//! Pins the heap allocations `Packet::from_frame` makes per envelope.
//!
//! The receive path decodes every datagram a proxy, channel or server
//! takes in, so its allocation count is a cost every remote invocation
//! pays. A counting global allocator makes that count exact: unlike a
//! timing it has no host noise, so a regression fails here outright.
//!
//! What a decode may allocate: the owned `op` (and a non-empty `object`)
//! of each request, the `Vec` of each record or list inside `args`, `ok`
//! or `data`, and a batch's item list. Header fields, keys, strings and
//! blobs are read in place or alias the datagram.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rpc::{Batch, Packet, Reply, Request};
use simnet::{Endpoint, NodeId, PortId};
use wire::Value;

/// Counts this thread's allocations, so tests running in parallel on
/// other threads do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` that never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one decode of `frame` (after a warm-up decode, so
/// lazily initialised thread state is not counted).
fn decode_allocs(frame: &bytes::Bytes) -> u64 {
    Packet::from_frame(frame).expect("warm-up decode");
    let before = ALLOCS.with(Cell::get);
    let packet = Packet::from_frame(frame);
    let after = ALLOCS.with(Cell::get);
    assert!(packet.is_ok(), "decodes: {packet:?}");
    after - before
}

fn client() -> Endpoint {
    Endpoint::new(NodeId(3), PortId(70_001))
}

/// A stub client's `get`, as the fleet workloads send it.
fn fleet_request(i: u64) -> Request {
    Request {
        call_id: 1_000 + i,
        reply_to: client(),
        object: String::new(),
        op: "get".into(),
        args: Value::record([("key", Value::str(format!("key-{i}")))]),
        span: 4_242 + i,
    }
}

/// A pipelined channel's 4 KiB `put`.
fn blob_request(i: u64) -> Request {
    Request {
        op: "put".into(),
        args: Value::record([
            ("key", Value::str(format!("client-1/key-{i}"))),
            ("value", Value::blob(vec![0xA5u8; 4096])),
        ]),
        ..fleet_request(i)
    }
}

fn ok_reply(i: u64, v: Value) -> Reply {
    Reply {
        call_id: 1_000 + i,
        result: Ok(v),
        span: 4_242 + i,
    }
}

#[test]
fn fleet_request_allocates_its_op_and_args_record() {
    // As a channel sends it, with the process's `lo` beside it: read in
    // place, like every other header field.
    assert_eq!(decode_allocs(&fleet_request(1).to_bytes_with_lo(1_001)), 2);
}

#[test]
fn ok_reply_allocates_nothing() {
    let reply = ok_reply(1, Value::str("value-1"));
    assert_eq!(decode_allocs(&reply.to_bytes()), 0);
}

#[test]
fn batch_of_blob_requests_allocates_two_per_item_plus_the_list() {
    let batch = Batch {
        items: (0..4)
            .map(|i| Packet::Request(blob_request(i), 1_000))
            .collect(),
    };
    assert_eq!(decode_allocs(&batch.to_bytes()), 9);
}

#[test]
fn batch_of_replies_allocates_only_the_list() {
    let batch = Batch {
        items: (0..4)
            .map(|i| Packet::Reply(ok_reply(i, Value::U64(i))))
            .collect(),
    };
    assert_eq!(decode_allocs(&batch.to_bytes()), 1);
}
