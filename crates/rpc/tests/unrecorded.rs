//! Calls answered without a record ([`Pass::settle_unrecorded`]): no
//! client window, no `lo` released, and a retransmission runs again —
//! while recorded calls from the same clients keep at-most-once.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rpc::{Packet, Reply, Request, RpcServer};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// What the test server has done: handler runs per op, and the client
/// windows it keeps after its latest datagram.
#[derive(Default)]
struct Seen {
    reads: AtomicU64,
    writes: AtomicU64,
    windows: AtomicUsize,
}

/// A server whose `read` is answered unrecorded and whose `write` is
/// recorded; each answers with how many times its handler has run.
fn spawn_server(sim: &Simulation) -> (Endpoint, Arc<Seen>) {
    let seen = Arc::new(Seen::default());
    let s = Arc::clone(&seen);
    let ep = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut srv = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            let Ok(mut pass) = srv.pass(ctx, &msg) else {
                continue;
            };
            while let Some(fresh) = pass.next(&mut srv, ctx) {
                if fresh.req.op == "read" {
                    let n = s.reads.fetch_add(1, Ordering::SeqCst) + 1;
                    let ok = wire::encode(&Value::U64(n));
                    pass.settle_unrecorded(&mut srv, ctx, &fresh, Ok(ok));
                } else {
                    let n = s.writes.fetch_add(1, Ordering::SeqCst) + 1;
                    pass.settle(&mut srv, ctx, &fresh, Some(Ok(Value::U64(n))));
                }
            }
            pass.finish(ctx);
            s.windows.store(srv.windows_len(), Ordering::SeqCst);
        }
    });
    (ep, seen)
}

fn request(ctx: &Ctx, call_id: u64, op: &str, lo: u64) -> Bytes {
    Request {
        call_id,
        reply_to: ctx.endpoint(),
        object: String::new(),
        op: op.to_owned(),
        args: Value::Null,
        span: 0,
    }
    .to_bytes_with_lo(lo)
}

/// Sends a request and returns its reply's frame, or `None` if none
/// comes within 20 ms.
fn call(ctx: &mut Ctx, server: Endpoint, call_id: u64, op: &str, lo: u64) -> Option<Bytes> {
    ctx.send(server, request(ctx, call_id, op, lo));
    let deadline = ctx.now() + Duration::from_millis(20);
    let msg = ctx.block_on(|cx| cx.recv_deadline(deadline)).unwrap()?;
    Some(msg.payload)
}

fn answer(frame: &Bytes) -> Value {
    match Packet::from_frame(frame).unwrap() {
        Packet::Reply(Reply { result, .. }) => result.unwrap(),
        other => panic!("expected a reply, got {other:?}"),
    }
}

#[test]
fn an_unrecorded_call_keeps_no_window_and_runs_again_when_retransmitted() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let (server, seen) = spawn_server(&sim);
    let s = Arc::clone(&seen);
    sim.spawn("client", NodeId(1), move |ctx| {
        let first = call(ctx, server, 1, "read", 1).expect("answered");
        assert_eq!(answer(&first), Value::U64(1));
        assert_eq!(s.windows.load(Ordering::SeqCst), 0, "a read made a window");
        let again = call(ctx, server, 1, "read", 1).expect("a retransmission is answered");
        assert_eq!(answer(&again), Value::U64(2), "not run again");
        assert_eq!(s.windows.load(Ordering::SeqCst), 0);
    });
    sim.run();
    assert_eq!(seen.reads.load(Ordering::SeqCst), 2);
}

#[test]
fn a_recorded_call_from_the_same_client_is_still_answered_from_its_record() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let (server, seen) = spawn_server(&sim);
    let s = Arc::clone(&seen);
    sim.spawn("client", NodeId(1), move |ctx| {
        call(ctx, server, 1, "read", 1).expect("answered");
        let first = call(ctx, server, 2, "write", 2).expect("answered");
        assert_eq!(s.windows.load(Ordering::SeqCst), 1);
        // A read stating `lo` 3 releases nothing: the write's reply
        // stays, and its retransmission is answered from it.
        call(ctx, server, 3, "read", 3).expect("answered");
        let again = call(ctx, server, 2, "write", 2).expect("answered from the record");
        assert_eq!(again, first, "a recorded reply is resent byte for byte");
        call(ctx, server, 3, "read", 3).expect("a read is run again");
    });
    sim.run();
    assert_eq!(seen.writes.load(Ordering::SeqCst), 1, "a write ran twice");
    assert_eq!(seen.reads.load(Ordering::SeqCst), 3);
}

#[test]
fn the_lo_of_an_unrecorded_call_releases_nothing() {
    // A client with no window states `lo` 5 on a read. It raises no
    // floor: a later recorded call below 5 is fresh and runs, where a
    // recorded call's `lo` 5 would have had it dropped unrun.
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let (server, seen) = spawn_server(&sim);
    let s = Arc::clone(&seen);
    sim.spawn("client", NodeId(1), move |ctx| {
        call(ctx, server, 5, "read", 5).expect("answered");
        assert_eq!(s.windows.load(Ordering::SeqCst), 0);
        let w = call(ctx, server, 3, "write", 3).expect("a call above no floor runs");
        assert_eq!(answer(&w), Value::U64(1));
        call(ctx, server, 6, "write", 6).expect("answered");
        let dropped = call(ctx, server, 4, "write", 4);
        assert!(dropped.is_none(), "a call below a recorded call's `lo` ran");
    });
    sim.run();
    assert_eq!(seen.writes.load(Ordering::SeqCst), 2);
}
