//! Duplicate-suppression window edge cases: cache hits, evictions, very
//! late duplicates, and duplicates of a call whose reply was deferred.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rpc::{ErrorCode, Packet, RemoteError, Reply, Request, RpcServer, Served};
use simnet::{Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// Hand-crafts a raw request datagram (bypassing RpcClient) so tests can
/// control call ids exactly.
fn raw_request(call_id: u64, reply_to: Endpoint, op: &str) -> Bytes {
    Request {
        call_id,
        reply_to,
        object: String::new(),
        op: op.to_owned(),
        args: Value::Null,
        span: 0,
    }
    .to_bytes()
}

fn decode_reply(payload: &[u8]) -> Reply {
    match Packet::from_bytes(payload).unwrap() {
        Packet::Reply(r) => r,
        other => panic!("expected reply, got {other:?}"),
    }
}

#[test]
fn retransmission_served_from_cache_without_reexecution() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let execs = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&execs);
    let server = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            rpc.handle(ctx, &msg, |_c, _req| {
                Ok(Value::U64(e2.fetch_add(1, Ordering::SeqCst) + 1))
            });
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        // Send call 1 twice, manually.
        ctx.send(server, raw_request(1, me, "inc"));
        ctx.send(server, raw_request(1, me, "inc"));
        let a = decode_reply(&ctx.recv().unwrap().payload);
        let b = decode_reply(&ctx.recv().unwrap().payload);
        assert_eq!(a, b, "cached reply must be byte-identical");
        assert_eq!(a.result.unwrap(), Value::U64(1));
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 1);
}

#[test]
fn evicted_duplicate_is_dropped_not_reexecuted() {
    // Push the client's window past its capacity (32), then replay call
    // id 1: it is older than the window, so it must be *dropped* — never
    // re-executed, and no reply sent.
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let execs = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let (e2, d2) = (Arc::clone(&execs), Arc::clone(&dropped));
    let server = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            let served = rpc.handle(ctx, &msg, |_c, _req| {
                Ok(Value::U64(e2.fetch_add(1, Ordering::SeqCst) + 1))
            });
            if matches!(served, Served::DuplicateDropped) {
                d2.fetch_add(1, Ordering::SeqCst);
            }
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        for id in 1..=40u64 {
            ctx.send(server, raw_request(id, me, "inc"));
            let _ = ctx.recv().unwrap();
        }
        // Very late duplicate of the long-evicted call 1.
        ctx.send(server, raw_request(1, me, "inc"));
        // No reply should come back for it.
        let silent = ctx
            .recv_timeout(std::time::Duration::from_millis(20))
            .unwrap();
        assert!(silent.is_none(), "evicted duplicate got a reply");
    });
    sim.run();
    assert_eq!(
        execs.load(Ordering::SeqCst),
        40,
        "late duplicate re-executed"
    );
    assert_eq!(dropped.load(Ordering::SeqCst), 1);
}

#[test]
fn undecodable_datagrams_are_counted_and_ignored() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let stats = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&stats);
    let server = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            rpc.handle(ctx, &msg, |_c, _req| Ok(Value::Null));
            s2.store(rpc.stats.undecodable, Ordering::SeqCst);
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        ctx.send(server, Bytes::from_static(b"complete garbage"));
        // A valid call afterwards still works.
        ctx.send(server, raw_request(1, ctx.endpoint(), "x"));
        let rep = decode_reply(&ctx.recv().unwrap().payload);
        assert!(rep.result.is_ok());
    });
    sim.run();
    assert_eq!(stats.load(Ordering::SeqCst), 1);
}

#[test]
fn handler_errors_are_cached_like_successes() {
    // At-most-once applies to failures too: a retransmitted failing call
    // must get the *cached* error, not a second execution.
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    let execs = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&execs);
    let server = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            rpc.handle(ctx, &msg, |_c, _req| {
                e2.fetch_add(1, Ordering::SeqCst);
                Err(RemoteError::new(ErrorCode::App, "always fails"))
            });
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        ctx.send(server, raw_request(7, me, "boom"));
        ctx.send(server, raw_request(7, me, "boom"));
        let a = decode_reply(&ctx.recv().unwrap().payload);
        let b = decode_reply(&ctx.recv().unwrap().payload);
        assert_eq!(a, b);
        assert_eq!(a.result.unwrap_err().code, ErrorCode::App);
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 1);
}

/// A server whose `slow` op defers its reply until a `release` call
/// arrives. Returns `(endpoint, executions of slow, duplicates dropped)`.
fn spawn_deferring(sim: &Simulation) -> (Endpoint, Arc<AtomicU64>, Arc<AtomicU64>) {
    let execs = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let (e2, d2) = (Arc::clone(&execs), Arc::clone(&dropped));
    let ep = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        let mut owed: Vec<(Endpoint, u64)> = Vec::new();
        while let Ok(msg) = ctx.recv() {
            let mut release = false;
            rpc.handle_deferred(ctx, &msg, |_c, req| match req.op.as_str() {
                "slow" => {
                    e2.fetch_add(1, Ordering::SeqCst);
                    owed.push((req.reply_to, req.call_id));
                    None
                }
                _ => {
                    release = true;
                    Some(Ok(Value::str("released")))
                }
            });
            if release {
                for (reply_to, call_id) in owed.drain(..) {
                    assert!(rpc.complete(ctx, reply_to, call_id, Ok(Value::str("done"))));
                    assert!(
                        !rpc.complete(ctx, reply_to, call_id, Ok(Value::str("again"))),
                        "a call completes once"
                    );
                }
            }
            d2.store(rpc.stats.duplicates_dropped, Ordering::SeqCst);
        }
    });
    (ep, execs, dropped)
}

#[test]
fn retransmit_while_executing_is_neither_rerun_nor_answered() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let (server, execs, dropped) = spawn_deferring(&sim);
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        // Call 1 and two retransmissions of it, all while it executes.
        for _ in 0..3 {
            ctx.send(server, raw_request(1, me, "slow"));
        }
        let silent = ctx
            .recv_timeout(std::time::Duration::from_millis(20))
            .unwrap();
        assert!(silent.is_none(), "an executing call was answered early");
        // Call 2 releases call 1: exactly one reply each.
        ctx.send(server, raw_request(2, me, "release"));
        let first = ctx.recv().unwrap();
        let second = ctx.recv().unwrap();
        let mut ids = [
            decode_reply(&first.payload).call_id,
            decode_reply(&second.payload).call_id,
        ];
        ids.sort_unstable();
        assert_eq!(ids, [1, 2]);
        let silent = ctx
            .recv_timeout(std::time::Duration::from_millis(20))
            .unwrap();
        assert!(silent.is_none(), "call 1 was answered more than once");
        // A retransmission after completion gets the recorded reply,
        // byte for byte.
        let original = if decode_reply(&first.payload).call_id == 1 {
            first.payload
        } else {
            second.payload
        };
        ctx.send(server, raw_request(1, me, "slow"));
        let resent = ctx.recv().unwrap().payload;
        assert_eq!(resent, original, "cached reply must be byte-identical");
        assert_eq!(
            decode_reply(&resent).result.unwrap(),
            Value::str("done"),
            "the completion's result, not a re-execution's"
        );
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 1, "deferred handler re-ran");
    assert_eq!(
        dropped.load(Ordering::SeqCst),
        2,
        "in-flight retransmissions count as dropped duplicates"
    );
}

#[test]
fn completing_an_unknown_call_sends_nothing() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 6);
    let server = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            let from = msg.src;
            rpc.handle(ctx, &msg, |_c, _req| Ok(Value::Null));
            // Call 1 was answered on the spot; call 9 never existed.
            assert!(!rpc.complete(ctx, from, 1, Ok(Value::U64(1))));
            assert!(!rpc.complete(ctx, from, 9, Ok(Value::U64(9))));
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        ctx.send(server, raw_request(1, ctx.endpoint(), "x"));
        let rep = decode_reply(&ctx.recv().unwrap().payload);
        assert_eq!(rep.result.unwrap(), Value::Null);
        let silent = ctx
            .recv_timeout(std::time::Duration::from_millis(20))
            .unwrap();
        assert!(silent.is_none(), "a stray completion produced a reply");
    });
    sim.run();
}
