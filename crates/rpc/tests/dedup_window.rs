//! Duplicate-suppression window edge cases: cache hits, replies released
//! by the client's `lo` and kept without one, very late duplicates, and
//! duplicates of a call whose reply was deferred.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rpc::{ErrorCode, Packet, RemoteError, Reply, Request, RpcServer, Served};
use simnet::{Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// Hand-crafts a raw request datagram (bypassing the channel) so tests can
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

fn decode_reply(payload: &Bytes) -> Reply {
    match Packet::from_frame(payload).unwrap() {
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

/// A server counting executions of its one op and the requests it drops.
/// Returns `(endpoint, executions, drops)`.
fn spawn_counting(sim: &Simulation) -> (Endpoint, Arc<AtomicU64>, Arc<AtomicU64>) {
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
    (server, execs, dropped)
}

/// `raw_request` with the sender's `lo` beside it.
fn raw_request_lo(call_id: u64, reply_to: Endpoint, op: &str, lo: u64) -> Bytes {
    Request {
        call_id,
        reply_to,
        object: String::new(),
        op: op.to_owned(),
        args: Value::Null,
        span: 0,
    }
    .to_bytes_with_lo(lo)
}

/// Waits a little for a datagram that must not come.
fn assert_silent(ctx: &mut simnet::Ctx, what: &str) {
    let deadline = ctx.now() + std::time::Duration::from_millis(20);
    let silent = ctx.block_on(|cx| cx.recv_deadline(deadline)).unwrap();
    assert!(silent.is_none(), "{what}");
}

#[test]
fn evicted_duplicate_is_dropped_not_reexecuted() {
    // Forty calls, one at a time, each stating `lo` = its own id: by the
    // last the client has released calls 1..=39, so the server has
    // forgotten their replies. A very late duplicate of call 1 must be
    // *dropped* — never re-executed, and no reply sent — while the one
    // call the client may still await is answered from the cache.
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let (server, execs, dropped) = spawn_counting(&sim);
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        for id in 1..=40u64 {
            ctx.send(server, raw_request_lo(id, me, "inc", id));
            let _ = ctx.recv().unwrap();
        }
        // Very late duplicate of the released call 1, as first sent.
        ctx.send(server, raw_request_lo(1, me, "inc", 1));
        assert_silent(ctx, "released duplicate got a reply");
        ctx.send(server, raw_request_lo(40, me, "inc", 40));
        let rep = decode_reply(&ctx.recv().unwrap().payload);
        assert_eq!(rep.result.unwrap(), Value::U64(40));
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
fn a_request_whose_lo_is_above_its_own_id_is_dropped_unrun() {
    // A request that says its client no longer awaits it is moot: it is
    // dropped without running the handler or being answered, fresh id
    // or not.
    let mut sim = Simulation::new(NetworkConfig::lan(), 8);
    let (server, execs, dropped) = spawn_counting(&sim);
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        ctx.send(server, raw_request_lo(5, me, "inc", 6));
        assert_silent(ctx, "a released call was answered");
        // The `lo` it stated still counts: id 3 is released too.
        ctx.send(server, raw_request(3, me, "inc"));
        assert_silent(ctx, "an id below the stated lo was answered");
        ctx.send(server, raw_request_lo(6, me, "inc", 6));
        let rep = decode_reply(&ctx.recv().unwrap().payload);
        assert_eq!(rep.result.unwrap(), Value::U64(1));
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 1, "a released call ran");
    assert_eq!(dropped.load(Ordering::SeqCst), 2);
}

#[test]
fn a_request_without_lo_evicts_nothing() {
    // Forty calls that state no `lo`: the server cannot tell which
    // replies the client is done with, so it keeps them all. A late
    // duplicate of call 1 gets the recorded reply, not a re-execution.
    let mut sim = Simulation::new(NetworkConfig::lan(), 9);
    let (server, execs, dropped) = spawn_counting(&sim);
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        let mut first = None;
        for id in 1..=40u64 {
            ctx.send(server, raw_request(id, me, "inc"));
            let payload = ctx.recv().unwrap().payload;
            first.get_or_insert(payload);
        }
        ctx.send(server, raw_request(1, me, "inc"));
        let resent = ctx.recv().unwrap().payload;
        assert_eq!(Some(resent), first, "not the recorded reply");
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 40, "call 1 re-executed");
    assert_eq!(dropped.load(Ordering::SeqCst), 0);
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
fn a_duplicate_the_decoder_rejects_is_undecodable_though_its_call_is_cached() {
    // Whether a frame is accepted does not depend on the server's
    // duplicate state: a checksum-valid retransmission of an executed
    // call whose op name is not UTF-8 is dropped as undecodable, not
    // answered from the reply cache.
    let mut sim = Simulation::new(NetworkConfig::lan(), 7);
    let execs = Arc::new(AtomicU64::new(0));
    let undecodable = Arc::new(AtomicU64::new(0));
    let counted = Arc::new(AtomicU64::new(0));
    let (e2, u2, c2) = (
        Arc::clone(&execs),
        Arc::clone(&undecodable),
        Arc::clone(&counted),
    );
    let server = sim.spawn_at("srv", NodeId(0), PortId(1), move |ctx| {
        let mut rpc = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            let served = rpc.handle(ctx, &msg, |_c, _req| {
                Ok(Value::U64(e2.fetch_add(1, Ordering::SeqCst) + 1))
            });
            if matches!(served, Served::Undecodable) {
                u2.fetch_add(1, Ordering::SeqCst);
            }
            c2.store(rpc.stats.undecodable, Ordering::SeqCst);
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        let me = ctx.endpoint();
        ctx.send(server, raw_request(1, me, "inc"));
        let rep = decode_reply(&ctx.recv().unwrap().payload);
        assert_eq!(rep.result.unwrap(), Value::U64(1));

        // The same request with its op bytes made invalid UTF-8 and the
        // header's checksum rewritten to match.
        let mut bad = raw_request(1, me, "inc").to_vec();
        let is_op = |w: &[u8]| w == b"inc";
        assert_eq!(bad.windows(3).filter(|w| is_op(w)).count(), 1);
        let at = bad.windows(3).position(is_op).unwrap();
        bad[at..at + 3].copy_from_slice(&[0xFF, 0xFE, 0xFD]);
        let crc = wire::crc32(&bad[wire::HEADER_LEN..]);
        bad[3..7].copy_from_slice(&crc.to_le_bytes());
        let bad = Bytes::from(bad);
        assert_eq!(
            Packet::from_frame(&bad).unwrap_err(),
            wire::WireError::BadUtf8
        );
        ctx.send(server, bad);
        assert_silent(ctx, "an undecodable duplicate got a reply");
    });
    sim.run();
    assert_eq!(
        undecodable.load(Ordering::SeqCst),
        1,
        "not Served::Undecodable"
    );
    assert_eq!(counted.load(Ordering::SeqCst), 1, "stats.undecodable");
    assert_eq!(execs.load(Ordering::SeqCst), 1, "handler re-ran");
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
                // Every owed call, each named twice: the second is no
                // longer executing when its turn comes.
                let n = owed.len();
                let results = owed.drain(..).flat_map(|(reply_to, call_id)| {
                    [
                        (reply_to, call_id, Ok(Value::str("done"))),
                        (reply_to, call_id, Ok(Value::str("again"))),
                    ]
                });
                assert_eq!(rpc.complete(ctx, results), n, "a call completes once");
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
        assert_silent(ctx, "an executing call was answered early");
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
        assert_silent(ctx, "call 1 was answered more than once");
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

/// Calls completed together leave as one datagram per client: a batch
/// of that client's replies, in the order the calls started. Each item
/// is the frame recorded for its call, so a later retransmission of the
/// call is answered with those bytes, from the reply cache, unrun.
#[test]
fn calls_completed_together_are_one_datagram_per_client() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 7);
    let (server, execs, _) = spawn_deferring(&sim);
    for c in 0..2u32 {
        sim.spawn(format!("client{c}"), NodeId(1 + c), move |ctx| {
            let me = ctx.endpoint();
            ctx.send(server, raw_request(1, me, "slow"));
            ctx.send(server, raw_request(2, me, "slow"));
            let mut got = Vec::new();
            if c == 1 {
                // Both clients' calls are executing by now; this one
                // releases them all at once.
                ctx.sleep(std::time::Duration::from_millis(5)).unwrap();
                ctx.send(server, raw_request(3, me, "release"));
                got.push(ctx.recv().unwrap().payload);
            }
            got.push(ctx.recv().unwrap().payload);
            assert_silent(ctx, "completed calls were answered more than once");
            let mut batches = got.iter().filter_map(|p| match Packet::from_frame(p) {
                Ok(Packet::Batch(batch)) => Some(batch),
                _ => None,
            });
            let batch = batches.next().expect("one reply batch");
            assert!(batches.next().is_none(), "client {c} got two batches");
            let replies: Vec<Reply> = batch
                .items
                .into_iter()
                .map(|item| match item {
                    Packet::Reply(r) => r,
                    other => panic!("not a reply: {other:?}"),
                })
                .collect();
            assert_eq!(
                replies.iter().map(|r| r.call_id).collect::<Vec<_>>(),
                [1, 2]
            );
            assert!(replies.iter().all(|r| r.result == Ok(Value::str("done"))));
            for reply in &replies {
                ctx.send(server, raw_request(reply.call_id, me, "slow"));
                let resent = ctx.recv().unwrap().payload;
                assert_eq!(resent, reply.to_bytes(), "not the recorded frame");
            }
        });
    }
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 4, "a retransmission re-ran");
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
            let results = [(from, 1, Ok(Value::U64(1))), (from, 9, Ok(Value::U64(9)))];
            assert_eq!(rpc.complete(ctx, results), 0);
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        ctx.send(server, raw_request(1, ctx.endpoint(), "x"));
        let rep = decode_reply(&ctx.recv().unwrap().payload);
        assert_eq!(rep.result.unwrap(), Value::Null);
        assert_silent(ctx, "a stray completion produced a reply");
    });
    sim.run();
}

#[test]
fn a_truncated_wrong_kind_or_overlong_window_encoding_is_refused() {
    // One client, 0:9, whose floor is 2 and whose call 3 has a recorded
    // reply: the window as a checkpoint carries it.
    let reply = Reply {
        call_id: 3,
        result: Ok(Value::U64(1)),
        span: 0,
    }
    .to_bytes();
    let window = |floor: Value, tail: &[Value]| {
        let mut slots = vec![Value::U64(0), Value::U64(9), floor];
        slots.extend_from_slice(tail);
        wire::encode(&Value::list([Value::list(slots)]))
    };
    let recorded = [Value::U64(3), Value::Blob(reply.clone())];
    let good = window(Value::U64(2), &recorded);
    let restored = RpcServer::restore(&good).expect("a good encoding");
    assert_eq!(restored.windows_len(), 1);
    assert_eq!(restored.encode_windows(), good, "restored as encoded");

    for cut in [0, 1, good.len() / 2, good.len() - 1] {
        let truncated = Bytes::copy_from_slice(&good[..cut]);
        assert!(RpcServer::restore(&truncated).is_err(), "cut at {cut}");
    }
    for wrong in [
        window(Value::str("2"), &recorded),
        window(
            Value::U64(2),
            &[Value::str("3"), Value::Blob(reply.clone())],
        ),
        window(Value::U64(2), &[Value::U64(3), Value::str("reply")]),
        window(Value::U64(2), &recorded[..1]),
        wire::encode(&Value::list([Value::U64(0)])),
        wire::encode(&Value::str("garbage")),
    ] {
        assert!(
            matches!(
                RpcServer::restore(&wrong),
                Err(wire::WireError::WrongKind { .. })
            ),
            "{:?}",
            wire::decode(&wrong)
        );
    }
    let mut long = good.to_vec();
    long.push(0);
    assert_eq!(
        RpcServer::restore(&Bytes::from(long)).map(|s| s.windows_len()),
        Err(wire::WireError::TrailingBytes(1))
    );
}
