//! End-to-end protocol tests: at-most-once execution under loss,
//! duplication and reordering (the property experiment E7 measures).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rpc::{
    Channel, ChannelConfig, ErrorCode, Packet, RemoteError, Request, RetryPolicy, RpcError,
    RpcServer, Served,
};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// A channel to `server` for one plain call at a time.
fn client(server: Endpoint, policy: RetryPolicy) -> Channel {
    Channel::new("", server, ChannelConfig::with_depth(1).with_policy(policy))
}

/// One plain call of `op` on `ch`, the body blocked until it settles.
fn call(ch: &mut Channel, ctx: &mut Ctx, op: &str, args: Value) -> Result<Value, RpcError> {
    ctx.block_on(|cx| ch.call(cx, "", op, args, None))
}

/// Spawns a counter server whose `inc` op is deliberately non-idempotent;
/// returns the shared execution counter.
fn spawn_counter(
    sim: &Simulation,
    node: NodeId,
    port: PortId,
) -> (simnet::Endpoint, Arc<AtomicU64>) {
    let execs = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&execs);
    let ep = sim.spawn_at("counter", node, port, move |ctx| {
        let mut srv = RpcServer::new();
        srv.serve(
            ctx,
            |_ctx, req| match req.op.as_str() {
                "inc" => {
                    let v = e.fetch_add(1, Ordering::SeqCst) + 1;
                    Ok(Value::U64(v))
                }
                "get" => Ok(Value::U64(e.load(Ordering::SeqCst))),
                _ => Err(RemoteError::new(ErrorCode::NoSuchOp, req.op.clone())),
            },
            |_, _| {},
        );
    });
    (ep, execs)
}

#[test]
fn calls_execute_exactly_once_on_clean_network() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let ok = Arc::new(AtomicU64::new(0));
    let ok2 = Arc::clone(&ok);
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = client(server, RetryPolicy::default());
        for i in 1..=50u64 {
            let v = call(&mut c, ctx, "inc", Value::Null).unwrap();
            assert_eq!(v, Value::U64(i));
        }
        assert_eq!(c.stats.retries, 0);
        ok2.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(ok.load(Ordering::SeqCst), 1);
    assert_eq!(execs.load(Ordering::SeqCst), 50);
}

/// The names of the profiler frames `rpc` opened: a datagram is read
/// under one frame, written under the other.
fn rpc_frames(prof: &obs::ProfileReport) -> Vec<&str> {
    let names = prof.frames.keys().map(String::as_str);
    names.filter(|k| k.starts_with("rpc;")).collect()
}

#[test]
fn every_datagram_is_decoded_once() {
    // The server reads every datagram it takes in through one decoder,
    // duplicates included, under one profiler frame: one call per
    // datagram, at either end.
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    sim.obs().enable_profile(64);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = client(server, RetryPolicy::default());
        for _ in 0..50 {
            call(&mut c, ctx, "inc", Value::Null).unwrap();
        }
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 50);
    let prof = sim.obs().profile_report().expect("profiler is on");
    assert_eq!(
        prof.frames["rpc;decode"].calls, 100,
        "50 requests decoded by the server, 50 replies by the client"
    );
    assert_eq!(rpc_frames(&prof), ["rpc;decode", "rpc;encode"]);

    // Call 1 sent three times by hand: one execution, two answers from
    // the reply cache, and all six datagrams decoded once each.
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    sim.obs().enable_profile(64);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let request = Request {
            call_id: 1,
            reply_to: ctx.endpoint(),
            object: String::new(),
            op: "inc".to_owned(),
            args: Value::Null,
            span: 0,
        }
        .to_bytes();
        for _ in 0..3 {
            ctx.send(server, request.clone());
        }
        for _ in 0..3 {
            match Packet::from_frame(&ctx.recv().unwrap().payload).unwrap() {
                Packet::Reply(r) => assert_eq!(r.result.unwrap(), Value::U64(1)),
                other => panic!("expected reply, got {other:?}"),
            }
        }
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 1);
    assert_eq!(sim.obs_report().rpc.server.duplicates_suppressed, 2);
    let prof = sim.obs().profile_report().expect("profiler is on");
    assert_eq!(
        prof.frames["rpc;decode"].calls, 6,
        "3 requests decoded by the server, 3 replies by the client"
    );
    assert_eq!(rpc_frames(&prof), ["rpc;decode", "rpc;encode"]);
}

#[test]
fn lossy_network_retries_but_never_double_executes() {
    // 20% loss: retransmissions happen, yet the non-idempotent counter
    // must advance exactly once per successful call.
    let mut sim = Simulation::new(NetworkConfig::lan().with_loss(0.20), 7);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let successes = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));
    let (s2, r2) = (Arc::clone(&successes), Arc::clone(&retries));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = client(
            server,
            RetryPolicy::exponential(Duration::from_millis(5), 8),
        );
        for _ in 0..100 {
            match call(&mut c, ctx, "inc", Value::Null) {
                Ok(_) => {
                    s2.fetch_add(1, Ordering::SeqCst);
                }
                Err(RpcError::Timeout { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        r2.store(c.stats.retries, Ordering::SeqCst);
    });
    sim.run();
    let s = successes.load(Ordering::SeqCst);
    let e = execs.load(Ordering::SeqCst);
    assert!(
        retries.load(Ordering::SeqCst) > 0,
        "20% loss must cause retries"
    );
    // Every success executed at least once; duplicates never re-executed.
    // Executions can exceed successes only for calls whose replies were
    // all lost (client timed out after server executed) — never for
    // retransmissions of an acknowledged call.
    assert!(e >= s, "executions {e} < successes {s}");
    let timeouts = 100 - s;
    assert!(
        e <= s + timeouts,
        "over-execution: {e} executions for {s} successes + {timeouts} timeouts"
    );
}

#[test]
fn duplicating_network_never_double_executes() {
    // 50% duplication: the server sees many duplicate datagrams but must
    // suppress every one of them.
    let mut sim = Simulation::new(NetworkConfig::lan().with_duplicate(0.5), 11);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = client(server, RetryPolicy::default());
        for i in 1..=100u64 {
            let v = call(&mut c, ctx, "inc", Value::Null).unwrap();
            assert_eq!(v, Value::U64(i), "duplicate executed!");
        }
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 100);
}

#[test]
fn a_blocked_client_counts_every_reply_it_cannot_use_and_every_stray_it_drops() {
    // Every datagram arrives twice, both copies at one instant (no
    // jitter), so the counts are arithmetic, not a property of the seed.
    // Per call the server executes one copy of the request and answers
    // the other from its reply cache: four replies reach the client
    // together. It takes the first and returns; the next call finds the
    // other three in the mailbox.
    const CALLS: u64 = 10;
    let expected = obs::CallStats {
        calls: CALLS,
        retries: 0,
        timeouts: 0,
        stale_replies: 3 * (CALLS - 1),
        strays_dropped: 4,
    };
    let mut sim = Simulation::new(NetworkConfig::lan().with_duplicate(1.0), 17);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let caller = sim.spawn_at("client", NodeId(1), PortId(5), move |ctx| {
        let mut c = client(server, RetryPolicy::default());
        for i in 1..=CALLS {
            // Under a span of the caller's, so replies are correlated.
            let (kind, now) = (obs::SpanKind::Invoke, ctx.now().as_nanos());
            let span = (ctx.obs()).open_span(kind, obs::SpanId::NONE, "counter", "inc", now);
            ctx.set_current_span(span);
            assert_eq!(
                call(&mut c, ctx, "inc", Value::Null).unwrap(),
                Value::U64(i)
            );
            ctx.obs().close_span(span, ctx.now().as_nanos(), true);
        }
        let seen = obs::CallStats {
            calls: c.stats.calls,
            retries: c.stats.retries,
            timeouts: c.stats.timeouts,
            stale_replies: c.stats.stale_replies,
            strays_dropped: c.stats.discarded,
        };
        assert_eq!(seen, expected);
    });
    // While the first call waits (its replies arrive at 1 ms): a one-way
    // and a request nobody asked the client to serve, two copies of each.
    sim.spawn("intruder", NodeId(2), move |ctx| {
        rpc::send_oneway(ctx, caller, ctx.name(), "poke", &Value::Null);
        let request = Request {
            call_id: 1,
            reply_to: ctx.endpoint(),
            object: String::new(),
            op: "inc".to_owned(),
            args: Value::Null,
            span: 0,
        };
        ctx.send(caller, request.to_bytes());
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), CALLS);
    let report = sim.obs_report();
    assert_eq!(report.rpc.client, expected);
    assert_eq!(report.rpc.server.executed, CALLS);
    assert_eq!(report.rpc.server.duplicates_suppressed, CALLS);
    // The first reply finds its call's span open; the three the next
    // call drains find it closed.
    assert_eq!(report.spans.replies.matched, CALLS);
    assert_eq!(report.spans.replies.late, 3 * (CALLS - 1));
}

#[test]
fn reordering_network_preserves_exactly_once() {
    let cfg = NetworkConfig::lan()
        .with_duplicate(0.3)
        .with_reorder_window(Duration::from_millis(2));
    let mut sim = Simulation::new(cfg, 13);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = client(server, RetryPolicy::fixed(Duration::from_millis(8), 6));
        for i in 1..=60u64 {
            let v = call(&mut c, ctx, "inc", Value::Null).unwrap();
            assert_eq!(v, Value::U64(i));
        }
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 60);
}

#[test]
fn total_partition_times_out() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let outcome = Arc::new(AtomicU64::new(0));
    let o2 = Arc::clone(&outcome);
    sim.spawn("client", NodeId(1), move |ctx| {
        ctx.net().partition(NodeId(0), NodeId(1));
        let mut c = client(server, RetryPolicy::fixed(Duration::from_millis(2), 3));
        match call(&mut c, ctx, "inc", Value::Null) {
            Err(RpcError::Timeout { attempts: 3 }) => o2.store(1, Ordering::SeqCst),
            other => panic!("expected timeout, got {other:?}"),
        }
    });
    sim.run();
    assert_eq!(outcome.load(Ordering::SeqCst), 1);
    assert_eq!(execs.load(Ordering::SeqCst), 0);
}

#[test]
fn remote_errors_propagate() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let (server, _execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = client(server, RetryPolicy::default());
        match call(&mut c, ctx, "frobnicate", Value::Null) {
            Err(RpcError::Remote(e)) => {
                assert_eq!(e.code, ErrorCode::NoSuchOp);
                assert_eq!(e.message, "frobnicate");
            }
            other => panic!("expected remote error, got {other:?}"),
        }
    });
    sim.run();
}

#[test]
fn two_clients_do_not_cross_replies() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 9);
    let (server_a, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    let echo = sim.spawn_at("echo", NodeId(0), PortId(2), |ctx| {
        let mut srv = RpcServer::new();
        srv.serve(ctx, |_c, req| Ok(req.args.clone()), |_, _| {});
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        // Two channels in the same process with overlapping call-id
        // spaces; source matching must keep replies straight.
        let mut a = client(server_a, RetryPolicy::default());
        let mut b = client(echo, RetryPolicy::default());
        for i in 1..=20u64 {
            assert_eq!(
                call(&mut a, ctx, "inc", Value::Null).unwrap(),
                Value::U64(i)
            );
            assert_eq!(
                call(&mut b, ctx, "echo", Value::U64(i * 100)).unwrap(),
                Value::U64(i * 100)
            );
        }
    });
    sim.run();
}

#[test]
fn retry_cost_grows_with_loss_rate() {
    // Ablation seed for E7: higher loss must strictly increase the number
    // of messages needed per successful call.
    fn messages_per_call(loss: f64) -> f64 {
        let mut sim = Simulation::new(NetworkConfig::lan().with_loss(loss), 21);
        let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
        sim.spawn("client", NodeId(1), move |ctx| {
            let mut c = client(
                server,
                RetryPolicy::exponential(Duration::from_millis(4), 10),
            );
            for _ in 0..80 {
                let _ = call(&mut c, ctx, "inc", Value::Null);
            }
        });
        let report = sim.run();
        report.metrics.msgs_sent as f64 / 80.0
    }
    let clean = messages_per_call(0.0);
    let lossy = messages_per_call(0.25);
    assert!(
        (2.0..2.2).contains(&clean),
        "clean network ~2 msgs/call, got {clean}"
    );
    assert!(
        lossy > clean * 1.2,
        "loss must raise message cost: {lossy} vs {clean}"
    );
}

#[test]
fn a_call_staged_behind_two_hundred_others_completes_under_loss_and_duplication() {
    // Two hundred calls staged at once on a depth-16, batch-4 channel,
    // 20 % loss and 20 % duplication: a call whose reply is lost can wait
    // behind any number of later calls that complete. Its reply must
    // still be there when its retransmission arrives — when the reply
    // cache held a fixed 32 per client, this run timed out 6 calls and
    // dropped 93 retransmissions unanswered. Every request the server
    // drops must be one its client has released: an id below the
    // highest `lo` that client has stated.
    let net = NetworkConfig::lan().with_loss(0.2).with_duplicate(0.2);
    let mut sim = Simulation::new(net, 30);
    let execs = Arc::new(AtomicU64::new(0));
    // (requests dropped, of which released by the client's `lo`)
    let drops = Arc::new(Mutex::new((0u64, 0u64)));
    let (e2, d2) = (Arc::clone(&execs), Arc::clone(&drops));
    let server = sim.spawn_at("counter", NodeId(0), PortId(1), move |ctx| {
        let mut srv = RpcServer::new();
        let mut max_lo = 0;
        while let Ok(msg) = ctx.recv() {
            let items = match Packet::from_frame(&msg.payload) {
                Ok(Packet::Batch(b)) => b.items,
                Ok(p) => vec![p],
                Err(_) => Vec::new(),
            };
            let mut ids = Vec::new();
            for item in items {
                if let Packet::Request(req, lo) = item {
                    max_lo = max_lo.max(lo);
                    ids.push(req.call_id);
                }
            }
            let dropped = match srv.handle(ctx, &msg, |_, _| {
                Ok(Value::U64(e2.fetch_add(1, Ordering::SeqCst) + 1))
            }) {
                Served::DuplicateDropped => 1,
                Served::Batch { dropped, .. } => dropped,
                _ => 0,
            };
            let released = ids.iter().filter(|&&id| id < max_lo).count() as u64;
            let mut d = d2.lock().unwrap();
            d.0 += dropped;
            d.1 += dropped.min(released);
        }
    });
    let stats = Arc::new(Mutex::new(None));
    let s2 = Arc::clone(&stats);
    sim.spawn("client", NodeId(1), move |ctx| {
        let policy = RetryPolicy::exponential(Duration::from_millis(4), 10);
        let cfg = ChannelConfig::with_depth(16).batched(4).with_policy(policy);
        let mut ch = Channel::new("counter", server, cfg);
        let handles: Vec<_> = (0..200)
            .map(|_| ch.begin_call(ctx, "inc", Value::Null))
            .collect();
        ctx.block_on(|cx| ch.wait_async(cx, None, None)).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for h in handles {
            let v = ch.wait(ctx, h).expect("every call completes");
            let n = v.as_u64().expect("a count");
            assert!(seen.insert(n), "two calls got one execution's reply");
        }
        assert_eq!(
            ctx.lowest_awaited(),
            None,
            "a settled call is still awaited"
        );
        *s2.lock().unwrap() = Some(ch.stats);
    });
    sim.run();
    let stats = stats.lock().unwrap().take().expect("client finished");
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.completed, 200);
    assert!(stats.retries > 0, "the loss was not exercised");
    assert_eq!(execs.load(Ordering::SeqCst), 200, "a call ran twice");
    let (dropped, released) = *drops.lock().unwrap();
    assert_eq!(
        dropped, released,
        "a request the client still awaited was dropped"
    );
}

#[test]
fn a_dropped_channel_releases_the_calls_it_had_in_flight() {
    // A channel dropped with eight calls in flight to a server that never
    // answers (a transfer that failed part-way, say) must not pin its
    // process's `lo` there: the next request the process sends, to
    // another server, states a `lo` above every one of them.
    let mut sim = Simulation::new(NetworkConfig::lan(), 31);
    let silent = sim.spawn_at(
        "silent",
        NodeId(0),
        PortId(1),
        |ctx| {
            while ctx.recv().is_ok() {}
        },
    );
    let seen: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
    let s2 = Arc::clone(&seen);
    let counter = sim.spawn_at("counter", NodeId(2), PortId(1), move |ctx| {
        let mut srv = RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            if let Ok(Packet::Request(req, lo)) = Packet::from_frame(&msg.payload) {
                s2.lock().unwrap().push((req.call_id, lo));
            }
            srv.handle(ctx, &msg, |_, _| Ok(Value::Null));
        }
    });
    let stuck = Arc::new(Mutex::new(Vec::new()));
    let st2 = Arc::clone(&stuck);
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("silent", silent, ChannelConfig::with_depth(8).batched(4));
        let ids: Vec<u64> = (0..8)
            .map(|_| ch.begin_call(ctx, "inc", Value::Null).call_id())
            .collect();
        ch.flush(ctx);
        assert_eq!(ch.outstanding(), 8);
        assert_eq!(ctx.lowest_awaited(), Some(ids[0]));
        drop(ch);
        assert_eq!(
            ctx.lowest_awaited(),
            None,
            "a dropped call is still awaited"
        );
        let mut c = client(counter, RetryPolicy::default());
        call(&mut c, ctx, "get", Value::Null).unwrap();
        *st2.lock().unwrap() = ids;
    });
    sim.run();
    let stuck = stuck.lock().unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 1);
    let (id, lo) = seen[0];
    assert_eq!(lo, id, "the next call is the lowest one awaited");
    assert!(
        stuck.iter().all(|&s| s < lo),
        "{stuck:?} not released by lo {lo}"
    );
}
