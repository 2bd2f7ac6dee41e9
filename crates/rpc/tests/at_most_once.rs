//! End-to-end protocol tests: at-most-once execution under loss,
//! duplication and reordering (the property experiment E7 measures).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpc::{ErrorCode, RemoteError, Request, RetryPolicy, RpcClient, RpcError, RpcServer};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

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
        let mut c = RpcClient::new(server);
        for i in 1..=50u64 {
            let v = c.call(ctx, "inc", Value::Null).unwrap();
            assert_eq!(v, Value::U64(i));
        }
        assert_eq!(c.stats.retries, 0);
        ok2.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(ok.load(Ordering::SeqCst), 1);
    assert_eq!(execs.load(Ordering::SeqCst), 50);
}

#[test]
fn profiler_bills_both_server_side_checksum_passes() {
    // Every datagram the server takes in is verified twice: once by the
    // duplicate-suppression peek, once by the full decode. Each pass
    // runs under a profiler frame of its own, one call per datagram.
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    sim.obs().enable_profile(64);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut c = RpcClient::new(server);
        for _ in 0..50 {
            c.call(ctx, "inc", Value::Null).unwrap();
        }
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 50);
    let prof = sim.obs().profile_report().expect("profiler is on");
    assert_eq!(prof.frames["rpc;peek"].calls, 50, "50 requests peeked");
    assert_eq!(
        prof.frames["rpc;decode"].calls, 100,
        "50 requests decoded by the server, 50 replies by the client"
    );
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
        let mut c = RpcClient::with_policy(
            server,
            RetryPolicy::exponential(Duration::from_millis(5), 8),
        );
        for _ in 0..100 {
            match c.call(ctx, "inc", Value::Null) {
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
        let mut c = RpcClient::new(server);
        for i in 1..=100u64 {
            let v = c.call(ctx, "inc", Value::Null).unwrap();
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
    let expected = rpc::CallStats {
        calls: CALLS,
        retries: 0,
        timeouts: 0,
        stale_replies: 3 * (CALLS - 1),
        strays_dropped: 4,
    };
    let mut sim = Simulation::new(NetworkConfig::lan().with_duplicate(1.0), 17);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let client = sim.spawn_at("client", NodeId(1), PortId(5), move |ctx| {
        let mut c = RpcClient::new(server);
        for i in 1..=CALLS {
            // Under a span of the caller's, so replies are correlated.
            let (kind, now) = (obs::SpanKind::Invoke, ctx.now().as_nanos());
            let span = (ctx.obs()).open_span(kind, obs::SpanId::NONE, "counter", "inc", now);
            ctx.set_current_span(span);
            assert_eq!(c.call(ctx, "inc", Value::Null).unwrap(), Value::U64(i));
            ctx.obs().close_span(span, ctx.now().as_nanos(), true);
        }
        assert_eq!(c.stats, expected);
    });
    // While the first call waits (its replies arrive at 1 ms): a one-way
    // and a request nobody asked the client to serve, two copies of each.
    sim.spawn("intruder", NodeId(2), move |ctx| {
        rpc::send_oneway(ctx, client, "poke", &Value::Null);
        let request = Request {
            call_id: 1,
            reply_to: ctx.endpoint(),
            object: String::new(),
            op: "inc".to_owned(),
            args: Value::Null,
            span: 0,
        };
        ctx.send(client, request.to_bytes());
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
        let mut c = RpcClient::with_policy(server, RetryPolicy::fixed(Duration::from_millis(8), 6));
        for i in 1..=60u64 {
            let v = c.call(ctx, "inc", Value::Null).unwrap();
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
        let mut c = RpcClient::with_policy(server, RetryPolicy::fixed(Duration::from_millis(2), 3));
        match c.call(ctx, "inc", Value::Null) {
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
        let mut c = RpcClient::new(server);
        match c.call(ctx, "frobnicate", Value::Null) {
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
        // Two RpcClients in the same process with overlapping call-id
        // spaces; source matching must keep replies straight.
        let mut a = RpcClient::new(server_a);
        let mut b = RpcClient::new(echo);
        for i in 1..=20u64 {
            assert_eq!(a.call(ctx, "inc", Value::Null).unwrap(), Value::U64(i));
            assert_eq!(
                b.call(ctx, "echo", Value::U64(i * 100)).unwrap(),
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
            let mut c = RpcClient::with_policy(
                server,
                RetryPolicy::exponential(Duration::from_millis(4), 10),
            );
            for _ in 0..80 {
                let _ = c.call(ctx, "inc", Value::Null);
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
