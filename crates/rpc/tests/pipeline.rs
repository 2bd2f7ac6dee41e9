//! End-to-end tests of the pipelined [`Channel`]: multiple outstanding
//! calls, out-of-order completion, batching, and — the property that
//! must survive all of it — at-most-once execution under loss and
//! duplication, also when the server defers its replies. The last
//! section covers the per-path round-trip estimate behind the
//! retransmission timers of both [`Channel`] and [`RpcClient`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RetryPolicy, RpcClient, RpcError};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// Spawns a counter server whose `inc` op is deliberately
/// non-idempotent; `echo` returns its argument. Returns the shared
/// execution counter.
fn spawn_counter(
    sim: &Simulation,
    node: NodeId,
    port: PortId,
) -> (simnet::Endpoint, Arc<AtomicU64>) {
    let execs = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&execs);
    let ep = sim.spawn_at("counter", node, port, move |ctx| {
        let mut srv = rpc::RpcServer::new();
        srv.serve(
            ctx,
            |_ctx, req| match req.op.as_str() {
                "inc" => Ok(Value::U64(e.fetch_add(1, Ordering::SeqCst) + 1)),
                "echo" => Ok(req.args.clone()),
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            },
            |_, _| {},
        );
    });
    (ep, execs)
}

#[test]
fn pipelined_calls_all_succeed() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    let done = Arc::new(AtomicU64::new(0));
    let d2 = Arc::clone(&done);
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(8));
        let handles: Vec<_> = (0..64u64)
            .map(|i| ch.begin_call(ctx, "echo", Value::U64(i)))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let v = ch.wait(ctx, h).unwrap();
            assert_eq!(v, Value::U64(i as u64), "reply matched to wrong call");
        }
        assert_eq!(ch.stats.completed, 64);
        assert_eq!(ch.stats.timeouts, 0);
        d2.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(done.load(Ordering::SeqCst), 1);
}

#[test]
fn results_claimable_in_any_order() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(4));
        let handles: Vec<_> = (0..4u64)
            .map(|i| ch.begin_call(ctx, "echo", Value::U64(i)))
            .collect();
        ch.wait_all(ctx).unwrap();
        // Claim in reverse: results must stay addressable by handle.
        for (i, h) in handles.into_iter().enumerate().rev() {
            assert_eq!(ch.wait(ctx, h).unwrap(), Value::U64(i as u64));
        }
    });
    sim.run();
}

#[test]
fn pipelining_overlaps_round_trips() {
    // 64 calls at depth 8 must finish in far less wall-clock (simulated)
    // time than 64 synchronous round trips on the same network.
    fn run_depth(depth: usize) -> Duration {
        let mut sim = Simulation::new(NetworkConfig::lan(), 3);
        let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
        let elapsed = Arc::new(Mutex::new(Duration::ZERO));
        let e2 = Arc::clone(&elapsed);
        sim.spawn("client", NodeId(1), move |ctx| {
            let t0 = ctx.now();
            let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(depth));
            let handles: Vec<_> = (0..64u64)
                .map(|i| ch.begin_call(ctx, "echo", Value::U64(i)))
                .collect();
            for h in handles {
                ch.wait(ctx, h).unwrap();
            }
            *e2.lock().unwrap() = ctx.now() - t0;
        });
        sim.run();
        let d = *elapsed.lock().unwrap();
        d
    }
    let serial = run_depth(1);
    let deep = run_depth(8);
    assert!(
        deep < serial / 4,
        "depth 8 should be >=4x faster than depth 1: {deep:?} vs {serial:?}"
    );
}

#[test]
fn pipelining_under_loss_and_duplication_never_over_executes() {
    // The at-most-once property must survive out-of-order completion:
    // with 30% loss and 30% duplication, retransmitted ids complete in
    // arbitrary order and the server's window must still suppress every
    // duplicate of an executed call.
    let cfg = NetworkConfig::lan().with_loss(0.30).with_duplicate(0.30);
    let mut sim = Simulation::new(cfg, 7);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let out = Arc::new(Mutex::new((0u64, 0u64, 0u64)));
    let o2 = Arc::clone(&out);
    sim.spawn("client", NodeId(1), move |ctx| {
        let cfg = ChannelConfig::with_depth(8)
            .with_policy(RetryPolicy::exponential(Duration::from_millis(4), 10));
        let mut ch = Channel::new("counter", server, cfg);
        let handles: Vec<_> = (0..200u64)
            .map(|_| ch.begin_call(ctx, "inc", Value::Null))
            .collect();
        let mut ok = 0u64;
        for h in handles {
            match ch.wait(ctx, h) {
                Ok(_) => ok += 1,
                Err(RpcError::Timeout { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        *o2.lock().unwrap() = (ok, ch.stats.timeouts, ch.stats.retries);
    });
    sim.run();
    let (ok, timeouts, retries) = *out.lock().unwrap();
    let e = execs.load(Ordering::SeqCst);
    assert!(retries > 0, "30% loss must cause retransmissions");
    assert!(e >= ok, "every success executed: {e} execs, {ok} ok");
    assert!(
        e <= ok + timeouts,
        "over-execution: {e} execs for {ok} ok + {timeouts} timeouts"
    );
}

#[test]
fn batching_reduces_datagrams() {
    fn msgs_for(max_batch: usize) -> (u64, u64) {
        let mut sim = Simulation::new(NetworkConfig::lan(), 5);
        let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
        let batches = Arc::new(AtomicU64::new(0));
        let b2 = Arc::clone(&batches);
        sim.spawn("client", NodeId(1), move |ctx| {
            let mut ch = Channel::new(
                "counter",
                server,
                ChannelConfig::with_depth(64).batched(max_batch),
            );
            let handles: Vec<_> = (0..64u64)
                .map(|i| ch.begin_call(ctx, "echo", Value::U64(i)))
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(ch.wait(ctx, h).unwrap(), Value::U64(i as u64));
            }
            b2.store(ch.stats.batches_sent, Ordering::SeqCst);
        });
        let report = sim.run();
        (report.metrics.msgs_sent, batches.load(Ordering::SeqCst))
    }
    let (unbatched, b0) = msgs_for(1);
    let (batched, b8) = msgs_for(8);
    assert_eq!(b0, 0, "max_batch=1 must not batch");
    assert!(b8 > 0, "max_batch=8 must batch");
    assert!(
        batched * 2 <= unbatched,
        "batch 8 must at least halve messages/op: {batched} vs {unbatched}"
    );
}

#[test]
fn batched_calls_execute_exactly_once() {
    // Batched requests go through the same dedup window: the counter
    // must advance exactly once per call even when requests share
    // datagrams (and 30% duplication re-delivers whole batches).
    let mut sim = Simulation::new(NetworkConfig::lan().with_duplicate(0.30), 11);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(16).batched(4));
        let handles: Vec<_> = (0..80u64)
            .map(|_| ch.begin_call(ctx, "inc", Value::Null))
            .collect();
        let mut results: Vec<u64> = handles
            .into_iter()
            .map(|h| match ch.wait(ctx, h).unwrap() {
                Value::U64(n) => n,
                other => panic!("bad reply {other:?}"),
            })
            .collect();
        // Each call saw a distinct counter value: no double-execution
        // leaked into any reply.
        results.sort_unstable();
        results.dedup();
        assert_eq!(results.len(), 80, "duplicate counter values in replies");
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 80);
}

#[test]
fn channel_and_sync_client_share_id_space_safely() {
    // A process may hold both a Channel and a plain RpcClient against
    // the same server; call ids come from one per-process counter so the
    // server window never confuses them.
    let mut sim = Simulation::new(NetworkConfig::lan(), 13);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(4));
        let mut sync = RpcClient::new(server);
        for round in 0..10u64 {
            let h = ch.begin_call(ctx, "inc", Value::Null);
            let _ = sync.call(ctx, "inc", Value::Null).unwrap();
            ch.wait(ctx, h).unwrap();
            let _ = round;
        }
    });
    sim.run();
    assert_eq!(execs.load(Ordering::SeqCst), 20);
}

#[test]
fn remote_errors_settle_per_call() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 17);
    let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(4).batched(2));
        let good = ch.begin_call(ctx, "echo", Value::U64(1));
        let bad = ch.begin_call(ctx, "frobnicate", Value::Null);
        assert_eq!(ch.wait(ctx, good).unwrap(), Value::U64(1));
        match ch.wait(ctx, bad) {
            Err(RpcError::Remote(e)) => assert_eq!(e.code, ErrorCode::NoSuchOp),
            other => panic!("expected remote error, got {other:?}"),
        }
    });
    sim.run();
}

#[test]
fn deferred_replies_under_loss_and_duplication_execute_exactly_once() {
    // The same at-most-once property with a server that answers every
    // call 3 ms after it started: retransmissions now also land *while*
    // the call executes, where they must be dropped — not re-run, and
    // not answered ahead of the completion.
    let cfg = NetworkConfig::lan().with_loss(0.30).with_duplicate(0.30);
    let mut sim = Simulation::new(cfg, 23);
    let execs = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&execs);
    let server = sim.spawn_at("slow-counter", NodeId(0), PortId(1), move |ctx| {
        let mut srv = rpc::RpcServer::new();
        // (due, reply_to, call_id, value), in start order.
        let mut owed: std::collections::VecDeque<(simnet::SimTime, simnet::Endpoint, u64, u64)> =
            std::collections::VecDeque::new();
        loop {
            let msg = match owed.front() {
                Some(&(due, ..)) => ctx.recv_deadline(due),
                None => ctx.recv().map(Some),
            };
            let Ok(msg) = msg else { return };
            if let Some(msg) = msg {
                srv.handle_deferred(ctx, &msg, |ctx, req| {
                    let n = e.fetch_add(1, Ordering::SeqCst) + 1;
                    let due = ctx.now() + Duration::from_millis(3);
                    owed.push_back((due, req.reply_to, req.call_id, n));
                    None
                });
            }
            while owed.front().is_some_and(|&(due, ..)| due <= ctx.now()) {
                let (_, reply_to, call_id, n) = owed.pop_front().expect("checked front");
                assert!(srv.complete(ctx, reply_to, call_id, Ok(Value::U64(n))));
            }
        }
    });
    let out = Arc::new(Mutex::new((Vec::new(), 0u64, 0u64)));
    let o2 = Arc::clone(&out);
    sim.spawn("client", NodeId(1), move |ctx| {
        let cfg = ChannelConfig::with_depth(8)
            .with_policy(RetryPolicy::exponential(Duration::from_millis(4), 10));
        let mut ch = Channel::new("slow-counter", server, cfg);
        let handles: Vec<_> = (0..200u64)
            .map(|_| ch.begin_call(ctx, "inc", Value::Null))
            .collect();
        let mut seen = Vec::new();
        for h in handles {
            match ch.wait(ctx, h) {
                Ok(Value::U64(n)) => seen.push(n),
                Ok(other) => panic!("bad reply {other:?}"),
                Err(RpcError::Timeout { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        *o2.lock().unwrap() = (seen, ch.stats.timeouts, ch.stats.retries);
    });
    sim.run();
    let (mut seen, timeouts, retries) = std::mem::take(&mut *out.lock().unwrap());
    let ok = seen.len() as u64;
    let e = execs.load(Ordering::SeqCst);
    assert!(retries > 0, "30% loss must cause retransmissions");
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len() as u64, ok, "two calls saw one execution");
    assert!(e >= ok, "every success executed: {e} execs, {ok} ok");
    assert!(
        e <= ok + timeouts,
        "over-execution: {e} execs for {ok} ok + {timeouts} timeouts"
    );
}

// -- the round-trip estimate behind the timers ---------------------------

/// What one client saw over a run of sequential calls on a loss-free
/// link: per call, the retransmissions it needed and whether the client
/// held a round-trip sample afterwards.
type CallLog = Vec<(u64, bool)>;

/// Runs `calls` sequential echo calls over a jitter-free link of
/// `one_way` latency, once through a [`Channel`] and once through an
/// [`RpcClient`], both with a 10 ms floor and patience for a 1 s round
/// trip.
fn sequential_calls(one_way: Duration, calls: u64) -> (CallLog, CallLog) {
    let policy = RetryPolicy::exponential(Duration::from_millis(10), 8);
    let mut sim = Simulation::new(NetworkConfig::lan().with_remote_latency(one_way), 29);
    let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    let logs = Arc::new(Mutex::new((CallLog::new(), CallLog::new())));
    let (l1, l2, p2) = (Arc::clone(&logs), Arc::clone(&logs), policy.clone());
    sim.spawn("pipelined", NodeId(1), move |ctx| {
        let mut ch = Channel::new(
            "counter",
            server,
            ChannelConfig::with_depth(4).with_policy(policy),
        );
        for i in 0..calls {
            let before = ch.stats.retries;
            let h = ch.begin_call(ctx, "echo", Value::U64(i));
            assert_eq!(ch.wait(ctx, h).unwrap(), Value::U64(i));
            let entry = (ch.stats.retries - before, ch.srtt().is_some());
            l1.lock().unwrap().0.push(entry);
        }
    });
    sim.spawn("synchronous", NodeId(2), move |ctx| {
        let mut client = RpcClient::with_policy(server, p2);
        for i in 0..calls {
            let before = client.stats.retries;
            assert_eq!(
                client.call(ctx, "echo", Value::U64(i)).unwrap(),
                Value::U64(i)
            );
            let entry = (client.stats.retries - before, client.srtt().is_some());
            l2.lock().unwrap().1.push(entry);
        }
    });
    sim.run();
    let logs = std::mem::take(&mut *logs.lock().unwrap());
    logs
}

/// Karn's rule and its consequence, read off one call log: a call that
/// was retransmitted never produces the first sample, and once a sample
/// exists no later call is retransmitted.
fn check_log(log: &CallLog, who: &str, one_way: Duration) -> Result<(), TestCaseError> {
    let mut sampled = false;
    for (i, &(retries, has_sample)) in log.iter().enumerate() {
        if sampled {
            prop_assert_eq!(
                retries,
                0,
                "{} call {} retransmitted after the first sample ({:?} one way)",
                who,
                i,
                one_way
            );
        } else if retries > 0 {
            prop_assert!(
                !has_sample,
                "{} call {} was retransmitted and sampled ({:?} one way)",
                who,
                i,
                one_way
            );
        }
        sampled = has_sample;
    }
    prop_assert!(
        sampled,
        "{} never obtained a sample in {} calls ({:?} one way)",
        who,
        log.len(),
        one_way
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn loss_free_links_stop_retransmitting_after_the_first_sample(
        one_way_us in 50u64..500_000,
    ) {
        let one_way = Duration::from_micros(one_way_us);
        let (pipelined, synchronous) = sequential_calls(one_way, 12);
        check_log(&pipelined, "channel", one_way)?;
        check_log(&synchronous, "client", one_way)?;
    }
}

#[test]
fn a_path_faster_than_the_floor_never_moves_its_timers() {
    // The estimate only lengthens: on a LAN the first-attempt deadline is
    // the policy's 10 ms whatever has been sampled, so a lost request is
    // retransmitted exactly 10 ms after it was sent.
    let mut sim = Simulation::new(NetworkConfig::lan(), 31);
    let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(1));
        for i in 0..50u64 {
            let h = ch.begin_call(ctx, "echo", Value::U64(i));
            ch.flush(ctx);
            let sent = ctx.now();
            assert_eq!(
                ch.next_deadline(),
                Some(sent + Duration::from_millis(10)),
                "call {i}: deadline moved off the floor"
            );
            ch.wait(ctx, h).unwrap();
        }
        assert!(ch.srtt().is_some_and(|rtt| rtt < Duration::from_millis(2)));
    });
    sim.run();
}
