//! End-to-end tests of the pipelined [`Channel`]: multiple outstanding
//! calls, out-of-order completion, batching, and — the property that
//! must survive all of it — at-most-once execution under loss and
//! duplication, also when the server defers its replies. The later
//! sections cover the per-path round-trip estimate behind the
//! retransmission timers of staged and plain calls alike, and loss
//! detection from evidence: an overtaken call is repaired a round trip
//! after the evidence, reordering alone repairs nothing, and the policy
//! still decides when to give up.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RetryPolicy, RpcError};
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

/// Spawns a counter server that may answer later: `delay` maps a
/// request's op to how long after its start the reply is owed (`None`:
/// on the spot). Every op counts one execution and returns the count.
fn spawn_slow_counter(
    sim: &Simulation,
    node: NodeId,
    port: PortId,
    delay: impl Fn(&str) -> Option<Duration> + Send + 'static,
) -> (simnet::Endpoint, Arc<AtomicU64>) {
    let execs = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&execs);
    let ep = sim.spawn_at("slow-counter", node, port, move |ctx| {
        let mut srv = rpc::RpcServer::new();
        // (due, reply_to, call_id, value), in due order.
        let mut owed: Vec<(simnet::SimTime, simnet::Endpoint, u64, u64)> = Vec::new();
        loop {
            let msg = match owed.first() {
                Some(&(due, ..)) => ctx.block_on(|cx| cx.recv_deadline(due)),
                None => ctx.recv().map(Some),
            };
            let Ok(msg) = msg else { return };
            if let Some(msg) = msg {
                srv.handle_deferred(ctx, &msg, |ctx, req| {
                    let n = e.fetch_add(1, Ordering::SeqCst) + 1;
                    let Some(delay) = delay(&req.op) else {
                        return Some(Ok(Value::U64(n)));
                    };
                    let due = ctx.now() + delay;
                    let at = owed.partition_point(|&(d, ..)| d <= due);
                    owed.insert(at, (due, req.reply_to, req.call_id, n));
                    None
                });
            }
            while owed.first().is_some_and(|&(due, ..)| due <= ctx.now()) {
                let (_, reply_to, call_id, n) = owed.remove(0);
                assert_eq!(
                    srv.complete(ctx, [(reply_to, call_id, Ok(Value::U64(n)))]),
                    1
                );
            }
        }
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
        ctx.block_on(|cx| ch.wait_async(cx, None, None)).unwrap();
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
    // A process may hold a pipelined Channel and a depth-1 one making
    // plain calls against the same server; call ids come from one
    // per-process counter so the server window never confuses them.
    let mut sim = Simulation::new(NetworkConfig::lan(), 13);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, ChannelConfig::with_depth(4));
        let mut sync = Channel::new("", server, ChannelConfig::with_depth(1));
        for round in 0..10u64 {
            let h = ch.begin_call(ctx, "inc", Value::Null);
            let _ = (ctx.block_on(|cx| sync.call(cx, "", "inc", Value::Null, None))).unwrap();
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
    let (server, execs) = spawn_slow_counter(&sim, NodeId(0), PortId(1), |_| {
        Some(Duration::from_millis(3))
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

/// What one client saw over a run of sequential calls: per call, the
/// retransmissions it needed, whether the client held a round-trip
/// sample afterwards, and when it completed.
type CallLog = Vec<(u64, bool, simnet::SimTime)>;

/// Runs `calls` sequential echo calls over `cfg`, once staged and waited
/// for on a [`Channel`] of depth 1 and once through [`Channel::call`] on
/// another, both with a
/// 10 ms floor and patience for a 1 s round trip. Each client has a
/// simulation of its own with the same seed, so the two meet the same
/// network as long as they send the same datagrams at the same instants.
fn sequential_calls(
    cfg: NetworkConfig,
    calls: u64,
) -> ((CallLog, obs::RunReport), (CallLog, obs::RunReport)) {
    let run = |pipelined: bool| {
        let policy = RetryPolicy::exponential(Duration::from_millis(10), 8);
        let mut sim = Simulation::new(cfg.clone(), 29);
        let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
        let log = Arc::new(Mutex::new(CallLog::new()));
        let l2 = Arc::clone(&log);
        sim.spawn("client", NodeId(1), move |ctx| {
            let cfg = ChannelConfig::with_depth(1).with_policy(policy);
            let mut ch = Channel::new("counter", server, cfg.clone());
            let mut client = Channel::new("", server, cfg);
            for i in 0..calls {
                let (retries, sampled) = if pipelined {
                    let before = ch.stats.retries;
                    let h = ch.begin_call(ctx, "echo", Value::U64(i));
                    assert_eq!(ch.wait(ctx, h).unwrap(), Value::U64(i));
                    (ch.stats.retries - before, ch.srtt().is_some())
                } else {
                    // A staged call opens an invoke span and its requests
                    // carry it; a plain call's carry the caller's, so the
                    // caller opens the same one.
                    let (kind, now) = (obs::SpanKind::Invoke, ctx.now().as_nanos());
                    let parent = ctx.current_span();
                    let span = (ctx.obs()).open_span(kind, parent, "counter", "echo", now);
                    let outer = ctx.set_current_span(span);
                    let before = client.stats.retries;
                    let args = Value::U64(i);
                    let reply = ctx.block_on(|cx| client.call(cx, "", "echo", args, None));
                    ctx.set_current_span(outer);
                    let now = ctx.now().as_nanos();
                    ctx.obs().close_span(span, now, reply.is_ok());
                    assert_eq!(reply.unwrap(), Value::U64(i));
                    (client.stats.retries - before, client.srtt().is_some())
                };
                l2.lock().unwrap().push((retries, sampled, ctx.now()));
            }
        });
        sim.run();
        let log = std::mem::take(&mut *log.lock().unwrap());
        (log, sim.obs_report())
    };
    (run(true), run(false))
}

/// Karn's rule and its consequence, read off one call log: a call that
/// was retransmitted never produces the first sample, and once a sample
/// exists no later call is retransmitted.
fn check_log(log: &CallLog, who: &str, one_way: Duration) -> Result<(), TestCaseError> {
    let mut sampled = false;
    for (i, &(retries, has_sample, _)) in log.iter().enumerate() {
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
        let cfg = NetworkConfig::lan().with_remote_latency(one_way);
        let ((pipelined, _), (synchronous, _)) = sequential_calls(cfg, 12);
        check_log(&pipelined, "channel", one_way)?;
        check_log(&synchronous, "client", one_way)?;
    }
}

#[test]
fn a_depth_one_channel_and_a_client_are_one_transport_under_loss_and_duplication() {
    // Same seed, same network: as long as the two send the same bytes at
    // the same instants they draw the same fates, so any difference in
    // timer, matcher or estimator shows up as a difference below.
    let cfg = NetworkConfig::lan().with_loss(0.10).with_duplicate(0.10);
    let ((channel, ch_report), (client, cl_report)) = sequential_calls(cfg, 300);
    let retransmitted = client.iter().filter(|&&(retries, ..)| retries > 0);
    assert!(retransmitted.count() > 10, "the seed must lose datagrams");
    assert_eq!(channel, client, "per-call retransmissions and instants");
    assert_eq!(ch_report.net, cl_report.net, "datagrams and bytes sent");
    assert_eq!(ch_report.rpc, cl_report.rpc, "client and server counters");
    assert_eq!(cl_report.rpc.server.executed, 300);
    assert!(cl_report.rpc.server.duplicates_suppressed > 0);
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

// -- loss detected from evidence ------------------------------------------

const FLOOR: Duration = Duration::from_millis(10);

/// The benchmark's channel: window 16, four calls per datagram, a 10 ms
/// floor.
fn windowed(attempts: u32) -> ChannelConfig {
    ChannelConfig::with_depth(16)
        .batched(4)
        .with_policy(RetryPolicy::exponential(FLOOR, attempts))
}

/// Issues `calls` calls of `op(i)` keeping the channel's window full, and
/// hands each result to `each` as soon as its call has settled.
fn drive(
    ch: &mut Channel,
    ctx: &mut simnet::Ctx,
    calls: u64,
    op: impl Fn(u64) -> &'static str,
    mut each: impl FnMut(&Channel, u64, Result<Value, RpcError>),
) {
    let mut open = std::collections::VecDeque::new();
    let mut issued = 0;
    while issued < calls || !open.is_empty() {
        while issued < calls && open.len() < 16 {
            open.push_back((issued, ch.begin_call(ctx, op(issued), Value::Null)));
            issued += 1;
        }
        let (_, front) = open[0];
        if !ch.is_settled(front) {
            let result = ch.wait(ctx, front);
            let (i, _) = open.pop_front().expect("front exists");
            each(ch, i, result);
        }
        // Out-of-order completion: claim whatever else has settled.
        let mut k = 0;
        while k < open.len() {
            match ch.try_take(open[k].1) {
                Some(result) => {
                    let (i, _) = open.remove(k).expect("index in range");
                    each(ch, i, result);
                }
                None => k += 1,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn reordering_alone_is_not_evidence_enough(
        one_way_us in 50u64..500_000,
        jitter in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        // Loss-free link, replies overtaking each other by up to 0.6 of
        // the one-way latency: before the first clean sample the floor may
        // fire needlessly (as it always did on a slow path), afterwards
        // nothing is ever sent twice.
        let net = NetworkConfig::lan()
            .with_remote_latency(Duration::from_micros(one_way_us))
            .with_jitter(jitter);
        let mut sim = Simulation::new(net, seed);
        let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
        let out = Arc::new(Mutex::new((None, 0u64)));
        let o2 = Arc::clone(&out);
        sim.spawn("client", NodeId(1), move |ctx| {
            let mut ch = Channel::new("counter", server, windowed(8));
            let mut at_first_sample = None;
            drive(&mut ch, ctx, 240, |_| "inc", |ch, _, result| {
                result.expect("loss-free call");
                if ch.srtt().is_some() {
                    at_first_sample.get_or_insert(ch.stats.retries);
                }
            });
            *o2.lock().unwrap() = (at_first_sample, ch.stats.retries);
        });
        sim.run();
        let (at_first_sample, retries) = *out.lock().unwrap();
        prop_assert_eq!(execs.load(Ordering::SeqCst), 240);
        prop_assert_eq!(
            at_first_sample,
            Some(retries),
            "retransmitted after the first sample ({}us one way, jitter {})",
            one_way_us,
            jitter
        );
    }
}

/// One lossy run on the benchmark's channel. Returns the distinct
/// counters the calls saw, `(ok, timeouts, retries)` and the server's
/// executions.
fn lossy_leg(loss: f64, deferred: bool, seed: u64) -> (usize, (u64, u64, u64), u64) {
    let net = NetworkConfig::lan()
        .with_jitter(0.05)
        .with_loss(loss)
        .with_duplicate(loss);
    let mut sim = Simulation::new(net, seed);
    let (server, execs) = if deferred {
        spawn_slow_counter(&sim, NodeId(0), PortId(1), |_| {
            Some(Duration::from_millis(3))
        })
    } else {
        spawn_counter(&sim, NodeId(0), PortId(1))
    };
    let out = Arc::new(Mutex::new((Vec::new(), 0u64, 0u64)));
    let o2 = Arc::clone(&out);
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, windowed(10));
        let mut seen = Vec::new();
        drive(
            &mut ch,
            ctx,
            400,
            |_| "inc",
            |_, _, result| match result {
                Ok(Value::U64(n)) => seen.push(n),
                Ok(other) => panic!("bad reply {other:?}"),
                Err(RpcError::Timeout { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            },
        );
        *o2.lock().unwrap() = (seen, ch.stats.timeouts, ch.stats.retries);
    });
    sim.run();
    let (mut seen, timeouts, retries) = std::mem::take(&mut *out.lock().unwrap());
    let ok = seen.len() as u64;
    seen.sort_unstable();
    seen.dedup();
    (
        seen.len(),
        (ok, timeouts, retries),
        execs.load(Ordering::SeqCst),
    )
}

#[test]
fn batched_retransmissions_under_loss_and_duplication_execute_exactly_once() {
    // Retransmissions made on evidence, ahead of the policy's timers and
    // four to a datagram, meet the same server window: no call runs
    // twice, no two calls see one execution, whether the server answers
    // on the spot or 3 ms later.
    for (loss, deferred, seed) in [
        (0.02, false, 41),
        (0.02, true, 43),
        (0.30, false, 47),
        (0.30, true, 53),
    ] {
        let leg = format!("loss {loss}, deferred {deferred}");
        let (distinct, (ok, timeouts, retries), execs) = lossy_leg(loss, deferred, seed);
        assert!(retries > 0, "{leg}: no retransmission, nothing proved");
        assert_eq!(
            ok + timeouts,
            400,
            "{leg}: a call neither settled nor timed out"
        );
        assert_eq!(distinct as u64, ok, "{leg}: two calls saw one execution");
        assert!(execs >= ok, "{leg}: {execs} execs for {ok} ok");
        assert!(
            execs <= ok + timeouts,
            "{leg}: over-execution: {execs} execs for {ok} ok + {timeouts} timeouts"
        );
        if loss < 0.1 {
            assert_eq!(timeouts, 0, "{leg}: 2% loss exhausted ten attempts");
        }
    }
}

/// A client on node 1 that has warmed its channel up with 64 calls, then
/// loses one whole batch (`lost`, sent while partitioned from the
/// server) and sends a second one (`later`) that gets through. Runs
/// `then` with both and returns what it returns, plus the datagrams the
/// whole simulation sent.
fn lose_a_batch<T: Send + 'static>(
    then: impl FnOnce(&mut Channel, &mut simnet::Ctx, [rpc::CallHandle; 4], [rpc::CallHandle; 4]) -> T
        + Send
        + 'static,
) -> (T, u64, u64) {
    let mut sim = Simulation::new(NetworkConfig::lan(), 59);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, windowed(8));
        drive(
            &mut ch,
            ctx,
            64,
            |_| "inc",
            |_, _, r| {
                r.expect("warm-up call");
            },
        );
        assert_eq!(ch.stats.retries, 0);
        ctx.net().partition(NodeId(0), NodeId(1));
        let lost = [(); 4].map(|()| ch.begin_call(ctx, "inc", Value::Null));
        ch.flush(ctx);
        ctx.net().heal(NodeId(0), NodeId(1));
        let later = [(); 4].map(|()| ch.begin_call(ctx, "inc", Value::Null));
        ch.flush(ctx);
        *o2.lock().unwrap() = Some(then(&mut ch, ctx, lost, later));
    });
    let report = sim.run();
    let t = out.lock().unwrap().take().expect("client finished");
    (t, report.metrics.msgs_sent, execs.load(Ordering::SeqCst))
}

#[test]
fn a_lost_batch_is_repaired_a_round_trip_after_the_evidence() {
    let ((srtt, evidence, repaired, retries), msgs, execs) =
        lose_a_batch(|ch, ctx, lost, later| {
            let sent = ctx.now();
            for h in later {
                ch.wait(ctx, h).expect("later batch");
            }
            let evidence = ctx.now() - sent;
            for h in lost {
                ch.wait(ctx, h).expect("lost batch, retransmitted");
            }
            let srtt = ch.srtt().expect("warmed up");
            (srtt, evidence, ctx.now() - sent, ch.stats.retries)
        });
    assert_eq!(execs, 72);
    assert_eq!(retries, 4, "each lost call retransmitted once");
    assert!(
        repaired - evidence <= srtt * 4,
        "overtaken at {evidence:?}, repaired only at {repaired:?} (srtt {srtt:?})"
    );
    assert!(repaired < FLOOR, "waited out the floor: {repaired:?}");
    // 16 + 16 warm-up datagrams, the lost batch, the later batch and its
    // reply batch — and ONE retransmission with ONE reply batch.
    assert_eq!(msgs, 37, "batch-mates were not retransmitted together");
}

#[test]
fn a_lost_retransmission_backs_off_from_the_path_not_the_floor() {
    let ((repaired, retries), _, execs) = lose_a_batch(|ch, ctx, lost, later| {
        let sent = ctx.now();
        for h in later {
            ch.wait(ctx, h).expect("later batch");
        }
        // The overtaken batch goes out again a path timeout after it was
        // sent: lose that one too.
        ctx.net().partition(NodeId(0), NodeId(1));
        while ch.stats.retries == 0 {
            ctx.sleep(Duration::from_micros(100)).expect("running");
            ch.tick(ctx);
            while let Some(msg) = ctx.try_recv().expect("running") {
                ch.offer(ctx, &msg);
            }
            ch.flush(ctx);
        }
        ctx.net().heal(NodeId(0), NodeId(1));
        for h in lost {
            ch.wait(ctx, h).expect("lost batch, retransmitted twice");
        }
        (ctx.now() - sent, ch.stats.retries)
    });
    assert_eq!(execs, 72);
    assert_eq!(retries, 8, "each lost call retransmitted twice");
    assert!(
        repaired < FLOOR,
        "the second loss waited for the floor: {repaired:?}"
    );
}

#[test]
fn a_bimodal_server_teaches_its_slow_mode_once() {
    // An edge cache in miniature: hits answered at once, misses 100 ms
    // later, on one channel, so hits overtake misses all the time. Until
    // a miss has been seen to take that long its calls go out again (on
    // evidence and on the floor); once the slow mode is known, being
    // overtaken by a hit is no reason to resend anything.
    let mut sim = Simulation::new(NetworkConfig::lan(), 61);
    let (server, execs) = spawn_slow_counter(&sim, NodeId(0), PortId(1), |op| {
        (op == "miss").then_some(Duration::from_millis(100))
    });
    let out = Arc::new(Mutex::new((None, 0u64)));
    let o2 = Arc::clone(&out);
    sim.spawn("client", NodeId(1), move |ctx| {
        let cfg = ChannelConfig::with_depth(16).with_policy(RetryPolicy::exponential(FLOOR, 8));
        let mut ch = Channel::new("edge", server, cfg);
        let mut after_first_miss = None;
        let op = |i| if i % 16 == 8 { "miss" } else { "hit" };
        drive(&mut ch, ctx, 800, op, |ch, i, result| {
            result.expect("loss-free call");
            if op(i) == "miss" {
                after_first_miss.get_or_insert(ch.stats.retries);
            }
        });
        *o2.lock().unwrap() = (after_first_miss, ch.stats.retries);
    });
    sim.run();
    let (after_first_miss, retries) = *out.lock().unwrap();
    assert_eq!(execs.load(Ordering::SeqCst), 800);
    let warm_up = after_first_miss.expect("a miss completed");
    assert!(
        warm_up > 0,
        "the first miss never retransmitted: floor above 100 ms?"
    );
    assert!(
        warm_up <= 10,
        "{warm_up} retransmissions of one miss within 100 ms"
    );
    assert_eq!(
        retries, warm_up,
        "a miss retransmitted after the slow mode was known"
    );
}

/// Against a server that never answers `dead` calls, how long until the
/// first of them times out, how many were retransmitted in total, and
/// the error's attempt count.
fn time_to_timeout(attempts: u32, answer_one_first: bool) -> (Duration, u64, u32) {
    let mut sim = Simulation::new(NetworkConfig::lan(), 67);
    // Answers `live` calls, swallows everything else.
    let server = sim.spawn_at("half-dead", NodeId(0), PortId(1), |ctx| {
        let mut srv = rpc::RpcServer::new();
        while let Ok(msg) = ctx.recv() {
            srv.handle_deferred(ctx, &msg, |_, req| {
                (req.op == "live").then_some(Ok(Value::Null))
            });
        }
    });
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("half-dead", server, windowed(attempts));
        if answer_one_first {
            // A round-trip sample, so that evidence can count at all.
            let h = ch.begin_call(ctx, "live", Value::Null);
            ch.wait(ctx, h).expect("live call");
        }
        let sent = ctx.now();
        let dead = [(); 4].map(|()| ch.begin_call(ctx, "dead", Value::Null));
        ch.flush(ctx);
        if answer_one_first {
            // Sent later, answered: the dead batch is overtaken.
            let h = ch.begin_call(ctx, "live", Value::Null);
            ch.wait(ctx, h).expect("live call");
        }
        let err = ch.wait(ctx, dead[0]).expect_err("nobody answers");
        let RpcError::Timeout { attempts } = err else {
            panic!("expected a timeout, got {err}");
        };
        *o2.lock().unwrap() = Some((ctx.now() - sent, ch.stats.retries, attempts));
    });
    sim.run();
    let t = out.lock().unwrap().take().expect("client finished");
    t
}

#[test]
fn the_policy_alone_decides_when_to_give_up() {
    // Silence: the policy's timers at 10, 30, 70, ... ms after the send,
    // the last one giving up — to the nanosecond what it was before the
    // channel looked for evidence.
    for (attempts, expect_ms) in [(4, 150), (8, 2550)] {
        let (took, retries, reported) = time_to_timeout(attempts, false);
        assert_eq!(
            took,
            Duration::from_millis(expect_ms),
            "{attempts} attempts"
        );
        assert_eq!(retries, 4 * u64::from(attempts - 1));
        assert_eq!(reported, attempts);
        // Overtaken: more transmissions, on the path's clock — and the
        // same instant of giving up, because those consume no attempt.
        let (took, retries, reported) = time_to_timeout(attempts, true);
        assert_eq!(
            took,
            Duration::from_millis(expect_ms),
            "{attempts} attempts, overtaken"
        );
        assert!(
            retries > 4 * u64::from(attempts - 1),
            "evidence changed nothing: {retries} retransmissions"
        );
        assert_eq!(reported, attempts);
    }
}

/// A lossy pipelined run. Returns every byte
/// an observer can see: summary counters, the causal trace as JSONL and
/// the report JSON.
fn lossy_run(seed: u64) -> (String, String, String) {
    let net = NetworkConfig::lan()
        .with_jitter(0.05)
        .with_loss(0.02)
        .with_duplicate(0.005);
    let mut sim = Simulation::new(net, seed);
    sim.enable_trace(1 << 18);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    let retries = Arc::new(AtomicU64::new(0));
    for c in 0..3u32 {
        let retries = Arc::clone(&retries);
        sim.spawn(format!("client-{c}"), NodeId(1 + c), move |ctx| {
            let mut ch = Channel::new("counter", server, windowed(8));
            drive(
                &mut ch,
                ctx,
                600,
                |_| "inc",
                |_, _, result| {
                    result.expect("2% loss, eight attempts");
                },
            );
            retries.fetch_add(ch.stats.retries, Ordering::SeqCst);
        });
    }
    let report = sim.run();
    let summary = format!(
        "end={} sent={} delivered={} dropped={} events={} inversions={} execs={} retries={}",
        report.end_time.as_nanos(),
        report.metrics.msgs_sent,
        report.metrics.msgs_delivered,
        report.metrics.msgs_dropped,
        report.metrics.events_dispatched,
        report.metrics.sched_time_inversions,
        execs.load(Ordering::SeqCst),
        retries.load(Ordering::SeqCst),
    );
    (
        summary,
        obs::to_jsonl(&sim.causal_trace()),
        sim.obs_report().to_json(),
    )
}

#[test]
fn a_lossy_pipelined_run_is_a_function_of_its_seed() {
    let base = lossy_run(71);
    assert!(base.0.contains("inversions=0 execs=1800"), "{}", base.0);
    assert!(
        !base.0.ends_with("retries=0"),
        "nothing was lost: {}",
        base.0
    );
    assert!(
        lossy_run(71) == base,
        "diverged between two runs of one seed: {}",
        base.0
    );
}

#[test]
fn a_retransmitted_batch_is_answered_from_the_reply_cache_in_one_datagram() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 73);
    let (server, execs) = spawn_counter(&sim, NodeId(0), PortId(1));
    sim.spawn("client", NodeId(1), move |ctx| {
        let items = (1..=4u64)
            .map(|call_id| {
                let req = rpc::Request {
                    call_id,
                    reply_to: ctx.endpoint(),
                    object: String::new(),
                    op: "inc".to_owned(),
                    args: Value::Null,
                    span: 0,
                };
                rpc::Packet::Request(req, 1)
            })
            .collect();
        let datagram = rpc::Batch { items }.to_bytes();
        let mut answers = Vec::new();
        for _ in 0..2 {
            ctx.send(server, datagram.clone());
            let reply = ctx.recv().expect("running");
            let Ok(rpc::Packet::Batch(batch)) = rpc::Packet::from_frame(&reply.payload) else {
                panic!("expected one reply batch");
            };
            answers.push(batch.to_bytes());
            // Nothing else is on its way: one datagram answered them all.
            let deadline = ctx.now() + Duration::from_millis(5);
            let late = ctx.block_on(|cx| cx.recv_deadline(deadline));
            assert!(late.expect("running").is_none());
        }
        assert_eq!(
            answers[0], answers[1],
            "the second answer is not the recorded one"
        );
    });
    let report = sim.run();
    assert_eq!(
        execs.load(Ordering::SeqCst),
        4,
        "a retransmitted id ran again"
    );
    assert_eq!(report.metrics.msgs_sent, 4);
}

/// A lossy, duplicating, batched run with tracing `traced` or not.
/// Returns every reply in settle order, the channel's counters, the run
/// summary and the report JSON.
fn served_run(traced: bool) -> (String, String, String, String) {
    let net = NetworkConfig::lan()
        .with_jitter(0.05)
        .with_loss(0.1)
        .with_duplicate(0.1);
    let mut sim = Simulation::new(net, 23);
    if traced {
        sim.enable_trace(1 << 16);
    }
    let (server, _) = spawn_counter(&sim, NodeId(0), PortId(1));
    let out = Arc::new(Mutex::new((String::new(), String::new())));
    let o2 = Arc::clone(&out);
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut ch = Channel::new("counter", server, windowed(10));
        let mut replies = String::new();
        drive(
            &mut ch,
            ctx,
            200,
            |_| "inc",
            |_, i, result| replies.push_str(&format!("{i}: {result:?}\n")),
        );
        *o2.lock().unwrap() = (replies, format!("{:?}", ch.stats));
    });
    let report = sim.run();
    let (replies, stats) = std::mem::take(&mut *out.lock().unwrap());
    (
        replies,
        stats,
        format!("{report:?}"),
        sim.obs_report().to_json(),
    )
}

/// Tracing records; it never steers. The same seed gives the same
/// replies and counters whether or not the timeline is kept.
#[test]
fn tracing_changes_no_reply_and_no_counter() {
    let plain = served_run(false);
    let traced = served_run(true);
    assert!(plain.1.contains("retries: "), "{}", plain.1);
    assert!(
        !plain.1.contains("retries: 0,"),
        "nothing was lost: {}",
        plain.1
    );
    assert_eq!(plain, traced);
}
