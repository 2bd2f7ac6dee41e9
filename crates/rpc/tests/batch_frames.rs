//! The frames a batching [`Channel`] builds, and what a lone datagram
//! carries.
//!
//! A staged call is written straight into the frame of each batch that
//! carries it. It gets a frame of its own only when a datagram carries it
//! alone, and every later lone retransmission sends those bytes again.
//! The first test counts the frames built (one `rpc;encode` profiler
//! scope per frame) on a loss-free run; the second records every request
//! datagram a server receives under loss and duplication and holds each
//! lone one to the call's own encoding.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use rpc::{Channel, ChannelConfig, Packet, Request, RetryPolicy, RpcServer};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// Frames built so far in the whole simulation: `rpc;encode` wraps every
/// frame `rpc` builds, one scope each.
fn frames_built(obs: &obs::MetricsRegistry) -> u64 {
    let prof = obs.profile_report().expect("profiler is on");
    prof.frames.get("rpc;encode").map_or(0, |f| f.calls)
}

#[test]
fn a_batched_call_is_encoded_only_into_its_batch() {
    // Depth 16, four calls per datagram, a loss-free link: sixteen calls
    // travel as four batches, and those four frames are all the client
    // builds. Nothing else runs while the client stages and flushes, so
    // the counts taken around those steps are the client's alone.
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    sim.obs().enable_profile(64);
    let server = sim.spawn_at("echo", NodeId(0), PortId(1), |ctx| {
        RpcServer::new().serve(ctx, |_, req| Ok(req.args.clone()), |_, _| {});
    });
    let client = Arc::new(Mutex::new(None));
    let c2 = Arc::clone(&client);
    sim.spawn("client", NodeId(1), move |ctx| {
        let cfg = ChannelConfig::with_depth(16).batched(4);
        let mut ch = Channel::new("echo", server, cfg);
        let at_start = frames_built(ctx.obs());
        let handles: Vec<_> = (0..16u64)
            .map(|i| ch.begin_call(ctx, "echo", Value::U64(i)))
            .collect();
        let staged = frames_built(ctx.obs()) - at_start;
        ch.flush(ctx);
        let flushed = frames_built(ctx.obs()) - at_start - staged;
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(ch.wait(ctx, h).unwrap(), Value::U64(i as u64));
        }
        *c2.lock().unwrap() = Some((staged, flushed, ch.stats));
    });
    sim.run();
    let (staged, flushed, stats) = client.lock().unwrap().take().expect("client finished");
    assert_eq!(staged, 0, "staging a call encodes nothing");
    assert_eq!(flushed, 4, "one frame per batch datagram");
    assert_eq!((stats.batches_sent, stats.batched_calls), (4, 16));
    assert_eq!(stats.retries, 0, "a loss-free link sends nothing twice");
    // The server frames each reply once, for its duplicate-suppression
    // cache, and then each batch of four replies: 16 + 4.
    assert_eq!(
        frames_built(sim.obs()),
        4 + 16 + 4,
        "frames in the whole run"
    );
}

#[test]
fn a_lone_datagram_is_the_calls_own_frame() {
    let net = NetworkConfig::lan().with_loss(0.2).with_duplicate(0.2);
    let mut sim = Simulation::new(net, 7);
    let log: Arc<Mutex<Vec<Bytes>>> = Arc::default();
    let l2 = Arc::clone(&log);
    let server = sim.spawn_at("recorder", NodeId(0), PortId(1), move |ctx| {
        let mut srv = RpcServer::new();
        let mut started = Vec::new();
        while let Ok(msg) = ctx.recv() {
            l2.lock().unwrap().push(msg.payload.clone());
            // Every call is answered in a datagram of its own, so replies
            // are lost one by one and batch-mates fall out of step: a call
            // first sent in a batch is later retransmitted alone.
            srv.handle_deferred(ctx, &msg, |_, req| {
                started.push((req.reply_to, req.call_id, req.args.clone()));
                None
            });
            for (reply_to, call_id, args) in started.drain(..) {
                assert!(srv.complete(ctx, reply_to, call_id, Ok(args)));
            }
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        let policy = RetryPolicy::exponential(Duration::from_millis(4), 10);
        let cfg = ChannelConfig::with_depth(16).batched(4).with_policy(policy);
        let mut ch = Channel::new("recorder", server, cfg);
        // Rounds of one full window: every call's first datagram is a
        // batch, and no call waits behind more completed calls than the
        // server's reply cache holds.
        for round in 0..25u64 {
            let handles: Vec<_> = (0..16u64)
                .map(|k| ch.begin_call(ctx, "echo", Value::U64(round * 16 + k)))
                .collect();
            for (k, h) in (0..16u64).zip(handles) {
                assert_eq!(ch.wait(ctx, h).unwrap(), Value::U64(round * 16 + k));
            }
        }
    });
    sim.run();

    // Per call: the request as it first reached the server, whether a
    // batch carried it there, and the lone datagrams that carried it.
    // Each lone one must be the first arrival's own frame — span and all
    // — which also makes every repeat byte-identical.
    let mut first: BTreeMap<u64, (Request, bool)> = BTreeMap::new();
    let mut lone: BTreeMap<u64, u64> = BTreeMap::new();
    for payload in log.lock().unwrap().iter() {
        match Packet::from_frame(payload).expect("a request datagram decodes") {
            Packet::Request(req) => {
                let id = req.call_id;
                let (call, _) = first.entry(id).or_insert((req, false));
                assert_eq!(
                    *payload,
                    call.to_bytes(),
                    "call {id}: a lone datagram is not the call's own frame"
                );
                *lone.entry(id).or_default() += 1;
            }
            Packet::Batch(batch) => {
                for item in batch.items {
                    let Packet::Request(req) = item else {
                        panic!("a batch item is not a request: {item:?}");
                    };
                    first.entry(req.call_id).or_insert((req, true));
                }
            }
            other => panic!("not a request: {other:?}"),
        }
    }
    assert_eq!(first.len(), 400, "every call reached the server");
    // The case the lazily built frame exists for: batched first, alone
    // later, and alone more than once.
    let batched_then_alone = lone
        .iter()
        .filter(|&(id, &sends)| first[id].1 && sends > 1)
        .count();
    assert!(
        batched_then_alone > 0,
        "no call travelled in a batch and then alone, twice"
    );
}
