//! The frames a batching [`Channel`] builds, and what a lone datagram
//! carries.
//!
//! A staged call is written straight into the frame of each batch that
//! carries it. It gets a frame of its own only when a datagram carries it
//! alone, and every later lone retransmission sends those bytes again.
//! The first test counts the frames built (one `rpc;encode` profiler
//! scope per frame) on a loss-free run; the second records every request
//! datagram a server receives under loss and duplication and holds each
//! lone one to the call's own encoding, with the `lo` of its first send.
//! The third holds a server's reply batch, spliced from the replies it
//! recorded, to the bytes the same batch encoded from its decoded
//! replies has, whether the server answered the calls on the spot or
//! deferred them and completed them together.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use rpc::{
    Batch, Channel, ChannelConfig, ErrorCode, Packet, RemoteError, Reply, Request, RetryPolicy,
    RpcServer,
};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, PortId, Simulation};
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
                assert_eq!(srv.complete(ctx, [(reply_to, call_id, Ok(args))]), 1);
            }
        }
    });
    sim.spawn("client", NodeId(1), move |ctx| {
        let policy = RetryPolicy::exponential(Duration::from_millis(4), 10);
        let cfg = ChannelConfig::with_depth(16).batched(4).with_policy(policy);
        let mut ch = Channel::new("recorder", server, cfg);
        // Rounds of one full window, so every call's first datagram is a
        // batch. (How many completed calls one waits behind does not
        // matter: the server keeps every reply the client still awaits.)
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
    // Each lone one must carry the first arrival's request — span and
    // all — in the call's own encoding, and be byte for byte the first
    // lone one: the frame is built once, with the `lo` of its first
    // send. Every request states a `lo` no higher than its own id.
    let mut first: BTreeMap<u64, (Request, bool)> = BTreeMap::new();
    let mut lone: BTreeMap<u64, (Bytes, u64)> = BTreeMap::new();
    for payload in log.lock().unwrap().iter() {
        match Packet::from_frame(payload).expect("a request datagram decodes") {
            Packet::Request(req, lo) => {
                let id = req.call_id;
                assert!((1..=id).contains(&lo), "call {id} states lo {lo}");
                assert_eq!(
                    *payload,
                    req.to_bytes_with_lo(lo),
                    "call {id}: not its own encoding"
                );
                let (call, _) = first.entry(id).or_insert((req.clone(), false));
                assert_eq!(
                    req, *call,
                    "call {id}: a lone datagram carries another request"
                );
                let (frame, sends) = lone.entry(id).or_insert((payload.clone(), 0));
                assert_eq!(
                    payload, frame,
                    "call {id}: a lone datagram is not the call's own frame"
                );
                *sends += 1;
            }
            Packet::Batch(batch) => {
                for item in batch.items {
                    let Packet::Request(req, lo) = item else {
                        panic!("a batch item is not a request: {item:?}");
                    };
                    assert!((1..=req.call_id).contains(&lo), "lo {lo} in {req:?}");
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
        .filter(|&(id, &(_, sends))| first[id].1 && sends > 1)
        .count();
    assert!(
        batched_then_alone > 0,
        "no call travelled in a batch and then alone, twice"
    );
}

/// What one request asks the splice test's server to answer: a blob of
/// `len` bytes, as the result or as an error's data, under `span`.
#[derive(Debug, Clone)]
struct Ask {
    ok: bool,
    len: usize,
    span: u64,
}

impl Ask {
    fn args(&self) -> Value {
        Value::record([
            ("ok", Value::Bool(self.ok)),
            ("len", Value::U64(self.len as u64)),
        ])
    }
}

fn arb_ask() -> impl Strategy<Value = Ask> {
    let len = prop_oneof![0usize..64, 0usize..=64 * 1024];
    let span = prop_oneof![Just(0u64), 1u64..u64::MAX];
    (any::<bool>(), len, span).prop_map(|(ok, len, span)| Ask { ok, len, span })
}

/// The reply the splice test's server gives to `args`.
fn answer(args: &Value) -> Result<Value, RemoteError> {
    let len = args.get_u64("len").expect("a length") as usize;
    let blob = Value::blob(vec![len as u8; len]);
    if args.get("ok") == Some(&Value::Bool(true)) {
        Ok(blob)
    } else {
        Err(RemoteError::with_data(ErrorCode::App, "refused", blob))
    }
}

/// Sends `calls` to `server` as one raw batch datagram and returns every
/// datagram that comes back before the link falls quiet.
fn exchange(ctx: &mut Ctx, server: Endpoint, calls: &[(u64, Ask)]) -> Vec<Bytes> {
    let items = calls
        .iter()
        .map(|(call_id, ask)| {
            let req = Request {
                call_id: *call_id,
                reply_to: ctx.endpoint(),
                object: String::new(),
                op: "answer".into(),
                args: ask.args(),
                span: ask.span,
            };
            Packet::Request(req, 0)
        })
        .collect();
    ctx.send(server, Batch { items }.to_bytes());
    let mut got = Vec::new();
    loop {
        let deadline = ctx.now() + Duration::from_millis(20);
        let Some(msg) = ctx.block_on(|cx| cx.recv_deadline(deadline)).unwrap() else {
            break;
        };
        got.push(msg.payload);
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A batch of fresh calls, then one of repeats the server answers
    /// from its reply cache (some twice in the same batch) mixed with
    /// fresh calls: every reply batch is byte for byte the batch its
    /// decoded replies encode to, and carries the replies asked for. A
    /// server that defers every call and completes what one datagram
    /// started together sends the fresh calls' replies in one datagram
    /// of their own, after the cached ones.
    #[test]
    fn a_spliced_reply_batch_is_the_batch_of_its_decoded_replies(
        first in proptest::collection::vec(arb_ask(), 2..6),
        repeats in proptest::collection::vec(any::<usize>(), 1..4),
        fresh in proptest::collection::vec(arb_ask(), 0..3),
        deferred in any::<bool>(),
    ) {
        let mut sim = Simulation::new(NetworkConfig::lan(), 3);
        let server = sim.spawn_at("answers", NodeId(0), PortId(1), move |ctx| {
            let mut srv = RpcServer::new();
            let mut started = Vec::new();
            while let Ok(msg) = ctx.recv() {
                srv.handle_deferred(ctx, &msg, |_, req| {
                    if !deferred {
                        return Some(answer(&req.args));
                    }
                    started.push((req.reply_to, req.call_id, answer(&req.args)));
                    None
                });
                let n = started.len();
                assert_eq!(srv.complete(ctx, started.drain(..)), n);
            }
        });
        let second_datagrams = 1 + usize::from(deferred && !fresh.is_empty());
        let first_calls: Vec<(u64, Ask)> = (1..).zip(first).collect();
        let mut second_calls: Vec<(u64, Ask)> = repeats
            .iter()
            .map(|i| first_calls[i % first_calls.len()].clone())
            .collect();
        second_calls.extend((100..).zip(fresh));
        let datagrams = Arc::new(Mutex::new(Vec::new()));
        let out = Arc::clone(&datagrams);
        let asked = [first_calls.clone(), second_calls.clone()];
        sim.spawn("client", NodeId(1), move |ctx| {
            for calls in &asked {
                let got = exchange(ctx, server, calls);
                out.lock().unwrap().push(got);
            }
        });
        sim.run();
        let datagrams = datagrams.lock().unwrap();
        let cases = [(&first_calls, 1), (&second_calls, second_datagrams)];
        for ((calls, sent), got) in cases.into_iter().zip(datagrams.iter()) {
            prop_assert_eq!(got.len(), sent, "reply datagrams per request batch");
            let mut per_datagram = Vec::new();
            for datagram in got {
                match Packet::from_frame(datagram).expect("a reply datagram decodes") {
                    Packet::Batch(batch) => {
                        prop_assert_eq!(&batch.to_bytes(), datagram, "spliced batch differs");
                        per_datagram.push(batch.items);
                    }
                    lone => per_datagram.push(vec![lone]),
                }
            }
            // Two datagrams may land in either order; the request asks
            // for the repeats (ids below 100) first. Only the datagrams
            // are ordered: the replies within each are compared as sent.
            per_datagram.sort_by_key(|d| matches!(d.first(), Some(Packet::Reply(r)) if r.call_id >= 100));
            let replies: Vec<Packet> = per_datagram.into_iter().flatten().collect();
            let expected: Vec<Packet> = calls
                .iter()
                .map(|(call_id, ask)| {
                    Packet::Reply(Reply { call_id: *call_id, result: answer(&ask.args()), span: ask.span })
                })
                .collect();
            prop_assert_eq!(replies, expected);
        }
    }
}
