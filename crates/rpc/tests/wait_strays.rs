//! Every wait hands what is not its reply to its caller: a wait given an
//! [`OnStray`](rpc::OnStray) rule hands it each datagram that is not the
//! channel's as it arrives, and one given none drops and counts each as it
//! arrives. Nothing is kept for a later call.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rpc::{Channel, ChannelConfig, ChannelStats, Oneway, Request, RpcServer};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

const SERVER: NodeId = NodeId(0);
const CLIENT: NodeId = NodeId(1);
const CLIENT_PORT: PortId = PortId(5);

/// An echo server 10 ms from the client (each way), so a call waits
/// 20 ms, and an intruder that sends the client, from 2 ms in and 1 ms
/// apart, the one-ways `ops` and then a request nobody asked it to serve.
fn setup(seed: u64, ops: &'static [&'static str]) -> (Simulation, Endpoint) {
    let sim = Simulation::new(NetworkConfig::lan(), seed);
    sim.net()
        .set_link_latency(SERVER, CLIENT, Duration::from_millis(10));
    let server = sim.spawn_at("echo", SERVER, PortId(1), |ctx| {
        RpcServer::new().serve(ctx, |_, req| Ok(req.args.clone()), |_, _| {});
    });
    let client = Endpoint::new(CLIENT, CLIENT_PORT);
    sim.spawn("intruder", NodeId(2), move |ctx| {
        ctx.sleep(Duration::from_millis(2)).unwrap();
        for op in ops {
            rpc::send_oneway(ctx, client, ctx.name(), op, &Value::Null);
            ctx.sleep(Duration::from_millis(1)).unwrap();
        }
        let request = Request {
            call_id: 1,
            reply_to: ctx.endpoint(),
            object: String::new(),
            op: "echo".to_owned(),
            args: Value::Null,
            span: 0,
        };
        ctx.send(client, request.to_bytes());
    });
    (sim, server)
}

fn channel(server: Endpoint) -> Channel {
    Channel::new("echo", server, ChannelConfig::with_depth(1))
}

#[test]
fn a_wait_given_no_rule_drops_and_counts_what_is_not_its_reply() {
    let (mut sim, server) = setup(1, &["poke"]);
    let seen = Arc::new(Mutex::new(None));
    let out = Arc::clone(&seen);
    sim.spawn_at("client", CLIENT, CLIENT_PORT, move |ctx| {
        let mut ch = channel(server);
        let h = ch.begin_call(ctx, "echo", Value::U64(7));
        assert_eq!(ch.wait(ctx, h), Ok(Value::U64(7)));
        *out.lock().unwrap() = Some(ch.stats);
    });
    sim.run();
    let stats: ChannelStats = seen.lock().unwrap().expect("the client finished");
    assert_eq!(stats.discarded, 2, "the one-way and the request");
    assert_eq!(sim.obs_report().rpc.client.strays_dropped, 2);
}

#[test]
fn a_call_hands_its_rule_every_one_way_in_arrival_order() {
    let (mut sim, server) = setup(3, &["first", "second", "third"]);
    let seen = Arc::new(Mutex::new(None));
    let out = Arc::clone(&seen);
    sim.spawn_at("client", CLIENT, CLIENT_PORT, move |ctx: &mut Ctx| {
        let mut ch = channel(server);
        let mut sink: Vec<Oneway> = Vec::new();
        let reply = {
            let mut rule = rpc::oneways_into(&mut sink);
            ctx.block_on(|cx| ch.call(cx, "", "echo", Value::U64(7), Some(&mut rule)))
        };
        assert_eq!(reply, Ok(Value::U64(7)));
        let ops: Vec<String> = sink.into_iter().map(|o| o.op).collect();
        *out.lock().unwrap() = Some((ops, ch.stats));
    });
    sim.run();
    let (ops, stats) = seen.lock().unwrap().take().expect("the client finished");
    assert_eq!(ops, ["first", "second", "third"]);
    assert_eq!(stats.discarded, 1, "the request the rule declined");
    assert_eq!(sim.obs_report().rpc.client.strays_dropped, 1);
}
