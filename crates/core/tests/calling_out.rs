//! The server engine calling out: a request whose handler awaits a call
//! is parked until the call settles, then answered exactly once; what
//! arrives meanwhile waits its turn (under [`Strays::Queue`]), and a
//! retransmission of the parked call is dropped, never re-run, until its
//! reply exists.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{
    serve, Control, InterfaceDesc, Io, OpDesc, ServiceBuilder, ServiceObject, ServiceServer, Strays,
};
use rpc::{ErrorCode, Packet, RemoteError, Request};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, PortId, SimTime, Simulation};
use wire::Value;

/// The backend the relay calls: `work` takes 5 ms and echoes its args.
struct Slow(Arc<AtomicU64>);

impl ServiceObject for Slow {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new("slow", [OpDesc::write_whole("work")])
    }

    fn service_time(&self, _op: &str, _args: &Value) -> Duration {
        Duration::from_millis(5)
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, _op: &str, args: &Value) -> Result<Value, RemoteError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(args.clone())
    }
}

/// `relay` calls the backend's `work` and answers with its reply,
/// counting the handlers that got past the call; `echo` answers on the
/// spot.
#[derive(Debug)]
struct Relay {
    backend: Endpoint,
    resumes: Arc<AtomicU64>,
}

impl Control for Relay {
    fn name(&self) -> &str {
        "relay"
    }

    async fn execute(&mut self, io: &Io, req: &Request) -> Result<Value, RemoteError> {
        if req.op != "relay" {
            return Ok(req.args.clone());
        }
        let args = req.args.clone();
        let (result, _) = io.call(self.backend, "work", args, Strays::Queue).await;
        self.resumes.fetch_add(1, Ordering::SeqCst);
        result.map_err(|e| RemoteError::new(ErrorCode::Unavailable, e.to_string()))
    }
}

struct Rig {
    sim: Simulation,
    relay: Endpoint,
    executions: Arc<AtomicU64>,
    resumes: Arc<AtomicU64>,
}

/// A relay on node 1 in front of `backend` (`None`: a live one on
/// node 2; `Some(ep)`: that endpoint, which nobody serves).
fn rig(backend: Option<Endpoint>) -> Rig {
    let sim = Simulation::new(NetworkConfig::lan(), 9);
    let executions = Arc::new(AtomicU64::new(0));
    let backend = backend.unwrap_or_else(|| {
        let ns = spawn_name_server(&sim, NodeId(0));
        let count = Arc::clone(&executions);
        ServiceBuilder::new("slow")
            .object(move || Box::new(Slow(count)))
            .spawn(&sim, NodeId(2), ns)
    });
    let resumes = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&resumes);
    let relay = sim.spawn_async("relay", NodeId(1), move |cx| {
        serve(cx, move |_| {
            ServiceServer::new(Relay {
                backend,
                resumes: counter,
            })
        })
    });
    Rig {
        sim,
        relay,
        executions,
        resumes,
    }
}

fn request(ctx: &Ctx, call_id: u64, op: &str, args: Value) -> bytes::Bytes {
    Request {
        call_id,
        reply_to: ctx.endpoint(),
        object: String::new(),
        op: op.to_owned(),
        args,
        span: 0,
    }
    .to_bytes()
}

/// Receives replies until `until`: `(call id, result)` in arrival order.
type Replies = Vec<(u64, Result<Value, RemoteError>)>;

fn replies_until(ctx: &mut Ctx, until: SimTime) -> Replies {
    let mut out = Vec::new();
    while let Ok(Some(msg)) = ctx.block_on(|cx| cx.recv_deadline(until)) {
        if let Ok(Packet::Reply(rep)) = Packet::from_frame(&msg.payload) {
            out.push((rep.call_id, rep.result));
        }
    }
    out
}

#[test]
fn requests_arriving_while_calling_out_are_answered_after_it_in_order() {
    let Rig {
        mut sim,
        relay,
        executions,
        resumes,
    } = rig(None);
    let got = Arc::new(Mutex::new(Replies::new()));
    let out = Arc::clone(&got);
    sim.spawn("client", NodeId(3), move |ctx| {
        // Let the backend register first.
        ctx.sleep(Duration::from_millis(5)).unwrap();
        ctx.send(relay, request(ctx, 1, "relay", Value::U64(7)));
        ctx.sleep(Duration::from_millis(1)).unwrap();
        ctx.send(relay, request(ctx, 2, "echo", Value::U64(8)));
        ctx.send(relay, request(ctx, 3, "echo", Value::U64(9)));
        let until = ctx.now() + Duration::from_millis(50);
        *out.lock().unwrap() = replies_until(ctx, until);
    });
    sim.run();
    assert_eq!(
        *got.lock().unwrap(),
        vec![
            (1, Ok(Value::U64(7))),
            (2, Ok(Value::U64(8))),
            (3, Ok(Value::U64(9))),
        ]
    );
    assert_eq!(executions.load(Ordering::SeqCst), 1);
    assert_eq!(resumes.load(Ordering::SeqCst), 1);
}

#[test]
fn a_retransmission_of_the_parked_call_is_dropped_then_answered_from_the_cache() {
    let Rig {
        mut sim,
        relay,
        executions,
        resumes,
    } = rig(None);
    let got = Arc::new(Mutex::new((Replies::new(), Replies::new())));
    let out = Arc::clone(&got);
    sim.spawn("client", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(5)).unwrap();
        let call = request(ctx, 1, "relay", Value::U64(7));
        ctx.send(relay, call.clone());
        // Two retransmissions while the relay waits for the backend.
        for _ in 0..2 {
            ctx.sleep(Duration::from_millis(2)).unwrap();
            ctx.send(relay, call.clone());
        }
        let until = ctx.now() + Duration::from_millis(20);
        let first = replies_until(ctx, until);
        // One more once the call has completed.
        ctx.send(relay, call);
        let until = ctx.now() + Duration::from_millis(20);
        *out.lock().unwrap() = (first, replies_until(ctx, until));
    });
    sim.run();
    let (first, later) = got.lock().unwrap().clone();
    assert_eq!(first, vec![(1, Ok(Value::U64(7)))], "answered once");
    assert_eq!(later, vec![(1, Ok(Value::U64(7)))], "from the reply cache");
    assert_eq!(executions.load(Ordering::SeqCst), 1, "never re-run");
    assert_eq!(resumes.load(Ordering::SeqCst), 1);
    let server = sim.obs_report().rpc.server;
    assert_eq!(server.duplicates_dropped, 2);
    assert_eq!(server.duplicates_suppressed, 1);
}

#[test]
fn a_call_that_times_out_answers_the_parked_request_exactly_once() {
    let nobody = Endpoint::new(NodeId(2), PortId(77));
    let Rig {
        mut sim,
        relay,
        resumes,
        ..
    } = rig(Some(nobody));
    let got = Arc::new(Mutex::new(Replies::new()));
    let out = Arc::clone(&got);
    sim.spawn("client", NodeId(3), move |ctx| {
        ctx.send(relay, request(ctx, 1, "relay", Value::U64(7)));
        let until = ctx.now() + Duration::from_secs(1);
        *out.lock().unwrap() = replies_until(ctx, until);
    });
    sim.run();
    let got = got.lock().unwrap().clone();
    assert_eq!(got.len(), 1, "{got:?}");
    let (id, result) = &got[0];
    assert_eq!(*id, 1);
    assert_eq!(result.as_ref().unwrap_err().code, ErrorCode::Unavailable);
    assert_eq!(resumes.load(Ordering::SeqCst), 1);
}
