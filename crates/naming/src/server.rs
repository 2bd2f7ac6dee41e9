//! The name server process.
//!
//! Its reads, `lookup` and `list`, are answered unrecorded
//! ([`rpc::Pass::settle_unrecorded`]): running one twice is harmless, so
//! a client that only binds leaves nothing behind, and a retransmitted
//! lookup is run again and gets the binding as it stands then. Its
//! writes, `register`, `update` and `unregister`, keep at-most-once: a
//! retransmission is answered from the recorded reply. So what the
//! server keeps grows with the names and the clients that write, not
//! with every client that ever bound.

use bytes::Bytes;
use rpc::{endpoint_from_value, ErrorCode, RemoteError, Request, RpcServer};
use simnet::{Endpoint, Message, NodeId, PortId, ProcCx, Simulation};
use wire::{Value, WireError};

use crate::directory::Directory;

/// The well-known port the name server listens on.
pub const NAME_SERVER_PORT: PortId = PortId(1);

fn bad_args(e: WireError) -> RemoteError {
    RemoteError::new(ErrorCode::BadArgs, e.to_string())
}

/// What the name server makes of one call.
enum Answer {
    /// A read, answered unrecorded: its value already encoded.
    Read(Result<Bytes, RemoteError>),
    /// A write (or an unknown op), answered with a recorded reply.
    Write(Result<Value, RemoteError>),
}

fn handle(dir: &Directory, req: &Request) -> Answer {
    match req.op.as_str() {
        "lookup" => Answer::Read(lookup(dir, req)),
        "list" => Answer::Read(Ok(wire::encode(&Value::record([(
            "names",
            Value::list(dir.list().iter().map(Value::str)),
        )])))),
        _ => Answer::Write(write(dir, req)),
    }
}

/// A lookup's answer: the bytes the directory encoded at the name's last
/// write, shared.
fn lookup(dir: &Directory, req: &Request) -> Result<Bytes, RemoteError> {
    let name = req.args.get_str("name").map_err(bad_args)?;
    dir.lookup_encoded(name)
        .ok_or_else(|| RemoteError::new(ErrorCode::NoSuchObject, format!("unknown name `{name}`")))
}

fn write(dir: &Directory, req: &Request) -> Result<Value, RemoteError> {
    match req.op.as_str() {
        "register" => {
            let name = req.args.get_str("name").map_err(bad_args)?;
            let ep = endpoint_from_value(
                req.args
                    .get("ep")
                    .ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "missing ep"))?,
            )
            .map_err(bad_args)?;
            let meta = req.args.get("meta").cloned().unwrap_or(Value::Null);
            let gen = dir.register(name, ep, meta);
            Ok(Value::record([("gen", Value::U64(gen))]))
        }
        "update" => {
            let name = req.args.get_str("name").map_err(bad_args)?;
            let ep = endpoint_from_value(
                req.args
                    .get("ep")
                    .ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "missing ep"))?,
            )
            .map_err(bad_args)?;
            let meta = req.args.get("meta").cloned().unwrap_or(Value::Null);
            match dir.update(name, ep, meta) {
                Some(gen) => Ok(Value::record([("gen", Value::U64(gen))])),
                None => Err(RemoteError::new(
                    ErrorCode::NoSuchObject,
                    format!("unknown name `{name}`"),
                )),
            }
        }
        "unregister" => {
            let name = req.args.get_str("name").map_err(bad_args)?;
            if dir.unregister(name) {
                Ok(Value::Null)
            } else {
                Err(RemoteError::new(
                    ErrorCode::NoSuchObject,
                    format!("unknown name `{name}`"),
                ))
            }
        }
        other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
    }
}

/// What the name-server process owns: its table and the server side of
/// its RPC protocol.
#[derive(Debug, Default)]
struct NameServer {
    dir: Directory,
    rpc: RpcServer,
}

impl NameServer {
    /// Answers the requests `msg` carries: reads unrecorded, writes
    /// recorded.
    fn serve(&mut self, cx: &mut ProcCx, msg: &Message) {
        let Ok(mut pass) = self.rpc.pass(cx, msg) else {
            return;
        };
        while let Some(fresh) = pass.next(&mut self.rpc, cx) {
            match handle(&self.dir, &fresh.req) {
                Answer::Read(result) => pass.settle_unrecorded(&mut self.rpc, cx, &fresh, result),
                Answer::Write(result) => pass.settle(&mut self.rpc, cx, &fresh, Some(result)),
            }
        }
        pass.finish(cx);
    }
}

/// Spawns the name server on `node` at [`NAME_SERVER_PORT`], returning
/// its endpoint: an `async` body that answers each datagram as it
/// arrives, until the run ends.
///
/// ```
/// use simnet::{Simulation, NetworkConfig, NodeId};
///
/// let sim = Simulation::new(NetworkConfig::lan(), 0);
/// let ns = naming::spawn_name_server(&sim, NodeId(2));
/// assert_eq!((ns.node, ns.port), (NodeId(2), naming::NAME_SERVER_PORT));
/// ```
///
/// # Panics
///
/// Panics if the port is already bound on that node.
pub fn spawn_name_server(sim: &Simulation, node: NodeId) -> Endpoint {
    let mut server = NameServer::default();
    sim.spawn_async_at(
        "name-server",
        node,
        NAME_SERVER_PORT,
        move |cx| async move {
            while let Ok(msg) = cx.recv().await {
                cx.with(|cx| server.serve(cx, &msg));
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    use rpc::{Packet, Reply};
    use simnet::{Ctx, NetworkConfig};

    use super::*;
    use crate::record::NameRecord;

    fn req(op: &str, args: Value) -> Request {
        Request {
            call_id: 1,
            reply_to: Endpoint::new(NodeId(9), PortId(70000)),
            object: String::new(),
            op: op.into(),
            args,
            span: 0,
        }
    }

    /// Runs `req` as the server does, a read's encoded answer decoded.
    fn call(dir: &Directory, req: &Request) -> Result<Value, RemoteError> {
        match handle(dir, req) {
            Answer::Read(result) => result.map(|b| wire::decode(&b).expect("one encoded value")),
            Answer::Write(result) => result,
        }
    }

    fn ep_value(n: u32, p: u32) -> Value {
        rpc::endpoint_to_value(Endpoint::new(NodeId(n), PortId(p)))
    }

    #[test]
    fn register_then_lookup() {
        let t = Directory::new();
        let r = call(
            &t,
            &req(
                "register",
                Value::record([("name", Value::str("kv")), ("ep", ep_value(1, 2))]),
            ),
        )
        .unwrap();
        assert_eq!(r.get_u64("gen").unwrap(), 1);
        let rec = call(
            &t,
            &req("lookup", Value::record([("name", Value::str("kv"))])),
        )
        .unwrap();
        let rec = NameRecord::from_value(rec).unwrap();
        assert_eq!(rec.endpoint, Endpoint::new(NodeId(1), PortId(2)));
    }

    #[test]
    fn update_bumps_generation_and_moves() {
        let t = Directory::new();
        call(
            &t,
            &req(
                "register",
                Value::record([("name", Value::str("kv")), ("ep", ep_value(1, 2))]),
            ),
        )
        .unwrap();
        let r = call(
            &t,
            &req(
                "update",
                Value::record([("name", Value::str("kv")), ("ep", ep_value(3, 4))]),
            ),
        )
        .unwrap();
        assert_eq!(r.get_u64("gen").unwrap(), 2);
        let rec = NameRecord::from_value(
            call(
                &t,
                &req("lookup", Value::record([("name", Value::str("kv"))])),
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(rec.endpoint, Endpoint::new(NodeId(3), PortId(4)));
        assert_eq!(rec.generation, 2);
    }

    #[test]
    fn unknown_name_is_no_such_object() {
        let t = Directory::new();
        let e = call(
            &t,
            &req("lookup", Value::record([("name", Value::str("x"))])),
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::NoSuchObject);
        let e = call(
            &t,
            &req(
                "update",
                Value::record([("name", Value::str("x")), ("ep", ep_value(0, 0))]),
            ),
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::NoSuchObject);
        let e = call(
            &t,
            &req("unregister", Value::record([("name", Value::str("x"))])),
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::NoSuchObject);
    }

    #[test]
    fn list_is_sorted() {
        let t = Directory::new();
        for n in ["zeta", "alpha", "mid"] {
            call(
                &t,
                &req(
                    "register",
                    Value::record([("name", Value::str(n)), ("ep", ep_value(0, 1))]),
                ),
            )
            .unwrap();
        }
        let r = call(&t, &req("list", Value::Null)).unwrap();
        let names: Vec<&str> = r
            .get_list("names")
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn bad_args_reported() {
        let t = Directory::new();
        let e = call(&t, &req("register", Value::Null)).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadArgs);
    }

    #[test]
    fn reregister_replaces_binding() {
        let t = Directory::new();
        for p in [2u32, 7] {
            call(
                &t,
                &req(
                    "register",
                    Value::record([("name", Value::str("kv")), ("ep", ep_value(1, p))]),
                ),
            )
            .unwrap();
        }
        let rec = NameRecord::from_value(
            call(
                &t,
                &req("lookup", Value::record([("name", Value::str("kv"))])),
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(rec.endpoint, Endpoint::new(NodeId(1), PortId(7)));
        assert_eq!(rec.generation, 2);
    }

    // -- served over the network -------------------------------------------

    /// A name server over `dir` at node 0 that publishes, after each
    /// datagram, how many client windows it keeps.
    fn probed(sim: &Simulation, dir: Directory, windows: Arc<AtomicUsize>) -> Endpoint {
        let mut ns = NameServer {
            dir,
            rpc: RpcServer::new(),
        };
        sim.spawn_async_at(
            "name-server",
            NodeId(0),
            NAME_SERVER_PORT,
            move |cx| async move {
                while let Ok(msg) = cx.recv().await {
                    cx.with(|cx| ns.serve(cx, &msg));
                    windows.store(ns.rpc.windows_len(), Ordering::SeqCst);
                }
            },
        )
    }

    fn ep(n: u32, p: u32) -> Endpoint {
        Endpoint::new(NodeId(n), PortId(p))
    }

    /// Metadata shaped like a service's: nested records and a list.
    fn meta() -> Value {
        Value::record([
            ("spec", Value::record([("kind", Value::str("stub"))])),
            (
                "iface",
                Value::record([
                    ("type", Value::str("kv")),
                    ("ops", Value::list([Value::str("get"), Value::str("put")])),
                ]),
            ),
        ])
    }

    /// Sends one raw request (stating `lo` 1: the client still awaits
    /// its first call) and returns the reply frame.
    fn exchange(ctx: &mut Ctx, ns: Endpoint, call_id: u64, op: &str, args: Value) -> Bytes {
        let req = Request {
            call_id,
            reply_to: ctx.endpoint(),
            object: String::new(),
            op: op.into(),
            args,
            span: 40 + call_id,
        };
        ctx.send(ns, req.to_bytes_with_lo(1));
        ctx.recv().expect("a reply").payload
    }

    /// The reply frame the server sent before lookups were encoded once:
    /// `Reply { ok: rec.to_value() }`, encoded whole.
    fn recorded_form(call_id: u64, rec: &NameRecord) -> Bytes {
        Reply {
            call_id,
            result: Ok(rec.to_value()),
            span: 40 + call_id,
        }
        .to_bytes()
    }

    fn ok_of(frame: &Bytes) -> Value {
        match Packet::from_frame(frame).unwrap() {
            Packet::Reply(r) => r.result.unwrap(),
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    /// The generation a register or update answered with.
    fn gen_of(frame: &Bytes) -> u64 {
        ok_of(frame).get_u64("gen").unwrap()
    }

    fn name(n: &str) -> Value {
        Value::record([("name", Value::str(n))])
    }

    #[test]
    fn clients_that_only_look_up_leave_no_window() {
        let dir = Directory::new();
        dir.register("svc", ep(1, 5), meta());
        let windows = Arc::new(AtomicUsize::new(usize::MAX));
        let found = Arc::new(AtomicU64::new(0));
        let mut sim = Simulation::new(NetworkConfig::lan(), 1);
        let ns = probed(&sim, dir, Arc::clone(&windows));
        for i in 0..64 {
            let f = Arc::clone(&found);
            sim.spawn_async("client", NodeId(2 + i % 8), move |cx| async move {
                let mut nc = crate::NameClient::new(ns);
                let rec = nc.lookup(cx, "svc", None).await.unwrap();
                assert_eq!((rec.endpoint, rec.generation), (ep(1, 5), 1));
                f.fetch_add(1, Ordering::SeqCst);
            });
        }
        sim.run();
        assert_eq!(found.load(Ordering::SeqCst), 64);
        assert_eq!(windows.load(Ordering::SeqCst), 0, "a lookup left a window");
    }

    #[test]
    fn a_retransmitted_register_is_answered_from_its_record() {
        let windows = Arc::new(AtomicUsize::new(0));
        let mut sim = Simulation::new(NetworkConfig::lan(), 2);
        let ns = probed(&sim, Directory::new(), Arc::clone(&windows));
        sim.spawn("registrar", NodeId(1), move |ctx| {
            let args = crate::binding_args("svc", ep(1, 5), meta());
            let first = exchange(ctx, ns, 1, "register", args.clone());
            let again = exchange(ctx, ns, 1, "register", args);
            assert_eq!(again, first, "not answered from the record");
            assert_eq!(gen_of(&again), 1, "the register ran again");
            let looked_up = exchange(ctx, ns, 2, "lookup", name("svc"));
            let record = NameRecord::from_value(ok_of(&looked_up)).unwrap();
            assert_eq!(record.generation, 1);
        });
        sim.run();
        assert_eq!(
            windows.load(Ordering::SeqCst),
            1,
            "the register left no record"
        );
    }

    #[test]
    fn a_lookup_retransmitted_across_an_update_gets_the_new_record() {
        let dir = Directory::new();
        dir.register("svc", ep(1, 5), meta());
        let mut sim = Simulation::new(NetworkConfig::lan(), 3);
        let ns = probed(&sim, dir, Arc::default());
        sim.spawn("client", NodeId(2), move |ctx| {
            let before = exchange(ctx, ns, 1, "lookup", name("svc"));
            let moved = crate::binding_args("svc", ep(3, 6), Value::Null);
            assert_eq!(gen_of(&exchange(ctx, ns, 2, "update", moved)), 2);
            let after = exchange(ctx, ns, 1, "lookup", name("svc"));
            let rec = |endpoint, generation| NameRecord {
                endpoint,
                meta: meta(),
                generation,
            };
            assert_eq!(before, recorded_form(1, &rec(ep(1, 5), 1)));
            assert_eq!(after, recorded_form(1, &rec(ep(3, 6), 2)));
        });
        sim.run();
    }

    #[test]
    fn lookup_replies_are_the_frames_a_recorded_reply_would_be() {
        let dir = Directory::new();
        dir.register("svc", ep(1, 5), meta());
        dir.register("bare", ep(2, 9), Value::Null);
        let mut sim = Simulation::new(NetworkConfig::lan(), 4);
        let ns = probed(&sim, dir, Arc::default());
        sim.spawn("client", NodeId(2), move |ctx| {
            for (id, n, endpoint, meta, generation) in [
                (1, "svc", ep(1, 5), meta(), 1),
                (2, "bare", ep(2, 9), Value::Null, 2),
            ] {
                let rec = NameRecord {
                    endpoint,
                    meta,
                    generation,
                };
                let frame = exchange(ctx, ns, id, "lookup", name(n));
                assert_eq!(frame, recorded_form(id, &rec), "lookup of `{n}`");
            }
            let missing = Reply {
                call_id: 3,
                result: Err(RemoteError::new(
                    ErrorCode::NoSuchObject,
                    "unknown name `nope`",
                )),
                span: 43,
            };
            let frame = exchange(ctx, ns, 3, "lookup", name("nope"));
            assert_eq!(frame, missing.to_bytes());
        });
        sim.run();
    }
}
