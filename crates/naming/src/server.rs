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
//!
//! Every request is decoded strictly (see the crate doc for the
//! shapes): a wrong kind, a wrong arity or a missing `meta` is answered
//! `BadArgs` and changes no binding.

use bytes::Bytes;
use rpc::{endpoint_from_value, ErrorCode, RemoteError, Request, RpcServer};
use simnet::{Endpoint, Message, NodeId, PortId, ProcCx, Simulation};
use wire::Value;

use crate::directory::Directory;

/// The well-known port the name server listens on.
pub const NAME_SERVER_PORT: PortId = PortId(1);

fn bad_args(msg: impl Into<String>) -> RemoteError {
    RemoteError::new(ErrorCode::BadArgs, msg)
}

/// The argument of `lookup` and `unregister`: the name itself.
fn read_name(args: &Value) -> Result<&str, RemoteError> {
    args.as_str().ok_or_else(|| bad_args("expected a name"))
}

/// The arguments of `register` and `update`, `[name, endpoint, meta]`.
fn read_binding(args: &Value) -> Result<(&str, Endpoint, Value), RemoteError> {
    let [Value::Str(name), ep, meta] = args.as_list().unwrap_or_default() else {
        return Err(bad_args("expected [name, endpoint, meta]"));
    };
    let ep = endpoint_from_value(ep).map_err(|e| bad_args(e.to_string()))?;
    Ok((name.as_str(), ep, meta.clone()))
}

fn unknown(name: &str) -> RemoteError {
    RemoteError::new(ErrorCode::NoSuchObject, format!("unknown name `{name}`"))
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
        "list" => Answer::Read(Ok(wire::encode(&Value::list(
            dir.list().iter().map(Value::str),
        )))),
        _ => Answer::Write(write(dir, req)),
    }
}

/// A lookup's answer: the bytes the directory encoded at the name's last
/// write, shared.
fn lookup(dir: &Directory, req: &Request) -> Result<Bytes, RemoteError> {
    let name = read_name(&req.args)?;
    dir.lookup_encoded(name).ok_or_else(|| unknown(name))
}

fn write(dir: &Directory, req: &Request) -> Result<Value, RemoteError> {
    match req.op.as_str() {
        "register" => {
            let (name, ep, meta) = read_binding(&req.args)?;
            Ok(Value::U64(dir.register(name, ep, meta)))
        }
        "update" => {
            let (name, ep, meta) = read_binding(&req.args)?;
            let gen = dir.update(name, ep, meta).ok_or_else(|| unknown(name))?;
            Ok(Value::U64(gen))
        }
        "unregister" => {
            let name = read_name(&req.args)?;
            match dir.unregister(name) {
                true => Ok(Value::Null),
                false => Err(unknown(name)),
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

    #[test]
    fn register_then_lookup() {
        let t = Directory::new();
        let r = call(
            &t,
            &req("register", crate::binding_args("kv", ep(1, 2), Value::Null)),
        )
        .unwrap();
        assert_eq!(r.as_u64().unwrap(), 1);
        let rec = call(&t, &req("lookup", crate::name_arg("kv"))).unwrap();
        let rec = NameRecord::from_value(rec).unwrap();
        assert_eq!(rec.endpoint, Endpoint::new(NodeId(1), PortId(2)));
    }

    #[test]
    fn update_bumps_generation_and_moves() {
        let t = Directory::new();
        call(
            &t,
            &req("register", crate::binding_args("kv", ep(1, 2), Value::Null)),
        )
        .unwrap();
        let r = call(
            &t,
            &req("update", crate::binding_args("kv", ep(3, 4), Value::Null)),
        )
        .unwrap();
        assert_eq!(r.as_u64().unwrap(), 2);
        let rec = NameRecord::from_value(call(&t, &req("lookup", crate::name_arg("kv"))).unwrap())
            .unwrap();
        assert_eq!(rec.endpoint, Endpoint::new(NodeId(3), PortId(4)));
        assert_eq!(rec.generation, 2);
    }

    #[test]
    fn unknown_name_is_no_such_object() {
        let t = Directory::new();
        let e = call(&t, &req("lookup", crate::name_arg("x"))).unwrap_err();
        assert_eq!(e.code, ErrorCode::NoSuchObject);
        let e = call(
            &t,
            &req("update", crate::binding_args("x", ep(0, 0), Value::Null)),
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::NoSuchObject);
        let e = call(&t, &req("unregister", crate::name_arg("x"))).unwrap_err();
        assert_eq!(e.code, ErrorCode::NoSuchObject);
    }

    #[test]
    fn list_is_sorted() {
        let t = Directory::new();
        for n in ["zeta", "alpha", "mid"] {
            call(
                &t,
                &req("register", crate::binding_args(n, ep(0, 1), Value::Null)),
            )
            .unwrap();
        }
        let r = call(&t, &req("list", Value::Null)).unwrap();
        let names: Vec<&str> = r
            .as_list()
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    /// A request of another shape (a missing `meta` included) is refused
    /// with `BadArgs` and changes no binding.
    #[test]
    fn bad_args_reported() {
        let t = Directory::new();
        call(
            &t,
            &req("register", crate::binding_args("kv", ep(1, 2), meta())),
        )
        .unwrap();
        let before = call(&t, &req("lookup", name("kv"))).unwrap();
        let at = |n: u64, p: u64| Value::list([Value::U64(n), Value::U64(p)]);
        let binding = |slots: &[Value]| Value::list(slots.iter().cloned());
        let kv = || Value::str("kv");
        let refused = [
            ("register", Value::Null),
            // No meta, or a slot after it.
            ("register", binding(&[kv(), at(3, 4)])),
            ("update", binding(&[kv(), at(3, 4)])),
            (
                "register",
                binding(&[kv(), at(3, 4), Value::Null, Value::Null]),
            ),
            // A slot of the wrong kind.
            ("register", binding(&[Value::U64(1), at(3, 4), Value::Null])),
            ("update", binding(&[kv(), Value::str("3:4"), Value::Null])),
            (
                "update",
                binding(&[kv(), Value::list([Value::U64(3)]), Value::Null]),
            ),
            // A node or a port above u32::MAX.
            ("register", binding(&[kv(), at(1 << 32, 4), Value::Null])),
            ("update", binding(&[kv(), at(3, 1 << 32), Value::Null])),
            // The keyed forms, and a name that is not a string.
            (
                "register",
                Value::record([("name", kv()), ("ep", at(3, 4)), ("meta", Value::Null)]),
            ),
            ("lookup", Value::record([("name", kv())])),
            ("lookup", Value::list([kv()])),
            ("unregister", Value::U64(7)),
        ];
        for (op, args) in refused {
            let e = call(&t, &req(op, args.clone())).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadArgs, "{op} {args}");
        }
        let after = call(&t, &req("lookup", name("kv"))).unwrap();
        assert_eq!(after, before, "no binding changed");
        assert_eq!(t.list(), ["kv"]);
    }

    #[test]
    fn reregister_replaces_binding() {
        let t = Directory::new();
        for p in [2u32, 7] {
            call(
                &t,
                &req("register", crate::binding_args("kv", ep(1, p), Value::Null)),
            )
            .unwrap();
        }
        let rec = NameRecord::from_value(call(&t, &req("lookup", crate::name_arg("kv"))).unwrap())
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

    /// Metadata shaped like a service's: nested lists, `[spec, iface]`.
    fn meta() -> Value {
        let op =
            |name: &str, flags| Value::list([Value::str(name), Value::U64(flags), Value::Null]);
        let iface = Value::list([Value::str("kv"), Value::list([op("get", 0), op("put", 1)])]);
        Value::list([Value::list([Value::U64(0)]), iface])
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
        ok_of(frame).as_u64().unwrap()
    }

    fn name(n: &str) -> Value {
        crate::name_arg(n)
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
