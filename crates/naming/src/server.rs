//! The name server process.

use std::sync::Arc;

use rpc::{endpoint_from_value, ErrorCode, RemoteError, Request, RpcServer};
use simnet::{Endpoint, NodeId, Poll, PortId, ProcCx, Process, Simulation};
use wire::{Value, WireError};

use crate::directory::Directory;

/// The well-known port the name server listens on.
pub const NAME_SERVER_PORT: PortId = PortId(1);

fn bad_args(e: WireError) -> RemoteError {
    RemoteError::new(ErrorCode::BadArgs, e.to_string())
}

fn handle(dir: &Directory, req: &Request) -> Result<Value, RemoteError> {
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
        "lookup" => {
            let name = req.args.get_str("name").map_err(bad_args)?;
            match dir.lookup(name) {
                Some(rec) => Ok(rec.to_value()),
                None => Err(RemoteError::new(
                    ErrorCode::NoSuchObject,
                    format!("unknown name `{name}`"),
                )),
            }
        }
        "list" => Ok(Value::record([(
            "names",
            Value::list(dir.list().iter().map(Value::str)),
        )])),
        other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
    }
}

/// The name-server process: a poll-driven machine that answers every
/// datagram in its mailbox from `dir` and parks. Replicas are given one
/// shared directory, so a registration through any of them is visible
/// to lookups through every other in the same instant.
fn name_server(dir: Arc<Directory>) -> impl Process {
    let mut server = RpcServer::new();
    move |cx: &mut ProcCx| {
        while let Ok(Some(msg)) = cx.try_recv() {
            server.handle(cx, &msg, |_ctx, req| handle(&dir, req));
        }
        if cx.is_stopped() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// Spawns the name server on `node` at [`NAME_SERVER_PORT`], returning
/// its endpoint.
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
    let dir = Arc::new(Directory::new());
    sim.spawn_poll_at("name-server", node, NAME_SERVER_PORT, name_server(dir))
}

/// Spawns one name-server replica per node in `nodes`, all serving one
/// shared striped [`Directory`], and returns their endpoints (one per
/// node, in order).
///
/// Clients spread their lookups across the replicas (see
/// `SessionCore::with_ns_replicas` in `core`), so a million concurrent
/// bind backoff polls fan out over `nodes.len()` server queues instead
/// of serializing on one process — while registrations stay visible
/// directory-wide in the same instant.
///
/// # Panics
///
/// Panics if `nodes` is empty or [`NAME_SERVER_PORT`] is already bound
/// on any of the nodes.
pub fn spawn_name_cluster(sim: &Simulation, nodes: &[NodeId]) -> Vec<Endpoint> {
    assert!(!nodes.is_empty(), "name cluster needs at least one node");
    let dir = Arc::new(Directory::new());
    nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let replica = name_server(Arc::clone(&dir));
            sim.spawn_poll_at(format!("name-server-{i}"), node, NAME_SERVER_PORT, replica)
        })
        .collect()
}

#[cfg(test)]
mod tests {
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

    fn ep_value(n: u32, p: u32) -> Value {
        rpc::endpoint_to_value(Endpoint::new(NodeId(n), PortId(p)))
    }

    #[test]
    fn register_then_lookup() {
        let t = Directory::new();
        let r = handle(
            &t,
            &req(
                "register",
                Value::record([("name", Value::str("kv")), ("ep", ep_value(1, 2))]),
            ),
        )
        .unwrap();
        assert_eq!(r.get_u64("gen").unwrap(), 1);
        let rec = handle(
            &t,
            &req("lookup", Value::record([("name", Value::str("kv"))])),
        )
        .unwrap();
        let rec = NameRecord::from_value(&rec).unwrap();
        assert_eq!(rec.endpoint, Endpoint::new(NodeId(1), PortId(2)));
    }

    #[test]
    fn update_bumps_generation_and_moves() {
        let t = Directory::new();
        handle(
            &t,
            &req(
                "register",
                Value::record([("name", Value::str("kv")), ("ep", ep_value(1, 2))]),
            ),
        )
        .unwrap();
        let r = handle(
            &t,
            &req(
                "update",
                Value::record([("name", Value::str("kv")), ("ep", ep_value(3, 4))]),
            ),
        )
        .unwrap();
        assert_eq!(r.get_u64("gen").unwrap(), 2);
        let rec = NameRecord::from_value(
            &handle(
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
        let e = handle(
            &t,
            &req("lookup", Value::record([("name", Value::str("x"))])),
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::NoSuchObject);
        let e = handle(
            &t,
            &req(
                "update",
                Value::record([("name", Value::str("x")), ("ep", ep_value(0, 0))]),
            ),
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::NoSuchObject);
        let e = handle(
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
            handle(
                &t,
                &req(
                    "register",
                    Value::record([("name", Value::str(n)), ("ep", ep_value(0, 1))]),
                ),
            )
            .unwrap();
        }
        let r = handle(&t, &req("list", Value::Null)).unwrap();
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
        let e = handle(&t, &req("register", Value::Null)).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadArgs);
    }

    #[test]
    fn reregister_replaces_binding() {
        let t = Directory::new();
        for p in [2u32, 7] {
            handle(
                &t,
                &req(
                    "register",
                    Value::record([("name", Value::str("kv")), ("ep", ep_value(1, p))]),
                ),
            )
            .unwrap();
        }
        let rec = NameRecord::from_value(
            &handle(
                &t,
                &req("lookup", Value::record([("name", Value::str("kv"))])),
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(rec.endpoint, Endpoint::new(NodeId(1), PortId(7)));
        assert_eq!(rec.generation, 2);
    }
}
