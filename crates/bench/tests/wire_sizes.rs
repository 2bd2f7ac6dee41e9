//! Exact framed sizes of the datagrams the benchmark's workloads send
//! most: a fleet client's put and get and their replies, the lookup that
//! binds it and the name server's answer, a caching server's
//! invalidation, and a pipelined channel's batch of four replies.
//!
//! Wire bytes are a cost every call pays and the network charges by the
//! byte, so a byte added to an envelope slows every delivery. A change
//! that moves a size pastes the table a failure prints and says why, as
//! the per-call budgets ask. Each message is built as the program builds
//! it, with a fleet's small ids; the span is any, since a span slot has
//! one width.

use std::fmt::Write as _;

use naming::NameRecord;
use proxy_core::{protocol, ProxySpec};
use rpc::{Batch, Oneway, Packet, Reply, Request};
use services::kv::KvStore;
use simnet::{Endpoint, NodeId, PortId};
use wire::Value;

/// One message's framed size in bytes.
#[derive(Debug, PartialEq)]
struct Size {
    message: &'static str,
    bytes: usize,
}

#[rustfmt::skip]
const EXPECTED: &[Size] = &[
    Size { message: "put request", bytes: 64 },
    Size { message: "get request", bytes: 54 },
    Size { message: "lookup request", bytes: 50 },
    Size { message: "put reply", bytes: 28 },
    Size { message: "get reply", bytes: 31 },
    Size { message: "lookup reply", bytes: 153 },
    Size { message: "invalidation", bytes: 49 },
    Size { message: "4-reply batch", bytes: 83 },
];

/// A client process's endpoint: the first ephemeral port of its node.
fn client() -> Endpoint {
    Endpoint::new(NodeId(9), PortId(PortId::EPHEMERAL_BASE))
}

/// A service's endpoint, spawned as a client is.
fn service() -> Endpoint {
    Endpoint::new(NodeId(1), PortId(PortId::EPHEMERAL_BASE))
}

const SPAN: u64 = 4_242;

/// A fleet client's `n`th call, framed as its channel sends it, with its
/// own id as `lo`.
fn request(n: u64, op: &str, args: Value) -> bytes::Bytes {
    let req = Request {
        call_id: n,
        reply_to: client(),
        object: String::new(),
        op: op.into(),
        args,
        span: SPAN,
    };
    req.to_bytes_with_lo(n)
}

fn reply(n: u64, ok: Value) -> Reply {
    Reply {
        call_id: n,
        result: Ok(ok),
        span: SPAN,
    }
}

fn measure() -> Vec<Size> {
    let key = || ("key", Value::str("c7/k"));
    let put = Value::record([key(), ("value", Value::str("v0"))]);
    let record = NameRecord {
        endpoint: service(),
        meta: Value::list([ProxySpec::Stub.to_value(), KvStore::interface().to_value()]),
        generation: 1,
    };
    let invalidation = protocol::invalidation("kv0", "c7/k");
    let batch = Batch {
        items: (1..=4)
            .map(|n| Packet::Reply(reply(n, Value::Null)))
            .collect(),
    };
    let lookup = naming::name_arg("kv0");
    let framed = [
        ("put request", request(2, "put", put)),
        ("get request", request(3, "get", Value::record([key()]))),
        ("lookup request", request(1, "lookup", lookup)),
        ("put reply", reply(2, Value::Null).to_bytes()),
        ("get reply", reply(3, Value::str("v0")).to_bytes()),
        ("lookup reply", reply(1, record.to_value()).to_bytes()),
        (
            "invalidation",
            Oneway::encode(service(), protocol::MSG_INVALIDATE, &invalidation, SPAN),
        ),
        ("4-reply batch", batch.to_bytes()),
    ];
    framed
        .into_iter()
        .map(|(message, bytes)| Size {
            message,
            bytes: bytes.len(),
        })
        .collect()
}

#[test]
fn every_message_is_exactly_its_size() {
    let actual = measure();
    if actual != EXPECTED {
        let mut table = String::from("const EXPECTED: &[Size] = &[\n");
        for s in &actual {
            let _ = writeln!(table, "    {s:?},");
        }
        table.push_str("];\n");
        panic!("wire sizes moved; the whole table:\n\n{table}");
    }
}
