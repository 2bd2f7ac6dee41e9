//! The RPC wire protocol: requests, replies, one-way notifications and
//! batches.
//!
//! Every datagram is a framed [`Value`] record whose `"t"` field
//! discriminates the envelope kind: `"req"`, `"rep"`, `"msg"` or
//! `"bat"`. A batch coalesces several small envelopes (requests on the
//! way out, replies on the way back) into one datagram so a pipelined
//! channel pays one network traversal for many calls; batches never
//! nest.

use std::cell::RefCell;

use bytes::Bytes;
use simnet::{Endpoint, NodeId, PortId};
use wire::{unframe, unframe_bytes, Encoder, Value, ValueWriter, WireError};

use crate::error::{ErrorCode, RemoteError};

thread_local! {
    /// Per-thread pooled encoder: every `to_bytes` in this module reuses
    /// one scratch buffer instead of allocating a fresh one per message.
    /// (Simulated processes of one scheduler domain share a thread and
    /// this buffer, one at a time: `with_encoder` closures are leaf
    /// work and never block.)
    static ENCODER: RefCell<Encoder> = RefCell::new(Encoder::with_capacity(256));
}

/// Runs `f` with this thread's pooled [`Encoder`].
pub fn with_encoder<R>(f: impl FnOnce(&mut Encoder) -> R) -> R {
    ENCODER.with(|e| f(&mut e.borrow_mut()))
}

/// Encodes an endpoint as a wire value.
pub fn endpoint_to_value(ep: Endpoint) -> Value {
    Value::record([
        ("n", Value::U64(ep.node.0.into())),
        ("p", Value::U64(ep.port.0.into())),
    ])
}

/// Writes an endpoint through a [`ValueWriter`] (the no-clone twin of
/// [`endpoint_to_value`]).
fn write_endpoint(w: &mut ValueWriter<'_>, ep: Endpoint) {
    w.begin_record(2);
    w.key("n");
    w.u64(ep.node.0.into());
    w.key("p");
    w.u64(ep.port.0.into());
}

/// Decodes an endpoint from a wire value.
///
/// # Errors
///
/// Returns a [`WireError`] if fields are missing or out of range.
pub fn endpoint_from_value(v: &Value) -> Result<Endpoint, WireError> {
    let node = u32::try_from(v.get_u64("n")?).map_err(|_| WireError::TooLong(u64::MAX))?;
    let port = u32::try_from(v.get_u64("p")?).map_err(|_| WireError::TooLong(u64::MAX))?;
    Ok(Endpoint::new(NodeId(node), PortId(port)))
}

/// An RPC request envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-assigned identifier, monotonic per client endpoint.
    /// Retransmissions reuse the id so the server can suppress duplicates.
    pub call_id: u64,
    /// Where the reply should be sent.
    pub reply_to: Endpoint,
    /// Target object within the server context (services may host many).
    /// Empty string addresses the context's default object.
    pub object: String,
    /// Operation name.
    pub op: String,
    /// Operation arguments.
    pub args: Value,
    /// Causal span this request belongs to (raw [`obs::SpanId`]), or 0
    /// when sent outside any tracked invocation. Retransmissions reuse
    /// the encoded datagram, so they share the span by construction.
    pub span: u64,
}

impl Request {
    /// Encodes this request as a wire value (the unframed form batches
    /// embed).
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("t", Value::str("req")),
            ("id", Value::U64(self.call_id)),
            ("rt", endpoint_to_value(self.reply_to)),
            ("obj", Value::str(self.object.clone())),
            ("op", Value::str(self.op.clone())),
            ("args", self.args.clone()),
        ];
        if self.span != 0 {
            fields.push(("sp", Value::U64(self.span)));
        }
        Value::record(fields)
    }

    /// Writes this request's record through a [`ValueWriter`] without
    /// cloning the object name, op name or args.
    pub(crate) fn write_into(&self, w: &mut ValueWriter<'_>) {
        let count = if self.span != 0 { 7 } else { 6 };
        w.begin_record(count);
        w.key("t");
        w.str("req");
        w.key("id");
        w.u64(self.call_id);
        w.key("rt");
        write_endpoint(w, self.reply_to);
        w.key("obj");
        w.str(&self.object);
        w.key("op");
        w.str(&self.op);
        w.key("args");
        w.value(&self.args);
        if self.span != 0 {
            w.key("sp");
            w.u64(self.span);
        }
    }

    /// Encodes this request into a framed datagram payload (pooled,
    /// borrow-based: no intermediate `Value` tree).
    pub fn to_bytes(&self) -> Bytes {
        let _p = obs::scope("rpc;encode");
        with_encoder(|e| e.frame_with(|w| self.write_into(w)))
    }

    fn from_value(v: &Value) -> Result<Request, WireError> {
        Ok(Request {
            call_id: v.get_u64("id")?,
            reply_to: endpoint_from_value(v.get("rt").ok_or(WireError::MissingField("rt"))?)?,
            object: v.get_str("obj")?.to_owned(),
            op: v.get_str("op")?.to_owned(),
            args: v.get("args").cloned().unwrap_or(Value::Null),
            span: v.get_u64("sp").unwrap_or(0),
        })
    }
}

/// An RPC reply envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echoes the request's `call_id`.
    pub call_id: u64,
    /// Success value or remote failure.
    pub result: Result<Value, RemoteError>,
    /// Echoes the request's causal span (0 for untracked traffic), so a
    /// client can correlate the reply with the invocation that caused it.
    pub span: u64,
}

impl Reply {
    /// Encodes this reply as a wire value (the unframed form batches
    /// embed).
    pub fn to_value(&self) -> Value {
        let mut fields = match &self.result {
            Ok(v) => vec![
                ("t", Value::str("rep")),
                ("id", Value::U64(self.call_id)),
                ("ok", v.clone()),
            ],
            Err(e) => vec![
                ("t", Value::str("rep")),
                ("id", Value::U64(self.call_id)),
                ("err", Value::str(e.code.as_str())),
                ("msg", Value::str(e.message.clone())),
                ("data", e.data.clone()),
            ],
        };
        if self.span != 0 {
            fields.push(("sp", Value::U64(self.span)));
        }
        Value::record(fields)
    }

    /// Writes this reply's record through a [`ValueWriter`] without
    /// cloning the result payload or error strings.
    fn write_into(&self, w: &mut ValueWriter<'_>) {
        let span_extra = usize::from(self.span != 0);
        match &self.result {
            Ok(v) => {
                w.begin_record(3 + span_extra);
                w.key("t");
                w.str("rep");
                w.key("id");
                w.u64(self.call_id);
                w.key("ok");
                w.value(v);
            }
            Err(e) => {
                w.begin_record(5 + span_extra);
                w.key("t");
                w.str("rep");
                w.key("id");
                w.u64(self.call_id);
                w.key("err");
                w.str(e.code.as_str());
                w.key("msg");
                w.str(&e.message);
                w.key("data");
                w.value(&e.data);
            }
        }
        if self.span != 0 {
            w.key("sp");
            w.u64(self.span);
        }
    }

    /// Encodes this reply into a framed datagram payload (pooled,
    /// borrow-based: no intermediate `Value` tree).
    pub fn to_bytes(&self) -> Bytes {
        let _p = obs::scope("rpc;encode");
        with_encoder(|e| e.frame_with(|w| self.write_into(w)))
    }

    fn from_value(v: &Value) -> Result<Reply, WireError> {
        let call_id = v.get_u64("id")?;
        let result = if let Some(ok) = v.get("ok") {
            Ok(ok.clone())
        } else {
            Err(RemoteError {
                code: ErrorCode::from_str_loose(v.get_str("err")?),
                message: v.get_str("msg")?.to_owned(),
                data: v.get("data").cloned().unwrap_or(Value::Null),
            })
        };
        Ok(Reply {
            call_id,
            result,
            span: v.get_u64("sp").unwrap_or(0),
        })
    }
}

/// A one-way notification (no reply expected): cache invalidations,
/// callbacks, replication traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Oneway {
    /// Sender endpoint (for follow-up contact).
    pub from: Endpoint,
    /// Notification kind.
    pub op: String,
    /// Notification body.
    pub args: Value,
    /// Causal span of the work that triggered this notification (e.g.
    /// the dispatch whose write broadcast an invalidation), or 0.
    pub span: u64,
}

impl Oneway {
    /// Encodes this notification as a wire value (the unframed form
    /// batches embed).
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("t", Value::str("msg")),
            ("from", endpoint_to_value(self.from)),
            ("op", Value::str(self.op.clone())),
            ("args", self.args.clone()),
        ];
        if self.span != 0 {
            fields.push(("sp", Value::U64(self.span)));
        }
        Value::record(fields)
    }

    /// Writes a notification's record through a [`ValueWriter`] straight
    /// from its parts, cloning neither the op name nor the args.
    fn write_parts(w: &mut ValueWriter<'_>, from: Endpoint, op: &str, args: &Value, span: u64) {
        w.begin_record(if span != 0 { 5 } else { 4 });
        w.key("t");
        w.str("msg");
        w.key("from");
        write_endpoint(w, from);
        w.key("op");
        w.str(op);
        w.key("args");
        w.value(args);
        if span != 0 {
            w.key("sp");
            w.u64(span);
        }
    }

    fn write_into(&self, w: &mut ValueWriter<'_>) {
        Oneway::write_parts(w, self.from, &self.op, &self.args, self.span);
    }

    /// Encodes a notification into a framed datagram payload from its
    /// parts (pooled, borrow-based: no intermediate `Value` tree and no
    /// owned `Oneway`). `span` 0 means untracked.
    pub fn encode(from: Endpoint, op: &str, args: &Value, span: u64) -> Bytes {
        let _p = obs::scope("rpc;encode");
        with_encoder(|e| e.frame_with(|w| Oneway::write_parts(w, from, op, args, span)))
    }

    /// Encodes this notification into a framed datagram payload.
    pub fn to_bytes(&self) -> Bytes {
        Oneway::encode(self.from, &self.op, &self.args, self.span)
    }

    fn from_value(v: &Value) -> Result<Oneway, WireError> {
        Ok(Oneway {
            from: endpoint_from_value(v.get("from").ok_or(WireError::MissingField("from"))?)?,
            op: v.get_str("op")?.to_owned(),
            args: v.get("args").cloned().unwrap_or(Value::Null),
            span: v.get_u64("sp").unwrap_or(0),
        })
    }
}

/// A batch of coalesced envelopes sent as one datagram.
///
/// A pipelined channel stages several small requests to the same server
/// and ships them in one frame; the server answers with a batch of
/// replies to the same client. Items are flat — a batch inside a batch
/// is a wire error — and one-way notifications never batch (they are
/// fire-and-forget and latency-insensitive).
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The coalesced envelopes, in send order.
    pub items: Vec<Packet>,
}

impl Batch {
    /// Encodes this batch into a framed datagram payload. Each item is
    /// written straight into the shared scratch buffer — one frame, one
    /// checksum, no per-item intermediate trees or clones.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if an item is itself a batch.
    pub fn to_bytes(&self) -> Bytes {
        let _p = obs::scope("rpc;encode");
        with_encoder(|e| {
            e.frame_with(|w| {
                w.begin_record(2);
                w.key("t");
                w.str("bat");
                w.key("items");
                w.begin_list(self.items.len());
                for p in &self.items {
                    match p {
                        Packet::Request(r) => r.write_into(w),
                        Packet::Reply(r) => r.write_into(w),
                        Packet::Oneway(o) => o.write_into(w),
                        Packet::Batch(_) => {
                            debug_assert!(false, "batches do not nest");
                            w.null();
                        }
                    }
                }
            })
        })
    }

    fn from_value(v: &Value) -> Result<Batch, WireError> {
        let mut items = Vec::new();
        for item in v.get_list("items")? {
            match item.get_str("t")? {
                "req" => items.push(Packet::Request(Request::from_value(item)?)),
                "rep" => items.push(Packet::Reply(Reply::from_value(item)?)),
                "msg" => items.push(Packet::Oneway(Oneway::from_value(item)?)),
                _ => {
                    return Err(WireError::WrongKind {
                        expected: "req|rep|msg",
                        actual: "nested or unknown batch item",
                    })
                }
            }
        }
        Ok(Batch { items })
    }
}

/// Encodes a batch of *borrowed* requests into one framed datagram —
/// the zero-clone path a pipelined channel uses to coalesce its staged
/// calls (building a [`Batch`] would clone every request first).
/// Byte-identical to `Batch { items }.to_bytes()` over the same
/// requests.
pub(crate) fn encode_request_batch<'a>(
    requests: impl ExactSizeIterator<Item = &'a Request>,
) -> Bytes {
    let _p = obs::scope("rpc;encode");
    with_encoder(|e| {
        e.frame_with(|w| {
            w.begin_record(2);
            w.key("t");
            w.str("bat");
            w.key("items");
            w.begin_list(requests.len());
            for r in requests {
                r.write_into(w);
            }
        })
    })
}

/// Any decoded RPC datagram.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// A request expecting a reply.
    Request(Request),
    /// A reply to an earlier request.
    Reply(Reply),
    /// A one-way notification.
    Oneway(Oneway),
    /// A batch of coalesced requests or replies.
    Batch(Batch),
}

impl Packet {
    /// Decodes a framed datagram payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed frames or unknown envelope
    /// kinds.
    pub fn from_bytes(bytes: &[u8]) -> Result<Packet, WireError> {
        let _p = obs::scope("rpc;decode");
        Packet::from_unframed(unframe(bytes)?)
    }

    /// Decodes a framed datagram payload zero-copy: blob arguments and
    /// reply payloads inside the resulting packet alias the datagram's
    /// refcounted buffer instead of being copied out of it. Preferred
    /// over [`Packet::from_bytes`] whenever the payload is an owned
    /// [`Bytes`] (as simulated datagrams are).
    ///
    /// # Errors
    ///
    /// As for [`Packet::from_bytes`].
    pub fn from_frame(bytes: &Bytes) -> Result<Packet, WireError> {
        let _p = obs::scope("rpc;decode");
        Packet::from_unframed(unframe_bytes(bytes)?)
    }

    fn from_unframed(v: Value) -> Result<Packet, WireError> {
        match v.get_str("t")? {
            "req" => Ok(Packet::Request(Request::from_value(&v)?)),
            "rep" => Ok(Packet::Reply(Reply::from_value(&v)?)),
            "msg" => Ok(Packet::Oneway(Oneway::from_value(&v)?)),
            "bat" => Ok(Packet::Batch(Batch::from_value(&v)?)),
            _ => Err(WireError::WrongKind {
                expected: "req|rep|msg|bat",
                actual: "unknown envelope",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::frame;

    fn ep(n: u32, p: u32) -> Endpoint {
        Endpoint::new(NodeId(n), PortId(p))
    }

    #[test]
    fn request_roundtrip() {
        let req = Request {
            call_id: 42,
            reply_to: ep(1, 70000),
            object: "kv0".into(),
            op: "get".into(),
            args: Value::record([("key", Value::str("color"))]),
            span: 9,
        };
        match Packet::from_bytes(&req.to_bytes()).unwrap() {
            Packet::Request(r) => assert_eq!(r, req),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn reply_ok_roundtrip() {
        let rep = Reply {
            call_id: 7,
            result: Ok(Value::str("blue")),
            span: 9,
        };
        match Packet::from_bytes(&rep.to_bytes()).unwrap() {
            Packet::Reply(r) => assert_eq!(r, rep),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn reply_err_roundtrip_with_data() {
        let rep = Reply {
            call_id: 8,
            result: Err(RemoteError::with_data(
                ErrorCode::Moved,
                "object moved",
                endpoint_to_value(ep(3, 12)),
            )),
            span: 0,
        };
        match Packet::from_bytes(&rep.to_bytes()).unwrap() {
            Packet::Reply(r) => {
                let e = r.result.unwrap_err();
                assert_eq!(e.code, ErrorCode::Moved);
                assert_eq!(endpoint_from_value(&e.data).unwrap(), ep(3, 12));
            }
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn oneway_roundtrip() {
        let m = Oneway {
            from: ep(2, 5),
            op: "invalidate".into(),
            args: Value::str("key1"),
            span: 3,
        };
        match Packet::from_bytes(&m.to_bytes()).unwrap() {
            Packet::Oneway(o) => assert_eq!(o, m),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn span_is_optional_on_the_wire() {
        // A spanless packet encodes no "sp" field at all and decodes
        // back to span 0, so pre-span peers interoperate unchanged.
        let req = Request {
            call_id: 1,
            reply_to: ep(1, 2),
            object: String::new(),
            op: "get".into(),
            args: Value::Null,
            span: 0,
        };
        let v = wire::unframe(&req.to_bytes()).unwrap();
        assert!(v.get("sp").is_none());
        match Packet::from_bytes(&req.to_bytes()).unwrap() {
            Packet::Request(r) => assert_eq!(r.span, 0),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(Packet::from_bytes(b"not a frame").is_err());
    }

    #[test]
    fn batch_roundtrip_preserves_order_and_spans() {
        let batch = Batch {
            items: (1..=4u64)
                .map(|i| {
                    Packet::Request(Request {
                        call_id: i,
                        reply_to: ep(1, 70000),
                        object: String::new(),
                        op: "inc".into(),
                        args: Value::U64(i * 10),
                        span: 100 + i,
                    })
                })
                .collect(),
        };
        match Packet::from_bytes(&batch.to_bytes()).unwrap() {
            Packet::Batch(b) => assert_eq!(b, batch),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn batch_of_replies_roundtrips() {
        let batch = Batch {
            items: vec![
                Packet::Reply(Reply {
                    call_id: 1,
                    result: Ok(Value::str("a")),
                    span: 7,
                }),
                Packet::Reply(Reply {
                    call_id: 2,
                    result: Err(RemoteError::new(ErrorCode::App, "nope")),
                    span: 8,
                }),
            ],
        };
        match Packet::from_bytes(&batch.to_bytes()).unwrap() {
            Packet::Batch(b) => assert_eq!(b.items.len(), 2),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn nested_batches_rejected() {
        // Hand-build a batch whose item claims to be a batch.
        let inner = Value::record([("t", Value::str("bat")), ("items", Value::List(vec![]))]);
        let outer = frame(&Value::record([
            ("t", Value::str("bat")),
            ("items", Value::List(vec![inner])),
        ]));
        assert!(Packet::from_bytes(&outer).is_err());
    }

    #[test]
    fn empty_batch_roundtrips() {
        let batch = Batch { items: vec![] };
        match Packet::from_bytes(&batch.to_bytes()).unwrap() {
            Packet::Batch(b) => assert!(b.items.is_empty()),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn endpoint_value_roundtrip() {
        let e = ep(9, 65537);
        assert_eq!(endpoint_from_value(&endpoint_to_value(e)).unwrap(), e);
    }

    #[test]
    fn writer_encoding_is_byte_identical_to_tree_encoding() {
        // The borrow-based write_into paths must emit exactly the bytes
        // frame(&to_value()) used to: retransmission dedup and checksums
        // rely on stable encodings.
        let req = Request {
            call_id: 42,
            reply_to: ep(1, 70000),
            object: "kv0".into(),
            op: "get".into(),
            args: Value::record([("key", Value::str("color"))]),
            span: 9,
        };
        assert_eq!(req.to_bytes(), frame(&req.to_value()));
        let spanless = Request {
            span: 0,
            ..req.clone()
        };
        assert_eq!(spanless.to_bytes(), frame(&spanless.to_value()));

        let ok = Reply {
            call_id: 7,
            result: Ok(Value::str("blue")),
            span: 9,
        };
        assert_eq!(ok.to_bytes(), frame(&ok.to_value()));
        let err = Reply {
            call_id: 8,
            result: Err(RemoteError::with_data(
                ErrorCode::Moved,
                "object moved",
                endpoint_to_value(ep(3, 12)),
            )),
            span: 0,
        };
        assert_eq!(err.to_bytes(), frame(&err.to_value()));

        let msg = Oneway {
            from: ep(2, 5),
            op: "invalidate".into(),
            args: Value::str("key1"),
            span: 3,
        };
        assert_eq!(msg.to_bytes(), frame(&msg.to_value()));

        let batch = Batch {
            items: vec![Packet::Request(req.clone()), Packet::Reply(ok.clone())],
        };
        let tree = frame(&Value::record([
            ("t", Value::str("bat")),
            ("items", Value::List(vec![req.to_value(), ok.to_value()])),
        ]));
        assert_eq!(batch.to_bytes(), tree);
    }

    #[test]
    fn from_frame_matches_from_bytes() {
        let req = Request {
            call_id: 5,
            reply_to: ep(4, 2),
            object: String::new(),
            op: "put".into(),
            args: Value::record([("blob", Value::blob(vec![7u8; 256]))]),
            span: 0,
        };
        let bytes = req.to_bytes();
        let a = Packet::from_bytes(&bytes).unwrap();
        let b = Packet::from_frame(&bytes).unwrap();
        assert_eq!(a, b);
        // And the zero-copy path aliases the datagram.
        if let Packet::Request(r) = b {
            let blob = r.args.get_blob("blob").unwrap().clone();
            let f_ptr = bytes.as_ref().as_ptr() as usize;
            let b_ptr = blob.as_ref().as_ptr() as usize;
            assert!(b_ptr >= f_ptr && b_ptr + blob.len() <= f_ptr + bytes.len());
        } else {
            panic!("wrong packet kind");
        }
    }
}
