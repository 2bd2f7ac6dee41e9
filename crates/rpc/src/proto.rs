//! The RPC wire protocol: requests, replies, one-way notifications and
//! batches.
//!
//! Every datagram is one framed [`Value::List`]: the envelope's kind as
//! a small integer, then a fixed run of slots that names no field. The
//! protocol is private to the two ends of a channel, which run this same
//! crate, so it pays for no self-description:
//!
//! | kind | envelope | slots after the kind |
//! |------|----------|----------------------|
//! | 0 | [`Request`] | `id, reply_node, reply_port, obj, op, args, sp, lo` |
//! | 1 | [`Reply`] | `id, ok, sp`; a failure `id, err, msg, data, sp` |
//! | 2 | [`Oneway`] | `from_node, from_port, op, args, sp` |
//! | 3 | [`Batch`] | one request, reply or one-way list per item |
//!
//! A batch coalesces several small envelopes (requests on the way out,
//! replies on the way back) into one datagram so a pipelined channel
//! pays one network traversal for many calls; batches never nest.
//!
//! `sp` is the causal span (a raw [`obs::SpanId`]) as an 8-byte
//! little-endian blob, all zeros when untracked: a datagram's size does
//! not depend on the span's number or on whether anything observes the
//! run, so observation moves no simulated delivery time.
//!
//! `lo` is the request's sender's lowest still-awaited call id (0 states
//! none). It is how a client tells a server which recorded replies it
//! may forget; see [`RpcServer`](crate::RpcServer). [`Packet::Request`]
//! holds it beside the [`Request`].
//!
//! Encoding writes each envelope straight from its struct through the
//! pooled [`ValueWriter`]. Decoding, [`Packet::from_frame`], reads the
//! slots in order with a [`FieldReader`]: the header slots in place, and
//! a [`Value`] only for `args`, `ok` and `data`, whose strings and blobs
//! longer than 15 bytes alias the datagram (shorter ones are copied
//! inline). A wrong kind, a wrong arity or a slot of the
//! wrong type is a [`WireError`].

use std::cell::RefCell;

use bytes::Bytes;
use simnet::{Endpoint, NodeId, PortId};
use wire::{Encoder, FieldReader, Value, ValueWriter, WireError};

use crate::error::{ErrorCode, RemoteError};

thread_local! {
    /// Per-thread pooled encoder: every `to_bytes` in this module reuses
    /// one scratch buffer instead of allocating a fresh one per message.
    /// (Simulated processes share the thread that drives them and
    /// this buffer, one at a time: `with_encoder` closures are leaf
    /// work and never block.)
    static ENCODER: RefCell<Encoder> = RefCell::new(Encoder::with_capacity(256));
}

/// Runs `f` with this thread's pooled [`Encoder`].
pub fn with_encoder<R>(f: impl FnOnce(&mut Encoder) -> R) -> R {
    ENCODER.with(|e| f(&mut e.borrow_mut()))
}

/// The envelope kinds, each an envelope list's first slot.
const REQUEST: u64 = 0;
const REPLY: u64 = 1;
const ONEWAY: u64 = 2;
const BATCH: u64 = 3;

/// Encodes an endpoint as a wire value, `[node, port]`: the one form of
/// every endpoint a [`Value`] carries (`Moved` data, callbacks, names).
pub fn endpoint_to_value(ep: Endpoint) -> Value {
    Value::list([Value::U64(ep.node.0.into()), Value::U64(ep.port.0.into())])
}

/// Decodes an endpoint from `[node, port]`.
///
/// # Errors
///
/// A [`WireError`] for another shape or a node or port above `u32::MAX`.
pub fn endpoint_from_value(v: &Value) -> Result<Endpoint, WireError> {
    let part = |n: u64| u32::try_from(n).map_err(|_| WireError::TooLong(n));
    match v.as_list().unwrap_or_default() {
        [Value::U64(node), Value::U64(port)] => {
            Ok(Endpoint::new(NodeId(part(*node)?), PortId(part(*port)?)))
        }
        _ => Err(WireError::WrongKind {
            expected: "endpoint [node, port]",
            actual: v.kind(),
        }),
    }
}

/// Writes an endpoint as two slots, node then port.
pub(crate) fn write_endpoint(w: &mut ValueWriter<'_>, ep: Endpoint) {
    w.u64(ep.node.0.into());
    w.u64(ep.port.0.into());
}

/// Writes a span slot: 8 bytes whatever its number.
fn write_span(w: &mut ValueWriter<'_>, span: u64) {
    w.blob(&span.to_le_bytes());
}

/// The tree form of the envelope `write` writes: the value that encodes
/// to its bytes.
fn tree(write: impl FnOnce(&mut ValueWriter<'_>)) -> Value {
    wire::decode_bytes(&with_encoder(|e| e.encode_with(write))).expect("an envelope decodes")
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
    /// embed), stating no `lo`.
    pub fn to_value(&self) -> Value {
        tree(|w| self.write_into(w, 0))
    }

    /// Writes this request's list, with `lo` in its last slot, through a
    /// [`ValueWriter`] without cloning the object name, op name or args.
    pub(crate) fn write_into(&self, w: &mut ValueWriter<'_>, lo: u64) {
        w.begin_list(9);
        w.u64(REQUEST);
        w.u64(self.call_id);
        write_endpoint(w, self.reply_to);
        w.str(&self.object);
        w.str(&self.op);
        w.value(&self.args);
        write_span(w, self.span);
        w.u64(lo);
    }

    /// Encodes this request into a framed datagram payload (pooled,
    /// borrow-based: no intermediate `Value` tree), stating no `lo`.
    pub fn to_bytes(&self) -> Bytes {
        self.to_bytes_with_lo(0)
    }

    /// [`Request::to_bytes`] with the sender's `lo` (0 states none).
    pub fn to_bytes_with_lo(&self, lo: u64) -> Bytes {
        let _p = obs::scope("rpc;encode");
        with_encoder(|e| e.frame_with(|w| self.write_into(w, lo)))
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
        tree(|w| self.write_into(w))
    }

    /// Writes this reply's list through a [`ValueWriter`] without
    /// cloning the result payload or error strings.
    fn write_into(&self, w: &mut ValueWriter<'_>) {
        let ok = self
            .result
            .as_ref()
            .map(|v| |w: &mut ValueWriter<'_>| w.value(v));
        write_reply(w, self.call_id, self.span, ok);
    }

    /// Encodes this reply into a framed datagram payload (pooled,
    /// borrow-based: no intermediate `Value` tree).
    pub fn to_bytes(&self) -> Bytes {
        let _p = obs::scope("rpc;encode");
        with_encoder(|e| e.frame_with(|w| self.write_into(w)))
    }
}

/// Writes a reply list: `ok` writes the success value in place.
fn write_reply(
    w: &mut ValueWriter<'_>,
    call_id: u64,
    span: u64,
    result: Result<impl FnOnce(&mut ValueWriter<'_>), &RemoteError>,
) {
    match result {
        Ok(ok) => {
            w.begin_list(4);
            w.u64(REPLY);
            w.u64(call_id);
            ok(w);
        }
        Err(e) => {
            w.begin_list(6);
            w.u64(REPLY);
            w.u64(call_id);
            w.str(e.code.as_str());
            w.str(&e.message);
            w.value(&e.data);
        }
    }
    write_span(w, span);
}

/// Frames a reply whose success value is already encoded (one value as
/// [`wire::encode`] writes it), copied in as it stands. Byte-identical
/// to [`Reply::to_bytes`] over the value `ok` encodes.
pub(crate) fn encode_reply(call_id: u64, span: u64, result: Result<&[u8], &RemoteError>) -> Bytes {
    let _p = obs::scope("rpc;encode");
    let ok = result.map(|ok| move |w: &mut ValueWriter<'_>| w.encoded(ok));
    with_encoder(|e| e.frame_with(|w| write_reply(w, call_id, span, ok)))
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
        tree(|w| self.write_into(w))
    }

    /// Writes a notification's list through a [`ValueWriter`] straight
    /// from its parts, cloning neither the op name nor the args.
    fn write_parts(w: &mut ValueWriter<'_>, from: Endpoint, op: &str, args: &Value, span: u64) {
        w.begin_list(6);
        w.u64(ONEWAY);
        write_endpoint(w, from);
        w.str(op);
        w.value(args);
        write_span(w, span);
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
        encode_batch(self.items.len(), |w| {
            for p in &self.items {
                match p {
                    Packet::Request(r, lo) => r.write_into(w, *lo),
                    Packet::Reply(r) => r.write_into(w),
                    Packet::Oneway(o) => o.write_into(w),
                    Packet::Batch(_) => {
                        debug_assert!(false, "batches do not nest");
                        w.null();
                    }
                }
            }
        })
    }
}

/// Frames a batch of `count` items, each written by `items`, in one
/// `rpc;encode` scope.
fn encode_batch(count: usize, items: impl FnOnce(&mut ValueWriter<'_>)) -> Bytes {
    let _p = obs::scope("rpc;encode");
    with_encoder(|e| {
        e.frame_with(|w| {
            w.begin_list(count + 1);
            w.u64(BATCH);
            items(w);
        })
    })
}

/// Encodes a batch of *borrowed* requests, each with `lo`, into one
/// framed datagram — the zero-clone path a pipelined channel uses to
/// coalesce its staged calls (building a [`Batch`] would clone every
/// request first). Byte-identical to `Batch { items }.to_bytes()` over
/// the same requests and `lo`.
pub(crate) fn encode_request_batch<'a>(
    requests: impl ExactSizeIterator<Item = &'a Request>,
    lo: u64,
) -> Bytes {
    encode_batch(requests.len(), |w| {
        for r in requests {
            r.write_into(w, lo);
        }
    })
}

/// Encodes recorded reply frames as one batch datagram: each frame's
/// list, past its header, is copied in behind the batch's kind as it
/// stands. Byte-identical to `Batch { items }.to_bytes()` over the
/// replies the frames decode to, without decoding them. Every frame must
/// be one [`Reply::to_bytes`] built.
pub(crate) fn splice_reply_batch(frames: &[Bytes]) -> Bytes {
    encode_batch(frames.len(), |w| {
        for f in frames {
            w.encoded(&f[wire::HEADER_LEN..]);
        }
    })
}

/// Any decoded RPC datagram.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// A request expecting a reply, and its sender's `lo`: the lowest
    /// call id the sending process still awaits, 0 if the request
    /// states none.
    Request(Request, u64),
    /// A reply to an earlier request.
    Reply(Reply),
    /// A one-way notification.
    Oneway(Oneway),
    /// A batch of coalesced requests or replies.
    Batch(Batch),
}

impl Packet {
    /// Decodes a framed datagram payload in one pass over the frame.
    ///
    /// The envelope's header slots are read in place; only `args`, `ok`
    /// and `data` become [`Value`]s, whose strings and blobs longer than
    /// 15 bytes alias the datagram's refcounted buffer instead of
    /// copying out of it; shorter ones are copied inline, so keeping
    /// one does not keep the datagram.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for a malformed frame, an envelope of an
    /// unknown kind or of the wrong arity for its kind, a batch inside a
    /// batch, or a slot of the wrong type.
    pub fn from_frame(bytes: &Bytes) -> Result<Packet, WireError> {
        let _p = obs::scope("rpc;decode");
        let mut r = FieldReader::from_frame(bytes)?;
        let packet = read_envelope(&mut r, 0)?;
        r.finish()?;
        Ok(packet)
    }
}

/// Reads the envelope list at `depth`: a batch only at the top, its
/// items one level deeper.
fn read_envelope(r: &mut FieldReader<'_>, depth: usize) -> Result<Packet, WireError> {
    let slots = need(r.list(depth)?, "an envelope list")?;
    let d = depth + 1;
    let kind = match slots {
        0 => None,
        _ => Some(need(r.u64(d)?, "an envelope kind")?),
    };
    Ok(match (kind, slots) {
        (Some(REQUEST), 9) => {
            let call_id = need(r.u64(d)?, "id")?;
            let reply_to = read_endpoint(r, d)?;
            let object = need(r.str(d)?, "obj")?.to_owned();
            let op = need(r.str(d)?, "op")?.to_owned();
            let args = r.value(d)?;
            let span = read_span(r, d)?;
            let request = Request {
                call_id,
                reply_to,
                object,
                op,
                args,
                span,
            };
            Packet::Request(request, need(r.u64(d)?, "lo")?)
        }
        (Some(REPLY), 4 | 6) => {
            let call_id = need(r.u64(d)?, "id")?;
            let result = if slots == 4 {
                Ok(r.value(d)?)
            } else {
                let code = ErrorCode::from_str_loose(need(r.str(d)?, "err")?);
                let message = need(r.str(d)?, "msg")?.to_owned();
                let data = r.value(d)?;
                Err(RemoteError {
                    code,
                    message,
                    data,
                })
            };
            let span = read_span(r, d)?;
            Packet::Reply(Reply {
                call_id,
                result,
                span,
            })
        }
        (Some(ONEWAY), 6) => {
            let from = read_endpoint(r, d)?;
            let op = need(r.str(d)?, "op")?.to_owned();
            let args = r.value(d)?;
            let span = read_span(r, d)?;
            Packet::Oneway(Oneway {
                from,
                op,
                args,
                span,
            })
        }
        (Some(BATCH), _) if depth == 0 => {
            let mut items = Vec::with_capacity((slots - 1).min(1024));
            for _ in 1..slots {
                items.push(read_envelope(r, d)?);
            }
            Packet::Batch(Batch { items })
        }
        _ => {
            return Err(WireError::WrongKind {
                expected: "a request, reply, one-way or outermost batch",
                actual: "another kind or arity",
            })
        }
    })
}

/// A slot read as the type its envelope needs.
pub(crate) fn need<T>(slot: Option<T>, name: &'static str) -> Result<T, WireError> {
    slot.ok_or(WireError::WrongKind {
        expected: name,
        actual: "another type",
    })
}

/// Reads an endpoint's two slots in place.
pub(crate) fn read_endpoint(r: &mut FieldReader<'_>, depth: usize) -> Result<Endpoint, WireError> {
    let mut part = |name| {
        let n = need(r.u64(depth)?, name)?;
        u32::try_from(n).map_err(|_| WireError::TooLong(n))
    };
    let node = part("node")?;
    Ok(Endpoint::new(NodeId(node), PortId(part("port")?)))
}

/// Reads a span slot: exactly 8 bytes.
fn read_span(r: &mut FieldReader<'_>, depth: usize) -> Result<u64, WireError> {
    let bytes = need(r.blob(depth)?, "sp")?;
    let bytes = <[u8; 8]>::try_from(bytes).map_err(|_| WireError::WrongKind {
        expected: "an 8-byte span",
        actual: "another width",
    })?;
    Ok(u64::from_le_bytes(bytes))
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
        match Packet::from_frame(&req.to_bytes()).unwrap() {
            Packet::Request(r, lo) => assert_eq!((r, lo), (req, 0)),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn lo_travels_beside_the_request_and_never_in_its_value() {
        let req = Request {
            call_id: 42,
            reply_to: ep(1, 70000),
            object: "kv0".into(),
            op: "get".into(),
            args: Value::Null,
            span: 9,
        };
        let lo_slot = |v: &Value| v.as_list().map(|slots| slots[8].clone());
        assert_eq!(lo_slot(&req.to_value()), Some(Value::U64(0)));
        let framed = req.to_bytes_with_lo(40);
        assert_eq!(
            lo_slot(&wire::unframe(&framed).unwrap()),
            Some(Value::U64(40))
        );
        assert_eq!(
            Packet::from_frame(&framed).unwrap(),
            Packet::Request(req.clone(), 40)
        );
        // Zero states no `lo`.
        assert_eq!(req.to_bytes_with_lo(0), req.to_bytes());
    }

    #[test]
    fn reply_ok_roundtrip() {
        let rep = Reply {
            call_id: 7,
            result: Ok(Value::str("blue")),
            span: 9,
        };
        match Packet::from_frame(&rep.to_bytes()).unwrap() {
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
        match Packet::from_frame(&rep.to_bytes()).unwrap() {
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
        match Packet::from_frame(&m.to_bytes()).unwrap() {
            Packet::Oneway(o) => assert_eq!(o, m),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn a_span_has_one_width_on_the_wire() {
        // Untracked, small and huge spans encode to one size, so neither
        // the span count nor the obs switch moves a datagram's size.
        let req = |span| Request {
            call_id: 1,
            reply_to: ep(1, 2),
            object: String::new(),
            op: "get".into(),
            args: Value::Null,
            span,
        };
        let sizes: Vec<usize> = [0, 9, 1 << 40, u64::MAX]
            .map(|span| req(span).to_bytes().len())
            .to_vec();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
        for span in [0, u64::MAX] {
            match Packet::from_frame(&req(span).to_bytes()).unwrap() {
                Packet::Request(r, _) => assert_eq!(r.span, span),
                other => panic!("wrong packet {other:?}"),
            }
        }
        let reply = |span| Reply {
            call_id: 1,
            result: Ok(Value::Null),
            span,
        };
        assert_eq!(reply(0).to_bytes().len(), reply(u64::MAX).to_bytes().len());
    }

    #[test]
    fn garbage_rejected() {
        assert!(Packet::from_frame(&Bytes::from_static(b"not a frame")).is_err());
    }

    #[test]
    fn batch_roundtrip_preserves_order_and_spans() {
        let batch = Batch {
            items: (1..=4u64)
                .map(|i| {
                    Packet::Request(
                        Request {
                            call_id: i,
                            reply_to: ep(1, 70000),
                            object: String::new(),
                            op: "inc".into(),
                            args: Value::U64(i * 10),
                            span: 100 + i,
                        },
                        i % 2,
                    )
                })
                .collect(),
        };
        match Packet::from_frame(&batch.to_bytes()).unwrap() {
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
        match Packet::from_frame(&batch.to_bytes()).unwrap() {
            Packet::Batch(b) => assert_eq!(b.items.len(), 2),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn nested_batches_rejected() {
        // Hand-build a batch whose item claims to be a batch.
        let inner = Value::List(vec![Value::U64(3)]);
        let outer = frame(&Value::List(vec![Value::U64(3), inner]));
        assert!(Packet::from_frame(&outer).is_err());
    }

    #[test]
    fn a_wrong_kind_or_arity_is_refused() {
        let refused = |slots: Vec<Value>| Packet::from_frame(&frame(&Value::List(slots))).is_err();
        let (u, sp) = (Value::U64, Value::blob(vec![0; 8]));
        assert!(!refused(vec![u(1), u(1), Value::Null, sp.clone()]));
        assert!(
            refused(vec![u(4), u(1), Value::Null, sp.clone()]),
            "unknown kind"
        );
        assert!(refused(vec![
            Value::str("rep"),
            u(1),
            Value::Null,
            sp.clone()
        ]));
        assert!(refused(vec![
            u(1),
            u(1),
            Value::Null,
            Value::blob(vec![0; 7])
        ]));
        assert!(
            refused(vec![u(1), u(1), Value::Null, sp, Value::Null]),
            "arity"
        );
        assert!(refused(vec![]));
    }

    #[test]
    fn empty_batch_roundtrips() {
        let batch = Batch { items: vec![] };
        match Packet::from_frame(&batch.to_bytes()).unwrap() {
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
        // The borrow-based write paths must emit exactly the layout the
        // module doc tables: retransmission dedup and checksums rely on
        // stable encodings.
        let (u, s) = (Value::U64, Value::str);
        let span = |n: u64| Value::blob(n.to_le_bytes().to_vec());
        let args = Value::record([("key", s("color"))]);
        let req = Request {
            call_id: 42,
            reply_to: ep(1, 70000),
            object: "kv0".into(),
            op: "get".into(),
            args: args.clone(),
            span: 9,
        };
        let req_tree = |lo| {
            let slots = [u(0), u(42), u(1), u(70000), s("kv0"), s("get")];
            Value::list(slots.into_iter().chain([args.clone(), span(9), u(lo)]))
        };
        assert_eq!(req.to_bytes_with_lo(7), frame(&req_tree(7)));
        assert_eq!(req.to_value(), req_tree(0));

        let ok = Reply {
            call_id: 7,
            result: Ok(s("blue")),
            span: 9,
        };
        let ok_tree = Value::list([u(1), u(7), s("blue"), span(9)]);
        assert_eq!(ok.to_bytes(), frame(&ok_tree));
        let data = endpoint_to_value(ep(3, 12));
        let err = Reply {
            call_id: 8,
            result: Err(RemoteError::with_data(
                ErrorCode::Moved,
                "object moved",
                data.clone(),
            )),
            span: 0,
        };
        let err_tree = Value::list([u(1), u(8), s("moved"), s("object moved"), data, span(0)]);
        assert_eq!(err.to_bytes(), frame(&err_tree));
        assert_eq!(err.to_value(), err_tree);

        let msg = Oneway {
            from: ep(2, 5),
            op: "invalidate".into(),
            args: s("key1"),
            span: 3,
        };
        let msg_tree = Value::list([u(2), u(2), u(5), s("invalidate"), s("key1"), span(3)]);
        assert_eq!(msg.to_bytes(), frame(&msg_tree));

        let batch = Batch {
            items: vec![Packet::Request(req.clone(), 0), Packet::Reply(ok.clone())],
        };
        let tree = frame(&Value::list([u(3), req_tree(0), ok_tree]));
        assert_eq!(batch.to_bytes(), tree);
    }

    #[test]
    fn from_frame_aliases_the_datagram() {
        let req = Request {
            call_id: 5,
            reply_to: ep(4, 2),
            object: String::new(),
            op: "put".into(),
            args: Value::record([("blob", Value::blob(vec![7u8; 256]))]),
            span: 0,
        };
        let bytes = req.to_bytes();
        let packet = Packet::from_frame(&bytes).unwrap();
        assert_eq!(packet, Packet::Request(req, 0));
        // The blob is a slice of the datagram, not a copy.
        if let Packet::Request(r, _) = packet {
            let blob = r.args.get_blob("blob").unwrap().clone();
            let f_ptr = bytes.as_ref().as_ptr() as usize;
            let b_ptr = blob.as_ref().as_ptr() as usize;
            assert!(b_ptr >= f_ptr && b_ptr + blob.len() <= f_ptr + bytes.len());
        } else {
            panic!("wrong packet kind");
        }
    }
}
