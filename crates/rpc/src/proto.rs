//! The RPC wire protocol: requests, replies, one-way notifications and
//! batches.
//!
//! Every datagram is a framed [`Value`] record whose `"t"` field
//! discriminates the envelope kind: `"req"`, `"rep"`, `"msg"` or
//! `"bat"`. A batch coalesces several small envelopes (requests on the
//! way out, replies on the way back) into one datagram so a pipelined
//! channel pays one network traversal for many calls; batches never
//! nest.
//!
//! A request record may carry, beside the [`Request`] itself, its
//! sender's `lo`: the lowest call id the sending process still awaits
//! (one varint field, omitted when zero). It is how a client tells a
//! server which recorded replies it may forget; see
//! [`RpcServer`](crate::RpcServer). [`Packet::Request`] holds it, 0 for
//! a request that states none.
//!
//! Encoding writes each envelope straight from its struct through the
//! pooled [`ValueWriter`]. Decoding, [`Packet::from_frame`], is one
//! forward pass over the frame with a [`FieldReader`]: the header fields
//! (`t`, `id`, `rt`/`from`, `obj`, `op`, `sp`, `lo`, `err`, `msg`) are read in
//! place, batch items in the same pass, and a [`Value`] is built only for
//! `args`, `ok` and `data`, whose strings and blobs alias the datagram.
//! It accepts exactly the frames a decode of the whole record as one
//! `Value` tree followed by field lookups would, and yields equal
//! packets: fields in any order, the first of two same-named fields
//! counting, unknown fields validated and ignored.

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
    /// embed), with no `lo` beside it.
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

    /// Writes this request's record, with `lo` beside it unless zero,
    /// through a [`ValueWriter`] without cloning the object name, op name
    /// or args.
    pub(crate) fn write_into(&self, w: &mut ValueWriter<'_>, lo: u64) {
        let count = 6 + usize::from(self.span != 0) + usize::from(lo != 0);
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
        if lo != 0 {
            w.key("lo");
            w.u64(lo);
        }
    }

    /// Encodes this request into a framed datagram payload (pooled,
    /// borrow-based: no intermediate `Value` tree), stating no `lo`.
    pub fn to_bytes(&self) -> Bytes {
        self.to_bytes_with_lo(0)
    }

    /// [`Request::to_bytes`] with the sender's `lo` beside the request
    /// (0 states none).
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

/// Writes a reply record: `ok` writes the success value in place.
fn write_reply(
    w: &mut ValueWriter<'_>,
    call_id: u64,
    span: u64,
    result: Result<impl FnOnce(&mut ValueWriter<'_>), &RemoteError>,
) {
    let span_extra = usize::from(span != 0);
    match result {
        Ok(ok) => {
            w.begin_record(3 + span_extra);
            w.key("t");
            w.str("rep");
            w.key("id");
            w.u64(call_id);
            w.key("ok");
            ok(w);
        }
        Err(e) => {
            w.begin_record(5 + span_extra);
            w.key("t");
            w.str("rep");
            w.key("id");
            w.u64(call_id);
            w.key("err");
            w.str(e.code.as_str());
            w.key("msg");
            w.str(&e.message);
            w.key("data");
            w.value(&e.data);
        }
    }
    if span != 0 {
        w.key("sp");
        w.u64(span);
    }
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
            w.begin_record(2);
            w.key("t");
            w.str("bat");
            w.key("items");
            w.begin_list(count);
            items(w);
        })
    })
}

/// Encodes a batch of *borrowed* requests, each with `lo` beside it,
/// into one framed datagram — the zero-clone path a pipelined channel
/// uses to coalesce its staged calls (building a [`Batch`] would clone
/// every request first). Byte-identical to `Batch { items }.to_bytes()`
/// over the same requests and `lo`.
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
/// record, past its header, is copied in behind the batch header as it
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
    /// The envelope's header fields are read in place; only `args`, `ok`
    /// and `data` become [`Value`]s, and those alias the datagram's
    /// refcounted buffer instead of copying out of it. Fields may come in
    /// any order; of two fields with one name the first counts; unknown
    /// fields are validated and ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed frames, unknown envelope
    /// kinds, a batch inside a batch, or a missing or malformed field the
    /// envelope's kind needs.
    pub fn from_frame(bytes: &Bytes) -> Result<Packet, WireError> {
        let _p = obs::scope("rpc;decode");
        let mut r = FieldReader::from_frame(bytes)?;
        let envelope = match r.record(0)? {
            Some(count) => Some(Envelope::read(&mut r, count, 1, true)?),
            None => None,
        };
        r.finish()?;
        envelope.ok_or(WireError::MissingField("t"))?.into_packet()
    }
}

/// An envelope field: `None` while absent, `Some(None)` when present
/// with the wrong kind or shape. Whether either is an error depends on
/// the envelope's kind, which `t` may name last.
type Slot<T> = Option<Option<T>>;

/// The first occurrence of each envelope field, read in place.
#[derive(Default)]
struct Envelope<'a> {
    t: Slot<&'a str>,
    id: Slot<u64>,
    sp: Slot<u64>,
    lo: Slot<u64>,
    rt: Slot<Endpoint>,
    from: Slot<Endpoint>,
    obj: Slot<&'a str>,
    op: Slot<&'a str>,
    err: Slot<&'a str>,
    msg: Slot<&'a str>,
    args: Option<Value>,
    ok: Option<Value>,
    data: Option<Value>,
    items: Slot<Vec<Packet>>,
}

impl<'a> Envelope<'a> {
    /// Reads the `count` fields of an envelope record whose values sit at
    /// `depth`. A batch item (`top` false) leaves its `items` unread, so
    /// a batch inside a batch fails in [`Envelope::into_packet`] as one
    /// without items.
    fn read(
        r: &mut FieldReader<'a>,
        count: usize,
        depth: usize,
        top: bool,
    ) -> Result<Envelope<'a>, WireError> {
        let mut e = Envelope::default();
        for _ in 0..count {
            match r.key()? {
                "t" => first(&mut e.t, r, depth, FieldReader::str),
                "id" => first(&mut e.id, r, depth, FieldReader::u64),
                "sp" => first(&mut e.sp, r, depth, FieldReader::u64),
                "lo" => first(&mut e.lo, r, depth, FieldReader::u64),
                "rt" => first(&mut e.rt, r, depth, read_endpoint),
                "from" => first(&mut e.from, r, depth, read_endpoint),
                "obj" => first(&mut e.obj, r, depth, FieldReader::str),
                "op" => first(&mut e.op, r, depth, FieldReader::str),
                "err" => first(&mut e.err, r, depth, FieldReader::str),
                "msg" => first(&mut e.msg, r, depth, FieldReader::str),
                "args" => first(&mut e.args, r, depth, FieldReader::value),
                "ok" => first(&mut e.ok, r, depth, FieldReader::value),
                "data" => first(&mut e.data, r, depth, FieldReader::value),
                "items" if top => first(&mut e.items, r, depth, read_items),
                _ => r.skip(depth),
            }?;
        }
        Ok(e)
    }

    /// Builds the packet `t` names from the fields its kind needs.
    fn into_packet(self) -> Result<Packet, WireError> {
        // A non-u64 span reads as untracked, like a missing one.
        let span = self.sp.flatten().unwrap_or(0);
        let args = self.args.unwrap_or(Value::Null);
        match need(self.t, "t")? {
            "req" => Ok(Packet::Request(
                Request {
                    call_id: need(self.id, "id")?,
                    reply_to: need(self.rt, "rt")?,
                    object: need(self.obj, "obj")?.to_owned(),
                    op: need(self.op, "op")?.to_owned(),
                    args,
                    span,
                },
                // A non-u64 `lo`, like a missing one, states none.
                self.lo.flatten().unwrap_or(0),
            )),
            "rep" => {
                let call_id = need(self.id, "id")?;
                let result = match self.ok {
                    Some(v) => Ok(v),
                    None => Err(RemoteError {
                        code: ErrorCode::from_str_loose(need(self.err, "err")?),
                        message: need(self.msg, "msg")?.to_owned(),
                        data: self.data.unwrap_or(Value::Null),
                    }),
                };
                Ok(Packet::Reply(Reply {
                    call_id,
                    result,
                    span,
                }))
            }
            "msg" => Ok(Packet::Oneway(Oneway {
                from: need(self.from, "from")?,
                op: need(self.op, "op")?.to_owned(),
                args,
                span,
            })),
            "bat" => Ok(Packet::Batch(Batch {
                items: need(self.items, "items")?,
            })),
            _ => Err(WireError::WrongKind {
                expected: "req|rep|msg|bat",
                actual: "unknown envelope",
            }),
        }
    }
}

/// Reads a field into `slot` unless an earlier field of the same name
/// filled it: the first one counts, as with [`Value::get`], and a later
/// one is validated and ignored.
fn first<'a, T>(
    slot: &mut Option<T>,
    r: &mut FieldReader<'a>,
    depth: usize,
    read: impl FnOnce(&mut FieldReader<'a>, usize) -> Result<T, WireError>,
) -> Result<(), WireError> {
    match slot {
        Some(_) => r.skip(depth),
        None => {
            *slot = Some(read(r, depth)?);
            Ok(())
        }
    }
}

/// A field the envelope's kind needs.
fn need<T>(slot: Slot<T>, name: &'static str) -> Result<T, WireError> {
    slot.ok_or(WireError::MissingField(name))?
        .ok_or(WireError::WrongKind {
            expected: name,
            actual: "malformed field",
        })
}

/// Reads an endpoint record in place (see [`endpoint_from_value`]);
/// `None` if it is no record or lacks a `u32` node or port.
fn read_endpoint(r: &mut FieldReader<'_>, depth: usize) -> Result<Option<Endpoint>, WireError> {
    let Some(count) = r.record(depth)? else {
        return Ok(None);
    };
    let (mut node, mut port) = (None, None);
    for _ in 0..count {
        match r.key()? {
            "n" => first(&mut node, r, depth + 1, FieldReader::u64),
            "p" => first(&mut port, r, depth + 1, FieldReader::u64),
            _ => r.skip(depth + 1),
        }?;
    }
    let part = |slot: Slot<u64>| slot.flatten().and_then(|n| u32::try_from(n).ok());
    Ok(part(node)
        .zip(part(port))
        .map(|(n, p)| Endpoint::new(NodeId(n), PortId(p))))
}

/// Reads a batch's item list; `None` if it is no list or any item is no
/// request, reply or one-way envelope.
fn read_items(r: &mut FieldReader<'_>, depth: usize) -> Result<Option<Vec<Packet>>, WireError> {
    let Some(count) = r.list(depth)? else {
        return Ok(None);
    };
    let mut items = Some(Vec::with_capacity(count.min(1024)));
    for _ in 0..count {
        let item = match r.record(depth + 1)? {
            Some(n) => Envelope::read(r, n, depth + 2, false)?.into_packet().ok(),
            None => None,
        };
        // A bad item fails the batch, but the items after it must still
        // be well-formed bytes.
        items = items.zip(item).map(|(mut items, item)| {
            items.push(item);
            items
        });
    }
    Ok(items)
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
        assert!(req.to_value().get("lo").is_none());
        let framed = req.to_bytes_with_lo(40);
        assert_eq!(wire::unframe(&framed).unwrap().get_u64("lo"), Ok(40));
        assert_eq!(
            Packet::from_frame(&framed).unwrap(),
            Packet::Request(req.clone(), 40)
        );
        // Zero states no `lo`: the field is left out.
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
        match Packet::from_frame(&req.to_bytes()).unwrap() {
            Packet::Request(r, _) => assert_eq!(r.span, 0),
            other => panic!("wrong packet {other:?}"),
        }
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
        let inner = Value::record([("t", Value::str("bat")), ("items", Value::List(vec![]))]);
        let outer = frame(&Value::record([
            ("t", Value::str("bat")),
            ("items", Value::List(vec![inner])),
        ]));
        assert!(Packet::from_frame(&outer).is_err());
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
            items: vec![Packet::Request(req.clone(), 0), Packet::Reply(ok.clone())],
        };
        let tree = frame(&Value::record([
            ("t", Value::str("bat")),
            ("items", Value::List(vec![req.to_value(), ok.to_value()])),
        ]));
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
