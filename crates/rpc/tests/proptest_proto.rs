//! Property-based tests of the RPC protocol encoding, and of the one-pass
//! decoder against the tree decoder it replaced.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::TestRng;
use rpc::{
    endpoint_from_value, endpoint_to_value, Batch, ErrorCode, Oneway, Packet, RemoteError, Reply,
    Request,
};
use simnet::{Endpoint, NodeId, PortId};
use wire::{Value, WireError, MAX_DEPTH};

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (any::<u32>(), any::<u32>()).prop_map(|(n, p)| Endpoint::new(NodeId(n), PortId(p)))
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        "[a-zA-Z0-9 _./-]{0,16}".prop_map(Value::str),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::blob),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..4)
                .prop_map(|fields: Vec<(String, Value)>| Value::record(fields)),
        ]
    })
}

/// A sender's `lo`: none stated, or any id.
fn arb_lo() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), any::<u64>()]
}

fn arb_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::NoSuchOp),
        Just(ErrorCode::NoSuchObject),
        Just(ErrorCode::BadArgs),
        Just(ErrorCode::Moved),
        Just(ErrorCode::Unavailable),
        Just(ErrorCode::NotPrimary),
        Just(ErrorCode::App),
    ]
}

proptest! {
    #[test]
    fn request_roundtrips(
        call_id in any::<u64>(),
        reply_to in arb_endpoint(),
        object in "[a-z0-9]{0,8}",
        op in "[a-z_]{1,12}",
        args in arb_value(),
        lo in arb_lo(),
    ) {
        let req = Request { call_id, reply_to, object, op, args, span: 0 };
        match Packet::from_frame(&req.to_bytes()).unwrap() {
            Packet::Request(r, none) => prop_assert_eq!((r, none), (req.clone(), 0)),
            other => prop_assert!(false, "wrong packet {:?}", other),
        }
        match Packet::from_frame(&req.to_bytes_with_lo(lo)).unwrap() {
            Packet::Request(r, got) => prop_assert_eq!((r, got), (req, lo)),
            other => prop_assert!(false, "wrong packet {:?}", other),
        }
    }

    /// `lo` rides beside each request, lone or batched, present or not,
    /// and never inside the request's own value: the value a request
    /// encodes to states none.
    #[test]
    fn lo_roundtrips_lone_and_batched(
        reqs in proptest::collection::vec((arb_request(), arb_lo()), 1..5),
    ) {
        for (req, lo) in &reqs {
            prop_assert_eq!(req.to_value().as_list().map(|s| s[8].clone()), Some(Value::U64(0)));
            prop_assert_eq!(
                Packet::from_frame(&wire::frame(&req.to_value())).unwrap(),
                Packet::Request(req.clone(), 0)
            );
            let lone = req.to_bytes_with_lo(*lo);
            prop_assert_eq!(Packet::from_frame(&lone).unwrap(), Packet::Request(req.clone(), *lo));
        }
        let batch = Batch {
            items: reqs.iter().map(|(r, lo)| Packet::Request(r.clone(), *lo)).collect(),
        };
        prop_assert_eq!(Packet::from_frame(&batch.to_bytes()).unwrap(), Packet::Batch(batch));
    }

    #[test]
    fn reply_ok_roundtrips(call_id in any::<u64>(), v in arb_value()) {
        let rep = Reply { call_id, result: Ok(v), span: 0 };
        match Packet::from_frame(&rep.to_bytes()).unwrap() {
            Packet::Reply(r) => prop_assert_eq!(r, rep),
            other => prop_assert!(false, "wrong packet {:?}", other),
        }
    }

    #[test]
    fn reply_err_roundtrips(
        call_id in any::<u64>(),
        code in arb_code(),
        msg in ".{0,40}",
        data in arb_value(),
    ) {
        let rep = Reply {
            call_id,
            result: Err(RemoteError { code, message: msg, data }),
            span: 0,
        };
        match Packet::from_frame(&rep.to_bytes()).unwrap() {
            Packet::Reply(r) => prop_assert_eq!(r, rep),
            other => prop_assert!(false, "wrong packet {:?}", other),
        }
    }

    #[test]
    fn oneway_roundtrips(from in arb_endpoint(), op in "[a-z_]{1,12}", args in arb_value()) {
        let m = Oneway { from, op, args, span: 0 };
        match Packet::from_frame(&m.to_bytes()).unwrap() {
            Packet::Oneway(o) => prop_assert_eq!(o, m),
            other => prop_assert!(false, "wrong packet {:?}", other),
        }
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Framed with a valid header and checksum, or the frame check
        // would reject nearly every input before the decoder saw it.
        let _ = Packet::from_frame(&reframe(&bytes)); // must return, never panic
    }

    #[test]
    fn envelope_kinds_never_confused(
        call_id in any::<u64>(),
        reply_to in arb_endpoint(),
        op in "[a-z]{1,8}",
        args in arb_value(),
    ) {
        // A request and a reply with identical ids/payloads must decode
        // to their own kinds (the kind slot does its job).
        let req = Request { call_id, reply_to, object: String::new(), op: op.clone(), args: args.clone(), span: 0 };
        let rep = Reply { call_id, result: Ok(args.clone()), span: 0 };
        let one = Oneway { from: reply_to, op, args, span: 0 };
        prop_assert!(matches!(Packet::from_frame(&req.to_bytes()).unwrap(), Packet::Request(..)));
        prop_assert!(matches!(Packet::from_frame(&rep.to_bytes()).unwrap(), Packet::Reply(_)));
        prop_assert!(matches!(Packet::from_frame(&one.to_bytes()).unwrap(), Packet::Oneway(_)));
    }

    #[test]
    fn endpoint_encoding_roundtrips(
        ep in arb_endpoint(),
        big in u64::from(u32::MAX) + 1..=u64::MAX,
        other in arb_value(),
    ) {
        let v = endpoint_to_value(ep);
        prop_assert_eq!(endpoint_from_value(&v).unwrap(), ep);
        // `[node, port]` and nothing else: a node or port above
        // `u32::MAX`, a missing or trailing slot, a slot of another kind
        // and the keyed form are refused.
        let (node, port) = (Value::U64(ep.node.0.into()), Value::U64(ep.port.0.into()));
        let refused = [
            Value::list([Value::U64(big), port.clone()]),
            Value::list([node.clone(), Value::U64(big)]),
            Value::list([node.clone()]),
            Value::list([node.clone(), port.clone(), Value::U64(0)]),
            Value::list([node.clone(), Value::I64(1)]),
            Value::record([("n", node), ("p", port)]),
        ];
        for v in refused {
            prop_assert!(endpoint_from_value(&v).is_err(), "{} decoded", v);
        }
        if let Ok(e) = endpoint_from_value(&other) {
            prop_assert_eq!(endpoint_to_value(e), other);
        }
    }
}

// -- the one-pass decoder against the tree decoder ------------------------

/// The oracle: the whole datagram decoded as one `Value` tree, then each
/// slot taken from the list by position.
fn tree_decode(frame: &Bytes) -> Result<Packet, WireError> {
    tree_packet(&wire::unframe_bytes(frame)?, true)
}

fn tree_packet(v: &Value, top: bool) -> Result<Packet, WireError> {
    let bad = || WireError::MissingField("slot");
    let slots = v.as_list().ok_or_else(bad)?;
    let u = |i: usize| match slots.get(i) {
        Some(Value::U64(n)) => Ok(*n),
        _ => Err(bad()),
    };
    let s = |i: usize| match slots.get(i) {
        Some(Value::Str(s)) => Ok(s.as_str()),
        _ => Err(bad()),
    };
    let u32_at = |i| u32::try_from(u(i)?).map_err(|_| bad());
    let ep = |i| Ok::<_, WireError>(Endpoint::new(NodeId(u32_at(i)?), PortId(u32_at(i + 1)?)));
    let span = |i: usize| match slots.get(i) {
        Some(Value::Blob(b)) => Ok(u64::from_le_bytes(b[..].try_into().map_err(|_| bad())?)),
        _ => Err(bad()),
    };
    match (slots.first(), slots.len()) {
        (Some(Value::U64(0)), 9) => Ok(Packet::Request(
            Request {
                call_id: u(1)?,
                reply_to: ep(2)?,
                object: s(4)?.to_owned(),
                op: s(5)?.to_owned(),
                args: slots[6].clone(),
                span: span(7)?,
            },
            u(8)?,
        )),
        (Some(Value::U64(1)), 4) => Ok(Packet::Reply(Reply {
            call_id: u(1)?,
            result: Ok(slots[2].clone()),
            span: span(3)?,
        })),
        (Some(Value::U64(1)), 6) => Ok(Packet::Reply(Reply {
            call_id: u(1)?,
            result: Err(RemoteError {
                code: ErrorCode::from_str_loose(s(2)?),
                message: s(3)?.to_owned(),
                data: slots[4].clone(),
            }),
            span: span(5)?,
        })),
        (Some(Value::U64(2)), 6) => Ok(Packet::Oneway(Oneway {
            from: ep(1)?,
            op: s(3)?.to_owned(),
            args: slots[4].clone(),
            span: span(5)?,
        })),
        (Some(Value::U64(3)), _) if top => Ok(Packet::Batch(Batch {
            items: slots[1..]
                .iter()
                .map(|item| tree_packet(item, false))
                .collect::<Result<_, _>>()?,
        })),
        _ => Err(bad()),
    }
}

/// Both decoders give the same packet, or both refuse the frame (the
/// kind of error may differ).
fn agree(frame: &Bytes) -> Result<Option<Packet>, TestCaseError> {
    match (Packet::from_frame(frame), tree_decode(frame)) {
        (Ok(a), Ok(b)) if a == b => Ok(Some(a)),
        (Err(_), Err(_)) => Ok(None),
        (a, b) => Err(TestCaseError::fail(format!(
            "one-pass {a:?} but tree {b:?} for frame {frame:?}"
        ))),
    }
}

/// `payload` in a frame with a valid header and checksum.
fn reframe(payload: &[u8]) -> Bytes {
    // Magic and version from a real frame; then the checksum and length
    // (little-endian, at bytes 3..7 and 7..11) of this payload.
    let mut f = wire::frame(&Value::Null)[..3].to_vec();
    f.extend_from_slice(&wire::crc32(payload).to_le_bytes());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(payload);
    Bytes::from(f)
}

fn arb_span() -> BoxedStrategy<u64> {
    prop_oneof![Just(0u64), any::<u64>()]
}

fn arb_request() -> BoxedStrategy<Request> {
    (
        any::<u64>(),
        arb_endpoint(),
        "[a-z0-9]{0,8}",
        "[a-z_]{1,12}",
        arb_value(),
        arb_span(),
    )
        .prop_map(|(call_id, reply_to, object, op, args, span)| Request {
            call_id,
            reply_to,
            object,
            op,
            args,
            span,
        })
}

fn arb_reply() -> BoxedStrategy<Reply> {
    let err = (arb_code(), ".{0,12}", arb_value()).prop_map(|(code, message, data)| {
        Err(RemoteError {
            code,
            message,
            data,
        })
    });
    let result = prop_oneof![arb_value().prop_map(Ok), err];
    (any::<u64>(), result, arb_span()).prop_map(|(call_id, result, span)| Reply {
        call_id,
        result,
        span,
    })
}

fn arb_oneway() -> BoxedStrategy<Oneway> {
    (arb_endpoint(), "[a-z_]{1,12}", arb_value(), arb_span()).prop_map(|(from, op, args, span)| {
        Oneway {
            from,
            op,
            args,
            span,
        }
    })
}

/// Every envelope kind, batches of any non-batch items included.
fn arb_packet() -> BoxedStrategy<Packet> {
    let item = prop_oneof![
        (arb_request(), arb_lo()).prop_map(|(r, lo)| Packet::Request(r, lo)),
        arb_reply().prop_map(Packet::Reply),
        arb_oneway().prop_map(Packet::Oneway),
    ];
    prop_oneof![
        item.clone(),
        proptest::collection::vec(item, 0..5).prop_map(|items| Packet::Batch(Batch { items })),
    ]
}

fn to_value(p: &Packet) -> Value {
    match p {
        Packet::Request(r, lo) => {
            let mut v = r.to_value();
            if let Value::List(slots) = &mut v {
                slots[8] = Value::U64(*lo);
            }
            v
        }
        Packet::Reply(r) => r.to_value(),
        Packet::Oneway(o) => o.to_value(),
        Packet::Batch(b) => Value::list(
            [Value::U64(3)]
                .into_iter()
                .chain(b.items.iter().map(to_value)),
        ),
    }
}

/// `levels` lists around a number: as `args` of a datagram it sits at
/// the depth limit for `levels == MAX_DEPTH - 1`, of a batch item for
/// `MAX_DEPTH - 3`.
fn nested(levels: usize) -> Value {
    (0..levels).fold(Value::U64(7), |v, _| Value::List(vec![v]))
}

/// A slot value of some type an envelope slot has, or should not have.
fn arb_shape() -> BoxedStrategy<Value> {
    prop_oneof![
        (0u64..5).prop_map(Value::U64),
        prop_oneof![
            Just(u64::from(u32::MAX)),
            Just(u64::from(u32::MAX) + 1),
            any::<u64>(),
        ]
        .prop_map(Value::U64),
        (7usize..=9).prop_map(|n| Value::blob(vec![0xA5; n])),
        arb_endpoint().prop_map(endpoint_to_value),
        arb_packet().prop_map(|p| to_value(&p)),
        Just(Value::list([Value::U64(3)])),
        (MAX_DEPTH - 4..=MAX_DEPTH).prop_map(nested),
        Just(Value::str(BAD_UTF8)),
        arb_value(),
        Just(Value::Null),
        any::<i64>().prop_map(Value::I64),
    ]
    .boxed()
}

/// Applies one random edit to a list's items: swap two, duplicate one,
/// drop one, change one, insert a new one, or edit inside one.
fn mutate(items: &mut Vec<Value>, rng: &mut TestRng, shape: &BoxedStrategy<Value>) {
    let pick = |rng: &mut TestRng, n: usize| rng.below(n.max(1) as u64) as usize;
    let at = pick(rng, items.len());
    match (rng.below(6), items.is_empty()) {
        (0, false) => {
            let other = pick(rng, items.len());
            items.swap(at, other);
        }
        (1, false) => {
            let dup = items[at].clone();
            let to = pick(rng, items.len() + 1);
            items.insert(to, dup);
        }
        (2, false) => drop(items.remove(at)),
        (3, false) => items[at] = shape.generate(rng),
        (5, false) => mutate_value(&mut items[at], rng, shape),
        _ => {
            let to = pick(rng, items.len() + 1);
            items.insert(to, shape.generate(rng));
        }
    }
}

/// Edits inside a value: a list's items (a batch inside a batch, say),
/// one field of a record, or the whole of anything else.
fn mutate_value(v: &mut Value, rng: &mut TestRng, shape: &BoxedStrategy<Value>) {
    match v {
        Value::List(items) => mutate(items, rng, shape),
        Value::Record(fields) if !fields.is_empty() => {
            let at = rng.below(fields.len() as u64) as usize;
            mutate_value(&mut fields[at].1, rng, shape);
        }
        other => *other = shape.generate(rng),
    }
}

/// A string [`arb_field_soup`] turns into invalid UTF-8 once encoded
/// (a `Value` cannot hold one), so that a field either decoder skips is
/// still checked.
const BAD_UTF8: &str = "~bad-utf8~";

/// A framed envelope list after zero to five random edits: slots
/// reordered, duplicated, missing, of the wrong type, junk, invalid
/// UTF-8, spans of the wrong width, nested batches, args at and past the
/// depth limit, and the same inside batch items.
fn arb_field_soup() -> BoxedStrategy<Bytes> {
    let packets = arb_packet();
    let shape = arb_shape();
    BoxedStrategy::new(move |rng| {
        let mut v = to_value(&packets.generate(rng));
        for _ in 0..rng.below(6) {
            mutate_value(&mut v, rng, &shape);
        }
        let mut payload = wire::encode(&v).to_vec();
        let bad = BAD_UTF8.as_bytes();
        for at in 0..payload.len().saturating_sub(bad.len() - 1) {
            if payload[at..].starts_with(bad) {
                payload[at] = 0xFF;
            }
        }
        reframe(&payload)
    })
}

/// A checksummed frame around hostile bytes: random bytes, random bytes
/// after a list tag, or a real envelope with bytes overwritten or cut.
fn arb_hostile_frame() -> BoxedStrategy<Bytes> {
    let random = proptest::collection::vec(any::<u8>(), 0..200);
    let envelope = arb_packet().prop_map(|p| to_value(&p));
    BoxedStrategy::new(move |rng| {
        let payload = match rng.below(3) {
            0 => random.generate(rng),
            1 => {
                let mut b = wire::encode(&Value::List(vec![]))[..1].to_vec();
                b.extend(random.generate(rng));
                b
            }
            _ => {
                let mut b = wire::encode(&envelope.generate(rng)).to_vec();
                for _ in 0..=rng.below(3) {
                    let at = rng.below(b.len() as u64) as usize;
                    b[at] = rng.next_u64() as u8;
                }
                if rng.below(4) == 0 {
                    b.truncate(rng.below(b.len() as u64) as usize);
                }
                b
            }
        };
        reframe(&payload)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn one_pass_decodes_valid_envelopes_as_the_tree_decoder(p in arb_packet()) {
        let bytes = match &p {
            Packet::Request(r, lo) => r.to_bytes_with_lo(*lo),
            Packet::Reply(r) => r.to_bytes(),
            Packet::Oneway(o) => o.to_bytes(),
            Packet::Batch(b) => b.to_bytes(),
        };
        prop_assert_eq!(agree(&bytes)?, Some(p));
    }

    #[test]
    fn one_pass_agrees_with_the_tree_decoder_on_field_soup(frame in arb_field_soup()) {
        agree(&frame)?;
    }

    #[test]
    fn one_pass_agrees_with_the_tree_decoder_on_hostile_frames(frame in arb_hostile_frame()) {
        agree(&frame)?;
    }
}

/// The field soup is no vacuous test: a fair share of its frames decode
/// and a fair share do not.
#[test]
fn field_soup_reaches_both_outcomes() {
    let soup = arb_field_soup();
    let mut rng = TestRng::deterministic("field_soup_reaches_both_outcomes");
    let decoded = (0..500)
        .filter(|_| Packet::from_frame(&soup.generate(&mut rng)).is_ok())
        .count();
    assert!((100..=400).contains(&decoded), "{decoded} of 500 decoded");
}

#[test]
fn depth_limit_is_counted_as_the_tree_decoder_counts_it() {
    // Args of a datagram sit one level down, args of a batch item two.
    let req = |levels| Request {
        call_id: 1,
        reply_to: Endpoint::new(NodeId(1), PortId(2)),
        object: String::new(),
        op: "deep".into(),
        args: nested(levels),
        span: 0,
    };
    let alone = |levels| agree(&req(levels).to_bytes()).unwrap().is_some();
    assert!(alone(MAX_DEPTH - 1));
    assert!(!alone(MAX_DEPTH));
    let batched = |levels| {
        let batch = Batch {
            items: vec![Packet::Request(req(levels), 0)],
        };
        agree(&batch.to_bytes()).unwrap().is_some()
    };
    assert!(batched(MAX_DEPTH - 2));
    assert!(!batched(MAX_DEPTH - 1));
}
