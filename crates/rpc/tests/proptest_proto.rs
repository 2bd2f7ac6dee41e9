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
use wire::{Value, WStr, WireError, MAX_DEPTH};

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
    /// encodes to is still a request with all six fields and no `lo`.
    #[test]
    fn lo_roundtrips_lone_and_batched(
        reqs in proptest::collection::vec((arb_request(), arb_lo()), 1..5),
    ) {
        for (req, lo) in &reqs {
            prop_assert!(req.to_value().get("lo").is_none());
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
        // to their own kinds (the "t" discriminator does its job).
        let req = Request { call_id, reply_to, object: String::new(), op: op.clone(), args: args.clone(), span: 0 };
        let rep = Reply { call_id, result: Ok(args.clone()), span: 0 };
        let one = Oneway { from: reply_to, op, args, span: 0 };
        prop_assert!(matches!(Packet::from_frame(&req.to_bytes()).unwrap(), Packet::Request(..)));
        prop_assert!(matches!(Packet::from_frame(&rep.to_bytes()).unwrap(), Packet::Reply(_)));
        prop_assert!(matches!(Packet::from_frame(&one.to_bytes()).unwrap(), Packet::Oneway(_)));
    }

    #[test]
    fn endpoint_encoding_roundtrips(ep in arb_endpoint()) {
        let v = endpoint_to_value(ep);
        prop_assert_eq!(endpoint_from_value(&v).unwrap(), ep);
    }
}

// -- the one-pass decoder against the tree decoder ------------------------

/// The decoder `Packet::from_frame` replaced, kept as the oracle: the
/// whole datagram decoded as one `Value` tree, then each field looked up
/// by name.
fn tree_decode(frame: &Bytes) -> Result<Packet, WireError> {
    tree_packet(&wire::unframe_bytes(frame)?, true)
}

fn tree_packet(v: &Value, top: bool) -> Result<Packet, WireError> {
    let span = v.get_u64("sp").unwrap_or(0);
    let lo = v.get_u64("lo").unwrap_or(0);
    let args = || v.get("args").cloned().unwrap_or(Value::Null);
    let endpoint = |name| endpoint_from_value(v.get(name).ok_or(WireError::MissingField(name))?);
    match v.get_str("t")? {
        "req" => Ok(Packet::Request(
            Request {
                call_id: v.get_u64("id")?,
                reply_to: endpoint("rt")?,
                object: v.get_str("obj")?.to_owned(),
                op: v.get_str("op")?.to_owned(),
                args: args(),
                span,
            },
            lo,
        )),
        "rep" => {
            let call_id = v.get_u64("id")?;
            let result = match v.get("ok") {
                Some(ok) => Ok(ok.clone()),
                None => Err(RemoteError {
                    code: ErrorCode::from_str_loose(v.get_str("err")?),
                    message: v.get_str("msg")?.to_owned(),
                    data: v.get("data").cloned().unwrap_or(Value::Null),
                }),
            };
            Ok(Packet::Reply(Reply {
                call_id,
                result,
                span,
            }))
        }
        "msg" => Ok(Packet::Oneway(Oneway {
            from: endpoint("from")?,
            op: v.get_str("op")?.to_owned(),
            args: args(),
            span,
        })),
        "bat" if top => Ok(Packet::Batch(Batch {
            items: v
                .get_list("items")?
                .iter()
                .map(|item| tree_packet(item, false))
                .collect::<Result<_, _>>()?,
        })),
        _ => Err(WireError::WrongKind {
            expected: "req|rep|msg|bat",
            actual: "unknown or nested envelope",
        }),
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
            if let (Value::Record(fields), true) = (&mut v, *lo != 0) {
                fields.push((WStr::from("lo"), Value::U64(*lo)));
            }
            v
        }
        Packet::Reply(r) => r.to_value(),
        Packet::Oneway(o) => o.to_value(),
        Packet::Batch(b) => Value::record([
            ("t", Value::str("bat")),
            ("items", Value::List(b.items.iter().map(to_value).collect())),
        ]),
    }
}

/// Every key an envelope or endpoint uses, and two it does not.
const KEYS: [&str; 18] = [
    "t", "id", "sp", "lo", "rt", "from", "obj", "op", "err", "msg", "args", "ok", "data", "items",
    "n", "p", "junk", "",
];

/// `levels` lists around a number: as `args` of a datagram it sits at
/// the depth limit for `levels == MAX_DEPTH - 1`, of a batch item for
/// `MAX_DEPTH - 3`.
fn nested(levels: usize) -> Value {
    (0..levels).fold(Value::U64(7), |v, _| Value::List(vec![v]))
}

/// A field value of some kind an envelope field has, or should not have.
fn arb_shape() -> BoxedStrategy<Value> {
    prop_oneof![
        prop_oneof![
            Just("req"),
            Just("rep"),
            Just("msg"),
            Just("bat"),
            Just("xyz")
        ]
        .prop_map(Value::str),
        prop_oneof![
            Just(u64::from(u32::MAX)),
            Just(u64::from(u32::MAX) + 1),
            any::<u64>(),
            0u64..4,
        ]
        .prop_map(Value::U64),
        arb_endpoint().prop_map(endpoint_to_value),
        arb_packet().prop_map(|p| to_value(&p)),
        Just(Value::record([
            ("t", Value::str("bat")),
            ("items", Value::List(vec![]))
        ])),
        (MAX_DEPTH - 4..=MAX_DEPTH).prop_map(nested),
        Just(Value::str(BAD_UTF8)),
        arb_value(),
        Just(Value::Null),
        any::<i64>().prop_map(Value::I64),
    ]
}

/// Applies one random edit to a record's fields: swap two, duplicate one
/// under a new value, drop one, change one's value, add a field from
/// [`KEYS`], or edit inside one's value.
fn mutate(fields: &mut Vec<(WStr, Value)>, rng: &mut TestRng, shape: &BoxedStrategy<Value>) {
    let pick = |rng: &mut TestRng, n: usize| rng.below(n.max(1) as u64) as usize;
    let at = pick(rng, fields.len());
    match (rng.below(6), fields.is_empty()) {
        (0, false) => {
            let other = pick(rng, fields.len());
            fields.swap(at, other);
        }
        (1, false) => {
            let dup = (fields[at].0.clone(), shape.generate(rng));
            let to = pick(rng, fields.len() + 1);
            fields.insert(to, dup);
        }
        (2, false) => drop(fields.remove(at)),
        (3, false) => fields[at].1 = shape.generate(rng),
        (5, false) => mutate_value(&mut fields[at].1, rng, shape),
        _ => {
            let key = KEYS[pick(rng, KEYS.len())];
            let to = pick(rng, fields.len() + 1);
            fields.insert(to, (WStr::from(key), shape.generate(rng)));
        }
    }
}

/// Edits inside a value: a record's fields, one item of a list or a new
/// item in it (a batch inside a batch, say).
fn mutate_value(v: &mut Value, rng: &mut TestRng, shape: &BoxedStrategy<Value>) {
    match v {
        Value::Record(fields) => mutate(fields, rng, shape),
        Value::List(items) if !items.is_empty() && rng.below(2) == 0 => {
            let at = rng.below(items.len() as u64) as usize;
            mutate_value(&mut items[at], rng, shape);
        }
        Value::List(items) => {
            let at = rng.below(items.len() as u64 + 1) as usize;
            items.insert(at, shape.generate(rng));
        }
        other => *other = shape.generate(rng),
    }
}

/// A string [`arb_field_soup`] turns into invalid UTF-8 once encoded
/// (a `Value` cannot hold one), so that a field either decoder skips is
/// still checked.
const BAD_UTF8: &str = "~bad-utf8~";

/// A framed envelope record after zero to five random edits: fields
/// reordered (`items` before `t` included), duplicated, missing, of the
/// wrong kind, junk, invalid UTF-8, nested batches, args at and past the
/// depth limit, and the same inside endpoints and batch items.
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
/// after a record tag, or a real envelope with bytes overwritten or cut.
fn arb_hostile_frame() -> BoxedStrategy<Bytes> {
    let random = proptest::collection::vec(any::<u8>(), 0..200);
    let envelope = arb_packet().prop_map(|p| to_value(&p));
    BoxedStrategy::new(move |rng| {
        let payload = match rng.below(3) {
            0 => random.generate(rng),
            1 => {
                let mut b = wire::encode(&Value::record([("t", Value::Null)]))[..1].to_vec();
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
    // Args of a datagram sit one level down, args of a batch item three.
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
    assert!(batched(MAX_DEPTH - 3));
    assert!(!batched(MAX_DEPTH - 2));
}

#[test]
fn reordered_and_duplicated_fields_decode_first_wins() {
    // `items` before `t`, and a second `t` and `id` that must not count.
    let item = Value::record([
        ("id", Value::U64(5)),
        ("ok", Value::str("v")),
        ("id", Value::U64(6)),
        ("t", Value::str("rep")),
    ]);
    let frame = wire::frame(&Value::record([
        ("items", Value::List(vec![item])),
        ("sp", Value::str("not a span")),
        ("t", Value::str("bat")),
        ("t", Value::str("req")),
    ]));
    let want = Packet::Batch(Batch {
        items: vec![Packet::Reply(Reply {
            call_id: 5,
            result: Ok(Value::str("v")),
            span: 0,
        })],
    });
    assert_eq!(agree(&frame).unwrap(), Some(want));
}
