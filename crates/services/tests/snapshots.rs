//! Every service object restores from its own snapshot and refuses
//! anything else: `from_snapshot(snapshot(x))` answers any op sequence
//! as `x` does, and a shape `snapshot` never produces is `BadArgs` —
//! never a silent reset. A recovering service whose stored checkpoint
//! cannot be restored does not start cold either: it panics, naming
//! itself.

use std::panic::{catch_unwind, AssertUnwindSafe};

use naming::spawn_name_server;
use proptest::prelude::*;
use proxy_core::{CheckpointPolicy, ServiceBuilder, ServiceObject, StableStore};
use rpc::{ErrorCode, RemoteError};
use services::blob::BlobStore;
use services::counter::Counter;
use services::directory::Directory;
use services::file::BlockFile;
use services::kv::KvStore;
use services::queue::PrintQueue;
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

type Op = (&'static str, Value);
type Restore = fn(&Value) -> Result<Box<dyn ServiceObject>, RemoteError>;

/// Runs `f` inside a one-process simulation: dispatch needs a `Ctx`.
fn in_process(f: impl FnOnce(&mut Ctx) + Send + 'static) {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    sim.spawn("t", NodeId(0), f);
    sim.run();
}

/// Applies `before` to `x`, restores `y` from `x`'s snapshot, and checks
/// that `after` gets the same answers from both, and that they end in
/// the same state.
fn roundtrip(mut x: Box<dyn ServiceObject>, restore: Restore, before: Vec<Op>, after: Vec<Op>) {
    in_process(move |ctx| {
        for (op, args) in &before {
            let _ = x.dispatch(ctx, op, args);
        }
        let mut y = restore(&x.snapshot().unwrap()).unwrap();
        for (op, args) in &after {
            let (want, got) = (x.dispatch(ctx, op, args), y.dispatch(ctx, op, args));
            assert_eq!(got, want, "{op} {args:?}");
        }
        assert_eq!(y.snapshot().unwrap(), x.snapshot().unwrap());
    });
}

fn refused(restore: Restore, snapshot: Value) {
    match restore(&snapshot) {
        Err(e) => assert_eq!(e.code, ErrorCode::BadArgs, "{snapshot:?}: {e}"),
        Ok(_) => panic!("{snapshot:?} was restored"),
    }
}

fn key() -> BoxedStrategy<&'static str> {
    prop_oneof![Just("a"), Just("b"), Just("c")].boxed()
}

fn ops(op: impl Strategy<Value = Op> + 'static) -> BoxedStrategy<Vec<Op>> {
    proptest::collection::vec(op, 0..12).boxed()
}

fn counter_op() -> BoxedStrategy<Op> {
    prop_oneof![
        Just(("get", Value::Null)),
        Just(("inc", Value::Null)),
        (0u64..100).prop_map(|n| ("add", Value::record([("n", Value::U64(n))]))),
        Just(("reset", Value::Null)),
    ]
    .boxed()
}

fn queue_op() -> BoxedStrategy<Op> {
    prop_oneof![
        key().prop_map(|doc| ("submit", Value::record([("doc", Value::str(doc))]))),
        Just(("take", Value::Null)),
        Just(("peek", Value::Null)),
        Just(("len", Value::Null)),
    ]
    .boxed()
}

fn kv_op() -> BoxedStrategy<Op> {
    let keyed =
        |op: &'static str| key().prop_map(move |k| (op, Value::record([("key", Value::str(k))])));
    prop_oneof![
        keyed("get"),
        keyed("contains"),
        keyed("del"),
        (key(), any::<u64>()).prop_map(|(k, v)| {
            let args = Value::record([("key", Value::str(k)), ("value", Value::U64(v))]);
            ("put", args)
        }),
        Just(("len", Value::Null)),
        Just(("keys", Value::Null)),
        Just(("clear", Value::Null)),
    ]
    .boxed()
}

fn file_op() -> BoxedStrategy<Op> {
    let addr = (key(), 0u64..3).prop_map(|(f, i)| Value::str(format!("{f}:{i}")));
    prop_oneof![
        addr.clone()
            .prop_map(|a| ("read", Value::record([("addr", a)]))),
        (addr, any::<u8>()).prop_map(|(a, b)| {
            let args = Value::record([("addr", a), ("data", Value::blob(vec![b; 3]))]);
            ("write", args)
        }),
        Just(("blocks", Value::Null)),
        key().prop_map(|f| ("truncate", Value::record([("file", Value::str(f))]))),
    ]
    .boxed()
}

fn directory_op() -> BoxedStrategy<Op> {
    let path = key().prop_map(|k| Value::str(format!("/{k}")));
    prop_oneof![
        path.clone()
            .prop_map(|p| ("lookup", Value::record([("path", p)]))),
        (path.clone(), key()).prop_map(|(p, v)| {
            (
                "insert",
                Value::record([("path", p), ("value", Value::str(v))]),
            )
        }),
        path.prop_map(|p| ("remove", Value::record([("path", p)]))),
        Just(("list", Value::Null)),
        Just(("len", Value::Null)),
    ]
    .boxed()
}

/// Whole uploads only: a partial upload does not survive a snapshot, by
/// design, so the property is about what a snapshot carries.
fn blob_op() -> BoxedStrategy<Op> {
    let keyed =
        |op: &'static str| key().prop_map(move |k| (op, Value::record([("key", Value::str(k))])));
    prop_oneof![
        (key(), any::<u8>()).prop_map(|(k, b)| {
            let args = Value::record([
                ("key", Value::str(k)),
                ("seq", Value::U64(0)),
                ("total", Value::U64(1)),
                ("len", Value::U64(2)),
                ("crc", Value::U64(u64::from(b))),
                ("data", Value::blob(vec![b; 2])),
            ]);
            ("put_chunk", args)
        }),
        key().prop_map(|k| {
            let args = Value::record([("key", Value::str(k)), ("seq", Value::U64(0))]);
            ("get_chunk", args)
        }),
        keyed("stat"),
        keyed("del"),
        Just(("len", Value::Null)),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counter_restores_from_its_snapshot(before in ops(counter_op()), after in ops(counter_op())) {
        roundtrip(Box::new(Counter::new()), Counter::from_snapshot, before, after);
    }

    #[test]
    fn queue_restores_from_its_snapshot(before in ops(queue_op()), after in ops(queue_op())) {
        roundtrip(Box::new(PrintQueue::new()), PrintQueue::from_snapshot, before, after);
    }

    #[test]
    fn kv_restores_from_its_snapshot(before in ops(kv_op()), after in ops(kv_op())) {
        roundtrip(Box::new(KvStore::new()), KvStore::from_snapshot, before, after);
    }

    #[test]
    fn file_restores_from_its_snapshot(before in ops(file_op()), after in ops(file_op())) {
        roundtrip(Box::new(BlockFile::new()), BlockFile::from_snapshot, before, after);
    }

    #[test]
    fn directory_restores_from_its_snapshot(
        before in ops(directory_op()),
        after in ops(directory_op()),
    ) {
        roundtrip(Box::new(Directory::new()), Directory::from_snapshot, before, after);
    }

    #[test]
    fn blob_restores_from_its_snapshot(before in ops(blob_op()), after in ops(blob_op())) {
        roundtrip(Box::new(BlobStore::new()), BlobStore::from_snapshot, before, after);
    }
}

#[test]
fn counter_refuses_a_malformed_snapshot() {
    refused(Counter::from_snapshot, Value::str("7"));
}

#[test]
fn queue_refuses_a_malformed_snapshot() {
    // A queue that forgot its next id would hand out ids again.
    refused(
        PrintQueue::from_snapshot,
        Value::record([("jobs", Value::list([]))]),
    );
}

#[test]
fn kv_refuses_a_malformed_snapshot() {
    refused(KvStore::from_snapshot, Value::U64(1));
}

#[test]
fn file_refuses_a_malformed_snapshot() {
    refused(
        BlockFile::from_snapshot,
        Value::record([("doc:0", Value::str("not a block"))]),
    );
}

#[test]
fn directory_refuses_a_malformed_snapshot() {
    refused(
        Directory::from_snapshot,
        Value::record([("/a", Value::record([("v", Value::str("x"))]))]),
    );
}

#[test]
fn blob_refuses_a_malformed_snapshot() {
    let entry = Value::record([
        ("len", Value::U64(2)),
        ("crc", Value::U64(1 << 40)),
        ("chunks", Value::list([Value::blob(vec![0u8; 2])])),
    ]);
    refused(BlobStore::from_snapshot, Value::record([("k", entry)]));
}

#[test]
fn a_garbage_checkpoint_stops_recovery_naming_the_service() {
    // Garbage, and a good object beside reply windows that do not decode.
    let windows = Value::blob(wire::encode(&Value::list([Value::U64(7)])));
    for garbage in [Value::str("garbage"), Value::list([Value::U64(3), windows])] {
        let store = StableStore::new();
        store.save(NodeId(1), "ctr", garbage);
        let mut sim = Simulation::new(NetworkConfig::lan(), 3);
        let ns = spawn_name_server(&sim, NodeId(0));
        ServiceBuilder::new("ctr")
            .factories(services::all_factories())
            .recovered(CheckpointPolicy::every(store, 1))
            .object(|| Box::new(Counter::new()))
            .spawn(&sim, NodeId(1), ns);
        let panic = catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.contains("svc-ctr: service `ctr` cannot restore its checkpoint"),
            "{msg}"
        );
    }
}
