//! Property-based tests of proxy-core invariants:
//!
//! * wire roundtrips of every binding-metadata type,
//! * interface conformance laws,
//! * a model check: a caching proxy driven by an arbitrary op sequence
//!   always agrees with an in-memory oracle (single writer,
//!   invalidation coherence),
//! * and its many-client form: several caching clients, each the only
//!   writer of its own keys, all agree with the oracle once the network
//!   is quiet.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use naming::spawn_name_server;
use proptest::prelude::*;
use proxy_core::{
    AdaptiveParams, CachingParams, Coherence, InterfaceDesc, OpDesc, OpKind, ProxySpec, ReadTarget,
    ServiceBuilder, ServiceObject, SessionCore,
};
use rpc::{ErrorCode, RemoteError};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

fn arb_coherence() -> impl Strategy<Value = Coherence> {
    prop_oneof![
        (1u64..100_000).prop_map(|us| Coherence::Lease(Duration::from_micros(us))),
        Just(Coherence::Invalidate),
        (1u64..100_000).prop_map(|us| Coherence::LeaseAndInvalidate(Duration::from_micros(us))),
    ]
}

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (0u32..1000, 0u32..70000).prop_map(|(n, p)| Endpoint::new(NodeId(n), PortId(p)))
}

fn arb_spec() -> impl Strategy<Value = ProxySpec> {
    prop_oneof![
        Just(ProxySpec::Stub),
        (arb_coherence(), 1usize..10_000).prop_map(|(coherence, capacity)| {
            ProxySpec::Caching(CachingParams {
                coherence,
                capacity,
            })
        }),
        (1u64..1000).prop_map(|threshold| ProxySpec::Migratory { threshold }),
        (
            arb_endpoint(),
            proptest::collection::vec(arb_endpoint(), 1..5),
            any::<bool>()
        )
            .prop_map(|(primary, replicas, nearest)| ProxySpec::Replicated {
                primary,
                replicas,
                read_target: if nearest {
                    ReadTarget::Nearest
                } else {
                    ReadTarget::Primary
                },
            }),
        (2usize..200, 0.5f64..1.0, 0.0f64..0.5).prop_map(|(window, hi, lo)| {
            ProxySpec::Adaptive(AdaptiveParams {
                window,
                enable_at: hi,
                disable_at: lo,
                caching: CachingParams::default(),
            })
        }),
        ("[a-z]{1,10}", proptest::collection::vec(any::<u64>(), 0..3)).prop_map(|(kind, ns)| {
            ProxySpec::Custom {
                kind,
                params: Value::list(ns.into_iter().map(Value::U64)),
            }
        }),
    ]
}

fn arb_iface() -> impl Strategy<Value = InterfaceDesc> {
    (
        "[a-z.]{1,16}",
        proptest::collection::btree_map(
            "[a-z_]{1,10}".prop_map(String::from),
            (
                any::<bool>(),
                proptest::option::of("[a-z]{1,6}"),
                any::<bool>(),
            ),
            0..8,
        ),
    )
        .prop_map(|(name, ops)| {
            InterfaceDesc::new(
                name,
                ops.into_iter().map(|(op, (is_read, key, idem))| OpDesc {
                    name: op,
                    kind: if is_read { OpKind::Read } else { OpKind::Write },
                    key_field: key,
                    idempotent: idem,
                }),
            )
        })
}

proptest! {
    #[test]
    fn proxyspec_roundtrips(spec in arb_spec()) {
        let v = spec.to_value();
        prop_assert_eq!(ProxySpec::from_value(&v).unwrap(), spec);
    }

    #[test]
    fn iface_roundtrips(iface in arb_iface()) {
        let v = iface.to_value();
        prop_assert_eq!(InterfaceDesc::from_value(&v).unwrap(), iface);
    }

    #[test]
    fn conformance_is_reflexive_and_monotone(iface in arb_iface()) {
        prop_assert!(iface.conforms_to(&iface), "reflexivity");
        // Dropping any operation yields a supertype the original conforms to.
        for drop_idx in 0..iface.ops.len() {
            let mut smaller = iface.clone();
            smaller.ops.remove(drop_idx);
            prop_assert!(iface.conforms_to(&smaller));
        }
        // The empty interface is the top type.
        prop_assert!(iface.conforms_to(&InterfaceDesc::new("top", [])));
    }

    #[test]
    fn tags_are_deterministic(iface in arb_iface(), key in "[a-z0-9]{0,8}") {
        let args = Value::record([("key", Value::str(key))]);
        for op in &iface.ops {
            prop_assert_eq!(op.tag(&args), op.tag(&args.clone()));
        }
    }
}

/// One step of the model-checked workload.
#[derive(Debug, Clone)]
enum Step {
    Put(u8, u8),
    Get(u8),
    Del(u8),
    Sleep(u8),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    arb_steps_over(8, 1, 40)
}

/// Up to `len` steps over keys `0..keys`, reads `gets` times as likely
/// as each other kind.
fn arb_steps_over(keys: u8, gets: u32, len: usize) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            1 => (any::<u8>(), any::<u8>()).prop_map(move |(k, v)| Step::Put(k % keys, v)),
            gets => any::<u8>().prop_map(move |k| Step::Get(k % keys)),
            1 => any::<u8>().prop_map(move |k| Step::Del(k % keys)),
            1 => any::<u8>().prop_map(Step::Sleep),
        ],
        1..len,
    )
}

/// A KV object compatible with the oracle below.
struct ModelKv(BTreeMap<String, String>);

impl ServiceObject for ModelKv {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "model-kv",
            [
                OpDesc::read("get", "key"),
                OpDesc::write("put", "key"),
                OpDesc::write("del", "key"),
            ],
        )
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        let key = args
            .get_str("key")
            .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
        match op {
            "get" => Ok(self
                .0
                .get(key)
                .map(|v| Value::str(v.clone()))
                .unwrap_or(Value::Null)),
            "put" => {
                let v = args
                    .get_str("value")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.0.insert(key.to_owned(), v.to_owned());
                Ok(Value::Null)
            }
            "del" => {
                self.0.remove(key);
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

/// Clients of the shared-store model.
const CLIENTS: u8 = 3;
/// Cache capacity of the single-client runs: deliberately tiny, so
/// evictions happen mid-run.
const TINY: usize = 4;
/// Keys of the shared-store model: more than four times the largest
/// cache, so every client outgrows the directory's cap.
const SHARED_KEYS: u8 = 4 * CLIENTS;
/// Every script is over (80 steps of at most 20 ms each) and every lease
/// has run out by then.
const QUIET_AT: Duration = Duration::from_secs(3);

/// Runs one script per client against one caching-proxied store, all at
/// once, on a loss-free network whose jitter reorders datagrams; key `k`
/// is written only by client `k % clients`. A client's reads of its own
/// keys always agree with what it wrote (with one client that is every
/// read: the proxy is indistinguishable from an in-memory oracle); while
/// the scripts run it may lawfully read another's key a little late;
/// once every write has been made and every invalidation delivered, each
/// client's view of every key is the oracle's. With a capacity small
/// enough the directory's per-subscriber cap (four times it) overflows
/// mid-run and whole-cache invalidations are on the path.
fn run_model(
    scripts: Vec<Vec<Step>>,
    coherence: Coherence,
    capacity: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let clients = scripts.len();
    let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.5), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence,
            capacity,
        }))
        .object(|| Box::new(ModelKv(BTreeMap::new())))
        .spawn(&sim, NodeId(1), ns);
    // The store at quiescence: each key's last write in its owner's script.
    let mut oracle: BTreeMap<String, String> = BTreeMap::new();
    for script in &scripts {
        for step in script {
            match step {
                Step::Put(k, v) => drop(oracle.insert(format!("k{k}"), format!("v{v}"))),
                Step::Del(k) => drop(oracle.remove(&format!("k{k}"))),
                Step::Get(_) | Step::Sleep(_) => {}
            }
        }
    }
    let failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    for (c, script) in scripts.into_iter().enumerate() {
        let (oracle, failure) = (oracle.clone(), Arc::clone(&failure));
        sim.spawn(format!("client{c}"), NodeId(2 + c as u32), move |ctx| {
            let mut rt = SessionCore::new(ns);
            let kv = rt.bind(ctx, "kv").unwrap();
            let key_args = |k: &str| Value::record([("key", Value::str(k))]);
            let shown = |v: Option<&String>| v.map_or(Value::Null, |v| Value::str(v.clone()));
            let fail = |msg: String| {
                failure.lock().unwrap().get_or_insert(msg);
            };
            let mut mine: BTreeMap<String, String> = BTreeMap::new();
            let mut read: Vec<u8> = Vec::new();
            for (i, step) in script.iter().enumerate() {
                match step {
                    Step::Put(k, v) => {
                        let (k, v) = (format!("k{k}"), format!("v{v}"));
                        let args =
                            Value::record([("key", Value::str(&*k)), ("value", Value::str(&*v))]);
                        rt.invoke(ctx, kv, "put", args).unwrap();
                        mine.insert(k, v);
                    }
                    Step::Del(k) => {
                        let k = format!("k{k}");
                        rt.invoke(ctx, kv, "del", key_args(&k)).unwrap();
                        mine.remove(&k);
                    }
                    Step::Get(k) => {
                        read.push(*k);
                        let own = usize::from(*k) % clients == c;
                        let k = format!("k{k}");
                        let got = rt.invoke(ctx, kv, "get", key_args(&k)).unwrap();
                        if own && got != shown(mine.get(&k)) {
                            fail(format!(
                                "client {c} step {i}: read {got:?} of its own {k}, wrote {:?}",
                                mine.get(&k)
                            ));
                        }
                    }
                    Step::Sleep(ms) => {
                        let _ = ctx.sleep(Duration::from_millis(*ms as u64 % 20));
                    }
                }
            }
            let quiet = simnet::SimTime::ZERO + QUIET_AT;
            ctx.sleep(quiet.saturating_since(ctx.now())).unwrap();
            // Most recently read first: those are the entries still
            // cached, and the sweep's own misses would evict them.
            let mut sweep: Vec<String> = Vec::new();
            for k in read.into_iter().rev().chain(0..SHARED_KEYS) {
                let k = format!("k{k}");
                if !sweep.contains(&k) {
                    sweep.push(k);
                }
            }
            for k in sweep {
                let got = rt.invoke(ctx, kv, "get", key_args(&k)).unwrap();
                if got != shown(oracle.get(&k)) {
                    fail(format!(
                        "client {c} at quiescence: get({k}) = {got:?}, oracle says {:?}",
                        oracle.get(&k)
                    ));
                }
            }
        });
    }
    sim.run();
    if let Some(msg) = failure.lock().unwrap().take() {
        return Err(TestCaseError::fail(format!("seed {seed}: {msg}")));
    }
    Ok(())
}

/// One script per client; its writes are moved onto the client's own keys.
fn arb_scripts() -> impl Strategy<Value = Vec<Vec<Step>>> {
    proptest::collection::vec(arb_steps_over(SHARED_KEYS, 4, 80), CLIENTS as usize).prop_map(
        |scripts| {
            let own = |k: u8, c: usize| k / CLIENTS * CLIENTS + c as u8;
            scripts
                .into_iter()
                .enumerate()
                .map(|(c, script)| {
                    script
                        .into_iter()
                        .map(|step| match step {
                            Step::Put(k, v) => Step::Put(own(k, c), v),
                            Step::Del(k) => Step::Del(own(k, c)),
                            other => other,
                        })
                        .collect()
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn caching_clients_agree_with_the_oracle_at_quiescence(
        scripts in arb_scripts(),
        capacity in 1usize..3,
        seed in 0u64..1000,
    ) {
        run_model(scripts, Coherence::Invalidate, capacity, seed)?;
    }

    #[test]
    fn caching_proxy_matches_oracle_invalidate(steps in arb_steps(), seed in 0u64..1000) {
        run_model(vec![steps], Coherence::Invalidate, TINY, seed)?;
    }

    #[test]
    fn caching_proxy_matches_oracle_lease(steps in arb_steps(), seed in 0u64..1000) {
        run_model(vec![steps], Coherence::Lease(Duration::from_millis(5)), TINY, seed)?;
    }

    #[test]
    fn caching_proxy_matches_oracle_combined(steps in arb_steps(), seed in 0u64..1000) {
        let lease = Coherence::LeaseAndInvalidate(Duration::from_millis(3));
        run_model(vec![steps], lease, TINY, seed)?;
    }
}
