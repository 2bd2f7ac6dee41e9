//! Property-based tests of the name service: an arbitrary sequence of
//! register/update/unregister/lookup commands behaves exactly like an
//! in-memory oracle map, and every successful register or update takes
//! the next generation: one per write, never skipping.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use naming::{is_not_found, spawn_name_server, NameClient};
use proptest::prelude::*;
use simnet::{Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

#[derive(Debug, Clone)]
enum Cmd {
    Register(u8, u8), // name, endpoint-port
    Update(u8, u8),   // name, endpoint-port
    Unregister(u8),
    Lookup(u8),
}

fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(n, p)| Cmd::Register(n % 6, p)),
            (any::<u8>(), any::<u8>()).prop_map(|(n, p)| Cmd::Update(n % 6, p)),
            any::<u8>().prop_map(|n| Cmd::Unregister(n % 6)),
            any::<u8>().prop_map(|n| Cmd::Lookup(n % 6)),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn name_server_matches_oracle(cmds in arb_cmds(), seed in 0u64..10_000) {
        let mut sim = Simulation::new(NetworkConfig::lan(), seed);
        let ns = spawn_name_server(&sim, NodeId(0));
        let failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let f2 = Arc::clone(&failure);
        sim.spawn_async("driver", NodeId(1), move |cx| async move {
            let mut nc = NameClient::new(ns);
            let mut oracle: HashMap<String, Endpoint> = HashMap::new();
            let mut last_gen = 0u64;
            for (i, cmd) in cmds.iter().enumerate() {
                match cmd {
                    Cmd::Register(n, p) => {
                        let name = format!("svc{n}");
                        let ep = Endpoint::new(NodeId(9), PortId(*p as u32));
                        let g = nc.register(cx, &name, ep, Value::Null).await.unwrap();
                        if g != last_gen + 1 {
                            *f2.lock().unwrap() =
                                Some(format!("step {i}: generation {g} after {last_gen}"));
                            return;
                        }
                        last_gen = g;
                        oracle.insert(name, ep);
                    }
                    Cmd::Update(n, p) => {
                        let name = format!("svc{n}");
                        let ep = Endpoint::new(NodeId(9), PortId(*p as u32));
                        match nc.update(cx, &name, ep, Value::Null).await {
                            Ok(g) => {
                                if !oracle.contains_key(&name) {
                                    *f2.lock().unwrap() = Some(format!(
                                        "step {i}: update of unknown `{name}` succeeded"
                                    ));
                                    return;
                                }
                                if g != last_gen + 1 {
                                    *f2.lock().unwrap() =
                                        Some(format!("step {i}: generation {g} after {last_gen}"));
                                    return;
                                }
                                last_gen = g;
                                oracle.insert(name, ep);
                            }
                            Err(e) if is_not_found(&e) => {
                                if oracle.contains_key(&name) {
                                    *f2.lock().unwrap() = Some(format!(
                                        "step {i}: update of known `{name}` failed"
                                    ));
                                    return;
                                }
                            }
                            Err(e) => {
                                *f2.lock().unwrap() = Some(format!("step {i}: {e}"));
                                return;
                            }
                        }
                    }
                    Cmd::Unregister(n) => {
                        let name = format!("svc{n}");
                        match nc.unregister(cx, &name).await {
                            Ok(()) => {
                                if oracle.remove(&name).is_none() {
                                    *f2.lock().unwrap() = Some(format!(
                                        "step {i}: unregister of unknown `{name}` succeeded"
                                    ));
                                    return;
                                }
                            }
                            Err(e) if is_not_found(&e) => {
                                if oracle.contains_key(&name) {
                                    *f2.lock().unwrap() = Some(format!(
                                        "step {i}: unregister of known `{name}` failed"
                                    ));
                                    return;
                                }
                            }
                            Err(e) => {
                                *f2.lock().unwrap() = Some(format!("step {i}: {e}"));
                                return;
                            }
                        }
                    }
                    Cmd::Lookup(n) => {
                        let name = format!("svc{n}");
                        match nc.lookup(cx, &name, None).await {
                            Ok(rec) => match oracle.get(&name) {
                                Some(ep) if *ep == rec.endpoint => {}
                                Some(ep) => {
                                    *f2.lock().unwrap() = Some(format!(
                                        "step {i}: `{name}` -> {} but oracle says {ep}",
                                        rec.endpoint
                                    ));
                                    return;
                                }
                                None => {
                                    *f2.lock().unwrap() = Some(format!(
                                        "step {i}: lookup of unknown `{name}` succeeded"
                                    ));
                                    return;
                                }
                            },
                            Err(e) if is_not_found(&e) => {
                                if oracle.contains_key(&name) {
                                    *f2.lock().unwrap() =
                                        Some(format!("step {i}: known `{name}` not found"));
                                    return;
                                }
                            }
                            Err(e) => {
                                *f2.lock().unwrap() = Some(format!("step {i}: {e}"));
                                return;
                            }
                        }
                    }
                }
            }
            // Terminal: `list` agrees with the oracle's key set.
            let mut names = nc.list(cx).await.unwrap();
            names.sort();
            let mut expected: Vec<String> = oracle.keys().cloned().collect();
            expected.sort();
            if names != expected {
                *f2.lock().unwrap() = Some(format!("final list {names:?} != {expected:?}"));
            }
        });
        sim.run();
        let failed = failure.lock().unwrap().take();
        if let Some(msg) = failed {
            return Err(TestCaseError::fail(msg));
        }
    }
}
