//! Property-based tests of migration invariants: for any sequence of
//! migrations interleaved with client operations, state is never lost,
//! operations execute exactly once, and the client always reconverges
//! on the object's true home.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use migration::{request_migration, spawn_migratable, ForwardMode, MigratableConfig};
use proptest::prelude::*;
use proxy_core::{FactoryRegistry, InterfaceDesc, OpDesc, ServiceObject, SessionCore};
use rpc::{ErrorCode, RemoteError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

struct Counter(u64);

impl ServiceObject for Counter {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "counter",
            [OpDesc::read_whole("get"), OpDesc::write_whole("inc")],
        )
    }
    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, _args: &Value) -> Result<Value, RemoteError> {
        match op {
            "get" => Ok(Value::U64(self.0)),
            "inc" => {
                self.0 += 1;
                Ok(Value::U64(self.0))
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::U64(self.0))
    }
}

fn factories() -> FactoryRegistry {
    FactoryRegistry::new().register("counter", |v| {
        Ok(Box::new(Counter(v.as_u64().unwrap_or(0))))
    })
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Inc,
    Get,
    Migrate(u8),
    Pause(u8),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(Step::Inc),
            3 => Just(Step::Get),
            1 => (0u8..6).prop_map(Step::Migrate),
            1 => (1u8..10).prop_map(Step::Pause),
        ],
        1..25,
    )
}

fn run_schedule(steps: Vec<Step>, mode: ForwardMode, seed: u64) -> Result<(), TestCaseError> {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    let home = spawn_migratable(
        &sim,
        NodeId(1),
        ns,
        MigratableConfig::new("ctr").with_forward_mode(mode),
        factories(),
        || Box::new(Counter(0)),
    );
    let failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let f2 = Arc::clone(&failure);
    sim.spawn_async("driver", NodeId(40), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let ctr = rt.attach(cx, "ctr").await.unwrap();
        let mut expected = 0u64;
        let mut host = home;
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Inc => {
                    expected += 1;
                    let v = rt
                        .call(cx, ctr, "inc", Value::Null)
                        .await
                        .unwrap()
                        .as_u64()
                        .unwrap();
                    if v != expected {
                        *f2.lock().unwrap() = Some(format!(
                            "step {i}: inc returned {v}, expected {expected} — \
                             a migration lost or duplicated an increment"
                        ));
                        return;
                    }
                }
                Step::Get => {
                    let v = rt
                        .call(cx, ctr, "get", Value::Null)
                        .await
                        .unwrap()
                        .as_u64()
                        .unwrap();
                    if v != expected {
                        *f2.lock().unwrap() =
                            Some(format!("step {i}: get returned {v}, expected {expected}"));
                        return;
                    }
                }
                Step::Migrate(node) => {
                    // Target nodes 10..16; migrating to the current node
                    // is legal (object moves to a sibling process).
                    host = request_migration(cx, host, NodeId(10 + *node as u32))
                        .await
                        .unwrap();
                }
                Step::Pause(ms) => {
                    let _ = cx.sleep(Duration::from_millis(*ms as u64)).await;
                }
            }
        }
    });
    sim.run();
    if let Some(msg) = failure.lock().unwrap().take() {
        return Err(TestCaseError::fail(msg));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn state_survives_arbitrary_migration_schedules_nexthop(
        steps in arb_steps(), seed in 0u64..10_000
    ) {
        run_schedule(steps, ForwardMode::NextHop, seed)?;
    }

    #[test]
    fn state_survives_arbitrary_migration_schedules_resolve(
        steps in arb_steps(), seed in 0u64..10_000
    ) {
        run_schedule(steps, ForwardMode::Resolve, seed)?;
    }
}
