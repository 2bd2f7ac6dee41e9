//! Crash and recovery: a persistent service behind an unchanging proxy.
//!
//! Run with: `cargo run --example persistent_store`
//!
//! A key-value service checkpoints to its node's stable storage every
//! few writes. We kill it mid-session, restart it from the checkpoint,
//! and the client — same proxy handle, no special code — carries on,
//! losing only the writes since the last checkpoint.

use std::time::Duration;

use proxide::prelude::*;
use proxide::proxy_core::{CheckpointPolicy, StableStore};
use proxide::services::all_factories;
use proxide::services::kv::{KvClient, KvStore};

fn main() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 99);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = StableStore::new();

    // A kv service that checkpoints after every 3 writes.
    let incarnation_one = ServiceBuilder::new("ledger")
        .factories(all_factories())
        .recovered(CheckpointPolicy::every(store.clone(), 3))
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);

    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut session = Session::new(&mut rt, ctx);
        let ledger = KvClient::bind(&mut session, "ledger").expect("bind");

        for (k, v) in [("mon", "12"), ("tue", "7"), ("wed", "31"), ("thu", "4")] {
            ledger.put(&mut session, k, v).expect("put");
        }
        println!("client: wrote 4 entries (checkpoint covers the first 3)");

        // ── The service crashes. ────────────────────────────────────
        assert!(session.ctx().kill(incarnation_one));
        match ledger.get(&mut session, "mon") {
            Err(RpcError::Timeout { .. }) => println!("client: service is down (call timed out)"),
            other => panic!("expected an outage, got {other:?}"),
        }

        // ── Operations restarts it on the same node from its disk. ──
        ServiceBuilder::new("ledger")
            .factories(all_factories())
            .recovered(CheckpointPolicy::every(store.clone(), 3))
            .object(|| Box::new(KvStore::new()))
            .spawn_from(session.ctx(), NodeId(1), ns);
        session.ctx().sleep(Duration::from_millis(10)).unwrap();

        // Same proxy keeps working: it re-resolves through the name
        // service on its next call.
        let mon = ledger.get(&mut session, "mon").expect("get after recovery");
        let thu = ledger.get(&mut session, "thu").expect("get after recovery");
        println!(
            "client: after recovery mon={:?} (checkpointed), thu={:?} (lost with the crash)",
            mon, thu
        );
        assert_eq!(mon.as_deref(), Some("12"));
        assert_eq!(thu, None);
        println!(
            "client: proxy rebinds performed transparently: {}",
            session.stats(ledger.handle()).rebinds
        );
    });

    sim.run();
    println!("persistent_store OK");
}
