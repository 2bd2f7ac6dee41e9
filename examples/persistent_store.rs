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

    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let ledger = KvClient::bind(&mut rt, cx, "ledger").await.expect("bind");

        for (k, v) in [("mon", "12"), ("tue", "7"), ("wed", "31"), ("thu", "4")] {
            ledger.put(&mut rt, cx, k, v).await.expect("put");
        }
        println!("client: wrote 4 entries (checkpoint covers the first 3)");

        // ── The service crashes. ────────────────────────────────────
        assert!(cx.with(|cx| cx.kill(incarnation_one)));
        match ledger.get(&mut rt, cx, "mon").await {
            Err(RpcError::Timeout { .. }) => println!("client: service is down (call timed out)"),
            other => panic!("expected an outage, got {other:?}"),
        }

        // ── Operations restarts it on the same node from its disk. ──
        let restarted = ServiceBuilder::new("ledger")
            .factories(all_factories())
            .recovered(CheckpointPolicy::every(store.clone(), 3))
            .object(|| Box::new(KvStore::new()));
        cx.with(|cx| restarted.spawn_from(cx, NodeId(1), ns));
        cx.sleep(Duration::from_millis(10)).await.unwrap();

        // Same proxy keeps working: it re-resolves through the name
        // service on its next call.
        let mon = ledger
            .get(&mut rt, cx, "mon")
            .await
            .expect("get after recovery");
        let thu = ledger
            .get(&mut rt, cx, "thu")
            .await
            .expect("get after recovery");
        println!(
            "client: after recovery mon={:?} (checkpointed), thu={:?} (lost with the crash)",
            mon, thu
        );
        assert_eq!(mon.as_deref(), Some("12"));
        assert_eq!(thu, None);
        println!(
            "client: proxy rebinds performed transparently: {}",
            rt.stats(ledger.handle()).rebinds
        );
    });

    sim.run();
    println!("persistent_store OK");
}
