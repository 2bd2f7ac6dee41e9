//! A mobile document: migration as an invocation optimization.
//!
//! Run with: `cargo run --example mobile_document`
//!
//! A shared counter ("document edit count") starts on a server node. An
//! editor hammers it; the service's *migratory* proxy checks the object
//! out into the editor's context, turning remote calls into local ones.
//! When a reviewer elsewhere needs it, the service recalls it — all
//! behind the same interface.

use std::time::Duration;

use proxide::prelude::*;
use proxide::services::counter::{Counter, CounterClient};

fn main() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let ns = spawn_name_server(&sim, NodeId(0));

    let factories = proxide::services::all_factories();

    // The service chooses a migratory proxy: any client that makes 10
    // calls takes custody of the object.
    ServiceBuilder::new("edit-count")
        .spec(ProxySpec::Migratory { threshold: 10 })
        .factories(factories.clone())
        .object(|| Box::new(Counter::new()))
        .spawn(&sim, NodeId(1), ns);

    let f_editor = factories.clone();
    sim.spawn_async("editor", NodeId(2), move |cx| async move {
        let now = || cx.with(|cx| cx.now());
        let mut rt = SessionCore::new(ns).with_factories(f_editor);
        let doc = CounterClient::bind(&mut rt, cx, "edit-count")
            .await
            .expect("bind");

        let t0 = now();
        for _ in 0..200 {
            doc.inc(&mut rt, cx).await.expect("inc");
        }
        let elapsed = now() - t0;
        let s = rt.stats(doc.handle());
        println!(
            "editor: 200 increments in {:.2}ms — {} remote, {} local, {} migration(s)",
            elapsed.as_secs_f64() * 1e3,
            s.remote_calls,
            s.local_hits,
            s.migrations
        );
        assert_eq!(s.migrations, 1);
        assert!(s.local_hits >= 190, "post-checkout calls must be local");

        // Stay responsive so the recall (for the reviewer) is honoured.
        for _ in 0..30 {
            cx.sleep(Duration::from_millis(2)).await.unwrap();
            rt.tend(cx).await;
        }
        println!("editor: checkins = {}", rt.stats(doc.handle()).checkins);
    });

    sim.spawn_async("reviewer", NodeId(3), move |cx| async move {
        cx.sleep(Duration::from_millis(25)).await.unwrap();
        let mut rt = SessionCore::new(ns).with_factories(factories);
        let doc = CounterClient::bind(&mut rt, cx, "edit-count")
            .await
            .expect("bind");
        // The object is checked out to the editor; the service recalls
        // it on our behalf. Retry until the transfer completes.
        for attempt in 0..100 {
            match doc.get(&mut rt, cx).await {
                Ok(v) => {
                    println!("reviewer: edit count = {v} (after {attempt} retries)");
                    assert_eq!(v, 200);
                    return;
                }
                Err(RpcError::Remote(ref e)) if e.code == ErrorCode::Unavailable => {
                    cx.sleep(Duration::from_millis(2)).await.unwrap();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        panic!("object was never recalled");
    });

    sim.run();
    println!("mobile_document OK");
}
