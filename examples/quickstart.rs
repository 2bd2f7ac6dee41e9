//! Quickstart: one service, one client, through the proxy principle.
//!
//! Run with: `cargo run --example quickstart`
//!
//! The service publishes a *caching* proxy spec; the client just binds
//! and calls. Watch the stats: repeated reads never touch the network.

use proxide::prelude::*;
use proxide::services::kv::{KvClient, KvStore};

fn main() {
    // A deterministic world: LAN latencies, seed 42.
    let mut sim = Simulation::new(NetworkConfig::lan(), 42);

    // The name service bootstraps binding (well-known endpoint).
    let ns = spawn_name_server(&sim, NodeId(0));

    // The SERVICE decides its clients run caching proxies. Changing this
    // one line to `ProxySpec::Stub` changes the distribution strategy of
    // every client — without touching any client code.
    ServiceBuilder::new("settings")
        .spec(ProxySpec::Caching(CachingParams::default()))
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);

    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let kv = KvClient::bind(&mut rt, cx, "settings").await.expect("bind");

        kv.put(&mut rt, cx, "theme", "dark").await.expect("put");
        kv.put(&mut rt, cx, "lang", "en").await.expect("put");

        // Read each key a few times; only the first read of each goes
        // over the network.
        for _ in 0..5 {
            let theme = kv.get(&mut rt, cx, "theme").await.expect("get");
            let lang = kv.get(&mut rt, cx, "lang").await.expect("get");
            assert_eq!(theme.as_deref(), Some("dark"));
            assert_eq!(lang.as_deref(), Some("en"));
        }

        let stats = rt.stats(kv.handle());
        println!("invocations : {}", stats.invocations);
        println!("remote calls: {}", stats.remote_calls);
        println!("cache hits  : {}", stats.local_hits);
        assert_eq!(stats.remote_calls, 4, "2 puts + 2 fills");
        assert_eq!(stats.local_hits, 8, "8 of 10 reads from the cache");
    });

    let report = sim.run();
    println!(
        "simulated time: {} | messages: {}",
        report.end_time, report.metrics.msgs_sent
    );
    println!("quickstart OK");
}
