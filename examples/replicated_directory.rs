//! A replicated office directory: read-mostly data served by the
//! nearest replica.
//!
//! Run with: `cargo run --example replicated_directory`
//!
//! Three sites host replicas of a staff directory. Clients at each site
//! bind the same service name and get replica-reading proxies; reads are
//! answered locally-ish, writes go to the primary, and the version floor
//! guarantees everyone reads their own writes.

use std::time::Duration;

use proxide::prelude::*;
use proxide::replication::client_runtime;
use proxide::services::directory::{Directory, DirectoryClient};

fn main() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 11);
    let ns = spawn_name_server(&sim, NodeId(0));

    // Three sites: Paris (1), London (2), Oslo (3). Inter-site links are
    // slow; each client is fast to its own site only.
    {
        let mut net = sim.net();
        for (a, b) in [(1u32, 2u32), (1, 3), (2, 3)] {
            net.set_link_latency(NodeId(a), NodeId(b), Duration::from_millis(12));
        }
        // Clients 11/12/13 sit next to replicas 1/2/3.
        for (client, site) in [(11u32, 1u32), (12, 2), (13, 3)] {
            for s in [1u32, 2, 3] {
                let lat = if s == site {
                    Duration::from_micros(150)
                } else {
                    Duration::from_millis(12)
                };
                net.set_link_latency(NodeId(client), NodeId(s), lat);
            }
        }
    }

    spawn_replica_group(
        &sim,
        ns,
        ReplicaGroupConfig {
            service: "staff".into(),
            nodes: vec![NodeId(1), NodeId(2), NodeId(3)],
            propagation: Propagation::Sync,
            read_target: ReadTarget::Nearest,
        },
        || Box::new(Directory::new()),
    );

    // The Paris client seeds the directory.
    sim.spawn_async("paris", NodeId(11), move |cx| async move {
        let mut rt = client_runtime(ns);
        let dir = DirectoryClient::bind(&mut rt, cx, "staff")
            .await
            .expect("bind");
        for (path, name) in [
            ("/eng/alice", "Alice — systems"),
            ("/eng/bob", "Bob — networks"),
            ("/ops/carol", "Carol — sites"),
        ] {
            dir.insert(&mut rt, cx, path, name).await.expect("insert");
        }
        println!(
            "paris: seeded {} entries",
            dir.list(&mut rt, cx, "/").await.unwrap().len()
        );
    });

    // London and Oslo read heavily, each from their nearest replica.
    for (name, node) in [("london", 12u32), ("oslo", 13)] {
        sim.spawn_async(name, NodeId(node), move |cx| async move {
            let now = || cx.with(|cx| cx.now());
            let mut rt = client_runtime(ns);
            let dir = DirectoryClient::bind(&mut rt, cx, "staff")
                .await
                .expect("bind");
            // Wait for the Paris seed (sync-propagated writes over slow
            // inter-site links) to become visible.
            while dir.list(&mut rt, cx, "/").await.expect("list").len() < 3 {
                cx.sleep(Duration::from_millis(10)).await.unwrap();
            }
            let t0 = now();
            for _ in 0..20 {
                let eng = dir.list(&mut rt, cx, "/eng/").await.expect("list");
                assert_eq!(eng.len(), 2);
                let alice = dir.lookup(&mut rt, cx, "/eng/alice").await.expect("lookup");
                assert!(alice.unwrap().value.starts_with("Alice"));
            }
            let elapsed = now() - t0;
            println!("{name}: 40 reads in {} (simulated)", fmt(elapsed));
            // 40 nearest reads at ~300µs RTT ≈ 12ms ≪ 40 × 24ms remote.
            assert!(
                elapsed < Duration::from_millis(100),
                "reads were not served nearby"
            );
        });
    }

    let report = sim.run();
    println!("simulated time: {}", report.end_time);
    println!("replicated_directory OK");
}

fn fmt(d: Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1e3)
}
