//! The paper's motivating scenario: a remote file service whose proxy
//! caches blocks at the client.
//!
//! Run with: `cargo run --example file_cache`
//!
//! Two engineers on different workstations edit and build against the
//! same source tree. The build re-reads the same blocks over and over —
//! the caching proxy turns those into local hits — while saves by the
//! other engineer push invalidations that keep both caches coherent.

use std::time::Duration;

use proxide::prelude::*;
use proxide::services::file::{BlockFile, FileClient};

fn main() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 7);
    let ns = spawn_name_server(&sim, NodeId(0));

    // File server on node 1, with 100µs of simulated disk time per block.
    // The service chooses invalidation-coherent caching proxies.
    ServiceBuilder::new("src-tree")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 4096,
        }))
        .object(|| Box::new(BlockFile::new().with_disk_time(Duration::from_micros(100))))
        .spawn(&sim, NodeId(1), ns);

    // Engineer A: writes a file, then "builds" (re-reads it many times).
    sim.spawn("engineer-a", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut session = Session::new(&mut rt, ctx);
        let fs = FileClient::bind(&mut session, "src-tree").expect("bind");

        for block in 0..8u64 {
            fs.write(&mut session, "main.rs", block, vec![b'a'; 512])
                .expect("write");
        }
        // Three "build passes" over the whole file.
        for _pass in 0..3 {
            for block in 0..8u64 {
                let data = fs.read(&mut session, "main.rs", block).expect("read");
                assert!(data.is_some());
            }
        }
        let s = session.stats(fs.handle());
        println!(
            "engineer-a: {} reads, {} from cache, {} remote",
            24, s.local_hits, s.remote_calls
        );
        // One hit is forfeited when engineer B's save invalidates block 0
        // mid-build — coherence costing exactly one refetch.
        assert!(s.local_hits >= 15, "second and third passes should hit");

        // Keep polling briefly so engineer B's save can invalidate us.
        session.ctx().sleep(Duration::from_millis(30)).unwrap();
        let after_save = fs.read(&mut session, "main.rs", 0).expect("read");
        assert_eq!(
            after_save.as_deref(),
            Some(&[b'B'; 512][..]),
            "must observe engineer B's save"
        );
        println!("engineer-a: observed B's save after invalidation");
    });

    // Engineer B: saves block 0 of the same file mid-build.
    sim.spawn("engineer-b", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(15)).unwrap();
        let mut rt = SessionCore::new(ns);
        let mut session = Session::new(&mut rt, ctx);
        let fs = FileClient::bind(&mut session, "src-tree").expect("bind");
        fs.write(&mut session, "main.rs", 0, vec![b'B'; 512])
            .expect("save");
        println!("engineer-b: saved main.rs block 0");
    });

    let report = sim.run();
    println!(
        "simulated time: {} | messages on the wire: {}",
        report.end_time, report.metrics.msgs_sent
    );
    println!("file_cache OK");
}
