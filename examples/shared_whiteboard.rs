//! A shared whiteboard over distributed shared memory.
//!
//! Run with: `cargo run --example shared_whiteboard`
//!
//! Three workstations share a drawing canvas as DSM pages. Each artist
//! paints its own region — page-aligned, so after the first fault every
//! stroke is a free local memory write — and then everyone reads the
//! whole canvas, faulting in the others' regions once.
//!
//! Contrast with `mobile_document`: same "bring the data to the user"
//! idea, but expressed as memory mapping instead of object migration.

use std::time::Duration;

use proxide::dsm::{spawn_dsm_manager, DsmClient, PageId};
use proxide::prelude::*;

const PAGE: usize = 256;
const ARTISTS: u32 = 3;

fn main() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 21);
    let manager = spawn_dsm_manager(&sim, NodeId(0), PAGE);

    for a in 0..ARTISTS {
        sim.spawn_async(format!("artist{a}"), NodeId(1 + a), move |cx| async move {
            let now = || cx.with(|cx| cx.now());
            let mut canvas = cx.with(|cx| DsmClient::attach(cx, manager));
            let my_page = PageId(a);
            let brush = b'A' + a as u8;

            // Paint my region: one fault, then free local strokes.
            let t0 = now();
            for stroke in 0..PAGE {
                canvas.write(cx, my_page, stroke, &[brush]).await.unwrap();
            }
            let paint_time = now() - t0;
            println!(
                "artist{a}: painted {PAGE} strokes in {:.2}ms ({} fault, {} local)",
                paint_time.as_secs_f64() * 1e3,
                canvas.stats.write_faults,
                canvas.stats.write_hits,
            );

            // Wait for everyone, then view the whole canvas.
            cx.sleep(Duration::from_millis(50)).await.unwrap();
            let mut seen = Vec::new();
            for p in 0..ARTISTS {
                let region = canvas.read(cx, PageId(p), 0, PAGE).await.unwrap();
                assert!(
                    region.iter().all(|&b| b == b'A' + p as u8),
                    "artist{a} saw a torn region {p}"
                );
                seen.push(region[0] as char);
            }
            println!("artist{a}: sees complete canvas {seen:?}");
        });
    }

    let report = sim.run();
    println!(
        "simulated time: {} | total protocol messages: {} (vs {} strokes painted)",
        report.end_time,
        report.metrics.msgs_sent,
        PAGE as u32 * ARTISTS
    );
    assert!(
        report.metrics.msgs_sent < 100,
        "DSM should need far fewer messages than strokes"
    );
    println!("shared_whiteboard OK");
}
