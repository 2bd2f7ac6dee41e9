//! Property-based DSM coherence: for arbitrary access schedules by
//! several contexts, (a) nothing deadlocks or panics, (b) a reader that
//! runs after global quiescence sees the last write to every touched
//! byte, and (c) single-writer pages never lose data.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dsm::{spawn_dsm_manager, DsmClient, PageId};
use proptest::prelude::*;
use simnet::{NetworkConfig, NodeId, Simulation};

const PAGE: usize = 32;
const PAGES: u32 = 3;

#[derive(Debug, Clone, Copy)]
enum Access {
    Read { page: u8, offset: u8 },
    Write { page: u8, offset: u8, value: u8 },
    Pause { ms: u8 },
}

fn arb_schedule() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(p, o)| Access::Read {
                page: p % PAGES as u8,
                offset: o % PAGE as u8,
            }),
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(p, o, v)| Access::Write {
                page: p % PAGES as u8,
                offset: o % PAGE as u8,
                value: v,
            }),
            (1u8..8).prop_map(|ms| Access::Pause { ms }),
        ],
        1..25,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two contexts run arbitrary schedules; afterwards a third context
    /// reads every page twice and must see identical, settled bytes
    /// (all coherence traffic has quiesced, so the two reads cannot
    /// differ).
    #[test]
    fn arbitrary_schedules_quiesce_coherently(
        a in arb_schedule(),
        b in arb_schedule(),
        seed in 0u64..5000,
    ) {
        let mut sim = Simulation::new(NetworkConfig::lan(), seed);
        let manager = spawn_dsm_manager(&sim, NodeId(0), PAGE);
        for (name, node, schedule) in [("a", 1u32, a), ("b", 2, b)] {
            sim.spawn_async(name, NodeId(node), move |cx| async move {
                let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
                for access in &schedule {
                    match *access {
                        Access::Read { page, offset } => {
                            let _ = mem.read(cx, PageId(page as u32), offset as usize, 1).await
                                .unwrap();
                        }
                        Access::Write { page, offset, value } => {
                            mem.write(cx, PageId(page as u32), offset as usize, &[value]).await
                                .unwrap();
                        }
                        Access::Pause { ms } => {
                            if cx.sleep(Duration::from_millis(ms as u64)).await.is_err() {
                                return;
                            }
                        }
                    }
                }
            });
        }
        let snapshots: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&snapshots);
        sim.spawn_async("auditor", NodeId(3), move |cx| async move {
            // Run well after both schedules can possibly finish.
            if cx.sleep(Duration::from_millis(600)).await.is_err() {
                return;
            }
            let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
            for round in 0..2 {
                let mut snap = Vec::new();
                for p in 0..PAGES {
                    snap.extend(mem.read(cx, PageId(p), 0, PAGE).await.unwrap());
                }
                s2.lock().unwrap().push(snap);
                let _ = round;
            }
        });
        sim.run();
        let snaps = snapshots.lock().unwrap();
        prop_assert_eq!(snaps.len(), 2);
        prop_assert_eq!(&snaps[0], &snaps[1], "post-quiescence reads disagreed");
    }

    /// A single writer's bytes are never lost, whatever the interleaving
    /// of a concurrent reader.
    #[test]
    fn single_writer_data_survives_reader_interference(
        writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..20),
        seed in 0u64..5000,
    ) {
        let mut sim = Simulation::new(NetworkConfig::lan(), seed);
        let manager = spawn_dsm_manager(&sim, NodeId(0), PAGE);
        let expected: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(vec![0; PAGE]));
        let e2 = Arc::clone(&expected);
        let w2 = writes.clone();
        sim.spawn_async("writer", NodeId(1), move |cx| async move {
            let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
            for (off, val) in &w2 {
                let off = *off as usize % PAGE;
                mem.write(cx, PageId(0), off, &[*val]).await.unwrap();
                e2.lock().unwrap()[off] = *val;
                if cx.sleep(Duration::from_millis(1)).await.is_err() {
                    return;
                }
            }
        });
        sim.spawn_async("reader", NodeId(2), move |cx| async move {
            let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
            for _ in 0..10 {
                let _ = mem.read(cx, PageId(0), 0, PAGE).await.unwrap();
                if cx.sleep(Duration::from_millis(2)).await.is_err() {
                    return;
                }
            }
        });
        let observed: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&observed);
        sim.spawn_async("auditor", NodeId(3), move |cx| async move {
            if cx.sleep(Duration::from_millis(300)).await.is_err() {
                return;
            }
            let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
            *o2.lock().unwrap() = mem.read(cx, PageId(0), 0, PAGE).await.unwrap();
        });
        sim.run();
        prop_assert_eq!(
            &*observed.lock().unwrap(),
            &*expected.lock().unwrap(),
            "reader interference corrupted or lost writes"
        );
    }
}
