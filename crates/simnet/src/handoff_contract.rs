//! What the scheduler relies on from a `Handoff`, whichever module
//! provides it: included as a test module by both `coro.rs` and
//! `thread_handoff.rs`, so the two stay interchangeable.

use super::{Handoff, Yielder};
use crate::sched::{Resume, YieldMsg};
use crate::time::SimTime;
use std::sync::Arc;

#[test]
fn ping_pong_then_finish() {
    let mut h = Handoff::new(
        "t",
        Box::new(|y: Yielder| {
            assert_eq!(
                y.block_on(YieldMsg::Sleep(SimTime::from_nanos(1))),
                Resume::Woken
            );
            assert_eq!(
                y.block_on(YieldMsg::Recv { deadline: None }),
                Resume::Delivered
            );
        }),
    );
    assert!(matches!(h.resume(Resume::Start), YieldMsg::Sleep(t) if t.as_nanos() == 1));
    assert!(matches!(
        h.resume(Resume::Woken),
        YieldMsg::Recv { deadline: None }
    ));
    assert!(matches!(
        h.resume(Resume::Delivered),
        YieldMsg::Finished { panic_msg: None }
    ));
}

#[test]
fn panic_becomes_finished() {
    let mut h = Handoff::new("t", Box::new(|_| panic!("boom {}", 7)));
    match h.resume(Resume::Start) {
        YieldMsg::Finished { panic_msg } => assert_eq!(panic_msg.as_deref(), Some("boom 7")),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn unstarted_body_is_dropped_unrun() {
    let token = Arc::new(());
    let t = Arc::clone(&token);
    let mut h = Handoff::new(
        "t",
        Box::new(move |_| {
            let _t = t;
            unreachable!("body ran");
        }),
    );
    assert!(matches!(
        h.resume(Resume::Shutdown),
        YieldMsg::Finished { panic_msg: None }
    ));
    drop(h);
    assert_eq!(Arc::strong_count(&token), 1);
    // And by a plain drop.
    let t = Arc::clone(&token);
    drop(Handoff::new("t", Box::new(move |_| drop(t))));
    assert_eq!(Arc::strong_count(&token), 1);
}
