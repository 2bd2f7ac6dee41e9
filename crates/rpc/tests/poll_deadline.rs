//! Regression tests for a poll-driven channel's retransmit-deadline
//! arming: a parked client's only lifeline is the timer wake armed from
//! [`Channel::next_deadline`], so a stale or missing deadline is a lost
//! wakeup, not a slowdown. The clients are hand-written machines that own
//! their mailbox and drive the channel through its primitives, as the
//! ticket pump of `proxy_core::SessionCore` does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RpcError};
use simnet::{Endpoint, NetworkConfig, NodeId, Poll, PortId, ProcCx, Simulation};
use wire::Value;

/// One poll's progress: send what is staged and fire due timers, hand the
/// channel every datagram waiting, send what the replies made room for,
/// and arm a wake at the earliest retransmit deadline — before the caller
/// claims anything, so a call that settles here leaves its siblings timed.
fn drive(ch: &mut Channel, cx: &mut ProcCx) {
    ch.tick(cx);
    while let Ok(Some(msg)) = cx.try_recv() {
        ch.offer(cx, &msg);
    }
    ch.flush(cx);
    if let Some(deadline) = ch.next_deadline() {
        cx.wake_at(deadline);
    }
}

/// With 100% loss nothing is ever delivered, so the *only* thing that
/// can advance the client is the retransmit timer it arms before
/// parking — and every one of those wakes lands exactly ON the deadline
/// instant (the scheduler dispatches the timeout at `deadline`, and
/// `expire` treats `deadline <= now` as due). The call must burn its
/// whole retry budget and settle as a timeout; if the boundary were
/// treated as "not yet due", the machine would re-park with the same
/// deadline and the simulation would spin or stall forever.
#[test]
fn deadline_boundary_wake_drives_call_to_timeout() {
    let mut sim = Simulation::new(NetworkConfig::lan().with_loss(1.0), 3);
    let server = Endpoint::new(NodeId(0), PortId(1));
    let outcome = Arc::new(AtomicU64::new(0));
    let o = Arc::clone(&outcome);

    let mut chan: Option<Channel> = None;
    let mut call = None;
    sim.spawn_poll("client", NodeId(1), move |cx: &mut simnet::ProcCx| {
        if cx.ctx().is_stopped() {
            return Poll::Ready(());
        }
        let ch =
            chan.get_or_insert_with(|| Channel::new("echo", server, ChannelConfig::with_depth(1)));
        let h = *call.get_or_insert_with(|| {
            let ctx = cx.ctx();
            ch.begin_call(ctx, "echo", Value::U64(7))
        });
        drive(ch, cx);
        match ch.try_take(h) {
            None => Poll::Pending,
            Some(Err(RpcError::Timeout { .. })) => {
                o.store(1, Ordering::SeqCst);
                Poll::Ready(())
            }
            Some(other) => panic!("expected timeout, got {other:?}"),
        }
    });
    let report = sim.run();
    assert_eq!(
        outcome.load(Ordering::SeqCst),
        1,
        "call must settle as timeout"
    );
    assert_eq!(report.alive, 0, "client must not be left parked");
}

/// The stale-deadline lost-wakeup: calls A and B share one pipelined
/// channel; the server answers exactly one request and exits, so A
/// settles normally while B's packets blackhole against the unbound
/// endpoint and no reply will ever come. The client awaits A, then
/// parks *without polling B in that pass* — the natural shape of
/// sequential awaits interleaved with other work. The pass in which A
/// settles must still arm B's retransmit deadline: B's must be the
/// channel's next deadline once A has settled, or A's completion would
/// consume the poll and leave B with no timer, parking the client
/// forever.
#[test]
fn sibling_deadline_survives_settled_call() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    // A one-shot server: replies to the first request, then returns, so
    // its endpoint unbinds and everything later sent to it blackholes.
    let server = sim.spawn_at("oneshot", NodeId(0), PortId(1), |ctx| {
        let mut srv = rpc::RpcServer::new();
        if let Ok(m) = ctx.recv() {
            srv.handle(ctx, &m, |_ctx, req| match req.op.as_str() {
                "echo" => Ok(req.args.clone()),
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            });
        }
    });
    let stage = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&stage);

    let mut chan: Option<Channel> = None;
    let mut handles = None;
    sim.spawn_poll("client", NodeId(1), move |cx: &mut simnet::ProcCx| {
        if cx.ctx().is_stopped() {
            return Poll::Ready(());
        }
        let ch =
            chan.get_or_insert_with(|| Channel::new("echo", server, ChannelConfig::with_depth(2)));
        let (a, b) = *handles.get_or_insert_with(|| {
            let ctx = cx.ctx();
            let a = ch.begin_call(ctx, "echo", Value::U64(1));
            let b = ch.begin_call(ctx, "echo", Value::U64(2));
            (a, b)
        });
        drive(ch, cx);
        if s.load(Ordering::SeqCst) == 0 {
            match ch.try_take(a) {
                None => return Poll::Pending,
                Some(r) => {
                    r.expect("call A should echo back");
                    s.store(1, Ordering::SeqCst);
                    // Park WITHOUT polling B and without arming any
                    // wake of our own. Only the deadline armed during
                    // A's final drive can wake us again.
                    return Poll::Pending;
                }
            }
        }
        s.store(2, Ordering::SeqCst);
        match ch.try_take(b) {
            None => Poll::Pending,
            Some(Err(RpcError::Timeout { .. })) => {
                s.store(3, Ordering::SeqCst);
                Poll::Ready(())
            }
            Some(other) => panic!("expected timeout for B, got {other:?}"),
        }
    });
    let report = sim.run();
    assert_eq!(
        stage.load(Ordering::SeqCst),
        3,
        "client must be woken by B's deadline after A settled (stage tells how far it got)"
    );
    assert_eq!(report.alive, 0, "client must not be left parked");
}
