//! The ticket surface's one pump: a poll of any ticket drains the
//! mailbox once and hands each reply to the channel whose server sent it
//! — a bound service's, or an in-flight bind's lookup — so a client with
//! several tickets in flight loses no reply, whichever ticket it polls.
//! What no channel takes is dropped and counted.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use obs::NetEventKind;
use proxy_core::{
    CallFuture, InterfaceDesc, OpDesc, ProxySpec, ServiceBuilder, ServiceObject, SessionCore,
};
use rpc::{ChannelStats, RemoteError, Request};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, Poll, ProcCx, SimTime, Simulation, TraceEvent};
use wire::Value;

const SLOW: NodeId = NodeId(1);
const FAST: NodeId = NodeId(2);
const CLIENT: NodeId = NodeId(3);

#[derive(Clone)]
struct Echo;

impl ServiceObject for Echo {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new("echo", [OpDesc::read("echo", "v")])
    }

    fn dispatch(&mut self, _: &mut Ctx, _: &str, args: &Value) -> Result<Value, RemoteError> {
        Ok(args.clone())
    }
}

/// Two stub echo services: `slow` 3 ms from the client (each way), `fast`
/// on the LAN's 0.5 ms, so a call on `fast` is answered while one on
/// `slow` still waits.
fn two_services(seed: u64) -> (Simulation, Endpoint) {
    let sim = Simulation::new(NetworkConfig::lan(), seed);
    sim.net()
        .set_link_latency(CLIENT, SLOW, Duration::from_millis(3));
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    for (name, node) in [("slow", SLOW), ("fast", FAST)] {
        ServiceBuilder::new(name)
            .spec(ProxySpec::Stub)
            .object(|| Box::new(Echo))
            .spawn(&sim, node, ns);
    }
    (sim, ns)
}

/// The client binds `slow` and then `fast`, makes one call on each, and
/// polls only the call on `slow` until it settles, then the one on
/// `fast`. Each service's channel must have taken its own reply: no
/// reply counted stale, no call sent twice.
///
/// A poll that drained the mailbox through the polled call's channel
/// alone would count `fast`'s reply as stale and drop it, and `fast`'s
/// call would be answered only after a retransmission.
#[test]
fn polling_one_call_keeps_the_reply_to_another() {
    let (mut sim, ns) = two_services(1);
    let seen = Arc::new(Mutex::new(None));
    let out = Arc::clone(&seen);
    let mut core = SessionCore::new(ns);
    let (mut bind, mut handles, mut calls, mut results) = (None, Vec::new(), None, Vec::new());
    sim.spawn_poll("client", CLIENT, move |cx: &mut ProcCx| {
        while handles.len() < 2 {
            let name = ["slow", "fast"][handles.len()];
            let f = *bind.get_or_insert_with(|| core.bind_async(cx, name));
            match core.poll_bind(cx, f) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(h) => (handles.push(h.expect("bound")), bind = None),
            };
        }
        let calls: &[_; 2] = calls.get_or_insert_with(|| {
            [0, 1].map(|i| core.invoke_async(cx, handles[i], "echo", Value::U64(i as u64)))
        });
        while results.len() < 2 {
            match core.poll_call(cx, calls[results.len()]) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(r) => results.push(r),
            }
        }
        let stats: Vec<ChannelStats> = handles.iter().map(|&h| core.async_stats(h)).collect();
        *out.lock().unwrap() = Some((std::mem::take(&mut results), stats));
        Poll::Ready(())
    });
    sim.run();
    let (results, stats) = seen.lock().unwrap().take().expect("the client finished");
    assert_eq!(results, [Ok(Value::U64(0)), Ok(Value::U64(1))]);
    let stale: u64 = stats.iter().map(|s| s.stale_replies).sum();
    assert_eq!(stale, 0, "a reply was counted stale: {stats:?}");
    assert_eq!(stats[1].retries, 0, "fast's call was sent again: {stats:?}");
    let rpc = sim.obs_report().rpc.client;
    assert_eq!((rpc.stale_replies, rpc.retries), (0, 0));
}

/// Two binds in flight at once share the name server: each lookup reply
/// goes to the bind whose call it answers, whichever bind is polled.
#[test]
fn two_binds_in_flight_share_the_name_server_and_lose_nothing() {
    let (mut sim, ns) = two_services(2);
    let bound = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&bound);
    let mut core = SessionCore::new(ns);
    let mut binds = None;
    sim.spawn_poll("client", CLIENT, move |cx: &mut ProcCx| {
        let binds: &[_; 2] =
            binds.get_or_insert_with(|| ["slow", "fast"].map(|name| core.bind_async(cx, name)));
        let mut out = out.lock().unwrap();
        while out.len() < 2 {
            match core.poll_bind(cx, binds[out.len()]) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(h) => out.push(h.is_ok()),
            }
        }
        Poll::Ready(())
    });
    sim.run();
    assert_eq!(*bound.lock().unwrap(), [true, true]);
    let rpc = sim.obs_report().rpc.client;
    assert_eq!((rpc.stale_replies, rpc.retries), (0, 0));
}

/// While a call waits, the client is sent a one-way for no proxy and a
/// request nobody asked it to serve: the pump drops and counts both.
#[test]
fn a_ticket_poll_drops_and_counts_what_is_not_a_reply() {
    let (mut sim, ns) = two_services(3);
    let seen = Arc::new(Mutex::new(None));
    let out = Arc::clone(&seen);
    let mut core = SessionCore::new(ns);
    let (mut bind, mut handle, mut call) = (None, None, None);
    let client = sim.spawn_poll("client", CLIENT, move |cx: &mut ProcCx| {
        let h = match handle {
            Some(h) => h,
            None => {
                let f = *bind.get_or_insert_with(|| core.bind_async(cx, "slow"));
                match core.poll_bind(cx, f) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(h) => *handle.insert(h.expect("bound")),
                }
            }
        };
        let c = *call.get_or_insert_with(|| core.invoke_async(cx, h, "echo", Value::U64(7)));
        match core.poll_call(cx, c) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(r) => {
                *out.lock().unwrap() = Some(r);
                Poll::Ready(())
            }
        }
    });
    sim.spawn("intruder", NodeId(4), move |ctx| {
        ctx.sleep(Duration::from_millis(3)).unwrap();
        rpc::send_oneway(ctx, client, ctx.name(), "poke", &Value::Null);
        ctx.sleep(Duration::from_millis(1)).unwrap();
        let request = Request {
            call_id: 1,
            reply_to: ctx.endpoint(),
            object: String::new(),
            op: "echo".to_owned(),
            args: Value::Null,
            span: 0,
        };
        ctx.send(client, request.to_bytes());
    });
    sim.run();
    assert_eq!(seen.lock().unwrap().take(), Some(Ok(Value::U64(7))));
    assert_eq!(sim.obs_report().rpc.client.strays_dropped, 2);
}

/// A bind that found no name backs off 1 ms before it looks up again.
/// A machine that then polls only its calls must still be woken at the
/// retry: the call polls arm the backing-off bind's instant too. Here the client's poll after the
/// bind backs off ends on two calls, one on `fast` (100 µs away) and one
/// on `slow` (3 ms away); `fast` answers first, and the poll that takes
/// its reply polls calls alone and parks. The next wake must be the
/// bind's retry, 1 ms after the backoff began, long before `slow`
/// answers. Without that wake the bind would wait for a reply it has
/// nothing to do with.
#[test]
fn polling_only_calls_still_wakes_for_a_backing_off_bind() {
    let (mut sim, ns) = two_services(4);
    sim.net()
        .set_link_latency(CLIENT, FAST, Duration::from_micros(100));
    let seen = Arc::new(Mutex::new(None));
    let out = Arc::clone(&seen);
    let mut core = SessionCore::new(ns);
    let (mut bind, mut handles) = (None, Vec::new());
    let (mut absent, mut backoff_at) = (None, None);
    let mut calls: Option<[CallFuture; 2]> = None;
    // `None` until `fast` answers, then `Some(None)` until the next wake.
    let mut woke_at: Option<Option<SimTime>> = None;
    sim.spawn_poll("client", CLIENT, move |cx: &mut ProcCx| {
        while handles.len() < 2 {
            let name = ["slow", "fast"][handles.len()];
            let f = *bind.get_or_insert_with(|| core.bind_async(cx, name));
            match core.poll_bind(cx, f) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(h) => (handles.push(h.expect("bound")), bind = None),
            };
        }
        let Some(missing) = absent else {
            // The lookup goes out; its `NoSuchObject` is the next wake.
            let f = *absent.insert(core.bind_async(cx, "absent"));
            assert!(core.poll_bind(cx, f).is_pending());
            return Poll::Pending;
        };
        let Some([on_slow, on_fast]) = calls else {
            // The bind takes its `NoSuchObject` and backs off.
            assert!(core.poll_bind(cx, missing).is_pending());
            backoff_at = Some(cx.now());
            calls = Some(
                [0, 1].map(|i| core.invoke_async(cx, handles[i], "echo", Value::U64(i as u64))),
            );
            return Poll::Pending;
        };
        match woke_at {
            None if core.poll_call(cx, on_fast).is_pending() => return Poll::Pending,
            None => {
                // `fast` answered: from here on only calls are polled.
                woke_at = Some(None);
                assert!(core.poll_call(cx, on_slow).is_pending());
                return Poll::Pending;
            }
            Some(None) => {
                woke_at = Some(Some(cx.now()));
                // The bind looks up again; it stays in flight, unpolled.
                assert!(core.poll_bind(cx, missing).is_pending());
            }
            Some(Some(_)) => {}
        }
        match core.poll_call(cx, on_slow) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(r) => {
                *out.lock().unwrap() = Some((r, backoff_at, woke_at.flatten(), cx.now()));
                Poll::Ready(())
            }
        }
    });
    sim.run();
    let (slow, backoff_at, woke_at, done_at) = seen.lock().unwrap().take().expect("finished");
    assert_eq!(slow, Ok(Value::U64(0)));
    let (backoff_at, woke_at) = (backoff_at.expect("backed off"), woke_at.expect("woke"));
    assert_eq!(
        woke_at,
        backoff_at + Duration::from_millis(1),
        "the wake after the calls-only poll was not the bind's retry \
         (backed off at {backoff_at:?}, `slow` answered at {done_at:?})"
    );
    assert!(woke_at < done_at);
}

/// The same client, but after the wake at the bind's retry it polls only
/// its call on `slow`, never the bind. The pump polling that call starts
/// the bind's next lookup, so no wake is left armed at an instant already
/// past: the client is polled a handful of times, not again and again at
/// the retry instant.
#[test]
fn a_backing_off_bind_polled_no_more_does_not_spin_its_client() {
    const GUARD: u32 = 1_000;
    let (mut sim, ns) = two_services(4);
    sim.net()
        .set_link_latency(CLIENT, FAST, Duration::from_micros(100));
    sim.enable_trace(1 << 12);
    let seen = Arc::new(Mutex::new(None));
    let out = Arc::clone(&seen);
    let mut core = SessionCore::new(ns);
    let (mut bind, mut handles) = (None, Vec::new());
    let (mut absent, mut backoff_at, mut polls) = (None, None, 0);
    let mut calls: Option<[CallFuture; 2]> = None;
    sim.spawn_poll("client", CLIENT, move |cx: &mut ProcCx| {
        polls += 1;
        assert!(polls < GUARD, "polled {polls} times, now at {:?}", cx.now());
        while handles.len() < 2 {
            let name = ["slow", "fast"][handles.len()];
            let f = *bind.get_or_insert_with(|| core.bind_async(cx, name));
            match core.poll_bind(cx, f) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(h) => (handles.push(h.expect("bound")), bind = None),
            };
        }
        let Some(missing) = absent else {
            let f = *absent.insert(core.bind_async(cx, "absent"));
            assert!(core.poll_bind(cx, f).is_pending());
            return Poll::Pending;
        };
        let Some([on_slow, on_fast]) = calls else {
            assert!(core.poll_bind(cx, missing).is_pending());
            backoff_at = Some(cx.now());
            calls = Some(
                [0, 1].map(|i| core.invoke_async(cx, handles[i], "echo", Value::U64(i as u64))),
            );
            return Poll::Pending;
        };
        // From here on only calls are polled.
        if core.poll_call(cx, on_fast).is_pending() {
            return Poll::Pending;
        }
        match core.poll_call(cx, on_slow) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(r) => {
                *out.lock().unwrap() = Some((r, backoff_at, polls));
                Poll::Ready(())
            }
        }
    });
    sim.run();
    let (slow, backoff_at, polls) = seen.lock().unwrap().take().expect("finished");
    assert_eq!(slow, Ok(Value::U64(0)));
    let backoff_at = backoff_at.expect("backed off");
    assert!(polls < 20, "polled {polls} times");
    // The bind looked its name up again at its retry, unpolled. Five
    // lookups left the client: two for `slow` (the first one before it
    // registered), one for `fast`, and `absent`'s first and its retry,
    // 1 ms after the backoff began.
    let lookups: Vec<SimTime> = sim
        .take_trace()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Net(NetEventKind::Sent { src, dst, .. })
                if src.node == CLIENT.0 && dst.node == ns.node.0 =>
            {
                Some(r.at)
            }
            _ => None,
        })
        .collect();
    assert_eq!(lookups.len(), 5, "lookups sent at {lookups:?}");
    assert_eq!(lookups[4], backoff_at + Duration::from_millis(1));
}
