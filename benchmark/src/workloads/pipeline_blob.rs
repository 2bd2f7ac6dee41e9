//! `pipeline_blob`: windowed, batched blob puts straight over `rpc`.
//!
//! Four thread-backed clients each keep a window of 16 calls open on an
//! `rpc::Channel` that coalesces up to 4 requests per datagram, against
//! one `RpcServer` whose handler is the benchmark's own (it returns a
//! counter). Every put carries a ~4 KiB blob. `wire` (codec, frame, CRC)
//! and `rpc` (window, batching, dedup, retransmit timers) do most of the
//! work, the scheduler is amortised over several calls per datagram, and
//! `naming`, `core` and `services` are not on the path at all.
//!
//! The LAN drops 2 % and duplicates 0.5 % of datagrams, which keeps the
//! at-most-once machinery on the measured path. About 4 % of calls lose
//! their request or their reply and wait out a retransmission timer, so
//! `sim_call_p99_us` sits firmly inside the retransmitted calls and is the
//! retransmit policy's number. (At 0.5 % loss one call in a hundred
//! retransmits and p99 flips between the two modes from seed to seed.)
//! With 8 attempts the chance that a call exhausts its budget is below
//! 1e-10, so no operation is expected to fail.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::rng::Rng;
use crate::sut::{self, NodeId, Value};

use super::{merge_into, take, timed_run, Outcome, SharedTally, Tally};

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub clients: u32,
    pub calls_per_client: u32,
    pub depth: usize,
    pub batch: usize,
    /// Blob sizes are drawn from `payload - payload/16 ..= payload + payload/16`.
    pub payload: usize,
    pub loss: f64,
    pub duplicate: f64,
    pub attempts: u32,
}

pub fn sizes(smoke: bool) -> Sizes {
    Sizes {
        clients: 4,
        calls_per_client: if smoke { 1_500 } else { 12_000 },
        depth: 16,
        batch: 4,
        payload: 4096,
        loss: 0.02,
        duplicate: 0.005,
        attempts: 8,
    }
}

const JITTER: f64 = 0.05;
const SERVICE: &str = "blobsvc";
/// Distinct argument records a client draws its calls from (a clone of a
/// blob is a reference count).
const VARIANTS: usize = 16;

fn variants(sizes: &Sizes, rng: &mut Rng, client: u32) -> Vec<Value> {
    let slack = (sizes.payload / 16) as u64;
    (0..VARIANTS)
        .map(|i| {
            let len = sizes.payload as u64 - slack + rng.range(0, 2 * slack);
            let fill = rng.next_u64() as u8;
            Value::record([
                ("key", Value::str(format!("client-{client}/key-{i}"))),
                ("value", Value::blob(vec![fill; len as usize])),
            ])
        })
        .collect()
}

/// Redeems one call: records its latency and the counter it returned.
fn settle(
    ch: &mut sut::Channel,
    ctx: &mut sut::Ctx,
    (h, issued_at, req): (sut::CallHandle, u64, u64),
    client: u32,
    local: &mut Tally,
    counters: &mut Vec<u64>,
) {
    match sut::wait(ch, ctx, h, req) {
        Ok(v) => {
            local.ok += 1;
            local.latencies_ns.push(sut::now_ns(ctx) - issued_at);
            match v.as_u64() {
                Some(n) => counters.push(n),
                None => local.error(format!("client {client}: reply {v:?} is no counter")),
            }
        }
        Err(e) => {
            local.failed += 1;
            local.error(format!("client {client}: call failed: {e}"));
        }
    }
}

pub fn run(sizes: &Sizes, seed: u64, started: Instant) -> Outcome {
    let sizes = *sizes;
    let mut sim = sut::new_sim(
        sut::lossy_lan(JITTER, sizes.loss, sizes.duplicate),
        seed,
        1,
        1,
    );
    let executions = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&executions);
    let server = sut::spawn_at(&sim, SERVICE, NodeId(0), 1, move |ctx| {
        sut::serve(ctx, |_, req| match req.op.as_str() {
            "put" => Ok(Value::U64(counter.fetch_add(1, Ordering::Relaxed) + 1)),
            other => Err(sut::no_such_op(other)),
        });
    });

    let shared = SharedTally::default();
    let replies: Arc<Mutex<Vec<u64>>> = Arc::default();
    let stats: Arc<Mutex<Vec<sut::ChannelStats>>> = Arc::default();
    for c in 0..sizes.clients {
        // Every call's arguments are made here, before the clock starts.
        let mut rng = Rng::new(seed, u64::from(c));
        let pool = variants(&sizes, &mut rng, c);
        let mut args: Vec<Value> = (0..sizes.calls_per_client)
            .map(|_| pool[(rng.next_u64() % VARIANTS as u64) as usize].clone())
            .collect();
        args.reverse();
        let (shared, replies, stats) = (shared.clone(), replies.clone(), stats.clone());
        sut::spawn(&sim, format!("client{c}"), NodeId(1 + c), move |ctx| {
            let mut ch = sut::channel(SERVICE, server, sizes.depth, sizes.batch, sizes.attempts);
            let mut local = Tally::default();
            let mut counters = Vec::with_capacity(sizes.calls_per_client as usize);
            let mut window: VecDeque<(sut::CallHandle, u64, u64)> = VecDeque::new();
            let mut issued = 0u32;
            while issued < sizes.calls_per_client || !window.is_empty() {
                // Refill the whole window before waiting, so that staged
                // calls leave as full batches.
                while issued < sizes.calls_per_client && window.len() < sizes.depth {
                    let req = u64::from(c) << 32 | u64::from(issued);
                    let a = args.pop().expect("one argument record per call");
                    let issued_at = sut::now_ns(ctx);
                    let h = sut::begin_call(&mut ch, ctx, "put", a, req);
                    window.push_back((h, issued_at, req));
                    issued += 1;
                    local.attempted += 1;
                }
                if let Some(front) = window.pop_front() {
                    settle(&mut ch, ctx, front, c, &mut local, &mut counters);
                }
                // Replies arrive coalesced: take every call that settled
                // with the one just waited for.
                while window.front().is_some_and(|f| sut::is_settled(&ch, f.0)) {
                    let front = window.pop_front().expect("front exists");
                    settle(&mut ch, ctx, front, c, &mut local, &mut counters);
                }
            }
            local.clients_done = 1;
            merge_into(&shared, local);
            replies.lock().expect("replies poisoned").extend(counters);
            stats
                .lock()
                .expect("stats poisoned")
                .push(sut::channel_stats(&ch));
        });
    }

    let timed = timed_run(&mut sim, started);

    let mut tally = take(&shared);
    let executed = executions.load(Ordering::Relaxed);
    let mut seen = std::mem::take(&mut *replies.lock().expect("replies poisoned"));
    seen.sort_unstable();
    let done = tally.clients_done;
    tally.check(done == u64::from(sizes.clients), || {
        format!("{done} of {} clients completed", sizes.clients)
    });
    // At-most-once under loss and duplication: the handler ran once per
    // call that returned, and no two calls saw the same execution.
    let ok = tally.ok;
    tally.check(executed == ok, || {
        format!("handler ran {executed} times for {ok} ok calls")
    });
    tally.check(seen.windows(2).all(|w| w[0] < w[1]), || {
        "two calls received the same reply counter".to_owned()
    });
    tally.check(
        seen.first().is_none_or(|&n| n >= 1) && seen.last().is_none_or(|&n| n <= executed),
        || "a reply counter lies outside 1..=executions".to_owned(),
    );

    let stats = std::mem::take(&mut *stats.lock().expect("stats poisoned"));
    let calls: u64 = stats.iter().map(|s| s.calls).sum();
    let first_sends: u64 = stats
        .iter()
        .map(|s| s.batches_sent + (s.calls - s.batched_calls))
        .sum();
    let counts = vec![("rpc.calls_per_datagram", calls as f64 / first_sends as f64)];
    Outcome {
        timed,
        tally,
        clients: u64::from(sizes.clients),
        counts,
        sizes: format!("{sizes:?}"),
    }
}

pub fn sample_messages(seed: u64) -> Vec<Value> {
    let sizes = sizes(false);
    let mut rng = Rng::new(seed, 0);
    let me = sut::client_endpoint(NodeId(1));
    let mut out = Vec::new();
    for (i, args) in variants(&sizes, &mut rng, 0).into_iter().enumerate() {
        out.push(sut::request_value(me, "put", args));
        out.push(sut::reply_value(Value::U64(1 + i as u64)));
    }
    out
}
