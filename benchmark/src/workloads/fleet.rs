//! `fleet_stub` and `fleet_sharded`: a fleet of poll-driven stub clients.
//!
//! Every client is a [`Process`] state machine over `SessionCore`'s
//! non-blocking surface, all alive at once. A client binds one of the
//! `KvStore` shards (published with `ProxySpec::Stub`) through the one
//! name server, then alternates put and get on its own key with ~20-byte
//! values. Messages are tiny, so what the host spends goes to scheduler
//! pop and dispatch, the process table, mailboxes, polling, naming and
//! span bookkeeping; codec and CRC see almost nothing.
//!
//! `fleet_sharded` is the same input on 8 scheduler domains. Clients sit
//! one node past their shard's residue class, so every request and reply
//! crosses a domain boundary through the outbox merge: the same `simnet`
//! layer, used differently. `fleet_sharded / fleet_stub` is the price of
//! sharding.
//!
//! The network is the LAN profile plus 5 % jitter. Without jitter every
//! simulated latency would be a function of message sizes alone and read
//! the same for every seed. Clients arrive over 10 ms of simulated time
//! (from 2 ms, when the shards have registered) instead of in one
//! lockstep wave, and call counts are dealt round-robin from a seeded
//! offset so that every seed issues the same number of calls.

use std::time::Instant;

use crate::rng::Rng;
use crate::sut::{
    self, AsyncHandle, BindFuture, CallFuture, NodeId, Poll, ProcCx, Process, ProxySpec,
    SessionCore, Value,
};

use super::{merge_into, take, timed_run, Outcome, SharedTally, Tally};

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub clients: u32,
    pub client_nodes: u32,
    pub shards: u32,
    /// A client makes between `min_calls` and `max_calls` calls,
    /// alternating put and get.
    pub min_calls: u32,
    pub max_calls: u32,
}

pub fn sizes(smoke: bool) -> Sizes {
    Sizes {
        clients: if smoke { 800 } else { 10_000 },
        client_nodes: 32,
        shards: 8,
        min_calls: 3,
        max_calls: 5,
    }
}

const JITTER: f64 = 0.05;
const ARRIVE_FROM_NS: u64 = 2_000_000;
const ARRIVE_UNTIL_NS: u64 = 12_000_000;

enum State {
    Start,
    Binding(BindFuture),
    Calling(AsyncHandle, CallFuture),
    Done,
}

struct Client {
    core: SessionCore,
    state: State,
    id: u32,
    shard: String,
    start_at_ns: u64,
    rng: Rng,
    calls: u32,
    done: u32,
    issued_at: u64,
    last_put: String,
    local: Tally,
    shared: SharedTally,
}

impl Client {
    fn req(&self) -> u64 {
        u64::from(self.id) << 8 | u64::from(self.done)
    }

    fn key(&self) -> String {
        format!("c{}/k", self.id)
    }

    fn next_call(&mut self, cx: &mut ProcCx, h: AsyncHandle) {
        let req = self.req();
        self.issued_at = sut::now_ns(cx);
        self.local.attempted += 1;
        let f = if self.done.is_multiple_of(2) {
            self.last_put = value_for(&mut self.rng);
            let args = Value::record([
                ("key", Value::str(self.key())),
                ("value", Value::str(self.last_put.clone())),
            ]);
            sut::invoke_async(&mut self.core, cx, h, "put", args, req)
        } else {
            let args = Value::record([("key", Value::str(self.key()))]);
            sut::invoke_async(&mut self.core, cx, h, "get", args, req)
        };
        self.state = State::Calling(h, f);
    }

    fn settle(&mut self, cx: &mut ProcCx, result: Result<Value, sut::RpcError>) {
        match result {
            Ok(v) => {
                self.local.ok += 1;
                self.local
                    .latencies_ns
                    .push(sut::now_ns(cx) - self.issued_at);
                if !self.done.is_multiple_of(2) && v.as_str() != Some(self.last_put.as_str()) {
                    let (id, want) = (self.id, self.last_put.clone());
                    self.local.error(format!(
                        "client {id}: get returned {v:?}, last put was {want:?}"
                    ));
                }
            }
            Err(e) => {
                self.local.failed += 1;
                let id = self.id;
                self.local.error(format!("client {id}: call failed: {e}"));
            }
        }
        self.done += 1;
    }
}

/// A ~20-byte value: 16 to 24 hex digits drawn from the client's stream.
fn value_for(rng: &mut Rng) -> String {
    let len = rng.range(16, 24) as usize;
    let mut s = format!("{:016x}{:016x}", rng.next_u64(), rng.next_u64());
    s.truncate(len);
    s
}

impl Process for Client {
    fn poll(&mut self, cx: &mut ProcCx) -> Poll<()> {
        loop {
            let req = self.req();
            match self.state {
                State::Start => {
                    if sut::now_ns(cx) < self.start_at_ns {
                        sut::wake_at_ns(cx, self.start_at_ns);
                        return Poll::Pending;
                    }
                    let f = sut::bind_async(&mut self.core, cx, &self.shard, req);
                    self.state = State::Binding(f);
                }
                State::Binding(f) => match sut::poll_bind(&mut self.core, cx, f, req) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(Ok(h)) => self.next_call(cx, h),
                    Poll::Ready(Err(e)) => {
                        let id = self.id;
                        self.local.error(format!("client {id}: bind failed: {e}"));
                        self.state = State::Done;
                    }
                },
                State::Calling(h, f) => match sut::poll_call(&mut self.core, cx, f, req) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(r) => {
                        self.settle(cx, r);
                        if self.done < self.calls {
                            self.next_call(cx, h);
                        } else {
                            if sut::async_stats(&self.core, h).timeouts != 0 {
                                let id = self.id;
                                self.local.error(format!("client {id}: channel timed out"));
                            }
                            self.local.clients_done = 1;
                            self.state = State::Done;
                        }
                    }
                },
                State::Done => {
                    merge_into(&self.shared, std::mem::take(&mut self.local));
                    return Poll::Ready(());
                }
            }
        }
    }
}

pub fn run(sizes: &Sizes, domains: usize, threads: usize, seed: u64, started: Instant) -> Outcome {
    let mut sim = sut::new_sim(sut::lan(JITTER), seed, domains, threads);
    let ns = sut::spawn_name_server(&sim, NodeId(0));
    for s in 0..sizes.shards {
        sut::spawn_kv(&sim, &format!("kv{s}"), ProxySpec::Stub, NodeId(1 + s), ns);
    }
    let shared = SharedTally::default();
    let first_client_node = 1 + sizes.shards;
    let deal = Rng::new(seed, u64::MAX).next_u64() as u32 % 3;
    for c in 0..sizes.clients {
        // One past the shard's residue class: with 8 domains (node n lives
        // in domain n % 8) a client never shares a domain with its shard.
        let node = NodeId(first_client_node + (c + 1) % sizes.client_nodes);
        let mut rng = Rng::new(seed, u64::from(c));
        let calls = sizes.min_calls + (c + deal) % (sizes.max_calls - sizes.min_calls + 1);
        sut::spawn_poll(
            &sim,
            format!("c{c}"),
            node,
            Client {
                core: sut::session(ns),
                state: State::Start,
                id: c,
                shard: format!("kv{}", c % sizes.shards),
                start_at_ns: rng.range(ARRIVE_FROM_NS, ARRIVE_UNTIL_NS),
                rng,
                calls,
                done: 0,
                issued_at: 0,
                last_put: String::new(),
                local: Tally::default(),
                shared: shared.clone(),
            },
        );
    }

    let timed = timed_run(&mut sim, started);

    let mut tally = take(&shared);
    let (spans, done) = (&timed.obs.spans, tally.clients_done);
    tally.check(done == u64::from(sizes.clients), || {
        format!("{done} of {} clients completed", sizes.clients)
    });
    tally.check(spans.started == spans.completed && spans.open == 0, || {
        format!(
            "spans started {} completed {} open {}",
            spans.started, spans.completed, spans.open
        )
    });
    tally.check(
        timed.sim.metrics.processes_peak >= u64::from(sizes.clients),
        || "the fleet was never alive all at once".to_owned(),
    );
    Outcome {
        timed,
        tally,
        clients: u64::from(sizes.clients),
        counts: Vec::new(),
        sizes: format!("{sizes:?} on {domains} domains, {threads} threads"),
    }
}

pub fn sample_messages(seed: u64) -> Vec<Value> {
    let mut rng = Rng::new(seed, 0);
    let me = sut::client_endpoint(NodeId(9));
    let mut out = Vec::new();
    for c in 0..32 {
        let key = format!("c{c}/k");
        let value = value_for(&mut rng);
        out.push(sut::request_value(
            me,
            "put",
            Value::record([
                ("key", Value::str(key.clone())),
                ("value", Value::str(value.clone())),
            ]),
        ));
        out.push(sut::reply_value(Value::Null));
        out.push(sut::request_value(
            me,
            "get",
            Value::record([("key", Value::str(key))]),
        ));
        out.push(sut::reply_value(Value::str(value)));
    }
    out
}
