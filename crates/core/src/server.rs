//! The service context: a process hosting objects behind the proxy
//! protocol.
//!
//! A [`ServiceServer`] is the paper's *server context*: it owns a
//! [`ServiceObject`], registers it with the name service together with
//! the [`ProxySpec`] its clients must run, and then serves the proxy
//! protocol — ordinary operations, plus the system operations that smart
//! proxies rely on (interface fetch, invalidation subscriptions,
//! checkout/checkin for migration).
//!
//! How the context executes is the service's private business — no
//! client can tell — so it is the cheap kind: a poll-driven
//! [`Process`], not a thread. The machine has three states:
//!
//! * **registering** — its first poll sends the registration; it parks
//!   until the name server answers, retransmitting on the default
//!   [`rpc::RetryPolicy`]'s schedule, and panics if that gives up;
//! * **serving** — every poll drains the mailbox, answers each datagram
//!   and parks on the empty mailbox;
//! * **in service** — a request whose object declares a
//!   [`service_time`](ServiceObject::service_time) is started (its
//!   dispatch span opens) but neither executed nor answered until that
//!   long has passed; meanwhile the mailbox is left alone, because the
//!   context is a single FIFO server. Then the machine executes it,
//!   replies and goes back to serving.

use std::collections::VecDeque;
use std::time::Duration;

use naming::NameClient;
use rpc::{
    endpoint_from_value, send_oneway, CallHandle, ErrorCode, RemoteError, Request, RpcError,
    RpcServer,
};
use simnet::{Ctx, Endpoint, Message, NodeId, Poll, ProcCx, Process, SimTime, Simulation};
use wire::Value;

use crate::interface::{InterfaceDesc, OpKind};
use crate::object::{FactoryRegistry, ServiceObject};
use crate::proxy::protocol;
use crate::sharers::Sharers;
use crate::spec::{CachingParams, ProxySpec};
use crate::stable::CheckpointPolicy;

/// Counters accumulated by a service context.
///
/// Canonical definition lives in the `obs` crate; each service keeps
/// its own copy here, and the simulation-wide [`obs::MetricsRegistry`]
/// snapshots the same counters per service.
pub use obs::ServerStats;

/// Everything but the RPC machinery, so the dispatch closure can borrow
/// it while [`RpcServer`] is borrowed separately.
struct Core {
    name: String,
    spec: ProxySpec,
    iface: InterfaceDesc,
    /// `None` while the object is checked out to a client context.
    object: Option<Box<dyn ServiceObject>>,
    holder: Option<Endpoint>,
    /// The invalidation subscribers and what each may be caching.
    sharers: Sharers,
    factories: Option<FactoryRegistry>,
    checkpoint: Option<CheckpointPolicy>,
    writes_since_checkpoint: u64,
    stats: ServerStats,
}

impl Core {
    fn send_recall(&mut self, ctx: &Ctx) {
        if let Some(holder) = self.holder {
            send_oneway(
                ctx,
                holder,
                protocol::MSG_RECALL,
                &Value::record([("svc", Value::str(self.name.as_str()))]),
            );
            self.stats.recalls_sent += 1;
        }
    }

    /// Pushes `inv {svc, tag}` to the caches a successful write under
    /// `tag` staled: the tag's current sharers and the whole-object
    /// readers, never the writer (see [`Sharers::take`]).
    fn invalidate(&mut self, ctx: &Ctx, tag: &str, writer: Endpoint) {
        let body = |tag: &str| {
            Value::record([
                ("svc", Value::str(self.name.as_str())),
                ("tag", Value::str(tag)),
            ])
        };
        let (mut keyed, mut whole) = (None, None);
        for (sub, everything) in self.sharers.take(tag, writer) {
            let args = if everything {
                whole.get_or_insert_with(|| body("*"))
            } else {
                keyed.get_or_insert_with(|| body(tag))
            };
            send_oneway(ctx, sub, protocol::MSG_INVALIDATE, args);
            self.stats.invalidations_sent += 1;
        }
    }

    /// Writes a checkpoint to this node's stable storage if the policy
    /// says it is due.
    fn maybe_checkpoint(&mut self, ctx: &Ctx) {
        let Some(policy) = &self.checkpoint else {
            return;
        };
        self.writes_since_checkpoint += 1;
        if self.writes_since_checkpoint < policy.every_writes {
            return;
        }
        if let Some(obj) = &self.object {
            if let Ok(snapshot) = obj.snapshot() {
                policy.store.save(ctx.node(), &self.name, snapshot);
                self.stats.checkpoints += 1;
                self.writes_since_checkpoint = 0;
            }
        }
    }

    /// How long `req` occupies the context before it executes: what the
    /// hosted object declares for an operation of its own, nothing for a
    /// protocol operation or while the object is checked out.
    fn service_time(&self, req: &Request) -> Duration {
        match &self.object {
            Some(obj) if !req.op.starts_with('_') => obj.service_time(&req.op, &req.args),
            _ => Duration::ZERO,
        }
    }

    fn execute(&mut self, ctx: &mut Ctx, req: &Request) -> Result<Value, RemoteError> {
        match req.op.as_str() {
            protocol::OP_IFACE => Ok(self.iface.to_value()),
            protocol::OP_PING => Ok(Value::Null),
            protocol::OP_SUBSCRIBE => {
                let cb = endpoint_from_value(
                    req.args
                        .get("cb")
                        .ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "missing cb"))?,
                )
                .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.sharers.subscribe(cb);
                Ok(Value::Null)
            }
            protocol::OP_UNSUBSCRIBE => {
                let cb = endpoint_from_value(
                    req.args
                        .get("cb")
                        .ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "missing cb"))?,
                )
                .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.sharers.unsubscribe(cb);
                Ok(Value::Null)
            }
            protocol::OP_SNAPSHOT => match &self.object {
                Some(obj) => obj.snapshot(),
                None => Err(RemoteError::new(
                    ErrorCode::Unavailable,
                    "object is checked out",
                )),
            },
            protocol::OP_CHECKOUT => match self.object.take() {
                Some(obj) => match obj.snapshot() {
                    Ok(state) => {
                        self.holder = Some(req.reply_to);
                        self.stats.checkouts += 1;
                        ctx.trace(simnet::TraceEvent::Migrated {
                            service: self.name.clone(),
                            from: ctx.endpoint(),
                            to: req.reply_to,
                            span: ctx.current_span(),
                        });
                        Ok(Value::record([("state", state)]))
                    }
                    Err(e) => {
                        self.object = Some(obj);
                        Err(e)
                    }
                },
                None => {
                    // Someone else holds it: ask for it back, tell the
                    // caller to retry later.
                    self.send_recall(ctx);
                    self.stats.unavailable += 1;
                    Err(RemoteError::new(
                        ErrorCode::Unavailable,
                        "object is checked out elsewhere",
                    ))
                }
            },
            protocol::OP_CHECKIN => {
                let state = req
                    .args
                    .get("state")
                    .ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "missing state"))?;
                let factories = self.factories.as_ref().ok_or_else(|| {
                    RemoteError::new(
                        ErrorCode::Unavailable,
                        "service cannot restore objects (no factories)",
                    )
                })?;
                let obj = factories.create(&self.iface.type_name, state)?;
                self.object = Some(obj);
                self.holder = None;
                self.stats.checkins += 1;
                ctx.trace(simnet::TraceEvent::Migrated {
                    service: self.name.clone(),
                    from: req.reply_to,
                    to: ctx.endpoint(),
                    span: ctx.current_span(),
                });
                Ok(Value::Null)
            }
            op if op.starts_with('_') => Err(RemoteError::new(ErrorCode::NoSuchOp, op.to_owned())),
            op => match &mut self.object {
                None => {
                    self.send_recall(ctx);
                    self.stats.unavailable += 1;
                    Err(RemoteError::new(
                        ErrorCode::Unavailable,
                        "object is checked out; retry shortly",
                    ))
                }
                Some(obj) => {
                    let result = obj.dispatch(ctx, op, &req.args);
                    self.stats.dispatched += 1;
                    if let (Ok(_), Some(desc)) = (&result, self.iface.op(op)) {
                        let kind = desc.kind;
                        // A service nobody subscribed to (every stub
                        // fleet) stops here.
                        if !self.sharers.is_empty() {
                            let tag = desc.tag(&req.args);
                            match kind {
                                OpKind::Read => self.sharers.note_read(req.reply_to, &tag),
                                OpKind::Write => self.invalidate(ctx, &tag, req.reply_to),
                            }
                        }
                        if kind == OpKind::Write {
                            self.stats.writes += 1;
                            self.maybe_checkpoint(ctx);
                        }
                    }
                    result
                }
            },
        }
    }
}

/// Most tags one subscriber is filed under before the directory gives
/// up tracking it (see [`Sharers`]). A cache evicts without telling the
/// service, so a subscriber's filings outgrow the `capacity` entries it
/// can actually hold; at four times that the service forgets it and has
/// the next write empty its cache — at most `capacity` entries lost per
/// `4 * capacity` misses, whatever the capacity. Subscribers of a spec
/// that publishes no capacity (a region edge in front of a stub-spec
/// store) are held to the default one.
fn sharer_cap(spec: &ProxySpec) -> usize {
    4 * spec
        .cache_capacity()
        .unwrap_or_else(|| CachingParams::default().capacity)
}

/// A process hosting one service object behind the proxy protocol: a
/// poll-driven [`Process`] (see the module docs for its states), built
/// and spawned by [`ServiceBuilder`].
pub struct ServiceServer {
    core: Core,
    rpc: RpcServer,
    /// The registration in flight; `None` once the name server answered.
    registering: Option<Box<(NameClient, CallHandle)>>,
    /// Calls started but not yet executed: the front one's service time
    /// runs until `ready_at`; requests the same batch carried behind it
    /// wait their turn.
    in_service: VecDeque<Request>,
    ready_at: SimTime,
    /// Whether a datagram was served since the counters were published.
    unpublished: bool,
}

impl std::fmt::Debug for ServiceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceServer")
            .field("name", &self.core.name)
            .field("spec", &self.core.spec)
            .field("checked_out", &self.core.object.is_none())
            .field("subscribers", &self.core.sharers.len())
            .finish()
    }
}

impl ServiceServer {
    /// Drains the mailbox, unless a call is in service: then nothing
    /// else is looked at until its time has passed and it has executed.
    fn serve(&mut self, cx: &mut ProcCx) -> Poll<()> {
        loop {
            if !self.in_service.is_empty() {
                if cx.now() < self.ready_at {
                    cx.wake_at(self.ready_at);
                    return Poll::Pending;
                }
                self.execute_front(cx);
                continue;
            }
            match cx.try_recv() {
                Ok(Some(msg)) => self.handle_msg(cx, &msg),
                Ok(None) => return Poll::Pending,
                Err(_stopped) => return Poll::Ready(()),
            }
        }
    }

    /// Processes one incoming datagram. A fresh request is executed and
    /// answered on the spot unless it has a service time to wait out (or
    /// stands behind one that has): that one is only started.
    fn handle_msg(&mut self, ctx: &mut Ctx, msg: &Message) {
        let (core, in_service, ready_at) =
            (&mut self.core, &mut self.in_service, &mut self.ready_at);
        self.rpc.handle_deferred(ctx, msg, |ctx, req| {
            if in_service.is_empty() {
                let time = core.service_time(req);
                if time.is_zero() {
                    return Some(core.execute(ctx, req));
                }
                *ready_at = ctx.now() + time;
            }
            in_service.push_back(req.clone());
            None
        });
        self.unpublished = true;
    }

    /// Executes the call whose service time has passed, under the
    /// dispatch span it opened on arrival, and answers it.
    fn execute_front(&mut self, ctx: &mut Ctx) {
        let req = self.in_service.pop_front().expect("a call is in service");
        let core = &mut self.core;
        self.rpc
            .complete_with(ctx, req.reply_to, req.call_id, |ctx| {
                core.execute(ctx, &req)
            });
        if let Some(next) = self.in_service.front() {
            self.ready_at = ctx.now() + self.core.service_time(next);
        }
        self.unpublished = true;
    }
}

impl Process for ServiceServer {
    /// # Panics
    ///
    /// Panics if registration fails for a reason other than simulation
    /// shutdown.
    fn poll(&mut self, cx: &mut ProcCx) -> Poll<()> {
        if let Some(reg) = &mut self.registering {
            match reg.0.poll_register(cx, reg.1) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(Ok(_)) => self.registering = None,
                Poll::Ready(Err(RpcError::Stopped)) => return Poll::Ready(()),
                Poll::Ready(Err(e)) => {
                    panic!("service `{}` failed to register: {e}", self.core.name)
                }
            }
        }
        let done = self.serve(cx);
        // Publish the latest counters so the unified run report always
        // reflects this service, even if the process never exits — once
        // per drained mailbox, not per datagram: the report reads only
        // the last value.
        if std::mem::take(&mut self.unpublished) {
            cx.obs().set_server_stats(&self.core.name, self.core.stats);
        }
        done
    }
}

/// Declarative spawning of a service process: one builder covering the
/// plain, factory-equipped, checkpointing and crash-recovering variants
/// that used to be separate `spawn_service*` free functions.
///
/// ```no_run
/// # use proxy_core::{ServiceBuilder, ProxySpec, FactoryRegistry};
/// # use simnet::{Simulation, NetworkConfig, NodeId, Endpoint, PortId};
/// # fn demo(sim: &Simulation, ns: Endpoint, factories: FactoryRegistry,
/// #         make: impl FnOnce() -> Box<dyn proxy_core::ServiceObject> + Send + 'static) {
/// let endpoint = ServiceBuilder::new("kv")
///     .spec(ProxySpec::Migratory { threshold: 4 })
///     .factories(factories)
///     .object(make)
///     .spawn(sim, NodeId(1), ns);
/// # }
/// ```
pub struct ServiceBuilder {
    name: String,
    spec: ProxySpec,
    make_object: Option<Box<dyn FnOnce() -> Box<dyn ServiceObject> + Send>>,
    factories: Option<FactoryRegistry>,
    checkpoint: Option<CheckpointPolicy>,
    recover: bool,
}

impl std::fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceBuilder")
            .field("name", &self.name)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl ServiceBuilder {
    /// Starts a builder for a service registered as `name`. The proxy
    /// spec defaults to [`ProxySpec::Stub`].
    pub fn new(name: impl Into<String>) -> ServiceBuilder {
        ServiceBuilder {
            name: name.into(),
            spec: ProxySpec::Stub,
            make_object: None,
            factories: None,
            checkpoint: None,
            recover: false,
        }
    }

    /// The proxy implementation clients of this service must run.
    pub fn spec(mut self, spec: ProxySpec) -> ServiceBuilder {
        self.spec = spec;
        self
    }

    /// The hosted object, produced inside the service process (the
    /// closure runs on the service's simulated node). Required.
    pub fn object(
        mut self,
        make: impl FnOnce() -> Box<dyn ServiceObject> + Send + 'static,
    ) -> ServiceBuilder {
        self.make_object = Some(Box::new(make));
        self
    }

    /// Factory registry for restoring checked-in object state (required
    /// for [`ProxySpec::Migratory`] services and for recovery).
    pub fn factories(mut self, factories: FactoryRegistry) -> ServiceBuilder {
        self.factories = Some(factories);
        self
    }

    /// Checkpoints the object's snapshot to the node's stable storage
    /// under `policy`.
    pub fn checkpointing(mut self, policy: CheckpointPolicy) -> ServiceBuilder {
        self.checkpoint = Some(policy);
        self
    }

    /// Checkpoints under `policy` *and* recovers from the node's last
    /// checkpoint at spawn, if one exists (the [`object`] closure then
    /// only supplies the cold-start default). Re-registering bumps the
    /// naming generation, so stub proxies whose calls time out against
    /// the dead incarnation transparently re-resolve to the new one.
    /// Requires [`factories`].
    ///
    /// [`object`]: ServiceBuilder::object
    /// [`factories`]: ServiceBuilder::factories
    pub fn recovered(mut self, policy: CheckpointPolicy) -> ServiceBuilder {
        self.checkpoint = Some(policy);
        self.recover = true;
        self
    }

    /// Spawns the service process on `node`, registered with the name
    /// server at `ns`. Returns the service's endpoint.
    ///
    /// # Panics
    ///
    /// Panics if no [`object`](ServiceBuilder::object) was supplied, or
    /// if [`recovered`](ServiceBuilder::recovered) was requested without
    /// [`factories`](ServiceBuilder::factories).
    pub fn spawn(self, sim: &Simulation, node: NodeId, ns: Endpoint) -> Endpoint {
        let (label, process) = self.into_process(ns);
        sim.spawn_poll(label, node, process)
    }

    /// [`spawn`](ServiceBuilder::spawn) from inside a running process:
    /// how a crashed service is restarted mid-run (with
    /// [`recovered`](ServiceBuilder::recovered), from its checkpoint).
    ///
    /// # Panics
    ///
    /// As [`spawn`](ServiceBuilder::spawn).
    pub fn spawn_from(self, ctx: &Ctx, node: NodeId, ns: Endpoint) -> Endpoint {
        let (label, process) = self.into_process(ns);
        ctx.spawn_poll(label, node, process)
    }

    /// The process label and the machine: the server is built by the
    /// process's own first poll, then polled.
    fn into_process(self, ns: Endpoint) -> (String, impl Process) {
        let name = &self.name;
        assert!(
            self.make_object.is_some(),
            "service `{name}` spawned without an object closure"
        );
        assert!(
            !self.recover || self.factories.is_some(),
            "service `{name}`: recovery needs a factory registry to rebuild snapshots"
        );
        let label = format!("svc-{name}");
        let mut recipe = Some(self);
        let mut server = None;
        let process = move |cx: &mut ProcCx| {
            server
                .get_or_insert_with(|| recipe.take().expect("built once").build(cx, ns))
                .poll(cx)
        };
        (label, process)
    }

    /// Runs on the process's first poll: makes the object — recovered
    /// from the node's last checkpoint if asked to and there is one —
    /// and the server around it, and sends its registration `{spec,
    /// iface}` to the name server at `ns`.
    fn build(self, ctx: &mut Ctx, ns: Endpoint) -> ServiceServer {
        let default = (self.make_object.expect("checked at spawn"))();
        let object = match (&self.checkpoint, &self.factories) {
            (Some(policy), Some(factories)) if self.recover => {
                match policy.store.load(ctx.node(), &self.name) {
                    Some(snapshot) => factories
                        .create(&default.interface().type_name, &snapshot)
                        .unwrap_or(default),
                    None => default,
                }
            }
            _ => default,
        };
        let iface = object.interface();
        let meta = Value::record([("spec", self.spec.to_value()), ("iface", iface.to_value())]);
        let mut names = NameClient::new(ns);
        let call = names.start_register(ctx, &self.name, ctx.endpoint(), meta);
        ServiceServer {
            core: Core {
                name: self.name,
                sharers: Sharers::new(sharer_cap(&self.spec)),
                spec: self.spec,
                iface,
                object: Some(object),
                holder: None,
                factories: self.factories,
                checkpoint: self.checkpoint,
                writes_since_checkpoint: 0,
                stats: ServerStats::default(),
            },
            rpc: RpcServer::new(),
            registering: Some(Box::new((names, call))),
            in_service: VecDeque::new(),
            ready_at: SimTime::ZERO,
            unpublished: false,
        }
    }
}
