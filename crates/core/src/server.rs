//! The service context: a process hosting objects behind the proxy
//! protocol.
//!
//! A [`ServiceServer`] is the paper's *server context*: it owns a
//! [`ServiceObject`], registers it with the name service together with
//! the [`ProxySpec`] its clients must run, and then serves the proxy
//! protocol — ordinary operations, plus the system operations that smart
//! proxies rely on (invalidation subscriptions, checkout/checkin for
//! migration; [`protocol`] tables their bodies).
//!
//! How the context executes is the service's private business — no
//! client can tell — so it is the cheap kind: an `async` process with no
//! stack of its own. What it does with a request is its [`Control`]
//! part: the object host [`ServiceBuilder`] builds, or one run through
//! [`serve`] (the migration host, the replica, the DSM manager and
//! pager). Every kind runs on one engine, one future written as
//! straight-line code:
//!
//! * it registers first, if the kind registers, retransmitting on the
//!   default [`rpc::RetryPolicy`]'s schedule, and panics if that gives
//!   up;
//! * it then takes each datagram in turn, answering every request the
//!   datagram carries under its own dispatch span: a handler that
//!   finishes without waiting is answered inside the datagram's
//!   [`rpc::Pass`], so a batch's answers leave together;
//! * a handler may wait: for service time ([`Io::busy`], [`Io::sleep`]),
//!   or for a call out ([`Io::call`]), treating what arrives meanwhile
//!   by the call's [`Strays`] rule. Its request is then answered, through
//!   [`RpcServer::complete`], once the handler ends; the requests the
//!   same datagram carried behind it, and those its wait queued, are
//!   started and wait their turn, because the context is a single FIFO
//!   server.
//!
//! A waiting handler is a local of the engine's future, so the code after
//! each of its awaits runs, under the same dispatch span, when the wait
//! is over. Work a one-way starts (a backup repairing a gap) waits the
//! same way, for no request.

use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, Ordering};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use naming::NameClient;
use parking_lot::Mutex;
use rpc::{
    endpoint_from_value, send_oneway, Channel, ChannelConfig, ErrorCode, Fresh, Oneway, Packet,
    Pass, RemoteError, Request, RpcError, RpcServer, Served,
};
use simnet::{AsyncCx, Ctx, Endpoint, Message, NodeId, Simulation};
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

/// The object host: the [`Control`] part [`ServiceBuilder`] builds,
/// serving one object and the proxy protocol's system operations.
#[derive(Debug)]
struct Core {
    name: String,
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
            let body = protocol::recall(&self.name);
            send_oneway(ctx, holder, &self.name, protocol::MSG_RECALL, &body);
            self.stats.recalls_sent += 1;
        }
    }

    /// Pushes `inv [svc, tag]` to the caches a successful write under
    /// `tag` staled: the tag's current sharers and the whole-object
    /// readers, never the writer (see [`Sharers::take`]).
    fn invalidate(&mut self, ctx: &Ctx, tag: &str, writer: Endpoint) {
        let body = |tag: &str| protocol::invalidation(&self.name, tag);
        let (mut keyed, mut whole) = (None, None);
        for (sub, everything) in self.sharers.take(tag, writer) {
            let args = if everything {
                whole.get_or_insert_with(|| body("*"))
            } else {
                keyed.get_or_insert_with(|| body(tag))
            };
            send_oneway(ctx, sub, &self.name, protocol::MSG_INVALIDATE, args);
            self.stats.invalidations_sent += 1;
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

    fn run(&mut self, ctx: &mut Ctx, req: &Request) -> Result<Value, RemoteError> {
        match req.op.as_str() {
            op @ (protocol::OP_SUBSCRIBE | protocol::OP_UNSUBSCRIBE) => {
                let cb = endpoint_from_value(&req.args)
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                match op {
                    protocol::OP_SUBSCRIBE => self.sharers.subscribe(cb),
                    _ => self.sharers.unsubscribe(cb),
                }
                Ok(Value::Null)
            }
            protocol::OP_CHECKOUT => match self.object.take() {
                Some(obj) => match obj.snapshot() {
                    Ok(state) => {
                        self.holder = Some(req.reply_to);
                        self.stats.checkouts += 1;
                        ctx.trace(ctx.current_span(), || obs::NetEventKind::Migrated {
                            service: self.name.clone(),
                            from: ctx.endpoint().into(),
                            to: req.reply_to.into(),
                        });
                        Ok(state)
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
                let factories = self.factories.as_ref().ok_or_else(|| {
                    RemoteError::new(
                        ErrorCode::Unavailable,
                        "service cannot restore objects (no factories)",
                    )
                })?;
                let obj = factories.create(&self.iface.type_name, &req.args)?;
                self.object = Some(obj);
                self.holder = None;
                self.stats.checkins += 1;
                ctx.trace(ctx.current_span(), || obs::NetEventKind::Migrated {
                    service: self.name.clone(),
                    from: req.reply_to.into(),
                    to: ctx.endpoint().into(),
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
                            self.writes_since_checkpoint += 1;
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

/// What a context does with a datagram that arrives while it calls out
/// and is not the call's reply. The call site chooses: what it holds,
/// keeps or drops decides which requests are answered, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strays {
    /// Requests go through the reply window as they arrive: a
    /// retransmission of a started call is dropped, a fresh request is
    /// started and waits its turn. Anything else is dropped and counted.
    Queue,
    /// Dropped and counted, requests included, as a wait given no rule
    /// drops them.
    Drop,
    /// Requests are held raw — not decoded, deduplicated or spanned — and
    /// served in arrival order once the work is done; anything else is
    /// dropped and counted.
    Hold,
    /// As `Hold`, but one-ways of this op are kept for the outcome.
    HoldKeeping(&'static str),
}

/// The control part of a server context: what it does with each
/// request. The engine around it is the same for every kind; see the
/// module docs.
///
/// A handler is `async`: it awaits its waits through its [`Io`], and in
/// between has the process's [`Ctx`] through [`Io::with`].
pub trait Control: Send + std::fmt::Debug + 'static {
    /// The name the context registers under, if it registers.
    fn name(&self) -> &str;

    /// Executes a fresh request, under its open dispatch span: its
    /// answer.
    fn execute(
        &mut self,
        io: &Io,
        req: &Request,
    ) -> impl Future<Output = Result<Value, RemoteError>> + Send;

    /// A one-way notification arrived (default: ignored).
    fn oneway(&mut self, _io: &Io, _oneway: Oneway) -> impl Future<Output = ()> + Send {
        async {}
    }

    /// Runs before each datagram is handled, for no request, while the
    /// datagram waits (default: nothing).
    fn intercept(&mut self, _io: &Io) -> impl Future<Output = ()> + Send {
        async {}
    }

    /// Publishes the kind's counters, once per datagram handled
    /// (default: nothing).
    fn publish(&self, _obs: &obs::MetricsRegistry) {}

    /// Runs after each datagram is handled and each waited call answered,
    /// their answers recorded in the engine's reply windows (default:
    /// nothing): where a kind that checkpoints saves its state and the
    /// windows in one save, so that a restart from it answers every call
    /// whose effect it holds from the recorded reply.
    fn checkpoint(&mut self, _io: &Io) {}
}

impl Control for Core {
    fn name(&self) -> &str {
        &self.name
    }

    async fn execute(&mut self, io: &Io, req: &Request) -> Result<Value, RemoteError> {
        let time = self.service_time(req);
        if !time.is_zero() {
            io.busy(time).await;
        }
        io.with(|ctx| self.run(ctx, req))
    }

    fn publish(&self, obs: &obs::MetricsRegistry) {
        obs.set_server_stats(&self.name, self.stats);
    }

    /// Saves `[object, windows]` to this node's stable storage once the
    /// policy's count of writes is reached.
    fn checkpoint(&mut self, io: &Io) {
        let (Some(policy), Some(obj)) = (&self.checkpoint, &self.object) else {
            return;
        };
        if self.writes_since_checkpoint < policy.every_writes {
            return;
        }
        if let Ok(state) = obj.snapshot() {
            let windows = Value::Blob(io.engine.lock().rpc.encode_windows());
            let node = io.with(|ctx| ctx.node());
            (policy.store).save(node, &self.name, Value::list([state, windows]));
            self.stats.checkpoints += 1;
            self.writes_since_checkpoint = 0;
        }
    }
}

/// What a [`Control`] part's handler has besides itself: its process's
/// [`Ctx`] between its awaits, and its waits. It is also where the
/// engine keeps its own state, which a call out shares.
#[derive(Debug)]
pub struct Io {
    cx: AsyncCx,
    /// Whether a datagram's pass is open. A call a handler makes inside
    /// it starts once the pass is closed, after the pass's answers.
    passing: AtomicBool,
    engine: Mutex<Engine>,
}

/// The engine's state around a control part.
#[derive(Debug, Default)]
struct Engine {
    rpc: RpcServer,
    /// Calls started but not yet answered, each waiting its turn: those
    /// a datagram carried behind a handler that waited, and those that
    /// arrived while one called out.
    in_service: VecDeque<Fresh>,
    /// Requests held raw by [`Strays::Hold`]; served before the mailbox.
    held: VecDeque<Message>,
    /// The channel of the latest call out.
    client: Option<Channel>,
}

impl Io {
    /// Runs `f` with the process's context.
    pub fn with<R>(&self, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.cx.with(|cx| f(cx))
    }

    /// Spends `d` of service time. A delivery meanwhile polls the
    /// context, which leaves the mailbox alone and re-arms its timer (the
    /// object host's accounting).
    pub async fn busy(&self, d: Duration) {
        self.until(d, false).await
    }

    /// As [`Io::busy`], but deaf: deliveries wait without polling the
    /// context, event for event as they waited for a blocking host's
    /// `Ctx::sleep`.
    pub async fn sleep(&self, d: Duration) {
        self.until(d, true).await
    }

    /// Parks for `d`. A shutdown ends the context here, as at any wait.
    async fn until(&self, d: Duration, deaf: bool) {
        let at = self.with(|ctx| ctx.now()) + d;
        poll_fn(|_| {
            self.cx.with(|cx| {
                if cx.now() >= at {
                    return Poll::Ready(());
                }
                match deaf {
                    true => cx.sleep_until(at),
                    false => cx.wake_at(at),
                }
                Poll::Pending
            })
        })
        .await
    }

    /// Calls `op` with `args` at `to`, treating whatever else arrives by
    /// the `strays` rule: the call's result, and the one-ways
    /// [`Strays::HoldKeeping`] kept, in arrival order. A shutdown ends
    /// the context here: the call never returns [`RpcError::Stopped`].
    pub async fn call(
        &self,
        to: Endpoint,
        op: &'static str,
        args: Value,
        strays: Strays,
    ) -> (Result<Value, RpcError>, Vec<Oneway>) {
        self.call_on(false, to, op, args, strays).await
    }

    /// As [`Io::call`], on the channel that made the previous call to the
    /// same endpoint (its round-trip estimate included), as a blocking
    /// caller retrying on one channel does.
    pub async fn retry(
        &self,
        to: Endpoint,
        op: &'static str,
        args: Value,
        strays: Strays,
    ) -> (Result<Value, RpcError>, Vec<Oneway>) {
        self.call_on(true, to, op, args, strays).await
    }

    async fn call_on(
        &self,
        again: bool,
        to: Endpoint,
        op: &str,
        args: Value,
        strays: Strays,
    ) -> (Result<Value, RpcError>, Vec<Oneway>) {
        // A handler that calls out inside its datagram's pass waits for
        // the engine to close it: the call leaves after the pass's answers.
        poll_fn(|_| match self.passing.load(Ordering::Relaxed) {
            true => Poll::Pending,
            false => Poll::Ready(()),
        })
        .await;
        let mut client = match self.engine.lock().client.take() {
            Some(client) if again && client.server() == to => client,
            _ => Channel::new("", to, ChannelConfig::with_depth(1)),
        };
        let mut kept = Vec::new();
        let mut take = |ctx: &mut Ctx, packet: Option<Packet>, msg: Message| {
            let engine = &mut *self.engine.lock();
            match (strays, packet) {
                (Strays::Queue, Some(Packet::Request(..) | Packet::Batch(_))) => {
                    if let Ok(pass) = engine.rpc.pass(ctx, &msg) {
                        defer_rest(pass, engine, ctx);
                    }
                }
                (Strays::Hold | Strays::HoldKeeping(_), Some(Packet::Request(..))) => {
                    engine.held.push_back(msg)
                }
                (Strays::HoldKeeping(op), Some(Packet::Oneway(o))) if o.op == op => kept.push(o),
                _ => return false,
            }
            true
        };
        let result = match client.call(self.cx, "", op, args, Some(&mut take)).await {
            Err(RpcError::Stopped) => std::future::pending().await,
            result => result,
        };
        self.engine.lock().client = Some(client);
        (result, kept)
    }
}

/// Polls `work` to its end, under `span` if it is for a request: the code
/// after each of a handler's awaits runs under its request's dispatch
/// span, as the code before the first did.
async fn run<T>(
    io: &Io,
    span: Option<obs::SpanId>,
    mut work: Pin<&mut impl Future<Output = T>>,
) -> T {
    poll_fn(|cx| {
        let previous = span.map(|span| io.with(|ctx| ctx.set_current_span(span)));
        let polled = work.as_mut().poll(cx);
        if let Some(previous) = previous {
            io.with(|ctx| ctx.set_current_span(previous));
        }
        polled
    })
    .await
}

/// Starts the fresh requests left in `pass`, each to wait its turn in
/// `in_service`, and sends the pass's answers.
fn defer_rest(mut pass: Pass, engine: &mut Engine, ctx: &mut Ctx) {
    while let Some(fresh) = pass.next(&mut engine.rpc, ctx) {
        pass.settle(&mut engine.rpc, ctx, &fresh, None);
        engine.in_service.push_back(fresh);
    }
    pass.finish(ctx);
}

impl Io {
    /// Serves `control` until the simulation stops.
    async fn serve<C: Control>(&self, control: &mut C) {
        loop {
            let next = self.engine.lock().in_service.pop_front();
            if let Some(fresh) = next {
                let handler = pin!(control.execute(self, &fresh.req));
                let result = run(self, Some(fresh.dispatch()), handler).await;
                self.complete(&fresh, result);
            } else {
                let held = self.engine.lock().held.pop_front();
                let msg = match held {
                    Some(msg) => msg,
                    None => match self.cx.recv().await {
                        Ok(msg) => msg,
                        Err(_) => return,
                    },
                };
                run(self, None, pin!(control.intercept(self))).await;
                if let Some(oneway) = self.handle(control, &msg).await {
                    run(self, None, pin!(control.oneway(self, oneway))).await;
                }
            }
            control.checkpoint(self);
            self.with(|ctx| control.publish(ctx.obs()));
        }
    }

    /// Answers every request `msg` carries, executing each fresh one in
    /// turn, until a handler waits: the requests behind it are started
    /// to wait their turn, the datagram's answers leave, and the handler
    /// is carried to its end. A one-way is handed back.
    async fn handle<C: Control>(&self, control: &mut C, msg: &Message) -> Option<Oneway> {
        let passed = self.with(|ctx| self.engine.lock().rpc.pass(ctx, msg));
        let mut pass = match passed {
            Ok(pass) => pass,
            Err(Served::Oneway(oneway)) => return Some(oneway),
            Err(_) => return None,
        };
        self.passing.store(true, Ordering::Relaxed);
        while let Some(fresh) = self.with(|ctx| pass.next(&mut self.engine.lock().rpc, ctx)) {
            let mut handler = pin!(control.execute(self, &fresh.req));
            let polled = handler
                .as_mut()
                .poll(&mut Context::from_waker(Waker::noop()));
            if let Poll::Ready(result) = polled {
                self.with(|ctx| {
                    pass.settle(&mut self.engine.lock().rpc, ctx, &fresh, Some(result))
                });
                continue;
            }
            self.passing.store(false, Ordering::Relaxed);
            self.with(|ctx| {
                let engine = &mut *self.engine.lock();
                pass.settle(&mut engine.rpc, ctx, &fresh, None);
                defer_rest(pass, engine, ctx);
            });
            let result = run(self, Some(fresh.dispatch()), handler).await;
            self.complete(&fresh, result);
            return None;
        }
        self.passing.store(false, Ordering::Relaxed);
        self.with(|ctx| pass.finish(ctx));
        None
    }

    /// Answers `fresh`, which waited.
    fn complete(&self, fresh: &Fresh, result: Result<Value, RemoteError>) {
        let req = &fresh.req;
        self.with(|ctx| {
            let answer = [(req.reply_to, req.call_id, result)];
            self.engine.lock().rpc.complete(ctx, answer)
        });
    }
}

/// A process hosting one server context: the engine (see the module
/// docs) around a [`Control`] part. Built by [`ServiceBuilder`] for an
/// object host, or by the `build` given to [`serve`].
#[derive(Debug)]
pub struct ServiceServer<C> {
    control: C,
    /// Where it registers, and with what, for a kind that registers.
    registration: Option<(Endpoint, Value)>,
    /// The reply windows it starts with: restored from a checkpoint, or
    /// none.
    rpc: RpcServer,
}

impl<C: Control> ServiceServer<C> {
    /// A context running `control`, registering nothing.
    pub fn new(control: C) -> ServiceServer<C> {
        ServiceServer {
            control,
            registration: None,
            rpc: RpcServer::new(),
        }
    }

    /// Registers the control part's [`name`](Control::name) at the
    /// process's endpoint, with `meta`, at the name server at `ns`, as
    /// the context starts; it serves once answered, retransmitting on the
    /// default [`rpc::RetryPolicy`]'s schedule meanwhile.
    pub fn register(mut self, ns: Endpoint, meta: Value) -> ServiceServer<C> {
        self.registration = Some((ns, meta));
        self
    }
}

/// The body of a server context that `build` makes when it first runs
/// (on the context's own node, with its own endpoint): how a crate runs
/// its own [`Control`] part. Spawn it with `spawn_async`.
///
/// # Panics
///
/// Panics if registration fails for a reason other than simulation
/// shutdown.
pub async fn serve<C: Control>(cx: AsyncCx, build: impl FnOnce(&mut Ctx) -> ServiceServer<C>) {
    let ServiceServer {
        mut control,
        registration,
        rpc,
    } = cx.with(|cx| build(cx));
    if let Some((ns, meta)) = registration {
        let me = cx.with(|cx| cx.endpoint());
        match NameClient::new(ns)
            .register(cx, control.name(), me, meta)
            .await
        {
            Ok(_) => {}
            Err(RpcError::Stopped) => return,
            Err(e) => panic!("service `{}` failed to register: {e}", control.name()),
        }
    }
    let io = Io {
        cx,
        passing: AtomicBool::new(false),
        engine: Mutex::new(Engine {
            rpc,
            ..Engine::default()
        }),
    };
    io.serve(&mut control).await;
}

/// Declarative spawning of a service process: one builder covering the
/// plain, factory-equipped and crash-recovering variants that used to be
/// separate `spawn_service*` free functions.
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

    /// Checkpoints the object and its reply windows together, as
    /// `[object, windows]`, under `policy` *and* recovers both from the
    /// node's last checkpoint at spawn, if one exists (the [`object`]
    /// closure then only supplies the cold-start default).
    /// Re-registering bumps the naming generation, so stub proxies whose
    /// calls time out against the dead incarnation transparently
    /// re-resolve to the new one and re-send them under their ids. A
    /// stored checkpoint whose object the factory refuses, or whose
    /// windows do not decode, stops the service with a panic naming it,
    /// never a silent cold start. Requires [`factories`].
    ///
    /// [`object`]: ServiceBuilder::object
    /// [`factories`]: ServiceBuilder::factories
    pub fn recovered(mut self, policy: CheckpointPolicy) -> ServiceBuilder {
        self.checkpoint = Some(policy);
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
        let label = self.label();
        sim.spawn_async(label, node, move |cx| {
            serve(cx, move |ctx| self.build(ctx, ns))
        })
    }

    /// [`spawn`](ServiceBuilder::spawn) from inside a running process:
    /// how a crashed service is restarted mid-run (with
    /// [`recovered`](ServiceBuilder::recovered), from its checkpoint).
    ///
    /// # Panics
    ///
    /// As [`spawn`](ServiceBuilder::spawn).
    pub fn spawn_from(self, ctx: &Ctx, node: NodeId, ns: Endpoint) -> Endpoint {
        let label = self.label();
        ctx.spawn_async(label, node, move |cx| {
            serve(cx, move |ctx| self.build(ctx, ns))
        })
    }

    /// The process label, once the builder is checked: the server itself
    /// is built when the process first runs.
    fn label(&self) -> String {
        let name = &self.name;
        assert!(
            self.make_object.is_some(),
            "service `{name}` spawned without an object closure"
        );
        assert!(
            self.checkpoint.is_none() || self.factories.is_some(),
            "service `{name}`: recovery needs a factory registry to rebuild snapshots"
        );
        format!("svc-{name}")
    }

    /// Runs when the process first runs: makes the object and its reply
    /// windows — recovered from the node's last checkpoint if asked to
    /// and there is one — and the server around them, and sends its
    /// registration `[spec, iface]` to the name server at `ns`.
    ///
    /// # Panics
    ///
    /// Panics, naming the service, if a stored checkpoint cannot be
    /// restored: starting cold instead would silently forget what the
    /// checkpoint says was done.
    fn build(self, ctx: &mut Ctx, ns: Endpoint) -> ServiceServer<Core> {
        let default = (self.make_object.expect("checked at spawn"))();
        let stored = (self.checkpoint.as_ref()).and_then(|p| p.store.load(ctx.node(), &self.name));
        let (object, rpc) = match (stored, &self.factories) {
            (Some(checkpoint), Some(factories)) => {
                restore(&checkpoint, factories, &default.interface().type_name).unwrap_or_else(
                    |e| panic!("service `{}` cannot restore its checkpoint: {e}", self.name),
                )
            }
            _ => (default, RpcServer::new()),
        };
        let iface = object.interface();
        let meta = crate::binder::binding_meta(&self.spec, &iface);
        let core = Core {
            sharers: Sharers::new(sharer_cap(&self.spec)),
            iface,
            object: Some(object),
            holder: None,
            factories: self.factories,
            checkpoint: self.checkpoint,
            writes_since_checkpoint: 0,
            stats: ServerStats::default(),
            name: self.name,
        };
        ServiceServer {
            rpc,
            ..ServiceServer::new(core).register(ns, meta)
        }
    }
}

/// A checkpoint's object, made by `factories`, and its reply windows.
fn restore(
    checkpoint: &Value,
    factories: &FactoryRegistry,
    type_name: &str,
) -> Result<(Box<dyn ServiceObject>, RpcServer), RemoteError> {
    let Some([state, Value::Blob(windows)]) = checkpoint.as_list() else {
        return Err(RemoteError::new(
            ErrorCode::BadArgs,
            "a checkpoint is [object, windows]",
        ));
    };
    let rpc = RpcServer::restore(windows)
        .map_err(|e| RemoteError::new(ErrorCode::BadArgs, format!("its reply windows: {e}")))?;
    Ok((factories.create(type_name, state)?, rpc))
}
