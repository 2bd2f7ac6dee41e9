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
//! [`Process`], not a thread. What it does with a request is its
//! [`Control`] part: the object host [`ServiceBuilder`] builds, or one
//! plugged in through [`server_process`] (the migration host, the
//! replica, the DSM manager and pager). Every kind runs on one machine
//! with four states:
//!
//! * **registering** — its first poll sends the registration, if the
//!   kind registers; it parks until the name server answers,
//!   retransmitting on the default [`rpc::RetryPolicy`]'s schedule, and
//!   panics if that gives up;
//! * **serving** — every poll drains the mailbox, answers each datagram
//!   and parks on the empty mailbox;
//! * **in service** — a request whose control part asks for service
//!   time ([`Step::Busy`], [`Step::Sleep`]) is started (its dispatch
//!   span opens) but neither finished nor answered until that long has
//!   passed; meanwhile the mailbox is left alone, because the context is
//!   a single FIFO server;
//! * **calling out** — a request whose control part calls out
//!   ([`Step::Call`]) is parked the same way while the machine drives
//!   the call, reading the mailbox for its reply and treating anything
//!   else by the call's [`Strays`] rule.
//!
//! When the wait ends the control part continues the request: it may
//! wait again or answer, through [`RpcServer::complete`], exactly once.
//! Work a one-way starts (a backup repairing a gap) waits the same way,
//! for no request.

use std::collections::VecDeque;
use std::time::Duration;

use naming::NameClient;
use rpc::{
    endpoint_from_value, send_oneway, Advance, CallHandle, ErrorCode, Oneway, Packet, RemoteError,
    Request, RpcClient, RpcError, RpcServer, Served,
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

    fn run(&mut self, ctx: &mut Ctx, req: &Request) -> Result<Value, RemoteError> {
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
                        ctx.trace(ctx.current_span(), || obs::NetEventKind::Migrated {
                            service: self.name.clone(),
                            from: ctx.endpoint().into(),
                            to: req.reply_to.into(),
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

/// What a [`Control`] part does next with the work in hand.
#[derive(Debug)]
pub enum Step {
    /// Done: answer its request, if it has one.
    Reply(Result<Value, RemoteError>),
    /// Spend this much service time, then resume. A delivery meanwhile
    /// polls the context, which leaves the mailbox alone and re-arms its
    /// timer (the object host's accounting).
    Busy(Duration),
    /// As `Busy`, but deaf: deliveries wait without polling the context,
    /// event for event as they waited for a blocking host's `Ctx::sleep`.
    Sleep(Duration),
    /// Call `op` with these args at an endpoint, treating whatever else
    /// arrives by the [`Strays`] rule, then resume with the outcome.
    Call(Endpoint, &'static str, Value, Strays),
    /// As `Call`, on the client that made the previous call to the same
    /// endpoint (its round-trip estimate included), as a blocking caller
    /// retrying on one `RpcClient` does.
    Retry(Endpoint, &'static str, Value, Strays),
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
    /// Dropped and counted, requests included, as `RpcClient::call`
    /// drops them.
    Drop,
    /// Requests are held raw — not decoded, deduplicated or spanned — and
    /// served in arrival order once the work is done; anything else is
    /// dropped and counted.
    Hold,
    /// As `Hold`, but one-ways of this op are kept for the outcome.
    HoldKeeping(&'static str),
}

/// How a call or a wait ended, for [`Control::resume`].
#[derive(Debug)]
pub struct Outcome {
    /// The call's result; `Ok(Null)` after service time.
    pub result: Result<Value, RpcError>,
    /// The one-ways [`Strays::HoldKeeping`] kept, in arrival order.
    pub kept: Vec<Oneway>,
}

/// The control part of a server context: what it does with each
/// request. The machine around it is the same for every kind; see the
/// module docs.
pub trait Control: Send + std::fmt::Debug + 'static {
    /// The name the context registers under, if it registers.
    fn name(&self) -> &str;

    /// Starts a fresh request, under its open dispatch span.
    fn execute(&mut self, ctx: &mut Ctx, req: &Request) -> Step;

    /// Continues the work a waiting [`Step`] suspended, under the same
    /// span; `req` is the request it is for, if any.
    fn resume(&mut self, ctx: &mut Ctx, req: Option<&Request>, outcome: Outcome) -> Step;

    /// A one-way notification arrived (default: ignored).
    fn oneway(&mut self, _ctx: &mut Ctx, _oneway: Oneway) -> Step {
        Step::Reply(Ok(Value::Null))
    }

    /// Consulted with each datagram before it is handled: a call returned
    /// here runs first, for no request, while the datagram waits.
    fn intercept(&mut self) -> Option<Step> {
        None
    }

    /// Publishes the kind's counters, once per drained mailbox.
    fn publish(&self, _obs: &obs::MetricsRegistry) {}
}

impl Control for Core {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&mut self, ctx: &mut Ctx, req: &Request) -> Step {
        match self.service_time(req) {
            time if time.is_zero() => Step::Reply(self.run(ctx, req)),
            time => Step::Busy(time),
        }
    }

    fn resume(&mut self, ctx: &mut Ctx, req: Option<&Request>, _: Outcome) -> Step {
        Step::Reply(self.run(ctx, req.expect("an object host waits for requests")))
    }

    fn publish(&self, obs: &obs::MetricsRegistry) {
        obs.set_server_stats(&self.name, self.stats);
    }
}

/// What the work in hand waits for: an instant (deafly or not), or a
/// call with its stray rule and the one-ways it kept.
#[derive(Debug)]
enum Wait {
    Until(SimTime, bool),
    Call(CallHandle, Strays, Vec<Oneway>),
}

/// A process hosting one server context: a poll-driven [`Process`] (see
/// the module docs for its states) around a [`Control`] part. Built by
/// [`ServiceBuilder`] for an object host, or by [`server_process`].
#[derive(Debug)]
pub struct ServiceServer<C> {
    control: C,
    rpc: RpcServer,
    /// The registration in flight; `None` once the name server answered
    /// (or for a kind that does not register).
    registering: Option<Box<(NameClient, CallHandle)>>,
    /// The work in hand, and whether it answers the front of
    /// `in_service` (or no request).
    task: Option<(bool, Wait)>,
    /// Calls started but not yet answered: the front one is the task's
    /// (or is about to run); requests the same batch carried behind it
    /// wait their turn.
    in_service: VecDeque<Request>,
    /// Requests held raw by [`Strays::Hold`]; served before the mailbox.
    held: VecDeque<Message>,
    /// The client of the latest outbound call.
    client: Option<RpcClient>,
    /// Whether anything was served since the counters were published.
    unpublished: bool,
}

impl<C: Control> ServiceServer<C> {
    /// A context running `control`, registering nothing.
    pub fn new(control: C) -> ServiceServer<C> {
        ServiceServer {
            control,
            rpc: RpcServer::new(),
            registering: None,
            task: None,
            in_service: VecDeque::new(),
            held: VecDeque::new(),
            client: None,
            unpublished: false,
        }
    }

    /// Sends the registration of the control part's
    /// [`name`](Control::name) at this process's endpoint, with `meta`,
    /// to the name server at `ns`; the context serves once answered.
    pub fn register(mut self, ctx: &mut Ctx, ns: Endpoint, meta: Value) -> ServiceServer<C> {
        let mut names = NameClient::new(ns);
        let call = names.start_register(ctx, self.control.name(), ctx.endpoint(), meta);
        self.registering = Some(Box::new((names, call)));
        self
    }

    /// Serves until the mailbox is empty or the work in hand waits.
    fn serve(&mut self, cx: &mut ProcCx) -> Poll<()> {
        loop {
            if let Some((for_request, wait)) = &mut self.task {
                let for_request = *for_request;
                let outcome = match wait {
                    Wait::Until(at, deaf) if cx.now() < *at => {
                        match deaf {
                            true => cx.sleep_until(*at),
                            false => cx.wake_at(*at),
                        }
                        return Poll::Pending;
                    }
                    Wait::Until(..) => Ok(Value::Null),
                    Wait::Call(handle, strays, kept) => {
                        let client = self.client.as_mut().expect("a call is out");
                        match client.advance(cx, *handle) {
                            Advance::Pending => return Poll::Pending,
                            Advance::Settled(Err(RpcError::Stopped)) => return Poll::Ready(()),
                            Advance::Settled(result) => result,
                            Advance::Stray(packet, msg) => {
                                match (*strays, packet) {
                                    (
                                        Strays::Queue,
                                        Some(Packet::Request(..) | Packet::Batch(_)),
                                    ) => self.handle_msg(cx, &msg),
                                    (
                                        Strays::Hold | Strays::HoldKeeping(_),
                                        Some(Packet::Request(..)),
                                    ) => self.held.push_back(msg),
                                    (Strays::HoldKeeping(op), Some(Packet::Oneway(o)))
                                        if o.op == op =>
                                    {
                                        kept.push(o)
                                    }
                                    _ => client.discard(cx),
                                }
                                continue;
                            }
                        }
                    }
                };
                let kept = match self.task.take() {
                    Some((_, Wait::Call(_, _, kept))) => kept,
                    _ => Vec::new(),
                };
                let outcome = Outcome {
                    result: outcome,
                    kept,
                };
                let step = self.within(cx, for_request, |control, _, ctx, req| {
                    control.resume(ctx, req, outcome)
                });
                self.step(cx, for_request, step);
            } else if !self.in_service.is_empty() {
                let step = self.within(cx, true, |control, _, ctx, req| {
                    control.execute(ctx, req.expect("a request is in service"))
                });
                self.step(cx, true, step);
            } else {
                let msg = match self.held.pop_front() {
                    Some(msg) => msg,
                    None => match cx.try_recv() {
                        Ok(Some(msg)) => msg,
                        Ok(None) => return Poll::Pending,
                        Err(_stopped) => return Poll::Ready(()),
                    },
                };
                match self.control.intercept() {
                    Some(step) => {
                        self.held.push_front(msg);
                        self.step(cx, false, step);
                    }
                    None => self.handle_msg(cx, &msg),
                }
            }
        }
    }

    /// Processes one incoming datagram. A fresh request is executed and
    /// answered on the spot unless its control part parks it (or it
    /// stands behind work in hand): that one is only started.
    fn handle_msg(&mut self, ctx: &mut Ctx, msg: &Message) {
        let idle = self.task.is_none();
        let (control, in_service) = (&mut self.control, &mut self.in_service);
        let mut parked = None;
        let served = self.rpc.handle_deferred(ctx, msg, |ctx, req| {
            if idle && in_service.is_empty() {
                match control.execute(ctx, req) {
                    Step::Reply(result) => return Some(result),
                    step => parked = Some(step),
                }
            }
            in_service.push_back(req.clone());
            None
        });
        if let Served::Oneway(oneway) = served {
            let step = self.control.oneway(ctx, oneway);
            self.step(ctx, false, step);
        }
        if let Some(step) = parked {
            self.step(ctx, true, step);
        }
        self.unpublished = true;
    }

    /// Runs `f` for the request in service, under its dispatch span, or —
    /// `for_request` false — for no request.
    fn within<R>(
        &mut self,
        ctx: &mut Ctx,
        for_request: bool,
        f: impl FnOnce(&mut C, &mut Option<RpcClient>, &mut Ctx, Option<&Request>) -> R,
    ) -> R {
        let (control, client) = (&mut self.control, &mut self.client);
        match self.in_service.front().filter(|_| for_request) {
            Some(req) => self
                .rpc
                .continue_with(ctx, req.reply_to, req.call_id, |ctx| {
                    f(control, client, ctx, Some(req))
                })
                .expect("the request in service is executing"),
            None => f(control, client, ctx, None),
        }
    }

    /// Puts `step` into effect for the request in service (or for no
    /// request): answers it, or makes it the work in hand.
    fn step(&mut self, ctx: &mut Ctx, for_request: bool, step: Step) {
        let again = matches!(step, Step::Retry(..));
        let wait = match step {
            Step::Reply(result) => {
                if for_request {
                    let req = self
                        .in_service
                        .pop_front()
                        .expect("a request is in service");
                    self.rpc
                        .complete(ctx, [(req.reply_to, req.call_id, result)]);
                }
                self.unpublished = true;
                return;
            }
            Step::Busy(time) => Wait::Until(ctx.now() + time, false),
            Step::Sleep(time) => Wait::Until(ctx.now() + time, true),
            Step::Call(to, op, args, strays) | Step::Retry(to, op, args, strays) => {
                let handle = self.within(ctx, for_request, |_, client, ctx, _| {
                    let client = match client {
                        Some(client) if again && client.server() == to => client,
                        slot => slot.insert(RpcClient::new(to)),
                    };
                    client.start(ctx, "", op, args)
                });
                Wait::Call(handle, strays, Vec::new())
            }
        };
        self.task = Some((for_request, wait));
    }
}

impl<C: Control> Process for ServiceServer<C> {
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
                    panic!("service `{}` failed to register: {e}", self.control.name())
                }
            }
        }
        let done = self.serve(cx);
        // Publish the latest counters so the unified run report always
        // reflects this service, even if the process never exits — once
        // per drained mailbox, not per datagram: the report reads only
        // the last value.
        if std::mem::take(&mut self.unpublished) {
            self.control.publish(cx.obs());
        }
        done
    }
}

/// The process of a server context that `build` makes on its first poll
/// (on the context's own node, with its own endpoint): how a crate runs
/// its own [`Control`] part. Spawn it with `spawn_poll`.
pub fn server_process<C: Control>(
    build: impl FnOnce(&mut Ctx) -> ServiceServer<C> + Send + 'static,
) -> impl Process {
    let mut build = Some(build);
    let mut server = None;
    move |cx: &mut ProcCx| {
        server
            .get_or_insert_with(|| (build.take().expect("built once"))(cx))
            .poll(cx)
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
    /// the dead incarnation transparently re-resolve to the new one. A
    /// stored checkpoint the factory refuses stops the service with a
    /// panic naming it, never a silent cold start. Requires
    /// [`factories`].
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
        (label, server_process(move |ctx| self.build(ctx, ns)))
    }

    /// Runs on the process's first poll: makes the object — recovered
    /// from the node's last checkpoint if asked to and there is one —
    /// and the server around it, and sends its registration `{spec,
    /// iface}` to the name server at `ns`.
    ///
    /// # Panics
    ///
    /// Panics, naming the service, if a stored checkpoint cannot be
    /// restored: starting cold instead would silently forget what the
    /// checkpoint says was done.
    fn build(self, ctx: &mut Ctx, ns: Endpoint) -> ServiceServer<Core> {
        let default = (self.make_object.expect("checked at spawn"))();
        let object = match (&self.checkpoint, &self.factories) {
            (Some(policy), Some(factories)) if self.recover => {
                match policy.store.load(ctx.node(), &self.name) {
                    Some(snapshot) => factories
                        .create(&default.interface().type_name, &snapshot)
                        .unwrap_or_else(|e| {
                            panic!("service `{}` cannot restore its checkpoint: {e}", self.name)
                        }),
                    None => default,
                }
            }
            _ => default,
        };
        let iface = object.interface();
        let meta = Value::record([("spec", self.spec.to_value()), ("iface", iface.to_value())]);
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
        ServiceServer::new(core).register(ctx, ns, meta)
    }
}
