//! The session engine: one core, written once as `async`, with two
//! other ways in that the benchmark keeps.
//!
//! [`SessionCore`] owns everything a client context needs — the
//! [`Binder`], the proxy table, the one-way router:
//!
//! * **The engine** ([`SessionCore::attach`], [`SessionCore::call`],
//!   [`SessionCore::tend`], [`SessionCore::detach`],
//!   [`SessionCore::close`]): `async`, for an `async` body
//!   ([`simnet::Simulation::spawn_async`]), binding any [`ProxySpec`].
//!   Every client library is written against it — the typed clients of
//!   the `services` crate take a core and their body's [`AsyncCx`].
//!   Every proxy is written once, as `async`; a call its proxy answers at
//!   once ([`Proxy::try_ready`]: a cache hit, an in-context call with no
//!   service time) allocates no future. A call is three steps: a
//!   synchronous begin (drain the mailbox, open the span, `try_ready`),
//!   the proxy's future if it must wait, and a synchronous end.
//! * **The benchmark's blocking bridge** ([`SessionCore::bind`],
//!   [`SessionCore::invoke`], [`SessionCore::shutdown`]): the engine run
//!   on a blocking body's stack through [`simnet::Ctx::block_on`],
//!   parking the body exactly where the engine waits. It stays only for
//!   the blocking bodies of the benchmark's system under test
//!   (`benchmark/src/sut.rs`), until the benchmark is ported, and for
//!   tests: every program body is `async`. `invoke` runs the engine's
//!   synchronous steps on the body's context directly and enters the
//!   bridge only for the steps that wait, so a cache hit costs a blocking
//!   caller what it costs an `async` one.
//! * **Tickets, kept for the benchmark** ([`SessionCore::bind_async`],
//!   [`SessionCore::invoke_async`] and their `poll_*` drivers): returns
//!   [`BindFuture`] / [`CallFuture`] tickets a hand-written poll-driven
//!   process ([`simnet::Process`]) redeems from its `poll` method via
//!   [`ProcCx`], registering its wakes (reply delivery, retransmission
//!   deadline, retry backoff) and returning `Poll::Pending`. Each ticket
//!   poll drives every ticket at once: it drains the mailbox once and
//!   hands each reply to the channel whose server sent it, so a client
//!   with calls in flight on two services, or a lookup beside a call,
//!   loses none of them. It speaks the same wire protocol through the
//!   same [`rpc::Channel`] transport, so a server cannot tell its clients
//!   apart, but it binds **stub-grade** services only
//!   ([`ProxySpec::Stub`], what the benchmark's million-client fleet
//!   binds): asking for a smart proxy through `bind_async` reports a
//!   descriptive error rather than silently downgrading the service's
//!   chosen strategy. An `async` body binds smart proxies through the
//!   engine instead.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use naming::NameRecord;
use rpc::{Channel, ChannelConfig, Oneway, RpcError};
use simnet::{AsyncCx, Ctx, Endpoint, Message, Poll, ProcCx, SimTime};
use wire::Value;

use crate::binder::Binder;
use crate::object::FactoryRegistry;
use crate::proxy::{protocol, Proxy, ProxyStats};
use crate::spec::ProxySpec;

/// Handle to a proxy owned by a session core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProxyHandle(pub(crate) usize);

/// A call [`SessionCore::begin`] began: its proxy, its span, the span it
/// replaced, and the one-ways found meanwhile for other proxies.
struct Begun(ProxyHandle, obs::SpanId, obs::SpanId, Vec<Oneway>);

/// Ticket for an in-progress non-blocking bind; redeem with
/// [`SessionCore::poll_bind`]. Its number counts the core's binds, so a
/// claimed ticket never names a newer bind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindFuture(usize);

/// Handle to a service bound through the non-blocking surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsyncHandle(usize);

/// Ticket for one in-flight non-blocking call; redeem with
/// [`SessionCore::poll_call`]. The `CallHandle`-style future of the
/// redesigned client API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallFuture {
    svc: usize,
    call: rpc::CallHandle,
}

impl CallFuture {
    /// The underlying RPC call id (diagnostics only).
    pub fn call_id(&self) -> u64 {
        self.call.call_id()
    }
}

/// How far a non-blocking bind has progressed.
enum BindState {
    /// Lookup RPC in flight on a dedicated channel to the name server.
    Resolving {
        service: String,
        chan: Box<Channel>,
        call: rpc::CallHandle,
        deadline: SimTime,
    },
    /// Name not registered yet; the pump looks it up again at
    /// `retry_at`.
    Backoff {
        service: String,
        retry_at: SimTime,
        deadline: SimTime,
    },
    /// Result claimed; dropped once every older bind is claimed too.
    Claimed,
}

/// The client-context engine: the binder, the proxy table and the ticket
/// machinery.
///
/// Its engine ([`SessionCore::attach`], [`SessionCore::call`]) is
/// `async` and binds any [`ProxySpec`]; the benchmark's blocking bodies
/// reach it through [`SessionCore::bind`] and [`SessionCore::invoke`].
/// The ticket surface ([`SessionCore::bind_async`],
/// [`SessionCore::invoke_async`]) serves hand-written poll-driven
/// processes and binds [`ProxySpec::Stub`] services only.
pub struct SessionCore {
    binder: Binder,
    proxies: Vec<Box<dyn Proxy>>,
    by_service: HashMap<String, usize>,
    // -- ticket state: one pipelined channel per bound service --
    /// The binds from ticket number `first_bind` on; older ones are all
    /// claimed and gone.
    binds: Vec<BindState>,
    first_bind: usize,
    services: Vec<Channel>,
}

impl fmt::Debug for SessionCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionCore")
            .field("proxies", &self.proxies.len())
            .field("async_services", &self.services.len())
            .finish_non_exhaustive()
    }
}

impl SessionCore {
    /// Creates a core talking to the name server at `ns`.
    pub fn new(ns: Endpoint) -> SessionCore {
        SessionCore {
            binder: Binder::new(ns),
            proxies: Vec::new(),
            by_service: HashMap::new(),
            binds: Vec::new(),
            first_bind: 0,
            services: Vec::new(),
        }
    }

    /// Supplies object factories (for migratory services).
    pub fn with_factories(mut self, factories: FactoryRegistry) -> SessionCore {
        self.binder = self.binder.with_factories(factories);
        self
    }

    /// Access to the underlying binder (to register custom proxy kinds).
    pub fn binder_mut(&mut self) -> &mut Binder {
        &mut self.binder
    }

    // -----------------------------------------------------------------
    // The engine: `async`, for any body and any proxy
    // -----------------------------------------------------------------

    /// Binds to `service`, waiting up to 100ms of virtual time for it to
    /// register, and then routes the one-ways that arrived while it
    /// waited.
    ///
    /// # Errors
    ///
    /// See [`Binder::bind_wait`].
    pub async fn attach(&mut self, cx: AsyncCx, service: &str) -> Result<ProxyHandle, RpcError> {
        let (within, mut strays) = (Duration::from_millis(100), Vec::new());
        let bound = self
            .binder
            .bind_wait(cx, service, within, &mut strays)
            .await;
        let handle = bound.map(|proxy| {
            let idx = self.proxies.len();
            self.by_service.insert(proxy.service().to_owned(), idx);
            push_exact_first(&mut self.proxies, proxy);
            ProxyHandle(idx)
        });
        cx.with(|cx| self.route(cx, strays));
        handle
    }

    /// Invokes an operation through a bound proxy.
    ///
    /// Opens a causal invoke span for the duration of the call (child
    /// RPCs, retransmissions and server dispatches attach to it), records
    /// the invocation latency into the per-`(service, op)` histogram, and
    /// publishes the proxy's counters to the [`obs::MetricsRegistry`].
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the proxy.
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this core.
    pub async fn call(
        &mut self,
        cx: AsyncCx,
        handle: ProxyHandle,
        op: &str,
        args: Value,
    ) -> Result<Value, RpcError> {
        self.tend(cx).await;
        match cx.with(|cx| self.begin(cx, handle, op, &args)) {
            (begun, Some(result)) => cx.with(|cx| self.end(cx, begun, result)),
            (begun, None) => self.finish(cx, op, args, begun).await,
        }
    }

    /// Opens a call's span and asks its proxy for an answer that needs
    /// no wait ([`Proxy::try_ready`]).
    fn begin(
        &mut self,
        ctx: &mut Ctx,
        handle: ProxyHandle,
        op: &str,
        args: &Value,
    ) -> (Begun, Option<Result<Value, RpcError>>) {
        let proxy = &mut self.proxies[handle.0];
        let (now, parent) = (ctx.now().as_nanos(), ctx.current_span());
        let span = (ctx.obs()).open_span(obs::SpanKind::Invoke, parent, proxy.service(), op, now);
        let previous = ctx.set_current_span(span);
        let mut begun = Begun(handle, span, previous, Vec::new());
        let ready = proxy.try_ready(ctx, op, args, &mut begun.3);
        (begun, ready)
    }

    /// The rest of a call its proxy could not answer at once: the
    /// proxy's future, then [`SessionCore::end`].
    async fn finish(
        &mut self,
        cx: AsyncCx,
        op: &str,
        args: Value,
        mut begun: Begun,
    ) -> Result<Value, RpcError> {
        let result = (self.proxies[begun.0 .0].invoke(cx, op, args, &mut begun.3)).await;
        cx.with(|cx| self.end(cx, begun, result))
    }

    /// Closes a call's span, publishes its proxy's counters and routes
    /// the one-ways found meanwhile; hands back the call's result.
    fn end(
        &mut self,
        ctx: &mut Ctx,
        begun: Begun,
        result: Result<Value, RpcError>,
    ) -> Result<Value, RpcError> {
        let Begun(handle, span, previous, strays) = begun;
        ctx.set_current_span(previous);
        (ctx.obs()).close_span(span, ctx.now().as_nanos(), result.is_ok());
        let proxy = &self.proxies[handle.0];
        (ctx.obs()).set_proxy_stats(ctx.name(), proxy.service(), proxy.stats());
        self.route(ctx, strays);
        result
    }

    /// Drains the process mailbox and routes notifications; gives every
    /// proxy a chance to do deferred work (honour recalls, etc.).
    pub async fn tend(&mut self, cx: AsyncCx) {
        cx.with(|cx| self.drain(cx));
        self.catch_up(cx).await;
    }

    /// Drains the process mailbox and routes what it held.
    fn drain(&mut self, ctx: &mut Ctx) {
        let mut pending: Vec<Oneway> = Vec::new();
        while let Ok(Some(msg)) = ctx.try_recv() {
            match rpc::Packet::from_frame(&msg.payload) {
                Ok(rpc::Packet::Oneway(o)) => pending.push(o),
                // Replies outside any call are late duplicates.
                _ => ctx.obs().on_stray_dropped(),
            }
        }
        self.route(ctx, pending);
    }

    /// Lets every proxy with deferred work do it, and routes the one-ways
    /// that arrived meanwhile.
    async fn catch_up(&mut self, cx: AsyncCx) {
        let mut strays = Vec::new();
        for p in &mut self.proxies {
            if p.deferred() {
                p.poll(cx, &mut strays).await;
            }
        }
        cx.with(|cx| self.route(cx, strays));
    }

    /// Cleanly detaches one proxy (unsubscribe, check state back in), and
    /// routes the one-ways that arrived meanwhile.
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this core.
    pub async fn detach(&mut self, cx: AsyncCx, handle: ProxyHandle) {
        let mut strays = Vec::new();
        self.proxies[handle.0].detach(cx, &mut strays).await;
        cx.with(|cx| self.route(cx, strays));
    }

    /// Detaches every proxy (call before client exit), and routes the
    /// one-ways that arrived meanwhile.
    pub async fn close(&mut self, cx: AsyncCx) {
        let mut strays = Vec::new();
        for p in &mut self.proxies {
            p.detach(cx, &mut strays).await;
        }
        cx.with(|cx| self.route(cx, strays));
    }

    pub(crate) fn route(&mut self, ctx: &mut Ctx, oneways: Vec<Oneway>) {
        for o in oneways {
            let target = protocol::notice(&o)
                .ok()
                .and_then(|(svc, _)| self.by_service.get(svc).copied());
            match target {
                Some(idx) => self.proxies[idx].on_oneway(ctx, &o),
                None => ctx.obs().on_stray_dropped(),
            }
        }
    }

    // -----------------------------------------------------------------
    // The benchmark's blocking bridge: the engine, run on a blocking
    // body's stack. It stays only for the blocking bodies of the
    // benchmark's system under test (`benchmark/src/sut.rs`) and of tests;
    // every program body is `async` and awaits the engine.
    // -----------------------------------------------------------------

    /// [`SessionCore::attach`] for a blocking body (the benchmark's system
    /// under test and tests).
    pub fn bind(&mut self, ctx: &mut Ctx, service: &str) -> Result<ProxyHandle, RpcError> {
        ctx.block_on(|cx| self.attach(cx, service))
    }

    /// [`SessionCore::call`] for a blocking body (the benchmark's system
    /// under test and tests). It enters the bridge only where the engine
    /// waits: its [`SessionCore::tend`] step lets proxies with deferred
    /// work do it, and a call its proxy answers at once
    /// ([`Proxy::try_ready`]) runs on the body's context directly.
    pub fn invoke(
        &mut self,
        ctx: &mut Ctx,
        handle: ProxyHandle,
        op: &str,
        args: Value,
    ) -> Result<Value, RpcError> {
        self.drain(ctx);
        if self.proxies.iter().any(|p| p.deferred()) {
            ctx.block_on(|cx| self.catch_up(cx));
        }
        match self.begin(ctx, handle, op, &args) {
            (begun, Some(result)) => self.end(ctx, begun, result),
            (begun, None) => ctx.block_on(|cx| self.finish(cx, op, args, begun)),
        }
    }

    /// [`SessionCore::close`] for a blocking body (the benchmark's system
    /// under test and tests).
    pub fn shutdown(&mut self, ctx: &mut Ctx) {
        ctx.block_on(|cx| self.close(cx));
    }

    /// Hosts an object directly in this context under `service` — the
    /// same-context fast path (experiment E5): invocations through the
    /// returned handle are ordinary procedure calls, no messages at all.
    pub fn host_local(
        &mut self,
        service: impl Into<String>,
        object: Box<dyn crate::ServiceObject>,
    ) -> ProxyHandle {
        let service = service.into();
        let idx = self.proxies.len();
        self.by_service.insert(service.clone(), idx);
        let proxy = Box::new(crate::proxies::LocalProxy::new(service, object));
        push_exact_first(&mut self.proxies, proxy);
        ProxyHandle(idx)
    }

    /// Stats for one proxy.
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this core.
    pub fn stats(&self, handle: ProxyHandle) -> ProxyStats {
        self.proxies[handle.0].stats()
    }

    // -----------------------------------------------------------------
    // Tickets (hand-written poll-driven processes; kept for the benchmark)
    // -----------------------------------------------------------------

    /// Starts a non-blocking bind to `service`: issues the name lookup
    /// and returns a ticket to poll with [`SessionCore::poll_bind`].
    /// Waits (by retrying, never by blocking) up to 100ms of virtual
    /// time for the name to register, mirroring the blocking bind.
    pub fn bind_async(&mut self, cx: &mut ProcCx, service: &str) -> BindFuture {
        let deadline = cx.now() + Duration::from_millis(100);
        let state = self.start_lookup(cx, service, deadline);
        BindFuture(self.first_bind + push_exact_first(&mut self.binds, state))
    }

    fn start_lookup(&mut self, cx: &mut ProcCx, service: &str, deadline: SimTime) -> BindState {
        let mut chan = Box::new(Channel::new(
            "ns",
            self.binder.ns_endpoint(),
            ChannelConfig::default(),
        ));
        let call = chan.begin_call(cx.ctx(), "lookup", naming::name_arg(service));
        chan.flush(cx.ctx());
        BindState::Resolving {
            service: service.to_owned(),
            chan,
            call,
            deadline,
        }
    }

    /// Drives a non-blocking bind. Returns `Poll::Pending` with wakes
    /// registered (reply delivery / retransmission deadline / retry
    /// backoff) until the bind settles; the first `Ready` claims the
    /// result, later polls of the same ticket report a timeout. Like
    /// [`SessionCore::poll_call`], it drives every ticket of the core,
    /// and a bind whose backoff is over looks its name up again whichever
    /// ticket is polled.
    ///
    /// # Errors (inside `Poll::Ready`)
    ///
    /// * name-service errors (unknown name after the wait, transport),
    /// * [`RpcError::Wire`] if the binding metadata is malformed,
    /// * [`rpc::ErrorCode::Unavailable`] if the service chose a proxy
    ///   strategy the ticket surface does not implement (anything but
    ///   [`ProxySpec::Stub`]) — bind through the engine
    ///   ([`SessionCore::attach`]) instead.
    ///
    /// # Panics
    ///
    /// Panics if the ticket did not come from this core.
    pub fn poll_bind(
        &mut self,
        cx: &mut ProcCx,
        f: BindFuture,
    ) -> Poll<Result<AsyncHandle, RpcError>> {
        if let Err(e) = self.pump(cx) {
            return Poll::Ready(Err(e));
        }
        let r = match f.0.checked_sub(self.first_bind) {
            Some(i) => self.poll_bind_inner(cx, i),
            None => Poll::Ready(Err(RpcError::Timeout { attempts: 0 })),
        };
        self.drop_claimed_binds();
        self.arm(cx);
        r
    }

    fn poll_bind_inner(
        &mut self,
        cx: &mut ProcCx,
        i: usize,
    ) -> Poll<Result<AsyncHandle, RpcError>> {
        match &mut self.binds[i] {
            BindState::Resolving { chan, call, .. } => {
                let Some(result) = chan.try_take(*call) else {
                    return Poll::Pending;
                };
                let BindState::Resolving {
                    service, deadline, ..
                } = std::mem::replace(&mut self.binds[i], BindState::Claimed)
                else {
                    unreachable!()
                };
                match result {
                    Ok(rep) => Poll::Ready(self.settle_bind(&service, rep).map(AsyncHandle)),
                    Err(e) if naming::is_not_found(&e) && cx.now() < deadline => {
                        // Services register asynchronously at start: back
                        // off 1ms and look up again, exactly like the
                        // engine's bind_wait.
                        self.binds[i] = BindState::Backoff {
                            service,
                            retry_at: cx.now() + Duration::from_millis(1),
                            deadline,
                        };
                        Poll::Pending
                    }
                    Err(e) => Poll::Ready(Err(e)),
                }
            }
            // The pump looks the name up again once the backoff is over.
            BindState::Backoff { .. } => Poll::Pending,
            BindState::Claimed => Poll::Ready(Err(RpcError::Timeout { attempts: 0 })),
        }
    }

    /// Drops the claimed binds at the front, and the vector's block with
    /// the last of them: a settled bind costs its client nothing.
    fn drop_claimed_binds(&mut self) {
        let claimed = self
            .binds
            .iter()
            .take_while(|b| matches!(b, BindState::Claimed))
            .count();
        if claimed == self.binds.len() {
            self.binds = Vec::new();
        } else {
            self.binds.drain(..claimed);
        }
        self.first_bind += claimed;
    }

    /// Validates the resolved record and installs the async service: a
    /// service bound before keeps its channel, found by name (a client
    /// binds few services).
    fn settle_bind(&mut self, service: &str, rep: Value) -> Result<usize, RpcError> {
        if let Some(idx) = self.services.iter().position(|c| c.service() == service) {
            return Ok(idx);
        }
        let record = NameRecord::from_value(rep)?;
        let [spec_v, _] = crate::binder::split_binding_meta(&record.meta)?;
        let spec = ProxySpec::from_value(spec_v)?;
        if !matches!(spec, ProxySpec::Stub) {
            return Err(RpcError::Remote(rpc::RemoteError::new(
                rpc::ErrorCode::Unavailable,
                format!(
                    "service `{service}` chose proxy spec {spec:?}; the ticket \
                     surface implements stub-grade bindings only — bind smart proxies \
                     through SessionCore::attach"
                ),
            )));
        }
        let chan = Channel::new(service, record.endpoint, ChannelConfig::default());
        Ok(push_exact_first(&mut self.services, chan))
    }

    /// Stages a non-blocking call on an async-bound service and returns
    /// its future. The call is flushed into the channel's pipeline
    /// window immediately; redeem with [`SessionCore::poll_call`].
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this core.
    pub fn invoke_async(
        &mut self,
        cx: &mut ProcCx,
        handle: AsyncHandle,
        op: &str,
        args: Value,
    ) -> CallFuture {
        let chan = &mut self.services[handle.0];
        let call = chan.begin_call(cx.ctx(), op, args);
        chan.flush(cx.ctx());
        CallFuture {
            svc: handle.0,
            call,
        }
    }

    /// Drives one non-blocking call to completion: absorbs deliveries,
    /// fires retransmission timers, and either yields the settled result
    /// or registers the wakes that will complete it. It drives every
    /// ticket of the core, not only `f`: the other calls' replies are
    /// theirs, and their timers fire on time.
    ///
    /// # Errors (inside `Poll::Ready`)
    ///
    /// Same contract as [`rpc::Channel::call`]: `Timeout` after the
    /// retry budget, `Remote` for server-reported failures, `Stopped` on
    /// simulation shutdown.
    ///
    /// # Panics
    ///
    /// Panics if the future did not come from this core.
    pub fn poll_call(&mut self, cx: &mut ProcCx, f: CallFuture) -> Poll<Result<Value, RpcError>> {
        if let Err(e) = self.pump(cx) {
            return Poll::Ready(Err(e));
        }
        // Armed whether or not `f` settled: the caller may park after
        // this without polling its other tickets.
        self.arm(cx);
        match self.services[f.svc].try_take(f.call) {
            Some(result) => Poll::Ready(result),
            None => Poll::Pending,
        }
    }

    /// Every channel a ticket waits on: the bound services' and the
    /// in-flight binds' lookups.
    fn channels(&mut self) -> impl Iterator<Item = &mut Channel> {
        let lookups = self.binds.iter_mut().filter_map(|b| match b {
            BindState::Resolving { chan, .. } => Some(&mut **chan),
            _ => None,
        });
        self.services.iter_mut().chain(lookups)
    }

    /// One ticket poll's progress over every channel: each sends what it
    /// has staged and fires its due timers, the mailbox is drained once
    /// with each datagram handed to the channel whose server sent it,
    /// what no channel takes is dropped and counted, and what the replies
    /// made room for is sent. Then each bind whose backoff is over looks
    /// its name up again, so [`SessionCore::arm`] never arms an instant
    /// already past.
    fn pump(&mut self, cx: &mut ProcCx) -> Result<(), RpcError> {
        self.channels().for_each(|chan| chan.tick(cx));
        while let Some(msg) = cx.try_recv()? {
            if !self.offer(cx, &msg) {
                cx.obs().on_stray_dropped();
            }
        }
        self.channels().for_each(|chan| chan.flush(cx));
        for i in 0..self.binds.len() {
            match &self.binds[i] {
                BindState::Backoff {
                    service,
                    retry_at,
                    deadline,
                } if *retry_at <= cx.now() => {
                    let (service, deadline) = (service.clone(), *deadline);
                    self.binds[i] = self.start_lookup(cx, &service, deadline);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Hands `msg` to the channel whose server sent it ([`Channel::offer`]);
    /// `false` if no channel takes it. Only lookups share a server, the
    /// name server, and a reply's call id says whose it is.
    fn offer(&mut self, ctx: &mut Ctx, msg: &Message) -> bool {
        let id = match self.channels().filter(|c| c.server() == msg.src).count() {
            0 => return false,
            1 => None,
            _ => reply_id(msg),
        };
        self.channels()
            .find(|c| c.server() == msg.src && id.is_none_or(|id| c.awaits(id)))
            .is_some_and(|chan| chan.offer(ctx, msg))
    }

    /// Arms a wake at the earliest instant a ticket needs one: a channel's
    /// retransmit deadline or a bind's retry, always after the pump, so
    /// every retry still to come is in the future.
    fn arm(&mut self, cx: &mut ProcCx) {
        for deadline in self.channels().filter_map(|chan| chan.next_deadline()) {
            cx.wake_at(deadline);
        }
        for bind in &self.binds {
            if let BindState::Backoff { retry_at, .. } = bind {
                cx.wake_at(*retry_at);
            }
        }
    }

    /// Per-service channel statistics for an async binding (calls,
    /// retries, timeouts, batches).
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this core.
    pub fn async_stats(&self, handle: AsyncHandle) -> rpc::ChannelStats {
        self.services[handle.0].stats
    }
}

/// Pushes `item` and returns its index. The first push reserves room for
/// exactly one, not the standard four: a client binds one service far
/// more often than several. Later pushes grow as a `Vec` does.
fn push_exact_first<T>(v: &mut Vec<T>, item: T) -> usize {
    if v.capacity() == 0 {
        v.reserve_exact(1);
    }
    v.push(item);
    v.len() - 1
}

/// The call id of the first reply `msg` carries, if it carries one.
fn reply_id(msg: &Message) -> Option<u64> {
    match rpc::Packet::from_frame(&msg.payload).ok()? {
        rpc::Packet::Reply(rep) => Some(rep.call_id),
        rpc::Packet::Batch(batch) => batch.items.into_iter().find_map(|item| match item {
            rpc::Packet::Reply(rep) => Some(rep.call_id),
            _ => None,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use rpc::RemoteError;
    use simnet::{NetworkConfig, NodeId, Simulation};

    use super::*;
    use crate::{InterfaceDesc, OpDesc, ServiceBuilder, ServiceObject};

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

    /// A client binds one service 1 000 times, one bind after another.
    /// It never holds more than the bind in flight, and once the last is
    /// claimed it holds none, nor the block they lived in. Its first and
    /// last tickets, polled again, read `Timeout`: a claimed ticket names
    /// no newer bind.
    #[test]
    fn a_claimed_bind_frees_its_state() {
        const BINDS: usize = 1_000;
        let mut sim = Simulation::new(NetworkConfig::lan(), 1);
        let ns = naming::spawn_name_server(&sim, NodeId(0));
        ServiceBuilder::new("echo")
            .spec(ProxySpec::Stub)
            .object(|| Box::new(Echo))
            .spawn(&sim, NodeId(1), ns);
        let seen = Arc::new(Mutex::new(None));
        let out = Arc::clone(&seen);
        let mut core = SessionCore::new(ns);
        let (mut tickets, mut ticket, mut most) = (Vec::new(), None, 0);
        sim.spawn_poll("client", NodeId(2), move |cx: &mut ProcCx| {
            while tickets.len() < BINDS {
                let f = *ticket.get_or_insert_with(|| core.bind_async(cx, "echo"));
                most = most.max(core.binds.len());
                match core.poll_bind(cx, f) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(h) => {
                        assert_eq!(h, Ok(AsyncHandle(0)), "bind {}", tickets.len());
                        tickets.push(f);
                        ticket = None;
                    }
                }
            }
            let stale = [tickets[0], tickets[BINDS - 1]].map(|f| core.poll_bind(cx, f));
            let held = (core.binds.len(), core.binds.capacity());
            *out.lock().unwrap() = Some((most, held, stale));
            Poll::Ready(())
        });
        sim.run();
        let (most, held, stale) = seen.lock().unwrap().take().expect("the client finished");
        assert_eq!(most, 1, "bind states held at once");
        assert_eq!(held, (0, 0), "bind states (and room for them) left");
        let timeout = Poll::Ready(Err(RpcError::Timeout { attempts: 0 }));
        assert_eq!(stale, [timeout.clone(), timeout]);
    }
}
