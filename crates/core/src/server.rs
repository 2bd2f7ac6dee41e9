//! The service context: a process hosting objects behind the proxy
//! protocol.
//!
//! A [`ServiceServer`] is the paper's *server context*: it owns a
//! [`ServiceObject`], registers it with the name service together with
//! the [`ProxySpec`] its clients must run, and then serves the proxy
//! protocol — ordinary operations, plus the system operations that smart
//! proxies rely on (interface fetch, invalidation subscriptions,
//! checkout/checkin for migration).

use naming::NameClient;
use rpc::{
    endpoint_from_value, send_oneway, ErrorCode, RemoteError, Request, RpcError, RpcServer,
    ServeStats, Served,
};
use simnet::{Ctx, Endpoint, NodeId, Simulation};
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

/// A process hosting one service object behind the proxy protocol.
pub struct ServiceServer {
    core: Core,
    rpc: RpcServer,
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
    /// Creates a server hosting `object` under `name`, exporting `spec`
    /// as the proxy its clients must run.
    pub fn new(
        name: impl Into<String>,
        object: Box<dyn ServiceObject>,
        spec: ProxySpec,
    ) -> ServiceServer {
        let iface = object.interface();
        ServiceServer {
            core: Core {
                name: name.into(),
                sharers: Sharers::new(sharer_cap(&spec)),
                spec,
                iface,
                object: Some(object),
                holder: None,
                factories: None,
                checkpoint: None,
                writes_since_checkpoint: 0,
                stats: ServerStats::default(),
            },
            rpc: RpcServer::new(),
        }
    }

    /// Supplies the factory registry needed to restore checked-in
    /// objects (required for [`ProxySpec::Migratory`] services).
    pub fn with_factories(mut self, factories: FactoryRegistry) -> ServiceServer {
        self.core.factories = Some(factories);
        self
    }

    /// Enables periodic checkpointing of the object's snapshot to the
    /// node's stable storage. Combine with [`ServiceBuilder::recovered`]
    /// to survive crashes.
    pub fn with_checkpointing(mut self, policy: CheckpointPolicy) -> ServiceServer {
        self.core.checkpoint = Some(policy);
        self
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// The hosted object's interface.
    pub fn interface(&self) -> &InterfaceDesc {
        &self.core.iface
    }

    /// The binding metadata published to the name service:
    /// `{spec, iface}`.
    pub fn meta(&self) -> Value {
        Value::record([
            ("spec", self.core.spec.to_value()),
            ("iface", self.core.iface.to_value()),
        ])
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        self.core.stats
    }

    /// Transport-level counters (duplicate suppression etc.).
    pub fn rpc_stats(&self) -> ServeStats {
        self.rpc.stats
    }

    /// Registers this service with the name server at `ns`.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the registration call.
    pub fn register(&self, ctx: &mut Ctx, ns: Endpoint) -> Result<(), RpcError> {
        let mut nc = NameClient::new(ns);
        nc.register(ctx, &self.core.name, ctx.endpoint(), self.meta())?;
        Ok(())
    }

    /// Processes one incoming datagram (for custom server loops).
    pub fn handle_msg(&mut self, ctx: &mut Ctx, msg: &simnet::Message) -> Served {
        let core = &mut self.core;
        let served = self.rpc.handle(ctx, msg, |ctx, req| core.execute(ctx, req));
        // Publish the latest counters so the unified run report always
        // reflects this service, even if the process never exits.
        ctx.obs().set_server_stats(&self.core.name, self.core.stats);
        served
    }

    /// Registers with the name service and serves until shutdown.
    ///
    /// # Panics
    ///
    /// Panics if registration fails for a reason other than simulation
    /// shutdown.
    pub fn run(mut self, ctx: &mut Ctx, ns: Endpoint) {
        match self.register(ctx, ns) {
            Ok(()) => {}
            Err(RpcError::Stopped) => return,
            Err(e) => panic!("service `{}` failed to register: {e}", self.core.name),
        }
        while let Ok(msg) = ctx.recv() {
            self.handle_msg(ctx, &msg);
        }
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
        let ServiceBuilder {
            name,
            spec,
            make_object,
            factories,
            checkpoint,
            recover,
        } = self;
        let make_object = make_object
            .unwrap_or_else(|| panic!("service `{name}` spawned without an object closure"));
        assert!(
            !recover || factories.is_some(),
            "service `{name}`: recovery needs a factory registry to rebuild snapshots"
        );
        let label = format!("svc-{name}");
        sim.spawn(label, node, move |ctx| {
            let default = make_object();
            let object = match (&checkpoint, recover) {
                (Some(policy), true) => match policy.store.load(ctx.node(), &name) {
                    Some(snapshot) => factories
                        .as_ref()
                        .expect("checked above")
                        .create(&default.interface().type_name, &snapshot)
                        .unwrap_or(default),
                    None => default,
                },
                _ => default,
            };
            let mut server = ServiceServer::new(name, object, spec);
            if let Some(factories) = factories {
                server = server.with_factories(factories);
            }
            if let Some(policy) = checkpoint {
                server = server.with_checkpointing(policy);
            }
            server.run(ctx, ns);
        })
    }
}
