//! The migratable service host and its forwarder after-life: one
//! [`Control`] part on the server engine.

use proxy_core::{
    serve, Control, FactoryRegistry, InterfaceDesc, Io, ProxySpec, ServiceObject, ServiceServer,
    Strays,
};
use rpc::{
    endpoint_from_value, endpoint_to_value, Channel, ChannelConfig, ErrorCode, RemoteError,
    Request, RpcError,
};
use simnet::{AsyncCx, Ctx, Endpoint, NodeId, Simulation};
use wire::Value;

/// The administrative operation that orders a move: its argument is the
/// target node (a `u64`), its answer the new endpoint, `[node, port]`.
pub const OP_MIGRATE: &str = "_migrate";
/// Asks a host (or forwarder) where the object currently lives; the
/// answer is an endpoint, `[node, port]`.
pub const OP_LOCATE: &str = "_locate";

/// How a forwarder answers requests for a departed object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardMode {
    /// Redirect to the immediate next hop: clients traverse the chain
    /// themselves (lazy compression; each traversal is one extra RTT per
    /// hop, paid once per client).
    NextHop,
    /// Resolve the chain server-side (`_locate` recursion, cached) and
    /// redirect clients straight to the current home (eager compression;
    /// the forwarder pays the chain walk once, every client saves it).
    Resolve,
}

/// Configuration for a migratable service.
#[derive(Debug, Clone)]
pub struct MigratableConfig {
    /// Service name registered with the name service.
    pub service: String,
    /// Proxy the service asks its clients to run.
    pub spec: ProxySpec,
    /// Whether each migration also updates the name service (when false,
    /// moved objects are reachable only through forwarding chains).
    pub update_naming: bool,
    /// Forwarder behaviour.
    pub forward_mode: ForwardMode,
}

impl MigratableConfig {
    /// Stub-proxy service with forwarding chains (no naming updates) and
    /// next-hop redirects — the configuration experiment E10 studies.
    pub fn new(service: impl Into<String>) -> MigratableConfig {
        MigratableConfig {
            service: service.into(),
            spec: ProxySpec::Stub,
            update_naming: false,
            forward_mode: ForwardMode::NextHop,
        }
    }

    /// Also update the name service on every migration.
    pub fn with_naming_updates(mut self) -> MigratableConfig {
        self.update_naming = true;
        self
    }

    /// Sets the forwarder behaviour.
    pub fn with_forward_mode(mut self, mode: ForwardMode) -> MigratableConfig {
        self.forward_mode = mode;
        self
    }
}

/// Error from [`request_migration`].
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationError {
    /// The migrate call failed.
    Rpc(RpcError),
    /// The reply did not carry the new endpoint.
    BadReply,
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::Rpc(e) => write!(f, "migration call failed: {e}"),
            MigrationError::BadReply => write!(f, "migration reply missing new endpoint"),
        }
    }
}

impl std::error::Error for MigrationError {}

/// Orders the object hosted at `host` to move to `target`, returning its
/// new endpoint. The old host keeps forwarding.
///
/// # Errors
///
/// [`MigrationError`] if the call fails or the reply is malformed.
pub async fn request_migration(
    cx: AsyncCx,
    host: Endpoint,
    target: NodeId,
) -> Result<Endpoint, MigrationError> {
    let mut client = Channel::new("", host, ChannelConfig::with_depth(1));
    let args = Value::U64(target.0.into());
    let reply = client.call(cx, "", OP_MIGRATE, args, None).await;
    endpoint_from_value(&reply.map_err(MigrationError::Rpc)?).map_err(|_| MigrationError::BadReply)
}

/// Spawns the initial host of a migratable service on `node`.
///
/// The object's type (its `InterfaceDesc::type_name`) must be buildable
/// by `factories`, since every migration reconstructs it from a snapshot.
pub fn spawn_migratable<F>(
    sim: &Simulation,
    node: NodeId,
    ns: Endpoint,
    config: MigratableConfig,
    factories: FactoryRegistry,
    make_object: F,
) -> Endpoint
where
    F: FnOnce() -> Box<dyn ServiceObject> + Send + 'static,
{
    let label = format!("migratable-{}", config.service);
    sim.spawn_async(label, node, move |cx| {
        serve(cx, move |_| {
            let host = Host::new(config, ns, factories, make_object());
            // Only the very first host registers the name.
            let meta = proxy_core::binding_meta(&host.config.spec, &host.iface);
            ServiceServer::new(host).register(ns, meta)
        })
    })
}

/// A migratable service's control part: it serves the object until a
/// `_migrate` order arrives, then forwards for the rest of its life.
#[derive(Debug)]
struct Host {
    config: MigratableConfig,
    ns: Endpoint,
    factories: FactoryRegistry,
    iface: InterfaceDesc,
    state: State,
}

#[derive(Debug)]
enum State {
    /// The object lives here.
    Home(Box<dyn ServiceObject>),
    /// The object left for `next_hop`. A [`ForwardMode::Resolve`]
    /// forwarder walks the chain once, to `resolved`.
    Forwarding {
        next_hop: Endpoint,
        resolved: Option<Endpoint>,
    },
}

/// Most `_locate` calls one chain walk makes.
const MAX_WALK: u32 = 32;

impl Host {
    fn new(
        config: MigratableConfig,
        ns: Endpoint,
        factories: FactoryRegistry,
        object: Box<dyn ServiceObject>,
    ) -> Host {
        Host {
            config,
            ns,
            factories,
            iface: object.interface(),
            state: State::Home(object),
        }
    }

    /// Spawns the context that serves this host on `node`.
    fn spawn(self, ctx: &Ctx, node: NodeId) -> Endpoint {
        let label = format!("migratable-{}", self.config.service);
        ctx.spawn_async(label, node, move |cx| {
            serve(cx, move |_| ServiceServer::new(self))
        })
    }

    /// Moves the object to a new host on `req`'s node — updating the
    /// name service first, if configured — and becomes its forwarder.
    async fn migrate(&mut self, io: &Io, req: &Request) -> Result<Value, RemoteError> {
        let bad_args = |e: String| RemoteError::new(ErrorCode::BadArgs, e);
        let node = req.args.as_u64();
        let node = node.ok_or_else(|| bad_args("expected the target node".into()))?;
        let node =
            NodeId(u32::try_from(node).map_err(|_| bad_args("node id out of range".into()))?);
        let State::Home(object) = &self.state else {
            unreachable!("only a home migrates")
        };
        let restored = self
            .factories
            .create(&self.iface.type_name, &object.snapshot()?)?;
        let host = Host::new(
            self.config.clone(),
            self.ns,
            self.factories.clone(),
            restored,
        );
        let new_ep = io.with(|ctx| host.spawn(ctx, node));
        if self.config.update_naming {
            // Answered or given up on: either way the object has moved.
            let binding = naming::binding_args(&self.config.service, new_ep, Value::Null);
            let _ = io.call(self.ns, "update", binding, Strays::Drop).await;
        }
        self.state = State::Forwarding {
            next_hop: new_ep,
            resolved: None,
        };
        io.with(|ctx| {
            ctx.trace(ctx.current_span(), || obs::NetEventKind::Migrated {
                service: self.config.service.clone(),
                from: ctx.endpoint().into(),
                to: new_ep.into(),
            })
        });
        Ok(endpoint_to_value(new_ep))
    }
}

impl Control for Host {
    fn name(&self) -> &str {
        &self.config.service
    }

    async fn execute(&mut self, io: &Io, req: &Request) -> Result<Value, RemoteError> {
        let object = match &mut self.state {
            State::Home(object) => object,
            State::Forwarding { next_hop, resolved } => {
                let target = resolved.unwrap_or(*next_hop);
                if req.op == OP_LOCATE {
                    return Ok(endpoint_to_value(target));
                }
                io.with(|ctx| {
                    ctx.trace(ctx.current_span(), || obs::NetEventKind::Forwarded {
                        from: ctx.endpoint().into(),
                        to: target.into(),
                    })
                });
                let moved = endpoint_to_value(target);
                return Err(RemoteError::with_data(
                    ErrorCode::Moved,
                    "object has migrated",
                    moved,
                ));
            }
        };
        match req.op.as_str() {
            OP_LOCATE => Ok(io.with(|ctx| endpoint_to_value(ctx.endpoint()))),
            OP_MIGRATE => self.migrate(io, req).await,
            op if op.starts_with('_') => Err(RemoteError::new(ErrorCode::NoSuchOp, op.to_owned())),
            op => {
                let time = object.service_time(op, &req.args);
                if !time.is_zero() {
                    io.sleep(time).await;
                }
                io.with(|ctx| object.dispatch(ctx, op, &req.args))
            }
        }
    }

    /// A resolving forwarder walks the chain once, when the first
    /// datagram after the move arrives, before answering it.
    async fn intercept(&mut self, io: &Io) {
        let State::Forwarding {
            next_hop,
            resolved: None,
        } = self.state
        else {
            return;
        };
        if self.config.forward_mode != ForwardMode::Resolve {
            return;
        }
        let (mut hop, mut calls) = (next_hop, 0);
        let end = loop {
            let (located, _) = io.call(hop, OP_LOCATE, Value::Null, Strays::Drop).await;
            match located.ok().and_then(|v| endpoint_from_value(&v).ok()) {
                Some(next) if next != hop && calls + 1 < MAX_WALK => {
                    (hop, calls) = (next, calls + 1)
                }
                Some(next) if next != hop => break next,
                _ => break hop,
            }
        };
        self.state = State::Forwarding {
            next_hop,
            resolved: Some(end),
        };
    }
}
