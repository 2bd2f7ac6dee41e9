//! The migratable service host and its forwarder after-life.

use naming::NameClient;
use proxy_core::{
    dispatch_blocking, protocol, FactoryRegistry, InterfaceDesc, ProxySpec, ServiceObject,
};
use rpc::{
    endpoint_from_value, endpoint_to_value, ErrorCode, RemoteError, Request, RpcClient, RpcError,
    RpcServer,
};
use simnet::{Ctx, Endpoint, NodeId, Simulation};
use wire::Value;

/// The administrative operation that orders a move.
pub const OP_MIGRATE: &str = "_migrate";
/// Asks a host (or forwarder) where the object currently lives.
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
pub fn request_migration(
    ctx: &mut Ctx,
    host: Endpoint,
    target: NodeId,
) -> Result<Endpoint, MigrationError> {
    let mut client = RpcClient::new(host);
    let reply = client
        .call(
            ctx,
            OP_MIGRATE,
            Value::record([("node", Value::U64(target.0.into()))]),
        )
        .map_err(MigrationError::Rpc)?;
    reply
        .get("ep")
        .and_then(|v| endpoint_from_value(v).ok())
        .ok_or(MigrationError::BadReply)
}

/// State shipped to a freshly spawned host.
struct HostSeed {
    config: MigratableConfig,
    ns: Endpoint,
    factories: FactoryRegistry,
    object: Box<dyn ServiceObject>,
    /// Only the very first host registers the name.
    register: bool,
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
    sim.spawn(label, node, move |ctx| {
        host_body(
            ctx,
            HostSeed {
                config,
                ns,
                factories,
                object: make_object(),
                register: true,
            },
        );
    })
}

/// Serves the object until a migration order arrives, then becomes a
/// forwarder for the rest of the process's life.
fn host_body(ctx: &mut Ctx, seed: HostSeed) {
    let HostSeed {
        config,
        ns,
        factories,
        mut object,
        register,
    } = seed;
    let iface = object.interface();

    if register {
        let meta = Value::record([
            ("spec", config.spec.to_value()),
            ("iface", iface.to_value()),
        ]);
        let mut nc = NameClient::new(ns);
        match nc.register(ctx, &config.service, ctx.endpoint(), meta) {
            Ok(_) => {}
            Err(RpcError::Stopped) => return,
            Err(e) => panic!("migratable `{}` failed to register: {e}", config.service),
        }
    }

    let mut rpc = RpcServer::new();
    let mut departed_to: Option<Endpoint> = None;

    while departed_to.is_none() {
        let msg = match ctx.recv() {
            Ok(m) => m,
            Err(_) => return,
        };
        let obj = &mut object;
        let departed = &mut departed_to;
        let cfg = &config;
        let ifc = &iface;
        let facs = &factories;
        rpc.handle(ctx, &msg, |ctx, req| {
            execute_host(ctx, req, obj, ifc, cfg, facs, ns, departed)
        });
    }

    forwarder_body(
        ctx,
        rpc,
        departed_to.expect("departed"),
        config.forward_mode,
    );
}

#[allow(clippy::too_many_arguments)]
fn execute_host(
    ctx: &mut Ctx,
    req: &Request,
    object: &mut Box<dyn ServiceObject>,
    iface: &InterfaceDesc,
    config: &MigratableConfig,
    factories: &FactoryRegistry,
    ns: Endpoint,
    departed: &mut Option<Endpoint>,
) -> Result<Value, RemoteError> {
    match req.op.as_str() {
        protocol::OP_PING => Ok(Value::Null),
        protocol::OP_IFACE => Ok(iface.to_value()),
        protocol::OP_SNAPSHOT => object.snapshot(),
        OP_LOCATE => Ok(endpoint_to_value(ctx.endpoint())),
        OP_MIGRATE => {
            let node = NodeId(
                u32::try_from(
                    req.args
                        .get_u64("node")
                        .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?,
                )
                .map_err(|_| RemoteError::new(ErrorCode::BadArgs, "node id out of range"))?,
            );
            let state = object.snapshot()?;
            let restored = factories.create(&iface.type_name, &state)?;
            let seed = HostSeed {
                config: config.clone(),
                ns,
                factories: factories.clone(),
                object: restored,
                register: false,
            };
            let label = format!("migratable-{}", config.service);
            let new_ep = ctx.spawn(label, node, move |cctx| host_body(cctx, seed));
            if config.update_naming {
                let mut nc = NameClient::new(ns);
                let _ = nc.update(ctx, &config.service, new_ep, Value::Null);
            }
            *departed = Some(new_ep);
            ctx.trace(simnet::TraceEvent::Migrated {
                service: config.service.clone(),
                from: ctx.endpoint(),
                to: new_ep,
                span: ctx.current_span(),
            });
            Ok(Value::record([("ep", endpoint_to_value(new_ep))]))
        }
        op if op.starts_with('_') => Err(RemoteError::new(ErrorCode::NoSuchOp, op.to_owned())),
        op => dispatch_blocking(object.as_mut(), ctx, op, &req.args),
    }
}

/// The after-life of a host whose object departed: answer everything
/// with a redirect.
fn forwarder_body(ctx: &mut Ctx, mut rpc: RpcServer, next_hop: Endpoint, mode: ForwardMode) {
    // For `Resolve` mode: the chain-walk result, refreshed lazily when a
    // redirected client bounces back (it won't — it goes to the target —
    // so in practice resolved once and cached).
    let mut resolved: Option<Endpoint> = None;

    while let Ok(msg) = ctx.recv() {
        let target = match mode {
            ForwardMode::NextHop => next_hop,
            ForwardMode::Resolve => match resolved {
                Some(ep) => ep,
                None => {
                    let ep = resolve_chain(ctx, next_hop);
                    resolved = Some(ep);
                    ep
                }
            },
        };
        rpc.handle(ctx, &msg, |fctx, req| match req.op.as_str() {
            OP_LOCATE => Ok(endpoint_to_value(target)),
            _ => {
                fctx.trace(simnet::TraceEvent::Forwarded {
                    from: fctx.endpoint(),
                    to: target,
                    span: fctx.current_span(),
                });
                Err(RemoteError::with_data(
                    ErrorCode::Moved,
                    "object has migrated",
                    endpoint_to_value(target),
                ))
            }
        });
    }
}

/// Walks the forwarding chain via `_locate` until it reaches a live host
/// (which answers with its own endpoint) or the walk stops progressing.
fn resolve_chain(ctx: &mut Ctx, first: Endpoint) -> Endpoint {
    let mut current = first;
    for _ in 0..32 {
        let mut client = RpcClient::new(current);
        match client.call(ctx, OP_LOCATE, Value::Null) {
            Ok(v) => match endpoint_from_value(&v) {
                Ok(ep) if ep != current => current = ep,
                _ => return current,
            },
            Err(_) => return current,
        }
    }
    current
}
