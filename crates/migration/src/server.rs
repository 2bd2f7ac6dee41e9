//! The migratable service host and its forwarder after-life: one
//! [`Control`] part on the server engine.

use proxy_core::{
    protocol, server_process, Control, FactoryRegistry, InterfaceDesc, Outcome, ProxySpec,
    ServiceObject, ServiceServer, Step, Strays,
};
use rpc::{
    endpoint_from_value, endpoint_to_value, ErrorCode, RemoteError, Request, RpcClient, RpcError,
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
    sim.spawn_poll(
        label,
        node,
        server_process(move |ctx| {
            let host = Host::new(config, ns, factories, make_object());
            // Only the very first host registers the name.
            let spec = host.config.spec.to_value();
            let meta = Value::record([("spec", spec), ("iface", host.iface.to_value())]);
            ServiceServer::new(host).register(ctx, ns, meta)
        }),
    )
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
    /// The object lives here; `moving` is its new home while the
    /// `_migrate` that made it waits for the naming update.
    Home {
        object: Box<dyn ServiceObject>,
        moving: Option<Endpoint>,
    },
    /// The object left for `next_hop`. A [`ForwardMode::Resolve`]
    /// forwarder walks the chain once: `walk` is the hop being asked and
    /// the calls made so far, `resolved` where the walk ended.
    Forwarding {
        next_hop: Endpoint,
        walk: Option<(Endpoint, u32)>,
        resolved: Option<Endpoint>,
    },
}

/// Most `_locate` calls one chain walk makes.
const MAX_WALK: u32 = 32;

/// Asks `hop` where the object is.
fn locate(hop: Endpoint) -> Step {
    Step::Call(hop, OP_LOCATE, Value::Null, Strays::Drop)
}

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
            state: State::Home {
                object,
                moving: None,
            },
        }
    }

    /// Moves the object to a new host on `req`'s node; sends the naming
    /// update first, if configured.
    fn migrate(&mut self, ctx: &mut Ctx, req: &Request) -> Result<Step, RemoteError> {
        let bad_args = |e: String| RemoteError::new(ErrorCode::BadArgs, e);
        let node = req
            .args
            .get_u64("node")
            .map_err(|e| bad_args(e.to_string()))?;
        let node =
            NodeId(u32::try_from(node).map_err(|_| bad_args("node id out of range".into()))?);
        let State::Home { object, moving } = &mut self.state else {
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
        let label = format!("migratable-{}", self.config.service);
        let process = server_process(move |_| ServiceServer::new(host));
        let new_ep = ctx.spawn_poll(label, node, process);
        if !self.config.update_naming {
            return Ok(self.depart(ctx, new_ep));
        }
        *moving = Some(new_ep);
        let binding = naming::binding_args(&self.config.service, new_ep, Value::Null);
        Ok(Step::Call(self.ns, "update", binding, Strays::Drop))
    }

    /// Becomes a forwarder to `new_ep` and answers the `_migrate`.
    fn depart(&mut self, ctx: &mut Ctx, new_ep: Endpoint) -> Step {
        self.state = State::Forwarding {
            next_hop: new_ep,
            walk: None,
            resolved: None,
        };
        ctx.trace(ctx.current_span(), || obs::NetEventKind::Migrated {
            service: self.config.service.clone(),
            from: ctx.endpoint().into(),
            to: new_ep.into(),
        });
        Step::Reply(Ok(Value::record([("ep", endpoint_to_value(new_ep))])))
    }
}

impl Control for Host {
    fn name(&self) -> &str {
        &self.config.service
    }

    fn execute(&mut self, ctx: &mut Ctx, req: &Request) -> Step {
        let object = match &mut self.state {
            State::Home { object, .. } => object,
            State::Forwarding {
                next_hop, resolved, ..
            } => {
                let target = resolved.unwrap_or(*next_hop);
                if req.op == OP_LOCATE {
                    return Step::Reply(Ok(endpoint_to_value(target)));
                }
                ctx.trace(ctx.current_span(), || obs::NetEventKind::Forwarded {
                    from: ctx.endpoint().into(),
                    to: target.into(),
                });
                let moved = endpoint_to_value(target);
                let e = RemoteError::with_data(ErrorCode::Moved, "object has migrated", moved);
                return Step::Reply(Err(e));
            }
        };
        Step::Reply(match req.op.as_str() {
            protocol::OP_PING => Ok(Value::Null),
            protocol::OP_IFACE => Ok(self.iface.to_value()),
            protocol::OP_SNAPSHOT => object.snapshot(),
            OP_LOCATE => Ok(endpoint_to_value(ctx.endpoint())),
            OP_MIGRATE => {
                return self
                    .migrate(ctx, req)
                    .unwrap_or_else(|e| Step::Reply(Err(e)))
            }
            op if op.starts_with('_') => Err(RemoteError::new(ErrorCode::NoSuchOp, op.to_owned())),
            op => match object.service_time(op, &req.args) {
                time if time.is_zero() => object.dispatch(ctx, op, &req.args),
                time => return Step::Sleep(time),
            },
        })
    }

    fn resume(&mut self, ctx: &mut Ctx, req: Option<&Request>, outcome: Outcome) -> Step {
        match &mut self.state {
            // The naming update answered (or gave up): either way the
            // object has moved.
            State::Home {
                moving: Some(new_ep),
                ..
            } => {
                let new_ep = *new_ep;
                self.depart(ctx, new_ep)
            }
            State::Home { object, .. } => {
                let req = req.expect("an operation's service time is a request's");
                Step::Reply(object.dispatch(ctx, &req.op, &req.args))
            }
            State::Forwarding { walk, resolved, .. } => {
                let (hop, calls) = walk.take().expect("a chain walk is under way");
                let located = outcome
                    .result
                    .ok()
                    .and_then(|v| endpoint_from_value(&v).ok());
                match located {
                    Some(next) if next != hop && calls + 1 < MAX_WALK => {
                        *walk = Some((next, calls + 1));
                        return locate(next);
                    }
                    Some(next) if next != hop => *resolved = Some(next),
                    _ => *resolved = Some(hop),
                }
                Step::Reply(Ok(Value::Null))
            }
        }
    }

    /// A resolving forwarder walks the chain once, when the first
    /// datagram after the move arrives, before answering it.
    fn intercept(&mut self) -> Option<Step> {
        match &mut self.state {
            State::Forwarding {
                next_hop,
                walk,
                resolved: None,
            } if self.config.forward_mode == ForwardMode::Resolve => {
                *walk = Some((*next_hop, 0));
                Some(locate(*next_hop))
            }
            _ => None,
        }
    }
}
