//! The replicated server: a primary/backup group behind one service name.
//!
//! Every replica hosts its own copy of the service object. Writes go to
//! the primary, which assigns them a version, applies them, and
//! propagates `_apply {op, args, ver}` to each backup — synchronously
//! (RPC, reply gated on all backups) or asynchronously (one-way,
//! bounded staleness). Reads are served by any replica and return
//! `{val, ver}` so the proxy can enforce read-your-writes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use naming::NameClient;
use proxy_core::{
    dispatch_blocking, protocol, InterfaceDesc, ProxySpec, ReadTarget, ServiceObject,
};
use rpc::{
    endpoint_to_value, ErrorCode, RemoteError, Request, RpcClient, RpcError, RpcServer, Served,
    Stray, StrayVerdict,
};
use simnet::{Ctx, Endpoint, Message, NodeId, Simulation};
use wire::Value;

/// How the primary ships writes to its backups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Propagation {
    /// RPC to every backup before replying to the writer: backups never
    /// lag, at the price of write latency.
    Sync,
    /// Fire-and-forget notification: cheap writes, bounded staleness;
    /// the proxy's version check repairs reads that observe lag.
    Async,
}

/// Counters accumulated by one replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Reads served by this replica.
    pub reads: u64,
    /// Writes applied (as primary) or replayed (as backup).
    pub writes_applied: u64,
    /// Updates buffered out of order (backups only).
    pub buffered: u64,
    /// Writes rejected because this replica is not the primary.
    pub not_primary: u64,
    /// Missing updates recovered from the primary's log (gap repair).
    pub repaired: u64,
}

enum Role {
    Primary {
        backups: Vec<Endpoint>,
        propagation: Propagation,
        /// Recent writes kept for gap repair and late joiners.
        log: VecDeque<(u64, String, Value)>,
    },
    Backup {
        /// Filled in by the group spawner once the primary exists.
        primary: Arc<Mutex<Option<Endpoint>>>,
        /// Out-of-order updates waiting for their predecessors.
        pending: BTreeMap<u64, (String, Value)>,
    },
}

/// One member of a replica group.
pub struct ReplicaServer {
    service: String,
    object: Box<dyn ServiceObject>,
    iface: InterfaceDesc,
    version: u64,
    role: Role,
    rpc: RpcServer,
    /// Requests that arrived while the primary was mid-propagation;
    /// replayed before the next receive.
    requeued: VecDeque<Message>,
    /// Counters (readable via shared handles in tests).
    pub stats: ReplicaStats,
}

impl std::fmt::Debug for ReplicaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaServer")
            .field("service", &self.service)
            .field("version", &self.version)
            .field(
                "role",
                &match self.role {
                    Role::Primary { .. } => "primary",
                    Role::Backup { .. } => "backup",
                },
            )
            .finish()
    }
}

const LOG_CAP: usize = 1024;

impl ReplicaServer {
    /// Creates the primary member.
    pub fn primary(
        service: impl Into<String>,
        object: Box<dyn ServiceObject>,
        backups: Vec<Endpoint>,
        propagation: Propagation,
    ) -> ReplicaServer {
        let iface = object.interface();
        ReplicaServer {
            service: service.into(),
            object,
            iface,
            version: 0,
            role: Role::Primary {
                backups,
                propagation,
                log: VecDeque::new(),
            },
            rpc: RpcServer::new(),
            requeued: VecDeque::new(),
            stats: ReplicaStats::default(),
        }
    }

    /// Creates a backup member. The primary's endpoint is usually not
    /// known yet when backups spawn; the group spawner fills `primary`
    /// in before the simulation runs.
    pub fn backup(
        service: impl Into<String>,
        object: Box<dyn ServiceObject>,
        primary: Arc<Mutex<Option<Endpoint>>>,
    ) -> ReplicaServer {
        let iface = object.interface();
        ReplicaServer {
            service: service.into(),
            object,
            iface,
            version: 0,
            role: Role::Backup {
                primary,
                pending: BTreeMap::new(),
            },
            rpc: RpcServer::new(),
            requeued: VecDeque::new(),
            stats: ReplicaStats::default(),
        }
    }

    /// Serves forever (no name registration; the group spawner registers
    /// the service once, from the primary).
    pub fn run(mut self, ctx: &mut Ctx) {
        loop {
            let msg = match self.requeued.pop_front() {
                Some(m) => m,
                None => match ctx.recv() {
                    Ok(m) => m,
                    Err(_) => return,
                },
            };
            self.handle(ctx, &msg);
        }
    }

    fn handle(&mut self, ctx: &mut Ctx, msg: &Message) {
        // Split borrows: the dispatch closure may not touch `self.rpc`.
        let service = &self.service;
        let object = &mut self.object;
        let iface = &self.iface;
        let version = &mut self.version;
        let role = &mut self.role;
        let stats = &mut self.stats;
        let requeued = &mut self.requeued;
        let served = self.rpc.handle(ctx, msg, |ctx, req| {
            Self::execute(
                service, object, iface, version, role, stats, requeued, ctx, req,
            )
        });
        if let Served::Oneway(o) = served {
            if o.op == "_apply" {
                self.apply_notification(ctx, &o.args);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute(
        service: &str,
        object: &mut Box<dyn ServiceObject>,
        iface: &InterfaceDesc,
        version: &mut u64,
        role: &mut Role,
        stats: &mut ReplicaStats,
        requeued: &mut VecDeque<Message>,
        ctx: &mut Ctx,
        req: &Request,
    ) -> Result<Value, RemoteError> {
        match req.op.as_str() {
            protocol::OP_PING => Ok(Value::Null),
            protocol::OP_IFACE => Ok(iface.to_value()),
            "_ver" => Ok(Value::U64(*version)),
            "_fetch" => match role {
                // Gap repair: a backup asks for every logged update at
                // or after `from`.
                Role::Primary { log, .. } => {
                    let from = req
                        .args
                        .get_u64("from")
                        .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                    Ok(Value::record([(
                        "updates",
                        Value::list(log.iter().filter(|(v, _, _)| *v >= from).map(
                            |(v, op, args)| {
                                Value::record([
                                    ("ver", Value::U64(*v)),
                                    ("op", Value::str(op.clone())),
                                    ("args", args.clone()),
                                ])
                            },
                        )),
                    )]))
                }
                Role::Backup { .. } => Err(RemoteError::new(
                    ErrorCode::BadArgs,
                    "backups have no log to fetch",
                )),
            },
            "_apply" => {
                // Sync propagation arrives as an RPC.
                match role {
                    Role::Backup { .. } => {
                        Self::ingest_update(object, version, role, stats, requeued, ctx, &req.args);
                        Ok(Value::Null)
                    }
                    Role::Primary { .. } => Err(RemoteError::new(
                        ErrorCode::BadArgs,
                        "primary does not accept _apply",
                    )),
                }
            }
            op if iface.is_write(op) => match role {
                Role::Primary {
                    backups,
                    propagation,
                    log,
                } => {
                    let result = dispatch_blocking(object.as_mut(), ctx, op, &req.args)?;
                    *version += 1;
                    stats.writes_applied += 1;
                    log.push_back((*version, op.to_owned(), req.args.clone()));
                    if log.len() > LOG_CAP {
                        log.pop_front();
                    }
                    let update = Value::record([
                        ("svc", Value::str(service)),
                        ("op", Value::str(op)),
                        ("args", req.args.clone()),
                        ("ver", Value::U64(*version)),
                    ]);
                    match propagation {
                        Propagation::Async => {
                            for b in backups.iter() {
                                rpc::send_oneway(ctx, *b, "_apply", &update);
                            }
                        }
                        Propagation::Sync => {
                            for b in backups.iter() {
                                let mut client = RpcClient::new(*b);
                                // Requests arriving during propagation are
                                // requeued, not dropped.
                                let r = client.call_with_strays(
                                    ctx,
                                    "",
                                    "_apply",
                                    update.clone(),
                                    |_ctx, stray| match stray {
                                        Stray::Request(_, m) => {
                                            requeued.push_back((*m).clone());
                                            StrayVerdict::Consumed
                                        }
                                        Stray::Oneway(..) => StrayVerdict::Drop,
                                    },
                                );
                                if let Err(e) = r {
                                    // A backup missed a sync update (e.g.
                                    // partitioned); it will be stale until
                                    // heal + catch-up. Log-and-continue.
                                    let _ = e;
                                }
                            }
                        }
                    }
                    Ok(Value::record([
                        ("val", result),
                        ("ver", Value::U64(*version)),
                    ]))
                }
                Role::Backup { primary, .. } => {
                    stats.not_primary += 1;
                    let data = primary.lock().map(endpoint_to_value).unwrap_or(Value::Null);
                    Err(RemoteError::with_data(
                        ErrorCode::NotPrimary,
                        "writes must go to the primary",
                        data,
                    ))
                }
            },
            op if iface.is_read(op) => {
                let result = dispatch_blocking(object.as_mut(), ctx, op, &req.args)?;
                stats.reads += 1;
                Ok(Value::record([
                    ("val", result),
                    ("ver", Value::U64(*version)),
                ]))
            }
            op => dispatch_blocking(object.as_mut(), ctx, op, &req.args),
        }
    }

    fn apply_notification(&mut self, ctx: &mut Ctx, args: &Value) {
        let object = &mut self.object;
        let version = &mut self.version;
        let role = &mut self.role;
        let stats = &mut self.stats;
        let requeued = &mut self.requeued;
        Self::ingest_update(object, version, role, stats, requeued, ctx, args);
    }

    /// Applies an `_apply` update, buffering out-of-order versions and
    /// repairing persistent gaps from the primary's log.
    fn ingest_update(
        object: &mut Box<dyn ServiceObject>,
        version: &mut u64,
        role: &mut Role,
        stats: &mut ReplicaStats,
        requeued: &mut VecDeque<Message>,
        ctx: &mut Ctx,
        args: &Value,
    ) {
        let Role::Backup { pending, primary } = role else {
            return;
        };
        let (Ok(ver), Ok(op)) = (args.get_u64("ver"), args.get_str("op")) else {
            return;
        };
        let op_args = args.get("args").cloned().unwrap_or(Value::Null);
        if ver <= *version {
            return; // duplicate
        }
        pending.insert(ver, (op.to_owned(), op_args));
        Self::drain_pending(object, version, pending, stats, ctx);
        if pending.is_empty() {
            return;
        }
        stats.buffered += pending.len() as u64;
        // A gap: some predecessor was lost in flight. Fetch the missing
        // range from the primary's log (requests arriving meanwhile are
        // requeued, not dropped).
        let Some(primary_ep) = *primary.lock() else {
            return;
        };
        let mut rpc = RpcClient::new(primary_ep);
        let from = *version + 1;
        // Updates propagated while we wait for the fetch reply arrive as
        // stray one-ways; losing them would leave the backup permanently
        // behind (the fetch was issued before they were logged, and no
        // later update may ever come to expose the new gap). Buffer them
        // and merge after the reply.
        let mut late_applies: Vec<Value> = Vec::new();
        let reply = rpc.call_with_strays(
            ctx,
            "",
            "_fetch",
            Value::record([("from", Value::U64(from))]),
            |_ctx, stray| match stray {
                Stray::Request(_, m) => {
                    requeued.push_back((*m).clone());
                    StrayVerdict::Consumed
                }
                Stray::Oneway(ow, _) if ow.op == "_apply" => {
                    late_applies.push(ow.args.clone());
                    StrayVerdict::Consumed
                }
                Stray::Oneway(..) => StrayVerdict::Drop,
            },
        );
        if let Ok(reply) = reply {
            if let Ok(updates) = reply.get_list("updates") {
                for u in updates {
                    if let (Ok(v), Ok(op)) = (u.get_u64("ver"), u.get_str("op")) {
                        if v > *version && !pending.contains_key(&v) {
                            pending.insert(
                                v,
                                (op.to_owned(), u.get("args").cloned().unwrap_or(Value::Null)),
                            );
                        }
                    }
                }
            }
            for u in &late_applies {
                if let (Ok(v), Ok(op)) = (u.get_u64("ver"), u.get_str("op")) {
                    if v > *version && !pending.contains_key(&v) {
                        pending.insert(
                            v,
                            (op.to_owned(), u.get("args").cloned().unwrap_or(Value::Null)),
                        );
                    }
                }
            }
            let before = *version;
            Self::drain_pending(object, version, pending, stats, ctx);
            stats.repaired += *version - before;
        }
    }

    /// Applies every consecutive pending update.
    fn drain_pending(
        object: &mut Box<dyn ServiceObject>,
        version: &mut u64,
        pending: &mut BTreeMap<u64, (String, Value)>,
        stats: &mut ReplicaStats,
        ctx: &mut Ctx,
    ) {
        while let Some(entry) = pending.remove(&(*version + 1)) {
            let (op, op_args) = entry;
            if dispatch_blocking(object.as_mut(), ctx, &op, &op_args).is_ok() {
                stats.writes_applied += 1;
            }
            *version += 1;
        }
    }
}

/// Configuration for [`spawn_replica_group`].
#[derive(Debug, Clone)]
pub struct ReplicaGroupConfig {
    /// The service name to register.
    pub service: String,
    /// One node per replica; the first hosts the primary.
    pub nodes: Vec<NodeId>,
    /// Write propagation mode.
    pub propagation: Propagation,
    /// Read placement the proxies should use.
    pub read_target: ReadTarget,
}

/// Spawns a primary/backup group and registers the service with a
/// [`ProxySpec::Replicated`] binding. Returns the replica endpoints
/// (primary first).
///
/// # Panics
///
/// Panics if `nodes` is empty.
pub fn spawn_replica_group<F>(
    sim: &Simulation,
    ns: Endpoint,
    config: ReplicaGroupConfig,
    make_object: F,
) -> Vec<Endpoint>
where
    F: Fn() -> Box<dyn ServiceObject> + Send + Sync + 'static,
{
    assert!(!config.nodes.is_empty(), "replica group needs >= 1 node");
    let make_object = std::sync::Arc::new(make_object);

    // Spawn backups first so the primary knows their endpoints; the
    // primary's own endpoint is published to them through a shared slot
    // the spawner fills in below (before the simulation runs).
    let primary_slot: Arc<Mutex<Option<Endpoint>>> = Arc::new(Mutex::new(None));
    let mut backups = Vec::new();
    for (i, node) in config.nodes.iter().copied().enumerate().skip(1) {
        let mk = std::sync::Arc::clone(&make_object);
        let service = config.service.clone();
        let slot = Arc::clone(&primary_slot);
        let ep = sim.spawn(format!("replica-{service}-{i}"), node, move |ctx| {
            ReplicaServer::backup(service, mk(), slot).run(ctx);
        });
        backups.push(ep);
    }

    let service = config.service.clone();
    let mk = std::sync::Arc::clone(&make_object);
    let propagation = config.propagation;
    let read_target = config.read_target;
    let backups_for_primary = backups.clone();
    let primary = sim.spawn(
        format!("replica-{service}-primary"),
        config.nodes[0],
        move |ctx| {
            let object = mk();
            let iface = object.interface();
            let me = ctx.endpoint();
            let spec = ProxySpec::Replicated {
                primary: me,
                replicas: std::iter::once(me)
                    .chain(backups_for_primary.iter().copied())
                    .collect(),
                read_target,
            };
            let meta = Value::record([("spec", spec.to_value()), ("iface", iface.to_value())]);
            let mut nc = NameClient::new(ns);
            match nc.register(ctx, &service, me, meta) {
                Ok(_) => {}
                Err(RpcError::Stopped) => return,
                Err(e) => panic!("replica group `{service}` failed to register: {e}"),
            }
            ReplicaServer::primary(service, object, backups_for_primary, propagation).run(ctx);
        },
    );

    *primary_slot.lock() = Some(primary);

    let mut all = vec![primary];
    all.extend(backups);
    all
}
