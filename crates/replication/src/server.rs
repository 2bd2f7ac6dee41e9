//! The replicated server: a primary/backup group behind one service name.
//!
//! Every replica hosts its own copy of the service object. Writes go to
//! the primary, which assigns them a version, applies them, and
//! propagates `_apply {op, args, ver}` to each backup — synchronously
//! (RPC, reply gated on all backups) or asynchronously (one-way,
//! bounded staleness). Reads are served by any replica and return
//! `{val, ver}` so the proxy can enforce read-your-writes.
//!
//! A replica is a [`Control`] part on the server engine: a sync write
//! is answered deferred, once the backups have acknowledged it one at a
//! time, and a backup that finds a gap calls the primary for the
//! missing range the same way.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use proxy_core::{
    protocol, server_process, Control, InterfaceDesc, Outcome, ProxySpec, ReadTarget,
    ServiceObject, ServiceServer, Step, Strays,
};
use rpc::{endpoint_to_value, ErrorCode, Oneway, RemoteError, Request};
use simnet::{Ctx, Endpoint, NodeId, Simulation};
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

#[derive(Debug)]
enum Role {
    Primary {
        backups: Vec<Endpoint>,
        propagation: Propagation,
        /// Recent writes kept for gap repair and late joiners.
        log: VecDeque<(u64, String, Value)>,
    },
    Backup {
        primary: Endpoint,
        /// Out-of-order updates waiting for their predecessors.
        pending: BTreeMap<u64, (String, Value)>,
    },
}

/// What a replica is in the middle of, while its context waits.
#[derive(Debug)]
enum Job {
    /// An operation waiting out its service time.
    Dispatch,
    /// A primary's sync propagation: `update` goes to backup `next`, and
    /// `reply` answers the writer after the last one.
    Propagate {
        update: Value,
        next: usize,
        reply: Value,
    },
    /// A backup applying consecutive updates: `applying` is the next,
    /// taken off `pending` (it waits out its service time first);
    /// `repaired_from` is the version a gap repair's drain started at.
    Ingest {
        applying: Option<(String, Value)>,
        repaired_from: Option<u64>,
    },
    /// A backup waiting for the primary's log.
    Fetch,
}

/// One member of a replica group: the group's [`Control`] part.
#[derive(Debug)]
struct Replica {
    service: String,
    object: Box<dyn ServiceObject>,
    iface: InterfaceDesc,
    version: u64,
    role: Role,
    job: Option<Job>,
    stats: ReplicaStats,
}

const LOG_CAP: usize = 1024;

fn bad_args(msg: impl Into<String>) -> Step {
    Step::Reply(Err(RemoteError::new(ErrorCode::BadArgs, msg)))
}

impl Replica {
    fn new(service: String, object: Box<dyn ServiceObject>, role: Role) -> Replica {
        Replica {
            iface: object.interface(),
            service,
            object,
            version: 0,
            role,
            job: None,
            stats: ReplicaStats::default(),
        }
    }

    /// Runs an operation on the object, after its service time.
    fn dispatch(&mut self, ctx: &mut Ctx, req: &Request) -> Step {
        let time = self.object.service_time(&req.op, &req.args);
        if !time.is_zero() {
            self.job = Some(Job::Dispatch);
            return Step::Sleep(time);
        }
        self.finish_dispatch(ctx, req)
    }

    fn finish_dispatch(&mut self, ctx: &mut Ctx, req: &Request) -> Step {
        let op = req.op.as_str();
        let val = match self.object.dispatch(ctx, op, &req.args) {
            Ok(val) => val,
            Err(e) => return Step::Reply(Err(e)),
        };
        if self.iface.is_write(op) {
            return self.commit(ctx, req, val);
        }
        if !self.iface.is_read(op) {
            return Step::Reply(Ok(val));
        }
        self.stats.reads += 1;
        Step::Reply(Ok(self.versioned(val)))
    }

    fn versioned(&self, val: Value) -> Value {
        Value::record([("val", val), ("ver", Value::U64(self.version))])
    }

    /// A primary's applied write: version it, log it and ship it.
    fn commit(&mut self, ctx: &mut Ctx, req: &Request, val: Value) -> Step {
        self.version += 1;
        self.stats.writes_applied += 1;
        let reply = self.versioned(val);
        let Role::Primary {
            backups,
            propagation,
            log,
        } = &mut self.role
        else {
            unreachable!("backups refuse writes")
        };
        log.push_back((self.version, req.op.clone(), req.args.clone()));
        if log.len() > LOG_CAP {
            log.pop_front();
        }
        let update = Value::record([
            ("svc", Value::str(self.service.as_str())),
            ("op", Value::str(req.op.as_str())),
            ("args", req.args.clone()),
            ("ver", Value::U64(self.version)),
        ]);
        match propagation {
            Propagation::Async => {
                for b in backups.iter() {
                    rpc::send_oneway(ctx, *b, "_apply", &update);
                }
                Step::Reply(Ok(reply))
            }
            Propagation::Sync => self.propagate(update, 0, reply),
        }
    }

    /// Sends the sync propagation of `update` to backup `next`, or — all
    /// acknowledged — answers the writer with `reply`. Requests arriving
    /// meanwhile are held, not dropped; a backup that missed the update
    /// (e.g. partitioned) is stale until it repairs.
    fn propagate(&mut self, update: Value, next: usize, reply: Value) -> Step {
        let Role::Primary { backups, .. } = &self.role else {
            unreachable!("only the primary propagates")
        };
        let Some(&backup) = backups.get(next) else {
            return Step::Reply(Ok(reply));
        };
        let call = Step::Call(backup, "_apply", update.clone(), Strays::Hold);
        self.job = Some(Job::Propagate {
            update,
            next,
            reply,
        });
        call
    }

    /// Takes an `_apply` update in, buffering out-of-order versions and
    /// repairing persistent gaps from the primary's log.
    fn ingest(&mut self, ctx: &mut Ctx, args: &Value) -> Step {
        let Role::Backup { pending, .. } = &mut self.role else {
            return Step::Reply(Ok(Value::Null));
        };
        let (Ok(ver), Ok(op)) = (args.get_u64("ver"), args.get_str("op")) else {
            return Step::Reply(Ok(Value::Null));
        };
        if ver <= self.version {
            return Step::Reply(Ok(Value::Null)); // duplicate
        }
        let op_args = args.get("args").cloned().unwrap_or(Value::Null);
        pending.insert(ver, (op.to_owned(), op_args));
        self.job = Some(Job::Ingest {
            applying: None,
            repaired_from: None,
        });
        self.drain(ctx)
    }

    /// Applies every consecutive pending update, each after its service
    /// time; then, after a first drain that leaves a gap, asks the
    /// primary for the missing range.
    fn drain(&mut self, ctx: &mut Ctx) -> Step {
        let Role::Backup { primary, pending } = &mut self.role else {
            unreachable!("only backups ingest")
        };
        let Some(Job::Ingest {
            applying,
            repaired_from,
        }) = &mut self.job
        else {
            unreachable!("a drain belongs to an ingest")
        };
        loop {
            if let Some((op, args)) = applying.take() {
                if self.object.dispatch(ctx, &op, &args).is_ok() {
                    self.stats.writes_applied += 1;
                }
                self.version += 1;
            }
            let Some((op, args)) = pending.remove(&(self.version + 1)) else {
                break;
            };
            let time = self.object.service_time(&op, &args);
            *applying = Some((op, args));
            if !time.is_zero() {
                return Step::Sleep(time);
            }
        }
        if let Some(before) = *repaired_from {
            self.stats.repaired += self.version - before;
        } else if !pending.is_empty() {
            self.stats.buffered += pending.len() as u64;
            // A gap: some predecessor was lost in flight. Updates that
            // arrive while the fetch waits are kept and merged after the
            // reply: the fetch was issued before they were logged, and
            // no later update may ever come to expose the new gap.
            self.job = Some(Job::Fetch);
            let from = Value::record([("from", Value::U64(self.version + 1))]);
            return Step::Call(*primary, "_fetch", from, Strays::HoldKeeping("_apply"));
        }
        self.job = None;
        Step::Reply(Ok(Value::Null))
    }

    /// Merges the primary's log (and the updates that arrived while it
    /// was on its way) into the pending set, then drains it.
    fn repair(&mut self, ctx: &mut Ctx, reply: &Value, late: &[Oneway]) -> Step {
        let Role::Backup { pending, .. } = &mut self.role else {
            unreachable!("only backups repair")
        };
        let updates = reply.get_list("updates").unwrap_or(&[]);
        for u in updates.iter().chain(late.iter().map(|o| &o.args)) {
            if let (Ok(v), Ok(op)) = (u.get_u64("ver"), u.get_str("op")) {
                if v > self.version && !pending.contains_key(&v) {
                    pending.insert(
                        v,
                        (op.to_owned(), u.get("args").cloned().unwrap_or(Value::Null)),
                    );
                }
            }
        }
        self.job = Some(Job::Ingest {
            applying: None,
            repaired_from: Some(self.version),
        });
        self.drain(ctx)
    }
}

impl Control for Replica {
    fn name(&self) -> &str {
        &self.service
    }

    fn execute(&mut self, ctx: &mut Ctx, req: &Request) -> Step {
        match req.op.as_str() {
            protocol::OP_PING => Step::Reply(Ok(Value::Null)),
            protocol::OP_IFACE => Step::Reply(Ok(self.iface.to_value())),
            "_ver" => Step::Reply(Ok(Value::U64(self.version))),
            "_fetch" => match &self.role {
                // Gap repair: a backup asks for every logged update at
                // or after `from`.
                Role::Primary { log, .. } => {
                    let from = match req.args.get_u64("from") {
                        Ok(from) => from,
                        Err(e) => return bad_args(e.to_string()),
                    };
                    Step::Reply(Ok(Value::record([(
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
                    )])))
                }
                Role::Backup { .. } => bad_args("backups have no log to fetch"),
            },
            // Sync propagation arrives as an RPC.
            "_apply" => match &self.role {
                Role::Backup { .. } => self.ingest(ctx, &req.args),
                Role::Primary { .. } => bad_args("primary does not accept _apply"),
            },
            op if self.iface.is_write(op) => match &self.role {
                Role::Primary { .. } => self.dispatch(ctx, req),
                Role::Backup { primary, .. } => {
                    self.stats.not_primary += 1;
                    Step::Reply(Err(RemoteError::with_data(
                        ErrorCode::NotPrimary,
                        "writes must go to the primary",
                        endpoint_to_value(*primary),
                    )))
                }
            },
            _ => self.dispatch(ctx, req),
        }
    }

    fn resume(&mut self, ctx: &mut Ctx, req: Option<&Request>, outcome: Outcome) -> Step {
        match self
            .job
            .take()
            .expect("a replica waits only with a job in hand")
        {
            Job::Dispatch => self.finish_dispatch(ctx, req.expect("a dispatch is a request's")),
            Job::Propagate {
                update,
                next,
                reply,
            } => self.propagate(update, next + 1, reply),
            job @ Job::Ingest { .. } => {
                self.job = Some(job);
                self.drain(ctx)
            }
            Job::Fetch => match outcome.result {
                Ok(reply) => self.repair(ctx, &reply, &outcome.kept),
                Err(_) => Step::Reply(Ok(Value::Null)),
            },
        }
    }

    fn oneway(&mut self, ctx: &mut Ctx, oneway: Oneway) -> Step {
        if oneway.op == "_apply" {
            return self.ingest(ctx, &oneway.args);
        }
        Step::Reply(Ok(Value::Null))
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
    // primary's own endpoint reaches them through a slot the spawner
    // fills in below, before the simulation runs (and so before any
    // backup's first poll reads it).
    let primary_slot: Arc<Mutex<Option<Endpoint>>> = Arc::new(Mutex::new(None));
    let mut backups = Vec::new();
    for (i, node) in config.nodes.iter().copied().enumerate().skip(1) {
        let mk = std::sync::Arc::clone(&make_object);
        let service = config.service.clone();
        let slot = Arc::clone(&primary_slot);
        let label = format!("replica-{service}-{i}");
        let ep = sim.spawn_poll(
            label,
            node,
            server_process(move |_| {
                let role = Role::Backup {
                    primary: slot.lock().expect("the primary is spawned before the run"),
                    pending: BTreeMap::new(),
                };
                ServiceServer::new(Replica::new(service, mk(), role))
            }),
        );
        backups.push(ep);
    }

    let service = config.service.clone();
    let mk = std::sync::Arc::clone(&make_object);
    let propagation = config.propagation;
    let read_target = config.read_target;
    let backups_for_primary = backups.clone();
    let primary = sim.spawn_poll(
        format!("replica-{service}-primary"),
        config.nodes[0],
        server_process(move |ctx| {
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
            let role = Role::Primary {
                backups: backups_for_primary,
                propagation,
                log: VecDeque::new(),
            };
            ServiceServer::new(Replica::new(service, object, role)).register(ctx, ns, meta)
        }),
    );

    *primary_slot.lock() = Some(primary);

    let mut all = vec![primary];
    all.extend(backups);
    all
}
