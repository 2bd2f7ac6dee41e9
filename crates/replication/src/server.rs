//! The replicated server: a primary/backup group behind one service name.
//!
//! Every replica hosts its own copy of the service object. Writes go to
//! the primary, which assigns them a version, applies them, and
//! propagates `_apply [ver, op, args]` to each backup — synchronously
//! (RPC, reply gated on all backups) or asynchronously (one-way,
//! bounded staleness). Reads are served by any replica and return
//! `[val, ver]` so the proxy can enforce read-your-writes. The group's
//! protocol is its own, so its bodies are positional.
//!
//! A replica is a [`Control`] part on the server engine: a sync write
//! is answered deferred, once the backups have acknowledged it one at a
//! time, and a backup that finds a gap calls `_fetch` on the primary the
//! same way, with the first version it lacks, for the list of logged
//! updates from there on.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use proxy_core::{
    protocol, serve, Control, InterfaceDesc, Io, ProxySpec, ReadTarget, ServiceObject,
    ServiceServer, Strays,
};
use rpc::{endpoint_to_value, ErrorCode, Oneway, RemoteError, Request};
use simnet::{Endpoint, NodeId, Simulation};
use wire::{Value, WireError};

/// A replica's answer to a read or a write, `[val, ver]`.
fn versioned(val: Value, ver: u64) -> Value {
    Value::list([val, Value::U64(ver)])
}

/// Decodes [`versioned`].
pub(crate) fn read_versioned(v: &Value) -> Result<(&Value, u64), WireError> {
    match v.as_list().unwrap_or_default() {
        [val, Value::U64(ver)] => Ok((val, *ver)),
        _ => Err(malformed("versioned reply [val, ver]")),
    }
}

/// A logged write as it travels to a backup, `[ver, op, args]`.
fn update(ver: u64, op: &str, args: &Value) -> Value {
    Value::list([Value::U64(ver), Value::str(op), args.clone()])
}

/// Decodes [`update`].
fn read_update(v: &Value) -> Result<(u64, &str, &Value), WireError> {
    match v.as_list().unwrap_or_default() {
        [Value::U64(ver), Value::Str(op), args] => Ok((*ver, op.as_str(), args)),
        _ => Err(malformed("update [ver, op, args]")),
    }
}

fn malformed(expected: &'static str) -> WireError {
    WireError::WrongKind {
        expected,
        actual: "another shape",
    }
}

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

/// One member of a replica group: the group's [`Control`] part.
#[derive(Debug)]
struct Replica {
    service: String,
    object: Box<dyn ServiceObject>,
    iface: InterfaceDesc,
    version: u64,
    role: Role,
    stats: ReplicaStats,
}

const LOG_CAP: usize = 1024;

fn bad_args(msg: impl Into<String>) -> RemoteError {
    RemoteError::new(ErrorCode::BadArgs, msg)
}

impl Replica {
    fn new(service: String, object: Box<dyn ServiceObject>, role: Role) -> Replica {
        Replica {
            iface: object.interface(),
            service,
            object,
            version: 0,
            role,
            stats: ReplicaStats::default(),
        }
    }

    /// Runs an operation on the object, after its service time.
    async fn dispatch(&mut self, io: &Io, req: &Request) -> Result<Value, RemoteError> {
        let time = self.object.service_time(&req.op, &req.args);
        if !time.is_zero() {
            io.sleep(time).await;
        }
        let op = req.op.as_str();
        let val = io.with(|ctx| self.object.dispatch(ctx, op, &req.args))?;
        if self.iface.is_write(op) {
            return Ok(self.commit(io, req, val).await);
        }
        if !self.iface.is_read(op) {
            return Ok(val);
        }
        self.stats.reads += 1;
        Ok(versioned(val, self.version))
    }

    /// A primary's applied write: version it, log it and ship it — a sync
    /// write to each backup in turn before the writer is answered.
    /// Requests arriving meanwhile are held, not dropped; a backup that
    /// missed the update (e.g. partitioned) is stale until it repairs.
    async fn commit(&mut self, io: &Io, req: &Request, val: Value) -> Value {
        self.version += 1;
        self.stats.writes_applied += 1;
        let reply = versioned(val, self.version);
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
        let update = update(self.version, &req.op, &req.args);
        match propagation {
            Propagation::Async => io.with(|ctx| {
                for b in backups.iter() {
                    rpc::send_oneway(ctx, *b, &self.service, "_apply", &update);
                }
            }),
            Propagation::Sync => {
                for &backup in backups.iter() {
                    let _ = io
                        .call(backup, "_apply", update.clone(), Strays::Hold)
                        .await;
                }
            }
        }
        reply
    }

    /// Takes an `_apply` update in, buffering out-of-order versions and
    /// repairing persistent gaps from the primary's log.
    async fn ingest(&mut self, io: &Io, args: &Value) {
        let Role::Backup { pending, .. } = &mut self.role else {
            return;
        };
        let Ok((ver, op, op_args)) = read_update(args) else {
            return;
        };
        if ver <= self.version {
            return; // duplicate
        }
        pending.insert(ver, (op.to_owned(), op_args.clone()));
        self.drain(io).await;
    }

    /// Applies every consecutive pending update, each after its service
    /// time; a first drain that leaves a gap asks the primary for the
    /// missing range, merges it and drains once more.
    async fn drain(&mut self, io: &Io) {
        let mut repaired_from = None;
        loop {
            while let Some((op, args)) = self.next_pending() {
                let time = self.object.service_time(&op, &args);
                if !time.is_zero() {
                    io.sleep(time).await;
                }
                if io.with(|ctx| self.object.dispatch(ctx, &op, &args)).is_ok() {
                    self.stats.writes_applied += 1;
                }
                self.version += 1;
            }
            let Role::Backup { primary, pending } = &self.role else {
                unreachable!("only backups ingest")
            };
            if let Some(before) = repaired_from {
                self.stats.repaired += self.version - before;
                return;
            }
            if pending.is_empty() {
                return;
            }
            self.stats.buffered += pending.len() as u64;
            // A gap: some predecessor was lost in flight. Updates that
            // arrive while the fetch waits are kept and merged after the
            // reply: the fetch was issued before they were logged, and
            // no later update may ever come to expose the new gap.
            let from = Value::U64(self.version + 1);
            let fetch = Strays::HoldKeeping("_apply");
            let (reply, late) = io.call(*primary, "_fetch", from, fetch).await;
            let Ok(reply) = reply else {
                return;
            };
            self.merge(&reply, &late);
            repaired_from = Some(self.version);
        }
    }

    /// Takes the next consecutive pending update off a backup's buffer.
    fn next_pending(&mut self) -> Option<(String, Value)> {
        let Role::Backup { pending, .. } = &mut self.role else {
            unreachable!("only backups ingest")
        };
        pending.remove(&(self.version + 1))
    }

    /// Merges the primary's log, and the updates that arrived while it
    /// was on its way, into the pending set.
    fn merge(&mut self, reply: &Value, late: &[Oneway]) {
        let Role::Backup { pending, .. } = &mut self.role else {
            unreachable!("only backups repair")
        };
        let updates = reply.as_list().unwrap_or_default();
        for u in updates.iter().chain(late.iter().map(|o| &o.args)) {
            if let Ok((v, op, args)) = read_update(u) {
                if v > self.version && !pending.contains_key(&v) {
                    pending.insert(v, (op.to_owned(), args.clone()));
                }
            }
        }
    }
}

impl Control for Replica {
    fn name(&self) -> &str {
        &self.service
    }

    async fn execute(&mut self, io: &Io, req: &Request) -> Result<Value, RemoteError> {
        match req.op.as_str() {
            protocol::OP_PING => Ok(Value::Null),
            "_ver" => Ok(Value::U64(self.version)),
            "_fetch" => match &self.role {
                // Gap repair: a backup asks for every logged update at
                // or after `from`.
                Role::Primary { log, .. } => {
                    let from = req.args.as_u64().ok_or_else(|| bad_args("from"))?;
                    let logged = log.iter().filter(|(v, _, _)| *v >= from);
                    Ok(Value::list(
                        logged.map(|(v, op, args)| update(*v, op, args)),
                    ))
                }
                Role::Backup { .. } => Err(bad_args("backups have no log to fetch")),
            },
            // Sync propagation arrives as an RPC.
            "_apply" => match &self.role {
                Role::Backup { .. } => {
                    self.ingest(io, &req.args).await;
                    Ok(Value::Null)
                }
                Role::Primary { .. } => Err(bad_args("primary does not accept _apply")),
            },
            op if self.iface.is_write(op) => match &self.role {
                Role::Primary { .. } => self.dispatch(io, req).await,
                Role::Backup { primary, .. } => {
                    self.stats.not_primary += 1;
                    Err(RemoteError::with_data(
                        ErrorCode::NotPrimary,
                        "writes must go to the primary",
                        endpoint_to_value(*primary),
                    ))
                }
            },
            _ => self.dispatch(io, req).await,
        }
    }

    async fn oneway(&mut self, io: &Io, oneway: Oneway) {
        if oneway.op == "_apply" {
            self.ingest(io, &oneway.args).await;
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
        let ep = sim.spawn_async(label, node, move |cx| {
            serve(cx, move |_| {
                let role = Role::Backup {
                    primary: slot.lock().expect("the primary is spawned before the run"),
                    pending: BTreeMap::new(),
                };
                ServiceServer::new(Replica::new(service, mk(), role))
            })
        });
        backups.push(ep);
    }

    let service = config.service.clone();
    let mk = std::sync::Arc::clone(&make_object);
    let propagation = config.propagation;
    let read_target = config.read_target;
    let backups_for_primary = backups.clone();
    let primary = sim.spawn_async(
        format!("replica-{service}-primary"),
        config.nodes[0],
        move |cx| {
            serve(cx, move |ctx| {
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
                let meta = proxy_core::binding_meta(&spec, &iface);
                let role = Role::Primary {
                    backups: backups_for_primary,
                    propagation,
                    log: VecDeque::new(),
                };
                ServiceServer::new(Replica::new(service, object, role)).register(ns, meta)
            })
        },
    );

    *primary_slot.lock() = Some(primary);

    let mut all = vec![primary];
    all.extend(backups);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versioned_replies_and_updates_decode_strictly() {
        let (u, s) = (Value::U64, Value::str);
        assert_eq!(read_versioned(&versioned(s("v"), 4)).unwrap(), (&s("v"), 4));
        let args = Value::list([u(1)]);
        assert_eq!(
            read_update(&update(9, "put", &args)).unwrap(),
            (9, "put", &args)
        );
        let refused = [
            Value::list([s("v")]),
            Value::list([s("v"), u(4), u(4)]),
            Value::list([s("v"), s("4")]),
            Value::record([("val", s("v")), ("ver", u(4))]),
            Value::Null,
        ];
        for v in refused {
            assert!(read_versioned(&v).is_err(), "{v} decoded");
        }
        let refused = [
            Value::list([u(9), s("put")]),
            Value::list([u(9), s("put"), Value::Null, Value::Null]),
            Value::list([s("9"), s("put"), Value::Null]),
            Value::list([u(9), u(1), Value::Null]),
            Value::record([("ver", u(9)), ("op", s("put")), ("args", Value::Null)]),
        ];
        for v in refused {
            assert!(read_update(&v).is_err(), "{v} decoded");
        }
    }
}
