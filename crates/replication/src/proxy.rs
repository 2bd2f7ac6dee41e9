//! The replica-reading proxy.
//!
//! Reads go to the *nearest* replica (chosen by an RTT probe at bind
//! time); writes go to the primary. The proxy tracks the highest version
//! it has written or observed and falls back to the primary whenever a
//! replica's reply is older — giving each client monotonic reads and
//! read-your-writes on top of primary/backup replication.

use naming::NameClient;
use proxy_core::{
    protocol, BindContext, Binder, InterfaceDesc, OnewaySink, Proxy, ProxyStats, ReadTarget,
    SessionCore,
};
use rpc::{ErrorCode, RpcClient, RpcError};
use simnet::{Ctx, Endpoint};
use std::time::Duration;
use wire::Value;

/// Counters specific to the replica proxy (on top of [`ProxyStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaProxyStats {
    /// Reads served by the chosen replica.
    pub replica_reads: u64,
    /// Reads repeated at the primary because the replica lagged.
    pub freshness_fallbacks: u64,
    /// Writes redirected after a `NotPrimary` rejection.
    pub primary_redirects: u64,
}

/// A proxy that reads from the nearest replica and writes to the primary.
#[derive(Debug)]
pub struct ReplicaProxy {
    service: String,
    primary: RpcClient,
    reader: RpcClient,
    #[allow(dead_code)]
    ns: NameClient,
    iface: InterfaceDesc,
    /// Highest version this client has written or observed.
    min_version: u64,
    stats: ProxyStats,
    /// Replica-specific counters.
    pub replica_stats: ReplicaProxyStats,
    nearest: Endpoint,
}

impl ReplicaProxy {
    /// Binds to a replicated service: probes every replica once and
    /// chooses the fastest responder for reads.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] if no replica answers the probe.
    pub fn bind(
        ctx: &mut Ctx,
        service: impl Into<String>,
        ns: Endpoint,
        iface: InterfaceDesc,
        primary: Endpoint,
        replicas: &[Endpoint],
        read_target: ReadTarget,
    ) -> Result<ReplicaProxy, RpcError> {
        let service = service.into();
        let nearest = match read_target {
            ReadTarget::Primary => primary,
            ReadTarget::Nearest => {
                let mut best: Option<(Duration, Endpoint)> = None;
                for &r in replicas {
                    let mut probe = RpcClient::with_policy(
                        r,
                        rpc::RetryPolicy::no_retry(Duration::from_millis(50)),
                    );
                    let t0 = ctx.now();
                    if probe.call(ctx, protocol::OP_PING, Value::Null).is_ok() {
                        let rtt = ctx.now() - t0;
                        if best.map(|(b, _)| rtt < b).unwrap_or(true) {
                            best = Some((rtt, r));
                        }
                    }
                }
                best.map(|(_, ep)| ep).unwrap_or(primary)
            }
        };
        Ok(ReplicaProxy {
            service,
            primary: RpcClient::new(primary),
            reader: RpcClient::new(nearest),
            ns: NameClient::new(ns),
            iface,
            min_version: 0,
            stats: ProxyStats::default(),
            replica_stats: ReplicaProxyStats::default(),
            nearest,
        })
    }

    /// The replica chosen for reads.
    pub fn nearest(&self) -> Endpoint {
        self.nearest
    }

    fn call_collecting(
        rpc: &mut RpcClient,
        ctx: &mut Ctx,
        op: &str,
        args: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        rpc.call_with_strays(ctx, "", op, args, |_ctx, stray| {
            if let rpc::Stray::Oneway(o, _) = stray {
                strays.push((*o).clone());
                rpc::StrayVerdict::Consumed
            } else {
                rpc::StrayVerdict::Drop
            }
        })
    }

    fn unwrap_versioned(&mut self, reply: Value) -> Result<Value, RpcError> {
        let ver = reply.get_u64("ver")?;
        let val = reply.get("val").cloned().unwrap_or(Value::Null);
        if ver > self.min_version {
            self.min_version = ver;
        }
        Ok(val)
    }
}

impl Proxy for ReplicaProxy {
    fn service(&self) -> &str {
        &self.service
    }

    fn invoke(
        &mut self,
        ctx: &mut Ctx,
        op: &str,
        args: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        self.stats.invocations += 1;
        self.stats.remote_calls += 1;
        if self.iface.is_write(op) {
            let result = Self::call_collecting(&mut self.primary, ctx, op, args.clone(), strays);
            let reply = match result {
                Err(RpcError::Remote(ref e)) if e.code == ErrorCode::NotPrimary => {
                    // The group reconfigured; follow the redirect if the
                    // error carries one.
                    if let Ok(new_primary) = rpc::endpoint_from_value(&e.data) {
                        self.primary.rebind(new_primary);
                        self.replica_stats.primary_redirects += 1;
                        self.stats.rebinds += 1;
                        Self::call_collecting(&mut self.primary, ctx, op, args, strays)?
                    } else {
                        return result;
                    }
                }
                other => other?,
            };
            return self.unwrap_versioned(reply);
        }
        if self.iface.is_read(op) {
            let reply = Self::call_collecting(&mut self.reader, ctx, op, args.clone(), strays)?;
            let ver = reply.get_u64("ver")?;
            if ver >= self.min_version {
                self.replica_stats.replica_reads += 1;
                return self.unwrap_versioned(reply);
            }
            // Replica is behind what we've already seen: re-read at the
            // primary to preserve read-your-writes / monotonic reads.
            self.replica_stats.freshness_fallbacks += 1;
            self.stats.remote_calls += 1;
            let reply = Self::call_collecting(&mut self.primary, ctx, op, args, strays)?;
            return self.unwrap_versioned(reply);
        }
        // System / undeclared ops go to the primary unwrapped.
        Self::call_collecting(&mut self.primary, ctx, op, args, strays)
    }

    fn stats(&self) -> ProxyStats {
        self.stats
    }
}

/// Registers the replica proxy constructor with a binder so that
/// [`proxy_core::ProxySpec::Replicated`] bindings resolve.
pub fn register_replica_proxy(binder: &mut Binder) {
    binder.register_proxy("replicated", |ctx, bc: &BindContext<'_>| {
        let spec = proxy_core::ProxySpec::from_value(bc.params)?;
        match spec {
            proxy_core::ProxySpec::Replicated {
                primary,
                replicas,
                read_target,
            } => Ok(Box::new(ReplicaProxy::bind(
                ctx,
                bc.service,
                bc.ns,
                bc.iface.clone(),
                primary,
                &replicas,
                read_target,
            )?)),
            _ => Err(RpcError::Wire(wire::WireError::WrongKind {
                expected: "replicated spec",
                actual: "other",
            })),
        }
    });
}

/// A [`SessionCore`] with the replica proxy pre-registered.
pub fn client_runtime(ns: Endpoint) -> SessionCore {
    let mut rt = SessionCore::new(ns);
    register_replica_proxy(rt.binder_mut());
    rt
}
