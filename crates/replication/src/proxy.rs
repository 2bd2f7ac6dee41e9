//! The replica-reading proxy.
//!
//! Reads go to the *nearest* replica (chosen by an RTT probe at bind
//! time); writes go to the primary. The proxy tracks the highest version
//! it has written or observed and falls back to the primary whenever a
//! replica's reply is older — giving each client monotonic reads and
//! read-your-writes on top of primary/backup replication.

use proxy_core::{
    protocol, BindContext, Binder, InterfaceDesc, Proxy, ProxyFuture, ProxyStats, ReadTarget,
    SessionCore,
};
use rpc::{oneways_into, Channel, ChannelConfig, ErrorCode, Oneway, RpcError};
use simnet::{AsyncCx, Endpoint};
use std::time::Duration;
use wire::Value;

use crate::server::read_versioned;

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
    primary: Channel,
    reader: Channel,
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
    /// chooses the fastest responder for reads. One-way notifications
    /// that arrive while it probes go into `strays`.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] if no replica answers the probe.
    pub async fn bind(
        cx: AsyncCx,
        service: impl Into<String>,
        iface: InterfaceDesc,
        primary: Endpoint,
        replicas: &[Endpoint],
        read_target: ReadTarget,
        strays: &mut Vec<Oneway>,
    ) -> Result<ReplicaProxy, RpcError> {
        let service = service.into();
        let nearest = match read_target {
            ReadTarget::Primary => primary,
            ReadTarget::Nearest => {
                let mut best: Option<(Duration, Endpoint)> = None;
                for &r in replicas {
                    let policy = rpc::RetryPolicy::no_retry(Duration::from_millis(50));
                    let mut probe =
                        Channel::new("", r, ChannelConfig::with_depth(1).with_policy(policy));
                    let t0 = cx.with(|cx| cx.now());
                    let sink = &mut oneways_into(strays);
                    let ping = probe.call(cx, "", protocol::OP_PING, Value::Null, Some(sink));
                    if ping.await.is_ok() {
                        let rtt = cx.with(|cx| cx.now()) - t0;
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
            primary: Channel::new("", primary, ChannelConfig::with_depth(1)),
            reader: Channel::new("", nearest, ChannelConfig::with_depth(1)),
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

    async fn call_collecting(
        rpc: &mut Channel,
        cx: AsyncCx,
        op: &str,
        args: Value,
        strays: &mut Vec<Oneway>,
    ) -> Result<Value, RpcError> {
        rpc.call(cx, "", op, args, Some(&mut oneways_into(strays)))
            .await
    }

    fn unwrap_versioned(&mut self, reply: Value) -> Result<Value, RpcError> {
        let (val, ver) = read_versioned(&reply)?;
        self.min_version = self.min_version.max(ver);
        Ok(val.clone())
    }
}

impl Proxy for ReplicaProxy {
    fn service(&self) -> &str {
        &self.service
    }

    fn invoke<'a>(
        &'a mut self,
        cx: AsyncCx,
        op: &'a str,
        args: Value,
        strays: &'a mut Vec<Oneway>,
    ) -> ProxyFuture<'a, Result<Value, RpcError>> {
        self.stats.invocations += 1;
        self.stats.remote_calls += 1;
        // Writes go to the primary, reads to the chosen replica unless it
        // lags what this client has seen.
        Box::pin(async move {
            if self.iface.is_write(op) {
                let result =
                    Self::call_collecting(&mut self.primary, cx, op, args.clone(), strays).await;
                let reply = match result {
                    Err(RpcError::Remote(ref e)) if e.code == ErrorCode::NotPrimary => {
                        // The group reconfigured; follow the redirect if the
                        // error carries one.
                        if let Ok(new_primary) = rpc::endpoint_from_value(&e.data) {
                            self.primary.rebind(new_primary);
                            self.replica_stats.primary_redirects += 1;
                            self.stats.rebinds += 1;
                            Self::call_collecting(&mut self.primary, cx, op, args, strays).await?
                        } else {
                            return result;
                        }
                    }
                    other => other?,
                };
                return self.unwrap_versioned(reply);
            }
            if self.iface.is_read(op) {
                let reply =
                    Self::call_collecting(&mut self.reader, cx, op, args.clone(), strays).await?;
                let (val, ver) = read_versioned(&reply)?;
                if ver >= self.min_version {
                    self.replica_stats.replica_reads += 1;
                    self.min_version = ver;
                    return Ok(val.clone());
                }
                // Replica is behind what we've already seen: re-read at the
                // primary to preserve read-your-writes / monotonic reads.
                self.replica_stats.freshness_fallbacks += 1;
                self.stats.remote_calls += 1;
                let reply = Self::call_collecting(&mut self.primary, cx, op, args, strays).await?;
                return self.unwrap_versioned(reply);
            }
            // System / undeclared ops go to the primary unwrapped.
            Self::call_collecting(&mut self.primary, cx, op, args, strays).await
        })
    }

    fn stats(&self) -> ProxyStats {
        self.stats
    }
}

/// Registers the replica proxy constructor with a binder so that
/// [`proxy_core::ProxySpec::Replicated`] bindings resolve.
pub fn register_replica_proxy(binder: &mut Binder) {
    binder.register_proxy("replicated", |cx, bc: BindContext<'_>, strays| {
        Box::pin(async move {
            let proxy_core::ProxySpec::Replicated {
                primary,
                replicas,
                read_target,
            } = proxy_core::ProxySpec::from_value(bc.params)?
            else {
                return Err(RpcError::Wire(wire::WireError::WrongKind {
                    expected: "replicated spec",
                    actual: "other",
                }));
            };
            let iface = bc.iface.clone();
            let proxy = ReplicaProxy::bind(
                cx,
                bc.service,
                iface,
                primary,
                &replicas,
                read_target,
                strays,
            );
            Ok(Box::new(proxy.await?) as Box<dyn Proxy>)
        })
    });
}

/// A [`SessionCore`] with the replica proxy pre-registered.
pub fn client_runtime(ns: Endpoint) -> SessionCore {
    let mut rt = SessionCore::new(ns);
    register_replica_proxy(rt.binder_mut());
    rt
}
