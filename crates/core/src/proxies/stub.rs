//! The remote end of a service, and the stub proxy that is nothing more.

use naming::NameClient;
use rpc::{endpoint_from_value, oneways_into, Channel, ChannelConfig, ErrorCode, Oneway, RpcError};
use simnet::{AsyncCx, Endpoint};
use wire::Value;

use super::MAX_REDIRECTS;
use crate::bulk::BulkEngine;
use crate::interface::InterfaceDesc;
use crate::proxy::{Proxy, ProxyFuture, ProxyStats};

/// The stub proxy: a [`Remote`], every invocation one remote call.
///
/// This is exactly the stub of classic RPC (Birrell & Nelson 1984) —
/// the baseline the paper generalizes, at-most-once included. It still
/// benefits from the binding protocol: `Moved` redirects and
/// dead-endpoint re-lookups are handled transparently, and a call
/// re-sent after either keeps its id, so the server's reply window
/// decides whether it runs, across a crash too.
pub type StubProxy = Remote;

/// A service's remote end, as every proxy reaches it: the channel that
/// calls it, the name service that rebinds it, its interface, the bulk
/// plane if the service asked for one, and the proxy's counters.
#[derive(Debug)]
pub struct Remote {
    service: String,
    iface: InterfaceDesc,
    pub(crate) rpc: Channel,
    ns: NameClient,
    bulk: Option<BulkEngine>,
    pub(crate) stats: ProxyStats,
}

impl Remote {
    /// The remote end of `service` at `server`, using the name server at
    /// `ns` for rebinds.
    pub fn new(
        service: impl Into<String>,
        server: Endpoint,
        ns: Endpoint,
        iface: InterfaceDesc,
    ) -> Remote {
        Remote {
            service: service.into(),
            iface,
            rpc: Channel::new("", server, ChannelConfig::with_depth(1)),
            ns: NameClient::new(ns),
            bulk: None,
            stats: ProxyStats::default(),
        }
    }

    /// The endpoint currently called (may change after redirects).
    pub fn server(&self) -> Endpoint {
        self.rpc.server()
    }

    /// The service's interface.
    pub fn iface(&self) -> &InterfaceDesc {
        &self.iface
    }

    /// Enables the out-of-band bulk data plane: over-threshold blobs in
    /// arguments are spilled to the store before the call, and
    /// references in replies are resolved after it, both by `engine`.
    pub fn enable_bulk(&mut self, engine: BulkEngine) {
        self.bulk = Some(engine);
    }

    /// The bulk engine, if [`Self::enable_bulk`] was called — for
    /// region routing overrides and transfer counters.
    pub fn bulk_mut(&mut self) -> Option<&mut BulkEngine> {
        self.bulk.as_mut()
    }

    /// Calls `op`: spills the arguments' large blobs, makes the call
    /// robustly ([`Remote::call_plain`]) and resolves the reply's
    /// references.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the transfers or the call.
    pub async fn call(
        &mut self,
        cx: AsyncCx,
        op: &str,
        args: Value,
        strays: &mut Vec<Oneway>,
    ) -> Result<Value, RpcError> {
        // The transfers are boxed: a call that makes none carries no room
        // for them.
        let args = match &mut self.bulk {
            Some(eng) if eng.wants_spill(&args) => Box::pin(eng.spill(cx, args, strays)).await?,
            _ => args,
        };
        let reply = self.call_plain(cx, op, args, strays).await?;
        match &mut self.bulk {
            Some(eng) if BulkEngine::wants_resolve(&reply) => {
                Box::pin(eng.resolve(cx, reply, strays)).await
            }
            _ => Ok(reply),
        }
    }

    /// Issues a call, collecting the one-way notifications that arrive
    /// while it waits (the relookup's wait included) into `strays`,
    /// following `Moved` redirects (forwarding pointers left by
    /// migration) and falling back to a fresh name-service lookup after
    /// a timeout.
    ///
    /// Every send of the call, to whichever endpoint, is under the one
    /// id it was first sent under ([`Channel::call_as`]), held as awaited
    /// throughout. A timed out call may have run with its reply lost; the
    /// endpoint the relookup finds (a recovered incarnation restores its
    /// reply windows from its checkpoint) answers it from its window or
    /// runs it once, whatever the op.
    ///
    /// Local rebinds performed here are the *lazy* path-compression of
    /// experiment E10: after following a chain once, the proxy points at
    /// the object's true home and later calls pay a single hop.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the call.
    pub async fn call_plain(
        &mut self,
        cx: AsyncCx,
        op: &str,
        args: Value,
        strays: &mut Vec<Oneway>,
    ) -> Result<Value, RpcError> {
        let mut redirects = 0;
        let mut relookups = 0;
        let id = cx.with(|cx| cx.await_next());
        loop {
            let result = self
                .rpc
                .call_as(cx, &id, "", op, &args, Some(&mut oneways_into(strays)))
                .await;
            match result {
                Err(RpcError::Remote(ref e)) if e.code == ErrorCode::Moved => {
                    if redirects >= MAX_REDIRECTS {
                        return result;
                    }
                    match endpoint_from_value(&e.data) {
                        Ok(new_ep) => {
                            self.rpc.rebind(new_ep);
                            self.stats.rebinds += 1;
                            redirects += 1;
                        }
                        Err(_) => return result,
                    }
                }
                Err(RpcError::Timeout { .. }) if relookups == 0 => {
                    // The recorded endpoint may be dead (crashed or moved
                    // without a forwarder); ask the name service once.
                    relookups += 1;
                    self.ns.forget(&self.service);
                    match Box::pin(self.ns.lookup(
                        cx,
                        &self.service,
                        Some(&mut oneways_into(strays)),
                    ))
                    .await
                    {
                        Ok(rec) if rec.endpoint != self.rpc.server() => {
                            self.rpc.rebind(rec.endpoint);
                            self.stats.rebinds += 1;
                        }
                        _ => return result,
                    }
                }
                other => return other,
            }
        }
    }
}

impl Proxy for Remote {
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
        Box::pin(self.call(cx, op, args, strays))
    }

    fn stats(&self) -> ProxyStats {
        let mut s = self.stats;
        if let Some(eng) = &self.bulk {
            s.bulk_spills = eng.spills;
            s.bulk_resolves = eng.resolves;
        }
        s
    }
}
