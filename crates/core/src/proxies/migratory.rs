//! The migratory proxy: checks the object out into the client's context.
//!
//! After `threshold` invocations the proxy asks the service for the
//! object itself (`_checkout`). From then on invocations are plain local
//! dispatches — no marshalling, no network. If another client needs the
//! object, the service sends a `recall` notification and the proxy
//! checks the object back in at its next opportunity.
//!
//! This is migration-as-invocation-optimization: the paper's point that
//! a service may transparently relocate state toward its dominant user
//! while clients keep calling through the same interface.

use rpc::{oneways_into, ErrorCode, Oneway, RpcError};
use simnet::{AsyncCx, Ctx, Endpoint};
use wire::Value;

use super::Remote;
use crate::interface::InterfaceDesc;
use crate::object::{dispatch_local, FactoryRegistry, ServiceObject};
use crate::proxy::{protocol, Proxy, ProxyFuture, ProxyStats};

/// A proxy that migrates the object into the client context once the
/// client proves to be a heavy user.
pub struct MigratoryProxy {
    remote: Remote,
    factories: FactoryRegistry,
    threshold: u64,
    calls_seen: u64,
    local: Option<Box<dyn ServiceObject>>,
    recall_requested: bool,
}

impl std::fmt::Debug for MigratoryProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigratoryProxy")
            .field("service", &self.service())
            .field("holding", &self.local.is_some())
            .field("calls_seen", &self.calls_seen)
            .field("threshold", &self.threshold)
            .finish()
    }
}

impl MigratoryProxy {
    /// Creates the proxy. Checkout requires the client to know the
    /// object's type: if `factories` cannot build `iface.type_name`, the
    /// proxy degrades gracefully to stub behaviour.
    pub fn new(
        service: impl Into<String>,
        server: Endpoint,
        ns: Endpoint,
        iface: InterfaceDesc,
        factories: FactoryRegistry,
        threshold: u64,
    ) -> MigratoryProxy {
        MigratoryProxy {
            remote: Remote::new(service, server, ns, iface),
            factories,
            threshold: threshold.max(1),
            calls_seen: 0,
            local: None,
            recall_requested: false,
        }
    }

    async fn try_checkout(&mut self, cx: AsyncCx, strays: &mut Vec<Oneway>) {
        let type_name = &self.remote.iface().type_name;
        if !self.factories.knows(type_name) {
            return;
        }
        let result = (self.remote)
            .call_plain(cx, protocol::OP_CHECKOUT, Value::Null, strays)
            .await;
        match result {
            Ok(state) => {
                match self
                    .factories
                    .create(&self.remote.iface().type_name, &state)
                {
                    Ok(obj) => {
                        self.local = Some(obj);
                        self.remote.stats.migrations += 1;
                    }
                    Err(_) => {
                        // We took the object but cannot host it; push the
                        // state straight back.
                        let _ = (self.remote.rpc)
                            .call(
                                cx,
                                "",
                                protocol::OP_CHECKIN,
                                state,
                                Some(&mut oneways_into(strays)),
                            )
                            .await;
                    }
                }
            }
            Err(RpcError::Remote(ref e)) if e.code == ErrorCode::Unavailable => {
                // Held elsewhere; the service has recalled it. Stay
                // remote and try again later.
            }
            Err(_) => {} // transport trouble: stay remote
        }
    }

    async fn checkin(&mut self, cx: AsyncCx, strays: &mut Vec<Oneway>) -> Result<(), RpcError> {
        let Some(obj) = self.local.take() else {
            self.recall_requested = false;
            return Ok(());
        };
        let args = obj.snapshot().map_err(RpcError::Remote)?;
        match self
            .remote
            .call_plain(cx, protocol::OP_CHECKIN, args, strays)
            .await
        {
            Ok(_) => {
                self.remote.stats.checkins += 1;
                self.recall_requested = false;
                self.calls_seen = 0; // restart the usage count
                Ok(())
            }
            Err(e) => {
                // Keep holding rather than lose state; retry on next poll.
                self.local = Some(obj);
                Err(e)
            }
        }
    }

    /// Checks a held object back in, if any.
    fn checkin_alone<'a>(
        &'a mut self,
        cx: AsyncCx,
        strays: &'a mut Vec<Oneway>,
    ) -> ProxyFuture<'a, ()> {
        Box::pin(async move {
            if self.local.is_some() {
                let _ = self.checkin(cx, strays).await;
            }
        })
    }
}

impl Proxy for MigratoryProxy {
    fn service(&self) -> &str {
        self.remote.service()
    }

    fn try_ready(
        &mut self,
        ctx: &mut Ctx,
        op: &str,
        args: &Value,
        _strays: &mut Vec<Oneway>,
    ) -> Option<Result<Value, RpcError>> {
        let obj = self.local.as_mut()?;
        if self.recall_requested || !obj.service_time(op, args).is_zero() {
            return None;
        }
        self.remote.stats.invocations += 1;
        self.remote.stats.local_hits += 1;
        Some(obj.dispatch(ctx, op, args).map_err(RpcError::Remote))
    }

    fn invoke<'a>(
        &'a mut self,
        cx: AsyncCx,
        op: &'a str,
        args: Value,
        strays: &'a mut Vec<Oneway>,
    ) -> ProxyFuture<'a, Result<Value, RpcError>> {
        self.remote.stats.invocations += 1;
        Box::pin(async move {
            // Honour a pending recall before doing anything else.
            if self.recall_requested && self.local.is_some() {
                let _ = self.checkin(cx, strays).await;
            }
            if self.local.is_none() {
                self.calls_seen += 1;
                if self.calls_seen >= self.threshold && !self.recall_requested {
                    self.try_checkout(cx, strays).await;
                }
            }
            match &mut self.local {
                Some(obj) => {
                    self.remote.stats.local_hits += 1;
                    (dispatch_local(obj.as_mut(), cx, op, &args).await).map_err(RpcError::Remote)
                }
                None => {
                    self.remote.stats.remote_calls += 1;
                    self.remote.call_plain(cx, op, args, strays).await
                }
            }
        })
    }

    fn on_oneway(&mut self, _ctx: &mut Ctx, oneway: &rpc::Oneway) {
        if matches!(protocol::notice(oneway), Ok((_, None))) {
            self.recall_requested = true;
        }
    }

    fn deferred(&self) -> bool {
        self.recall_requested && self.local.is_some()
    }

    fn poll<'a>(&'a mut self, cx: AsyncCx, strays: &'a mut Vec<Oneway>) -> ProxyFuture<'a, ()> {
        self.checkin_alone(cx, strays)
    }

    fn detach<'a>(&'a mut self, cx: AsyncCx, strays: &'a mut Vec<Oneway>) -> ProxyFuture<'a, ()> {
        self.checkin_alone(cx, strays)
    }

    fn stats(&self) -> ProxyStats {
        self.remote.stats
    }
}
