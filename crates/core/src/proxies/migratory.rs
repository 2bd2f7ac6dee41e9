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

use naming::NameClient;
use rpc::{ErrorCode, RpcClient, RpcError};
use simnet::{Ctx, Endpoint};
use wire::Value;

use super::robust_call;
use crate::interface::InterfaceDesc;
use crate::object::{dispatch_blocking, FactoryRegistry, ServiceObject};
use crate::proxy::{protocol, OnewaySink, Proxy, ProxyStats};

/// A proxy that migrates the object into the client context once the
/// client proves to be a heavy user.
pub struct MigratoryProxy {
    service: String,
    rpc: RpcClient,
    ns: NameClient,
    iface: InterfaceDesc,
    factories: FactoryRegistry,
    threshold: u64,
    calls_seen: u64,
    local: Option<Box<dyn ServiceObject>>,
    recall_requested: bool,
    stats: ProxyStats,
}

impl std::fmt::Debug for MigratoryProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigratoryProxy")
            .field("service", &self.service)
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
            service: service.into(),
            rpc: RpcClient::new(server),
            ns: NameClient::new(ns),
            iface,
            factories,
            threshold: threshold.max(1),
            calls_seen: 0,
            local: None,
            recall_requested: false,
            stats: ProxyStats::default(),
        }
    }

    fn try_checkout(&mut self, ctx: &mut Ctx, strays: &mut dyn OnewaySink) {
        if !self.factories.knows(&self.iface.type_name) {
            return;
        }
        let result = robust_call(
            &mut self.rpc,
            &mut self.ns,
            &self.service,
            ctx,
            protocol::OP_CHECKOUT,
            Value::Null,
            strays,
            &mut self.stats,
        );
        match result {
            Ok(reply) => {
                let state = reply.get("state").cloned().unwrap_or(Value::Null);
                match self.factories.create(&self.iface.type_name, &state) {
                    Ok(obj) => {
                        self.local = Some(obj);
                        self.stats.migrations += 1;
                    }
                    Err(_) => {
                        // We took the object but cannot host it; push the
                        // state straight back.
                        let _ = self.rpc.call(
                            ctx,
                            protocol::OP_CHECKIN,
                            Value::record([("state", state)]),
                        );
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

    fn checkin(&mut self, ctx: &mut Ctx, strays: &mut dyn OnewaySink) -> Result<(), RpcError> {
        let Some(obj) = self.local.take() else {
            self.recall_requested = false;
            return Ok(());
        };
        let state = obj.snapshot().map_err(RpcError::Remote)?;
        match robust_call(
            &mut self.rpc,
            &mut self.ns,
            &self.service,
            ctx,
            protocol::OP_CHECKIN,
            Value::record([("state", state)]),
            strays,
            &mut self.stats,
        ) {
            Ok(_) => {
                self.stats.checkins += 1;
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
}

impl Proxy for MigratoryProxy {
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

        // Honour a pending recall before doing anything else.
        if self.recall_requested && self.local.is_some() {
            let _ = self.checkin(ctx, strays);
        }

        if self.local.is_none() {
            self.calls_seen += 1;
            if self.calls_seen >= self.threshold && !self.recall_requested {
                self.try_checkout(ctx, strays);
            }
        }

        match &mut self.local {
            Some(obj) => {
                self.stats.local_hits += 1;
                dispatch_blocking(obj.as_mut(), ctx, op, &args).map_err(RpcError::Remote)
            }
            None => {
                self.stats.remote_calls += 1;
                robust_call(
                    &mut self.rpc,
                    &mut self.ns,
                    &self.service,
                    ctx,
                    op,
                    args,
                    strays,
                    &mut self.stats,
                )
            }
        }
    }

    fn on_oneway(&mut self, _ctx: &mut Ctx, oneway: &rpc::Oneway) {
        if oneway.op == protocol::MSG_RECALL {
            self.recall_requested = true;
        }
    }

    fn poll(&mut self, ctx: &mut Ctx) {
        if self.recall_requested && self.local.is_some() {
            let mut sink: Vec<rpc::Oneway> = Vec::new();
            let _ = self.checkin(ctx, &mut sink);
        }
    }

    fn detach(&mut self, ctx: &mut Ctx) {
        if self.local.is_some() {
            let mut sink: Vec<rpc::Oneway> = Vec::new();
            let _ = self.checkin(ctx, &mut sink);
        }
    }

    fn stats(&self) -> ProxyStats {
        self.stats
    }
}
