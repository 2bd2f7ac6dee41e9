//! The stub proxy: marshal and forward.

use naming::NameClient;
use rpc::{RpcClient, RpcError};
use simnet::{Ctx, Endpoint};
use wire::Value;

use super::robust_call;
use crate::bulk::BulkEngine;
use crate::interface::InterfaceDesc;
use crate::proxy::{OnewaySink, Proxy, ProxyStats};

/// The degenerate proxy: every invocation becomes one remote call.
///
/// This is exactly the stub of classic RPC (Birrell & Nelson 1984) —
/// the baseline the paper generalizes. It still benefits from the
/// binding protocol: `Moved` redirects and dead-endpoint re-lookups are
/// handled transparently, and the interface says which calls a timeout
/// may re-issue.
#[derive(Debug)]
pub struct StubProxy {
    service: String,
    iface: InterfaceDesc,
    rpc: RpcClient,
    ns: NameClient,
    stats: ProxyStats,
    bulk: Option<BulkEngine>,
}

impl StubProxy {
    /// Creates a stub proxy for `service` at `server`, using the name
    /// server at `ns` for rebinds. After a timeout it re-issues only the
    /// ops `iface` declares idempotent (and the ones it does not declare).
    pub fn new(
        service: impl Into<String>,
        server: Endpoint,
        ns: Endpoint,
        iface: InterfaceDesc,
    ) -> StubProxy {
        StubProxy {
            service: service.into(),
            iface,
            rpc: RpcClient::new(server),
            ns: NameClient::new(ns),
            stats: ProxyStats::default(),
            bulk: None,
        }
    }

    /// The endpoint currently called (may change after redirects).
    pub fn server(&self) -> Endpoint {
        self.rpc.server()
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
}

impl Proxy for StubProxy {
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
        let args = match &mut self.bulk {
            Some(eng) if eng.wants_spill(&args) => eng.spill(ctx, args, strays)?,
            _ => args,
        };
        let reply = robust_call(
            &mut self.rpc,
            &mut self.ns,
            &self.service,
            &self.iface,
            ctx,
            op,
            args,
            strays,
            &mut self.stats,
        )?;
        match &mut self.bulk {
            Some(eng) if BulkEngine::wants_resolve(&reply) => eng.resolve(ctx, reply, strays),
            _ => Ok(reply),
        }
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
