//! The stub proxy: marshal and forward.

use naming::NameClient;
use rpc::{Channel, ChannelConfig, RpcClient, RpcError};
use simnet::{Ctx, Endpoint};
use wire::Value;

use super::robust_call;
use crate::bulk::BulkEngine;
use crate::proxy::{OnewaySink, Proxy, ProxyStats};

/// The degenerate proxy: every invocation becomes one remote call.
///
/// This is exactly the stub of classic RPC (Birrell & Nelson 1984) —
/// the baseline the paper generalizes. It still benefits from the
/// binding protocol: `Moved` redirects and dead-endpoint re-lookups are
/// handled transparently.
#[derive(Debug)]
pub struct StubProxy {
    service: String,
    rpc: RpcClient,
    ns: NameClient,
    stats: ProxyStats,
    bulk: Option<BulkEngine>,
}

impl StubProxy {
    /// Creates a stub proxy for `service` at `server`, using the name
    /// server at `ns` for rebinds.
    pub fn new(service: impl Into<String>, server: Endpoint, ns: Endpoint) -> StubProxy {
        StubProxy {
            service: service.into(),
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

    /// Issues many calls through a pipelined [`Channel`] and returns
    /// their results in call order. With `cfg.pipeline_depth > 1` the
    /// calls overlap on the wire (and with `cfg.max_batch > 1` they
    /// share datagrams), so `n` calls cost far fewer than `n` round
    /// trips — the stub's answer to the caching proxy's latency tricks
    /// when every result is really needed.
    ///
    /// One-way notifications that arrive while the channel pumps are
    /// routed to `strays`. Unlike [`Proxy::invoke`], this path does not
    /// chase `Moved` redirects: a migration mid-pipeline surfaces as
    /// that call's error entry.
    ///
    /// # Errors
    ///
    /// [`RpcError::Stopped`] on simulation shutdown; every other
    /// failure is per-call in the returned vector.
    pub fn invoke_many(
        &mut self,
        ctx: &mut Ctx,
        calls: &[(&str, Value)],
        cfg: ChannelConfig,
        strays: &mut dyn OnewaySink,
    ) -> Result<Vec<Result<Value, RpcError>>, RpcError> {
        let mut ch = Channel::new(self.service.clone(), self.rpc.server(), cfg);
        let handles: Vec<_> = calls
            .iter()
            .map(|(op, args)| {
                self.stats.invocations += 1;
                self.stats.remote_calls += 1;
                ch.begin_call(ctx, op, args.clone())
            })
            .collect();
        ch.wait_all(ctx)?;
        let results = handles.into_iter().map(|h| ch.wait(ctx, h)).collect();
        for o in ch.take_strays() {
            strays.push(o);
        }
        Ok(results)
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
