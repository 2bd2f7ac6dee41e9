//! The local proxy: the same-context fast path.
//!
//! When client and service share a context (the same address space),
//! the proxy principle says invocation must degenerate to an ordinary
//! procedure call — no marshalling, no messages. [`LocalProxy`] hosts
//! the object directly in the client's context and dispatches in-line;
//! experiment E5 measures the gap against a remote stub.

use rpc::{Oneway, RpcError};
use simnet::{AsyncCx, Ctx};
use wire::Value;

use crate::object::{dispatch_local, ServiceObject};
use crate::proxy::{Proxy, ProxyFuture, ProxyStats};

/// A proxy for an object living in this very context.
pub struct LocalProxy {
    service: String,
    object: Box<dyn ServiceObject>,
    stats: ProxyStats,
}

impl std::fmt::Debug for LocalProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalProxy")
            .field("service", &self.service)
            .finish()
    }
}

impl LocalProxy {
    /// Hosts `object` locally under `service`.
    pub fn new(service: impl Into<String>, object: Box<dyn ServiceObject>) -> LocalProxy {
        LocalProxy {
            service: service.into(),
            object,
            stats: ProxyStats::default(),
        }
    }
}

impl Proxy for LocalProxy {
    fn service(&self) -> &str {
        &self.service
    }

    fn try_ready(
        &mut self,
        ctx: &mut Ctx,
        op: &str,
        args: &Value,
        _strays: &mut Vec<Oneway>,
    ) -> Option<Result<Value, RpcError>> {
        if !self.object.service_time(op, args).is_zero() {
            return None;
        }
        self.stats.invocations += 1;
        self.stats.local_hits += 1;
        Some(
            self.object
                .dispatch(ctx, op, args)
                .map_err(RpcError::Remote),
        )
    }

    fn invoke<'a>(
        &'a mut self,
        cx: AsyncCx,
        op: &'a str,
        args: Value,
        _strays: &'a mut Vec<Oneway>,
    ) -> ProxyFuture<'a, Result<Value, RpcError>> {
        self.stats.invocations += 1;
        self.stats.local_hits += 1;
        Box::pin(async move {
            dispatch_local(self.object.as_mut(), cx, op, &args)
                .await
                .map_err(RpcError::Remote)
        })
    }

    fn stats(&self) -> ProxyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::testutil::TestKv;
    use simnet::{NetworkConfig, NodeId, Simulation};

    #[test]
    fn dispatches_without_any_network() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn("host", NodeId(0), |ctx| {
            let mut p = LocalProxy::new("kv", Box::new(TestKv::default()));
            let mut sink = Vec::new();
            let put = Value::record([("key", Value::str("a")), ("value", Value::str("1"))]);
            ctx.block_on(|cx| p.invoke(cx, "put", put, &mut sink))
                .unwrap();
            let get = Value::record([("key", Value::str("a"))]);
            let v = p.try_ready(ctx, "get", &get, &mut sink).unwrap();
            assert_eq!(v.unwrap(), Value::str("1"));
            assert_eq!(p.stats().local_hits, 2);
            assert_eq!(p.stats().remote_calls, 0);
        });
        let report = sim.run();
        assert_eq!(report.metrics.msgs_sent, 0, "no messages for local calls");
        assert_eq!(report.end_time, simnet::SimTime::ZERO, "no time elapsed");
    }
}
