//! The adaptive proxy: switch strategy to match the access pattern.
//!
//! Experiment E9's subject. The proxy watches a sliding window of
//! invocations; when the read fraction rises above `enable_at` it turns
//! caching on (subscribing for invalidations), and when it falls below
//! `disable_at` it turns caching off again (unsubscribing and dropping
//! the cache). The hysteresis gap prevents flapping on noisy workloads.
//!
//! From the client's point of view nothing ever changes — which is the
//! paper's encapsulation claim in its sharpest form: even the *dynamic*
//! choice of distribution strategy is private to the service side of the
//! interface.

use std::collections::VecDeque;

use rpc::{Oneway, RpcError};
use simnet::{AsyncCx, Ctx, Endpoint};
use wire::Value;

use super::caching::CachingProxy;
use crate::interface::{InterfaceDesc, OpKind};
use crate::proxy::{Proxy, ProxyFuture, ProxyStats};
use crate::spec::AdaptiveParams;

/// A proxy that toggles between stub and caching behaviour based on the
/// observed read/write mix.
#[derive(Debug)]
pub struct AdaptiveProxy {
    inner: CachingProxy,
    iface: InterfaceDesc,
    params: AdaptiveParams,
    window: VecDeque<bool>, // true = read
    reads_in_window: usize,
    caching_on: bool,
    switches: u64,
}

impl AdaptiveProxy {
    /// Creates the proxy; starts in stub mode (no cache, no
    /// subscription) until the workload proves read-heavy.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from constructing the inner proxy.
    pub async fn bind(
        cx: AsyncCx,
        service: impl Into<String>,
        server: Endpoint,
        ns: Endpoint,
        iface: InterfaceDesc,
        params: AdaptiveParams,
        strays: &mut Vec<Oneway>,
    ) -> Result<AdaptiveProxy, RpcError> {
        // Start unsubscribed regardless of the caching params' coherence:
        // we subscribe only when caching turns on.
        let mut caching = params.caching.clone();
        caching.coherence = crate::spec::Coherence::Lease(std::time::Duration::ZERO);
        let mut inner =
            CachingProxy::bind(cx, service, server, ns, iface.clone(), caching, strays).await?;
        // Restore the real parameters for when caching turns on.
        inner.set_params(params.caching.clone());
        Ok(AdaptiveProxy {
            inner,
            iface,
            params,
            window: VecDeque::new(),
            reads_in_window: 0,
            caching_on: false,
            switches: 0,
        })
    }

    /// Number of strategy switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Current read fraction over the sliding window (0 when empty).
    pub fn read_fraction(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.reads_in_window as f64 / self.window.len() as f64
        }
    }

    fn record(&mut self, is_read: bool) {
        self.window.push_back(is_read);
        if is_read {
            self.reads_in_window += 1;
        }
        while self.window.len() > self.params.window {
            if self.window.pop_front() == Some(true) {
                self.reads_in_window -= 1;
            }
        }
    }

    async fn maybe_switch(&mut self, cx: AsyncCx, strays: &mut Vec<Oneway>) {
        // Wait for a meaningful sample before the first switch.
        if self.window.len() < self.params.window / 2 {
            return;
        }
        let frac = self.read_fraction();
        if !self.caching_on && frac >= self.params.enable_at {
            let ready = if self.params.caching.coherence.subscribes() {
                self.inner.subscribe(cx, strays).await.is_ok()
            } else {
                true // lease-only coherence needs no server cooperation
            };
            if ready {
                self.caching_on = true;
                self.switches += 1;
            }
        } else if self.caching_on && frac <= self.params.disable_at {
            let _ = self.inner.unsubscribe(cx, strays).await;
            self.inner.clear();
            self.caching_on = false;
            self.switches += 1;
        }
    }
}

impl Proxy for AdaptiveProxy {
    fn service(&self) -> &str {
        self.inner.service()
    }

    fn invoke<'a>(
        &'a mut self,
        cx: AsyncCx,
        op: &'a str,
        args: Value,
        strays: &'a mut Vec<Oneway>,
    ) -> ProxyFuture<'a, Result<Value, RpcError>> {
        Box::pin(async move {
            let is_read = matches!(self.iface.op(op), Some(d) if d.kind == OpKind::Read);
            self.record(is_read);
            self.maybe_switch(cx, strays).await;
            if self.caching_on {
                self.inner.invoke_cached(cx, op, args, strays).await
            } else {
                self.inner.invoke_nocache(cx, op, args, strays).await
            }
        })
    }

    fn on_oneway(&mut self, ctx: &mut Ctx, oneway: &rpc::Oneway) {
        self.inner.on_oneway(ctx, oneway);
    }

    fn detach<'a>(&'a mut self, cx: AsyncCx, strays: &'a mut Vec<Oneway>) -> ProxyFuture<'a, ()> {
        self.inner.detach(cx, strays)
    }

    fn stats(&self) -> ProxyStats {
        let mut s = self.inner.stats();
        s.strategy_switches = self.switches;
        s
    }
}
