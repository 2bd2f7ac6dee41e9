//! The caching proxy: read results cached in the client context.
//!
//! Reads declared in the service interface are cached under their *tag*
//! (see [`crate::OpDesc::tag`]). Coherence follows the service-chosen
//! [`Coherence`] mode:
//!
//! * **Leases** — every entry expires after a fixed duration; stale
//!   windows are bounded by the lease with zero server state.
//! * **Invalidations** — the proxy subscribes at bind time; the service
//!   files it under every tag it reads, and a write pushes an
//!   `inv [svc, tag]` notification to the tag's current sharers only.
//!   The proxy drops the tag when the notification arrives (at its next
//!   mailbox poll) and the service forgets it until it reads the tag
//!   again — a proxy that never read what was written hears nothing. A
//!   notification that overtakes the reply it stales is held back while
//!   the call blocks and applied after the reply is cached.
//!
//! The proxy always invalidates its own tag on its own writes, so a
//! client reads its own writes regardless of mode.

use rpc::{endpoint_to_value, oneways_into, Oneway, RpcError};
use simnet::{AsyncCx, Ctx, Endpoint};
use wire::Value;

use super::read_cache::{note_lookup, ReadCache};
use super::Remote;
use crate::bulk::BulkEngine;
use crate::interface::{InterfaceDesc, OpKind};
use crate::proxy::{protocol, Proxy, ProxyFuture, ProxyStats};
use crate::spec::CachingParams;

/// A proxy that caches read results.
#[derive(Debug)]
pub struct CachingProxy {
    /// The service's remote end. With a bulk engine enabled, replies are
    /// resolved *before* they enter the cache, so repeat reads of a bulk
    /// value are pure local hits — the hierarchical edge cache's
    /// client-level tier.
    remote: Remote,
    subscribed: bool,
    cache: ReadCache,
}

impl CachingProxy {
    /// Creates the proxy and, if the coherence mode calls for it,
    /// subscribes for invalidations. One-way notifications that arrive
    /// while it subscribes go into `strays`.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the subscribe call.
    pub async fn bind(
        cx: AsyncCx,
        service: impl Into<String>,
        server: Endpoint,
        ns: Endpoint,
        iface: InterfaceDesc,
        params: CachingParams,
        strays: &mut Vec<Oneway>,
    ) -> Result<CachingProxy, RpcError> {
        let mut proxy = CachingProxy {
            remote: Remote::new(service, server, ns, iface),
            subscribed: false,
            cache: ReadCache::new(params.clone()),
        };
        if params.coherence.subscribes() {
            proxy.subscribe(cx, strays).await?;
        }
        Ok(proxy)
    }

    /// Subscribes (`OP_SUBSCRIBE`) or unsubscribes for invalidation
    /// pushes, handing the one-ways that arrive meanwhile to `strays`.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the call.
    async fn subscription(
        &mut self,
        cx: AsyncCx,
        op: &str,
        strays: &mut Vec<Oneway>,
    ) -> Result<(), RpcError> {
        let args = endpoint_to_value(cx.with(|cx| cx.endpoint()));
        self.remote
            .rpc
            .call(cx, "", op, args, Some(&mut oneways_into(strays)))
            .await?;
        self.subscribed = op == protocol::OP_SUBSCRIBE;
        Ok(())
    }

    /// Subscribes for invalidation pushes.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the call.
    pub(crate) async fn subscribe(
        &mut self,
        cx: AsyncCx,
        strays: &mut Vec<Oneway>,
    ) -> Result<(), RpcError> {
        self.subscription(cx, protocol::OP_SUBSCRIBE, strays).await
    }

    /// Cancels the invalidation subscription.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the call.
    pub(crate) async fn unsubscribe(
        &mut self,
        cx: AsyncCx,
        strays: &mut Vec<Oneway>,
    ) -> Result<(), RpcError> {
        match self.subscribed {
            true => {
                self.subscription(cx, protocol::OP_UNSUBSCRIBE, strays)
                    .await
            }
            false => Ok(()),
        }
    }

    /// Enables the out-of-band bulk data plane: `engine` spills and
    /// resolves this proxy's blobs.
    pub fn enable_bulk(&mut self, engine: BulkEngine) {
        self.remote.enable_bulk(engine);
    }

    /// The bulk engine, if [`Self::enable_bulk`] was called — for
    /// region routing overrides and transfer counters.
    pub fn bulk_mut(&mut self) -> Option<&mut BulkEngine> {
        self.remote.bulk_mut()
    }

    /// Replaces the caching parameters (used by the adaptive proxy when
    /// it flips strategies). Existing entries keep their old expiry.
    pub(crate) fn set_params(&mut self, params: CachingParams) {
        self.cache.set_params(params);
    }

    /// Drops every cached entry.
    pub(crate) fn clear(&mut self) {
        self.cache.clear();
    }

    /// Forwards a call without consulting or filling the cache (used by
    /// the adaptive proxy while caching is disabled).
    pub(crate) async fn invoke_nocache(
        &mut self,
        cx: AsyncCx,
        op: &str,
        args: Value,
        strays: &mut Vec<Oneway>,
    ) -> Result<Value, RpcError> {
        self.remote.stats.invocations += 1;
        self.remote.stats.remote_calls += 1;
        self.remote.call_plain(cx, op, args, strays).await
    }

    /// Drains invalidations already sitting in the process mailbox so a
    /// read that follows a remote write observes it promptly.
    fn drain_mailbox(&mut self, ctx: &mut Ctx, strays: &mut Vec<Oneway>) {
        if !self.subscribed {
            return;
        }
        while let Ok(Some(msg)) = ctx.try_recv() {
            match rpc::Packet::from_frame(&msg.payload) {
                Ok(rpc::Packet::Oneway(o)) => {
                    if protocol::notice(&o).is_ok_and(|(svc, _)| svc == self.service()) {
                        self.handle_oneway(&o);
                    } else {
                        strays.push(o);
                    }
                }
                // Anything else — late duplicate replies, requests,
                // undecodable frames — cannot be serviced from here.
                // They used to vanish silently; now the drop is at least
                // visible.
                Ok(_) | Err(_) => {
                    self.remote.stats.datagrams_discarded += 1;
                    ctx.obs().on_stray_dropped();
                }
            }
        }
    }

    fn handle_oneway(&mut self, o: &rpc::Oneway) {
        if self.cache.on_invalidate(o).is_some() {
            self.remote.stats.invalidations_rx += 1;
        }
    }

    /// Looks a call up in the cache: `Ok` is a hit (counted), `Err` a
    /// call to make, with the key a read fills.
    fn lookup(&mut self, ctx: &Ctx, op: &str, args: &Value) -> Result<Value, Option<Vec<u8>>> {
        let desc = self
            .remote
            .iface()
            .op(op)
            .filter(|d| d.kind == OpKind::Read);
        let Some(desc) = desc else {
            return Err(None);
        };
        let v = (self.cache)
            .lookup_read(&desc.tag(args), op, args, ctx.now())
            .map_err(Some)?;
        self.remote.stats.invocations += 1;
        self.remote.stats.local_hits += 1;
        note_lookup(ctx, self.service(), op, true);
        Ok(v)
    }

    /// Invokes through the cache: a read hit is answered locally, a miss
    /// filled from the service, and a write forwarded.
    pub(crate) async fn invoke_cached(
        &mut self,
        cx: AsyncCx,
        op: &str,
        args: Value,
        strays: &mut Vec<Oneway>,
    ) -> Result<Value, RpcError> {
        let looked = cx.with(|cx| {
            self.drain_mailbox(cx, strays);
            self.lookup(cx, op, &args)
        });
        let key = match looked {
            Ok(v) => return Ok(v),
            Err(key) => key,
        };
        self.remote.stats.invocations += 1;
        self.remote.stats.remote_calls += 1;
        let Some(desc) = self.remote.iface().op(op) else {
            // Undeclared (system or unknown) op: pass through.
            return self.remote.call(cx, op, args, strays).await;
        };
        let tag = desc.tag(&args).into_owned();
        if let Some(key) = key {
            cx.with(|cx| note_lookup(cx, self.service(), op, false));
            let v = self.remote.call(cx, op, args, strays).await?;
            let now = cx.with(|cx| cx.now());
            self.cache.insert(tag, key, v.clone(), now);
            return Ok(v);
        }
        // A write: forward, then drop our own stale reads of the tag so
        // we read our own writes.
        let v = self.remote.call(cx, op, args, strays).await?;
        self.cache.invalidate_tag(&tag);
        Ok(v)
    }
}

impl Proxy for CachingProxy {
    fn service(&self) -> &str {
        self.remote.service()
    }

    fn try_ready(
        &mut self,
        ctx: &mut Ctx,
        op: &str,
        args: &Value,
        strays: &mut Vec<Oneway>,
    ) -> Option<Result<Value, RpcError>> {
        self.drain_mailbox(ctx, strays);
        self.lookup(ctx, op, args).ok().map(Ok)
    }

    fn invoke<'a>(
        &'a mut self,
        cx: AsyncCx,
        op: &'a str,
        args: Value,
        strays: &'a mut Vec<Oneway>,
    ) -> ProxyFuture<'a, Result<Value, RpcError>> {
        Box::pin(self.invoke_cached(cx, op, args, strays))
    }

    fn on_oneway(&mut self, _ctx: &mut Ctx, oneway: &rpc::Oneway) {
        self.handle_oneway(oneway);
    }

    fn detach<'a>(&'a mut self, cx: AsyncCx, strays: &'a mut Vec<Oneway>) -> ProxyFuture<'a, ()> {
        Box::pin(async move {
            let _ = self.unsubscribe(cx, strays).await;
            self.clear();
        })
    }

    fn stats(&self) -> ProxyStats {
        self.remote.stats()
    }
}
