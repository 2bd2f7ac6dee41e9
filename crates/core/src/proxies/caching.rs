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
//!   `inv {svc, tag}` notification to the tag's current sharers only.
//!   The proxy drops the tag when the notification arrives (at its next
//!   mailbox poll) and the service forgets it until it reads the tag
//!   again — a proxy that never read what was written hears nothing. A
//!   notification that overtakes the reply it stales is held back while
//!   the call blocks and applied after the reply is cached.
//!
//! The proxy always invalidates its own tag on its own writes, so a
//! client reads its own writes regardless of mode.

use naming::NameClient;
use rpc::{endpoint_to_value, Channel, ChannelConfig, RpcClient, RpcError};
use simnet::{Ctx, Endpoint};
use wire::Value;

use super::read_cache::{note_lookup, ReadCache};
use super::robust_call;
use crate::bulk::BulkEngine;
use crate::interface::{InterfaceDesc, OpKind};
use crate::proxy::{protocol, OnewaySink, Proxy, ProxyStats};
use crate::spec::CachingParams;

/// A proxy that caches read results.
#[derive(Debug)]
pub struct CachingProxy {
    service: String,
    rpc: RpcClient,
    ns: NameClient,
    iface: InterfaceDesc,
    subscribed: bool,
    cache: ReadCache,
    /// When `Some`, writes go through this pipelined channel instead of
    /// blocking on a round trip (write-behind mode).
    write_behind: Option<Channel>,
    /// When `Some`, over-threshold blobs spill out-of-band and reply
    /// references resolve out-of-band. Replies are resolved *before*
    /// they enter the cache, so repeat reads of a bulk value are pure
    /// local hits — the hierarchical edge cache's client-level tier.
    bulk: Option<BulkEngine>,
    stats: ProxyStats,
}

impl CachingProxy {
    /// Creates the proxy and, if the coherence mode calls for it,
    /// subscribes for invalidations.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the subscribe call.
    pub fn bind(
        ctx: &mut Ctx,
        service: impl Into<String>,
        server: Endpoint,
        ns: Endpoint,
        iface: InterfaceDesc,
        params: CachingParams,
    ) -> Result<CachingProxy, RpcError> {
        let mut proxy = CachingProxy {
            service: service.into(),
            rpc: RpcClient::new(server),
            ns: NameClient::new(ns),
            iface,
            subscribed: false,
            cache: ReadCache::new(params.clone()),
            write_behind: None,
            bulk: None,
            stats: ProxyStats::default(),
        };
        if params.coherence.subscribes() {
            proxy.subscribe(ctx)?;
        }
        Ok(proxy)
    }

    /// Subscribes for invalidation pushes.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the call.
    pub(crate) fn subscribe(&mut self, ctx: &mut Ctx) -> Result<(), RpcError> {
        self.rpc.call(
            ctx,
            protocol::OP_SUBSCRIBE,
            Value::record([("cb", endpoint_to_value(ctx.endpoint()))]),
        )?;
        self.subscribed = true;
        Ok(())
    }

    /// Cancels the invalidation subscription.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the call.
    pub(crate) fn unsubscribe(&mut self, ctx: &mut Ctx) -> Result<(), RpcError> {
        if self.subscribed {
            self.rpc.call(
                ctx,
                protocol::OP_UNSUBSCRIBE,
                Value::record([("cb", endpoint_to_value(ctx.endpoint()))]),
            )?;
            self.subscribed = false;
        }
        Ok(())
    }

    /// Switches writes to write-behind: instead of blocking on a round
    /// trip, write ops are staged on a pipelined [`Channel`] and the
    /// call returns `Value::Null` immediately. The proxy still
    /// invalidates its own tags on write, and a read *miss* drains the
    /// channel before going remote, so the client continues to read its
    /// own writes. Durability is deferred: a write is only known to have
    /// executed once the channel drains ([`Proxy::poll`] makes progress;
    /// [`Proxy::detach`] drains fully).
    pub fn enable_write_behind(&mut self, cfg: ChannelConfig) {
        self.write_behind = Some(Channel::new(self.service.clone(), self.rpc.server(), cfg));
    }

    /// Enables the out-of-band bulk data plane: `engine` spills and
    /// resolves this proxy's blobs.
    pub fn enable_bulk(&mut self, engine: BulkEngine) {
        self.bulk = Some(engine);
    }

    /// The bulk engine, if [`Self::enable_bulk`] was called — for
    /// region routing overrides and transfer counters.
    pub fn bulk_mut(&mut self) -> Option<&mut BulkEngine> {
        self.bulk.as_mut()
    }

    fn bulk_spill(
        &mut self,
        ctx: &mut Ctx,
        args: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        match &mut self.bulk {
            Some(eng) if eng.wants_spill(&args) => eng.spill(ctx, args, strays),
            _ => Ok(args),
        }
    }

    fn bulk_resolve(
        &mut self,
        ctx: &mut Ctx,
        v: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        match &mut self.bulk {
            Some(eng) if BulkEngine::wants_resolve(&v) => eng.resolve(ctx, v, strays),
            _ => Ok(v),
        }
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
    pub(crate) fn invoke_nocache(
        &mut self,
        ctx: &mut Ctx,
        op: &str,
        args: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        self.stats.invocations += 1;
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

    /// Drains invalidations already sitting in the process mailbox so a
    /// read that follows a remote write observes it promptly.
    fn drain_mailbox(&mut self, ctx: &mut Ctx, strays: &mut dyn OnewaySink) {
        while let Ok(Some(msg)) = ctx.try_recv() {
            match rpc::Packet::from_frame(&msg.payload) {
                Ok(rpc::Packet::Oneway(o)) => {
                    if o.args.get("svc").and_then(Value::as_str) == Some(self.service.as_str()) {
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
                    self.stats.datagrams_discarded += 1;
                    ctx.obs().on_stray_dropped();
                }
            }
        }
    }

    /// Routes one-way notifications the write-behind channel absorbed
    /// while pumping, then puts the channel back.
    fn route_channel_strays(&mut self, ch: &mut Channel, strays: &mut dyn OnewaySink) {
        for o in ch.take_strays() {
            if o.args.get("svc").and_then(Value::as_str) == Some(self.service.as_str()) {
                self.handle_oneway(&o);
            } else {
                strays.push(o);
            }
        }
    }

    /// Non-blocking write-behind progress: send staged writes, absorb
    /// replies already in the mailbox, drop settled records.
    fn pump_write_behind(
        &mut self,
        ctx: &mut Ctx,
        strays: &mut dyn OnewaySink,
    ) -> Result<(), RpcError> {
        let Some(mut ch) = self.write_behind.take() else {
            return Ok(());
        };
        let r = ch.poll(ctx);
        ch.reap_settled();
        self.route_channel_strays(&mut ch, strays);
        self.write_behind = Some(ch);
        r
    }

    /// Drains the write-behind pipeline completely. Read misses call
    /// this before going remote so the server observes our writes first
    /// (read-your-writes survives the asynchrony).
    fn flush_write_behind(
        &mut self,
        ctx: &mut Ctx,
        strays: &mut dyn OnewaySink,
    ) -> Result<(), RpcError> {
        let Some(mut ch) = self.write_behind.take() else {
            return Ok(());
        };
        let r = ch.wait_all(ctx);
        ch.reap_settled();
        self.route_channel_strays(&mut ch, strays);
        self.write_behind = Some(ch);
        r
    }

    fn handle_oneway(&mut self, o: &rpc::Oneway) {
        if self.cache.on_invalidate(o).is_some() {
            self.stats.invalidations_rx += 1;
        }
    }
}

impl Proxy for CachingProxy {
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
        if self.write_behind.is_some() {
            // The channel drains the mailbox itself: replies feed its
            // outstanding calls, one-ways come back via take_strays.
            // A raw drain here would eat the channel's replies.
            self.pump_write_behind(ctx, strays)?;
        } else if self.subscribed {
            self.drain_mailbox(ctx, strays);
        }
        self.stats.invocations += 1;
        let Some(desc) = self.iface.op(op) else {
            // Undeclared (system or unknown) op: pass through. It
            // might write, so drain asynchronous writes first to
            // preserve ordering.
            self.stats.remote_calls += 1;
            self.flush_write_behind(ctx, strays)?;
            let args = self.bulk_spill(ctx, args, strays)?;
            let v = robust_call(
                &mut self.rpc,
                &mut self.ns,
                &self.service,
                ctx,
                op,
                args,
                strays,
                &mut self.stats,
            )?;
            return self.bulk_resolve(ctx, v, strays);
        };
        let kind = desc.kind;
        // Borrowed from `args` on the hit path; owned only once the call
        // goes remote and `args` moves into it.
        let tag = desc.tag(&args);
        if kind == OpKind::Read {
            let key = ReadCache::key(op, &args);
            if let Some(v) = self.cache.lookup(&tag, &key, ctx.now()) {
                self.stats.local_hits += 1;
                note_lookup(ctx, &self.service, op, true);
                return Ok(v);
            }
            let tag = tag.into_owned();
            self.stats.remote_calls += 1;
            note_lookup(ctx, &self.service, op, false);
            // A miss goes remote: drain pending asynchronous writes
            // first so the server answers after our writes applied.
            self.flush_write_behind(ctx, strays)?;
            let args = self.bulk_spill(ctx, args, strays)?;
            let v = robust_call(
                &mut self.rpc,
                &mut self.ns,
                &self.service,
                ctx,
                op,
                args,
                strays,
                &mut self.stats,
            )?;
            let v = self.bulk_resolve(ctx, v, strays)?;
            self.cache.insert(tag, key, v.clone(), ctx.now());
            return Ok(v);
        }
        // A write: forward, then drop our own stale reads of the tag so
        // we read our own writes.
        let tag = tag.into_owned();
        self.stats.remote_calls += 1;
        // Spill before staging: the write-behind channel then carries
        // only the fixed-size reference, so asynchronous writes stay
        // cheap on the RPC path too.
        let args = self.bulk_spill(ctx, args, strays)?;
        if self.write_behind.is_some() {
            // Write-behind: stage the call on the pipelined channel and
            // return immediately. The channel's retransmission timers
            // and the server's duplicate window keep execution
            // at-most-once; the local invalidation below plus the
            // flush-on-miss above keep read-your-writes.
            let mut ch = self.write_behind.take().expect("checked is_some");
            ch.begin_call(ctx, op, args);
            let r = ch.poll(ctx);
            ch.reap_settled();
            self.route_channel_strays(&mut ch, strays);
            self.write_behind = Some(ch);
            r?;
            self.cache.invalidate_tag(&tag);
            return Ok(Value::Null);
        }
        let v = robust_call(
            &mut self.rpc,
            &mut self.ns,
            &self.service,
            ctx,
            op,
            args,
            strays,
            &mut self.stats,
        )?;
        let v = self.bulk_resolve(ctx, v, strays)?;
        self.cache.invalidate_tag(&tag);
        Ok(v)
    }

    fn on_oneway(&mut self, _ctx: &mut Ctx, oneway: &rpc::Oneway) {
        self.handle_oneway(oneway);
    }

    fn poll(&mut self, ctx: &mut Ctx) {
        let mut sink: Vec<rpc::Oneway> = Vec::new();
        let _ = self.pump_write_behind(ctx, &mut sink);
        if self.write_behind.is_none() && self.subscribed {
            self.drain_mailbox(ctx, &mut sink);
            // Strays for other services found during a poll cannot be
            // routed from here; the session core's pump drains the
            // mailbox itself, so this path only runs for standalone
            // proxies.
        }
    }

    fn detach(&mut self, ctx: &mut Ctx) {
        // Flush asynchronous writes before tearing down: detach is the
        // durability point of write-behind mode.
        let mut sink: Vec<rpc::Oneway> = Vec::new();
        let _ = self.flush_write_behind(ctx, &mut sink);
        let _ = self.unsubscribe(ctx);
        self.clear();
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
