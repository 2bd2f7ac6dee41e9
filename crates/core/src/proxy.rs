//! The client-side proxy abstraction.
//!
//! A [`Proxy`] is the local representative of a remote service — the
//! paper's central artifact. Clients invoke operations *only* through a
//! proxy; what the proxy does (forward, cache, migrate, pick a replica)
//! is the service's business, selected by the [`crate::ProxySpec`] it
//! published.

use std::future::Future;
use std::pin::Pin;

use rpc::{Oneway, RpcError};
use simnet::{AsyncCx, Ctx};
use wire::Value;

/// Well-known operation and notification names of the proxy protocol.
///
/// Operations beginning with `_` are *system* operations handled by the
/// hosting [`crate::ServiceServer`] itself; all other operations are
/// dispatched to the hosted [`crate::ServiceObject`].
pub mod protocol {
    /// Fetch the service interface description.
    pub const OP_IFACE: &str = "_iface";
    /// Subscribe the caller for invalidation notifications.
    pub const OP_SUBSCRIBE: &str = "_subscribe";
    /// Remove an invalidation subscription.
    pub const OP_UNSUBSCRIBE: &str = "_unsubscribe";
    /// Check the object out into the caller's context (migratory).
    pub const OP_CHECKOUT: &str = "_checkout";
    /// Return a checked-out object's state.
    pub const OP_CHECKIN: &str = "_checkin";
    /// Capture the object state without transferring ownership.
    pub const OP_SNAPSHOT: &str = "_snapshot";
    /// Liveness / latency probe.
    pub const OP_PING: &str = "_ping";

    /// One-way: a cached tag became stale (`args: {svc, tag}`).
    pub const MSG_INVALIDATE: &str = "inv";
    /// One-way: the service wants a checked-out object back
    /// (`args: {svc}`).
    pub const MSG_RECALL: &str = "recall";
}

/// Counters every proxy maintains; the currency of the experiment
/// harness.
///
/// Canonical definition lives in the `obs` crate; each proxy keeps its
/// own copy here, and the simulation-wide [`obs::MetricsRegistry`]
/// snapshots the same counters per `(owner, service)` pair.
pub use obs::ProxyStats;

/// The future a [`Proxy`] method returns: boxed, so `dyn Proxy` can
/// return one.
pub type ProxyFuture<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

/// A local representative of a remote service.
///
/// A proxy is written once, as `async`: an `async` body awaits it, and a
/// blocking one runs the same future on its stack
/// ([`simnet::Ctx::block_on`]). A call that needs no wait (a cache hit,
/// an in-context call with no service time) is answered by
/// [`Proxy::try_ready`] first, synchronously: it allocates no future,
/// and a blocking caller does not enter the bridge for it.
pub trait Proxy: Send {
    /// The service name this proxy represents.
    fn service(&self) -> &str;

    /// Answers a call at once if it needs no wait; `None` leaves it to
    /// [`Proxy::invoke`]. One-way notifications found meanwhile that are
    /// addressed to other services are pushed into `strays`.
    fn try_ready(
        &mut self,
        _ctx: &mut Ctx,
        _op: &str,
        _args: &Value,
        _strays: &mut Vec<Oneway>,
    ) -> Option<Result<Value, RpcError>> {
        None
    }

    /// Invokes an operation through the proxy. One-way notifications
    /// that arrive while waiting and are addressed to other services are
    /// pushed into `strays`.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`]: transport failure, remote failure, or shutdown.
    fn invoke<'a>(
        &'a mut self,
        cx: AsyncCx,
        op: &'a str,
        args: Value,
        strays: &'a mut Vec<Oneway>,
    ) -> ProxyFuture<'a, Result<Value, RpcError>>;

    /// Delivers a one-way notification addressed to this proxy's service
    /// (invalidation, recall, …). Must not block.
    fn on_oneway(&mut self, _ctx: &mut Ctx, _oneway: &Oneway) {}

    /// Whether the proxy has deferred work (e.g. a pending recall) for
    /// [`Proxy::poll`]. The session core asks between invocations.
    fn deferred(&self) -> bool {
        false
    }

    /// Does the deferred work [`Proxy::deferred`] reported. One-way
    /// notifications that arrive while it waits go into `strays`.
    fn poll<'a>(&'a mut self, _cx: AsyncCx, _strays: &'a mut Vec<Oneway>) -> ProxyFuture<'a, ()> {
        Box::pin(async {})
    }

    /// Cleanly unbinds: unsubscribe, check state back in. Called by
    /// [`crate::SessionCore::detach`] and before client exit. One-way
    /// notifications that arrive while it waits go into `strays`.
    fn detach<'a>(&'a mut self, _cx: AsyncCx, _strays: &'a mut Vec<Oneway>) -> ProxyFuture<'a, ()> {
        Box::pin(async {})
    }

    /// Current counters.
    fn stats(&self) -> ProxyStats;
}

impl std::fmt::Debug for dyn Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Proxy({})", self.service())
    }
}
