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

/// The proxy protocol: its names, and the one encoder and decoder of
/// each notification. Operations beginning with `_` are *system*
/// operations handled by the hosting [`crate::ServiceServer`] itself;
/// the rest go to the hosted [`crate::ServiceObject`]. The protocol is
/// private to a service and its proxies, so it is positional:
/// `_subscribe` and `_unsubscribe` take the callback endpoint
/// ([`rpc::endpoint_to_value`]), `_checkout` answers with the object's
/// state and `_checkin` takes it; `inv` is `[svc, tag]`, `recall` `[svc]`.
pub mod protocol {
    use rpc::Oneway;
    use wire::{Value, WireError};

    /// Subscribe the caller for invalidation notifications.
    pub const OP_SUBSCRIBE: &str = "_subscribe";
    /// Remove an invalidation subscription.
    pub const OP_UNSUBSCRIBE: &str = "_unsubscribe";
    /// Check the object out into the caller's context (migratory).
    pub const OP_CHECKOUT: &str = "_checkout";
    /// Return a checked-out object's state.
    pub const OP_CHECKIN: &str = "_checkin";
    /// Liveness / latency probe (a replica answers it).
    pub const OP_PING: &str = "_ping";
    /// One-way: a cached tag became stale.
    pub const MSG_INVALIDATE: &str = "inv";
    /// One-way: the service wants a checked-out object back.
    pub const MSG_RECALL: &str = "recall";

    /// The body of an `inv`, `[svc, tag]`.
    pub fn invalidation(service: &str, tag: &str) -> Value {
        Value::list([Value::str(service), Value::str(tag)])
    }

    /// The body of a `recall`, `[svc]`.
    pub fn recall(service: &str) -> Value {
        Value::list([Value::str(service)])
    }

    /// Decodes a notice: the service it comes from, and the stale tag
    /// of an `inv` (`None` for a `recall`).
    ///
    /// # Errors
    ///
    /// A [`WireError`] for another op, or a body of another shape.
    pub fn notice(o: &Oneway) -> Result<(&str, Option<&str>), WireError> {
        match (o.op.as_str(), o.args.as_list().unwrap_or_default()) {
            (MSG_INVALIDATE, [Value::Str(svc), Value::Str(tag)]) => Ok((svc, Some(tag))),
            (MSG_RECALL, [Value::Str(svc)]) => Ok((svc, None)),
            _ => Err(WireError::WrongKind {
                expected: "inv [svc, tag] or recall [svc]",
                actual: o.args.kind(),
            }),
        }
    }
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

#[cfg(test)]
mod tests {
    use rpc::Oneway;
    use simnet::{Endpoint, NodeId, PortId};
    use wire::Value;

    use super::protocol::{self, MSG_INVALIDATE, MSG_RECALL};

    fn oneway(op: &str, args: Value) -> Oneway {
        Oneway {
            from: Endpoint::new(NodeId(1), PortId(2)),
            op: op.into(),
            args,
            span: 0,
        }
    }

    #[test]
    fn notices_decode_strictly() {
        let inv = oneway(MSG_INVALIDATE, protocol::invalidation("kv", "k"));
        assert_eq!(protocol::notice(&inv).unwrap(), ("kv", Some("k")));
        let recall = oneway(MSG_RECALL, protocol::recall("kv"));
        assert_eq!(protocol::notice(&recall).unwrap(), ("kv", None));
        let s = Value::str;
        let refused = [
            (MSG_INVALIDATE, Value::list([s("kv")])),
            (MSG_INVALIDATE, Value::list([s("kv"), s("k"), s("k")])),
            (MSG_INVALIDATE, Value::list([s("kv"), Value::U64(7)])),
            (
                MSG_INVALIDATE,
                Value::record([("svc", s("kv")), ("tag", s("k"))]),
            ),
            (MSG_RECALL, Value::list([])),
            (MSG_RECALL, Value::list([s("kv"), s("kv")])),
            (MSG_RECALL, s("kv")),
            ("poke", Value::list([s("kv")])),
        ];
        for (op, args) in refused {
            let o = oneway(op, args);
            assert!(protocol::notice(&o).is_err(), "{op} {} decoded", o.args);
        }
    }
}
