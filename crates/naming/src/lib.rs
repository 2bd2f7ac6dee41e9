//! # naming — the name service
//!
//! Services register themselves under a string name together with the
//! metadata a client needs to *bind* to them (in the proxy principle, the
//! service-chosen proxy specification). Clients look names up, cache the
//! bindings, and re-resolve when a binding goes stale — e.g. after the
//! service migrates and bumps its location generation.
//!
//! The name server is itself an ordinary RPC service: the bootstrap
//! problem is solved the classic way, by making its endpoint well known
//! ([`NAME_SERVER_PORT`] on an agreed node). It is one process, and it
//! owns its table ([`Directory`]): every other context reaches the
//! table only by message, so the table needs no lock.
//!
//! Its writes (`register`, `update`, `unregister`) are at-most-once like
//! any RPC: a retransmission is answered from the recorded reply. Its
//! reads (`lookup`, `list`) are the exception: running one twice does
//! no harm, so the server records no reply and keeps no per-client state
//! for them, and a retransmitted lookup is run again, answered with the
//! binding as it stands then. A client that only binds leaves nothing
//! behind. The table keeps each record encoded, made once per write,
//! and every lookup reply carries those bytes.
//!
//! The protocol is private to this crate, so its messages are
//! positional: `lookup` and `unregister` take the name itself
//! ([`name_arg`]); `register` and `update` take `[name, [node, port],
//! meta]` ([`binding_args`]; an `update`'s null `meta` keeps the bound
//! one) and answer with the new generation; `lookup` answers with the
//! record ([`NameRecord`]), `list` with the sorted list of names. Any
//! other shape, a missing `meta` included, is refused with `BadArgs`.
//!
//! ## Example
//!
//! ```
//! use simnet::{Simulation, NetworkConfig, NodeId};
//! use naming::{spawn_name_server, NameClient};
//! use wire::Value;
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 1);
//! let ns = spawn_name_server(&sim, NodeId(0));
//! sim.spawn_async("svc", NodeId(1), move |cx| async move {
//!     let mut nc = NameClient::new(ns);
//!     let me = cx.with(|cx| cx.endpoint());
//!     nc.register(cx, "printer", me, Value::Null).await.unwrap();
//!     let rec = nc.lookup(cx, "printer", None).await.unwrap();
//!     assert_eq!(rec.endpoint, me);
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod directory;
mod record;
mod server;

pub use directory::Directory;
pub use record::NameRecord;
pub use server::{spawn_name_server, NAME_SERVER_PORT};

use std::collections::HashMap;

use rpc::{endpoint_to_value, Channel, ChannelConfig, ErrorCode, OnStray, RpcError};
use simnet::{AsyncCx, Endpoint};
use wire::{Value, WireError};

/// The argument of `lookup` and `unregister`: the name itself.
pub fn name_arg(name: &str) -> Value {
    Value::str(name)
}

/// The arguments of `register` and `update`: a name's binding,
/// `[name, [node, port], meta]`.
pub fn binding_args(name: &str, endpoint: Endpoint, meta: Value) -> Value {
    Value::list([Value::str(name), endpoint_to_value(endpoint), meta])
}

/// The answer to `register` and `update`: the new generation.
fn generation(rep: Value) -> Result<u64, RpcError> {
    let actual = rep.kind();
    let wrong = WireError::WrongKind {
        expected: "generation",
        actual,
    };
    Ok(rep.as_u64().ok_or(wrong)?)
}

/// Typed client for the name service, with an optional binding cache.
///
/// The cache is consulted by [`NameClient::resolve`]; a caller that
/// discovers a binding is stale (e.g. an RPC to the recorded endpoint
/// times out or returns `Moved`) calls [`NameClient::forget`] and
/// resolves again.
///
/// A lookup waits on the name server's reply, so it is told what to do
/// with whatever else arrives meanwhile: a caller that routes one-ways
/// hands it an [`OnStray`] rule, as to any [`Channel::call`].
#[derive(Debug)]
pub struct NameClient {
    ns: Endpoint,
    /// The channel to the name server, built by the first call: a
    /// context that only binds through the ticket surface never opens it.
    rpc: Option<Box<Channel>>,
    cache: HashMap<String, NameRecord>,
    /// Cache hits served without contacting the name server.
    pub cache_hits: u64,
    /// Lookups that had to contact the name server.
    pub cache_misses: u64,
}

impl NameClient {
    /// Creates a client for the name server at `ns`.
    pub fn new(ns: Endpoint) -> NameClient {
        NameClient {
            ns,
            rpc: None,
            cache: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// The name server's endpoint.
    pub fn server(&self) -> Endpoint {
        self.ns
    }

    /// The channel to the name server, built on first use.
    fn rpc(&mut self) -> &mut Channel {
        let ns = self.ns;
        self.rpc
            .get_or_insert_with(|| Box::new(Channel::new("", ns, ChannelConfig::with_depth(1))))
    }

    /// Registers (or replaces) `name` with a location and binding
    /// metadata, returning the new generation.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the underlying call.
    pub async fn register(
        &mut self,
        cx: AsyncCx,
        name: &str,
        endpoint: Endpoint,
        meta: Value,
    ) -> Result<u64, RpcError> {
        let args = binding_args(name, endpoint, meta);
        generation(self.rpc().call(cx, "", "register", args, None).await?)
    }

    /// Updates the location of an existing name (migration), bumping its
    /// generation.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchObject`] if the name is unknown, or any
    /// transport error.
    pub async fn update(
        &mut self,
        cx: AsyncCx,
        name: &str,
        endpoint: Endpoint,
        meta: Value,
    ) -> Result<u64, RpcError> {
        let args = binding_args(name, endpoint, meta);
        let rep = self.rpc().call(cx, "", "update", args, None).await?;
        self.cache.remove(name);
        generation(rep)
    }

    /// Removes a name.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchObject`] if the name is unknown, or any
    /// transport error.
    pub async fn unregister(&mut self, cx: AsyncCx, name: &str) -> Result<(), RpcError> {
        let args = name_arg(name);
        self.rpc().call(cx, "", "unregister", args, None).await?;
        self.cache.remove(name);
        Ok(())
    }

    /// Looks `name` up at the name server (bypassing the cache) and
    /// refreshes the cache entry, handing what arrives meanwhile to
    /// `strays`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchObject`] if the name is unknown, or any
    /// transport error.
    pub async fn lookup(
        &mut self,
        cx: AsyncCx,
        name: &str,
        strays: Option<OnStray<'_>>,
    ) -> Result<NameRecord, RpcError> {
        let args = name_arg(name);
        let rec = NameRecord::from_value(self.rpc().call(cx, "", "lookup", args, strays).await?)?;
        self.cache.insert(name.to_owned(), rec.clone());
        Ok(rec)
    }

    /// Resolves `name`, preferring the local binding cache, and handing
    /// what arrives while it looks up to `strays`.
    ///
    /// # Errors
    ///
    /// Same as [`NameClient::lookup`] on a cache miss.
    pub async fn resolve(
        &mut self,
        cx: AsyncCx,
        name: &str,
        strays: Option<OnStray<'_>>,
    ) -> Result<NameRecord, RpcError> {
        if let Some(rec) = self.cache.get(name) {
            self.cache_hits += 1;
            return Ok(rec.clone());
        }
        self.cache_misses += 1;
        self.lookup(cx, name, strays).await
    }

    /// Drops a cached binding (after discovering it is stale).
    pub fn forget(&mut self, name: &str) {
        self.cache.remove(name);
    }

    /// Lists all registered names in lexicographic order.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the underlying call.
    pub async fn list(&mut self, cx: AsyncCx) -> Result<Vec<String>, RpcError> {
        let rep = self.rpc().call(cx, "", "list", Value::Null, None).await?;
        let names = rep.as_list().and_then(|names| {
            let name = |v: &Value| v.as_str().map(str::to_owned);
            names.iter().map(name).collect()
        });
        Ok(names.ok_or(WireError::WrongKind {
            expected: "a list of names",
            actual: rep.kind(),
        })?)
    }
}

/// Convenience: true if the error is "name not found".
pub fn is_not_found(err: &RpcError) -> bool {
    matches!(err, RpcError::Remote(e) if e.code == ErrorCode::NoSuchObject)
}
