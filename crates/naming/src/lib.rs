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
//! ([`NAME_SERVER_PORT`] on an agreed node).
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
//! sim.spawn("svc", NodeId(1), move |ctx| {
//!     let mut nc = NameClient::new(ns);
//!     nc.register(ctx, "printer", ctx.endpoint(), Value::Null).unwrap();
//!     let rec = nc.lookup(ctx, "printer").unwrap();
//!     assert_eq!(rec.endpoint, ctx.endpoint());
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
pub use server::{spawn_name_cluster, spawn_name_server, NAME_SERVER_PORT};

use std::collections::HashMap;

use rpc::{endpoint_to_value, CallHandle, ErrorCode, RpcClient, RpcError};
use simnet::{Ctx, Endpoint, Poll, ProcCx};
use wire::Value;

/// The arguments of `register` and `update`: a name's binding.
fn binding_args(name: &str, endpoint: Endpoint, meta: Value) -> Value {
    Value::record([
        ("name", Value::str(name)),
        ("ep", endpoint_to_value(endpoint)),
        ("meta", meta),
    ])
}

/// Typed client for the name service, with an optional binding cache.
///
/// The cache is consulted by [`NameClient::resolve`]; a caller that
/// discovers a binding is stale (e.g. an RPC to the recorded endpoint
/// times out or returns `Moved`) calls [`NameClient::forget`] and
/// resolves again.
#[derive(Debug)]
pub struct NameClient {
    rpc: RpcClient,
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
            rpc: RpcClient::new(ns),
            cache: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Registers (or replaces) `name` with a location and binding
    /// metadata, returning the new generation.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the underlying call.
    pub fn register(
        &mut self,
        ctx: &mut Ctx,
        name: &str,
        endpoint: Endpoint,
        meta: Value,
    ) -> Result<u64, RpcError> {
        let rep = self
            .rpc
            .call(ctx, "register", binding_args(name, endpoint, meta))?;
        Ok(rep.get_u64("gen")?)
    }

    /// [`NameClient::register`] for a process that cannot block: sends
    /// the same request and returns it in flight, to be driven by
    /// [`NameClient::poll_register`].
    pub fn start_register(
        &mut self,
        ctx: &mut Ctx,
        name: &str,
        endpoint: Endpoint,
        meta: Value,
    ) -> CallHandle {
        self.rpc
            .start(ctx, "", "register", binding_args(name, endpoint, meta))
    }

    /// Advances a registration made by [`NameClient::start_register`]
    /// (see [`RpcClient::poll`]); `Ready` carries what
    /// [`NameClient::register`] returns.
    pub fn poll_register(
        &mut self,
        cx: &mut ProcCx,
        call: CallHandle,
    ) -> Poll<Result<u64, RpcError>> {
        self.rpc.poll(cx, call).map(|rep| Ok(rep?.get_u64("gen")?))
    }

    /// Updates the location of an existing name (migration), bumping its
    /// generation.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchObject`] if the name is unknown, or any
    /// transport error.
    pub fn update(
        &mut self,
        ctx: &mut Ctx,
        name: &str,
        endpoint: Endpoint,
        meta: Value,
    ) -> Result<u64, RpcError> {
        let rep = self
            .rpc
            .call(ctx, "update", binding_args(name, endpoint, meta))?;
        self.cache.remove(name);
        Ok(rep.get_u64("gen")?)
    }

    /// Removes a name.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchObject`] if the name is unknown, or any
    /// transport error.
    pub fn unregister(&mut self, ctx: &mut Ctx, name: &str) -> Result<(), RpcError> {
        self.rpc.call(
            ctx,
            "unregister",
            Value::record([("name", Value::str(name))]),
        )?;
        self.cache.remove(name);
        Ok(())
    }

    /// Looks `name` up at the name server (bypassing the cache) and
    /// refreshes the cache entry.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchObject`] if the name is unknown, or any
    /// transport error.
    pub fn lookup(&mut self, ctx: &mut Ctx, name: &str) -> Result<NameRecord, RpcError> {
        let rep = self
            .rpc
            .call(ctx, "lookup", Value::record([("name", Value::str(name))]))?;
        let rec = NameRecord::from_value(&rep)?;
        self.cache.insert(name.to_owned(), rec.clone());
        Ok(rec)
    }

    /// Resolves `name`, preferring the local binding cache.
    ///
    /// # Errors
    ///
    /// Same as [`NameClient::lookup`] on a cache miss.
    pub fn resolve(&mut self, ctx: &mut Ctx, name: &str) -> Result<NameRecord, RpcError> {
        if let Some(rec) = self.cache.get(name) {
            self.cache_hits += 1;
            return Ok(rec.clone());
        }
        self.cache_misses += 1;
        self.lookup(ctx, name)
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
    pub fn list(&mut self, ctx: &mut Ctx) -> Result<Vec<String>, RpcError> {
        let rep = self.rpc.call(ctx, "list", Value::Null)?;
        let items = rep.get_list("names")?;
        Ok(items
            .iter()
            .filter_map(|v| v.as_str().map(str::to_owned))
            .collect())
    }
}

/// Convenience: true if the error is "name not found".
pub fn is_not_found(err: &RpcError) -> bool {
    matches!(err, RpcError::Remote(e) if e.code == ErrorCode::NoSuchObject)
}
