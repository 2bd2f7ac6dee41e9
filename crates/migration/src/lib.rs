//! # migration — relocating objects between nodes
//!
//! The proxy principle makes object location a *service-side* concern, so
//! a service may move its object to another node without telling its
//! clients. This crate implements that machinery:
//!
//! * [`spawn_migratable`] — a service host whose object can be ordered to
//!   another node at runtime (`_migrate`). The old host becomes a
//!   **forwarder** that answers every request with a `Moved` redirect;
//!   proxies follow redirects and cache the new location (lazy path
//!   compression).
//! * [`ForwardMode`] — redirect either to the immediate next hop
//!   ([`ForwardMode::NextHop`]) or resolve the whole forwarding chain
//!   server-side and redirect straight to the object's current home
//!   ([`ForwardMode::Resolve`]). Experiment E10 compares the two.
//! * [`request_migration`] — the administrative call that triggers a move.
//!
//! Repeated migrations without name-service updates build forwarding
//! *chains*: the first post-move call pays one hop per traversed
//! forwarder, after which the client's proxy points at the true home.
//!
//! Host and forwarder are one [`proxy_core::Control`] part on the server
//! engine every service runs on: `_migrate` is a system op (it parks
//! while the naming update, if any, is out), and the forwarding state
//! keeps the host's reply window, so a retransmission that straddles the
//! move is still answered once.
//!
//! ## Example
//!
//! ```
//! use simnet::{Simulation, NetworkConfig, NodeId};
//! use naming::spawn_name_server;
//! use migration::{spawn_migratable, request_migration, MigratableConfig, ForwardMode};
//! use proxy_core::{SessionCore, FactoryRegistry, ProxySpec};
//! # use proxy_core::{InterfaceDesc, OpDesc, ServiceObject};
//! # use rpc::{RemoteError, ErrorCode};
//! use wire::Value;
//! # struct Reg(u64);
//! # impl ServiceObject for Reg {
//! #     fn interface(&self) -> InterfaceDesc {
//! #         InterfaceDesc::new("reg", [OpDesc::read_whole("read")])
//! #     }
//! #     fn dispatch(&mut self, _c: &mut simnet::Ctx, op: &str, _a: &Value) -> Result<Value, RemoteError> {
//! #         match op { "read" => Ok(Value::U64(self.0)), o => Err(RemoteError::new(ErrorCode::NoSuchOp, o.to_owned())) }
//! #     }
//! #     fn snapshot(&self) -> Result<Value, RemoteError> { Ok(Value::U64(self.0)) }
//! # }
//! # fn reg_factory() -> FactoryRegistry {
//! #     FactoryRegistry::new().register("reg", |v| Ok(Box::new(Reg(v.as_u64().unwrap_or(0)))))
//! # }
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 1);
//! let ns = spawn_name_server(&sim, NodeId(0));
//! let home = spawn_migratable(
//!     &sim, NodeId(1), ns,
//!     MigratableConfig::new("reg").with_forward_mode(ForwardMode::NextHop),
//!     reg_factory(),
//!     || Box::new(Reg(5)),
//! );
//! sim.spawn_async("admin+client", NodeId(2), move |cx| async move {
//!     let mut rt = SessionCore::new(ns);
//!     let reg = rt.attach(cx, "reg").await.unwrap();
//!     assert_eq!(rt.call(cx, reg, "read", Value::Null).await.unwrap(), Value::U64(5));
//!     // Move the object to node 3; the old host becomes a forwarder.
//!     request_migration(cx, home, NodeId(3)).await.unwrap();
//!     // Same proxy, same call: transparently redirected.
//!     assert_eq!(rt.call(cx, reg, "read", Value::Null).await.unwrap(), Value::U64(5));
//!     assert_eq!(rt.stats(reg).rebinds, 1);
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod server;

pub use server::{
    request_migration, spawn_migratable, ForwardMode, MigratableConfig, MigrationError, OP_LOCATE,
    OP_MIGRATE,
};
