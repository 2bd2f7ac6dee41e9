//! # proxide — the proxy principle, reproduced
//!
//! A production-quality Rust reproduction of Marc Shapiro's ICDCS 1986
//! paper *"Structure and Encapsulation in Distributed Systems: The Proxy
//! Principle"* — the origin of the stub/proxy pattern behind every
//! modern RPC system.
//!
//! The workspace is layered exactly as `DESIGN.md` lays out:
//!
//! * [`simnet`] — deterministic discrete-event network simulation (the
//!   testbed substitute),
//! * [`wire`] — the marshalling substrate,
//! * [`rpc`] — at-most-once request/response (the Birrell & Nelson
//!   baseline the paper generalizes),
//! * [`naming`] — the name service used by the binding protocol,
//! * [`proxy_core`] — **the contribution**: contexts, interfaces, the
//!   binding protocol and the proxy zoo,
//! * [`migration`] — cross-node relocation with forwarding chains,
//! * [`replication`] — primary/backup groups and the replica proxy,
//! * [`dsm`] — page-based distributed shared memory (the third access
//!   method in the era's comparison, built for experiment E12),
//! * [`services`] — realistic services built on the framework.
//!
//! This crate re-exports everything; depend on it and use the
//! [`prelude`]:
//!
//! ```
//! use proxide::prelude::*;
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 7);
//! let ns = spawn_name_server(&sim, NodeId(0));
//! ServiceBuilder::new("kv")
//!     .spec(ProxySpec::Caching(CachingParams::default()))
//!     .object(|| Box::new(services::kv::KvStore::new()))
//!     .spawn(&sim, NodeId(1), ns);
//! sim.spawn_async("client", NodeId(2), move |cx| async move {
//!     let mut rt = SessionCore::new(ns);
//!     let kv = services::kv::KvClient::bind(&mut rt, cx, "kv").await.unwrap();
//!     kv.put(&mut rt, cx, "color", "blue").await.unwrap();
//!     assert_eq!(kv.get(&mut rt, cx, "color").await.unwrap().as_deref(), Some("blue"));
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]

pub use dsm;
pub use migration;
pub use naming;
pub use proxy_core;
pub use replication;
pub use rpc;
pub use services;
pub use simnet;
pub use wire;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use migration::{request_migration, spawn_migratable, ForwardMode, MigratableConfig};
    pub use naming::{spawn_name_server, NameClient};
    pub use proxy_core::{
        AdaptiveParams, Binder, CachingParams, Coherence, FactoryRegistry, InterfaceDesc, OpDesc,
        Proxy, ProxySpec, ReadTarget, ServiceBuilder, ServiceObject, ServiceServer, SessionCore,
    };
    pub use replication::{client_runtime, spawn_replica_group, Propagation, ReplicaGroupConfig};
    pub use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RpcError, RpcServer};
    pub use services;
    pub use simnet::{AsyncCx, Ctx, Endpoint, NetworkConfig, NodeId, PortId, SimTime, Simulation};
    pub use wire::Value;
}
