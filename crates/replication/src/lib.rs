//! # replication — primary/backup groups and the replica-reading proxy
//!
//! One of the smart-proxy strategies the proxy principle advertises: a
//! service may replicate itself for read scalability and availability,
//! and encode that choice entirely in the proxy it hands its clients.
//! Client code is identical to the single-server case.
//!
//! * [`spawn_replica_group`] — the server side: a primary applying and
//!   versioning writes, backups replaying them in order (sync or async
//!   propagation), each a replica state on the `proxy_core` server
//!   engine.
//! * [`ReplicaProxy`] — the client side: reads from the nearest replica
//!   (RTT-probed at bind), writes to the primary, with a version floor
//!   giving monotonic reads and read-your-writes.
//!
//! ## Example
//!
//! ```
//! use simnet::{Simulation, NetworkConfig, NodeId};
//! use naming::spawn_name_server;
//! use replication::{spawn_replica_group, ReplicaGroupConfig, Propagation, client_runtime};
//! use proxy_core::{InterfaceDesc, OpDesc, ReadTarget, ServiceObject};
//! use rpc::{RemoteError, ErrorCode};
//! use wire::Value;
//!
//! struct Register(u64);
//! impl ServiceObject for Register {
//!     fn interface(&self) -> InterfaceDesc {
//!         InterfaceDesc::new("register",
//!             [OpDesc::read_whole("read"), OpDesc::write_whole("write")])
//!     }
//!     fn dispatch(&mut self, _ctx: &mut simnet::Ctx, op: &str, args: &Value)
//!         -> Result<Value, RemoteError> {
//!         match op {
//!             "read" => Ok(Value::U64(self.0)),
//!             "write" => { self.0 = args.get_u64("v").map_err(|e|
//!                 RemoteError::new(ErrorCode::BadArgs, e.to_string()))?; Ok(Value::Null) }
//!             o => Err(RemoteError::new(ErrorCode::NoSuchOp, o.to_owned())),
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 1);
//! let ns = spawn_name_server(&sim, NodeId(0));
//! spawn_replica_group(&sim, ns, ReplicaGroupConfig {
//!     service: "reg".into(),
//!     nodes: vec![NodeId(1), NodeId(2), NodeId(3)],
//!     propagation: Propagation::Sync,
//!     read_target: ReadTarget::Nearest,
//! }, || Box::new(Register(0)));
//! sim.spawn_async("client", NodeId(2), move |cx| async move {
//!     let mut rt = client_runtime(ns);
//!     let reg = rt.attach(cx, "reg").await.unwrap();
//!     rt.call(cx, reg, "write", Value::record([("v", Value::U64(9))])).await.unwrap();
//!     assert_eq!(rt.call(cx, reg, "read", Value::Null).await.unwrap(), Value::U64(9));
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod proxy;
mod server;

pub use proxy::{client_runtime, register_replica_proxy, ReplicaProxy, ReplicaProxyStats};
pub use server::{spawn_replica_group, Propagation, ReplicaGroupConfig, ReplicaStats};
