//! # rpc — at-most-once request/response over simnet
//!
//! The transport layer the proxy principle builds on: a Birrell &
//! Nelson-style RPC protocol with call ids, retransmission, and
//! server-side duplicate suppression, giving **at-most-once** execution
//! under message loss and duplication.
//!
//! There is one client transport, the [`Channel`]: a window of calls in
//! flight against one endpoint, each with its own retransmission timer.
//! [`RpcClient`] is its synchronous face, a channel of depth 1 behind a
//! blocking `call`. A plain RPC *stub* — the degenerate proxy of the
//! paper — is simply an [`RpcClient`] plus marshalling; the smart proxies
//! in `proxy-core` layer caching, replication and migration strategies
//! on top of this same machinery.
//!
//! ## Example
//!
//! ```
//! use simnet::{Simulation, NetworkConfig, NodeId, PortId};
//! use rpc::{RpcClient, RpcServer, RemoteError, ErrorCode};
//! use wire::Value;
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 1);
//! let server = sim.spawn_at("adder", NodeId(0), PortId(10), |ctx| {
//!     let mut srv = RpcServer::new();
//!     srv.serve(ctx, |_ctx, req| match req.op.as_str() {
//!         "add" => {
//!             let a = req.args.get_u64("a").map_err(|_| RemoteError::new(ErrorCode::BadArgs, "a"))?;
//!             let b = req.args.get_u64("b").map_err(|_| RemoteError::new(ErrorCode::BadArgs, "b"))?;
//!             Ok(Value::U64(a + b))
//!         }
//!         _ => Err(RemoteError::new(ErrorCode::NoSuchOp, req.op.clone())),
//!     }, |_ctx, _oneway| {});
//! });
//! sim.spawn("client", NodeId(1), move |ctx| {
//!     let mut client = RpcClient::new(server);
//!     let sum = client
//!         .call(ctx, "add", Value::record([("a", Value::U64(2)), ("b", Value::U64(3))]))
//!         .unwrap();
//!     assert_eq!(sum, Value::U64(5));
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod client;
mod error;
mod proto;
mod rtt;
mod server;

pub use channel::{CallHandle, Channel, ChannelConfig, ChannelStats};
pub use client::{
    send_oneway, send_oneway_from, CallStats, RetryPolicy, RpcClient, Stray, StrayVerdict,
};
pub use error::{ErrorCode, RemoteError, RpcError};
pub use proto::{
    endpoint_from_value, endpoint_to_value, with_encoder, Batch, Oneway, Packet, Reply, Request,
};
pub use server::{RpcServer, ServeStats, Served};
