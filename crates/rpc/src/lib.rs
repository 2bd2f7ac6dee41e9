//! # rpc — at-most-once request/response over simnet
//!
//! The transport layer the proxy principle builds on: a Birrell &
//! Nelson-style RPC protocol with call ids, retransmission, and
//! server-side duplicate suppression, giving **at-most-once** execution
//! under message loss and duplication.
//!
//! There is one client transport, the [`Channel`]: a window of calls in
//! flight against one endpoint, each with its own retransmission timer,
//! and [`Channel::call`], its one request–reply call (the example is on
//! it). A plain RPC *stub* — the degenerate proxy of the paper — is
//! simply a channel plus marshalling; the smart proxies in `proxy-core`
//! layer caching, replication and migration strategies on top of this
//! same machinery. The channel is the proxy's transport object, and
//! every wait on it hands what is not its reply to its caller: an
//! [`OnStray`] rule if the caller gives one, dropped and counted if not.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod client;
mod error;
mod proto;
mod rtt;
mod server;

pub use channel::{oneways_into, CallHandle, Channel, ChannelConfig, ChannelStats, OnStray};
pub use client::{send_oneway, RetryPolicy};
pub use error::{ErrorCode, RemoteError, RpcError};
pub use proto::{
    endpoint_from_value, endpoint_to_value, with_encoder, Batch, Oneway, Packet, Reply, Request,
};
pub use server::{Fresh, Pass, RpcServer, ServeStats, Served};
