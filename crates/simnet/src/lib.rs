//! # simnet — deterministic discrete-event network simulation
//!
//! `simnet` is the substrate every other crate in this workspace builds
//! on. It stands in for the 1986 testbed of the proxy-principle paper
//! (Unix processes on a LAN) with something strictly more controllable:
//!
//! * **Processes** come in two kinds behind one scheduler: ordinary
//!   blocking Rust code against a [`Ctx`] handle ([`Ctx::send`],
//!   [`Ctx::recv`], [`Ctx::sleep`]), suspended on a stack of its own —
//!   a stackful coroutine resumed in place by the scheduler on x86-64
//!   Linux, an OS thread elsewhere — and poll-driven [`Process`] state
//!   machines that park as a single heap entry with no stack at all
//!   (see the [`poll`] module) — the latter scale to hundreds of
//!   thousands of concurrent processes. A blocking body is only ever
//!   resumed on the OS thread that started it. The
//!   scheduler runs exactly one process at a time, in virtual-time
//!   order, so every run is deterministic for a given seed.
//! * **The network** between nodes models latency, bandwidth, jitter,
//!   loss, duplication, reordering, link overrides, partitions and node
//!   crashes (see [`NetworkConfig`] and [`Network`]).
//! * **Metrics** count messages and bytes so experiments can report
//!   protocol cost alongside simulated latency.
//!
//! ## Example
//!
//! ```
//! use simnet::{Simulation, NetworkConfig, NodeId, PortId};
//! use bytes::Bytes;
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 42);
//! let echo = sim.spawn_at("echo", NodeId(0), PortId(7), |ctx| {
//!     while let Ok(m) = ctx.recv() {
//!         ctx.send(m.src, m.payload);
//!     }
//! });
//! sim.spawn("client", NodeId(1), move |ctx| {
//!     ctx.send(echo, Bytes::from_static(b"hello"));
//!     let reply = ctx.recv().unwrap();
//!     assert_eq!(&reply.payload[..], b"hello");
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
// How a blocking process body and the scheduler hand control to each
// other is chosen by platform at build time and by nothing else.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod coro;
mod metrics;
mod msg;
mod net;
pub mod poll;
mod sched;
// Compiled here too under `cfg(test)`, so the portable hand-off stays
// built and unit-tested on a host that never selects it.
#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
mod thread_handoff;
mod time;
mod trace;

pub use addr::{Endpoint, NodeId, PortId, ProcId};
pub use metrics::{Metrics, MetricsSnapshot};
pub use msg::Message;
pub use net::{Network, NetworkConfig};
pub use poll::{Poll, ProcCx, Process};
pub use sched::{Ctx, RunReport, Simulation, Stopped};
pub use time::{duration_to_nanos, SimTime};
pub use trace::{TraceDump, TraceEvent, TraceRecord};
