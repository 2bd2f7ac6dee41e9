//! # simnet — deterministic discrete-event network simulation
//!
//! `simnet` is the substrate every other crate in this workspace builds
//! on. It stands in for the 1986 testbed of the proxy-principle paper
//! (Unix processes on a LAN) with something strictly more controllable:
//!
//! * **Processes** are [`Process`] state machines the scheduler polls
//!   in event order; a parked one is a single heap entry with no stack
//!   at all (see the [`poll`] module), so simulations scale to hundreds
//!   of thousands of concurrent processes. A process is written as an
//!   `async` body ([`Simulation::spawn_async`], see the [`task`]
//!   module), which reaches its process through an [`AsyncCx`]. Blocking
//!   Rust code against a [`Ctx`] handle ([`Simulation::spawn`]), run on
//!   a stack of its own — a stackful coroutine on x86-64 Linux, an OS
//!   thread elsewhere — and hand-written machines
//!   ([`Simulation::spawn_poll`]) remain only for the benchmark's system
//!   under test and for tests. The thread driving the simulation runs
//!   one process at a time, popping events off one heap in `(time, seq)`
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
//! let echo = sim.spawn_async_at("echo", NodeId(0), PortId(7), |cx| async move {
//!     while let Ok(m) = cx.recv().await {
//!         cx.with(|cx| cx.send(m.src, m.payload));
//!     }
//! });
//! sim.spawn_async("client", NodeId(1), move |cx| async move {
//!     cx.with(|cx| cx.send(echo, Bytes::from_static(b"hello")));
//!     let reply = cx.recv().await.unwrap();
//!     assert_eq!(&reply.payload[..], b"hello");
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod awaited;
mod body;
// How a blocking process body and the scheduler hand control to each
// other is chosen by platform at build time and by nothing else.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod coro;
mod events;
mod metrics;
mod msg;
mod net;
pub mod poll;
mod sched;
pub mod task;
// Compiled here too under `cfg(test)`, so the portable hand-off stays
// built and unit-tested on a host that never selects it.
#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
mod thread_handoff;
mod time;
mod trace;

pub use addr::{Endpoint, NodeId, PortId, ProcId};
pub use awaited::Awaited;
pub use metrics::{Metrics, MetricsSnapshot};
pub use msg::Message;
pub use net::{Network, NetworkConfig};
pub use poll::{Poll, ProcCx, Process};
pub use sched::{Ctx, RunReport, Simulation, Stopped};
pub use task::AsyncCx;
pub use time::{duration_to_nanos, SimTime};
pub use trace::{TraceDump, TraceEvent, TraceRecord};
