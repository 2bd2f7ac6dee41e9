//! # dsm — page-based distributed shared memory
//!
//! The third access method in the classic comparison the proxy paper sits
//! inside (RPC stubs / proxies / distributed virtual memory): instead of
//! invoking operations on a remote object, a context *maps* shared pages
//! into its local memory and reads/writes them directly; a fault fetches
//! the page, and a single-writer/multiple-reader **ownership protocol**
//! keeps copies coherent.
//!
//! ## Architecture
//!
//! ```text
//!  app context (node A)          manager (directory)       app context (node B)
//! ┌─────────────────────┐      ┌────────────────────┐     ┌─────────────────────┐
//! │ DsmClient           │ fetch│ per-page state:    │     │ DsmClient           │
//! │   read/write  ──────┼─────▶│  Shared{copyset}   │◀────┼──────               │
//! │   (local after map) │      │  Exclusive{owner}  │     │                     │
//! │ PageCache (shared)  │      └──────────┬─────────┘     │ PageCache (shared)  │
//! │   ▲                 │   downgrade /   │               │   ▲                 │
//! │ Pager (sibling proc)│◀── invalidate / ┴──────────────▶│ Pager               │
//! └─────────────────────┘     surrender  (synchronous RPC)└─────────────────────┘
//! ```
//!
//! Each [`DsmClient`] spawns a sibling **pager** process in its context
//! that shares the page cache and serves the manager's coherence traffic
//! (`downgrade`, `invalidate`, `surrender`) on the spot — the analogue
//! of an MMU trap handler. The manager grants a fetch only after those
//! calls return, one pager at a time: the fetch waits, answered
//! deferred, while the manager calls out. This gives real
//! single-writer/multi-reader coherence: at any instant a page has either
//! one writable mapping or any number of read-only mappings. Manager and
//! pager are [`proxy_core::Control`] parts on the server engine every
//! service runs on.
//!
//! ## The trade the paper's contemporaries argued about
//!
//! * **Locality wins.** Once mapped, reads and writes are local memory
//!   operations — zero messages (experiment E12's first half).
//! * **Fine-grained sharing loses.** Two contexts alternately writing
//!   the same page ping-pong it: every access costs a 3-hop transfer,
//!   worse than one RPC per operation (E12's second half).
//!
//! ## Example
//!
//! ```
//! use simnet::{Simulation, NetworkConfig, NodeId};
//! use dsm::{spawn_dsm_manager, DsmClient, PageId};
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 1);
//! let manager = spawn_dsm_manager(&sim, NodeId(0), 64);
//! sim.spawn_async("writer", NodeId(1), move |cx| async move {
//!     let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
//!     mem.write(cx, PageId(0), 0, b"hello").await.unwrap();
//!     // Mapped exclusively now: further writes are local.
//!     mem.write(cx, PageId(0), 5, b" dsm").await.unwrap();
//!     let bytes = mem.read(cx, PageId(0), 0, 9).await.unwrap();
//!     assert_eq!(&bytes[..], b"hello dsm");
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod manager;
mod pager;

pub use client::{DsmClient, DsmError, DsmStats};
pub use manager::{spawn_dsm_manager, ManagerStats};

use std::fmt;

/// Identifier of a shared page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page{}", self.0)
    }
}

/// How a context currently holds a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Read-only mapping; other read copies may exist.
    Read,
    /// Exclusive writable mapping; no other copies exist.
    Write,
}

/// A page number as the coherence protocol carries it: a `u64` no
/// larger than `u32::MAX`.
pub(crate) fn page_arg(arg: &wire::Value) -> Result<PageId, rpc::RemoteError> {
    let bad_args = |e: &str| rpc::RemoteError::new(rpc::ErrorCode::BadArgs, e);
    let n = arg.as_u64().ok_or_else(|| bad_args("page"))?;
    Ok(PageId(
        u32::try_from(n).map_err(|_| bad_args("page id out of range"))?,
    ))
}

pub(crate) mod proto {
    //! Operation names of the DSM coherence protocol. The protocol is
    //! the manager's and its pagers' own, so its bodies are positional:
    //! a fetch carries `[page, pager]` (the pager's endpoint as
    //! `[node, port]`), each manager → pager call the page number
    //! alone.
    /// App → manager: map a page read-only.
    pub const OP_FETCH_RO: &str = "fetch_ro";
    /// App → manager: map a page exclusively.
    pub const OP_FETCH_RW: &str = "fetch_rw";
    /// Manager → pager: demote an exclusive mapping to read-only,
    /// returning the current bytes.
    pub const OP_DOWNGRADE: &str = "downgrade";
    /// Manager → pager: drop a read-only mapping.
    pub const OP_INVALIDATE: &str = "invalidate";
    /// Manager → pager: give up an exclusive mapping entirely,
    /// returning the current bytes.
    pub const OP_SURRENDER: &str = "surrender";
}
