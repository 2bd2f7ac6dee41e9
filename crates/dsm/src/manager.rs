//! The DSM manager: the page directory.
//!
//! Tracks, for every page, whether it is unmapped, shared by a copyset
//! of reader contexts, or exclusively owned by one writer context — and
//! orchestrates the transitions by calling the affected pagers before
//! granting a new mapping: the fetch waits, answered deferred, while the
//! manager calls out, one pager at a time. That ordering is what makes
//! the protocol single-writer/multiple-reader at every instant.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use proxy_core::{serve, Control, Io, ServiceServer, Strays};
use rpc::{endpoint_from_value, ErrorCode, RemoteError, Request, RpcError};
use simnet::{Endpoint, NodeId, Simulation};
use wire::Value;

use crate::{page_arg, proto, PageId};

/// Counters accumulated by the manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Read-mapping grants.
    pub ro_grants: u64,
    /// Exclusive-mapping grants.
    pub rw_grants: u64,
    /// Downgrades performed (exclusive → shared).
    pub downgrades: u64,
    /// Read copies invalidated.
    pub invalidations: u64,
    /// Exclusive mappings surrendered (ownership transfers).
    pub surrenders: u64,
}

#[derive(Debug, Clone)]
enum PageState {
    /// Home copy is authoritative; `copyset` holds reader pagers.
    Shared { data: Bytes, copyset: Vec<Endpoint> },
    /// One context may write; its pager holds the only valid bytes.
    Exclusive { owner: Endpoint },
}

/// Tries one coherence call makes before giving up.
const COHERENCE_TRIES: u32 = 32;

/// Calls `op` at `pager`. A grant reply and a subsequent coherence
/// request race on the network: the manager may demand a
/// surrender/downgrade before the target app has even received the
/// grant that creates the mapping. The pager answers `NoSuchObject`
/// in that window, so the call is retried briefly, on the same
/// client, until the mapping lands — the standard in-flight-grant
/// resolution in directory-based DSM protocols.
async fn coherence(
    io: &Io,
    page: PageId,
    op: &'static str,
    pager: Endpoint,
) -> Result<Value, RpcError> {
    let args = || Value::U64(page.0.into());
    let (mut result, _) = io.call(pager, op, args(), Strays::Hold).await;
    let mut tries = 0;
    loop {
        match result {
            Err(RpcError::Remote(ref e))
                if e.code == ErrorCode::NoSuchObject && op != proto::OP_INVALIDATE =>
            {
                // Grant still in flight to that context; let it land.
                io.sleep(Duration::from_millis(1)).await;
                tries += 1;
                if tries == COHERENCE_TRIES {
                    return Err(RpcError::Remote(RemoteError::new(
                        ErrorCode::Unavailable,
                        format!("{op} for {page} never became possible"),
                    )));
                }
                (result, _) = io.retry(pager, op, args(), Strays::Hold).await;
            }
            result => return result,
        }
    }
}

/// The manager's [`Control`] part: the page directory.
#[derive(Debug)]
struct Manager {
    page_size: usize,
    pages: HashMap<PageId, PageState>,
    stats: ManagerStats,
}

/// A fetch's arguments, `[page, pager]`.
fn fetch_args(args: &Value) -> Result<(PageId, Endpoint), RemoteError> {
    let bad_args = |e: String| RemoteError::new(ErrorCode::BadArgs, e);
    let [page, pager] = args.as_list().unwrap_or_default() else {
        return Err(bad_args("fetch [page, pager]".into()));
    };
    let pager = endpoint_from_value(pager).map_err(|e| bad_args(e.to_string()))?;
    Ok((page_arg(page)?, pager))
}

impl Manager {
    fn zero_page(&self) -> Bytes {
        Bytes::from(vec![0u8; self.page_size])
    }

    /// Maps `page` for the pager named in `req`, exclusively or not,
    /// after demoting, taking or shooting down whatever other mappings
    /// the protocol forbids alongside it: one pager at a time, app
    /// requests arriving meanwhile held. A failed call fails the fetch,
    /// and the page's entry stays dropped.
    async fn fetch(
        &mut self,
        io: &Io,
        req: &Request,
        exclusive: bool,
    ) -> Result<Value, RemoteError> {
        let (page, to) = fetch_args(&req.args)?;
        let zero = self.zero_page();
        let state = self.pages.remove(&page).unwrap_or(PageState::Shared {
            data: zero.clone(),
            copyset: Vec::new(),
        });
        let (op, pagers, data) = match (state, exclusive) {
            (PageState::Shared { data, copyset }, false) => {
                return Ok(self.grant_ro(page, to, data, copyset))
            }
            // Already ours (a lost reply being retried at a higher
            // layer); nothing to transfer.
            (PageState::Exclusive { owner }, true) if owner == to => {
                self.pages.insert(page, PageState::Exclusive { owner });
                self.stats.rw_grants += 1;
                return Ok(Value::Null);
            }
            // Demote the writer so both can read.
            (PageState::Exclusive { owner }, false) => (proto::OP_DOWNGRADE, vec![owner], zero),
            (PageState::Exclusive { owner }, true) => (proto::OP_SURRENDER, vec![owner], zero),
            // Shoot down every reader except the requester.
            (PageState::Shared { data, copyset }, true) => {
                let readers = copyset.into_iter().filter(|r| *r != to).collect();
                (proto::OP_INVALIDATE, readers, data)
            }
        };
        for pager in pagers {
            let reply = coherence(io, page, op, pager).await.map_err(|e| {
                RemoteError::new(ErrorCode::Unavailable, format!("{op} failed: {e}"))
            })?;
            let data = reply.as_blob().cloned();
            match op {
                proto::OP_DOWNGRADE => {
                    self.stats.downgrades += 1;
                    let data = data.unwrap_or_else(|| self.zero_page());
                    return Ok(self.grant_ro(page, to, data, vec![pager]));
                }
                proto::OP_SURRENDER => {
                    self.stats.surrenders += 1;
                    let data = data.unwrap_or_else(|| self.zero_page());
                    return Ok(self.grant_rw(page, to, data));
                }
                _ => self.stats.invalidations += 1,
            }
        }
        Ok(self.grant_rw(page, to, data))
    }

    fn grant_ro(
        &mut self,
        page: PageId,
        to: Endpoint,
        data: Bytes,
        mut copyset: Vec<Endpoint>,
    ) -> Value {
        if !copyset.contains(&to) {
            copyset.push(to);
        }
        self.stats.ro_grants += 1;
        let reply = Value::blob(data.clone());
        self.pages.insert(page, PageState::Shared { data, copyset });
        reply
    }

    fn grant_rw(&mut self, page: PageId, to: Endpoint, data: Bytes) -> Value {
        self.stats.rw_grants += 1;
        self.pages.insert(page, PageState::Exclusive { owner: to });
        Value::blob(data)
    }
}

impl Control for Manager {
    fn name(&self) -> &str {
        "dsm-manager"
    }

    async fn execute(&mut self, io: &Io, req: &Request) -> Result<Value, RemoteError> {
        match req.op.as_str() {
            proto::OP_FETCH_RO => self.fetch(io, req, false).await,
            proto::OP_FETCH_RW => self.fetch(io, req, true).await,
            "_stats" => Ok(Value::record([
                ("ro", Value::U64(self.stats.ro_grants)),
                ("rw", Value::U64(self.stats.rw_grants)),
                ("downgrades", Value::U64(self.stats.downgrades)),
                ("invalidations", Value::U64(self.stats.invalidations)),
                ("surrenders", Value::U64(self.stats.surrenders)),
            ])),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

/// Spawns the DSM manager on `node` with the given page size; returns
/// its endpoint (pass to [`crate::DsmClient::attach`]).
pub fn spawn_dsm_manager(sim: &Simulation, node: NodeId, page_size: usize) -> Endpoint {
    assert!(page_size > 0, "page size must be positive");
    sim.spawn_async("dsm-manager", node, move |cx| {
        serve(cx, move |_| {
            ServiceServer::new(Manager {
                page_size,
                pages: HashMap::new(),
                stats: ManagerStats::default(),
            })
        })
    })
}
