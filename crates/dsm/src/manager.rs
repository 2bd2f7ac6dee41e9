//! The DSM manager: the page directory.
//!
//! Tracks, for every page, whether it is unmapped, shared by a copyset
//! of reader contexts, or exclusively owned by one writer context — and
//! orchestrates the transitions by calling the affected pagers before
//! granting a new mapping: the fetch waits, answered deferred, while the
//! manager calls out, one pager at a time. That ordering is what makes
//! the protocol single-writer/multiple-reader at every instant.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use proxy_core::{server_process, Control, Outcome, ServiceServer, Step, Strays};
use rpc::{endpoint_from_value, ErrorCode, RemoteError, Request, RpcError};
use simnet::{Ctx, Endpoint, NodeId, Simulation};
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

/// A fetch waiting for its coherence calls: `op` goes to each of
/// `pagers` in turn (the front one is being called) before `page` is
/// granted to `to`. `data` is the home copy, when it is current.
#[derive(Debug)]
struct Pending {
    page: PageId,
    to: Endpoint,
    op: &'static str,
    pagers: VecDeque<Endpoint>,
    data: Bytes,
    /// Calls of the front pager made before this one, and whether the
    /// manager is waiting to call again.
    tries: u32,
    backing_off: bool,
}

/// Tries one coherence call makes before giving up.
const COHERENCE_TRIES: u32 = 32;

impl Pending {
    /// The call of the front pager. App requests arriving meanwhile are
    /// held; one-ways are dropped.
    fn call(&self, again: bool) -> Step {
        let pager = *self.pagers.front().expect("a pager to call");
        let args = Value::record([("page", Value::U64(self.page.0.into()))]);
        match again {
            true => Step::Retry(pager, self.op, args, Strays::Hold),
            false => Step::Call(pager, self.op, args, Strays::Hold),
        }
    }
}

/// The manager's [`Control`] part: the page directory.
#[derive(Debug)]
struct Manager {
    page_size: usize,
    pages: HashMap<PageId, PageState>,
    pending: Option<Pending>,
    stats: ManagerStats,
}

fn pager_arg(args: &Value) -> Result<Endpoint, RemoteError> {
    endpoint_from_value(
        args.get("pager")
            .ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "missing pager"))?,
    )
    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))
}

impl Manager {
    fn zero_page(&self) -> Bytes {
        Bytes::from(vec![0u8; self.page_size])
    }

    /// Maps `page` for the pager named in `req`, exclusively or not,
    /// after demoting, taking or shooting down whatever other mappings
    /// the protocol forbids alongside it.
    fn fetch(&mut self, req: &Request, exclusive: bool) -> Result<Step, RemoteError> {
        let (page, to) = (page_arg(&req.args)?, pager_arg(&req.args)?);
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
                return Ok(Step::Reply(Ok(Value::Null)));
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
        let pending = Pending {
            page,
            to,
            op,
            pagers: pagers.into(),
            data,
            tries: 0,
            backing_off: false,
        };
        Ok(self.next(pending))
    }

    /// Calls the next pager of `pending`, or grants once none is left.
    fn next(&mut self, pending: Pending) -> Step {
        if pending.pagers.is_empty() {
            return self.grant_rw(pending.page, pending.to, pending.data);
        }
        let call = pending.call(false);
        self.pending = Some(pending);
        call
    }

    fn grant_ro(
        &mut self,
        page: PageId,
        to: Endpoint,
        data: Bytes,
        mut copyset: Vec<Endpoint>,
    ) -> Step {
        if !copyset.contains(&to) {
            copyset.push(to);
        }
        self.stats.ro_grants += 1;
        let reply = Value::blob(data.clone());
        self.pages.insert(page, PageState::Shared { data, copyset });
        Step::Reply(Ok(reply))
    }

    fn grant_rw(&mut self, page: PageId, to: Endpoint, data: Bytes) -> Step {
        self.stats.rw_grants += 1;
        self.pages.insert(page, PageState::Exclusive { owner: to });
        Step::Reply(Ok(Value::blob(data)))
    }
}

impl Control for Manager {
    fn name(&self) -> &str {
        "dsm-manager"
    }

    fn execute(&mut self, _ctx: &mut Ctx, req: &Request) -> Step {
        let step = match req.op.as_str() {
            proto::OP_FETCH_RO => self.fetch(req, false),
            proto::OP_FETCH_RW => self.fetch(req, true),
            "_stats" => Ok(Step::Reply(Ok(Value::record([
                ("ro", Value::U64(self.stats.ro_grants)),
                ("rw", Value::U64(self.stats.rw_grants)),
                ("downgrades", Value::U64(self.stats.downgrades)),
                ("invalidations", Value::U64(self.stats.invalidations)),
                ("surrenders", Value::U64(self.stats.surrenders)),
            ])))),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        };
        step.unwrap_or_else(|e| Step::Reply(Err(e)))
    }

    /// A grant reply and a subsequent coherence request race on the
    /// network: the manager may demand a surrender/downgrade before the
    /// target app has even received the grant that creates the mapping.
    /// The pager answers `NoSuchObject` in that window, so coherence
    /// calls retry briefly until the mapping lands — the standard
    /// in-flight-grant resolution in directory-based DSM protocols. A
    /// failed call fails the fetch, and the page's entry stays dropped.
    fn resume(&mut self, _ctx: &mut Ctx, _req: Option<&Request>, outcome: Outcome) -> Step {
        let mut p = self
            .pending
            .take()
            .expect("the manager waits only for a fetch");
        let result = if p.backing_off {
            p.backing_off = false;
            p.tries += 1;
            if p.tries < COHERENCE_TRIES {
                let call = p.call(true);
                self.pending = Some(p);
                return call;
            }
            Err(RpcError::Remote(RemoteError::new(
                ErrorCode::Unavailable,
                format!("{} for {} never became possible", p.op, p.page),
            )))
        } else {
            match outcome.result {
                Err(RpcError::Remote(ref e))
                    if e.code == ErrorCode::NoSuchObject && p.op != proto::OP_INVALIDATE =>
                {
                    // Grant still in flight to that context; let it land.
                    p.backing_off = true;
                    self.pending = Some(p);
                    return Step::Sleep(Duration::from_millis(1));
                }
                result => result,
            }
        };
        let reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                let e = RemoteError::new(ErrorCode::Unavailable, format!("{} failed: {e}", p.op));
                return Step::Reply(Err(e));
            }
        };
        let pager = p.pagers.pop_front().expect("the pager called");
        let data = reply.as_blob().cloned();
        match p.op {
            proto::OP_DOWNGRADE => {
                self.stats.downgrades += 1;
                let data = data.unwrap_or_else(|| self.zero_page());
                self.grant_ro(p.page, p.to, data, vec![pager])
            }
            proto::OP_SURRENDER => {
                self.stats.surrenders += 1;
                let data = data.unwrap_or_else(|| self.zero_page());
                self.grant_rw(p.page, p.to, data)
            }
            _ => {
                self.stats.invalidations += 1;
                p.tries = 0;
                self.next(p)
            }
        }
    }
}

/// Spawns the DSM manager on `node` with the given page size; returns
/// its endpoint (pass to [`crate::DsmClient::attach`]).
pub fn spawn_dsm_manager(sim: &Simulation, node: NodeId, page_size: usize) -> Endpoint {
    assert!(page_size > 0, "page size must be positive");
    sim.spawn_poll(
        "dsm-manager",
        node,
        server_process(move |_| {
            ServiceServer::new(Manager {
                page_size,
                pages: HashMap::new(),
                pending: None,
                stats: ManagerStats::default(),
            })
        }),
    )
}
