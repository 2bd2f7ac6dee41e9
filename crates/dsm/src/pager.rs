//! The pager: a context's coherence servant.
//!
//! A sibling process sharing the app's page cache; it serves the
//! manager's downgrade/invalidate/surrender requests on the spot, the
//! way an MMU trap handler would shoot down a mapping. It is a plain
//! [`Control`] part on the server engine.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use proxy_core::{serve, Control, Io, ServiceServer};
use rpc::{ErrorCode, RemoteError, Request};
use simnet::{Ctx, Endpoint};
use wire::Value;

use crate::{page_arg, proto, Mode, PageId};

/// One locally mapped page.
#[derive(Debug, Clone)]
pub(crate) struct CachedPage {
    pub data: Vec<u8>,
    pub mode: Mode,
}

/// The page table shared between an app context and its pager.
pub(crate) type PageCache = Arc<Mutex<HashMap<PageId, CachedPage>>>;

/// The pager's [`Control`] part: every coherence request is answered on
/// the spot from the shared page table.
#[derive(Debug)]
struct Pager(PageCache);

impl Control for Pager {
    fn name(&self) -> &str {
        "pager"
    }

    async fn execute(&mut self, _io: &Io, req: &Request) -> Result<Value, RemoteError> {
        let unmapped =
            |page| RemoteError::new(ErrorCode::NoSuchObject, format!("{page} not mapped here"));
        let page = page_arg(&req.args)?;
        let mut table = self.0.lock();
        match req.op.as_str() {
            proto::OP_DOWNGRADE => match table.get_mut(&page) {
                Some(entry) => {
                    entry.mode = Mode::Read;
                    Ok(Value::blob(entry.data.clone()))
                }
                None => Err(unmapped(page)),
            },
            proto::OP_INVALIDATE => {
                // Idempotent: invalidating an unmapped page is fine
                // (we may have dropped it voluntarily).
                table.remove(&page);
                Ok(Value::Null)
            }
            proto::OP_SURRENDER => match table.remove(&page) {
                Some(entry) => Ok(Value::blob(entry.data)),
                None => Err(unmapped(page)),
            },
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

/// Spawns the pager for `cache` on `ctx`'s node, a sibling of the app
/// process: it serves coherence traffic for as long as the simulation
/// runs.
pub(crate) fn spawn_pager(ctx: &Ctx, cache: PageCache) -> Endpoint {
    ctx.spawn_async("pager", ctx.node(), move |cx| {
        serve(cx, move |_| ServiceServer::new(Pager(cache)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc::{Channel, ChannelConfig};
    use simnet::{NetworkConfig, NodeId, Simulation};

    #[test]
    fn pager_serves_coherence_ops() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let cache: PageCache = Arc::new(Mutex::new(HashMap::new()));
        cache.lock().insert(
            PageId(3),
            CachedPage {
                data: vec![1, 2, 3],
                mode: Mode::Write,
            },
        );
        let c2 = Arc::clone(&cache);
        let pager = sim.spawn_async("pager", NodeId(0), move |cx| {
            serve(cx, move |_| ServiceServer::new(Pager(c2)))
        });
        let c3 = Arc::clone(&cache);
        sim.spawn("manager", NodeId(1), move |ctx| {
            let mut rpc = Channel::new("", pager, ChannelConfig::with_depth(1));
            let mut call = |ctx: &mut simnet::Ctx, op, args| {
                ctx.block_on(|cx| rpc.call(cx, "", op, args, None))
            };
            // Downgrade returns the bytes and leaves a Read mapping.
            let v = call(ctx, proto::OP_DOWNGRADE, Value::U64(3)).unwrap();
            assert_eq!(v.as_blob().unwrap().as_ref(), &[1, 2, 3]);
            assert_eq!(c3.lock().get(&PageId(3)).unwrap().mode, Mode::Read);
            // Surrender removes it and returns the bytes.
            let v = call(ctx, proto::OP_SURRENDER, Value::U64(3)).unwrap();
            assert_eq!(v.as_blob().unwrap().as_ref(), &[1, 2, 3]);
            assert!(c3.lock().is_empty());
            // Invalidate is idempotent on unmapped pages.
            call(ctx, proto::OP_INVALIDATE, Value::U64(3)).unwrap();
            // Surrendering an unmapped page is an error.
            let err = call(ctx, proto::OP_SURRENDER, Value::U64(3)).unwrap_err();
            assert!(
                matches!(err, rpc::RpcError::Remote(ref e) if e.code == ErrorCode::NoSuchObject)
            );
        });
        sim.run();
    }
}
