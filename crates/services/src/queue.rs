//! A print-queue service — write-heavy, order-sensitive.
//!
//! Submissions and take-offs are both writes, so caching buys nothing
//! here: the control case in experiment E2's sweep, and a correctness
//! stressor for at-most-once semantics (duplicated submissions would
//! print documents twice).

use std::collections::VecDeque;

use proxy_core::{InterfaceDesc, OpDesc, ProxyHandle, ServiceObject, SessionCore};
use rpc::{ErrorCode, RemoteError, RpcError};
use simnet::{AsyncCx, Ctx};
use wire::Value;

use crate::bad_args;

/// The interface type name (keys the factory registry).
pub const TYPE_NAME: &str = "proxide.queue";

/// Server-side state of the print queue.
#[derive(Debug, Default, Clone)]
pub struct PrintQueue {
    jobs: VecDeque<(u64, String)>,
    next_id: u64,
}

impl PrintQueue {
    /// An empty queue.
    pub fn new() -> PrintQueue {
        PrintQueue::default()
    }

    /// The interface every `PrintQueue` exports.
    pub fn interface() -> InterfaceDesc {
        InterfaceDesc::new(
            TYPE_NAME,
            [
                OpDesc::write_whole("submit"),
                OpDesc::write_whole("take"),
                OpDesc::read_whole("len"),
                OpDesc::read_whole("peek"),
            ],
        )
    }

    /// Rebuilds a queue from a snapshot (factory entry point).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadArgs`] for a shape [`ServiceObject::snapshot`]
    /// does not produce: a snapshot that cannot be read is refused, not
    /// reset.
    pub fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let mut q = PrintQueue::new();
        q.next_id = v.get_u64("next").map_err(bad_args)?;
        for item in v.get_list("jobs").map_err(bad_args)? {
            let id = item.get_u64("id").map_err(bad_args)?;
            let doc = item.get_str("doc").map_err(bad_args)?;
            q.jobs.push_back((id, doc.to_owned()));
        }
        Ok(Box::new(q))
    }
}

impl ServiceObject for PrintQueue {
    fn interface(&self) -> InterfaceDesc {
        PrintQueue::interface()
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        match op {
            "submit" => {
                let doc = args.get_str("doc").map_err(bad_args)?;
                self.next_id += 1;
                let id = self.next_id;
                self.jobs.push_back((id, doc.to_owned()));
                Ok(Value::U64(id))
            }
            "take" => Ok(self
                .jobs
                .pop_front()
                .map(|(id, doc)| Value::record([("id", Value::U64(id)), ("doc", Value::str(doc))]))
                .unwrap_or(Value::Null)),
            "peek" => Ok(self
                .jobs
                .front()
                .map(|(id, doc)| {
                    Value::record([("id", Value::U64(*id)), ("doc", Value::str(doc.clone()))])
                })
                .unwrap_or(Value::Null)),
            "len" => Ok(Value::U64(self.jobs.len() as u64)),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::record([
            ("next", Value::U64(self.next_id)),
            (
                "jobs",
                Value::list(self.jobs.iter().map(|(id, doc)| {
                    Value::record([("id", Value::U64(*id)), ("doc", Value::str(doc.clone()))])
                })),
            ),
        ]))
    }
}

/// A job taken from the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Server-assigned id (monotonic).
    pub id: u64,
    /// The submitted document.
    pub doc: String,
}

/// Typed client wrapper for the print queue.
#[derive(Debug, Clone, Copy)]
pub struct QueueClient {
    handle: ProxyHandle,
}

impl QueueClient {
    /// Binds to the named queue service.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the bind.
    pub async fn bind(
        core: &mut SessionCore,
        cx: AsyncCx,
        service: &str,
    ) -> Result<QueueClient, RpcError> {
        Ok(QueueClient {
            handle: core.attach(cx, service).await?,
        })
    }

    /// The underlying proxy handle (for stats).
    pub fn handle(&self) -> ProxyHandle {
        self.handle
    }

    /// Submits a document, returning its job id.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn submit(
        &self,
        core: &mut SessionCore,
        cx: AsyncCx,
        doc: &str,
    ) -> Result<u64, RpcError> {
        let args = Value::record([("doc", Value::str(doc))]);
        let v = core.call(cx, self.handle, "submit", args).await?;
        Ok(v.as_u64().unwrap_or(0))
    }

    /// Takes the next job, if any.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn take(&self, core: &mut SessionCore, cx: AsyncCx) -> Result<Option<Job>, RpcError> {
        let v = core.call(cx, self.handle, "take", Value::Null).await?;
        if v == Value::Null {
            return Ok(None);
        }
        Ok(Some(Job {
            id: v.get_u64("id")?,
            doc: v.get_str("doc")?.to_owned(),
        }))
    }

    /// Queue length.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn len(&self, core: &mut SessionCore, cx: AsyncCx) -> Result<u64, RpcError> {
        let v = core.call(cx, self.handle, "len", Value::Null).await?;
        Ok(v.as_u64().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetworkConfig, NodeId, Simulation};

    fn with_object(f: impl FnOnce(&mut Ctx, &mut PrintQueue) + Send + 'static) {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn("driver", NodeId(0), move |ctx| {
            let mut q = PrintQueue::new();
            f(ctx, &mut q);
        });
        sim.run();
    }

    #[test]
    fn fifo_order() {
        with_object(|ctx, q| {
            for doc in ["a", "b", "c"] {
                q.dispatch(ctx, "submit", &Value::record([("doc", Value::str(doc))]))
                    .unwrap();
            }
            for expected in ["a", "b", "c"] {
                let v = q.dispatch(ctx, "take", &Value::Null).unwrap();
                assert_eq!(v.get_str("doc").unwrap(), expected);
            }
            assert_eq!(q.dispatch(ctx, "take", &Value::Null).unwrap(), Value::Null);
        });
    }

    #[test]
    fn ids_are_monotonic() {
        with_object(|ctx, q| {
            let a = q
                .dispatch(ctx, "submit", &Value::record([("doc", Value::str("x"))]))
                .unwrap();
            let b = q
                .dispatch(ctx, "submit", &Value::record([("doc", Value::str("y"))]))
                .unwrap();
            assert!(b.as_u64().unwrap() > a.as_u64().unwrap());
        });
    }

    #[test]
    fn peek_does_not_remove() {
        with_object(|ctx, q| {
            q.dispatch(ctx, "submit", &Value::record([("doc", Value::str("x"))]))
                .unwrap();
            let p1 = q.dispatch(ctx, "peek", &Value::Null).unwrap();
            let p2 = q.dispatch(ctx, "peek", &Value::Null).unwrap();
            assert_eq!(p1, p2);
            assert_eq!(q.dispatch(ctx, "len", &Value::Null).unwrap(), Value::U64(1));
        });
    }

    #[test]
    fn snapshot_preserves_order_and_ids() {
        with_object(|ctx, q| {
            for doc in ["a", "b"] {
                q.dispatch(ctx, "submit", &Value::record([("doc", Value::str(doc))]))
                    .unwrap();
            }
            q.dispatch(ctx, "take", &Value::Null).unwrap();
            let snap = q.snapshot().unwrap();
            let mut restored = PrintQueue::from_snapshot(&snap).unwrap();
            // Next submission continues the id sequence.
            let id = restored
                .dispatch(ctx, "submit", &Value::record([("doc", Value::str("c"))]))
                .unwrap();
            assert_eq!(id, Value::U64(3));
            let next = restored.dispatch(ctx, "take", &Value::Null).unwrap();
            assert_eq!(next.get_str("doc").unwrap(), "b");
        });
    }
}
