//! A counter service — tiny state, ideal for migration experiments.
//!
//! Experiment E3 migrates this object toward its dominant user: the
//! state fits in one datagram, so the checkout cost is one RTT and the
//! crossover against a stub appears after only a handful of calls.

use proxy_core::{InterfaceDesc, OpDesc, ProxyHandle, ServiceObject, SessionCore};
use rpc::{ErrorCode, RemoteError, RpcError};
use simnet::{AsyncCx, Ctx};
use wire::Value;

use crate::{bad_args, malformed};

/// The interface type name (keys the factory registry).
pub const TYPE_NAME: &str = "proxide.counter";

/// Server-side state of the counter.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// A counter starting at `value`.
    pub fn starting_at(value: u64) -> Counter {
        Counter { value }
    }

    /// The interface every `Counter` exports.
    pub fn interface() -> InterfaceDesc {
        InterfaceDesc::new(
            TYPE_NAME,
            [
                OpDesc::read_whole("get"),
                OpDesc::write_whole("inc"),
                OpDesc::write_whole("add"),
                OpDesc::write_whole("reset"),
            ],
        )
    }

    /// Rebuilds a counter from a snapshot (factory entry point).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadArgs`] for a shape [`ServiceObject::snapshot`]
    /// does not produce: a snapshot that cannot be read is refused, not
    /// reset.
    pub fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let value = v
            .as_u64()
            .ok_or_else(|| malformed("a counter snapshot is a u64"))?;
        Ok(Box::new(Counter { value }))
    }
}

impl ServiceObject for Counter {
    fn interface(&self) -> InterfaceDesc {
        Counter::interface()
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        match op {
            "get" => Ok(Value::U64(self.value)),
            "inc" => {
                self.value += 1;
                Ok(Value::U64(self.value))
            }
            "add" => {
                let n = args.get_u64("n").map_err(bad_args)?;
                self.value = self.value.saturating_add(n);
                Ok(Value::U64(self.value))
            }
            "reset" => {
                self.value = 0;
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::U64(self.value))
    }
}

/// Typed client wrapper for the counter service.
#[derive(Debug, Clone, Copy)]
pub struct CounterClient {
    handle: ProxyHandle,
}

impl CounterClient {
    /// Binds to the named counter service.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the bind.
    pub async fn bind(
        core: &mut SessionCore,
        cx: AsyncCx,
        service: &str,
    ) -> Result<CounterClient, RpcError> {
        Ok(CounterClient {
            handle: core.attach(cx, service).await?,
        })
    }

    /// The underlying proxy handle (for stats).
    pub fn handle(&self) -> ProxyHandle {
        self.handle
    }

    /// Current value.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn get(&self, core: &mut SessionCore, cx: AsyncCx) -> Result<u64, RpcError> {
        let v = core.call(cx, self.handle, "get", Value::Null).await?;
        Ok(v.as_u64().unwrap_or(0))
    }

    /// Increments and returns the new value.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn inc(&self, core: &mut SessionCore, cx: AsyncCx) -> Result<u64, RpcError> {
        let v = core.call(cx, self.handle, "inc", Value::Null).await?;
        Ok(v.as_u64().unwrap_or(0))
    }

    /// Adds `n` and returns the new value.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn add(&self, core: &mut SessionCore, cx: AsyncCx, n: u64) -> Result<u64, RpcError> {
        let args = Value::record([("n", Value::U64(n))]);
        let v = core.call(cx, self.handle, "add", args).await?;
        Ok(v.as_u64().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetworkConfig, NodeId, Simulation};

    fn with_object(f: impl FnOnce(&mut Ctx, &mut Counter) + Send + 'static) {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn("driver", NodeId(0), move |ctx| {
            let mut c = Counter::new();
            f(ctx, &mut c);
        });
        sim.run();
    }

    #[test]
    fn inc_add_get_reset() {
        with_object(|ctx, c| {
            assert_eq!(c.dispatch(ctx, "inc", &Value::Null).unwrap(), Value::U64(1));
            assert_eq!(
                c.dispatch(ctx, "add", &Value::record([("n", Value::U64(10))]))
                    .unwrap(),
                Value::U64(11)
            );
            assert_eq!(
                c.dispatch(ctx, "get", &Value::Null).unwrap(),
                Value::U64(11)
            );
            c.dispatch(ctx, "reset", &Value::Null).unwrap();
            assert_eq!(c.dispatch(ctx, "get", &Value::Null).unwrap(), Value::U64(0));
        });
    }

    #[test]
    fn add_saturates() {
        with_object(|ctx, c| {
            c.dispatch(ctx, "add", &Value::record([("n", Value::U64(u64::MAX))]))
                .unwrap();
            let v = c
                .dispatch(ctx, "add", &Value::record([("n", Value::U64(5))]))
                .unwrap();
            assert_eq!(v, Value::U64(u64::MAX));
        });
    }

    #[test]
    fn snapshot_roundtrip() {
        let c = Counter::starting_at(42);
        let snap = c.snapshot().unwrap();
        let restored = Counter::from_snapshot(&snap).unwrap();
        assert_eq!(restored.snapshot().unwrap(), Value::U64(42));
    }
}
