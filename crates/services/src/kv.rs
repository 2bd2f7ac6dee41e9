//! A key-value store service.

use std::collections::BTreeMap;

use proxy_core::{InterfaceDesc, OpDesc, ProxyHandle, ServiceObject, SessionCore};
use rpc::{ErrorCode, RemoteError, RpcError};
use simnet::{AsyncCx, Ctx};
use wire::Value;

use crate::{bad_args, malformed};

/// The interface type name (keys the factory registry).
pub const TYPE_NAME: &str = "proxide.kv";

/// Server-side state of the key-value store. Values are arbitrary wire
/// values — strings, blobs, records, or out-of-band [`wire::Value::Ref`]
/// handles placed there by bulk-enabled proxies.
#[derive(Debug, Default, Clone)]
pub struct KvStore {
    map: BTreeMap<String, Value>,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> KvStore {
        KvStore::default()
    }

    /// The interface every `KvStore` exports.
    pub fn interface() -> InterfaceDesc {
        InterfaceDesc::new(
            TYPE_NAME,
            [
                OpDesc::read("get", "key"),
                OpDesc::read("contains", "key"),
                OpDesc::write("put", "key"),
                OpDesc::write("del", "key"),
                OpDesc::read_whole("len"),
                OpDesc::read_whole("keys"),
                OpDesc::write_whole("clear"),
            ],
        )
    }

    /// Rebuilds a store from a snapshot (factory entry point).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadArgs`] for a shape [`ServiceObject::snapshot`]
    /// does not produce: a snapshot that cannot be read is refused, not
    /// reset.
    pub fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let fields = v
            .as_record()
            .ok_or_else(|| malformed("a kv snapshot is a record"))?;
        let mut store = KvStore::new();
        for (k, val) in fields {
            store.map.insert(k.to_string_owned(), val.clone());
        }
        Ok(Box::new(store))
    }
}

impl ServiceObject for KvStore {
    fn interface(&self) -> InterfaceDesc {
        KvStore::interface()
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        match op {
            "get" => {
                let key = args.get_str("key").map_err(bad_args)?;
                Ok(self.map.get(key).cloned().unwrap_or(Value::Null))
            }
            "contains" => {
                let key = args.get_str("key").map_err(bad_args)?;
                Ok(Value::Bool(self.map.contains_key(key)))
            }
            "put" => {
                let key = args.get_str("key").map_err(bad_args)?;
                let value = args
                    .get("value")
                    .ok_or_else(|| bad_args(wire::WireError::MissingField("value")))?;
                let prev = self.map.insert(key.to_owned(), value.clone());
                Ok(prev.unwrap_or(Value::Null))
            }
            "del" => {
                let key = args.get_str("key").map_err(bad_args)?;
                Ok(Value::Bool(self.map.remove(key).is_some()))
            }
            "len" => Ok(Value::U64(self.map.len() as u64)),
            "keys" => Ok(Value::list(self.map.keys().map(Value::str))),
            "clear" => {
                self.map.clear();
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::record(
            self.map.iter().map(|(k, v)| (k.clone(), v.clone())),
        ))
    }
}

/// Typed client wrapper: the interface a stub generator would emit.
#[derive(Debug, Clone, Copy)]
pub struct KvClient {
    handle: ProxyHandle,
}

impl KvClient {
    /// Binds to the named kv service.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the bind.
    pub async fn bind(
        core: &mut SessionCore,
        cx: AsyncCx,
        service: &str,
    ) -> Result<KvClient, RpcError> {
        Ok(KvClient {
            handle: core.attach(cx, service).await?,
        })
    }

    /// The underlying proxy handle (for stats).
    pub fn handle(&self) -> ProxyHandle {
        self.handle
    }

    /// Reads a key.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn get(
        &self,
        core: &mut SessionCore,
        cx: AsyncCx,
        key: &str,
    ) -> Result<Option<String>, RpcError> {
        let args = Value::record([("key", Value::str(key))]);
        let v = core.call(cx, self.handle, "get", args).await?;
        Ok(v.as_str().map(str::to_owned))
    }

    /// Writes a key, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn put(
        &self,
        core: &mut SessionCore,
        cx: AsyncCx,
        key: &str,
        value: &str,
    ) -> Result<Option<String>, RpcError> {
        let args = Value::record([("key", Value::str(key)), ("value", Value::str(value))]);
        let v = core.call(cx, self.handle, "put", args).await?;
        Ok(v.as_str().map(str::to_owned))
    }

    /// Deletes a key; true if it existed.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn del(
        &self,
        core: &mut SessionCore,
        cx: AsyncCx,
        key: &str,
    ) -> Result<bool, RpcError> {
        let args = Value::record([("key", Value::str(key))]);
        let v = core.call(cx, self.handle, "del", args).await?;
        Ok(v.as_bool().unwrap_or(false))
    }

    /// Number of keys.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn len(&self, core: &mut SessionCore, cx: AsyncCx) -> Result<u64, RpcError> {
        let v = core.call(cx, self.handle, "len", Value::Null).await?;
        Ok(v.as_u64().unwrap_or(0))
    }

    /// Whether the store is empty.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn is_empty(&self, core: &mut SessionCore, cx: AsyncCx) -> Result<bool, RpcError> {
        Ok(self.len(core, cx).await? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetworkConfig, NodeId, Simulation};

    /// Drives the object directly (no network) through a scratch context.
    fn with_object(f: impl FnOnce(&mut Ctx, &mut KvStore) + Send + 'static) {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn("driver", NodeId(0), move |ctx| {
            let mut kv = KvStore::new();
            f(ctx, &mut kv);
        });
        sim.run();
    }

    #[test]
    fn put_get_del_roundtrip() {
        with_object(|ctx, kv| {
            let prev = kv
                .dispatch(
                    ctx,
                    "put",
                    &Value::record([("key", Value::str("a")), ("value", Value::str("1"))]),
                )
                .unwrap();
            assert_eq!(prev, Value::Null);
            let v = kv
                .dispatch(ctx, "get", &Value::record([("key", Value::str("a"))]))
                .unwrap();
            assert_eq!(v, Value::str("1"));
            let deleted = kv
                .dispatch(ctx, "del", &Value::record([("key", Value::str("a"))]))
                .unwrap();
            assert_eq!(deleted, Value::Bool(true));
            let v = kv
                .dispatch(ctx, "get", &Value::record([("key", Value::str("a"))]))
                .unwrap();
            assert_eq!(v, Value::Null);
        });
    }

    #[test]
    fn put_returns_previous_value() {
        with_object(|ctx, kv| {
            kv.dispatch(
                ctx,
                "put",
                &Value::record([("key", Value::str("k")), ("value", Value::str("old"))]),
            )
            .unwrap();
            let prev = kv
                .dispatch(
                    ctx,
                    "put",
                    &Value::record([("key", Value::str("k")), ("value", Value::str("new"))]),
                )
                .unwrap();
            assert_eq!(prev, Value::str("old"));
        });
    }

    #[test]
    fn len_keys_clear() {
        with_object(|ctx, kv| {
            for k in ["b", "a", "c"] {
                kv.dispatch(
                    ctx,
                    "put",
                    &Value::record([("key", Value::str(k)), ("value", Value::str("x"))]),
                )
                .unwrap();
            }
            assert_eq!(
                kv.dispatch(ctx, "len", &Value::Null).unwrap(),
                Value::U64(3)
            );
            let keys = kv.dispatch(ctx, "keys", &Value::Null).unwrap();
            assert_eq!(
                keys,
                Value::list([Value::str("a"), Value::str("b"), Value::str("c")])
            );
            kv.dispatch(ctx, "clear", &Value::Null).unwrap();
            assert_eq!(
                kv.dispatch(ctx, "len", &Value::Null).unwrap(),
                Value::U64(0)
            );
        });
    }

    #[test]
    fn snapshot_restores_identically() {
        with_object(|ctx, kv| {
            for (k, v) in [("x", "1"), ("y", "2")] {
                kv.dispatch(
                    ctx,
                    "put",
                    &Value::record([("key", Value::str(k)), ("value", Value::str(v))]),
                )
                .unwrap();
            }
            let snap = kv.snapshot().unwrap();
            let mut restored = KvStore::from_snapshot(&snap).unwrap();
            assert_eq!(restored.snapshot().unwrap(), snap);
            assert_eq!(
                restored.dispatch(ctx, "len", &Value::Null).unwrap(),
                Value::U64(2)
            );
        });
    }

    #[test]
    fn bad_args_rejected() {
        with_object(|ctx, kv| {
            let err = kv.dispatch(ctx, "get", &Value::Null).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadArgs);
            let err = kv.dispatch(ctx, "frob", &Value::Null).unwrap_err();
            assert_eq!(err.code, ErrorCode::NoSuchOp);
        });
    }

    #[test]
    fn interface_classifies_ops() {
        let i = KvStore::interface();
        assert!(i.is_read("get"));
        assert!(i.is_read("keys"));
        assert!(i.is_write("put"));
        assert!(i.is_write("clear"));
    }
}
