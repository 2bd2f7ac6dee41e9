//! Service objects and the factory registry.
//!
//! A [`ServiceObject`] is the encapsulated state-plus-methods unit the
//! paper structures services around. Objects are hosted in a *context*
//! (a [`crate::ServiceServer`] process) and invoked only through
//! dispatch; their state never leaks except through [`snapshot`]
//! (migration, replication) which is itself part of the protocol, not
//! the interface.
//!
//! [`snapshot`]: ServiceObject::snapshot

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use rpc::{ErrorCode, RemoteError};
use simnet::Ctx;
use wire::Value;

use crate::interface::InterfaceDesc;

/// An object hosted by a service context.
///
/// `dispatch` receives the simulation [`Ctx`] for the clock, tracing,
/// observability and sends (an object may notify other services). It
/// **must not block**: the server context is a poll-driven state machine
/// and cannot suspend inside a handler, so `ctx.sleep(..)`/`ctx.recv()`
/// there panic. An object that models compute or disk time declares it
/// through [`service_time`](ServiceObject::service_time) and its host
/// spends it.
pub trait ServiceObject: Send {
    /// The interface this object exports.
    fn interface(&self) -> InterfaceDesc;

    /// Executes one operation, without blocking.
    ///
    /// # Errors
    ///
    /// A [`RemoteError`] describing the failure; it is shipped to the
    /// caller verbatim.
    fn dispatch(&mut self, ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError>;

    /// How long this operation occupies the object's host before
    /// `dispatch` runs (simulated compute or disk time; default none).
    /// The host is a single FIFO server for that long:
    ///
    /// * a [`crate::ServiceServer`] opens the call's dispatch span at
    ///   arrival, leaves its mailbox undrained until the time has passed
    ///   (a retransmission waits there and is then answered from the
    ///   reply cache), and only then dispatches and replies;
    /// * a blocking host — a local or migratory proxy holding the object
    ///   in the client's context, the `migration` and `replication`
    ///   servers — sleeps it through [`dispatch_blocking`].
    fn service_time(&self, _op: &str, _args: &Value) -> Duration {
        Duration::ZERO
    }

    /// Captures the object's full state for migration or replication.
    ///
    /// # Errors
    ///
    /// The default declines with [`ErrorCode::Unavailable`]; movable
    /// objects override this.
    fn snapshot(&self) -> Result<Value, RemoteError> {
        Err(RemoteError::new(
            ErrorCode::Unavailable,
            "object does not support state capture",
        ))
    }
}

/// How a blocking host executes an operation: sleeps the object's
/// [`service_time`](ServiceObject::service_time), then dispatches.
///
/// # Errors
///
/// Whatever `dispatch` reports.
pub fn dispatch_blocking(
    object: &mut dyn ServiceObject,
    ctx: &mut Ctx,
    op: &str,
    args: &Value,
) -> Result<Value, RemoteError> {
    // Interrupted only by shutdown; the call still completes, as a
    // handler that slept did.
    let _ = ctx.sleep(object.service_time(op, args));
    object.dispatch(ctx, op, args)
}

impl fmt::Debug for dyn ServiceObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ServiceObject({})", self.interface().type_name)
    }
}

/// Constructor for re-instantiating an object from a snapshot.
pub type ObjectCtor = dyn Fn(&Value) -> Result<Box<dyn ServiceObject>, RemoteError> + Send + Sync;

/// A registry of object constructors keyed by interface type name.
///
/// The paper lets a service ship proxy *code* into client contexts; Rust
/// cannot load code at runtime, so the equivalent is this registry: a
/// process that may host migrated objects (or custom proxies) registers
/// the constructors ahead of time, and the binding protocol selects among
/// them by type name (see `DESIGN.md` §6).
///
/// Cloning is cheap (shared internals).
#[derive(Clone, Default)]
pub struct FactoryRegistry {
    ctors: HashMap<String, Arc<ObjectCtor>>,
}

impl fmt::Debug for FactoryRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.ctors.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("FactoryRegistry")
            .field("types", &names)
            .finish()
    }
}

impl FactoryRegistry {
    /// Creates an empty registry.
    pub fn new() -> FactoryRegistry {
        FactoryRegistry::default()
    }

    /// Registers a constructor for `type_name`, replacing any previous
    /// one. Returns `self` for chaining.
    pub fn register<F>(mut self, type_name: impl Into<String>, ctor: F) -> FactoryRegistry
    where
        F: Fn(&Value) -> Result<Box<dyn ServiceObject>, RemoteError> + Send + Sync + 'static,
    {
        self.ctors.insert(type_name.into(), Arc::new(ctor));
        self
    }

    /// Instantiates an object of `type_name` from a snapshot.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchObject`] if the type is unknown, or whatever
    /// the constructor reports.
    pub fn create(
        &self,
        type_name: &str,
        snapshot: &Value,
    ) -> Result<Box<dyn ServiceObject>, RemoteError> {
        match self.ctors.get(type_name) {
            Some(ctor) => ctor(snapshot),
            None => Err(RemoteError::new(
                ErrorCode::NoSuchObject,
                format!("no factory for type `{type_name}`"),
            )),
        }
    }

    /// Whether a constructor exists for `type_name`.
    pub fn knows(&self, type_name: &str) -> bool {
        self.ctors.contains_key(type_name)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A tiny in-memory KV object shared by the crate's unit tests.
    use super::*;
    use crate::interface::OpDesc;
    use std::collections::BTreeMap;

    #[derive(Debug, Default)]
    pub struct TestKv {
        pub map: BTreeMap<String, String>,
    }

    impl TestKv {
        pub fn iface() -> InterfaceDesc {
            InterfaceDesc::new(
                "test-kv",
                [
                    OpDesc::read("get", "key"),
                    OpDesc::write("put", "key"),
                    OpDesc::read_whole("len"),
                ],
            )
        }

        pub fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
            let mut kv = TestKv::default();
            if let Some(items) = v.as_record() {
                for (k, val) in items {
                    if let Some(s) = val.as_str() {
                        kv.map.insert(k.to_string_owned(), s.to_owned());
                    }
                }
            }
            Ok(Box::new(kv))
        }
    }

    impl ServiceObject for TestKv {
        fn interface(&self) -> InterfaceDesc {
            TestKv::iface()
        }

        fn dispatch(
            &mut self,
            _ctx: &mut Ctx,
            op: &str,
            args: &Value,
        ) -> Result<Value, RemoteError> {
            match op {
                "get" => {
                    let key = args
                        .get_str("key")
                        .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                    Ok(self
                        .map
                        .get(key)
                        .map(|v| Value::str(v.clone()))
                        .unwrap_or(Value::Null))
                }
                "put" => {
                    let key = args
                        .get_str("key")
                        .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                    let val = args
                        .get_str("value")
                        .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                    self.map.insert(key.to_owned(), val.to_owned());
                    Ok(Value::Null)
                }
                "len" => Ok(Value::U64(self.map.len() as u64)),
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            }
        }

        fn snapshot(&self) -> Result<Value, RemoteError> {
            Ok(Value::record(
                self.map
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::str(v.clone()))),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::TestKv;
    use super::*;

    #[test]
    fn registry_creates_from_snapshot() {
        let reg = FactoryRegistry::new().register("test-kv", TestKv::from_snapshot);
        assert!(reg.knows("test-kv"));
        assert!(!reg.knows("other"));
        let snap = Value::record([("a", Value::str("1"))]);
        let obj = reg.create("test-kv", &snap).unwrap();
        assert_eq!(obj.interface().type_name, "test-kv");
        assert_eq!(obj.snapshot().unwrap(), snap);
    }

    #[test]
    fn unknown_type_is_error() {
        let reg = FactoryRegistry::new();
        let err = reg.create("ghost", &Value::Null).unwrap_err();
        assert_eq!(err.code, ErrorCode::NoSuchObject);
    }

    #[test]
    fn default_snapshot_declines() {
        struct Opaque;
        impl ServiceObject for Opaque {
            fn interface(&self) -> InterfaceDesc {
                InterfaceDesc::new("opaque", [])
            }
            fn dispatch(
                &mut self,
                _ctx: &mut Ctx,
                _op: &str,
                _args: &Value,
            ) -> Result<Value, RemoteError> {
                Ok(Value::Null)
            }
        }
        let err = Opaque.snapshot().unwrap_err();
        assert_eq!(err.code, ErrorCode::Unavailable);
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let reg = FactoryRegistry::new()
            .register("t", |_| Err(RemoteError::new(ErrorCode::App, "never")));
        assert!(format!("{reg:?}").contains("t"));
    }
}
