//! A directory service: path → entry, read-mostly.
//!
//! The replication example (experiment E4): directories are read far
//! more often than they change, so a service can replicate itself and
//! hand clients replica-reading proxies.

use std::collections::BTreeMap;

use proxy_core::{InterfaceDesc, OpDesc, ProxyHandle, ServiceObject, Session};
use rpc::{ErrorCode, RemoteError, RpcError};
use simnet::Ctx;
use wire::Value;

use crate::bad_args;

/// The interface type name (keys the factory registry).
pub const TYPE_NAME: &str = "proxide.directory";

/// A directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Opaque payload (e.g. an address, a document id).
    pub value: String,
    /// Monotonic per-entry revision.
    pub revision: u64,
}

/// Server-side state of the directory.
#[derive(Debug, Default, Clone)]
pub struct Directory {
    entries: BTreeMap<String, DirEntry>,
    /// Simulated compute charged per operation (models lookup cost and
    /// creates server contention in throughput experiments).
    service_time: std::time::Duration,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Charges a simulated compute cost on every operation.
    pub fn with_service_time(mut self, d: std::time::Duration) -> Directory {
        self.service_time = d;
        self
    }

    /// The interface every `Directory` exports.
    pub fn interface() -> InterfaceDesc {
        InterfaceDesc::new(
            TYPE_NAME,
            [
                OpDesc::read("lookup", "path"),
                OpDesc::write("insert", "path"),
                OpDesc::write("remove", "path"),
                OpDesc::read_whole("list"),
                OpDesc::read_whole("len"),
            ],
        )
    }

    /// Rebuilds a directory from a snapshot (factory entry point).
    ///
    /// # Errors
    ///
    /// Never fails; malformed snapshot fields are skipped.
    pub fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let mut d = Directory::new();
        if let Some(fields) = v.as_record() {
            for (path, entry) in fields {
                if let (Ok(value), Ok(revision)) = (entry.get_str("v"), entry.get_u64("r")) {
                    d.entries.insert(
                        path.to_string_owned(),
                        DirEntry {
                            value: value.to_owned(),
                            revision,
                        },
                    );
                }
            }
        }
        Ok(Box::new(d))
    }
}

impl ServiceObject for Directory {
    fn interface(&self) -> InterfaceDesc {
        Directory::interface()
    }

    fn service_time(&self, _op: &str, _args: &Value) -> std::time::Duration {
        self.service_time
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        match op {
            "lookup" => {
                let path = args.get_str("path").map_err(bad_args)?;
                Ok(self
                    .entries
                    .get(path)
                    .map(|e| {
                        Value::record([
                            ("v", Value::str(e.value.clone())),
                            ("r", Value::U64(e.revision)),
                        ])
                    })
                    .unwrap_or(Value::Null))
            }
            "insert" => {
                let path = args.get_str("path").map_err(bad_args)?;
                let value = args.get_str("value").map_err(bad_args)?;
                let revision = self.entries.get(path).map(|e| e.revision + 1).unwrap_or(1);
                self.entries.insert(
                    path.to_owned(),
                    DirEntry {
                        value: value.to_owned(),
                        revision,
                    },
                );
                Ok(Value::U64(revision))
            }
            "remove" => {
                let path = args.get_str("path").map_err(bad_args)?;
                Ok(Value::Bool(self.entries.remove(path).is_some()))
            }
            "list" => {
                let prefix = args.get("prefix").and_then(Value::as_str).unwrap_or("");
                Ok(Value::list(
                    self.entries
                        .keys()
                        .filter(|k| k.starts_with(prefix))
                        .map(Value::str),
                ))
            }
            "len" => Ok(Value::U64(self.entries.len() as u64)),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::record(self.entries.iter().map(|(path, e)| {
            (
                path.clone(),
                Value::record([
                    ("v", Value::str(e.value.clone())),
                    ("r", Value::U64(e.revision)),
                ]),
            )
        })))
    }
}

/// Typed client wrapper for the directory service.
#[derive(Debug, Clone, Copy)]
pub struct DirectoryClient {
    handle: ProxyHandle,
}

impl DirectoryClient {
    /// Binds to the named directory service.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the bind.
    pub fn bind(session: &mut Session<'_>, service: &str) -> Result<DirectoryClient, RpcError> {
        Ok(DirectoryClient {
            handle: session.bind(service)?,
        })
    }

    /// The underlying proxy handle (for stats).
    pub fn handle(&self) -> ProxyHandle {
        self.handle
    }

    /// Looks a path up.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub fn lookup(
        &self,
        session: &mut Session<'_>,
        path: &str,
    ) -> Result<Option<DirEntry>, RpcError> {
        let v = session.invoke(
            self.handle,
            "lookup",
            Value::record([("path", Value::str(path))]),
        )?;
        if v == Value::Null {
            return Ok(None);
        }
        Ok(Some(DirEntry {
            value: v.get_str("v")?.to_owned(),
            revision: v.get_u64("r")?,
        }))
    }

    /// Inserts or replaces an entry, returning its new revision.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub fn insert(
        &self,
        session: &mut Session<'_>,
        path: &str,
        value: &str,
    ) -> Result<u64, RpcError> {
        let v = session.invoke(
            self.handle,
            "insert",
            Value::record([("path", Value::str(path)), ("value", Value::str(value))]),
        )?;
        Ok(v.as_u64().unwrap_or(0))
    }

    /// Removes an entry; true if it existed.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub fn remove(&self, session: &mut Session<'_>, path: &str) -> Result<bool, RpcError> {
        let v = session.invoke(
            self.handle,
            "remove",
            Value::record([("path", Value::str(path))]),
        )?;
        Ok(v.as_bool().unwrap_or(false))
    }

    /// Lists paths with the given prefix.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub fn list(&self, session: &mut Session<'_>, prefix: &str) -> Result<Vec<String>, RpcError> {
        let v = session.invoke(
            self.handle,
            "list",
            Value::record([("prefix", Value::str(prefix))]),
        )?;
        Ok(v.as_list()
            .map(|items| {
                items
                    .iter()
                    .filter_map(|i| i.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetworkConfig, NodeId, Simulation};

    fn with_object(f: impl FnOnce(&mut Ctx, &mut Directory) + Send + 'static) {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn("driver", NodeId(0), move |ctx| {
            let mut d = Directory::new();
            f(ctx, &mut d);
        });
        sim.run();
    }

    #[test]
    fn insert_lookup_remove() {
        with_object(|ctx, d| {
            let r1 = d
                .dispatch(
                    ctx,
                    "insert",
                    &Value::record([("path", Value::str("/a")), ("value", Value::str("x"))]),
                )
                .unwrap();
            assert_eq!(r1, Value::U64(1));
            let e = d
                .dispatch(ctx, "lookup", &Value::record([("path", Value::str("/a"))]))
                .unwrap();
            assert_eq!(e.get_str("v").unwrap(), "x");
            let removed = d
                .dispatch(ctx, "remove", &Value::record([("path", Value::str("/a"))]))
                .unwrap();
            assert_eq!(removed, Value::Bool(true));
        });
    }

    #[test]
    fn revisions_increment_per_entry() {
        with_object(|ctx, d| {
            for expected in 1..=3u64 {
                let r = d
                    .dispatch(
                        ctx,
                        "insert",
                        &Value::record([("path", Value::str("/a")), ("value", Value::str("x"))]),
                    )
                    .unwrap();
                assert_eq!(r, Value::U64(expected));
            }
            // Independent path starts at 1.
            let r = d
                .dispatch(
                    ctx,
                    "insert",
                    &Value::record([("path", Value::str("/b")), ("value", Value::str("y"))]),
                )
                .unwrap();
            assert_eq!(r, Value::U64(1));
        });
    }

    #[test]
    fn list_filters_by_prefix() {
        with_object(|ctx, d| {
            for p in ["/etc/hosts", "/etc/passwd", "/var/log"] {
                d.dispatch(
                    ctx,
                    "insert",
                    &Value::record([("path", Value::str(p)), ("value", Value::str("_"))]),
                )
                .unwrap();
            }
            let v = d
                .dispatch(
                    ctx,
                    "list",
                    &Value::record([("prefix", Value::str("/etc/"))]),
                )
                .unwrap();
            assert_eq!(
                v,
                Value::list([Value::str("/etc/hosts"), Value::str("/etc/passwd")])
            );
        });
    }

    #[test]
    fn snapshot_preserves_revisions() {
        with_object(|ctx, d| {
            d.dispatch(
                ctx,
                "insert",
                &Value::record([("path", Value::str("/a")), ("value", Value::str("1"))]),
            )
            .unwrap();
            d.dispatch(
                ctx,
                "insert",
                &Value::record([("path", Value::str("/a")), ("value", Value::str("2"))]),
            )
            .unwrap();
            let snap = d.snapshot().unwrap();
            let restored = Directory::from_snapshot(&snap).unwrap();
            assert_eq!(restored.snapshot().unwrap(), snap);
        });
    }
}
