//! A block file service — the paper era's canonical caching example.
//!
//! Files are arrays of fixed-size blocks addressed by `(name, index)`.
//! Reads dominate real workloads, which is exactly where a caching proxy
//! shines (experiment E2). The service models server-side disk time with
//! a configurable per-block delay.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;
use proxy_core::{InterfaceDesc, OpDesc, ProxyHandle, ServiceObject, SessionCore};
use rpc::{ErrorCode, RemoteError, RpcError};
use simnet::{AsyncCx, Ctx};
use wire::Value;

use crate::{bad_args, malformed};

/// The interface type name (keys the factory registry).
pub const TYPE_NAME: &str = "proxide.file";

/// Block size in bytes.
pub const BLOCK_SIZE: usize = 1024;

/// Server-side state of the block file service.
#[derive(Debug, Default, Clone)]
pub struct BlockFile {
    /// `(file, block index)` → block content.
    blocks: BTreeMap<(String, u64), Bytes>,
    /// Simulated disk time charged per block access.
    disk_time: Duration,
}

impl BlockFile {
    /// An empty file service with no disk delay.
    pub fn new() -> BlockFile {
        BlockFile::default()
    }

    /// Adds a simulated disk delay per block access.
    pub fn with_disk_time(mut self, d: Duration) -> BlockFile {
        self.disk_time = d;
        self
    }

    /// The interface every `BlockFile` exports. The cache tag of a block
    /// operation is its `addr` argument (`"file:index"`), so writes
    /// invalidate exactly the block they touch.
    pub fn interface() -> InterfaceDesc {
        InterfaceDesc::new(
            TYPE_NAME,
            [
                OpDesc::read("read", "addr"),
                OpDesc::write("write", "addr"),
                OpDesc::read_whole("blocks"),
                OpDesc::write_whole("truncate"),
            ],
        )
    }

    /// Rebuilds the service from a snapshot (factory entry point).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadArgs`] for a shape [`ServiceObject::snapshot`]
    /// does not produce: a snapshot that cannot be read is refused, not
    /// reset.
    pub fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let fields = v
            .as_record()
            .ok_or_else(|| malformed("a file snapshot is a record"))?;
        let mut f = BlockFile::new();
        for (addr, val) in fields {
            match (parse_addr(addr), val.as_blob()) {
                (Some(key), Some(b)) => f.blocks.insert(key, b.clone()),
                _ => return Err(malformed(format!("`{addr}` is not a block"))),
            };
        }
        Ok(Box::new(f))
    }
}

/// Formats a block address as the wire `addr` argument.
pub fn block_addr(file: &str, index: u64) -> String {
    format!("{file}:{index}")
}

fn parse_addr(addr: &str) -> Option<(String, u64)> {
    let (name, idx) = addr.rsplit_once(':')?;
    Some((name.to_owned(), idx.parse().ok()?))
}

/// The block a `read` or `write` addresses.
fn block_key(args: &Value) -> Result<(String, u64), RemoteError> {
    let addr = args.get_str("addr").map_err(bad_args)?;
    parse_addr(addr).ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "bad block addr"))
}

/// The content a `write` carries.
fn block_data(args: &Value) -> Result<&Bytes, RemoteError> {
    let data = args.get_blob("data").map_err(bad_args)?;
    if data.len() > BLOCK_SIZE {
        return Err(RemoteError::new(
            ErrorCode::BadArgs,
            format!("block larger than {BLOCK_SIZE} bytes"),
        ));
    }
    Ok(data)
}

impl ServiceObject for BlockFile {
    fn interface(&self) -> InterfaceDesc {
        BlockFile::interface()
    }

    /// A block access that reaches the disk costs `disk_time`; a request
    /// rejected for its arguments never gets that far.
    fn service_time(&self, op: &str, args: &Value) -> Duration {
        match op {
            _ if self.disk_time.is_zero() => Duration::ZERO,
            "read" if block_key(args).is_ok() => self.disk_time,
            "write" if block_key(args).is_ok() && block_data(args).is_ok() => self.disk_time,
            _ => Duration::ZERO,
        }
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        match op {
            "read" => Ok(self
                .blocks
                .get(&block_key(args)?)
                .map(|b| Value::Blob(b.clone()))
                .unwrap_or(Value::Null)),
            "write" => {
                let key = block_key(args)?;
                self.blocks.insert(key, block_data(args)?.clone());
                Ok(Value::Null)
            }
            "blocks" => Ok(Value::U64(self.blocks.len() as u64)),
            "truncate" => {
                let file = args.get_str("file").map_err(bad_args)?;
                let before = self.blocks.len();
                self.blocks.retain(|(name, _), _| name != file);
                Ok(Value::U64((before - self.blocks.len()) as u64))
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::record(self.blocks.iter().map(|((name, idx), b)| {
            (block_addr(name, *idx), Value::Blob(b.clone()))
        })))
    }
}

/// Typed client wrapper for the block file service.
#[derive(Debug, Clone, Copy)]
pub struct FileClient {
    handle: ProxyHandle,
}

impl FileClient {
    /// Binds to the named file service.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the bind.
    pub async fn bind(
        core: &mut SessionCore,
        cx: AsyncCx,
        service: &str,
    ) -> Result<FileClient, RpcError> {
        Ok(FileClient {
            handle: core.attach(cx, service).await?,
        })
    }

    /// The underlying proxy handle (for stats).
    pub fn handle(&self) -> ProxyHandle {
        self.handle
    }

    /// Reads one block; `None` if never written.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn read(
        &self,
        core: &mut SessionCore,
        cx: AsyncCx,
        file: &str,
        index: u64,
    ) -> Result<Option<Bytes>, RpcError> {
        let args = Value::record([("addr", Value::str(block_addr(file, index)))]);
        let v = core.call(cx, self.handle, "read", args).await?;
        Ok(v.as_blob().cloned())
    }

    /// Writes one block.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation, including `BadArgs` for
    /// blocks over [`BLOCK_SIZE`].
    pub async fn write(
        &self,
        core: &mut SessionCore,
        cx: AsyncCx,
        file: &str,
        index: u64,
        data: impl Into<Bytes>,
    ) -> Result<(), RpcError> {
        let addr = Value::str(block_addr(file, index));
        let args = Value::record([("addr", addr), ("data", Value::Blob(data.into()))]);
        core.call(cx, self.handle, "write", args).await?;
        Ok(())
    }

    /// Total number of stored blocks across all files.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the invocation.
    pub async fn blocks(&self, core: &mut SessionCore, cx: AsyncCx) -> Result<u64, RpcError> {
        let v = core.call(cx, self.handle, "blocks", Value::Null).await?;
        Ok(v.as_u64().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetworkConfig, NodeId, Simulation};

    fn with_object(f: impl FnOnce(&mut Ctx, &mut BlockFile) + Send + 'static) {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn("driver", NodeId(0), move |ctx| {
            let mut file = BlockFile::new();
            f(ctx, &mut file);
        });
        sim.run();
    }

    #[test]
    fn write_then_read_block() {
        with_object(|ctx, f| {
            f.dispatch(
                ctx,
                "write",
                &Value::record([
                    ("addr", Value::str("doc:0")),
                    ("data", Value::blob(vec![7u8; 10])),
                ]),
            )
            .unwrap();
            let v = f
                .dispatch(ctx, "read", &Value::record([("addr", Value::str("doc:0"))]))
                .unwrap();
            assert_eq!(v.as_blob().unwrap().as_ref(), &[7u8; 10]);
        });
    }

    #[test]
    fn unwritten_block_is_null() {
        with_object(|ctx, f| {
            let v = f
                .dispatch(ctx, "read", &Value::record([("addr", Value::str("doc:9"))]))
                .unwrap();
            assert_eq!(v, Value::Null);
        });
    }

    #[test]
    fn oversized_block_rejected() {
        with_object(|ctx, f| {
            let err = f
                .dispatch(
                    ctx,
                    "write",
                    &Value::record([
                        ("addr", Value::str("doc:0")),
                        ("data", Value::blob(vec![0u8; BLOCK_SIZE + 1])),
                    ]),
                )
                .unwrap_err();
            assert_eq!(err.code, ErrorCode::BadArgs);
        });
    }

    #[test]
    fn truncate_removes_only_that_file() {
        with_object(|ctx, f| {
            for (file, idx) in [("a", 0u64), ("a", 1), ("b", 0)] {
                f.dispatch(
                    ctx,
                    "write",
                    &Value::record([
                        ("addr", Value::str(block_addr(file, idx))),
                        ("data", Value::blob(vec![1u8])),
                    ]),
                )
                .unwrap();
            }
            let removed = f
                .dispatch(ctx, "truncate", &Value::record([("file", Value::str("a"))]))
                .unwrap();
            assert_eq!(removed, Value::U64(2));
            assert_eq!(
                f.dispatch(ctx, "blocks", &Value::Null).unwrap(),
                Value::U64(1)
            );
        });
    }

    #[test]
    fn disk_time_is_charged() {
        let f = BlockFile::new().with_disk_time(Duration::from_millis(2));
        let write = Value::record([
            ("addr", Value::str("doc:0")),
            ("data", Value::blob(vec![1u8])),
        ]);
        assert_eq!(f.service_time("write", &write), Duration::from_millis(2));
        // A request rejected for its arguments never reaches the disk.
        assert_eq!(f.service_time("read", &Value::Null), Duration::ZERO);
        assert_eq!(
            BlockFile::new().service_time("write", &write),
            Duration::ZERO
        );
    }

    #[test]
    fn snapshot_roundtrip() {
        with_object(|ctx, f| {
            f.dispatch(
                ctx,
                "write",
                &Value::record([
                    ("addr", Value::str("doc:3")),
                    ("data", Value::blob(vec![9u8; 4])),
                ]),
            )
            .unwrap();
            let snap = f.snapshot().unwrap();
            let restored = BlockFile::from_snapshot(&snap).unwrap();
            assert_eq!(restored.snapshot().unwrap(), snap);
        });
    }

    #[test]
    fn addr_parsing() {
        assert_eq!(parse_addr("file:7"), Some(("file".into(), 7)));
        assert_eq!(parse_addr("a:b:3"), Some(("a:b".into(), 3)));
        assert_eq!(parse_addr("nocolon"), None);
        assert_eq!(parse_addr("bad:idx"), None);
        assert_eq!(block_addr("f", 2), "f:2");
    }
}
