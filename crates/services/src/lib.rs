//! # services — realistic services built on the proxy framework
//!
//! The worked examples a release of the paper's system would ship.
//! Each service provides:
//!
//! * a [`proxy_core::ServiceObject`] implementation (the server-side
//!   state and operations),
//! * a factory function for the [`proxy_core::FactoryRegistry`] (so the
//!   object can migrate), and
//! * a typed client wrapper that turns `invoke(op, Value)` into ordinary
//!   Rust methods — the "stub interface" a code generator would emit.
//!
//! | Module | Service | Flavour |
//! |---|---|---|
//! | [`kv`] | key-value store | general-purpose, mixed workloads |
//! | [`mod@file`] | block file service | read-heavy; the classic caching-proxy example |
//! | [`directory`] | directory (name → entry) | read-mostly; the replication example |
//! | [`counter`] | counter | tiny state; the migration example |
//! | [`queue`] | print queue | write-heavy; where caching must *not* win |
//! | [`blob`] | blob store | bulk payloads; the out-of-band data plane + edge caches |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blob;
pub mod counter;
pub mod directory;
pub mod file;
pub mod kv;
pub mod queue;

use proxy_core::FactoryRegistry;

/// A factory registry knowing every service type in this crate — handy
/// default for clients and servers of migratable services.
pub fn all_factories() -> FactoryRegistry {
    FactoryRegistry::new()
        .register(kv::TYPE_NAME, kv::KvStore::from_snapshot)
        .register(file::TYPE_NAME, file::BlockFile::from_snapshot)
        .register(directory::TYPE_NAME, directory::Directory::from_snapshot)
        .register(counter::TYPE_NAME, counter::Counter::from_snapshot)
        .register(queue::TYPE_NAME, queue::PrintQueue::from_snapshot)
        .register(blob::TYPE_NAME, blob::BlobStore::from_snapshot)
}

/// Converts a wire error into the conventional `BadArgs` remote error.
pub(crate) fn bad_args(e: wire::WireError) -> rpc::RemoteError {
    rpc::RemoteError::new(rpc::ErrorCode::BadArgs, e.to_string())
}

/// The `BadArgs` error of a snapshot whose shape an object does not
/// recognise.
pub(crate) fn malformed(what: impl std::fmt::Display) -> rpc::RemoteError {
    rpc::RemoteError::new(
        rpc::ErrorCode::BadArgs,
        format!("malformed snapshot: {what}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_factories_knows_every_type() {
        let f = all_factories();
        for t in [
            kv::TYPE_NAME,
            file::TYPE_NAME,
            directory::TYPE_NAME,
            counter::TYPE_NAME,
            queue::TYPE_NAME,
            blob::TYPE_NAME,
        ] {
            assert!(f.knows(t), "missing factory for {t}");
        }
    }
}
