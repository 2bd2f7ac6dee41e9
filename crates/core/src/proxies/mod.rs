//! The proxy zoo: concrete proxy implementations.
//!
//! | Proxy | Strategy | Paper analogue |
//! |---|---|---|
//! | [`StubProxy`] | marshal and forward every call: a bare [`Remote`] | the RPC stub — the degenerate proxy |
//! | [`CachingProxy`] | cache read results, stay coherent via leases and/or invalidations | the "intelligent" proxy motivating the paper |
//! | [`MigratoryProxy`] | check the object out into the client context after a usage threshold | migration as an invocation optimization |
//! | [`AdaptiveProxy`] | watch the access mix, switch strategy on the fly | the service's freedom to change protocol without client changes |
//!
//! The replica-reading proxy lives in the `replication` crate, next to
//! the replicated server machinery it pairs with.

mod adaptive;
mod caching;
mod local;
mod migratory;
mod read_cache;
mod stub;

pub use adaptive::AdaptiveProxy;
pub use caching::CachingProxy;
pub use local::LocalProxy;
pub use migratory::MigratoryProxy;
pub use read_cache::{note_lookup, ReadCache};
pub use stub::{Remote, StubProxy};

/// Cap on `Moved` redirects followed within one logical call; bounds the
/// cost of pathological forwarding chains.
pub(crate) const MAX_REDIRECTS: u32 = 16;
