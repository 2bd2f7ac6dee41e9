//! Proxy specifications: how a service tells clients what proxy to run.
//!
//! The heart of the binding protocol: when a service registers itself,
//! the metadata it publishes includes a [`ProxySpec`] — *the service
//! chooses its own client-side representative*. A client that binds gets
//! whatever the service specified: a dumb stub, a caching proxy with the
//! service's chosen coherence mode, a replica-reading proxy with the
//! service's replica list, and so on. Clients never hard-code a strategy,
//! which is exactly the encapsulation the paper argues for: the service
//! can change its distribution protocol without touching client code.
//!
//! The spec travels only between this crate and the services that
//! publish it, so it is positional and names no field: `[kind, …]`, the
//! kind a code and then its variant's slots. Stub is `[0]`, caching
//! `[1, params]`, migratory `[2, threshold]`, replicated `[3, primary,
//! [replica, …], read]` (read 0 nearest, 1 primary), adaptive
//! `[4, [window, enable_at, disable_at, params]]`, bulk `[5, inner,
//! [store, threshold, chunk, depth]]` and custom `[6, kind, params]`.
//! Caching params are `[mode, lease_ns, capacity]` (mode 0 a lease, 1
//! invalidations, 2 both); an endpoint is `[node, port]`. The decoder
//! refuses an unknown kind, mode or read target, a missing or trailing
//! slot and a slot of the wrong type, and fills in no default.

use std::time::Duration;

use rpc::{endpoint_from_value, endpoint_to_value};
use simnet::Endpoint;
use wire::{Value, WireError};

use crate::bulk::BulkParams;

/// How a caching proxy keeps its cache coherent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Coherence {
    /// Entries expire after a fixed lease; no server cooperation needed.
    Lease(Duration),
    /// The proxy subscribes and the service pushes an invalidation to
    /// the proxies that read a datum when it is written; entries live
    /// until invalidated or evicted. Sending one breaks the callback:
    /// the service forgets the reader until it reads again. An
    /// invalidation the network *loses* is therefore not repeated by the
    /// datum's next write — the stale entry lives until the cache evicts
    /// it. On links that can lose datagrams use
    /// [`Coherence::LeaseAndInvalidate`].
    Invalidate,
    /// Both: invalidations for promptness, leases as a safety net
    /// against lost invalidation messages (a lost one costs at most one
    /// lease of staleness).
    LeaseAndInvalidate(Duration),
}

impl Coherence {
    /// The lease duration, if any.
    pub fn lease(&self) -> Option<Duration> {
        match self {
            Coherence::Lease(d) | Coherence::LeaseAndInvalidate(d) => Some(*d),
            Coherence::Invalidate => None,
        }
    }

    /// Whether this mode subscribes for invalidations.
    pub fn subscribes(&self) -> bool {
        matches!(
            self,
            Coherence::Invalidate | Coherence::LeaseAndInvalidate(_)
        )
    }
}

/// Parameters of a caching proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachingParams {
    /// Coherence mode.
    pub coherence: Coherence,
    /// Maximum number of cached entries (LRU beyond this).
    pub capacity: usize,
}

impl Default for CachingParams {
    /// Invalidation-based coherence with a 10ms lease safety net and a
    /// 1024-entry cache.
    fn default() -> CachingParams {
        CachingParams {
            coherence: Coherence::LeaseAndInvalidate(Duration::from_millis(10)),
            capacity: 1024,
        }
    }
}

/// Parameters of an adaptive proxy.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveParams {
    /// Sliding window length (number of invocations) used to estimate
    /// the read fraction.
    pub window: usize,
    /// Enable caching when the windowed read fraction rises above this.
    pub enable_at: f64,
    /// Disable caching when it falls below this (hysteresis).
    pub disable_at: f64,
    /// Caching parameters used while caching is enabled.
    pub caching: CachingParams,
}

impl Default for AdaptiveParams {
    fn default() -> AdaptiveParams {
        AdaptiveParams {
            window: 64,
            enable_at: 0.80,
            disable_at: 0.50,
            caching: CachingParams::default(),
        }
    }
}

/// Which replica a replicated service's proxy should read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadTarget {
    /// Probe all replicas at bind time and read from the nearest.
    Nearest,
    /// Always read from the primary (strongest consistency).
    Primary,
}

/// The proxy implementation a service asks its clients to run.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxySpec {
    /// Marshal-and-forward; the degenerate proxy (an RPC stub).
    Stub,
    /// Cache read results at the client.
    Caching(CachingParams),
    /// Count accesses and check the object out into the client's
    /// context once `threshold` invocations have been made.
    Migratory {
        /// Invocations before the proxy attempts checkout.
        threshold: u64,
    },
    /// Read from a replica, write to the primary.
    Replicated {
        /// The write master.
        primary: Endpoint,
        /// All read replicas (usually including the primary).
        replicas: Vec<Endpoint>,
        /// Read placement policy.
        read_target: ReadTarget,
    },
    /// Monitor the access pattern and switch strategy on the fly.
    Adaptive(AdaptiveParams),
    /// Wrap an inner proxy in the out-of-band bulk data plane: payloads
    /// above the spill threshold travel by reference
    /// ([`wire::Value::Ref`]) with the bytes fetched from a blob store,
    /// chunked per the published [`BulkParams`] contract.
    Bulk {
        /// The proxy doing the actual invocations (`Stub` or `Caching`).
        inner: Box<ProxySpec>,
        /// The spill/transfer contract shared by writer and readers.
        params: BulkParams,
    },
    /// An extension spec handled by a client-registered proxy factory.
    Custom {
        /// Factory key.
        kind: String,
        /// Factory-specific parameters.
        params: Value,
    },
}

impl ProxySpec {
    /// The cache capacity this spec tells clients to run with, if it
    /// makes them cache at all.
    pub(crate) fn cache_capacity(&self) -> Option<usize> {
        match self {
            ProxySpec::Caching(p) => Some(p.capacity),
            ProxySpec::Adaptive(p) => Some(p.caching.capacity),
            ProxySpec::Bulk { inner, .. } => inner.cache_capacity(),
            _ => None,
        }
    }

    /// The spec's kind, as errors name it.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ProxySpec::Stub => "stub",
            ProxySpec::Caching(_) => "caching",
            ProxySpec::Migratory { .. } => "migratory",
            ProxySpec::Replicated { .. } => "replicated",
            ProxySpec::Adaptive(_) => "adaptive",
            ProxySpec::Bulk { .. } => "bulk",
            ProxySpec::Custom { .. } => "custom",
        }
    }

    /// Encodes the spec for the name-service metadata record (see the
    /// module doc).
    pub fn to_value(&self) -> Value {
        match self {
            ProxySpec::Stub => Value::list([Value::U64(STUB)]),
            ProxySpec::Caching(p) => Value::list([Value::U64(CACHING), caching_to_value(p)]),
            ProxySpec::Migratory { threshold } => {
                Value::list([Value::U64(MIGRATORY), Value::U64(*threshold)])
            }
            ProxySpec::Replicated {
                primary,
                replicas,
                read_target,
            } => Value::list([
                Value::U64(REPLICATED),
                endpoint_to_value(*primary),
                Value::list(replicas.iter().map(|r| endpoint_to_value(*r))),
                Value::U64((*read_target == ReadTarget::Primary).into()),
            ]),
            ProxySpec::Adaptive(p) => Value::list([
                Value::U64(ADAPTIVE),
                Value::list([
                    Value::U64(p.window as u64),
                    Value::F64(p.enable_at),
                    Value::F64(p.disable_at),
                    caching_to_value(&p.caching),
                ]),
            ]),
            ProxySpec::Bulk { inner, params } => {
                Value::list([Value::U64(BULK), inner.to_value(), params.to_value()])
            }
            ProxySpec::Custom { kind, params } => {
                Value::list([Value::U64(CUSTOM), Value::str(kind.clone()), params.clone()])
            }
        }
    }

    /// Decodes a spec from name-service metadata, strictly.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for an unknown kind, coherence mode or
    /// read target, a wrong arity, or a slot of the wrong kind or range.
    pub fn from_value(v: &Value) -> Result<ProxySpec, WireError> {
        let slots = v.as_list().ok_or(malformed("proxy spec [kind, …]"))?;
        Ok(match slots {
            [Value::U64(STUB)] => ProxySpec::Stub,
            [Value::U64(CACHING), p] => ProxySpec::Caching(caching_from_value(p)?),
            [Value::U64(MIGRATORY), Value::U64(threshold)] => ProxySpec::Migratory {
                threshold: *threshold,
            },
            [Value::U64(REPLICATED), primary, Value::List(replicas), Value::U64(read)] => {
                ProxySpec::Replicated {
                    primary: endpoint_from_value(primary)?,
                    replicas: replicas
                        .iter()
                        .map(endpoint_from_value)
                        .collect::<Result<_, _>>()?,
                    read_target: match read {
                        0 => ReadTarget::Nearest,
                        1 => ReadTarget::Primary,
                        _ => return Err(malformed("read target 0 or 1")),
                    },
                }
            }
            [Value::U64(ADAPTIVE), Value::List(p)] => match &p[..] {
                [Value::U64(window), Value::F64(enable_at), Value::F64(disable_at), caching] => {
                    ProxySpec::Adaptive(AdaptiveParams {
                        window: *window as usize,
                        enable_at: *enable_at,
                        disable_at: *disable_at,
                        caching: caching_from_value(caching)?,
                    })
                }
                _ => return Err(malformed("adaptive [window, enable, disable, caching]")),
            },
            [Value::U64(BULK), inner, params] => ProxySpec::Bulk {
                inner: Box::new(ProxySpec::from_value(inner)?),
                params: BulkParams::from_value(params)?,
            },
            [Value::U64(CUSTOM), Value::Str(kind), params] => ProxySpec::Custom {
                kind: kind.to_string_owned(),
                params: params.clone(),
            },
            _ => return Err(malformed("a known proxy spec kind with its slots")),
        })
    }
}

/// The spec kind codes, each an encoded spec's first slot.
const STUB: u64 = 0;
const CACHING: u64 = 1;
const MIGRATORY: u64 = 2;
const REPLICATED: u64 = 3;
const ADAPTIVE: u64 = 4;
const BULK: u64 = 5;
const CUSTOM: u64 = 6;

fn malformed(expected: &'static str) -> WireError {
    WireError::WrongKind {
        expected,
        actual: "another shape",
    }
}

/// `[mode, lease_ns, capacity]`, the mode 0 for a lease, 1 for
/// invalidations, 2 for both.
fn caching_to_value(p: &CachingParams) -> Value {
    let (mode, lease_ns) = match p.coherence {
        Coherence::Lease(d) => (0, d.as_nanos() as u64),
        Coherence::Invalidate => (1, 0),
        Coherence::LeaseAndInvalidate(d) => (2, d.as_nanos() as u64),
    };
    Value::list([mode, lease_ns, p.capacity as u64].map(Value::U64))
}

fn caching_from_value(v: &Value) -> Result<CachingParams, WireError> {
    let [Value::U64(mode), Value::U64(lease_ns), Value::U64(capacity)] =
        v.as_list().unwrap_or_default()
    else {
        return Err(malformed("caching [mode, lease_ns, capacity]"));
    };
    let lease = Duration::from_nanos(*lease_ns);
    let coherence = match mode {
        0 => Coherence::Lease(lease),
        1 => Coherence::Invalidate,
        2 => Coherence::LeaseAndInvalidate(lease),
        _ => return Err(malformed("coherence mode 0, 1 or 2")),
    };
    Ok(CachingParams {
        coherence,
        capacity: *capacity as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, PortId};

    fn ep(n: u32, p: u32) -> Endpoint {
        Endpoint::new(NodeId(n), PortId(p))
    }

    #[test]
    fn roundtrip_all_variants() {
        let specs = [
            ProxySpec::Stub,
            ProxySpec::Caching(CachingParams {
                coherence: Coherence::Lease(Duration::from_millis(5)),
                capacity: 16,
            }),
            ProxySpec::Caching(CachingParams {
                coherence: Coherence::Invalidate,
                capacity: 100,
            }),
            ProxySpec::Caching(CachingParams::default()),
            ProxySpec::Migratory { threshold: 12 },
            ProxySpec::Replicated {
                primary: ep(0, 3),
                replicas: vec![ep(0, 3), ep(1, 3), ep(2, 3)],
                read_target: ReadTarget::Nearest,
            },
            ProxySpec::Replicated {
                primary: ep(0, 3),
                replicas: vec![ep(0, 3)],
                read_target: ReadTarget::Primary,
            },
            ProxySpec::Adaptive(AdaptiveParams::default()),
            ProxySpec::Bulk {
                inner: Box::new(ProxySpec::Stub),
                params: BulkParams::default(),
            },
            ProxySpec::Bulk {
                inner: Box::new(ProxySpec::Caching(CachingParams {
                    coherence: Coherence::Invalidate,
                    capacity: 64,
                })),
                params: BulkParams {
                    store: "blob-origin".into(),
                    threshold: 2048,
                    chunk: 32 * 1024,
                    depth: 4,
                },
            },
            ProxySpec::Custom {
                kind: "tracing".into(),
                params: Value::record([("level", Value::U64(2))]),
            },
        ];
        for spec in specs {
            let v = spec.to_value();
            assert_eq!(ProxySpec::from_value(&v).unwrap(), spec, "spec {spec:?}");
        }
    }

    /// An unknown kind, mode or read target, a missing or trailing slot
    /// and a slot of the wrong kind or range are refused, never defaulted.
    #[test]
    fn unknown_kind_rejected() {
        let (u, l) = (Value::U64, Value::List);
        let caching = |mode| l(vec![u(mode), u(0), u(16)]);
        let at = |n, p| l(vec![u(n), u(p)]);
        let stub = || l(vec![u(STUB)]);
        let refused = [
            l(vec![u(7)]),
            l(vec![Value::str("stub")]),
            Value::record([("kind", Value::str("stub"))]),
            // Null params, an unknown mode, a missing slot: no default.
            l(vec![u(CACHING), Value::Null]),
            l(vec![u(CACHING), caching(3)]),
            l(vec![u(CACHING), l(vec![u(1), u(0)])]),
            l(vec![u(CACHING), caching(1), u(0)]),
            // An unknown read target, a node or port above `u32::MAX`.
            l(vec![u(REPLICATED), at(0, 3), l(vec![at(0, 3)]), u(2)]),
            l(vec![u(REPLICATED), at(1 << 32, 3), l(vec![]), u(0)]),
            l(vec![u(REPLICATED), at(0, 3), l(vec![at(0, 1 << 32)]), u(0)]),
            // A bulk spec without its params, or with params misshapen.
            l(vec![u(BULK), stub()]),
            l(vec![
                u(BULK),
                stub(),
                l(vec![Value::str("blob"), u(1), u(1)]),
            ]),
            l(vec![u(BULK), stub(), l(vec![u(1), u(1), u(1), u(1)])]),
            l(vec![
                u(ADAPTIVE),
                l(vec![u(64), Value::F64(0.8), Value::F64(0.5)]),
            ]),
            l(vec![u(MIGRATORY), Value::I64(3)]),
        ];
        for v in refused {
            assert!(ProxySpec::from_value(&v).is_err(), "{v} decoded");
        }
    }

    #[test]
    fn coherence_helpers() {
        assert_eq!(
            Coherence::Lease(Duration::from_millis(1)).lease(),
            Some(Duration::from_millis(1))
        );
        assert_eq!(Coherence::Invalidate.lease(), None);
        assert!(Coherence::Invalidate.subscribes());
        assert!(!Coherence::Lease(Duration::ZERO).subscribes());
        assert!(Coherence::LeaseAndInvalidate(Duration::ZERO).subscribes());
    }

    #[test]
    fn default_caching_has_safety_net() {
        let p = CachingParams::default();
        assert!(p.coherence.subscribes());
        assert!(p.coherence.lease().is_some());
    }
}
