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

    /// The `kind` field of the encoded spec.
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

    /// Encodes the spec for the name-service metadata record.
    pub fn to_value(&self) -> Value {
        match self {
            ProxySpec::Stub => Value::record([("kind", Value::str(self.kind()))]),
            ProxySpec::Caching(p) => Value::record([
                ("kind", Value::str(self.kind())),
                ("params", caching_to_value(p)),
            ]),
            ProxySpec::Migratory { threshold } => Value::record([
                ("kind", Value::str(self.kind())),
                ("threshold", Value::U64(*threshold)),
            ]),
            ProxySpec::Replicated {
                primary,
                replicas,
                read_target,
            } => Value::record([
                ("kind", Value::str(self.kind())),
                ("primary", endpoint_to_value(*primary)),
                (
                    "replicas",
                    Value::list(replicas.iter().map(|r| endpoint_to_value(*r))),
                ),
                (
                    "read",
                    Value::str(match read_target {
                        ReadTarget::Nearest => "nearest",
                        ReadTarget::Primary => "primary",
                    }),
                ),
            ]),
            ProxySpec::Adaptive(p) => Value::record([
                ("kind", Value::str(self.kind())),
                ("window", Value::U64(p.window as u64)),
                ("enable_at", Value::F64(p.enable_at)),
                ("disable_at", Value::F64(p.disable_at)),
                ("caching", caching_to_value(&p.caching)),
            ]),
            ProxySpec::Bulk { inner, params } => Value::record([
                ("kind", Value::str(self.kind())),
                ("inner", inner.to_value()),
                ("bulk", params.to_value()),
            ]),
            ProxySpec::Custom { kind, params } => Value::record([
                ("kind", Value::str(self.kind())),
                ("custom_kind", Value::str(kind.clone())),
                ("params", params.clone()),
            ]),
        }
    }

    /// Decodes a spec from name-service metadata.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for missing or malformed fields.
    pub fn from_value(v: &Value) -> Result<ProxySpec, WireError> {
        match v.get_str("kind")? {
            "stub" => Ok(ProxySpec::Stub),
            "caching" => Ok(ProxySpec::Caching(caching_from_value(
                v.get("params").unwrap_or(&Value::Null),
            )?)),
            "migratory" => Ok(ProxySpec::Migratory {
                threshold: v.get_u64("threshold")?,
            }),
            "replicated" => {
                let primary = endpoint_from_value(
                    v.get("primary").ok_or(WireError::MissingField("primary"))?,
                )?;
                let replicas = v
                    .get_list("replicas")?
                    .iter()
                    .map(endpoint_from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                let read_target = match v.get_str("read")? {
                    "primary" => ReadTarget::Primary,
                    _ => ReadTarget::Nearest,
                };
                Ok(ProxySpec::Replicated {
                    primary,
                    replicas,
                    read_target,
                })
            }
            "adaptive" => Ok(ProxySpec::Adaptive(AdaptiveParams {
                window: v.get_u64("window")? as usize,
                enable_at: v
                    .get("enable_at")
                    .and_then(Value::as_f64)
                    .ok_or(WireError::MissingField("enable_at"))?,
                disable_at: v
                    .get("disable_at")
                    .and_then(Value::as_f64)
                    .ok_or(WireError::MissingField("disable_at"))?,
                caching: caching_from_value(v.get("caching").unwrap_or(&Value::Null))?,
            })),
            "bulk" => Ok(ProxySpec::Bulk {
                inner: Box::new(ProxySpec::from_value(
                    v.get("inner").ok_or(WireError::MissingField("inner"))?,
                )?),
                params: match v.get("bulk") {
                    Some(p) => BulkParams::from_value(p)?,
                    None => BulkParams::default(),
                },
            }),
            "custom" => Ok(ProxySpec::Custom {
                kind: v.get_str("custom_kind")?.to_owned(),
                params: v.get("params").cloned().unwrap_or(Value::Null),
            }),
            other => Err(WireError::WrongKind {
                expected: "known proxy spec kind",
                actual: if other.is_empty() { "empty" } else { "unknown" },
            }),
        }
    }
}

fn caching_to_value(p: &CachingParams) -> Value {
    let (mode, lease_ns) = match p.coherence {
        Coherence::Lease(d) => ("lease", d.as_nanos() as u64),
        Coherence::Invalidate => ("inv", 0),
        Coherence::LeaseAndInvalidate(d) => ("lease+inv", d.as_nanos() as u64),
    };
    Value::record([
        ("mode", Value::str(mode)),
        ("lease_ns", Value::U64(lease_ns)),
        ("capacity", Value::U64(p.capacity as u64)),
    ])
}

fn caching_from_value(v: &Value) -> Result<CachingParams, WireError> {
    if *v == Value::Null {
        return Ok(CachingParams::default());
    }
    let lease = Duration::from_nanos(v.get_u64("lease_ns")?);
    let coherence = match v.get_str("mode")? {
        "lease" => Coherence::Lease(lease),
        "inv" => Coherence::Invalidate,
        _ => Coherence::LeaseAndInvalidate(lease),
    };
    Ok(CachingParams {
        coherence,
        capacity: v.get_u64("capacity")? as usize,
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

    #[test]
    fn unknown_kind_rejected() {
        let v = Value::record([("kind", Value::str("quantum"))]);
        assert!(ProxySpec::from_value(&v).is_err());
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
