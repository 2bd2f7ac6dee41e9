//! The record a name maps to.
//!
//! On the wire a record is positional, `[node, port, meta, gen]`: it
//! travels only between this crate's server and its clients, so it pays
//! for no field names.

use bytes::Bytes;
use simnet::{Endpoint, NodeId, PortId};
use wire::{Value, WireError};

/// A name binding: where the service lives and how to bind to it.
///
/// `meta` carries the *service-chosen* binding information — in the proxy
/// principle, the proxy specification the service wants installed in its
/// clients. `generation` increases every time the binding changes, letting
/// clients detect stale cached bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct NameRecord {
    /// Where the service currently accepts messages.
    pub endpoint: Endpoint,
    /// Opaque binding metadata (proxy spec, replica list, …).
    pub meta: Value,
    /// Monotonic binding version, bumped by every register/update.
    pub generation: u64,
}

impl NameRecord {
    /// Encodes the record as a wire value, `[node, port, meta, gen]`.
    pub fn to_value(&self) -> Value {
        Value::list([
            Value::U64(self.endpoint.node.0.into()),
            Value::U64(self.endpoint.port.0.into()),
            self.meta.clone(),
            Value::U64(self.generation),
        ])
    }

    /// Encodes the record as [`NameRecord::to_value`] would be encoded
    /// (unframed): the form the name server keeps and splices into each
    /// lookup reply.
    pub fn encode(&self) -> Bytes {
        wire::encode(&self.to_value())
    }

    /// Decodes a record from a wire value, moving `meta` out of it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for a wrong arity or a slot of the wrong
    /// kind or range.
    pub fn from_value(v: Value) -> Result<NameRecord, WireError> {
        let malformed = || WireError::WrongKind {
            expected: "name record [node, port, meta, gen]",
            actual: "another shape",
        };
        let Value::List(slots) = v else {
            return Err(malformed());
        };
        let Ok([node, port, meta, generation]) = <[Value; 4]>::try_from(slots) else {
            return Err(malformed());
        };
        let part = |v: Value| v.as_u64().and_then(|n| u32::try_from(n).ok());
        let (Some(node), Some(port), Some(generation)) =
            (part(node), part(port), generation.as_u64())
        else {
            return Err(malformed());
        };
        Ok(NameRecord {
            endpoint: Endpoint::new(NodeId(node), PortId(port)),
            meta,
            generation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, PortId};

    #[test]
    fn roundtrip() {
        let rec = NameRecord {
            endpoint: Endpoint::new(NodeId(4), PortId(9)),
            meta: Value::record([("proxy", Value::str("caching"))]),
            generation: 17,
        };
        assert_eq!(NameRecord::from_value(rec.to_value()).unwrap(), rec);
        assert_eq!(rec.encode(), wire::encode(&rec.to_value()));
    }

    #[test]
    fn missing_endpoint_rejected() {
        let v = Value::list([Value::Null, Value::U64(1)]);
        assert!(NameRecord::from_value(v).is_err());
        let v = Value::list([
            Value::U64(1 << 32),
            Value::U64(1),
            Value::Null,
            Value::U64(1),
        ]);
        assert!(NameRecord::from_value(v).is_err(), "node out of range");
    }

    #[test]
    fn missing_meta_defaults_to_null() {
        // A service that registers no metadata gets a null slot back.
        let rec = NameRecord {
            endpoint: Endpoint::new(NodeId(1), PortId(1)),
            meta: Value::Null,
            generation: 1,
        };
        let v = Value::list([Value::U64(1), Value::U64(1), Value::Null, Value::U64(1)]);
        assert_eq!(rec.to_value(), v);
        assert_eq!(NameRecord::from_value(v).unwrap(), rec);
    }
}
