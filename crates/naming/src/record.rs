//! The record a name maps to.

use bytes::Bytes;
use rpc::{endpoint_from_value, endpoint_to_value};
use simnet::Endpoint;
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
    /// Encodes the record as a wire value.
    pub fn to_value(&self) -> Value {
        Value::record([
            ("ep", endpoint_to_value(self.endpoint)),
            ("meta", self.meta.clone()),
            ("gen", Value::U64(self.generation)),
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
    /// Returns a [`WireError`] if fields are missing or malformed.
    pub fn from_value(v: Value) -> Result<NameRecord, WireError> {
        let endpoint = endpoint_from_value(v.get("ep").ok_or(WireError::MissingField("ep"))?)?;
        let generation = v.get_u64("gen")?;
        let meta = match v {
            // The first field of a name counts, as for `Value::get`.
            Value::Record(fields) => fields.into_iter().find(|(k, _)| k == "meta"),
            _ => None,
        };
        Ok(NameRecord {
            endpoint,
            meta: meta.map_or(Value::Null, |(_, m)| m),
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
        let v = Value::record([("gen", Value::U64(1))]);
        assert!(NameRecord::from_value(v).is_err());
    }

    #[test]
    fn missing_meta_defaults_to_null() {
        let rec = NameRecord {
            endpoint: Endpoint::new(NodeId(1), PortId(1)),
            meta: Value::Null,
            generation: 1,
        };
        let mut v = rec.to_value();
        if let Value::Record(ref mut fields) = v {
            fields.retain(|(k, _)| k != "meta");
        }
        assert_eq!(NameRecord::from_value(v).unwrap(), rec);
    }
}
