//! The self-describing value model.
//!
//! [`Value`] is the dynamic data model every protocol layer in this
//! workspace marshals through — the analogue of the Courier/XDR
//! presentation layer in classic RPC systems. Service interfaces exchange
//! `Value`s; typed client wrappers convert to and from domain types at the
//! edges.

use bytes::Bytes;

use crate::error::WireError;
use crate::wstr::WStr;

/// A service-scoped reference to a payload stored out-of-band.
///
/// The bulk data plane substitutes one of these for any blob above the
/// spill threshold: the RPC path carries this fixed-size handle while the
/// bytes themselves live in the named blob-store service, fetched lazily
/// (and chunked) by whoever actually touches the value. `len` and `crc`
/// pin the content so a resolver can verify the reassembled bytes match
/// what the producer spilled.
#[derive(Debug, Clone, PartialEq)]
pub struct BlobRef {
    /// Service name of the blob store holding the bytes.
    pub store: WStr,
    /// Key of the payload within that store.
    pub key: WStr,
    /// Byte length of the referenced payload.
    pub len: u64,
    /// CRC-32 of the payload content.
    pub crc: u32,
}

/// A dynamically-typed, self-describing wire value.
///
/// ```
/// use wire::Value;
///
/// let v = Value::record([
///     ("op", Value::str("put")),
///     ("key", Value::str("color")),
///     ("size", Value::U64(3)),
/// ]);
/// assert_eq!(v.get("op").and_then(|v| v.as_str()), Some("put"));
/// assert_eq!(v.get_u64("size").unwrap(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned 64-bit integer.
    U64(u64),
    /// A signed 64-bit integer.
    I64(i64),
    /// A 64-bit float.
    F64(f64),
    /// A UTF-8 string ([`WStr`]). One of up to 15 bytes is held inline
    /// and costs no heap block, built here or decoded. A longer one is
    /// one refcounted block, which holds the reference counts and the
    /// text: the zero-copy decoder aliases the incoming frame, and
    /// clones are cheap.
    Str(WStr),
    /// Raw bytes ([`Bytes`]): up to 15 held inline, with no block; more
    /// as one block shared by clones and by the frame they were decoded
    /// from. [`Value::blob`] of a `Vec` copies it, into a block of its
    /// length when it is longer than 15 bytes.
    Blob(Bytes),
    /// An ordered list of values.
    List(Vec<Value>),
    /// An ordered list of named fields (a record). Field order is
    /// preserved and significant for encoding, but lookup by name via
    /// [`Value::get`] ignores order. Keys are [`WStr`], so a key longer
    /// than 15 bytes aliases the incoming frame as well, and a shorter
    /// one is held inline.
    Record(Vec<(WStr, Value)>),
    /// A reference to a payload stored out-of-band in a blob-store
    /// service (the bulk data plane's pass-by-reference handle).
    Ref(BlobRef),
}

impl Value {
    /// Convenience constructor for [`Value::Str`].
    pub fn str(s: impl Into<WStr>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor for [`Value::Blob`].
    pub fn blob(b: impl Into<Bytes>) -> Value {
        Value::Blob(b.into())
    }

    /// Convenience constructor for [`Value::List`].
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Convenience constructor for [`Value::Record`].
    pub fn record<K: Into<WStr>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Record(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience constructor for [`Value::Ref`].
    pub fn blob_ref(store: impl Into<WStr>, key: impl Into<WStr>, len: u64, crc: u32) -> Value {
        Value::Ref(BlobRef {
            store: store.into(),
            key: key.into(),
            len,
            crc,
        })
    }

    /// Human-readable name of this value's kind (used in errors).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) => "u64",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Str(_) => "str",
            Value::Blob(_) => "blob",
            Value::List(_) => "list",
            Value::Record(_) => "record",
            Value::Ref(_) => "ref",
        }
    }

    /// Borrows the string if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Borrows the refcounted string if this is a [`Value::Str`]. Use
    /// this instead of [`Value::as_str`] when the caller wants to keep
    /// the string without copying it.
    pub fn as_wstr(&self) -> Option<&WStr> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is a [`Value::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the float if this is a [`Value::F64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the bool if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrows the bytes if this is a [`Value::Blob`].
    pub fn as_blob(&self) -> Option<&Bytes> {
        match self {
            Value::Blob(b) => Some(b),
            _ => None,
        }
    }

    /// Borrows the items if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Borrows the fields if this is a [`Value::Record`].
    pub fn as_record(&self) -> Option<&[(WStr, Value)]> {
        match self {
            Value::Record(fields) => Some(fields),
            _ => None,
        }
    }

    /// Borrows the reference if this is a [`Value::Ref`].
    pub fn as_blob_ref(&self) -> Option<&BlobRef> {
        match self {
            Value::Ref(r) => Some(r),
            _ => None,
        }
    }

    /// Looks up a field by name in a [`Value::Record`]. Returns `None`
    /// for other kinds or missing fields. First match wins.
    pub fn get(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Record(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required string field of a record.
    ///
    /// # Errors
    ///
    /// [`WireError::MissingField`] if absent, [`WireError::WrongKind`] if
    /// present with another kind.
    pub fn get_str(&self, name: &'static str) -> Result<&str, WireError> {
        let v = self.get(name).ok_or(WireError::MissingField(name))?;
        v.as_str().ok_or(WireError::WrongKind {
            expected: "str",
            actual: v.kind(),
        })
    }

    /// Required `u64` field of a record.
    ///
    /// # Errors
    ///
    /// [`WireError::MissingField`] if absent, [`WireError::WrongKind`] if
    /// present with another kind.
    pub fn get_u64(&self, name: &'static str) -> Result<u64, WireError> {
        let v = self.get(name).ok_or(WireError::MissingField(name))?;
        v.as_u64().ok_or(WireError::WrongKind {
            expected: "u64",
            actual: v.kind(),
        })
    }

    /// Required blob field of a record.
    ///
    /// # Errors
    ///
    /// [`WireError::MissingField`] if absent, [`WireError::WrongKind`] if
    /// present with another kind.
    pub fn get_blob(&self, name: &'static str) -> Result<&Bytes, WireError> {
        let v = self.get(name).ok_or(WireError::MissingField(name))?;
        v.as_blob().ok_or(WireError::WrongKind {
            expected: "blob",
            actual: v.kind(),
        })
    }

    /// Required list field of a record.
    ///
    /// # Errors
    ///
    /// [`WireError::MissingField`] if absent, [`WireError::WrongKind`] if
    /// present with another kind.
    pub fn get_list(&self, name: &'static str) -> Result<&[Value], WireError> {
        let v = self.get(name).ok_or(WireError::MissingField(name))?;
        v.as_list().ok_or(WireError::WrongKind {
            expected: "list",
            actual: v.kind(),
        })
    }

    /// Approximate in-memory payload size, used by tests and benches to
    /// relate value size to encoded size.
    pub fn payload_len(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::U64(_) | Value::I64(_) | Value::F64(_) => 8,
            Value::Str(s) => s.len(),
            Value::Blob(b) => b.len(),
            Value::List(items) => items.iter().map(Value::payload_len).sum(),
            Value::Record(fields) => fields.iter().map(|(k, v)| k.len() + v.payload_len()).sum(),
            // The handle itself, not the referenced bytes: the whole point
            // of a ref is that the payload does not ride with the value.
            Value::Ref(r) => r.store.len() + r.key.len() + 12,
        }
    }
}

impl std::fmt::Display for Value {
    /// Renders a JSON-like human-readable form (for logs and debugging;
    /// *not* a serialization format — use [`crate::encode`] for that).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(n) => write!(f, "{n}"),
            Value::I64(n) => write!(f, "{n}"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Blob(b) => {
                if b.len() <= 8 {
                    write!(f, "0x")?;
                    for byte in b.iter() {
                        write!(f, "{byte:02x}")?;
                    }
                    Ok(())
                } else {
                    write!(f, "<{} bytes>", b.len())
                }
            }
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Record(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Ref(r) => write!(
                f,
                "ref({}/{}, {} bytes, crc={:08x})",
                r.store, r.key, r.len, r.crc
            ),
        }
    }
}

impl Default for Value {
    /// [`Value::Null`].
    fn default() -> Value {
        Value::Null
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::U64(n)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::U64(n.into())
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::I64(n)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::F64(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(WStr::from(s))
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(WStr::from(s))
    }
}
impl From<WStr> for Value {
    fn from(s: WStr) -> Value {
        Value::Str(s)
    }
}
impl From<Bytes> for Value {
    fn from(b: Bytes) -> Value {
        Value::Blob(b)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::List(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lookup_by_name() {
        let v = Value::record([("a", Value::U64(1)), ("b", Value::str("x"))]);
        assert_eq!(v.get_u64("a").unwrap(), 1);
        assert_eq!(v.get_str("b").unwrap(), "x");
        assert_eq!(v.get("missing"), None);
        assert_eq!(
            v.get_u64("missing"),
            Err(WireError::MissingField("missing"))
        );
    }

    #[test]
    fn wrong_kind_reports_both_sides() {
        let v = Value::record([("n", Value::str("not a number"))]);
        assert_eq!(
            v.get_u64("n"),
            Err(WireError::WrongKind {
                expected: "u64",
                actual: "str"
            })
        );
    }

    #[test]
    fn first_match_wins_on_duplicate_fields() {
        let v = Value::Record(vec![
            ("k".into(), Value::U64(1)),
            ("k".into(), Value::U64(2)),
        ]);
        assert_eq!(v.get_u64("k").unwrap(), 1);
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(5u64), Value::U64(5));
        assert_eq!(Value::from(5u32), Value::U64(5));
        assert_eq!(Value::from(-5i64), Value::I64(-5));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(2.5f64), Value::F64(2.5));
    }

    #[test]
    fn accessors_reject_other_kinds() {
        let v = Value::U64(3);
        assert!(v.as_str().is_none());
        assert!(v.as_bool().is_none());
        assert!(v.as_list().is_none());
        assert!(v.as_record().is_none());
        assert_eq!(v.as_u64(), Some(3));
    }

    #[test]
    fn payload_len_is_additive() {
        let v = Value::record([("k", Value::blob(vec![0u8; 100])), ("s", Value::str("abc"))]);
        assert_eq!(v.payload_len(), 1 + 100 + 1 + 3);
    }

    #[test]
    fn display_is_json_like() {
        let v = Value::record([
            ("op", Value::str("put")),
            ("n", Value::U64(3)),
            ("tags", Value::list([Value::Bool(true), Value::Null])),
            ("raw", Value::blob(vec![0xAB, 0xCD])),
            ("big", Value::blob(vec![0u8; 100])),
        ]);
        assert_eq!(
            v.to_string(),
            "{op: \"put\", n: 3, tags: [true, null], raw: 0xabcd, big: <100 bytes>}"
        );
    }

    #[test]
    fn default_is_null() {
        assert_eq!(Value::default(), Value::Null);
        assert_eq!(Value::default().kind(), "null");
    }

    #[test]
    fn blob_ref_accessors_and_display() {
        let v = Value::blob_ref("blob-origin", "k/42", 1_048_576, 0xDEAD_BEEF);
        assert_eq!(v.kind(), "ref");
        let r = v.as_blob_ref().unwrap();
        assert_eq!(r.store.as_str(), "blob-origin");
        assert_eq!(r.key.as_str(), "k/42");
        assert_eq!(r.len, 1_048_576);
        assert_eq!(r.crc, 0xDEAD_BEEF);
        assert!(v.as_blob().is_none(), "a ref is not an inline blob");
        assert_eq!(
            v.to_string(),
            "ref(blob-origin/k/42, 1048576 bytes, crc=deadbeef)"
        );
        // The handle is small no matter how big the referenced payload is.
        assert_eq!(v.payload_len(), 11 + 4 + 12);
        assert!(Value::U64(1).as_blob_ref().is_none());
    }
}
